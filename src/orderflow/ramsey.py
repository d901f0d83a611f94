"""Order-dynamics witnesses, and monochromatic-subset extraction for
general pair colorings.

A minimality witness is a finitely supported permutation carrying a large
source order onto a prescribed pattern on a target window.  A proximality
witness carries two source orders onto the same window so that they either
agree there or are exact reverses.  Its points are an increasing or a
decreasing run in the second order's ranks listed in the first order's
order; by Erdos-Szekeres the (|W|-1)^2+1 least points hold one.  The greedy
pivot extraction on a general pair coloring reads one row of colors per
pivot, the pivot against every live ground position at once, and keeps
its majority class by a boolean mask.

Verification pulls the checked window back through alpha and compares the
orders' ranks at the |W| preimages pair by pair.  This is the relocated
pair configuration read only where it is checked: its value at (x, y) is
+1 exactly when the preimage of x ranks below the preimage of y.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import (
    FinPerm,
    Window,
    _preimage_positions,
    extend_bijection,
    inverse,
    numbered_lines,
    perm_from_text,
    perm_to_text,
    window_from_text,
    window_to_text,
)
from .errors import FormatError, GroundTooSmall, WindowTooSmall
from .orders import LinearOrder

MINIMALITY = "minimality"
PROXIMALITY_AGREE = "proximality-agree"
PROXIMALITY_REVERSE = "proximality-reverse"

_KINDS = (MINIMALITY, PROXIMALITY_AGREE, PROXIMALITY_REVERSE)


def _pair_index(n: int, i: int, j: int | np.ndarray) -> int | np.ndarray:
    """Flat index of the pair of positions (i, j), i < j, among the pairs of
    an n-window in lexicographic order; j may be an array."""
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


@dataclass(frozen=True)
class PairColoring:
    """Two-coloring of the 2-element subsets of a ground window.

    Colors are stored flat over the pairs (i, j), i < j, in lexicographic
    position order.
    """

    ground: Window
    colors: tuple[int, ...]

    def __post_init__(self):
        n = len(self.ground)
        if len(self.colors) != n * (n - 1) // 2:
            raise ValueError(
                f"need {n * (n - 1) // 2} colors for a {n}-window, got {len(self.colors)}"
            )
        if any(c not in (0, 1) for c in self.colors):
            raise ValueError("colors must be 0 or 1")

    @classmethod
    def from_function(cls, ground: Window, fn: Callable[[int, int], int]) -> "PairColoring":
        """Evaluate fn(a, b) on every pair a < b of window elements."""
        elems = ground.elements
        colors = tuple(
            int(fn(elems[i], elems[j]))
            for i in range(len(elems))
            for j in range(i + 1, len(elems))
        )
        return cls(ground, colors)

    @classmethod
    def from_orders(cls, o1: LinearOrder, o2: LinearOrder) -> "PairColoring":
        """Color 0 where the orders agree on a pair, 1 where they disagree."""
        if o1.window != o2.window:
            raise ValueError("orders must share a window")
        r1, r2 = o1.ranks, o2.ranks
        i, j = np.triu_indices(len(r1), 1)
        return cls(o1.window, tuple(((r1[i] < r1[j]) != (r2[i] < r2[j])).astype(int).tolist()))

    def color_of(self, a: int, b: int) -> int:
        i = self.ground.position(a)
        j = self.ground.position(b)
        if i == j:
            raise ValueError(f"pair elements must be distinct, got {a}")
        if i > j:
            i, j = j, i
        return self.colors[_pair_index(len(self.ground), i, j)]

    @cached_property
    def _table(self) -> np.ndarray:
        table = np.array(self.colors, dtype=bool)
        table.flags.writeable = False
        return table

    def colors_after(self, i: int, js: np.ndarray) -> np.ndarray:
        """Colors of the pairs of ground positions (i, j), j in js, as a
        boolean array; every j must exceed i."""
        return self._table[_pair_index(len(self.ground), i, js)]


def is_monochromatic(coloring: PairColoring, subset: Iterable[int]) -> bool:
    elems = sorted(subset)
    colors = {
        coloring.color_of(elems[i], elems[j])
        for i in range(len(elems))
        for j in range(i + 1, len(elems))
    }
    return len(colors) <= 1


def _power_of_four(m: int) -> str:
    """4^m for an error message: in decimal up to 4^32 (20 digits), past
    that as the power alone."""
    return f"{4**m} (= 4^{m})" if m <= 32 else f"4^{m}"


def ramsey_mono_subset(coloring: PairColoring, m: int) -> tuple[int, ...]:
    """Monochromatic m-subset of the ground, by greedy pivot extraction.

    Repeatedly take the least live element as a pivot and keep its larger
    color class among the remaining live elements, color 0 on a tie.  Every
    pair of pivots gets the color the earlier pivot kept, so the pivots of
    the more common kept color form a monochromatic set.  Keeping the
    majority class at least halves the live count, hence ground size 4**m
    guarantees 2m pivots and so m of one color.

    The live elements are held as an array of ground positions, and each
    pivot reads its colors against all of them in one `colors_after` row.
    """
    if m < 1:
        raise ValueError(f"target size must be positive, got {m}")
    n = len(coloring.ground)
    if n < 4**m:
        raise GroundTooSmall(f"ground size {n} below the required {_power_of_four(m)}")
    live = np.arange(n)
    pivots: list[tuple[int, int]] = []
    counts = [0, 0]
    while live.size and max(counts) < m:
        p, live = int(live[0]), live[1:]
        row = coloring.colors_after(p, live)
        c = 1 if 2 * np.count_nonzero(row) > live.size else 0
        pivots.append((p, c))
        counts[c] += 1
        live = live[row] if c else live[~row]
    c = 0 if counts[0] >= counts[1] else 1
    elems = coloring.ground.elements
    subset = tuple(elems[p] for p, pc in pivots if pc == c)[:m]
    if len(subset) < m:
        raise GroundTooSmall(
            f"extraction stalled at {len(subset)} of {m} on a {n}-ground"
        )
    return subset


@dataclass(frozen=True)
class Witness:
    """Re-checkable certificate: a permutation, the window it was checked
    on, and what the check asserts."""

    alpha: FinPerm
    checked_window: Window
    kind: str

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown witness kind {self.kind!r}")


def _pulled_back_ranks(inv: FinPerm, window: Window, order: LinearOrder) -> np.ndarray:
    """Ranks under the order at the preimages inv(x) of the window points x,
    in window order; inv is the inverse of the witness's alpha.

    Raises WindowTooSmall for an order on fewer than 2 points (it has no
    pair configuration) and DomainEscape for a preimage off its ground.
    """
    if len(order.window) < 2:
        raise WindowTooSmall("need a window of size at least 2")
    return order.ranks[_preimage_positions(inv, window, order.window)]


def _all_pairs_colored(r1: np.ndarray, r2: np.ndarray, color: int) -> bool:
    """Whether every pair of slots gets the given agreement color.

    Each array holds distinct ranks, so every pair agrees exactly when both
    sort the slots alike, and every pair disagrees exactly when they sort
    them in reverse.
    """
    by_r2 = np.argsort(r2)
    return np.array_equal(np.argsort(r1), by_r2[::-1] if color else by_r2)


def verify_minimality(witness: Witness, source: LinearOrder, target: LinearOrder) -> bool:
    """Does alpha carry the source order onto the target pattern?

    The checked window is pulled back through alpha, and the source ranks
    at the preimages must order every pair of window points as the target
    ranks do.  The checked window must be the target's window.
    """
    if witness.kind != MINIMALITY:
        return False
    window = witness.checked_window
    pulled = _pulled_back_ranks(inverse(witness.alpha), window, source)
    if len(target.window) < 2:
        raise WindowTooSmall("need a window of size at least 2")
    if window != target.window:
        return False
    return _all_pairs_colored(pulled, target.ranks, 0)


def verify_proximality(witness: Witness, o1: LinearOrder, o2: LinearOrder) -> bool:
    """Do the two relocated orders agree (or exactly disagree) on the
    checked window, as the witness kind claims?

    The checked window is pulled back through alpha, and the ranks of the
    two orders at the preimages are compared pair by pair: every pair must
    be ordered alike for the agree kind and oppositely for the reverse kind.
    """
    window = witness.checked_window
    inv = inverse(witness.alpha)
    r1 = _pulled_back_ranks(inv, window, o1)
    r2 = _pulled_back_ranks(inv, window, o2)
    if witness.kind == PROXIMALITY_AGREE:
        return _all_pairs_colored(r1, r2, 0)
    if witness.kind == PROXIMALITY_REVERSE:
        return _all_pairs_colored(r1, r2, 1)
    return False


def minimality_witness(source: LinearOrder, target: LinearOrder) -> Witness:
    """Permutation realizing the target pattern inside the source order.

    Picks |W| ground points (the window itself when it sits inside the
    ground), sends the i-th lowest of them under the source order to the
    element of W with target rank i, and extends canonically.
    """
    ground = source.window
    W = target.window
    if len(ground) < len(W):
        raise GroundTooSmall(
            f"ground size {len(ground)} below the window size {len(W)}"
        )
    if set(W).issubset(set(ground)):
        chosen: Sequence[int] = W.elements
    else:
        chosen = ground.elements[: len(W)]
    by_source = sorted(chosen, key=source.rank_of)
    by_target = target.ranked_elements()
    alpha = extend_bijection(dict(zip(by_source, by_target)))
    witness = Witness(alpha, W, MINIMALITY)
    if not verify_minimality(witness, source, target):
        raise RuntimeError("internal error: minimality witness failed verification")
    return witness


def _increasing_run(values: Sequence[int], m: int) -> list[int] | None:
    """Slots of the first strictly increasing m-subsequence of the values to
    be completed, by patience sorting; None when there is none.  tails[k]
    holds the least last value of an increasing (k+1)-subsequence so far,
    with its slot; back[i] is the slot before i on the one i extends."""
    tails: list[tuple[int, int]] = []
    back: list[int] = []
    for i, v in enumerate(values):
        k = bisect_left(tails, (v,))
        back.append(tails[k - 1][1] if k else -1)
        tails[k : k + 1] = [(v, i)]
        if k + 1 == m:
            run = [i]
            while back[run[-1]] >= 0:
                run.append(back[run[-1]])
            return run[::-1]
    return None


def proximality_witness(o1: LinearOrder, o2: LinearOrder, W: Window) -> Witness:
    """Permutation matching two orders on W, up to global reversal.

    Takes the (|W|-1)^2+1 ground points least under o1, and at least the 2
    that verification needs; lists o2's ranks at them in o1 order; and
    finds an increasing |W|-subsequence of those ranks, else a decreasing
    one, which Erdos-Szekeres guarantees.  Its points are mapped onto W
    preserving o1.  On an increasing run the relocated configurations
    coincide; on a decreasing one the second is the exact negation of the
    first.
    """
    if o1.window != o2.window:
        raise ValueError("orders must share a window")
    m = len(W)
    if m < 1:
        raise ValueError("window must be nonempty")
    ground = o1.window
    bound = max(2, (m - 1) ** 2 + 1)
    if len(ground) < bound:
        raise GroundTooSmall(
            f"ground size {len(ground)} below the required {bound} for window size {m}"
        )
    head = np.flatnonzero(o1.ranks < bound)
    head = head[np.argsort(o1.ranks[head])]
    seq = o2.ranks[head].tolist()
    run, kind = _increasing_run(seq, m), PROXIMALITY_AGREE
    if run is None:
        run, kind = _increasing_run([-r for r in seq], m), PROXIMALITY_REVERSE
    points = [ground.elements[p] for p in head[run].tolist()]
    witness = Witness(extend_bijection(dict(zip(points, W.elements))), W, kind)
    if not verify_proximality(witness, o1, o2):
        raise RuntimeError("internal error: proximality witness failed verification")
    return witness


# ---------------------------------------------------------------------------
# Text format


def witness_to_text(witness: Witness) -> str:
    return (
        f"kind={witness.kind}\n"
        f"window={window_to_text(witness.checked_window)}\n"
        f"alpha={perm_to_text(witness.alpha)}\n"
    )


def witness_from_text(text: str) -> Witness:
    fields = {}
    for lineno, line in numbered_lines(text):
        key, sep, value = line.partition("=")
        if not sep or key not in ("kind", "window", "alpha"):
            raise FormatError(f"expected kind=/window=/alpha=, got {line!r}", lineno)
        if key in fields:
            raise FormatError(f"duplicate {key}= line", lineno)
        fields[key] = (value, lineno)
    missing = {"kind", "window", "alpha"} - set(fields)
    if missing:
        raise FormatError(f"missing fields: {sorted(missing)}")
    window = window_from_text(*fields["window"])
    alpha = perm_from_text(*fields["alpha"])
    try:
        return Witness(alpha, window, fields["kind"][0])
    except ValueError as exc:
        raise FormatError(str(exc), fields["kind"][1]) from None
