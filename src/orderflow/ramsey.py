"""Order-dynamics witnesses, and the agreement coloring of two orders.

A minimality witness is a finitely supported permutation carrying a large
source order onto a prescribed pattern on a target window.  A proximality
witness carries two source orders onto the same window so that they either
agree there or are exact reverses.  Its points are an increasing or a
decreasing run in the second order's ranks listed in the first order's
order; by Erdos-Szekeres the (|W|-1)^2+1 least points hold one.  That run
is the Ramsey-type step: the points of a proximality witness are
monochromatic in the agreement coloring of the two orders, color 0 where
they order a pair alike and 1 where they order it oppositely.

Verification pulls the checked window back through alpha and compares the
orders' ranks at the |W| preimages pair by pair.  This is the relocated
pair configuration read only where it is checked: its value at (x, y) is
+1 exactly when the preimage of x ranks below the preimage of y.

The constructors build a witness and do not check it: `verify_minimality`
and `verify_proximality` are the caller's one check, and every caller in
the package makes it on what it prints or asserts.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import (
    FinPerm,
    Window,
    _at_line,
    _preimage_positions,
    extend_bijection,
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


@dataclass(frozen=True, eq=False)
class PairColoring:
    """The agreement coloring of two orders on one window, built by
    `from_orders`: a pair of window points takes color 0 where the orders
    rank it alike and 1 where they rank it oppositely.

    It holds the two orders and reads their ranks at the pair it is asked
    about, so building it costs nothing.  Colorings compare by identity.

    No witness builds it: the tests read it as the reference coloring of
    proximality witnesses.  `from_orders` and `color_of` both stay because
    the bench tracer in `perfbench/tracing.py` (`METHODS`) wraps them by
    name.  The class goes once the bench declares its metrics in one table
    of paths that exist (ROADMAP.md, "Rebuild the benchmark around names
    that exist").
    """

    o1: LinearOrder
    o2: LinearOrder

    def __post_init__(self):
        if self.o1.window != self.o2.window:
            raise ValueError("orders must share a window")

    @classmethod
    def from_orders(cls, o1: LinearOrder, o2: LinearOrder) -> "PairColoring":
        """Color 0 where the orders agree on a pair, 1 where they disagree."""
        return cls(o1, o2)

    def color_of(self, a: int, b: int) -> int:
        """The color of the pair {a, b}; raises OutOfWindow for a point off
        the window and ValueError for a == b."""
        below = self.o1.rank_of(a) < self.o1.rank_of(b)
        if a == b:
            raise ValueError(f"pair elements must be distinct, got {a}")
        return int(below != (self.o2.rank_of(a) < self.o2.rank_of(b)))


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


def require_pairs(size: int) -> None:
    """Raise WindowTooSmall for a window of fewer than 2 points: verification
    compares pairs, so a witness order needs at least one."""
    if size < 2:
        raise WindowTooSmall("need a window of size at least 2")


def _pulled_back_ranks(alpha: FinPerm, window: Window, order: LinearOrder) -> np.ndarray:
    """Ranks under the order at the preimages under the witness's alpha of
    the window points, in window order.

    Raises WindowTooSmall for an order on fewer than 2 points (it has no
    pair configuration) and DomainEscape for a preimage off its ground.
    """
    require_pairs(len(order.window))
    return order.ranks[_preimage_positions(alpha, window, order.window)]


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
    pulled = _pulled_back_ranks(witness.alpha, window, source)
    require_pairs(len(target.window))
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
    alpha, window = witness.alpha, witness.checked_window
    r1 = _pulled_back_ranks(alpha, window, o1)
    r2 = _pulled_back_ranks(alpha, window, o2)
    if witness.kind == PROXIMALITY_AGREE:
        return _all_pairs_colored(r1, r2, 0)
    if witness.kind == PROXIMALITY_REVERSE:
        return _all_pairs_colored(r1, r2, 1)
    return False


def minimality_witness(source: LinearOrder, target: LinearOrder) -> Witness:
    """Permutation realizing the target pattern inside the source order.

    Takes the ground's first |W| points, sends the i-th lowest of them
    under the source order to the element of W with target rank i, and
    extends canonically.  The witness is returned unchecked:
    `verify_minimality` is the caller's check.
    """
    ground = source.window
    W = target.window
    if len(ground) < len(W):
        raise GroundTooSmall(
            f"ground size {len(ground)} below the window size {len(W)}"
        )
    by_source = [ground.elements[p] for p in np.argsort(source.ranks[: len(W)]).tolist()]
    by_target = target.ranked_elements()
    return Witness(extend_bijection(dict(zip(by_source, by_target))), W, MINIMALITY)


def _increasing_run(values: Iterable[int], m: int) -> list[int] | None:
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


def proximality_ground(ground_size: int, m: int) -> int:
    """The ground points a proximality witness on an m-window reads: the
    (m-1)^2+1 that Erdos-Szekeres needs, and at least the 2 that
    verification needs.  Raises GroundTooSmall when the ground has fewer.

    No smaller ground always works: the extremal sequence of m-1 decreasing
    blocks of m-1 values, each block above the one before, ranks (m-1)^2
    points with no monotone m-run of either kind, so o2 ranking o1's least
    points that way admits no witness."""
    bound = max(2, (m - 1) ** 2 + 1)
    if ground_size < bound:
        raise GroundTooSmall(
            f"ground size {ground_size} below the required {bound} for window size {m}"
        )
    return bound


def proximality_witness(o1: LinearOrder, o2: LinearOrder, W: Window) -> Witness:
    """Permutation matching two orders on W, up to global reversal.

    Takes the `proximality_ground` points least under o1, lists o2's ranks
    at them in o1 order, and finds an increasing |W|-subsequence of those
    ranks, else a decreasing one, which Erdos-Szekeres guarantees.  Its
    points are mapped onto W preserving o1.  On an increasing run the
    relocated configurations coincide; on a decreasing one the second is
    the exact negation of the first.  The witness is returned unchecked:
    `verify_proximality` is the caller's check.
    """
    if o1.window != o2.window:
        raise ValueError("orders must share a window")
    m = len(W)
    if m < 1:
        raise ValueError("window must be nonempty")
    ground = o1.window
    bound = proximality_ground(len(ground), m)
    head = np.flatnonzero(o1.ranks < bound)
    head = head[np.argsort(o1.ranks[head])]
    seq = o2.ranks[head].tolist()
    run, kind = _increasing_run(seq, m), PROXIMALITY_AGREE
    if run is None:
        run, kind = _increasing_run(map(operator.neg, seq), m), PROXIMALITY_REVERSE
    points = [ground.elements[p] for p in head[run].tolist()]
    return Witness(extend_bijection(dict(zip(points, W.elements))), W, kind)


# ---------------------------------------------------------------------------
# Text format


#: The witness text's fields, in the order they are written.
_WITNESS_FIELDS = ("kind", "window", "alpha")


def witness_fields(witness: Witness) -> dict[str, str]:
    """The text of each of the `_WITNESS_FIELDS`: the kind, the checked
    window as `window_to_text` writes it, and alpha as `perm_to_text` does."""
    texts = witness.kind, window_to_text(witness.checked_window), perm_to_text(witness.alpha)
    return dict(zip(_WITNESS_FIELDS, texts))


def witness_to_text(witness: Witness) -> str:
    """One `key=value` line per witness field, in the order of
    `_WITNESS_FIELDS`: `kind=`, `window=` and `alpha=`."""
    return "".join(f"{key}={value}\n" for key, value in witness_fields(witness).items())


def witness_from_text(text: str) -> Witness:
    """Inverse of `witness_to_text`; the field lines may come in any order
    and blank-lined.  An unknown, repeated or missing field, a bad window or
    alpha, or an unknown kind raises FormatError at the offending line."""
    fields = {}
    for lineno, line in numbered_lines(text):
        key, sep, value = line.partition("=")
        if not sep or key not in _WITNESS_FIELDS:
            expected = "/".join(f"{field}=" for field in _WITNESS_FIELDS)
            raise FormatError(f"expected {expected}, got {line!r}", lineno)
        if key in fields:
            raise FormatError(f"duplicate {key}= line", lineno)
        fields[key] = (value, lineno)
    missing = set(_WITNESS_FIELDS) - set(fields)
    if missing:
        raise FormatError(f"missing fields: {sorted(missing)}")
    (kind, kind_line), window, alpha = (fields[key] for key in _WITNESS_FIELDS)
    checked = window_from_text(*window)
    return _at_line(kind_line, Witness, perm_from_text(*alpha), checked, kind)
