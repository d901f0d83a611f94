"""Constructive monochromatic-subset extraction and the order-dynamics
witnesses built on it.

A minimality witness is a finitely supported permutation carrying a large
source order onto a prescribed pattern on a target window.  A proximality
witness carries two source orders onto the same window so that they either
agree there or are exact reverses; the monochromatic set behind it comes
from a greedy pivot extraction on the agree/disagree pair coloring, whose
colors are read on demand from the two rank tables.

Verification pulls the checked window back through alpha and compares the
orders' ranks at the |W| preimages pair by pair.  This is the relocated
pair configuration read only where it is checked: its value at (x, y) is
+1 exactly when the preimage of x ranks below the preimage of y.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .core import FinPerm, Window, extend_bijection, inverse, perm_from_text, perm_to_text
from .errors import DegenerateWindow, DomainEscape, FormatError, GroundTooSmall
from .orders import LinearOrder

MINIMALITY = "minimality"
PROXIMALITY_AGREE = "proximality-agree"
PROXIMALITY_REVERSE = "proximality-reverse"

_KINDS = (MINIMALITY, PROXIMALITY_AGREE, PROXIMALITY_REVERSE)


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
        """Color 0 where the orders agree on a pair, 1 where they disagree:
        the AgreementColoring of the two orders, tabulated."""
        lazy = AgreementColoring(o1, o2)
        return cls.from_function(lazy.ground, lazy.color_of)

    def color_of(self, a: int, b: int) -> int:
        i = self.ground.position(a)
        j = self.ground.position(b)
        if i == j:
            raise ValueError(f"pair elements must be distinct, got {a}")
        if i > j:
            i, j = j, i
        n = len(self.ground)
        return self.colors[i * (2 * n - i - 1) // 2 + (j - i - 1)]


def _agreement_color(r1: Sequence[int], r2: Sequence[int], i: int, j: int) -> int:
    """0 where two rank tables order slots i and j alike, 1 where they differ."""
    return 0 if (r1[i] < r1[j]) == (r2[i] < r2[j]) else 1


@dataclass(frozen=True)
class AgreementColoring:
    """Agree/disagree pair coloring of two orders on a shared ground, read
    on demand from their rank tables instead of tabulated.

    Offers the `ground` and `color_of` interface of PairColoring, with the
    same colors.
    """

    o1: LinearOrder
    o2: LinearOrder

    def __post_init__(self):
        if self.o1.window != self.o2.window:
            raise ValueError("orders must share a window")

    @property
    def ground(self) -> Window:
        return self.o1.window

    def color_of(self, a: int, b: int) -> int:
        i = self.ground.position(a)
        j = self.ground.position(b)
        if i == j:
            raise ValueError(f"pair elements must be distinct, got {a}")
        return _agreement_color(self.o1.ranks, self.o2.ranks, i, j)


Coloring = PairColoring | AgreementColoring


def is_monochromatic(coloring: Coloring, subset: Iterable[int]) -> bool:
    elems = sorted(subset)
    colors = {
        coloring.color_of(elems[i], elems[j])
        for i in range(len(elems))
        for j in range(i + 1, len(elems))
    }
    return len(colors) <= 1


def ramsey_mono_subset(coloring: Coloring, m: int) -> tuple[int, ...]:
    """Monochromatic m-subset of the ground, by greedy pivot extraction.

    Repeatedly take the least live element as a pivot and keep its larger
    color class among the remaining live elements.  Every pair of pivots
    gets the color the earlier pivot kept, so the pivots of the more common
    kept color form a monochromatic set.  Keeping the majority class at
    least halves the live count, hence ground size 4**m guarantees 2m
    pivots and so m of one color.
    """
    if m < 1:
        raise ValueError(f"target size must be positive, got {m}")
    n = len(coloring.ground)
    bound = 4**m
    if n < bound:
        raise GroundTooSmall(f"ground size {n} below the required {bound} (= 4^{m})")
    live = list(coloring.ground)
    pivots: list[tuple[int, int]] = []
    counts = [0, 0]
    while live and max(counts) < m:
        p = live.pop(0)
        kept: tuple[list[int], list[int]] = ([], [])
        for x in live:
            kept[coloring.color_of(p, x)].append(x)
        c = 0 if len(kept[0]) >= len(kept[1]) else 1
        pivots.append((p, c))
        counts[c] += 1
        live = kept[c]
    c = 0 if counts[0] >= counts[1] else 1
    subset = tuple(p for p, pc in pivots if pc == c)[:m]
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


def _pulled_back_ranks(inv: FinPerm, window: Window, order: LinearOrder) -> list[int]:
    """Ranks under the order at the preimages inv(x) of the window points x,
    in window order; inv is the inverse of the witness's alpha.

    Raises DegenerateWindow for an order on fewer than 2 points (it has no
    pair configuration) and DomainEscape for a preimage off its ground.
    """
    ground = order.window
    if len(ground) < 2:
        raise DegenerateWindow("need a window of size at least 2")
    ranks = []
    for x in window:
        y = inv(x)
        if y not in ground:
            raise DomainEscape(f"preimage {y} of {x} lies outside window {ground.elements}")
        ranks.append(order.rank_of(y))
    return ranks


def _all_pairs_colored(r1: Sequence[int], r2: Sequence[int], color: int) -> bool:
    """Whether every pair of slots gets the given agreement color."""
    n = len(r1)
    return all(
        _agreement_color(r1, r2, i, j) == color
        for i in range(n)
        for j in range(i + 1, n)
    )


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
        raise DegenerateWindow("need a window of size at least 2")
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


def proximality_witness(o1: LinearOrder, o2: LinearOrder, W: Window) -> Witness:
    """Permutation matching two orders on W, up to global reversal.

    Pairs are colored by agreement of the two orders, read on demand; a
    monochromatic |W|-set is extracted and mapped onto W preserving the
    first order.  On an all-agree set the relocated configurations
    coincide; on an all-disagree set the second is the exact negation of
    the first.
    """
    coloring = AgreementColoring(o1, o2)
    ground = coloring.ground
    bound = 4 ** len(W)
    if len(ground) < bound:
        raise GroundTooSmall(
            f"ground size {len(ground)} below the required {bound} "
            f"(= 4^{len(W)}) for window size {len(W)}"
        )
    mono = ramsey_mono_subset(coloring, len(W))
    by_o1 = sorted(mono, key=o1.rank_of)
    alpha = extend_bijection(dict(zip(by_o1, W.elements)))
    if len(mono) < 2 or coloring.color_of(mono[0], mono[1]) == 0:
        kind = PROXIMALITY_AGREE
    else:
        kind = PROXIMALITY_REVERSE
    witness = Witness(alpha, W, kind)
    if not verify_proximality(witness, o1, o2):
        raise RuntimeError("internal error: proximality witness failed verification")
    return witness


# ---------------------------------------------------------------------------
# Text format


def witness_to_text(witness: Witness) -> str:
    return (
        f"kind={witness.kind}\n"
        f"window={','.join(map(str, witness.checked_window))}\n"
        f"alpha={perm_to_text(witness.alpha)}\n"
    )


def witness_from_text(text: str) -> Witness:
    fields = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        key, sep, value = line.partition("=")
        if not sep or key not in ("kind", "window", "alpha"):
            raise FormatError(f"expected kind=/window=/alpha=, got {line!r}", lineno)
        fields[key] = value
    missing = {"kind", "window", "alpha"} - set(fields)
    if missing:
        raise FormatError(f"missing fields: {sorted(missing)}")
    try:
        window = Window(tuple(int(x) for x in fields["window"].split(",") if x != ""))
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    try:
        return Witness(perm_from_text(fields["alpha"]), window, fields["kind"])
    except ValueError as exc:
        raise FormatError(str(exc)) from None
