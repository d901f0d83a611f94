"""Linear orders on windows, order types of tuples, reversal, and
circular-order realizability.

A linear order is a ranking of a window; rank 0 is the least element.  A
pair configuration encodes an order by giving +1 exactly to the ascending
pairs, and every alternating, transitive pair configuration arises this
way.  Both kinds of order image are recognized the same way: decode the
one candidate order, re-encode it, and compare with the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Iterator, Sequence

from .core import InjTuple, KConfig, FinPerm, Window, as_entries
from .errors import ArityMismatch, DegenerateWindow, FormatError, NotALinearOrder


@dataclass(frozen=True)
class LinearOrder:
    """Ranking of a window: ranks[i] is the rank of window.elements[i]."""

    window: Window
    ranks: tuple[int, ...]

    def __post_init__(self):
        ranks = tuple(int(r) for r in self.ranks)
        object.__setattr__(self, "ranks", ranks)
        if sorted(ranks) != list(range(len(self.window))):
            raise ValueError(f"ranks must be a bijection onto 0..{len(self.window) - 1}: {ranks}")

    @classmethod
    def natural(cls, window: Window) -> "LinearOrder":
        return cls(window, tuple(range(len(window))))

    @classmethod
    def from_ranked_elements(cls, seq: Sequence[int]) -> "LinearOrder":
        """Order from its elements listed least to greatest, e.g. (7, 3, 9)."""
        window = Window.of(seq)
        if len(window) != len(seq):
            raise ValueError(f"ranked elements must be distinct: {tuple(seq)}")
        rank_of = {x: r for r, x in enumerate(seq)}
        return cls(window, tuple(rank_of[x] for x in window))

    def rank_of(self, x: int) -> int:
        return self.ranks[self.window.position(x)]

    def less(self, x: int, y: int) -> bool:
        return self.rank_of(x) < self.rank_of(y)

    def ranked_elements(self) -> tuple[int, ...]:
        """Window elements listed in increasing rank order."""
        inv = [0] * len(self.window)
        for x, r in zip(self.window, self.ranks):
            inv[r] = x
        return tuple(inv)


@dataclass(frozen=True)
class OrderType:
    """Sorting permutation of a tuple, one-line notation on 1..k.

    sigma[j] is the slot (1-based) holding the (j+1)-th smallest entry.
    """

    sigma: tuple[int, ...]

    def __post_init__(self):
        sigma = tuple(int(s) for s in self.sigma)
        object.__setattr__(self, "sigma", sigma)
        if sorted(sigma) != list(range(1, len(sigma) + 1)):
            raise ValueError(f"not a permutation of 1..{len(sigma)}: {sigma}")

    @property
    def k(self) -> int:
        return len(self.sigma)

    @property
    def sign(self) -> int:
        inversions = sum(
            1
            for i in range(len(self.sigma))
            for j in range(i + 1, len(self.sigma))
            if self.sigma[i] > self.sigma[j]
        )
        return -1 if inversions % 2 else 1

    def inverse(self) -> "OrderType":
        inv = [0] * len(self.sigma)
        for j, s in enumerate(self.sigma, start=1):
            inv[s - 1] = j
        return OrderType(tuple(inv))


def compose_types(a: OrderType, b: OrderType) -> OrderType:
    """Composite permutation applying b first, then a."""
    return OrderType(tuple(a.sigma[s - 1] for s in b.sigma))


def all_order_types(k: int) -> list[OrderType]:
    """All k! order types in lexicographic order."""
    return [OrderType(p) for p in permutations(range(1, k + 1))]


def all_linear_orders(window: Window) -> Iterator[LinearOrder]:
    """All |W|! orders on the window, lexicographic in their rank tuples."""
    for ranks in permutations(range(len(window))):
        yield LinearOrder(window, ranks)


# ---------------------------------------------------------------------------
# Orders as pair configurations


def lin_order_to_config2(order: LinearOrder) -> KConfig:
    """Pair configuration with +1 exactly on the ascending pairs."""
    if len(order.window) < 2:
        raise DegenerateWindow("need a window of size at least 2")
    rank = dict(zip(order.window, order.ranks))
    return KConfig.from_function(
        2, order.window, lambda t: 1 if rank[t[0]] < rank[t[1]] else -1
    )


def _decoded_order(
    window: Window, below: Callable[[int, int], bool]
) -> LinearOrder | None:
    """Order ranking each x by the count of window elements y with below(y, x).

    None when those counts are not a ranking of the window.
    """
    elems = window.elements
    ranks = tuple(sum(1 for y in elems if y != x and below(y, x)) for x in elems)
    if sorted(ranks) != list(range(len(elems))):
        return None
    return LinearOrder(window, ranks)


def config2_to_order(config: KConfig) -> LinearOrder:
    """Order whose rank at x counts the elements below x.

    Raises NotALinearOrder unless re-encoding that order gives the input
    back; a window of fewer than 2 points has no pairs to compare.
    """
    if config.k != 2:
        raise ArityMismatch(f"expected arity 2, got {config.k}")
    order = _decoded_order(config.window, lambda y, x: config.value((y, x)) == 1)
    if order is None or (len(config.window) >= 2 and lin_order_to_config2(order) != config):
        raise NotALinearOrder("configuration is not alternating and transitive")
    return order


def config2_is_linear_order(config: KConfig) -> bool:
    """Whether the configuration is the image of an order (alternating and transitive)."""
    try:
        config2_to_order(config)
    except NotALinearOrder:
        return False
    return True


def order_type(t: InjTuple | Sequence[int], order: LinearOrder) -> OrderType:
    """Sorting permutation of the tuple under the order.

    Convention: the entry in slot sigma[0] is least, then slot sigma[1], etc.
    """
    entries = as_entries(t)
    if len(set(entries)) != len(entries):
        raise ValueError(f"tuple entries must be pairwise distinct: {entries}")
    ranks = [order.rank_of(x) for x in entries]
    by_rank = sorted(range(len(entries)), key=ranks.__getitem__)
    return OrderType(tuple(p + 1 for p in by_rank))


def reverse(order: LinearOrder) -> LinearOrder:
    """Order with all comparisons flipped."""
    n = len(order.window)
    return LinearOrder(order.window, tuple(n - 1 - r for r in order.ranks))


def reversal_class_rep(order: LinearOrder) -> LinearOrder:
    """Canonical member of {order, reverse(order)}.

    The representative ranks the smallest window element below the largest,
    so both members of the pair map to the same output.
    """
    if len(order.window) < 2:
        raise DegenerateWindow("reversal classes need a window of size at least 2")
    lo, hi = order.window.elements[0], order.window.elements[-1]
    return order if order.rank_of(lo) < order.rank_of(hi) else reverse(order)


def cyclic_shift(order: LinearOrder) -> LinearOrder:
    """Move the top-ranked element to the bottom, fixing all other ranks."""
    ranked = order.ranked_elements()
    return LinearOrder.from_ranked_elements((ranked[-1],) + ranked[:-1])


def relabel(order: LinearOrder, alpha: FinPerm) -> LinearOrder:
    """Order on alpha(W) with rank(alpha(x)) = rank(x)."""
    new_window = alpha.image_window(order.window)
    rank_at = {alpha(x): order.rank_of(x) for x in order.window}
    return LinearOrder(new_window, tuple(rank_at[x] for x in new_window))


def is_circular_realizable(config: KConfig) -> bool:
    """Whether some order's circular code equals the given triple configuration.

    Rotations of an order share its circular code, so a realizing order may
    be taken to start at the least window element a; in it, y lies below x
    exactly when the value at (a, y, x) is +1.  The one candidate so decoded
    is re-encoded and compared with the input: O(|W|^3).
    """
    from .codes import circular_code

    if config.k != 3:
        raise ArityMismatch(f"expected arity 3, got {config.k}")
    window = config.window
    if len(window) < 3:
        return True
    a = window.elements[0]
    candidate = _decoded_order(
        window, lambda y, x: y == a or (x != a and config.value((a, y, x)) == 1)
    )
    return candidate is not None and circular_code(candidate) == config


# ---------------------------------------------------------------------------
# Text format


def order_to_text(order: LinearOrder) -> str:
    """Window elements in increasing rank order, space separated."""
    return " ".join(map(str, order.ranked_elements()))


def order_from_text(text: str, lineno: int | None = None) -> LinearOrder:
    try:
        seq = tuple(int(x) for x in text.split())
    except ValueError:
        raise FormatError(f"bad order text {text!r}", lineno) from None
    if not seq:
        raise FormatError("empty order text", lineno)
    try:
        return LinearOrder.from_ranked_elements(seq)
    except ValueError as exc:
        raise FormatError(str(exc), lineno) from None
