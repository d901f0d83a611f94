"""Linear orders on windows: reversal, rotation, relabelling, and the
order text.

A linear order is a ranking of a window, held as a read-only int64 array
of ranks by window position; rank 0 is the least element.  The pattern of
a k-tuple under an order is the relative order of its ranks, numbered by
`core.pattern_index`; `codes.images` reads the patterns of all tuples of a
whole table of ranks at once, and row i of `core.position_tuples(n, n)`
ranks the n points by pattern i, as `all_linear_orders` lists them.

Configurations live in `codes`: an order's pair configuration is its
sign-2 image, its circular order the sign-3 image, and `codes.decode`
recognizes both, for one order (`codes.realize`) or a table of them.

The order text lists the window elements by rank.  `order_texts` writes it
for every row of a table of ranks, and `order_to_text` is its one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .core import FinPerm, Window, _ArrayValue, _at_line, _frozen, _preimage_positions
from .core import position_tuples
from .errors import FormatError, WindowTooSmall


@dataclass(frozen=True, eq=False)
class LinearOrder(_ArrayValue):
    """Ranking of a window: ranks[i] is the rank of window.elements[i].

    `ranks` is a read-only int64 array; equality and hash read (window,
    rank bytes).
    """

    window: Window
    ranks: np.ndarray

    def __post_init__(self):
        ranks = np.asarray(self.ranks)
        n = len(self.window)
        if (
            ranks.dtype.kind not in "biuf"
            or ranks.shape != (n,)
            or np.count_nonzero(np.sort(ranks) == np.arange(n)) != n
        ):
            raise ValueError(f"ranks must be a bijection onto 0..{n - 1}: {_rank_fault(ranks, n)}")
        object.__setattr__(self, "ranks", _frozen(ranks, np.int64))

    @cached_property
    def _key(self) -> tuple:
        return self.window, self.ranks.tobytes()

    @classmethod
    def natural(cls, window: Window) -> "LinearOrder":
        return cls(window, np.arange(len(window)))

    @classmethod
    def from_ranked_elements(cls, seq: Sequence[int]) -> "LinearOrder":
        """Order from its elements listed least to greatest, e.g. (7, 3, 9)."""
        window = Window.of(seq)
        if len(window) != len(seq):
            raise ValueError(f"ranked elements must be distinct: {tuple(seq)}")
        rank_of = {x: r for r, x in enumerate(seq)}
        return cls(window, [rank_of[x] for x in window])

    def rank_of(self, x: int) -> int:
        return int(self.ranks[self.window.position(x)])

    def ranked_elements(self) -> tuple[int, ...]:
        """Window elements listed in increasing rank order."""
        elems = self.window.elements
        return tuple(elems[i] for i in np.argsort(self.ranks).tolist())


def _rank_fault(ranks: np.ndarray, n: int) -> str:
    """Why ranks are not a bijection onto 0..n-1, naming the first index at
    fault and its value: a message stays short however many ranks there are.
    Numeric ranks of shape (n,) that fail the bijection check hold a value
    outside 0..n-1, a fraction or a repeat, so the scan finds one."""
    if ranks.dtype.kind not in "biuf":
        return f"got {ranks.dtype} values"
    if ranks.shape != (n,):
        return f"got shape {ranks.shape}"
    seen = set()
    for i, r in enumerate(ranks.tolist()):
        if not (0 <= r < n and r == int(r)):
            return f"index {i} holds {r}"
        if r in seen:
            return f"index {i} repeats rank {r}"
        seen.add(r)


def all_linear_orders(window: Window) -> Iterator[LinearOrder]:
    """All |W|! orders on the window; the i-th ranks it by pattern i."""
    for ranks in position_tuples(len(window), len(window)):
        yield LinearOrder(window, ranks)


def reverse(order: LinearOrder) -> LinearOrder:
    """Order with all comparisons flipped."""
    return LinearOrder(order.window, len(order.window) - 1 - order.ranks)


def reversal_class_rep(order: LinearOrder) -> LinearOrder:
    """Canonical member of {order, reverse(order)}.

    The representative ranks the smallest window element below the largest,
    so both members of the pair map to the same output.
    """
    if len(order.window) < 2:
        raise WindowTooSmall("reversal classes need a window of size at least 2")
    return order if order.ranks[0] < order.ranks[-1] else reverse(order)


def cyclic_shift(order: LinearOrder) -> LinearOrder:
    """Move the top-ranked element to the bottom; every other element rises
    by one rank."""
    return LinearOrder(order.window, (order.ranks + 1) % len(order.window))


def relabel(order: LinearOrder, alpha: FinPerm) -> LinearOrder:
    """Order on alpha(W) with rank(alpha(x)) = rank(x)."""
    new_window = alpha.image_window(order.window)
    pre = _preimage_positions(alpha, new_window, order.window)
    return LinearOrder(new_window, order.ranks[pre])


# ---------------------------------------------------------------------------
# Text format


def order_texts(window: Window, ranks: np.ndarray) -> list[str]:
    """The order text of every row of an (m, n) table of ranks on the window:
    the window elements in increasing rank order, space separated.

    Each element is written once, and every row gathers those texts at its
    argsort, so no element is cast to a fixed-width integer.
    """
    cells = np.array(list(map(str, window)), dtype=object)
    return list(map(" ".join, cells[np.argsort(ranks, axis=-1)].tolist()))


def order_to_text(order: LinearOrder) -> str:
    """The order text of one order, the one-row case of `order_texts`."""
    return order_texts(order.window, order.ranks[None])[0]


def order_from_text(text: str, lineno: int | None = None) -> LinearOrder:
    """Inverse of `order_to_text`: distinct integers, space separated, least
    ranked first.  A token that is not an integer, empty text or a repeated
    element raises FormatError at `lineno`."""
    try:
        seq = tuple(int(x) for x in text.split())
    except ValueError:
        raise FormatError(f"bad order text {text!r}", lineno) from None
    if not seq:
        raise FormatError("empty order text", lineno)
    return _at_line(lineno, LinearOrder.from_ranked_elements, seq)
