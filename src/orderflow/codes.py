"""Pattern block codes and the moment-curve orientation predicate.

A block code turns a linear order into a k-configuration whose value on a
tuple depends only on the tuple's pattern, the relative order of its ranks;
a code's table is indexed by `pattern_index`.  The sign code sends each
pattern to its parity; for k = 2 it reproduces the pair encoding of the
order, and for k = 3 its image is exactly a circular order (the cyclic
rotations of a triple are its even rearrangements).

`apply_code` is the one encoder of orders into configurations, and
`realize` the one recognizer of sign-2 and sign-3 images: it decodes one
candidate order, re-encodes it, and compares with the input.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import DEFAULT_MAX_ARITY, KConfig, pattern_index, position_tuples
from .errors import ArityMismatch, DegenerateInput, WindowTooSmall
from .orders import LinearOrder


@dataclass(frozen=True)
class BlockCode:
    """Tuple-local recoding rule: table[i] is the sign of pattern i."""

    k: int
    table: tuple[int, ...]

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"arity must be at least 2, got {self.k}")
        if len(self.table) != math.factorial(self.k):
            raise ValueError(
                f"table must cover all {math.factorial(self.k)} patterns, "
                f"got {len(self.table)} entries"
            )
        if any(v not in (1, -1) for v in self.table):
            raise ValueError("table values must be +1 or -1")


def apply_code(code: BlockCode, order: LinearOrder) -> KConfig:
    """Configuration reading the code table at the pattern of each tuple's
    ranks; all tuples are read at once."""
    n = len(order.window)
    if n < code.k:
        raise WindowTooSmall(f"window size {n} below arity {code.k}")
    patterns = pattern_index(order.ranks[position_tuples(n, code.k).T])
    return KConfig(code.k, order.window, np.asarray(code.table)[patterns])


def sign_code(k: int) -> BlockCode:
    """Code sending each pattern to its parity; its images alternate.  Each
    arity's code is built once: `realize` asks for it on every call, and
    `verify` calls `realize` once per order it checks."""
    if not 2 <= k <= DEFAULT_MAX_ARITY:
        raise ValueError(f"arity must be in 2..{DEFAULT_MAX_ARITY}, got {k}")
    return _sign_code(k)


@functools.cache
def _sign_code(k: int) -> BlockCode:
    patterns = position_tuples(k, k)
    inversions = np.triu(patterns[:, :, None] > patterns[:, None, :], 1).sum(axis=(1, 2))
    return BlockCode(k, tuple((1 - 2 * (inversions % 2)).tolist()))


def realize(config: KConfig) -> LinearOrder | None:
    """An order whose sign-k image is the configuration, for k = 2 or 3;
    None when there is none.

    The candidate ranks x by the count of y below it.  For k = 2, y lies
    below x exactly when (y, x) has value +1.  Rotations of an order share
    its sign-3 image, so for k = 3 the candidate puts the least window
    element a lowest, and y lies below x exactly when (a, y, x) has value
    +1.  The one candidate is re-encoded and compared with the input:
    O(|W|^k).  A window smaller than the arity holds no values, and its
    natural order realizes it.
    """
    k, window = config.k, config.window
    if k not in (2, 3):
        raise ArityMismatch(f"expected arity 2 or 3, got {k}")
    if len(window) < k:
        return LinearOrder.natural(window)
    if k == 2:
        below = config.array == 1
    else:
        below = config.array[0] == 1
        below[0, 1:] = True
    try:
        candidate = LinearOrder(window, below.sum(axis=0))
    except ValueError:
        return None
    return candidate if apply_code(sign_code(k), candidate) == config else None


def code_from_name(name: str) -> BlockCode:
    """The code called `sign-K`, or `circular`, which is sign-3.

    Raises ValueError for any other name and for K outside
    2..DEFAULT_MAX_ARITY.
    """
    if name == "circular":
        return sign_code(3)
    kind, _, arity = name.partition("-")
    if kind != "sign" or not arity.isdecimal():
        raise ValueError(f"unknown code {name!r}: expected circular or sign-K")
    if not 2 <= int(arity) <= DEFAULT_MAX_ARITY:
        raise ValueError(f"sign code arity must be in 2..{DEFAULT_MAX_ARITY}")
    return sign_code(int(arity))


# ---------------------------------------------------------------------------
# Moment-curve orientation


def _bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination.

    Every division below is exact: the Bareiss identity guarantees the
    previous pivot divides the 2x2 minor.
    """
    n = len(rows)
    m = [row[:] for row in rows]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if m[i][i] == 0:
            for r in range(i + 1, n):
                if m[r][i] != 0:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
            m[r][i] = 0
        prev = m[i][i]
    return sign * m[n - 1][n - 1]


def moment_curve_orientation(reals: Sequence[int | Fraction]) -> int:
    """Orientation of the simplex swept by t -> (t, t^2, ..., t^(k-1)).

    Returns the sign of the k x k determinant with rows
    (1, t_i, t_i^2, ..., t_i^(k-1)), computed exactly: rows are scaled to
    integers by their positive common denominator, then eliminated
    fraction-free.  Strictly increasing parameters give +1.
    """
    ts = [Fraction(x) for x in reals]
    k = len(ts)
    if k < 2:
        raise ValueError("need at least 2 parameters")
    if len(set(ts)) != k:
        raise DegenerateInput(f"parameters must be pairwise distinct: {tuple(reals)}")
    rows = []
    for t in ts:
        row = [t**j for j in range(k)]
        scale = math.lcm(*(x.denominator for x in row))
        rows.append([int(x * scale) for x in row])
    det = _bareiss_det(rows)
    if det == 0:
        raise DegenerateInput("degenerate moment matrix")
    return 1 if det > 0 else -1

