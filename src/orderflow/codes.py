"""Pattern block codes and the moment-curve orientation predicate.

A block code turns a linear order into a k-configuration whose value on a
tuple depends only on the tuple's pattern, the relative order of its ranks;
a code's table is indexed by `pattern_index`.  The sign code sends each
pattern to its parity; for k = 2 it reproduces the pair encoding of the
order, and for k = 3 its image is exactly a circular order (the cyclic
rotations of a triple are its even rearrangements).

`images` is the one encoder and `decode` the one recognizer of sign-2 and
sign-3 images, each reading a table with one order per row; `apply_code`
and `realize` are their one-row cases.
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


def images(code: BlockCode, ranks: np.ndarray) -> np.ndarray:
    """The code's int8 values on every k-tuple of each row of ranks: shape
    (..., n) gives (..., perm(n, k)) in `position_tuples(n, k)` row order,
    the patterns of all rows from one `pattern_index` call."""
    n = ranks.shape[-1]
    if n < code.k:
        raise WindowTooSmall(f"window size {n} below arity {code.k}")
    slots = np.moveaxis(ranks[..., position_tuples(n, code.k).T], -2, 0)
    return np.array(code.table, dtype=np.int8)[pattern_index(slots)]


def apply_code(code: BlockCode, order: LinearOrder) -> KConfig:
    """Configuration of the code on the order: the one-row case of `images`."""
    return KConfig(code.k, order.window, images(code, order.ranks))


def sign_code(k: int) -> BlockCode:
    """Code sending each pattern to its parity; its images alternate.  Each
    arity's code is built once: `decode` re-encodes with it on every call,
    and every `factor` op names one."""
    if not 2 <= k <= DEFAULT_MAX_ARITY:
        raise ValueError(f"arity must be in 2..{DEFAULT_MAX_ARITY}, got {k}")
    return _sign_code(k)


@functools.cache
def _sign_code(k: int) -> BlockCode:
    patterns = position_tuples(k, k)
    inversions = np.triu(patterns[:, :, None] > patterns[:, None, :], 1).sum(axis=(1, 2))
    return BlockCode(k, tuple((1 - 2 * (inversions % 2)).tolist()))


def decode(k: int, values: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Candidate ranks (..., n) for sign-k values (..., perm(n, k)) on n >= k
    points, k = 2 or 3, and the mask of rows whose candidate is a ranking
    that re-encodes to the row.  A candidate ranks x by the count of y with
    value +1 at (y, x).  Rotations share a sign-3 image, so for k = 3 point
    0 is lowest, and the first perm(n - 1, 2) values, at (0, y, x), are read
    as a pair image of the other points.  O(n^k) per row."""
    if k not in (2, 3):
        raise ArityMismatch(f"expected arity 2 or 3, got {k}")
    m = n - (k == 3)
    pairs = position_tuples(m, 2)
    below = np.zeros(values.shape[:-1] + (m, m), dtype=bool)
    below[..., pairs[:, 0], pairs[:, 1]] = values[..., : len(pairs)] == 1
    ranks = below.sum(axis=-2)
    ranks = np.insert(ranks + 1, 0, 0, axis=-1) if k == 3 else ranks
    ranking = (np.sort(ranks, axis=-1) == np.arange(n)).all(axis=-1)
    return ranks, ranking & (images(sign_code(k), ranks) == values).all(axis=-1)


def realize(config: KConfig) -> LinearOrder | None:
    """An order whose sign-k image is the configuration, or None: the one-row
    case of `decode`, so k is 2 or 3.  Below the arity, the natural order."""
    k, window = config.k, config.window
    if len(window) < k <= 3:
        return LinearOrder.natural(window)
    ranks, ok = decode(k, config.values, len(window))
    return LinearOrder(window, ranks) if ok else None


def code_from_name(name: str) -> BlockCode:
    """The code called `sign-K`, K in plain decimal (`sign-3`, not `sign-03`),
    or `circular`, which is sign-3.

    Raises ValueError for any other name and for K outside
    2..DEFAULT_MAX_ARITY.
    """
    if name == "circular":
        return sign_code(3)
    kind, _, arity = name.partition("-")
    if kind != "sign" or not arity.isdecimal() or arity != str(int(arity)):
        raise ValueError(f"unknown code {name!r}: expected circular or sign-K")
    if not 2 <= int(arity) <= DEFAULT_MAX_ARITY:
        raise ValueError(f"sign code arity must be in 2..{DEFAULT_MAX_ARITY}")
    return sign_code(int(arity))


# ---------------------------------------------------------------------------
# Moment-curve orientation


def _bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant of an integer matrix whose leading principal minors
    are all nonzero, by fraction-free elimination without row exchanges.

    The pivot of step i is the leading (i + 1) x (i + 1) minor, and every
    division below is exact: the Bareiss identity guarantees the previous
    pivot divides the 2x2 minor.
    """
    n = len(rows)
    m = [row[:] for row in rows]
    prev = 1
    for i in range(n - 1):
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
        prev = m[i][i]
    return m[n - 1][n - 1]


def moment_curve_orientation(reals: Sequence[int | Fraction]) -> int:
    """Orientation of the simplex swept by t -> (t, t^2, ..., t^(k-1)).

    Returns the sign of the k x k determinant with rows
    (1, t_i, t_i^2, ..., t_i^(k-1)), computed exactly: rows are scaled to
    integers by their positive common denominator, then eliminated
    fraction-free.  Strictly increasing parameters give +1.

    The parameters must be pairwise distinct, and are checked to be first.
    Every leading minor of the row-scaled matrix is then a Vandermonde
    determinant times positive scales, prod scale * prod_{a<b} (t_b - t_a),
    so no elimination pivot is zero and neither is the determinant.
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
    return 1 if _bareiss_det(rows) > 0 else -1

