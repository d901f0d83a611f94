"""Order-type block codes and the moment-curve orientation predicate.

A block code turns a linear order into a k-configuration whose value on a
tuple depends only on the tuple's order type.  The sign code sends each
order type to its parity; for k = 2 it reproduces the pair encoding of the
order, and for k = 3 its image is exactly a circular order (the cyclic
rotations of a triple are its even rearrangements).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .core import DEFAULT_MAX_ARITY, KConfig, tuple_rank
from .errors import DegenerateInput, FormatError, WindowTooSmall
from .orders import LinearOrder, OrderType, all_order_types, compose_types, order_type


@dataclass(frozen=True)
class BlockCode:
    """Tuple-local recoding rule: one output sign per order type.

    The table is stored flat, indexed by the lexicographic rank of the
    order type among all k! of them.
    """

    k: int
    table: tuple[int, ...]

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"arity must be at least 2, got {self.k}")
        if len(self.table) != math.factorial(self.k):
            raise ValueError(
                f"table must cover all {math.factorial(self.k)} order types, "
                f"got {len(self.table)} entries"
            )
        if any(v not in (1, -1) for v in self.table):
            raise ValueError("table values must be +1 or -1")

    @classmethod
    def from_function(
        cls,
        k: int,
        fn: Callable[[OrderType], int],
        max_arity: int = DEFAULT_MAX_ARITY,
    ) -> "BlockCode":
        if not 2 <= k <= max_arity:
            raise ValueError(f"arity must be in 2..{max_arity}, got {k}")
        return cls(k, tuple(int(fn(ot)) for ot in all_order_types(k)))

    def value(self, ot: OrderType) -> int:
        return self.table[tuple_rank([s - 1 for s in ot.sigma], self.k)]

    def items(self) -> Iterator[tuple[OrderType, int]]:
        return zip(all_order_types(self.k), self.table)


def apply_code(code: BlockCode, order: LinearOrder) -> KConfig:
    """Configuration reading the code table at each tuple's order type."""
    if len(order.window) < code.k:
        raise WindowTooSmall(
            f"window size {len(order.window)} below arity {code.k}"
        )
    return KConfig.from_function(
        code.k, order.window, lambda t: code.value(order_type(t, order)), max_arity=code.k
    )


def sign_code(k: int, max_arity: int = DEFAULT_MAX_ARITY) -> BlockCode:
    """Code sending each order type to its parity; its images alternate."""
    return BlockCode.from_function(k, lambda ot: ot.sign, max_arity=max_arity)


def circular_code(order: LinearOrder) -> KConfig:
    """Triple configuration with +1 on the cyclic rearrangements of ascent."""
    if len(order.window) < 3:
        raise WindowTooSmall(f"window size {len(order.window)} below arity 3")
    return apply_code(sign_code(3), order)


def is_alternating_code(code: BlockCode) -> bool:
    """Whether every image of the code alternates.

    Permuting a tuple by tau composes its order type with the inverse of
    tau on the left, so the table condition is
    table[tau^-1 o sigma] == sign(tau) * table[sigma] for all sigma, tau.
    """
    types = all_order_types(code.k)
    for tau in types:
        tau_inv = tau.inverse()
        for sigma in types:
            if code.value(compose_types(tau_inv, sigma)) != tau.sign * code.value(sigma):
                return False
    return True


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


# ---------------------------------------------------------------------------
# Text format


def code_to_text(code: BlockCode) -> str:
    """Arity on the first line, then `sigma : +1|-1` per order type."""
    lines = [str(code.k)]
    for ot, v in code.items():
        lines.append(f"{' '.join(map(str, ot.sigma))} : {'+1' if v > 0 else '-1'}")
    return "\n".join(lines) + "\n"


def code_from_text(text: str) -> BlockCode:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise FormatError("empty code text")
    try:
        k = int(lines[0])
    except ValueError:
        raise FormatError(f"bad arity line {lines[0]!r}", 1) from None
    if not 2 <= k <= DEFAULT_MAX_ARITY:
        raise FormatError(f"arity must be in 2..{DEFAULT_MAX_ARITY}, got {k}", 1)
    table: dict[OrderType, int] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        head, sep, sign = line.partition(":")
        if not sep:
            raise FormatError(f"missing ':' in {line!r}", lineno)
        try:
            ot = OrderType(tuple(int(x) for x in head.split()))
        except ValueError as exc:
            raise FormatError(str(exc), lineno) from None
        if ot in table:
            raise FormatError(f"duplicate order type {ot.sigma}", lineno)
        if sign.strip() == "+1":
            table[ot] = 1
        elif sign.strip() == "-1":
            table[ot] = -1
        else:
            raise FormatError(f"expected +1 or -1, got {sign.strip()!r}", lineno)
    try:
        values = tuple(table[ot] for ot in all_order_types(k))
    except KeyError as exc:
        raise FormatError(f"missing entry for order type {exc.args[0].sigma}") from None
    if len(table) != math.factorial(k):
        raise FormatError("table has entries of the wrong arity")
    return BlockCode(k, values)
