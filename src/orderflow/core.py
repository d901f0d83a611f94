"""Windows, injective tuples, sign configurations, and the finitely
supported permutation action on them.

A configuration assigns +1 or -1 to every injective k-tuple drawn from a
finite window of integers, held as one read-only int8 array.  A finitely
supported permutation alpha acts by relocation: the new configuration on
alpha(W) reads, at a tuple t, the old value at the entrywise preimage of t.
"""

from __future__ import annotations

import functools
import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np

from .errors import DomainEscape, FormatError, OutOfWindow

_T = TypeVar("_T")

#: Arity cap for configuration builders and the text formats.  Falling-
#: factorial growth makes larger arities impractical; `factor sign-5` and
#: `factor sign-6` build configurations at the top of the range.
DEFAULT_MAX_ARITY = 6


@dataclass(frozen=True)
class Window:
    """Strictly increasing tuple of integers used as a finite index set.

    `elements` may be given as any sequence of integers; a `range` with a
    positive step is already strictly increasing Python ints and is taken
    without a per-element check.
    """

    elements: tuple[int, ...]

    def __post_init__(self):
        elems = self.elements
        if isinstance(elems, range) and elems.step > 0:
            object.__setattr__(self, "elements", tuple(elems))
            return
        elems = tuple(map(int, elems))
        object.__setattr__(self, "elements", elems)
        if not all(map(operator.lt, elems, elems[1:])):
            i = next(i for i in range(1, len(elems)) if elems[i - 1] >= elems[i])
            raise ValueError(
                f"window elements must be strictly increasing: element {i} of "
                f"{len(elems)} is {elems[i]}, after {elems[i - 1]}"
            )

    @classmethod
    def of(cls, elements: Iterable[int]) -> "Window":
        """Window from any iterable of distinct integers, sorted."""
        return cls(tuple(sorted(elements)))

    def position(self, x: int) -> int:
        """Index of x in `elements`, found by bisection."""
        i = bisect_left(self.elements, x)
        if i == len(self.elements) or self.elements[i] != x:
            raise OutOfWindow(f"{x} is not in {_window_phrase(self)}")
        return i

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, x: int) -> bool:
        i = bisect_left(self.elements, x)
        return i < len(self.elements) and self.elements[i] == x


def _window_phrase(window: Window) -> str:
    """The window named by its size and end points, for error messages: a
    message stays short however large the window is."""
    if not window.elements:
        return "the empty window"
    return f"a {len(window)}-point window from {window.elements[0]} to {window.elements[-1]}"


def _text_head(text: str, quote=repr) -> str:
    """The text quoted for an error message by `quote`, cut to its first 40
    characters and its length when it is longer than 60: a message stays
    short however long the text is.  `str` quotes a number's digits bare."""
    if len(text) <= 60:
        return quote(text)
    return f"{quote(text[:40])}... ({len(text)} characters)"


def pattern_index(ranks: np.ndarray) -> np.ndarray:
    """Pattern of each column of a slot-major (k, m) array of distinct values.

    Pattern i is row i of `position_tuples(k, k)`, read as ranks: column r
    has pattern i when its values stand in the relative order of that row.
    The index is the Lehmer code, the sum over slots i of
    #{j > i : r[j] < r[i]} (k - 1 - i)!, computed in Horner form by C(k, 2)
    row comparisons; the result has shape (m,).

    The comparisons run in the ranks' own integer dtype, so narrow ranks
    move fewer bytes.  A slot's count is at most k - 1, so it is summed in a
    uint8 row, each comparison's bool row viewed as uint8 without a cast,
    and added into the int64 index once per slot: k - 1 wide adds where
    adding every bool row takes C(k, 2), each a cast to int64 first.
    """
    k = len(ranks)
    index = np.zeros(ranks.shape[1:], dtype=np.int64)
    for i in range(k - 1):
        index *= k - i
        smaller = (ranks[i + 1] < ranks[i]).view(np.uint8)
        for j in range(i + 2, k):
            smaller += (ranks[j] < ranks[i]).view(np.uint8)
        index += smaller
    return index


def positions_from_digits(digits: np.ndarray) -> np.ndarray:
    """Decode Lehmer digits into injective tuples of positions, in place.

    digits is slot-major, shape (k, m): row i holds digit i of all m
    tuples, in [0, n - i).  Digit i picks the digit-th smallest position not
    taken by the earlier entries; on the k! patterns (n = k) this inverts
    `pattern_index`.  Decoding runs from the right: inserting entry i shifts
    every later entry at or above it up by one, a pass over whole
    contiguous rows.  Returns `digits`, now holding the positions, still
    slot-major, in its own dtype: every entry stays below n, so any
    integer dtype that holds n - 1 decodes exactly.
    """
    for i in range(len(digits) - 2, -1, -1):
        digits[i + 1 :] += digits[i + 1 :] >= digits[i]
    return digits


#: Tuple tables `position_tuples` keeps, least recently used dropped first.
#: One `factor` op reads its (n, k) table three times (`apply_code`,
#: `KConfig.array`, `config_to_text`), a circular op a fourth time when
#: `realize` re-encodes, besides the (n - 1, 2) table it decodes from.  The
#: largest table `cli.MAX_FACTOR_TUPLES` allows is sign-6 on 12 points,
#: 665,280 rows of 6 positions (32 MB), so a full cache holds at most 128 MB.
_CACHED_POSITION_TABLES = 4


def position_tuples(n: int, k: int) -> np.ndarray:
    """All injective k-tuples over range(n), one per row, lexicographically:
    every digit tuple in mixed-radix order, decoded slot-major at once and
    returned as the (perm(n, k), k) transpose.  The table is read-only and
    built once per (n, k) while it stays among the cached ones."""
    return _position_table(n, k)


@functools.lru_cache(maxsize=_CACHED_POSITION_TABLES)
def _position_table(n: int, k: int) -> np.ndarray:
    radices = np.maximum(n - np.arange(k), 0)
    digits = np.indices(radices, dtype=np.intp).reshape(k, math.perm(n, k))
    positions = positions_from_digits(digits)
    positions.flags.writeable = False
    return positions.T


def _frozen(values: np.ndarray, dtype) -> np.ndarray:
    """Read-only copy of validated values in the given dtype."""
    out = values.astype(dtype)
    out.flags.writeable = False
    return out


class _ArrayValue:
    """Value equality and hash for a frozen class holding a read-only array,
    which itself compares elementwise: both read the class's `_key`, its
    fields with the array as bytes."""

    _key: tuple

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)


@dataclass(frozen=True, eq=False)
class KConfig(_ArrayValue):
    """Total +1/-1 assignment on the injective k-tuples over a window.

    `values` is a read-only int8 array in the lexicographic order of the
    tuples, the row order of `position_tuples(len(window), k)`; `array`
    holds the same values indexed by window positions.  Equality and hash
    read (k, window, value bytes).
    """

    k: int
    window: Window
    values: np.ndarray

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"arity must be at least 2, got {self.k}")
        values = np.asarray(self.values)
        expected = math.perm(len(self.window), self.k)
        if values.shape != (expected,):
            raise ValueError(
                f"need {expected} values for arity {self.k} on a "
                f"{len(self.window)}-window, got shape {values.shape}"
            )
        # numeric dtypes only: text, None and ints past int64 make other kinds
        if values.dtype.kind not in "biuf" or np.count_nonzero(np.abs(values) == 1) != expected:
            raise ValueError("configuration values must be +1 or -1")
        object.__setattr__(self, "values", _frozen(values, np.int8))

    @cached_property
    def _key(self) -> tuple:
        return self.k, self.window, self.values.tobytes()

    @classmethod
    def from_function(
        cls,
        k: int,
        window: Window,
        fn: Callable[[tuple[int, ...]], int],
    ) -> "KConfig":
        """Evaluate fn on every injective k-tuple over the window.

        No package code calls it: the tests build reference configurations
        with it.  It stays because the bench tracer in `perfbench/tracing.py`
        (`METHODS`) wraps it by name, and goes or moves into the tests once
        the bench declares its metrics in one table of paths that exist
        (ROADMAP.md, "Rebuild the benchmark around names that exist")."""
        if not 2 <= k <= DEFAULT_MAX_ARITY:
            raise ValueError(f"arity must be in 2..{DEFAULT_MAX_ARITY}, got {k}")
        return cls(k, window, [int(fn(t)) for t in permutations(window.elements, k)])

    @cached_property
    def array(self) -> np.ndarray:
        """Read-only (n,)*k int8 array of the values at window positions,
        0 where a position repeats."""
        n = len(self.window)
        dense = np.zeros((n,) * self.k, dtype=np.int8)
        dense[tuple(position_tuples(n, self.k).T)] = self.values
        dense.flags.writeable = False
        return dense


@dataclass(frozen=True)
class FinPerm:
    """Bijection of the integers moving only finitely many points.

    Canonical form prunes fixed points and sorts pairs by source, so
    dataclass equality coincides with equality as permutations.
    """

    mapping: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        pairs = tuple(
            sorted((int(a), int(b)) for a, b in self.mapping if int(a) != int(b))
        )
        object.__setattr__(self, "mapping", pairs)
        sources = [a for a, _ in pairs]
        if len(set(sources)) != len(sources):
            raise ValueError(f"duplicate sources in {pairs}")
        if sorted(b for _, b in pairs) != sources:
            raise ValueError(f"sources and targets must agree as sets: {pairs}")

    @classmethod
    def identity(cls) -> "FinPerm":
        return cls(())

    @classmethod
    def from_dict(cls, mapping: dict[int, int]) -> "FinPerm":
        return cls(tuple(mapping.items()))

    @cached_property
    def _map(self) -> dict[int, int]:
        return dict(self.mapping)

    def __call__(self, x: int) -> int:
        return self._map.get(x, x)

    def support(self) -> tuple[int, ...]:
        return tuple(a for a, _ in self.mapping)

    def image_window(self, window: Window) -> Window:
        return Window.of(self(x) for x in window)


def compose(alpha: FinPerm, beta: FinPerm) -> FinPerm:
    """Composite permutation applying beta first, then alpha."""
    domain = set(alpha.support()) | set(beta.support())
    return FinPerm.from_dict({x: alpha(beta(x)) for x in domain})


def inverse(alpha: FinPerm) -> FinPerm:
    """Inverse permutation: every pair reversed."""
    return FinPerm(tuple((b, a) for a, b in alpha.mapping))


def extend_bijection(partial: dict[int, int]) -> FinPerm:
    """Extend an injective partial map to a finitely supported permutation.

    Leftover sources are matched to leftover targets in increasing order,
    which makes the extension canonical and the output reproducible.
    """
    sources = set(partial)
    targets = set(partial.values())
    if len(targets) != len(sources):
        raise ValueError("partial map is not injective")
    spare_sources = sorted(targets - sources)
    spare_targets = sorted(sources - targets)
    full = dict(partial)
    full.update(zip(spare_sources, spare_targets))
    return FinPerm.from_dict(full)


def _preimage_positions(alpha: FinPerm, window: Window, domain: Window) -> np.ndarray:
    """Positions in `domain` of the preimages under alpha of the window
    points, in window order: alpha's pairs read backwards, so no inverse
    permutation is built.  Raises DomainEscape at the first preimage off it."""
    preimage = {b: a for a, b in alpha.mapping}
    positions = np.empty(len(window), dtype=np.intp)
    for i, x in enumerate(window):
        y = preimage.get(x, x)
        if y not in domain:
            raise DomainEscape(f"preimage {y} of {x} lies outside {_window_phrase(domain)}")
        positions[i] = domain.position(y)
    return positions


def apply_perm(alpha: FinPerm, config: KConfig, window: Window | None = None) -> KConfig:
    """Relocated configuration reading values through the inverse of alpha.

    The result lives on alpha(config.window) by default.  A different image
    window may be requested (e.g. to restrict to a subwindow); every
    requested point must pull back into the configuration's window.
    """
    if window is None:
        window = alpha.image_window(config.window)
    pre = _preimage_positions(alpha, window, config.window)
    values = config.array[tuple(pre[position_tuples(len(window), config.k)].T)]
    return KConfig(config.k, window, values)


def negate(config: KConfig) -> KConfig:
    """Configuration with every value flipped."""
    return KConfig(config.k, config.window, -config.values)


def is_alternating(config: KConfig) -> bool:
    """Whether swapping two tuple slots always flips the stored sign.

    Adjacent transpositions generate the symmetric group, so checking them
    is sufficient.
    """
    a = config.array
    return all(np.array_equal(a.swapaxes(j, j + 1), -a) for j in range(config.k - 1))


# ---------------------------------------------------------------------------
# Text formats


def numbered_lines(text: str) -> list[tuple[int, str]]:
    """The non-blank lines of the text with their 1-based physical line numbers."""
    return [(i, line) for i, line in enumerate(text.splitlines(), start=1) if line.strip()]


def window_to_text(window: Window) -> str:
    """Window elements joined by commas; the empty window is empty text."""
    return ",".join(map(str, window))


def _at_line(lineno: int | None, parse: Callable[..., _T], *args: object) -> _T:
    """parse(*args), a ValueError it raises turned into a FormatError at the
    line: how every reader reports input its constructor refuses."""
    try:
        return parse(*args)
    except ValueError as exc:
        raise FormatError(str(exc), lineno) from None


def window_from_text(text: str, lineno: int | None = None) -> Window:
    """Inverse of `window_to_text`: every comma-separated token must be an int."""
    return _at_line(lineno, lambda: Window(tuple(map(int, text.split(","))) if text else ()))


#: The value each sign text reads as, and the line end each value takes.
_SIGNS = {"+1": 1, "-1": -1}
_LINE_END = {1: ": +1\n", -1: ": -1\n"}

#: Widest padded tuple head, k cells, in bytes that `config_to_text` writes
#: as one byte table.  On a 2-core Xeon the table stops being faster than
#: the per-tuple join between about 250 and 450 bytes, and it takes a third
#: more memory past about 100: sign-3 on 40 points of 301 digits (911-byte
#: rows) took 196 ms and 162 MB padded against 87-92 ms and 112 MB joined.
_PADDED_HEAD_MAX = 256


def config_to_text(config: KConfig) -> str:
    """One header line, then `i1 ... ik : +1|-1` per tuple, lexicographically.

    A window element's cell is its text and a space.  When no cell is wider
    than twice the mean cell, and k padded cells fit in `_PADDED_HEAD_MAX`
    bytes, the body is one byte table: row j of a NUL-padded cell table
    holds cell j, a row per tuple gathers its k cells, a `: +1` or `: -1`
    line end follows, and one mask drops the padding.  Each element fills
    k/n of the tuple slots, so the padded table is then at most twice the
    text.  A wider cell, such as one point of many digits among short ones,
    would pad every row to its width, and long rows are slower padded, so
    those rows are joined a tuple at a time instead.  Either way time and
    memory grow linearly in the text.  The sign-4 image of an 8-point order
    (1,680 rows) takes 0.07-0.15 ms on a 2-core Xeon.
    """
    window, k = config.window, config.k
    header = f"k={k} window={window_to_text(window)}\n"
    texts = [f"{x} " for x in window]
    widths = list(map(len, texts))
    widest = max(widths, default=0)
    if len(widths) * widest > 2 * sum(widths) or k * widest > _PADDED_HEAD_MAX:
        heads = map("".join, permutations(texts, k))
        ends = map(_LINE_END.get, config.values.tolist())
        return header + "".join(map(str.__add__, heads, ends))
    cells = np.array(texts, dtype=bytes)
    tuples = position_tuples(len(window), k)
    width = k * cells.itemsize
    rows = np.empty((len(tuples), width + 5), dtype=np.uint8)
    rows[:, :width].view(cells.dtype)[...] = cells[tuples]
    rows[:, width:] = np.frombuffer(b": +1\n", dtype=np.uint8)
    rows[config.values < 0, width + 2] = ord("-")
    return header + str(rows[rows != 0], "ascii")


def config_text_size(k: int, window: Window) -> int:
    """Length of `config_to_text` of any k-configuration on the window, read
    off the window alone: the header holds each element's text, with a comma
    between two, and each element's cell, its text and a space, fills
    perm(n - 1, k - 1) tuples in each of the k slots, every row ending in
    the 5 characters of `: +1` and a newline."""
    n = len(window)
    cells = sum(len(str(x)) + 1 for x in window)
    rows = k * math.perm(n - 1, k - 1) * cells + 5 * math.perm(n, k) if n else 0
    return len(f"k={k} window=\n") + max(cells - 1, 0) + rows


def config_from_text(text: str) -> KConfig:
    """Inverse of `config_to_text`; rows may come in any order, spaced and
    blank-lined.

    The header must read `k=K window=...` with K in 2..DEFAULT_MAX_ARITY.
    Each row is checked at its own line: k distinct window points, a sign,
    and no tuple twice.  The values are then read out in permutations
    order, which stops at the first missing tuple, so the work stays
    bounded by the rows given.  Every failure is a FormatError.
    """
    lines = numbered_lines(text)
    if not lines:
        raise FormatError("empty configuration text")
    lineno, line = lines[0]
    header = line.split()
    if len(header) != 2 or not header[0].startswith("k=") or not header[1].startswith("window="):
        raise FormatError(f"bad header {line!r}", lineno)
    k = _at_line(lineno, int, header[0][2:])
    if not 2 <= k <= DEFAULT_MAX_ARITY:
        raise FormatError(f"arity must be in 2..{DEFAULT_MAX_ARITY}, got {k}", lineno)
    window = window_from_text(header[1][7:], lineno)
    allowed = set(window)
    seen: dict[tuple[int, ...], int] = {}
    for lineno, line in lines[1:]:
        head, sep, sign = line.partition(":")
        if not sep:
            raise FormatError(f"missing ':' in {line!r}", lineno)
        t = _at_line(lineno, lambda: tuple(map(int, head.split())))
        if len(t) != k or len(allowed.intersection(t)) != k:
            raise FormatError(f"not {k} distinct points of the window: {t}", lineno)
        if t in seen:
            raise FormatError(f"duplicate tuple {t}", lineno)
        sign = sign.strip()
        if sign not in _SIGNS:
            raise FormatError(f"expected +1 or -1, got {sign!r}", lineno)
        seen[t] = _SIGNS[sign]
    try:
        values = [seen[t] for t in permutations(window.elements, k)]
    except KeyError as exc:
        raise FormatError(f"missing entry for tuple {exc.args[0]}") from None
    return KConfig(k, window, values)


def perm_to_text(alpha: FinPerm) -> str:
    """`a->b` pairs, comma separated, sorted by source; identity is empty."""
    return ",".join(f"{a}->{b}" for a, b in alpha.mapping)


def perm_from_text(text: str, lineno: int | None = None) -> FinPerm:
    """Inverse of `perm_to_text`: comma-separated `a->b` pairs in any order,
    empty for the identity.  A bad pair, a repeated source, or pairs that do
    not form a bijection raise FormatError at `lineno`."""
    text = text.strip()
    if not text:
        return FinPerm.identity()
    mapping = {}
    for token in text.split(","):
        src, sep, dst = token.partition("->")
        if not sep:
            raise FormatError(f"expected 'a->b', got {token!r}", lineno)
        try:
            a, b = int(src), int(dst)
        except ValueError:
            raise FormatError(f"bad pair {token!r}", lineno) from None
        if a in mapping:
            raise FormatError(f"duplicate source {a}", lineno)
        mapping[a] = b
    return _at_line(lineno, FinPerm.from_dict, mapping)
