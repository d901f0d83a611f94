"""Windows, injective tuples, sign configurations, and the finitely
supported permutation action on them.

A configuration assigns +1 or -1 to every injective k-tuple drawn from a
finite window of integers.  A finitely supported permutation alpha acts by
relocation: the new configuration on alpha(W) reads, at a tuple t, the old
value at the entrywise preimage of t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DomainEscape, FormatError, OutOfWindow

#: Arity cap for configuration builders.  Falling-factorial growth makes
#: larger arities impractical; every construction here uses k <= 4.
DEFAULT_MAX_ARITY = 6


@dataclass(frozen=True)
class Window:
    """Strictly increasing tuple of integers used as a finite index set."""

    elements: tuple[int, ...]

    def __post_init__(self):
        elems = tuple(int(x) for x in self.elements)
        object.__setattr__(self, "elements", elems)
        if any(a >= b for a, b in zip(elems, elems[1:])):
            raise ValueError(f"window elements must be strictly increasing: {elems}")

    @classmethod
    def of(cls, elements: Iterable[int]) -> "Window":
        """Window from any iterable of distinct integers, sorted."""
        return cls(tuple(sorted(elements)))

    @cached_property
    def _pos(self) -> dict[int, int]:
        return {x: i for i, x in enumerate(self.elements)}

    def position(self, x: int) -> int:
        try:
            return self._pos[x]
        except KeyError:
            raise OutOfWindow(f"{x} is not in window {self.elements}") from None

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, x: int) -> bool:
        return x in self._pos


@dataclass(frozen=True)
class InjTuple:
    """Tuple of pairwise distinct integers indexing one configuration value."""

    entries: tuple[int, ...]

    def __post_init__(self):
        entries = tuple(int(x) for x in self.entries)
        object.__setattr__(self, "entries", entries)
        if len(entries) < 2:
            raise ValueError("injective tuples have arity at least 2")
        if len(set(entries)) != len(entries):
            raise ValueError(f"tuple entries must be pairwise distinct: {entries}")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)


def as_entries(t: InjTuple | Sequence[int]) -> tuple[int, ...]:
    """Normalize a tuple argument to a plain tuple of ints."""
    return t.entries if isinstance(t, InjTuple) else tuple(t)


def tuple_rank(positions: Sequence[int], n: int) -> int:
    """Lexicographic index of an injective tuple of positions over range(n).

    Mixed-radix (Lehmer-style) encoding: digit i is the position reduced by
    the count of earlier, smaller positions, with radix n - i.  Agrees with
    the enumeration order of itertools.permutations(range(n), k).
    """
    rank = 0
    for i, p in enumerate(positions):
        d = p - sum(1 for q in positions[:i] if q < p)
        rank = rank * (n - i) + d
    return rank


@dataclass(frozen=True)
class KConfig:
    """Total +1/-1 assignment on the injective k-tuples over a window.

    Values are stored flat, indexed by the lexicographic rank of the tuple
    of window positions: O(k^2) lookup, and iteration is a plain zip with
    itertools.permutations.
    """

    k: int
    window: Window
    values: tuple[int, ...]

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"arity must be at least 2, got {self.k}")
        expected = math.perm(len(self.window), self.k)
        if len(self.values) != expected:
            raise ValueError(
                f"need {expected} values for arity {self.k} on a "
                f"{len(self.window)}-window, got {len(self.values)}"
            )
        if any(v not in (1, -1) for v in self.values):
            raise ValueError("configuration values must be +1 or -1")

    @classmethod
    def from_function(
        cls,
        k: int,
        window: Window,
        fn: Callable[[tuple[int, ...]], int],
        max_arity: int = DEFAULT_MAX_ARITY,
    ) -> "KConfig":
        """Evaluate fn on every injective k-tuple over the window."""
        if not 2 <= k <= max_arity:
            raise ValueError(f"arity must be in 2..{max_arity}, got {k}")
        values = tuple(int(fn(t)) for t in permutations(window.elements, k))
        return cls(k, window, values)

    def value(self, t: InjTuple | Sequence[int]) -> int:
        entries = as_entries(t)
        if len(entries) != self.k:
            raise ValueError(f"expected a {self.k}-tuple, got {entries}")
        positions = [self.window.position(x) for x in entries]
        if len(set(positions)) != len(positions):
            raise ValueError(f"tuple entries must be pairwise distinct: {entries}")
        return self.values[tuple_rank(positions, len(self.window))]

    def tuples(self) -> Iterator[tuple[int, ...]]:
        """All injective k-tuples over the window, lexicographically."""
        return permutations(self.window.elements, self.k)

    def items(self) -> Iterator[tuple[tuple[int, ...], int]]:
        return zip(self.tuples(), self.values)


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

    @classmethod
    def from_cycles(cls, *cycles: Sequence[int]) -> "FinPerm":
        """Permutation from disjoint cycles, e.g. from_cycles((0, 1), (2, 3, 4))."""
        mapping: dict[int, int] = {}
        for cycle in cycles:
            for i, x in enumerate(cycle):
                if x in mapping:
                    raise ValueError(f"cycles are not disjoint at {x}")
                mapping[x] = cycle[(i + 1) % len(cycle)]
        return cls.from_dict(mapping)

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


def apply_perm(alpha: FinPerm, config: KConfig, window: Window | None = None) -> KConfig:
    """Relocated configuration reading values through the inverse of alpha.

    The result lives on alpha(config.window) by default.  A different image
    window may be requested (e.g. to restrict to a subwindow); every
    requested point must pull back into the configuration's window.
    """
    inv = inverse(alpha)
    if window is None:
        window = alpha.image_window(config.window)
    preimage_pos: dict[int, int] = {}
    for x in window:
        y = inv(x)
        if y not in config.window:
            raise DomainEscape(
                f"preimage {y} of {x} lies outside window {config.window.elements}"
            )
        preimage_pos[x] = config.window.position(y)
    n = len(config.window)
    values = tuple(
        config.values[tuple_rank([preimage_pos[x] for x in t], n)]
        for t in permutations(window.elements, config.k)
    )
    return KConfig(config.k, window, values)


def restrict(config: KConfig, window: Window) -> KConfig:
    """Restriction of a configuration to a subwindow."""
    return apply_perm(FinPerm.identity(), config, window=window)


def negate(config: KConfig) -> KConfig:
    """Configuration with every value flipped."""
    return KConfig(config.k, config.window, tuple(-v for v in config.values))


def is_alternating(config: KConfig) -> bool:
    """Whether swapping two tuple slots always flips the stored sign.

    Adjacent transpositions generate the symmetric group, so checking them
    is sufficient.
    """
    k = config.k
    for t, v in config.items():
        for j in range(k - 1):
            swapped = t[:j] + (t[j + 1], t[j]) + t[j + 2 :]
            if config.value(swapped) != -v:
                return False
    return True


# ---------------------------------------------------------------------------
# Text formats


def format_sign(v: int) -> str:
    return "+1" if v > 0 else "-1"


def parse_sign(token: str, lineno: int | None = None) -> int:
    if token == "+1":
        return 1
    if token == "-1":
        return -1
    raise FormatError(f"expected +1 or -1, got {token!r}", lineno)


def config_to_text(config: KConfig) -> str:
    """One header line, then `i1 ... ik : +1|-1` per tuple, lexicographically."""
    lines = [f"k={config.k} window={','.join(map(str, config.window))}"]
    for t, v in config.items():
        lines.append(f"{' '.join(map(str, t))} : {format_sign(v)}")
    return "\n".join(lines) + "\n"


def config_from_text(text: str) -> KConfig:
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty configuration text")
    header = lines[0].split()
    if len(header) != 2 or not header[0].startswith("k=") or not header[1].startswith("window="):
        raise FormatError(f"bad header {lines[0]!r}", 1)
    try:
        k = int(header[0][2:])
        window = Window(tuple(int(x) for x in header[1][7:].split(",") if x != ""))
    except ValueError as exc:
        raise FormatError(str(exc), 1) from None
    if k < 2:
        raise FormatError(f"arity must be at least 2, got {k}", 1)
    if k > DEFAULT_MAX_ARITY:
        raise FormatError(f"arity must be at most {DEFAULT_MAX_ARITY}, got {k}", 1)
    seen: dict[tuple[int, ...], int] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        head, sep, sign = line.partition(":")
        if not sep:
            raise FormatError(f"missing ':' in {line!r}", lineno)
        try:
            t = tuple(int(x) for x in head.split())
        except ValueError:
            raise FormatError(f"bad tuple in {line!r}", lineno) from None
        if len(t) != k:
            raise FormatError(f"expected a {k}-tuple, got {t}", lineno)
        if t in seen:
            raise FormatError(f"duplicate tuple {t}", lineno)
        seen[t] = parse_sign(sign.strip(), lineno)
    try:
        values = tuple(seen.pop(t) for t in permutations(window.elements, k))
    except KeyError as exc:
        raise FormatError(f"missing value for tuple {exc.args[0]}") from None
    if seen:
        raise FormatError(f"value for {next(iter(seen))} is outside the window")
    return KConfig(k, window, values)


def perm_to_text(alpha: FinPerm) -> str:
    """`a->b` pairs, comma separated, sorted by source; identity is empty."""
    return ",".join(f"{a}->{b}" for a, b in alpha.mapping)


def perm_from_text(text: str) -> FinPerm:
    text = text.strip()
    if not text:
        return FinPerm.identity()
    mapping = {}
    for token in text.split(","):
        src, sep, dst = token.partition("->")
        if not sep:
            raise FormatError(f"expected 'a->b', got {token!r}")
        try:
            mapping[int(src)] = int(dst)
        except ValueError:
            raise FormatError(f"bad pair {token!r}") from None
    try:
        return FinPerm.from_dict(mapping)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
