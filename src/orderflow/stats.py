"""Exact pattern measures and Monte-Carlo orbit averages.

Every order pattern on an n-window has exact measure 1/n! under the
exchangeable measure, and the empirical frequency of a pattern along
uniformly random relocations of any fixed source order converges to that
value, whatever the source.

Sampling is chunked: chunk i draws from a generator seeded by a hash of
(label, master seed, i), and chunk counts are reduced in index order, so a
run is reproducible for a fixed master seed at any worker count.
"""

from __future__ import annotations

import hashlib
import math
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import Window, tuple_rank
from .errors import DegenerateWindow, FormatError, GroundTooSmall
from .orders import LinearOrder, all_linear_orders, order_from_text, order_to_text

#: Trials per sampling chunk.  Fixed so that worker counts cannot change
#: the chunk boundaries, only who evaluates them.
CHUNK_SIZE = 10_000

_SAMPLER_LABEL = "orbit-average"


@dataclass(frozen=True)
class PatternStat:
    """Exact measure of one pattern next to its empirical frequency."""

    pattern: LinearOrder
    exact: Fraction
    empirical: Fraction
    trials: int
    seed: int

    def __post_init__(self):
        if self.exact != Fraction(1, math.factorial(len(self.pattern.window))):
            raise ValueError(f"exact measure must be 1/{len(self.pattern.window)}!")
        if not 0 <= self.empirical <= 1:
            raise ValueError(f"empirical frequency out of [0, 1]: {self.empirical}")
        if self.trials < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")
        if self.empirical * self.trials % 1:
            raise ValueError(
                f"empirical frequency {self.empirical} is not a hit count over "
                f"{self.trials} trials"
            )


def cylinder_measure(pattern: LinearOrder) -> Fraction:
    """Exact measure of the set of configurations showing the pattern."""
    n = len(pattern.window)
    if n < 1:
        raise DegenerateWindow("pattern window must be nonempty")
    return Fraction(1, math.factorial(n))


def random_linear_order(window: Window, seed: int) -> LinearOrder:
    """Uniformly random ranking of the window, deterministic in the seed."""
    ranks = list(range(len(window)))
    random.Random(seed).shuffle(ranks)
    return LinearOrder(window, tuple(ranks))


def derive_seed(master: int, label: str, index: int) -> int:
    """Stable per-purpose seed derived by hashing."""
    digest = hashlib.sha256(f"{label}|{master}|{index}".encode()).digest()
    return int.from_bytes(digest[:16], "big")


def _sample_positions(n: int, w: int, chunk_seed: int, count: int) -> np.ndarray:
    """(count, w) matrix of distinct window positions, uniform injections.

    Row = the w smallest of n iid uniforms, listed in increasing value,
    which is distributed as the first w entries of a uniform permutation.
    """
    rng = np.random.default_rng(chunk_seed)
    u = rng.random((count, n))
    idx = np.argpartition(u, w - 1, axis=1)[:, :w]
    picked = np.take_along_axis(u, idx, axis=1)
    return np.take_along_axis(idx, np.argsort(picked, axis=1), axis=1)


def _chunk_pattern_counts(
    source_ranks: np.ndarray, w: int, chunk_seed: int, count: int
) -> np.ndarray:
    """Pattern histogram of `count` random relocations onto a w-window."""
    sampled = _sample_positions(len(source_ranks), w, chunk_seed, count)
    r = source_ranks[sampled]
    induced = (r[:, None, :] < r[:, :, None]).sum(axis=2)
    codes = np.zeros(count, dtype=np.int64)
    for i in range(w):
        d = induced[:, i].copy()
        for j in range(i):
            d -= induced[:, j] < induced[:, i]
        codes = codes * (w - i) + d
    return np.bincount(codes, minlength=math.factorial(w))


def _pattern_counts(
    source: LinearOrder,
    window: Window,
    trials: int,
    seed: int,
    jobs: int = 1,
) -> np.ndarray:
    """Histogram over all |W|! patterns, one entry per pattern in the
    enumeration order of all_linear_orders."""
    w = len(window)
    if len(source.window) < w:
        raise GroundTooSmall(
            f"ground size {len(source.window)} below the window size {w}"
        )
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    source_ranks = np.asarray(source.ranks)
    sizes = [CHUNK_SIZE] * (trials // CHUNK_SIZE)
    if trials % CHUNK_SIZE:
        sizes.append(trials % CHUNK_SIZE)

    def run_chunk(i: int) -> np.ndarray:
        return _chunk_pattern_counts(
            source_ranks, w, derive_seed(seed, _SAMPLER_LABEL, i), sizes[i]
        )

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(run_chunk, range(len(sizes))))
    else:
        chunks = [run_chunk(i) for i in range(len(sizes))]
    total = np.zeros(math.factorial(w), dtype=np.int64)
    for counts in chunks:
        total += counts
    return total


def orbit_average(
    source: LinearOrder,
    pattern: LinearOrder,
    trials: int,
    seed: int,
    jobs: int = 1,
) -> PatternStat:
    """Empirical frequency of one pattern over random relocations.

    Each trial relocates a uniformly random |W|-point subset of the ground
    onto the pattern window by a uniformly random assignment and asks
    whether the source order lands exactly on the pattern.  The sample
    stream depends only on (seed, trials), never on the pattern, so stats
    for different patterns from one seed partition the trials.
    """
    counts = _pattern_counts(source, pattern.window, trials, seed, jobs)
    hits = int(counts[tuple_rank(pattern.ranks, len(pattern.window))])
    return PatternStat(
        pattern=pattern,
        exact=cylinder_measure(pattern),
        empirical=Fraction(hits, trials),
        trials=trials,
        seed=seed,
    )


def orbit_average_all(
    source: LinearOrder,
    window: Window,
    trials: int,
    seed: int,
    jobs: int = 1,
) -> list[PatternStat]:
    """One PatternStat per pattern on the window, from a single sample
    stream.  Equals per-pattern orbit_average calls with the same seed."""
    counts = _pattern_counts(source, window, trials, seed, jobs)
    exact = Fraction(1, math.factorial(len(window)))
    return [
        PatternStat(
            pattern=pattern,
            exact=exact,
            empirical=Fraction(int(counts[i]), trials),
            trials=trials,
            seed=seed,
        )
        for i, pattern in enumerate(all_linear_orders(window))
    ]


# ---------------------------------------------------------------------------
# JSON form


def stat_to_dict(stat: PatternStat) -> dict:
    return {
        "pattern": order_to_text(stat.pattern),
        "window": ",".join(map(str, stat.pattern.window)),
        "exact_num": stat.exact.numerator,
        "exact_den": stat.exact.denominator,
        "empirical": float(stat.empirical),
        "trials": stat.trials,
        "seed": stat.seed,
    }


def _hits_from_float(empirical: object, trials: int) -> int:
    """Hit count whose frequency over the trials is exactly the stored float.

    stat_to_dict stores hits / trials as a float; the count is recovered by
    rounding and accepted only if it reproduces that float exactly.
    """
    if not isinstance(empirical, (int, float)) or isinstance(empirical, bool):
        raise FormatError(f"bad pattern stat: empirical must be a number, got {empirical!r}")
    if not math.isfinite(empirical):
        raise FormatError(f"bad pattern stat: empirical {empirical} is not finite")
    hits = round(empirical * trials)
    if float(Fraction(hits, trials)) != empirical:
        raise FormatError(
            f"bad pattern stat: empirical {empirical!r} is not a hit count over {trials} trials"
        )
    return hits


def stat_from_dict(data: dict) -> PatternStat:
    if not isinstance(data, dict):
        raise FormatError(f"bad pattern stat: expected an object, got {type(data).__name__}")
    try:
        for key in ("pattern", "window"):
            if not isinstance(data[key], str):
                raise FormatError(f"bad pattern stat: {key} must be text, got {data[key]!r}")
        pattern = order_from_text(data["pattern"])
        window = Window(tuple(int(x) for x in data["window"].split(",")))
        exact = Fraction(int(data["exact_num"]), int(data["exact_den"]))
        trials = int(data["trials"])
        if trials < 1:
            raise ValueError(f"trials must be positive, got {trials}")
        stat = PatternStat(
            pattern=pattern,
            exact=exact,
            empirical=Fraction(_hits_from_float(data["empirical"], trials), trials),
            trials=trials,
            seed=int(data["seed"]),
        )
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad pattern stat: {exc}") from None
    if stat.pattern.window != window:
        raise FormatError("pattern and window fields disagree")
    return stat
