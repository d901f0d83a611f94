"""Exact pattern measures and Monte-Carlo orbit averages.

Every order pattern on an n-window has exact measure 1/n! under the
exchangeable measure, and the empirical frequency of a pattern along
uniformly random relocations of any fixed source order converges to that
value, whatever the source.

A trial relocates a uniformly random injective w-tuple of ground
positions onto the window.  The tuple is drawn as w Lehmer digits, digit i
uniform on [0, n - i), and decoded by `core.positions_from_digits` in
w - 1 vectorized passes over slot-major rows (Knuth, TAOCP vol. 2, section
3.4.2; Bentley and Floyd, CACM 1987), so a trial costs O(w) draws and
memory whatever the ground size n.  The digits are the ones numpy's
`Generator.integers` would draw, computed from the bit generator's raw
32-bit outputs by Lemire's multiply-and-reject rule (Lemire, ACM TOMACS
29(1), 2019), copied into the slot-major buffer and multiplied there in
place.  The few outputs the rule rejects (about 2 in 10^4 at the CLI's
10^6 points, under 1 in 10^7 at 1,000) are found by one pass per slot and
one walk in order over the candidates, and skipped before the products are
written again.  A trial's pattern index is the Lehmer code of the w source
ranks it lands on, read off them by `core.pattern_index` without building
their induced rank vector, or, for the natural order, off the decode itself.

The chunk dtype.  Positions and ranks lie in [0, n), so a chunk decodes
and compares them in the narrowest unsigned dtype that holds n - 1,
`np.min_scalar_type(n - 1)`: uint8 up to 256 points, uint16 up to 65,536
and uint32 up to the CLI's 10^6.  Every decode pass and comparison is a
numpy loop over whole rows, which then moves 1, 2 or 4 bytes per entry
instead of 8, and a chunk's narrow temporaries are small enough that up to
65,536 points it takes no fresh pages (at window 4, 124 page faults per
chunk in int64).  The digits stay the int64 ones numpy draws, and each
chunk casts its (w, count) rows.

The source.  A run samples either an order's ranks or the natural order
on range(n), given by its ground size n alone.  The natural order's ranks
are its positions, and the comparisons that decode a trial's digits are
those of its pattern, so its chunks read each trial's pattern off the
decode, by `core.pattern_index_from_digits`: each of the C(w, 2) slot
pairs is compared once, no positions are kept, and the run holds nothing
of size n.  An order's ranks are cast to the chunk dtype once per run, by
`pattern_counts`, and a chunk decodes its positions and gathers the ranks
through an `intp` copy of them: numpy's fancy indexing takes a slower path
for any other index dtype.  At 1,000 points a natural chunk takes about
180 us at window 4 and 390 us at window 8, and an order's chunk, which
gathers its uint16 ranks and compares them again, about 265 and 595 us
(2-core Xeon).

Sampling is chunked: chunk i draws from a generator seeded by a hash of
(label, master seed, i).  Each worker adds the counts of its own strided
share of the chunks into its own total, and integer sums do not depend on
their order, so a run is reproducible for a fixed master seed at any
worker count.

A run is one count array indexed by `core.pattern_index`, `pattern_counts`.
`fit_summary` reads it.  `histogram_records` holds its JSON records by
field, a field that every record shares only once, and `histogram_to_dicts`
lists them as dicts; `stat_from_dict` reads a record back as a
`PatternStat` with exact rationals.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import operator
import os
import random
import sys
import threading
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import Window, _text_head, pattern_index, pattern_index_from_digits
from .core import position_tuples, positions_from_digits, window_from_text, window_to_text
from .errors import FormatError, GroundTooSmall, WindowTooSmall
from .orders import LinearOrder, order_from_text, order_texts

#: Trials per sampling chunk.  Fixed so that worker counts cannot change
#: the chunk boundaries, only who evaluates them.
CHUNK_SIZE = 10_000

_SAMPLER_LABEL = "orbit-average"

#: 32-bit outputs drawn beyond those a chunk's digits read, for rejected
#: ones; a chunk whose skipped outputs outrun them draws the shortfall and
#: this many again.
_SPARE_OUTPUTS = 64

#: Index of the low 32-bit half within a native 64-bit word.
_LOW_HALF = 0 if sys.byteorder == "little" else 1


@dataclass(frozen=True)
class PatternStat:
    """A record read by `stat_from_dict`: one pattern's exact and empirical measure."""

    pattern: LinearOrder
    exact: Fraction
    empirical: Fraction
    trials: int
    seed: int

    def __post_init__(self):
        if self.exact != Fraction(1, math.factorial(len(self.pattern.window))):
            raise ValueError(f"exact measure must be 1/{len(self.pattern.window)}!")
        if not 0 <= self.empirical <= 1:
            shown = _text_head(str(self.empirical), str)
            raise ValueError(f"empirical frequency out of [0, 1]: {shown}")
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
        raise WindowTooSmall("pattern window must be nonempty")
    return Fraction(1, math.factorial(n))


def random_linear_order(window: Window, seed: int) -> LinearOrder:
    """Uniformly random ranking of the window, deterministic in the seed.

    The ranks are those of `random.Random(seed).shuffle(list(range(n)))`,
    drawn without its per-point Python calls: Durstenfeld's swaps run from
    the top down (CACM 7(7), 1964), and step i takes j uniform on [0, i] by
    CPython's `_randbelow_with_getrandbits(i + 1)` rule, k = (i +
    1).bit_length() bits from `getrandbits`, drawn again while j > i.
    `tests/test_stats.py::test_random_order_is_the_shuffle_stream` pins the
    stream.  The loop stays inline: a function call per step is the cost it
    removes.  The ranks reach `LinearOrder` as an int64 array from
    `np.fromiter`, so `np.asarray` does not scan the list to find a dtype.
    """
    ranks = list(range(len(window)))
    getrandbits = random.Random(seed).getrandbits
    for i in range(len(ranks) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        ranks[i], ranks[j] = ranks[j], ranks[i]
    return LinearOrder(window, np.fromiter(ranks, np.int64, len(ranks)))


def derive_seed(master: int, label: str, index: int) -> int:
    """Stable per-purpose seed derived by hashing."""
    digest = hashlib.sha256(f"{label}|{master}|{index}".encode()).digest()
    return int.from_bytes(digest[:16], "big")


def _raw_outputs(bitgen: np.random.BitGenerator, count: int) -> np.ndarray:
    """At least `count` further 32-bit outputs of a PCG64 bit generator, in
    the order its `next_uint32` returns them: the low, then the high half
    of each 64-bit output."""
    return np.asarray(bitgen.random_raw((count + 1) // 2), dtype="<u8").view("<u4")


def _lehmer_digits(n: int, w: int, chunk_seed: int, count: int) -> np.ndarray:
    """Slot-major (w, count) Lehmer digits, digit i of each trial uniform on
    [0, n - i): the transpose of what `default_rng(chunk_seed).integers(0,
    n - np.arange(w), size=(count, w))` returns, computed from the bit
    generator's raw outputs without calling it.

    numpy draws a digit with bound b < 2^32 by Lemire's rule (Lemire, ACM
    TOMACS 29(1), 2019): with x the next 32-bit output, m = x b is kept
    unless m mod 2^32 < 2^32 mod b, when the digit reads the output after;
    the digit is m >> 32, and a bound of 1 reads nothing.  The digits read
    the outputs in row-major (trial, slot) order, so one copy writes every
    output, transposed, into the slot-major uint64 buffer, and one in-place
    multiply turns it into every m, right up to the first rejection.  One
    mixed-dtype multiply from the uint32 outputs straight into the buffer
    timed the same at 1,000 points and window 4 and about 2 % slower at
    window 8.

    From the trial t of the first rejected output on, each slot lists the
    outputs it would reject, x b mod 2^32 being one uint32 multiply, and a
    walk over those few candidates in order skips output p when the slot
    that reads it, (p - s) mod v with s outputs skipped before p, rejects
    it.  Outputs are drawn while the skipped ones leave too few, and the
    products of trials t on are written again from the outputs kept.
    """
    v = max(min(w, n - 1), 0)  # slots that read an output: bound n - i above 1
    digits = np.empty((w, count), dtype=np.int64)
    digits[v:] = 0
    products = digits[:v].view(np.uint64)
    low = products.view(np.uint32)[:, _LOW_HALF::2]
    bounds = n - np.arange(v, dtype=np.uint64)
    thresholds = (2**32 % bounds).astype(np.uint32)
    bitgen = np.random.PCG64(chunk_seed)
    raw = _raw_outputs(bitgen, v * count + _SPARE_OUTPUTS)
    np.copyto(products, raw[: v * count].reshape(count, v).T)
    products *= bounds[:, None]
    rejecting = np.flatnonzero(low.min(axis=1) < thresholds)
    if len(rejecting):
        t = min(int(np.argmax(low[k] < thresholds[k])) for k in rejecting)
        tail = raw[t * v :]
        skips: list[int] = []
        walked = 0
        while walked < len(tail):
            rejects = [
                set((walked + np.flatnonzero(tail[walked:] * b < h)).tolist())
                for b, h in zip(bounds.astype(np.uint32), thresholds)
            ]
            for p in sorted(set().union(*rejects)):
                if p in rejects[(p - len(skips)) % v]:
                    skips.append(p)
            walked = len(tail)
            missing = v * (count - t) + len(skips) - len(tail)
            if missing > 0:
                tail = np.concatenate((tail, _raw_outputs(bitgen, missing + _SPARE_OUTPUTS)))
        kept = np.delete(tail, skips)[: v * (count - t)]
        np.multiply(kept.reshape(count - t, v).T, bounds[:, None], out=products[:, t:])
    products >>= 32
    return digits


def _sample_positions(n: int, w: int, chunk_seed: int, count: int) -> np.ndarray:
    """Slot-major (w, count) matrix of window positions: column t holds
    trial t's w distinct positions, a uniform injection.

    Each trial draws w independent Lehmer digits, digit i uniform on
    [0, n - i), by `_lehmer_digits`, and decodes them (Knuth, TAOCP vol. 2,
    section 3.4.2; Bentley and Floyd, CACM 1987).  Decoding is a bijection
    from the digit tuples onto the n!/(n - w)! injections, so uniform digits
    give a uniform injection in O(w) draws and O(w^2) comparisons per trial.
    The digits are decoded, and the positions come back, in the chunk dtype
    of the module docstring.
    """
    digits = _lehmer_digits(n, w, chunk_seed, count)
    return positions_from_digits(digits.astype(np.min_scalar_type(n - 1)))


def _chunk_pattern_counts(
    source_ranks: np.ndarray | int, w: int, chunk_seed: int, count: int
) -> np.ndarray:
    """Pattern histogram of `count` random relocations onto a w-window, a
    w!-entry int64 array that `pattern_counts` adds into its total.

    A trial's pattern index is `core.pattern_index` of the source ranks it
    lands on, the same number as for their induced rank vector, so entry i
    counts the pattern of row i of `position_tuples(w, w)`, the i-th order
    of all_linear_orders.

    `source_ranks` is an order's ranks or, for the natural order on
    range(n), the int n, whose positions are its ranks: its chunk reads
    each trial's index off the decode by `core.pattern_index_from_digits`
    and keeps no positions.  An order's chunk decodes its positions and
    gathers its ranks through an intp copy of them, numpy's fast
    fancy-index path.  Either way the chunk decodes and compares in the
    dtype of the module docstring, so it costs O(w count) at any ground size.
    """
    if isinstance(source_ranks, int):
        digits = _lehmer_digits(source_ranks, w, chunk_seed, count)
        index = pattern_index_from_digits(digits.astype(np.min_scalar_type(source_ranks - 1)))
    else:
        positions = _sample_positions(len(source_ranks), w, chunk_seed, count)
        index = pattern_index(source_ranks[positions.astype(np.intp)])
    return np.bincount(index, minlength=math.factorial(w))


def pattern_counts(
    source: LinearOrder | int,
    window: Window,
    trials: int,
    seed: int,
    jobs: int = 1,
) -> np.ndarray:
    """Hits of every pattern on the window: an int64 array of |W|! entries
    in the enumeration order of all_linear_orders, summing to `trials`.

    The source is a `LinearOrder` or a ground size n, standing for the
    natural order on range(n), which gives the same histogram as
    `LinearOrder.natural(Window(range(n)))` with nothing of size n built.
    Each trial relocates a uniformly random |W|-point subset of the ground
    onto the window by a uniformly random assignment and counts the pattern
    the source order lands on.  The sample stream depends only on (seed,
    trials).  An order's ranks are cast to the chunk dtype of the module
    docstring once, and every chunk reads that copy.  With k = min(jobs,
    chunks, CPU count) workers, the calling thread alone when k is 1,
    worker j evaluates chunks j, j + k, j + 2k, ... and adds each one's
    histogram into a total of its own; the caller sums the k totals.  So
    at most k chunks are in flight whatever the trial count.  The
    workers share only a stop flag: one that raises sets it, the others
    stop at their next chunk, and its exception is raised here.
    """
    w = len(window)
    if isinstance(source, LinearOrder):
        n = len(source.window)
        ranks = source.ranks.astype(np.min_scalar_type(n - 1))
    else:
        n = ranks = operator.index(source)
    if n < w:
        raise GroundTooSmall(f"ground size {n} below the window size {w}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    chunks = -(-trials // CHUNK_SIZE)
    workers = min(max(jobs, 1), chunks, os.cpu_count() or 1)
    failed = threading.Event()

    def work(first: int) -> np.ndarray:
        total = np.zeros(math.factorial(w), dtype=np.int64)
        try:
            for i in range(first, chunks, workers):
                if failed.is_set():
                    break
                size = min(CHUNK_SIZE, trials - i * CHUNK_SIZE)
                total += _chunk_pattern_counts(ranks, w, derive_seed(seed, _SAMPLER_LABEL, i), size)
        except BaseException:
            failed.set()
            raise
        return total

    if workers == 1:
        return work(0)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(work, range(workers)))


def fit_summary(counts: np.ndarray) -> tuple[float, int, float]:
    """Distance of a full pattern histogram from its exact law.

    `counts` holds the hits of every pattern on a window of at least two
    points, all from one sample stream, as `pattern_counts` returns them.
    Gives the chi-square statistic over the w! cells, its w! - 1 degrees of
    freedom, and the largest |z| = |hits - trials p| / sqrt(trials p (1 - p))
    with p = 1/w!.
    """
    if len(counts) < 2:
        raise ValueError(f"need at least two patterns, got {len(counts)}")
    p = 1 / len(counts)
    expected = int(counts.sum()) * p
    deviations = [hits - expected for hits in counts.tolist()]
    chi2 = sum(d * d for d in deviations) / expected
    max_z = max(abs(d) for d in deviations) / math.sqrt(expected * (1 - p))
    return chi2, len(counts) - 1, max_z


# ---------------------------------------------------------------------------
# JSON form


@dataclass(frozen=True)
class RecordTable:
    """Flat records held by field, so that a writer encodes a field every
    record shares once: `keys` lists the fields in each record's order,
    `shared` maps a field to the one value all records hold, and `varying`
    maps each other field to its values, one per record, in record order.
    At least one field varies."""

    keys: tuple[str, ...]
    shared: dict[str, object]
    varying: dict[str, list]

    def rows(self) -> Iterator[tuple]:
        """Each record's values, in key order."""
        varying, shared = self.varying, self.shared
        columns = (varying[k] if k in varying else itertools.repeat(shared[k]) for k in self.keys)
        return zip(*columns)

    def dicts(self) -> list[dict]:
        return [dict(zip(self.keys, row)) for row in self.rows()]


def histogram_records(counts: np.ndarray, window: Window, seed: int) -> RecordTable:
    """One record per cell of a `pattern_counts` histogram, as `stat_from_dict`
    reads it: the trials are the sum of the counts, a pattern's text is the
    order text of its row of `position_tuples(w, w)`, and its empirical
    frequency is the float nearest hits / trials.  Only the pattern and the
    frequency vary."""
    w = len(window)
    trials = int(counts.sum())
    if trials < 1 or len(counts) != math.factorial(w):
        raise ValueError(f"need {w}! cells holding trials, got {len(counts)} holding {trials}")
    return RecordTable(
        keys=("pattern", "window", "exact_num", "exact_den", "empirical", "trials", "seed"),
        shared={
            "window": window_to_text(window),
            "exact_num": 1,
            "exact_den": len(counts),
            "trials": trials,
            "seed": seed,
        },
        varying={
            "pattern": order_texts(window, position_tuples(w, w)),
            "empirical": [hits / trials for hits in counts.tolist()],
        },
    )


def histogram_to_dicts(counts: np.ndarray, window: Window, seed: int) -> list[dict]:
    """The records of `histogram_records`, one dict each."""
    return histogram_records(counts, window, seed).dicts()


def _hits_from_float(empirical: object, trials: int) -> int:
    """Hit count whose frequency over the trials is exactly the stored float.

    The writer stores hits / trials as a float; the count is recovered as
    the integer nearest to empirical * trials in exact rationals, so no
    product overflows a float.  A count in [0, trials] is accepted only if
    it reproduces that float exactly; one outside is left to `PatternStat`,
    which refuses it as out of [0, 1].
    """
    if not isinstance(empirical, (int, float)) or isinstance(empirical, bool):
        raise FormatError(f"bad pattern stat: empirical must be a number, got {empirical!r}")
    if isinstance(empirical, float) and not math.isfinite(empirical):
        raise FormatError(f"bad pattern stat: empirical {empirical} is not finite")
    hits = round(Fraction(empirical) * trials)
    if 0 <= hits <= trials and float(Fraction(hits, trials)) != empirical:
        raise FormatError(
            f"bad pattern stat: empirical {empirical!r} is not a hit count over "
            f"{_text_head(str(trials), str)} trials"
        )
    return hits


def _json_int(data: dict, key: str, positive: bool = False) -> int:
    """The field's value if it is a JSON integer, above 0 where asked;
    floats, text and booleans are refused, not truncated or coerced."""
    value = data[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise FormatError(f"bad pattern stat: {key} must be an integer, got {value!r}")
    if positive and value < 1:
        shown = _text_head(str(value), str)
        raise FormatError(f"bad pattern stat: {key} must be positive, got {shown}")
    return value


def stat_from_dict(data: dict) -> PatternStat:
    if not isinstance(data, dict):
        raise FormatError(f"bad pattern stat: expected an object, got {type(data).__name__}")
    try:
        for key in ("pattern", "window"):
            if not isinstance(data[key], str):
                shown = _text_head(repr(data[key]), str)
                raise FormatError(f"bad pattern stat: {key} must be text, got {shown}")
        pattern = order_from_text(data["pattern"])
        window = window_from_text(data["window"])
        exact = Fraction(_json_int(data, "exact_num"), _json_int(data, "exact_den", positive=True))
        trials = _json_int(data, "trials", positive=True)
        stat = PatternStat(
            pattern=pattern,
            exact=exact,
            empirical=Fraction(_hits_from_float(data["empirical"], trials), trials),
            trials=trials,
            seed=_json_int(data, "seed"),
        )
    except KeyError as exc:
        raise FormatError(f"bad pattern stat: missing field {exc}") from None
    except ValueError as exc:
        raise FormatError(f"bad pattern stat: {exc}") from None
    if stat.pattern.window != window:
        raise FormatError("bad pattern stat: pattern and window fields disagree")
    return stat
