import itertools
import json
import math
import os
import random
import re
import sys
import threading
import time
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderflow import (
    FinPerm,
    FormatError,
    GroundTooSmall,
    LinearOrder,
    PatternStat,
    Window,
    WindowTooSmall,
    all_linear_orders,
    apply_code,
    apply_perm,
    cylinder_measure,
    derive_seed,
    extend_bijection,
    histogram_to_dicts,
    order_to_text,
    pattern_counts,
    random_linear_order,
    relabel,
    sign_code,
    stat_from_dict,
)
from orderflow import core, stats

# 0.999 quantile of the chi-square distribution with 5 degrees of freedom
CHI2_Q999_DF5 = 20.515005652432873


# ---------------------------------------------------------------------------
# exact measures


def test_cylinder_measure_values_match_enumeration():
    for n, expected in [(1, 1), (3, Fraction(1, 6)), (5, Fraction(1, 120))]:
        window = Window(tuple(range(n)))
        pattern = LinearOrder.natural(window)
        count = len(list(all_linear_orders(window)))
        assert cylinder_measure(pattern) == Fraction(1, count) == expected


def test_cylinder_measure_is_relabeling_invariant():
    pattern = LinearOrder.from_ranked_elements((2, 0, 1))
    alpha = FinPerm.from_dict({0: 10, 1: 20, 2: 30, 10: 0, 20: 1, 30: 2})
    assert cylinder_measure(relabel(pattern, alpha)) == cylinder_measure(pattern)


def test_cylinder_measure_rejects_empty_window():
    with pytest.raises(WindowTooSmall):
        cylinder_measure(LinearOrder(Window(()), ()))


# ---------------------------------------------------------------------------
# uniform sampling


def test_random_order_is_deterministic_in_the_seed():
    window = Window(tuple(range(6)))
    assert random_linear_order(window, 17) == random_linear_order(window, 17)
    assert random_linear_order(Window((5,)), 0) == LinearOrder.natural(Window((5,)))


def shuffled(n: int, seed: int) -> list[int]:
    """The reference stream: `random.shuffle` of 0..n-1."""
    ranks = list(range(n))
    random.Random(seed).shuffle(ranks)
    return ranks


SHUFFLE_SEEDS = (0, 1, -7, 2**32 - 1, 2**32, derive_seed(0, "witness-o1", 0), 2**127 + 12345)


@pytest.mark.parametrize(
    "n", [1, 2, 3, 4, 5, 127, 128, 129, 255, 256, 257, 1000, 4096, 65536]
)
def test_random_order_is_the_shuffle_stream(n):
    for seed in SHUFFLE_SEEDS:
        assert random_linear_order(Window(range(n)), seed).ranks.tolist() == shuffled(n, seed)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 2000), seed=st.integers())
def test_random_order_is_the_shuffle_stream_for_any_seed(n, seed):
    assert random_linear_order(Window(range(n)), seed).ranks.tolist() == shuffled(n, seed)


def test_random_order_uniformity_chi_square():
    window = Window(tuple(range(3)))
    samples = 60_000
    counts: dict[LinearOrder, int] = {}
    for i in range(samples):
        order = random_linear_order(window, derive_seed(123, "uniformity", i))
        counts[order] = counts.get(order, 0) + 1
    assert len(counts) == 6
    expected = samples / 6
    statistic = sum((c - expected) ** 2 / expected for c in counts.values())
    assert statistic < CHI2_Q999_DF5


# ---------------------------------------------------------------------------
# orbit averages


def pattern_hits(source, pattern, trials, seed):
    """The hits of one pattern, read from the histogram of its window at
    the pattern's place in all_linear_orders."""
    counts = pattern_counts(source, pattern.window, trials, seed)
    return next(h for h, o in zip(counts, all_linear_orders(pattern.window)) if o == pattern)


def test_single_point_window_always_matches():
    source = LinearOrder.natural(Window(tuple(range(10))))
    counts = pattern_counts(source, Window((4,)), trials=500, seed=0)
    assert counts.dtype == np.int64 and counts.tolist() == [500]
    # an empty window reads nothing of the source, which may be empty too
    for ground in (3, 0, LinearOrder.natural(Window(()))):
        counts = pattern_counts(ground, Window(()), trials=10, seed=0)
        assert counts.dtype == np.int64 and counts.tolist() == [10]


def test_orbit_average_converges_to_the_exact_measure():
    ground = Window(tuple(range(50)))
    window = Window(tuple(range(3)))
    trials = 20_000
    tol = 3 * math.sqrt((1 / 6) * (5 / 6) / trials)
    sources = [LinearOrder.natural(ground)] + [
        random_linear_order(ground, s) for s in (11, 12)
    ]
    for source in sources:
        counts = pattern_counts(source, window, trials, seed=7)
        assert len(counts) == 6 and counts.sum() == trials
        for hits in counts.tolist():
            assert abs(Fraction(hits, trials) - Fraction(1, 6)) <= tol


def test_worker_count_does_not_change_the_result(monkeypatch):
    # 25 chunks, the last one short: no worker count here divides them evenly
    monkeypatch.setattr(stats, "CHUNK_SIZE", 1_000)
    source = random_linear_order(Window(tuple(range(30))), 2)
    window = Window(tuple(range(3)))
    serial = pattern_counts(source, window, trials=24_999, seed=5, jobs=1)
    for jobs in (2, 3, 4, 8):
        threaded = pattern_counts(source, window, trials=24_999, seed=5, jobs=jobs)
        assert np.array_equal(serial, threaded), jobs


def test_threaded_chunks_lose_no_update(monkeypatch):
    # more workers than cores, with the CPU count that caps them raised, and
    # a short switch interval, so the workers interleave mid-chunk: each adds
    # into a total of its own and the caller sums them, so no hit may go
    # missing or be counted twice
    monkeypatch.setattr(stats, "CHUNK_SIZE", 100)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    source = random_linear_order(Window(tuple(range(30))), 4)
    window = Window(tuple(range(8)))
    serial = pattern_counts(source, window, trials=20_000, seed=9)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = pattern_counts(source, window, trials=20_000, seed=9, jobs=8)
    finally:
        sys.setswitchinterval(interval)
    assert serial.sum() == 20_000
    assert np.array_equal(serial, threaded)


def test_lehmer_decode_enumerates_the_injections_in_rank_order():
    # itertools.permutations is the reference: position_tuples and the
    # sampler share one slot-major decoder, so comparing the two would check
    # nothing.  The decoder takes and returns (w, m); the tables are (m, w).
    for n in range(1, 9):
        for w in range(1, min(n, 6) + 1):
            expected = np.array(list(itertools.permutations(range(n), w)), dtype=np.intp)
            radices = [range(n - i) for i in range(w)]
            digits = np.array(list(itertools.product(*radices)), dtype=np.int64).T
            assert np.array_equal(core.positions_from_digits(digits).T, expected), (n, w)
            table = core.position_tuples(n, w)
            assert table.dtype == np.intp and np.array_equal(table, expected), (n, w)
        for w in (n + 1, n + 2):
            assert core.position_tuples(n, w).shape == (0, w)


def test_pattern_index_from_digits_is_the_decode_then_the_index():
    # every digit tuple on up to 8 points and 6 slots, in the narrowest
    # chunk dtype and in the int64 that numpy draws
    for n in range(1, 9):
        for w in range(min(n, 6) + 1):
            radices = [range(n - i) for i in range(w)]
            digits = np.array(list(itertools.product(*radices)), dtype=np.int64).T
            want = core.pattern_index(core.positions_from_digits(digits.copy())).tolist()
            for dtype in (np.uint8, np.int64):
                got = core.pattern_index_from_digits(digits.astype(dtype))
                assert got.tolist() == want, (n, w, dtype)


@pytest.mark.parametrize("n", [256, 257, 65_536, 65_537])
@pytest.mark.parametrize("w", [4, 8])
def test_pattern_index_from_digits_at_the_dtype_steps(n, w):
    # sampled digits, cast to the chunk dtype as a natural chunk casts them
    digits = stats._lehmer_digits(n, w, n + w, 5_000).astype(np.min_scalar_type(n - 1))
    want = core.pattern_index(core.positions_from_digits(digits.copy()))
    assert np.array_equal(core.pattern_index_from_digits(digits), want)


def _reference_chunk_counts(source_ranks, w, chunk_seed, count):
    """The chunk histogram by plain Python, sharing no code with core: each
    trial's digits are decoded by popping from the list of free positions,
    and its pattern is looked up in itertools.permutations order."""
    rng = np.random.default_rng(chunk_seed)
    digits = rng.integers(0, len(source_ranks) - np.arange(w), size=(count, w)).tolist()
    index = {p: i for i, p in enumerate(itertools.permutations(range(w)))}
    counts = [0] * len(index)
    for row in digits:
        pool = list(range(len(source_ranks)))
        r = [source_ranks[pool.pop(d)] for d in row]
        counts[index[tuple(sorted(r).index(x) for x in r)]] += 1
    return counts


@pytest.mark.parametrize("w", range(1, 9))
def test_chunk_counts_match_a_pure_python_route(w):
    for n in (w, w + 1, 50):
        for seed in (0, 1, 7):
            ranks = list(range(n))
            random.Random(seed).shuffle(ranks)
            got = stats._chunk_pattern_counts(np.array(ranks), w, seed, 300)
            assert got.tolist() == _reference_chunk_counts(ranks, w, seed, 300), (n, w, seed)


# (ground size, dtype the chunk decodes and compares in) on both sides of
# each step of np.min_scalar_type(n - 1)
DTYPE_BOUNDARIES = [
    (255, np.uint8),
    (256, np.uint8),
    (257, np.uint16),
    (65_535, np.uint16),
    (65_536, np.uint16),
    (65_537, np.uint32),
]


@pytest.mark.parametrize("n, dtype", DTYPE_BOUNDARIES)
@pytest.mark.parametrize("w", [4, 8])
def test_chunk_counts_match_a_pure_python_route_at_the_dtype_boundaries(n, dtype, w):
    # the chunk takes source ranks in any integer dtype: int64, as an order
    # holds them, and the chunk dtype, as pattern_counts passes them; the
    # natural order it takes as the ground size alone.  The reference pops
    # from a list of all n positions per trial, so the large grounds get few
    # trials
    count = 300 if n < 1000 else 20
    assert stats._sample_positions(n, w, 0, 3).dtype == dtype
    for ranks in (list(range(n)), shuffled(n, n)):
        want = _reference_chunk_counts(ranks, w, n + w, count)
        for source_dtype in (np.int64, dtype):
            got = stats._chunk_pattern_counts(np.array(ranks, source_dtype), w, n + w, count)
            assert got.tolist() == want, (n, w, source_dtype)
    got = stats._chunk_pattern_counts(n, w, n + w, count)
    assert got.tolist() == _reference_chunk_counts(list(range(n)), w, n + w, count), (n, w)


@pytest.mark.parametrize("jobs", [1, 3])
@pytest.mark.parametrize("n, w", [(8, 8), (257, 5), (65_537, 4)])
def test_a_ground_size_samples_the_natural_order(n, w, jobs, monkeypatch):
    # five chunks, the last one short, at each side of the dtype steps
    monkeypatch.setattr(stats, "CHUNK_SIZE", 1_000)
    window = Window(range(w))
    natural = LinearOrder.natural(Window(range(n)))
    got = pattern_counts(n, window, 4_500, seed=8, jobs=jobs)
    assert got.dtype == np.int64 and got.sum() == 4_500
    assert np.array_equal(got, pattern_counts(natural, window, 4_500, seed=8, jobs=jobs))


@pytest.mark.parametrize("jobs", [1, 3])
def test_pattern_counts_past_65536_points_sum_the_reference_chunks(jobs, monkeypatch):
    # a shuffled 65,537-point source reaches the chunks as uint32 ranks; with
    # 8-trial chunks the run is three chunks, the last one short
    monkeypatch.setattr(stats, "CHUNK_SIZE", 8)
    n, w, trials = 65_537, 4, 20
    ranks = shuffled(n, 3)
    source = LinearOrder(Window(range(n)), np.array(ranks))
    want = np.zeros(math.factorial(w), dtype=np.int64)
    for i in range(3):
        chunk_seed = derive_seed(6, stats._SAMPLER_LABEL, i)
        want += _reference_chunk_counts(ranks, w, chunk_seed, min(8, trials - 8 * i))
    got = pattern_counts(source, Window(range(w)), trials, seed=6, jobs=jobs)
    assert got.tolist() == want.tolist()


def _integers_digits(n, w, seed, count):
    """The slot-major digits numpy's own bounded draw gives."""
    rng = np.random.default_rng(seed)
    return np.ascontiguousarray(rng.integers(0, n - np.arange(w), size=(count, w)).T)


def _rejected_draws(n, w, seed, count):
    """(trial, slot) of every rejected draw, by walking the 32-bit outputs
    (low, then high half of each 64-bit output) against the bounds in plain
    Python: with bound b, output x is rejected when x b mod 2^32 < 2^32 mod b,
    and a bound of 1 reads no output."""
    words = np.random.PCG64(seed).random_raw(w * count + 64).tolist()
    outputs = iter([half for x in words for half in (x & 0xFFFFFFFF, x >> 32)])
    rejected = []
    for t in range(count):
        for i in range(w):
            b = n - i
            if b == 1:
                continue
            while next(outputs) * b % 2**32 < 2**32 % b:
                rejected.append((t, i))
    return rejected


@pytest.mark.parametrize("w", range(1, 9))
def test_lehmer_digits_equal_numpys_bounded_draw(w):
    for n in (1, 2, w, w + 1, 50, 1000, 65_537, 999_983, 10**6):
        if n < w:
            continue
        for count in (1, 7, 10_000):
            got = stats._lehmer_digits(n, w, 3 * n + count, count)
            want = _integers_digits(n, w, 3 * n + count, count)
            assert got.dtype == want.dtype and np.array_equal(got, want), (n, w, count)


# seeds searched at ground 10^6, where 2^32 mod n is 967,296
REJECTING_SEEDS = [
    # (w, seed, count, rejected draws)
    (4, 2739, 1, [(0, 0)]),  # the first digit of the chunk
    (4, 3314, 7, [(6, 3)]),  # its last digit
    (8, 22, 10_000, [(3794, 3), (3794, 3)]),  # one digit, twice
    (8, 109, 10_000, [(5234, 0), (5234, 2)]),  # two digits of one trial
    # two digits of a chunk of 35 outputs, an odd count, so that one spare
    # output is drawn at _SPARE_OUTPUTS = 1 and the second skip draws more
    (5, 157298, 7, [(1, 3), (6, 3)]),
]


@pytest.mark.parametrize("w, seed, count, expected", REJECTING_SEEDS)
def test_lehmer_digits_follow_rejected_draws(w, seed, count, expected, monkeypatch):
    assert not Counter(expected) - Counter(_rejected_draws(10**6, w, seed, count))
    want = _integers_digits(10**6, w, seed, count)
    assert np.array_equal(stats._lehmer_digits(10**6, w, seed, count), want)
    # the same digits with one or two spare outputs: outputs come in 64-bit
    # pairs, so a chunk of an even count draws two spares either way
    for spare in (2, 1):
        monkeypatch.setattr(stats, "_SPARE_OUTPUTS", spare)
        assert np.array_equal(stats._lehmer_digits(10**6, w, seed, count), want), spare


@pytest.mark.parametrize("n", [10**8, 3 * 10**8])
@pytest.mark.parametrize("w, count", [(5, 9_999), (8, 10_000)])
def test_lehmer_digits_follow_rejected_draws_past_the_spare_outputs(n, w, count):
    # 2^32 mod n is 94,967,296 at both grounds, so about 2 % of the outputs
    # are skipped: over a thousand per chunk, far more than the spare
    # outputs, so the chunk draws more and walks them too
    seed = n + w
    assert len(_rejected_draws(n, w, seed, count)) > 10 * stats._SPARE_OUTPUTS
    want = _integers_digits(n, w, seed, count)
    assert np.array_equal(stats._lehmer_digits(n, w, seed, count), want)


def test_lehmer_digits_scan_the_low_halves_for_rejections():
    # at ground 3*10^8 a digit falls under 2^32 mod n = 94,967,296 about a
    # third of the time, so a one-trial chunk whose only rejected draw is
    # found by the low halves is often missed by a scan of the high halves
    n = 3 * 10**8
    for w in (2, 4):
        for seed in range(200):
            want = _integers_digits(n, w, seed, 1)
            assert np.array_equal(stats._lehmer_digits(n, w, seed, 1), want), (w, seed)


def test_sampling_memory_does_not_grow_with_the_ground():
    source = LinearOrder.natural(Window(tuple(range(100_000))))
    window = Window(tuple(range(4)))
    tracemalloc.start()
    try:
        counts = pattern_counts(source, window, trials=20_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts.sum() == 20_000
    assert peak < 64 * 2**20


@pytest.mark.parametrize("jobs", [1, 2])
def test_chunk_histograms_are_added_as_they_arrive(jobs):
    # 50 chunks of 8! cells: holding every chunk's histogram until the end
    # peaks above 50 of them, adding each as it arrives near one per worker
    source = LinearOrder.natural(Window(tuple(range(50))))
    window = Window(tuple(range(8)))
    tracemalloc.start()
    try:
        counts = pattern_counts(source, window, 50 * stats.CHUNK_SIZE, seed=1, jobs=jobs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts.sum() == 50 * stats.CHUNK_SIZE
    assert peak < 16 * counts.nbytes


def _stub_chunk(source_ranks, w, chunk_seed, count):
    """A chunk histogram with every trial on pattern 0."""
    counts = np.zeros(math.factorial(w), dtype=np.int64)
    counts[0] = count
    return counts


@pytest.mark.parametrize("chunks, jobs", [(500, 2), (7, 3), (3, 8), (7, 0), (7, -1)])
def test_workers_hold_at_most_jobs_chunks(monkeypatch, chunks, jobs):
    # the pool gets one task per worker, min(jobs, chunks) of them, not one
    # per chunk, no more than `jobs` chunks are evaluated at once, and every
    # chunk is evaluated once with its own seed and size.  At jobs 0 or -1
    # no pool is built and the calling thread evaluates every chunk.  The
    # CPU count, which also caps the workers, is set past every `jobs` here
    monkeypatch.setattr(stats, "CHUNK_SIZE", 10)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    trials = chunks * 10 - 3
    lock = threading.Lock()
    running = peak = 0
    evaluated = []
    threads = set()

    def chunk(source_ranks, w, chunk_seed, count):
        nonlocal running, peak
        with lock:
            running += 1
            peak = max(peak, running)
            evaluated.append((chunk_seed, count))
            threads.add(threading.get_ident())
        time.sleep(0)
        with lock:
            running -= 1
        return _stub_chunk(source_ranks, w, chunk_seed, count)

    pools = []
    submitted = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

        def submit(self, fn, /, *args, **kwargs):
            submitted.append(fn)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(stats, "_chunk_pattern_counts", chunk)
    monkeypatch.setattr(stats, "ThreadPoolExecutor", CountingPool)
    source = LinearOrder.natural(Window(range(20)))
    counts = pattern_counts(source, Window(range(3)), trials, seed=4, jobs=jobs)
    if jobs > 1:
        assert len(pools) == 1 and len(submitted) == min(jobs, chunks) and peak <= jobs
    else:
        assert not pools and threads == {threading.get_ident()}
    assert sorted(evaluated) == sorted(
        (derive_seed(4, stats._SAMPLER_LABEL, i), min(10, trials - 10 * i)) for i in range(chunks)
    )
    assert counts[0] == trials and counts.sum() == trials


@pytest.mark.parametrize("cpus", [2, None])
def test_workers_are_at_most_the_cpus(monkeypatch, cpus):
    # 32 jobs on 2 CPUs start 2 worker threads, and a CPU count that
    # `os.cpu_count` cannot tell means 1; the histogram is that of one job
    monkeypatch.setattr(stats, "CHUNK_SIZE", 100)
    source = random_linear_order(Window(tuple(range(30))), 4)
    window = Window(tuple(range(4)))
    serial = pattern_counts(source, window, trials=20_000, seed=9, jobs=1)
    threads = set()
    chunk = stats._chunk_pattern_counts

    def counted(*args):
        threads.add(threading.get_ident())
        return chunk(*args)

    monkeypatch.setattr(stats, "_chunk_pattern_counts", counted)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    threaded = pattern_counts(source, window, trials=20_000, seed=9, jobs=32)
    assert np.array_equal(serial, threaded)
    assert len(threads) <= (cpus or 1)
    if cpus is None:
        assert threads == {threading.get_ident()}


def test_a_failing_chunk_stops_the_workers(monkeypatch):
    # chunk 3 raises: its error reaches the caller, and the other worker
    # stops taking chunks instead of running the remaining ones
    monkeypatch.setattr(stats, "CHUNK_SIZE", 10)
    failing = derive_seed(4, stats._SAMPLER_LABEL, 3)
    evaluated = []

    def chunk(source_ranks, w, chunk_seed, count):
        evaluated.append(chunk_seed)
        if chunk_seed == failing:
            raise RuntimeError("chunk 3 failed")
        time.sleep(1e-3)
        return _stub_chunk(source_ranks, w, chunk_seed, count)

    monkeypatch.setattr(stats, "_chunk_pattern_counts", chunk)
    source = LinearOrder.natural(Window(range(20)))
    with pytest.raises(RuntimeError, match="chunk 3 failed"):
        pattern_counts(source, Window(range(3)), 5_000, seed=4, jobs=2)
    assert failing in evaluated and len(evaluated) < 100


def test_sampler_matches_the_full_action_route():
    ground = Window(tuple(range(12)))
    source = random_linear_order(ground, 5)
    window = Window((0, 1, 2))
    pattern = LinearOrder.from_ranked_elements((1, 2, 0))
    trials = 200
    hits_sampled = pattern_hits(source, pattern, trials, seed=3)
    sampled = stats._sample_positions(
        len(ground), 3, derive_seed(3, stats._SAMPLER_LABEL, 0), trials
    )
    source_config = apply_code(sign_code(2), source)
    target_config = apply_code(sign_code(2), pattern)
    hits = 0
    for row in sampled.T:
        points = [ground.elements[p] for p in row]
        alpha = extend_bijection(dict(zip(points, window.elements)))
        if apply_perm(alpha, source_config, window=window) == target_config:
            hits += 1
    assert hits_sampled == hits


def test_orbit_average_validation():
    source = LinearOrder.natural(Window((0, 1)))
    pattern = LinearOrder.natural(Window((0, 1, 2)))
    for ground in (source, 2):
        with pytest.raises(GroundTooSmall, match="^ground size 2 below the window size 3$"):
            pattern_counts(ground, pattern.window, trials=10, seed=0)
    for ground in (pattern, 3):
        with pytest.raises(ValueError):
            pattern_counts(ground, pattern.window, trials=0, seed=0)


def test_pattern_stat_validation():
    pattern = LinearOrder.natural(Window((0, 1)))
    with pytest.raises(ValueError):
        PatternStat(pattern, Fraction(1, 3), Fraction(0), 10, 0)
    with pytest.raises(ValueError):
        PatternStat(pattern, Fraction(1, 2), Fraction(3, 2), 10, 0)
    with pytest.raises(ValueError):
        PatternStat(pattern, Fraction(1, 2), Fraction(0), 0, 0)
    with pytest.raises(ValueError, match="hit count"):
        PatternStat(pattern, Fraction(1, 2), Fraction(1, 3), 10, 0)


# ---------------------------------------------------------------------------
# serialization


def test_stat_dict_round_trip():
    source = LinearOrder.natural(Window(tuple(range(10))))
    window = Window(tuple(range(3)))
    counts = pattern_counts(source, window, trials=1_000, seed=4)
    rows = histogram_to_dicts(counts, window, seed=4)
    texts = [row["pattern"] for row in rows]
    assert texts == [order_to_text(o) for o in all_linear_orders(window)]
    pattern = LinearOrder.from_ranked_elements((2, 0, 1))
    i = texts.index("2 0 1")
    data = rows[i]
    assert data == {
        "pattern": "2 0 1",
        "window": "0,1,2",
        "exact_num": 1,
        "exact_den": 6,
        "empirical": float(Fraction(int(counts[i]), 1_000)),
        "trials": 1_000,
        "seed": 4,
    }
    rebuilt = stat_from_dict(json.loads(json.dumps(data)))
    hits = pattern_hits(source, pattern, 1_000, seed=4)
    assert rebuilt == PatternStat(pattern, Fraction(1, 6), Fraction(int(hits), 1_000), 1_000, 4)


def test_stat_dict_rebuilds_the_exact_frequency():
    window = Window(tuple(range(3)))
    counts = np.array([40, 42, 43, 41, 44, 40])
    data = histogram_to_dicts(counts, window, seed=0)[3]
    assert data["pattern"] == "2 0 1" and data["trials"] == 250
    rebuilt = stat_from_dict(json.loads(json.dumps(data)))
    assert rebuilt.empirical == Fraction(41, 250)
    assert rebuilt == PatternStat(
        LinearOrder.from_ranked_elements((2, 0, 1)), Fraction(1, 6), Fraction(41, 250), 250, 0
    )
    data["empirical"] = 0.1641  # no hit count over 250 trials gives this
    with pytest.raises(FormatError, match="hit count"):
        stat_from_dict(data)


def test_histogram_records_past_int64_read_back():
    window = Window((-3, 10**30))
    rows = histogram_to_dicts(np.array([3, 5]), window, seed=2)
    assert [row["pattern"] for row in rows] == [f"-3 {10**30}", f"{10**30} -3"]
    rebuilt = [stat_from_dict(json.loads(json.dumps(row))) for row in rows]
    assert [stat.pattern for stat in rebuilt] == list(all_linear_orders(window))
    assert [stat.empirical for stat in rebuilt] == [Fraction(3, 8), Fraction(5, 8)]


def test_stat_from_dict_rejects_non_rows_with_format_error():
    row = histogram_to_dicts(np.array([1, 1]), Window((0, 1)), seed=0)[0]
    for bad in (None, [], {**row, "pattern": None}):
        with pytest.raises(FormatError):
            stat_from_dict(bad)


@pytest.mark.parametrize(
    "field, value",
    [("exact_num", 1.9), ("exact_den", 2.7), ("trials", "10"), ("trials", 10.9), ("seed", True)],
)
def test_stat_from_dict_requires_json_integers(field, value):
    row = histogram_to_dicts(np.array([5, 5]), Window((0, 1)), seed=1)[0]
    assert stat_from_dict(row).trials == 10
    with pytest.raises(FormatError, match=f"^bad pattern stat: {field} must be an integer, got "):
        stat_from_dict({**row, field: value})


@pytest.mark.parametrize(
    "change, message",
    [
        ({"seed": None}, "missing field 'seed'"),
        ({"exact_den": 0}, "exact_den must be positive, got 0"),
        ({"exact_den": 5}, "exact measure must be 1/3!"),
        ({"empirical": "0.05"}, "empirical must be a number, got '0.05'"),
        ({"empirical": float("nan")}, "empirical nan is not finite"),
        ({"empirical": float("inf")}, "empirical inf is not finite"),
        ({"trials": 0}, "trials must be positive, got 0"),
        ({"trials": -3}, "trials must be positive, got -3"),
        ({"window": "0,1,3"}, "pattern and window fields disagree"),
        # past the float range: at most 40 digits of a huge value are quoted
        ({"empirical": 1e308, "trials": 10},
         "empirical frequency out of [0, 1]: 1000000000000000010979063629440455417404"
         "... (309 characters)"),
        ({"empirical": 10**400},
         f"empirical frequency out of [0, 1]: 1{'0' * 39}... (401 characters)"),
        ({"trials": -(10**400)}, f"trials must be positive, got -1{'0' * 38}... (402 characters)"),
        ({"window": 2**1100}, f"window must be text, got {str(2**1100)[:40]}... (332 characters)"),
    ],
    ids=["missing", "den-0", "exact-1/5", "text", "nan", "inf", "trials-0", "trials--3", "window",
         "empirical-1e308", "empirical-10^400", "trials--10^400", "window-2^1100"],
)
def test_stat_from_dict_says_what_is_wrong(change, message):
    # a None value stands for a missing field
    row = histogram_to_dicts(np.ones(6, dtype=np.int64), Window((0, 1, 2)), seed=0)[0]
    assert stat_from_dict(row).trials == 6
    bad = {key: value for key, value in {**row, **change}.items() if value is not None}
    with pytest.raises(FormatError, match=f"^{re.escape('bad pattern stat: ' + message)}$"):
        stat_from_dict(bad)


def test_stat_from_dict_recovers_hits_past_the_float_range():
    # empirical * trials overflows a float at these trials; the reader
    # multiplies in exact rationals and recovers each hit count exactly
    row = histogram_to_dicts(np.ones(2, dtype=np.int64), Window((0, 1)), seed=0)[0]
    cases = [(2**1100, 0.5, 2**1099), (10**400, 0.25, 25 * 10**398), (2**1100, 2.0**-1074, 2**26)]
    for trials, empirical, hits in cases:
        record = json.loads(json.dumps({**row, "trials": trials, "empirical": empirical}))
        stat = stat_from_dict(record)
        assert (stat.trials, stat.empirical) == (trials, Fraction(hits, trials))


#: JSON scalars, the values past the float range and the non-finite floats among them.
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=20),
    st.sampled_from([2**1100, -(2**1100), 10**400, 1e308, -1e308, 5e-324, math.nan, math.inf]),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["pattern", "window", "exact_num", "exact_den", "empirical", "trials",
                        "seed"]), json_scalars)
def test_a_record_with_any_scalar_field_reads_back_or_raises_format_error(field, value):
    row = histogram_to_dicts(np.arange(1, 7), Window((0, 1, 2)), seed=0)[2]
    try:
        stat_from_dict({**row, field: value})
    except FormatError as exc:
        assert len(str(exc)) < 160


def test_histogram_to_dicts_rejects_empty_or_misshapen_histograms():
    with pytest.raises(ValueError, match=r"^need 2! cells holding trials, got 2 holding 0$"):
        histogram_to_dicts(np.zeros(2, dtype=np.int64), Window((0, 1)), seed=0)
    with pytest.raises(ValueError, match=r"^need 3! cells holding trials, got 2 holding 5$"):
        histogram_to_dicts(np.array([2, 3]), Window((0, 1, 2)), seed=0)
    with pytest.raises(ValueError, match="^need at least two patterns, got 1$"):
        stats.fit_summary(np.array([5]))


@st.composite
def histograms(draw):
    """(window, counts, seed): a window of 1..5 points anywhere on the line
    and one count per pattern on it, at least one of them positive."""
    w = draw(st.integers(1, 5))
    window = Window.of(draw(st.sets(st.integers(-50, 50), min_size=w, max_size=w)))
    cells = math.factorial(w)
    counts = draw(st.lists(st.integers(0, 10**6), min_size=cells, max_size=cells))
    counts[draw(st.integers(0, cells - 1))] += draw(st.integers(1, 10**6))
    return window, np.array(counts, dtype=np.int64), draw(st.integers(-(2**63), 2**63))


@settings(max_examples=60, deadline=None)
@given(histograms())
def test_histogram_records_read_back_to_their_patterns(histogram):
    window, counts, seed = histogram
    trials = int(counts.sum())
    rows = histogram_to_dicts(counts, window, seed)
    assert len(rows) == len(counts)
    for row, hits, pattern in zip(rows, counts.tolist(), all_linear_orders(window)):
        for key in ("exact_num", "exact_den", "trials", "seed"):
            assert type(row[key]) is int, key
        assert type(row["empirical"]) is float
        rebuilt = stat_from_dict(json.loads(json.dumps(row)))
        assert rebuilt.pattern == pattern
        assert rebuilt.exact == Fraction(1, len(counts))
        assert rebuilt.empirical == Fraction(hits, trials)
        assert (rebuilt.trials, rebuilt.seed) == (trials, seed)
        # one ulp off the stored float is no hit count over the trials
        off = {**row, "empirical": math.nextafter(row["empirical"], math.inf)}
        with pytest.raises(FormatError, match="hit count"):
            stat_from_dict(off)
