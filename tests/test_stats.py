import json
import math
from fractions import Fraction

import pytest

from orderflow import (
    DegenerateWindow,
    FinPerm,
    FormatError,
    GroundTooSmall,
    LinearOrder,
    PatternStat,
    Window,
    all_linear_orders,
    apply_perm,
    cylinder_measure,
    derive_seed,
    extend_bijection,
    lin_order_to_config2,
    orbit_average,
    orbit_average_all,
    random_linear_order,
    relabel,
    stat_from_dict,
    stat_to_dict,
)
from orderflow import stats

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


def test_cylinder_mass_is_exactly_one():
    for n in range(1, 7):
        window = Window(tuple(range(n)))
        mass = sum(cylinder_measure(o) for o in all_linear_orders(window))
        assert mass == 1
        assert isinstance(mass, Fraction) or mass == 1


def test_cylinder_measure_is_relabeling_invariant():
    pattern = LinearOrder.from_ranked_elements((2, 0, 1))
    alpha = FinPerm.from_dict({0: 10, 1: 20, 2: 30, 10: 0, 20: 1, 30: 2})
    assert cylinder_measure(relabel(pattern, alpha)) == cylinder_measure(pattern)


def test_cylinder_measure_rejects_empty_window():
    with pytest.raises(DegenerateWindow):
        cylinder_measure(LinearOrder(Window(()), ()))


# ---------------------------------------------------------------------------
# uniform sampling


def test_random_order_is_deterministic_in_the_seed():
    window = Window(tuple(range(6)))
    assert random_linear_order(window, 17) == random_linear_order(window, 17)
    assert random_linear_order(Window((5,)), 0) == LinearOrder.natural(Window((5,)))


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


def test_single_point_window_always_matches():
    source = LinearOrder.natural(Window(tuple(range(10))))
    pattern = LinearOrder.natural(Window((4,)))
    stat = orbit_average(source, pattern, trials=500, seed=0)
    assert stat.empirical == 1


def test_orbit_average_converges_to_the_exact_measure():
    ground = Window(tuple(range(50)))
    window = Window(tuple(range(3)))
    trials = 20_000
    tol = 3 * math.sqrt((1 / 6) * (5 / 6) / trials)
    sources = [LinearOrder.natural(ground)] + [
        random_linear_order(ground, s) for s in (11, 12)
    ]
    for source in sources:
        results = orbit_average_all(source, window, trials, seed=7)
        assert sum(s.empirical for s in results) == 1
        for s in results:
            assert abs(s.empirical - Fraction(1, 6)) <= tol


def test_per_pattern_call_shares_the_sample_stream():
    source = LinearOrder.natural(Window(tuple(range(20))))
    window = Window(tuple(range(3)))
    bundle = orbit_average_all(source, window, trials=5_000, seed=3)
    for stat, pattern in zip(bundle, all_linear_orders(window)):
        alone = orbit_average(source, pattern, trials=5_000, seed=3)
        assert alone.empirical == stat.empirical


def test_worker_count_does_not_change_the_result():
    source = random_linear_order(Window(tuple(range(30))), 2)
    window = Window(tuple(range(3)))
    serial = orbit_average_all(source, window, trials=25_000, seed=5, jobs=1)
    threaded = orbit_average_all(source, window, trials=25_000, seed=5, jobs=4)
    assert [s.empirical for s in serial] == [s.empirical for s in threaded]


def test_sampler_matches_the_full_action_route():
    ground = Window(tuple(range(12)))
    source = random_linear_order(ground, 5)
    window = Window((0, 1, 2))
    pattern = LinearOrder.from_ranked_elements((1, 2, 0))
    trials = 200
    stat = orbit_average(source, pattern, trials, seed=3)
    sampled = stats._sample_positions(
        len(ground), 3, derive_seed(3, stats._SAMPLER_LABEL, 0), trials
    )
    source_config = lin_order_to_config2(source)
    target_config = lin_order_to_config2(pattern)
    hits = 0
    for row in sampled:
        points = [ground.elements[p] for p in row]
        alpha = extend_bijection(dict(zip(points, window.elements)))
        if apply_perm(alpha, source_config, window=window) == target_config:
            hits += 1
    assert stat.empirical == Fraction(hits, trials)


def test_orbit_average_validation():
    source = LinearOrder.natural(Window((0, 1)))
    pattern = LinearOrder.natural(Window((0, 1, 2)))
    with pytest.raises(GroundTooSmall):
        orbit_average(source, pattern, trials=10, seed=0)
    with pytest.raises(ValueError):
        orbit_average(pattern, pattern, trials=0, seed=0)


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
    stat = orbit_average(
        source, LinearOrder.from_ranked_elements((2, 0, 1)), trials=1_000, seed=4
    )
    data = stat_to_dict(stat)
    assert set(data) == {
        "pattern",
        "window",
        "exact_num",
        "exact_den",
        "empirical",
        "trials",
        "seed",
    }
    assert data["pattern"] == "2 0 1"
    assert data["window"] == "0,1,2"
    assert data["exact_num"] == 1 and data["exact_den"] == 6
    rebuilt = stat_from_dict(json.loads(json.dumps(data)))
    assert stat_to_dict(rebuilt) == data
    assert rebuilt.pattern == stat.pattern
    assert rebuilt.exact == stat.exact
    assert rebuilt == stat


def test_stat_dict_rebuilds_the_exact_frequency():
    pattern = LinearOrder.from_ranked_elements((2, 0, 1))
    stat = PatternStat(pattern, Fraction(1, 6), Fraction(41, 250), 250, 0)
    rebuilt = stat_from_dict(json.loads(json.dumps(stat_to_dict(stat))))
    assert rebuilt.empirical == Fraction(41, 250)
    assert rebuilt == stat
    data = stat_to_dict(stat)
    data["empirical"] = 0.1641  # no hit count over 250 trials gives this
    with pytest.raises(FormatError, match="hit count"):
        stat_from_dict(data)


def test_stat_from_dict_rejects_non_rows_with_format_error():
    row = stat_to_dict(
        PatternStat(LinearOrder.natural(Window((0, 1))), Fraction(1, 2), Fraction(1, 2), 2, 0)
    )
    for bad in (None, [], {**row, "pattern": None}):
        with pytest.raises(FormatError):
            stat_from_dict(bad)
