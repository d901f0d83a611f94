"""Each invariant check catches a planted fault in the function it checks."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from orderflow import LinearOrder, Window, checks, codes, core, orders, ramsey, stats


def window(n: int) -> Window:
    return Window(tuple(range(n)))


def _one_pattern_takes_every_hit(source, window, trials, seed, jobs=1):
    counts = np.zeros(math.factorial(len(window)), dtype=np.int64)
    counts[0] = trials
    return counts


def _reversed_candidates(decode):
    def broken(k, values, n):
        ranks, ok = decode(k, values, n)
        return n - 1 - ranks, ok

    return broken


# (check at a small budget, module, attribute, broken replacement given the
# original, exception the check raises once the fault is planted)
PLANTED = {
    "bijection-roundtrip": (
        lambda: checks.bijection_round_trip((2, 3)),
        codes, "decode", _reversed_candidates, AssertionError,
    ),
    "action-laws": (
        lambda: checks.action_laws(random.Random(0), 10, max_points=4),
        core, "compose", lambda f: lambda a, b: f(b, a), AssertionError,
    ),
    "sign-code-alternation": (
        lambda: checks.sign_code_alternation((2, 3), 4),
        core, "is_alternating", lambda f: lambda c: False, AssertionError,
    ),
    "moment-curve-sign": (
        lambda: checks.moment_curve_sign(random.Random(0), (2, 3), 5),
        codes, "moment_curve_orientation", lambda f: lambda ts: 1, AssertionError,
    ),
    "circular-order-count": (
        lambda: checks.circular_image_counts((3, 4)),
        codes, "decode",
        lambda f: lambda k, values, n: (f(k, values, n)[0], np.zeros(len(values), dtype=bool)),
        AssertionError,
    ),
    "code-equivariance": (
        lambda: checks.code_equivariance(
            random.Random(0), ("sign-2", "circular"), 5, max_points=5
        ),
        orders, "relabel", lambda f: lambda order, alpha: order, AssertionError,
    ),
    "reversal-structure": (
        lambda: checks.reversal_structure((2, 3)),
        orders, "reverse", lambda f: lambda order: order, AssertionError,
    ),
    "minimality-witnesses": (
        lambda: checks.minimality_witnesses([stats.random_linear_order(window(8), 0)], window(2)),
        ramsey, "verify_minimality", lambda f: lambda *a: False, AssertionError,
    ),
    "proximality-witnesses": (
        lambda: checks.proximality_witnesses(
            [(stats.random_linear_order(window(16), 0), stats.random_linear_order(window(16), 1))],
            window(2),
        ),
        ramsey, "verify_proximality", lambda f: lambda *a: False, AssertionError,
    ),
    "cylinder-mass": (
        lambda: checks.cylinder_mass((1, 2)),
        stats, "cylinder_measure", lambda f: lambda pattern: Fraction(1, 7), AssertionError,
    ),
    "orbit-average": (
        lambda: checks.orbit_frequencies([LinearOrder.natural(window(10))], window(3), 600, 0),
        stats, "pattern_counts", lambda f: _one_pattern_takes_every_hit, AssertionError,
    ),
}


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_check_catches_its_planted_fault(name, monkeypatch):
    call, module, attr, broken, raised = PLANTED[name]
    call()  # passes on the real function
    monkeypatch.setattr(module, attr, broken(getattr(module, attr)))
    with pytest.raises(raised):
        call()


def test_action_laws_names_the_configuration_the_identity_moved(monkeypatch):
    # the identity alone negates, so the composition law still holds, and
    # the one-line message names the arity and window of the moved
    # configuration
    apply_perm = core.apply_perm

    def identity_negates(alpha, config):
        moved = apply_perm(alpha, config)
        return core.negate(moved) if alpha == core.FinPerm.identity() else moved

    checks.action_laws(random.Random(0), 10, max_points=4)
    monkeypatch.setattr(core, "apply_perm", identity_negates)
    with pytest.raises(AssertionError, match=r"^identity moved the 3-configuration on 0,1,2,3$"):
        checks.action_laws(random.Random(0), 10, max_points=4)


def test_circular_image_counts_catches_a_wrong_multiplicity(monkeypatch):
    # the first order of a block takes the last order's image: every image
    # is still realizable and their count is still (n-1)!, but on 3 points
    # one image now has 4 orders and the other 2
    images = codes.images

    def first_takes_last(code, ranks):
        values = images(code, ranks)
        if values.ndim == 2:
            values[0] = values[-1]
        return values

    checks.circular_image_counts((3, 4))
    monkeypatch.setattr(codes, "images", first_takes_last)
    with pytest.raises(AssertionError, match=r"^multiplicities \[2, 4\], not 3$"):
        checks.circular_image_counts((3, 4))


def test_proximality_witnesses_verifies_the_reverse_pair_witness(monkeypatch):
    # with o2 == o1 every given pair gets an agree witness, so a verifier
    # refusing only the reverse kind fails the reverse-pair witness alone
    verify = ramsey.verify_proximality
    o1 = stats.random_linear_order(window(16), 0)
    checks.proximality_witnesses([(o1, o1)], window(3))
    calls = []

    def refuses_reverse(witness, *orders):
        calls.append(witness.kind)
        return witness.kind != ramsey.PROXIMALITY_REVERSE and verify(witness, *orders)

    monkeypatch.setattr(ramsey, "verify_proximality", refuses_reverse)
    with pytest.raises(AssertionError, match="^proximality witness fails$"):
        checks.proximality_witnesses([(o1, o1)], window(3))
    assert calls == [ramsey.PROXIMALITY_AGREE, ramsey.PROXIMALITY_REVERSE]


def test_reversal_structure_catches_a_class_map_onto_another_class(monkeypatch):
    # the class of the order with window positions 0 and 1 swapped: still
    # constant on each class {order, reverse(order)}, with fibers of size 2,
    # but on 3 points or more the representative is in neither order's class
    rep = orders.reversal_class_rep

    def swapped_class(order):
        ranks = order.ranks.copy()
        ranks[[0, 1]] = ranks[[1, 0]]
        return rep(LinearOrder(order.window, ranks))

    checks.reversal_structure((2, 3))
    monkeypatch.setattr(orders, "reversal_class_rep", swapped_class)
    checks.reversal_structure((2,))  # on 2 points the swap is the reversal
    with pytest.raises(AssertionError, match="^0 1 2 and its reverse are not one class$"):
        checks.reversal_structure((2, 3))


def test_counting_checks_count_what_they_checked():
    assert checks.bijection_round_trip(range(2, 4)) == 2 + 6
    assert checks.sign_code_alternation((2, 3), 4) == (2 + 6 + 24) + (6 + 24)
    assert checks.circular_image_counts(range(3, 5)) == 2 + 6
    assert checks.reversal_structure(range(2, 4)) == 2 + 6
    # empty budgets check nothing and say so
    assert checks.bijection_round_trip(range(2, 2)) == 0
    assert checks.sign_code_alternation((2, 3, 4), 1) == 0
    assert checks.circular_image_counts(range(3, 3)) == 0
    assert checks.reversal_structure(range(2, 2)) == 0


def test_require_raises_with_lazy_message():
    checks.require(True, "never formatted %d", "not a number")
    with pytest.raises(AssertionError, match="^bad 3 of 4$"):
        checks.require(False, "bad %d of %d", 3, 4)
    with pytest.raises(AssertionError, match="^100% off$"):
        checks.require(False, "100% off")


def test_orbit_frequencies_names_the_first_pattern_off_its_measure(monkeypatch):
    # cell 3 of the 3-window is the order listing 2 0 1
    skewed = np.array([100, 100, 100, 160, 40, 100])
    monkeypatch.setattr(stats, "pattern_counts", lambda *args: skewed)
    message = r"^pattern 2 0 1: \|0\.26667 - 1/6\| above 3\.51 sigma$"
    with pytest.raises(AssertionError, match=message):
        checks.orbit_frequencies([LinearOrder.natural(window(10))], window(3), 600, 0)
    monkeypatch.setattr(stats, "pattern_counts", lambda *args: skewed[:5])
    with pytest.raises(AssertionError, match=r"^5 cells holding 500 hits$"):
        checks.orbit_frequencies([LinearOrder.natural(window(10))], window(3), 600, 0)


def test_orbit_frequencies_fails_a_small_injected_bias(monkeypatch):
    # 200 of 20,000 hits moved from pattern 4 to pattern 3 of a real
    # histogram: 1 % of the trials, 3.75 sigma on the cell that gains them,
    # past the 3.51 of six cells
    source, sample = LinearOrder.natural(window(50)), stats.pattern_counts
    checks.orbit_frequencies([source], window(3), 20_000, 0)

    def biased(*args):
        counts = sample(*args).copy()
        counts[[3, 4]] += [200, -200]
        return counts

    monkeypatch.setattr(stats, "pattern_counts", biased)
    message = r"^pattern 2 0 1: \|0\.17655 - 1/6\| above 3\.51 sigma$"
    with pytest.raises(AssertionError, match=message):
        checks.orbit_frequencies([source], window(3), 20_000, 0)


@pytest.mark.parametrize("seed", [1, 163, 249])
def test_orbit_frequencies_passes_seeds_with_one_cell_past_3_sigma(seed):
    # the histograms `verify --seed S` draws for these S at its default
    # 20,000 trials: one of the six cells lies 3.1 to 3.4 sigma off, past a
    # 3-sigma test of that cell alone
    source = LinearOrder.natural(window(50))
    max_z = stats.fit_summary(stats.pattern_counts(source, window(3), 20_000, seed))[2]
    assert 3 < max_z < 3.5
    checks.orbit_frequencies([source], window(3), 20_000, seed)


def test_orbit_frequencies_tests_the_cells_at_one_3_sigma_level():
    # at seed 29 a cell lies 3.59 sigma off, which one of six cells does in
    # about 0.2 % of runs, below the 0.27 % the check allows, so it fails
    source = LinearOrder.natural(window(50))
    with pytest.raises(AssertionError, match=r"^pattern 2 1 0: .* above 3\.51 sigma$"):
        checks.orbit_frequencies([source], window(3), 20_000, 29)
