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


# (check at a small budget, module, attribute, broken replacement given the
# original, exception the check raises once the fault is planted)
PLANTED = {
    "bijection-roundtrip": (
        lambda: checks.bijection_round_trip((2, 3)),
        orders, "config2_to_order", lambda f: lambda c: orders.reverse(f(c)), AssertionError,
    ),
    "action-laws": (
        lambda: checks.action_laws(random.Random(0), 10, max_points=4),
        core, "compose", lambda f: lambda a, b: f(b, a), AssertionError,
    ),
    "sign-code-alternation": (
        lambda: checks.sign_code_alternation(
            random.Random(0), (2, 3), exhaustive_to=3, sampled_points=4, samples=2
        ),
        core, "is_alternating", lambda f: lambda c: False, AssertionError,
    ),
    "moment-curve-sign": (
        lambda: checks.moment_curve_sign(random.Random(0), (2, 3), 5),
        codes, "moment_curve_orientation", lambda f: lambda ts: 1, AssertionError,
    ),
    "circular-order-count": (
        lambda: checks.circular_image_counts((3, 4)),
        orders, "is_circular_realizable", lambda f: lambda c: False, AssertionError,
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
    "ramsey-mono-subset": (
        lambda: checks.ramsey_extraction(random.Random(0), 4, 64, 3),
        ramsey, "ramsey_mono_subset", lambda f: lambda c, m: c.ground.elements[:m], AssertionError,
    ),
    "minimality-witnesses": (
        lambda: checks.minimality_witnesses([stats.random_linear_order(window(8), 0)], window(2)),
        ramsey, "verify_minimality", lambda f: lambda *a: False, RuntimeError,
    ),
    "proximality-witnesses": (
        lambda: checks.proximality_witnesses(
            [(stats.random_linear_order(window(16), 0), stats.random_linear_order(window(16), 1))],
            window(2),
        ),
        ramsey, "verify_proximality", lambda f: lambda *a: False, RuntimeError,
    ),
    "cylinder-mass": (
        lambda: checks.cylinder_mass((1, 2)),
        stats, "cylinder_measure", lambda f: lambda pattern: Fraction(1, 7), AssertionError,
    ),
    "orbit-average": (
        lambda: checks.orbit_frequencies([LinearOrder.natural(window(10))], window(3), 600, 0),
        stats, "_pattern_counts", lambda f: _one_pattern_takes_every_hit, AssertionError,
    ),
}


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_check_catches_its_planted_fault(name, monkeypatch):
    call, module, attr, broken, raised = PLANTED[name]
    call()  # passes on the real function
    monkeypatch.setattr(module, attr, broken(getattr(module, attr)))
    with pytest.raises(raised):
        call()


def test_require_raises_with_lazy_message():
    checks.require(True, "never formatted %d", "not a number")
    with pytest.raises(AssertionError, match="^bad 3 of 4$"):
        checks.require(False, "bad %d of %d", 3, 4)
    with pytest.raises(AssertionError, match="^100% off$"):
        checks.require(False, "100% off")
