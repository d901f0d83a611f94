"""The invariant checks behind `orderflow verify` and the acceptance tests.

One function per invariant.  Each takes its budget from the caller (counts,
window sizes, a `random.Random`, or the orders to check) and raises
`AssertionError` through `require` on the first violation, so the checks
also run under `python -O`.  Functions that count what they checked return
the count.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Sequence
from fractions import Fraction

from . import codes, core, orders, ramsey, stats
from .core import FinPerm, KConfig, Window
from .orders import LinearOrder


def require(ok: bool, message: str, *args: object) -> None:
    """Raise AssertionError(message % args) unless ok; format only on failure."""
    if not ok:
        raise AssertionError(message % args if args else message)


def _window(n: int) -> Window:
    return Window(tuple(range(n)))


def _random_perm(window: Window, rng: random.Random) -> FinPerm:
    elems = list(window)
    images = elems[:]
    rng.shuffle(images)
    return FinPerm.from_dict(dict(zip(elems, images)))


def bijection_round_trip(sizes: Iterable[int]) -> int:
    """Every order's pair configuration (its sign-2 image) is recognized and
    decodes back to it: one `codes.realize` call checks both.

    Returns the number of orders checked."""
    pair_code = codes.sign_code(2)
    total = 0
    for n in sizes:
        for order in orders.all_linear_orders(_window(n)):
            decoded = codes.realize(codes.apply_code(pair_code, order))
            require(decoded == order, "round trip broke %s", order)
            total += 1
    return total


def action_laws(rng: random.Random, triples: int, max_points: int) -> None:
    """The identity acts trivially and (alpha beta) c = alpha (beta c), on
    random sign configurations of arity 2 or 3 and window permutations."""
    for _ in range(triples):
        k = rng.choice((2, 3))
        window = _window(rng.randint(k, max_points))
        config = KConfig.from_function(k, window, lambda t: rng.choice((1, -1)))
        alpha = _random_perm(window, rng)
        beta = _random_perm(window, rng)
        require(core.apply_perm(FinPerm.identity(), config) == config, "identity moved %s", config)
        lhs = core.apply_perm(core.compose(alpha, beta), config)
        rhs = core.apply_perm(alpha, core.apply_perm(beta, config))
        require(lhs == rhs, "composition law failed")


def sign_code_alternation(
    rng: random.Random,
    arities: Sequence[int],
    exhaustive_to: int,
    sampled_points: int,
    samples: int,
) -> int:
    """Sign-code images alternate: on every order of k..exhaustive_to points,
    then on `samples` random orders of `sampled_points` points, per arity.

    Returns the number of images checked."""
    total = 0
    for k in arities:
        code = codes.sign_code(k)
        pool = [
            order
            for n in range(k, exhaustive_to + 1)
            for order in orders.all_linear_orders(_window(n))
        ] + [
            stats.random_linear_order(_window(sampled_points), rng.getrandbits(48))
            for _ in range(samples)
        ]
        for order in pool:
            require(
                core.is_alternating(codes.apply_code(code, order)),
                "sign-%d image of %s not alternating", k, order,
            )
        total += len(pool)
    return total


def moment_curve_sign(rng: random.Random, arities: Sequence[int], per_arity: int) -> None:
    """The orientation of distinct rationals on the moment curve is the sign
    of the permutation sorting them, and +1 once they are sorted."""
    for k in arities:
        for _ in range(per_arity):
            ts: list[Fraction] = []
            while len(ts) < k:
                t = Fraction(rng.randint(-90, 90), rng.randint(1, 16))
                if t not in ts:
                    ts.append(t)
            inversions = sum(1 for i in range(k) for j in range(i + 1, k) if ts[i] > ts[j])
            expected = -1 if inversions % 2 else 1
            require(codes.moment_curve_orientation(ts) == expected, "sign mismatch at %s", ts)
            require(codes.moment_curve_orientation(sorted(ts)) == 1, "sorted %s not +1", ts)


def circular_image_counts(sizes: Iterable[int]) -> int:
    """On n points the circular code, sign-3, has (n-1)! images, each realizable.

    Returns the number of images checked."""
    circular = codes.sign_code(3)
    total = 0
    for n in sizes:
        images = {codes.apply_code(circular, o) for o in orders.all_linear_orders(_window(n))}
        expected = math.factorial(n - 1)
        require(
            len(images) == expected,
            "expected %d circular images on %d, got %d", expected, n, len(images),
        )
        for image in images:
            require(codes.realize(image) is not None, "image %s not realizable", image)
        total += len(images)
    return total


def code_equivariance(
    rng: random.Random, code_names: Sequence[str], per_code: int, max_points: int
) -> None:
    """Each named code (`circular` or `sign-K`) commutes with relabelling by
    a random window permutation, on random orders."""
    for name in code_names:
        code = codes.code_from_name(name)
        for _ in range(per_code):
            window = _window(rng.randint(code.k, max_points))
            order = stats.random_linear_order(window, rng.getrandbits(48))
            alpha = _random_perm(window, rng)
            lhs = codes.apply_code(code, orders.relabel(order, alpha))
            rhs = core.apply_perm(alpha, codes.apply_code(code, order))
            require(lhs == rhs, "%s does not commute with the action", name)


def reversal_structure(sizes: Iterable[int]) -> int:
    """Reversal is a fixed-point-free involution that negates the pair
    configuration, and its classes are fibers of size 2 of the class map.

    Returns the number of orders checked."""
    pair_code = codes.sign_code(2)
    total = 0
    for n in sizes:
        fibers: dict[LinearOrder, set[LinearOrder]] = {}
        for order in orders.all_linear_orders(_window(n)):
            rev = orders.reverse(order)
            require(rev != order, "reversal must move every order")
            require(orders.reverse(rev) == order, "reversal of %s is not an involution", order)
            require(
                codes.apply_code(pair_code, rev)
                == core.negate(codes.apply_code(pair_code, order)),
                "reversal of %s does not negate its pair configuration", order,
            )
            rep = orders.reversal_class_rep(order)
            require(
                rep == orders.reversal_class_rep(rev), "%s and its reverse differ in class", order
            )
            fibers.setdefault(rep, set()).add(order)
        require(all(len(f) == 2 for f in fibers.values()), "reversal fiber not of size 2 on %d", n)
        total += 2 * len(fibers)
    return total


def ramsey_extraction(rng: random.Random, colorings: int, ground_size: int, m: int) -> None:
    """On random 2-colorings of pairs, extraction returns m points forming a
    monochromatic set, and the same set on a second call."""
    ground = _window(ground_size)
    for _ in range(colorings):
        coloring = ramsey.PairColoring.from_function(ground, lambda a, b: rng.randint(0, 1))
        subset = ramsey.ramsey_mono_subset(coloring, m)
        require(len(subset) == m, "expected %d points, got %d", m, len(subset))
        require(ramsey.is_monochromatic(coloring, subset), "%s not monochromatic", subset)
        require(subset == ramsey.ramsey_mono_subset(coloring, m), "not deterministic")


def minimality_witnesses(sources: Iterable[LinearOrder], window: Window) -> int:
    """Every target order on the window has a witness inside every source,
    and the witness re-verifies.  Returns the number of witnesses."""
    produced = 0
    for source in sources:
        for target in orders.all_linear_orders(window):
            witness = ramsey.minimality_witness(source, target)
            require(
                ramsey.verify_minimality(witness, source, target), "witness for %s fails", target
            )
            produced += 1
    return produced


def proximality_witnesses(
    pairs: Sequence[tuple[LinearOrder, LinearOrder]], window: Window
) -> None:
    """Every pair has a re-verifying proximality witness on the window, and
    the first order against its own reverse gets the reverse kind."""
    for o1, o2 in pairs:
        witness = ramsey.proximality_witness(o1, o2, window)
        require(ramsey.verify_proximality(witness, o1, o2), "proximality witness fails")
    o1 = pairs[0][0]
    witness = ramsey.proximality_witness(o1, orders.reverse(o1), window)
    require(
        witness.kind == ramsey.PROXIMALITY_REVERSE,
        "reversed pair got kind %s", witness.kind,
    )


def cylinder_mass(sizes: Iterable[int]) -> None:
    """The exact cylinder measures of all orders on n points sum to 1."""
    for n in sizes:
        mass = sum(stats.cylinder_measure(o) for o in orders.all_linear_orders(_window(n)))
        require(mass == 1, "mass %s != 1 on a %d-window", mass, n)


def orbit_frequencies(
    sources: Iterable[LinearOrder], window: Window, trials: int, seed: int
) -> None:
    """Per source, every pattern's exact measure is 1/w!, its empirical
    frequency lies within 3 binomial sigma of it, and the frequencies sum to 1."""
    exact = Fraction(1, math.factorial(len(window)))
    p = float(exact)
    tolerance = 3 * math.sqrt(p * (1 - p) / trials)
    for source in sources:
        results = stats.orbit_average_all(source, window, trials, seed)
        for s in results:
            require(s.exact == exact, "exact measure %s != %s", s.exact, exact)
            require(
                abs(s.empirical - exact) <= tolerance,
                "pattern %s: |%.5f - %s| above 3 sigma",
                orders.order_to_text(s.pattern), float(s.empirical), exact,
            )
        require(sum(s.empirical for s in results) == 1, "frequencies do not sum to 1")
