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
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction

import numpy as np

from . import codes, core, orders, ramsey, stats
from .core import FinPerm, KConfig, Window
from .orders import LinearOrder


def require(ok: bool, message: str, *args: object) -> None:
    """Raise AssertionError(message % args) unless ok; format only on failure."""
    if not ok:
        raise AssertionError(message % args if args else message)


def _window(n: int) -> Window:
    return Window(range(n))


def _random_perm(window: Window, rng: random.Random) -> FinPerm:
    elems = list(window)
    images = elems[:]
    rng.shuffle(images)
    return FinPerm.from_dict(dict(zip(elems, images)))


#: Orders per block of a check that reads all n! orders.  On 8 points the
#: circular census peaks at 44 MB RSS with it, against 95 MB with blocks of
#: 4,096, whose sign-3 re-encoding gathers 33 MB of int64 ranks at once.
_BLOCK_ORDERS = 512


def _ranking_blocks(n: int) -> Iterator[np.ndarray]:
    """The ranks of all orders on n points, in `all_linear_orders` order."""
    table = core.position_tuples(n, n)
    return (table[i : i + _BLOCK_ORDERS] for i in range(0, len(table), _BLOCK_ORDERS))


def bijection_round_trip(sizes: Iterable[int]) -> int:
    """Every order's pair configuration (its sign-2 image) is recognized and
    decodes back to it: one `codes.decode` call per block checks both.

    Returns the number of orders checked."""
    pair_code = codes.sign_code(2)
    total = 0
    for n in sizes:
        for ranks in _ranking_blocks(n):
            decoded, ok = codes.decode(2, codes.images(pair_code, ranks), n)
            broken = ~ok | (decoded != ranks).any(axis=-1)
            require(not broken.any(), "round trip broke ranks %s", ranks[broken.argmax()].tolist())
            total += len(ranks)
    return total


def action_laws(rng: random.Random, triples: int, max_points: int) -> None:
    """The identity acts trivially and (alpha beta) c = alpha (beta c), on
    random sign configurations of arity 2 or 3 and window permutations."""
    for _ in range(triples):
        k = rng.choice((2, 3))
        window = _window(rng.randint(k, max_points))
        config = KConfig(k, window, [rng.choice((1, -1)) for _ in range(math.perm(len(window), k))])
        alpha = _random_perm(window, rng)
        beta = _random_perm(window, rng)
        require(core.apply_perm(FinPerm.identity(), config) == config,
                "identity moved the %d-configuration on %s", k, core.window_to_text(window))
        lhs = core.apply_perm(core.compose(alpha, beta), config)
        rhs = core.apply_perm(alpha, core.apply_perm(beta, config))
        require(lhs == rhs, "composition law failed")


def sign_code_alternation(arities: Sequence[int], max_points: int) -> int:
    """Sign-code images alternate: for each arity k, the sign-k image of
    every order on k..max_points points.

    Returns the number of images checked."""
    total = 0
    for k in arities:
        code = codes.sign_code(k)
        for n in range(k, max_points + 1):
            for order in orders.all_linear_orders(_window(n)):
                if not core.is_alternating(codes.apply_code(code, order)):
                    text = orders.order_to_text(order)
                    require(False, "sign-%d image of %s not alternating", k, text)
                total += 1
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
    """On n points sign-3, the circular code, has (n-1)! images, n orders each, all realizable.

    Returns the number of images checked."""
    circular = codes.sign_code(3)
    total = 0
    for n in sizes:
        packed = []
        for ranks in _ranking_blocks(n):
            values = codes.images(circular, ranks)
            require(codes.decode(3, values, n)[1].all(), "an image on %d not realizable", n)
            packed.append(np.packbits(values > 0, axis=-1))
        counts = np.unique(np.concatenate(packed), axis=0, return_counts=True)[1]
        expected = math.factorial(n - 1)
        require(len(counts) == expected, "%d images on %d, not %d", len(counts), n, expected)
        require((counts == n).all(), "multiplicities %s, not %d", np.unique(counts).tolist(), n)
        total += len(counts)
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
    configuration, and the class map sends an order and its reverse to the
    same one of the two.  As the two differ, every class is exactly
    {order, reverse(order)}: the fibers of the map onto LO/Z2 have size 2.

    Returns the number of orders checked."""
    pair_code = codes.sign_code(2)
    total = 0
    for n in sizes:
        for order in orders.all_linear_orders(_window(n)):
            text = orders.order_to_text(order)
            rev = orders.reverse(order)
            require(rev != order, "reversal must move every order")
            require(orders.reverse(rev) == order, "reversal of %s is not an involution", text)
            require(
                codes.apply_code(pair_code, rev)
                == core.negate(codes.apply_code(pair_code, order)),
                "reversal of %s does not negate its pair configuration", text,
            )
            rep = orders.reversal_class_rep(order)
            require(
                rep in (order, rev) and rep == orders.reversal_class_rep(rev),
                "%s and its reverse are not one class", text,
            )
            total += 1
    return total


def minimality_witnesses(sources: Iterable[LinearOrder], window: Window) -> int:
    """Every target order on the window has a witness inside every source,
    and the witness re-verifies.  Returns the number of witnesses."""
    produced = 0
    for source in sources:
        for target in orders.all_linear_orders(window):
            witness = ramsey.minimality_witness(source, target)
            require(
                ramsey.verify_minimality(witness, source, target),
                "witness for %s fails", orders.order_to_text(target),
            )
            produced += 1
    return produced


def proximality_witnesses(
    pairs: Sequence[tuple[LinearOrder, LinearOrder]], window: Window
) -> None:
    """Every pair has a re-verifying proximality witness on the window, and
    the first order against its own reverse gets a re-verifying witness of
    the reverse kind."""
    reverse_pair = pairs[0][0], orders.reverse(pairs[0][0])
    for o1, o2 in [*pairs, reverse_pair]:
        witness = ramsey.proximality_witness(o1, o2, window)
        require(ramsey.verify_proximality(witness, o1, o2), "proximality witness fails")
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
    """Per source, the histogram has a cell per pattern summing to the trials,
    and every pattern's frequency lies within 3 binomial sigma of 1/w!."""
    w = len(window)
    cells = math.factorial(w)
    exact = Fraction(1, cells)
    p = float(exact)
    tolerance = 3 * math.sqrt(p * (1 - p) / trials)
    for source in sources:
        counts = stats.pattern_counts(source, window, trials, seed)
        ok = len(counts) == cells and counts.sum() == trials
        require(ok, "%d cells holding %d hits", len(counts), counts.sum())
        for i, hits in enumerate(counts.tolist()):
            if abs(Fraction(hits, trials) - exact) > tolerance:
                [pattern] = orders.order_texts(window, core.position_tuples(w, w)[i : i + 1])
                require(
                    False, "pattern %s: |%.5f - %s| above 3 sigma", pattern, hits / trials, exact
                )
