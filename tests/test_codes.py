import inspect
import math
import random
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderflow import (
    DEFAULT_MAX_ARITY,
    BlockCode,
    DegenerateInput,
    FinPerm,
    FormatError,
    KConfig,
    LinearOrder,
    Window,
    WindowTooSmall,
    all_linear_orders,
    apply_code,
    apply_perm,
    code_from_name,
    codes,
    histogram_to_dicts,
    is_alternating,
    moment_curve_orientation,
    order_to_text,
    relabel,
    sign_code,
)


def sort_sign(values) -> int:
    """Inversion-parity oracle: the parity of the sequence as a permutation."""
    inversions = sum(
        1
        for i in range(len(values))
        for j in range(i + 1, len(values))
        if values[i] > values[j]
    )
    return -1 if inversions % 2 else 1


def cofactor_det(m):
    """Textbook Laplace expansion over exact Fractions."""
    if len(m) == 1:
        return m[0][0]
    total = Fraction(0)
    for j, entry in enumerate(m[0]):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * entry * cofactor_det(minor)
    return total


def random_distinct_fractions(rng, k):
    out = []
    while len(out) < k:
        t = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
        if t not in out:
            out.append(t)
    return out


# ---------------------------------------------------------------------------
# sign codes and application


def test_sign_code_is_built_once_per_arity():
    for k in range(2, 7):
        assert sign_code(k) is sign_code(k)
    assert inspect.isfunction(sign_code)


def test_sign_code_tables():
    assert sign_code(2).table == (1, -1)
    three = sign_code(3)
    assert three.table.count(1) == 3 and three.table.count(-1) == 3
    for k in range(2, DEFAULT_MAX_ARITY + 1):
        assert sign_code(k).table == tuple(map(sort_sign, permutations(range(k))))


def test_sign2_reproduces_the_order_encoding():
    # +1 exactly on the ascending pairs
    window = Window(tuple(range(4)))
    for order in all_linear_orders(window):
        config = apply_code(sign_code(2), order)
        for (x, y), v in zip(permutations(window, 2), config.values.tolist()):
            assert v == (1 if order.rank_of(x) < order.rank_of(y) else -1)


def test_constant_code_gives_constant_config():
    code = BlockCode(2, (1, 1))
    config = apply_code(code, LinearOrder.natural(Window((0, 1, 2))))
    assert set(config.values) == {1}


def test_circular_code_on_the_ascending_chain():
    config = apply_code(sign_code(3), LinearOrder.natural(Window((0, 1, 2))))
    for t in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        assert config.array[t] == 1
    for t in ((0, 2, 1), (2, 1, 0), (1, 0, 2)):
        assert config.array[t] == -1


def test_circular_code_rotation_and_swap_symmetry():
    window = Window(tuple(range(4)))
    for order in all_linear_orders(window):
        config = apply_code(sign_code(3), order)
        values = config.array
        for l, m, n in permutations(window, 3):
            assert values[l, m, n] == values[m, n, l]
            assert values[l, m, n] == -values[m, l, n]


def test_window_too_small():
    with pytest.raises(WindowTooSmall):
        apply_code(sign_code(3), LinearOrder.natural(Window((0, 1))))


def test_sign4_on_an_increasing_quadruple():
    order = LinearOrder.natural(Window((0, 1, 2, 3)))
    config = apply_code(sign_code(4), order)
    assert config.array[0, 1, 2, 3] == 1
    assert config.array[1, 0, 2, 3] == -1


def rank_pattern(values) -> tuple[int, ...]:
    """The permutation of range(len(values)) in the relative order of the values."""
    ordered = sorted(values)
    return tuple(ordered.index(v) for v in values)


def per_tuple_apply_code(code: BlockCode, order: LinearOrder) -> KConfig:
    """Reference route: one rank pattern per tuple, looked up in the code
    table keyed by the patterns in permutations order."""
    table = dict(zip(permutations(range(code.k)), code.table))
    return KConfig.from_function(
        code.k, order.window, lambda t: table[rank_pattern([order.rank_of(x) for x in t])]
    )


def test_apply_code_matches_the_per_tuple_route_exhaustively():
    for k in (2, 3, 4):
        code = sign_code(k)
        for n in range(k, 7):
            for order in all_linear_orders(Window(tuple(range(n)))):
                assert apply_code(code, order) == per_tuple_apply_code(code, order)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_images_row_i_is_the_image_of_the_order_ranked_by_row_i(data):
    k = data.draw(st.integers(2, 4))
    n = data.draw(st.integers(k, 7))
    code = BlockCode(k, data.draw(st.tuples(*[st.sampled_from((1, -1))] * math.factorial(k))))
    table = np.array(data.draw(st.lists(st.permutations(range(n)), min_size=1, max_size=6)))
    points = st.lists(st.integers(-50, 50), unique=True, min_size=n, max_size=n)
    window = Window.of(data.draw(points))
    values = codes.images(code, table)
    assert values.shape == (len(table), math.perm(n, k)) and values.dtype == np.int8
    for i, ranks in enumerate(table):
        order = LinearOrder(window, ranks)
        assert np.array_equal(values[i], apply_code(code, order).values)
        assert np.array_equal(values[i], per_tuple_apply_code(code, order).values)
        assert np.array_equal(codes.images(code, ranks), values[i])


@pytest.mark.parametrize("n", [256, 257, 300])
def test_sign_2_images_compare_ranks_on_both_sides_of_the_uint8_step(n):
    # images gathers in np.min_scalar_type(n - 1), uint16 past 256 points; a
    # sign-2 value is +1 exactly where the pair's ranks increase
    ranks = random.Random(n).sample(range(n), n)
    want = [1 if ranks[i] < ranks[j] else -1 for i, j in permutations(range(n), 2)]
    assert codes.images(sign_code(2), np.array(ranks)).tolist() == want


def test_images_refuse_ranks_outside_the_row():
    # narrowed to uint8 unchecked, rank 256 read as 0 and gave [1, 1, 1, 1, -1, -1]
    ranks = np.array([0, 2, 1])
    assert codes.images(sign_code(2), ranks).tolist() == [1, 1, -1, -1, -1, 1]
    for bad in ([0, 256, 5], [0, 3, 1], [-1, 1, 2], [[0, 1, 2], [0, 1, 3]]):
        with pytest.raises(ValueError, match=r"^ranks must lie in \[0, 3\)$"):
            codes.images(sign_code(2), np.array(bad))
    # an empty table has no rank to check
    assert codes.images(sign_code(2), np.zeros((0, 3), dtype=np.int64)).shape == (0, 6)


def test_images_below_the_arity_raise_window_too_small():
    for shape in ((2,), (5, 2), (0, 1)):
        with pytest.raises(WindowTooSmall, match=f"^window size {shape[-1]} below arity 3$"):
            codes.images(sign_code(3), np.zeros(shape, dtype=np.int64))


def test_table_entry_i_is_read_at_the_pattern_of_histogram_cell_i():
    # one numbering: the one-hot table at i is read on the increasing tuple of
    # the i-th order, and histogram row i names that same order
    for k in (2, 3, 4):
        window = Window(tuple(range(k)))
        cells = math.factorial(k)
        rows = histogram_to_dicts(np.ones(cells, dtype=np.int64), window, seed=0)
        for i, order in enumerate(all_linear_orders(window)):
            one_hot = BlockCode(k, tuple(1 if j == i else -1 for j in range(cells)))
            assert apply_code(one_hot, order).array[window.elements] == 1
            assert rows[i]["pattern"] == order_to_text(order)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_apply_code_matches_the_per_tuple_route_on_random_tables(data):
    k = data.draw(st.integers(2, 4))
    table = data.draw(st.tuples(*[st.sampled_from((1, -1))] * math.factorial(k)))
    ranked = data.draw(st.lists(st.integers(-30, 30), unique=True, min_size=k, max_size=7))
    code, order = BlockCode(k, table), LinearOrder.from_ranked_elements(ranked)
    assert apply_code(code, order) == per_tuple_apply_code(code, order)


# ---------------------------------------------------------------------------
# alternation of codes


def natural_image_alternates(code: BlockCode) -> bool:
    """Whether the code's image of the natural order on k points alternates.

    Whether an image alternates at a tuple depends only on the tuple's
    pattern, and that order has one k-tuple of each pattern, so its image
    alternates exactly when every image does."""
    return is_alternating(apply_code(code, LinearOrder.natural(Window(tuple(range(code.k))))))


def test_sign_codes_are_alternating():
    for k in (2, 3, 4):
        assert natural_image_alternates(sign_code(k))


def test_constant_code_is_not_alternating():
    assert not natural_image_alternates(BlockCode(2, (1, 1)))
    assert not natural_image_alternates(BlockCode(3, (1,) * 6))


def reference_is_alternating_code(code: BlockCode) -> bool:
    """Table criterion over all pairs of patterns: permuting a tuple's slots
    by tau composes its pattern r with tau on the right, so an alternating
    code has table[r o tau] == sgn(tau) * table[r]."""
    patterns = list(permutations(range(code.k)))
    value = dict(zip(patterns, code.table))
    for tau in patterns:
        sign = sort_sign(tau)
        for r in patterns:
            if value[tuple(r[t] for t in tau)] != sign * value[r]:
                return False
    return True


def test_code_alternation_matches_the_table_criterion_on_every_small_table():
    for k in (2, 3):
        for table in product((1, -1), repeat=math.factorial(k)):
            code = BlockCode(k, table)
            assert natural_image_alternates(code) == reference_is_alternating_code(code)


@st.composite
def near_sign_code_st(draw):
    """A k = 4 or 5 table: uniformly random, or +-sign_code(k) with up to
    two entries flipped, so that alternating tables are drawn too."""
    k = draw(st.sampled_from((4, 5)))
    size = math.factorial(k)
    if draw(st.booleans()):
        return BlockCode(k, draw(st.tuples(*[st.sampled_from((1, -1))] * size)))
    table = [draw(st.sampled_from((1, -1))) * v for v in sign_code(k).table]
    for i in draw(st.lists(st.integers(0, size - 1), max_size=2)):
        table[i] = -table[i]
    return BlockCode(k, tuple(table))


@settings(max_examples=60, deadline=None)
@given(near_sign_code_st())
def test_code_alternation_matches_the_table_criterion_on_larger_tables(code):
    assert natural_image_alternates(code) == reference_is_alternating_code(code)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_table_criterion_matches_image_criterion(data):
    k = data.draw(st.sampled_from((2, 3)))
    table = data.draw(st.tuples(*[st.sampled_from((1, -1))] * math.factorial(k)))
    code = BlockCode(k, table)
    window = Window(tuple(range(2 * k)))
    ranks = data.draw(st.permutations(tuple(range(2 * k))))
    order = LinearOrder(window, tuple(ranks))
    assert natural_image_alternates(code) == is_alternating(apply_code(code, order))


# ---------------------------------------------------------------------------
# equivariance


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_codes_commute_with_the_action(data):
    code = data.draw(st.sampled_from([sign_code(2), sign_code(3), sign_code(4)]))
    n = data.draw(st.integers(code.k, 6))
    window = Window(tuple(range(n)))
    order = LinearOrder(window, tuple(data.draw(st.permutations(tuple(range(n))))))
    alpha = FinPerm.from_dict(
        dict(zip(window, data.draw(st.permutations(tuple(window)))))
    )
    assert apply_code(code, relabel(order, alpha)) == apply_perm(
        alpha, apply_code(code, order)
    )


# ---------------------------------------------------------------------------
# moment-curve orientation


def test_increasing_parameters_are_positive():
    assert moment_curve_orientation((1, 2)) == 1
    assert moment_curve_orientation((0, 1, 2, 3)) == 1
    assert moment_curve_orientation((Fraction(-1, 2), 0, Fraction(7, 3), 5, 9)) == 1


def test_swapping_two_parameters_flips_the_sign():
    assert moment_curve_orientation((2, 1)) == -1
    assert moment_curve_orientation((0, 2, 1, 3)) == -1


def test_three_one_two_is_a_positive_cycle():
    assert moment_curve_orientation((3, 1, 2)) == 1
    # cross-check against the exact cofactor determinant of the moment matrix
    matrix = [[Fraction(1), Fraction(t), Fraction(t) ** 2] for t in (3, 1, 2)]
    det = cofactor_det(matrix)
    assert det > 0


def test_degenerate_inputs_rejected():
    with pytest.raises(DegenerateInput):
        moment_curve_orientation((1, 1, 2))
    with pytest.raises(ValueError):
        moment_curve_orientation((1,))


def test_orientation_matches_both_oracles():
    rng = random.Random(42)
    for _ in range(150):
        k = rng.randint(2, 5)
        ts = random_distinct_fractions(rng, k)
        got = moment_curve_orientation(ts)
        assert got == sort_sign(ts)
        if k <= 4:
            matrix = [[t**j for j in range(k)] for t in ts]
            det = cofactor_det(matrix)
            assert got == (1 if det > 0 else -1)


def test_sign4_config_matches_moment_curve_orientations():
    # place the window on the curve in rank order and compare orientations
    window = Window((0, 2, 5, 7, 8))
    order = LinearOrder(window, (3, 0, 4, 1, 2))
    config = apply_code(sign_code(4), order)
    params = {x: Fraction(order.rank_of(x)) for x in window}
    for t, v in zip(permutations(window, 4), config.values):
        assert v == moment_curve_orientation([params[x] for x in t])


def test_block_code_validation():
    with pytest.raises(ValueError):
        BlockCode(2, (1,))
    with pytest.raises(ValueError):
        BlockCode(2, (1, 0))
    with pytest.raises(ValueError, match="^arity must be at least 2, got 1$"):
        BlockCode(1, (1,))
    with pytest.raises(ValueError, match="arity must be in 2..6, got 9"):
        sign_code(9)
    with pytest.raises(ValueError, match="arity must be in 2..6, got 1"):
        sign_code(1)


def test_code_names():
    assert code_from_name("circular") == sign_code(3)
    for k in range(2, DEFAULT_MAX_ARITY + 1):
        assert code_from_name(f"sign-{k}") == sign_code(k)
    for name in ("sign", "sign-", "sign-x", "sign--3", "sign-3x", "sgn-3", "foo", "sign-\u00b2",
                 "sign-\u0663", "sign-\uff13", "sign-03", "sign-" + "0" * 5000):
        with pytest.raises(ValueError) as excinfo:
            code_from_name(name)
        assert str(excinfo.value) == f"unknown code {name!r}: expected circular or sign-K"
    # 5,000 digits are refused by their length, before `int` meets its limit
    for name in ("sign-0", "sign-1", "sign-7", "sign-30", "sign-" + "9" * 5000):
        with pytest.raises(ValueError) as excinfo:
            code_from_name(name)
        assert str(excinfo.value) == "sign code arity must be in 2..6"
