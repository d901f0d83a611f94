import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderflow import (
    BlockCode,
    DegenerateInput,
    FinPerm,
    LinearOrder,
    Window,
    WindowTooSmall,
    all_linear_orders,
    all_order_types,
    apply_code,
    apply_perm,
    circular_code,
    code_from_text,
    code_to_text,
    is_alternating,
    is_alternating_code,
    lin_order_to_config2,
    moment_curve_orientation,
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


def test_sign_code_tables():
    two = sign_code(2)
    assert dict((ot.sigma, v) for ot, v in two.items()) == {(1, 2): 1, (2, 1): -1}
    three = sign_code(3)
    values = [v for _, v in three.items()]
    assert values.count(1) == 3 and values.count(-1) == 3
    for ot, v in three.items():
        assert v == ot.sign


def test_sign2_reproduces_the_order_encoding():
    window = Window(tuple(range(4)))
    for order in all_linear_orders(window):
        assert apply_code(sign_code(2), order) == lin_order_to_config2(order)


def test_constant_code_gives_constant_config():
    code = BlockCode(2, (1, 1))
    config = apply_code(code, LinearOrder.natural(Window((0, 1, 2))))
    assert set(config.values) == {1}


def test_circular_code_on_the_ascending_chain():
    config = circular_code(LinearOrder.natural(Window((0, 1, 2))))
    for t in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        assert config.value(t) == 1
    for t in ((0, 2, 1), (2, 1, 0), (1, 0, 2)):
        assert config.value(t) == -1


def test_circular_code_rotation_and_swap_symmetry():
    window = Window(tuple(range(4)))
    for order in all_linear_orders(window):
        config = circular_code(order)
        for l, m, n in permutations(window, 3):
            assert config.value((l, m, n)) == config.value((m, n, l))
            assert config.value((l, m, n)) == -config.value((m, l, n))


def test_window_too_small():
    with pytest.raises(WindowTooSmall):
        apply_code(sign_code(3), LinearOrder.natural(Window((0, 1))))
    with pytest.raises(WindowTooSmall):
        circular_code(LinearOrder.natural(Window((0, 1))))


def test_sign4_on_an_increasing_quadruple():
    order = LinearOrder.natural(Window((0, 1, 2, 3)))
    config = apply_code(sign_code(4), order)
    assert config.value((0, 1, 2, 3)) == 1
    assert config.value((1, 0, 2, 3)) == -1


# ---------------------------------------------------------------------------
# alternation of codes


def test_sign_codes_are_alternating():
    for k in (2, 3, 4):
        assert is_alternating_code(sign_code(k))


def test_constant_code_is_not_alternating():
    assert not is_alternating_code(BlockCode(2, (1, 1)))
    assert not is_alternating_code(BlockCode(3, (1,) * 6))


def test_sign_code_images_alternate():
    for k in (2, 3, 4):
        for n in range(k, 6):
            window = Window(tuple(range(n)))
            for order in all_linear_orders(window):
                assert is_alternating(apply_code(sign_code(k), order))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_table_criterion_matches_image_criterion(data):
    k = data.draw(st.sampled_from((2, 3)))
    table = data.draw(st.tuples(*[st.sampled_from((1, -1))] * math.factorial(k)))
    code = BlockCode(k, table)
    window = Window(tuple(range(2 * k)))
    ranks = data.draw(st.permutations(tuple(range(2 * k))))
    order = LinearOrder(window, tuple(ranks))
    assert is_alternating_code(code) == is_alternating(apply_code(code, order))


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
    for t, v in config.items():
        assert v == moment_curve_orientation([params[x] for x in t])


# ---------------------------------------------------------------------------
# text format


def test_code_text_round_trip():
    for code in (sign_code(2), sign_code(3), BlockCode(2, (1, 1))):
        assert code_from_text(code_to_text(code)) == code
    text = code_to_text(sign_code(3))
    assert text.splitlines()[0] == "3"
    assert text.splitlines()[1] == "1 2 3 : +1"


def test_code_text_errors():
    from orderflow import FormatError

    with pytest.raises(FormatError):
        code_from_text("")
    with pytest.raises(FormatError, match="line 2"):
        code_from_text("2\n1 2 : up\n2 1 : -1")
    with pytest.raises(FormatError):
        code_from_text("2\n1 2 : +1")  # missing entry


def test_code_text_arity_is_bounded_before_enumeration():
    from orderflow import DEFAULT_MAX_ARITY, FormatError

    # 30! order types would never finish enumerating; the bound comes first.
    for arity in (-1, 0, 1, DEFAULT_MAX_ARITY + 1, 30):
        with pytest.raises(FormatError, match="line 1"):
            code_from_text(f"{arity}\n")
    with pytest.raises(FormatError, match="line 1"):
        code_from_text("1\n1 : +1\n")


def test_block_code_validation():
    with pytest.raises(ValueError):
        BlockCode(2, (1,))
    with pytest.raises(ValueError):
        BlockCode(2, (1, 0))
    with pytest.raises(ValueError):
        sign_code(9)
    assert len(all_order_types(3)) == 6
