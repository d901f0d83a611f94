import math
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderflow import (
    ArityMismatch,
    DegenerateWindow,
    FinPerm,
    FormatError,
    KConfig,
    LinearOrder,
    NotALinearOrder,
    OrderType,
    OutOfWindow,
    Window,
    all_linear_orders,
    apply_perm,
    circular_code,
    compose_types,
    config2_is_linear_order,
    config2_to_order,
    cyclic_shift,
    is_alternating,
    is_circular_realizable,
    lin_order_to_config2,
    negate,
    order_from_text,
    order_to_text,
    order_type,
    relabel,
    reversal_class_rep,
    reverse,
)

# Regression case: alternating arity-3 configuration on {0,1,2,3} that is
# not the circular code of any order, found by exhausting all 16
# alternating configurations against all 24 codes.
NON_REALIZABLE_TRIPLE_SIGNS = {(0, 1, 2): 1, (0, 1, 3): 1, (0, 2, 3): 1, (1, 2, 3): -1}


def alternating_triple_config(window: Window, incr_signs: dict) -> KConfig:
    natural = LinearOrder.natural(window)

    def fn(t):
        return incr_signs[tuple(sorted(t))] * order_type(t, natural).sign

    return KConfig.from_function(3, window, fn)


def reference_is_linear_order(config: KConfig) -> bool:
    """Alternation plus transitivity of the +1 relation, checked directly."""
    if not is_alternating(config):
        return False
    for m, n, l in permutations(config.window.elements, 3):
        if config.value((m, n)) == 1 and config.value((n, l)) == 1:
            if config.value((m, l)) != 1:
                return False
    return True


def reference_circular_realizable(config: KConfig) -> bool:
    """Search over the (|W|-1)! orders placing the least element first.

    A candidate's circular code is +1 at (x, y, z) exactly when the ranks
    ascend cyclically, that is, when two of r(x) < r(y), r(y) < r(z) and
    r(z) < r(x) hold.  It is compared value by value, so a wrong candidate
    is dropped at its first mismatch.
    """
    if len(config.window) < 3:
        return True
    first, *rest = config.window.elements
    for tail in permutations(rest):
        r = {x: i for i, x in enumerate((first, *tail))}
        if all(
            ((r[x] < r[y]) + (r[y] < r[z]) + (r[z] < r[x]) == 2) == (v == 1)
            for (x, y, z), v in config.items()
        ):
            return True
    return False


def one_value_flips(config: KConfig, start: int = 0, stride: int = 1):
    """Copies of the configuration with one value negated, for every
    stride-th value from start on."""
    for i in range(start, len(config.values), stride):
        values = list(config.values)
        values[i] = -values[i]
        yield KConfig(config.k, config.window, tuple(values))


def assert_order_checks_match_reference(config: KConfig):
    if config.k == 2:
        expected = reference_is_linear_order(config)
        assert config2_is_linear_order(config) == expected
        if expected:
            order = config2_to_order(config)
            assert len(config.window) < 2 or lin_order_to_config2(order) == config
        else:
            with pytest.raises(NotALinearOrder):
                config2_to_order(config)
    else:
        assert is_circular_realizable(config) == reference_circular_realizable(config)


@st.composite
def config_st(draw, k):
    """A random configuration, or an order image with up to two values flipped."""
    elems = draw(st.lists(st.integers(-30, 30), unique=True, max_size=6))
    window = Window(tuple(sorted(elems)))
    count = math.perm(len(window), k)
    if len(window) >= k and draw(st.booleans()):
        ranks = draw(st.permutations(tuple(range(len(window)))))
        order = LinearOrder(window, tuple(ranks))
        image = lin_order_to_config2(order) if k == 2 else circular_code(order)
        values = list(image.values)
        for i in draw(st.lists(st.integers(0, count - 1), max_size=2)):
            values[i] = -values[i]
    else:
        values = draw(st.lists(st.sampled_from((1, -1)), min_size=count, max_size=count))
    return KConfig(k, window, tuple(values))


@st.composite
def order_st(draw, min_size=2, max_size=6):
    elems = draw(
        st.lists(st.integers(-30, 30), unique=True, min_size=min_size, max_size=max_size)
    )
    window = Window(tuple(sorted(elems)))
    ranks = draw(st.permutations(tuple(range(len(window)))))
    return LinearOrder(window, tuple(ranks))


# ---------------------------------------------------------------------------
# LinearOrder basics


def test_order_constructors_and_text():
    order = LinearOrder.from_ranked_elements((7, 3, 9))
    assert order.window == Window((3, 7, 9))
    assert order.rank_of(7) == 0 and order.rank_of(3) == 1 and order.rank_of(9) == 2
    assert order.ranked_elements() == (7, 3, 9)
    assert order_to_text(order) == "7 3 9"
    assert order_from_text("7 3 9") == order
    with pytest.raises(ValueError):
        LinearOrder(Window((0, 1)), (0, 2))
    with pytest.raises(FormatError):
        order_from_text("7 3 x")
    with pytest.raises(FormatError):
        order_from_text("")
    with pytest.raises(OutOfWindow):
        order.rank_of(4)


# ---------------------------------------------------------------------------
# order <-> pair configuration


def test_chain_gives_ascending_plus_one():
    config = lin_order_to_config2(LinearOrder.natural(Window((0, 1))))
    assert config.value((0, 1)) == 1
    assert config.value((1, 0)) == -1


def test_descending_chain_values():
    order = LinearOrder.from_ranked_elements((2, 1, 0))
    config = lin_order_to_config2(order)
    expected = {(2, 1): 1, (1, 0): 1, (2, 0): 1, (1, 2): -1, (0, 1): -1, (0, 2): -1}
    assert dict(config.items()) == expected


def test_singleton_window_rejected():
    with pytest.raises(DegenerateWindow):
        lin_order_to_config2(LinearOrder.natural(Window((5,))))


def test_images_are_linear_orders_exhaustively():
    for n in range(3, 7):
        window = Window(tuple(range(n)))
        for i, order in enumerate(all_linear_orders(window)):
            image = lin_order_to_config2(order)
            assert config2_is_linear_order(image)
            assert_order_checks_match_reference(image)
            # every flip up to n = 5; a twelfth of them at n = 6, staggered
            # so that each value position is flipped in some image
            stride = 1 if n < 6 else 12
            for flipped in one_value_flips(image, i % stride, stride):
                assert_order_checks_match_reference(flipped)


def test_cyclic_plus_configuration_is_not_an_order():
    window = Window((0, 1, 2))
    cyclic = {(0, 1): 1, (1, 2): 1, (2, 0): 1}

    def fn(t):
        if t in cyclic:
            return 1
        return -1

    config = KConfig.from_function(2, window, fn)
    assert not config2_is_linear_order(config)  # transitivity fails on (0, 1, 2)
    with pytest.raises(NotALinearOrder):
        config2_to_order(config)


def test_constant_config_is_not_an_order():
    config = KConfig.from_function(2, Window((0, 1, 2)), lambda t: 1)
    assert not config2_is_linear_order(config)


def test_arity_mismatch():
    config = KConfig.from_function(3, Window((0, 1, 2)), lambda t: 1)
    with pytest.raises(ArityMismatch):
        config2_is_linear_order(config)


def test_round_trip_all_orders_up_to_five():
    for n in (2, 3, 4, 5):
        window = Window(tuple(range(n)))
        for order in all_linear_orders(window):
            assert config2_to_order(lin_order_to_config2(order)) == order


def test_valid_configs_on_four_window_are_exactly_the_order_images():
    # enumerate every +-1 assignment on the pairs of windows up to 4 points
    for n in range(5):
        window = Window(tuple(range(n)))
        valid = 0
        for values in product((1, -1), repeat=n * (n - 1)):
            config = KConfig(2, window, values)
            assert_order_checks_match_reference(config)
            valid += config2_is_linear_order(config)
        assert valid == math.factorial(n)


def test_config_from_seven_three_nine():
    order = LinearOrder.from_ranked_elements((7, 3, 9))
    assert config2_to_order(lin_order_to_config2(order)).ranked_elements() == (7, 3, 9)


@settings(max_examples=40, deadline=None)
@given(order_st(max_size=6))
def test_round_trip_random_windows(order):
    assert config2_to_order(lin_order_to_config2(order)) == order


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_order_encoding_is_equivariant(data):
    order = data.draw(order_st(max_size=5))
    images = data.draw(st.permutations(tuple(order.window)))
    alpha = FinPerm.from_dict(dict(zip(order.window, images)))
    assert lin_order_to_config2(relabel(order, alpha)) == apply_perm(
        alpha, lin_order_to_config2(order)
    )


# ---------------------------------------------------------------------------
# order types


def test_order_type_examples():
    natural = LinearOrder.natural(Window((0, 1, 2)))
    assert order_type((0, 1, 2), natural).sigma == (1, 2, 3)
    two_five = LinearOrder.from_ranked_elements((2, 5))
    assert order_type((5, 2), two_five).sigma == (2, 1)
    # tuple (b, c, a) with a < b < c
    natural_abc = LinearOrder.natural(Window((10, 20, 30)))
    assert order_type((20, 30, 10), natural_abc).sigma == (3, 1, 2)
    with pytest.raises(OutOfWindow):
        order_type((0, 9), natural)


def test_order_type_sign_and_inverse():
    assert OrderType((1, 2, 3)).sign == 1
    assert OrderType((2, 1, 3)).sign == -1
    assert OrderType((2, 3, 1)).sign == 1
    assert OrderType((3, 1, 2)).inverse() == OrderType((2, 3, 1))
    with pytest.raises(ValueError):
        OrderType((1, 3))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_permuting_a_tuple_composes_inverse_on_the_left(data):
    order = data.draw(order_st(min_size=3, max_size=6))
    k = data.draw(st.integers(2, min(4, len(order.window))))
    t = tuple(data.draw(st.permutations(tuple(order.window)))[:k])
    tau = OrderType(tuple(data.draw(st.permutations(tuple(range(1, k + 1))))))
    permuted = tuple(t[s - 1] for s in tau.sigma)
    assert order_type(permuted, order) == compose_types(
        tau.inverse(), order_type(t, order)
    )


# ---------------------------------------------------------------------------
# reversal


def test_reverse_examples():
    order = LinearOrder.natural(Window((0, 1, 2)))
    assert reverse(order).ranked_elements() == (2, 1, 0)
    assert reverse(reverse(order)) == order


def test_reverse_negates_the_configuration_and_moves_every_order():
    for n in (2, 3, 4, 5):
        window = Window(tuple(range(n)))
        for order in all_linear_orders(window):
            rev = reverse(order)
            assert rev != order
            assert reverse(rev) == order
            assert lin_order_to_config2(rev) == negate(lin_order_to_config2(order))


def test_reversal_class_rep():
    window = Window(tuple(range(4)))
    for order in all_linear_orders(window):
        rep = reversal_class_rep(order)
        assert rep == reversal_class_rep(reverse(order))
        assert rep == reversal_class_rep(rep)
        assert rep in (order, reverse(order))
    chain = LinearOrder.natural(Window((0, 1)))
    assert reversal_class_rep(chain) == chain
    assert reversal_class_rep(reverse(chain)) == chain
    with pytest.raises(DegenerateWindow):
        reversal_class_rep(LinearOrder.natural(Window((3,))))


def test_every_reversal_class_has_two_members():
    for n in (2, 3, 4, 5):
        window = Window(tuple(range(n)))
        classes = {}
        for order in all_linear_orders(window):
            classes.setdefault(reversal_class_rep(order), set()).add(order)
        assert all(len(members) == 2 for members in classes.values())
        assert len(classes) == math.factorial(n) // 2


# ---------------------------------------------------------------------------
# circular realizability


def test_circular_code_images_are_realizable():
    for n in range(3, 7):
        window = Window(tuple(range(n)))
        images = sorted({circular_code(order) for order in all_linear_orders(window)}, key=str)
        for i, image in enumerate(images):
            assert is_circular_realizable(image)
            assert_order_checks_match_reference(image)
            stride = 1 if n < 6 else 12  # as for the pair images above
            for flipped in one_value_flips(image, i % stride, stride):
                assert_order_checks_match_reference(flipped)


def test_all_plus_cyclic_triples_realizable_on_three_window():
    window = Window((0, 1, 2))
    config = alternating_triple_config(window, {(0, 1, 2): 1})
    # the six orders on the window produce exactly two codes; this is one
    matches = [
        order for order in all_linear_orders(window) if circular_code(order) == config
    ]
    assert matches, "expected the code of the ascending chain"
    assert is_circular_realizable(config)


def test_frozen_non_realizable_configuration():
    window = Window((0, 1, 2, 3))
    config = alternating_triple_config(window, NON_REALIZABLE_TRIPLE_SIGNS)
    assert not any(
        circular_code(order) == config for order in all_linear_orders(window)
    )
    assert not is_circular_realizable(config)


def test_circular_check_matches_reference_on_alternating_four_point_configs():
    window = Window((0, 1, 2, 3))
    increasing = [t for t in permutations(window.elements, 3) if t == tuple(sorted(t))]
    realizable = 0
    for signs in product((1, -1), repeat=len(increasing)):
        config = alternating_triple_config(window, dict(zip(increasing, signs)))
        assert_order_checks_match_reference(config)
        realizable += is_circular_realizable(config)
    assert realizable == math.factorial(3)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((2, 3)).flatmap(config_st))
def test_order_checks_match_reference_on_random_configs(config):
    assert_order_checks_match_reference(config)


def test_realizability_errors():
    pair = KConfig.from_function(2, Window((0, 1, 2)), lambda t: 1)
    with pytest.raises(ArityMismatch):
        is_circular_realizable(pair)
    big = Window(tuple(range(9)))
    assert is_circular_realizable(circular_code(LinearOrder.natural(big)))


def test_circular_image_count_is_shifted_factorial():
    for n in (3, 4, 5):
        window = Window(tuple(range(n)))
        images = {circular_code(order) for order in all_linear_orders(window)}
        assert len(images) == math.factorial(n - 1)
        # each circular order comes from exactly n linear orders
        hits = {}
        for order in all_linear_orders(window):
            hits[circular_code(order)] = hits.get(circular_code(order), 0) + 1
        assert set(hits.values()) == {n}


def test_cyclic_shift_preserves_the_circular_code():
    for n in (3, 4, 5):
        window = Window(tuple(range(n)))
        for order in all_linear_orders(window):
            shifted = cyclic_shift(order)
            assert shifted != order
            assert circular_code(shifted) == circular_code(order)
