import math
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderflow import (
    ArityMismatch,
    FinPerm,
    FormatError,
    KConfig,
    LinearOrder,
    OutOfWindow,
    Window,
    WindowTooSmall,
    all_linear_orders,
    apply_code,
    apply_perm,
    codes,
    config_from_text,
    cyclic_shift,
    is_alternating,
    negate,
    order_from_text,
    order_to_text,
    realize,
    relabel,
    reversal_class_rep,
    reverse,
    sign_code,
)
from orderflow.core import position_tuples
from orderflow.orders import order_texts

# Regression case: alternating arity-3 configuration on {0,1,2,3} that is
# not the circular code of any order, found by exhausting all 16
# alternating configurations against all 24 codes.
NON_REALIZABLE_TRIPLE_SIGNS = {(0, 1, 2): 1, (0, 1, 3): 1, (0, 2, 3): 1, (1, 2, 3): -1}


def order_type(t, order: LinearOrder) -> tuple[int, ...]:
    """Reference sorting permutation of a tuple under an order: slot
    sigma[0] holds the least entry, then slot sigma[1], and so on."""
    if len(set(t)) != len(t):
        raise ValueError(f"tuple entries must be pairwise distinct: {t}")
    ranks = [order.rank_of(x) for x in t]
    return tuple(sorted(range(len(t)), key=ranks.__getitem__))


def alternating_triple_config(window: Window, incr_signs: dict) -> KConfig:
    natural = LinearOrder.natural(window)
    sign = dict(zip(permutations(range(3)), sign_code(3).table))

    def fn(t):
        return incr_signs[tuple(sorted(t))] * sign[order_type(t, natural)]

    return KConfig.from_function(3, window, fn)


def reference_is_linear_order(config: KConfig) -> bool:
    """Alternation plus transitivity of the +1 relation, checked directly."""
    if not is_alternating(config):
        return False
    values = config.array
    for m, n, l in permutations(range(len(config.window)), 3):
        if values[m, n] == 1 and values[n, l] == 1:
            if values[m, l] != 1:
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
            for (x, y, z), v in zip(permutations(config.window, 3), config.values)
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
    """`realize` finds an order exactly when the reference route says one
    exists.  The order re-encodes to the input (below the arity, it is the
    natural order), and for k = 3 it ranks the least window element lowest."""
    if config.k == 2:
        expected = reference_is_linear_order(config)
    else:
        expected = reference_circular_realizable(config)
    order = realize(config)
    assert (order is not None) == expected
    if order is None:
        return
    if len(config.window) < config.k:
        assert order == LinearOrder.natural(config.window)
    else:
        assert apply_code(sign_code(config.k), order) == config
    if config.k == 3 and len(config.window):
        assert order.rank_of(config.window.elements[0]) == 0


@st.composite
def config_st(draw, k):
    """A random configuration, or an order image with up to two values flipped."""
    elems = draw(st.lists(st.integers(-30, 30), unique=True, max_size=6))
    window = Window(tuple(sorted(elems)))
    count = math.perm(len(window), k)
    if len(window) >= k and draw(st.booleans()):
        ranks = draw(st.permutations(tuple(range(len(window)))))
        order = LinearOrder(window, tuple(ranks))
        image = apply_code(sign_code(k), order)
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


#: A 4,000-digit point, as wide as a point of the order text gets near the
#: factor byte bound.
WIDE_POINT = str(10**3999 + 7)


@pytest.mark.parametrize(
    "text, message",
    [
        ("3 1 3", "ranked elements must be distinct: '3' is ranked both 0 and 2"),
        ("5 -2 7 -2 -2", "ranked elements must be distinct: '-2' is ranked both 1 and 4"),
        (
            " ".join(map(str, range(10**5))) + " 99999",
            "ranked elements must be distinct: '99999' is ranked both 99999 and 100000",
        ),
        (
            f"{WIDE_POINT} 1 {WIDE_POINT}",
            f"ranked elements must be distinct: {WIDE_POINT[:40]!r}... (4000 characters) "
            "is ranked both 0 and 2",
        ),
    ],
)
def test_order_text_names_its_repeated_point(text, message):
    # the repeat is found before the window is built, whose own message
    # ("window elements must be strictly increasing") would name no rank
    with pytest.raises(FormatError) as excinfo:
        order_from_text(text, 4)
    assert str(excinfo.value) == f"line 4: {message}"
    with pytest.raises(ValueError) as excinfo:
        LinearOrder.from_ranked_elements(tuple(map(int, text.split())))
    assert str(excinfo.value) == message


def test_bad_order_text_shows_a_short_head_of_a_long_line():
    text = " ".join([WIDE_POINT] * 999 + ["x"])
    with pytest.raises(FormatError) as excinfo:
        order_from_text(text)
    assert str(excinfo.value) == f"bad order text {text[:40]!r}... ({len(text)} characters)"
    # up to 60 characters the text is shown whole
    for text in ("  3 1 x", "1 " * 29 + "xy"):
        with pytest.raises(FormatError) as excinfo:
            order_from_text(text)
        assert str(excinfo.value) == f"bad order text {text!r}"


@st.composite
def rank_tables(draw):
    """(window, ranks): a window of 1..6 points, negative, sparse or past
    int64, and an (m, n) table of rankings of it."""
    points = st.one_of(
        st.integers(-30, 30),
        st.integers(-(2**70), 2**70),
        st.sampled_from([2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 10**30]),
    )
    elems = draw(st.lists(points, unique=True, min_size=1, max_size=6))
    rows = draw(st.lists(st.permutations(range(len(elems))), min_size=1, max_size=5))
    return Window.of(elems), np.array(rows, dtype=np.int64)


@settings(max_examples=100, deadline=None)
@given(rank_tables())
def test_order_texts_is_order_to_text_row_by_row(table):
    window, ranks = table
    texts = order_texts(window, ranks)
    orders = [LinearOrder(window, row) for row in ranks]
    assert texts == [order_to_text(order) for order in orders]
    assert texts == [" ".join(map(str, order.ranked_elements())) for order in orders]
    assert [order_from_text(text) for text in texts] == orders


@pytest.mark.parametrize("dtype", [np.int8, np.int64])
def test_order_ranks_are_a_read_only_int64_copy(dtype):
    source = np.array([2, 0, 1], dtype=dtype)
    order = LinearOrder(Window((3, 7, 9)), source)
    assert order.ranks.dtype == np.int64 and order.ranks.shape == (3,)
    assert not order.ranks.flags.writeable
    with pytest.raises(ValueError):
        order.ranks[0] = 1
    source[0] = 0
    assert order.ranks.tolist() == [2, 0, 1]
    orders = list(all_linear_orders(Window(tuple(range(3)))))
    assert all(not o.ranks.flags.writeable for o in orders)
    assert [o.ranks.tolist() for o in orders] == [list(p) for p in permutations(range(3))]


def test_order_equality_and_hash_ignore_the_input_type():
    w = Window((3, 7, 9))
    ranks = (2, 0, 1)
    inputs = [
        ranks,
        list(ranks),
        np.array(ranks),
        np.array(ranks, dtype=np.int8),
        np.array(ranks, dtype=np.float64),
        np.array(ranks, dtype=np.int16),
    ]
    orders = [LinearOrder(w, r) for r in inputs]
    assert all(o == orders[0] and hash(o) == hash(orders[0]) for o in orders)
    assert len(set(orders)) == 1
    assert orders[0] == LinearOrder.from_ranked_elements((7, 9, 3))
    assert LinearOrder(w, (2, 1, 0)) != orders[0]
    assert LinearOrder(Window((3, 7, 8)), ranks) != orders[0]
    assert orders[0] != ranks


def test_bad_ranks_raise_value_error():
    w = Window((3, 7, 9))
    for ranks in (
        (0, 0, 1),
        (1, 2, 3),
        (-1, 0, 1),
        (0, 1),
        (0, 1, 2, 3),
        (0, 1, 1.5),
        (0.5, 1, 2),
        (0, 1, 2**70),
        ("0", "1", "2"),
        (0, 1, None),
        np.array([0, 1, 2], dtype=object),
        [[0, 1, 2]],
        np.zeros((3, 1)),
    ):
        with pytest.raises(ValueError, match="^ranks must be a bijection onto 0..2: "):
            LinearOrder(w, ranks)


def test_bad_ranks_error_names_the_first_fault_briefly():
    n = 10**5
    w = Window(range(n))
    repeat = np.arange(n)
    repeat[-1] = 3
    outside = np.arange(n)
    outside[40_000] = n
    for ranks, fault in (
        (repeat, "index 99999 repeats rank 3"),
        (outside, "index 40000 holds 100000"),
        (np.arange(n) + 0.5, "index 0 holds 0.5"),
        (np.arange(n - 1), "got shape (99999,)"),
        (np.arange(n).astype(object), "got object values"),
    ):
        with pytest.raises(ValueError) as raised:
            LinearOrder(w, ranks)
        assert str(raised.value) == f"ranks must be a bijection onto 0..{n - 1}: {fault}"


# ---------------------------------------------------------------------------
# order <-> pair configuration


def test_chain_gives_ascending_plus_one():
    config = apply_code(sign_code(2), LinearOrder.natural(Window((0, 1))))
    assert config.array[0, 1] == 1
    assert config.array[1, 0] == -1


def test_descending_chain_values():
    order = LinearOrder.from_ranked_elements((2, 1, 0))
    config = apply_code(sign_code(2), order)
    expected = {(2, 1): 1, (1, 0): 1, (2, 0): 1, (1, 2): -1, (0, 1): -1, (0, 2): -1}
    assert dict(zip(permutations(config.window, 2), config.values.tolist())) == expected


def test_singleton_window_rejected():
    with pytest.raises(WindowTooSmall):
        apply_code(sign_code(2), LinearOrder.natural(Window((5,))))


def test_images_are_linear_orders_exhaustively():
    for n in range(3, 7):
        window = Window(tuple(range(n)))
        for i, order in enumerate(all_linear_orders(window)):
            image = apply_code(sign_code(2), order)
            assert realize(image) == order
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
    assert realize(config) is None  # transitivity fails on (0, 1, 2)


def test_constant_config_is_not_an_order():
    config = KConfig.from_function(2, Window((0, 1, 2)), lambda t: 1)
    assert realize(config) is None


def test_arity_mismatch():
    for k in (4, 5, 6):
        config = KConfig.from_function(k, Window(tuple(range(k))), lambda t: 1)
        with pytest.raises(ArityMismatch, match=f"^expected arity 2 or 3, got {k}$"):
            realize(config)


def test_decode_agrees_with_realize_row_by_row():
    # every order image on up to 6 points, and a copy with one value flipped,
    # staggered so that each value position is flipped in some image
    for k in (2, 3):
        for n in range(k, 7):
            window = Window(tuple(range(n)))
            images = codes.images(sign_code(k), position_tuples(n, n))
            flipped = images.copy()
            rows = np.arange(len(images))
            flipped[rows, rows % images.shape[1]] *= -1
            table = np.concatenate([images, flipped])
            ranks, ok = codes.decode(k, table, n)
            assert ranks.shape == (len(table), n) and ok.shape == (len(table),)
            assert ok[: len(images)].all()
            for values, candidate, found in zip(table, ranks, ok.tolist()):
                order = realize(KConfig(k, window, values))
                assert found == (order is not None)
                if found:
                    assert np.array_equal(order.ranks, candidate)


def test_decode_raises_arity_mismatch_as_realize_does():
    for k in (4, 5):
        with pytest.raises(ArityMismatch, match=f"^expected arity 2 or 3, got {k}$"):
            codes.decode(k, np.ones((3, math.perm(k, k)), dtype=np.int8), k)
        # below the arity too: the arity is checked first
        with pytest.raises(ArityMismatch, match=f"^expected arity 2 or 3, got {k}$"):
            realize(KConfig(k, Window((0, 1)), ()))


def test_realize_on_windows_below_the_arity():
    # no values to read: the natural order realizes the empty configuration
    for k, n in ((2, 0), (2, 1), (3, 0), (3, 1), (3, 2)):
        window = Window(tuple(range(5, 5 + n)))
        config = KConfig(k, window, ())
        assert realize(config) == LinearOrder.natural(window)
        assert_order_checks_match_reference(config)
    assert realize(config_from_text("k=3 window=\n")) == LinearOrder.natural(Window(()))


def test_round_trip_all_orders_up_to_five():
    for n in (2, 3, 4, 5):
        window = Window(tuple(range(n)))
        for order in all_linear_orders(window):
            assert realize(apply_code(sign_code(2), order)) == order


def test_valid_configs_on_four_window_are_exactly_the_order_images():
    # enumerate every +-1 assignment on the pairs of windows up to 4 points
    for n in range(5):
        window = Window(tuple(range(n)))
        valid = 0
        for values in product((1, -1), repeat=n * (n - 1)):
            config = KConfig(2, window, values)
            assert_order_checks_match_reference(config)
            valid += realize(config) is not None
        assert valid == math.factorial(n)


def test_config_from_seven_three_nine():
    order = LinearOrder.from_ranked_elements((7, 3, 9))
    assert realize(apply_code(sign_code(2), order)).ranked_elements() == (7, 3, 9)


@settings(max_examples=40, deadline=None)
@given(order_st(max_size=6))
def test_round_trip_random_windows(order):
    assert realize(apply_code(sign_code(2), order)) == order


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_order_encoding_is_equivariant(data):
    order = data.draw(order_st(max_size=5))
    images = data.draw(st.permutations(tuple(order.window)))
    alpha = FinPerm.from_dict(dict(zip(order.window, images)))
    pair_code = sign_code(2)
    assert apply_code(pair_code, relabel(order, alpha)) == apply_perm(
        alpha, apply_code(pair_code, order)
    )


# ---------------------------------------------------------------------------
# order types


def test_order_type_examples():
    natural = LinearOrder.natural(Window((0, 1, 2)))
    assert order_type((0, 1, 2), natural) == (0, 1, 2)
    two_five = LinearOrder.from_ranked_elements((2, 5))
    assert order_type((5, 2), two_five) == (1, 0)
    # tuple (b, c, a) with a < b < c
    natural_abc = LinearOrder.natural(Window((10, 20, 30)))
    sigma = order_type((20, 30, 10), natural_abc)
    assert sigma == (2, 0, 1)
    # its row of position_tuples(3, 3) holds an even permutation
    assert sign_code(3).table[list(permutations(range(3))).index(sigma)] == 1
    with pytest.raises(OutOfWindow):
        order_type((0, 9), natural)
    with pytest.raises(ValueError):
        order_type((0, 0), natural)


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
            assert apply_code(sign_code(2), rev) == negate(apply_code(sign_code(2), order))


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
    with pytest.raises(WindowTooSmall):
        reversal_class_rep(LinearOrder.natural(Window((3,))))


def shift_by_ranked_elements(order: LinearOrder) -> LinearOrder:
    """Reference cyclic shift: the ranked element list rotated by one."""
    ranked = order.ranked_elements()
    return LinearOrder.from_ranked_elements((ranked[-1],) + ranked[:-1])


def class_rep_by_rank_of(order: LinearOrder) -> LinearOrder:
    """Reference class representative: the window's least element ranked
    below its greatest, read through `rank_of`."""
    lo, hi = order.window.elements[0], order.window.elements[-1]
    return order if order.rank_of(lo) < order.rank_of(hi) else reverse(order)


@settings(max_examples=200, deadline=None)
@given(order_st(min_size=1, max_size=8))
def test_shift_and_class_rep_match_their_element_routes(order):
    assert cyclic_shift(order) == shift_by_ranked_elements(order)
    if len(order.window) >= 2:
        assert reversal_class_rep(order) == class_rep_by_rank_of(order)


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
        images = {apply_code(sign_code(3), order) for order in all_linear_orders(window)}
        images = sorted(images, key=str)
        for i, image in enumerate(images):
            assert realize(image) is not None
            assert_order_checks_match_reference(image)
            stride = 1 if n < 6 else 12  # as for the pair images above
            for flipped in one_value_flips(image, i % stride, stride):
                assert_order_checks_match_reference(flipped)


def test_all_plus_cyclic_triples_realizable_on_three_window():
    window = Window((0, 1, 2))
    config = alternating_triple_config(window, {(0, 1, 2): 1})
    # the six orders on the window produce exactly two codes; this is one
    matches = [
        order for order in all_linear_orders(window) if apply_code(sign_code(3), order) == config
    ]
    assert matches, "expected the code of the ascending chain"
    assert realize(config) in matches


def test_frozen_non_realizable_configuration():
    window = Window((0, 1, 2, 3))
    config = alternating_triple_config(window, NON_REALIZABLE_TRIPLE_SIGNS)
    assert not any(
        apply_code(sign_code(3), order) == config for order in all_linear_orders(window)
    )
    assert realize(config) is None


def test_circular_check_matches_reference_on_alternating_four_point_configs():
    window = Window((0, 1, 2, 3))
    increasing = [t for t in permutations(window.elements, 3) if t == tuple(sorted(t))]
    realizable = 0
    for signs in product((1, -1), repeat=len(increasing)):
        config = alternating_triple_config(window, dict(zip(increasing, signs)))
        assert_order_checks_match_reference(config)
        realizable += realize(config) is not None
    assert realizable == math.factorial(3)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((2, 3)).flatmap(config_st))
def test_order_checks_match_reference_on_random_configs(config):
    assert_order_checks_match_reference(config)


def test_realizability_errors():
    constant = KConfig.from_function(3, Window((0, 1, 2)), lambda t: 1)
    assert realize(constant) is None
    big = Window(tuple(range(9)))
    rotated = LinearOrder.from_ranked_elements((3, 4, 5, 6, 7, 8, 0, 1, 2))
    assert realize(apply_code(sign_code(3), rotated)) == LinearOrder.natural(big)


def test_circular_image_count_is_shifted_factorial():
    for n in (3, 4, 5):
        window = Window(tuple(range(n)))
        images = {apply_code(sign_code(3), order) for order in all_linear_orders(window)}
        assert len(images) == math.factorial(n - 1)
        # each circular order comes from exactly n linear orders
        hits = {}
        for order in all_linear_orders(window):
            image = apply_code(sign_code(3), order)
            hits[image] = hits.get(image, 0) + 1
        assert set(hits.values()) == {n}


def test_cyclic_shift_preserves_the_circular_code():
    for n in (3, 4, 5):
        window = Window(tuple(range(n)))
        for order in all_linear_orders(window):
            shifted = cyclic_shift(order)
            assert shifted != order
            assert apply_code(sign_code(3), shifted) == apply_code(sign_code(3), order)
