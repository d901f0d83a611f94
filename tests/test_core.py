import inspect
import math
import tracemalloc
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orderflow import (
    DomainEscape,
    FinPerm,
    FormatError,
    KConfig,
    OutOfWindow,
    Window,
    apply_code,
    apply_perm,
    compose,
    config_from_text,
    config_to_text,
    core,
    extend_bijection,
    inverse,
    is_alternating,
    negate,
    perm_from_text,
    perm_to_text,
    sign_code,
)
from orderflow.core import _preimage_positions, config_text_size, pattern_index, position_tuples
from orderflow.orders import LinearOrder, all_linear_orders


# ---------------------------------------------------------------------------
# independent oracles


def naive_apply(alpha: FinPerm, config: KConfig) -> dict:
    """Dictionary-based action: read the old value at the entrywise preimage."""
    inv = {b: a for a, b in alpha.mapping}
    new_window = sorted(alpha(x) for x in config.window)
    old = as_dict(config)
    out = {}
    for t in permutations(new_window, config.k):
        out[t] = old[tuple(inv.get(x, x) for x in t)]
    return out


def items(config: KConfig):
    """(tuple, value) pairs, the tuples in the stored order."""
    return zip(permutations(config.window.elements, config.k), config.values.tolist())


def as_dict(config: KConfig) -> dict:
    return dict(items(config))


def reference_config_text(config: KConfig) -> str:
    """The configuration text joined one string per tuple."""
    header = f"k={config.k} window={','.join(map(str, config.window))}"
    heads = map(" ".join, permutations(list(map(str, config.window)), config.k))
    suffixes = {1: " : +1", -1: " : -1"}
    body = map(str.__add__, heads, map(suffixes.__getitem__, config.values.tolist()))
    return "\n".join([header, *body]) + "\n"


def full_alternation(config: KConfig) -> bool:
    """Check every sigma in S_k, not just adjacent transpositions."""
    k = config.k
    values = as_dict(config)
    for t, v in values.items():
        for sigma in permutations(range(k)):
            inversions = sum(
                1 for i in range(k) for j in range(i + 1, k) if sigma[i] > sigma[j]
            )
            sign = -1 if inversions % 2 else 1
            if values[tuple(t[s] for s in sigma)] != sign * v:
                return False
    return True


# ---------------------------------------------------------------------------
# strategies


def window_st(min_size=2, max_size=6):
    return st.lists(
        st.integers(-30, 30), unique=True, min_size=min_size, max_size=max_size
    ).map(lambda xs: Window(tuple(sorted(xs))))


@st.composite
def config_st(draw, k=2, min_size=None, max_size=6):
    window = draw(window_st(min_size or k, max_size))
    count = math.perm(len(window), k)
    values = draw(st.tuples(*[st.sampled_from((1, -1))] * count))
    return KConfig(k, window, values)


@st.composite
def perm_of_window_st(draw, window):
    elems = list(window)
    images = draw(st.permutations(elems))
    return FinPerm.from_dict(dict(zip(elems, images)))


# ---------------------------------------------------------------------------
# windows, tuples, ranks


def test_window_rejects_unsorted_and_duplicates():
    with pytest.raises(ValueError):
        Window((1, 0))
    with pytest.raises(ValueError):
        Window((0, 0, 1))
    assert Window.of([5, -2, 3]).elements == (-2, 3, 5)
    with pytest.raises(ValueError):
        Window(range(5, 0, -1))


@pytest.mark.parametrize("r", [range(0), range(5, 9), range(0, 10, 3)])
def test_window_from_a_range_is_the_window_from_its_tuple(r):
    w = Window(r)
    assert w == Window(tuple(r)) and hash(w) == hash(Window(tuple(r)))
    assert type(w.elements) is tuple and all(type(x) is int for x in w.elements)


def test_unsorted_window_error_names_the_first_fault_briefly():
    elems = list(range(10**5))
    elems[70_000] = 5
    with pytest.raises(ValueError) as raised:
        Window(elems)
    assert str(raised.value) == (
        "window elements must be strictly increasing: element 70000 of 100000 is 5, after 69999"
    )


def test_window_position_and_membership():
    w = Window((3, 7, 9))
    assert w.position(7) == 1
    assert w.position(np.int64(9)) == 2
    assert 9 in w and np.int64(3) in w
    # below the first element, above the last, and between two elements
    for x in (2, 10, 4, 8):
        assert x not in w
        with pytest.raises(OutOfWindow):
            w.position(x)
    empty = Window(())
    assert 0 not in empty
    with pytest.raises(OutOfWindow):
        empty.position(0)


def test_window_errors_name_the_window_by_size_and_end_points():
    with pytest.raises(OutOfWindow, match="^4 is not in a 3-point window from 3 to 9$"):
        Window((3, 7, 9)).position(4)
    with pytest.raises(OutOfWindow, match="^0 is not in the empty window$"):
        Window(()).position(0)
    # a miss on a 4^10-point ground does not print the ground
    ground = Window(tuple(range(4**10)))
    with pytest.raises(OutOfWindow) as missed:
        ground.position(-1)
    with pytest.raises(DomainEscape) as escaped:
        _preimage_positions(FinPerm.from_dict({0: -1, -1: 0}), Window((0,)), ground)
    message = "preimage -1 of 0 lies outside a 1048576-point window from 0 to 1048575"
    assert str(escaped.value) == message
    assert len(str(missed.value)) < 200 and len(str(escaped.value)) < 200


def test_position_tuples_is_one_read_only_table_per_shape():
    table = position_tuples(5, 3)
    assert table.shape == (60, 3)
    assert table.tolist() == [list(t) for t in permutations(range(5), 3)]
    with pytest.raises(ValueError):
        table[0, 0] = 4
    with pytest.raises(ValueError):
        table.T[0, 0] = 4
    assert np.array_equal(position_tuples(5, 3), table)
    assert inspect.isfunction(position_tuples)


def test_tuple_rank_matches_enumeration_order():
    # the rank of a k-tuple's pattern is `pattern_index` of its columns
    for k in range(1, 9):
        # one column per permutation of range(k), in permutations order
        table = np.array(list(permutations(range(k)))).T
        expected = list(range(math.factorial(k)))
        assert pattern_index(table).tolist() == expected
        # only the relative order of the values is read
        assert pattern_index(10 * table - 7).tolist() == expected
        values = np.array([-5, 0, 3, 40, 41, 99, 100, 101])
        assert pattern_index(values[table]).tolist() == expected
        # in the ranks' own dtype, each copy spread over its dtype's range;
        # a slot counts up to 7 smaller later entries at k = 8
        for copy in (
            table.astype(np.uint8) * 30 + 10,
            (table * 8_000 + 1_000).astype(np.uint16),
            (table * 500_000_000 + 7).astype(np.uint32),
            table.astype(np.int64),
            table * 3 - 2**40,
        ):
            got = pattern_index(copy)
            assert got.dtype == np.int64 and got.tolist() == expected, (k, copy.dtype)


def test_kconfig_value_count_is_falling_factorial():
    for n, k in [(3, 2), (5, 2), (5, 3), (6, 4)]:
        window = Window(tuple(range(n)))
        config = KConfig.from_function(k, window, lambda t: 1 if t[0] < t[1] else -1)
        assert len(config.values) == math.perm(n, k)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dense_array_agrees_with_the_stored_values(data):
    k = data.draw(st.sampled_from((2, 3)))
    window = data.draw(window_st(0, 5))
    n = len(window)
    values = data.draw(st.tuples(*[st.sampled_from((1, -1))] * math.perm(n, k)))
    config = KConfig(k, window, values)
    stored = as_dict(config)
    array = config.array
    assert array.shape == (n,) * k and array.dtype == np.int8
    for positions in product(range(n), repeat=k):
        t = tuple(window.elements[p] for p in positions)
        if len(set(positions)) == k:
            assert array[positions] == stored[t]
        else:
            assert array[positions] == 0
    assert not array.flags.writeable
    if n:
        with pytest.raises(ValueError):
            array[(0,) * k] = 0
    assert config.array is array


def test_kconfig_rejects_bad_values():
    w = Window((0, 1))
    with pytest.raises(ValueError):
        KConfig(2, w, (1,))
    with pytest.raises(ValueError):
        KConfig(2, w, (1, 0))
    with pytest.raises(ValueError, match="^arity must be at least 2, got 1$"):
        KConfig(1, w, (1, -1))
    with pytest.raises(ValueError):
        KConfig.from_function(7, Window(tuple(range(8))), lambda t: 1)
    # values past int8 or off the integers are rejected before any cast
    for bad in (2, 300, -129, 2**70, 1.5, -0.5, "1", None):
        for values in ((1, bad), [bad, -1], np.array([1, bad])):
            with pytest.raises(ValueError, match=r"^configuration values must be \+1 or -1$"):
                KConfig(2, w, values)
    for values in ((1, -1, 1), [[1, -1]], np.ones((2, 1))):
        with pytest.raises(ValueError, match="^need 2 values"):
            KConfig(2, w, values)


@pytest.mark.parametrize("dtype", [np.int8, np.int64])
def test_kconfig_values_are_a_read_only_int8_copy(dtype):
    source = np.array([1, -1, -1, 1, 1, -1], dtype=dtype)
    config = KConfig(2, Window((0, 1, 2)), source)
    assert config.values.dtype == np.int8 and config.values.shape == (6,)
    assert not config.values.flags.writeable
    with pytest.raises(ValueError):
        config.values[0] = -1
    source[0] = -1
    assert config.values.tolist() == [1, -1, -1, 1, 1, -1]


def test_kconfig_equality_and_hash_ignore_the_input_type():
    w = Window((0, 1, 2))
    values = (1, -1, -1, 1, 1, -1)
    inputs = [
        values,
        list(values),
        np.array(values),
        np.array(values, dtype=np.int8),
        np.array(values, dtype=np.float64),
        np.array(values, dtype=np.int16),
    ]
    configs = [KConfig(2, w, v) for v in inputs]
    assert all(c == configs[0] and hash(c) == hash(configs[0]) for c in configs)
    assert len(set(configs)) == 1
    flipped = KConfig(2, w, (-1,) + values[1:])
    assert flipped != configs[0]
    # same value bytes, different arity or window
    assert KConfig(3, w, values) != configs[0]
    assert KConfig(2, Window((0, 1, 3)), values) != configs[0]
    assert configs[0] != values


# ---------------------------------------------------------------------------
# finite-support permutations


def test_finperm_canonical_form():
    assert FinPerm(((2, 2), (0, 1), (1, 0))).mapping == ((0, 1), (1, 0))
    assert FinPerm.identity() == FinPerm(((5, 5),))
    with pytest.raises(ValueError):
        FinPerm(((0, 1),))
    with pytest.raises(ValueError):
        FinPerm(((0, 1), (0, 2), (1, 0), (2, 0)))


def test_compose_identity_and_inverse():
    beta = FinPerm.from_dict({0: 1, 1: 2, 2: 0})
    assert compose(FinPerm.identity(), beta) == beta
    assert compose(beta, FinPerm.identity()) == beta
    assert compose(beta, inverse(beta)) == FinPerm.identity()


def test_compose_applies_right_factor_first():
    alpha = FinPerm.from_dict({0: 1, 1: 0})
    beta = FinPerm.from_dict({1: 2, 2: 1})
    composite = compose(alpha, beta)
    # pointwise: x -> beta(x) -> alpha(beta(x))
    for x in (0, 1, 2, 3):
        assert composite(x) == alpha(beta(x))
    assert composite == FinPerm.from_dict({0: 1, 1: 2, 2: 0})


def test_inverse_examples():
    assert inverse(FinPerm.identity()) == FinPerm.identity()
    swap = FinPerm.from_dict({4: 7, 7: 4})
    assert inverse(swap) == swap
    cycle = FinPerm.from_dict({0: 1, 1: 2, 2: 0})
    assert inverse(cycle) == FinPerm.from_dict({0: 2, 2: 1, 1: 0})


def test_extend_bijection_is_canonical():
    alpha = extend_bijection({0: 10, 1: 11})
    assert alpha(0) == 10 and alpha(1) == 11
    # leftover sources 10, 11 map back onto leftover targets 0, 1 in order
    assert alpha(10) == 0 and alpha(11) == 1
    with pytest.raises(ValueError):
        extend_bijection({0: 5, 1: 5})


# ---------------------------------------------------------------------------
# the action


def test_identity_acts_trivially():
    order = LinearOrder.natural(Window((0, 1, 2)))
    config = apply_code(sign_code(2), order)
    assert apply_perm(FinPerm.identity(), config) == config


def test_transposition_on_three_chain():
    config = apply_code(sign_code(2), LinearOrder.natural(Window((0, 1, 2))))
    swap = FinPerm.from_dict({0: 1, 1: 0})
    moved = apply_perm(swap, config)
    assert as_dict(moved) == naive_apply(swap, config)
    assert as_dict(moved)[1, 0] == 1  # ranks of 0 and 1 swapped


def test_shift_twice_equals_squared_shift():
    window = Window((0, 1, 2))
    config = apply_code(sign_code(2), LinearOrder(window, (1, 2, 0)))
    shift = FinPerm.from_dict({0: 1, 1: 2, 2: 0})
    twice = apply_perm(shift, apply_perm(shift, config))
    squared = apply_perm(compose(shift, shift), config)
    assert twice == squared


def test_apply_perm_relocates_the_window():
    config = apply_code(sign_code(2), LinearOrder.natural(Window((0, 1))))
    moved = apply_perm(FinPerm.from_dict({0: 10, 10: 0}), config)
    assert moved.window == Window((1, 10))
    assert as_dict(moved)[10, 1] == 1  # preimages keep the old comparison


def test_apply_perm_requested_window_escape():
    config = apply_code(sign_code(2), LinearOrder.natural(Window((0, 1, 2))))
    with pytest.raises(DomainEscape):
        apply_perm(FinPerm.identity(), config, window=Window((0, 5)))
    # the first escaping point in window order is named, preimage first
    alpha = FinPerm.from_dict({5: 6, 6: 5, 7: 8, 8: 7})
    with pytest.raises(DomainEscape) as excinfo:
        apply_perm(alpha, config, window=Window((0, 5, 7)))
    assert str(excinfo.value) == "preimage 6 of 5 lies outside a 3-point window from 0 to 2"


def test_restrict_and_negate():
    config = apply_code(sign_code(2), LinearOrder.natural(Window((0, 1, 2, 3))))
    sub = apply_perm(FinPerm.identity(), config, window=Window((1, 3)))
    assert as_dict(sub) == {(1, 3): 1, (3, 1): -1}
    assert as_dict(negate(config))[0, 1] == -1
    with pytest.raises(DomainEscape):
        apply_perm(FinPerm.identity(), config, window=Window((0, 9)))


def test_moving_onto_a_window_below_the_arity_gives_an_empty_config():
    config = KConfig.from_function(
        3, Window((0, 1, 2, 3)), lambda t: 1 if t[0] < t[1] else -1
    )
    for sub in (Window(()), Window((2,)), Window((1, 3))):
        assert apply_perm(FinPerm.identity(), config, window=sub) == KConfig(3, sub, ())
    empty = KConfig(3, Window((0, 1)), ())
    assert apply_perm(FinPerm.from_dict({0: 5, 5: 0}), empty) == KConfig(3, Window((1, 5)), ())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_action_is_a_group_action(data):
    window = data.draw(window_st(2, 5))
    k = data.draw(st.sampled_from((2, 3)))
    if len(window) < k:
        k = 2
    config = data.draw(config_st(k=k, min_size=len(window), max_size=len(window)))
    window = config.window
    alpha = data.draw(perm_of_window_st(window))
    beta = data.draw(perm_of_window_st(window))
    assert apply_perm(compose(alpha, beta), config) == apply_perm(
        alpha, apply_perm(beta, config)
    )
    assert as_dict(apply_perm(alpha, config)) == naive_apply(alpha, config)


# ---------------------------------------------------------------------------
# alternation


def test_constant_config_is_not_alternating():
    config = KConfig.from_function(2, Window((0, 1, 2)), lambda t: 1)
    assert not is_alternating(config)
    assert not full_alternation(config)


def test_order_configs_alternate_exhaustively():
    for n in (2, 3, 4, 5):
        window = Window(tuple(range(n)))
        for order in all_linear_orders(window):
            config = apply_code(sign_code(2), order)
            assert is_alternating(config)
    # the adjacent-transposition shortcut agrees with the full check
    window = Window((0, 2, 5, 6))
    config = apply_code(sign_code(2), LinearOrder(window, (2, 0, 3, 1)))
    assert is_alternating(config) == full_alternation(config) == True  # noqa: E712


@settings(max_examples=40, deadline=None)
@given(config_st(k=2, max_size=4))
def test_alternation_shortcut_matches_full_check(config):
    assert is_alternating(config) == full_alternation(config)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_action_preserves_alternation(data):
    config = data.draw(config_st(k=2, max_size=5))
    alpha = data.draw(perm_of_window_st(config.window))
    assert is_alternating(apply_perm(alpha, config)) == is_alternating(config)


# ---------------------------------------------------------------------------
# text formats


def test_config_text_round_trip():
    config = apply_code(sign_code(2), LinearOrder(Window((3, 7, 9)), (1, 0, 2)))
    text = config_to_text(config)
    assert text.splitlines()[0] == "k=2 window=3,7,9"
    assert config_from_text(text) == config


def test_config_text_without_tuples_is_the_header_line():
    config = KConfig(3, Window((1, 2)), ())
    assert config_to_text(config) == "k=3 window=1,2\n"
    assert config_from_text("k=3 window=1,2\n") == config


@settings(max_examples=30, deadline=None)
@given(config_st(k=2, max_size=4))
def test_config_text_round_trip_random(config):
    assert config_from_text(config_to_text(config)) == config


@st.composite
def wide_config_st(draw):
    """A k = 2..5 configuration on up to 6 points of mixed sign and width,
    20+ digit integers among them; the window may be empty or below k."""
    k = draw(st.integers(2, 5))
    point = st.one_of(
        st.integers(-30, 30), st.integers(-(10**6), 10**6), st.integers(-(10**25), 10**25)
    )
    window = Window.of(draw(st.lists(point, unique=True, max_size=6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    signs = rng.integers(0, 2, math.perm(len(window), k))
    return KConfig(k, window, 1 - 2 * signs)


def alternating_config(k, elements):
    window = Window(elements)
    return KConfig(k, window, [(-1) ** i for i in range(math.perm(len(window), k))])


@settings(max_examples=200, deadline=None)
@given(wide_config_st())
@example(alternating_config(2, ()))
@example(alternating_config(3, (5,)))
@example(alternating_config(5, (-3, 7)))
@example(alternating_config(3, (-(10**21), -9, 0, 10**24)))
def test_config_text_matches_the_per_tuple_writer(config):
    assert config_to_text(config) == reference_config_text(config)


@settings(max_examples=200, deadline=None)
@given(wide_config_st())
@example(alternating_config(2, ()))
@example(alternating_config(3, (5,)))
@example(alternating_config(4, (-(10**21), -9, 0, 10**24)))
@example(alternating_config(2, tuple(range(60)) + (10**3999,)))
def test_config_text_size_is_the_length_written(config):
    assert config_text_size(config.k, config.window) == len(config_to_text(config))


@pytest.mark.parametrize("wide", [(), (10**3999,)], ids=["even", "one-wide-point"])
def test_config_text_memory_grows_with_the_text(wide):
    # one 4,000-digit point among 60 short ones: padding every cell to its
    # width would take a 29 MB table for 0.5 MB of text
    config = alternating_config(2, tuple(range(60)) + wide)
    expected = reference_config_text(config)
    tracemalloc.start()
    try:
        text = config_to_text(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == expected
    assert peak < 4 * len(text) + 2**16


@pytest.mark.parametrize(
    "k, points, padded",
    [
        (4, tuple(range(8)), True),
        (2, tuple(10**300 + i for i in range(40)), False),
        (3, tuple(10**300 + i for i in range(12)), False),
    ],
    ids=["short-even", "long-even-k2", "long-even-k3"],
)
def test_config_text_pads_short_rows_and_joins_long_ones(k, points, padded, monkeypatch):
    # every cell is as wide as the mean; only the padded table reads the
    # tuple table, and 301-digit cells make rows past the padded bound
    config = alternating_config(k, points)
    expected = reference_config_text(config)
    tables = []

    def counted(n, k):
        tables.append((n, k))
        return position_tuples(n, k)

    monkeypatch.setattr(core, "position_tuples", counted)
    assert config_to_text(config) == expected
    assert bool(tables) == padded


def test_config_text_errors_carry_line_numbers():
    good = config_to_text(apply_code(sign_code(2), LinearOrder.natural(Window((0, 1)))))
    lines = good.splitlines()
    with pytest.raises(FormatError, match="^the header gives 33 characters, the text has 36$"):
        config_from_text("\n".join([lines[0], lines[1], "0 1 : banana"]))
    with pytest.raises(FormatError, match="^the header gives 33 characters, the text has 30$"):
        config_from_text("\n".join([lines[0], lines[1], "1 0 -1"]))
    with pytest.raises(FormatError, match="^the header gives 33 characters, the text has 32$"):
        config_from_text("\n".join([lines[0], lines[1], "1 0 : up"]))
    with pytest.raises(FormatError, match="line 1"):
        config_from_text("nonsense")
    for header in ("k=1 window=0,1", "k=-1 window=0,1", "k=100 window=0,1"):
        with pytest.raises(FormatError, match="line 1"):
            config_from_text(header)
    with pytest.raises(FormatError, match="^the header gives 33 characters, the text has 23$"):
        config_from_text("\n".join([lines[0], lines[1]]))


def test_perm_text_round_trip():
    alpha = FinPerm.from_dict({0: 2, 2: 5, 5: 0})
    assert perm_to_text(alpha) == "0->2,2->5,5->0"
    assert perm_from_text(perm_to_text(alpha)) == alpha
    assert perm_from_text("") == FinPerm.identity()
    assert perm_to_text(FinPerm.identity()) == ""
    with pytest.raises(FormatError):
        perm_from_text("0->1")  # not a bijection
    with pytest.raises(FormatError):
        perm_from_text("0=1")
    with pytest.raises(FormatError, match="duplicate source 0"):
        perm_from_text("0->1,0->1,1->0")
