import math
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderflow import (
    DomainEscape,
    FinPerm,
    FormatError,
    InjTuple,
    KConfig,
    OutOfWindow,
    Window,
    apply_perm,
    compose,
    config_from_text,
    config_to_text,
    extend_bijection,
    inverse,
    is_alternating,
    lin_order_to_config2,
    negate,
    perm_from_text,
    perm_to_text,
    restrict,
    tuple_rank,
)
from orderflow.orders import LinearOrder, all_linear_orders


# ---------------------------------------------------------------------------
# independent oracles


def naive_apply(alpha: FinPerm, config: KConfig) -> dict:
    """Dictionary-based action: read the old value at the entrywise preimage."""
    inv = {b: a for a, b in alpha.mapping}
    new_window = sorted(alpha(x) for x in config.window)
    out = {}
    for t in permutations(new_window, config.k):
        out[t] = config.value(tuple(inv.get(x, x) for x in t))
    return out


def as_dict(config: KConfig) -> dict:
    return dict(config.items())


def full_alternation(config: KConfig) -> bool:
    """Check every sigma in S_k, not just adjacent transpositions."""
    k = config.k
    for t, v in config.items():
        for sigma in permutations(range(k)):
            inversions = sum(
                1 for i in range(k) for j in range(i + 1, k) if sigma[i] > sigma[j]
            )
            sign = -1 if inversions % 2 else 1
            if config.value(tuple(t[s] for s in sigma)) != sign * v:
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


def test_window_position_and_membership():
    w = Window((3, 7, 9))
    assert w.position(7) == 1
    assert 9 in w and 4 not in w
    with pytest.raises(OutOfWindow):
        w.position(4)


def test_inj_tuple_validation():
    assert tuple(InjTuple((3, 1, 2))) == (3, 1, 2)
    with pytest.raises(ValueError):
        InjTuple((1, 1))
    with pytest.raises(ValueError):
        InjTuple((1,))


def test_tuple_rank_matches_enumeration_order():
    for n, k in [(3, 2), (4, 2), (4, 3), (5, 3)]:
        for i, t in enumerate(permutations(range(n), k)):
            assert tuple_rank(t, n) == i


def test_kconfig_value_count_is_falling_factorial():
    for n, k in [(3, 2), (5, 2), (5, 3), (6, 4)]:
        window = Window(tuple(range(n)))
        config = KConfig.from_function(k, window, lambda t: 1 if t[0] < t[1] else -1)
        assert len(config.values) == math.perm(n, k)


def test_kconfig_rejects_bad_values():
    w = Window((0, 1))
    with pytest.raises(ValueError):
        KConfig(2, w, (1,))
    with pytest.raises(ValueError):
        KConfig(2, w, (1, 0))
    with pytest.raises(ValueError):
        KConfig.from_function(7, Window(tuple(range(8))), lambda t: 1)


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
    beta = FinPerm.from_cycles((0, 1, 2))
    assert compose(FinPerm.identity(), beta) == beta
    assert compose(beta, FinPerm.identity()) == beta
    assert compose(beta, inverse(beta)) == FinPerm.identity()


def test_compose_applies_right_factor_first():
    alpha = FinPerm.from_cycles((0, 1))
    beta = FinPerm.from_cycles((1, 2))
    composite = compose(alpha, beta)
    # pointwise: x -> beta(x) -> alpha(beta(x))
    for x in (0, 1, 2, 3):
        assert composite(x) == alpha(beta(x))
    assert composite == FinPerm.from_dict({0: 1, 1: 2, 2: 0})


def test_inverse_examples():
    assert inverse(FinPerm.identity()) == FinPerm.identity()
    swap = FinPerm.from_cycles((4, 7))
    assert inverse(swap) == swap
    cycle = FinPerm.from_cycles((0, 1, 2))
    assert inverse(cycle) == FinPerm.from_cycles((0, 2, 1))


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
    config = lin_order_to_config2(order)
    assert apply_perm(FinPerm.identity(), config) == config


def test_transposition_on_three_chain():
    config = lin_order_to_config2(LinearOrder.natural(Window((0, 1, 2))))
    moved = apply_perm(FinPerm.from_cycles((0, 1)), config)
    assert as_dict(moved) == naive_apply(FinPerm.from_cycles((0, 1)), config)
    assert moved.value((1, 0)) == 1  # ranks of 0 and 1 swapped


def test_shift_twice_equals_squared_shift():
    window = Window((0, 1, 2))
    config = lin_order_to_config2(LinearOrder(window, (1, 2, 0)))
    shift = FinPerm.from_cycles((0, 1, 2))
    twice = apply_perm(shift, apply_perm(shift, config))
    squared = apply_perm(compose(shift, shift), config)
    assert twice == squared


def test_apply_perm_relocates_the_window():
    config = lin_order_to_config2(LinearOrder.natural(Window((0, 1))))
    moved = apply_perm(FinPerm.from_dict({0: 10, 10: 0}), config)
    assert moved.window == Window((1, 10))
    assert moved.value((10, 1)) == 1  # preimages keep the old comparison


def test_apply_perm_requested_window_escape():
    config = lin_order_to_config2(LinearOrder.natural(Window((0, 1, 2))))
    with pytest.raises(DomainEscape):
        apply_perm(FinPerm.identity(), config, window=Window((0, 5)))


def test_restrict_and_negate():
    config = lin_order_to_config2(LinearOrder.natural(Window((0, 1, 2, 3))))
    sub = restrict(config, Window((1, 3)))
    assert as_dict(sub) == {(1, 3): 1, (3, 1): -1}
    assert negate(config).value((0, 1)) == -1
    with pytest.raises(DomainEscape):
        restrict(config, Window((0, 9)))


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
            config = lin_order_to_config2(order)
            assert is_alternating(config)
    # the adjacent-transposition shortcut agrees with the full check
    window = Window((0, 2, 5, 6))
    config = lin_order_to_config2(LinearOrder(window, (2, 0, 3, 1)))
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
    config = lin_order_to_config2(LinearOrder(Window((3, 7, 9)), (1, 0, 2)))
    text = config_to_text(config)
    assert text.splitlines()[0] == "k=2 window=3,7,9"
    assert config_from_text(text) == config


@settings(max_examples=30, deadline=None)
@given(config_st(k=2, max_size=4))
def test_config_text_round_trip_random(config):
    assert config_from_text(config_to_text(config)) == config


def test_config_text_errors_carry_line_numbers():
    good = config_to_text(lin_order_to_config2(LinearOrder.natural(Window((0, 1)))))
    lines = good.splitlines()
    with pytest.raises(FormatError, match="line 3"):
        config_from_text("\n".join([lines[0], lines[1], "0 1 : banana"]))
    with pytest.raises(FormatError, match="line 1"):
        config_from_text("nonsense")
    for header in ("k=1 window=0,1", "k=-1 window=0,1", "k=100 window=0,1"):
        with pytest.raises(FormatError, match="line 1"):
            config_from_text(header)
    with pytest.raises(FormatError, match="missing"):
        config_from_text("\n".join([lines[0], lines[1]]))


def test_perm_text_round_trip():
    alpha = FinPerm.from_cycles((0, 2, 5))
    assert perm_to_text(alpha) == "0->2,2->5,5->0"
    assert perm_from_text(perm_to_text(alpha)) == alpha
    assert perm_from_text("") == FinPerm.identity()
    assert perm_to_text(FinPerm.identity()) == ""
    with pytest.raises(FormatError):
        perm_from_text("0->1")  # not a bijection
    with pytest.raises(FormatError):
        perm_from_text("0=1")
