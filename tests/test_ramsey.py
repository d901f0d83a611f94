import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderflow import (
    DegenerateWindow,
    DomainEscape,
    FinPerm,
    GroundTooSmall,
    LinearOrder,
    MINIMALITY,
    PROXIMALITY_AGREE,
    PROXIMALITY_REVERSE,
    PairColoring,
    Window,
    Witness,
    all_linear_orders,
    apply_perm,
    compose,
    extend_bijection,
    is_monochromatic,
    lin_order_to_config2,
    minimality_witness,
    negate,
    proximality_witness,
    ramsey_mono_subset,
    random_linear_order,
    reverse,
    verify_minimality,
    verify_proximality,
    witness_from_text,
    witness_to_text,
)
from orderflow.ramsey import AgreementColoring


def random_coloring(ground: Window, seed: int) -> PairColoring:
    rng = random.Random(seed)
    return PairColoring.from_function(ground, lambda a, b: rng.randint(0, 1))


# ---------------------------------------------------------------------------
# pair colorings


def test_coloring_shape_and_lookup():
    ground = Window((0, 2, 5))
    coloring = PairColoring.from_function(ground, lambda a, b: 1 if a == 0 else 0)
    assert coloring.colors == (1, 1, 0)
    assert coloring.color_of(2, 0) == 1
    assert coloring.color_of(5, 2) == 0
    with pytest.raises(ValueError):
        PairColoring(ground, (0, 1))
    with pytest.raises(ValueError):
        coloring.color_of(2, 2)


def test_agreement_coloring_of_identical_orders_is_constant():
    ground = Window(tuple(range(10)))
    order = random_linear_order(ground, 3)
    coloring = PairColoring.from_orders(order, order)
    assert set(coloring.colors) == {0}
    reversed_coloring = PairColoring.from_orders(order, reverse(order))
    assert set(reversed_coloring.colors) == {1}


def test_on_demand_coloring_matches_the_table():
    ground = Window(tuple(range(3, 40)))
    o1 = random_linear_order(ground, 8)
    for o2 in (o1, reverse(o1), random_linear_order(ground, 9)):
        table = PairColoring.from_orders(o1, o2)
        lazy = AgreementColoring(o1, o2)
        assert lazy.ground == table.ground
        for a, b in itertools.permutations(ground.elements[:12], 2):
            assert lazy.color_of(a, b) == table.color_of(a, b)
        assert ramsey_mono_subset(lazy, 2) == ramsey_mono_subset(table, 2)
    with pytest.raises(ValueError):
        lazy.color_of(5, 5)
    with pytest.raises(ValueError):
        AgreementColoring(o1, LinearOrder.natural(Window(tuple(range(40)))))


# ---------------------------------------------------------------------------
# monochromatic extraction


def test_constant_coloring_returns_first_elements():
    ground = Window(tuple(range(20)))
    coloring = PairColoring.from_function(ground, lambda a, b: 0)
    assert ramsey_mono_subset(coloring, 2) == (0, 1)


def test_random_coloring_yields_verified_monochromatic_set():
    ground = Window(tuple(range(256)))
    for seed in range(5):
        coloring = random_coloring(ground, seed)
        subset = ramsey_mono_subset(coloring, 4)
        assert len(subset) == 4
        assert subset == tuple(sorted(subset))
        assert is_monochromatic(coloring, subset)
        assert subset == ramsey_mono_subset(coloring, 4)  # deterministic


def test_ground_too_small():
    ground = Window(tuple(range(10)))
    coloring = random_coloring(ground, 1)
    with pytest.raises(GroundTooSmall):
        ramsey_mono_subset(coloring, 2)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from((1, 2, 3)))
def test_extraction_always_succeeds_at_the_bound(seed, m):
    ground = Window(tuple(range(4**m)))
    coloring = random_coloring(ground, seed)
    subset = ramsey_mono_subset(coloring, m)
    assert len(subset) == m
    assert is_monochromatic(coloring, subset)


# ---------------------------------------------------------------------------
# minimality witnesses


def test_matching_restriction_gives_identity_witness():
    ground = Window(tuple(range(8)))
    source = LinearOrder.natural(ground)
    target = LinearOrder.natural(Window((0, 1, 2)))
    witness = minimality_witness(source, target)
    assert witness.alpha == FinPerm.identity()
    assert verify_minimality(witness, source, target)


def test_witness_for_a_permuted_target():
    source = LinearOrder.natural(Window(tuple(range(20))))
    target = LinearOrder.from_ranked_elements((2, 0, 1))
    witness = minimality_witness(source, target)
    moved = apply_perm(
        witness.alpha, lin_order_to_config2(source), window=target.window
    )
    assert moved == lin_order_to_config2(target)
    assert witness.alpha(0) == 2 and witness.alpha(1) == 0 and witness.alpha(2) == 1


def test_every_target_pattern_is_reachable():
    ground = Window(tuple(range(20)))
    window = Window(tuple(range(4)))
    for seed in range(3):
        source = random_linear_order(ground, seed)
        for target in all_linear_orders(window):
            witness = minimality_witness(source, target)
            assert verify_minimality(witness, source, target)


def test_minimality_ground_too_small():
    source = LinearOrder.natural(Window((0, 1)))
    target = LinearOrder.natural(Window((0, 1, 2)))
    with pytest.raises(GroundTooSmall):
        minimality_witness(source, target)


def test_window_off_the_ground_still_works():
    source = random_linear_order(Window(tuple(range(10))), 9)
    target = LinearOrder.from_ranked_elements((30, 10, 20))
    witness = minimality_witness(source, target)
    assert verify_minimality(witness, source, target)


# ---------------------------------------------------------------------------
# proximality witnesses


def test_equal_orders_agree():
    ground = Window(tuple(range(16)))
    order = random_linear_order(ground, 4)
    witness = proximality_witness(order, order, Window((0, 1)))
    assert witness.kind == PROXIMALITY_AGREE
    assert verify_proximality(witness, order, order)


def test_reversed_pair_gives_reverse_kind():
    ground = Window(tuple(range(16)))
    order = random_linear_order(ground, 5)
    witness = proximality_witness(order, reverse(order), Window((0, 1)))
    assert witness.kind == PROXIMALITY_REVERSE
    assert verify_proximality(witness, order, reverse(order))


def test_random_pairs_on_a_large_ground():
    ground = Window(tuple(range(256)))
    window = Window(tuple(range(4)))
    for seed in range(5):
        o1 = random_linear_order(ground, 2 * seed)
        o2 = random_linear_order(ground, 2 * seed + 1)
        witness = proximality_witness(o1, o2, window)
        assert witness.kind in (PROXIMALITY_AGREE, PROXIMALITY_REVERSE)
        assert verify_proximality(witness, o1, o2)


def test_proximality_ground_too_small():
    ground = Window(tuple(range(16)))
    o1 = random_linear_order(ground, 0)
    o2 = random_linear_order(ground, 1)
    with pytest.raises(GroundTooSmall, match="256"):
        proximality_witness(o1, o2, Window(tuple(range(4))))


def test_proximality_requires_shared_ground():
    o1 = LinearOrder.natural(Window(tuple(range(16))))
    o2 = LinearOrder.natural(Window(tuple(range(17))))
    with pytest.raises(ValueError):
        proximality_witness(o1, o2, Window((0, 1)))


# ---------------------------------------------------------------------------
# verification against the configuration route


def reference_verify_minimality(witness, source, target):
    """Relocate the whole source pair configuration and compare."""
    if witness.kind != MINIMALITY:
        return False
    moved = apply_perm(
        witness.alpha, lin_order_to_config2(source), window=witness.checked_window
    )
    return moved == lin_order_to_config2(target)


def reference_verify_proximality(witness, o1, o2):
    """Relocate both pair configurations and compare, or compare negated."""
    window = witness.checked_window
    a = apply_perm(witness.alpha, lin_order_to_config2(o1), window=window)
    b = apply_perm(witness.alpha, lin_order_to_config2(o2), window=window)
    if witness.kind == PROXIMALITY_AGREE:
        return a == b
    if witness.kind == PROXIMALITY_REVERSE:
        return a == negate(b)
    return False


def outcome(verify, *args):
    """The bool a verifier returns, or the type of exception it raises."""
    try:
        return verify(*args)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


@st.composite
def verification_cases(draw):
    """A witness with its orders: honest or tampered alpha, any kind.

    The ground is range(base, base + n).  The window sits inside it,
    straddles it or lies off it.  The two orders are equal, reversed,
    unrelated, or unrelated on a ground shifted by one; the minimality
    target lives on the window or elsewhere.
    """
    def shuffled(window):
        return LinearOrder(window, tuple(draw(st.permutations(range(len(window))))))

    n = draw(st.integers(0, 12))
    base = draw(st.integers(-3, 3))
    ground = Window(tuple(range(base, base + n)))
    off_ground = [*range(base - 6, base), *range(base + n, base + n + 6)]
    size = draw(st.integers(0, 6))
    placement = draw(st.sampled_from(("inside", "partly", "outside")))
    inside = 0 if placement == "outside" else max(min(size - (placement == "partly"), n), 0)
    points = draw(st.permutations(ground.elements))[:inside]
    points += draw(st.permutations(off_ground))[: size - inside]
    window = Window.of(points)

    o1 = shuffled(ground)
    relation = draw(st.sampled_from(("identical", "reversed", "random", "shifted")))
    if relation == "identical":
        o2 = o1
    elif relation == "reversed":
        o2 = reverse(o1)
    elif relation == "random":
        o2 = shuffled(ground)
    else:
        o2 = shuffled(Window(tuple(range(base + 1, base + n + 1))))
    kind = draw(st.sampled_from((MINIMALITY, PROXIMALITY_AGREE, PROXIMALITY_REVERSE)))
    if draw(st.booleans()):
        target = shuffled(window)
    else:
        other = draw(st.sets(st.integers(base - 6, base + n + 6), min_size=2, max_size=5))
        target = shuffled(Window.of(other))

    # Honest alpha: |W| ground points, lowest first under o1, onto the window
    # in increasing order (proximality) or in target rank order (minimality).
    if len(window) <= n:
        chosen = draw(st.permutations(ground.elements))[: len(window)]
        by_o1 = sorted(chosen, key=o1.rank_of)
        if kind == MINIMALITY and target.window == window:
            images = target.ranked_elements()
        else:
            images = window.elements
        alpha = extend_bijection(dict(zip(by_o1, images)))
    else:
        alpha = FinPerm.identity()

    tamper = draw(st.sampled_from(("none", "swap", "escape")))
    if tamper == "swap" and len(window) >= 2:
        x, y = draw(st.permutations(window.elements))[:2]
        alpha = compose(FinPerm.from_cycles((x, y)), alpha)
    elif tamper == "escape" and len(window) >= 1:
        x = draw(st.sampled_from(window.elements))
        far = max([base + n, *window.elements, *alpha.support()]) + 1
        alpha = compose(FinPerm.from_cycles((x, far)), alpha)
    return Witness(alpha, window, kind), o1, o2, target


@settings(max_examples=400, deadline=None)
@given(verification_cases())
def test_window_verification_matches_the_configuration_route(case):
    witness, o1, o2, target = case
    assert outcome(verify_proximality, witness, o1, o2) == outcome(
        reference_verify_proximality, witness, o1, o2
    )
    assert outcome(verify_minimality, witness, o1, target) == outcome(
        reference_verify_minimality, witness, o1, target
    )


def test_verification_errors():
    ground = Window(tuple(range(6)))
    order = random_linear_order(ground, 1)
    off = Witness(FinPerm.from_cycles((1, 40)), Window((0, 1)), PROXIMALITY_AGREE)
    with pytest.raises(DomainEscape):
        verify_proximality(off, order, order)
    with pytest.raises(DomainEscape):
        verify_minimality(
            Witness(off.alpha, off.checked_window, MINIMALITY),
            order,
            LinearOrder.natural(off.checked_window),
        )
    point = LinearOrder.natural(Window((0,)))
    fixed = Witness(FinPerm.identity(), Window((0,)), PROXIMALITY_AGREE)
    with pytest.raises(DegenerateWindow):
        verify_proximality(fixed, point, point)
    fixed = Witness(FinPerm.identity(), Window((0,)), MINIMALITY)
    with pytest.raises(DegenerateWindow):
        verify_minimality(fixed, order, point)
    assert not verify_proximality(
        Witness(FinPerm.identity(), Window((0, 1)), MINIMALITY), order, order
    )
    assert not verify_minimality(
        Witness(FinPerm.identity(), Window((0, 1)), MINIMALITY),
        order,
        LinearOrder.natural(Window((0, 2))),
    )


# ---------------------------------------------------------------------------
# witness serialization


def test_witness_text_round_trip():
    witness = Witness(FinPerm.from_cycles((0, 3)), Window((0, 1, 2, 3)), MINIMALITY)
    text = witness_to_text(witness)
    assert text == "kind=minimality\nwindow=0,1,2,3\nalpha=0->3,3->0\n"
    assert witness_from_text(text) == witness
    identity = Witness(FinPerm.identity(), Window((1, 2)), PROXIMALITY_AGREE)
    assert witness_from_text(witness_to_text(identity)) == identity


def test_witness_text_errors():
    from orderflow import FormatError

    with pytest.raises(FormatError):
        witness_from_text("kind=minimality\nwindow=0,1\n")
    with pytest.raises(FormatError, match="line 1"):
        witness_from_text("species=minimality\nwindow=0,1\nalpha=\n")
    with pytest.raises(ValueError):
        Witness(FinPerm.identity(), Window((0, 1)), "unheard-of")
