import itertools
import random
import re
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderflow import (
    DomainEscape,
    FinPerm,
    GroundTooSmall,
    LinearOrder,
    MINIMALITY,
    OutOfWindow,
    PROXIMALITY_AGREE,
    PROXIMALITY_REVERSE,
    PairColoring,
    Window,
    WindowTooSmall,
    Witness,
    all_linear_orders,
    apply_code,
    apply_perm,
    compose,
    extend_bijection,
    inverse,
    minimality_witness,
    negate,
    proximality_witness,
    random_linear_order,
    reverse,
    sign_code,
    verify_minimality,
    verify_proximality,
    witness_from_text,
    witness_to_text,
)
from orderflow.ramsey import _all_pairs_colored, _increasing_run


# ---------------------------------------------------------------------------
# pair colorings


def agreement_colors(coloring, ground):
    """The color of every pair of ground points, read both ways round."""
    colors = set()
    for a, b in itertools.combinations(ground.elements, 2):
        assert coloring.color_of(a, b) == coloring.color_of(b, a)
        colors.add(coloring.color_of(a, b))
    return colors


def test_agreement_coloring_of_identical_orders_is_constant():
    ground = Window(tuple(range(10)))
    order = random_linear_order(ground, 3)
    assert agreement_colors(PairColoring.from_orders(order, order), ground) == {0}
    assert agreement_colors(PairColoring.from_orders(order, reverse(order)), ground) == {1}


def test_from_orders_matches_the_per_pair_reference():
    ground = Window(tuple(range(3, 40)))
    o1 = random_linear_order(ground, 8)
    for o2 in (o1, reverse(o1), random_linear_order(ground, 9)):
        coloring = PairColoring.from_orders(o1, o2)
        for a, b in itertools.combinations(ground.elements, 2):
            agree = (o1.rank_of(a) < o1.rank_of(b)) == (o2.rank_of(a) < o2.rank_of(b))
            color = coloring.color_of(a, b)
            assert type(color) is int
            assert color == coloring.color_of(b, a) == (0 if agree else 1)
    with pytest.raises(ValueError, match="^orders must share a window$"):
        PairColoring.from_orders(o1, LinearOrder.natural(Window(tuple(range(40)))))
    with pytest.raises(ValueError, match="^orders must share a window$"):
        PairColoring(o1, LinearOrder.natural(Window(tuple(range(40)))))
    with pytest.raises(ValueError, match="^pair elements must be distinct, got 5$"):
        coloring.color_of(5, 5)
    for a, b in ((2, 5), (5, 40), (40, 40)):
        with pytest.raises(OutOfWindow):
            coloring.color_of(a, b)


def test_from_orders_builds_no_pair_table():
    # the coloring reads the two orders' ranks per pair, so building it
    # allocates nothing over the n(n-1)/2 pairs
    ground = Window(tuple(range(4096)))
    o1, o2 = random_linear_order(ground, 1), random_linear_order(ground, 2)
    tracemalloc.start()
    try:
        coloring = PairColoring.from_orders(o1, o2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert coloring.color_of(0, 4095) in (0, 1)


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
        witness.alpha, apply_code(sign_code(2), source), window=target.window
    )
    assert moved == apply_code(sign_code(2), target)
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


def proximality_bound(m):
    """Ground points a proximality witness needs on an m-window: the
    Erdos-Szekeres bound (m-1)^2+1, and at least 2 for verification."""
    return max(2, (m - 1) ** 2 + 1)


def test_proximality_ground_too_small():
    for m in (1, 2, 4, 12):
        n = proximality_bound(m) - 1
        o1 = LinearOrder.natural(Window(tuple(range(n))))
        message = f"ground size {n} below the required {proximality_bound(m)} for window size {m}"
        with pytest.raises(GroundTooSmall, match=f"^{re.escape(message)}$"):
            proximality_witness(o1, reverse(o1), Window(tuple(range(m))))


def test_bounds_past_the_digit_limit_are_written_as_powers():
    # a proximality witness on 8,000 points needs only 7999^2 + 1 ground
    # points, a bound short enough to write in decimal
    o1 = LinearOrder.natural(Window(tuple(range(16))))
    with pytest.raises(GroundTooSmall) as excinfo:
        proximality_witness(o1, reverse(o1), Window(tuple(range(8000))))
    assert str(excinfo.value) == (
        "ground size 16 below the required 63984002 for window size 8000"
    )


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(-5, 5),
    st.integers(0, 2**32 - 1),
    st.sampled_from(("random", "equal", "reversed")),
)
def test_proximality_witnesses_verify_at_the_bound(m, base, seed, relation):
    ground = Window(tuple(range(base, base + proximality_bound(m))))
    o1 = random_linear_order(ground, seed)
    o2 = {
        "random": random_linear_order(ground, seed + 1),
        "equal": o1,
        "reversed": reverse(o1),
    }[relation]
    window = Window(tuple(range(m)))
    witness = proximality_witness(o1, o2, window)
    assert witness.checked_window == window
    assert verify_proximality(witness, o1, o2)
    assert reference_verify_proximality(witness, o1, o2)
    if relation == "equal" or m == 1:
        assert witness.kind == PROXIMALITY_AGREE
    elif relation == "reversed":
        assert witness.kind == PROXIMALITY_REVERSE


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(-5, 5), st.integers(0, 2**32 - 1),
       st.sampled_from(("random", "equal", "reversed")))
def test_proximality_witness_points_are_monochromatic_in_the_agreement_coloring(
    data, base, seed, relation
):
    # the agreement coloring is the reference: the |W| preimage points take
    # color 0 on an agree witness and color 1 on a reverse one
    m = data.draw(st.integers(1, 12))
    n = data.draw(st.integers(proximality_bound(m), 300))
    ground = Window(tuple(range(base, base + n)))
    o1 = random_linear_order(ground, seed)
    o2 = {
        "random": random_linear_order(ground, seed + 1),
        "equal": o1,
        "reversed": reverse(o1),
    }[relation]
    window = Window(tuple(range(m)))
    witness = proximality_witness(o1, o2, window)
    coloring = PairColoring.from_orders(o1, o2)
    points = [inverse(witness.alpha)(x) for x in window]
    assert all(x in ground for x in points)
    color = {PROXIMALITY_AGREE: 0, PROXIMALITY_REVERSE: 1}[witness.kind]
    assert all(
        coloring.color_of(a, b) == color for a, b in itertools.combinations(points, 2)
    )


def extremal_sequence(m):
    """(m-1)^2 distinct values with no monotone m-subsequence: m-1
    decreasing blocks of m-1, the blocks laid out in increasing order."""
    return [b * (m - 1) + (m - 2 - i) for b in range(m - 1) for i in range(m - 1)]


@pytest.mark.parametrize("m", range(2, 41))
def test_the_extremal_prefix_forces_its_last_point(m):
    # (m-1)^2 points admit no monotone m-run of either kind, so no ground
    # below the (m-1)^2+1 points of `proximality_ground` always works
    prefix = extremal_sequence(m)
    assert _increasing_run(prefix, m) is None
    assert _increasing_run([-v for v in prefix], m) is None
    size = len(prefix) + 1
    # one more distinct value, at any slot and in any gap, completes a run:
    # every insertion up to m = 8, a seeded three per m above (96 in all)
    insertions = itertools.product(range(size), repeat=2)
    if m > 8:
        rng = random.Random(m)
        insertions = [(rng.randrange(size), rng.randrange(size)) for _ in range(3)]
    for slot, gap in insertions:
        values = [v + (v >= gap) for v in prefix]
        values.insert(slot, gap)
        assert _increasing_run(values, m) or _increasing_run([-v for v in values], m)
    extra = 7  # points past the prefix in o1 order, which must go unread
    ground = Window(tuple(range(size + extra)))
    o1 = LinearOrder.natural(ground)
    for last in (0, size // 2, size - 1):
        # the prefix's last point takes rank `last` under o2, the values at
        # or above it move up by one, the points past the prefix rank highest
        ranks = [v + (v >= last) for v in prefix] + [last] + list(range(size, size + extra))
        o2 = LinearOrder(ground, ranks)
        window = Window(tuple(range(m)))
        witness = proximality_witness(o1, o2, window)
        assert verify_proximality(witness, o1, o2)
        used = {inverse(witness.alpha)(x) for x in window}
        assert size - 1 in used
        assert max(used) == size - 1
        if last in (0, size - 1):  # the least rank ends a decreasing run, the top one a rising run
            assert witness.kind == (PROXIMALITY_REVERSE if last == 0 else PROXIMALITY_AGREE)


def _reference_longest_increasing(values):
    """Length of the longest strictly increasing subsequence, in O(n^2)."""
    best = []
    for i, v in enumerate(values):
        best.append(1 + max((best[j] for j in range(i) if values[j] < v), default=0))
    return max(best, default=0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-40, 40), max_size=30, unique=True), st.integers(1, 8))
def test_increasing_run_matches_the_quadratic_reference(values, m):
    run = _increasing_run(values, m)
    if _reference_longest_increasing(values) < m:
        assert run is None
        return
    assert len(run) == m
    assert run == sorted(set(run))
    assert all(values[a] < values[b] for a, b in zip(run, run[1:]))
    # the first run to be completed: no m-run ends before its last slot
    assert _reference_longest_increasing(values[: run[-1]]) < m


def test_proximality_requires_shared_ground():
    o1 = LinearOrder.natural(Window(tuple(range(16))))
    o2 = LinearOrder.natural(Window(tuple(range(17))))
    with pytest.raises(ValueError):
        proximality_witness(o1, o2, Window((0, 1)))
    with pytest.raises(ValueError, match="^window must be nonempty$"):
        proximality_witness(o1, o1, Window(()))


# ---------------------------------------------------------------------------
# verification against the configuration route


def reference_verify_minimality(witness, source, target):
    """Relocate the whole source pair configuration and compare."""
    if witness.kind != MINIMALITY:
        return False
    moved = apply_perm(
        witness.alpha, apply_code(sign_code(2), source), window=witness.checked_window
    )
    return moved == apply_code(sign_code(2), target)


def reference_verify_proximality(witness, o1, o2):
    """Relocate both pair configurations and compare, or compare negated."""
    window = witness.checked_window
    a = apply_perm(witness.alpha, apply_code(sign_code(2), o1), window=window)
    b = apply_perm(witness.alpha, apply_code(sign_code(2), o2), window=window)
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
        alpha = compose(FinPerm.from_dict({x: y, y: x}), alpha)
    elif tamper == "escape" and len(window) >= 1:
        x = draw(st.sampled_from(window.elements))
        far = max([base + n, *window.elements, *alpha.support()]) + 1
        alpha = compose(FinPerm.from_dict({x: far, far: x}), alpha)
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


def _reference_all_pairs_colored(r1, r2, color):
    """Every pair of slots compared in turn: color 0 where the two rank
    lists order the pair alike, 1 where they order it oppositely."""
    n = len(r1)
    return all(
        ((r1[i] < r1[j]) != (r2[i] < r2[j])) == color
        for i in range(n)
        for j in range(i + 1, n)
    )


@st.composite
def rank_list_pairs(draw):
    """Two lists of distinct ranks of one length: unrelated, equal or
    reversed in order, or one of those with a single pair of slots swapped."""
    n = draw(st.integers(0, 9))
    values = st.lists(st.integers(-50, 50), min_size=n, max_size=n, unique=True)
    r1 = draw(values)
    relation = draw(st.sampled_from(("random", "alike", "reversed")))
    if relation == "random":
        r2 = draw(values)
    else:
        by_r1 = sorted(range(n), key=r1.__getitem__)
        if relation == "reversed":
            by_r1.reverse()
        fresh = sorted(draw(values))
        r2 = [0] * n
        for rank, slot in enumerate(by_r1):
            r2[slot] = fresh[rank]
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        r2[i], r2[j] = r2[j], r2[i]
    return r1, r2


@settings(max_examples=300, deadline=None)
@given(rank_list_pairs(), st.sampled_from((0, 1)))
def test_sorting_permutations_match_the_pairwise_check(pair, color):
    r1, r2 = pair
    assert _all_pairs_colored(r1, r2, color) == _reference_all_pairs_colored(r1, r2, color)


def test_a_ten_thousand_point_minimality_witness_verifies_within_a_second():
    n = 10_000
    window = Window(tuple(range(n)))
    source = random_linear_order(window, 1)
    target = random_linear_order(window, 2)
    witness = minimality_witness(source, target)
    started = time.perf_counter()
    assert verify_minimality(witness, source, target)
    assert time.perf_counter() - started < 1.0
    swap = compose(FinPerm.from_dict({0: 1, 1: 0}), witness.alpha)
    assert not verify_minimality(Witness(swap, window, MINIMALITY), source, target)


def test_verification_errors():
    ground = Window(tuple(range(6)))
    order = random_linear_order(ground, 1)
    off = Witness(FinPerm.from_dict({1: 40, 40: 1}), Window((0, 1)), PROXIMALITY_AGREE)
    with pytest.raises(DomainEscape):
        verify_proximality(off, order, order)
    with pytest.raises(DomainEscape):
        verify_minimality(
            Witness(off.alpha, off.checked_window, MINIMALITY),
            order,
            LinearOrder.natural(off.checked_window),
        )
    # the verifiers name the escaping point as apply_perm does
    two = Witness(
        FinPerm.from_dict({1: 40, 40: 1, 2: 50, 50: 2}), Window((0, 1, 2)), PROXIMALITY_AGREE
    )
    message = "preimage 40 of 1 lies outside a 6-point window from 0 to 5"
    with pytest.raises(DomainEscape, match=f"^{re.escape(message)}$"):
        verify_proximality(two, order, order)
    with pytest.raises(DomainEscape, match=f"^{re.escape(message)}$"):
        apply_perm(two.alpha, apply_code(sign_code(2), order), window=two.checked_window)
    point = LinearOrder.natural(Window((0,)))
    fixed = Witness(FinPerm.identity(), Window((0,)), PROXIMALITY_AGREE)
    with pytest.raises(WindowTooSmall):
        verify_proximality(fixed, point, point)
    fixed = Witness(FinPerm.identity(), Window((0,)), MINIMALITY)
    with pytest.raises(WindowTooSmall):
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
    witness = Witness(FinPerm.from_dict({0: 3, 3: 0}), Window((0, 1, 2, 3)), MINIMALITY)
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
    # each field's errors name the line it sits on, blank lines counted
    for window in ("1,,2", "1,2,", "2,1", "x"):
        with pytest.raises(FormatError, match="^line 2: "):
            witness_from_text(f"kind=minimality\nwindow={window}\nalpha=\n")
    for alpha in ("0->1", "0=1", "0->x", "0->1,0->1,1->0"):
        with pytest.raises(FormatError, match="^line 4: "):
            witness_from_text(f"kind=minimality\nwindow=0,1\n\nalpha={alpha}\n")
    with pytest.raises(FormatError, match="^line 3: unknown witness kind 'unheard-of'$"):
        witness_from_text("window=0,1\nalpha=\nkind=unheard-of\n")
    with pytest.raises(ValueError):
        Witness(FinPerm.identity(), Window((0, 1)), "unheard-of")
