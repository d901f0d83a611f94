"""Property tests for the text formats: formatting then parsing gives the
value back, and any text either parses or raises FormatError."""

import math
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orderflow import (
    MINIMALITY,
    PROXIMALITY_AGREE,
    PROXIMALITY_REVERSE,
    FinPerm,
    FormatError,
    KConfig,
    Window,
    Witness,
    config_from_text,
    config_to_text,
    order_from_text,
    perm_from_text,
    perm_to_text,
    witness_from_text,
    witness_to_text,
)
from orderflow.core import window_from_text, window_to_text
from orderflow.stats import stat_from_dict

# ---------------------------------------------------------------------------
# values


@st.composite
def perm_st(draw):
    sources = draw(st.lists(st.integers(-1000, 1000), unique=True, max_size=10))
    targets = draw(st.permutations(sources))
    return FinPerm.from_dict(dict(zip(sources, targets)))


window_st = st.lists(st.integers(-1000, 1000), unique=True, max_size=8).map(Window.of)

witness_st = st.builds(
    Witness,
    perm_st(),
    window_st,
    st.sampled_from((MINIMALITY, PROXIMALITY_AGREE, PROXIMALITY_REVERSE)),
)


@settings(max_examples=100, deadline=None)
@given(perm_st())
def test_perm_text_round_trips_random_perms(alpha):
    assert perm_from_text(perm_to_text(alpha)) == alpha


@settings(max_examples=100, deadline=None)
@given(witness_st)
def test_witness_text_round_trips_random_witnesses(witness):
    assert witness_from_text(witness_to_text(witness)) == witness


@settings(max_examples=100, deadline=None)
@given(window_st)
def test_window_text_round_trips_random_windows(window):
    assert window_from_text(window_to_text(window)) == window


# ---------------------------------------------------------------------------
# one window rule and line numbers for every reader


@pytest.mark.parametrize("text", ["1,,2", "1,2,", ",1", "1;2", "2,1"])
def test_every_reader_rejects_the_same_windows(text):
    with pytest.raises(FormatError, match="^line 1: "):
        config_from_text(f"k=2 window={text}\n")
    with pytest.raises(FormatError, match="^line 2: "):
        witness_from_text(f"kind=minimality\nwindow={text}\nalpha=\n")
    with pytest.raises(FormatError):
        stat_from_dict({"pattern": "1 2", "window": text, "exact_num": 1, "exact_den": 2,
                        "empirical": 0.5, "trials": 2, "seed": 0})


def test_empty_text_is_the_empty_window():
    assert window_to_text(Window(())) == ""
    assert window_from_text("") == Window(())
    with pytest.raises(FormatError):
        window_from_text(" ")
    assert config_from_text("k=2 window=\n") == KConfig(2, Window(()), ())


@pytest.mark.parametrize(
    "row, message",
    [
        ("0 : -1", "not 2 distinct points of the window: (0,)"),
        ("0 1 3 : -1", "not 2 distinct points of the window: (0, 1, 3)"),
        ("1 1 : -1", "not 2 distinct points of the window: (1, 1)"),
        ("0 3 : -1", "not 2 distinct points of the window: (0, 3)"),
        ("0 x : -1", "invalid literal for int() with base 10: 'x'"),
        ("0 1 : +1", "duplicate tuple (0, 1)"),
    ],
)
def test_a_bad_configuration_row_is_reported_at_its_line(row, message):
    text = f"k=2 window=0,1\n0 1 : +1\n\n{row}\n1 0 : -1\n"
    with pytest.raises(FormatError) as excinfo:
        config_from_text(text)
    assert str(excinfo.value) == f"line 4: {message}"


def test_a_sparse_configuration_fails_in_time_bounded_by_its_rows():
    # 10000 * 9999 * ... * 9995 tuples on the header, one on the rows
    text = f"k=6 window={','.join(map(str, range(10_000)))}\n0 1 2 3 4 5 : +1\n"
    started = time.perf_counter()
    with pytest.raises(FormatError, match=r"^missing entry for tuple \(0, 1, 2, 3, 4, 6\)$"):
        config_from_text(text)
    assert time.perf_counter() - started < 1.0


# ---------------------------------------------------------------------------
# repeated keys


@settings(max_examples=100, deadline=None)
@given(perm_st(), st.data())
def test_perm_text_with_a_repeated_source_is_rejected(alpha, data):
    assume(alpha.mapping)
    pairs = perm_to_text(alpha).split(",")
    source = data.draw(st.sampled_from(alpha.support()))
    target = data.draw(st.integers(-1000, 1000))
    pairs.insert(data.draw(st.integers(0, len(pairs))), f"{source}->{target}")
    with pytest.raises(FormatError, match=f"^duplicate source {source}$"):
        perm_from_text(",".join(pairs))


@settings(max_examples=100, deadline=None)
@given(witness_st, st.data())
def test_witness_text_with_a_repeated_field_is_rejected_at_its_line(witness, data):
    lines = witness_to_text(witness).splitlines()
    first = data.draw(st.integers(0, len(lines) - 1))
    key, _, value = lines[first].partition("=")
    at = data.draw(st.integers(first + 1, len(lines)))
    lines.insert(at, f"{key}={data.draw(st.sampled_from((value, '0')))}")
    with pytest.raises(FormatError, match=f"^line {at + 1}: duplicate {key}= line$"):
        witness_from_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# configuration text: reordered, spaced and blank-lined text reads alike


@st.composite
def kconfig_st(draw):
    window = draw(window_st)
    k = draw(st.integers(2, 4))
    rnd = draw(st.randoms(use_true_random=False))
    values = tuple(rnd.choice((1, -1)) for _ in range(math.perm(len(window), k)))
    return KConfig(k, window, values)


@settings(max_examples=100, deadline=None)
@given(kconfig_st(), st.data())
def test_config_text_variants_read_alike(config, data):
    lines = config_to_text(config).splitlines()
    header, body = lines[0], lines[1:]
    shuffled = data.draw(st.permutations(body))
    spaced = [line.replace(" ", "  ") for line in body]
    blanked = list(body)
    for _ in range(data.draw(st.integers(1, 3))):
        blanked.insert(data.draw(st.integers(0, len(blanked))), data.draw(st.sampled_from(("", "  "))))
    for variant in (body, shuffled, spaced, blanked):
        text = "\n".join([header, *variant]) + "\n"
        assert config_from_text(text) == config


# ---------------------------------------------------------------------------
# arbitrary text

PARSERS = {
    "config": config_from_text,
    "order": order_from_text,
    "perm": perm_from_text,
    "witness": witness_from_text,
}

#: Characters the formats are made of, so that drawn text gets past the
#: first token more often than uniformly random text does.
FORMAT_CHARS = "0123456789 -+,:=>\nkwindoaphlstr"

SAMPLES = {
    "config": "k=2 window=0,3\n0 3 : +1\n3 0 : -1\n",
    "order": "7 3 9",
    "perm": "0->2,2->5,5->0",
    "witness": "kind=minimality\nwindow=0,1\nalpha=0->1,1->0\n",
}


@st.composite
def edited_sample_st(draw, name):
    """A valid sample with a few characters deleted, replaced or inserted."""
    text = SAMPLES[name]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 2))
        text = text[:i] + draw(st.text(FORMAT_CHARS, max_size=3)) + text[i + cut :]
    return text


def text_st(name):
    return st.one_of(st.text(), st.text(FORMAT_CHARS, max_size=60), edited_sample_st(name))


def parses_or_raises_format_error(parse, text):
    try:
        parse(text)
    except FormatError:
        pass


@pytest.mark.parametrize("name", sorted(PARSERS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_arbitrary_text_raises_only_format_error(name, data):
    parses_or_raises_format_error(PARSERS[name], data.draw(text_st(name)))
