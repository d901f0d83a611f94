import io
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fresh_process import run_orderflow
from orderflow import (
    Window,
    config_from_text,
    derive_seed,
    random_linear_order,
    reverse,
    witness_from_text,
)
from orderflow import FinPerm, cli, core, ramsey, stats
from orderflow.errors import FormatError, OrderflowError
from orderflow.cli import (
    MAX_FACTOR_BYTES,
    MAX_FACTOR_TUPLES,
    MAX_FREQUENCY_GROUND,
    MAX_FREQUENCY_JOBS,
    MAX_FREQUENCY_TRIALS,
    MAX_FREQUENCY_WINDOW,
    MAX_VERIFY_WINDOW,
    MAX_WITNESS_GROUND,
    main,
)

FACTOR_FIXTURES = Path(__file__).resolve().parent / "data" / "factor"
WITNESS_FIXTURES = Path(__file__).resolve().parent / "data" / "witness"
FREQUENCY_FIXTURES = Path(__file__).resolve().parent / "data" / "frequencies"
VERIFY_FIXTURES = Path(__file__).resolve().parent / "data" / "verify"

#: The stderr fit line of each frequencies fixture run (--trials 20000
#: --seed 11), recorded with its stdout.
FIT_LINES = {
    ("1000", "4"): "chi-square: 18.292 on 23 df; max |z|: 1.710",
    ("1000000", "4"): "chi-square: 25.271 on 23 df; max |z|: 2.277",
    ("5", "5"): "chi-square: 113.344 on 119 df; max |z|: 3.060",
    ("50", "6"): "chi-square: 754.936 on 719 df; max |z|: 3.650",
}


def fit_lines(err):
    return [line for line in err.splitlines() if line.startswith("chi-square")]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# verify


def test_verify_reduced_suite_passes(capsys):
    code, out, err = run_cli(
        ["verify", "--max-window", "3", "--trials", "2000"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("0 failed")
    assert err.startswith("runconfig: subcommand=verify")


def test_verify_inject_fault_fails_by_name(capsys):
    code, out, _ = run_cli(
        ["verify", "--max-window", "3", "--trials", "2000", "--inject-fault"], capsys
    )
    assert code == 1
    assert any(
        line.startswith("FAIL injected-corrupt-config") for line in out.splitlines()
    )


#: The checks `verify` runs, in the order it prints them.
VERIFY_CHECKS = [
    "bijection-roundtrip",
    "action-laws",
    "sign-code-alternation",
    "code-equivariance",
    "circular-order-count",
    "moment-curve-sign",
    "reversal-structure",
    "minimality-witnesses",
    "proximality-witnesses",
    "cylinder-mass",
    "orbit-average",
]


@pytest.mark.parametrize(
    "max_window, skipped",
    [
        (1, ["bijection-roundtrip", "sign-code-alternation", "circular-order-count",
             "reversal-structure"]),
        (2, ["circular-order-count"]),
    ],
)
def test_verify_skips_checks_with_nothing_to_check(max_window, skipped, capsys):
    code, out, _ = run_cli(
        ["verify", "--max-window", str(max_window), "--trials", "2000"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    skip_lines = [line for line in lines if line.startswith("SKIP ")]
    assert [line.split()[1] for line in skip_lines] == skipped
    assert all(line.endswith("): nothing to check") for line in skip_lines)
    assert [line.split()[1] for line in lines[:-1]] == VERIFY_CHECKS
    assert sum(line.startswith("PASS ") for line in lines) == 11 - len(skipped)
    assert lines[-1] == f"result: {11 - len(skipped)} passed, 0 failed, {len(skipped)} skipped"


@pytest.mark.parametrize(
    "max_window, label",
    [(3, "k in {2,3}, windows to 3"), (5, "k in {2,3,4}, windows to 5")],
)
def test_verify_names_only_the_arities_it_checked(max_window, label, capsys):
    code, out, _ = run_cli(
        ["verify", "--max-window", str(max_window), "--trials", "2000"], capsys
    )
    assert code == 0
    assert f"PASS sign-code-alternation ({label})" in out.splitlines()


@pytest.mark.parametrize("max_window", range(1, 6))
def test_verify_stdout_matches_the_recorded_fixtures(max_window, capsys):
    # max-window-W.out holds the stdout recorded for W = 1..9 at the default
    # seed and trials; test_verify_defaults_pass_under_python_O compares the
    # defaults (W = 5) and W = 9 in a fresh `python -O` process
    code, out, _ = run_cli(["verify", "--max-window", str(max_window)], capsys)
    assert code == 0
    assert out.encode() == (VERIFY_FIXTURES / f"max-window-{max_window}.out").read_bytes()


def test_verify_rejects_max_windows_above_the_bound(monkeypatch, capsys):
    assert MAX_VERIFY_WINDOW == 9

    def never(*args, **kwargs):
        raise AssertionError("enumerated a window above the bound")

    monkeypatch.setattr(cli.checks, "bijection_round_trip", never)
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--max-window", "10"])
    assert excinfo.value.code == 2
    _, err = capsys.readouterr()
    assert "--max-window must be at most 9, got 10" in err


def test_verify_fails_the_injected_fault_under_python_O():
    proc = run_orderflow(
        ["verify", "--max-window", "3", "--trials", "2000", "--inject-fault"], optimize=True
    )
    assert proc.returncode == 1
    assert b"FAIL injected-corrupt-config" in proc.stdout


@pytest.mark.parametrize(
    "max_window, options",
    [(5, []), (9, ["--max-window", "9"])],
    ids=["max-window-5", "max-window-9"],
)
def test_verify_defaults_pass_under_python_O(max_window, options):
    proc = run_orderflow(["verify", *options], optimize=True)
    assert proc.returncode == 0
    assert proc.stdout == (VERIFY_FIXTURES / f"max-window-{max_window}.out").read_bytes()
    lines = proc.stdout.decode().splitlines()
    assert [line.split()[1] for line in lines[:-1]] == VERIFY_CHECKS
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1] == "result: 11 passed, 0 failed"


# ---------------------------------------------------------------------------
# frequencies


def test_frequencies_json_rows_near_one_sixth(tmp_path, capsys):
    out_file = tmp_path / "freq.json"
    trials = 30_000
    code, _, _ = run_cli(
        [
            "frequencies",
            "--window", "3",
            "--ground", "40",
            "--trials", str(trials),
            "--seed", "7",
            "--out", str(out_file),
        ],
        capsys,
    )
    assert code == 0
    rows = json.loads(out_file.read_text())
    assert len(rows) == 6
    tol = 3 * math.sqrt((1 / 6) * (5 / 6) / trials)
    for row in rows:
        assert row["exact_num"] == 1 and row["exact_den"] == 6
        assert abs(row["empirical"] - 1 / 6) <= tol
        assert row["trials"] == trials and row["seed"] == 7
    assert math.isclose(sum(r["empirical"] for r in rows), 1.0)


@pytest.mark.parametrize(
    "elements, seed",
    [((0,), 0), ((0, 1, 2), -7), ((-5, 3, 10**18), 2**70), ((-4, -2, 0, 9, 11), 11),
     ((-9, -1, 0, 2, 30, 10**20), 5)],
)
def test_frequencies_json_writer_matches_json_dumps(elements, seed):
    window = Window(elements)
    rng = np.random.default_rng(len(elements))
    counts = rng.integers(0, 4, math.factorial(len(window)))
    counts[0] = 1  # at least one trial; other cells may be 0
    rows = stats.histogram_to_dicts(counts, window, seed)
    table = stats.histogram_records(counts, window, seed)
    assert cli._render_stats(table, "json") == json.dumps(rows, indent=2) + "\n"


def _by_field(rows: list[dict], shared: tuple[str, ...] = ()) -> stats.RecordTable:
    """The rows held by field, the named fields once for all of them."""
    keys = tuple(rows[0])
    varying = {k: [r[k] for r in rows] for k in keys if k not in shared}
    return stats.RecordTable(keys, {k: rows[0][k] for k in shared}, varying)


def test_json_writer_follows_the_record_keys():
    # a field the record gains is written too, whatever its JSON type,
    # whether it varies from record to record or every record shares it
    rows = [
        {"n": 1, "text": 'a "b" \u00e9', "x": 0.1, "flag": True, "none": None, "big": -(2**70),
         "50%": "%s"},
        {"n": -3, "text": "", "x": 1e-300, "flag": False, "none": None, "big": 0, "50%": "%"},
        {"n": 7, "text": "two\nlines", "x": -0.0, "flag": True, "none": None, "big": 2**64,
         "50%": "%%"},
    ]
    assert cli._render_stats(_by_field(rows), "json") == json.dumps(rows, indent=2) + "\n"
    alike = [{**rows[0], "n": n} for n in (1, -3)]
    shared = tuple(k for k in rows[0] if k != "n")
    assert cli._render_stats(_by_field(alike, shared), "json") == json.dumps(alike, indent=2) + "\n"


def test_frequencies_single_point_window(capsys):
    code, out, err = run_cli(
        ["frequencies", "--window", "1", "--ground", "5", "--trials", "100"], capsys
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    assert rows[0]["empirical"] == 1.0
    assert "chi-square" not in err


def test_frequencies_reports_the_fit_on_stderr(capsys):
    trials = 12
    code, out, err = run_cli(
        ["frequencies", "--window", "2", "--ground", "3", "--trials", str(trials)], capsys
    )
    assert code == 0
    hits = [round(row["empirical"] * trials) for row in json.loads(out)]
    assert sum(hits) == trials
    chi2 = sum((h - trials / 2) ** 2 / (trials / 2) for h in hits)
    max_z = max(abs(h - trials / 2) for h in hits) / math.sqrt(trials / 4)
    assert fit_lines(err) == [f"chi-square: {chi2:.3f} on 1 df; max |z|: {max_z:.3f}"]
    assert "chi-square" not in out


def test_frequencies_notes_sparse_cells_on_the_fit_line(capsys):
    code, out, err = run_cli(
        ["frequencies", "--window", "8", "--ground", "50", "--trials", "20000"], capsys
    )
    assert code == 0
    (line,) = fit_lines(err)
    assert line.endswith("; sparse cells: 0.50 expected hits each")
    assert "sparse" not in out


def test_frequencies_rejects_zero_trials(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frequencies", "--trials", "0"])
    assert excinfo.value.code == 2


def test_frequencies_rejects_windows_above_the_bound(capsys):
    assert MAX_FREQUENCY_WINDOW == 8
    with pytest.raises(SystemExit) as excinfo:
        main(["frequencies", "--window", "9", "--trials", "10"])
    assert excinfo.value.code == 2
    _, err = capsys.readouterr()
    assert "--window must be at most 8" in err


def test_frequencies_rejects_grounds_above_the_bound(monkeypatch, capsys):
    assert MAX_FREQUENCY_GROUND == 1_000_000

    def never(*args, **kwargs):
        raise AssertionError("sampled a ground above the bound")

    monkeypatch.setattr(cli.stats, "pattern_counts", never)
    with pytest.raises(SystemExit) as excinfo:
        main(["frequencies", "--ground", "1000001", "--trials", "10"])
    assert excinfo.value.code == 2
    _, err = capsys.readouterr()
    assert "--ground must be at most 1000000, got 1000001" in err


def test_frequencies_rejects_jobs_above_the_bound(capsys):
    # argparse alone: parsing the options starts no thread
    assert MAX_FREQUENCY_JOBS == 32
    with pytest.raises(SystemExit) as excinfo:
        cli.build_parser().parse_args(["frequencies", "--jobs", "33"])
    assert excinfo.value.code == 2
    _, err = capsys.readouterr()
    assert "--jobs must be at most 32, got 33" in err
    args = cli.build_parser().parse_args(["frequencies", "--jobs", "32"])
    assert args.jobs == MAX_FREQUENCY_JOBS


def test_frequencies_and_verify_reject_trials_above_the_bound(capsys):
    # argparse alone: 10^8 trials take seconds to draw
    assert MAX_FREQUENCY_TRIALS == 10**8
    for command in ("frequencies", "verify"):
        args = cli.build_parser().parse_args([command, "--trials", "100000000"])
        assert args.trials == MAX_FREQUENCY_TRIALS
        with pytest.raises(SystemExit) as excinfo:
            cli.build_parser().parse_args([command, "--trials", "100000001"])
        assert excinfo.value.code == 2
        _, err = capsys.readouterr()
        assert "--trials must be at most 100000000, got 100000001" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--max-window"],
        ["verify", "--trials"],
        ["frequencies", "--window"],
        ["frequencies", "--ground"],
        ["frequencies", "--trials"],
        ["frequencies", "--jobs"],
        ["witness", "minimality", "--ground"],
        ["witness", "minimality", "--window"],
        ["frequencies", "--seed"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_integer_options_name_int_for_non_integers(argv, capsys):
    # the bounded options report a non-integer as --seed, a plain int, does
    with pytest.raises(SystemExit) as excinfo:
        cli.build_parser().parse_args([*argv, "abc"])
    assert excinfo.value.code == 2
    _, err = capsys.readouterr()
    assert err.splitlines()[-1].endswith(f"error: argument {argv[-1]}: invalid int value: 'abc'")


def test_frequencies_memory_does_not_grow_with_the_ground(capsys):
    # the natural order is sampled by its ground size alone: a window and an
    # order of 10^6 points would trace about 62 MB
    argv = ["frequencies", "--ground", "1000000", "--window", "4", "--trials", "20000",
            "--seed", "11", "--format", "csv"]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert code == 0
    assert out.encode() == (FREQUENCY_FIXTURES / "ground1000000-window4.csv.out").read_bytes()
    assert peak < 4 * 2**20


def test_frequencies_csv_mirrors_json(tmp_path, capsys):
    args = ["frequencies", "--window", "2", "--ground", "10", "--trials", "1000"]
    json_file = tmp_path / "f.json"
    csv_file = tmp_path / "f.csv"
    run_cli(args + ["--format", "json", "--out", str(json_file)], capsys)
    run_cli(args + ["--format", "csv", "--out", str(csv_file)], capsys)
    rows = json.loads(json_file.read_text())
    header, *data = csv_file.read_text().strip().splitlines()
    assert header == "pattern,window,exact_num,exact_den,empirical,trials,seed"
    assert len(data) == len(rows) == 2


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_frequencies_stdout_matches_the_recorded_fixtures(fmt, jobs, capsys):
    # ground1000-window4.<format>.out holds the stdout recorded with --jobs 1
    # before orders and configurations were held as arrays; --jobs 2 gave
    # the same bytes.  The csv rows end in \r\n, so bytes are compared.
    code, out, err = run_cli(
        ["frequencies", "--ground", "1000", "--window", "4", "--trials", "20000",
         "--seed", "11", "--format", fmt, "--jobs", jobs],
        capsys,
    )
    assert code == 0
    assert out.encode() == (FREQUENCY_FIXTURES / f"ground1000-window4.{fmt}.out").read_bytes()
    assert fit_lines(err) == [FIT_LINES["1000", "4"]]


@pytest.mark.parametrize("jobs", ["1", "4"])
@pytest.mark.parametrize("ground, window", [("1000000", "4"), ("5", "5"), ("50", "6")])
def test_frequencies_rare_draws_match_the_recorded_fixtures(ground, window, jobs, capsys):
    # recorded with --jobs 1 while the digits came from Generator.integers:
    # at ground 10^6 every chunk rejects some 32-bit outputs (2^32 mod 10^6
    # is 967,296), and at ground 5 the last digit's bound is 1, so it reads
    # no output; window 6 (720 rows) was recorded while every row was
    # rendered from its own PatternStat
    code, out, err = run_cli(
        ["frequencies", "--ground", ground, "--window", window, "--trials", "20000",
         "--seed", "11", "--format", "csv", "--jobs", jobs],
        capsys,
    )
    assert code == 0
    fixture = FREQUENCY_FIXTURES / f"ground{ground}-window{window}.csv.out"
    assert out.encode() == fixture.read_bytes()
    assert fit_lines(err) == [FIT_LINES[ground, window]]


# ---------------------------------------------------------------------------
# witness


def test_witness_minimality_emits_verified_witness(tmp_path, capsys):
    out_file = tmp_path / "witness.txt"
    code, _, err = run_cli(
        [
            "witness", "minimality",
            "--ground", "20",
            "--window", "4",
            "--seed", "1",
            "--out", str(out_file),
        ],
        capsys,
    )
    assert code == 0
    assert "verification: PASS" in err
    witness = witness_from_text(out_file.read_text())
    assert witness.kind == "minimality"


def test_witness_proximality_reverse_fixture(tmp_path, capsys):
    out_file = tmp_path / "witness.txt"
    code, _, err = run_cli(
        [
            "witness", "proximality",
            "--ground", "256",
            "--window", "4",
            "--seed", "3",
            "--reverse-pair",
            "--out", str(out_file),
        ],
        capsys,
    )
    assert code == 0
    assert "verification: PASS" in err
    witness = witness_from_text(out_file.read_text())
    assert witness.kind == "proximality-reverse"


def test_witness_proximality_ground_too_small(capsys):
    # a 4-window needs (4-1)^2 + 1 = 10 ground points (Erdos-Szekeres)
    code, out, err = run_cli(
        ["witness", "proximality", "--ground", "9", "--window", "4"], capsys
    )
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == "error: ground size 9 below the required 10 for window size 4"
    code, _, err = run_cli(["witness", "proximality", "--ground", "10", "--window", "4"], capsys)
    assert code == 0
    assert "verification: PASS" in err.splitlines()
    # a 1-window still needs the 2 ground points that verification reads
    code, out, err = run_cli(["witness", "proximality", "--ground", "1", "--window", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == "error: ground size 1 below the required 2 for window size 1"


@pytest.mark.parametrize("kind", ["minimality", "proximality"])
def test_witness_rejects_a_window_above_the_ground_before_building(kind, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("built an order for a window above the ground")

    monkeypatch.setattr(cli.stats, "random_linear_order", never)
    code, out, err = run_cli(["witness", kind, "--ground", "20", "--window", "1000000"], capsys)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == "error: ground size 20 below the window size 1000000"


def test_witness_proximality_refuses_an_undersized_ground_before_building(monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("built an order on a ground below the proximality bound")

    monkeypatch.setattr(cli.stats, "random_linear_order", never)
    code, out, err = run_cli(
        ["witness", "proximality", "--ground", "1048576", "--window", "2000"], capsys
    )
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == (
        "error: ground size 1048576 below the required 3996002 for window size 2000"
    )


@pytest.mark.parametrize("ground", ["1", "1048576"])
def test_witness_minimality_refuses_a_one_point_window_before_building(
    ground, monkeypatch, capsys
):
    def never(*args, **kwargs):
        raise AssertionError("built an order for a window with no pair to check")

    monkeypatch.setattr(cli.stats, "random_linear_order", never)
    code, out, err = run_cli(["witness", "minimality", "--ground", ground, "--window", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == "error: need a window of size at least 2"


def test_witness_proximality_window_with_a_bound_past_the_digit_limit(capsys):
    # an 8000-window needs 7999^2 + 1 ground points
    code, out, err = run_cli(
        ["witness", "proximality", "--ground", "8000", "--window", "8000"], capsys
    )
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == (
        "error: ground size 8000 below the required 63984002 for window size 8000"
    )


@pytest.mark.parametrize("reverse_pair", [False, True])
def test_witness_proximality_on_a_4096_ground(reverse_pair, capsys):
    # Ground 4^6: verification reads only the 6-point window, never the
    # 16.8M-entry pair configurations of the ground.
    argv = ["witness", "proximality", "--ground", "4096", "--window", "6"]
    code, out, err = run_cli(argv + ["--reverse-pair"] * reverse_pair, capsys)
    assert code == 0
    assert "verification: PASS" in err.splitlines()
    witness = witness_from_text(out)
    assert witness.checked_window == Window(tuple(range(6)))
    if reverse_pair:
        assert witness.kind == "proximality-reverse"

    ground = Window(tuple(range(4096)))
    o1 = random_linear_order(ground, derive_seed(0, "witness-o1", 0))
    o2 = (
        reverse(o1)
        if reverse_pair
        else random_linear_order(ground, derive_seed(0, "witness-o2", 0))
    )
    inverse = {b: a for a, b in witness.alpha.mapping}
    pulled = [inverse.get(x, x) for x in witness.checked_window]
    assert all(0 <= y < 4096 for y in pulled)
    agree = witness.kind == "proximality-agree"
    for i, x in enumerate(pulled):
        for y in pulled[i + 1 :]:
            assert o1.ranks[x] < o1.ranks[y]
            assert (o2.ranks[x] < o2.ranks[y]) == agree


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "argv, verifier",
    [
        (["minimality"], "verify_minimality"),
        (["proximality"], "verify_proximality"),
        (["proximality", "--reverse-pair"], "verify_proximality"),
    ],
    ids=["minimality", "proximality", "proximality-reverse"],
)
def test_witness_verifies_each_witness_once(argv, verifier, fmt, monkeypatch, capsys):
    verify = getattr(ramsey, verifier)
    calls = []

    def counted(*args):
        calls.append(args)
        return verify(*args)

    monkeypatch.setattr(ramsey, verifier, counted)
    argv = ["witness", *argv, "--ground", "30", "--window", "4", "--format", fmt]
    code, _, err = run_cli(argv, capsys)
    assert code == 0
    assert "verification: PASS" in err.splitlines()
    assert len(calls) == 1


def _bent_run(values, m):
    """The first m consecutive slots whose values are not monotone: a
    construction fault in the place of the monotone-run search."""
    values = list(values)
    for i in range(len(values) - m + 1):
        part = values[i : i + m]
        if part != sorted(part) and part != sorted(part, reverse=True):
            return list(range(i, i + m))
    raise AssertionError("every window of slots is monotone")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "kind, attr, broken",
    [
        ("proximality", "_increasing_run", _bent_run),
        ("minimality", "extend_bijection", lambda partial: FinPerm.identity()),
    ],
    ids=["proximality", "minimality"],
)
def test_witness_reports_a_construction_fault(kind, attr, broken, fmt, monkeypatch, capsys):
    # the witness is still written, and the one verification fails it
    monkeypatch.setattr(ramsey, attr, broken)
    argv = ["witness", kind, "--ground", "256", "--window", "4", "--format", fmt]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert err.splitlines()[-1] == "verification: FAIL"
    if fmt == "json":
        payload = json.loads(out)
        assert payload.pop("verified") is False
        out = "".join(f"{key}={value}\n" for key, value in payload.items())
    witness = witness_from_text(out)
    assert witness.checked_window == Window(tuple(range(4)))


def test_witness_rejects_grounds_above_the_bound(monkeypatch, capsys):
    assert MAX_WITNESS_GROUND == 4**10

    def never(*args, **kwargs):
        raise AssertionError("built an order on a ground above the bound")

    monkeypatch.setattr(cli.stats, "random_linear_order", never)
    with pytest.raises(SystemExit) as excinfo:
        main(["witness", "proximality", "--ground", str(4**10 + 1)])
    assert excinfo.value.code == 2
    _, err = capsys.readouterr()
    assert f"--ground must be at most {4**10}, got {4**10 + 1}" in err


#: Each tests/data/witness/<name>.out holds the stdout of `witness <argv>`
#: as the monotone-run construction printed it; it must stay byte for byte.
WITNESS_CASES = {
    f"proximality-{ground}{'-reverse' * reverse_pair}{'-json' * json_format}": [
        "proximality", "--ground", str(ground), "--window", str(window), "--seed", str(seed)
    ] + ["--reverse-pair"] * reverse_pair + ["--format", "json"] * json_format
    for ground, window, seed in ((256, 4, 7), (4096, 6, 0))
    for reverse_pair in (False, True)
    for json_format in (False, True)
}
WITNESS_CASES["minimality-20"] = [
    "minimality", "--ground", "20", "--window", "4", "--seed", "1"
]


@pytest.mark.parametrize(
    "expected", sorted(WITNESS_FIXTURES.glob("*.out")), ids=lambda path: path.stem
)
def test_witness_stdout_matches_the_recorded_fixtures(expected, capsys):
    code, out, err = run_cli(["witness", *WITNESS_CASES[expected.stem]], capsys)
    assert code == 0
    assert "verification: PASS" in err.splitlines()
    assert out == expected.read_text()


def test_witness_json_format(capsys):
    code, out, _ = run_cli(
        ["witness", "minimality", "--ground", "10", "--window", "3", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "minimality" and payload["verified"] is True


@pytest.mark.parametrize(
    "argv", [["minimality"], ["proximality"], ["proximality", "--reverse-pair"]]
)
def test_witness_json_fields_are_the_text_fields(argv, capsys):
    argv = ["witness", *argv, "--ground", "30", "--window", "4", "--seed", "3"]
    code, text, _ = run_cli(argv, capsys)
    assert code == 0
    code, out, _ = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload.pop("verified") is True
    assert [f"{key}={value}" for key, value in payload.items()] == text.splitlines()
    assert payload["kind"].startswith(argv[1])


# ---------------------------------------------------------------------------
# factor


def test_factor_circular_on_a_three_chain(tmp_path, capsys):
    order_file = tmp_path / "order.txt"
    order_file.write_text("0 1 2\n")
    out_file = tmp_path / "config.txt"
    code, _, err = run_cli(
        ["factor", "circular", str(order_file), "--out", str(out_file)], capsys
    )
    assert code == 0
    config = config_from_text(out_file.read_text())
    assert config.k == 3 and len(config.values) == 6
    assert config.array[0, 1, 2] == 1
    assert "alternating: yes" in err
    assert "circular-realizable: yes" in err


def test_factor_circular_checks_realizability_above_eight_points(tmp_path, capsys):
    order_file = tmp_path / "order.txt"
    order_file.write_text("3 9 0 7 1 8 2 6 4 5\n")
    code, out, err = run_cli(["factor", "circular", str(order_file)], capsys)
    assert code == 0
    assert len(config_from_text(out).window) == 10
    assert "circular-realizable: yes" in err.splitlines()


def test_factor_sign4_on_an_increasing_order(tmp_path, capsys):
    order_file = tmp_path / "order.txt"
    order_file.write_text("0 1 2 3\n")
    code, out, err = run_cli(["factor", "sign-4", str(order_file)], capsys)
    assert code == 0
    config = config_from_text(out)
    assert config.array[0, 1, 2, 3] == 1
    assert "alternating: yes" in err


@pytest.mark.parametrize(
    "expected", sorted(FACTOR_FIXTURES.glob("*.out")), ids=lambda path: path.stem
)
def test_factor_stdout_matches_the_recorded_fixtures(expected, capsys):
    # each <order>.<code>.out holds the stdout recorded for `factor <code>
    # <order>.txt` before the text format was built column-wise
    order, name = expected.stem.split(".")
    code, out, _ = run_cli(["factor", name, str(FACTOR_FIXTURES / f"{order}.txt")], capsys)
    assert code == 0
    assert out == expected.read_text()


def test_factor_malformed_file_names_the_line(tmp_path, capsys):
    order_file = tmp_path / "order.txt"
    order_file.write_text("0 1 banana\n")
    code, _, err = run_cli(["factor", "circular", str(order_file)], capsys)
    assert code == 2
    assert "line 1" in err


def test_factor_names_a_repeated_point(tmp_path, capsys):
    order_file = tmp_path / "order.txt"
    order_file.write_text("3 1 3\n")
    code, out, err = run_cli(["factor", "sign-2", str(order_file)], capsys)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (
        "error: line 1: ranked elements must be distinct: '3' is ranked both 0 and 2"
    )


def test_factor_bad_order_text_message_stays_short(tmp_path, capsys):
    # 999 valid 4,000-digit points and one `x`: a 4 MB line under the byte
    # and tuple bounds
    line = " ".join([str(10**3999 + i) for i in range(999)] + ["x"])
    order_file = tmp_path / "order.txt"
    order_file.write_text(line + "\n")
    code, out, err = run_cli(["factor", "sign-2", str(order_file)], capsys)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (
        f"error: line 1: bad order text {line[:40]!r}... ({len(line)} characters)"
    )


def test_factor_names_the_int_digit_limit_a_point_passes(tmp_path, capsys):
    # 5,001 digits, past Python's default limit of 4,300 for `int` (4,000
    # read, as in the test above): `int`'s own message names the limit and
    # the point's digits.  A bad token before the point keeps the text's head
    point = "1" + "0" * 5000
    order_file = tmp_path / "order.txt"
    order_file.write_text(f"{point} 2 3\n")
    code, out, err = run_cli(["factor", "sign-2", str(order_file)], capsys)
    assert (code, out) == (2, "")
    last = err.splitlines()[-1]
    assert last.startswith("error: line 1: Exceeds the limit (4300")
    assert "5001 digits" in last and "sys.set_int_max_str_digits()" in last
    line = f"2 x {point} 3"
    order_file.write_text(line + "\n")
    code, out, err = run_cli(["factor", "sign-2", str(order_file)], capsys)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (
        f"error: line 1: bad order text {line[:40]!r}... ({len(line)} characters)"
    )


def test_factor_undecodable_file_is_a_format_error(tmp_path, capsys):
    order_file = tmp_path / "order.txt"
    order_file.write_bytes(b"\xff\xfe 3 1\n")
    code, out, err = run_cli(["factor", "circular", str(order_file)], capsys)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1].startswith(f"error: {order_file}: ")


def test_factor_rejects_unknown_codes(tmp_path, capsys):
    order_file = tmp_path / "order.txt"
    order_file.write_text("0 1 2\n")
    long_arity = "sign-" + "9" * 5000
    for name in ("sgn-3", "sign", "sign-x", "sign-1", "sign-7", "foo",
                 "sign-\u0663", "sign-\uff13", "sign-03", long_arity):
        with pytest.raises(SystemExit) as excinfo:
            main(["factor", name, str(order_file)])
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "runconfig" not in err
        if name in ("sign-1", "sign-7", long_arity):
            expected = "sign code arity must be in 2..6"
        else:
            expected = f"unknown code {name!r}: expected circular or sign-K"
        assert err.splitlines()[-1] == f"orderflow: error: {expected}"


def most_points(k):
    """The most points whose k-tuples fit `cli.MAX_FACTOR_TUPLES`, by search."""
    return max(n for n in range(k - 1, 2_000) if math.perm(n, k) <= cli.MAX_FACTOR_TUPLES)


def cap_message(k):
    bound = cli.MAX_FACTOR_TUPLES
    return f"error: line 1: more than {most_points(k)} points give more than {bound} {k}-tuples"


@pytest.mark.parametrize("bound", [0, 24, 5_000, MAX_FACTOR_TUPLES])
def test_point_cap_is_the_searched_cap_in_few_perm_calls(bound, monkeypatch):
    # at most k + 3 calls: two checks of the start, the second after a step
    # down from a float root that rounds up, and at most k + 1 walking up
    monkeypatch.setattr(cli, "MAX_FACTOR_TUPLES", bound)
    perm, calls = math.perm, 0

    def counting_perm(n, k):
        nonlocal calls
        calls += 1
        return perm(n, k)

    caps = []
    for k in range(2, 7):
        want, calls = most_points(k), 0
        with monkeypatch.context() as patch:
            patch.setattr(math, "perm", counting_perm)
            caps.append(cli._point_cap(k))
        assert caps[-1] == want and calls <= k + 3, (k, calls)
    if bound == 10**6:
        assert caps == [1000, 101, 33, 17, 12]


class OrderBuilt(Exception):
    """Raised in place of reading an order: the line passed the point cap."""


def _build_no_order(*args, **kwargs):
    raise OrderBuilt


@pytest.mark.parametrize(
    "points, code, tuples",
    [(34, "sign-4", 1_113_024), (2_000, "sign-6", math.perm(2_000, 6))],
)
def test_factor_rejects_orders_with_too_many_tuples(
    points, code, tuples, tmp_path, monkeypatch, capsys
):
    assert MAX_FACTOR_TUPLES == 10**6
    assert [most_points(k) for k in range(2, 7)] == [1000, 101, 33, 17, 12]
    k = int(code[-1])
    assert math.perm(points, k) == tuples > MAX_FACTOR_TUPLES

    def never(*args, **kwargs):
        raise AssertionError("read an order or applied a code past the tuple bound")

    monkeypatch.setattr(cli.codes, "apply_code", never)
    # the bound is read off the point count, before the order is built
    monkeypatch.setattr(cli.orders, "order_from_text", never)
    order_file = tmp_path / "order.txt"
    order_file.write_text(" ".join(map(str, range(points))) + "\n")
    rc, out, err = run_cli(["factor", code, str(order_file)], capsys)
    assert rc == 2
    assert out == ""
    assert err.splitlines()[-1] == cap_message(k)


@pytest.mark.parametrize("bound", [MAX_FACTOR_TUPLES, 5_000, 0])
@pytest.mark.parametrize("k", range(2, 7))
def test_factor_refuses_exactly_the_orders_past_the_tuple_bound(
    k, bound, tmp_path, monkeypatch, capsys
):
    # from k - 1 points, which give no tuple, to two past the cap: a line is
    # refused exactly when its points give more k-tuples than the bound
    monkeypatch.setattr(cli, "MAX_FACTOR_TUPLES", bound)
    monkeypatch.setattr(cli.orders, "order_from_text", _build_no_order)
    order_file = tmp_path / "order.txt"
    for n in range(k - 1, most_points(k) + 3):
        order_file.write_text(" ".join(map(str, range(n))) + "\n")
        if math.perm(n, k) <= bound:
            with pytest.raises(OrderBuilt):
                main(["factor", f"sign-{k}", str(order_file)])
            capsys.readouterr()
        else:
            rc, out, err = run_cli(["factor", f"sign-{k}", str(order_file)], capsys)
            assert (rc, out) == (2, "")
            assert err.splitlines()[-1] == cap_message(k)


#: Characters that `str.split` splits on or keeps, ASCII and not, among
#: them two of the ASCII separators `bytes.split` does not know, \x1c-\x1f.
TOKEN_CHARS = " \t\n\x0b\x0c\r\x1c\x1f\x85\xa0\u2028\u3000" + "01-x\xe9\u0663"


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=TOKEN_CHARS, max_size=40), st.integers(2, 6), st.integers(0, 400))
def test_factor_refuses_a_line_exactly_past_its_point_cap(line, k, bound):
    # the line is what `_order_line` found, whatever its characters
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "MAX_FACTOR_TUPLES", bound)
        patch.setattr(cli, "_read_order_file", lambda path: line)
        patch.setattr(cli, "_order_line", lambda text, path: (1, text))
        patch.setattr(cli.orders, "order_from_text", _build_no_order)
        stderr = io.StringIO()
        patch.setattr(sys, "stderr", stderr)
        if len(line.split()) > most_points(k):
            assert main(["factor", f"sign-{k}", "order.txt"]) == 2
            assert stderr.getvalue().splitlines()[-1] == cap_message(k)
        else:
            with pytest.raises(OrderBuilt):
                main(["factor", f"sign-{k}", "order.txt"])


def test_factor_accepts_orders_at_the_tuple_bound(tmp_path, monkeypatch, capsys):
    # with the bound lowered to 4! = 24, sign-4 runs on 4 points, not on 5
    monkeypatch.setattr(cli, "MAX_FACTOR_TUPLES", 24)
    order_file = tmp_path / "order.txt"
    order_file.write_text("3 1 0 2\n")
    assert run_cli(["factor", "sign-4", str(order_file)], capsys)[0] == 0
    order_file.write_text("3 1 0 2 4\n")
    code, out, err = run_cli(["factor", "sign-4", str(order_file)], capsys)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "error: line 1: more than 4 points give more than 24 4-tuples"


def test_factor_refuses_text_past_the_byte_bound_before_applying_the_code(
    tmp_path, monkeypatch, capsys
):
    # 1,000 points of 4,000 digits pass the tuple bound (999,000 sign-2
    # tuples), but their text would be 8.0 GB
    assert MAX_FACTOR_BYTES == 2**25

    def never(*args, **kwargs):
        raise AssertionError("applied a code past the byte bound")

    monkeypatch.setattr(cli.codes, "apply_code", never)
    points = [10**3999 + 7 * i for i in range(1000)]
    order_file = tmp_path / "order.txt"
    order_file.write_text(" ".join(map(str, points)) + "\n")
    header = len("k=2 window=") + 1000 * 4000 + 999 + 1
    size = header + 2 * 999 * 1000 * 4001 + 5 * 999_000
    rc, out, err = run_cli(["factor", "sign-2", str(order_file)], capsys)
    assert (rc, out) == (2, "")
    assert err.splitlines()[-1] == (
        f"error: line 1: 1000 points give {size} bytes of configuration text, "
        f"more than {MAX_FACTOR_BYTES}"
    )


@pytest.mark.parametrize("code, order", [("sign-4", "3 1 0 2"), ("circular", "-7 20 3 1000")])
def test_factor_accepts_text_at_the_byte_bound(code, order, tmp_path, monkeypatch, capsys):
    order_file = tmp_path / "order.txt"
    order_file.write_text(order + "\n")
    rc, text, _ = run_cli(["factor", code, str(order_file)], capsys)
    assert rc == 0
    monkeypatch.setattr(cli, "MAX_FACTOR_BYTES", len(text))
    assert run_cli(["factor", code, str(order_file)], capsys)[:2] == (0, text)
    monkeypatch.setattr(cli, "MAX_FACTOR_BYTES", len(text) - 1)
    rc, out, err = run_cli(["factor", code, str(order_file)], capsys)
    assert (rc, out) == (2, "")
    assert err.splitlines()[-1] == (
        f"error: line 1: 4 points give {len(text)} bytes of configuration text, "
        f"more than {len(text) - 1}"
    )


def test_factor_refuses_files_past_the_byte_bound_after_reading_one_byte_past_it(
    tmp_path, monkeypatch, capsys
):
    # a file at the bound is read, and its configuration text is refused; a
    # file one byte longer, or an endless one, is refused by its own length
    monkeypatch.setattr(cli, "MAX_FACTOR_BYTES", 12)
    order_file = tmp_path / "order.txt"
    order_file.write_text("0 1 2" + " " * 7)
    rc, out, err = run_cli(["factor", "sign-2", str(order_file)], capsys)
    assert (rc, out) == (2, "")
    assert err.splitlines()[-1] == (
        "error: line 1: 3 points give 71 bytes of configuration text, more than 12"
    )
    order_file.write_text("0 1 2" + " " * 7 + "\n")
    for path in (order_file, Path("/dev/zero")):
        rc, out, err = run_cli(["factor", "sign-2", str(path)], capsys)
        assert (rc, out) == (2, "")
        assert err.splitlines()[-1] == f"error: {path}: more than 12 bytes of order text"
    # past the first 2^16-byte read, a padded file under the bound still runs
    monkeypatch.setattr(cli, "MAX_FACTOR_BYTES", 2**17)
    order_file.write_text("0 1 2\n")
    rc, expected, _ = run_cli(["factor", "sign-2", str(order_file)], capsys)
    assert rc == 0
    order_file.write_text("0 1 2" + " " * 70_000 + "\n")
    assert run_cli(["factor", "sign-2", str(order_file)], capsys)[:2] == (0, expected)
    rc, out, err = run_cli(["factor", "sign-2", "/dev/zero"], capsys)
    assert (rc, out) == (2, "")
    assert err.splitlines()[-1] == f"error: /dev/zero: more than {2**17} bytes of order text"


def test_factor_refuses_a_long_line_past_the_point_cap(tmp_path, monkeypatch, capsys):
    # 2^21 three-byte points in 6 MiB: the line is split no further than
    # the 1,001st point, and no order is built
    monkeypatch.setattr(cli.orders, "order_from_text", _build_no_order)
    order_file = tmp_path / "order.txt"
    order_file.write_text("17 " * 2**21 + "\n")
    rc, out, err = run_cli(["factor", "sign-2", str(order_file)], capsys)
    assert (rc, out) == (2, "")
    assert err.splitlines()[-1] == (
        f"error: line 1: more than 1000 points give more than {MAX_FACTOR_TUPLES} 2-tuples"
    )


def test_factor_refuses_a_second_line_without_a_tuple_per_line(tmp_path, capsys):
    # 2^21 lines of `0` (4 MiB) are refused at line 2: listing every line
    # first took 267 MB peak RSS on this file, and the line scan allocates
    # next to nothing beside the text
    text = "0\n" * 2**21
    order_file = tmp_path / "order.txt"
    order_file.write_text(text)
    rc, out, err = run_cli(["factor", "sign-4", str(order_file)], capsys)
    assert (rc, out) == (2, "")
    assert err.splitlines()[-1] == "error: line 2: expected a single order line"
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="^line 2: expected a single order line$"):
            cli._order_line(text, str(order_file))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_factor_reads_the_order_after_many_blank_lines(tmp_path, capsys):
    order_file = tmp_path / "order.txt"
    order_file.write_text("\n" * 2**20 + "  3 1 2\n\n")
    code, out, err = run_cli(["factor", "sign-2", str(order_file)], capsys)
    assert code == 0
    assert config_from_text(out).window == Window((1, 2, 3))
    order_file.write_text("\n" * 2**20 + "  3 1 x\n\n")
    code, out, err = run_cli(["factor", "sign-2", str(order_file)], capsys)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == f"error: line {2**20 + 1}: bad order text '  3 1 x'"


#: Every character `str.splitlines` splits at, with \r\n, other spaces and
#: a few non-blank characters.
_ORDER_TEXT_PIECES = [
    "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
    " ", "\t", "\x1f", "\xa0", "\u3000", "1", "-", "x",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_ORDER_TEXT_PIECES), max_size=16).map("".join))
def test_order_line_numbers_lines_as_numbered_lines(text):
    lines = core.numbered_lines(text)
    if not lines:
        with pytest.raises(OrderflowError, match="^f: no order found$"):
            cli._order_line(text, "f")
    elif len(lines) > 1:
        with pytest.raises(FormatError) as excinfo:
            cli._order_line(text, "f")
        assert str(excinfo.value) == f"line {lines[1][0]}: expected a single order line"
    else:
        assert cli._order_line(text, "f") == lines[0]


def test_factor_missing_file(tmp_path, capsys):
    code, _, err = run_cli(["factor", "circular", str(tmp_path / "nope.txt")], capsys)
    assert code == 2


# ---------------------------------------------------------------------------
# reproducibility and round trips


def test_identical_runs_are_byte_identical(tmp_path, capsys):
    cases = [
        ["frequencies", "--window", "3", "--ground", "30", "--trials", "20000",
         "--seed", "11", "--format", "csv"],
        ["witness", "proximality", "--ground", "256", "--window", "3", "--seed", "5"],
        ["factor", "sign-3", None],
    ]
    order_file = tmp_path / "order.txt"
    order_file.write_text("2 0 3 1\n")
    for i, argv in enumerate(cases):
        argv = [str(order_file) if a is None else a for a in argv]
        first = tmp_path / f"a{i}.out"
        second = tmp_path / f"b{i}.out"
        assert run_cli(argv + ["--out", str(first)], capsys)[0] == 0
        assert run_cli(argv + ["--out", str(second)], capsys)[0] == 0
        assert first.read_bytes() == second.read_bytes()


def test_worker_count_does_not_change_the_output(tmp_path, capsys):
    base = ["frequencies", "--window", "3", "--ground", "25", "--trials", "30000",
            "--seed", "2"]
    one = tmp_path / "one.json"
    four = tmp_path / "four.json"
    run_cli(base + ["--jobs", "1", "--out", str(one)], capsys)
    run_cli(base + ["--jobs", "4", "--out", str(four)], capsys)
    assert one.read_bytes() == four.read_bytes()


def test_in_process_calls_match_their_runs_alone(monkeypatch, capsys):
    # main shares one parser across calls: a usage error or a flag given to
    # one call must leave nothing behind for the next
    monkeypatch.setenv("COLUMNS", "80")
    prox = ["witness", "proximality", "--ground", "256", "--seed", "7"]
    sequence = [
        ["witness", "proximality", "--ground", "0"],
        ["factor", "sign-3", str(FACTOR_FIXTURES / "four.txt")],
        prox + ["--reverse-pair"],
        prox,
    ]
    results = []
    for argv in sequence:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    assert [r[0] for r in results] == [2, 0, 0, 0]
    assert results[2][1] != results[3][1]
    for argv, result in zip(sequence, results):
        alone = run_orderflow(argv)
        assert (alone.returncode, alone.stdout.decode(), alone.stderr.decode()) == result


@pytest.mark.parametrize(
    "argv, line",
    [
        (["verify"],
         "subcommand=verify max_window=5 seed=0 trials=20000 inject_fault=False"),
        (["frequencies", "--out", "f.json"],
         "subcommand=frequencies window=3 ground=50 trials=100000 seed=0 jobs=1 "
         "format=json out=f.json"),
        (["witness", "minimality", "--seed", "4"],
         "subcommand=witness kind=minimality ground=20 window=4 seed=4 reverse_pair=False "
         "format=text"),
        (["factor", "sign-3", "order.txt"],
         "subcommand=factor code=sign-3 order_file=order.txt"),
    ],
)
def test_runconfig_names_only_the_subcommands_own_options(argv, line, monkeypatch, capsys):
    for name in ("cmd_verify", "cmd_frequencies", "cmd_witness", "cmd_factor"):
        monkeypatch.setattr(cli, name, lambda *args: 0)
    assert run_cli(argv, capsys)[2] == f"runconfig: {line}\n"


def test_module_entry_point_runs():
    proc = run_orderflow(["factor", "sign-2", "/dev/stdin"], stdin=b"1 0\n")
    assert proc.returncode == 0
    assert b"1 0 : +1" in proc.stdout
