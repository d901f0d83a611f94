import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orderflow import (
    Window,
    config_from_text,
    derive_seed,
    random_linear_order,
    reverse,
    witness_from_text,
)
from orderflow.cli import MAX_FREQUENCY_WINDOW, main

SRC = Path(__file__).resolve().parent.parent / "src"


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


def run_optimized(argv):
    """The CLI under `python -O`, which strips `assert` statements."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-O", "-m", "orderflow", *argv], capture_output=True, text=True, env=env
    )


def test_verify_fails_the_injected_fault_under_python_O():
    proc = run_optimized(["verify", "--max-window", "3", "--trials", "2000", "--inject-fault"])
    assert proc.returncode == 1
    assert "FAIL injected-corrupt-config" in proc.stdout


def test_verify_defaults_pass_under_python_O():
    proc = run_optimized(["verify"])
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert sum(line.startswith("PASS ") for line in lines) == 12
    assert lines[-1] == "result: 12 passed, 0 failed"


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


def test_frequencies_single_point_window(capsys):
    code, out, _ = run_cli(
        ["frequencies", "--window", "1", "--ground", "5", "--trials", "100"], capsys
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    assert rows[0]["empirical"] == 1.0


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
    code, _, err = run_cli(
        ["witness", "proximality", "--ground", "16", "--window", "4"], capsys
    )
    assert code == 2
    assert "256" in err


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


def test_witness_json_format(capsys):
    code, out, _ = run_cli(
        ["witness", "minimality", "--ground", "10", "--window", "3", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "minimality" and payload["verified"] is True


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
    assert config.value((0, 1, 2)) == 1
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
    assert config.value((0, 1, 2, 3)) == 1
    assert "alternating: yes" in err


def test_factor_malformed_file_names_the_line(tmp_path, capsys):
    order_file = tmp_path / "order.txt"
    order_file.write_text("0 1 banana\n")
    code, _, err = run_cli(["factor", "circular", str(order_file)], capsys)
    assert code == 2
    assert "line 1" in err


def test_factor_rejects_unknown_codes(tmp_path, capsys):
    order_file = tmp_path / "order.txt"
    order_file.write_text("0 1 2\n")
    with pytest.raises(SystemExit) as excinfo:
        main(["factor", "sgn-3", str(order_file)])
    assert excinfo.value.code == 2


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


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "orderflow", "factor", "sign-2", "/dev/stdin"],
        input="1 0\n",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "1 0 : +1" in proc.stdout
