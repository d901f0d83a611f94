"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's own test run;
pytest collects a file named on its command line whatever its name.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

orderflow = run.import_orderflow()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _first_op(workload, index=0, seed=7):
    ops = workloads.make_ops(workload, seed, run.WORKDIR / "selftest" / workload)
    return ops[index]


def _checked(workload, outcome):
    return workloads.check_op(workload, outcome, orderflow)


def _replace(outcome, **changes):
    fields = dict(op=outcome.op, wall_s=outcome.wall_s, rc=outcome.rc,
                  stdout=outcome.stdout, stderr=outcome.stderr, raised=outcome.raised)
    fields.update(changes)
    return workloads.Outcome(**fields)


# ---------------------------------------------------------------------------
# Corrupted outputs count as errors


def _flip_sign(outcome):
    """The outcome with the sign on the sixth line of its output flipped."""
    lines = outcome.stdout.splitlines()
    lines[5] = lines[5][:-2] + ("-1" if lines[5].endswith("+1") else "+1")
    return _replace(outcome, stdout="\n".join(lines) + "\n")


def test_factor_sign_flip_is_an_error():
    outcome = run.run_op(orderflow.cli, _first_op("factor"))
    assert _checked("factor", outcome) is None
    assert "sort parity" in _checked("factor", _flip_sign(outcome))


def test_circular_op_is_checked():
    outcome = run.run_op(orderflow.cli, _first_op("factor", index=3))
    assert outcome.op.argv[1] == "circular"
    assert _checked("factor", outcome) is None
    stderr = outcome.stderr.replace("circular-realizable: yes", "circular-realizable: no")
    assert "circular-realizable" in _checked("factor", _replace(outcome, stderr=stderr))


def test_witness_swapped_targets_are_an_error():
    for index in range(8):
        outcome = run.run_op(orderflow.cli, _first_op("witness", index=index))
        assert _checked("witness", outcome) is None
        line = next(x for x in outcome.stdout.splitlines() if x.startswith("alpha="))
        pairs = [p.split("->") for p in line[len("alpha="):].split(",")]
        inside = [i for i, (_, dst) in enumerate(pairs) if int(dst) < workloads.WITNESS_WINDOW]
        if len(inside) >= 2:
            break
    else:
        pytest.fail("no witness with two targets inside the window")
    i, j = inside[:2]
    pairs[i][1], pairs[j][1] = pairs[j][1], pairs[i][1]
    swapped = "alpha=" + ",".join(f"{a}->{b}" for a, b in pairs)
    corrupted = _replace(outcome, stdout=outcome.stdout.replace(line, swapped))
    assert _checked("witness", corrupted) is not None


def test_reverse_pair_must_give_the_reverse_kind():
    outcome = run.run_op(orderflow.cli, _first_op("witness", index=3))
    assert outcome.op.reverse_pair
    assert _checked("witness", outcome) is None
    relabeled = outcome.stdout.replace("proximality-reverse", "proximality-agree")
    assert _checked("witness", _replace(outcome, stdout=relabeled)) is not None


def test_frequencies_dropped_row_is_an_error():
    outcome = run.run_op(orderflow.cli, _first_op("frequencies"))
    assert _checked("frequencies", outcome) is None
    rows = json.loads(outcome.stdout)
    corrupted = _replace(outcome, stdout=json.dumps(rows[1:]))
    assert "patterns" in _checked("frequencies", corrupted)


def test_failed_exit_and_exceptions_are_errors():
    op = _first_op("witness")
    assert "exit code 1" in _checked("witness", workloads.Outcome(op, 0.0, 1, "", ""))
    raised = workloads.Outcome(op, 0.0, None, "", "", raised="ValueError: boom")
    assert "raised" in _checked("witness", raised)
    bad_args = workloads.Op(0, ["witness", "no-such-kind"])
    assert run.run_op(orderflow.cli, bad_args).raised.startswith("SystemExit")


def test_traced_output_must_match_untraced():
    outcome = run.run_op(orderflow.cli, _first_op("witness"))
    other = _replace(outcome, stderr=outcome.stderr + "extra\n")
    plain = [run.Done(outcome.op, 0.0, 1.0, None, None, run.digest(outcome))]
    assert run.same_as(plain)(0, outcome) is None
    assert "differs" in run.same_as(plain)(0, other)
    plain[0].problem = "wrong"
    assert run.same_as(plain)(0, outcome) == "wrong"


def test_loop_checks_each_op_and_drops_its_output():
    ops = workloads.make_ops("factor", 7, run.WORKDIR / "selftest" / "factor")
    check = run.output_check("factor", orderflow)

    def corrupt_second(i, outcome):
        return check(i, _flip_sign(outcome) if i == 1 else outcome)

    done, _ = run.run_loop(orderflow.cli, "factor", ops, corrupt_second, count=4)
    assert [d.problem is None for d in done] == [True, False, True, True]
    assert len(run.failures_of(done)) == 1
    assert not any(hasattr(d, "stdout") for d in done)


def _chi2_sf(x, df):
    """Upper tail of the chi-square law, from the series for the lower
    regularized incomplete gamma function."""
    a, z = df / 2, x / 2
    term = total = 1 / a
    n = 0
    while term > 1e-17 * total:
        n += 1
        term *= z / (a + n)
        total += term
    return 1 - math.exp(a * math.log(z) - z - math.lgamma(a)) * total


def test_chi_square_critical_value():
    assert _chi2_sf(workloads.CHI2_CRIT_DF23_P1E6, 23) == pytest.approx(1e-6, rel=1e-4)


# ---------------------------------------------------------------------------
# Tracing


def _traced_attributes():
    """(owner, name, object) for every attribute tracing may replace."""
    owners = [orderflow] + [getattr(orderflow, m) for m in tracing.MODULES + ("cli",)]
    for module, classes in tracing.METHODS.items():
        owners += [getattr(getattr(orderflow, module), c) for c in classes]
    return [(owner, name, value) for owner in owners for name, value in list(vars(owner).items())]


def test_trace_restores_every_wrapped_attribute():
    before = _traced_attributes()
    original = orderflow.core.apply_perm
    tracer = tracing.Tracer()
    tracer.install(orderflow)
    try:
        assert orderflow.ramsey.apply_perm is not original
        assert orderflow.ramsey.apply_perm is orderflow.core.apply_perm
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for workload in ("witness", "factor"):
                assert orderflow.cli.main(_first_op(workload).argv) == 0
    finally:
        tracer.restore()
    after = {(id(owner), name): value for owner, name, value in _traced_attributes()}
    changed = [name for owner, name, value in before if after[(id(owner), name)] is not value]
    assert changed == []
    calls, _, _ = tracer.span_totals()
    assert calls["core.apply_perm"] == 4
    assert tracer.calls["orders.order_type"] > 0


def _last_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().splitlines()[-1])


def test_traced_counts_are_exact():
    result = _last_json(["--workload", "witness", "--seed", "3", "--seconds", "0", "--trace", "1"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"] and result["failed"] == 0
    assert metrics["ramsey.verify_proximality.calls_per_op"] == 2
    assert metrics["orders.lin_order_to_config2.entries_per_op"] == 261_120
    assert metrics["ramsey.PairColoring.from_orders.pairs_per_op"] == 32_640
    assert metrics["orders.is_circular_realizable.calls_per_op"] == 0
    result = _last_json(["--workload", "factor", "--seed", "3", "--seconds", "0", "--trace", "1"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"] and result["failed"] == 0
    assert metrics["orders.is_circular_realizable.calls_per_op"] == 0.25
    assert metrics["ramsey.verify_proximality.calls_per_op"] == 0


def test_emitted_metric_names_match_benchmark_json(monkeypatch):
    monkeypatch.setattr(run, "MIN_OPS", 0)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    expected = {
        0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    for trace in (0, 1):
        argv = ["--workload", "witness", "--seed", "5", "--seconds", "0", "--trace", str(trace)]
        result = _last_json(argv)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected[trace]
        assert list(result["metrics"]) == list(expected[trace])
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "baseline"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "factor", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
