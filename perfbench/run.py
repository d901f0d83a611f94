"""One benchmark run of the orderflow CLI on one workload.

    python3 perfbench/run.py --workload factor --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The run imports the package from `src/`
of that checkout and drives `orderflow.cli.main` in-process from a single
thread, closed loop: each op is one CLI invocation and the next starts when
it returns.  Every op's output is checked right after it returns, outside
its timing, and then dropped.

--trace 0 reports the end-to-end metrics.  --trace 1 first runs the op
sequence untraced for half of --seconds, then the same ops again with every
layer wrapped in spans and counters, and reports the per-layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Scratch files go to .bench_build/perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import hostspeed
import tracing
import workloads
from workloads import CYCLE, WORKLOADS, Outcome, check_op, make_ops

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".bench_build" / "perfbench"

#: Ops a timed run completes at least, whatever --seconds says: p90 then
#: has at least ten samples beyond it.
MIN_OPS = 100

#: Fresh processes timed for setup_s before the timed loop and again after
#: it, so that one run samples the host at two moments.  One more runs
#: first, untimed, so that byte-compiling the sources is not counted.
SETUP_PROBES = 3


def import_orderflow():
    """The orderflow package from this checkout's src/, never an installed one."""
    src = ROOT / "src"
    if not (src / "orderflow" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no orderflow sources under {src}")
    sys.path.insert(0, str(src))
    import orderflow
    import orderflow.cli

    if Path(orderflow.__file__).resolve().parent != (src / "orderflow").resolve():
        raise SystemExit(f"perfbench: imported orderflow from {orderflow.__file__}")
    return orderflow


def run_op(cli, op: workloads.Op) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    rc, raised = None, None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(op.argv)
    except SystemExit as exc:
        raised = f"SystemExit({exc.code!r})"
    except Exception as exc:  # noqa: BLE001 - an op that raises is counted as failed
        raised = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    return Outcome(op, wall, rc, out.getvalue(), err.getvalue(), raised)


@dataclass
class Done:
    """What a run keeps of one op once its output is checked.  The output
    itself is dropped, so that the run's memory, and so peak_rss_mb, does
    not grow with the number of ops completed."""

    op: workloads.Op
    wall_s: float
    slowness: float
    problem: str | None
    parse_ms_per_kb: float | None
    digest: str


def digest(outcome: Outcome) -> str:
    """Hash of everything an op returned: exit code, exception and output."""
    text = json.dumps([outcome.rc, outcome.raised, outcome.stdout, outcome.stderr])
    return hashlib.sha256(text.encode()).hexdigest()


def output_check(workload, orderflow):
    """check(i, outcome) for `run_loop`: the workload's own output check."""
    return lambda i, outcome: check_op(workload, outcome, orderflow)


def same_as(plain):
    """check(i, outcome) for the traced run: op i must return exactly what
    it returned untraced, where it was checked already, and gets that verdict.
    It calls nothing of the package, so the traced counts stay the program's."""

    def check(i, outcome):
        if digest(outcome) != plain[i].digest:
            return "output differs from the untraced run of the same op"
        return plain[i].problem

    return check


def run_loop(cli, workload, ops, check, *, seconds=0.0, min_ops=0, count=None, tracer=None):
    """Closed loop over the op pool, stopping only on a cycle boundary:
    after `count` ops if given, else once `seconds` have passed and at
    least `min_ops` ops, and one cycle, are done.  After each op, outside
    its timing, the host-speed kernel runs and `check(i, outcome)` judges
    the output, which is then dropped.  Returns what is kept of each op
    and the wall time."""
    cycle = CYCLE[workload]
    done = []
    gc.collect()
    start = time.perf_counter()
    i = 0
    while True:
        if i % cycle == 0:
            if count is not None:
                if i >= count:
                    break
            elif i > 0 and i >= min_ops and time.perf_counter() - start >= seconds:
                break
        if tracer is not None:
            tracer.op = i
        outcome = run_op(cli, ops[i % len(ops)])
        slowness = hostspeed.slowness(workload)
        problem = check(i, outcome)
        done.append(Done(outcome.op, outcome.wall_s, slowness, problem,
                         outcome.parse_ms_per_kb, digest(outcome)))
        i += 1
    return done, time.perf_counter() - start


def percentile(sorted_values, q):
    """Nearest-rank percentile: the smallest value with a share q at or below it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def probe_setup(workload, seed, probes) -> list[tuple[float, float]]:
    """Seconds from starting a fresh interpreter to its first op being ready,
    once per probe, each next to a bare interpreter start timed just before."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(probes):
        bare = hostspeed.start_seconds()
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
            rc = child.wait(timeout=60)
        if rc != 0 or line.strip() != "ready":
            raise SystemExit(f"perfbench: setup probe failed with exit code {rc}")
        times.append((ready - start, bare))
    return times


def failures_of(done):
    """One line per op whose output was wrong."""
    return [f"op {d.op.index} ({' '.join(d.op.argv)}): {d.problem}" for d in done if d.problem]


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown'
    when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def warm_up(cli, workload, ops, check):
    """One untimed cycle from the end of the pool, so that lazy set-up in
    the interpreter and the package is done before timing."""
    cycle = CYCLE[workload]
    run_loop(cli, workload, ops[-cycle:], check, count=cycle)


def scaled_ms(done):
    """Op wall times in ms at the reference host speed, sorted."""
    slowness = hostspeed.smoothed([d.slowness for d in done])
    return sorted(d.wall_s / slow * 1e3 for d, slow in zip(done, slowness))


def end_to_end(args, orderflow, ops, record):
    check = output_check(args.workload, orderflow)
    setup = probe_setup(args.workload, args.seed, SETUP_PROBES + 1)[1:]
    warm_up(orderflow.cli, args.workload, ops, check)
    done, wall = run_loop(orderflow.cli, args.workload, ops, check,
                          seconds=args.seconds, min_ops=MIN_OPS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = failures_of(done)
    setup += probe_setup(args.workload, args.seed, SETUP_PROBES)
    walls = scaled_ms(done)
    raw = sorted(d.wall_s * 1e3 for d in done)
    n = len(walls)
    record.update(
        timed_s=wall,
        samples={
            "op_p50_ms": n,
            "op_p90_ms": n,
            "beyond_p90": n - math.ceil(0.9 * n),
            "setup_s": len(setup),
        },
        setup_probes_s=[t for t, _ in setup],
        bare_starts_s=[b for _, b in setup],
        raw={
            "ops_per_s": n * 1e3 / sum(raw),
            "op_p50_ms": statistics.median(raw),
            "op_p90_ms": percentile(raw, 0.9),
        },
        host_speed=1 / statistics.median(d.slowness for d in done),
    )
    metrics = {
        "setup_s": statistics.median(t * hostspeed.NOMINAL_START_S / b for t, b in setup),
        "ops_per_s": n * 1e3 / sum(walls),
        "op_p50_ms": statistics.median(walls),
        "op_p90_ms": percentile(walls, 0.9),
        "peak_rss_mb": peak_rss_mb,
        "success_rate": (n - len(failures)) / n,
    }
    return metrics, n, failures


def per_layer(args, orderflow, ops, record):
    check = output_check(args.workload, orderflow)
    warm_up(orderflow.cli, args.workload, ops, check)
    plain, plain_wall = run_loop(orderflow.cli, args.workload, ops, check,
                                 seconds=args.seconds / 2)
    n = len(plain)
    tracer = tracing.Tracer()
    tracer.install(orderflow)
    try:
        traced, traced_wall = run_loop(orderflow.cli, args.workload, ops, same_as(plain),
                                       count=n, tracer=tracer)
    finally:
        tracer.restore()
    failures = failures_of(plain) + failures_of(traced)
    metrics = tracing.layer_metrics(tracer, n)
    parse = [d.parse_ms_per_kb for d in plain if d.parse_ms_per_kb is not None]
    metrics["core.config_from_text.ms_per_kb"] = statistics.median(parse) if parse else 0.0
    metrics["trace.overhead_pct"] = (sum(scaled_ms(traced)) / sum(scaled_ms(plain)) - 1) * 100
    trace_file = WORKDIR / "trace" / f"{args.workload}.jsonl"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_file, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    record.update(
        untraced_s=plain_wall,
        traced_s=traced_wall,
        spans=len(tracer.spans),
        trace_file=str(trace_file.relative_to(ROOT)),
    )
    return metrics, 2 * n, failures


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    orderflow = import_orderflow()
    ops = make_ops(args.workload, args.seed, WORKDIR / "inputs" / args.workload)
    if args.probe_setup:
        print("ready", flush=True)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment()}
    if args.trace:
        metrics, attempted, failures = per_layer(args, orderflow, ops, record)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics, attempted, failures = end_to_end(args, orderflow, ops, record)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    record.update(ops=attempted, failures=failures[:20])
    for problem in failures[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print("record: " + json.dumps(record))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
