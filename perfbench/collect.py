"""Repeat benchmark runs over seeds and summarize each metric's spread.

    python3 perfbench/collect.py                       # every workload, seed 1, both modes
    python3 perfbench/collect.py --seeds 1-10 --seeds 11-20 --trace 0 --out perfbench/baseline

Each run is a fresh `perfbench/run.py` process of run_seconds from
BENCHMARK.json.  For every workload, set of seeds and metric this prints
the median over the runs, the quartiles, and the spread (quartile distance
over median) next to a third of the metric's bound.  With more than one
--seeds, it then compares each later set with the first: each metric's two
medians, how much worse each is than the other, and both spreads, next to
the bound.  With --out, each run's result and record is appended as one
JSON line to <out>/<workload>.jsonl (--trace 0) or
<out>/<workload>-trace.jsonl (--trace 1).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    record = next(
        (json.loads(line[len("record: "):]) for line in lines if line.startswith("record: ")), {}
    )
    return {"seed": seed, "trace": trace, "result": json.loads(lines[-1]), "record": record}


def summarize(workload: str, runs: list[dict], bounds: dict[str, float]) -> dict:
    """Print each metric's median, quartiles and spread over the runs, and
    return {name: (median, spread)}."""
    names = list(runs[0]["result"]["metrics"])
    failed = sum(r["result"]["failed"] for r in runs)
    attempted = sum(r["result"]["attempted"] for r in runs)
    trace = runs[0]["trace"]
    seeds = ",".join(str(r["seed"]) for r in runs)
    print(f"== {workload} (trace {trace}, seeds {seeds}): {len(runs)} runs, "
          f"{attempted} ops, {failed} failed")
    stats = {}
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        unit = runs[0]["result"]["metrics"][name]["unit"]
        median = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = values[0]
        spread = (q3 - q1) / median if median else 0.0
        stats[name] = (median, spread)
        line = f"  {name} = {median:.6g} {unit}  [q1 {q1:.6g}, q3 {q3:.6g}]"
        if name in bounds:
            flag = "ok" if spread < bounds[name] / 3 else "WIDE"
            line += f"  spread {spread:.4f} vs bound/3 {bounds[name] / 3:.4f} {flag}"
        print(line)
    return stats


def compare(first: dict, later: dict, spec: dict) -> None:
    """Print how much worse each set's median is than the other's, per
    metric with a bound, and whether both are within it."""
    print("  -- against the first set: medians first / this, this worse than first, "
          "first worse than this, spreads")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        if name not in first:
            continue
        (m1, s1), (m2, s2) = first[name], later[name]
        sign = 1 if metric["better"] == "lower" else -1
        worse = sign * (m2 - m1) / m1
        back = sign * (m1 - m2) / m2
        flag = "ok" if max(worse, back) <= bound else "WORSE"
        print(f"  {name:<14} {m1:.4g} / {m2:.4g}  {worse:+.3f} {back:+.3f}  "
              f"spreads {s1:.3f} {s2:.3f}  bound {bound} {flag}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", type=parse_seeds, action="append",
                        help="a set of seeds, e.g. 1-10 or 3,7; repeat to compare sets "
                        "(default: seed 1)")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seed_sets = args.seeds or [[1]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    modes = (0, 1) if args.trace == "both" else (int(args.trace),)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    for workload in args.workloads:
        for trace in modes:
            first = None
            for seeds in seed_sets:
                runs = [run_once(workload, seed, seconds, trace) for seed in seeds]
                if args.out is not None:
                    suffix = "-trace" if trace else ""
                    with open(args.out / f"{workload}{suffix}.jsonl", "a") as fh:
                        for run in runs:
                            fh.write(json.dumps(run) + "\n")
                stats = summarize(workload, runs, bounds)
                if first is None:
                    first = stats
                else:
                    compare(first, stats, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
