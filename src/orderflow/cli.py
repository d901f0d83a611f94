"""Command-line driver: reproducible experiments over the library.

Subcommands
    verify       run the invariant checks of `orderflow.checks`, exit 0 iff all pass
    frequencies  empirical vs exact pattern frequencies on a window
    witness      produce and re-verify a minimality or proximality witness
    factor       apply a block code to an order read from a file

Exit codes: 0 success, 1 invariant or verification failure, 2 usage or
input validation error.  All randomness derives from --seed, so identical
invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import random
import sys
from pathlib import Path

from . import checks, codes, core, orders, ramsey, stats
from .core import KConfig, Window
from .errors import FormatError, GroundTooSmall, OrderflowError
from .orders import LinearOrder
from .stats import derive_seed

PROG = "orderflow"

#: Largest `frequencies --window`: output and sampling grow with w! rows, so
#: w=8 already writes 40,320 rows (about 7 MB of JSON) and each step past it
#: costs about 9x more; w >= 11 would build more than 10^7 rows.
MAX_FREQUENCY_WINDOW = 8

#: Largest `frequencies --ground`: sampling costs O(window) per trial at any
#: ground size and the source order is one array, but the ground window is a
#: tuple of Python ints: at this size a run takes 0.6-0.75 s at the default
#: window and trials and 0.5-0.6 s at window 4 and 20,000 trials, each with
#: 96 MB peak RSS, on a 2-core Xeon.
MAX_FREQUENCY_GROUND = 1_000_000

#: Largest `frequencies --jobs`: the thread pool starts one OS thread per
#: submitted chunk up to this many, and the sampler is numpy calls on
#: 10,000-trial chunks: on a 2-core Xeon, 10^7 trials at ground 1000 and
#: window 4 take 1.1-1.3 s with 1 worker and 0.9-1.05 s with 2.
MAX_FREQUENCY_JOBS = 32

#: Largest `verify --max-window`: the bijection round trip enumerates all n!
#: orders of every window up to it, about 1 s at 7 and 9 s at 8 on a 2-core
#: Xeon; 9 would cost about nine times 8.
MAX_VERIFY_WINDOW = 8

#: Largest `witness --ground`: the ground is a tuple of Python ints, and each
#: random order is a Python list shuffled by `random.Random` (the stream the
#: witness fixtures pin) before it becomes an array.  A proximality witness
#: needs (W-1)^2+1 ground points, so the window is bounded by the ground
#: alone, W <= 1 + sqrt(ground - 1): 1,024 at this size.  Here a run takes
#: 2.7-3.1 s and 147 MB peak RSS at window 10, and 3.3 s and 157 MB at
#: window 1,000, on a 2-core Xeon; the two shuffles dominate both.
MAX_WITNESS_GROUND = 4**10

#: Most injective k-tuples `factor` builds from its order file.  Near the
#: bound, sign-4 on 33 points (863,040 tuples) takes 0.94 s and 151 MB peak
#: RSS, and circular on 101 points (999,900 tuples) 1.11 s and 142 MB, on a
#: 2-core Xeon; the work and memory grow linearly in the tuple count.
MAX_FACTOR_TUPLES = 10**6


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _report(line: str) -> None:
    print(line, file=sys.stderr)


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args: argparse.Namespace) -> int:
    max_window, seed = args.max_window, args.seed

    def window(n: int) -> Window:
        return Window(tuple(range(n)))

    def rng(label: str) -> random.Random:
        return random.Random(derive_seed(seed, label, 0))

    def random_order(n: int, label: str, i: int = 0) -> LinearOrder:
        return stats.random_linear_order(window(n), derive_seed(seed, label, i))

    small = min(5, max_window)
    alt_samples = 30 if max_window >= 5 else 0
    # an arity gets images from the exhaustive orders up to the window
    # bound or from the 5-point samples
    alt_arities = tuple(k for k in (2, 3, 4) if k <= max_window or alt_samples)
    witness_w = max(2, min(4, max_window))
    table = [
        ("bijection-roundtrip", f"windows 2..{max_window}",
         lambda: checks.bijection_round_trip(range(2, max_window + 1))),
        ("action-laws", "60 random triples, k in {2,3}",
         lambda: checks.action_laws(rng("verify-action"), 60, max_points=6)),
        ("sign-code-alternation",
         f"k in {{{','.join(map(str, alt_arities))}}}, windows to {small}",
         lambda: checks.sign_code_alternation(
             rng("verify-alt"), alt_arities, exhaustive_to=min(4, max_window),
             sampled_points=5, samples=alt_samples)),
        ("code-equivariance", "30 random cases per code",
         lambda: checks.code_equivariance(
             rng("verify-equiv"), ("sign-2", "sign-3"), 30, max_points=6)),
        ("circular-order-count", f"windows 3..{small}",
         lambda: checks.circular_image_counts(range(3, small + 1))),
        ("moment-curve-sign", "200 random rational tuples, k in 2..5",
         lambda: checks.moment_curve_sign(rng("verify-moment"), (2, 3, 4, 5), 50)),
        ("reversal-structure", f"exhaustive, windows 2..{min(4, max_window)}",
         lambda: checks.reversal_structure(range(2, min(4, max_window) + 1))),
        ("ramsey-mono-subset", "10 random colorings, ground 64, m=3",
         lambda: checks.ramsey_extraction(rng("verify-ramsey"), 10, 64, 3)),
        ("minimality-witnesses", f"all targets on a {witness_w}-window",
         lambda: checks.minimality_witnesses(
             [random_order(20, "verify-min")], window(witness_w))),
        ("proximality-witnesses", "3 random pairs + reverse fixture, ground 256",
         lambda: checks.proximality_witnesses(
             [(random_order(256, "verify-prox", 2 * i),
               random_order(256, "verify-prox", 2 * i + 1)) for i in range(3)],
             window(4))),
        ("cylinder-mass", "exact rational sum, windows 1..6",
         lambda: checks.cylinder_mass(range(1, 7))),
        ("orbit-average", f"3-window, {args.trials} trials, 3-sigma",
         lambda: checks.orbit_frequencies(
             [LinearOrder.natural(window(50))], window(3), args.trials, seed)),
    ]
    if args.inject_fault:
        def corrupted():
            config = codes.apply_code(codes.sign_code(2), LinearOrder.natural(window(3)))
            values = config.values.copy()
            values[0] = -values[0]
            broken = KConfig(2, config.window, values)
            checks.require(codes.realize(broken) is not None, "corrupted fixture detected")

        table.append(("injected-corrupt-config", "fault injection", corrupted))
    lines = []
    failures = skipped = 0
    for name, params, call in table:
        try:
            checked = call()
        except Exception as exc:  # noqa: BLE001 - report and count any failure
            lines.append(f"FAIL {name} ({params}): {exc}")
            failures += 1
            continue
        if checked == 0:
            lines.append(f"SKIP {name} ({params}): nothing to check")
            skipped += 1
        else:
            lines.append(f"PASS {name} ({params})")
    passed = len(table) - failures - skipped
    lines.append(
        f"result: {passed} passed, {failures} failed" + (f", {skipped} skipped" if skipped else "")
    )
    _emit("\n".join(lines) + "\n", args.out)
    if args.out is not None:
        _report(lines[-1])
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# frequencies


def _render_stats(results, fmt: str) -> str:
    rows = [stats.stat_to_dict(s) for s in results]
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue()
    lines = [
        f"pattern [{r['pattern']}]  exact {r['exact_num']}/{r['exact_den']}  "
        f"empirical {r['empirical']:.6f}  trials {r['trials']}"
        for r in rows
    ]
    return "\n".join(lines) + "\n"


def cmd_frequencies(args: argparse.Namespace) -> int:
    window = Window(tuple(range(args.window)))
    ground = Window(tuple(range(args.ground)))
    source = LinearOrder.natural(ground)
    results = stats.orbit_average_all(
        source, window, args.trials, args.seed, jobs=args.jobs
    )
    _emit(_render_stats(results, args.format), args.out)
    if args.window > 1:
        chi2, df, max_z = stats.fit_summary(results)
        line = f"chi-square: {chi2:.3f} on {df} df; max |z|: {max_z:.3f}"
        # below about 5 expected hits a cell, chi-square and z are far from
        # their limiting laws: among 40,320 cells at 0.5 each, one 6-hit cell
        # gives |z| 7.8, and about 40% of runs have one
        expected = args.trials / math.factorial(args.window)
        if expected < 5:
            line += f"; sparse cells: {expected:.2f} expected hits each"
        _report(line)
    return 0


# ---------------------------------------------------------------------------
# witness


def cmd_witness(args: argparse.Namespace) -> int:
    if args.window > args.ground:
        # checked before any order is built, whatever the window size
        raise GroundTooSmall(f"ground size {args.ground} below the window size {args.window}")
    ground = Window(tuple(range(args.ground)))
    window = Window(tuple(range(args.window)))
    if args.kind == "minimality":
        source = stats.random_linear_order(ground, derive_seed(args.seed, "witness-source", 0))
        target = stats.random_linear_order(window, derive_seed(args.seed, "witness-target", 0))
        witness = ramsey.minimality_witness(source, target)
        verified = ramsey.verify_minimality(witness, source, target)
        _report(f"source: {orders.order_to_text(source)}")
        _report(f"target: {orders.order_to_text(target)}")
    else:
        o1 = stats.random_linear_order(ground, derive_seed(args.seed, "witness-o1", 0))
        if args.reverse_pair:
            o2 = orders.reverse(o1)
        else:
            o2 = stats.random_linear_order(ground, derive_seed(args.seed, "witness-o2", 0))
        witness = ramsey.proximality_witness(o1, o2, window)
        verified = ramsey.verify_proximality(witness, o1, o2)
    if args.format == "json":
        payload = {
            "kind": witness.kind,
            "window": core.window_to_text(witness.checked_window),
            "alpha": core.perm_to_text(witness.alpha),
            "verified": verified,
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _emit(ramsey.witness_to_text(witness), args.out)
    _report(f"verification: {'PASS' if verified else 'FAIL'}")
    return 0 if verified else 1


# ---------------------------------------------------------------------------
# factor


def cmd_factor(args: argparse.Namespace, code: codes.BlockCode) -> int:
    try:
        text = Path(args.order_file).read_text()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{args.order_file}: {exc}") from None
    lines = core.numbered_lines(text)
    if not lines:
        raise OrderflowError(f"{args.order_file}: no order found")
    if len(lines) > 1:
        raise FormatError("expected a single order line", lines[1][0])
    lineno, line = lines[0]
    # bounded on the token count, before a point of the order is built
    n, k = len(line.split()), code.k
    if math.perm(n, k) > MAX_FACTOR_TUPLES:
        raise FormatError(
            f"{n} points give {math.perm(n, k)} {k}-tuples, more than {MAX_FACTOR_TUPLES}", lineno
        )
    config = codes.apply_code(code, orders.order_from_text(line, lineno))
    _emit(core.config_to_text(config), args.out)
    _report(f"alternating: {'yes' if core.is_alternating(config) else 'no'}")
    if config.k == 3:
        realizable = codes.realize(config) is not None
        _report(f"circular-realizable: {'yes' if realizable else 'no'}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def _positive(name: str, most: int | None = None):
    def parse(value: str) -> int:
        n = int(value)
        if n < 1:
            raise argparse.ArgumentTypeError(f"{name} must be at least 1, got {n}")
        if most is not None and n > most:
            raise argparse.ArgumentTypeError(f"{name} must be at most {most}, got {n}")
        return n

    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: `parse_args` leaves it
    unchanged, so every in-process `main` call shares it."""
    parser = argparse.ArgumentParser(
        prog=PROG, description="desk-scale experiments over order configurations"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--max-window", type=_positive("--max-window", MAX_VERIFY_WINDOW), default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_positive("--trials"), default=20_000)
    p.add_argument("--out", default=None)
    p.add_argument(
        "--inject-fault",
        action="store_true",
        help="add a deliberately corrupted check to demonstrate failure reporting",
    )

    p = sub.add_parser("frequencies", help="empirical vs exact pattern frequencies")
    p.add_argument("--window", type=_positive("--window", MAX_FREQUENCY_WINDOW), default=3)
    p.add_argument("--ground", type=_positive("--ground", MAX_FREQUENCY_GROUND), default=50)
    p.add_argument("--trials", type=_positive("--trials"), default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=_positive("--jobs", MAX_FREQUENCY_JOBS), default=1)
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.add_argument("--out", default=None)

    p = sub.add_parser("witness", help="produce and re-verify a witness")
    p.add_argument("kind", choices=("minimality", "proximality"))
    p.add_argument("--ground", type=_positive("--ground", MAX_WITNESS_GROUND), default=20)
    p.add_argument("--window", type=_positive("--window"), default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--reverse-pair",
        action="store_true",
        help="proximality only: take the second order to be the reverse of the first",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)

    p = sub.add_parser("factor", help="apply a block code to an order file")
    p.add_argument("code", help="circular or sign-K, e.g. sign-3")
    p.add_argument("order_file", help="file holding one order line, e.g. '7 3 9'")
    p.add_argument("--out", default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    code = None
    if args.subcommand == "factor":
        try:
            code = codes.code_from_name(args.code)
        except ValueError as exc:
            parser.error(str(exc))
    # a replay line naming the subcommand's own options, as given or defaulted
    _report("runconfig: " + " ".join(f"{k}={v}" for k, v in vars(args).items() if v is not None))
    handlers = {
        "verify": cmd_verify,
        "frequencies": cmd_frequencies,
        "witness": cmd_witness,
        "factor": lambda args: cmd_factor(args, code),
    }
    try:
        return handlers[args.subcommand](args)
    except OrderflowError as exc:
        _report(f"error: {exc}")
        return 2
    except OSError as exc:
        _report(f"error: {exc}")
        return 2
