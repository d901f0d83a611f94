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
import io
import json
import random
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from . import checks, codes, core, orders, ramsey, stats
from .core import KConfig, Window
from .errors import FormatError, OrderflowError
from .orders import LinearOrder
from .stats import derive_seed

PROG = "orderflow"

#: Largest `frequencies --window`: output and sampling grow with w! rows, so
#: w=8 already writes 40,320 rows (about 7 MB of JSON) and each step past it
#: costs about 9x more; w >= 11 would build more than 10^7 rows.
MAX_FREQUENCY_WINDOW = 8


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on; printed so runs can be replayed."""

    subcommand: str
    window: int | None = None
    ground: int | None = None
    trials: int | None = None
    seed: int = 0
    out: str | None = None
    format: str | None = None
    max_window: int | None = None
    jobs: int | None = None
    kind: str | None = None
    code: str | None = None
    order_file: str | None = None
    reverse_pair: bool = False
    inject_fault: bool = False

    def line(self) -> str:
        parts = [
            f"{f.name}={getattr(self, f.name)}"
            for f in fields(self)
            if getattr(self, f.name) is not None
        ]
        return "runconfig: " + " ".join(parts)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _report(line: str) -> None:
    print(line, file=sys.stderr)


# ---------------------------------------------------------------------------
# verify


def cmd_verify(cfg: RunConfig) -> int:
    max_window, seed = cfg.max_window, cfg.seed

    def window(n: int) -> Window:
        return Window(tuple(range(n)))

    def rng(label: str) -> random.Random:
        return random.Random(derive_seed(seed, label, 0))

    def random_order(n: int, label: str, i: int = 0) -> LinearOrder:
        return stats.random_linear_order(window(n), derive_seed(seed, label, i))

    small = min(5, max_window)
    witness_w = max(2, min(4, max_window))
    table = [
        ("bijection-roundtrip", f"windows 2..{max_window}",
         lambda: checks.bijection_round_trip(range(2, max_window + 1))),
        ("action-laws", "60 random triples, k in {2,3}",
         lambda: checks.action_laws(rng("verify-action"), 60, max_points=6)),
        ("sign-code-alternation", f"k in {{2,3,4}}, windows to {small}",
         lambda: checks.sign_code_alternation(
             rng("verify-alt"), (2, 3, 4), exhaustive_to=min(4, max_window),
             sampled_points=5, samples=30 if max_window >= 5 else 0)),
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
        ("orbit-average", f"3-window, {cfg.trials} trials, 3-sigma",
         lambda: checks.orbit_frequencies(
             [LinearOrder.natural(window(50))], window(3), cfg.trials, seed)),
    ]
    if cfg.inject_fault:
        def corrupted():
            config = orders.lin_order_to_config2(LinearOrder.natural(window(3)))
            broken = KConfig(2, config.window, (-config.values[0],) + config.values[1:])
            checks.require(orders.config2_is_linear_order(broken), "corrupted fixture detected")

        table.append(("injected-corrupt-config", "fault injection", corrupted))
    lines = []
    failures = 0
    for name, params, call in table:
        try:
            call()
            lines.append(f"PASS {name} ({params})")
        except Exception as exc:  # noqa: BLE001 - report and count any failure
            lines.append(f"FAIL {name} ({params}): {exc}")
            failures += 1
    lines.append(f"result: {len(table) - failures} passed, {failures} failed")
    _emit("\n".join(lines) + "\n", cfg.out)
    if cfg.out is not None:
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


def cmd_frequencies(cfg: RunConfig) -> int:
    window = Window(tuple(range(cfg.window)))
    ground = Window(tuple(range(cfg.ground)))
    source = LinearOrder.natural(ground)
    results = stats.orbit_average_all(
        source, window, cfg.trials, cfg.seed, jobs=cfg.jobs
    )
    _emit(_render_stats(results, cfg.format), cfg.out)
    return 0


# ---------------------------------------------------------------------------
# witness


def cmd_witness(cfg: RunConfig) -> int:
    ground = Window(tuple(range(cfg.ground)))
    window = Window(tuple(range(cfg.window)))
    if cfg.kind == "minimality":
        source = stats.random_linear_order(ground, derive_seed(cfg.seed, "witness-source", 0))
        target = stats.random_linear_order(window, derive_seed(cfg.seed, "witness-target", 0))
        witness = ramsey.minimality_witness(source, target)
        verified = ramsey.verify_minimality(witness, source, target)
        _report(f"source: {orders.order_to_text(source)}")
        _report(f"target: {orders.order_to_text(target)}")
    else:
        o1 = stats.random_linear_order(ground, derive_seed(cfg.seed, "witness-o1", 0))
        if cfg.reverse_pair:
            o2 = orders.reverse(o1)
        else:
            o2 = stats.random_linear_order(ground, derive_seed(cfg.seed, "witness-o2", 0))
        witness = ramsey.proximality_witness(o1, o2, window)
        verified = ramsey.verify_proximality(witness, o1, o2)
    if cfg.format == "json":
        payload = {
            "kind": witness.kind,
            "window": ",".join(map(str, witness.checked_window)),
            "alpha": core.perm_to_text(witness.alpha),
            "verified": verified,
        }
        _emit(json.dumps(payload, indent=2) + "\n", cfg.out)
    else:
        _emit(ramsey.witness_to_text(witness), cfg.out)
    _report(f"verification: {'PASS' if verified else 'FAIL'}")
    return 0 if verified else 1


# ---------------------------------------------------------------------------
# factor


def cmd_factor(cfg: RunConfig) -> int:
    text = Path(cfg.order_file).read_text()
    stripped = [(i, line) for i, line in enumerate(text.splitlines(), start=1) if line.strip()]
    if not stripped:
        raise OrderflowError(f"{cfg.order_file}: no order found")
    if len(stripped) > 1:
        raise FormatError("expected a single order line", stripped[1][0])
    lineno, line = stripped[0]
    order = orders.order_from_text(line, lineno)
    if cfg.code == "circular":
        config = codes.circular_code(order)
    else:
        k = int(cfg.code.split("-", 1)[1])
        config = codes.apply_code(codes.sign_code(k), order)
    _emit(core.config_to_text(config), cfg.out)
    _report(f"alternating: {'yes' if core.is_alternating(config) else 'no'}")
    if config.k == 3:
        realizable = orders.is_circular_realizable(config)
        _report(f"circular-realizable: {'yes' if realizable else 'no'}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def _positive(name: str):
    def parse(value: str) -> int:
        n = int(value)
        if n < 1:
            raise argparse.ArgumentTypeError(f"{name} must be at least 1, got {n}")
        return n

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG, description="desk-scale experiments over order configurations"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--max-window", type=_positive("--max-window"), default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_positive("--trials"), default=20_000)
    p.add_argument("--out", default=None)
    p.add_argument(
        "--inject-fault",
        action="store_true",
        help="add a deliberately corrupted check to demonstrate failure reporting",
    )

    p = sub.add_parser("frequencies", help="empirical vs exact pattern frequencies")
    p.add_argument("--window", type=_positive("--window"), default=3)
    p.add_argument("--ground", type=_positive("--ground"), default=50)
    p.add_argument("--trials", type=_positive("--trials"), default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=_positive("--jobs"), default=1)
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.add_argument("--out", default=None)

    p = sub.add_parser("witness", help="produce and re-verify a witness")
    p.add_argument("kind", choices=("minimality", "proximality"))
    p.add_argument("--ground", type=_positive("--ground"), default=20)
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


def _to_config(args: argparse.Namespace) -> RunConfig:
    known = {f.name for f in fields(RunConfig)}
    values = {k: v for k, v in vars(args).items() if k in known and v is not None}
    return RunConfig(**values)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "factor":
        code = args.code
        if code != "circular":
            parts = code.split("-", 1)
            if parts[0] != "sign" or len(parts) != 2 or not parts[1].isdigit():
                parser.error(f"unknown code {code!r}: expected circular or sign-K")
            if not 2 <= int(parts[1]) <= core.DEFAULT_MAX_ARITY:
                parser.error(f"sign code arity must be in 2..{core.DEFAULT_MAX_ARITY}")
    if args.subcommand == "frequencies" and args.window > MAX_FREQUENCY_WINDOW:
        parser.error(f"--window must be at most {MAX_FREQUENCY_WINDOW}, got {args.window}")
    cfg = _to_config(args)
    _report(cfg.line())
    handlers = {
        "verify": cmd_verify,
        "frequencies": cmd_frequencies,
        "witness": cmd_witness,
        "factor": cmd_factor,
    }
    try:
        return handlers[cfg.subcommand](cfg)
    except OrderflowError as exc:
        _report(f"error: {exc}")
        return 2
    except OSError as exc:
        _report(f"error: {exc}")
        return 2
