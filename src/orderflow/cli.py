"""Command-line driver: reproducible experiments over the library.

Subcommands
    verify       run the built-in invariant suite, exit 0 iff all pass
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
import math
import random
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path

from . import codes, core, orders, ramsey, stats
from .core import FinPerm, KConfig, Window
from .errors import FormatError, OrderflowError
from .orders import LinearOrder
from .stats import derive_seed

PROG = "orderflow"


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


def _random_perm_of(window: Window, rng: random.Random) -> FinPerm:
    elems = list(window)
    images = elems[:]
    rng.shuffle(images)
    return FinPerm.from_dict(dict(zip(elems, images)))


def _random_config(k: int, window: Window, rng: random.Random) -> KConfig:
    return KConfig.from_function(k, window, lambda t: rng.choice((1, -1)))


def _verify_checks(max_window: int, seed: int, trials: int):
    """Yield (name, params, thunk) triples; a thunk raises on failure."""

    def check_bijection():
        for n in range(2, max_window + 1):
            window = Window(tuple(range(n)))
            for order in orders.all_linear_orders(window):
                config = orders.lin_order_to_config2(order)
                assert orders.config2_is_linear_order(config), f"invalid image of {order}"
                assert orders.config2_to_order(config) == order, f"round trip broke {order}"

    yield "bijection-roundtrip", f"windows 2..{max_window}", check_bijection

    def check_action():
        rng = random.Random(derive_seed(seed, "verify-action", 0))
        for _ in range(60):
            n = rng.randint(4, 6)
            window = Window(tuple(range(n)))
            k = rng.choice((2, 3))
            config = _random_config(k, window, rng)
            a = _random_perm_of(window, rng)
            b = _random_perm_of(window, rng)
            assert core.apply_perm(FinPerm.identity(), config) == config
            lhs = core.apply_perm(core.compose(a, b), config)
            rhs = core.apply_perm(a, core.apply_perm(b, config))
            assert lhs == rhs, "composition law failed"

    yield "action-laws", "60 random triples, k in {2,3}", check_action

    def check_alternation():
        rng = random.Random(derive_seed(seed, "verify-alt", 0))
        for k in (2, 3, 4):
            if k > max_window:
                continue
            code = codes.sign_code(k)
            for n in range(k, min(5, max_window) + 1):
                window = Window(tuple(range(n)))
                if n <= 4:
                    pool = list(orders.all_linear_orders(window))
                else:
                    pool = [
                        stats.random_linear_order(window, rng.getrandbits(32))
                        for _ in range(30)
                    ]
                for order in pool:
                    assert core.is_alternating(codes.apply_code(code, order)), (
                        f"sign-{k} image of {order} not alternating"
                    )

    yield "sign-code-alternation", f"k in {{2,3,4}}, windows to {min(5, max_window)}", check_alternation

    def check_equivariance():
        rng = random.Random(derive_seed(seed, "verify-equiv", 0))
        cases = [("sign-2", codes.sign_code(2)), ("sign-3", codes.sign_code(3))]
        for name, code in cases:
            for _ in range(30):
                n = rng.randint(code.k, 6)
                window = Window(tuple(range(n)))
                order = stats.random_linear_order(window, rng.getrandbits(32))
                alpha = _random_perm_of(window, rng)
                lhs = codes.apply_code(code, orders.relabel(order, alpha))
                rhs = core.apply_perm(alpha, codes.apply_code(code, order))
                assert lhs == rhs, f"{name} does not commute with the action"

    yield "code-equivariance", "30 random cases per code", check_equivariance

    def check_circular_count():
        for n in range(3, min(5, max_window) + 1):
            window = Window(tuple(range(n)))
            images = {codes.circular_code(o) for o in orders.all_linear_orders(window)}
            assert len(images) == math.factorial(n - 1), (
                f"expected {math.factorial(n - 1)} circular images on {n}, got {len(images)}"
            )
            sample = next(iter(images))
            assert orders.is_circular_realizable(sample)

    yield "circular-order-count", f"windows 3..{min(5, max_window)}", check_circular_count

    def check_moment_curve():
        rng = random.Random(derive_seed(seed, "verify-moment", 0))
        for _ in range(200):
            k = rng.randint(2, 5)
            ts: list[Fraction] = []
            while len(ts) < k:
                t = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
                if t not in ts:
                    ts.append(t)
            inversions = sum(
                1 for i in range(k) for j in range(i + 1, k) if ts[i] > ts[j]
            )
            expected = -1 if inversions % 2 else 1
            assert codes.moment_curve_orientation(ts) == expected, f"sign mismatch at {ts}"

    yield "moment-curve-sign", "200 random rational tuples, k in 2..5", check_moment_curve

    def check_reversal():
        for n in range(2, min(4, max_window) + 1):
            window = Window(tuple(range(n)))
            for order in orders.all_linear_orders(window):
                rev = orders.reverse(order)
                assert orders.reverse(rev) == order
                assert rev != order, "reversal must move every order"
                assert orders.lin_order_to_config2(rev) == core.negate(
                    orders.lin_order_to_config2(order)
                )
                assert orders.reversal_class_rep(order) == orders.reversal_class_rep(rev)

    yield "reversal-structure", f"exhaustive, windows 2..{min(4, max_window)}", check_reversal

    def check_ramsey():
        ground = Window(tuple(range(64)))
        for i in range(10):
            rng = random.Random(derive_seed(seed, "verify-ramsey", i))
            coloring = ramsey.PairColoring.from_function(
                ground, lambda a, b: rng.randint(0, 1)
            )
            subset = ramsey.ramsey_mono_subset(coloring, 3)
            assert len(subset) == 3
            assert ramsey.is_monochromatic(coloring, subset)
            assert subset == ramsey.ramsey_mono_subset(coloring, 3), "not deterministic"

    yield "ramsey-mono-subset", "10 random colorings, ground 64, m=3", check_ramsey

    witness_w = max(2, min(4, max_window))

    def check_minimality():
        ground = Window(tuple(range(20)))
        source = stats.random_linear_order(ground, derive_seed(seed, "verify-min", 0))
        window = Window(tuple(range(witness_w)))
        for target in orders.all_linear_orders(window):
            witness = ramsey.minimality_witness(source, target)
            assert ramsey.verify_minimality(witness, source, target)

    yield "minimality-witnesses", f"all targets on a {witness_w}-window", check_minimality

    def check_proximality():
        ground = Window(tuple(range(256)))
        window = Window(tuple(range(4)))
        for i in range(3):
            o1 = stats.random_linear_order(ground, derive_seed(seed, "verify-prox", 2 * i))
            o2 = stats.random_linear_order(ground, derive_seed(seed, "verify-prox", 2 * i + 1))
            witness = ramsey.proximality_witness(o1, o2, window)
            assert ramsey.verify_proximality(witness, o1, o2)
        o1 = stats.random_linear_order(ground, derive_seed(seed, "verify-prox", 99))
        witness = ramsey.proximality_witness(o1, orders.reverse(o1), window)
        assert witness.kind == ramsey.PROXIMALITY_REVERSE

    yield "proximality-witnesses", "3 random pairs + reverse fixture, ground 256", check_proximality

    def check_cylinder_mass():
        for n in range(1, 7):
            window = Window(tuple(range(n)))
            mass = sum(
                stats.cylinder_measure(o) for o in orders.all_linear_orders(window)
            )
            assert mass == 1, f"mass {mass} != 1 on a {n}-window"

    yield "cylinder-mass", "exact rational sum, windows 1..6", check_cylinder_mass

    def check_orbit_average():
        window = Window(tuple(range(3)))
        ground = Window(tuple(range(50)))
        source = orders.LinearOrder.natural(ground)
        results = stats.orbit_average_all(source, window, trials, seed)
        tol = 3 * math.sqrt((1 / 6) * (5 / 6) / trials)
        assert sum(s.empirical for s in results) == 1
        for s in results:
            assert abs(s.empirical - s.exact) <= tol, (
                f"pattern {orders.order_to_text(s.pattern)}: "
                f"|{float(s.empirical):.5f} - 1/6| above 3 sigma"
            )

    yield "orbit-average", f"3-window, {trials} trials, 3-sigma", check_orbit_average


def cmd_verify(cfg: RunConfig) -> int:
    lines = []
    failures = 0
    checks = list(_verify_checks(cfg.max_window, cfg.seed, cfg.trials))
    if cfg.inject_fault:
        def corrupted():
            order = LinearOrder.natural(Window((0, 1, 2)))
            config = orders.lin_order_to_config2(order)
            broken = KConfig(2, config.window, (-config.values[0],) + config.values[1:])
            assert orders.config2_is_linear_order(broken), "corrupted fixture detected"

        checks.append(("injected-corrupt-config", "fault injection", corrupted))
    for name, params, thunk in checks:
        try:
            thunk()
            lines.append(f"PASS {name} ({params})")
        except Exception as exc:  # noqa: BLE001 - report and count any failure
            lines.append(f"FAIL {name} ({params}): {exc}")
            failures += 1
    lines.append(f"result: {len(checks) - failures} passed, {failures} failed")
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
