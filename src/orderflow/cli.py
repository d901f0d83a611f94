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
import re
import sys
from pathlib import Path

from . import checks, codes, core, orders, ramsey, stats
from .core import KConfig, Window
from .errors import FormatError, GroundTooSmall, OrderflowError
from .orders import LinearOrder
from .stats import derive_seed

PROG = "orderflow"

#: Largest `frequencies --window`: output grows with w! rows, so w=8 writes
#: 40,320 rows (7.2 MB of JSON) in 0.38-0.47 s and 68 MB peak RSS at 20,000
#: or 100,000 trials on a 2-core Xeon; each step past it costs about 9x more.
MAX_FREQUENCY_WINDOW = 8

#: Largest `frequencies --ground`: sampling costs O(window) per trial at any
#: ground size, in uint32 positions past 65,536 points, and the natural
#: order is sampled by its ground size alone, so a run builds nothing of the
#: ground's size.  At this size a run takes 0.33-0.34 s at the default
#: window and trials and 0.32-0.33 s at window 4 and 20,000 trials, each at
#: 37 MB peak RSS, as at 1,000 points, and 0.36-0.51 s at 68 MB at window 8
#: and 100,000 trials, where a 10,000-trial chunk redraws about 18 trials
#: with a draw Lemire's rule rejects, on a 2-core Xeon whose speed drifts
#: from run to run; 0.25-0.34 s of that is interpreter start and imports.
MAX_FREQUENCY_GROUND = 1_000_000

#: Largest `frequencies --trials` and `verify --trials`: sampling time grows
#: linearly in the trials at flat memory, so only this bound ends a run in
#: bounded time.  At it, `frequencies` takes 2.9-3.3 s at 37 MB peak RSS at
#: window 4 and ground 1000, 5.0-5.6 s at 68 MB at window 8 and ground 1000,
#: and 7.5-9.7 s at 68 MB at window 8 and ground 10^6, the slowest shape;
#: `verify` takes 2.4-2.6 s at 39 MB, on a 2-core Xeon whose speed drifts
#: from run to run.
MAX_FREQUENCY_TRIALS = 10**8

#: Least `verify --trials`: 5 x 3!, five expected hits in each cell of the
#: orbit-average check's 3-window, the sparse-cell rule of `frequencies`.
#: Below it the check's normal tolerance fails correct code far more
#: often: at seed 0 it fails at 3 trials and at none from 4 to 300; over
#: seeds 0-39 it fails 2.0 % of the runs at 1 to 29 trials and 0.14 % at
#: 30 to 99.
MIN_VERIFY_TRIALS = 30

#: Largest `frequencies --jobs`: each job is one OS thread that evaluates
#: every k-th 10,000-trial chunk into a histogram of its own, where k is the
#: least of the jobs, the chunks and `os.cpu_count()`, so at most that many
#: chunks are in flight at any trial count.  A chunk is a few dozen short
#: numpy calls with Python between them, so extra workers gain little, and
#: workers past the CPUs would only cost.  On a 2-core Xeon at ground 1000,
#: 10^7 trials at window 4 take 0.47-0.53 s and 37 MB peak RSS with
#: `--jobs 1` and 0.48-0.64 s and 38-39 MB with `--jobs 32`; 10^6 trials at
#: window 8 take 0.43-0.45 s and 68 MB with 1 and 0.44-0.52 s and 71-72 MB
#: with 32.
MAX_FREQUENCY_JOBS = 32

#: Largest `verify --max-window`: the bijection round trip reads the ranks of
#: all n! orders of every window up to it, a block of rows at a time, from the
#: cached table of them.  `verify` takes 0.35-0.44 s at 7 and 0.43-0.54 s at
#: 8 with 39 MB peak RSS, and 1.03-1.23 s at 9 with 66 MB, mostly for the
#: 362,880-row table of 9 points (26 MB), on a 2-core Xeon whose speed drifts
#: from run to run.  On 10 points that table alone would take 290 MB.
MAX_VERIFY_WINDOW = 9

#: Largest `witness --ground`: each random order draws one `getrandbits`
#: per point or more, in the stream of `random.Random(seed).shuffle` that the
#: witness fixtures pin, into a Python list before it becomes an array.  A
#: proximality witness needs (W-1)^2+1 ground points, so the window is
#: bounded by the ground alone, W <= 1 + sqrt(ground - 1): 1,024 at this
#: size.  Here a proximality run takes 1.45-2.0 s and 147 MB peak RSS at
#: window 10, and 1.8-2.1 s and 157 MB at window 1,000, on a 2-core Xeon;
#: each order takes 0.55-0.8 s of it.  A minimality run at window 4 takes
#: 1.25-1.5 s and 171 MB: one order, and 0.45-0.6 s for the order text of
#: the `source:` stderr line.  Minimality's window is bounded by the ground
#: alone, and its worst case is window = ground: 9.5-10.7 s and 540 MB,
#: with 22.9 MB of stdout for a witness that moves every point.
MAX_WITNESS_GROUND = 4**10

#: Most injective k-tuples `factor` builds from its order file.  It caps the
#: order at 1,000, 101, 33, 17 and 12 points for k = 2..6, the most n with
#: perm(n, k) within it; a refusal names that cap, and the line is split no
#: further than one point past it.  Near the bound, sign-4 on 33 points
#: (982,080 tuples) takes 0.45-0.55 s and 113 MB peak RSS, and circular on
#: 101 points (999,900 tuples) 0.4-0.55 s and 105 MB, on a 2-core Xeon.  Work
#: and memory grow linearly in the output text, the tuple count times the
#: digits of k points: sign-2 on 999 short points and one of 4,200 digits
#: writes 21 MB in 0.85-0.95 s and 155 MB.  Long points can make the text far
#: larger than the tuple count suggests, so `MAX_FACTOR_BYTES` bounds the
#: text itself.
MAX_FACTOR_TUPLES = 10**6

#: Longest configuration text `factor` writes, in bytes (the text is ASCII).
#: `core.config_text_size` reads it off the order's points before a tuple is
#: built, so sign-2 on 1,000 points of 4,000 digits each, 999,000 tuples and
#: 8.0 GB of text, exits 2 in 0.75-0.9 s at 47 MB peak RSS.  At the bound,
#: sign-4 on 33 six-digit points (32.4 MB) takes 0.5-0.6 s and 163 MB peak
#: RSS, sign-6 on 12 (31.3 MB) 0.6-0.7 s and 158 MB, and sign-2 on 1,000
#: 13-digit points (33.0 MB) 0.45-0.6 s and 150 MB, on a 2-core Xeon.  An
#: order file longer than the bound is refused after reading one byte past
#: it: the 79 MB of `seq -s " " 0 9999999` exit 2 in 0.2-0.3 s at 66 MB, and
#: a 32 MiB line of 2^24 one-digit points, split no further than the point
#: cap, in 0.45-0.5 s at 98 MB.
MAX_FACTOR_BYTES = 2**25


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
        return Window(range(n))

    def rng(label: str) -> random.Random:
        return random.Random(derive_seed(seed, label, 0))

    def random_order(n: int, label: str, i: int = 0) -> LinearOrder:
        return stats.random_linear_order(window(n), derive_seed(seed, label, i))

    small = min(5, max_window)
    alt_arities = tuple(k for k in (2, 3, 4) if k <= small)
    witness_w = max(2, min(4, max_window))
    table = [
        ("bijection-roundtrip", f"windows 2..{max_window}",
         lambda: checks.bijection_round_trip(range(2, max_window + 1))),
        ("action-laws", "60 random triples, k in {2,3}",
         lambda: checks.action_laws(rng("verify-action"), 60, max_points=6)),
        ("sign-code-alternation",
         f"k in {{{','.join(map(str, alt_arities))}}}, windows to {small}",
         lambda: checks.sign_code_alternation(alt_arities, small)),
        ("code-equivariance", "30 random cases per code",
         lambda: checks.code_equivariance(
             rng("verify-equiv"), ("sign-2", "sign-3"), 30, max_points=6)),
        ("circular-order-count", f"windows 3..{small}",
         lambda: checks.circular_image_counts(range(3, small + 1))),
        ("moment-curve-sign", "200 random rational tuples, k in 2..5",
         lambda: checks.moment_curve_sign(rng("verify-moment"), (2, 3, 4, 5), 50)),
        ("reversal-structure", f"exhaustive, windows 2..{min(4, max_window)}",
         lambda: checks.reversal_structure(range(2, min(4, max_window) + 1))),
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


def _json_items(values: list | tuple) -> list[str]:
    """Each of a sequence of JSON scalars as the indenting encoder writes it,
    from one `json.dumps` of them all by its C encoder, newline being the
    item separator: ASCII escaping writes no scalar with a newline in it, so
    splitting there gives one text per value."""
    return json.dumps(values, separators=("\n", ": "))[1:-1].split("\n")


def _json_text(table: stats.RecordTable) -> str:
    """`json.dumps(table.dicts(), indent=2)` and a newline, without the
    pure-Python encoder that `indent` selects and without a dict per record.
    One `%` template per record holds every key and each shared value,
    encoded once, and a `%s` slot for each varying field's value."""
    keys = [text.replace("%", "%%") for text in _json_items(table.keys)]
    values = [text.replace("%", "%%") for text in _json_items(list(table.shared.values()))]
    shared = dict(zip(table.shared, values))
    fields = (f"    {text}: {shared.get(key, '%s')}" for key, text in zip(table.keys, keys))
    template = "  {\n" + ",\n".join(fields) + "\n  }"
    columns = [_json_items(table.varying[key]) for key in table.keys if key in table.varying]
    # a generator, so the records are freed before the brackets are added:
    # held in a list, window 8's 7.5 MB text peaked 7.7 MB higher
    records = (template % row for row in zip(*columns))
    return "[\n" + ",\n".join(records) + "\n]\n"


def _render_stats(table: stats.RecordTable, fmt: str) -> str:
    if fmt == "json":
        return _json_text(table)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(table.keys)
        writer.writerows(table.rows())
        return buf.getvalue()
    lines = [
        f"pattern [{r['pattern']}]  exact {r['exact_num']}/{r['exact_den']}  "
        f"empirical {r['empirical']:.6f}  trials {r['trials']}"
        for r in table.dicts()
    ]
    return "\n".join(lines) + "\n"


def cmd_frequencies(args: argparse.Namespace) -> int:
    window = Window(range(args.window))
    counts = stats.pattern_counts(args.ground, window, args.trials, args.seed, jobs=args.jobs)
    table = stats.histogram_records(counts, window, args.seed)
    _emit(_render_stats(table, args.format), args.out)
    if args.window > 1:
        chi2, df, max_z = stats.fit_summary(counts)
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
    # every bound is checked before any order is built, whatever the sizes
    if args.window > args.ground:
        raise GroundTooSmall(f"ground size {args.ground} below the window size {args.window}")
    if args.kind == "proximality":
        ramsey.proximality_ground(args.ground, args.window)
    else:
        ramsey.require_pairs(args.window)
    ground = Window(range(args.ground))
    window = Window(range(args.window))
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
        payload = {**ramsey.witness_fields(witness), "verified": verified}
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _emit(ramsey.witness_to_text(witness), args.out)
    _report(f"verification: {'PASS' if verified else 'FAIL'}")
    return 0 if verified else 1


# ---------------------------------------------------------------------------
# factor


def _read_order_file(path: str) -> str:
    """The file's text, decoded as `Path.read_text` decodes it, read no
    further than one byte past `MAX_FACTOR_BYTES`.  A longer file raises FormatError: the
    configuration text's header lists every point of the order, so no order
    that long fits the byte bound unless its file is padded."""
    # bytes, then one decode: a text-mode `read(MAX_FACTOR_BYTES + 1)` would
    # bound characters, not bytes, and on an 8-point file it took 38-45 us
    # against 10-15 us, about 4 % of a `perfbench` `factor` op, at the same
    # 98 MB peak RSS on a 32 MiB file (2-core Xeon)
    with open(path, "rb") as file:
        # a short first read is the whole file, and costs no buffer the size
        # of the bound
        data = file.read(2**16)
        if len(data) == 2**16:
            data += file.read(max(MAX_FACTOR_BYTES + 1 - len(data), 0))
    if len(data) > MAX_FACTOR_BYTES:
        raise FormatError(f"{path}: more than {MAX_FACTOR_BYTES} bytes of order text")
    try:
        return io.TextIOWrapper(io.BytesIO(data), encoding="locale").read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _order_line(text: str, path: str) -> tuple[int, str]:
    """The line number and text of the one non-blank line of the order text,
    numbered as in `str.splitlines` with `\\r\\n` as one line end, but with no
    `str` or tuple per line: a `\\S` search finds each non-blank line, and
    `str.count` counts the line ends before it.  Text with no non-blank line
    raises OrderflowError, and a second one FormatError at its number."""
    ends = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"  # where `str.splitlines` splits
    non_blank = re.compile(r"\S")

    def line_ends(start: int, stop: int) -> int:
        return sum(text.count(end, start, stop) for end in ends) - text.count("\r\n", start, stop)

    first = non_blank.search(text)
    if first is None:
        raise OrderflowError(f"{path}: no order found")
    at = first.start()
    lineno = 1 + line_ends(0, at)
    start = 1 + max(text.rfind(end, 0, at) for end in ends)
    found = re.compile(f"[{ends}]").search(text, at)
    stop = found.start() if found else len(text)
    second = non_blank.search(text, stop)
    if second is not None:
        raise FormatError("expected a single order line", lineno + line_ends(at, second.start()))
    return lineno, text[start:stop]


def _point_cap(k: int) -> int:
    """The most points whose k-tuples number at most `MAX_FACTOR_TUPLES`,
    read at each call, found in O(k) `math.perm` calls.

    The walk starts at the float k-th root of the bound, clamped at k - 1,
    and steps down while it is past the cap, since the float can round up.
    With r the exact floor of the root, perm(r, k) <= r^k keeps r within
    the cap, and (n - k + 1)^k <= perm(n, k) puts the cap at most k - 1
    above r, so the walk up takes at most k + 1 steps.
    """
    bound = MAX_FACTOR_TUPLES
    most = max(int(bound ** (1 / k)), k - 1)
    while math.perm(most, k) > bound:
        most -= 1
    while math.perm(most + 1, k) <= bound:
        most += 1
    return most


def cmd_factor(args: argparse.Namespace, code: codes.BlockCode) -> int:
    lineno, line = _order_line(_read_order_file(args.order_file), args.order_file)
    # bounded on the point count, before a point of the order is built:
    # perm(n, k) grows with n, so the line is split no further than one point
    # past the most that the tuple bound admits
    k, most = code.k, _point_cap(code.k)
    if len(line.split(None, most)) > most:
        raise FormatError(
            f"more than {most} points give more than {MAX_FACTOR_TUPLES} {k}-tuples", lineno
        )
    order = orders.order_from_text(line, lineno)
    # bounded on the text's exact size, before a tuple is built
    size = core.config_text_size(k, order.window)
    if size > MAX_FACTOR_BYTES:
        raise FormatError(
            f"{len(order.window)} points give {size} bytes of configuration text, "
            f"more than {MAX_FACTOR_BYTES}",
            lineno,
        )
    config = codes.apply_code(code, order)
    _emit(core.config_to_text(config), args.out)
    _report(f"alternating: {'yes' if core.is_alternating(config) else 'no'}")
    if config.k == 3:
        realizable = codes.realize(config) is not None
        _report(f"circular-realizable: {'yes' if realizable else 'no'}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def _positive(name: str, most: int | None = None, least: int = 1):
    def parse(value: str) -> int:
        n = int(value)
        if n < least:
            raise argparse.ArgumentTypeError(f"{name} must be at least {least}, got {n}")
        if most is not None and n > most:
            raise argparse.ArgumentTypeError(f"{name} must be at most {most}, got {n}")
        return n

    # argparse names the type of a value `int()` refuses by its `__name__`
    parse.__name__ = "int"
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
    p.add_argument("--trials", default=20_000,
                   type=_positive("--trials", MAX_FREQUENCY_TRIALS, MIN_VERIFY_TRIALS))
    p.add_argument("--out", default=None)
    p.add_argument(
        "--inject-fault",
        action="store_true",
        help="add a deliberately corrupted check to demonstrate failure reporting",
    )

    p = sub.add_parser("frequencies", help="empirical vs exact pattern frequencies")
    p.add_argument("--window", type=_positive("--window", MAX_FREQUENCY_WINDOW), default=3)
    p.add_argument("--ground", type=_positive("--ground", MAX_FREQUENCY_GROUND), default=50)
    p.add_argument("--trials", type=_positive("--trials", MAX_FREQUENCY_TRIALS), default=100_000)
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
    except (OrderflowError, OSError) as exc:
        _report(f"error: {exc}")
        return 2
