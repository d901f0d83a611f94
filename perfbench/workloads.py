"""The three benchmark workloads: inputs derived from a workload seed, and
an output check for every op that does not trust the program under test.

An op is one `orderflow` CLI invocation.  `make_ops` turns a workload seed
into a pool of ops (argv plus whatever the check needs to know); `check_op`
decides whether one op's exit code, stdout and stderr are correct and
returns the problem as a string, or None.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from pathlib import Path

WORKLOADS = ("frequencies", "witness", "factor")

#: Ops generated per run.  A run that completes more ops than this cycles
#: through the pool again; every workload's cycle length divides it.
POOL_SIZE = 512

#: Ops per cycle: `witness` adds --reverse-pair on every fourth op and
#: `factor` runs three sign-4 ops then one circular op.  Runs stop only on
#: a cycle boundary, so per-op counts in a trace are exact.
CYCLE = {"frequencies": 1, "witness": 4, "factor": 4}

FREQ_GROUND, FREQ_WINDOW, FREQ_TRIALS = 1000, 4, 20_000
WITNESS_GROUND, WITNESS_WINDOW = 256, 4
SIGN_POINTS, CIRCULAR_POINTS = 8, 7

#: Upper 1e-6 point of the chi-square law with 23 degrees of freedom, the
#: 24 cells of a 4-window.  Fixed in advance; the self-test re-derives it.
CHI2_CRIT_DF23_P1E6 = 70.54955713688595

_GOLDEN = (math.sqrt(5) - 1) / 2


@dataclass
class Op:
    index: int
    argv: list[str]
    seed: int = 0
    reverse_pair: bool = False
    code_k: int = 0
    ranked: tuple[int, ...] = ()


@dataclass
class Outcome:
    """What one op returned, kept only until its output is checked."""

    op: Op
    wall_s: float
    rc: int | None
    stdout: str
    stderr: str
    raised: str | None = None
    parse_ms_per_kb: float | None = None


def op_seed(workload_seed: int, workload: str, index: int) -> int:
    """Per-op 32-bit seed, a hash of the workload seed and the op index."""
    digest = hashlib.sha256(f"perfbench|{workload}|{workload_seed}|{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _nth_permutation(items: tuple[int, ...], index: int) -> tuple[int, ...]:
    """The index-th permutation of items in itertools.permutations order."""
    pool = list(items)
    out = []
    for i in range(len(pool), 0, -1):
        digit, index = divmod(index, math.factorial(i - 1))
        out.append(pool.pop(digit))
    return tuple(out)


def _circular_ranked(rng: random.Random, cycle: int, phase: float) -> tuple[int, ...]:
    """Ranked elements of a 7-point order for a `factor circular` op.

    An order is realizable by its own rotation class, and the classes are
    the (n-1)! tails following the least element.  The class index walks a
    golden-ratio sequence from a seeded phase, so each run spreads its
    circular ops evenly over all classes instead of a lucky or unlucky
    draw; the order is then rotated at random.
    """
    window = tuple(sorted(rng.sample(range(100), CIRCULAR_POINTS)))
    classes = math.factorial(CIRCULAR_POINTS - 1)
    cls = int(classes * ((phase + cycle * _GOLDEN) % 1.0))
    ranked = (window[0],) + _nth_permutation(window[1:], cls)
    shift = rng.randrange(CIRCULAR_POINTS)
    return ranked[shift:] + ranked[:shift]


def make_ops(workload: str, workload_seed: int, workdir: Path) -> list[Op]:
    """The op pool of one run; `factor` order files are written to workdir."""
    ops = []
    if workload == "factor":
        workdir.mkdir(parents=True, exist_ok=True)
        rng = random.Random(op_seed(workload_seed, workload, -1))
        phase = rng.random()
    for i in range(POOL_SIZE):
        seed = op_seed(workload_seed, workload, i)
        if workload == "frequencies":
            argv = [
                "frequencies", "--ground", str(FREQ_GROUND), "--window", str(FREQ_WINDOW),
                "--trials", str(FREQ_TRIALS), "--jobs", "1", "--format", "json",
                "--seed", str(seed),
            ]
            ops.append(Op(i, argv, seed=seed))
        elif workload == "witness":
            reverse = i % 4 == 3
            argv = [
                "witness", "proximality", "--ground", str(WITNESS_GROUND),
                "--window", str(WITNESS_WINDOW), "--seed", str(seed),
            ] + (["--reverse-pair"] if reverse else [])
            ops.append(Op(i, argv, seed=seed, reverse_pair=reverse))
        elif workload == "factor":
            if i % 4 == 3:
                ranked, code, k = _circular_ranked(rng, i // 4, phase), "circular", 3
            else:
                ranked, code, k = tuple(rng.sample(range(100), SIGN_POINTS)), "sign-4", 4
            path = workdir / f"order-{i:04d}.txt"
            path.write_text(" ".join(map(str, ranked)) + "\n")
            ops.append(Op(i, ["factor", code, str(path)], code_k=k, ranked=ranked))
        else:
            raise ValueError(f"unknown workload {workload!r}")
    return ops


# ---------------------------------------------------------------------------
# Output checks


def _stderr_lines(outcome: Outcome) -> set[str]:
    return {line.strip() for line in outcome.stderr.splitlines()}


def _check_frequencies(outcome: Outcome, orderflow) -> str | None:
    try:
        rows = json.loads(outcome.stdout)
        got = [orderflow.stat_from_dict(row) for row in rows]
    except (ValueError, TypeError, orderflow.FormatError) as exc:
        return f"unparseable stats: {exc}"
    expected_patterns = {" ".join(map(str, p)) for p in permutations(range(FREQ_WINDOW))}
    patterns = [orderflow.order_to_text(s.pattern) for s in got]
    if len(patterns) != len(expected_patterns) or set(patterns) != expected_patterns:
        return f"patterns do not cover the {len(expected_patterns)} orders once"
    cells = len(expected_patterns)
    hits = []
    for s in got:
        if s.exact != Fraction(1, cells):
            return f"exact {s.exact} != 1/{cells}"
        if s.trials != FREQ_TRIALS or s.seed != outcome.op.seed:
            return f"row reports trials={s.trials} seed={s.seed}"
        count = round(s.empirical * s.trials)
        if abs(s.empirical * s.trials - count) > 1e-6:
            return f"empirical {s.empirical} is not a hit count over {s.trials}"
        hits.append(count)
    if sum(hits) != FREQ_TRIALS:
        return f"hit counts sum to {sum(hits)}, not {FREQ_TRIALS}"
    expected = FREQ_TRIALS / cells
    chi2 = sum((h - expected) ** 2 / expected for h in hits)
    if chi2 > CHI2_CRIT_DF23_P1E6:
        return f"chi-square {chi2:.2f} above {CHI2_CRIT_DF23_P1E6:.2f}"
    return None


def _parse_alpha(text: str) -> dict[int, int]:
    mapping = {}
    for token in filter(None, text.split(",")):
        src, sep, dst = token.partition("->")
        if not sep:
            raise ValueError(f"bad pair {token!r}")
        mapping[int(src)] = int(dst)
    return mapping


def _check_witness(outcome: Outcome, orderflow) -> str | None:
    if "verification: PASS" not in _stderr_lines(outcome):
        return "stderr lacks 'verification: PASS'"
    fields = {}
    for line in outcome.stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            fields[key] = value
    if set(fields) != {"kind", "window", "alpha"}:
        return f"unexpected witness fields {sorted(fields)}"
    try:
        window = [int(x) for x in fields["window"].split(",")]
        alpha = _parse_alpha(fields["alpha"])
    except ValueError as exc:
        return f"unparseable witness: {exc}"
    if window != list(range(WITNESS_WINDOW)):
        return f"checked window {window}"
    if sorted(alpha) != sorted(alpha.values()) or any(a == b for a, b in alpha.items()):
        return "alpha is not a canonical finitely supported permutation"
    if list(alpha) != sorted(alpha):
        return "alpha pairs are not sorted by source"
    kind = fields["kind"]
    if kind not in ("proximality-agree", "proximality-reverse"):
        return f"unknown kind {kind!r}"
    if outcome.op.reverse_pair and kind != "proximality-reverse":
        return f"reverse pair gave {kind}"
    seed = outcome.op.seed
    ground = orderflow.Window(tuple(range(WITNESS_GROUND)))
    o1 = orderflow.random_linear_order(ground, orderflow.derive_seed(seed, "witness-o1", 0))
    if outcome.op.reverse_pair:
        r2 = tuple(WITNESS_GROUND - 1 - r for r in o1.ranks)
    else:
        r2 = orderflow.random_linear_order(ground, orderflow.derive_seed(seed, "witness-o2", 0)).ranks
    r1 = o1.ranks
    preimage = {b: a for a, b in alpha.items()}
    pulled = [preimage.get(x, x) for x in window]
    if any(not 0 <= p < WITNESS_GROUND for p in pulled):
        return "window pulls back outside the ground"
    agree = kind == "proximality-agree"
    for i, x in enumerate(pulled):
        for y in pulled[i + 1 :]:
            if r1[x] > r1[y]:
                return "alpha does not carry the first order onto the natural order"
            if (r2[x] < r2[y]) != agree:
                return f"second order breaks {kind} on the pair ({x}, {y})"
    return None


def _sort_parity(ranks: list[int]) -> int:
    inversions = sum(
        1 for i in range(len(ranks)) for j in range(i + 1, len(ranks)) if ranks[i] > ranks[j]
    )
    return -1 if inversions % 2 else 1


def _check_factor(outcome: Outcome, orderflow) -> str | None:
    lines = _stderr_lines(outcome)
    if "alternating: yes" not in lines:
        return "stderr lacks 'alternating: yes'"
    k = outcome.op.code_k
    if k == 3 and "circular-realizable: yes" not in lines:
        return "stderr lacks 'circular-realizable: yes'"
    t0 = time.perf_counter()
    try:
        config = orderflow.config_from_text(outcome.stdout)
    except orderflow.OrderflowError as exc:
        return f"unparseable configuration: {exc}"
    kb = len(outcome.stdout.encode()) / 1024
    outcome.parse_ms_per_kb = (time.perf_counter() - t0) * 1e3 / kb
    ranked = outcome.op.ranked
    if config.k != k or config.window.elements != tuple(sorted(ranked)):
        return f"configuration has k={config.k} on {config.window.elements}"
    rank = {x: r for r, x in enumerate(ranked)}
    for t, v in zip(permutations(config.window.elements, k), config.values):
        if v != _sort_parity([rank[x] for x in t]):
            return f"value {v:+d} at {t} is not the sort parity"
    return None


_CHECKS = {
    "frequencies": _check_frequencies,
    "witness": _check_witness,
    "factor": _check_factor,
}


def check_op(workload: str, outcome: Outcome, orderflow) -> str | None:
    """Problem with one op's result, or None when it is correct."""
    if outcome.raised is not None:
        return f"raised {outcome.raised}"
    if outcome.rc != 0:
        return f"exit code {outcome.rc}"
    return _CHECKS[workload](outcome, orderflow)
