"""The CLI contract at full size, each command in a fresh process.

Each case runs `python -m orderflow <argv>` once, after writing its input
file with the same `seq` or `python -c` command as the shell step it
replaces, so it reads the same bytes.  It checks the exit status, stdout
(by sha256, or that it is empty), an exact stderr line, the time limit and
the child's own peak RSS.  The inputs add up to about 150 MB; each is deleted once its run ends.
"""

import ast
import hashlib
import json
import subprocess
import sys
from typing import NamedTuple

import pytest

from fresh_process import ROOT, run_orderflow, run_python

#: Stands in the argv for the file the case's input command writes.
INPUT = object()

#: The sha256 of an empty stdout.
EMPTY = hashlib.sha256(b"").hexdigest()

POINT_CAP = "error: line 1: more than 33 points give more than 1000000 4-tuples"


def seq(last):
    """The points 0..last on one line, as `seq -s " " 0 <last>` prints them."""
    return ["seq", "-s", " ", "0", str(last)]


def python_c(code):
    return [sys.executable, "-c", code]


class Case(NamedTuple):
    argv: tuple
    code: int = 0
    #: sha256 of stdout; None leaves stdout unchecked
    stdout: str | None = None
    #: a line stderr holds exactly, as `grep -qx` finds it
    stderr: str | None = None
    #: sha256 of stderr's `source:` lines, each with its \n
    source: str | None = None
    #: seconds the run may take; None sets no limit
    timeout: float | None = None
    #: MiB of peak RSS the run may reach; None sets no limit
    peak_rss_mb: float | None = None
    #: the command whose stdout is the input file
    write: list | None = None


CASES = {
    # factor: at the point cap of sign-4 (33) and of sign-3 (101)
    "factor-sign-4-33-points": Case(
        ("factor", "sign-4", INPUT),
        stdout="3c6ac172d4b44b2c9ca52c91dc899ff5fb3cd471da19d3cef1aa131e5a6e6037",
        write=seq(32),
    ),
    "factor-circular-101-points": Case(
        ("factor", "circular", INPUT),
        stdout="39b536b0e3f67ad71deb35ba45c3abafc503fcc549e4955e82192f1a9f51d4dd",
        write=seq(100),
    ),
    # factor: past the point cap, refused by the point count alone
    "factor-sign-4-34-points": Case(
        ("factor", "sign-4", INPUT), code=2, stdout=EMPTY, stderr=POINT_CAP, write=seq(33)
    ),
    "factor-sign-4-2m-points": Case(
        ("factor", "sign-4", INPUT), code=2, stdout=EMPTY, stderr=POINT_CAP, timeout=5,
        write=seq(1_999_999),
    ),
    "factor-sign-4-2^24-zeros": Case(
        ("factor", "sign-4", INPUT), code=2, stdout=EMPTY, stderr=POINT_CAP, timeout=5,
        write=python_c("import sys; sys.stdout.write('0 ' * 2**24)"),
    ),
    # factor: past the byte bound, by the configuration text or by the file
    "factor-sign-2-4000-digit-points": Case(
        ("factor", "sign-2", INPUT), code=2, stdout=EMPTY, timeout=5,
        write=python_c("print(' '.join(str(10**3999 + i) for i in range(1000)))"),
    ),
    "factor-sign-4-10m-points": Case(
        ("factor", "sign-4", INPUT), code=2, stdout=EMPTY, timeout=5, write=seq(9_999_999)
    ),
    "factor-sign-4-2^24-lines": Case(
        ("factor", "sign-4", INPUT), code=2, stdout=EMPTY,
        stderr="error: line 2: expected a single order line", timeout=5,
        write=python_c("import sys; sys.stdout.write('0\\n' * 2**24)"),
    ),
    # witness: at the Erdos-Szekeres bound (9^2 + 1 = 82 points) and one below
    "witness-proximality-ground-82": Case(
        ("witness", "proximality", "--ground", "82", "--window", "10")
    ),
    "witness-proximality-ground-81": Case(
        ("witness", "proximality", "--ground", "81", "--window", "10"), code=2, stdout=EMPTY
    ),
    # witness: the random order at the ground bound, 2^20 points
    "witness-minimality-ground-2^20": Case(
        ("witness", "minimality", "--ground", "1048576", "--window", "4", "--seed", "0"),
        source="23f20b15b167c17565ff189a0e16f70599750c91178bd1860d15a7ca7a783f3b",
        timeout=30,
    ),
    # frequencies: the largest ground, where chunks redraw the most trials;
    # the run builds nothing of the ground's size, so it peaks near 37 and
    # 63 MiB (an order and window of 10^6 points would lift both past 95)
    "frequencies-ground-10^6-window-8": Case(
        ("frequencies", "--ground", "1000000", "--trials", "100000", "--seed", "11",
         "--format", "csv", "--window", "8"),
        stdout="3086b931d542088733f4604c5cc7d240711c62dd6a42716ad615a13a4ac4165f",
        peak_rss_mb=90,
    ),
    "frequencies-ground-10^6-window-5": Case(
        ("frequencies", "--ground", "1000000", "--trials", "100000", "--seed", "11",
         "--format", "csv", "--window", "5"),
        stdout="de22541cf2d1659f4c6cd5bcb1af635a4be9aef9a9d147790e2f6442595dcd44",
        peak_rss_mb=60,
    ),
    # frequencies: at the rank dtype boundaries
    "frequencies-ground-256-window-8": Case(
        ("frequencies", "--trials", "100000", "--seed", "11", "--ground", "256", "--window", "8"),
        stdout="cf1a4fd46989c8ffd6e9c9f4a909247f9a689102f30e07aed831cd9219fbb75f",
    ),
    "frequencies-ground-257-window-5": Case(
        ("frequencies", "--trials", "100000", "--seed", "11", "--ground", "257", "--window", "5"),
        stdout="e954e2d5b35e1dce103f11a70fa0e9ecd5805bb084f88975da5fb64fadaf4d53",
    ),
    "frequencies-ground-65537-window-6-jobs-3": Case(
        ("frequencies", "--trials", "100000", "--seed", "11", "--ground", "65537", "--window", "6",
         "--jobs", "3"),
        stdout="cb67e38b639cb7df9fb027a5cb4454c7c194de90654a687927a2c320985b92be",
    ),
    # trials past the bound are refused before a draw; 10^20 would take centuries
    **{
        f"{command}-trials-10^20": Case(
            (command, "--trials", str(10**20)), code=2, stdout=EMPTY, timeout=5,
            stderr=f"orderflow {command}: error: argument --trials: "
            f"--trials must be at most 100000000, got {10**20}",
        )
        for command in ("frequencies", "verify")
    },
    # verify: below 5 x 3! trials the orbit-average check fails correct code
    "verify-trials-29": Case(
        ("verify", "--trials", "29"), code=2, stdout=EMPTY, timeout=5,
        stderr="orderflow verify: error: argument --trials: --trials must be at least 30, got 29",
    ),
    "verify-trials-30": Case(("verify", "--trials", "30"), timeout=30),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_cli_contract(case, tmp_path):
    argv = case.argv
    if case.write is not None:
        path = tmp_path / "input.txt"
        with path.open("wb") as f:
            subprocess.run(case.write, stdout=f, check=True)
        argv = [str(path) if arg is INPUT else arg for arg in argv]
    proc = run_orderflow(argv, timeout=case.timeout)
    if case.write is not None:
        path.unlink()
    assert proc.returncode == case.code, proc.stderr[-2000:]
    if case.stdout is not None:
        assert hashlib.sha256(proc.stdout).hexdigest() == case.stdout
    lines = proc.stderr.split(b"\n")
    if case.stderr is not None:
        assert case.stderr.encode() in lines
    if case.source is not None:
        source = b"".join(line + b"\n" for line in lines if line.startswith(b"source:"))
        assert hashlib.sha256(source).hexdigest() == case.source
    if case.peak_rss_mb is not None:
        assert proc.peak_rss_mb < case.peak_rss_mb


def test_circular_census_passes_under_python_O():
    proc = run_python([str(ROOT / "scripts" / "circular_census.py"), "--max-window", "8"],
                      optimize=True)
    assert proc.returncode == 0, proc.stderr


def test_traced_bench_run_finds_every_name_it_wraps():
    """`perfbench/tracing.py` wraps package functions and methods by name, so
    a traced bench run fails once one of them is renamed or deleted."""
    proc = run_python([str(ROOT / "perfbench" / "run.py"), "--workload", "witness",
                       "--seed", "5", "--seconds", "0", "--trace", "1"], timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True


def test_every_file_parses_as_python_3_10():
    """Every .py file under src, tests and scripts parses with the grammar of
    3.10, the requires-python floor.

    This catches syntax newer than 3.10, such as `except*`.  It does not
    catch a call to an API that 3.10 lacks, such as `tomllib`.
    """
    for folder in ("src", "tests", "scripts"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
