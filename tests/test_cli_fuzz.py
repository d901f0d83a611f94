"""Every argv the CLI grammar allows, and many it does not, ends in exit 0,
1 or 2 within a few seconds and without a traceback.

Each example is one in-process `cli.main` call.  Every argument has a pool
of accepted and of refused values: 0, -1, 10^20, `1e3`, `0x10`, empty text,
each bound and the value past it, small sizes; for `factor`, order files
that are empty, NUL, invalid UTF-8, repeated points, two lines, CRLF,
full-width digits, a 5,000-digit point, a directory or a missing path.  An
accepted run at `--trials` 10^8, `verify --max-window` 9 or `witness
--ground` 4^10 takes about 0.6 s or more, so those bounds are drawn only past
them, and accepted grounds and windows stay at or below 4,096 points.
"""

import contextlib
import io
import signal

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from orderflow import cli

#: Seconds one call may take before it is interrupted and the test fails.
CASE_SECONDS = 5

#: Values `int` refuses.
NOT_INTS = ("1e3", "0x10", "")
#: `int` reads the Arabic-Indic digit three as 3.
SMALL = ("1", "2", "3", "٣")


def count(bound, *sizes):
    """(accepted, refused) values of a count option: small sizes, `sizes`
    and the bound, if it is given; non-counts and, past a bound, its
    successor."""
    at, past = ((), ()) if bound is None else ((str(bound),), (str(bound + 1),))
    return SMALL + sizes + at, ("0", "-1", str(10**20), *NOT_INTS, *past)


def refused_past(bound, *sizes):
    """A count option whose bound is drawn only past it."""
    return SMALL + sizes, count(bound)[1]


SEED = ("0", "-1", str(10**20)), NOT_INTS

#: An order file's contents; `DIRECTORY` and `MISSING` stand for a path
#: that is no file.
DIRECTORY, MISSING = object(), object()
ORDER_FILE = (
    (b"3 1 2 0\n", b"0 1 2 3 4 5 6\n", b"0 1 2\r\n", b"1" + b"0" * 4000 + b" 2 3\n"),
    (b"", b"\x00", b"\xff", b"1 1 2\n", b"0 1\n2 3\n", "１ ２ ３\n".encode(),
     b"1" + b"0" * 5000 + b" 2 3\n", DIRECTORY, MISSING),
)

#: Per subcommand, each argument's (accepted, refused) values, positionals
#: first, by name.
ARGUMENTS = {
    "verify": {
        "--max-window": refused_past(cli.MAX_VERIFY_WINDOW),
        # at least 5 x 3! trials, and drawn only below the upper bound
        "--trials": ((str(cli.MIN_VERIFY_TRIALS), "100"),
                     (*SMALL, str(cli.MIN_VERIFY_TRIALS - 1), *count(cli.MAX_FREQUENCY_TRIALS)[1])),
        "--seed": SEED,
    },
    "frequencies": {
        "--window": count(cli.MAX_FREQUENCY_WINDOW),
        "--ground": refused_past(cli.MAX_FREQUENCY_GROUND, "4096"),
        "--trials": refused_past(cli.MAX_FREQUENCY_TRIALS, "100"),
        "--jobs": count(cli.MAX_FREQUENCY_JOBS),
        "--seed": SEED,
        "--format": (("json", "csv", "text"), ("xml",)),
    },
    "witness": {
        "kind": (("minimality", "proximality"), ("bogus",)),
        "--ground": refused_past(cli.MAX_WITNESS_GROUND, "20", "4096"),
        "--window": count(None, "4", "65", "4096"),
        "--seed": SEED,
        "--format": (("text", "json"), ("xml",)),
    },
    "factor": {
        "code": (("sign-2", "sign-3", "sign-4", "sign-6", "circular"),
                 ("sign-1", "sign-7", "sign-٣", "")),
        "order_file": ORDER_FILE,
    },
    "bogus": {},
}
FLAGS = {"verify": ("--inject-fault",), "witness": ("--reverse-pair",)}


class Overran(BaseException):
    """Raised into a call past `CASE_SECONDS`; a `BaseException`, so that no
    handler that reports a failed check takes it for one."""


def _overran(signum, frame):
    raise Overran


@st.composite
def argvs(draw, folder):
    """An argv for `cli.main`.  One argument, the probe, takes any of its
    values; every other one takes an accepted value or, if an option, is
    left out, so a refusal before the run is the probe's."""
    command = draw(st.sampled_from(tuple(ARGUMENTS)))
    arguments = ARGUMENTS[command]
    probe = draw(st.sampled_from((None, *arguments)))
    argv = [command]
    for name, (accepted, refused) in arguments.items():
        optional = name.startswith("--")
        pool = (*accepted, *refused) if name == probe else (None,) * optional + accepted
        value = draw(st.sampled_from(pool))
        if name == "order_file":
            path = {DIRECTORY: folder, MISSING: folder / "missing.txt"}.get(value)
            if path is None:
                path = folder / "order.txt"
                path.write_bytes(value)
            value = str(path)
        if value is not None:
            argv += [name, value] if optional else [value]
    argv += [flag for flag in FLAGS.get(command, ()) if draw(st.booleans())]
    # half the calls write to stdout; a directory is refused once the run ends
    out = draw(st.sampled_from((None, None, folder / "out.txt", folder)))
    if out is not None:
        argv += ["--out", str(out)]
    return argv


@settings(
    max_examples=120,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_every_cli_call_ends_in_bounded_time_with_a_status(data, tmp_path):
    argv = data.draw(argvs(tmp_path))
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _overran)
    signal.alarm(CASE_SECONDS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
