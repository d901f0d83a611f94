"""Start this checkout's code in a fresh Python process."""

import contextlib
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

#: `python -c` code that forks, runs the command in its argv from its second
#: argument on in the fork, reaps it with `os.wait4`, and writes its wait
#: status and peak RSS in KiB to the file its first argument names.  Linux
#: keeps across exec the larger of a process's peak and that of the memory
#: it replaces, and `subprocess` starts a child by vfork, in its parent's
#: memory, so a child started straight from the test process reports that
#: process's peak.  Forked from this small interpreter, the child reports
#: its own peak, or the interpreter's 10-15 MB if that is larger.
_LAUNCHER = """\
import os, sys
pid = os.fork()
if pid == 0:
    try:
        os.execv(sys.argv[2], sys.argv[2:])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
with open(sys.argv[1], "w") as report:
    report.write(f"{status} {usage.ru_maxrss}")
"""


class Finished(NamedTuple):
    returncode: int
    stdout: bytes
    stderr: bytes
    #: the child's own peak resident set size in MiB, from `os.wait4`
    peak_rss_mb: float


def run_python(args, *, optimize=False, stdin=None, timeout=None):
    """`python [-O] <args>` with this checkout's `src` first on PYTHONPATH.

    `-O` strips `assert` statements.  stdin, stdout and stderr are bytes, so
    the csv rows' \\r\\n reach the caller as written.  The child runs under
    `_LAUNCHER`, in a session of its own: past `timeout` seconds both are
    killed and `subprocess.TimeoutExpired` is raised.  The result carries
    the child's own peak RSS.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as scratch:
        report = Path(scratch) / "wait4"
        launcher = subprocess.Popen(
            [sys.executable, "-c", _LAUNCHER, str(report),
             sys.executable, *["-O"] * optimize, *args],
            stdin=None if stdin is None else subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            start_new_session=True,
        )
        try:
            stdout, stderr = launcher.communicate(stdin, timeout=timeout)
        except BaseException:  # past the timeout, or interrupted: leave no child
            with contextlib.suppress(ProcessLookupError):
                os.killpg(launcher.pid, signal.SIGKILL)
            launcher.communicate()
            raise
        status, peak_kib = map(int, report.read_text().split())
    return Finished(os.waitstatus_to_exitcode(status), stdout, stderr, peak_kib / 1024)


def run_orderflow(argv, *, optimize=False, stdin=None, timeout=None):
    """The CLI, `python [-O] -m orderflow <argv>`, through `run_python`."""
    return run_python(
        ["-m", "orderflow", *argv], optimize=optimize, stdin=stdin, timeout=timeout
    )
