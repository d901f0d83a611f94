"""Start this checkout's code in a fresh Python process."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_python(args, *, optimize=False, stdin=None, timeout=None):
    """`python [-O] <args>` with this checkout's `src` first on PYTHONPATH.

    `-O` strips `assert` statements.  stdin, stdout and stderr are bytes, so
    the csv rows' \\r\\n reach the caller as written; past `timeout` seconds
    the child is killed and `subprocess.TimeoutExpired` is raised.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *["-O"] * optimize, *args],
        input=stdin,
        capture_output=True,
        timeout=timeout,
        env=env,
    )


def run_orderflow(argv, *, optimize=False, stdin=None, timeout=None):
    """The CLI, `python [-O] -m orderflow <argv>`, through `run_python`."""
    return run_python(
        ["-m", "orderflow", *argv], optimize=optimize, stdin=stdin, timeout=timeout
    )
