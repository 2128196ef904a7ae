"""Helpers shared by the test modules."""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run_skacap(*argv, env=None):
    """Run ``python -m skacap.cli argv`` in a child that imports this checkout.

    ``pythonpath`` in ``pyproject.toml`` only reaches the pytest process, so
    the child gets the checkout's ``src`` prepended to its ``PYTHONPATH``.
    """
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    full_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), full_env.get("PYTHONPATH")))
    )
    return subprocess.run(
        [sys.executable, "-m", "skacap.cli", *argv],
        capture_output=True,
        text=True,
        env=full_env,
    )
