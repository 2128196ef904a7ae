"""Helpers shared by the test modules."""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def child_env(env=None):
    """``os.environ`` plus ``env``, with the checkout's ``src`` first on ``PYTHONPATH``.

    ``pythonpath`` in ``pyproject.toml`` only reaches the pytest process, so
    a child interpreter gets the checkout's ``src`` this way.
    """
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    full_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), full_env.get("PYTHONPATH")))
    )
    return full_env


def run_skacap(*argv, env=None):
    """Run ``python -m skacap.cli argv`` in a child that imports this checkout."""
    return subprocess.run(
        [sys.executable, "-m", "skacap.cli", *argv],
        capture_output=True,
        text=True,
        env=child_env(env),
    )
