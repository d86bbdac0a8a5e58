"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import owpan


@pytest.fixture
def run_fresh():
    """Run a Python script against the owpan under test; return its stdout.

    On Linux a process's ``ru_maxrss`` starts at its parent's peak (the
    peak survives fork and exec), so a child of this large test process
    would read this process's peak, not its own.  The script therefore
    runs as the grandchild of a small intermediate interpreter, and its
    ``ru_maxrss`` measures itself.
    """
    src = str(Path(owpan.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def run(script: str) -> str:
        hop = (
            "import subprocess, sys\n"
            f"sys.exit(subprocess.run([sys.executable, '-c', {script!r}]).returncode)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", hop], env=env, capture_output=True, text=True, check=True
        )
        return done.stdout

    return run
