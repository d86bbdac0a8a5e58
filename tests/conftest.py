"""Fixtures shared by the test modules."""

import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import owpan
from owpan.netsim.topology import Topology


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


@pytest.fixture(scope="session")
def readdress():
    """Give every node of a topology a fresh, distinct random 64-bit address
    drawn from ``seed``, and rewrite its links to match."""

    def run(topology: Topology, seed: int) -> Topology:
        rng = random.Random(seed)
        fresh = set()
        while len(fresh) < len(topology.nodes):
            fresh.add(rng.getrandbits(64))
        new = dict(zip((n.address for n in topology.nodes), fresh))
        return Topology(
            nodes=tuple(replace(n, address=new[n.address]) for n in topology.nodes),
            links=tuple(replace(l, src=new[l.src], dst=new[l.dst]) for l in topology.links),
        )

    return run
