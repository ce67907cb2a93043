"""The scripts under scripts/ run end to end, and the package's public
names all resolve: a deleted function must not silently break a caller."""

import json
import os
import subprocess
import sys

import pytest

import igusa

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(igusa.__file__))


@pytest.mark.parametrize(
    "argv",
    [
        ["pole_table.py", "--bound", "2"],
        ["spf_oracle_sweep.py", "--primes", "3", "--depth", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_script_exits_zero(argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


# `igusa verify` and the script built on tsden, recorded before the
# denominator factors became plain (A, B) pairs
with open(os.path.join(ROOT, "tests", "data", "golden_verify.json")) as fh:
    GOLDEN_VERIFY = json.load(fh)


@pytest.mark.parametrize("entry", GOLDEN_VERIFY, ids=lambda e: " ".join(e["argv"]))
def test_output_matches_golden(entry):
    argv = entry["argv"]
    if argv[0].startswith("scripts/"):
        cmd = [sys.executable, os.path.join(ROOT, argv[0]), *argv[1:]]
    else:
        cmd = [sys.executable, "-m", "igusa.cli", *argv]
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == entry["code"], proc.stderr
    assert proc.stdout == entry["stdout"]


def test_public_names_resolve():
    for name in igusa.__all__:
        assert getattr(igusa, name) is not None, name
