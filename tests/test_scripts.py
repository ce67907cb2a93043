"""`igusa verify` output stays byte-identical to the recorded golden file."""

import json
import os
import subprocess
import sys

import pytest

import igusa

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(igusa.__file__))


# `igusa verify` runs, recorded before the denominator factors became
# plain (A, B) pairs
with open(os.path.join(ROOT, "tests", "data", "golden_verify.json")) as fh:
    GOLDEN_VERIFY = json.load(fh)


@pytest.mark.parametrize("entry", GOLDEN_VERIFY, ids=lambda e: " ".join(e["argv"]))
def test_output_matches_golden(entry):
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-m", "igusa.cli", *entry["argv"]]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == entry["code"], proc.stderr
    assert proc.stdout == entry["stdout"]

