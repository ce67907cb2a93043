"""Self-test of the benchmark.

    python3 -m pytest bench/selftest -q

Runs each workload on a handful of ops, checks that the benchmark emits
every metric named in BENCHMARK.json with its unit, that an injected
wrong output is counted as a failed op, and that the command fails
without printing a result where the program's sources are missing.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import loop  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Outcome  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
HANDFUL = {"crosscheck": 3, "verify": 2, "analyze": 3}


def units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def bench_command(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def corrupt(out: Outcome) -> Outcome:
    """A plausible wrong answer for every kind of op."""
    if out.code != 0:
        return Outcome(out.code, out.stdout, json.dumps(
            {"schema": 1, "error": {"type": "ValueError", "message": "injected"}}))
    payload = json.loads(out.stdout)
    if "zeta" in payload:
        numerator = payload["zeta"]["numerator"]
        numerator[0] = str(Fraction(numerator[0]) + 1)
    elif "counts" in payload:
        payload["counts"][-1] += 1
    elif "noncritical" in payload:
        report = payload["noncritical"]
        report["verdict"] = "critical" if report["verdict"] != "critical" else "non_critical"
    else:
        payload["poles"].append("-7/2")
    return Outcome(out.code, json.dumps(payload), out.stderr)


@pytest.mark.parametrize("workload", sorted(HANDFUL))
def test_handful_of_ops_pass_their_checks(workload):
    child = loop.run_workload(workload, seed=1, seconds=1, trace=False,
                              max_groups=HANDFUL[workload])
    statuses = [r["status"] for r in child["records"]]
    assert statuses and "failed" not in statuses, child["records"]
    _, summary = run.summarize(workload, 1, False, child, {"setup_s": 0.5})
    assert summary["correct"] and summary["failed"] == 0
    assert {k: m["unit"] for k, m in summary["metrics"].items()} == units("end_to_end")


@pytest.mark.parametrize("workload", sorted(HANDFUL))
def test_injected_wrong_output_is_a_failed_op(workload):
    child = loop.run_workload(workload, seed=1, seconds=1, trace=False,
                              max_groups=HANDFUL[workload], corrupt=corrupt)
    records = child["records"]
    assert records and all(r["status"] == "failed" for r in records), records
    _, summary = run.summarize(workload, 1, False, child, {"setup_s": 0.5})
    assert summary["failed"] == summary["attempted"] == len(records)
    assert not summary["correct"]


def test_known_defect_is_neither_ok_nor_failed():
    entry = next(e for e in workloads.REFERENCE["ops"] if "known_defect" in e)
    group = workloads.Group([entry["argv"]], workloads.reference_check(entry),
                            known_defect=entry["known_defect"])
    records: list = []
    loop.run_groups([(0, group)], 60.0, time.perf_counter(), records)
    assert [r["status"] for r in records] == ["known_defect"], records
    _, summary = run.summarize("verify", 1, False, {"records": records, "passes": 1,
                                                    "wall_s": 1.0, "peak_rss_mb": 1.0},
                               {"setup_s": 0.5})
    assert summary["correct"] and summary["failed"] == 0
    assert summary["metrics"]["ok_ratio"]["value"] == 0


def test_an_ops_latency_is_its_fastest_pass():
    records = [{"op": op, "latency_s": t, "status": "ok", "reason": None, "argv": [],
                "traced": False, "depth_guard": False}
               for op, t in [("0.0", 0.3), ("0.0", 0.1), ("1.0", 0.2), ("1.0", 0.4)]]
    _, summary = run.summarize("verify", 1, False, {"records": records, "passes": 2,
                                                    "wall_s": 1.0, "peak_rss_mb": 1.0},
                               {"setup_s": 0.5})
    assert summary["metrics"]["op_p50_ms"]["value"] == pytest.approx(150.0)
    assert summary["metrics"]["ops_per_s"]["value"] == pytest.approx(2 / 0.3)


def test_ops_left_out_by_the_run_cap_are_failed():
    group = workloads.crosscheck_group(random.Random(1), 3, 1, "smooth")
    records: list = []
    loop.run_groups([(0, group)], 20.0, time.perf_counter() - loop.RUN_CAP_S - 1, records)
    assert [(r["status"], r["reason"]) for r in records] == [("failed", "not run: run cap")] * 3


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_emits_every_named_metric_with_its_unit(trace, kind):
    done = bench_command("--workload", "crosscheck", "--seed", "3", "--seconds", "1",
                         "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units(kind)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = bench_command("--workload", "verify", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
