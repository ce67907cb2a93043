"""The igusa benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload crosscheck --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The program is imported from `src/`.
Three steps:

1. The workload runs in a child process (`loop.py`) under an
   address-space limit, with IGUSA_THREADS cleared so that the default
   thread count is measured.  The child runs a seeded sample of ops in
   several passes and checks every op; see workloads.py.
2. setup_s: the time from a fresh interpreter's start to `igusa.cli`
   imported, the median of interpreters that the child starts between
   its passes, so that the samples spread over the run like the ops.
   With --trace 1, `python -X importtime` splits it into numpy, sympy and
   igusa's own modules instead, after the workload.
3. The last line of stdout is one JSON object: `correct`, `attempted`,
   `failed` and `metrics`.  With --trace 0 the metrics are end to end;
   with --trace 1 they are per layer, from a run whose every pass executes
   untraced and then traced.  The line before it holds the details:
   machine, failures with their inputs, the tail latency.  The tail is
   not a metric: with 10 samples beyond it, it moved too much from run to
   run to gate on.

An op's latency is the fastest of its passes.  On a shared host the
same code can run 1.5x slower from one second to the next; the fastest
pass is the op's own cost with the least of that in it.  ops_per_s and
op_p50_ms are taken over the ops of the sample, each with that latency.

`failed` counts ops whose output is wrong, that raised an unexpected
error, or that hit the benchmark's deadline or memory limit.  An op that
ends in a defect the benchmark keeps visible on purpose (the README's
default `verify`, stopped by its budget) is not counted as failed, but
it is not ok either: it lowers `ok_ratio`, which is 1 - fail_ratio when
fail_ratio counts every op that did not give the right answer.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

IMPORTTIME_RUNS = 3
ADDRESS_SPACE_BYTES = 3 * 1024**3
CHILD_TIMEOUT_S = 165.0

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {kind: {m["name"]: m["unit"] for m in SPEC[kind]} for kind in ("end_to_end", "per_layer")}


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("IGUSA_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_seconds() -> Dict[str, float]:
    """numpy, sympy and igusa's own import time, from `python -X importtime`."""
    samples: Dict[str, List[float]] = {"numpy": [], "sympy": [], "igusa": []}
    for _ in range(IMPORTTIME_RUNS):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import igusa.cli"],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        cumulative = {}
        for line in done.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative.setdefault(fields[2].strip(), int(fields[1]) / 1e6)
        numpy_s = cumulative.get("numpy", 0.0)
        sympy_s = cumulative.get("sympy", 0.0)
        samples["numpy"].append(numpy_s)
        samples["sympy"].append(sympy_s)
        samples["igusa"].append(cumulative["igusa"] - numpy_s - sympy_s)
    return {f"setup.import.{k}_s": statistics.median(v) for k, v in samples.items()}


def limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))


def run_child(args, spans: Path) -> dict:
    cmd = [sys.executable, str(HERE / "loop.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(spans)]
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, preexec_fn=limit_address_space)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"workload child exceeded {CHILD_TIMEOUT_S} s and was killed")
    if proc.returncode != 0:
        raise RuntimeError(f"workload child exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def tail(latencies: List[float]):
    """(percentile, value): the highest percentile with 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 20:
        return None, None
    return 100.0 * (n - 10) / n, ordered[n - 11]


def summarize(workload: str, seed: int, trace: bool, child: dict,
              setup: Dict[str, float]) -> Tuple[dict, dict]:
    """(details line, result line) from the child's records; `setup` holds
    setup_s, or with `trace` the per-module import times."""
    records = child["records"]
    untraced = [r for r in records if not r["traced"] and r["latency_s"] is not None]
    passes: Dict[str, List[float]] = {}
    for r in untraced:
        passes.setdefault(r["op"], []).append(r["latency_s"])
    latencies = [min(v) for v in passes.values()]
    ok = sum(r["status"] == "ok" for r in records)
    failed = sum(r["status"] == "failed" for r in records)
    percentile, tail_s = tail(latencies)
    details = {
        "workload": workload,
        "seed": seed,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "sympy": metadata.version("sympy"),
            "IGUSA_THREADS": "unset",
        },
        "ops": len(latencies),
        "passes": child["passes"],
        "fail_ratio": 1 - ok / len(records),
        "known_defect_ops": sum(r["status"] == "known_defect" for r in records),
        "depth_guard_share": sum(r["depth_guard"] for r in untraced) / len(untraced),
        "op_tail": {"ms": None if tail_s is None else 1000 * tail_s,
                    "percentile": percentile, "samples": len(latencies)},
        "wall_s": child["wall_s"],
        "not_ok": [{"argv": r["argv"], "status": r["status"], "reason": r["reason"]}
                   for r in records if r["status"] != "ok"],
    }
    summary = {"correct": failed == 0, "attempted": len(records), "failed": failed}
    if trace:
        values = {**child["layers"], **setup}
    else:
        values = {
            **setup,
            "ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": 1000 * statistics.median(latencies),
            "peak_rss_mb": child["peak_rss_mb"],
            "ok_ratio": ok / len(records),
        }
    summary["metrics"] = {k: {"value": values[k], "unit": u}
                          for k, u in UNITS["per_layer" if trace else "end_to_end"].items()}
    return details, summary


def main() -> int:
    parser = argparse.ArgumentParser(description="igusa benchmark")
    parser.add_argument("--workload", required=True, choices=["crosscheck", "verify", "analyze"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "igusa" / "cli.py").is_file():
        print(f"no igusa sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    child = run_child(args, out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
    setup = import_seconds() if args.trace else {"setup_s": statistics.median(child["setup_s"])}
    details, summary = summarize(args.workload, args.seed, bool(args.trace), child, setup)
    print(json.dumps(details))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
