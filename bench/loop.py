"""One workload in a closed loop: one client, one process, no threads.

Run by `run.py` in a child process that carries the address-space
limit.  Each op calls `igusa.cli.main(argv)` in this process with
stdout and stderr captured; its latency runs from the call to the
return.  Every op has a wall-clock deadline.  Outputs are checked after
the op, outside the timed region.  The sample of ops runs in several
passes (see workloads.py).  The last line of stdout is one JSON object
with the raw measurements, one record per op and pass.

    python3 bench/loop.py --workload crosscheck --seed 1 --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from igusa import cli  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Group, Outcome  # noqa: E402

# no op starts after RUN_CAP_S and none runs past RUN_LIMIT_S, so that
# the benchmark ends within 180 s whatever the program does; an op that
# does not start is recorded as failed
RUN_CAP_S = 140.0
RUN_LIMIT_S = 150.0
# fresh interpreters timed for setup_s in an untraced run, spread over the gaps between passes
SETUP_RUNS = 6


class OpDeadline(BaseException):
    """Raised by SIGALRM inside an op; not an Exception, so cli.main cannot catch it."""


def _on_alarm(signum, frame):
    raise OpDeadline()


def call(argv: List[str], deadline_s: float):
    """Run one op; returns (Outcome, latency in seconds)."""
    sympy = sys.modules.get("sympy")
    if sympy is not None:
        # a user's every command starts with sympy's cache empty
        sympy.core.cache.clear_cache()
    out, err = io.StringIO(), io.StringIO()
    code: Optional[int] = None
    limit = None
    signal.signal(signal.SIGALRM, _on_alarm)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except OpDeadline:
            limit = "deadline"
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 1
        finally:
            latency = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
    return Outcome(code, out.getvalue(), err.getvalue(), limit), latency


def setup_sample() -> float:
    """Seconds from a fresh interpreter's start to igusa.cli imported."""
    start = time.time()
    code = "import time, igusa.cli; print(repr(time.time()))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout) - start


def run_groups(groups: List[Tuple[int, Group]], deadline_s: float, started: float,
               records: list, tracer: Optional[Tracer] = None,
               corrupt: Optional[Callable[[Outcome], Outcome]] = None,
               checked: Optional[dict] = None) -> float:
    """Run and check every op of `groups`, each a (key, Group) pair; returns
    the summed op latency.  A record's `op` names the op as "key.index".

    `checked` maps a group's key to the outputs it was checked on and their
    verdicts; a later pass whose outputs are identical reuses the verdicts.
    """
    checked = {} if checked is None else checked
    total = 0.0
    for key, group in groups:
        ops = [f"{key}.{i}" for i in range(len(group.argvs))]
        if time.perf_counter() - started > RUN_CAP_S:
            # a run this slow measures fewer ops than planned: each one left out fails
            records.extend({"op": op, "latency_s": None, "status": "failed",
                            "reason": "not run: run cap", "argv": argv,
                            "traced": tracer is not None, "depth_guard": False}
                           for op, argv in zip(ops, group.argvs))
            continue
        outs, latencies = [], []
        for argv in group.argvs:
            if tracer is not None:
                tracer.op_id += 1
            left = RUN_LIMIT_S - (time.perf_counter() - started)
            out, latency = call(argv, max(0.1, min(deadline_s, left)))
            outs.append(corrupt(out) if corrupt is not None else out)
            latencies.append(latency)
        total += sum(latencies)
        if key not in checked or checked[key][0] != outs:
            checked[key] = (outs, group.check(outs))
        for op, argv, out, latency, reason in zip(ops, group.argvs, outs, latencies,
                                                   checked[key][1]):
            if reason is None:
                status = "ok"
            elif group.known_defect is not None and reason.startswith(group.known_defect):
                status = "known_defect"
            else:
                status = "failed"
            records.append({
                "op": op, "latency_s": latency, "status": status,
                "reason": reason, "argv": argv, "traced": tracer is not None,
                "depth_guard": workloads.depth_guard_exit(out),
            })
    return total


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 max_groups: Optional[int] = None,
                 corrupt: Optional[Callable[[Outcome], Outcome]] = None,
                 spans_path: Optional[Path] = None) -> dict:
    """Run a workload's sample in passes; with `trace`, every pass runs both
    untraced and traced.

    `seconds` fixes the number of passes from the workload's nominal pass
    time, so that every run of a workload does the same amount of work.
    """
    w = WORKLOADS[name]
    rng = random.Random(seed)
    sample = list(enumerate(w.sample(rng)))
    if max_groups is not None:
        sample = sample[:max_groups]
    n_passes = max(w.min_passes, round(seconds / w.nominal_pass_s))
    if trace:
        n_passes = max(1, n_passes // 2)
    records: list = []
    checked: dict = {}
    tracer = Tracer() if trace else None
    op_s = {False: 0.0, True: 0.0}
    started = time.perf_counter()

    def run_pass(groups: List[Tuple[int, Group]], traced: bool) -> float:
        if not traced:
            return run_groups(groups, w.op_deadline_s, started, records,
                              corrupt=corrupt, checked=checked)
        tracer.install()
        try:
            return run_groups(groups, w.op_deadline_s, started, records,
                              tracer=tracer, corrupt=corrupt, checked=checked)
        finally:
            tracer.uninstall()

    setup_s: List[float] = []
    for i in range(n_passes):
        groups = rng.sample(sample, len(sample))
        # odd passes run traced first, so that drift cancels in the overhead
        for traced in ((True, False) if i % 2 else (False, True)) if trace else (False,):
            op_s[traced] += run_pass(groups, traced)
        if not trace:
            due = (i + 1) * SETUP_RUNS // n_passes - i * SETUP_RUNS // n_passes
            setup_s += [setup_sample() for _ in range(due)]
    result = {
        "records": records,
        "passes": n_passes,
        "setup_s": setup_s,
        "wall_s": time.perf_counter() - started,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        layers = tracer.metrics()
        layers["trace.op_s"] = op_s[True]
        layers["trace.untraced_op_s"] = op_s[False]
        layers["trace.overhead_s"] = op_s[True] - op_s[False]
        result["layers"] = layers
        if spans_path is not None:
            tracer.write_spans(spans_path)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None, help="write traced spans here")
    args = parser.parse_args()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          spans_path=args.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
