"""Per-layer tracing of igusa from outside the package.

`Tracer.install` rebinds every public function of the traced `igusa`
modules, in every igusa module that imported it by name (for example
`build_polyhedron` in `newton`, `cli`, `tsden` and `noncrit`), to a
wrapper that times the call.  Self time is a call's duration minus the
time of the wrapped calls it made.  Each call of a boundary function is
also kept as a span (name, start, end, parent span, op id); hot, tiny
functions only add to their counters.  `uninstall` restores the
original bindings, so an untraced run pays nothing.

A few wrappers also read the value a call returned, for counts that the
program already reports: SPF trace nodes, `CountSeries` fields, facet
and face counts, non-criticality verdicts.  The time spent reading is
charged to no layer; it is part of the tracing overhead.
"""

from __future__ import annotations

import json
import sys
import types
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

# euclid is left out: only `phi` calls it, and it takes microseconds.
LAYERS = ("_linalg", "cli", "mpoly", "newton", "noncrit", "numeric",
          "oracle", "ratfun", "spf", "tsden")
# cli.run is main's dispatch; its time stays in cli.main's self time.
NOT_WRAPPED = {"cli.run"}
# called thousands of times per op: counted and timed, but kept as no span
HOT = {
    "numeric.p_valuation", "numeric.valuation_min", "numeric.as_fraction",
    "mpoly.constant", "mpoly.variable", "mpoly.from_terms",
    "_linalg.rank", "_linalg.nullspace", "_linalg.solve",
    "_linalg.primitive_integer_vector", "newton.cone_contains",
    "noncrit.pow_mod_array", "tsden.pair_factor", "ratfun.denominator_polynomial",
    "ratfun.expand", "ratfun.series_times_denominator", "ratfun.check_recurrence",
    "ratfun.divide_out_factor",
}


class Tracer:
    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, float] = defaultdict(float)
        self.spans: List[tuple] = []
        self.op_id = 0
        self._next_span = 0
        self._stack: List[list] = []  # [child seconds, span id] per active call
        self._saved: List[tuple] = []  # (module, attribute, original)

    # -- binding --------------------------------------------------------

    def install(self) -> None:
        igusa_modules = [m for name, m in sys.modules.items()
                         if (name == "igusa" or name.startswith("igusa.")) and m is not None]
        for layer in LAYERS:
            module = sys.modules[f"igusa.{layer}"]
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in NOT_WRAPPED
                        or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(name, fn)
                for holder in igusa_modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._saved.append((holder, key, fn))
                            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._saved):
            setattr(holder, key, fn)
        self._saved.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        spans = self.spans
        hot = name in HOT
        observe = OBSERVERS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            if hot:
                span = parent
            else:
                span = tracer._next_span
                tracer._next_span += 1
            frame = [0.0, span]
            stack.append(frame)
            error: Optional[BaseException] = None
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += end - start - frame[0]
                if not hot:
                    spans.append((span, name, start, end, parent, tracer.op_id))
                if observe is not None:
                    observe(tracer, args, kwargs, result, error, end - start)
                if stack:
                    # the caller's self time excludes this call and its observation
                    stack[-1][0] += perf_counter() - start

        return wrapper

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": span, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

    # -- per-layer metrics ---------------------------------------------

    def metrics(self) -> Dict[str, float]:
        c, s, k = self.calls, self.self_s, self.counters
        out = {
            "cli.main.self_s": s["cli.main"],
            "cli.parse_polynomial.self_s": s["cli.parse_polynomial"],
            "numeric.p_valuation.calls": c["numeric.p_valuation"],
            "numeric.p_valuation.self_s": s["numeric.p_valuation"],
            "mpoly.shift_scale.calls": c["mpoly.shift_scale"],
            "mpoly.shift_scale.self_s": s["mpoly.shift_scale"],
            "mpoly.direct_sum.self_s": s["mpoly.direct_sum"],
            "spf.spf_evaluate.self_s": s["spf.spf_evaluate"],
            "spf.spf_counts.calls": c["spf.spf_counts"],
            "spf.spf_counts.self_s": s["spf.spf_counts"],
            "spf.nodes": k["spf.nodes"],
            "spf.memo_hits": k["spf.memo_hits"],
            "spf.memo_hit_ratio": ratio(k["spf.memo_hits"], k["spf.nodes"]),
            "spf.max_depth": k["spf.max_depth"],
            "spf.depth_guard_exits": k["spf.depth_guard_exits"],
            "spf.depth_guard_share": ratio(k["spf.depth_guard_exits"], c["spf.spf_evaluate"]),
            "oracle.count_mod.self_s": s["oracle.count_mod"],
            "oracle.nodes_expanded": k["oracle.nodes_expanded"],
            "oracle.candidates": k["oracle.candidates"],
            "oracle.lift_hit_ratio": ratio(k["oracle.survivors"], k["oracle.candidates"]),
            "oracle.nodes_per_s": ratio(k["oracle.nodes_expanded"], s["oracle.count_mod"]),
            "oracle.survivor_peak_bytes": k["oracle.survivor_peak_bytes"],
            "oracle.truncated_ops": k["oracle.truncated_ops"],
            "oracle.measure_series.self_s": s["oracle.measure_series"],
            "ratfun.recover_numerator.self_s": s["ratfun.recover_numerator"],
            "ratfun.reduce_factors.self_s": s["ratfun.reduce_factors"],
            "tsden.denominator.self_s": s["tsden.denominator"],
            "tsden.factors": k["tsden.factors"],
            "newton.build_polyhedron.self_s": s["newton.build_polyhedron"],
            "newton.facets": k["newton.facets"],
            "newton.faces": k["newton.faces"],
            "linalg.rank.calls": c["_linalg.rank"],
            "linalg.rank.self_s": s["_linalg.rank"],
            "linalg.nullspace.calls": c["_linalg.nullspace"],
            "linalg.nullspace.self_s": s["_linalg.nullspace"],
            "linalg.solve.calls": c["_linalg.solve"],
            "linalg.solve.self_s": s["_linalg.solve"],
            "linalg.primitive_integer_vector.self_s": s["_linalg.primitive_integer_vector"],
            "noncrit.exact_noncritical_s": k["noncrit.exact_noncritical_s"],
            "noncrit.exact_critical_s": k["noncrit.exact_critical_s"],
            "noncrit.heuristic_s": k["noncrit.heuristic_s"],
            "noncrit.check_noncritical.self_s": s["noncrit.check_noncritical"],
            "noncrit.pow_mod_array.self_s": s["noncrit.pow_mod_array"],
            "noncrit.faces": k["noncrit.faces"],
            "noncrit.verdict.critical": k["noncrit.verdict.critical"],
            "noncrit.verdict.non_critical": k["noncrit.verdict.non_critical"],
            "noncrit.verdict.inconclusive": k["noncrit.verdict.inconclusive"],
        }
        out["trace.self_sum_s"] = sum(s.values())
        # self time of every function whose self time is not a metric of its own
        out["other.self_s"] = out["trace.self_sum_s"] - sum(
            v for k, v in out.items() if k.endswith(".self_s"))
        return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# observers: (tracer, args, kwargs, result, error, seconds) -> None, where
# seconds is the call's whole duration, wrapped calls included


def _spf_evaluate(t, args, kwargs, result, error, _seconds):
    if error is not None:
        if type(error).__name__ == "DepthGuardExceeded":
            t.counters["spf.depth_guard_exits"] += 1
        return
    nodes = memo = 0
    todo = [(result.trace.root, 1)]
    deepest = 0
    while todo:
        node, depth = todo.pop()
        nodes += 1
        memo += node.memoized
        deepest = max(deepest, depth)
        todo.extend((child, depth + 1) for child in node.children)
    t.counters["spf.nodes"] += nodes
    t.counters["spf.memo_hits"] += memo
    t.counters["spf.max_depth"] = max(t.counters["spf.max_depth"], deepest)


def _count_mod(t, args, kwargs, result, error, _seconds):
    if error is not None:
        return
    width = result.p.p ** result.dim
    t.counters["oracle.nodes_expanded"] += result.nodes_expanded
    # every expanded node is one survivor tried at its p^n children (computed)
    t.counters["oracle.candidates"] += result.nodes_expanded * width
    t.counters["oracle.survivors"] += sum(result.counts)
    # the largest level held as int64 rows of n coordinates (computed)
    peak = max(result.counts, default=0) * result.dim * 8
    t.counters["oracle.survivor_peak_bytes"] = max(t.counters["oracle.survivor_peak_bytes"], peak)
    t.counters["oracle.truncated_ops"] += result.truncated


def _denominator(t, args, kwargs, result, error, _seconds):
    if error is None:
        t.counters["tsden.factors"] += len(result.factors())


def _build_polyhedron(t, args, kwargs, result, error, _seconds):
    if error is None:
        t.counters["newton.facets"] += len(result.facets)
        t.counters["newton.faces"] += len(result.faces)


def _check_noncritical(t, args, kwargs, result, error, seconds):
    if error is not None:
        return
    if result.mode == "exact_small":
        t.counters[f"noncrit.exact_{'critical' if result.verdict == 'critical' else 'noncritical'}_s"] += seconds
    else:
        t.counters["noncrit.heuristic_s"] += seconds
    t.counters["noncrit.faces"] += len(result.findings)
    t.counters[f"noncrit.verdict.{result.verdict}"] += 1


OBSERVERS = {
    "spf.spf_evaluate": _spf_evaluate,
    "oracle.count_mod": _count_mod,
    "tsden.denominator": _denominator,
    "newton.build_polyhedron": _build_polyhedron,
    "noncrit.check_noncritical": _check_noncritical,
}
