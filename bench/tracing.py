"""Span recording around irrdec's public functions, for the traced run.

Every wrapper is bound in each irrdec module namespace that holds the
original function by name (decomposer.classify, lll_engine.classify,
cli.decompose3, ...); a call through any other binding would bypass it.
Wrappers are installed only for the duration of one traced op, so the
benchmark's own checks, which call some of the same functions, are never
recorded.  Hot predicates get a call counter instead of a span.

Spans and counts are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

from irrdec.decomposer import Diagnostic
from irrdec.factor_solver import Failure
from irrdec.graph_core import Graph
from irrdec.lll_engine import Timeout

from workloads import ceil_log_beta


def _mode(args, kwargs) -> str:
    return kwargs.get("mode", args[2] if len(args) > 2 else "exact")


def _enumerated(args, kwargs) -> int:
    du, dv = args[0], args[1]
    conditioned = kwargs.get("conditioned", args[3] if len(args) > 3 else None) or {}
    lam = {"c1_u": ceil_log_beta(du), "c2_u": ceil_log_beta(du),
           "c1_v": ceil_log_beta(dv), "c2_v": ceil_log_beta(dv)}
    return 1 << sum(e for slot, e in lam.items() if slot not in conditioned)


PART1_OR_EARLIER = frozenset({"preflight", "labels", "part1_factor"})

# span name -> (owner, attribute, extra(args, kwargs, result) or None)
SPANS = {
    "cli.main": ("irrdec.cli", "main", None),
    "graph_core.parse_edge_list": ("irrdec.graph_core", "parse_edge_list", None),
    "graph_core.recognize_exception": ("irrdec.graph_core", "recognize_exception", None),
    "graph_core.without_edges": (Graph, "without_edges", None),
    "graph_core.spanning": (Graph, "spanning", None),
    "labeling.classify": ("irrdec.labeling", "classify", lambda a, k, r: a[0].m),
    "lll_engine.moser_tardos": ("irrdec.lll_engine", "moser_tardos",
                                lambda a, k, r: int(isinstance(r, Timeout))),
    "lll_engine.violated_events": ("irrdec.lll_engine", "violated_events",
                                   lambda a, k, r: len(r)),
    "lll_engine.exact_edge_risk_probability": ("irrdec.lll_engine",
                                               "exact_edge_risk_probability",
                                               lambda a, k, r: _enumerated(a, k)),
    "lll_engine.worst_conditional_risk": ("irrdec.lll_engine", "worst_conditional_risk", None),
    "lll_engine.audit_constants": ("irrdec.lll_engine", "audit_constants", None),
    "exact.floor_scaled_pow": ("irrdec.exact", "floor_scaled_pow", None),
    "factor_solver.find_degree_set_subgraph": (
        "irrdec.factor_solver", "find_degree_set_subgraph",
        lambda a, k, r: [_mode(a, k), int(not isinstance(r, Failure))]),
    "factor_solver.window_candidates": ("irrdec.factor_solver", "window_candidates", None),
    "factor_solver.verify_factor": ("irrdec.factor_solver", "verify_factor", None),
    "oracle.min_parts": ("irrdec.oracle", "min_parts",
                         lambda a, k, r: [r.nodes_explored, int(r.feasible_k is None)]),
    "decomposer.decompose3": (
        "irrdec.decomposer", "decompose3",
        lambda a, k, r: int(not (isinstance(r[0], Diagnostic)
                                 and r[0].stage in PART1_OR_EARLIER))),
}
COUNTED = {
    "labeling.ratio_gate": ("irrdec.labeling", "ratio_gate"),
    "exact.cmp_scaled_pow": ("irrdec.exact", "cmp_scaled_pow"),
}

# which end-to-end metric each layer should move, on which workload
LAYER_EFFECTS = {
    "cli": "ops_per_s on decompose-dense; op_p50_ms on oracle-sweep and riskprob; "
           "zero on decompose-resample",
    "graph_core": "ops_per_s and peak_rss_mb on decompose-dense",
    "labeling": "ops_per_s on decompose-dense and decompose-resample",
    "lll_engine": "resampler half: ops_per_s and op_tail_ms on decompose-resample, not "
                  "decompose-dense (one violated_events call per op); probability half: "
                  "ops_per_s and op_tail_ms on riskprob",
    "exact": "riskprob and decompose-resample",
    "factor_solver": "ops_per_s and op_tail_ms on factor-solve; negligible on "
                     "decompose-dense (d <= 120)",
    "oracle": "ops_per_s on oracle-sweep; oracle.nodes moves only with pruning changes",
    "decomposer": "ops_per_s on decompose-dense and decompose-resample",
    "trace": "none; traced ops_per_s over untraced ops_per_s in the same run",
}

# name -> (unit, better); the order is the order of the report
METRICS = {
    "cli.main.s": ("s/op", "lower"),
    "cli.self.s": ("s/op", "lower"),
    "graph_core.parse_edge_list.s": ("s/op", "lower"),
    "graph_core.recognize_exception.s": ("s/op", "lower"),
    "graph_core.graph_build.s": ("s/op", "lower"),
    "labeling.classify.calls": ("count", "lower"),
    "labeling.classify.s": ("s/op", "lower"),
    "labeling.classify.edges_per_s": ("edges/s", "higher"),
    "labeling.ratio_gate.calls": ("count", "lower"),
    "lll_engine.moser_tardos.s": ("s/op", "lower"),
    "lll_engine.violated_events.calls": ("count", "lower"),
    "lll_engine.violated_events.s": ("s/op", "lower"),
    "lll_engine.rounds": ("count", "lower"),
    "lll_engine.round_ms": ("ms", "lower"),
    "lll_engine.timeouts": ("count", "lower"),
    "lll_engine.exact_edge_risk_probability.s": ("s/op", "lower"),
    "lll_engine.enum_assignments_per_s": ("assignments/s", "higher"),
    "lll_engine.worst_conditional_risk.s": ("s/op", "lower"),
    "lll_engine.audit_constants.s": ("s/op", "lower"),
    "exact.cmp_scaled_pow.calls": ("count", "lower"),
    "exact.floor_scaled_pow.calls": ("count", "lower"),
    "exact.floor_scaled_pow.s": ("s/op", "lower"),
    "factor_solver.exact.s": ("s/op", "lower"),
    "factor_solver.exact.max_ms": ("ms", "lower"),
    "factor_solver.heuristic.s": ("s/op", "lower"),
    "factor_solver.heuristic.success_ratio": ("ratio", "higher"),
    "factor_solver.window_candidates.calls": ("count", "lower"),
    "factor_solver.window_candidates.s": ("s/op", "lower"),
    "factor_solver.verify_factor.s": ("s/op", "lower"),
    "oracle.min_parts.s": ("s/op", "lower"),
    "oracle.nodes": ("count", "lower"),
    "oracle.nodes_per_s": ("nodes/s", "higher"),
    "oracle.infeasible.s": ("s/op", "lower"),
    "decomposer.decompose3.s": ("s/op", "lower"),
    "decomposer.self.s": ("s/op", "lower"),
    "decomposer.ops_past_part1": ("count", "higher"),
    "trace.overhead_ratio": ("ratio", "higher"),
}


class Tracer:
    """Collects spans [name, start, end, parent, op, extra] and per-op
    call counts while installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()  # (name, op) -> calls
        self._stack = []
        self._op = -1
        self._bindings = []  # (namespace, attribute, original, wrapper)
        for name, (owner, attr, extra) in SPANS.items():
            self._bind(owner, attr, self._span_wrapper(name, extra))
        for name, (owner, attr) in COUNTED.items():
            self._bind(owner, attr, self._count_wrapper(name))

    def _bind(self, owner, attr, make_wrapper) -> None:
        if not isinstance(owner, str):  # a class attribute, such as Graph.spanning
            original = getattr(owner, attr)
            self._bindings.append((owner, attr, original, make_wrapper(original)))
            return
        original = getattr(sys.modules[owner], attr)
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "irrdec" and not mod_name.startswith("irrdec."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._bindings.append((mod, key, original, wrapper))

    def _span_wrapper(self, name, extra):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._op, None]
                self._stack.append(len(self.spans))
                self.spans.append(span)
                span[1] = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = time.perf_counter()
                    self._stack.pop()
                if extra is not None:
                    span[5] = extra(args, kwargs, result)
                return result
            return wrapper
        return make

    def _count_wrapper(self, name):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.counts[name, self._op] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def install(self, op: int) -> None:
        self._op = op
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)
        self._op = -1

    def metrics(self, traced_ops: list, prefix: int, overhead_ratio: float) -> dict:
        """Per-layer metrics.  Times are per traced op over all traced ops;
        counts are exact sums over the traced ops below the digest prefix
        (the second block), a fixed op set for a given seed."""
        n = max(len(traced_ops), 1)
        fixed = {i for i in traced_ops if i < prefix}
        dur = [s[2] - s[1] for s in self.spans]
        child = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]

        def sel(name, pred=None):
            return [i for i, s in enumerate(self.spans)
                    if s[0] == name and (pred is None or pred(s))]

        def total(idx):
            return sum(dur[i] for i in idx)

        def per_op(idx):
            return total(idx) / n

        def self_per_op(idx):
            return sum(dur[i] - child[i] for i in idx) / n

        def calls(name):
            return sum(1 for s in self.spans if s[0] == name and s[4] in fixed)

        def counted(name):
            return sum(c for (nm, op), c in self.counts.items() if nm == name and op in fixed)

        def rate(work, seconds):
            return work / seconds if seconds > 0 else 0.0

        cli_main = sel("cli.main")
        classify = sel("labeling.classify")
        mt = sel("lll_engine.moser_tardos")
        ve = sel("lll_engine.violated_events")
        enum = sel("lll_engine.exact_edge_risk_probability")
        solver_exact = sel("factor_solver.find_degree_set_subgraph", lambda s: s[5][0] == "exact")
        solver_heur = sel("factor_solver.find_degree_set_subgraph",
                          lambda s: s[5][0] == "heuristic")
        oracle = sel("oracle.min_parts")
        d3 = sel("decomposer.decompose3")
        return {
            "cli.main.s": per_op(cli_main),
            "cli.self.s": self_per_op(cli_main),
            "graph_core.parse_edge_list.s": per_op(sel("graph_core.parse_edge_list")),
            "graph_core.recognize_exception.s": per_op(sel("graph_core.recognize_exception")),
            "graph_core.graph_build.s": per_op(sel("graph_core.without_edges")
                                               + sel("graph_core.spanning")),
            "labeling.classify.calls": calls("labeling.classify"),
            "labeling.classify.s": per_op(classify),
            "labeling.classify.edges_per_s": rate(sum(self.spans[i][5] for i in classify),
                                                  total(classify)),
            "labeling.ratio_gate.calls": counted("labeling.ratio_gate"),
            "lll_engine.moser_tardos.s": per_op(mt),
            "lll_engine.violated_events.calls": calls("lll_engine.violated_events"),
            "lll_engine.violated_events.s": per_op(ve),
            "lll_engine.rounds": sum(1 for i in ve
                                     if self.spans[i][5] and self.spans[i][4] in fixed),
            "lll_engine.round_ms": 1000 * rate(total(mt), len(ve)),
            "lll_engine.timeouts": sum(self.spans[i][5] for i in mt if self.spans[i][4] in fixed),
            "lll_engine.exact_edge_risk_probability.s": per_op(enum),
            "lll_engine.enum_assignments_per_s": rate(sum(self.spans[i][5] for i in enum),
                                                      total(enum)),
            "lll_engine.worst_conditional_risk.s": per_op(sel("lll_engine.worst_conditional_risk")),
            "lll_engine.audit_constants.s": per_op(sel("lll_engine.audit_constants")),
            "exact.cmp_scaled_pow.calls": counted("exact.cmp_scaled_pow"),
            "exact.floor_scaled_pow.calls": calls("exact.floor_scaled_pow"),
            "exact.floor_scaled_pow.s": per_op(sel("exact.floor_scaled_pow")),
            "factor_solver.exact.s": per_op(solver_exact),
            "factor_solver.exact.max_ms": 1000 * max((dur[i] for i in solver_exact), default=0.0),
            "factor_solver.heuristic.s": per_op(solver_heur),
            "factor_solver.heuristic.success_ratio": rate(
                sum(self.spans[i][5][1] for i in solver_heur), len(solver_heur)),
            "factor_solver.window_candidates.calls": calls("factor_solver.window_candidates"),
            "factor_solver.window_candidates.s": per_op(sel("factor_solver.window_candidates")),
            "factor_solver.verify_factor.s": per_op(sel("factor_solver.verify_factor")),
            "oracle.min_parts.s": per_op(oracle),
            "oracle.nodes": sum(self.spans[i][5][0] for i in oracle if self.spans[i][4] in fixed),
            "oracle.nodes_per_s": rate(sum(self.spans[i][5][0] for i in oracle), total(oracle)),
            "oracle.infeasible.s": per_op([i for i in oracle if self.spans[i][5][1]]),
            "decomposer.decompose3.s": per_op(d3),
            "decomposer.self.s": self_per_op(d3),
            "decomposer.ops_past_part1": sum(self.spans[i][5] for i in d3
                                             if self.spans[i][4] in fixed),
            "trace.overhead_ratio": overhead_ratio,
        }

    def write(self, path: Path, header: dict, origin: float) -> None:
        """Spans with times relative to origin, plus counts, as one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [[s[0], s[1] - origin, s[2] - origin, s[3], s[4], s[5]] for s in self.spans]
        counts = [[name, op, c] for (name, op), c in sorted(self.counts.items())]
        with open(path, "w") as fh:
            json.dump({**header, "counts": counts, "spans": spans}, fh, separators=(",", ":"))
            fh.write("\n")
