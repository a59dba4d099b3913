"""The three-part assembly: strip type-1 risky edges, carve a first part by
modular degree targets, absorb the type-3 overlap into a second part, and
leave the remainder as the third.  Success is never assumed: an independent
final gate re-checks local irregularity of every part, and the separation /
window reports re-derive why adjacent degrees differ.

decompose3 runs the stage functions of STAGES in order and stops at the
first one that returns a Diagnostic:

  stage_preflight          exception components (odd paths, odd cycles,
                           the triangle family); records the minimum degree
  stage_labels             resampled labels and their classification (the
                           resampler's kept risky sets, or one classify
                           pass at slack inf)
  stage_part1              h1, carved out of g' = g - R1 (built only for the
                           solver: the windows read its degrees)
  stage_overlap_colouring  g1 = g - h1, the overlap graphs C and F, and h
  stage_part2              h2, carved out of g'' = g1 - (R2 | R3)
  stage_assembly           h2' = h2 + C and h3' = g1 - h2'
  stage_windows            how many vertices each degree window holds
  stage_final_gate         local irregularity of every part

Each stage reads only the PipelineTrace fields that earlier stages recorded
(or a test set by hand) and records its own outputs there.  The trace maps
degrees to e = labeling.exponents(g) once; every reader of e takes that
vector as an argument.  The resampler, the classification, the factor
moduli 3*4^e, the residue targets 3*c*2^e and the colour caps 2^(e-1) - 1
thus follow the ORIGINAL graph's degrees, while interval windows follow
those of the host a part is carved out of (an argument of _stage_factor).
Each stage's wall time goes to the CLI manifest, outside the result digest.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, compress, islice
from operator import not_

from ..exact import le_scaled_pow
from ..factor_solver import (
    SOLVER_MODES,
    DegreeTargetSpec,
    Failure,
    ModularTargetSpec,
    allowed_sets,
    find_degree_set_subgraph,
    windows,
)
from ..graph_core import Decomposition, Graph, InvariantViolated, canon_edge, exception_components
from ..labeling import LabelPair, classify, exponents, gate
from ..lll_engine import Timeout, moser_tardos


@dataclass
class PipelineConfig:
    seed: int = 0
    slack: float = math.inf
    solver_mode: str = "exact"
    solver_budget: int = 10000
    lll_rounds: int = 100000

    def __post_init__(self):
        if not self.slack > 0:
            raise ValueError("slack must be positive")
        if self.solver_mode not in SOLVER_MODES:
            raise ValueError(f"unknown solver mode {self.solver_mode!r}")
        if self.solver_budget < 0:
            raise ValueError("solver budget must be >= 0")
        if self.lll_rounds < 1:
            raise ValueError("lll rounds must be >= 1")


@dataclass
class Diagnostic:
    stage: str
    code: str
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"stage": self.stage, "code": self.code, "detail": self.detail}


@dataclass
class PipelineTrace:
    graph: Graph
    config: PipelineConfig
    exponents: list = field(init=False)
    stage_reports: list = field(default_factory=list)
    labels: LabelPair | None = None
    classification: object = None
    g_prime_degrees: list | None = None
    h1: Graph | None = None
    g1: Graph | None = None
    overlap_c: Graph | None = None
    overlap_f: Graph | None = None
    h: dict | None = None
    g_dprime: Graph | None = None
    h2: Graph | None = None
    h2_prime: Graph | None = None
    h3_prime: Graph | None = None
    decomposition: Decomposition | None = None
    stage_seconds: dict = field(default_factory=dict)  # stage name -> wall time

    def __post_init__(self):
        self.exponents = exponents(self.graph)

    def part(self, i: int) -> Graph:
        return {1: self.h1, 2: self.h2_prime, 3: self.h3_prime}[i]

    def report(self, stage: str, ok: bool, **detail):
        self.stage_reports.append({"stage": stage, "ok": ok, **detail})

    def fail(self, stage: str, code: str, detail: dict, **report) -> Diagnostic:
        """Report the stage as failed and return its Diagnostic."""
        self.report(stage, False, **report)
        return Diagnostic(stage, code, detail)


@dataclass
class ColouringFailure:
    vertex: int
    cap: int
    blocked_values: list


def greedy_proper_colouring(f_graph: Graph, cap: list):
    """Proper vertex colouring of the overlap graph, ascending vertex id,
    least free value, subject to h(v) <= cap[v].  Neighbour sets are read
    only at vertices with an edge: the others take 0, so a graph without
    edges never builds them."""
    h = {}
    deg = f_graph.degrees()
    for v in range(f_graph.n):
        used = {h[u] for u in f_graph.neighbours(v) if u in h} if deg[v] else ()
        value = 0
        while value in used:
            value += 1
        if value > cap[v]:
            return ColouringFailure(v, cap[v], sorted(used))
        h[v] = value
    return h


def _residue_spec(trace: PipelineTrace, label_terms: list) -> ModularTargetSpec:
    """Targets label_terms[v] mod 3*4^e(v), each over its modulus."""
    lam = [3 << (2 * e) for e in trace.exponents]
    return ModularTargetSpec([t % m for t, m in zip(label_terms, lam)], lam)


def _stage_factor(trace: PipelineTrace, stage: str, deg: list, build_host,
                  spec: ModularTargetSpec):
    """Carve a spanning subgraph of the host over the sets
    factor_solver.allowed_sets gives (degrees spec.t or spec.t+1 mod
    spec.lam in the windows of the host degrees deg, and {0} at degree 0);
    returns it or a Diagnostic.  Only pipeline policy lives here: the
    diagnostics and the reports.  Every check reads deg, so build_host() is
    called for the host graph only when the solver runs.  The solver is
    seeded by the config seed and stage.

    The report's exempt lists vertices released from the residue contract
    because the host leaves them no edges at all.  Like
    precondition_failing (6*lam > d, an observation, never a stop), it
    keeps the first 20 ids and a count.
    """
    cfg = trace.config
    failing = spec.check_precondition(deg)
    capped = {"precondition_failing": failing[:20], "precondition_failing_count": len(failing)}
    allowed = allowed_sets(deg, spec.lam, spec.t)
    empty = [v for v, s in allowed.items() if not s]
    if empty:
        v = empty[0]
        d = deg[v]
        return trace.fail(stage, "WindowTargetInfeasible", {
            "vertices": empty[:20], "count": len(empty),
            # first failing vertex: how many integers each window holds
            # against the modulus a residue class needs to be hit
            "degree": d, "window_widths": [len(w) for w in windows(d)],
            "modulus": spec.lam[v],
        }, empty_target_vertices=empty[:20], **capped)
    result = find_degree_set_subgraph(
        build_host(), DegreeTargetSpec(allowed), mode=cfg.solver_mode,
        budget=cfg.solver_budget, seed=f"{cfg.seed}:{stage.removesuffix('_factor')}",
    )
    exempt = list(islice(compress(range(len(deg)), map(not_, deg)), 20))
    report = dict(exempt=exempt, exempt_count=deg.count(0), **capped)
    if isinstance(result, Failure):
        return trace.fail(stage, "FactorSolverFailure", {
            "mode": result.mode, "reason": result.reason,
            "nodes_explored": result.nodes_explored,
            "best_penalty": result.best_penalty, "flips": result.flips,
        }, **report)
    trace.report(stage, True, **report)
    return result


def _irregularity_offences(part: Graph) -> list:
    deg = part.degrees()
    return sorted((u, v) for u, v in part.edges if deg[u] == deg[v])


# ---------------------------------------------------------------------------
# the stages: each takes the trace and returns a Diagnostic or None

def stage_preflight(trace: PipelineTrace):
    min_deg = trace.graph.min_degree()
    found = exception_components(trace.graph)
    if found:  # no locally irregular decomposition of any size exists
        return trace.fail("preflight", "ExceptionComponent",
                          {"components": found[:20], "count": len(found)},
                          min_degree=min_deg)
    trace.report("preflight", True, min_degree=min_deg)


def stage_labels(trace: PipelineTrace):
    g, cfg, es = trace.graph, trace.config, trace.exponents
    labels = moser_tardos(g, es, cfg.seed, cfg.slack, cfg.lll_rounds)
    if isinstance(labels, Timeout):
        return trace.fail("labels", "ClaimBoundsUnachieved",
                          {"rounds": labels.rounds, "trajectory_tail": labels.trajectory[-10:]},
                          rounds=labels.rounds)
    # the factor stages read the risky sets the resampler kept; at slack inf
    # it judged no edge, so the labels are classified here, once (tests
    # check the kept sets against a fresh classify)
    cls = trace.classification = labels.classification or classify(g, labels, es)
    trace.labels = labels
    trace.report("labels", True, r1=len(cls.r1), r2=len(cls.r2), r3=len(cls.r3))


def stage_part1(trace: PipelineTrace):
    g, r1 = trace.graph, trace.classification.r1
    deg = trace.g_prime_degrees = g.degrees()  # d_g(v) - d_R1(v)
    for u, v in r1:
        deg[u] -= 1
        deg[v] -= 1

    spec = _residue_spec(trace, [3 * (c << e) for c, e in zip(trace.labels.c1, trace.exponents)])
    out = _stage_factor(trace, "part1_factor", deg, lambda: g.without_edges(r1), spec)
    if isinstance(out, Diagnostic):
        return out
    trace.h1 = out


def stage_overlap_colouring(trace: PipelineTrace):
    g, cls = trace.graph, trace.classification
    g1 = trace.g1 = g.without_edges(trace.h1.edges)
    trace.overlap_c = g.spanning(g1.edges.intersection(cls.r3))
    trace.overlap_f = g.spanning(g1.edges.intersection(cls.r2, cls.r3))
    caps = [max((1 << e) // 2 - 1, 0) for e in trace.exponents]
    h = greedy_proper_colouring(trace.overlap_f, caps)
    if isinstance(h, ColouringFailure):
        # greedy colouring needs up to max degree + 1 values; the cap allows cap + 1
        f_max = trace.overlap_f.max_degree()
        return trace.fail("overlap_colouring", "ColouringCapExceeded",
                          {"vertex": h.vertex, "cap": h.cap, "blocked_values": h.blocked_values,
                           "f_max_degree": f_max},
                          vertex=h.vertex, cap=h.cap, f_max_degree=f_max)
    trace.h = h
    trace.report("overlap_colouring", True, colours_used=len(set(h.values())))


def stage_part2(trace: PipelineTrace):
    g1, cls = trace.g1, trace.classification
    g_dprime = trace.g_dprime = g1.without_edges(g1.edges.intersection(chain(cls.r2, cls.r3)))
    # h holds every vertex, inserted in ascending id, so its values run in vertex order
    spec = _residue_spec(trace, [
        3 * ((c << e) + hv) - dc
        for c, e, hv, dc in zip(trace.labels.c2, trace.exponents, trace.h.values(),
                                trace.overlap_c.degrees())])
    out = _stage_factor(trace, "part2_factor", g_dprime.degrees(), lambda: g_dprime, spec)
    if isinstance(out, Diagnostic):
        return out
    trace.h2 = out


def stage_assembly(trace: PipelineTrace):
    g, h1 = trace.graph, trace.h1
    h2_prime = trace.h2_prime = g.spanning(trace.h2.edges | trace.overlap_c.edges)
    h3_prime = trace.h3_prime = g.spanning(trace.g1.edges - h2_prime.edges)
    risky3 = h3_prime.edges.intersection(trace.classification.r3)
    if risky3:
        raise InvariantViolated(f"{len(risky3)} type-3 risky edge(s) in part 3")
    covered = h1.edges | h2_prime.edges | h3_prime.edges
    sizes = h1.m + h2_prime.m + h3_prime.m
    if covered != g.edges or sizes != g.m:  # a cover whose sizes add up is a partition
        raise InvariantViolated(f"parts hold {sizes} edges on {len(covered)} distinct edges "
                                f"for a graph of {g.m}, {len(covered - g.edges)} of them non-edges")


def stage_windows(trace: PipelineTrace):
    """A record, never a gate: the final gate alone decides success.  Each
    record window_report shares is read once and tallied by the number of
    vertices that share it."""
    windows = ("h1_window", "h2_window", "h3_window", "final_window")
    recs = window_report(trace).values()  # in vertex order
    shares = Counter(map(id, recs))
    # each distinct record beside the number of vertices that share it
    tallied = [(rec, shares[key]) for key, rec in dict(zip(map(id, recs), recs)).items()]
    out_keys = {id(rec) for rec, _ in tallied if not all(rec[w] for w in windows)}
    outside = [v for v, rec in enumerate(recs) if id(rec) in out_keys] if out_keys else []
    trace.report("windows", True,
                 inside={w: sum(k for rec, k in tallied if rec[w]) for w in windows},
                 outside=outside[:20], outside_count=len(outside),
                 low_degree_count=sum(k for rec, k in tallied if rec["low_degree_flag"]))


def stage_final_gate(trace: PipelineTrace):
    offences = {i: _irregularity_offences(trace.part(i)) for i in (1, 2, 3)}
    bad_parts = {i: offs for i, offs in offences.items() if offs}
    if bad_parts:
        return trace.fail("final_gate", "PartNotIrregular",
                          {"parts": {str(i): offs[:20] for i, offs in bad_parts.items()}},
                          offending={i: offs[:10] for i, offs in bad_parts.items()})
    colour = {e: i for i in (1, 2, 3) for e in trace.part(i).edges}
    dec = Decomposition(trace.graph, 3, colour)
    dec.validate()
    trace.decomposition = dec
    trace.report("final_gate", True)


STAGES = (stage_preflight, stage_labels, stage_part1, stage_overlap_colouring,
          stage_part2, stage_assembly, stage_windows, stage_final_gate)


def decompose3(g: Graph, cfg: PipelineConfig):
    """Run the full pipeline; returns (outcome, trace) where outcome is a
    Decomposition on success or a Diagnostic naming the failed stage.

    The preflight records the minimum degree and stops only at exception
    components: no graph in memory nears the paper's floor of 10^10, so
    nothing enforces it.  Modulus preconditions and degree windows are
    recorded, not enforced: a stage proceeds while every vertex has a
    candidate target degree, relying on the final gate.
    """
    trace = PipelineTrace(g, cfg)
    for stage in STAGES:
        t0 = time.perf_counter()
        diag = stage(trace)
        trace.stage_seconds[stage.__name__.removeprefix("stage_")] = time.perf_counter() - t0
        if diag is not None:
            return diag, trace
    return trace.decomposition, trace


# ---------------------------------------------------------------------------
# why adjacent part-degrees differ: the separation case analysis

@dataclass
class SeparationRecord:
    edge: tuple
    part: int
    case: str
    part_degrees: tuple
    separated: bool
    final_window_ok: tuple


def _in_final_window(dh: int, d: int) -> bool:
    return 37 * dh >= 4 * d and 3 * dh <= 2 * d


def congruence_separation_check(trace: PipelineTrace, part: int, edge) -> SeparationRecord:
    u, v = canon_edge(*edge)
    part_graph = trace.part(part)
    if part_graph is None or (u, v) not in part_graph.edges:
        raise ValueError(f"edge {u}-{v} is not in part {part}")
    g = trace.graph
    du, dv = g.degree(u), g.degree(v)
    pdu, pdv = part_graph.degree(u), part_graph.degree(v)
    if not gate(du, dv):  # both ends of an edge have degree >= 1
        case = "window_separation"
    elif part == 2 and (u, v) in trace.overlap_f.edges:
        case = "properness_of_h"
    elif part == 1:
        case = "type1_congruence_separation"
    elif part == 2:
        case = "type2_congruence_separation"
    else:
        case = "type3_window_separation"
    return SeparationRecord(
        edge=(u, v), part=part, case=case, part_degrees=(pdu, pdv),
        separated=pdu != pdv,
        final_window_ok=(_in_final_window(pdu, du), _in_final_window(pdv, dv)),
    )


def window_report(trace: PipelineTrace) -> dict:
    """Per-vertex degree-window verdicts for the three parts.

    Bounds checked (d is the original degree, all comparisons exact):
      part 1 in [d/3 - (8/3)d^0.62, 2d/3]
      part 2 in [d/9 - (16/3)d^0.62, 4d/9 + (88/9)d^0.62]
      part 3 in [d/9 - 8d^0.62, 4d/9 + (64/9)d^0.62]
      all parts in [4/37*d, 2/3*d]
    low_degree_flag marks vertices with d^0.38 < 44, where the part-2 upper
    window is not guaranteed to sit inside 2d/3.  The verdicts depend on the
    four degrees alone, so each distinct tuple is judged once, and vertices
    with equal tuples share one record: treat the records as read-only.
    """
    if trace.h1 is None or trace.h2_prime is None or trace.h3_prime is None:
        raise ValueError("trace does not contain all three parts")
    parts = (trace.graph, trace.h1, trace.h2_prime, trace.h3_prime)
    judged = {}
    return {v: judged[key] if key in judged else judged.setdefault(key, _window_verdicts(*key))
            for v, key in enumerate(zip(*(part.degrees() for part in parts)))}


def _window_verdicts(d: int, d1: int, d2: int, d3: int) -> dict:
    h1_ok = (le_scaled_pow(Fraction(d, 3) - d1, Fraction(8, 3), d, 31, 50)
             and 3 * d1 <= 2 * d)
    h2_ok = (le_scaled_pow(Fraction(d, 9) - d2, Fraction(16, 3), d, 31, 50)
             and le_scaled_pow(d2 - Fraction(4 * d, 9), Fraction(88, 9), d, 31, 50))
    h3_ok = (le_scaled_pow(Fraction(d, 9) - d3, 8, d, 31, 50)
             and le_scaled_pow(d3 - Fraction(4 * d, 9), Fraction(64, 9), d, 31, 50))
    final_ok = all(_in_final_window(x, d) for x in (d1, d2, d3))
    return {
        "degree": d,
        "part_degrees": (d1, d2, d3),
        "h1_window": h1_ok,
        "h2_window": h2_ok,
        "h3_window": h3_ok,
        "final_window": final_ok,
        "low_degree_flag": d ** 19 < 44 ** 50,
    }
