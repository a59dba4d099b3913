"""The three-part assembly: strip type-1 risky edges, carve a first part by
modular degree targets, absorb the type-3 overlap into a second part, and
leave the remainder as the third.  Success is never assumed: an independent
final gate re-checks local irregularity of every part, and the separation /
window reports re-derive why adjacent degrees differ.

Per-vertex moduli and residue targets always come from the ORIGINAL graph's
degrees; interval windows always come from the degrees of the host graph the
part is carved out of.  The helpers below take both graphs explicitly so the
asymmetry is visible at every call site.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from ..exact import le_scaled_pow
from ..factor_solver import (
    DegreeTargetSpec,
    Failure,
    ModularTargetSpec,
    find_degree_set_subgraph,
    window_candidates,
)
from ..graph_core import (
    Decomposition,
    Graph,
    InvariantViolated,
    canon_edge,
    is_locally_irregular,
)
from ..labeling import LabelPair, ceil_log_beta, classify, ratio_gate
from ..lll_engine import Timeout, moser_tardos

STRICT_MIN_DEGREE = 10 ** 10


@dataclass
class PipelineConfig:
    seed: int = 0
    slack: float = 1.0
    solver_mode: str = "exact"
    solver_budget: int = 10000
    strict: bool = False
    lll_rounds: int = 100000

    def __post_init__(self):
        if not self.slack > 0:
            raise ValueError("slack must be positive")
        if self.solver_budget < 0:
            raise ValueError("solver budget must be >= 0")


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
    stage_reports: list = field(default_factory=list)
    labels: LabelPair | None = None
    classification: object = None
    g_prime: Graph | None = None
    h1: Graph | None = None
    g1: Graph | None = None
    overlap_c: Graph | None = None
    overlap_f: Graph | None = None
    c_count: list | None = None
    h: dict | None = None
    g_dprime: Graph | None = None
    h2: Graph | None = None
    h2_prime: Graph | None = None
    h3_prime: Graph | None = None
    decomposition: Decomposition | None = None

    def part(self, i: int) -> Graph:
        return {1: self.h1, 2: self.h2_prime, 3: self.h3_prime}[i]

    def report(self, stage: str, ok: bool, **detail):
        self.stage_reports.append({"stage": stage, "ok": ok, **detail})


@dataclass
class ColouringFailure:
    vertex: int
    cap: int
    blocked_values: list


def greedy_proper_colouring(f_graph: Graph, cap):
    """Proper vertex colouring of the overlap graph, ascending vertex id,
    least free value, subject to h(v) <= cap(v)."""
    cap_of = cap.__getitem__ if isinstance(cap, (dict, list)) else cap
    h = {}
    for v in range(f_graph.n):
        used = {h[u] for u in f_graph.neighbours(v) if u in h}
        value = 0
        while value in used:
            value += 1
        if value > cap_of(v):
            return ColouringFailure(v, cap_of(v), sorted(used))
        h[v] = value
    return h


def _lambda_modulus(e: int) -> int:
    return 3 << (2 * e)


def _colour_cap(e: int) -> int:
    return max(0, (1 << (e - 1)) - 1) if e >= 1 else 0


def _stage_factor(host: Graph, lam: list, targets: list, cfg: PipelineConfig,
                  stage: str, trace: PipelineTrace, seed_tag: str):
    """Carve a spanning subgraph of host with degree == target or target+1
    mod lam at every vertex, landing in the middle-third windows of host
    degrees.  Returns (subgraph, exempt) or a Diagnostic.

    exempt lists vertices released from the residue contract because the
    host leaves them no edges at all (degree 0 gets the singleton {0});
    this only happens in relaxed mode on small inputs.
    """
    n = host.n
    spec = ModularTargetSpec([targets[v] for v in range(n)], [lam[v] for v in range(n)])
    failing = spec.check_precondition(host)
    if cfg.strict and failing:
        trace.report(stage, False, precondition_failing=failing)
        return Diagnostic(stage, "ModulusPreconditionViolated",
                          {"vertices": failing[:20], "count": len(failing)})
    allowed = {}
    exempt = []
    empty = []
    for v in range(n):
        d = host.degree(v)
        w1, w2 = window_candidates(d, lam[v], targets[v])
        values = set()
        for x in w1 + w2:
            values.add(x)
            values.add(x + 1)
        if not values:
            if d == 0:
                values = {0}
                exempt.append(v)
            else:
                empty.append(v)
        allowed[v] = values
    if empty:
        trace.report(stage, False, precondition_failing=failing,
                     empty_target_vertices=empty[:20])
        v = empty[0]
        d = host.degree(v)
        return Diagnostic(stage, "WindowTargetInfeasible", {
            "vertices": empty[:20], "count": len(empty),
            # first failing vertex: how many integers each window holds
            # against the modulus a residue class needs to be hit
            "degree": d, "window_widths": [d // 2 - d // 3, (2 * d) // 3 - d // 2],
            "modulus": lam[v],
        })
    trace.report(stage, True, precondition_failing=failing, exempt=exempt)
    result = find_degree_set_subgraph(
        host, DegreeTargetSpec(allowed), mode=cfg.solver_mode,
        budget=cfg.solver_budget, seed=f"{cfg.seed}:{seed_tag}",
    )
    if isinstance(result, Failure):
        return Diagnostic(stage, "FactorSolverFailure", {
            "mode": result.mode, "reason": result.reason,
            "nodes_explored": result.nodes_explored,
            "best_penalty": result.best_penalty, "flips": result.flips,
        })
    return result, exempt


def _irregularity_offences(part: Graph) -> list:
    deg = part.degrees()
    return sorted((u, v) for u, v in part.edges if deg[u] == deg[v])


def decompose3(g: Graph, cfg: PipelineConfig):
    """Run the full pipeline; returns (outcome, trace) where outcome is a
    Decomposition on success or a Diagnostic naming the failed stage.

    Strict mode enforces the large-scale preconditions literally (minimum
    degree, modulus preconditions, degree windows); relaxed mode checks and
    records them but proceeds whenever every vertex still has a candidate
    target degree, relying on the final gate for soundness.
    """
    trace = PipelineTrace(g, cfg)
    deg = g.degrees()
    min_deg = min(deg) if deg else 0

    if cfg.strict and min_deg < STRICT_MIN_DEGREE:
        trace.report("preflight", False, min_degree=min_deg)
        return Diagnostic("preflight", "MinDegreeTooSmall", {
            "min_degree": min_deg, "required": STRICT_MIN_DEGREE,
        }), trace
    trace.report("preflight", True, min_degree=min_deg)

    mt = moser_tardos(g, cfg.seed, cfg.slack, cfg.lll_rounds)
    if isinstance(mt, Timeout):
        trace.report("labels", False, rounds=mt.rounds)
        return Diagnostic("labels", "ClaimBoundsUnachieved", {
            "rounds": mt.rounds, "trajectory_tail": mt.trajectory[-10:],
        }), trace
    labels = mt
    cls = classify(g, labels)
    trace.labels = labels
    trace.classification = cls
    trace.report("labels", True, r1=len(cls.r1), r2=len(cls.r2), r3=len(cls.r3))

    evec = [ceil_log_beta(d) if d >= 1 else 0 for d in deg]
    lam = [_lambda_modulus(e) for e in evec]
    t1 = [(3 * (labels.c1[v] << evec[v])) % lam[v] for v in range(g.n)]

    g_prime = g.without_edges(cls.r1)
    trace.g_prime = g_prime

    out = _stage_factor(g_prime, lam, t1, cfg, "part1_factor", trace, "part1")
    if isinstance(out, Diagnostic):
        return out, trace
    h1, _ = out
    trace.h1 = h1

    g1 = g.without_edges(h1.edges)
    trace.g1 = g1
    c_edges = g1.edges & cls.r3
    f_edges = g1.edges & cls.r2 & cls.r3
    overlap_c = g.spanning(c_edges)
    overlap_f = g.spanning(f_edges)
    trace.overlap_c = overlap_c
    trace.overlap_f = overlap_f
    c_count = [overlap_c.degree(v) for v in range(g.n)]
    trace.c_count = c_count

    caps = [_colour_cap(evec[v]) for v in range(g.n)]
    h = greedy_proper_colouring(overlap_f, caps)
    if isinstance(h, ColouringFailure):
        trace.report("overlap_colouring", False, vertex=h.vertex, cap=h.cap)
        return Diagnostic("overlap_colouring", "ColouringCapExceeded", {
            "vertex": h.vertex, "cap": h.cap, "blocked_values": h.blocked_values,
        }), trace
    trace.h = h
    trace.report("overlap_colouring", True,
                 colours_used=len(set(h.values())) if h else 0)

    t2 = [(3 * (labels.c2[v] << evec[v]) + 3 * h[v] - c_count[v]) % lam[v]
          for v in range(g.n)]
    g_dprime = g1.without_edges(g1.edges & (cls.r2 | cls.r3))
    trace.g_dprime = g_dprime

    out = _stage_factor(g_dprime, lam, t2, cfg, "part2_factor", trace, "part2")
    if isinstance(out, Diagnostic):
        return out, trace
    h2, _ = out
    trace.h2 = h2

    h2_prime = g.spanning(h2.edges | c_edges)
    h3_prime = g.spanning(g1.edges - h2_prime.edges)
    trace.h2_prime = h2_prime
    trace.h3_prime = h3_prime

    # structural consequences of the construction
    if h3_prime.edges & cls.r3:
        raise InvariantViolated(f"{len(h3_prime.edges & cls.r3)} type-3 risky edge(s) in part 3")
    covered = h1.edges | h2_prime.edges | h3_prime.edges
    sizes = h1.m + h2_prime.m + h3_prime.m
    if covered != g.edges or sizes != g.m:  # a cover whose sizes add up is a partition
        raise InvariantViolated(f"parts hold {sizes} edges on {len(covered)} distinct edges "
                                f"for a graph of {g.m}, {len(covered - g.edges)} of them non-edges")

    if cfg.strict:
        wr = window_report(trace)
        bad = [v for v, rec in wr.items()
               if not (rec["h1_window"] and rec["h2_window"] and rec["h3_window"]
                       and rec["final_window"])]
        if bad:
            trace.report("windows", False, vertices=bad[:20])
            return Diagnostic("windows", "WindowTargetInfeasible", {
                "vertices": bad[:20], "count": len(bad),
            }), trace
        trace.report("windows", True)

    offences = {i: _irregularity_offences(trace.part(i)) for i in (1, 2, 3)}
    bad_parts = {i: offs for i, offs in offences.items() if offs}
    if bad_parts:
        trace.report("final_gate", False,
                     offending={i: offs[:10] for i, offs in bad_parts.items()})
        return Diagnostic("final_gate", "PartNotIrregular", {
            "parts": {str(i): offs[:20] for i, offs in bad_parts.items()},
        }), trace

    colour = {}
    for e in h1.edges:
        colour[e] = 1
    for e in h2_prime.edges:
        colour[e] = 2
    for e in h3_prime.edges:
        colour[e] = 3
    dec = Decomposition(g, 3, colour)
    dec.validate()
    trace.decomposition = dec
    trace.report("final_gate", True)
    return dec, trace


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

    def to_json(self) -> dict:
        return {
            "edge": list(self.edge), "part": self.part, "case": self.case,
            "part_degrees": list(self.part_degrees), "separated": self.separated,
            "final_window_ok": list(self.final_window_ok),
        }


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
    gated = du >= 1 and dv >= 1 and ratio_gate(du, dv)
    if not gated:
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
    window is not guaranteed to sit inside 2d/3.
    """
    if trace.h1 is None or trace.h2_prime is None or trace.h3_prime is None:
        raise ValueError("trace does not contain all three parts")
    g = trace.graph
    out = {}
    for v in range(g.n):
        d = g.degree(v)
        d1 = trace.h1.degree(v)
        d2 = trace.h2_prime.degree(v)
        d3 = trace.h3_prime.degree(v)
        h1_ok = (le_scaled_pow(Fraction(d, 3) - d1, Fraction(8, 3), d, 31, 50)
                 and 3 * d1 <= 2 * d)
        h2_ok = (le_scaled_pow(Fraction(d, 9) - d2, Fraction(16, 3), d, 31, 50)
                 and le_scaled_pow(d2 - Fraction(4 * d, 9), Fraction(88, 9), d, 31, 50))
        h3_ok = (le_scaled_pow(Fraction(d, 9) - d3, 8, d, 31, 50)
                 and le_scaled_pow(d3 - Fraction(4 * d, 9), Fraction(64, 9), d, 31, 50))
        final_ok = all(_in_final_window(x, d) for x in (d1, d2, d3))
        out[v] = {
            "degree": d,
            "part_degrees": (d1, d2, d3),
            "h1_window": h1_ok,
            "h2_window": h2_ok,
            "h3_window": h3_ok,
            "final_window": final_ok,
            "low_degree_flag": d ** 19 < 44 ** 50,
        }
    return out
