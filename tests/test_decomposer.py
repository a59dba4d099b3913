import math

import pytest

from irrdec.decomposer import (
    ColouringFailure,
    Diagnostic,
    PipelineConfig,
    PipelineTrace,
    _stage_factor,
    congruence_separation_check,
    decompose3,
    greedy_proper_colouring,
    window_report,
)
from irrdec.graph_core import Decomposition, Graph, complete, cycle, gnp, path

RELAXED = dict(slack=math.inf)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(slack=0)
        with pytest.raises(ValueError):
            PipelineConfig(solver_budget=-1)
        cfg = PipelineConfig()
        assert cfg.solver_mode == "exact" and not cfg.strict


class TestGreedyColouring:
    def test_path_alternates(self):
        f = path(3)
        h = greedy_proper_colouring(f, [1, 1, 1, 1])
        assert h == {0: 0, 1: 1, 2: 0, 3: 1}

    def test_triangle_needs_three_values(self):
        f = cycle(3)
        assert greedy_proper_colouring(f, [2, 2, 2]) == {0: 0, 1: 1, 2: 2}

    def test_cap_exhaustion(self):
        f = cycle(3)
        out = greedy_proper_colouring(f, [2, 2, 1])
        assert isinstance(out, ColouringFailure)
        assert out.vertex == 2 and out.cap == 1 and out.blocked_values == [0, 1]

    def test_callable_cap(self):
        f = path(2)
        assert greedy_proper_colouring(f, lambda v: 5) == {0: 0, 1: 1, 2: 0}


class TestPipelineOutcomes:
    def test_edgeless_succeeds_trivially(self):
        g = Graph(5, [])
        out, trace = decompose3(g, PipelineConfig(seed=1, **RELAXED))
        assert isinstance(out, Decomposition)
        assert out.k == 3 and out.colour == {}
        assert trace.decomposition is out
        stages = [r["stage"] for r in trace.stage_reports]
        assert stages == ["preflight", "labels", "part1_factor",
                          "overlap_colouring", "part2_factor", "final_gate"]
        assert all(r["ok"] for r in trace.stage_reports)

    def test_k2_hits_the_colour_cap(self):
        out, trace = decompose3(path(1), PipelineConfig(seed=1, **RELAXED))
        assert isinstance(out, Diagnostic)
        assert out.stage == "overlap_colouring"
        assert out.code == "ColouringCapExceeded"
        assert out.detail["cap"] == 0
        # both label slots collapse to 0, so the single edge is risky of
        # every type and survives into the overlap graph
        assert trace.overlap_f.m == 1

    def test_triangle_has_no_window_targets(self):
        out, trace = decompose3(cycle(3), PipelineConfig(seed=1, **RELAXED))
        assert isinstance(out, Diagnostic)
        assert out.stage == "part1_factor"
        assert out.code == "WindowTargetInfeasible"
        assert out.detail["count"] >= 1
        # the first failing vertex keeps one edge: both windows are empty
        assert trace.g_prime.degree(out.detail["vertices"][0]) == out.detail["degree"] == 1
        assert out.detail["window_widths"] == [0, 0]
        assert out.detail["modulus"] == 12

    def test_window_diagnostic_names_widths_and_modulus(self):
        # K14 stops at part 1 because a degree-9 vertex's windows hold 1 and
        # 2 integers while a residue class mod 48 needs 48
        out, trace = decompose3(complete(14), PipelineConfig(seed=3, **RELAXED))
        assert out.code == "WindowTargetInfeasible" and out.detail["count"] == 14
        assert trace.g_prime.degree(out.detail["vertices"][0]) == 9
        assert (out.detail["degree"], out.detail["window_widths"], out.detail["modulus"]) \
            == (9, [1, 2], 48)

    def test_solver_failure_reports_flips(self):
        g = complete(13)
        cfg = PipelineConfig(seed=1, solver_mode="heuristic", solver_budget=3)
        out = _stage_factor(g, [1] * 13, [0] * 13, cfg, "part1_factor", PipelineTrace(g, cfg),
                            "part1")
        assert out.code == "FactorSolverFailure"
        assert out.detail == {"mode": "heuristic", "reason": "flip budget exhausted",
                              "nodes_explored": 0, "best_penalty": 1, "flips": 3}

    def test_exempt_vertices_are_not_reported_infeasible(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 2)])  # triangle plus isolated 3
        out, trace = decompose3(g, PipelineConfig(seed=1, **RELAXED))
        assert isinstance(out, Diagnostic)
        assert out.code == "WindowTargetInfeasible"
        assert 3 not in out.detail["vertices"]

    def test_strict_minimum_degree_preflight(self):
        out, trace = decompose3(complete(6), PipelineConfig(seed=1, strict=True))
        assert isinstance(out, Diagnostic)
        assert out.stage == "preflight" and out.code == "MinDegreeTooSmall"
        assert out.detail["required"] == 10**10

    def test_label_stage_timeout(self):
        out, trace = decompose3(
            complete(14), PipelineConfig(seed=1, slack=0.1, lll_rounds=1))
        assert isinstance(out, Diagnostic)
        assert out.stage == "labels" and out.code == "ClaimBoundsUnachieved"
        assert out.detail["rounds"] == 1

    def test_dense_graph_reports_staged_diagnostic(self):
        g = gnp(40, 0.5, seed=7)
        out, trace = decompose3(g, PipelineConfig(seed=5, **RELAXED))
        assert isinstance(out, Diagnostic)
        assert out.stage in ("part1_factor", "overlap_colouring",
                             "part2_factor", "final_gate")
        assert trace.labels is not None and trace.g_prime is not None

    def test_deterministic_per_seed(self):
        g = gnp(30, 0.5, seed=3)
        out1, trace1 = decompose3(g, PipelineConfig(seed=9, **RELAXED))
        out2, trace2 = decompose3(g, PipelineConfig(seed=9, **RELAXED))
        assert type(out1) is type(out2)
        assert trace1.stage_reports == trace2.stage_reports
        if isinstance(out1, Diagnostic):
            assert (out1.stage, out1.code, out1.detail) == (
                out2.stage, out2.code, out2.detail)


def _manual_trace():
    """complete(4) split into its three perfect matchings; not a valid
    decomposition (every part is degree-regular), but structurally complete
    enough for the report helpers, which do not require success."""
    g = complete(4)
    cfg = PipelineConfig(seed=0)
    trace = PipelineTrace(g, cfg)
    trace.h1 = g.spanning([(0, 1), (2, 3)])
    trace.h2_prime = g.spanning([(0, 2), (1, 3)])
    trace.h3_prime = g.spanning([(0, 3), (1, 2)])
    trace.overlap_f = g.spanning([(0, 2)])
    return trace


class TestSeparationCheck:
    def test_case_labels(self):
        trace = _manual_trace()
        assert congruence_separation_check(trace, 1, (0, 1)).case == \
            "type1_congruence_separation"
        assert congruence_separation_check(trace, 2, (0, 2)).case == "properness_of_h"
        assert congruence_separation_check(trace, 2, (1, 3)).case == \
            "type2_congruence_separation"
        assert congruence_separation_check(trace, 3, (0, 3)).case == \
            "type3_window_separation"

    def test_ungated_edge_is_window_separated(self):
        g = Graph(9, [(0, i) for i in range(1, 8)] + [(7, 8)])
        cfg = PipelineConfig(seed=0)
        trace = PipelineTrace(g, cfg)
        trace.h1 = g.spanning(g.edges)
        trace.h2_prime = g.spanning([])
        trace.h3_prime = g.spanning([])
        trace.overlap_f = g.spanning([])
        rec = congruence_separation_check(trace, 1, (0, 1))
        assert rec.case == "window_separation"  # degrees 7 vs 1: gate fails
        assert rec.part_degrees == (7, 1) and rec.separated

    def test_edge_must_be_in_part(self):
        trace = _manual_trace()
        with pytest.raises(ValueError):
            congruence_separation_check(trace, 1, (0, 2))

    def test_separated_flag(self):
        trace = _manual_trace()
        rec = congruence_separation_check(trace, 1, (0, 1))
        assert rec.part_degrees == (1, 1) and not rec.separated

    def test_json_shape(self):
        rec = congruence_separation_check(_manual_trace(), 1, (0, 1))
        js = rec.to_json()
        assert js["edge"] == [0, 1] and js["part"] == 1
        assert isinstance(js["final_window_ok"], list)


class TestWindowReport:
    def test_matching_parts_of_k4(self):
        report = window_report(_manual_trace())
        for v in range(4):
            rec = report[v]
            assert rec["degree"] == 3
            assert rec["part_degrees"] == (1, 1, 1)
            # d=3: each window permits degree 1, and 37*1 >= 12, 3*1 <= 6
            assert rec["h1_window"] and rec["h2_window"] and rec["h3_window"]
            assert rec["final_window"]
            assert rec["low_degree_flag"]  # 3^19 < 44^50

    def test_out_of_window_detected(self):
        g = complete(4)
        cfg = PipelineConfig(seed=0)
        trace = PipelineTrace(g, cfg)
        trace.h1 = g.spanning(g.edges)      # degree 3 of 3: above 2d/3
        trace.h2_prime = g.spanning([])
        trace.h3_prime = g.spanning([])
        report = window_report(trace)
        assert not report[0]["h1_window"]
        assert not report[0]["final_window"]

    def test_requires_all_parts(self):
        trace = PipelineTrace(complete(4), PipelineConfig(seed=0))
        with pytest.raises(ValueError):
            window_report(trace)
