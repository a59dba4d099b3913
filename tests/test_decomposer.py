import math
import sys

import pytest

from irrdec import decomposer, factor_solver, labeling, lll_engine
from irrdec.decomposer import (
    STAGES,
    ColouringFailure,
    Diagnostic,
    PipelineConfig,
    PipelineTrace,
    _stage_factor,
    congruence_separation_check,
    decompose3,
    greedy_proper_colouring,
    stage_assembly,
    stage_final_gate,
    stage_overlap_colouring,
    stage_part2,
    stage_windows,
    window_report,
)
from irrdec.factor_solver import ModularTargetSpec, allowed_degrees
from irrdec.graph_core import (
    Decomposition,
    Graph,
    InvariantViolated,
    complete,
    complete_bipartite,
    cycle,
    gnp,
    is_locally_irregular_decomposition,
    path,
    random_regular,
)
from irrdec.labeling import LabelPair, RiskyClassification, exponents
from irrdec.lll_engine import moser_tardos

from conftest import risky_sets

RELAXED = dict(slack=math.inf)
WINDOWS = ("h1_window", "h2_window", "h3_window", "final_window")


def _past_preflight(g: Graph, cfg: PipelineConfig):
    """decompose3 without its preflight.  The smallest inputs that reach a
    later stage are exception graphs, which the preflight stops."""
    trace = PipelineTrace(g, cfg)
    for stage in STAGES[1:]:
        diag = stage(trace)
        if diag is not None:
            return diag, trace
    return trace.decomposition, trace


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(slack=0)
        with pytest.raises(ValueError):
            PipelineConfig(solver_budget=-1)
        with pytest.raises(ValueError):
            PipelineConfig(solver_mode="bogus")
        with pytest.raises(ValueError):
            PipelineConfig(lll_rounds=0)
        cfg = PipelineConfig()
        assert cfg.slack == math.inf
        assert (cfg.solver_mode, cfg.solver_budget, cfg.lll_rounds) == ("exact", 10000, 100000)


class TestGreedyColouring:
    def test_path_alternates(self):
        f = path(3)
        h = greedy_proper_colouring(f, [1, 1, 1, 1])
        assert h == {0: 0, 1: 1, 2: 0, 3: 1}

    def test_triangle_needs_three_values(self):
        f = cycle(3)
        assert greedy_proper_colouring(f, [2, 2, 2]) == {0: 0, 1: 1, 2: 2}

    def test_isolated_vertices_take_zero(self, monkeypatch):
        f = Graph(6, [(1, 4), (4, 5)])
        assert greedy_proper_colouring(f, [0, 1, 0, 0, 1, 1]) == \
            {0: 0, 1: 0, 2: 0, 3: 0, 4: 1, 5: 0}

        # a graph without edges never builds its neighbour sets
        def fail(self):
            raise AssertionError("neighbour sets built for a graph without edges")

        monkeypatch.setattr(Graph, "_build_neighbours", fail)
        assert greedy_proper_colouring(Graph(100000), [0] * 100000) == \
            dict.fromkeys(range(100000), 0)

    def test_cap_exhaustion(self):
        f = cycle(3)
        out = greedy_proper_colouring(f, [2, 2, 1])
        assert isinstance(out, ColouringFailure)
        assert out.vertex == 2 and out.cap == 1 and out.blocked_values == [0, 1]


class TestPipelineOutcomes:
    def test_edgeless_succeeds_trivially(self):
        g = Graph(5, [])
        out, trace = decompose3(g, PipelineConfig(seed=1, **RELAXED))
        assert isinstance(out, Decomposition)
        assert out.k == 3 and out.colour == {}
        assert trace.decomposition is out
        stages = [r["stage"] for r in trace.stage_reports]
        assert stages == ["preflight", "labels", "part1_factor",
                          "overlap_colouring", "part2_factor", "windows", "final_gate"]
        assert all(r["ok"] for r in trace.stage_reports)
        # degree 0 sits inside every window: each bound is 0 at d = 0
        assert trace.stage_reports[5]["inside"] == dict.fromkeys(WINDOWS, 5)

    def test_infinite_slack_builds_no_neighbour_sets(self, monkeypatch):
        # at slack inf no size bound exists, so the pipeline reads only r1,
        # r2 and r3; past the preflight path(1) runs to overlap colouring,
        # and K14 stops at part 1
        def fail(*args):
            raise AssertionError("risky_neighbours called at slack inf")

        monkeypatch.setattr(lll_engine, "risky_neighbours", fail)
        monkeypatch.setattr(labeling, "risky_neighbours", fail)
        for run, g, stage in ((_past_preflight, path(1), "overlap_colouring"),
                              (decompose3, complete(14), "part1_factor")):
            out, trace = run(g, PipelineConfig(seed=1, **RELAXED))
            assert out.stage == stage
            assert trace.classification.r1

    def test_k2_hits_the_colour_cap(self):
        out, trace = _past_preflight(path(1), PipelineConfig(seed=1, **RELAXED))
        assert isinstance(out, Diagnostic)
        assert out.stage == "overlap_colouring"
        assert out.code == "ColouringCapExceeded"
        assert out.detail["cap"] == 0
        assert out.detail["f_max_degree"] == 1
        assert trace.exponents == exponents(path(1)) == [0, 0]  # cap 2^(e-1) - 1 floors at 0
        # both label slots collapse to 0, so the single edge is risky of
        # every type and survives into the overlap graph
        assert trace.overlap_f.m == 1

    def test_triangle_has_no_window_targets(self):
        out, trace = _past_preflight(cycle(3), PipelineConfig(seed=1, **RELAXED))
        assert isinstance(out, Diagnostic)
        assert out.stage == "part1_factor"
        assert out.code == "WindowTargetInfeasible"
        assert out.detail["count"] >= 1
        # the first failing vertex keeps one edge: both windows are empty
        assert trace.g_prime_degrees[out.detail["vertices"][0]] == out.detail["degree"] == 1
        assert out.detail["window_widths"] == [0, 0]
        assert out.detail["modulus"] == 12

    def test_window_diagnostic_names_widths_and_modulus(self):
        # K14 stops at part 1 because a degree-9 vertex's windows hold 1 and
        # 2 integers while a residue class mod 48 needs 48
        out, trace = decompose3(complete(14), PipelineConfig(seed=3, **RELAXED))
        assert out.code == "WindowTargetInfeasible" and out.detail["count"] == 14
        assert trace.stage_reports[-1]["precondition_failing_count"] == 14
        assert trace.g_prime_degrees[out.detail["vertices"][0]] == 9
        assert (out.detail["degree"], out.detail["window_widths"], out.detail["modulus"]) \
            == (9, [1, 2], 48)

    def test_solver_failure_reports_flips(self):
        g = complete(13)
        cfg = PipelineConfig(seed=1, solver_mode="heuristic", solver_budget=3)
        trace = PipelineTrace(g, cfg)
        out = _stage_factor(trace, "part1_factor", g.degrees(), lambda: g,
                            ModularTargetSpec([0] * 13, [1] * 13))
        assert out.code == "FactorSolverFailure"
        assert out.detail == {"mode": "heuristic", "reason": "flip budget exhausted",
                              "nodes_explored": 0, "best_penalty": 1, "flips": 3}
        # the stage is reported once, after the solve, with the same fields
        assert trace.stage_reports == [{
            "stage": "part1_factor", "ok": False, "exempt": [], "exempt_count": 0,
            "precondition_failing": [], "precondition_failing_count": 0}]

    def test_precondition_failing_is_capped(self):
        # every vertex fails 6*lam <= d here; the report keeps 20 ids and the count
        g = random_regular(400, 40, seed=1)
        out, trace = decompose3(g, PipelineConfig(seed=1, **RELAXED))
        report = next(r for r in trace.stage_reports if r["stage"] == "part1_factor")
        assert report["precondition_failing"] == list(range(20))
        assert report["precondition_failing_count"] == 400

    def test_exempt_is_capped(self):
        # the part-1 host leaves all 2,000 vertices without edges
        g = Graph(2000, [(0, 1), (1, 2), (0, 3), (3, 4)])
        out, trace = decompose3(g, PipelineConfig(seed=1))
        report = next(r for r in trace.stage_reports if r["stage"] == "part1_factor")
        assert report["exempt"] == list(range(20))
        assert report["exempt_count"] == 2000

    def test_exempt_vertices_are_not_reported_infeasible(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 2)])  # triangle plus isolated 3
        out, trace = _past_preflight(g, PipelineConfig(seed=1, **RELAXED))
        assert isinstance(out, Diagnostic)
        assert out.code == "WindowTargetInfeasible"
        assert 3 not in out.detail["vertices"]

    def test_isolated_vertices_take_no_window_translation(self, monkeypatch):
        # a vertex the host leaves no edges takes {0} as it is, so each
        # factor stage translates the windows of the vertices with edges only
        calls = []

        def counted(d, lam, t):
            calls.append(d)
            return allowed_degrees(d, lam, t)

        monkeypatch.setattr(factor_solver, "allowed_degrees", counted)
        out, trace = decompose3(Graph(500, []), PipelineConfig(seed=7))
        assert isinstance(out, Decomposition) and calls == []
        assert [r["exempt_count"] for r in trace.stage_reports if "exempt" in r] == [500, 500]
        trace = _part2_trace()
        assert stage_overlap_colouring(trace) is None and stage_part2(trace) is None
        assert calls == [2]  # the triangle of g'' shares one key; its 36 isolated vertices take none
        assert trace.stage_reports[-1]["exempt_count"] == 36

    def test_exception_component_preflight(self):
        # K4 is no exception component, the two single edges are
        g = Graph(9, [(u, v) for u in range(4) for v in range(u + 1, 4)] + [(4, 5), (6, 7)])
        out, trace = decompose3(g, PipelineConfig(seed=1))
        assert (out.stage, out.code) == ("preflight", "ExceptionComponent")
        assert out.detail == {"components": [{"vertices": [4, 5], "family": "odd_path"},
                                             {"vertices": [6, 7], "family": "odd_path"}],
                              "count": 2}
        assert trace.stage_reports == [{"stage": "preflight", "ok": False, "min_degree": 0}]

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
        assert trace.labels is not None and trace.g_prime_degrees is not None

    def test_deterministic_per_seed(self):
        g = gnp(30, 0.5, seed=3)
        out1, trace1 = decompose3(g, PipelineConfig(seed=9, **RELAXED))
        out2, trace2 = decompose3(g, PipelineConfig(seed=9, **RELAXED))
        assert type(out1) is type(out2)
        assert trace1.stage_reports == trace2.stage_reports
        if isinstance(out1, Diagnostic):
            assert (out1.stage, out1.code, out1.detail) == (
                out2.stage, out2.code, out2.detail)


class TestOneExponentMap:
    """Resampling redraws labels only, so e is one function of the degrees:
    a decompose3 op maps degrees to e once, in PipelineTrace, and every
    reader takes that vector as an argument."""

    RESAMPLED = (random_regular(240, 22, seed=7), 7, 0.21)  # graph, seed, slack

    @staticmethod
    def _count_maps(monkeypatch) -> list:
        """Wrap labeling.exponents at every irrdec module binding that holds
        it; returns the list each call appends its graph to."""
        original, calls = labeling.exponents, []

        def counted(g):
            calls.append(g)
            return original(g)

        bindings = [(mod, key) for name, mod in list(sys.modules.items())
                    if name == "irrdec" or name.startswith("irrdec.")
                    for key, value in vars(mod).items() if value is original]
        assert (labeling, "exponents") in bindings
        for mod, key in bindings:
            monkeypatch.setattr(mod, key, counted)
        return calls

    def test_dense_op_maps_degrees_once(self, monkeypatch):
        g = complete(14)
        calls = self._count_maps(monkeypatch)
        out, trace = decompose3(g, PipelineConfig(seed=1, **RELAXED))
        assert out.stage == "part1_factor" and trace.classification.r1
        assert calls == [g]

    def test_resampling_op_maps_degrees_once(self, monkeypatch):
        g, seed, slack = self.RESAMPLED
        rounds = []
        moser_tardos(g, exponents(g), seed, slack, 100,
                     observer=lambda r, *_: rounds.append(r))
        assert rounds  # the op resamples, so every round reads e
        calls = self._count_maps(monkeypatch)
        out, trace = decompose3(g, PipelineConfig(seed=seed, slack=slack, lll_rounds=100))
        assert out.stage == "part1_factor" and trace.classification is not None
        assert calls == [g]

    def test_resampler_classifies_from_its_own_terms(self, monkeypatch):
        g, seed, slack = self.RESAMPLED
        want = moser_tardos(g, exponents(g), seed, slack, 100)

        def fail(*args):
            raise AssertionError("moser_tardos called classify")

        monkeypatch.setattr(lll_engine, "classify", fail)
        assert moser_tardos(g, exponents(g), seed, slack, 100) == want


class TestOneClassification:
    """A decompose3 op classifies the whole graph once.  At finite slack
    moser_tardos hands its kept risky sets to stage_labels on the labels it
    returns; at slack inf no edge was judged, and stage_labels classifies."""

    def test_resampled_ops_read_the_kept_sets(self, monkeypatch):
        def fail(*args):
            raise AssertionError("decomposer.classify called at finite slack")

        rounds = []

        def observed(*args):
            return moser_tardos(*args, observer=lambda r, *_: rounds.append(r))

        monkeypatch.setattr(decomposer, "classify", fail)
        monkeypatch.setattr(decomposer, "moser_tardos", observed)
        passed = resampled = 0
        for d in (20, 22, 24):  # the decompose-resample regime
            g = random_regular(240, d, seed=d)
            for seed in range(6):
                rounds.clear()
                out, trace = decompose3(g, PipelineConfig(seed=seed, slack=0.21, lll_rounds=10))
                if trace.labels is None:
                    assert out.stage == "labels", (d, seed)
                    continue
                passed += 1
                resampled += bool(rounds)
                fresh = labeling.classify(g, trace.labels, trace.exponents)
                assert risky_sets(trace.classification) == risky_sets(fresh), (d, seed)
        assert passed == 17
        assert resampled == 15  # sets updated by rounds, not only as first classified

    def test_infinite_slack_classifies_once(self, monkeypatch):
        calls = []

        def counted(g, labels, es):
            calls.append(g)
            return labeling.classify(g, labels, es)

        monkeypatch.setattr(decomposer, "classify", counted)
        g = random_regular(240, 22, seed=22)
        out, trace = decompose3(g, PipelineConfig(seed=1, **RELAXED))
        assert calls == [g]
        assert trace.labels.classification is None
        assert out.stage == "part1_factor" and trace.classification.r1


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

    def test_each_vertex_judged_on_its_own_part_degrees(self):
        # every vertex has degree 3 and one part-1 edge; parts 2 and 3 differ
        g = complete(4)
        trace = PipelineTrace(g, PipelineConfig(seed=0))
        trace.h1 = g.spanning([(0, 1), (2, 3)])
        trace.h2_prime = g.spanning([(0, 2), (0, 3), (1, 3)])
        trace.h3_prime = g.spanning([(1, 2)])
        report = window_report(trace)
        assert [report[v]["part_degrees"] for v in range(4)] == \
            [(1, 2, 0), (1, 1, 1), (1, 1, 1), (1, 2, 0)]
        assert [report[v]["final_window"] for v in range(4)] == [False, True, True, False]
        # one record per distinct degree tuple, shared by the vertices that have it
        assert report[1] is report[2] and report[0] is report[3]

    def test_requires_all_parts(self):
        trace = PipelineTrace(complete(4), PipelineConfig(seed=0))
        with pytest.raises(ValueError):
            window_report(trace)


class TestWindowBoundaries:
    """Verdicts on both sides of a bound, with the expected values taken
    from integer 50th powers: d^0.62 = d^(31/50), so q <= c * d^0.62 for
    q = a/9 >= 0 and c = b/9 reads a^50 <= b^50 * d^31."""

    def test_low_degree_flag_flips_at_the_printed_threshold(self):
        # d^0.38 < 44 reads d^19 < 44^50; the paper prints 44^(1/0.38) as 21,129
        assert lll_engine.AUDIT_PRINTED["window_upper_threshold_44"] == 21129
        assert 21128 ** 19 < 44 ** 50 <= 21129 ** 19
        assert decomposer._window_verdicts(21128, 0, 0, 0)["low_degree_flag"] is True
        assert decomposer._window_verdicts(21129, 0, 0, 0)["low_degree_flag"] is False

    def test_h2_upper_coefficient(self):
        # d2 - 4d/9 <= (88/9) d^0.62 at d = 3000 holds up to d2 = 2733; at
        # 2734 it fails, though (89/9) d^0.62 would still admit it
        d = 3000
        assert (9 * 2733 - 4 * d) ** 50 <= 88 ** 50 * d ** 31
        assert 88 ** 50 * d ** 31 < (9 * 2734 - 4 * d) ** 50 <= 89 ** 50 * d ** 31
        assert decomposer._window_verdicts(d, 0, 2733, 0)["h2_window"] is True
        assert decomposer._window_verdicts(d, 0, 2734, 0)["h2_window"] is False

    def test_h3_lower_coefficient(self):
        # d/9 - d3 <= 8 d^0.62 at d = 100,000 holds from d3 = 1040 up; at
        # 1039 it fails, though 9 d^0.62 would still admit it
        d = 100000
        assert (d - 9 * 1040) ** 50 <= 72 ** 50 * d ** 31
        assert 72 ** 50 * d ** 31 < (d - 9 * 1039) ** 50 <= 81 ** 50 * d ** 31
        assert decomposer._window_verdicts(d, 0, 0, 1040)["h3_window"] is True
        assert decomposer._window_verdicts(d, 0, 0, 1039)["h3_window"] is False


def _octahedron_trace():
    """K6 minus a perfect matching, handed to the late stages as if parts 1
    and 2 had been carved: each part is two disjoint paths of length 2, so
    every part is locally irregular and every part degree (1 or 2 of 4)
    lies in its window.  Two part-2 edges come from the overlap graph C,
    one of them also in F."""
    g = Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)
                  if (u, v) not in {(0, 1), (2, 3), (4, 5)}])
    trace = PipelineTrace(g, PipelineConfig(seed=0))
    trace.classification = RiskyClassification([], [(1, 2)], [(1, 2), (0, 3)])
    trace.h1 = g.spanning([(0, 2), (0, 4), (1, 3), (1, 5)])
    trace.g1 = g.without_edges(trace.h1.edges)
    trace.overlap_c = g.spanning([(1, 2), (0, 3)])
    trace.overlap_f = g.spanning([(1, 2)])
    trace.h2 = g.spanning([(2, 4), (3, 5)])
    return trace


def _one_part_trace(g: Graph):
    """Every edge of g in part 1, nothing at risk."""
    trace = PipelineTrace(g, PipelineConfig(seed=0))
    trace.classification = RiskyClassification([], [], [])
    trace.h1 = g.spanning(g.edges)
    trace.g1 = g.spanning([])
    trace.overlap_c = trace.h2 = g.spanning([])
    return trace


def _part2_trace():
    """A triangle 2-3-4 whose vertices have degree 7, 16 and 19 (e = 2, so
    the part-2 modulus is 48 and the colour cap 1), with part 1 and the
    risky sets handed in: 3 pendant edges per triangle vertex form h1; the
    overlap C is 2, 11 and 14 pendant edges, of which 0-2 and 1-4 are also
    in F.  Greedy colouring gives h = 1 at 2 and 4, 0 at 3, so with c2 =
    0, 1, 1 every triangle vertex has target 12*c2 + 3*h - |C(v)| = 1 mod 48,
    which its host degree 2 reaches (window {1}, allowed {1, 2})."""
    leaves = iter(range(5, 39))
    c_edges = [(0, 2), (1, 4), (2, next(leaves))]
    c_edges += [(3, next(leaves)) for _ in range(11)] + [(4, next(leaves)) for _ in range(13)]
    h1 = [(v, next(leaves)) for v in (2, 3, 4) for _ in range(3)]
    g = Graph(39, [(2, 3), (2, 4), (3, 4)] + c_edges + h1)
    trace = PipelineTrace(g, PipelineConfig(seed=0))
    trace.labels = LabelPair([0] * 39, [0, 0, 0, 1, 1] + [0] * 34)
    trace.classification = RiskyClassification([], [(0, 2), (1, 4)], c_edges)
    trace.h1 = g.spanning(h1)
    return trace


class TestLateStages:
    """Assembly, the windows record, the final gate and the separation
    certificates on hand-built traces with edges; no input reaches them
    through the earlier stages at desk scale."""

    def test_octahedron_passes_every_late_stage(self):
        trace = _octahedron_trace()
        assert trace.exponents == exponents(trace.graph) == [1] * 6
        assert stage_assembly(trace) is None
        assert trace.h2_prime.edges == {(1, 2), (2, 4), (0, 3), (3, 5)}
        assert trace.h3_prime.edges == {(1, 4), (3, 4), (0, 5), (2, 5)}
        assert stage_windows(trace) is None
        assert stage_final_gate(trace) is None
        assert trace.stage_reports == [
            {"stage": "windows", "ok": True, "inside": dict.fromkeys(WINDOWS, 6),
             "outside": [], "outside_count": 0, "low_degree_count": 6},
            {"stage": "final_gate", "ok": True}]
        dec = trace.decomposition
        assert isinstance(dec, Decomposition) and is_locally_irregular_decomposition(dec)
        assert {i: dec.class_edges(i) for i in (1, 2, 3)} == \
            {i: trace.part(i).edges for i in (1, 2, 3)}

        cases = {}
        for e, part in dec.colour.items():
            rec = congruence_separation_check(trace, part, e)
            assert rec.separated and rec.final_window_ok == (True, True)
            assert sorted(rec.part_degrees) == [1, 2]
            cases[rec.case] = cases.get(rec.case, 0) + 1
        assert cases == {"type1_congruence_separation": 4, "properness_of_h": 1,
                         "type2_congruence_separation": 3, "type3_window_separation": 4}

    def test_part2_through_the_final_gate(self):
        trace = _part2_trace()
        assert [trace.graph.degree(v) for v in (2, 3, 4)] == [7, 16, 19]
        assert trace.exponents[2:5] == [2, 2, 2]
        for stage in (stage_overlap_colouring, stage_part2, stage_assembly, stage_windows,
                      stage_final_gate):
            assert stage(trace) is None, stage.__name__
        assert [trace.h[v] for v in (0, 1, 2, 3, 4)] == [0, 0, 1, 0, 1]
        assert trace.h2.edges == {(2, 3), (2, 4), (3, 4)}
        assert [r["stage"] for r in trace.stage_reports] == \
            ["overlap_colouring", "part2_factor", "windows", "final_gate"]
        # desk-scale degrees miss the final window [4d/37, 2d/3] in some
        # part at every vertex, so no gate on it could ever pass here
        windows = trace.stage_reports[2]
        assert windows["outside_count"] == 39 and windows["inside"]["final_window"] == 0
        assert trace.h3_prime.m == 0
        dec = trace.decomposition
        assert is_locally_irregular_decomposition(dec)
        cases = set()
        for e, part in dec.colour.items():
            rec = congruence_separation_check(trace, part, e)
            assert rec.separated
            cases.add(rec.case)
        # the triangle edges pass the ratio gate, every pendant edge fails it
        assert cases == {"type2_congruence_separation", "window_separation"}

    @pytest.mark.parametrize("c2_at_3,cfg,code,detail", [
        # c2(3) = 0 moves vertex 3's target to 0 + 0 - 11 = 37 mod 48, which
        # its host degree 2 misses: the low window holds 1 only, the high none
        (0, PipelineConfig(), "WindowTargetInfeasible",
         {"vertices": [3], "count": 1, "degree": 2, "window_widths": [1, 0], "modulus": 48}),
        (1, PipelineConfig(solver_mode="heuristic", solver_budget=0), "FactorSolverFailure",
         {"mode": "heuristic", "reason": "flip budget exhausted", "nodes_explored": 0,
          "best_penalty": None, "flips": 0}),
    ], ids=["window", "budget"])
    def test_part2_diagnostic_stops_the_pipeline(self, c2_at_3, cfg, code, detail):
        trace = _part2_trace()
        trace.config = cfg
        trace.labels.c2[3] = c2_at_3
        for stage in STAGES[STAGES.index(stage_overlap_colouring):]:
            out = stage(trace)
            if out is not None:
                break
        assert (out.stage, out.code, out.detail) == ("part2_factor", code, detail)
        assert [r["stage"] for r in trace.stage_reports] == ["overlap_colouring", "part2_factor"]
        last = trace.stage_reports[-1]
        assert not last["ok"] and last["precondition_failing_count"] == 39
        assert trace.h2 is trace.h2_prime is trace.decomposition is None

    def test_colouring_failure_names_the_overlap_degree(self):
        # K4 has e = 1 everywhere, so the colour cap is 0; with every edge
        # risky of types 2 and 3, F is g - h1, the 4-cycle 0-2-1-3, and
        # vertex 2 meets the value 0 at both of its coloured F-neighbours
        g = complete(4)
        trace = PipelineTrace(g, PipelineConfig(seed=0))
        trace.classification = RiskyClassification([], g.edges, g.edges)
        trace.h1 = g.spanning([(0, 1), (2, 3)])
        out = stage_overlap_colouring(trace)
        assert (out.stage, out.code) == ("overlap_colouring", "ColouringCapExceeded")
        assert trace.overlap_f.edges == {(0, 2), (0, 3), (1, 2), (1, 3)}
        assert out.detail == {"vertex": 2, "cap": 0, "blocked_values": [0], "f_max_degree": 2}
        assert trace.stage_reports == [{"stage": "overlap_colouring", "ok": False,
                                        "vertex": 2, "cap": 0, "f_max_degree": 2}]

    def test_final_gate_names_the_offending_edge(self):
        trace = _one_part_trace(path(3))
        assert stage_assembly(trace) is None
        assert stage_windows(trace) is None
        out = stage_final_gate(trace)
        assert [r["stage"] for r in trace.stage_reports] == ["windows", "final_gate"]
        assert isinstance(out, Diagnostic)
        assert (out.stage, out.code) == ("final_gate", "PartNotIrregular")
        assert out.detail == {"parts": {"1": [(1, 2)]}}
        assert trace.decomposition is None

    @pytest.mark.parametrize("parts,message", [
        # path(4) with its last two edges in no part
        ([[(0, 1), (1, 2)], [], []], "uncoloured edges"),
        # every edge of path(4) covered, plus the non-edge 0-2 in part 3
        ([[(0, 1), (1, 2)], [(2, 3), (3, 4)], [(0, 2), (2, 5)]], "coloured non-edges"),
    ], ids=["gap", "non-edge"])
    def test_final_gate_refuses_parts_that_do_not_partition(self, parts, message):
        # each part is locally irregular (paths of length 2), so only the
        # gate's own partition check can see the fault
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4)])
        trace = PipelineTrace(g, PipelineConfig(seed=0))
        trace.h1, trace.h2_prime, trace.h3_prime = (Graph(6, es) for es in parts)
        with pytest.raises(ValueError, match=message):
            stage_final_gate(trace)
        assert trace.decomposition is None and trace.stage_reports == []

    def test_windows_record_names_the_vertices_outside(self):
        # K1,3 in one part: each vertex has degree 0 in parts 2 and 3,
        # below the final window's 4d/37; part 1 holds all d, above 2d/3
        trace = _one_part_trace(complete_bipartite(1, 3))
        assert stage_assembly(trace) is None
        assert stage_windows(trace) is None
        assert trace.stage_reports == [{
            "stage": "windows", "ok": True,
            "inside": {"h1_window": 0, "h2_window": 4, "h3_window": 4, "final_window": 0},
            "outside": [0, 1, 2, 3], "outside_count": 4, "low_degree_count": 4}]

    def test_windows_record_caps_the_vertices_outside(self):
        trace = _one_part_trace(complete_bipartite(1, 30))
        assert stage_assembly(trace) is None and stage_windows(trace) is None
        (report,) = trace.stage_reports
        assert report["outside"] == list(range(20)) and report["outside_count"] == 31

    def test_assembly_checks_its_invariants(self):
        trace = _octahedron_trace()
        trace.classification = RiskyClassification([], [], [(1, 4)])
        with pytest.raises(InvariantViolated, match="type-3 risky edge"):
            stage_assembly(trace)
        trace = _octahedron_trace()
        trace.h2 = trace.graph.spanning(trace.h2.edges | {(0, 2)})  # also in part 1
        with pytest.raises(InvariantViolated, match="parts hold 13 edges"):
            stage_assembly(trace)
