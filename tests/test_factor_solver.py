import ast
import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irrdec import factor_solver
from irrdec.factor_solver import (
    ISOLATED,
    DegreeTargetSpec,
    Failure,
    ModularTargetSpec,
    allowed_degrees,
    allowed_sets,
    choose_window_targets,
    derived_seed,
    find_degree_set_subgraph,
    find_modular_subgraph,
    verify_factor,
    window_candidates,
    windows,
)
from irrdec.graph_core import Graph, InvariantViolated, complete, cycle, gnp, path, random_regular
from irrdec.labeling import ceil_log_beta


class TestWindows:
    def test_candidates(self):
        assert window_candidates(12, 2, 0) == ([6], [6])
        assert window_candidates(60, 10, 7) == ([27], [37])
        assert window_candidates(6, 1, 0) == ([3], [3])
        assert window_candidates(1, 3, 0) == ([], [])

    @pytest.mark.parametrize(
        "d,lam,t,expected",
        [(12, 2, 0, (6, 6)), (6, 1, 0, (3, 3)), (60, 10, 7, (27, 37))],
    )
    def test_choose_targets(self, d, lam, t, expected):
        g = complete(d + 1)  # every vertex has degree d
        spec = ModularTargetSpec([t] + [0] * d, [lam] + [1] * d)
        targets = choose_window_targets(g, spec)
        assert targets[0] == expected

    def test_precondition_raise(self):
        g = path(1)
        spec = ModularTargetSpec([0, 0], [3, 3])  # 6*3 > 1
        assert spec.check_precondition(g.degrees()) == [0, 1]
        with pytest.raises(ValueError):
            choose_window_targets(g, spec)

    @given(st.integers(min_value=6, max_value=3000))
    @settings(max_examples=200)
    def test_windows_hold_lambda_consecutive_values(self, d):
        # any modulus lam with 6*lam <= d finds a candidate in each window
        lam = max(1, d // 6)
        for t in (0, 1, lam - 1):
            w1, w2 = window_candidates(d, lam, t)
            assert w1 and w2

    def test_from_pairs(self):
        g = complete(8)  # degree 7 everywhere
        spec = DegreeTargetSpec.from_pairs(g, {v: (3, 4) for v in range(8)})
        assert spec.allowed[0] == {3, 4, 5}
        with pytest.raises(ValueError):
            DegreeTargetSpec.from_pairs(g, {v: (1, 4) for v in range(8)})
        with pytest.raises(ValueError):
            DegreeTargetSpec.from_pairs(g, {v: (3, 6) for v in range(8)})


def _ref_every_match(d, lam, t):
    """The pipeline's former rule: every residue match in either window, plus one."""
    def residues(lo, hi):
        return list(range(lo + (t - lo) % lam, hi + 1, lam))

    w1, w2 = residues(d // 3 + 1, d // 2), residues(d // 2, (2 * d) // 3 - 1)
    return {y for x in w1 + w2 for y in (x, x + 1)}


class TestTranslation:
    """allowed_degrees is the one modular-to-allowed translation; it must
    equal both rules it replaced wherever each was used."""

    def test_window_geometry(self):
        assert windows(9) == (range(4, 5), range(4, 6))
        assert [len(w) for w in windows(1)] == [0, 0]
        assert windows(60) == (range(21, 31), range(30, 40))

    def test_equals_every_match_below_six_lam(self):
        # every pipeline modulus 3*4^e, e <= 3: all d < 6*lam, all t
        for e in range(4):
            lam = 3 << (2 * e)
            for d in range(6 * lam):
                for t in range(lam):
                    assert allowed_degrees(d, lam, t) == _ref_every_match(d, lam, t), (d, lam, t)
        rng = random.Random(9)
        for e in range(4, 8):
            lam = 3 << (2 * e)
            for _ in range(500):
                d, t = rng.randrange(6 * lam), rng.randrange(lam)
                assert allowed_degrees(d, lam, t) == _ref_every_match(d, lam, t), (d, lam, t)

    def test_equals_window_targets_under_the_precondition(self):
        # from_pairs(choose_window_targets(...)) on seeded specs: whole hosts
        # up to degree 300, then the per-vertex least matches up to 10^6
        rng = random.Random(5)
        for n in (7, 13, 40, 121, 301):
            g = complete(n)
            lam = [rng.randint(1, (n - 1) // 6) for _ in range(n)]
            spec = ModularTargetSpec([rng.randrange(-m, 2 * m) for m in lam], lam)
            want = DegreeTargetSpec.from_pairs(g, choose_window_targets(g, spec)).allowed
            assert want == {v: allowed_degrees(n - 1, lam[v], spec.t[v]) for v in range(n)}
        for _ in range(2000):
            d = rng.randint(6, 10 ** 6)
            lam = rng.randint(1, d // 6)
            t = rng.randrange(lam)
            w1, w2 = window_candidates(d, lam, t)
            assert allowed_degrees(d, lam, t) == {w1[0], w1[0] + 1, w2[0], w2[0] + 1}

    def test_rules_differ_with_two_matches_per_window(self):
        # d = 60, lam = 1: (20, 30] and [30, 40) hold many matches each
        assert allowed_degrees(60, 1, 0) == {21, 22, 30, 31}
        assert _ref_every_match(60, 1, 0) == set(range(21, 41))

    def test_pipeline_moduli_leave_one_match_below_294914(self):
        # least d whose wider window holds more than lam = 3*4^e integers;
        # a host degree d under an original degree D >= d has lam = 3*4^e(D)
        def first_two_match_degree(lam):
            d = 6 * lam - 12
            while max(len(w) for w in windows(d)) <= lam:
                d += 1
            return d

        for e in range(7):
            assert ceil_log_beta(first_two_match_degree(3 << (2 * e))) > e
        d7 = first_two_match_degree(3 << 14)
        assert (d7, ceil_log_beta(d7)) == (294914, 7)


class TestAllowedSets:
    def test_one_shared_set_per_key_and_isolated_at_degree_zero(self, monkeypatch):
        calls = []

        def counted(d, lam, t):
            calls.append((d, lam, t))
            return allowed_degrees(d, lam, t)

        monkeypatch.setattr(factor_solver, "allowed_degrees", counted)
        deg = [0, 12, 12, 12, 18, 0, 18, 12]
        # no entry for the vertices of degree 0: reading one raises KeyError
        lam = {1: 2, 2: 2, 3: 2, 4: 3, 6: 3, 7: 2}
        t = {1: 0, 2: 0, 3: 1, 4: 1, 6: 1, 7: 0}
        out = allowed_sets(deg, lam, t)
        assert list(out) == list(range(len(deg)))
        assert out[0] is out[5] is ISOLATED
        for v in (1, 2, 3, 4, 6, 7):
            assert isinstance(out[v], frozenset)
            assert out[v] == allowed_degrees(deg[v], lam[v], t[v])
        # equal (degree, modulus, target) keys share one object
        assert out[1] is out[2] is out[7] and out[4] is out[6]
        assert len({id(out[v]) for v in (1, 3, 4)}) == 3
        assert calls == [(12, 2, 0), (12, 2, 1), (18, 3, 1)]


def _brute_force(g, allowed):
    edges = sorted(g.edges)
    for mask in itertools.product((0, 1), repeat=len(edges)):
        deg = [0] * g.n
        for bit, (u, v) in zip(mask, edges):
            if bit:
                deg[u] += 1
                deg[v] += 1
        if all(deg[v] in allowed[v] for v in range(g.n)):
            return True
    return False


class TestExactSearch:
    def test_complete8_modular(self):
        g = complete(8)
        spec = ModularTargetSpec([0] * 8, [1] * 8)
        h = find_modular_subgraph(g, spec)
        assert not isinstance(h, Failure)
        assert set(h.degrees()) <= {3, 4}

    def test_infeasible_returns_failure(self):
        g = path(1)
        spec = DegreeTargetSpec({0: {1}, 1: {0}})
        out = find_degree_set_subgraph(g, spec)
        assert isinstance(out, Failure)
        assert out.mode == "exact" and out.nodes_explored >= 1

    def test_solves_past_the_old_recursion_limit(self):
        # rr(200, 10), rr(300, 8) and K60 have 1,000 to 1,770 edges, more
        # than Python's default recursion limit of 1,000; rr(100, 12) has 600
        for g in (random_regular(200, 10, seed=1), random_regular(300, 8, seed=1), complete(60),
                  random_regular(100, 12, seed=1)):
            every = DegreeTargetSpec({v: set(range(g.degree(v) + 1)) for v in range(g.n)})
            h = find_degree_set_subgraph(g, every, mode="exact")
            assert not isinstance(h, Failure) and h.edges <= g.edges
            assert verify_factor(g, h, every).ok

    def test_same_edges_under_a_recursion_limit_of_100(self):
        g = random_regular(200, 10, seed=1)
        every = DegreeTargetSpec({v: set(range(11)) for v in range(g.n)})
        want = sorted(find_degree_set_subgraph(g, every, mode="exact").edges)
        code = ("import sys\n"
                "from irrdec.factor_solver import DegreeTargetSpec, find_degree_set_subgraph\n"
                "from irrdec.graph_core import random_regular\n"
                "g = random_regular(200, 10, seed=1)\n"
                "every = DegreeTargetSpec({v: set(range(11)) for v in range(g.n)})\n"
                "sys.setrecursionlimit(100)\n"
                "print(sorted(find_degree_set_subgraph(g, every, mode='exact').edges))\n")
        root = os.path.dirname(os.path.dirname(os.path.abspath(factor_solver.__file__)))
        path_var = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path_var), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert ast.literal_eval(proc.stdout) == want

    def test_budget_zero_explores_no_node(self):
        spec = DegreeTargetSpec({0: {0, 1}, 1: {0, 1}})
        out = find_degree_set_subgraph(path(1), spec, mode="exact", budget=0)
        assert (out.mode, out.reason, out.nodes_explored) == \
            ("exact", "node budget of 0 exhausted", 0)
        # a host without edges needs no search, so no budget
        edgeless = DegreeTargetSpec({0: {0}, 1: {0}})
        assert find_degree_set_subgraph(Graph(2), edgeless, mode="exact", budget=0) == Graph(2)

    def test_large_infeasible_host_stops_at_the_budget(self):
        # 2,001 vertices of degree 3 have an odd degree sum: no subgraph of
        # the 6,003 edges exists, and the search stops after 10,000 nodes
        g = random_regular(2001, 6, seed=1)
        assert g.m == 6003
        out = find_degree_set_subgraph(g, DegreeTargetSpec({v: {3} for v in range(g.n)}),
                                       mode="exact", budget=10000)
        assert (out.mode, out.reason, out.nodes_explored) == \
            ("exact", "node budget of 10000 exhausted", 10000)

    def test_validates_allowed_sets(self):
        g = path(1)
        with pytest.raises(ValueError):
            find_degree_set_subgraph(g, DegreeTargetSpec({0: set(), 1: {0}}))
        with pytest.raises(ValueError):
            find_degree_set_subgraph(g, DegreeTargetSpec({0: {2}, 1: {0}}))
        with pytest.raises(ValueError):
            find_degree_set_subgraph(g, DegreeTargetSpec({0: {0}, 1: {0}}), mode="simulated")
        # a degree 1.5 is never met, and the local search's invariant needs
        # every off-target vertex to have a flip that helps it
        for mode in ("exact", "heuristic"):
            with pytest.raises(ValueError, match="not integers"):
                find_degree_set_subgraph(g, DegreeTargetSpec({0: {0.5}, 1: {0}}), mode=mode)

    @pytest.mark.parametrize("mode", ["exact", "heuristic"])
    def test_equal_sets_keep_their_own_int_test(self, mode):
        # vertices 0 and 2 of path(2) both have degree 1; {1.0} equals {1} as
        # a set but is refused whichever of the two comes first
        g = path(2)
        for first, second in (({1}, {1.0}), ({1.0}, {1})):
            spec = DegreeTargetSpec({0: first, 1: {2}, 2: second})
            with pytest.raises(ValueError, match=r"vertex [02]: allowed set \[1(\.0)?\] is not"):
                find_degree_set_subgraph(g, spec, mode=mode)
        # two distinct but equal int sets pass, as one shared object does
        for spec in (DegreeTargetSpec({0: {1}, 1: {2}, 2: {1}}),
                     DegreeTargetSpec({0: (one := frozenset({1})), 1: {2}, 2: one})):
            assert find_degree_set_subgraph(g, spec, mode=mode) == g

    @pytest.mark.parametrize("mode", ["exact", "heuristic"])
    def test_shared_set_is_judged_at_each_degree(self, mode):
        # one set object at vertices 1 and 2 of path(2): {2} lies in [0, 2]
        # at vertex 1, of degree 2, but not in [0, 1] at vertex 2
        one = frozenset({2})
        spec = DegreeTargetSpec({0: {1}, 1: one, 2: one})
        with pytest.raises(ValueError, match=r"vertex 2: allowed set \[2\] is not integers in "
                                             r"\[0, d\(v\)\]"):
            find_degree_set_subgraph(path(2), spec, mode=mode)

    @given(st.integers(0, 10**9), st.integers(4, 7))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_brute_force(self, seed, n):
        import random

        rng = random.Random(seed)
        g = gnp(n, 0.55, seed=seed % 997)
        allowed = {v: set(rng.sample(range(g.degree(v) + 1),
                                     rng.randint(1, g.degree(v) + 1)))
                   for v in range(n)}
        out = find_degree_set_subgraph(g, DegreeTargetSpec(allowed))
        feasible = _brute_force(g, allowed)
        if isinstance(out, Failure):
            assert not feasible
        else:
            assert feasible
            assert all(out.degree(v) in allowed[v] for v in range(n))
            assert out.edges <= g.edges


class TestEdgelessHost:
    def test_empty_subgraph_in_both_modes_without_a_search(self, monkeypatch):
        def entered(*args):
            raise AssertionError("a search ran on a host without edges")

        monkeypatch.setattr(factor_solver, "_exact_search", entered)
        monkeypatch.setattr(factor_solver, "_local_search", entered)
        for n in (0, 1, 5):
            g = Graph(n)
            # {0} given by hand, or the pipeline's shared set for isolated vertices
            for spec in (DegreeTargetSpec({v: {0} for v in range(n)}),
                         DegreeTargetSpec({v: ISOLATED for v in range(n)})):
                assert find_degree_set_subgraph(g, spec, mode="exact") == Graph(n)
                for budget in (0, 1, 10000):
                    h = find_degree_set_subgraph(g, spec, mode="heuristic", budget=budget, seed=3)
                    assert h == Graph(n)

    def test_checks_still_run_first(self):
        g = Graph(3)
        with pytest.raises(ValueError, match="mode must be 'exact' or 'heuristic'"):
            find_degree_set_subgraph(g, DegreeTargetSpec({v: {0} for v in range(3)}),
                                     mode="bogus")
        with pytest.raises(ValueError, match="not integers in"):
            find_degree_set_subgraph(g, DegreeTargetSpec({0: {1}, 1: {0}, 2: {0}}))
        with pytest.raises(ValueError, match="empty allowed set"):
            find_degree_set_subgraph(g, DegreeTargetSpec({0: {0}, 1: {0}}), mode="heuristic")


class TestHeuristicSearch:
    def test_finds_easy_factor(self):
        g = complete(12)
        spec = DegreeTargetSpec({v: {4, 5} for v in range(12)})
        h = find_degree_set_subgraph(g, spec, mode="heuristic", budget=20000, seed=3)
        assert not isinstance(h, Failure)
        assert set(h.degrees()) <= {4, 5}

    def test_deterministic_per_seed(self):
        g = complete(10)
        spec = DegreeTargetSpec({v: {3, 4} for v in range(10)})
        a = find_degree_set_subgraph(g, spec, mode="heuristic", budget=20000, seed=9)
        b = find_degree_set_subgraph(g, spec, mode="heuristic", budget=20000, seed=9)
        assert a == b

    def test_budget_exhaustion_reports_best_penalty(self):
        g = path(1)
        spec = DegreeTargetSpec({0: {1}, 1: {0}})  # infeasible
        out = find_degree_set_subgraph(g, spec, mode="heuristic", budget=50, seed=0)
        assert isinstance(out, Failure)
        assert out.mode == "heuristic" and out.best_penalty >= 1
        assert out.flips == 50  # infeasible, so the search spends its whole budget

    def test_uphill_least_delta_is_an_invariant_violation(self, monkeypatch):
        # the descent relies on the penalty being a distance; a table that is
        # not one leaves every flip on P3 uphill, and the search says so
        monkeypatch.setattr(factor_solver, "_penalty_table",
                            lambda d, allowed: [0 if x in allowed else d + 1
                                                for x in range(d + 1)])
        spec = DegreeTargetSpec({0: {1}, 1: {0}, 2: {1}})
        # no edge chosen at the start: +1 at penalty 4; both: +2 at penalty 3
        uphill = "least flip delta is (1 at penalty 4|2 at penalty 3)"
        with pytest.raises(InvariantViolated, match=uphill):
            find_degree_set_subgraph(path(2), spec, mode="heuristic", budget=50)

    def test_derived_seeds_are_stable(self):
        assert derived_seed(7, 0) == 17725994237439495539
        assert derived_seed(7, 1) == 15537646209016443107
        assert derived_seed("7:part1", 0) == 110264854099041028


class TestVerify:
    def test_degree_set_report(self):
        g = cycle(4)
        h = g.spanning([(0, 1), (1, 2)])
        spec = DegreeTargetSpec({0: {1}, 1: {2}, 2: {1}, 3: {0}})
        report = verify_factor(g, h, spec)
        assert report.ok and report.bad_vertices() == []
        bad_spec = DegreeTargetSpec({0: {0}, 1: {2}, 2: {1}, 3: {0}})
        report = verify_factor(g, h, bad_spec)
        assert not report.ok and report.bad_vertices() == [0]

    def test_modular_report(self):
        g = complete(8)
        spec = ModularTargetSpec([0] * 8, [1] * 8)
        h = find_modular_subgraph(g, spec)
        report = verify_factor(g, h, spec)
        assert report.ok
        # empty subgraph violates the interval 3*dh >= d
        report = verify_factor(g, g.spanning([]), spec)
        assert not report.ok and len(report.bad_vertices()) == 8

    def test_modular_residue_boundary(self):
        # K7 (d = 6) and a Hamiltonian cycle of it, d_H = 2 in [d/3, 2d/3]:
        # at lam = 4, 2 = t or t + 1 passes for t = 2 and t = 1, and 2 = t + 2
        # fails for t = 0
        g = complete(7)
        h = g.spanning([(v, (v + 1) % 7) for v in range(7)])
        for t, ok in ((2, True), (1, True), (0, False)):
            report = verify_factor(g, h, ModularTargetSpec([t] * 7, [4] * 7))
            assert report.ok is ok
            assert report.bad_vertices() == ([] if ok else list(range(7)))

    def test_modular_interval_is_closed(self):
        # d_H = 2 = d/3 and d_H = 4 = 2d/3 exactly at d = 6 both pass (lam = 1
        # admits every residue); 1 and 5 lie outside
        g = complete(7)
        for chords in (1, 2):  # the 7 chords v-(v+s) for s = 1, ..., chords
            h = g.spanning([(v, (v + s) % 7) for v in range(7) for s in range(1, chords + 1)])
            assert {h.degree(v) for v in range(7)} == {2 * chords}
            assert verify_factor(g, h, ModularTargetSpec([0] * 7, [1] * 7)).ok
        for es in ([(0, 1)], [(u, v) for u in range(6) for v in range(u + 1, 6)]):
            report = verify_factor(g, g.spanning(es), ModularTargetSpec([0] * 7, [1] * 7))
            assert report.bad_vertices() == list(range(7))  # degrees 1 and 0, or 5 and 0

    def test_non_subgraph_rejected(self):
        g = path(2)
        h = Graph(3, [(0, 2)])
        with pytest.raises(ValueError):
            verify_factor(g, h, DegreeTargetSpec({v: {0, 1} for v in range(3)}))


# ---------------------------------------------------------------------------
# Differential tests: the solver kernels against the direct forms they
# replaced (an O(m) scan per flip, an any() reachability scan, a filter over
# every integer of a window), kept here as references.

def _ref_window_candidates(d, lam, t):
    w1 = [x for x in range(d // 3 + 1, d // 2 + 1) if (x - t) % lam == 0]
    w2 = [x for x in range(d // 2, (2 * d) // 3) if (x - t) % lam == 0]
    return w1, w2


def _ref_reachable(cur, rem, allowed):
    return any(cur <= s <= cur + rem for s in allowed)


def _ref_exact_search(g, allowed):
    n = g.n
    edges = sorted(g.edges)
    incident = {v: [] for v in range(n)}
    for i, (u, v) in enumerate(edges):
        incident[u].append(i)
        incident[v].append(i)
    cur = [0] * n
    rem = [len(incident[v]) for v in range(n)]
    state = [0] * len(edges)
    nodes = 0
    for v in range(n):
        if not _ref_reachable(0, rem[v], allowed[v]):
            return Failure("exact", "no reachable degree at vertex %d" % v, 1)

    def pick_edge():
        best_v, best_rem = -1, None
        for v in range(n):
            if rem[v] > 0 and (best_rem is None or rem[v] < best_rem):
                best_v, best_rem = v, rem[v]
        for i in incident[best_v]:
            if state[i] == 0:
                return i
        raise AssertionError("rem out of sync")

    mid = [sum(allowed[v]) / len(allowed[v]) for v in range(n)]

    def assign(i, val):
        state[i] = val
        for w in edges[i]:
            rem[w] -= 1
            if val == 1:
                cur[w] += 1

    def undo(i, val):
        state[i] = 0
        for w in edges[i]:
            rem[w] += 1
            if val == 1:
                cur[w] -= 1

    def solve(undecided):
        nonlocal nodes
        nodes += 1
        if undecided == 0:
            return all(cur[v] in allowed[v] for v in range(n))
        i = pick_edge()
        u, v = edges[i]
        include_first = cur[u] < mid[u] and cur[v] < mid[v]
        for val in ((1, -1) if include_first else (-1, 1)):
            assign(i, val)
            if (_ref_reachable(cur[u], rem[u], allowed[u])
                    and _ref_reachable(cur[v], rem[v], allowed[v])):
                if solve(undecided - 1):
                    return True
            undo(i, val)
        return False

    if solve(len(edges)):
        return Graph(n, [edges[i] for i in range(len(edges)) if state[i] == 1])
    return Failure("exact", "search space exhausted", nodes)


def _ref_local_search(g, allowed, budget, seed, stats):
    """The O(m)-per-flip penalty descent; stats counts restarts, restarts
    cut by the sideways limit and accepted flips."""
    def pen(d, s):
        return min(abs(d - x) for x in s)

    n = g.n
    edges = sorted(g.edges)
    m = len(edges)
    flips = 0
    best_overall = None
    restart = 0
    while flips < budget:
        rng = random.Random(derived_seed(seed, restart))
        restart += 1
        bias = {v: (sum(allowed[v]) / len(allowed[v])) / g.degree(v) if g.degree(v) else 0.0
                for v in range(n)}
        chosen = [rng.random() < (bias[u] + bias[v]) / 2 for u, v in edges]
        deg = [0] * n
        for i, (u, v) in enumerate(edges):
            if chosen[i]:
                deg[u] += 1
                deg[v] += 1
        penalty = sum(pen(deg[v], allowed[v]) for v in range(n))
        sideways = 0
        while penalty > 0 and flips < budget and sideways <= 2 * m:
            best_i, best_delta = -1, None
            for i, (u, v) in enumerate(edges):
                step = -1 if chosen[i] else 1
                delta = (pen(deg[u] + step, allowed[u]) - pen(deg[u], allowed[u])
                         + pen(deg[v] + step, allowed[v]) - pen(deg[v], allowed[v]))
                if best_delta is None or delta < best_delta:
                    best_i, best_delta = i, delta
            if best_delta > 0:
                break
            u, v = edges[best_i]
            step = -1 if chosen[best_i] else 1
            chosen[best_i] = not chosen[best_i]
            deg[u] += step
            deg[v] += step
            penalty += best_delta
            flips += 1
            sideways = sideways + 1 if best_delta == 0 else 0
        stats["restarts"] += 1
        stats["sideways_cut"] += sideways > 2 * m
        if penalty == 0:
            return Graph(n, [e for i, e in enumerate(edges) if chosen[i]])
        if best_overall is None or penalty < best_overall:
            best_overall = penalty
    return Failure("heuristic", "flip budget exhausted", best_penalty=best_overall, flips=flips)


def _differential_instance(seed):
    """Seeded gnp or random regular host with random allowed sets; every
    third instance is made feasible by planting a random subgraph's degrees."""
    rng = random.Random(seed)
    if seed % 2:
        g = gnp(rng.randint(5, 12), rng.uniform(0.3, 0.8), seed=rng.getrandbits(32))
    else:
        n = rng.choice((6, 8, 10, 12))
        g = random_regular(n, rng.randint(3, 5), seed=rng.getrandbits(32))
    planted = [0] * g.n
    for u, v in g.edges:
        if rng.random() < 0.5:
            planted[u] += 1
            planted[v] += 1
    allowed = {}
    for v in range(g.n):
        s = set(rng.sample(range(g.degree(v) + 1), rng.randint(1, min(3, g.degree(v) + 1))))
        if seed % 3 == 0:
            s.add(planted[v])
        allowed[v] = frozenset(s)
    return g, allowed, rng


def _outcome(r):
    if isinstance(r, Failure):
        return (r.mode, r.reason, r.nodes_explored, r.best_penalty, r.flips)
    return sorted(r.edges)


def _shared_key_instance(seed):
    """A random regular host whose vertices share two or three (degree, set)
    keys by v mod k.  Even seeds take the sets of allowed_degrees with t(v) =
    v mod k, as the solver's hosts from the pipeline and the benchmark do;
    these are easy.  Odd seeds take random two-value sets, on which descents
    stall and restart."""
    rng = random.Random(seed)
    if seed % 2 == 0:
        n, d, lam, k = rng.choice(((14, 12, 2, 2), (16, 12, 2, 3), (18, 14, 2, 2), (20, 18, 3, 3)))
        g = random_regular(n, d, seed=rng.getrandbits(32))
        return g, {v: allowed_degrees(d, lam, v % k) for v in range(n)}, rng
    n, d = rng.choice(((14, 12), (16, 12), (18, 14), (20, 10)))
    g = random_regular(n, d, seed=rng.getrandbits(32))
    pool = [set(p) for p in rng.sample(list(itertools.combinations(range(3, d - 2), 2)),
                                        rng.choice((2, 3)))]
    return g, {v: pool[v % len(pool)] for v in range(n)}, rng


class TestAgainstReferences:
    SEEDS = range(160)

    def test_exact_search_matches_reference(self):
        infeasible, infeasible_nodes = 0, 0
        for seed in self.SEEDS:
            g, allowed, _ = _differential_instance(seed)
            spec = DegreeTargetSpec(allowed)
            got = find_degree_set_subgraph(g, spec, mode="exact")
            want = _ref_exact_search(g, allowed)
            assert _outcome(got) == _outcome(want), f"seed {seed}"
            if isinstance(want, Failure):
                nodes = want.nodes_explored
                infeasible += 1
                infeasible_nodes += nodes
                # the budget caps nodes: the reference's own count still
                # exhausts the space, and one node fewer stops the search
                got = find_degree_set_subgraph(g, spec, mode="exact", budget=nodes)
                assert _outcome(got) == _outcome(want), f"seed {seed}"
                got = find_degree_set_subgraph(g, spec, mode="exact", budget=nodes - 1)
                assert (got.mode, got.reason, got.nodes_explored) == \
                    ("exact", f"node budget of {nodes - 1} exhausted", nodes - 1), f"seed {seed}"
        # both outcomes occur, and the node counts compared on infeasible
        # instances come from real searches
        assert 20 <= infeasible <= len(self.SEEDS) - 40 and infeasible_nodes >= 1000

    def test_local_search_matches_reference(self):
        stats = {"restarts": 0, "sideways_cut": 0}
        kinds = set()
        for seed in self.SEEDS:
            g, allowed, rng = _differential_instance(seed)
            budget = rng.choice((0, 1, 7, 60, 400, 2000))
            restarts = stats["restarts"]
            got = find_degree_set_subgraph(g, DegreeTargetSpec(allowed), mode="heuristic",
                                           budget=budget, seed=seed)
            want = _ref_local_search(g, allowed, budget, seed, stats)
            assert _outcome(got) == _outcome(want), f"seed {seed}"
            kinds.add((isinstance(want, Failure), stats["restarts"] - restarts > 1))
        # found and exhausted, each both within the first descent and after
        # restarts; and some descents were cut by the sideways limit
        assert kinds == {(False, False), (False, True), (True, False), (True, True)}
        assert stats["sideways_cut"] >= 20

    def test_local_search_matches_reference_on_dense_hosts(self):
        # higher degrees give long descents with many changed buckets per flip
        stats = {"restarts": 0, "sideways_cut": 0}
        for seed in range(12):
            g = random_regular(24, 10 + seed % 3, seed=seed)
            rng = random.Random(seed)
            allowed = {v: frozenset(rng.sample(range(3, 9), 2)) for v in range(g.n)}
            got = find_degree_set_subgraph(g, DegreeTargetSpec(allowed), mode="heuristic",
                                           budget=600, seed=seed)
            want = _ref_local_search(g, allowed, 600, seed, stats)
            assert _outcome(got) == _outcome(want), f"seed {seed}"
        assert stats["restarts"] > 12 and stats["sideways_cut"] >= 5

    @given(st.integers(0, 600), st.integers(1, 80), st.integers(-200, 400))
    @settings(max_examples=400, deadline=None)
    @example(5, 1, 0)  # d < 6: both windows empty
    @example(0, 3, 2)
    @example(47, 5, 13)  # t >= lam, lam not dividing d
    @example(1000, 7, -3)
    def test_windows_match_brute_force(self, d, lam, t):
        assert window_candidates(d, lam, t) == _ref_window_candidates(d, lam, t)

    def test_both_searches_match_on_shared_key_hosts(self):
        # hosts whose vertices share two or three tables, in both modes, with
        # budgets that end some descents and cut others short
        stats = {"restarts": 0, "sideways_cut": 0}
        kinds, keys = set(), set()
        for seed in range(40):
            g, allowed, rng = _shared_key_instance(seed)
            keys.add(len({frozenset(s) for s in allowed.values()}))
            spec = DegreeTargetSpec(allowed)
            got = find_degree_set_subgraph(g, spec, mode="exact")
            assert _outcome(got) == _outcome(_ref_exact_search(g, allowed)), f"seed {seed}"
            budget = rng.choice((3, 40, 600, 3000))
            restarts = stats["restarts"]
            got = find_degree_set_subgraph(g, spec, mode="heuristic", budget=budget, seed=seed)
            want = _ref_local_search(g, allowed, budget, seed, stats)
            assert _outcome(got) == _outcome(want), f"seed {seed}"
            kinds.add((isinstance(want, Failure), stats["restarts"] - restarts > 1))
        assert keys == {2, 3}
        # found and exhausted, each both within the first descent and after
        # restarts
        assert kinds == {(False, False), (False, True), (True, False), (True, True)}


class TestSharedTables:
    def test_one_penalty_table_per_key_and_none_is_changed(self, monkeypatch):
        # vertices of one degree and one allowed set read one table, which
        # the descent never writes
        made, penalty_table = [], factor_solver._penalty_table

        def counted(d, allowed):
            pen = penalty_table(d, allowed)
            made.append(((d, allowed), pen, pen[:]))
            return pen

        monkeypatch.setattr(factor_solver, "_penalty_table", counted)
        for seed in range(6):
            g, allowed, _ = _shared_key_instance(seed)
            made.clear()
            out = find_degree_set_subgraph(g, DegreeTargetSpec(allowed), mode="heuristic",
                                           budget=500, seed=seed)
            assert isinstance(out, (Graph, Failure))
            want = {(g.degree(v), frozenset(allowed[v])) for v in range(g.n)}
            assert len(made) == len(want) and {key for key, _, _ in made} == want
            assert all(pen == before for _, pen, before in made)
