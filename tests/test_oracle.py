import functools
import hashlib
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import irrdec.oracle as oracle
from irrdec.graph_core import (
    Decomposition,
    Graph,
    InvariantViolated,
    complete,
    cycle,
    gnp,
    is_locally_irregular_decomposition,
    parse_edge_list,
    path,
    random_regular,
    serialize_edge_list,
    spider,
    t_family_members,
)
from irrdec.oracle import (
    OracleResult,
    _edge_order,
    _Frontiers,
    _incidence,
    _search,
    atlas_connected_graphs,
    min_parts,
)

from conftest import exceptions_never_decompose

# Two bow-ties (pairs of triangles sharing a vertex) whose centres 0 and 5 are
# joined by an edge: a connected cactus outside the exception families that
# needs 4 parts.
TWO_BOWTIES = Graph(10, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4), (0, 5),
                         (5, 6), (6, 7), (5, 7), (5, 8), (8, 9), (5, 9)])


class TestEdgeOrder:
    # pinned: breadth-first from the least (degree, id) vertex, neighbours
    # by ascending (degree, id), a vertex's unlisted edges when it is dequeued
    def test_small_graphs(self):
        assert _edge_order(spider(2)) == [(2, 3), (0, 2), (0, 4), (0, 1), (4, 5), (1, 6),
                                          (1, 8), (6, 7), (8, 9)]
        assert _edge_order(parse_edge_list("6\n4 5\n0 5\n2 3\n1 4\n0 1\n3 5\n1 2\n")) == \
            [(0, 1), (0, 5), (1, 2), (1, 4), (3, 5), (4, 5), (2, 3)]
        # each component from its own least vertex; isolated vertices add nothing
        assert _edge_order(Graph(7, [(5, 6), (0, 1), (1, 2)])) == [(0, 1), (1, 2), (5, 6)]

    def test_larger_graphs(self):
        rr = random_regular(40, 5, seed=2)
        cases = [(rr, "4f56f5b5bb558545"),
                 (gnp(30, 0.3, seed=4), "e53f5d182867ca37"),
                 (parse_edge_list(serialize_edge_list(gnp(30, 0.3, seed=4))), "e53f5d182867ca37"),
                 (rr.without_edges(sorted(rr.edges)[::3]), "ad83c99c17b1a70f"),
                 (rr.spanning(sorted(rr.edges)[1::2]), "62a6364e3725f8ad")]
        assert _edge_order(rr)[:6] == [(0, 2), (0, 4), (0, 13), (0, 17), (0, 22), (2, 4)]
        for g, want in cases:
            assert hashlib.sha256(repr(_edge_order(g)).encode()).hexdigest()[:16] == want

    @pytest.mark.parametrize("g", [random_regular(40, 5, seed=2), gnp(30, 0.3, seed=4),
                                   complete(12), t_family_members(11)[-1], spider(2),
                                   gnp(9, 0.45, seed=1), cycle(8)], ids=repr)
    def test_same_across_build_paths(self, g):
        # the order, and min_parts within the edge limit, read the graph only
        es = sorted(g.edges)
        host = complete(g.n)
        head, *body = serialize_edge_list(g).splitlines()
        random.Random(1).shuffle(body)
        builds = [Graph(g.n, es[::-1]), parse_edge_list("\n".join([head, *body])),
                  host.spanning(es), host.without_edges(host.edges - g.edges)]
        want = _edge_order(g)
        assert sorted(want) == es
        assert all(_edge_order(h) == want for h in builds)
        if g.m <= oracle.DEFAULT_EDGE_LIMIT:
            res = min_parts(g)
            for h in builds:
                got = min_parts(h)
                assert (got.to_json(), got.searches) == (res.to_json(), res.searches)


class TestMinParts:
    @pytest.mark.parametrize(
        "g,expected",
        [(path(2), 1), (cycle(4), 2), (spider(2), 3), (complete(4), 3)],
    )
    def test_feasible_examples(self, g, expected):
        res = min_parts(g)
        assert res.feasible_k == expected
        assert res.exhausted
        assert res.witness.k == expected
        assert is_locally_irregular_decomposition(res.witness)

    @pytest.mark.parametrize("g", [path(1), path(3), cycle(3), cycle(5)])
    def test_infeasible_for_every_k(self, g):
        res = min_parts(g)
        assert res.feasible_k is None
        assert res.witness is None
        assert res.exhausted  # searched up to k = |E|, certifying all k

    def test_edgeless(self):
        res = min_parts(Graph(3, []))
        assert res.feasible_k == 0 and res.exhausted
        assert res.witness.colour == {}

    def test_kmax_caps_the_verdict(self):
        res = min_parts(spider(2), k_max=2)
        assert res.feasible_k is None
        assert not res.exhausted  # k=3 was never tried
        res = min_parts(path(3), k_max=2)
        assert res.feasible_k is None and not res.exhausted

    def test_least_k_is_returned(self):
        assert min_parts(cycle(4), k_max=4).feasible_k == 2

    def test_nodes_are_counted(self):
        assert min_parts(spider(2)).nodes_explored > 0

    def test_edge_limit(self):
        with pytest.raises(ValueError, match="graph has 23 edges, over the search limit 22"):
            min_parts(path(23), k_max=1)

    @pytest.mark.parametrize("k_max", [-5, 0])
    def test_kmax_below_one_is_rejected(self, k_max):
        with pytest.raises(ValueError, match=f"k_max must be >= 1, got {k_max}"):
            min_parts(path(4), k_max=k_max)

    def test_four_parts(self):
        res = min_parts(TWO_BOWTIES)
        assert res.feasible_k == 4 and res.exhausted
        assert res.witness.k == 4 and set(res.witness.colour.values()) == {1, 2, 3, 4}
        assert is_locally_irregular_decomposition(res.witness)
        assert [k for k, _, _ in res.searches] == [1, 2, 3, 13]
        assert min_parts(TWO_BOWTIES, k_max=3).feasible_k is None

    def test_probe_order(self):
        res = min_parts(cycle(7))
        assert [(k, found) for k, _, found in res.searches] == \
            [(1, False), (2, False), (3, False), (7, False)]
        assert sum(nodes for _, nodes, _ in res.searches) == res.nodes_explored
        assert [k for k, _, _ in min_parts(cycle(7), k_max=5).searches] == [1, 2, 3, 5]
        assert [k for k, _, _ in min_parts(cycle(7), k_max=2).searches] == [1, 2]
        assert [k for k, _, _ in min_parts(spider(2)).searches] == [1, 2, 3]

    def test_witness_is_rechecked(self, monkeypatch):
        # a search that returned a cover breaking local irregularity: on
        # path(5), colour 1 on 0-1-2 is irregular but colour 2 on 2-3-4-5
        # gives 3-4 class degree 2 at both ends
        def broken_search(g, k, edges, inc, frontier=None):
            return ({e: 1 if e[1] <= 2 else 2 for e in edges} if k >= 2 else None), 1

        monkeypatch.setattr(oracle, "_search", broken_search)
        with pytest.raises(InvariantViolated,
                           match="witness edge 3-4 of colour 2: both ends have class degree 2"):
            min_parts(path(5))

    def test_to_json(self):
        js = min_parts(path(2)).to_json()
        assert js["k"] == 1 and js["exhausted"] is True
        assert js["witness"] == {"0-1": 1, "1-2": 1}
        js = min_parts(path(3)).to_json()
        assert js["k"] is None and js["witness"] is None


@functools.cache  # the differential test runs the scan at six k_max values
def _reference_search(g, k):
    # verbatim copy of the per-k search before it took a shared edge order
    edges = _edge_order(g)
    m = len(edges)
    adj_idx = {v: [] for v in range(g.n)}
    for i, (u, v) in enumerate(edges):
        adj_idx[u].append(i)
        adj_idx[v].append(i)
    undecided = [g.degree(v) for v in range(g.n)]
    class_deg = [[0] * (k + 1) for _ in range(g.n)]
    colour = [0] * m
    nodes = 0

    def frozen_conflict(w) -> bool:
        # w just became finished; compare against finished neighbours
        for i in adj_idx[w]:
            c = colour[i]
            a, b = edges[i]
            x = b if a == w else a
            if undecided[x] == 0 and class_deg[w][c] == class_deg[x][c]:
                return True
        return False

    def rec(i: int, max_used: int) -> bool:
        nonlocal nodes
        nodes += 1
        if i == m:
            return True
        u, v = edges[i]
        for c in range(1, min(max_used + 1, k) + 1):
            colour[i] = c
            class_deg[u][c] += 1
            class_deg[v][c] += 1
            undecided[u] -= 1
            undecided[v] -= 1
            bad = (undecided[u] == 0 and frozen_conflict(u)) or (
                undecided[v] == 0 and frozen_conflict(v))
            if not bad and rec(i + 1, max(max_used, c)):
                return True
            undecided[u] += 1
            undecided[v] += 1
            class_deg[u][c] -= 1
            class_deg[v][c] -= 1
        colour[i] = 0
        return False

    if rec(0, 0):
        return {e: colour[i] for i, e in enumerate(edges)}, nodes
    return None, nodes


def _reference_min_parts(g, k_max=None):
    # verbatim copy of the k = 1, 2, ..., top scan that the probe order replaced
    m = g.m
    if m == 0:
        return OracleResult(0, Decomposition(g, 0, {}), True)
    top = m if k_max is None else min(k_max, m)
    nodes_total = 0
    for k in range(1, top + 1):
        colouring, nodes = _reference_search(g, k)
        nodes_total += nodes
        if colouring is not None:
            witness = Decomposition(g, k, colouring)
            witness.validate()
            return OracleResult(k, witness, True, nodes_total)
    return OracleResult(None, None, top >= m, nodes_total)


class TestAgainstLinearScan:
    def test_same_verdicts_and_witnesses(self, atlas6):
        graphs = (list(atlas6) + t_family_members(13) + [TWO_BOWTIES]
                  + [path(m) for m in range(1, 14, 2)] + [cycle(m) for m in range(3, 14, 2)])
        verdicts = set()
        _reference_search.cache_clear()
        for g in graphs:
            for k_max in sorted({1, 2, 3, 4, 5, max(g.m, 1)}):
                want = _reference_min_parts(g, k_max)
                got = min_parts(g, k_max)
                assert (got.feasible_k, got.exhausted) == (want.feasible_k, want.exhausted)
                assert (got.witness is None) == (want.witness is None)
                if want.witness is not None:
                    assert got.witness.k == want.witness.k
                    assert got.witness.colour == want.witness.colour
                if want.feasible_k is None:
                    assert got.nodes_explored <= want.nodes_explored
                verdicts.add((want.feasible_k, want.exhausted))
        _reference_search.cache_clear()
        # every least k up to 4, and both kinds of infeasible verdict
        assert {0, 1, 2, 3, 4, (None, True), (None, False)} <= \
            {k for k, ex in verdicts if k is not None} | {v for v in verdicts if v[0] is None}


def _plain_and_tabled(g, ks=None):
    """(k, plain result, tabled result) of `_search` without and with the
    failed-state table, for each k in ks (default 1..|E|)."""
    edges = _edge_order(g)
    inc = _incidence(edges, g.n)
    frontier = _Frontiers(edges, g.n)
    for k in ks or range(1, g.m + 1):
        yield k, _search(g, k, edges, inc), _search(g, k, edges, inc, frontier)


class TestFailedStateTable:
    """The table of failed states cuts only subtrees that fail, so every
    probe returns the colouring the plain search returns, in no more nodes."""

    def test_same_colourings_at_every_k(self, atlas6):
        rng = random.Random(18)
        graphs = (list(atlas6) + t_family_members(13) + [TWO_BOWTIES]
                  + [path(m) for m in range(1, 20)] + [cycle(m) for m in range(3, 20)]
                  + [gnp(rng.randint(6, 9), 0.45, seed=s) for s in range(50)])
        cases = [(g, None) for g in graphs]
        # every k of the 21-edge ones costs the plain search 18 s; take the
        # k = 1, 2, 3 probes, the first k past them and the top one
        cases += [(g, [1, 2, 3, 4, 21]) for g in (path(21), cycle(21))]
        found = cut = 0
        for g, ks in cases:
            for k, (plain, plain_nodes), (tabled, tabled_nodes) in _plain_and_tabled(g, ks):
                assert tabled == plain, (g, k)
                assert tabled_nodes <= plain_nodes, (g, k)
                cut += tabled_nodes < plain_nodes
                if plain is not None:
                    found += 1
                    assert is_locally_irregular_decomposition(Decomposition(g, k, plain))
        assert found > 1000 and cut > 100  # neither side of the comparison is vacuous

    def test_rows_only_where_a_failure_is_recorded(self):
        # spider(2)'s k = 3 probe succeeds after failing at positions 6-8
        # only, so a feasible probe pays for three rows, not all nine
        g = spider(2)
        edges = _edge_order(g)
        inc = _incidence(edges, g.n)
        frontier = _Frontiers(edges, g.n)
        assert _search(g, 3, edges, inc, frontier) == _search(g, 3, edges, inc)
        assert sorted(frontier) == [6, 7, 8]
        # at position 7 edges 5 = 1-6 and 6 = 1-8 still have an open end
        # (6 and 8), and vertex 1 has had its last edge
        assert frontier[7] == ([5, 6], [(5, 1), (6, 1)])

    def test_node_ceilings(self):
        # measured with the breadth-first order and the table on every k >= 3 probe
        assert min_parts(cycle(17)).nodes_explored <= 204
        members = t_family_members(13)
        assert max(min_parts(g).nodes_explored for g in members if g.m == 13) <= 822
        assert max(min_parts(g).nodes_explored
                   for g in members + [cycle(19), path(21)]) <= 822
        # no table at k <= 2: K7's k = 2 probe takes the plain search's count
        # (116,728 with a table)
        assert min_parts(complete(7), k_max=2).searches == [(1, 11, False), (2, 120928, False)]

    def test_verdicts_match_the_previous_search(self, atlas7):
        # (least k, exhausted) as the search over the degree-ascending,
        # neighbour-set-order edge list without the table gave them
        got = [(r.feasible_k, r.exhausted) for r in map(min_parts, atlas7)]
        assert Counter(got) == {(2, True): 864, (1, True): 83, (3, True): 38,
                                (None, True): 10, (0, True): 1}
        assert hashlib.sha256(repr(got).encode()).hexdigest()[:16] == "912d215ad1a13385"
        # odd paths and cycles never decompose; even paths need 2 parts
        # (path(2) needs 1), even cycles 2 at m = 0 mod 4 and 3 at m = 2 mod 4
        cases = [(g, None) for g in t_family_members(13)]
        cases += [(path(m), None if m % 2 else min(m // 2, 2)) for m in range(1, 22)]
        cases += [(cycle(m), None if m % 2 else 2 + m % 4 // 2) for m in range(3, 22)]
        for g, want in cases:
            res = min_parts(g)
            assert (res.feasible_k, res.exhausted) == (want, True), g
            if res.witness is not None:
                assert is_locally_irregular_decomposition(res.witness)


class TestBisection:
    """The probe logic alone, over a stand-in search: feasible from k_star
    on, and at each k the least colouring with at most k colours uses the
    largest record value r <= k, with k_star the smallest record (the shape
    a lexicographically least witness has)."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_finds_the_least_k(self, data):
        m = data.draw(st.integers(1, 22))
        k_star = data.draw(st.integers(1, m + 1))  # m + 1: infeasible at every k
        records = {k_star} | set(data.draw(st.lists(st.integers(k_star, m), max_size=4))
                                 if k_star <= m else [])
        k_max = data.draw(st.one_of(st.none(), st.integers(1, m + 2)))
        probes = []

        def fake_search(g, k, edges, inc, frontier=None):
            assert (frontier is None) == (k <= 2)  # the table from k = 3 on
            probes.append(k)
            if k < k_star:
                return None, 1
            used = max(r for r in records if r <= k)
            return {e: min(i + 1, used) for i, e in enumerate(edges)}, 1

        # the stand-in colourings are not locally irregular, so the witness
        # re-check (tested on its own in TestMinParts) is stood down as well
        real = oracle._search, oracle._check_irregular
        oracle._search, oracle._check_irregular = fake_search, lambda dec: None
        try:
            res = min_parts(path(m), k_max)
        finally:
            oracle._search, oracle._check_irregular = real
        top = m if k_max is None else min(k_max, m)
        head = list(range(1, min(3, top, k_star) + 1)) + ([top] if min(top, k_star) > 3 else [])
        assert probes[:len(head)] == head
        assert len(probes) == len(set(probes)) <= 4 + m.bit_length()
        assert res.nodes_explored == len(probes)
        assert [k for k, _, _ in res.searches] == probes
        if k_star > top:
            assert res.feasible_k is None and res.exhausted == (top >= m)
        else:
            assert res.feasible_k == k_star and res.exhausted
            assert set(res.witness.colour.values()) == set(range(1, k_star + 1))


class TestAtlas:
    def test_connected_counts(self, atlas7):
        assert len(atlas7) == 996
        assert all(g.is_connected() for g in atlas7[:50])
        assert max(g.n for g in atlas7) == 7
        # the graphs themselves, in their order
        got = repr([(g.n, sorted(g.edges)) for g in atlas7])
        assert hashlib.sha256(got.encode()).hexdigest()[:16] == "8f4aaf4c2c5acf88"
        assert len(atlas_connected_graphs(5)) == 31  # 1+1+2+6+21

    def test_vertex_cap(self):
        with pytest.raises(ValueError):
            atlas_connected_graphs(8)


class TestExceptionSweep:
    def test_report_at_nine_edges(self, atlas7):
        report = exceptions_never_decompose(9, atlas7)
        assert len(report["exceptions"]) == 19
        assert all(rec["infeasible"] for rec in report["exceptions"].values())
        assert report["other_connected_graphs"] == 986
        assert report["feasible_k_histogram"] == {"0": 1, "1": 83, "2": 864, "3": 38}
        assert report["recognizer_agreement"] is True


def test_sweep_invariants_survive_optimize_flag():
    """Under `python -O` a bare assert vanishes; the sweep's checks must not."""
    script = textwrap.dedent("""
        import conftest as sweep
        from irrdec.graph_core import InvariantViolated
        from irrdec.oracle import OracleResult

        sweep.min_parts = lambda g: OracleResult(1, None, True)
        try:
            sweep.exceptions_never_decompose(3, ())
        except InvariantViolated as exc:
            print("raised:", exc)
        else:
            raise SystemExit("no InvariantViolated")
    """)
    here = os.path.dirname(__file__)
    src = os.path.join(here, os.pardir, "src")
    path_entries = [src, here, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path_entries)))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "raised: exception path(1) is not certified infeasible" in proc.stdout
