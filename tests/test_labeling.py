import hashlib
import json
import math
import random
from itertools import compress, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irrdec import labeling, lll_engine
from irrdec.exact import floor_beta_mult, iroot
from irrdec.graph_core import Graph, complete, gnp, path
from irrdec.labeling import (
    LabelPair,
    ceil_log_beta,
    classify,
    draw_label_batch,
    draw_labels,
    emin_batches,
    exponents,
    gate,
    ratio_gate,
    risk_terms,
    risky_neighbours,
    risky_types,
    shared_exponent,
    size_limits,
    violated_kinds,
)
from irrdec.lll_engine import moser_tardos, violated_events

from conftest import risky_sets


def lambda_of(d: int) -> int:
    return 1 << ceil_log_beta(d)


def symmetric_mod_predicate(a: int, b: int, k: int) -> bool:
    """True iff a is congruent mod k to one of -b+1, ..., b-1."""
    if not 1 <= b <= k:
        raise ValueError(f"need 1 <= b <= k, got b={b}, k={k}")
    r = a % k
    return r < b or r > k - b


def pair_flags(du, dv, eu, ev, c1u, c1v, c2u, c2v) -> tuple:
    """One pair's (type 1, type 2, type 3) verdicts, as a batch of one."""
    terms = [risk_terms(du, eu, c1u, c2u), risk_terms(dv, ev, c1v, c2v)]
    return tuple(verdicts[0] for verdicts in risky_types([(0, 1)], terms, min(eu, ev)))


def is_risky(g: Graph, labels: LabelPair, u: int, v: int, rtype: int) -> bool:
    """One edge's verdict of one type, read off risky_types."""
    if rtype not in (1, 2, 3):
        raise ValueError(f"risky type must be 1, 2 or 3, got {rtype}")
    if not g.has_edge(u, v):
        raise ValueError(f"{u}-{v} is not an edge")
    du, dv = g.degree(u), g.degree(v)
    if not ratio_gate(du, dv):
        return False
    flags = pair_flags(du, dv, ceil_log_beta(du), ceil_log_beta(dv),
                       labels.c1[u], labels.c1[v], labels.c2[u], labels.c2[v])
    return flags[rtype - 1]


# The congruences as the probability enumeration wrote them before it moved
# onto the shared predicate, kept as an independent reference for risky_types.
def _type3_offset(du, dv, eu, ev, c1u, c1v, c2u, c2v) -> int:
    return du - 3 * ((c1u + c2u) << eu) - dv + 3 * ((c1v + c2v) << ev)


def _holds(rtype, du, dv, eu, ev, c1u, c1v, c2u, c2v) -> bool:
    emin = min(eu, ev)
    if rtype == 1:
        return ((c1u << eu) - (c1v << ev)) % (1 << (2 * emin)) == 0
    if rtype == 2:
        return ((c2u << eu) - (c2v << ev)) % (1 << (2 * emin)) == 0
    if rtype == 3:
        a = _type3_offset(du, dv, eu, ev, c1u, c1v, c2u, c2v)
        return symmetric_mod_predicate(a, 3 << emin, 3 << (2 * emin))
    if rtype == "23":
        return _holds(2, du, dv, eu, ev, c1u, c1v, c2u, c2v) and _holds(
            3, du, dv, eu, ev, c1u, c1v, c2u, c2v
        )
    raise ValueError(f"risk type must be 1, 2, 3 or '23', got {rtype!r}")


def threshold_graph(n: int) -> Graph:
    """Vertex i joins j when i + j >= n: every degree 0..n-1 but one, about
    n^2/4 edges over as many distinct degree pairs, many failing the gate."""
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if i + j >= n])


class TestCeilLogBeta:
    @pytest.mark.parametrize(
        "d,e",
        [(1, 0), (2, 1), (6, 1), (7, 2), (38, 2), (39, 3), (100, 3),
         (237, 3), (238, 4), (5000, 5), (10**10, 13)],
    )
    def test_frozen_table(self, d, e):
        assert ceil_log_beta(d) == e

    def test_lambda(self):
        assert lambda_of(1) == 1
        assert lambda_of(7) == 4
        assert lambda_of(10**10) == 8192
        with pytest.raises(ValueError, match="degree must be >= 1"):
            ceil_log_beta(0)

    @given(st.integers(min_value=2, max_value=10**9))
    def test_is_least_exponent(self, d):
        e = ceil_log_beta(d)
        # beta^(e-1) < d <= beta^e, exactly: d^19 <= 2^(50e) and d^19 > 2^(50(e-1))
        assert d**19 <= 1 << (50 * e)
        assert d**19 > 1 << (50 * (e - 1))

    @pytest.mark.parametrize("k", range(60))
    def test_near_powers_of_beta(self, k):
        # every d within 3 of floor(beta^k), where d^19 meets 2^(50k) closest
        b = iroot(1 << (50 * k), 19)
        for d in range(max(1, b - 3), b + 4):
            e = ceil_log_beta(d)
            assert d**19 <= 1 << (50 * e)
            assert e == 0 or d**19 > 1 << (50 * (e - 1))


class TestRatioGate:
    def test_examples(self):
        assert ratio_gate(6, 7) and ratio_gate(7, 6)
        assert ratio_gate(1, 6) and not ratio_gate(1, 7)
        assert not ratio_gate(2, 5000)
        assert ratio_gate(100, 100)
        with pytest.raises(ValueError, match="degrees must be >= 1"):
            ratio_gate(0, 1)

    @given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=300)
    def test_symmetric_and_matches_floor(self, du, dv):
        g = ratio_gate(du, dv)
        assert g == ratio_gate(dv, du)
        # du < beta*dv is the same as du <= floor(beta*dv); ties cannot occur
        assert g == (du <= floor_beta_mult(dv) and dv <= floor_beta_mult(du))

    @given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=300)
    def test_gated_exponents_differ_by_at_most_one(self, du, dv):
        if ratio_gate(du, dv):
            assert abs(ceil_log_beta(du) - ceil_log_beta(dv)) <= 1


class TestLabels:
    def test_sample_deterministic_and_valid(self):
        g = gnp(15, 0.4, seed=3)
        a = draw_labels(exponents(g), random.Random(11))
        b = draw_labels(exponents(g), random.Random(11))
        assert a == b
        assert a != draw_labels(exponents(g), random.Random(12))
        a.validate(exponents(g))

    def test_draw_is_the_stdlib_randrange(self):
        for e in range(13):
            for seed in range(20):
                ref, rng = random.Random(seed), random.Random(seed)
                want = [ref.randrange(1 << e) for _ in range(200)]
                assert draw_label_batch([e] * 200, rng) == want, (e, seed)
                assert rng.getstate() == ref.getstate(), (e, seed)
        es = [i % 13 for i in range(500)]  # exponents that change from label to label
        ref, rng = random.Random(3), random.Random(3)
        assert draw_label_batch(es, rng) == [ref.randrange(1 << e) for e in es]
        assert rng.getstate() == ref.getstate()

    def test_draw_labels_frozen(self):
        labels = draw_labels([i % 9 for i in range(1000)], random.Random(5))
        digest = hashlib.sha256(json.dumps([labels.c1, labels.c2]).encode()).hexdigest()
        assert digest == "a29d3be74eba74c677ba63881024c2fffc7773c020b25cc87a638cd96931e24d"

    def test_ranges(self):
        g = Graph(3, [(0, 1)])  # degrees 1, 1, 0
        labels = draw_labels(exponents(g), random.Random(0))
        assert labels.c1 == [0, 0, 0] and labels.c2 == [0, 0, 0]
        labels.validate(exponents(g))

    def test_validate_rejects(self):
        g = path(1)
        with pytest.raises(ValueError):
            LabelPair([0], [0]).validate(exponents(g))
        with pytest.raises(ValueError):
            LabelPair([0, 1], [0, 0]).validate(exponents(g))  # lam(1) = 1

    def test_validate_messages(self):
        g = path(2)  # degrees 1, 2, 1: every e is 0 or 1
        for labels, message in (
                (LabelPair([0, 0], [0, 0, 0]), "label array length differs from vertex count"),
                (LabelPair([0, 2, 0], [0, 0, 0]), "label 2 at vertex 1 outside [0, 2)"),
                (LabelPair([0, 1, 0], [1, 0, 0]), "label 1 at vertex 0 outside [0, 1)")):
            with pytest.raises(ValueError) as err:
                labels.validate(exponents(g))
            assert str(err.value) == message

    def test_classify_takes_e_and_maps_no_degrees(self, monkeypatch):
        calls = []

        def counted(g):
            calls.append(g)
            return exponents(g)

        g = complete(9)
        labels = draw_labels(exponents(g), random.Random(1))
        es = exponents(g)
        monkeypatch.setattr(labeling, "exponents", counted)
        classify(g, labels, es)
        assert len(calls) == 0

    def test_classify_builds_no_risk_term_without_edges(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a risk term was built for a graph without edges")

        g = Graph(1000)
        es = exponents(g)
        monkeypatch.setattr(labeling, "risk_terms", refused)
        cls = classify(g, draw_labels(es, random.Random(7)), es)
        assert risky_sets(cls) == (set(),) * 3
        with pytest.raises(ValueError, match="label array length"):  # labels are still checked
            classify(g, LabelPair([0], [0]), es)


class TestSymmetricModPredicate:
    def test_examples(self):
        assert symmetric_mod_predicate(0, 3, 12)
        assert symmetric_mod_predicate(2, 3, 12)
        assert not symmetric_mod_predicate(3, 3, 12)
        assert not symmetric_mod_predicate(9, 3, 12)
        assert symmetric_mod_predicate(10, 3, 12)
        assert symmetric_mod_predicate(-2, 3, 12)

    def test_precondition(self):
        with pytest.raises(ValueError):
            symmetric_mod_predicate(1, 0, 12)
        with pytest.raises(ValueError):
            symmetric_mod_predicate(1, 13, 12)

    @given(st.integers(-1000, 1000), st.integers(1, 30))
    def test_symmetry_in_a(self, a, b):
        k = 2 * b + 3
        assert symmetric_mod_predicate(a, b, k) == symmetric_mod_predicate(-a, b, k)


class TestRisky:
    def test_k2_edge_is_risky_of_all_types(self):
        g = path(1)
        labels = draw_labels(exponents(g), random.Random(0))
        for rtype in (1, 2, 3):
            assert is_risky(g, labels, 0, 1, rtype)

    def test_non_edge_rejected(self):
        g = path(2)
        with pytest.raises(ValueError):
            is_risky(g, draw_labels(exponents(g), random.Random(0)), 0, 2, 1)

    def test_gate_failure_is_never_risky(self):
        # star: centre degree 7 vs leaf degree 1 is outside the ratio gate
        g = Graph(8, [(0, i) for i in range(1, 8)])
        labels = draw_labels(exponents(g), random.Random(5))
        assert not ratio_gate(7, 1)
        assert not any(is_risky(g, labels, 0, 1, t) for t in (1, 2, 3))

    @pytest.mark.parametrize(
        "du,dv,same_band",
        [(3, 5, True), (20, 31, True), (7, 38, True), (60, 200, True),
         (5, 7, False), (7, 5, False), (30, 41, False), (41, 30, False)],
    )
    def test_risk_flags_match_probability_predicate(self, du, dv, same_band):
        # _holds is the separate reference copy of the congruences above;
        # every label pair of both endpoints is judged in one batch
        assert ratio_gate(du, dv)
        eu, ev = ceil_log_beta(du), ceil_log_beta(dv)
        assert (eu == ev) == same_band
        at_u = list(product(range(1 << eu), repeat=2))
        at_v = list(product(range(1 << ev), repeat=2))
        terms = ([risk_terms(du, eu, c1, c2) for c1, c2 in at_u]
                 + [risk_terms(dv, ev, c1, c2) for c1, c2 in at_v])
        pairs = list(product(range(len(at_u)), range(len(at_u), len(terms))))
        for (i, j), *flags in zip(pairs, *risky_types(pairs, terms, min(eu, ev))):
            (c1u, c2u), (c1v, c2v) = at_u[i], at_v[j - len(at_u)]
            args = (du, dv, eu, ev, c1u, c1v, c2u, c2v)
            assert tuple(flags) == tuple(_holds(t, *args) for t in (1, 2, 3)), args

    @given(st.lists(st.tuples(st.integers(1, 10**6), st.integers(1, 10**6),
                              st.integers(0, 2**20), st.integers(0, 2**20),
                              st.integers(0, 2**20), st.integers(0, 2**20)),
                    min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_batch_verdicts_match_reference(self, rows):
        # random degree pairs (mixed bands, and pairs the gate rejects: the
        # congruences do not read the gate) with labels reduced into
        # [0, 2lam - 1), which covers every label value and every sum
        # c1 + c2 the riskprob tables judge; the pairs go in one batch per emin
        terms, es, pairs, want = [], [], [], {}
        for du, dv, c1u, c1v, c2u, c2v in rows:
            eu, ev = ceil_log_beta(du), ceil_log_beta(dv)
            c1u, c2u = c1u % ((2 << eu) - 1), c2u % ((2 << eu) - 1)
            c1v, c2v = c1v % ((2 << ev) - 1), c2v % ((2 << ev) - 1)
            pairs.append((len(terms), len(terms) + 1))
            terms += [risk_terms(du, eu, c1u, c2u), risk_terms(dv, ev, c1v, c2v)]
            es += [eu, ev]
            args = (du, dv, eu, ev, c1u, c1v, c2u, c2v)
            want[pairs[-1]] = tuple(_holds(t, *args) for t in (1, 2, 3))
        got = {}
        for emin, batch in emin_batches(pairs, es):
            got.update(zip(batch, zip(*risky_types(batch, terms, emin))))
        assert got == want

    def test_gate_cache_stays_bounded(self):
        # vertex i joins j when i + j >= n: about n^2/4 edges over as many
        # distinct degree pairs, more than the cache holds, many of them
        # failing the gate
        g = threshold_graph(200)
        deg = g.degrees()
        pairs = {(deg[u], deg[v]) for u, v in g.edges}
        info = gate.cache_info()
        assert len(pairs) > info.maxsize == 4096
        assert not gate(min(filter(None, deg)), max(deg))  # so classify gates edge by edge
        labels = draw_labels(exponents(g), random.Random(1))
        gate.cache_clear()
        cls = classify(g, labels, exponents(g))
        assert gate.cache_info().currsize == info.maxsize
        for rset, rtype in zip(risky_sets(cls), (1, 2, 3)):
            assert rset == {e for e in g.edges if is_risky(g, labels, *e, rtype)}

    def test_rejects_unknown_type(self):
        with pytest.raises(ValueError):
            is_risky(path(1), draw_labels(exponents(path(1)), random.Random(0)), 0, 1, 4)

    @given(st.integers(0, 2**32))
    @settings(max_examples=20, deadline=None)
    def test_classification_matches_edge_scan(self, seed):
        g = gnp(12, 0.45, seed=101)
        labels = draw_labels(exponents(g), random.Random(seed))
        cls = classify(g, labels, exponents(g))
        assert cls.__slots__ == ("r1", "r2", "r3")
        for rset, rtype in zip(risky_sets(cls), (1, 2, 3)):
            expected = {e for e in g.edges if is_risky(g, labels, *e, rtype)}
            assert rset == expected
        risky = risky_neighbours(g.n, cls)
        for v in range(g.n):
            # risky_neighbours holds risky *neighbours*, not edges
            assert risky[v] == [
                {u for u in g.neighbours(v) if is_risky(g, labels, u, v, rtype)}
                for rtype in (1, 2, 3)]


def reference_sets(g: Graph, labels: LabelPair) -> tuple:
    """Per type, the set of edges that pass the ratio gate and _holds, the
    verbatim reference copy of the congruences, judged edge by edge."""
    deg, es = g.degrees(), exponents(g)
    out = (set(), set(), set())
    for u, v in g.edges:
        if ratio_gate(deg[u], deg[v]):
            args = (deg[u], deg[v], es[u], es[v],
                    labels.c1[u], labels.c1[v], labels.c2[u], labels.c2[v])
            for edges, rtype in zip(out, (1, 2, 3)):
                if _holds(rtype, *args):
                    edges.add((u, v))
    return out


class TestMixedExponents:
    """Graphs whose vertices with edges have more than one exponent, so
    their edges fall into more than one emin batch."""

    @pytest.fixture(params=["gnp", "threshold"], scope="class")
    def g(self, request):
        # gnp has e in {2, 3}; the threshold graph has e in {0, 1, 2, 3}
        return gnp(120, 0.3, seed=3) if request.param == "gnp" else threshold_graph(200)

    def test_no_shared_exponent(self, g):
        deg, es = g.degrees(), exponents(g)
        assert len(set(compress(es, deg))) > 1
        assert shared_exponent(deg, es) is None

    def test_emin_batches_cover_every_pair_once(self, g):
        es = exponents(g)
        pairs = sorted(g.edges)
        batches = emin_batches(pairs, es)
        assert len(batches) > 1
        assert [e for e, _ in batches] == sorted({min(es[u], es[v]) for u, v in pairs})
        assert sorted(pair for _, batch in batches for pair in batch) == pairs
        for emin, batch in batches:
            assert all(min(es[u], es[v]) == emin for u, v in batch)

    def test_classify_matches_reference(self, g):
        es = exponents(g)
        for seed in range(3):
            labels = draw_labels(es, random.Random(seed))
            assert risky_sets(classify(g, labels, es)) == reference_sets(g, labels), seed

    def test_resampler_matches_reference(self, g, monkeypatch):
        # every round splits its re-judged pairs; each split is recorded
        splits = []

        def recorded(pairs, es, shared=None):
            batches = emin_batches(pairs, es, shared)
            splits.append((sorted(pairs), batches))
            return batches

        monkeypatch.setattr(lll_engine, "emin_batches", recorded)
        out = moser_tardos(g, exponents(g), 0, 0.3, 60)
        assert isinstance(out, LabelPair) and len(splits) >= 10
        assert risky_sets(out.classification) == reference_sets(g, out)
        assert any(len(batches) > 1 for _, batches in splits)
        for pairs, batches in splits:
            assert sorted(pair for _, batch in batches for pair in batch) == pairs


class TestSharedExponent:
    def test_regular_graph_is_one_batch(self):
        g = complete(9)
        deg, es = g.degrees(), exponents(g)
        pairs = sorted(g.edges)
        assert shared_exponent(deg, es) == ceil_log_beta(8) == 2
        ((emin, batch),) = emin_batches(pairs, es, shared_exponent(deg, es))
        assert emin == 2 and batch is pairs

    def test_isolated_vertices_do_not_count(self):
        g = Graph(5, [(0, 1), (1, 2), (0, 2)])  # a triangle and two isolated vertices
        assert shared_exponent(g.degrees(), exponents(g)) == ceil_log_beta(2)
        assert shared_exponent([0] * 4, [0] * 4) is None


class TestBounds:
    def test_complete30_equal_labels(self):
        g = complete(30)
        labels = LabelPair([0] * 30, [0] * 30)
        risky = risky_neighbours(30, classify(g, labels, exponents(g)))
        assert all(len(a) == 29 for a, _, _ in risky)
        # single-type neighbourhood bounds hold: 29 <= 8*29^0.62 = 64.5...;
        # the pair-overlap bound genuinely fails: 29 > 12*29^0.24 = 26.92...
        assert size_limits(g, 1)[0] == (64, 26)
        bad = violated_events(g, exponents(g), labels, 1)
        assert [(ev.vertex, ev.kind) for ev in bad] == [(v, "F") for v in range(30)]

    @given(st.one_of(st.none(), st.tuples(st.integers(0, 40), st.integers(0, 20))),
           st.tuples(*[st.integers(-2, 2)] * 4))
    @example(None, (40, 40, 40, 40))
    @example((3, 2), (0, 0, 0, 0))  # all four at or below
    @example((3, 2), (0, 0, 1, 0))  # F alone over
    @example((3, 2), (1, 1, 1, 1))  # every size one past its bound
    @settings(max_examples=300, deadline=None)
    def test_violated_kinds_compares_each_size_to_its_limit(self, limits, offsets):
        # sizes sit within 2 of their bounds, on both sides; with limits
        # (None, None) the offsets are the sizes themselves, shifted up
        if limits is None:
            limits, sizes = (None, None), tuple(10 + o for o in offsets)
        else:
            bounds = (limits[0],) * 3 + (limits[1],)
            sizes = tuple(max(0, t + o) for t, o in zip(bounds, offsets))
        t_abc, t_f = limits
        want = []
        if t_abc is not None:
            a, b, c, f = sizes
            want = [kind for kind, over in (("A", a > t_abc), ("B", b > t_abc),
                                            ("C", c > t_abc), ("F", f > t_f)) if over]
        assert violated_kinds(limits, sizes) == want

    def test_inf_slack_disables_everything(self):
        g = complete(30)
        assert violated_events(g, exponents(g), LabelPair([0] * 30, [0] * 30), math.inf) == []

    def test_degree_one_has_no_events(self):
        g = path(1)
        labels = draw_labels(exponents(g), random.Random(0))
        # the edge is risky of every type, but 1 <= 8 and 1 <= 12 at degree 1
        risky = risky_neighbours(2, classify(g, labels, exponents(g)))
        assert [len(s) for a in risky for s in a] == [1] * 6
        assert violated_events(g, exponents(g), labels, 1) == []

    def test_rejects_nonpositive_slack(self):
        g = path(1)
        labels = draw_labels(exponents(g), random.Random(0))
        for slack in (0, -1):
            with pytest.raises(ValueError, match="slack must be positive"):
                violated_events(g, exponents(g), labels, slack)
            with pytest.raises(ValueError, match="slack must be positive"):
                size_limits(g, slack)
