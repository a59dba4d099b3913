import math
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irrdec import labeling
from irrdec.exact import floor_beta_mult
from irrdec.graph_core import Graph, complete, gnp, path
from irrdec.labeling import (
    LabelPair,
    bounds_hold,
    ceil_log_beta,
    classify,
    exponents,
    is_risky,
    lambda_of,
    ratio_gate,
    risk_flags,
    sample_labels,
    symmetric_mod_predicate,
)


# The congruences as the probability enumeration wrote them before it moved
# onto risk_flags, kept as an independent reference for risk_flags.
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

    @given(st.integers(min_value=2, max_value=10**9))
    def test_is_least_exponent(self, d):
        e = ceil_log_beta(d)
        # beta^(e-1) < d <= beta^e, exactly: d^19 <= 2^(50e) and d^19 > 2^(50(e-1))
        assert d**19 <= 1 << (50 * e)
        assert d**19 > 1 << (50 * (e - 1))


class TestRatioGate:
    def test_examples(self):
        assert ratio_gate(6, 7) and ratio_gate(7, 6)
        assert ratio_gate(1, 6) and not ratio_gate(1, 7)
        assert not ratio_gate(2, 5000)
        assert ratio_gate(100, 100)

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
        a = sample_labels(g, 11)
        b = sample_labels(g, 11)
        assert a == b
        assert a != sample_labels(g, 12)
        a.validate(g)

    def test_ranges(self):
        g = Graph(3, [(0, 1)])  # degrees 1, 1, 0
        labels = sample_labels(g, 0)
        assert labels.c1 == [0, 0, 0] and labels.c2 == [0, 0, 0]
        labels.validate(g)

    def test_validate_rejects(self):
        g = path(1)
        with pytest.raises(ValueError):
            LabelPair([0], [0]).validate(g)
        with pytest.raises(ValueError):
            LabelPair([0, 1], [0, 0]).validate(g)  # lam(1) = 1

    def test_validate_messages(self):
        g = path(2)  # degrees 1, 2, 1: every e is 0 or 1
        for labels, message in (
                (LabelPair([0, 0], [0, 0, 0]), "label array length differs from vertex count"),
                (LabelPair([0, 2, 0], [0, 0, 0]), "label 2 at vertex 1 outside [0, 2)"),
                (LabelPair([0, 1, 0], [1, 0, 0]), "label 1 at vertex 0 outside [0, 1)")):
            with pytest.raises(ValueError) as err:
                labels.validate(g)
            assert str(err.value) == message

    def test_validate_maps_degrees_to_e_once(self, monkeypatch):
        calls = []

        def counted(g):
            calls.append(g)
            return exponents(g)

        g = complete(9)
        labels = sample_labels(g, 1)
        monkeypatch.setattr(labeling, "exponents", counted)
        labels.validate(g)
        assert len(calls) == 1


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
        labels = sample_labels(g, 0)
        for rtype in (1, 2, 3):
            assert is_risky(g, labels, 0, 1, rtype)

    def test_non_edge_rejected(self):
        g = path(2)
        with pytest.raises(ValueError):
            is_risky(g, sample_labels(g, 0), 0, 2, 1)

    def test_gate_failure_is_never_risky(self):
        # star: centre degree 7 vs leaf degree 1 is outside the ratio gate
        g = Graph(8, [(0, i) for i in range(1, 8)])
        labels = sample_labels(g, 5)
        assert not ratio_gate(7, 1)
        assert not any(is_risky(g, labels, 0, 1, t) for t in (1, 2, 3))

    @pytest.mark.parametrize(
        "du,dv,same_band",
        [(3, 5, True), (20, 31, True), (7, 38, True), (60, 200, True),
         (5, 7, False), (7, 5, False), (30, 41, False), (41, 30, False)],
    )
    def test_risk_flags_match_probability_predicate(self, du, dv, same_band):
        # _holds is the separate reference copy of the congruences above
        assert ratio_gate(du, dv)
        eu, ev = ceil_log_beta(du), ceil_log_beta(dv)
        assert (eu == ev) == same_band
        for c1u, c2u in product(range(1 << eu), repeat=2):
            for c1v, c2v in product(range(1 << ev), repeat=2):
                args = (du, dv, eu, ev, c1u, c1v, c2u, c2v)
                assert risk_flags(*args) == tuple(_holds(t, *args) for t in (1, 2, 3)), args

    def test_rejects_unknown_type(self):
        with pytest.raises(ValueError):
            is_risky(path(1), sample_labels(path(1), 0), 0, 1, 4)

    @given(st.integers(0, 2**32))
    @settings(max_examples=20, deadline=None)
    def test_classification_matches_edge_scan(self, seed):
        g = gnp(12, 0.45, seed=101)
        labels = sample_labels(g, seed)
        cls = classify(g, labels)
        assert cls._abc is None  # the views are built on first use only
        for rset, rtype in ((cls.r1, 1), (cls.r2, 2), (cls.r3, 3)):
            expected = {e for e in g.edges if is_risky(g, labels, *e, rtype)}
            assert rset == expected
        for v in range(g.n):
            # the per-vertex views hold risky *neighbours*, not edges
            assert cls.a_of(v) == {u for e in cls.r1 if v in e for u in e if u != v}
            assert cls.b_of(v) == {u for e in cls.r2 if v in e for u in e if u != v}
            assert cls.c_of(v) == {u for e in cls.r3 if v in e for u in e if u != v}
            assert cls.f_of(v) == cls.b_of(v) & cls.c_of(v)


class TestBounds:
    def test_complete30_equal_labels(self):
        g = complete(30)
        labels = LabelPair([0] * 30, [0] * 30)
        cls = classify(g, labels)
        assert all(len(cls.a_of(v)) == 29 for v in range(30))
        report = bounds_hold(g, cls, 1)
        # single-type neighbourhood bounds hold: 29 <= 8*29^0.62 = 64.5...
        assert all(report.a_ok.values())
        assert all(report.b_ok.values())
        assert all(report.c_ok.values())
        # the pair-overlap bound genuinely fails: 29 > 12*29^0.24 = 26.92...
        assert not any(report.f_ok.values())
        assert not report.all_hold
        assert report.failing_vertices() == list(range(30))

    def test_inf_slack_disables_everything(self):
        g = complete(30)
        cls = classify(g, LabelPair([0] * 30, [0] * 30))
        assert bounds_hold(g, cls, math.inf).all_hold

    def test_degree_one_flagging(self):
        g = path(1)
        cls = classify(g, sample_labels(g, 0))
        report = bounds_hold(g, cls, 1)
        assert report.degree_one_flagged == [0, 1]
        assert report.all_hold  # 1 <= 8 at degree 1

    def test_rejects_nonpositive_slack(self):
        g = path(1)
        cls = classify(g, sample_labels(g, 0))
        with pytest.raises(ValueError):
            bounds_hold(g, cls, 0)
