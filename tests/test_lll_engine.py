import hashlib
import json
import math
import random
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irrdec import lll_engine
from irrdec.exact import BETA_POW, BETA_SHIFT, floor_beta_mult, iroot
from irrdec.graph_core import Graph, InvariantViolated, complete, cycle, gnp, path, random_regular
from irrdec.labeling import (
    KINDS,
    LabelPair,
    ceil_log_beta,
    classify,
    draw_labels,
    exponents,
    ratio_gate,
    risk_terms,
    risky_types,
)
from irrdec.lll_engine import (
    Timeout,
    audit_constants,
    event_scope,
    exact_edge_risk_probability,
    gated_neighbours,
    make_event,
    moser_tardos,
    risk_bound_holds,
    violated_events,
    worst_conditional_risk,
)

from conftest import risky_sets
from test_labeling import _holds, lambda_of  # the reference copies

INSTRUMENTED = (14, 0.1)  # complete(14) at slack 0.1: tight but terminating


class TestEvents:
    def test_scope_slots(self):
        g = path(2)  # degrees 1,2,1; every adjacent pair is gated
        deg = g.degrees()
        assert event_scope(0, "A", gated_neighbours(g, 0, deg)) == {(0, 1), (1, 1)}
        assert event_scope(0, "B", gated_neighbours(g, 0, deg)) == {(0, 2), (1, 2)}
        assert event_scope(1, "C", gated_neighbours(g, 1, deg)) == {(w, s) for w in (0, 1, 2) for s in (1, 2)}
        with pytest.raises(ValueError):
            event_scope(0, "Z", gated_neighbours(g, 0, deg))

    def test_scope_excludes_ungated_neighbours(self):
        g = Graph(8, [(0, i) for i in range(1, 8)])  # star, centre degree 7
        assert event_scope(0, "A", gated_neighbours(g, 0, g.degrees())) == {(0, 1)}
        assert event_scope(1, "A", gated_neighbours(g, 1, g.degrees())) == {(1, 1)}

    def test_sort_order_is_vertex_then_kind(self):
        n, slack = INSTRUMENTED
        g = complete(n)
        bad = violated_events(g, exponents(g), LabelPair([0] * n, [0] * n), slack)
        assert [(e.vertex, e.kind) for e in bad] == [(v, k) for v in range(n) for k in KINDS]
        assert bad[0] == make_event(0, "A", gated_neighbours(g, 0, g.degrees()))

    def test_violated_events_on_tight_instance(self):
        n, slack = INSTRUMENTED
        g = complete(n)
        labels = LabelPair([0] * n, [0] * n)  # every edge risky of all types
        bad = violated_events(g, exponents(g), labels, slack)
        assert len(bad) == 4 * n  # thresholds 3 (ABC) and 2 (F), sizes 13
        assert violated_events(g, exponents(g), labels, math.inf) == []


def reference_moser_tardos(g, seed, slack, max_rounds, observer):
    """Moser-Tardos as specified: every round classifies the whole graph
    from scratch and resamples the least violated event."""
    rng = random.Random(seed)
    lams = [lambda_of(d) if d >= 1 else 1 for d in g.degrees()]
    c1 = [rng.randrange(lam) for lam in lams]
    c2 = [rng.randrange(lam) for lam in lams]
    es = exponents(g)
    trajectory = []
    for round_no in range(max_rounds):
        bad = violated_events(g, es, LabelPair(c1, c2), slack)
        if not bad:
            return LabelPair(c1, c2)
        ev = bad[0]
        trajectory.append((ev.vertex, ev.kind))
        before = LabelPair(list(c1), list(c2))
        for w, slot in sorted(ev.scope):
            (c1 if slot == 1 else c2)[w] = rng.randrange(lams[w])
        observer(round_no, ev, before, LabelPair(list(c1), list(c2)))
    return Timeout(rounds=max_rounds, trajectory=trajectory)


class TestMoserTardos:
    def test_incremental_rounds_match_full_reclassification(self):
        rng = random.Random(2024)
        rounds = 0
        outcomes = set()
        irregular_instances = 0  # resampled with gate-failing and mixed-band edges
        for i in range(40):
            if i % 2:
                g = gnp(rng.randrange(30, 60), rng.uniform(0.08, 0.2), seed=i)
            else:
                g = random_regular(2 * rng.randrange(15, 35), rng.choice([8, 12, 16]), seed=i)
            slack = rng.choice([0.1, 0.12, 0.15, 0.2, 0.3, 0.5, 1])
            got_calls, want_calls = [], []
            got = moser_tardos(g, exponents(g), i, slack, 40,
                               observer=lambda *call: got_calls.append(call))
            want = reference_moser_tardos(g, i, slack, 40,
                                          lambda *call: want_calls.append(call))
            assert got == want, (i, slack)
            assert got_calls == want_calls, (i, slack)
            rounds += len(got_calls)
            if got_calls:
                outcomes.add(type(got))
                deg = g.degrees()
                gates = [ratio_gate(deg[u], deg[v]) for u, v in g.edges]
                mixed = any(ok and ceil_log_beta(deg[u]) != ceil_log_beta(deg[v])
                            for ok, (u, v) in zip(gates, g.edges))
                irregular_instances += mixed and not all(gates)
        assert rounds > 300
        assert outcomes == {LabelPair, Timeout}
        assert irregular_instances >= 2

    def test_returned_labels_carry_their_classification(self):
        # a round re-judges only the scope vertices whose labels changed;
        # the sets handed over must still be those of the labels returned
        rng = random.Random(2029)
        classified = resampled = kept_rounds = 0
        for i in range(40):
            if i % 2:
                g = gnp(rng.randrange(30, 60), rng.uniform(0.08, 0.2), seed=i)
            else:
                g = random_regular(2 * rng.randrange(15, 35), rng.choice([8, 12, 16]), seed=i)
            slack = rng.choice([0.1, 0.12, 0.15, 0.2, 0.3, 0.5, 1])
            es = exponents(g)
            kept = []  # per round: scope vertices redrawn to their old labels

            def observe(round_no, ev, before, after):
                kept.append(sum(before.c1[w] == after.c1[w] and before.c2[w] == after.c2[w]
                                for w in {w for w, _ in ev.scope}))

            out = moser_tardos(g, es, i, slack, 40, observer=observe)
            if isinstance(out, Timeout):
                assert len(kept) == 40
                continue
            assert risky_sets(out.classification) == risky_sets(classify(g, out, es)), (i, slack)
            classified += 1
            resampled += bool(kept)
            kept_rounds += sum(map(bool, kept))
        assert classified >= 10 and resampled >= 5
        assert kept_rounds >= 10  # the skip path ran, in runs whose sets were checked

    @pytest.mark.parametrize("g", [complete(14), gnp(50, 0.15, seed=4)])
    def test_gated_lists_built_once_per_call(self, monkeypatch, g):
        # event scopes and re-judged edges read one list per vertex; gnp
        # has gate-failing edges, so its lists are gated pair by pair
        built = Counter()

        def counted(graph, v, deg):
            built[v] += 1
            return gated_neighbours(graph, v, deg)

        monkeypatch.setattr(lll_engine, "gated_neighbours", counted)
        rounds = []
        moser_tardos(g, exponents(g), 1, 0.1, 200, observer=lambda r, *_: rounds.append(r))
        assert len(rounds) > 10
        assert max(built.values()) == 1

    def test_bench_regime_outcomes_are_pinned(self):
        # the decompose-resample regime: labels on success, the trajectory
        # on Timeout, hashed over 18 runs; seed 1 at d = 20 times out
        digest = hashlib.sha256()
        outcomes = Counter()
        for d in (20, 22, 24):
            g = random_regular(240, d, seed=d)
            for seed in range(6):
                out = moser_tardos(g, exponents(g), seed, 0.21, 10)
                outcomes[type(out)] += 1
                record = ([out.rounds, out.trajectory] if isinstance(out, Timeout)
                          else [out.c1, out.c2])
                digest.update(json.dumps(record).encode())
        assert outcomes == {LabelPair: 17, Timeout: 1}
        assert digest.hexdigest() == \
            "66d28b7979a224b6ef02764ace7edd8fcefb69efd50b2d9bfc94e0346d5d220f"

    def test_finite_slack_builds_no_neighbour_sets(self, monkeypatch):
        def fail(*args):
            raise AssertionError("risky_neighbours called by moser_tardos")

        monkeypatch.setattr(lll_engine, "risky_neighbours", fail)
        g = random_regular(60, 12, seed=7)
        rounds = []
        labels = moser_tardos(g, exponents(g), 3, 0.15, 200,
                              observer=lambda r, *_: rounds.append(r))
        assert len(rounds) == 35  # resampled to success, not a draw returned unchecked
        monkeypatch.undo()  # the from-scratch reference reads the sets
        assert violated_events(g, exponents(g), labels, 0.15) == []

    def test_infinite_slack_never_classifies(self, monkeypatch):
        def fail(*args):
            raise AssertionError("classify called at slack inf")

        monkeypatch.setattr(lll_engine, "classify", fail)
        g = random_regular(60, 12, seed=7)
        es = exponents(g)
        assert moser_tardos(g, es, 42, math.inf, 1) == draw_labels(es, random.Random(42))

    def test_vacuous_bounds_return_initial_sample(self):
        g = random_regular(60, 12, seed=7)
        labels = moser_tardos(g, exponents(g), 42, 3, 10**5)
        assert isinstance(labels, LabelPair)
        # no resampling happened: the output is exactly the initial draw
        assert labels == draw_labels(exponents(g), random.Random(42))
        assert violated_events(g, exponents(g), labels, 3) == []

    def test_instrumented_run_terminates_and_satisfies_bounds(self):
        n, slack = INSTRUMENTED
        g = complete(n)
        rounds_seen = []
        for seed in range(5):
            events = []
            labels = moser_tardos(g, exponents(g), seed, slack, 20000,
                                  observer=lambda r, ev, b, a: events.append(r))
            assert isinstance(labels, LabelPair), f"seed {seed} timed out"
            assert violated_events(g, exponents(g), labels, slack) == []
            rounds_seen.append(len(events))
        assert all(r > 0 for r in rounds_seen)  # the instance forces work

    def test_frame_property_only_scope_slots_change(self):
        n, slack = INSTRUMENTED
        g = complete(n)

        def check(round_no, ev, before, after):
            for v in range(g.n):
                if (v, 1) not in ev.scope:
                    assert before.c1[v] == after.c1[v], (round_no, ev, v)
                if (v, 2) not in ev.scope:
                    assert before.c2[v] == after.c2[v], (round_no, ev, v)

        labels = moser_tardos(g, exponents(g), 1, slack, 20000, observer=check)
        assert isinstance(labels, LabelPair)

    def test_resamples_least_violated_event_first(self):
        n, slack = INSTRUMENTED
        g = complete(n)
        picked = []
        moser_tardos(g, exponents(g), 3, slack, 20000,
                     observer=lambda r, ev, b, a: picked.append((ev.vertex, ev.kind)))
        assert picked[0] == (0, "A") or picked[0][0] == 0

    def test_timeout_carries_trajectory(self):
        n, slack = INSTRUMENTED
        g = complete(n)
        out = moser_tardos(g, exponents(g), 1, slack, 3)
        assert isinstance(out, Timeout)
        assert out.rounds == 3 and len(out.trajectory) == 3

    def test_argument_validation(self):
        g = path(1)
        with pytest.raises(ValueError):
            moser_tardos(g, exponents(g), 0, -1, 10)
        with pytest.raises(ValueError):
            moser_tardos(g, exponents(g), 0, 1, 0)


@dataclass
class DependencyDigraph:
    events: list
    arcs: dict

    def out_degree(self, key) -> int:
        return len(self.arcs[key])


def build_dependency_digraph(g: Graph) -> DependencyDigraph:
    """Arcs from each event to every other event whose vertex is the same
    vertex, a gate-passing neighbour, or a gate-passing neighbour thereof.

    Checks the out-degree bound 3 + 4*d*floor(beta*d) and, for arcs leaving
    a vertex of positive degree, that targets stay inside the squared-ratio
    window (1/beta^2)*d < d(w) < beta^2*d.
    """
    deg = g.degrees()
    nbrs = [gated_neighbours(g, v, deg) for v in range(g.n)]
    events = [make_event(v, k, nbrs[v]) for v in range(g.n) for k in KINDS]
    reach = {}
    for v in range(g.n):
        around = {v, *nbrs[v]}
        for u in nbrs[v]:
            around.update(nbrs[u])
        reach[v] = sorted(around)
    arcs = {}
    for ev in events:
        targets = tuple(
            (w, k)
            for w in reach[ev.vertex]
            for k in KINDS
            if (w, k) != (ev.vertex, ev.kind)
        )
        arcs[(ev.vertex, ev.kind)] = targets
        d = g.degree(ev.vertex)
        bound = 3 + 4 * d * floor_beta_mult(d)
        if len(targets) > bound:
            raise InvariantViolated(f"event ({ev.vertex}, {ev.kind}): out-degree "
                                    f"{len(targets)} exceeds the bound {bound}")
        if d >= 1:
            pd = d ** BETA_POW
            for w, _ in targets:
                if w == ev.vertex:
                    continue
                pw = g.degree(w) ** BETA_POW
                if not (pw < (pd << (2 * BETA_SHIFT)) and pd < (pw << (2 * BETA_SHIFT))):
                    raise InvariantViolated(f"arc {ev.vertex} -> {w}: degree ratio "
                                            f"{d}/{g.degree(w)} is not within beta^2")
    return DependencyDigraph(events, arcs)


class TestDependencyDigraph:
    def test_edgeless_outdegree_three(self):
        dg = build_dependency_digraph(Graph(3, []))
        assert len(dg.events) == 12
        assert all(dg.out_degree(k) == 3 for k in dg.arcs)

    def test_cycle4_outdegree(self):
        dg = build_dependency_digraph(cycle(4))
        # whole graph within two gated hops: 4*4 - 1 targets, under the
        # bound 3 + 4*2*floor(2*beta) = 99
        assert all(dg.out_degree(k) == 15 for k in dg.arcs)

    def test_star_limits_reach(self):
        g = Graph(8, [(0, i) for i in range(1, 8)])  # no gated pairs
        dg = build_dependency_digraph(g)
        assert all(dg.out_degree(k) == 3 for k in dg.arcs)


class TestExactRiskProbability:
    def test_type1_conditioned_examples(self):
        # conditioned values by the test-side enumeration; the unconditioned
        # one by the engine
        assert reference_edge_risk_probability(100, 100, 1, {"c1_v": 0}) == Fraction(1, 8)
        assert reference_edge_risk_probability(6, 7, 1, {"c1_v": 3}) == Fraction(1, 2)
        assert exact_edge_risk_probability(100, 100, 1) == Fraction(1, 8)

    def test_type_independence_product(self):
        # types 2 and 3 read disjoint-enough slots only through (c1+c2);
        # the pair bound is checked as an inequality, not an identity
        for d in (8, 12, 20, 40, 64):
            p23 = exact_edge_risk_probability(d, d, "23")
            # p23 <= 8/d^0.76, cross-multiplied exactly
            assert p23.numerator**50 * d**38 <= 8**50 * p23.denominator**50

    def test_gate_failure_rejected(self):
        with pytest.raises(ValueError):
            exact_edge_risk_probability(2, 5000, 1)  # gate fails

    def test_k2_probability_one(self):
        for rtype in (1, 2, 3, "23"):
            assert exact_edge_risk_probability(1, 1, rtype) == 1

    @given(st.integers(2, 60), st.integers(2, 60))
    @settings(max_examples=40, deadline=None)
    def test_probability_range(self, du, dv):
        if not ratio_gate(du, dv):
            return
        p = exact_edge_risk_probability(du, dv, 3)
        assert 0 <= p <= 1


_SLOT_NAMES = ("c1_u", "c2_u", "c1_v", "c2_v")


def reference_edge_risk_probability(du: int, dv: int, rtype, conditioned=None) -> Fraction:
    """Probability that an edge with endpoint degrees (du, dv) is risky of
    the given type, by enumeration over the unconditioned label slots.

    conditioned maps slot names from {"c1_u","c2_u","c1_v","c2_v"} to fixed
    values; remaining slots are uniform on their label ranges.
    """
    if not ratio_gate(du, dv):
        raise ValueError(f"degree pair ({du}, {dv}) fails the ratio gate")
    eu, ev = ceil_log_beta(du), ceil_log_beta(dv)
    lam = {"c1_u": 1 << eu, "c2_u": 1 << eu, "c1_v": 1 << ev, "c2_v": 1 << ev}
    conditioned = dict(conditioned or {})
    for name, value in conditioned.items():
        if name not in lam:
            raise ValueError(f"unknown slot {name!r}")
        if not 0 <= value < lam[name]:
            raise ValueError(f"{name}={value} outside [0, {lam[name]})")
    free = [n for n in _SLOT_NAMES if n not in conditioned]
    total = 1
    for n in free:
        total *= lam[n]
    count = 0

    def rec(i, assign):
        nonlocal count
        if i == len(free):
            count += _holds(rtype, du, dv, eu, ev,
                            assign["c1_u"], assign["c1_v"], assign["c2_u"], assign["c2_v"])
            return
        name = free[i]
        for value in range(lam[name]):
            assign[name] = value
            rec(i + 1, assign)

    rec(0, dict(conditioned))
    return Fraction(count, total)


class TestCountingMatchesEnumeration:
    # same band, mixed band in both orientations (e differing by 1), the
    # lam = 1 pair (1, 1), and e = 4 pairs
    PAIRS = [(20, 31), (60, 200), (3, 5), (5, 7), (7, 5), (30, 41), (41, 30),
             (39, 238), (238, 39), (1, 1), (238, 300)]

    def test_every_type_and_conditioning(self):
        # the engine against the enumeration unconditioned; conditioned, the
        # enumeration against the prefix tables, which the residue counts
        # are checked against at larger e below
        rng = random.Random(505)
        seen = {rtype: set() for rtype in (1, 2, 3, "23")}
        for du, dv in self.PAIRS:
            lam_u, lam_v = lambda_of(du), lambda_of(dv)
            lam = {"c1_u": lam_u, "c2_u": lam_u, "c1_v": lam_v, "c2_v": lam_v}
            for rtype in seen:
                for subset in range(16):
                    cond = {n: rng.randrange(lam[n])
                            for i, n in enumerate(_SLOT_NAMES) if subset >> i & 1}
                    want = reference_edge_risk_probability(du, dv, rtype, cond)
                    if cond:
                        got = table_edge_risk_probability(du, dv, rtype, cond)
                    else:
                        got = exact_edge_risk_probability(du, dv, rtype)
                    assert got == want, (du, dv, rtype, cond)
                    seen[rtype].add(want == 0)
        # every type meets both zero and non-zero counts
        assert all(zeros == {True, False} for zeros in seen.values()), seen

    def test_contract_errors_unchanged(self):
        for args in ((2, 5000, 1), (10, 10, 4), (10, 10, "3")):
            with pytest.raises(ValueError) as want:
                reference_edge_risk_probability(*args)
            with pytest.raises(ValueError) as got:
                exact_edge_risk_probability(*args)
            assert str(got.value) == str(want.value), args


# The prefix-table counts that exact_edge_risk_probability and
# worst_conditional_risk used before they counted by residue class, kept as
# the reference: each scheme fills a (2lu-1) x (2lv-1) table, about 4^e.

def _verdict_rows(du: int, dv: int, xs: range, ys: range, t: int):
    """For each x in xs, the verdicts over y in ys, judged as one
    risky_types batch per row: t = 0 judges labels x at u and y at v by the
    congruence that types 1 and 2 share, t = 2 judges sums c1 + c2 = x at u
    and y at v by type 3."""
    eu, ev = ceil_log_beta(du), ceil_log_beta(dv)
    terms = [risk_terms(du, eu, x, 0) for x in xs] + [risk_terms(dv, ev, y, 0) for y in ys]
    cols = range(len(xs), len(terms))
    for i in range(len(xs)):
        yield risky_types([(i, j) for j in cols], terms, min(eu, ev))[t]


@lru_cache(maxsize=1)
def _type3_rectangles(du: int, dv: int):
    """count(a, b) = the number of sum pairs in a x b risky of type 3, for
    intervals a within [0, 2lu-1) and b within [0, 2lv-1), where a sum is
    c1 + c2 at u or at v: four lookups in a 2-D prefix-sum table of the
    verdicts of all sum pairs, looked up from one verdict per residue."""
    eu, ev = ceil_log_beta(du), ceil_log_beta(dv)
    emin = min(eu, ev)
    m, pu, pv = 1 << emin, 1 << (eu - emin), 1 << (ev - emin)
    reps = [(r, 0) if eu == emin else (0, -r % m) for r in range(m)]
    terms = [t for x, y in reps for t in (risk_terms(du, eu, x, 0), risk_terms(dv, ev, y, 0))]
    by_residue = risky_types([(2 * r, 2 * r + 1) for r in range(m)], terms, emin)[2]
    ys = range((2 << ev) - 1)
    row_sums = {c: list(accumulate((by_residue[(c - y * pv) % m] for y in ys), initial=0))
                for c in range(0, m, pu)}
    rect = [[0] * (2 << ev)]
    for x in range((2 << eu) - 1):
        rect.append([p + q for p, q in zip(rect[-1], row_sums[x * pu % m])])

    def count(a: range, b: range) -> int:
        return (rect[a.stop][b.stop] - rect[a.start][b.stop]
                - rect[a.stop][b.start] + rect[a.start][b.start])
    return count


def table_edge_risk_probability(du: int, dv: int, rtype, conditioned=None) -> Fraction:
    """exact_edge_risk_probability by rows of verdicts (types 1 and 2) and
    rectangle sums over the type-3 table (types 3 and "23")."""
    eu, ev = ceil_log_beta(du), ceil_log_beta(dv)
    lam = {"c1_u": 1 << eu, "c2_u": 1 << eu, "c1_v": 1 << ev, "c2_v": 1 << ev}
    conditioned = dict(conditioned or {})
    span = {n: range(conditioned[n], conditioned[n] + 1) if n in conditioned else range(lam[n])
            for n in _SLOT_NAMES}
    c1u, c2u, c1v, c2v = (span[n] for n in _SLOT_NAMES)
    if rtype in (1, 2):
        read = ("c1_u", "c1_v") if rtype == 1 else ("c2_u", "c2_v")
        hits = sum(sum(row) for row in _verdict_rows(du, dv, span[read[0]], span[read[1]], 0))
        count = hits * math.prod(len(span[n]) for n in _SLOT_NAMES if n not in read)
    else:
        count_type3 = _type3_rectangles(du, dv)
        if rtype == 3:
            c2_pairs = product(c2u, c2v)
        else:
            c2_pairs = ((x, y) for x, row in zip(c2u, _verdict_rows(du, dv, c2u, c2v, 0))
                        for y, hit in zip(c2v, row) if hit)
        count = sum(count_type3(range(x + c1u.start, x + c1u.stop),
                                range(y + c1v.start, y + c1v.stop))
                    for x, y in c2_pairs)
    return Fraction(count, math.prod(len(r) for r in span.values()))


def table_worst_conditional_risk(du: int, dv: int, which: str) -> Fraction:
    """worst_conditional_risk by column sums of the verdict rows (types 1
    and 2) and of the type-3 table (type 3 and the joint scheme)."""
    eu, ev = ceil_log_beta(du), ceil_log_beta(dv)
    lu, lv = 1 << eu, 1 << ev
    if which in ("type1_given_c1v", "type2_given_c2v"):
        columns = zip(*_verdict_rows(du, dv, range(lu), range(lv), 0))
        return Fraction(max(map(sum, columns)), lu)
    count_type3 = _type3_rectangles(du, dv)

    def column(x, sv):
        return count_type3(range(x, x + lu), range(sv, sv + 1))

    if which == "type3_given_rest":
        return Fraction(max(column(x, sv) for x in range(lu) for sv in range(2 * lv - 1)), lu)
    best = 0
    type2 = list(_verdict_rows(du, dv, range(lu), range(lv), 0))  # [c2u][c2v]
    for c2v in range(lv):
        risky = [x for x in range(lu) if type2[x][c2v]]
        for sv in range(c2v, c2v + lv):  # sv = c1v + c2v
            best = max(best, sum(column(x, sv) for x in risky))
    return Fraction(best, lu * lu)


class TestType3Rectangles:
    # eu == ev, eu < ev and eu > ev, with e <= 4
    PAIRS = [(1, 1), (5, 5), (20, 31), (100, 100), (300, 301), (5, 7), (7, 5), (30, 41),
             (41, 30), (39, 238), (238, 39), (238, 300), (300, 238)]

    def test_counts_match_direct_sums(self):
        rng = random.Random(1905)
        shapes = set()
        for du, dv in self.PAIRS:
            assert ratio_gate(du, dv)
            eu, ev = ceil_log_beta(du), ceil_log_beta(dv)
            shapes.add((eu > ev) - (eu < ev))
            assert max(eu, ev) <= 4
            nu, nv = 2 * lambda_of(du) - 1, 2 * lambda_of(dv) - 1
            rows = list(_verdict_rows(du, dv, range(nu), range(nv), 2))
            _type3_rectangles.cache_clear()
            count = _type3_rectangles(du, dv)
            rects = [(range(nu), range(nv))]
            for _ in range(60):
                a0, a1 = sorted(rng.randint(0, nu) for _ in range(2))
                b0, b1 = sorted(rng.randint(0, nv) for _ in range(2))
                rects.append((range(a0, a1), range(b0, b1)))
            for a, b in rects:
                want = sum(rows[x][y] for x in a for y in b)
                assert count(a, b) == want, (du, dv, a, b)
        assert shapes == {-1, 0, 1}


class TestResidueCountsMatchTables:
    TYPES = (1, 2, 3, "23")

    @staticmethod
    def _gated_pairs(rng, eu, ev, k):
        """k seeded gated pairs with e(u) = eu and e(v) = ev."""
        def degree(e):
            return rng.randint(_last_degree(e - 1) + 1 if e else 1, _last_degree(e))

        pairs = []
        while len(pairs) < k:
            du, dv = degree(eu), degree(ev)
            if ratio_gate(du, dv):
                pairs.append((du, dv))
        return pairs

    def _assert_same(self, du, dv):
        for rtype in self.TYPES:
            want = table_edge_risk_probability(du, dv, rtype)
            assert exact_edge_risk_probability(du, dv, rtype) == want, (du, dv, rtype)
        for which in _SCHEMES:
            lll_engine._WORST_CACHE.clear()
            want = table_worst_conditional_risk(du, dv, which)
            assert worst_conditional_risk(du, dv, which) == want, (du, dv, which)

    def test_every_shape_up_to_e6(self):
        # a gated pair has |e(u) - e(v)| <= 1; eight pairs per shape
        rng = random.Random(2323)
        shapes = [(eu, ev) for eu in range(7) for ev in range(7) if abs(eu - ev) <= 1]
        assert len(shapes) == 19
        for eu, ev in shapes:
            for du, dv in self._gated_pairs(rng, eu, ev, 8):
                self._assert_same(du, dv)

    def test_sampled_pairs_at_e7_to_e9(self):
        rng = random.Random(2324)
        for eu, ev in ((7, 7), (7, 8), (8, 8), (9, 8), (9, 9)):
            for du, dv in self._gated_pairs(rng, eu, ev, 1):
                self._assert_same(du, dv)


class TestClosedFormsAtThePapersDegrees:
    """At d >= 10^10 every e is at least 13, so the label spaces hold 2^52
    and more assignments; the probabilities have closed forms there."""

    @staticmethod
    def _pairs():
        rng = random.Random(1010)
        pairs = [(10**10, 2 * 10**10)]
        while len(pairs) < 6:
            du, dv = (round(10 ** rng.uniform(10, 12)) for _ in range(2))
            if ratio_gate(du, dv):
                pairs.append((du, dv))
        return pairs

    def test_probabilities(self):
        for du, dv in self._pairs():
            eu, ev = ceil_log_beta(du), ceil_log_beta(dv)
            emin = min(eu, ev)
            m = 1 << emin
            # a label on the side with e = emin is uniform mod 2^emin, and so
            # is a sum of two of them: the type-3 residue of the c1 pair and
            # of the sums is uniform, and risky on the residues _holds names
            reps = [(r, 0) if eu == emin else (0, -r % m) for r in range(m)]
            risky3 = sum(_holds(3, du, dv, eu, ev, x, y, 0, 0) for x, y in reps)
            p1, p2, p3, p23 = (exact_edge_risk_probability(du, dv, t) for t in (1, 2, 3, "23"))
            assert p1 == p2 == Fraction(1, m), (du, dv)
            assert p3 == Fraction(risky3, m), (du, dv)
            # with c2 = 0 at both ends the sums are the c1 labels, so
            # risky3 / m is also the type-3 risk given c2 = 0: the joint
            # risk factorises
            assert p23 == p2 * Fraction(risky3, m) == p2 * p3, (du, dv)
            assert 1 <= risky3 <= 2

    def test_worst_schemes_decide_within_a_second(self):
        du, dv = 10**10, 2 * 10**10
        assert (ceil_log_beta(du), ceil_log_beta(dv)) == (13, 14)
        worst = {}
        for which in _SCHEMES:
            lll_engine._WORST_CACHE.clear()
            lll_engine._risky_residues.cache_clear()
            t0 = time.perf_counter()
            assert risk_bound_holds(du, dv, which)
            assert time.perf_counter() - t0 < 1.0, which
            worst[which] = worst_conditional_risk(du, dv, which)
        # e(u) = emin, so a free c1(u) meets each residue mod 2^13 once and
        # every conditioning is as risky as none
        w1, w2, w3, w23 = (worst[which] for which in _SCHEMES)
        assert w1 == w2 == exact_edge_risk_probability(du, dv, 1) == Fraction(1, 1 << 13)
        assert w3 == exact_edge_risk_probability(du, dv, 3)
        assert w23 == w2 * w3 == exact_edge_risk_probability(du, dv, "23")

class TestWorstConditional:
    @pytest.mark.parametrize(
        "du,dv,which,expected",
        [
            (100, 100, "type1_given_c1v", Fraction(1, 8)),
            (100, 100, "type3_given_rest", Fraction(1, 8)),
            (100, 100, "both23_given_c1v_c2v", Fraction(1, 64)),
            (6, 7, "type1_given_c1v", Fraction(1, 2)),
            (7, 6, "type1_given_c1v", Fraction(1, 1)),
            (39, 38, "type1_given_c1v", Fraction(1, 2)),
            (12, 12, "type1_given_c1v", Fraction(1, 4)),
        ],
    )
    def test_frozen_values(self, du, dv, which, expected):
        assert worst_conditional_risk(du, dv, which) == expected

    # (rtype, the slots each scheme conditions on): the rest stay free
    CONDITIONED = {
        "type1_given_c1v": (1, ("c1_v",)),
        "type2_given_c2v": (2, ("c2_v",)),
        "type3_given_rest": (3, ("c1_v", "c2_v", "c2_u")),
        "both23_given_c1v_c2v": ("23", ("c1_v", "c2_v")),
    }

    def test_matches_direct_enumeration(self):
        # e(u) = e(v) (q = 1), e(u) > e(v) (q > 1) and e(u) < e(v)
        pairs = ((10, 14), (14, 10), (38, 39), (39, 38), (7, 6), (12, 12))
        assert {(ceil_log_beta(du) > ceil_log_beta(dv)) - (ceil_log_beta(du) < ceil_log_beta(dv))
                for du, dv in pairs} == {-1, 0, 1}
        for du, dv in pairs:
            lam_u, lam_v = lambda_of(du), lambda_of(dv)
            lam = {"c1_u": lam_u, "c2_u": lam_u, "c1_v": lam_v, "c2_v": lam_v}
            for which, (rtype, names) in self.CONDITIONED.items():
                direct = max(
                    reference_edge_risk_probability(du, dv, rtype, dict(zip(names, values)))
                    for values in product(*(range(lam[n]) for n in names))
                )
                lll_engine._WORST_CACHE.clear()
                assert worst_conditional_risk(du, dv, which) == direct, (du, dv, which)

    def test_bounds_hold_on_gate_boundary(self):
        # (7, 6) reaches probability 1; the bound 2/6^0.38 = 1.0124 still holds
        assert worst_conditional_risk(7, 6, "type1_given_c1v") == 1
        assert risk_bound_holds(7, 6, "type1_given_c1v")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            worst_conditional_risk(10, 10, "type9")
        with pytest.raises(ValueError, match=r"degree pair \(7, 1\) fails the ratio gate"):
            worst_conditional_risk(7, 1, "type1_given_c1v")


# verbatim copies of the loop-based worst_conditional_risk and its window
# table, with their own cache, as the reference for the rectangle-sum version
_REFERENCE_CACHE = {}


def _reference_window_count_table(eu, ev, emin):
    """cnt[r] = number of c1(u) values with (r - 3*2^eu*c1u) mod k inside
    the symmetric window; shared by the type-3 and joint enumerations."""
    k = 3 << (2 * emin)
    b = 3 << emin
    lu = 1 << eu
    step = (3 << eu) % k
    cnt = [0] * k
    for r in range(k):
        x = r
        c = 0
        for _ in range(lu):
            rr = x % k
            if rr < b or rr > k - b:
                c += 1
            x -= step
        cnt[r] = c
    return cnt


def reference_worst_conditional_risk(du: int, dv: int, which: str) -> Fraction:
    """Max over conditioned labels of the conditional risk probability.

    which selects the conditioning scheme:
      "type1_given_c1v"     max over c1(v) of P(type 1 | c1(v)), free c1(u)
      "type2_given_c2v"     same with c2
      "type3_given_rest"    max over (c1v, c2v, c2u), free c1(u)
      "both23_given_c1v_c2v" max over (c1v, c2v), free (c1u, c2u)
    """
    if not ratio_gate(du, dv):
        raise ValueError(f"degree pair ({du}, {dv}) fails the ratio gate")
    eu, ev = ceil_log_beta(du), ceil_log_beta(dv)
    emin = min(eu, ev)
    k = 3 << (2 * emin)
    if which in ("type1_given_c1v", "type2_given_c2v"):
        key = (which, eu, ev)
    elif which in ("type3_given_rest", "both23_given_c1v_c2v"):
        key = (which, eu, ev, (du - dv) % k)
    else:
        raise ValueError(f"unknown scheme {which!r}")
    hit = _REFERENCE_CACHE.get(key)
    if hit is not None:
        return hit

    lu, lv = 1 << eu, 1 << ev
    if which in ("type1_given_c1v", "type2_given_c2v"):
        mod = 1 << (2 * emin)
        best = 0
        for cv in range(lv):
            c = sum(1 for cu in range(lu) if ((cu << eu) - (cv << ev)) % mod == 0)
            best = max(best, c)
        worst = Fraction(best, lu)
    else:
        delta = (du - dv) % k
        cnt = _reference_window_count_table(eu, ev, emin)
        if which == "type3_given_rest":
            best = 0
            for s in range(2 * lv - 1):  # s = c1v + c2v
                for c2u in range(lu):
                    r = (delta + 3 * (s << ev) - 3 * (c2u << eu)) % k
                    best = max(best, cnt[r])
            worst = Fraction(best, lu)
        else:
            mod2 = 1 << (2 * emin)
            best = 0
            for c1v in range(lv):
                for c2v in range(lv):
                    tot = 0
                    for c2u in range(lu):
                        if ((c2u << eu) - (c2v << ev)) % mod2 != 0:
                            continue
                        r = (delta + 3 * ((c1v + c2v) << ev) - 3 * (c2u << eu)) % k
                        tot += cnt[r]
                    best = max(best, tot)
            worst = Fraction(best, lu * lu)
    _REFERENCE_CACHE[key] = worst
    return worst


_SCHEMES = ("type1_given_c1v", "type2_given_c2v", "type3_given_rest", "both23_given_c1v_c2v")


def _last_degree(e: int) -> int:
    """The largest d with ceil_log_beta(d) == e, i.e. with d^19 <= 2^(50e)."""
    return iroot(1 << (50 * e), 19)


class TestWorstConditionalMatchesLoops:
    def _assert_same(self, du, dv):
        for which in _SCHEMES:
            lll_engine._WORST_CACHE.clear()
            _REFERENCE_CACHE.clear()
            want = reference_worst_conditional_risk(du, dv, which)
            assert worst_conditional_risk(du, dv, which) == want, (du, dv, which)

    def test_every_small_band_pair_and_residue(self):
        # one degree pair per (e(u), e(v), (du - dv) mod 3*4^emin), e <= 3
        reps = {}
        for du in range(1, _last_degree(3) + 1):
            for dv in range(1, _last_degree(3) + 1):
                if ratio_gate(du, dv):
                    eu, ev = ceil_log_beta(du), ceil_log_beta(dv)
                    reps.setdefault((eu, ev, (du - dv) % (3 << 2 * min(eu, ev))), (du, dv))
        assert {key[:2] for key in reps} == {(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1),
                                             (2, 2), (2, 3), (3, 2), (3, 3)}
        assert len({key for key in reps if key[:2] == (3, 3)}) == 3 << 6
        for du, dv in reps.values():
            self._assert_same(du, dv)

    def test_seeded_pairs_in_bands_4_and_5(self):
        # each degree from a band drawn uniformly, so that the mixed bands
        # are not outnumbered by the wider band 5
        rng = random.Random(808)

        def degree():
            e = rng.choice((4, 5))
            return rng.randint(_last_degree(e - 1) + 1, _last_degree(e))

        pairs = []
        while len(pairs) < 200:
            du, dv = degree(), degree()
            if ratio_gate(du, dv):
                pairs.append((du, dv))
        assert {(ceil_log_beta(du), ceil_log_beta(dv)) for du, dv in pairs} \
            == {(4, 4), (4, 5), (5, 4), (5, 5)}
        for du, dv in pairs:
            self._assert_same(du, dv)


def chernoff_bound(n: int, p, t) -> float:
    """The tail bound 2*exp(-t^2/(3np)) for Pr(|BIN(n,p) - np| > t)."""
    np_ = n * p
    if not 0 <= t <= np_:
        raise ValueError(f"need 0 <= t <= n*p, got t={t}, n*p={np_}")
    return 2.0 * math.exp(-float(t) * float(t) / (3.0 * float(np_)))


def exact_binomial_tail(n: int, p: Fraction, t) -> Fraction:
    """Pr(|BIN(n,p) - np| > t) by direct enumeration; intended for n <= 25."""
    if n > 25:
        raise ValueError("exact tail enumeration is capped at n = 25")
    p = Fraction(p)
    q = 1 - p
    np_ = n * p
    total = Fraction(0)
    for i in range(n + 1):
        if abs(i - np_) > t:
            total += math.comb(n, i) * p ** i * q ** (n - i)
    return total


class TestTailBounds:
    def test_chernoff_preconditions(self):
        with pytest.raises(ValueError):
            chernoff_bound(10, Fraction(1, 2), -1)
        with pytest.raises(ValueError):
            chernoff_bound(10, Fraction(1, 2), 6)  # t > np

    def test_exact_tail_matches_brute_force(self):
        import itertools
        from math import comb

        n, p, t = 10, Fraction(1, 3), 2
        mean = n * p
        brute = sum(
            Fraction(comb(n, k)) * p**k * (1 - p) ** (n - k)
            for k in range(n + 1)
            if abs(k - mean) >= t
        )
        assert exact_binomial_tail(n, p, t) == brute

    def test_exact_below_chernoff(self):
        for n in (6, 12, 20):
            for num in (1, 2):
                p = Fraction(num, 4)
                for t in (1, 2, int(n * p)):
                    if not 0 <= t <= n * p:
                        continue
                    assert float(exact_binomial_tail(n, p, t)) <= chernoff_bound(n, p, t) + 1e-12

    def test_size_cap(self):
        with pytest.raises(ValueError):
            exact_binomial_tail(26, Fraction(1, 2), 1)


class TestAudit:
    def test_all_eleven_claims_pass_quickly(self):
        t0 = time.perf_counter()
        claims = audit_constants()
        elapsed = time.perf_counter() - t0
        assert len(claims) == 11
        assert all(c["pass"] for c in claims), [c["claim_id"] for c in claims if not c["pass"]]
        assert elapsed < 1.0

    def test_claim_ids_are_stable(self):
        ids = [c["claim_id"] for c in audit_constants()]
        assert ids == [
            "beta_interval",
            "chain_exp_threshold",
            "f10_positive",
            "f_derivative_root",
            "deg_margin_threshold_16",
            "deg_margin_threshold_219",
            "f_margin_threshold_24",
            "window_upper_threshold_44",
            "window_lower_threshold_2664",
            "part_ratio_gap",
            "lll_chain_at_1e10",
        ]

    def test_records_have_computed_and_printed(self):
        for c in audit_constants():
            assert c["formula"] and c["computed"] is not None
            assert "printed" in c

    def test_precision_is_scoped_and_records_frozen(self):
        with mpmath.workdps(20):  # a precision the audit does not use
            claims = audit_constants()
            assert mpmath.mp.dps == 20
        blob = json.dumps(claims, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == \
            "1c63d43865cb7bae4bef57834a9aec4a63088cd8ff9b2a879bdce9534f3543b4"
