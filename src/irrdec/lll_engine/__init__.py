"""Bad events over risky neighbourhoods (violated_events is the one check of
their size bounds), a Moser-Tardos resampler that keeps the same verdicts
incrementally, exact risk probabilities, and the numeric audit of every
closed-form constant the machinery relies on.

Every verdict comes from labeling.risky_types, which judges a batch of
pairs of risk_terms in one call; costs below count the pairs judged.  The
resampler keeps one terms list, refreshes it at the resampled vertices
only and re-judges their gated edges as one batch per round.

An edge's risk probability is a count of label assignments, taken over
only the coordinates each type reads, against the lam(u)^2 * lam(v)^2
assignments of the full label space.  Types 1 and 2 read (ci(u), ci(v)):
lam(u)*lam(v) pairs judged.  Type 3 reads the sums c1 + c2 at both
endpoints, and those only through a residue mod 2^emin, emin = min(e(u),
e(v)): 2^emin pairs judged.  Every type-3 and joint "23" count is a
rectangle sum over one prefix-sum table of the type-3 verdicts of all sum
pairs, looked up from those 2^emin verdicts, built once per degree pair and
shared by the exact and the worst conditional probabilities.  The worst
conditional risks of types 1 and 2 are maxima of conditioned
probabilities.  So every scheme costs about 4^e steps for e = max(e(u),
e(v)), counting table entries and lookups with the pairs judged.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, compress, product

from ..exact import floor_beta_mult, iroot
from ..graph_core import Graph
from ..labeling import (
    LabelPair,
    ceil_log_beta,
    classify,
    classify_terms,
    draw_label,
    draw_labels,
    exponents,
    gate,
    risk_terms,
    risky_neighbours,
    risky_types,
    size_limits,
    violated_kinds,
)


@dataclass(frozen=True)
class BadEvent:
    """One oversized-neighbourhood event at a vertex.

    kind A, B, C or F watches |A(v)|, |B(v)|, |C(v)| or |F(v)| (see
    labeling.risky_neighbours).  scope is the exact set of label slots the
    event reads: (w, 1) for c1 and (w, 2) for c2, over v and its gated
    neighbours.
    """

    vertex: int
    kind: str
    scope: frozenset


def gated_neighbours(g: Graph, v: int) -> list:
    """The neighbours u of v that pass the ratio gate, ascending."""
    dv = g.degree(v)
    return [u for u in sorted(g.neighbours(v)) if gate(g.degree(u), dv)]


_KIND_SLOTS = {"A": (1,), "B": (2,), "C": (1, 2), "F": (1, 2)}  # the labels each kind reads


def event_scope(v: int, kind: str, nbrs: list) -> frozenset:
    """The label slots that event (v, kind) reads, where nbrs is
    gated_neighbours(g, v)."""
    if kind not in _KIND_SLOTS:
        raise ValueError(f"unknown event kind {kind!r}")
    return frozenset((w, s) for w in [v, *nbrs] for s in _KIND_SLOTS[kind])


def make_event(v: int, kind: str, nbrs: list) -> BadEvent:
    return BadEvent(v, kind, event_scope(v, kind, nbrs))


def violated_events(g: Graph, labels: LabelPair, slack) -> list:
    """Events whose size bound (scaled by slack) fails, in (vertex, kind)
    order: the one check of the neighbourhood-size bounds.  Classifies from
    scratch; moser_tardos keeps the same verdicts incrementally and is
    tested against this function."""
    risky = risky_neighbours(g.n, classify(g, labels, exponents(g)))
    limits = size_limits(g, slack)
    events = []
    for v in range(g.n):
        kinds = violated_kinds(limits[v], *risky[v])
        if kinds:
            nbrs = gated_neighbours(g, v)
            events.extend(make_event(v, kind, nbrs) for kind in kinds)
    return events


@dataclass
class Timeout:
    """Resampling gave up; carries the rounds spent and the picked events."""

    rounds: int
    trajectory: list


def moser_tardos(g: Graph, es: list, seed, slack, max_rounds: int, observer=None):
    """Resample until no event is violated, or Timeout after max_rounds.

    es = exponents(g) holds for the whole call: resampling redraws labels
    only.  One PRNG stream drives everything: the initial labels are drawn
    exactly as sample_labels draws them, then each round resamples the scope
    slots of the lexicographically least violated event, in sorted slot
    order.  observer, when given, is called as observer(round_no, event,
    before, after) with label snapshots around each resampling.

    The resampler classifies from its own terms list (classify_terms), and
    later rounds update those risky_neighbours sets in place: a round
    refreshes the terms of the scope vertices, whose labels alone change,
    re-judges just their gated edges in one risky_types call and rechecks
    the events of the endpoints whose sets changed.  Each vertex's gated
    neighbours are listed once per call, for its event scopes and its edges.
    At slack inf no event has a bound: the draw is returned unclassified.
    """
    limits = size_limits(g, slack)
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    rng = random.Random(seed)
    labels = draw_labels(es, rng)
    if slack == math.inf:
        return labels
    c1, c2 = labels.c1, labels.c2
    deg = g.degrees()
    terms = list(map(risk_terms, deg, es, c1, c2))
    risky = risky_neighbours(g.n, classify_terms(g, deg, terms, es))
    bad = {}  # vertex -> its violated kinds, for every vertex that has any

    def recheck(vertices):
        for x in vertices:
            kinds = violated_kinds(limits[x], *risky[x])
            if kinds:
                bad[x] = kinds
            else:
                bad.pop(x, None)

    gated = {}  # vertex -> gated_neighbours, built on first use

    def gated_of(w):
        nbrs = gated.get(w)
        if nbrs is None:
            nbrs = gated[w] = gated_neighbours(g, w)
        return nbrs

    recheck(range(g.n))
    trajectory = []
    for round_no in range(max_rounds):
        if not bad:
            return labels
        v = min(bad)
        ev = make_event(v, bad[v][0], gated_of(v))
        trajectory.append((ev.vertex, ev.kind))
        before = LabelPair(list(c1), list(c2)) if observer else None
        for w, slot in sorted(ev.scope):
            (c1 if slot == 1 else c2)[w] = draw_label(rng, es[w])
        if observer:
            observer(round_no, ev, before, LabelPair(list(c1), list(c2)))

        scope_verts = {w for w, _ in ev.scope}
        pairs = []
        for w in scope_verts:
            terms[w] = risk_terms(deg[w], es[w], c1[w], c2[w])
            for x in gated_of(w):
                if x not in scope_verts:
                    pairs.append((w, x) if w < x else (x, w))
                elif w < x:  # an edge inside the scope is judged once
                    pairs.append((w, x))
        changed = set()
        for t, verdicts in enumerate(risky_types(pairs, terms, es)):
            now = set(compress(pairs, verdicts))
            was = {(lo, hi) for lo, hi in pairs if hi in risky[lo][t]}
            for lo, hi in was - now:
                risky[lo][t].discard(hi)
                risky[hi][t].discard(lo)
            for lo, hi in now - was:
                risky[lo][t].add(hi)
                risky[hi][t].add(lo)
            changed.update(chain.from_iterable(now ^ was))
        recheck(changed)
    return Timeout(rounds=max_rounds, trajectory=trajectory)


# ---------------------------------------------------------------------------
# exact probabilities for a single gated edge

_SLOT_NAMES = ("c1_u", "c2_u", "c1_v", "c2_v")


def _verdict_rows(du: int, dv: int, xs: range, ys: range, t: int):
    """For each x in xs, the verdicts over y in ys, judged as one
    risky_types batch per row: t = 0 judges labels x at u and y at v by the
    congruence that types 1 and 2 share, t = 2 judges sums c1 + c2 = x at u
    and y at v by type 3."""
    eu, ev = ceil_log_beta(du), ceil_log_beta(dv)
    terms = [risk_terms(du, eu, x, 0) for x in xs] + [risk_terms(dv, ev, y, 0) for y in ys]
    es = [eu] * len(xs) + [ev] * len(ys)
    cols = range(len(xs), len(terms))
    for i in range(len(xs)):
        yield risky_types([(i, j) for j in cols], terms, es)[t]


@lru_cache(maxsize=1)  # riskprob's two probabilities share one table
def _type3_rectangles(du: int, dv: int):
    """count(a, b) = the number of sum pairs in a x b risky of type 3, for
    intervals a within [0, 2lu-1) and b within [0, 2lv-1), where a sum is
    c1 + c2 at u or at v.  Each count is four lookups in a 2-D prefix-sum
    table of the verdicts of all sum pairs.

    The verdict of sums (x, y) reads them only through the residue r =
    (x*2^(eu-emin) - y*2^(ev-emin)) mod 2^emin: the third terms differ by
    du - dv - 3*2^emin times that difference, and type 3's modulus is
    3*4^emin.  So 2^emin pairs are judged, one per residue in one batch,
    and the table's rows are looked up from their verdicts."""
    eu, ev = ceil_log_beta(du), ceil_log_beta(dv)
    emin = min(eu, ev)
    m, pu, pv = 1 << emin, 1 << (eu - emin), 1 << (ev - emin)
    # a pair of residue r: x = r when pu = 1, else y = -r mod m, as pv = 1
    reps = [(r, 0) if eu == emin else (0, -r % m) for r in range(m)]
    terms = [t for x, y in reps for t in (risk_terms(du, eu, x, 0), risk_terms(dv, ev, y, 0))]
    by_residue = risky_types([(2 * r, 2 * r + 1) for r in range(m)], terms, [eu, ev] * m)[2]
    # the verdicts of sum x at u read x only through c = x*pu mod m, a
    # multiple of pu: one row of prefix sums over the sums at v per such c
    ys = range((2 << ev) - 1)
    row_sums = {c: list(accumulate((by_residue[(c - y * pv) % m] for y in ys), initial=0))
                for c in range(0, m, pu)}
    # rect[i][j] = risky pairs among the sums su < i and sv < j
    rect = [[0] * (2 << ev)]
    for x in range((2 << eu) - 1):
        rect.append([p + q for p, q in zip(rect[-1], row_sums[x * pu % m])])

    def count(a: range, b: range) -> int:
        return (rect[a.stop][b.stop] - rect[a.start][b.stop]
                - rect[a.stop][b.start] + rect[a.start][b.start])
    return count


def exact_edge_risk_probability(du: int, dv: int, rtype, conditioned=None) -> Fraction:
    """Probability that an edge with endpoint degrees (du, dv) is risky of
    the given type, counted exactly over the unconditioned label slots.

    conditioned maps slot names from {"c1_u","c2_u","c1_v","c2_v"} to fixed
    values; remaining slots are uniform on their label ranges.

    Each type is counted over the coordinates it reads, with every verdict
    taken from labeling.risky_types.  With lu, lv the label moduli, the
    cost is at most:
      1, 2  lu*lv pairs judged, one batch per row: every ci(u) x ci(v),
            times the range of each free slot the type does not read.
      3     min(lu, lv) pairs judged in one batch, one per residue class of
            the sums s = c1 + c2 of the two endpoints, looked up into a
            (2lu-1) x (2lv-1) prefix-sum table that worst_conditional_risk
            shares; then for each c2(u) x c2(v) pair a rectangle sum over
            the c1 pairs: lu*lv lookups.
      "23"  min(lu, lv) + lu*lv pairs judged: the same table and rectangle
            sums, over only the c2 pairs risky of type 2.
    """
    if not gate(du, dv):
        raise ValueError(f"degree pair ({du}, {dv}) fails the ratio gate")
    eu, ev = ceil_log_beta(du), ceil_log_beta(dv)
    lam = {"c1_u": 1 << eu, "c2_u": 1 << eu, "c1_v": 1 << ev, "c2_v": 1 << ev}
    conditioned = dict(conditioned or {})
    for name, value in conditioned.items():
        if name not in lam:
            raise ValueError(f"unknown slot {name!r}")
        if not 0 <= value < lam[name]:
            raise ValueError(f"{name}={value} outside [0, {lam[name]})")
    # the values each slot ranges over: its fixed value, or all of [0, lam)
    span = {n: range(conditioned[n], conditioned[n] + 1) if n in conditioned else range(lam[n])
            for n in _SLOT_NAMES}
    c1u, c2u, c1v, c2v = (span[n] for n in _SLOT_NAMES)

    if rtype in (1, 2):
        read = ("c1_u", "c1_v") if rtype == 1 else ("c2_u", "c2_v")
        hits = sum(sum(row) for row in _verdict_rows(du, dv, span[read[0]], span[read[1]], 0))
        count = hits * math.prod(len(span[n]) for n in _SLOT_NAMES if n not in read)
    elif rtype in (3, "23"):
        # the c1 pairs put the sums of a c2 pair (x, y) in (x + c1u) x (y + c1v);
        # type "23" keeps only the c2 pairs risky of type 2
        count_type3 = _type3_rectangles(du, dv)
        if rtype == 3:
            c2_pairs = product(c2u, c2v)
        else:
            c2_pairs = ((x, y) for x, row in zip(c2u, _verdict_rows(du, dv, c2u, c2v, 0))
                        for y, hit in zip(c2v, row) if hit)
        count = sum(count_type3(range(x + c1u.start, x + c1u.stop),
                                range(y + c1v.start, y + c1v.stop))
                    for x, y in c2_pairs)
    else:
        raise ValueError(f"risk type must be 1, 2, 3 or '23', got {rtype!r}")
    return Fraction(count, math.prod(len(r) for r in span.values()))


# worst-case conditional probabilities; results depend on the degrees only
# through (e(u), e(v)) and, for type 3, the degree difference mod the modulus
_WORST_CACHE = {}


def worst_conditional_risk(du: int, dv: int, which: str) -> Fraction:
    """Max over conditioned labels of the conditional risk probability.

    which selects the conditioning scheme:
      "type1_given_c1v"     max over c1(v) of P(type 1 | c1(v)), free c1(u)
      "type2_given_c2v"     same with c2
      "type3_given_rest"    max over (c1v, c2v, c2u), free c1(u)
      "both23_given_c1v_c2v" max over (c1v, c2v), free (c1u, c2u)

    Types 1 and 2 take the largest conditioned probability, a column sum
    of one table of lu*lv pairs judged.  Type 3 and the joint
    scheme read the type-3 table of exact_edge_risk_probability, built once
    per degree pair from min(lu, lv) pairs judged; each conditioning
    then reads the column of its sum at v over the lu sums that a free
    c1(u) gives at u.  Type 3 takes the largest such column sum over
    (2lv-1)*lu of them, judging no further pair; the joint scheme adds,
    for each (c1v, c2v), the column sums of the c2(u) values risky of
    type 2 against c2(v), from lu*lv more pairs judged.
    """
    if not gate(du, dv):
        raise ValueError(f"degree pair ({du}, {dv}) fails the ratio gate")
    eu, ev = ceil_log_beta(du), ceil_log_beta(dv)
    k = 3 << (2 * min(eu, ev))
    if which in ("type1_given_c1v", "type2_given_c2v"):
        key = (which, eu, ev)
    elif which in ("type3_given_rest", "both23_given_c1v_c2v"):
        key = (which, eu, ev, (du - dv) % k)
    else:
        raise ValueError(f"unknown scheme {which!r}")
    hit = _WORST_CACHE.get(key)
    if hit is not None:
        return hit

    lu, lv = 1 << eu, 1 << ev
    if which in ("type1_given_c1v", "type2_given_c2v"):
        # given ci(v) = y, the risk is the share of ci(u) values risky against
        # y: a column of the table of the congruence both types share
        columns = zip(*_verdict_rows(du, dv, range(lu), range(lv), 0))
        worst = Fraction(max(map(sum, columns)), lu)
    else:
        # c1(u) is free in both schemes, so given c2(u) = x the sum at u
        # ranges over [x, x + lu); (c1v, c2v) enters type 3 only as sv
        count_type3 = _type3_rectangles(du, dv)

        def column(x, sv):
            return count_type3(range(x, x + lu), range(sv, sv + 1))

        if which == "type3_given_rest":
            worst = Fraction(max(column(x, sv) for x in range(lu) for sv in range(2 * lv - 1)), lu)
        else:
            best = 0
            type2 = list(_verdict_rows(du, dv, range(lu), range(lv), 0))  # [c2u][c2v]
            for c2v in range(lv):
                risky = [x for x in range(lu) if type2[x][c2v]]
                for sv in range(c2v, c2v + lv):  # sv = c1v + c2v
                    best = max(best, sum(column(x, sv) for x in risky))
            worst = Fraction(best, lu * lu)
    _WORST_CACHE[key] = worst
    return worst


RISK_BOUNDS = {  # scheme -> (coeff, num): worst conditional risk <= coeff/dv^(num/50)
    "type1_given_c1v": (2, 19),
    "type2_given_c2v": (2, 19),
    "type3_given_rest": (4, 19),
    "both23_given_c1v_c2v": (8, 38),
}


def risk_bound_holds(du: int, dv: int, which: str) -> bool:
    """Exact check of the RISK_BOUNDS entry for one degree pair: p <=
    coeff/dv^(num/50) is decided as p^50 * dv^num <= coeff^50 in integers."""
    coeff, num = RISK_BOUNDS[which]
    p = worst_conditional_risk(du, dv, which)
    return p.numerator ** 50 * dv ** num <= coeff ** 50 * p.denominator ** 50


# ---------------------------------------------------------------------------
# constants audit

# claim id -> the figure the paper prints, in the order of the audit's records
AUDIT_PRINTED = {
    "beta_interval": "6.19 < beta < 6.2",
    "chain_exp_threshold": 221460,
    "f10_positive": 14,
    "f_derivative_root": 3617959,
    "deg_margin_threshold_16": 398893555,
    "deg_margin_threshold_219": 5647425084,
    "f_margin_threshold_24": 7221904256,
    "window_upper_threshold_44": 21129,
    "window_lower_threshold_2664": 1034102857,
    "part_ratio_gap": "2/3 / (4/37) < 6.17 < beta",
    "lll_chain_at_1e10": "weight chain dominates event bounds at d=1e10",
}


def _claim(claim_id, formula, computed, ok) -> dict:
    """One claim record; the printed figure comes from AUDIT_PRINTED."""
    return {"claim_id": claim_id, "formula": formula, "computed": computed,
            "printed": AUDIT_PRINTED[claim_id], "pass": bool(ok)}


def audit_constants() -> list:
    """Recompute every printed constant and inequality; list of claim records.
    Works at 60 digits and leaves mpmath's working precision as it was."""
    import mpmath

    with mpmath.workdps(60):
        return _audit_claims(mpmath)


def _audit_claims(mp) -> list:
    beta = mp.power(2, mp.mpf(50) / 19)
    # One row per threshold root: (claim_id, formula, base, x, n, k).  The
    # root base^(1/x) is taken as the paper prints it, and iroot(n, k) is
    # its exact floor from the integer form of the same root: d <= root iff
    # d^k <= n.  The two sides are written independently, so the claim
    # checks that they agree.
    thresholds = [
        ("chain_exp_threshold", "(3*25*beta^6)^(1/1.24)", 75 * mp.power(beta, 6), "1.24",
         (75 ** 475) << 7500, 589),  # d^589 <= 75^475 * 2^7500
        ("f_derivative_root", "(3/0.08)^(1/0.24)", mp.mpf(3) / mp.mpf("0.08"), "0.24",
         75 ** 25 >> 25, 6),  # (75/2)^(25/6): d^6 * 2^25 <= 75^25
        ("deg_margin_threshold_16", "16^(1/0.14)", 16, "0.14", 1 << 200, 7),
        ("deg_margin_threshold_219", "(3*73)^(1/0.24)", 219, "0.24", 219 ** 25, 6),
        ("f_margin_threshold_24", "24^(1/0.14)", 24, "0.14", 24 ** 50, 7),
        ("window_upper_threshold_44", "44^(1/0.38)", 44, "0.38", 44 ** 50, 19),
        ("window_lower_threshold_2664", "(8*333)^(1/0.38)", 2664, "0.38", 2664 ** 50, 19),
    ]
    out = []
    for claim_id, formula, base, x, n, k in thresholds:
        # passes when the printed figure is the root rounded to an integer
        # and the exact floor brackets the root
        root = float(mp.power(base, mp.mpf(1) / mp.mpf(x)))
        floor = iroot(n, k)
        printed = AUDIT_PRINTED[claim_id]
        ok = round(root) == printed and floor in (printed - 1, printed) and abs(root - floor) < 1
        out.append(_claim(claim_id, formula, f"{root:.4f} (exact floor {floor})", ok))

    ok = 619 ** 19 < 2 ** 50 * 100 ** 19 and 2 ** 50 * 10 ** 19 < 62 ** 19 * 10 ** 19
    out.append(_claim("beta_interval", "beta = 2^(50/19)", mp.nstr(beta, 12),
                      ok and mp.mpf("6.19") < beta < mp.mpf("6.2")))

    # f(d) = d^0.24/3 - ln(2d^3) at d = 1e10
    dd = 10 ** 10
    d = mp.mpf(dd)
    f10 = mp.power(d, mp.mpf("0.24")) / 3 - mp.log(2 * d ** 3)
    out.append(_claim("f10_positive", "d^0.24/3 - ln(2*d^3) at d=1e10", mp.nstr(f10, 8),
                      abs(f10 - 14) <= mp.mpf("0.5")))

    # (2/3) / (4/37) = 37/6 < 6.17 < beta, all exact
    out.append(_claim(
        "part_ratio_gap", "(2/3)/(4/37) = 37/6 vs 6.17 vs beta", f"37/6 = {37 / 6:.6f}",
        37 * 100 < 617 * 6 and 617 ** 19 < (2 ** 50) * (100 ** 19)))

    # the feasibility chain at d = 1e10: weight * (1-weight)^(out-degree+1)
    # must dominate both event probability bounds
    exponent = 4 + 4 * dd * floor_beta_mult(dd)
    exact_pre = (
        exponent <= 25 * dd ** 2
        # 75 * beta^6 <= d^1.24  <=>  75^475 * 2^7500 <= d^589
        and (75 ** 475) << 7500 <= dd ** 589
        # 2*e^(-4d^0.62/3) <= 2*e^(-2d^0.24/3)  <=>  2*d^0.62 >= d^0.24
        and 2 ** 50 * dd ** 31 >= dd ** 12
    )
    weight = 1 / (1 + d ** 3)
    chain_value = weight * mp.power(1 - weight, exponent)
    lower = (1 / d ** 3) * mp.exp(-25 * mp.power(beta, 6) / dd)
    target = 2 * mp.exp(-2 * mp.power(d, mp.mpf("0.24")) / 3)
    abc_bound = 2 * mp.exp(-4 * mp.power(d, mp.mpf("0.62")) / 3)
    out.append(_claim(
        "lll_chain_at_1e10",
        "x*(1-x)^(4+4d*floor(beta*d)) >= (1/d^3)*exp(-25*beta^6/d)"
        " >= 2*exp(-2d^0.24/3) >= 2*exp(-4d^0.62/3) at d=1e10",
        f"{mp.nstr(chain_value, 6)} >= {mp.nstr(lower, 6)}"
        f" >= {mp.nstr(target, 6)} >= {mp.nstr(abc_bound, 6)}",
        exact_pre and f10 > 0 and chain_value > lower > target > abc_bound))
    by_id = {c["claim_id"]: c for c in out}
    return [by_id[claim_id] for claim_id in AUDIT_PRINTED]
