"""Bad events over risky neighbourhoods, a Moser-Tardos resampler, exact
risk probabilities, and the numeric audit of every closed-form constant the
machinery relies on.

Every verdict comes from labeling.risky_types, which judges a batch of
pairs of risk_terms that share one emin in one call, and every size bound
from labeling.violated_kinds.  violated_events classifies from scratch;
the resampler keeps risky edge sets and per-vertex counts, no per-vertex
containers, and hands the kept sets over with the labels it returns.  A
round costs about the edges it re-judges: those at the resampled vertices
whose labels changed.

An edge's risk probability, over the lam(u)^2 * lam(v)^2 assignments of
the full label space, is a share of risky residues.  Every verdict reads
its pair, the labels ci for types 1 and 2 and the sums c1 + c2 for type 3,
only through a residue mod m = 2^emin, emin = min(e(u), e(v)): one batch
of 2^emin pairs judged gives every risky residue.  That residue is uniform
mod m, and the values held at v fix it mod q = min(2^(e(u) - emin), m)
when c1(u) is free, so each probability and each worst conditional risk
costs the batch plus O(|risky|) steps.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress

from ..exact import floor_beta_mult, iroot
from ..graph_core import Graph
from ..labeling import (
    LabelPair,
    RiskyClassification,
    ceil_log_beta,
    classify,
    classify_terms,
    draw_label_batch,
    draw_labels,
    emin_batches,
    gate,
    risk_terms,
    risky_neighbours,
    risky_types,
    shared_exponent,
    size_limits,
    violated_kinds,
)


@dataclass(frozen=True)
class BadEvent:
    """One oversized-neighbourhood event at a vertex.

    kind A, B, C or F watches |A(v)|, |B(v)|, |C(v)| or |F(v)| (see
    labeling.violated_kinds).  scope is the exact set of label slots the
    event reads: (w, 1) for c1 and (w, 2) for c2, over v and its gated
    neighbours.
    """

    vertex: int
    kind: str
    scope: frozenset


def gated_neighbours(g: Graph, v: int, deg: list) -> list:
    """The neighbours u of v that pass the ratio gate, ascending, with deg
    the degree list the caller holds."""
    dv = deg[v]
    return [u for u in sorted(g.neighbours(v)) if gate(deg[u], dv)]


_KIND_SLOTS = {"A": (1,), "B": (2,), "C": (1, 2), "F": (1, 2)}  # the labels each kind reads


def event_scope(v: int, kind: str, nbrs: list) -> frozenset:
    """The label slots that event (v, kind) reads, where nbrs is
    gated_neighbours(g, v, deg)."""
    if kind not in _KIND_SLOTS:
        raise ValueError(f"unknown event kind {kind!r}")
    return frozenset((w, s) for w in [v, *nbrs] for s in _KIND_SLOTS[kind])


def make_event(v: int, kind: str, nbrs: list) -> BadEvent:
    return BadEvent(v, kind, event_scope(v, kind, nbrs))


def violated_events(g: Graph, es: list, labels: LabelPair, slack) -> list:
    """Events whose size bound (scaled by slack) fails, in (vertex, kind)
    order, with es the exponent vector classify reads.  Classifies from
    scratch and sizes risky_neighbours' sets; moser_tardos keeps the same
    sizes as counts and is tested against this function."""
    risky = risky_neighbours(g.n, classify(g, labels, es))
    limits = size_limits(g, slack)
    deg = g.degrees()
    events = []
    for v in range(g.n):
        a, b, c = risky[v]
        kinds = violated_kinds(limits[v], (len(a), len(b), len(c), len(b & c)))
        if kinds:
            nbrs = gated_neighbours(g, v, deg)
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
    only.  One PRNG stream drives everything: draw_labels draws the initial
    labels from random.Random(seed), then each round resamples the scope
    slots of the lexicographically least violated event, in sorted slot
    order.  observer, when given, is called as observer(round_no, event,
    before, after) with label snapshots around each resampling.

    The state is the risky edge sets r1, r2, r3 of classify_terms, kept
    mutable, and four per-vertex counts |A|, |B|, |C| and |F|, where an
    edge counts in F when it is risky of types 2 and 3; violated_kinds reads
    the counts.  A round refreshes the terms of the scope vertices, whose
    labels alone change.  A redraw may return a vertex's old labels; only
    the vertices whose terms differ have their gated edges re-judged, each
    once in canonical orientation, in one risky_types call per emin batch
    (one in all when the vertices with edges share their exponent, which
    the call learns once).  An edge's verdicts read only its endpoints'
    terms and es, so the edges skipped cannot change.  Only an edge whose
    verdicts changed touches the sets and counts, and the events of its
    endpoints are rechecked.  Each vertex's gated neighbours are listed once
    per call, for its event scopes and its edges.

    Returns a Timeout, or the labels with the kept sets, not copied, as
    their classification.  At slack inf no event has a bound: the draw is
    returned unclassified, its classification None.
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
    shared = shared_exponent(deg, es)
    cls = classify_terms(g, deg, terms, es)
    r1, r2, r3 = set(cls.r1), set(cls.r2), set(cls.r3)
    na, nb, nc, nf = counts = [[0] * g.n for _ in range(4)]
    for size, edges in zip(counts, (r1, r2, r3, r2 & r3)):
        for u, v in edges:
            size[u] += 1
            size[v] += 1
    bad = {}  # vertex -> its violated kinds, for every vertex that has any

    def recheck(vertices):
        for x in vertices:
            kinds = violated_kinds(limits[x], (na[x], nb[x], nc[x], nf[x]))
            if kinds:
                bad[x] = kinds
            else:
                bad.pop(x, None)

    gated = {}  # vertex -> gated_neighbours, built on first use

    def gated_of(w):
        nbrs = gated.get(w)
        if nbrs is None:
            nbrs = gated[w] = gated_neighbours(g, w, deg)
        return nbrs

    recheck(range(g.n))
    trajectory = []
    for round_no in range(max_rounds):
        if not bad:
            labels.classification = RiskyClassification(r1, r2, r3)
            return labels
        v = min(bad)
        nbrs = gated_of(v)
        ev = make_event(v, bad[v][0], nbrs)
        trajectory.append((ev.vertex, ev.kind))
        before = LabelPair(list(c1), list(c2)) if observer else None
        scope = sorted(ev.scope)
        for (w, slot), c in zip(scope, draw_label_batch([es[w] for w, _ in scope], rng)):
            (c1 if slot == 1 else c2)[w] = c
        if observer:
            observer(round_no, ev, before, LabelPair(list(c1), list(c2)))

        changed = set()  # scope vertices (every kind reads a slot at each) whose labels moved
        for w in (v, *nbrs):
            t = risk_terms(deg[w], es[w], c1[w], c2[w])
            if t != terms[w]:
                terms[w] = t
                changed.add(w)
        pairs = []
        for w in changed:
            # an edge between two changed ends is judged once, from its lower end
            pairs += [(w, x) if w < x else (x, w)
                      for x in gated_of(w) if w < x or x not in changed]
        marked = set()  # the endpoints of the edges whose verdicts changed
        for emin, batch in emin_batches(pairs, es, shared):
            for edge, f1, f2, f3 in zip(batch, *risky_types(batch, terms, emin)):
                o1, o2, o3 = edge in r1, edge in r2, edge in r3
                if f1 == o1 and f2 == o2 and f3 == o3:
                    continue
                u, x = edge
                # unrolled per type, as this loop is most of a round; a bool
                # difference is the step, +1 or -1
                if f1 != o1:
                    (r1.add if f1 else r1.discard)(edge)
                    na[u] += f1 - o1
                    na[x] += f1 - o1
                if f2 != o2:
                    (r2.add if f2 else r2.discard)(edge)
                    nb[u] += f2 - o2
                    nb[x] += f2 - o2
                if f3 != o3:
                    (r3.add if f3 else r3.discard)(edge)
                    nc[u] += f3 - o3
                    nc[x] += f3 - o3
                step = (f2 and f3) - (o2 and o3)
                if step:
                    nf[u] += step
                    nf[x] += step
                marked.add(u)
                marked.add(x)
        recheck(marked)
    return Timeout(rounds=max_rounds, trajectory=trajectory)


# ---------------------------------------------------------------------------
# exact probabilities for a single gated edge

@lru_cache(maxsize=1)  # riskprob's two probabilities share one batch
def _risky_residues(du: int, dv: int) -> tuple:
    """The residues r mod m = 2^emin, emin = min(e(u), e(v)), that are risky
    for the congruence types 1 and 2 share, and for type 3: two lists.

    With pu = 2^(eu-emin) and pv = 2^(ev-emin), every verdict reads its
    pair only through r = (x*pu - y*pv) mod m.  For types 1 and 2, x and y
    are the labels ci(u), ci(v).  For type 3 they are the sums c1 + c2,
    whose third terms differ by du - dv - 3*2^emin*(x*pu - y*pv), against
    type 3's modulus 3*4^emin.  So one risky_types batch judges one pair
    per residue, labels x at u and y at v with c2 = 0: its type-1 verdicts
    read the pair as labels, its type-3 verdicts as sums."""
    eu, ev = ceil_log_beta(du), ceil_log_beta(dv)
    emin = min(eu, ev)
    m = 1 << emin
    # a pair of residue r: x = r when pu = 1, else y = -r mod m, as pv = 1
    reps = [(r, 0) if eu == emin else (0, -r % m) for r in range(m)]
    terms = [t for x, y in reps for t in (risk_terms(du, eu, x, 0), risk_terms(dv, ev, y, 0))]
    t1, _, t3 = risky_types([(2 * r, 2 * r + 1) for r in range(m)], terms, emin)
    return list(compress(range(m), t1)), list(compress(range(m), t3))


def exact_edge_risk_probability(du: int, dv: int, rtype) -> Fraction:
    """Probability that an edge with endpoint degrees (du, dv) is risky of
    the given type, over uniform labels at both endpoints.

    The endpoint with e = emin draws its labels over whole periods mod m =
    2^emin, and so does their sum: the residue every verdict reads is
    uniform, whatever the other end holds, and the probability is the share
    of the m residues that _risky_residues judged risky.  Type "23"
    factorises: type 2 puts the residue of the c2 pair at 0, so the sums'
    residue is the c1 pair's, and the two pairs are independent.
    """
    if not gate(du, dv):
        raise ValueError(f"degree pair ({du}, {dv}) fails the ratio gate")
    if rtype not in (1, 2, 3, "23"):
        raise ValueError(f"risk type must be 1, 2, 3 or '23', got {rtype!r}")
    m = 1 << min(ceil_log_beta(du), ceil_log_beta(dv))
    label_risky, sum_risky = _risky_residues(du, dv)
    if rtype == 3:
        return Fraction(len(sum_risky), m)
    if rtype == "23":
        return Fraction(len(label_risky) * len(sum_risky), m * m)
    return Fraction(len(label_risky), m)


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

    Let q = min(2^(e(u) - emin), m).  A free c1(u) spans lu = 2^e(u)
    consecutive values and meets each multiple of q below m equally often,
    and so does the sum c1 + c2 at u whatever c2(u) is.  The values held at
    v then fix one residue class mod q, so a scheme's worst risk is q times
    the most risky residues in one class mod q, over m.  The joint scheme
    factorises as in exact_edge_risk_probability.
    """
    if not gate(du, dv):
        raise ValueError(f"degree pair ({du}, {dv}) fails the ratio gate")
    eu, ev = ceil_log_beta(du), ceil_log_beta(dv)
    emin = min(eu, ev)
    if which in ("type1_given_c1v", "type2_given_c2v"):
        key = (which, eu, ev)
    elif which in ("type3_given_rest", "both23_given_c1v_c2v"):
        key = (which, eu, ev, (du - dv) % (3 << (2 * emin)))
    else:
        raise ValueError(f"unknown scheme {which!r}")
    hit = _WORST_CACHE.get(key)
    if hit is not None:
        return hit

    m = 1 << emin
    q = min(1 << (eu - emin), m)
    label_risky, sum_risky = _risky_residues(du, dv)

    def worst_share(risky):
        per_class = Counter(r % q for r in risky)
        return Fraction(q * max(per_class.values(), default=0), m)

    if which == "type3_given_rest":
        worst = worst_share(sum_risky)
    elif which == "both23_given_c1v_c2v":
        worst = worst_share(label_risky) * worst_share(sum_risky)
    else:
        worst = worst_share(label_risky)
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
