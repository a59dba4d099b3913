"""Random modular vertex labels, risky-edge classification and the
neighbourhood-size limits.

Everything here is built around the constant beta = 2^(50/19), chosen so that
powers of beta are powers of two raised to rational exponents: comparisons
against beta^k reduce to big-integer comparisons and no predicate ever touches
a float.  The per-vertex modulus is lam(v) = 2^e(v), with e = exponents(g).

The risk congruences split into a per-vertex part and a per-pair part.
risk_terms gives each vertex three integers once; risky_types, the one
statement of the congruences, compares the terms of both endpoints over a
whole batch of pairs in one call, so a batch of m edges costs m loop steps
and no Python call per edge.  A batch shares one emin = min(e(u), e(v)),
and so one set of moduli: when every vertex with an edge has the same
exponent (shared_exponent, one O(n) pass) the gated edges form one batch,
and otherwise emin_batches splits them by emin.  The ratio gate is decided
once per degree pair through one bounded cache, gate.

A classification is the risky edges r1, r2, r3, each edge once: lists from
classify, the resampler's own sets from lll_engine.moser_tardos.
risky_neighbours gives the per-vertex sets A(v), B(v), C(v), and F(v) =
B(v) & C(v).  size_limits bounds the four sizes and violated_kinds, the
one size rule, reads the sizes alone, so the resampler can keep them as
counts.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache
from itertools import compress

from ..exact import BETA_POW, BETA_SHIFT, floor_scaled_pow
from ..graph_core import Graph


@cache
def ceil_log_beta(d: int) -> int:
    """Least k >= 0 with d <= beta^k, i.e. with d^19 <= 2^(50k), i.e. with
    d^19 - 1 < 2^(50k): k = ceil(bitlen(d^19 - 1) / 50)."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    return -(-(d ** BETA_POW - 1).bit_length() // BETA_SHIFT)


def exponents(g: Graph) -> list:
    """e(v) = ceil_log_beta(d(v)) per vertex, 0 when isolated: the one map
    from degrees to the exponent every per-vertex modulus derives from."""
    return [ceil_log_beta(d) if d >= 1 else 0 for d in g.degrees()]


def ratio_gate(du: int, dv: int) -> bool:
    """(1/beta)*dv < du < beta*dv, decided exactly.

    Equality is impossible: beta^19 = 2^50 is not a ratio of 19-th powers.
    """
    if du < 1 or dv < 1:
        raise ValueError("degrees must be >= 1")
    pu, pv = du ** BETA_POW, dv ** BETA_POW
    return pu < (pv << BETA_SHIFT) and pv < (pu << BETA_SHIFT)


@lru_cache(maxsize=4096)
def gate(du: int, dv: int) -> bool:
    """ratio_gate(du, dv), decided once per degree pair: the one bounded
    cache that every gated-edge filter reads."""
    return ratio_gate(du, dv)


@dataclass
class LabelPair:
    """Per-vertex labels c1, c2, each uniform on [0, lam(v)).

    classification is set only by lll_engine.moser_tardos: the risky edge
    sets of the labels as returned, which it kept.  It is not compared.
    """

    c1: list
    c2: list
    classification: RiskyClassification | None = field(default=None, compare=False, repr=False)

    def validate(self, es: list) -> None:
        """Both arrays hold one label per vertex, in [0, 2^e(v)) for the
        graph's exponent vector es; an isolated vertex has e = 0 (label 0)."""
        for labels in (self.c1, self.c2):
            if len(labels) != len(es):
                raise ValueError("label array length differs from vertex count")
            for v, (c, e) in enumerate(zip(labels, es)):
                if not (0 <= c < 1 << e):
                    raise ValueError(f"label {c} at vertex {v} outside [0, {1 << e})")


def draw_label_batch(es, rng: random.Random) -> list:
    """One label uniform on [0, 2^e) per exponent e of es, drawn in order:
    the one draw every label comes from.

    Each is rng.randrange(1 << e), made through rng.getrandbits with the
    calls the stdlib makes: getrandbits(k) for k = (2^e).bit_length() = e + 1,
    redrawn while the value is >= 2^e, so even e = 0 spends at least one
    call.  The labels and rng's state after the call are randrange's; one
    loop spares the frames of its two wrappers per label."""
    getrandbits = rng.getrandbits
    labels = []
    append = labels.append
    for e in es:
        k, n = e + 1, 1 << e
        c = getrandbits(k)
        while c >= n:
            c = getrandbits(k)
        append(c)
    return labels


def draw_labels(es: list, rng: random.Random) -> LabelPair:
    """Draw all c1 values in vertex order, then all c2 values, from rng."""
    return LabelPair(draw_label_batch(es, rng), draw_label_batch(es, rng))


def risk_terms(d: int, e: int, c1: int, c2: int) -> tuple:
    """The per-vertex part of the risk congruences at a vertex of degree d,
    exponent e and labels c1, c2: (c1*2^e, c2*2^e, d - 3*(c1 + c2)*2^e)."""
    return c1 << e, c2 << e, d - 3 * ((c1 + c2) << e)


class _Moduli(dict):
    """emin -> (4^emin - 1, 3*4^emin, 3*2^emin - 1, 6*2^emin - 1), built on
    first use: the mask of types 1 and 2, and type 3's modulus, shift and
    window width."""

    def __missing__(self, e):
        moduli = self[e] = ((1 << (2 * e)) - 1, 3 << (2 * e), (3 << e) - 1, (6 << e) - 1)
        return moduli


_MODULI = _Moduli()


def risky_types(pairs, terms: list, emin: int) -> tuple:
    """The (type 1, type 2, type 3) verdict lists over the vertex pairs
    (u, v) of pairs, from the risk_terms of their endpoints, for a batch
    whose every pair has emin = min(e(u), e(v)); the ratio gate is not
    checked here.

    Type i in (1, 2) asks that 4^emin divides ci(u)*2^eu - ci(v)*2^ev, the
    difference of the i-th terms.  Type 3 asks that su - sv, the difference
    of the third terms, that is d(u) - 3*2^eu*(c1u + c2u) - d(v) +
    3*2^ev*(c1v + c2v), is congruent mod 3*4^emin to one of -3*2^emin+1, ...,
    3*2^emin-1: shifted by 3*2^emin - 1, its residue is below 6*2^emin - 1.

    This is the only statement of the three congruences.  It runs the loop
    itself and reads the moduli once: a batch costs one call, not one call
    per pair.
    """
    mask, k, shift, width = _MODULI[emin]
    t1, t2, t3 = [], [], []
    add1, add2, add3 = t1.append, t2.append, t3.append
    for u, v in pairs:
        a1u, a2u, su = terms[u]
        a1v, a2v, sv = terms[v]
        add1(not (a1u - a1v) & mask)
        add2(not (a2u - a2v) & mask)
        add3((su - sv + shift) % k < width)
    return t1, t2, t3


def shared_exponent(deg: list, es: list):
    """The exponent every vertex of positive degree has, or None when two
    of them differ or no vertex has an edge: one pass over the vertices."""
    found = set(compress(es, deg))
    return found.pop() if len(found) == 1 else None


def emin_batches(pairs: list, es: list, shared=None) -> list:
    """The pairs as [(emin, batch)], each pair in the batch of its emin =
    min(e(u), e(v)), in pair order within a batch and in ascending emin.
    shared, when not None, is the exponent of every endpoint: one batch,
    no split."""
    if shared is not None:
        return [(shared, pairs)]
    batches = defaultdict(list)
    for pair in pairs:  # a plain loop: a map over the pairs costs several times more
        u, v = pair
        eu = es[u]
        ev = es[v]
        batches[eu if eu < ev else ev].append(pair)
    return sorted(batches.items())


class RiskyClassification:
    """The risky edges of each type, r1, r2 and r3, each edge once: lists
    from classify, or the resampler's own sets, kept as given."""

    __slots__ = ("r1", "r2", "r3")

    def __init__(self, r1, r2, r3):
        self.r1 = r1
        self.r2 = r2
        self.r3 = r3


def risky_neighbours(n: int, cls: RiskyClassification) -> list:
    """Per vertex v, the mutable sets [a, b, c] of the neighbours joined to v
    by a risky edge of type 1, 2, 3: A(v), B(v), C(v); F(v) is b & c."""
    out = [[set(), set(), set()] for _ in range(n)]
    for i, edge_set in enumerate((cls.r1, cls.r2, cls.r3)):
        for u, v in edge_set:
            out[u][i].add(v)
            out[v][i].add(u)
    return out


def classify_terms(g: Graph, deg: list, terms: list, es: list) -> RiskyClassification:
    """The risky edges of each type, as lists: the gated edges, judged in
    one risky_types call per emin batch, one batch in all when the vertices
    with edges share their exponent.  The gate bounds a degree ratio, so
    when the extreme positive degrees pass it every edge does; only
    otherwise is each gated."""
    gated = list(g.edges)
    if gated and not gate(min(filter(None, deg)), max(deg)):
        gated = [e for e in gated if gate(deg[e[0]], deg[e[1]])]
    risky = [], [], []
    for emin, batch in emin_batches(gated, es, shared_exponent(deg, es)):
        for edges, verdicts in zip(risky, risky_types(batch, terms, emin)):
            edges += compress(batch, verdicts)
    return RiskyClassification(*risky)


def classify(g: Graph, labels: LabelPair, es: list) -> RiskyClassification:
    """classify_terms for labels checked against es, each term built once."""
    labels.validate(es)
    if not g.edges:  # no edge to judge: no risk term to build
        return RiskyClassification([], [], [])
    deg = g.degrees()
    return classify_terms(g, deg, list(map(risk_terms, deg, es, labels.c1, labels.c2)), es)


KINDS = ("A", "B", "C", "F")  # the sizes bounded: |A(v)|, |B(v)|, |C(v)|, |F(v)|


def size_limits(g: Graph, slack) -> list:
    """Per vertex, the largest allowed |A|, |B|, |C| and |F|: the exact
    floors of slack*8*d^0.62 and slack*12*d^0.24, or (None, None) for the
    infinity sentinel, which turns the bounds off.  Any other slack must be
    positive."""
    if not (slack == math.inf or slack > 0):
        raise ValueError("slack must be positive")
    if slack == math.inf:
        return [(None, None)] * g.n
    s = Fraction(slack)
    cache = {}
    out = []
    for d in g.degrees():
        if d not in cache:
            cache[d] = (floor_scaled_pow(8 * s, d, 31, 50),
                        floor_scaled_pow(12 * s, d, 12, 50))
        out.append(cache[d])
    return out


def violated_kinds(limits, sizes) -> list:
    """The kinds (in KINDS order) whose size bound fails at one vertex, from
    its size_limits entry and its sizes (|A|, |B|, |C|, |F|): the one size
    rule, read by the from-scratch check and the resampler alike."""
    t_abc, t_f = limits
    if t_abc is None:
        return []
    a, b, c, f = sizes
    if a <= t_abc and b <= t_abc and c <= t_abc and f <= t_f:
        return []
    return [k for k, size, t in zip(KINDS, sizes, (t_abc, t_abc, t_abc, t_f)) if size > t]
