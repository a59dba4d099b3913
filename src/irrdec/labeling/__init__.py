"""Random modular vertex labels, risky-edge classification and the
neighbourhood-size limits.

Everything here is built around the constant beta = 2^(50/19), chosen so that
powers of beta are powers of two raised to rational exponents: comparisons
against beta^k reduce to big-integer comparisons and no predicate ever touches
a float.  The per-vertex modulus is lam(v) = 2^e(v), with e = exponents(g).

A classification is the risky edge sets r1, r2, r3; risky_neighbours gives
the per-vertex sets A(v), B(v), C(v) whose sizes size_limits bounds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from ..exact import BETA_POW, BETA_SHIFT, floor_scaled_pow
from ..graph_core import Graph

_CLB_CACHE = {}


def ceil_log_beta(d: int) -> int:
    """Least k >= 0 with d <= beta^k, i.e. with d^19 <= 2^(50k)."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    k = _CLB_CACHE.get(d)
    if k is None:
        p = d ** BETA_POW
        k = max(0, (p.bit_length() - 1) // BETA_SHIFT - 1)
        while p > (1 << (BETA_SHIFT * k)):
            k += 1
        _CLB_CACHE[d] = k
    return k


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


@dataclass
class LabelPair:
    """Per-vertex labels c1, c2, each uniform on [0, lam(v))."""

    c1: list
    c2: list

    def validate(self, g: Graph) -> None:
        """Both arrays hold one label per vertex, in [0, lam(v)); an
        isolated vertex has modulus 1 (label 0)."""
        lams = [1 << e for e in exponents(g)]
        for labels in (self.c1, self.c2):
            if len(labels) != g.n:
                raise ValueError("label array length differs from vertex count")
            for v, (c, lam) in enumerate(zip(labels, lams)):
                if not (0 <= c < lam):
                    raise ValueError(f"label {c} at vertex {v} outside [0, {lam})")


def draw_label(rng: random.Random, e: int) -> int:
    """One label uniform on [0, 2^e): the one draw every label comes from."""
    return rng.randrange(1 << e)


def draw_labels(g: Graph, rng: random.Random) -> LabelPair:
    """Draw all c1 values in vertex order, then all c2 values, from rng."""
    es = exponents(g)
    c1 = [draw_label(rng, e) for e in es]
    c2 = [draw_label(rng, e) for e in es]
    return LabelPair(c1, c2)


def sample_labels(g: Graph, seed) -> LabelPair:
    """The labels draw_labels takes from a fresh random.Random(seed)."""
    return draw_labels(g, random.Random(seed))


def risk_flags(du, dv, eu, ev, c1u, c1v, c2u, c2v) -> tuple:
    """(type 1, type 2, type 3) riskiness of an edge whose ratio gate has
    already passed, with eu, ev = ceil_log_beta of the endpoint degrees.

    Type i in (1, 2) asks that 4^emin divides ci(u)*2^eu - ci(v)*2^ev.
    Type 3 asks that d(u) - 3*2^eu*(c1u + c2u) - d(v) + 3*2^ev*(c1v + c2v)
    is congruent mod 3*4^emin to one of -3*2^emin+1, ..., 3*2^emin-1
    (a symmetric window, decided inline: this is the classifier's inner loop).
    """
    emin = eu if eu < ev else ev
    mask = (1 << (2 * emin)) - 1
    k = 3 << (2 * emin)
    b = 3 << emin
    r = (du - 3 * ((c1u + c2u) << eu) - dv + 3 * ((c1v + c2v) << ev)) % k
    return (
        ((c1u << eu) - (c1v << ev)) & mask == 0,
        ((c2u << eu) - (c2v << ev)) & mask == 0,
        r < b or r > k - b,
    )


class RiskyClassification:
    """The risky edges of each type, r1, r2 and r3, as frozensets."""

    __slots__ = ("r1", "r2", "r3")

    def __init__(self, r1, r2, r3):
        self.r1 = frozenset(r1)
        self.r2 = frozenset(r2)
        self.r3 = frozenset(r3)


def risky_neighbours(n: int, cls: RiskyClassification) -> list:
    """Per vertex v, the mutable sets [a, b, c] of the neighbours joined to v
    by a risky edge of type 1, 2, 3: A(v), B(v), C(v); F(v) is b & c."""
    out = [[set(), set(), set()] for _ in range(n)]
    for i, edge_set in enumerate((cls.r1, cls.r2, cls.r3)):
        for u, v in edge_set:
            out[u][i].add(v)
            out[v][i].add(u)
    return out


def classify(g: Graph, labels: LabelPair) -> RiskyClassification:
    labels.validate(g)
    es = exponents(g)
    deg = g.degrees()
    c1, c2 = labels.c1, labels.c2
    gate = {}
    r1, r2, r3 = [], [], []
    for e in g.edges:
        u, v = e
        du, dv = deg[u], deg[v]
        ok = gate.get((du, dv))
        if ok is None:
            ok = gate[du, dv] = ratio_gate(du, dv)
        if not ok:
            continue
        t1, t2, t3 = risk_flags(du, dv, es[u], es[v], c1[u], c1[v], c2[u], c2[v])
        if t1:
            r1.append(e)
        if t2:
            r2.append(e)
        if t3:
            r3.append(e)
    return RiskyClassification(r1, r2, r3)


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


def violated_kinds(limits, a, b, c) -> list:
    """The kinds (in KINDS order) whose size bound fails at one vertex, from
    its size_limits entry and its risky neighbour sets a, b, c; F is b & c."""
    t_abc, t_f = limits
    if t_abc is None:
        return []
    sizes = (len(a), len(b), len(c), len(b & c))
    return [k for k, size, t in zip(KINDS, sizes, (t_abc, t_abc, t_abc, t_f)) if size > t]
