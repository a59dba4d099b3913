"""Spanning subgraphs with prescribed vertex degrees.

Two target languages: an explicit per-vertex allowed-degree set, or the
two-residue modular contract (degree congruent to t(v) or t(v)+1 mod
lam(v), landing in the middle-third interval).  The modular form reduces
to a four-value allowed set {a-, a-+1, a+, a++1} picked from the windows
{floor(d/3)+1 .. floor(d/2)} and {floor(d/2) .. floor(2d/3)-1}; both
windows hold at least lam(v) consecutive integers once 6*lam(v) <= d(v),
so a congruent element always exists under that precondition.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from ..graph_core import Graph, InvariantViolated


@dataclass
class DegreeTargetSpec:
    """allowed: map vertex -> set of admissible degrees in the subgraph."""

    allowed: dict

    @classmethod
    def from_pairs(cls, g: Graph, pairs: dict) -> "DegreeTargetSpec":
        """Expand (a-, a+) pairs into {a-, a-+1, a+, a++1}, checking that
        each pair sits inside the middle-third windows."""
        allowed = {}
        for v in range(g.n):
            lo, hi = pairs[v]
            d = g.degree(v)
            if not (3 * lo >= d - 3 and 2 * lo <= d):
                raise ValueError(f"vertex {v}: a-={lo} outside [d/3-1, d/2] for d={d}")
            if not (2 * hi >= d - 2 and 3 * hi <= 2 * d):
                raise ValueError(f"vertex {v}: a+={hi} outside [d/2-1, 2d/3] for d={d}")
            allowed[v] = {lo, lo + 1, hi, hi + 1}
        return cls(allowed)

    def to_json(self) -> dict:
        return {"allowed": {str(v): sorted(s) for v, s in self.allowed.items()}}


@dataclass
class ModularTargetSpec:
    """Per-vertex residue target t and modulus lam; contract is
    d_H(v) = t(v) or t(v)+1 mod lam(v) with d_H(v) in [d(v)/3, 2d(v)/3]."""

    t: list
    lam: list

    def to_json(self) -> dict:
        return {"t": list(self.t), "lambda": list(self.lam)}

    def check_precondition(self, g: Graph) -> list:
        """Vertices violating 6*lam(v) <= d(v)."""
        return [v for v in range(g.n) if 6 * self.lam[v] > g.degree(v)]


@dataclass
class Failure:
    mode: str
    reason: str
    nodes_explored: int = 0
    best_penalty: int | None = None


def window_candidates(d: int, lam: int, t: int) -> tuple:
    """Residue-matching values in the low and high windows (either may be
    empty when the 6*lam <= d precondition does not hold)."""
    w1 = [x for x in range(d // 3 + 1, d // 2 + 1) if (x - t) % lam == 0]
    w2 = [x for x in range(d // 2, (2 * d) // 3) if (x - t) % lam == 0]
    return w1, w2


def choose_window_targets(g: Graph, spec: ModularTargetSpec) -> dict:
    """Least residue-matching element of each window, per vertex."""
    bad = spec.check_precondition(g)
    if bad:
        raise ValueError(f"6*lam(v) <= d(v) fails at vertices {bad}")
    out = {}
    for v in range(g.n):
        w1, w2 = window_candidates(g.degree(v), spec.lam[v], spec.t[v])
        # nonemptiness is guaranteed: each window spans >= lam consecutive ints
        if not (w1 and w2):
            raise InvariantViolated(f"vertex {v} of degree {g.degree(v)}: a window holds no value "
                                    f"congruent to {spec.t[v]} mod {spec.lam[v]}")
        out[v] = (w1[0], w2[0])
    return out


# ---------------------------------------------------------------------------
# exact branch-and-bound

def _reachable(cur: int, rem: int, allowed) -> bool:
    return any(cur <= s <= cur + rem for s in allowed)


def _exact_search(g: Graph, allowed: dict):
    n = g.n
    edges = sorted(g.edges)
    incident = {v: [] for v in range(n)}
    for i, (u, v) in enumerate(edges):
        incident[u].append(i)
        incident[v].append(i)
    cur = [0] * n
    rem = [len(incident[v]) for v in range(n)]
    state = [0] * len(edges)  # 0 undecided, 1 in, -1 out
    nodes = 0

    for v in range(n):
        if not _reachable(0, rem[v], allowed[v]):
            return Failure("exact", "no reachable degree at vertex %d" % v, 1)

    def pick_edge():
        # fail-first: branch at the vertex with fewest undecided edges
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
        # try the direction that moves both endpoints toward their targets
        include_first = cur[u] < mid[u] and cur[v] < mid[v]
        for val in ((1, -1) if include_first else (-1, 1)):
            assign(i, val)
            if _reachable(cur[u], rem[u], allowed[u]) and _reachable(cur[v], rem[v], allowed[v]):
                if solve(undecided - 1):
                    return True
            undo(i, val)
        return False

    if solve(len(edges)):
        return Graph(n, [edges[i] for i in range(len(edges)) if state[i] == 1])
    return Failure("exact", "search space exhausted", nodes)


# ---------------------------------------------------------------------------
# penalty local search

def derived_seed(master_seed, restart_index: int) -> int:
    digest = hashlib.sha256(f"{master_seed}:{restart_index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _penalty_at(d: int, allowed) -> int:
    return min(abs(d - s) for s in allowed)


def _local_search(g: Graph, allowed: dict, budget: int, seed):
    n = g.n
    edges = sorted(g.edges)
    m = len(edges)
    if m == 0:
        if all(0 in allowed[v] for v in range(n)):
            return Graph(n, [])
        return Failure("heuristic", "empty graph cannot meet targets", best_penalty=sum(
            _penalty_at(0, allowed[v]) for v in range(n)))
    flips = 0
    best_overall = None
    restart = 0
    while flips < budget:
        rng = random.Random(derived_seed(seed, restart))
        restart += 1
        bias = {}
        for v in range(n):
            d = g.degree(v)
            bias[v] = (sum(allowed[v]) / len(allowed[v])) / d if d else 0.0
        chosen = [rng.random() < (bias[u] + bias[v]) / 2 for u, v in edges]
        deg = [0] * n
        for i, (u, v) in enumerate(edges):
            if chosen[i]:
                deg[u] += 1
                deg[v] += 1
        penalty = sum(_penalty_at(deg[v], allowed[v]) for v in range(n))
        sideways = 0
        while penalty > 0 and flips < budget and sideways <= 2 * m:
            best_i, best_delta = -1, None
            for i, (u, v) in enumerate(edges):
                step = -1 if chosen[i] else 1
                delta = (
                    _penalty_at(deg[u] + step, allowed[u]) - _penalty_at(deg[u], allowed[u])
                    + _penalty_at(deg[v] + step, allowed[v]) - _penalty_at(deg[v], allowed[v])
                )
                if best_delta is None or delta < best_delta:
                    best_i, best_delta = i, delta
            if best_delta > 0:
                break  # local minimum; restart
            u, v = edges[best_i]
            step = -1 if chosen[best_i] else 1
            chosen[best_i] = not chosen[best_i]
            deg[u] += step
            deg[v] += step
            penalty += best_delta
            flips += 1
            sideways = sideways + 1 if best_delta == 0 else 0
        if penalty == 0:
            return Graph(n, [e for i, e in enumerate(edges) if chosen[i]])
        if best_overall is None or penalty < best_overall:
            best_overall = penalty
    return Failure("heuristic", "flip budget exhausted", best_penalty=best_overall)


def find_degree_set_subgraph(g: Graph, spec: DegreeTargetSpec, mode: str = "exact",
                             budget: int = 10000, seed=0):
    """Spanning H <= g with d_H(v) in spec.allowed[v] for every v, or Failure.

    Exact mode branches over edges (most-constrained vertex first) with
    per-endpoint reachability pruning and is complete.  Heuristic mode runs
    penalty descent with sideways moves and seeded restarts; budget caps the
    total number of accepted flips.
    """
    for v in range(g.n):
        s = spec.allowed.get(v) if isinstance(spec.allowed, dict) else spec.allowed[v]
        if s is None or len(s) == 0:
            raise ValueError(f"vertex {v}: empty allowed set")
        if any(not (0 <= x <= g.degree(v)) for x in s):
            raise ValueError(f"vertex {v}: allowed set {sorted(s)} outside [0, d(v)]")
    allowed = {v: frozenset(spec.allowed[v]) for v in range(g.n)}
    if mode == "exact":
        return _exact_search(g, allowed)
    if mode == "heuristic":
        return _local_search(g, allowed, budget, seed)
    raise ValueError(f"mode must be 'exact' or 'heuristic', got {mode!r}")


def find_modular_subgraph(g: Graph, spec: ModularTargetSpec, mode: str = "exact",
                          budget: int = 10000, seed=0):
    """Realize the two-residue contract by solving for the four-value
    allowed sets derived from the windows; the result is re-verified."""
    targets = choose_window_targets(g, spec)
    dspec = DegreeTargetSpec.from_pairs(g, targets)
    h = find_degree_set_subgraph(g, dspec, mode=mode, budget=budget, seed=seed)
    if isinstance(h, Failure):
        return h
    report = verify_factor(g, h, spec)
    if not report.ok:
        raise InvariantViolated(f"solver result breaks the contract at {report.bad_vertices()}")
    return h


@dataclass
class VerifyReport:
    ok: bool
    per_vertex: dict

    def bad_vertices(self) -> list:
        return sorted(v for v, rec in self.per_vertex.items() if not rec["ok"])


def verify_factor(g: Graph, h: Graph, spec) -> VerifyReport:
    """Independent check that h is a spanning subgraph of g meeting spec."""
    if h.n != g.n or not h.edges <= g.edges:
        raise ValueError("h is not a spanning subgraph of g")
    per = {}
    for v in range(g.n):
        dh, d = h.degree(v), g.degree(v)
        if isinstance(spec, DegreeTargetSpec):
            ok = dh in spec.allowed[v]
            reason = None if ok else f"degree {dh} not in {sorted(spec.allowed[v])}"
        else:
            in_interval = 3 * dh >= d and 3 * dh <= 2 * d
            residue_ok = (dh - spec.t[v]) % spec.lam[v] in (0, 1)
            ok = in_interval and residue_ok
            reason = None if ok else (
                f"degree {dh}: interval_ok={in_interval}, residue_ok={residue_ok}"
            )
        per[v] = {"degree": dh, "ok": ok, "reason": reason}
    return VerifyReport(all(rec["ok"] for rec in per.values()), per)
