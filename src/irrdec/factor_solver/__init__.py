"""Spanning subgraphs with prescribed vertex degrees.

Two target languages: an explicit per-vertex allowed-degree set, or the
two-residue modular contract (degree congruent to t(v) or t(v)+1 mod
lam(v), landing in the middle-third interval).  `allowed_degrees` is the
one translation of the modular form: the paper's {a-, a-+1, a+, a++1}, a-
and a+ the least matches of t mod lam in the `windows` (d/3, d/2] and
[d/2, 2d/3).  `allowed_sets` applies it per vertex, for
`find_modular_subgraph` and the pipeline alike, and gives a vertex of
degree 0 the set `ISOLATED`.  Each window holds >= lam(v) consecutive
integers once 6*lam(v) <= d(v), so both have a match then; one of under
2*lam integers holds at most one, so least match equals every match
there, which under the pipeline's moduli 3*4^e(d) covers every host
degree below 294,914.

Costs: a window is built by arithmetic, O(window/lam) for the values it
returns.  Both searches build their per-vertex tables once per distinct
(degree, allowed set) and share them read-only; the input checks judge
each set object once per degree, by one C-level value test.  Exact mode
prunes in O(1) per endpoint through a next-allowed-degree table and spends
one Python frame per node.
Heuristic mode keeps each edge's flip delta in one of five bitmask buckets.
A restart sets them up in bulk passes: each edge's first delta is two reads
of per-vertex add/drop steps, and each bucket is parsed from one digit
string.  After a flip of (u, v) it recomputes only the edges at u and v, so
an accepted flip costs O(d(u) + d(v)) delta updates.  Both return their
subset of the host's edges without re-checking it as a new graph.
"""

from __future__ import annotations

import hashlib
import random
import sys
from dataclasses import dataclass
from itertools import compress, repeat
from operator import getitem

from ..graph_core import Graph, InvariantViolated, incident_edges


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


@dataclass
class ModularTargetSpec:
    """Per-vertex residue target t and modulus lam; contract is
    d_H(v) = t(v) or t(v)+1 mod lam(v) with d_H(v) in [d(v)/3, 2d(v)/3]."""

    t: list
    lam: list

    def check_precondition(self, degrees: list) -> list:
        """Vertices violating 6*lam(v) <= d(v), from the host's degrees."""
        return [v for v, d in enumerate(degrees) if 6 * self.lam[v] > d]


@dataclass
class Failure:
    mode: str
    reason: str
    nodes_explored: int = 0
    best_penalty: int | None = None
    flips: int = 0  # accepted flips a heuristic search used


# the allowed set of a vertex without edges; {0} lies in [0, d] at every degree d
ISOLATED = frozenset({0})

# find_degree_set_subgraph's search modes
SOLVER_MODES = ("exact", "heuristic")


def windows(d: int) -> tuple:
    """The low and high middle-third windows of d, (d/3, d/2] and [d/2, 2d/3)."""
    return range(d // 3 + 1, d // 2 + 1), range(d // 2, (2 * d) // 3)


def window_candidates(d: int, lam: int, t: int) -> tuple:
    """Residue-matching values in the low and high windows (either may be
    empty when the 6*lam <= d precondition does not hold)."""
    return tuple(list(w[(t - w.start) % lam::lam]) for w in windows(d))


def allowed_degrees(d: int, lam: int, t: int) -> set:
    """x and x + 1 for the least x = t mod lam in each window of d that has
    one: the paper's four allowed degrees, or none when neither window has one."""
    out = set()
    for w in windows(d):
        x = w.start + (t - w.start) % lam
        if x in w:
            out |= {x, x + 1}
    return out


def allowed_sets(deg: list, lam: list, t: list) -> dict:
    """Vertex -> frozenset(allowed_degrees(deg[v], lam[v], t[v])), one shared
    read-only object per (degree, modulus, target); a vertex of degree 0
    takes ISOLATED, and its modulus and target are not read."""
    shared = {}
    return {v: (shared[key] if (key := (d, lam[v], t[v])) in shared
                else shared.setdefault(key, frozenset(allowed_degrees(*key)))) if d else ISOLATED
            for v, d in enumerate(deg)}


def choose_window_targets(g: Graph, spec: ModularTargetSpec) -> dict:
    """Least residue-matching element of each window, per vertex."""
    bad = spec.check_precondition(g.degrees())
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

def _next_allowed(d: int, allowed) -> list:
    """nxt[c] = least allowed degree >= c for c in 0..d, or d + 1 when none is
    left; a vertex with cur chosen and rem undecided edges can still land in
    its set exactly when nxt[cur] <= cur + rem."""
    nxt = [d + 1] * (d + 2)
    for c in range(d, -1, -1):
        nxt[c] = c if c in allowed else nxt[c + 1]
    return nxt


def _exact_search(g: Graph, allowed: list):
    n = g.n
    edges = sorted(g.edges)
    incident = incident_edges(n, edges)
    deg = [len(a) for a in incident]
    tables = {}  # vertices of one degree and one allowed set share a read-only table
    nxt = [tables[key] if key in tables else tables.setdefault(key, _next_allowed(*key))
           for key in zip(deg, allowed)]
    for v in range(n):
        # find_degree_set_subgraph admits only allowed values in [0, d(v)]
        if nxt[v][0] > deg[v]:
            raise InvariantViolated(f"vertex {v} of degree {deg[v]} can reach no value of its "
                                    f"allowed set {sorted(allowed[v])}")
    cur = [0] * n
    # rem[v] = the undecided edges at v, or done, above every degree, when
    # there are none, so that min(rem) is the fewest left at an open vertex
    done = len(edges) + 1
    rem = [d or done for d in deg]
    state = [0] * len(edges)  # 0 undecided, 1 in, -1 out
    nodes = 0

    mid = [sum(s) / len(s) for s in allowed]

    def solve(undecided):
        nonlocal nodes
        nodes += 1
        if undecided == 0:
            return all(cur[v] in allowed[v] for v in range(n))
        # fail-first: branch on the first undecided edge of the least vertex
        # with the fewest undecided edges
        best_rem = min(rem)
        best_v = rem.index(best_rem)
        for i in incident[best_v] if best_rem < done else ():
            if state[i] == 0:
                break
        else:
            raise InvariantViolated(f"rem out of sync: the fewest undecided edges at a vertex is "
                                    f"{best_rem if best_rem < done else 0} (vertex {best_v}, cur "
                                    f"{cur[best_v]}), but none of its edges is undecided")
        u, v = edges[i]
        cu, cv, ru, rv, nu, nv = cur[u], cur[v], rem[u] - 1, rem[v] - 1, nxt[u], nxt[v]
        rem[u], rem[v] = ru or done, rv or done
        # try the direction that moves both endpoints toward their targets
        for inc in ((1, 0) if cu < mid[u] and cv < mid[v] else (0, 1)):
            state[i] = 1 if inc else -1
            xu = cur[u] = cu + inc
            xv = cur[v] = cv + inc
            if nu[xu] <= xu + ru and nv[xv] <= xv + rv and solve(undecided - 1):
                return True
        # a failed solve leaves cur, rem and state as it found them
        cur[u], cur[v], rem[u], rem[v], state[i] = cu, cv, ru + 1, rv + 1, 0
        return False

    try:
        found = solve(len(edges))
    except RecursionError:  # solve recurses once per decided edge
        return Failure("exact", f"{g.m} edges: the search recurses once per edge and passed "
                                f"the recursion limit of {sys.getrecursionlimit()}", nodes)
    if found:  # a subset of g's edges: no check to repeat
        return Graph._canonical(n, [e for e, x in zip(edges, state) if x == 1])
    return Failure("exact", "search space exhausted", nodes)


# ---------------------------------------------------------------------------
# penalty local search

def derived_seed(master_seed, restart_index: int) -> int:
    digest = hashlib.sha256(f"{master_seed}:{restart_index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _penalty_table(d: int, allowed) -> list:
    """pen[x] = distance from x to the nearest allowed degree, x in 0..d."""
    pen = [0 if x in allowed else d + 1 for x in range(d + 1)]
    for x in range(1, d + 1):
        pen[x] = min(pen[x], pen[x - 1] + 1)
    for x in range(d - 1, -1, -1):
        pen[x] = min(pen[x], pen[x + 1] + 1)
    return pen


# _ONE_HOT[k] maps the byte k to b"1" and every other byte to b"0"
_ONE_HOT = [bytes(49 if b == k else 48 for b in range(256)) for k in range(5)]


def _local_search(g: Graph, allowed: list, budget: int, seed):
    n = g.n
    edges = sorted(g.edges)
    m = len(edges)
    incident = incident_edges(n, edges)
    # vertices of one degree and one allowed set share read-only tables: the
    # penalty at each degree x, its change when an edge is added at x (up,
    # 0 at x = d) or dropped at x (down, 0 at x = 0), and the start bias
    keys = list(zip(g.degrees(), allowed))
    tables = {}
    for d, s in keys:
        if (d, s) not in tables:
            pen = _penalty_table(d, s)
            steps = [b - a for a, b in zip(pen, pen[1:])]
            tables[d, s] = (pen, steps + [0], [0] + [-x for x in steps],
                            (sum(s) / len(s)) / d if d else 0.0)
    pen, up, down, bias = zip(*map(tables.__getitem__, keys))
    p_start = [(bias[u] + bias[v]) / 2 for u, v in edges]  # chance an edge starts chosen

    def flip_delta(i):
        # a flip keeps both degrees in 0..d: it adds an edge only where one is missing
        u, v = edges[i]
        pu, pv, du, dv = pen[u], pen[v], deg[u], deg[v]
        step = -1 if chosen[i] else 1
        return pu[du + step] - pu[du] + pv[dv + step] - pv[dv]

    flips = 0
    best_overall = None
    restart = 0
    while flips < budget:
        rng = random.Random(derived_seed(seed, restart))
        restart += 1
        chosen = [rng.random() < p for p in p_start]
        deg = [0] * n
        for u, v in compress(edges, chosen):
            deg[u] += 1
            deg[v] += 1
        penalty = sum(map(getitem, pen, deg))
        # an edge's first delta is two table reads: down at its ends if it is
        # chosen, up if not.  Each endpoint's penalty moves by at most 1, so
        # every delta lies in -2..2; bucket[delta + 2] is the bitmask of the
        # edges with that delta, read off one digit string per bucket
        ups, downs = list(map(getitem, up, deg)), list(map(getitem, down, deg))
        delta = [downs[u] + downs[v] if c else ups[u] + ups[v]
                 for (u, v), c in zip(edges, chosen)]
        digits = bytes(map((2).__add__, reversed(delta)))  # edge i is digit m - 1 - i
        bucket = [int(digits.translate(one), 2) for one in _ONE_HOT]
        sideways = 0
        while penalty > 0 and flips < budget and sideways <= 2 * m:
            # least index among the least delta
            k = next(k for k in range(5) if bucket[k])
            best_delta = k - 2
            # While penalty > 0 some vertex x is off target.  Its nearest
            # allowed degree a lies in [0, d(x)] (find_degree_set_subgraph
            # checks that), so x has an edge to add if a > deg[x] and one to
            # drop if a < deg[x].  That flip lowers x's penalty by exactly 1;
            # a penalty is a distance, so the other endpoint's rises by at
            # most 1, and that flip's delta is <= 0.
            if best_delta > 0:
                raise InvariantViolated(f"least flip delta is {best_delta} at penalty {penalty}: "
                                        f"an off-target vertex always has a flip of delta <= 0")
            best_i = (bucket[k] & -bucket[k]).bit_length() - 1
            u, v = edges[best_i]
            step = -1 if chosen[best_i] else 1
            chosen[best_i] = not chosen[best_i]
            deg[u] += step
            deg[v] += step
            penalty += best_delta
            flips += 1
            sideways = sideways + 1 if best_delta == 0 else 0
            # only edges at u or v see a changed degree or a changed state
            for i in incident[u] + incident[v]:
                new = flip_delta(i)
                if new != delta[i]:
                    bucket[delta[i] + 2] ^= 1 << i
                    bucket[new + 2] |= 1 << i
                    delta[i] = new
        if penalty == 0:  # a subset of g's edges: no check to repeat
            return Graph._canonical(n, compress(edges, chosen))
        if best_overall is None or penalty < best_overall:
            best_overall = penalty
    return Failure("heuristic", "flip budget exhausted", best_penalty=best_overall, flips=flips)


def find_degree_set_subgraph(g: Graph, spec: DegreeTargetSpec, mode: str = "exact",
                             budget: int = 10000, seed=0):
    """Spanning H <= g with d_H(v) in spec.allowed[v] for every v, or Failure.

    Exact mode branches over edges (most-constrained vertex first) with
    per-endpoint reachability pruning and is complete while its depth, one
    level per edge, stays within Python's recursion limit; past it, it
    returns a Failure naming the edge count and the limit.
    Heuristic mode runs penalty descent with sideways moves and seeded
    restarts; budget caps the total number of accepted flips.
    A host without edges is answered by neither search: the checks leave
    {0} as every vertex's one allowed set, which the empty subgraph meets.
    """
    get = spec.allowed.get
    checked = set()  # (degree, id) of the set objects found valid
    for v in range(g.n):
        s = get(v)
        if s is ISOLATED:  # valid at every degree
            continue
        key = (d := g.degree(v), id(s))
        if key in checked:
            continue
        if not s:
            raise ValueError(f"vertex {v}: empty allowed set")
        # integers in [0, d(v)]: _local_search's invariant rests on this
        if not (all(map(isinstance, s, repeat(int))) and min(s) >= 0 and max(s) <= d):
            raise ValueError(f"vertex {v}: allowed set {sorted(s)} is not integers in "
                             f"[0, d(v)]")
        checked.add(key)
    if mode not in SOLVER_MODES:
        raise ValueError(f"mode must be 'exact' or 'heuristic', got {mode!r}")
    if g.m == 0:
        return Graph(g.n)
    # the searches index one frozen set per vertex
    allowed = list(map(frozenset, map(get, range(g.n))))
    if mode == "exact":
        return _exact_search(g, allowed)
    return _local_search(g, allowed, budget, seed)


def find_modular_subgraph(g: Graph, spec: ModularTargetSpec, mode: str = "exact",
                          budget: int = 10000, seed=0):
    """Realize the two-residue contract by solving for the four-value
    allowed sets of allowed_sets; the result is re-verified."""
    deg = g.degrees()
    bad = spec.check_precondition(deg)
    if bad:
        raise ValueError(f"6*lam(v) <= d(v) fails at vertices {bad}")
    dspec = DegreeTargetSpec(allowed_sets(deg, spec.lam, spec.t))
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
