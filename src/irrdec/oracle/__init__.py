"""Exact ground truth on small graphs: the least number of locally
irregular parts, by backtracking over edge colour assignments.

The search is complete, so a failed search is a certificate.  Since empty
colour classes are allowed, feasibility is monotone in k, and a graph
infeasible at k = |E| is infeasible for every k: each nonempty class needs
at least one edge, so more classes than edges cannot help.

`min_parts` probes k = 1, 2, 3 in turn, since almost every decomposable
small graph needs at most 3 parts, then searches once at the top k: a
failure there settles every k at or below it, so an infeasible graph costs
four searches instead of |E|.  A graph that needs 4 or more parts (some
cacti do, such as two bow-ties with their centres joined) is bisected
between 4 and the colours the top search's witness used.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import networkx

from ..graph_core import (
    Decomposition,
    Graph,
    InvariantViolated,
    cycle,
    incident_edges,
    path,
    recognize_exception,
    t_family_members,
)

DEFAULT_EDGE_LIMIT = 22  # IRRDEC_EDGE_LIMIT overrides it


@dataclass
class OracleResult:
    feasible_k: int | None
    witness: Decomposition | None
    exhausted: bool
    nodes_explored: int = 0
    searches: list = field(default_factory=list)  # (k, nodes, found) per probe

    def to_json(self) -> dict:
        wit = None
        if self.witness is not None:
            wit = {f"{u}-{v}": c for (u, v), c in sorted(self.witness.colour.items())}
        return {"k": self.feasible_k, "witness": wit,
                "exhausted": self.exhausted, "nodes_explored": self.nodes_explored}


def _edge_order(g: Graph) -> list:
    """Edges grouped around vertices in degree-ascending order, so that
    low-degree vertices finish early and the irreparable-pair prune bites."""
    order = []
    listed = set()
    for v in sorted(range(g.n), key=lambda v: (g.degree(v), v)):
        for u in g.neighbours(v):
            e = (v, u) if v < u else (u, v)
            if e not in listed:
                listed.add(e)
                order.append(e)
    return order


def _search(g: Graph, k: int, edges: list, adj_idx: list):
    """Colour assignment search at exactly k available colours, over edges
    in the order given (`_edge_order`) with their `incident_edges` lists.

    Returns (colour dict | None, nodes).  Symmetry breaking: colour c may be
    used on an edge only if colours 1..c-1 already appear earlier, so each
    colour partition is tried once.  Pruning: once both endpoints of an edge
    have all incident edges decided, their class degrees are frozen; an
    adjacent equal pair at that point can never be repaired.

    Colours are tried in ascending order and the pruning does not depend on
    k, so the colouring returned is the lexicographically least valid one
    (edge by edge) among those using at most k colours.
    """
    m = len(edges)
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


def min_parts(g: Graph, k_max: int | None = None) -> OracleResult:
    """Least k <= k_max admitting a decomposition into locally irregular
    parts, with a validated witness.  k_max = None searches up to |E|,
    which settles the question for every k.

    exhausted means the verdict is final: either a least k was found, or
    every k was ruled out (the search reached k = |E|).

    Probe order: k = 1, 2, 3; if all fail, one search at top = min(k_max,
    |E|).  Feasibility is monotone in k, so a failure at top rules out
    every k <= top.  A success there is bisected on [4, colours used],
    lowering the upper end to the colours each successful probe's witness
    uses.  The witness at the least k* equals the one a k = 1, 2, ... scan
    would return: `_search` returns the least valid colouring among those
    with at most k colours, and a least one with exactly k* colours found
    at some k >= k* is also least among those with at most k* colours.
    searches lists every probe as (k, nodes, found).
    """
    if k_max is not None and k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    m = g.m
    raw = os.environ.get("IRRDEC_EDGE_LIMIT", str(DEFAULT_EDGE_LIMIT))
    try:
        limit = int(raw)
    except ValueError:
        raise ValueError(f"IRRDEC_EDGE_LIMIT must be an integer, got {raw!r}") from None
    if limit < 0:
        raise ValueError(f"IRRDEC_EDGE_LIMIT must be >= 0, got {raw!r}")
    if m > limit:
        raise ValueError(f"graph has {m} edges, over the search limit {limit}")
    if m == 0:
        return OracleResult(0, Decomposition(g, 0, {}), True)
    top = m if k_max is None else min(k_max, m)
    edges = _edge_order(g)
    adj_idx = incident_edges(g.n, edges)
    searches = []

    def probe(k: int):
        colouring, nodes = _search(g, k, edges, adj_idx)
        searches.append((k, nodes, colouring is not None))
        return colouring

    def finish(k, colouring) -> OracleResult:
        nodes = sum(s[1] for s in searches)
        if colouring is None:
            return OracleResult(None, None, top >= m, nodes, searches)
        witness = Decomposition(g, k, colouring)
        witness.validate()
        return OracleResult(k, witness, True, nodes, searches)

    for k in range(1, min(3, top) + 1):
        colouring = probe(k)
        if colouring is not None:
            return finish(k, colouring)
    if top <= 3 or (best := probe(top)) is None:
        return finish(None, None)
    lo, hi = 4, max(best.values())
    while lo < hi:
        mid = (lo + hi) // 2
        colouring = probe(mid)
        if colouring is None:
            lo = mid + 1
        else:
            best, hi = colouring, max(colouring.values())
    return finish(hi, best)


def atlas_connected_graphs(max_vertices: int = 7):
    """All connected graphs with 1..max_vertices vertices, from the atlas
    tables (which stop at 7 vertices)."""
    if max_vertices > 7:
        raise ValueError("atlas tables stop at 7 vertices")
    out = []
    for ag in networkx.graph_atlas_g():
        n = ag.number_of_nodes()
        if n < 1 or n > max_vertices:
            continue
        if not networkx.is_connected(ag):
            continue
        relabel = {node: i for i, node in enumerate(sorted(ag.nodes()))}
        out.append(Graph(n, [(relabel[a], relabel[b]) for a, b in ag.edges()]))
    return out


def exceptions_never_decompose(max_edges: int, other_max_vertices: int = 7) -> dict:
    """Exhaustively confirm the exception catalogue on small instances.

    Checks that every odd path, odd cycle, and triangle-family member with
    at most max_edges edges is infeasible for every k, and that every other
    connected graph with at most other_max_vertices vertices is feasible,
    with infeasibility agreeing exactly with the recognizer.
    """
    exceptions = []
    for length in range(1, max_edges + 1, 2):
        exceptions.append((f"path({length})", path(length)))
    for length in range(3, max_edges + 1, 2):
        exceptions.append((f"cycle({length})", cycle(length)))
    for i, member in enumerate(t_family_members(max_edges)):
        exceptions.append((f"t_member_{i}_m{member.m}", member))

    exception_verdicts = {}
    for name, g in exceptions:
        res = min_parts(g)
        if res.feasible_k is not None or not res.exhausted:
            raise InvariantViolated(f"exception {name} is not certified infeasible: "
                                    f"least k {res.feasible_k}, exhausted {res.exhausted}")
        exception_verdicts[name] = {"edges": g.m, "infeasible": True}

    others = 0
    feasible_hist = {}
    disagreements = []
    for g in atlas_connected_graphs(other_max_vertices):
        marked = recognize_exception(g)
        res = min_parts(g)
        infeasible = res.feasible_k is None
        if infeasible != (marked is not None):
            disagreements.append({"n": g.n, "edges": sorted(g.edges),
                                  "recognizer": None if marked is None else marked.name,
                                  "oracle_k": res.feasible_k})
        if marked is None:
            others += 1
            if res.feasible_k is None:
                raise InvariantViolated(f"non-exception graph is infeasible: {sorted(g.edges)}")
            feasible_hist[res.feasible_k] = feasible_hist.get(res.feasible_k, 0) + 1
    if disagreements:
        raise InvariantViolated(f"recognizer and oracle disagree on {len(disagreements)} "
                                f"graph(s): {disagreements[:3]}")
    return {
        "exceptions": exception_verdicts,
        "other_connected_graphs": others,
        "feasible_k_histogram": {str(k): v for k, v in sorted(feasible_hist.items())},
        "recognizer_agreement": True,
    }
