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

Edges are decided in breadth-first order (`_edge_order`), a function of
the graph alone.  At position i, the frontier is the set of decided edges
that still have an open end, an end with an edge at position i or later.

Each probe with k >= 3 keeps its own table of failed states, since a
state that fails at one k may complete at a larger one.  A state's key is i,
the frontier edges' colours renamed in order of first appearance, and for
each frontier edge the frozen class degree of its finished end (an edge
with both ends open has none; which edges those are is fixed by i).  The
search returns False at once on a key it has already seen fail, and adds
its key when its subtree fails.  This is sound:

- The future of a state reads only the class degrees of open vertices and,
  for each frontier edge, its colour and the frozen class degree of its
  finished end.  Every decided edge at an open vertex is a frontier edge,
  so the key fixes both.
- A colour on no frontier edge has class degree 0 at every open vertex, so
  it can be swapped with an unused colour.  For the same k, two states with
  equal keys therefore have completions in one-to-one correspondence, and
  since the symmetry breaking only drops colour permutations, one subtree
  fails if and only if the other does.
- The table cuts only subtrees that have already failed, so the search
  meets the same first valid colouring.  The witness, the least k and
  `exhausted` are those of the search without it; only the node count
  drops.

The table is kept only where it pays, and the line falls at k = 3.  The
exception families (odd paths, odd cycles, the triangle family) can only
be certified by exhausting the k = 3 probe, and they do it on a narrow
frontier (maximum degree <= 3), where keys are cheap and repeat: cycle(17)
takes 79 nodes at k = 3 with the table against 639 without.  At k = 2 the
graphs that exhaust are dense ones, on a wide frontier, where a key costs
about as much as a node and seldom repeats: K7's k = 2 probe takes 116,728
nodes with a table against 120,928 without, and about 3.5 times as long
(0.56 s against 0.16 s in process on a 2-vCPU Xeon host).  So k = 1 and 2
keep no table, and a graph settled at k <= 2 never builds one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..graph_core import Decomposition, Graph, InvariantViolated

DEFAULT_EDGE_LIMIT = 22  # min_parts refuses a graph with more edges


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
    """Edges in breadth-first order, a function of the graph alone.

    Each component starts at its least (degree, id) vertex, and each vertex
    takes its neighbours by ascending (degree, id).  When a vertex is
    dequeued, its edges not yet listed (those to vertices not yet dequeued)
    are appended in that order.  Vertices finish close to where they start,
    so the irreparable-pair prune bites early, and the frontier stays narrow
    on the graphs of maximum degree <= 3 that the top probe has to exhaust.
    """
    deg = g.degrees()
    rank = sorted(range(g.n), key=lambda v: (deg[v], v))
    pos = [0] * g.n
    for r, v in enumerate(rank):
        pos[v] = r
    queued = [False] * g.n
    dequeued = [False] * g.n
    order = []
    for s in rank:
        if queued[s]:
            continue
        queued[s] = True
        queue = deque([s])
        while queue:
            v = queue.popleft()
            dequeued[v] = True
            for u in sorted(g.neighbours(v), key=pos.__getitem__):
                if not dequeued[u]:
                    order.append((v, u) if v < u else (u, v))
                    if not queued[u]:
                        queued[u] = True
                        queue.append(u)
    return order


def _incidence(edges: list, n: int) -> list:
    """inc[v] = the (position, other end) pairs of the edges at v."""
    inc = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        inc[u].append((i, v))
        inc[v].append((i, u))
    return inc


class _Frontiers(dict):
    """frontier[i] for a position i: the positions j < i of the frontier
    edges, and the (j, finished end) pairs of those with a finished end.
    A row is built the first time it is read and kept, so the probes that
    share the table build each row once, and only where a search reads it."""

    def __init__(self, edges: list, n: int):
        super().__init__()
        self.edges = edges
        self.last = last = [0] * n  # the last position of an edge at each vertex
        for j, (u, v) in enumerate(edges):
            last[u] = last[v] = j

    def __missing__(self, i: int) -> tuple:
        edges, last = self.edges, self.last
        live = [j for j in range(i) if last[edges[j][0]] >= i or last[edges[j][1]] >= i]
        row = self[i] = (live, [(j, x) for j in live for x in edges[j] if last[x] < i])
        return row


def _search(g: Graph, k: int, edges: list, inc: list, frontier: _Frontiers | None = None):
    """Colour assignment search at exactly k available colours, over edges
    in the order given (`_edge_order`), with their `_incidence` lists.  With
    a `_Frontiers` table the search keeps a table of failed states (see the
    module docstring), as `min_parts` has it do from k = 3 on; with None it
    keeps none.  A state's key is taken only at a position where a failure
    is already recorded, and when its subtree fails: a key cannot be in the
    table before some state at its position has failed, and the state a
    failed subtree leaves is the one it entered.

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
    undecided = g.degrees()
    class_deg = [[0] * (k + 1) for _ in range(g.n)]
    colour = [0] * m
    nodes = 0
    failed = None if frontier is None else set()
    failed_at = [False] * m  # failed_at[i]: a failed key at position i is recorded

    def state_key(i: int) -> tuple:
        # plain loops: about twice as fast as comprehensions on a frontier
        # of a few edges, since a key is taken at every recorded failure
        live, finished = frontier[i]
        names = {}
        key = [i]
        for j in live:
            key.append(names.setdefault(colour[j], len(names)))
        for j, x in finished:
            key.append(class_deg[x][colour[j]])
        return tuple(key)

    def frozen_conflict(w) -> bool:
        # w just became finished; compare against finished neighbours
        dw = class_deg[w]
        for i, x in inc[w]:
            if undecided[x] == 0:
                c = colour[i]
                if dw[c] == class_deg[x][c]:
                    return True
        return False

    def rec(i: int, max_used: int) -> bool:
        nonlocal nodes
        nodes += 1
        if i == m:
            return True
        key = None
        if failed is not None and failed_at[i]:
            key = state_key(i)
            if key in failed:
                return False
        u, v = edges[i]
        du, dv = class_deg[u], class_deg[v]
        for c in range(1, (max_used + 2 if max_used < k else k + 1)):
            colour[i] = c
            du[c] += 1
            dv[c] += 1
            undecided[u] -= 1
            undecided[v] -= 1
            if not ((undecided[u] == 0 and frozen_conflict(u))
                    or (undecided[v] == 0 and frozen_conflict(v))) \
                    and rec(i + 1, c if c > max_used else max_used):
                return True
            undecided[u] += 1
            undecided[v] += 1
            du[c] -= 1
            dv[c] -= 1
        colour[i] = 0
        if failed is not None:
            failed.add(state_key(i) if key is None else key)
            failed_at[i] = True
        return False

    if rec(0, 0):
        return {e: colour[i] for i, e in enumerate(edges)}, nodes
    return None, nodes


def _check_irregular(dec: Decomposition) -> None:
    """Every edge joins two vertices of different degree in its own colour
    class, checked on its own in O(m): class degrees first, then each edge."""
    class_deg = [[0] * (dec.k + 1) for _ in range(dec.graph.n)]
    items = dec.colour.items()
    for (u, v), c in items:
        class_deg[u][c] += 1
        class_deg[v][c] += 1
    for (u, v), c in items:
        if class_deg[u][c] == class_deg[v][c]:
            raise InvariantViolated(f"witness edge {u}-{v} of colour {c}: both ends have "
                                    f"class degree {class_deg[u][c]}")


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
    The probes from k = 3 on share one `_Frontiers` table, made just
    before the k = 3 probe; k = 1 and 2 run without one.  The witness is
    re-checked on its own: `Decomposition.validate` for the edge cover and
    the colour range, then `_check_irregular` for local irregularity.
    searches lists every probe as (k, nodes, found).
    """
    if k_max is not None and k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    m = g.m
    if m > DEFAULT_EDGE_LIMIT:
        raise ValueError(f"graph has {m} edges, over the search limit {DEFAULT_EDGE_LIMIT}")
    if m == 0:
        return OracleResult(0, Decomposition(g, 0, {}), True)
    top = m if k_max is None else min(k_max, m)
    edges = _edge_order(g)
    inc = _incidence(edges, g.n)
    searches = []

    def probe(k: int, frontier=None):
        colouring, nodes = _search(g, k, edges, inc, frontier)
        searches.append((k, nodes, colouring is not None))
        return colouring

    def finish(k, colouring) -> OracleResult:
        nodes = sum(s[1] for s in searches)
        if colouring is None:
            return OracleResult(None, None, top >= m, nodes, searches)
        witness = Decomposition(g, k, colouring)
        witness.validate()
        _check_irregular(witness)
        return OracleResult(k, witness, True, nodes, searches)

    for k in range(1, min(2, top) + 1):
        colouring = probe(k)
        if colouring is not None:
            return finish(k, colouring)
    if top <= 2:
        return finish(None, None)
    frontier = _Frontiers(edges, g.n)
    if (colouring := probe(3, frontier)) is not None:
        return finish(3, colouring)
    if top == 3:
        return finish(None, None)
    if (best := probe(top, frontier)) is None:
        return finish(None, None)
    lo, hi = 4, max(best.values())
    while lo < hi:
        mid = (lo + hi) // 2
        colouring = probe(mid, frontier)
        if colouring is None:
            lo = mid + 1
        else:
            best, hi = colouring, max(colouring.values())
    return finish(hi, best)


def atlas_connected_graphs(max_vertices: int = 7):
    """All connected graphs with 1..max_vertices vertices, from the atlas
    tables (which stop at 7 vertices).  This call imports networkx."""
    if max_vertices > 7:
        raise ValueError("atlas tables stop at 7 vertices")
    # the only reader of networkx; importing it costs about 0.12 s and 14 MB a process
    import networkx

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

