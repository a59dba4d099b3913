"""Simple undirected graphs, edge decompositions, generators, and the
recognizer for the three exception families (odd paths, odd cycles, and the
triangle-based family that never decomposes).
"""

from __future__ import annotations

import enum
import random
import re
from dataclasses import dataclass
from itertools import combinations, compress
from operator import lt


# parse_edge_list cap; a Graph counts degrees per vertex when built and
# builds its per-vertex neighbour sets on first use
MAX_VERTICES = 10**5


class InvariantViolated(AssertionError):
    """A broken structural invariant; unlike a bare assert, `python -O` keeps it."""


def canon_edge(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple graph on vertices 0..n-1 with a canonical edge set.

    The constructor checks each edge (no self-loop, ends in 0..n-1) and
    stores it as (u, v) with u < v.  _canonical trusts its edges to be
    distinct canonical pairs in range already; only parse_edge_list (which
    checks 0 <= u < v < n over the whole id list, and duplicates by the size
    of the edge set), without_edges (a subset of self.edges), random_regular
    (pairs it keeps canonical and distinct as it draws them) and the factor
    solvers (a subset of the host's edges) call it.
    The edge set is frozen from the set each caller built, so equal graphs
    built by different paths may iterate in different orders; no result
    reads that order (the oracle's edge order is a function of the graph).

    Degrees are counted when the graph is built.  The neighbour sets are
    built on the first call to neighbours or components, so a graph whose
    users read only degrees (the decompose path up to part 1) never builds
    them.  degree(v) and neighbours(v) are defined for v in 0..n-1 only; both
    index a list, so no other id is checked.
    """

    __slots__ = ("n", "edges", "_deg", "_adj")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        es = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            if not (0 <= u and v < n):
                raise ValueError(f"edge {(u, v)} outside vertex range 0..{n - 1}")
            es.add((u, v))
        self._build(n, es)

    @classmethod
    def _canonical(cls, n: int, edges) -> "Graph":
        """A graph on edges already checked to be distinct pairs 0 <= u < v < n."""
        g = cls.__new__(cls)
        g._build(n, edges)
        return g

    def _build(self, n: int, es) -> None:
        self.n = n
        self.edges = frozenset(es)
        deg = [0] * n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        self._deg = deg
        self._adj = None

    def _build_neighbours(self) -> None:
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = [frozenset(set(a)) for a in adj]  # via set(): the order one add() each gives

    def degree(self, v: int) -> int:
        return self._deg[v]

    def degrees(self) -> list[int]:
        return self._deg[:]

    def neighbours(self, v: int) -> frozenset:
        if self._adj is None:
            self._build_neighbours()
        return self._adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return canon_edge(u, v) in self.edges

    @property
    def m(self) -> int:
        return len(self.edges)

    def min_degree(self) -> int:
        return min(self._deg) if self.n else 0

    def max_degree(self) -> int:
        return max(self._deg) if self.n else 0

    def spanning(self, edges) -> "Graph":
        """Spanning subgraph on the same vertex set with the given edges."""
        return Graph(self.n, edges)

    def without_edges(self, edges) -> "Graph":
        drop = {canon_edge(u, v) for u, v in edges}
        return Graph._canonical(self.n, self.edges - drop)

    def components(self) -> list[frozenset]:
        return list(self._components_of(range(self.n)))

    def _components_of(self, starts):
        """The components that hold the vertices of starts, each once, in
        the order of its first vertex in starts."""
        seen = set()
        for s in starts:
            if s in seen:
                continue
            comp = {s}
            stack = [s]
            while stack:
                for y in self.neighbours(stack.pop()):
                    if y not in comp:
                        comp.add(y)
                        stack.append(y)
            seen |= comp
            yield frozenset(comp)

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def incident_edges(n: int, edges: list) -> list:
    """incident[v] = the positions in edges of the edges at v, ascending."""
    incident = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        incident[u].append(i)
        incident[v].append(i)
    return incident


def is_locally_irregular(g: Graph) -> bool:
    """True iff every edge joins vertices of distinct degree."""
    deg = g.degrees()
    return all(deg[u] != deg[v] for u, v in g.edges)


@dataclass(eq=False)
class Decomposition:
    """Edge colouring of a graph with colours 1..k; empty classes are fine."""

    graph: Graph
    k: int
    colour: dict

    def validate(self) -> None:
        missing = self.graph.edges - set(self.colour)
        if missing:
            raise ValueError(f"uncoloured edges: {sorted(missing)[:5]}")
        extra = set(self.colour) - self.graph.edges
        if extra:
            raise ValueError(f"coloured non-edges: {sorted(extra)[:5]}")
        for e, c in self.colour.items():
            if not (1 <= c <= self.k):
                raise ValueError(f"edge {e} has colour {c} outside 1..{self.k}")

    def class_edges(self, i: int) -> frozenset:
        return frozenset(e for e, c in self.colour.items() if c == i)

    def class_subgraph(self, i: int) -> Graph:
        return self.graph.spanning(self.class_edges(i))


def is_locally_irregular_decomposition(dec: Decomposition) -> bool:
    dec.validate()
    return all(is_locally_irregular(dec.class_subgraph(i)) for i in range(1, dec.k + 1))


# ---------------------------------------------------------------------------
# generators

def path(m: int) -> Graph:
    """Path with m edges (m+1 vertices); m = 0 gives a single vertex."""
    if m < 0:
        raise ValueError("path length must be >= 0")
    return Graph(m + 1, [(i, i + 1) for i in range(m)])


def cycle(m: int) -> Graph:
    if m < 3:
        raise ValueError("cycle needs length >= 3")
    return Graph(m, [(i, (i + 1) % m) for i in range(m)])


def complete(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 0 or b < 0:
        raise ValueError("part sizes must be >= 0")
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def gnp(n: int, p: float, seed: int) -> Graph:
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(n, edges)


def _shuffle(x: list, rng: random.Random) -> None:
    """rng.shuffle(x), made through rng.getrandbits with the calls the stdlib
    makes: for i = len(x) - 1 down to 1, swap x[i] with x[j], where j is
    _randbelow(i + 1), that is getrandbits(k) for k = (i + 1).bit_length(),
    redrawn while j > i.  The permutation and rng's state after the call are
    Random.shuffle's; one loop per bit length k spares the frames of the
    stdlib's two wrappers and the bit_length call per swap."""
    getrandbits = rng.getrandbits
    i = len(x) - 1
    while i > 0:
        k = (i + 1).bit_length()
        low = 1 << (k - 1)  # the least i + 1 of k bits
        for i in range(i, max(low - 2, 0), -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]
        i = low - 2


def random_regular(n: int, d: int, seed: int) -> Graph:
    """d-regular graph on n vertices via the pairing model.

    Pairs up half-edges in shuffled passes, keeping pairs that form new
    simple edges and recycling the rest; restarts from scratch when the
    leftover stubs admit no further simple edge.  Deterministic in the seed.

    Every draw is Random.shuffle's own on random.Random(seed), made through
    getrandbits (_shuffle): the same calls, so the same graphs and the same
    generator state as a stdlib shuffle.  The edges are kept canonical and
    distinct as they are drawn, so the graph is built without re-checking
    them.  A near-complete request is slow: a stuck attempt restarts from
    scratch, and random_regular(30, 28, seed=1) spends 653 attempts, about
    0.4 s on a 2-vCPU Intel Xeon host (0.6-0.9 s through Random.shuffle).
    A cheaper restart policy would move every generated graph.
    """
    if d < 0 or n < 0:
        raise ValueError("n and d must be >= 0")
    if (n * d) % 2 != 0:
        raise ValueError("n * d must be even")
    if d >= n and not (n == 0 and d == 0):
        raise ValueError("need d < n")
    if d == 0:
        return Graph(n)
    rng = random.Random(seed)

    def attempt():
        edges = set()
        add = edges.add
        stubs = [v for v in range(n) for _ in range(d)]
        while stubs:
            _shuffle(stubs, rng)
            leftover = []
            it = iter(stubs)
            for u, v in zip(it, it):
                if u < v:
                    e = (u, v)
                elif u > v:
                    e = (v, u)
                else:
                    leftover += u, v
                    continue
                if e in edges:
                    leftover += u, v
                else:
                    add(e)
            if leftover and edges.issuperset(combinations(sorted(set(leftover)), 2)):
                return None  # the leftover stubs' vertices already form a clique
            stubs = leftover
        return edges

    edges = attempt()
    while edges is None:
        edges = attempt()
    return Graph._canonical(n, edges)


def spider(length: int) -> Graph:
    """One edge uv with two hanging paths of the given even length at each end.

    10 vertices and 9 edges for length 2: the two centres have degree 3,
    each hanging path contributes interior degree-2 vertices and one leaf.
    """
    if length < 2 or length % 2 != 0:
        raise ValueError("hanging path length must be even and >= 2")
    edges = [(0, 1)]
    nxt = 2
    for centre in (0, 1):
        for _ in range(2):
            prev = centre
            for _ in range(length):
                edges.append((prev, nxt))
                prev = nxt
                nxt += 1
    return Graph(nxt, edges)


def t_family(script=()) -> Graph:
    """Member of the triangle-based exception family.

    Starts from a triangle; each step (attach, length, glue) appends at a
    degree-2 vertex `attach` lying on a triangle either a hanging path of
    even length (glue False) or a hanging path of odd length with a
    triangle glued to its far end (glue True).
    """
    edges = {(0, 1), (0, 2), (1, 2)}
    n = 3
    for step_no, (attach, length, glue) in enumerate(script):
        g = Graph(n, edges)
        if not (0 <= attach < n):
            raise ValueError(f"step {step_no}: attach vertex {attach} out of range")
        if g.degree(attach) != 2:
            raise ValueError(f"step {step_no}: attach vertex {attach} has degree {g.degree(attach)}, need 2")
        if not _on_triangle(g, attach):
            raise ValueError(f"step {step_no}: attach vertex {attach} is not on a triangle")
        if glue:
            if length < 1 or length % 2 == 0:
                raise ValueError(f"step {step_no}: glued construction needs odd path length >= 1")
        else:
            if length < 2 or length % 2 == 1:
                raise ValueError(f"step {step_no}: plain path must have even length >= 2")
        prev = attach
        for _ in range(length):
            edges.add(canon_edge(prev, n))
            prev = n
            n += 1
        if glue:
            x, y = n, n + 1
            edges.add(canon_edge(prev, x))
            edges.add(canon_edge(prev, y))
            edges.add(canon_edge(x, y))
            n += 2
    return Graph(n, edges)


def _on_triangle(g: Graph, v: int) -> bool:
    nb = sorted(g.neighbours(v))
    return any(g.has_edge(a, b) for i, a in enumerate(nb) for b in nb[i + 1:])


GENERATORS = {
    "path": path,
    "cycle": cycle,
    "complete": complete,
    "complete_bipartite": complete_bipartite,
    "gnp": gnp,
    "random_regular": random_regular,
    "spider": spider,
}
RANDOMIZED_FAMILIES = ("gnp", "random_regular")  # the families that take a seed


MAX_GENERATED_EDGES = 10**6

# (vertices, edges or the pairs scanned) of each family in GENERATORS,
# known before building, so that a huge request fails fast
_GENERATED_SIZE = {
    "path": lambda m: (m + 1, m),
    "cycle": lambda m: (m, m),
    "complete": lambda n: (n, n * (n - 1) // 2),
    "complete_bipartite": lambda a, b: (a + b, a * b),
    "gnp": lambda n, p: (n, n * (n - 1) // 2),
    "random_regular": lambda n, d: (n, n * d // 2),
    "spider": lambda length: (4 * length + 2, 4 * length + 1),
}


def generate(family: str, params: dict, seed: int | None = None) -> Graph:
    """Dispatch wrapper used by the CLI; seeded families require a seed, and
    requests over MAX_VERTICES vertices or MAX_GENERATED_EDGES edges are
    refused before anything is built."""
    if family not in GENERATORS:
        raise ValueError(f"unknown family {family!r}")
    n, m = _GENERATED_SIZE[family](**params)
    if n > MAX_VERTICES or m > MAX_GENERATED_EDGES:
        raise ValueError(f"{family} {params} has {n} vertices and up to {m} edges; the limits "
                         f"are {MAX_VERTICES} and {MAX_GENERATED_EDGES}")
    fn = GENERATORS[family]
    if family in RANDOMIZED_FAMILIES:
        if seed is None:
            raise ValueError(f"{family} requires a seed")
        return fn(**params, seed=seed)
    return fn(**params)


# ---------------------------------------------------------------------------
# edge-list format: first line n, then one "u v" pair per line, '#' comments.
# Lines break at '\n' only (a trailing '\r' is whitespace, so "\r\n" works);
# the count and the vertex ids are strings of ASCII digits.  The body after
# the header loses its comments in one pass and is then checked in a few
# passes over the whole text: one search for a bad line, one int() per
# distinct id spelling (a table the ids are then looked up in), then the
# order, range and duplicate tests over the id slices.  Only a
# rejected body is walked line by line, to name the first line at fault.

_COMMENT = re.compile(r"#[^\n]*")
# a line that is neither blank nor two ASCII-digit tokens, in a body that
# starts with the header's '\n'; [^\S\n] is any whitespace but '\n'.
# Anchoring on a literal '\n', not on `^` under re.M, lets the engine jump
# from line to line.  Each line costs time linear in its length: no
# quantifier nests, so a failed match backtracks one step per character.
_BAD_LINE = re.compile(r"\n(?![^\S\n]*(?:[0-9]+[^\S\n]+[0-9]+[^\S\n]*)?$)", re.M)


def parse_edge_list(text: str) -> Graph:
    start, hdr_no = 0, 1
    while True:  # the header is the first line with more than a comment
        end = text.find("\n", start)
        line = text[start:] if end < 0 else text[start:end]
        hdr = line.split("#", 1)[0].strip()
        if hdr:
            break
        if end < 0:
            raise ValueError("empty edge list: missing vertex-count header")
        start, hdr_no = end + 1, hdr_no + 1
    if not (hdr.isascii() and hdr.isdigit()):
        raise ValueError(f"line {hdr_no}: vertex count expected, got {hdr!r}")
    count = hdr.lstrip("0") or "0"  # int() refuses strings of over 4,300 digits
    if len(count) > len(str(MAX_VERTICES)) or int(count) > MAX_VERTICES:
        raise ValueError(f"line {hdr_no}: vertex count {count} exceeds the limit {MAX_VERTICES}")
    n = int(count)
    body = _COMMENT.sub("", text[end:]) if end >= 0 else ""  # keeps the header's '\n'
    edges = _batch_edges(body, n)
    if edges is None:  # split's first piece is the empty rest of the header line
        _raise_line_fault(enumerate(body.split("\n"), start=hdr_no), n)
    return Graph._canonical(n, edges)


def _batch_edges(body: str, n: int):
    """The frozenset of the edges of a comment-free body that is empty or
    starts with a newline, added in file order, or None if any line breaks a
    rule."""
    if _BAD_LINE.search(body):
        return None
    tokens = body.split()
    try:  # each distinct spelling once: a vertex's id recurs about once per edge at it
        value = {t: int(t) for t in set(tokens)}
    except ValueError:  # int() refuses strings of over 4,300 digits
        return None
    ids = list(map(value.__getitem__, tokens))
    us, vs = ids[0::2], ids[1::2]
    if not all(map(lt, us, vs)) or max(vs, default=-1) >= n:
        return None
    edges = frozenset(zip(us, vs))  # Graph._build keeps this very object
    return edges if len(edges) == len(us) else None


def _raise_line_fault(lines, n: int):
    """Raise the ValueError that names the first bad (number, line) of a
    comment-free body the batch checks rejected."""
    edges = set()
    for ln_no, raw in lines:
        parts = raw.split()
        if len(parts) != 2:
            if not parts:
                continue
            raise ValueError(f"line {ln_no}: expected 'u v', got {raw.strip()!r}")
        a, b = parts
        # int() alone would also read a sign, '_' and non-ASCII digits
        if not (a.isdigit() and b.isdigit() and a.isascii() and b.isascii()):
            raise ValueError(f"line {ln_no}: non-integer vertex id in {raw.strip()!r}")
        try:
            u, v = int(a), int(b)
        except ValueError:
            raise ValueError(f"line {ln_no}: vertex id of over 4,300 digits") from None
        if u == v:
            raise ValueError(f"line {ln_no}: self-loop at {u}")
        if not (0 <= u < v < n):
            raise ValueError(f"line {ln_no}: need 0 <= u < v < n, got {u} {v} with n={n}")
        e = (u, v)
        if e in edges:
            raise ValueError(f"line {ln_no}: duplicate edge {u} {v}")
        edges.add(e)
    raise InvariantViolated("the batch checks rejected an edge list whose every line passes")


def serialize_edge_list(g: Graph) -> str:
    out = [str(g.n)]
    out.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# exception families

class ExceptionFamily(enum.Enum):
    ODD_PATH = "odd_path"
    ODD_CYCLE = "odd_cycle"
    T_FAMILY = "t_family"


def recognize_exception(g: Graph):
    """Classify a connected graph as one of the exception families, or None.

    The bare triangle is both an odd cycle and the base of the T family; the
    cycle test runs first, so it reports ODD_CYCLE.
    """
    if not g.is_connected():
        raise ValueError("exception recognition needs a connected graph")
    deg = g.degrees()
    if g.n >= 2 and all(d <= 2 for d in deg):
        leaves = sum(1 for d in deg if d == 1)
        if leaves == 2 and g.m == g.n - 1:
            return ExceptionFamily.ODD_PATH if g.m % 2 == 1 else None
        if leaves == 0 and all(d == 2 for d in deg):
            return ExceptionFamily.ODD_CYCLE if g.m % 2 == 1 else None
    if is_t_member(g):
        return ExceptionFamily.T_FAMILY
    return None


def exception_components(g: Graph) -> list:
    """The components of g that recognize_exception names, in component
    order, each as {"vertices": its sorted ids, "family": the family name}.

    Every family has maximum degree <= 3, so a graph of minimum degree > 3
    has no such component, and its neighbour sets stay unbuilt.  Every
    family has an edge, so the walk starts only at vertices of positive
    degree: an isolated vertex is never visited, and a graph without edges
    never builds its neighbour sets.
    """
    if g.min_degree() > 3:
        return []
    deg = g.degrees()
    found = []
    for comp in g._components_of(compress(range(g.n), deg)):
        if any(deg[v] > 3 for v in comp):
            continue
        vs = sorted(comp)
        relabel = {v: i for i, v in enumerate(vs)}
        sub = Graph(len(vs), [(relabel[u], relabel[w])
                              for u in vs for w in g.neighbours(u) if u < w])
        family = recognize_exception(sub)
        if family is not None:
            found.append({"vertices": vs, "family": family.value})
    return found


def is_t_member(g: Graph) -> bool:
    """Membership in the triangle-based family, by its structure.

    A connected G is a member iff (a) its maximum degree is <= 3; (b) it has
    t >= 1 triangles, pairwise vertex-disjoint; (c) m = n - 1 + t, so every
    cycle of G is one of its triangles; (d) every degree-3 vertex lies on a
    triangle; (e) without the triangle edges, G falls into paths, of odd
    length between two triangle vertices and of even length to a leaf.
    Necessity: the triangle has (a)-(e), and each construction step (an even
    pendant path, or an odd path ending in a glued triangle, hung at a
    degree-2 triangle vertex) keeps them.  Sufficiency: by (c), contracting
    the triangles leaves a tree; rooted at a triangle, its deepest unit is
    such a path or path-plus-triangle, removing it keeps (a)-(e), and
    induction on m rebuilds G by construction steps.  Counting t as
    floor(vertices on triangles / 3) makes (c) imply the disjointness in
    (b): under (a), triangles sharing a vertex form a K4 - e or a K4, with 4
    vertices but 2 or 3 independent cycles.  By (a), (c) and (d), what
    remains in (e) is a forest of maximum degree 2, that is, paths.
    """
    if g.max_degree() > 3 or not g.is_connected():
        return False
    triangle_of = {v: (v, a, b) for v in range(g.n)
                   for a, b in combinations(sorted(g.neighbours(v)), 2) if g.has_edge(a, b)}
    t = len(triangle_of) // 3
    if t == 0 or g.m != g.n - 1 + t or any(
            g.degree(v) == 3 and v not in triangle_of for v in range(g.n)):
        return False
    for v, tri in triangle_of.items():
        if g.degree(v) != 3:
            continue
        (cur,) = (w for w in g.neighbours(v) if w not in tri)
        prev, length = v, 1
        while cur not in triangle_of and g.degree(cur) == 2:
            prev, cur = cur, next(w for w in g.neighbours(cur) if w != prev)
            length += 1
        if (cur in triangle_of) != (length % 2 == 1):
            return False
    return True


def t_family_members(max_edges: int):
    """All family members with at most max_edges edges, up to isomorphism."""
    base = t_family()
    seen = [base]
    frontier = [((), base)]
    while frontier:
        new_frontier = []
        for script, g in frontier:
            budget = max_edges - g.m
            if budget < 2:
                continue
            attach_points = [v for v in range(g.n) if g.degree(v) == 2 and _on_triangle(g, v)]
            steps = []
            for length in range(2, budget + 1, 2):
                steps.append((length, False))
            for length in range(1, budget - 2, 2):
                steps.append((length, True))
            for v in attach_points:
                for length, glue in steps:
                    s2 = script + ((v, length, glue),)
                    g2 = t_family(s2)
                    if g2.m > max_edges:
                        continue
                    if not any(_isomorphic(g2, h) for h in seen):
                        seen.append(g2)
                        new_frontier.append((s2, g2))
        frontier = new_frontier
    return seen


def _isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism for the small graphs handled here (refinement plus
    backtracking); only used to dedupe generated family members."""
    if g1.n != g2.n or g1.m != g2.m or sorted(g1.degrees()) != sorted(g2.degrees()):
        return False

    def refine(g):
        colour = {v: g.degree(v) for v in range(g.n)}
        for _ in range(g.n):
            nxt = {v: (colour[v], tuple(sorted(colour[w] for w in g.neighbours(v)))) for v in range(g.n)}
            ranks = {key: i for i, key in enumerate(sorted(set(nxt.values())))}
            new = {v: ranks[nxt[v]] for v in range(g.n)}
            if new == colour:
                break
            colour = new
        return colour

    c1, c2 = refine(g1), refine(g2)
    if sorted(c1.values()) != sorted(c2.values()):
        return False
    order = sorted(range(g1.n), key=lambda v: (sum(1 for w in c1 if c1[w] == c1[v]), c1[v], -g1.degree(v)))
    used = set()
    mapping = {}

    def extend(i):
        if i == len(order):
            return True
        v = order[i]
        for w in range(g2.n):
            if w in used or c2[w] != c1[v]:
                continue
            ok = True
            for x, y in mapping.items():
                if g1.has_edge(v, x) != g2.has_edge(w, y):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used.add(w)
                if extend(i + 1):
                    return True
                del mapping[v]
                used.discard(w)
        return False

    return extend(0)
