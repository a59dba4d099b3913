import hashlib
import json
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import irrdec.graph_core as graph_core
from irrdec.graph_core import (
    MAX_VERTICES,
    Decomposition,
    ExceptionFamily,
    Graph,
    InvariantViolated,
    _isomorphic,
    _shuffle,
    canon_edge,
    complete,
    complete_bipartite,
    cycle,
    generate,
    gnp,
    is_locally_irregular,
    is_locally_irregular_decomposition,
    is_t_member,
    parse_edge_list,
    path,
    random_regular,
    recognize_exception,
    serialize_edge_list,
    spider,
    t_family,
    t_family_members,
)
from irrdec.oracle import DEFAULT_EDGE_LIMIT, _edge_order, min_parts


class TestGraph:
    def test_canon_edge(self):
        assert canon_edge(3, 1) == (1, 3)
        with pytest.raises(ValueError):
            canon_edge(2, 2)

    def test_basics(self):
        g = Graph(4, [(0, 1), (2, 1), (2, 3)])
        assert g.m == 3
        assert g.degree(1) == 2
        assert g.degrees() == [1, 2, 2, 1]
        assert g.neighbours(2) == frozenset({1, 3})
        assert g.has_edge(1, 0) and not g.has_edge(0, 3)
        assert g.min_degree() == 1 and g.max_degree() == 2

    def test_edge_range_check(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_subgraph_ops(self):
        g = complete(4)
        h = g.without_edges([(0, 1), (2, 3)])
        assert h.n == 4 and h.m == 4
        s = g.spanning([(0, 1), (2, 3)])
        assert s.n == 4 and s.edges == frozenset({(0, 1), (2, 3)})

    def test_components(self):
        g = Graph(5, [(0, 1), (2, 3)])
        comps = sorted(map(sorted, g.components()))
        assert comps == [[0, 1], [2, 3], [4]]
        assert not g.is_connected()
        assert cycle(5).is_connected()

    def test_equality_and_hash(self):
        assert Graph(3, [(0, 1)]) == Graph(3, [(1, 0)])
        assert Graph(3, [(0, 1)]) != Graph(4, [(0, 1)])
        assert len({Graph(3, [(0, 1)]), Graph(3, [(0, 1)])}) == 1


class TestLocalIrregularity:
    def test_examples(self):
        assert is_locally_irregular(path(2))
        assert not is_locally_irregular(path(1))
        assert not is_locally_irregular(path(3))
        assert not is_locally_irregular(cycle(4))
        assert is_locally_irregular(complete_bipartite(1, 3))
        assert is_locally_irregular(Graph(3, []))

    def test_decomposition_validate(self):
        g = path(2)
        Decomposition(g, 1, {(0, 1): 1, (1, 2): 1}).validate()
        with pytest.raises(ValueError):
            Decomposition(g, 1, {(0, 1): 1}).validate()  # missing edge
        with pytest.raises(ValueError):
            Decomposition(g, 1, {(0, 1): 1, (1, 2): 2}).validate()  # colour > k
        with pytest.raises(ValueError):
            Decomposition(g, 1, {(0, 1): 1, (1, 2): 1, (0, 2): 1}).validate()

    def test_decomposition_checker(self):
        g = cycle(4)
        # adjacent edge pairs form two paths with a degree-2 middle vertex
        good = Decomposition(g, 2, {(0, 1): 1, (1, 2): 1, (2, 3): 2, (0, 3): 2})
        assert is_locally_irregular_decomposition(good)
        bad = Decomposition(g, 1, {e: 1 for e in g.edges})
        assert not is_locally_irregular_decomposition(bad)
        # a class of two disjoint single edges has equal endpoint degrees
        pairs = Decomposition(g, 2, {(0, 1): 1, (2, 3): 1, (1, 2): 2, (0, 3): 2})
        assert not is_locally_irregular_decomposition(pairs)
        # empty classes are fine
        padded = Decomposition(g, 3, {(0, 1): 1, (1, 2): 1, (2, 3): 3, (0, 3): 3})
        assert is_locally_irregular_decomposition(padded)


class TestGenerators:
    def test_shapes(self):
        assert path(0).n == 1 and path(0).m == 0
        assert path(4).degrees() == [1, 2, 2, 2, 1]
        assert cycle(5).degrees() == [2] * 5
        assert complete(5).m == 10
        g = complete_bipartite(3, 4)
        assert g.m == 12 and sorted(g.degrees()) == [3, 3, 3, 3, 4, 4, 4]
        with pytest.raises(ValueError, match="path length must be >= 0"):
            path(-1)
        with pytest.raises(ValueError, match="part sizes must be >= 0"):
            complete_bipartite(-1, 2)

    def test_spider_profile(self):
        g = spider(2)
        assert g.n == 10 and g.m == 9
        assert sorted(g.degrees()) == [1, 1, 1, 1, 2, 2, 2, 2, 3, 3]
        assert g.is_connected()
        with pytest.raises(ValueError):
            spider(3)  # odd hanging paths change the example

    def test_gnp_deterministic(self):
        a = gnp(20, 0.3, seed=5)
        b = gnp(20, 0.3, seed=5)
        c = gnp(20, 0.3, seed=6)
        assert a == b
        assert a != c
        with pytest.raises(ValueError, match=r"p must be in \[0, 1\]"):
            gnp(4, 1.5, 0)

    def test_random_regular(self):
        g = random_regular(60, 12, seed=7)
        assert g.degrees() == [12] * 60
        assert g == random_regular(60, 12, seed=7)
        with pytest.raises(ValueError):
            random_regular(5, 3, seed=1)  # odd degree sum
        with pytest.raises(ValueError):
            random_regular(4, 4, seed=1)
        with pytest.raises(ValueError, match="n and d must be >= 0"):
            random_regular(-2, 2, 0)

    @pytest.mark.parametrize("n, d, seed, digest", [
        (240, 22, 1, "3f2944288f877710b4572a5549bc49ec889ff42c6aa23ba5550cf19c9edab62f"),
        (30, 28, 1, "22354c79e6cf6cad4d3580b0187eb69d594623f28a2393bdc248472820f63fbb"),
        (700, 30, 2, "a02cca8cb36068ff97be4a194feafb482db2d8902c4226c32afa0382bcf73123"),
        (18, 16, 3, "9707ae353a70d0df7b7eddbb87b0bc4e57ebcd9073814ae42a26fc3181468f68"),
    ], ids=["240-22-1", "30-28-1", "700-30-2", "18-16-3"])
    def test_random_regular_frozen(self, n, d, seed, digest):
        # frozen values: every generated graph, and so every digest over one, stays put
        edges = sorted(random_regular(n, d, seed=seed).edges)
        assert hashlib.sha256(json.dumps(edges).encode()).hexdigest() == digest

    def test_shuffle_is_the_stdlib_shuffle(self):
        # one stream per seed over every length, so a draw too many or too
        # few at any length moves every later permutation and the final state
        boundaries = {n for k in range(1, 9) for n in (2**k - 1, 2**k, 2**k + 1)}
        for seed in range(50):
            ref, rng = random.Random(seed), random.Random(seed)
            for n in range(301):
                want, got = list(range(n)), list(range(n))
                ref.shuffle(want)
                _shuffle(got, rng)
                assert got == want, (seed, n)
                if n in boundaries:
                    assert rng.getstate() == ref.getstate(), (seed, n)
            assert rng.getstate() == ref.getstate(), seed

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=10, deadline=None)
    def test_random_regular_always_simple_regular(self, seed):
        g = random_regular(14, 5, seed=seed)
        assert g.degrees() == [5] * 14

    def test_generate_dispatch(self):
        assert generate("cycle", {"m": 6}).m == 6
        with pytest.raises(ValueError):
            generate("hypercube", {})
        with pytest.raises(ValueError):
            generate("gnp", {"n": 5, "p": 0.5})  # missing seed

    def test_every_family_has_a_size_bound(self):
        # generate checks the size of every request before building it
        assert set(graph_core.GENERATORS) == set(graph_core._GENERATED_SIZE)


class TestEdgeListFormat:
    def test_roundtrip(self):
        g = spider(2)
        assert parse_edge_list(serialize_edge_list(g)) == g

    def test_comments_and_blanks(self):
        text = "# header comment\n4\n\n0 1  # trailing\n2 3\n"
        g = parse_edge_list(text)
        assert g.n == 4 and g.edges == frozenset({(0, 1), (2, 3)})

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "empty"),
            ("x\n0 1\n", "1"),
            ("3\n1 0\n", "2"),          # u < v required
            ("3\n0 3\n", "2"),          # out of range
            ("3\n1 1\n", "2"),          # self loop
            ("3\n0 1\n0 1\n", "3"),     # duplicate
            ("3\n0 1 2\n", "2"),        # wrong arity
        ],
    )
    def test_errors_carry_line_numbers(self, text, fragment):
        with pytest.raises(ValueError) as err:
            parse_edge_list(text)
        assert fragment in str(err.value)

    @pytest.mark.parametrize("text", ["3\n0 1\n1_0 2\n", "3\n0 1\n+1 2\n",
                                      "3\n0 1\n\u0663 2\n", "3\n0 1\n-0 2\n"])
    def test_ids_are_ascii_digits(self, text):
        with pytest.raises(ValueError, match="line 3: non-integer vertex id"):
            parse_edge_list(text)

    @pytest.mark.parametrize("text", ["+3\n", "1_0\n", "\u0663\n", "-1\n"])
    def test_vertex_count_is_ascii_digits(self, text):
        with pytest.raises(ValueError, match="line 1: vertex count expected"):
            parse_edge_list(text)

    def test_lines_break_at_newline_only(self):
        assert parse_edge_list("3\r\n0 1\r\n1 2\r\n").edges == {(0, 1), (1, 2)}
        # \x0c, \x85 and \u2028 are whitespace inside a line, not line breaks
        for sep in ("\x0c", "\x85", "\u2028"):
            with pytest.raises(ValueError, match="line 2: expected 'u v'"):
                parse_edge_list(f"3\n0 1{sep}1 2\n")

    def test_vertex_cap(self):
        assert parse_edge_list(f"{MAX_VERTICES}\n0 1\n").n == MAX_VERTICES
        with pytest.raises(ValueError) as err:
            parse_edge_list(f"{10**9}\n")
        assert str(10**9) in str(err.value) and str(MAX_VERTICES) in str(err.value)


def _reference_parse(text: str) -> Graph:
    """The two-pass parser that parse_edge_list replaced, with the strict
    grammar: lines break at '\n' only, and the vertex count and the ids are
    ASCII digit strings, checked token by token.  It collects the stripped
    lines first and builds through the validating Graph constructor."""
    def digits(tok):
        return all("0" <= c <= "9" for c in tok)

    lines = []
    for ln_no, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((ln_no, stripped))
    if not lines:
        raise ValueError("empty edge list: missing vertex-count header")
    hdr_no, hdr = lines[0]
    if not digits(hdr):
        raise ValueError(f"line {hdr_no}: vertex count expected, got {hdr!r}")
    n = 0
    for c in hdr:  # int() reads at most 4,300 digits
        n = 10 * n + ord(c) - ord("0")
    if n > MAX_VERTICES:
        raise ValueError(f"line {hdr_no}: vertex count {hdr.lstrip('0')} exceeds the limit "
                         f"{MAX_VERTICES}")
    edges = set()
    for ln_no, body in lines[1:]:
        parts = body.split()
        if len(parts) != 2:
            raise ValueError(f"line {ln_no}: expected 'u v', got {body!r}")
        if not all(digits(p) for p in parts):
            raise ValueError(f"line {ln_no}: non-integer vertex id in {body!r}")
        if max(len(p) for p in parts) > 4300:
            raise ValueError(f"line {ln_no}: vertex id of over 4,300 digits")
        u, v = int(parts[0]), int(parts[1])
        if u == v:
            raise ValueError(f"line {ln_no}: self-loop at {u}")
        if not (0 <= u < v < n):
            raise ValueError(f"line {ln_no}: need 0 <= u < v < n, got {u} {v} with n={n}")
        if (u, v) in edges:
            raise ValueError(f"line {ln_no}: duplicate edge {u} {v}")
        edges.add((u, v))
    return Graph(n, edges)


def _outcome(parse, text):
    try:
        g = parse(text)
    except ValueError as err:
        return ("error", str(err))
    return ("graph", g, g.degrees(), [g.neighbours(v) for v in range(g.n)], _oracle_view(g))


def _oracle_view(g: Graph):
    """What the oracle reads of a graph's build: its edge order, and its
    result where the graph is within the search limit."""
    if g.m > DEFAULT_EDGE_LIMIT:
        return _edge_order(g), None
    res = min_parts(g)
    return _edge_order(g), res.to_json(), res.searches


def _shuffled_lines(g: Graph, seed: int) -> str:
    """serialize_edge_list(g) with its edge lines in a seeded order."""
    head, *body = serialize_edge_list(g).splitlines()
    random.Random(seed).shuffle(body)
    return "\n".join([head, *body]) + "\n"


_SPACES = st.sampled_from([" ", "  ", "\t", "\x0c", "\x0b", "\xa0", "\u3000"])
_TOKENS = st.one_of(st.integers(-2, 12).map(str),
                    st.sampled_from(["+1", "1_0", "-0", "0x1", "1.0", "x", "\u0663", "#", "# 1 2"]))
_BLANKS = st.sampled_from(["", " ", "# comment", "\t# 0 1"])
_LINES = st.one_of(
    st.tuples(st.lists(_TOKENS, max_size=4), _SPACES, st.booleans()).map(  # padded or not
        lambda t: t[1].join(["", *t[0], ""] if t[2] else t[0])),
    st.tuples(st.integers(-1, 9), st.integers(-1, 9), _SPACES).map(lambda t: f"{t[0]}{t[2]}{t[1]}"),
    _BLANKS,
)
_HEADERS = st.one_of(st.integers(-1, 9).map(str), st.integers(0, 9).map(lambda n: f" {n} # n"),
                     _LINES)
# line breaks include the ones only str.splitlines knows
_TEXTS = st.tuples(st.lists(_BLANKS, max_size=2), _HEADERS, st.lists(_LINES, max_size=15),
                   st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\x1c", "\u2028"])).map(
    lambda t: t[3].join([*t[0], t[1], *t[2]]))


class TestParserMatchesReference:
    """parse_edge_list against the two-pass parser: both return equal graphs
    with the same oracle view, or both raise ValueError with the same
    message."""

    @pytest.mark.parametrize("text", [
        "# c\n\n  # d\n3\n0 1\n",           # comment-only lines before the header
        "3 # vertex count\n0 1 # edge\n",   # '#' on the header and an edge line
        "3#\n#\n1 2#x\n",
        "3\n0\t1\n1\x0c2\n",                # \x0c separates ids; only \n ends a line
        "3\n0 1\x0c1 2\n", "3\n0 1\u20281 2\n", "3\n0 1\x851 2\n", "3\r0 1\r1 2\r",
        "3\n0\x0b\x0b1\n", "3\r\n0 1\r\n1 2\r\n", "3 \r\n\r\n0 1 # x\r\n",
        "+4\n+0 1_0\n", "12\n+0 1_0\n", "1_2\n\u0663 4\n", "3\n-0 2\n", "3\n0 +1\n",
        "3\n1_0 2\n", "3\n\u0663 1\n", "3\n0 \uff11\n", "\u0663\n", "+3\n", "3\n0 1 # \u0663 +1\n",
        "3\n1 0\n", "3\n0 3\n", "3\n-1 2\n", "3\n1 1\n", "3\n0 1\n0 1\n", "3\n0 1\n1 0\n",
        "3\n0 1 2\n", "3\n\t0 1 2 # x\n", "3\n0\n", "3\n 0 a \n", "3\n0 1.0\n",
        "x\n0 1\n", "-1\n", f"{MAX_VERTICES + 1}\n", "3 4\n0 1\n", "0\n", "1\n0 1\n",
        "", "\n", " \n\t\n\x0c\n", "# only\n#\n", "00100001\n", "003\n0 001\n",
    ])
    def test_fixed_inputs(self, text):
        assert _outcome(parse_edge_list, text) == _outcome(_reference_parse, text)

    @pytest.mark.parametrize("text,fragment", [
        ("9" * 5000 + "\n", "line 1: vertex count 9999"),
        ("0" * 5000 + "3\n0 1\n", None),
        ("3\n0 " + "9" * 5000 + "\n", "line 2: vertex id of over 4,300 digits"),
        ("3\n" + "9" * 5000 + " " + "9" * 5000 + "\n", "line 2: vertex id of over"),
        ("3\n0 " + "0" * 5000 + "1\n", "line 2: vertex id of over"),
        ("3\n0 " + "9" * 4300 + "\n", "line 2: need 0 <= u < v < n"),
    ], ids=["header", "zero-padded-header", "id", "both-ids", "zero-padded-id", "id-4300"])
    def test_digit_strings_past_int_limit(self, text, fragment):
        # int() refuses strings of over 4,300 digits; each outcome names its line
        out = _outcome(parse_edge_list, text)
        assert out == _outcome(_reference_parse, text)
        assert out[0] == "graph" if fragment is None else out[1].startswith(fragment)

    @given(_TEXTS)
    @settings(max_examples=400, deadline=None)
    def test_generated_texts(self, text):
        assert _outcome(parse_edge_list, text) == _outcome(_reference_parse, text)

    def test_generated_graphs(self):
        for g in (random_regular(60, 7, seed=2), gnp(40, 0.3, seed=5), complete(12),
                  gnp(9, 0.45, seed=5), spider(2)):
            text = _shuffled_lines(g, g.m)
            assert _outcome(parse_edge_list, text) == _outcome(_reference_parse, text)

    LONG_BODY = serialize_edge_list(random_regular(60, 7, seed=3))

    @pytest.mark.parametrize("last,fragment", [
        (LONG_BODY.split("\n")[1], "duplicate edge"),
        ("5 3", "need 0 <= u < v < n"),
        ("4 4", "self-loop at 4"),
        ("0 60", "need 0 <= u < v < n"),
        ("0 " + "1" * 4301, "vertex id of over 4,300 digits"),
        ("0 \u0663", "non-integer vertex id"),
        ("0 1 2", "expected 'u v'"),
        ("0 11\u20285 9", "expected 'u v'"),
    ], ids=["duplicate", "u-above-v", "self-loop", "id-at-n", "id-4301-digits",
            "non-ascii-digit", "three-tokens", "u2028"])
    def test_one_bad_line_after_a_long_body(self, last, fragment):
        # every batch check passes on the 210 edges before the last line
        text = self.LONG_BODY + last + "\n"
        out = _outcome(parse_edge_list, text)
        assert out == _outcome(_reference_parse, text)
        assert out[0] == "error" and out[1].startswith(f"line 212: {fragment}")


class TestParserCost:
    """The body is checked in whole-text passes: a valid list never reaches
    the line walk, and a hostile line costs linear time."""

    @pytest.mark.parametrize("g", [random_regular(300, 30, seed=1), complete(80), Graph(5)],
                             ids=repr)
    def test_valid_lists_skip_the_line_walk(self, g, monkeypatch):
        def fail(lines, n):
            raise AssertionError("a valid edge list was walked line by line")

        monkeypatch.setattr(graph_core, "_raise_line_fault", fail)
        text = serialize_edge_list(g)
        _same_graph(parse_edge_list(text), g)
        _same_graph(parse_edge_list(text.replace("\n", "  # c\r\n")), g)

    def test_the_line_walk_never_passes_a_body(self):
        lines = enumerate(["0 1", "", " 1 2 "], start=2)
        with pytest.raises(InvariantViolated):
            graph_core._raise_line_fault(lines, 3)

    @pytest.mark.parametrize("line", [" " * 10**6 + "x", "9" * 10**6 + "x",
                                      "1 2" + " " * 10**6 + "x"],
                             ids=["spaces", "digits", "edge-then-spaces"])
    def test_hostile_lines_fail_in_linear_time(self, line):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="line 3: expected 'u v'"):
            parse_edge_list("3\n0 1\n" + line + "\n")
        assert time.perf_counter() - t0 < 2.0


class TestIdSpellings:
    """parse_edge_list converts each distinct id spelling once: zero-padded
    spellings of one id are one vertex, and the checks read the values."""

    def test_padded_spellings_are_one_vertex(self):
        g = parse_edge_list("9\n0 7\n1 07\n2 007\n")
        assert g.edges == {(0, 7), (1, 7), (2, 7)} and g.degree(7) == 3

    def test_duplicate_across_spellings_is_refused(self):
        with pytest.raises(ValueError) as err:
            parse_edge_list("9\n0 7\n00 07\n")
        assert str(err.value) == "line 3: duplicate edge 0 7"

    @given(st.integers(2, 30).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.tuples(st.integers(0, n - 2), st.integers(1, n - 1),
                  st.integers(0, 3), st.integers(0, 3)).filter(lambda e: e[0] < e[1]),
        max_size=40))))
    @settings(max_examples=300, deadline=None)
    def test_random_digit_bodies_match_int_per_id(self, case):
        n, rows = case
        body = "".join(f"{'0' * pu}{u} {'0' * pv}{v}\n" for u, v, pu, pv in rows)
        ids = list(map(int, body.split()))  # the reference: one int() per id
        edges = list(zip(ids[0::2], ids[1::2]))
        if len(set(edges)) == len(edges):
            _same_graph(parse_edge_list(f"{n}\n{body}"), Graph(n, edges))
        else:
            first = next(i for i, e in enumerate(edges) if e in edges[:i])
            with pytest.raises(ValueError) as err:
                parse_edge_list(f"{n}\n{body}")
            u, v = edges[first]
            assert str(err.value) == f"line {first + 2}: duplicate edge {u} {v}"


# the bad-line scan as it read when the body started after the header's '\n':
# `^` under re.M is tried at every character of the body
_BAD_LINE_AT_EVERY_START = re.compile(r"^(?![^\S\n]*(?:[0-9]+[^\S\n]+[0-9]+[^\S\n]*)?$)", re.M)


@given(st.text(st.sampled_from("0123456789 \t\r\n\x0b\x1c٣ab-"), max_size=40))
@settings(max_examples=1000, deadline=None)
def test_bad_line_scan_matches_the_line_start_scan(body):
    # parse_edge_list hands the scan its body with the header's '\n' in front
    assert (graph_core._BAD_LINE.search("\n" + body) is None) == (
        _BAD_LINE_AT_EVERY_START.search(body) is None)


def _eager_neighbours(g: Graph) -> list:
    """The neighbour sets built at once: sets filled one add() at a time,
    in the order g.edges iterates."""
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return [frozenset(a) for a in adj]


def _same_graph(got: Graph, want: Graph):
    assert got.n == want.n and got.edges == want.edges
    assert got.degrees() == want.degrees()
    assert all(got.neighbours(v) == want.neighbours(v) for v in range(want.n))
    assert got == want and hash(got) == hash(want)


class TestCanonicalBuilder:
    """Graphs built without re-validation (parse_edge_list, without_edges)
    and spanning subgraphs equal the validating constructor's."""

    GRAPHS = [random_regular(50, 6, seed=1), random_regular(80, 11, seed=2),
              gnp(40, 0.3, seed=3), gnp(25, 0.8, seed=4), complete(15), complete(2), Graph(4)]

    @pytest.mark.parametrize("g", GRAPHS, ids=lambda g: repr(g))
    def test_matches_validating_constructor(self, g):
        rng = random.Random(g.m)
        es = sorted(g.edges)
        keep = set(rng.sample(es, len(es) // 2))
        drop = set(es) - keep
        _same_graph(parse_edge_list(serialize_edge_list(g)), Graph(g.n, es))
        _same_graph(g.spanning(keep), Graph(g.n, sorted(keep)))
        _same_graph(g.spanning(frozenset(keep)), Graph(g.n, sorted(keep)))
        _same_graph(g.without_edges(drop), Graph(g.n, sorted(keep)))
        _same_graph(g.without_edges(frozenset(drop)), Graph(g.n, sorted(keep)))
        _same_graph(g.without_edges([(v, u) for u, v in drop]), Graph(g.n, sorted(keep)))
        want = Graph(g.n, sorted(keep))
        for got in (g.spanning(keep), g.without_edges(drop),
                    parse_edge_list(_shuffled_lines(want, g.n))):
            assert _oracle_view(got) == _oracle_view(want)

    @pytest.mark.parametrize("g", GRAPHS, ids=lambda g: repr(g))
    def test_neighbours_iterate_as_one_add_per_edge(self, g):
        assert [list(g.neighbours(v)) for v in range(g.n)] == \
            [list(a) for a in _eager_neighbours(g)]

    @pytest.mark.parametrize("g", GRAPHS, ids=lambda g: repr(g))
    def test_every_build_counts_degrees_and_iterates_as_eager(self, g, monkeypatch):
        es = sorted(g.edges)
        drop = set(es[::3])
        keep = [e for e in es if e not in drop]

        def builds():
            yield "Graph", Graph(g.n, es)
            yield "parse_edge_list", parse_edge_list(serialize_edge_list(g))
            yield "without_edges", g.without_edges(drop)
            yield "spanning", g.spanning(keep)

        def fail(self):
            raise AssertionError("neighbour sets built for a degree query")

        built = []
        with monkeypatch.context() as mp:
            mp.setattr(Graph, "_build_neighbours", fail)
            for how, h in builds():
                deg = h.degrees()
                assert [h.degree(v) for v in range(h.n)] == deg, how
                assert sum(deg) == 2 * h.m, how
                assert h.min_degree() == min(deg, default=0), how
                assert h.max_degree() == max(deg, default=0), how
                built.append((how, h))
        for how, h in built:
            ref = _eager_neighbours(h)
            assert [list(h.neighbours(v)) for v in range(h.n)] == [list(a) for a in ref], how
            assert all(h.degree(v) == len(h.neighbours(v)) for v in range(h.n)), how

    def test_spanning_other_sets_still_validate(self):
        g = cycle(6)
        assert not g.has_edge(0, 3)
        _same_graph(g.spanning({(0, 3)}), Graph(6, [(0, 3)]))
        _same_graph(g.spanning({(1, 0), (2, 3)}), Graph(6, [(0, 1), (2, 3)]))
        _same_graph(g.spanning([(0, 1)]), Graph(6, [(0, 1)]))
        with pytest.raises(ValueError, match="self-loop at vertex 2"):
            g.spanning({(2, 2)})
        with pytest.raises(ValueError, match="outside vertex range"):
            g.spanning({(0, 6)})
        with pytest.raises(ValueError, match="outside vertex range"):
            g.spanning({(-1, 0)})
        with pytest.raises(ValueError, match="self-loop"):
            g.without_edges({(3, 3)})
        _same_graph(g.without_edges({(0, 3), (0, 9)}), g)  # non-edges are ignored


class TestExceptionFamilies:
    def test_odd_paths_and_cycles(self):
        assert recognize_exception(path(1)) is ExceptionFamily.ODD_PATH
        assert recognize_exception(path(3)) is ExceptionFamily.ODD_PATH
        assert recognize_exception(path(2)) is None
        assert recognize_exception(path(4)) is None
        assert recognize_exception(cycle(5)) is ExceptionFamily.ODD_CYCLE
        assert recognize_exception(cycle(4)) is None
        assert recognize_exception(cycle(6)) is None

    def test_triangle_reports_cycle_before_t(self):
        tri = cycle(3)
        assert is_t_member(tri)
        assert recognize_exception(tri) is ExceptionFamily.ODD_CYCLE

    def test_t_members(self):
        members = t_family_members(12)
        assert len(members) == 20
        assert sorted(g.m for g in members) == [3, 5, 7, 7, 7, 9, 9, 9, 9, 9,
                                                11, 11, 11, 11, 11, 11, 11, 11, 11, 11]
        for g in members:
            assert g.m % 2 == 1          # every member has odd size
            assert g.max_degree() <= 3
            assert is_t_member(g)
            if g.m > 3:
                assert recognize_exception(g) is ExceptionFamily.T_FAMILY

    def test_non_members(self):
        assert not is_t_member(complete(4))
        assert not is_t_member(path(4))
        assert not is_t_member(cycle(6))
        assert recognize_exception(spider(2)) is None
        assert recognize_exception(complete(4)) is None
        assert recognize_exception(Graph(1, [])) is None

    def test_t_family_script_units(self):
        base = t_family()
        assert base == cycle(3)
        bigger = [g for g in t_family_members(7) if g.m == 7]
        # appending one even path of length 2 or one odd path ending in a
        # glued triangle both give 7-edge members; both shapes must appear
        assert len(bigger) == 3

    # after the step (0, 2, False), vertex 0 has degree 3 and the path 0-3-4
    # hangs off the triangle
    @pytest.mark.parametrize("script,message", [
        ([(3, 2, False)], "step 0: attach vertex 3 out of range"),
        ([(0, 2, False), (0, 2, False)], "step 1: attach vertex 0 has degree 3, need 2"),
        ([(0, 2, False), (3, 2, False)], "step 1: attach vertex 3 is not on a triangle"),
        ([(0, 2, True)], "step 0: glued construction needs odd path length >= 1"),
        ([(0, 1, False)], "step 0: plain path must have even length >= 2"),
    ])
    def test_t_family_rejects_bad_steps(self, script, message):
        with pytest.raises(ValueError, match=message):
            t_family(script)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            recognize_exception(Graph(4, [(0, 1)]))


def _perturb(g: Graph, rng: random.Random) -> Graph:
    """One to three steps of edge delete, edge add, subdivide or pendant edge."""
    n, edges = g.n, set(g.edges)
    for _ in range(rng.randint(1, 3)):
        step = rng.randrange(4)
        if step == 0 and edges:
            edges.discard(rng.choice(sorted(edges)))
        elif step == 1:
            edges.add(canon_edge(*rng.sample(range(n), 2)))
        elif step == 2 and edges:
            u, v = rng.choice(sorted(edges))
            edges -= {(u, v)}
            edges |= {(u, n), (v, n)}
            n += 1
        else:
            edges.add((rng.randrange(n), n))
            n += 1
    return Graph(n, edges)


class TestTMemberStructure:
    """is_t_member against the generator: a graph is a member exactly when
    it is isomorphic to a generated member with the same edge count."""

    MAX_EDGES = 15

    @pytest.fixture(scope="class")
    def members(self):
        return t_family_members(self.MAX_EDGES)

    @pytest.fixture(scope="class")
    def reference(self, members):
        buckets = {}
        for h in members:
            buckets.setdefault((h.m, tuple(sorted(h.degrees()))), []).append(h)

        def is_member(g):
            key = (g.m, tuple(sorted(g.degrees())))
            return any(_isomorphic(g, h) for h in buckets.get(key, ()))

        return is_member

    def test_agrees_with_generator(self, members, reference, atlas7):
        graphs = list(atlas7) + members
        rng = random.Random(20150901)
        perturbed = 0
        while perturbed < 5000:
            g = _perturb(rng.choice(members), rng)
            if g.is_connected() and g.m <= self.MAX_EDGES and g.max_degree() <= 3:
                graphs.append(g)
                perturbed += 1
        verdicts = [is_t_member(g) for g in graphs]
        wrong = [sorted(g.edges) for g, got in zip(graphs, verdicts) if got != reference(g)]
        assert not wrong, wrong[:3]
        assert sum(verdicts) >= 300
        assert len(verdicts) - sum(verdicts) >= 300

    @pytest.mark.parametrize(
        "g",
        [
            complete(4).without_edges([(0, 1)]),                          # diamond K4 - e
            Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]),  # bowtie
            Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)]),                  # triangle + pendant edge
            Graph(7, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4),            # triangles joined by
                      (4, 5), (4, 6), (5, 6)]),                          # a path of length 2
            Graph(10, list(cycle(3).edges) + [(0, 3), (3, 4)]            # a member beside a
                  + [(5, 6), (6, 7), (7, 8), (8, 9), (5, 9)]),           # disjoint 5-cycle
        ],
        ids=["diamond", "bowtie", "pendant_edge", "even_bridge", "disconnected"],
    )
    def test_fixed_negatives(self, g, reference):
        assert not is_t_member(g)
        if g.is_connected():
            assert not reference(g)
