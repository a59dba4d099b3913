import contextlib
import hashlib
import inspect
import io
import json
import os
import random
import subprocess
import sys
import textwrap
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irrdec import graph_core, lll_engine
from irrdec.cli import (
    RISKPROB_MAX_EXPONENT,
    build_parser,
    canonical_json,
    main,
)
from irrdec.decomposer import PipelineConfig, decompose3
from irrdec.exact import iroot
from irrdec.graph_core import (
    GENERATORS,
    Graph,
    MAX_GENERATED_EDGES,
    MAX_VERTICES,
    complete,
    cycle,
    exception_components,
    gnp,
    parse_edge_list,
    path,
    random_regular,
    recognize_exception,
    serialize_edge_list,
    spider,
    t_family_members,
)
from irrdec.labeling import risky_types

from pins import BY_NAME
from test_labeling import lambda_of


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def graph_file(tmp_path):
    def write(name, g):
        p = tmp_path / name
        p.write_text(serialize_edge_list(g))
        return str(p)

    return write


class TestGen:
    def test_edge_list_on_stdout(self, capsys):
        code, out, _ = run(capsys, "gen", "cycle", "5")
        assert code == 0
        g = parse_edge_list(out)
        assert (g.n, g.m) == (5, 5)

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "k4.txt"
        code, out, _ = run(capsys, "gen", "complete", "4", "--out", str(dest))
        assert code == 0
        assert parse_edge_list(dest.read_text()).m == 6
        assert "wrote 4 vertices / 6 edges" in out

    def test_random_family_is_seed_deterministic(self, capsys):
        argv = ("gen", "gnp", "12", "0.5", "--seed", "9", "--json")
        code, out1, _ = run(capsys, *argv)
        assert code == 0
        _, out2, _ = run(capsys, *argv)
        rec1, rec2 = json.loads(out1), json.loads(out2)
        assert rec1["manifest"]["result_digest"] == rec2["manifest"]["result_digest"]
        assert rec1["manifest"]["command"] == "gen"
        assert rec1["manifest"]["seed"] == 9

    def test_random_family_requires_seed(self, capsys):
        code, _, err = run(capsys, "gen", "gnp", "12", "0.5")
        assert code == 64 and "requires --seed" in err

    @pytest.mark.parametrize(
        "argv",
        [("gen", "complete"), ("gen", "path", "1", "2"), ("gen", "path", "abc"),
         ("gen", "complete", "-3")],
    )
    def test_usage_errors(self, capsys, argv):
        assert run(capsys, *argv)[0] == 64

    def test_unknown_family_exits_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "petersen", "5"])
        assert exc.value.code == 64
        capsys.readouterr()

    def test_t_family_is_not_offered(self, capsys):
        # t_family takes a script, not numbers, so no parameter list builds it
        with pytest.raises(SystemExit) as exc:
            main(["gen", "t_family"])
        assert exc.value.code == 64
        assert "invalid choice: 't_family'" in capsys.readouterr().err

    # one valid parameter list per family that gen offers
    VALID_PARAMS = {
        "path": ["4"], "cycle": ["5"], "complete": ["4"], "complete_bipartite": ["2", "3"],
        "gnp": ["6", "0.5", "--seed", "1"], "random_regular": ["6", "3", "--seed", "1"],
        "spider": ["2"],
    }

    def test_every_family_builds(self, capsys):
        assert set(self.VALID_PARAMS) == set(GENERATORS)
        for family, params in self.VALID_PARAMS.items():
            code, out, err = run(capsys, "gen", family, *params, "--json")
            assert code == 0, (family, err)
            rec = json.loads(out)["result"]
            g = parse_edge_list(rec["edge_list"])
            assert (g.n, g.m) == (rec["n"], rec["m"]) and g.n > 0, family

    def test_unknown_command_exits_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 64
        capsys.readouterr()


class TestDecompose:
    def test_edgeless_succeeds(self, capsys, tmp_path):
        src = tmp_path / "e.txt"
        src.write_text("5\n")
        code, out, _ = run(capsys, "decompose", str(src), "--seed", "7", "--json")
        assert code == 0
        rec = json.loads(out)
        assert rec["result"]["valid"] is True
        assert rec["result"]["k"] == 3
        stages = rec["result"]["stages"]
        assert [s["stage"] for s in stages][0] == "preflight"
        # every run that reaches assembly records its windows once
        (windows,) = [s for s in stages if s["stage"] == "windows"]
        assert windows == {"stage": "windows", "ok": True, "outside": [], "outside_count": 0,
                           "inside": {"h1_window": 5, "h2_window": 5, "h3_window": 5,
                                      "final_window": 5},
                           "low_degree_count": 5}
        assert rec["manifest"]["result_digest"] == BY_NAME["decompose-edgeless-5"].digest

    def test_exception_component_preflight(self, capsys, graph_file):
        src = graph_file("p3.txt", path(3))
        code, out, _ = run(capsys, "decompose", src, "--seed", "1", "--json")
        assert code == 2
        rec = json.loads(out)
        assert rec["result"]["diagnostic"]["code"] == "ExceptionComponent"
        assert rec["result"]["diagnostic"]["stage"] == "preflight"

    def test_dense_graph_reports_stage(self, capsys, graph_file):
        src = graph_file("k14.txt", complete(14))
        code, out, _ = run(capsys, "decompose", src, "--seed", "3", "--json")
        assert code == 2
        rec = json.loads(out)
        diag = rec["result"]["diagnostic"]
        assert diag["stage"] == "part1_factor"
        assert diag["code"] == "WindowTargetInfeasible"
        assert 0 < rec["result"]["edge_counts"]["g_prime"] <= 91

    def test_stage_seconds_sit_outside_the_digest(self, capsys, graph_file):
        # the digest is the one this run had before stage times were recorded
        src = graph_file("gnp.txt", gnp(30, 0.5, seed=3))
        code, out, _ = run(capsys, "decompose", src, "--seed", "1", "--slack", "0.5", "--json")
        assert code == 2
        rec = json.loads(out)
        assert rec["manifest"]["result_digest"] == BY_NAME["decompose-gnp-30"].digest
        assert rec["result"]["edge_counts"] == {"g_prime": 155}
        # three stages ran (the last stopped at part 1), one timing each
        seconds = rec["manifest"]["stage_seconds"]
        assert len(rec["result"]["stages"]) == 3
        assert sorted(seconds) == ["labels", "part1", "preflight"]
        assert all(isinstance(s, float) and s >= 0 for s in seconds.values())

    def test_infinite_slack_builds_no_neighbour_sets(self, capsys, graph_file, monkeypatch):
        # the parsed graph and g' are read only through their degrees, and
        # the preflight skips its component walk at minimum degree > 3
        def fail(self):
            raise AssertionError("neighbour sets built on the decompose path")

        monkeypatch.setattr(Graph, "_build_neighbours", fail)
        for name, g in (("k14.txt", complete(14)), ("rr.txt", random_regular(60, 12, seed=1))):
            src = graph_file(name, g)
            code, out, _ = run(capsys, "decompose", src, "--seed", "1", "--json")
            assert code == 2
            rec = json.loads(out)
            assert rec["result"]["diagnostic"]["stage"] == "part1_factor"
            assert 0 < rec["result"]["edge_counts"]["g_prime"] < g.m

    def test_defaults_are_the_configs(self, capsys):
        args = build_parser().parse_args(["decompose", "g.el", "--seed", "1"])
        cfg = PipelineConfig()
        assert (args.slack, args.mode, args.budget) == \
            (cfg.slack, cfg.solver_mode, cfg.solver_budget)
        # no option enforces the paper's minimum degree of 10^10
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "g.el", "--seed", "1", "--strict"])
        assert exc.value.code == 64 and "--strict" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [("--slack", "0"), ("--budget", "-1")])
    def test_bad_numeric_options(self, capsys, graph_file, extra):
        src = graph_file("p5.txt", path(5))
        assert run(capsys, "decompose", src, "--seed", "1", *extra)[0] == 64

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "decompose", str(tmp_path / "nope"), "--seed", "1")
        assert code == 65 and "cannot read" in err

    def test_malformed_file_is_data_error(self, capsys, tmp_path):
        src = tmp_path / "bad.txt"
        src.write_text("3\n0 7\n")
        code, _, err = run(capsys, "decompose", str(src), "--seed", "1")
        assert code == 65 and "bad data" in err

    def test_huge_vertex_count_fails_fast(self, capsys, tmp_path):
        src = tmp_path / "huge.txt"
        src.write_text("1000000000\n")
        t0 = time.perf_counter()
        code, _, err = run(capsys, "decompose", str(src), "--seed", "1")
        assert code == 65 and "1000000000" in err
        assert time.perf_counter() - t0 < 1.0

    def test_out_record_digest(self, capsys, graph_file, tmp_path):
        src = graph_file("p4.txt", path(4))
        dest = tmp_path / "rec.json"
        run(capsys, "decompose", src, "--seed", "2", "--out", str(dest))
        rec = json.loads(dest.read_text())
        body = canonical_json(rec["result"]).encode()
        assert rec["manifest"]["result_digest"] == "sha256:" + hashlib.sha256(body).hexdigest()
        run(capsys, "decompose", src, "--seed", "2", "--out", str(dest))
        assert json.loads(dest.read_text())["manifest"]["result_digest"] == \
            rec["manifest"]["result_digest"]


class TestRepeatedCalls:
    """main() builds its argument parser once per process; each call still
    behaves like the first one in a fresh process."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_json_does_not_stick(self, capsys, graph_file):
        src = graph_file("k14.txt", complete(14))
        code, out, _ = run(capsys, "decompose", src, "--seed", "3", "--json")
        assert code == 2 and json.loads(out)["manifest"]["command"] == "decompose"
        code, out, _ = run(capsys, "decompose", src, "--seed", "3")
        assert code == 2
        assert out.startswith("diagnostic: WindowTargetInfeasible at stage part1_factor\n")
        assert out.splitlines()[-1].startswith("digest: sha256:")

    def test_out_does_not_stick(self, capsys, graph_file, tmp_path):
        src = graph_file("p4.txt", path(4))
        dest = tmp_path / "rec.json"
        run(capsys, "decompose", src, "--seed", "2", "--out", str(dest))
        first = dest.read_text()
        _, out, _ = run(capsys, "decompose", src, "--seed", "5", "--json")
        assert json.loads(out)["manifest"]["seed"] == 5
        assert dest.read_text() == first
        assert json.loads(first)["manifest"]["seed"] == 2

    def test_usage_error_between_successes(self, capsys, graph_file):
        src = graph_file("sp.txt", spider(2))
        code, out, _ = run(capsys, "oracle", src)
        assert code == 0 and "least parts: 3" in out
        with pytest.raises(SystemExit) as exc:
            main(["oracle", src, "--kmax", "two"])
        assert exc.value.code == 64 and "invalid int value" in capsys.readouterr().err
        code, out, err = run(capsys, "oracle", src, "--json")
        assert code == 0 and err == "" and json.loads(out)["result"]["k"] == 3


class TestOneArgumentPass:
    """A command's own parser reads its arguments; the top parser answers
    only help, a missing command and an unknown one."""

    @pytest.fixture
    def top_calls(self, monkeypatch):
        top = build_parser()
        calls, parse = [], top.parse_args

        def spy(*args, **kwargs):
            calls.append(args)
            return parse(*args, **kwargs)

        monkeypatch.setattr(top, "parse_args", spy)
        return calls

    @pytest.mark.parametrize("argv,code", [([], 64), (["-h"], 0), (["frobnicate"], 64)])
    def test_top_parser_answers_the_rest(self, capsys, top_calls, argv, code):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code and top_calls == [(argv,)]
        capsys.readouterr()

    def test_commands_skip_the_top_parser(self, capsys, top_calls, graph_file):
        src = graph_file("sp.txt", spider(2))
        for argv in (["gen", "path", "3"], ["decompose", src, "--seed", "1"], ["oracle", src],
                     ["audit", "--claim", "f10"], ["riskprob", "100", "120", "--json"]):
            assert run(capsys, *argv)[0] in (0, 2), argv
        assert top_calls == []

    def test_unrecognized_argument_names_the_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["riskprob", "1", "2", "--bogus"])
        assert exc.value.code == 64
        assert capsys.readouterr().err == "irrdec riskprob: error: unrecognized arguments: --bogus\n"


class TestRecordLines:
    """`--json` prints the record as one line of JSON, and `--out` writes
    that same line."""

    @pytest.fixture
    def argvs(self, graph_file):
        src = graph_file("k5.txt", complete(5))
        return {"gen": ["gen", "random_regular", "8", "3", "--seed", "1"],
                "decompose": ["decompose", src, "--seed", "1"], "oracle": ["oracle", src],
                "audit": ["audit"], "riskprob": ["riskprob", "100", "120", "--type", "23"]}

    @pytest.mark.parametrize("command", ["gen", "decompose", "oracle", "audit", "riskprob"])
    def test_json_is_one_line(self, capsys, argvs, command):
        code, out, _ = run(capsys, *argvs[command], "--json")
        assert code in (0, 2) and out.endswith("\n") and out.count("\n") == 1
        assert json.loads(out)["manifest"]["command"] == command

    @pytest.mark.parametrize("command", ["decompose", "oracle", "audit", "riskprob"])
    def test_out_holds_the_printed_line(self, capsys, argvs, command, tmp_path):
        dest = tmp_path / "rec.json"
        _, out, _ = run(capsys, *argvs[command], "--json", "--out", str(dest))
        assert dest.read_text() == out
        _, human, _ = run(capsys, *argvs[command], "--out", str(dest))
        assert human.splitlines()[-1].startswith("digest: sha256:")
        first, second = json.loads(out), json.loads(dest.read_text())
        for rec in (first, second):
            del rec["manifest"]["timing"]
            rec["manifest"].pop("stage_seconds", None)  # decompose's per-stage wall times
        assert first == second


class TestParseTiming:
    """decompose and oracle time the read and parse of their input in the
    manifest, outside the result digest."""

    @pytest.mark.parametrize("argv,g,pin", [
        (("decompose", "--seed", "1", "--slack", "0.5"), gnp(30, 0.5, seed=3),
         "decompose-gnp-30"),
        (("oracle",), spider(2), "oracle-spider-2"),
    ], ids=["decompose", "oracle"])
    def test_parse_seconds_sit_outside_the_digest(self, capsys, graph_file, argv, g, pin):
        # the digests are the ones these runs had before parse times were recorded
        src = graph_file("g.txt", g)
        _, out, _ = run(capsys, argv[0], src, *argv[1:], "--json")
        rec = json.loads(out)
        assert rec["manifest"]["result_digest"] == BY_NAME[pin].digest
        timing = rec["manifest"]["timing"]
        assert sorted(timing) == ["parse_seconds", "seconds"]
        assert all(isinstance(s, float) and s >= 0 for s in timing.values())

    def test_other_commands_have_no_parse(self, capsys):
        _, out, _ = run(capsys, "riskprob", "1000", "1000", "--json")
        assert list(json.loads(out)["manifest"]["timing"]) == ["seconds"]


def _ref_exception_components(g: Graph):
    """The preflight as it was: each component relabelled by a scan of g.edges."""
    found = []
    for comp in g.components():
        vs = sorted(comp)
        relabel = {v: i for i, v in enumerate(vs)}
        sub = Graph(len(vs), [(relabel[u], relabel[v])
                              for u, v in g.edges if u in comp and v in comp])
        family = recognize_exception(sub)
        if family is not None:
            found.append({"vertices": vs, "family": family.value})
    return found


def _disjoint_union(rng: random.Random, parts: list) -> Graph:
    """The parts side by side, every vertex given a random new label."""
    n = sum(p.n for p in parts)
    label = list(range(n))
    rng.shuffle(label)
    edges, base = [], 0
    for p in parts:
        edges.extend((label[base + u], label[base + v]) for u, v in p.edges)
        base += p.n
    return Graph(n, edges)


class TestExceptionPreflight:
    T_MEMBERS = t_family_members(9)

    def _component(self, rng: random.Random) -> Graph:
        kind = rng.randrange(7)
        if kind == 0:
            return path(rng.randint(0, 7))
        if kind == 1:
            return cycle(rng.randint(3, 8))
        if kind == 2:
            return rng.choice(self.T_MEMBERS)
        if kind == 3:
            return spider(rng.choice((2, 4)))
        if kind == 4:
            return complete(rng.randint(1, 6))
        if kind == 5:
            return random_regular(8, 3, seed=rng.getrandbits(16))
        return gnp(rng.randint(2, 9), rng.uniform(0.2, 0.7), seed=rng.getrandbits(16))

    def test_matches_reference_on_shuffled_unions(self):
        rng = random.Random(11)
        families = set()
        for _ in range(300):
            g = _disjoint_union(rng, [self._component(rng) for _ in range(rng.randint(1, 6))])
            want = _ref_exception_components(g)
            assert exception_components(g) == want
            families |= {c["family"] for c in want}
        assert families == {"odd_path", "odd_cycle", "t_family"}

    def test_dense_components_beside_exceptions(self, monkeypatch):
        rng = random.Random(5)
        dense = random_regular(40, 6, seed=2)
        # an odd path beside a dense component is still reported
        g = _disjoint_union(rng, [dense, path(3)])
        found = exception_components(g)
        assert [c["family"] for c in found] == ["odd_path"] and len(found[0]["vertices"]) == 4
        # one isolated vertex is no exception: the walk runs and finds nothing
        assert exception_components(_disjoint_union(rng, [dense, Graph(1)])) == []

        # at minimum degree > 3 there is no walk at all
        def fail(self, *starts):
            raise AssertionError("components walked at minimum degree > 3")

        monkeypatch.setattr(Graph, "components", fail)
        monkeypatch.setattr(Graph, "_components_of", fail)
        assert exception_components(dense) == []
        assert exception_components(complete(5)) == []

    def test_isolated_vertices_cost_no_edge_scans(self):
        # one component per isolated vertex; a scan of every edge per
        # component would cost 21,000 x 10,000 steps
        rng = random.Random(3)
        g = _disjoint_union(rng, [random_regular(1000, 20, seed=1), Graph(20000), path(3)])
        t0 = time.perf_counter()
        found = exception_components(g)
        assert time.perf_counter() - t0 < 2.0
        assert [c["family"] for c in found] == ["odd_path"]

    def test_edgeless_graph_builds_no_neighbour_sets(self, monkeypatch):
        # the walk starts only at vertices of positive degree
        def fail(self):
            raise AssertionError("neighbour sets built for a graph without edges")

        monkeypatch.setattr(Graph, "_build_neighbours", fail)
        assert exception_components(Graph(100000)) == []

    def test_isolated_vertices_are_never_judged(self, monkeypatch):
        # every family has an edge: only the two components with edges reach
        # recognize_exception
        judged = []

        def counted(sub):
            judged.append(sub.n)
            return recognize_exception(sub)

        monkeypatch.setattr(graph_core, "recognize_exception", counted)
        g = _disjoint_union(random.Random(4), [Graph(500), path(3), cycle(4)])
        assert [c["family"] for c in exception_components(g)] == ["odd_path"]
        assert sorted(judged) == [4, 4]

    @pytest.mark.parametrize("kind, family", [
        ("path3", "odd_path"), ("cycle5", "odd_cycle"), ("t_member", "t_family"),
        ("dense_and_path", "odd_path")])
    def test_library_and_cli_agree(self, capsys, graph_file, kind, family):
        g = {"path3": path(3), "cycle5": cycle(5), "t_member": self.T_MEMBERS[-1],
             "dense_and_path": _disjoint_union(random.Random(5),
                                               [random_regular(40, 6, seed=2), path(3)]),
             }[kind]
        outcome, trace = decompose3(g, PipelineConfig(seed=1))
        code, out, _ = run(capsys, "decompose", graph_file("g.txt", g), "--seed", "1", "--json")
        result = json.loads(out)["result"]
        assert code == 2 and result["valid"] is False
        assert result["diagnostic"] == outcome.to_json()
        assert (outcome.stage, outcome.code) == ("preflight", "ExceptionComponent")
        assert outcome.detail["count"] == len(outcome.detail["components"]) == 1
        assert outcome.detail["components"][0]["family"] == family
        assert result["stages"] == trace.stage_reports == [
            {"stage": "preflight", "ok": False, "min_degree": g.min_degree()}]
        assert result["edge_counts"] == {}

    def test_detail_is_capped(self, capsys, graph_file):
        # 50,000 disjoint edges: every one an odd path; the record names 20
        g = Graph(100_000, [(2 * i, 2 * i + 1) for i in range(50_000)])
        code, out, _ = run(capsys, "decompose", graph_file("m.txt", g), "--seed", "1", "--json")
        assert code == 2
        detail = json.loads(out)["result"]["diagnostic"]["detail"]
        assert detail["count"] == 50_000
        assert detail["components"] == [{"vertices": [2 * i, 2 * i + 1], "family": "odd_path"}
                                        for i in range(20)]

    def test_human_output_names_only_the_stage(self, capsys, graph_file):
        code, out, _ = run(capsys, "decompose", graph_file("p3.txt", path(3)), "--seed", "1")
        assert code == 2
        assert out.splitlines()[0] == "diagnostic: ExceptionComponent at stage preflight"
        assert out.splitlines()[1].startswith("digest: sha256:")


class TestOracle:
    def test_feasible(self, capsys, graph_file):
        src = graph_file("sp.txt", spider(2))
        code, out, _ = run(capsys, "oracle", src)
        assert code == 0 and "least parts: 3" in out

    def test_infeasible(self, capsys, graph_file):
        src = graph_file("p3.txt", path(3))
        code, out, _ = run(capsys, "oracle", src, "--json")
        assert code == 2
        assert json.loads(out)["result"]["k"] is None

    def test_kmax_bound_in_message(self, capsys, graph_file):
        src = graph_file("sp.txt", spider(2))
        code, out, _ = run(capsys, "oracle", src, "--kmax", "2")
        assert code == 2 and "k <= 2" in out

    def test_over_edge_limit(self, capsys, graph_file):
        src = graph_file("k8.txt", complete(8))
        code, _, err = run(capsys, "oracle", src)
        assert code == 64 and "edge" in err

    @pytest.mark.parametrize("kmax", ["-5", "0"])
    def test_kmax_below_one_is_usage_error(self, capsys, graph_file, kmax):
        src = graph_file("p4.txt", path(4))
        code, out, err = run(capsys, "oracle", src, "--kmax", kmax)
        assert code == 64 and out == ""
        assert f"k_max must be >= 1, got {kmax}" in err

    def test_searches_are_in_the_manifest_only(self, capsys, graph_file):
        src = graph_file("c7.txt", cycle(7))
        code, out, _ = run(capsys, "oracle", src, "--json")
        assert code == 2
        rec = json.loads(out)
        searches = rec["manifest"]["searches"]
        assert [(k, found) for k, _, found in searches] == \
            [(1, False), (2, False), (3, False), (7, False)]
        assert sum(nodes for _, nodes, _ in searches) == rec["result"]["nodes_explored"]
        assert set(rec["result"]) == {"k", "witness", "exhausted", "nodes_explored"}
        body = canonical_json(rec["result"]).encode()
        assert rec["manifest"]["result_digest"] == "sha256:" + hashlib.sha256(body).hexdigest()
        code, out, _ = run(capsys, "oracle", src)
        assert "  searched k: 1, 2, 3, 7\n" in out


class TestAudit:
    def test_all_pass(self, capsys):
        code, out, _ = run(capsys, "audit")
        assert code == 0
        assert "11/11 claims pass" in out

    def test_claim_filter(self, capsys):
        code, out, _ = run(capsys, "audit", "--claim", "f10", "--json")
        assert code == 0
        claims = json.loads(out)["result"]["claims"]
        assert [c["claim_id"] for c in claims] == ["f10_positive"]

    def test_unmatched_filter(self, capsys):
        assert run(capsys, "audit", "--claim", "zzz")[0] == 64


class TestRiskProb:
    def test_gated_pair(self, capsys):
        code, out, _ = run(capsys, "riskprob", "100", "100")
        assert code == 0
        assert "unconditional: 1/8" in out and "holds" in out

    def test_boundary_conditional_one(self, capsys):
        code, out, _ = run(capsys, "riskprob", "7", "6", "--json")
        assert code == 0
        res = json.loads(out)["result"]
        assert res["worst_conditional"] == "1" and res["bound_holds"] is True

    def test_type_23(self, capsys):
        code, out, _ = run(capsys, "riskprob", "100", "100", "--type", "23", "--json")
        assert code == 0
        res = json.loads(out)["result"]
        assert res["unconditional"] == "1/64"
        assert res["bound"].endswith("dv^0.76")

    def test_type_23_at_the_cap(self, capsys):
        # the last degree with e = 16, the largest e riskprob accepts
        d = iroot(1 << (50 * RISKPROB_MAX_EXPONENT), 19)
        code, out, _ = run(capsys, "riskprob", str(d - 10**11), str(d), "--type", "23", "--json")
        assert code == 0
        assert json.loads(out)["result"]["bound_holds"] is True

    @pytest.mark.parametrize("rtype,digest", [
        (rtype, BY_NAME[f"riskprob-e8-type-{rtype}"].digest.removeprefix("sha256:"))
        for rtype in ("1", "2", "3", "23")
    ])
    def test_records_at_e8_are_frozen(self, capsys, rtype, digest):
        # 10^6 and 2*10^6 both have e = 8; the digests are the table's rows
        code, out, _ = run(capsys, "riskprob", str(10**6), str(2 * 10**6), "--type", rtype,
                           "--json")
        assert code == 0
        assert json.loads(out)["manifest"]["result_digest"] == f"sha256:{digest}"

    @pytest.mark.parametrize("rtype", ["1", "2", "3", "23"])
    def test_one_residue_batch_per_op(self, capsys, monkeypatch, rtype):
        # both probabilities read one batch of verdicts, one pair per
        # residue mod 2^emin, whatever the type
        lu, lv = lambda_of(30), lambda_of(41)
        assert (lu, lv) == (4, 8)
        judged = []

        def counted(pairs, terms, emin):
            judged.extend(pairs)
            return risky_types(pairs, terms, emin)

        monkeypatch.setattr(lll_engine, "risky_types", counted)
        lll_engine._WORST_CACHE.clear()
        lll_engine._risky_residues.cache_clear()
        assert run(capsys, "riskprob", "30", "41", "--type", rtype)[0] == 0
        assert 0 < len(judged) <= min(lu, lv)

    @pytest.mark.parametrize("du,dv", [("2", "5000"), ("0", "5")])
    def test_ungated_pairs(self, capsys, du, dv):
        code, out, _ = run(capsys, "riskprob", du, dv, "--json")
        assert code == 2
        assert json.loads(out)["result"]["gated"] is False

    def test_degrees_above_the_cap_fail_fast(self, capsys):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "riskprob", str(10**13), str(10**13))
        assert time.perf_counter() - t0 < 1.0
        assert code == 64 and out == ""
        assert "has lam = 2^17;" in err and f"capped at lam = 2^{RISKPROB_MAX_EXPONENT}" in err

    # d <= beta^e exactly when d^19 <= 2^(50e): the last degree of band 4 and
    # the first degree past the cap
    LAST_E4 = iroot(1 << 200, 19)
    FIRST_OVER_CAP = iroot(1 << (50 * RISKPROB_MAX_EXPONENT), 19) + 1

    @given(st.one_of(st.integers(max_value=LAST_E4), st.integers(min_value=FIRST_OVER_CAP)),
           st.one_of(st.integers(max_value=LAST_E4), st.integers(min_value=FIRST_OVER_CAP)),
           st.sampled_from(["1", "2", "3", "23"]))
    @settings(max_examples=150, deadline=None)
    @example(LAST_E4, LAST_E4, "23")  # the costliest pair the draws can reach
    @example(FIRST_OVER_CAP, FIRST_OVER_CAP, "23")
    @example(LAST_E4, FIRST_OVER_CAP, "1")  # ungated
    @example(-3, 0, "2")
    def test_any_integer_pair_exits_cleanly(self, du, dv, rtype):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(["riskprob", str(du), str(dv), "--type", rtype])
            except SystemExit as exc:  # argparse refusing the arguments
                code = exc.code
        assert code in (0, 2, 64), (code, err.getvalue())


# edge-list text over at most 8 vertices: a valid file, or one with a stray
# line (an out-of-range id, a self-loop, a repeated edge, a comment, junk)
_STRAY = st.one_of(
    st.tuples(st.integers(-1, 9), st.integers(-1, 9)).map(lambda e: f"{e[0]} {e[1]}"),
    st.sampled_from(["", "# note", "0 1 # c", "x y", "3", "1 2 3", "0x1 2"]),
    st.text(max_size=6),
)


@st.composite
def _edge_list_text(draw):
    n = draw(st.integers(0, 8))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=12, unique=True)) if pairs else []
    lines = [str(n)] + [f"{u} {v}" for u, v in edges]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(_STRAY))
    return "\n".join(lines) + "\n"


# a generator parameter token: half the time a small integer, else a
# fraction, a value over every size limit, any float or any text
_PARAM = st.one_of(
    st.integers(-1, 20).map(str),
    st.one_of(
        st.floats(0, 1).map(repr),
        st.one_of(st.integers(min_value=10**6), st.integers(max_value=-10**6)).map(str),
        st.floats().map(repr),
        st.text(max_size=5),
    ),
)


@st.composite
def _gen_argv(draw):
    """gen arguments: any family name, and half the time for a real family
    as many parameter tokens as it takes; any seed or none."""
    family = draw(st.one_of(st.sampled_from(sorted(GENERATORS)), st.text(max_size=12)))
    if family in GENERATORS and draw(st.booleans()):
        count = len([p for p in inspect.signature(GENERATORS[family]).parameters if p != "seed"])
    else:
        count = draw(st.integers(0, 3))
    params = draw(st.lists(_PARAM, min_size=count, max_size=count))
    seed = draw(st.one_of(st.none(), st.integers(-5, 5).map(str), st.integers().map(str),
                          st.text(max_size=5)))
    return ["gen", family, *params] + ([] if seed is None else ["--seed", seed])


def _exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the arguments
            code = exc.code
    return code, err.getvalue()


class TestInputContract:
    @given(st.one_of(st.text(), _edge_list_text()))
    @settings(max_examples=200, deadline=None)
    def test_parse_returns_a_graph_or_raises_value_error(self, text):
        try:
            g = parse_edge_list(text)
        except ValueError:
            return
        assert isinstance(g, Graph)

    @given(_edge_list_text(), st.sampled_from(["decompose", "oracle"]))
    @settings(max_examples=120, deadline=None)
    def test_commands_exit_with_documented_codes(self, tmp_path_factory, text, command):
        src = tmp_path_factory.mktemp("fuzz") / "g.el"
        src.write_text(text)
        argv = [command, str(src)] + (["--seed", "1"] if command == "decompose" else [])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 64, 65), (code, err.getvalue())

    @given(_gen_argv())
    @settings(max_examples=150, deadline=None)
    @example(["gen", "gnp", "9", "0.5", "--seed", "2"])
    @example(["gen", "spider", "4"])
    @example(["gen", "complete", "100000"])
    @example(["gen", "gnp", "2000", "0.5", "--seed", "1"])
    @example(["gen", "path", "1e400"])
    @example(["gen", "random_regular", "-1000000", "-1000000", "--seed", "3"])
    def test_gen_exits_with_documented_codes(self, argv):
        code, err = _exit_code(argv)
        assert code in (0, 64, 65), (code, err)

    def test_gen_refuses_huge_requests_fast(self, capsys):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "gen", "complete", "100000")
        assert time.perf_counter() - t0 < 1.0
        assert code == 64 and out == ""
        assert f"the limits are {MAX_VERTICES} and {MAX_GENERATED_EDGES}" in err

    @given(st.one_of(st.text(), st.sampled_from(["f10", "F10_POSITIVE", "", "_", "zzz"])))
    @settings(max_examples=50, deadline=None)
    def test_audit_exits_with_documented_codes(self, claim):
        code, err = _exit_code(["audit", "--claim", claim])
        assert code in (0, 64, 65), (code, err)


def test_only_the_atlas_and_the_audit_load_networkx_and_mpmath(tmp_path):
    """In a fresh interpreter the commands that need neither dependency
    leave both unloaded: networkx costs about 0.12 s and 14 MB a process."""
    k6, sp = tmp_path / "k6.txt", tmp_path / "sp.txt"
    k6.write_text(serialize_edge_list(complete(6)))
    sp.write_text(serialize_edge_list(spider(2)))
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        from irrdec.cli import main

        def run(*argv):
            with contextlib.redirect_stdout(io.StringIO()):
                return main(list(argv))

        def loaded():
            return sorted(m for m in ("mpmath", "networkx") if m in sys.modules)

        codes = [run("decompose", sys.argv[1], "--seed", "1"),
                 run("riskprob", "1801", "1622", "--type", "3", "--json"),
                 run("oracle", sys.argv[2]), run("gen", "path", "3")]
        out = {"codes": codes, "commands": loaded()}
        out["audit"] = run("audit", "--json"), loaded()
        from irrdec.oracle import atlas_connected_graphs
        out["atlas"] = len(atlas_connected_graphs(5)), loaded()
        print(json.dumps(out))
    """)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, str(k6), str(sp)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [2, 0, 0, 0], "commands": [],
                                       "audit": [0, ["mpmath"]],
                                       "atlas": [31, ["mpmath", "networkx"]]}
