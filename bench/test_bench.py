"""Self-tests of the benchmark: seeded inputs, the independent checks, the
tracer, and a smoke-sized run of every workload.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from irrdec.cli import main as cli_main  # noqa: E402
from irrdec.decomposer import Diagnostic  # noqa: E402
from irrdec.factor_solver import (  # noqa: E402
    DegreeTargetSpec,
    ModularTargetSpec,
    find_degree_set_subgraph,
    find_modular_subgraph,
    window_candidates,
)
from irrdec.graph_core import (  # noqa: E402
    Decomposition,
    Graph,
    path,
    random_regular,
    serialize_edge_list,
    spider,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _inputs(ops):
    """Op inputs with edge-list paths replaced by the files' contents."""
    out = []
    for op in ops:
        out.append(tuple(Path(a).read_text() if isinstance(a, str) and a.endswith(".el") else a
                         for a in op.args))
    return out


def _record(command: str, result: dict) -> str:
    return json.dumps({"manifest": {"command": command, "result_digest": checks.sha256_of(result)},
                       "result": result})


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_inputs_are_deterministic_in_the_seed(name, tmp_path):
    build = workloads.BUILDERS[name]
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    a = _inputs(build(3, dirs[0], smoke=True).ops[:60])
    b = _inputs(build(3, dirs[1], smoke=True).ops[:60])
    c = _inputs(build(4, dirs[2], smoke=True).ops[:60])
    assert a == b
    assert a != c


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.BUILDERS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracing.METRICS)
    for m in SPEC["per_layer"]:
        assert (m["unit"], m["better"]) == tracing.METRICS[m["name"]]


# ---------------------------------------------------------------------------
# the checker rejects corrupted results

def test_flipped_edge_colour_is_rejected():
    g = path(2)  # degrees 1, 2, 1: one part holding both edges is irregular
    good = {"valid": True, "k": 3, "colour": {"0-1": 1, "1-2": 1}, "stages": []}
    assert checks.check_decompose_cli(g, 0, _record("decompose", good))[0] == "ok"
    flipped = dict(good, colour={"0-1": 2, "1-2": 1})
    with pytest.raises(checks.CheckFailed, match="not locally irregular"):
        checks.check_decompose_cli(g, 0, _record("decompose", flipped))
    with pytest.raises(checks.CheckFailed):
        checks.check_decompose3(g, Decomposition(g, 3, {(0, 1): 2, (1, 2): 1}))


def test_tampered_result_fails_its_digest():
    g = path(2)
    good = {"valid": True, "k": 3, "colour": {"0-1": 1, "1-2": 1}, "stages": []}
    text = _record("decompose", good).replace('"0-1": 1', '"0-1": 2')
    with pytest.raises(checks.CheckFailed, match="result_digest"):
        checks.check_decompose_cli(g, 0, text)


def test_undocumented_diagnostic_is_rejected():
    g = path(2)
    assert checks.check_decompose3(g, Diagnostic("labels", "ClaimBoundsUnachieved"))[0] \
        == "labels/ClaimBoundsUnachieved"
    with pytest.raises(checks.CheckFailed):
        checks.check_decompose3(g, Diagnostic("labels", "SomethingElse"))
    bad = {"valid": False, "diagnostic": {"stage": "part1_factor",
                                          "code": "WindowTargetInfeasible", "detail": {}}}
    with pytest.raises(checks.CheckFailed, match="exit code 0"):
        checks.check_decompose_cli(g, 0, _record("decompose", bad))


def test_wrong_oracle_k_is_rejected(tmp_path, capsys):
    g = spider(2)
    f = tmp_path / "spider.el"
    f.write_text(serialize_edge_list(g))
    rc = cli_main(["oracle", str(f), "--json"])
    text = capsys.readouterr().out
    assert checks.check_oracle_cli(g, rc, text)[0] == "ok"
    result = json.loads(text)["result"]
    assert result["k"] == 3
    for k in (2, 4):
        with pytest.raises(checks.CheckFailed):
            checks.check_oracle_cli(g, rc, _record("oracle", dict(result, k=k)))


def test_infeasible_verdict_must_match_the_recognizer():
    infeasible = {"k": None, "witness": None, "exhausted": True, "nodes_explored": 1}
    assert checks.check_oracle_cli(path(3), 2, _record("oracle", infeasible))[0] == "infeasible"
    with pytest.raises(checks.CheckFailed):
        checks.check_oracle_cli(spider(2), 2, _record("oracle", infeasible))


def test_factor_off_by_one_degree_is_rejected():
    g = random_regular(30, 8, seed=5)
    spec = DegreeTargetSpec({v: {3, 4} for v in range(g.n)})
    h = find_degree_set_subgraph(g, spec, mode="exact")
    assert checks.check_factor(g, spec, h, allow_failure=False)[0] == "ok"
    (u, v), = [e for e in sorted(h.edges) if h.degree(e[0]) == 3][:1]
    off = Graph(g.n, h.edges - {(u, v)})  # u drops to degree 2
    with pytest.raises(checks.CheckFailed, match="verify_factor"):
        checks.check_factor(g, spec, off, allow_failure=False)


def test_modular_factor_off_by_one_is_rejected():
    g = random_regular(48, 24, seed=3)
    spec = ModularTargetSpec(t=[v % 4 for v in range(g.n)], lam=[4] * g.n)
    h = find_modular_subgraph(g, spec, mode="heuristic", seed=1)
    assert checks.check_factor(g, spec, h, allow_failure=False)[0] == "ok"
    # a vertex at residue t drops to t - 1, which the contract {t, t + 1} mod 4 excludes
    v = next(v for v in range(g.n) if (h.degree(v) - spec.t[v]) % 4 == 0)
    e = next(e for e in sorted(h.edges) if v in e)
    with pytest.raises(checks.CheckFailed, match="verify_factor"):
        checks.check_factor(g, spec, Graph(g.n, h.edges - {e}), allow_failure=False)


def test_window_value_off_by_one_is_rejected():
    d, lam, t = 1000, 8, 3
    w1, w2 = window_candidates(d, lam, t)
    assert checks.check_window(d, lam, t, w1, w2)[0] == "ok"
    with pytest.raises(checks.CheckFailed):
        checks.check_window(d, lam, t, [w1[0] + 1] + w1[1:], w2)
    with pytest.raises(checks.CheckFailed):
        checks.check_window(d, lam, t, w1[:-1], w2)


def test_riskprob_and_audit_verdicts_are_checked():
    rec = {"gated": True, "bound_holds": True}
    assert checks.check_riskprob_cli(0, _record("riskprob", rec))[0] == "ok"
    with pytest.raises(checks.CheckFailed):
        checks.check_riskprob_cli(0, _record("riskprob", dict(rec, bound_holds=False)))
    audit = {"claims": [{"pass": True}], "all_pass": True}
    assert checks.check_audit_cli(0, _record("audit", audit))[0] == "ok"
    with pytest.raises(checks.CheckFailed):
        checks.check_audit_cli(0, _record("audit", dict(audit, all_pass=False)))


# ---------------------------------------------------------------------------
# smoke-sized runs

@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_smoke_run_has_no_failures(name, tmp_path):
    wl = workloads.BUILDERS[name](1, tmp_path, smoke=True)
    first = run.measure(wl, 0.2)
    assert not first["failures"] and len(first["latencies"]) >= wl.digest_ops
    again = run.measure(workloads.BUILDERS[name](1, tmp_path, smoke=True), 0.05)
    assert again["digest"] == first["digest"]


def test_traced_smoke_run_reports_every_layer_metric(tmp_path):
    wl = workloads.BUILDERS["decompose-dense"](1, tmp_path, smoke=True)
    tracer = tracing.Tracer()
    res = run.measure(wl, 0.3, tracer)
    assert not res["failures"] and res["traced"]
    values = tracer.metrics(res["traced"], wl.digest_ops, 1.0)
    assert list(values) == list(tracing.METRICS)
    assert values["labeling.classify.calls"] > 0 and values["cli.main.s"] > 0
    # wrappers are gone once the op returns
    import irrdec.decomposer
    assert irrdec.decomposer.classify.__module__ == "irrdec.labeling"
    assert not hasattr(irrdec.decomposer.classify, "__wrapped__")


def test_command_prints_the_contract_line():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "riskprob", "--seed", "2",
         "--seconds", "0.2", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert list(last["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert last["metrics"][m["name"]]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "riskprob", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
