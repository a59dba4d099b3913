import os
import subprocess
import sys
import textwrap

import pytest

from irrdec.graph_core import (
    Graph,
    complete,
    cycle,
    is_locally_irregular_decomposition,
    path,
    spider,
)
from irrdec.oracle import (
    OracleResult,
    atlas_connected_graphs,
    exceptions_never_decompose,
    min_parts,
)


class TestMinParts:
    @pytest.mark.parametrize(
        "g,expected",
        [(path(2), 1), (cycle(4), 2), (spider(2), 3), (complete(4), 3)],
    )
    def test_feasible_examples(self, g, expected):
        res = min_parts(g)
        assert res.feasible_k == expected
        assert res.exhausted
        assert res.witness.k == expected
        assert is_locally_irregular_decomposition(res.witness)

    @pytest.mark.parametrize("g", [path(1), path(3), cycle(3), cycle(5)])
    def test_infeasible_for_every_k(self, g):
        res = min_parts(g)
        assert res.feasible_k is None
        assert res.witness is None
        assert res.exhausted  # searched up to k = |E|, certifying all k

    def test_edgeless(self):
        res = min_parts(Graph(3, []))
        assert res.feasible_k == 0 and res.exhausted
        assert res.witness.colour == {}

    def test_kmax_caps_the_verdict(self):
        res = min_parts(spider(2), k_max=2)
        assert res.feasible_k is None
        assert not res.exhausted  # k=3 was never tried
        res = min_parts(path(3), k_max=2)
        assert res.feasible_k is None and not res.exhausted

    def test_least_k_is_returned(self):
        assert min_parts(cycle(4), k_max=4).feasible_k == 2

    def test_nodes_are_counted(self):
        assert min_parts(spider(2)).nodes_explored > 0

    def test_edge_limit(self, monkeypatch):
        big = path(23)
        with pytest.raises(ValueError):
            min_parts(big, k_max=1)
        monkeypatch.setenv("IRRDEC_EDGE_LIMIT", "30")
        res = min_parts(big, k_max=1)
        assert res.feasible_k is None and not res.exhausted
        assert min_parts(big, k_max=1, edge_limit=25).feasible_k is None

    def test_to_json(self):
        js = min_parts(path(2)).to_json()
        assert js["k"] == 1 and js["exhausted"] is True
        assert js["witness"] == {"0-1": 1, "1-2": 1}
        js = min_parts(path(3)).to_json()
        assert js["k"] is None and js["witness"] is None


class TestAtlas:
    def test_connected_counts(self):
        graphs = atlas_connected_graphs(7)
        assert len(graphs) == 996
        assert all(g.is_connected() for g in graphs[:50])
        assert max(g.n for g in graphs) == 7
        assert len(atlas_connected_graphs(5)) == 31  # 1+1+2+6+21

    def test_vertex_cap(self):
        with pytest.raises(ValueError):
            atlas_connected_graphs(8)


class TestExceptionSweep:
    def test_report_at_nine_edges(self):
        report = exceptions_never_decompose(9)
        assert len(report["exceptions"]) == 19
        assert all(rec["infeasible"] for rec in report["exceptions"].values())
        assert report["other_connected_graphs"] == 986
        assert report["feasible_k_histogram"] == {"0": 1, "1": 83, "2": 864, "3": 38}
        assert report["recognizer_agreement"] is True


def test_sweep_invariants_survive_optimize_flag():
    """Under `python -O` a bare assert vanishes; the sweep's checks must not."""
    script = textwrap.dedent("""
        import irrdec.oracle as oracle
        from irrdec.graph_core import InvariantViolated

        oracle.min_parts = lambda g: oracle.OracleResult(1, None, True)
        try:
            oracle.exceptions_never_decompose(3)
        except InvariantViolated as exc:
            print("raised:", exc)
        else:
            raise SystemExit("no InvariantViolated")
    """)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "raised: exception path(1) is not certified infeasible" in proc.stdout
