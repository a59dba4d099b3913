"""Independent output checks.

Each check takes what the benchmark knows about an op's input and what the
program returned, and either returns an outcome label or raises CheckFailed.
Labels are "ok" or "<stage>/<code>" for a documented diagnostic, which
counts as completed.  The checks recompute what they can without trusting
the code under test: result digests, exit codes, local irregularity of every
claimed part, residue and interval membership of window values.
"""

from __future__ import annotations

import hashlib
import json

from irrdec.factor_solver import Failure, verify_factor
from irrdec.graph_core import (
    Decomposition,
    Graph,
    canon_edge,
    is_locally_irregular,
    is_locally_irregular_decomposition,
    recognize_exception,
)

# the documented pipeline stages and diagnostic codes (README, acceptance gate)
STAGES = frozenset({
    "preflight", "labels", "part1_factor", "overlap_colouring",
    "part2_factor", "windows", "final_gate",
})
CODES = frozenset({
    "MinDegreeTooSmall", "ClaimBoundsUnachieved", "ModulusPreconditionViolated",
    "WindowTargetInfeasible", "FactorSolverFailure", "ColouringCapExceeded",
    "PartNotIrregular", "ExceptionComponent",
})
HEURISTIC_REASONS = frozenset({"flip budget exhausted"})


class CheckFailed(Exception):
    pass


def require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def sha256_of(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def combine_digests(digests) -> str:
    h = hashlib.sha256()
    for d in digests:
        h.update(d.encode())
        h.update(b"\n")
    return "sha256:" + h.hexdigest()


def _colouring(g: Graph, colour_json: dict, k: int) -> Decomposition:
    colour = {}
    for key, c in colour_json.items():
        u, v = (int(x) for x in key.split("-"))
        colour[canon_edge(u, v)] = c
    return Decomposition(g, k, colour)


def _require_irregular_parts(dec: Decomposition, what: str) -> None:
    try:
        ok = is_locally_irregular_decomposition(dec)
    except ValueError as exc:  # colours outside 1..k, uncoloured or extra edges
        raise CheckFailed(f"{what} is not a colouring of the graph: {exc}") from None
    require(ok, f"{what}: a part is not locally irregular")


def _diagnostic_label(diag: dict) -> str:
    require(diag["stage"] in STAGES, f"unknown stage {diag['stage']!r}")
    require(diag["code"] in CODES, f"unknown code {diag['code']!r}")
    return f"{diag['stage']}/{diag['code']}"


def _record(text: str, command: str) -> dict:
    record = json.loads(text)
    require(record["manifest"]["command"] == command, "manifest names another command")
    require(record["manifest"]["result_digest"] == sha256_of(record["result"]),
            "result_digest does not match the result")
    return record


def check_decompose_cli(g: Graph, rc: int, text: str) -> tuple:
    """(label, digest) of an `irrdec decompose --json` call on g."""
    record = _record(text, "decompose")
    result = record["result"]
    if result["valid"]:
        require(rc == 0, f"valid decomposition with exit code {rc}")
        require(result["k"] == 3, f"k = {result['k']}, expected 3")
        _require_irregular_parts(_colouring(g, result["colour"], 3), "claimed decomposition")
        label = "ok"
    else:
        require(rc == 2, f"diagnostic with exit code {rc}")
        label = _diagnostic_label(result["diagnostic"])
    return label, record["manifest"]["result_digest"]


def check_decompose3(g: Graph, outcome) -> tuple:
    """(label, digest) of a library decompose3 outcome on g."""
    if isinstance(outcome, Decomposition):
        require(outcome.graph == g and outcome.k == 3, "decomposition of another graph or k")
        _require_irregular_parts(outcome, "claimed decomposition")
        colour = {f"{u}-{v}": c for (u, v), c in sorted(outcome.colour.items())}
        return "ok", sha256_of({"colour": colour})
    diag = outcome.to_json()
    return _diagnostic_label(diag), sha256_of(diag)


def _exception_expected(g: Graph) -> bool:
    """True when some component of g is an exception-family member."""
    for comp in g.components():
        vs = sorted(comp)
        relabel = {v: i for i, v in enumerate(vs)}
        sub = Graph(len(vs), [(relabel[u], relabel[v]) for u, v in g.edges if u in comp])
        if recognize_exception(sub) is not None:
            return True
    return False


def check_oracle_cli(g: Graph, rc: int, text: str) -> tuple:
    """(label, digest) of an `irrdec oracle --json` call on g."""
    record = _record(text, "oracle")
    result = record["result"]
    k = result["k"]
    if _exception_expected(g):
        require(rc == 2 and k is None and result["exhausted"],
                f"exception-family graph reported k = {k} (exit {rc})")
        return "infeasible", record["manifest"]["result_digest"]
    require(rc == 0 and k is not None, f"decomposable graph reported infeasible (exit {rc})")
    if g.m == 0:
        require(k == 0, f"edgeless graph reported k = {k}")
    else:
        dec = _colouring(g, result["witness"], k)
        _require_irregular_parts(dec, "oracle witness")
        # a least k uses every colour, and k = 1 exactly when g itself qualifies
        require(len(set(dec.colour.values())) == k, f"witness uses fewer than k = {k} colours")
        require((k == 1) == is_locally_irregular(g), f"k = {k} disagrees with g's own irregularity")
    return "ok", record["manifest"]["result_digest"]


def check_factor(g: Graph, spec, h, allow_failure: bool) -> tuple:
    """(label, digest) of a factor-solver result for host g under spec."""
    if isinstance(h, Failure):
        require(allow_failure, f"exact solver failed on a guaranteed instance: {h.reason}")
        require(h.reason in HEURISTIC_REASONS, f"undocumented failure reason {h.reason!r}")
        return f"heuristic/{h.reason}", sha256_of({"failure": h.reason, "best": h.best_penalty})
    require(isinstance(h, Graph), f"solver returned {type(h).__name__}")
    require(verify_factor(g, h, spec).ok, "factor fails verify_factor")
    return "ok", sha256_of(sorted(h.edges))


def _residue_window(lo: int, hi: int, lam: int, t: int) -> list:
    """Every x in [lo, hi] with x = t mod lam, by arithmetic."""
    return list(range(lo + (t - lo) % lam, hi + 1, lam))


def check_window(d: int, lam: int, t: int, w1, w2) -> tuple:
    """(label, digest) of window_candidates(d, lam, t): each window must hold
    exactly the values of its interval that match the residue."""
    require(list(w1) == _residue_window(d // 3 + 1, d // 2, lam, t),
            f"low window is not the values of (d/3, d/2] equal to {t} mod {lam}")
    require(list(w2) == _residue_window(d // 2, (2 * d) // 3 - 1, lam, t),
            f"high window is not the values of [d/2, 2d/3) equal to {t} mod {lam}")
    return "ok", sha256_of([d, lam, t, len(w1), len(w2)])


def check_riskprob_cli(rc: int, text: str) -> tuple:
    record = _record(text, "riskprob")
    result = record["result"]
    require(rc == 0 and result["gated"], f"gated pair not evaluated (exit {rc})")
    require(result["bound_holds"] is True, "conditional risk bound violated")
    return "ok", record["manifest"]["result_digest"]


def check_audit_cli(rc: int, text: str) -> tuple:
    record = _record(text, "audit")
    result = record["result"]
    require(rc == 0 and result["all_pass"] is True, f"audit does not pass (exit {rc})")
    require(all(c["pass"] for c in result["claims"]), "a claim fails while all_pass is set")
    return "ok", record["manifest"]["result_digest"]
