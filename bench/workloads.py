"""The five benchmark workloads.

Each builder turns a workload seed into a list of ops.  An op is one call
into irrdec (the CLI entry point or a library function) plus the
independent check of its output.  Builders fix the mix of cost classes in a
repeating pattern and let the seed pick the instances inside each class, so
that different seeds give different inputs of the same expected cost: run
to run spread then comes from the program and the host, not from the draw.

`smoke` shrinks every input so a run of all five workloads takes seconds.
"""

from __future__ import annotations

import contextlib
import io
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import irrdec.cli as cli
import irrdec.decomposer as decomposer
import irrdec.factor_solver as factor_solver
from irrdec.factor_solver import DegreeTargetSpec, ModularTargetSpec, choose_window_targets
from irrdec.graph_core import (
    Graph,
    complete,
    cycle,
    gnp,
    path,
    random_regular,
    serialize_edge_list,
    spider,
    t_family_members,
)
from irrdec.labeling import ratio_gate
from irrdec.oracle import atlas_connected_graphs

import checks

# pool entries are cycled; op lists this long are never used up at desk speed
OP_LIST_LEN = 4000


@dataclass
class Op:
    kind: str
    call: Callable[[], object]  # looks irrdec up at call time, so traced runs see wrappers
    check: Callable[[object], tuple]  # outcome -> (label, digest); raises CheckFailed
    args: tuple  # the generated input, for comparing builds


@dataclass
class Workload:
    ops: list
    block: int  # ops repeat their cost mix with this period

    @property
    def digest_ops(self) -> int:
        """The digest covers the first two blocks; a run always completes them."""
        return 2 * self.block


def run_cli(argv: list) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _write(workdir: Path, name: str, g: Graph) -> str:
    p = workdir / name
    p.write_text(serialize_edge_list(g))
    return str(p)


def _jitter(rng: random.Random, base: int, share: float = 0.1) -> int:
    span = int(base * share)
    return base + rng.randint(-span, span)


def _regular(rng: random.Random, n: int, d: int) -> Graph:
    if n * d % 2:
        n += 1
    return random_regular(n, d, seed=rng.getrandbits(32))


# ---------------------------------------------------------------------------
# decompose-dense: the CLI path users run, which stops at part 1 at desk scale

# seven graphs taken in turn (about 16 ops each per run): the median falls on
# the middle graph, rr(400, 36), and the tail among the three largest
DENSE_REGULAR = [(300, 30), (400, 36), (500, 40), (600, 34), (700, 30)]
DENSE_COMPLETE = [80, 110]


def decompose_dense(seed: int, workdir: Path, smoke: bool = False) -> Workload:
    rng = random.Random(seed)
    regular = [(60, 12), (80, 16)] if smoke else DENSE_REGULAR
    completes = [24] if smoke else DENSE_COMPLETE
    graphs = [_regular(rng, _jitter(rng, n), d) for n, d in regular]
    graphs += [complete(_jitter(rng, n)) for n in completes]
    files = [_write(workdir, f"dense{j}.el", g) for j, g in enumerate(graphs)]

    def op(j: int, op_seed: int) -> Op:
        g, argv = graphs[j], ["decompose", files[j], "--seed", str(op_seed), "--json"]
        return Op("decompose", lambda: run_cli(argv),
                  lambda out: checks.check_decompose_cli(g, *out), tuple(argv))

    ops = [op(i % len(graphs), rng.getrandbits(31)) for i in range(OP_LIST_LEN)]
    return Workload(ops, block=len(graphs))


# ---------------------------------------------------------------------------
# decompose-resample: Moser-Tardos rounds at a slack where events do fire

# At slack 0.21 on these graphs a run takes about 4 rounds on average and
# 1 in 20 runs reaches the 10-round cap (labels/ClaimBoundsUnachieved); at
# 0.2 the mean jumps to ~24 rounds with a tail past 100, because the event
# thresholds floor(8 * slack * d^0.62) drop by one.  Equal sizes keep the
# tail among capped and near-capped runs instead of among the largest graphs.
RESAMPLE_SLACK = 0.21
RESAMPLE_ROUNDS = 10
RESAMPLE_REGULAR = [(240, d) for d in (20, 22, 24)] * 4


def decompose_resample(seed: int, workdir: Path, smoke: bool = False) -> Workload:
    rng = random.Random(seed)
    sizes = [(60, 12), (80, 14)] if smoke else RESAMPLE_REGULAR
    graphs = [_regular(rng, _jitter(rng, n, 0.05), d) for n, d in sizes]

    def op(g: Graph, op_seed: int) -> Op:
        cfg = decomposer.PipelineConfig(seed=op_seed, slack=RESAMPLE_SLACK,
                                        lll_rounds=RESAMPLE_ROUNDS)
        return Op("decompose3", lambda: decomposer.decompose3(g, cfg)[0],
                  lambda out: checks.check_decompose3(g, out), (g, cfg))

    ops = [op(graphs[i % len(graphs)], rng.getrandbits(31)) for i in range(OP_LIST_LEN)]
    return Workload(ops, block=len(graphs))


# ---------------------------------------------------------------------------
# factor-solve: the solver layer, which no input with edges reaches through
# the pipeline

FACTOR_PATTERN = "EWEEHEEWEE"  # E exact, W window scan, H heuristic
FACTOR_HOSTS = [(60, 12), (80, 14), (100, 16), (120, 18)]
FACTOR_HEURISTIC_BUDGET = 10000


def _modular_spec(rng: random.Random, g: Graph) -> ModularTargetSpec:
    """Random two-residue contract with 6*lam(v) <= d(v) at every vertex."""
    lam, t = [], []
    for v in range(g.n):
        emax = 0
        while 6 * (2 << emax) <= g.degree(v):
            emax += 1
        e = rng.randint(0, emax)
        lam.append(1 << e)
        t.append(rng.randrange(1 << e))
    return ModularTargetSpec(t=t, lam=lam)


def _exact_instance(rng: random.Random, nmax: int):
    """Criterion-4-style host: n <= nmax, min degree >= 6."""
    while True:
        kind = rng.choice(("rr", "gnp", "complete"))
        if kind == "rr":
            n = rng.choice(range(12, nmax + 1, 2))
            g = random_regular(n, rng.choice([x for x in range(6, 17) if x < n]),
                               seed=rng.getrandbits(32))
        elif kind == "complete":
            g = complete(rng.randint(8, nmax))
        else:
            g = gnp(rng.randint(10, nmax), 0.7, seed=rng.getrandbits(32))
        if min(g.degrees()) >= 6:
            return g, _modular_spec(rng, g)


def factor_solve(seed: int, workdir: Path, smoke: bool = False) -> Workload:
    rng = random.Random(seed)
    # n <= 18: from n = 20 on, about one exact search in 2000 runs for 1-6 s,
    # so one draw would set a run's throughput
    exact = [_exact_instance(rng, 14 if smoke else 18) for _ in range(40 if smoke else 400)]
    hosts = []
    for n, d in ([(30, 8)] if smoke else FACTOR_HOSTS):
        g = _regular(rng, n, d)
        spec = DegreeTargetSpec.from_pairs(g, choose_window_targets(g, _modular_spec(rng, g)))
        hosts.append((g, spec))
    dmax = 10 ** 4 if smoke else 10 ** 6

    def exact_op(g, spec) -> Op:
        return Op("exact", lambda: factor_solver.find_modular_subgraph(g, spec, mode="exact"),
                  lambda h: checks.check_factor(g, spec, h, allow_failure=False), (g, spec))

    def heuristic_op(g, spec, op_seed) -> Op:
        return Op("heuristic",
                  lambda: factor_solver.find_degree_set_subgraph(
                      g, spec, mode="heuristic", budget=FACTOR_HEURISTIC_BUDGET, seed=op_seed),
                  lambda h: checks.check_factor(g, spec, h, allow_failure=True),
                  (g, spec, op_seed))

    def window_op(d, lam, t) -> Op:
        return Op("window", lambda: factor_solver.window_candidates(d, lam, t),
                  lambda w: checks.check_window(d, lam, t, *w), (d, lam, t))

    ops, counters = [], Counter()
    for i in range(OP_LIST_LEN):
        kind = FACTOR_PATTERN[i % len(FACTOR_PATTERN)]
        if kind == "E":
            ops.append(exact_op(*exact[counters["E"] % len(exact)]))
        elif kind == "H":
            ops.append(heuristic_op(*hosts[counters["H"] % len(hosts)], rng.getrandbits(31)))
        else:
            d = rng.randint(6, dmax)
            lam = 1 << rng.randint(0, min(6, (d // 6).bit_length() - 1))
            ops.append(window_op(d, lam, rng.randrange(lam)))
        counters[kind] += 1
    return Workload(ops, block=len(FACTOR_PATTERN))


# ---------------------------------------------------------------------------
# oracle-sweep: exhaustive search, dominated by the infeasible members that
# force the backtracker through every k <= m

# Per 40 ops: A atlas graph, G connected gnp, S spider (feasible, ~2 ms);
# odd paths P and cycles C and triangle-family members T, infeasible, with
# the edge count after the letter.  The two cycle(17) searches per 40 ops
# (~0.6 s each) are the top class, so the tail falls among identical
# searches.  A fixed shuffle interleaves the classes.
ORACLE_PATTERN = random.Random(0).sample(
    ["A"] * 23 + ["G"] * 6 + ["S"] * 2
    + ["P11", "C13", "P15", "T9", "T11", "T13", "T13", "C17", "C17"], 40)


def _connected_gnp(rng: random.Random, n: int) -> Graph:
    while True:
        g = gnp(n, 0.45, seed=rng.getrandbits(32))
        if g.is_connected() and g.m <= 22:
            return g


def oracle_sweep(seed: int, workdir: Path, smoke: bool = False) -> Workload:
    rng = random.Random(seed)
    atlas = atlas_connected_graphs(5 if smoke else 7)
    members = {}  # edge count -> members in a seeded order, drawn in turn
    for g in t_family_members(9 if smoke else 13):
        members.setdefault(g.m, []).append(g)
    for ms in members.values():
        rng.shuffle(ms)
    drawn = {m: 0 for m in members}
    spiders = [spider(2), spider(4)]
    cap = 9 if smoke else None

    def draw(slot: str) -> Graph:
        kind, m = slot[0], int(slot[1:] or 0)
        if cap is not None and m:
            m = min(m, cap)
        if kind == "A":
            return rng.choice(atlas)
        if kind == "G":
            return _connected_gnp(rng, rng.randint(7, 10))
        if kind == "S":
            return rng.choice(spiders)
        if kind == "P":
            return path(m)
        if kind == "C":
            return cycle(m)
        drawn[m] += 1
        return members[m][drawn[m] % len(members[m])]

    pool = {}  # one edge-list file per distinct graph
    ops = []
    for i in range(len(ORACLE_PATTERN) * (1 if smoke else 10)):
        g = draw(ORACLE_PATTERN[i % len(ORACLE_PATTERN)])
        if g not in pool:
            pool[g] = _write(workdir, f"oracle{len(pool)}.el", g)
        argv = ["oracle", pool[g], "--json"]
        ops.append(Op("oracle", lambda argv=argv: run_cli(argv),
                      lambda out, g=g: checks.check_oracle_cli(g, *out), tuple(argv)))
    return Workload(ops, block=len(ORACLE_PATTERN))


# ---------------------------------------------------------------------------
# riskprob: exact enumeration of lam(u)^2 * lam(v)^2 label assignments

# (e(u), e(v), type) with e = ceil_log_beta(d), so lam = 2^e, or X for an
# audit.  Per 40 ops: 26 cheap (~10 ms), 4 mixed-band, 9 at lam = 16
# (~0.1 s) and one at lam = 32 (~1.5 s, about 5 per run).  The median then
# falls inside the cheap class and the tail inside the lam = 16 class, away
# from class edges.  A fixed shuffle interleaves the classes.
_TYPES = ("1", "2", "3", "23")
RISK_PATTERN = random.Random(0).sample(
    [(3, 3, t) for t in _TYPES] * 6 + ["X", "X"]
    + [(3, 4, "1"), (4, 3, "3"), (3, 4, "23"), (4, 3, "2")]
    + ([(4, 4, t) for t in _TYPES] * 3)[:9] + [(5, 5, "3")], 40)
RISK_DEGREE_CAP = 3000


def ceil_log_beta(d: int) -> int:
    """Least e >= 0 with d^19 <= 2^(50e), so lam(d) = 2^e.  Computed here so
    that set-up never warms irrdec's own cache of this function."""
    p, e = d ** 19, 0
    while p > 1 << (50 * e):
        e += 1
    return e


def _bands(cap: int) -> dict:
    """e -> the degrees d <= cap with ceil_log_beta(d) == e."""
    out = {}
    for d in range(1, cap + 1):
        out.setdefault(ceil_log_beta(d), []).append(d)
    return out


def _gated_pair(rng: random.Random, bu: list, bv: list) -> tuple:
    while True:
        du, dv = rng.choice(bu), rng.choice(bv)
        if ratio_gate(du, dv):
            return du, dv


def riskprob(seed: int, workdir: Path, smoke: bool = False) -> Workload:
    rng = random.Random(seed)
    emax = 3 if smoke else 5
    bands = _bands(RISK_DEGREE_CAP)

    def op(slot) -> Op:
        if slot == "X":
            return Op("audit", lambda: run_cli(["audit", "--json"]),
                      lambda out: checks.check_audit_cli(*out), ("audit", "--json"))
        eu, ev, rtype = slot
        du, dv = _gated_pair(rng, bands[min(eu, emax)], bands[min(ev, emax)])
        argv = ["riskprob", str(du), str(dv), "--type", rtype, "--json"]
        return Op("riskprob", lambda: run_cli(argv), lambda out: checks.check_riskprob_cli(*out),
                  tuple(argv))

    ops = [op(RISK_PATTERN[i % len(RISK_PATTERN)]) for i in range(OP_LIST_LEN // 4)]
    return Workload(ops, block=len(RISK_PATTERN))


BUILDERS = {
    "decompose-dense": decompose_dense,
    "decompose-resample": decompose_resample,
    "factor-solve": factor_solve,
    "oracle-sweep": oracle_sweep,
    "riskprob": riskprob,
}
