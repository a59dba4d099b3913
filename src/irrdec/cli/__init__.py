"""Command line entry point.

Every command produces one JSON record {"manifest": ..., "result": ...};
the human-readable output is a rendering of the same record.  `--json`
prints the record as one line of sorted-key JSON, and `--out FILE` writes
that line to FILE; `python -m json.tool` pretty-prints it.  The manifest
carries a sha256 digest of the canonically serialized result (sorted keys,
no whitespace), so identical inputs are byte-checkable; timings live in the
manifest, outside the digest.

Exit codes: 0 success, 2 diagnostic or infeasible, 64 usage, 65 bad data.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import inspect
import json
import platform
import sys
import time

from .. import __version__
from ..decomposer import Diagnostic, PipelineConfig, decompose3
from ..factor_solver import SOLVER_MODES
from ..graph_core import (
    GENERATORS,
    RANDOMIZED_FAMILIES,
    Graph,
    generate,
    parse_edge_list,
    serialize_edge_list,
)
from ..labeling import ceil_log_beta, ratio_gate
from ..lll_engine import (
    RISK_BOUNDS,
    audit_constants,
    exact_edge_risk_probability,
    risk_bound_holds,
    worst_conditional_risk,
)
from ..oracle import min_parts

EXIT_OK = 0
EXIT_DIAGNOSTIC = 2
EXIT_USAGE = 64
EXIT_DATA = 65

# riskprob refuses degrees with e = ceil_log_beta(d) above this, i.e. label
# moduli lam = 2^e above 65536 (d above beta^16, about 4.7*10^12).  A command
# costs one batch of 2^emin verdicts plus O(|risky|) steps: in process, every
# type takes 0.012-0.03 s at (10^10, 2*10^10), where e = (13, 14), and
# 0.13-0.19 s at the cap (2-vCPU Intel Xeon).
RISKPROB_MAX_EXPONENT = 16


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract reserves 2 for diagnostics
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def make_record(command: str, parameters: dict, seed, result: dict, seconds: float,
                parse_seconds: float | None = None) -> dict:
    digest = hashlib.sha256(canonical_json(result).encode()).hexdigest()
    timing = {"seconds": round(seconds, 6)}
    if parse_seconds is not None:  # reading and parsing the input, before `seconds` starts
        timing["parse_seconds"] = round(parse_seconds, 6)
    return {
        "manifest": {
            "command": command,
            "parameters": parameters,
            "seed": seed,
            "versions": {"irrdec": __version__, "python": platform.python_version()},
            "timing": timing,
            "result_digest": f"sha256:{digest}",
        },
        "result": result,
    }


def record_line(record: dict) -> str:
    """The record as one line of JSON.  `indent` would force CPython's
    pure-Python encoder, and json.dump to a file always uses it."""
    return json.dumps(record, sort_keys=True)


def _emit(record: dict, args, human_lines: list) -> None:
    json_line = record_line(record) if args.json or args.out else None
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json_line + "\n")
    if args.json:
        print(json_line)
    else:
        for line in human_lines:
            print(line)
        print(f"digest: {record['manifest']['result_digest']}")


def _load_graph(in_path: str) -> tuple[Graph, float]:
    """The parsed graph and the wall time of reading and parsing it."""
    t0 = time.perf_counter()
    with open(in_path) as fh:
        g = parse_edge_list(fh.read())
    return g, time.perf_counter() - t0


def _number(tok: str):
    try:
        return int(tok)
    except ValueError:
        return float(tok)


def cmd_gen(args) -> int:
    family = args.family
    fn = GENERATORS[family]
    names = [p for p in inspect.signature(fn).parameters if p != "seed"]
    try:
        values = [_number(t) for t in args.params]
    except ValueError:
        raise CommandError(EXIT_USAGE, f"non-numeric parameter in {args.params}")
    if len(values) != len(names):
        raise CommandError(EXIT_USAGE,
                          f"{family} takes {len(names)} parameter(s) {names}, got {len(values)}")
    if family in RANDOMIZED_FAMILIES and args.seed is None:
        raise CommandError(EXIT_USAGE, f"{family} requires --seed")
    t0 = time.perf_counter()
    try:
        g = generate(family, dict(zip(names, values)), seed=args.seed)
    except (ValueError, TypeError) as exc:
        raise CommandError(EXIT_USAGE, str(exc))
    text = serialize_edge_list(g)
    result = {"family": family, "params": values, "n": g.n, "m": g.m, "edge_list": text}
    record = make_record("gen", {"family": family, "params": values}, args.seed,
                         result, time.perf_counter() - t0)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    if args.json:
        print(record_line(record))
    elif not args.out:
        sys.stdout.write(text)
    else:
        print(f"wrote {g.n} vertices / {g.m} edges to {args.out}")
        print(f"digest: {record['manifest']['result_digest']}")
    return EXIT_OK


def _edge_counts(trace) -> dict:
    fields = ("h1", "g1", "overlap_c", "overlap_f", "g_dprime", "h2", "h2_prime", "h3_prime")
    counts = {f: getattr(trace, f).m for f in fields if getattr(trace, f) is not None}
    if trace.g_prime_degrees is not None:  # g' itself is built only when part 1's solver runs
        counts["g_prime"] = sum(trace.g_prime_degrees) // 2
    return counts


def cmd_decompose(args) -> int:
    try:
        cfg = PipelineConfig(seed=args.seed, slack=args.slack, solver_mode=args.mode,
                             solver_budget=args.budget)
    except ValueError as exc:
        raise CommandError(EXIT_USAGE, str(exc))
    g, parse_s = _load_graph(args.in_path)
    t0 = time.perf_counter()
    params = {"in_path": args.in_path, "slack": args.slack, "mode": args.mode,
              "budget": args.budget}
    outcome, trace = decompose3(g, cfg)
    seconds = time.perf_counter() - t0
    result = {"stages": trace.stage_reports, "edge_counts": _edge_counts(trace)}
    if isinstance(outcome, Diagnostic):
        result.update(valid=False, diagnostic=outcome.to_json())
        code, lines = EXIT_DIAGNOSTIC, [f"diagnostic: {outcome.code} at stage {outcome.stage}"]
    else:
        colour = {f"{u}-{v}": c for (u, v), c in sorted(outcome.colour.items())}
        result.update(valid=True, k=outcome.k, colour=colour)
        sizes = [sum(1 for c in outcome.colour.values() if c == i) for i in (1, 2, 3)]
        code, lines = EXIT_OK, ["decomposition: valid, 3 locally irregular parts",
                                f"  part sizes: {sizes[0]} / {sizes[1]} / {sizes[2]} edges"]
    record = make_record("decompose", params, args.seed, result, seconds, parse_s)
    record["manifest"]["stage_seconds"] = {
        stage: round(s, 6) for stage, s in trace.stage_seconds.items()}
    _emit(record, args, lines)
    return code


def cmd_oracle(args) -> int:
    g, parse_s = _load_graph(args.in_path)
    t0 = time.perf_counter()
    try:
        res = min_parts(g, args.kmax)
    except ValueError as exc:
        raise CommandError(EXIT_USAGE, str(exc))
    result = res.to_json()
    record = make_record("oracle", {"in_path": args.in_path, "kmax": args.kmax},
                         None, result, time.perf_counter() - t0, parse_s)
    # one [k, nodes, found] per search, in probe order; outside the digest
    record["manifest"]["searches"] = res.searches
    counts = [f"  nodes explored: {res.nodes_explored}",
              f"  searched k: {', '.join(str(s[0]) for s in res.searches) or 'none'}"]
    if res.feasible_k is None:
        scope = "any k" if res.exhausted else f"k <= {args.kmax}"
        _emit(record, args, [f"infeasible: no decomposition for {scope}"] + counts)
        return EXIT_DIAGNOSTIC
    _emit(record, args, [f"least parts: {res.feasible_k}"] + counts)
    return EXIT_OK


def cmd_audit(args) -> int:
    t0 = time.perf_counter()
    claims = audit_constants()
    if args.claim:
        needle = args.claim.lower()
        claims = [c for c in claims if needle in c["claim_id"].lower()]
        if not claims:
            raise CommandError(EXIT_USAGE, f"no audit claim matches {args.claim!r}")
    all_pass = all(c["pass"] for c in claims)
    result = {"claims": claims, "all_pass": all_pass}
    record = make_record("audit", {"claim": args.claim}, None, result,
                         time.perf_counter() - t0)
    lines = [f"{'PASS' if c['pass'] else 'FAIL'} {c['claim_id']}: "
             f"{c['computed']} (printed {c['printed']})" for c in claims]
    lines.append(f"{sum(c['pass'] for c in claims)}/{len(claims)} claims pass")
    _emit(record, args, lines)
    return EXIT_OK if all_pass else EXIT_DIAGNOSTIC


_RISK_KIND = {  # --type -> (conditioning scheme, risk type)
    "1": ("type1_given_c1v", 1),
    "2": ("type2_given_c2v", 2),
    "3": ("type3_given_rest", 3),
    "23": ("both23_given_c1v_c2v", "23"),
}


def cmd_riskprob(args) -> int:
    du, dv = args.du, args.dv
    t0 = time.perf_counter()
    params = {"du": du, "dv": dv, "type": args.type}
    if du < 1 or dv < 1 or not ratio_gate(du, dv):
        result = {"gated": False, "du": du, "dv": dv,
                  "note": "degree ratio gate fails; the edge cannot be risky"}
        record = make_record("riskprob", params, None, result, time.perf_counter() - t0)
        _emit(record, args, [f"degrees {du}, {dv} are not within the ratio gate"])
        return EXIT_DIAGNOSTIC
    e = max(ceil_log_beta(du), ceil_log_beta(dv))
    if e > RISKPROB_MAX_EXPONENT:
        raise CommandError(EXIT_USAGE,
                           f"degree {max(du, dv)} has lam = 2^{e}; riskprob is capped at "
                           f"lam = 2^{RISKPROB_MAX_EXPONENT} = {1 << RISKPROB_MAX_EXPONENT}")
    which, rtype = _RISK_KIND[args.type]
    coeff, num = RISK_BOUNDS[which]
    bound_desc = f"{coeff} / dv^{num / 50:g}"
    unconditional = exact_edge_risk_probability(du, dv, rtype)
    worst = worst_conditional_risk(du, dv, which)
    holds = risk_bound_holds(du, dv, which)
    result = {
        "gated": True, "du": du, "dv": dv, "type": args.type,
        "unconditional": str(unconditional),
        "worst_conditional": str(worst),
        "bound": bound_desc, "bound_holds": holds,
    }
    record = make_record("riskprob", params, None, result, time.perf_counter() - t0)
    _emit(record, args, [
        f"type {args.type} risk for degrees ({du}, {dv})",
        f"  unconditional: {unconditional} = {float(unconditional):.6g}",
        f"  worst conditional: {worst} = {float(worst):.6g}",
        f"  bound {bound_desc}: {'holds' if holds else 'VIOLATED'}",
    ])
    return EXIT_OK


class CommandError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@functools.cache  # one tree per process: argparse keeps no state between parses
def build_parser() -> _Parser:
    top = _Parser(prog="irrdec", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)
    top.commands = sub.choices  # name -> that command's parser, filled below

    p = sub.add_parser("gen", help="generate a graph and print/write its edge list")
    p.add_argument("family", choices=sorted(GENERATORS))
    p.add_argument("params", nargs="*", help="positional generator parameters")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None, help="edge-list destination")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("decompose", help="run the three-part pipeline on an edge list")
    p.add_argument("in_path")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--slack", type=float, default=PipelineConfig.slack)
    p.add_argument("--mode", choices=SOLVER_MODES, default=PipelineConfig.solver_mode)
    p.add_argument("--budget", type=int, default=PipelineConfig.solver_budget)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("oracle", help="exact least number of locally irregular parts")
    p.add_argument("in_path")
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("audit", help="recompute every printed numeric claim")
    p.add_argument("--claim", default=None, help="substring filter on claim ids")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("riskprob", help="exact risky-edge probability for a degree pair")
    p.add_argument("du", type=int)
    p.add_argument("dv", type=int)
    p.add_argument("--type", choices=tuple(_RISK_KIND), default="1")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_riskprob)
    return top


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    top = build_parser()
    # a command's own parser reads its arguments, so they are parsed once;
    # only help, a missing command or an unknown one go through the top parser
    sub = top.commands.get(argv[0]) if argv else None
    args = sub.parse_args(argv[1:]) if sub else top.parse_args(argv)
    try:
        return args.fn(args)
    except CommandError as exc:
        print(f"irrdec: error: {exc}", file=sys.stderr)
        return exc.code
    except OSError as exc:
        print(f"irrdec: cannot read input: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"irrdec: bad data: {exc}", file=sys.stderr)
        return EXIT_DATA
