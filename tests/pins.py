"""The frozen values of the command line and the factor solver, in one table.

Each row (`Pin`) names what to run: `irrdec` arguments, or a function of
this module that prints a digest.  It holds the exit code, the result digest
and the record fields that run must give, and the `PYTHONHASHSEED` values and
`python -O` under which it is run again.  `check` runs the rows in order, in
the current directory, and takes how a command row is run:

- `in_process` calls `irrdec.cli.main` (the tier-1 suite, `tests/test_pins.py`);
- `installed` runs the `irrdec` script that `pip install` puts on PATH:

      pip install -e . && cd "$(mktemp -d)" && python /path/to/tests/pins.py

A change that moves a digest edits its row and records why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import irrdec
from irrdec.cli import main
from irrdec.factor_solver import (
    DegreeTargetSpec,
    ModularTargetSpec,
    allowed_degrees,
    find_degree_set_subgraph,
    find_modular_subgraph,
)
from irrdec.graph_core import random_regular


def _edges_digest(h) -> str:
    return "sha256:" + hashlib.sha256(json.dumps(sorted(h.edges)).encode()).hexdigest()


def heuristic_degree_set_solve() -> str:
    """One heuristic factor solve on a host with four shared (degree, set) keys."""
    g = random_regular(120, 18, seed=1)
    spec = DegreeTargetSpec({v: allowed_degrees(18, 4, v % 4) for v in range(g.n)})
    return _edges_digest(find_degree_set_subgraph(g, spec, mode="heuristic", budget=10000, seed=1))


def exact_modular_solve() -> str:
    """The exact search over allowed_sets' shared sets, the solver path of parts 1 and 2."""
    spec = ModularTargetSpec([v % 2 for v in range(18)], [2] * 18)
    return _edges_digest(find_modular_subgraph(random_regular(18, 12, seed=1), spec, mode="exact"))


def exact_every_degree_solve() -> str:
    """The exact search on 1,000 edges with every degree allowed: its branch
    order, pinned past the depth a once-per-edge recursion could reach."""
    g = random_regular(200, 10, seed=1)
    spec = DegreeTargetSpec({v: set(range(11)) for v in range(g.n)})
    return _edges_digest(find_degree_set_subgraph(g, spec, mode="exact"))


@dataclass(frozen=True)
class Pin:
    """One frozen run.  `fields` are (key, value) pairs that some object of
    the printed record holds; a command row with a digest, fields or `--json`
    must print exactly one record line."""

    name: str
    argv: tuple = ()
    call: Optional[Callable[[], str]] = None
    code: int = 0
    digest: Optional[str] = None
    fields: tuple = ()
    hash_seeds: tuple = ()
    optimize: bool = False


# input files the rows read beside the ones `gen --out` rows write
FILES = {"e5.el": "5\n", "e100k.el": "100000\n"}

PINS = (
    Pin("gen-path-3", ("gen", "path", "3", "--out", "p3.el")),
    Pin("decompose-path-3", ("decompose", "p3.el", "--seed", "1", "--json"), code=2,
        fields=(("code", "ExceptionComponent"),)),
    Pin("gen-path-0", ("gen", "path", "0", "--out", "e.el")),
    Pin("decompose-path-0", ("decompose", "e.el", "--seed", "7", "--json"),
        fields=(("stage", "windows"), ("min_degree", 0))),
    Pin("decompose-edgeless-5", ("decompose", "e5.el", "--seed", "7", "--json"),
        digest="sha256:96064f39a5c4151fce2ca4d89c8bd1ba9ab435fabffc91bd25e22be6382c1b70"),
    # 100,000 isolated vertices: the factor stages answer an edgeless host without a search
    Pin("decompose-edgeless-100k", ("decompose", "e100k.el", "--seed", "7", "--json"),
        digest="sha256:4f4cca91de04f10d9325771d7166be2cf098f896bb9a3a432d61af07cda2a62e"),
    # the generated graph the rr.el rows read
    Pin("gen-rr-240-22", ("gen", "random_regular", "240", "22", "--seed", "1", "--json"),
        digest="sha256:b422f35a202d8efca24c556593d8bb20cb1825dd113872eedd5a453bfd9a2d20",
        hash_seeds=(0, 1)),
    Pin("gen-rr-240-22-file", ("gen", "random_regular", "240", "22", "--seed", "1",
                               "--out", "rr.el")),
    # slack 0.21 makes the resampler run rounds before part 1 stops
    Pin("decompose-rr-seed-10", ("decompose", "rr.el", "--seed", "10", "--slack", "0.21",
                                 "--json"), code=2,
        digest="sha256:706bf4796b28b78a85f8031b0ca39f91d109de2d879629603cea730c8f511c56"),
    # seed 1 resamples once, then part 1 reads the resampler's kept risky sets;
    # python -O strips bare asserts
    Pin("decompose-rr-seed-1", ("decompose", "rr.el", "--seed", "1", "--slack", "0.21",
                                "--json"), code=2,
        digest="sha256:8ba7e119b24deb6b5755e21059eba7ef7fff6bf31a9dc5a17d11896deb0f753c",
        hash_seeds=(0, 1), optimize=True),
    # e in {2, 3}: classify and the resampler's rounds split their pairs by emin
    Pin("gen-gnp-120", ("gen", "gnp", "120", "0.3", "--seed", "3", "--out", "gnp.el")),
    Pin("decompose-gnp-120", ("decompose", "gnp.el", "--seed", "1", "--json"), code=2,
        digest="sha256:43a8aafbcb2842ceb7f2e34bbc605d06573f55e574fc6188828f1ef9f0479ce8",
        hash_seeds=(0, 1)),
    Pin("decompose-gnp-120-slack", ("decompose", "gnp.el", "--seed", "1", "--slack", "0.3",
                                    "--json"), code=2,
        digest="sha256:c2fca8ed2c0c98cb8d5d3bee26ce374b346c87f5036bfba26d0d5c1d06067387",
        hash_seeds=(0, 1)),
    Pin("gen-gnp-30", ("gen", "gnp", "30", "0.5", "--seed", "3", "--out", "gnp30.el")),
    Pin("decompose-gnp-30", ("decompose", "gnp30.el", "--seed", "1", "--slack", "0.5",
                             "--json"), code=2,
        digest="sha256:ab314974f0f215ed3eebfb91b8ac7638641147b54d357a17708155d5b79646dc"),
    Pin("heuristic-degree-set-solve", call=heuristic_degree_set_solve,
        digest="sha256:87e8b3e7ec737e7f242f741938fcff1d725c17af8b8b512eb365131f385bdf25"),
    Pin("exact-modular-solve", call=exact_modular_solve,
        digest="sha256:5381d8e0c1860ece1a501b05e0ed7ae3c6a9a182fdc0c0c778666da803e28b21",
        hash_seeds=(0, 1)),
    Pin("exact-every-degree-solve", call=exact_every_degree_solve,
        digest="sha256:e0a590c972e64e103e45dba536ed1503f448a688ec2f2af8fcca4db74a249467",
        hash_seeds=(0, 1)),
    Pin("gen-cycle-17", ("gen", "cycle", "17", "--out", "c17.el")),
    Pin("oracle-cycle-17", ("oracle", "c17.el", "--json"), code=2, fields=(("k", None),)),
    Pin("gen-spider-2", ("gen", "spider", "2", "--out", "sp.el")),
    # re-pinned for the oracle's breadth-first edge order, which moved the
    # witness and the node count
    Pin("oracle-spider-2", ("oracle", "sp.el", "--json"), fields=(("k", 3),),
        digest="sha256:cb254d91102754c306fd42621794159c1081ed993755e75fcb57fad73d9fe8d2"),
    Pin("audit", ("audit",)),
    Pin("audit-json", ("audit", "--json"), fields=(("all_pass", True),),
        digest="sha256:54d223bcad2ddeb1297c715e3a7d3177f71141d0cf38e0d7f0c1f95f4a30bb6d"),
    Pin("gen-t-family", ("gen", "t_family"), code=64),
    # 10^6 and 2*10^6 both have e = 8
    Pin("riskprob-e8-type-1", ("riskprob", "1000000", "2000000", "--type", "1", "--json"),
        digest="sha256:e65ffeca2067610ec1879b1d170e3052635376d162dbc4a219958da9664c06a1"),
    Pin("riskprob-e8-type-2", ("riskprob", "1000000", "2000000", "--type", "2", "--json"),
        digest="sha256:554b99009302e01e65feb46341d55428ef8bbf54e38602517d94c56000792353"),
    Pin("riskprob-e8-type-3", ("riskprob", "1000000", "2000000", "--type", "3", "--json"),
        digest="sha256:8d6c452e155a5064aa1a2512a656ccc38b62cd37ca12b5a7002c2d88b08b4ad6"),
    Pin("riskprob-e8-type-23", ("riskprob", "1000000", "2000000", "--type", "23", "--json"),
        fields=(("bound_holds", True),),
        digest="sha256:8099ede25fd8291d9655e6f8833b8499939336c570b69b2e72944ea9385165bb"),
    Pin("riskprob-e10-type-23", ("riskprob", "10000000000", "20000000000", "--type", "23",
                                 "--json"), fields=(("bound_holds", True),)),
    Pin("riskprob-e10-type-1", ("riskprob", "10000000000", "20000000000", "--type", "1",
                                "--json"),
        digest="sha256:e1a47758ab5442b29979bfd6a727643f04841f9092e0c5811fce021047759980"),
    Pin("riskprob-e10-type-3", ("riskprob", "10000000000", "20000000000", "--type", "3",
                                "--json"),
        digest="sha256:fbcc9f81e2cb8f4e16c1b3c7d0b90a7daa2ed4273d2cfbff2be54318a945bd01"),
    Pin("riskprob-one-line", ("riskprob", "100", "120", "--json")),
    Pin("help", ("--help",)),
    Pin("no-command", (), code=64),
)

BY_NAME = {pin.name: pin for pin in PINS}

_HERE = os.path.dirname(os.path.abspath(__file__))
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(irrdec.__file__)))


def _subprocess(cmd: list, env: dict) -> tuple:
    path = os.pathsep.join(filter(None, [_PACKAGE_ROOT, _HERE, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(cmd, env=dict(os.environ, PYTHONPATH=path, **env),
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout


def in_process(argv: tuple, env: dict) -> tuple:
    """(exit code, stdout) of `irrdec.cli.main(argv)`; a run under other
    environment variables gets a fresh interpreter."""
    if env:
        main_call = "import sys; from irrdec.cli import main; sys.exit(main(sys.argv[1:]))"
        return _subprocess([sys.executable, "-c", main_call, *argv], env)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse: help, or a usage error
            code = 0 if exc.code is None else exc.code
    return code, out.getvalue()


def installed(argv: tuple, env: dict) -> tuple:
    """(exit code, stdout) of the `irrdec` script on PATH."""
    return _subprocess(["irrdec", *argv], env)


def _variants(pin: Pin) -> list:
    """The environment overrides of each run of a row, the plain run first."""
    return ([{}] + [{"PYTHONHASHSEED": str(hs)} for hs in pin.hash_seeds]
            + ([{"PYTHONOPTIMIZE": "1"}] if pin.optimize else []))


def _holds(node, key, value) -> bool:
    """Whether some object in the record maps key to value."""
    if isinstance(node, dict):
        if key in node and json.dumps(node[key]) == json.dumps(value):
            return True
        node = list(node.values())
    return isinstance(node, list) and any(_holds(v, key, value) for v in node)


def _problems(pin: Pin, code: int, out: str) -> list:
    found = [] if code == pin.code else [f"exit code {code}, expected {pin.code}"]
    if pin.call is not None:
        if out.strip() != pin.digest:
            found.append(f"digest {out.strip()}, expected {pin.digest}")
        return found
    if pin.digest is None and not pin.fields and "--json" not in pin.argv:
        return found
    lines = out.splitlines()
    try:
        (record,) = map(json.loads, lines)
    except ValueError:
        return found + [f"{len(lines)} output lines, expected one JSON record"]
    if pin.digest is not None and record["manifest"]["result_digest"] != pin.digest:
        found.append(f"digest {record['manifest']['result_digest']}, expected {pin.digest}")
    found += [f"no {key!r}: {json.dumps(value)} in the record"
              for key, value in pin.fields if not _holds(record, key, value)]
    return found


def check(pins, run: Callable) -> list:
    """Run each row and its variants in the current directory, in order;
    `run(argv, env)` runs a command row.  Returns (row name, problem) pairs,
    none when every row holds."""
    for name, text in FILES.items():
        with open(name, "w") as fh:
            fh.write(text)
    failures = []
    for pin in pins:
        for env in _variants(pin):
            if pin.call is None:
                code, out = run(pin.argv, env)
            elif env:
                fn = pin.call.__name__
                code, out = _subprocess(
                    [sys.executable, "-c", f"from pins import {fn}; print({fn}())"], env)
            else:
                code, out = 0, pin.call()
            where = " ".join(f"{k}={v}" for k, v in env.items())
            failures += [(pin.name, f"{where} {p}".strip()) for p in _problems(pin, code, out)]
    return failures


if __name__ == "__main__":
    failures = check(PINS, installed)
    for name, problem in failures:
        print(f"{name}: {problem}", file=sys.stderr)
    print(f"{len(PINS) - len(dict(failures))}/{len(PINS)} pins hold")
    sys.exit(1 if failures else 0)
