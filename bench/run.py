"""irrdec benchmark: one seeded workload per run, closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports irrdec from its src/
directory.  The loop sends the next op only after the previous one
returned and was checked; the checks run with the clock stopped.  It keeps
going until the ops have been busy for S seconds of wall clock, then
finishes the current block of the workload's repeating op mix and the
digest prefix.  Every op's output is checked independently;
see checks.py.

--trace 0 prints the end-to-end metrics, calibrated for host speed (see
speed_factor), with the wall-clock figures beside them.  --trace 1 traces
every other block of ops (the rest run bare, for the overhead ratio),
prints the per-layer metrics in wall-clock time and writes all spans to
bench/out/.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import time

T_START = time.perf_counter()  # set-up is timed from here to the first op

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 5  # set-ups per timed run: this one plus fresh interpreters

# Host speed calibration.  On a shared host the same code runs up to 30%
# faster or slower from one minute to the next, far beyond any bound worth
# having.  Every timed figure is therefore scaled by REF_S / r, where r is
# the current time of a fixed pure-Python loop, re-measured after every
# CALIBRATE_EVERY_S of op time.  REF_S is that loop's typical time on an
# Intel Xeon 2-vCPU host, so calibrated and wall-clock figures agree there;
# both are printed.
REF_LOOP = 40_000
REF_S = 0.0035
CALIBRATE_EVERY_S = 0.25


def speed_factor() -> float:
    """REF_S over the best of three timings of the reference loop."""
    best = float("inf")
    for _ in range(3):
        t, acc = time.perf_counter(), 0
        for i in range(REF_LOOP):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t)
    return REF_S / best


def import_irrdec():
    sys.path.insert(0, str(SRC))
    try:
        import irrdec
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import irrdec from {SRC}: {exc}")
    if not Path(irrdec.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: irrdec imported from {irrdec.__file__}, not from {SRC}")
    return irrdec


def machine_info(version: str) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "irrdec": version}


def tail(latencies: list) -> tuple:
    """(value, percentile, samples above): the highest percentile with at
    least 10 samples above it, or the maximum when there are too few."""
    xs = sorted(latencies)
    if len(xs) <= 10:
        return xs[-1], 100.0, 0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs), 10


def measure(workload, seconds: float, tracer=None) -> dict:
    import checks

    lat, wall, traced, outcomes, failures = [], [], [], Counter(), Counter()
    busy = {True: 0.0, False: 0.0}  # calibrated op time, traced and bare
    prefix, first = [], {}
    factor, since, elapsed = speed_factor(), 0.0, 0.0
    i = 0
    # whole blocks only, so every run has the same mix of op costs
    while elapsed < seconds or i % workload.block or i < workload.digest_ops:
        op = workload.ops[i % len(workload.ops)]
        # whole blocks alternate, so traced and bare ops have the same mix
        on = tracer is not None and (i // workload.block) % 2 == 1
        if on:
            tracer.install(i)
        t = time.perf_counter()
        try:
            out, error = op.call(), None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out, error = None, f"{op.kind} raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t
        if on:
            tracer.uninstall()
            traced.append(i)
        wall.append(dt)
        elapsed += dt
        lat.append(dt * factor)
        busy[on] += dt * factor
        since += dt
        if since >= CALIBRATE_EVERY_S:
            factor, since = speed_factor(), 0.0
        digest = "failed"
        if error is None:
            try:
                label, digest = op.check(out)
                key = i % len(workload.ops)
                if first.setdefault(key, digest) != digest:
                    error = f"{op.kind} digest changed on repeat"
            except checks.CheckFailed as exc:
                error = f"{op.kind}: {exc}"
            except Exception as exc:
                error = f"{op.kind} check raised {type(exc).__name__}: {exc}"
        if error is None:
            outcomes[f"{op.kind} {label}"] += 1
        else:
            failures[error] += 1
            digest = "failed"
        if i < workload.digest_ops:
            prefix.append(digest)
        i += 1
    return {"latencies": lat, "wall": wall, "traced": traced, "busy": busy, "outcomes": outcomes,
            "failures": failures, "digest": checks.combine_digests(prefix)}


def setup_in_fresh_interpreters(args, count: int) -> list:
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
            + (["--smoke"] if args.smoke else []),
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-tests")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    irrdec = import_irrdec()
    import workloads

    if args.workload not in workloads.BUILDERS:
        p.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.BUILDERS)}")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        wl = workloads.BUILDERS[args.workload](args.seed, workdir, args.smoke)
        setup_s = (time.perf_counter() - T_START) * speed_factor()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        origin = time.perf_counter()
        res = measure(wl, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lat = res["latencies"]
    attempted, failed = len(lat), sum(res["failures"].values())
    print("machine: " + json.dumps(machine_info(irrdec.__version__)))
    print(f"workload: {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} ops {attempted}")
    print("outcomes: " + json.dumps(dict(sorted(res["outcomes"].items()))))
    if failed:
        print("failures: " + json.dumps(dict(res["failures"].most_common())))
    print(f"digest: {res['digest']} over the first {wl.digest_ops} ops")

    if tracer is None:
        setups = [setup_s] + setup_in_fresh_interpreters(args, SETUP_SAMPLES - 1)
        tail_ms, pct, above = tail(lat)
        metrics = {
            "ops_per_s": metric(attempted / res["busy"][False], "ops/s"),
            "op_p50_ms": metric(1000 * statistics.median(lat), "ms"),
            "op_tail_ms": metric(1000 * tail_ms, "ms"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
        wall = res["wall"]
        notes = {
            "ops_per_s": f"wall clock {attempted / sum(wall):.6g}",
            "op_p50_ms": f"wall clock {1000 * statistics.median(wall):.6g}",
            "op_tail_ms": f"p{pct:.1f} of {attempted} ops, {above} beyond it; "
                          f"wall clock {1000 * tail(wall)[0]:.6g}",
            "setup_s": f"median of {len(setups)} set-ups, first in this interpreter",
        }
        for name, m in metrics.items():
            print(f"  {name:<13} {m['value']:<14.6g} {m['unit']:<6} {notes.get(name, '')}")
        print(f"  {'failed_ratio':<13} {failed / attempted:<14.6g} {'ratio':<6} "
              f"{failed} of {attempted} ops")
    else:
        n_on, n_off = len(res["traced"]), attempted - len(res["traced"])
        overhead = ((n_on / res["busy"][True]) / (n_off / res["busy"][False])
                    if n_on and n_off else 0.0)
        values = tracer.metrics(res["traced"], wl.digest_ops, overhead)
        metrics = {name: metric(values[name], unit)
                   for name, (unit, _) in tracing.METRICS.items()}
        for name, m in metrics.items():
            print(f"  {name:<42} {m['value']:<14.6g} {m['unit']}")
        for layer, effect in tracing.LAYER_EFFECTS.items():
            print(f"  layer {layer}: should move {effect}")
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_file, {"workload": args.workload, "seed": args.seed,
                                  "metrics": values}, origin)
        print(f"spans: {len(tracer.spans)} written to {trace_file}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
