#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload kuo_grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its ``src/``.
One process, one thread.  Set-up comes first: imports, the seeded inputs
(made three times from empty program caches; the median pass counts) and
one checked warm-up operation on inputs outside the timed sequence.  Whole
rounds of operations then run, each from emptied program caches, until the
operations' summed wall time reaches ``--seconds``.  Each operation's check
runs after its timer stops.  Metric names and units come from
BENCHMARK.json.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds, prints the per-layer metrics and writes the
spans and the full per-layer table to ``bench/out/``.
"""

from __future__ import annotations

import os
import time

T_START = time.perf_counter()

# one BLAS / OpenMP thread; must be set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
SPEC = BENCH_DIR.parent / "BENCHMARK.json"  # the metric names and units
OUT_DIR = BENCH_DIR / "out"
SETUP_PASSES = 3

# Every reported time is scaled to a host on which the reference loop runs
# at REF_NOMINAL_S per iteration: a timed section's wall time is multiplied
# by REF_NOMINAL_S / (mean per-iteration time of reference samples taken
# just before and just after it).  The hosts this benchmark was written on
# switch, for seconds to minutes at a time, between speeds up to 2x apart;
# the reference loop slows with them, so the scaled figures compare commits
# where raw wall times cannot.  1.7e-5 s is the loop's per-iteration time in
# the fast phase of that host.  Each sample runs for 5% of the section it
# brackets, at least 25 ms.
REF_NOMINAL_S = 1.7e-5
REF_SHARE = 0.05
REF_MIN_S = 0.025
_REF_POLY = None

def reference_time(section_s: float = 0.0) -> float:
    """Per-iteration wall time of a fixed piece of interpreter-bound work:
    Python calls around small numpy polynomial evaluations, like the
    program's inner loops.  Runs for REF_SHARE of ``section_s``."""
    import math

    import numpy as np

    global _REF_POLY
    if _REF_POLY is None:
        _REF_POLY = np.linspace(-1.0, 1.0, 24).reshape(8, 3)
    polyval2d = np.polynomial.polynomial.polyval2d
    budget = max(REF_MIN_S, REF_SHARE * section_s)
    acc = 0.0
    n = 0
    t0 = time.perf_counter()
    while True:
        for i in range(100):
            x = 1e-3 * i
            acc += polyval2d(x, 0.5, _REF_POLY) * math.exp(-x * x)
        n += 100
        elapsed = time.perf_counter() - t0
        if elapsed >= budget:
            return elapsed / n


def timed(fn, tracer=None, op_id: int = -1, expected_s: float = 0.0):
    """Run fn between two reference samples sized for a section of ``expected_s``.

    Returns (result, or the exception it raised; wall seconds; scaled
    seconds).  With a tracer, fn runs inside the root span of ``op_id``.
    """
    before = reference_time(expected_s)
    if tracer is not None:
        tracer.begin(op_id)
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # counted by the caller
        out = exc
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.finish()
    after = reference_time(wall)
    scale = 2.0 * REF_NOMINAL_S / (before + after)
    if tracer is not None:
        tracer.op_scale[op_id] = scale
    return out, wall, wall * scale


@dataclass
class Tally:
    """What the timed rounds did; dicts are keyed by whether a round was traced."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    wall: dict = field(default_factory=lambda: {False: 0.0, True: 0.0})
    scaled: dict = field(default_factory=lambda: {False: 0.0, True: 0.0})
    done: dict = field(default_factory=lambda: {False: 0, True: 0})
    latencies: list = field(default_factory=list)  # scaled seconds of untraced operations


def run_rounds(wl, seconds: float, clear_caches, tracer=None, first_dt: float = 0.0) -> Tally:
    """Run whole rounds of ``wl`` until the operations' summed wall time
    reaches ``seconds``; with a tracer, odd rounds are traced and the run
    ends after a traced round.  Each round starts from emptied program
    caches, so its hits and misses and its memory do not depend on how many
    rounds ran before it.  An operation that raises or fails its check
    counts in ``failed`` and makes the run incorrect.
    """
    tally = Tally()
    last_dt = first_dt
    gc.collect()
    gc.disable()
    r = 0
    while True:
        traced = tracer is not None and r % 2 == 1
        clear_caches()
        ops = wl.round_ops(r)
        if traced:
            tracer.install()
        for op in ops:
            tally.attempted += 1
            out, dt, dt_scaled = timed(op.run, tracer if traced else None, tally.attempted, last_dt)
            last_dt = dt
            tally.wall[traced] += dt
            if isinstance(out, Exception):
                problems = [f"{type(out).__name__}: {out}"]
            else:
                problems = op.check(out)
                gc.collect()
            if problems:
                tally.failed += 1
                tally.correct = False
                print(f"round {r} {op.label}: failed: {problems[:3]}", file=sys.stderr)
                continue
            tally.scaled[traced] += dt_scaled
            tally.done[traced] += 1
            if not traced:
                tally.latencies.append(dt_scaled)
        if traced:
            tracer.uninstall()
        r += 1
        if tally.wall[False] + tally.wall[True] >= seconds and (tracer is None or r % 2 == 0):
            break
    gc.enable()
    return tally


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import ``nongauss`` from this checkout's src/, and nowhere else."""
    if not (SRC / "nongauss" / "__init__.py").is_file():
        raise SystemExit(f"error: no program at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import nongauss

    if Path(nongauss.__file__).resolve().parent != (SRC / "nongauss").resolve():
        raise SystemExit(f"error: imported nongauss from {nongauss.__file__}, not {SRC}")
    import tracing
    import workloads

    return workloads, tracing


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    spec = json.loads(SPEC.read_text())
    workloads, tracing = import_program()
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_wall = time.perf_counter() - T_START
    import_s = import_wall * REF_NOMINAL_S / statistics.median(reference_time() for _ in range(3))
    tracer = tracing.Tracer() if args.trace else None

    wl = workloads.WORKLOADS[args.workload](args.seed)
    passes = []
    scaled_prev = 0.0
    for i in range(SETUP_PASSES):
        workloads.clear_program_caches()
        traced_setup = tracer is not None and i == SETUP_PASSES - 1
        if traced_setup:
            tracer.install()
        out, _, scaled = timed(wl.make_inputs, tracer if traced_setup else None, -1, scaled_prev)
        if traced_setup:
            tracer.uninstall()
        if isinstance(out, Exception):
            raise out
        passes.append(scaled)
        scaled_prev = scaled

    def warm_up():
        op = wl.warm_up_op()  # its inputs are made here, inside set-up
        return op, op.run()

    out, warm_wall, warm_up_s = timed(warm_up, expected_s=scaled_prev)
    if isinstance(out, Exception):
        raise out
    warm, result = out
    warm_problems = warm.check(result)
    if warm_problems:
        print(f"warm-up check failed: {warm_problems[:3]}", file=sys.stderr)
    setup_s = import_s + statistics.median(passes) + warm_up_s

    tally = run_rounds(wl, args.seconds, workloads.clear_program_caches, tracer, warm_wall)
    if warm_problems:
        tally.correct = False
    wall, scaled, done, latencies = tally.wall, tally.scaled, tally.done, tally.latencies
    print(
        f"{tally.attempted} ops, {wall[False] + wall[True]:.1f} s of operations; untraced: "
        f"{done[False] / wall[False]:.4g} ops per wall second, host speed {scaled[False] / wall[False]:.3f}",
        file=sys.stderr,
    )

    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": done[False] / scaled[False],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    else:
        full = tracer.layer_metrics()
        q = statistics.quantiles(latencies, n=10, method="inclusive") if len(latencies) > 1 else latencies * 9
        untraced, traced_rate = done[False] / scaled[False], done[True] / scaled[True]
        full.update(
            {
                "op.ms_p50": statistics.median(latencies) * 1e3,
                "op.ms_p90": q[8] * 1e3,
                "op.untraced": float(len(latencies)),
                "trace.ops_per_s_untraced": untraced,
                "trace.ops_per_s_traced": traced_rate,
                "trace.overhead": untraced / traced_rate - 1.0,
                "host.wall_ops_per_s_untraced": done[False] / wall[False],
                "host.speed": scaled[False] / wall[False],
            }
        )
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json", full)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: full[name] for name in units}
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
