#!/usr/bin/env python3
"""sliceq benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload search --seed 0 --seconds 20 --trace 0

Runs from the root of a source checkout and imports sliceq from its ``src``
directory. Repeats whole rounds of the workload's operations until the time
is up, checks every result, and prints as its last line one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run measures
half its time untraced, then as many rounds traced, and reports per-layer
figures and the tracing overhead.

``python3 bench/run.py --digests`` prints the trajectory digests of every
workload's pinned runs, in the form ``bench/digests.json`` keeps them.
"""
from __future__ import annotations

import argparse
import contextlib
import heapq
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from functools import partial
from pathlib import Path

# One BLAS thread: the workloads run in one process with no worker pool, and
# a second BLAS thread contends with whatever else holds the other core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
# The speed of a shared machine drifts, by up to a factor of two within a
# minute, so times are normalized: each operation's wall time is scaled by a
# reference time over the mean duration of a fixed kernel run just before and
# just after it. Figures are then seconds on a machine that runs the kernel
# in its reference time (the fast state of a 2-vCPU x86 box). Interpreted
# Python and dense BLAS slow down by different amounts, so an operation is
# calibrated with the kernel of the kind of work that dominates it.
PYTHON_KERNEL_STEPS = 20_000
PYTHON_KERNEL_REF_S = 0.017
BLAS_KERNEL_SIZE = 1024
BLAS_KERNEL_STEPS = 48
BLAS_KERNEL_REF_S = 0.018


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and per-layer metrics BENCHMARK.json names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def load_program() -> None:
    """Import sliceq from this checkout's sources, and from nowhere else."""
    init = SRC / "sliceq" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"bench: sliceq sources not found at {init.parent}")
    sys.path.insert(0, str(SRC))
    import sliceq

    if Path(sliceq.__file__).resolve() != init.resolve():
        raise SystemExit(f"bench: imported sliceq from {sliceq.__file__}, not {init}")


def python_kernel() -> float:
    """Seconds a fixed mix of heap, dict, list and float work takes now."""
    t0 = time.perf_counter()
    heap, table, window, acc = [], {}, [], 0.0
    for i in range(PYTHON_KERNEL_STEPS):
        heapq.heappush(heap, ((i * 7919) % 1000 / 7.0, i))
        if len(heap) > 64:
            acc += math.exp(-heapq.heappop(heap)[0] * 1e-3)
        key = i & 255
        table[key] = table.get(key, 0.0) + acc * 1e-9
        window.append(key)
        if len(window) > 128:
            window.clear()
    return time.perf_counter() - t0


def blas_kernel() -> float:
    """Seconds a fixed run of dense matrix-vector products takes now."""
    import numpy as np

    t0 = time.perf_counter()
    mat = np.full((BLAS_KERNEL_SIZE, BLAS_KERNEL_SIZE), 1.0 / BLAS_KERNEL_SIZE)
    x = np.ones(BLAS_KERNEL_SIZE)
    for _ in range(BLAS_KERNEL_STEPS):
        x = x @ mat
    return time.perf_counter() - t0


KERNELS = {"python": (python_kernel, PYTHON_KERNEL_REF_S),
           "blas": (blas_kernel, BLAS_KERNEL_REF_S)}


def slowdown(kernel: str) -> float:
    """How much slower than its reference the kernel runs now (mean of 3)."""
    run, ref = KERNELS[kernel]
    return sum(run() for _ in range(3)) / (3 * ref)


def time_setup(workload: str, seed: int) -> float:
    """Normalized seconds to import sliceq and build one workload's inputs."""
    before = slowdown("python")
    t0 = time.perf_counter()
    load_program()
    import workloads

    wl = workloads.WORKLOADS[workload](seed, workloads.Checks())
    wl.setup()
    raw = time.perf_counter() - t0
    return raw * 2.0 / (before + slowdown("python"))


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters, each timed from inside."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-child",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


@dataclass
class Round:
    wall: float = 0.0      # normalized, as every time below
    raw_wall: float = 0.0  # as measured
    attempted: int = 0
    failed: int = 0
    events: int = 0
    events_time: float = 0.0
    evaluations: int = 0
    evaluations_time: float = 0.0
    strategies: int = 0


def run_round(wl, tracer=None) -> Round:
    rnd = Round()
    last = {}  # kernel -> slowdown measured after the previous operation
    for op in wl.ops():
        before = last.get(op.kernel) or slowdown(op.kernel)
        with tracer.installed() if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception:
                result = None
                traceback.print_exc()
            raw = time.perf_counter() - t0
        after = slowdown(op.kernel)
        last = {op.kernel: after}
        dt = raw * 2.0 / (before + after)
        rnd.wall += dt
        rnd.raw_wall += raw
        if result is None:
            rnd.attempted += op.attempted
            rnd.failed += op.attempted
            continue
        tally = op.check(result)
        rnd.attempted += tally.attempted
        rnd.failed += tally.failed
        rnd.events += tally.events
        rnd.events_time += dt if tally.events else 0.0
        rnd.evaluations += tally.evaluations
        rnd.evaluations_time += dt if tally.evaluations else 0.0
        rnd.strategies += tally.strategies
    return rnd


def run_rounds(wl, seconds: float | None = None, count: int | None = None,
               tracer=None) -> list[Round]:
    """Whole rounds until ``seconds`` have passed, or exactly ``count``."""
    start = time.perf_counter()
    rounds = []
    while True:
        rounds.append(run_round(wl, tracer))
        if count is not None and len(rounds) >= count:
            return rounds
        if count is None and time.perf_counter() - start >= seconds:
            return rounds


def end_to_end(rounds: list[Round]) -> dict[str, float]:
    def rate(count, seconds):  # 0 when every operation of the kind raised
        return count / seconds if seconds else 0.0

    med = statistics.median
    return {
        "wall_s": med(r.wall for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "strategies_per_s": med(rate(r.strategies, r.wall) for r in rounds),
        "events_per_s": med(rate(r.events, r.events_time) for r in rounds),
        "evaluations_per_s": med(rate(r.evaluations, r.evaluations_time) for r in rounds),
    }


def check_digest(workload: str, digest: str) -> None:
    path = BENCH / "digests.json"
    expected = json.loads(path.read_text()).get(workload) if path.is_file() else None
    if expected is None:
        print(f"trajectory {workload}: {digest} (no reference digest)")
    elif expected == digest:
        print(f"trajectory {workload}: {digest} unchanged")
    else:
        print(f"trajectory {workload}: trajectory changed: {digest}, reference {expected}")


def print_digests() -> None:
    load_program()
    import workloads

    out = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(0, workloads.Checks())
        wl.setup()
        out[name] = wl.digest()
    print(json.dumps(out, indent=2))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("search", "regimes", "analytic"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--digests", action="store_true",
                    help="print the pinned-run digests of every workload and exit")
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.digests:
        print_digests()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_child:
        print(repr(time_setup(args.workload, args.seed)))
        return 0

    end_to_end_units, per_layer_units = metric_units()
    load_program()
    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    import tracing
    import workloads

    checks = workloads.Checks()
    wl = workloads.WORKLOADS[args.workload](args.seed, checks)
    tracer = tracing.Tracer() if args.trace else None
    with tracer.installed() if tracer else contextlib.nullcontext():
        wl.setup()
    plain = run_rounds(wl, seconds=args.seconds / 2 if tracer else args.seconds)
    traced = run_rounds(wl, count=len(plain), tracer=tracer) if tracer else []
    check_digest(args.workload, wl.digest())

    e2e = end_to_end(plain)
    if tracer:
        traced_slowdown = sum(r.raw_wall for r in traced) / sum(r.wall for r in traced)
        metrics = {**workloads.probe(tracing.Tracer(), partial(slowdown, "python")),
                   **tracer.layer_metrics(rounds=len(traced), slowdown=traced_slowdown),
                   **wl.layer_extras()}
        metrics["trace.overhead_ratio"] = (statistics.median(r.wall for r in traced)
                                           / e2e["wall_s"])
        units = per_layer_units
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "rounds": len(traced),
             "spans": tracer.spans}))
    else:
        metrics = {"setup_s": setup_s, **e2e}
        units = end_to_end_units

    all_rounds = plain + traced
    for label, rounds in (("untraced", plain), ("traced", traced)):
        if rounds:
            print(f"{args.workload} seed {args.seed}: {len(rounds)} {label} rounds, "
                  f"median wall {statistics.median(x.wall for x in rounds):.4f} s normalized, "
                  f"{statistics.median(x.raw_wall for x in rounds):.4f} s measured")
    shown = e2e if setup_s is None else {"setup_s": setup_s, **e2e}
    for name, value in shown.items():
        print(f"  {name:<42} {value:.6g} {end_to_end_units[name]}")
    if tracer:
        for name, unit in per_layer_units.items():
            print(f"  {name:<42} {metrics.get(name, float('nan')):.6g} {unit}")
    for err in checks.errors[:20]:
        print(f"CHECK FAILED: {err}")
    if checks.failures > 20:
        print(f"CHECK FAILED: {checks.failures - 20} more")
    missing = [name for name in units if name not in metrics]
    if missing:
        print(f"bench: no figure for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": checks.failures == 0,
        "attempted": sum(r.attempted for r in all_rounds),
        "failed": sum(r.failed for r in all_rounds),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
