"""One benchmark process: set up a workload, then time it or trace it.

run.py starts this in a fresh process for every role, so that set-up time and
peak memory belong to one workload alone.  Roles:

    setup    import, validate, warm up, then report the moment it was ready
    measure  after set-up, time units for --seconds; --trace 1 instead runs
             untraced/traced pairs of units and derives the per-layer metrics

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

OUT = Path(__file__).resolve().parent / ".out"


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def run_unit(workload, state, seed, scratch, checks, label, wrap=nullcontext):
    """Run one unit under ``wrap()``, time it, then check its output untimed.

    Returns (output, wall seconds), or (None, None) if the unit raised.
    """
    out_dir = Path(tempfile.mkdtemp(prefix=f"{label}-", dir=scratch))
    try:
        with wrap():
            t0 = time.perf_counter()
            try:
                output = workload.run(state, seed, out_dir)
            except Exception:
                traceback.print_exc()
                checks.expect(f"{workload.name}.{label}_ran", False, traceback.format_exc(limit=1))
                return None, None
            wall = time.perf_counter() - t0
        checks.expect(f"{workload.name}.{label}_ran", True)
        try:
            workload.check(state, seed, output, out_dir, checks)
        except Exception:
            traceback.print_exc()
            checks.expect(f"{workload.name}.{label}_checked", False, traceback.format_exc(limit=1))
        return output, wall
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def measure(w, state, seed, seconds, scratch, checks) -> dict:
    """Time units until ``seconds`` have passed: one at each reference seed,
    whose output must equal the recorded reference, then units at seeds
    derived from ``seed``.  Whole-run checks follow, untimed."""
    import workloads as W

    seeds = itertools.chain(W.REFERENCE_SEEDS, (W.unit_seed(seed, k) for k in itertools.count()))
    walls, last = [], None
    begin = time.monotonic()
    for k, s in enumerate(seeds):
        if k >= len(W.REFERENCE_SEEDS) and time.monotonic() - begin >= seconds:
            break
        out, wall = run_unit(w, state, s, scratch, checks, "unit")
        if wall is not None:
            walls.append(wall)
            last = out
    if last is not None:
        try:
            w.check_run(state, last, checks)
        except Exception:
            traceback.print_exc()
            checks.expect(f"{w.name}.run_checked", False, traceback.format_exc(limit=1))
    return {"walls": walls, "periods": w.periods}


def trace(w, state, seed, seconds, scratch, checks) -> dict:
    """Run untraced/traced pairs of units on the same seed until ``seconds``
    have passed; the traced output must equal the untraced one."""
    import tracing
    import workloads as W

    recorder = tracing.Recorder()
    untraced, traced = [], []
    k = 0
    begin = time.monotonic()
    while k == 0 or time.monotonic() - begin < seconds:
        s = W.unit_seed(seed, k)
        a, wa = run_unit(w, state, s, scratch, checks, "untraced")
        b, wb = run_unit(w, state, s, scratch, checks, "traced",
                         lambda: tracing.traced(recorder, W.LAYERS))
        if wa is not None and wb is not None:
            untraced.append(wa)
            traced.append(wb)
            checks.expect(f"{w.name}.traced_equals_untraced", w.same_output(a, b))
        k += 1
    OUT.mkdir(exist_ok=True)
    (OUT / f"{w.name}.spans.json").write_text(json.dumps(recorder.dump()))
    if not traced:
        return {"layers": {}}
    totals = {"units": len(traced), "wall_s": sum(traced), "periods": w.periods * len(traced)}
    layers = W.layer_metrics(recorder, recorder.absent, totals, checks)
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    layers["trace.overhead_frac"] = (overhead, "frac")
    return {"layers": layers, "absent": sorted(recorder.absent)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "measure"), default="measure")
    args = ap.parse_args(argv)

    import workloads  # numpy and normsim: part of set-up

    w = workloads.WORKLOADS[args.workload]
    state = w.setup()
    ready = time.monotonic()
    if args.role == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    checks = workloads.Checks()
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="scratch-", dir=OUT))
    try:
        body = (trace if args.trace else measure)(
            w, state, args.seed, args.seconds, scratch, checks
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    body.update(
        ready=ready,
        attempted=checks.attempted,
        failed=checks.failed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment(),
    )
    print(json.dumps(body))
    return 0


if __name__ == "__main__":
    sys.exit(main())
