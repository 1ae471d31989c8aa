"""Run one workload of the normsim benchmark and print its metrics.

    python3 perfbench/run.py --workload evolution-n500 --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 1

Run from the root of a checkout.  With ``--trace 0`` the last line of standard
output is one JSON object holding the end-to-end metrics that BENCHMARK.json
names; with ``--trace 1`` it holds the per-layer metrics of a separate traced
run.  The lines before it give the same numbers for people, with the run
environment.  ``--workload all`` runs every workload in turn.

This process imports neither numpy nor normsim.  Each workload runs in fresh
worker processes (worker.py) with a fixed number of BLAS threads, so that
set-up time and peak memory belong to that workload alone.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"
# One BLAS thread, at most nproc: on a 2-core machine the chain workload
# measured 8.1-8.3 s over 3 runs on one thread and 5.0-5.9 s on two.
BLAS_THREADS = "1"
SETUP_PROBES = 3  # set-up-only processes; with the measuring one, setup_s is a median of 4
DEADLINE_S = 170.0  # one workload's command must end within 180 s


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def load_benchmark() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def call_worker(argv: list[str], deadline: float) -> tuple[dict, float]:
    """Run worker.py in a fresh process; return its JSON and its start time."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {argv} ran past the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {argv} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), started
    except (IndexError, ValueError) as exc:
        raise BenchError(f"worker {argv} printed no result") from exc


def run_workload(bench: dict, name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace)]
    setups = []

    def probe():
        doc, started = call_worker(common + ["--role", "setup"], deadline)
        setups.append(doc["ready"] - started)

    # Set-up samples come from before and after the measuring process, so they
    # span the machine's speed phases over the whole run, as wall_s does.
    if not trace:
        probe()
    body, started = call_worker(common + ["--role", "measure"], deadline)
    setups.append(body["ready"] - started)
    if not trace:
        for _ in range(SETUP_PROBES - 1):
            probe()

    extras = {"failed_frac": (body["failed"] / body["attempted"], "frac")}
    if trace:
        values = {k: tuple(v) for k, v in body["layers"].items()}
        wanted = bench["per_layer"]
    else:
        # Timed wall time over units, as us_per_period is defined: the machine's
        # speed drifts in phases of tens of seconds, and a mean over the run
        # moves less between runs than a median that one phase can decide.
        walls = body["walls"]
        wall = sum(walls) / len(walls) if walls else None
        values = {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (body["peak_rss_mb"], "MB"),
        }
        if body["periods"] and wall is not None:
            extras["us_per_period"] = (1e6 * wall / body["periods"], "us")
        extras["units"] = (len(walls), "count")
        wanted = bench["end_to_end"]
    absent = [m["name"] for m in wanted if values.get(m["name"], (None,))[0] is None]
    # The result line holds numbers only.  A traced run reports the metrics of a
    # layer the program no longer has as 0 there and names them under "absent";
    # an untraced run missing an end-to-end metric is not correct.
    metrics = {
        m["name"]: {"value": values.get(m["name"], (None,))[0] or 0.0, "unit": m["unit"]}
        for m in wanted
    }
    complete = bool(trace) or not absent
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "env": body["env"], "extras": {k: {"value": v, "unit": u} for k, (v, u) in extras.items()},
        "absent_layers": body.get("absent", []), "absent": absent,
        "result": {
            "correct": body["failed"] == 0 and complete,
            "attempted": body["attempted"],
            "failed": body["failed"],
            "metrics": metrics,
        },
    }


def report(run: dict) -> None:
    """Human-readable lines; the JSON result line is printed by the caller."""
    print(f"env {json.dumps(run['env'], sort_keys=True)}")
    res = run["result"]
    print(f"{run['workload']} seed={run['seed']} trace={run['trace']} "
          f"checks={res['attempted']} failed={res['failed']}")
    for name, m in list(res["metrics"].items()) + list(run["extras"].items()):
        value = "absent" if name in run["absent"] else f"{m['value']:.6g}"
        print(f"  {name:52s} {value:>12s} {m['unit']}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{run['workload']}.trace{run['trace']}.json"
    path.write_text(json.dumps(run, indent=1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    try:
        if not (ROOT / "src" / "normsim" / "__init__.py").is_file():
            raise BenchError(f"no normsim sources under {ROOT / 'src'}")
        bench = load_benchmark()
        names = [w["name"] for w in bench["workloads"]]
        if args.workload != "all" and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names} or 'all'")
        runs = []
        for name in names if args.workload == "all" else [args.workload]:
            run = run_workload(bench, name, args.seed, args.seconds, args.trace)
            report(run)
            print(json.dumps(run["result"]), flush=True)
            runs.append(run)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(runs) > 1:
        print(json.dumps({
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "metrics": {f"{r['workload']}.{k}": v
                        for r in runs for k, v in r["result"]["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
