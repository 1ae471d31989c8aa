"""Run the benchmark on several seeds and report how far each metric spreads.

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --workloads evolution-n500 --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --baseline

For every workload and end-to-end metric this prints the median of the runs and
the distance between their first and third quartiles (``statistics.quantiles``
with n=4) as a share of the median, beside the metric's bound from
BENCHMARK.json.  A steady benchmark keeps every spread but set-up time's below
a third of its bound.  ``--baseline`` also makes one traced run per workload
and writes the medians and the per-layer numbers to perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--baseline", action="store_true")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    baseline = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        results = [run(workload, seed, seconds, 0) for seed in seeds]
        entry = {"correct_runs": sum(r["correct"] for r in results), "runs": len(results)}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            ok = name == "setup_s" or spread < bound / 3
            steady &= ok
            entry[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                           "unit": results[0]["metrics"][name]["unit"], "values": values}
            print(f"{workload:16s} {name:12s} median {median:10.5g}  spread {spread:7.4f}  "
                  f"bound {bound:5.3f}  {'ok' if ok else 'WIDE'}  "
                  f"[{' '.join(f'{v:.4g}' for v in values)}]", flush=True)
        if args.baseline:
            traced = run(workload, seeds[0], seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        baseline["workloads"][workload] = entry
        baseline["env"] = json.loads((HERE / ".out" / f"{workload}.trace0.json").read_text())["env"]
    if args.baseline:
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
