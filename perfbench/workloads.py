"""Workloads of the normsim benchmark, their output checks and layer metrics.

Every workload uses L=3, c=1, h=1.  A *unit* is one fixed amount of work (one
``run_experiment`` call, or one pass of the exact-chain pipeline); run lengths
are fixed here so that every commit measures the same work per unit.  README.md
says why each workload was chosen and what each layer metric should move.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import normsim  # noqa: E402
from normsim import chain, norms, sim  # noqa: E402

from tracing import Layer, Recorder, root_total, summarize  # noqa: E402

if Path(normsim.__file__).resolve().parent.parent != SRC:
    raise ImportError(f"normsim was imported from {normsim.__file__}, not from {SRC}")

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEEDS = (0, 1108)  # the specs' default seed and one held out
WARMUP_PERIODS = 50
OMEGA_TOL = 1e-9
RESIDUAL_TOL = 1e-10
LINEAR_TOL = 1e-8

# Criterion 05's spec: N=500, b=3, delta=0.5, eps=0.05, gamma=0.1.
_CRITERION_05 = {
    "mode": "evolution", "N": 500, "L": 3, "b": 3.0, "c": 1.0, "delta": 0.5,
    "epsilon": 0.05, "gamma": 0.1, "h": 1, "periods": 4000, "sample_stride": 1000,
}


def unit_seed(seed: int, k: int) -> int:
    """Seed of the k-th unit of a run, derived from the run's seed alone."""
    return int(np.random.SeedSequence((seed, k)).generate_state(1)[0])


def json_normal(doc):
    """``doc`` as it reads back from JSON, so tuples and lists compare equal."""
    return json.loads(json.dumps(doc))


class Checks:
    """Counts output checks; each named expectation is one attempt."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, name: str, ok: bool, detail="") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}"[:500])

    @property
    def failed(self) -> int:
        return len(self.failures)


# ---------------------------------------------------------------- sim


def _summary_problems(run: dict, N: int, L: int, periods: int) -> list[str]:
    problems = []
    counts = run.get("terminal_configuration")
    if not (isinstance(counts, list) and len(counts) == L + 1
            and all(isinstance(n, int) and n >= 0 for n in counts) and sum(counts) == N):
        problems.append(f"terminal census {counts} does not sum to N={N}")
    for key in ("terminal_fraction_top", "terminal_mean_fraction_top", "defection_fraction"):
        x = run.get(key)
        if not (isinstance(x, float) and math.isfinite(x) and 0.0 <= x <= 1.0):
            problems.append(f"{key}={x!r} is not a finite fraction")
    conv = run.get("convergence_period")
    if conv is not None and not (isinstance(conv, int) and 1 <= conv <= periods):
        problems.append(f"convergence_period={conv!r} outside [1, {periods}]")
    if run.get("periods") != periods:
        problems.append(f"periods={run.get('periods')!r}, expected {periods}")
    return problems


def _timeseries_problems(path: Path, N: int, L: int, periods: int, stride: int) -> list[str]:
    lines = path.read_text().splitlines()
    header = ["period"] + [f"n{r}" for r in range(L + 1)] + ["U", "services"]
    if lines[0].split(",") != header:
        return [f"{path.name}: header {lines[0]!r}"]
    expected = periods // stride + (1 if periods % stride else 0)
    problems = []
    if len(lines) - 1 != expected:
        problems.append(f"{path.name}: {len(lines) - 1} samples, expected {expected}")
    last = 0
    for line in lines[1:]:
        cells = line.split(",")
        period, counts = int(cells[0]), [int(x) for x in cells[1:L + 2]]
        welfare, services = float(cells[L + 2]), int(cells[L + 3])
        if period <= last or sum(counts) != N or min(counts) < 0:
            problems.append(f"{path.name}: period {period} census {counts}")
        if not math.isfinite(welfare) or not 0 <= services <= N:
            problems.append(f"{path.name}: period {period} U={welfare} services={services}")
        last = period
    if last != periods:
        problems.append(f"{path.name}: last sample at period {last}, expected {periods}")
    return problems


@dataclass(frozen=True)
class SimWorkload:
    """One ``run_experiment`` call of a fixed spec, writing its artifacts."""

    name: str
    doc: dict

    def spec(self, seed: int, periods: int | None = None):
        doc = dict(self.doc, seed=seed)
        if periods is not None:
            doc["periods"] = periods
        return sim.ExperimentSpec.from_dict(doc)

    @property
    def periods(self) -> int:
        """Simulated periods in one unit, summed over sweep points."""
        return self.doc["periods"] * len(self.doc.get("delta_grid", (None,)))

    def setup(self):
        self.spec(0)
        sim.run_experiment(self.spec(0, periods=WARMUP_PERIODS))
        return None

    def run(self, state, seed: int, out_dir: Path):
        return sim.run_experiment(self.spec(seed), out_dir=out_dir)

    def check(self, state, seed: int, summary: dict, out_dir: Path, checks: Checks) -> None:
        """Invariants of the summary and the timeseries artifacts; at a
        reference seed, the summary must also equal the recorded one."""
        N, L = self.doc["N"], self.doc["L"]
        periods, stride = self.doc["periods"], self.doc["sample_stride"]
        runs = summary.get("sweep", [summary])
        written = json.loads((out_dir / "summary.json").read_text())
        checks.expect(f"{self.name}.summary_written", written == json_normal(summary))
        problems = [p for run in runs for p in _summary_problems(run, N, L, periods)]
        checks.expect(f"{self.name}.summary_invariants", not problems, problems[:3])
        series = sorted(out_dir.glob("timeseries*.csv"))
        problems = [p for path in series for p in _timeseries_problems(path, N, L, periods, stride)]
        if len(series) != len(runs):
            problems.append(f"{len(series)} timeseries files for {len(runs)} runs")
        checks.expect(f"{self.name}.timeseries_invariants", not problems, problems[:3])
        if seed in REFERENCE_SEEDS:
            checks.expect(
                f"{self.name}.reference_seed_{seed}",
                json_normal(summary) == load_reference()[self.name][str(seed)],
                "summary differs from reference.json",
            )

    def check_run(self, state, output, checks: Checks) -> None:
        """Nothing beyond the per-unit checks."""

    def same_output(self, a: dict, b: dict) -> bool:
        return json_normal(a) == json_normal(b)

    def reference(self, state, out_dir_for) -> dict:
        """Summaries at the reference seeds, as recorded in reference.json."""
        return {
            str(seed): json_normal(self.run(state, seed, out_dir_for(seed)))
            for seed in REFERENCE_SEEDS
        }


# ---------------------------------------------------------------- chain


@contextmanager
def _random_start_seed(seed: int):
    """Route the run's seed to ``stationary_distribution``'s random-start check."""
    fn = getattr(chain, "stationary_distribution", None)
    if fn is None or "seed" not in inspect.signature(fn).parameters:
        yield
        return
    chain.stationary_distribution = functools.partial(fn, seed=seed)
    try:
        yield
    finally:
        chain.stationary_distribution = fn


@dataclass(frozen=True)
class ChainOutput:
    space: object
    result: object
    classification: object


@dataclass(frozen=True)
class ChainWorkload:
    """``normsim chain`` without the file writing: enumerate the censuses, run
    ``limiting_distribution`` on ``DEFAULT_EPS_LADDER``, ``classify_absorbing``."""

    name: str
    config: dict

    periods = 0

    def setup(self):
        norm = norms.norm_from_dict(self.config)
        chain.enumerate_configs(norm.params.N, norm.L)
        small = norms.norm_from_dict(dict(self.config, N=4))
        self.run(small, 0, None)
        return norm

    def run(self, norm, seed: int, out_dir):
        space = chain.enumerate_configs(norm.params.N, norm.L)
        with _random_start_seed(seed):
            result = chain.limiting_distribution(norm, space)
        classification = chain.classify_absorbing(norm, space)
        return ChainOutput(space, result, classification)

    def check(self, norm, seed: int, out: ChainOutput, out_dir, checks: Checks) -> None:
        """The output does not depend on the seed: every unit must match the reference."""
        ref = load_reference()[self.name]
        checks.expect(f"{self.name}.support", list(out.result.support) == ref["support"],
                      f"support {out.result.support}, reference {ref['support']}")
        got = list(out.classification.absorbing_indices)
        checks.expect(f"{self.name}.absorbing_indices", got == ref["absorbing_indices"],
                      f"absorbing {got}, reference {ref['absorbing_indices']}")
        for eps in out.result.eps_ladder:
            want = np.asarray(ref["omega"][f"{eps:g}"])
            gap = float(np.abs(out.result.table[eps].weights - want).max())
            checks.expect(f"{self.name}.omega_{eps:g}", gap <= OMEGA_TOL, f"max gap {gap:.3e}")

    def same_output(self, a: ChainOutput, b: ChainOutput) -> bool:
        return (a.classification == b.classification and a.result.support == b.result.support
                and all(np.array_equal(a.result.table[e].weights, b.result.table[e].weights)
                        for e in a.result.eps_ladder))

    def reference(self, norm, out_dir_for) -> dict:
        """Support, absorbing indices and every rung's distribution."""
        out = self.run(norm, 0, None)
        return {
            "support": list(out.result.support),
            "absorbing_indices": list(out.classification.absorbing_indices),
            "omega": {f"{eps:g}": out.result.table[eps].weights.tolist()
                      for eps in out.result.eps_ladder},
        }

    def check_run(self, norm, out: ChainOutput, checks: Checks) -> None:
        """Fixed-point residual at the smallest rung; linear solve at the largest."""
        ladder = out.result.eps_ladder
        P = chain.build_transition_matrix(norm, out.space, epsilon=ladder[-1])
        w = out.result.table[ladder[-1]].weights
        residual = float(np.abs(w @ P.entries - w).max())
        checks.expect(f"{self.name}.residual", residual <= RESIDUAL_TOL, f"{residual:.3e}")
        P = chain.build_transition_matrix(norm, out.space, epsilon=ladder[0])
        lin = chain.stationary_linear(P).weights
        gap = float(np.abs(out.result.table[ladder[0]].weights - lin).max())
        checks.expect(f"{self.name}.linear_{ladder[0]:g}", gap <= LINEAR_TOL, f"{gap:.3e}")


WORKLOADS = {
    w.name: w
    for w in (
        SimWorkload("evolution-n500", _CRITERION_05),
        SimWorkload("adaptive-n500", dict(_CRITERION_05, mode="adaptive-belief")),
        SimWorkload("sweep-n200", {
            k: v for k, v in dict(
                _CRITERION_05, mode="delta-sweep", N=200, periods=3000,
                delta_grid=[0.3, 0.5, 0.7, 0.9],
            ).items() if k != "delta"
        }),
        ChainWorkload("chain-n16", {
            "N": 16, "L": 3, "b": 3.0, "c": 1.0, "delta": 0.6, "epsilon": 0.01, "h": 1,
        }),
    )
}


@functools.cache
def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


# ---------------------------------------------------------------- layers


def _count_rows(recorder: Recorder, name: str, args, kwargs, result) -> None:
    etas = args[1] if len(args) > 1 else kwargs.get("etas")
    recorder.count(name, "rows", float(len(etas)))


def _kernel_stats(recorder: Recorder, name: str, args, kwargs, result) -> None:
    entries = getattr(result, "entries", None)
    if entries is None:
        return
    states = entries.shape[0]
    nnz = entries.nnz if hasattr(entries, "nnz") else int(np.count_nonzero(entries))
    nbytes = sum(getattr(entries, a).nbytes for a in ("data", "indices", "indptr")) \
        if hasattr(entries, "nnz") else entries.nbytes
    recorder.high_water(name, "states", float(states))
    recorder.high_water(name, "nnz_frac", nnz / float(states * states))
    recorder.high_water(name, "mb", nbytes / 2.0**20)


LAYERS = (
    Layer("normsim.sim", "run_experiment", "sim.run_experiment"),
    Layer("normsim.sim", "run_evolution", "sim.run_evolution"),
    Layer("normsim.sim", "run_adaptation", "sim.run_adaptation"),
    Layer("normsim.sim", "run_period", "sim.run_period"),
    Layer("normsim.sim", "solve_policy_batch", "bestresponse.solve_policy_batch", _count_rows),
    Layer("normsim.chain", "build_transition_matrix", "chain.build_transition_matrix", _kernel_stats),
    Layer("normsim.chain", "stationary_distribution", "chain.stationary_distribution"),
    Layer("normsim.chain", "solve_policy_batch", "chain.solve_policy_batch", _count_rows),
    Layer("normsim.chain", "classify_absorbing", "chain.classify_absorbing"),
    Layer("normsim.chain", "enumerate_configs", "chain.enumerate_configs"),
)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# (metric, unit, layer, value from the layer's row r and the run totals t)
LAYER_METRICS = (
    ("sim.run_adaptation.us_per_call", "us", "sim.run_adaptation",
     lambda r, t: 1e6 * _ratio(r["self_s"], r["calls"])),
    ("sim.run_adaptation.share", "frac", "sim.run_adaptation",
     lambda r, t: _ratio(r["self_s"], t["wall_s"])),
    ("bestresponse.solve_policy_batch.calls_per_period", "1/period", "bestresponse.solve_policy_batch",
     lambda r, t: _ratio(r["calls"], t["periods"])),
    ("bestresponse.solve_policy_batch.rows_per_call", "rows", "bestresponse.solve_policy_batch",
     lambda r, t: _ratio(r.get("rows", 0.0), r["calls"])),
    ("bestresponse.solve_policy_batch.us_per_row", "us", "bestresponse.solve_policy_batch",
     lambda r, t: 1e6 * _ratio(r["self_s"], r.get("rows", 0.0))),
    ("bestresponse.solve_policy_batch.share", "frac", "bestresponse.solve_policy_batch",
     lambda r, t: _ratio(r["self_s"], t["wall_s"])),
    ("sim.run_period.us_per_call", "us", "sim.run_period",
     lambda r, t: 1e6 * _ratio(r["self_s"], r["calls"])),
    ("sim.run_period.share", "frac", "sim.run_period",
     lambda r, t: _ratio(r["self_s"], t["wall_s"])),
    ("sim.run_evolution.self_share", "frac", "sim.run_evolution",
     lambda r, t: _ratio(r["self_s"], t["wall_s"])),
    ("sim.run_experiment.self_s", "s", "sim.run_experiment",
     lambda r, t: _ratio(r["self_s"], t["units"])),
    ("chain.build_transition_matrix.calls", "count", "chain.build_transition_matrix",
     lambda r, t: _ratio(r["calls"], t["units"])),
    ("chain.build_transition_matrix.self_s_per_call", "s", "chain.build_transition_matrix",
     lambda r, t: _ratio(r["self_s"], r["calls"])),
    ("chain.build_transition_matrix.share", "frac", "chain.build_transition_matrix",
     lambda r, t: _ratio(r["self_s"], t["wall_s"])),
    ("chain.stationary_distribution.calls", "count", "chain.stationary_distribution",
     lambda r, t: _ratio(r["calls"], t["units"])),
    ("chain.stationary_distribution.s_per_call", "s", "chain.stationary_distribution",
     lambda r, t: _ratio(r["total_s"], r["calls"])),
    ("chain.stationary_distribution.share", "frac", "chain.stationary_distribution",
     lambda r, t: _ratio(r["self_s"], t["wall_s"])),
    ("chain.solve_policy_batch.rows_per_call", "rows", "chain.solve_policy_batch",
     lambda r, t: _ratio(r.get("rows", 0.0), r["calls"])),
    ("chain.solve_policy_batch.s_per_call", "s", "chain.solve_policy_batch",
     lambda r, t: _ratio(r["total_s"], r["calls"])),
    ("chain.classify_absorbing.self_s", "s", "chain.classify_absorbing",
     lambda r, t: _ratio(r["self_s"], t["units"])),
    ("chain.enumerate_configs.s", "s", "chain.enumerate_configs",
     lambda r, t: _ratio(r["total_s"], r["calls"])),
    ("chain.kernel_states", "count", "chain.build_transition_matrix",
     lambda r, t: r.get("states", 0.0)),
    ("chain.kernel_nnz_frac", "frac", "chain.build_transition_matrix",
     lambda r, t: r.get("nnz_frac", 0.0)),
    ("chain.kernel_dense_mb", "MB", "chain.build_transition_matrix",
     lambda r, t: r.get("mb", 0.0)),
)

TRACE_METRICS = (
    ("trace.overhead_frac", "frac"),
    ("trace.unwrapped_frac", "frac"),
)


def layer_metrics(recorder: Recorder, absent: set, totals: dict, checks: Checks) -> dict:
    """Per-layer metrics of the traced units; absent layers read ``None``.

    ``totals`` holds the traced units' count, wall time and simulated periods.
    Checks that the layers' self times partition the root spans, and that the
    root spans fit inside the traced wall time, so that self times plus the
    unwrapped remainder add up to that wall time.
    """
    rows = summarize(recorder)
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    out = {}
    for metric, unit, layer, fn in LAYER_METRICS:
        value = None if layer in absent else fn(rows.get(layer, zero), totals)
        out[metric] = (value, unit)
    self_sum = sum(r["self_s"] for r in rows.values())
    roots = root_total(recorder)
    checks.expect("trace.self_times_partition_roots",
                  abs(self_sum - roots) <= 1e-9 * max(1, len(recorder.names)),
                  f"self {self_sum:.9f} s, roots {roots:.9f} s")
    checks.expect("trace.roots_within_wall", roots <= totals["wall_s"] + 1e-6,
                  f"roots {roots:.6f} s, wall {totals['wall_s']:.6f} s")
    out["trace.unwrapped_frac"] = (_ratio(totals["wall_s"] - self_sum, totals["wall_s"]), "frac")
    return out
