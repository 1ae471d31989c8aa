"""Monte Carlo engine for large communities.

Each period every user requests one service and serves exactly one request
(a random matching with no self-matches), contributions are reported with an
error rate, reputations update from the reports, and each user recomputes
its best response with the adaptation probability gamma against the posted
census.  Supports heterogeneous discount groups, per-period random benefits,
and adaptive belief matrices learned from own transactions.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .beliefs import updated_row
from .bestresponse import solve_policy_batch
from .norms import (
    CommunityParams, ConfigError, SocialNorm, config_number, params_from_dict,
)
from .payoff import opponent_of

SCHEMA_VERSION = 1
# varying-b draws stay above c by this margin, so every service stays
# socially valuable
BENEFIT_MARGIN = 1e-6
MODES = ("evolution", "delta-sweep", "mixed", "varying-b", "adaptive-belief")
_SPEC_KEYS = {
    "mode", "N", "L", "b", "c", "delta", "epsilon", "gamma", "h",
    "periods", "sample_stride", "seed", "initial_reputation",
    "groups", "b_mean", "b_var", "delta_grid",
}


@dataclass(frozen=True)
class ExperimentSpec:
    """Validated description of one simulation experiment."""

    mode: str
    params: CommunityParams
    h: int
    periods: int
    sample_stride: int
    seed: int
    initial_reputation: str = "uniform"
    groups: tuple[tuple[int, float], ...] | None = None  # (size, delta) pairs
    b_mean: float | None = None
    b_var: float | None = None
    delta_grid: tuple[float, ...] | None = None

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentSpec":
        unknown = set(doc) - _SPEC_KEYS
        if unknown:
            raise ConfigError(f"unknown experiment keys: {sorted(unknown)}")
        mode = doc.get("mode")
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
        missing = {"N", "L", "b", "c", "h", "periods"} - set(doc)
        if mode not in ("delta-sweep", "mixed") and "delta" not in doc:
            missing.add("delta")
        if missing:
            raise ConfigError(f"missing experiment keys: {sorted(missing)}")
        # delta-sweep and mixed specs may omit delta
        params = params_from_dict({"delta": 0.5, **doc})
        init = doc.get("initial_reputation", "uniform")
        if init not in ("uniform", "zeros"):
            raise ConfigError(
                f"initial_reputation must be 'uniform' or 'zeros', got {init!r}"
            )
        groups = None
        if mode == "mixed":
            raw = doc.get("groups")
            if not (raw and isinstance(raw, list)
                    and all(isinstance(g, dict) for g in raw)):
                raise ConfigError("mixed mode requires a nonempty 'groups' list of objects")
            groups = tuple(
                (config_number(g.get("size"), "group size", int),
                 config_number(g.get("delta"), "group delta"))
                for g in raw
            )
            for size, delta in groups:
                if size < 1:
                    raise ConfigError("group sizes must be positive")
                if not 0.0 <= delta < 1.0:
                    raise ConfigError(f"group delta {delta} outside [0, 1)")
            if sum(s for s, _ in groups) != params.N:
                raise ConfigError("group sizes must sum to N")
        elif "groups" in doc:
            raise ConfigError("'groups' is only valid in mixed mode")
        b_mean = b_var = None
        if mode == "varying-b":
            if "b_mean" not in doc or "b_var" not in doc:
                raise ConfigError("varying-b mode requires 'b_mean' and 'b_var'")
            b_mean = config_number(doc["b_mean"], "b_mean")
            b_var = config_number(doc["b_var"], "b_var")
            if b_var < 0:
                raise ConfigError("b_var must be nonnegative")
        elif "b_mean" in doc or "b_var" in doc:
            raise ConfigError("'b_mean'/'b_var' are only valid in varying-b mode")
        delta_grid = None
        if mode == "delta-sweep":
            raw = doc.get("delta_grid")
            if not raw or not isinstance(raw, list):
                raise ConfigError("delta-sweep mode requires a 'delta_grid' list")
            delta_grid = tuple(config_number(d, "grid delta") for d in raw)
            for d in delta_grid:
                if not 0.0 <= d < 1.0:
                    raise ConfigError(f"grid delta {d} outside [0, 1)")
        elif "delta_grid" in doc:
            raise ConfigError("'delta_grid' is only valid in delta-sweep mode")
        return cls(
            mode=mode,
            params=params,
            h=config_number(doc["h"], "h", int),
            periods=config_number(doc["periods"], "periods", int),
            sample_stride=config_number(
                doc.get("sample_stride", 1000), "sample_stride", int
            ),
            seed=config_number(doc.get("seed", 0), "seed", int),
            initial_reputation=init,
            groups=groups,
            b_mean=b_mean,
            b_var=b_var,
            delta_grid=delta_grid,
        )

    def __post_init__(self):
        if self.periods < 1:
            raise ConfigError("periods must be positive")
        if self.sample_stride < 1:
            raise ConfigError("sample_stride must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        # above the floor, each truncated draw is accepted with probability
        # above 1/2, so ``_redraw_benefits`` ends
        if self.b_mean is not None and not self.b_mean > self.b_floor:
            raise ConfigError(
                f"b_mean must exceed c + {BENEFIT_MARGIN:g}={self.b_floor}, "
                f"got {self.b_mean}"
            )

    @property
    def b_floor(self) -> float:
        """Lower truncation point of the varying-b benefit draws."""
        return self.params.c + BENEFIT_MARGIN


@dataclass
class SimState:
    """Mutable community state: one entry per user in each array."""

    rep: np.ndarray  # current reputations
    thr: np.ndarray  # current service thresholds
    deltas: np.ndarray  # personal discount factors
    bs: np.ndarray  # personal per-period benefit values
    belief_rows: np.ndarray | None = None  # (N, L+1, L+2) when adaptive
    belief_counts: np.ndarray | None = None  # (N, L+1) transaction counters

    @property
    def N(self) -> int:
        return self.rep.shape[0]

    def census(self, L: int) -> np.ndarray:
        return np.bincount(self.rep, minlength=L + 1)


@dataclass(frozen=True)
class PeriodMetrics:
    period: int
    census: tuple[int, ...]  # users at each reputation after the period
    social_welfare: float
    services_rendered: int


def initial_state(
    norm: SocialNorm,
    rng: np.random.Generator,
    *,
    initial_reputation: str = "uniform",
    deltas: np.ndarray | None = None,
    adaptive: bool = False,
) -> SimState:
    """Fresh community: reputations drawn per the initial rule, strategies
    compliant with the social rule, optional per-user belief matrices."""
    p = norm.params
    if initial_reputation == "uniform":
        rep = rng.integers(0, p.L + 1, size=p.N)
    elif initial_reputation == "zeros":
        rep = np.zeros(p.N, dtype=np.int64)
    else:
        raise ValueError(f"unknown initial rule {initial_reputation!r}")
    rep = rep.astype(np.int64)
    thr = norm.compliant[rep]
    if deltas is None:
        deltas = np.full(p.N, p.delta)
    belief_rows = belief_counts = None
    if adaptive:
        # every opponent believed to comply with the social rule
        row = np.eye(p.L + 2)[norm.compliant]
        belief_rows = np.broadcast_to(row, (p.N, p.L + 1, p.L + 2)).copy()
        belief_counts = np.zeros((p.N, p.L + 1), dtype=np.int64)
    return SimState(
        rep=rep,
        thr=thr,
        deltas=np.asarray(deltas, dtype=float),
        bs=np.full(p.N, p.b),
        belief_rows=belief_rows,
        belief_counts=belief_counts,
    )


def _derangement(rng: np.random.Generator, N: int) -> np.ndarray:
    """Uniformly shuffled matching repaired to have no self-matches."""
    perm = rng.permutation(N)
    fixed = np.flatnonzero(perm == np.arange(N))
    if fixed.size > 1:
        # cycle the fixed points one place along (perm[fixed] == fixed)
        perm[fixed[1:]] = fixed[:-1]
        perm[fixed[0]] = fixed[-1]
    elif fixed.size == 1:
        # swapping with a neighbor cannot create a new self-match
        i = int(fixed[0])
        j = (i + 1) % N
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def run_period(
    state: SimState, norm: SocialNorm, rng: np.random.Generator, period: int = 0
) -> PeriodMetrics:
    """Play one period in place: match, serve, report, update reputations.

    Metrics use the realized contributions, not the possibly flipped reports;
    adaptive users fold their own client-side observation into their beliefs.
    """
    p = norm.params
    N = state.N
    if N < 2:
        raise ValueError("a community needs at least 2 users")
    server_of = _derangement(rng, N)  # server_of[i] serves client i
    client_of = np.empty_like(server_of)  # client_of[j] is served by j
    client_of[server_of] = np.arange(N)
    client_rep = state.rep[client_of]
    z = (client_rep >= state.thr).astype(np.int64)  # realized, by server
    flips = rng.random(N) < p.epsilon
    reported = np.where(flips, 1 - z, z)
    prescribed = norm.phi[state.rep, client_rep]
    new_rep = np.where(reported == prescribed, norm.up[state.rep], 0)

    served = z[server_of]  # z received, by client
    welfare = float((served * (state.bs - p.c)).sum() / N)
    services = int(z.sum())

    if state.belief_rows is not None:
        _observe_batch(state, server_of, served)

    state.rep = new_rep
    return PeriodMetrics(
        period=period,
        census=tuple(state.census(p.L).tolist()),
        social_welfare=welfare,
        services_rendered=services,
    )


def _observe_batch(state, server_of, served) -> None:
    """Fold every user's one client-side observation into its belief rows."""
    users = np.arange(state.N)
    srep = state.rep[server_of]
    t = state.belief_counts[users, srep] + 1
    state.belief_rows[users, srep] = updated_row(
        state.belief_rows[users, srep], state.rep, served, t
    )
    state.belief_counts[users, srep] = t


def _best_thresholds(norm, mu_counts, reps, deltas, *, bs=None, belief_rows=None):
    """Thresholds played at reputations ``reps``, each solved against the
    census with that user removed."""
    policies = solve_policy_batch(
        norm, opponent_of(mu_counts, reps), deltas, bs=bs, belief_rows=belief_rows
    )[0]
    return policies[np.arange(reps.size), reps]


def run_adaptation(
    state: SimState,
    norm: SocialNorm,
    mu,
    rng: np.random.Generator,
    table: dict | None = None,
) -> None:
    """Each user recomputes its best response with probability gamma.

    The best response is solved against the posted census ``mu`` (the L+1
    counts of every user's current reputation) with the user itself
    removed, at the user's personal discount factor and benefit, and with its
    own belief matrix when it maintains one.  The user's new threshold is the policy
    entry at its current reputation.

    ``table`` maps (census, delta) to the thresholds played at each occupied
    reputation, solved on a miss.  It is valid only while every user has the
    baseline belief and the norm's benefit, so ``varying-b`` and
    ``adaptive-belief`` runs pass None and solve every adapter on its own row.
    """
    adapt = np.flatnonzero(rng.random(state.N) < norm.params.gamma)
    if adapt.size == 0:
        return
    mu_counts = np.asarray(mu, dtype=float)
    reps, deltas = state.rep[adapt], state.deltas[adapt]
    if (mu_counts[reps] == 0).any():
        raise ValueError("the census does not count an adapting user's reputation")
    if table is None:
        beliefs = None if state.belief_rows is None else state.belief_rows[adapt]
        state.thr[adapt] = _best_thresholds(
            norm, mu_counts, reps, deltas, bs=state.bs[adapt], belief_rows=beliefs
        )
        return
    occupied = np.flatnonzero(mu_counts)
    census = tuple(mu)
    for delta in np.unique(deltas):
        thr = table.get((census, delta))
        if thr is None:
            thr = np.zeros_like(mu_counts, dtype=np.int64)
            thr[occupied] = _best_thresholds(norm, mu_counts, occupied, delta)
            table[(census, delta)] = thr
        sel = deltas == delta
        state.thr[adapt[sel]] = thr[reps[sel]]


def _redraw_benefits(state, spec, rng) -> None:
    """Per-period benefit draws, truncated below to stay socially valuable."""
    floor = spec.b_floor
    sd = np.sqrt(spec.b_var)
    draws = rng.normal(spec.b_mean, sd, size=state.N)
    while True:
        bad = draws <= floor
        if not bad.any():
            break
        draws[bad] = rng.normal(spec.b_mean, sd, size=int(bad.sum()))
    state.bs = draws


def run_evolution(
    spec: ExperimentSpec,
    *,
    delta: float | None = None,
    seed: int | None = None,
) -> tuple[list[PeriodMetrics], dict]:
    """Run one full trajectory and return sampled metrics plus a summary."""
    params = spec.params
    if delta is not None:
        params = replace(params, delta=delta)
    norm = SocialNorm(params=params, h=spec.h)
    run_seed = spec.seed if seed is None else seed
    rng = np.random.default_rng(run_seed)
    deltas = None
    if spec.groups is not None:
        deltas = np.concatenate(
            [np.full(size, d) for size, d in spec.groups]
        )
    state = initial_state(
        norm,
        rng,
        initial_reputation=spec.initial_reputation,
        deltas=deltas,
        adaptive=spec.mode == "adaptive-belief",
    )
    table = None if spec.mode in ("varying-b", "adaptive-belief") else {}
    samples: list[PeriodMetrics] = []
    mu = tuple(state.census(params.L).tolist())
    for period in range(1, spec.periods + 1):
        if spec.mode == "varying-b":
            _redraw_benefits(state, spec, rng)
        run_adaptation(state, norm, mu, rng, table)
        metrics = run_period(state, norm, rng, period)
        mu = metrics.census
        if period % spec.sample_stride == 0 or period == spec.periods:
            samples.append(metrics)
    summary = _summarize(spec, norm, state, samples, run_seed)
    return samples, summary


def _first_settled(inside: np.ndarray) -> int | None:
    """Index of the first sample from which every sample is ``inside`` (the
    one after the last sample outside), or None when the last is outside."""
    outside = np.flatnonzero(~inside)
    first = int(outside[-1]) + 1 if outside.size else 0
    return first if first < inside.size else None


def _summarize(spec, norm, state, samples, seed) -> dict:
    L = norm.params.L
    N = norm.params.N
    frac_L = np.array([m.census[L] / N for m in samples])
    periods = np.array([m.period for m in samples])
    tail = max(1, len(samples) // 10)
    terminal_mean = float(frac_L[-tail:].mean())
    first = _first_settled(np.abs(frac_L - terminal_mean) <= 0.05)
    conv = None if first is None else int(periods[first])
    summary = {
        "schema_version": SCHEMA_VERSION,
        "mode": spec.mode,
        "seed": seed,
        "periods": spec.periods,
        "terminal_configuration": list(samples[-1].census),
        "terminal_fraction_top": float(frac_L[-1]),
        "terminal_mean_fraction_top": terminal_mean,
        "convergence_period": conv,
        "defection_fraction": float((state.thr == L + 1).mean()),
    }
    if spec.groups is not None:
        bounds = np.cumsum([0] + [size for size, _ in spec.groups])
        summary["group_defection_fractions"] = [
            float((state.thr[bounds[g]:bounds[g + 1]] == L + 1).mean())
            for g in range(len(spec.groups))
        ]
    return summary


def run_experiment(spec: ExperimentSpec, out_dir: str | Path | None = None) -> dict:
    """Run the experiment described by ``spec``; optionally write artifacts.

    Writes ``timeseries.csv`` (one per sweep point for delta sweeps) and
    ``summary.json`` when ``out_dir`` is given.  Deterministic given the
    spec's seed.
    """
    if spec.mode == "delta-sweep":
        runs = []
        for d in spec.delta_grid:
            samples, summary = run_evolution(spec, delta=d)
            summary["delta"] = d
            runs.append((d, samples, summary))
        top = {
            "schema_version": SCHEMA_VERSION,
            "mode": spec.mode,
            "seed": spec.seed,
            "sweep": [summary for _, _, summary in runs],
        }
        if out_dir is not None:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            for d, samples, _ in runs:
                _write_timeseries(out / f"timeseries_delta_{d:g}.csv", samples)
            (out / "summary.json").write_text(json.dumps(top, indent=2))
        return top
    samples, summary = run_evolution(spec)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_timeseries(out / "timeseries.csv", samples)
        (out / "summary.json").write_text(json.dumps(summary, indent=2))
    return summary


def bridge_occupancy(
    norm: SocialNorm,
    space,
    periods: int,
    *,
    seed: int = 0,
    burn_in: int = 1000,
    stride: int = 1,
) -> np.ndarray:
    """Per-census occupation counts of a long Monte Carlo run.

    Runs the full engine (true permutation matching) and tallies how often
    each census in ``space`` is visited after a burn-in, for comparison with
    the exact kernel's stationary distribution.  ``stride`` thins the tally
    to every stride-th period, which decorrelates consecutive samples.  The
    loop counts census tuples; each distinct census is located in ``space``
    once, after it.
    """
    rng = np.random.default_rng(seed)
    state = initial_state(norm, rng, initial_reputation="uniform")
    table: dict = {}
    visits: Counter = Counter()
    mu = tuple(state.census(norm.params.L).tolist())
    for period in range(1, periods + 1):
        run_adaptation(state, norm, mu, rng, table)
        metrics = run_period(state, norm, rng, period)
        mu = metrics.census
        if period > burn_in and period % stride == 0:
            visits[mu] += 1
    counts = np.zeros(len(space), dtype=np.int64)
    for census, k in visits.items():
        counts[space.index_of(census)] = k
    return counts


def _write_timeseries(path: Path, samples: list[PeriodMetrics]) -> None:
    L = len(samples[0].census) - 1
    header = ["period"] + [f"n{r}" for r in range(L + 1)] + ["U", "services"]
    lines = [",".join(header)]
    for m in samples:
        row = (
            [str(m.period)]
            + [str(n) for n in m.census]
            + [f"{m.social_welfare:.17g}", str(m.services_rendered)]
        )
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")
