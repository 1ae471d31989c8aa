"""Monte Carlo engine for large communities.

Each period every user requests one service and serves exactly one request
(a random matching with no self-matches), contributions are reported with an
error rate, reputations update from the reports, and each user recomputes
its best response with the adaptation probability gamma against the posted
census, which the engine reads from the users' reputations.  Supports
heterogeneous discount groups, per-period random benefits, and adaptive
belief matrices learned from own transactions.  One period loop plays every
trajectory: ``run_evolution`` samples it and ``bridge_occupancy`` tallies it.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, replace
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
# the spec fields each mode requires; every other mode must leave them None
_MODE_KEYS = {
    "delta-sweep": ("delta_grid",),
    "mixed": ("groups",),
    "varying-b": ("b_mean", "b_var"),
}


@dataclass(frozen=True)
class ExperimentSpec:
    """Validated description of one simulation experiment; every value is
    checked on construction, so ``dataclasses.replace`` checks its result
    as ``from_dict`` does."""

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
        """Parse a plain mapping; the checks are ``__post_init__``'s."""
        unknown = set(doc) - _SPEC_KEYS
        if unknown:
            raise ConfigError(f"unknown experiment keys: {sorted(unknown)}")
        missing = {"mode", "N", "L", "b", "c", "h", "periods"} - set(doc)
        if doc.get("mode") not in ("delta-sweep", "mixed") and "delta" not in doc:
            missing.add("delta")
        if missing:
            raise ConfigError(f"missing experiment keys: {sorted(missing)}")
        groups = delta_grid = None
        if "groups" in doc:
            raw = doc["groups"]
            if not (isinstance(raw, list) and all(isinstance(g, dict) for g in raw)):
                raise ConfigError("'groups' must be a list of objects")
            groups = tuple(
                (config_number(g.get("size"), "group size", int),
                 config_number(g.get("delta"), "group delta"))
                for g in raw
            )
        if "delta_grid" in doc:
            if not isinstance(doc["delta_grid"], list):
                raise ConfigError("'delta_grid' must be a list")
            delta_grid = tuple(config_number(d, "grid delta") for d in doc["delta_grid"])
        return cls(
            mode=doc["mode"],
            # delta-sweep and mixed specs may omit delta
            params=params_from_dict({"delta": 0.5, **doc}),
            h=config_number(doc["h"], "h", int),
            periods=config_number(doc["periods"], "periods", int),
            sample_stride=config_number(doc.get("sample_stride", 1000), "sample_stride", int),
            seed=config_number(doc.get("seed", 0), "seed", int),
            initial_reputation=doc.get("initial_reputation", "uniform"),
            groups=groups,
            b_mean=config_number(doc["b_mean"], "b_mean") if "b_mean" in doc else None,
            b_var=config_number(doc["b_var"], "b_var") if "b_var" in doc else None,
            delta_grid=delta_grid,
        )

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        for mode, keys in _MODE_KEYS.items():
            for key in keys:
                if (getattr(self, key) is None) == (mode == self.mode):
                    raise ConfigError(
                        f"{mode} mode requires {key!r}" if mode == self.mode
                        else f"{key!r} is only valid in {mode} mode"
                    )
        if self.initial_reputation not in ("uniform", "zeros"):
            raise ConfigError("initial_reputation must be 'uniform' or 'zeros', "
                              f"got {self.initial_reputation!r}")
        for name in ("periods", "sample_stride"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.groups is not None:
            if any(size < 1 for size, _ in self.groups):
                raise ConfigError("group sizes must be positive")
            if sum(size for size, _ in self.groups) != self.params.N:
                raise ConfigError("group sizes must sum to N")
        if self.delta_grid == ():
            raise ConfigError("'delta_grid' must be nonempty")
        deltas = [d for _, d in self.groups or ()] + list(self.delta_grid or ())
        bad = [d for d in deltas if not 0.0 <= d < 1.0]
        if bad:
            raise ConfigError(f"group or grid deltas {bad} outside [0, 1)")
        if self.b_var is not None and self.b_var < 0:
            raise ConfigError("b_var must be nonnegative")
        # above the floor, each truncated draw is accepted with probability
        # above 1/2, so ``_redraw_benefits`` ends
        if self.b_mean is not None and not self.b_mean > self.b_floor:
            raise ConfigError(f"b_mean must exceed c + {BENEFIT_MARGIN:g}="
                              f"{self.b_floor}, got {self.b_mean}")

    @property
    def b_floor(self) -> float:
        """Lower truncation point of the varying-b benefit draws."""
        return self.params.c + BENEFIT_MARGIN


@dataclass
class SimState:
    """Mutable community state of one run: one entry per user in each array,
    and ``table``, which maps (census, delta) to the thresholds solved for
    each occupied reputation under the baseline belief and the norm's
    benefit (see ``run_adaptation``)."""

    rep: np.ndarray  # current reputations
    thr: np.ndarray  # current service thresholds
    deltas: np.ndarray  # personal discount factors
    bs: np.ndarray  # personal per-period benefit values
    belief_rows: np.ndarray | None = None  # (N, L+1, L+2) when adaptive
    belief_counts: np.ndarray | None = None  # (N, L+1) transaction counters
    table: dict = field(default_factory=dict)

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


def run_adaptation(state: SimState, norm: SocialNorm, rng: np.random.Generator) -> None:
    """Each user recomputes its best response with probability gamma.

    The best response is solved against the posted census (the L+1 counts of
    every user's current reputation in ``state.rep``) with the user itself
    removed, at the user's personal discount factor and benefit, and with its
    own belief matrix when it maintains one.  The user's new threshold is the
    policy entry at its current reputation.

    While no user keeps a belief matrix and every benefit is the norm's, a
    user's answer depends only on the census and its delta, so it is read
    from ``state.table``, solved for every occupied reputation on a miss.
    Otherwise each adapter is solved on its own row and the table is left
    alone.
    """
    adapt = np.flatnonzero(rng.random(state.N) < norm.params.gamma)
    if adapt.size == 0:
        return
    mu = state.census(norm.params.L)
    reps, deltas = state.rep[adapt], state.deltas[adapt]
    if state.belief_rows is not None or (state.bs != norm.params.b).any():
        beliefs = None if state.belief_rows is None else state.belief_rows[adapt]
        state.thr[adapt] = _best_thresholds(
            norm, mu, reps, deltas, bs=state.bs[adapt], belief_rows=beliefs
        )
        return
    occupied = np.flatnonzero(mu)
    census = tuple(mu.tolist())
    for delta in np.unique(deltas):
        thr = state.table.get((census, delta))
        if thr is None:
            thr = np.zeros_like(mu)
            thr[occupied] = _best_thresholds(norm, mu, occupied, delta)
            state.table[(census, delta)] = thr
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


def _trajectory(state, norm, rng, periods, spec=None):
    """Play ``periods`` periods in place, yielding each one's metrics: redraw
    the benefits (a varying-b ``spec`` only), adapt, then play."""
    redraw = spec is not None and spec.mode == "varying-b"
    for period in range(1, periods + 1):
        if redraw:
            _redraw_benefits(state, spec, rng)
        run_adaptation(state, norm, rng)
        yield run_period(state, norm, rng, period)


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
        deltas = np.concatenate([np.full(size, d) for size, d in spec.groups])
    state = initial_state(
        norm, rng, initial_reputation=spec.initial_reputation, deltas=deltas,
        adaptive=spec.mode == "adaptive-belief",
    )
    samples = [
        m for m in _trajectory(state, norm, rng, spec.periods, spec)
        if m.period % spec.sample_stride == 0 or m.period == spec.periods
    ]
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
    runs = []
    for d in spec.delta_grid or (None,):
        samples, summary = run_evolution(spec, delta=d)
        if d is not None:
            summary["delta"] = d
        name = "timeseries.csv" if d is None else f"timeseries_delta_{d:g}.csv"
        runs.append((name, samples, summary))
    top = runs[0][2] if spec.delta_grid is None else {
        "schema_version": SCHEMA_VERSION,
        "mode": spec.mode,
        "seed": spec.seed,
        "sweep": [summary for _, _, summary in runs],
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, samples, _ in runs:
            _write_timeseries(out / name, samples)
        (out / "summary.json").write_text(json.dumps(top, indent=2))
    return top


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
    visits = Counter(
        m.census for m in _trajectory(state, norm, rng, periods)
        if m.period > burn_in and m.period % stride == 0
    )
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
