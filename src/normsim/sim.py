"""Monte Carlo engine for large communities.

Each period every user requests one service and serves exactly one request
(a random matching with no self-matches), contributions are reported with an
error rate, reputations update from the reports, and each user recomputes
its best response with the adaptation probability gamma against the posted
census, which the engine reads from the users' reputations.  Supports
heterogeneous discount groups, per-period random benefits, and adaptive
belief matrices learned from own transactions.  One period loop plays every
trajectory, and it plays R replicates of a community in lockstep, each
drawing from its own generator: every period it adapts all of them at once,
so the strategy-table misses of every replicate go to one solver call, then
plays each replicate's period.  ``run_evolution`` plays the spec's own delta
and seed (R = 1), a delta sweep plays its grid points as R replicates, and
``bridge_occupancy`` tallies an R = 1 trajectory.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .beliefs import updated_row
from .bestresponse import solve_policy_batch
from .norms import ConfigError, SocialNorm, config_number, norm_from_dict
from .payoff import opponent_of

SCHEMA_VERSION = 1
# varying-b draws stay above c by this margin, so every service stays
# socially valuable
BENEFIT_MARGIN = 1e-6
# bridge_occupancy tallies only the periods after this one
BRIDGE_BURN_IN = 1000
# initial_state refuses a state of more entries, counted over every replicate:
# four per user, and (L+1)(L+3) more for a user's belief rows and counters
MAX_STATE_ENTRIES = 10**8
MODES = ("evolution", "delta-sweep", "mixed", "varying-b", "adaptive-belief")
# the keys a spec owns; ``norm_from_dict`` parses every other key
_RUN_KEYS = ("mode", "periods", "sample_stride", "seed", "groups", "b_mean", "b_var",
             "delta_grid")
# the spec fields each mode requires; every other mode must leave them None
_MODE_KEYS = {
    "delta-sweep": ("delta_grid",),
    "mixed": ("groups",),
    "varying-b": ("b_mean", "b_var"),
}


@dataclass(frozen=True)
class ExperimentSpec:
    """Validated description of one simulation experiment: the social norm
    every user plays under (its params' delta is the community's own, a
    placeholder in delta-sweep and mixed runs) and the run around it.  It
    holds no start: every run begins at ``initial_state``'s uniform draw.
    Every value is checked on construction, so ``dataclasses.replace``
    checks its result as ``from_dict`` does."""

    mode: str
    norm: SocialNorm
    periods: int
    sample_stride: int
    seed: int
    groups: tuple[tuple[int, float], ...] | None = None  # (size, delta) pairs
    b_mean: float | None = None
    b_var: float | None = None
    delta_grid: tuple[float, ...] | None = None

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentSpec":
        """Parse a plain mapping: the run keys here, every other key by
        ``norm_from_dict``; the checks are ``__post_init__``'s."""
        missing = {"mode", "periods"} - set(doc)
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
        # delta-sweep and mixed specs may omit delta
        norm_doc = {k: v for k, v in doc.items() if k not in _RUN_KEYS}
        return cls(
            mode=doc["mode"],
            norm=norm_from_dict({"delta": 0.5, **norm_doc}),
            periods=config_number(doc["periods"], "periods", int),
            sample_stride=config_number(doc.get("sample_stride", 1000), "sample_stride", int),
            seed=config_number(doc.get("seed", 0), "seed", int),
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
        for name in ("periods", "sample_stride"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.groups is not None:
            if any(size < 1 for size, _ in self.groups):
                raise ConfigError("group sizes must be positive")
            if sum(size for size, _ in self.groups) != self.norm.params.N:
                raise ConfigError("group sizes must sum to N")
        if self.delta_grid == ():
            raise ConfigError("'delta_grid' must be nonempty")
        deltas = [d for _, d in self.groups or ()] + list(self.delta_grid or ())
        bad = [d for d in deltas if not 0.0 <= d < 1.0]
        if bad:
            raise ConfigError(f"group or grid deltas {bad} outside [0, 1)")
        names = [_timeseries_name(d) for d in self.delta_grid or ()]
        if len(set(names)) < len(names):
            raise ConfigError(f"grid deltas repeat a time-series file name: {names}")
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
        return self.norm.params.c + BENEFIT_MARGIN


@dataclass
class SimState:
    """Mutable state of R replicate communities of N users each, played in
    lockstep: each per-user array holds R·N entries, replicate r's users at
    r·N to (r+1)·N - 1.  ``table`` maps (norm, census, delta) to the
    thresholds solved for each occupied reputation under the baseline belief
    and the norm's benefit (see ``run_adaptation``).  An entry is a pure
    function of its key, so the replicates, and states, may share one table
    whatever their norms."""

    rep: np.ndarray  # current reputations
    thr: np.ndarray  # current service thresholds
    deltas: np.ndarray  # personal discount factors
    bs: np.ndarray  # personal per-period benefit values
    belief_rows: np.ndarray | None = None  # (R·N, L+1, L+2) when adaptive
    belief_counts: np.ndarray | None = None  # (R·N, L+1) transaction counters
    table: dict = field(default_factory=dict)
    replicates: int = 1

    @property
    def N(self) -> int:
        """Users per replicate."""
        return self.rep.shape[0] // self.replicates

    def census(self, L: int) -> np.ndarray:
        """(R, L+1) counts of each replicate's users at each reputation."""
        R = self.replicates
        keys = self.rep
        if R > 1:  # replicate r's reputations count from r·(L+1) on
            keys = (keys.reshape(R, -1) + (L + 1) * np.arange(R)[:, None]).ravel()
        return np.bincount(keys, minlength=R * (L + 1)).reshape(R, L + 1)

    def replicate(self, r: int) -> "SimState":
        """Replicate r as a one-replicate state: its arrays are views into
        this state's, and its table is this state's."""
        part = slice(r * self.N, (r + 1) * self.N)
        rows = [None if a is None else a[part] for a in (self.belief_rows, self.belief_counts)]
        return SimState(self.rep[part], self.thr[part], self.deltas[part], self.bs[part],
                        *rows, table=self.table)


@dataclass(frozen=True)
class PeriodMetrics:
    period: int
    census: tuple[int, ...]  # users at each reputation after the period
    social_welfare: float
    services_rendered: int


def initial_state(norm: SocialNorm, rngs, *, adaptive: bool = False) -> SimState:
    """Fresh state of one replicate per generator in ``rngs``: each one's
    reputations drawn uniformly from 0..L (the first draw from its
    generator), every user at the norm's delta and benefit and playing the
    social rule's threshold, optional per-user belief matrices.  A state of
    more than ``MAX_STATE_ENTRIES`` entries raises ConfigError before
    anything is allocated."""
    p = norm.params
    R = len(rngs)
    entries = R * p.N * (4 + ((p.L + 1) * (p.L + 3) if adaptive else 0))
    if entries > MAX_STATE_ENTRIES:
        raise ConfigError(
            f"{R} replicate(s) of N={p.N} users need {entries} state entries, "
            f"over the limit {MAX_STATE_ENTRIES}")
    rep = np.concatenate([rng.integers(0, p.L + 1, size=p.N) for rng in rngs])
    belief_rows = belief_counts = None
    if adaptive:
        # every opponent believed to comply with the social rule
        row = np.eye(p.L + 2)[norm.compliant]
        belief_rows = np.broadcast_to(row, (rep.size, p.L + 1, p.L + 2)).copy()
        belief_counts = np.zeros((rep.size, p.L + 1), dtype=np.int64)
    return SimState(
        rep=rep,
        thr=norm.compliant[rep],
        deltas=np.full(rep.size, p.delta),
        bs=np.full(rep.size, p.b),
        belief_rows=belief_rows,
        belief_counts=belief_counts,
        replicates=R,
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
    """Play one period of a one-replicate state in place: match, serve,
    report, update reputations.

    Each server serves by ``norm.serve`` at its threshold, and its reputation
    resets to 0 where ``norm.mismatch`` and the report flip disagree: a
    correct report of a mismatch, or a flipped report of a match.  Metrics
    use the realized contributions, not the possibly flipped reports;
    adaptive users fold their own client-side observation into their beliefs.
    """
    p = norm.params
    N = state.N
    if state.replicates != 1:
        raise ValueError("run_period plays one replicate; pass state.replicate(r)")
    if N < 2:
        raise ValueError("a community needs at least 2 users")
    server_of = _derangement(rng, N)  # server_of[i] serves client i
    client_of = np.empty_like(server_of)  # client_of[j] is served by j
    client_of[server_of] = np.arange(N)
    client_rep = state.rep[client_of]
    z = norm.serve[state.thr, client_rep]  # realized, by server
    flips = rng.random(N) < p.epsilon
    # a flipped report turns a mismatch into a match and back
    reset = norm.mismatch[state.rep, state.thr, client_rep] != flips
    new_rep = np.where(reset, 0, norm.up[state.rep])

    served = z[server_of]  # z received, by client
    welfare = float((served * (state.bs - p.c)).sum() / N)
    services = int(z.sum())

    if state.belief_rows is not None:
        _observe_batch(state, server_of, served)

    state.rep[:] = new_rep
    return PeriodMetrics(
        period=period,
        census=tuple(np.bincount(new_rep, minlength=p.L + 1).tolist()),
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
    """Thresholds played at reputations ``reps``, each solved against its
    census (one shared, or a row each) with that user removed."""
    policies = solve_policy_batch(
        norm, opponent_of(mu_counts, reps), deltas, bs=bs, belief_rows=belief_rows
    )[0]
    return policies[np.arange(reps.size), reps]


def run_adaptation(state: SimState, norm: SocialNorm, rngs) -> None:
    """Each user recomputes its best response with probability gamma, drawn
    from its replicate's generator in ``rngs``.

    The best response is solved against the posted census of the user's
    replicate (the L+1 counts of its users' current reputations in
    ``state.rep``) with the user itself removed, at the user's personal
    discount factor and benefit, and with its own belief matrix when it
    maintains one.  The user's new threshold is the policy entry at its
    current reputation.

    While no user keeps a belief matrix and every benefit is the norm's, a
    user's answer depends only on the norm, its replicate's census and its
    delta, so it is read from ``state.table``.  The entries that the
    period's adapters miss, over every replicate, are solved in one batch,
    one row per occupied reputation of each missing census.
    Otherwise every adapter is solved on its own row, again in one batch,
    and the table is left alone.
    """
    N, L = state.N, norm.params.L
    coins = np.concatenate([rng.random(N) for rng in rngs])
    adapt = np.flatnonzero(coins < norm.params.gamma)
    if adapt.size == 0:
        return
    mu = state.census(L)
    reps, deltas = state.rep[adapt], state.deltas[adapt]
    if state.belief_rows is not None or (state.bs != norm.params.b).any():
        beliefs = None if state.belief_rows is None else state.belief_rows[adapt]
        state.thr[adapt] = _best_thresholds(
            norm, mu[adapt // N], reps, deltas, bs=state.bs[adapt], belief_rows=beliefs
        )
        return
    # one table entry per (replicate, delta) pair g = r·V + (delta's rank);
    # a lone pair, the usual single run, needs no grouping
    values = np.unique(deltas)
    V = values.size
    if state.replicates * V == 1:
        member, pairs = 0, [0]
    else:
        member = adapt // N * V + values.searchsorted(deltas)
        pairs = np.flatnonzero(np.bincount(member)).tolist()
    censuses = [tuple(row) for row in mu.tolist()]
    rows = np.zeros((state.replicates * V, L + 1), dtype=state.thr.dtype)
    missing = {}  # missing key -> the pairs that read it
    for g in pairs:
        key = (norm, censuses[g // V], values[g % V])
        entry = state.table.get(key)
        if entry is None:
            missing.setdefault(key, []).append(g)
        else:
            rows[g] = entry
    if missing:
        solved = _solve_entries(
            norm, mu[[readers[0] // V for readers in missing.values()]],
            [delta for _, _, delta in missing],
        )
        for (key, readers), entry in zip(missing.items(), solved):
            state.table[key] = rows[readers] = entry
    state.thr[adapt] = rows[member, reps]


def _solve_entries(norm, censuses, deltas) -> np.ndarray:
    """Thresholds at every occupied reputation of each census row, at that
    row's delta, solved in one batch; 0 at the unoccupied ones."""
    row_of, reps = np.nonzero(censuses)
    entries = np.zeros_like(censuses)
    entries[row_of, reps] = _best_thresholds(
        norm, censuses[row_of], reps, np.asarray(deltas)[row_of]
    )
    return entries


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
    state.bs[:] = draws


def _trajectory(state, norm, rngs, periods, spec=None):
    """Play ``periods`` periods of every replicate in lockstep, in place,
    yielding each period's metrics, one per replicate: redraw the benefits
    (a varying-b ``spec`` only), adapt every replicate at once, then play
    each one's period.  Replicate r draws from ``rngs[r]`` alone."""
    replicas = [state.replicate(r) for r in range(state.replicates)]
    redraw = spec is not None and spec.mode == "varying-b"
    for period in range(1, periods + 1):
        if redraw:
            for one, rng in zip(replicas, rngs):
                _redraw_benefits(one, spec, rng)
        run_adaptation(state, norm, rngs)
        yield [run_period(one, norm, rng, period) for one, rng in zip(replicas, rngs)]


def _play(spec: ExperimentSpec, grid=(None,)) -> list[tuple[SimState, list[PeriodMetrics]]]:
    """Play one replicate of ``spec`` per entry of ``grid`` in lockstep, and
    return each one's final state and sampled metrics.

    Every replicate starts from its own generator seeded with the spec's
    seed.  Replicate r plays at the personal discount factor ``grid[r]``,
    or, where that is None, at the spec's own: its groups' or its norm's.
    The norm is the spec's throughout, so in a delta sweep the table keys
    hold the grid delta beside the norm's placeholder one.
    """
    rngs = [np.random.default_rng(spec.seed) for _ in grid]
    state = initial_state(spec.norm, rngs, adaptive=spec.mode == "adaptive-belief")
    replicas = [state.replicate(r) for r in range(len(grid))]
    for one, delta in zip(replicas, grid):
        if delta is not None:
            one.deltas[:] = delta
        elif spec.groups is not None:
            sizes, group_deltas = zip(*spec.groups)
            one.deltas[:] = np.repeat(group_deltas, sizes)
    samples = [[] for _ in grid]
    for metrics in _trajectory(state, spec.norm, rngs, spec.periods, spec):
        period = metrics[0].period
        if period % spec.sample_stride == 0 or period == spec.periods:
            for kept, m in zip(samples, metrics):
                kept.append(m)
    return list(zip(replicas, samples))


def run_evolution(spec: ExperimentSpec, played=None) -> tuple[list[PeriodMetrics], dict]:
    """Sampled metrics plus a summary of one trajectory at the spec's own
    delta and seed.  By default the spec is played alone, the R = 1 case of
    the lockstep loop; ``run_experiment`` passes each delta-sweep point the
    ``played`` (final state, samples) pair of its replicate in ``_play``.
    Another delta or seed is another spec: ``dataclasses.replace(spec,
    seed=s)``."""
    state, samples = played if played is not None else _play(spec)[0]
    return samples, _summarize(spec, state, samples)


def _first_settled(inside: np.ndarray) -> int | None:
    """Index of the first sample from which every sample is ``inside`` (the
    one after the last sample outside), or None when the last is outside."""
    outside = np.flatnonzero(~inside)
    first = int(outside[-1]) + 1 if outside.size else 0
    return first if first < inside.size else None


def _summarize(spec, state, samples) -> dict:
    N, L = spec.norm.params.N, spec.norm.L
    frac_L = np.array([m.census[L] / N for m in samples])
    periods = np.array([m.period for m in samples])
    tail = max(1, len(samples) // 10)
    terminal_mean = float(frac_L[-tail:].mean())
    first = _first_settled(np.abs(frac_L - terminal_mean) <= 0.05)
    conv = None if first is None else int(periods[first])
    summary = {
        "schema_version": SCHEMA_VERSION,
        "mode": spec.mode,
        "seed": spec.seed,
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

    A delta sweep plays its grid points in lockstep, each from a generator
    seeded with the spec's seed, so each point's summary and samples are
    ``run_evolution``'s on the spec with that delta.  Writes
    ``timeseries.csv`` (one per sweep point for delta sweeps) and
    ``summary.json`` when ``out_dir`` is given.  Deterministic given the
    spec's seed.
    """
    grid = spec.delta_grid or (None,)
    runs = []
    for d, played in zip(grid, _play(spec, grid)):
        point = spec if d is None else replace(
            spec, norm=replace(spec.norm, params=replace(spec.norm.params, delta=d))
        )
        samples, summary = run_evolution(point, played)
        if d is not None:
            summary["delta"] = d
        runs.append((_timeseries_name(d), samples, summary))
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
    norm: SocialNorm, space, periods: int, *, seed: int = 0, stride: int = 1
) -> np.ndarray:
    """Per-census occupation counts of a long Monte Carlo run.

    Runs the full engine, whose matching is a shuffled permutation with its
    fixed points repaired (not uniform over derangements), and tallies how
    often each census in ``space`` is visited after ``BRIDGE_BURN_IN``
    periods, for comparison with the exact kernel's stationary distribution.
    ``stride`` thins the tally to every stride-th period, which decorrelates
    consecutive samples.  The loop counts census tuples; each distinct census
    is located in ``space`` once, after it.  Raises ValueError unless
    ``space`` fits the norm, ``periods`` exceeds the burn-in and ``stride``
    is positive.
    """
    if periods <= BRIDGE_BURN_IN:
        raise ValueError(
            f"periods must exceed the burn-in of {BRIDGE_BURN_IN}, got {periods}"
        )
    if stride < 1:
        raise ValueError(f"stride must be positive, got {stride}")
    space.check_fits(norm.params)
    rng = np.random.default_rng(seed)
    visits = Counter(
        m.census for (m,) in _trajectory(initial_state(norm, [rng]), norm, [rng], periods)
        if m.period > BRIDGE_BURN_IN and m.period % stride == 0
    )
    counts = np.zeros(len(space), dtype=np.int64)
    for census, k in visits.items():
        counts[space.index_of(census)] = k
    return counts


def _timeseries_name(delta: float | None) -> str:
    """Time-series file of a run, or of the delta-sweep point at ``delta``."""
    return "timeseries.csv" if delta is None else f"timeseries_delta_{delta:g}.csv"


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
