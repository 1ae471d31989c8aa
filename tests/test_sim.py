import json
import tempfile
from pathlib import Path
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normsim import (
    CommunityParams,
    ConfigError,
    ExperimentSpec,
    SocialNorm,
    initial_state,
    norm_from_dict,
    run_evolution,
    run_experiment,
    run_period,
    updated_row,
)
from normsim import sim
from normsim.bestresponse import solve_policy_batch
from normsim.chain import enumerate_configs
from normsim.payoff import opponent_of
from normsim.sim import (
    _best_thresholds, _derangement, _first_settled, _redraw_benefits, run_adaptation,
)
from documents import config_documents
from oracles import reputation_update, strategy_serves


def make_norm(N=20, L=3, b=3.0, c=1.0, delta=0.6, epsilon=0.0, gamma=1.0, h=1):
    params = CommunityParams(
        N=N, L=L, b=b, c=c, delta=delta, epsilon=epsilon, gamma=gamma
    )
    return SocialNorm(params=params, h=h)


def base_doc(**overrides):
    doc = {
        "mode": "evolution",
        "N": 20,
        "L": 3,
        "b": 3.0,
        "c": 1.0,
        "delta": 0.6,
        "epsilon": 0.05,
        "gamma": 0.5,
        "h": 1,
        "periods": 50,
        "sample_stride": 10,
        "seed": 1,
    }
    doc.update(overrides)
    return doc


def test_spec_rejects_unknown_and_missing_keys():
    with pytest.raises(ConfigError):
        ExperimentSpec.from_dict(base_doc(bogus=1))
    with pytest.raises(ConfigError):
        ExperimentSpec.from_dict({"mode": "evolution", "N": 10})
    with pytest.raises(ConfigError):
        ExperimentSpec.from_dict(base_doc(mode="nope"))


def test_spec_mode_specific_key_rules():
    with pytest.raises(ConfigError):
        ExperimentSpec.from_dict(base_doc(b_mean=3.0))  # only in varying-b
    with pytest.raises(ConfigError):
        ExperimentSpec.from_dict(base_doc(delta_grid=[0.5]))  # only in sweep
    with pytest.raises(ConfigError):
        ExperimentSpec.from_dict(base_doc(mode="varying-b"))  # needs b_mean/b_var
    with pytest.raises(ConfigError):
        ExperimentSpec.from_dict(base_doc(mode="delta-sweep"))  # needs grid
    with pytest.raises(ConfigError):
        ExperimentSpec.from_dict(base_doc(initial_reputation="ones"))
    with pytest.raises(ConfigError):
        ExperimentSpec.from_dict(base_doc(periods=0))


def test_spec_group_sizes_must_sum_to_population():
    doc = base_doc(mode="mixed")
    del doc["delta"]
    doc["groups"] = [
        {"size": 10, "delta": 0.3},
        {"size": 5, "delta": 0.6},
    ]
    with pytest.raises(ConfigError):
        ExperimentSpec.from_dict(doc)
    doc["groups"][1]["size"] = 10
    spec = ExperimentSpec.from_dict(doc)
    assert spec.groups == ((10, 0.3), (10, 0.6))


def test_replaced_spec_is_checked_like_a_parsed_one():
    doc = base_doc(mode="mixed", groups=[{"size": 20, "delta": 0.5}])
    del doc["delta"]
    mixed = ExperimentSpec.from_dict(doc)
    sweep = ExperimentSpec.from_dict(base_doc(mode="delta-sweep", delta_grid=[0.3]))
    evolution = ExperimentSpec.from_dict(base_doc())
    for spec, change in [
        (mixed, {"groups": ((0, 0.5),)}),
        (mixed, {"groups": ((20, 1.0),)}),
        (mixed, {"groups": ((10, 0.5),)}),
        # the group sizes are checked against the norm's N
        (mixed, {"norm": replace(mixed.norm, params=replace(mixed.norm.params, N=30))}),
        (sweep, {"delta_grid": (0.3, 1.0)}),
        (sweep, {"delta_grid": ()}),
        (sweep, {"delta_grid": None}),
        # two points would write one timeseries_delta_0.5.csv
        (sweep, {"delta_grid": (0.5, 0.5)}),
        (sweep, {"delta_grid": (0.5, 0.5000001)}),
        (evolution, {"groups": ((20, 0.5),)}),
        (evolution, {"b_var": 0.5}),
        (evolution, {"mode": "varying-b"}),
        (evolution, {"periods": 0}),
        (evolution, {"sample_stride": 0}),
        (evolution, {"seed": -1}),
    ]:
        with pytest.raises(ConfigError):
            replace(spec, **change)
    # the norm's own check of h runs when the spec is parsed
    with pytest.raises(ConfigError, match="h must be"):
        ExperimentSpec.from_dict(base_doc(h=0))
    varying = replace(evolution, mode="varying-b", b_mean=3.0, b_var=0.5)
    with pytest.raises(ConfigError):
        replace(varying, b_var=-1.0)
    with pytest.raises(ConfigError):
        replace(varying, b_mean=1.0)


@settings(max_examples=400, deadline=None)
@given(config_documents())
def test_config_documents_parse_or_raise_config_error(doc):
    # a configuration document of any shape, quoted numbers included, is
    # parsed or refused with ConfigError (exit 2), never with another
    # exception
    norm_doc = {k: v for k, v in doc.items() if k not in sim._RUN_KEYS}
    for parse, arg in ((norm_from_dict, norm_doc), (ExperimentSpec.from_dict, doc)):
        try:
            parse(arg)
        except ConfigError:
            continue
        # what parses holds no quoted number
        assert not any(isinstance(v, str) for k, v in arg.items() if k != "mode")


def test_derangement_has_no_self_matches():
    rng = np.random.default_rng(0)
    for N in (2, 3, 4, 7, 50):
        for _ in range(300):
            perm = _derangement(rng, N)
            assert (perm != np.arange(N)).all()
            assert sorted(perm) == list(range(N))


def _derangement_by_roll(rng, N):
    """Reference: the fixed-point repair as first written, rolling the
    values at the fixed points one place along."""
    perm = rng.permutation(N)
    fixed = np.flatnonzero(perm == np.arange(N))
    if fixed.size > 1:
        perm[fixed] = np.roll(perm[fixed], 1)
    elif fixed.size == 1:
        i = int(fixed[0])
        j = (i + 1) % N
        perm[i], perm[j] = perm[j], perm[i]
    return perm


@pytest.mark.parametrize("N", [2, 3, 8, 500])
def test_derangement_matches_roll_reference(N):
    # the same permutation and the same draws from the stream, seed by seed
    for seed in range(2000):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(_derangement(rng, N), _derangement_by_roll(ref, N))
        assert rng.random() == ref.random()


def _first_settled_by_scan(inside):
    """Reference: the quadratic scan over every suffix."""
    for i in range(len(inside)):
        if inside[i:].all():
            return i
    return None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.booleans(), max_size=60))
def test_first_settled_matches_suffix_scan(inside):
    inside = np.array(inside, dtype=bool)
    assert _first_settled(inside) == _first_settled_by_scan(inside)


def _state_at_bottom(norm):
    """A fresh state with every user at reputation 0, playing the rule's
    threshold there; its uniform start is drawn from a stream of its own."""
    state = initial_state(norm, [np.random.default_rng(0)])
    state.rep[:] = 0
    state.thr[:] = norm.compliant[0]
    return state


def test_full_cooperation_is_a_fixed_point():
    # error-free compliant community at the top: nothing moves, U = b - c
    norm = make_norm(N=12, epsilon=0.0)
    rng = np.random.default_rng(2)
    state = _state_at_bottom(norm)
    state.rep[:] = 3
    state.thr[:] = norm.h
    m = run_period(state, norm, rng)
    assert m.census == (0, 0, 0, 12)
    assert m.social_welfare == pytest.approx(2.0)
    assert m.services_rendered == 12


def test_universal_defection_yields_zero_welfare():
    norm = make_norm(N=12, epsilon=0.0)
    rng = np.random.default_rng(3)
    state = _state_at_bottom(norm)
    state.thr[:] = 4
    m = run_period(state, norm, rng)
    assert m.social_welfare == 0.0
    assert m.services_rendered == 0
    assert m.census == (12, 0, 0, 0)


def test_reset_rate_matches_error_rate():
    # compliant users only reset via reporting errors: total resets over many
    # periods is Binomial(trials * N, epsilon)
    norm = make_norm(N=200, epsilon=0.1)
    rng = np.random.default_rng(4)
    resets = 0
    trials = 100
    for _ in range(trials):
        state = _state_at_bottom(norm)
        state.rep[:] = 3
        state.thr[:] = norm.h
        run_period(state, norm, rng)
        resets += int((state.rep == 0).sum())
    n = trials * 200
    sd = np.sqrt(n * 0.1 * 0.9)
    assert abs(resets - n * 0.1) < 4 * sd


def test_census_conservation_and_welfare_bounds():
    norm = make_norm(N=30, epsilon=0.2, delta=0.5)
    rng = np.random.default_rng(5)
    state = initial_state(norm, [rng])
    for period in range(200):
        m = run_period(state, norm, rng, period)
        assert sum(m.census) == 30
        assert -1.0 <= m.social_welfare <= 2.0  # per-user, in [-(c), b-c]
        assert 0 <= m.services_rendered <= 30


def test_adaptation_defects_against_empty_community():
    norm = make_norm(N=10, gamma=1.0, delta=0.3)
    rng = np.random.default_rng(6)
    state = _state_at_bottom(norm)
    run_adaptation(state, norm, [rng])
    assert (state.thr == 4).all()


def test_table_keeps_each_norms_answers_apart():
    # a state adapted under one error rate and then under another answers as
    # a fresh state under the second does: the table's key holds the norm
    low, high = make_norm(N=12, epsilon=0.05), make_norm(N=12, epsilon=0.3)
    state = initial_state(low, [np.random.default_rng(0)])
    fresh = initial_state(high, [np.random.default_rng(0)])
    run_adaptation(state, low, [np.random.default_rng(1)])
    assert (state.thr != 4).any()
    run_adaptation(state, high, [np.random.default_rng(1)])
    run_adaptation(fresh, high, [np.random.default_rng(1)])
    assert (state.rep == fresh.rep).all()
    assert state.thr.tolist() == fresh.thr.tolist() == [4] * 12
    assert {key[0] for key in state.table} == {low, high}


def _census_states(norm, deltas):
    """States at several censuses: all at the bottom, uniform, skewed up."""
    for seed in range(6):
        if seed == 0:
            state = _state_at_bottom(norm)
        else:
            state = initial_state(norm, [np.random.default_rng(seed)])
        if deltas is not None:
            state.deltas[:] = deltas
        state.rep[: seed % 3] = 3
        yield state


def _solved_one_by_one(state, norm, seed):
    """Thresholds after ``run_adaptation(state, norm, [default_rng(seed)])``,
    with every adapter solved on its own row."""
    adapt = np.flatnonzero(np.random.default_rng(seed).random(state.N) < norm.params.gamma)
    beliefs = None if state.belief_rows is None else state.belief_rows[adapt]
    thr = state.thr.copy()
    thr[adapt] = _best_thresholds(
        norm, state.census(norm.params.L), state.rep[adapt], state.deltas[adapt],
        bs=state.bs[adapt], belief_rows=beliefs,
    )
    return thr


@pytest.mark.parametrize("mixed", [False, True])
def test_adaptation_table_matches_per_adapter_solves(mixed, monkeypatch):
    norm = make_norm(N=15, gamma=0.7, epsilon=0.05)
    deltas = np.repeat([0.3, 0.6, 0.9], 5) if mixed else None
    table, played = {}, []
    for seed, state in enumerate(_census_states(norm, deltas)):
        state.table = table  # one table across the states
        want = _solved_one_by_one(state, norm, 50 + seed)
        run_adaptation(state, norm, [np.random.default_rng(50 + seed)])
        assert (state.thr == want).all()
        played.append(state.thr)
    assert {key_norm for key_norm, _, _ in table} == {norm}
    assert {delta for _, _, delta in table} == ({0.3, 0.6, 0.9} if mixed else {0.6})

    # a warmed table answers from its entries alone, with the same thresholds
    def no_solve(*args, **kwargs):
        raise AssertionError("a warmed table called the solver")

    monkeypatch.setattr(sim, "solve_policy_batch", no_solve)
    for seed, state in enumerate(_census_states(norm, deltas)):
        state.table = table
        run_adaptation(state, norm, [np.random.default_rng(50 + seed)])
        assert (state.thr == played[seed]).all()


@pytest.mark.parametrize("mode", ["adaptive-belief", "varying-b", "evolution"])
def test_adaptation_uses_the_table_only_where_it_fits(mode):
    # learned beliefs or personal benefits make each adapter's answer its
    # own, so those states solve every adapter on its own row and never read
    # or write the table, not even an entry for the current census
    spec = ExperimentSpec.from_dict(base_doc(mode=mode, N=40, gamma=0.5, **(
        {"b_mean": 3.0, "b_var": 1.0} if mode == "varying-b" else {}
    )))
    norm = spec.norm
    rng = np.random.default_rng(3)
    state = initial_state(norm, [rng], adaptive=mode == "adaptive-belief")
    for period in range(1, 31):
        if mode == "varying-b":
            _redraw_benefits(state, spec, rng)
        if mode != "evolution":
            # an entry for the current census that is wrong for every user
            state.table = {(norm, tuple(state.census(3)[0].tolist()), 0.6): np.full(4, 4)}
        written = set(state.table)
        want = _solved_one_by_one(state, norm, 100 + period)
        run_adaptation(state, norm, [np.random.default_rng(100 + period)])
        assert (state.thr == want).all()
        assert set(state.table) == written or mode == "evolution"
        run_period(state, norm, rng, period)
    # an evolution state fills its table, one entry per census it adapted at
    assert len(state.table) > 1 or mode != "evolution"


@pytest.mark.parametrize("epsilon", [0.0, 1e-3, 0.05])
def test_adaptation_table_agrees_with_chain_policies(epsilon):
    # the exact chain solves every (census, reputation) pair in one batch;
    # the table solves one census at a time, so agreement shows that a
    # census's thresholds do not depend on what else is in the batch
    norm = make_norm(N=8, epsilon=epsilon)
    space = enumerate_configs(8, 3)
    cfg, rep = np.nonzero(space.counts)
    policies = np.zeros_like(space.counts)
    policies[cfg, rep] = solve_policy_batch(
        norm, opponent_of(space.counts[cfg], rep), norm.params.delta
    )[0][np.arange(cfg.size), rep]
    table = {}
    for i, row in enumerate(space.counts.tolist()):
        mu = tuple(row)
        state = initial_state(norm, [np.random.default_rng(0)])
        state.rep = np.repeat(np.arange(4), mu)
        state.table = table
        run_adaptation(state, norm, [np.random.default_rng(1)])
        occupied = np.flatnonzero(mu)
        assert (table[(norm, mu, 0.6)][occupied] == policies[i, occupied]).all()
        assert (state.thr == policies[i, state.rep]).all()


@pytest.mark.parametrize(
    "periods, stride, N, L",
    [
        (500, 1, 4, 3),
        (sim.BRIDGE_BURN_IN, 1, 4, 3),
        (2000, 0, 4, 3),
        (2000, -1, 4, 3),
        (2000, 1, 5, 3),
        (2000, 1, 4, 2),
    ],
    ids=["periods-below-burn-in", "periods-at-burn-in", "stride-zero",
         "stride-negative", "space-of-other-N", "space-of-other-L"],
)
def test_bridge_occupancy_rejects_bad_arguments(periods, stride, N, L, monkeypatch):
    # arguments, the census space included, are checked before any period
    # is played
    monkeypatch.setattr(sim, "_trajectory", None)
    norm = make_norm(N=4, epsilon=0.05)
    with pytest.raises(ValueError, match="burn-in|stride|space built for"):
        sim.bridge_occupancy(norm, enumerate_configs(N, L), periods, stride=stride)


def test_engine_belief_rows_match_updated_row():
    norm = make_norm(N=8, epsilon=0.1, h=2)
    rng = np.random.default_rng(10)
    state = initial_state(norm, [rng], adaptive=True)
    # replay one period by hand with the same draws
    rep_before = state.rep.copy()
    rows_before = state.belief_rows.copy()
    # drive the period with a fresh generator shared by both paths
    drive = np.random.default_rng(11)
    server_of = _derangement(drive, 8)
    client_of = np.argsort(server_of)
    z = (state.rep[client_of] >= state.thr).astype(int)
    served = z[server_of]
    expected = rows_before.copy()
    for i in range(8):
        srep = rep_before[server_of[i]]
        expected[i, srep] = updated_row(
            rows_before[i, srep], own_rep=int(rep_before[i]), observed_z=int(served[i]), t=1
        )
    replay = np.random.default_rng(11)
    run_period(state, norm, replay)
    assert np.allclose(state.belief_rows, expected)
    assert np.abs(state.belief_rows.sum(axis=2) - 1.0).max() < 1e-12


@pytest.mark.parametrize("h", [1, 2, 3])
def test_engine_period_matches_scalar_rule(h):
    N, L = 40, 3
    norm = make_norm(N=N, L=L, epsilon=0.3, h=h)
    rng = np.random.default_rng(20 + h)
    state = initial_state(norm, [rng])
    assert (state.thr == norm.compliant[state.rep]).all()
    state.thr = rng.integers(0, L + 2, size=N)
    rep_before = state.rep.copy()
    # replay the period's draws, server by server, with the scalar rule
    drive = np.random.default_rng(30 + h)
    server_of = _derangement(drive, N)
    flips = drive.random(N) < norm.params.epsilon
    client_of = np.argsort(server_of)
    expected = []
    for j in range(N):
        client_rep = int(rep_before[client_of[j]])
        z = strategy_serves(int(state.thr[j]), client_rep, L)
        reported = 1 - z if flips[j] else z
        expected.append(reputation_update(norm, int(rep_before[j]), client_rep, reported))
    run_period(state, norm, np.random.default_rng(30 + h))
    assert state.rep.tolist() == expected
    resets = sum(r == 0 for r in expected)
    assert 0 < resets < N  # both branches of the update are exercised


def test_varying_benefit_draws_stay_above_cost():
    spec = ExperimentSpec.from_dict(
        base_doc(mode="varying-b", b_mean=1.5, b_var=4.0)
    )
    norm = make_norm(N=50)
    rng = np.random.default_rng(12)
    state = initial_state(norm, [rng])
    for _ in range(20):
        _redraw_benefits(state, spec, rng)
        assert (state.bs > 1.0).all()


def test_evolution_is_deterministic_and_converges():
    spec = ExperimentSpec.from_dict(
        base_doc(N=100, periods=2000, sample_stride=100, epsilon=0.01, gamma=0.2)
    )
    s1, sum1 = run_evolution(spec)
    s2, sum2 = run_evolution(spec)
    assert sum1 == sum2
    assert [m.census for m in s1] == [m.census for m in s2]
    # feasible parameters: the community ends mostly at the top
    assert sum1["terminal_mean_fraction_top"] > 0.5
    assert sum1["convergence_period"] is not None


def test_experiment_artifacts_roundtrip(tmp_path):
    spec = ExperimentSpec.from_dict(base_doc(periods=100, sample_stride=20))
    summary = run_experiment(spec, tmp_path)
    saved = json.loads((tmp_path / "summary.json").read_text())
    assert saved == summary
    lines = (tmp_path / "timeseries.csv").read_text().strip().splitlines()
    assert lines[0] == "period,n0,n1,n2,n3,U,services"
    assert len(lines) == 1 + 5
    last = lines[-1].split(",")
    assert int(last[0]) == 100
    assert sum(int(x) for x in last[1:5]) == 20


def test_delta_sweep_artifacts(tmp_path):
    doc = base_doc(mode="delta-sweep", periods=100, sample_stride=50)
    del doc["delta"]
    doc["delta_grid"] = [0.3, 0.7]
    spec = ExperimentSpec.from_dict(doc)
    top = run_experiment(spec, tmp_path)
    assert [run["delta"] for run in top["sweep"]] == [0.3, 0.7]
    assert (tmp_path / "timeseries_delta_0.3.csv").exists()
    assert (tmp_path / "timeseries_delta_0.7.csv").exists()


def test_mixed_mode_reports_group_defection():
    doc = base_doc(mode="mixed", N=20, periods=200, sample_stride=50)
    del doc["delta"]
    doc["groups"] = [
        {"size": 10, "delta": 0.2},
        {"size": 10, "delta": 0.8},
    ]
    spec = ExperimentSpec.from_dict(doc)
    _, summary = run_evolution(spec)
    fracs = summary["group_defection_fractions"]
    assert len(fracs) == 2
    assert all(0.0 <= f <= 1.0 for f in fracs)
    # the impatient group defects at least as much as the patient one
    assert fracs[0] >= fracs[1]


def test_adaptive_belief_mode_keeps_rows_stochastic():
    spec = ExperimentSpec.from_dict(
        base_doc(mode="adaptive-belief", N=15, periods=300, sample_stride=50)
    )
    norm = spec.norm
    rng = np.random.default_rng(spec.seed)
    state = initial_state(norm, [rng], adaptive=True)
    for period in range(1, 301):
        run_adaptation(state, norm, [rng])
        run_period(state, norm, rng, period)
    assert np.abs(state.belief_rows.sum(axis=2) - 1.0).max() < 1e-9
    assert (state.belief_counts.sum(axis=1) == 300).all()


class _NoDraws:
    """A generator stand-in that fails the test when anything draws from it."""

    def __getattr__(self, name):
        raise AssertionError(f"drew with {name} before the size check")


def test_state_over_the_budget_is_refused_before_anything_is_allocated(monkeypatch):
    # two replicates of four entries per user, one user over the budget
    norm = make_norm(N=sim.MAX_STATE_ENTRIES // 8 + 1)
    with pytest.raises(ConfigError, match=f"over the limit {sim.MAX_STATE_ENTRIES}"):
        initial_state(norm, [_NoDraws(), _NoDraws()])
    # at the limit the state is built, and belief rows count: 4 + 4 * 6 per user
    monkeypatch.setattr(sim, "MAX_STATE_ENTRIES", 2 * 10 * 28)
    rngs = [np.random.default_rng(0), np.random.default_rng(1)]
    assert initial_state(make_norm(N=10), rngs, adaptive=True).rep.size == 20
    with pytest.raises(ConfigError, match="over the limit 560"):
        initial_state(make_norm(N=11), [_NoDraws(), _NoDraws()], adaptive=True)


def test_run_period_plays_one_replicate_in_place():
    norm = make_norm(N=6, epsilon=0.2)
    rngs = [np.random.default_rng(1), np.random.default_rng(2)]
    state = initial_state(norm, rngs)
    with pytest.raises(ValueError, match="one replicate"):
        run_period(state, norm, rngs[0])
    one = state.replicate(1)
    m = run_period(one, norm, rngs[1])
    assert np.shares_memory(one.rep, state.rep)
    assert m.census == tuple(state.census(3)[1].tolist())


def _at_delta(spec, d):
    return replace(spec, norm=replace(spec.norm, params=replace(spec.norm.params, delta=d)))


@st.composite
def _sweep_specs(draw):
    L = draw(st.integers(min_value=1, max_value=3))
    return ExperimentSpec.from_dict({
        "mode": "delta-sweep", "N": draw(st.integers(min_value=2, max_value=12)),
        "L": L, "b": draw(st.floats(min_value=1.5, max_value=5.0)), "c": 1.0,
        "h": draw(st.integers(min_value=1, max_value=L)),
        "epsilon": draw(st.sampled_from([0.0, 0.05, 0.3])),
        "gamma": draw(st.sampled_from([0.2, 0.7, 1.0])),
        "periods": draw(st.integers(min_value=1, max_value=40)),
        "sample_stride": draw(st.integers(min_value=1, max_value=15)),
        "seed": draw(st.integers(min_value=0, max_value=2**32)),
        "delta_grid": draw(st.lists(st.sampled_from([0.0, 0.3, 0.6, 0.9]),
                                    min_size=1, max_size=4, unique=True)),
    })


@settings(max_examples=40, deadline=None)
@given(_sweep_specs())
def test_sweep_points_match_single_runs(spec):
    # the lockstep sweep writes, point by point, what one run_evolution of
    # the spec at that delta returns, byte for byte
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        top = run_experiment(spec, out)
        for d, point in zip(spec.delta_grid, top["sweep"]):
            samples, summary = run_evolution(_at_delta(spec, d))
            assert point == dict(summary, delta=d)
            sim._write_timeseries(out / "single.csv", samples)
            name = sim._timeseries_name(d)
            assert (out / name).read_bytes() == (out / "single.csv").read_bytes()


def test_sweep_solves_every_points_misses_in_one_call_per_period(monkeypatch):
    doc = base_doc(mode="delta-sweep", N=40, periods=200, delta_grid=[0.3, 0.5, 0.7, 0.9])
    del doc["delta"]
    spec = ExperimentSpec.from_dict(doc)
    rows = []

    def counted(norm, etas, deltas, **kwargs):
        rows.append(len(etas))
        return solve_policy_batch(norm, etas, deltas, **kwargs)

    monkeypatch.setattr(sim, "solve_policy_batch", counted)
    run_experiment(spec)
    swept = list(rows)
    rows.clear()
    for d in spec.delta_grid:
        run_evolution(_at_delta(spec, d))
    assert len(swept) <= spec.periods
    assert len(swept) < len(rows)
    assert sum(swept) == sum(rows)
