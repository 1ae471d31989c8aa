"""End-to-end acceptance suite.

Each test covers one acceptance criterion and reports a single PASS/FAIL
line (collected by conftest and echoed after the run).  The heavy Monte
Carlo criteria run scaled-down but statistically meaningful configurations;
tolerances are stated inline next to each assertion.
"""

from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

import conftest
from normsim import (
    CommunityParams,
    ExperimentSpec,
    SocialNorm,
    best_response,
    build_transition_matrix,
    bridge_occupancy,
    classify_absorbing,
    closed_form_bimodal,
    enumerate_configs,
    feasibility_test,
    feasible_region_grid,
    limiting_distribution,
    run_evolution,
    stationary_distribution,
    updated_row,
)
from normsim.bestresponse import bimodal_opponent
from normsim.design import _gap
from oracles import verify_threshold_structure


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except Exception:
        line = f"criterion {num:02d} FAIL {label}"
        conftest.ACCEPTANCE_RESULTS.append(line)
        print(line)
        raise
    line = f"criterion {num:02d} PASS {label}"
    conftest.ACCEPTANCE_RESULTS.append(line)
    print(line)


def make_norm(N, h, delta, b, c=1.0, L=3, epsilon=0.0):
    params = CommunityParams(N=N, L=L, b=b, c=c, delta=delta, epsilon=epsilon)
    return SocialNorm(params=params, h=h)


def evolution_doc(**overrides):
    doc = {
        "mode": "evolution",
        "N": 500,
        "L": 3,
        "b": 3.0,
        "c": 1.0,
        "delta": 0.5,
        "epsilon": 0.05,
        "gamma": 0.1,
        "h": 1,
        "periods": 100_000,
        "sample_stride": 1000,
        "seed": 0,
    }
    doc.update(overrides)
    return doc


def _served_behaviors(q_row, thresholds, occupied, tol=1e-6):
    """Distinct served-sets among near-optimal thresholds at one reputation."""
    best = q_row.max()
    out = set()
    for a in thresholds:
        if q_row[a] >= best - tol:
            out.add(tuple(int(r >= a) for r in occupied))
    return out


def test_01_closed_form_matches_value_iteration():
    with criterion(1, "closed-form two-point solutions match value iteration"):
        for N in (5, 11, 51):
            for h in (1, 2, 3):
                for delta in (0.3, 0.5, 0.6, 0.8):
                    for b in (2.0, 3.0, 5.0):
                        norm = make_norm(N, h, delta, b)
                        for nL in range(N + 1):
                            for rep in (0, 3):
                                counts = [N - nL, 0, 0, nL]
                                if counts[rep] == 0:
                                    continue
                                cf = closed_form_bimodal(norm, N - nL, nL, rep)
                                eta = bimodal_opponent(norm, N - nL, nL, rep)
                                vi = best_response(norm, eta)
                                assert np.abs(vi.values - cf.values).max() < 1e-7
                                occupied = [r for r in (0, 3) if eta[r] > 0]
                                pol = cf.policy
                                for own in range(4):
                                    # skip rows where distinct behaviors tie
                                    behaviors = _served_behaviors(
                                        vi.q[own], range(5), occupied
                                    )
                                    if len(behaviors) > 1:
                                        continue
                                    want = tuple(
                                        int(r >= pol[own]) for r in occupied
                                    )
                                    assert behaviors == {want}, (
                                        N, h, delta, b, nL, rep, own
                                    )


def test_02_threshold_policy_structure_fuzz():
    with criterion(2, "threshold structure of best responses holds on 500+ draws"):
        rng = np.random.default_rng(2024)
        draws = 0
        while draws < 500:
            N = int(rng.integers(3, 20))
            h = int(rng.integers(1, 4))
            norm = make_norm(
                N,
                h,
                float(rng.uniform(0.0, 0.95)),
                float(rng.uniform(1.2, 6.0)),
                epsilon=float(rng.uniform(0.0, 0.3)),
            )
            counts = rng.multinomial(N - 1, rng.dirichlet(np.ones(4)))
            eta = tuple(int(x) for x in counts)
            # full service-subset solve buys nothing over thresholds and
            # always admits an upward-closed optimal action
            ok, counterexample = verify_threshold_structure(norm, eta)
            assert ok, counterexample
            sol = best_response(norm, eta)
            floor = norm.compliant
            assert (sol.policy >= floor).all()
            assert (np.diff(sol.policy[: norm.h]) <= 0).all()
            assert (np.diff(sol.policy[norm.h :]) <= 0).all()
            assert (np.diff(sol.values) >= -1e-9).all()
            draws += 1


def test_03_interior_mass_vanishes_with_errors():
    with criterion(3, "stationary mass off the extreme reputations vanishes"):
        space = enumerate_configs(6, 3)
        interior = np.array(
            [any(cfg[t] for t in (1, 2)) for cfg in space.counts.tolist()]
        )
        ladder = (1e-2, 1e-3, 1e-4, 1e-5)
        for delta in (0.6, 0.3):  # feasible and infeasible parameter cells
            norm = make_norm(6, 1, delta, 3.0)
            res = limiting_distribution(norm, space, eps_ladder=ladder)
            masses = [
                float(res.table[eps].weights[interior].sum()) for eps in ladder
            ]
            assert all(a >= b for a, b in zip(masses, masses[1:])), masses
            assert masses[-1] < 1e-2, masses


def test_04_design_verdict_matches_chain_support():
    with criterion(4, "analytic design verdict agrees with exact-chain support"):
        for N in (4, 6, 8):
            space = enumerate_configs(N, 3)
            for delta in (0.3, 0.5, 0.7, 0.9):
                for b in (2.0, 3.0, 5.0):
                    for h in (1, 2, 3):
                        if abs(_gap(delta, b, 1.0, h)) < 1e-6:
                            continue  # knife-edge cells are excluded
                        norm = make_norm(N, h, delta, b)
                        classify_absorbing(norm, space)  # must self-validate
                        res = limiting_distribution(norm, space)
                        verdict = feasibility_test(norm.params, h)
                        unique_top = res.support == (space.index_of([0, 0, 0, N]),)
                        assert verdict == unique_top, (
                            N, delta, b, h, verdict,
                            [tuple(space.counts[i].tolist()) for i in res.support],
                        )


def test_05_large_community_reaches_cooperation():
    with criterion(5, "large community settles near full cooperation"):
        spec = ExperimentSpec.from_dict(evolution_doc())
        finals = []
        for seed in range(5):
            _, summary = run_evolution(replace(spec, seed=seed))
            finals.append(np.array(summary["terminal_configuration"]) / 500)
        mean = np.mean(finals, axis=0)
        # Interior reputations empty out only as eps -> 0 (criterion 03).  At
        # eps > 0 every user is reset with probability q >= eps per period and
        # otherwise climbs one step, so stationary flows balance as
        # n_{k+1} = n_k (1 - q_k) for 1 <= k < L-1 and
        # n_{L-1} (1 - q_{L-1}) = n_L q_L >= eps n_L: the interior mass is at
        # least (L-1) eps n_L, i.e. 0.075 here once n_L >= 0.75.  Under full
        # compliance every q is eps and users move independently, so the
        # interior mass settles at the error-churn floor
        # f = sum_{k=1}^{L-1} eps (1-eps)^k (0.0926 here), and its mean over
        # seeds x N terminal users is a binomial share with standard error
        # sqrt(f (1-f) / (seeds N)).  Three standard errors (0.017 here) allow
        # for sampling.  A community that has not settled, whose top users are
        # reset more often than eps, sends more climbers through the interior.
        p = spec.norm.params
        floor = sum(p.epsilon * (1 - p.epsilon) ** k for k in range(1, p.L))
        margin = 3 * np.sqrt(floor * (1 - floor) / (len(finals) * p.N))
        interior = mean[1 : p.L].sum()
        assert interior < floor + margin, (mean, floor, margin)
        assert 0.75 <= mean[3] <= 0.98, mean


def test_06_high_error_prevents_convergence():
    with criterion(6, "high error rate keeps the census oscillating"):
        spec = ExperimentSpec.from_dict(evolution_doc(epsilon=0.2))
        shares = []
        for seed in range(5):
            samples, _ = run_evolution(replace(spec, seed=seed))
            tail = samples[len(samples) // 2 :]
            shares.extend(m.census[3] / 500 for m in tail)
        bins = np.round(np.array(shares) / 0.05).astype(int)
        _, counts = np.unique(bins, return_counts=True)
        assert counts.max() / counts.sum() <= 0.90, counts


def test_07_cooperation_monotone_in_patience_and_benefit():
    with criterion(7, "terminal cooperation rises with patience and benefit"):
        deltas = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
        seeds = (0, 1, 2)
        curves = {}
        for b in (3.0, 5.0):
            spec = ExperimentSpec.from_dict(
                evolution_doc(N=200, b=b, periods=20_000)
            )
            means, ses = [], []
            for d in deltas:
                vals = [
                    run_evolution(replace(
                        spec, seed=s, norm=replace(
                            spec.norm, params=replace(spec.norm.params, delta=d)
                        ),
                    ))[1][
                        "terminal_mean_fraction_top"
                    ]
                    for s in seeds
                ]
                means.append(float(np.mean(vals)))
                ses.append(float(np.std(vals, ddof=1) / np.sqrt(len(seeds))))
            curves[b] = (np.array(means), np.array(ses))
        for b, (means, ses) in curves.items():
            sig = np.sqrt(ses[:-1] ** 2 + ses[1:] ** 2)
            violations = int((np.diff(means) < -2 * sig).sum())
            assert violations <= 1, (b, means)
        m3, s3 = curves[3.0]
        m5, s5 = curves[5.0]
        assert (m5 >= m3 - 2 * np.sqrt(s3**2 + s5**2)).all(), (m3, m5)


def test_08_mixed_patience_defection_orderings():
    with criterion(8, "mixing patient and impatient users reorders defection"):
        common = dict(
            b=3.0, c=1.0, h=1, epsilon=0.05, gamma=0.1,
            periods=20_000, sample_stride=1000,
        )
        pure_lo = ExperimentSpec.from_dict(
            evolution_doc(N=250, delta=0.3, **common)
        )
        pure_hi = ExperimentSpec.from_dict(
            evolution_doc(N=250, delta=0.6, **common)
        )
        mixed_doc = evolution_doc(mode="mixed", N=500, **common)
        del mixed_doc["delta"]
        mixed_doc["groups"] = [
            {"size": 250, "delta": 0.3},
            {"size": 250, "delta": 0.6},
        ]
        mixed = ExperimentSpec.from_dict(mixed_doc)
        lo = hi = mix = mix_lo = mix_hi = 0.0
        seeds = range(5)
        for seed in seeds:
            lo += run_evolution(replace(pure_lo, seed=seed))[1]["defection_fraction"]
            hi += run_evolution(replace(pure_hi, seed=seed))[1]["defection_fraction"]
            summary = run_evolution(replace(mixed, seed=seed))[1]
            mix += summary["defection_fraction"]
            g_lo, g_hi = summary["group_defection_fractions"]
            mix_lo += g_lo
            mix_hi += g_hi
        n = len(list(seeds))
        lo, hi, mix, mix_lo, mix_hi = (
            x / n for x in (lo, hi, mix, mix_lo, mix_hi)
        )
        assert hi < mix < lo, (hi, mix, lo)  # mixture sits between the pures
        assert mix_hi > hi, (mix_hi, hi)  # patient users defect more when mixed
        assert mix_lo < lo, (mix_lo, lo)  # impatient users defect less when mixed


def test_09_feasible_region_shape():
    with criterion(9, "feasibility region has the expected monotone shape"):
        deltas = np.linspace(0.05, 0.95, 20)
        cbs = np.linspace(0.05, 0.95, 20)
        rows = feasible_region_grid(deltas, cbs, L=3)
        assert len(rows) == 400
        H = {(d, cb): Hval for d, cb, Hval, _ in rows}
        for d, cb, Hval, max_h in rows:
            if d <= cb:
                assert Hval is None and max_h is None, (d, cb)
            else:
                assert Hval is not None and Hval > 0
        for cb in cbs:
            col = [H[(float(d), float(cb))] for d in deltas]
            defined = [v for v in col if v is not None]
            assert all(
                a <= b + 1e-7 for a, b in zip(defined, defined[1:])
            ), (cb, defined)
        for d in deltas:
            row = [H[(float(d), float(cb))] for cb in cbs]
            defined = [v for v in row if v is not None]
            assert all(
                a >= b - 1e-7 for a, b in zip(defined, defined[1:])
            ), (d, defined)


def test_10_engine_occupancy_matches_exact_chain():
    with criterion(10, "Monte Carlo occupancy is consistent with the exact chain"):
        params = CommunityParams(
            N=6, L=3, b=3.0, c=1.0, delta=0.6, epsilon=0.01, gamma=1.0
        )
        norm = SocialNorm(params=params, h=1)
        space = enumerate_configs(6, 3)
        P = build_transition_matrix(norm, space)
        omega = stationary_distribution(P).weights
        counts = bridge_occupancy(norm, space, 1_000_000, seed=11, stride=100)
        total = counts.sum()
        expected = omega * total
        # pool states whose expected counts are too small for chi-square
        big = expected >= 5.0
        obs = np.append(counts[big], counts[~big].sum())
        exp = np.append(expected[big], expected[~big].sum())
        assert big.sum() >= 1 and len(obs) >= 2
        stat, pvalue = stats.chisquare(obs, exp * obs.sum() / exp.sum())
        assert pvalue >= 0.01, (stat, pvalue)


def test_11_adaptive_beliefs_slow_convergence():
    with criterion(11, "learned beliefs stay stochastic and delay convergence"):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            raw = rng.random(5)
            row = raw / raw.sum()
            t = 0
            for _ in range(30):
                t += 1
                row = updated_row(
                    row,
                    own_rep=int(rng.integers(4)),
                    observed_z=int(rng.integers(2)),
                    t=t,
                )
                assert abs(row.sum() - 1.0) < 1e-9
                assert (row >= -1e-12).all()
        fixed = ExperimentSpec.from_dict(evolution_doc())
        adaptive = ExperimentSpec.from_dict(evolution_doc(mode="adaptive-belief"))
        for seed in (0, 1):
            _, sum_fixed = run_evolution(replace(fixed, seed=seed))
            _, sum_adapt = run_evolution(replace(adaptive, seed=seed))
            frac = sum_adapt["terminal_mean_fraction_top"]
            assert 0.75 <= frac <= 0.98, frac
            assert sum_fixed["convergence_period"] is not None
            assert sum_adapt["convergence_period"] is not None
            assert (
                sum_adapt["convergence_period"] > sum_fixed["convergence_period"]
            ), (sum_adapt["convergence_period"], sum_fixed["convergence_period"])
