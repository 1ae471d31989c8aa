import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from normsim import (
    CommunityParams,
    ConfigError,
    SocialNorm,
    best_response,
    closed_form_bimodal,
    model_arrays,
    solve_policy_batch,
    subset_serve,
)
from normsim import bestresponse
from oracles import value_iteration, verify_threshold_structure


def make_norm(N=11, L=3, b=3.0, c=1.0, delta=0.6, epsilon=0.0, h=1):
    params = CommunityParams(N=N, L=L, b=b, c=c, delta=delta, epsilon=epsilon)
    return SocialNorm(params=params, h=h)


def brute_force_values(norm, eta):
    """Evaluate every stationary threshold policy exactly; return the best values.

    Independent oracle: enumerates all (L+2)^(L+1) policies and solves each
    one's linear evaluation equations directly.
    """
    p = norm.params
    L = p.L
    benefit, cost, reset, stay = (a[0] for a in model_arrays(norm, [eta]))
    up = np.minimum(np.arange(L + 1) + 1, L)
    best = np.full(L + 1, -np.inf)
    for policy in product(range(L + 2), repeat=L + 1):
        pol = np.array(policy)
        q = reset[np.arange(L + 1), pol]
        r = benefit - cost[pol]
        T = np.zeros((L + 1, L + 1))
        T[np.arange(L + 1), 0] += q
        T[np.arange(L + 1), up] += stay[np.arange(L + 1), pol]
        v = np.linalg.solve(np.eye(L + 1) - p.delta * T, r)
        best = np.maximum(best, v)
    return best


def served_set(threshold, occupied):
    return tuple(int(rep >= threshold) for rep in occupied)


def test_full_compliance_example():
    # patient users facing an all-top census comply and earn (b-c)/(1-delta)
    norm = make_norm()
    eta = (0, 0, 0, 10)
    sol = best_response(norm, eta)
    assert np.allclose(sol.values, [2.0, 5.0, 5.0, 5.0], atol=1e-8)
    occupied = (3,)
    # reputation 0 must serve everyone it meets; above, serve the top clients
    assert served_set(sol.policy[0], occupied) == (1,)
    for rep in (1, 2, 3):
        assert served_set(sol.policy[rep], occupied) == (1,)


def test_all_defector_census_yields_defection():
    norm = make_norm()
    eta = (10, 0, 0, 0)
    sol = best_response(norm, eta)
    assert np.allclose(sol.values, 0.0, atol=1e-8)
    assert (sol.policy == 4).all()
    oracle = brute_force_values(norm, eta)
    assert np.allclose(oracle, 0.0, atol=1e-10)


def test_values_match_policy_enumeration_oracle():
    rng = np.random.default_rng(42)
    for _ in range(25):
        N = int(rng.integers(3, 15))
        norm = make_norm(
            N=N,
            b=float(rng.uniform(1.5, 6.0)),
            c=1.0,
            delta=float(rng.uniform(0.0, 0.9)),
            epsilon=float(rng.uniform(0.0, 0.3)),
            h=int(rng.integers(1, 4)),
        )
        eta = rng.multinomial(N - 1, np.ones(4) / 4)
        sol = best_response(norm, eta)
        oracle = brute_force_values(norm, eta)
        assert np.abs(sol.values - oracle).max() < 1e-7


def test_closed_form_matches_iteration_on_two_point_censuses():
    for N in (5, 11):
        for h in (1, 2, 3):
            for delta in (0.3, 0.6, 0.8):
                for b in (2.0, 5.0):
                    norm = make_norm(N=N, b=b, delta=delta, h=h)
                    for nL in range(N + 1):
                        for rep in (0, 3):
                            counts = [N - nL, 0, 0, nL]
                            if counts[rep] == 0:
                                continue
                            cf = closed_form_bimodal(norm, N - nL, nL, rep)
                            counts[rep] -= 1
                            vi = best_response(norm, counts)
                            assert np.abs(vi.values - cf.values).max() < 1e-7


def test_closed_form_defection_enforced_against_all_defectors():
    norm = make_norm(N=11, b=3.0, delta=0.5, h=1)
    cf = closed_form_bimodal(norm, 11, 0, 0)
    assert cf.policy[0] == 4
    assert np.allclose(cf.values, 0.0)


def test_closed_form_myopic_users_defect():
    # delta=0: never pay today's cost; value is just today's benefit
    norm = make_norm(N=11, b=3.0, delta=0.0, h=1)
    cf = closed_form_bimodal(norm, 11, 0, 0)
    assert (cf.policy[norm.h:] == 4).all()
    assert np.allclose(cf.values, 0.0)
    vi = best_response(norm, (10, 0, 0, 0))
    assert (vi.policy == 4).all()
    assert np.allclose(vi.values, 0.0)


def test_closed_form_rejects_interior_mass():
    norm = make_norm(N=5)
    with pytest.raises(ValueError):
        closed_form_bimodal(norm, 2, 2, 0)  # counts do not sum to N
    with pytest.raises(ValueError):
        closed_form_bimodal(norm, 2, 3, 1)  # own reputation not at an endpoint
    with pytest.raises(ValueError):
        closed_form_bimodal(norm, 0, 5, 0)  # own bucket empty
    with pytest.raises(ValueError):
        closed_form_bimodal(norm, -1, 6, 3)  # a negative count


def test_threshold_structure_on_random_censuses():
    rng = np.random.default_rng(7)
    for _ in range(30):
        N = int(rng.integers(3, 12))
        norm = make_norm(
            N=N,
            b=float(rng.uniform(1.5, 5.0)),
            delta=float(rng.choice([0.3, 0.5, 0.7])),
            epsilon=float(rng.uniform(0.0, 0.25)),
            h=int(rng.integers(1, 4)),
        )
        eta = rng.multinomial(N - 1, np.ones(4) / 4)
        ok, counterexample = verify_threshold_structure(norm, eta)
        assert ok, counterexample


def test_batch_solver_matches_scalar_solver():
    # mixed deltas and per-user benefits, under the baseline belief and under
    # random row-stochastic beliefs over opponents' thresholds
    rng = np.random.default_rng(3)
    norm = make_norm(N=20, epsilon=0.05, h=2)
    K = 40
    etas = rng.multinomial(19, np.ones(4) / 4, size=K)
    deltas = rng.uniform(0.0, 0.9, size=K)
    bs = rng.uniform(1.2, 6.0, size=K)
    for beliefs in (None, rng.dirichlet(np.ones(5), size=(K, 4))):
        policies, values = solve_policy_batch(
            norm, etas.astype(float), deltas, bs=bs, belief_rows=beliefs
        )[:2]
        assert len({tuple(row) for row in policies}) >= 3
        for k in range(K):
            policy, value = solve_policy_batch(
                norm,
                etas[k : k + 1].astype(float),
                [deltas[k]],
                bs=bs[k : k + 1],
                belief_rows=None if beliefs is None else beliefs[k : k + 1],
            )[:2]
            assert np.abs(values[k] - value[0]).max() < 1e-7
            assert (policies[k] == policy[0]).all()


def test_batch_solver_raises_when_policies_do_not_settle(monkeypatch):
    # against an all-top census the best response complies, which policy
    # iteration cannot reach from its all-defect start in one round
    norm = make_norm(N=11)
    etas = np.array([[0.0, 0.0, 0.0, 10.0]])
    policies, *_, rounds = solve_policy_batch(norm, etas, [0.6])
    assert (policies[0] != 4).any()
    # rounds is the fewest MAX_ROUNDS that settle, and what the one-user
    # entry point reports as its iterations
    assert rounds == best_response(norm, etas[0]).iterations > 1
    monkeypatch.setattr(bestresponse, "MAX_ROUNDS", rounds)
    solve_policy_batch(norm, etas, [0.6])
    monkeypatch.setattr(bestresponse, "MAX_ROUNDS", rounds - 1)
    with pytest.raises(RuntimeError, match="did not settle"):
        solve_policy_batch(norm, etas, [0.6])


def test_structural_policy_properties():
    # required service floor, group-wise monotonicity, value monotonicity
    rng = np.random.default_rng(11)
    for _ in range(60):
        N = int(rng.integers(3, 25))
        h = int(rng.integers(1, 4))
        norm = make_norm(
            N=N,
            b=float(rng.uniform(1.2, 6.0)),
            delta=float(rng.uniform(0.0, 0.95)),
            epsilon=float(rng.uniform(0.0, 0.3)),
            h=h,
        )
        eta = rng.multinomial(N - 1, np.ones(4) / 4)
        sol = best_response(norm, eta)
        floor = norm.compliant
        assert (sol.policy >= floor).all()
        assert (np.diff(sol.policy[:h]) <= 0).all()
        assert (np.diff(sol.policy[h:]) <= 0).all()
        assert (np.diff(sol.values) >= -1e-9).all()


def test_action_spaces_share_one_serve_dtype():
    # the threshold actions are service sets of the subset action space
    norm = make_norm()
    sub = subset_serve(3)
    assert sub.dtype == norm.serve.dtype == float
    assert sub.shape == (16, 4)
    assert {tuple(row) for row in norm.serve} <= {tuple(row) for row in sub}


def test_subset_action_space_over_budget_raises_before_building():
    # 2^(L+1) rows: L = log2(budget) - 1 fills the budget, one more is over it
    L = int(np.log2(bestresponse.MAX_SUBSET_ROWS))
    assert subset_serve(L - 1).shape == (bestresponse.MAX_SUBSET_ROWS, L)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=f"limit {bestresponse.MAX_SUBSET_ROWS}"):
            subset_serve(L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


@settings(max_examples=200, deadline=None)
@given(
    N=st.integers(min_value=2, max_value=29),
    L=st.integers(min_value=1, max_value=4),
    h=st.integers(min_value=1, max_value=4),
    delta=st.floats(min_value=0.0, max_value=0.99),
    eps=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.3)),
    b=st.floats(min_value=1.05, max_value=10.0),
    actions=st.sampled_from(
        ["threshold", "shuffled thresholds", "subset", "duplicated thresholds"]
    ),
    adaptive=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_batch_solver_matches_value_iteration_oracle(
    N, L, h, delta, eps, b, actions, adaptive, seed
):
    # Policy iteration lands on the fixed point value iteration approaches,
    # with the same tie rule, whatever the order of the actions.  Every call
    # settles on the one stopping rule (greedy policies equal the evaluated
    # ones), from a lone opponent (N = 2) up to delta = 0.99.  The oracle
    # stops within 1e-10 of the optimal values; the bound is ten times that,
    # relative to max(1, |v|) so that large values keep their rounding room.
    assume(h <= L)
    rng = np.random.default_rng(seed)
    norm = make_norm(N=N, L=L, b=b, delta=delta, epsilon=eps, h=h)
    K = 3
    etas = rng.multinomial(N - 1, rng.dirichlet(np.ones(L + 1)), size=K)
    beliefs = rng.dirichlet(np.ones(L + 2), size=(K, L + 1)) if adaptive else None
    serve = {
        "threshold": None,
        "shuffled thresholds": rng.permutation(norm.serve),
        "subset": subset_serve(L),
        # two rows serve each set, so ties between them go to the later row
        "duplicated thresholds": np.vstack([norm.serve, norm.serve]),
    }[actions]
    policies, values, played, q, _ = solve_policy_batch(
        norm, etas, np.full(K, delta), serve=serve, belief_rows=beliefs
    )
    # the played (reset, stay) pair is the model's, at the played action
    _, _, reset, stay = model_arrays(norm, etas, serve=serve, belief_rows=beliefs)
    at = (np.arange(K)[:, None], np.arange(L + 1), policies)
    np.testing.assert_allclose(
        played, np.stack([reset[at], stay[at]], axis=2), rtol=0, atol=1e-15
    )
    for k in range(K):
        rows = None if beliefs is None else beliefs[k]
        policy, want, want_q = value_iteration(
            norm, etas[k], serve=serve, belief_rows=rows
        )[:3]
        scale = max(1.0, np.abs(want).max())
        assert (policies[k] == policy).all()
        assert np.abs(values[k] - want).max() <= 1e-9 * scale
        assert np.abs(q[k] - want_q).max() <= 1e-9 * scale
        assert np.abs(q[k].max(axis=1) - values[k]).max() <= 1e-9
    # a one-row call answers as the batch does; under the baseline belief it
    # is the one-user entry point
    if beliefs is None:
        sol = best_response(norm, etas[0], serve=serve)
        assert (sol.policy == policies[0]).all()
        assert np.abs(sol.q.max(axis=1) - sol.values).max() <= 1e-9
    else:
        policy, value, _, one_q, _ = solve_policy_batch(
            norm, etas[:1], [delta], serve=serve, belief_rows=beliefs[:1]
        )
        assert (policy[0] == policies[0]).all()
        assert np.abs(one_q[0].max(axis=1) - value[0]).max() <= 1e-9


def _model_arrays_reference(norm, etas, *, bs=None, belief_rows=None):
    """Reference: ``payoff.model_arrays`` on threshold actions as it stood
    before its constant tensors were cached, with every tensor rebuilt per
    call; the reset and stay probabilities each come from an exact count of
    opponents."""
    p = norm.params
    L = p.L
    eps = p.epsilon
    etas = np.asarray(etas, dtype=float)
    frac = etas / (p.N - 1)
    serve = (np.arange(L + 1)[None, :] >= np.arange(L + 2)[:, None]).astype(float)
    phi = np.zeros((L + 1, L + 1))
    phi[: norm.h, :] = 1.0
    phi[norm.h :, norm.h :] = 1.0
    b = np.broadcast_to(
        np.asarray(p.b if bs is None else bs, dtype=float), etas.shape[:1]
    )
    if belief_rows is None:
        comply = np.full(L + 1, 1.0 - eps)
        comply[0] = eps
        benefit = (frac @ (comply[:, None] * phi)) * b[:, None]
    else:
        serve_prob = np.asarray(belief_rows, dtype=float) @ serve
        benefit = np.einsum("kr,krs->ks", etas, serve_prob) * b[:, None] / (p.N - 1)
    cost = (p.c / (p.N - 1)) * (etas @ serve.T)
    mism = (serve[None, :, :] != phi[:, None, :]).astype(float)
    bad = np.einsum("tac,kc->kta", mism, etas)
    reset = eps + (1.0 - 2.0 * eps) * (bad / (p.N - 1))
    stay = eps + (1.0 - 2.0 * eps) * ((p.N - 1 - bad) / (p.N - 1))
    return benefit, cost, reset, stay


def _solve_policy_batch_reference(
    norm, etas, deltas, *, belief_rows=None, bs=None, max_rounds=200
):
    """Reference: the batched policy-iteration loop before its per-round
    gathers, transition build and convergence test were made lean.  Kept
    frozen so the rewritten solver can be held to it bit for bit."""
    L = norm.params.L
    etas = np.asarray(etas, dtype=float)
    K = etas.shape[0]
    deltas = np.broadcast_to(np.asarray(deltas, dtype=float), (K,))
    benefit, cost, reset, stay = _model_arrays_reference(
        norm, etas, bs=bs, belief_rows=belief_rows
    )
    reward = benefit[:, :, None] - cost[:, None, :]
    up = np.minimum(np.arange(L + 1) + 1, L)
    S = L + 1
    policies = np.full((K, S), L + 1, dtype=np.int64)
    values = np.zeros((K, S))
    prev_values = None
    rows = np.arange(S)
    for _ in range(max_rounds):
        p0 = np.take_along_axis(reset, policies[:, :, None], axis=2)[:, :, 0]
        s0 = np.take_along_axis(stay, policies[:, :, None], axis=2)[:, :, 0]
        r_pi = np.take_along_axis(reward, policies[:, :, None], axis=2)[:, :, 0]
        trans = np.zeros((K, S, S))
        trans[:, rows, 0] += p0
        trans[:, rows, up] += s0
        A = np.eye(S)[None, :, :] - deltas[:, None, None] * trans
        values = np.linalg.solve(A, r_pi[:, :, None])[:, :, 0]
        cont = reset * values[:, 0, None, None] + stay * values[:, up][:, :, None]
        q = reward + deltas[:, None, None] * cont
        tied = q >= q.max(axis=2, keepdims=True) - 1e-9
        new_policies = (L + 1) - np.argmax(tied[:, :, ::-1], axis=2)
        if np.array_equal(new_policies, policies):
            break
        if prev_values is not None and np.abs(values - prev_values).max() < 1e-13:
            policies = new_policies
            p0 = np.take_along_axis(reset, policies[:, :, None], axis=2)[:, :, 0]
            s0 = np.take_along_axis(stay, policies[:, :, None], axis=2)[:, :, 0]
            break
        prev_values = values
        policies = new_policies
    else:
        raise RuntimeError(f"policy iteration did not settle within {max_rounds} rounds")
    return policies, values, np.stack([p0, s0], axis=2)


@settings(max_examples=300, deadline=None)
@given(
    N=st.integers(min_value=2, max_value=600),
    L=st.integers(min_value=1, max_value=4),
    h=st.integers(min_value=1, max_value=4),
    delta=st.floats(min_value=0.0, max_value=0.95),
    eps=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.45)),
    b=st.floats(min_value=1.05, max_value=10.0),
    K=st.integers(min_value=1, max_value=12),
    per_row=st.booleans(),
    adaptive=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_batch_solver_matches_frozen_reference(
    N, L, h, delta, eps, b, K, per_row, adaptive, seed
):
    # Policies and played resets must agree bit for bit.  The rewrite keeps
    # every floating-point operation of the reference in the same order
    # (the gathers read the same entries, and the transition matrix sets the
    # entries the reference added to zeros), so the values are bit-identical
    # too.
    assume(h <= L)
    rng = np.random.default_rng(seed)
    norm = make_norm(N=N, L=L, b=b, delta=delta, epsilon=eps, h=h)
    etas = rng.multinomial(N - 1, rng.dirichlet(np.ones(L + 1)), size=K).astype(float)
    deltas = rng.uniform(0.0, 0.95, size=K) if per_row else delta
    bs = rng.uniform(1.05, 10.0, size=K) if per_row else None
    beliefs = rng.dirichlet(np.ones(L + 2), size=(K, L + 1)) if adaptive else None
    got = solve_policy_batch(norm, etas, deltas, bs=bs, belief_rows=beliefs)
    want = _solve_policy_batch_reference(norm, etas, deltas, bs=bs, belief_rows=beliefs)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert np.array_equal(g, w)
