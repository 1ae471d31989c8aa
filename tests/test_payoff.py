import numpy as np
import pytest

from normsim import (
    CommunityParams,
    SocialNorm,
    model_arrays,
    opponent_of,
    solve_policy_batch,
)


def make_norm(N=5, L=3, b=3.0, c=1.0, delta=0.6, epsilon=0.0, h=1):
    params = CommunityParams(N=N, L=L, b=b, c=c, delta=delta, epsilon=epsilon)
    return SocialNorm(params=params, h=h)


def test_opponent_of_decrements_own_bucket():
    # one census shared by every user
    etas = opponent_of([2, 0, 0, 3], [3, 0])
    assert etas.dtype == float
    assert etas.tolist() == [[2, 0, 0, 2], [1, 0, 0, 3]]
    # one census per user
    etas = opponent_of([[2, 0, 0, 3], [1, 0, 0, 1]], [3, 0])
    assert etas.tolist() == [[2, 0, 0, 2], [0, 0, 0, 1]]


def test_opponent_of_rejects_empty_bucket():
    with pytest.raises(ValueError):
        opponent_of([0, 1, 1, 1], [1, 0])
    with pytest.raises(ValueError):
        opponent_of([[1, 1, 1, 1], [0, 1, 1, 1]], [0, 0])
    with pytest.raises(ValueError):
        opponent_of([0, 1, 1, 1], [7])
    with pytest.raises(ValueError):  # not read as the top reputation
        opponent_of([1, 1, 1, 1], [-1])


def test_utility_all_compliant_top_reputation():
    # everyone good and compliant: utility is exactly b - c
    norm = make_norm(N=5, h=1, epsilon=0.0)
    benefit, cost = model_arrays(norm, [(0, 0, 0, 4)])[:2]
    assert benefit[0, 3] - cost[0, 1] == pytest.approx(2.0)


def test_utility_bad_client_gets_no_benefit():
    norm = make_norm(N=5, h=1, epsilon=0.0)
    benefit, cost = model_arrays(norm, [(0, 0, 0, 4)])[:2]
    assert benefit[0, 0] - cost[0, 1] == pytest.approx(-1.0)


def test_utility_all_defectors_zero():
    norm = make_norm(N=5, h=1, epsilon=0.0)
    benefit, cost = model_arrays(norm, [(4, 0, 0, 0)])[:2]
    assert benefit[0, 2] - cost[0, 4] == pytest.approx(0.0)


def test_utility_affine_in_counts():
    norm = make_norm(N=9, h=2, epsilon=0.1)
    # base, bumped, and the single-reputation censuses at 0 and at 3
    etas = [(2, 2, 2, 2), (1, 2, 2, 3), (8, 0, 0, 0), (0, 0, 0, 8)]
    benefit, cost = model_arrays(norm, etas)[:2]
    u = benefit[:, :, None] - cost[:, None, :]  # [census, own rep, threshold]
    # moving one opponent from rep 0 to rep 3 changes utility by the
    # difference of the per-opponent coefficients
    np.testing.assert_allclose(u[1] - u[0], (u[3] - u[2]) / 8, rtol=0, atol=1e-12)


def test_prob_reset_compliant_action_is_epsilon():
    norm = make_norm(N=9, h=2, epsilon=0.07)
    reset = model_arrays(norm, [(3, 1, 2, 2)])[2][0]
    for rep in range(4):
        assert reset[rep, norm.compliant[rep]] == pytest.approx(0.07)


def test_prob_reset_total_deviation():
    norm = make_norm(N=5, h=1, epsilon=0.0)
    reset = model_arrays(norm, [(0, 0, 2, 2)])[2][0]
    assert reset[2, 4] == pytest.approx(1.0)


def test_prob_reset_mixture_example():
    norm = make_norm(N=5, h=1, epsilon=0.1)
    reset = model_arrays(norm, [(2, 0, 0, 2)])[2][0]
    # matching on the two rep-0 clients, deviating on the two rep-3 clients
    assert reset[2, 4] == pytest.approx(0.5)


def test_prob_reset_error_symmetry():
    # a report is flipped with probability epsilon whatever it says, so the
    # reset probability is affine in epsilon: eps + (1 - 2 eps) * reset at 0
    eta = [(2, 1, 1, 2)]
    exact = model_arrays(make_norm(N=7, h=2, epsilon=0.0), eta)[2]
    noisy = model_arrays(make_norm(N=7, h=2, epsilon=0.2), eta)[2]
    np.testing.assert_allclose(noisy, 0.2 + 0.6 * exact, rtol=0, atol=1e-15)


def test_prob_reset_bounds():
    rng = np.random.default_rng(1)
    for _ in range(50):
        N = int(rng.integers(3, 12))
        eps = float(rng.uniform(0, 0.49))
        h = int(rng.integers(1, 4))
        norm = make_norm(N=N, h=h, epsilon=eps)
        counts = rng.multinomial(N - 1, np.ones(4) / 4)
        grid = model_arrays(norm, [counts])[2]
        assert (grid >= 0).all() and (grid <= 1).all()


def test_belief_benefit_reduces_to_baseline():
    # rule-compliant beliefs coincide with the zero-error baseline for
    # positive-reputation opponents (the baseline treats reputation-0
    # opponents as defectors, so the census must not contain any)
    norm = make_norm(N=6, h=2, epsilon=0.0)
    eta = [(0, 2, 1, 2)]
    compliant = np.eye(5)[norm.compliant]
    held = model_arrays(norm, eta, belief_rows=compliant[None])
    assert np.allclose(held[0], model_arrays(norm, eta)[0])


def test_belief_benefit_uniform_rows():
    # uniform beliefs: a top-reputation client is served by 4 of 5 thresholds
    norm = make_norm(N=6, h=1, epsilon=0.0)
    uniform = np.full((1, 4, 5), 1.0 / 5.0)
    benefit = model_arrays(norm, [(0, 0, 0, 5)], belief_rows=uniform)[0]
    assert benefit[0, 3] == pytest.approx(3.0 * (4.0 / 5.0))


def test_belief_all_defector_rows_zero_benefit():
    norm = make_norm(N=6, h=1, epsilon=0.0)
    rows = np.zeros((4, 5))
    rows[:, 4] = 1.0
    benefit = model_arrays(norm, [(1, 1, 1, 2)], belief_rows=rows[None])[0]
    assert np.allclose(benefit, 0.0)


def test_beliefs_reshape_benefit_but_not_reset():
    norm = make_norm(N=6, h=2, epsilon=0.12)
    etas = np.array([[2, 1, 1, 1], [0, 0, 2, 3]])
    beliefs = np.full((2, 4, 5), 1.0 / 5.0)
    base = model_arrays(norm, etas)
    held = model_arrays(norm, etas, belief_rows=beliefs)
    assert not np.allclose(held[0], base[0])
    assert np.array_equal(held[1], base[1])
    assert np.array_equal(held[2], base[2])
    assert np.array_equal(held[3], base[3])
    # a census's row does not depend on the rest of the batch
    assert base[2][0, 1, 3] == model_arrays(norm, etas[:1])[2][0, 1, 3]


def test_mismatched_census_rejected():
    norm = make_norm(N=5)
    bad = [
        [(1, 1, 1)],  # wrong length
        [(5, 1, 1, 1)],  # wrong sum
        [(-1, 1, 1, 3)],  # sums to N-1 with a negative entry
        [(1, 1, 1, 1), (2, 1, 1, 1)],  # one bad row in a batch
        [(1, 1, 1, 1), (2, -1, 1, 2)],
    ]
    for etas in bad:
        with pytest.raises(ValueError):
            model_arrays(norm, etas)
    # a negative count would otherwise give reset "probabilities" below 0
    norm = make_norm(N=11, epsilon=0.1)
    for etas in ([(-1, 0, 0, 11)], [(1, 1, 1, 7), (-1, 0, 0, 11)]):
        with pytest.raises(ValueError):
            model_arrays(norm, etas)
        with pytest.raises(ValueError):
            solve_policy_batch(norm, np.array(etas, dtype=float), 0.6)


def test_cost_profile_counts_served_clients():
    norm = make_norm(N=5, h=1)
    # threshold a serves opponents with rep >= a
    cost = model_arrays(norm, [(1, 1, 1, 1)])[1][0]
    assert np.allclose(cost, [1.0, 0.75, 0.5, 0.25, 0.0])
