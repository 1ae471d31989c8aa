import numpy as np
import pytest

from normsim import (
    BeliefMatrix,
    CommunityParams,
    OpponentConfig,
    SocialNorm,
    ThresholdStrategy,
    benefit_profile,
    cost_profile,
    expected_one_period_utility,
    model_arrays,
    opponent_of,
    prob_reset,
)
from normsim.payoff import reset_profile


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
    eta = OpponentConfig(counts=(0, 0, 0, 4))
    u = expected_one_period_utility(norm, ThresholdStrategy(1), 3, eta)
    assert u == pytest.approx(2.0)


def test_utility_bad_client_gets_no_benefit():
    norm = make_norm(N=5, h=1, epsilon=0.0)
    eta = OpponentConfig(counts=(0, 0, 0, 4))
    u = expected_one_period_utility(norm, ThresholdStrategy(1), 0, eta)
    assert u == pytest.approx(-1.0)


def test_utility_all_defectors_zero():
    norm = make_norm(N=5, h=1, epsilon=0.0)
    eta = OpponentConfig(counts=(4, 0, 0, 0))
    u = expected_one_period_utility(norm, ThresholdStrategy(4), 2, eta)
    assert u == pytest.approx(0.0)


def test_utility_affine_in_counts():
    norm = make_norm(N=9, h=2, epsilon=0.1)
    base = OpponentConfig(counts=(2, 2, 2, 2))
    bumped = OpponentConfig(counts=(1, 2, 2, 3))
    # moving one opponent from rep 0 to rep 3 changes utility by the
    # difference of the per-opponent coefficients
    for rep in range(4):
        for a in range(5):
            u1 = expected_one_period_utility(norm, ThresholdStrategy(a), rep, base)
            u2 = expected_one_period_utility(norm, ThresholdStrategy(a), rep, bumped)
            single0 = OpponentConfig(counts=(8, 0, 0, 0))
            single3 = OpponentConfig(counts=(0, 0, 0, 8))
            c0 = expected_one_period_utility(norm, ThresholdStrategy(a), rep, single0)
            c3 = expected_one_period_utility(norm, ThresholdStrategy(a), rep, single3)
            assert u2 - u1 == pytest.approx((c3 - c0) / 8, abs=1e-12)


def test_prob_reset_compliant_action_is_epsilon():
    norm = make_norm(N=9, h=2, epsilon=0.07)
    eta = OpponentConfig(counts=(3, 1, 2, 2))
    for rep in range(4):
        compliant = ThresholdStrategy(norm.compliant_threshold(rep))
        assert prob_reset(norm, rep, eta, compliant) == pytest.approx(0.07)


def test_prob_reset_total_deviation():
    norm = make_norm(N=5, h=1, epsilon=0.0)
    eta = OpponentConfig(counts=(0, 0, 2, 2))
    assert prob_reset(norm, 2, eta, ThresholdStrategy(4)) == pytest.approx(1.0)


def test_prob_reset_mixture_example():
    norm = make_norm(N=5, h=1, epsilon=0.1)
    eta = OpponentConfig(counts=(2, 0, 0, 2))
    # matching on the two rep-0 clients, deviating on the two rep-3 clients
    assert prob_reset(norm, 2, eta, ThresholdStrategy(4)) == pytest.approx(0.5)


def test_prob_reset_error_symmetry():
    norm = make_norm(N=7, h=2, epsilon=0.2)
    eta = OpponentConfig(counts=(2, 1, 1, 2))
    low = reset_profile(norm, eta, epsilon=0.2)
    high = reset_profile(norm, eta, epsilon=0.8)
    assert np.allclose(high, 1.0 - low)


def test_prob_reset_bounds():
    rng = np.random.default_rng(1)
    for _ in range(50):
        N = int(rng.integers(3, 12))
        eps = float(rng.uniform(0, 0.49))
        h = int(rng.integers(1, 4))
        norm = make_norm(N=N, h=h, epsilon=eps)
        counts = rng.multinomial(N - 1, np.ones(4) / 4)
        eta = OpponentConfig(counts=tuple(int(x) for x in counts))
        grid = reset_profile(norm, eta)
        assert (grid >= 0).all() and (grid <= 1).all()


def test_belief_benefit_reduces_to_baseline():
    # rule-compliant beliefs coincide with the zero-error baseline for
    # positive-reputation opponents (the baseline treats reputation-0
    # opponents as defectors, so the census must not contain any)
    norm = make_norm(N=6, h=2, epsilon=0.0)
    eta = OpponentConfig(counts=(0, 2, 1, 2))
    O = BeliefMatrix.compliant(norm)
    assert np.allclose(
        benefit_profile(norm, eta, beliefs=O), benefit_profile(norm, eta)
    )


def test_belief_benefit_uniform_rows():
    # uniform beliefs: a top-reputation client is served by 4 of 5 thresholds
    norm = make_norm(N=6, h=1, epsilon=0.0)
    eta = OpponentConfig(counts=(0, 0, 0, 5))
    O = BeliefMatrix.uniform(3)
    got = benefit_profile(norm, eta, beliefs=O)
    assert got[3] == pytest.approx(3.0 * (4.0 / 5.0))


def test_belief_all_defector_rows_zero_benefit():
    norm = make_norm(N=6, h=1, epsilon=0.0)
    eta = OpponentConfig(counts=(1, 1, 1, 2))
    rows = np.zeros((4, 5))
    rows[:, 4] = 1.0
    got = benefit_profile(norm, eta, beliefs=BeliefMatrix(rows=rows))
    assert np.allclose(got, 0.0)


def test_beliefs_reshape_benefit_but_not_reset():
    norm = make_norm(N=6, h=2, epsilon=0.12)
    etas = np.array([[2, 1, 1, 1], [0, 0, 2, 3]])
    beliefs = np.stack([BeliefMatrix.uniform(3).rows] * 2)
    base = model_arrays(norm, etas)
    held = model_arrays(norm, etas, belief_rows=beliefs)
    assert not np.allclose(held[0], base[0])
    assert np.array_equal(held[1], base[1])
    assert np.array_equal(held[2], base[2])
    eta = OpponentConfig(counts=(2, 1, 1, 1))
    assert base[2][0, 1, 3] == prob_reset(norm, 1, eta, ThresholdStrategy(3))


def test_mismatched_census_rejected():
    norm = make_norm(N=5)
    with pytest.raises(ValueError):
        cost_profile(norm, OpponentConfig(counts=(1, 1, 1)))
    with pytest.raises(ValueError):
        cost_profile(norm, OpponentConfig(counts=(5, 1, 1, 1)))
    with pytest.raises(ValueError):
        model_arrays(norm, np.array([[1, 1, 1, 1], [2, 1, 1, 1]]))


def test_cost_profile_counts_served_clients():
    norm = make_norm(N=5, h=1)
    eta = OpponentConfig(counts=(1, 1, 1, 1))
    # threshold a serves opponents with rep >= a
    assert np.allclose(cost_profile(norm, eta), [1.0, 0.75, 0.5, 0.25, 0.0])
