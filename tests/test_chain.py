import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import normsim
from normsim import (
    CommunityParams,
    SocialNorm,
    StationaryDist,
    TransitionMatrix,
    build_transition_matrix,
    classify_absorbing,
    enumerate_configs,
    limiting_distribution,
    model_arrays,
    opponent_of,
    stationary_distribution,
    stationary_linear,
)
from normsim.bestresponse import best_response, solve_policy_batch
from normsim.chain import _census_rank, _closed_classes, _rank_offsets
from normsim.norms import ConfigError
from oracles import exact_kernel, exact_stationary, sample_trajectory


def make_norm(N=6, L=3, b=3.0, c=1.0, delta=0.6, epsilon=0.01, h=1):
    params = CommunityParams(N=N, L=L, b=b, c=c, delta=delta, epsilon=epsilon)
    return SocialNorm(params=params, h=h)


def test_enumeration_size_and_order():
    space = enumerate_configs(5, 3)
    assert len(space) == 56
    assert len(enumerate_configs(1, 1)) == 2
    assert len(enumerate_configs(3, 2)) == 10
    counts = [tuple(c) for c in space.counts.tolist()]
    assert counts == sorted(counts)  # lexicographic
    assert all(sum(c) == 5 for c in counts)
    assert space.index_of((5, 0, 0, 0)) == len(space) - 1  # all at 0 comes last
    assert space.index_of((0, 0, 0, 5)) == 0  # all at the top comes first
    assert space.index_of((1, 1, 1, 2)) == counts.index((1, 1, 1, 2))


def test_enumeration_matches_product_reference():
    for N in range(1, 9):
        for L in range(1, 5):
            space = enumerate_configs(N, L)
            want = sorted(c for c in itertools.product(range(N + 1), repeat=L + 1)
                          if sum(c) == N)
            assert space.counts.dtype == np.int64 and not space.counts.flags.writeable
            assert [tuple(c) for c in space.counts.tolist()] == want, (N, L)
            assert [space.index_of(c) for c in space.counts] == list(range(len(space)))
            assert space.index_of([N] + [0] * L) == len(space) - 1
            assert space.index_of([0] * L + [N]) == 0
            assert space == enumerate_configs(N, L)
            assert hash(space) == hash(enumerate_configs(N, L))


@pytest.mark.parametrize(
    "census",
    [(1, 1, 1), (1, 1, 1, 1, 1), (6, -1, 0, 0), (1, 1, 1, 1), (5, 0, 0, 1),
     (0.5, 5, 0, 0), (0, 5.7, 0, 0), (math.nan, 5, 0, 0)],
    ids=["short", "long", "negative", "sum-low", "sum-high",
         "fraction", "fraction-truncating-to-a-census", "nan"],
)
def test_index_of_rejects_non_census(census):
    with pytest.raises(ValueError, match="not a census"):
        enumerate_configs(5, 3).index_of(census)


def test_enumeration_cap(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(normsim.chain, "DEFAULT_SPACE_CAP", 1000)
        for N in (200, 20):  # 20 is under the default cap, not this one
            with pytest.raises(ValueError):
                enumerate_configs(N, 3)
    # the default cap keeps two dense kernels (a kernel and its GTH copy) in memory
    assert len(enumerate_configs(40, 3)) == 12341
    with pytest.raises(ConfigError, match="above the cap"):
        enumerate_configs(45, 3)


def test_transition_policies_at_extremes():
    norm = make_norm(N=6)
    # nobody worth serving: every occupied reputation defects outright
    assert best_response(norm, (5, 0, 0, 0)).policy[0] == 4
    # full cooperation is self-enforcing under feasible parameters: the
    # best response at the top serves top-reputation clients
    assert best_response(norm, (0, 0, 0, 5)).policy[3] <= 3


def _kernel_by_convolution(norm, space, eps):
    """Reference: each row as a dict convolution of the per-bucket binomial
    reset counts, one reputation at a time, under the rung's norm (``norm``
    at error rate ``eps``).  Every pair's threshold is solved here in one
    batch, and its reset and stay probabilities are read from the model at
    that threshold, not from the solver."""
    norm = SocialNorm(params=replace(norm.params, epsilon=eps), h=norm.h)
    L = norm.params.L
    counts = space.counts.astype(float)
    cfg, rep = np.nonzero(counts)
    pair = np.arange(cfg.size)
    etas = counts[cfg]
    etas[pair, rep] -= 1.0
    policies = solve_policy_batch(norm, etas, norm.params.delta)[0]
    _, _, reset, stay = model_arrays(norm, etas)
    resets, stays = np.zeros((len(space), L + 1)), np.zeros((len(space), L + 1))
    resets[cfg, rep] = reset[pair, rep, policies[pair, rep]]
    stays[cfg, rep] = stay[pair, rep, policies[pair, rep]]
    # columns from a dict over the rows, independent of _census_rank
    index = {tuple(c): i for i, c in enumerate(space.counts.tolist())}
    P = np.zeros((len(space), len(space)))
    zero = (0,) * (L + 1)
    for i, mu in enumerate(space.counts.tolist()):
        dist = {zero: 1.0}
        for rep in range(L + 1):
            n = mu[rep]
            if n == 0:
                continue
            q, s = float(resets[i, rep]), float(stays[i, rep])
            dest = min(L, rep + 1)
            pmf = [math.comb(n, k) * q**k * s ** (n - k) for k in range(n + 1)]
            nxt: dict[tuple[int, ...], float] = {}
            for counts, prob in dist.items():
                base = list(counts)
                for k, pk in enumerate(pmf):
                    if pk == 0.0:
                        continue
                    step = base.copy()
                    step[0] += k
                    step[dest] += n - k
                    key = tuple(step)
                    nxt[key] = nxt.get(key, 0.0) + prob * pk
            dist = nxt
        for counts, prob in dist.items():
            P[i, index[counts]] = prob
    return P


@settings(max_examples=60, deadline=None)
@given(
    N=st.integers(min_value=2, max_value=7),
    L=st.integers(min_value=1, max_value=4),
    h=st.integers(min_value=1, max_value=4),
    delta=st.floats(min_value=0.0, max_value=0.95),
    b=st.floats(min_value=1.05, max_value=10.0),
    eps=st.one_of(
        st.just(0.0),
        st.floats(min_value=-6.0, max_value=math.log10(0.2)).map(lambda x: 10.0**x),
    ),
)
@example(N=6, L=3, h=1, delta=0.6, b=3.0, eps=0.0)
@example(N=2, L=40, h=1, delta=0.6, b=3.0, eps=1e-2)  # column lookup on a large L
# 50 388 (census, reset-count vector) pairs: two build chunks
@example(N=12, L=3, h=1, delta=0.6, b=3.0, eps=1e-2)
@example(N=12, L=3, h=1, delta=0.6, b=3.0, eps=0.0)
def test_kernel_matches_dict_convolution(N, L, h, delta, b, eps):
    assume(h <= L)
    norm = make_norm(N=N, L=L, b=b, delta=delta, h=h)
    space = enumerate_configs(N, L)
    P = build_transition_matrix(norm, space, epsilon=eps)
    assert np.array_equal(P.entries, _kernel_by_convolution(norm, space, eps))


def test_zero_error_model_and_kernel_are_exact():
    # At eps = 0 an action that no opponent or every opponent would report as
    # a mismatch resets its user with probability exactly 0 or 1, and climbs
    # with exactly 1 or 0.  The zero-error kernel then holds no rounding
    # residue: a transition that cannot happen is exactly 0, and one that can
    # has probability at least (1/(N-1))**N, about 3.6e-6 here.
    norm = make_norm(N=7, delta=0.3, b=2.0, h=1, epsilon=0.0)
    space = enumerate_configs(7, 3)
    cfg, rep = np.nonzero(space.counts)
    pair = np.arange(cfg.size)
    etas = opponent_of(space.counts[cfg], rep)
    policies, _, played = solve_policy_batch(norm, etas, norm.params.delta)[:3]
    action, played = policies[pair, rep], played[pair, rep]
    bad = np.einsum("kc,kc->k", norm.mismatch[rep, action], etas)
    edge = (bad == 0) | (bad == 6)
    assert edge.sum() > 100
    assert np.array_equal(played[edge, 0], (bad[edge] == 6).astype(float))
    assert np.array_equal(played[edge, 1], (bad[edge] == 0).astype(float))
    P0 = build_transition_matrix(norm, space, epsilon=0.0).entries
    assert not ((P0 > 0) & (P0 <= 1e-15)).any()


def _gamma(k):
    """Relative error bound of k roundings in float64: k u / (1 - k u), with
    the unit roundoff u = 2**-53 (Higham's gamma_k)."""
    u = 2.0**-53
    return k * u / (1 - k * u)


@settings(max_examples=40, deadline=None)
@given(
    N=st.integers(min_value=2, max_value=4),
    h=st.integers(min_value=1, max_value=3),
    delta=st.floats(min_value=0.0, max_value=0.95),
    b=st.floats(min_value=1.05, max_value=10.0),
    log_eps=st.floats(min_value=-12.0, max_value=math.log10(0.2)),
)
@example(N=4, h=1, delta=0.6, b=3.0, log_eps=-12.0)
def test_kernel_and_stationary_keep_relative_accuracy(N, h, delta, b, log_eps):
    # Every nonzero kernel entry and every stationary weight against the same
    # model in exact rationals, with the float solver's thresholds, to a
    # componentwise relative bound counted from the operations.  Every
    # operation acts on nonnegative numbers, so, to first order, relative
    # errors add and each rounding adds at most u.
    # - Kernel: reset and stay, eps + (1 - 2 eps) * (bad / (N - 1)), take 4
    #   roundings each.  A bucket's pmf entry comb(n, k) q**k s**(n - k)
    #   carries 4 from each of its n factors, 2 from each power (within one
    #   ulp) and 1 from each of two products: 4n + 6.  A pair multiplies L + 1
    #   buckets (L roundings), and an entry sums at most T pairs, T the
    #   largest prod(n_r + 1) (T - 1 roundings).  So kP = 4N + 7L + 5 + T.
    # - Stationary weights: by the Markov chain tree theorem, relative
    #   changes of at most a in every off-diagonal entry move each weight by
    #   at most 2(n - 1) a (O'Cinneide 1993, "Entrywise perturbation theory
    #   and error analysis for Markov chains"), which carries the kernel's
    #   error through.  For GTH's own rounding, O'Cinneide's argument bounds
    #   the weights' error by a multiple of n^3 u: eliminating state k
    #   perturbs each entry of the chain censored on the k states below it by
    #   at most k + 2 roundings, which moves that chain's weights by
    #   2(k - 1)(k + 2) u, back-substitution adds k + 1, and normalising twice
    #   adds 2n.  That count is below n^3 at these sizes; the blocked solve
    #   sums in another order, allowed for by a second n^3.
    eps = 10.0**log_eps
    norm = make_norm(N=N, b=b, delta=delta, epsilon=eps, h=h)
    space = enumerate_configs(N, 3)
    n = len(space)
    P = build_transition_matrix(norm, space)
    exact = exact_kernel(norm, space, eps)
    kP = 4 * N + 7 * 3 + 5 + int(np.prod(space.counts + 1, axis=1).max())
    for i in range(n):
        for j in range(n):
            assert (P.entries[i, j] > 0) == (exact[i][j] > 0), (i, j)
            if exact[i][j]:
                err = float(abs(Fraction(P.entries[i, j]) - exact[i][j]) / exact[i][j])
                assert err <= _gamma(kP), (i, j, err)
    counted = sum(2 * (k - 1) * (k + 2) + k + 1 for k in range(1, n)) + 2 * n
    assert counted <= n**3
    bound = 2 * (n - 1) * _gamma(kP) + _gamma(2 * n**3)
    w = stationary_distribution(P).weights
    for j, want in enumerate(exact_stationary(exact)):
        err = float(abs(Fraction(w[j]) - want) / want)
        assert err <= bound, (j, err)


def test_census_rank_matches_enumeration():
    for N in range(1, 13):
        for L in range(1, 6):
            space = enumerate_configs(N, L)
            counts = space.counts.T
            rank = _census_rank(_rank_offsets(N, L), counts)
            assert np.array_equal(rank, np.arange(len(space))), (N, L)


@pytest.mark.parametrize("eps", [-1e-3, 0.5, 0.7, math.nan])
def test_kernel_rejects_error_rate_outside_range(eps):
    norm = make_norm(N=4)
    with pytest.raises(ConfigError, match="epsilon"):
        build_transition_matrix(norm, enumerate_configs(4, 3), epsilon=eps)


def test_chain_refuses_adaptation_with_inertia():
    # at gamma < 1 a user keeps its last threshold between adaptations, so
    # the census alone is not a Markov chain
    params = CommunityParams(N=4, L=3, b=3.0, c=1.0, delta=0.6, epsilon=0.01, gamma=0.1)
    norm = SocialNorm(params=params, h=1)
    space = enumerate_configs(4, 3)
    with pytest.raises(ConfigError, match="gamma"):
        build_transition_matrix(norm, space)
    with pytest.raises(ConfigError, match="gamma"):
        limiting_distribution(norm, space)
    with pytest.raises(ConfigError, match="gamma"):
        classify_absorbing(norm, space)


def test_transition_matrix_rejects_non_finite_entries():
    with pytest.raises(ValueError, match="rows must sum to 1"):
        TransitionMatrix(epsilon=0.1, entries=np.full((2, 2), np.nan))
    with pytest.raises(ValueError, match="rows must sum to 1"):
        TransitionMatrix(epsilon=0.1, entries=[[1.0, 0.0], [np.nan, 1.0]])
    # inf - inf is NaN, which numpy announces as it sums the row
    with pytest.warns(RuntimeWarning), pytest.raises(ValueError, match="rows must sum to 1"):
        TransitionMatrix(epsilon=0.1, entries=[[np.inf, -np.inf], [0.5, 0.5]])


def test_transition_rows_are_stochastic():
    norm = make_norm(N=4, epsilon=0.05)
    space = enumerate_configs(4, 3)
    P = build_transition_matrix(norm, space)
    assert np.abs(P.entries.sum(axis=1) - 1.0).max() < 1e-12
    assert P.entries.min() >= 0.0


def test_zero_error_kernel_fixes_extreme_censuses():
    norm = make_norm(N=5)
    space = enumerate_configs(5, 3)
    P0 = build_transition_matrix(norm, space, epsilon=0.0)
    mu0, muN = space.index_of((5, 0, 0, 0)), space.index_of((0, 0, 0, 5))
    assert P0.entries[mu0, mu0] == pytest.approx(1.0)
    assert P0.entries[muN, muN] == pytest.approx(1.0)


def test_space_norm_mismatch_rejected():
    norm = make_norm(N=6)
    with pytest.raises(ValueError):
        build_transition_matrix(norm, enumerate_configs(5, 3))


def test_stationary_matches_linear_solve():
    norm = make_norm(N=4, epsilon=0.02)
    space = enumerate_configs(4, 3)
    P = build_transition_matrix(norm, space)
    w_pow = stationary_distribution(P)
    w_lin = stationary_linear(P)
    assert np.abs(w_pow.weights - w_lin.weights).max() < 1e-10
    assert np.abs(w_pow.weights @ P.entries - w_pow.weights).max() < 1e-10


def test_stationary_survives_tiny_error_rates():
    # near-reducible regime where plain power iteration stalls
    norm = make_norm(N=4, epsilon=1e-5)
    space = enumerate_configs(4, 3)
    P = build_transition_matrix(norm, space)
    w = stationary_distribution(P)
    assert np.abs(w.weights - stationary_linear(P).weights).max() < 1e-10


def _stationary_by_squaring(P: np.ndarray) -> np.ndarray:
    """Reference: rows of P^(2^k) agree once the chain has mixed."""
    M = P.copy()
    for _ in range(100):
        if (M.max(axis=0) - M.min(axis=0)).max() < 1e-13:
            return M.mean(axis=0) / M.mean(axis=0).sum()
        M = M @ M
        M /= M.sum(axis=1, keepdims=True)
    raise AssertionError("kernel powers did not mix in 100 squarings")


# stationary_linear is no reference over this range: its diagonal P[k, k] - 1
# cancels as eps shrinks, and on random draws it misses the answer by more
# than 1e-10, or returns negative weights, in about one case in six (and by
# up to 2e-10 even at eps >= 1e-2).  Repeated squaring stays within 1e-13.
@settings(max_examples=40, deadline=None)
@given(
    N=st.integers(min_value=2, max_value=6),
    delta=st.floats(min_value=0.0, max_value=0.95),
    b=st.floats(min_value=1.05, max_value=10.0),
    h=st.integers(min_value=1, max_value=3),
    log_eps=st.floats(min_value=-6.0, max_value=math.log10(0.2)),
)
@example(N=4, delta=0.6, b=3.0, h=1, log_eps=math.log10(0.02))
@example(N=4, delta=0.6, b=3.0, h=1, log_eps=-5.0)  # near-reducible
def test_stationary_distribution_properties(N, delta, b, h, log_eps):
    norm = make_norm(N=N, b=b, delta=delta, epsilon=10.0**log_eps, h=h)
    space = enumerate_configs(N, 3)
    P = build_transition_matrix(norm, space)
    assert np.abs(P.entries.sum(axis=1) - 1.0).max() < 1e-12
    reached = np.unique(np.nonzero(P.entries)[1])
    assert (space.counts[reached].sum(axis=1) == N).all()
    w = stationary_distribution(P).weights
    assert np.abs(w - _stationary_by_squaring(P.entries)).max() < 1e-10
    assert np.abs(w @ P.entries - w).max() < 1e-10


def _stationary_unblocked(P: TransitionMatrix) -> np.ndarray:
    """Reference: GTH state reduction with one full rank-1 update per state."""
    A = P.entries.copy()
    n = A.shape[0]
    for k in range(n - 1, 0, -1):
        s = A[k, :k].sum()
        if not s > 0:
            raise RuntimeError(
                f"state {k} reaches no lower state; the kernel is not irreducible"
            )
        A[:k, k] /= s
        A[:k, :k] += np.outer(A[:k, k], A[k, :k])
    x = np.zeros(n)
    x[0] = 1.0
    for k in range(1, n):
        x[k] = x[:k] @ A[:k, k]
        if x[k] > 1e200:  # weights spanning more than the float range
            x[:k + 1] /= x[k]
    return x / x.sum()


# (L, N) with at most 165 censuses, so that the 32-state panels, their
# trailing products and a short last panel above the never-eliminated state 0
# are all exercised.
_SHAPES = st.one_of(
    st.tuples(st.just(1), st.integers(min_value=2, max_value=64)),
    st.tuples(st.just(2), st.integers(min_value=2, max_value=16)),
    st.tuples(st.just(3), st.integers(min_value=2, max_value=8)),
)


@settings(max_examples=60, deadline=None)
@given(
    shape=_SHAPES,
    delta=st.floats(min_value=0.0, max_value=0.95),
    b=st.floats(min_value=1.05, max_value=10.0),
    h=st.integers(min_value=1, max_value=3),
    log_eps=st.floats(min_value=-6.0, max_value=math.log10(0.2)),
)
@example(shape=(1, 31), delta=0.6, b=3.0, h=1, log_eps=-3.0)  # 32 states: 31 above state 0
@example(shape=(1, 32), delta=0.6, b=3.0, h=1, log_eps=-3.0)  # 33 states: one full panel
@example(shape=(1, 64), delta=0.6, b=3.0, h=1, log_eps=-6.0)  # 65 states: two full panels
@example(shape=(1, 58), delta=0.0, b=2.0, h=1, log_eps=-6.0)  # weights span > 1e308
def test_blocked_stationary_matches_unblocked(shape, delta, b, h, log_eps):
    L, N = shape
    norm = make_norm(N=N, L=L, b=b, delta=delta, epsilon=10.0**log_eps, h=min(h, L))
    P = build_transition_matrix(norm, enumerate_configs(N, L))
    ref = _stationary_unblocked(P)
    w = stationary_distribution(P).weights
    kept = ref >= 1e-300  # subnormal weights carry no relative accuracy
    assert (np.abs(w[kept] - ref[kept]) / ref[kept]).max() <= 1e-12
    assert np.abs(w @ P.entries - w).max() <= 1e-10


def test_stationary_rejects_zero_error_kernel():
    norm = make_norm(N=4)
    space = enumerate_configs(4, 3)
    P0 = build_transition_matrix(norm, space, epsilon=0.0)
    with pytest.raises((ValueError, RuntimeError)):
        stationary_distribution(P0)


def test_stationary_rejects_reducible_kernel():
    # two closed blocks: no state of one reaches the other, whatever epsilon
    block = np.full((2, 2), 0.5)
    zero = np.zeros((2, 2))
    P = TransitionMatrix(epsilon=0.1, entries=np.block([[block, zero], [zero, block]]))
    with pytest.raises(RuntimeError, match="not irreducible"):
        stationary_distribution(P)


def test_stationary_rejects_reducible_kernel_past_first_panel():
    # the zero pivot is at state 40, in the second panel, after a trailing product
    block = np.full((40, 40), 1.0 / 40)
    zero = np.zeros((40, 40))
    P = TransitionMatrix(epsilon=0.1, entries=np.block([[block, zero], [zero, block]]))
    with pytest.raises(RuntimeError, match="state 40 .* not irreducible"):
        stationary_distribution(P)


def test_stationary_weights_must_be_finite():
    with pytest.raises(ValueError, match="finite"):
        StationaryDist(weights=[np.nan, np.nan])
    with pytest.raises(ValueError, match="finite"):
        StationaryDist(weights=[0.5, np.nan, 0.5])


def test_trajectory_occupancy_tracks_stationary():
    norm = make_norm(N=3, L=2, epsilon=0.05)
    space = enumerate_configs(3, 2)
    P = build_transition_matrix(norm, space)
    w = stationary_distribution(P)
    counts = sample_trajectory(P, 40_000, seed=3, start=space.index_of((3, 0, 0)))
    emp = counts / counts.sum()
    assert 0.5 * np.abs(emp - w.weights).sum() < 0.02


def test_limiting_support_feasible_parameters():
    norm = make_norm(N=6, delta=0.6, b=3.0, c=1.0, h=1)
    space = enumerate_configs(6, 3)
    res = limiting_distribution(norm, space, eps_ladder=(1e-2, 1e-3, 1e-4))
    muN = space.index_of((0, 0, 0, 6))
    assert res.support == (muN,)
    assert res.table[res.eps_ladder[-1]].weights[muN] > 0.99


def test_limiting_support_infeasible_parameters():
    # impatient users: full cooperation cannot retain mass
    norm = make_norm(N=6, delta=0.3, b=3.0, c=1.0, h=1)
    space = enumerate_configs(6, 3)
    res = limiting_distribution(norm, space, eps_ladder=(1e-2, 1e-3, 1e-4))
    assert space.index_of((0, 0, 0, 6)) not in res.support
    assert space.index_of((6, 0, 0, 0)) in res.support


def test_limiting_rejects_bad_ladder():
    norm = make_norm(N=4)
    space = enumerate_configs(4, 3)
    with pytest.raises(ValueError):
        limiting_distribution(norm, space, eps_ladder=(1e-3, 1e-2))
    with pytest.raises(ValueError):
        limiting_distribution(norm, space, eps_ladder=())


def test_absorbing_classification_with_degenerate_top():
    # besides the two extreme censuses, a lone top-reputation holdout is
    # absorbing: with no other good user, its defection is never punished
    norm = make_norm(N=11, delta=0.6, b=3.0, c=1.0, h=1)
    space = enumerate_configs(11, 3)
    cls = classify_absorbing(norm, space)
    got = {tuple(space.counts[i].tolist()) for i in cls.absorbing_indices}
    assert got == {(11, 0, 0, 0), (10, 0, 0, 1), (0, 0, 0, 11)}
    for i in cls.absorbing_indices:
        assert (i,) in cls.classes


def _closed_classes_by_reachability(P0: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Reference: close the adjacency under composition; the class of s is
    closed iff every state reachable from s reaches back to s."""
    reach = (P0 > 1e-15) | np.eye(len(P0), dtype=bool)
    while True:
        wider = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
        if np.array_equal(wider, reach):
            break
        reach = wider
    classes = {
        tuple(np.flatnonzero(reach[s] & reach[:, s]).tolist())
        for s in range(len(P0))
        if not (reach[s] & ~reach[:, s]).any()
    }
    return tuple(sorted(classes))


@settings(max_examples=40, deadline=None)
@given(
    N=st.integers(min_value=2, max_value=6),
    L=st.integers(min_value=2, max_value=3),
    h=st.integers(min_value=1, max_value=3),
    delta=st.floats(min_value=0.0, max_value=0.95),
    b=st.floats(min_value=1.05, max_value=10.0),
)
@example(N=6, L=3, h=1, delta=0.6, b=3.0)
@example(N=6, L=3, h=1, delta=0.3, b=3.0)
@example(N=2, L=3, h=3, delta=1.6630813618826782e-156, b=2.0)  # delta**h underflows
@example(N=3, L=2, h=1, delta=5e-324, b=1.4)  # so does delta * (b - c)
def test_closed_classes_match_reachability(N, L, h, delta, b):
    assume(h <= L)
    norm = make_norm(N=N, L=L, b=b, delta=delta, h=h)
    space = enumerate_configs(N, L)
    P0 = build_transition_matrix(norm, space, epsilon=0.0).entries
    assert classify_absorbing(norm, space).classes == _closed_classes_by_reachability(P0)


_SCIPY_PROBE = """
import json, sys
from normsim import (CommunityParams, ExperimentSpec, SocialNorm,
                     classify_absorbing, enumerate_configs, run_experiment)
run_experiment(ExperimentSpec.from_dict({
    "mode": "evolution", "N": 30, "L": 3, "b": 3.0, "c": 1.0, "delta": 0.6,
    "epsilon": 0.05, "gamma": 0.5, "h": 1, "periods": 20, "seed": 0}))
sim_loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
params = CommunityParams(N=6, L=3, b=3.0, c=1.0, delta=0.6, epsilon=0.01)
classes = classify_absorbing(SocialNorm(params=params, h=1), enumerate_configs(6, 3)).classes
print(json.dumps({"sim_loaded": sim_loaded, "chain_loaded": "scipy" in sys.modules,
                  "classes": classes}))
"""


def test_scipy_loads_only_for_the_closed_class_search():
    # a fresh interpreter: importing normsim and running the engine loads no
    # scipy module; the closed-class search loads it and finds the classes the
    # reachability reference does
    src = str(Path(normsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["sim_loaded"] == []
    assert doc["chain_loaded"]
    P0 = build_transition_matrix(make_norm(N=6), enumerate_configs(6, 3), epsilon=0.0)
    want = _closed_classes_by_reachability(P0.entries)
    assert tuple(tuple(c) for c in doc["classes"]) == want


def test_closed_classes_keep_multi_state_classes_in_state_order():
    # 60 states: two closed cycles over the states = 0 and = 1 mod 3, and one
    # leaky cycle over the states = 2 mod 3 that exits into both.  Twenty
    # members per class, interleaved, so grouping them needs a stable sort.
    n = 60
    a, b, t = np.arange(0, n, 3), np.arange(1, n, 3), np.arange(2, n, 3)
    adj = np.zeros((n, n), dtype=bool)
    for cycle in (a[::-1], b, t):
        adj[cycle, np.roll(cycle, -1)] = True
    adj[t, t - 2] = True
    adj[t, t - 1] = True
    classes = _closed_classes(adj)
    assert classes == (tuple(a.tolist()), tuple(b.tolist()))


def _check_absorbing_against_kernel(N, L, h, b, delta):
    """classify_absorbing returns, without raising, the censuses that the
    zero-error kernel keeps in place."""
    norm = make_norm(N=N, L=L, b=b, delta=delta, h=h)
    space = enumerate_configs(N, L)
    P0 = build_transition_matrix(norm, space, epsilon=0.0).entries
    kept = tuple(np.flatnonzero(np.diag(P0) >= 1.0 - 1e-12).tolist())
    assert classify_absorbing(norm, space).absorbing_indices == kept


def test_zero_error_self_loops_are_the_singleton_closed_classes():
    # classify_absorbing takes the absorbing censuses from the singleton
    # closed classes of the zero-error graph.  They are the censuses whose
    # zero-error self-transition is exactly 1.0: a census whose played reset
    # lies strictly between 0 and 1 in some bucket spreads its mass over at
    # least two censuses, each entry at least (1/(N-1))^N, so it has neither
    # a singleton class nor a unit diagonal.
    for N, delta, b, h in itertools.product(
        range(2, 11), (0.3, 0.6, 0.9), (2.0, 3.0, 5.0), (1, 2, 3)
    ):
        space = enumerate_configs(N, 3)
        P0 = build_transition_matrix(make_norm(N=N, b=b, delta=delta, h=h), space, epsilon=0.0)
        unit = tuple(np.flatnonzero(np.diag(P0.entries) == 1.0).tolist())
        singletons = tuple(c[0] for c in _closed_classes(P0.entries > 0) if len(c) == 1)
        assert unit == singletons, (N, delta, b, h)


# Each cell puts some 0/L census at exact indifference: its top group between
# complying and defecting, or its bottom group between defecting and climbing.
@pytest.mark.parametrize(
    "N, L, h, b, delta",
    [(2, 1, 1, 2.5, 0.4), (4, 3, 1, 4.0, 0.5), (3, 3, 2, 4.0, 0.4), (5, 3, 2, 2.0, 0.8)],
)
def test_absorbing_classification_at_knife_edges(N, L, h, b, delta):
    _check_absorbing_against_kernel(N, L, h, b, delta)


@settings(max_examples=60, deadline=None)
@given(
    N=st.integers(min_value=2, max_value=8),
    L=st.integers(min_value=1, max_value=3),
    h=st.integers(min_value=1, max_value=3),
    b=st.one_of(
        st.sampled_from([1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 10.0, 1 / 0.7]),
        st.floats(min_value=1.05, max_value=10.0),
    ),
    nL=st.integers(min_value=1, max_value=7),
    tie=st.sampled_from(["comply", "defect"]),
)
def test_absorbing_classification_on_incentive_ties(N, L, h, b, nL, tie):
    # delta at which nL top users (c = 1) are indifferent between complying and
    # defecting, or at which the N - nL bottom users are indifferent between
    # defecting and climbing: ties go to defection on both sides of the check
    assume(h <= L and nL < N)
    if tie == "comply":
        delta = (N - 1) / ((nL - 1) * (b - 1) + N - 1)
    else:
        delta = ((N - 1) / (nL * (b - 1) + N - 1)) ** (1 / h)
    assume(delta < 1)
    _check_absorbing_against_kernel(N, L, h, b, delta)


def test_absorbing_excludes_full_cooperation_when_impatient():
    # delta*b < c: even the all-top census unravels
    norm = make_norm(N=7, delta=0.3, b=3.0, c=1.0, h=1)
    space = enumerate_configs(7, 3)
    cls = classify_absorbing(norm, space)
    idx = set(cls.absorbing_indices)
    assert space.index_of((7, 0, 0, 0)) in idx
    assert space.index_of((0, 0, 0, 7)) not in idx


def test_absorbing_always_includes_full_defection():
    for delta in (0.2, 0.5, 0.8):
        for h in (1, 2):
            norm = make_norm(N=5, delta=delta, h=h)
            space = enumerate_configs(5, 3)
            cls = classify_absorbing(norm, space)
            assert space.index_of((5, 0, 0, 0)) in cls.absorbing_indices
