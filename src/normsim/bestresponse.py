"""Best responses for the single-user strategy-adaptation problem.

A user adapting its strategy solves a small dynamic program: its state is
its own reputation, the opponent census is held fixed, and each period its
reputation either advances by one step (capped at L) or resets to 0 with the
action-dependent punishment probability.  The social norm defines the
program, its report error rate included, and no solver takes another.
``solve_policy_batch`` solves it exactly by policy iteration, for many users
at once and over the threshold actions or any set of service sets, and stops
on one rule: the greedy policies equal the evaluated ones.  ``best_response``
is its one-user call; ``closed_form_bimodal``, the analytic solution for
censuses concentrated on reputations 0 and L, is an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .norms import ConfigError, SocialNorm
from .payoff import model_arrays, opponent_of

# Q-values closer than this are treated as exact ties when extracting the
# greedy policy; knife-edge indifference then resolves deterministically
# instead of following floating-point noise.
POLICY_TIE_ATOL = 1e-9
# solve_policy_batch raises once its policies have not settled in this many
# rounds
MAX_ROUNDS = 200
# subset_serve refuses an L with more service sets than this (L <= 15)
MAX_SUBSET_ROWS = 2**16


@dataclass(frozen=True)
class BestResponseSolution:
    """Optimal policy and value function over own reputations."""

    policy: np.ndarray  # action per reputation: its threshold, or its row in serve
    values: np.ndarray  # long-term utility per reputation
    iterations: int  # policy-iteration rounds
    q: np.ndarray  # action values [rep, action] against values


@dataclass(frozen=True)
class ClosedFormSolution:
    """Analytic best response against a two-point (0/L) opponent census."""

    policy: np.ndarray  # threshold per reputation
    values: np.ndarray  # long-term utility per reputation


def subset_serve(L: int) -> np.ndarray:
    """Serve matrix of all 2^(L+1) service sets, one float row per set;
    an L over ``MAX_SUBSET_ROWS`` raises ConfigError before it is built."""
    if L + 1 > np.log2(MAX_SUBSET_ROWS):
        raise ConfigError(f"L={L}: 2^{L + 1} service sets over the limit {MAX_SUBSET_ROWS}")
    return np.array(list(product((0.0, 1.0), repeat=L + 1)))


def best_response(
    norm: SocialNorm, eta, *, serve: np.ndarray | None = None
) -> BestResponseSolution:
    """One user's best response against a fixed opponent census ``eta``
    (L+1 counts summing to N-1) under the baseline belief: a one-row call of
    ``solve_policy_batch``.

    serve    (A, L+1) service sets to choose from; default the norm's L+2
             threshold actions, so that a policy entry is a threshold
    """
    policies, values, _, q, rounds = solve_policy_batch(
        norm, [eta], [norm.params.delta], serve=serve
    )
    return BestResponseSolution(
        policy=policies[0],
        values=values[0],
        iterations=rounds,
        q=q[0],
    )


def bimodal_opponent(norm: SocialNorm, n0: int, nL: int, own_rep: int) -> np.ndarray:
    """Float opponent census of a user of ``own_rep`` in a 0/L community."""
    p = norm.params
    if min(n0, nL) < 0 or n0 + nL != p.N:
        raise ValueError(
            f"n0 and nL must be nonnegative and sum to N={p.N}, got {n0}, {nL}"
        )
    if own_rep not in (0, p.L):
        raise ValueError(f"own reputation must be 0 or L={p.L}, got {own_rep}")
    counts = [0] * (p.L + 1)
    counts[0], counts[p.L] = n0, nL
    return opponent_of(counts, [own_rep])[0]


def closed_form_bimodal(
    norm: SocialNorm, n0: int, nL: int, own_rep: int
) -> ClosedFormSolution:
    """Analytic best response in a two-point community, error rate taken to 0.

    Good reputations either comply (threshold h) or serve no one depending on
    how many opponents sit at reputation 0; bad reputations defect up to a
    cutoff k and climb (serve everyone) above it.
    """
    p = norm.params
    L, h, b, c, dlt = p.L, norm.h, p.b, p.c, p.delta
    eta = bimodal_opponent(norm, n0, nL, own_rep)  # validates the census
    p0, pL = eta[0] / (p.N - 1), eta[L] / (p.N - 1)

    comply_cut = (dlt * b - c) / (dlt * (b - c)) if dlt > 0 else -np.inf
    if p0 < comply_cut:
        good_action = h
        v_good = pL * (b - c) / (1.0 - dlt)
    else:
        good_action = L + 1
        v_good = pL * b / (1.0 - dlt * p0)

    values = np.zeros(L + 1)
    values[h:] = v_good
    policy = np.zeros(L + 1, dtype=np.int64)
    policy[h:] = good_action
    for rep in range(h):
        climb = dlt ** (h - rep) * v_good - (1.0 - dlt ** (h - rep)) / (1.0 - dlt) * c
        if climb <= 0.0:
            policy[: rep + 1] = L + 1
        else:
            values[rep] = climb
    return ClosedFormSolution(policy=policy, values=values)


def solve_policy_batch(
    norm: SocialNorm,
    etas: np.ndarray,
    deltas: np.ndarray,
    *,
    serve: np.ndarray | None = None,
    belief_rows: np.ndarray | None = None,
    bs: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Exact best responses for a batch of users sharing one MDP shape.

    etas         (K, L+1) opponent censuses (rows sum to N-1)
    deltas       (K,) personal discount factors
    serve        optional (A, L+1) service sets the users choose from (the
                 L+2 threshold actions otherwise)
    belief_rows  optional (K, L+1, L+2) belief matrices of adaptive users
                 (the baseline belief otherwise)
    bs           optional (K,) per-user benefit values

    Returns (policies, values, played, q, rounds): ``policies[k, r]``, the
    action user k plays at reputation r (a threshold, or a row of
    ``serve``); the (K, L+1) long-term utilities; the (reset, stay) pair
    that the model gives each played action; the (K, L+1, A) action values
    against the final values; and the policy-iteration rounds.  Each round
    evaluates the policies exactly and improves them greedily: Q-values
    within ``POLICY_TIE_ATOL`` of the best tie, and ties go to the action
    serving fewest clients, then to the later row.  The one stopping rule is
    that the greedy policies equal the evaluated ones, and ties cannot make it
    cycle: an improvement never lowers the values, and a policy reached
    through exact ties has its predecessor's values, so the greedy step, a
    function of the values, maps it to itself next round.  Only a real
    Q-value gap inside the tie band could break this; the solver then raises
    RuntimeError ("did not settle") after ``MAX_ROUNDS`` rounds rather than
    return a cycling policy.
    """
    L = norm.params.L
    S = L + 1
    etas = np.asarray(etas, dtype=float)
    K = etas.shape[0]
    dlt = np.empty(K)
    dlt[:] = deltas
    dlt3 = dlt[:, None, None]
    benefit, cost, reset, stay = model_arrays(
        norm, etas, serve=serve, bs=bs, belief_rows=belief_rows
    )
    # the tie rank: fewest clients served first, then the later row
    served = (norm.serve if serve is None else np.asarray(serve)).sum(axis=1)
    rank = np.arange(served.size) - served.size * served
    reward = benefit[:, :, None] - cost[:, None, :]  # (K, own, a)
    rr = np.arange(S)
    up = norm.up
    eye = np.eye(S)
    kk = np.arange(K)[:, None]  # played entries of (K, own, a): arr[kk, rr, policies]

    policies = np.full((K, S), rank.argmax())
    for rounds in range(1, MAX_ROUNDS + 1):
        # exact evaluation of the current policies: from r the user resets to
        # 0 or climbs to up[r] >= 1, so each row of T has two distinct entries
        p0, s0 = reset[kk, rr, policies], stay[kk, rr, policies]
        trans = np.zeros((K, S, S))
        trans[:, :, 0] = p0
        trans[:, rr, up] = s0
        A = eye - dlt3 * trans
        values = np.linalg.solve(A, reward[kk, rr, policies, None])[:, :, 0]
        # greedy improvement, ties to the highest rank
        cont = reset * values[:, :1, None] + stay * values[:, up, None]
        q = reward + dlt3 * cont
        tied = q >= q.max(axis=2, keepdims=True) - POLICY_TIE_ATOL
        new_policies = np.where(tied, rank, -np.inf).argmax(axis=2)
        if (new_policies == policies).all():
            break
        policies = new_policies
    else:
        raise RuntimeError(
            f"policy iteration did not settle within {MAX_ROUNDS} rounds"
        )
    return policies, values, np.stack([p0, s0], axis=2), q, rounds
