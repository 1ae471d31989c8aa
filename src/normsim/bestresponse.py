"""Best responses for the single-user strategy-adaptation problem.

A user adapting its strategy solves a small dynamic program: its state is
its own reputation, the opponent census is held fixed, and each period its
reputation either advances by one step (capped at L) or resets to 0 with the
action-dependent punishment probability.  ``solve_policy_batch`` solves this
program exactly by policy iteration, for many users at once and over the
threshold actions or any set of service sets; ``best_response`` is its
one-user call.  ``closed_form_bimodal`` provides the analytic solution for
censuses concentrated on reputations 0 and L, which serves as an independent
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .norms import SocialNorm
from .payoff import model_arrays, opponent_of

# Q-values closer than this are treated as exact ties when extracting the
# greedy policy; knife-edge indifference then resolves deterministically
# instead of following floating-point noise.
POLICY_TIE_ATOL = 1e-9
# verify_threshold_structure's value-gap bound and tie band
STRUCTURE_TOL = 1e-8
# solve_policy_batch raises once its policies have not settled in this many
# rounds
MAX_ROUNDS = 200


@dataclass(frozen=True)
class BestResponseSolution:
    """Optimal policy and value function over own reputations."""

    policy: np.ndarray  # action per reputation: its threshold, or its row in serve
    values: np.ndarray  # long-term utility per reputation
    iterations: int  # policy-iteration rounds
    residual: float  # Bellman residual of values: max |max_a q - values|
    q: np.ndarray  # action values [rep, action] against values
    serve: np.ndarray  # serve indicator vector of each action


@dataclass(frozen=True)
class ClosedFormSolution:
    """Analytic best response against a two-point (0/L) opponent census.

    k            highest reputation at which the user defects (-1: none)
    good_action  threshold played at reputations >= h (h or L+1)
    values       long-term utility per reputation
    """

    k: int
    good_action: int
    values: np.ndarray


def subset_serve(L: int) -> np.ndarray:
    """Serve matrix of all 2^(L+1) service sets, one float row per set."""
    return np.array(list(product((0.0, 1.0), repeat=L + 1)))


def best_response(
    norm: SocialNorm,
    eta,
    *,
    serve: np.ndarray | None = None,
    epsilon: float | None = None,
) -> BestResponseSolution:
    """One user's best response against a fixed opponent census ``eta``
    (L+1 counts summing to N-1) under the baseline belief: a one-row call of
    ``solve_policy_batch``.

    serve    (A, L+1) service sets to choose from; default the norm's L+2
             threshold actions, so that a policy entry is a threshold
    epsilon  replaces the norm's error rate
    """
    policies, values, _, q, rounds = solve_policy_batch(
        norm, [eta], [norm.params.delta], serve=serve, epsilon=epsilon
    )
    return BestResponseSolution(
        policy=policies[0],
        values=values[0],
        iterations=rounds,
        residual=float(np.abs(q[0].max(axis=1) - values[0]).max()),
        q=q[0],
        serve=norm.serve if serve is None else np.asarray(serve, dtype=float),
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
    p0 = eta[0] / (p.N - 1)
    pL = 1.0 - p0

    comply_cut = (dlt * b - c) / (dlt * (b - c)) if dlt > 0 else -np.inf
    if p0 < comply_cut:
        good_action = h
        v_good = pL * (b - c) / (1.0 - dlt)
    else:
        good_action = L + 1
        v_good = pL * b / (1.0 - dlt * p0)

    values = np.zeros(L + 1)
    values[h:] = v_good
    k = -1
    for rep in range(h):
        climb = dlt ** (h - rep) * v_good - (1.0 - dlt ** (h - rep)) / (1.0 - dlt) * c
        if climb <= 0.0:
            k = max(k, rep)
        else:
            values[rep] = climb
    return ClosedFormSolution(k=k, good_action=good_action, values=values)


def closed_form_policy(norm: SocialNorm, sol: ClosedFormSolution) -> np.ndarray:
    """Expand a closed-form solution into a per-reputation threshold vector."""
    p = norm.params
    policy = np.zeros(p.L + 1, dtype=np.int64)
    policy[: sol.k + 1] = p.L + 1
    policy[norm.h :] = sol.good_action
    return policy


def verify_threshold_structure(norm: SocialNorm, eta) -> tuple[bool, dict | None]:
    """Check that unrestricted service sets buy nothing over thresholds.

    Solves the adaptation problem over all 2^(L+1) service subsets and over
    threshold actions, then verifies that (a) the optimal values agree within
    ``STRUCTURE_TOL`` and (b) at every reputation some optimal subset is
    upward-closed in client reputation.  Returns (ok, counterexample).
    """
    sub = best_response(norm, eta, serve=subset_serve(norm.params.L))
    thr = best_response(norm, eta)
    gap = np.abs(sub.values - thr.values)
    if gap.max() >= STRUCTURE_TOL:
        rep = int(gap.argmax())
        return False, {
            "reason": "value gap between subset and threshold actions",
            "reputation": rep,
            "subset_value": float(sub.values[rep]),
            "threshold_value": float(thr.values[rep]),
        }
    q = sub.q
    serve = sub.serve
    for rep in range(norm.params.L + 1):
        tied = np.flatnonzero(q[rep] >= q[rep].max() - STRUCTURE_TOL)
        if not any(np.all(np.diff(serve[a]) >= 0) for a in tied):
            return False, {
                "reason": "no optimal action is upward-closed",
                "reputation": rep,
                "optimal_sets": [tuple(serve[a].astype(int).tolist()) for a in tied],
            }
    return True, None


def solve_policy_batch(
    norm: SocialNorm,
    etas: np.ndarray,
    deltas: np.ndarray,
    *,
    serve: np.ndarray | None = None,
    belief_rows: np.ndarray | None = None,
    bs: np.ndarray | None = None,
    epsilon: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Exact best responses for a batch of users sharing one MDP shape.

    etas         (K, L+1) opponent censuses (rows sum to N-1)
    deltas       (K,) personal discount factors
    serve        optional (A, L+1) service sets the users choose from (the
                 L+2 threshold actions otherwise)
    belief_rows  optional (K, L+1, L+2) belief matrices of adaptive users
                 (the baseline belief otherwise)
    bs           optional (K,) per-user benefit values

    Returns (policies, values, resets, q, rounds).  ``policies[k, r]`` is
    the action user k plays at reputation r: a threshold, or a row of
    ``serve``.  ``values`` (K, L+1) are the users' long-term utilities, and
    ``resets[k, r]`` is the probability that playing ``policies[k, r]`` at
    reputation r resets user k, read from the same model the solver used.
    ``q`` (K, L+1, A) holds the action values against the final values, and
    ``rounds`` counts the policy-iteration rounds.  Each round evaluates the
    policies exactly and improves them greedily.  Q-values within
    ``POLICY_TIE_ATOL`` of the best tie, and ties go to the action serving
    fewest clients (the larger threshold; among service sets of one size,
    the later row of ``serve``).  Raises RuntimeError if the policies have
    not settled within ``MAX_ROUNDS`` rounds.
    """
    L = norm.params.L
    S = L + 1
    etas = np.asarray(etas, dtype=float)
    K = etas.shape[0]
    dlt = np.empty(K)
    dlt[:] = deltas
    dlt3 = dlt[:, None, None]
    order = None
    if serve is not None:
        # ties go to the last action, so the actions serving fewest go last;
        # threshold actions are in this order already
        serve = np.asarray(serve, dtype=float)
        order = np.argsort(-serve.sum(axis=1), kind="stable")
        serve = serve[order]
    benefit, cost, reset = model_arrays(
        norm, etas, serve=serve, epsilon=epsilon, bs=bs, belief_rows=belief_rows
    )
    last = cost.shape[1] - 1
    reward = benefit[:, :, None] - cost[:, None, :]  # (K, own, a)
    rr = np.arange(S)
    up = norm.up
    eye = np.eye(S)
    kk = np.arange(K)[:, None]  # played entries of (K, own, a): arr[kk, rr, policies]

    policies = np.full((K, S), last, dtype=np.int64)
    prev_values = None
    for rounds in range(1, MAX_ROUNDS + 1):
        # exact evaluation of the current policies: from r the user resets to
        # 0 or climbs to up[r] >= 1, so each row of T has two distinct entries
        p0 = reset[kk, rr, policies]
        trans = np.zeros((K, S, S))
        trans[:, :, 0] = p0
        trans[:, rr, up] = 1.0 - p0
        A = eye - dlt3 * trans
        values = np.linalg.solve(A, reward[kk, rr, policies, None])[:, :, 0]
        # greedy improvement, ties to the last action
        cont = reset * values[:, :1, None] + (1.0 - reset) * values[:, up, None]
        q = reward + dlt3 * cont
        tied = q >= q.max(axis=2, keepdims=True) - POLICY_TIE_ATOL
        new_policies = last - tied[:, :, ::-1].argmax(axis=2)
        if (new_policies == policies).all():
            break
        # guard against two-cycles between exactly tied policies
        if prev_values is not None and np.abs(values - prev_values).max() < 1e-13:
            policies = new_policies
            p0 = reset[kk, rr, policies]
            break
        prev_values = values
        policies = new_policies
    else:
        raise RuntimeError(
            f"policy iteration did not settle within {MAX_ROUNDS} rounds"
        )
    if order is not None:
        policies = order[policies]
        q = q[:, :, np.argsort(order)]
    return policies, values, p0, q, rounds
