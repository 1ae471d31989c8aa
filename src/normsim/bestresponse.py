"""Best-response solvers for the single-user strategy-adaptation problem.

A user adapting its strategy solves a small dynamic program: its state is
its own reputation, the opponent census is held fixed, and each period its
reputation either advances by one step (capped at L) or resets to 0 with the
action-dependent punishment probability.  ``solve_value_iteration`` solves
this program directly; ``closed_form_bimodal`` provides the analytic
solution for censuses concentrated on reputations 0 and L, which serves as
an independent oracle; ``solve_policy_batch`` is an exact accelerated solver
for many users at once, used by the Monte Carlo engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .beliefs import BeliefMatrix
from .norms import SocialNorm
from .payoff import model_arrays

DEFAULT_TOLERANCE = 1e-10
MAX_ITERATIONS = 10**6
# Q-values closer than this are treated as exact ties when extracting the
# greedy policy; knife-edge indifference then resolves deterministically
# instead of following floating-point noise.
POLICY_TIE_ATOL = 1e-9


@dataclass(frozen=True)
class BestResponseSolution:
    """Optimal policy and value function over own reputations."""

    policy: np.ndarray  # action per reputation: its threshold, or its row in serve
    values: np.ndarray  # long-term utility per reputation
    iterations: int
    residual: float
    q: np.ndarray  # action values [rep, action] at the final sweep
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


def _tie_break_argmax(q: np.ndarray, prefer: np.ndarray) -> np.ndarray:
    """Row-wise argmax; ties (within ``POLICY_TIE_ATOL``) go to the action
    latest in ``prefer`` order."""
    qp = q[:, prefer]
    mask = qp >= qp.max(axis=1, keepdims=True) - POLICY_TIE_ATOL
    return prefer[qp.shape[1] - 1 - np.argmax(mask[:, ::-1], axis=1)]


def _action_serve(norm: SocialNorm, action_space) -> np.ndarray | None:
    """Serve matrix of an action space, None for the norm's own.

    "threshold" is the norm's L+2 threshold actions, whose model arrays the
    norm already holds; "subset" enumerates all 2^(L+1) service sets, as float.
    """
    if action_space == "threshold":
        return None
    if action_space == "subset":
        return np.array(list(product((0.0, 1.0), repeat=norm.params.L + 1)))
    raise ValueError(f"unknown action space {action_space!r}")


def solve_value_iteration(
    norm: SocialNorm,
    eta,
    *,
    action_space="threshold",
    tolerance: float = DEFAULT_TOLERANCE,
    b: float | None = None,
    delta: float | None = None,
    epsilon: float | None = None,
    beliefs: BeliefMatrix | None = None,
) -> BestResponseSolution:
    """Solve the adaptation problem by value iteration against a fixed
    opponent census ``eta`` (L+1 counts summing to N-1).

    Stops when the sweep-to-sweep sup-norm change drops below
    tolerance * (1 - delta) / delta, which bounds the optimality gap of the
    returned values by ``tolerance``.  Ties in the greedy policy go to the
    action serving fewer clients.
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    p = norm.params
    dlt = p.delta if delta is None else delta
    custom = _action_serve(norm, action_space)
    serve = norm.serve if custom is None else custom
    # stable order: more services first, so the last tied entry serves fewest
    prefer = np.argsort(-serve.sum(axis=1), kind="stable")
    benefit, cost, reset = model_arrays(
        norm,
        [eta],
        serve=custom,
        epsilon=epsilon,
        bs=b,
        belief_rows=None if beliefs is None else beliefs.rows[None],
    )
    reward = benefit[0][:, None] - cost[0][None, :]
    reset = reset[0]
    up = norm.up
    stop = tolerance * (1.0 - dlt) / dlt if dlt > 0 else 0.0

    values = np.zeros(p.L + 1)
    residual = np.inf
    iterations = 0
    while iterations < MAX_ITERATIONS:
        cont = reset * values[0] + (1.0 - reset) * values[up][:, None]
        q = reward + dlt * cont
        new_values = q.max(axis=1)
        residual = float(np.abs(new_values - values).max())
        values = new_values
        iterations += 1
        if residual <= stop:
            break
    else:
        raise RuntimeError(
            f"value iteration failed to converge within {MAX_ITERATIONS} sweeps "
            f"(residual {residual:.3e}); this indicates a bug for delta < 1"
        )

    return BestResponseSolution(
        policy=_tie_break_argmax(q, prefer),
        values=values,
        iterations=iterations,
        residual=residual,
        q=q,
        serve=serve,
    )


def bimodal_opponent(
    norm: SocialNorm, n0: int, nL: int, own_rep: int
) -> tuple[int, ...]:
    """Opponent census seen by a user of ``own_rep`` in a 0/L two-point community."""
    p = norm.params
    if min(n0, nL) < 0 or n0 + nL != p.N:
        raise ValueError(
            f"n0 and nL must be nonnegative and sum to N={p.N}, got {n0}, {nL}"
        )
    if own_rep not in (0, p.L):
        raise ValueError(f"own reputation must be 0 or L={p.L}, got {own_rep}")
    counts = [0] * (p.L + 1)
    counts[0], counts[p.L] = n0, nL
    if counts[own_rep] < 1:
        raise ValueError(f"no user of reputation {own_rep} in ({n0}, ..., {nL})")
    counts[own_rep] -= 1
    return tuple(counts)


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


def verify_threshold_structure(
    norm: SocialNorm,
    eta,
    tolerance: float = 1e-8,
    **solver_kwargs,
) -> tuple[bool, dict | None]:
    """Check that unrestricted service sets buy nothing over thresholds.

    Solves the adaptation problem over all 2^(L+1) service subsets and over
    threshold actions, then verifies that (a) the optimal values agree within
    ``tolerance`` and (b) at every reputation some optimal subset is
    upward-closed in client reputation.  Returns (ok, counterexample).
    """
    sub = solve_value_iteration(
        norm, eta, action_space="subset", tolerance=min(tolerance, 1e-10),
        **solver_kwargs,
    )
    thr = solve_value_iteration(
        norm, eta, tolerance=min(tolerance, 1e-10), **solver_kwargs
    )
    gap = np.abs(sub.values - thr.values)
    if gap.max() >= tolerance:
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
        tied = np.flatnonzero(q[rep] >= q[rep].max() - tolerance)
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
    belief_rows: np.ndarray | None = None,
    bs: np.ndarray | None = None,
    epsilon: float | None = None,
    max_rounds: int = 200,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact best responses for a batch of users sharing the threshold MDP shape.

    etas         (K, L+1) opponent censuses (rows sum to N-1)
    deltas       (K,) personal discount factors
    belief_rows  optional (K, L+1, L+2) belief matrices of adaptive users
                 (the baseline belief otherwise)
    bs           optional (K,) per-user benefit values

    Returns (policies, values, resets), each (K, L+1): ``resets[k, r]`` is
    the probability that playing ``policies[k, r]`` at reputation r resets
    user k, read from the same model the solver used.  Uses policy iteration
    with exact evaluation; the fixed point and tie-breaking match
    ``solve_value_iteration`` on threshold actions.  Raises RuntimeError if
    the policies have not settled within ``max_rounds`` rounds.
    """
    L = norm.params.L
    S = L + 1
    etas = np.asarray(etas, dtype=float)
    K = etas.shape[0]
    dlt = np.empty(K)
    dlt[:] = deltas
    dlt3 = dlt[:, None, None]
    benefit, cost, reset = model_arrays(
        norm, etas, epsilon=epsilon, bs=bs, belief_rows=belief_rows
    )
    reward = benefit[:, :, None] - cost[:, None, :]  # (K, own, a)
    rr = np.arange(S)
    up = norm.up
    eye = np.eye(S)
    kk = np.arange(K)[:, None]  # played entries of (K, own, a): arr[kk, rr, policies]

    policies = np.full((K, S), L + 1, dtype=np.int64)
    prev_values = None
    for _ in range(max_rounds):
        # exact evaluation of the current policies: from r the user resets to
        # 0 or climbs to up[r] >= 1, so each row of T has two distinct entries
        p0 = reset[kk, rr, policies]
        trans = np.zeros((K, S, S))
        trans[:, :, 0] = p0
        trans[:, rr, up] = 1.0 - p0
        A = eye - dlt3 * trans
        values = np.linalg.solve(A, reward[kk, rr, policies, None])[:, :, 0]
        # greedy improvement, ties to the larger threshold
        cont = reset * values[:, :1, None] + (1.0 - reset) * values[:, up, None]
        q = reward + dlt3 * cont
        tied = q >= q.max(axis=2, keepdims=True) - POLICY_TIE_ATOL
        new_policies = (L + 1) - tied[:, :, ::-1].argmax(axis=2)
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
            f"policy iteration did not settle within {max_rounds} rounds"
        )
    return policies, values, p0
