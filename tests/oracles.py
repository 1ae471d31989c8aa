"""References the program is checked against.

``value_iteration`` solves one user's adaptation problem by plain value
iteration, independently of the policy iteration in
``normsim.bestresponse.solve_policy_batch``; it shares only the model
(``payoff.model_arrays``) and the tie rule.  ``strategy_serves``,
``social_rule`` and ``reputation_update`` write the protocol out one entry
at a time, against ``SocialNorm``'s tables and the engine's reputation
step.  ``verify_threshold_structure`` solves over every service set as well
as over thresholds, against the threshold action space the program uses.
``sample_trajectory`` walks a chain kernel state by state, against its
stationary distribution.  ``exact_kernel`` and ``exact_stationary`` build a
census kernel and its stationary distribution in exact rational arithmetic,
against the float kernel and its GTH solve.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np

from normsim.bestresponse import (
    POLICY_TIE_ATOL,
    best_response,
    solve_policy_batch,
    subset_serve,
)
from normsim.chain import ConfigSpace, TransitionMatrix
from normsim.norms import SocialNorm
from normsim.payoff import model_arrays, opponent_of

TOLERANCE = 1e-10
MAX_SWEEPS = 10**6
# verify_threshold_structure's value-gap bound and tie band
STRUCTURE_TOL = 1e-8


def value_iteration(
    norm, eta, *, serve=None, b=None, delta=None, belief_rows=None
):
    """Best response against the opponent census ``eta`` by value iteration.

    Takes ``best_response``'s arguments and returns (policy, values, q,
    sweeps, residual).  Stops when the sweep-to-sweep sup-norm change drops
    below TOLERANCE * (1 - delta) / delta, which bounds the optimality gap of
    the returned values by TOLERANCE.  Q-values within ``POLICY_TIE_ATOL`` of
    the best tie, and ties go to the action serving fewer clients; among
    actions serving equally many, to the later row of ``serve``.
    """
    dlt = norm.params.delta if delta is None else delta
    serve_all = norm.serve if serve is None else np.asarray(serve, dtype=float)
    # stable order: more services first, so the last tied entry serves fewest
    prefer = np.argsort(-serve_all.sum(axis=1), kind="stable")
    benefit, cost, reset, stay = model_arrays(
        norm,
        [eta],
        serve=serve,
        bs=b,
        belief_rows=None if belief_rows is None else np.asarray(belief_rows)[None],
    )
    reward = benefit[0][:, None] - cost[0][None, :]
    reset, stay = reset[0], stay[0]
    up = norm.up
    stop = TOLERANCE * (1.0 - dlt) / dlt if dlt > 0 else 0.0

    values = np.zeros(norm.params.L + 1)
    for sweeps in range(1, MAX_SWEEPS + 1):
        cont = reset * values[0] + stay * values[up][:, None]
        q = reward + dlt * cont
        new_values = q.max(axis=1)
        residual = float(np.abs(new_values - values).max())
        values = new_values
        if residual <= stop:
            break
    else:
        raise RuntimeError(f"value iteration did not converge in {MAX_SWEEPS} sweeps")

    qp = q[:, prefer]
    tied = qp >= qp.max(axis=1, keepdims=True) - POLICY_TIE_ATOL
    policy = prefer[qp.shape[1] - 1 - np.argmax(tied[:, ::-1], axis=1)]
    return policy, values, q, sweeps, residual


def verify_threshold_structure(norm: SocialNorm, eta) -> tuple[bool, dict | None]:
    """Check that unrestricted service sets buy nothing over thresholds.

    Solves the adaptation problem over all 2^(L+1) service subsets and over
    threshold actions, then verifies that (a) the optimal values agree within
    ``STRUCTURE_TOL`` and (b) at every reputation some optimal subset is
    upward-closed in client reputation.  Returns (ok, counterexample).
    """
    serve = subset_serve(norm.params.L)
    sub = best_response(norm, eta, serve=serve)
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
    for rep in range(norm.params.L + 1):
        tied = np.flatnonzero(q[rep] >= q[rep].max() - STRUCTURE_TOL)
        if not any(np.all(np.diff(serve[a]) >= 0) for a in tied):
            return False, {
                "reason": "no optimal action is upward-closed",
                "reputation": rep,
                "optimal_sets": [tuple(serve[a].astype(int).tolist()) for a in tied],
            }
    return True, None


def strategy_serves(threshold: int, client_rep: int, L: int) -> int:
    """Contribution level (0 or 1) of the service ``threshold`` toward a
    client of ``client_rep``: threshold 0 serves everyone, L + 1 no one."""
    if not 0 <= client_rep <= L:
        raise ValueError(f"client reputation {client_rep} outside {{0, ..., {L}}}")
    if not 0 <= threshold <= L + 1:
        raise ValueError(f"threshold {threshold} outside {{0, ..., {L + 1}}}")
    return 1 if client_rep >= threshold else 0


def social_rule(norm: SocialNorm, server_rep: int, client_rep: int) -> int:
    """Contribution level the social rule prescribes for (server, client).

    Bad servers (below h) must serve everyone; good servers must serve
    exactly the good clients.
    """
    for rep in (server_rep, client_rep):
        if not 0 <= rep <= norm.params.L:
            raise ValueError(f"reputation {rep} outside {{0, ..., {norm.params.L}}}")
    return int(norm.phi[server_rep, client_rep])


def reputation_update(
    norm: SocialNorm, server_rep: int, client_rep: int, reported_z: int
) -> int:
    """Next reputation of the server given the (possibly flipped) report.

    A report matching the prescribed contribution promotes the server by one
    step (capped at L); any mismatch, in either direction, resets it to 0.
    """
    if reported_z not in (0, 1):
        raise ValueError(f"reported contribution must be 0 or 1, got {reported_z}")
    if reported_z == social_rule(norm, server_rep, client_rep):
        return int(norm.up[server_rep])
    return 0


def sample_trajectory(
    P: TransitionMatrix, periods: int, *, seed: int = 0, start: int = 0
) -> np.ndarray:
    """Simulate the chain and return per-state occupation counts."""
    cum = np.cumsum(P.entries, axis=1)
    rng = np.random.default_rng(seed)
    draws = rng.random(periods)
    counts = np.zeros(P.entries.shape[0], dtype=np.int64)
    state = start
    for t in range(periods):
        state = int(np.searchsorted(cum[state], draws[t]))
        counts[state] += 1
    return counts


def exact_kernel(norm: SocialNorm, space: ConfigSpace, eps: float) -> list[list[Fraction]]:
    """The census kernel of ``norm`` at error rate ``eps`` in exact rationals.

    The played thresholds come from the float solver, as in
    ``build_transition_matrix``; everything after them is exact.  A user at
    reputation r whose played action mismatches ``bad`` of its N-1 opponents
    resets with q = eps + (1 - 2 eps) * bad / (N - 1), with ``eps`` the float
    read exactly, and climbs with 1 - q; each row is the convolution of the
    occupied buckets' binomial reset counts.
    """
    norm = SocialNorm(params=replace(norm.params, epsilon=eps), h=norm.h)
    p = norm.params
    counts = space.counts
    cfg, rep = np.nonzero(counts)
    etas = opponent_of(counts[cfg], rep)
    thresholds = solve_policy_batch(norm, etas, p.delta)[0][np.arange(cfg.size), rep]
    e = Fraction(eps)
    dists = [{(0,) * (p.L + 1): Fraction(1)} for _ in range(len(space))]
    for i, r, eta, a in zip(cfg.tolist(), rep.tolist(), etas, thresholds.tolist()):
        bad = int(round(float(norm.mismatch[r, a] @ eta)))
        q = e + (1 - 2 * e) * Fraction(bad, p.N - 1)
        n = int(counts[i, r])
        pmf = [math.comb(n, k) * q**k * (1 - q) ** (n - k) for k in range(n + 1)]
        nxt: dict[tuple[int, ...], Fraction] = {}
        for dest, prob in dists[i].items():
            for k, pk in enumerate(pmf):
                if pk:
                    step = list(dest)
                    step[0] += k
                    step[int(norm.up[r])] += n - k
                    nxt[tuple(step)] = nxt.get(tuple(step), 0) + prob * pk
        dists[i] = nxt
    P = [[Fraction(0)] * len(space) for _ in range(len(space))]
    for i, dist in enumerate(dists):
        for dest, prob in dist.items():
            P[i][space.index_of(dest)] = prob
    return P


def exact_stationary(P: list[list[Fraction]]) -> list[Fraction]:
    """Stationary distribution of an irreducible exact kernel by GTH state
    reduction (Grassmann, Taksar and Heyman 1985), one state at a time."""
    A = [row[:] for row in P]
    n = len(A)
    for k in range(n - 1, 0, -1):
        s = sum(A[k][:k])
        for i in range(k):
            if A[i][k]:
                A[i][k] /= s
                for j in range(k):
                    if A[k][j]:
                        A[i][j] += A[i][k] * A[k][j]
    x = [Fraction(1)]
    for k in range(1, n):
        x.append(sum(x[i] * A[i][k] for i in range(k)))
    total = sum(x)
    return [v / total for v in x]
