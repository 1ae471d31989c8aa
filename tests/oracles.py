"""Reference solvers the program's solvers are checked against.

``value_iteration`` solves one user's adaptation problem by plain value
iteration, independently of the policy iteration in
``normsim.bestresponse.solve_policy_batch``; it shares only the model
(``payoff.model_arrays``) and the tie rule.
"""

import numpy as np

from normsim.bestresponse import POLICY_TIE_ATOL
from normsim.payoff import model_arrays

TOLERANCE = 1e-10
MAX_SWEEPS = 10**6


def value_iteration(
    norm, eta, *, serve=None, b=None, delta=None, epsilon=None, belief_rows=None
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
    benefit, cost, reset = model_arrays(
        norm,
        [eta],
        serve=serve,
        epsilon=epsilon,
        bs=b,
        belief_rows=None if belief_rows is None else np.asarray(belief_rows)[None],
    )
    reward = benefit[0][:, None] - cost[0][None, :]
    reset = reset[0]
    up = norm.up
    stop = TOLERANCE * (1.0 - dlt) / dlt if dlt > 0 else 0.0

    values = np.zeros(norm.params.L + 1)
    for sweeps in range(1, MAX_SWEEPS + 1):
        cont = reset * values[0] + (1.0 - reset) * values[up][:, None]
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
