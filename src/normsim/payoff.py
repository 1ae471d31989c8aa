"""Expected one-period utilities and reputation-transition probabilities.

All quantities here are one user's expectations against a fixed census of
opponents, under the norm's report error rate epsilon, which has no other
source.  Under the baseline belief model, an opponent of positive
reputation complies with the social rule with probability 1 - epsilon and
serves no one otherwise, while an opponent of reputation 0 serves no one
with probability 1 - epsilon and complies otherwise.

A census is its counts: L+1 integers, the number of users at each
reputation 0..L.  ``opponent_of`` removes the users themselves from their
censuses, and ``model_arrays`` builds the expected benefit, cost, reset
and stay probabilities for a batch of users, each against its own opponent
census; it is the one place that checks an opponent census (shape, sign and
sum) and that decides how likely a played action resets its user or lets it
climb, and every solver takes its model from there.  It builds no tables of
the rule: the prescribed contributions, the threshold actions' service and
their mismatch tensor are read from the ``SocialNorm``.
"""

from __future__ import annotations

import numpy as np

from .norms import SocialNorm


def opponent_of(census, own_reps) -> np.ndarray:
    """Float (K, L+1) opponent censuses of K users: each user's census, one
    (L+1,) census shared by all or a (K, L+1) row each, less the user itself
    (a user is never self-matched).  Raises ValueError when a reputation
    ``own_reps[k]`` lies outside the census or its census has nobody there."""
    own_reps = np.asarray(own_reps)
    etas = np.empty((own_reps.size, np.shape(census)[-1]))
    etas[:] = census
    if not 0 <= own_reps.min() <= own_reps.max() < etas.shape[1]:
        raise ValueError(f"reputations {own_reps} outside the census")
    rows = np.arange(own_reps.size)
    held = etas[rows, own_reps]
    if np.count_nonzero(held < 1):
        raise ValueError(f"a census has nobody at its user's reputation in {own_reps}")
    etas[rows, own_reps] = held - 1.0
    return etas


def model_arrays(
    norm: SocialNorm,
    etas,
    *,
    serve: np.ndarray | None = None,
    bs=None,
    belief_rows: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Expected benefit, cost, reset and stay probabilities for a batch of users.

    etas         (K, L+1) opponent censuses, nonnegative, each summing to N-1
    serve        (A, L+1) serve indicators of the candidate actions; default
                 the L+2 threshold actions 0..L+1
    bs           per-user benefit values, (K,) or a scalar; default the norm's b
    belief_rows  (K, L+1, L+2) belief matrices over opponents' thresholds;
                 default the baseline belief

    Returns benefit (K, L+1) indexed by own reputation, cost (K, A) indexed
    by action, and reset and stay (K, L+1, A) indexed by own reputation and
    action.  Each comes from its own exact count of opponents, not as one
    minus the other, so both keep full relative accuracy at tiny epsilon and
    are exactly 0 or 1 at epsilon = 0 where no or every opponent mismatches.
    Raises ValueError for a census of another shape, a negative entry or a
    row that does not sum to N-1.
    """
    p = norm.params
    L = p.L
    eps = p.epsilon
    etas = np.asarray(etas, dtype=float)
    if etas.ndim != 2 or etas.shape[1] != L + 1:
        raise ValueError(
            f"opponent censuses must have shape (K, {L + 1}), got {etas.shape}"
        )
    if etas.min(initial=0.0) < 0 or np.count_nonzero(etas.sum(axis=1) != p.N - 1):
        raise ValueError(
            f"every opponent census must be nonnegative and sum to N-1={p.N - 1}"
        )
    frac = etas / (p.N - 1)
    if serve is None:
        serve, mism = norm.serve, norm.mismatch
    else:
        serve = np.asarray(serve, dtype=float)
        mism = norm.mismatch_of(serve)
    b = np.empty(etas.shape[0])
    b[:] = p.b if bs is None else bs

    if belief_rows is None:
        comply = np.full(L + 1, 1.0 - eps)
        comply[0] = eps  # reputation-0 opponents rarely comply
        benefit = (frac @ (comply[:, None] * norm.phi)) * b[:, None]
    else:
        # serve_prob[k, r, theta] = P(server of rep r serves a client of rep
        # theta) under user k's beliefs
        serve_prob = np.asarray(belief_rows, dtype=float) @ norm.serve
        benefit = np.einsum("kr,krs->ks", etas, serve_prob) * b[:, None] / (p.N - 1)
    cost = (p.c / (p.N - 1)) * (etas @ serve.T)
    # A matched client's report punishes the server whenever the realized
    # contribution disagrees with the social rule and the report is correct,
    # or agrees and the report is flipped (see ``SocialNorm.mismatch_of``).
    bad = np.einsum("tac,kc->kta", mism, etas)  # mismatching opponents, exact
    reset = eps + (1.0 - 2.0 * eps) * (bad / (p.N - 1))
    stay = eps + (1.0 - 2.0 * eps) * ((p.N - 1 - bad) / (p.N - 1))
    return benefit, cost, reset, stay
