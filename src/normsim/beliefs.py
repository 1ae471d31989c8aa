"""Belief matrices over opponents' service thresholds.

A belief matrix O has one row per opponent reputation (L+1 rows) and one
column per candidate service threshold (L+2 columns, thresholds 0..L+1).
O[rep, l] is the believed probability that an opponent of that reputation
plays service threshold l.  Rows are probability distributions.
"""

from __future__ import annotations

import numpy as np


def updated_row(rows: np.ndarray, own_rep, observed_z, t) -> np.ndarray:
    """Running-average update of belief rows after their t-th observation.

    ``rows`` is one row (L+2,) or a batch (K, L+2); ``own_rep``,
    ``observed_z`` and ``t`` are scalars or length-K arrays, one per row.
    Being served spreads weight z/(own_rep+1) over thresholds 0..own_rep
    (the server's threshold is at most the client's reputation); being
    refused spreads weight (1-z)/(L+1-own_rep) over thresholds above it.
    The increments total exactly 1, so each row stays stochastic.
    """
    rows = np.asarray(rows, dtype=float)
    own, z, t = (np.asarray(a)[..., None] for a in (own_rep, observed_z, t))
    L = rows.shape[-1] - 2
    if t.min() < 1:
        raise ValueError(f"transaction index must be >= 1, got {t.min()}")
    if ((z != 0) & (z != 1)).any():
        raise ValueError(f"observed contribution must be 0 or 1, got {z.ravel()}")
    if own.min() < 0 or own.max() > L:
        raise ValueError(f"own reputation {own.ravel()} outside {{0, ..., {L}}}")
    inc = np.where(
        np.arange(L + 2) <= own, z / (own + 1.0), (1.0 - z) / (L + 1.0 - own)
    )
    return (rows * (t - 1.0) + inc) / t
