"""The protocol designer's problem: choosing a social threshold.

The feasibility verdict says that full cooperation is the unique long-run
outcome when users are patient enough relative to the cost/benefit ratio
(delta > c/b) and the social threshold stays below a critical real value H.
This condition does not depend on the population size N.  It is the
asymptotic answer and can be conservative at small N: there the exact census
chain (``chain.limiting_distribution``) may put its limiting mass on full
cooperation where the verdict says no, and the exact chain is the authority.
This module provides the feasibility test, the H solver, the absorbing-census
bounds (the analytic side of ``chain.classify_absorbing``), and the
(delta, c/b) feasibility grid.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from .norms import CommunityParams, SocialNorm

H_TOL = 1e-9  # solve_H's bisection width


@dataclass(frozen=True)
class AbsorbingBounds:
    """Census bounds between which a two-point configuration is self-sustaining.

    b_lower   cooperator count above which reputation-L users keep complying
    b_upper   cooperator count below which reputation-0 users keep defecting
    """

    b_lower: float
    b_upper: float


def absorbing_bounds(norm: SocialNorm) -> AbsorbingBounds:
    """Lower/upper cooperator-count bounds for self-sustaining 0/L censuses.

    Meaningful when delta * b > c; otherwise the all-cooperator census is not
    self-sustaining and the caller must interpret the bounds accordingly.  A
    bound whose gain, delta * (b - c) or delta**h * (b - c), is 0 (delta = 0,
    or a discount that underflows) is +inf, as for myopic users.
    """
    p = norm.params

    def bound(discount: float) -> float:
        gain = discount * (p.b - p.c)
        return (1.0 - discount) * p.c / gain * (p.N - 1) if gain > 0 else math.inf

    return AbsorbingBounds(b_lower=bound(p.delta) + 1.0, b_upper=bound(p.delta**norm.h))


def _gap(delta: float, b: float, c: float, h: float) -> float:
    """Incentive surplus of threshold h; positive iff h is strictly feasible."""
    return delta**h * b - delta ** (h - 1) * c - (1.0 - delta**h) * c * h


def feasibility_test(params: CommunityParams, h: int) -> bool:
    """Whether threshold ``h`` makes full cooperation the unique long-run outcome.

    Requires both delta > c/b and a positive incentive surplus at h.  The
    verdict is this N-free condition; at small N it can be conservative (a
    False where the exact chain still selects full cooperation), and the
    exact chain is the authority there.  The comparison is strict: a
    surplus of exactly zero is not feasible.
    """
    if not 1 <= h <= params.L:
        raise ValueError(f"h must be in [1, L={params.L}], got {h}")
    if not params.delta > params.c / params.b:
        return False
    return _gap(params.delta, params.b, params.c, h) > 0.0


def solve_H(params: CommunityParams) -> float | None:
    """Largest real threshold below which a social threshold is feasible.

    Solves for the root of the incentive surplus by bisection, using that the
    reward side decreases and the punishment side increases in h.  The
    bracket doubles from [0, 1] until the surplus stops being positive, as it
    does for every delta < 1.  Bisection stops at width ``H_TOL``, or sooner
    once no float lies between the bracket's ends (above 2**23 floats lie
    further apart than 1e-9).  Returns None when delta <= c/b (no
    threshold can work).
    """
    d, b, c = params.delta, params.b, params.c
    if not d > c / b:
        return None
    lo, hi = 0.0, 1.0
    while _gap(d, b, c, hi) > 0:
        hi *= 2.0
    while hi - lo > H_TOL:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if _gap(d, b, c, mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def feasible_region_grid(
    delta_grid, cb_grid, L: int
) -> list[tuple[float, float, float | None, int | None]]:
    """Tabulate H and the largest feasible threshold over a parameter grid.

    Returns rows (delta, c_over_b, H, max_feasible_h); H and max_feasible_h
    are None where no threshold can enforce full cooperation.
    """
    cells = [(float(d), float(cb)) for d in delta_grid for cb in cb_grid]
    if not cells:
        raise ValueError("grids must be nonempty")
    for d, cb in cells:
        if not 0 <= d < 1:
            raise ValueError(f"delta {d} outside [0, 1)")
        if not 0 < cb < 1:
            raise ValueError(f"c/b {cb} outside (0, 1)")
    rows = []
    for delta, cb in cells:
        params = CommunityParams(N=2, L=L, b=1.0, c=cb, delta=delta)
        feasible = [h for h in range(1, L + 1) if feasibility_test(params, h)]
        rows.append((delta, cb, solve_H(params), max(feasible) if feasible else None))
    return rows


def write_region_csv(rows, target) -> None:
    """Emit the feasibility grid as CSV (to a path or an open text stream)."""
    if hasattr(target, "write"):
        _write_region_rows(target, rows)
        return
    with open(target, "w", newline="") as f:
        _write_region_rows(f, rows)


def _write_region_rows(stream, rows) -> None:
    writer = csv.writer(stream)
    writer.writerow(["delta", "c_over_b", "H", "max_feasible_h"])
    for delta, cb, H, max_h in rows:
        writer.writerow(
            [
                f"{delta:.17g}",
                f"{cb:.17g}",
                "" if H is None else f"{H:.17g}",
                "" if max_h is None else str(max_h),
            ]
        )
