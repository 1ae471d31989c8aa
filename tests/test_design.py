import io
import math

import numpy as np
import pytest

from normsim import (
    CommunityParams,
    SocialNorm,
    absorbing_bounds,
    feasibility_test,
    feasible_region_grid,
    solve_H,
    write_region_csv,
)
from normsim.design import _gap


def make_params(N=11, L=3, b=3.0, c=1.0, delta=0.6):
    return CommunityParams(N=N, L=L, b=b, c=c, delta=delta)


def test_absorbing_bounds_hand_computed():
    norm = SocialNorm(params=make_params(), h=1)
    bounds = absorbing_bounds(norm)
    # (0.4/1.2)*10 + 1 and (0.4/1.2)*10
    assert bounds.b_lower == pytest.approx(13.0 / 3.0)
    assert bounds.b_upper == pytest.approx(10.0 / 3.0)


def test_absorbing_bounds_myopic_limit():
    norm = SocialNorm(params=make_params(delta=0.0), h=2)
    bounds = absorbing_bounds(norm)
    assert math.isinf(bounds.b_lower) and math.isinf(bounds.b_upper)


def test_absorbing_bounds_underflowing_discount():
    # delta**h underflows to 0, so the reputation-0 users never look ahead
    norm = SocialNorm(params=make_params(delta=1e-200), h=2)
    bounds = absorbing_bounds(norm)
    assert bounds.b_upper == math.inf
    assert math.isfinite(bounds.b_lower)


def test_feasibility_requires_patience():
    # delta <= c/b rules out every threshold
    params = make_params(delta=0.3, b=3.0, c=1.0)
    for h in (1, 2, 3):
        assert not feasibility_test(params, h)
    assert solve_H(params) is None


def test_solve_H_boundary_case():
    # at delta=0.5, b=3, c=1 the surplus vanishes exactly at h=1
    params = make_params(delta=0.5, b=3.0, c=1.0)
    H = solve_H(params)
    assert H == pytest.approx(1.0, abs=1e-6)
    assert not feasibility_test(params, 1)


def test_solve_H_root_brackets_sign_change():
    rng = np.random.default_rng(5)
    for _ in range(40):
        b = float(rng.uniform(1.5, 8.0))
        delta = float(rng.uniform(0.05, 0.95))
        params = make_params(b=b, c=1.0, delta=delta)
        H = solve_H(params)
        if H is None:
            assert delta <= 1.0 / b
            continue
        assert _gap(delta, b, 1.0, H - 1e-6) >= 0 >= _gap(delta, b, 1.0, H + 1e-6)


def test_solve_H_terminates_past_float_spacing_of_tol():
    # H is about 3.16e9 here, past 2**30 and where adjacent floats lie
    # further apart than tol; bisection still ends at the sign change
    delta, cb = 1.0 - 1e-13, 1e-6
    H = solve_H(make_params(b=1.0, c=cb, delta=delta))
    assert 3e9 < H < 3.3e9
    assert _gap(delta, 1.0, cb, math.nextafter(H, 0.0)) > 0
    assert _gap(delta, 1.0, cb, math.nextafter(H, math.inf)) <= 0


def test_feasibility_downward_closed():
    rng = np.random.default_rng(8)
    for _ in range(60):
        params = make_params(
            b=float(rng.uniform(1.5, 8.0)), delta=float(rng.uniform(0.05, 0.95))
        )
        for h in (2, 3):
            if feasibility_test(params, h):
                assert feasibility_test(params, h - 1)


def test_feasibility_independent_of_population_size():
    # the census-count bounds scale with N-1, so the verdict cannot depend on N
    for delta, b in ((0.6, 3.0), (0.8, 2.0), (0.55, 5.0)):
        for h in (1, 2, 3):
            verdicts = {
                feasibility_test(make_params(N=N, b=b, delta=delta), h)
                for N in (3, 11, 101)
            }
            assert len(verdicts) == 1


def test_verdict_matches_threshold_comparison():
    rng = np.random.default_rng(13)
    for _ in range(80):
        params = make_params(
            b=float(rng.uniform(1.2, 6.0)), delta=float(rng.uniform(0.05, 0.95))
        )
        H = solve_H(params)
        assert (H is None) == (not params.delta > params.c / params.b)
        for h in (1, 2, 3):
            feasible = feasibility_test(params, h)
            if H is None:
                assert not feasible
            elif abs(H - h) > 1e-6:
                # off the knife edge, feasibility is exactly h < H
                assert feasible == (h < H)


def test_region_grid_shape_and_monotonicity():
    deltas = np.linspace(0.1, 0.9, 9)
    cbs = np.linspace(0.1, 0.9, 9)
    rows = feasible_region_grid(deltas, cbs, L=3)
    assert len(rows) == 81
    table = {(round(d, 6), round(cb, 6)): (H, mh) for d, cb, H, mh in rows}
    for d, cb, H, mh in rows:
        if d <= cb:
            assert H is None and mh is None
    # H nondecreasing in delta, nonincreasing in c/b where defined
    for cb in cbs:
        prev = -math.inf
        for d in deltas:
            H, _ = table[(round(float(d), 6), round(float(cb), 6))]
            if H is not None:
                assert H >= prev - 1e-7
                prev = H


def test_region_grid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        feasible_region_grid([], [0.5], L=3)
    with pytest.raises(ValueError):
        feasible_region_grid([1.2], [0.5], L=3)
    with pytest.raises(ValueError):
        feasible_region_grid([0.5], [0.0], L=3)


def test_region_csv_roundtrip(tmp_path):
    rows = feasible_region_grid([0.5, 0.7], [0.2, 0.4], L=3)
    path = tmp_path / "region.csv"
    write_region_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].strip() == "delta,c_over_b,H,max_feasible_h"
    assert len(lines) == 5
    # stream target works too and 17-digit floats survive re-parsing
    buf = io.StringIO()
    write_region_csv(rows, buf)
    body = buf.getvalue().strip().splitlines()[1:]
    for line, (d, cb, H, mh) in zip(body, rows):
        cells = line.split(",")
        assert float(cells[0]) == d and float(cells[1]) == cb
        if H is not None:
            assert float(cells[2]) == H
