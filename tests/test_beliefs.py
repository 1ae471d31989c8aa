import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normsim import CommunityParams, SocialNorm, initial_state, updated_row


def make_norm(h=2, L=3):
    params = CommunityParams(N=10, L=L, b=3.0, c=1.0, delta=0.5)
    return SocialNorm(params=params, h=h)


def test_compliant_initialization():
    norm = make_norm(h=2)
    state = initial_state(norm, [np.random.default_rng(0)], adaptive=True)
    expected = np.zeros((4, 5))
    expected[0, 0] = expected[1, 0] = 1.0  # bad opponents serve everyone
    expected[2, 2] = expected[3, 2] = 1.0  # good opponents serve the good
    assert state.belief_rows.shape == (10, 4, 5)
    assert all(np.array_equal(rows, expected) for rows in state.belief_rows)


def test_update_served_splits_mass_over_low_thresholds():
    # first observation, prior all mass on threshold 0, served at own rep 1
    row = np.array([1.0, 0, 0, 0, 0])
    out = updated_row(row, own_rep=1, observed_z=1, t=1)
    assert np.allclose(out, [0.5, 0.5, 0, 0, 0])


def test_update_refused_puts_mass_on_single_upper_threshold():
    # refusal at the top reputation: only threshold L+1 explains it
    row = np.array([0.2, 0.2, 0.2, 0.2, 0.2])
    out = updated_row(row, own_rep=3, observed_z=0, t=1)
    assert np.allclose(out, [0, 0, 0, 0, 1.0])


def test_update_running_average_weights():
    row = np.array([1.0, 0, 0, 0, 0])
    out = updated_row(row, own_rep=0, observed_z=0, t=4)
    # prior keeps weight 3/4, increment spreads 1/4 over thresholds 1..4
    assert np.allclose(out, [0.75, 0.0625, 0.0625, 0.0625, 0.0625])


def test_update_validates_inputs():
    row = np.array([1.0, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        updated_row(row, own_rep=0, observed_z=2, t=1)
    with pytest.raises(ValueError):
        updated_row(row, own_rep=4, observed_z=1, t=1)
    with pytest.raises(ValueError):
        updated_row(row, own_rep=0, observed_z=1, t=0)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    own_rep=st.integers(min_value=0, max_value=3),
    z=st.integers(min_value=0, max_value=1),
    t=st.integers(min_value=1, max_value=10_000),
)
def test_rows_stay_stochastic_under_fuzz(data, own_rep, z, t):
    raw = np.array(
        data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0), min_size=5, max_size=5
            )
        )
    )
    if raw.sum() == 0:
        raw[0] = 1.0
    row = raw / raw.sum()
    out = updated_row(row, own_rep=own_rep, observed_z=z, t=t)
    assert abs(out.sum() - 1.0) < 1e-9
    assert (out >= -1e-12).all()


def test_batch_update_matches_one_row_calls():
    rng = np.random.default_rng(1)
    raw = rng.random((200, 5))
    rows = raw / raw.sum(axis=1, keepdims=True)
    own = rng.integers(4, size=200)
    z = rng.integers(2, size=200)
    t = rng.integers(1, 50, size=200)
    batch = updated_row(rows, own, z, t)
    for k in range(200):
        one = updated_row(rows[k], own_rep=int(own[k]), observed_z=int(z[k]), t=int(t[k]))
        assert np.array_equal(batch[k], one)
    # one bad entry anywhere in the batch is refused
    for bad in ({"own_rep": np.where(np.arange(200) == 7, 4, own)},
                {"observed_z": np.where(np.arange(200) == 7, 2, z)},
                {"t": np.where(np.arange(200) == 7, 0, t)}):
        args = {"own_rep": own, "observed_z": z, "t": t} | bad
        with pytest.raises(ValueError):
            updated_row(rows, **args)


def test_updated_row_is_pure():
    rows = np.eye(5)[make_norm(h=1).compliant]
    before = rows.copy()
    out = updated_row(rows, own_rep=[2, 0, 1, 3], observed_z=[0, 1, 1, 0], t=1)
    assert np.array_equal(rows, before)
    assert not np.array_equal(out, before)
    assert np.allclose(out.sum(axis=1), 1.0)


def test_long_observation_sequence_stays_stochastic():
    rng = np.random.default_rng(0)
    norm = make_norm(h=2)
    rows = np.eye(5)[norm.compliant]
    counts = np.zeros(4, dtype=np.int64)  # observations per server reputation
    for _ in range(1000):
        server_rep = int(rng.integers(4))
        counts[server_rep] += 1
        rows[server_rep] = updated_row(
            rows[server_rep],
            own_rep=int(rng.integers(4)),
            observed_z=int(rng.integers(2)),
            t=int(counts[server_rep]),
        )
    assert np.abs(rows.sum(axis=1) - 1.0).max() < 1e-9
