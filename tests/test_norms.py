import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from normsim import (
    CommunityParams,
    ConfigError,
    SocialNorm,
    load_norm,
    norm_from_dict,
)
from normsim.norms import MAX_TABLE_ENTRIES
from oracles import reputation_update, social_rule, strategy_serves


def make_norm(N=11, L=3, b=3.0, c=1.0, delta=0.6, epsilon=0.0, h=1):
    params = CommunityParams(N=N, L=L, b=b, c=c, delta=delta, epsilon=epsilon)
    return SocialNorm(params=params, h=h)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(N=1),
        dict(L=0),
        dict(b=1.0, c=1.0),
        dict(c=0.0),
        dict(delta=1.0),
        dict(delta=-0.1),
        dict(epsilon=0.5),
        dict(epsilon=-0.01),
        dict(gamma=0.0),
        dict(gamma=1.5),
    ],
)
def test_invalid_params_rejected(kwargs):
    base = dict(N=10, L=3, b=3.0, c=1.0, delta=0.5, epsilon=0.1, gamma=1.0)
    base.update(kwargs)
    with pytest.raises(ConfigError):
        CommunityParams(**base)


@pytest.mark.parametrize("h", [0, 4, -1])
def test_degenerate_social_threshold_rejected(h):
    params = CommunityParams(N=10, L=3, b=3.0, c=1.0, delta=0.5)
    with pytest.raises(ConfigError):
        SocialNorm(params=params, h=h)


def test_social_rule_table():
    norm = make_norm(h=2)
    # bad servers must serve everyone
    for client in range(4):
        assert social_rule(norm, 0, client) == 1
        assert social_rule(norm, 1, client) == 1
    # good servers serve exactly the good clients
    for server in (2, 3):
        assert social_rule(norm, server, 0) == 0
        assert social_rule(norm, server, 1) == 0
        assert social_rule(norm, server, 2) == 1
        assert social_rule(norm, server, 3) == 1


def test_social_rule_rejects_out_of_range():
    norm = make_norm()
    with pytest.raises(ValueError):
        social_rule(norm, 4, 0)
    with pytest.raises(ValueError):
        social_rule(norm, 0, -1)


def test_reputation_update_promotes_and_caps():
    norm = make_norm(h=1)
    # matching report promotes by one step
    assert reputation_update(norm, 0, 2, 1) == 1
    assert reputation_update(norm, 2, 2, 1) == 3
    # cap at L
    assert reputation_update(norm, 3, 3, 1) == 3


def test_reputation_update_resets_on_mismatch():
    norm = make_norm(h=1)
    # rule says serve (client is good), report says no service
    assert reputation_update(norm, 3, 3, 0) == 0
    # rule says withhold (client is bad), report says service happened
    assert reputation_update(norm, 3, 0, 1) == 0
    with pytest.raises(ValueError):
        reputation_update(norm, 1, 1, 2)


def test_strategy_serves_threshold_semantics():
    L = 3
    assert strategy_serves(0, 0, L) == 1
    assert strategy_serves(2, 1, L) == 0
    assert strategy_serves(2, 2, L) == 1
    # serve-no-one threshold
    assert strategy_serves(L + 1, L, L) == 0
    with pytest.raises(ValueError):
        strategy_serves(L + 2, 0, L)
    with pytest.raises(ValueError):
        strategy_serves(-1, 0, L)
    with pytest.raises(ValueError):
        strategy_serves(0, L + 1, L)


def _plain_tables(L, h):
    """The rule written out entry by entry, independently of SocialNorm."""
    reps, actions = range(L + 1), range(L + 2)
    compliant = [0 if r < h else h for r in reps]
    up = [min(r + 1, L) for r in reps]
    serve = [[1.0 if c >= a else 0.0 for c in reps] for a in actions]
    phi = [[1.0 if s < h or c >= h else 0.0 for c in reps] for s in reps]
    mismatch = [[[float(serve[a][c] != phi[s][c]) for c in reps] for a in actions]
                for s in reps]
    return dict(compliant=compliant, up=up, serve=serve, phi=phi, mismatch=mismatch)


def test_norm_tables_match_plain_definition():
    for L in range(1, 7):
        for h in range(1, L + 1):
            norm = make_norm(L=L, h=h)
            for name, want in _plain_tables(L, h).items():
                table = getattr(norm, name)
                assert table.tolist() == want, (L, h, name)
                assert table.dtype == (np.int64 if name in ("compliant", "up") else float)
                assert not table.flags.writeable, (L, h, name)
                with pytest.raises(ValueError):
                    table[(0,) * table.ndim] = 1
            for server in range(L + 1):
                for client in range(L + 1):
                    z = social_rule(norm, server, client)
                    assert z == norm.phi[server, client]
                    assert reputation_update(norm, server, client, z) == min(server + 1, L)
                    assert reputation_update(norm, server, client, 1 - z) == 0


def test_norm_equality_and_replace_ignore_then_rebuild_tables():
    a, b = make_norm(L=4, h=2), make_norm(L=4, h=2)
    assert a == b and hash(a) == hash(b)
    assert a != make_norm(L=4, h=3)
    c = replace(a, h=3)
    assert c == make_norm(L=4, h=3)
    assert c.compliant.tolist() == [0, 0, 0, 3, 3]
    assert c.phi.tolist() == _plain_tables(4, 3)["phi"]
    assert a.compliant.tolist() == [0, 0, 2, 2, 2]  # the original is untouched
    assert "phi" not in repr(a)
    with pytest.raises(ValueError):
        replace(a, phi=np.zeros((5, 5)))  # tables are not constructor fields


def test_norm_from_dict_roundtrip():
    doc = {"N": 8, "L": 3, "b": 3, "c": 1, "delta": 0.5, "epsilon": 0.05, "h": 2}
    norm = norm_from_dict(doc)
    assert norm.params.N == 8
    assert norm.h == 2
    assert norm.params.gamma == 1.0  # default


def test_norm_from_dict_rejects_unknown_and_missing():
    with pytest.raises(ConfigError):
        norm_from_dict({"N": 8, "L": 3, "b": 3, "c": 1, "delta": 0.5, "h": 1, "x": 0})
    with pytest.raises(ConfigError):
        norm_from_dict({"N": 8, "L": 3, "b": 3, "c": 1})


@pytest.mark.parametrize(
    "key, value",
    [("N", 10**401), ("h", -(10**401)), ("h", True), ("gamma", True), ("b", False)],
    ids=["N-huge", "h-huge", "h-bool", "gamma-bool", "b-bool"],
)
def test_norm_from_dict_rejects_huge_and_boolean_numbers(key, value):
    # an integer too large for a float and a JSON boolean are not numbers
    doc = {"N": 8, "L": 3, "b": 3, "c": 1, "delta": 0.5, "h": 1, key: value}
    with pytest.raises(ConfigError, match=f"{key} must be a finite"):
        norm_from_dict(doc)


@pytest.mark.parametrize("key, value", [("N", "20"), ("delta", "0.5"), ("h", "1")])
def test_norm_from_dict_rejects_quoted_numbers(key, value):
    # a JSON string is not a number, whatever it spells
    doc = {"N": 8, "L": 3, "b": 3, "c": 1, "delta": 0.5, "h": 1, key: value}
    with pytest.raises(ConfigError, match=f"{key} must be a finite"):
        norm_from_dict(doc)


def test_norm_refuses_an_L_over_the_table_budget_before_building():
    L = 1  # up to the smallest L whose (L+1, L+2, L+1) table is over the budget
    while (L + 1) ** 2 * (L + 2) <= MAX_TABLE_ENTRIES:
        L += 1
    params = CommunityParams(N=10, L=L, b=3.0, c=1.0, delta=0.5)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=f"limit {MAX_TABLE_ENTRIES}"):
            SocialNorm(params=params, h=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # the table alone would take 8 bytes an entry


def test_load_norm(tmp_path):
    path = tmp_path / "norm.json"
    path.write_text(json.dumps({"N": 6, "L": 3, "b": 3, "c": 1, "delta": 0.6, "h": 1}))
    norm = load_norm(path)
    assert norm.params.N == 6
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_norm(bad)
