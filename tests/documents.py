"""Hypothesis strategies for configuration documents of every shape.

Each key of an experiment spec (the norm's keys among them) is drawn valid
or as junk of a wrong kind: no value, booleans, text, quoted numbers, NaN
and infinities, integers near and past the float range, and nested values.
"""

import math

from hypothesis import strategies as st

from normsim.norms import MAX_TABLE_ENTRIES
from normsim.sim import MODES

_huge = st.integers(min_value=10**300, max_value=10**420)
junk = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4),
    st.integers(min_value=-5, max_value=100).map(str),
    st.floats(min_value=-1.0, max_value=10.0).map(repr),
    st.floats(allow_nan=True, allow_infinity=True), _huge, _huge.map(lambda n: -n),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


def _or_junk(valid):
    return st.one_of(valid, junk)


def _unit(high=0.99):
    return st.floats(min_value=0.0, max_value=high)


def config_documents(max_N=30, max_periods=10**6):
    """Experiment spec documents; ``max_N`` and ``max_periods`` bound the
    valid population and run length, so that a valid document runs fast.
    L is small or over the norm's table budget, so no example builds a large
    table."""
    return st.fixed_dictionaries(
        {
            "mode": _or_junk(st.sampled_from(MODES)),
            "N": _or_junk(st.integers(min_value=2, max_value=max_N)),
            "L": _or_junk(st.one_of(
                st.integers(min_value=1, max_value=4),
                st.integers(min_value=math.ceil(MAX_TABLE_ENTRIES ** (1 / 3))),
            )),
            "b": _or_junk(st.floats(min_value=1.0, max_value=10.0)),
            "c": _or_junk(st.just(1.0)),
            "delta": _or_junk(_unit()),
            "h": _or_junk(st.integers(min_value=0, max_value=5)),
            "periods": _or_junk(st.integers(min_value=0, max_value=max_periods)),
        },
        optional={
            "epsilon": _or_junk(_unit(0.5)),
            "gamma": _or_junk(_unit(1.0)),
            "sample_stride": _or_junk(st.integers(min_value=0, max_value=100)),
            "seed": _or_junk(st.integers(min_value=-1)),
            "groups": _or_junk(st.lists(st.fixed_dictionaries(
                {"size": _or_junk(st.integers(min_value=0, max_value=max_N)),
                 "delta": _or_junk(_unit(1.0))},
            ), max_size=3)),
            "b_mean": _or_junk(st.floats(min_value=0.0, max_value=10.0)),
            "b_var": _or_junk(st.floats(min_value=-1.0, max_value=4.0)),
            "delta_grid": _or_junk(st.lists(_or_junk(_unit(1.0)), max_size=3)),
            "initial_reputation": junk,
        },
    )


@st.composite
def spec_documents(draw, max_N=30, max_periods=40):
    """Valid experiment spec documents of every mode, each with up to two of
    its values replaced by junk."""
    N = draw(st.integers(min_value=2, max_value=max_N))
    L = draw(st.integers(min_value=1, max_value=3))
    mode = draw(st.sampled_from(MODES))
    doc = {
        "mode": mode, "N": N, "L": L, "b": draw(st.floats(min_value=1.5, max_value=10.0)),
        "c": 1.0, "delta": draw(_unit()), "h": draw(st.integers(min_value=1, max_value=L)),
        "epsilon": draw(_unit(0.45)), "gamma": draw(st.floats(min_value=0.05, max_value=1.0)),
        "periods": draw(st.integers(min_value=1, max_value=max_periods)),
        "sample_stride": draw(st.integers(min_value=1, max_value=20)),
        "seed": draw(st.integers(min_value=0, max_value=2**32)),
    }
    if mode in ("delta-sweep", "mixed"):
        del doc["delta"]
    if mode == "delta-sweep":
        doc["delta_grid"] = draw(st.lists(st.sampled_from([0.0, 0.3, 0.6, 0.9]),
                                          min_size=1, max_size=3, unique=True))
    elif mode == "mixed":
        first = draw(st.integers(min_value=1, max_value=N - 1))
        doc["groups"] = [{"size": first, "delta": draw(_unit())},
                         {"size": N - first, "delta": draw(_unit())}]
    elif mode == "varying-b":
        doc["b_mean"] = draw(st.floats(min_value=1.1, max_value=5.0))
        doc["b_var"] = draw(st.floats(min_value=0.0, max_value=2.0))
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=2, unique=True)):
        doc[key] = draw(junk)
    return doc
