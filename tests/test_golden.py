"""Golden outputs: exact results of the engines and the CLI at fixed inputs.

The recorded data in ``golden.json`` pins what a refactor must not change:
the Monte Carlo summaries and sampled time series of every simulation mode
at two seeds, the JSON printed by ``normsim chain`` and
``normsim bestresponse``, and ``bridge_occupancy``'s per-census visit
counts.  Integers (censuses, periods, policies, counts) must match exactly;
floats must match within 1e-12.

Re-record only for a change that is meant to alter outputs, and say why in
CHANGES.md.  Name the sections it alters (``simulate``, ``chain``,
``bestresponse``, ``bridge``): only those are recorded and spliced into the committed
file, whose other sections keep their bytes.

    PYTHONPATH=src python tests/test_golden.py [section ...]

With no names every section is recorded, and the ``chain`` section's
stationary weights can then differ in their last bits from one host to
another, within FLOAT_TOL.
"""

import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from normsim.chain import enumerate_configs
from normsim.cli import main
from normsim.norms import norm_from_dict
from normsim.sim import ExperimentSpec, bridge_occupancy, run_experiment

GOLDEN = Path(__file__).with_name("golden.json")
FLOAT_TOL = 1e-12
SEEDS = (0, 7)

BASE_SPEC = {
    "N": 30,
    "L": 3,
    "b": 3.0,
    "c": 1.0,
    "delta": 0.6,
    "epsilon": 0.05,
    "gamma": 0.5,
    "h": 1,
    "periods": 300,
    "sample_stride": 10,
}
MODE_EXTRAS = {
    "evolution": {},
    "delta-sweep": {"delta_grid": [0.3, 0.6, 0.9]},
    "mixed": {"groups": [{"size": 15, "delta": 0.3}, {"size": 15, "delta": 0.85}]},
    "varying-b": {"b_mean": 3.0, "b_var": 0.5},
    "adaptive-belief": {},
}
NORMS = {
    "h1": {"N": 6, "L": 3, "b": 3, "c": 1, "delta": 0.6, "epsilon": 0.01, "h": 1},
    "h2": {"N": 6, "L": 3, "b": 5, "c": 1, "delta": 0.8, "epsilon": 0.02, "h": 2},
}
BESTRESPONSE_ETAS = ("2,1,0,2", "0,0,0,5", "4,0,1,0")
BRIDGE_RUN = {"periods": 20_000, "seed": 7, "stride": 5}


def _spec_doc(mode: str, seed: int) -> dict:
    doc = dict(BASE_SPEC, mode=mode, seed=seed, **MODE_EXTRAS[mode])
    if mode == "mixed":
        del doc["delta"]
    return doc


def _read_timeseries(path: Path) -> list[list]:
    lines = path.read_text().strip().splitlines()
    rows = []
    for line in lines[1:]:
        *ints, welfare, services = line.split(",")
        rows.append([int(x) for x in ints] + [float(welfare), int(services)])
    return rows


def _simulate(mode: str, seed: int) -> dict:
    spec = ExperimentSpec.from_dict(_spec_doc(mode, seed))
    with tempfile.TemporaryDirectory() as tmp:
        summary = run_experiment(spec, out_dir=tmp)
        series = {
            p.name: _read_timeseries(p) for p in sorted(Path(tmp).glob("timeseries*.csv"))
        }
    return {"summary": summary, "timeseries": series}


def _cli_json(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return json.loads(out.getvalue())


def _chain(name: str, tmp: Path) -> dict:
    path = tmp / f"{name}.json"
    path.write_text(json.dumps(NORMS[name]))
    return _cli_json(["chain", "--config", str(path), "--N", "6"])


def _bestresponse(name: str, eta: str, action_space: str, tmp: Path) -> dict:
    path = tmp / f"{name}.json"
    path.write_text(json.dumps(NORMS[name]))
    return _cli_json(
        ["bestresponse", "--config", str(path), "--eta", eta,
         "--action-space", action_space]
    )


def _bridge(name: str) -> list[int]:
    norm = norm_from_dict(NORMS[name])
    space = enumerate_configs(norm.params.N, norm.L)
    return bridge_occupancy(
        norm, space, BRIDGE_RUN["periods"], seed=BRIDGE_RUN["seed"],
        stride=BRIDGE_RUN["stride"],
    ).tolist()


def _sim_keys():
    return [f"{mode}/{seed}" for mode in MODE_EXTRAS for seed in SEEDS]


def _bestresponse_keys():
    return [
        f"{name}/{eta}/{space}"
        for name in NORMS
        for eta in BESTRESPONSE_ETAS
        for space in ("threshold", "subset")
    ]


SECTIONS = {
    "simulate": lambda tmp: {
        key: _simulate(key.split("/")[0], int(key.split("/")[1])) for key in _sim_keys()
    },
    "chain": lambda tmp: {name: _chain(name, tmp) for name in NORMS},
    "bestresponse": lambda tmp: {
        key: _bestresponse(*key.split("/"), tmp) for key in _bestresponse_keys()
    },
    "bridge": lambda tmp: {name: _bridge(name) for name in NORMS},
}


def record(sections) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {name: SECTIONS[name](Path(tmp)) for name in sections}


def assert_matches(got, want, where="$"):
    """Exact match for everything except floats, which agree within FLOAT_TOL."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), where
        assert math.isclose(got, want, rel_tol=0.0, abs_tol=FLOAT_TOL), (
            f"{where}: {got!r} != {want!r}"
        )
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("key", _sim_keys())
def test_simulate_matches_golden(golden, key):
    mode, seed = key.split("/")
    assert_matches(_simulate(mode, int(seed)), golden["simulate"][key], key)


@pytest.mark.parametrize("name", sorted(NORMS))
def test_chain_cli_matches_golden(golden, name, tmp_path):
    assert_matches(_chain(name, tmp_path), golden["chain"][name], name)


@pytest.mark.parametrize("key", _bestresponse_keys())
def test_bestresponse_cli_matches_golden(golden, key, tmp_path):
    name, eta, space = key.split("/")
    assert_matches(_bestresponse(name, eta, space, tmp_path), golden["bestresponse"][key], key)


@pytest.mark.parametrize("name", sorted(NORMS))
def test_bridge_occupancy_matches_golden(golden, name):
    assert_matches(_bridge(name), golden["bridge"][name], name)


if __name__ == "__main__":
    names = sys.argv[1:]
    unknown = sorted(set(names) - set(SECTIONS))
    if unknown:
        sys.exit(f"unknown sections {unknown}; choose from {list(SECTIONS)}")
    doc = json.loads(GOLDEN.read_text()) if names else {}
    doc.update(record(names or SECTIONS))
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {', '.join(names or SECTIONS)} to {GOLDEN}")
