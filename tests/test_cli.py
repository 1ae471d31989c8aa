import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from documents import config_documents, spec_documents
from normsim import bestresponse, sim
from normsim.cli import _parse_counts, _parse_grid, main
from normsim.norms import MAX_TABLE_ENTRIES, ConfigError


@pytest.fixture
def norm_file(tmp_path):
    path = tmp_path / "norm.json"
    path.write_text(
        json.dumps(
            {"N": 6, "L": 3, "b": 3, "c": 1, "delta": 0.6, "epsilon": 0.01, "h": 1}
        )
    )
    return path


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps(
            {
                "mode": "evolution",
                "N": 20,
                "L": 3,
                "b": 3,
                "c": 1,
                "delta": 0.6,
                "epsilon": 0.05,
                "gamma": 0.5,
                "h": 1,
                "periods": 100,
                "sample_stride": 20,
                "seed": 0,
            }
        )
    )
    return path


def test_grid_and_counts_parsing():
    assert _parse_grid("0.1:0.3:0.1") == pytest.approx([0.1, 0.2, 0.3])
    assert _parse_counts("2,0,0,7") == (2, 0, 0, 7)
    with pytest.raises(ConfigError):
        _parse_grid("0.1:0.3")
    with pytest.raises(ConfigError):
        _parse_grid("0.5:0.1:0.1")
    with pytest.raises(ConfigError):
        _parse_counts("a,b")


def test_simulate_prints_summary(spec_file, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        ["simulate", "--spec", str(spec_file), "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["seed"] == 3
    assert (out / "timeseries.csv").exists()
    assert (out / "summary.json").exists()


def test_simulate_rejects_bad_spec(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"mode": "evolution", "junk": 1}))
    assert main(["simulate", "--spec", str(bad)]) == 2
    missing = tmp_path / "nope.json"
    assert main(["simulate", "--spec", str(missing)]) == 2
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{")
    assert main(["simulate", "--spec", str(notjson)]) == 2


@pytest.mark.parametrize("command, flag", [("simulate", "--spec"), ("chain", "--config")])
def test_unreadable_input_is_a_configuration_error(tmp_path, command, flag, capsys):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    for path in (tmp_path, binary):  # a directory, then a file that is not UTF-8
        assert main([command, flag, str(path)]) == 2
        assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides",
    [
        {"N": "abc"},
        {"N": 20.5},
        {"b": float("inf")},
        {"periods": float("inf")},
        {"mode": "varying-b", "b_mean": float("inf"), "b_var": 0.5},
        {"mode": "varying-b", "b_mean": 3.0, "b_var": float("nan")},
        {"mode": "delta-sweep", "delta_grid": [0.5, "x"]},
        {"mode": "mixed", "groups": [{"size": "ten", "delta": 0.5}]},
        {"mode": "mixed", "groups": [7]},
        {"mode": "varying-b", "b_mean": 0.5, "b_var": 0, "c": 1},
        {"mode": "varying-b", "b_mean": 1, "b_var": 2, "c": 1},
        {"seed": -1},
        {"periods": 10**401},
        {"seed": 10**401},
        {"sample_stride": True},
        {"mode": "mixed", "groups": [{"size": True, "delta": 0.5}]},
    ],
    ids=[
        "N-text", "N-fraction", "b-inf", "periods-inf", "b_mean-inf", "b_var-nan",
        "delta_grid-text", "group-size-text", "group-not-object",
        "b_mean-below-c", "b_mean-at-c", "seed-negative",
        "periods-huge", "seed-huge", "sample_stride-bool", "group-size-bool",
    ],
)
def test_simulate_rejects_malformed_numbers(spec_file, tmp_path, overrides, capsys):
    doc = json.loads(spec_file.read_text())
    doc.update(overrides)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["simulate", "--spec", str(bad)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_simulate_rejects_a_start_rule(spec_file, tmp_path, capsys):
    # every run starts from the uniform draw; a start rule is an unknown key
    doc = dict(json.loads(spec_file.read_text()), initial_reputation="zeros")
    bad = tmp_path / "start.json"
    bad.write_text(json.dumps(doc))
    assert main(["simulate", "--spec", str(bad)]) == 2
    assert "unknown config keys: ['initial_reputation']" in capsys.readouterr().err


@pytest.mark.parametrize("argv, document", [
    (["simulate", "--spec"], "spec_file"),
    (["bestresponse", "--eta", "5,0,0,0", "--config"], "norm_file"),
])
def test_unparsable_json_values_are_configuration_errors(
    request, tmp_path, argv, document, capsys
):
    # json raises a plain ValueError, not a JSONDecodeError, for an integer
    # of more digits than Python converts (4300 by default), and a
    # RecursionError for nesting deeper than it recurses
    doc = json.loads(request.getfixturevalue(document).read_text())
    text = json.dumps(dict(doc, N=0))
    for value in ("9" * 5000, "[" * 100_000 + "]" * 100_000):
        bad = tmp_path / "bad.json"
        bad.write_text(text.replace('"N": 0', '"N": ' + value))
        assert main([*argv, str(bad)]) == 2
        assert "configuration error" in capsys.readouterr().err


def test_simulate_refuses_a_community_over_the_state_budget(spec_file, tmp_path, capsys):
    doc = dict(json.loads(spec_file.read_text()), N=10**12)
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(doc))
    assert main(["simulate", "--spec", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and f"limit {sim.MAX_STATE_ENTRIES}" in err


def _eta_for(doc) -> str:
    """A census of N-1 users at reputation 0 where N and L are small ints."""
    N, L = doc.get("N"), doc.get("L")
    if all(type(x) is int for x in (N, L)) and 2 <= N <= 30 and 1 <= L <= 4:
        return ",".join([str(N - 1)] + ["0"] * L)
    return "1,0"


@settings(max_examples=150, deadline=None)
@given(st.one_of(spec_documents(), config_documents(max_N=30, max_periods=40)))
def test_cli_runs_or_refuses_any_document(doc):
    # simulate on the document as a spec, bestresponse on its norm keys as a
    # config: each exits 0 or 2 and raises nothing
    norm_doc = {k: v for k, v in doc.items() if k not in sim._RUN_KEYS}
    with tempfile.TemporaryDirectory() as tmp:
        spec, config = Path(tmp) / "spec.json", Path(tmp) / "config.json"
        spec.write_text(json.dumps(doc))
        config.write_text(json.dumps(norm_doc))
        assert main(["simulate", "--spec", str(spec)]) in (0, 2)
        assert main(["bestresponse", "--config", str(config), "--eta", _eta_for(doc)]) in (0, 2)


def test_simulate_rejects_negative_seed_flag(spec_file, capsys):
    assert main(["simulate", "--spec", str(spec_file), "--seed", "-1"]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides", [{"N": "abc"}, {"b": float("inf")}, {"h": None}],
    ids=["N-text", "b-inf", "h-null"],
)
def test_chain_rejects_malformed_numbers(norm_file, tmp_path, overrides):
    doc = json.loads(norm_file.read_text())
    doc.update(overrides)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["chain", "--config", str(bad)]) == 2


def test_chain_refuses_gamma_below_one(norm_file, tmp_path, capsys):
    doc = dict(json.loads(norm_file.read_text()), gamma=0.1)
    config = tmp_path / "inertia.json"
    config.write_text(json.dumps(doc))
    assert main(["chain", "--config", str(config)]) == 2
    assert "gamma" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--eps-ladder", "abc"],
        ["--eps-ladder", "0.1,nan"],
        ["--eps-ladder", "0.7,0.6"],
        ["--N", "200"],
        ["--N", "45"],
        ["--eps-ladder", "1e-2,1e-2"],
        ["--eps-ladder", "0"],
    ],
    ids=["ladder-text", "ladder-nan", "ladder-above-half", "N-over-cap",
         "N-over-dense-cap", "ladder-not-decreasing", "ladder-zero"],
)
def test_chain_rejects_bad_flags(norm_file, flags, capsys):
    assert main(["chain", "--config", str(norm_file), *flags]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_chain_writes_artifacts(norm_file, tmp_path):
    for N, ladder in [
        (6, ["--eps-ladder", "1e-3,1e-4"]),
        # 1771 censuses, 56 GTH panels and several kernel-build chunks per
        # rung of the default ladder, past the sizes the other tests reach
        (20, []),
        # error rates far below the default ladder's 1e-5, where a kernel
        # entry formed as one minus a probability near 1 would lose its
        # relative accuracy (the smallest weight is about 4e-146)
        (8, ["--eps-ladder", "1e-6,1e-9,1e-12"]),
    ]:
        config = tmp_path / f"n{N}.json"
        config.write_text(json.dumps(dict(json.loads(norm_file.read_text()), N=N)))
        out = tmp_path / f"n{N}-chain"
        assert main(["chain", "--config", str(config), *ladder, "--out", str(out)]) == 0
        doc = json.loads((out / "chain.json").read_text())
        assert doc["N"] == N
        # full cooperation is the support, and the three two-point censuses
        # are the absorbing ones, each a singleton closed class
        absorbing = [[0, 0, 0, N], [N - 1, 0, 0, 1], [N, 0, 0, 0]]
        assert doc["ssc_support"] == [[0, 0, 0, N]]
        assert doc["absorbing"] == absorbing
        assert doc["absorbing_classes"] == [[c] for c in absorbing]
        lines = (out / "omega.csv").read_text().strip().splitlines()
        assert lines[0].startswith("config,")
        assert len(lines) == 1 + math.comb(N + 3, 3)  # census space of N, L=3
        # omega.csv lists the censuses in chain.json's order: lexicographic,
        # each once, and row i carries chain.json's i-th weight on every rung
        cells = [line.split(",")[0] for line in lines[1:]]
        assert cells[0] == f'"0 0 0 {N}"' and cells[-1] == f'"{N} 0 0 0"'
        censuses = [[int(n) for n in cell.strip('"').split()] for cell in cells]
        assert all(a < b for a, b in zip(censuses, censuses[1:]))
        assert all(sum(c) == N and len(c) == 4 for c in censuses)
        for col, eps in enumerate(doc["omega"], start=1):
            column = [float(line.split(",")[col]) for line in lines[1:]]
            assert column == doc["omega"][eps]


def test_chain_stdout_and_population_override(norm_file, capsys):
    code = main(
        ["chain", "--config", str(norm_file), "--N", "4", "--eps-ladder", "1e-2,1e-3"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["N"] == 4


def test_design_csv(tmp_path, capsys):
    out = tmp_path / "region.csv"
    code = main(
        [
            "design",
            "--delta-grid",
            "0.2:0.8:0.2",
            "--cb-grid",
            "0.2:0.6:0.2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].strip() == "delta,c_over_b,H,max_feasible_h"
    assert len(lines) == 1 + 4 * 3
    # stdout target works too
    assert main(["design", "--delta-grid", "0.5:0.5:0.1", "--cb-grid", "0.3:0.3:0.1"]) == 0
    assert "delta,c_over_b" in capsys.readouterr().out


def test_design_finishes_where_H_outgrows_the_float_spacing_of_tol(capsys):
    # H is about 9.76e6 at this cell, where floats lie further apart than 1e-9
    cell = ["--delta-grid", "0.99999999:0.99999999:1",
            "--cb-grid", "0.000001:0.000001:1"]
    assert main(["design", *cell]) == 0
    row = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert 9.7e6 < float(row[2]) < 9.8e6


def test_design_rejects_bad_grid(capsys):
    for grid in ("oops", "0.1:inf:0.1", "nan:0.5:0.1"):
        assert main(["design", "--delta-grid", grid, "--cb-grid", "0.3:0.3:0.1"]) == 2
    # a grid point outside delta in [0, 1) or c/b in (0, 1) is a configuration
    # error, as the same delta in a config file is
    assert main(["design", "--delta-grid", "1.5:1.5:0.1", "--cb-grid", "0.3:0.3:0.1"]) == 2
    assert main(["design", "--delta-grid", "0.5:0.5:0.1", "--cb-grid", "1:1:0.1"]) == 2


def test_bestresponse_outputs_policy(norm_file, capsys):
    code = main(["bestresponse", "--config", str(norm_file), "--eta", "0,0,0,5"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["policy"]) == 4
    assert len(doc["values"]) == 4
    assert doc["iterations"] >= 1
    # a census of the wrong sum, sign or length is a configuration error
    for eta in ("0,0,0,9", "1,-1,0,5", "1,1,3", "1,1,1,2,0"):
        code = main(["bestresponse", "--config", str(norm_file), "--eta", eta])
        assert code == 2, eta
        assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, flags, limit",
    [
        ({"N": 10**401}, [], "N must be a finite int"),
        ({"h": True}, [], "h must be a finite int"),
        ({"L": 2000}, [], f"limit {MAX_TABLE_ENTRIES}"),
        ({"L": 25}, ["--action-space", "subset"], f"limit {bestresponse.MAX_SUBSET_ROWS}"),
    ],
    ids=["N-huge", "h-bool", "L-over-table-budget", "L-over-subset-budget"],
)
def test_bestresponse_refuses_huge_boolean_and_oversized_configs(
    norm_file, tmp_path, overrides, flags, limit, capsys
):
    doc = dict(json.loads(norm_file.read_text()), **overrides)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    eta = ",".join(["5"] + ["0"] * doc["L"])
    assert main(["bestresponse", "--config", str(bad), "--eta", eta, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and limit in err


def test_bestresponse_solver_error_is_an_invariant_violation(
    norm_file, monkeypatch, capsys
):
    # against an all-top census policy iteration needs two rounds, so one
    # round makes the solver raise, and the command exits 1, not 2
    monkeypatch.setattr(bestresponse, "MAX_ROUNDS", 1)
    code = main(["bestresponse", "--config", str(norm_file), "--eta", "0,0,0,5"])
    assert code == 1
    err = capsys.readouterr().err
    assert "invariant violation: policy iteration did not settle" in err


def test_verify_quick_passes(capsys):
    # the closed-form, absorbing and trajectory-bridge cross-checks; the
    # command exits 1 on any disagreement
    assert main(["verify", "--quick"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "closed-form equivalence: ok",
        "absorbing classification: ok",
        "trajectory bridge: ok",
    ]


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
