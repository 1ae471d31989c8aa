import json

import pytest

from normsim import bestresponse
from normsim.cli import _parse_counts, _parse_grid, main
from normsim.norms import ConfigError


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
    ],
    ids=[
        "N-text", "N-fraction", "b-inf", "periods-inf", "b_mean-inf", "b_var-nan",
        "delta_grid-text", "group-size-text", "group-not-object",
        "b_mean-below-c", "b_mean-at-c", "seed-negative",
    ],
)
def test_simulate_rejects_malformed_numbers(spec_file, tmp_path, overrides, capsys):
    doc = json.loads(spec_file.read_text())
    doc.update(overrides)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["simulate", "--spec", str(bad)]) == 2
    assert "configuration error" in capsys.readouterr().err


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


def test_chain_writes_artifacts(norm_file, tmp_path, capsys):
    out = tmp_path / "chain"
    code = main(
        [
            "chain",
            "--config",
            str(norm_file),
            "--eps-ladder",
            "1e-3,1e-4",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads((out / "chain.json").read_text())
    assert doc["N"] == 6
    assert [0, 0, 0, 6] in doc["ssc_support"]
    assert [6, 0, 0, 0] in doc["absorbing"]
    lines = (out / "omega.csv").read_text().strip().splitlines()
    assert lines[0].startswith("config,")
    assert len(lines) == 1 + 84  # census space of N=6, L=3
    # omega.csv lists the censuses in chain.json's order: lexicographic, each
    # once, and row i carries chain.json's i-th weight on every rung
    cells = [line.split(",")[0] for line in lines[1:]]
    assert cells[0] == '"0 0 0 6"' and cells[-1] == '"6 0 0 0"'
    censuses = [[int(n) for n in cell.strip('"').split()] for cell in cells]
    assert all(a < b for a, b in zip(censuses, censuses[1:]))
    assert all(sum(c) == 6 and len(c) == 4 for c in censuses)
    for col, eps in enumerate(doc["omega"], start=1):
        assert [float(line.split(",")[col]) for line in lines[1:]] == doc["omega"][eps]
    assert all(c in censuses for c in doc["ssc_support"] + doc["absorbing"])


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
    # delta outside [0,1) is an invariant violation, not a parse error
    assert main(["design", "--delta-grid", "1.5:1.5:0.1", "--cb-grid", "0.3:0.3:0.1"]) == 1


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


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
