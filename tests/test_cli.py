"""End-to-end command-line checks (direct main() invocation)."""

import json
import math

import pytest

import bellcost as bc
from bellcost.cli import main, number

from conftest import S_Q


def test_number_tokens():
    assert number("sq") == pytest.approx(S_Q, abs=0)
    assert number("sqrt2") == pytest.approx(math.sqrt(2.0), abs=0)
    assert number("0.25") == 0.25
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        number("tau")


def test_reproduce_passes(capsys):
    assert main(["reproduce"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") >= 12


def test_curve_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(
        ["curve", "--class", "causal", "--from", "2", "--to", "4", "--points", "201", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "S,I,branch,class"
    assert len(lines) == 202
    branches = [ln.split(",")[2] for ln in lines[1:]]
    switch = branches.index("I2")
    assert set(branches[:switch]) == {"I1"} and set(branches[switch:]) == {"I2"}
    s_before = float(lines[switch].split(",")[0])
    s_after = float(lines[switch + 1].split(",")[0])
    assert s_before <= bc.s0() <= s_after


def test_curve_stdout(capsys):
    assert main(["curve", "--class", "retro", "--points", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("S,I,branch,class\n")
    assert len(out.splitlines()) == 6


def test_curve_rejects_unknown_flag():
    with pytest.raises(SystemExit) as exc:
        main(["curve", "--class", "retro", "--bogus", "1"])
    assert exc.value.code == 2


def test_model_eval_block(capsys):
    assert main(["model", "--family", "table1", "--p", "0.25"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["S"] == pytest.approx(2.0, abs=1e-12)
    assert doc["I"] == pytest.approx(0.0, abs=1e-12)
    assert doc["nonsignaling"] is True and doc["factorized"] is True


def test_model_missing_parameter_is_usage_error(capsys):
    assert main(["model", "--family", "table1"]) == 2
    assert "error" in capsys.readouterr().err


def test_model_bad_parameter_is_usage_error(capsys):
    assert main(["model", "--family", "table2", "--p", "sq"]) == 2


def test_model_flip_and_roundtrip_through_sample(tmp_path, capsys):
    model_path = tmp_path / "m.json"
    code = main(
        ["model", "--family", "table2", "--p", "0.38268343236508978", "--flip", "--out", str(model_path)]
    )
    assert code == 0
    evaluation = json.loads(capsys.readouterr().out)
    assert evaluation["nonsignaling"] is True

    rounds_path = tmp_path / "rounds.csv"
    stats_path = tmp_path / "stats.json"
    code = main(
        [
            "sample",
            "--model",
            str(model_path),
            "--n",
            "2000",
            "--seed",
            "5",
            "--order",
            "source-first",
            "--rounds-out",
            str(rounds_path),
            "--stats-out",
            str(stats_path),
        ]
    )
    assert code == 0
    stats = json.loads(stats_path.read_text())
    assert stats["rng"] == "numpy-philox4x64"
    assert stats["s_exact"] == pytest.approx(evaluation["S"], abs=1e-12)
    assert stats["info_exact"] == pytest.approx(evaluation["I"], abs=1e-12)
    assert stats["prediction_accuracy"] == 1.0
    assert rounds_path.read_text().splitlines()[0] == "round,lambda,x,y,a,b,pred_a,pred_b"


def test_model_families_build(capsys, tmp_path):
    for argv in (
        ["model", "--family", "onesided", "--p", "0.2"],
        ["model", "--family", "superdet", "--p", "0.1464", "--bias-x", "0.5"],
        ["model", "--family", "extreme-bias", "--p", "0.2"],
        ["model", "--family", "table2", "--p", "0.1", "--branch", "conjugate"],
        ["model", "--family", "table1", "--p", "0.1", "--bias-x", "0.4", "--bias-y", "-0.2"],
    ):
        assert main(argv) == 0, argv
        json.loads(capsys.readouterr().out)


def test_sample_missing_model_file_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["sample", "--model", str(missing), "--n", "10"]) == 2
    assert "error" in capsys.readouterr().err


def test_sample_bad_seed_is_usage_error(tmp_path, capsys):
    model_path = tmp_path / "m.json"
    bc.save_model(bc.table2_model(0.2), str(model_path))
    assert main(["sample", "--model", str(model_path), "--n", "10", "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err


def test_verify_report(capsys):
    code = main(["verify", "--class", "causal", "--s", "sq", "--grid", "12"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["gap"] >= -1e-9
    assert doc["achieved_s"] >= S_Q - 1e-9
    witness = bc.model_from_dict(doc["witness_model"])
    assert bc.mutual_information(witness) == pytest.approx(doc["brute_force"], abs=1e-12)
