"""End-to-end command-line checks (direct main() invocation)."""

import json
import math
import os
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import bellcost as bc
from bellcost import simulate
from bellcost.cli import main, number

from conftest import OVERSIZED_GRIDS, S_Q


def test_number_tokens():
    assert number("sq") == pytest.approx(S_Q, abs=0)
    assert number("sqrt2") == pytest.approx(math.sqrt(2.0), abs=0)
    assert number("0.25") == 0.25
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        number("tau")


def test_reproduce_passes(capsys):
    """The reproduce table is pinned byte for byte; CI diffs the console script against the same file."""
    assert main(["reproduce"]) == 0
    golden = os.path.join(os.path.dirname(__file__), "data", "reproduce.txt")
    with open(golden, newline="") as fh:
        assert capsys.readouterr().out == fh.read()


@pytest.mark.parametrize("cls", ["causal", "retro", "onesided"])
def test_curve_output_is_pinned(cls, capsys):
    """Each 201-point sweep is pinned byte for byte; CI diffs the console script against the same files."""
    assert main(["curve", "--class", cls, "--points", "201"]) == 0
    golden = os.path.join(os.path.dirname(__file__), "data", f"curve-{cls}.txt")
    with open(golden, newline="") as fh:
        assert capsys.readouterr().out == fh.read()


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


@pytest.mark.parametrize("points", ["100000000000000", "9223372036854775808"])
def test_curve_oversized_sweep_is_usage_error(capsys, points):
    assert main(["curve", "--class", "retro", "--points", points]) == 2
    assert capsys.readouterr() == ("", f"error: curve_sweep: a sweep of n = {points} points does not fit in memory\n")


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


@pytest.mark.parametrize("flag", ["--bias-x", "--bias-y"])
def test_model_nan_bias_is_usage_error(flag, capsys):
    assert main(["model", "--family", "table1", "--p", "0.1", flag, "nan"]) == 2
    assert "outside [-1, 1]" in capsys.readouterr().err


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


def test_sample_output_is_independent_of_block_size(tmp_path, capsys, monkeypatch):
    model_path = tmp_path / "m.json"
    bc.save_model(bc.flip_lift(bc.table1_model(0.1)), str(model_path))
    rounds_path = tmp_path / "rounds.csv"
    argv = ["sample", "--model", str(model_path), "--n", "1000", "--seed", "3",
            "--rounds-out", str(rounds_path)]
    outputs = []
    for block in (7, 1000):  # many blocks, then one
        monkeypatch.setattr(simulate, "_BLOCK", block)
        assert main(argv) == 0
        outputs.append((capsys.readouterr().out, rounds_path.read_bytes()))
    assert outputs[0] == outputs[1]
    # and the streamed command agrees with the in-memory pipeline
    rounds = bc.sample_rounds(bc.load_model(str(model_path)), 1000, 3, bc.SampleOrder.SETTINGS_FIRST)
    stats = bc.empirical_stats(rounds)
    doc = json.loads(outputs[0][0])
    assert (doc["s_hat"], doc["info_hat"], doc["prediction_accuracy"]) == (
        stats.s_hat, stats.info_hat, stats.prediction_accuracy
    )
    assert doc["s_standard_error"] == bc.chsh_standard_error(rounds)
    assert outputs[0][1] == bc.rounds_to_csv(rounds).encode()


def test_sample_memory_does_not_grow_with_n(tmp_path, capsys, monkeypatch):
    block = 1024
    monkeypatch.setattr(simulate, "_BLOCK", block)
    model_path = tmp_path / "m.json"
    bc.save_model(bc.flip_lift(bc.table1_model(0.1)), str(model_path))

    def peak(n: int) -> int:
        argv = ["sample", "--model", str(model_path), "--n", str(n),
                "--rounds-out", str(tmp_path / "rounds.csv")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            capsys.readouterr()

    peak(2 * block)  # fill caches first
    # round numbers below 8 * block have the same width, so the blocks' text has too;
    # one int64 column of all 8 * block rounds would add 48 * block bytes
    assert peak(8 * block) - peak(2 * block) < 16 * block


def test_failed_sample_leaves_no_rounds_file(tmp_path, capsys):
    model_path = tmp_path / "m.json"
    bc.save_model(bc.table2_model(0.2), str(model_path))
    # one round cannot show all four settings, so the stats fail after it is written
    argv = ["sample", "--model", str(model_path), "--n", "1", "--rounds-out", str(tmp_path / "r.csv")]
    assert main(argv) == 2
    assert "never occurs" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["m.json"]


def test_model_families_build(capsys, tmp_path):
    for argv in (
        ["model", "--family", "onesided", "--p", "0.2"],
        ["model", "--family", "superdet", "--p", "0.1464", "--bias-x", "0.5"],
        ["model", "--family", "extreme-bias", "--p", "0.2"],
        ["model", "--family", "table2", "--p", "0.1", "--branch", "conjugate"],
        ["model", "--family", "table1", "--p", "0.1", "--bias-x", "0.4", "--bias-y", "-0.2"],
        ["model", "--family", "table2", "--p", "0.1", "--ptilde", "0.3", "--bias-y", "0.2"],
    ):
        assert main(argv) == 0, argv
        json.loads(capsys.readouterr().out)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--family", "extreme-bias", "--p", "0.2", "--bias-x", "0.5"], "--bias-x"),
        (["--family", "extreme-bias", "--p", "0.2", "--bias-y", "0"], "--bias-y"),
        (["--family", "table1", "--p", "0.1", "--ptilde", "0.3"], "--ptilde"),
        (["--family", "onesided", "--p", "0.1", "--branch", "conjugate"], "--branch"),
        (["--family", "superdet", "--p", "0.1", "--branch", "same"], "--branch"),
        (["--family", "table2", "--p", "0.1", "--branch", "conjugate", "--ptilde", "0.3"], "--ptilde"),
    ],
)
def test_model_rejects_flags_its_family_ignores(argv, flag, capsys):
    assert main(["model", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err


def test_sample_missing_model_file_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["sample", "--model", str(missing), "--n", "10"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["{", "", "[1,"], ids=["open-brace", "empty", "open-list"])
def test_sample_model_file_that_does_not_parse_is_usage_error(tmp_path, capsys, text):
    model_path = tmp_path / "bad.json"
    model_path.write_text(text)
    assert main(["sample", "--model", str(model_path), "--n", "10"]) == 2
    assert capsys.readouterr().err.startswith("error: model JSON does not parse: ")


def test_sample_deeply_nested_model_file_is_usage_error(tmp_path, capsys):
    model_path = tmp_path / "deep.json"
    model_path.write_text("[" * 100_000)
    assert main(["sample", "--model", str(model_path), "--n", "10"]) == 2
    assert capsys.readouterr().err == "error: model JSON is nested too deeply to parse\n"


def _model_doc_with_weight(weight):
    doc = bc.model_to_dict(bc.table1_model(0.2))
    doc["states"][0]["weight"] = weight
    return doc


@pytest.mark.parametrize(
    "doc, phrase",
    [
        (list(range(10**5)), "not list"),
        ({"schema": "x" * 10**6}, "unsupported model schema"),
        (_model_doc_with_weight("x" * 10**6), "state weight"),
    ],
    ids=["list", "schema", "weight"],
)
def test_model_document_errors_stay_short(doc, phrase, tmp_path, capsys):
    """A bad value is quoted abridged, so a huge document gives a short message, and the CLI still exits 2."""
    with pytest.raises(bc.InvalidModel, match=phrase) as exc:
        bc.model_from_dict(doc)
    assert len(str(exc.value)) < 200
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert main(["sample", "--model", str(path), "--n", "10"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {exc.value}\n"


def test_sample_model_file_not_utf8_is_usage_error(tmp_path, capsys):
    model_path = tmp_path / "bad.json"
    model_path.write_bytes(b"\xff\xfe" + json.dumps({"schema": 1}).encode("utf-16-le"))
    assert main(["sample", "--model", str(model_path), "--n", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not UTF-8" in err and str(model_path) in err


def test_rounds_out_in_a_missing_directory_names_the_path(tmp_path, capsys):
    model_path = tmp_path / "m.json"
    bc.save_model(bc.table2_model(0.2), str(model_path))
    target = tmp_path / "missing" / "r.csv"
    assert main(["sample", "--model", str(model_path), "--n", "100", "--rounds-out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"


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


@pytest.mark.parametrize("cls, total", [("retro", math.comb(16 + 3, 3)), ("causal", 17**2), ("onesided", 17)])
def test_verify_reports_search_counts(cls, total, capsys):
    assert main(["verify", "--class", cls, "--s", "sq", "--grid", "16"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "passes" not in doc
    assert doc["states_total"] == total
    assert 0 < doc["states_searched"] <= total
    if cls != "onesided":  # the pruned searches keep only states near the entropy floor
        assert doc["states_searched"] < total
        assert doc["incumbent_info"] >= doc["brute_force"] - 1e-12
    else:
        assert doc["incumbent_info"] is None


@pytest.mark.parametrize("cls", ["retro", "causal", "onesided"])
def test_verify_judges_the_witness_at_its_achieved_s(cls, capsys):
    """A tolerance that lets the witness land below the target is no failure: the curve bounds it at its own S."""
    assert main(["verify", "--class", cls, "--s", "3", "--tolerance", "0.5", "--grid", "8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["achieved_s"] == pytest.approx(2.5, abs=1e-12)
    assert doc["gap"] < 0  # analytic and gap stay at the target
    assert doc["analytic"] == bc.curve_point(bc.CausalClass(cls), 3.0).info
    assert doc["brute_force"] >= bc.curve_point(bc.CausalClass(cls), doc["achieved_s"]).info - 1e-9


@pytest.mark.parametrize("cls", ["retro", "causal", "onesided"])
def test_verify_fails_below_the_curve_at_the_achieved_s(cls, monkeypatch, capsys):
    import dataclasses

    import bellcost.cli as cli

    search = cli.brute_force_min_info

    def below_the_curve(cfg):
        result = search(cfg)
        bound = bc.curve_point(cfg.causal_class, bc.chsh_value(result.best_model)).info
        return dataclasses.replace(result, best_info=bound - 1e-6)

    monkeypatch.setattr(cli, "brute_force_min_info", below_the_curve)
    assert main(["verify", "--class", cls, "--s", "3", "--tolerance", "0.5", "--grid", "8"]) == 1
    assert main(["verify", "--class", cls, "--s", "sq", "--grid", "8"]) == 1


@pytest.mark.parametrize(
    "flags",
    [
        ["--s", "nan"],
        ["--s", "inf"],
        ["--s=-inf"],
        ["--s", "3", "--tolerance", "nan"],
        ["--s", "3", "--tolerance", "inf"],
    ],
)
def test_verify_non_finite_is_usage_error(flags, capsys):
    assert main(["verify", "--class", "retro", "--grid", "8", *flags]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("s", ["1.5", "4.5"])
def test_verify_out_of_range_s_fails_before_search(s, monkeypatch, capsys):
    import bellcost.cli as cli

    def no_search(cfg):
        raise AssertionError("search ran on an out-of-range S")

    monkeypatch.setattr(cli, "brute_force_min_info", no_search)
    assert main(["verify", "--class", "causal", "--s", s, "--grid", "8"]) == 2
    assert "outside [2.0, 4]" in capsys.readouterr().err


@pytest.mark.parametrize("cls, grid, target", OVERSIZED_GRIDS)
def test_verify_oversized_grid_is_usage_error(cls, grid, target, capsys):
    assert main(["verify", "--class", cls.value, "--s", repr(target), "--grid", str(grid)]) == 2
    assert capsys.readouterr().err.startswith(f"error: brute_force_min_info: the N = {grid} grid")


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="argparse 3.13 wraps usage lines differently")
@pytest.mark.parametrize("command", ["", "curve", "model", "verify", "sample", "reproduce"])
def test_help_is_pinned(command, monkeypatch, capsys):
    """Each --help at COLUMNS=80 is pinned byte for byte; CI diffs the console script against the pins."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    golden = os.path.join(os.path.dirname(__file__), "data", f"help-{command}.txt" if command else "help.txt")
    with open(golden, newline="") as fh:
        assert capsys.readouterr().out == fh.read()


_NUMBERS = st.sampled_from(
    ["nan", "inf", "-inf", "-1", "0", "0.1", "0.25", "2", "3.9", "4", "sq", "sqrt2", "1e308", "x"]
)
_OUTS = st.sampled_from(["out.txt", "missing/out.txt", "."])


def _argv(command, flags, required=()):
    """argv for command with a subset of flags, each drawn with its value strategy (None: a switch).

    Half of the draws keep the required flags, so that many argv get past argparse.
    """
    optional = sorted(set(flags) - set(required))
    chosen = st.one_of(
        st.lists(st.sampled_from(sorted(flags)), unique=True),
        st.lists(st.sampled_from(optional), unique=True).map(lambda names: [*required, *names]),
    )

    def build(names):
        parts = [st.just([n]) if flags[n] is None else flags[n].map(lambda v, n=n: [n, v]) for n in names]
        return st.tuples(*parts).map(lambda drawn: [command, *(token for part in drawn for token in part)])

    return chosen.flatmap(build)


_ARGV = st.one_of(
    _argv(
        "curve",
        {
            "--class": st.sampled_from(["causal", "retro", "onesided", "zigzag", "superdet", "x"]),
            "--from": _NUMBERS,
            "--to": _NUMBERS,
            "--points": st.sampled_from(["-1", "0", "1", "2", "11", "100000000000000", "1.5", "x"]),
            "--out": _OUTS,
        },
        required=("--class",),
    ),
    _argv(
        "model",
        {
            "--family": st.sampled_from(["table1", "table2", "onesided", "superdet", "extreme-bias", "x"]),
            "--p": _NUMBERS,
            "--ptilde": _NUMBERS,
            "--branch": st.sampled_from(["same", "conjugate", "x"]),
            "--bias-x": _NUMBERS,
            "--bias-y": _NUMBERS,
            "--flip": None,
            "--out": _OUTS,
        },
        required=("--family",),
    ),
    _argv(
        "verify",
        {
            "--class": st.sampled_from(["retro", "causal", "onesided", "x"]),
            "--s": _NUMBERS,
            "--grid": st.sampled_from(["-1", "0", "1", "2", "8", "1000000000", "nan", "x"]),
            "--tolerance": _NUMBERS,
            "--out": _OUTS,
        },
        required=("--class", "--s"),
    ),
    _argv(
        "sample",
        {
            "--model": st.sampled_from(["m.json", "out.txt", "missing/m.json", "."]),
            "--n": st.sampled_from(["-1", "0", "1", "10", "10000", "1e3", "x"]),
            "--seed": st.sampled_from(["-1", "0", "7", "18446744073709551616", "x"]),
            "--order": st.sampled_from(["settings-first", "source-first", "x"]),
            "--rounds-out": _OUTS,
            "--stats-out": _OUTS,
        },
        required=("--model", "--n"),
    ),
    st.just(["reproduce"]),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_ARGV)
def test_cli_exits_with_a_documented_code(argv, tmp_path, monkeypatch, capsys):
    """Any argv returns 0, 1 or 2, or stops in argparse with SystemExit(2).

    A library error is reported as error: on stderr with exit 2, never as a traceback.
    """
    monkeypatch.chdir(tmp_path)
    if not os.path.exists("m.json"):
        assert main(["model", "--family", "table1", "--p", "0.1", "--out", "m.json"]) == 0
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2, argv
        return
    assert code in (0, 1, 2), argv
    if code == 2:
        assert capsys.readouterr().err.startswith("error: "), argv
