"""Tests for the command-line front end: parsing, verb execution, exit
codes, determinism, and the sweep CSV artifact."""

import json

import numpy as np
import pytest

from cabello.cli import (
    CSV_HEADER,
    build_parser,
    execute,
    main,
    parse,
    read_sweep_csv,
    sweep_to_csv,
)
from cabello.optimize import SweepRecord, sweep_epsilon

import oracles


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_parse_sweep_defaults():
    cmd = parse(["sweep", "--eps-max", "0.5", "--steps", "51"])
    assert cmd.verb == "sweep"
    assert cmd.options["steps"] == 51
    assert cmd.options["eps_max"] == 0.5
    assert cmd.options["level"] == "2"
    assert cmd.out is None


def test_parse_optimize_ideal():
    cmd = parse(["optimize", "--mode", "ideal", "--seed", "42"])
    assert cmd.verb == "optimize"
    assert cmd.options["mode"] == "ideal"
    assert cmd.options["seed"] == 42


def test_parse_rejects_unsupported_level():
    with pytest.raises(SystemExit) as exc:
        parse(["npa", "--level", "7"])
    assert exc.value.code == 2


def test_parse_rejects_unknown_verb_and_flag():
    with pytest.raises(SystemExit) as exc:
        parse(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        parse(["hardy", "--bogus", "1"])
    assert exc.value.code == 2


def test_local_bound_verb(capsys):
    code, out, err = run_cli(["local-bound", "--eps", "0.1"], capsys)
    assert code == 0
    assert float(out.strip()) == pytest.approx(0.2, abs=1e-9)


def test_local_bound_requires_eps():
    with pytest.raises(SystemExit) as exc:
        parse(["local-bound"])
    assert exc.value.code == 2


def test_optimize_ideal_verb(capsys):
    code, out, err = run_cli(["optimize", "--mode", "ideal"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["score"] - 0.1078127177489364) < 1e-7
    assert doc["converged"] is True


def test_optimize_nonideal_verb(capsys):
    code, out, err = run_cli(
        ["optimize", "--mode", "nonideal", "--eps", "0.05", "--starts", "32"],
        capsys)
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["score"] - oracles.NPA_LEVEL2[0.05]) < 1e-5
    assert doc["e10"] <= 0.05 + 1e-9


def test_verify_formula_verb(capsys):
    code, out, err = run_cli(["verify-formula", "--samples", "1000",
                              "--seed", "7"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["samples"] == 1000
    assert doc["max_score_deviation"] < 1e-10
    assert doc["max_constraint_probability"] < 1e-12


def test_npa_verb(capsys):
    code, out, err = run_cli(["npa", "--level", "1+AB", "--eps", "0"], capsys)
    assert code == 0
    assert abs(float(out.strip()) - oracles.NPA_EPS0["1+AB"]) < 5e-7
    assert "iterations" in err  # diagnostics stay on stderr
    assert "gap=" in err


def test_hardy_verb(capsys):
    code, out, err = run_cli(["hardy", "--starts", "16"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["score"] - oracles.HARDY_MAX) < 1e-6


def test_selftest_verb(capsys):
    code, out, err = run_cli(["selftest", "--weights", "0.5,0.5"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["fidelity"] >= 1.0 - 1e-9
    assert doc["junk_dims"] == [4, 4]


def test_selftest_bad_weights_usage_error(capsys):
    code, out, err = run_cli(["selftest", "--weights", "0.5,0.9"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["selftest", "--weights", "nan,1"], "weights must be finite"),
    (["local-bound", "--eps", "nan"], "eps must be finite"),
    (["npa", "--eps", "nan"], "eps must be finite"),
    (["npa", "--eps", "inf"], "eps must be finite"),
    (["sweep", "--eps-min", "nan", "--eps-max", "nan", "--steps", "1"],
     "grid values must lie in [0, 0.5]"),
])
def test_non_finite_input_is_usage_error(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"{argv[0]}: {message}")


def test_sweep_verb_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, out, err = run_cli(
        ["sweep", "--eps-min", "0", "--eps-max", "0.1", "--steps", "3",
         "--starts", "8", "--out", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert first[5] == "ok"


def test_sweep_stdout_and_determinism(capsys):
    argv = ["sweep", "--eps-min", "0", "--eps-max", "0.04", "--steps", "2",
            "--starts", "8", "--seed", "5"]
    code_a, out_a, _ = run_cli(argv, capsys)
    code_b, out_b, _ = run_cli(argv, capsys)
    assert code_a == code_b == 0
    assert out_a == out_b  # byte-identical reruns


def test_sweep_rejects_bad_steps(capsys):
    code, out, err = run_cli(["sweep", "--steps", "0"], capsys)
    assert code == 2


def test_csv_round_trip():
    recs = sweep_epsilon([0.0, 0.03], starts=8)
    text1 = sweep_to_csv(recs)
    back = read_sweep_csv(text1)
    assert len(back) == len(recs)
    for orig, rt in zip(recs, back):
        assert rt.level == orig.level
        assert rt.status == orig.status
        assert abs(rt.eps - orig.eps) < 1e-12
        # 12 significant digits survive the trip
        assert abs(rt.quantum_lower - orig.quantum_lower) < 1e-11
    # writing what was read back reproduces the text byte for byte
    assert sweep_to_csv(back) == text1


def test_read_sweep_csv_rejects_bad_header():
    with pytest.raises(ValueError):
        read_sweep_csv("eps,foo\n0,1\n")


def test_float_formatting_uses_12_significant_digits():
    recs = [SweepRecord(eps=1.0 / 3.0, local_bound=2.0 / 3.0,
                        quantum_lower=0.123456789012345,
                        quantum_upper=0.5, level="2", status="ok",
                        params=None)]
    row = sweep_to_csv(recs).strip().split("\n")[1]
    assert row.split(",")[1] == "0.666666666667"
    assert row.split(",")[2] == "0.123456789012"
