"""Tests for the command-line front end: parsing, verb execution, exit
codes, determinism, and the sweep CSV artifact."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cabello
from cabello import cli, qubit
from cabello.cli import (
    CSV_HEADER,
    build_parser,
    execute,
    main,
    parse,
    sweep_to_csv,
)
from cabello.optimize import SweepRecord
from cabello.scenario import behavior_from_quantum, cabello_stats

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


@pytest.mark.parametrize("flag", [["--tol", "1e-9"], ["--max-iter", "5"]])
def test_npa_has_no_solver_knobs(flag):
    # the solver's tolerance and step cap are constants of npa, not flags
    with pytest.raises(SystemExit) as exc:
        parse(["npa", *flag])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", [["--starts", "8"], ["--seed", "5"]])
def test_sweep_has_no_search_knobs(flag):
    # the lower-bound search starts from a fixed grid, so nothing is seeded
    with pytest.raises(SystemExit) as exc:
        parse(["sweep", *flag])
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
        ["optimize", "--mode", "nonideal", "--eps", "0.05"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["score"] - oracles.NPA_LEVEL2[0.05]) < 1e-5
    assert doc["e10"] <= 0.05 + 1e-9


def _verify_formula_loop(samples, seed):
    """verify-formula one sample at a time: its draws and worst values."""
    rng = np.random.default_rng(seed)
    draws, worst_dev, worst_leak = [], 0.0, 0.0
    for _ in range(samples):
        a, b = rng.uniform(0.05, np.pi - 0.05, size=2)
        cmax = 1.0 / np.sqrt(1 + np.tan(a / 2) ** 2 + np.tan(b / 2) ** 2)
        c = rng.uniform(0.0, 0.999) * cmax
        d, ph, xi = rng.uniform(0.0, 2 * np.pi, size=3)
        m = qubit.MeasurementParams(alpha=a, beta=b, phi=ph, xi=xi)
        p = qubit.ConstrainedStateParams(c=c, delta=d, meas=m)
        a0, a1, b0, b1 = qubit.projectors(m)
        st = cabello_stats(behavior_from_quantum(qubit.constrained_state(p),
                                                 (a0, a1), (b0, b1)))
        draws.append((a, b, c, d, ph, xi))
        worst_dev = max(worst_dev, abs(st.score - qubit.closed_form_score(p)))
        worst_leak = max(worst_leak, st.e10, st.e01)
    return draws, worst_dev, worst_leak


def test_verify_formula_verb(monkeypatch, capsys):
    seen = []
    closed_form_score = qubit.closed_form_score

    def recorded(p):
        m = p.meas
        seen.append((m.alpha, m.beta, p.c, p.delta, m.phi, m.xi))
        return closed_form_score(p)

    monkeypatch.setattr(qubit, "closed_form_score", recorded)
    code, out, err = run_cli(["verify-formula", "--samples", "1000",
                              "--seed", "7"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["samples"] == 1000
    assert doc["max_score_deviation"] < 1e-10
    assert doc["max_constraint_probability"] < 1e-12
    monkeypatch.undo()
    draws, dev, leak = _verify_formula_loop(1000, 7)
    assert seen == draws
    assert abs(doc["max_score_deviation"] - dev) <= 1e-15
    assert abs(doc["max_constraint_probability"] - leak) <= 1e-15


def test_verify_formula_checks_the_transcription(monkeypatch, capsys):
    closed_form_score = qubit.closed_form_score
    monkeypatch.setattr(qubit, "closed_form_score", lambda p: closed_form_score(p) + 1e-9)
    code, out, err = run_cli(["verify-formula", "--samples", "300"], capsys)
    assert code == 1
    assert json.loads(out)["max_score_deviation"] >= 1e-10
    assert "equivalence check failed" in err


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_formula_rejects_nonpositive_samples(samples, capsys):
    code, out, err = run_cli(["verify-formula", "--samples", samples], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("verify-formula: --samples must be >= 1")


def test_parser_built_once_per_process(monkeypatch, capsys):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        for eps in ("0.1", "0.2", "0.3"):
            assert run_cli(["local-bound", "--eps", eps], capsys)[0] == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def test_npa_verb(capsys):
    code, out, err = run_cli(["npa", "--level", "1+AB", "--eps", "0"], capsys)
    assert code == 0
    assert abs(float(out.strip()) - oracles.NPA_EPS0["1+AB"]) < 5e-7
    assert "iterations" in err  # diagnostics stay on stderr
    assert "gap=" in err


@pytest.mark.parametrize("eps", ["1e20", "1e300"])
def test_npa_eps_above_one_gives_the_eps_one_bound(eps, capsys):
    # the eps rows are vacuous from eps = 1 on; warnings are errors in this suite
    code, out, err = run_cli(["npa", "--level", "2", "--eps", eps], capsys)
    assert code == 0
    assert "status=Converged" in err
    assert out == "1.00000001189\n"


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
    (["selftest", "--xi", "inf"], "phi, xi must be finite"),
    (["selftest", "--phi", "nan"], "phi, xi must be finite"),
])
def test_non_finite_input_is_usage_error(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"{argv[0]}: {message}")


@pytest.mark.parametrize("argv, message", [
    (["optimize", "--eps", "0.3"], "--mode ideal takes no --eps"),
    (["optimize", "--mode", "ideal", "--eps", "0"], "--mode ideal takes no --eps"),
    (["optimize", "--mode", "nonideal", "--starts", "32"],
     "--mode nonideal takes no --starts"),
    (["optimize", "--mode", "nonideal", "--eps", "0.1", "--seed", "3"],
     "--mode nonideal takes no --seed"),
    (["optimize", "--mode", "nonideal", "--starts", "8", "--seed", "3"],
     "--mode nonideal takes no --starts, --seed"),
])
def test_optimize_rejects_options_its_mode_ignores(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == f"optimize: {message}\n"


def test_sweep_verb_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, out, err = run_cli(
        ["sweep", "--eps-min", "0", "--eps-max", "0.1", "--steps", "3",
         "--out", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert first[5] == "ok"


def test_sweep_stdout_and_determinism(capsys):
    argv = ["sweep", "--eps-min", "0", "--eps-max", "0.04", "--steps", "2"]
    code_a, out_a, _ = run_cli(argv, capsys)
    code_b, out_b, _ = run_cli(argv, capsys)
    assert code_a == code_b == 0
    assert out_a == out_b  # byte-identical reruns


@pytest.mark.parametrize("argv", list(oracles.CLI_STDOUT))
def test_stdout_matches_frozen_bytes(argv, capsys):
    code, out, err = run_cli(list(argv), capsys)
    assert code == 0
    assert out == oracles.CLI_STDOUT[argv]


_NO_SCIPY_LOADED = """
import sys
import cabello.cli
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded[:5]
"""

_FROZEN_BYTES_WITHOUT_SCIPY = """
import contextlib, io, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import cabello.cli
import oracles
for argv, want in oracles.CLI_STDOUT.items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cabello.cli.main(list(argv))
    assert (code, out.getvalue()) == (0, want), argv
"""


def test_cli_runs_without_scipy():
    # fresh interpreters, so no module imported by another test counts
    paths = [str(Path(cabello.__file__).parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    for script in (_NO_SCIPY_LOADED, _FROZEN_BYTES_WITHOUT_SCIPY):
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr


def test_sweep_rejects_bad_steps(capsys):
    code, out, err = run_cli(["sweep", "--steps", "0"], capsys)
    assert code == 2


def test_float_formatting_uses_12_significant_digits():
    recs = [SweepRecord(eps=1.0 / 3.0, local_bound=2.0 / 3.0,
                        quantum_lower=0.123456789012345,
                        quantum_upper=0.5, level="2", status="ok",
                        params=None)]
    row = sweep_to_csv(recs).strip().split("\n")[1]
    assert row.split(",")[1] == "0.666666666667"
    assert row.split(",")[2] == "0.123456789012"
