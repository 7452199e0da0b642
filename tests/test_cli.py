"""Tests for the command-line front end: parsing, verb execution, exit
codes, determinism, and the sweep CSV artifact."""

import json
import os
import random
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
    ns = parse(["sweep", "--eps-max", "0.5", "--steps", "51"])
    assert ns.verb == "sweep"
    assert ns.steps == 51
    assert ns.eps_max == 0.5
    assert ns.level == "2"
    assert ns.out is None


def test_parse_optimize_ideal():
    ns = parse(["optimize", "--mode", "ideal"])
    assert vars(ns) == {"verb": "optimize", "mode": "ideal", "eps": None, "out": None}


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
    # every search starts from a fixed grid, so nothing is seeded
    for verb in (["sweep"], ["optimize", "--mode", "ideal"],
                 ["optimize", "--mode", "nonideal"], ["hardy"]):
        with pytest.raises(SystemExit) as exc:
            parse([*verb, *flag])
        assert exc.value.code == 2, verb


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
    rng = random.Random(seed)
    draws, worst_dev, worst_leak = [], 0.0, 0.0
    for _ in range(samples):
        a, b = (rng.uniform(0.05, np.pi - 0.05) for _ in range(2))
        # np.square, as the verb: ** 2 on a numpy scalar is pow(), which can
        # round differently from the product
        cmax = 1.0 / np.sqrt(1 + np.square(np.tan(a / 2)) + np.square(np.tan(b / 2)))
        c = rng.uniform(0.0, 0.999) * cmax
        d, ph, xi = (rng.uniform(0.0, 2 * np.pi) for _ in range(3))
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
        # one call per chunk; recorded as one tuple per sample
        m = p.meas
        seen.extend(zip(m.alpha, m.beta, p.c, p.delta, m.phi, m.xi))
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


def test_verify_formula_makes_one_call_per_chunk(monkeypatch, capsys):
    calls = {"closed_form_score": 0, "constrained_state": 0}
    for name in calls:
        def counted(p, name=name, inner=getattr(qubit, name)):
            calls[name] += 1
            return inner(p)
        monkeypatch.setattr(qubit, name, counted)
    code, out, err = run_cli(["verify-formula", "--samples", "1000"], capsys)
    assert code == 0
    chunks = -(-1000 // cli._VERIFY_CHUNK)
    assert calls == {"closed_form_score": chunks, "constrained_state": chunks}


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


def test_verify_formula_seed_must_be_nonnegative(capsys):
    # random.Random seeds from |seed|, so -1 would silently replay seed 1
    code, out, err = run_cli(["verify-formula", "--seed", "-1"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("verify-formula: --seed must be >= 0")
    code, out, err = run_cli(["verify-formula", "--samples", "10",
                              "--seed", "99999999999999999999999"], capsys)
    assert code == 0
    assert json.loads(out)["samples"] == 10


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
    assert out == "1.00000001286\n"


def test_hardy_verb(capsys):
    code, out, err = run_cli(["hardy"], capsys)
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
])
def test_optimize_rejects_options_its_mode_ignores(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == f"optimize: {message}\n"


@pytest.mark.parametrize("argv", [["local-bound", "--eps", "0.1"],
                                  ["sweep", "--eps-max", "0", "--steps", "1"]])
@pytest.mark.parametrize("target", ["missing parent", "directory"])
def test_unwritable_out_is_usage_error(argv, target, tmp_path, capsys):
    path = tmp_path / "absent" / "x" if target == "missing parent" else tmp_path
    code, out, err = run_cli([*argv, "--out", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"{argv[0]}: [Errno ")


def test_unwritable_out_fails_before_the_sweep_runs(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the grid ran before --out was opened")

    monkeypatch.setattr(cli.optimize, "sweep_epsilon", fail)
    code, out, err = run_cli(["sweep", "--out", str(tmp_path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("sweep: [Errno ")


def test_verb_failing_after_the_open_leaves_an_empty_out(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    code, out, err = run_cli(["sweep", "--steps", "0", "--out", str(path)], capsys)
    assert code == 2
    assert err == "sweep: --steps must be >= 1\n"
    assert path.read_text() == ""


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
# nor numpy.ma, which np.unique imports on its first call
assert "numpy.ma" not in sys.modules
# nor numpy.random: verify-formula draws from the standard library
assert "numpy.random" not in sys.modules
"""

_FROZEN_BYTES_WITHOUT_SCIPY = """
import contextlib, io, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
sys.modules["numpy.random"] = None  # and so does any import of numpy.random
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


_STDOUT_OF_EACH = """
import contextlib, io, json, sys
import cabello.cli
out = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cabello.cli.main(argv)
    out.append((code, buf.getvalue()))
print(json.dumps(out))
"""


def test_npa_output_does_not_depend_on_the_blas_thread_count():
    # OpenBLAS reads its thread count when it loads, so each count gets a
    # fresh interpreter
    argvs = [a for a in oracles.CLI_STDOUT if a[:3] == ("npa", "--level", "3")]
    argvs.append(("npa", "--level", "3", "--eps", "0.3"))
    env = {**os.environ, "PYTHONPATH": str(Path(cabello.__file__).parents[1])}
    outs = []
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", _STDOUT_OF_EACH, json.dumps(argvs)],
                              env={**env, "OPENBLAS_NUM_THREADS": threads},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(json.loads(proc.stdout))
    assert outs[0] == outs[1]
    for argv, (code, out) in zip(argvs, outs[0]):
        assert code == 0 and out == oracles.CLI_STDOUT.get(argv, out), argv


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
