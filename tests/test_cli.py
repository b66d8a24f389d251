import argparse
import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from mbpre.cli import main

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "schemas"
ENVELOPE_SCHEMA = json.loads((SCHEMA_DIR / "cli_output.schema.json").read_text())
MODEL_SCHEMA = json.loads((SCHEMA_DIR / "model.schema.json").read_text())


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run_cli(argv + ["--json"])
    assert code == 0, err
    envelope = json.loads(out)
    jsonschema.validate(envelope, ENVELOPE_SCHEMA)
    return envelope


def test_model_files_validate_against_schema(carpet_p04_file):
    doc = json.loads(Path(carpet_p04_file).read_text())
    jsonschema.validate(doc, MODEL_SCHEMA)


def test_check(carpet_p04_file):
    env = run_json(["check", "--model", carpet_p04_file])
    report_schema = {**ENVELOPE_SCHEMA["$defs"]["condition_report"],
                     "$defs": ENVELOPE_SCHEMA["$defs"]}
    jsonschema.validate(env["result"], report_schema)
    assert env["result"]["positive_word"] == [1]
    assert env["result"]["strongly_regular"] is True


def test_lyapunov_envelope(carpet_p1_file):
    env = run_json(
        ["lyapunov", "--model", carpet_p1_file, "--kind", "sum",
         "--steps", "1000", "--batches", "4", "--seed", "7", "--threads", "1"]
    )
    est_schema = {**ENVELOPE_SCHEMA["$defs"]["lyapunov_estimate"],
                  "$defs": ENVELOPE_SCHEMA["$defs"]}
    jsonschema.validate(env["result"], est_schema)
    assert env["seed"] == 7
    assert env["params"]["steps"] == 1000
    assert env["version"]


def test_extinction_modes(carpet_p04_file):
    env = run_json(
        ["extinction", "--model", carpet_p04_file, "--mode", "fixed",
         "--word", "0,1,2", "--seed", "0", "--threads", "1"]
    )
    assert env["result"]["depth"] == 3
    env = run_json(
        ["extinction", "--model", carpet_p04_file, "--mode", "converged",
         "--tol", "1e-9", "--seed", "1", "--threads", "1"]
    )
    assert env["result"]["converged"] is True
    env = run_json(
        ["extinction", "--model", carpet_p04_file, "--mode", "annealed",
         "--envs", "5", "--seed", "1", "--threads", "1"]
    )
    assert len(env["result"]["mean_q"]) == 2


def test_simulate_with_growth(carpet_p04_file):
    env = run_json(
        ["simulate", "--model", carpet_p04_file, "--start-type", "0",
         "--trials", "400", "--horizon", "30", "--cap", "100000",
         "--seed", "2", "--growth", "--threads", "1"]
    )
    assert 0.0 <= env["result"]["survival"] <= 1.0
    assert env["result"]["surviving_trials"] > 0


def test_simulate_growth_runs_each_trial_once(carpet_p04_file, monkeypatch):
    from mbpre import build_carpet_model, extinction

    # chunks of 64: 200 trials run as 64 + 64 + 64 + 8 rows
    monkeypatch.setattr(extinction, "_CHUNK", 64)
    rows = []
    chunk_outcomes = extinction._chunk_outcomes

    def counting(model, start_type, n_rows, *args):
        rows.append(n_rows)
        return chunk_outcomes(model, start_type, n_rows, *args)

    monkeypatch.setattr(extinction, "_chunk_outcomes", counting)
    env = run_json(
        ["simulate", "--model", carpet_p04_file, "--trials", "200", "--horizon", "30",
         "--cap", "100000", "--seed", "2", "--growth", "--threads", "1"]
    )
    assert rows == [64, 64, 64, 8]
    model = build_carpet_model(0.4).model
    est, hw = extinction.survival_probability_mc(model, 0, 200, 30, cap=10**5, seed=2)
    rate, rate_hw, nsurv = extinction.growth_rate_conditioned(
        model, 0, 200, 30, cap=10**5, seed=2
    )
    assert env["result"] == {
        "survival": est, "half_width": hw,
        "growth_rate": rate, "growth_half_width": rate_hw, "surviving_trials": nsurv,
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--model", "P04", "--trials", "300", "--horizon", "30",
         "--cap", "100000", "--seed", "4", "--growth"],
        ["carpet", "critical", "--bisect", "--iterations", "4", "--trials", "100",
         "--horizon", "60", "--seed", "4"],
        ["lyapunov", "--model", "P04", "--kind", "colmin", "--steps", "5000",
         "--batches", "4", "--seed", "4"],
        ["classify", "--model", "P04", "--steps", "5000", "--batches", "4", "--seed", "4"],
        ["carpet", "critical", "--steps", "5000", "--batches", "4", "--seed", "4"],
    ],
    ids=["simulate", "bisect", "lyapunov", "classify", "critical"],
)
def test_trial_results_independent_of_threads(carpet_p04_file, argv):
    argv = [carpet_p04_file if a == "P04" else a for a in argv]
    one = run_json(argv + ["--threads", "1"])
    two = run_json(argv + ["--threads", "2"])
    assert json.dumps(one["result"]) == json.dumps(two["result"])


def test_simulate_horizon_over_budget_is_budget_error(carpet_p04_file, monkeypatch):
    from mbpre import extinction

    monkeypatch.setattr(extinction, "LETTER_BUDGET", 1000)
    # 10 trials x (99 + 1) generations fit the budget, 10 x (100 + 1) do not
    code, _, err = run_cli(
        ["simulate", "--model", carpet_p04_file, "--trials", "10", "--horizon", "99",
         "--threads", "1"]
    )
    assert code == 0, err
    for argv in (
        ["simulate", "--model", carpet_p04_file, "--trials", "10", "--horizon", "100"],
        ["carpet", "critical", "--bisect", "--trials", "10", "--horizon", "100"],
    ):
        code, _, err = run_cli(argv + ["--threads", "1"])
        assert code == 4
        assert "budget" in err


def test_simulate_growth_short_horizon_is_usage_error(carpet_p04_file):
    code, _, err = run_cli(
        ["simulate", "--model", carpet_p04_file, "--trials", "10", "--horizon", "10",
         "--growth", "--threads", "1"]
    )
    assert code == 2
    assert "horizon" in err


def test_classify_verdict(carpet_p04_file, carpet_p015_file):
    env = run_json(
        ["classify", "--model", carpet_p04_file, "--steps", "5000",
         "--batches", "8", "--seed", "3", "--threads", "1"]
    )
    verdict_schema = {**ENVELOPE_SCHEMA["$defs"]["verdict"], "$defs": ENVELOPE_SCHEMA["$defs"]}
    jsonschema.validate(env["result"]["verdict"], verdict_schema)
    assert env["result"]["verdict"]["kind"] == "survives_positively"
    env = run_json(
        ["classify", "--model", carpet_p015_file, "--steps", "5000",
         "--batches", "8", "--seed", "3", "--threads", "1"]
    )
    assert env["result"]["verdict"]["kind"] == "almost_sure_extinction"


def test_carpet_subcommands():
    env = run_json(
        ["carpet", "lambda-b", "--steps", "1000", "--batches", "4",
         "--seed", "7", "--threads", "1"]
    )
    assert env["command"] == "carpet lambda-b"
    env = run_json(
        ["carpet", "critical", "--steps", "1000", "--batches", "4",
         "--seed", "7", "--threads", "1"]
    )
    assert 0 < env["result"]["p_low"] < env["result"]["p_high"] < 1
    env = run_json(
        ["carpet", "project", "--p", "0.6", "--depth", "4",
         "--samples", "10", "--seed", "5", "--threads", "1"]
    )
    assert len(env["result"]["measures"]) == 10
    env = run_json(
        ["carpet", "offspring", "--p", "0.5", "--column", "1", "--type", "0",
         "--samples", "20000", "--seed", "6", "--threads", "1"]
    )
    assert env["result"]["tv_distance"] < 0.05


def test_carpet_critical_bisect_mode():
    env = run_json(
        ["carpet", "critical", "--bisect", "--iterations", "6",
         "--trials", "100", "--horizon", "60", "--seed", "8", "--threads", "1"]
    )
    assert env["result"]["method"] == "bisect"
    assert 0.05 <= env["result"]["p_low"] < env["result"]["p_high"] <= 0.95


def test_proofkit(carpet_p04_file):
    env = run_json(
        ["proofkit", "--model", carpet_p04_file, "--lambda", "0.057",
         "--samples", "1000", "--seed", "4", "--threads", "1"]
    )
    check_schema = {**ENVELOPE_SCHEMA["$defs"]["oracle_check"], "$defs": ENVELOPE_SCHEMA["$defs"]}
    for check in env["result"]["checks"]:
        jsonschema.validate(check, check_schema)
    assert env["result"]["all_passed"] is True


def test_human_mode_carries_the_same_numbers(carpet_p1_file):
    args = ["lyapunov", "--model", carpet_p1_file, "--steps", "1000",
            "--batches", "4", "--seed", "7", "--threads", "1"]
    envelope = run_json(args)
    code, human, _ = run_cli(args)
    assert code == 0
    assert json.dumps(envelope["result"]["point"]) in human
    assert "--json" not in human


def test_byte_identical_reruns(carpet_p1_file):
    args = ["lyapunov", "--model", carpet_p1_file, "--steps", "1000",
            "--batches", "4", "--seed", "42", "--threads", "1", "--json"]
    _, out1, _ = run_cli(args)
    _, out2, _ = run_cli(args)
    assert out1.encode() == out2.encode()


def test_exit_code_usage():
    code, _, err = run_cli(["lyapunov"])  # missing --model
    assert code == 2
    code, _, err = run_cli(["extinction", "--model", "x", "--mode", "fixed"])
    assert code == 2  # nonexistent model path is a usage problem


def test_threads_below_one_is_usage_error(carpet_p1_file):
    for threads in ("0", "-3"):
        code, _, err = run_cli(
            ["lyapunov", "--model", carpet_p1_file, "--steps", "1000",
             "--batches", "4", "--threads", threads]
        )
        assert code == 2
        assert "threads" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["carpet", "project", "--p", "0.6", "--depth", "3", "--samples", "0"], "--samples"),
        (["carpet", "project", "--p", "0.6", "--depth", "3", "--samples", "-1"], "--samples"),
        (["carpet", "offspring", "--p", "0.5", "--column", "1", "--type", "0", "--samples", "0"],
         "--samples"),
        (["proofkit", "--model", "P04", "--lambda", "0.057", "--samples", "0"], "--samples"),
        (["carpet", "critical", "--bisect", "--iterations", "-1"], "--iterations"),
        (["carpet", "critical", "--bisect", "--iterations", "0"], "--iterations"),
        (["carpet", "lambda-b", "--threads", "1.5"], "--threads"),
        (["check", "--model", "P04", "--max-word-len", "0"], "--max-word-len"),
        (["classify", "--model", "P04", "--max-word-len", "-1"], "--max-word-len"),
    ],
    ids=["project-0", "project-neg", "offspring-0", "proofkit-0", "iterations-neg",
         "iterations-0", "threads-float", "check-max-word-len-0", "classify-max-word-len-neg"],
)
def test_count_below_one_is_usage_error(carpet_p04_file, argv, flag):
    argv = [carpet_p04_file if a == "P04" else a for a in argv]
    code, out, err = run_cli(argv + ["--json"])
    assert code == 2
    assert out == ""
    assert f"argument {flag}:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["lyapunov", "--model", "P1"],
        ["classify", "--model", "P1"],
        ["carpet", "lambda-b"],
        ["carpet", "critical"],
    ],
    ids=["lyapunov", "classify", "lambda-b", "critical"],
)
def test_exponent_word_over_budget_is_budget_error(carpet_p1_file, argv):
    # one letter over LETTER_BUDGET: refused before the word is allocated
    argv = [carpet_p1_file if a == "P1" else a for a in argv]
    code, out, err = run_cli(argv + ["--steps", "67108865", "--batches", "2", "--json"])
    assert code == 4
    assert out == ""
    assert "budget" in err


def _subparser(command):
    from mbpre.cli import _build_parser

    parser = _build_parser()
    for name in command.split():
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[name]
    return parser


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--model", "P04"],
        ["lyapunov", "--model", "P04", "--steps", "500", "--batches", "2"],
        ["extinction", "--model", "P04", "--mode", "fixed", "--word", "0,1"],
        ["simulate", "--model", "P04", "--trials", "20", "--horizon", "10"],
        ["classify", "--model", "P04", "--steps", "500", "--batches", "2"],
        ["carpet", "lambda-b", "--steps", "500", "--batches", "2"],
        ["carpet", "critical", "--steps", "500", "--batches", "2"],
        ["carpet", "project", "--p", "0.6", "--depth", "2", "--samples", "2"],
        ["carpet", "offspring", "--p", "0.5", "--column", "1", "--type", "0", "--samples", "50"],
        ["proofkit", "--model", "P04", "--lambda", "0.057", "--samples", "20"],
    ],
    ids=lambda argv: "-".join(a for a in argv[:2] if not a.startswith("-")),
)
def test_params_echo_every_parsed_option(carpet_p04_file, argv):
    argv = [carpet_p04_file if a == "P04" else a for a in argv]
    env = run_json(argv)
    command = env["command"]
    assert command == " ".join(a for a in argv[:2] if not a.startswith("-"))
    dests = [a.dest for a in _subparser(command)._actions if a.dest not in ("help", "seed", "json")]
    assert list(env["params"]) == dests


def test_exit_code_model_invariant(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "n_types": 2,
                "letters": [
                    {
                        "name": "x",
                        "laws": [[{"z": [0, 0], "p": 0.9}], [{"z": [0, 0], "p": 1.0}]],
                    }
                ],
                "environment": {"kind": "iid", "probs": [1.0]},
            }
        )
    )
    code, _, err = run_cli(["check", "--model", str(bad), "--json"])
    assert code == 3
    assert "sum" in err


def test_nan_mass_model_is_invariant_error(tmp_path):
    # Python's json reads NaN; the mass check must still reject it
    bad = tmp_path / "nan.json"
    bad.write_text(
        '{"n_types": 2, "letters": [{"name": "x", "laws": ['
        '[{"z": [0, 0], "p": NaN}], [{"z": [0, 0], "p": 1.0}]]}], '
        '"environment": {"kind": "iid", "probs": [1.0]}}'
    )
    code, out, err = run_cli(
        ["extinction", "--model", str(bad), "--mode", "fixed", "--word", "0,0"]
    )
    assert code == 3
    assert out == ""
    assert "finite" in err


def test_overflowing_cap_is_usage_error_before_any_draw(carpet_p1_file, monkeypatch):
    from mbpre.model import IidEnvironment

    def no_draw(*args, **kwargs):
        raise AssertionError("sampled a word with an overflowing cap")

    monkeypatch.setattr(IidEnvironment, "sample_word", no_draw)
    for growth in ([], ["--growth"]):
        code, out, err = run_cli(
            ["simulate", "--model", carpet_p1_file, "--trials", "200", "--horizon", "80",
             "--cap", str(2**62), "--threads", "1", *growth]
        )
        assert code == 2
        assert out == ""
        assert "cap" in err


@pytest.mark.parametrize("mode", ["converged", "annealed"])
@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tol_is_usage_error_before_any_draw(carpet_p04_file, monkeypatch, mode, tol):
    from mbpre.model import IidEnvironment

    def no_draw(*args, **kwargs):
        raise AssertionError("sampled a word with a non-finite tol")

    monkeypatch.setattr(IidEnvironment, "sample_word", no_draw)
    code, out, err = run_cli(
        ["extinction", "--model", carpet_p04_file, "--mode", mode, "--tol", tol,
         "--max-depth", "64", "--json"]
    )
    assert code == 2
    assert out == ""
    assert "argument --tol: must be a finite number" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_lambda_is_usage_error(carpet_p04_file, value):
    code, out, err = run_cli(
        ["proofkit", "--model", carpet_p04_file, "--lambda", value, "--samples", "10"]
    )
    assert code == 2
    assert out == ""
    assert "argument --lambda: must be a finite number" in err


@pytest.mark.parametrize(
    "value, want", [("354", 0), ("356", 2), ("800", 2), ("2000", 2), ("1e-300", 2)]
)
def test_finite_lambda_runs_or_is_usage_error(carpet_p04_file, value, want):
    code, out, err = run_cli(
        ["proofkit", "--model", carpet_p04_file, "--lambda", value, "--samples", "10"]
    )
    assert code == want, err
    assert (out == "") == (want != 0)


def test_offspring_samples_over_budget_is_budget_error_before_any_draw(monkeypatch):
    import numpy as np

    from mbpre import carpet

    class NoDraw:
        def random(self, *args, **kwargs):
            raise AssertionError("drew offspring past the budget")

    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: NoDraw())
    monkeypatch.setattr(carpet, "LETTER_BUDGET", 99_999)
    code, out, err = run_cli(
        ["carpet", "offspring", "--p", "0.5", "--column", "0", "--type", "0",
         "--samples", "100000"]
    )
    assert code == 4
    assert out == ""
    assert "budget" in err


@pytest.mark.parametrize("p", ["1.5", "0", "nan"])
def test_offspring_bad_p_is_usage_error_before_any_draw(monkeypatch, p):
    import numpy as np

    class NoDraw:
        def random(self, *args, **kwargs):
            raise AssertionError("drew offspring with a bad p")

    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: NoDraw())
    code, out, err = run_cli(
        ["carpet", "offspring", "--p", p, "--column", "1", "--type", "0", "--samples", "100"]
    )
    assert code == 2
    assert out == ""
    assert err == "error: retention probability must lie in (0, 1]\n"


def test_text_mode_walks_tuple_fields(tmp_path):
    # letter B has no type-1 children, so its expectation matrix has a zero column
    model = tmp_path / "not_allowable.json"
    model.write_text(
        json.dumps(
            {
                "n_types": 2,
                "letters": [
                    {"name": "A", "laws": [[{"z": [1, 1], "p": 1.0}], [{"z": [1, 1], "p": 1.0}]]},
                    {"name": "B", "laws": [[{"z": [2, 0], "p": 1.0}], [{"z": [1, 0], "p": 1.0}]]},
                ],
                "environment": {"kind": "iid", "probs": [0.5, 0.5]},
            }
        )
    )
    offender = ['.allowability_offenders[0].letter = "B"',
                '.allowability_offenders[0].axis = "column"',
                ".allowability_offenders[0].index = 1"]
    code, out, err = run_cli(["check", "--model", str(model)])
    assert code == 0, err
    lines = out.splitlines()
    assert all(f"result{line}" in lines for line in offender)
    assert "result.positive_word = null" in lines
    code, out, err = run_cli(
        ["classify", "--model", str(model), "--steps", "1000", "--batches", "4"]
    )
    assert code == 0, err
    lines = out.splitlines()
    assert all(f"result.report{line}" in lines for line in offender)
    assert "result.report.positive_word = null" in lines


def _imported_modules(argv):
    """The numpy, dataclasses and mbpre modules a fresh interpreter holds after ``main(argv)``."""
    code = (
        "import contextlib, io, json, sys\n"
        "from mbpre.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = main({argv!r})\n"
        "names = [m for m in sys.modules\n"
        "         if m in ('numpy', 'dataclasses') or m.startswith('mbpre')]\n"
        "print(json.dumps([rc, sorted(names)]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rc, names = json.loads(proc.stdout)
    assert rc == 0
    return set(names)


def test_version_does_not_import_numpy():
    assert _imported_modules(["--version"]) == {"mbpre", "mbpre.cli", "mbpre.errors"}


def test_carpet_critical_imports_only_what_it_runs():
    names = _imported_modules(["carpet", "critical", "--steps", "1000", "--batches", "2"])
    assert {"numpy", "mbpre.carpet", "mbpre.lyapunov"} <= names
    assert not names & {"mbpre.proofkit", "mbpre.classify", "mbpre.extinction"}


@pytest.mark.parametrize(
    "argv",
    [
        ["extinction", "--mode", "annealed", "--envs", "2", "--max-depth", "64"],
        ["simulate", "--trials", "20", "--horizon", "10"],
    ],
)
def test_extinction_and_simulate_load_no_matrix_module(carpet_p04_file, argv):
    names = _imported_modules([argv[0], "--model", carpet_p04_file, *argv[1:]])
    assert "mbpre.extinction" in names
    assert not names & {"mbpre.matcore", "mbpre.lyapunov"}


@pytest.mark.parametrize(
    "argv",
    [
        ["carpet", "project", "--p", "0.6", "--depth", "2", "--samples", "2"],
        ["carpet", "critical", "--bisect", "--iterations", "2", "--trials", "10",
         "--horizon", "10"],
    ],
)
def test_carpet_project_and_bisect_load_no_exponent_module(argv):
    names = _imported_modules(argv)
    assert "mbpre.carpet" in names
    assert "mbpre.lyapunov" not in names


def test_threads_defaults_to_one(carpet_p04_file):
    # the echoed default must not depend on the machine's CPU count
    env = run_json(["extinction", "--model", carpet_p04_file, "--mode", "fixed", "--word", "0,1"])
    assert env["params"]["threads"] == 1


def test_exit_code_schema_violation(tmp_path):
    doc = tmp_path / "unknown.json"
    doc.write_text('{"n_types": 2, "letters": [], "environment": {}, "bogus": 1}')
    code, _, err = run_cli(["check", "--model", str(doc), "--json"])
    assert code == 3
    assert "bogus" in err


def test_exit_code_runtime_failure(carpet_p015_file):
    # far below criticality no trial survives, so there is no growth rate
    code, out, err = run_cli(
        ["simulate", "--model", carpet_p015_file, "--trials", "20", "--horizon", "40",
         "--growth"]
    )
    assert code == 1
    assert out == ""
    assert "survived" in err


def test_exit_code_budget():
    code, _, err = run_cli(
        ["carpet", "project", "--p", "1.0", "--depth", "12", "--samples", "1",
         "--seed", "0", "--json"]
    )
    assert code == 4


def test_project_samples_over_budget_is_budget_error_before_any_carpet(monkeypatch):
    import numpy as np

    from mbpre import carpet

    class NoDraw:
        def random(self, *args, **kwargs):
            raise AssertionError("drew a carpet past the budget")

    argv = ["carpet", "project", "--p", "0.5", "--depth", "2", "--seed", "0", "--samples"]
    over = carpet.MAX_PROJECTION_SAMPLES + 1
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: NoDraw())
    code, out, err = run_cli(argv + [str(over)])
    assert (code, out) == (4, "")
    assert "budget" in err
    monkeypatch.undo()
    # the budget itself is allowed, one more sample is not
    monkeypatch.setattr(carpet, "MAX_PROJECTION_SAMPLES", 5)
    assert len(run_json(argv + ["5"])["result"]["measures"]) == 5
    assert run_cli(argv + ["6"])[0] == 4


@pytest.mark.parametrize("depth", ["40", "45"])
def test_carpet_depth_past_int64_is_usage_error_before_any_draw(monkeypatch, depth):
    import numpy as np

    class NoDraw:
        def random(self, *args, **kwargs):
            raise AssertionError("drew squares past the int64 depth")

    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: NoDraw())
    code, out, err = run_cli(
        ["carpet", "project", "--p", "0.14", "--depth", depth, "--samples", "3000",
         "--seed", "1"]
    )
    assert code == 2
    assert out == ""
    assert "[1, 39]" in err


def test_carpet_depth_39_projects():
    # the deepest allowed carpet is drawn and projected without wrapping
    env = run_json(
        ["carpet", "project", "--p", "0.14", "--depth", "39", "--samples", "20", "--seed", "1"]
    )
    measures = env["result"]["measures"]
    assert len(measures) == 20
    assert all(0.0 <= m <= 2.0 for m in measures)
    # and an edge square measures its exact 2 / 3^n at every depth up to it
    from mbpre import SquareSet, projection_measure

    for depth in range(12, 40):
        edge = SquareSet(depth, [[3**depth - 1, 0]])
        assert projection_measure(edge) == pytest.approx(2 / 3**depth, rel=1e-15, abs=0)


def test_annealed_letter_budget_exit_code(carpet_p04_file):
    code, out, err = run_cli(
        ["extinction", "--model", carpet_p04_file, "--mode", "annealed",
         "--envs", "2000", "--max-depth", "65536", "--threads", "1"]
    )
    assert code == 4
    assert out == ""
    assert "budget" in err


def test_console_entry_point(carpet_p1_file):
    proc = subprocess.run(
        [sys.executable, "-m", "mbpre.cli", "lyapunov", "--model", carpet_p1_file,
         "--steps", "1000", "--batches", "4", "--seed", "7", "--threads", "1", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    envelope = json.loads(proc.stdout)
    jsonschema.validate(envelope, ENVELOPE_SCHEMA)
