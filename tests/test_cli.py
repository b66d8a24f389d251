import argparse
import contextlib
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env
from mbpre.cli import main

try:
    import jsonschema
except ImportError:  # the optional ``test`` extra: only the schema checks need it
    jsonschema = None

ROOT = Path(__file__).resolve().parents[1]
SCHEMA_DIR = ROOT / "schemas"
ENVELOPE_SCHEMA = json.loads((SCHEMA_DIR / "cli_output.schema.json").read_text())
MODEL_SCHEMA = json.loads((SCHEMA_DIR / "model.schema.json").read_text())


def validate(instance, schema):
    """Check ``instance`` against a JSON schema, where jsonschema is installed."""
    if jsonschema is not None:
        jsonschema.validate(instance, schema)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run_cli(argv + ["--json"])
    assert code == 0, err
    envelope = json.loads(out)
    validate(envelope, ENVELOPE_SCHEMA)
    return envelope


def test_model_files_validate_against_schema(carpet_p04_file):
    doc = json.loads(Path(carpet_p04_file).read_text())
    pytest.importorskip("jsonschema").validate(doc, MODEL_SCHEMA)


def test_only_schema_checks_need_jsonschema():
    # without the optional jsonschema the schema-only test skips, and the
    # rest of the suite still runs
    hide = (
        "import sys, pytest; sys.modules['jsonschema'] = None; "
        "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', "
        "'tests/test_cli.py::test_model_files_validate_against_schema', "
        "'tests/test_cli.py::test_check']))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", hide], cwd=ROOT, capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stdout
    assert "1 passed, 1 skipped" in proc.stdout


def test_check(carpet_p04_file):
    env = run_json(["check", "--model", carpet_p04_file])
    report_schema = {**ENVELOPE_SCHEMA["$defs"]["condition_report"],
                     "$defs": ENVELOPE_SCHEMA["$defs"]}
    validate(env["result"], report_schema)
    assert env["result"]["positive_word"] == [1]
    assert env["result"]["strongly_regular"] is True


def test_lyapunov_envelope(carpet_p1_file):
    env = run_json(
        ["lyapunov", "--model", carpet_p1_file, "--kind", "sum",
         "--steps", "1000", "--batches", "4", "--seed", "7", "--threads", "1"]
    )
    est_schema = {**ENVELOPE_SCHEMA["$defs"]["lyapunov_estimate"],
                  "$defs": ENVELOPE_SCHEMA["$defs"]}
    validate(env["result"], est_schema)
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
    res = extinction.survival_estimate(build_carpet_model(0.4), 0, 200, 30, 10**5, 2)
    assert env["result"] == {
        "survival": res.survival, "half_width": res.half_width,
        "growth_rate": res.growth_rate, "growth_half_width": res.growth_half_width,
        "surviving_trials": res.surviving_trials,
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--model", "P04", "--trials", "300", "--horizon", "30",
         "--cap", "100000", "--seed", "4", "--growth"],
        ["carpet", "critical", "--bisect", "--iterations", "4", "--seed", "4"],
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


def test_pgf_table_over_budget_is_budget_error(wide_table_file):
    # a 0.63 MB file whose padded pgf table would take 192 MB: the commands
    # that compose or simulate exit 4, those that use only the means run
    for argv in (
        ["simulate", "--trials", "1000", "--horizon", "20"],
        ["extinction", "--mode", "fixed", "--word", "0,1"],
    ):
        code, out, err = run_cli([argv[0], "--model", wide_table_file, *argv[1:]])
        assert (code, out) == (4, ""), err
        assert "pgf table" in err
    assert run_json(["check", "--model", wide_table_file])["result"]["positive_word"] == [0]
    env = run_json(["lyapunov", "--model", wide_table_file, "--steps", "1000", "--batches", "4"])
    assert env["result"]["point"] > 0


def test_simulate_horizon_over_budget_is_budget_error(carpet_p04_file, monkeypatch):
    from mbpre import extinction

    monkeypatch.setattr(extinction, "LETTER_BUDGET", 1000)
    # 10 trials x (99 + 1) generations fit the budget, 10 x (100 + 1) do not
    code, _, err = run_cli(
        ["simulate", "--model", carpet_p04_file, "--trials", "10", "--horizon", "99",
         "--threads", "1"]
    )
    assert code == 0, err
    code, _, err = run_cli(
        ["simulate", "--model", carpet_p04_file, "--trials", "10", "--horizon", "100",
         "--threads", "1"]
    )
    assert code == 4
    assert "budget" in err


def test_simulate_trials_over_budget_is_budget_error(carpet_p04_file, monkeypatch):
    from mbpre import extinction
    from mbpre.model import IidEnvironment

    def no_draw(*args, **kwargs):
        raise AssertionError("sampled a word past the trial budget")

    monkeypatch.setattr(extinction, "MAX_TRIALS", 10)
    # the budget itself is allowed, one more trial is not
    argv = ["simulate", "--model", carpet_p04_file, "--horizon", "5", "--trials"]
    assert run_cli(argv + ["10"])[0] == 0
    with monkeypatch.context() as m:
        m.setattr(IidEnvironment, "sample_word", no_draw)
        code, out, err = run_cli(argv + ["11"])
    assert (code, out) == (4, "")
    assert "budget" in err


def test_simulate_growth_short_horizon_is_usage_error(carpet_p04_file):
    code, _, err = run_cli(
        ["simulate", "--model", carpet_p04_file, "--trials", "10", "--horizon", "10",
         "--growth", "--threads", "1"]
    )
    assert code == 2
    assert "horizon" in err


def test_simulate_growth_horizon_checked_before_any_draw(carpet_p04_file, monkeypatch):
    from mbpre import IidEnvironment

    def no_draw(*args, **kwargs):
        raise AssertionError("sampled a word for a rejected horizon")

    monkeypatch.setattr(IidEnvironment, "sample_word", no_draw)
    code, out, err = run_cli(
        ["simulate", "--model", carpet_p04_file, "--trials", "10", "--horizon", "19",
         "--growth"]
    )
    assert (code, out) == (2, "")
    assert "horizon must be >= 20" in err


def test_classify_verdict(carpet_p04_file, carpet_p015_file):
    env = run_json(
        ["classify", "--model", carpet_p04_file, "--steps", "5000",
         "--batches", "8", "--seed", "3", "--threads", "1"]
    )
    verdict_schema = {**ENVELOPE_SCHEMA["$defs"]["verdict"], "$defs": ENVELOPE_SCHEMA["$defs"]}
    validate(env["result"]["verdict"], verdict_schema)
    assert env["result"]["verdict"]["kind"] == "survives_positively"
    env = run_json(
        ["classify", "--model", carpet_p015_file, "--steps", "5000",
         "--batches", "8", "--seed", "3", "--threads", "1"]
    )
    assert env["result"]["verdict"]["kind"] == "almost_sure_extinction"


def test_classify_finds_a_two_letter_witness(tmp_path):
    # expectation matrices [[1, 1], [0, 2]] and [[2, 0], [1, 1]]: no
    # one-letter word is positive, the word [0, 1] is
    triangles = {
        "n_types": 2,
        "letters": [
            {"name": "up", "laws": [[{"z": [1, 1], "p": 1.0}], [{"z": [0, 2], "p": 1.0}]]},
            {"name": "lo", "laws": [[{"z": [2, 0], "p": 1.0}], [{"z": [1, 1], "p": 1.0}]]},
        ],
        "environment": {"kind": "iid", "probs": [0.5, 0.5]},
    }
    path = tmp_path / "triangles.json"
    path.write_text(json.dumps(triangles))
    env = run_json(["classify", "--model", str(path), "--steps", "1000", "--batches", "4"])
    assert env["result"]["report"]["positive_word"] == [0, 1]
    assert env["result"]["verdict"]["kind"] == "survives_positively"
    assert "max_word_len" not in env["params"]


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
        ["carpet", "critical", "--bisect", "--iterations", "6", "--seed", "8", "--threads", "1"]
    )
    assert env["result"]["method"] == "bisect"
    assert 0.05 <= env["result"]["p_low"] < env["result"]["p_high"] <= 0.95
    # the survival bisection's options are gone from carpet critical
    assert list(env["params"]) == ["steps", "batches", "bisect", "iterations", "threads"]
    for flag in ("--trials", "--horizon", "--cap"):
        code, out, err = run_cli(["carpet", "critical", "--bisect", flag, "10"])
        assert (code, out) == (2, "")
        assert "unrecognized arguments" in err


def test_proofkit(carpet_p04_file):
    env = run_json(
        ["proofkit", "--model", carpet_p04_file, "--lambda", "0.057",
         "--samples", "1000", "--seed", "4", "--threads", "1"]
    )
    check_schema = {**ENVELOPE_SCHEMA["$defs"]["oracle_check"], "$defs": ENVELOPE_SCHEMA["$defs"]}
    for check in env["result"]["checks"]:
        validate(check, check_schema)
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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lyapunov", "--seed", "abc"], "argument --seed: seed must be an integer or 'random'"),
        (["lyapunov", "--seed", "-1"], "argument --seed: seed must be non-negative"),
        (["extinction", "--tol", "abc"], "argument --tol: invalid float value: 'abc'"),
        (["extinction", "--mode", "fixed"], "error: --word is required in fixed mode"),
        (["extinction", "--mode", "fixed", "--word", "0,x"],
         "error: --word must be comma-separated integers"),
        # the positive-word search has one bound, its state budget (exit 4)
        (["check", "--max-word-len", "1"], "unrecognized arguments: --max-word-len 1"),
        (["classify", "--max-word-len", "1"], "unrecognized arguments: --max-word-len 1"),
    ],
    ids=["seed-text", "seed-negative", "tol-text", "fixed-no-word", "fixed-bad-word",
         "check-max-word-len", "classify-max-word-len"],
)
def test_bad_option_is_usage_error(carpet_p04_file, argv, message):
    argv = argv[:1] + ["--model", carpet_p04_file] + argv[1:]
    code, out, err = run_cli(argv + ["--json"])
    assert (code, out) == (2, "")
    assert message in err


def _main_bytes(argv):
    code, out, err = run_cli(argv)
    return code, out.encode(), err


def _launch_bytes(argv):
    proc = _launch(argv)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("run", [_main_bytes, _launch_bytes], ids=["main", "launch"])
def test_random_seed_is_echoed_and_reruns_the_same_bytes(carpet_p04_file, run):
    # through launch, _hashlib is blocked and secrets still reads os.urandom
    argv = ["extinction", "--model", carpet_p04_file, "--mode", "annealed", "--envs", "3",
            "--max-depth", "64", "--json"]
    code, first, err = run(argv + ["--seed", "random"])
    assert code == 0, err
    seed = json.loads(first)["seed"]
    assert isinstance(seed, int) and 0 <= seed < 2**63
    assert run(argv + ["--seed", str(seed)])[:2] == (0, first)


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
    ],
    ids=["project-0", "project-neg", "offspring-0", "proofkit-0", "iterations-neg",
         "iterations-0", "threads-float"],
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

    parser = _build_parser(command.split())  # the parser of this command's command line
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


def test_deeply_nested_model_is_model_error(tmp_path):
    # json.loads raises RecursionError past the recursion limit
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    code, out, err = run_cli(["check", "--model", str(deep)])
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "invalid JSON" in err


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


@pytest.mark.parametrize("atom", [[2**62, 2**62], [2**63 - 1, 1]])
@pytest.mark.parametrize(
    "argv", [["check"], ["simulate", "--trials", "4", "--horizon", "3"]], ids=["check", "simulate"]
)
def test_atom_total_past_int64_is_invariant_error(tmp_path, atom, argv):
    bad = tmp_path / "big.json"
    bad.write_text(
        json.dumps(
            {
                "n_types": 2,
                "letters": [
                    {"name": "x", "laws": [[{"z": atom, "p": 1.0}], [{"z": [1, 1], "p": 1.0}]]}
                ],
                "environment": {"kind": "iid", "probs": [1.0]},
            }
        )
    )
    code, out, err = run_cli([*argv, "--model", str(bad)])
    assert (code, out) == (3, "")
    assert "int64" in err


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
    """Which of numpy, dataclasses, json and mbpre.* a fresh interpreter holds after ``main(argv)``.

    The child reads ``sys.modules`` before it imports json to report them.
    """
    code = (
        "import contextlib, io, sys\n"
        "from mbpre.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = main({argv!r})\n"
        "names = [m for m in sys.modules\n"
        "         if m in ('numpy', 'dataclasses', 'json') or m.startswith('mbpre')]\n"
        "import json\n"
        "print(json.dumps([rc, sorted(names)]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    rc, names = json.loads(proc.stdout)
    assert rc == 0
    return set(names)


def test_version_does_not_import_numpy():
    # nor json nor mbpre.errors: only a result, an error or --kind needs them
    assert _imported_modules(["--version"]) == {"mbpre", "mbpre.cli"}


def test_help_names_every_command():
    code, out, _ = run_cli(["--help"])
    assert code == 0
    assert "{check,lyapunov,extinction,simulate,classify,carpet,proofkit}" in out
    code, out, _ = run_cli(["carpet", "--help"])
    assert code == 0
    assert "{lambda-b,critical,project,offspring}" in out


def test_unknown_command_is_invalid_choice():
    code, out, err = run_cli(["bogus"])
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (
        "mbpre: error: argument command: invalid choice: 'bogus' (choose from 'check', "
        "'lyapunov', 'extinction', 'simulate', 'classify', 'carpet', 'proofkit')"
    )


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


# Runs `launch` with an `os._exit` that reports on stderr, before it ends
# the process, which of numpy, numpy.random, numpy.polynomial, dataclasses
# and mbpre.* it has loaded.
_SPIED_EXIT_LAUNCH = """
import os, sys
from mbpre import cli
real_exit = os._exit
def spy_exit(code):
    spied = ("numpy", "numpy.random", "numpy.polynomial", "dataclasses")
    names = [m for m in sys.modules if m in spied or m.startswith("mbpre")]
    os.write(2, " ".join(sorted(names)).encode())
    real_exit(code)
os._exit = spy_exit
sys.argv = ["mbpre", *sys.argv[1:]]
cli.launch()
"""


@pytest.mark.parametrize(
    "argv, loaded, not_loaded",
    [
        (["carpet", "project", "--p", "0.6", "--depth", "2", "--samples", "2"],
         {"mbpre.carpet", "numpy.random"}, {"mbpre.lyapunov", "mbpre.extinction"}),
        (["carpet", "critical", "--bisect"],
         {"mbpre.critical"},
         {"numpy", "numpy.random", "numpy.polynomial", "dataclasses", "mbpre.model",
          "mbpre.carpet", "mbpre.lyapunov", "mbpre.extinction"}),
    ],
    ids=["project", "bisect"],
)
def test_carpet_project_and_bisect_load_only_their_modules(argv, loaded, not_loaded):
    # the bisection decides on Ulam's lambda_B, stored as two constants, so
    # it loads neither numpy nor the model, and its dict result is written
    # without dataclasses (and the inspect it imports)
    proc = subprocess.run(
        [sys.executable, "-c", _SPIED_EXIT_LAUNCH, *argv],
        capture_output=True, text=True, env=child_env(),
    )
    assert (proc.returncode, proc.stdout) == (0, run_cli(argv)[1])
    names = set(proc.stderr.split())
    assert loaded <= names
    assert not names & not_loaded


def test_exit_code_mass_above_one(tmp_path):
    doc = {
        "n_types": 2,
        "letters": [
            {
                "name": "x",
                "laws": [[{"z": [0, 0], "p": 1.0000000000005}], [{"z": [0, 0], "p": 1.0}]],
            }
        ],
        "environment": {"kind": "iid", "probs": [1.0]},
    }
    if jsonschema is not None:
        with pytest.raises(jsonschema.ValidationError, match="maximum of 1"):
            jsonschema.validate(doc, MODEL_SCHEMA)
    bad = tmp_path / "heavy.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(["check", "--model", str(bad), "--json"])
    assert (code, out) == (3, "")
    assert "a mass exceeds 1" in err


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
    assert "no trial of 20 survived to generation 40" in err
    # without --growth the same trials give a survival share of 0
    env = run_json(
        ["simulate", "--model", carpet_p015_file, "--trials", "20", "--horizon", "40"]
    )
    assert env["result"]["survival"] == 0.0


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
         "--envs", "1024", "--max-depth", "65537", "--threads", "1"]
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
        env=child_env(),
    )
    assert proc.returncode == 0
    envelope = json.loads(proc.stdout)
    validate(envelope, ENVELOPE_SCHEMA)


_MODULE = [sys.executable, "-m", "mbpre.cli"]
# a result well over a pipe's 64 kB buffer, in either format
_LARGE = ["carpet", "project", "--p", "0.6", "--depth", "3", "--samples", "5000"]


def _launch(argv):
    return subprocess.run([*_MODULE, *argv], capture_output=True, env=child_env())


def test_launch_prints_what_main_prints(carpet_p04_file):
    small = ["extinction", "--model", carpet_p04_file, "--mode", "annealed", "--envs", "8"]
    for argv in (small, _LARGE):
        for fmt in ([], ["--json"]):
            proc = _launch(argv + fmt)
            code, out, err = run_cli(argv + fmt)
            assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), b"")
            assert (len(proc.stdout) > 1 << 16) == (argv is _LARGE)


@pytest.mark.parametrize(
    "argv, want",
    [
        (["extinction", "--mode", "annealed", "--envs", "0"], 2),
        (["carpet", "project", "--p", "0.5", "--depth", "2", "--samples", "1048577"], 4),
    ],
)
def test_launch_exit_codes(carpet_p04_file, argv, want):
    if argv[0] == "extinction":
        argv = [argv[0], "--model", carpet_p04_file, *argv[1:]]
    proc = _launch(argv)
    assert (proc.returncode, proc.stdout) == (want, b"")
    assert proc.stderr.startswith(b"error: ")


# Runs `python -m mbpre.cli` with two spies: a collector callback that counts
# the collections made while the module's `main` is on the stack, and an
# `os._exit` that reports the code, the collector's state and that count on
# stderr before it ends the process. An atexit handler marks teardown.
_SPIED_MODULE_LAUNCH = """
import atexit, gc, os, runpy, sys
in_main = []
def on_collection(phase, info):
    frame = sys._getframe(1)
    while phase == "start" and frame is not None:
        if frame.f_code.co_name == "main" and frame.f_code.co_filename.endswith("cli.py"):
            in_main.append(info["generation"])
            break
        frame = frame.f_back
gc.callbacks.append(on_collection)
atexit.register(os.write, 2, b"teardown\\n")
real_exit = os._exit
def spy_exit(code):
    os.write(2, f"{code} {gc.isenabled()} {gc.get_freeze_count()} {len(in_main)}\\n".encode())
    real_exit(code)
os._exit = spy_exit
sys.argv = ["mbpre", *sys.argv[1:]]
runpy.run_module("mbpre.cli", run_name="__main__")
"""


def test_module_launch_runs_without_the_collector_and_skips_teardown(carpet_p04_file):
    # `python -m mbpre.cli` runs launch: the collector is off while main runs
    # (numpy's import alone would otherwise collect dozens of times), nothing
    # is frozen, and os._exit ends the process with main's code before any
    # teardown; stdout is what main prints
    annealed = ["extinction", "--model", carpet_p04_file, "--mode", "annealed", "--envs"]
    for argv, want in ((["--version"], 0), (annealed + ["8"], 0), (annealed + ["0"], 2)):
        proc = subprocess.run(
            [sys.executable, "-c", _SPIED_MODULE_LAUNCH, *argv],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        code, out, _ = run_cli(argv)
        assert (proc.returncode, proc.stdout) == (want, out) == (code, out)
        assert proc.stderr.splitlines()[-1] == f"{want} False 0 0", proc.stderr


def _assert_one_output_error(proc_code, stderr, reason):
    assert proc_code == 1
    assert stderr.decode().splitlines() == [f"error: cannot write output: {reason}"]


# Runs `launch` with a spy on `main` that reports on stderr, before `main`
# runs, the OPENBLAS_NUM_THREADS that numpy will load with and whether numpy
# is loaded, and once it returns, whether `_hashlib` is blocked and whether
# libcrypto is mapped (None where /proc/self/maps cannot be read).
_SPIED_MAIN_LAUNCH = """
import os, sys
from mbpre import cli
real_main = cli.main
def maps_libcrypto():
    try:
        with open("/proc/self/maps") as fh:
            return any("libcrypto" in line for line in fh)
    except OSError:
        return None
def spy_main():
    blas = os.environ.get("OPENBLAS_NUM_THREADS")
    os.write(2, f"{blas} {'numpy' in sys.modules}\\n".encode())
    code = real_main()
    os.write(2, f"{sys.modules.get('_hashlib') is None} {maps_libcrypto()}\\n".encode())
    return code
cli.main = spy_main
sys.argv = ["mbpre", *sys.argv[1:]]
cli.launch()
"""


def test_launch_pins_blas_to_one_thread_before_numpy_loads(carpet_p04_file):
    # an inherited setting is replaced too; the library leaves BLAS alone
    argv = ["extinction", "--model", carpet_p04_file, "--mode", "annealed", "--envs", "8"]
    for inherited in (None, "4"):
        env = child_env()
        env.pop("OPENBLAS_NUM_THREADS", None)
        if inherited is not None:
            env["OPENBLAS_NUM_THREADS"] = inherited
        proc = subprocess.run(
            [sys.executable, "-c", _SPIED_MAIN_LAUNCH, *argv], capture_output=True, text=True, env=env
        )
        assert (proc.returncode, proc.stdout) == (0, run_cli(argv)[1])
        before_main, _ = proc.stderr.splitlines()
        assert before_main == "1 False"
    before = os.environ.get("OPENBLAS_NUM_THREADS")
    run_cli(argv)
    assert os.environ.get("OPENBLAS_NUM_THREADS") == before


@pytest.mark.parametrize(
    "argv",
    [
        ["extinction", "--model", "P04", "--mode", "annealed", "--envs", "8"],
        ["simulate", "--model", "P04", "--trials", "300", "--horizon", "30", "--growth"],
        ["classify", "--model", "P04", "--steps", "2000", "--batches", "4"],
        ["carpet", "project", "--p", "0.6", "--depth", "3", "--samples", "10"],
        ["proofkit", "--model", "P04", "--lambda", "0.057", "--samples", "100"],
    ],
    ids=["annealed", "simulate", "classify", "project", "proofkit"],
)
def test_launch_keeps_openssl_out_of_the_process(carpet_p04_file, argv):
    # numpy.random imports secrets, hmac and through it OpenSSL's _hashlib;
    # launch blocks _hashlib, so libcrypto is never mapped, and the bytes
    # are main's
    argv = [carpet_p04_file if a == "P04" else a for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", _SPIED_MAIN_LAUNCH, *argv],
        capture_output=True, text=True, env=child_env(),
    )
    assert (proc.returncode, proc.stdout) == (0, run_cli(argv)[1])
    _, after_main = proc.stderr.splitlines()
    blocked, mapped = after_main.split()
    assert blocked == "True"
    if sys.platform.startswith("linux"):
        assert mapped == "False"


def test_launch_keeps_a_hashlib_loaded_before_it(carpet_p04_file):
    # as with a sitecustomize that loads it: launch does not unload it
    pytest.importorskip("_hashlib")
    argv = ["extinction", "--model", carpet_p04_file, "--mode", "annealed", "--envs", "8"]
    proc = subprocess.run(
        [sys.executable, "-c", "import _hashlib\n" + _SPIED_MAIN_LAUNCH, *argv],
        capture_output=True, text=True, env=child_env(),
    )
    assert (proc.returncode, proc.stdout) == (0, run_cli(argv)[1])
    _, after_main = proc.stderr.splitlines()
    assert after_main.split()[0] == "False"


def test_library_leaves_hashlib_importable(carpet_p04_file):
    # only launch blocks _hashlib: main, as the library does, leaves it alone
    code, _, err = run_cli(
        ["extinction", "--model", carpet_p04_file, "--mode", "annealed", "--envs", "3",
         "--max-depth", "64", "--seed", "random"]
    )
    assert code == 0, err
    assert sys.modules.get("_hashlib", "absent") is not None


def test_launch_into_a_closed_pipe_is_one_error_line():
    # `mbpre ... | head -c 100`: the reader goes away before the result ends
    proc = subprocess.Popen(
        [*_MODULE, *_LARGE, "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert head.startswith(b"{")
    _assert_one_output_error(proc.wait(timeout=120), stderr, "[Errno 32] Broken pipe")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize(
    "output, unbuffered",
    [(output, unbuffered) for output in ("result", "version", "help") for unbuffered in (False, True)],
    ids=["final-flush", "print", "version-final-flush", "version-print", "help-final-flush",
         "help-print"],
)
def test_launch_onto_a_full_device_is_one_error_line(carpet_p04_file, output, unbuffered):
    # buffered, the small output fails at launch's final flush; unbuffered,
    # at main's print or argparse's write
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = {
        "result": ["extinction", "--model", carpet_p04_file, "--mode", "annealed", "--envs", "8"],
        "version": ["--version"],
        "help": ["check", "--help"],
    }[output]
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([*_MODULE, *argv], stdout=full, stderr=subprocess.PIPE, env=env)
    _assert_one_output_error(
        proc.returncode, proc.stderr, "[Errno 28] No space left on device"
    )


def test_launch_with_stdout_closed_is_one_error_line(carpet_p04_file):
    # `mbpre ... >&-`: with fd 1 closed at startup, sys.stdout is None
    argv = ["extinction", "--model", carpet_p04_file, "--mode", "annealed", "--envs", "8"]
    proc = subprocess.run(
        [*_MODULE, *argv], stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1), env=child_env()
    )
    _assert_one_output_error(proc.returncode, proc.stderr, "stdout is closed")


def test_console_script_is_launch():
    import importlib

    from mbpre import cli

    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, name = scripts["mbpre"].partition(":")
    assert getattr(importlib.import_module(module), name) is cli.launch


@pytest.mark.parametrize("argv", [["extinction", "--mode", "annealed", "--envs", "8"], ["--version"]])
def test_main_leaves_the_collector_as_it_found_it(carpet_p04_file, argv):
    # only launch turns the collector off: in-process callers of main keep one
    # that still visits their heap
    if argv[0] == "extinction":
        argv = [argv[0], "--model", carpet_p04_file, *argv[1:]]
    before = (gc.isenabled(), gc.get_freeze_count())
    assert run_cli(argv)[0] == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


@pytest.fixture(scope="module")
def markov3_file(tmp_path_factory):
    """The carpet's three columns at p = 0.4 under a 3-state Markov chain."""
    import numpy as np

    from mbpre import MarkovEnvironment, ModelSpec, build_carpet_model, write_model

    carpet = build_carpet_model(0.4)
    transition = np.full((3, 3), 0.25) + np.eye(3) * 0.25
    env = MarkovEnvironment(np.full(3, 1.0 / 3.0), transition)
    path = tmp_path_factory.mktemp("markov") / "markov3.json"
    path.write_text(write_model(ModelSpec(carpet.n_types, carpet.letters, env)))
    return str(path)


@pytest.mark.parametrize(
    "argv, small, large",
    [
        (["extinction", "--model", "CARPET", "--mode", "annealed", "--max-depth", "64",
          "--envs"], "8", "2048"),
        (["simulate", "--model", "CARPET", "--growth", "--trials"], "100", "3000"),
        (["carpet", "project", "--p", "0.6", "--depth", "4", "--samples"], "5", "200"),
        (["proofkit", "--model", "CARPET", "--lambda", "0.1", "--samples"], "100", "6000"),
        (["classify", "--model", "MARKOV", "--batches", "4", "--steps"], "100", "20000"),
        (["carpet", "critical", "--bisect", "--iterations"], "2", "12"),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_main_makes_no_cyclic_garbage_that_grows_with_its_input(
    carpet_p04_file, markov3_file, argv, small, large
):
    # a launch runs with the collector off, so a cycle made per trial,
    # environment, sample or step would stay until the process ends
    argv = [{"CARPET": carpet_p04_file, "MARKOV": markov3_file}.get(a, a) for a in argv]
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert run_cli(argv + [small])[0] == 0  # first-run imports and caches
        unreachable = []
        for size in (small, large):
            gc.collect()
            assert run_cli(argv + [size])[0] == 0
            unreachable.append(gc.collect())
    finally:
        if enabled:
            gc.enable()
    assert abs(unreachable[1] - unreachable[0]) <= 8, unreachable
