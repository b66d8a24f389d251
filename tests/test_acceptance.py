"""Acceptance criteria, one test per criterion, each printing a summary line.

Criteria 1 and 2 encode externally quoted reference numbers for the
carpet family's growth exponent that our own estimator, an exact
word-enumeration bracket, and the Jensen bound lambda_B <= log(8/3) all
contradict; they are asserted as stated and fail honestly. See README
"Known discrepancies".
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from mbpre import (
    annealed_extinction,
    build_carpet_model,
    build_proof_params,
    check_conditions,
    classify,
    empirical_offspring_stats,
    estimate_exponent,
    exponent_along_word,
    extinction_converged,
    extinction_fixed_env,
    lambda_b,
    oracle_suite,
    survival_estimate,
)
from mbpre.carpet import COLUMN_MATRICES
from conftest import ACCEPTANCE_LINES, child_env, make_decoupled_model
from oracles import extinction_by_enumeration, law_as_dict, random_model


def record(num, ok, detail):
    line = f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def cli_json(args):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "mbpre.cli", *args, "--json"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout), elapsed


@pytest.fixture(scope="module")
def lambda_b_estimate():
    return lambda_b(100_000, 32, seed=7)


def test_criterion_01_lambda_b_reference_interval():
    envelope, elapsed = cli_json(
        ["carpet", "lambda-b", "--steps", "100000", "--batches", "32",
         "--seed", "7", "--threads", "1"]
    )
    point = envelope["result"]["point"]
    ok = 1.355 <= point <= 1.405 and elapsed < 60.0
    record(
        1,
        ok,
        f"lambda_b point {point:.4f} vs required [1.355, 1.405], {elapsed:.1f}s",
    )


def test_criterion_02_critical_p_reference_interval():
    envelope, _ = cli_json(
        ["carpet", "critical", "--steps", "100000", "--batches", "32",
         "--seed", "7", "--threads", "1"]
    )
    lo, hi = envelope["result"]["p_low"], envelope["result"]["p_high"]
    width_ok = hi - lo < 0.01
    intersects = hi >= 0.247833 and lo <= 0.25487
    record(
        2,
        width_ok and intersects,
        f"critical interval [{lo:.5f}, {hi:.5f}] vs required overlap of "
        f"[0.247833, 0.25487] (width ok: {width_ok})",
    )


def test_criterion_03_exponent_kind_agreement():
    points = {
        kind: estimate_exponent(
            COLUMN_MATRICES,
            build_carpet_model(0.5).environment,
            kind=kind,
            steps_per_batch=100_000,
            batches=8,
            seed=11,
        ).point
        for kind in ("sum", "colmin", "rowmin")
    }
    spread = max(points.values()) - min(points.values())
    record(3, spread < 0.01, f"kind spread {spread:.2e} < 0.01 {points}")


def test_criterion_04_scaling_identity():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(20):
        p = float(rng.uniform(0.01, 0.99))
        word = rng.integers(0, 3, size=1000)
        diff = exponent_along_word(
            [p * m for m in COLUMN_MATRICES], word
        ) - exponent_along_word(COLUMN_MATRICES, word)
        worst = max(worst, abs(diff - math.log(p)))
    record(4, worst <= 1e-12, f"max |shift - log p| = {worst:.2e} <= 1e-12")


def test_criterion_05_extinction_matches_enumeration():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(50):
        model = random_model(rng)
        depth = int(rng.integers(1, 5))
        word = rng.integers(0, model.n_letters, size=depth)
        got = extinction_fixed_env(model, word).q
        for start in range(2):
            want = extinction_by_enumeration(model, word, start)
            worst = max(worst, abs(got[start] - want))
    record(5, worst <= 1e-12, f"max |composition - enumeration| = {worst:.2e}")


def test_criterion_06_analytic_fixed_point():
    model = make_decoupled_model(0.25)
    res = extinction_converged(model, seed=3, tol=1e-9)
    q_err = float(np.max(np.abs(res.q - 1 / 3)))
    surv = survival_estimate(model, 0, 10_000, 200, seed=5).survival
    s_err = abs(surv - 2 / 3)
    ok = res.converged and q_err <= 1e-6 and s_err <= 0.02
    record(6, ok, f"|q - 1/3| = {q_err:.2e} <= 1e-6, |surv - 2/3| = {s_err:.3f} <= 0.02")


def test_criterion_07_trichotomy():
    timings = {}
    verdicts = {}
    for p in (0.40, 0.15):
        model = build_carpet_model(p)
        t0 = time.perf_counter()
        report = check_conditions(model)
        est = estimate_exponent(
            model.expectation_matrices(),
            model.environment,
            kind="sum",
            steps_per_batch=100_000,
            batches=32,
            seed=19,
        )
        verdicts[p] = classify(report, est).kind
        timings[p] = time.perf_counter() - t0
    mean_q_15, share_15 = annealed_extinction(
        build_carpet_model(0.15), 100, tol=1e-9, seed=23
    )
    mean_q_40, share_40 = annealed_extinction(
        build_carpet_model(0.40), 100, tol=1e-9, seed=23
    )
    ok = (
        verdicts[0.40] == "survives_positively"
        and verdicts[0.15] == "almost_sure_extinction"
        and timings[0.40] < 120
        and timings[0.15] < 120
        and np.all(np.abs(mean_q_15 - 1.0) <= 1e-6)
        and np.all(mean_q_40 < 1.0)
    )
    record(
        7,
        ok,
        f"verdicts p=0.40 {verdicts[0.40]} ({timings[0.40]:.0f}s), "
        f"p=0.15 {verdicts[0.15]} ({timings[0.15]:.0f}s); "
        f"annealed q(0.15) err {np.max(np.abs(mean_q_15 - 1)):.1e}, "
        f"q(0.40) = {np.round(mean_q_40, 3)}",
    )


def test_criterion_08_conditioned_growth_rate(lambda_b_estimate):
    model = build_carpet_model(0.40)
    target = math.log(0.40) + lambda_b_estimate.point
    res = survival_estimate(model, 0, 20_000, 40, cap=10**7, seed=29)
    est, survivors = res.growth_rate, res.surviving_trials
    rel = abs(est - target) / abs(target)
    ok = survivors >= 500 and rel <= 0.15
    record(
        8,
        ok,
        f"growth {est:.4f} vs log(0.4)+lambda_B = {target:.4f} "
        f"(rel err {rel:.0%}, {survivors} survivors >= 500)",
    )


REQUIRED_ORACLE_CHECKS = (
    "clamp_monotone",
    "h_equals_g_near_one",
    "h_fixes_one",
    "h_monotone",
    "h_dominates_pgf_on_words",
    "h_nonnegative",
    "high_norm_forces_near_one",
    "majorant_dominates_pgf_near_one",
    "affine_norm_contraction",
    "pgf_strict_drop",
    "zero_column_zero_mass",
)


def test_criterion_09_oracle_suite(lambda_b_estimate):
    model = build_carpet_model(0.40)
    lam = math.log(0.40) + lambda_b_estimate.point
    report = oracle_suite(model, build_proof_params(model, lam), samples=10_000, seed=31)
    failures = [
        name
        for name in REQUIRED_ORACLE_CHECKS
        if not report.by_name[name].passed
    ]
    record(9, not failures, f"oracle failures: {failures or 'none'}")


def test_criterion_10_carpet_law_validation():
    p = 0.45
    model = build_carpet_model(p)
    worst_tv = 0.0
    for column in range(3):
        for parent in range(2):
            stats = empirical_offspring_stats(
                p, column, parent, 100_000, np.random.default_rng(37 + 2 * column + parent)
            )
            want = law_as_dict(model.letters[column].laws[parent])
            atoms = set(stats.pmf) | set(want)
            tv = 0.5 * sum(abs(stats.pmf.get(a, 0.0) - want.get(a, 0.0)) for a in atoms)
            worst_tv = max(worst_tv, tv)
    worst_mat = max(
        float(np.max(np.abs(letter.expectation - p * base)))
        for letter, base in zip(model.letters, COLUMN_MATRICES)
    )
    ok = worst_tv <= 0.02 and worst_mat <= 1e-12
    record(10, ok, f"max TV {worst_tv:.4f} <= 0.02, max matrix dev {worst_mat:.1e} <= 1e-12")


def test_criterion_11_byte_identical_reruns(model_dir):
    p04 = str(model_dir / "carpet_p04.json")
    p1 = str(model_dir / "carpet_p1.json")
    commands = [
        ["lyapunov", "--model", p1, "--steps", "1000", "--batches", "4",
         "--seed", "3", "--threads", "1"],
        ["extinction", "--model", p04, "--mode", "converged", "--seed", "3", "--threads", "1"],
        ["extinction", "--model", p04, "--mode", "annealed", "--envs", "5",
         "--seed", "3", "--threads", "1"],
        ["simulate", "--model", p04, "--start-type", "0", "--trials", "200",
         "--horizon", "25", "--cap", "100000", "--seed", "3", "--growth", "--threads", "1"],
        ["classify", "--model", p04, "--steps", "1000", "--batches", "4",
         "--seed", "3", "--threads", "1"],
        ["carpet", "lambda-b", "--steps", "1000", "--batches", "4",
         "--seed", "3", "--threads", "1"],
        ["carpet", "critical", "--steps", "1000", "--batches", "4",
         "--seed", "3", "--threads", "1"],
        ["carpet", "project", "--p", "0.6", "--depth", "4", "--samples", "5",
         "--seed", "3", "--threads", "1"],
        ["carpet", "offspring", "--p", "0.5", "--column", "0", "--type", "1",
         "--samples", "5000", "--seed", "3", "--threads", "1"],
        ["proofkit", "--model", p04, "--lambda", "0.057", "--samples", "500",
         "--seed", "3", "--threads", "1"],
    ]
    from test_cli import run_cli

    mismatched = []
    for args in commands:
        _, out1, _ = run_cli(args + ["--json"])
        _, out2, _ = run_cli(args + ["--json"])
        if out1.encode() != out2.encode():
            mismatched.append(args[0])
    record(11, not mismatched, f"non-deterministic subcommands: {mismatched or 'none'}")
