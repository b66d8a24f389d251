import dataclasses
import math

import numpy as np
import pytest

from mbpre import (
    ProofParams,
    build_carpet_model,
    build_proof_params,
    exponent_along_word,
    g_eval,
    h_eval,
    oracle_suite,
    phi,
    psi,
    shrunk_matrices,
)
from mbpre.matcore import col_min, product_along_word

LAMBDA_04 = 0.057  # log(0.4) + lambda_B for the carpet family


class TestPsi:
    def test_fixes_one(self):
        assert np.array_equal(psi(np.ones(3), 0.2), np.ones(3))

    def test_clamps_zero(self):
        assert np.allclose(psi(np.zeros(2), 0.1), [0.9, 0.9])

    def test_mixed_branches(self):
        assert np.allclose(psi(np.array([0.95, 0.5]), 0.1), [0.95, 0.9])

    def test_monotone_and_dominating(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            s = rng.random(4)
            t = s + (1 - s) * rng.random(4)
            d = rng.uniform(0.01, 0.99)
            assert np.all(psi(s, d) >= s)
            assert np.all(psi(s, d) <= psi(t, d))

    def test_delta_range(self):
        with pytest.raises(ValueError):
            psi(np.zeros(2), 1.5)


class TestGEval:
    def test_fixes_one(self):
        rng = np.random.default_rng(1)
        a = rng.random((3, 3))
        assert np.allclose(g_eval(a, np.ones(3)), 1.0)

    def test_hand_value(self):
        a = 0.5 * np.array([[1.0, 0.0], [2.0, 2.0]])
        assert np.allclose(g_eval(a, np.array([0.9, 0.8])), [0.95, 0.7], atol=1e-15)

    def test_zero_matrix(self):
        assert np.allclose(g_eval(np.zeros((2, 2)), np.array([0.2, 0.4])), 1.0)

    def test_word_composition_is_affine_in_product(self):
        model = build_carpet_model(0.4).model
        mats = shrunk_matrices(model, 0.8)
        rng = np.random.default_rng(2)
        for _ in range(50):
            word = rng.integers(0, 3, size=int(rng.integers(1, 6)))
            s = rng.random(2)
            composed = s
            for idx in word[::-1]:
                composed = g_eval(mats[idx], composed)
            direct = 1.0 - product_along_word(mats, word) @ (1.0 - s)
            assert np.allclose(composed, direct, atol=1e-12)


class TestHEval:
    def test_equals_g_inside_box(self):
        a = 0.5 * np.array([[1.0, 0.0], [2.0, 2.0]])
        s = np.array([0.95, 0.99])
        assert np.array_equal(h_eval(a, s, 0.1), g_eval(a, s))

    def test_fixes_one(self):
        a = np.array([[0.3, 0.2], [0.1, 0.5]])
        assert np.array_equal(h_eval(a, np.ones(2), 0.2), np.ones(2))

    def test_composed_hand_value(self):
        # clamp lifts 0 to (0.9, 0.9); then 1 - A (0.1, 0.1) = (0.95, 0.80)
        a = 0.5 * np.array([[1.0, 0.0], [2.0, 2.0]])
        assert np.allclose(h_eval(a, np.zeros(2), 0.1), [0.95, 0.80], atol=1e-15)


class TestPhi:
    def test_fixed_point(self):
        for v in (0.0, 0.5, 1.0, 2.0):
            assert phi(v, 3, 3) == 3

    def test_hand_value(self):
        assert phi(0.5, 1, 2) == 1.5

    def test_identity_at_one(self):
        assert phi(1.0, 0.7, 2) == 0.7


class TestProofParams:
    def test_formula_example(self):
        rho = 2 ** (-0.5)
        delta = (1 - rho) / 8
        params = ProofParams(
            rho=rho, alpha=1.0, n_types=2, moment_bound=2.0,
            delta=delta, mu=0.5, u=0.5, exponent=math.log(2),
        )
        assert params.delta == pytest.approx((1 - 2 ** (-0.5)) * 1.0 / 8, abs=1e-15)

    def test_delta_mismatch_rejected(self):
        with pytest.raises(ValueError, match="delta"):
            ProofParams(
                rho=0.5, alpha=1.0, n_types=2, moment_bound=2.0,
                delta=0.5, mu=0.5, u=0.5, exponent=math.log(3),
            )

    def test_rho_exponent_consistency(self):
        with pytest.raises(ValueError, match="rho"):
            ProofParams(
                rho=0.1, alpha=1.0, n_types=2, moment_bound=2.0,
                delta=(1 - 0.1) / 8, mu=0.5, u=0.5, exponent=math.log(2),
            )


class TestBuildProofParams:
    def test_carpet_hypothetical_exponent(self):
        model = build_carpet_model(0.4).model
        lam = math.log(0.4) + 1.38
        params = build_proof_params(model, lam)
        assert params.rho == pytest.approx(math.exp(-lam / 2), abs=1e-12)
        assert params.rho == pytest.approx(0.7931, abs=2e-4)
        assert params.rho * math.exp(lam) > 1

    def test_nonpositive_exponent_rejected(self):
        model = build_carpet_model(0.4).model
        with pytest.raises(ValueError):
            build_proof_params(model, 0.0)
        with pytest.raises(ValueError):
            build_proof_params(model, -1.0)

    @pytest.mark.parametrize("exponent", [math.nan, math.inf])
    def test_non_finite_exponent_rejected(self, exponent):
        model = build_carpet_model(0.4).model
        with pytest.raises(ValueError, match="finite"):
            build_proof_params(model, exponent)

    def test_params_satisfy_family_bounds(self):
        model = build_carpet_model(0.4).model
        params = build_proof_params(model, LAMBDA_04)
        mats = shrunk_matrices(model, params.rho)
        assert params.mu <= min(col_min(a) for a in mats) + 1e-15
        assert params.u <= min(1.0, min(a[a > 0].min() for a in mats)) + 1e-15
        assert 0 < params.delta < 1

    def test_shrunk_exponent_identity(self):
        # exact per-word identity: shrinking by rho shifts the exponent by log rho
        model = build_carpet_model(0.4).model
        params = build_proof_params(model, LAMBDA_04)
        mats = model.expectation_matrices()
        shrunk = shrunk_matrices(model, params.rho)
        rng = np.random.default_rng(3)
        word = rng.integers(0, 3, size=500)
        diff = exponent_along_word(shrunk, word, "colmin") - exponent_along_word(
            mats, word, "colmin"
        )
        assert diff == pytest.approx(math.log(params.rho), abs=1e-12)


class TestOracleSuite:
    def test_carpet_all_pass(self):
        model = build_carpet_model(0.4).model
        report = oracle_suite(model, LAMBDA_04, samples=2000, seed=0)
        failed = [c.check for c in report.checks if not c.passed]
        assert failed == []
        assert report.all_passed

    def test_equalities_at_one(self):
        model = build_carpet_model(0.4).model
        params = build_proof_params(model, LAMBDA_04)
        for a in shrunk_matrices(model, params.rho):
            assert np.array_equal(h_eval(a, np.ones(2), params.delta), np.ones(2))

    def test_corrupted_delta_report_is_well_formed(self):
        # negative control: doubling delta voids the construction's guarantee;
        # the suite must still run and report, whether or not a check trips
        model = build_carpet_model(0.4).model
        good = build_proof_params(model, LAMBDA_04)
        bad = ProofParams(
            rho=good.rho,
            alpha=good.alpha,
            n_types=good.n_types,
            moment_bound=good.moment_bound / 2.0,
            delta=good.delta * 2.0,
            mu=good.mu,
            u=good.u,
            exponent=good.exponent,
        )
        report = oracle_suite(model, LAMBDA_04, samples=2000, seed=1, params=bad)
        names = {c.check for c in report.checks}
        assert "majorant_dominates_pgf_near_one" in names
        for c in report.checks:
            assert (c.counterexample is None) == c.passed

    def test_corrupted_counterexamples_reproduce(self):
        # moment_bound / 200 with delta x 200 widens the clamp box past where
        # the affine map dominates, and mu = 1 drops the contraction margin;
        # each reported letter or word and point must violate its inequality
        model = build_carpet_model(0.4).model
        good = build_proof_params(model, LAMBDA_04)
        bad = dataclasses.replace(
            good, moment_bound=good.moment_bound / 200.0, delta=good.delta * 200.0, mu=1.0
        )
        report = oracle_suite(model, LAMBDA_04, samples=500, seed=1, params=bad)
        letters = {x.name: x for x in model.letters}
        mats = shrunk_matrices(model, bad.rho)
        shrunk = dict(zip(letters, mats))
        tol = 1e-12

        def affine_norm_contraction(ce, s):
            gv = g_eval(shrunk[ce["letter"]], s)
            return gv.min() >= 0.0 and gv.sum() > phi(bad.mu, s.sum(), model.n_types) + tol

        def majorant_dominates_pgf_near_one(ce, s):
            pgf = letters[ce["letter"]].pgf_vector(s)
            return np.any(g_eval(shrunk[ce["letter"]], s) < pgf - tol)

        def h_dominates_pgf_on_words(ce, s):
            hv = fv = s
            for idx in reversed(ce["word"]):
                hv = np.clip(h_eval(mats[idx], hv, bad.delta), 0.0, 1.0)
                fv = model.letters[idx].pgf_vector(fv)
            return np.any(hv < fv - tol)

        def h_nonnegative(ce, s):
            return np.any(h_eval(shrunk[ce["letter"]], s, bad.delta) < -tol)

        violated = {
            f.__name__: f
            for f in (
                affine_norm_contraction,
                majorant_dominates_pgf_near_one,
                h_dominates_pgf_on_words,
                h_nonnegative,
            )
        }
        failed = [c for c in report.checks if not c.passed]
        assert {c.check for c in failed} == set(violated)
        for c in failed:
            assert violated[c.check](c.counterexample, np.array(c.counterexample["s"])), c.check

    def test_report_serializes(self):
        import json

        model = build_carpet_model(0.4).model
        report = oracle_suite(model, LAMBDA_04, samples=500, seed=2)
        parsed = json.loads(json.dumps(dataclasses.asdict(report)))["checks"]
        assert {entry["check"] for entry in parsed} == {c.check for c in report.checks}
        for entry in parsed:
            assert set(entry) == {"check", "passed", "samples", "counterexample"}

    def test_seed_reproducible(self):
        model = build_carpet_model(0.4).model
        a = oracle_suite(model, LAMBDA_04, samples=500, seed=3)
        b = oracle_suite(model, LAMBDA_04, samples=500, seed=3)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_params_for_another_exponent_rejected(self):
        # gamma and the shrink come from params, so a mismatch must not pass silently
        model = build_carpet_model(0.4).model
        params = build_proof_params(model, 2 * LAMBDA_04)
        with pytest.raises(ValueError, match="exponent"):
            oracle_suite(model, LAMBDA_04, samples=10, seed=0, params=params)
        report = oracle_suite(model, 2 * LAMBDA_04, samples=10, seed=0, params=params)
        assert report.all_passed
