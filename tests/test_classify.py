import json
from dataclasses import asdict

import numpy as np
import pytest

from mbpre import (
    EnvironmentLetter,
    IidEnvironment,
    LyapunovEstimate,
    MarkovEnvironment,
    ModelSpec,
    OffspringLaw,
    build_carpet_model,
    check_conditions,
    classify,
    estimate_exponent,
)
from oracles import markov_irreducible_by_dfs


def law(pairs):
    return OffspringLaw.from_pairs(pairs)


def fake_estimate(point, half_width):
    return LyapunovEstimate("sum", point, half_width, 1000, 8)


def stationary(transition):
    """A stationary distribution: the least-norm solution of pi T = pi, sum(pi) = 1.

    For a reducible chain it mixes the closed classes' distributions with
    positive weights, so it is non-negative up to rounding.
    """
    size = len(transition)
    system = np.vstack([transition.T - np.eye(size), np.ones(size)])
    pi = np.linalg.lstsq(system, np.eye(size + 1)[-1], rcond=None)[0].clip(0.0)
    return pi / pi.sum()


class TestCheckConditions:
    def test_carpet_report(self):
        model = build_carpet_model(0.3).model
        report = check_conditions(model)
        assert report.ergodic_env_ok
        assert report.allowable_ok and not report.allowability_offenders
        assert report.positive_word == (1,)
        assert report.positive_word_probability == pytest.approx(1 / 3)
        assert report.strongly_regular
        assert report.strong_regularity_witness == "col1"
        assert report.uniform_alpha == pytest.approx(0.3, abs=1e-12)

    def test_zero_column_offender(self):
        letter = EnvironmentLetter(
            "bad", (law([((1, 0), 1.0)]), law([((1, 0), 1.0)]))
        )
        model = ModelSpec(2, (letter,), IidEnvironment([1.0]))
        report = check_conditions(model)
        assert not report.allowable_ok
        assert {"letter": "bad", "axis": "column", "index": 1} in [
            dict(o) for o in report.allowability_offenders
        ]
        assert report.uniform_alpha is None

    def test_single_child_model_not_strongly_regular(self):
        letter = EnvironmentLetter(
            "s",
            (
                law([((0, 0), 0.5), ((1, 0), 0.25), ((0, 1), 0.25)]),
                law([((0, 0), 0.5), ((0, 1), 0.5)]),
            ),
        )
        model = ModelSpec(2, (letter,), IidEnvironment([1.0]))
        report = check_conditions(model)
        assert not report.strongly_regular
        assert report.strong_regularity_witness is None

    def test_zero_probability_letters_are_skipped(self):
        good = EnvironmentLetter("good", (law([((2, 0), 1.0)]), law([((0, 2), 1.0)])))
        never = EnvironmentLetter("never", (law([((2, 0), 1.0)]), law([((0, 2), 1.0)])))
        model = ModelSpec(2, (good, never), IidEnvironment([1.0, 0.0]))
        report = check_conditions(model)
        assert report.strong_regularity_witness == "good"

    def test_markov_irreducibility(self):
        laws = (law([((1, 1), 1.0)]), law([((1, 1), 1.0)]))
        letters = (EnvironmentLetter("a", laws), EnvironmentLetter("b", laws))
        reducible = ModelSpec(
            2, letters, MarkovEnvironment(np.array([0.0, 1.0]), np.eye(2))
        )
        assert not check_conditions(reducible).ergodic_env_ok
        mixing = ModelSpec(
            2,
            letters,
            MarkovEnvironment(np.array([0.5, 0.5]), np.array([[0.5, 0.5], [0.5, 0.5]])),
        )
        assert check_conditions(mixing).ergodic_env_ok

    def test_markov_ergodicity_matches_graph_search(self):
        rng = np.random.default_rng(11)
        verdicts = []
        for _ in range(300):
            size = int(rng.integers(1, 7))
            # sparse rows, each with one guaranteed positive entry
            weights = (rng.random((size, size)) < 0.3) * rng.random((size, size))
            weights[np.arange(size), rng.integers(0, size, size)] += 1.0
            transition = weights / weights.sum(axis=1, keepdims=True)
            laws = (law([((1, 1), 1.0)]), law([((1, 1), 1.0)]))
            model = ModelSpec(
                2,
                tuple(EnvironmentLetter(f"e{i}", laws) for i in range(size)),
                MarkovEnvironment(stationary(transition), transition),
            )
            want = markov_irreducible_by_dfs(transition)
            assert check_conditions(model).ergodic_env_ok == want, transition
            verdicts.append(want)
        assert 50 < sum(verdicts) < 250  # reducible and irreducible chains both occur

    def test_iid_with_zero_mass_letter_is_ergodic(self):
        laws = (law([((1, 1), 1.0)]), law([((1, 1), 1.0)]))
        letters = (EnvironmentLetter("a", laws), EnvironmentLetter("b", laws))
        model = ModelSpec(2, letters, IidEnvironment([1.0, 0.0]))
        assert check_conditions(model).ergodic_env_ok

    def test_markov_positive_word_respects_transitions(self):
        # a pattern witness needs both letters, but the frozen chain never
        # mixes them: no positive-probability word can qualify
        a = EnvironmentLetter("a", (law([((1, 1), 1.0)]), law([((0, 1), 1.0)])))
        b = EnvironmentLetter("b", (law([((1, 0), 1.0)]), law([((1, 1), 1.0)])))
        env = MarkovEnvironment(
            np.array([0.5, 0.5]), np.array([[1.0, 0.0], [0.0, 1.0]])
        )
        model = ModelSpec(2, (a, b), env)
        report = check_conditions(model)
        assert report.positive_word is None
        from mbpre import find_positive_product_word, positivity_pattern

        unrestricted = find_positive_product_word(
            [positivity_pattern(m) for m in model.expectation_matrices()],
            np.ones(2, dtype=bool),
            np.ones((2, 2), dtype=bool),
        )
        assert unrestricted is not None  # the patterns alone would admit one

    def test_report_serializes(self):
        report = check_conditions(build_carpet_model(0.4).model)
        # asdict keeps the tuples, which the JSON text holds as lists
        d = json.loads(json.dumps(asdict(report)))
        assert d["positive_word"] == [1]
        assert isinstance(d["allowability_offenders"], list)


class TestClassify:
    def test_ci_rules(self):
        model = build_carpet_model(0.4).model
        report = check_conditions(model)
        assert classify(model, report, fake_estimate(0.5, 0.1)).kind == "survives_positively"
        assert classify(model, report, fake_estimate(-0.5, 0.1)).kind == "almost_sure_extinction"
        assert classify(model, report, fake_estimate(0.01, 0.1)).kind == "critical_extinction"

    def test_straddle_without_strong_regularity(self):
        letter = EnvironmentLetter(
            "s", (law([((0, 0), 0.5), ((1, 0), 0.5)]), law([((0, 1), 1.0)]))
        )
        model = ModelSpec(2, (letter,), IidEnvironment([1.0]))
        report = check_conditions(model)
        verdict = classify(model, report, fake_estimate(0.0, 0.1))
        assert verdict.kind == "inconclusive"

    def test_hypothesis_gate(self):
        letter = EnvironmentLetter(
            "bad", (law([((1, 0), 1.0)]), law([((1, 0), 1.0)]))
        )
        model = ModelSpec(2, (letter,), IidEnvironment([1.0]))
        report = check_conditions(model)
        verdict = classify(model, report, fake_estimate(1.0, 0.01))
        assert verdict.kind == "inconclusive"
        assert "hypotheses unmet" in verdict.rationale

    def test_pure_function(self):
        model = build_carpet_model(0.4).model
        report = check_conditions(model)
        est = fake_estimate(0.3, 0.05)
        assert asdict(classify(model, report, est)) == asdict(classify(model, report, est))

    def test_verdict_monotone_in_retention(self):
        kinds = []
        for p in (0.15, 0.25, 0.55, 0.75):
            model = build_carpet_model(p).model
            report = check_conditions(model)
            est = estimate_exponent(
                model, kind="sum", steps_per_batch=5000, batches=8, seed=42
            )
            kinds.append(classify(model, report, est).kind)
        assert kinds[0] == kinds[1] == "almost_sure_extinction"
        assert kinds[2] == kinds[3] == "survives_positively"
