import json
import math
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


def raw_stationary(transition):
    """A stationary distribution: the least-norm solution of pi T = pi, sum(pi) = 1.

    For a reducible chain it mixes the closed classes' distributions with
    positive weights, so it lies in [0, 1] up to rounding; it is clipped to
    [0, 1], and transient letters keep their rounding dust.
    """
    size = len(transition)
    system = np.vstack([transition.T - np.eye(size), np.ones(size)])
    pi = np.linalg.lstsq(system, np.eye(size + 1)[-1], rcond=None)[0]
    return np.clip(pi, 0.0, 1.0)


def stationary(transition):
    """``raw_stationary`` with the dust on transient letters set to 0, their exact mass."""
    pi = raw_stationary(transition)
    pi[pi < 1e-12] = 0.0
    return pi / pi.sum()


class TestCheckConditions:
    def test_carpet_report(self):
        model = build_carpet_model(0.3)
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
        # the frozen chain started at (0, 1) is the constant process "b b b ...",
        # which is ergodic; started at (1/2, 1/2) it mixes two constant processes
        constant = ModelSpec(2, letters, MarkovEnvironment(np.array([0.0, 1.0]), np.eye(2)))
        assert check_conditions(constant).ergodic_env_ok
        reducible = ModelSpec(2, letters, MarkovEnvironment(np.array([0.5, 0.5]), np.eye(2)))
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
            # the model keeps the rounding dust on transient letters
            model = ModelSpec(
                2,
                tuple(EnvironmentLetter(f"e{i}", laws) for i in range(size)),
                MarkovEnvironment(raw_stationary(transition), transition),
            )
            # the letter process is ergodic iff the chain is irreducible on
            # the letters of positive stationary mass
            support = stationary(transition) > 0
            want = markov_irreducible_by_dfs(transition[support][:, support])
            assert check_conditions(model).ergodic_env_ok == want, transition
            verdicts.append((want, support.all()))
        # non-ergodic chains, and ergodic ones with and without zero-mass letters, all occur
        assert verdicts.count((True, True)) > 50 and verdicts.count((True, False)) > 50
        assert sum(not want for want, _ in verdicts) > 10

    def test_markov_with_a_transient_zero_mass_letter_is_ergodic(self):
        # letter c is left at once and never re-entered, so it has no mass,
        # and the process on a and b is i.i.d.
        laws = (law([((1, 1), 1.0)]), law([((1, 1), 1.0)]))
        letters = tuple(EnvironmentLetter(name, laws) for name in "abc")
        transition = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.3, 0.3, 0.4]])
        env = MarkovEnvironment(np.array([0.5, 0.5, 0.0]), transition)
        assert check_conditions(ModelSpec(2, letters, env)).ergodic_env_ok

    def test_rounding_dust_on_a_transient_letter_has_no_mass(self):
        # the chain of the test above with a 1e-16 share of the initial mass
        # moved onto c, and a chain whose two closed classes both carry mass
        laws = (law([((1, 1), 1.0)]), law([((1, 1), 1.0)]))
        letters = tuple(EnvironmentLetter(name, laws) for name in "abc")
        transition = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.3, 0.3, 0.4]])
        env = MarkovEnvironment(np.array([0.5, 0.5 - 1e-16, 1e-16]), transition)
        assert env.letter_mass.tolist() == [0.5, 0.5 - 1e-16, 0.0]
        assert check_conditions(ModelSpec(2, letters, env)).ergodic_env_ok
        two_classes = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.3, 0.3, 0.4]])
        env = MarkovEnvironment(np.array([0.5, 0.5 - 1e-16, 1e-16]), two_classes)
        assert env.letter_mass.tolist() == [0.5, 0.5 - 1e-16, 0.0]
        assert not check_conditions(ModelSpec(2, letters, env)).ergodic_env_ok

    def test_markov_with_iid_rows_reports_as_iid(self):
        # a chain whose initial vector and every row are one vector is that
        # i.i.d. process, zero-mass letters included
        rng = np.random.default_rng(5)
        kinds = set()
        for _ in range(200):
            n_types, n_letters = int(rng.integers(2, 4)), int(rng.integers(2, 5))
            letters = tuple(
                EnvironmentLetter(
                    f"e{i}",
                    tuple(law([(row, 1.0)]) for row in rng.integers(0, 2, (n_types, n_types))),
                )
                for i in range(n_letters)
            )
            weights = rng.random(n_letters)
            weights[rng.permutation(n_letters)[: rng.integers(1, n_letters)]] = 0.0
            probs = weights / weights.sum()
            markov = MarkovEnvironment(probs, np.tile(probs, (n_letters, 1)))
            iid = check_conditions(ModelSpec(n_types, letters, IidEnvironment(probs)))
            chain = check_conditions(ModelSpec(n_types, letters, markov))
            assert chain.positive_word == iid.positive_word
            assert chain.ergodic_env_ok and iid.ergodic_env_ok
            assert chain.strongly_regular == iid.strongly_regular
            kinds.add((iid.positive_word is not None, iid.strongly_regular))
        assert len(kinds) == 4  # with and without a witness, each with and without regularity

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
        assert report.positive_word_log_probability is None
        from mbpre import find_positive_product_word

        unrestricted = find_positive_product_word(
            [m > 0 for m in model.expectation_matrices()],
            np.ones(2, dtype=bool),
            np.ones((2, 2), dtype=bool),
        )
        assert unrestricted is not None  # the patterns alone would admit one

    def test_witness_product_below_float_range_is_kept(self):
        # one letter with expectation I + 1e-200 P, P the 3-cycle: its square
        # is strictly positive, but the float square's P^2 entries are
        # 1e-400, which underflows to 0
        laws = []
        for i in range(3):
            stay = [0, 0, 0]
            stay[i] = 1
            both = list(stay)
            both[(i + 1) % 3] = 1
            laws.append(law([(stay, 1.0 - 1e-200), (both, 1e-200)]))
        model = ModelSpec(3, (EnvironmentLetter("a", tuple(laws)),), IidEnvironment([1.0]))
        m = model.letters[0].expectation
        assert (m @ m).min() == 0.0
        report = check_conditions(model)
        assert report.positive_word == (0, 0)
        assert report.positive_word_probability == 1.0

    def test_witness_whose_cylinder_underflows_is_kept(self):
        # letters I and I + P, P the 3-cycle, of mass 1 and 1e-200: the word
        # "b b" has a strictly positive product and cylinder 1e-400, which
        # underflows to 0
        ident = EnvironmentLetter("a", tuple(law([(row, 1.0)]) for row in np.eye(3, dtype=int)))
        cycle = np.eye(3, dtype=int) + np.roll(np.eye(3, dtype=int), 1, axis=1)
        shift = EnvironmentLetter("b", tuple(law([(row, 1.0)]) for row in cycle))
        model = ModelSpec(3, (ident, shift), IidEnvironment([1.0, 1e-200]))
        report = check_conditions(model)
        assert report.positive_word == (1, 1)
        assert report.positive_word_probability == 0.0
        # the sum of logs does not underflow: 2 ln(1e-200)
        assert report.positive_word_log_probability == pytest.approx(2 * math.log(1e-200))
        assert report.positive_word_log_probability == pytest.approx(-921.034, abs=1e-3)
        assert classify(report, fake_estimate(0.5, 0.1)).kind == "survives_positively"

    def test_report_serializes(self):
        report = check_conditions(build_carpet_model(0.4))
        # asdict keeps the tuples, which the JSON text holds as lists
        d = json.loads(json.dumps(asdict(report)))
        assert d["positive_word"] == [1]
        assert isinstance(d["allowability_offenders"], list)


class TestClassify:
    def test_ci_rules(self):
        model = build_carpet_model(0.4)
        report = check_conditions(model)
        assert classify(report, fake_estimate(0.5, 0.1)).kind == "survives_positively"
        assert classify(report, fake_estimate(-0.5, 0.1)).kind == "almost_sure_extinction"
        assert classify(report, fake_estimate(0.01, 0.1)).kind == "critical_extinction"

    def test_straddle_without_strong_regularity(self):
        # a positive mean matrix, but every law bears exactly one child
        one_child = law([((1, 0), 0.5), ((0, 1), 0.5)])
        letter = EnvironmentLetter("s", (one_child, one_child))
        model = ModelSpec(2, (letter,), IidEnvironment([1.0]))
        report = check_conditions(model)
        assert report.allowable_ok and report.positive_word is not None
        assert not report.strongly_regular
        verdict = classify(report, fake_estimate(0.0, 0.1))
        assert verdict.kind == "inconclusive"
        assert "strong regularity is unavailable" in verdict.rationale

    def test_hypothesis_gate(self):
        letter = EnvironmentLetter(
            "bad", (law([((1, 0), 1.0)]), law([((1, 0), 1.0)]))
        )
        model = ModelSpec(2, (letter,), IidEnvironment([1.0]))
        report = check_conditions(model)
        verdict = classify(report, fake_estimate(1.0, 0.01))
        assert verdict.kind == "inconclusive"
        assert "hypotheses unmet" in verdict.rationale

    def test_pure_function(self):
        model = build_carpet_model(0.4)
        report = check_conditions(model)
        est = fake_estimate(0.3, 0.05)
        assert asdict(classify(report, est)) == asdict(classify(report, est))

    def test_verdict_monotone_in_retention(self):
        kinds = []
        for p in (0.15, 0.25, 0.55, 0.75):
            model = build_carpet_model(p)
            report = check_conditions(model)
            est = estimate_exponent(
                model.expectation_matrices(),
                model.environment,
                kind="sum",
                steps_per_batch=5000,
                batches=8,
                seed=42,
            )
            kinds.append(classify(report, est).kind)
        assert kinds[0] == kinds[1] == "almost_sure_extinction"
        assert kinds[2] == kinds[3] == "survives_positively"
