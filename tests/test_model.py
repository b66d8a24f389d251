import copy
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbpre import (
    BudgetError,
    EnvironmentLetter,
    IidEnvironment,
    InvariantError,
    MarkovEnvironment,
    ModelSpec,
    ModelFormatError,
    NotAllowableError,
    OffspringLaw,
    build_carpet_model,
    parse_model,
    second_moment_bound,
    uniform_allowability_alpha,
    write_model,
)
from mbpre.model import child_seeds, word_dtype
from oracles import (
    convolve_dicts,
    iid_word_choice,
    law_as_dict,
    markov_word_per_letter,
    pgf_of_dict,
    random_law,
    random_model,
)

try:
    import jsonschema
except ImportError:  # the optional ``test`` extra: only the schema check needs it
    jsonschema = None


def law(pairs):
    return OffspringLaw.from_pairs(pairs)


class TestPgfEval:
    def test_at_ones_is_total_mass(self):
        l = law([((0, 0), 0.3), ((1, 2), 0.7)])
        assert l.pgf([1.0, 1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_constant_zero_offspring(self):
        l = law([((0, 0), 1.0)])
        assert l.pgf([0.3, 0.9]) == 1.0

    def test_hand_sum_at_zero(self):
        l = law([((0, 0), 0.75), ((1, 0), 0.25)])
        assert l.pgf([0.0, 0.0]) == pytest.approx(0.75, abs=1e-15)

    def test_dimension_mismatch(self):
        l = law([((0, 0), 1.0)])
        with pytest.raises(ValueError):
            l.pgf([0.5, 0.5, 0.5])

    @pytest.mark.parametrize("s", [[np.nan, 0.5], [np.nan, np.nan], [0.5, np.inf], [-0.1, 0.5]])
    def test_argument_outside_unit_box_rejected(self, s):
        # NaN fails every comparison, so it must be tested as not inside
        l = law([((0, 0), 0.5), ((1, 1), 0.5)])
        with pytest.raises(ValueError, match="outside"):
            l.pgf(s)
        with pytest.raises(ValueError, match="outside"):
            EnvironmentLetter("a", (l, l)).pgf_vector(s)

    def test_monotone_in_s(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            l = random_law(rng)
            s = rng.random(2)
            t = s + (1.0 - s) * rng.random(2)
            assert l.pgf(s) <= l.pgf(t) + 1e-12

    def test_matches_dict_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            l = random_law(rng)
            s = rng.random(2)
            assert l.pgf(s) == pytest.approx(
                pgf_of_dict(law_as_dict(l), s), abs=1e-12
            )

    def test_product_of_independent_pgfs_is_convolution_pgf(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            a, b = random_law(rng), random_law(rng)
            conv = convolve_dicts(law_as_dict(a), law_as_dict(b))
            s = rng.random(2)
            assert a.pgf(s) * b.pgf(s) == pytest.approx(
                pgf_of_dict(conv, s), abs=1e-12
            )


class TestExpectationMatrix:
    def test_carpet_column0_at_quarter(self):
        letter = build_carpet_model(0.25).letters[0]
        assert np.allclose(
            letter.expectation, [[0.25, 0.0], [0.5, 0.5]], atol=1e-15
        )

    def test_zero_letter(self):
        zero = law([((0, 0), 1.0)])
        letter = EnvironmentLetter("z", (zero, zero))
        assert np.array_equal(letter.expectation, np.zeros((2, 2)))

    def test_deterministic_law(self):
        letter = EnvironmentLetter(
            "d", (law([((2, 1), 1.0)]), law([((0, 3), 1.0)]))
        )
        assert np.array_equal(letter.expectation, [[2, 1], [0, 3]])

    def test_matches_finite_difference_of_pgf(self):
        rng = np.random.default_rng(10)
        h = 1e-6
        for _ in range(20):
            letter = EnvironmentLetter("r", (random_law(rng), random_law(rng)))
            m = letter.expectation
            bound = max(float(l.factorial_second_moments().max()) for l in letter.laws)
            for i, l in enumerate(letter.laws):
                for k in range(2):
                    s = np.ones(2)
                    s[k] -= h
                    fd = (l.pgf(np.ones(2)) - l.pgf(s)) / h
                    assert abs(fd - m[i, k]) <= h * max(bound, 1.0) + 1e-9


class TestSecondMomentBound:
    def test_single_child_laws_have_zero(self):
        letter = EnvironmentLetter(
            "s", (law([((1, 0), 0.5), ((0, 0), 0.5)]), law([((0, 1), 1.0)]))
        )
        assert second_moment_bound(ModelSpec(2, (letter,), IidEnvironment([1.0]))) == 0.0

    def test_two_of_a_kind(self):
        l = law([((2, 0), 1.0)])
        assert l.factorial_second_moments()[0, 0] == 2.0

    def test_carpet_column2_upper_by_brute_force(self):
        l = build_carpet_model(0.5).letters[2].laws[0]
        d = law_as_dict(l)
        assert len(d) == 9
        brute = sum(p * z[0] * (z[0] - 1) for z, p in d.items())
        assert l.factorial_second_moments()[0, 0] == pytest.approx(brute, abs=1e-15)
        assert brute == pytest.approx(0.5, abs=1e-12)  # 2 * p^2 for Binomial(2, 1/2)


class TestUniformAllowabilityAlpha:
    def test_full_mass(self, deterministic_line_model):
        assert uniform_allowability_alpha(deterministic_line_model) == 1.0

    def test_carpet_enumeration(self):
        model = build_carpet_model(0.3)
        alpha = uniform_allowability_alpha(model)
        masses = []
        for letter in model.letters:
            m = letter.expectation
            for k, l in enumerate(letter.laws):
                for i in range(2):
                    if m[k, i] > 0:
                        masses.append(l.mass_producing(i))
        assert alpha == pytest.approx(min(masses), abs=0)
        assert alpha <= 0.3 + 1e-12

    def test_single_positive_triple(self):
        letter = EnvironmentLetter(
            "m", (law([((0, 0), 0.9), ((1, 0), 0.1)]), law([((0, 1), 1.0)]))
        )
        model = ModelSpec(2, (letter,), IidEnvironment([1.0]))
        assert uniform_allowability_alpha(model) == pytest.approx(0.1, abs=1e-15)

    def test_not_allowable_names_offender(self):
        zero = law([((0, 0), 1.0)])
        letter = EnvironmentLetter("bad", (zero, law([((1, 1), 1.0)])))
        model = ModelSpec(2, (letter,), IidEnvironment([1.0]))
        with pytest.raises(NotAllowableError) as err:
            uniform_allowability_alpha(model)
        assert err.value.letter == "bad"
        assert err.value.axis == "row"
        assert err.value.index == 0

    def test_not_allowable_names_column_offender(self):
        # rows all positive, column 1 all zero
        only_first = law([((1, 0), 1.0)])
        letter = EnvironmentLetter("bad", (only_first, only_first))
        model = ModelSpec(2, (letter,), IidEnvironment([1.0]))
        with pytest.raises(NotAllowableError) as err:
            uniform_allowability_alpha(model)
        assert (err.value.letter, err.value.axis, err.value.index) == ("bad", "column", 1)

    def test_zero_mean_entry_has_zero_support_mass(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            l = random_law(rng)
            m = l.mean
            for i in range(2):
                if m[i] == 0.0:
                    assert l.probs[l.counts[:, i] > 0].sum() == 0.0


class TestSampling:
    def test_point_mass(self):
        l = law([((3, 1), 1.0)])
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert np.array_equal(l.sample(rng), [3, 1])

    def test_empirical_frequency(self):
        l = law([((0, 0), 0.5), ((1, 1), 0.5)])
        rng = np.random.default_rng(1)
        draws = l.sample(rng, size=100_000)
        freq = (draws[:, 0] == 1).mean()
        assert abs(freq - 0.5) < 0.01

    def test_carpet_lower_mean(self):
        l = build_carpet_model(0.5).letters[0].laws[1]
        rng = np.random.default_rng(2)
        draws = l.sample(rng, size=100_000)
        assert np.all(np.abs(draws.mean(axis=0) - [1.0, 1.0]) < 0.02)


_MARKOV3 = np.array([[0.1, 0.6, 0.3], [0.5, 0.2, 0.3], [0.4, 0.2, 0.4]])


class TestEnvironmentSampling:
    def test_degenerate_iid(self):
        model = random_model(np.random.default_rng(4), max_letters=1)
        word = model.environment.sample_word(5, np.random.default_rng(0))
        assert np.array_equal(word, np.zeros(5))

    def test_uniform_frequencies(self):
        env = IidEnvironment(np.array([1 / 3, 1 / 3, 1 / 3]))
        word = env.sample_word(100_000, np.random.default_rng(5))
        for k in range(3):
            assert abs((word == k).mean() - 1 / 3) < 0.01

    def test_markov_identity_transition(self):
        env = MarkovEnvironment(np.array([0.0, 1.0]), np.eye(2))
        word = env.sample_word(20, np.random.default_rng(6))
        assert np.all(word == 1)

    @pytest.mark.parametrize(
        "env",
        [
            IidEnvironment(np.array([0.2, 0.3, 0.5])),
            MarkovEnvironment(
                np.full(3, 1 / 3), np.array([[0.1, 0.6, 0.3], [0.5, 0.2, 0.3], [0.4, 0.2, 0.4]])
            ),
        ],
        ids=["iid", "markov"],
    )
    def test_shorter_word_is_a_prefix_of_longer(self, env):
        # depth doubling redraws each word whole and relies on this
        for d in (1, 2, 64, 65, 300):
            short = env.sample_word(d, np.random.default_rng(7))
            assert np.array_equal(short, env.sample_word(2 * d, np.random.default_rng(7))[:d])

    # 2 * 2**14 + 3 letters: the walk's uniforms come in three slices
    @pytest.mark.parametrize("n", [1, 2, 500, 2 * 2**14 + 3])
    def test_markov_word_equals_per_letter_reference(self, n):
        env = MarkovEnvironment(np.full(3, 1 / 3), _MARKOV3)
        rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
        word = env.sample_word(n, rng)
        assert word.dtype == np.uint8
        assert np.array_equal(word, markov_word_per_letter(env, n, ref_rng))
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("n_letters", [1, 2, 3, 16, 64, 256])
    # the long word ends in a part slice, and the long block's slices of
    # 2**14 letters end inside a row
    @pytest.mark.parametrize(
        "n, rows",
        [(1, None), (700, None), (90, 7), (3 * 2**14 + 5, None), (5000, 7)],
        ids=["one-letter", "word", "block", "long-word", "long-block"],
    )
    def test_iid_word_equals_choice_reference(self, n_letters, n, rows):
        # uneven masses with a zero among them, so a wrong edge moves letters
        masses = np.random.default_rng(n_letters).random(n_letters) + 0.05
        masses[n_letters // 2] = 0.0 if n_letters > 1 else masses[0]
        env = IidEnvironment(masses / masses.sum())
        rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
        word = env.sample_word(n, rng, rows=rows)
        ref = iid_word_choice(env, n, ref_rng, rows=rows)
        assert word.dtype == np.uint8
        assert np.array_equal(word, ref)
        assert rng.random() == ref_rng.random()

    def test_iid_word_memory_is_the_word_and_one_slice(self):
        # the one-byte word plus one slice of 2**14 uniforms and its
        # temporaries peaks 0.26 MB above the word's 1 MB at 10**6 letters;
        # a second word would add 1 MB, every uniform drawn at once 8 MB
        env = IidEnvironment(np.full(3, 1 / 3))
        rng = np.random.default_rng(16)
        tracemalloc.start()
        try:
            word = env.sample_word(10**6, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < word.nbytes + (1 << 19), peak - word.nbytes

    def test_markov_block_rows_walk_their_own_draws(self):
        # row r: first letter from the r-th initial uniform, then the chain
        # driven by row r of the (rows, n - 1) uniforms
        env = MarkovEnvironment(np.full(3, 1 / 3), _MARKOV3)
        block = env.sample_word(40, np.random.default_rng(10), rows=6)
        ref_rng = np.random.default_rng(10)
        first, u = ref_rng.random(6), ref_rng.random((6, 39))
        cdfs = np.cumsum(env.transition, axis=1)
        for r in range(6):
            state = int(np.searchsorted(np.cumsum(env.initial), first[r], side="right"))
            want = [state]
            for k in range(39):
                state = int(np.searchsorted(cdfs[state], u[r, k], side="right"))
                want.append(state)
            assert block[r].tolist() == want

    def test_markov_block_uses_allowed_transitions_only(self):
        # a zero entry forbids that step; letter 0 is never first-chosen
        transition = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
        env = MarkovEnvironment(np.full(3, 1 / 3), transition)
        block = env.sample_word(60, np.random.default_rng(11), rows=300)
        assert block.shape == (300, 60)
        assert np.all(transition[block[:, :-1], block[:, 1:]] > 0)
        for k in range(3):
            assert abs((block == k).mean() - 1 / 3) < 0.01

    def test_iid_block_shape_and_frequencies(self):
        env = IidEnvironment(np.array([0.2, 0.3, 0.5]))
        block = env.sample_word(100, np.random.default_rng(13), rows=500)
        assert block.shape == (500, 100)
        assert np.allclose([(block == k).mean() for k in range(3)], env.probs, atol=0.01)

    @pytest.mark.parametrize(
        "env",
        [IidEnvironment(np.array([0.2, 0.3, 0.5])), MarkovEnvironment(np.full(3, 1 / 3), _MARKOV3)],
        ids=["iid", "markov"],
    )
    def test_word_over_letter_budget_is_refused_before_drawing(self, env, monkeypatch):
        from mbpre import model

        monkeypatch.setattr(model, "LETTER_BUDGET", 100)
        rng = np.random.default_rng(14)
        assert env.sample_word(100, rng).shape == (100,)
        assert env.sample_word(10, rng, rows=10).shape == (10, 10)
        after = np.random.default_rng(14)
        env.sample_word(100, after)
        env.sample_word(10, after, rows=10)
        for n, rows in ((101, None), (11, 10), (10, 11)):
            with pytest.raises(BudgetError, match="budget"):
                env.sample_word(n, rng, rows=rows)
        assert rng.random() == after.random()

    @pytest.mark.parametrize(
        "env",
        [IidEnvironment(np.array([0.2, 0.3, 0.5])), MarkovEnvironment(np.full(3, 1 / 3), _MARKOV3)],
        ids=["iid", "markov"],
    )
    @pytest.mark.parametrize("rows, shape", [(None, (0,)), (3, (3, 0))])
    def test_empty_word_draws_nothing(self, env, rows, shape):
        rng = np.random.default_rng(15)
        word = env.sample_word(0, rng, rows=rows)
        assert word.shape == shape and word.dtype == np.uint8
        assert rng.bit_generator.state == np.random.default_rng(15).bit_generator.state

    @pytest.mark.parametrize("kind", ["iid", "markov"])
    @pytest.mark.parametrize(
        "n_letters, dtype", [(3, np.uint8), (256, np.uint8), (257, np.uint16)]
    )
    @pytest.mark.parametrize("n, rows", [(0, None), (0, 2), (40, None), (40, 2)])
    def test_word_dtype_is_the_narrowest_that_holds_the_alphabet(
        self, kind, n_letters, dtype, n, rows
    ):
        mass = np.full(n_letters, 1 / n_letters)
        if kind == "iid":
            env = IidEnvironment(mass)
        else:
            env = MarkovEnvironment(mass, np.tile(mass, (n_letters, 1)))
        shape = (n,) if rows is None else (rows, n)
        word = env.sample_word(n, np.random.default_rng(18), rows=rows)
        assert word.dtype == dtype == word_dtype(n_letters)
        assert word.shape == shape
        # the last letter survives the narrow dtype
        top = env.sample_word(n, _TopUniform(), rows=rows)
        assert top.dtype == dtype and np.array_equal(top, np.full(shape, n_letters - 1))

    def test_markov_requires_stationary_initial(self):
        with pytest.raises(InvariantError):
            MarkovEnvironment(np.array([1.0, 0.0]), np.array([[0.5, 0.5], [0.5, 0.5]]))

    @pytest.mark.parametrize(
        "env, pattern",
        [
            (IidEnvironment([0.5, 0.0, 0.5]), ["101", "101", "101"]),
            (
                MarkovEnvironment([0.5, 0.0, 0.5], [[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]]),
                ["101", "010", "101"],
            ),
        ],
        ids=["iid", "markov"],
    )
    def test_step_pattern_marks_the_positive_steps(self, env, pattern):
        steps = env.step_pattern
        assert not steps.flags.writeable
        assert steps.tolist() == [[c == "1" for c in row] for row in pattern]

    def test_cylinder_probability(self):
        env = IidEnvironment(np.array([0.2, 0.8]))
        model = ModelSpec(
            2,
            (
                EnvironmentLetter("a", (law([((1, 0), 1.0)]), law([((0, 1), 1.0)]))),
                EnvironmentLetter("b", (law([((1, 0), 1.0)]), law([((0, 1), 1.0)]))),
            ),
            env,
        )
        assert model.environment.cylinder_probability([0, 1, 1]) == pytest.approx(0.2 * 0.8 * 0.8)
        assert env.cylinder_log_probability([0, 1, 1]) == pytest.approx(math.log(0.2 * 0.8 * 0.8))
        # a letter of zero mass: log 0, without a warning
        assert IidEnvironment([0.2, 0.8, 0.0]).cylinder_log_probability([0, 2]) == -math.inf

    def test_markov_cylinder_probability(self):
        # doubly stochastic, so the uniform initial vector is stationary
        transition = np.array([[0.2, 0.5, 0.3], [0.3, 0.2, 0.5], [0.5, 0.3, 0.2]])
        env = MarkovEnvironment(np.full(3, 1 / 3), transition)
        assert env.cylinder_probability([2]) == pytest.approx(1 / 3)
        # initial[0] * T[0, 2] * T[2, 1] * T[1, 1]
        assert env.cylinder_probability([0, 2, 1, 1]) == pytest.approx(0.3 * 0.3 * 0.2 / 3)
        assert env.cylinder_log_probability([2]) == pytest.approx(math.log(1 / 3))
        assert env.cylinder_log_probability([0, 2, 1, 1]) == pytest.approx(
            math.log(0.3 * 0.3 * 0.2 / 3)
        )

    @pytest.mark.parametrize(
        "env",
        [
            IidEnvironment([0.2, 0.3, 0.5]),
            MarkovEnvironment(np.full(3, 1 / 3), np.full((3, 3), 1 / 3)),
        ],
        ids=["iid", "markov"],
    )
    @pytest.mark.parametrize(
        "word",
        [[-1], [0.9], [3], [], [-1, 0], [0, 1.5]],
        ids=["negative", "float", "past-end", "empty", "negative-first", "float-second"],
    )
    def test_cylinder_probability_rejects_bad_letters(self, env, word):
        # no negative letter wraps to the last one, no float truncates
        with pytest.raises(ValueError, match="word"):
            env.cylinder_probability(word)
        with pytest.raises(ValueError, match="word"):
            env.cylinder_log_probability(word)

    # the walk holds one slice of uniforms and its path, and the alphabet's
    # CDF rows: 0.40 MB above the word's 0.1 MB, and 0.17 MB above the
    # block's, where a second block would add 0.1 MB
    @pytest.mark.parametrize(
        "n, rows, slack", [(100_000, None, 1 << 19), (100, 1024, 1 << 18)], ids=["word", "block"]
    )
    def test_markov_word_memory_does_not_grow_with_the_alphabet(self, n, rows, slack):
        # 64 letters, so memory that grew with the alphabet would far exceed the bound
        env = MarkovEnvironment(np.full(64, 1 / 64), np.full((64, 64), 1 / 64))
        rng = np.random.default_rng(15)
        tracemalloc.start()
        try:
            word = env.sample_word(n, rng, rows=rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < word.nbytes + slack, peak - word.nbytes

    def test_top_uniform_draws_the_last_letter_of_a_short_row(self):
        # masses a rounding short of 1: the largest uniform lies above every
        # CDF entry and must still pick the last letter
        short = 0.4 - 1e-13
        transition = np.array([[0.3, 0.3, short]] * 3)
        env = MarkovEnvironment(np.array([0.3, 0.3, short]), transition)
        assert np.array_equal(env.sample_word(5, _TopUniform()), [2] * 5)
        assert np.array_equal(env.sample_word(5, _TopUniform(), rows=4), np.full((4, 5), 2))

    @pytest.mark.parametrize("n_letters", [3, 16])
    def test_top_uniform_draws_the_last_iid_letter(self, n_letters):
        masses = np.full(n_letters, 1 / n_letters)
        masses[-1] -= 1e-13
        env = IidEnvironment(masses)
        last = n_letters - 1
        assert np.array_equal(env.sample_word(5, _TopUniform()), [last] * 5)
        assert np.array_equal(env.sample_word(5, _TopUniform(), rows=4), np.full((4, 5), last))

    def test_top_uniform_draws_the_last_atom_of_a_short_law(self):
        l = law([((0, 0), 0.5), ((1, 0), 0.25), ((2, 1), 0.25 - 1e-13)])
        assert np.array_equal(l.sample(_TopUniform()), [2, 1])
        assert np.array_equal(l.sample(_TopUniform(), size=3), [[2, 1]] * 3)


class _TopUniform:
    """A generator whose every uniform is the largest double below 1."""

    def random(self, size=None):
        top = 1.0 - 2.0**-53
        return top if size is None else np.full(size, top)



class TestChildSeeds:
    def test_equals_spawn(self):
        # int seeds, and SeedSequence parents that are themselves children
        for seed in (0, 1, 7, 12345, 2**63 - 1, *np.random.SeedSequence(9).spawn(2)):
            got = list(child_seeds(seed, 6))
            is_sequence = isinstance(seed, np.random.SeedSequence)
            want = (seed if is_sequence else np.random.SeedSequence(seed)).spawn(6)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.spawn_key == b.spawn_key
                assert np.array_equal(a.generate_state(4), b.generate_state(4))
                draws = [np.random.default_rng(c).random(3) for c in (a, b)]
                assert np.array_equal(*draws)

    def test_first_of_many_children_is_built_alone(self):
        tracemalloc.start()
        try:
            first = next(child_seeds(3, 10**12))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert first.spawn_key == (0,)


class TestCodec:
    def test_minimal_document(self):
        doc = {
            "n_types": 2,
            "letters": [
                {
                    "name": "only",
                    "laws": [[{"z": [0, 0], "p": 1.0}], [{"z": [1, 1], "p": 1.0}]],
                }
            ],
            "environment": {"kind": "iid", "probs": [1.0]},
        }
        model = parse_model(json.dumps(doc))
        assert model.n_letters == 1 and model.n_types == 2

    def test_round_trip_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            model = random_model(rng)
            again = parse_model(write_model(model))
            assert write_model(again) == write_model(model)

    def test_carpet_round_trip_preserves_expectations(self):
        model = build_carpet_model(0.37)
        again = parse_model(write_model(model))
        for a, b in zip(model.letters, again.letters):
            assert np.array_equal(a.expectation, b.expectation)

    def test_mass_violation_is_invariant_error(self):
        doc = {
            "n_types": 2,
            "letters": [
                {"name": "x", "laws": [[{"z": [0, 0], "p": 0.9}], [{"z": [0, 0], "p": 1.0}]]}
            ],
            "environment": {"kind": "iid", "probs": [1.0]},
        }
        with pytest.raises(InvariantError, match="sum"):
            parse_model(json.dumps(doc))

    def test_env_probs_violation(self):
        doc = {
            "n_types": 2,
            "letters": [
                {"name": "x", "laws": [[{"z": [0, 0], "p": 1.0}], [{"z": [0, 0], "p": 1.0}]]}
            ],
            "environment": {"kind": "iid", "probs": [0.9]},
        }
        with pytest.raises(InvariantError, match="environment.probs"):
            parse_model(json.dumps(doc))

    def test_unknown_key_rejected_with_path(self):
        doc = {
            "n_types": 2,
            "letters": [
                {
                    "name": "x",
                    "laws": [[{"z": [0, 0], "p": 1.0, "q": 2}], [{"z": [0, 0], "p": 1.0}]],
                }
            ],
            "environment": {"kind": "iid", "probs": [1.0]},
        }
        with pytest.raises(ModelFormatError) as err:
            parse_model(json.dumps(doc))
        assert err.value.path == "letters[0].laws[0][0]"

    def test_bad_z_length(self):
        doc = {
            "n_types": 2,
            "letters": [
                {"name": "x", "laws": [[{"z": [0], "p": 1.0}], [{"z": [0, 0], "p": 1.0}]]}
            ],
            "environment": {"kind": "iid", "probs": [1.0]},
        }
        with pytest.raises(ModelFormatError) as err:
            parse_model(json.dumps(doc))
        assert "z" in err.value.path

    @pytest.mark.parametrize(
        "environment, z, p, path",
        [
            ({"kind": "iid", "probs": [10**400]}, [0, 0], 1.0, "environment.probs[0]"),
            (
                {"kind": "markov", "initial": [10**400], "transition": [[1.0]]},
                [0, 0], 1.0, "environment.initial[0]",
            ),
            (
                {"kind": "markov", "initial": [1.0], "transition": [[10**400]]},
                [0, 0], 1.0, "environment.transition[0][0]",
            ),
            ({"kind": "iid", "probs": [1.0]}, [0, 0], 10**400, "letters[0].laws[0][0].p"),
            ({"kind": "iid", "probs": [1.0]}, [0, 10**30], 1.0, "letters[0].laws[0][0].z[1]"),
        ],
        ids=["probs", "initial", "transition", "p", "z"],
    )
    def test_out_of_range_number_names_its_path(self, environment, z, p, path):
        # a JSON integer past the float range, or a count past int64
        doc = {
            "n_types": 2,
            "letters": [
                {"name": "x", "laws": [[{"z": z, "p": p}], [{"z": [0, 0], "p": 1.0}]]}
            ],
            "environment": environment,
        }
        with pytest.raises(ModelFormatError, match="too large for a float|int64 range") as err:
            parse_model(json.dumps(doc))
        assert err.value.path == path

    def test_integer_past_the_digit_limit_is_format_error(self):
        # json.loads refuses it with a ValueError that is not a JSONDecodeError
        with pytest.raises(ModelFormatError, match="invalid JSON: .*digits"):
            parse_model("[1" + "0" * 5000 + "]")


class TestInvariants:
    def test_duplicate_support_rejected(self):
        with pytest.raises(InvariantError, match="distinct"):
            OffspringLaw(np.array([[0, 0], [0, 0]]), np.array([0.5, 0.5]))

    def test_negative_count_rejected(self):
        with pytest.raises(InvariantError):
            OffspringLaw(np.array([[-1, 0]]), np.array([1.0]))

    @pytest.mark.parametrize("atom", [[2**62, 2**62], [2**63 - 1, 1]])
    def test_atom_total_past_int64_rejected(self, atom):
        # each count fits int64 but their total does not; an int64 sum wraps
        with pytest.raises(InvariantError, match="int64"):
            OffspringLaw(np.array([atom]), np.array([1.0]))

    def test_two_types_minimum(self):
        l = OffspringLaw(np.array([[1]]), np.array([1.0]))
        with pytest.raises(InvariantError):
            ModelSpec(1, (EnvironmentLetter("a", (l,)),), IidEnvironment([1.0]))

    def test_unique_letter_names(self):
        l = law([((0, 0), 1.0)])
        letter = EnvironmentLetter("a", (l, l))
        with pytest.raises(InvariantError, match="unique"):
            ModelSpec(2, (letter, letter), IidEnvironment([0.5, 0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_offspring_mass_rejected(self, bad):
        with pytest.raises(InvariantError, match="offspring probabilities.*finite"):
            OffspringLaw(np.array([[0, 0], [1, 0]]), np.array([bad, 0.5]))

    @pytest.mark.parametrize("probs", [[np.nan], [np.nan, 1.0], [np.inf, -np.inf]])
    def test_non_finite_iid_mass_rejected(self, probs):
        with pytest.raises(InvariantError, match="environment.probs.*finite"):
            IidEnvironment(probs)

    def test_non_finite_markov_mass_rejected(self):
        with pytest.raises(InvariantError, match="environment.initial.*finite"):
            MarkovEnvironment(np.array([np.nan, 0.5]), np.full((2, 2), 0.5))
        transition = np.array([[0.5, 0.5], [np.nan, 1.0]])
        with pytest.raises(InvariantError, match="transition row 1.*finite"):
            MarkovEnvironment(np.array([0.5, 0.5]), transition)

    def test_markov_row_mass_names_the_row(self):
        transition = np.array([[0.5, 0.5], [0.5, 0.6]])
        with pytest.raises(InvariantError, match="transition row 1.*sum to 1.1"):
            MarkovEnvironment(np.array([0.5, 0.5]), transition)


_POINT = OffspringLaw.from_pairs([((0, 0), 1.0)])
_POINT3 = OffspringLaw.from_pairs([((0, 0, 0), 1.0)])
_IID1 = IidEnvironment([1.0])
_LAWS = '[[{"z": [0, 0], "p": 1.0}], [{"z": [1, 0], "p": 1.0}]]'


def _document(laws=_LAWS, environment='{"kind": "iid", "probs": [1.0]}'):
    """A one-letter model document with the given laws and environment."""
    return (
        f'{{"n_types": 2, "letters": [{{"name": "x", "laws": {laws}}}], '
        f'"environment": {environment}}}'
    )


# every invariant and codec raise, as (build, error, message)
_MODEL_ERRORS = {
    "law-no-atoms": (lambda: OffspringLaw(np.zeros((0, 2)), []), InvariantError, "non-empty"),
    "law-3d-atoms": (lambda: OffspringLaw(np.zeros((1, 1, 2)), [1.0]), InvariantError, "non-empty"),
    "law-lengths": (
        lambda: OffspringLaw([[0, 0], [1, 0]], [1.0]), InvariantError, "lengths differ"
    ),
    "law-negative-mass": (
        lambda: OffspringLaw([[0, 0], [1, 0]], [1.5, -0.5]), InvariantError, "non-negative"
    ),
    "law-mass-sum": (lambda: OffspringLaw([[0, 0]], [0.9]), InvariantError, "sum to 0.9"),
    "letter-no-laws": (lambda: EnvironmentLetter("a", ()), InvariantError, "no offspring laws"),
    "letter-dimensions": (
        lambda: EnvironmentLetter("a", (_POINT, _POINT3)), InvariantError, "mixes"
    ),
    "iid-no-letter": (lambda: IidEnvironment([]), InvariantError, "at least one letter"),
    "iid-mass-sum": (lambda: IidEnvironment([0.5, 0.4]), InvariantError, "environment.probs"),
    "markov-no-letter": (
        lambda: MarkovEnvironment([], np.zeros((0, 0))), InvariantError, "at least one letter"
    ),
    "markov-shape": (
        lambda: MarkovEnvironment([0.5, 0.5], np.full((2, 3), 1 / 3)), InvariantError, "shape"
    ),
    "markov-initial-sum": (
        lambda: MarkovEnvironment([0.5, 0.6], np.full((2, 2), 0.5)),
        InvariantError,
        "environment.initial",
    ),
    "model-no-letters": (lambda: ModelSpec(2, (), _IID1), InvariantError, "at least one letter"),
    "model-law-count": (
        lambda: ModelSpec(2, (EnvironmentLetter("a", (_POINT,) * 3),), _IID1),
        InvariantError,
        "3 laws, expected 2",
    ),
    "model-dimension": (
        lambda: ModelSpec(2, (EnvironmentLetter("a", (_POINT3, _POINT3)),), _IID1),
        InvariantError,
        "wrong dimension",
    ),
    "model-environment-size": (
        lambda: ModelSpec(
            2, (EnvironmentLetter("a", (_POINT, _POINT)),), IidEnvironment([0.5, 0.5])
        ),
        InvariantError,
        "over 2 letters, model has 1",
    ),
    "codec-non-object": (lambda: parse_model("[]"), ModelFormatError, "expected an object"),
    "codec-missing-key": (
        lambda: parse_model('{"n_types": 2, "letters": []}'),
        ModelFormatError,
        "missing key 'environment'",
    ),
    "codec-empty-law": (
        lambda: parse_model(_document(laws='[[], [{"z": [1, 0], "p": 1.0}]]')),
        ModelFormatError,
        r"letters\[0\]\.laws\[0\]: expected a non-empty list",
    ),
    "codec-p-not-number": (
        lambda: parse_model(
            _document(laws='[[{"z": [0, 0], "p": "1"}], [{"z": [1, 0], "p": 1}]]')
        ),
        ModelFormatError,
        r"\.p: expected a number",
    ),
    "codec-probs-not-list": (
        lambda: parse_model(_document(environment='{"kind": "iid", "probs": 1.0}')),
        ModelFormatError,
        "environment.probs: expected a list of numbers",
    ),
    "codec-probs-strings": (
        lambda: parse_model(_document(environment='{"kind": "iid", "probs": ["0.5", "0.5"]}')),
        ModelFormatError,
        "environment.probs: expected a list of numbers",
    ),
    "codec-probs-booleans": (
        lambda: parse_model(_document(environment='{"kind": "iid", "probs": [true, false]}')),
        ModelFormatError,
        "environment.probs: expected a list of numbers",
    ),
    "codec-probs-nested": (
        lambda: parse_model(_document(environment='{"kind": "iid", "probs": [[0.5], [0.5]]}')),
        ModelFormatError,
        "environment.probs: expected a list of numbers",
    ),
    "codec-transition-not-list": (
        lambda: parse_model(
            _document(environment='{"kind": "markov", "initial": [1.0], "transition": 5}')
        ),
        ModelFormatError,
        "environment.transition: expected a list of rows",
    ),
    "codec-law-mass-above-one": (
        # within MASS_TOL of 1, but the schema's maximum for a mass is 1
        lambda: parse_model(
            _document(laws='[[{"z": [0, 0], "p": 1.0000000000005}], [{"z": [1, 0], "p": 1.0}]]')
        ),
        InvariantError,
        "offspring probabilities: a mass exceeds 1",
    ),
    "codec-transition-ragged": (
        lambda: parse_model(
            _document(
                environment='{"kind": "markov", "initial": [0.5, 0.5], '
                '"transition": [[0.5, 0.5], [1.0]]}'
            )
        ),
        ModelFormatError,
        r"environment\.transition\[1\]: expected a list of 2 numbers",
    ),
}


@pytest.mark.parametrize(
    "build, error, message", list(_MODEL_ERRORS.values()), ids=list(_MODEL_ERRORS)
)
def test_invariant_and_codec_errors(build, error, message):
    with pytest.raises(error, match=message):
        build()


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_pgf_monotone_property(data):
    weights = data.draw(
        st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6), label="weights"
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    grid = np.stack(np.meshgrid(np.arange(3), np.arange(3), indexing="ij"), -1).reshape(-1, 2)
    picks = rng.choice(len(grid), size=len(weights), replace=False)
    probs = np.array(weights) / np.sum(weights)
    l = OffspringLaw(grid[picks], probs)
    s = rng.random(2)
    t = s + (1 - s) * rng.random(2)
    assert l.pgf(s) <= l.pgf(t) + 1e-12
    assert l.pgf(np.ones(2)) == pytest.approx(1.0, abs=1e-12)


MODEL_SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "schemas" / "model.schema.json").read_text()
)
# the carpet model document and a Markov one over the carpet's point-mass letters
_MUTANT_SOURCES = [
    json.loads(write_model(build_carpet_model(0.4))),
    json.loads(
        write_model(
            ModelSpec(
                2, build_carpet_model(1.0).letters, MarkovEnvironment(np.full(3, 1 / 3), _MARKOV3)
            )
        )
    ),
]
_KEYS = "n_types letters environment name laws z p kind probs initial transition extra".split()
# replacements: a value of every JSON type, and numbers near and past the
# int64 and float ranges
_JSON_VALUES = st.one_of(
    st.sampled_from([None, True, "", "iid", [], {}]),
    st.sampled_from([-1, 3, 2**63, 10**400]),
    st.floats(),
)


def _nodes(value, path=()):
    """Every (path, node) under ``value``, ``value`` itself first."""
    yield path, value
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _nodes(child, path + (key,))


def _mutate(doc, draw):
    """``doc`` with one value replaced, one node copied over another, one key dropped
    or added, or one list shortened."""
    nodes = dict(_nodes(doc))
    paths = list(nodes)[1:]  # the root stays a document
    how = draw(st.sampled_from(["replace", "copy", "drop", "add"]))
    if how == "add":
        node = nodes[draw(st.sampled_from([p for p in nodes if isinstance(nodes[p], dict)]))]
        node[draw(st.sampled_from(_KEYS))] = draw(_JSON_VALUES)
        return
    if how == "replace":
        paths = [p for p in paths if not isinstance(nodes[p], (dict, list))]
    path = draw(st.sampled_from(paths))
    parent, key = nodes[path[:-1]], path[-1]
    if how == "replace":
        parent[key] = draw(_JSON_VALUES)
    elif how == "copy":
        parent[key] = copy.deepcopy(nodes[draw(st.sampled_from(paths))])
    elif isinstance(parent, dict):
        del parent[key]
    else:
        del parent[key:]  # the list keeps the entries before this one


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_mutated_model_document_is_refused_or_round_trips(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(_MUTANT_SOURCES)))
    for _ in range(data.draw(st.integers(1, 2))):
        _mutate(doc, data.draw)
    text = json.dumps(doc)
    try:
        model = parse_model(text)
    except (ModelFormatError, InvariantError):
        return
    if jsonschema is not None:
        # not jsonschema.validate, which checks the schema itself at every call
        jsonschema.Draft202012Validator(MODEL_SCHEMA).validate(json.loads(text))
    written = write_model(model)
    assert write_model(parse_model(written)) == written


@pytest.mark.parametrize(
    "environment, message",
    [
        ('{"kind": "iid", "probs": [1.0000000000005]}', r"environment\.probs: a mass exceeds 1"),
        (
            '{"kind": "markov", "initial": [1.0], "transition": [[1.0000000000005]]}',
            "environment.transition row 0: a mass exceeds 1",
        ),
    ],
    ids=["iid-probs", "markov-transition"],
)
def test_environment_mass_above_one_is_refused_by_schema_and_parser(environment, message):
    # within MASS_TOL of 1, so only the cap at 1 refuses it, in both
    text = _document(environment=environment)
    if jsonschema is not None:
        # the environment is a oneOf, so the cap shows among the branches' errors
        errors = list(jsonschema.Draft202012Validator(MODEL_SCHEMA).iter_errors(json.loads(text)))
        reasons = [e.message for error in errors for e in (error, *error.context)]
        assert any("greater than the maximum of 1" in r for r in reasons), reasons
    with pytest.raises(InvariantError, match=message):
        parse_model(text)
