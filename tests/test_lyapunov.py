import math
import tracemalloc

import numpy as np
import pytest

from mbpre import (
    DegenerateProductError,
    IidEnvironment,
    MarkovEnvironment,
    BudgetError,
    estimate_exponent,
    exponent_along_word,
    exponent_two_types,
)
from mbpre import lyapunov
from mbpre.carpet import COLUMN_MATRICES
from mbpre.lyapunov import _CHUNK, KINDS, _GAUSS_NODES, _GAUSS_WEIGHTS, _symbol_length
from oracles import (
    exponent_sequential,
    mean_exponent_brackets,
    random_allowable_matrix,
    ulam_exponent_dense,
)

UNIFORM3 = IidEnvironment(np.array([1.0, 1.0, 1.0]) / 3)
STICKY3 = MarkovEnvironment(
    np.array([1.0, 1.0, 1.0]) / 3,
    np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]),
)
# a small chunk puts every boundary of the tree kernel within a few hundred letters
SMALL_CHUNK = 32


def _word_lengths(n_letters, chunk):
    """Word lengths around the kernel's boundaries for ``n_letters`` letters.

    Short words and n < 16 L (one letter per symbol), the lengths where the
    symbol length k steps up, and around the first length where the k-letter
    symbols exactly fill whole chunks, with tails of 0, 1 and k - 1 letters.
    """
    base = max(n_letters, 2)
    lengths = {1, 2, 3, 16 * n_letters - 1}
    k = 1
    while base ** (k + 1) <= chunk:
        k += 1
        lengths |= {16 * base**k - 1, 16 * base**k}
    # every word of at least 16 base^k letters reads k-letter symbols
    filled = -(-16 * base**k // (k * chunk)) * k * chunk
    return sorted(lengths | {filled - 1, filled, filled + 1, filled + k - 1, 2 * filled + 1})


# around the symbol and chunk boundaries of the kernel for three letters
WORD_LENGTHS = _word_lengths(3, SMALL_CHUNK)


def _assert_matches_reference(mats, env, lengths, rng):
    for length in lengths:
        word = env.sample_word(length, rng)
        for kind in KINDS:
            assert exponent_along_word(mats, word, kind) == pytest.approx(
                exponent_sequential(mats, word, kind), abs=1e-12
            ), (length, kind)


def _sticky(n_letters):
    """A Markov environment that repeats its letter half the time."""
    uniform = np.full(n_letters, 1.0 / n_letters)
    return MarkovEnvironment(uniform, 0.5 * np.eye(n_letters) + 0.5 * uniform)


class TestExponentAlongWord:
    def test_identity_word(self):
        val = exponent_along_word([np.eye(2)], [0] * 50, "sum")
        assert val == pytest.approx(math.log(2) / 50, abs=1e-15)

    def test_single_carpet_letter(self):
        assert exponent_along_word(COLUMN_MATRICES, [1], "sum") == pytest.approx(
            math.log(6), abs=1e-12
        )

    def test_scalar_matrix_all_kinds(self):
        mats = [2.0 * np.eye(2)]
        for kind in ("sum", "colmin", "rowmin"):
            got = exponent_along_word(mats, [0] * 40, kind)
            extra = {"sum": math.log(2) / 40, "colmin": 0.0, "rowmin": 0.0}[kind]
            assert got == pytest.approx(math.log(2) + extra, abs=1e-12)

    def test_matches_direct_product(self):
        # renormalized evaluation equals the naive product for short words
        rng = np.random.default_rng(0)
        for n in (1, 3, 10, 25):
            word = rng.integers(0, 3, size=n)
            p = np.eye(2)
            for i in word:
                p = p @ COLUMN_MATRICES[i]
            for kind, red in (
                ("sum", p.sum()),
                ("colmin", p.sum(axis=0).min()),
                ("rowmin", p.sum(axis=1).min()),
            ):
                assert exponent_along_word(COLUMN_MATRICES, word, kind) == pytest.approx(
                    math.log(red) / n, abs=1e-12
                )

    def test_scaling_identity(self):
        rng = np.random.default_rng(1)
        word = rng.integers(0, 3, size=1000)
        for p in (0.1, 0.37, 0.999):
            scaled = [p * m for m in COLUMN_MATRICES]
            for kind in ("sum", "colmin", "rowmin"):
                diff = exponent_along_word(scaled, word, kind) - exponent_along_word(
                    COLUMN_MATRICES, word, kind
                )
                assert diff == pytest.approx(math.log(p), abs=1e-12)

    def test_kind_ordering_per_word(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            mats = [random_allowable_matrix(rng, n=3) for _ in range(2)]
            word = rng.integers(0, 2, size=200)
            lo = exponent_along_word(mats, word, "colmin")
            mid = exponent_along_word(mats, word, "sum")
            hi = _colmax_exp(mats, word)
            assert lo <= mid + 1e-12
            assert mid <= math.log(3) / 200 + hi + 1e-12  # ||B|| <= N ||B||_1
            assert lo <= hi + 1e-12  # (B)_* <= ||B||_1

    def test_renormalization_invariance(self):
        # renormalizing per tree level agrees with renormalizing per step
        rng = np.random.default_rng(3)
        word = rng.integers(0, 3, size=10_000)
        for kind in KINDS:
            assert exponent_along_word(COLUMN_MATRICES, word, kind) == pytest.approx(
                exponent_sequential(COLUMN_MATRICES, word, kind), abs=1e-12
            )

    def test_general_path_matches_fast_path(self):
        # embed the 2x2 family in 3x3 block form and compare exponents
        rng = np.random.default_rng(4)
        word = rng.integers(0, 3, size=500)
        big = []
        for m in COLUMN_MATRICES:
            b = np.eye(3)
            b[:2, :2] = m
            big.append(b)
        small = exponent_along_word(COLUMN_MATRICES, word, "colmin")
        embedded = exponent_along_word(big, word, "colmin")
        assert small >= embedded - 1e-12  # identity block floors the column minimum

    def test_degenerate_sum(self):
        with pytest.raises(DegenerateProductError) as err:
            exponent_along_word([np.zeros((2, 2))], [0], "sum")
        assert err.value.step == 1

    def test_degenerate_colmin_mid_product(self):
        m = np.array([[0.0, 1.0], [0.0, 1.0]])  # column 0 dead: not allowable
        with pytest.raises(DegenerateProductError) as err:
            exponent_along_word([m], [0, 0], "colmin")
        assert err.value.step == 1

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            exponent_along_word(COLUMN_MATRICES, [])

    @pytest.mark.parametrize(
        "mats, word",
        [
            (COLUMN_MATRICES, [-1]),
            ([np.eye(3), 2 * np.eye(3)], [0, -1, 1]),
            (COLUMN_MATRICES, [0, 3]),
            (COLUMN_MATRICES, [0.0, 1.0]),
        ],
        ids=["negative", "negative-3x3", "past-end", "float"],
    )
    def test_bad_letters_rejected(self, mats, word):
        with pytest.raises(ValueError, match="letters must be integers"):
            exponent_along_word(mats, word)


def _outcome(fn, mats, word, kind):
    try:
        return fn(mats, word, kind)
    except DegenerateProductError as err:
        return (err.step, err.kind)


class TestTreeKernel:
    """The pairwise-tree kernel against the per-step reference."""

    @pytest.mark.parametrize("env", [UNIFORM3, STICKY3], ids=["iid", "markov"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_sequential_reference(self, n, env, monkeypatch):
        monkeypatch.setattr(lyapunov, "_CHUNK", SMALL_CHUNK)
        rng = np.random.default_rng(100 + n)
        mats = [random_allowable_matrix(rng, n=n) for _ in range(3)]
        _assert_matches_reference(mats, env, WORD_LENGTHS, rng)

    @pytest.mark.parametrize("n_letters", [1, 2, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_other_alphabets_match_sequential_reference(self, n, n_letters, monkeypatch):
        monkeypatch.setattr(lyapunov, "_CHUNK", SMALL_CHUNK)
        rng = np.random.default_rng(100 + 10 * n + n_letters)
        mats = [random_allowable_matrix(rng, n=n) for _ in range(n_letters)]
        lengths = _word_lengths(n_letters, SMALL_CHUNK)
        _assert_matches_reference(mats, _sticky(n_letters), lengths, rng)

    def test_symbol_length(self):
        assert _symbol_length(3, 15, _CHUNK) == 1
        assert _symbol_length(3, 16 * 9 - 1, _CHUNK) == 1
        assert _symbol_length(3, 16 * 9, _CHUNK) == 2
        assert _symbol_length(3, 100_000, _CHUNK) == 7  # 3^7 = 2187 <= 4096 < 3^8
        # one letter counts as two, so k stays finite however long the word
        assert _symbol_length(1, 10**12, _CHUNK) == _symbol_length(2, 10**12, _CHUNK) == 12

    def test_memory_bounded_in_the_type_count(self, monkeypatch):
        # a table and a chunk hold at most _FLOATS floats; with 2^16 of them
        # 16 x 16 matrices take chunks of 256 symbols. The traced peak read
        # 1.4 MB so, and 10.3 MB with chunks of 4096.
        monkeypatch.setattr(lyapunov, "_FLOATS", 1 << 16)
        rng = np.random.default_rng(15)
        mats = [random_allowable_matrix(rng, n=16) for _ in range(2)]
        word = rng.integers(0, 2, size=20_000)
        exponent_along_word(mats, word[:100])
        tracemalloc.start()
        try:
            got = exponent_along_word(mats, word)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6, peak
        assert got == pytest.approx(exponent_sequential(mats, word), abs=1e-12)

    @pytest.mark.parametrize("allowable", [True, False], ids=["carpet", "not-allowable"])
    def test_words_shorter_than_one_chunk(self, allowable):
        # fewer than _CHUNK symbols: the one chunk is a partial gather, and
        # its tail of 0 to k - 1 letters may be an empty one
        mats = list(COLUMN_MATRICES)
        if not allowable:
            mats[2] = np.array([[2.0, 2.0], [0.0, 0.0]])
        rng = np.random.default_rng(16)
        for length in (1, 2, 47, 48, 143, 144, 145, 146, 4095):
            k = _symbol_length(3, length, _CHUNK)
            assert length // k < _CHUNK
            word = UNIFORM3.sample_word(length, rng)
            for kind in KINDS:
                # a zero row makes rowmin degenerate: both name the same step
                want = _outcome(exponent_sequential, mats, word, kind)
                got = _outcome(exponent_along_word, mats, word, kind)
                if isinstance(want, tuple):
                    assert got == want, (length, kind)
                else:
                    assert got == pytest.approx(want, abs=1e-12), (length, kind)

    def test_one_letter_family(self):
        assert exponent_along_word([[[2.0]]], np.zeros(10**6, dtype=np.int64)) == pytest.approx(
            math.log(2), abs=1e-12
        )
        # the all-ones vector is an eigenvector: the entry sum of M^n is 2 (3/4)^n
        mats = [np.array([[0.5, 0.25], [0.25, 0.5]])]
        n = 100_001
        assert exponent_along_word(mats, [0] * n) == pytest.approx(
            math.log(0.75) + math.log(2) / n, abs=1e-12
        )

    def test_unused_zero_product_in_table(self, monkeypatch):
        # x after y is the zero matrix, so the table holds zero products;
        # a word that never puts x after y must not read them
        monkeypatch.setattr(lyapunov, "_CHUNK", SMALL_CHUNK)
        x = np.array([[1.0, 0.0], [0.0, 0.0]])
        y = np.array([[0.0, 1.0], [0.0, 1.0]])
        word = [0] * 150 + [1] * 151
        assert _symbol_length(2, len(word), SMALL_CHUNK) == 4
        assert exponent_along_word([x, y], word) == pytest.approx(
            exponent_sequential([x, y], word), abs=1e-12
        )
        with pytest.raises(DegenerateProductError) as err:
            exponent_along_word([x, y], word + [0])
        assert (err.value.step, err.value.kind) == (len(word) + 1, "sum")

    def test_real_chunk_boundaries(self):
        # one full chunk of 6-letter symbols, then 10 symbols and a 5-letter tail
        rng = np.random.default_rng(14)
        mats = [random_allowable_matrix(rng, n=2) for _ in range(3)]
        length = 6 * (_CHUNK + 10) + 5
        assert _symbol_length(3, length, _CHUNK) == 6
        word = STICKY3.sample_word(length, rng)
        assert exponent_along_word(mats, word) == pytest.approx(
            exponent_sequential(mats, word), abs=1e-12
        )

    def test_long_carpet_word(self):
        word = UNIFORM3.sample_word(100_000, np.random.default_rng(12))
        assert exponent_along_word(COLUMN_MATRICES, word) == pytest.approx(
            exponent_sequential(COLUMN_MATRICES, word), abs=1e-12
        )

    def test_degenerate_step_matches_reference(self):
        # one sparse letter with a zero column among allowable ones: the
        # colmin reduction dies at its step, in either chunk, and the other
        # kinds may or may not
        rng = np.random.default_rng(13)
        length = 2 * _CHUNK + 5
        for n, at in zip((2, 3) * 3, (0, 7, _CHUNK - 1, _CHUNK, _CHUNK + 1, length - 1)):
            sparse = rng.random((n, n)) * (rng.random((n, n)) > 0.5)
            sparse[:, rng.integers(n)] = 0.0
            mats = [random_allowable_matrix(rng, n=n, sparsity=0.0) for _ in range(2)]
            mats.append(sparse)
            word = rng.integers(0, 2, size=length)
            word[at] = 2
            for kind in KINDS:
                want = _outcome(exponent_sequential, mats, word, kind)
                got = _outcome(exponent_along_word, mats, word, kind)
                if isinstance(want, tuple):
                    assert got == want
                else:
                    assert got == pytest.approx(want, abs=1e-12)
                if kind == "colmin":
                    assert want[0] == at + 1

    def test_underflow_raises(self):
        # the (0, 0) entry of the renormalized product falls like 2^-n and
        # underflows near step 1075, though the exact column minimum is 1
        mats = [np.array([[1.0, 1.0], [0.0, 2.0]])]
        assert exponent_along_word(mats, [0] * 2000, "sum") == pytest.approx(
            math.log(2), abs=1e-3
        )
        with pytest.raises(DegenerateProductError) as err:
            exponent_along_word(mats, [0] * 2000, "colmin")
        assert (err.value.step, err.value.kind) == (2000, "colmin")

    def test_degenerate_across_chunk_boundary(self):
        # x keeps only type 0 and y only type 1: neither is zero, but the
        # prefix dies where y follows x across the chunk boundary
        x = np.array([[1.0, 0.0], [0.0, 0.0]])
        y = np.array([[0.0, 0.0], [0.0, 1.0]])
        word = [0] * (_CHUNK - 1) + [1] + [0] * 5 + [2, 0]
        want = {"sum": (_CHUNK + 6, "sum"), "colmin": (_CHUNK, "colmin"),
                "rowmin": (_CHUNK, "rowmin")}
        for kind in KINDS:
            with pytest.raises(DegenerateProductError) as err:
                exponent_along_word([np.eye(2), x, y], word, kind)
            assert (err.value.step, err.value.kind) == want[kind]


def _colmax_exp(mats, word):
    p = np.eye(mats[0].shape[0])
    scale = 0.0
    for i in word:
        p = p @ mats[i]
        s = p.sum()
        p /= s
        scale += math.log(s)
    return (scale + math.log(p.sum(axis=0).max())) / len(word)


class TestEstimateExponent:
    def test_deterministic_single_letter(self):
        est = estimate_exponent(
            [3.0 * np.eye(2)],
            IidEnvironment([1.0]),
            kind="sum",
            steps_per_batch=100,
            batches=4,
            seed=0,
        )
        assert est.point == pytest.approx(math.log(3) + math.log(2) / 100, abs=1e-12)
        assert est.half_width == pytest.approx(0.0, abs=1e-12)

    def test_point_within_exact_brackets(self):
        # exhaustive word-average brackets pin the true exponent
        lo, hi = mean_exponent_brackets(COLUMN_MATRICES, 8)
        est = estimate_exponent(
            COLUMN_MATRICES,
            UNIFORM3,
            kind="sum",
            steps_per_batch=20_000,
            batches=8,
            seed=5,
        )
        assert lo - 0.01 <= est.point <= hi + 0.01

    def test_kind_agreement(self):
        ests = {
            kind: estimate_exponent(
                COLUMN_MATRICES,
                UNIFORM3,
                kind=kind,
                steps_per_batch=20_000,
                batches=8,
                seed=6,
            ).point
            for kind in ("sum", "colmin", "rowmin")
        }
        vals = list(ests.values())
        assert max(vals) - min(vals) < 0.01

    def test_reproducible(self):
        kwargs = dict(kind="sum", steps_per_batch=500, batches=4, seed=9)
        a = estimate_exponent(COLUMN_MATRICES, UNIFORM3, **kwargs)
        b = estimate_exponent(COLUMN_MATRICES, UNIFORM3, **kwargs)
        assert a == b

    def test_model_input_with_markov_environment(self):
        env = MarkovEnvironment(
            np.array([0.5, 0.5]), np.array([[0.9, 0.1], [0.1, 0.9]])
        )
        est = estimate_exponent(
            [np.eye(2), 2 * np.eye(2)],
            env,
            kind="sum",
            steps_per_batch=200,
            batches=4,
            seed=11,
        )
        assert 0 < est.point < math.log(2) + 0.1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            estimate_exponent(
                COLUMN_MATRICES, UNIFORM3, kind="sum", steps_per_batch=50, batches=4, seed=0
            )
        with pytest.raises(ValueError):
            estimate_exponent(
                COLUMN_MATRICES, UNIFORM3, kind="sum", steps_per_batch=100, batches=1, seed=0
            )
        with pytest.raises(ValueError):
            estimate_exponent(
                COLUMN_MATRICES, UNIFORM3, kind="spectral", steps_per_batch=100, batches=2, seed=0
            )

    @pytest.mark.parametrize("allowable", [True, False], ids=["carpet", "not-allowable"])
    def test_one_table_per_estimate(self, monkeypatch, allowable):
        # every batch has steps_per_batch letters, so one product table
        # serves all 8, and each batch's value is, bit for bit, the
        # exponent along its own word. The second family has a zero row,
        # so its words take the prefix scan; small chunks give each word
        # several chunks and a tail
        mats = list(COLUMN_MATRICES)
        if not allowable:
            mats[2] = np.array([[2.0, 2.0], [0.0, 0.0]])
        monkeypatch.setattr(lyapunov, "_CHUNK", SMALL_CHUNK)
        builds, batches = [], []
        build, kernel = lyapunov._product_table, lyapunov._word_exponent

        def counted_build(*args):
            builds.append(args[1])
            return build(*args)

        def recorded_kernel(mats, word, kind, tables):
            assert tables[-1] is not allowable
            value = kernel(mats, word, kind, tables)
            batches.append((word.copy(), value))
            return value

        monkeypatch.setattr(lyapunov, "_product_table", counted_build)
        monkeypatch.setattr(lyapunov, "_word_exponent", recorded_kernel)
        steps = 16 * 3**2 * SMALL_CHUNK + 5
        est = estimate_exponent(
            mats, UNIFORM3, kind="colmin", steps_per_batch=steps, batches=8, seed=21
        )
        assert builds == [3]  # k = 3 letters a symbol: 3^3 <= 32 < 3^4
        monkeypatch.setattr(lyapunov, "_word_exponent", kernel)
        words = [
            UNIFORM3.sample_word(steps, np.random.default_rng(child))
            for child in np.random.SeedSequence(21).spawn(8)
        ]
        assert len(batches) == 8
        for (word, value), want in zip(batches, words):
            assert np.array_equal(word, want)
            assert exponent_along_word(mats, word, "colmin") == value
        assert est.point == float(np.mean([value for _, value in batches]))

    @pytest.mark.parametrize(
        "mats, probs",
        [(COLUMN_MATRICES, [0.5, 0.5]), (COLUMN_MATRICES[:2], [1 / 3] * 3)],
        ids=["3-matrices-2-letters", "2-matrices-3-letters"],
    )
    def test_family_must_match_environment(self, monkeypatch, mats, probs):
        env = IidEnvironment(np.array(probs))

        def no_sampling(*args, **kwargs):
            raise AssertionError("a word was sampled before the family was checked")

        monkeypatch.setattr(IidEnvironment, "sample_word", no_sampling)
        with pytest.raises(ValueError, match="letters"):
            estimate_exponent(mats, env, kind="sum", steps_per_batch=100, batches=2, seed=0)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: lyapunov.LyapunovEstimate("sum", 0.1, -1e-9, 100, 2), "half_width must be >= 0"),
        (lambda: exponent_along_word([np.eye(2), np.eye(3)], [0, 1]), "one square shape"),
        (lambda: exponent_along_word([np.ones((2, 3))], [0]), "one square shape"),
    ],
    ids=["negative-half-width", "mixed-sizes", "not-square"],
)
def test_argument_errors(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# the carpet's lambda_B: Ulam's method at 64000 cells reads 0.9732052251
LAMBDA_B = 0.973205225


class TestExponentTwoTypes:
    def test_gauss_legendre_constants(self):
        nodes, weights = np.polynomial.legendre.leggauss(8)
        assert np.abs(_GAUSS_NODES - nodes).max() <= 1e-15
        assert np.abs(_GAUSS_WEIGHTS - weights).max() <= 1e-15

    def test_carpet_lambda_b(self):
        coarse = exponent_two_types(COLUMN_MATRICES, UNIFORM3, 1000)
        fine = exponent_two_types(COLUMN_MATRICES, UNIFORM3, 2000)
        assert abs(coarse - fine) <= 1e-6
        for value in (coarse, fine):
            assert abs(value - LAMBDA_B) <= 1e-6
            # Jensen: lambda_B <= log rho(E M) = log(8/3)
            assert value < math.log(8 / 3)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_families_meet_references(self, seed):
        # two random allowable letters, uniform: the product-table bracket
        # enumerates 2^10 words. The Monte Carlo interval is widened to twice
        # its reported half-width: its start bias of about 0.7 / steps and
        # its normal quantile at 8 batches leave it short of 95% coverage.
        rng = np.random.default_rng(seed)
        mats = [random_allowable_matrix(rng) for _ in range(2)]
        env = IidEnvironment(np.array([0.5, 0.5]))
        # the same method, with a dense matrix filled cell by cell, at
        # uneven letter masses
        probs = rng.dirichlet([1.0, 1.0])
        assert exponent_two_types(mats, IidEnvironment(probs), 40) == pytest.approx(
            ulam_exponent_dense(mats, probs, 40), abs=1e-10
        )
        value = exponent_two_types(mats, env, 1000)
        lo, hi = mean_exponent_brackets(mats, 10)
        assert lo <= value <= hi
        est = estimate_exponent(mats, env, steps_per_batch=2000, batches=8, seed=seed)
        assert abs(value - est.point) <= 2 * est.half_width

    def test_zero_mass_letter_is_left_out(self):
        # a letter of zero mass need not be allowable and changes nothing
        env = IidEnvironment(np.array([1.0, 1.0, 1.0, 0.0]) / 3)
        mats = [*COLUMN_MATRICES, np.zeros((2, 2))]
        assert exponent_two_types(mats, env, 500) == exponent_two_types(
            COLUMN_MATRICES, UNIFORM3, 500
        )

    def test_markov_environment_with_iid_rows(self):
        # a chain whose every row is its stationary law draws i.i.d. letters
        probs = np.array([0.5, 0.3, 0.2])
        chain = MarkovEnvironment(probs, np.tile(probs, (3, 1)))
        assert exponent_two_types(COLUMN_MATRICES, chain, 500) == exponent_two_types(
            COLUMN_MATRICES, IidEnvironment(probs), 500
        )

    def test_point_image_goes_to_its_cell(self):
        # a rank-one letter sends every x to one point, 0.3 here, where its
        # row sum 4 - x is its spectral radius 3.7: all mass goes to the cell
        # holding 0.3, so the value is log 3.7 up to the log row sum's
        # variation over one cell, 1 / (3.7 cells)
        rank_one = np.array([[0.9, 2.1], [1.2, 2.8]])
        for cells in (10, 100, 1000):
            value = exponent_two_types([rank_one], IidEnvironment(np.array([1.0])), cells)
            assert abs(value - math.log(3.7)) <= 0.3 / cells

    def test_memory_is_a_few_hundred_bytes_a_cell(self):
        tracemalloc.start()
        try:
            exponent_two_types(COLUMN_MATRICES, UNIFORM3, 2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2000 * 512

    @pytest.mark.parametrize(
        "mats, env, message",
        [
            ([np.ones((3, 3))], IidEnvironment(np.array([1.0])), "2 x 2"),
            (COLUMN_MATRICES, STICKY3, "i.i.d."),
            ([np.array([[1.0, 1.0], [0.0, 0.0]])], IidEnvironment(np.array([1.0])), "allowable"),
            (COLUMN_MATRICES, IidEnvironment(np.array([0.5, 0.5])), "letters"),
        ],
        ids=["three-types", "markov", "not-allowable", "wrong-alphabet"],
    )
    def test_other_families_are_refused(self, mats, env, message):
        with pytest.raises(ValueError, match=message):
            exponent_two_types(mats, env, 100)

    def test_cells_are_bounded(self, monkeypatch):
        with pytest.raises(ValueError, match="cells"):
            exponent_two_types(COLUMN_MATRICES, UNIFORM3, 0)
        monkeypatch.setattr(lyapunov, "_ULAM_BUDGET", 3 * 100)
        exponent_two_types(COLUMN_MATRICES, UNIFORM3, 100)
        with pytest.raises(BudgetError, match="budget"):
            exponent_two_types(COLUMN_MATRICES, UNIFORM3, 101)

    def test_no_unique_stationary_law_is_a_budget_error(self, monkeypatch):
        # one antidiagonal letter swaps the two halves of [0, 1]: the iterates
        # alternate, so the iteration stops at its cap
        monkeypatch.setattr(lyapunov, "_ULAM_ITERATIONS", 50)
        swap = [np.array([[0.0, 2.0], [1.0, 0.0]])]
        with pytest.raises(BudgetError, match="after 50 steps"):
            exponent_two_types(swap, IidEnvironment(np.array([1.0])), 64)
