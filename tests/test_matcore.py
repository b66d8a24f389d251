import numpy as np
import pytest

from mbpre import (
    BudgetError,
    col_min,
    find_positive_product_word,
    is_allowable,
    norm_sum,
    positivity_pattern,
    product_along_word,
    row_min,
)
from mbpre.carpet import COLUMN_MATRICES
from mbpre import matcore
from mbpre.matcore import allowability_offenders, boolean_product
from oracles import random_allowable_matrix


class TestReductions:
    def test_identity(self):
        i2 = np.eye(2)
        assert (norm_sum(i2), col_min(i2), row_min(i2)) == (2, 1, 1)

    def test_hand_sums(self):
        b = np.array([[1.0, 0.0], [2.0, 2.0]])
        assert norm_sum(b) == 5
        assert col_min(b) == 2
        assert row_min(b) == 1

    def test_zero_matrix(self):
        z = np.zeros((3, 3))
        assert norm_sum(z) == col_min(z) == row_min(z) == 0

    def test_sandwich(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            b = random_allowable_matrix(rng, n=int(rng.integers(2, 5)))
            n = b.shape[0]
            col_max = b.sum(axis=0).max()
            assert col_min(b) <= col_max + 1e-15
            assert n * col_min(b) <= norm_sum(b) + 1e-12
            assert norm_sum(b) <= n * col_max + 1e-12
            assert np.all(b.sum(axis=0) >= col_min(b) - 1e-15)

    def test_multiplicativity(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = random_allowable_matrix(rng)
            b = random_allowable_matrix(rng)
            ab = a @ b
            assert col_min(ab) >= col_min(a) * col_min(b) - 1e-12


class TestProductAlongWord:
    def test_empty_word_is_identity(self):
        assert np.array_equal(product_along_word(COLUMN_MATRICES, []), np.eye(2))

    def test_single_letter(self):
        assert np.array_equal(
            product_along_word(COLUMN_MATRICES, [1]), [[2, 1], [1, 2]]
        )

    def test_hand_product(self):
        assert np.array_equal(
            product_along_word(COLUMN_MATRICES, [0, 2]), [[2, 2], [4, 6]]
        )

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            product_along_word(COLUMN_MATRICES, [3])


class TestAllowable:
    def test_identity(self):
        assert is_allowable(np.eye(2))

    def test_carpet_letters(self):
        assert all(is_allowable(m) for m in COLUMN_MATRICES)

    def test_zero_row(self):
        assert not is_allowable(np.array([[0.0, 0.0], [1.0, 1.0]]))

    def test_offenders_list_rows_then_columns(self):
        b = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert allowability_offenders(b) == [
            ("row", 0), ("row", 2), ("column", 1), ("column", 2)
        ]
        assert allowability_offenders(np.eye(3)) == []


class TestPatterns:
    def test_pattern_homomorphism(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a = rng.random((3, 3)) * (rng.random((3, 3)) > 0.5)
            b = rng.random((3, 3)) * (rng.random((3, 3)) > 0.5)
            assert np.array_equal(
                positivity_pattern(a @ b),
                boolean_product(positivity_pattern(a), positivity_pattern(b)),
            )

    def test_many_witnesses_do_not_wrap(self):
        # every entry of A B has 256 witnesses, which a uint8 count wraps to 0
        n = 257
        a = np.ones((n, n), dtype=bool)
        a[:, 0] = False
        b = np.ones((n, n), dtype=bool)
        b[0, :] = False
        assert boolean_product(a, b).all()
        assert find_positive_product_word([a, b], [True, True], [[True, True], [True, True]]) == [
            0, 1
        ]


def search(patterns):
    """The positive-product search with every letter allowed at every step."""
    n = len(patterns)
    return find_positive_product_word(patterns, np.ones(n, dtype=bool), np.ones((n, n), dtype=bool))


_UPPER = positivity_pattern(np.array([[1.0, 1.0], [0.0, 1.0]]))
_LOWER = positivity_pattern(np.array([[1.0, 0.0], [1.0, 1.0]]))


class TestPositiveProductWord:
    def test_carpet_single_letter_witness(self):
        pats = [positivity_pattern(m) for m in COLUMN_MATRICES]
        assert search(pats) == [1]

    def test_triangular_closed(self):
        assert search([_LOWER]) is None

    def test_two_letter_witness_lexicographic(self):
        assert search([_UPPER, _LOWER]) == [0, 1]

    def test_budget_error_distinct_from_absence(self, monkeypatch):
        monkeypatch.setattr(matcore, "MAX_PATTERN_STATES", 1)
        with pytest.raises(BudgetError):
            search([_LOWER, _LOWER.T])

    def test_state_budget_shrinks_with_the_type_count(self, monkeypatch):
        # a swap and a 4-cycle generate the 24 permutations of 4 types: 48
        # (pattern, last letter) states, none positive. Each N x N key costs
        # N^2 bytes, so PATTERN_BYTES // 16 states are allowed at N = 4.
        swap = np.eye(4, dtype=bool)[[1, 0, 2, 3]]
        cycle = np.roll(np.eye(4, dtype=bool), 1, axis=1)
        monkeypatch.setattr(matcore, "PATTERN_BYTES", 16 * 48)
        assert search([swap, cycle]) is None
        monkeypatch.setattr(matcore, "PATTERN_BYTES", 16 * 48 - 1)
        with pytest.raises(BudgetError, match="exceeded 47 explored states"):
            search([swap, cycle])

    def test_witness_product_is_strictly_positive(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            mats = [random_allowable_matrix(rng, n=3, sparsity=0.5) for _ in range(2)]
            word = search([positivity_pattern(m) for m in mats])
            if word is not None:
                assert product_along_word(mats, word).min() > 0

    def test_start_mask(self):
        # barred from starting with letter 0, the witness is [1, 0]
        word = find_positive_product_word(
            [_UPPER, _LOWER], np.array([False, True]), np.ones((2, 2), dtype=bool)
        )
        assert word == [1, 0]

    def test_allowed_steps(self):
        # no step leaves a letter, so no word mixes the two triangles
        start = np.ones(2, dtype=bool)
        assert find_positive_product_word([_UPPER, _LOWER], start, np.eye(2, dtype=bool)) is None
        no_repeat = ~np.eye(2, dtype=bool)
        assert find_positive_product_word([_UPPER, _LOWER], start, no_repeat) == [0, 1]

    @pytest.mark.parametrize(
        "patterns",
        [[np.ones((2, 2), bool), np.ones((3, 3), bool)], [np.ones((2, 3), bool)]],
        ids=["mixed-sizes", "not-square"],
    )
    def test_rejects_pattern_shapes(self, patterns):
        with pytest.raises(ValueError, match="one square shape"):
            search(patterns)

    def test_rejects_mask_shapes(self):
        with pytest.raises(ValueError):
            find_positive_product_word([_UPPER, _LOWER], np.ones(3, dtype=bool), np.ones((2, 2)))
