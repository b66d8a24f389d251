from functools import reduce

import numpy as np
import pytest

from mbpre import BudgetError, find_positive_product_word
from mbpre.carpet import COLUMN_MATRICES
from mbpre import matcore
from mbpre.matcore import allowability_offenders
from oracles import random_allowable_matrix


class TestAllowable:
    def test_identity(self):
        assert allowability_offenders(np.eye(2)) == []

    def test_carpet_letters(self):
        assert not any(allowability_offenders(m) for m in COLUMN_MATRICES)

    def test_zero_row(self):
        assert allowability_offenders(np.array([[0.0, 0.0], [1.0, 1.0]])) == [("row", 0)]

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
            assert np.array_equal((a @ b) > 0, (a > 0) @ (b > 0))

    def test_many_witnesses_do_not_wrap(self):
        # every entry of A B has 256 witnesses, which a uint8 count wraps to 0
        n = 257
        a = np.ones((n, n), dtype=bool)
        a[:, 0] = False
        b = np.ones((n, n), dtype=bool)
        b[0, :] = False
        assert find_positive_product_word([a, b], [True, True], [[True, True], [True, True]]) == [
            0, 1
        ]


def search(patterns):
    """The positive-product search with every letter allowed at every step."""
    n = len(patterns)
    return find_positive_product_word(patterns, np.ones(n, dtype=bool), np.ones((n, n), dtype=bool))


_UPPER = np.array([[True, True], [False, True]])
_LOWER = _UPPER.T


class TestPositiveProductWord:
    def test_carpet_single_letter_witness(self):
        pats = [m > 0 for m in COLUMN_MATRICES]
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
            word = search([m > 0 for m in mats])
            if word is not None:
                assert reduce(np.matmul, (mats[i] for i in word)).min() > 0

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
