import contextlib
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from mbpre import (
    BudgetError,
    InvariantError,
    LyapunovEstimate,
    SquareSet,
    bisect_critical,
    build_carpet_model,
    critical_p,
    empirical_offspring_stats,
    lambda_b,
    projection_intervals,
    projection_measure,
    sample_carpet,
    sample_projection_measures,
)
from mbpre import carpet
from mbpre.carpet import MAX_SQUARES, COLUMN_MATRICES, intervals_to_csv, square_set_to_text
from mbpre.cli import main
from oracles import (
    carpet_levels_broadcast,
    law_as_dict,
    mean_exponent_brackets,
    projection_intervals_unique,
)


class TestBuildCarpetModel:
    def test_expectation_matrices_match_scaled_bases(self):
        rng = np.random.default_rng(0)
        for p in rng.uniform(0.01, 0.999, size=100):
            model = build_carpet_model(float(p))
            for letter, base in zip(model.letters, COLUMN_MATRICES):
                assert np.max(np.abs(letter.expectation - p * base)) <= 1e-12

    def test_mismatched_expectation_is_refused(self, monkeypatch):
        from mbpre import carpet

        skewed = (COLUMN_MATRICES[0], COLUMN_MATRICES[1] + 0.5, COLUMN_MATRICES[2])
        monkeypatch.setattr(carpet, "COLUMN_MATRICES", skewed)
        with pytest.raises(InvariantError, match="'col1' expectation differs from p \\* base"):
            build_carpet_model(0.4)

    def test_degenerate_limit_is_point_masses(self):
        model = build_carpet_model(1.0)
        for letter, base in zip(model.letters, COLUMN_MATRICES):
            for law in letter.laws:
                assert len(law.probs) == 1
                assert law.probs[0] == 1.0
            assert np.array_equal(letter.expectation, base)

    def test_column0_lower_joint_pmf(self):
        law = build_carpet_model(0.5).letters[0].laws[1]
        assert law_as_dict(law)[(1, 2)] == pytest.approx(0.125, abs=1e-15)

    def test_range_validation(self):
        for bad in (0.0, -0.1, 1.0001):
            with pytest.raises(ValueError):
                build_carpet_model(bad)

    def test_environment_is_uniform_iid(self):
        env = build_carpet_model(0.4).environment
        assert env.kind == "iid"
        assert np.allclose(env.probs, 1 / 3)


class TestLambdaB:
    def test_point_within_exact_brackets(self):
        lo, hi = mean_exponent_brackets(COLUMN_MATRICES, 8)
        est = lambda_b(20_000, 8, seed=0)
        assert lo - 0.01 <= est.point <= hi + 0.01

    def test_jensen_bounds(self):
        # Jensen: lambda_B <= log of the spectral radius of the mean column
        # matrix, log(8/3), and so p_c = exp(-lambda_B) >= 3/8
        est = lambda_b(100_000, 8, seed=7)
        assert est.point + est.half_width <= math.log(8 / 3)
        p_low, _ = critical_p(est)
        assert p_low >= 3 / 8

    def test_scaling_consistency_with_retention(self):
        from mbpre import IidEnvironment, estimate_exponent

        p = 0.37
        scaled = [p * m for m in COLUMN_MATRICES]
        env = IidEnvironment(np.full(3, 1 / 3))
        kwargs = dict(kind="sum", steps_per_batch=1000, batches=4, seed=1)
        a = estimate_exponent(scaled, env, **kwargs)
        b = estimate_exponent(COLUMN_MATRICES, env, **kwargs)
        assert a.point - b.point == pytest.approx(math.log(p), abs=1e-12)


class TestCriticalP:
    def test_inverse_identity(self):
        est = LyapunovEstimate("sum", math.log(4), 0.0, 1000, 8)
        lo, hi = critical_p(est)
        assert lo == hi == pytest.approx(0.25, abs=1e-15)

    def test_interval_endpoints(self):
        est = LyapunovEstimate("sum", (1.395 + 1.367) / 2, (1.395 - 1.367) / 2, 1000, 8)
        lo, hi = critical_p(est)
        assert lo == pytest.approx(math.exp(-1.395), abs=1e-12)
        assert hi == pytest.approx(math.exp(-1.367), abs=1e-12)
        assert lo == pytest.approx(0.247833, abs=1e-5)
        assert hi == pytest.approx(0.25487, abs=1e-5)

    def test_requires_positive_point(self):
        with pytest.raises(ValueError):
            critical_p(LyapunovEstimate("sum", -0.1, 0.0, 1000, 8))


def _cli_result(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv + ["--json"]) == 0
    return json.loads(out.getvalue())["result"]


class TestBisectCritical:
    @pytest.mark.parametrize(
        "flags, kwargs",
        [
            ([], dict(iterations=12, trials=400, horizon=200, cap=10**6, seed=0)),
            (
                ["--iterations", "4", "--trials", "100"],
                dict(iterations=4, trials=100, horizon=200, cap=10**6, seed=0),
            ),
        ],
    )
    def test_equals_the_cli_bisection(self, flags, kwargs):
        result = _cli_result(["carpet", "critical", "--bisect", *flags])
        assert bisect_critical(**kwargs) == (result["p_low"], result["p_high"])

    def test_bracket_never_collapses_to_a_point(self):
        # past about 53 halvings the midpoint rounds to an end of the bracket
        lo, hi = bisect_critical(iterations=60, trials=1, horizon=1, cap=10**6, seed=0)
        assert 0.05 <= lo < hi <= 0.95


class TestSampleCarpet:
    def test_full_retention_counts(self):
        rng = np.random.default_rng(2)
        for depth in (1, 2, 3):
            assert len(sample_carpet(1.0, depth, rng)) == 8**depth

    def test_mean_count(self):
        rng = np.random.default_rng(3)
        counts = [len(sample_carpet(0.5, 6, rng)) for _ in range(1000)]
        assert abs(np.mean(counts) - 4**6) / 4**6 < 0.05

    def test_ternary_invariant(self):
        rng = np.random.default_rng(4)
        sq = sample_carpet(0.9, 5, rng)
        x, y = sq.squares[:, 0].copy(), sq.squares[:, 1].copy()
        for _ in range(5):
            assert not np.any((x % 3 == 1) & (y % 3 == 1))
            x //= 3
            y //= 3

    def test_budget_error_before_allocation(self):
        with pytest.raises(BudgetError):
            sample_carpet(1.0, 12, np.random.default_rng(5))

    def test_level_budget_error_before_allocation(self, monkeypatch):
        # (8 * 0.5)^3 = 64 expected squares pass, but this draw keeps 16
        # squares at depth 2, whose 128 children exceed the budget
        monkeypatch.setattr(carpet, "MAX_SQUARES", 100)
        with pytest.raises(BudgetError, match="level population 16 "):
            sample_carpet(0.5, 3, np.random.default_rng(1))

    def test_square_set_invariant_enforced(self):
        with pytest.raises(InvariantError):
            SquareSet(1, np.array([[1, 1]]))

    @pytest.mark.parametrize("p", [0.3, 0.6, 1.0])
    @pytest.mark.parametrize("depth", range(1, 9))
    def test_levels_equal_broadcast_reference(self, p, depth):
        rng, ref_rng = np.random.default_rng(depth), np.random.default_rng(depth)
        if (8 * p) ** depth > MAX_SQUARES:
            # 8^8 squares at p = 1: refused before any draw
            with pytest.raises(BudgetError):
                sample_carpet(p, depth, rng)
        else:
            sq = sample_carpet(p, depth, rng)
            assert np.array_equal(sq.squares, carpet_levels_broadcast(p, depth, ref_rng))
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("seed, level", [(6, 1), (2, 2), (3, 5), (10, 6)])
    def test_carpet_that_dies_out(self, seed, level):
        # at p = 0.15 these seeds keep no child at the given level of 6: the
        # empty gather there leaves a (0, 2) set and ends the draws, as the
        # reference does
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        sq = sample_carpet(0.15, 6, rng)
        assert sq.squares.shape == (0, 2) and sq.squares.dtype == np.int64
        assert np.array_equal(sq.squares, carpet_levels_broadcast(0.15, 6, ref_rng))
        assert rng.random() == ref_rng.random()
        replay, alive, levels = np.random.default_rng(seed), 1, 0
        while alive:
            alive, levels = int(np.count_nonzero(replay.random(8 * alive) < 0.15)), levels + 1
        assert levels == level
        assert projection_measure(sq) == 0.0

    def test_deepest_carpet_fits_int64(self):
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        sq = sample_carpet(0.16, 39, rng)
        assert len(sq) > 0
        assert 0 <= sq.squares.min() and sq.squares.max() < 3**39
        assert np.array_equal(sq.squares, carpet_levels_broadcast(0.16, 39, ref_rng))

    def test_sampling_and_measure_memory(self):
        # the last level is built in the (n, 2) array the set keeps, and the
        # measure sorts its diagonals and clips its gaps in place: with a
        # column_stack copy and sorted, diff and minimum copies the traced
        # peaks were 3.73x and 1.50x the squares' bytes
        tracemalloc.start()
        try:
            sq = sample_carpet(0.62, 8, np.random.default_rng(3))
            held, sample_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            projection_measure(sq)
            measure_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert len(sq) == 456462
        assert sample_peak <= 3.3 * sq.squares.nbytes
        assert measure_peak <= 1.05 * sq.squares.nbytes

    @pytest.mark.parametrize("depth", [40, 45])
    def test_depth_past_int64_is_refused_before_any_draw(self, depth):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match=r"\[1, 39\]"):
            sample_carpet(0.14, depth, rng)
        assert rng.random() == np.random.default_rng(1).random()


# depths past 17 take three to five passes of 8 digits; the last pass of
# depth 24 and 32 holds 8 digits and needs no division, that of 25 and 39
# holds 1 and 7 digits after a division
_CHECK_DEPTHS = [*range(1, 18), 24, 25, 32, 39]


class TestSquareSetCheck:
    @pytest.mark.parametrize("depth", _CHECK_DEPTHS)
    def test_middle_digit_pair_raises_at_every_position(self, depth):
        # digit k of x and of y is 1, every other digit pair is (2, 0), so
        # only the pass that holds digit k can see it
        top = 3**depth - 1
        ok = [(0, 0), (top, top), (top, 0)]
        for k in range(depth):
            bad = (top - 3**k, 3**k)
            with pytest.raises(InvariantError, match="middle-cell"):
                SquareSet(depth, np.array(ok + [bad] + ok))

    @pytest.mark.parametrize("depth", _CHECK_DEPTHS)
    def test_lone_middle_digits_pass_at_every_position(self, depth):
        ones = (3**depth - 1) // 2  # every digit 1
        for k in range(depth):
            sq = SquareSet(depth, np.array([(3**k, ones - 3**k), (ones - 3**k, 3**k)]))
            assert len(sq) == 2

    def test_one_digit_table_marks_the_digits_that_are_1(self):
        # bit k of entry v is set iff base-3 digit k of v is 1, for all 3^8 entries
        v = np.arange(3**8)
        digits = v[:, None] // 3 ** np.arange(8) % 3
        assert np.array_equal(carpet._ONE_DIGITS, (digits == 1) @ (1 << np.arange(8)))

    @pytest.mark.parametrize("depth", [1, 8, 9, 17])
    def test_out_of_range_index_raises(self, depth):
        for bad in ((3**depth, 0), (0, 3**depth), (-1, 0), (0, -1)):
            with pytest.raises(InvariantError, match="out of range"):
                SquareSet(depth, np.array([(0, 0), bad]))

    @pytest.mark.parametrize("depth, bound", [(8, 0.25), (24, 2.25)])
    def test_check_memory(self, depth, bound):
        # a depth-8 check looks the columns up in place, two bytes a square
        # (0.125x), so any copy of a column fails it; a depth-24 one adds
        # one quotient and one remainder per coordinate (2.125x)
        carpet = sample_carpet(0.62, 8, np.random.default_rng(3))
        assert 3 * 10**5 < len(carpet) < 5 * 10**5
        squares = carpet.squares * 3 ** (depth - 8)
        tracemalloc.start()
        try:
            SquareSet(depth, squares)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * squares.nbytes


class TestProjection:
    def test_full_depth_one_covers_everything(self):
        sq = SquareSet(1, np.array([(i, j) for i in range(3) for j in range(3) if (i, j) != (1, 1)]))
        assert projection_measure(sq) == pytest.approx(2.0, abs=1e-15)
        segs = projection_intervals(sq)
        assert segs.shape == (1, 2)
        assert np.allclose(segs[0], [-1.0, 1.0])

    def test_empty_set(self):
        empty = SquareSet(3, np.empty((0, 2), dtype=np.int64))
        assert projection_measure(empty) == 0.0
        assert projection_intervals(empty).shape == (0, 2)

    def test_single_square_formula(self):
        sq = SquareSet(2, np.array([[0, 0]]))
        assert projection_measure(sq) == pytest.approx(2 / 9, abs=1e-15)

    def test_refinement_is_nonincreasing(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            base = sample_carpet(0.7, 3, rng)
            if len(base) == 0:
                continue
            children = (
                3 * base.squares[:, None, :]
                + np.array(
                    [(a, b) for a in range(3) for b in range(3) if (a, b) != (1, 1)]
                )[None, :, :]
            ).reshape(-1, 2)
            keep = rng.random(len(children)) < 0.7
            refined = SquareSet(4, children[keep])
            assert projection_measure(refined) <= projection_measure(base) + 1e-12

    def test_regression_floors_above_and_below_critical(self):
        empirical = {}
        for p, depth_range in ((0.4, (8,)), (0.15, (4, 5, 6, 7, 8))):
            for depth in depth_range:
                vals = []
                for child in np.random.SeedSequence(1234 + int(p * 100)).spawn(200):
                    sq = sample_carpet(p, depth, np.random.default_rng(child))
                    vals.append(projection_measure(sq))
                vals = np.array(vals)
                nonempty = vals[vals > 0]
                empirical[(p, depth)] = nonempty.mean() if nonempty.size else 0.0
        assert empirical[(0.4, 8)] > 0.2
        assert empirical[(0.15, 8)] < 0.05
        for d in (5, 6, 7, 8):
            assert empirical[(0.15, d)] <= empirical[(0.15, d - 1)]


    @pytest.mark.parametrize("p, depth", [(0.6, 3), (0.6, 6), (0.9, 5), (0.3, 8)])
    def test_sweep_equals_unique_sweep_bit_for_bit(self, p, depth):
        for child in np.random.SeedSequence(depth).spawn(20):
            sq = sample_carpet(p, depth, np.random.default_rng(child))
            if len(sq) == 0:
                continue
            d = sq.squares[:, 0] - sq.squares[:, 1]
            assert np.unique(d).size < d.size  # repeated diagonals
            ref = projection_intervals_unique(sq.squares, depth)
            assert np.array_equal(projection_intervals(sq), ref)
            units = np.rint(ref * 3**depth).astype(np.int64)
            assert projection_measure(sq) == int((units[:, 1] - units[:, 0]).sum()) / 3**depth

    def test_sampled_measures_equal_the_cli_measures(self):
        argv = ["carpet", "project", "--p", "0.6", "--depth", "5", "--samples", "30",
                "--seed", "3"]
        measures = sample_projection_measures(0.6, 5, 30, 3)
        assert measures.tolist() == _cli_result(argv)["measures"]

    def test_stacked_repeats_merge_once(self):
        # three squares on diagonal 0, two on 2, one on 6: [-1, 3] and [5, 7]
        squares = np.array([(0, 0), (2, 2), (6, 6), (2, 0), (8, 6), (6, 0)])
        sq = SquareSet(2, squares)
        ref = projection_intervals_unique(squares, 2)
        assert np.array_equal(projection_intervals(sq), ref)
        assert np.array_equal(ref * 9, [[-1, 3], [5, 7]])


class TestOffspringStats:
    def test_column0_upper_mean(self):
        stats = empirical_offspring_stats(0.5, 0, 0, 100_000, np.random.default_rng(7))
        assert abs(stats.mean[0] - 0.5) < 0.01
        assert stats.mean[1] == 0.0

    def test_column2_lower_mean(self):
        stats = empirical_offspring_stats(0.3, 2, 1, 100_000, np.random.default_rng(8))
        assert stats.mean[0] == 0.0
        assert abs(stats.mean[1] - 0.3) < 0.01

    def test_joint_pmf_matches_model_law(self):
        model = build_carpet_model(0.5)
        for column, parent in ((0, 1), (1, 0)):
            stats = empirical_offspring_stats(
                0.5, column, parent, 100_000, np.random.default_rng(9 + column)
            )
            want = law_as_dict(model.letters[column].laws[parent])
            atoms = set(stats.pmf) | set(want)
            tv = 0.5 * sum(abs(stats.pmf.get(a, 0.0) - want.get(a, 0.0)) for a in atoms)
            assert tv < 0.02

    def test_type_counts_uncorrelated(self):
        # column 0, lower parent: the four contributing squares are distinct
        rng = np.random.default_rng(10)
        n = 100_000
        kept = rng.random((n, 4)) < 0.5
        upper = kept[:, :2].sum(axis=1)
        lower = kept[:, 2:].sum(axis=1)
        stats = empirical_offspring_stats(0.5, 0, 1, n, np.random.default_rng(11))
        cov_oracle = np.cov(upper, lower)[0, 1]
        mean_prod = sum(p * a * b for (a, b), p in stats.pmf.items())
        cov_stats = mean_prod - stats.mean[0] * stats.mean[1]
        sigma = 3 * 0.5 / math.sqrt(n)  # generous 3-sigma band
        assert abs(cov_oracle) < sigma
        assert abs(cov_stats) < sigma


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: SquareSet(-1, np.zeros((0, 2))), InvariantError, "depth must be non-negative"),
        (lambda: sample_carpet(0.0, 3, np.random.default_rng(0)), ValueError, r"\(0, 1\]"),
        (lambda: sample_carpet(1.5, 3, np.random.default_rng(0)), ValueError, r"\(0, 1\]"),
        (lambda: sample_carpet(math.nan, 3, np.random.default_rng(0)), ValueError, r"\(0, 1\]"),
        (lambda: empirical_offspring_stats(0.5, 3, 0, 10, 0), ValueError, "column must be"),
        (lambda: empirical_offspring_stats(0.5, 0, 2, 10, 0), ValueError, "parent_type must be"),
    ],
    ids=["negative-depth", "p-zero", "p-above-one", "p-nan", "bad-column", "bad-type"],
)
def test_argument_errors(build, error, message):
    with pytest.raises(error, match=message):
        build()


class TestExports:
    def test_square_set_text(self):
        sq = SquareSet(1, np.array([[2, 1], [0, 0]]))
        text = square_set_to_text(sq)
        assert text.splitlines()[0] == "depth 1"
        assert text.splitlines()[1:] == ["1 0 0", "1 2 1"]

    def test_intervals_csv(self):
        sq = SquareSet(2, np.array([[0, 0]]))
        lines = intervals_to_csv(sq).splitlines()
        assert len(lines) == 1
        lo, hi = (float(v) for v in lines[0].split(","))
        assert (lo, hi) == (-1 / 9, 1 / 9)
