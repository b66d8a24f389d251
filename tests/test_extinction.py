import itertools
import math
import tracemalloc

import numpy as np
import pytest

from mbpre import (
    BudgetError,
    EnvironmentLetter,
    IidEnvironment,
    MarkovEnvironment,
    ModelSpec,
    OffspringLaw,
    annealed_extinction,
    build_carpet_model,
    extinction_converged,
    extinction_fixed_env,
    survival_estimate,
)
from mbpre import extinction
from mbpre.extinction import LETTER_BUDGET, _chunk_outcomes, _compose, _converge, _trial_outcomes
from mbpre.model import child_seeds
from conftest import make_point_mass_model
from oracles import (
    compose_prod_clip,
    extinction_by_enumeration,
    pgf_prod_clip,
    point_mass_trajectory,
    random_model,
)


def _with_markov_environment(model, rng):
    """The same letters under a doubly stochastic chain (uniform is stationary)."""
    n = model.n_letters
    weights = rng.random(n) + 0.1
    weights /= weights.sum()
    transition = sum(w * np.roll(np.eye(n), k, axis=1) for k, w in enumerate(weights))
    return ModelSpec(
        model.n_types, model.letters, MarkovEnvironment(np.full(n, 1.0 / n), transition)
    )


def _line_law(parent, p_zero):
    z = [0, 0]
    z[parent] = 2
    return OffspringLaw.from_pairs([((0, 0), p_zero), (tuple(z), 1.0 - p_zero)])


def _mixed_model():
    """Rare total death, a supercritical letter and one subcritical for type 1.

    Environments that meet the dead letter hit the absorbing vector 1 at the
    depth where it first appears; the rest converge at various depths, or
    not at all by a small ``max_depth``.
    """
    dead = OffspringLaw.from_pairs([((0, 0), 1.0)])
    letters = (
        EnvironmentLetter("dead", (dead, dead)),
        EnvironmentLetter("good", (_line_law(0, 0.25), _line_law(1, 0.25))),
        EnvironmentLetter("bad", (_line_law(0, 0.25), _line_law(1, 0.6))),
    )
    return ModelSpec(2, letters, IidEnvironment([0.003, 0.5, 0.497]))


def _three_types_18_atoms(rng):
    """Three letters of 3-type laws; the first law has 18 atoms, the rest 1 to 18."""
    grid = np.stack(np.meshgrid(*[np.arange(3)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)

    def law(k):
        probs = rng.random(k) + 1e-3
        return OffspringLaw(grid[rng.choice(27, size=k, replace=False)], probs / probs.sum())

    sizes = [18, *rng.integers(1, 19, size=8)]
    letters = tuple(
        EnvironmentLetter(f"L{li}", tuple(law(int(k)) for k in sizes[3 * li : 3 * li + 3]))
        for li in range(3)
    )
    return ModelSpec(3, letters, IidEnvironment([0.2, 0.3, 0.5]))


def _wide_padded_model(rng):
    """Six letters of 16-type laws; the first law has 9 atoms, the rest 1 to 9.

    One letter's float exponents take 16 * 9 * 16 * 8 = 18432 bytes a row,
    so from 8 rows on a composition block holds a single letter.
    """

    def law(k):
        counts = rng.integers(0, 3, size=(k, 16))
        counts[:, 0] = np.arange(k)  # distinct atoms
        probs = rng.random(k) + 1e-3
        return OffspringLaw(counts, probs / probs.sum())

    sizes = iter([9, *rng.integers(1, 10, size=6 * 16 - 1)])
    letters = tuple(
        EnvironmentLetter(f"W{li}", tuple(law(int(next(sizes))) for _ in range(16)))
        for li in range(6)
    )
    return ModelSpec(16, letters, IidEnvironment(np.full(6, 1 / 6)))


def _kernel_models():
    """The carpet at p = 0.4 and 1.0, a 3-type 18-atom table, padded random models."""
    rng = np.random.default_rng(32)
    models = [build_carpet_model(0.4), build_carpet_model(1.0)]
    models.append(_three_types_18_atoms(rng))
    models += [random_model(rng, n_types=int(rng.integers(2, 4)), max_letters=4) for _ in range(4)]
    return models


def _block_letters(exps, rows):
    """Letters in one ``_compose`` block of ``rows`` rows over exponent table ``exps``."""
    return max(1, extinction._BLOCK_BYTES // (rows * exps[0].nbytes))


def _converge_rows(*args):
    """The (q, depth, converged) rows of every chunk of ``_converge``, joined."""
    return tuple(np.concatenate(field) for field in zip(*_converge(*args)))


class TestFixedEnvironment:
    def test_depth_one_is_zero_mass(self):
        law0 = OffspringLaw.from_pairs([((0, 0), 0.3), ((1, 1), 0.7)])
        law1 = OffspringLaw.from_pairs([((0, 0), 0.8), ((2, 0), 0.2)])
        model = ModelSpec(
            2, (EnvironmentLetter("a", (law0, law1)),), IidEnvironment([1.0])
        )
        res = extinction_fixed_env(model, [0])
        assert np.allclose(res.q, [0.3, 0.8], atol=1e-15)
        assert res.depth == 1

    def test_decoupled_supercritical_fixed_point(self, decoupled_supercritical):
        res = extinction_fixed_env(decoupled_supercritical, [0] * 200)
        assert np.all(np.abs(res.q - 1 / 3) < 1e-6)

    def test_decoupled_subcritical_goes_to_one(self, decoupled_subcritical):
        res = extinction_fixed_env(decoupled_subcritical, [0] * 200)
        assert np.all(np.abs(res.q - 1.0) < 1e-6)

    def test_monotone_in_depth(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            model = random_model(rng)
            word = rng.integers(0, model.n_letters, size=12)
            prev = np.zeros(2)
            for n in range(1, 13):
                cur = extinction_fixed_env(model, word[:n]).q
                assert np.all(cur >= prev - 1e-12)
                assert np.all((0 <= cur) & (cur <= 1))
                prev = cur

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            model = random_model(rng)
            depth = int(rng.integers(1, 5))
            word = rng.integers(0, model.n_letters, size=depth)
            got = extinction_fixed_env(model, word).q
            for start in range(2):
                want = extinction_by_enumeration(model, word, start)
                assert got[start] == pytest.approx(want, abs=1e-12)


class TestConverged:
    def test_immediate_death_at_first_depth(self, die_out_model):
        res = extinction_converged(die_out_model, seed=0)
        assert np.all(res.q == 1.0)
        assert res.depth == 64
        assert res.converged

    def test_decoupled_analytic_value(self, decoupled_supercritical):
        res = extinction_converged(decoupled_supercritical, seed=1, tol=1e-9)
        assert res.converged
        assert np.all(np.abs(res.q - 1 / 3) < 1e-9)

    def test_carpet_above_critical_survives(self):
        model = build_carpet_model(0.4)
        res = extinction_converged(model, seed=2, tol=1e-6)
        assert res.converged
        assert np.all(res.q < 1.0)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_bad_tol_rejected_before_any_draw(self, tol, monkeypatch):
        model = build_carpet_model(0.4)

        def no_draw(*args, **kwargs):
            raise AssertionError("sampled a word with a bad tol")

        monkeypatch.setattr(IidEnvironment, "sample_word", no_draw)
        with pytest.raises(ValueError, match="tol"):
            extinction_converged(model, seed=0, tol=tol, max_depth=64)
        with pytest.raises(ValueError, match="tol"):
            annealed_extinction(model, 4, tol=tol, max_depth=64, seed=0)

    @pytest.mark.parametrize(
        "seed", [np.random.default_rng(0), np.random.PCG64(0)], ids=["generator", "bit-generator"]
    )
    def test_generator_seed_rejected(self, decoupled_supercritical, seed):
        # default_rng would continue a generator at each depth, not restart it
        with pytest.raises(ValueError, match="generator"):
            extinction_converged(decoupled_supercritical, seed)

    def test_non_convergence_flagged(self):
        # critical line (mean 1): q_n -> 1 only polynomially, so a tight
        # tolerance cannot be met by depth 128
        from conftest import make_decoupled_model

        critical = make_decoupled_model(0.5)
        res = extinction_converged(critical, seed=3, tol=1e-9, max_depth=128)
        assert not res.converged
        assert res.depth == 128


class TestKernel:
    @pytest.mark.parametrize("environment", ["iid", "markov"])
    def test_matches_fold_of_pgf_vector(self, environment):
        # random laws have 1 to 9 support atoms, so the table is padded
        rng = np.random.default_rng(30)
        for _ in range(15):
            model = random_model(rng, n_types=int(rng.integers(2, 4)), max_letters=4)
            if environment == "markov":
                model = _with_markov_environment(model, rng)
            sizes = {law.probs.size for letter in model.letters for law in letter.laws}
            words = np.stack(
                [model.environment.sample_word(20, rng) for _ in range(4)]
            )
            s0 = rng.random((4, model.n_types))
            got = _compose(model.pgf_table, words, s0)
            for row, word in enumerate(words):
                want = s0[row]
                for idx in word[::-1]:
                    want = model.letters[idx].pgf_vector(want)
                assert np.max(np.abs(got[row] - want)) <= 1e-15, sizes

    @pytest.mark.parametrize("rows", [1, 8, 1025])
    def test_bits_equal_prod_and_clip_reference(self, rows):
        rng = np.random.default_rng(rows)
        models = _kernel_models()
        if rows <= 8:
            # at 1025 rows the carpet's blocks hold one letter already
            models.append(_wide_padded_model(rng))
        for model in models:
            shape = (rows, model.n_types)
            block = _block_letters(model.pgf_table[0], rows)
            # 12 letters from each of three points; then, from one random
            # point each, no letter, and two whole blocks and part of a third
            # (long words bring every point to the same values)
            cases = [(12, s0) for s0 in (np.zeros(shape), rng.random(shape), np.ones(shape))]
            cases += [(0, rng.random(shape)), (2 * block + max(1, block // 2), rng.random(shape))]
            for depth, s0 in cases:
                words = rng.integers(0, model.n_letters, size=(rows, depth))
                kept = s0.copy()
                s0.setflags(write=False)
                got = _compose(model.pgf_table, words, s0)
                want = compose_prod_clip(model.pgf_table, words, s0)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
                # the caller's point is neither written nor returned
                assert np.array_equal(s0, kept) and not np.shares_memory(got, s0)

    def test_step_holds_one_exponent_array(self):
        # 256 rows of the wide model: one letter fills a block, and one
        # (E, N, K, N) float array is 4.7 MB
        rng = np.random.default_rng(35)
        model = _wide_padded_model(rng)
        exps = model.pgf_table[0]
        assert _block_letters(exps, 8) == _block_letters(exps, 256) == 1
        words = rng.integers(0, model.n_letters, size=(256, 6))
        s0 = rng.random((256, model.n_types))
        tracemalloc.start()
        try:
            _compose(model.pgf_table, words, s0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 256 * exps[0].nbytes, peak / (256 * exps[0].nbytes)

    @pytest.mark.parametrize("rows", [1, 8, 1025])
    def test_pgf_bits_equal_prod_and_clip_reference(self, rows):
        rng = np.random.default_rng(rows)
        for model in _kernel_models():
            shape = (rows, model.n_types)
            for s0 in (np.zeros(shape), rng.random(shape), np.ones(shape)):
                for letter in model.letters:
                    for law in letter.laws:
                        got, want = law.pgf(s0), pgf_prod_clip(law, s0)
                        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_rows_equal_single_environment_runs(self):
        model = _mixed_model()
        tol, max_depth = 1e-7, 512
        children = np.random.SeedSequence(7).spawn(24)
        singles = [extinction_converged(model, c, tol=tol, max_depth=max_depth) for c in children]
        depths = {r.depth for r in singles}
        hit_one = [r for r in singles if np.all(r.q == 1.0)]
        below_one = [r for r in singles if r.converged and np.any(r.q < 1.0)]
        # the mix this test exists for
        assert len({r.depth for r in hit_one}) >= 3 and len(depths) >= 4
        assert below_one and any(r.depth < max_depth for r in below_one)
        assert any(not r.converged and r.depth == max_depth for r in singles)

        q, depth, converged = _converge_rows(model, len(children), children, tol, max_depth)
        for row, single in enumerate(singles):
            assert np.array_equal(q[row], single.q)
            assert depth[row] == single.depth
            assert converged[row] == single.converged
        mean_q, share = annealed_extinction(model, 24, tol=tol, max_depth=max_depth, seed=7)
        assert np.array_equal(mean_q, np.array([r.q for r in singles]).mean(axis=0))
        assert share == sum(r.converged for r in singles) / 24

    def test_markov_rows_equal_single_environment_runs(self):
        rng = np.random.default_rng(31)
        model = _with_markov_environment(random_model(rng, max_letters=3), rng)
        children = np.random.SeedSequence(8).spawn(6)
        q, depth, converged = _converge_rows(model, len(children), children, 1e-9, 256)
        for row, child in enumerate(children):
            single = extinction_converged(model, child, tol=1e-9, max_depth=256)
            assert np.array_equal(q[row], single.q)
            assert (depth[row], converged[row]) == (single.depth, single.converged)

    def test_letter_budget(self, decoupled_supercritical, monkeypatch):
        def no_seeding(*args, **kwargs):
            raise AssertionError("seeded a generator before the budget check")

        # refused before one generator per environment is built
        monkeypatch.setattr(np.random, "SeedSequence", no_seeding)
        monkeypatch.setattr(np.random, "default_rng", no_seeding)
        # one chunk of environments holds one letter too many
        max_depth = LETTER_BUDGET // extinction._CHUNK + 1
        with pytest.raises(BudgetError):
            annealed_extinction(decoupled_supercritical, 10**6, max_depth=max_depth)
        with pytest.raises(BudgetError):
            extinction_converged(decoupled_supercritical, 0, max_depth=LETTER_BUDGET + 1)

    def test_letter_budget_counts_one_chunk(self, monkeypatch):
        # memory holds one chunk of words, so a budget that one chunk fits
        # lets any number of environments run
        model = build_carpet_model(0.4)
        monkeypatch.setattr(extinction, "_CHUNK", 8)
        want = annealed_extinction(model, 100, max_depth=64, seed=3)
        monkeypatch.setattr(extinction, "LETTER_BUDGET", 8 * 64)
        got = annealed_extinction(model, 100, max_depth=64, seed=3)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]
        annealed_extinction(model, 5, max_depth=65, seed=3)
        with pytest.raises(BudgetError):
            annealed_extinction(model, 100, max_depth=65, seed=3)

    def test_fixed_word_letters_validated(self, decoupled_supercritical):
        for word in ([], [0, 1], [-1], [0.5]):
            with pytest.raises(ValueError):
                extinction_fixed_env(decoupled_supercritical, word)


class TestAnnealed:
    def test_chunks_equal_one_pass_and_single_runs(self, monkeypatch):
        model = _mixed_model()
        tol, max_depth, n_envs = 1e-7, 512, 11
        whole = annealed_extinction(model, n_envs, tol=tol, max_depth=max_depth, seed=9)
        children = np.random.SeedSequence(9).spawn(n_envs)
        singles = [extinction_converged(model, c, tol=tol, max_depth=max_depth) for c in children]
        monkeypatch.setattr(extinction, "_CHUNK", 3)
        chunked = annealed_extinction(model, n_envs, tol=tol, max_depth=max_depth, seed=9)
        assert np.array_equal(chunked[0], whole[0]) and chunked[1] == whole[1]
        assert np.array_equal(chunked[0], np.array([r.q for r in singles]).mean(axis=0))
        q, depth, converged = _converge_rows(model, n_envs, children, tol, max_depth)
        for row, single in enumerate(singles):
            assert np.array_equal(q[row], single.q)
            assert (depth[row], converged[row]) == (single.depth, single.converged)

    def test_mean_keeps_the_bits_of_one_mean_over_every_row(self, monkeypatch):
        # summing each chunk first and then the chunk sums moves the last bits
        monkeypatch.setattr(extinction, "_CHUNK", 64)
        model = build_carpet_model(0.4)
        mean_q, _ = annealed_extinction(model, 3000, max_depth=64, seed=2)
        q = _converge_rows(model, 3000, child_seeds(2, 3000), 1e-9, 64)[0]
        assert np.array_equal(mean_q, q.mean(axis=0))

    def test_memory_does_not_grow_with_the_environments(self, monkeypatch):
        # in chunks of 64 the peak stays near 116 kB at 10^3 and 10^4
        # environments; one result row per environment took it from 137 kB
        # to 360 kB, and one generator per environment to 17.7 MB at 10^4
        monkeypatch.setattr(extinction, "_CHUNK", 64)
        model = build_carpet_model(0.4)
        annealed_extinction(model, 128, max_depth=2, seed=1)
        peaks = []
        for n_envs in (10**3, 10**4):
            tracemalloc.start()
            try:
                annealed_extinction(model, n_envs, max_depth=2, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 20_000, peaks

    def test_single_letter_alphabet_equals_converged(self, decoupled_supercritical):
        mean_q, share = annealed_extinction(decoupled_supercritical, 5, seed=4)
        single = extinction_converged(decoupled_supercritical, seed=0)
        assert share == 1.0
        assert np.allclose(mean_q, single.q, atol=1e-9)

    def test_point_mass_at_zero(self, die_out_model):
        mean_q, share = annealed_extinction(die_out_model, 10, seed=5)
        assert np.all(mean_q == 1.0)
        assert share == 1.0

    def test_carpet_below_critical_dies(self):
        model = build_carpet_model(0.15)
        mean_q, share = annealed_extinction(model, 20, seed=6)
        assert share == 1.0
        assert np.all(np.abs(mean_q - 1.0) < 1e-6)


class TestSimulate:
    def test_point_mass_dies_immediately(self, die_out_model):
        gen, total, half = _trial_outcomes(die_out_model, 0, 8, 10, 10**6, 0)
        assert np.all(gen == 1) and np.all(total == 0) and np.all(half == 1)

    def test_deterministic_line(self, deterministic_line_model):
        gen, total, half = _trial_outcomes(deterministic_line_model, 1, 8, 30, 10**6, 1)
        assert np.all(gen == 30) and np.all(total == 1) and np.all(half == 1)

    def test_point_mass_model_is_linear_recursion(self):
        # z_n = z_{n-1} M: totals 3, 12, 48, ... from one type-0 parent
        model = make_point_mass_model([(2, 1), (0, 3)])
        for horizon in (1, 2, 5, 9):
            gen, total, half = _trial_outcomes(model, 0, 4, horizon, 10**9, 2)
            states = point_mass_trajectory(model, [0] * horizon, [1, 0], 10**9)
            assert len(states) == horizon + 1
            assert np.all(gen == horizon)
            assert np.all(total == states[horizon].sum())
            assert np.all(half == states[horizon // 2].sum())

    def test_cap_exceeded_records_generation(self, decoupled_supercritical):
        gen, total, half = _trial_outcomes(decoupled_supercritical, 0, 200, 100, 1000, 3)
        capped = total > 1000
        # by generation 100 a surviving line has crossed the cap; the
        # crossing generation is the last one, and half of it is below it
        assert capped.any() and np.all(capped | (total == 0))
        assert np.all(gen[capped] < 100) and np.all(half[capped] <= 1000)
        # each generation at most doubles the population
        assert np.all(total[capped] <= 2000)

    def test_agreement_with_pgf_extinction(self, decoupled_supercritical):
        # two independent estimators of q^(0) at depth 60; the one-letter
        # model's every word is [0] * 60
        trials = 4000
        total = _trial_outcomes(decoupled_supercritical, 0, trials, 60, 10**6, 4)[1]
        q = extinction_fixed_env(decoupled_supercritical, [0] * 60).q[0]
        assert abs(np.count_nonzero(total == 0) / trials - q) < 0.02


def _grow_kill_stay_model(environment):
    """Point masses: letter 0 doubles the population, 1 kills it, 2 keeps it."""
    def letter(name, vectors):
        return EnvironmentLetter(
            name, tuple(OffspringLaw.from_pairs([(v, 1.0)]) for v in vectors)
        )

    letters = (
        letter("grow", [(1, 1), (1, 1)]),
        letter("kill", [(0, 0), (0, 0)]),
        letter("stay", [(1, 0), (0, 1)]),
    )
    return ModelSpec(2, letters, environment)


def _stationary(transition):
    vals, vecs = np.linalg.eig(transition.T)
    v = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
    return v / v.sum()


def _full_history_outcomes(model, start_type, rows, horizon, cap, rng):
    """:func:`_chunk_outcomes` with every generation's total kept, as a reference."""
    exps, masses = model.pgf_table
    n_letters, n_types, k_max, _ = exps.shape
    exps = exps.reshape(n_letters, n_types * k_max, n_types)
    words = model.environment.sample_word(horizon, rng, rows=rows)
    totals = np.zeros((rows, horizon + 1), dtype=np.int64)
    totals[:, 0] = 1
    gen = np.full(rows, horizon)
    live = np.arange(rows)
    z = np.zeros((rows, n_types), dtype=np.int64)
    z[:, start_type] = 1
    for g in range(1, horizon + 1):
        letters = words[live, g - 1]
        hits = rng.multinomial(z, masses.take(letters, axis=0))
        z = np.matmul(hits.reshape(-1, 1, n_types * k_max), exps.take(letters, axis=0))[:, 0]
        total = z.sum(axis=1)
        totals[live, g] = total
        stop = (total == 0) | (total > cap)
        gen[live[stop]] = g
        live, z = live[~stop], z.compress(~stop, axis=0)
        if not live.size:
            break
    r = np.arange(rows)
    return gen, totals[r, gen], totals[r, gen // 2]


def _wide_law_model(atoms):
    """One letter whose type-0 law has ``atoms`` atoms, almost all mass on (1, 0).

    Type 1 bears one type-1 child, so every trial lives; the rare atoms
    (a, b) with a + b > 0 only grow it.
    """
    grid = [(a, b) for a in range(1, 100) for b in range(100)][:atoms]
    rare = 1e-6
    wide = OffspringLaw.from_pairs(
        [(grid[0], 1.0 - rare * (atoms - 1))] + [(z, rare) for z in grid[1:]]
    )
    letter = EnvironmentLetter("wide", (wide, OffspringLaw.from_pairs([((0, 1), 1.0)])))
    return ModelSpec(2, (letter,), IidEnvironment([1.0]))


_KILL_RARELY = np.array([[0.5, 0.02, 0.48], [0.5, 0.0, 0.5], [0.4, 0.02, 0.58]])


class TestTrialKernel:
    @pytest.mark.parametrize(
        "environment",
        [
            IidEnvironment([0.45, 0.02, 0.53]),
            MarkovEnvironment(_stationary(_KILL_RARELY), _KILL_RARELY),
        ],
        ids=["iid", "markov"],
    )
    def test_rows_equal_per_trajectory_reference(self, environment):
        # on point masses a trial is fixed by its word, so every row must
        # equal the recursion z_n = z_{n-1} M_{w_n} along the word the chunk
        # drew first
        model = _grow_kill_stay_model(environment)
        rows, horizon, cap = 400, 30, 1 << 10
        words = environment.sample_word(horizon, np.random.default_rng(7), rows=rows)
        gen, total, half = _chunk_outcomes(
            model, 1, rows, horizon, cap, np.random.default_rng(7)
        )
        outcomes = set()
        for r in range(rows):
            states = point_mass_trajectory(model, words[r], [0, 1], cap)
            n = len(states) - 1
            want = (n, states[n].sum(), states[n // 2].sum())
            assert (gen[r], total[r], half[r]) == want
            z = states[n].sum()
            outcomes.add("extinct" if z == 0 else "cap_exceeded" if z > cap else "alive")
        # dead at the first "kill"; capped at the 11th "grow"; else alive
        assert outcomes == {"extinct", "alive", "cap_exceeded"}
        capped = total > cap
        assert np.all(total[capped] == 2048)
        assert np.all(gen[(total > 0) & ~capped] == horizon)
        assert len(set(gen[capped].tolist())) > 1

    def test_every_trial_stops_in_generation_one(self):
        # each trial grows past the cap or dies at its first letter, so the
        # chunk's first generation leaves no live row
        model = _grow_kill_stay_model(IidEnvironment([0.5, 0.5, 0.0]))
        rows = 300
        first = model.environment.sample_word(10, np.random.default_rng(8), rows=rows)[:, 0]
        gen, total, half = _chunk_outcomes(model, 0, rows, 10, 1, np.random.default_rng(8))
        assert np.all(gen == 1) and np.all(half == 1)
        assert np.array_equal(total, np.where(first == 0, 2, 0))
        assert 0 < np.count_nonzero(total) < rows

    @pytest.mark.parametrize("horizon", [1, 2, 7, 30, 31])
    @pytest.mark.parametrize("kind", ["carpet", "grow-kill-stay"])
    def test_half_history_equals_full_history(self, kind, horizon):
        # a chunk keeps generations 0 to horizon // 2 and the last total;
        # the whole (rows, horizon + 1) history gives the same bits. On the
        # point masses some trials die, some cross the cap and some live
        # to the horizon, at every horizon.
        if kind == "carpet":
            model = build_carpet_model(0.4)
        else:
            model = _grow_kill_stay_model(IidEnvironment([0.1, 0.02, 0.88]))
        cap = max(1, horizon // 4)
        got = _chunk_outcomes(model, 0, 300, horizon, cap, np.random.default_rng(9))
        want = _full_history_outcomes(model, 0, 300, horizon, cap, np.random.default_rng(9))
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        gen, total = want[:2]
        alive = (total > 0) & (total <= cap)
        assert np.all(gen[alive] == horizon)
        if kind == "grow-kill-stay":
            assert np.any(total == 0) and np.any(total > cap) and np.any(alive)

    def test_chunk_memory_is_its_word_and_half_its_history(self, deterministic_line_model):
        # every trial lives to the horizon; the one-byte word (1 MB) and
        # the totals of generations 0 to 500 and the last (4.1 MB) are
        # held, the other 500 generations' totals (4.1 MB) are not
        rows, horizon = 1024, 1000
        _chunk_outcomes(deterministic_line_model, 0, rows, 4, 10, np.random.default_rng(0))
        tracemalloc.start()
        try:
            _chunk_outcomes(deterministic_line_model, 0, rows, horizon, 10, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = rows * horizon + rows * (horizon // 2 + 2) * 8
        assert peak < held + (1 << 18), peak - held

    @pytest.mark.parametrize("kind", ["carpet", "padded-markov", "wide-law"])
    def test_row_slices_keep_the_outcomes(self, kind, monkeypatch):
        # consecutive multinomial calls over row slices draw what one call
        # over every row draws: one-row slices, the default slices and the
        # unsliced reference agree bit for bit
        if kind == "carpet":
            model = build_carpet_model(0.4)
        elif kind == "padded-markov":
            model = _with_markov_environment(
                random_model(np.random.default_rng(5), max_count=3), np.random.default_rng(6)
            )
        else:
            model = _wide_law_model(200)
        args = (model, 0, 300, 12, 1000)
        want = _full_history_outcomes(*args, np.random.default_rng(4))
        got = _chunk_outcomes(*args, np.random.default_rng(4))
        monkeypatch.setattr(extinction, "_BLOCK_BYTES", 1)
        one_row = _chunk_outcomes(*args, np.random.default_rng(4))
        for a, b, c in zip(want, got, one_row):
            assert np.array_equal(a, b) and np.array_equal(a, c)

    def test_gathers_stay_bounded_with_a_wide_law(self):
        # 1024 trials of a 2000-atom law: one unsliced generation gathers
        # 1024 x 4000 hits, masses and (4000, 2) exponent rows, 131 MB; in
        # 128 kB slices a chunk holds its word, history and table
        model = _wide_law_model(2000)
        _trial_outcomes(model, 0, 8, 2, 10**6, 0)
        tracemalloc.start()
        try:
            gen = _trial_outcomes(model, 0, 1024, 6, 10**6, 0)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(gen == 6)
        assert peak < 1 << 21, peak

    def test_chunk_boundary(self):
        model = build_carpet_model(0.5)
        chunk = extinction._CHUNK
        more = _trial_outcomes(model, 0, chunk + 1, 20, 10**6, 3)
        exact = _trial_outcomes(model, 0, chunk, 20, 10**6, 3)
        for field_more, field_exact in zip(more, exact):
            assert field_more.shape == (chunk + 1,)
            assert np.array_equal(field_more[:chunk], field_exact)
        # the lone trial of the second chunk comes from the second child
        child = np.random.SeedSequence(3).spawn(2)[1]
        last = _chunk_outcomes(model, 0, 1, 20, 10**6, np.random.default_rng(child))
        assert [field[-1] for field in more] == [field[0] for field in last]

    def test_budget_raises_before_any_draw(self, monkeypatch):
        model = build_carpet_model(0.5)
        monkeypatch.setattr(extinction, "LETTER_BUDGET", 2048)
        # 10 trials x (203 + 1) entries fit; one more generation does not.
        # The chunk size bounds the rows, however many trials follow.
        assert _trial_outcomes(model, 0, 10, 203, 10**6, 0)[0].shape == (10,)
        assert _trial_outcomes(model, 0, 3000, 1, 10**6, 0)[0].shape == (3000,)

        def no_draw(*args, **kwargs):
            raise AssertionError("sampled a word over the budget")

        monkeypatch.setattr(IidEnvironment, "sample_word", no_draw)
        with pytest.raises(BudgetError):
            _trial_outcomes(model, 0, 10, 204, 10**6, 0)
        with pytest.raises(BudgetError):
            survival_estimate(model, 0, 10**6, 2, seed=0)
        # the trial count has its own ceiling, checked before the first chunk
        monkeypatch.setattr(extinction, "MAX_TRIALS", 2999)
        with pytest.raises(BudgetError, match="3000 trials"):
            _trial_outcomes(model, 0, 3000, 1, 10**6, 0)

    def test_cap_overflow_raises_before_any_draw(self, monkeypatch):
        # at p = 1 the largest atom total is 4: cap x 4 must fit in int64
        model = build_carpet_model(1.0)

        def no_draw(*args, **kwargs):
            raise AssertionError("sampled a word with an overflowing cap")

        monkeypatch.setattr(IidEnvironment, "sample_word", no_draw)
        for cap in (2**62, (2**63 - 1) // 4 + 1):
            with pytest.raises(ValueError, match="overflows"):
                _trial_outcomes(model, 0, 200, 80, cap, 0)
        monkeypatch.undo()
        assert _trial_outcomes(model, 0, 2, 5, (2**63 - 1) // 4, 0)[0].shape == (2,)

    @pytest.mark.parametrize(
        "args",
        [(0, 0, 20, 10), (2, 5, 20, 10), (-1, 5, 20, 10), (0, 5, 0, 10), (0, 5, 20, 0)],
        ids=["no-trials", "type-too-big", "type-negative", "no-horizon", "no-cap"],
    )
    def test_rejects_bad_arguments(self, args):
        start_type, trials, horizon, cap = args
        with pytest.raises(ValueError):
            _trial_outcomes(build_carpet_model(0.5), start_type, trials, horizon, cap, 0)


class TestSurvival:
    def test_point_mass_at_zero(self, die_out_model):
        assert survival_estimate(die_out_model, 0, 200, 10, seed=0).survival == 0.0

    def test_deterministic_line(self, deterministic_line_model):
        assert survival_estimate(deterministic_line_model, 0, 200, 10, seed=1).survival == 1.0

    def test_decoupled_analytic(self, decoupled_supercritical):
        res = survival_estimate(decoupled_supercritical, 0, 10_000, 200, seed=2)
        assert abs(res.survival - 2 / 3) < 0.02
        assert res.half_width < 0.02

    def test_matches_one_minus_q(self, decoupled_supercritical):
        res = survival_estimate(decoupled_supercritical, 1, 5000, 200, seed=3)
        q = extinction_converged(decoupled_supercritical, seed=0).q[1]
        assert abs(res.survival - (1 - q)) < res.half_width + 0.02

    def test_wilson_intervals_cover_exact_survival(self):
        # P(Z_8 > 0 | type 0) on the carpet at p = 0.6, summed exactly over
        # all 3^8 words; no population reaches the cap by generation 8
        model = build_carpet_model(0.6)
        words = np.array(list(itertools.product(range(model.n_letters), repeat=8)))
        q = compose_prod_clip(model.pgf_table, words, np.zeros((len(words), 2)))[:, 0]
        exact = 1.0 - float(q @ np.prod(model.environment.probs[words], axis=1))
        assert exact == pytest.approx(0.71446631373619, abs=1e-13)
        covered = 0
        for seed in range(400):
            res = survival_estimate(model, 0, 2000, 8, cap=10**9, seed=seed)
            covered += abs(res.survival - exact) <= res.half_width
        # at 95% coverage, fewer than 371 of 400 has binomial probability
        # under 2.5%; a 90% interval (z = 1.64) covers about 355
        assert covered >= 371


class TestGrowthRate:
    def test_deterministic_line_zero(self, deterministic_line_model):
        res = survival_estimate(deterministic_line_model, 0, 50, 30, seed=0)
        assert res.growth_rate == 0.0
        assert res.surviving_trials == 50

    def test_one_survivor_gives_no_interval(self, deterministic_line_model):
        # one rate has no spread to estimate, so no half-width, not 0.0
        res = survival_estimate(deterministic_line_model, 0, 1, 30, seed=0)
        assert (res.growth_rate, res.growth_half_width, res.surviving_trials) == (0.0, None, 1)

    def test_two_children_each_log2(self):
        model = make_point_mass_model([(2, 0), (0, 2)])
        res = survival_estimate(model, 0, 50, 30, cap=10**12, seed=1)
        assert res.growth_rate == pytest.approx(math.log(2), abs=1e-12)

    @pytest.mark.parametrize("cap, last_gen", [(10**12, 30), (10**6, 19)])
    def test_rate_from_second_half_drops_start_factor(self, cap, last_gen):
        # Z_n = 5 * 2^(n-1): the factor 5 must not enter the rate, both when
        # alive at the horizon and when stopped at the cap crossing
        model = make_point_mass_model([(0, 5), (0, 2)])
        assert len(point_mass_trajectory(model, [0] * 30, [1, 0], cap)) - 1 == last_gen
        res = survival_estimate(model, 0, 20, 30, cap=cap, seed=5)
        assert res.growth_rate == pytest.approx(math.log(2), abs=1e-12)
        assert res.surviving_trials == 20

    def test_strongly_supercritical_carpet_cross_module(self):
        # growth of the simulated population against log p + lambda_B
        from mbpre import lambda_b

        model = build_carpet_model(0.6)
        lam = math.log(0.6) + lambda_b(20_000, 8, seed=2).point
        res = survival_estimate(model, 0, 1500, 40, cap=10**7, seed=3)
        assert res.surviving_trials >= 500
        assert abs(res.growth_rate - lam) / abs(lam) < 0.15

    def test_no_survivors_error(self, die_out_model):
        # the library reports no survivor as a zero share and no growth rate;
        # simulate --growth turns that into NoSurvivorsError (tests/test_cli.py)
        res = survival_estimate(die_out_model, 0, 100, 30, seed=4)
        assert res.survival == 0.0
        assert (res.growth_rate, res.growth_half_width, res.surviving_trials) == (None, None, 0)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_long_horizon_meets_exponent(self, seed):
        # lambda_B = 0.973205225 +- 1e-9 is the p = 1 carpet exponent by
        # Ulam's transfer operator on 64000 cells (Furstenberg's formula); at
        # horizon 320 the second-half rate's bias is within its half-width
        model = build_carpet_model(0.4)
        res = survival_estimate(model, 0, 4000, 320, cap=10**12, seed=seed)
        assert abs(res.growth_rate - (math.log(0.4) + 0.973205225)) <= 2 * res.growth_half_width


@pytest.mark.parametrize(
    "run, message",
    [
        (lambda m: extinction_converged(m, 0, max_depth=1), "max_depth must be >= 2"),
        (lambda m: annealed_extinction(m, 4, max_depth=1), "max_depth must be >= 2"),
        (lambda m: annealed_extinction(m, 0), "n_envs must be >= 1"),
    ],
    ids=["converged-depth", "annealed-depth", "no-envs"],
)
def test_argument_errors(run, message, decoupled_supercritical):
    with pytest.raises(ValueError, match=message):
        run(decoupled_supercritical)


@pytest.mark.parametrize("q", [[np.nan, 0.5], [0.5, 1.5], [-0.1, 0.5]])
def test_extinction_vector_rejects_values_outside_unit_interval(q):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        extinction.ExtinctionVector(np.array(q), 1)
