"""The oracle suite past one chunk: same verdicts, summed counts, flat memory."""

import dataclasses
import tracemalloc

import pytest

from mbpre import build_carpet_model, build_proof_params, oracle_suite
from mbpre.proofkit import _CHUNK

LAMBDA_04 = 0.057  # log(0.4) + lambda_B for the carpet family
SAMPLES = 3 * _CHUNK + 5  # four chunks, the last a short one

UNMASKED = (
    "clamp_monotone",
    "h_equals_g_near_one",
    "h_monotone",
    "h_nonnegative",
    "majorant_dominates_pgf_near_one",
)


def carpet_04():
    return build_carpet_model(0.4)


def test_multi_chunk_run_passes_and_reproduces():
    model = carpet_04()
    params = build_proof_params(model, LAMBDA_04)
    report = oracle_suite(model, params, samples=SAMPLES, seed=4)
    assert [c.check for c in report.checks if not c.passed] == []
    again = oracle_suite(model, params, samples=SAMPLES, seed=4)
    assert dataclasses.asdict(again) == dataclasses.asdict(report)


def test_multi_chunk_counts_sum_over_chunks():
    model = carpet_04()
    params = build_proof_params(model, LAMBDA_04)
    by_name = oracle_suite(model, params, samples=SAMPLES, seed=5).by_name
    for name in UNMASKED:
        assert by_name[name].samples == SAMPLES, name
    assert by_name["h_dominates_pgf_on_words"].samples == 32 * (SAMPLES // 32)
    assert by_name["h_fixes_one"].samples == len(model.letters)
    one_chunk = oracle_suite(model, params, samples=_CHUNK, seed=5).by_name
    assert by_name["zero_column_zero_mass"].samples == one_chunk["zero_column_zero_mass"].samples


def test_multi_chunk_run_keeps_the_first_counterexample():
    # the negative control of the one-chunk tests: delta x 200 and mu = 1.
    # Both runs draw the same first chunk of s, t and the box points, so a
    # check on those points reports the same first counterexample.
    model = carpet_04()
    good = build_proof_params(model, LAMBDA_04)
    bad = dataclasses.replace(
        good, moment_bound=good.moment_bound / 200.0, delta=good.delta * 200.0, mu=1.0
    )
    one = oracle_suite(model, bad, samples=_CHUNK, seed=1).by_name
    many = oracle_suite(model, bad, samples=SAMPLES, seed=1).by_name
    failed = {name for name, c in one.items() if not c.passed}
    assert {name for name, c in many.items() if not c.passed} == failed
    shared = failed & {*UNMASKED, "affine_norm_contraction"}
    assert len(shared) >= 3
    for name in shared:
        assert many[name].counterexample == one[name].counterexample, name


@pytest.mark.parametrize("seed", [1, 2])
def test_strict_drop_counterexample_same_at_any_sample_count(seed):
    # alpha x 5, delta by its formula, trips only pgf_strict_drop. Its
    # points are the last a chunk draws, and a full chunk draws the same
    # points whatever the sample count, so the first counterexample holds.
    model = carpet_04()
    good = build_proof_params(model, LAMBDA_04)
    alpha = 5.0 * good.alpha
    delta = (1.0 - good.rho) * alpha / (2.0 * good.n_types * good.moment_bound)
    bad = dataclasses.replace(good, alpha=alpha, delta=delta)
    one = oracle_suite(model, bad, samples=_CHUNK, seed=seed).by_name
    many = oracle_suite(model, bad, samples=SAMPLES, seed=seed).by_name
    assert not one["pgf_strict_drop"].passed
    assert many["pgf_strict_drop"].counterexample == one["pgf_strict_drop"].counterexample


def traced_peak(model, params, samples):
    tracemalloc.start()
    try:
        oracle_suite(model, params, samples=samples, seed=6)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_traced_peak_flat_in_samples():
    # unchunked, the peak grew about 35 kB per 100 samples: 3.6 MB at 10^4
    # samples and 35 MB at 10^5; chunked, both stay near 0.8 MB
    model = carpet_04()
    params = build_proof_params(model, LAMBDA_04)
    oracle_suite(model, params, samples=10, seed=6)  # fill cached properties first
    small = traced_peak(model, params, 10_000)
    large = traced_peak(model, params, 100_000)
    assert large <= small + 256 * 1024, (small, large)


def test_empty_selections_pass_with_zero_counts():
    # a chunk whose outside, hit or mask selection is empty checks no point
    # there: the check passes with a count of 0. At seed 0 one sample puts
    # no strict-drop coordinate below 1 - dtilde, and with delta = 0.99 no
    # sample lies outside the box (at seed 3 no g(s) is non-negative either)
    model = carpet_04()
    good = build_proof_params(model, LAMBDA_04)
    by_name = oracle_suite(model, good, samples=1, seed=0).by_name
    assert all(c.passed for c in by_name.values())
    assert by_name["pgf_strict_drop"].samples == 0
    moment = (1.0 - good.rho) * good.alpha / (2.0 * good.n_types * 0.99)
    delta = (1.0 - good.rho) * good.alpha / (2.0 * good.n_types * moment)
    wide = dataclasses.replace(good, moment_bound=moment, delta=delta)
    for seed, empty in ((0, ["high_norm_forces_near_one"]),
                        (3, ["high_norm_forces_near_one", "affine_norm_contraction"])):
        by_name = oracle_suite(model, wide, samples=1, seed=seed).by_name
        for name in empty:
            assert (by_name[name].samples, by_name[name].passed) == (0, True), (seed, name)
    # no rows at all: every point check still runs, on empty chunks
    by_name = oracle_suite(model, good, samples=0, seed=0).by_name
    for name in (*UNMASKED, "high_norm_forces_near_one", "affine_norm_contraction",
                 "pgf_strict_drop"):
        assert (by_name[name].samples, by_name[name].passed) == (0, True), name
