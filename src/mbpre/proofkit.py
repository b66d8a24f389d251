"""Linearized majorants of pgf systems and a property-check suite.

For a supercritical model (exponent lam > 0) one can shrink every
expectation matrix by a factor rho with rho * e^lam > 1 and still dominate
the pgf vector near the fixed point 1 by the affine map
g(s) = 1 - A(1 - s), A = rho * M. Clamping arguments into the box
B_delta = {s : 1 - s <= delta componentwise} via psi makes the domination
global (h = g o psi). The suite below turns each inequality this
construction relies on into a randomized, seeded check, so a model (or a
corrupted parameter set) can be audited mechanically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .model import second_moment_bound, uniform_allowability_alpha

# Margins keeping the strict inequalities of the construction strict after
# rounding: alpha is shrunk, the second-moment bound inflated.
_ALPHA_MARGIN = 0.999
_MOMENT_MARGIN = 1.001
# The clamp box must satisfy delta < 1; the moment bound is raised when the
# nominal formula would push delta above this.
_DELTA_CAP = 0.9

_TOL = 1e-12

# The sampled checks draw and check their points in chunks of at most this
# many rows, so the suite's memory does not grow with its sample count.
_CHUNK = 2048

# Longest word of the word-contraction check; its gamma^length, gamma =
# e^(exponent / 4), overflows a float for exponents past _MAX_EXPONENT.
_MAX_WORD = 8
_MAX_EXPONENT = 4 * math.log(np.finfo(float).max) / _MAX_WORD


@dataclass(frozen=True)
class ProofParams:
    """Parameters of the affine-majorant construction.

    ``delta`` must equal (1 - rho) * alpha / (2 * n_types * moment_bound);
    ``exponent`` is the growth exponent the parameters were built for and
    must satisfy rho * e^exponent > 1.
    """

    rho: float
    alpha: float
    n_types: int
    moment_bound: float
    delta: float
    mu: float
    u: float
    exponent: float

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")
        if self.rho * math.exp(self.exponent) <= 1.0:
            raise ValueError("rho * e^exponent must exceed 1")
        if not (self.alpha > 0 and self.moment_bound > 0):
            raise ValueError("alpha and moment_bound must be positive")
        want = (1.0 - self.rho) * self.alpha / (2.0 * self.n_types * self.moment_bound)
        if abs(self.delta - want) > _TOL * max(1.0, abs(want)):
            raise ValueError("delta does not match its defining formula")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        if not (0.0 < self.mu <= 1.0 and 0.0 < self.u <= 1.0):
            raise ValueError("mu and u must lie in (0, 1]")


def shrunk_matrices(model, rho):
    """The family rho * M_theta of shrunk expectation matrices."""
    return [rho * m for m in model.expectation_matrices()]


def build_proof_params(model, exponent):
    """Derive valid majorant parameters for a model with positive exponent.

    rho is e^(-exponent/2); alpha and the second-moment bound come from the
    model with strictness margins; delta follows from its formula; mu and u
    are the least column sum and least positive entry of the shrunk family,
    both capped at 1. A zero (or too small) second moment is replaced by a
    larger valid bound so that delta stays below 1. An exponent past
    ``_MAX_EXPONENT``, or so small that rho rounds to 1, is a ValueError.
    """
    if not 0.0 < exponent <= _MAX_EXPONENT:
        raise ValueError(f"the exponent must be positive and finite, at most {_MAX_EXPONENT!r}")
    rho = math.exp(-exponent / 2.0)
    alpha = _ALPHA_MARGIN * uniform_allowability_alpha(model)
    floor = (1.0 - rho) * alpha / (2.0 * model.n_types * _DELTA_CAP)
    moment = max(_MOMENT_MARGIN * second_moment_bound(model), floor)
    delta = (1.0 - rho) * alpha / (2.0 * model.n_types * moment)
    mats = shrunk_matrices(model, rho)
    mu = min(1.0, min(float(a.sum(axis=0).min()) for a in mats))
    u = min(1.0, min(float(a[a > 0].min()) for a in mats))
    return ProofParams(rho, alpha, model.n_types, moment, delta, mu, u, exponent)


def psi(s, delta):
    """Componentwise clamp up to 1 - delta; fixes anything already above."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return np.maximum(np.asarray(s, dtype=float), 1.0 - delta)


def g_eval(a, s):
    """Affine majorant 1 - A(1 - s); may leave [0, 1]^N, returned unclamped."""
    a = np.asarray(a, dtype=float)
    s = np.asarray(s, dtype=float)
    return 1.0 - (1.0 - s) @ a.T


def h_eval(a, s, delta):
    """Clamped majorant g(psi(s))."""
    return g_eval(a, psi(s, delta))


def phi(v, t, n_types):
    """The scalar affine map N - N v + v t; fixes t = N for every v."""
    return n_types - n_types * v + v * t


# ---------------------------------------------------------------------------
# Oracle suite


@dataclass(frozen=True)
class OracleCheck:
    check: str
    passed: bool
    samples: int
    counterexample: dict | None


@dataclass(frozen=True)
class OracleReport:
    checks: tuple

    @cached_property
    def by_name(self):
        return {c.check: c for c in self.checks}

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)


def _point(x):
    """A row as a list of floats, a scalar as a float."""
    return [float(v) for v in x] if np.ndim(x) else float(x)


def _compose_letters(fns, word, s):
    out = s
    for idx in word[::-1]:
        out = fns[idx](out)
    return out


def _case(ok, head, **points):
    """The counterexample of one check case, or None if ``ok`` holds everywhere.

    At the first False entry i of ``ok`` it is ``head`` followed by entry i
    of each array in ``points``.
    """
    bad = np.flatnonzero(~np.asarray(ok, dtype=bool))
    if not bad.size:
        return None
    return {**head, **{k: _point(v[bad[0]]) for k, v in points.items()}}


def _contraction(a, s, v, head):
    """Count of points of ``s`` with g(s) >= 0, and the case of ||g(s)|| <= phi_v(||s||) on them."""
    gv = g_eval(a, s)
    mask = np.all(gv >= 0.0, axis=1)
    inside = s.compress(mask, axis=0)
    good = gv.compress(mask, axis=0).sum(axis=1) <= phi(v, inside.sum(axis=1), s.shape[1]) + _TOL
    return int(mask.sum()), _case(good, head, s=inside)


def _pieces(total):
    """Consecutive row counts of at most ``_CHUNK`` summing to ``total``.

    Zero rows still make one empty piece, so every check runs.
    """
    for start in range(0, max(total, 1), _CHUNK):
        yield min(_CHUNK, total - start)


def oracle_suite(model, params, samples, seed):
    """Run every majorant inequality on seeded random points.

    ``params`` are the majorant parameters under test, usually
    ``build_proof_params(model, exponent)``; deliberately corrupted values
    demonstrate detection. Checks named below must hold pointwise for valid
    parameters; the first violating point in draw order (if any) is
    attached as the counterexample, so failures reproduce from the seed.

    The checks run in three stages, listed in the report in that order:
    the two that draw nothing, the point checks on chunks of at most
    ``_CHUNK`` rows, then the two word checks on pieces of at most
    ``_CHUNK`` rows. Each chunk draws s, t, the box points, v, dtilde and
    the strict-drop points, in that order, so a full chunk draws the same
    points at any ``samples``. Memory does not grow with ``samples``, and
    each check's count sums over the chunks or pieces.
    """
    n = model.n_types
    delta, mu, u = params.delta, params.mu, params.u
    mats = shrunk_matrices(model, params.rho)
    pairs = list(zip(mats, model.letters))
    rng = np.random.default_rng(seed)
    counts = {}
    found = {}

    def record(name, count, cases):
        # counts add up over chunks; the first counterexample in draw order,
        # cases holding the _case results in that order, fails the check
        counts[name] = counts.get(name, 0) + count
        ce = next((c for c in cases if c is not None), None)
        if ce is not None:
            found.setdefault(name, ce)

    def each_letter(name, count, ok, **points):
        # one case per letter; a point fails where ok(a, letter) is False
        # in any of its components
        cases = [
            _case(np.all(ok(a, letter), axis=-1), {"letter": letter.name}, **points)
            for a, letter in pairs
        ]
        record(name, count, cases)

    # h fixes the all-ones vector
    ones = np.ones(n)
    each_letter("h_fixes_one", len(mats), lambda a, _: h_eval(a, ones, delta) == 1.0)

    # a zero expectation entry forces zero mass on every atom bearing that type
    checked = 0
    cases = []
    for letter in model.letters:
        m = letter.expectation
        for k, law in enumerate(letter.laws):
            for i in range(n):
                if m[k, i] > 0:
                    continue
                checked += 1
                mass = law.probs[law.counts[:, i] > 0]
                head = {"letter": letter.name, "parent_type": k, "child_type": i}
                cases.append(_case(mass <= 0, head))
    record("zero_column_zero_mass", checked, cases)

    p_star = params.alpha / 2.0
    for rows in _pieces(samples):
        s = rng.random((rows, n))
        t = s + (1.0 - s) * rng.random((rows, n))
        sb = 1.0 - delta * rng.random((rows, n))
        outside = s.compress(np.max(1.0 - s, axis=1) > delta, axis=0)
        vs = (n - u * delta) + u * delta * rng.random(len(outside))
        dtildes = rng.random(rows)
        sx = rng.random((rows, n))

        # clamp dominates its argument and preserves the componentwise order
        ok = np.all(psi(s, delta) >= s, axis=1) & np.all(psi(s, delta) <= psi(t, delta), axis=1)
        record("clamp_monotone", rows, [_case(ok, {}, s=s, t=t)])

        # inside the clamp box the clamp is the identity, so h and g agree exactly
        each_letter(
            "h_equals_g_near_one", rows, lambda a, _: h_eval(a, sb, delta) == g_eval(a, sb), s=sb
        )

        # h is componentwise monotone
        each_letter(
            "h_monotone", rows, lambda a, _: h_eval(a, s, delta) <= h_eval(a, t, delta) + _TOL,
            s=s, t=t,
        )

        # h never goes negative
        each_letter("h_nonnegative", rows, lambda a, _: h_eval(a, s, delta) >= -_TOL, s=s)

        # a large h norm is only possible for arguments already near one:
        # outside the box, ||h(s)|| stays below every v > N - u * delta
        cases = []
        for a, letter in pairs:
            norms = h_eval(a, outside, delta).sum(axis=1)
            cases.append(_case(norms < vs, {"letter": letter.name}, s=outside, v=vs, h_norm=norms))
        record("high_norm_forces_near_one", len(outside), cases)

        # inside the box the affine map dominates the pgf itself
        each_letter(
            "majorant_dominates_pgf_near_one", rows,
            lambda a, letter: g_eval(a, sb) >= letter.pgf_vector(sb) - _TOL, s=sb,
        )

        # wherever g is componentwise non-negative its norm contracts under phi_mu
        checked, cases = zip(
            *(_contraction(a, s, mu, {"letter": letter.name}) for a, letter in pairs)
        )
        record("affine_norm_contraction", sum(checked), cases)

        # a pgf drops strictly below 1 - (alpha/2) * dtilde whenever some child
        # type with positive mean count has its coordinate below 1 - dtilde
        checked = 0
        cases = []
        for letter in model.letters:
            m = letter.expectation
            for k, law in enumerate(letter.laws):
                support = m[k] > 0
                if not support.any():
                    continue
                hit = np.any(sx[:, support] < (1.0 - dtildes)[:, None], axis=1)
                checked += int(hit.sum())
                points, dt = sx.compress(hit, axis=0), dtildes[hit]
                good = law.pgf(points) < 1.0 - p_star * dt
                head = {"letter": letter.name, "parent_type": k}
                cases.append(_case(good, head, s=points, dtilde=dt))
        record("pgf_strict_drop", checked, cases)

    n_words = 32
    per_word = max(1, samples // n_words)

    # compositions of h dominate the matching pgf compositions
    h_fns = [
        (lambda a: (lambda x: np.clip(h_eval(a, x, delta), 0.0, 1.0)))(a) for a in mats
    ]
    f_fns = [letter.pgf_vector for letter in model.letters]
    for _ in range(n_words):
        length = int(rng.integers(1, 6))
        word = rng.integers(0, model.n_letters, size=length)
        for rows in _pieces(per_word):
            sw = rng.random((rows, n))
            hv = _compose_letters(h_fns, word, sw)
            fv = _compose_letters(f_fns, word, sw)
            case = _case(np.all(hv >= fv - _TOL, axis=1), {"word": word.tolist()}, s=sw)
            record("h_dominates_pgf_on_words", rows, [case])

    # along words whose product keeps a column-sum margin gamma^n, the norm
    # contracts under phi_gamma; only qualifying words are checked, and the
    # check is reported even when no word qualifies
    gamma = math.sqrt(params.rho * math.exp(params.exponent))
    record("word_norm_contraction", 0, [])
    for _ in range(n_words):
        length = int(rng.integers(2, _MAX_WORD + 1))
        word = rng.integers(0, model.n_letters, size=length)
        aw = reduce(np.matmul, (mats[i] for i in word))
        if float(aw.sum(axis=0).min()) < gamma**length:
            continue
        for rows in _pieces(per_word):
            checked, case = _contraction(aw, rng.random((rows, n)), gamma, {"word": word.tolist()})
            record("word_norm_contraction", checked, [case])

    return OracleReport(
        tuple(
            OracleCheck(name, name not in found, count, found.get(name))
            for name, count in counts.items()
        )
    )
