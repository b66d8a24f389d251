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

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matcore import col_min, product_along_word
from .model import ModelSpec, second_moment_bound, uniform_allowability_alpha

# Margins keeping the strict inequalities of the construction strict after
# rounding: alpha is shrunk, the second-moment bound inflated.
_ALPHA_MARGIN = 0.999
_MOMENT_MARGIN = 1.001
# The clamp box must satisfy delta < 1; the moment bound is raised when the
# nominal formula would push delta above this.
_DELTA_CAP = 0.9

_TOL = 1e-12


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
    larger valid bound so that delta stays below 1.
    """
    if not 0.0 < exponent < math.inf:
        raise ValueError("the exponent must be positive and finite")
    rho = math.exp(-exponent / 2.0)
    if not 0.0 < rho < 1.0:
        rho = (math.exp(-exponent) + 1.0) / 2.0
    alpha = _ALPHA_MARGIN * uniform_allowability_alpha(model)
    floor = (1.0 - rho) * alpha / (2.0 * model.n_types * _DELTA_CAP)
    moment = max(_MOMENT_MARGIN * second_moment_bound(model), floor)
    delta = (1.0 - rho) * alpha / (2.0 * model.n_types * moment)
    mats = shrunk_matrices(model, rho)
    mu = min(1.0, min(col_min(a) for a in mats))
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

    def to_dict(self):
        return {
            "check": self.check,
            "passed": self.passed,
            "samples": self.samples,
            "counterexample": self.counterexample,
        }


@dataclass(frozen=True)
class OracleReport:
    checks: tuple

    def to_dicts(self):
        return [c.to_dict() for c in self.checks]

    def to_json(self):
        return json.dumps(self.to_dicts(), indent=2)

    @cached_property
    def by_name(self):
        return {c.check: c for c in self.checks}

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)


def _first_bad(mask):
    return int(np.argmax(mask))


def _as_list(a):
    return [float(x) for x in np.atleast_1d(a)]


def _compose_letters(fns, word, s):
    out = s
    for idx in word[::-1]:
        out = fns[idx](out)
    return out


def oracle_suite(model, exponent, samples, seed, params=None):
    """Run every majorant inequality on seeded random points.

    Checks named below must hold pointwise for valid parameters; the first
    violating point (if any) is attached as the counterexample, so failures
    reproduce from the seed. ``params`` overrides the built parameters,
    letting deliberately corrupted values demonstrate detection.
    """
    if params is None:
        params = build_proof_params(model, exponent)
    n = model.n_types
    delta, mu, u = params.delta, params.mu, params.u
    mats = shrunk_matrices(model, params.rho)
    rng = np.random.default_rng(seed)
    checks = []

    def record(name, ok_mask, count, ce):
        bad = not np.all(ok_mask)
        checks.append(OracleCheck(name, not bad, count, ce() if bad else None))

    # clamp dominates its argument and preserves the componentwise order
    s = rng.random((samples, n))
    t = s + (1.0 - s) * rng.random((samples, n))
    ok = np.all(psi(s, delta) >= s, axis=1) & np.all(
        psi(s, delta) <= psi(t, delta), axis=1
    )
    record(
        "clamp_monotone",
        ok,
        samples,
        lambda: {"s": _as_list(s[_first_bad(~ok)]), "t": _as_list(t[_first_bad(~ok)])},
    )

    # inside the clamp box the clamp is the identity, so h and g agree exactly
    sb = 1.0 - delta * rng.random((samples, n))
    ok = np.ones(samples, dtype=bool)
    ce_letter = {}
    for li, a in enumerate(mats):
        same = np.all(h_eval(a, sb, delta) == g_eval(a, sb), axis=1)
        if not same.all() and not ce_letter:
            ce_letter = {"letter": model.letters[li].name, "s": _as_list(sb[_first_bad(~same)])}
        ok &= same
    record("h_equals_g_near_one", ok, samples, lambda: ce_letter)

    # h fixes the all-ones vector
    ones = np.ones(n)
    ok = np.array([np.all(h_eval(a, ones, delta) == 1.0) for a in mats])
    record(
        "h_fixes_one",
        ok,
        len(mats),
        lambda: {"letter": model.letters[_first_bad(~ok)].name},
    )

    # h is componentwise monotone
    ok = np.ones(samples, dtype=bool)
    ce_letter = {}
    for li, a in enumerate(mats):
        mono = np.all(h_eval(a, s, delta) <= h_eval(a, t, delta) + _TOL, axis=1)
        if not mono.all() and not ce_letter:
            bad = _first_bad(~mono)
            ce_letter = {
                "letter": model.letters[li].name,
                "s": _as_list(s[bad]),
                "t": _as_list(t[bad]),
            }
        ok &= mono
    record("h_monotone", ok, samples, lambda: ce_letter)

    # compositions of h dominate the matching pgf compositions
    h_fns = [
        (lambda a: (lambda x: np.clip(h_eval(a, x, delta), 0.0, 1.0)))(a) for a in mats
    ]
    f_fns = [letter.pgf_vector for letter in model.letters]
    ok_all = True
    ce = {}
    done = 0
    n_words = 32
    per_word = max(1, samples // n_words)
    for _ in range(n_words):
        length = int(rng.integers(1, 6))
        word = rng.integers(0, model.n_letters, size=length)
        sw = rng.random((per_word, n))
        hv = _compose_letters(h_fns, word, sw)
        fv = _compose_letters(f_fns, word, sw)
        good = np.all(hv >= fv - _TOL, axis=1)
        done += per_word
        if not good.all() and not ce:
            bad = _first_bad(~good)
            ce = {"word": [int(w) for w in word], "s": _as_list(sw[bad])}
            ok_all = False
    record("h_dominates_pgf_on_words", np.array([ok_all]), done, lambda: ce)

    # h never goes negative
    ok = np.ones(samples, dtype=bool)
    ce_letter = {}
    for li, a in enumerate(mats):
        nonneg = np.all(h_eval(a, s, delta) >= -_TOL, axis=1)
        if not nonneg.all() and not ce_letter:
            ce_letter = {"letter": model.letters[li].name, "s": _as_list(s[_first_bad(~nonneg)])}
        ok &= nonneg
    record("h_nonnegative", ok, samples, lambda: ce_letter)

    # a large h norm is only possible for arguments already near one:
    # outside the box, ||h(s)|| stays below every v > N - u * delta
    outside = s[np.max(1.0 - s, axis=1) > delta]
    vs = (n - u * delta) + u * delta * rng.random(len(outside))
    ok_all = True
    ce = {}
    for li, a in enumerate(mats):
        norms = h_eval(a, outside, delta).sum(axis=1)
        good = norms < vs
        if not good.all() and not ce:
            bad = _first_bad(~good)
            ce = {
                "letter": model.letters[li].name,
                "s": _as_list(outside[bad]),
                "v": float(vs[bad]),
                "h_norm": float(norms[bad]),
            }
            ok_all = False
    record("high_norm_forces_near_one", np.array([ok_all]), len(outside), lambda: ce)

    # inside the box the affine map dominates the pgf itself
    ok = np.ones(samples, dtype=bool)
    ce_letter = {}
    for li, (a, letter) in enumerate(zip(mats, model.letters)):
        dom = np.all(g_eval(a, sb) >= letter.pgf_vector(sb) - _TOL, axis=1)
        if not dom.all() and not ce_letter:
            ce_letter = {"letter": letter.name, "s": _as_list(sb[_first_bad(~dom)])}
        ok &= dom
    record("majorant_dominates_pgf_near_one", ok, samples, lambda: ce_letter)

    # wherever g is componentwise non-negative its norm contracts under phi_mu
    checked = 0
    ok_all = True
    ce = {}
    for li, a in enumerate(mats):
        gv = g_eval(a, s)
        mask = np.all(gv >= 0.0, axis=1)
        checked += int(mask.sum())
        bound = phi(mu, s[mask].sum(axis=1), n)
        good = gv[mask].sum(axis=1) <= bound + _TOL
        if not good.all() and not ce:
            bad = _first_bad(~good)
            ce = {"letter": model.letters[li].name, "s": _as_list(s[mask][bad])}
            ok_all = False
    record("affine_norm_contraction", np.array([ok_all]), checked, lambda: ce)

    # along words whose product keeps a column-sum margin gamma^n, the norm
    # contracts under phi_gamma; only qualifying words are checked
    gamma = math.sqrt(params.rho * math.exp(params.exponent))
    checked = 0
    ok_all = True
    ce = {}
    for _ in range(n_words):
        length = int(rng.integers(2, 9))
        word = rng.integers(0, model.n_letters, size=length)
        aw = product_along_word(mats, word)
        if col_min(aw) < gamma**length:
            continue
        sw = rng.random((per_word, n))
        gv = 1.0 - (1.0 - sw) @ aw.T
        mask = np.all(gv >= 0.0, axis=1)
        checked += int(mask.sum())
        good = gv[mask].sum(axis=1) <= phi(gamma, sw[mask].sum(axis=1), n) + _TOL
        if not good.all() and not ce:
            bad = _first_bad(~good)
            ce = {"word": [int(w) for w in word], "s": _as_list(sw[mask][bad])}
            ok_all = False
    record("word_norm_contraction", np.array([ok_all]), checked, lambda: ce)

    # a pgf drops strictly below 1 - (alpha/2) * dtilde whenever some child
    # type with positive mean count has its coordinate below 1 - dtilde
    p_star = params.alpha / 2.0
    dtildes = rng.random(samples)
    sx = rng.random((samples, n))
    checked = 0
    ok_all = True
    ce = {}
    for letter in model.letters:
        m = letter.expectation
        for k, law in enumerate(letter.laws):
            support = m[k] > 0
            if not support.any():
                continue
            hit = np.any(sx[:, support] < (1.0 - dtildes)[:, None], axis=1)
            checked += int(hit.sum())
            vals = law.pgf(sx[hit])
            good = vals < 1.0 - p_star * dtildes[hit]
            if not good.all() and not ce:
                bad = _first_bad(~good)
                ce = {
                    "letter": letter.name,
                    "parent_type": k,
                    "s": _as_list(sx[hit][bad]),
                    "dtilde": float(dtildes[hit][bad]),
                }
                ok_all = False
    record("pgf_strict_drop", np.array([ok_all]), checked, lambda: ce)

    # a zero expectation entry forces zero mass on every atom bearing that type
    checked = 0
    ok_all = True
    ce = {}
    for letter in model.letters:
        m = letter.expectation
        for k, law in enumerate(letter.laws):
            for i in range(n):
                if m[k, i] > 0:
                    continue
                checked += 1
                mass = law.probs[law.counts[:, i] > 0]
                if mass.size and mass.max() > 0 and not ce:
                    ce = {"letter": letter.name, "parent_type": k, "child_type": i}
                    ok_all = False
    record("zero_column_zero_mass", np.array([ok_all]), checked, lambda: ce)

    return OracleReport(tuple(checks))
