"""The benchmark's workloads: generated inputs, CLI command lines and checks.

``WORKLOADS[name](seed, workdir)`` writes the workload's model files into
``workdir``, computes the independent reference values with
:mod:`oracles`, and returns a :class:`Plan`: the command lines (without
``--threads`` and ``--json``) and the checks that every round applies to
their results.
Every input comes from the workload seed, except the two command lines
that carry a counted failure, which are fixed so that they fail the same
way for every seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import oracles as orc
from oracles import Z_CHECK

# Command sizes. The full sizes the library's own acceptance criteria use are
# noted beside each; they are scaled down so that each command takes about a
# second or less and a run holds many rounds.
CARPET_STEPS, CARPET_BATCHES = 100_000, 8  # 100_000 x 32
PROJECT_P, PROJECT_DEPTH, PROJECT_SAMPLES = 0.6, 6, 40  # depth 8, 100 samples
MARKOV_STEPS, MARKOV_BATCHES = 10_000, 8  # 100_000 x 32
ANNEALED_ENVS = 8  # 100
SIM_TRIALS, SIM_HORIZON, SIM_CAP, SIM_SEED = 2_000, 40, 10**7, 29  # 20_000 trials

CARPET_P = 0.4
# Word length of the exact lower bound of the exponent bracket.
BRACKET_K_CARPET = 13
BRACKET_K_MARKOV = 10
# Markov model: the exponent bracket's lower end is placed at this value,
# so the model is supercritical with a margin the verdict can resolve.
MARKOV_MARGIN = 0.1
# Oracle Monte Carlo sizes.
SURVIVAL_WORDS = 20_000
ANNEALED_WORDS, ANNEALED_DEPTH = 600, 2048
EXTINCTION_LB_LEN = 6


@dataclass
class Check:
    name: str
    needs: tuple
    fn: object  # results -> (ok, detail)


@dataclass
class Plan:
    commands: list  # (name, argv)
    checks: list
    # check name -> the program fault that makes it fail today
    known_faults: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)  # reference values, for the report


def _seeds(seed, index, n):
    rng = np.random.default_rng([seed, index])
    return rng, [int(x) for x in rng.integers(0, 2**31, size=n)]


def _meet(lo, hi, ref_lo, ref_hi):
    detail = f"[{lo:.6g}, {hi:.6g}] vs [{ref_lo:.6g}, {ref_hi:.6g}]"
    return orc.intervals_meet(lo, hi, ref_lo, ref_hi), detail


def _wide(point, half_width):
    """A reported 95% interval widened to Z_CHECK standard errors."""
    k = Z_CHECK / 1.96
    return point - k * half_width, point + k * half_width


def _carpet_model(workdir):
    path = workdir / "carpet_p040.json"
    orc.dump_model(orc.carpet_doc(CARPET_P), path)
    model = orc.Model.load(path)
    lo, hi = orc.exponent_bracket(
        model.expectations(), model.initial, model.transition, BRACKET_K_CARPET
    )
    return path, model, (lo, hi)


# ---------------------------------------------------------------------------
# carpet-session


def plan_carpet_session(seed, workdir):
    _, (s_crit, s_proj, s_kit) = _seeds(seed, 1, 3)
    path, _, (lam_lo, lam_hi) = _carpet_model(workdir)
    # lambda(p) = log p + lambda_B, and p_c = exp(-lambda_B)
    lb_lo, lb_hi = lam_lo - math.log(CARPET_P), lam_hi - math.log(CARPET_P)
    pc_lo, pc_hi = math.exp(-lb_hi), math.exp(-lb_lo)
    empty_p = orc.gw_extinction_by(PROJECT_DEPTH, PROJECT_P)
    min_measure = 2.0 * 3.0**-PROJECT_DEPTH

    def critical_lambda(r):
        est = r["critical"]["lambda_b"]
        return _meet(*_wide(est["point"], est["half_width"]), lb_lo, lb_hi)

    def critical_p(r):
        res = r["critical"]
        est = res["lambda_b"]
        lo, hi = _wide(est["point"], est["half_width"])
        ok, detail = _meet(math.exp(-hi), math.exp(-lo), pc_lo, pc_hi)
        point, hw = est["point"], est["half_width"]
        mapped = math.isclose(res["p_low"], math.exp(-(point + hw)), rel_tol=1e-12) and (
            math.isclose(res["p_high"], math.exp(-(point - hw)), rel_tol=1e-12)
        )
        return ok and mapped, detail + f", exp(-lambda) mapping {'holds' if mapped else 'broken'}"

    def bisect(r):
        res = r["bisect"]
        return _meet(res["p_low"], res["p_high"], pc_lo, pc_hi)

    def share_empty(r):
        res = r["project"]
        n_empty = sum(1 for m in res["measures"] if m == 0)
        ok = len(res["measures"]) == PROJECT_SAMPLES and orc.binomial_consistent(
            n_empty, PROJECT_SAMPLES, empty_p
        )
        ok = ok and math.isclose(res["share_empty"], n_empty / PROJECT_SAMPLES)
        return ok, f"{n_empty}/{PROJECT_SAMPLES} empty, P(empty) = {empty_p:.6g}"

    def measures(r):
        res = r["project"]
        vals = res["measures"]
        live = [m for m in vals if m > 0]
        ok = all(min_measure * (1 - 1e-12) <= m <= 2.0 for m in live)
        ok = ok and math.isclose(res["mean_measure"], sum(vals) / len(vals), rel_tol=1e-9)
        span = f"[{min(live, default=0):.6g}, {max(live, default=0):.6g}]"
        return ok, f"{len(live)} nonempty measures in {span}"

    def proofkit(r):
        res = r["proofkit"]
        ok = res["all_passed"] and res["checks"] and all(c["passed"] for c in res["checks"])
        passed = sum(c["passed"] for c in res["checks"])
        return bool(ok), f"{passed}/{len(res['checks'])} oracle checks passed"

    return Plan(
        commands=[
            ("critical", ["carpet", "critical", "--steps", str(CARPET_STEPS),
                          "--batches", str(CARPET_BATCHES), "--seed", str(s_crit)]),
            ("bisect", ["carpet", "critical", "--bisect"]),
            ("project", ["carpet", "project", "--p", str(PROJECT_P), "--depth", str(PROJECT_DEPTH),
                         "--samples", str(PROJECT_SAMPLES), "--seed", str(s_proj)]),
            ("proofkit", ["proofkit", "--model", str(path), "--lambda", repr(lam_lo),
                          "--seed", str(s_kit)]),
        ],
        checks=[
            Check("critical_lambda_meets_bracket", ("critical",), critical_lambda),
            Check("critical_p_meets_bracket", ("critical",), critical_p),
            Check("bisect_meets_bracket", ("bisect",), bisect),
            Check("project_share_empty", ("project",), share_empty),
            Check("project_measure_range", ("project",), measures),
            Check("proofkit_all_passed", ("proofkit",), proofkit),
        ],
        known_faults={
            "bisect_meets_bracket": "carpet critical --bisect moves its bracket on a bare "
            "survival > 0 at horizon 200, so slowly dying subcritical lines count as survivors",
        },
        facts={"lambda_b_bracket": [lb_lo, lb_hi], "p_c_bracket": [pc_lo, pc_hi],
               "p_empty": empty_p},
    )


# ---------------------------------------------------------------------------
# exponent-markov3


def markov3_doc(rng):
    """A 3-type, 3-letter model with a Markov environment, drawn from ``rng``.

    Letter a gives a type-i parent independent Binomial(K_a[i, j], r) type-j
    children. Every K_a is allowable but has a zero, the transition matrix
    has one forbidden step, and the shortest word with an all-positive
    product has 3 to 6 letters. r puts the lower end of the exponent
    bracket at ``MARKOV_MARGIN``.
    """
    n = 3
    while True:
        bases = rng.integers(0, 3, size=(n, n, n)) * (rng.random((n, n, n)) < 0.7)
        if not all(
            (b.sum(axis=0) > 0).all() and (b.sum(axis=1) > 0).all() and (b == 0).any()
            for b in bases
        ):
            continue
        trans = rng.dirichlet(np.ones(n), size=n)
        i, j = rng.choice([(i, j) for i in range(n) for j in range(n) if i != j])
        trans[i, j] = 0.0
        trans /= trans.sum(axis=1, keepdims=True)
        if not orc.irreducible(trans):
            continue
        pi = orc.stationary(trans)
        env = {"kind": "markov", "initial": pi.tolist(), "transition": trans.tolist()}
        base_model = orc.Model(orc.binomial_model_doc(bases, 1.0, env))
        length = orc.shortest_positive_word(base_model, max_len=6)
        if length is None or length < 3:
            continue
        lo, _ = orc.exponent_bracket(bases.astype(float), pi, trans, BRACKET_K_MARKOV)
        r = math.exp(MARKOV_MARGIN - lo)
        if r < 1.0:
            return orc.binomial_model_doc(bases, r, env)


def plan_exponent_markov3(seed, workdir):
    rng, (s_cls, s_ext) = _seeds(seed, 2, 2)
    path = workdir / "markov3.json"
    orc.dump_model(markov3_doc(rng), path)
    model = orc.Model.load(path)
    lam_lo, lam_hi = orc.exponent_bracket(
        model.expectations(), model.initial, model.transition, BRACKET_K_MARKOV
    )
    shortest = orc.shortest_positive_word(model)
    words = np.array(
        [w for w in np.ndindex(*(model.n_letters,) * EXTINCTION_LB_LEN)
         if orc.cylinder_probability(model, w) > 0]
    )
    q_floor = orc.compose_at_zero(model, words).min(axis=0)

    def estimate(r):
        est = r["classify"]["verdict"]["lambda_estimate"]
        return _meet(*_wide(est["point"], est["half_width"]), lam_lo, lam_hi)

    def verdict(r):
        kind = r["classify"]["verdict"]["kind"]
        if lam_lo > 0:
            want = {"survives_positively"}
        elif lam_hi < 0:
            want = {"almost_sure_extinction"}
        else:
            want = {"survives_positively", "almost_sure_extinction", "critical_extinction",
                    "inconclusive"}
        return kind in want, f"{kind}, bracket [{lam_lo:.6g}, {lam_hi:.6g}]"

    def hypotheses(r):
        rep = r["classify"]["report"]
        want = {
            "allowable_ok": orc.allowable(model),
            "ergodic_env_ok": orc.irreducible(model.transition),
            "strongly_regular": orc.strongly_regular(model),
        }
        got = {k: rep[k] for k in want}
        return got == want, f"{got} vs {want}"

    def positive_word(r):
        rep = r["classify"]["report"]
        word = rep["positive_word"]
        if word is None:
            return False, f"no word reported, shortest has {shortest} letters"
        prob = orc.cylinder_probability(model, word)
        ok = (
            len(word) == shortest
            and prob > 0
            and math.isclose(rep["positive_word_probability"], prob, rel_tol=1e-9)
            and (orc.word_product(model, word) > 0).all()
        )
        return ok, f"word {word}, shortest length {shortest}, P = {prob:.6g}"

    def moments(r):
        rep = r["classify"]["report"]
        m2, alpha = orc.second_moment_bound(model), orc.uniform_alpha(model)
        ok = math.isclose(rep["second_moment_bound"], m2, rel_tol=1e-9) and math.isclose(
            rep["uniform_alpha"], alpha, rel_tol=1e-9
        )
        return ok, (
            f"second moment {rep['second_moment_bound']} vs {m2}, "
            f"alpha {rep['uniform_alpha']} vs {alpha}"
        )

    def extinction(r):
        res = r["extinction"]
        q = np.array(res["q"])
        # supercritical: q < 1; q dominates every finite composition at 0
        ok = res["converged"] and bool((q < 1).all() and (q >= q_floor - 1e-12).all())
        return ok, f"q {q.tolist()}, floor {q_floor.tolist()}"

    return Plan(
        commands=[
            ("classify", ["classify", "--model", str(path), "--steps", str(MARKOV_STEPS),
                          "--batches", str(MARKOV_BATCHES), "--seed", str(s_cls)]),
            ("extinction", ["extinction", "--model", str(path), "--mode", "converged",
                            "--seed", str(s_ext)]),
        ],
        checks=[
            Check("classify_estimate_meets_bracket", ("classify",), estimate),
            Check("classify_verdict", ("classify",), verdict),
            Check("classify_hypotheses", ("classify",), hypotheses),
            Check("classify_positive_word", ("classify",), positive_word),
            Check("classify_moments", ("classify",), moments),
            Check("extinction_converged_bounds", ("extinction",), extinction),
        ],
        facts={"lambda_bracket": [lam_lo, lam_hi], "shortest_positive_word": shortest,
               "q_floor": q_floor.tolist()},
    )


# ---------------------------------------------------------------------------
# extinction-annealed


def plan_extinction_annealed(seed, workdir):
    rng, (s_ext,) = _seeds(seed, 3, 1)
    path, model, _ = _carpet_model(workdir)
    words = orc.sample_words(model, ANNEALED_WORDS, ANNEALED_DEPTH, rng)
    q_full = orc.compose_at_zero(model, words)
    q_half = orc.compose_at_zero(model, words[:, : ANNEALED_DEPTH // 2])
    # compositions at 0 increase with depth; the last doubling estimates what
    # remains of the truncation
    trunc = float(np.max(q_full - q_half))
    mean = q_full.mean(axis=0)
    var = q_full.var(axis=0, ddof=1)

    def below_one(r):
        q = np.array(r["annealed"]["mean_q"])
        return bool((q > 0).all() and (q < 1).all()), f"mean_q {q.tolist()}"

    def matches(r):
        q = np.array(r["annealed"]["mean_q"])
        tol = Z_CHECK * np.sqrt(var / ANNEALED_ENVS + var / ANNEALED_WORDS) + trunc
        ok = bool((np.abs(q - mean) <= tol).all())
        return ok, f"mean_q {q.tolist()} vs {mean.tolist()} +- {tol.tolist()}"

    def share(r):
        s = r["annealed"]["share_converged"]
        return s == 1.0, f"share_converged {s}"

    return Plan(
        commands=[
            ("annealed", ["extinction", "--model", str(path), "--mode", "annealed",
                          "--envs", str(ANNEALED_ENVS), "--seed", str(s_ext)]),
        ],
        checks=[
            Check("annealed_mean_below_one", ("annealed",), below_one),
            Check("annealed_mean_matches_oracle", ("annealed",), matches),
            Check("annealed_all_converged", ("annealed",), share),
        ],
        facts={"mean_q": mean.tolist(), "truncation": trunc},
    )


# ---------------------------------------------------------------------------
# simulate-growth


def plan_simulate_growth(seed, workdir):
    rng, _ = _seeds(seed, 4, 0)
    path, model, (lam_lo, lam_hi) = _carpet_model(workdir)
    words = orc.sample_words(model, SURVIVAL_WORDS, SIM_HORIZON, rng)
    q = orc.compose_at_zero(model, words)[:, 0]
    surv = 1.0 - q.mean()
    surv_se = q.std(ddof=1) / math.sqrt(SURVIVAL_WORDS)

    def survival(r):
        res = r["simulate"]
        tol = Z_CHECK * math.sqrt(surv * (1 - surv) / SIM_TRIALS + surv_se**2)
        ok = abs(res["survival"] - surv) <= tol
        ref = f"1 - E q_{SIM_HORIZON} = {surv:.6g} +- {tol:.3g}"
        return ok, f"survival {res['survival']} vs {ref}"

    def survivors(r):
        res = r["simulate"]
        want = round(res["survival"] * SIM_TRIALS)
        return res["surviving_trials"] == want, f"{res['surviving_trials']} vs {want}"

    def growth(r):
        res = r["simulate"]
        return _meet(*_wide(res["growth_rate"], res["growth_half_width"]), lam_lo, lam_hi)

    return Plan(
        commands=[
            ("simulate", ["simulate", "--model", str(path), "--start-type", "0",
                          "--trials", str(SIM_TRIALS), "--horizon", str(SIM_HORIZON),
                          "--cap", str(SIM_CAP), "--growth", "--seed", str(SIM_SEED)]),
        ],
        checks=[
            Check("survival_matches_oracle", ("simulate",), survival),
            Check("surviving_trials_count", ("simulate",), survivors),
            Check("growth_rate_meets_bracket", ("simulate",), growth),
        ],
        known_faults={
            "growth_rate_meets_bracket": "growth_rate_conditioned averages log Z_n / n, "
            "which carries a +E[log W | survival] / n bias",
        },
        facts={"survival": surv, "lambda_bracket": [lam_lo, lam_hi]},
    )


WORKLOADS = {
    "carpet-session": plan_carpet_session,
    "exponent-markov3": plan_exponent_markov3,
    "extinction-annealed": plan_extinction_annealed,
    "simulate-growth": plan_simulate_growth,
}
