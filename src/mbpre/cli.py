"""Command-line interface.

Every subcommand echoes its seed and, in ``params``, every other option
its parser holds (defaults included, in parser order, ``--json`` left
out), writes results to stdout (JSON with --json, flat key = value lines
otherwise; a result dataclass by its own fields) and diagnostics to
stderr. Identical command lines produce byte-identical JSON. Exit codes:
0 success, 2 usage error (any other ``ValueError``, a count option below 1
included), 3 model or invariant error, 4 resource-budget error (an
exponent word over ``LETTER_BUDGET`` letters included), 1 any other failure.

Each handler imports the modules it runs, and numpy only where it uses it,
so a launch loads only what its subcommand needs and ``--version`` loads
no numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .errors import KINDS, BudgetError, InvariantError, ModelFormatError

# Exit code of the first entry an error is an instance of; any other error
# (a degenerate product, no survivors) exits 1.
_EXIT_CODES = (((ModelFormatError, InvariantError), 3), (ValueError, 2), (BudgetError, 4))


def _parse_seed(text):
    if text == "random":
        import secrets

        return secrets.randbits(63)
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("seed must be an integer or 'random'")
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return value


def _parse_positive(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_finite(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _load_model(path):
    from .model import parse_model

    try:
        with open(path, "rb") as fh:
            return parse_model(fh.read())
    except OSError as exc:
        raise ValueError(f"cannot read model file {path}: {exc}")


def _add_steps(p):
    p.add_argument("--steps", type=int, default=100_000)
    p.add_argument("--batches", type=int, default=32)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mbpre",
        description="Multitype branching processes in random environments",
    )
    parser.add_argument("--version", action="version", version=f"mbpre {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # every subcommand ends with --json, and all but check with --seed and
    # --threads before it; they are added once the other options are in place
    parsers = []  # (subparser, whether it takes --seed and --threads)

    def command(group, name, handler, help, seeded=True):
        p = group.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        parsers.append((p, seeded))
        return p

    p = command(
        sub, "check", _cmd_check, "verify classification hypotheses on a model", seeded=False
    )
    p.add_argument("--model", required=True)
    p.add_argument("--max-word-len", type=_parse_positive, default=None)

    p = command(sub, "lyapunov", _estimate, "estimate a growth exponent")
    p.add_argument("--model", required=True)
    p.add_argument("--kind", choices=KINDS, default="sum")
    _add_steps(p)

    p = command(sub, "extinction", _cmd_extinction, "extinction vectors by pgf composition")
    p.add_argument("--model", required=True)
    p.add_argument("--mode", choices=("fixed", "converged", "annealed"), default="converged")
    p.add_argument("--word", default=None, help="comma-separated letter indices (fixed mode)")
    p.add_argument("--tol", type=_parse_finite, default=1e-9)
    p.add_argument("--max-depth", type=int, default=1 << 16)
    p.add_argument("--envs", type=int, default=100)

    p = command(sub, "simulate", _cmd_simulate, "population simulation and survival estimate")
    p.add_argument("--model", required=True)
    p.add_argument("--start-type", type=int, default=0)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--horizon", type=int, default=100)
    p.add_argument("--cap", type=int, default=10**6)
    p.add_argument(
        "--growth", action="store_true", help="also estimate the conditioned growth rate"
    )

    p = command(sub, "classify", _cmd_classify, "survival/extinction verdict for a model")
    p.add_argument("--model", required=True)
    p.add_argument("--kind", choices=KINDS, default="sum")
    _add_steps(p)
    p.add_argument("--max-word-len", type=_parse_positive, default=None)

    pc = sub.add_parser("carpet", help="random Sierpinski carpet application")
    csub = pc.add_subparsers(dest="carpet_command", required=True)

    p = command(
        csub, "lambda-b", _cmd_carpet_lambda_b, "growth exponent of the p=1 column matrices"
    )
    _add_steps(p)

    p = command(csub, "critical", _cmd_carpet_critical, "critical retention probability interval")
    _add_steps(p)
    p.add_argument("--bisect", action="store_true", help="cross-check by survival bisection")
    p.add_argument("--trials", type=int, default=400, help="trials per bisection step")
    p.add_argument("--horizon", type=int, default=200)
    p.add_argument("--cap", type=int, default=10**6)
    p.add_argument("--iterations", type=_parse_positive, default=12)

    p = command(
        csub, "project", _cmd_carpet_project, "sample carpets and measure their projections"
    )
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--samples", type=_parse_positive, default=100)

    p = command(
        csub, "offspring", _cmd_carpet_offspring, "validate a column law against the geometry"
    )
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--column", type=int, required=True, choices=(0, 1, 2))
    p.add_argument("--type", type=int, required=True, choices=(0, 1))
    p.add_argument("--samples", type=_parse_positive, default=100_000)

    p = command(sub, "proofkit", _cmd_proofkit, "run the majorant inequality oracle suite")
    p.add_argument("--model", required=True)
    p.add_argument("--lambda", type=_parse_finite, required=True)
    p.add_argument("--samples", type=_parse_positive, default=10_000)

    for p, seeded in parsers:
        if seeded:
            p.add_argument("--seed", type=_parse_seed, default=0, help="RNG seed (or 'random')")
            p.add_argument(
                "--threads",
                type=_parse_positive,
                default=1,
                help="no effect: runs in one process",
            )
        p.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


def _cmd_check(args, model):
    from .classify import check_conditions

    return check_conditions(model, max_word_len=args.max_word_len)


def _estimate(args, model):
    from . import lyapunov

    return lyapunov.estimate_exponent(
        model,
        kind=args.kind,
        steps_per_batch=args.steps,
        batches=args.batches,
        seed=args.seed,
    )


def _cmd_extinction(args, model):
    from . import extinction

    if args.mode == "fixed":
        if not args.word:
            raise ValueError("--word is required in fixed mode")
        try:
            word = [int(x) for x in args.word.split(",")]
        except ValueError:
            raise ValueError("--word must be comma-separated integers")
        res = extinction.extinction_fixed_env(model, word)
        return {"q": [float(v) for v in res.q], "depth": res.depth}
    if args.mode == "converged":
        res = extinction.extinction_converged(
            model, args.seed, tol=args.tol, max_depth=args.max_depth
        )
        return {"q": [float(v) for v in res.q], "depth": res.depth, "converged": res.converged}
    mean_q, share = extinction.annealed_extinction(
        model,
        args.envs,
        tol=args.tol,
        max_depth=args.max_depth,
        seed=args.seed,
    )
    return {"mean_q": [float(v) for v in mean_q], "share_converged": share}


def _cmd_simulate(args, model):
    from . import extinction

    trial_args = (model, args.start_type, args.trials, args.horizon, args.cap, args.seed)
    if not args.growth:
        est, hw = extinction.survival_probability_mc(*trial_args)
        return {"survival": est, "half_width": hw}
    est, hw, rate, rate_hw, nsurv = extinction.survival_and_growth(*trial_args)
    return {
        "survival": est,
        "half_width": hw,
        "growth_rate": rate,
        "growth_half_width": rate_hw,
        "surviving_trials": nsurv,
    }


def _cmd_classify(args, model):
    from .classify import check_conditions, classify

    report = check_conditions(model, max_word_len=args.max_word_len)
    verdict = classify(model, report, _estimate(args, model))
    return {"report": report, "verdict": verdict}


def _cmd_carpet_lambda_b(args):
    from . import carpet

    return carpet.lambda_b(args.steps, args.batches, args.seed)


def _cmd_carpet_critical(args):
    from . import carpet

    if args.bisect:
        lo, hi = carpet.bisect_critical(
            iterations=args.iterations,
            trials=args.trials,
            horizon=args.horizon,
            cap=args.cap,
            seed=args.seed,
        )
        return {"p_low": lo, "p_high": hi, "method": "bisect"}
    est = carpet.lambda_b(args.steps, args.batches, args.seed)
    lo, hi = carpet.critical_p(est)
    return {"p_low": lo, "p_high": hi, "method": "ci", "lambda_b": est}


def _cmd_carpet_project(args):
    from . import carpet

    measures = carpet.sample_projection_measures(args.p, args.depth, args.samples, args.seed)
    nonempty = measures[measures > 0]
    return {
        "measures": [float(m) for m in measures],
        "mean_measure": float(measures.mean()),
        "mean_nonempty_measure": float(nonempty.mean()) if nonempty.size else 0.0,
        "share_empty": float((measures == 0).mean()),
    }


def _cmd_carpet_offspring(args):
    import numpy as np

    from . import carpet

    rng = np.random.default_rng(args.seed)
    stats = carpet.empirical_offspring_stats(args.p, args.column, args.type, args.samples, rng)
    law = carpet.build_carpet_model(args.p).model.letters[args.column].laws[args.type]
    model_pmf = {
        (int(z[0]), int(z[1])): float(p) for z, p in zip(law.counts, law.probs)
    }
    atoms = set(stats.pmf) | set(model_pmf)
    tv = 0.5 * sum(abs(stats.pmf.get(a, 0.0) - model_pmf.get(a, 0.0)) for a in atoms)
    return {
        "mean": [float(v) for v in stats.mean],
        "pmf": {f"{a},{b}": p for (a, b), p in sorted(stats.pmf.items())},
        "model_pmf": {f"{a},{b}": p for (a, b), p in sorted(model_pmf.items())},
        "tv_distance": tv,
    }


def _cmd_proofkit(args, model):
    from . import proofkit

    lam = getattr(args, "lambda")  # a keyword, so not args.lambda
    built = proofkit.build_proof_params(model, lam)
    report = proofkit.oracle_suite(model, lam, args.samples, args.seed, params=built)
    return {
        "checks": report.checks,
        "all_passed": report.all_passed,
        "params": {
            "rho": built.rho,
            "alpha": built.alpha,
            "moment_bound": built.moment_bound,
            "delta": built.delta,
            "mu": built.mu,
            "u": built.u,
        },
    }


# Namespace fields that are not echoed in ``params``: the seed has its own
# envelope key, --json only picks the output format, and the rest dispatch.
_NOT_ECHOED = frozenset({"seed", "json", "command", "carpet_command", "handler"})


def _fields(obj):
    """``obj`` with each dataclass in it, or in its dict values and tuples, as its fields."""
    from dataclasses import asdict, is_dataclass  # its result's module loaded it

    if is_dataclass(obj):
        return asdict(obj)
    if isinstance(obj, dict):
        return {k: _fields(v) for k, v in obj.items()}
    if isinstance(obj, tuple):
        return tuple(_fields(v) for v in obj)
    return obj


def _flatten(prefix, obj):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _flatten(f"{prefix}.{key}" if prefix else str(key), value)
    elif isinstance(obj, (list, tuple)) and obj and isinstance(obj[0], (dict, list, tuple)):
        for i, value in enumerate(obj):
            yield from _flatten(f"{prefix}[{i}]", value)
    else:
        yield f"{prefix} = {json.dumps(obj)}"


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        # the subcommands with --model read it here, in one place
        inputs = [_load_model(args.model)] if "model" in vars(args) else []
        result = args.handler(args, *inputs)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for kinds, code in _EXIT_CODES if isinstance(exc, kinds)), 1)
    # argparse fills the namespace in parser order, defaults included
    params = {k: v for k, v in vars(args).items() if k not in _NOT_ECHOED}
    command = " ".join(filter(None, (args.command, getattr(args, "carpet_command", None))))
    envelope = {
        "tool": "mbpre",
        "version": __version__,
        "command": command,
        "seed": getattr(args, "seed", None),
        "params": params,
        "result": _fields(result),
    }
    if args.json:
        print(json.dumps(envelope, indent=2))
    else:
        for line in _flatten("", envelope):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
