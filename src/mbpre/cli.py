"""Command-line interface.

Every subcommand echoes its seed and, in ``params``, every other option
its parser holds (defaults included, in parser order, ``--json`` left
out), writes results to stdout (JSON with --json, flat key = value lines
otherwise; a result dataclass by its own fields) and diagnostics to
stderr. Identical command lines produce byte-identical JSON. Exit codes:
0 success, 2 usage error (any other ``ValueError``, a count option below 1
included), 3 model or invariant error, 4 resource-budget error (an
exponent word over ``LETTER_BUDGET`` letters and a model's pgf table over
``LETTER_BUDGET`` bytes included), 1 any other failure.

Each handler imports the modules it runs, and numpy only where it uses it,
so a launch loads only what its subcommand needs: ``carpet critical
--bisect`` runs ``mbpre.critical``, which imports only math, and writes a
dict, so it loads neither numpy nor ``dataclasses``. The parser names every
subcommand but builds only the invoked one's options, and json and
``mbpre.errors`` load where a result is written, an error is mapped to its
exit code or the ``--kind`` choices are offered, so ``--version`` loads
neither numpy, json nor ``mbpre.errors``. On a 2-core VM that launch takes
32.9 ms against 35.6 ms with every option built and both modules loaded
(medians of 41 alternating launches), and the parser builds in 0.4–0.7 ms
in-process against 1.3 ms (best of 7).

A process enters through ``launch``, which pins OpenBLAS to one thread,
keeps OpenSSL's ``libcrypto`` out of the process (3.4 MB of peak RSS that
``numpy.random`` maps through ``secrets`` and ``hmac``), turns the cyclic
collector off, runs ``main``, flushes the output and ends the process
without interpreter teardown; ``main`` leaves the collector, BLAS and
``_hashlib`` as it found them. A result, ``--help`` or ``--version`` that
cannot be written exits 1.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys

from . import __version__


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


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose writes to stdout raise OSError.

    argparse drops an OSError from writing ``--help`` or ``--version``
    text; here it reaches ``launch``, which reports it as it does a
    result's. Writes to stderr (usage errors) are argparse's own.
    """

    def _print_message(self, message, file=None):
        if message and file is not None and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def _check_options(p):
    p.add_argument("--model", required=True)


def _lyapunov_options(p):
    from .errors import KINDS

    p.add_argument("--model", required=True)
    p.add_argument("--kind", choices=KINDS, default="sum")
    _add_steps(p)


def _extinction_options(p):
    p.add_argument("--model", required=True)
    p.add_argument("--mode", choices=("fixed", "converged", "annealed"), default="converged")
    p.add_argument("--word", default=None, help="comma-separated letter indices (fixed mode)")
    p.add_argument("--tol", type=_parse_finite, default=1e-9)
    p.add_argument("--max-depth", type=int, default=1 << 16)
    p.add_argument("--envs", type=int, default=100)


def _simulate_options(p):
    p.add_argument("--model", required=True)
    p.add_argument("--start-type", type=int, default=0)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--horizon", type=int, default=100)
    p.add_argument("--cap", type=int, default=10**6)
    p.add_argument(
        "--growth", action="store_true", help="also estimate the conditioned growth rate"
    )


def _critical_options(p):
    _add_steps(p)
    p.add_argument(
        "--bisect", action="store_true", help="bisect on the sign of log p + Ulam's lambda_B"
    )
    p.add_argument("--iterations", type=_parse_positive, default=12)


def _project_options(p):
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--samples", type=_parse_positive, default=100)


def _offspring_options(p):
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--column", type=int, required=True, choices=(0, 1, 2))
    p.add_argument("--type", type=int, required=True, choices=(0, 1))
    p.add_argument("--samples", type=_parse_positive, default=100_000)


def _proofkit_options(p):
    p.add_argument("--model", required=True)
    p.add_argument("--lambda", type=_parse_finite, required=True)
    p.add_argument("--samples", type=_parse_positive, default=10_000)


def _cmd_check(args):
    from .classify import check_conditions

    return check_conditions(args.model)


def _estimate(args):
    from . import lyapunov

    return lyapunov.estimate_exponent(
        args.model.expectation_matrices(),
        args.model.environment,
        kind=args.kind,
        steps_per_batch=args.steps,
        batches=args.batches,
        seed=args.seed,
    )


def _cmd_extinction(args):
    from . import extinction

    if args.mode == "fixed":
        if not args.word:
            raise ValueError("--word is required in fixed mode")
        try:
            word = [int(x) for x in args.word.split(",")]
        except ValueError:
            raise ValueError("--word must be comma-separated integers")
        res = extinction.extinction_fixed_env(args.model, word)
        return {"q": [float(v) for v in res.q], "depth": res.depth}
    if args.mode == "converged":
        res = extinction.extinction_converged(
            args.model, args.seed, tol=args.tol, max_depth=args.max_depth
        )
        return {"q": [float(v) for v in res.q], "depth": res.depth, "converged": res.converged}
    mean_q, share = extinction.annealed_extinction(
        args.model,
        args.envs,
        tol=args.tol,
        max_depth=args.max_depth,
        seed=args.seed,
    )
    return {"mean_q": [float(v) for v in mean_q], "share_converged": share}


def _cmd_simulate(args):
    from . import extinction

    if args.growth and args.horizon < 20:
        raise ValueError("horizon must be >= 20")
    res = extinction.survival_estimate(
        args.model, args.start_type, args.trials, args.horizon, args.cap, args.seed
    )
    if not args.growth:
        return {"survival": res.survival, "half_width": res.half_width}
    if res.growth_rate is None:
        from .errors import NoSurvivorsError

        raise NoSurvivorsError(f"no trial of {args.trials} survived to generation {args.horizon}")
    return res


def _cmd_classify(args):
    from .classify import check_conditions, classify

    report = check_conditions(args.model)
    verdict = classify(report, _estimate(args))
    return {"report": report, "verdict": verdict}


def _cmd_carpet_lambda_b(args):
    from . import carpet

    return carpet.lambda_b(args.steps, args.batches, args.seed)


def _cmd_carpet_critical(args):
    if args.bisect:
        from .critical import bisect_critical

        lo, hi = bisect_critical(iterations=args.iterations)
        return {"p_low": lo, "p_high": hi, "method": "bisect"}
    from . import carpet

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
    from . import carpet

    stats = carpet.empirical_offspring_stats(
        args.p, args.column, args.type, args.samples, args.seed
    )
    law = carpet.build_carpet_model(args.p).letters[args.column].laws[args.type]
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


def _cmd_proofkit(args):
    from . import proofkit

    lam = getattr(args, "lambda")  # a keyword, so not args.lambda
    built = proofkit.build_proof_params(args.model, lam)
    report = proofkit.oracle_suite(args.model, built, args.samples, args.seed)
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


# Every command as name -> (help, handler, options, whether it takes --seed
# and --threads), in the order --help lists them. A group of commands, such
# as carpet, has no handler and its own table in place of its options.
_CARPET_COMMANDS = {
    "lambda-b": (
        "growth exponent of the p=1 column matrices", _cmd_carpet_lambda_b, _add_steps, True
    ),
    "critical": (
        "critical retention probability interval", _cmd_carpet_critical, _critical_options, True
    ),
    "project": (
        "sample carpets and measure their projections", _cmd_carpet_project, _project_options,
        True,
    ),
    "offspring": (
        "validate a column law against the geometry", _cmd_carpet_offspring, _offspring_options,
        True,
    ),
}
_COMMANDS = {
    "check": ("verify classification hypotheses on a model", _cmd_check, _check_options, False),
    "lyapunov": ("estimate a growth exponent", _estimate, _lyapunov_options, True),
    "extinction": (
        "extinction vectors by pgf composition", _cmd_extinction, _extinction_options, True
    ),
    "simulate": (
        "population simulation and survival estimate", _cmd_simulate, _simulate_options, True
    ),
    "classify": (
        "survival/extinction verdict for a model", _cmd_classify, _lyapunov_options, True
    ),
    "carpet": ("random Sierpinski carpet application", None, _CARPET_COMMANDS, None),
    "proofkit": (
        "run the majorant inequality oracle suite", _cmd_proofkit, _proofkit_options, True
    ),
}


def _build_parser(argv):
    """The parser of the command line ``argv``.

    Every command is named, with its help, so ``--help`` and an unknown
    command read the same whatever is invoked; only the invoked command
    gets its options. That command is the first argument that does not
    start with ``-``, and under a group the next one: neither the top level
    nor a group takes an option with a value, so argparse reads the same
    command from any command line it accepts.
    """
    parser = _Parser(
        prog="mbpre",
        description="Multitype branching processes in random environments",
    )
    parser.add_argument("--version", action="version", version=f"mbpre {__version__}")
    _add_commands(parser, "command", _COMMANDS, (a for a in argv if not a.startswith("-")))
    return parser


def _add_commands(parser, dest, commands, words):
    """Name each of ``commands`` under ``parser`` and build the one that ``words`` invokes."""
    sub = parser.add_subparsers(dest=dest, required=True)
    invoked = next(words, None)
    for name, (help, handler, options, seeded) in commands.items():
        p = sub.add_parser(name, help=help)
        if name != invoked:
            continue
        if handler is None:
            _add_commands(p, f"{name}_command", options, words)
            continue
        p.set_defaults(handler=handler)
        options(p)
        # every command ends with --json, and all but check with --seed and
        # --threads before it
        if seeded:
            p.add_argument("--seed", type=_parse_seed, default=0, help="RNG seed (or 'random')")
            p.add_argument(
                "--threads",
                type=_parse_positive,
                default=1,
                help="no effect: runs in one process",
            )
        p.add_argument("--json", action="store_true", help="machine-readable output")


# Namespace fields that are not echoed in ``params``: the seed has its own
# envelope key, --json only picks the output format, and the rest dispatch.
_NOT_ECHOED = frozenset({"seed", "json", "command", "carpet_command", "handler"})


def _fields(obj):
    """``obj`` with each dataclass in it, or in its dict values and tuples, as its fields.

    A dataclass is told by its class's ``__dataclass_fields__``, the test
    ``dataclasses.is_dataclass`` makes, so a result with none (the dict of
    ``carpet critical --bisect``) never loads ``dataclasses`` and ``inspect``.
    """
    if hasattr(type(obj), "__dataclass_fields__"):
        from dataclasses import asdict  # the module that made obj loaded it

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
        import json

        yield f"{prefix} = {json.dumps(obj)}"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    # argparse fills the namespace in parser order, defaults included
    params = {k: v for k, v in vars(args).items() if k not in _NOT_ECHOED}
    try:
        # the subcommands with --model read it here, in one place, into args.model
        if "model" in params:
            args.model = _load_model(args.model)
        result = args.handler(args)
    except Exception as exc:
        from .errors import BudgetError, InvariantError, ModelFormatError

        print(f"error: {exc}", file=sys.stderr)
        # the code of the first entry the error is an instance of; any other
        # error (a degenerate product, no survivors) exits 1
        codes = (((ModelFormatError, InvariantError), 3), (ValueError, 2), (BudgetError, 4))
        return next((code for kinds, code in codes if isinstance(exc, kinds)), 1)
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
        import json

        print(json.dumps(envelope, indent=2))
    else:
        for line in _flatten("", envelope):
            print(line)
    return 0


def launch():
    """Run ``main`` as the process's entry point and end the process with its exit code.

    ``OPENBLAS_NUM_THREADS`` is set to 1 before ``main`` loads numpy, so
    OpenBLAS starts no worker thread: mbpre's matrices are a few types
    wide, and on a 2-core VM whose cores were contended the idle worker
    made a short launch about 1.5x slower.

    CPython's OpenSSL binding ``_hashlib`` is blocked before numpy loads:
    ``numpy.random`` imports ``secrets``, which imports ``hmac``, which
    imports ``_hashlib`` and maps ``libcrypto``, 3.4 MB of a launch's peak
    RSS, though mbpre hashes nothing. ``hmac`` and ``hashlib`` then use
    the fallbacks of a CPython built without OpenSSL (``_operator``'s
    ``_compare_digest`` and the built-in ``_sha256``/``_sha512``/
    ``_blake2``), and ``secrets.randbits`` still reads ``os.urandom``. A
    ``_hashlib`` loaded before ``launch`` (by a ``sitecustomize``, say) is
    left in place. The library and ``import mbpre`` leave BLAS and
    ``_hashlib`` as the caller set them.

    The cyclic collector is off from here to the end of the process: a
    launch is short, and its collections would walk mostly the objects its
    imports made (numpy, argparse, ``site``). Once ``main`` has returned,
    stdout and stderr are flushed and ``os._exit`` ends the process, so
    interpreter teardown and atexit handlers do not run and the OS
    reclaims the heap whole. A result that cannot be written (a closed
    stdout, a closed pipe, a full disk) is reported on stderr as one
    ``cannot write output`` line and exits 1.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    # a None entry makes ``import _hashlib`` raise ImportError, so hmac and
    # hashlib take their built-in fallbacks and libcrypto is never mapped
    sys.modules.setdefault("_hashlib", None)
    gc.disable()
    if sys.stdout is None:  # fd 1 was closed at startup, and print would drop the result
        code = _output_error("stdout is closed")
    else:
        try:
            code = main()
            sys.stdout.flush()
        except OSError as exc:  # main handles every other error; this one is its output's
            code = _output_error(exc)
    try:
        sys.stderr.flush()
    except (AttributeError, OSError):  # no stderr, or one that takes nothing more
        pass
    os._exit(code)


def _output_error(reason):
    print(f"error: cannot write output: {reason}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    launch()
