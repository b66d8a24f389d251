"""mbpre benchmark: CLI workloads timed end to end, with a traced run for layer costs.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0
    python3 bench/run.py --emit DIR --seed N

One client drives the ``mbpre`` command in a closed loop: each command
starts when the previous one has ended. A round runs the workload's
commands with ``--threads 1`` and again with ``--threads 2``, then checks
the results against independent reference values and compares the two
worker counts byte for byte. A run repeats whole rounds for ``--seconds``
and reports medians over rounds of wall times scaled by the host-speed
gauge of :mod:`gauge`. ``--trace 1`` runs the same commands
in-process with spans recorded at every module boundary and reports the
per-layer metrics instead. The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import tracer as tracing
import workloads
from gauge import Gauge
from launcher import Launcher

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"

# Launches of `mbpre --version` per round; setup_s is their median over the run.
SETUP_LAUNCHES_PER_ROUND = 2
COMMAND_TIMEOUT_S = 150
THREADS = (1, 2)
# Spans listed in a traced run's report, by self time.
SPANS_SHOWN = 12

END_TO_END_UNITS = {"wall_s": "s", "wall_2w_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class Round:
    """Outcome of one round: per-operation pass/fail, timings and results."""

    def __init__(self):
        self.ops = []  # (operation name, ok, detail)
        # command name -> wall seconds, raw and scaled by the speed gauge
        self.raw = {t: {} for t in THREADS}
        self.wall = {t: {} for t in THREADS}
        self.setup = []  # scaled wall seconds of the round's `mbpre --version` launches
        self.peak_rss_mb = 0.0
        self.results = {t: {} for t in THREADS}
        self.layers = None  # per-layer metrics of a traced round
        self.spans = None  # its span totals: name -> (calls, total s, self s)

    def op(self, name, ok, detail=""):
        self.ops.append((name, bool(ok), detail))

    def record(self, threads, name, rc, stdout):
        """One command's outcome; its result object is kept for the checks."""
        ok = rc == 0
        if ok:
            try:
                self.results[threads][name] = json.loads(stdout)["result"]
            except (ValueError, KeyError):
                ok = False
        self.op(f"{name}:threads_{threads}", ok, f"exit {rc}")


def _cli_command(argv):
    return [sys.executable, "-m", "mbpre.cli", *argv]


def launch_version(launcher, workdir):
    """Wall seconds of one `mbpre --version`: start, import, exit."""
    rc, wall, _ = launcher.run(
        _cli_command(["--version"]), workdir / "version.out", workdir / "version.err"
    )
    if rc != 0:
        raise RuntimeError(f"mbpre --version exited with {rc}")
    return wall


def _canonical(result):
    return json.dumps(result, sort_keys=True)


def _finish_round(rnd, plan):
    """Checks on the --threads 1 results and the worker-count comparison."""
    res1, res2 = rnd.results[1], rnd.results[2]
    for check in plan.checks:
        if not all(n in res1 for n in check.needs):
            rnd.op(check.name, False, "no result to check")
            continue
        try:
            ok, detail = check.fn(res1)
        except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        rnd.op(check.name, ok, detail)
    for name, _ in plan.commands:
        same = name in res1 and name in res2 and _canonical(res1[name]) == _canonical(res2[name])
        rnd.op(f"{name}:threads_1_equals_2", same)


def run_round(plan, launcher, gauge, workdir):
    rnd = Round()
    rnd.setup = [
        gauge.scale(launch_version(launcher, workdir)) for _ in range(SETUP_LAUNCHES_PER_ROUND)
    ]
    for threads in THREADS:
        for name, argv in plan.commands:
            out, err = workdir / f"{name}.t{threads}.out", workdir / f"{name}.t{threads}.err"
            rc, wall, rss = launcher.run(
                _cli_command([*argv, "--threads", str(threads), "--json"]), out, err
            )
            rnd.raw[threads][name] = wall
            rnd.wall[threads][name] = gauge.scale(wall)
            rnd.peak_rss_mb = max(rnd.peak_rss_mb, rss)
            rnd.record(threads, name, rc, out.read_text())
    _finish_round(rnd, plan)
    return rnd


def _inprocess(cli, argv):
    """Run the CLI's main() in this process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def run_traced_round(plan, cli, workdir):
    """One round in-process: each command untraced and then traced with
    --threads 1, then a --threads 2 pass that counts process pools."""
    rnd = Round()
    tracer = tracing.Tracer()
    untraced = traced = 0.0
    outs = []
    for _, argv in plan.commands:
        args = [*argv, "--threads", "1", "--json"]
        t0 = time.perf_counter()
        _inprocess(cli, args)
        untraced += time.perf_counter() - t0
        tracer.install()
        try:
            t0 = time.perf_counter()
            outs.append(_inprocess(cli, args))
            traced += time.perf_counter() - t0
        finally:
            tracer.uninstall()

    pools = tracing.PoolCounter()
    try:
        outs2 = [_inprocess(cli, [*argv, "--threads", "2", "--json"]) for _, argv in plan.commands]
    finally:
        pools.uninstall()

    for threads, passes in ((1, outs), (2, outs2)):
        for (name, _), (rc, text) in zip(plan.commands, passes):
            rnd.record(threads, name, rc, text)
    _finish_round(rnd, plan)
    tracer.write_spans(workdir / "spans.tsv")
    rnd.layers = tracing.layer_metrics(tracer, traced, untraced, pools.started)
    rnd.spans = tracer.totals()
    return rnd


def _import_library():
    sys.path.insert(0, str(SRC))
    import mbpre
    from mbpre import cli

    if Path(mbpre.__file__).resolve().parent != SRC / "mbpre":
        raise RuntimeError(f"imported mbpre from {mbpre.__file__}, not from {SRC}")
    return cli


def repeat_rounds(one_round, seconds):
    """Whole rounds, the next one starting while at least half of the longest
    round so far remains of ``seconds``; a run ends within half a round of it."""
    rounds = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        rounds.append(one_round())
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + longest / 2 > seconds:
            return rounds


def command_walls(rounds, threads, kind="wall"):
    """Each command's median wall time over the run's rounds, summed."""
    names = getattr(rounds[0], kind)[threads]
    return sum(statistics.median(getattr(r, kind)[threads][n] for r in rounds) for n in names)


def run_workload(name, seed, seconds, trace):
    workdir = WORK / name
    workdir.mkdir(parents=True, exist_ok=True)
    plan = workloads.WORKLOADS[name](seed, workdir)
    if trace:
        cli = _import_library()
        rounds = repeat_rounds(lambda: run_traced_round(plan, cli, workdir), seconds)
    else:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with Launcher(env, ROOT, COMMAND_TIMEOUT_S) as launcher:
            launch_version(launcher, workdir)  # writes the bytecode caches; not timed
            gauge = Gauge()
            rounds = repeat_rounds(lambda: run_round(plan, launcher, gauge, workdir), seconds)

    attempted = sum(len(r.ops) for r in rounds)
    failed_ops = [(op, detail) for r in rounds for op, ok, detail in r.ops if not ok]
    unexpected = sorted({op for op, _ in failed_ops} - set(plan.known_faults))
    if trace:
        values = tracing.median_metrics([r.layers for r in rounds])
        metrics = {k: {"value": v, "unit": tracing.METRICS[k]} for k, v in values.items()}
    else:
        values = {
            "wall_s": command_walls(rounds, 1),
            "wall_2w_s": command_walls(rounds, 2),
            "setup_s": statistics.median(t for r in rounds for t in r.setup),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in rounds),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    report(name, seed, plan, rounds, metrics, None if trace else gauge.factors)
    return {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": metrics,
    }


def report(name, seed, plan, rounds, metrics, factors):
    print(f"== workload {name} (seed {seed}): {len(rounds)} rounds")
    per_op = {}
    for r in rounds:
        for op, ok, detail in r.ops:
            entry = per_op.setdefault(op, [0, 0, detail])
            entry[0] += 1
            entry[1] += not ok
            if not ok:
                entry[2] = detail
    for op, (n, bad, detail) in per_op.items():
        tag = " (counted fault: " + plan.known_faults[op] + ")" if op in plan.known_faults else ""
        print(f"  op {op:<40} attempted {n:>3} failed {bad:>3}  {detail}{tag}")
    failed = sum(bad for _, bad, _ in per_op.values())
    print(f"  operations: attempted {sum(n for n, _, _ in per_op.values())}, failed {failed}")
    for key, value in plan.facts.items():
        print(f"  reference {key} = {value}")
    if rounds[0].spans is None:
        for threads in THREADS:
            for cmd in rounds[0].wall[threads]:
                raw = " ".join(f"{r.raw[threads][cmd]:.3f}" for r in rounds)
                scaled = " ".join(f"{r.wall[threads][cmd]:.3f}" for r in rounds)
                print(f"  {cmd} at --threads {threads}: wall {raw} s, scaled {scaled} s")
            raw = command_walls(rounds, threads, "raw")
            print(f"  unscaled sum of medians at --threads {threads}: {raw!r} s")
        setups = " ".join(f"{t:.3f}" for r in rounds for t in r.setup)
        print(f"  mbpre --version scaled wall times: {setups} s")
        q = statistics.quantiles(factors, n=4)
        print(
            f"  speed-gauge scale factors: median {q[1]:.3f}, quartiles {q[0]:.3f} {q[2]:.3f}, "
            f"range {min(factors):.3f} {max(factors):.3f} over {len(factors)} launches"
        )
    else:
        spans = sorted(rounds[-1].spans.items(), key=lambda kv: -kv[1][2])
        for span, (calls, total, own) in spans[:SPANS_SHOWN]:
            print(f"  span {span:<42} calls {calls:>8} total {total:9.4f} s self {own:9.4f} s")
    for key, m in metrics.items():
        print(f"  {key} = {m['value']!r} {m['unit']}")


def machine_report():
    print(
        f"machine: {os.cpu_count()} CPUs, Python {platform.python_version()}, "
        f"numpy {np.__version__}, {platform.platform()}"
    )
    print(
        "not controlled: CPU frequency scaling, the page cache and core isolation "
        "(the benchmark changes no machine settings); other load on the host is not excluded"
    )


def emit_inputs(outdir, seed):
    """Write every workload's model files and reference values to ``outdir``."""
    for name, planner in workloads.WORKLOADS.items():
        workdir = Path(outdir) / name
        workdir.mkdir(parents=True, exist_ok=True)
        plan = planner(seed, workdir)
        doc = {
            "commands": {n: ["mbpre", *argv] for n, argv in plan.commands},
            "reference": plan.facts,
        }
        (workdir / "reference.json").write_text(json.dumps(doc, indent=2) + "\n")
        print(f"{name}: wrote {sorted(p.name for p in workdir.iterdir())}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--emit", metavar="DIR", help="write the generated inputs and stop")
    args = parser.parse_args(argv)

    if args.emit:
        emit_inputs(args.emit, args.seed)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "mbpre" / "__init__.py").is_file():
        print(f"error: no mbpre sources at {SRC}", file=sys.stderr)
        return 2

    machine_report()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(results[name]))
    if args.workload == "all":
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{key}": m for name, r in results.items() for key, m in r["metrics"].items()
            },
        }
        print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
