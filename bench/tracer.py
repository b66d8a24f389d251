"""In-process spans and counts at the boundaries of mbpre's modules.

``Tracer.install`` replaces every public function of each library module,
the same objects wherever another module imported them by name, and a few
methods and one private loop named below, with wrappers that record one
span (name, start, end, parent) per call. Counters are read from the
arguments and results at the same boundaries. Spans are kept in flat
arrays and summarized, or written out, after the run.

A boundary that a later version of the library no longer has is skipped;
the metrics read from it then read 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from array import array
from collections import Counter

LAYERS = ("model", "matcore", "lyapunov", "extinction", "classify", "proofkit", "carpet")

# Methods and private functions traced in addition to the public functions.
EXTRA = (
    ("model", "OffspringLaw", "pgf"),
    ("model", "OffspringLaw", "sample_sum"),
    ("model", "IidEnvironment", "sample_word"),
    ("model", "MarkovEnvironment", "sample_word"),
    ("model", "EnvironmentLetter", "pgf_vector"),
    # the depth-doubling loop of one environment; its result carries the
    # depth reached and whether it converged
    ("extinction", None, "_converged_with_rng"),
)

# Per-layer metrics: name -> unit, in the order they are reported.
METRICS = {
    "model.pgf_calls": "count",
    "model.pgf_us_per_call": "us",
    "model.sample_word_letters": "count",
    "model.sample_word_us_per_letter": "us",
    "model.sample_sum_calls": "count",
    "model.sample_sum_us_per_call": "us",
    "model.parse_model_ms": "ms",
    "lyapunov.matrix_steps": "count",
    "lyapunov.us_per_step": "us",
    "matcore.boolean_products": "count",
    "classify.check_conditions_s": "s",
    "extinction.compose_steps": "count",
    "extinction.us_per_compose_step": "us",
    "extinction.depth_mean": "letters",
    "extinction.converged_share": "ratio",
    "extinction.useful_step_ratio": "ratio",
    "extinction.trial_runs": "count",
    "extinction.generations": "count",
    "extinction.us_per_generation": "us",
    "extinction.capped_trials": "count",
    "extinction.distinct_trial_ratio": "ratio",
    "carpet.squares": "count",
    "carpet.squares_per_s": "1/s",
    "proofkit.suite_s": "s",
    "parallel.pools_started": "count",
    "trace.overhead_s": "s",
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_word(key):
    def count(tr, args, kwargs, out):
        tr.counts[key] += len(_arg(args, kwargs, 1, "word"))
    return count


def _count_letters(tr, args, kwargs, out):
    tr.counts["letters"] += int(_arg(args, kwargs, 1, "n"))


def _count_depth(tr, args, kwargs, out):
    tr.depths.append(int(out.depth))
    tr.counts["envs_converged"] += bool(out.converged)


def _count_generation(tr, args, kwargs, out):
    tr.counts["generations"] += int(out.generation)
    tr.counts["capped"] += out.outcome == "cap_exceeded"


def _count_trials(tr, args, kwargs, out):
    # (model, start_type, trials, horizon, cap, seed, ...): one trial per
    # (call arguments, trial index), so a rerun of the same arguments
    # repeats its trials
    names = ("model", "start_type", "trials", "horizon", "cap", "seed")
    call = dict(zip(names, args), **kwargs)
    trials = int(call["trials"])
    tr.counts["trials"] += trials
    key = (
        id(call["model"]), call["start_type"], call["horizon"], call.get("cap"), call.get("seed")
    )
    tr.trial_keys[key] = max(tr.trial_keys.get(key, 0), trials)


def _count_squares(tr, args, kwargs, out):
    tr.counts["squares"] += len(out)


COUNTERS = {
    "lyapunov.exponent_along_word": _count_word("matrix_steps"),
    "extinction.extinction_fixed_env": _count_word("compose_steps"),
    "model.IidEnvironment.sample_word": _count_letters,
    "model.MarkovEnvironment.sample_word": _count_letters,
    "extinction._converged_with_rng": _count_depth,
    "extinction.simulate_generations": _count_generation,
    "extinction.survival_probability_mc": _count_trials,
    "extinction.growth_rate_conditioned": _count_trials,
    "carpet.sample_carpet": _count_squares,
}


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_ids = array("l")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.counts = Counter()
        self.depths = []
        self.trial_keys = {}
        self._undo = []

    def _wrap(self, name, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        count = COUNTERS.get(name)
        stack, starts, ends = self._stack, self.starts, self.ends
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            self.name_ids.append(nid)
            self.parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if count is not None:
                count(self, args, kwargs, out)
            return out

        return traced

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, package="mbpre"):
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{package}.{layer}")
            except ImportError:
                continue
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        for layer, cls, attr in EXTRA:
            owner = modules.get(layer)
            if owner is not None and cls is not None:
                owner = getattr(owner, cls, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if inspect.isfunction(fn):
                name = ".".join(p for p in (layer, cls, attr) if p)
                self._patch(owner, attr, self._wrap(name, fn))
        # every module, the CLI included, sees the wrapper under each name it
        # bound to a traced function
        cli = importlib.import_module(f"{package}.cli")
        for mod in list(modules.values()) + [cli]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- summaries ---------------------------------------------------------

    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        calls = Counter()
        total = Counter()
        child = Counter()
        for nid, parent, t0, t1 in zip(self.name_ids, self.parents, self.starts, self.ends):
            calls[nid] += 1
            total[nid] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        self_time = Counter()
        for idx, nid in enumerate(self.name_ids):
            self_time[nid] += (self.ends[idx] - self.starts[idx]) - child.get(idx, 0.0)
        return {
            self.names[nid]: (calls[nid], total[nid], self_time[nid]) for nid in calls
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("id\tname\tparent\tstart\tend\n")
            for idx, (nid, parent, t0, t1) in enumerate(
                zip(self.name_ids, self.parents, self.starts, self.ends)
            ):
                fh.write(f"{idx}\t{self.names[nid]}\t{parent}\t{t0!r}\t{t1!r}\n")


class PoolCounter:
    """Counts process pools that ``mbpre._parallel`` starts."""

    def __init__(self, package="mbpre"):
        self.started = 0
        try:
            self._mod = importlib.import_module(f"{package}._parallel")
            self._base = self._mod.ProcessPoolExecutor
        except (ImportError, AttributeError):
            self._mod = None
            return
        counter = self

        class CountingPool(self._base):
            def __init__(self, *args, **kwargs):
                counter.started += 1
                super().__init__(*args, **kwargs)

        self._mod.ProcessPoolExecutor = CountingPool

    def uninstall(self):
        if self._mod is not None:
            self._mod.ProcessPoolExecutor = self._base


def _ratio(num, den, scale=1.0):
    """num * scale / den, or 0 when the layer did no work."""
    return num * scale / den if den else 0.0


def layer_metrics(tracer, traced_s, untraced_s, pools_started):
    """Per-layer metric values of one traced round."""
    tot = tracer.totals()

    def calls(*names):
        return sum(tot[n][0] for n in names if n in tot)

    def seconds(*names):
        return sum(tot[n][1] for n in names if n in tot)

    c = tracer.counts
    pgf, sample_sum = "model.OffspringLaw.pgf", "model.OffspringLaw.sample_sum"
    words = ("model.IidEnvironment.sample_word", "model.MarkovEnvironment.sample_word")
    depth_sum, envs = sum(tracer.depths), len(tracer.depths)
    return {
        "model.pgf_calls": calls(pgf),
        "model.pgf_us_per_call": _ratio(seconds(pgf), calls(pgf), 1e6),
        "model.sample_word_letters": c["letters"],
        "model.sample_word_us_per_letter": _ratio(seconds(*words), c["letters"], 1e6),
        "model.sample_sum_calls": calls(sample_sum),
        "model.sample_sum_us_per_call": _ratio(seconds(sample_sum), calls(sample_sum), 1e6),
        "model.parse_model_ms": _ratio(
            seconds("model.parse_model"), calls("model.parse_model"), 1e3
        ),
        "lyapunov.matrix_steps": c["matrix_steps"],
        "lyapunov.us_per_step": _ratio(
            seconds("lyapunov.exponent_along_word"), c["matrix_steps"], 1e6
        ),
        "matcore.boolean_products": calls("matcore.boolean_product"),
        "classify.check_conditions_s": seconds("classify.check_conditions"),
        "extinction.compose_steps": c["compose_steps"],
        "extinction.us_per_compose_step": _ratio(
            seconds("extinction.extinction_fixed_env"), c["compose_steps"], 1e6
        ),
        "extinction.depth_mean": _ratio(depth_sum, envs),
        "extinction.converged_share": _ratio(c["envs_converged"], envs),
        "extinction.useful_step_ratio": _ratio(depth_sum, c["compose_steps"]),
        "extinction.trial_runs": c["trials"],
        "extinction.generations": c["generations"],
        "extinction.us_per_generation": _ratio(
            seconds("extinction.simulate_generations"), c["generations"], 1e6
        ),
        "extinction.capped_trials": c["capped"],
        "extinction.distinct_trial_ratio": _ratio(
            sum(tracer.trial_keys.values()), c["trials"]
        ),
        "carpet.squares": c["squares"],
        "carpet.squares_per_s": _ratio(c["squares"], seconds("carpet.sample_carpet")),
        "proofkit.suite_s": seconds("proofkit.oracle_suite"),
        "parallel.pools_started": pools_started,
        "trace.overhead_s": traced_s - untraced_s,
    }


def median_metrics(rounds):
    """Median of each metric over rounds (the lower one of an even count)."""
    return {name: statistics.median_low(r[name] for r in rounds) for name in METRICS}
