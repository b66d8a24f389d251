"""API hygiene, read from the source trees with ``ast``; nothing here runs a demo.

One test imports the package in a child interpreter to count the methods
``dataclasses`` compiles.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import child_env

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mbpre"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _package_module(node):
    """The mbpre module an ``ImportFrom`` reads from: "" for the package itself."""
    if node.level:
        return node.module or ""
    if node.module == "mbpre":
        return ""
    if node.module and node.module.startswith("mbpre."):
        return node.module[len("mbpre."):]
    return None


def _cross_module_private_reads(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = {}  # local name -> mbpre module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _package_module(node)
            if source is None:
                continue
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{path.name}:{node.lineno} imports {alias.name}")
                if source == "" and alias.name in MODULES:
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("mbpre.") and alias.asname:
                    aliases[alias.asname] = alias.name[len("mbpre."):]
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and _private(node.attr)
        ):
            found.append(f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}")
    return found


def _unread_parameters(path):
    """Parameters of each ``def``, other than ``self`` and ``cls``, that its body never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        read = {
            n.id
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        found += [
            f"{path.name}:{node.lineno} {node.name}({p.arg})"
            for p in params
            if p.arg not in {"self", "cls"} | read
        ]
    return found


@pytest.mark.parametrize("module", MODULES + ["__init__"])
def test_every_parameter_is_read(module):
    assert _unread_parameters(PACKAGE / f"{module}.py") == []


@pytest.mark.parametrize("module", MODULES + ["__init__"])
def test_no_module_reads_another_modules_private_names(module):
    assert _cross_module_private_reads(PACKAGE / f"{module}.py") == []


def test_private_read_is_detected(tmp_path):
    # the check itself must see both spellings of a private read
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import extinction\n"
        "from .model import _readonly\n"
        "extinction._trial_outcomes(None)\n"
    )
    assert len(_cross_module_private_reads(probe)) == 2


def test_every_public_name_resolves():
    import mbpre

    missing = [name for name in mbpre.__all__ if not hasattr(mbpre, name)]
    assert missing == []


def test_unknown_name_is_an_attribute_error():
    import mbpre

    # hasattr lets any other exception through
    assert not hasattr(mbpre, "no_such_name")


def test_classify_stays_the_function_after_its_module_loads():
    import mbpre
    import mbpre.classify  # binds the submodule as the package attribute
    from mbpre import classify

    assert classify is mbpre.classify is importlib.import_module("mbpre.classify").classify


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports_exist(demo):
    tree = ast.parse(demo.read_text(), filename=str(demo))
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _package_module(node) is not None:
            module = importlib.import_module(node.module)
            missing += [a.name for a in node.names if not hasattr(module, a.name)]
    assert missing == []


def test_cli_only_parses_and_prints():
    # estimators and their seeding live in the library; the CLI calls them
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    defined = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert not defined & {"_bisect_critical", "_UsageError"}
    called = {
        node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    assert not called & {"SeedSequence", "default_rng"}


def test_classify_asks_the_positive_word_search_about_irreducibility():
    # irreducibility is one more question for find_positive_product_word,
    # not a second positivity closure
    tree = ast.parse((PACKAGE / "classify.py").read_text())
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "_markov_irreducible" not in defined
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert "boolean_product" not in imported


@pytest.mark.parametrize("module", MODULES + ["__init__"])
def test_no_module_draws_raw_seed_state(module):
    # seeds split by model.child_seeds, whose children are passed on whole
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    called = {
        node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }
    assert "generate_state" not in called


def test_one_simulator():
    # the lockstep trial kernel is the only simulator: no per-trajectory
    # simulator, its result type or its per-law sum of draws remains
    defined = {
        node.name
        for module in MODULES + ["__init__"]
        for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text()))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    # and one trial pass, survival_estimate, stands in for the old wrappers
    wrappers = {"survival_probability_mc", "survival_and_growth", "growth_rate_conditioned"}
    assert not defined & ({"simulate_generations", "SimulationResult", "sample_sum"} | wrappers)
    import mbpre

    assert not ({"simulate_generations", "SimulationResult"} | wrappers) & set(mbpre.__all__)
    assert {"survival_estimate", "SurvivalEstimate"} <= set(mbpre.__all__)


def test_no_carpet_model_wrapper():
    # build_carpet_model returns the ModelSpec; no wrapper type remains
    tree = ast.parse((PACKAGE / "carpet.py").read_text())
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    assert "CarpetModel" not in defined
    import mbpre

    assert "CarpetModel" not in mbpre.__all__


@pytest.mark.parametrize("module", MODULES + ["__init__"])
def test_no_dispatch_on_model_type(module):
    # each entry point takes one input form, so none asks whether it got a model
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "isinstance"
        and len(node.args) == 2
        and any(getattr(n, "id", None) == "ModelSpec" for n in ast.walk(node.args[1]))
    ]
    assert found == []


@pytest.mark.parametrize("module", [m for m in MODULES + ["__init__"] if m != "model"])
def test_environment_kinds_are_named_only_in_model(module):
    # every other module reads an environment through its properties
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in ("iid", "markov")
    ]
    assert found == []


def _module_tree(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def test_positive_word_search_has_no_length_cap():
    # the state budget is the search's one bound
    params = {
        p.arg
        for module in MODULES + ["__init__"]
        for node in ast.walk(_module_tree(module))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for p in [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]
    }
    assert "max_word_len" not in params


def test_one_95_percent_quantile():
    # model assigns the quantile once; the interval estimators read it there
    holders = {
        module: [
            target.id
            for node in ast.walk(_module_tree(module))
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant)
            and node.value.value == 1.96
            for target in node.targets
        ]
        for module in MODULES + ["__init__"]
    }
    assert {m: names for m, names in holders.items() if names} == {"model": ["Z95"]}
    for module in ("lyapunov", "extinction"):
        tree = _module_tree(module)
        literals = [n for n in ast.walk(tree) if isinstance(n, ast.Constant) and n.value == 1.96]
        from_model = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "model"
            for alias in node.names
        }
        assert literals == [] and from_model & {"Z95", "mean_half_width"}, module


def test_matcore_holds_only_the_positivity_hypotheses():
    # the reductions, patterns and products are numpy expressions at their
    # call sites, and lyapunov picks a kind's reduction from one axis table
    aliases = {
        "norm_sum", "col_min", "row_min", "is_allowable",
        "positivity_pattern", "boolean_product", "product_along_word",
    }
    defined = {
        name
        for module in MODULES + ["__init__"]
        for node in ast.walk(_module_tree(module))
        for name in (
            [node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            else [t.id for t in getattr(node, "targets", []) if isinstance(t, ast.Name)]
        )
    }
    assert not defined & (aliases | {"_REDUCTIONS"})
    import mbpre

    assert not aliases & set(mbpre.__all__)
    public = {
        node.name
        for node in _module_tree("matcore").body
        if isinstance(node, ast.FunctionDef) and not _private(node.name)
    }
    assert public == {"allowability_offenders", "find_positive_product_word"}


def _dataclass_appliers(module):
    """The top-level class (or None) around each decorator or call that applies ``dataclass``."""
    found = []
    for top in _module_tree(module).body:
        for node in ast.walk(top):
            decorators = getattr(node, "decorator_list", [])
            calls = [node.func] if isinstance(node, ast.Call) else []
            for target in decorators + calls:
                name = getattr(target, "attr", getattr(target, "id", None))
                if name == "dataclass":
                    found.append(top.name if isinstance(top, ast.ClassDef) else None)
    return found


def test_only_the_record_base_applies_dataclass():
    # every record derives from model.Record, which builds no method per class
    appliers = {m: _dataclass_appliers(m) for m in MODULES + ["__init__"]}
    assert {m: found for m, found in appliers.items() if found} == {"model": ["Record"]}


def test_importing_the_package_compiles_no_dataclass_method():
    # the child counts the methods dataclasses compiles: none for mbpre's
    # records, and some for one frozen dataclass made after them
    code = (
        "import dataclasses, importlib, json\n"
        "made = []\n"
        "owner = getattr(dataclasses, '_FuncBuilder', dataclasses)\n"
        "name = 'add_fn' if owner is not dataclasses else '_create_fn'\n"
        "real = getattr(owner, name)\n"
        "def counted(*args, **kwargs):\n"
        "    made.append(1)\n"
        "    return real(*args, **kwargs)\n"
        "setattr(owner, name, counted)\n"
        f"for module in {MODULES!r}:\n"
        "    importlib.import_module('mbpre.' + module)\n"
        "ours = len(made)\n"
        "dataclasses.make_dataclass('Probe', ['x'], frozen=True)\n"
        "print(json.dumps([ours, len(made) - ours]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    ours, probe = json.loads(proc.stdout)
    assert (ours, probe > 0) == (0, True)
