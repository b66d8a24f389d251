"""API hygiene, read from the source trees with ``ast``; nothing here runs a demo."""

import ast
import importlib
from pathlib import Path

import pytest

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
    assert "SeedSequence" not in called


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
