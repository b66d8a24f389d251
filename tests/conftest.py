import json
import os
from pathlib import Path

import numpy as np
import pytest

from mbpre import (
    EnvironmentLetter,
    IidEnvironment,
    ModelSpec,
    OffspringLaw,
    build_carpet_model,
    write_model,
)
from mbpre.model import model_to_dict

ROOT = Path(__file__).resolve().parents[1]

# one line per acceptance criterion, printed after the run
ACCEPTANCE_LINES = []


def child_env():
    """This process's environment with the repository's ``src`` first on PYTHONPATH.

    A child interpreter started with it imports this source tree, whether
    or not the package is installed or PYTHONPATH is set.
    """
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def model_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("models")
    for name, p in (("carpet_p1", 1.0), ("carpet_p04", 0.4), ("carpet_p015", 0.15)):
        (d / f"{name}.json").write_text(write_model(build_carpet_model(p)))
    return d


@pytest.fixture(scope="session")
def carpet_p1_file(model_dir):
    return str(model_dir / "carpet_p1.json")


@pytest.fixture(scope="session")
def carpet_p04_file(model_dir):
    return str(model_dir / "carpet_p04.json")


@pytest.fixture(scope="session")
def carpet_p015_file(model_dir):
    return str(model_dir / "carpet_p015.json")


def make_decoupled_model(p_zero=0.25):
    """Two independent single-type lines: each type bears 0 or 2 of itself."""
    law0 = OffspringLaw.from_pairs([((0, 0), p_zero), ((2, 0), 1.0 - p_zero)])
    law1 = OffspringLaw.from_pairs([((0, 0), p_zero), ((0, 2), 1.0 - p_zero)])
    letter = EnvironmentLetter("only", (law0, law1))
    return ModelSpec(2, (letter,), IidEnvironment(np.array([1.0])))


@pytest.fixture(scope="session")
def decoupled_supercritical():
    return make_decoupled_model(0.25)


@pytest.fixture(scope="session")
def decoupled_subcritical():
    return make_decoupled_model(0.75)


def make_point_mass_model(vector_by_type):
    """Every law a point mass; deterministic generation recursion."""
    n = len(vector_by_type)
    laws = tuple(OffspringLaw.from_pairs([(tuple(v), 1.0)]) for v in vector_by_type)
    return ModelSpec(n, (EnvironmentLetter("only", laws),), IidEnvironment(np.array([1.0])))


@pytest.fixture(scope="session")
def die_out_model():
    return make_point_mass_model([(0, 0), (0, 0)])


@pytest.fixture(scope="session")
def deterministic_line_model():
    return make_point_mass_model([(1, 0), (0, 1)])


def make_wide_table_model():
    """One 20000-atom law and 199 one-atom letters, uniform i.i.d.

    Its model file, on one line, is 0.63 MB, but every law padded to 20000
    atoms makes a 192 MB pgf table. Every expectation matrix is positive.
    """
    one = OffspringLaw.from_pairs([((1, 1), 1.0)])
    wide = OffspringLaw(
        np.column_stack([np.arange(20000), np.ones(20000, dtype=np.int64)]),
        np.full(20000, 1 / 20000),
    )
    letters = [EnvironmentLetter("wide", (wide, one))]
    letters += [EnvironmentLetter(f"one{j}", (one, one)) for j in range(199)]
    return ModelSpec(2, tuple(letters), IidEnvironment(np.full(200, 1 / 200)))


@pytest.fixture(scope="session")
def wide_table_file(model_dir):
    path = model_dir / "wide_table.json"
    path.write_text(json.dumps(model_to_dict(make_wide_table_model())))
    return str(path)
