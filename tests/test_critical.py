"""The carpet's critical bisection and the Ulam values it stores."""

import json
import subprocess
import sys

import numpy as np
import pytest
from conftest import child_env

from mbpre import IidEnvironment, exponent_two_types
from mbpre import critical
from mbpre.carpet import COLUMN_MATRICES
from mbpre.critical import bisect_critical

UNIFORM3 = IidEnvironment(np.array([1.0, 1.0, 1.0]) / 3)


@pytest.fixture(scope="module")
def recomputed():
    return tuple(
        exponent_two_types(COLUMN_MATRICES, UNIFORM3, cells) for cells in critical._ULAM_CELLS
    )


def test_stored_values_are_ulams(recomputed):
    for stored, value in zip(critical._ULAM_LAMBDA_B, recomputed):
        assert abs(stored - value) <= 1e-15 * stored


@pytest.mark.parametrize("iterations", [1, 4, 12, 60])
def test_recomputed_values_give_the_stored_bracket(monkeypatch, recomputed, iterations):
    bracket = bisect_critical(iterations=iterations)
    monkeypatch.setattr(critical, "_ULAM_LAMBDA_B", recomputed)
    assert bisect_critical(iterations=iterations) == bracket


def test_default_bracket():
    # 12 halvings of [0.05, 0.95], each midpoint exactly rounded; the
    # closest decision, log(mid) + lambda_B = -1.0e-4 at mid = 0.37783203125,
    # is some 10^11 ulps from 0, so no rounding of lambda_B can flip one
    assert bisect_critical(iterations=12) == (0.37783203125, 0.3780517578125)


def test_package_bisection_loads_no_numpy():
    code = (
        "import json, sys\n"
        "import mbpre\n"
        "bracket = mbpre.bisect_critical(iterations=12)\n"
        "print(json.dumps([bracket, 'numpy' in sys.modules]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [list(bisect_critical(iterations=12)), False]
