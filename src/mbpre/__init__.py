"""Multitype branching processes in random environments.

Growth exponents of random products of non-negative expectation matrices,
extinction vectors by backward pgf composition, survival classification,
executable inequality oracles, and the random Sierpinski carpet
diagonal-projection application.

The public names below load their module on first use, so importing the
package (as ``mbpre --version`` does) costs neither numpy nor the modules a
caller never touches.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

_EXPORTS = {
    "carpet": (
        "OffspringStats",
        "SquareSet",
        "build_carpet_model",
        "critical_p",
        "empirical_offspring_stats",
        "lambda_b",
        "projection_measure",
        "sample_carpet",
        "sample_projection_measures",
    ),
    "classify": ("ConditionReport", "Verdict", "check_conditions", "classify"),
    "critical": ("bisect_critical",),
    "errors": (
        "BudgetError",
        "DegenerateProductError",
        "InvariantError",
        "ModelFormatError",
        "NoSurvivorsError",
        "NotAllowableError",
    ),
    "extinction": (
        "ExtinctionVector",
        "SurvivalEstimate",
        "annealed_extinction",
        "extinction_converged",
        "extinction_fixed_env",
        "survival_estimate",
    ),
    "lyapunov": (
        "LyapunovEstimate", "estimate_exponent", "exponent_along_word", "exponent_two_types",
    ),
    "matcore": ("find_positive_product_word",),
    "model": (
        "EnvironmentLetter",
        "IidEnvironment",
        "MarkovEnvironment",
        "ModelSpec",
        "OffspringLaw",
        "parse_model",
        "second_moment_bound",
        "uniform_allowability_alpha",
        "write_model",
    ),
    "proofkit": (
        "OracleReport",
        "ProofParams",
        "build_proof_params",
        "g_eval",
        "h_eval",
        "oracle_suite",
        "phi",
        "psi",
        "shrunk_matrices",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


class _Package(types.ModuleType):
    """Keeps an exported name when a submodule of the same name loads.

    Importing ``mbpre.classify`` binds the submodule as the package
    attribute ``classify``; the exported name is the function, so that
    binding is dropped and ``mbpre.classify`` resolves to the function.
    """

    def __setattr__(self, name, value):
        if name in _HOME and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
