"""Multitype branching processes in random environments.

Growth exponents of random products of non-negative expectation matrices,
extinction vectors by backward pgf composition, survival classification,
executable inequality oracles, and the random Sierpinski carpet
diagonal-projection application.
"""

__version__ = "0.1.0"

from .carpet import (
    CarpetModel,
    OffspringStats,
    SquareSet,
    build_carpet_model,
    critical_p,
    empirical_offspring_stats,
    lambda_b,
    projection_intervals,
    projection_measure,
    sample_carpet,
)
from .classify import ConditionReport, Verdict, check_conditions, classify
from .errors import (
    BudgetError,
    DegenerateProductError,
    InvariantError,
    ModelFormatError,
    NoSurvivorsError,
    NotAllowableError,
)
from .extinction import (
    ExtinctionVector,
    SimulationResult,
    annealed_extinction,
    extinction_converged,
    extinction_fixed_env,
    growth_rate_conditioned,
    simulate_generations,
    survival_and_growth,
    survival_probability_mc,
)
from .lyapunov import LyapunovEstimate, estimate_exponent, exponent_along_word
from .matcore import (
    col_min,
    find_positive_product_word,
    is_allowable,
    norm_sum,
    positivity_pattern,
    product_along_word,
    row_min,
)
from .model import (
    EnvironmentLetter,
    IidEnvironment,
    MarkovEnvironment,
    ModelSpec,
    OffspringLaw,
    cylinder_probability,
    parse_model,
    second_moment_bound,
    uniform_allowability_alpha,
    write_model,
)
from .proofkit import (
    OracleReport,
    ProofParams,
    build_proof_params,
    g_eval,
    h_eval,
    oracle_suite,
    phi,
    psi,
    shrunk_matrices,
)
