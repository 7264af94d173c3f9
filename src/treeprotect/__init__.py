"""Protection numbers of random plane trees, computed three independent ways.

The protection number of a vertex is its distance to the nearest leaf of
its own subtree.  This package computes the distribution of that number
for the root (X) and for a uniformly chosen vertex (Y) of a uniformly
chosen n-vertex plane tree, by exhaustive enumeration, by exact
generating-function arithmetic, and by asymptotic expansion, and checks
the three against each other.
"""

from .asymptotics import (
    CONSTANT_NAMES,
    AsymptoticValue,
    ConstantEnclosure,
    asym_moments_X,
    asym_moments_Y,
    asym_P_X_ge,
    asym_P_Y_ge,
    constant,
    limit_pmf_X,
    limit_pmf_Y,
)
from .exact import (
    DistributionTable,
    catalan,
    central_binomials,
    dist_X_exact,
    dist_Y_exact,
    mean_X_exact,
    mean_Y_exact,
    r_explicit,
    r_survival_column,
    root_protection_totals,
    s_explicit,
    series_R0,
    series_R_ge_k_closed,
    series_R_ge_k_recurrence,
    series_S_ge_k,
    series_invsqrt,
    survival_X_exact,
    survival_Y_exact,
)
from .mellin import (
    MellinEval,
    check_F_functional_eq,
    check_G_functional_eq,
    eval_F,
    eval_G,
    mean_constant_from_F,
    reflection_term_F,
    reflection_term_G,
    second_moment_constant_from_G,
)
from .sampler import RNG_ALGORITHM, SampleStats, estimate_survival, make_rng, sample_tree
from .series import TruncatedPowerSeries
from .trees import (
    PlaneTree,
    ProtectionProfile,
    enumerate_trees,
    leaf_count,
    oracle_r,
    oracle_s,
    protection_number,
    protection_profile,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticValue",
    "CONSTANT_NAMES",
    "ConstantEnclosure",
    "DistributionTable",
    "MellinEval",
    "PlaneTree",
    "ProtectionProfile",
    "RNG_ALGORITHM",
    "SampleStats",
    "TruncatedPowerSeries",
    "asym_P_X_ge",
    "asym_P_Y_ge",
    "asym_moments_X",
    "asym_moments_Y",
    "catalan",
    "central_binomials",
    "check_F_functional_eq",
    "check_G_functional_eq",
    "constant",
    "dist_X_exact",
    "dist_Y_exact",
    "enumerate_trees",
    "estimate_survival",
    "eval_F",
    "eval_G",
    "leaf_count",
    "limit_pmf_X",
    "limit_pmf_Y",
    "make_rng",
    "mean_X_exact",
    "mean_Y_exact",
    "mean_constant_from_F",
    "oracle_r",
    "oracle_s",
    "protection_number",
    "protection_profile",
    "r_explicit",
    "r_survival_column",
    "reflection_term_F",
    "reflection_term_G",
    "root_protection_totals",
    "s_explicit",
    "sample_tree",
    "second_moment_constant_from_G",
    "series_R0",
    "series_R_ge_k_closed",
    "series_R_ge_k_recurrence",
    "series_S_ge_k",
    "series_invsqrt",
    "survival_X_exact",
    "survival_Y_exact",
]
