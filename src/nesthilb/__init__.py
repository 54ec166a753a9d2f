"""Exact tangent spaces, resolutions and strata for nested Hilbert schemes of points."""

from .linalg import DEFAULT_PRIME, FieldSpec, Mat, QQ
from .ring import HomogeneousElement, RingCtx, mult_map, variable_action_matrices
from .ideals import (FiniteGradedModule, HilbertFunction, HomogeneousIdeal,
                     Nesting, family_8points, family_I1, family_I2, family_J,
                     family_delta, family_twisted_cubic_cone,
                     generic_ideal_with_hilbert_function, ideal_from_generators,
                     power_of_max_ideal, quotient_module, subquotient_module)
from .resolutions import (BettiTable, betti_table, has_linear_syzygies,
                          minimal_generators)
from .tangent import (TangentReport, graded_hom_dims, hom_dim_via_syzygies,
                      nested_tangent_graded, sandwich_identity_check,
                      sandwich_insert, tangent_graded, theta_rank, tnt_check)
from .strata import (CensusRecord, GapReport, census, census_csv,
                     compressed_1n2_dim, gap, gap_formula, reduce_to_embedding_dim,
                     nested_stratum_dim_1s_1n2, nonreducedness_certificate,
                     smoothable_dim, thmC_report, two_step_stratum_dim)
from .parsing import parse_ideal_spec, parse_nesting_spec, parse_polynomial

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_PRIME", "FieldSpec", "Mat", "QQ",
    "HomogeneousElement", "RingCtx", "mult_map", "variable_action_matrices",
    "FiniteGradedModule", "HilbertFunction", "HomogeneousIdeal", "Nesting",
    "family_8points", "family_I1", "family_I2", "family_J", "family_delta",
    "family_twisted_cubic_cone", "generic_ideal_with_hilbert_function",
    "ideal_from_generators", "power_of_max_ideal", "quotient_module",
    "subquotient_module",
    "BettiTable", "betti_table", "has_linear_syzygies", "minimal_generators",
    "TangentReport", "graded_hom_dims", "hom_dim_via_syzygies",
    "nested_tangent_graded", "sandwich_identity_check", "sandwich_insert",
    "tangent_graded", "theta_rank", "tnt_check",
    "CensusRecord", "GapReport", "census", "census_csv", "compressed_1n2_dim",
    "gap", "gap_formula", "reduce_to_embedding_dim", "nested_stratum_dim_1s_1n2",
    "nonreducedness_certificate", "smoothable_dim", "thmC_report",
    "two_step_stratum_dim",
    "parse_ideal_spec", "parse_nesting_spec", "parse_polynomial",
]
