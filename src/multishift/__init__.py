"""Exact-arithmetic toolkit for shift spaces with forbidden words and
repeated words (multigraph edge shifts): weighted word counting,
generating functions via overlap correlations, certified Perron data,
and maximal-entropy measures.
"""

__version__ = "1.0.0"

from .errors import (BudgetError, EmptyShiftError, MultishiftError, NumericError,
                     PoleError, RootBracketError, RouteMismatchError,
                     SingularMatrixError, SpecError)
from .langmodel import (LanguageSlice, ShiftSpec, enumerate_slice,
                        extend_repeated_to_full_length, language_slices,
                        leading_multiplicity, multiplicity, spec_from_matrix, validate_spec,
                        weighted_count, weighted_count_ending_with,
                        weighted_count_forbidden_suffix)
from .ratfield import (Poly, RatFun, RatMat, RootCertificate, largest_real_zero,
                       series_coeffs)
from .spectral import (AdjMatrix, Analysis, adjacency_matrix, entropy, is_irreducible,
                       multiplicity_matrix, multiplicity_one_witness, perron_root,
                       perron_vectors, power_iteration)
from .measures import (Cylinder, MeasureContext, StochMat, cylinder_measure,
                       escape_report, lift_rational_stochastic, project_edges,
                       shannon_parry_matrix)

__all__ = [name for name in dir() if not name.startswith("_")]
