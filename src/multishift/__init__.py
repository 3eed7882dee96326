"""Exact-arithmetic toolkit for shift spaces with forbidden words and
repeated words (multigraph edge shifts): weighted word counting,
generating functions via overlap correlations, certified Perron data,
and maximal-entropy measures.  The namespace holds the documented
surface; everything else is reached through its own module.
"""

__version__ = "1.0.0"

from .errors import (BudgetError, EmptyShiftError, MultishiftError, NumericError,
                     RootBracketError, RouteMismatchError, SingularMatrixError, SpecError)
from .langmodel import enumerate_slice, language_slices, spec_from_matrix, validate_spec
from .genfun import solve_generating_functions
from .spectral import (Analysis, adjacency_matrix, eigenvector_normalization, entropy,
                       is_irreducible, perron_root, perron_vectors)
from .measures import MeasureContext, escape_report

__all__ = [
    # the library example
    "Analysis", "MeasureContext", "enumerate_slice", "validate_spec",
    # one stage for a bare spec
    "eigenvector_normalization", "entropy", "escape_report", "language_slices",
    "perron_root", "perron_vectors", "solve_generating_functions", "spec_from_matrix",
    # the block graph of a spec
    "adjacency_matrix", "is_irreducible",
    # errors
    "BudgetError", "EmptyShiftError", "MultishiftError", "NumericError",
    "RootBracketError", "RouteMismatchError", "SingularMatrixError", "SpecError",
]
