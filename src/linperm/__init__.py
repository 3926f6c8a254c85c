"""Exact arithmetic for linearized permutation binomials over finite fields.

Build a field with :func:`field_ctx`, describe a binomial x^(q^r) + a*x with
:class:`BinomialSpec`, test it with :func:`is_permutation_binomial` or the
Dickson determinant, invert it with :func:`inverse_binomial` (closed form)
or :func:`inverse_dickson` (matrix method), and cross-check everything
exhaustively through the :mod:`linperm.oracle` module.
"""

from .binomial import (BinomialSpec, inverse_binomial, inverse_special,
                       is_permutation_binomial, lift)
from .errors import (CapacityError, ContextMismatchError, NotAPermutationError,
                     SingularMatrixError, UnsupportedShapeError)
from .ffield import (FieldCtx, FieldElem, embed_subfield, field_ctx,
                     find_irreducible)
from .linpoly import (DicksonMatrix, LinearizedPoly, inverse_dickson,
                      is_permutation_dickson)
from .oracle import (SweepConfig, SweepReport, brute_is_permutation, sweep,
                     verify_inverse)

__version__ = "0.1.0"


def kernel_backend() -> str:
    """Name of the arithmetic kernel backend, kept for run reports.

    The pure-Python kernels in ``_corepy`` are the only backend, so this is
    always "python".
    """
    return "python"


__all__ = [
    "BinomialSpec", "CapacityError", "ContextMismatchError", "DicksonMatrix",
    "FieldCtx", "FieldElem", "LinearizedPoly", "NotAPermutationError",
    "SingularMatrixError", "SweepConfig", "SweepReport",
    "UnsupportedShapeError", "brute_is_permutation", "embed_subfield",
    "field_ctx", "find_irreducible", "inverse_binomial", "inverse_dickson",
    "inverse_special", "is_permutation_binomial", "is_permutation_dickson",
    "kernel_backend", "lift", "sweep", "verify_inverse",
]
