"""The arithmetic kernels that the rest of the package calls.

A re-export of the pure-Python kernels in ``_corepy``.  Callers go through
this module rather than ``_corepy`` so that a caller's kernel calls can be
replaced or traced here without touching ``_corepy``'s calls to itself.
"""

from ._corepy import (Packing, addmod, basis_images, coprime, digits,
                      eval_all, from_digits, identity_cols, invmod, matvec,
                      matvec_split, mulmod, next_frobenius_cols, submod)

__all__ = ["Packing", "addmod", "basis_images", "coprime", "digits",
           "eval_all", "from_digits", "identity_cols", "invmod", "matvec",
           "matvec_split", "mulmod", "next_frobenius_cols", "submod"]
