"""The arithmetic kernels that the rest of the package calls.

A re-export of the pure-Python kernels in ``_corepy``.  Callers go through
this module rather than ``_corepy`` so that a caller's kernel calls can be
replaced or traced here without touching ``_corepy``'s calls to itself.
"""

from ._corepy import (BACKEND, addmod, eval_all, matvec, mulmod, negmod,
                      submod)

__all__ = ["BACKEND", "addmod", "eval_all", "matvec", "mulmod", "negmod",
           "submod"]
