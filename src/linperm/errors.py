"""Exception types shared across the package."""


class ContextMismatchError(ValueError):
    """Operands belong to different field contexts."""


class CapacityError(ValueError):
    """Exhaustive operation requested beyond the field-order cap."""


class SingularMatrixError(ArithmeticError):
    """Matrix inverse requested for a singular matrix."""


class NotAPermutationError(ArithmeticError):
    """Closed-form or special-form inverse requested for a binomial that
    does not permute the field, that is, whose criterion value
    (-1)^(n/d) * N(a) is 1."""


class UnsupportedShapeError(ValueError):
    """Binomial parameters match no special-case inverse formula."""
