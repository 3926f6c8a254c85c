"""Permutation tests, closed-form inverses, and lifting for x^(q^r) + a*x.

For d = gcd(n, r), the binomial permutes GF(q^n) exactly when
(-1)^(n/d) * N(a) != 1, where N is the relative norm onto GF(q^d).  When it
does, the compositional inverse is

    N(a) / (N(a) + (-1)^(n/d - 1))
        * sum((-1)^i * a^-(1 + q^r + ... + q^(i*r)) * x^(q^(i*r)), i < n/d)

with exponents of x reduced modulo q^n.  The alternating coefficients are
built as a running chain of conjugates of 1/a, one Frobenius and one
multiply per term, so no big-integer exponent appears.
"""

from __future__ import annotations

import math

from .errors import NotAPermutationError, UnsupportedShapeError
from .ffield import FieldCtx, FieldElem, embed_subfield
from .linpoly import LinearizedPoly


class BinomialSpec:
    """The pair (a, r) defining x^(q^r) + a*x, with d = gcd(n, r) cached."""

    __slots__ = ("a", "r", "d")

    def __init__(self, a: FieldElem, r: int):
        n = a.ctx.n
        if not isinstance(r, int) or not 1 <= r <= n - 1:
            raise ValueError(f"r={r} outside [1, {n - 1}]")
        self.a = a
        self.r = r
        self.d = math.gcd(n, r)

    @property
    def ctx(self) -> FieldCtx:
        return self.a.ctx

    def poly(self) -> LinearizedPoly:
        ctx = self.ctx
        coeffs = [ctx.zero] * ctx.n
        coeffs[0] = self.a
        coeffs[self.r] = ctx.one
        return LinearizedPoly(ctx, coeffs)

    def __repr__(self):
        return f"BinomialSpec(a={self.a.to_int()}, r={self.r} over {self.ctx!r})"


def _sign(ctx: FieldCtx, k: int) -> FieldElem:
    """(-1)^k as a field element; collapses to 1 in characteristic 2."""
    return ctx.one if k % 2 == 0 else -ctx.one


def criterion_value(spec: BinomialSpec) -> FieldElem:
    """(-1)^(n/d) * N(a); the binomial permutes iff this differs from 1."""
    nd = spec.ctx.n // spec.d
    return _sign(spec.ctx, nd) * spec.a.norm_rel(spec.d)


def is_permutation_binomial(spec: BinomialSpec) -> bool:
    """Norm criterion for the binomial, via a Frobenius-product norm.

    Also checks that the vanishing of the inverse's denominator
    N(a) + (-1)^(n/d - 1) coincides with the criterion failing; the two are
    algebraically equivalent and are asserted to agree on every call.
    """
    ctx = spec.ctx
    nd = ctx.n // spec.d
    nor = spec.a.norm_rel(spec.d)
    perm = _sign(ctx, nd) * nor != ctx.one
    denominator = nor + _sign(ctx, nd - 1)
    if bool(denominator) != perm:
        raise AssertionError("denominator test disagrees with norm criterion")
    return perm


def geometric_power(a: FieldElem, r: int, i: int) -> FieldElem:
    """The conjugate product a^(1 + q^r + ... + q^(i*r)).

    Equals a^((q^((i+1)r) - 1) / (q^r - 1)); at i = n/d - 1 it is the full
    relative norm onto GF(q^d).
    """
    ctx = a.ctx
    if not a:
        raise ZeroDivisionError("conjugate products of 0 are degenerate")
    if not 1 <= r <= ctx.n - 1:
        raise ValueError(f"r={r} outside [1, {ctx.n - 1}]")
    d = math.gcd(ctx.n, r)
    if not 0 <= i <= ctx.n // d - 1:
        raise ValueError(f"i={i} outside [0, {ctx.n // d - 1}]")
    acc = a
    y = a
    for _ in range(i):
        y = y.frobenius(ctx.e * r)
        acc = acc * y
    return acc


def inverse_binomial(spec: BinomialSpec) -> LinearizedPoly:
    """Closed-form compositional inverse of x^(q^r) + a*x.

    For a = 0 the binomial degenerates to the monomial x^(q^r), whose
    inverse is x^(q^(n-r)).  Otherwise slot (i*r mod n) receives
    front * (-1)^i * (1/a)^(1 + q^r + ... + q^(i*r)) built incrementally,
    with front = N(a) / (N(a) + (-1)^(n/d - 1)).
    """
    ctx = spec.ctx
    n, e, r, d = ctx.n, ctx.e, spec.r, spec.d
    if not spec.a:
        return LinearizedPoly.monomial(ctx, (n - r) % n)
    nd = n // d
    nor = spec.a.norm_rel(d)
    denominator = nor + _sign(ctx, nd - 1)
    if not denominator:
        raise NotAPermutationError(
            "binomial does not permute the field: criterion value is 1",
            criterion_value=criterion_value(spec))
    front = nor * denominator.inv()
    ainv = spec.a.inv()
    coeffs = [ctx.zero] * n
    g = ainv
    y = ainv
    for i in range(nd):
        if i:
            y = y.frobenius(e * r)
            g = g * y
        term = front * g
        coeffs[(i * r) % n] = term if i % 2 == 0 else -term
    return LinearizedPoly(ctx, coeffs)


# dispatch tags for the special-case formulas
SHAPE_R_ONE = "r_one"
SHAPE_COPRIME = "coprime"
SHAPE_HALF = "half"


def _shapes(spec: BinomialSpec) -> list[str]:
    shapes = []
    n = spec.ctx.n
    if spec.r == 1:
        shapes.append(SHAPE_R_ONE)
    if n % 2 == 0 and spec.r == n // 2:
        shapes.append(SHAPE_HALF)
    if spec.d == 1:
        shapes.append(SHAPE_COPRIME)
    return shapes


def inverse_special(spec: BinomialSpec, which: str | None = None) -> LinearizedPoly:
    """Special-case inverse formulas for r = 1, gcd(r, n) = 1, or r = n/2.

    A deliberately independent evaluation path: norms and coefficient powers
    are computed by square-and-multiply with explicit integer exponents, not
    by the Frobenius chains of :func:`inverse_binomial`.  The result must be
    coefficientwise equal to the general formula whenever a shape applies.
    """
    ctx = spec.ctx
    n, r = ctx.n, spec.r
    q = ctx.q
    applicable = _shapes(spec)
    if which is None:
        if not applicable:
            raise UnsupportedShapeError(
                f"r={r}, n={n} fits none of the special forms")
        which = applicable[0]
    elif which not in (SHAPE_R_ONE, SHAPE_COPRIME, SHAPE_HALF):
        raise ValueError(f"unknown shape tag {which!r}")
    elif which not in applicable:
        raise UnsupportedShapeError(f"r={r}, n={n} does not fit shape {which!r}")

    a = spec.a
    if not a:
        return LinearizedPoly.monomial(ctx, (n - r) % n)

    if which == SHAPE_HALF:
        h = n // 2
        b = a ** (q**h)
        denominator = b * a - ctx.one
        if not denominator:
            raise NotAPermutationError(
                "binomial does not permute the field: a^(q^(n/2)+1) = 1",
                criterion_value=criterion_value(spec))
        dinv = denominator.inv()
        coeffs = [ctx.zero] * n
        coeffs[0] = b * dinv
        coeffs[h] = -dinv
        return LinearizedPoly(ctx, coeffs)

    # r = 1 and gcd(r, n) = 1 share one alternating-sum formula, with the
    # exponent base q for r = 1 and q^r in the coprime case.
    base = q if which == SHAPE_R_ONE else q**r
    nor = a ** ((q**n - 1) // (q - 1))
    denominator = nor + _sign(ctx, n - 1)
    if not denominator:
        raise NotAPermutationError(
            "binomial does not permute the field: (-1)^n N(a) = 1",
            criterion_value=criterion_value(spec))
    front = nor * denominator.inv()
    coeffs = [ctx.zero] * n
    for i in range(n):
        exponent = (base ** (i + 1) - 1) // (base - 1)
        term = front * a ** (-exponent)
        coeffs[(i * r) % n] = term if i % 2 == 0 else -term
    return LinearizedPoly(ctx, coeffs)


def check_lift_factor(t: int, n: int) -> None:
    """Raise ValueError unless ``t`` is a positive integer coprime to n.

    Cheap, so callers run it before building the big field GF(q^(t*n)).
    """
    if not isinstance(t, int) or t < 1:
        raise ValueError(f"t={t} must be a positive integer")
    if math.gcd(t, n) != 1:
        raise ValueError(f"t={t} is not coprime to n={n}")


def lift(L: LinearizedPoly, t: int, big: FieldCtx) -> LinearizedPoly:
    """Transplant L over GF(q^n) to GF(qbar^n) with qbar = q^t, gcd(t, n) = 1.

    Slot i of the result is the embedding of a_(t*i mod n); the lifted
    polynomial agrees with L on the embedded copy of GF(q^n), and permutes
    the big field whenever L permutes the small one.
    """
    small = L.ctx
    n = small.n
    check_lift_factor(t, n)
    if big.p != small.p or big.n != n or big.e != small.e * t:
        raise ValueError(
            f"big context must be (p={small.p}, e={small.e * t}, n={n}), "
            f"got (p={big.p}, e={big.e}, n={big.n})")
    coeffs = [embed_subfield(L.coeffs[(t * i) % n], big) for i in range(n)]
    return LinearizedPoly(big, coeffs)
