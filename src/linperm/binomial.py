"""Permutation tests, closed-form inverses, and lifting for x^(q^r) + a*x.

For d = gcd(n, r), the binomial permutes GF(q^n) exactly when
(-1)^(n/d) * N(a) != 1, where N is the relative norm onto GF(q^d).  When it
does, the compositional inverse is

    N(a) / delta
        * sum((-1)^i * a^-(1 + q^r + ... + q^(i*r)) * x^(q^(i*r)), i < n/d)

with delta = N(a) + (-1)^(n/d - 1), exponents of x reduced modulo q^n.  As
j*r mod n, j < n/d, runs over the multiples of d, the conjugates a^(q^(j*r))
multiply to N(a), so coefficient i is (-1)^i / delta times those with j > i:
one descending chain of products over the orbit of a, which inverts delta
alone.
"""

from __future__ import annotations

import functools
import math

from . import _kernel
from .errors import NotAPermutationError, UnsupportedShapeError
from .ffield import FieldCtx, FieldElem, _expect, embed_subfield
from .linpoly import LinearizedPoly, _poly


class BinomialSpec:
    """The pair (a, r) defining x^(q^r) + a*x, with d = gcd(n, r), the
    norm N(a) onto GF(q^d) (computed on first read, then kept) and
    delta = N(a) + (-1)^(n/d - 1) (recomputed from it on each read)."""

    def __init__(self, a: FieldElem, r: int):
        n = _expect(a, FieldElem, "a field element").ctx.n
        if not isinstance(r, int) or not 1 <= r <= n - 1:
            raise ValueError(f"r={r} outside [1, {n - 1}]")
        self.a = a
        self.r = r
        self.d = math.gcd(n, r)

    @functools.cached_property
    def norm(self) -> FieldElem:
        return self.a.norm_rel(self.d)

    @property
    def delta(self) -> FieldElem:
        return self.norm + _sign(self.ctx, self.ctx.n // self.d - 1)

    @property
    def ctx(self) -> FieldCtx:
        return self.a.ctx

    def poly(self) -> LinearizedPoly:
        ctx = self.ctx
        packed = [0] * ctx.n
        packed[0], packed[self.r] = self.a.packed, 1
        return LinearizedPoly._of(ctx, tuple(packed))

    def __repr__(self):
        return f"BinomialSpec(a={self.a.to_int()}, r={self.r} over {self.ctx!r})"


def _sign(ctx: FieldCtx, k: int) -> FieldElem:
    """(-1)^k as a field element; collapses to 1 in characteristic 2."""
    return ctx.one if k % 2 == 0 else -ctx.one


def is_permutation_binomial(spec: BinomialSpec) -> bool:
    """Norm criterion (-1)^(n/d) * N(a) != 1 on ``spec.norm``.

    Also checks that the vanishing of the inverse's denominator
    ``spec.delta`` coincides with the criterion failing; the two are
    algebraically equivalent and are asserted to agree on every call.
    """
    ctx = spec.ctx
    perm = _sign(ctx, ctx.n // spec.d) * spec.norm != ctx.one
    if bool(spec.delta) != perm:
        raise AssertionError("denominator test disagrees with norm criterion")
    return perm


def inverse_binomial(spec: BinomialSpec) -> LinearizedPoly:
    """Closed-form compositional inverse of x^(q^r) + a*x.

    For a = 0 the binomial degenerates to the monomial x^(q^r), whose
    inverse is x^(q^(n-r)).  Otherwise slot (i*r mod n) receives
    (-1)^i * u_i, where u_(n/d-1) = 1/delta and u_(i-1) = u_i * y_i with
    y_i = a^(q^(i*r)), conjugate i*r mod n of a's orbit, taken once.  The
    chain runs on the packed ints of :meth:`FieldCtx.int_ops`.
    """
    ctx = spec.ctx
    n, r = ctx.n, spec.r
    if not spec.a:
        return LinearizedPoly.monomial(ctx, (n - r) % n)
    delta = spec.delta
    if not delta:
        raise NotAPermutationError(
            "binomial does not permute the field: criterion value is 1")
    mul, inv, _, _, orbit = ctx.int_ops()
    conj, u = orbit(spec.a.packed), inv(delta.packed)
    coeffs = [0] * n
    for i in range(n // spec.d - 1, -1, -1):
        coeffs[i * r % n] = _kernel.submod(0, u, ctx.packing) if i % 2 else u
        if i:
            u = mul(u, conj[i * r % n])
    return LinearizedPoly._of(ctx, tuple(coeffs))


# dispatch tags for the special-case formulas
SHAPE_COPRIME = "coprime"
SHAPE_HALF = "half"


def _shapes(spec: BinomialSpec) -> list[str]:
    shapes = []
    n = spec.ctx.n
    if n % 2 == 0 and spec.r == n // 2:
        shapes.append(SHAPE_HALF)
    if spec.d == 1:
        shapes.append(SHAPE_COPRIME)
    return shapes


def inverse_special(spec: BinomialSpec, which: str | None = None) -> LinearizedPoly:
    """Special-case inverse formulas for gcd(r, n) = 1 (r = 1 included) or
    r = n/2.

    A deliberately independent evaluation path: norms and coefficient powers
    are computed by square-and-multiply with explicit integer exponents, not
    by the norm chain and orbit of :func:`inverse_binomial`.  The result
    must be coefficientwise equal to the general formula whenever a shape
    applies.
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
    elif which not in (SHAPE_COPRIME, SHAPE_HALF):
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
                "binomial does not permute the field: a^(q^(n/2)+1) = 1")
        dinv = denominator.inv()
        coeffs = [ctx.zero] * n
        coeffs[0] = b * dinv
        coeffs[h] = -dinv
        return LinearizedPoly(ctx, coeffs)

    # gcd(r, n) = 1: the alternating sum with exponents in base q^r
    base = q**r
    nor = a ** ((q**n - 1) // (q - 1))
    denominator = nor + _sign(ctx, n - 1)
    if not denominator:
        raise NotAPermutationError(
            "binomial does not permute the field: (-1)^n N(a) = 1")
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
    small = _poly(L).ctx
    _expect(big, FieldCtx, "a field context")
    n = small.n
    check_lift_factor(t, n)
    if big.p != small.p or big.n != n or big.e != small.e * t:
        raise ValueError(
            f"big context must be (p={small.p}, e={small.e * t}, n={n}), "
            f"got (p={big.p}, e={big.e}, n={big.n})")
    coeffs = [embed_subfield(c, big) for c in L.coeffs]
    return LinearizedPoly(big, [coeffs[(t * i) % n] for i in range(n)])
