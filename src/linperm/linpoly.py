"""Linearized polynomials over GF(q^n) and their Dickson matrices.

A q-linearized polynomial L(x) = sum(a_i x^(q^i), i < n) induces a
GF(q)-linear map of GF(q^n).  Its Dickson matrix has entry
(i, j) = a_((j-i) mod n)^(q^i); L permutes the field exactly when that
matrix is nonsingular, and the coefficient vector of the compositional
inverse of a permutation is the first row of the inverse matrix.  One
elimination routine, :func:`_solve`, gives every matrix quantity: the
determinant, cofactors, that first row and the whole inverse.  It runs on
packed ints, eliminates without division and makes one field inversion
per call, so an n x n solve over a big field costs one Euclid instead of
n; field elements are built only for its results.
"""

from __future__ import annotations

from . import _kernel
from .errors import ContextMismatchError, SingularMatrixError
from .ffield import FieldCtx, FieldElem


class LinearizedPoly:
    """Coefficient vector (a_0, ..., a_{n-1}) of sum a_i x^(q^i).

    The length is exactly n; other lengths are rejected rather than padded.
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != ctx.n:
            raise ValueError(
                f"need exactly n={ctx.n} coefficients, got {len(coeffs)}")
        for c in coeffs:
            if not isinstance(c, FieldElem):
                raise TypeError("coefficients must be field elements")
            if c.ctx is not ctx and c.ctx != ctx:
                raise ContextMismatchError("coefficient from a different context")
        self.ctx = ctx
        self.coeffs = coeffs

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "LinearizedPoly":
        return cls(ctx, (ctx.zero,) * ctx.n)

    @classmethod
    def identity(cls, ctx: FieldCtx) -> "LinearizedPoly":
        return cls.monomial(ctx, 0)

    @classmethod
    def monomial(cls, ctx: FieldCtx, r: int) -> "LinearizedPoly":
        """x^(q^r)."""
        if not 0 <= r < ctx.n:
            raise ValueError(f"slot r={r} outside [0, {ctx.n})")
        coeffs = [ctx.zero] * ctx.n
        coeffs[r] = ctx.one
        return cls(ctx, coeffs)

    @classmethod
    def from_encodings(cls, ctx: FieldCtx, encodings) -> "LinearizedPoly":
        return cls(ctx, tuple(ctx.from_int(v) for v in encodings))

    def to_encodings(self) -> tuple[int, ...]:
        return tuple(c.to_int() for c in self.coeffs)

    def eval(self, x: FieldElem) -> FieldElem:
        """L(x) as sum a_i * x^(q^i); additive and GF(q)-linear in x.

        One Frobenius image per nonzero coefficient past a_0.
        """
        ctx = self.ctx
        if x.ctx is not ctx and x.ctx != ctx:
            raise ContextMismatchError("argument from a different context")
        acc = ctx.zero
        for i, a in enumerate(self.coeffs):
            if a:
                acc = acc + a * (x.frobenius(ctx.e * i) if i else x)
        return acc

    def compose(self, other: "LinearizedPoly") -> "LinearizedPoly":
        """Coefficients of self(other(x)), reduced modulo x^(q^n) - x.

        c_k = sum over i+j = k (mod n) of a_i * b_j^(q^i).
        """
        ctx = self.ctx
        if other.ctx is not ctx and other.ctx != ctx:
            raise ContextMismatchError("composition across contexts")
        n = ctx.n
        out = [ctx.zero] * n
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if not b:
                    continue
                out[(i + j) % n] = out[(i + j) % n] + a * b.frobenius(ctx.e * i)
        return LinearizedPoly(ctx, out)

    def dickson_matrix(self) -> "DicksonMatrix":
        # zero is fixed by every Frobenius power, so zero coefficients are
        # copied instead of mapped
        ctx = self.ctx
        n = ctx.n
        rows = []
        for i in range(n):
            images = [c.frobenius(ctx.e * i) if c else c for c in self.coeffs]
            rows.append(tuple(images[(j - i) % n] for j in range(n)))
        return DicksonMatrix(ctx, tuple(rows))

    def __eq__(self, other):
        if not isinstance(other, LinearizedPoly):
            return NotImplemented
        return self.ctx == other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ctx, self.coeffs))

    def __repr__(self):
        return f"LinearizedPoly({list(self.to_encodings())} over {self.ctx!r})"


class DicksonMatrix:
    """n x n matrix over GF(q^n); rows are tuples of field elements."""

    __slots__ = ("ctx", "entries")

    def __init__(self, ctx: FieldCtx, entries):
        entries = tuple(tuple(row) for row in entries)
        n = ctx.n
        if len(entries) != n or any(len(row) != n for row in entries):
            raise ValueError(f"need an n x n array with n={n}")
        self.ctx = ctx
        self.entries = entries

    def det(self) -> FieldElem:
        return _solve(self.ctx, self.entries, 0)[0]

    def det_and_inverse(self) -> tuple[FieldElem, "DicksonMatrix"]:
        """det D and D^-1, whose row i solves x D = e_i; raises on a
        singular matrix."""
        det, rows = _solve(self.ctx, self.entries, self.ctx.n)
        if rows is None:
            raise SingularMatrixError("matrix is singular")
        return det, DicksonMatrix(self.ctx, rows)

    def inverse_poly(self) -> LinearizedPoly:
        """Compositional inverse of the linearized polynomial whose Dickson
        matrix this is, the one with coefficients ``entries[0]``.

        Its coefficients are row 0 of the inverse matrix, the solution x of
        x D = e_0 (see :func:`_solve`), so the rest of the inverse is never
        formed.  As a consistency check the determinant is recomputed by
        first-column cofactor expansion (cofactor (i,0) equals det times
        x_i) and must match the elimination determinant and be fixed by the
        q-power Frobenius.
        """
        ctx = self.ctx
        det, rows = _solve(ctx, self.entries, 1)
        if rows is None:
            raise SingularMatrixError("polynomial does not permute the field")
        x = rows[0]
        expansion = ctx.zero
        for row, xi in zip(self.entries, x):
            if row[0] and xi:
                expansion = expansion + row[0] * (det * xi)
        if expansion != det or det.frobenius(ctx.e) != det:
            raise AssertionError("cofactor expansion disagrees with elimination")
        return LinearizedPoly(ctx, x)

    def cofactor(self, i: int, j: int) -> FieldElem:
        """Signed minor determinant; defined for singular matrices too."""
        rows = self.entries[:i] + self.entries[i + 1:]
        det = _solve(self.ctx, [row[:j] + row[j + 1:] for row in rows], 0)[0]
        return det if (i + j) % 2 == 0 else -det

    def __eq__(self, other):
        if not isinstance(other, DicksonMatrix):
            return NotImplemented
        return self.ctx == other.ctx and self.entries == other.entries

    def __repr__(self):
        encs = [[c.to_int() for c in row] for row in self.entries]
        return f"DicksonMatrix({encs} over {self.ctx!r})"


def _solve(ctx, entries, k):
    """(det, X) for the square matrix D given by its rows: X[i] is the
    solution x of x D = e_i, row i of D^-1, for i < k; X is None when D is
    singular.

    Division-free forward elimination on [D^T | e_0 ... e_(k-1)] takes the
    first nonzero entry of each column as its pivot and clears each nonzero
    entry f below it by row <- pivot * row - f * (pivot row), a step that
    multiplies the determinant by the pivot; ``scale`` is the product of
    those factors.  So det D = +-(product of the pivots) / scale, and back
    substitution on the upper-triangular system left divides by each pivot.
    The one inversion, of scale and (when k > 0) the pivots together, is
    Montgomery's simultaneous inversion.  Every loop runs on packed ints
    with the context's :meth:`~linperm.ffield.FieldCtx.int_ops`; a product
    is only formed when both operands are nonzero, so an entry costs field
    work only while it is nonzero.  An empty D has det one.
    """
    mul, inv = ctx.int_ops()
    pk = ctx.packing
    sub = _kernel.submod
    n = len(entries)
    rows = [[c.packed for c in col] for col in zip(*entries)]
    for i, row in enumerate(rows):
        row += [1 if t == i else 0 for t in range(k)]
    det = scale = 1
    for col in range(n):
        for pivot_row in range(col, n):
            if rows[pivot_row][col]:
                break
        else:
            return ctx.zero, None
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            det = sub(0, det, pk)
        top = rows[col]
        pivot = top[col]
        det = mul(det, pivot)
        for row in rows[col + 1:]:
            f = row[col]
            if f:
                scale = mul(scale, pivot)
                row[col + 1:] = [
                    (sub(mul(pivot, x) if x else 0, mul(f, y), pk) if y
                     else mul(pivot, x) if x else 0)
                    for x, y in zip(row[col + 1:], top[col + 1:])]
    pivots = [row[i] for i, row in enumerate(rows)] if k else []
    inverses = _inverse_all([scale] + pivots, mul, inv)
    det = mul(det, inverses[0])
    solutions = []
    for t in range(n, n + k):
        x = [0] * n
        for i in reversed(range(n)):
            row = rows[i]
            acc = row[t]
            for j in range(i + 1, n):
                if row[j] and x[j]:
                    acc = sub(acc, mul(row[j], x[j]), pk)
            x[i] = mul(acc, inverses[i + 1]) if acc else 0
        solutions.append([FieldElem(ctx, v) for v in x])
    return FieldElem(ctx, det), solutions


def _inverse_all(values, mul, inv):
    """Inverses of the nonzero ``values`` from one ``inv`` call
    (Montgomery's trick): invert the product of them all, then peel the
    factors off one at a time from the end."""
    prefix = [values[0]]
    for v in values[1:]:
        prefix.append(mul(prefix[-1], v))
    acc = inv(prefix[-1])
    out = [0] * len(values)
    for i in reversed(range(1, len(values))):
        out[i] = mul(acc, prefix[i - 1])
        acc = mul(acc, values[i])
    out[0] = acc
    return out


def is_permutation_dickson(L: LinearizedPoly) -> bool:
    """Determinant criterion: L permutes GF(q^n) iff det of D_L is nonzero."""
    return bool(L.dickson_matrix().det())


def inverse_dickson(L: LinearizedPoly) -> LinearizedPoly:
    """Compositional inverse through the Dickson matrix.

    The inverse polynomial is row 0 of the inverse of L's Dickson matrix,
    found by solving one linear system rather than inverting the matrix;
    see :meth:`DicksonMatrix.inverse_poly`, which also re-checks the
    determinant by cofactor expansion.
    """
    return L.dickson_matrix().inverse_poly()
