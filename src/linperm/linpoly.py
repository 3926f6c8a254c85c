"""Linearized polynomials over GF(q^n) and their Dickson matrices.

A q-linearized polynomial L(x) = sum(a_i x^(q^i), i < n) induces a
GF(q)-linear map of GF(q^n).  Its Dickson matrix has entry
(i, j) = a_((j-i) mod n)^(q^i); L permutes the field exactly when that
matrix is nonsingular, and the coefficient vector of the compositional
inverse of a permutation is the first row of the inverse matrix.  One
elimination routine, :func:`_solve`, gives every matrix quantity: the
determinant, cofactors, that first row and the whole inverse.
"""

from __future__ import annotations

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

    Forward elimination on [D^T | e_0 ... e_(k-1)] takes the first nonzero
    entry of each column as its pivot, scales it to one and clears below
    it; det D is the signed product of the pivots, and the unit
    upper-triangular system left is solved by back substitution.  A product
    is only formed when both operands are nonzero, so an entry costs field
    work only while it is nonzero.  An empty D has det one.
    """
    n = len(entries)
    det = one = ctx.one
    rows = [list(col) for col in zip(*entries)]
    if k:
        zero = ctx.zero
        for i, row in enumerate(rows):
            row += [one if t == i else zero for t in range(k)]
    for col in range(n):
        for pivot_row in range(col, n):
            if rows[pivot_row][col]:
                break
        else:
            return ctx.zero, None
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            det = -det
        pivot = rows[col][col]
        det = det * pivot
        pinv = pivot.inv()
        rows[col] = [x * pinv if x else x for x in rows[col]]
        for r in range(col + 1, n):
            factor = rows[r][col]
            if factor:
                rows[r] = [x - factor * y if y else x
                           for x, y in zip(rows[r], rows[col])]
    solutions = []
    for t in range(n, n + k):
        x = [ctx.zero] * n
        for i in reversed(range(n)):
            acc = rows[i][t]
            for j in range(i + 1, n):
                if rows[i][j] and x[j]:
                    acc = acc - rows[i][j] * x[j]
            x[i] = acc
        solutions.append(x)
    return det, solutions


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
