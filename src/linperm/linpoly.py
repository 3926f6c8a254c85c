"""Linearized polynomials over GF(q^n) and their Dickson matrices.

A q-linearized polynomial L(x) = sum(a_i x^(q^i), i < n) induces a
GF(q)-linear map of GF(q^n).  Its Dickson matrix has entry
(i, j) = a_((j-i) mod n)^(q^i); L permutes the field exactly when that
matrix is nonsingular, and the coefficient vector of the compositional
inverse of a permutation is the first row of the inverse matrix.  One
elimination routine, :func:`_solve`, gives every matrix quantity: the
determinant, cofactors, that first row and the whole inverse.  It makes
one field inversion per call, so a big-field solve costs one Euclid, not n.
Both containers hold packed ints and build field elements only on a read
of ``coeffs`` or ``entries``; evaluation, composition and elimination run
on those ints, through :meth:`~linperm.ffield.FieldCtx.int_ops`.
"""

from __future__ import annotations

from . import _kernel
from .errors import ContextMismatchError, SingularMatrixError
from .ffield import FieldCtx, FieldElem, _expect


class _Packed:
    """A context ``ctx`` and a tuple ``packed`` of packed ints, or of rows of
    them; public constructors check elements, and ``_of`` takes ints as they
    are.  Equal when of one class with equal ``ctx`` and ``packed``."""

    __slots__ = ("ctx", "packed")

    @classmethod
    def _of(cls, ctx: FieldCtx, packed: tuple):
        obj = cls.__new__(cls)
        obj.ctx, obj.packed = ctx, packed
        return obj

    def __eq__(self, other):
        return type(other) is type(self) and (
            (self.ctx, self.packed) == (other.ctx, other.packed))

    def __hash__(self):
        return hash((self.ctx, self.packed))


class LinearizedPoly(_Packed):
    """Coefficient vector (a_0, ..., a_{n-1}) of sum a_i x^(q^i), held as
    the packed ints ``packed``; ``coeffs`` builds the elements on each read.

    The length is exactly n; other lengths are rejected rather than padded.
    """

    __slots__ = ()

    def __init__(self, ctx: FieldCtx, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != ctx.n:
            raise ValueError(
                f"need exactly n={ctx.n} coefficients, got {len(coeffs)}")
        self.ctx = ctx
        self.packed = tuple(ctx.zero._peer(c).packed for c in coeffs)

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "LinearizedPoly":
        return cls._of(ctx, (0,) * ctx.n)

    @classmethod
    def identity(cls, ctx: FieldCtx) -> "LinearizedPoly":
        return cls.monomial(ctx, 0)

    @classmethod
    def monomial(cls, ctx: FieldCtx, r: int) -> "LinearizedPoly":
        """x^(q^r)."""
        if not 0 <= _expect(r, int, "an int slot") < ctx.n:
            raise ValueError(f"slot r={r} outside [0, {ctx.n})")
        return cls._of(ctx, (0,) * r + (1,) + (0,) * (ctx.n - r - 1))

    @classmethod
    def from_encodings(cls, ctx: FieldCtx, encodings) -> "LinearizedPoly":
        return cls(ctx, tuple(ctx.from_int(v) for v in encodings))

    @property
    def coeffs(self) -> tuple:
        return tuple(FieldElem(self.ctx, v) for v in self.packed)

    def to_encodings(self) -> tuple[int, ...]:
        return tuple(c.to_int() for c in self.coeffs)

    def _peer(self, other, what: str) -> "LinearizedPoly":
        if _poly(other).ctx is not self.ctx and other.ctx != self.ctx:
            raise ContextMismatchError(f"{what} across contexts")
        return other

    def eval(self, x: FieldElem) -> FieldElem:
        """L(x) as sum a_i * x^(q^i); additive and GF(q)-linear in x.

        One Frobenius image per nonzero coefficient past a_0, on packed ints.
        """
        ctx = self.ctx
        ctx.zero._peer(x)
        if not x.packed:
            return ctx.zero
        mul, _, frob, _, _ = ctx.int_ops()
        acc = 0
        for i, a in enumerate(self.packed):
            if a:
                acc = _kernel.addmod(acc, mul(
                    a, frob(x.packed, ctx.e * i)), ctx.packing)
        return FieldElem(ctx, acc)

    def compose(self, other: "LinearizedPoly") -> "LinearizedPoly":
        """Coefficients of self(other(x)), reduced modulo x^(q^n) - x.

        c_k = sum over i+j = k (mod n) of a_i * b_j^(q^i), on packed ints.
        """
        bs = self._peer(other, "composition").packed
        ctx = self.ctx
        mul, _, frob, _, _ = ctx.int_ops()
        n, pk = ctx.n, ctx.packing
        out = [0] * n
        for i, a in enumerate(self.packed):
            if a:
                for j, b in enumerate(bs):
                    if b:
                        out[(i + j) % n] = _kernel.addmod(out[(i + j) % n], mul(
                            a, frob(b, ctx.e * i)), pk)
        return LinearizedPoly._of(ctx, tuple(out))

    def dickson_matrix(self) -> "DicksonMatrix":
        # row i is the q^i-th powers of the coefficients rotated i slots
        # right, so column j of the unrotated rows is the orbit of a_j;
        # orbit repeats zero and GF(p) constants with no kernel call
        ctx, n = self.ctx, self.ctx.n
        orbit = ctx.int_ops()[4]
        images = zip(*map(orbit, self.packed))
        return DicksonMatrix._of(ctx, tuple(
            row[n - i:] + row[:n - i] for i, row in enumerate(images)))

    def __repr__(self):
        return f"LinearizedPoly({list(self.to_encodings())} over {self.ctx!r})"


class DicksonMatrix(_Packed):
    """n x n matrix over GF(q^n) as rows of packed ints; ``entries`` builds
    the field elements on each read, and the constructor takes them."""

    __slots__ = ()

    def __init__(self, ctx: FieldCtx, entries):
        rows = tuple(tuple(ctx.zero._peer(c).packed for c in row)
                     for row in entries)
        n = ctx.n
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f"need an n x n array with n={n}")
        self.ctx, self.packed = ctx, rows

    @property
    def entries(self) -> tuple:
        return tuple(tuple(FieldElem(self.ctx, v) for v in row)
                     for row in self.packed)

    def det(self) -> FieldElem:
        return FieldElem(self.ctx, _solve(self.ctx, self.packed, 0)[0])

    def det_and_inverse(self) -> tuple[FieldElem, "DicksonMatrix"]:
        """det D and D^-1, whose row i solves x D = e_i; raises on a
        singular matrix."""
        det, rows = _solve(self.ctx, self.packed, self.ctx.n)
        if rows is None:
            raise SingularMatrixError("matrix is singular")
        return FieldElem(self.ctx, det), DicksonMatrix._of(
            self.ctx, tuple(map(tuple, rows)))

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
        return self._checked_inverse(*_solve(self.ctx, self.packed, 1))

    def _checked_inverse(self, det, solutions) -> LinearizedPoly:
        """:meth:`inverse_poly` from the packed ``_solve(ctx, packed, 1)``."""
        ctx = self.ctx
        if solutions is None:
            raise SingularMatrixError("polynomial does not permute the field")
        mul, _, frob, _, _ = ctx.int_ops()
        expansion = 0
        for row, xi in zip(self.packed, solutions[0]):
            if row[0] and xi:
                expansion = _kernel.addmod(
                    expansion, mul(row[0], mul(det, xi)), ctx.packing)
        if expansion != det or frob(det, ctx.e) != det:
            raise AssertionError("cofactor expansion disagrees with elimination")
        return LinearizedPoly._of(ctx, tuple(solutions[0]))

    def cofactor(self, i: int, j: int) -> FieldElem:
        """Signed minor determinant; defined for singular matrices too."""
        ctx, rows = self.ctx, self.packed
        if not (0 <= i < ctx.n and 0 <= j < ctx.n):
            raise ValueError(f"cofactor ({i}, {j}) outside [0, {ctx.n})")
        minor = [r[:j] + r[j + 1:] for r in rows[:i] + rows[i + 1:]]
        det = FieldElem(ctx, _solve(ctx, minor, 0)[0])
        return det if (i + j) % 2 == 0 else -det

    def __repr__(self):
        encs = [[c.to_int() for c in row] for row in self.entries]
        return f"DicksonMatrix({encs} over {self.ctx!r})"


def _solve(ctx, rows, k):
    """(det, X), packed, for the square matrix D given by its packed
    ``rows``: X[i] is the solution x of x D = e_i, row i of D^-1, for
    i < k; X is None when D is singular.

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
    mul, inv, _, _, _ = ctx.int_ops()
    pk = ctx.packing
    sub = _kernel.submod
    n = len(rows)
    rows = [list(col) + [1 if t == i else 0 for t in range(k)]
            for i, col in enumerate(zip(*rows))]
    det = scale = 1
    for col in range(n):
        for pivot_row in range(col, n):
            if rows[pivot_row][col]:
                break
        else:
            return 0, None
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            det = sub(0, det, pk)
        top = rows[col]
        pivot = top[col]
        if not k:
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
    inverses, product = _inverse_all([scale] + pivots, mul, inv)
    if k:  # product / scale is the pivots' product, which det lacks
        det = mul(det, mul(product, inverses[0]))
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
        solutions.append(x)
    return det, solutions


def _inverse_all(values, mul, inv):
    """Inverses of the nonzero ``values``, and their product, from one ``inv``
    call (Montgomery's trick): invert the product, peel factors off the end."""
    prefix = [values[0]]
    for v in values[1:]:
        prefix.append(mul(prefix[-1], v))
    acc = inv(prefix[-1])
    out = [0] * len(values)
    for i in reversed(range(1, len(values))):
        out[i] = mul(acc, prefix[i - 1])
        acc = mul(acc, values[i])
    out[0] = acc
    return out, prefix[-1]


def _poly(obj) -> LinearizedPoly:
    """``obj``; raises TypeError unless it is a linearized polynomial."""
    return _expect(obj, LinearizedPoly, "a linearized polynomial")


def is_permutation_dickson(L: LinearizedPoly) -> bool:
    """Determinant criterion: L permutes GF(q^n) iff det of D_L is nonzero."""
    return bool(_poly(L).dickson_matrix().det())


def inverse_dickson(L: LinearizedPoly) -> LinearizedPoly:
    """Compositional inverse through the Dickson matrix, by one linear solve
    and a cofactor-expansion check; see :meth:`DicksonMatrix.inverse_poly`."""
    return _poly(L).dickson_matrix().inverse_poly()
