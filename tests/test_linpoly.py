"""Linearized polynomials: evaluation, composition, Dickson matrices."""

import itertools
import random

import pytest

from linperm import (BinomialSpec, ContextMismatchError, DicksonMatrix,
                     FieldCtx, FieldElem, LinearizedPoly, SingularMatrixError,
                     SweepConfig, brute_is_permutation, embed_subfield,
                     field_ctx, inverse_binomial, inverse_dickson,
                     is_permutation_binomial, is_permutation_dickson, lift,
                     oracle, verify_inverse)
from linperm import _kernel
from linperm.ffield import LOG_TABLE_MAX_ORDER

from conftest import EXHAUSTIVE_FIELDS

# every (p, e, n) of the default sweep, field orders up to 729
SWEEP_FIELDS = list(oracle._grid(SweepConfig()))


def encs(obj):
    if isinstance(obj, LinearizedPoly):
        return list(obj.to_encodings())
    return [[c.to_int() for c in row] for row in obj.entries]


def leibniz(ctx, rows):
    """The determinant as the signed sum over permutations of products."""
    n = len(rows)
    total = ctx.zero
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b]
                         for a in range(n) for b in range(a + 1, n))
        term = ctx.one if inversions % 2 == 0 else -ctx.one
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


def matmul(A, B):
    """The product of two Dickson matrices, entry by entry."""
    n = A.ctx.n
    a, b = A.entries, B.entries
    return DicksonMatrix(A.ctx, [
        [sum((a[i][k] * b[k][j] for k in range(n)), A.ctx.zero)
         for j in range(n)] for i in range(n)])


@pytest.fixture
def L(f9):
    """x^3 + (t+1)x over GF(9)."""
    return LinearizedPoly.from_encodings(f9, [4, 1])


class TestEval:
    def test_worked_values(self, f9, L):
        assert L.eval(f9.zero) == f9.zero
        assert L.eval(f9.from_int(3)).to_int() == 2

    def test_identity(self, f9):
        ident = LinearizedPoly.identity(f9)
        for x in f9.elements():
            assert ident.eval(x) == x

    def test_additive(self, f9, L):
        for x in f9.elements():
            for y in f9.elements():
                assert L.eval(x + y) == L.eval(x) + L.eval(y)

    def test_base_field_linearity(self, f9, L):
        # scalars of GF(q) are the elements fixed by the q-power Frobenius
        scalars = [c for c in f9.elements() if c.frobenius(f9.e) == c]
        assert len(scalars) == f9.q
        for c in scalars:
            for x in f9.elements():
                assert L.eval(c * x) == c * L.eval(x)

    def test_length_is_strict(self, f9):
        with pytest.raises(ValueError):
            LinearizedPoly(f9, [f9.one])
        with pytest.raises(ValueError):
            LinearizedPoly(f9, [f9.one, f9.one, f9.one])

    def test_coefficients_must_be_elements_of_the_context(self, f9):
        with pytest.raises(TypeError):
            LinearizedPoly(f9, [f9.one, 1])
        with pytest.raises(ContextMismatchError):
            LinearizedPoly(f9, [f9.one, field_ctx(3, 2, 1).one])

    def test_argument_from_another_context(self, f9, L):
        # GF(9) as (3, 2, 1) is the same field in another tower
        with pytest.raises(ContextMismatchError):
            L.eval(field_ctx(3, 2, 1).one)

    def test_argument_must_be_an_element(self, L):
        with pytest.raises(TypeError):
            L.eval(3)

    def test_monomial_slot_is_checked(self, f9):
        with pytest.raises(ValueError):
            LinearizedPoly.monomial(f9, 2)

    def test_monomial_slot_must_be_an_int(self, f9):
        for r in (1.0, 0.5):
            with pytest.raises(TypeError,
                               match="expected an int slot, got float"):
                LinearizedPoly.monomial(f9, r)
        assert (LinearizedPoly.monomial(f9, True)
                == LinearizedPoly.monomial(f9, 1))


class TestCompose:
    def test_monomials_cancel(self, f9):
        a = LinearizedPoly.monomial(f9, 1)
        b = LinearizedPoly.monomial(f9, f9.n - 1)
        assert a.compose(b) == LinearizedPoly.identity(f9)

    def test_identity_is_neutral(self, f9, L):
        ident = LinearizedPoly.identity(f9)
        assert L.compose(ident) == L
        assert ident.compose(L) == L

    def test_worked_inverse_pair(self, f9, L):
        M = LinearizedPoly.from_encodings(f9, [7, 2])
        assert L.compose(M) == LinearizedPoly.identity(f9)
        assert M.compose(L) == LinearizedPoly.identity(f9)

    def test_other_must_be_a_polynomial(self, L):
        with pytest.raises(TypeError, match="expected a linearized polynomial"):
            L.compose(5)
        with pytest.raises(TypeError, match="expected a linearized polynomial"):
            L.compose(L.dickson_matrix())

    @pytest.mark.parametrize("p,e,n", EXHAUSTIVE_FIELDS)
    def test_matches_pointwise_composition(self, p, e, n):
        ctx = field_ctx(p, e, n)
        rng = random.Random(100 * p + 10 * e + n)
        for _ in range(8):
            A = LinearizedPoly(ctx, [ctx.random_element(rng) for _ in range(n)])
            B = LinearizedPoly(ctx, [ctx.random_element(rng) for _ in range(n)])
            C = A.compose(B)
            for x in ctx.elements():
                assert C.eval(x) == A.eval(B.eval(x))


class TestDicksonMatrix:
    def test_diagonal_for_scaling(self, f9):
        c = f9.from_int(4)
        D = LinearizedPoly(f9, [c, f9.zero]).dickson_matrix()
        assert encs(D) == [[4, 0], [0, c.frobenius(1).to_int()]]

    def test_worked_matrix(self, L):
        assert encs(L.dickson_matrix()) == [[4, 1], [1, 7]]

    def test_zero_polynomial(self, f9):
        D = LinearizedPoly.zero(f9).dickson_matrix()
        assert encs(D) == [[0, 0], [0, 0]]

    def test_structure(self):
        rng = random.Random(5)
        # GF(3^9) and GF(2^16) are above LOG_TABLE_MAX_ORDER, where the rows
        # are built with _kernel.matvec, not log tables
        for p, e, n in [(2, 1, 4), (3, 3, 3), (2, 2, 8)]:
            ctx = field_ctx(p, e, n)
            dense = LinearizedPoly(
                ctx, [ctx.random_element(rng) for _ in range(n)])
            binomial = BinomialSpec(ctx.random_element(rng), n - 1).poly()
            for L in (dense, binomial):
                entries = L.dickson_matrix().entries
                for i in range(n):
                    for j in range(n):
                        assert entries[i][j] == (
                            L.coeffs[(j - i) % n].frobenius(ctx.e * i))

    def test_binomial_rows_skip_the_constant(self, monkeypatch):
        """Over GF(3^32) a binomial's matrix maps a alone: one kernel orbit
        of a, none of the constant 1 or the zero coefficients, and no
        single Frobenius image."""
        ctx = field_ctx(3, 1, 32)
        assert ctx.order > LOG_TABLE_MAX_ORDER
        calls = []
        real = _kernel.matvec_split

        def matvec_split(cols, v, k, pk):
            calls.append(v)
            return real(cols, v, k, pk)

        def matvec(cols, v, pk):
            raise AssertionError("single Frobenius image in a Dickson matrix")

        monkeypatch.setattr(_kernel, "matvec_split", matvec_split)
        monkeypatch.setattr(_kernel, "matvec", matvec)
        rng = random.Random(33)
        for r in (1, 7, 16, 31):
            a = ctx.random_element(rng)
            assert a.packed >= 1 << 8 * ctx.packing.width
            BinomialSpec(a, r).poly().dickson_matrix()
            assert calls == [_kernel.digits(a.packed, ctx.packing)], r
            calls.clear()

    def test_row_zero_recovers_poly(self, L):
        assert LinearizedPoly(L.ctx, L.dickson_matrix().entries[0]) == L

    def test_shape_is_checked(self, f9):
        with pytest.raises(ValueError):
            DicksonMatrix(f9, [[f9.one]])

    def test_entries_must_be_elements_of_the_context(self, f9):
        with pytest.raises(TypeError):
            DicksonMatrix(f9, [[f9.one, 1], [f9.zero, f9.one]])
        with pytest.raises(ContextMismatchError):
            DicksonMatrix(f9, [[f9.one, field_ctx(5, 1, 2).one],
                               [f9.zero, f9.one]])


class TestDeterminantAndInverse:
    def test_identity_matrix(self, f9):
        D = LinearizedPoly.identity(f9).dickson_matrix()
        assert D.det() == f9.one
        assert D.det_and_inverse()[1] == D

    def test_equal_rows_are_singular(self, f9):
        D = DicksonMatrix(f9, [[f9.one, f9.one], [f9.one, f9.one]])
        assert D.det() == f9.zero
        with pytest.raises(SingularMatrixError):
            D.det_and_inverse()[1]

    def test_worked_values(self, f9, L):
        D = L.dickson_matrix()
        assert D.det().to_int() == 1
        assert encs(D.det_and_inverse()[1]) == [[7, 2], [2, 4]]

    def test_zero_matrix_inverse_raises(self, f9):
        D = LinearizedPoly.zero(f9).dickson_matrix()
        with pytest.raises(SingularMatrixError):
            D.det_and_inverse()[1]

    @pytest.mark.parametrize("p,e,n", EXHAUSTIVE_FIELDS)
    def test_inverse_times_matrix_is_identity(self, p, e, n):
        ctx = field_ctx(p, e, n)
        ident = LinearizedPoly.identity(ctx)
        rng = random.Random(n * 37 + p)
        produced = 0
        while produced < 6:
            L = LinearizedPoly(ctx, [ctx.random_element(rng) for _ in range(n)])
            D = L.dickson_matrix()
            if not D.det():
                continue
            produced += 1
            # Dickson matrices multiply as their polynomials compose
            M = D.inverse_poly()
            assert L.compose(M) == ident and M.compose(L) == ident
            assert D.det_and_inverse()[1] == M.dickson_matrix()

    def test_cofactors_match_minors_and_adjugate(self, f9, L):
        D = L.dickson_matrix()
        det, Dinv = D.det_and_inverse()
        for i in range(2):
            # cofactor (i, 0) appears in the adjugate row 0 scaled by 1/det
            assert D.cofactor(i, 0) == det * Dinv.entries[0][i]

    def test_cofactors_defined_for_singular(self, f9):
        L = LinearizedPoly.from_encodings(f9, [3, 1])  # det = 0
        D = L.dickson_matrix()
        assert D.det() == f9.zero
        assert D.cofactor(0, 0) == D.entries[1][1]
        assert D.cofactor(1, 0) == -D.entries[0][1]

    @pytest.mark.parametrize("i,j", [(0, 3), (0, -1), (-3, 0), (3, 0),
                                     (-1, 0)])
    def test_cofactor_index_outside_the_matrix(self, i, j):
        # negative indices would wrap and out-of-range ones slice short, so
        # these gave values or an IndexError that are no minor of D
        ctx = field_ctx(3, 1, 3)
        D = LinearizedPoly.from_encodings(ctx, [5, 1, 0]).dickson_matrix()
        with pytest.raises(ValueError, match=rf"cofactor \({i}, {j}\)"):
            D.cofactor(i, j)

    @pytest.mark.parametrize("i,j,kind", [(1.0, 0, "float"), (0, 1.0, "float"),
                                          ("1", 0, "str"), (0, "0", "str"),
                                          (5, 1.0, "float")])
    def test_cofactor_index_must_be_an_int(self, i, j, kind):
        # a float once reached the minor's slices ("slice indices must be
        # integers"); the type is checked before the range
        ctx = field_ctx(3, 1, 3)
        D = LinearizedPoly.from_encodings(ctx, [5, 1, 0]).dickson_matrix()
        with pytest.raises(TypeError, match=f"expected an int index, got {kind}"):
            D.cofactor(i, j)
        assert D.cofactor(True, False) == D.cofactor(1, 0)


class TestAgainstLeibniz:
    """The elimination against references that share no code with it."""

    # the last two are above LOG_TABLE_MAX_ORDER, where the elimination
    # multiplies and inverts with the packed kernels, not log tables
    @pytest.mark.parametrize("p,e,n", [(3, 1, 2), (5, 1, 2), (2, 2, 3),
                                       (3, 1, 4), (3, 3, 3), (2, 4, 4)])
    def test_random_matrices(self, p, e, n):
        ctx = field_ctx(p, e, n)
        rng = random.Random(41 * p + n)
        ident = DicksonMatrix(ctx, [[ctx.one if i == j else ctx.zero
                                     for j in range(n)] for i in range(n)])
        singular = 0
        for trial in range(30):
            # sparse rows, so that pivots are searched for and rows swapped
            rows = [[ctx.random_element(rng) if rng.random() < 0.6
                     else ctx.zero for _ in range(n)] for _ in range(n)]
            if trial % 3 == 0:
                # the last row a combination of the others
                scales = [ctx.random_element(rng) for _ in range(n - 1)]
                rows[-1] = [sum((c * row[j] for c, row in zip(scales, rows)),
                                ctx.zero) for j in range(n)]
            D = DicksonMatrix(ctx, rows)
            det = leibniz(ctx, rows)
            assert D.det() == det
            for i in range(n):
                for j in range(n):
                    minor = [[rows[r][c] for c in range(n) if c != j]
                             for r in range(n) if r != i]
                    sign = ctx.one if (i + j) % 2 == 0 else -ctx.one
                    assert D.cofactor(i, j) == sign * leibniz(ctx, minor)
            if not det:
                singular += 1
                with pytest.raises(SingularMatrixError):
                    D.det_and_inverse()
                continue
            det_again, Dinv = D.det_and_inverse()
            assert det_again == det
            assert matmul(D, Dinv) == ident == matmul(Dinv, D)
        assert 10 <= singular < 30


class TestPermutationCriterion:
    def test_worked_values(self, f9, L):
        assert is_permutation_dickson(LinearizedPoly.identity(f9))
        assert not is_permutation_dickson(LinearizedPoly.zero(f9))
        assert not is_permutation_dickson(LinearizedPoly.from_encodings(f9, [3, 1]))
        assert is_permutation_dickson(L)

    @pytest.mark.parametrize("p,e,n", EXHAUSTIVE_FIELDS)
    def test_agrees_with_brute_force_exhaustively(self, p, e, n):
        ctx = field_ctx(p, e, n)
        if n <= 3 and ctx.order ** n <= 25_000:
            for code in range(ctx.order ** n):
                coeffs = []
                v = code
                for _ in range(n):
                    v, rem = divmod(v, ctx.order)
                    coeffs.append(ctx.from_int(rem))
                L = LinearizedPoly(ctx, coeffs)
                assert is_permutation_dickson(L) == brute_is_permutation(L)
        else:
            rng = random.Random(p * 1000 + e * 100 + n)
            for _ in range(100):
                L = LinearizedPoly(ctx, [ctx.random_element(rng) for _ in range(n)])
                assert is_permutation_dickson(L) == brute_is_permutation(L)

    def test_agrees_with_brute_force_larger_field(self):
        ctx = field_ctx(3, 2, 3)  # 729 elements
        rng = random.Random(11)
        for _ in range(40):
            L = LinearizedPoly(ctx, [ctx.random_element(rng) for _ in range(3)])
            assert is_permutation_dickson(L) == brute_is_permutation(L)


class TestInverseDickson:
    def test_scaling(self, f9):
        c = f9.from_int(4)
        L = LinearizedPoly(f9, [c, f9.zero])
        assert inverse_dickson(L) == LinearizedPoly(f9, [c.inv(), f9.zero])

    def test_frobenius_shift(self):
        ctx = field_ctx(2, 1, 5)
        for r in range(1, 5):
            L = LinearizedPoly.monomial(ctx, r)
            assert inverse_dickson(L) == LinearizedPoly.monomial(ctx, 5 - r)

    def test_worked_value(self, f9, L):
        assert encs(inverse_dickson(L)) == [7, 2]

    def test_non_permutation_raises(self, f9):
        with pytest.raises(SingularMatrixError):
            inverse_dickson(LinearizedPoly.from_encodings(f9, [3, 1]))

    @pytest.mark.parametrize("p,e,n", EXHAUSTIVE_FIELDS)
    def test_composes_to_identity(self, p, e, n):
        ctx = field_ctx(p, e, n)
        ident = LinearizedPoly.identity(ctx)
        rng = random.Random(p + e + n)
        produced = 0
        while produced < 6:
            L = LinearizedPoly(ctx, [ctx.random_element(rng) for _ in range(n)])
            if not is_permutation_dickson(L):
                continue
            produced += 1
            M = inverse_dickson(L)
            assert L.compose(M) == ident
            assert M.compose(L) == ident

    def test_no_product_has_a_zero_operand(self, monkeypatch):
        # the matrix, the elimination, the inverse's checks, eval and
        # compose run on packed ints through FieldCtx.int_ops; frob and
        # orbit take zero, and every image they give must be the Frobenius
        # map's
        zero_products = []
        wrong_images = []
        int_fields = set()
        frob_fields = set()
        orbit_fields = set()
        real_ops = FieldCtx.int_ops

        def int_ops(ctx):
            int_mul, int_inv, int_frob, int_pow, int_orbit = real_ops(ctx)

            def checked_mul(a, b):
                int_fields.add(ctx.order)
                if not (a and b):
                    zero_products.append((a, b))
                return int_mul(a, b)

            def checked_inv(a):
                if not a:
                    zero_products.append((a,))
                return int_inv(a)

            def checked_frob(x, k):
                frob_fields.add(ctx.order)
                image = int_frob(x, k)
                pk = ctx.packing
                if image != _kernel.matvec(ctx._frobenius_map(k),
                                           _kernel.digits(x, pk), pk):
                    wrong_images.append((x, k, image))
                return image

            def checked_pow(x, k):
                if not x:
                    zero_products.append((x, k))
                return int_pow(x, k)

            def checked_orbit(x):
                orbit_fields.add(ctx.order)
                images = int_orbit(x)
                pk = ctx.packing
                if images != [_kernel.matvec(ctx._frobenius_map(ctx.e * j),
                                             _kernel.digits(x, pk), pk)
                              for j in range(ctx.n)]:
                    wrong_images.append((x, images))
                return images

            return (checked_mul, checked_inv, checked_frob, checked_pow,
                    checked_orbit)

        monkeypatch.setattr(FieldCtx, "int_ops", int_ops)
        # GF(3^9) is above LOG_TABLE_MAX_ORDER, where a zero operand would
        # pass through _kernel.mulmod silently
        fields = [(3, 1, 6), (2, 2, 4), (5, 1, 4), (3, 3, 3)]
        for p, e, n in fields:
            ctx = field_ctx(p, e, n)
            rng = random.Random(29 * p + n)
            for r in range(1, n):
                for _ in range(3):
                    binomial = BinomialSpec(ctx.random_element(rng), r).poly()
                    dense = LinearizedPoly(
                        ctx, [ctx.random_element(rng) for _ in range(n)])
                    for poly in (binomial, dense):
                        if poly.dickson_matrix().det():
                            inverse = inverse_dickson(poly)
                            inverse.eval(ctx.zero)
                            inverse.eval(ctx.random_element(rng))
                            poly.compose(inverse)
        assert zero_products == [] and wrong_images == []
        assert int_fields == frob_fields == orbit_fields == {
            p ** (e * n) for p, e, n in fields}

    def test_one_inversion_per_solve(self, monkeypatch):
        """Over GF(3^32) an n = 32 solve makes one Euclid, not one per
        pivot."""
        ctx = field_ctx(3, 1, 32)
        assert ctx.order > LOG_TABLE_MAX_ORDER
        calls = []
        real = _kernel.invmod

        def invmod(a, pk):
            calls.append(a)
            return real(a, pk)

        rng = random.Random(32)
        for r in range(1, 32):
            spec = BinomialSpec(ctx.random_element(rng), r)
            while not is_permutation_binomial(spec):
                spec = BinomialSpec(ctx.random_element(rng), r)
            L = spec.poly()
            D = L.dickson_matrix()
            with monkeypatch.context() as m:
                m.setattr(_kernel, "invmod", invmod)
                D.det()
                assert len(calls) <= 1, r
                calls.clear()
                M = inverse_dickson(L)
                assert len(calls) == 1, r
                calls.clear()
            assert L.compose(M) == LinearizedPoly.identity(ctx)


class TestAlgebraicStructure:
    @pytest.mark.parametrize("p,e,n", EXHAUSTIVE_FIELDS)
    def test_dickson_matrix_is_multiplicative(self, p, e, n):
        ctx = field_ctx(p, e, n)
        rng = random.Random(13 * p + n)
        for _ in range(8):
            A = LinearizedPoly(ctx, [ctx.random_element(rng) for _ in range(n)])
            B = LinearizedPoly(ctx, [ctx.random_element(rng) for _ in range(n)])
            assert (A.compose(B).dickson_matrix()
                    == matmul(A.dickson_matrix(), B.dickson_matrix()))

    @pytest.mark.parametrize("p,e,n", SWEEP_FIELDS)
    def test_inverse_poly_has_inverse_matrix(self, p, e, n):
        # the row-0 solve against the whole inverse, on dense random L
        ctx = field_ctx(p, e, n)
        rng = random.Random(17 * p + n)
        produced = 0
        while produced < 6:
            L = LinearizedPoly(ctx, [ctx.random_element(rng) for _ in range(n)])
            D = L.dickson_matrix()
            if not D.det():
                with pytest.raises(SingularMatrixError):
                    inverse_dickson(L)
                continue
            produced += 1
            assert inverse_dickson(L).dickson_matrix() == D.det_and_inverse()[1]
        # x^q - x vanishes on GF(q)
        singular = [-ctx.one, ctx.one] + [ctx.zero] * (n - 2)
        with pytest.raises(SingularMatrixError):
            inverse_dickson(LinearizedPoly(ctx, singular))

    @pytest.mark.parametrize("p,e,n", EXHAUSTIVE_FIELDS)
    def test_determinant_lies_in_base_field(self, p, e, n):
        ctx = field_ctx(p, e, n)
        rng = random.Random(23 * p + n)
        for _ in range(10):
            L = LinearizedPoly(ctx, [ctx.random_element(rng) for _ in range(n)])
            det = L.dickson_matrix().det()
            assert det.frobenius(ctx.e) == det


class TestPackedStorage:
    """Both containers hold packed ints: the package's own results are built
    from them without an element check, and compare and hash like the same
    container built through the public, checked constructor."""

    def test_internal_results_make_no_element_checks(self, monkeypatch):
        ctx = field_ctx(3, 1, 32)
        rng = random.Random(28)
        spec = BinomialSpec(ctx.random_element(rng), 1)
        while not is_permutation_binomial(spec):
            spec = BinomialSpec(ctx.random_element(rng), 1)
        checks = []
        real = FieldElem._peer

        def peer(self, other):
            checks.append(other)
            return real(self, other)

        monkeypatch.setattr(FieldElem, "_peer", peer)

        def count(call):
            checks.clear()
            return call(), len(checks)

        L, n_checks = count(spec.poly)
        assert n_checks == 0
        # delta = N(a) + (-1)^(n/d - 1) is one checked sum, and the result
        # adds none
        _, n_delta = count(lambda: spec.delta)
        M, n_checks = count(lambda: inverse_binomial(spec))
        assert n_delta == n_checks == 1
        identity, n_checks = count(lambda: L.compose(M))
        assert n_checks == 0
        D = L.dickson_matrix()
        matrix_inverse, n_checks = count(D.inverse_poly)
        assert n_checks == 0

        assert identity == LinearizedPoly.identity(ctx)
        assert matrix_inverse == M
        monkeypatch.undo()
        for internal in (L, M, identity, matrix_inverse):
            public = LinearizedPoly(ctx, internal.coeffs)
            assert public == internal and hash(public) == hash(internal)
        public = DicksonMatrix(ctx, D.entries)
        assert public == D and hash(public) == hash(D)

    def test_equality_across_equal_contexts(self):
        fresh = FieldCtx(3, 1, 2)
        cached = field_ctx(3, 1, 2)
        assert fresh is not cached
        for make in (LinearizedPoly.identity,
                     lambda ctx: LinearizedPoly(ctx, [ctx.one, ctx.zero])):
            assert make(fresh) == make(cached)
            assert hash(make(fresh)) == hash(make(cached))

    def test_polynomial_never_equals_matrix(self):
        for n in (1, 2):
            ctx = field_ctx(3, 2 // n, n)
            L = LinearizedPoly.identity(ctx)
            D = L.dickson_matrix()
            assert L != D and D != L
            assert len({L, D}) == 2


@pytest.mark.parametrize("call,expected", [
    (lambda L: lift(5, 1, L.ctx), "a linearized polynomial"),
    (lambda L: brute_is_permutation(5), "a linearized polynomial"),
    (lambda L: verify_inverse(5, L), "a linearized polynomial"),
    (lambda L: inverse_dickson(5), "a linearized polynomial"),
    (lambda L: is_permutation_dickson(5), "a linearized polynomial"),
    (lambda L: lift(L, 1, 5), "a field context"),
    (lambda L: embed_subfield(L.ctx.one, 5), "a field context"),
], ids=["lift", "brute_is_permutation", "verify_inverse", "inverse_dickson",
        "is_permutation_dickson", "lift_big", "embed_subfield_big"])
def test_non_polynomial_or_context_is_a_type_error(L, call, expected):
    with pytest.raises(TypeError, match=f"^expected {expected}, got int$"):
        call(L)
