"""Linearized polynomials: evaluation, composition, Dickson matrices."""

import random

import pytest

from linperm import (BinomialSpec, DicksonMatrix, FieldElem, LinearizedPoly,
                     SingularMatrixError, SweepConfig, brute_is_permutation,
                     field_ctx, inverse_dickson, is_permutation_dickson, oracle)

from conftest import EXHAUSTIVE_FIELDS

# every (p, e, n) of the default sweep, field orders up to 729
SWEEP_FIELDS = list(oracle._grid(SweepConfig()))


def encs(obj):
    if isinstance(obj, LinearizedPoly):
        return list(obj.to_encodings())
    return [[c.to_int() for c in row] for row in obj.entries]


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
        ctx = field_ctx(2, 1, 4)
        rng = random.Random(5)
        L = LinearizedPoly(ctx, [ctx.random_element(rng) for _ in range(4)])
        D = L.dickson_matrix()
        for i in range(4):
            for j in range(4):
                assert D.entry(i, j) == L.coeffs[(j - i) % 4].frobenius(ctx.e * i)

    def test_row_zero_recovers_poly(self, L):
        assert L.dickson_matrix().poly() == L


class TestDeterminantAndInverse:
    def test_identity_matrix(self, f9):
        D = LinearizedPoly.identity(f9).dickson_matrix()
        assert D.det() == f9.one
        assert D.inverse() == D

    def test_equal_rows_are_singular(self, f9):
        D = DicksonMatrix(f9, [[f9.one, f9.one], [f9.one, f9.one]])
        assert D.det() == f9.zero
        with pytest.raises(SingularMatrixError):
            D.inverse()

    def test_worked_values(self, f9, L):
        D = L.dickson_matrix()
        assert D.det().to_int() == 1
        assert encs(D.inverse()) == [[7, 2], [2, 4]]

    def test_zero_matrix_inverse_raises(self, f9):
        D = LinearizedPoly.zero(f9).dickson_matrix()
        with pytest.raises(SingularMatrixError):
            D.inverse()

    @pytest.mark.parametrize("p,e,n", EXHAUSTIVE_FIELDS)
    def test_inverse_times_matrix_is_identity(self, p, e, n):
        ctx = field_ctx(p, e, n)
        ident = LinearizedPoly.identity(ctx).dickson_matrix()
        rng = random.Random(n * 37 + p)
        produced = 0
        while produced < 6:
            L = LinearizedPoly(ctx, [ctx.random_element(rng) for _ in range(n)])
            D = L.dickson_matrix()
            if not D.det():
                continue
            produced += 1
            assert D @ D.inverse() == ident
            assert D.inverse() @ D == ident

    def test_cofactors_match_minors_and_adjugate(self, f9, L):
        D = L.dickson_matrix()
        det, Dinv = D.det_and_inverse()
        for i in range(2):
            # cofactor (i, 0) appears in the adjugate row 0 scaled by 1/det
            assert D.cofactor(i, 0) == det * Dinv.entry(0, i)

    def test_cofactors_defined_for_singular(self, f9):
        L = LinearizedPoly.from_encodings(f9, [3, 1])  # det = 0
        D = L.dickson_matrix()
        assert D.det() == f9.zero
        assert D.cofactor(0, 0) == D.entry(1, 1)
        assert D.cofactor(1, 0) == -D.entry(0, 1)


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
        zero_products = []
        real = FieldElem.__mul__

        def mul(self, other):
            if not (self and other):
                zero_products.append((self.to_int(), other.to_int()))
            return real(self, other)

        monkeypatch.setattr(FieldElem, "__mul__", mul)
        for p, e, n in [(3, 1, 6), (2, 2, 4), (5, 1, 4)]:
            ctx = field_ctx(p, e, n)
            rng = random.Random(29 * p + n)
            for r in range(1, n):
                for _ in range(3):
                    binomial = BinomialSpec(ctx.random_element(rng), r).poly()
                    dense = LinearizedPoly(
                        ctx, [ctx.random_element(rng) for _ in range(n)])
                    for poly in (binomial, dense):
                        if poly.dickson_matrix().det():
                            inverse_dickson(poly)
        assert zero_products == []


class TestAlgebraicStructure:
    @pytest.mark.parametrize("p,e,n", EXHAUSTIVE_FIELDS)
    def test_dickson_matrix_is_multiplicative(self, p, e, n):
        ctx = field_ctx(p, e, n)
        rng = random.Random(13 * p + n)
        for _ in range(8):
            A = LinearizedPoly(ctx, [ctx.random_element(rng) for _ in range(n)])
            B = LinearizedPoly(ctx, [ctx.random_element(rng) for _ in range(n)])
            assert (A.compose(B).dickson_matrix()
                    == A.dickson_matrix() @ B.dickson_matrix())

    @pytest.mark.parametrize("p,e,n", SWEEP_FIELDS)
    def test_inverse_poly_has_inverse_matrix(self, p, e, n):
        # the row-0 solve against full Gauss-Jordan, on dense random L
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
            assert inverse_dickson(L).dickson_matrix() == D.inverse()
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
