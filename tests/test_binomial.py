"""Binomial permutation criterion, closed-form inverses, and lifting."""

import math

import pytest

from linperm import (BinomialSpec, LinearizedPoly, NotAPermutationError,
                     UnsupportedShapeError, brute_is_permutation,
                     embed_subfield, field_ctx, geometric_power,
                     inverse_binomial, inverse_dickson, inverse_special,
                     is_permutation_binomial, is_permutation_dickson, lift)

SMALL_FIELDS = [(2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 2, 2), (3, 1, 2),
                (3, 1, 3), (5, 1, 2), (3, 1, 4), (2, 1, 6)]


def all_specs(ctx):
    for r in range(1, ctx.n):
        for enc in range(ctx.order):
            yield BinomialSpec(ctx.from_int(enc), r)


class TestSpec:
    def test_fields(self, f9):
        spec = BinomialSpec(f9.from_int(4), 1)
        assert spec.r == 1 and spec.d == 1
        assert spec.poly() == LinearizedPoly.from_encodings(f9, [4, 1])

    def test_gcd_cached(self):
        ctx = field_ctx(2, 1, 6)
        assert BinomialSpec(ctx.one, 4).d == 2
        assert BinomialSpec(ctx.one, 3).d == 3

    def test_r_range_enforced(self, f9):
        with pytest.raises(ValueError):
            BinomialSpec(f9.one, 0)
        with pytest.raises(ValueError):
            BinomialSpec(f9.one, 2)


class TestPermutationCriterion:
    def test_worked_values(self, f9):
        assert is_permutation_binomial(BinomialSpec(f9.zero, 1))
        assert not is_permutation_binomial(BinomialSpec(f9.from_int(3), 1))
        assert is_permutation_binomial(BinomialSpec(f9.from_int(4), 1))

    @pytest.mark.parametrize("p,e,n", SMALL_FIELDS)
    def test_three_criteria_agree(self, p, e, n):
        ctx = field_ctx(p, e, n)
        for spec in all_specs(ctx):
            L = spec.poly()
            expected = brute_is_permutation(L)
            assert is_permutation_binomial(spec) == expected
            assert is_permutation_dickson(L) == expected

    @pytest.mark.parametrize("p,e,n", SMALL_FIELDS)
    def test_denominator_vanishes_exactly_off_criterion(self, p, e, n):
        # N(a) + (-1)^(n/d - 1) = 0 exactly when (-1)^(n/d) N(a) = 1
        ctx = field_ctx(p, e, n)
        minus_one = -ctx.one
        for spec in all_specs(ctx):
            nd = n // spec.d
            nor = spec.a.norm_rel(spec.d)
            lhs = not nor + minus_one ** (nd - 1)
            rhs = (minus_one ** nd) * nor == ctx.one
            assert lhs == rhs


class TestGeometricPower:
    def test_first_term_is_a(self, f9):
        a = f9.from_int(4)
        assert geometric_power(a, 1, 0) == a

    def test_worked_value(self, f9):
        assert geometric_power(f9.from_int(4), 1, 1).to_int() == 2

    @pytest.mark.parametrize("p,e,n", SMALL_FIELDS)
    def test_full_product_is_the_relative_norm(self, p, e, n):
        ctx = field_ctx(p, e, n)
        for r in range(1, n):
            d = math.gcd(n, r)
            for enc in range(1, ctx.order):
                a = ctx.from_int(enc)
                assert geometric_power(a, r, n // d - 1) == a.norm_rel(d)

    @pytest.mark.parametrize("p,e,n", [(3, 1, 2), (2, 1, 4), (2, 2, 2)])
    def test_matches_explicit_exponent(self, p, e, n):
        ctx = field_ctx(p, e, n)
        q = ctx.q
        for r in range(1, n):
            d = math.gcd(n, r)
            for i in range(n // d):
                exponent = (q ** (r * (i + 1)) - 1) // (q**r - 1)
                for enc in range(1, ctx.order):
                    a = ctx.from_int(enc)
                    assert geometric_power(a, r, i) == a ** exponent

    def test_domain_errors(self, f9):
        with pytest.raises(ZeroDivisionError):
            geometric_power(f9.zero, 1, 0)
        with pytest.raises(ValueError):
            geometric_power(f9.one, 1, 2)
        with pytest.raises(ValueError):
            geometric_power(f9.one, 2, 0)


class TestInverseBinomial:
    def test_monomial_case(self, f9):
        assert (inverse_binomial(BinomialSpec(f9.zero, 1))
                == LinearizedPoly.monomial(f9, 1))

    def test_worked_value(self, f9):
        M = inverse_binomial(BinomialSpec(f9.from_int(4), 1))
        assert M.to_encodings() == (7, 2)

    def test_rejects_non_permutation(self, f9):
        with pytest.raises(NotAPermutationError) as info:
            inverse_binomial(BinomialSpec(f9.from_int(3), 1))
        assert info.value.criterion_value == f9.one

    @pytest.mark.parametrize("p,e,n", SMALL_FIELDS)
    def test_composes_to_identity(self, p, e, n):
        ctx = field_ctx(p, e, n)
        ident = LinearizedPoly.identity(ctx)
        for spec in all_specs(ctx):
            if not is_permutation_binomial(spec):
                continue
            L = spec.poly()
            M = inverse_binomial(spec)
            assert L.compose(M) == ident
            assert M.compose(L) == ident

    @pytest.mark.parametrize("p,e,n", [(3, 1, 2), (2, 2, 2), (2, 1, 4), (3, 1, 4)])
    def test_half_slot_case_matches_direct_formula(self, p, e, n):
        # at r = n/2 the inverse collapses to
        # (a^(q^(n/2)) x - x^(q^(n/2))) / (a^(q^(n/2)+1) - 1)
        ctx = field_ctx(p, e, n)
        h = n // 2
        q = ctx.q
        for enc in range(1, ctx.order):
            a = ctx.from_int(enc)
            spec = BinomialSpec(a, h)
            b = a ** (q**h)
            den = b * a - ctx.one
            if not den:
                assert not is_permutation_binomial(spec)
                continue
            coeffs = [ctx.zero] * n
            coeffs[0] = b / den
            coeffs[h] = -(ctx.one / den)
            assert inverse_binomial(spec) == LinearizedPoly(ctx, coeffs)


class TestInverseSpecial:
    def test_worked_value_r_one(self, f9):
        M = inverse_special(BinomialSpec(f9.from_int(4), 1), which="r_one")
        assert M.to_encodings() == (7, 2)

    def test_worked_value_half(self, f9):
        M = inverse_special(BinomialSpec(f9.from_int(4), 1), which="half")
        assert M.to_encodings() == (7, 2)

    def test_monomial_case(self, f9):
        assert (inverse_special(BinomialSpec(f9.zero, 1))
                == LinearizedPoly.monomial(f9, 1))

    def test_rejects_non_permutation(self, f9):
        for which in ("r_one", "half", "coprime"):
            with pytest.raises(NotAPermutationError):
                inverse_special(BinomialSpec(f9.from_int(3), 1), which=which)

    def test_unsupported_shape(self):
        ctx = field_ctx(2, 1, 6)
        with pytest.raises(UnsupportedShapeError):
            inverse_special(BinomialSpec(ctx.one, 2))  # d=2, not 1, not n/2
        with pytest.raises(UnsupportedShapeError):
            inverse_special(BinomialSpec(ctx.one, 1), which="half")
        with pytest.raises(ValueError):
            inverse_special(BinomialSpec(ctx.one, 1), which="bogus")

    @pytest.mark.parametrize("p,e,n", SMALL_FIELDS)
    def test_agrees_with_general_formula_on_every_shape(self, p, e, n):
        from linperm.binomial import _shapes

        ctx = field_ctx(p, e, n)
        for spec in all_specs(ctx):
            if not is_permutation_binomial(spec):
                continue
            M = inverse_binomial(spec)
            for shape in _shapes(spec):
                assert inverse_special(spec, which=shape) == M


class TestMethodAgreement:
    @pytest.mark.parametrize("p,e,n", SMALL_FIELDS)
    def test_matrix_method_matches_closed_form(self, p, e, n):
        ctx = field_ctx(p, e, n)
        for spec in all_specs(ctx):
            if is_permutation_binomial(spec):
                assert inverse_dickson(spec.poly()) == inverse_binomial(spec)


class TestLift:
    def test_identity_extension(self, f9):
        L = LinearizedPoly.from_encodings(f9, [4, 1])
        lifted = lift(L, 1, f9)
        assert lifted == L

    def test_worked_case(self, f9, f729):
        L = LinearizedPoly.from_encodings(f9, [4, 1])
        lifted = lift(L, 3, f729)
        assert lifted.coeffs[0] == embed_subfield(f9.from_int(4), f729)
        assert lifted.coeffs[1] == f729.one
        assert brute_is_permutation(lifted)

    def test_zero_lifts_to_zero(self, f9, f729):
        assert lift(LinearizedPoly.zero(f9), 3, f729) == LinearizedPoly.zero(f729)

    def test_slot_permutation(self):
        ctx = field_ctx(2, 1, 3)
        big = field_ctx(2, 2, 3)
        L = LinearizedPoly.from_encodings(ctx, [2, 3, 4])
        lifted = lift(L, 2, big)
        for i in range(3):
            assert lifted.coeffs[i] == embed_subfield(L.coeffs[(2 * i) % 3], big)

    def test_agrees_on_embedded_subfield(self, f9, f729):
        L = LinearizedPoly.from_encodings(f9, [4, 1])
        lifted = lift(L, 3, f729)
        for x in f9.elements():
            assert lifted.eval(embed_subfield(x, f729)) == embed_subfield(
                L.eval(x), f729)

    def test_parameter_errors(self, f9, f729):
        L = LinearizedPoly.from_encodings(f9, [4, 1])
        with pytest.raises(ValueError):
            lift(L, 2, f729)  # gcd(2, 2) != 1
        with pytest.raises(ValueError):
            lift(L, 0, f729)
        with pytest.raises(ValueError):
            lift(L, 3, field_ctx(3, 1, 6))  # right size, wrong tower split

    @pytest.mark.parametrize("p,e,n,t", [(2, 1, 2, 3), (2, 1, 3, 2), (3, 1, 2, 3)])
    def test_permutations_stay_permutations(self, p, e, n, t):
        ctx = field_ctx(p, e, n)
        big = field_ctx(p, e * t, n)
        for spec in all_specs(ctx):
            if not is_permutation_binomial(spec):
                continue
            assert brute_is_permutation(lift(spec.poly(), t, big))
