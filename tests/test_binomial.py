"""Binomial permutation criterion, closed-form inverses, and lifting."""

import math
import random

import pytest

from linperm import (BinomialSpec, FieldElem, LinearizedPoly,
                     NotAPermutationError, SweepConfig, UnsupportedShapeError,
                     brute_is_permutation, embed_subfield, field_ctx,
                     inverse_binomial, inverse_dickson, inverse_special,
                     is_permutation_binomial, is_permutation_dickson, lift,
                     sweep)
from linperm.oracle import _grid

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

    def test_a_must_be_a_field_element(self, f9):
        with pytest.raises(TypeError, match="field element"):
            BinomialSpec(5, 1)
        with pytest.raises(TypeError, match="field element"):
            BinomialSpec(None, 1)


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


def count_norms(monkeypatch):
    """Record the degree d of every FieldElem.norm_rel call from now on."""
    calls = []
    real = FieldElem.norm_rel

    def norm_rel(self, d):
        calls.append(d)
        return real(self, d)

    monkeypatch.setattr(FieldElem, "norm_rel", norm_rel)
    return calls


class TestCachedCriterion:
    """spec.norm and spec.delta, the one N(a) of a binomial and the
    denominator built from it."""

    @pytest.mark.parametrize("p,e,n", [(3, 1, 2), (2, 1, 6)])
    def test_norm_and_delta_match_the_criterion(self, p, e, n):
        for spec in all_specs(field_ctx(p, e, n)):
            assert spec.norm == spec.a.norm_rel(spec.d)
            assert bool(spec.delta) == is_permutation_binomial(spec)

    def test_criterion_and_inverse_share_one_norm(self, monkeypatch, f9):
        calls = count_norms(monkeypatch)
        spec = BinomialSpec(f9.from_int(4), 1)
        assert is_permutation_binomial(spec)
        inverse_binomial(spec)
        assert calls == [1]

    def test_sweep_computes_one_norm_per_case(self, monkeypatch):
        calls = count_norms(monkeypatch)
        report = sweep(SweepConfig(max_field_order=9, primes=(3,)))
        assert report.cases == len(calls) == 9


def geometric_power(a, r, i):
    """The conjugate product a^(1 + q^r + ... + q^(i*r)) as a linear chain
    of Frobenius images and products."""
    acc = y = a
    for _ in range(i):
        y = y.frobenius(a.ctx.e * r)
        acc = acc * y
    return acc


class TestGeometricPower:
    """Conjugate products a^(1 + q^r + ... + q^(i*r)), the prefix products
    of the oracle's cofactor check, against norms and explicit powers;
    with the suffix product of the closed-form inverse they make N(a)."""

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

    @pytest.mark.parametrize("p,e,n", SMALL_FIELDS)
    def test_prefix_times_suffix_is_the_relative_norm(self, p, e, n):
        # the conjugates a^(q^(j*r)), j < n/d, multiply to N(a), so the
        # closed form's suffix products are the prefix products over N(a)
        ctx = field_ctx(p, e, n)
        for r in range(1, n):
            d = math.gcd(n, r)
            for enc in range(1, ctx.order):
                a = ctx.from_int(enc)
                for i in range(n // d):
                    suffix = ctx.one
                    for j in range(i + 1, n // d):
                        suffix = suffix * a.frobenius(ctx.e * j * r)
                    assert geometric_power(a, r, i) * suffix == a.norm_rel(d)

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


class TestInverseBinomial:
    def test_monomial_case(self, f9):
        assert (inverse_binomial(BinomialSpec(f9.zero, 1))
                == LinearizedPoly.monomial(f9, 1))

    def test_worked_value(self, f9):
        M = inverse_binomial(BinomialSpec(f9.from_int(4), 1))
        assert M.to_encodings() == (7, 2)

    def test_rejects_non_permutation(self, f9):
        with pytest.raises(NotAPermutationError):
            inverse_binomial(BinomialSpec(f9.from_int(3), 1))

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
            coeffs[0] = b * den.inv()
            coeffs[h] = -den.inv()
            assert inverse_binomial(spec) == LinearizedPoly(ctx, coeffs)


def count_int_ops(monkeypatch, ctx):
    """Wrap the context's int-level (mul, inv, frob, pow, orbit) in
    counters; the dict maps each name to the list of its first operands."""
    calls = {name: [] for name in ("mul", "inv", "frob", "pow", "orbit")}

    def counted(name, op):
        def wrapper(x, *rest):
            calls[name].append(x)
            return op(x, *rest)
        return wrapper

    monkeypatch.setattr(ctx, "_ops", tuple(
        counted(name, op) for name, op in zip(calls, ctx.int_ops())))
    return calls


class TestClosedFormWork:
    """The closed form inverts delta alone, takes the orbit of a once and
    makes n/d - 1 products on packed ints, with no Frobenius image."""

    @pytest.mark.parametrize("p,e,n,r,constant", [
        (3, 1, 32, 1, True), (3, 1, 32, 16, False), (2, 2, 16, 4, False)])
    def test_operation_counts(self, monkeypatch, p, e, n, r, constant):
        ctx = field_ctx(p, e, n)
        rng = random.Random(n * r)
        spec = BinomialSpec(ctx.random_element(rng), r)
        while not (spec.a and is_permutation_binomial(spec)):
            spec = BinomialSpec(ctx.random_element(rng), r)
        spec.norm
        calls = count_int_ops(monkeypatch, ctx)
        M = inverse_binomial(spec)
        steps = n // spec.d - 1
        assert calls["inv"] == [spec.delta.packed]
        assert calls["orbit"] == [spec.a.packed]
        assert (spec.delta.packed < 1 << 8 * ctx.packing.width) == constant
        assert [len(calls[k]) for k in ("mul", "frob", "pow")] == [
            steps, 0, 0]
        monkeypatch.undo()
        ident = LinearizedPoly.identity(ctx)
        assert spec.poly().compose(M) == ident == M.compose(spec.poly())


class TestInverseSpecial:
    def test_worked_value_r_one(self, f9):
        M = inverse_special(BinomialSpec(f9.from_int(4), 1), which="coprime")
        assert M.to_encodings() == (7, 2)

    def test_worked_value_half(self, f9):
        M = inverse_special(BinomialSpec(f9.from_int(4), 1), which="half")
        assert M.to_encodings() == (7, 2)

    def test_monomial_case(self, f9):
        assert (inverse_special(BinomialSpec(f9.zero, 1))
                == LinearizedPoly.monomial(f9, 1))

    def test_rejects_non_permutation(self, f9):
        for which in ("half", "coprime"):
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
    @pytest.mark.parametrize("p,e,n", list(_grid(SweepConfig())))
    def test_identity_extension(self, p, e, n):
        # the sweep checks a lift equal to its source on the source's own
        # table; every t = 1 lift must be one, on every context it sweeps
        ctx = field_ctx(p, e, n)
        rng = random.Random(1000 * p + 100 * e + n)
        for r in range(1, n):
            for enc in [0, 1] + [rng.randrange(ctx.order) for _ in range(4)]:
                L = BinomialSpec(ctx.from_int(enc), r).poly()
                assert lift(L, 1, ctx) == L
        xs = [ctx.zero, ctx.one, ctx.gen()]
        xs += [ctx.random_element(rng) for _ in range(8)]
        for x in xs:
            assert embed_subfield(x, ctx) == x

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
