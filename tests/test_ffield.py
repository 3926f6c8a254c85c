"""Field construction, arithmetic laws, Frobenius, norms, and embeddings."""

import functools
import random
import time

import pytest
from sympy.polys import galoistools as gt
from sympy.polys.domains import ZZ

from linperm import (BinomialSpec, ContextMismatchError, FieldCtx,
                     embed_subfield, field_ctx, find_irreducible, lift)
from linperm import _kernel, ffield, oracle
from linperm.ffield import (_binomials_reducible, _is_irreducible, _power,
                            coeffs_to_int, int_to_coeffs, is_prime)

from conftest import EXHAUSTIVE_FIELDS, sweep_contexts


def divides(g, f, p):
    """Plain coefficient long division: does the monic ``g`` divide ``f``?"""
    f = list(f)
    dg = len(g) - 1
    for k in range(len(f) - 1, dg - 1, -1):
        c = f[k]
        if c:
            for j in range(dg + 1):
                f[k - dg + j] = (f[k - dg + j] - c * g[j]) % p
    return not any(f)


def trial_division_irreducible(f, p, max_divisor_degree=None):
    """No monic divisor of degree 1 .. max_divisor_degree (default m - 1)."""
    m = len(f) - 1
    top = m - 1 if max_divisor_degree is None else max_divisor_degree
    for dd in range(1, top + 1):
        for gtail in range(p**dd):
            if divides(list(int_to_coeffs(gtail, dd, p)) + [1], f, p):
                return False
    return True


def brute_minimal_irreducible(p, m):
    """Independent scan: first monic degree-m encoding with no factorization.

    Divisibility is checked against every lower-degree monic polynomial by
    plain coefficient long division, so this shares nothing with the library
    search path beyond the encoding convention.
    """
    for tail in range(p**m):
        f = list(int_to_coeffs(tail, m, p)) + [1]
        if trial_division_irreducible(f, p):
            return tuple(f)
    raise AssertionError("no irreducible found")


def reference_minimal_root(p, small_mod, big_mod):
    """Independent scan: the smallest encoding in GF(p)[x]/(big_mod) that is
    a root of ``small_mod``, with schoolbook products and long division."""
    m = len(big_mod) - 1

    def mulmod(a, b):
        prod = [0] * (2 * m - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
        for k in range(2 * m - 2, m - 1, -1):
            c = prod[k]
            for j in range(m + 1):
                prod[k - m + j] = (prod[k - m + j] - c * big_mod[j]) % p
        return prod[:m]

    for enc in range(p**m):
        u = list(int_to_coeffs(enc, m, p))
        acc = [0] * m
        for c in reversed(small_mod):
            acc = mulmod(acc, u)
            acc[0] = (acc[0] + c) % p
        if not any(acc):
            return enc
    raise AssertionError("no root found")


# every (small, big) degree pair with small dividing big and p^big <= 4096
SCANNABLE_EMBEDDINGS = [
    (p, ms, mb)
    for p, top in ((2, 12), (3, 7), (5, 5))
    for mb in range(1, top + 1)
    for ms in range(1, mb + 1) if mb % ms == 0
]


class TestFindIrreducible:
    def test_degree_one_is_x(self):
        assert find_irreducible(2, 1) == (0, 1)
        assert coeffs_to_int(find_irreducible(2, 1), 2) == 2

    def test_frozen_small_moduli(self):
        # x^3 + x + 1 over GF(2) and x^2 + 1 over GF(3), both scan-minimal
        assert coeffs_to_int(find_irreducible(2, 3), 2) == 11
        assert coeffs_to_int(find_irreducible(3, 2), 3) == 10

    @pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (2, 4), (2, 5),
                                     (3, 2), (3, 3), (5, 2), (7, 2),
                                     (2, 6), (2, 7), (2, 8), (3, 4), (5, 3),
                                     (7, 3)])
    def test_matches_independent_minimal_scan(self, p, m):
        assert find_irreducible(p, m) == brute_minimal_irreducible(p, m)

    def test_deterministic(self):
        assert find_irreducible(3, 4) == find_irreducible(3, 4)
        assert field_ctx(3, 1, 4).modulus == field_ctx(3, 2, 2).modulus

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            find_irreducible(4, 2)
        with pytest.raises(ValueError):
            find_irreducible(2, 0)

    @pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
                                     (2, 7), (2, 8), (3, 2), (3, 3), (3, 4),
                                     (3, 5), (5, 2), (5, 3), (7, 2), (7, 3)])
    def test_is_irreducible_matches_trial_division(self, p, m):
        # a reducible polynomial has a factor of degree at most m/2
        for tail in range(p**m):
            f = int_to_coeffs(tail, m, p) + (1,)
            assert _is_irreducible(f, p) == trial_division_irreducible(
                f, p, m // 2), f

    def test_large_characteristic_fields_build(self):
        # the irreducibility test costs O(log p) products per degree, so
        # these finish at once instead of enumerating p^(m/2) divisors
        ctx = FieldCtx(2**31 - 1, 1, 2)
        assert ctx.modulus == (1, 0, 1)  # x^2 + 1; -1 is a non-square
        ctx = FieldCtx(1009, 1, 4)
        assert ctx.modulus == find_irreducible(1009, 4)

    @pytest.mark.parametrize("p", [v for v in range(2, 32) if is_prime(v)])
    def test_binomial_skip_matches_plain_scan(self, p):
        for m in range(1, 13):
            binomial_irreducible = [
                c for c in range(p)
                if _is_irreducible(int_to_coeffs(c, m, p) + (1,), p)]
            # Capelli's criterion is exact: the skip fires iff the block
            # of binomials holds no irreducible
            assert _binomials_reducible(p, m) == (not binomial_irreducible)
            plain = next(
                int_to_coeffs(tail, m, p) + (1,) for tail in range(p**m)
                if _is_irreducible(int_to_coeffs(tail, m, p) + (1,), p))
            assert find_irreducible(p, m) == plain

    @pytest.mark.parametrize("p,m,modulus", [
        (1000003, 4, (1, 1, 0, 0, 1)),        # x^4 + x + 1
        (2**31 - 1, 4, (1, 1, 0, 0, 1)),
        (2**31 - 1, 8, (8, 1, 0, 0, 0, 0, 0, 0, 1)),
    ])
    def test_pinned_large_moduli_past_the_binomials(self, p, m, modulus):
        # p = 3 (mod 4) and 4 | m: no x^m + c is irreducible, so the p
        # binomials are skipped instead of scanned
        assert _binomials_reducible(p, m)
        assert find_irreducible(p, m) == modulus

    @pytest.mark.parametrize("p,m", [(2, 4), (3, 3), (2, 11), (1009, 4),
                                     (2**31 - 1, 2), (1000003, 4),
                                     (2**31 - 1, 4)])
    def test_irreducibility_witness(self, p, m):
        # divides x^(p^m) - x, and gcd(x^(p^j) - x, f) = 1 for all j < m,
        # in sympy's arithmetic over GF(p) (big-endian coefficient lists)
        f = [ZZ(c) for c in reversed(find_irreducible(p, m))]
        x = [ZZ(1), ZZ(0)]
        t = x
        for j in range(1, m + 1):
            t = gt.gf_pow_mod(t, p, f, p, ZZ)
            diff = gt.gf_sub(t, x, p, ZZ)
            if j < m:
                assert gt.gf_gcd(f, diff, p, ZZ) == [ZZ(1)]
            else:
                assert not diff
        assert gt.gf_irreducible_p(f, p, ZZ)


class TestContext:
    def test_parameters(self, f9):
        assert (f9.p, f9.e, f9.n, f9.m) == (3, 1, 2, 2)
        assert f9.q == 3 and f9.order == 9
        assert f9.modulus_int == 10

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            FieldCtx(6, 1, 2)
        with pytest.raises(ValueError):
            FieldCtx(2, 0, 2)
        with pytest.raises(ValueError):
            FieldCtx(2, 1, -1)
        with pytest.raises(ValueError):
            FieldCtx(2147483659, 1, 1)  # prime, but beyond the word-size bound

    def test_rejects_degrees_above_the_bound(self, monkeypatch):
        # the bound is checked before the modulus search starts
        monkeypatch.setattr(ffield, "_is_irreducible", None)
        m = ffield.MAX_DEGREE + 1
        with pytest.raises(ValueError, match="m=129 exceeds the bound 128"):
            find_irreducible(2, m)
        for e, n in ((1, m), (m, 1), (3, 43)):
            with pytest.raises(ValueError,
                               match=f"m={e * n} exceeds the bound 128"):
                FieldCtx(2, e, n)

    def test_encoding_round_trip(self, f9):
        for enc in range(9):
            assert f9.from_int(enc).to_int() == enc
        with pytest.raises(ValueError):
            f9.from_int(9)
        with pytest.raises(ValueError):
            f9.from_int(-1)

    @pytest.mark.parametrize("p,e,n", [(3, 1, 2), (3, 1, 32)])
    def test_encoding_must_be_an_int(self, p, e, n):
        ctx = field_ctx(p, e, n)
        for value in (1.5, 2.0):
            with pytest.raises(TypeError,
                               match="expected an int encoding, got float"):
                ctx.from_int(value)
        assert ctx.from_int(True) == ctx.one

    def test_equality_and_cache(self):
        assert field_ctx(3, 1, 2) is field_ctx(3, 1, 2)
        assert FieldCtx(3, 1, 2) == field_ctx(3, 1, 2)
        assert field_ctx(3, 1, 2) != field_ctx(3, 2, 1)  # same field, other tower


def cold_caches(monkeypatch):
    """Swap ``find_irreducible`` and ``field_ctx`` for empty caches of the
    same configuration, so a call sees no entry cached by other tests."""
    for name in ("find_irreducible", "field_ctx"):
        real = getattr(ffield, name)
        monkeypatch.setattr(ffield, name, functools.lru_cache(
            **real.cache_parameters())(real.__wrapped__))


class TestParameterChecks:
    """Bad p and m are rejected cheaply, and whatever the caches hold."""

    @pytest.mark.parametrize("call,args,match", [
        ("field_ctx", (5.0, 1, 2), "p=5.0 is not prime"),
        ("find_irreducible", (7, 2.0), "m=2.0 must be a positive integer"),
        ("find_irreducible", (5.0, 2), "p=5.0 is not prime"),
    ])
    @pytest.mark.parametrize("warm", [False, True])
    def test_non_int_rejected_in_either_cache_order(self, monkeypatch, call,
                                                    args, match, warm):
        # float keys once hashed equal to cached int keys, so they were
        # refused cold and answered warm
        cold_caches(monkeypatch)
        fn = getattr(ffield, call)
        if warm:
            fn(*map(int, args))
        with pytest.raises(ValueError, match=match):
            fn(*args)
        assert fn(*map(int, args)) is not None
        with pytest.raises(ValueError, match=match):
            fn(*args)

    @pytest.mark.parametrize("p", [2**31 + 11, 1099511627791, 2**61 - 1])
    @pytest.mark.parametrize("step", [1, -1])
    def test_primes_above_the_bound_fail_at_once(self, monkeypatch, p, step):
        # 2^31 + 11 once got a modulus that FieldCtx refuses, a prime near
        # 2^40 died in the 11-byte slot packing, and 2^61 - 1 ran trial
        # division for minutes; the calls run in both orders
        cold_caches(monkeypatch)
        start = time.process_time()
        for call, args in (("find_irreducible", (p, 3)),
                           ("find_irreducible", (p, 2)),
                           ("field_ctx", (p, 1, 1)))[::step]:
            with pytest.raises(ValueError, match="exceeds the word-size bound"):
                getattr(ffield, call)(*args)
        assert time.process_time() - start < 1.0

    def test_composite_above_the_bound_reports_the_bound(self):
        with pytest.raises(ValueError, match="exceeds the word-size bound"):
            ffield.check_characteristic(2**62)
        with pytest.raises(ValueError, match="is not prime"):
            ffield.check_characteristic(2**31 - 3)


class TestArithmetic:
    def test_f9_worked_values(self, f9):
        t = f9.from_int(3)
        assert (t * t).to_int() == 2
        assert (f9.from_int(4) * f9.from_int(5)).to_int() == 1
        assert f9.from_int(4).inv().to_int() == 5
        assert f9.one.inv() == f9.one

    def test_mul_identity_and_zero(self, f9):
        for x in f9.elements():
            assert x * f9.one == x
            assert x * f9.zero == f9.zero

    def test_inverse_of_zero_raises(self, f9):
        with pytest.raises(ZeroDivisionError):
            f9.zero.inv()

    @pytest.mark.parametrize("p,e,n", [(2, 1, 5), (3, 1, 4), (1009, 1, 6)])
    def test_element_equality_hash_and_bool(self, p, e, n):
        ctx = field_ctx(p, e, n)
        twin = FieldCtx(p, e, n)  # equal context, another object
        tower = field_ctx(p, e * n, 1)  # same modulus, other tower
        top = p ** (ctx.m - 1)  # only the top digit set
        for enc in (0, 1, p - 1, top, ctx.order - 1):
            x = ctx.from_int(enc)
            assert x == twin.from_int(enc)
            assert hash(x) == hash(twin.from_int(enc))
            assert x.packed == tower.from_int(enc).packed
            assert x != tower.from_int(enc)
            assert bool(x) == (enc != 0)
            assert x != ctx.from_int((enc + 1) % ctx.order)
        assert not ctx.zero and ctx.one
        assert ctx.from_int(top) != top  # no equality with a bare int
        elements = {ctx.from_int(enc) for enc in range(min(ctx.order, 500))}
        assert len(elements) == min(ctx.order, 500)

    def test_context_mismatch(self, f9):
        other = field_ctx(2, 1, 2)
        with pytest.raises(ContextMismatchError):
            f9.one + other.one

    def test_bare_int_operand(self, f9):
        with pytest.raises(TypeError, match="expected a field element"):
            f9.one + 1
        with pytest.raises(TypeError, match="expected a field element"):
            f9.one * 1

    @pytest.mark.parametrize("p,e,n", EXHAUSTIVE_FIELDS)
    def test_field_laws(self, p, e, n):
        ctx = field_ctx(p, e, n)
        xs = list(ctx.elements())
        for x in xs:
            assert x + (-x) == ctx.zero
            assert x ** ctx.order == x
            if x:
                assert x * x.inv() == ctx.one
        # associativity and distributivity spot grid
        sample = xs[:: max(1, len(xs) // 6)]
        for x in sample:
            for y in sample:
                assert x * y == y * x
                for z in sample:
                    assert (x * y) * z == x * (y * z)
                    assert x * (y + z) == x * y + x * z

    def test_pow_negative_exponent(self, f9):
        a = f9.from_int(4)
        assert a ** -1 == a.inv()
        assert a ** -3 == (a ** 3).inv()


class TestFrobenius:
    def test_f9_values(self, f9):
        t = f9.from_int(3)
        assert t.frobenius(0) == t
        assert t.frobenius(1).to_int() == 6
        for x in f9.elements():
            assert x.frobenius(f9.m) == x

    def test_negative_power_rejected(self, f9):
        with pytest.raises(ValueError):
            f9.one.frobenius(-1)

    @pytest.mark.parametrize("p,e,n", [(3, 1, 6), (3, 1, 32)])
    def test_non_int_power_rejected(self, p, e, n):
        # on both sides of the log-table cap; above it 1.5 once recursed
        # through the map cache until RecursionError
        x = field_ctx(p, e, n).from_int(345)
        for k in (1.5, 2.0, "1"):
            with pytest.raises(TypeError, match="must be an int"):
                x.frobenius(k)

    @pytest.mark.parametrize("p,e,n", EXHAUSTIVE_FIELDS)
    def test_is_a_field_homomorphism(self, p, e, n):
        ctx = field_ctx(p, e, n)
        xs = list(ctx.elements())
        for k in range(ctx.m + 1):
            for x in xs:
                assert x.frobenius(k) == x ** (p**k)
            sample = xs[:: max(1, len(xs) // 8)]
            for x in sample:
                for y in sample:
                    assert (x + y).frobenius(k) == x.frobenius(k) + y.frobenius(k)
                    assert (x * y).frobenius(k) == x.frobenius(k) * y.frobenius(k)


    def test_one_warms_the_map_above_the_cap(self):
        # the GF(p) constants skip the matvec but still build the Frobenius
        # table, so one.frobenius(k) sets a big field up: all m maps and
        # their stack at once; zero and k = 0 build none
        ctx = FieldCtx(3, 1, 32)
        assert ctx.order > ffield.LOG_TABLE_MAX_ORDER
        assert ctx.one.frobenius(0) == ctx.one and ctx._frob is None
        for k in (5, 40, 64):
            assert ctx.zero.frobenius(k) == ctx.zero and ctx._frob is None
        assert ctx.one.frobenius(5) == ctx.one
        table = ctx._frob
        maps, stack = table
        assert len(maps) == ctx.m and len(stack) == ctx.m
        for k in (2, 40, 64):
            assert ctx.zero.frobenius(k) == ctx.zero
            assert ctx.one.frobenius(k) == ctx.one
            assert ctx._frob is table

    @pytest.mark.parametrize("p,e,n", [(3, 1, 32), (1009, 1, 6)])
    def test_packed_maps_match_basis_powers(self, p, e, n):
        # column j of map k is the basis vector x^j raised to p^k
        ctx = field_ctx(p, e, n)
        pk = ctx.packing
        for k in range(ctx.m):
            cols = ctx._frobenius_map(k)
            assert len(cols) == ctx.m
            for j, col in enumerate(cols):
                basis = ctx.from_int(p**j).packed
                assert col == _power(basis, p**k, ctx._mul, 1), (k, j)


class TestOrbit:
    """``int_ops`` orbit(x) = [x^(q^j) for j < n], against frob(x, e*j)."""

    @staticmethod
    def assert_orbits(ctx, encs):
        _, _, frob, _, orbit = ctx.int_ops()
        for enc in encs:
            x = ctx.from_int(enc).packed
            assert orbit(x) == [frob(x, ctx.e * j)
                                for j in range(ctx.n)], enc

    @pytest.mark.parametrize("p,e,n", [(3, 1, 6), (2, 1, 12), (2, 2, 3)])
    def test_every_element_of_a_table_field(self, p, e, n):
        # GF(4^3) has q != p
        ctx = field_ctx(p, e, n)
        assert ctx.order <= ffield.LOG_TABLE_MAX_ORDER
        self.assert_orbits(ctx, range(ctx.order))

    # slots of one byte (GF(3^32), GF(4^16)), two (GF(5^24)), four
    # (GF(1009^6)), eight (GF(65537^5)) and nine (GF((2^31 - 1)^6))
    @pytest.mark.parametrize("p,e,n", [
        (3, 1, 32), (2, 2, 16), (5, 1, 24), (1009, 2, 3), (65537, 1, 5),
        (2**31 - 1, 1, 6)])
    def test_samples_at_every_slot_width(self, p, e, n):
        ctx = field_ctx(p, e, n)
        assert ctx.order > ffield.LOG_TABLE_MAX_ORDER
        rng = random.Random(ctx.m * p)
        self.assert_orbits(ctx, [ctx.order - 1, p] + [
            rng.randrange(ctx.order) for _ in range(20)])

    @pytest.mark.parametrize("p,e,n", [(3, 1, 6), (2, 2, 3), (3, 1, 32),
                                       (2**31 - 1, 1, 6)])
    def test_zero_and_constants_repeat(self, p, e, n):
        ctx = field_ctx(p, e, n)
        orbit = ctx.int_ops()[4]
        for c in {0, 1, p - 1}:
            assert orbit(c) == [c] * n


def linear_chain_norm(x, d):
    """The relative norm as n/d - 1 Frobenius-and-multiply steps."""
    ctx = x.ctx
    acc = y = x
    for _ in range(ctx.n // d - 1):
        y = y.frobenius(ctx.e * d)
        acc = acc * y
    return acc


class TestNorm:
    # n/d is a power of two over GF(3^32) and GF(2^64); the other two
    # fields take the odd steps P(j+1) = x * P(j)^Q of the chain too
    @pytest.mark.parametrize("p,e,n", [(3, 1, 32), (2, 1, 64), (3, 1, 12),
                                       (2, 2, 15)])
    def test_doubling_matches_linear_chain(self, p, e, n):
        ctx = field_ctx(p, e, n)
        rng = random.Random(64 * p + n)
        xs = [ctx.random_element(rng) for _ in range(3)] + [ctx.zero, ctx.one]
        for d in range(1, n + 1):
            if n % d == 0:
                for x in xs:
                    assert x.norm_rel(d) == linear_chain_norm(x, d), (d, x)

    def test_f9_values(self, f9):
        t = f9.from_int(3)
        assert t.norm_rel(1).to_int() == 1
        assert f9.from_int(4).norm_rel(1).to_int() == 2
        assert f9.zero.norm_rel(1) == f9.zero
        for x in f9.elements():
            assert x.norm_rel(f9.n) == x

    def test_divisor_required(self, f9):
        with pytest.raises(ValueError):
            f9.one.norm_rel(3)
        with pytest.raises(ValueError):
            f9.one.norm_rel(0)

    @pytest.mark.parametrize("p,e,n", [(3, 1, 6), (3, 1, 32)])
    def test_non_int_degree_rejected(self, p, e, n):
        # 2.0 passes the divisor check, since 6 % 2.0 == 0.0
        x = field_ctx(p, e, n).from_int(345)
        for d in (2.0, 1.5, None):
            with pytest.raises(TypeError, match="must be an int"):
                x.norm_rel(d)

    @pytest.mark.parametrize("p,e,n", [(2, 1, 4), (3, 1, 4), (2, 2, 2), (2, 1, 6)])
    def test_norm_properties(self, p, e, n):
        ctx = field_ctx(p, e, n)
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        q = ctx.q
        for d in divisors:
            exponent = (q**n - 1) // (q**d - 1)
            for x in ctx.elements():
                nx = x.norm_rel(d)
                # lands in GF(q^d)
                assert nx.frobenius(ctx.e * d) == nx
                # agrees with the power-map definition
                if x:
                    assert nx == x ** exponent
            # multiplicative on a coarse grid
            xs = list(ctx.elements())
            sample = xs[:: max(1, len(xs) // 8)]
            for x in sample:
                for y in sample:
                    assert (x * y).norm_rel(d) == x.norm_rel(d) * y.norm_rel(d)


class TestEmbedding:
    def test_constants_and_units(self, f9, f729):
        for c in range(3):
            assert embed_subfield(f9.from_int(c), f729).to_int() == c
        assert embed_subfield(f9.zero, f729) == f729.zero
        assert embed_subfield(f9.one, f729) == f729.one

    def test_root_of_small_modulus(self, f9, f729):
        u = embed_subfield(f9.gen(), f729)
        assert not u * u + f729.one

    def test_tower_independent(self, f9, f729):
        flat = field_ctx(3, 1, 6)
        assert flat.modulus == f729.modulus
        t = f9.gen()
        assert embed_subfield(t, flat).packed == embed_subfield(t, f729).packed

    def test_argument_must_be_an_element(self, f729):
        with pytest.raises(TypeError, match="expected a field element"):
            embed_subfield(3, f729)

    def test_requires_divisible_degree(self, f9):
        with pytest.raises(ValueError):
            embed_subfield(f9.one, field_ctx(3, 1, 3))
        with pytest.raises(ValueError):
            embed_subfield(f9.one, field_ctx(2, 1, 4))

    @pytest.mark.parametrize("small,big", [
        ((2, 1, 2), (2, 2, 2)),
        ((3, 1, 2), (3, 3, 2)),
        ((2, 2, 2), (2, 4, 2)),
        ((2, 1, 3), (2, 3, 3)),
    ])
    def test_is_a_field_homomorphism_exhaustively(self, small, big):
        sctx = field_ctx(*small)
        bctx = field_ctx(*big)
        images = {x.to_int(): embed_subfield(x, bctx) for x in sctx.elements()}
        assert len(set(images.values())) == sctx.order  # injective
        for x in sctx.elements():
            for y in sctx.elements():
                assert images[(x + y).to_int()] == images[x.to_int()] + images[y.to_int()]
                assert images[(x * y).to_int()] == images[x.to_int()] * images[y.to_int()]

    def test_deterministic(self, f9, f729):
        a = f9.from_int(7)
        assert embed_subfield(a, f729) == embed_subfield(a, f729)

    @pytest.mark.parametrize("small,big,enc", [
        ((2, 1, 7), (2, 2, 7), 3374),
        ((5, 1, 3), (5, 2, 3), 11365),
        ((3, 1, 4), (3, 3, 4), 31578),
        ((2, 3, 3), (2, 6, 3), 27626),
    ])
    def test_pinned_generator_images(self, small, big, enc):
        # the pairs of the lift benchmark; values of the exhaustive scan
        assert embed_subfield(field_ctx(*small).gen(), field_ctx(*big)).to_int() == enc

    @pytest.mark.parametrize("p,ms,mb", SCANNABLE_EMBEDDINGS)
    def test_matches_reference_scan(self, p, ms, mb):
        small = field_ctx(p, 1, ms)
        big = field_ctx(p, 1, mb)
        got = embed_subfield(small.gen(), big).to_int()
        assert got == reference_minimal_root(p, small.modulus, big.modulus)

    @pytest.mark.parametrize("small,big", [
        ((3, 1, 7), (3, 2, 7)),
        ((1009, 1, 2), (1009, 2, 2)),
    ])
    def test_minimal_root_beyond_scan_range(self, small, big):
        # GF(3^14) has 4,782,969 elements and GF(1009^4) about 10^12
        sctx = field_ctx(*small)
        bctx = field_ctx(*big)
        u = embed_subfield(sctx.gen(), bctx)
        acc = bctx.zero
        for c in reversed(sctx.modulus):
            acc = acc * u + bctx.from_int(c)
        assert not acc
        conjugates = {u.frobenius(k).to_int() for k in range(sctx.m)}
        assert len(conjugates) == sctx.m
        assert u.to_int() == min(conjugates)
        rng = random.Random(14)
        for _ in range(12):
            x = sctx.random_element(rng)
            y = sctx.random_element(rng)
            ex = embed_subfield(x, bctx)
            ey = embed_subfield(y, bctx)
            assert embed_subfield(x + y, bctx) == ex + ey
            assert embed_subfield(x * y, bctx) == ex * ey


def vector_norm(x, d):
    """The relative norm onto GF(q^d) by packed Frobenius and mulmod."""
    ctx = x.ctx
    pk = ctx.packing
    cols = ctx._frobenius_map(ctx.e * d)
    acc = y = x.packed
    for _ in range(ctx.n // d - 1):
        y = _kernel.matvec(cols, _kernel.digits(y, pk), pk)
        acc = _kernel.mulmod(acc, y, pk)
    return acc


def assert_matches_vector_path(ctx, pairs, singles):
    """Table mul/inv/pow/frobenius/norm_rel against the packed kernels."""
    pk = ctx.packing
    for x, y in pairs:
        assert (x * y).packed == _kernel.mulmod(x.packed, y.packed, pk)
    exponents = [0, 1, 2, ctx.order - 2, ctx.order - 1, ctx.order, 3**ctx.m + 5]
    divisors = [d for d in range(1, ctx.n + 1) if ctx.n % d == 0]
    for x in singles:
        if x:
            assert x.inv().packed == _kernel.invmod(x.packed, pk)
        for k in exponents:
            assert (x ** k).packed == _power(x.packed, k, ctx._mul, 1)
        for k in range(ctx.m + 2):
            assert x.frobenius(k).packed == _kernel.matvec(
                ctx._frobenius_map(k), _kernel.digits(x.packed, pk), pk)
        for d in divisors:
            assert x.norm_rel(d).packed == vector_norm(x, d)
    assert ctx._log is not None


class TestLogTables:
    """Small contexts multiply through log tables; the packed kernels are
    the reference they must match."""

    @pytest.mark.parametrize("p,e,n", sweep_contexts(64))
    def test_matches_vector_path_exhaustively(self, p, e, n):
        ctx = field_ctx(p, e, n)
        xs = list(ctx.elements())
        assert_matches_vector_path(ctx, [(x, y) for x in xs for y in xs], xs)

    def test_matches_vector_path_near_the_cap(self):
        ctx = field_ctx(2, 2, 6)
        assert ctx.order == ffield.LOG_TABLE_MAX_ORDER
        rng = random.Random(4096)
        xs = [ctx.random_element(rng) for _ in range(300)] + [ctx.zero, ctx.one]
        assert_matches_vector_path(ctx, list(zip(xs, xs[::-1])), xs[:60])

    @pytest.mark.parametrize("p,m", [(3, 6), (2, 12)])
    def test_int_pow_matches_square_and_multiply(self, p, m):
        # one antilog lookup per power, against the vector kernel's
        # square-and-multiply at every nonzero element; GF(2^12) is the
        # largest field with tables
        ctx = field_ctx(p, 1, m)
        assert ctx.order <= ffield.LOG_TABLE_MAX_ORDER
        int_pow = ctx.int_ops()[3]
        order = ctx.order
        ks = (0, 1, 2, 17, order - 2, order - 1, order, 3 * (order - 1) + 5)
        for enc in range(1, order):
            x = ctx.from_int(enc).packed
            assert ([int_pow(x, k) for k in ks]
                    == [_power(x, k, ctx._mul, 1) for k in ks]), enc

    def test_table_is_a_cyclic_group(self, f9):
        f9.one * f9.one
        order = f9.order - 1
        assert len(set(f9._exp[:order])) == order
        assert f9._exp[:order] == f9._exp[order:]
        assert all(f9._exp[f9._log[v]] == v for v in f9._log)
        # the smallest-encoding primitive element of GF(9) = GF(3)[t]/(t^2+1)
        assert f9._exp[1] == f9.from_int(4).packed

    def test_build_rejects_a_repeating_table(self, monkeypatch):
        # a product that ignores its first factor makes every power of g
        # one; the modulus search, which multiplies through the same
        # kernel, runs before the patch
        ctx = FieldCtx(3, 1, 2)
        monkeypatch.setattr(_kernel, "mulmod", lambda a, b, pk: b)
        with pytest.raises(AssertionError, match="1 distinct elements"):
            ctx.one * ctx.one
        assert ctx._log is None

    def test_zero(self, f9):
        zero, one = f9.zero, f9.one
        with pytest.raises(ZeroDivisionError):
            zero.inv()
        with pytest.raises(ZeroDivisionError):
            zero ** -1
        assert zero ** 0 == one
        assert zero ** 5 == zero
        assert zero.frobenius(1) == zero
        assert f9.from_int(5) * zero == zero * f9.from_int(5) == zero
        assert f9._log is not None

    def test_above_the_cap_builds_nothing(self):
        ctx = FieldCtx(2, 1, 13)
        assert ctx.order > ffield.LOG_TABLE_MAX_ORDER
        x = ctx.from_int(1234)
        y = ctx.from_int(777)
        assert (x * y).packed == _kernel.mulmod(x.packed, y.packed,
                                                ctx.packing)
        assert x * x.inv() == ctx.one
        assert x.frobenius(ctx.m) == x
        assert ctx.zero ** 0 == ctx.one
        with pytest.raises(ZeroDivisionError):
            ctx.zero.inv()
        assert ctx._log is None

    @pytest.mark.parametrize("p,e,n", [(3, 1, 32), (5, 1, 24)])
    def test_pow_above_the_cap_reduces_the_exponent(self, p, e, n):
        # GF(5^24) packs two-byte slots
        ctx = field_ctx(p, e, n)
        assert ctx.order > ffield.LOG_TABLE_MAX_ORDER
        rng = random.Random(p * n)
        for _ in range(4):
            x = ctx.random_element(rng) or ctx.one
            for k in (0, 1, 2, p, ctx.order - 2):
                want = _power(x.packed, k, ctx._mul, 1)
                for j in (0, 1, 2, 10**6 + 3):
                    assert (x ** (k + j * (ctx.order - 1))).packed == want
        assert ctx.zero ** (ctx.order - 1) == ctx.zero
        assert ctx.zero ** 0 == ctx.one
        assert ctx._log is None

    def test_lift_workload_builds_no_table(self):
        # the small fields of the lift benchmark are below the cap, so
        # setting up and lifting must not multiply in them
        for p, e, n, t, a, r in [(2, 1, 7, 2, 5, 3), (5, 1, 3, 2, 7, 1),
                                 (3, 1, 4, 3, 10, 1), (2, 3, 3, 2, 9, 2)]:
            small = FieldCtx(p, e, n)
            L = BinomialSpec(small.from_int(a), r).poly()
            big = FieldCtx(p, e * t, n)
            lifted = lift(L, t, big)
            embed_subfield(small.gen(), big)
            assert lifted.to_encodings()[0] != 0
            assert small._log is None and big._log is None

    def test_corrupted_antilog_entry_is_caught_by_the_sweep(self, monkeypatch):
        # the brute-force tables use the vector kernels, so the direct
        # evaluations, now on the log tables, disagree with them; int_ops
        # is rebuilt so that its closures read the corrupted table
        ctx = field_ctx(3, 1, 3)
        ctx.one * ctx.one
        corrupt = list(ctx._exp)
        for i in (5, 5 + ctx.order - 1):
            corrupt[i] = corrupt[6]
        monkeypatch.setattr(ctx, "_exp", corrupt)
        monkeypatch.setattr(ctx, "_ops", None)
        report = oracle.sweep(oracle.SweepConfig(max_field_order=27,
                                                 primes=(3,)))
        assert report.cases == 9 + 2 * 27
        assert not report.ok
        assert report.failures_for(oracle.CHECK_CRITERION)
        assert all((f.p, f.n) == (3, 3) for f in report.failures)
