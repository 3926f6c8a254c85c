"""Arithmetic kernels against their reference semantics."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys import galoistools as gt
from sympy.polys.domains import ZZ

from linperm import _corepy, ffield
from linperm import _kernel as kernel
from linperm.ffield import (MAX_DEGREE, MAX_PRIME, _is_irreducible, field_ctx,
                            find_irreducible, int_to_coeffs)

from conftest import sweep_contexts

PRIMES = [2, 3, 5, 7, 31, 101, 2**31 - 1]


def pack(v, pk):
    return kernel.from_digits(v, pk)


def unpack(x, pk):
    return list(kernel.digits(x, pk))


def naive_mulmod(a, b, mod, p):
    """Schoolbook product followed by long division; the reference oracle."""
    m = len(mod) - 1
    prod = [0] * (2 * m - 1) if m > 1 else [0]
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for k in range(len(prod) - 1, m - 1, -1):
        c = prod[k]
        for j in range(m + 1):
            prod[k - m + j] = (prod[k - m + j] - c * mod[j]) % p
    return prod[:m]


@st.composite
def kernel_case(draw):
    p = draw(st.sampled_from(PRIMES))
    m = draw(st.integers(min_value=1, max_value=64))
    coeff = st.integers(min_value=0, max_value=p - 1)
    mod = draw(st.lists(coeff, min_size=m, max_size=m)) + [1]
    a = draw(st.lists(coeff, min_size=m, max_size=m))
    b = draw(st.lists(coeff, min_size=m, max_size=m))
    # m*m drawn entries would make m = 64 slow to generate; seed them instead
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    mat = [rng.randrange(p) for _ in range(m * m)]
    return p, mod, a, b, mat


def extreme_case(p, m):
    """Every coefficient p - 1: the largest value each packed slot holds.
    The modulus tail has degree m - 1, so a product takes m - 1 folds."""
    top = [p - 1] * m
    return p, top + [1], top, top, top * m


def canonical_case(p, m):
    """Seeded operands under the canonical modulus of GF(p^m)."""
    rng = random.Random(p * m)
    a, b, mat = ([rng.randrange(p) for _ in range(k)] for k in (m, m, m * m))
    return p, list(find_irreducible(p, m)), a, b, mat


def slot_classes(test):
    """``test`` with an extreme and a canonical example for each slot width
    above one byte: GF(5^24) two bytes, GF(1009^6) three rounded to four,
    GF(65537^5) five rounded to eight and GF((2^31 - 1)^6) nine, read as
    a "Q" and a "B" per slot."""
    for p, m in [(5, 24), (1009, 6), (65537, 5), (2**31 - 1, 6)]:
        test = example(case=canonical_case(p, m))(
            example(case=extreme_case(p, m))(test))
    return test


@given(case=kernel_case())
@example(case=(2**31 - 1, [5, 1], [2**31 - 2], [2**30], [0]))  # m = 1
@example(case=extreme_case(2**31 - 1, 4))  # eight-byte slots
@example(case=extreme_case(3, 32))  # 31 folds through a full tail
@slot_classes
@settings(max_examples=150, deadline=None, derandomize=True)
def test_mulmod_matches_naive_reference(case):
    p, mod, a, b, _ = case
    pk = kernel.Packing(mod, p)
    assert 256**pk.width > len(a) * (p - 1) ** 2 + p
    assert pk.width in (1, 2, 4, 8, 9)
    got = kernel.mulmod(pack(a, pk), pack(b, pk), pk)
    assert unpack(got, pk) == naive_mulmod(a, b, mod, p)


@given(case=kernel_case())
@example(case=extreme_case(2**31 - 1, 4))
@example(case=extreme_case(3, 32))
@slot_classes
@settings(max_examples=150, deadline=None, derandomize=True)
def test_elementwise_ops(case):
    p, mod, a, b, mat = case
    m = len(a)
    pk = kernel.Packing(mod, p)
    x, y = pack(a, pk), pack(b, pk)
    assert unpack(kernel.addmod(x, y, pk), pk) == [
        (u + v) % p for u, v in zip(a, b)]
    assert unpack(kernel.submod(x, y, pk), pk) == [
        (u - v) % p for u, v in zip(a, b)]
    assert unpack(kernel.submod(0, x, pk), pk) == [-u % p for u in a]
    assert unpack(x, pk) == a
    cols = [pack(mat[j::m], pk) for j in range(m)]
    expected = [sum(mat[i * m + j] * a[j] for j in range(m)) % p for i in range(m)]
    assert unpack(kernel.matvec(cols, a, pk), pk) == expected


# one-byte slots for p = 2, 3, 5; four-byte slots (three rounded up) for
# p = 1009 at m = 6 and eight-byte slots for p = 2^31 - 1 at m = 4
PACKED_FIELDS = [(2, 1, 5), (3, 1, 4), (5, 1, 3), (1009, 1, 6),
                 (2**31 - 1, 1, 4)]


def slot_vectors(p, m, rng):
    """All digits 0, all p - 1, the two alternations, and seeded draws."""
    return ([[0] * m, [p - 1] * m, [(p - 1) * (i % 2) for i in range(m)],
             [(p - 1) * (1 - i % 2) for i in range(m)]]
            + [[rng.randrange(p) for _ in range(m)] for _ in range(4)])


@pytest.mark.parametrize("p,e,n", PACKED_FIELDS)
def test_slotwise_ops_and_encoding_round_trip(p, e, n):
    ctx = field_ctx(p, e, n)
    pk, m = ctx.packing, ctx.m
    assert (pk.width == 1) == (p < 1009)
    vectors = slot_vectors(p, m, random.Random(p))
    for a in vectors:
        x = pack(a, pk)
        enc = sum(c * p**i for i, c in enumerate(a))
        assert ctx.from_int(enc).packed == x
        assert ctx.from_int(enc).to_int() == enc
        assert unpack(kernel.submod(0, x, pk), pk) == [-u % p for u in a]
        for b in vectors:
            y = pack(b, pk)
            assert unpack(kernel.addmod(x, y, pk), pk) == [
                (u + v) % p for u, v in zip(a, b)]
            assert unpack(kernel.submod(x, y, pk), pk) == [
                (u - v) % p for u, v in zip(a, b)]
    # zero, one and the GF(p) constants are their own packed ints
    assert ctx.zero.packed == 0 and ctx.one.packed == 1
    assert ctx.from_int(p - 1).packed == p - 1


@pytest.mark.parametrize("p,e,n", PACKED_FIELDS)
def test_packed_order_is_encoding_order(p, e, n):
    ctx = field_ctx(p, e, n)
    rng = random.Random(n)
    encs = sorted({rng.randrange(ctx.order) for _ in range(200)}
                  | {0, 1, p - 1, p, ctx.order - 1})
    packed = [ctx.from_int(enc).packed for enc in encs]
    assert packed == sorted(packed)
    assert len(set(packed)) == len(encs)


# each field with its slot width: one byte for GF(3^32) and GF(2^64), the
# characteristic-2 XOR step included, then every wider class
INVMOD_FIELDS = {(3, 1, 32): 1, (2, 1, 64): 1, (5, 1, 24): 2,
                 (1009, 1, 6): 4, (65537, 1, 5): 8, (2**31 - 1, 1, 4): 8,
                 (2**31 - 1, 1, 6): 9}


@pytest.mark.parametrize("p,e,n", list(INVMOD_FIELDS))
def test_invmod_inverts(p, e, n):
    ctx = field_ctx(p, e, n)
    pk, m = ctx.packing, ctx.m
    assert pk.width == INVMOD_FIELDS[p, e, n]
    rng = random.Random(m)
    vectors = ([[c] + [0] * (m - 1) for c in {1, 2 % p, p - 1}]
               + [[p - 1] * m, [0] * (m - 1) + [p - 1]]
               + [[rng.randrange(p) for _ in range(m)] for _ in range(20)])
    for v in vectors:
        if any(v):
            x = pack(v, pk)
            y = kernel.invmod(x, pk)
            assert pack(unpack(y, pk), pk) == y  # every slot reduced
            assert kernel.mulmod(x, y, pk) == 1
            assert kernel.invmod(y, pk) == x
    with pytest.raises(ZeroDivisionError):
        kernel.invmod(0, pk)


def test_widest_slot_is_nine_bytes():
    # the largest slot bound m(p - 1)^2 + p that MAX_DEGREE and MAX_PRIME
    # admit, computed without building GF((2^31 - 1)^128)
    assert (MAX_DEGREE, MAX_PRIME) == (128, 2**31 - 1)
    assert _corepy._width(128 * (2**31 - 2)**2 + 2**31 - 1) == 9
    assert [_corepy._width(256**k - 1) for k in range(1, 10)] == [
        1, 2, 4, 4, 8, 8, 8, 8, 9]


@pytest.mark.parametrize("p,mod", [(2, [1, 0, 1]), (3, [2, 0, 1]),
                                   (5, [4, 0, 0, 1])])
def test_invmod_under_a_reducible_modulus(p, mod):
    # each modulus (x^2 + 1 = (x + 1)^2 over GF(2), x^2 - 1, x^3 - 1) has
    # the factor x - 1, so x - 1 is no unit; x^m = 1 makes x^(m-1) the
    # inverse of x
    pk = kernel.Packing(mod, p)
    m = len(mod) - 1
    with pytest.raises(ArithmeticError):
        kernel.invmod(pack([p - 1, 1] + [0] * (m - 2), pk), pk)
    x = pack([0, 1] + [0] * (m - 2), pk)
    assert kernel.invmod(x, pk) == pack([0] * (m - 1) + [1], pk)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_is_irreducible_matches_sympy(p):
    for m in range(1, 5):
        for tail in range(p**m):
            f = int_to_coeffs(tail, m, p) + (1,)
            expected = gt.gf_irreducible_p([ZZ(c) for c in reversed(f)], p, ZZ)
            assert _is_irreducible(f, p) == expected, f


def per_element_eval_all(rows, maps, mod, p):
    """One matrix-vector product and one schoolbook product per term at
    every element; the reference."""
    m = len(mod) - 1
    pk = kernel.Packing(mod, p)
    mats = [[unpack(c, pk) for c in cols] for cols in maps]
    rows = [unpack(row, pk) for row in rows]
    out = []
    for enc in range(p**m):
        x = [enc // p**k % p for k in range(m)]
        acc = [0] * m
        for row, mat in zip(rows, mats):
            y = [sum(x[j] * mat[j][i] for j in range(m)) % p for i in range(m)]
            t = naive_mulmod(row, y, mod, p)
            acc = [(u + v) % p for u, v in zip(acc, t)]
        out.append(sum(c * p**k for k, c in enumerate(acc)))
    return out


def test_eval_all_matches_per_element_evaluation():
    # two terms over GF(3^2) with modulus t^2 + 1
    p = 3
    mod = [1, 0, 1]
    pk = kernel.Packing(mod, p)
    rows = [pack([1, 1], pk), pack([2, 0], pk)]
    identity = kernel.identity_cols(pk)
    frob = (pack([1, 0], pk), pack([0, 2], pk))  # t -> t^3 = 2t
    maps = [identity, frob]
    got = kernel.eval_all(kernel.basis_images(rows, maps, pk), pk)
    assert len(got) == 9
    assert got == per_element_eval_all(rows, maps, mod, p)

    # four terms over GF(5^4) with every entry 4: a middle slot of the
    # packed sum reaches 4 * 4 * 4^2 = 256, past one byte
    ctx = field_ctx(5, 1, 4)
    rows = [pack([4] * 4, ctx.packing)] * 4
    maps = [[pack([4] * 4, ctx.packing)] * 4] * 4
    got = kernel.eval_all(
        kernel.basis_images(rows, maps, ctx.packing), ctx.packing)
    assert got == per_element_eval_all(rows, maps, list(ctx.modulus), 5)

    # 0 to 3 terms over every GF(p^m), p in {2, 3, 5} and m <= 6, the prime
    # fields included, with the moduli and Frobenius maps of real contexts
    rng = random.Random(11)
    for p in (2, 3, 5):
        for m in range(1, 7):
            ctx = field_ctx(p, 1, m)
            mod = list(ctx.modulus)
            for terms in range(4):
                rows = [pack([rng.randrange(p) for _ in range(m)],
                             ctx.packing)
                        for _ in range(terms)]
                maps = [ctx._frobenius_map(rng.randrange(m))
                        for _ in range(terms)]
                got = kernel.eval_all(
                    kernel.basis_images(rows, maps, ctx.packing), ctx.packing)
                assert got == per_element_eval_all(rows, maps, mod, p), (
                    p, m, terms)

    # every sweep context with p in {2, 3, 5} and m <= 6, with all n terms
    # of a linearized polynomial nonzero and then a seeded subset of them;
    # GF(5^4) with four terms needs two-byte slots
    contexts = [(p, e, n) for p, e, n in sweep_contexts(729)
                if p in (2, 3, 5) and e * n <= 6]
    assert len(contexts) == 20
    for p, e, n in contexts:
        ctx = field_ctx(p, e, n)
        mod = list(ctx.modulus)
        m = ctx.m
        for terms in (list(range(n)), rng.sample(range(n), rng.randrange(n))):
            rows = [pack([rng.randrange(1, p)] + [rng.randrange(p)
                                                  for _ in range(m - 1)],
                         ctx.packing)
                    for _ in terms]
            maps = [ctx._frobenius_map(e * i) for i in terms]
            got = kernel.eval_all(
                kernel.basis_images(rows, maps, ctx.packing), ctx.packing)
            assert got == per_element_eval_all(rows, maps, mod, p), (
                p, e, n, terms)

    # fields whose own slots are wider than one byte, with all n terms of a
    # linearized polynomial nonzero
    for p, n, width in ((17, 2, 2), (11, 3, 2), (257, 2, 4)):
        ctx = field_ctx(p, 1, n)
        assert ctx.packing.width == width
        rows = [pack([rng.randrange(1, p) for _ in range(n)], ctx.packing)
                for _ in range(n)]
        maps = [ctx._frobenius_map(i) for i in range(n)]
        got = kernel.eval_all(
            kernel.basis_images(rows, maps, ctx.packing), ctx.packing)
        assert got == per_element_eval_all(rows, maps, list(ctx.modulus), p), (
            p, n)


def test_basis_images_of_a_monic_binomial_take_one_product_per_column(
        monkeypatch):
    # x^(q^r) + a*x: the unit coefficient's column is added as it is
    ctx = field_ctx(3, 1, 4)
    pk = ctx.packing
    a = pack([2, 1, 0, 1], pk)
    rows, maps = [a, 1], [ctx._frobenius_map(0), ctx._frobenius_map(2)]
    real = _corepy.mulmod
    products = []

    def mulmod(x, y, pk):
        products.append(x)
        return real(x, y, pk)

    monkeypatch.setattr(_corepy, "mulmod", mulmod)
    cols = kernel.basis_images(rows, maps, pk)
    assert products == [a] * 4
    assert kernel.eval_all(cols, pk) == per_element_eval_all(
        rows, maps, list(ctx.modulus), 3)


def encode(x, pk):
    """enc of the packed element ``x``: its digits read in base p."""
    return sum(c * pk.p**k for k, c in enumerate(kernel.digits(x, pk)))


def frobenius_maps(p, n, ks):
    ctx = field_ctx(p, 1, n)
    return [(ctx.packing, ctx._frobenius_map(k)) for k in ks]


def random_map(p, n, seed):
    pk = field_ctx(p, 1, n).packing
    rng = random.Random(seed)
    return [(pk, [pack([rng.randrange(p) for _ in range(n)], pk)
                  for _ in range(n)])]


def embedding_map(p, small, big):
    return [(field_ctx(p, 1, big).packing, ffield._embedding_powers(
        field_ctx(p, 1, small), field_ctx(p, 1, big)))]


def zero_maps(p, n):
    # every domain dimension from 0 (the one-entry table) to n
    pk = field_ctx(p, 1, n).packing
    return [(pk, [0] * k) for k in range(n + 1)]


# linear maps by name, as (packing of the target, packed columns) pairs
TABULATED_MAPS = {
    "frobenius GF(2^5)": lambda: frobenius_maps(2, 5, range(5)),
    "frobenius GF(3^4)": lambda: frobenius_maps(3, 4, range(4)),
    "frobenius GF(5^3)": lambda: frobenius_maps(5, 3, range(3)),
    "embedding GF(3^2) -> GF(3^6)": lambda: embedding_map(3, 2, 6),
    "embedding GF(2^3) -> GF(2^6)": lambda: embedding_map(2, 3, 6),
    "zero GF(2^3)": lambda: zero_maps(2, 3),
    "zero GF(3^3)": lambda: zero_maps(3, 3),
    "GF(17^2)": lambda: frobenius_maps(17, 2, range(2)) + random_map(17, 2, 1),
    "GF(257^2)": lambda: frobenius_maps(257, 2, [1]) + random_map(257, 2, 2),
}


@pytest.mark.parametrize("name", list(TABULATED_MAPS))
def test_eval_all_tabulates_the_map_of_its_columns(name):
    # entry enc(x) is enc(matvec(cols, digits of x)) for every x of the
    # domain, whose dimension is the number of columns
    for pk, cols in TABULATED_MAPS[name]():
        p, dim = pk.p, len(cols)
        got = kernel.eval_all(cols, pk)
        assert len(got) == p**dim
        for enc in range(p**dim):
            x = [enc // p**k % p for k in range(dim)]
            assert got[enc] == encode(kernel.matvec(cols, x, pk), pk), (
                name, enc)
