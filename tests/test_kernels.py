"""Arithmetic kernels against their reference semantics."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from linperm import _kernel as kernel
from linperm.ffield import field_ctx

PRIMES = [2, 3, 5, 7, 31, 101, 2**31 - 1]


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
    m = draw(st.integers(min_value=1, max_value=8))
    coeff = st.integers(min_value=0, max_value=p - 1)
    mod = draw(st.lists(coeff, min_size=m, max_size=m)) + [1]
    a = draw(st.lists(coeff, min_size=m, max_size=m))
    b = draw(st.lists(coeff, min_size=m, max_size=m))
    mat = draw(st.lists(coeff, min_size=m * m, max_size=m * m))
    return p, mod, a, b, mat


@given(case=kernel_case())
@settings(max_examples=150, deadline=None)
def test_mulmod_matches_naive_reference(case):
    p, mod, a, b, _ = case
    assert kernel.mulmod(a, b, mod, p) == naive_mulmod(a, b, mod, p)


@given(case=kernel_case())
@settings(max_examples=150, deadline=None)
def test_elementwise_ops(case):
    p, _, a, b, mat = case
    m = len(a)
    assert kernel.addmod(a, b, p) == [(x + y) % p for x, y in zip(a, b)]
    assert kernel.submod(a, b, p) == [(x - y) % p for x, y in zip(a, b)]
    assert kernel.negmod(a, p) == [-x % p for x in a]
    expected = [sum(mat[i * m + j] * a[j] for j in range(m)) % p for i in range(m)]
    assert kernel.matvec(mat, a, p) == expected


def per_element_eval_all(kernel, rows, mats, mod, p):
    """One matvec and one mulmod per term at every element; the reference."""
    m = len(mod) - 1
    out = []
    for enc in range(p**m):
        x = [enc // p**k % p for k in range(m)]
        acc = [0] * m
        for row, mat in zip(rows, mats):
            y = kernel.matvec(mat, x, p)
            t = kernel.mulmod(row, y, mod, p)
            acc = [(u + v) % p for u, v in zip(acc, t)]
        out.append(sum(c * p**k for k, c in enumerate(acc)))
    return out


def test_eval_all_matches_per_element_evaluation():
    # two terms over GF(3^2) with modulus t^2 + 1
    p = 3
    mod = [1, 0, 1]
    rows = [[1, 1], [2, 0]]
    identity = [1, 0, 0, 1]
    frob = [1, 0, 0, 2]  # t -> t^3 = 2t on the basis (1, t)
    mats = [identity, frob]
    got = kernel.eval_all(rows, mats, mod, p)
    assert len(got) == 9
    assert got == per_element_eval_all(kernel, rows, mats, mod, p)

    # 0 to 3 terms over every GF(p^m), p in {2, 3, 5} and m <= 6, with the
    # moduli and Frobenius matrices of real contexts
    rng = random.Random(11)
    for p in (2, 3, 5):
        for m in range(1, 7):
            ctx = field_ctx(p, 1, m)
            mod = list(ctx.modulus)
            for terms in range(4):
                rows = [[rng.randrange(p) for _ in range(m)]
                        for _ in range(terms)]
                mats = [ctx._frob_flat(rng.randrange(m)) for _ in range(terms)]
                got = kernel.eval_all(rows, mats, mod, p)
                assert got == per_element_eval_all(kernel, rows, mats, mod, p), (
                    p, m, terms)
