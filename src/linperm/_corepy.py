"""Pure-Python arithmetic kernels over GF(p), the package's only backend.

A coefficient vector is a sequence of ints in ``[0, p)``, little-endian in
the power basis; ``mod`` is the monic modulus of length ``m + 1``.  Every
function returns fresh lists and never mutates its arguments.  Other modules
call these through ``_kernel``.
"""

BACKEND = "python"


def addmod(a, b, p):
    return [(x + y) % p for x, y in zip(a, b)]


def submod(a, b, p):
    return [(x - y) % p for x, y in zip(a, b)]


def negmod(a, p):
    return [-x % p for x in a]


def mulmod(a, b, mod, p):
    """Product of two length-m vectors, reduced by the monic ``mod``."""
    m = len(mod) - 1
    if m == 1:
        return [a[0] * b[0] % p]
    prod = [0] * (2 * m - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # fold x^k = -sum(mod[j] x^(k-m+j)) for k from the top down
    for k in range(2 * m - 2, m - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            off = k - m
            for j in range(m):
                mj = mod[j]
                if mj:
                    prod[off + j] = (prod[off + j] - c * mj) % p
    return prod[:m]


def matvec(mat, v, p):
    """Apply the flat row-major m*m matrix ``mat`` to ``v``, entries mod p."""
    m = len(v)
    out = [0] * m
    for i in range(m):
        base = i * m
        acc = 0
        for j in range(m):
            acc += mat[base + j] * v[j]
        out[i] = acc % p
    return out


def _translate(shift, p):
    """enc(v + shift) for every v with len(shift) digits, in encoding order."""
    row = [0]
    scale = 1
    for s in shift:
        row = [r + (c + s) % p * scale for c in range(p) for r in row]
        scale *= p
    return row


def eval_all(coeff_rows, frob_mats, mod, p):
    """Evaluate sum_i c_i * F_i(x) at every element of GF(p^m).

    ``coeff_rows[i]`` is the coefficient vector c_i and ``frob_mats[i]`` the
    flat matrix of the Frobenius power attached to term i.  Elements are
    enumerated in encoding order; entry enc(x) of the result is enc(value).

    The map is GF(p)-linear, so it is evaluated directly only on the m basis
    vectors; the table is then filled digit by digit through
    img[j + c*p^k] = img[j + (c-1)*p^k] + col_k, where col_k is the image of
    the k-th basis vector.  For p = 2 the addition is one XOR per entry; for
    odd p each entry is split into a low and a high half of its digits, and
    the translation by col_k is read off one precomputed row per half.
    """
    m = len(mod) - 1
    terms = list(zip(coeff_rows, frob_mats))
    cols = []
    for k in range(m):
        # F_i applied to the k-th basis vector is column k of its matrix
        acc = [0] * m
        for row, fm in terms:
            t = mulmod(row, list(fm[k::m]), mod, p)
            acc = [(u + v) % p for u, v in zip(acc, t)]
        cols.append(acc)
    out = [0]
    if p == 2:
        for col in cols:
            enc = 0
            for c in reversed(col):
                enc = enc * 2 + c
            out += [v ^ enc for v in out]
        return out
    half = (m + 1) // 2
    split = p**half
    for col in cols:
        lo = _translate(col[:half], p)
        hi = [v * split for v in _translate(col[half:], p)]
        block = out
        for _ in range(p - 1):
            block = [hi[v // split] + lo[v % split] for v in block]
            out += block
    return out
