"""Pure-Python arithmetic kernels over GF(p), the package's only backend.

A field element is one packed int (Kronecker substitution): the vector v
of its power-basis coefficients, little-endian, is sum(v[i] * 256^(w*i)),
with w bytes a slot and 256^w > m(p-1)^2 + p for a modulus of degree m, so
no slot of a product or of a sum of m scaled columns carries into the next.
Every slot of an element is reduced into [0, p): zero is 0, one is 1 and a
GF(p) constant c is c, and packed ints compare in encoding order.  Other
modules call these through ``_kernel``; digit vectors appear only at the
text boundary (:func:`digits`, :func:`from_digits`) and as the input of
:func:`matvec`.
"""

from operator import mul

BACKEND = "python"


class Packing:
    """Slot width and ``fold[k]`` = packed x^(m+k) mod ``mod``, k < m - 1,
    for the monic ``mod`` of degree m; built once per field modulus."""

    __slots__ = ("p", "m", "mod", "width", "fold", "_residues", "_ps")

    def __init__(self, mod, p):
        m = len(mod) - 1
        self.p, self.m, self.mod = p, m, tuple(mod)
        self.width = _width(m * (p - 1) ** 2 + p)
        # bytes.translate table reducing one-byte slots mod p
        self._residues = bytes(c % p for c in range(256)) if p < 256 else None
        # p in every slot: added before a subtraction, so no slot borrows
        self._ps = _pack([p] * m, self.width)
        fold = []
        t = [-c % p for c in mod[:m]]
        for _ in range(m - 1):
            fold.append(_pack(t, self.width))
            top = t[-1]
            t = [0] + t[:-1]
            if top:
                t = [(u - top * c) % p for u, c in zip(t, mod)]
        self.fold = tuple(fold)


def _width(bound):
    """Bytes per slot for slot values up to ``bound``."""
    return (bound.bit_length() + 7) // 8


def _pack(v, width):
    """The packed int of the digits ``v`` with ``width``-byte slots."""
    if width == 1:
        return int.from_bytes(bytes(v), "little")
    return int.from_bytes(b"".join([c.to_bytes(width, "little") for c in v]),
                          "little")


def _slots(x, n, width, pk):
    """The n ``width``-byte slots of ``x``, mod ``pk.p``: bytes when
    ``width`` is 1, else a list."""
    raw = x.to_bytes(n * width, "little")
    if width == 1:
        return raw.translate(pk._residues)
    p = pk.p
    return [int.from_bytes(raw[i:i + width], "little") % p
            for i in range(0, n * width, width)]


def _norm(x, pk):
    """``x`` with each of its m slots reduced mod p."""
    return _pack(digits(x, pk), pk.width)


def _reduce(v, pk):
    """The packed residue of the polynomial with the 2m - 1 reduced
    digits ``v``."""
    m = pk.m
    return _norm(sum(map(mul, v[m:], pk.fold), _pack(v[:m], pk.width)), pk)


def digits(x, pk):
    """The m slots of ``x`` mod p, so the coefficients of a packed element:
    bytes when the slot width is 1, else a list."""
    return _slots(x, pk.m, pk.width, pk)


def from_digits(v, pk):
    """The packed element of the m reduced coefficients ``v``."""
    return _pack(v, pk.width)


def addmod(a, b, pk):
    if pk.p == 2:
        return a ^ b
    return _norm(a + b, pk)


def submod(a, b, pk):
    if pk.p == 2:
        return a ^ b
    return _norm(a + pk._ps - b, pk)


def negmod(a, pk):
    if pk.p == 2:
        return a
    return _norm(pk._ps - a, pk)


def mulmod(a, b, pk):
    """Product of two packed elements modulo ``pk.mod``."""
    return _reduce(_slots(a * b, 2 * pk.m - 1, pk.width, pk), pk)


def matvec(cols, v, pk):
    """Apply the linear map with packed columns ``cols`` to the digits
    ``v``; the image is packed."""
    return _norm(sum(map(mul, v, cols)), pk)


def identity_cols(pk):
    """Packed columns of the identity map."""
    return tuple(1 << (8 * pk.width * j) for j in range(pk.m))


def next_frobenius_cols(prev, xp, pk):
    """Packed columns of x -> x^(p^k) from those of x -> x^(p^(k-1)), given
    the packed x^p.  Column j is column j*p of ``prev`` while j*p < m (the
    same int); the rest follow by multiplying by x^(p^k) = prev(x^p)."""
    xk = matvec(prev, digits(xp, pk), pk)
    cols = list(prev[::pk.p])
    while len(cols) < pk.m:
        cols.append(mulmod(cols[-1], xk, pk))
    return tuple(cols)


def _translate(shift, p):
    """enc(v + shift) for every v with len(shift) digits, in encoding order."""
    row = [0]
    scale = 1
    for s in shift:
        row = [r + (c + s) % p * scale for c in range(p) for r in row]
        scale *= p
    return row


def eval_all(coeff_rows, frob_maps, pk):
    """Evaluate sum_i c_i * F_i(x) at every element of GF(p^m).

    ``coeff_rows[i]`` is the packed coefficient c_i and ``frob_maps[i]`` the
    packed columns of the Frobenius power attached to term i.  Elements are
    enumerated in encoding order; entry enc(x) of the result is enc(value).

    The map is GF(p)-linear, so it is evaluated directly only on the m basis
    vectors, sum_i c_i * (column k of F_i), in slots wide enough for all
    terms (repacked when wider than the field's) and reduced once.  The
    table is then filled digit by digit by
    img[j + c*p^k] = img[j + (c-1)*p^k] + col_k, where col_k is the image of
    the k-th basis vector.  For p = 2 the addition is one XOR per entry; for
    odd p each entry is split into a low and a high half of its digits, and
    the translation by col_k is read off one precomputed row per half.
    """
    m, p = pk.m, pk.p
    w = _width(len(coeff_rows) * m * (p - 1) ** 2 + p)
    rows, maps = coeff_rows, frob_maps
    if w != pk.width:
        rows = [_pack(digits(c, pk), w) for c in rows]
        maps = [[_pack(digits(c, pk), w) for c in cols] for cols in maps]
    cols = []
    for k in range(m):
        acc = sum(row * fm[k] for row, fm in zip(rows, maps))
        cols.append(digits(_reduce(_slots(acc, 2 * m - 1, w, pk), pk), pk))
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
