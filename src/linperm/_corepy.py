"""Pure-Python arithmetic kernels over GF(p), the package's only backend.

A field element is one packed int (Kronecker substitution): the vector v
of its power-basis coefficients, little-endian, is sum(v[i] * 256^(w*i)),
with w bytes a slot and 256^w > m(p-1)^2 + p for a modulus of degree m, so
no slot of a product or of a sum of m scaled columns carries into the next
(w is 1, 2, 4, 8 or 9, since p < 2^31 and m <= 128).  Every kernel keeps
to this one width.  Every slot of an element is reduced into [0, p): zero
is 0, one is 1, a GF(p) constant c is c, and packed ints compare in
encoding order.  A polynomial over GF(p) is packed the same way, its degree
read off the bit length; products fold through the modulus tail
(:func:`_reduce`), and :func:`invmod` and :func:`coprime` run Euclid on
these ints.  A GF(p)-linear map is its packed columns, the images of its
basis: :func:`matvec` applies one to digits and :func:`matvec_split` a
stack of k maps at once, :func:`basis_images` forms a linearized
polynomial's and :func:`eval_all` tabulates one.  Other modules call these
through ``_kernel``.
"""

import struct
from operator import mul

_CODES = {2: "H", 4: "I", 8: "Q", 9: "Qx"}  # struct codes writing a slot


class Packing:
    """Slot width, the packed modulus and ``tail`` = x^m mod ``mod``, packed
    (-f_0, ..., -f_(m-1)) mod p, for the monic ``mod`` of degree m given by
    its digits; built once per field modulus and irreducibility candidate."""

    __slots__ = ("p", "m", "mod", "width", "tail", "_low", "_residues", "_ps")

    def __init__(self, mod, p):
        m = len(mod) - 1
        self.p, self.m = p, m
        self.width = _width(m * (p - 1) ** 2 + p)
        self.mod = _pack(mod, self.width)
        self.tail = _pack([-c % p for c in mod[:m]], self.width)
        self._low = (1 << 8 * self.width * m) - 1  # the slots below m
        # bytes.translate table reducing one-byte slots mod p
        self._residues = ((bytes(range(p)) * (256 // p + 1))[:256] if p < 256
                          else None)
        # p in every slot: added before a subtraction, so no slot borrows
        self._ps = _pack([p] * m, self.width)


def _width(bound):
    """Bytes per slot for slot values up to ``bound`` < 2^72: 1, 2, 4, 8, 9."""
    w = (bound.bit_length() + 7) // 8
    return 4 if w == 3 else 8 if 4 < w < 8 else w


def _pack(v, width):
    """The packed int of the digits ``v``, each below 2^64, with
    ``width``-byte slots; a nine-byte slot's high byte is zero."""
    if width == 1:
        return int.from_bytes(bytes(v), "little")
    return int.from_bytes(struct.pack("<" + _CODES[width] * len(v), *v),
                          "little")


def _slots(x, n, pk):
    """The n slots of ``x``, mod ``pk.p``: bytes when the slot width is 1,
    else a list; a nine-byte slot is read as "Q" and "B"."""
    raw = x.to_bytes(n * pk.width, "little")
    if pk.width == 1:
        return raw.translate(pk._residues)
    p = pk.p
    if pk.width == 9:
        v = struct.unpack("<" + "QB" * n, raw)
        return [(lo | hi << 64) % p for lo, hi in zip(v[::2], v[1::2])]
    return [c % p for c in struct.unpack("<" + _CODES[pk.width] * n, raw)]


def _norm(x, pk, n=None):
    """``x`` with each of its n slots, m by default, reduced mod p."""
    if pk.width == 1:
        return int.from_bytes(
            x.to_bytes(n or pk.m, "little").translate(pk._residues), "little")
    return _pack(_slots(x, n or pk.m, pk), pk.width)


def _reduce(x, pk):
    """The residue mod ``pk.mod`` of the packed polynomial ``x`` with
    reduced slots.  A round replaces x^m high by high * tail, one big-int
    product and one slot reduction, taking the degree D to at most
    max(m - 1, D - m + s), s < m the tail's degree; its slots stay below
    (s + 1)(p - 1)^2 + p.  A product takes two rounds when 2s <= m + 1."""
    bits = 8 * pk.width
    shift = bits * pk.m
    while high := x >> shift:
        x = (x & pk._low) + high * pk.tail
        x = _norm(x, pk, x.bit_length() // bits + 1)
    return x


def digits(x, pk):
    """The m slots of ``x`` mod p, so the coefficients of a packed element:
    bytes when the slot width is 1, else a list."""
    return _slots(x, pk.m, pk)


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


def mulmod(a, b, pk):
    """Product of two packed elements modulo ``pk.mod``."""
    return _reduce(_norm(a * b, pk, 2 * pk.m - 1), pk)


def _euclid(r0, r1, t1, pk):
    """(g, t): g a gcd of the packed polynomials ``r0`` != 0 and ``r1``, and
    t = ``t1`` * u with u r1 = g modulo r0; ``t1`` = 0 skips the cofactor.

    One division step takes k x^s r1 off r0, with k the ratio of the leading
    coefficients, as r0 + (p - k)(r1 << 8ws) and one slot reduction (an XOR
    for p = 2); the cofactor of r0 takes the same step with that of r1.  A
    slot then holds at most (p - 1) + (p - 1)^2 < p^2, which the field's
    slots hold.  The loop stops at a constant r1, so with r0 the modulus of
    degree m every cofactor has degree below m and is reduced over m slots.
    """
    p = pk.p
    bits = 8 * pk.width
    t0 = 0
    while r1 >> bits:
        d1 = (r1.bit_length() - 1) // bits
        lead_inv = pow(r1 >> bits * d1, -1, p)
        d0 = (r0.bit_length() - 1) // bits
        while d0 >= d1:
            s = bits * (d0 - d1)
            if p == 2:
                r0 ^= r1 << s
                t0 ^= t1 << s
            else:
                k = p - (r0 >> bits * d0) * lead_inv % p
                r0 = _norm(r0 + k * (r1 << s), pk, d0 + 1)
                if t1:
                    t0 = _norm(t0 + k * (t1 << s), pk)
            d0 = (r0.bit_length() - 1) // bits
        r0, r1, t0, t1 = r1, r0, t1, t0
    return (r1, t1) if r1 else (r0, t0)


def invmod(x, pk):
    """Inverse of the packed element ``x`` modulo ``pk.mod``; raises
    ArithmeticError when x shares a factor with a reducible modulus."""
    if not x:
        raise ZeroDivisionError("inverse of the zero field element")
    g, t = _euclid(pk.mod, x, 1, pk)
    if g >> 8 * pk.width:
        raise ArithmeticError("element not invertible; modulus is reducible")
    return _norm(t * pow(g, -1, pk.p), pk)


def coprime(a, b, pk):
    """Whether the packed polynomials ``a`` != 0 and ``b`` over GF(p) have
    no common factor of positive degree."""
    return not _euclid(a, b, 0, pk)[0] >> 8 * pk.width


def matvec(cols, v, pk):
    """Apply the linear map with packed columns ``cols`` to the digits
    ``v``; the image is packed."""
    return _norm(sum(map(mul, v, cols)), pk)


def matvec_split(cols, v, k, pk):
    """The k packed images of the digits ``v`` under the map with packed
    columns ``cols`` that stack k maps, map j in slots j*m ... j*m + m - 1:
    one sum of scaled columns, then one reduction of its k*m slots."""
    m = pk.m
    s = _slots(sum(map(mul, v, cols)), k * m, pk)
    return [_pack(s[i:i + m], pk.width) for i in range(0, k * m, m)]


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


def basis_images(rows, maps, pk):
    """The m packed columns (images of x^k) of x -> sum_i c_i * F_i(x) on
    the field of ``pk``, c_i = ``rows[i]`` and F_i given by its columns
    ``maps[i]``: one :func:`mulmod` per term, none where c_i is one, folded
    with :func:`addmod`.  No terms give the zero map."""
    cols = [0] * pk.m
    for row, fm in zip(rows, maps):
        cols = [addmod(acc, f if row == 1 else mulmod(row, f, pk), pk)
                for acc, f in zip(cols, fm)]
    return cols


def eval_all(cols, pk):
    """Table of the GF(p)-linear map into the field of ``pk`` that sends
    the domain's basis vector of encoding p^k to the packed ``cols[k]``:
    entry enc(x) is enc of x's image, for every x in encoding order.

    Filled digit by digit, img[j + c*p^k] = img[j + (c-1)*p^k] + col_k: for
    p = 2 one XOR per entry; for odd p each entry is split into a low and a
    high half of its digits, and the translation by col_k is read off one
    precomputed row per half.
    """
    m, p = pk.m, pk.p
    cols = [digits(c, pk) for c in cols]
    out = [0]
    if p == 2:
        for col in cols:
            enc = sum(c << k for k, c in enumerate(col))
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
