"""Exact arithmetic in GF(p^m) on a single polynomial basis.

A :class:`FieldCtx` fixes a prime p and tower parameters e and n (q = p^e,
the ambient field is GF(q^n), total degree m = e*n over GF(p)); its modulus
is always :func:`find_irreducible` (p, m), the monic irreducible of degree m
with the smallest encoding.  An element is one int, the packed form of its
m power-basis coefficients over GF(p) on which the kernels compute (see
``_corepy``): zero is 0, one is 1 and packed ints compare in encoding
order.  The integer encoding enc(x) = sum(coeffs[i] * p**i) is a bijection
onto range(p**m) and is the text form used at every interface.

The q-power Frobenius is the e-fold p-power Frobenius, so one basis carries
the whole tower.  Relative norms are doubling chains of Frobenius images
and products, so no big-integer exponent is ever formed on the main paths.

How products, inverses, Frobenius images and powers are computed depends
on the field order alone, and :meth:`FieldCtx.int_ops` alone decides it,
once per context, for :class:`FieldElem` and the packed loops of
``linpoly`` alike.  A context of at most ``LOG_TABLE_MAX_ORDER`` elements
builds an antilog table of the powers of its smallest-encoding primitive
element g and the inverse log table; then x*y = g^(log x + log y),
1/x = g^(-log x), x^(p^k) = g^(p^k log x) and x^k = g^(k log x),
exponents mod order - 1.  A larger context never builds tables: products
and Frobenius maps, each cached as its m packed columns, run on the
packed-integer kernels with the context's ``packing``, inverses come from
the extended Euclidean algorithm on packed polynomials
(``_kernel.invmod``), and powers are square-and-multiply over the packed
product.  Addition, subtraction and negation are slotwise on the
packed ints either way.
"""

from __future__ import annotations

import functools
import random

from . import _kernel
from .errors import ContextMismatchError

# Largest accepted characteristic: every coefficient product stays below
# 2^62, so it fits a signed 64-bit word.
MAX_PRIME = 2**31 - 1

# Largest modulus degree m = e*n: a first context takes 0.09 s at GF(3^64)
# and 2 s at GF(3^128), growing faster than m^3 (2-core VM, Python 3.11.7).
MAX_DEGREE = 128

# Largest field order whose context multiplies through log tables.  The build
# grows with the order: 2 ms at GF(3^6), 20 ms and 0.9 MB at GF(2^12), the
# cost of about 1,300 vector products there, but 48 ms at GF(3^8) and
# 170 ms and 3.8 MB at GF(2^14) (2-core VM, Python 3.11.7), which one-off
# computations in those fields would not repay.
LOG_TABLE_MAX_ORDER = 4096


def is_prime(v: int) -> bool:
    if v < 2:
        return False
    if v < 4:
        return True
    if v % 2 == 0:
        return False
    f = 3
    while f * f <= v:
        if v % f == 0:
            return False
        f += 2
    return True


def check_characteristic(p: int) -> None:
    """Raise ValueError unless ``p`` is a prime no larger than MAX_PRIME."""
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if p > MAX_PRIME:
        raise ValueError(f"p={p} exceeds the word-size bound {MAX_PRIME}")


def int_to_coeffs(value: int, length: int, p: int) -> tuple[int, ...]:
    """Little-endian base-p digits of ``value``, padded to ``length``."""
    digits = []
    for _ in range(length):
        value, rem = divmod(value, p)
        digits.append(rem)
    if value:
        raise ValueError("encoding out of range for this field")
    return tuple(digits)


def coeffs_to_int(coeffs, p: int) -> int:
    enc = 0
    for c in reversed(coeffs):
        enc = enc * p + c
    return enc


def _power(base, k, mul, one):
    """Square-and-multiply base^k under ``mul(a, b)``, with identity ``one``.

    The bits of k are read from the top, so every product that is not a
    square has ``base`` itself as a factor, cheap when ``base`` is sparse.
    """
    if not k:
        return one
    result = base
    for bit in bin(k)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, base)
    return result


# ---------------------------------------------------------------------------
# irreducibility and modulus search
# ---------------------------------------------------------------------------

def _is_irreducible(f, p: int) -> bool:
    """Irreducibility of the monic polynomial ``f`` over GF(p), given by its
    digits.

    f of degree m is irreducible exactly when it has no factor of degree
    j <= m/2, that is when gcd(x^(p^j) - x, f) = 1 for every such j; the
    powers x^(p^j) mod f are iterated by p-th powering on the kernel
    ``Packing`` of f, so the cost is polynomial in m and log p.
    """
    m = len(f) - 1
    if m == 1:
        return True
    if f[0] == 0:
        return False
    pk = _kernel.Packing(f, p)
    t = x = _kernel.from_digits((0, 1), pk)
    for _ in range(m // 2):
        t = _power(t, p, lambda a, b: _kernel.mulmod(a, b, pk), 1)
        if not _kernel.coprime(pk.mod, _kernel.submod(t, x, pk), pk):
            return False
    return True


def _binomials_reducible(p: int, m: int) -> bool:
    """True when no x^m + c over GF(p) is irreducible.

    By Capelli's theorem (Lidl-Niederreiter, Finite Fields, Thm 3.75) that
    happens exactly when some prime l | m does not divide p - 1, or when
    4 | m and p = 3 (mod 4).
    """
    if m % 4 == 0 and p % 4 == 3:
        return True
    return any(m % l == 0 and (p - 1) % l and is_prime(l)
               for l in range(2, m + 1))


@functools.lru_cache(maxsize=None)
def find_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Monic irreducible of degree m over GF(p) with the smallest encoding.

    The encoding includes the leading coefficient, so the scan starts at
    p**m (the monic polynomial x^m) and the result is deterministic.
    """
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if m < 1:
        raise ValueError(f"degree m={m} must be positive")
    if m > MAX_DEGREE:
        raise ValueError(f"degree m={m} exceeds the bound {MAX_DEGREE}")
    # tails below p are the binomials x^m + c; skip them when none is
    # irreducible, which leaves the smallest irreducible unchanged
    for tail in range(p if _binomials_reducible(p, m) else 0, p**m):
        f = int_to_coeffs(tail, m, p) + (1,)
        if _is_irreducible(f, p):
            return f
    raise AssertionError("unreachable: an irreducible of every degree exists")


# ---------------------------------------------------------------------------
# field context and elements
# ---------------------------------------------------------------------------

class FieldCtx:
    """Immutable description of GF(p^m) with its tower split m = e*n.

    The modulus is the canonical ``find_irreducible(p, e*n)``, so two
    contexts compare equal when (p, e, n) agree; equal contexts are
    interchangeable.  ``zero`` and ``one`` are built once and shared, as
    elements are never mutated.  Everything else derived is built lazily
    and cached on the context, so sharing one context across many
    operations is cheap and thread-safe in the memoized-recompute sense:
    the packed columns of each Frobenius power, the int-level operations
    of :meth:`int_ops`, and, when ``order <= LOG_TABLE_MAX_ORDER``, the log
    and antilog tables, built by the first :meth:`int_ops` call, which the
    first nonzero product, inverse or power or the first Frobenius image
    makes (see :meth:`_log_tables`).  Creating a context, converting
    encodings and adding never build them.
    """

    __slots__ = ("p", "e", "n", "m", "q", "order", "modulus", "packing",
                 "zero", "one", "_frob", "_log", "_exp", "_ops")

    def __init__(self, p: int, e: int, n: int):
        check_characteristic(p)
        if not isinstance(e, int) or e < 1:
            raise ValueError(f"e={e} must be a positive integer")
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"n={n} must be a positive integer")
        m = e * n
        self.p = p
        self.e = e
        self.n = n
        self.m = m
        self.q = p**e
        self.order = p**m
        self.modulus = find_irreducible(p, m)
        self.packing = _kernel.Packing(self.modulus, p)
        self.zero = FieldElem(self, 0)
        self.one = FieldElem(self, 1)
        self._frob = {}
        self._log = None
        self._exp = None
        self._ops = None

    def __eq__(self, other):
        if not isinstance(other, FieldCtx):
            return NotImplemented
        return (self.p, self.e, self.n) == (other.p, other.e, other.n)

    def __hash__(self):
        return hash((self.p, self.e, self.n))

    def __repr__(self):
        return (f"FieldCtx(p={self.p}, e={self.e}, n={self.n}, "
                f"modulus={self.modulus_int})")

    @property
    def modulus_int(self) -> int:
        return coeffs_to_int(self.modulus, self.p)

    def gen(self) -> "FieldElem":
        """The residue of x, the canonical generator of the power basis."""
        return self.from_int(-self.modulus[0] % self.p if self.m == 1
                             else self.p)

    def from_int(self, value: int) -> "FieldElem":
        if not 0 <= value < self.order:
            raise ValueError(f"encoding {value} outside [0, {self.order})")
        return FieldElem(self, _kernel.from_digits(
            int_to_coeffs(value, self.m, self.p), self.packing))

    def elements(self):
        """All field elements, in encoding order."""
        for enc in range(self.order):
            yield self.from_int(enc)

    def random_element(self, rng) -> "FieldElem":
        return self.from_int(rng.randrange(self.order))

    def _log_tables(self):
        """The log table, built on first use; None above the size cap.

        The tables are over the smallest-encoding primitive element g.
        ``_exp[i]`` is g^i for i < 2(order - 1), so the sum of two logs
        indexes it unreduced; ``_log`` maps each nonzero packed element
        to its log in [0, order - 1).  g is primitive when g^(N/l) != 1 for
        every prime l | N = order - 1, and the table must then hold N
        distinct elements.
        """
        if self._log is not None or self.order > LOG_TABLE_MAX_ORDER:
            return self._log
        units = self.order - 1
        factors = [l for l in range(2, units + 1)
                   if units % l == 0 and is_prime(l)]
        for enc in range(1, self.order):
            g = self.from_int(enc).packed
            if all(_power(g, units // l, self._mul, 1) != 1 for l in factors):
                break
        exp = [1]
        for _ in range(units - 1):
            exp.append(_kernel.mulmod(g, exp[-1], self.packing))
        log = {v: i for i, v in enumerate(exp)}
        if len(log) != units:
            raise AssertionError(
                f"antilog table holds {len(log)} distinct elements, "
                f"expected {units}")
        self._exp = exp + exp
        self._log = log
        return log

    def int_ops(self):
        """(mul, inv, frob, pow) on packed ints, chosen once per context:
        log-table lookups, else ``_kernel.mulmod``, ``invmod`` and
        ``matvec``, and square-and-multiply over ``mulmod`` for ``pow(x, k)``
        = x^k, k >= 0.  ``mul``, ``inv`` and ``pow`` take no zero operand;
        ``frob(x, k)`` = x^(p^k) returns x as it is when k = 0 or x is a
        GF(p) constant (x < 256^width), but above the cap still builds the
        map of k for every nonzero x, so ``one.frobenius(k)`` warms it."""
        if self._ops is None:
            log = self._log_tables()
            fixed = 1 << 8 * self.packing.width
            units = self.order - 1
            if log is None:
                pk, maps = self.packing, self._frobenius_map

                def mul(a, b):
                    return _kernel.mulmod(a, b, pk)

                def frob(x, k):
                    if not (x and k):
                        return x
                    cols = maps(k)
                    return x if x < fixed else _kernel.matvec(
                        cols, _kernel.digits(x, pk), pk)
                self._ops = (mul, lambda a: _kernel.invmod(a, pk), frob,
                             lambda x, k: _power(x, k % units, mul, 1))
            else:
                exp, p = self._exp, self.p
                self._ops = (lambda a, b: exp[log[a] + log[b]],
                             lambda a: exp[units - log[a]],
                             lambda x, k: x if x < fixed or not k else
                             exp[log[x] * pow(p, k, units) % units],
                             lambda x, k: exp[log[x] * k % units])
        return self._ops

    def _mul(self, a, b):
        """Product of two packed elements of this field."""
        return _kernel.mulmod(a, b, self.packing)

    def _frobenius_map(self, k: int) -> tuple:
        """Packed columns (x^j)^(p^k), j < m, of x -> x^(p^k); cached.
        Built from map k - 1 and x^p, which is column 1 of map 1."""
        k %= self.m
        cols = self._frob.get(k)
        if cols is None:
            pk = self.packing
            if k == 0:
                cols = _kernel.identity_cols(pk)
            else:
                xp = (self._frobenius_map(1)[1] if k > 1
                      else _power(self.gen().packed, self.p, self._mul, 1))
                cols = _kernel.next_frobenius_cols(
                    self._frobenius_map(k - 1), xp, pk)
            self._frob[k] = cols
        return cols


@functools.lru_cache(maxsize=None)
def field_ctx(p: int, e: int, n: int) -> FieldCtx:
    """Shared context for GF((p^e)^n) with the canonical minimal modulus."""
    return FieldCtx(p, e, n)


class FieldElem:
    """One element of a field context, as its packed int (the key of the
    log table in small contexts).  Products, inverses, powers and Frobenius
    images check their operands and call :meth:`FieldCtx.int_ops`."""

    __slots__ = ("ctx", "packed")

    def __init__(self, ctx: FieldCtx, packed: int):
        self.ctx = ctx
        self.packed = packed

    def _peer(self, other) -> "FieldElem":
        if not isinstance(other, FieldElem):
            raise TypeError(f"expected a field element, got {type(other).__name__}")
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ContextMismatchError(
                f"elements of {self.ctx!r} and {other.ctx!r} cannot be combined")
        return other

    def __add__(self, other):
        other = self._peer(other)
        return FieldElem(self.ctx, _kernel.addmod(
            self.packed, other.packed, self.ctx.packing))

    def __sub__(self, other):
        other = self._peer(other)
        return FieldElem(self.ctx, _kernel.submod(
            self.packed, other.packed, self.ctx.packing))

    def __neg__(self):
        return FieldElem(self.ctx, _kernel.submod(0, self.packed, self.ctx.packing))

    def __mul__(self, other):
        other = self._peer(other)
        ctx = self.ctx
        if not (self.packed and other.packed):
            return ctx.zero
        mul = (ctx._ops or ctx.int_ops())[0]
        return FieldElem(ctx, mul(self.packed, other.packed))

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inv() ** (-exponent)
        ctx = self.ctx
        if not self.packed:
            return ctx.one if exponent == 0 else ctx.zero
        return FieldElem(ctx, (ctx._ops or ctx.int_ops())[3](self.packed,
                                                             exponent))

    def inv(self) -> "FieldElem":
        ctx = self.ctx
        if not self.packed:
            raise ZeroDivisionError("inverse of the zero field element")
        return FieldElem(ctx, (ctx._ops or ctx.int_ops())[1](self.packed))

    def frobenius(self, k: int) -> "FieldElem":
        """x -> x^(p^k); the q^j-power map is frobenius(e*j)."""
        if k < 0:
            raise ValueError("Frobenius power must be nonnegative")
        ctx = self.ctx
        return FieldElem(ctx, (ctx._ops or ctx.int_ops())[2](self.packed, k))

    def norm_rel(self, d: int) -> "FieldElem":
        """Relative norm onto GF(q^d): the product of the q^d-conjugates.

        Equals x^((q^n-1)/(q^d-1)) for nonzero x.  The product P(j) of the
        first j conjugates follows the bits of n/d by P(2j) = P(j) P(j)^(Q^j)
        and P(j+1) = x P(j)^Q, Q = q^d (Itoh-Tsujii): about 2 log2(n/d)
        Frobenius-and-multiply steps.
        """
        ctx = self.ctx
        if d < 1 or ctx.n % d:
            raise ValueError(f"d={d} does not divide n={ctx.n}")
        step = ctx.e * d
        acc = self
        j = 1
        for bit in bin(ctx.n // d)[3:]:
            acc = acc * acc.frobenius(step * j)
            j *= 2
            if bit == "1":
                acc = self * acc.frobenius(step)
                j += 1
        return acc

    def to_int(self) -> int:
        ctx = self.ctx
        return coeffs_to_int(_kernel.digits(self.packed, ctx.packing), ctx.p)

    def __bool__(self):
        return self.packed != 0

    def __eq__(self, other):
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.packed == other.packed and (
            self.ctx is other.ctx or self.ctx == other.ctx)

    def __hash__(self):
        return hash((self.ctx, self.packed))

    def __repr__(self):
        return f"FieldElem({self.to_int()} in GF({self.ctx.p}^{self.ctx.m}))"


# ---------------------------------------------------------------------------
# subfield embedding
# ---------------------------------------------------------------------------

# Seed of the random shifts that split the small modulus; the embedding does
# not depend on it, only the work done to find it.
EMBEDDING_SEED = 1981


def _ptrim(v):
    i = len(v)
    while i and v[i - 1] == 0:
        i -= 1
    return v[:i]


def _eadd(a, b, pk):
    if len(a) < len(b):
        a, b = b, a
    return _ptrim([_kernel.addmod(c, d, pk) for c, d in zip(a, b)]
                  + a[len(b):])


def _edivmod(a, b, pk):
    """Quotient and remainder of ``a`` by the monic ``b`` over GF(p^M)."""
    a = list(a)
    db = len(b) - 1
    if len(a) <= db:
        return [], _ptrim(a)
    q = [0] * (len(a) - db)
    for k in range(len(a) - 1, db - 1, -1):
        c = a[k]
        q[k - db] = c
        if c:
            for j in range(db):
                if b[j]:
                    a[k - db + j] = _kernel.submod(
                        a[k - db + j], _kernel.mulmod(b[j], c, pk), pk)
    return _ptrim(q), _ptrim(a[:db])


def _emulmod(a, b, g, pk):
    """Product of ``a`` and ``b`` over GF(p^M), reduced by the monic ``g``."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = _kernel.addmod(
                        out[i + j], _kernel.mulmod(ai, bj, pk), pk)
    return _edivmod(out, g, pk)[1]


def _egcd(a, b, pk):
    """Monic gcd over GF(p^M) of the monic ``a`` and ``b``."""
    while b:
        lead_inv = _kernel.invmod(b[-1], pk)
        b = [_kernel.mulmod(c, lead_inv, pk) for c in b]
        a, b = b, _edivmod(a, b, pk)[1]
    return a


def _split_root(f, pk, rng):
    """One root in GF(p^M), the field of the packing ``pk``, of the monic
    ``f`` over GF(p), which must split there into distinct linear factors
    (Cantor-Zassenhaus).

    Every root alpha of a factor g is sorted by a random shift delta: for
    odd p by the quadratic character (alpha + delta)^((p^M - 1)/2) = +-1,
    for p = 2 by the trace sum((delta*alpha)^(2^i), i < M) in {0, 1}.  So
    gcd(g, h) with h the same expression in y mod g splits g whenever two
    roots fall on different sides, which happens with probability at least
    about one half; the smaller side is kept until it is linear.  The
    coefficients of f, constants of GF(p), are their own packed elements.
    """
    m, p = pk.m, pk.p
    order = p**m
    g = list(f)
    while len(g) > 2:
        delta = _kernel.from_digits(
            int_to_coeffs(rng.randrange(order), m, p), pk)
        if p == 2:
            t = _ptrim([0, delta])
            h = t
            for _ in range(m - 1):
                t = _emulmod(t, t, g, pk)
                h = _eadd(h, t, pk)
        else:
            h = _power([delta, 1], (order - 1) // 2,
                       lambda a, b: _emulmod(a, b, g, pk), [1])
            h = _eadd(h, [p - 1], pk)
        d = _egcd(g, h, pk)
        if 1 < len(d) < len(g):
            if 2 * len(d) > len(g) + 1:
                d = _edivmod(g, d, pk)[0]
            g = d
    return _kernel.submod(0, g[0], pk)


@functools.lru_cache(maxsize=None)
def _embedding_powers(small, big):
    """Packed columns of the embedding: the images in ``big`` of the powers
    of the small field's generator.

    The small generator maps to the root of the small modulus in ``big``
    with the smallest integer encoding.  One root u is found by
    Cantor-Zassenhaus splitting (:func:`_split_root`), at a cost polynomial
    in the degrees and log p.  The small modulus is irreducible over GF(p),
    so its roots are exactly the conjugates u^(p^k), k < small.m; their
    minimum is the minimal root whichever u the seeded search finds.
    """
    p, pk, small_mod = big.p, big.packing, small.modulus
    root = _split_root(small_mod, pk, random.Random(EMBEDDING_SEED))
    conjugates = [root]
    for _ in range(small.m - 1):
        conjugates.append(_power(conjugates[-1], p, big._mul, 1))
    u = min(conjugates)
    acc = 1
    for c in reversed(small_mod[:-1]):
        acc = _kernel.addmod(big._mul(acc, u), c, pk)
    if acc:
        raise AssertionError("embedded generator is not a root of the small modulus")
    powers = [1]
    for _ in range(small.m - 1):
        powers.append(big._mul(powers[-1], u))
    return tuple(powers)


def embed_subfield(x: FieldElem, big: FieldCtx) -> FieldElem:
    """Canonical field homomorphism from x's field into ``big``.

    Fixed per context pair: the small generator goes to the minimal-encoding
    root of the small modulus in ``big``.  That root is canonical because
    the roots are the Frobenius conjugates of any one of them, so their
    minimum does not depend on which root the randomized splitting of
    :func:`_embedding_powers` reaches first; repeated calls and processes
    agree.
    """
    small = x.ctx
    if small.p != big.p:
        raise ValueError("fields of different characteristic")
    if big.m % small.m:
        raise ValueError(
            f"degree {small.m} does not divide {big.m}; no embedding exists")
    powers = _embedding_powers(small, big)
    return FieldElem(big, _kernel.matvec(
        powers, _kernel.digits(x.packed, small.packing), big.packing))
