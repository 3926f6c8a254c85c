"""Exact arithmetic in GF(p^m) on a single polynomial basis.

A :class:`FieldCtx` fixes a prime p and tower parameters e and n (q = p^e,
the ambient field is GF(q^n), total degree m = e*n over GF(p)); its modulus
is always :func:`find_irreducible` (p, m), the monic irreducible of degree m
with the smallest encoding.  Elements are coefficient vectors of length
m over GF(p); the integer encoding enc(x) = sum(coeffs[i] * p**i) is a
bijection onto range(p**m) and is the text form used at every interface.

The q-power Frobenius is the e-fold p-power Frobenius, so one basis carries
the whole tower.  Relative norms are products of Frobenius images, so no
big-integer exponent is ever formed on the main arithmetic paths.

How products, inverses, powers and Frobenius images are computed depends on
the field order alone.  A context of at most ``LOG_TABLE_MAX_ORDER``
elements builds, on its first multiplicative operation, an antilog table
of the powers of its smallest-encoding primitive element g and the inverse
log table; then x*y = g^(log x + log y), 1/x = g^(-log x),
x^k = g^(k log x) and x^(p^k) = g^(p^k log x), exponents mod order - 1.
A larger context never builds tables: products are polynomial products
reduced by the modulus, inverses come from the extended Euclidean
algorithm, powers from square-and-multiply, and Frobenius maps are applied
as cached GF(p)-linear matrices.  Elements are coefficient tuples either
way, and addition, subtraction and negation are always coordinatewise.
"""

from __future__ import annotations

import functools
import random

from . import _kernel
from .errors import ContextMismatchError

# Largest accepted characteristic: every coefficient product stays below
# 2^62, so it fits a signed 64-bit word.
MAX_PRIME = 2**31 - 1

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


# ---------------------------------------------------------------------------
# polynomial arithmetic over GF(p) on trimmed little-endian lists
# ---------------------------------------------------------------------------

def _ptrim(v):
    i = len(v)
    while i and v[i - 1] == 0:
        i -= 1
    return v[:i]


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _psub(a, b, p):
    length = max(len(a), len(b))
    out = [0] * length
    for i in range(length):
        ai = a[i] if i < len(a) else 0
        bi = b[i] if i < len(b) else 0
        out[i] = (ai - bi) % p
    return _ptrim(out)


def _pdivmod(a, b, p):
    """Quotient and remainder of trimmed polynomials; ``b`` must be nonzero."""
    a = list(a)
    db = len(b) - 1
    if len(a) - 1 < db:
        return [], _ptrim(a)
    lead_inv = pow(b[-1], p - 2, p)
    q = [0] * (len(a) - db)
    for k in range(len(a) - 1, db - 1, -1):
        c = a[k]
        if c:
            f = c * lead_inv % p
            q[k - db] = f
            for j in range(db + 1):
                a[k - db + j] = (a[k - db + j] - f * b[j]) % p
    return _ptrim(q), _ptrim(a)


def _pgcd(a, b, p):
    a, b = _ptrim(list(a)), _ptrim(list(b))
    while b:
        _, r = _pdivmod(a, b, p)
        a, b = b, r
    return a


def _poly_invmod(a, modulus, p):
    """Inverse of the length-m vector ``a`` modulo the irreducible modulus."""
    m = len(modulus) - 1
    r0, r1 = list(modulus), _ptrim(list(a))
    if not r1:
        raise ZeroDivisionError("inverse of the zero field element")
    t0, t1 = [], [1]
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        t0, t1 = t1, _psub(t0, _pmul(q, t1, p), p)
    if len(r0) != 1:
        raise ArithmeticError("element not invertible; modulus is reducible")
    scale = pow(r0[0], p - 2, p)
    inv = [c * scale % p for c in t0]
    inv.extend([0] * (m - len(inv)))
    return inv


def _pow_vec(vec, exponent, modulus, p):
    """Square-and-multiply power of a residue vector mod ``modulus``."""
    m = len(modulus) - 1
    result = [1] + [0] * (m - 1)
    base = list(vec)
    k = exponent
    while k:
        if k & 1:
            result = _kernel.mulmod(result, base, modulus, p)
        k >>= 1
        if k:
            base = _kernel.mulmod(base, base, modulus, p)
    return result


# ---------------------------------------------------------------------------
# irreducibility and modulus search
# ---------------------------------------------------------------------------

def _is_irreducible(f, p: int) -> bool:
    """Irreducibility of the monic polynomial ``f`` over GF(p).

    f of degree m is irreducible exactly when it has no factor of degree
    j <= m/2, that is when gcd(x^(p^j) - x, f) = 1 for every such j; the
    powers x^(p^j) mod f are iterated by p-th powering, so the cost is
    polynomial in m and log p.
    """
    m = len(f) - 1
    if m == 1:
        return True
    if f[0] == 0:
        return False
    x_vec = [0, 1] + [0] * (m - 2)
    t = list(x_vec)
    for _ in range(m // 2):
        t = _pow_vec(t, p, f, p)
        diff = _psub(t, x_vec, p)
        if len(_pgcd(f, diff, p)) != 1:
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
    interchangeable.  Everything derived is built lazily and cached on
    the context, so sharing one context across many operations is cheap and
    thread-safe in the memoized-recompute sense: Frobenius matrices per
    power, and, when ``order <= LOG_TABLE_MAX_ORDER``, the log and antilog
    tables, built by the first product, inverse, power or Frobenius image
    taken in the context (see :meth:`_log_tables`).  Creating a
    context, converting encodings and adding never build them.
    """

    __slots__ = ("p", "e", "n", "m", "q", "order", "modulus", "_frob",
                 "_log", "_exp")

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
        self._frob = {}
        self._log = None
        self._exp = None

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

    @property
    def zero(self) -> "FieldElem":
        return FieldElem(self, (0,) * self.m)

    @property
    def one(self) -> "FieldElem":
        return FieldElem(self, (1,) + (0,) * (self.m - 1))

    def gen(self) -> "FieldElem":
        """The residue of x, the canonical generator of the power basis."""
        if self.m == 1:
            return FieldElem(self, (-self.modulus[0] % self.p,))
        return FieldElem(self, (0, 1) + (0,) * (self.m - 2))

    def from_int(self, value: int) -> "FieldElem":
        if not 0 <= value < self.order:
            raise ValueError(f"encoding {value} outside [0, {self.order})")
        return FieldElem(self, int_to_coeffs(value, self.m, self.p))

    def elements(self):
        """All field elements, in encoding order."""
        for enc in range(self.order):
            yield self.from_int(enc)

    def random_element(self, rng) -> "FieldElem":
        return self.from_int(rng.randrange(self.order))

    @property
    def has_log_tables(self) -> bool:
        """Whether this context's log tables have been built."""
        return self._log is not None

    def _log_tables(self):
        """The log table, built on first use; None above the size cap.

        The tables are over the smallest-encoding primitive element g.
        ``_exp[i]`` is g^i for i < 2(order - 1), so the sum of two logs
        indexes it unreduced; ``_log`` maps each nonzero coefficient tuple
        to its log in [0, order - 1).  g is primitive when g^(N/l) != 1 for
        every prime l | N = order - 1, and the table must then hold N
        distinct elements.
        """
        if self._log is not None or self.order > LOG_TABLE_MAX_ORDER:
            return self._log
        m, p, mod = self.m, self.p, self.modulus
        units = self.order - 1
        one = (1,) + (0,) * (m - 1)
        factors = [l for l in range(2, units + 1)
                   if units % l == 0 and is_prime(l)]
        for enc in range(1, self.order):
            g = int_to_coeffs(enc, m, p)
            if all(tuple(_pow_vec(g, units // l, mod, p)) != one
                   for l in factors):
                break
        exp = [one]
        for _ in range(units - 1):
            exp.append(tuple(_kernel.mulmod(g, exp[-1], mod, p)))
        log = {v: i for i, v in enumerate(exp)}
        if len(log) != units:
            raise AssertionError(
                f"antilog table holds {len(log)} distinct elements, "
                f"expected {units}")
        self._exp = exp + exp
        self._log = log
        return log

    def _frob_flat(self, k: int):
        """Flat m*m matrix of x -> x^(p^k) on the power basis, cached."""
        k %= self.m
        cached = self._frob.get(k)
        if cached is not None:
            return cached
        m, p, mod = self.m, self.p, self.modulus
        if k == 0 or m == 1:
            flat = tuple(1 if i == j else 0 for i in range(m) for j in range(m))
        elif k == 1:
            xp = _pow_vec([0, 1] + [0] * (m - 2), p, mod, p)
            img = [1] + [0] * (m - 1)
            cols = [list(img)]
            for _ in range(m - 1):
                img = _kernel.mulmod(img, xp, mod, p)
                cols.append(img)
            flat = tuple(cols[j][i] for i in range(m) for j in range(m))
        else:
            prev = self._frob_flat(k - 1)
            step = self._frob_flat(1)
            cols = []
            for j in range(m):
                col = [prev[i * m + j] for i in range(m)]
                cols.append(_kernel.matvec(step, col, p))
            flat = tuple(cols[j][i] for i in range(m) for j in range(m))
        self._frob[k] = flat
        return flat


@functools.lru_cache(maxsize=None)
def field_ctx(p: int, e: int, n: int) -> FieldCtx:
    """Shared context for GF((p^e)^n) with the canonical minimal modulus."""
    return FieldCtx(p, e, n)


class FieldElem:
    """One element of a field context, as a tuple of power-basis
    coordinates (the key of the log table in small contexts)."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs: tuple):
        self.ctx = ctx
        self.coeffs = coeffs

    def _peer(self, other) -> "FieldElem":
        if not isinstance(other, FieldElem):
            raise TypeError(f"expected a field element, got {type(other).__name__}")
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ContextMismatchError(
                f"elements of {self.ctx!r} and {other.ctx!r} cannot be combined")
        return other

    def __add__(self, other):
        other = self._peer(other)
        return FieldElem(self.ctx, tuple(
            _kernel.addmod(self.coeffs, other.coeffs, self.ctx.p)))

    def __sub__(self, other):
        other = self._peer(other)
        return FieldElem(self.ctx, tuple(
            _kernel.submod(self.coeffs, other.coeffs, self.ctx.p)))

    def __neg__(self):
        return FieldElem(self.ctx, tuple(_kernel.negmod(self.coeffs, self.ctx.p)))

    def __mul__(self, other):
        other = self._peer(other)
        ctx = self.ctx
        log = ctx._log or ctx._log_tables()
        if log is None:
            return FieldElem(ctx, tuple(_kernel.mulmod(
                self.coeffs, other.coeffs, ctx.modulus, ctx.p)))
        la = log.get(self.coeffs)
        lb = log.get(other.coeffs)
        if la is None or lb is None:
            return ctx.zero
        return FieldElem(ctx, ctx._exp[la + lb])

    def __truediv__(self, other):
        other = self._peer(other)
        return self * other.inv()

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inv() ** (-exponent)
        ctx = self.ctx
        log = ctx._log or ctx._log_tables()
        if log is None:
            return FieldElem(ctx, tuple(_pow_vec(
                self.coeffs, exponent, ctx.modulus, ctx.p)))
        lx = log.get(self.coeffs)
        if lx is None:
            return ctx.one if exponent == 0 else ctx.zero
        return FieldElem(ctx, ctx._exp[lx * exponent % (ctx.order - 1)])

    def inv(self) -> "FieldElem":
        ctx = self.ctx
        log = ctx._log or ctx._log_tables()
        if log is None:
            return FieldElem(ctx, tuple(_poly_invmod(
                self.coeffs, ctx.modulus, ctx.p)))
        lx = log.get(self.coeffs)
        if lx is None:
            raise ZeroDivisionError("inverse of the zero field element")
        return FieldElem(ctx, ctx._exp[ctx.order - 1 - lx])

    def frobenius(self, k: int) -> "FieldElem":
        """x -> x^(p^k); the q^j-power map is frobenius(e*j)."""
        if k < 0:
            raise ValueError("Frobenius power must be nonnegative")
        ctx = self.ctx
        log = ctx._log or ctx._log_tables()
        if log is None:
            flat = ctx._frob_flat(k)
            return FieldElem(ctx, tuple(
                _kernel.matvec(flat, self.coeffs, ctx.p)))
        lx = log.get(self.coeffs)
        if lx is None:
            return self
        units = ctx.order - 1
        return FieldElem(ctx, ctx._exp[lx * pow(ctx.p, k, units) % units])

    def norm_rel(self, d: int) -> "FieldElem":
        """Relative norm onto GF(q^d): the product of the q^d-conjugates.

        Equals x^((q^n-1)/(q^d-1)) for nonzero x, but is computed as a chain
        of n/d - 1 Frobenius-and-multiply steps.
        """
        ctx = self.ctx
        if d < 1 or ctx.n % d:
            raise ValueError(f"d={d} does not divide n={ctx.n}")
        acc = self
        y = self
        for _ in range(ctx.n // d - 1):
            y = y.frobenius(ctx.e * d)
            acc = acc * y
        return acc

    def to_int(self) -> int:
        return coeffs_to_int(self.coeffs, self.ctx.p)

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.ctx == other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ctx, self.coeffs))

    def __repr__(self):
        return f"FieldElem({self.to_int()} in GF({self.ctx.p}^{self.ctx.m}))"


# ---------------------------------------------------------------------------
# subfield embedding
# ---------------------------------------------------------------------------

# Seed of the random shifts that split the small modulus; the embedding does
# not depend on it, only the work done to find it.
EMBEDDING_SEED = 1981


def _etrim(v):
    i = len(v)
    while i and not any(v[i - 1]):
        i -= 1
    return v[:i]


def _eadd(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    return _etrim([_kernel.addmod(c, d, p) for c, d in zip(a, b)]
                  + [list(c) for c in a[len(b):]])


def _edivmod(a, b, mod, p):
    """Quotient and remainder of ``a`` by the monic ``b`` over GF(p^M)."""
    a = list(a)
    db = len(b) - 1
    if len(a) <= db:
        return [], _etrim(a)
    q = [None] * (len(a) - db)
    for k in range(len(a) - 1, db - 1, -1):
        c = a[k]
        q[k - db] = c
        if any(c):
            for j in range(db):
                if any(b[j]):
                    a[k - db + j] = _kernel.submod(
                        a[k - db + j], _kernel.mulmod(b[j], c, mod, p), p)
    return _etrim(q), _etrim(a[:db])


def _emulmod(a, b, g, mod, p):
    """Product of ``a`` and ``b`` over GF(p^M), reduced by the monic ``g``."""
    if not a or not b:
        return []
    out = [[0] * (len(mod) - 1) for _ in range(len(a) + len(b) - 1)]
    for i, ai in enumerate(a):
        if any(ai):
            for j, bj in enumerate(b):
                if any(bj):
                    out[i + j] = _kernel.addmod(
                        out[i + j], _kernel.mulmod(ai, bj, mod, p), p)
    return _edivmod(out, g, mod, p)[1]


def _egcd(a, b, mod, p):
    """Monic gcd over GF(p^M) of the monic ``a`` and ``b``."""
    while b:
        lead_inv = _poly_invmod(b[-1], mod, p)
        b = [_kernel.mulmod(c, lead_inv, mod, p) for c in b]
        a, b = b, _edivmod(a, b, mod, p)[1]
    return a


def _split_root(f, mod, p, rng):
    """One root in GF(p^M) of the monic ``f`` over GF(p), which must split
    there into distinct linear factors (Cantor-Zassenhaus).

    Every root alpha of a factor g is sorted by a random shift delta: for
    odd p by the quadratic character (alpha + delta)^((p^M - 1)/2) = +-1,
    for p = 2 by the trace sum((delta*alpha)^(2^i), i < M) in {0, 1}.  So
    gcd(g, h) with h the same expression in y mod g splits g whenever two
    roots fall on different sides, which happens with probability at least
    about one half; the smaller side is kept until it is linear.
    """
    m = len(mod) - 1
    order = p**m
    one = [1] + [0] * (m - 1)
    g = [[c] + [0] * (m - 1) for c in f]
    while len(g) > 2:
        delta = list(int_to_coeffs(rng.randrange(order), m, p))
        if p == 2:
            t = _etrim([[0] * m, delta])
            h = t
            for _ in range(m - 1):
                t = _emulmod(t, t, g, mod, p)
                h = _eadd(h, t, p)
        else:
            shift = [delta, one]
            h = [one]
            for bit in bin((order - 1) // 2)[2:]:
                h = _emulmod(h, h, g, mod, p)
                if bit == "1":
                    h = _emulmod(h, shift, g, mod, p)
            h = _eadd(h, [[p - 1] + [0] * (m - 1)], p)
        d = _egcd(g, h, mod, p)
        if 1 < len(d) < len(g):
            if 2 * len(d) > len(g) + 1:
                d = _edivmod(g, d, mod, p)[0]
            g = d
    return _kernel.negmod(g[0], p)


@functools.lru_cache(maxsize=None)
def _embedding_powers(p, small_mod, big_mod):
    """Images of the small generator's powers inside the big field.

    The small generator maps to the root of ``small_mod`` in the big field
    with the smallest integer encoding.  One root u is found by
    Cantor-Zassenhaus splitting (:func:`_split_root`), at a cost polynomial
    in the degrees and log p.  The small modulus is irreducible over GF(p),
    so its roots are exactly the conjugates u^(p^k), k < deg(small_mod);
    their minimum is the minimal root whichever u the seeded search finds.
    """
    m_big = len(big_mod) - 1
    m_small = len(small_mod) - 1
    root = _split_root(small_mod, big_mod, p, random.Random(EMBEDDING_SEED))
    conjugates = [root]
    for _ in range(m_small - 1):
        conjugates.append(_pow_vec(conjugates[-1], p, big_mod, p))
    u = min(conjugates, key=lambda v: coeffs_to_int(v, p))
    acc = [1] + [0] * (m_big - 1)
    for c in reversed(small_mod[:-1]):
        acc = _kernel.mulmod(acc, u, big_mod, p)
        acc[0] = (acc[0] + c) % p
    if any(acc):
        raise AssertionError("embedded generator is not a root of the small modulus")
    powers = [(1,) + (0,) * (m_big - 1)]
    img = powers[0]
    for _ in range(m_small - 1):
        img = tuple(_kernel.mulmod(img, u, big_mod, p))
        powers.append(img)
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
    powers = _embedding_powers(small.p, small.modulus, big.modulus)
    p = big.p
    acc = [0] * big.m
    for c, img in zip(x.coeffs, powers):
        if c:
            for i, v in enumerate(img):
                acc[i] = (acc[i] + c * v) % p
    return FieldElem(big, tuple(acc))
