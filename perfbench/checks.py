"""Checks of linperm's outputs by arithmetic written apart from linperm.

Nothing here imports linperm.  Field elements of GF(p^m) are polynomials
over GF(p) reduced by the modulus, handled with ``sympy.polys.galoistools``
(dense coefficient lists, highest degree first).  They cross over from
linperm as integer encodings enc(x) = sum(c_i * p**i), and a modulus
encoding includes its leading coefficient.

Each ``check_*`` function returns one list of problems per operation of its
workload; an empty list means the operation's outputs are correct.  A call
that raised gives the single problem ``Raised(<exception>)``: the operation
failed, but it produced no output that could be wrong.
"""

from __future__ import annotations

from math import gcd

from sympy.polys import galoistools as gt
from sympy.polys.domains import ZZ


class Raised(str):
    """The problem of an operation whose call raised instead of returning."""


def enc_to_poly(enc: int, p: int) -> list[int]:
    digits = []
    while enc:
        enc, c = divmod(enc, p)
        digits.append(c)
    return digits[::-1]


def poly_to_enc(f, p: int) -> int:
    enc = 0
    for c in f:
        enc = enc * p + c
    return enc


def minimal_modulus(p: int, m: int) -> int:
    """Encoding of the monic irreducible of degree m with the smallest encoding.

    This is the canonical modulus linperm documents; it is found here by its
    own scan so that inputs can be drawn before linperm runs.
    """
    for tail in range(p**m):
        f = enc_to_poly(p**m + tail, p)
        if gt.gf_irreducible_p(f, p, ZZ):
            return p**m + tail
    raise ValueError(f"no irreducible of degree {m} over GF({p})")


class Field:
    """GF(p^m) = GF(p)[x]/(mod) with q = p^e, for the checks."""

    def __init__(self, p: int, e: int, n: int, modulus_enc: int):
        self.p, self.e, self.n = p, e, n
        self.m = e * n
        self.q = p**e
        self.mod = enc_to_poly(modulus_enc, p)
        self._frob = {}

    def modulus_problems(self) -> list[str]:
        if len(self.mod) != self.m + 1 or self.mod[0] != 1:
            return [f"modulus {poly_to_enc(self.mod, self.p)} is not monic "
                    f"of degree {self.m}"]
        if not gt.gf_irreducible_p(self.mod, self.p, ZZ):
            return [f"modulus {poly_to_enc(self.mod, self.p)} is reducible"]
        return []

    def elem(self, enc: int) -> list[int]:
        if not 0 <= enc < self.p**self.m:
            raise ValueError(f"encoding {enc} outside GF({self.p}^{self.m})")
        return enc_to_poly(enc, self.p)

    def enc(self, f) -> int:
        return poly_to_enc(f, self.p)

    def mul(self, f, g):
        return gt.gf_rem(gt.gf_mul(f, g, self.p, ZZ), self.mod, self.p, ZZ)

    def add(self, f, g):
        return gt.gf_add(f, g, self.p, ZZ)

    def pow(self, f, k: int):
        return gt.gf_pow_mod(f, k, self.mod, self.p, ZZ)

    def compose(self, f, g):
        """f(g) reduced by the modulus."""
        return gt.gf_compose_mod(f, g, self.mod, self.p, ZZ)

    def frobenius_q(self, f, k: int):
        """f^(q^k), applied as a GF(p)-linear map built from x^(q^k)."""
        k %= self.n
        cols = self._frob.get(k)
        if cols is None:
            t = self.pow([1, 0], self.q**k)
            cols, col = [], [1]
            for _ in range(self.m):
                cols.append(col[::-1] + [0] * (self.m - len(col)))
                col = self.mul(col, t)
            self._frob[k] = cols
        acc = [0] * self.m
        for j, c in enumerate(reversed(f)):
            if c:
                for i, v in enumerate(cols[j]):
                    acc[i] += c * v
        return gt.gf_strip([v % self.p for v in reversed(acc)])

    def criterion(self, a, r: int) -> bool:
        """(-1)^(n/d) * a^((q^n - 1)/(q^d - 1)) != 1, with d = gcd(n, r)."""
        d = gcd(self.n, r)
        norm = self.pow(a, (self.q**self.n - 1) // (self.q**d - 1)) if a else []
        if (self.n // d) % 2:
            norm = gt.gf_neg(norm, self.p, ZZ)
        return norm != [1]


def draw_permutation(field: Field, r: int, rng) -> int:
    """Encoding of a uniformly drawn a with x^(q^r) + a*x a permutation.

    a = 0 is among the draws: over GF(2^n) with gcd(n, r) = 1 every nonzero
    a has norm 1, so x^(2^r) is the only permutation of this shape.
    """
    while True:
        a = rng.randrange(field.p**field.m)
        if field.criterion(field.elem(a), r):
            return a


def inverse_problems(field: Field, a_enc: int, r: int, coeffs) -> list[str]:
    """L(M(x)) = x for L = x^(q^r) + a*x and M = sum c_k x^(q^k).

    Coefficient k of L(M(x)) modulo x^(q^n) - x is c_(k-r)^(q^r) + a*c_k;
    it must be 1 at k = 0 and 0 elsewhere.  Reduced linearized polynomials
    and GF(q)-linear maps of GF(q^n) correspond one to one, so this is the
    same as L(M(y)) = y for every y, and M is then the inverse on both sides.
    """
    n = field.n
    if len(coeffs) != n:
        return [f"inverse has {len(coeffs)} coefficients, not n={n}"]
    a = field.elem(a_enc)
    c = [field.elem(v) for v in coeffs]
    for k in range(n):
        got = field.add(field.frobenius_q(c[(k - r) % n], r), field.mul(a, c[k]))
        if got != ([1] if k == 0 else []):
            return [f"L(M(x)) has coefficient {field.enc(got)} at x^(q^{k})"]
    return []


def sweep_counts(cap: int, primes=(2, 3, 5), max_n: int = 16, max_e: int = 8,
                 max_t: int = 8) -> dict:
    """Counts a sweep over the grid must report, from closed formulas.

    For each field GF(q^n) with q = p^e and each r, x^(q^r) + a*x permutes
    for all a but the (q^n - 1)/(q^d - 1) with (-1)^(n/d) N(a) = 1; r = 1
    brings n + 1 cofactor checks for each nonzero a; every permutation is
    lifted once per t <= max_t coprime to n with (q^n)^t <= cap.
    """
    cases = perm = cofactors = lifts = 0
    for p in sorted(set(primes)):
        for e in range(1, max_e + 1):
            if p ** (2 * e) > cap:
                break
            q = p**e
            for n in range(2, max_n + 1):
                order = q**n
                if order > cap:
                    break
                ts = sum(1 for t in range(1, max_t + 1)
                         if gcd(t, n) == 1 and order**t <= cap)
                for r in range(1, n):
                    d = gcd(n, r)
                    pc = order - (order - 1) // (q**d - 1)
                    cases += order
                    perm += pc
                    lifts += pc * ts
                cofactors += (order - 1) * (n + 1)
    return {"cases": cases, "permutation_cases": perm,
            "cofactor_checks": cofactors, "lift_checks": lifts}


def check_sweep(job: dict, out: dict) -> list[list[str]]:
    """One operation: a sweep with no failures and the counts of the formula."""
    if out.get("error"):
        return [[Raised(out["error"])]]
    problems = [f"sweep failure: {f}" for f in out["failures"]]
    expected = sweep_counts(job["cap"], tuple(job["primes"]))
    for key, value in expected.items():
        if out[key] != value:
            problems.append(f"{key} = {out[key]}, formula gives {value}")
    return [problems]


def _check_binomials(job: dict, out: dict, binomial_problems) -> list[list[str]]:
    """One operation per binomial, after the checks of the shared modulus."""
    field = Field(job["p"], job["e"], job["n"], out["modulus"])
    shared = field.modulus_problems()
    if out["modulus"] != job["modulus"]:
        shared.append(f"modulus {out['modulus']}, canonical is {job['modulus']}")
    ops = []
    for (a, r), res in zip(job["binomials"], out["binomials"]):
        if res.get("error"):
            ops.append([Raised(res["error"])])
        elif shared:
            ops.append(list(shared))
        else:
            ops.append(binomial_problems(field, a, r, res))
    return ops


def check_invert(job: dict, out: dict) -> list[list[str]]:
    """Per binomial: the criterion agrees with the norm, and L o M = x."""
    def problems(field, a, r, res):
        found = []
        expected = field.criterion(field.elem(a), r)
        if res["permutation"] != expected:
            found.append(f"criterion says {res['permutation']}, norm gives {expected}")
        return found + inverse_problems(field, a, r, res["closed"])
    return _check_binomials(job, out, problems)


def check_dickson(job: dict, out: dict) -> list[list[str]]:
    """Per binomial: the Dickson inverse M has L o M = x and equals the
    closed form."""
    def problems(field, a, r, res):
        found = inverse_problems(field, a, r, res["dickson"])
        if res["dickson"] != res["closed"]:
            found.append("Dickson inverse differs from the closed form")
        return found
    return _check_binomials(job, out, problems)


def lift_problems(small: Field, big: Field, t: int, a_enc: int, r: int,
                  res: dict) -> list[str]:
    """The lift of x^(q^r) + a*x from ``small`` to ``big`` = GF((q^t)^n).

    The embedded generator must be a root of the small modulus; the lifted
    polynomial must be the binomial x^(Q^r') + a'*x with Q = q^t and
    r' = r/t mod n, must permute the big field, and must agree with the
    source on the embedded images of the small field's GF(p)-basis.
    """
    problems = small.modulus_problems() + big.modulus_problems()
    if problems:
        return problems
    n = small.n
    g = big.elem(res["generator"])
    if big.compose(small.mod, g):
        return [f"embedded generator {res['generator']} is not a root of "
                f"the small modulus"]
    coeffs = [big.elem(v) for v in res["lifted"]]
    if len(coeffs) != n:
        return [f"lift has {len(coeffs)} coefficients, not n={n}"]
    r_big = r * pow(t, -1, n) % n
    shape = [i for i, c in enumerate(coeffs) if c]
    if shape != [0, r_big][not a_enc:] or coeffs[r_big] != [1]:
        return [f"lift {res['lifted']} is not x^(Q^{r_big}) + a'x"]
    if not big.criterion(coeffs[0], r_big):
        return ["lifted binomial does not permute the big field"]
    a = small.elem(a_enc)
    Q = big.q
    for k in range(small.m):
        s = [1] + [0] * k
        image = small.add(small.frobenius_q(s, r), small.mul(a, s))
        z = big.compose(s, g)
        lifted_z = big.add(big.pow(z, Q**r_big), big.mul(coeffs[0], z))
        if lifted_z != big.compose(image, g):
            return [f"lift disagrees with the source at the embedded x^{k}"]
    return []


def check_lift(job: dict, out: dict) -> list[list[str]]:
    """One operation per lifted pair."""
    ops = []
    for pair, res in zip(job["pairs"], out["pairs"]):
        p, e, n, t, a, r = (pair[k] for k in ("p", "e", "n", "t", "a", "r"))
        if res.get("error"):
            ops.append([Raised(res["error"])])
            continue
        problems = []
        if res["small_modulus"] != pair["modulus"]:
            problems.append(f"small modulus {res['small_modulus']}, "
                            f"canonical is {pair['modulus']}")
        small = Field(p, e, n, res["small_modulus"])
        big = Field(p, e * t, n, res["big_modulus"])
        ops.append(problems + lift_problems(small, big, t, a, r, res))
    return ops
