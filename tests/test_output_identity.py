"""Outputs pinned across kernel rewrites.

Each test hashes the text encodings of a fixed set of outputs, never packed
ints (those change wherever the slot width does), and compares the sha256
with the digest the kernels produced before their last rewrite.
"""

import hashlib
import random

from linperm import (BinomialSpec, LinearizedPoly, inverse_binomial,
                     is_permutation_binomial)
from linperm.ffield import field_ctx, find_irreducible

MODULUS_CASES = sorted(
    {(p, m) for p in (2, 3, 5, 7, 11, 31, 101) for m in range(1, 13)
     if p**m < 10**13}
    | {(3, 32), (2, 64), (5, 24), (1009, 6), (65537, 5), (2**31 - 1, 4),
       (2**31 - 1, 6), (1000003, 3)})

# one field per slot class: one byte (GF(3^32), GF(2^64)), two (GF(5^24)),
# three rounded to four (GF(1009^6)), five and six rounded to eight
# (GF(65537^5), GF(1000003^3)), eight (GF((2^31 - 1)^4)) and nine
# (GF((2^31 - 1)^6))
OP_FIELDS = [(3, 2, 16), (2, 4, 16), (5, 2, 12), (1009, 2, 3), (65537, 1, 5),
             (1000003, 1, 3), (2**31 - 1, 2, 2), (2**31 - 1, 2, 3)]

MODULI_SHA256 = (
    "4132d5e5b3aa8e9f377c5cb90658c138ef508ca6211ecc8d04b0be1dade2b61a")
OPS_SHA256 = (
    "f66694b3ebcd561d404205f8c4bd3e4b367586a9cdcbefc79b559bbb8b0ac42d")

# (p, e, n, r) above the log-table cap: d = 1 and d = 16 over GF(3^32),
# d = 1 and d = 4 with q != p over GF(4^16), two-byte slots over GF(25^12)
# and four-byte slots over GF(1009^6) at d = 1, 2 and 3
CLOSED_FORM_CASES = [(3, 1, 32, 1), (3, 1, 32, 7), (3, 1, 32, 16),
                     (3, 1, 32, 31), (2, 2, 16, 3), (2, 2, 16, 4),
                     (5, 2, 12, 5), (1009, 1, 6, 1), (1009, 1, 6, 2),
                     (1009, 1, 6, 3)]
CLOSED_FORM_SHA256 = (
    "fe7c980a3d1c76d02d17df5275f573cf6763e887785cfc7588dd9ae87d082979")
DICKSON_SHA256 = (
    "7a61064bd552f1b2d98197d16b60efd9a3281c7fefeb90b0ee34325ac4088451")


def sha256(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_canonical_moduli_are_pinned():
    assert len(MODULUS_CASES) == 82
    assert sha256(f"{p} {m} {find_irreducible(p, m)}"
                  for p, m in MODULUS_CASES) == MODULI_SHA256


def test_field_operations_are_pinned():
    lines = []
    for p, e, n in OP_FIELDS:
        ctx = field_ctx(p, e, n)
        rng = random.Random(ctx.m * p)
        encs = [1, p - 1, p, ctx.order - 1] + [rng.randrange(1, ctx.order)
                                              for _ in range(12)]
        xs = [ctx.from_int(v) for v in encs]
        for x, y in zip(xs, xs[1:] + xs[:1]):
            lines.append(" ".join(str(z.to_int()) for z in (
                x * y, x.inv(), x.frobenius(3), x.norm_rel(1))))
    assert sha256(lines) == OPS_SHA256


def test_closed_form_inverses_are_pinned():
    lines = []
    for p, e, n, r in CLOSED_FORM_CASES:
        ctx = field_ctx(p, e, n)
        rng = random.Random(1000 * ctx.m + r)
        drawn = 0
        while drawn < 3:
            spec = BinomialSpec(ctx.random_element(rng), r)
            if is_permutation_binomial(spec):
                drawn += 1
                lines.append(" ".join(map(str, inverse_binomial(
                    spec).to_encodings())))
    assert sha256(lines) == CLOSED_FORM_SHA256


def test_dickson_matrices_are_pinned():
    # two binomials per case and one dense polynomial per field, permutations
    # or not: every entry is a Frobenius image of a coefficient
    lines = []
    fields = []
    for p, e, n, r in CLOSED_FORM_CASES:
        ctx = field_ctx(p, e, n)
        rng = random.Random(2000 * ctx.m + r)
        polys = [BinomialSpec(ctx.random_element(rng), r).poly()
                 for _ in range(2)]
        if (p, e, n) not in fields:
            fields.append((p, e, n))
            polys.append(LinearizedPoly(
                ctx, [ctx.random_element(rng) for _ in range(n)]))
        for L in polys:
            lines.extend(" ".join(str(c.to_int()) for c in row)
                         for row in L.dickson_matrix().entries)
    assert sha256(lines) == DICKSON_SHA256
