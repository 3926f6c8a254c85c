"""Brute-force ground truth for small fields.

Everything here builds the table of a polynomial's values at every field
element and compares it against the closed forms elsewhere in the package;
nothing is derived from the formulas under test.  A table is built by
evaluating the polynomial directly on the m basis vectors of GF(p^m) and
extending by GF(p)-linearity.  Linearity is checked, not assumed: a seeded
sample of non-basis elements is re-evaluated directly with
:meth:`LinearizedPoly.eval` and must match the table.  The exhaustive
routines refuse fields above ``MAX_EXHAUSTIVE_ORDER`` elements, and
:func:`sweep` drives the full cross-validation grid over (p, e, n, r, a),
collecting failures as data instead of raising.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass, field

from . import _kernel, binomial
from .errors import CapacityError, NotAPermutationError
from .ffield import (FieldCtx, check_characteristic, embed_subfield,
                     field_ctx)
from .linpoly import LinearizedPoly

# Hard safety cap on exhaustive enumeration, in field elements.
MAX_EXHAUSTIVE_ORDER = 1_000_000

# Structural bounds of the sweep grid: the extension degree n, the exponent
# e of q = p^e, and the lift factor t.  Below a field-order cap of 2^17
# the cap alone decides the grid; MAX_N first binds at 2^17 and MAX_E and
# MAX_T at 2^18.
MAX_N = 16
MAX_E = 8
MAX_T = 8

# Non-basis elements per table that are re-evaluated directly, and the seed
# that picks them.
DIRECT_SAMPLE_SIZE = 4
DIRECT_SAMPLE_SEED = 1729

CHECK_CRITERION = "criterion"
CHECK_COFACTORS = "cofactors"
CHECK_INVERSE = "inverse"
CHECK_AGREEMENT = "agreement"
CHECK_LIFT = "lift"

# Work units a sweep counts in ``SweepReport.counts``: Dickson matrices
# built, eliminations run on them (determinant, cofactor, row-0 solve),
# brute-force image tables, direct evaluations that spot-check those tables,
# lifts, and field contexts whose log tables the sweep built.
COUNTS = ("dickson_matrices", "eliminations", "tables", "direct_evaluations",
          "lifts", "log_tables")


def _require_capacity(ctx: FieldCtx):
    if ctx.order > MAX_EXHAUSTIVE_ORDER:
        raise CapacityError(f"field order {ctx.order} exceeds the exhaustive "
                            f"cap {MAX_EXHAUSTIVE_ORDER}")


@functools.lru_cache(maxsize=None)
def _direct_sample(ctx: FieldCtx) -> tuple:
    """Seeded sample of non-basis elements, fixed per context."""
    basis = {0} | {ctx.p**k for k in range(ctx.m)}
    pool = [x for x in range(ctx.order) if x not in basis]
    rng = random.Random(DIRECT_SAMPLE_SEED)
    picked = rng.sample(pool, min(DIRECT_SAMPLE_SIZE, len(pool)))
    return tuple((x, ctx.from_int(x)) for x in sorted(picked))


def _images(L: LinearizedPoly, mismatches: list | None = None) -> list[int]:
    """enc(L(x)) for every x, in encoding order.

    The kernel evaluates L on the basis and extends by linearity; the sampled
    elements of :func:`_direct_sample` are then re-evaluated with
    ``L.eval``.  Each disagreement is appended to ``mismatches`` as
    (x, table value, direct value) when a list is given, and raises
    ``AssertionError`` otherwise.
    """
    ctx = L.ctx
    rows = []
    mats = []
    for i, c in enumerate(L.coeffs):
        if c:
            rows.append(list(c.coeffs))
            mats.append(ctx._frob_flat((ctx.e * i) % ctx.m))
    img = _kernel.eval_all(rows, mats, ctx.modulus, ctx.p)
    bad = []
    for enc, x in _direct_sample(ctx):
        direct = L.eval(x).to_int()
        if img[enc] != direct:
            bad.append((enc, img[enc], direct))
    if bad:
        if mismatches is None:
            raise AssertionError(
                f"image table disagrees with direct evaluation at {bad}")
        mismatches.extend(bad)
    return img


def brute_is_permutation(L: LinearizedPoly) -> bool:
    """Exhaustive bijectivity check.

    Computes both the image-set size and the kernel triviality count; the
    two must agree by linearity, and their agreement is asserted.
    """
    _require_capacity(L.ctx)
    img = _images(L)
    image_full = len(set(img)) == L.ctx.order
    kernel_trivial = img.count(0) == 1
    if image_full != kernel_trivial:
        raise AssertionError("image-size and kernel checks disagree")
    return image_full


def verify_inverse(L: LinearizedPoly, M: LinearizedPoly) -> bool:
    """True iff L(M(x)) = x = M(L(x)) for every field element x."""
    _require_capacity(L.ctx)
    img_l = _images(L)
    img_m = _images(M)
    return all(img_m[img_l[i]] == i and img_l[img_m[i]] == i
               for i in range(L.ctx.order))


def brute_inverse_table(L: LinearizedPoly) -> list[int]:
    """Table T with T[enc(L(x))] = enc(x); requires a permutation."""
    _require_capacity(L.ctx)
    img = _images(L)
    order = L.ctx.order
    if len(set(img)) != order:
        raise NotAPermutationError("polynomial does not permute the field")
    table = [0] * order
    for x_enc, y_enc in enumerate(img):
        table[y_enc] = x_enc
    return table


@functools.lru_cache(maxsize=None)
def _embedding_table(small: FieldCtx, big: FieldCtx) -> list[int]:
    """enc_big(embed(x)) for every small element x, in encoding order."""
    return [embed_subfield(x, big).to_int() for x in small.elements()]


@dataclass(frozen=True)
class SweepConfig:
    """Bounds for the cross-validation grid.

    ``max_field_order`` caps p^(e*n) for exhaustive checks, lifted fields
    included, and may not exceed the module safety cap; the module constants
    ``MAX_E``, ``MAX_N`` and ``MAX_T`` bound e, n and the lift factor t.
    Every entry of ``primes`` must be a prime no larger than ``MAX_PRIME``.
    """

    max_field_order: int = 729
    primes: tuple[int, ...] = (2, 3, 5)

    def __post_init__(self):
        if not 1 <= self.max_field_order <= MAX_EXHAUSTIVE_ORDER:
            raise ValueError(
                f"max_field_order must lie in [1, {MAX_EXHAUSTIVE_ORDER}]")
        object.__setattr__(self, "primes", tuple(self.primes))
        for p in self.primes:
            check_characteristic(p)


@dataclass(frozen=True)
class SweepFailure:
    p: int
    e: int
    n: int
    r: int
    a: int
    t: int | None
    check: str
    detail: str

    def line(self) -> str:
        t = "-" if self.t is None else str(self.t)
        return (f"failure: p={self.p} e={self.e} n={self.n} r={self.r} "
                f"a={self.a} t={t} check={self.check} detail={self.detail}")


@dataclass
class SweepReport:
    config: SweepConfig
    cases: int = 0
    permutation_cases: int = 0
    cofactor_checks: int = 0
    lift_checks: int = 0
    failures: list[SweepFailure] = field(default_factory=list)
    timings: dict = field(default_factory=dict, compare=False)
    # a context's log tables are built once per process, so a repeated
    # sweep counts none; counts are left out of comparisons
    counts: dict = field(default_factory=lambda: dict.fromkeys(COUNTS, 0),
                         compare=False)

    @property
    def ok(self) -> bool:
        return not self.failures

    def failures_for(self, check: str) -> list[SweepFailure]:
        return [f for f in self.failures if f.check == check]

    def format(self) -> str:
        """One line per failure, then the counts and the failure total."""
        lines = [f.line() for f in self.failures]
        lines += [
            f"cases: {self.cases}",
            f"permutation_cases: {self.permutation_cases}",
            f"cofactor_checks: {self.cofactor_checks}",
            f"lift_checks: {self.lift_checks}",
            f"failures: {len(self.failures)}",
        ]
        return "\n".join(lines)


class _Timer:
    """Accumulates wall time per check family."""

    def __init__(self, sink: dict, key: str):
        self.sink = sink
        self.key = key

    def __enter__(self):
        self.start = time.perf_counter()

    def __exit__(self, *exc):
        self.sink[self.key] = self.sink.get(self.key, 0.0) + (
            time.perf_counter() - self.start)
        return False


def _grid(cfg: SweepConfig):
    """(p, e, n) triples in lexicographic order within the bounds."""
    for p in sorted(set(cfg.primes)):
        for e in range(1, MAX_E + 1):
            if p ** (2 * e) > cfg.max_field_order:
                break
            for n in range(2, MAX_N + 1):
                if p ** (e * n) > cfg.max_field_order:
                    break
                yield p, e, n


def _check_cofactors(ctx, spec, D, det, failures):
    """Closed forms of the first-column cofactors of D for r = 1, a != 0.

    cofactor(0,0) = N(a)/a, cofactor(i,0) = (-1)^i N(a) a^-(1+q+...+q^i)
    for middle i, cofactor(n-1,0) = (-1)^(n-1), and the determinant ``det``
    of D is N(a) + (-1)^(n-1); all hold whether or not the binomial permutes.
    """
    n = ctx.n
    a = spec.a
    nor = a.norm_rel(1)
    checks = []
    checks.append(("cof0", D.cofactor(0, 0), nor * a.inv()))
    for i in range(1, n - 1):
        expected = nor * binomial.geometric_power(a, 1, i).inv()
        if i % 2:
            expected = -expected
        checks.append((f"cof{i}", D.cofactor(i, 0), expected))
    sign = binomial._sign(ctx, n - 1)
    checks.append((f"cof{n - 1}", D.cofactor(n - 1, 0), sign))
    checks.append(("det", det, nor + sign))
    out = []
    for name, got, expected in checks:
        if got != expected:
            out.append((name, got.to_int(), expected.to_int()))
    if out:
        failures.append(f"cofactor mismatches {out}")
    return len(checks)


def sweep(cfg: SweepConfig) -> SweepReport:
    """Cross-validate every closed form on the full (p, e, n, r, a) grid.

    Per case: the norm criterion, the determinant criterion, and exhaustive
    bijectivity must agree, and a non-permutation must have exactly
    q^gcd(n, r) kernel elements; for permutations, the closed-form inverse
    must compose to the identity both ways and match the matrix-method
    inverse (and the special forms where they apply); for r = 1 the cofactor
    closed forms are checked; and permutations are lifted to every
    admissible bigger field and rechecked exhaustively.  L's Dickson matrix
    is built once per case and serves the determinant, cofactor and
    matrix-inverse checks.  The work done is counted per unit in
    ``report.counts`` (see ``COUNTS``).  Failures are collected, not
    raised: an internal consistency check that raises ``AssertionError``
    (the denominator check of the norm criterion, the cofactor check of the
    matrix method, the root check of the embedding) is recorded under its
    check family and the case moves on.  The grid order is fixed, so
    reports are reproducible.
    """
    report = SweepReport(config=cfg)
    timings = report.timings
    counts = report.counts
    untabled = set()            # contexts seen before their log tables
    for p, e, n in _grid(cfg):
        ctx = field_ctx(p, e, n)
        if not ctx.has_log_tables:
            untabled.add(ctx)
        identity = LinearizedPoly.identity(ctx)
        lift_ts = [
            t for t in range(1, MAX_T + 1)
            if math.gcd(t, n) == 1 and p ** (e * n * t) <= cfg.max_field_order
        ]
        for r in range(1, n):
            for enc_a in range(ctx.order):
                report.cases += 1
                spec = binomial.BinomialSpec(ctx.from_int(enc_a), r)
                L = spec.poly()

                def fail(check, detail, t=None):
                    report.failures.append(SweepFailure(
                        p, e, n, r, enc_a, t, check, detail))

                def table(poly, what, t=None):
                    # a table that disagrees with direct evaluation breaks
                    # the brute-force oracle, whichever check reads it
                    bad = []
                    img = _images(poly, bad)
                    counts["tables"] += 1
                    counts["direct_evaluations"] += len(_direct_sample(poly.ctx))
                    if bad:
                        fail(CHECK_CRITERION, f"{what} table disagrees with "
                             f"direct evaluation at {bad}", t=t)
                    return img

                with _Timer(timings, CHECK_CRITERION):
                    try:
                        perm_norm = binomial.is_permutation_binomial(spec)
                    except AssertionError as exc:
                        fail(CHECK_CRITERION, f"norm criterion: {exc}")
                        perm_norm = None
                    D = L.dickson_matrix()
                    det = D.det()
                    counts["dickson_matrices"] += 1
                    counts["eliminations"] += 1
                    perm_det = bool(det)
                    img = table(L, "polynomial")
                    perm_brute = len(set(img)) == ctx.order
                    kernel = img.count(0)
                    if perm_brute != (kernel == 1):
                        fail(CHECK_CRITERION, "image and kernel checks disagree")
                    elif not perm_brute and kernel != ctx.q ** math.gcd(n, r):
                        # x^(q^r - 1) = -a has 0 or q^d - 1 nonzero solutions
                        fail(CHECK_CRITERION, f"kernel has {kernel} elements, "
                             f"expected {ctx.q ** math.gcd(n, r)}")
                    agree = perm_norm == perm_det == perm_brute
                    if not agree:
                        fail(CHECK_CRITERION,
                             f"norm={perm_norm} det={perm_det} brute={perm_brute}")

                if r == 1 and enc_a != 0:
                    with _Timer(timings, CHECK_COFACTORS):
                        failures = []
                        report.cofactor_checks += _check_cofactors(
                            ctx, spec, D, det, failures)
                        counts["eliminations"] += n  # one per cofactor
                        for detail in failures:
                            fail(CHECK_COFACTORS, detail)

                if not (agree and perm_norm):
                    continue
                report.permutation_cases += 1

                with _Timer(timings, CHECK_INVERSE):
                    M = binomial.inverse_binomial(spec)
                    if L.compose(M) != identity or M.compose(L) != identity:
                        fail(CHECK_INVERSE, "composition is not the identity")
                    else:
                        img_m = table(M, "inverse")
                        if not all(img_m[img[i]] == i and img[img_m[i]] == i
                                   for i in range(ctx.order)):
                            fail(CHECK_INVERSE, "pointwise inverse check failed")

                with _Timer(timings, CHECK_AGREEMENT):
                    counts["eliminations"] += 1
                    try:
                        M_dickson = D.inverse_poly()
                    except AssertionError as exc:
                        fail(CHECK_AGREEMENT, f"matrix method: {exc}")
                    else:
                        if M_dickson != M:
                            fail(CHECK_AGREEMENT,
                                 f"matrix method gave {M_dickson.to_encodings()}, "
                                 f"closed form {M.to_encodings()}")
                    for shape in binomial._shapes(spec):
                        M_special = binomial.inverse_special(spec, which=shape)
                        if M_special != M:
                            fail(CHECK_AGREEMENT,
                                 f"shape {shape} gave {M_special.to_encodings()}, "
                                 f"closed form {M.to_encodings()}")

                with _Timer(timings, CHECK_LIFT):
                    for t in lift_ts:
                        big = field_ctx(p, e * t, n)
                        if not big.has_log_tables:
                            untabled.add(big)
                        report.lift_checks += 1
                        counts["lifts"] += 1
                        try:
                            lifted = binomial.lift(L, t, big)
                        except AssertionError as exc:
                            fail(CHECK_LIFT, f"embedding: {exc}", t=t)
                            continue
                        img_big = table(lifted, "lift", t=t)
                        if len(set(img_big)) != big.order:
                            fail(CHECK_LIFT, "lift is not a permutation", t=t)
                            continue
                        # pointwise agreement on the embedded subfield, read
                        # off the two exhaustive image tables
                        emb = _embedding_table(ctx, big)
                        if any(img_big[emb[s]] != emb[img[s]]
                               for s in range(ctx.order)):
                            fail(CHECK_LIFT, "disagrees with the source on "
                                 "the embedded subfield", t=t)
    counts["log_tables"] = sum(c.has_log_tables for c in untabled)
    return report
