"""Brute-force ground truth for small fields.

Everything here builds the table of a polynomial's values at every field
element and compares it against the closed forms elsewhere in the package;
nothing is derived from the formulas under test.  A table is filled by the
kernel from packed columns, the images of the m basis vectors of GF(p^m),
by GF(p)-linearity: a polynomial's are formed from its terms, a subfield
embedding's are its own.  Linearity is checked, not assumed: a seeded
sample of non-basis elements is re-evaluated directly with
:meth:`LinearizedPoly.eval` and must match the table.  Two predicates
read L's table alone, its kernel size and whether it sends M(x) back to x
at the basis vectors and the sample; :func:`brute_is_permutation`,
:func:`verify_inverse` and :func:`sweep` call them.  Fields above
``MAX_EXHAUSTIVE_ORDER`` elements are refused.  :func:`_check_case` runs
every check of one binomial and returns the failed ones; :func:`sweep`
runs it on the full (p, e, n, r, a) grid, collecting failures.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import math
import random
import time

from . import _kernel, binomial, linpoly
from .errors import CapacityError
from .ffield import (FieldCtx, FieldElem, _embedding_powers,
                     check_characteristic, field_ctx)
from .linpoly import LinearizedPoly

# Hard safety cap on exhaustive enumeration, in field elements.
MAX_EXHAUSTIVE_ORDER = 1_000_000

# Non-basis elements per table that are re-evaluated directly, and the seed
# that picks them.
DIRECT_SAMPLE_SIZE = 4
DIRECT_SAMPLE_SEED = 1729

CHECK_CRITERION = "criterion"
CHECK_COFACTORS = "cofactors"
CHECK_INVERSE = "inverse"
CHECK_AGREEMENT = "agreement"
CHECK_LIFT = "lift"

# Work units a sweep counts in ``SweepReport.counts``: eliminations run on
# Dickson matrices (one solve per case, one per cofactor), brute-force image
# tables, and every ``LinearizedPoly.eval`` (the tables' spot checks, and
# m + |sample| points per inverse).  Each is a function of the config alone.
COUNTS = ("eliminations", "tables", "direct_evaluations")


def _require_capacity(ctx: FieldCtx):
    if ctx.order > MAX_EXHAUSTIVE_ORDER:
        raise CapacityError(f"field order {ctx.order} exceeds the exhaustive "
                            f"cap {MAX_EXHAUSTIVE_ORDER}")


@functools.lru_cache(maxsize=None)
def _direct_sample(ctx: FieldCtx) -> tuple:
    """Seeded sample of non-basis elements, fixed per context.

    Indices are drawn into the non-basis encodings in increasing order, and
    index i is mapped to its encoding by stepping over the sorted basis
    encodings {0, 1, p, ..., p^(m-1)}, so the field is never listed.
    """
    basis = sorted({0} | {ctx.p**k for k in range(ctx.m)})
    size = ctx.order - len(basis)
    rng = random.Random(DIRECT_SAMPLE_SEED)
    picked = []
    for x in sorted(rng.sample(range(size), min(DIRECT_SAMPLE_SIZE, size))):
        for b in basis:
            if b <= x:
                x += 1
        picked.append(x)
    return tuple((x, ctx.from_int(x)) for x in picked)


def _images(L: LinearizedPoly, mismatches: list | None = None) -> list[int]:
    """enc(L(x)) for every x, in encoding order.

    The kernel forms L's basis images from its nonzero terms and fills the
    table from those columns (``basis_images``, then ``eval_all``); the
    sampled elements of :func:`_direct_sample` are then re-evaluated with
    ``L.eval``.  Each disagreement is appended to ``mismatches`` as
    (x, table value, direct value) when a list is given, and raises
    ``AssertionError`` otherwise.
    """
    ctx, pk = L.ctx, L.ctx.packing
    support = [i for i, c in enumerate(L.packed) if c]
    img = _kernel.eval_all(_kernel.basis_images(
        [L.packed[i] for i in support],
        [ctx._frobenius_map(ctx.e * i) for i in support], pk), pk)
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


def _kernel_size(img: list[int]) -> int | None:
    """How many elements an image table sends to 0; None when that count and
    the image size disagree on bijectivity, as no linear map's table does."""
    kernel = img.count(0)
    return kernel if (kernel == 1) == (len(set(img)) == len(img)) else None


def _inverts(img_l: list[int], M: LinearizedPoly) -> bool:
    """True iff L(M(x)) = x, L given by its image table, at the m basis
    vectors (so everywhere, L o M being GF(p)-linear, and then M o L = x as
    L is onto) and at the direct sample, which spot-checks ``M.eval``.  The
    basis vectors x^k, of encoding p^k, are the cached identity columns."""
    ctx = M.ctx
    basis = [(ctx.p**k, FieldElem(ctx, col))
             for k, col in enumerate(ctx._frobenius_map(0))]
    return all(img_l[M.eval(x).to_int()] == enc
               for enc, x in basis + list(_direct_sample(ctx)))


def brute_is_permutation(L: LinearizedPoly) -> bool:
    """Exhaustive bijectivity check; raises if image and kernel disagree."""
    _require_capacity(linpoly._poly(L).ctx)
    kernel = _kernel_size(_images(L))
    if kernel is None:
        raise AssertionError("image and kernel checks disagree")
    return kernel == 1


def verify_inverse(L: LinearizedPoly, M: LinearizedPoly) -> bool:
    """True iff L(M(x)) = x = M(L(x)) for every x, by :func:`_inverts`."""
    linpoly._poly(L)._peer(M, "inverse check")
    _require_capacity(L.ctx)
    return _inverts(_images(L), M)


@functools.lru_cache(maxsize=None)
def _embedding_table(small: FieldCtx, big: FieldCtx) -> list[int]:
    """enc_big(embed(x)) for every small element x, in encoding order,
    filled by the kernel from the embedding's columns."""
    return _kernel.eval_all(_embedding_powers(small, big), big.packing)


class SweepConfig(collections.namedtuple(
        "SweepConfig", "max_field_order primes")):
    """Bounds for the cross-validation grid; immutable and hashable.

    ``max_field_order``, an int, caps p^(e*n) for exhaustive checks, lifted
    fields included, and alone bounds e, n and the lift factor t; it may not
    exceed the module safety cap.
    Every entry of ``primes`` must be a prime no larger than ``MAX_PRIME``.
    """

    __slots__ = ()

    def __new__(cls, max_field_order: int = 729, primes=(2, 3, 5)):
        if not (isinstance(max_field_order, int)
                and 1 <= max_field_order <= MAX_EXHAUSTIVE_ORDER):
            raise ValueError(f"max_field_order must be an integer in "
                             f"[1, {MAX_EXHAUSTIVE_ORDER}]")
        primes = tuple(primes)
        for p in primes:
            check_characteristic(p)
        return super().__new__(cls, max_field_order, primes)


class SweepFailure(collections.namedtuple(
        "SweepFailure", "p e n r a t check detail")):
    """One failed check of one case; ``t`` is the lift factor or None."""

    __slots__ = ()

    def line(self) -> str:
        t = "-" if self.t is None else str(self.t)
        return (f"failure: p={self.p} e={self.e} n={self.n} r={self.r} "
                f"a={self.a} t={t} check={self.check} detail={self.detail}")


class SweepReport:
    """What a sweep checked and what failed.

    ``timings`` (seconds per check family) are left out of comparisons;
    ``counts`` (work units, see ``COUNTS``) repeat with the config and are
    compared.
    """

    def __init__(self, config: SweepConfig):
        self.config = config
        self.cases = 0
        self.permutation_cases = 0
        self.cofactor_checks = 0
        self.lift_checks = 0
        self.failures = []
        self.timings = {}
        self.counts = dict.fromkeys(COUNTS, 0)

    def _key(self):
        return (self.config, self.cases, self.permutation_cases,
                self.cofactor_checks, self.lift_checks, self.failures,
                self.counts)

    def __eq__(self, other):
        if not isinstance(other, SweepReport):
            return NotImplemented
        return self._key() == other._key()

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


@contextlib.contextmanager
def _timer(sink: dict, key: str):
    """Adds the wall time of the block to ``sink[key]``, also if it raises."""
    start = time.perf_counter()
    try:
        yield
    finally:
        sink[key] = sink.get(key, 0.0) + time.perf_counter() - start


def _grid(cfg: SweepConfig):
    """(p, e, n) triples, n >= 2, in lexicographic order with p^(e*n)
    within the cap, which needs e*n < cap.bit_length() as p >= 2."""
    cap = cfg.max_field_order
    for p in sorted(set(cfg.primes)):
        for e in range(1, cap.bit_length()):
            for n in range(2, cap.bit_length()):
                if p ** (e * n) <= cap:
                    yield p, e, n


def _lift_factors(p, e, n, cap):
    """Every lift factor t >= 1 of GF((p^e)^n) coprime to n whose field
    GF((p^(e*t))^n) fits the cap, in increasing order."""
    return [t for t in range(1, cap.bit_length())
            if math.gcd(t, n) == 1 and p ** (e * n * t) <= cap]


def _table(poly, what, t, counts, failures):
    """``poly``'s image table, counted in ``counts``.  A table that disagrees
    with direct evaluation breaks the brute-force oracle, whichever check
    reads it, so it is a criterion failure, appended to ``failures``."""
    bad = []
    img = _images(poly, bad)
    counts["tables"] += 1
    counts["direct_evaluations"] += len(_direct_sample(poly.ctx))
    if bad:
        failures.append((CHECK_CRITERION, f"{what} table disagrees with "
                         f"direct evaluation at {bad}", t))
    return img


def _check_case(spec, lift_ts, report):
    """Every check of the binomial ``spec``; returns the failed ones in the
    order they ran, as (check, detail, t), t the lift factor or None.

    The norm, determinant and brute-force criteria must agree, the
    determinant must match its closed form, a non-permutation must have
    q^gcd(n, r) kernel elements, and at r = 1 the cofactors must match
    theirs.  A permutation's closed-form inverse M must compose with L to x
    both ways, pass :func:`_inverts` on L's table and match the matrix and
    special-form inverses, and L lifted by each t in ``lift_ts`` must
    permute and agree with L on the subfield.  One solve of L's Dickson
    matrix and one table of L serve every check that reads them.  An
    ``AssertionError`` from an internal check (the norm criterion's
    denominator check, the matrix method's cofactor check, the embedding's
    root check) is a failure of its family.  The tallies, work counts and
    per-family times go into ``report``.
    """
    ctx, n = spec.ctx, spec.ctx.n
    timings, counts = report.timings, report.counts
    failures = []
    fail = failures.append
    report.cases += 1
    L = spec.poly()

    with _timer(timings, CHECK_CRITERION):
        try:
            perm_norm = binomial.is_permutation_binomial(spec)
        except AssertionError as exc:
            fail((CHECK_CRITERION, f"norm criterion: {exc}", None))
            perm_norm = None
        D = L.dickson_matrix()
        solved = linpoly._solve(ctx, D.packed, 1)  # det, row 0 of D^-1
        counts["eliminations"] += 1
        det = FieldElem(ctx, solved[0])
        perm_det = bool(det)
        # det D = delta^(1 + q + ... + q^(d-1)): the cycles of j -> j + r
        # mod n make D permutation-similar to d blocks, block c of
        # determinant delta^(q^c), delta = N(a) + (-1)^(n/d - 1)
        expected = spec.delta ** ((ctx.q ** spec.d - 1) // (ctx.q - 1))
        if det != expected:
            fail((CHECK_CRITERION, f"determinant {det.to_int()}, "
                  f"closed form {expected.to_int()}", None))
        img = _table(L, "polynomial", None, counts, failures)
        kernel = _kernel_size(img)
        perm_brute = kernel == 1
        if kernel is None:
            fail((CHECK_CRITERION, "image and kernel checks disagree", None))
        elif kernel not in (1, ctx.q ** spec.d):
            # x^(q^r - 1) = -a has 0 or q^d - 1 nonzero solutions
            fail((CHECK_CRITERION, f"kernel has {kernel} elements, "
                  f"expected {ctx.q ** spec.d}", None))
        agree = perm_norm == perm_det == perm_brute
        if not agree:
            fail((CHECK_CRITERION,
                  f"norm={perm_norm} det={perm_det} brute={perm_brute}", None))

    if spec.r == 1 and spec.a:
        with _timer(timings, CHECK_COFACTORS):
            # cofactor(i,0) = (-1)^i N(a) a^-(1+q+...+q^i), (-1)^(n-1) at
            # i = n - 1, and det D = delta (d = 1), permutation or not; the
            # prefix products are a running chain of conjugates of 1/a
            checks = []
            prefix = y = spec.a.inv()
            for i in range(n):
                if i:
                    y = y.frobenius(ctx.e)
                    prefix = prefix * y
                expected = spec.norm * prefix
                checks.append((f"cof{i}", D.cofactor(i, 0),
                               -expected if i % 2 else expected))
            checks.append(("det", det, spec.delta))
            report.cofactor_checks += len(checks)
            counts["eliminations"] += n  # one per cofactor
            mismatches = [(name, got.to_int(), want.to_int())
                          for name, got, want in checks if got != want]
            if mismatches:
                fail((CHECK_COFACTORS, f"cofactor mismatches {mismatches}",
                      None))

    if not (agree and perm_norm):
        return failures
    report.permutation_cases += 1

    with _timer(timings, CHECK_INVERSE):
        M = binomial.inverse_binomial(spec)
        counts["direct_evaluations"] += ctx.m + len(_direct_sample(ctx))
        identity = LinearizedPoly.identity(ctx)
        if L.compose(M) != identity or M.compose(L) != identity:
            fail((CHECK_INVERSE, "composition is not the identity", None))
        elif not _inverts(img, M):
            fail((CHECK_INVERSE, "pointwise inverse check failed", None))

    with _timer(timings, CHECK_AGREEMENT):
        try:
            others = [("matrix method", D._checked_inverse(*solved))]
        except AssertionError as exc:
            fail((CHECK_AGREEMENT, f"matrix method: {exc}", None))
            others = []
        for shape in binomial._shapes(spec):
            others.append((f"shape {shape}",
                           binomial.inverse_special(spec, which=shape)))
        for method, other in others:
            if other != M:
                fail((CHECK_AGREEMENT, f"{method} gave {other.to_encodings()}"
                      f", closed form {M.to_encodings()}", None))

    with _timer(timings, CHECK_LIFT):
        for t in lift_ts:
            big = field_ctx(ctx.p, ctx.e * t, n)
            report.lift_checks += 1
            try:
                lifted = binomial.lift(L, t, big)
            except AssertionError as exc:
                fail((CHECK_LIFT, f"embedding: {exc}", t))
                continue
            img_big = (img if lifted == L
                       else _table(lifted, "lift", t, counts, failures))
            if _kernel_size(img_big) != 1:
                fail((CHECK_LIFT, "lift is not a permutation", t))
                continue
            # lift(emb(s)) = emb(L(s)) for every small s
            emb = _embedding_table(ctx, big)
            if (list(map(img_big.__getitem__, emb))
                    != list(map(emb.__getitem__, img))):
                fail((CHECK_LIFT, "disagrees with the source on the "
                      "embedded subfield", t))
    return failures


def sweep(cfg: SweepConfig) -> SweepReport:
    """Cross-validate every closed form on the full (p, e, n, r, a) grid:
    :func:`_check_case` on each binomial, each permutation lifted by every
    factor t coprime to n whose field fits the cap, t = 1 included.

    Failures are collected, not raised, and work is counted per unit in
    ``report.counts`` (see ``COUNTS``).  The grid order is fixed, so
    reports are reproducible.
    """
    report = SweepReport(config=cfg)
    for p, e, n in _grid(cfg):
        ctx = field_ctx(p, e, n)
        lift_ts = _lift_factors(p, e, n, cfg.max_field_order)
        for r in range(1, n):
            for enc_a in range(ctx.order):
                spec = binomial.BinomialSpec(ctx.from_int(enc_a), r)
                for check, detail, t in _check_case(spec, lift_ts, report):
                    report.failures.append(SweepFailure(
                        p, e, n, r, enc_a, t, check, detail))
    return report
