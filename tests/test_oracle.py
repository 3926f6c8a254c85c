"""Brute-force checks and the cross-validation sweep."""

import hashlib
import random

import pytest

from linperm import (BinomialSpec, CapacityError, ContextMismatchError,
                     LinearizedPoly, NotAPermutationError, SweepConfig,
                     brute_is_permutation, field_ctx, inverse_binomial,
                     is_permutation_binomial, sweep, verify_inverse)
from linperm import _kernel, binomial, ffield, linpoly, oracle
from linperm.cli import main
from linperm.oracle import (CHECK_AGREEMENT, CHECK_COFACTORS, CHECK_CRITERION,
                            CHECK_INVERSE, CHECK_LIFT, MAX_EXHAUSTIVE_ORDER,
                            SweepFailure)


@pytest.fixture
def L(f9):
    return LinearizedPoly.from_encodings(f9, [4, 1])


@pytest.fixture
def M(f9):
    return LinearizedPoly.from_encodings(f9, [7, 2])


class TestBruteForce:
    def test_worked_values(self, f9, L):
        assert brute_is_permutation(LinearizedPoly.identity(f9))
        assert not brute_is_permutation(LinearizedPoly.from_encodings(f9, [3, 1]))
        assert brute_is_permutation(L)
        assert not brute_is_permutation(LinearizedPoly.zero(f9))

    def test_capacity_cap(self, monkeypatch, f9, L, M):
        # GF(2^20) has 1,048,576 elements, just above the cap; each check
        # refuses it before building a table
        big = field_ctx(2, 1, 20)
        assert big.order > MAX_EXHAUSTIVE_ORDER
        ident = LinearizedPoly.identity(big)
        tables = []
        real = _kernel.eval_all

        def eval_all(*args):
            tables.append(args)
            return real(*args)

        monkeypatch.setattr(_kernel, "eval_all", eval_all)
        for check in (brute_is_permutation,
                      lambda poly: verify_inverse(poly, poly)):
            with pytest.raises(CapacityError, match="1048576"):
                check(ident)
        assert not tables
        assert brute_is_permutation(L)
        assert verify_inverse(L, M)
        assert tables

    def test_default_cap_value(self):
        assert MAX_EXHAUSTIVE_ORDER == 1_000_000


class TestVerifyInverse:
    def test_worked_values(self, f9, L, M):
        ident = LinearizedPoly.identity(f9)
        assert verify_inverse(ident, ident)
        assert verify_inverse(L, M)
        assert verify_inverse(M, L)
        assert not verify_inverse(L, ident)

    def test_one_sided_composition_is_rejected(self, f9):
        # a non-permutation composed with anything cannot pass
        Lbad = LinearizedPoly.from_encodings(f9, [3, 1])
        assert not verify_inverse(Lbad, Lbad)

    @pytest.mark.parametrize("p,e,n", [(3, 1, 3), (2, 1, 2), (3, 2, 1)])
    def test_other_field_is_a_context_mismatch(self, f9, p, e, n):
        # GF(27) and GF(4) differ in size from GF(9); GF(9) as (3, 2, 1) is
        # the same size but another context, as for ``compose``
        ident = LinearizedPoly.identity(f9)
        other = LinearizedPoly.identity(field_ctx(p, e, n))
        for first, second in ((ident, other), (other, ident)):
            with pytest.raises(ContextMismatchError):
                verify_inverse(first, second)
            with pytest.raises(ContextMismatchError):
                first.compose(second)

    def test_inverse_must_be_a_polynomial(self, L):
        with pytest.raises(TypeError, match="expected a linearized polynomial"):
            verify_inverse(L, 5)


class TestInverseTable:
    """Inverses checked pointwise against the brute-force image tables."""

    def test_identity(self, f9):
        ident = LinearizedPoly.identity(f9)
        assert brute_is_permutation(ident)
        assert verify_inverse(ident, ident)

    def test_scaling(self, f9):
        # x -> c x is inverted by x -> x / c and by no other scaling
        c = f9.from_int(4)
        L = LinearizedPoly(f9, [c, f9.zero])
        for d in f9.elements():
            assert verify_inverse(L, LinearizedPoly(f9, [d, f9.zero])) == (
                d == c.inv())

    def test_matches_closed_form_inverse(self, f9, L, M):
        assert M == inverse_binomial(BinomialSpec(f9.from_int(4), 1))
        assert verify_inverse(L, M)
        # changing either coefficient of M breaks the pointwise check
        for i in range(2):
            for enc in range(9):
                encs = list(M.to_encodings())
                if encs[i] != enc:
                    encs[i] = enc
                    assert not verify_inverse(
                        L, LinearizedPoly.from_encodings(f9, encs))

    @pytest.mark.parametrize("p,e,n", [(2, 1, 6), (2, 2, 3), (3, 1, 4),
                                       (3, 2, 2), (5, 1, 3)])
    def test_agrees_with_two_way_table_composition(self, p, e, n):
        # closed-form inverses of seeded binomials, each also with one
        # coefficient perturbed, against both full tables composed both ways
        ctx = field_ctx(p, e, n)
        rng = random.Random(p**(e * n))
        pairs = []
        while len(pairs) < 12:
            spec = BinomialSpec(ctx.from_int(rng.randrange(ctx.order)),
                                rng.randrange(1, n))
            if not is_permutation_binomial(spec):
                continue
            M = inverse_binomial(spec)
            coeffs = list(M.coeffs)
            k = rng.randrange(n)
            coeffs[k] = coeffs[k] + ctx.from_int(rng.randrange(1, ctx.order))
            L = spec.poly()
            pairs += [(L, M), (L, LinearizedPoly(ctx, coeffs))]
        for L, M in pairs:
            img_l, img_m = oracle._images(L), oracle._images(M)
            identity = list(range(ctx.order))
            two_way = ([img_m[y] for y in img_l] == identity
                       == [img_l[y] for y in img_m])
            assert verify_inverse(L, M) == two_way
        assert [verify_inverse(L, M) for L, M in pairs] == [True, False] * 6

    def test_requires_permutation(self, f9):
        Lbad = LinearizedPoly.from_encodings(f9, [3, 1])
        assert not brute_is_permutation(Lbad)
        assert not verify_inverse(Lbad, LinearizedPoly.identity(f9))
        with pytest.raises(NotAPermutationError):
            inverse_binomial(BinomialSpec(f9.from_int(3), 1))


class TestEmbeddingTable:
    """The lift check's embedding tables, filled by the kernel from the
    columns of the embedding."""

    def test_matches_per_element_embedding(self):
        # every (small, big) pair a cap-729 sweep touches, t = 1 included,
        # built uncached against one embed_subfield call per element
        pairs = [(field_ctx(p, e, n), field_ctx(p, e * t, n))
                 for p, e, n in oracle._grid(SweepConfig(max_field_order=729))
                 for t in oracle._lift_factors(p, e, n, 729)]
        assert len(pairs) == 30
        assert sum(small != big for small, big in pairs) == 4
        for small, big in pairs:
            reference = [ffield.embed_subfield(x, big).to_int()
                         for x in small.elements()]
            got = oracle._embedding_table.__wrapped__(small, big)
            assert got == reference, (small, big)


class TestSweepConfig:
    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            SweepConfig(max_field_order=MAX_EXHAUSTIVE_ORDER + 1)
        with pytest.raises(ValueError):
            SweepConfig(max_field_order=0)
        # 2147483659 is prime but above ffield.MAX_PRIME
        assert ffield.is_prime(2147483659) and 2147483659 > ffield.MAX_PRIME
        for primes in [(4,), (1,), (2147483659,), (2, 0)]:
            with pytest.raises(ValueError):
                SweepConfig(primes=primes)

    @pytest.mark.parametrize("cap", [64.0, 729.5, "64", None])
    def test_cap_must_be_an_integer(self, cap):
        # a float cap would fail only once the sweep reads its bit length
        with pytest.raises(ValueError, match="must be an integer"):
            SweepConfig(max_field_order=cap)


class TestSweep:
    def test_tiny_grid_counts(self):
        report = sweep(SweepConfig(max_field_order=9, primes=(3,)))
        assert report.cases == 9  # nine values of a, r = 1 only
        assert report.ok and not report.failures
        # independent permutation count: a = 0 plus every a with a^4 != 1
        ctx = field_ctx(3, 1, 2)
        expected = sum(
            1 for enc in range(9)
            if is_permutation_binomial(BinomialSpec(ctx.from_int(enc), 1)))
        assert expected == 5
        assert report.permutation_cases == expected

    def test_the_order_cap_alone_bounds_the_grid(self):
        # GF(2^17) admits n = 17, GF(4^9) = GF(2^18) admits e = 9, and
        # GF(2^2) lifts into GF((2^9)^2) = GF(2^18) with t = 9
        ns = [n for _, _, n in oracle._grid(
            SweepConfig(max_field_order=2**17, primes=(2,)))]
        assert max(ns) == 17
        es = [e for _, e, _ in oracle._grid(
            SweepConfig(max_field_order=2**18, primes=(2,)))]
        assert max(es) == 9
        assert oracle._lift_factors(2, 1, 2, 2**18) == [1, 3, 5, 7, 9]
        assert oracle._lift_factors(2, 1, 2, 2**18 - 1) == [1, 3, 5, 7]

    def test_empty_prime_list(self):
        report = sweep(SweepConfig(primes=()))
        assert report.cases == 0 and report.ok

    def test_char_two_coprime_slots_admit_only_zero(self):
        # for q = 2 and gcd(r, n) = 1 the norm of any nonzero a is 1, so
        # only a = 0 gives a permutation; confirmed by exhaustive evaluation
        for n in (2, 3, 4, 5):
            ctx = field_ctx(2, 1, n)
            for r in range(1, n):
                if BinomialSpec(ctx.one, r).d != 1:
                    continue
                for enc in range(ctx.order):
                    spec = BinomialSpec(ctx.from_int(enc), r)
                    assert brute_is_permutation(spec.poly()) == (enc == 0)
                    assert is_permutation_binomial(spec) == (enc == 0)

    def test_deterministic(self):
        cfg = SweepConfig(max_field_order=16, primes=(2,))
        first = sweep(cfg)
        second = sweep(cfg)
        assert first == second  # counts compared, timings excluded
        assert first.format() == second.format()
        second.counts["tables"] += 1
        assert first != second

    def test_counts(self):
        report = sweep(SweepConfig(max_field_order=16, primes=(2,)))
        counts = report.counts
        assert set(counts) == set(oracle.COUNTS)
        # one solve per case, giving the determinant and a permutation's
        # inverse, and n cofactors for each r = 1, a != 0 case of GF(4),
        # GF(8), GF(16) and GF(4^2)
        cofactor_eliminations = 3 * 2 + 7 * 3 + 15 * 4 + 15 * 2
        assert counts["eliminations"] == report.cases + cofactor_eliminations
        # each lift here has t = 1, so it is checked on its case's table,
        # and inverses are checked on it pointwise: one table per case
        assert report.lift_checks == report.permutation_cases > 0
        assert counts["tables"] == report.cases
        evaluations = 0
        for p, e, n in oracle._grid(report.config):
            ctx = field_ctx(p, e, n)
            sample = len(oracle._direct_sample(ctx))
            for r in range(1, n):
                for enc in range(ctx.order):
                    evaluations += sample  # spot checks of L's table
                    if is_permutation_binomial(
                            BinomialSpec(ctx.from_int(enc), r)):
                        evaluations += ctx.m + sample  # M, pointwise
        assert counts["direct_evaluations"] == evaluations

    def test_cofactor_fault_is_one_record_per_case(self, monkeypatch):
        # cof0 fails for each of the 8 nonzero a, and nothing else reads a
        # cofactor
        break_cofactors(monkeypatch)
        report = sweep(GF9_GRID)
        assert (report.cases, report.cofactor_checks) == (9, 24)
        assert len(report.failures) == 8
        assert report.failures_for(CHECK_COFACTORS) == report.failures
        assert report.failures[0] == SweepFailure(
            3, 1, 2, 1, 1, None, CHECK_COFACTORS,
            "cofactor mismatches [('cof0', 2, 1)]")

    def test_determinant_sign_fault_is_one_record_per_permutation(
            self, monkeypatch):
        # -det is nonzero exactly when det is, so bool(det) misses it and the
        # determinant's closed form records it once per permutation case
        break_determinant_sign(monkeypatch)
        report = sweep(SweepConfig(max_field_order=81, primes=(3,)))
        criterion = report.failures_for(CHECK_CRITERION)
        assert len(criterion) == report.permutation_cases > 0
        assert len({f[:6] for f in criterion}) == len(criterion)
        for f in criterion:
            got, expected = map(int, f.detail.removeprefix(
                "determinant ").split(", closed form "))
            ctx = field_ctx(f.p, f.e, f.n)
            assert expected and ctx.from_int(got) == -ctx.from_int(expected)
        assert {2, 3} <= {f.r for f in criterion if f.n == 4}
        # at r = 1 the cofactor family's own determinant entry sees it too
        cofactors = report.failures_for(CHECK_COFACTORS)
        assert len(criterion) + len(cofactors) == len(report.failures)
        assert cofactors and all(
            f.r == 1 and f.detail.startswith("cofactor mismatches [('det', ")
            for f in cofactors)

    def test_timer_counts_a_block_that_raises(self):
        timings = {}
        with pytest.raises(KeyError):
            with oracle._timer(timings, CHECK_LIFT):
                raise KeyError
        assert set(timings) == {CHECK_LIFT} and timings[CHECK_LIFT] >= 0

    def test_report_format(self):
        report = sweep(SweepConfig(max_field_order=9, primes=(3,)))
        text = report.format()
        # 3 checks (cof0, cof1, det) for each of the 8 nonzero a; each of
        # the 5 permutations lifts once, with t = 1
        assert text.splitlines() == [
            "cases: 9", "permutation_cases: 5", "cofactor_checks: 24",
            "lift_checks: 5", "failures: 0"]

    def test_small_grid_is_clean(self):
        report = sweep(SweepConfig(max_field_order=64, primes=(2, 3, 5)))
        assert report.ok
        assert report.cases > 0
        assert report.lift_checks > 0
        assert report.cofactor_checks > 0
        assert set(report.timings) >= {"criterion", "inverse", "agreement"}


class TestDirectCheck:
    """Image tables are built by linearity and spot-checked pointwise."""

    @pytest.fixture
    def corrupt_tables(self, monkeypatch):
        # shift one sampled non-basis entry of every GF(9) table
        target = oracle._direct_sample(field_ctx(3, 1, 2))[0][0]
        real = _kernel.eval_all

        def eval_all(cols, pk):
            img = real(cols, pk)
            if pk.p**pk.m == 9:
                img[target] = (img[target] + 1) % 9
            return img

        monkeypatch.setattr(_kernel, "eval_all", eval_all)
        yield target
        # embedding tables built under the corruption must not stay cached
        oracle._embedding_table.cache_clear()

    def test_sample_avoids_basis_and_is_seeded(self):
        ctx = field_ctx(3, 1, 4)
        sample = oracle._direct_sample(ctx)
        encs = [enc for enc, _ in sample]
        assert len(encs) == oracle.DIRECT_SAMPLE_SIZE == len(set(encs))
        assert not {0, 1, 3, 9, 27} & set(encs)
        assert all(x.to_int() == enc for enc, x in sample)
        oracle._direct_sample.cache_clear()
        assert [enc for enc, _ in oracle._direct_sample(ctx)] == encs

    def test_small_field_sample_is_every_non_basis_element(self):
        # GF(4) has one element off the basis {1, t} and zero
        assert [enc for enc, _ in oracle._direct_sample(field_ctx(2, 1, 2))] == [3]

    def test_corrupted_entry_raises_outside_sweep(self, f9, L, corrupt_tables):
        with pytest.raises(AssertionError, match="direct evaluation"):
            brute_is_permutation(L)

    def test_corrupted_entry_is_a_criterion_failure(self, corrupt_tables):
        report = sweep(SweepConfig(max_field_order=9, primes=(3,)))
        assert report.cases == 9  # the sweep ran to the end
        assert not report.ok
        criterion = report.failures_for(CHECK_CRITERION)
        assert criterion
        assert all(f.p == 3 and f.n == 2 for f in criterion)
        assert any(f"({corrupt_tables}," in f.detail for f in criterion)


class TestKernelCount:
    """A non-permutation binomial has exactly q^gcd(n, r) kernel elements."""

    def test_corrupted_kernel_count_is_a_criterion_failure(self, monkeypatch):
        # send one more element of every non-permutation GF(9) table to zero;
        # its image keeps other preimages, so the image size is unchanged
        real = oracle._images

        def images(poly, mismatches=None):
            img = real(poly, mismatches)
            if img.count(0) > 1:
                img[next(i for i, y in enumerate(img) if y)] = 0
            return img

        monkeypatch.setattr(oracle, "_images", images)
        report = sweep(SweepConfig(max_field_order=9, primes=(3,)))
        assert report.cases == 9  # the sweep ran to the end
        assert report.permutation_cases == 5
        assert [f.check for f in report.failures] == [CHECK_CRITERION] * 4
        assert all("kernel has 4 elements, expected 3" in f.detail
                   for f in report.failures)


def break_denominator_check(monkeypatch):
    """Run the norm criterion with the char-2 sign rule: over GF(9) with
    r = 1 its denominator check then fails for every a != 0."""
    real = binomial.is_permutation_binomial

    def faulty(spec):
        with monkeypatch.context() as m:
            m.setattr(binomial, "_sign", lambda ctx, k: ctx.one)
            return real(spec)

    monkeypatch.setattr(binomial, "is_permutation_binomial", faulty)


def break_cofactor_check(monkeypatch):
    """Shift entry (0, 0) of every Dickson inverse, so the cofactor expansion
    of the matrix method disagrees with the determinant whenever a != 0."""
    real = linpoly._solve

    def faulty(ctx, rows, k):
        det, solutions = real(ctx, rows, k)
        if solutions:
            solutions[0][0] = _kernel.addmod(solutions[0][0], 1, ctx.packing)
        return det, solutions

    monkeypatch.setattr(linpoly, "_solve", faulty)


def break_root_check(monkeypatch):
    """Make the embedding's root check fail on every call."""
    def faulty(small, big):
        raise AssertionError("embedded generator is not a root of the small modulus")

    monkeypatch.setattr(ffield, "_embedding_powers", faulty)


def break_determinant_sign(monkeypatch):
    """Negate the determinant of each case's one solve (k = 1); the
    cofactors' own solves (k = 0) are left intact."""
    real = linpoly._solve

    def negated(ctx, rows, k):
        det, solutions = real(ctx, rows, k)
        if k == 1:
            det = _kernel.submod(0, det, ctx.packing)
        return det, solutions

    monkeypatch.setattr(linpoly, "_solve", negated)


def break_cofactors(monkeypatch):
    """Shift every cofactor (0, j) by one."""
    real = linpoly.DicksonMatrix.cofactor

    def shifted(self, i, j):
        value = real(self, i, j)
        return value + self.ctx.one if i == 0 else value

    monkeypatch.setattr(linpoly.DicksonMatrix, "cofactor", shifted)


GF9_GRID = SweepConfig(max_field_order=9, primes=(3,))


class TestBrokenInvariants:
    """An internal check that raises is a sweep failure, not an abort."""

    @pytest.mark.parametrize("inject,check,needle", [
        (break_denominator_check, CHECK_CRITERION, "denominator test"),
        (break_cofactor_check, CHECK_AGREEMENT, "cofactor expansion"),
        (break_root_check, CHECK_LIFT, "not a root"),
    ])
    def test_family_is_reported_and_every_case_runs(
            self, monkeypatch, inject, check, needle):
        inject(monkeypatch)
        report = sweep(GF9_GRID)
        assert report.cases == 9
        assert not report.ok
        found = report.failures_for(check)
        assert any(needle in f.detail for f in found)
        assert all(f.p == 3 and f.n == 2 for f in found)

    def test_denominator_failures_cover_every_nonzero_a(self, monkeypatch):
        # the fault reaches only the criterion: the determinant closed form
        # and the cofactor check read spec.delta outside the faulty call, so
        # a delta kept from inside it would add determinant and det records
        break_denominator_check(monkeypatch)
        report = sweep(GF9_GRID)
        found = report.failures_for(CHECK_CRITERION)
        assert len(report.failures) == len(found) == 16
        denominator = [f.a for f in found if f.detail ==
                       "norm criterion: denominator test disagrees with "
                       "norm criterion"]
        verdicts = [f.a for f in found if f.detail.startswith("norm=None ")]
        assert denominator == verdicts == list(range(1, 9))

    @pytest.mark.parametrize("inject,check", [
        (break_denominator_check, CHECK_CRITERION),
        (break_cofactor_check, CHECK_AGREEMENT),
        (break_root_check, CHECK_LIFT),
    ])
    def test_verify_exits_one_and_lists_the_failure(
            self, monkeypatch, capsys, inject, check):
        inject(monkeypatch)
        code = main(["verify", "--max-order", "9", "--primes", "3"])
        out = capsys.readouterr().out
        assert code == 1
        assert f"check={check}" in out
        assert "cases: 9" in out


def gf9_permutations():
    ctx = field_ctx(3, 1, 2)
    return [a for a in range(9)
            if is_permutation_binomial(BinomialSpec(ctx.from_int(a), 1))]


def unsampled_pair(ctx):
    """The two GF(9) elements off the basis and off the direct sample, where
    no spot check sees a corrupted table entry."""
    sampled = {enc for enc, _ in oracle._direct_sample(ctx)}
    return [x for x in range(9) if x not in {0, 1, 3} | sampled]


def break_polynomial_tables(monkeypatch):
    """Swap the two unsampled entries of every GF(9) table.  Bijectivity,
    the kernel and every sampled entry stay intact, so only the pointwise
    inverse check sees it: at each a whose closed-form M sends a basis
    vector or a sampled element into the pair."""
    ctx = field_ctx(3, 1, 2)
    i, j = unsampled_pair(ctx)
    real = oracle._images

    def images(poly, mismatches=None):
        img = real(poly, mismatches)
        if poly.ctx == ctx:
            img[i], img[j] = img[j], img[i]
        return img

    monkeypatch.setattr(oracle, "_images", images)
    basis = [1, 3]
    sampled = [enc for enc, _ in oracle._direct_sample(ctx)]

    def hits(a, points):
        M = inverse_binomial(BinomialSpec(ctx.from_int(a), 1))
        return {M.eval(ctx.from_int(x)).to_int() for x in points} & {i, j}

    # one a is seen only at the basis and one only at the sample, so the
    # check needs both sets of points
    assert [a for a in gf9_permutations() if not hits(a, sampled)
            and hits(a, basis)] == [4]
    assert [a for a in gf9_permutations() if not hits(a, basis)
            and hits(a, sampled)] == [7]
    return [a for a in gf9_permutations() if hits(a, basis + sampled)]


def break_lift(monkeypatch):
    """Lift every binomial to the zero polynomial."""
    monkeypatch.setattr(binomial, "lift",
                        lambda L, t, big: LinearizedPoly.zero(big))
    return gf9_permutations()


def break_embedding_table(monkeypatch):
    """Scale the embedding table by t, which lies outside GF(3): then
    L(t y) - t L(y) = (t^3 - t) y^3 != 0 for every y != 0."""
    real = oracle._embedding_table

    def scaled(small, big):
        c = big.from_int(3)
        return [(c * big.from_int(y)).to_int() for y in real(small, big)]

    monkeypatch.setattr(oracle, "_embedding_table", scaled)
    return gf9_permutations()


class TestBruteForceFailures:
    """Faults that only the sweep's brute-force tables can see: each case
    still runs, and each fault leaves exactly its own failure records."""

    @pytest.mark.parametrize("inject,check,t,detail", [
        (break_polynomial_tables, CHECK_INVERSE, None,
         "pointwise inverse check failed"),
        (break_lift, CHECK_LIFT, 1, "lift is not a permutation"),
        (break_embedding_table, CHECK_LIFT, 1,
         "disagrees with the source on the embedded subfield"),
    ])
    def test_records_are_exact(self, monkeypatch, inject, check, t, detail):
        hit = inject(monkeypatch)
        assert len(hit) == (4 if check == CHECK_INVERSE else 5)
        report = sweep(GF9_GRID)
        assert (report.cases, report.permutation_cases,
                report.lift_checks) == (9, 5, 5)
        assert report.failures == [
            SweepFailure(3, 1, 2, 1, a, t, check, detail) for a in hit]

    def test_image_and_kernel_disagreement(self, monkeypatch, f9, L):
        # copy one unsampled entry of every bijective GF(9) table over the
        # other: one zero is left, but the values are no longer distinct
        i, j = unsampled_pair(f9)
        real = oracle._images

        def images(poly, mismatches=None):
            img = real(poly, mismatches)
            if len(set(img)) == len(img):
                img[i] = img[j]
            return img

        monkeypatch.setattr(oracle, "_images", images)
        with pytest.raises(AssertionError, match="kernel checks disagree"):
            brute_is_permutation(L)
        report = sweep(GF9_GRID)
        assert (report.cases, report.permutation_cases) == (9, 0)
        assert report.failures == [
            SweepFailure(3, 1, 2, 1, a, None, CHECK_CRITERION, detail)
            for a in gf9_permutations()
            for detail in ("image and kernel checks disagree",
                           "norm=True det=True brute=False")]


FAULT_GRID = SweepConfig(max_field_order=81, primes=(2, 3))

# (number of failures, sha256 of their lines, work counts) of each fault on
# FAULT_GRID
FAULT_GOLDENS = {
    break_denominator_check: (
        520,
        "c997e50afcbf5e961ed0303b90bbb2cbd714b56e61c7f43066a3f1b75c8b8d92",
        {"eliminations": 2650, "tables": 1114, "direct_evaluations": 8541}),
    break_cofactor_check: (
        572,
        "8295f8c37872a16c3b9b00dc76590374d7ec13053980ac716410c56d1b7bd5a0",
        {"eliminations": 2650, "tables": 1114, "direct_evaluations": 9547}),
    break_root_check: (
        575,
        "06e36eb6f5698b41e22316b1f441c29afb6897064d9e519d8cf8d7e5e353ff59",
        {"eliminations": 2650, "tables": 1111, "direct_evaluations": 9535}),
    break_polynomial_tables: (
        4,
        "3e42652c87c2e55a317947279edfce859fcd3492552c232d97d1fd29939939e5",
        {"eliminations": 2650, "tables": 1114, "direct_evaluations": 9547}),
    break_lift: (
        575,
        "ef248b34de9c8a30e27920375ca213c4d47f7b256a99d0227ffdcf6a1df61c1c",
        {"eliminations": 2650, "tables": 1686, "direct_evaluations": 11832}),
    break_embedding_table: (
        575,
        "6805e7e5712865cad2e53de7b30d54e877e2a530feb6a687ee8a6020936fae64",
        {"eliminations": 2650, "tables": 1114, "direct_evaluations": 9547}),
    break_determinant_sign: (
        384,
        "e0c4fbc5f4d5dc6c674570982124b6064fcdfe772f36f6a2c6874f77dd59861f",
        {"eliminations": 2650, "tables": 1114, "direct_evaluations": 9547}),
    break_cofactors: (
        454,
        "a762794dea6bc9fb1ea95520d915057f4a491231e667e3583faf973a7940bf09",
        {"eliminations": 2650, "tables": 1114, "direct_evaluations": 9547}),
}


class TestFaultGoldens:
    """Every fault above, on the 1,111 cases of GF(2^k) and GF(3^k) up to
    81 elements: the sha256 of the failure lines and the work counts are
    pinned, so a change in how the sweep runs a case's checks that alters
    any record, its order, or the work done shows here."""

    @pytest.mark.parametrize("inject", list(FAULT_GOLDENS),
                             ids=lambda inject: inject.__name__)
    def test_records_and_counts(self, monkeypatch, inject):
        inject(monkeypatch)
        report = sweep(FAULT_GRID)
        lines = "\n".join(f.line() for f in report.failures)
        assert report.cases == 1111
        assert (len(report.failures),
                hashlib.sha256(lines.encode()).hexdigest(),
                report.counts) == FAULT_GOLDENS[inject]
