"""Brute-force checks and the cross-validation sweep."""

import functools

import pytest

from linperm import (BinomialSpec, CapacityError, LinearizedPoly,
                     NotAPermutationError, SweepConfig, brute_inverse_table,
                     brute_is_permutation, field_ctx, is_permutation_binomial,
                     sweep, verify_inverse)
from linperm import _kernel, binomial, ffield, linpoly, oracle
from linperm.cli import main
from linperm.oracle import (CHECK_AGREEMENT, CHECK_CRITERION, CHECK_LIFT,
                            MAX_EXHAUSTIVE_ORDER)


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
        for check in (brute_is_permutation, brute_inverse_table,
                      lambda poly: verify_inverse(poly, poly)):
            with pytest.raises(CapacityError, match="1048576"):
                check(ident)
        assert not tables
        assert brute_is_permutation(L)
        assert len(brute_inverse_table(L)) == f9.order
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


class TestInverseTable:
    def test_identity(self, f9):
        table = brute_inverse_table(LinearizedPoly.identity(f9))
        assert table == list(range(9))

    def test_scaling(self, f9):
        c = f9.from_int(4)
        table = brute_inverse_table(LinearizedPoly(f9, [c, f9.zero]))
        cinv = c.inv()
        for y in f9.elements():
            assert table[y.to_int()] == (cinv * y).to_int()

    def test_matches_closed_form_inverse(self, f9, L, M):
        table = brute_inverse_table(L)
        for y in f9.elements():
            assert table[y.to_int()] == M.eval(y).to_int()

    def test_requires_permutation(self, f9):
        with pytest.raises(NotAPermutationError):
            brute_inverse_table(LinearizedPoly.from_encodings(f9, [3, 1]))


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

    def test_structural_bounds_bind_above_the_order_cap(self):
        # below 2^17 the order cap alone bounds the grid; the constants keep
        # n <= 16 at 2^17 and e <= 8 at 2^18, where the cap would admit more
        assert (oracle.MAX_N, oracle.MAX_E, oracle.MAX_T) == (16, 8, 8)
        ns = [n for _, _, n in oracle._grid(
            SweepConfig(max_field_order=2**17, primes=(2,)))]
        assert max(ns) == 16
        es = [e for _, e, _ in oracle._grid(
            SweepConfig(max_field_order=2**18, primes=(2,)))]
        assert max(es) == 8

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
        assert first == second  # timings excluded from comparison
        assert first.format() == second.format()

    def test_counts(self, monkeypatch):
        # fresh contexts, so the first sweep builds their log tables
        monkeypatch.setattr(oracle, "field_ctx",
                            functools.lru_cache(maxsize=None)(ffield.FieldCtx))
        cfg = SweepConfig(max_field_order=16, primes=(2,))
        first = sweep(cfg)
        second = sweep(cfg)
        counts = first.counts
        assert set(counts) == set(oracle.COUNTS)
        assert counts["dickson_matrices"] == first.cases
        assert counts["lifts"] == first.lift_checks
        # a determinant per case, a solve per permutation, and n cofactors
        # for each r = 1, a != 0 case of GF(4), GF(8), GF(16) and GF(4^2)
        cofactor_eliminations = 3 * 2 + 7 * 3 + 15 * 4 + 15 * 2
        assert counts["eliminations"] == (
            first.cases + first.permutation_cases + cofactor_eliminations)
        assert counts["tables"] == (
            first.cases + first.permutation_cases + first.lift_checks)
        assert counts["direct_evaluations"] > counts["tables"]
        # GF(4), GF(8), GF(16) and GF(4^2); each lift here has t = 1
        assert counts["log_tables"] == 4
        assert second.counts == dict(counts, log_tables=0)

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

        def eval_all(rows, mats, mod, p):
            img = real(rows, mats, mod, p)
            if p**(len(mod) - 1) == 9:
                img[target] = (img[target] + 1) % 9
            return img

        monkeypatch.setattr(_kernel, "eval_all", eval_all)
        return target

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
    real = linpoly._solve_row0

    def faulty(ctx, entries):
        det, x = real(ctx, entries)
        x[0] = x[0] + ctx.one
        return det, x

    monkeypatch.setattr(linpoly, "_solve_row0", faulty)


def break_root_check(monkeypatch):
    """Make the embedding's root check fail on every call."""
    def faulty(p, small_mod, big_mod):
        raise AssertionError("embedded generator is not a root of the small modulus")

    monkeypatch.setattr(ffield, "_embedding_powers", faulty)


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
        break_denominator_check(monkeypatch)
        report = sweep(GF9_GRID)
        hit = {f.a for f in report.failures_for(CHECK_CRITERION)
               if "denominator test" in f.detail}
        assert hit == set(range(1, 9))

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
