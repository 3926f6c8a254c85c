"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The grid covers
p in {2, 3, 5} and every (e, n, r, a) with p^(e*n) <= 729; the cross
-validation sweep is executed once per session and shared by the criteria
that read different failure buckets from it.
"""

import random

import pytest

from linperm import (BinomialSpec, LinearizedPoly, SweepConfig,
                     inverse_binomial, inverse_dickson, inverse_special,
                     field_ctx, kernel_backend, sweep)
from linperm.cli import run_bench
from linperm.oracle import (CHECK_AGREEMENT, CHECK_COFACTORS, CHECK_CRITERION,
                            CHECK_INVERSE, CHECK_LIFT, _grid)

from test_readme import COMMANDS

GRID_CFG = SweepConfig(max_field_order=729, primes=(2, 3, 5))

CRITERION_SWEEP_BUDGET = 60.0
LIFT_BUDGET = 120.0


@pytest.fixture(scope="module")
def report():
    return sweep(GRID_CFG)


def announce(number, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_equivalence_sweep(report):
    failures = report.failures_for(CHECK_CRITERION)
    elapsed = report.timings[CHECK_CRITERION]
    ok = not failures and elapsed <= CRITERION_SWEEP_BUDGET
    announce(1, ok,
             f"norm = determinant = brute force on {report.cases} cases, "
             f"{len(failures)} mismatches, {elapsed:.1f}s "
             f"(budget {CRITERION_SWEEP_BUDGET:.0f}s, backend {kernel_backend()})")


def test_criterion_2_inverse_correctness(report):
    failures = report.failures_for(CHECK_INVERSE)
    ok = not failures and report.permutation_cases > 0
    announce(2, ok,
             f"composition and pointwise checks on {report.permutation_cases} "
             f"permutation cases, {len(failures)} failures")


def test_criterion_3_method_agreement(report):
    failures = report.failures_for(CHECK_AGREEMENT)
    ok = not failures
    announce(3, ok,
             f"closed form = matrix method (+ special shapes) on "
             f"{report.permutation_cases} cases, {len(failures)} mismatches")


def test_criterion_4_cofactor_closed_forms(report):
    failures = report.failures_for(CHECK_COFACTORS)
    ok = not failures and report.cofactor_checks > 0
    announce(4, ok,
             f"{report.cofactor_checks} cofactor/determinant identities at "
             f"r=1, {len(failures)} failures")


def test_sweep_work_counts(report):
    # the grid's size and work are functions of GRID_CFG alone; every t = 1
    # lift and every inverse is checked on its case's table, so only 36 lifts
    # build their own, and each inverse is evaluated at m + |sample| points;
    # one solve per case gives its determinant and its matrix-method inverse,
    # and the 25,512 cofactors of the r = 1 cases take one each
    assert (report.cases, report.permutation_cases, report.cofactor_checks,
            report.lift_checks) == (19394, 11260, 31702, 11296)
    assert report.counts == {"eliminations": 44906, "tables": 19430,
                             "direct_evaluations": 192393}


def test_readme_verify_block(report):
    # the README's verify example is this grid's report, so no second sweep
    (argv, expected), = [c for c in COMMANDS if c[0][0] == "verify"]
    assert argv == ["verify", "--max-order", str(GRID_CFG.max_field_order),
                    "--primes", ",".join(map(str, GRID_CFG.primes))]
    assert report.format().splitlines() == expected


def test_criterion_5_matrix_inverse_identity():
    rng = random.Random(424242)
    contexts = [field_ctx(p, e, n) for p, e, n in _grid(GRID_CFG)]
    target = 1000
    checked = 0
    bad = 0
    while checked < target:
        ctx = contexts[checked % len(contexts)]
        n = ctx.n
        L = LinearizedPoly(ctx, [ctx.random_element(rng) for _ in range(n)])
        D = L.dickson_matrix()
        if not D.det():
            continue
        checked += 1
        det, Dinv = D.det_and_inverse()
        if inverse_dickson(L).dickson_matrix() != Dinv:
            bad += 1
        if det.frobenius(ctx.e) != det:
            bad += 1
    announce(5, bad == 0,
             f"{checked} random linearized permutations: inverse-matrix "
             f"identity and base-field determinant, {bad} failures")


def test_criterion_6_lifting(report):
    failures = report.failures_for(CHECK_LIFT)
    elapsed = report.timings[CHECK_LIFT]
    ok = (not failures and report.lift_checks > 0 and elapsed <= LIFT_BUDGET)
    announce(6, ok,
             f"{report.lift_checks} lifted permutations rechecked "
             f"exhaustively with subfield agreement, {len(failures)} failures, "
             f"{elapsed:.1f}s (budget {LIFT_BUDGET:.0f}s)")


def test_criterion_7_anchored_vector():
    ctx = field_ctx(3, 1, 2)
    spec = BinomialSpec(ctx.from_int(4), 1)
    expected = (7, 2)
    got = {
        "closed": inverse_binomial(spec).to_encodings(),
        "dickson": inverse_dickson(spec.poly()).to_encodings(),
        "special": inverse_special(spec).to_encodings(),
    }
    ok = all(v == expected for v in got.values())
    announce(7, ok, f"p=3 e=1 n=2 r=1 a=4 -> {got} (expected {expected})")


def test_criterion_8_benchmark_ordering():
    closed_ns, dickson_ns, agree = run_bench(3, 1, 32, 1, 10)
    ok = agree and closed_ns < dickson_ns
    announce(8, ok,
             f"n=32 mean inversion: closed {closed_ns} ns vs matrix "
             f"{dickson_ns} ns over 10 trials, outputs agree: {agree}")
