"""Command-line front end.

Subcommands: ``field`` (canonical modulus), ``check`` (permutation test),
``invert`` (compositional inverse by either method), ``lift`` (transplant to
a bigger field), ``verify`` (cross-validation sweep), and ``bench``
(closed-form vs matrix-method inverse timing).  Output is one ``key: value``
line per datum, machine-splittable on the first colon; ``--json`` emits the
same keys as a single object.  Field elements cross the boundary as integer
encodings.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from . import binomial, linpoly, oracle
from .errors import NotAPermutationError, SingularMatrixError
from .ffield import field_ctx

BENCH_SEED = 20240901
BENCH_MAX_DRAWS = 200


class CliError(Exception):
    """Parameter or domain error that should exit with status 1; the
    library's own ``ValueError`` is reported the same way."""


def _emit(args, pairs):
    if args.json:
        print(json.dumps(dict(pairs)))
    else:
        for key, value in pairs:
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, (list, tuple)):
                value = ",".join(str(v) for v in value)
            print(f"{key}: {value}")


def _spec(args):
    ctx = field_ctx(args.p, args.e, args.n)
    if not 0 <= args.a < ctx.order:
        raise CliError(f"a={args.a} outside [0, {ctx.order})")
    return binomial.BinomialSpec(ctx.from_int(args.a), args.r)


def cmd_field(args):
    ctx = field_ctx(args.p, args.e, args.n)
    _emit(args, [("modulus", ctx.modulus_int), ("order", ctx.order)])
    return 0


def cmd_check(args):
    spec = _spec(args)
    perm = binomial.is_permutation_binomial(spec)
    _emit(args, [("permutation", perm), ("norm", spec.norm.to_int())])
    return 0


def cmd_invert(args):
    spec = _spec(args)
    try:
        if args.method == "closed":
            M = binomial.inverse_binomial(spec)
        elif args.method == "special":
            M = binomial.inverse_special(spec)
        else:
            M = linpoly.inverse_dickson(spec.poly())
    except (NotAPermutationError, SingularMatrixError):
        # by the theorem, every refused inverse has criterion value 1
        raise CliError("not a permutation: (-1)^(n/d) * N(a) = 1") from None
    _emit(args, [("coeffs", list(M.to_encodings()))])
    return 0


def cmd_lift(args):
    spec = _spec(args)
    ctx = spec.ctx
    binomial.check_lift_factor(args.t, ctx.n)
    big = field_ctx(ctx.p, ctx.e * args.t, ctx.n)
    lifted = binomial.lift(spec.poly(), args.t, big)
    _emit(args, [("coeffs", list(lifted.to_encodings())),
                 ("big_order", big.order)])
    return 0


def _prime(tok):
    try:
        return int(tok)
    except ValueError:
        raise CliError(f"--primes: {tok!r} is not an integer") from None


def cmd_verify(args):
    primes = tuple(_prime(tok) for tok in args.primes.split(",") if tok)
    cfg = oracle.SweepConfig(max_field_order=args.max_order, primes=primes)
    if next(oracle._grid(cfg), None) is None:
        primes = ",".join(map(str, cfg.primes)) or "none"
        raise CliError(f"nothing to verify: no field GF(p^(e*n)) with n >= 2 "
                       f"and order at most {cfg.max_field_order} for primes "
                       f"{primes}")
    report = oracle.sweep(cfg)
    if args.json:
        print(json.dumps({
            "cases": report.cases,
            "permutation_cases": report.permutation_cases,
            "cofactor_checks": report.cofactor_checks,
            "lift_checks": report.lift_checks,
            "failures": [f._asdict() for f in report.failures],
            "timings": report.timings,
            "counts": report.counts,
        }))
    else:
        print(report.format())
    return 0 if report.ok else 1


def _sample_permutation_spec(ctx, r, rng):
    for _ in range(BENCH_MAX_DRAWS):
        spec = binomial.BinomialSpec(ctx.random_element(rng), r)
        if binomial.is_permutation_binomial(spec):
            return spec
    raise CliError(
        f"no permutation binomial found in {BENCH_MAX_DRAWS} draws "
        "(q = 2 with gcd(r, n) = 1 admits almost none)")


def run_bench(p, e, n, r, trials):
    """Time the closed-form inverse against the matrix-method inverse.

    Returns (closed_ns, dickson_ns, agree): mean wall nanoseconds over
    ``trials`` >= 1 trials, and whether the outputs agreed on every trial.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    ctx = field_ctx(p, e, n)
    rng = random.Random(BENCH_SEED)
    closed_total = 0
    dickson_total = 0
    agree = True
    for _ in range(trials):
        # a fresh spec, so the closed form's time includes its own N(a)
        spec = binomial.BinomialSpec(_sample_permutation_spec(ctx, r, rng).a, r)
        L = spec.poly()
        start = time.perf_counter_ns()
        closed = binomial.inverse_binomial(spec)
        closed_total += time.perf_counter_ns() - start
        start = time.perf_counter_ns()
        generic = linpoly.inverse_dickson(L)
        dickson_total += time.perf_counter_ns() - start
        agree = agree and closed == generic
    return closed_total // trials, dickson_total // trials, agree


def cmd_bench(args):
    if args.trials < 0:
        raise CliError("trials must be nonnegative")
    # BinomialSpec rejects a bad r, so --trials 0 checks it too
    binomial.BinomialSpec(field_ctx(args.p, args.e, args.n).zero, args.r)
    if args.trials == 0:
        _emit(args, [])
        return 0
    closed_ns, dickson_ns, agree = run_bench(
        args.p, args.e, args.n, args.r, args.trials)
    _emit(args, [("closed_ns", closed_ns), ("dickson_ns", dickson_ns),
                 ("agree", agree)])
    return 0 if agree else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linperm",
        description="Exact permutation tests and compositional inverses for "
                    "linearized binomials x^(q^r) + a*x over GF(q^n).")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=func)
        sp.add_argument("--json", action="store_true",
                        help="emit one JSON object instead of key: value lines")
        return sp

    def add_field_args(sp):
        sp.add_argument("--p", type=int, required=True, help="prime characteristic")
        sp.add_argument("--e", type=int, required=True, help="q = p^e")
        sp.add_argument("--n", type=int, required=True, help="ambient field GF(q^n)")

    def add_spec_args(sp):
        add_field_args(sp)
        sp.add_argument("--r", type=int, required=True, help="Frobenius slot in [1, n-1]")
        sp.add_argument("--a", type=int, required=True,
                        help="coefficient a as an integer encoding")

    sp = add("field", cmd_field, "print the canonical modulus and field order")
    add_field_args(sp)

    sp = add("check", cmd_check, "test whether x^(q^r) + a*x permutes the field")
    add_spec_args(sp)

    sp = add("invert", cmd_invert, "compute the compositional inverse")
    add_spec_args(sp)
    sp.add_argument("--method", choices=("closed", "dickson", "special"),
                    default="closed")

    sp = add("lift", cmd_lift, "transplant the binomial to GF(q^(t*n))")
    add_spec_args(sp)
    sp.add_argument("--t", type=int, required=True,
                    help="extension factor, coprime to n")

    sp = add("verify", cmd_verify, "run the cross-validation sweep")
    sp.add_argument("--max-order", type=int, required=True, dest="max_order",
                    help="exhaustive-field order bound")
    sp.add_argument("--primes", type=str, default="2,3,5",
                    help="comma-separated primes to sweep")

    sp = add("bench", cmd_bench, "time closed-form vs matrix-method inversion")
    add_field_args(sp)
    sp.add_argument("--r", type=int, default=1, help="Frobenius slot in [1, n-1]")
    sp.add_argument("--trials", type=int, required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
