#!/usr/bin/env python3
"""linperm benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload {sweep,invert-n32,dickson-n32,lift} \
        --seed N --seconds S --trace {0,1}

Run from anywhere; the program is imported from ``src/`` next to this
directory.  The seed gives one job (the workload's inputs); each round runs
it again in a fresh worker process (``worker.py``), and every output is
checked by ``checks.py``, which does not import linperm.  The last line of
stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``peak_rss_mb``, ``task_s``); with ``--trace 1`` one untraced and one
traced round run on the same inputs and the metrics are the per-layer
ones.  Earlier lines give the environment and the workload's own figures.
See README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

SWEEP_CAP = 64
SWEEP_PRIMES = (2, 3, 5)
BIG_FIELD = (3, 1, 32)               # GF(3^32)
# r of the dickson-n32 binomials: every d = gcd(32, r), and r = 7 for the
# costlier small r; about 2 s of Dickson inverses a round, where all 31
# would take about 24 s.
DICKSON_RS = (7, 16, 24, 28, 30, 31)
LIFT_PAIRS = [(2, 1, 7, 2), (5, 1, 3, 2), (3, 1, 4, 3), (2, 3, 3, 2)]  # p, e, n, t
SETUP_PROBES = 4                     # extra set-up-only workers per run
DEADLINE_S = 170                     # whole run, workers included
OUT_DIR = ROOT / ".perfbench"

PER_LAYER = (
    [(f"kernel.{f}.{k}", u) for f in ("mulmod", "matvec", "eval_all")
     for k, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"ffield.{f}.{k}", u) for f in ("mul", "inv", "frobenius", "embed_subfield")
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("ffield.norm_rel.calls", "count"), ("ffield.field_ctx.self_s", "s")]
    + [(f"linpoly.{f}.{k}", u)
       for f in ("dickson_matrix", "det", "det_and_inverse", "cofactor", "compose")
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("linpoly.eval.calls", "count"), ("linpoly.inverse_dickson.self_s", "s"),
       ("linpoly.dickson_matrix.per_case", "count/case")]
    + [(f"binomial.{f}.self_s", "s") for f in
       ("is_permutation_binomial", "inverse_binomial", "inverse_special", "lift")]
    + [(f"oracle.{c}_s", "s") for c in
       ("criterion", "inverse", "agreement", "cofactors", "lift")]
    + [("trace.untraced_s", "s"), ("trace.traced_s", "s"),
       ("trace.overhead", "ratio"), ("trace.spans", "count")]
)


# --- the job: the inputs of every round, drawn from the seed ---------------

def field_for(p: int, e: int, n: int) -> checks.Field:
    return checks.Field(p, e, n, checks.minimal_modulus(p, e * n))


def make_job(workload: str, seed: int) -> dict:
    rng = random.Random(seed)
    if workload == "sweep":
        return {"cap": SWEEP_CAP, "primes": list(SWEEP_PRIMES)}
    if workload in ("invert-n32", "dickson-n32"):
        p, e, n = BIG_FIELD
        field = field_for(p, e, n)
        rs = list(range(1, n) if workload == "invert-n32" else DICKSON_RS)
        rng.shuffle(rs)
        return {"p": p, "e": e, "n": n,
                "modulus": checks.poly_to_enc(field.mod, p),
                "binomials": [[checks.draw_permutation(field, r, rng), r] for r in rs]}
    pairs = []
    for p, e, n, t in LIFT_PAIRS:
        field = field_for(p, e, n)
        r = rng.randrange(1, n)
        pairs.append({"p": p, "e": e, "n": n, "t": t, "r": r,
                      "a": checks.draw_permutation(field, r, rng),
                      "modulus": checks.poly_to_enc(field.mod, p)})
    return {"pairs": pairs}


CHECKS = {"sweep": checks.check_sweep, "invert-n32": checks.check_invert,
          "dickson-n32": checks.check_dickson, "lift": checks.check_lift}


def run_worker(job: dict, workload: str, mode: str, deadline: float,
               seed: int, trace_path: str | None = None) -> dict:
    request = dict(job, workload=workload, mode=mode, root=str(ROOT),
                   seed=seed, trace_path=trace_path)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("run deadline passed before a worker could start")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                          input=json.dumps(request), capture_output=True,
                          text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# keys of a worker's output that hold timings, memory or the environment
TIMINGS = {"setup_s", "backend", "unit_s", "call_s", "timings", "wall_s",
           "trace", "peak_rss_mb"}


def round_times(outs: list[dict]) -> list[float | None]:
    """Each round's time; a round in which a unit failed has none."""
    return [None if None in o["unit_s"] else sum(o["unit_s"]) for o in outs]


def median_round(outs: list[dict]) -> float:
    times = [t for t in round_times(outs) if t is not None]
    if not times:
        raise RuntimeError("no round of the workload completed")
    return statistics.median(times)


def fastest_units(outs: list[dict]) -> float:
    """One round's time, each unit at its fastest reading over the rounds."""
    units = zip(*(out["unit_s"] for out in outs))
    fastest = [min(ts) for ts in ([t for t in u if t is not None] for u in units)
               if ts]
    if not fastest:
        raise RuntimeError("no unit of the workload completed")
    return sum(fastest)


# How a run's rounds become task_s.  Every round runs the same units on the
# same inputs.  The units of invert-n32 last 1 to 20 ms and one unit's
# readings vary twofold within a run, so over its 30-odd rounds each unit's
# fastest reading is the steady figure.  The other workloads' units last
# 0.1 to 7 s, which averages that jitter out, but a shared host has slow
# phases that last a whole run: the fastest round then depends on whether a
# run met a fast moment, and the median round is the steadier figure.
TASK_STAT = {"sweep": median_round, "invert-n32": fastest_units,
             "dickson-n32": median_round, "lift": median_round}


class Tally:
    """Operations attempted and failed, with the first problems seen.

    An operation fails when a call raised or a check rejected its output.
    Only a rejected output makes the run incorrect: a call that raised
    produced nothing wrong, and is counted as failed alone.
    """

    def __init__(self, workload: str):
        self.check = CHECKS[workload]
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []
        self._verdicts: dict[str, list[list[str]]] = {}

    def add(self, job: dict, out: dict):
        # Rounds repeat one job, so most rounds return outputs already
        # checked; their verdict is reused.  Timings are not outputs.
        key = json.dumps({k: v for k, v in out.items() if k not in TIMINGS},
                         sort_keys=True)
        if key not in self._verdicts:
            self._verdicts[key] = self.check(job, out)
        for problems in self._verdicts[key]:
            self.attempted += 1
            if problems:
                self.failed += 1
                raised = all(isinstance(p, checks.Raised) for p in problems)
                self.wrong += not raised
                self.problems.append(("raised: " if raised else "") + problems[0])


def tail(values):
    """The highest percentile with ten samples beyond it (forty or more)."""
    if len(values) < 40:
        return None
    return sorted(values)[-11]


def metric(value, unit):
    return {"value": value, "unit": unit}


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def details(workload: str, outs: list[dict]) -> dict:
    """The workload's own user-facing figures, for the lines before the result."""
    rounds = round_times(outs)
    if workload == "sweep":
        keys = sorted({k for out in outs for k in out["timings"]})
        return {"sweep_s": median(rounds), "rounds_s": rounds,
                "timings_s": {k: median(o["timings"].get(k) for o in outs)
                              for k in keys}}
    if workload == "lift":
        labels = [f"GF({p}^{e * n})->GF({p}^{e * n * t})" for p, e, n, t in LIFT_PAIRS]
        return {"lift_s": median(rounds), "rounds_s": rounds,
                "pair_s": {label: median(ts) for label, ts
                           in zip(labels, zip(*(o["unit_s"] for o in outs)))}}
    names = {"criterion": "criterion", "closed": "closed_inverse",
             "dickson": "dickson_inverse"}
    out = {"rounds_s": rounds}
    for key in outs[0]["call_s"]:
        calls = [t * 1e3 for o in outs for t in o["call_s"].get(key, [])]
        out[f"{names[key]}_ms"] = median(calls)
        out[f"{names[key]}_tail_ms"] = tail(calls)
        out[f"{names[key]}_samples"] = len(calls)
    return out


def per_layer(plain: dict, traced: dict) -> dict:
    summary = traced["trace"]
    values = {}
    for name, unit in PER_LAYER:
        layer, rest = name.split(".", 1)
        func, _, kind = rest.rpartition(".")
        key = f"{layer}.{func}"
        if kind in ("calls", "self_s"):
            values[name] = summary[kind][key]
    values["linpoly.dickson_matrix.per_case"] = (
        summary["calls"]["linpoly.dickson_matrix"] / plain["cases"])
    for check in ("criterion", "inverse", "agreement", "cofactors", "lift"):
        values[f"oracle.{check}_s"] = plain.get("timings", {}).get(check, 0.0)
    values["trace.untraced_s"] = plain["wall_s"]
    values["trace.traced_s"] = traced["wall_s"]
    values["trace.overhead"] = traced["wall_s"] / plain["wall_s"]
    values["trace.spans"] = summary["spans"]
    return {name: metric(values[name], unit) for name, unit in PER_LAYER}


def environment(backend: str | None) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "linperm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": sys.version.split()[0], "backend": backend,
            "commit": commit, "src_sha256": digest.hexdigest()[:16],
            "nproc": os.cpu_count()}


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    tally = Tally(workload)
    job = make_job(workload, seed)
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        plain = run_worker(job, workload, "task", deadline, seed)
        tally.add(job, plain)
        path = OUT_DIR / f"spans-{workload}-seed{seed}.bin"
        traced = run_worker(job, workload, "task", deadline, seed, str(path))
        tally.add(job, traced)
        outs = [plain]
        metrics = per_layer(plain, traced)
    else:
        setups = [run_worker(job, workload, "setup", deadline, seed)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        outs, rounds = [], []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            out = run_worker(job, workload, "task", deadline, seed)
            tally.add(job, out)
            outs.append(out)
            rounds.append(time.monotonic() - t0)
            if time.monotonic() - start + statistics.median(rounds) > seconds:
                break
        setups += [out["setup_s"] for out in outs]
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(max(o["peak_rss_mb"] for o in outs), "MB"),
            "task_s": metric(TASK_STAT[workload](outs), "s"),
        }
    print(json.dumps({"env": environment(outs[0]["backend"])}))
    print(json.dumps({"workload": workload, "seed": seed,
                      "details": details(workload, outs),
                      "problems": tally.problems[:10]}))
    return {"correct": tally.wrong == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CHECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "linperm" / "__init__.py").is_file():
        print(f"linperm sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark did not complete: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
