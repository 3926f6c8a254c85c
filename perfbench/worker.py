"""One fresh process that sets up linperm and runs one round of a workload.

Reads a job (JSON) on stdin and prints its result (JSON) as the last line
of stdout.  A fresh process per round keeps every round cold: linperm's
lru_caches (``field_ctx``, ``_embedding_powers``, ``_embedding_table``,
``_direct_sample``) and the per-context Frobenius matrices would otherwise
carry over from one round to the next.

``setup_s`` runs from just before ``import linperm`` to the end of the
workload's set-up (contexts and inputs); interpreter start-up is not in it.
A round is made of timed units (the sweep, one binomial, one lifted pair);
``unit_s`` gives each unit's time in order, ``null`` where a call raised.
"""

import json
import os
import sys
import time
import traceback


def _peak_rss_mb() -> float:
    """This process's own resident high-water mark (Linux ``VmHWM``).

    ``getrusage``'s ``ru_maxrss`` is not used: Linux carries it across
    ``exec``, so a worker would report at least its parent's peak.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


# --- sweep: linperm verify ------------------------------------------------

def setup_sweep(linperm, job):
    return linperm.SweepConfig(max_field_order=job["cap"],
                               primes=tuple(job["primes"]))


def task_sweep(linperm, cfg, job):
    t0 = time.perf_counter()
    try:
        report = linperm.sweep(cfg)
    except Exception as exc:          # recorded as a failed operation
        return {"error": _error(exc), "unit_s": [None], "timings": {}}
    elapsed = time.perf_counter() - t0
    return {
        "unit_s": [elapsed],
        "cases": report.cases,
        "permutation_cases": report.permutation_cases,
        "cofactor_checks": report.cofactor_checks,
        "lift_checks": report.lift_checks,
        "failures": [f.line() for f in report.failures],
        "timings": report.timings,
    }


# --- invert-n32 and dickson-n32: inverses over one big field ---------------

def setup_big_field(linperm, job):
    ctx = linperm.field_ctx(job["p"], job["e"], job["n"])
    for k in range(ctx.m):
        ctx.one.frobenius(k)          # builds and caches every Frobenius matrix
    specs = [linperm.BinomialSpec(ctx.from_int(a), r) for a, r in job["binomials"]]
    return ctx, [(spec, spec.poly()) for spec in specs]


def _timed(fn, *args):
    t0 = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - t0


def _each_binomial(ctx, inputs, calls):
    """Runs ``calls(spec, L)`` on every binomial of the round.

    ``calls`` returns the binomial's outputs and the times of its timed
    calls by name; the binomial's unit time is the sum of those times.
    """
    results, call_s, unit_s = [], {}, []
    for spec, L in inputs:
        try:
            res, times = calls(spec, L)
        except Exception as exc:      # recorded as a failed operation
            results.append({"error": _error(exc)})
            unit_s.append(None)
            continue
        results.append(res)
        unit_s.append(sum(times.values()))
        for key, t in times.items():
            call_s.setdefault(key, []).append(t)
    return {"modulus": ctx.modulus_int, "binomials": results, "cases": len(inputs),
            "unit_s": unit_s, "call_s": call_s}


def task_invert(linperm, state, job):
    """The paper's criterion and closed-form inverse for every binomial."""
    def calls(spec, L):
        permutation, t_crit = _timed(linperm.is_permutation_binomial, spec)
        closed, t_closed = _timed(linperm.inverse_binomial, spec)
        return ({"permutation": permutation, "closed": list(closed.to_encodings())},
                {"criterion": t_crit, "closed": t_closed})
    return _each_binomial(*state, calls)


def task_dickson(linperm, state, job):
    """The Dickson-matrix inverse of every binomial; the closed form, untimed,
    is returned beside it for the checks."""
    def calls(spec, L):
        dickson, t_dickson = _timed(linperm.inverse_dickson, L)
        closed = linperm.inverse_binomial(spec)
        return ({"dickson": list(dickson.to_encodings()),
                 "closed": list(closed.to_encodings())},
                {"dickson": t_dickson})
    return _each_binomial(*state, calls)


# --- lift: cold lifts to bigger fields -------------------------------------

def setup_lift(linperm, job):
    inputs = []
    for pair in job["pairs"]:
        small = linperm.field_ctx(pair["p"], pair["e"], pair["n"])
        spec = linperm.BinomialSpec(small.from_int(pair["a"]), pair["r"])
        inputs.append((small, spec.poly()))
    return inputs


def task_lift(linperm, inputs, job):
    results, unit_s = [], []
    for pair, (small, L) in zip(job["pairs"], inputs):
        res, elapsed = {}, None
        try:
            t0 = time.perf_counter()
            big = linperm.field_ctx(pair["p"], pair["e"] * pair["t"], pair["n"])
            lifted = linperm.lift(L, pair["t"], big)
            elapsed = time.perf_counter() - t0
            res["lifted"] = list(lifted.to_encodings())
            res["generator"] = linperm.embed_subfield(small.gen(), big).to_int()
            res["small_modulus"] = small.modulus_int
            res["big_modulus"] = big.modulus_int
        except Exception as exc:      # recorded as a failed operation
            res, elapsed = {"error": _error(exc)}, None
        results.append(res)
        unit_s.append(elapsed)
    return {"pairs": results, "cases": len(inputs), "unit_s": unit_s}


WORKLOADS = {
    "sweep": (setup_sweep, task_sweep),
    "invert-n32": (setup_big_field, task_invert),
    "dickson-n32": (setup_big_field, task_dickson),
    "lift": (setup_lift, task_lift),
}


def main():
    job = json.loads(sys.stdin.read())
    setup, task = WORKLOADS[job["workload"]]
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(job["root"], "src"))
    import linperm
    state = setup(linperm, job)
    out = {"setup_s": time.perf_counter() - t0,
           "backend": linperm.kernel_backend()}
    if job["mode"] == "task":
        tracer = None
        if job["trace_path"]:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
            task = tracer.wrap("bench.task", task)
        t0 = time.perf_counter()
        out.update(task(linperm, state, job))
        out["wall_s"] = time.perf_counter() - t0
        if tracer is not None:
            out["trace"] = tracer.summary()
            tracer.write(job["trace_path"], {"workload": job["workload"],
                                             "seed": job["seed"]})
    out["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
