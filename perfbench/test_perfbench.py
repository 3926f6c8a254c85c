"""Tests of the benchmark itself: its checks catch faults, its counts repeat.

    python3 -m pytest -q perfbench

Small fields stand in for the workloads' own sizes; the worker and check
code is the same that ``run.py`` uses.
"""

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import linperm  # noqa: E402


def invert_job(workload="invert-n32", p=3, e=1, n=6, count=3, seed=5):
    field = checks.Field(p, e, n, checks.minimal_modulus(p, e * n))
    rng = random.Random(seed)
    rs = [rng.randrange(1, n) for _ in range(count)]
    return {"workload": workload, "p": p, "e": e, "n": n,
            "modulus": checks.poly_to_enc(field.mod, p),
            "binomials": [[checks.draw_permutation(field, r, rng), r] for r in rs]}


def lift_job(pairs=((5, 1, 3, 2), (3, 1, 2, 3)), seed=5):
    rng = random.Random(seed)
    out = []
    for p, e, n, t in pairs:
        field = checks.Field(p, e, n, checks.minimal_modulus(p, e * n))
        r = rng.randrange(1, n)
        out.append({"p": p, "e": e, "n": n, "t": t, "r": r,
                    "a": checks.draw_permutation(field, r, rng),
                    "modulus": checks.poly_to_enc(field.mod, p)})
    return {"workload": "lift", "pairs": out}


def run_in_process(job):
    setup, task = worker.WORKLOADS[job["workload"]]
    return task(linperm, setup(linperm, job), job)


def tally(job, out):
    t = run.Tally(job["workload"])
    t.add(job, out)
    return t


def test_sweep_formula_reproduces_published_counts():
    assert checks.sweep_counts(64) == {"cases": 812, "permutation_cases": 367,
                                       "cofactor_checks": 1425, "lift_checks": 370}
    assert checks.sweep_counts(729) == {"cases": 19394, "permutation_cases": 11260,
                                        "cofactor_checks": 31702, "lift_checks": 11296}


def test_wrong_sweep_count_fails_the_sweep():
    job = {"workload": "sweep", "cap": 27, "primes": [2, 3]}
    out = run_in_process(job)
    assert tally(job, out).failed == 0
    out["permutation_cases"] += 1
    t = tally(job, out)
    assert (t.attempted, t.failed, t.wrong) == (1, 1, 1)


def test_wrong_inverse_coefficient_fails_its_binomial():
    job = invert_job()
    out = run_in_process(job)
    assert tally(job, out).failed == 0
    res = out["binomials"][1]
    k = next(i for i, c in enumerate(res["closed"]) if c)
    bad = (res["closed"][k] + 1) % 3**6
    res["closed"][k] = bad
    t = tally(job, out)
    assert (t.attempted, t.failed, t.wrong) == (3, 1, 1)
    assert "L(M(x))" in t.problems[0]


def test_wrong_dickson_coefficient_fails_its_binomial():
    job = invert_job("dickson-n32")
    out = run_in_process(job)
    assert tally(job, out).failed == 0
    res = out["binomials"][2]
    k = next(i for i, c in enumerate(res["dickson"]) if c)
    res["dickson"][k] = (res["dickson"][k] + 1) % 3**6
    t = tally(job, out)
    assert (t.attempted, t.failed, t.wrong) == (3, 1, 1)
    # the same fault in the closed form beside it is still caught, by L(M(x)) = x
    res["closed"][k] = res["dickson"][k]
    t = tally(job, out)
    assert (t.failed, t.wrong) == (1, 1)
    assert "L(M(x))" in t.problems[0]


def test_wrong_criterion_fails_its_binomial():
    job = invert_job()
    out = run_in_process(job)
    out["binomials"][0]["permutation"] = False
    assert tally(job, out).failed == 1


def test_wrong_lifted_coefficient_fails_its_pair():
    job = lift_job()
    out = run_in_process(job)
    assert tally(job, out).failed == 0
    lifted = out["pairs"][0]["lifted"]
    lifted[0] = (lifted[0] + 1) % 5**6
    t = tally(job, out)
    assert (t.attempted, t.failed, t.wrong) == (2, 1, 1)


def test_wrong_embedding_fails_its_pair():
    job = lift_job()
    out = run_in_process(job)
    res = out["pairs"][1]
    res["generator"] = (res["generator"] + 1) % 3**6
    assert tally(job, out).failed == 1


def test_raised_call_is_a_failure_but_not_a_wrong_output(monkeypatch):
    job = lift_job()
    calls = []

    def broken_lift(L, t, big):
        calls.append(t)
        raise ValueError("injected")

    monkeypatch.setattr(linperm, "lift", broken_lift)
    out = run_in_process(job)
    t = tally(job, out)
    assert (len(calls), t.attempted, t.failed, t.wrong) == (2, 2, 2, 0)
    assert out["unit_s"] == [None, None]
    assert run.details("lift", [out])["lift_s"] is None
    for stat in (run.median_round, run.fastest_units):
        with pytest.raises(RuntimeError):
            stat([out])


def test_peak_rss_is_the_workers_own():
    ballast = b"\1" * (64 << 20)         # a parent far bigger than a worker
    job = lift_job(pairs=((5, 1, 3, 2),))
    job.pop("workload")
    out = run.run_worker(job, "lift", "setup", time.monotonic() + 60, 5)
    assert out["peak_rss_mb"] < 50 and len(ballast) == 64 << 20


def test_traced_calls_repeat_exactly(tmp_path):
    job = lift_job(pairs=((5, 1, 3, 2),))
    job.pop("workload")
    deadline = time.monotonic() + 120
    first, second = (run.run_worker(job, "lift", "task", deadline, 5,
                                    str(tmp_path / f"spans{i}.bin"))
                     for i in range(2))
    assert first["trace"]["calls"] == second["trace"]["calls"]
    assert first["trace"]["calls"]["binomial.lift"] == 1
    header = (tmp_path / "spans0.bin").read_bytes().split(b"\n", 1)[0]
    assert json.loads(header)["spans"] == first["trace"]["spans"]


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "peak_rss_mb", "task_s"]
    assert {w["name"] for w in spec["workloads"]} == set(run.CHECKS) == set(run.TASK_STAT)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lift", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("values, expected", [(list(range(39)), None),
                                              (list(range(40)), 29)])
def test_tail_needs_forty_samples(values, expected):
    assert run.tail(values) == expected
