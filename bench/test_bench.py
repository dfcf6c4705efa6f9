"""Smoke test of the benchmark on tiny seeded inputs.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from reebmin import cli, cxonevol, toricvol  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _corrupt_exact_volume(real):
    def vol_xi(t, xi):
        v = real(t, xi)
        return v * (1 + Fraction(1, 10**30)) if isinstance(v, Fraction) else v

    return vol_xi


def _corrupt_count(real):
    return lambda *args, **kwargs: real(*args, **kwargs) + 1


@pytest.mark.parametrize(
    "workload, index, module, name, corrupt",
    [
        ("toric_certify", 0, toricvol, "vol_xi", _corrupt_exact_volume),
        ("oracle_check", 0, cli, "count_toric", _corrupt_count),  # cli binds count_toric by name
    ],
)
def test_answers_pass_and_a_corrupted_answer_fails(monkeypatch, workload, index, module, name, corrupt):
    problem = workloads.build(workload, 0)[0][index]
    cause, _, detail = run.run_problem(problem)
    assert cause in (None, "stall"), detail
    monkeypatch.setattr(module, name, corrupt(getattr(module, name)))
    result = run.run_problem(problem)
    assert result[0] == "wrong", result
    summary = run.summarize([(problem, *result)])
    assert summary["failed"] == 1 and summary["causes"]["wrong"] == 1
    assert summary["correct"] is False


def test_a_stalled_answer_is_still_checked(monkeypatch):
    problem = workloads.toric_problem("stall reproducer", workloads.STALL_RAYS, workloads.STALL_U0, workloads.STALL_NVOL)
    cause, _, detail = run.run_problem(problem)
    assert cause == "stall", detail
    real = toricvol.vol_xi
    monkeypatch.setattr(toricvol, "vol_xi", lambda t, xi: real(t, xi) * (1 + 1e-6))
    cause, _, detail = run.run_problem(problem)
    assert cause == "wrong", detail


def test_an_error_clears_correct():
    def fail_fast():
        raise TypeError("fails fast")

    problem = workloads.Problem("error", fail_fast)
    summary = run.summarize([(problem, *run.run_problem(problem))])
    assert summary["causes"]["error"] == 1 and summary["correct"] is False


def test_compare_flags_more_failures_of_a_kind():
    def record(stalls):
        return {"kinds": {"k": {"n": 4, "causes": {"stall": stalls} if stalls else {}}}}

    old = [record(0), record(1), record(1)]
    assert compare.more_failures(old, [record(1), record(1), record(0)]) == []
    assert compare.more_failures(old, [record(2), record(3), record(1)]) == [("k", "stall", 0.25, 0.5)]


def test_known_defect_is_counted_but_does_not_clear_correct():
    problem = workloads.zero_volume_problem()
    result = run.run_problem(problem)
    summary = run.summarize([(problem, *result)])
    assert summary["causes"]["wrong"] == 1 and summary["fail_frac"] == 1
    assert summary["failed"] == 0 and summary["correct"] is True


def test_failed_counts_missing_or_wrong_answers_only():
    def spin():
        while True:
            pass

    def stall():
        raise workloads.Stall("stopped")

    results = [
        (workloads.Problem("stall", stall), *run.run_problem(workloads.Problem("stall", stall))),
        (workloads.Problem("capped", spin), *run.run_problem(workloads.Problem("capped", spin), cap=0.1)),
        (workloads.Problem("known", spin, ("timeout", "")), *run.run_problem(workloads.Problem("known", spin), cap=0.1)),
        (workloads.Problem("known", spin, ("wrong", "")), "timeout", 0.1, None),
    ]
    summary = run.summarize(results)
    assert summary["causes"] == {"stall": 1, "timeout": 3, "error": 0, "wrong": 0}
    assert summary["fail_frac"] == 1
    # the untagged timeout and the known defect that failed another way
    assert summary["failed"] == 2 and summary["correct"] is True


def test_time_cap_records_a_timeout():
    def spin():
        while True:
            pass

    cause, seconds, _ = run.run_problem(workloads.Problem("spin", spin), cap=0.2)
    assert cause == "timeout" and 0.2 <= seconds < 2


def test_trace_counts_equal_a_direct_count(monkeypatch):
    problem = workloads.dk_chain_problem()
    real = cxonevol.vol_xi_c1
    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(cxonevol, "vol_xi_c1", counting)
    problem.solve()
    monkeypatch.undo()

    tracer = tracing.Tracer()
    tracer.install()
    try:
        problem.solve()
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(1, 1.0, 1.0)
    assert metrics["cxonevol.vol_xi_c1.calls"][0] == calls > 100
    assert metrics["cxonevol.minimize_c1.calls"][0] == 1
    assert metrics["downgrade.downgrade_coefficient.calls"][0] == 3
    assert cxonevol.vol_xi_c1 is real


def test_same_seed_gives_the_same_inputs():
    def inputs(rounds):
        return [[tuple(c.cell_contents for c in p.solve.__closure__ or ()) for p in rnd] for rnd in rounds[:3]]

    assert inputs(workloads.build("cxone_family", 5)) == inputs(workloads.build("cxone_family", 5))
    assert inputs(workloads.build("toric_family", 5)) != inputs(workloads.build("toric_family", 6))


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_the_declared_metrics(trace, section):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "toric_certify", "--seed", "2", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    out = _last_json(proc.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "toric_family", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
