"""Benchmark for reebmin: seeded closed-loop workloads with checked answers.

One workload (the last line printed is one JSON object):

    python3 bench/run.py --workload toric_family --seed 1 --seconds 20 --trace 0

All four workloads, each in a process of its own, with a result file for
bench/compare.py (--repeats runs each workload on seeds seed, seed+1, ...):

    python3 bench/run.py --seed 1 --repeats 3 --out bench/results/base.json
    python3 bench/run.py --seed 1 --trace 1

See bench/README.md for the workloads, the metrics and how to compare.
"""

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REF_S = 1.5e-3  # calibrated seconds are seconds on a host where calibrate() takes this long
SETUP_REPEATS = 5
CAL_WINDOW = 4  # reference jobs whose median calibrates one problem
CAUSES = ("stall", "timeout", "error", "wrong")
E2E = {  # metric -> unit
    "problems_per_s": "1/s",
    "solve_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class ProblemTimeout(BaseException):
    """Raised by the interval timer when a problem exceeds its cap.

    A BaseException, so that no `except Exception` in the program swallows it.
    """


def _on_alarm(signum, frame):
    raise ProblemTimeout


def calibrate():
    """Seconds for a fixed reference job: exact rationals, then integer numpy.

    A shared host's speed swings by tens of percent within a minute, and
    interpreted and vectorized code swing by different amounts; the job mixes
    both, as the workloads do.  It is timed between problems and each
    problem's time is divided by the jobs timed around it.  It runs after
    run_problem has collected the problem's garbage, so it starts clean.
    """
    a = np.arange(1, 8193, dtype=np.int64)
    b = np.empty_like(a)
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 200):
        s += Fraction(1, i)
    for _ in range(40):
        np.multiply(a, 7, out=b)
        np.floor_divide(b, 3, out=b)
        np.maximum(a, b, out=b)
        int(b.sum())
    return time.perf_counter() - t0


def run_problem(problem, cap=None):
    """Run one problem to a checked answer within `cap` wall seconds (default:
    the problem's own cap); returns (cause or None, wall seconds, detail)."""
    from workloads import Stall, Wrong

    cap = problem.cap if cap is None else cap
    signal.signal(signal.SIGALRM, _on_alarm)
    cause = detail = None
    t0 = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, cap)
            problem.solve()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except ProblemTimeout:
        cause, detail = "timeout", f"over {cap:.3g} s"
    except Stall as e:
        cause, detail = "stall", str(e)
    except Wrong as e:
        cause, detail = "wrong", str(e)
    except Exception as e:  # any other error fails the problem; the run goes on
        cause, detail = "error", f"{type(e).__name__}: {e}"
    gc.collect()  # the problem's garbage is collected in its own time, so the next starts clean
    return cause, time.perf_counter() - t0, detail


def run_rounds(rounds, seconds=None, count=None):
    """Closed loop with one client: whole rounds until `count` are done, or until
    the problems' calibrated time reaches `seconds` (or the wall clock 1.25 times
    that, which bounds a run on a slow host).

    Each problem's time is calibrated by the median of the reference jobs timed
    around it (CAL_WINDOW of them), so one slow reference job does not move
    it.  Returns
    ([(problem, cause, wall_s, calibrated_s, detail)], rounds done).
    """
    runs, calib = [], [calibrate()]
    done = 0
    busy = 0.0
    t0 = time.perf_counter()
    while True:
        for problem in rounds[done % len(rounds)]:
            cap = problem.cap * statistics.median(calib[-CAL_WINDOW:]) / REF_S
            runs.append((problem, *run_problem(problem, cap=cap)))
            calib.append(calibrate())
            busy += runs[-1][2] * 2 * REF_S / (calib[-2] + calib[-1])
        done += 1
        if (done >= count) if count is not None else max(busy, (time.perf_counter() - t0) / 1.25) >= seconds:
            break
    results = []
    half = CAL_WINDOW // 2
    for i, (problem, cause, wall, detail) in enumerate(runs):
        ref = statistics.median(calib[max(0, i + 1 - half):i + 1 + half])
        results.append((problem, cause, wall, problem.cap if cause == "timeout" else wall * REF_S / ref, detail))
    return results, done


def family_throughput(results, rounds):
    """Problems per calibrated second over the workload's whole family.

    Each problem of the family counts the median calibrated time of its kind
    in this run, so a rare outlier (a stall on one seeded input) moves
    fail_frac and the tail percentile rather than the throughput, and a
    problem only the first round has (the dim-6 cone) weighs the same
    however many rounds the run got through.  Every kind is in the first
    round, which every run does.
    """
    times = {}
    for r in results:
        times.setdefault(r[0].kind, []).append(r[3])
    median = {kind: statistics.median(v) for kind, v in times.items()}
    family = [p.kind for rnd in rounds for p in rnd]
    return len(family) / sum(median[kind] for kind in family)


def tail_percentile(times):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it, or None."""
    n = len(times)
    for q in (99, 95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(times, n=100, method="inclusive")[q - 1]
    return None


def summarize(results):
    """Failure accounting over run_rounds results.

    `causes` and `fail_frac` count every failure, stalls and the known
    defects included.  `failed`, the figure of the result line, counts the
    problems whose answer is missing or wrong: a timeout, an error or a wrong
    answer, unless it is the cause a problem's known defect gives today.  A
    stall is not in it, because its answer passed the check.  So `failed` is
    0 at the baseline whatever number of problems a run gets through.

    An error, or a wrong answer other than a known defect's, clears
    `correct`: the baseline has neither, so a change that fails fast cannot
    pass for a faster one.
    """
    causes = Counter(r[1] for r in results if r[1])
    failed = [r for r in results if r[1] in ("timeout", "error", "wrong") and r[0].known[:1] != (r[1],)]
    unexpected = [(r[0].kind, r[-1]) for r in failed if r[1] != "timeout"]
    return {
        "attempted": len(results),
        "failed": len(failed),
        "fail_frac": sum(causes.values()) / len(results),
        "causes": {c: causes.get(c, 0) for c in CAUSES},
        "correct": not unexpected,
        "unexpected": unexpected[:5],
    }


def per_kind(results):
    kinds = {}
    for problem, cause, _, cal, detail in results:
        k = kinds.setdefault(problem.kind, {"n": 0, "times": [], "causes": Counter(), "example": None})
        k["n"] += 1
        k["times"].append(cal)
        if cause:
            k["causes"][cause] += 1
            k["example"] = k["example"] or detail
    return {
        kind: {"n": k["n"], "median_s": statistics.median(k["times"]), "causes": dict(k["causes"]),
               "example": k["example"]}
        for kind, k in kinds.items()
    }


def measure_setup(workload, seed, repeats=SETUP_REPEATS):
    """Median over repeats of a fresh interpreter importing reebmin plus input generation.

    Returns (calibrated seconds, wall seconds, rounds).
    """
    import workloads

    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    walls, cals = [], []
    before = calibrate()
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import reebmin"], env=env, check=True)
        rounds = workloads.build(workload, seed)
        wall = time.perf_counter() - t0
        after = calibrate()
        walls.append(wall)
        cals.append(wall * 2 * REF_S / (before + after))
        before = after
    return statistics.median(cals), statistics.median(walls), rounds


def warm_up():
    """Load what the program loads lazily, so the first timed problem does not pay for it."""
    from reebmin import oracle, toricvol

    t = toricvol.ToricData.from_dual_cone([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -2)], (1, 1, -1))
    res = toricvol.minimize(t)
    oracle.count_toric(t, res.xi_star, 10)


def run_workload(name, seed, seconds, trace):
    """The record of one run: contract fields, metrics and the detail behind them."""
    setup_s, setup_wall, rounds = measure_setup(name, seed)
    warm_up()
    gc.freeze()  # the inputs live for the whole run; collections skip them
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    if not trace:
        results, passes = run_rounds(rounds, seconds=seconds)
        walls = [r[2] for r in results]
        cals = [r[3] for r in results]
        metrics = {
            "problems_per_s": family_throughput(results, rounds),
            "solve_s.p50": statistics.median(cals),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record["metrics"] = {k: {"value": v, "unit": E2E[k]} for k, v in metrics.items()}
        record["wall"] = {
            "problems_per_s": len(walls) / sum(walls),
            "solve_s.p50": statistics.median(walls),
            "setup_s": setup_wall,
        }
        tail = tail_percentile(cals)
        record["tail"] = {"percentile": tail[0], "value": tail[1]} if tail else None
    else:
        import tracing

        plain, passes = run_rounds(rounds, seconds=seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            results, _ = run_rounds(rounds, count=passes)
        finally:
            tracer.uninstall()
        busy = sum(r[2] for r in results)
        scale = sum(r[3] for r in results) / busy  # calibrated seconds per wall second
        metrics = tracer.metrics(passes, busy, scale)
        overhead = sum(r[3] for r in results) - sum(r[3] for r in plain)
        metrics["trace.overhead_s"] = (overhead / passes, "s")
        for cause, n in summarize(results)["causes"].items():
            metrics[f"fail.{cause}"] = (n / passes, "count")
        record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record.update(summarize(results))
    record["passes"] = passes
    record["kinds"] = per_kind(results)
    record["samples"] = [[r[0].kind, round(r[2], 6), round(r[3], 6), r[1]] for r in results]
    return record


def print_record(record, out=sys.stdout):
    print(f"== {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['attempted']} problems in {record['passes']} passes", file=out)
    for name, m in record["metrics"].items():
        wall = record.get("wall", {}).get(name)
        extra = f"  (wall clock {wall:.6g})" if wall is not None else ""
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}{extra}", file=out)
    print(f"  {'fail_frac':44s} {record['fail_frac']:14.6g} ratio "
          f"(base {record['attempted']} attempted; {record['causes']}; "
          f"{record['failed']} missing or wrong answers beyond the known defects)", file=out)
    if not record["trace"]:
        tail = record["tail"]
        tail_text = f"p{tail['percentile']} {tail['value']:.6g} s" if tail else "no tail percentile under 40 samples"
        print(f"  {'solve_s samples':44s} {record['attempted']:14d} (p50 over all; {tail_text})", file=out)
    for kind, k in record["kinds"].items():
        print(f"    {kind:28s} n={k['n']:<4d} median {k['median_s']:.4f} s {k['causes'] or ''}", file=out)
    for kind, detail in record["unexpected"]:
        print(f"  UNEXPECTED {kind}: {detail}", file=out)


def environment(seed, seconds):
    import mpmath

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    except OSError:
        commit = ""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit or "unknown",
        "seed": seed,
        "seconds": seconds,
    }


def run_all(args):
    """Each workload in a child process of its own, one at a time."""
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    runs = {}
    for name in names:
        for rep in range(args.repeats):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed + rep), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            lines = proc.stdout.splitlines()
            record = next((json.loads(ln[7:]) for ln in lines if ln.startswith("RECORD ")), None)
            if proc.returncode != 0 or record is None:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                raise SystemExit(f"{name} seed {args.seed + rep} failed with exit code {proc.returncode}")
            print("\n".join(ln for ln in lines[:-1] if not ln.startswith("RECORD ")))
            runs.setdefault(name, []).append(record)
    if args.out:
        doc = {"env": environment(args.seed, args.seconds), "runs": runs}
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0 if all(r["correct"] for rs in runs.values() for r in rs) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=1, help="runs per workload")
    parser.add_argument("--out", help="result file for bench/compare.py")
    args = parser.parse_args(argv)

    if not (SRC / "reebmin" / "__init__.py").is_file():
        print(f"reebmin sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS + ("all",):
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)} or all")
    if args.workload == "all" or args.out or args.repeats > 1:
        return run_all(args)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_record(record)
    print("RECORD " + json.dumps(record))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
