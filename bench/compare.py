"""Compare two result files written by `bench/run.py --out`.

    python3 bench/compare.py bench/results/old.json bench/results/new.json

Prints one row per workload and end-to-end metric of BENCHMARK.json: each
side's median and quartiles over its runs, the change of the medians as a
share of the old median, and a verdict:

    worse       the new median is worse than the old by more than the bound
    better      the new median is better than the old by more than the bound
    unresolved  a side's quartile spread is wider than the bound, and not
                every new run beats every old run
    same        otherwise

fail_frac (no bound) is printed below.  Failures are then compared kind by
kind (a kind is one slot of a workload's round) and cause by cause: a kind
whose new median share of a cause is above every old run's share is flagged
"more failures".  A change that makes problems fail fast would otherwise
read as a throughput gain.
Exits 1 if any row is worse, any kind has more failures, or a side recorded
an unexpected answer (a wrong answer other than a known defect's, or an
error).
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CAUSES = ("stall", "timeout", "error", "wrong")


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(old, new, bound, better):
    o1, om, o3 = quartiles(old)
    n1, nm, n3 = quartiles(new)
    worse_by = (nm - om) / om if better == "lower" else (om - nm) / om
    if max((o3 - o1) / om, (n3 - n1) / nm) > bound:
        beats_all = max(new) < min(old) if better == "lower" else min(new) > max(old)
        return "better" if beats_all else "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def more_failures(old_runs, new_runs):
    """(kind, cause, old max share, new median share) where the new median is above the old max."""

    def shares(runs, kind, cause):
        return [r["kinds"][kind]["causes"].get(cause, 0) / r["kinds"][kind]["n"] for r in runs if kind in r["kinds"]]

    kinds = {kind for r in new_runs for kind in r["kinds"]}
    out = []
    for kind in sorted(kinds):
        for cause in CAUSES:
            old, new = shares(old_runs, kind, cause), shares(new_runs, kind, cause)
            if new and statistics.median(new) > max(old, default=0.0):
                out.append((kind, cause, max(old, default=0.0), statistics.median(new)))
    return out


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for label, doc in (("old", old), ("new", new)):
        env = doc["env"]
        print(f"{label}: commit {env['commit'][:12]}  python {env['python']}  numpy {env['numpy']}  "
              f"mpmath {env['mpmath']}  nproc {env['nproc']}  cpu {env['cpu']}  seed {env['seed']}")
    bad = False
    header = f"{'workload':14s} {'metric':16s} {'old median [q1, q3]':>30s} {'new median [q1, q3]':>30s} {'change':>8s}  verdict"
    print(header)
    for workload in old["runs"]:
        if workload not in new["runs"]:
            print(f"{workload:14s} missing from the new file")
            continue
        a, b = old["runs"][workload], new["runs"][workload]
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in a]
            vb = [r["metrics"][m["name"]]["value"] for r in b]
            v = verdict(va, vb, m["bound"], m["better"])
            bad |= v == "worse"
            qa, qb = quartiles(va), quartiles(vb)
            change = (qb[1] - qa[1]) / qa[1]
            print(f"{workload:14s} {m['name']:16s} {qa[1]:10.4g} [{qa[0]:.4g}, {qa[2]:.4g}]".ljust(62)
                  + f"{qb[1]:10.4g} [{qb[0]:.4g}, {qb[2]:.4g}]".ljust(31)
                  + f"{change:+8.1%}  {v} (bound {m['bound']:.0%}, {m['better']} is better)")
        fa = statistics.median(r["fail_frac"] for r in a)
        fb = statistics.median(r["fail_frac"] for r in b)
        print(f"{workload:14s} {'fail_frac':16s} {fa:10.4g}".ljust(62) + f"{fb:10.4g}")
        for kind, cause, old_max, new_median in more_failures(a, b):
            print(f"{workload:14s} fail.{cause:11s} {kind}: old max {old_max:.3g}, new median {new_median:.3g}"
                  "  more failures")
            bad = True
        if not all(r["correct"] for r in a + b):
            print(f"{workload:14s} a run recorded an unexpected answer")
            bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
