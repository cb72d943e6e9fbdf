#!/usr/bin/env python3
"""Size a change with concurrent, CPU-pinned pairs of perfbench runs.

    perf_pairs.py PARENT_BIN CHANGE_BIN --workload NAME
                  [--seed N] [--seconds S] [--pairs K] [--cpus A,B]

PARENT_BIN and CHANGE_BIN are two builds of oenet_perfbench (for
example .bench_build/perfbench/oenet_perfbench in a checkout of each
commit, built by `python3 perfbench/run.py`). Each pair runs both
binaries at the same time, each pinned to its own CPU with taskset, and
swaps the CPUs from one pair to the next. Both sides of a pair
therefore see the same stretch of host noise, which on a shared host
drifts far more between sequential runs than within one pair.

For every pair the script prints the change/parent speedup of each
end-to-end timing metric (above 1 means the change is faster; the
lower-is-better metrics are inverted). It then prints, per metric, the
median pair ratio and the number of pairs the change won, and whether
every sweep point's RunMetrics fingerprint agrees between the two
binaries across all runs (a speedup that moves a fingerprint is a
behavior change, not a speedup).

Exit status: 0 if every fingerprint matched, 1 otherwise, 2 on usage or
run errors.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys

# metric -> True when higher is better
METRICS = {
    "sim_kcycles_per_s": True,
    "wall_s": False,
    "kcycle_ms_p50": False,
    "setup_s": False,
}


def fail(msg):
    print(f"perf_pairs: {msg}", file=sys.stderr)
    sys.exit(2)


def launch(binary, cpu, args):
    cmd = ["taskset", "-c", str(cpu), binary, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0"]
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)


def collect(proc, out, binary):
    if proc.returncode != 0:
        fail(f"{binary} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        fail(f"{binary} printed no report")
    return json.loads(lines[-1])


def fingerprints(report):
    """label -> set of fingerprints seen in one report."""
    seen = {}
    ref = report["reference"]
    seen.setdefault(ref["label"], set()).add(ref["fingerprint"])
    for unit in report["units"]:
        for p in unit["points"]:
            seen.setdefault(p["label"], set()).add(p["fingerprint"])
    return seen


def speedup(metric, parent, change):
    p = parent["metrics"][metric]["value"]
    c = change["metrics"][metric]["value"]
    if METRICS[metric]:
        return c / p
    return p / c


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--pairs", type=int, default=8)
    ap.add_argument("--cpus", default="0,1",
                    help="two CPU ids to pin the sides to (default 0,1)")
    args = ap.parse_args()

    cpus = args.cpus.split(",")
    if len(cpus) != 2 or cpus[0] == cpus[1]:
        fail("--cpus needs two distinct CPU ids")
    if shutil.which("taskset") is None:
        fail("taskset not found")
    if args.pairs < 1:
        fail("--pairs must be >= 1")

    ratios = {m: [] for m in METRICS}
    values = {"parent": [], "change": []}
    prints = {"parent": {}, "change": {}}
    for i in range(args.pairs):
        cpu_parent, cpu_change = (cpus if i % 2 == 0 else cpus[::-1])
        procs = {"parent": launch(args.parent, cpu_parent, args),
                 "change": launch(args.change, cpu_change, args)}
        # Let both runs finish before judging either, so a failure
        # never leaves the other binary running.
        outs = {side: proc.communicate()[0] for side, proc in procs.items()}
        reports = {side: collect(proc, outs[side], getattr(args, side))
                   for side, proc in procs.items()}
        for side, report in reports.items():
            values[side].append(report["metrics"]["sim_kcycles_per_s"]
                                ["value"])
            for label, fps in fingerprints(report).items():
                prints[side].setdefault(label, set()).update(fps)
        line = [f"pair {i + 1}: cpus parent={cpu_parent} "
                f"change={cpu_change}"]
        for m in METRICS:
            r = speedup(m, reports["parent"], reports["change"])
            ratios[m].append(r)
            line.append(f"{m} {r:.3f}")
        print("  ".join(line), flush=True)

    print(f"workload {args.workload} seed {args.seed}, {args.pairs} pairs "
          f"of {args.seconds:g} s; speedup = change over parent "
          f"(> 1: change faster)")
    for m in METRICS:
        rs = ratios[m]
        wins = sum(1 for r in rs if r > 1.0)
        print(f"{m}: median pair ratio {statistics.median(rs):.3f}, "
              f"range {min(rs):.3f}-{max(rs):.3f}, change won "
              f"{wins}/{len(rs)}")
    for side in ("parent", "change"):
        v = values[side]
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
        print(f"{side} sim_kcycles_per_s: median {statistics.median(v):.1f}"
              f", IQR {q[2] - q[0]:.1f}")

    labels = sorted(set(prints["parent"]) | set(prints["change"]))
    mismatched = [label for label in labels
                  if len(prints["parent"].get(label, set())) != 1
                  or prints["parent"].get(label) !=
                  prints["change"].get(label)]
    for label in mismatched:
        print(f"fingerprint MISMATCH {label}: parent "
              f"{sorted(prints['parent'].get(label, []))} change "
              f"{sorted(prints['change'].get(label, []))}")
    print(f"fingerprints: {'all match' if not mismatched else 'MISMATCH'}"
          f" ({len(labels)} points)")
    return 0 if not mismatched else 1


if __name__ == "__main__":
    sys.exit(main())
