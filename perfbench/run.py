#!/usr/bin/env python3
"""oenet's benchmark: build oenet_perfbench, run one workload, check it, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark binary (perfbench/oenet_perfbench.cc) is built
in Release from the repository's sources into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). It repeats the workload's sweep points
for S seconds and reports every point's RunMetrics fingerprint; this
script counts a point as failed when its run failed, it did not drain,
or its fingerprint differs from the others of the same point, or (for
the reference point) from a plain runExperiment/runTimeline call. The
check is identity, not accuracy: the model has no held-out reference
data.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import collections
import hashlib
import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RUN_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(d):
        d = os.path.join(ROOT, d)
    return os.path.join(d, "perfbench")


def build():
    """Configure (once) and build oenet_perfbench; return its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: no simulator sources next to perfbench/ "
                 "(expected CMakeLists.txt and src/ in the repository "
                 "root)")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DOENET_PERF_ENFORCE_RELEASE=ON"])
    steps.append(["cmake", "--build", out, "--target", "oenet_perfbench",
                  "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return os.path.join(out, "oenet_perfbench")


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def account(report):
    """Count attempted and failed points; return (attempted, problems).

    Every execution of a point is one attempt, the reference run
    included. A point fails on status=failed, on a run that did not
    drain (a hard-kill point instead must not drain, must report the one
    dead link and must still deliver), or on a fingerprint mismatch.
    The expected fingerprint of the reference point is the reference
    run's; for every other point it is the most common one among its
    executions, so a single odd execution is the one counted.
    """
    ref = report["reference"]
    runs = [(u["kind"], p) for u in report["units"] for p in u["points"]]
    seen = collections.defaultdict(collections.Counter)
    for _, p in runs:
        seen[p["label"]][p["fingerprint"]] += 1
    expected = {label: c.most_common(1)[0][0] for label, c in seen.items()}
    expected[ref["label"]] = ref["fingerprint"]

    problems = []
    for kind, p in [("reference", ref)] + runs:
        why = []
        if not p["ok"]:
            why.append("status=failed")
        if p["expect_drained"] and not p["drained"]:
            why.append("not drained")
        if not p["expect_drained"]:
            # A hard link kill must lose the packets it strands, and
            # west-first routing must keep delivering around it.
            if p["drained"]:
                why.append("drained although a link was killed")
            if p["hard_failures"] != 1 or not p["goodput"] > 0:
                why.append(f"hard_failures={p['hard_failures']} "
                           f"goodput={p['goodput']}")
        if p["fingerprint"] != expected[p["label"]]:
            why.append(f"fingerprint {p['fingerprint']} != "
                       f"{expected[p['label']]}")
        if why:
            problems.append(f"{kind} {p['label']}: {', '.join(why)}")
    return len(runs) + 1, problems


def check_metrics(report, trace):
    """oenet_perfbench must emit exactly the declared metrics, units and all."""
    spec = benchmark_spec()["per_layer" if trace else "end_to_end"]
    declared = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in report["metrics"].items()}
    bad = [n for n in got if not NAME_RE.match(n)]
    if bad or got != declared:
        sys.exit(f"perfbench: oenet_perfbench metrics {sorted(got.items())} do not "
                 f"match BENCHMARK.json {sorted(declared.items())}")


def source_rev():
    """git revision when available, else a digest of the sources."""
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in benchmark_spec()["workloads"]])
    ap.add_argument("--seed", type=int, default=1,
                    help="workload seed (default 1; 7919 is held out)")
    ap.add_argument("--seconds", type=float,
                    default=benchmark_spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    started = time.monotonic()
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: oenet_perfbench exceeded {RUN_TIMEOUT_S} s")
    if r.returncode != 0:
        sys.exit(f"perfbench: oenet_perfbench exited with {r.returncode}")
    lines = r.stdout.strip().splitlines()
    if not lines:
        sys.exit("perfbench: oenet_perfbench printed no report")
    report = json.loads(lines[-1])
    check_metrics(report, args.trace)

    attempted, problems = account(report)
    failed = len(problems)
    stamp = {"workload": args.workload, "seed": args.seed,
             "trace": args.trace, "build_type": report["build_type"],
             "compiler": report["compiler"], "nproc": report["nproc"],
             "jobs": report["jobs"], "rev": source_rev(),
             "bench_s": round(time.monotonic() - started, 3)}
    print("stamp " + json.dumps(stamp, sort_keys=True))
    ref = report["reference"]
    print(f"reference {ref['label']}: fingerprint {ref['fingerprint']} "
          f"avg_latency {ref['avg_latency']:.6g} cycles, "
          f"normalized_power {ref['normalized_power']:.6g}")
    for p in report["units"][0]["points"]:
        print(f"point {p['label']}: fingerprint {p['fingerprint']} "
              f"avg_latency {p['avg_latency']:.6g} cycles, "
              f"normalized_power {p['normalized_power']:.6g}")
    for kind in sorted({u["kind"] for u in report["units"]}):
        walls = [u["wall_s"] for u in report["units"] if u["kind"] == kind]
        print(f"units {kind} {len(walls)}: wall_s "
              + " ".join(f"{w:.4g}" for w in walls))
    for line in problems:
        print("FAILED " + line)
    # "printed" metrics are shown but not part of the result's metrics.
    for name, m in {**report["metrics"], **report["printed"]}.items():
        note = f"  ({m['note']})" if "note" in m else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{note}")
    print(f"failed_frac = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} point runs)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in report["metrics"].items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
