#!/usr/bin/env python3
"""Tolerance checker for bench_sim_microbench JSON output.

Two modes, combinable in one invocation:

  Baseline compare (positional args):
      perf_compare.py BASELINE.json NEW.json [--tolerance 0.25]
  Every benchmark present in both files must not be slower than
  baseline * (1 + tolerance). Benchmarks missing from either side are
  reported but not fatal (new benchmarks appear, old ones retire).
  Wall-clock baselines are machine-specific, so CI uses a loose
  tolerance as a catastrophic-regression net; use a tight one locally
  against a baseline recorded on the same machine.

  Ratio assertion (works on a single file, machine-independent):
      perf_compare.py --expect-ratio SLOW_NAME FAST_NAME MIN NEW.json
  Asserts time(SLOW_NAME) / time(FAST_NAME) >= MIN. Used to pin the
  idle-elision win: BM_SystemCycleIdleNoElision over BM_SystemCycleIdle
  must stay >= 3x. MIN may be below 1 to bound how much slower FAST_NAME
  may get.

A benchmark run with --benchmark_repetitions contributes the median of
its repetitions' raw runs (run it with
--benchmark_enable_random_interleaving=true so the two sides of a
ratio sample the same stretch of host noise).

Either mode refuses JSON recorded from a non-Release simulator build
(the oenet_build_type context stamped by bench_sim_microbench); pass
--allow-debug to downgrade the refusal to a warning. A debug build of
the google-benchmark *library* (library_build_type) only warns.

Exit status: 0 all checks pass, 1 a check failed, 2 usage/parse error.

Regenerate the committed baseline (from a Release build):
    build/bench/bench_sim_microbench --benchmark_format=json \
        --benchmark_out=BENCH_sim_microbench.json
"""

import argparse
import json
import statistics
import sys

UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def check_build_type(doc, path, allow_debug):
    """Reject (or warn about) timings from unoptimized builds.

    oenet_build_type is the simulator's own CMAKE_BUILD_TYPE, stamped
    by bench_sim_microbench's main; it is authoritative. The
    library_build_type field only describes how libbenchmark itself was
    compiled (distro packages are often 'debug'), so it merits a
    warning, not a refusal.
    """
    ctx = doc.get("context", {})
    own = ctx.get("oenet_build_type")
    if own is None:
        print(f"perf_compare: WARNING: {path} has no oenet_build_type "
              f"context (recorded before build-type stamping); cannot "
              f"verify it came from a Release build", file=sys.stderr)
    elif own.lower() != "release":
        msg = (f"{path} was recorded from a '{own}' build of the "
               f"simulator; perf numbers are only meaningful from "
               f"Release (-O2 -DNDEBUG)")
        if not allow_debug:
            sys.exit(f"perf_compare: {msg} (pass --allow-debug to "
                     f"override)")
        print(f"perf_compare: WARNING: {msg}", file=sys.stderr)
    if ctx.get("library_build_type", "").lower() == "debug":
        print(f"perf_compare: WARNING: {path} used a debug build of "
              f"the google-benchmark library; absolute times may be "
              f"inflated", file=sys.stderr)


def load(path, allow_debug=False):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"perf_compare: cannot read {path}: {e}")
    check_build_type(doc, path, allow_debug)
    runs = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue  # use the raw runs; aggregates double-report
        unit = UNIT_NS.get(b.get("time_unit", "ns"))
        if unit is None:
            sys.exit(f"perf_compare: unknown time unit in {path}: "
                     f"{b.get('time_unit')}")
        runs.setdefault(b["name"], []).append(b["real_time"] * unit)
    if not runs:
        sys.exit(f"perf_compare: no benchmarks in {path}")
    # --benchmark_repetitions writes one raw run per repetition.
    return {name: statistics.median(t) for name, t in runs.items()}


def fmt(ns):
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return f"{ns / scale:.3g} {unit}"
    return f"{ns:.3g} ns"


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("files", nargs="+",
                    help="BASELINE.json NEW.json, or just NEW.json "
                         "with --expect-ratio")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed slowdown fraction vs baseline "
                         "(default 0.25 = 25%%)")
    ap.add_argument("--expect-ratio", nargs=3, action="append",
                    metavar=("SLOW", "FAST", "MIN"), default=[],
                    help="assert time(SLOW)/time(FAST) >= MIN in the "
                         "last file")
    ap.add_argument("--allow-debug", action="store_true",
                    help="downgrade the non-Release build refusal to a "
                         "warning (local experiments only)")
    args = ap.parse_args()

    failed = False
    target = None

    if len(args.files) == 2:
        base = load(args.files[0], args.allow_debug)
        new = load(args.files[1], args.allow_debug)
        target = new
        shared = sorted(set(base) & set(new))
        if not shared:
            sys.exit("perf_compare: no common benchmarks to compare")
        print(f"{'benchmark':<36} {'baseline':>10} {'new':>10} "
              f"{'ratio':>7}")
        for name in shared:
            ratio = new[name] / base[name]
            verdict = "ok"
            if ratio > 1.0 + args.tolerance:
                verdict = "REGRESSION"
                failed = True
            print(f"{name:<36} {fmt(base[name]):>10} "
                  f"{fmt(new[name]):>10} {ratio:>6.2f}x  {verdict}")
        for name in sorted(set(base) - set(new)):
            print(f"{name:<36} (missing from new run)")
        for name in sorted(set(new) - set(base)):
            print(f"{name:<36} (new; no baseline)")
    elif len(args.files) == 1:
        if not args.expect_ratio:
            ap.error("one file given but no --expect-ratio check")
    else:
        ap.error("expected BASELINE.json NEW.json or a single file "
                 "with --expect-ratio")

    if target is None:
        target = load(args.files[-1], args.allow_debug)
    for slow, fast, min_ratio in args.expect_ratio:
        try:
            want = float(min_ratio)
        except ValueError:
            ap.error(f"--expect-ratio MIN must be a number, "
                     f"got '{min_ratio}'")
        for name in (slow, fast):
            if name not in target:
                sys.exit(f"perf_compare: benchmark '{name}' not in "
                         f"{args.files[-1]}")
        ratio = target[slow] / target[fast]
        ok = ratio >= want
        print(f"ratio {slow} / {fast} = {ratio:.2f}x "
              f"(need >= {want}x): {'ok' if ok else 'FAILED'}")
        failed |= not ok

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
