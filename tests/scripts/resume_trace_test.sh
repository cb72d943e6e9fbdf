#!/bin/sh
# A --trace run resumed from a journal that already holds the traced
# point must still write the trace, byte-identical to an uninterrupted
# run's, and must not journal that point a second time.
#
# usage: resume_trace_test.sh BENCH_FIG7_SPLASH WORK_DIR
set -eu
bench=$1
work=$2
rm -rf "$work"
mkdir -p "$work/full" "$work/journaled" "$work/resumed"

(cd "$work/full" && "$bench" --smoke --jobs 1 --quiet --trace t.jsonl)
(cd "$work/journaled" && "$bench" --smoke --jobs 1 --quiet \
    --journal sweep.jsonl)

# Keep the header plus the fft record (point 0, the traced one).
head -n 1 "$work/journaled/sweep.jsonl" > "$work/resumed/sweep.jsonl"
grep '"index": 0, "label": "fft"' "$work/journaled/sweep.jsonl" \
    >> "$work/resumed/sweep.jsonl"

(cd "$work/resumed" && "$bench" --smoke --jobs 1 --quiet \
    --journal sweep.jsonl --resume --trace t.jsonl)

test -f "$work/resumed/t.jsonl" || {
    echo "resumed run wrote no trace" >&2
    exit 1
}
cmp "$work/full/t.jsonl" "$work/resumed/t.jsonl"
cmp "$work/full/fig7_manifest.json" "$work/resumed/fig7_manifest.json"
records=$(grep -c '"index": 0, "label": "fft"' "$work/resumed/sweep.jsonl")
test "$records" -eq 1 || {
    echo "fft journaled $records times" >&2
    exit 1
}
test "$(wc -l < "$work/resumed/sweep.jsonl")" -eq 4
echo "resumed trace byte-identical; traced point journaled once"
