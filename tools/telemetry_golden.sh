#!/usr/bin/env bash
# Writes every telemetry artifact that a telemetry refactor must keep
# byte-identical into OUTDIR, using the same commands as CI. Run it on
# two commits and compare the two directories with `diff -r`; any
# difference is a behaviour change.
#
# Usage: tools/telemetry_golden.sh OUTDIR
#
# Everything in the output is derived from the virtual clock, so two runs
# of one commit are byte-identical. Takes a few minutes in release mode.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 OUTDIR" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
out=$(cd "$1" && pwd)
cd "$root"

cargo build --release --quiet -p rc-bench -p rc-fuzz
bin="${CARGO_TARGET_DIR:-$root/target}/release"

# `experiments` writes EXPERIMENTS.md and target/experiments/ into its
# working directory, so each invocation gets its own.
mkdir -p "$out/profile" "$out/sample"
(cd "$out/profile" && "$bin/experiments" --scale 1 --profile --trace events.jsonl 2>/dev/null)
(cd "$out/sample" && "$bin/experiments" --scale 1 --sample 2>/dev/null)
# Relative paths keep the report header independent of OUTDIR; a gate
# failure is recorded rather than aborting the remaining artifacts.
cp baselines/BENCH_baseline.json "$out/BENCH_baseline.json"
(cd "$out" && "$bin/bench-diff" BENCH_baseline.json sample/target/experiments/BENCH_rc.json \
    >bench-diff.txt) || echo "bench-diff exited $?" >>"$out/bench-diff.txt"

for w in cfrac moss; do
    "$bin/trace-export" --workload "$w" --config qs --scale 1 \
        --out "$out/trace_${w}_qs.json" 2>/dev/null
    "$bin/rc-inspect" dump --workload "$w" --config qs --scale 1 \
        --out "$out/snap_${w}_qs.json" 2>/dev/null
done

for seed in 9 1732584193; do
    "$bin/trace-export" --parallel --workload moss --tasks 4 --det-seed "$seed" \
        --out "$out/trace_par_moss_s${seed}.json" 2>/dev/null
    "$bin/critpath" --workload moss --tasks 4 --det-seed "$seed" \
        --out "$out/critpath_moss_s${seed}.json" >/dev/null 2>&1
done

"$bin/fault-matrix" --scale 1 --out "$out/FAULTMATRIX_rc.json" >/dev/null 2>&1
"$bin/recovery-matrix" --scale 1 --out "$out/RECOVERYMATRIX_rc.json" >/dev/null 2>&1
"$bin/parallel-matrix" --scale 1 --out "$out/PARALLELMATRIX_rc.json" >/dev/null 2>&1

"$bin/rc-fuzz" --seeds 64 --json --no-write >"$out/FUZZ_rc.json" 2>/dev/null

echo "wrote $(find "$out" -type f | wc -l) files to $out"
