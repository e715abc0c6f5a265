#!/usr/bin/env bash
# Writes every deterministic artifact the repository gates on into
# OUTDIR: the experiments tables and telemetry, the bench trajectory and
# its bench-diff report, provenance and parallel traces, critical paths,
# heap snapshots and their diffs, the fault/recovery/parallel matrices,
# the ablations' text profiles and the fuzz report. Every generator that
# gates (the matrices, critpath, rc-fuzz, the recovery snapshot pair)
# exits nonzero on a violation, which stops the script with the
# violations printed above.
#
# Usage: tools/golden.sh OUTDIR
#
# Everything in the output is derived from the virtual clock, so two runs
# of one commit are byte-identical: CI runs the script twice and compares
# the directories with `diff -r`, and running it on two commits shows any
# behaviour change. Command output goes to the terminal, not OUTDIR,
# because it names absolute paths.
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
(cd "$out/profile" && "$bin/experiments" --scale 1 --profile --trace events.jsonl)
(cd "$out/sample" && "$bin/experiments" --scale 1 --sample)
# Relative paths keep the report header independent of OUTDIR; a gate
# failure is recorded rather than aborting the remaining artifacts.
cp baselines/BENCH_baseline.json "$out/BENCH_baseline.json"
(cd "$out" && "$bin/bench-diff" BENCH_baseline.json sample/target/experiments/BENCH_rc.json \
    >bench-diff.txt) || echo "bench-diff exited $?" >>"$out/bench-diff.txt"

for w in cfrac moss; do
    "$bin/trace-export" --workload "$w" --config qs --scale 1 --out "$out/trace_${w}_qs.json"
    "$bin/rc-inspect" dump --workload "$w" --config qs --scale 1 --out "$out/snap_${w}_qs.json"
done

# The gc-vs-lea retention gap on cfrac, attributed to regions and sites.
for c in gc lea; do
    "$bin/rc-inspect" dump --workload cfrac --config "$c" --scale 1 \
        --out "$out/snap_cfrac_${c}.json"
done
(cd "$out" && "$bin/rc-inspect" diff snap_cfrac_lea.json snap_cfrac_gc.json >snap_cfrac_diff.txt)

for seed in 9 1732584193; do
    "$bin/trace-export" --parallel --workload moss --tasks 4 --det-seed "$seed" \
        --out "$out/trace_par_moss_s${seed}.json"
    "$bin/critpath" --workload moss --tasks 4 --det-seed "$seed" \
        --out "$out/critpath_moss_s${seed}.json"
done

"$bin/fault-matrix" --scale 1 --out "$out/FAULTMATRIX_rc.json"
"$bin/recovery-matrix" --scale 1 --out "$out/RECOVERYMATRIX_rc.json"
"$bin/parallel-matrix" --scale 1 --out "$out/PARALLELMATRIX_rc.json"

# One budget-squeeze recovery: the trap snapshot, the recovered retry's
# exit snapshot, and the space gap between them.
(cd "$out" && "$bin/recovery-matrix" --scale 1 --dump-pair . \
    && "$bin/rc-inspect" diff recovery_trap.json recovery_exit.json >recovery_diff.txt)

"$bin/ablations" --scale 1 --profile >"$out/ablations_profile.txt"
"$bin/rc-fuzz" --seeds 64 --json --no-write >"$out/FUZZ_rc.json"

echo "wrote $(find "$out" -type f | wc -l) files to $out"
