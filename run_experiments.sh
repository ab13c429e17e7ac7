#!/bin/sh
# Regenerate every paper table/figure: results/exp_<name>.txt and
# results/csv/*.csv are written here and nowhere else. Measured on the
# 2-core reference host: the experiments loop takes 90 s at the full
# tier (35 s with --quick), the two gates before it about 10 s.
set -e
cd "$(dirname "$0")"
cargo build --release -p spal-bench
# Every binary below takes the same flags ("$@": --quick, --packets N,
# --seed N, --rt1) and rejects any other; the two gates accept --rt1 and
# ignore it (they synthesize their own tables).
# Simulator-engine regression gate (that is all bench_gate runs):
# refreshes BENCH_sim.json at the repo root and fails the whole run if
# the fast-forward engine's speedup contract is broken, so perf is
# tracked alongside the science.
echo "=== bench_gate ==="
./target/release/bench_gate "$@" | tee results/bench_gate.txt
# Threaded-dataplane gate: refreshes BENCH_dataplane.json (worker
# scaling, churn degradation, oracle checksums; each row nests its run's
# full report, per-path latency included) — E18's harness; wall-clock
# gates this host cannot measure print UNMEASURED and are counted on its
# last line.
echo "=== bench_dataplane ==="
./target/release/bench_dataplane "$@" | tee results/bench_dataplane.txt
# The experiments, in the registry's order (`exp list` is the one list).
for name in $(./target/release/exp list); do
  echo "=== exp_$name ==="
  ./target/release/exp "$name" "$@" | tee "results/exp_$name.txt"
done
# E7b: Fig. 6 over the RT_1 stand-in (its CSV is fig6_scaling_rt1.csv).
echo "=== exp_fig6_scaling --rt1 ==="
./target/release/exp fig6_scaling --rt1 "$@" | tee results/exp_fig6_scaling_rt1.txt
