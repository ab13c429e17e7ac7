#!/bin/sh
# Regenerate every paper table/figure. ~15-30 min on a laptop-class box.
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
# Threaded-dataplane gate: refreshes BENCH_dataplane.json and
# BENCH_latency.json (worker scaling, churn degradation, oracle
# checksums) — E18's harness; wall-clock gates this host cannot measure
# print UNMEASURED and are counted on its last line.
echo "=== bench_dataplane ==="
./target/release/bench_dataplane "$@" | tee results/bench_dataplane.txt
for exp in exp_partitioning exp_storage exp_fig3_sram exp_accesses \
           exp_fig4_mix exp_fig5_cache_size exp_fig6_scaling exp_headline \
           exp_length_partition exp_speed_cases exp_ablations exp_update_rate \
           exp_range_cache exp_worst_case exp_strides exp_growth exp_mixed_traces \
           exp_overload; do
  echo "=== $exp ==="
  ./target/release/$exp "$@" | tee results/$exp.txt
done
