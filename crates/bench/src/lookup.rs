//! Trace-replay lookup harness: measure raw LPM throughput (host-side
//! lookups per wallclock second) for any engine, scalar vs batched,
//! across one or more worker threads.
//!
//! The harness shards one trace into contiguous per-thread slices
//! ([`Trace::shard_slices`]) and replays every shard through a shared
//! `dyn Lpm<A> + Sync`, at either address width, under
//! `std::thread::scope`. Each worker folds its results into a
//! [`ReplayChecksum`] — the sum survives into the return value, so the
//! optimizer cannot discard the lookups, and scalar/batch runs over the
//! same trace must produce the *same* checksum (spot-checking the batch
//! contract on real traffic every time the benchmark runs).
//!
//! The scalar and batch arms time what the dataplane runs — `lookup`
//! and `forward_batch`, next hops only. The cost-model columns
//! (`mean_accesses`, `mean_lines`) come from a third, *counted* arm
//! (`lookup_batch`), which is also timed so the gate can check that the
//! forwarding walk really sheds the bookkeeping.
//!
//! `bench_lookup` drives this module at both of its scales (the 600k
//! calibration sweep and, through [`crate::dfz`], the `--dfz` arms).

use crate::gate::Gates;
use spal_core::{ForwardingTable, LpmAlgorithm};
use spal_lpm::{CountedLookup, Lpm};
use spal_rib::bits::AddressBits;
use spal_rib::{synth, NextHop, RoutingTable};
use spal_traffic::{preset, LocalityModel, PresetName, Trace, TracePreset};
use std::sync::Arc;
use std::time::Instant;

/// Addresses per `forward_batch` call in batch mode: big enough to
/// amortize the per-chunk virtual dispatch, small enough that the out
/// buffer stays in L1.
pub const DEFAULT_BATCH: usize = 32;

/// Paired repetitions per measurement; see [`measure_speedup`].
pub const REPS: usize = 5;

/// How a replay drives the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayMode {
    /// One `lookup` virtual call per address — the pre-batch hot path,
    /// kept as the baseline.
    Scalar,
    /// `forward_batch` over contiguous chunks of `size` addresses — what
    /// the dataplane's `fe_flush` runs.
    Batch { size: usize },
    /// `lookup_batch` over the same chunks: the cost-model path, the
    /// only mode that fills the checksum's access and line sums.
    Counted { size: usize },
}

impl ReplayMode {
    /// Short label for reports ("scalar", "batch32", "counted32").
    pub fn label(self) -> String {
        match self {
            ReplayMode::Scalar => "scalar".into(),
            ReplayMode::Batch { size } => format!("batch{size}"),
            ReplayMode::Counted { size } => format!("counted{size}"),
        }
    }
}

/// Order-independent digest of a replay's results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayChecksum {
    /// Lookups performed.
    pub lookups: u64,
    /// Lookups that matched a route.
    pub hits: u64,
    /// Sum of matched next-hop values.
    pub next_hop_sum: u64,
    /// Sum of per-lookup memory-access counts ([`ReplayMode::Counted`]
    /// only; the forwarding modes leave it 0).
    pub mem_accesses: u64,
    /// Sum of per-lookup distinct-cache-line counts (likewise).
    pub lines_touched: u64,
}

impl ReplayChecksum {
    #[inline]
    fn record(&mut self, next_hop: Option<NextHop>) {
        self.lookups += 1;
        if let Some(nh) = next_hop {
            self.hits += 1;
            self.next_hop_sum += nh.0 as u64;
        }
    }

    #[inline]
    fn record_counted(&mut self, c: CountedLookup) {
        self.record(c.next_hop);
        self.mem_accesses += c.mem_accesses as u64;
        self.lines_touched += c.lines_touched as u64;
    }

    /// Whether `self` (a forwarding replay) found the next hops `counted`
    /// (a [`ReplayMode::Counted`] replay of the same trace) did.
    pub(crate) fn same_next_hops(&self, counted: &ReplayChecksum) -> bool {
        (self.lookups, self.hits, self.next_hop_sum)
            == (counted.lookups, counted.hits, counted.next_hop_sum)
    }

    fn merge(&mut self, other: ReplayChecksum) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.next_hop_sum += other.next_hop_sum;
        self.mem_accesses += other.mem_accesses;
        self.lines_touched += other.lines_touched;
    }
}

/// Replay `shards` (one worker thread per shard) once and return the
/// merged checksum plus wall seconds. Thread spawn/join is inside the
/// timed region for both modes, so it cancels out of ratios.
pub fn replay_once<A: AddressBits>(
    lpm: &(dyn Lpm<A> + Sync),
    shards: &[Trace<A>],
    mode: ReplayMode,
) -> (ReplayChecksum, f64) {
    let start = Instant::now();
    let partials: Vec<ReplayChecksum> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter()
            .map(|shard| scope.spawn(move || replay_shard(lpm, shard, mode)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay worker panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut total = ReplayChecksum::default();
    for p in partials {
        total.merge(p);
    }
    (total, wall)
}

fn replay_shard<A: AddressBits>(
    lpm: &(dyn Lpm<A> + Sync),
    shard: &Trace<A>,
    mode: ReplayMode,
) -> ReplayChecksum {
    let mut sum = ReplayChecksum::default();
    match mode {
        ReplayMode::Scalar => {
            for &addr in shard.destinations() {
                sum.record(lpm.lookup(addr));
            }
        }
        ReplayMode::Batch { size } => {
            let mut out = vec![None; size];
            for chunk in shard.batches(size) {
                lpm.forward_batch(chunk, &mut out[..chunk.len()]);
                for &nh in &out[..chunk.len()] {
                    sum.record(nh);
                }
            }
        }
        ReplayMode::Counted { size } => {
            let mut out = vec![CountedLookup::MISS; size];
            for chunk in shard.batches(size) {
                lpm.lookup_batch(chunk, &mut out[..chunk.len()]);
                for &c in &out[..chunk.len()] {
                    sum.record_counted(c);
                }
            }
        }
    }
    sum
}

/// One result row of the lookup benchmark.
#[derive(Debug, Clone)]
pub struct LookupRow {
    /// Engine name (`Lpm::name`).
    pub engine: String,
    /// Replay mode label ("scalar", "batch32").
    pub mode: String,
    /// Worker threads (= shards).
    pub threads: usize,
    /// Lookups per wallclock second.
    pub packets_per_sec: f64,
    /// Wall time of the best rep, in milliseconds.
    pub wall_ms: f64,
    /// Mean memory accesses per lookup (sanity link to the paper's §5.1
    /// numbers).
    pub mean_accesses: f64,
    /// Mean distinct 64-byte cache lines touched per lookup under the
    /// engine's modeled layout.
    pub mean_lines: f64,
    /// Bytes the engine occupies under the paper's storage models.
    pub storage_bytes: usize,
}

impl LookupRow {
    fn from_run<A: AddressBits>(
        lpm: &(dyn Lpm<A> + Sync),
        shards: &[Trace<A>],
        mode: ReplayMode,
        sum: ReplayChecksum,
        wall: f64,
    ) -> LookupRow {
        LookupRow {
            engine: lpm.name().to_string(),
            mode: mode.label(),
            threads: shards.len(),
            packets_per_sec: sum.lookups as f64 / wall,
            wall_ms: wall * 1e3,
            mean_accesses: sum.mem_accesses as f64 / sum.lookups.max(1) as f64,
            mean_lines: sum.lines_touched as f64 / sum.lookups.max(1) as f64,
            storage_bytes: lpm.storage_bytes(),
        }
    }

    /// The row as one line of `BENCH_lookup.json` / `BENCH_dfz.json`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"benchmark\": \"lookup_replay\", \"engine\": \"{}\", \"mode\": \"{}\", \
             \"threads\": {}, \"packets_per_sec\": {:.1}, \"wall_ms\": {:.3}, \
             \"mean_accesses\": {:.3}, \"mean_lines\": {:.3}, \"storage_bytes\": {}}}",
            self.engine,
            self.mode,
            self.threads,
            self.packets_per_sec,
            self.wall_ms,
            self.mean_accesses,
            self.mean_lines,
            self.storage_bytes
        )
    }
}

/// One engine's paired measurement; see [`measure_speedup`].
pub struct Speedup {
    /// `lookup` per address (minimum-wall rep).
    pub scalar: LookupRow,
    /// `forward_batch` in chunks (minimum-wall rep).
    pub batch: LookupRow,
    /// `lookup_batch` in the same chunks (minimum-wall rep).
    pub counted: LookupRow,
    /// Best per-rep `forward_batch` / `lookup` throughput ratio.
    pub batch_vs_scalar: f64,
    /// Best per-rep `forward_batch` / `lookup_batch` throughput ratio:
    /// what the cost model's bookkeeping would cost the forwarding path.
    pub forward_vs_counted: f64,
}

/// Paired measurement for one engine: each of [`REPS`] reps runs the
/// scalar replay, the forwarding batch replay and the counted batch
/// replay back to back, and each speedup is the best of the per-rep
/// ratios.
///
/// Measuring the modes as separate best-of blocks lets machine-speed
/// drift (frequency scaling, neighbors on a shared box) land
/// asymmetrically on one block and swing the ratio by ±30% run to run;
/// a back-to-back pair sees nearly the same machine on both sides, and
/// the cleanest pair — like the minimum-wall rep of a single-mode
/// measurement — is the one least perturbed by interference. A genuine
/// batch-path regression depresses every pair, so a floor on this ratio
/// still catches it.
///
/// Every row carries the cost-model means of the counted replay — the
/// engine and the trace are the same, only the timed call differs.
/// Scalar and batch checksums are asserted equal on every rep, and both
/// to the counted replay's next hops.
pub fn measure_speedup<A: AddressBits>(
    lpm: &(dyn Lpm<A> + Sync),
    shards: &[Trace<A>],
    size: usize,
) -> Speedup {
    let modes = [
        ReplayMode::Scalar,
        ReplayMode::Batch { size },
        ReplayMode::Counted { size },
    ];
    let mut best = [f64::INFINITY; 3];
    let mut counts = ReplayChecksum::default();
    let (mut batch_vs_scalar, mut forward_vs_counted) = (0.0f64, 0.0f64);
    for _ in 0..REPS {
        let [(s_sum, s_wall), (b_sum, b_wall), (c_sum, c_wall)] =
            modes.map(|mode| replay_once(lpm, shards, mode));
        assert_eq!(s_sum, b_sum, "batch replay diverged from scalar");
        assert!(
            b_sum.same_next_hops(&c_sum),
            "forward_batch diverged from lookup_batch"
        );
        batch_vs_scalar = batch_vs_scalar.max(s_wall / b_wall);
        forward_vs_counted = forward_vs_counted.max(c_wall / b_wall);
        for (slot, wall) in best.iter_mut().zip([s_wall, b_wall, c_wall]) {
            *slot = slot.min(wall);
        }
        counts = c_sum;
    }
    let [scalar, batch, counted] =
        [0, 1, 2].map(|i| LookupRow::from_run(lpm, shards, modes[i], counts, best[i]));
    Speedup {
        scalar,
        batch,
        counted,
        batch_vs_scalar,
        forward_vs_counted,
    }
}

/// Per-engine floor on the batch/scalar throughput ratio, enforced at
/// one thread. The flat-array engines must show a real win; the
/// pointer-chasing DP trie must merely not regress.
pub fn batch_speedup_floor(engine: &str) -> Option<f64> {
    match engine {
        "DIR-24-8" | "Lulea" => Some(1.5),
        // The cache-line-packed engines already touch so few lines per
        // lookup that the interleave has less latency to hide; they must
        // merely not regress.
        "DP" | "Poptrie" => Some(1.0),
        _ => None,
    }
}

/// Per-engine floor on the `forward_batch` / `lookup_batch` throughput
/// ratio, enforced at one thread: cheap insurance that the forwarding
/// tally really compiles away. Never slower anywhere; clearly faster on
/// the engines whose counted walk keeps a wide group of line sets
/// (Poptrie's 16 lanes, SHIP's three arenas per node). DIR-24-8's
/// counted walk keeps no line set at all — two increments — so its two
/// arms are the same loads and the ratio is noise around 1.0 (best pair
/// 1.08–1.21 over five runs): its floor is 0.9, which still trips if
/// the forwarding arm ever grows bookkeeping of its own.
pub fn forward_speedup_floor(engine: &str) -> f64 {
    match engine {
        "Poptrie" | "SHIP" => 1.2,
        "DIR-24-8" => 0.9,
        _ => 1.0,
    }
}

/// Default table size for [`stress_workload`]. Sized so the compressed
/// engines' structures decisively exceed a server-class L2 (a couple of
/// MB): on a table that fits L2, scalar replay runs cache-hot and the
/// ratio measures instruction overlap alone, under-reporting the
/// prefetch win the gate floors were calibrated against. Kept below the
/// point where DIR-24-8's 15-bit segment space overflows (backbone
/// length mixes exhaust it somewhere above a million routes).
pub const STRESS_PREFIXES: usize = 600_000;

/// The raw-throughput stress workload: a backbone-sized table and a
/// near-uniform destination stream over a pool wider than the table.
/// Cache-friendly Zipf traffic would measure the host cache, not the
/// engines — uniform random keeps the flat-array engines' reads missing
/// cache, which is exactly the latency the batch interleave hides.
pub fn stress_workload(prefixes: usize, packets: usize, seed: u64) -> (RoutingTable, Trace) {
    let table = synth::synthesize(&synth::SynthConfig::sized(prefixes, 0xB0B));
    let trace = stress_trace(&table, packets, seed);
    (table, trace)
}

/// [`stress_workload`]'s destination stream over any IPv4 table (the
/// DFZ arm replays it too): Zipf α 0.05 over a flow pool twice the
/// table's size.
pub fn stress_trace(table: &RoutingTable, packets: usize, seed: u64) -> Trace {
    TracePreset {
        distinct: 2 * table.len(),
        model: LocalityModel::Zipf { alpha: 0.05 },
        ..preset(PresetName::D75)
    }
    .generate(table, packets, seed)
}

/// The dataplane-runtime workload: the same backbone-sized synthetic
/// table as [`stress_workload`], but a destination stream with
/// router-realistic locality — the paper's `B_L` preset (32k-flow pool,
/// Zipf α 1.12, 35% packet trains), its *least* cacheable trace.
///
/// [`stress_workload`]'s near-uniform stream (α 0.05 over a pool wider
/// than the table) is deliberately cache-adversarial: against a
/// 4096-block LR-cache it probes at a ~0.003 hit rate, so a dataplane
/// run over it measures only the miss path. That is the right stream
/// for raw LPM engines — and the wrong one for the SPAL runtime, whose
/// entire design (paper §2) banks on the flow locality refs [5, 6]
/// measured on real links.
pub fn dataplane_workload(prefixes: usize, packets: usize, seed: u64) -> (RoutingTable, Trace) {
    let table = synth::synthesize(&synth::SynthConfig::sized(prefixes, 0xB0B));
    let trace = preset(PresetName::BL).generate(&table, packets, seed);
    (table, trace)
}

/// Measure scalar vs batch vs counted for every engine at `threads`
/// workers, printing one line per engine and grading its floors into
/// `gates`.
pub fn run_gate(
    engines: &[Arc<dyn Lpm + Send + Sync>],
    trace: &Trace,
    threads: usize,
    gates: &mut Gates,
) -> Vec<LookupRow> {
    let shards = trace.shard_slices(threads);
    let mut rows = Vec::new();
    for engine in engines {
        let m = measure_speedup(engine.as_ref(), &shards, DEFAULT_BATCH);
        print_speedup(&m, threads);
        grade_speedup(&m, threads, gates);
        rows.extend([m.scalar, m.batch, m.counted]);
    }
    rows
}

/// Grade one engine's two ratio floors — at one thread only, where
/// each ratio is a pure comparison of two code paths.
pub fn grade_speedup(m: &Speedup, threads: usize, gates: &mut Gates) {
    if threads != 1 {
        return;
    }
    let name = &m.scalar.engine;
    if let Some(floor) = batch_speedup_floor(name) {
        gates.floor(&format!("{name} batch/scalar"), m.batch_vs_scalar, floor, 1);
    }
    gates.floor(
        &format!("{name} forward/counted"),
        m.forward_vs_counted,
        forward_speedup_floor(name),
        1,
    );
}

/// One engine's line of a replay sweep.
pub fn print_speedup(m: &Speedup, threads: usize) {
    println!(
        "  {:9} t={threads} scalar {:>11.0} pps | batch {:>11.0} pps | {:.2}x | \
         counted {:>11.0} pps | fwd {:.2}x ({:.2} acc, {:.2} lines/lookup, {} B)",
        m.scalar.engine,
        m.scalar.packets_per_sec,
        m.batch.packets_per_sec,
        m.batch_vs_scalar,
        m.counted.packets_per_sec,
        m.forward_vs_counted,
        m.scalar.mean_accesses,
        m.scalar.mean_lines,
        m.scalar.storage_bytes,
    );
}

/// All engines the full `bench_lookup` sweep runs: the seven IPv4
/// forwarding-table algorithms.
pub fn all_engines(table: &RoutingTable) -> Vec<Arc<dyn Lpm + Send + Sync>> {
    [
        LpmAlgorithm::Dir24,
        LpmAlgorithm::Lulea,
        LpmAlgorithm::Lc,
        LpmAlgorithm::Dp,
        LpmAlgorithm::Binary,
        LpmAlgorithm::Poptrie,
        LpmAlgorithm::Multibit,
    ]
    .into_iter()
    .map(|a| Arc::new(ForwardingTable::build(a, table)) as _)
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::write_array;
    use spal_lpm::dir24::Dir24_8;
    use spal_rib::synth;
    use spal_traffic::{preset, PresetName, TracePreset};

    #[test]
    fn scalar_and_batch_checksums_agree() {
        let rt = synth::small(5);
        let d = Dir24_8::build(&rt);
        let p = TracePreset {
            distinct: 400,
            ..preset(PresetName::D75)
        };
        let trace = p.generate(&rt, 5_000, 9);
        for threads in [1, 3] {
            let shards = trace.shard_slices(threads);
            let (scalar, _) = replay_once(&d, &shards, ReplayMode::Scalar);
            let (batch, _) = replay_once(&d, &shards, ReplayMode::Batch { size: 32 });
            let (counted, _) = replay_once(&d, &shards, ReplayMode::Counted { size: 32 });
            assert_eq!(scalar, batch);
            assert!(batch.same_next_hops(&counted));
            assert_eq!(scalar.lookups, 5_000);
            assert!(scalar.hits > 0);
            assert_eq!(scalar.mem_accesses, 0);
            assert!(counted.mem_accesses >= 5_000 && counted.lines_touched >= 5_000);
        }
    }

    /// The array framing is what `write_rows(path, rows, false)` wrote
    /// before the writers were folded into [`write_array`]: the bytes
    /// below are that function's output for this row.
    #[test]
    fn rows_render_through_the_one_array_writer() {
        let row = |e: &str| LookupRow {
            engine: e.into(),
            mode: "scalar".into(),
            threads: 1,
            packets_per_sec: 1.0,
            wall_ms: 2.0,
            mean_accesses: 3.0,
            mean_lines: 2.5,
            storage_bytes: 1024,
        };
        let dir = std::env::temp_dir().join("spal_lookup_rows_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rows.json");
        let path = path.to_str().unwrap();
        let json = |e| {
            format!(
                "{{\"benchmark\": \"lookup_replay\", \"engine\": \"{e}\", \"mode\": \"scalar\", \
                 \"threads\": 1, \"packets_per_sec\": 1.0, \"wall_ms\": 2.000, \
                 \"mean_accesses\": 3.000, \"mean_lines\": 2.500, \"storage_bytes\": 1024}}"
            )
        };
        write_array(path, &[row("A").to_json(), row("B").to_json()]).unwrap();
        assert_eq!(
            std::fs::read_to_string(path).unwrap(),
            format!("[\n  {},\n  {}\n]\n", json("A"), json("B"))
        );
        // A second write replaces the file.
        write_array(path, &[row("C").to_json()]).unwrap();
        assert_eq!(
            std::fs::read_to_string(path).unwrap(),
            format!("[\n  {}\n]\n", json("C"))
        );
    }

    #[test]
    fn floors_cover_the_gated_engines() {
        assert_eq!(batch_speedup_floor("DIR-24-8"), Some(1.5));
        assert_eq!(batch_speedup_floor("Lulea"), Some(1.5));
        assert_eq!(batch_speedup_floor("DP"), Some(1.0));
        assert_eq!(batch_speedup_floor("Poptrie"), Some(1.0));
        assert_eq!(batch_speedup_floor("Binary"), None);
        assert_eq!(forward_speedup_floor("Poptrie"), 1.2);
        assert_eq!(forward_speedup_floor("SHIP"), 1.2);
        assert_eq!(forward_speedup_floor("DIR-24-8"), 0.9);
        assert_eq!(forward_speedup_floor("Lulea"), 1.0);
    }
}
