//! One workload, start to finish: generate the inputs from the seed,
//! check a warm-up rep against the oracle, time the reps with spans
//! off, and — on a traced run — replay the layers afterwards.

use crate::host;
use crate::metrics::Values;
use crate::oracle::{fingerprint, Oracle};
use crate::replay::{ControlPlane, ControlV4, Outcome as Replay, Replayer, Tracer};
use crate::stats::{self, Span};
use crate::sut::{
    self, epoch_table, DataplaneReport, Family, LrCacheConfig, RunConfig, BATCH, RING_CAPACITY, V4,
    V6,
};
use crate::workload::{Spec, CACHE_BLOCKS};
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// Measure for at least this long (timed reps, spans off).
    pub seconds: u64,
    pub trace: bool,
    pub quick: bool,
    /// Self-test hook: run against a deliberately wrong oracle.
    pub break_oracle: bool,
}

/// Timed reps per run: never fewer, more if they end before `seconds`.
const MIN_REPS: usize = 5;
/// A rep shorter than this is too short for this host's noise (issue:
/// 0.56 s reps spread 12 %, 2.4 s reps 7 %). A faster dataplane must
/// not break the benchmark it cannot edit, so this warns, not asserts.
const MIN_REP_S: f64 = 2.0;
/// Times the inputs are generated per run; `setup_s` takes the median.
const SETUP_SAMPLES: usize = 3;
/// Share of each trace the untimed warm-up rep runs.
const WARMUP_SHARE: usize = 8;
/// Rounds the spans-off and the spans-on replay advance per turn (a few
/// ms of work).
const REPLAY_TURN: usize = 1024;
/// Above this rep-to-rep spread of `throughput_mpps` a warning is
/// printed.
const NOISY_IQR_SHARE: f64 = 0.10;

/// What one timed rep measured.
struct Rep {
    elapsed_s: f64,
    /// Wall of `run()` outside `report.elapsed`: partitioning, engine
    /// builds, update-stream generation, teardown.
    run_setup_s: f64,
    cpu_ns_per_packet: f64,
    report: DataplaneReport,
}

impl Rep {
    fn packets(&self) -> f64 {
        self.report.total_packets() as f64
    }

    fn throughput_mpps(&self) -> f64 {
        self.packets() / self.elapsed_s / 1e6
    }
}

pub struct Outcome {
    pub spec: Spec,
    pub options: Options,
    /// `false`: the host cannot run this workload; nothing was timed.
    pub measured: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every way the run disagreed with the oracle or with itself.
    pub failures: Vec<String>,
    pub warnings: Vec<String>,
    pub values: Values,
    /// Per-rep raw values beside the medians.
    pub raw: Vec<(&'static str, Vec<f64>)>,
    pub oracle_checksum: u64,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.measured && self.failed == 0 && self.failures.is_empty()
    }
}

pub fn run_workload(options: &Options) -> Result<Outcome, String> {
    let spec = crate::workload::find(&options.workload)
        .ok_or_else(|| format!("unknown workload {:?}", options.workload))?;
    let spec = if options.quick { spec.quick() } else { spec };
    if spec.threads() > host::nproc() {
        return Ok(Outcome {
            warnings: vec![format!(
                "{} needs {} busy threads and this host has {} cores: not measured \
                 (time-slicing would measure the scheduler)",
                spec.name,
                spec.threads(),
                host::nproc()
            )],
            spec,
            options: options.clone(),
            measured: false,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            values: Values::default(),
            raw: Vec::new(),
            oracle_checksum: 0,
        });
    }
    Ok(if spec.v6 {
        drive::<V6>(spec, options, |_, _, _| None)
    } else {
        drive::<V4>(spec, options, control_v4)
    })
}

/// Builds the control plane a workload with churn is replayed with
/// (`None` without churn); generating its update stream is the cost
/// `rib.update_stream_s` reports.
type MakeControl<F> = fn(&Spec, &<F as Family>::Table, u64) -> Option<Box<dyn ControlPlane<F>>>;

fn control_v4(
    spec: &Spec,
    table: &sut::RoutingTable,
    seed: u64,
) -> Option<Box<dyn ControlPlane<V4>>> {
    let churn = spec.churn.as_ref()?;
    Some(Box::new(ControlV4::new(
        sut::churn_updates(table, churn, seed),
        churn.updates_per_publication,
        spec.engine,
    )))
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

fn median(values: &[f64]) -> f64 {
    stats::median(values).expect("at least one sample")
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Packets offered and packets failed, over the warm-up and every rep.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    checksum_diverged: bool,
}

impl Tally {
    /// Hold one `run()` against what it was offered: every packet
    /// completed, none lost or dropped, no spot-check or final-table
    /// mismatch, and — where the table was static — the oracle's
    /// checksum.
    fn check(&mut self, report: &DataplaneReport, offered: u64, expect: Option<u64>, rep: &str) {
        self.attempted += offered;
        let completed = report.total_packets();
        let dropped: u64 = report
            .workers
            .iter()
            .map(|w| w.lost_packets + w.ingress_dropped)
            .sum();
        let mut bad = report.oracle_divergence() + dropped;
        if completed + dropped != offered {
            bad += offered.abs_diff(completed + dropped);
            self.failures.push(format!(
                "{rep}: offered {offered} packets, completed {completed}"
            ));
        }
        if report.oracle_divergence() > 0 {
            self.failures.push(format!(
                "{rep}: {} spot-check or final-table mismatches",
                report.oracle_divergence()
            ));
        }
        if let Some(sum) = expect.filter(|&sum| sum != report.checksum()) {
            // No packet of a rep whose checksum diverged can be trusted.
            bad = offered;
            self.checksum_diverged = true;
            self.failures.push(format!(
                "{rep}: checksum {:#x} differs from the oracle's {sum:#x}",
                report.checksum()
            ));
        }
        self.failed += bad.min(offered);
    }
}

/// The inputs of a run and the benchmark's own copy of what `run`
/// builds per call from them: partitioning and per-LC RIB fragments.
struct Prepared<'a, F: Family> {
    spec: &'a Spec,
    seed: u64,
    table: &'a F::Table,
    part: F::Part,
    fragments: Vec<F::Table>,
    /// One destination stream per worker.
    streams: Vec<&'a [F::Addr]>,
    packets: u64,
}

impl<F: Family> Prepared<'_, F> {
    fn build_engines(&self) -> Vec<F::Engine> {
        self.fragments
            .iter()
            .map(|f| F::build(self.spec.engine, f))
            .collect()
    }
}

/// Table and trace from the seed alone, generated `samples` times: the
/// timings feed `setup_s`, and equal seeds must give equal inputs.
/// Returns the last copy and the per-sample `(synth_s, gen_s)`.
fn generate_inputs<F: Family>(
    spec: &Spec,
    seed: u64,
    samples: usize,
    tally: &mut Tally,
) -> (F::Table, F::Trace, Vec<f64>, Vec<f64>) {
    let (mut synth_s, mut gen_s) = (Vec::new(), Vec::new());
    let mut inputs: Option<(F::Table, F::Trace)> = None;
    let mut first_print = None;
    for _ in 0..samples {
        // The earlier copy goes before the next is generated, so peak
        // memory holds one trace, not two.
        drop(inputs.take());
        let (table, s) = timed(|| F::synthesize(spec.routes, seed));
        synth_s.push(s);
        let (trace, s) = timed(|| F::generate(spec.stream, &table, spec.packets, seed));
        gen_s.push(s);
        let print = fingerprint(F::dests(&trace));
        if *first_print.get_or_insert(print) != print {
            tally
                .failures
                .push(format!("seed {seed} generated two different traces"));
        }
        inputs = Some((table, trace));
    }
    let (table, trace) = inputs.expect("at least one set-up sample");
    (table, trace, synth_s, gen_s)
}

fn drive<F: Family>(spec: Spec, options: &Options, make_control: MakeControl<F>) -> Outcome {
    let seed = options.seed;
    let mut tally = Tally::default();
    let mut warnings = Vec::new();
    let mut values = Values::default();

    // `setup_s` is an end-to-end metric; a traced run states no such.
    let samples = if options.quick || options.trace {
        1
    } else {
        SETUP_SAMPLES
    };
    let (table, trace, synth_s, gen_s) = generate_inputs::<F>(&spec, seed, samples, &mut tally);
    let traces = if spec.workers == 1 {
        vec![trace]
    } else {
        let split = F::split(&trace, spec.workers);
        drop(trace);
        split
    };
    let streams: Vec<&[F::Addr]> = traces.iter().map(|t| F::dests(t)).collect();
    let warm: Vec<F::Trace> = streams
        .iter()
        .map(|s| F::trace_of(s[..(s.len() / WARMUP_SHARE).max(1)].to_vec()))
        .collect();
    let warm_streams: Vec<&[F::Addr]> = warm.iter().map(|t| F::dests(t)).collect();

    // The benchmark's own partitioning and engines give the storage
    // metric, the set-up attribution, the engines the replay drives,
    // and the suspects when a checksum diverges.
    let ((part, fragments), partition_s) = timed(|| {
        let part = F::partition(&table, spec.workers);
        let fragments = F::fragments(&part, &table);
        (part, fragments)
    });
    let prepared = Prepared::<F> {
        spec: &spec,
        seed,
        table: &table,
        part,
        fragments,
        packets: streams.iter().map(|s| s.len() as u64).sum(),
        streams,
    };
    let (engines, build_s) = timed(|| prepared.build_engines());
    let storage_bytes: usize = engines.iter().map(F::storage_bytes).sum();

    let mut oracle = Oracle::<F>::new(&table);
    if options.break_oracle {
        oracle.break_on(prepared.streams[0][0]);
    }
    let (warm_sum, _) = oracle.checksum(&warm_streams);
    let (full_sum, distinct) = oracle.checksum(&prepared.streams);

    // Untimed warm-up: fills the host's caches and page tables, and —
    // being churn-free on every workload — is the rep whose checksum
    // the oracle can always pin.
    let static_cfg = RunConfig {
        workers: spec.workers,
        engine: spec.engine,
        cache: LrCacheConfig::paper(CACHE_BLOCKS),
        churn: None,
        seed,
    };
    let warm_packets: u64 = warm_streams.iter().map(|s| s.len() as u64).sum();
    let report = F::run(&table, &warm, &static_cfg);
    tally.check(&report, warm_packets, Some(warm_sum), "warm-up");

    // Timed reps, spans off.
    let cfg = RunConfig {
        churn: spec.churn.clone(),
        ..static_cfg
    };
    let expect = spec.churn.is_none().then_some(full_sum);
    let mut reps: Vec<Rep> = Vec::new();
    let min_reps = if options.quick { 1 } else { MIN_REPS };
    let mut measured_s = 0.0;
    let mut peak_rss_mib = 0.0;
    // The watermark restarts here so that the peak is the first rep's —
    // the resident inputs plus what `run()` allocates — and not the
    // benchmark's own set-up (generation, the oracle's count maps),
    // which peaks 50–200 MiB higher and would hide an engine that grew.
    if !host::restart_peak_rss() {
        warnings.push(
            "the peak-RSS watermark cannot be restarted here: peak_rss_mib includes the \
             benchmark's own set-up"
                .to_string(),
        );
    }
    while reps.len() < min_reps || (!options.quick && measured_s < options.seconds as f64) {
        let cpu0 = host::process_cpu_ns();
        let (report, wall_s) = timed(|| F::run(&table, &traces, &cfg));
        let cpu_ns = (host::process_cpu_ns() - cpu0) as f64;
        let elapsed_s = report.elapsed.as_secs_f64();
        let run_setup_s = wall_s - elapsed_s;
        tally.check(
            &report,
            prepared.packets,
            expect,
            &format!("rep {}", reps.len()),
        );
        measured_s += elapsed_s;
        reps.push(Rep {
            elapsed_s,
            run_setup_s,
            // Set-up and teardown are single-threaded and compute-bound:
            // their CPU time is their wall time, and it is not the
            // forwarding path's.
            cpu_ns_per_packet: (cpu_ns - run_setup_s * 1e9) / report.total_packets().max(1) as f64,
            report,
        });
        if reps.len() == 1 {
            // Later reps add only what the allocator retains and what
            // a descheduled peer lets pile up in an outbox (fabric-w2:
            // +30 % in one rep of ten), which is the host's doing.
            peak_rss_mib = host::peak_rss_mib();
        }
    }
    if tally.checksum_diverged {
        tally.failures.push(
            match oracle.first_divergence(&prepared.part, &engines, &prepared.streams) {
                Some(addr) => format!(
                    "first divergent address: {addr:?} (its home engine disagrees with the oracle)"
                ),
                None => "every partition engine agrees with the oracle on every destination: \
                         the divergence is in the runtime, not in partitioning or lookup"
                    .to_string(),
            },
        );
    }
    let shortest = reps
        .iter()
        .map(|r| r.elapsed_s)
        .fold(f64::INFINITY, f64::min);
    if !options.quick && shortest < MIN_REP_S {
        warnings.push(format!(
            "shortest rep lasted {shortest:.2} s (< {MIN_REP_S} s): more reps were run to fill \
             --seconds, but rep-to-rep noise is larger than the bounds assume"
        ));
    }

    let over_reps = |f: &dyn Fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let throughput = over_reps(&|r| r.throughput_mpps());
    let cpu_ns = over_reps(&|r| r.cpu_ns_per_packet);
    let run_setup = over_reps(&|r| r.run_setup_s);
    let inputs_s: Vec<f64> = synth_s.iter().zip(&gen_s).map(|(a, b)| a + b).collect();
    let rep_iqr_share = stats::iqr_share(&throughput).unwrap_or(0.0);
    if rep_iqr_share > NOISY_IQR_SHARE {
        warnings.push(format!(
            "throughput_mpps spread over the reps is {:.1} % of its median (> {:.0} %): \
             the host was noisy during this run",
            rep_iqr_share * 100.0,
            NOISY_IQR_SHARE * 100.0
        ));
    }
    let cpu_ns_per_packet = median(&cpu_ns);

    values.set("setup_s", median(&inputs_s) + median(&run_setup));
    values.set("throughput_mpps", median(&throughput));
    values.set("cpu_ns_per_packet", cpu_ns_per_packet);
    values.set("peak_rss_mib", peak_rss_mib);
    values.set(
        "engine_bytes_per_route",
        storage_bytes as f64 / F::routes(&table) as f64,
    );

    if options.trace {
        // [S] set-up timers and input shape.
        values.set("rib.synth_s", median(&synth_s));
        values.set("rib.routes", F::routes(&table) as f64);
        values.set("traffic.gen_s", median(&gen_s));
        values.set("traffic.distinct_dests", distinct as f64);
        values.set("core.partition_s", partition_s);
        let replicated: usize = prepared.fragments.iter().map(F::routes).sum();
        values.set(
            "core.replication_overhead",
            replicated as f64 / F::routes(&table) as f64,
        );
        values.set("lpm.build_s", build_s);
        values.set("lpm.storage_bytes", storage_bytes as f64);
        values.set("dataplane.run_setup_s", median(&run_setup));
        values.set("dataplane.cpu_ns_per_packet", cpu_ns_per_packet);
        values.set("bench.rep_iqr_share", rep_iqr_share);
        report_counters(&mut values, &reps);
        let traced = replay_layers(
            &prepared,
            engines,
            &reps[0].report,
            full_sum,
            make_control,
            &mut values,
            &mut tally,
        );
        layer_costs(&mut values, &traced, cpu_ns_per_packet);
        if let Err(e) = write_spans(&spec, options, &traced.spans) {
            warnings.push(format!("could not write the span file: {e}"));
        }
    }

    let raw = vec![
        ("elapsed_s", over_reps(&|r| r.elapsed_s)),
        ("throughput_mpps", throughput),
        ("cpu_ns_per_packet", cpu_ns),
        ("run_setup_s", run_setup),
        ("inputs_s", inputs_s),
    ];
    drop(prepared);
    Outcome {
        spec,
        options: options.clone(),
        measured: true,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        warnings,
        values,
        raw,
        oracle_checksum: full_sum,
    }
}

/// [P] the layer replay, twice — spans off (fidelity, and the baseline
/// of the overhead measurement) and spans on — the two copies taking
/// turns. Checks both against the run (`real`) and the oracle and
/// returns the traced one.
fn replay_layers<F: Family>(
    prepared: &Prepared<F>,
    engines: Vec<F::Engine>,
    real: &DataplaneReport,
    oracle_sum: u64,
    make_control: MakeControl<F>,
    values: &mut Values,
    tally: &mut Tally,
) -> Replay {
    let spec = prepared.spec;
    // A publication as often, in bursts, as the timed reps saw one.
    let bursts = prepared.packets.div_ceil(BATCH as u64);
    let publications = values
        .get("dataplane.publications")
        .expect("counter is always stated");
    let every = (bursts as f64 / publications.max(1.0)) as u64;
    let (control, update_stream_s) = timed(|| make_control(spec, prepared.table, prepared.seed));
    values.set(
        "rib.update_stream_s",
        if control.is_some() {
            update_stream_s
        } else {
            0.0
        },
    );
    let cache = LrCacheConfig::paper(CACHE_BLOCKS);
    let new_replayer = |engines: Vec<F::Engine>, spans_on: bool| {
        let (writer, mut readers) = epoch_table(Box::new(engines), 1);
        let control = control.as_ref().map(|c| {
            let mut c = c.fork();
            c.arm(
                &prepared.fragments[0],
                writer,
                prepared.build_engines(),
                every,
            );
            c
        });
        let reader = readers.pop().expect("one reader");
        Replayer::<F>::new(
            &prepared.part,
            reader,
            &cache,
            &prepared.streams,
            control,
            spans_on,
        )
    };
    let mut plain = new_replayer(engines, false);
    let mut traced = new_replayer(prepared.build_engines(), true);
    while plain.advance(REPLAY_TURN) | traced.advance(REPLAY_TURN) {}
    let (plain, traced) = (plain.finish(), traced.finish());

    let real_probes: u64 = real.workers.iter().map(|w| w.cache.probes()).sum();
    let delta = (ratio(plain.hits as f64, plain.probes as f64) - real.hit_rate()).abs();
    values.set("bench.replay_hit_rate_delta", delta);
    // One LC and a static table leave the cache no freedom: the counts
    // must be the run's. Otherwise the interleaving is timing's.
    let exact = spec.workers == 1 && spec.churn.is_none();
    if exact && (plain.probes != real_probes || delta != 0.0) {
        tally.failures.push(format!(
            "replay is not the program's work: {} hits of {} probes, the run had a {} hit \
             rate over {} probes",
            plain.hits,
            plain.probes,
            real.hit_rate(),
            real_probes
        ));
    }
    for r in [&plain, &traced] {
        let wrong_sum = spec.churn.is_none() && r.checksum != oracle_sum;
        if r.counts.packets != prepared.packets || wrong_sum {
            tally.failures.push(format!(
                "replay completed {} of {} packets with checksum {:#x} (oracle {:#x})",
                r.counts.packets, prepared.packets, r.checksum, oracle_sum
            ));
        }
    }
    values.set(
        "bench.tracing_overhead_share",
        (traced.wall_ns as f64 - plain.wall_ns as f64) / plain.wall_ns as f64,
    );
    traced
}

/// [R] counters of the timed reps: the median over reps of each (exact
/// repeats on one worker without churn).
fn report_counters(values: &mut Values, reps: &[Rep]) {
    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let workers = |r: &Rep, f: &dyn Fn(&sut::WorkerReport) -> u64| -> f64 {
        r.report.workers.iter().map(f).sum::<u64>() as f64
    };
    let probes = |r: &Rep| workers(r, &|w| w.cache.probes());

    values.set(
        "lpm.lookups_per_packet",
        med(&|r| ratio(workers(r, &|w| w.fe_lookups), r.packets())),
    );
    values.set(
        "lpm.lookups_per_call",
        med(&|r| ratio(workers(r, &|w| w.fe_lookups), workers(r, &|w| w.fe_batches))),
    );
    values.set("cache.hit_rate", med(&|r| r.report.hit_rate()));
    values.set(
        "cache.hit_rate_steady",
        med(&|r| r.report.hit_rate_steady()),
    );
    values.set("cache.rem_share", med(&|r| r.report.rem_share()));
    values.set(
        "cache.waiting_share",
        med(&|r| ratio(workers(r, &|w| w.cache.hits_waiting), probes(r))),
    );
    values.set(
        "cache.victim_hit_share",
        med(&|r| ratio(workers(r, &|w| w.cache.victim_hits), probes(r))),
    );
    values.set(
        "cache.evictions_per_fill",
        med(&|r| {
            ratio(
                workers(r, &|w| w.cache.evictions),
                workers(r, &|w| w.cache.fills),
            )
        }),
    );
    values.set(
        "cache.reservation_failures",
        med(&|r| workers(r, &|w| w.cache.reservation_failures)),
    );
    values.set(
        "cache.invalidations",
        med(&|r| workers(r, &|w| w.cache.invalidations)),
    );
    values.set(
        "fabric.requests_per_packet",
        med(&|r| ratio(workers(r, &|w| w.remote_requests), r.packets())),
    );
    values.set(
        "fabric.lanes_per_msg",
        med(&|r| {
            ratio(
                workers(r, &|w| w.remote_requests),
                workers(r, &|w| w.batch_requests_sent),
            )
        }),
    );
    values.set(
        "fabric.max_ring_depth_share",
        med(&|r| {
            let deepest = r.report.workers.iter().map(|w| w.max_ring_depth).max();
            deepest.unwrap_or(0) as f64 / RING_CAPACITY as f64
        }),
    );
    values.set(
        "fabric.duplicate_replies",
        med(&|r| workers(r, &|w| w.duplicate_replies)),
    );
    values.set(
        "dataplane.wall_ns_per_packet",
        med(&|r| r.elapsed_s * 1e9 / r.packets()),
    );
    values.set(
        "dataplane.stale_replies",
        med(&|r| workers(r, &|w| w.stale_replies)),
    );
    values.set(
        "dataplane.spot_checks",
        med(&|r| workers(r, &|w| w.spot_checks)),
    );
    let sojourns: Vec<[u64; 5]> = reps.iter().map(|r| sut::sojourn_ns(&r.report)).collect();
    let sojourn = |i: usize| median(&sojourns.iter().map(|s| s[i] as f64).collect::<Vec<_>>());
    values.set("dataplane.sojourn_p50_ns", sojourn(0));
    values.set("dataplane.sojourn_p99_ns", sojourn(1));
    values.set("dataplane.sojourn_p999_ns", sojourn(2));
    values.set("dataplane.loc_hit_p99_ns", sojourn(3));
    values.set("dataplane.miss_p99_ns", sojourn(4));

    // Control plane: counters as medians over reps, apply latency over
    // the samples of all reps pooled.
    let churn =
        |r: &Rep, f: &dyn Fn(&sut::ChurnReport) -> f64| r.report.churn.as_ref().map_or(0.0, f);
    values.set(
        "dataplane.publications",
        med(&|r| churn(r, &|c| c.publications as f64)),
    );
    values.set(
        "dataplane.reclaim_p50_us",
        med(&|r| churn(r, &|c| c.reclaim_us.p50_us())),
    );
    values.set(
        "lpm.delta_applies",
        med(&|r| churn(r, &|c| c.delta_applies as f64)),
    );
    values.set(
        "lpm.rebuild_applies",
        med(&|r| churn(r, &|c| c.rebuild_applies as f64)),
    );
    values.set(
        "lpm.delta_bytes_touched",
        med(&|r| churn(r, &|c| c.delta_bytes_touched as f64)),
    );
    let pooled: Vec<f64> = reps
        .iter()
        .filter_map(|r| r.report.churn.as_ref())
        .flat_map(sut::apply_samples_us)
        .collect();
    if pooled.is_empty() {
        values.set("dataplane.apply_p50_us", 0.0);
        values.set("dataplane.apply_p99_us", 0.0);
    } else {
        for (name, p) in [
            ("dataplane.apply_p50_us", 0.5),
            ("dataplane.apply_p99_us", 0.99),
        ] {
            match stats::supported_percentile(&pooled, p) {
                Some(v) => values.set(name, v),
                None => values.refuse(name),
            }
        }
    }
}

/// [P] per-operation layer costs from the traced replay's self times,
/// and the split of the run's CPU time into attributed and not.
fn layer_costs(values: &mut Values, traced: &Replay, cpu_ns_per_packet: f64) {
    let own = stats::self_times(&traced.spans);
    let timer_ns = Tracer::empty_span_ns();
    let mut by_name: HashMap<&'static str, u64> = HashMap::new();
    for (span, ns) in traced.spans.iter().zip(own) {
        *by_name.entry(span.name).or_insert(0) += ns.saturating_sub(timer_ns);
    }
    let ns = |name: &str| by_name.get(name).copied().unwrap_or(0) as f64;
    let c = &traced.counts;
    values.set(
        "core.home_of_ns",
        ratio(ns("core.home_of"), c.home_calls as f64),
    );
    values.set(
        "lpm.lookup_batch_ns",
        ratio(ns("lpm.lookup_batch"), c.lookups as f64),
    );
    values.set("lpm.mean_lines", ratio(c.lines as f64, c.lookups as f64));
    values.set(
        "lpm.apply_delta_us",
        ratio(ns("lpm.apply_delta"), c.publications as f64) / 1e3,
    );
    values.set(
        "rib.ingest_us",
        ratio(ns("rib.ingest"), c.publications as f64) / 1e3,
    );
    values.set(
        "cache.probe_batch_ns",
        ratio(ns("cache.probe_batch"), c.batch_probes as f64),
    );
    values.set("cache.fill_ns", ratio(ns("cache.fill"), c.fills as f64));
    values.set(
        "cache.invalidate_covered_us",
        ratio(ns("cache.invalidate_covered"), c.invalidate_calls as f64) / 1e3,
    );
    values.set(
        "fabric.ring_ns_per_msg",
        ratio(
            ns("fabric.push_slice") + ns("fabric.pop_slice"),
            c.ring_msgs as f64,
        ),
    );
    values.set(
        "dataplane.epoch_pin_ns",
        ratio(ns("dataplane.epoch_pin"), c.pins as f64),
    );
    values.set(
        "dataplane.publish_us",
        ratio(ns("dataplane.publish"), c.publications as f64) / 1e3,
    );
    // Layers are every span that is a call into a crate; "burst" and
    // "publication" are the replay's own frames around them.
    let layers: u64 = by_name
        .iter()
        .filter(|(name, _)| name.contains('.'))
        .map(|(_, ns)| ns)
        .sum();
    let layers_ns_per_packet = ratio(layers as f64, c.packets as f64);
    values.set("dataplane.layers_ns_per_packet", layers_ns_per_packet);
    values.set(
        "dataplane.self_ns_per_packet",
        cpu_ns_per_packet - layers_ns_per_packet,
    );
    values.set(
        "dataplane.attributed_share",
        ratio(layers_ns_per_packet, cpu_ns_per_packet),
    );
}

/// `benchmark/out/<workload>.spans.jsonl`, one span per line; the line
/// number is the span's index, which `parent` refers to.
fn write_spans(spec: &Spec, options: &Options, spans: &[Span]) -> std::io::Result<()> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let tier = if options.quick { ".quick" } else { "" };
    let path = dir.join(format!("{}{tier}.spans.jsonl", spec.name));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {parent}, \"id\": {}}}",
            s.name, s.start, s.end, s.id
        )?;
    }
    out.flush()
}
