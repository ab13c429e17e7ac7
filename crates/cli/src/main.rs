//! `spal` — command-line interface to the SPAL reproduction.
//!
//! ```text
//! spal gen-table --size 41709 --seed 1 --out table.txt
//! spal stats --table table.txt
//! spal partition --psi 16 --table table.txt
//! spal lookup --table table.txt 10.1.2.3 192.168.0.1
//! spal gen-trace --preset D_75 --packets 100000 --table table.txt --out trace.txt
//! spal simulate --psi 16 --beta 4096 --preset D_75 --packets 100000
//! spal dataplane --workers 4 --engine poptrie --churn 2000 --json
//! spal dataplane6 --workers 4 --prefixes 50000 --churn 1000
//! ```

use spal_bench::gate::{stamp, write_array};
use spal_bench::{ArgError, Args, Gates};
use spal_cache::LrCacheConfig;
use spal_core::bits::{eta_for, select_bits};
use spal_core::partition::Partitioning;
use spal_core::{ForwardingTable, LpmAlgorithm, LpmAlgorithm6};
use spal_dataplane::{
    run_family, AddrFamily, ChurnConfig, DataplaneConfig, FaultPlan, InvalidationMode, V4, V6,
};
use spal_lpm::model::LULEA_FE_CYCLES;
use spal_lpm::Lpm;
use spal_rib::stats::{nesting_stats, LengthDistribution};
use spal_rib::v6::synthesize6_dfz;
use spal_rib::{parse, synth, RoutingTable};
use spal_sim::{RouterKind, RouterSim, SimConfig};
use spal_traffic::{generate6, preset, PresetName, Trace};

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw[0] == "help" || raw[0] == "--help" {
        print_usage();
        return;
    }
    let command = raw[0].clone();
    let args = match Args::parse(raw.into_iter().skip(1)) {
        Ok(a) => a,
        Err(e) => die(&e.to_string()),
    };
    // Each command with the flags it accepts; any other is an error.
    type Command = fn(&Args) -> Result<(), ArgError>;
    let (run, flags): (Command, &[&[&str]]) = match command.as_str() {
        "gen-table" => (cmd_gen_table, &[&["size", "seed", "out"]]),
        "stats" => (cmd_stats, &[TABLE_FLAGS]),
        "partition" => (cmd_partition, &[TABLE_FLAGS, &["psi"]]),
        "lookup" => (cmd_lookup, &[TABLE_FLAGS]),
        "gen-trace" => (cmd_gen_trace, &[TABLE_FLAGS, TRACE_FLAGS, &["out"]]),
        "analyze-trace" => (
            cmd_analyze_trace,
            &[TABLE_FLAGS, TRACE_FLAGS, &["in", "max-capacity"]],
        ),
        "simulate" => (
            cmd_simulate,
            &[
                TABLE_FLAGS,
                TRACE_FLAGS,
                &["psi", "beta", "gamma", "kind", "speed", "fe"],
            ],
        ),
        "dataplane" => (
            cmd_dataplane::<V4>,
            &[TABLE_FLAGS, DATAPLANE_FLAGS, &["preset"]],
        ),
        "dataplane6" => (
            cmd_dataplane::<V6>,
            &[DATAPLANE_FLAGS, &["prefixes", "seed"]],
        ),
        "scenario" => (
            cmd_scenario,
            &[&["quick", "workers", "packets", "seed", "out"]],
        ),
        other => die(&format!("unknown command {other:?}; try 'spal help'")),
    };
    if let Err(e) = args.expect_only(&flags.concat()).and_then(|()| run(&args)) {
        die(&e.to_string());
    }
}

/// Flags of [`load_table`].
const TABLE_FLAGS: &[&str] = &["rt1", "rt2", "table", "size", "seed"];
/// The generated-trace flags (`--seed` is in [`TABLE_FLAGS`]).
const TRACE_FLAGS: &[&str] = &["preset", "packets"];
/// Flags `dataplane` and `dataplane6` share, `--seed` aside.
const DATAPLANE_FLAGS: &[&str] = &[
    "workers",
    "engine",
    "beta",
    "gamma",
    "batch",
    "packets",
    "churn",
    "publish-every",
    "withdraw-fraction",
    "pace-us",
    "invalidation",
    "deterministic",
    "faults",
    "json",
];

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

fn print_usage() {
    println!(
        "spal — SPAL packet-lookup toolkit (ICPP 2004 reproduction)

commands:
  gen-table  --size N --seed S [--out FILE]        synthesize a routing table
  stats      --table FILE | --rt1 | --rt2          table statistics
  partition  --psi N [--table FILE|--rt1|--rt2]    partitioning bits + sizes
  lookup     --table FILE ADDR...                  longest-prefix match
  gen-trace  --preset NAME --packets N [--table …] [--out FILE]
  analyze-trace --in FILE | (--preset NAME --packets N [--table …])
             reuse-distance profile + predicted LRU hit rates
  simulate   --psi N [--beta B] [--gamma G] [--preset NAME]
             [--packets N] [--kind spal|cache-only|conventional]
             [--speed 10|40] [--fe CYCLES] [--seed S]
  dataplane  --workers N [--engine dp|binary|lulea|lc|dir24|multibit|poptrie]
             [--beta B] [--gamma G] [--batch N] [--preset NAME] [--packets N]
             [--churn UPDATES] [--publish-every N] [--withdraw-fraction F]
             [--pace-us US] [--invalidation targeted|flush]
             [--deterministic] [--seed S] [--faults SEED] [--json]
             run the threaded SPAL runtime with RCU table publication;
             --faults injects seed-driven message drops/delays/dups and
             worker stalls (implies --deterministic) and exits non-zero
             on any oracle divergence; --json prints the whole report,
             per-path latency included
  dataplane6 --workers N [--engine ship|binary] [--prefixes N]
             [--beta B] [--gamma G] [--batch N] [--packets N]
             [--churn UPDATES] [--publish-every N] [--withdraw-fraction F]
             [--pace-us US] [--invalidation targeted|flush]
             [--deterministic] [--seed S] [--faults SEED] [--json]
             the same runtime over IPv6 (SHIP engines, 128-bit
             LR-caches and fabric) and a DFZ-2026-shaped synthetic v6
             table; every flag means what it means for dataplane
  scenario   NAME|all [--quick] [--workers N] [--packets N] [--seed S]
             [--out FILE]
             run a scripted operational episode against the live
             dataplane and grade it against hard gates; exits non-zero
             when any gate fails. NAME is one of lc-failure (kill an LC
             mid-traffic, online re-partitioning), flash-crowd,
             overload, soak (deterministic long-horizon mix). --out
             writes the scenarios' rows as a JSON array (`spal scenario
             all --out BENCH_scenario.json` refreshes the committed file)

a flag a command does not list is an error.

presets: D_75 D_81 L_92-0 L_92-1 B_L"
    );
}

/// Resolve the table source flags shared by several commands.
fn load_table(args: &Args) -> Result<RoutingTable, ArgError> {
    if args.has("rt1") {
        return Ok(synth::rt1(0xA11CE));
    }
    if args.has("rt2") {
        return Ok(synth::rt2(0xB0B));
    }
    match args.get("table") {
        Some(path) => {
            let file = std::fs::File::open(path)
                .map_err(|e| ArgError(format!("cannot open {path}: {e}")))?;
            parse::read_table(file).map_err(|e| ArgError(format!("{path}: {e}")))
        }
        None => Ok(synth::synthesize(&synth::SynthConfig::sized(
            args.get_or("size", 20_000usize)?,
            args.get_or("seed", 1u64)?,
        ))),
    }
}

fn parse_preset(name: &str) -> Result<PresetName, ArgError> {
    Ok(match name {
        "D_75" => PresetName::D75,
        "D_81" => PresetName::D81,
        "L_92-0" => PresetName::L92_0,
        "L_92-1" => PresetName::L92_1,
        "B_L" => PresetName::BL,
        other => return Err(ArgError(format!("unknown preset {other:?}"))),
    })
}

fn cmd_gen_table(args: &Args) -> Result<(), ArgError> {
    let size = args.get_or("size", 20_000usize)?;
    let seed = args.get_or("seed", 1u64)?;
    let table = synth::synthesize(&synth::SynthConfig::sized(size, seed));
    match args.get("out") {
        Some(path) => {
            let f = std::fs::File::create(path)
                .map_err(|e| ArgError(format!("cannot create {path}: {e}")))?;
            parse::write_table(&table, std::io::BufWriter::new(f))
                .map_err(|e| ArgError(e.to_string()))?;
            println!("wrote {} routes to {path}", table.len());
        }
        None => {
            let stdout = std::io::stdout();
            parse::write_table(&table, stdout.lock()).map_err(|e| ArgError(e.to_string()))?;
        }
    }
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), ArgError> {
    let table = load_table(args)?;
    let d = LengthDistribution::of(&table);
    let n = nesting_stats(&table);
    println!("routes: {}", table.len());
    println!("mean prefix length: {:.2}", d.mean());
    println!(
        "mode: /{}",
        d.mode().map(|m| m.to_string()).unwrap_or_default()
    );
    println!("<= /24: {:.1}%", d.fraction_at_most(24) * 100.0);
    println!("/32 host routes: {}", d.counts[32]);
    println!(
        "nested prefixes: {} ({:.1}%), max depth {}",
        n.nested,
        100.0 * n.nested as f64 / table.len().max(1) as f64,
        n.max_depth
    );
    println!("\nlen  count");
    for (len, &c) in d.counts.iter().enumerate() {
        if c > 0 {
            println!("{len:>3}  {c}");
        }
    }
    Ok(())
}

fn cmd_partition(args: &Args) -> Result<(), ArgError> {
    let table = load_table(args)?;
    let psi = args.get_or("psi", 4usize)?;
    if psi == 0 {
        return Err(ArgError("--psi must be at least 1".into()));
    }
    let bits = select_bits(&table, eta_for(psi));
    let part = Partitioning::new(&table, bits.clone(), psi);
    let stats = part.stats(&table);
    println!("table: {} routes; psi = {psi}; bits {bits:?}", table.len());
    println!(
        "per-LC sizes: min {} max {} (max/min {:.3}); replication {:.2}%",
        stats.min_size,
        stats.max_size,
        stats.imbalance_ratio(),
        stats.replication_overhead() * 100.0
    );
    let tables = part.forwarding_tables(&table);
    for (lc, t) in tables.iter().enumerate() {
        let trie = ForwardingTable::build(LpmAlgorithm::Lulea, t);
        println!(
            "LC {lc:>2}: {:>8} prefixes, Lulea trie {:>8.1} KB",
            t.len(),
            trie.storage_bytes() as f64 / 1024.0
        );
    }
    Ok(())
}

fn cmd_lookup(args: &Args) -> Result<(), ArgError> {
    let table = load_table(args)?;
    if args.positional().is_empty() {
        return Err(ArgError("lookup needs at least one address".into()));
    }
    let trie = ForwardingTable::build(LpmAlgorithm::Lulea, &table);
    for a in args.positional() {
        let addr = parse_addr(a)?;
        let counted = trie.lookup_counted(addr);
        let entry = table.longest_match(addr);
        match entry {
            Some(e) => println!(
                "{a} -> {} via {} ({} accesses, {} lines)",
                e.next_hop, e.prefix, counted.mem_accesses, counted.lines_touched
            ),
            None => println!(
                "{a} -> no route ({} accesses, {} lines)",
                counted.mem_accesses, counted.lines_touched
            ),
        }
    }
    Ok(())
}

fn parse_addr(s: &str) -> Result<u32, ArgError> {
    let mut octets = [0u8; 4];
    let mut n = 0;
    for part in s.split('.') {
        if n >= 4 {
            return Err(ArgError(format!("bad address {s:?}")));
        }
        octets[n] = part
            .parse()
            .map_err(|_| ArgError(format!("bad address {s:?}")))?;
        n += 1;
    }
    if n != 4 {
        return Err(ArgError(format!("bad address {s:?}")));
    }
    Ok(u32::from_be_bytes(octets))
}

fn cmd_gen_trace(args: &Args) -> Result<(), ArgError> {
    let table = load_table(args)?;
    let name = parse_preset(args.get("preset").unwrap_or("D_75"))?;
    let packets = args.get_or("packets", 100_000usize)?;
    let seed = args.get_or("seed", 1u64)?;
    let trace = preset(name).generate(&table, packets, seed);
    match args.get("out") {
        Some(path) => {
            let f = std::fs::File::create(path)
                .map_err(|e| ArgError(format!("cannot create {path}: {e}")))?;
            trace
                .write_text(std::io::BufWriter::new(f))
                .map_err(|e| ArgError(e.to_string()))?;
            println!(
                "wrote {} packets ({} distinct destinations) to {path}",
                trace.len(),
                trace.distinct()
            );
        }
        None => {
            let stdout = std::io::stdout();
            trace
                .write_text(stdout.lock())
                .map_err(|e| ArgError(e.to_string()))?;
        }
    }
    Ok(())
}

fn cmd_analyze_trace(args: &Args) -> Result<(), ArgError> {
    use spal_traffic::analysis::ReuseProfile;
    let trace = match args.get("in") {
        Some(path) => {
            let f = std::fs::File::open(path)
                .map_err(|e| ArgError(format!("cannot open {path}: {e}")))?;
            Trace::read_text(path.to_string(), f).map_err(|e| ArgError(e.to_string()))?
        }
        None => {
            let table = load_table(args)?;
            let name = parse_preset(args.get("preset").unwrap_or("D_75"))?;
            let packets = args.get_or("packets", 100_000usize)?;
            preset(name).generate(&table, packets, args.get_or("seed", 1u64)?)
        }
    };
    let max_cap = args.get_or("max-capacity", 8192usize)?;
    let profile = ReuseProfile::of(&trace, max_cap + 1);
    println!("packets: {}", profile.total());
    println!("distinct destinations: {}", profile.distinct());
    println!(
        "compulsory miss share: {:.3}",
        profile.cold_misses() as f64 / profile.total().max(1) as f64
    );
    println!("\ncapacity  predicted LRU hit rate");
    let mut cap = 64usize;
    while cap <= max_cap {
        println!("{cap:>8}  {:.4}", profile.lru_hit_rate(cap));
        cap *= 2;
    }
    Ok(())
}

/// `--workers`, within `min..=MAX_WORKERS` (the dataplane keeps
/// per-worker bitmasks in a `u64`).
fn workers_arg(args: &Args, default: usize, min: usize) -> Result<usize, ArgError> {
    use spal_dataplane::MAX_WORKERS;
    let workers = args.get_or("workers", default)?;
    if (min..=MAX_WORKERS).contains(&workers) {
        Ok(workers)
    } else {
        Err(ArgError(format!(
            "--workers must be between {min} and {MAX_WORKERS}"
        )))
    }
}

/// What a dataplane command runs over.
struct Workload<F: AddrFamily> {
    table: RoutingTable<F::Addr>,
    /// One trace per worker.
    traces: Vec<Trace<F::Addr>>,
    /// The banner's description of the two.
    banner: String,
}

/// What differs between `spal dataplane` and `spal dataplane6`: the
/// engine names, and where the table and the traces come from.
trait CliFamily: AddrFamily {
    /// The subcommand name, for the banner.
    const COMMAND: &'static str;

    fn engine(name: Option<&str>) -> Result<Self::Algorithm, ArgError>;

    fn workload(
        args: &Args,
        workers: usize,
        packets: usize,
        seed: u64,
    ) -> Result<Workload<Self>, ArgError>;
}

impl CliFamily for V4 {
    const COMMAND: &'static str = "dataplane";

    fn engine(name: Option<&str>) -> Result<LpmAlgorithm, ArgError> {
        Ok(match name.unwrap_or("dp") {
            "dp" => LpmAlgorithm::Dp,
            "binary" => LpmAlgorithm::Binary,
            "lulea" => LpmAlgorithm::Lulea,
            "lc" => LpmAlgorithm::Lc,
            "dir24" => LpmAlgorithm::Dir24,
            "multibit" => LpmAlgorithm::Multibit,
            "poptrie" => LpmAlgorithm::Poptrie,
            other => return Err(ArgError(format!("unknown engine {other:?}"))),
        })
    }

    fn workload(
        args: &Args,
        workers: usize,
        packets: usize,
        seed: u64,
    ) -> Result<Workload<V4>, ArgError> {
        let table = load_table(args)?;
        let name = parse_preset(args.get("preset").unwrap_or("D_75"))?;
        let traces = preset(name)
            .generate(&table, packets * workers, seed)
            .split(workers);
        Ok(Workload {
            table,
            traces,
            banner: format!("preset={}", name.label()),
        })
    }
}

impl CliFamily for V6 {
    const COMMAND: &'static str = "dataplane6";

    fn engine(name: Option<&str>) -> Result<LpmAlgorithm6, ArgError> {
        match name.unwrap_or("ship") {
            "ship" => Ok(LpmAlgorithm6::Ship),
            "binary" => Ok(LpmAlgorithm6::Binary),
            other => Err(ArgError(format!("unknown v6 engine {other:?}"))),
        }
    }

    fn workload(
        args: &Args,
        workers: usize,
        packets: usize,
        seed: u64,
    ) -> Result<Workload<V6>, ArgError> {
        let prefixes = args.get_or("prefixes", 50_000usize)?;
        let table = synthesize6_dfz(prefixes, seed ^ 0xD15C);
        let traces =
            generate6(&table, 32_768.min(4 * prefixes), packets * workers, seed).split(workers);
        let banner = format!("table={} v6 prefixes", table.len());
        Ok(Workload {
            table,
            traces,
            banner,
        })
    }
}

/// `--churn UPDATES` and the three flags that shape the stream.
fn churn_arg(args: &Args) -> Result<Option<ChurnConfig>, ArgError> {
    let updates = args.get_or("churn", 0usize)?;
    if updates == 0 {
        return Ok(None);
    }
    Ok(Some(ChurnConfig {
        updates,
        updates_per_publication: args.get_or("publish-every", 50usize)?,
        withdraw_fraction: args.get_or("withdraw-fraction", 0.3f64)?,
        pace_us: args.get_or("pace-us", 200u64)?,
    }))
}

/// `spal dataplane` (`F = V4`) and `spal dataplane6` (`F = V6`).
fn cmd_dataplane<F: CliFamily>(args: &Args) -> Result<(), ArgError> {
    let workers = workers_arg(args, 4, 1)?;
    let algorithm = F::engine(args.get("engine"))?;
    let mut cache = LrCacheConfig::paper(args.get_or("beta", 4096usize)?);
    cache.mix_rem_fraction = args.get_or("gamma", cache.mix_rem_fraction)?;
    let packets = args.get_or("packets", 100_000usize)?;
    let seed = args.get_or("seed", 1u64)?;
    let churn = churn_arg(args)?;
    let invalidation = match args.get("invalidation").unwrap_or("targeted") {
        "targeted" => InvalidationMode::Targeted,
        "flush" => InvalidationMode::FullFlush,
        other => {
            return Err(ArgError(format!(
                "--invalidation must be 'targeted' or 'flush', got {other:?}"
            )))
        }
    };
    let faults = args
        .get("faults")
        .map(|s| {
            s.parse::<u64>()
                .map_err(|_| ArgError(format!("--faults expects a seed, got {s:?}")))
        })
        .transpose()?
        .map(FaultPlan::standard);

    let Workload {
        table,
        traces,
        banner,
    } = F::workload(args, workers, packets, seed)?;
    eprintln!(
        "{}: workers={workers} engine={algorithm:?} {banner} beta={} gamma={} \
         packets/worker={packets}{}",
        F::COMMAND,
        cache.blocks,
        cache.mix_rem_fraction,
        match &churn {
            Some(c) => format!(" churn={} updates", c.updates),
            None => String::new(),
        },
    );
    let cfg = DataplaneConfig::<F> {
        workers,
        algorithm,
        cache,
        batch: args.get_or("batch", 32usize)?,
        churn,
        invalidation,
        // Fault runs use the deterministic schedule so every fault —
        // and any failure — replays exactly from the seed.
        deterministic: args.has("deterministic") || faults.is_some(),
        seed,
        faults,
        ..Default::default()
    };
    let report = run_family::<F>(&table, &traces, &cfg);
    if args.has("json") {
        print!("{}", report.to_json());
        return Ok(());
    }
    println!("{}", report.summary());
    if let Some(c) = &report.churn {
        println!(
            "churn: {} invalidations sent, apply min/mean/max {:.1}/{:.1}/{:.1} µs, \
             final check {}/{} consistent",
            c.invalidations_sent,
            c.apply_us.min_us,
            c.apply_us.mean_us(),
            c.apply_us.max_us,
            c.final_checks - c.final_mismatches,
            c.final_checks,
        );
    }
    print_worker_table(&report);
    if report.faults.is_some() {
        println!("{}", report.fault_summary());
    }
    if report.oracle_divergence() > 0 {
        return Err(ArgError(format!(
            "{} oracle divergences — dataplane disagreed with its pinned snapshot or the RIB oracle",
            report.oracle_divergence()
        )));
    }
    Ok(())
}

/// The per-LC table both dataplane commands end on. `in-flight` is the
/// high-water mark of unanswered remote requests and `throttled` the
/// iterations the in-flight window held admission back.
fn print_worker_table(report: &spal_dataplane::DataplaneReport) {
    println!("\nlc  packets   hit-rate  remote-req  served  stale  in-flight  throttled");
    for w in &report.workers {
        println!(
            "{:>2}  {:>8}  {:>8.3}  {:>10}  {:>6}  {:>5}  {:>9}  {:>9}",
            w.lc,
            w.packets,
            w.cache.hit_rate(),
            w.remote_requests,
            w.remote_served,
            w.stale_replies,
            w.max_in_flight,
            w.admit_throttled,
        );
    }
}

fn cmd_scenario(args: &Args) -> Result<(), ArgError> {
    use spal_dataplane::{run_scenario, ScenarioConfig, ScenarioKind};

    let names: Vec<&str> = ScenarioKind::ALL.iter().map(|k| k.name()).collect();
    let which = args
        .positional()
        .first()
        .map(String::as_str)
        .ok_or_else(|| {
            ArgError(format!(
                "scenario needs a name: {} or all",
                names.join(", ")
            ))
        })?;
    let kinds: Vec<ScenarioKind> = if which == "all" {
        ScenarioKind::ALL.to_vec()
    } else {
        vec![ScenarioKind::from_name(which).ok_or_else(|| {
            ArgError(format!(
                "unknown scenario {which:?}; expected {} or all",
                names.join(", ")
            ))
        })?]
    };

    let quick = args.has("quick");
    let mut rows = Vec::new();
    let mut gates = Gates::new("spal scenario");
    for kind in kinds {
        let mut cfg = ScenarioConfig::new(kind, quick);
        cfg.workers = workers_arg(args, cfg.workers, 2)?;
        cfg.packets = args.get_or("packets", cfg.packets)?;
        cfg.seed = args.get_or("seed", cfg.seed)?;
        eprintln!(
            "scenario {}: workers={} packets/worker={}{}",
            kind.name(),
            cfg.workers,
            cfg.packets,
            if quick { " (quick)" } else { "" },
        );
        let result = run_scenario(&cfg);
        println!("{}", result.summary());
        // The scenario graded its own hard gates; the ledger collects
        // them. Busy threads as in `bench_dataplane`'s rows: one on the
        // deterministic schedule, else the workers plus the control
        // thread under churn.
        let report = &result.report;
        let busy = if report.deterministic {
            1
        } else {
            report.workers.len() + usize::from(report.churn.is_some())
        };
        rows.push(stamp(&result.json_row(), busy));
        let name = kind.name();
        gates.extend(result.gate_failures.iter().map(|g| format!("{name}: {g}")));
    }
    if let Some(path) = args.get("out") {
        write_array(path, &rows).map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        eprintln!("wrote {} row(s) to {path}", rows.len());
    }
    gates.finish();
    Ok(())
}

fn cmd_simulate(args: &Args) -> Result<(), ArgError> {
    let table = load_table(args)?;
    let psi = args.get_or("psi", 16usize)?;
    let mut cache = LrCacheConfig::paper(args.get_or("beta", 4096usize)?);
    cache.mix_rem_fraction = args.get_or("gamma", cache.mix_rem_fraction)?;
    let packets = args.get_or("packets", 100_000usize)?;
    let seed = args.get_or("seed", 1u64)?;
    let fe = args.get_or("fe", LULEA_FE_CYCLES)?;
    let kind = match args.get("kind").unwrap_or("spal") {
        "spal" => RouterKind::Spal,
        "cache-only" => RouterKind::CacheOnly,
        "conventional" => RouterKind::Conventional,
        other => return Err(ArgError(format!("unknown router kind {other:?}"))),
    };
    let speed = match args.get_or("speed", 40u32)? {
        10 => spal_traffic::LcSpeed::Gbps10,
        40 => spal_traffic::LcSpeed::Gbps40,
        other => return Err(ArgError(format!("--speed must be 10 or 40, got {other}"))),
    };
    let name = parse_preset(args.get("preset").unwrap_or("D_75"))?;

    let traces: Vec<Trace> = preset(name)
        .generate(&table, packets * psi, seed)
        .split(psi);
    let config = SimConfig {
        kind,
        psi,
        speed,
        fe: spal_sim::FeServiceModel::Fixed(fe),
        cache,
        packets_per_lc: packets,
        seed,
        ..SimConfig::default()
    };
    eprintln!(
        "simulating {kind:?}: psi={psi} beta={} gamma={} preset={} packets/LC={packets} fe={fe}cyc",
        config.cache.blocks,
        config.cache.mix_rem_fraction,
        name.label()
    );
    let report = RouterSim::new(&table, &traces, config).run();
    println!("{}", report.summary());
    println!(
        "cycles: {} ({:.2} ms); p50/p99/max latency: {}/{}/{} cycles",
        report.cycles,
        report.cycles as f64 * 5e-6,
        report.latency.quantile(0.5),
        report.latency.quantile(0.99),
        report.latency.max()
    );
    println!(
        "fabric: {} msgs, mean transit {:.1} cycles",
        report.fabric.sent,
        report.fabric.mean_transit()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Args {
        Args::parse(s.iter().map(|x| x.to_string())).unwrap()
    }

    #[test]
    fn malformed_churn_flags_are_rejected() {
        for flag in ["--publish-every", "--withdraw-fraction", "--pace-us"] {
            let err = churn_arg(&parse(&["--churn", "400", flag, "abc"]))
                .expect_err("a malformed value must not fall back to the default");
            assert!(err.0.contains(flag), "{flag}: {err}");
        }
    }
}
