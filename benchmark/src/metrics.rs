//! Every metric the benchmark prints, by name, with its unit, the
//! direction that is better and — for end-to-end metrics — the bound by
//! which it may worsen before a change counts as a regression.
//! `BENCHMARK.json` repeats these tables; a test holds the two equal.

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the dataplane sees. Bounds are the issue's, except
/// where the measured run-to-run spread on the reference host forced a
/// wider one (README, "Spread").
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("throughput_mpps", "Mpkt/s", "higher", 0.25),
    e2e("cpu_ns_per_packet", "ns", "lower", 0.25),
    e2e("peak_rss_mib", "MiB", "lower", 0.10),
    e2e("engine_bytes_per_route", "B", "lower", 0.01),
];

/// Single layers, named after the crate that does the work. Values
/// that do not apply to a workload (fabric on one worker, churn
/// without updates) read 0.
pub const PER_LAYER: &[Def] = &[
    layer("rib.synth_s", "s", "lower"),
    layer("rib.update_stream_s", "s", "lower"),
    layer("rib.routes", "count", "lower"),
    layer("rib.ingest_us", "us", "lower"),
    layer("traffic.gen_s", "s", "lower"),
    layer("traffic.distinct_dests", "count", "lower"),
    layer("core.partition_s", "s", "lower"),
    layer("core.home_of_ns", "ns", "lower"),
    layer("core.replication_overhead", "ratio", "lower"),
    layer("lpm.build_s", "s", "lower"),
    layer("lpm.lookup_batch_ns", "ns", "lower"),
    layer("lpm.mean_lines", "count", "lower"),
    layer("lpm.lookups_per_packet", "ratio", "lower"),
    layer("lpm.lookups_per_call", "count", "higher"),
    layer("lpm.storage_bytes", "B", "lower"),
    layer("lpm.apply_delta_us", "us", "lower"),
    layer("lpm.delta_applies", "count", "higher"),
    layer("lpm.rebuild_applies", "count", "lower"),
    layer("lpm.delta_bytes_touched", "B", "lower"),
    layer("cache.probe_batch_ns", "ns", "lower"),
    layer("cache.fill_ns", "ns", "lower"),
    layer("cache.hit_rate", "ratio", "higher"),
    layer("cache.hit_rate_steady", "ratio", "higher"),
    layer("cache.rem_share", "ratio", "higher"),
    layer("cache.waiting_share", "ratio", "lower"),
    layer("cache.victim_hit_share", "ratio", "higher"),
    layer("cache.evictions_per_fill", "ratio", "lower"),
    layer("cache.reservation_failures", "count", "lower"),
    layer("cache.invalidate_covered_us", "us", "lower"),
    layer("cache.invalidations", "count", "lower"),
    layer("fabric.ring_ns_per_msg", "ns", "lower"),
    layer("fabric.requests_per_packet", "ratio", "lower"),
    layer("fabric.lanes_per_msg", "count", "higher"),
    layer("fabric.max_ring_depth_share", "ratio", "lower"),
    layer("fabric.duplicate_replies", "count", "lower"),
    layer("dataplane.wall_ns_per_packet", "ns", "lower"),
    layer("dataplane.cpu_ns_per_packet", "ns", "lower"),
    layer("dataplane.layers_ns_per_packet", "ns", "lower"),
    layer("dataplane.self_ns_per_packet", "ns", "lower"),
    layer("dataplane.attributed_share", "ratio", "higher"),
    layer("dataplane.run_setup_s", "s", "lower"),
    layer("dataplane.epoch_pin_ns", "ns", "lower"),
    layer("dataplane.publish_us", "us", "lower"),
    layer("dataplane.publications", "count", "higher"),
    layer("dataplane.apply_p50_us", "us", "lower"),
    layer("dataplane.apply_p99_us", "us", "lower"),
    layer("dataplane.reclaim_p50_us", "us", "lower"),
    layer("dataplane.stale_replies", "count", "lower"),
    layer("dataplane.spot_checks", "count", "higher"),
    layer("dataplane.sojourn_p50_ns", "ns", "lower"),
    layer("dataplane.sojourn_p99_ns", "ns", "lower"),
    layer("dataplane.sojourn_p999_ns", "ns", "lower"),
    layer("dataplane.loc_hit_p99_ns", "ns", "lower"),
    layer("dataplane.miss_p99_ns", "ns", "lower"),
    layer("bench.tracing_overhead_share", "ratio", "lower"),
    layer("bench.rep_iqr_share", "ratio", "lower"),
    layer("bench.replay_hit_rate_delta", "ratio", "lower"),
];

/// Metric values of one run, filled by name and printed in table
/// order. `None` is a value the run refuses to state (a p99 without
/// ten samples beyond it); a name never set is a bug and panics.
#[derive(Default)]
pub struct Values(std::collections::BTreeMap<&'static str, Option<f64>>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, Some(value));
    }

    pub fn refuse(&mut self, name: &'static str) {
        self.0.insert(name, None);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        *self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was never computed"))
    }
}
