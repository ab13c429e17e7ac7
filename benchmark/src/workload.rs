//! The five workloads. All are closed loop: each worker admits its next
//! 256-packet burst as soon as the previous one is probed, so the
//! client count is the worker count and a slower dataplane is offered
//! less. Each exists to put a different layer on the critical path;
//! `why` is the one-line reason `BENCHMARK.json` and the README repeat.

use crate::sut::{ChurnConfig, EngineKind, Stream};

#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub v6: bool,
    pub routes: usize,
    pub stream: Stream,
    /// Packets per rep, over all workers.
    pub packets: usize,
    pub workers: usize,
    pub engine: EngineKind,
    pub churn: Option<ChurnConfig>,
}

/// LR-cache blocks per LC (`LrCacheConfig::paper`).
pub const CACHE_BLOCKS: usize = 4096;

/// Routes in the IPv4 table: big enough that the compressed engines
/// overflow a server L2, as `spal-bench`'s stress table is.
const V4_ROUTES: usize = 600_000;
/// Routes in the DFZ-2026 IPv6 table.
const V6_ROUTES: usize = 200_000;

/// Packet counts are sized so a rep lasts 2–3 s on the 2-core reference
/// host (26–30 Mpps with locality, 4–5 Mpps without, 6–7 Mpps on v6).
pub fn all() -> Vec<Spec> {
    let locality = Spec {
        name: "locality-w1",
        why: "0.90 LR-cache hit rate: probe_batch and the runtime's hit path do most of the \
              work, the engine sees a tenth of the packets, the fabric none",
        v6: false,
        routes: V4_ROUTES,
        stream: Stream::BellLabs,
        packets: 72_000_000,
        workers: 1,
        engine: EngineKind::Dir24,
        churn: None,
    };
    vec![
        locality.clone(),
        Spec {
            name: "stress-w1",
            why: "0.003 hit rate: every packet misses, reserves, parks, is looked up (Poptrie) \
                  and fills with an eviction; a hit-path optimisation should not move it",
            stream: Stream::NearUniform,
            packets: 11_000_000,
            engine: EngineKind::Poptrie,
            ..locality.clone()
        },
        Spec {
            name: "fabric-w2",
            why: "two workers, near-uniform stream: half the misses are homed on the other LC, \
                  so SPSC rings, coalescing and pending-map re-entry dominate",
            stream: Stream::NearUniform,
            packets: 14_000_000,
            workers: 2,
            ..locality.clone()
        },
        Spec {
            name: "churn-w1",
            why: "locality-w1 plus a paced BGP update stream: apply_delta, RCU publish and \
                  invalidate_covered run beside the probes; one variable changed",
            // `run` regenerates the update stream on every call, at
            // ~190 µs per update on this table, so the stream is as
            // short as still outlasts a 3 s rep: 10 updates per
            // publication, one publication per ~5.5 ms (see README).
            churn: Some(ChurnConfig {
                updates: 6_000,
                updates_per_publication: 10,
                withdraw_fraction: 0.3,
                pace_us: 5_000,
            }),
            ..locality
        },
        Spec {
            name: "v6-w1",
            why: "the 128-bit cache/fabric/runtime fork over SHIP at a 0.72 hit rate: proves a \
                  width-generic dataplane costs nothing on IPv6",
            v6: true,
            routes: V6_ROUTES,
            stream: Stream::Zipf6,
            packets: 20_000_000,
            workers: 1,
            engine: EngineKind::Ship,
            churn: None,
        },
    ]
}

pub fn find(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

impl Spec {
    /// Busy threads the workload needs: the workers, plus the control
    /// thread under churn.
    pub fn threads(&self) -> usize {
        self.workers + usize::from(self.churn.is_some())
    }

    /// The `--quick` tier: the same shape at 20k routes and 200k
    /// packets, for `cargo test`.
    pub fn quick(mut self) -> Spec {
        self.routes = 20_000;
        self.packets = 200_000;
        if let Some(churn) = &mut self.churn {
            churn.updates = 1_000;
            churn.pace_us = 200;
        }
        self
    }
}
