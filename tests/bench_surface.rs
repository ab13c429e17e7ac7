//! Pins, in tier-1, the spellings `benchmark/src/sut.rs` uses for the
//! lookup contract. That package is outside the workspace, so `cargo
//! test` does not build it; a refactor that breaks one of these paths
//! should fail here, not in the `benchmark` CI job.

use spal::core::{
    select_bits, select_bits6, ForwardingTable, ForwardingTable6, LpmAlgorithm, LpmAlgorithm6,
};
use spal::dataplane::{Dataplane6Config, DataplaneConfig};
use spal::lpm::{CountedLookup, Lpm, Lpm6};
use spal::rib::v6::{synthesize6_dfz, RoutingTable6};
use spal::rib::{synth, RoutingTable};
use std::sync::Arc;

#[test]
fn sut_spellings_resolve_at_both_widths() {
    let rt: RoutingTable = synth::small(1);
    let rt6: RoutingTable6 = synthesize6_dfz(300, 1);
    assert_eq!(select_bits(&rt, 1).len(), select_bits6(&rt6, 1).len());

    let v4 = ForwardingTable::build(LpmAlgorithm::Poptrie, &rt);
    let addr = rt.entries()[0].prefix.bits();
    let mut out = [CountedLookup::MISS];
    Lpm::lookup_batch(&v4, &[addr], &mut out);
    assert_eq!(Lpm::lookup(&v4, addr), out[0].next_hop);
    assert!(Lpm::storage_bytes(&v4) > 0);
    let shared: Arc<dyn Lpm + Send + Sync> = Arc::new(v4);
    assert_eq!(shared.lookup(addr), out[0].next_hop);

    let addr6 = rt6.entries()[0].prefix.bits();
    for algorithm in [LpmAlgorithm6::Ship, LpmAlgorithm6::Binary] {
        let v6 = ForwardingTable6::build(algorithm, &rt6);
        Lpm6::lookup_batch(&v6, &[addr6], &mut out);
        assert_eq!(Lpm6::lookup(&v6, addr6), out[0].next_hop);
        assert!(out[0].next_hop.is_some() && Lpm6::storage_bytes(&v6) > 0);
    }

    // `run` / `run6` take these by reference; the type position is what
    // picks the family.
    let cfg: DataplaneConfig = DataplaneConfig {
        algorithm: LpmAlgorithm::Dir24,
        ..Default::default()
    };
    let cfg6 = Dataplane6Config {
        algorithm: LpmAlgorithm6::Ship,
        ..Default::default()
    };
    assert_eq!(cfg.workers, cfg6.workers);
}
