//! Cross-engine pin on the cache-line accounting: on a table whose
//! 16-bit stems all stay sparse (no route longer than /24, at most a
//! handful of runs per stem), the two engines built around line economy
//! — DIR-24-8 (flat arrays, one or two indexed reads) and the
//! cache-line-packed Poptrie — must resolve **every** address within a
//! 3-line budget, while the pointer-chasing binary trie blows far past
//! it. Pinning both sides keeps the `lines_touched` model honest: an
//! accounting bug that under-counts would let a fat engine sneak under
//! the budget, one that over-counts would push the packed engines over
//! it. A budget only means something for a right answer, so every
//! engine here also passes the shared battery's table oracle on the
//! same probes.

#[path = "common/oracle.rs"]
mod oracle;

use oracle::check_oracle;
use spal_lpm::binary::BinaryTrie;
use spal_lpm::dir24::Dir24_8;
use spal_lpm::lulea::LuleaTrie;
use spal_lpm::poptrie::Poptrie;
use spal_lpm::{mean_lines, Lpm};
use spal_rib::{synth, NextHop, Prefix, RouteEntry, RoutingTable};

/// A deterministic table of /8, /16 and /24 routes where every 16-bit
/// stem holds at most six /24 runs — each Poptrie stem encodes as one
/// sparse node with inline leaf values, so a lookup is root + node +
/// next-hop: exactly the layout the 3-line budget models.
fn sparse_stem_table() -> RoutingTable {
    let mut entries = Vec::new();
    let mut nh = 0u16;
    let hop = |nh: &mut u16| {
        *nh = (*nh + 1) % 64;
        NextHop(*nh)
    };
    for hi in [10u32, 172, 192] {
        entries.push(RouteEntry {
            prefix: Prefix::new(hi << 24, 8).unwrap(),
            next_hop: hop(&mut nh),
        });
    }
    for stem in 0..400u32 {
        let bits = (10 << 24) | (stem << 16);
        entries.push(RouteEntry {
            prefix: Prefix::new(bits, 16).unwrap(),
            next_hop: hop(&mut nh),
        });
        // Up to six /24 runs inside the stem: an S32-class sparse node.
        for k in 0..(stem % 7) {
            entries.push(RouteEntry {
                prefix: Prefix::new(bits | (k * 37) << 8, 24).unwrap(),
                next_hop: hop(&mut nh),
            });
        }
    }
    RoutingTable::from_entries(entries)
}

fn probe_addrs(table: &RoutingTable) -> Vec<u32> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x11E5);
    let mut addrs: Vec<u32> = (0..4_000).map(|_| rng.gen()).collect();
    // Guarantee hits at every depth: probe inside every route.
    addrs.extend(table.entries().iter().map(|e| e.prefix.first_addr()));
    addrs
}

#[test]
fn packed_engines_stay_within_three_lines() {
    let table = sparse_stem_table();
    let addrs = probe_addrs(&table);

    let dir24 = Dir24_8::build(&table);
    let pop = Poptrie::build(&table);
    check_oracle(&dir24, &table, &addrs).unwrap();
    check_oracle(&pop, &table, &addrs).unwrap();
    for &a in &addrs {
        let d = dir24.lookup_counted(a);
        assert!(
            d.lines_touched <= 3,
            "DIR-24-8 touched {} lines at {a:#010x}",
            d.lines_touched
        );
        let p = pop.lookup_counted(a);
        assert!(
            p.lines_touched <= 3,
            "Poptrie touched {} lines at {a:#010x}",
            p.lines_touched
        );
        // The line model never exceeds the access model: dedup only
        // removes charges.
        assert!(p.lines_touched <= p.mem_accesses);
        assert!(d.lines_touched <= d.mem_accesses);
    }
}

#[test]
fn pointer_chasing_engines_exceed_the_budget() {
    let table = sparse_stem_table();
    let addrs = probe_addrs(&table);
    let bin = BinaryTrie::build(&table);
    let pop = Poptrie::build(&table);
    check_oracle(&bin, &table, &addrs).unwrap();
    let bin_mean = mean_lines(&bin, &addrs);
    let pop_mean = mean_lines(&pop, &addrs);
    assert!(
        bin_mean > 2.0 * pop_mean,
        "binary trie should touch far more lines than Poptrie \
         (binary {bin_mean:.2} vs poptrie {pop_mean:.2})"
    );
}

/// Poptrie's reason to exist beside Lulea is fewer lines per lookup at
/// no more storage. The storage half is a pure function of the table,
/// so it is asserted here, on the 600k-prefix stress table the lookup
/// gate replays (`spal_bench::lookup::stress_workload`).
#[test]
fn poptrie_is_no_larger_than_lulea_on_the_stress_table() {
    let table = synth::synthesize(&synth::SynthConfig::sized(600_000, 0xB0B));
    let (pop, lulea) = (Poptrie::build(&table), LuleaTrie::build(&table));
    assert!(
        pop.storage_bytes() <= lulea.storage_bytes(),
        "Poptrie {} B > Lulea {} B",
        pop.storage_bytes(),
        lulea.storage_bytes()
    );
}
