//! IPv6 outlook (§6): SPAL "is feasibly applicable to IPv6", where the
//! SRAM pressure is several times higher. The partitioner machinery is
//! generic over address width, so this runs the real §3.1 bit selection
//! and ROT-partitioning on a synthetic IPv6 table and measures the
//! per-LC trie shrinkage on the width-generic binary trie.
//!
//! Run: `cargo run --release --example ipv6_outlook`

use spal::core::{select_bits, Partitioning};
use spal::lpm::binary::GenericBinaryTrie;
use spal::lpm::Lpm;
use spal::rib::v6::synthesize6;

fn main() {
    let table = synthesize6(30_000, 2026);
    println!(
        "IPv6 table: {} prefixes (global unicast, /32-/48 heavy)",
        table.len()
    );

    let psi = 8;
    let bits = select_bits(&table, 3);
    println!("chosen partitioning bits: {bits:?} (criteria of Sec. 3.1, candidates 0..=63)");
    let part = Partitioning::new(&table, bits, psi);

    let whole = GenericBinaryTrie::build(&table);
    println!(
        "\nwhole-table binary trie: {} nodes (the IPv6 SRAM problem of Sec. 1)",
        whole.node_count()
    );
    let partitions = part.forwarding_tables(&table);
    for (lc, p) in partitions.iter().enumerate() {
        let trie = GenericBinaryTrie::build(p);
        println!(
            "LC {lc}: {:>6} prefixes, {:>8} trie nodes ({:.1}% of whole)",
            p.len(),
            trie.node_count(),
            100.0 * trie.node_count() as f64 / whole.node_count() as f64
        );
    }

    // The SPAL correctness invariant holds for 128-bit addresses too.
    let tries: Vec<_> = partitions.iter().map(GenericBinaryTrie::build).collect();
    let mut verified = 0;
    for e in table.entries().iter().step_by(499) {
        let addr = e.prefix.bits() | 1;
        let home = part.home_of(addr) as usize;
        assert_eq!(tries[home].lookup(addr), whole.lookup(addr));
        verified += 1;
    }
    println!("\nverified {verified} addresses: home-LC lookup == whole-table lookup");
    println!("per-LC SRAM drops ~1/psi exactly as in IPv4, but from a base several");
    println!("times larger — the Sec. 6 argument for SPAL under IPv6.");
}
