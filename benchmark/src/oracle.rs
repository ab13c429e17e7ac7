//! The correctness oracle: a full-table binary trie — not the
//! partitioned engines, caches and rings under test — looked up once
//! per *distinct* destination and weighted by how often the trace sends
//! it. Seconds on the 64 M-packet trace, where a packet-by-packet
//! replay would cost as much as the run it checks.

use crate::sut::Family;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hash for address keys: the counting pass makes one
/// map access per packet, and SipHash would dominate it. The keys are
/// the benchmark's own generated destinations, not outside input.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0.rotate_left(29) ^ u64::from_le_bytes(word))
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// Order-sensitive fingerprint of a destination stream, to tell
/// whether two generations from one seed are the same stream.
pub fn fingerprint<A: std::hash::Hash>(dests: &[A]) -> u64 {
    let mut h = AddrHasher::default();
    dests.iter().for_each(|d| d.hash(&mut h));
    h.finish()
}

type AddrMap<A, V> = HashMap<A, V, BuildHasherDefault<AddrHasher>>;

/// The dataplane's per-packet checksum term: next hop + 1, 0 for no
/// route (what `WorkerCore::complete` adds).
pub fn checksum_term(next_hop: Option<u16>) -> u64 {
    next_hop.map_or(0, |h| h as u64 + 1)
}

pub struct Oracle<F: Family> {
    trie: F::Engine,
    /// Test hook: answer this address one next hop off.
    wrong_on: Option<F::Addr>,
}

impl<F: Family> Oracle<F> {
    pub fn new(table: &F::Table) -> Self {
        Oracle {
            trie: F::reference(table),
            wrong_on: None,
        }
    }

    /// The deliberately wrong oracle the self-test runs against: it
    /// must make the command fail and name `addr`.
    pub fn break_on(&mut self, addr: F::Addr) {
        self.wrong_on = Some(addr);
    }

    pub fn next_hop(&self, addr: F::Addr) -> Option<u16> {
        let nh = F::lookup(&self.trie, addr);
        if self.wrong_on == Some(addr) {
            Some(nh.map_or(0, |h| h.wrapping_add(1)))
        } else {
            nh
        }
    }

    /// The checksum a correct run over `streams` reports, and the number
    /// of distinct destinations it was computed from.
    pub fn checksum(&self, streams: &[&[F::Addr]]) -> (u64, usize) {
        let mut counts: AddrMap<F::Addr, u64> = AddrMap::default();
        for dests in streams {
            for &addr in *dests {
                *counts.entry(addr).or_insert(0) += 1;
            }
        }
        let sum = counts.iter().fold(0u64, |acc, (&addr, &n)| {
            acc.wrapping_add(checksum_term(self.next_hop(addr)).wrapping_mul(n))
        });
        (sum, counts.len())
    }

    /// After a checksum mismatch: the first destination, in stream
    /// order, that the partition engine of its home LC resolves
    /// differently from the oracle. `None` means every engine agrees
    /// with the oracle on every destination, so the divergence is in
    /// the runtime (cache, fabric, loop), not in partitioning or LPM.
    pub fn first_divergence(
        &self,
        part: &F::Part,
        engines: &[F::Engine],
        streams: &[&[F::Addr]],
    ) -> Option<F::Addr> {
        let mut seen: AddrMap<F::Addr, ()> = AddrMap::default();
        streams
            .iter()
            .flat_map(|s| s.iter().copied())
            .find(|&addr| {
                seen.insert(addr, ()).is_none()
                    && F::lookup(&engines[F::home_of(part, addr) as usize], addr)
                        != self.next_hop(addr)
            })
    }
}
