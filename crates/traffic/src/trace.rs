//! Destination-address traces: containers, generation, per-LC stream
//! splitting, and a simple text format.

use crate::locality::{LocalityModel, LocalitySampler};
use crate::pool::AddressPool;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spal_rib::AddressBits;
use std::io::{BufRead, BufReader, Read, Write};
use std::sync::Arc;

/// A sequence of packet destination addresses of type `A` (`u32` for
/// IPv4, the default; `u128` for IPv6, spelled [`crate::Trace6`]).
///
/// Destinations live behind an [`Arc`], so cloning a trace — or handing
/// its address stream to a simulator line card — shares one allocation
/// instead of copying potentially hundreds of thousands of addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace<A = u32> {
    name: String,
    dests: Arc<[A]>,
}

impl<A: AddressBits> Trace<A> {
    /// Wrap a destination sequence.
    pub fn new(name: impl Into<String>, dests: Vec<A>) -> Self {
        Trace {
            name: name.into(),
            dests: dests.into(),
        }
    }

    /// Generate `len` destinations from a pool under a locality model.
    pub fn generate(
        name: impl Into<String>,
        pool: &AddressPool<A>,
        model: LocalityModel,
        len: usize,
        seed: u64,
    ) -> Self {
        assert!(
            !pool.is_empty(),
            "cannot generate a trace from an empty pool"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sampler = LocalitySampler::new(model, pool.len());
        let addrs = pool.addresses();
        let dests = (0..len)
            .map(|_| addrs[sampler.next_index(&mut rng)])
            .collect();
        Trace::new(name, dests)
    }

    /// The trace's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The destination sequence.
    pub fn destinations(&self) -> &[A] {
        &self.dests
    }

    /// The destination sequence as a shared handle (no copy).
    pub fn destinations_shared(&self) -> Arc<[A]> {
        Arc::clone(&self.dests)
    }

    /// Number of packets.
    pub fn len(&self) -> usize {
        self.dests.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.dests.is_empty()
    }

    /// Number of distinct destinations.
    pub fn distinct(&self) -> usize {
        let mut v = self.dests.to_vec();
        v.sort_unstable();
        v.dedup();
        v.len()
    }

    /// Split into `n` per-LC streams round-robin, as if `n` links tapped
    /// the same backbone flow (§5.1 feeds every LC its own stream).
    pub fn split(&self, n: usize) -> Vec<Self> {
        assert!(n >= 1, "need at least one stream");
        let mut streams: Vec<Vec<A>> = vec![Vec::with_capacity(self.len() / n + 1); n];
        for (i, &d) in self.dests.iter().enumerate() {
            streams[i % n].push(d);
        }
        streams
            .into_iter()
            .enumerate()
            .map(|(i, dests)| Trace::new(format!("{}#{}", self.name, i), dests))
            .collect()
    }

    /// Iterate the destinations in contiguous chunks of at most `size`
    /// addresses — the natural feed for `Lpm::lookup_batch` consumers
    /// (the last chunk carries the unaligned tail).
    ///
    /// # Panics
    /// Panics if `size` is zero.
    pub fn batches(&self, size: usize) -> impl Iterator<Item = &[A]> {
        assert!(size >= 1, "batch size must be at least 1");
        self.dests.chunks(size)
    }

    /// Split into `n` *contiguous* shards of near-equal length (first
    /// `len % n` shards one longer), preserving each shard's arrival
    /// order — the right cut for replaying one trace across worker
    /// threads, where [`Trace::split`]'s round-robin interleave would
    /// destroy the locality each worker sees.
    pub fn shard_slices(&self, n: usize) -> Vec<Self> {
        assert!(n >= 1, "need at least one shard");
        let base = self.len() / n;
        let extra = self.len() % n;
        let mut start = 0;
        (0..n)
            .map(|i| {
                let len = base + usize::from(i < extra);
                let shard = Trace::new(
                    format!("{}@{}", self.name, i),
                    self.dests[start..start + len].to_vec(),
                );
                start += len;
                shard
            })
            .collect()
    }
}

/// The text format is IPv4's.
impl Trace {
    /// Write one dotted-quad destination per line.
    pub fn write_text<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        let mut buf = String::new();
        for &d in self.dests.iter() {
            buf.clear();
            let b = d.to_be_bytes();
            buf.push_str(&format!("{}.{}.{}.{}\n", b[0], b[1], b[2], b[3]));
            w.write_all(buf.as_bytes())?;
        }
        Ok(())
    }

    /// Read a trace from the text format (`a.b.c.d` per line; blanks and
    /// `#` comments skipped).
    pub fn read_text<R: Read>(name: impl Into<String>, r: R) -> std::io::Result<Trace> {
        let mut dests = Vec::new();
        for line in BufReader::new(r).lines() {
            let line = line?;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut octets = [0u8; 4];
            let mut n = 0;
            for part in line.split('.') {
                if n >= 4 {
                    return Err(bad_line(line));
                }
                octets[n] = part.parse().map_err(|_| bad_line(line))?;
                n += 1;
            }
            if n != 4 {
                return Err(bad_line(line));
            }
            dests.push(u32::from_be_bytes(octets));
        }
        Ok(Trace::new(name, dests))
    }
}

fn bad_line(line: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("bad trace line {line:?}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use spal_rib::synth;

    fn small_trace() -> Trace {
        let rt = synth::small(4);
        let pool = AddressPool::covered(&rt, 100, 0.0, 1);
        Trace::generate("t", &pool, LocalityModel::Zipf { alpha: 1.0 }, 1000, 2)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_trace();
        let b = small_trace();
        assert_eq!(a, b);
        assert_eq!(a.len(), 1000);
        assert!(a.distinct() <= 100);
    }

    /// The container never looks inside an address: every case below
    /// runs at 32 and at 128 bits.
    fn seq<A: AddressBits + From<u8>>(r: std::ops::Range<u8>) -> Vec<A> {
        r.map(A::from).collect()
    }

    fn split_round_robin<A: AddressBits + From<u8>>() {
        let t = Trace::new("x", seq::<A>(1..6));
        let s = t.split(2);
        assert_eq!(s[0].destinations(), [1, 3, 5].map(A::from));
        assert_eq!(s[1].destinations(), [2, 4].map(A::from));
        assert_eq!(s[0].name(), "x#0");
        // One stream is the trace itself.
        assert_eq!(t.split(1)[0].destinations(), t.destinations());
    }

    fn batches_cover_trace_in_order<A: AddressBits + From<u8>>() {
        let t = Trace::new("x", seq::<A>(0..10));
        let chunks: Vec<&[A]> = t.batches(4).collect();
        assert_eq!(chunks, [&seq::<A>(0..4)[..], &seq(4..8), &seq(8..10)]);
        // One oversized batch yields the whole trace.
        assert_eq!(t.batches(100).next().unwrap(), t.destinations());
    }

    fn shard_slices_are_contiguous_and_balanced<A: AddressBits + From<u8>>() {
        let t = Trace::new("x", seq::<A>(0..11));
        let shards = t.shard_slices(3);
        assert_eq!(shards[0].destinations(), seq::<A>(0..4));
        assert_eq!(shards[1].destinations(), seq::<A>(4..8));
        assert_eq!(shards[2].destinations(), seq::<A>(8..11));
        assert_eq!(shards[0].name(), "x@0");
        // More shards than packets: trailing shards are empty, nothing
        // is lost.
        let tiny = Trace::new("y", seq::<A>(1..3));
        let s = tiny.shard_slices(4);
        assert_eq!(s.iter().map(|t| t.len()).sum::<usize>(), 2);
    }

    fn clones_share_storage_and_count_distinct<A: AddressBits + From<u8>>() {
        let t = Trace::new("x", [1, 2, 3, 2].map(A::from).to_vec());
        let c = t.clone();
        assert!(Arc::ptr_eq(
            &t.destinations_shared(),
            &c.destinations_shared()
        ));
        assert_eq!((t.len(), t.distinct()), (4, 3));
    }

    macro_rules! for_both_widths {
        ($($case:ident),* $(,)?) => {
            mod v4 {
                $(#[test] fn $case() { super::$case::<u32>() })*
            }
            mod v6 {
                $(#[test] fn $case() { super::$case::<u128>() })*
            }
        };
    }

    for_both_widths!(
        split_round_robin,
        batches_cover_trace_in_order,
        shard_slices_are_contiguous_and_balanced,
        clones_share_storage_and_count_distinct,
    );

    #[test]
    fn text_roundtrip() {
        let t = Trace::new("x", vec![0x0A000001u32, 0xC0A80001, 0]);
        let mut buf = Vec::new();
        t.write_text(&mut buf).unwrap();
        assert_eq!(
            String::from_utf8(buf.clone()).unwrap(),
            "10.0.0.1\n192.168.0.1\n0.0.0.0\n"
        );
        let back = Trace::read_text("x", buf.as_slice()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn read_rejects_garbage() {
        assert!(Trace::read_text("x", "1.2.3\n".as_bytes()).is_err());
        assert!(Trace::read_text("x", "1.2.3.4.5\n".as_bytes()).is_err());
        assert!(Trace::read_text("x", "hello\n".as_bytes()).is_err());
        // Comments and blanks are fine.
        let t = Trace::read_text("x", "# c\n\n1.2.3.4\n".as_bytes()).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn zipf_trace_has_locality() {
        // The generated trace's most common destination should appear far
        // more often than 1/distinct of the time.
        let t = small_trace();
        let mut counts = std::collections::HashMap::new();
        for &d in t.destinations() {
            *counts.entry(d).or_insert(0usize) += 1;
        }
        let max = counts.values().copied().max().unwrap();
        assert!(max > 3 * t.len() / 100, "max count {max}");
    }

    /// FNV-1a over 64-bit words, low byte first.
    fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in words {
            for b in w.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// The trace generators' streams, pinned directly (the dataplane
    /// goldens pin them only through a whole run). Constants computed
    /// at 8c43d71, before `Trace6` / `AddressPool6` were folded into the
    /// generic types.
    #[test]
    fn generated_streams_are_pinned() {
        use crate::{generate6, preset, PresetName};
        let v4 = preset(PresetName::BL).generate(&synth::small(11), 5_000, 5);
        assert_eq!(
            fnv1a(v4.destinations().iter().map(|&d| d as u64)),
            0xe99d2febd8e7650f,
            "B_L preset stream drifted"
        );
        let v6 = generate6(&spal_rib::v6::synthesize6_dfz(3_000, 11), 400, 5_000, 5);
        assert_eq!(
            fnv1a(
                v6.destinations()
                    .iter()
                    .flat_map(|&d| [(d >> 64) as u64, d as u64])
            ),
            0xfb0cc45331355e61,
            "generate6 stream drifted"
        );
    }
}
