//! Address widths the LR-cache can key on.
//!
//! The paper's cache stores IPv4 destinations, but the §3.2 machinery
//! (set probe, W/M status bits, mix-aware replacement, prefix-targeted
//! invalidation) never looks *inside* an address beyond indexing and
//! prefix masking, so the cache is generic over a [`CacheAddr`]:
//! `u32` (IPv4, the default type parameter) or `u128` (IPv6).

/// An address type the LR-cache can index and prefix-match.
pub trait CacheAddr: Copy + Eq + std::hash::Hash + std::fmt::Debug {
    /// Address width in bits (32 for IPv4, 128 for IPv6).
    const BITS: u8;

    /// The all-zero address (what an empty cache slot's tag holds).
    const ZERO: Self;

    /// Low bits of the address: the set index before masking.
    fn low_bits(self) -> usize;

    /// Whether this address falls under `prefix_bits/prefix_len`
    /// (`prefix_len == 0` covers everything).
    fn covered_by(self, prefix_bits: Self, prefix_len: u8) -> bool;
}

impl CacheAddr for u32 {
    const BITS: u8 = 32;
    const ZERO: u32 = 0;

    #[inline]
    fn low_bits(self) -> usize {
        self as usize
    }

    #[inline]
    fn covered_by(self, prefix_bits: u32, prefix_len: u8) -> bool {
        debug_assert!(prefix_len <= 32);
        let mask = if prefix_len == 0 {
            0
        } else {
            u32::MAX << (32 - prefix_len)
        };
        self & mask == prefix_bits & mask
    }
}

impl CacheAddr for u128 {
    const BITS: u8 = 128;
    const ZERO: u128 = 0;

    #[inline]
    fn low_bits(self) -> usize {
        self as usize
    }

    #[inline]
    fn covered_by(self, prefix_bits: u128, prefix_len: u8) -> bool {
        debug_assert!(prefix_len <= 128);
        let mask = if prefix_len == 0 {
            0
        } else {
            u128::MAX << (128 - prefix_len)
        };
        self & mask == prefix_bits & mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v4_coverage_edges() {
        assert!(0xFFFF_FFFFu32.covered_by(0, 0));
        assert!(0u32.covered_by(0, 0));
        assert!(0x0A00_0001u32.covered_by(0x0A00_0000, 8));
        assert!(!0x0B00_0001u32.covered_by(0x0A00_0000, 8));
        assert!(0x0A00_0001u32.covered_by(0x0A00_0001, 32));
        assert!(!0x0A00_0001u32.covered_by(0x0A00_0000, 32));
    }

    #[test]
    fn v6_coverage_edges() {
        let a: u128 = 0x2001_0db8_0000_0000_0000_0000_0000_0001;
        assert!(a.covered_by(0, 0));
        assert!(a.covered_by(0x2001_0db8_0000_0000_0000_0000_0000_0000, 32));
        assert!(!a.covered_by(0x2001_0db9_0000_0000_0000_0000_0000_0000, 32));
        assert!(a.covered_by(a, 128));
        assert!(!a.covered_by(a ^ 1, 128));
    }
}
