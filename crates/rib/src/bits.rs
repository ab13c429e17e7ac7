//! Bit-level address abstractions shared by IPv4 and IPv6 code paths.

use std::fmt::Debug;
use std::hash::Hash;

/// One bit position of a prefix as seen by the partitioning algorithm:
/// a concrete `0`, a concrete `1`, or `*` (the position lies beyond the
/// prefix length, so the prefix matches addresses with either value there).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TriBit {
    /// The bit is a concrete `0` inside the prefix.
    Zero,
    /// The bit is a concrete `1` inside the prefix.
    One,
    /// The position is past the prefix length (don't-care).
    Wild,
}

impl TriBit {
    /// Whether this tri-state bit is compatible with a concrete bit value.
    /// `Wild` matches both values.
    #[inline]
    pub fn matches(self, bit: bool) -> bool {
        match self {
            TriBit::Zero => !bit,
            TriBit::One => bit,
            TriBit::Wild => true,
        }
    }
}

/// An unsigned integer type usable as a big-endian IP address: bit 0 is the
/// most significant bit, as in dotted-quad notation and in the paper's
/// `b0 b1 …` convention.
pub trait AddressBits: Copy + Clone + Eq + Ord + Hash + Debug + Send + Sync + 'static {
    /// Address width in bits (32 for IPv4, 128 for IPv6).
    const BITS: u8;
    /// The all-zero address.
    const ZERO: Self;

    /// Value of bit `i`, where `i = 0` is the most significant bit.
    ///
    /// # Panics
    /// Panics if `i >= Self::BITS`.
    fn bit(self, i: u8) -> bool;

    /// A mask with the top `len` bits set. `len` may be `0..=Self::BITS`.
    fn prefix_mask(len: u8) -> Self;

    /// Bitwise AND, used to canonicalise prefixes.
    fn and(self, other: Self) -> Self;

    /// Number of leading bits on which `self` and `other` agree.
    fn common_prefix_len(self, other: Self) -> u8;

    /// Extract `count` bits starting at bit `start` (MSB-first) as a `u32`.
    /// `count` must be `<= 32`.
    fn extract(self, start: u8, count: u8) -> u32;
}

impl AddressBits for u32 {
    const BITS: u8 = 32;
    const ZERO: Self = 0;

    #[inline]
    fn bit(self, i: u8) -> bool {
        assert!(i < 32, "bit index {i} out of range for u32");
        (self >> (31 - i)) & 1 == 1
    }

    #[inline]
    fn prefix_mask(len: u8) -> Self {
        assert!(len <= 32, "prefix length {len} out of range for u32");
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    #[inline]
    fn and(self, other: Self) -> Self {
        self & other
    }

    #[inline]
    fn common_prefix_len(self, other: Self) -> u8 {
        (self ^ other).leading_zeros() as u8
    }

    #[inline]
    fn extract(self, start: u8, count: u8) -> u32 {
        assert!(count <= 32 && start <= 32 && start + count <= 32);
        if count == 0 {
            return 0;
        }
        (self >> (32 - start - count)) & (u32::MAX >> (32 - count))
    }
}

/// A CIDR prefix of any address width, as the SPAL partitioner sees it:
/// a length plus tri-state bits. Implemented by the IPv4 [`crate::Prefix`]
/// and the IPv6 [`crate::v6::Prefix6`], which lets `spal-core`'s bit
/// selection and ROT-partitioning run unchanged on both families (§6:
/// "SPAL is feasibly applicable to IPv6").
#[allow(clippy::len_without_is_empty)] // `len` is a bit count, not a container
pub trait IpPrefix: Copy + Eq + Hash + Debug + Send + Sync + 'static {
    /// The address type this prefix matches.
    type Addr: AddressBits;

    /// The prefix bits, left-aligned; bits beyond `len` are zero.
    fn bits(self) -> Self::Addr;

    /// Prefix length in bits.
    fn len(self) -> u8;

    /// Tri-state value of bit `i` (0 = MSB): concrete inside the prefix,
    /// `*` beyond its length.
    fn tri_bit(self, i: u8) -> TriBit;

    /// Whether `addr` lies inside this prefix.
    fn matches(self, addr: Self::Addr) -> bool;
}

/// A routing table of either address width, as the SPAL partitioner
/// sees it: a set of routes it reads, splits into per-LC fragments and
/// rebuilds. Implemented by the IPv4 [`crate::RoutingTable`] and the
/// IPv6 [`crate::v6::RoutingTable6`].
pub trait IpTable: Sized {
    /// The prefix type of this table's routes.
    type Prefix: IpPrefix;
    /// One route (prefix plus next hop).
    type Entry: Copy;

    /// Build from routes; duplicate prefixes keep the last next hop.
    fn from_entries(entries: Vec<Self::Entry>) -> Self;

    /// All routes, sorted by (prefix bits, length).
    fn entries(&self) -> &[Self::Entry];

    /// The prefix of one route.
    fn prefix_of(entry: &Self::Entry) -> Self::Prefix;
}

impl AddressBits for u128 {
    const BITS: u8 = 128;
    const ZERO: Self = 0;

    #[inline]
    fn bit(self, i: u8) -> bool {
        assert!(i < 128, "bit index {i} out of range for u128");
        (self >> (127 - i)) & 1 == 1
    }

    #[inline]
    fn prefix_mask(len: u8) -> Self {
        assert!(len <= 128, "prefix length {len} out of range for u128");
        if len == 0 {
            0
        } else {
            u128::MAX << (128 - len)
        }
    }

    #[inline]
    fn and(self, other: Self) -> Self {
        self & other
    }

    #[inline]
    fn common_prefix_len(self, other: Self) -> u8 {
        (self ^ other).leading_zeros() as u8
    }

    #[inline]
    fn extract(self, start: u8, count: u8) -> u32 {
        assert!(count <= 32);
        assert!(start as u16 + count as u16 <= 128);
        if count == 0 {
            return 0;
        }
        ((self >> (128 - start as u32 - count as u32)) as u32) & (u32::MAX >> (32 - count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_bit_msb_first() {
        let a: u32 = 0x8000_0001;
        assert!(a.bit(0));
        assert!(!a.bit(1));
        assert!(!a.bit(30));
        assert!(a.bit(31));
    }

    #[test]
    fn u32_prefix_mask_extremes() {
        assert_eq!(u32::prefix_mask(0), 0);
        assert_eq!(u32::prefix_mask(32), u32::MAX);
        assert_eq!(u32::prefix_mask(8), 0xFF00_0000);
        assert_eq!(u32::prefix_mask(24), 0xFFFF_FF00);
    }

    #[test]
    fn u32_common_prefix_len() {
        assert_eq!(0u32.common_prefix_len(0), 32);
        assert_eq!(0x8000_0000u32.common_prefix_len(0), 0);
        assert_eq!(0xFF00_0000u32.common_prefix_len(0xFF80_0000), 8);
    }

    #[test]
    fn u32_extract() {
        let a: u32 = 0xABCD_1234;
        assert_eq!(a.extract(0, 16), 0xABCD);
        assert_eq!(a.extract(16, 8), 0x12);
        assert_eq!(a.extract(24, 8), 0x34);
        assert_eq!(a.extract(0, 32), a);
        assert_eq!(a.extract(4, 0), 0);
    }

    #[test]
    fn u128_bit_msb_first() {
        let a: u128 = 1 << 127 | 1;
        assert!(a.bit(0));
        assert!(!a.bit(64));
        assert!(a.bit(127));
    }

    #[test]
    fn u128_prefix_mask_extremes() {
        assert_eq!(u128::prefix_mask(0), 0);
        assert_eq!(u128::prefix_mask(128), u128::MAX);
        assert_eq!(u128::prefix_mask(1), 1 << 127);
    }

    #[test]
    fn u128_extract_matches_u32_semantics() {
        let a: u128 = (0xABCD_1234u128) << 96;
        assert_eq!(a.extract(0, 16), 0xABCD);
        assert_eq!(a.extract(16, 16), 0x1234);
    }

    #[test]
    fn tribit_matching() {
        assert!(TriBit::Wild.matches(true));
        assert!(TriBit::Wild.matches(false));
        assert!(TriBit::One.matches(true));
        assert!(!TriBit::One.matches(false));
        assert!(TriBit::Zero.matches(false));
        assert!(!TriBit::Zero.matches(true));
    }

    #[test]
    #[should_panic]
    fn u32_bit_out_of_range_panics() {
        let _ = 0u32.bit(32);
    }
}
