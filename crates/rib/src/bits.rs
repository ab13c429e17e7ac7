//! Bit-level address abstractions shared by IPv4 and IPv6 code paths.

use std::fmt::{self, Debug};
use std::hash::Hash;
use std::ops::{BitAnd, BitOr, Not};

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
pub trait AddressBits:
    Copy
    + Clone
    + Eq
    + Ord
    + Hash
    + Debug
    + Send
    + Sync
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + Not<Output = Self>
    + Into<u128>
    + 'static
{
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

    /// Number of leading bits on which `self` and `other` agree.
    fn common_prefix_len(self, other: Self) -> u8;

    /// Extract `count` bits starting at bit `start` (MSB-first) as a `u32`.
    /// `count` must be `<= 32`.
    fn extract(self, start: u8, count: u8) -> u32;

    /// Write the address in its family's text form: dotted quad for
    /// IPv4, full (uncompressed) colon-hex for IPv6.
    fn fmt_addr(self, f: &mut fmt::Formatter<'_>) -> fmt::Result;
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

    fn fmt_addr(self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.to_be_bytes();
        write!(f, "{}.{}.{}.{}", b[0], b[1], b[2], b[3])
    }
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

    fn fmt_addr(self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for g in 0..8 {
            let sep = if g == 0 { "" } else { ":" };
            write!(f, "{sep}{:x}", (self >> (112 - 16 * g)) as u16)?;
        }
        Ok(())
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
