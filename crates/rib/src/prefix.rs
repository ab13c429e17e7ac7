//! IPv4 CIDR prefixes with the tri-state bit view the SPAL partitioner uses.

use crate::bits::{AddressBits, TriBit};
use std::fmt;
use std::str::FromStr;

/// Errors produced when constructing or parsing a [`Prefix`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefixError {
    /// The prefix length exceeds 32.
    LengthOutOfRange(u8),
    /// Bits below the prefix length are set (`bits & !mask != 0`).
    NonCanonicalBits { bits: u32, len: u8 },
    /// A textual prefix could not be parsed.
    Parse(String),
}

impl fmt::Display for PrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefixError::LengthOutOfRange(len) => {
                write!(f, "prefix length {len} out of range (0..=32)")
            }
            PrefixError::NonCanonicalBits { bits, len } => write!(
                f,
                "prefix bits {bits:#010x} have set bits beyond length {len}"
            ),
            PrefixError::Parse(s) => write!(f, "cannot parse prefix from {s:?}"),
        }
    }
}

impl std::error::Error for PrefixError {}

/// An IPv4 prefix: the top `len` bits of `bits` are significant, the rest
/// are zero (canonical form). Bit 0 is the most significant bit, matching
/// the paper's `b0 b1 …` numbering.
///
/// ```
/// use spal_rib::Prefix;
/// let p: Prefix = "192.168.0.0/16".parse().unwrap();
/// assert_eq!(p.len(), 16);
/// assert!(p.matches(0xC0A8_1234)); // 192.168.18.52
/// assert!(!p.matches(0xC0A9_0000)); // 192.169.0.0
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Prefix {
    bits: u32,
    len: u8,
}

// `len` is a bit count, not a container length; `is_empty` is meaningless.
#[allow(clippy::len_without_is_empty)]
impl Prefix {
    /// The zero-length default prefix `0.0.0.0/0`, matching every address.
    pub const DEFAULT: Prefix = Prefix { bits: 0, len: 0 };

    /// Construct a prefix, canonicalising `bits` by masking off everything
    /// beyond `len`. Returns an error only if `len > 32`.
    pub fn new(bits: u32, len: u8) -> Result<Self, PrefixError> {
        if len > 32 {
            return Err(PrefixError::LengthOutOfRange(len));
        }
        Ok(Prefix {
            bits: bits & u32::prefix_mask(len),
            len,
        })
    }

    /// Construct a prefix, requiring `bits` to already be canonical
    /// (no set bits beyond `len`).
    pub fn new_strict(bits: u32, len: u8) -> Result<Self, PrefixError> {
        if len > 32 {
            return Err(PrefixError::LengthOutOfRange(len));
        }
        if bits & !u32::prefix_mask(len) != 0 {
            return Err(PrefixError::NonCanonicalBits { bits, len });
        }
        Ok(Prefix { bits, len })
    }

    /// The canonical prefix bits (MSB-aligned, zero beyond `len`).
    #[inline]
    pub fn bits(self) -> u32 {
        self.bits
    }

    /// The prefix length in bits.
    #[inline]
    pub fn len(self) -> u8 {
        self.len
    }

    /// Whether this is the zero-length default route.
    #[inline]
    pub fn is_default(self) -> bool {
        self.len == 0
    }

    /// Whether `addr` lies inside this prefix.
    #[inline]
    pub fn matches(self, addr: u32) -> bool {
        addr & u32::prefix_mask(self.len) == self.bits
    }

    /// Tri-state value of bit `i` (the paper's `bν`): a concrete bit when
    /// `i < len`, `*` otherwise.
    ///
    /// # Panics
    /// Panics if `i >= 32`.
    #[inline]
    pub fn tri_bit(self, i: u8) -> TriBit {
        assert!(i < 32, "bit index {i} out of range");
        if i >= self.len {
            TriBit::Wild
        } else if self.bits.bit(i) {
            TriBit::One
        } else {
            TriBit::Zero
        }
    }

    /// Whether this prefix contains `other` (i.e. `other` is equally or
    /// more specific and lies inside `self`). Every prefix contains itself.
    #[inline]
    pub fn contains(self, other: Prefix) -> bool {
        self.len <= other.len && other.bits & u32::prefix_mask(self.len) == self.bits
    }

    /// First address covered by the prefix.
    #[inline]
    pub fn first_addr(self) -> u32 {
        self.bits
    }

    /// Last address covered by the prefix.
    #[inline]
    pub fn last_addr(self) -> u32 {
        self.bits | !u32::prefix_mask(self.len)
    }

    /// Number of addresses covered, saturating at `u64` range (the /0
    /// prefix covers 2^32 addresses, which still fits in a `u64`).
    #[inline]
    pub fn size(self) -> u64 {
        1u64 << (32 - self.len)
    }

    /// The two children one bit longer than `self`, or `None` for /32s.
    pub fn children(self) -> Option<(Prefix, Prefix)> {
        if self.len >= 32 {
            return None;
        }
        let left = Prefix {
            bits: self.bits,
            len: self.len + 1,
        };
        let right = Prefix {
            bits: self.bits | (1u32 << (31 - self.len)),
            len: self.len + 1,
        };
        Some((left, right))
    }

    /// The parent prefix one bit shorter, or `None` for the default route.
    pub fn parent(self) -> Option<Prefix> {
        if self.len == 0 {
            return None;
        }
        let len = self.len - 1;
        Some(Prefix {
            bits: self.bits & u32::prefix_mask(len),
            len,
        })
    }
}

impl crate::bits::IpPrefix for Prefix {
    type Addr = u32;

    #[inline]
    fn bits(self) -> u32 {
        Prefix::bits(self)
    }

    #[inline]
    fn len(self) -> u8 {
        Prefix::len(self)
    }

    #[inline]
    fn tri_bit(self, i: u8) -> TriBit {
        Prefix::tri_bit(self, i)
    }

    #[inline]
    fn matches(self, addr: u32) -> bool {
        Prefix::matches(self, addr)
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Prefix({self})")
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.bits.to_be_bytes();
        write!(f, "{}.{}.{}.{}/{}", b[0], b[1], b[2], b[3], self.len)
    }
}

impl FromStr for Prefix {
    type Err = PrefixError;

    /// Parse `a.b.c.d/len` notation. The address part is canonicalised.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || PrefixError::Parse(s.to_string());
        let (addr_part, len_part) = s.split_once('/').ok_or_else(err)?;
        let len: u8 = len_part.trim().parse().map_err(|_| err())?;
        let mut octets = [0u8; 4];
        let mut n = 0;
        for part in addr_part.trim().split('.') {
            if n >= 4 {
                return Err(err());
            }
            octets[n] = part.parse().map_err(|_| err())?;
            n += 1;
        }
        if n != 4 {
            return Err(err());
        }
        Prefix::new(u32::from_be_bytes(octets), len)
    }
}

/// Format a raw IPv4 address as dotted-quad text (no prefix length).
pub fn format_addr(addr: u32) -> String {
    let b = addr.to_be_bytes();
    format!("{}.{}.{}.{}", b[0], b[1], b[2], b[3])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_canonicalises() {
        let p = Prefix::new(0xC0A8_FFFF, 16).unwrap();
        assert_eq!(p.bits(), 0xC0A8_0000);
        assert_eq!(p.len(), 16);
    }

    #[test]
    fn strict_rejects_noncanonical() {
        assert!(Prefix::new_strict(0xC0A8_0001, 16).is_err());
        assert!(Prefix::new_strict(0xC0A8_0000, 16).is_ok());
    }

    #[test]
    fn length_out_of_range() {
        assert_eq!(
            Prefix::new(0, 33).unwrap_err(),
            PrefixError::LengthOutOfRange(33)
        );
    }

    #[test]
    fn matches_boundaries() {
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        assert!(p.matches(0x0A00_0000));
        assert!(p.matches(0x0AFF_FFFF));
        assert!(!p.matches(0x0B00_0000));
        assert!(!p.matches(0x09FF_FFFF));
    }

    #[test]
    fn default_matches_everything() {
        assert!(Prefix::DEFAULT.matches(0));
        assert!(Prefix::DEFAULT.matches(u32::MAX));
        assert_eq!(Prefix::DEFAULT.size(), 1u64 << 32);
    }

    #[test]
    fn tri_bit_view() {
        // 101* in the paper's 8-bit example corresponds to a /3 here.
        let p = Prefix::new(0b1010_0000 << 24, 3).unwrap();
        assert_eq!(p.tri_bit(0), TriBit::One);
        assert_eq!(p.tri_bit(1), TriBit::Zero);
        assert_eq!(p.tri_bit(2), TriBit::One);
        assert_eq!(p.tri_bit(3), TriBit::Wild);
        assert_eq!(p.tri_bit(31), TriBit::Wild);
    }

    #[test]
    fn containment() {
        let a: Prefix = "10.0.0.0/8".parse().unwrap();
        let b: Prefix = "10.1.0.0/16".parse().unwrap();
        let c: Prefix = "11.0.0.0/8".parse().unwrap();
        assert!(a.contains(b));
        assert!(!b.contains(a));
        assert!(a.contains(a));
        assert!(!a.contains(c));
        assert!(Prefix::DEFAULT.contains(a));
    }

    #[test]
    fn children_and_parent_roundtrip() {
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        let (l, r) = p.children().unwrap();
        assert_eq!(l.to_string(), "10.0.0.0/9");
        assert_eq!(r.to_string(), "10.128.0.0/9");
        assert_eq!(l.parent().unwrap(), p);
        assert_eq!(r.parent().unwrap(), p);
        let host: Prefix = "1.2.3.4/32".parse().unwrap();
        assert!(host.children().is_none());
        assert!(Prefix::DEFAULT.parent().is_none());
    }

    #[test]
    fn display_and_parse_roundtrip() {
        for s in ["0.0.0.0/0", "10.0.0.0/8", "192.168.1.0/24", "1.2.3.4/32"] {
            let p: Prefix = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for s in [
            "",
            "1.2.3.4",
            "1.2.3/8",
            "1.2.3.4.5/8",
            "a.b.c.d/8",
            "1.2.3.4/33",
            "1.2.3.4/x",
        ] {
            assert!(s.parse::<Prefix>().is_err(), "{s} should not parse");
        }
    }

    #[test]
    fn first_last_addr() {
        let p: Prefix = "192.168.1.0/24".parse().unwrap();
        assert_eq!(p.first_addr(), 0xC0A8_0100);
        assert_eq!(p.last_addr(), 0xC0A8_01FF);
        assert_eq!(p.size(), 256);
    }
}
