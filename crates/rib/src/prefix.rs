//! CIDR prefixes of any address width, with the tri-state bit view the
//! SPAL partitioner uses.

use crate::bits::{AddressBits, TriBit};
use std::fmt;
use std::str::FromStr;

/// Errors produced when constructing or parsing a [`Prefix`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefixError {
    /// The prefix length exceeds the address width.
    LengthOutOfRange(u8),
    /// Bits below the prefix length are set (`bits & !mask != 0`). The
    /// bits are carried widened, so one variant describes either width.
    NonCanonicalBits { bits: u128, len: u8 },
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

/// A prefix over addresses of type `A` (`u32` for IPv4, the default;
/// `u128` for IPv6, spelled [`crate::v6::Prefix6`]): the top `len` bits
/// of `bits` are significant, the rest are zero (canonical form). Bit 0
/// is the most significant bit, matching the paper's `b0 b1 …`
/// numbering.
///
/// ```
/// use spal_rib::Prefix;
/// let p: Prefix = "192.168.0.0/16".parse().unwrap();
/// assert_eq!(p.len(), 16);
/// assert!(p.matches(0xC0A8_1234)); // 192.168.18.52
/// assert!(!p.matches(0xC0A9_0000)); // 192.169.0.0
/// ```
#[derive(Clone, Copy, Eq, Hash, PartialOrd, Ord)]
#[allow(clippy::derived_hash_with_manual_eq)] // see the `PartialEq` impl below
pub struct Prefix<A: AddressBits = u32> {
    bits: A,
    len: u8,
}

/// Written out to compare `bits` first, as the derive does for a
/// concrete `u32` field: on a generic field it compares the scalar
/// `len` first, and `len` is equal for half of a /24-heavy table, which
/// makes the branch of a linear scan over prefixes unpredictable
/// (measured on one that is gone, `update_stream`'s former duplicate
/// check: 1.4 s → 5.5 s for 6 000 updates over 1M routes).
/// Same relation as the derive, so the derived `Hash` stays consistent.
impl<A: AddressBits> PartialEq for Prefix<A> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.bits == other.bits && self.len == other.len
    }
}

// `len` is a bit count, not a container length; `is_empty` is meaningless.
#[allow(clippy::len_without_is_empty)]
impl<A: AddressBits> Prefix<A> {
    /// The zero-length default prefix (`0.0.0.0/0`, `::/0`), matching
    /// every address.
    pub const DEFAULT: Self = Prefix {
        bits: A::ZERO,
        len: 0,
    };

    /// Construct a prefix, canonicalising `bits` by masking off everything
    /// beyond `len`. Returns an error only if `len > A::BITS`.
    pub fn new(bits: A, len: u8) -> Result<Self, PrefixError> {
        if len > A::BITS {
            return Err(PrefixError::LengthOutOfRange(len));
        }
        Ok(Prefix {
            bits: bits & A::prefix_mask(len),
            len,
        })
    }

    /// Construct a prefix, requiring `bits` to already be canonical
    /// (no set bits beyond `len`).
    pub fn new_strict(bits: A, len: u8) -> Result<Self, PrefixError> {
        if len > A::BITS {
            return Err(PrefixError::LengthOutOfRange(len));
        }
        if bits & !A::prefix_mask(len) != A::ZERO {
            return Err(PrefixError::NonCanonicalBits {
                bits: bits.into(),
                len,
            });
        }
        Ok(Prefix { bits, len })
    }

    /// The canonical prefix bits (MSB-aligned, zero beyond `len`).
    #[inline]
    pub fn bits(self) -> A {
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
    pub fn matches(self, addr: A) -> bool {
        addr & A::prefix_mask(self.len) == self.bits
    }

    /// Tri-state value of bit `i` (the paper's `bν`): a concrete bit when
    /// `i < len`, `*` otherwise.
    ///
    /// # Panics
    /// Panics if `i >= A::BITS`.
    #[inline]
    pub fn tri_bit(self, i: u8) -> TriBit {
        assert!(i < A::BITS, "bit index {i} out of range");
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
    pub fn contains(self, other: Self) -> bool {
        self.len <= other.len && other.bits & A::prefix_mask(self.len) == self.bits
    }

    /// First address covered by the prefix.
    #[inline]
    pub fn first_addr(self) -> A {
        self.bits
    }

    /// Last address covered by the prefix.
    #[inline]
    pub fn last_addr(self) -> A {
        self.bits | !A::prefix_mask(self.len)
    }

    /// Number of addresses covered, saturating at `u64::MAX`: every IPv4
    /// prefix is exact (the /0 covers 2^32), an IPv6 prefix of length
    /// 64 or shorter covers 2^64 or more and reports `u64::MAX`.
    #[inline]
    pub fn size(self) -> u64 {
        1u64.checked_shl((A::BITS - self.len) as u32)
            .unwrap_or(u64::MAX)
    }

    /// The two children one bit longer than `self`, or `None` for a
    /// full-length prefix.
    pub fn children(self) -> Option<(Self, Self)> {
        if self.len >= A::BITS {
            return None;
        }
        let len = self.len + 1;
        let left = Prefix {
            bits: self.bits,
            len,
        };
        let right = Prefix {
            bits: self.bits | (A::prefix_mask(len) & !A::prefix_mask(self.len)),
            len,
        };
        Some((left, right))
    }

    /// The parent prefix one bit shorter, or `None` for the default route.
    pub fn parent(self) -> Option<Self> {
        if self.len == 0 {
            return None;
        }
        let len = self.len - 1;
        Some(Prefix {
            bits: self.bits & A::prefix_mask(len),
            len,
        })
    }
}

impl<A: AddressBits> fmt::Debug for Prefix<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Prefix({self})")
    }
}

impl<A: AddressBits> fmt::Display for Prefix<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.bits.fmt_addr(f)?;
        write!(f, "/{}", self.len)
    }
}

impl FromStr for Prefix<u32> {
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
pub(crate) mod tests {
    use super::*;

    /// Every case named runs once at 32 and once at 128 bits.
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
    pub(crate) use for_both_widths;

    /// The address whose leading bytes are `bytes` and whose remaining
    /// bits are zero, at either width: `addr(&[10, 1])` is `10.1.0.0`
    /// and `0a01::`.
    pub(crate) fn addr<A: AddressBits>(bytes: &[u8]) -> A {
        let mut a = A::ZERO;
        for (i, &byte) in bytes.iter().enumerate() {
            for b in (0..8u8).filter(|b| byte & (0x80 >> b) != 0) {
                let pos = i as u8 * 8 + b;
                a = a | (A::prefix_mask(pos + 1) & !A::prefix_mask(pos));
            }
        }
        a
    }

    pub(crate) fn prefix<A: AddressBits>(bytes: &[u8], len: u8) -> Prefix<A> {
        Prefix::new(addr(bytes), len).unwrap()
    }

    for_both_widths!(
        construction_canonicalises,
        strict_rejects_noncanonical,
        length_out_of_range,
        matches_boundaries,
        default_matches_everything,
        tri_bit_view,
        containment,
        children_and_parent_roundtrip,
        first_last_addr_and_size,
    );

    fn construction_canonicalises<A: AddressBits>() {
        let p = Prefix::<A>::new(!A::ZERO, 16).unwrap();
        assert_eq!(p.bits(), addr(&[0xFF, 0xFF]));
        assert_eq!(p.len(), 16);
    }

    fn strict_rejects_noncanonical<A: AddressBits>() {
        let low_bit = !A::prefix_mask(A::BITS - 1);
        let bits = addr::<A>(&[0xC0, 0xA8]) | low_bit;
        assert_eq!(
            Prefix::new_strict(bits, 16).unwrap_err(),
            PrefixError::NonCanonicalBits {
                bits: bits.into(),
                len: 16
            }
        );
        assert_eq!(
            Prefix::new_strict(addr::<A>(&[0xC0, 0xA8]), 16),
            Ok(prefix(&[0xC0, 0xA8], 16))
        );
        assert_eq!(Prefix::new_strict(bits, A::BITS).unwrap().bits(), bits);
        assert!(Prefix::<A>::new_strict(A::ZERO, A::BITS + 1).is_err());
    }

    fn length_out_of_range<A: AddressBits>() {
        assert_eq!(
            Prefix::<A>::new(A::ZERO, A::BITS + 1).unwrap_err(),
            PrefixError::LengthOutOfRange(A::BITS + 1)
        );
        assert!(Prefix::<A>::new(A::ZERO, A::BITS).is_ok());
    }

    fn matches_boundaries<A: AddressBits>() {
        let p = prefix::<A>(&[10], 8);
        assert!(p.matches(addr(&[10])));
        assert!(p.matches(addr::<A>(&[10]) | !A::prefix_mask(8)));
        assert!(!p.matches(addr(&[11])));
        assert!(!p.matches(addr::<A>(&[9]) | !A::prefix_mask(8)));
    }

    fn default_matches_everything<A: AddressBits>() {
        let d = Prefix::<A>::DEFAULT;
        assert!(d.is_default());
        assert!(d.matches(A::ZERO));
        assert!(d.matches(!A::ZERO));
        assert_eq!(d.first_addr(), A::ZERO);
        assert_eq!(d.last_addr(), !A::ZERO);
    }

    fn tri_bit_view<A: AddressBits>() {
        // 101* in the paper's 8-bit example corresponds to a /3 here.
        let p = prefix::<A>(&[0b1010_0000], 3);
        assert_eq!(p.tri_bit(0), TriBit::One);
        assert_eq!(p.tri_bit(1), TriBit::Zero);
        assert_eq!(p.tri_bit(2), TriBit::One);
        assert_eq!(p.tri_bit(3), TriBit::Wild);
        assert_eq!(p.tri_bit(A::BITS - 1), TriBit::Wild);
    }

    fn containment<A: AddressBits>() {
        let a = prefix::<A>(&[10], 8);
        let b = prefix::<A>(&[10, 1], 16);
        let c = prefix::<A>(&[11], 8);
        assert!(a.contains(b));
        assert!(!b.contains(a));
        assert!(a.contains(a));
        assert!(!a.contains(c));
        assert!(Prefix::DEFAULT.contains(a));
    }

    fn children_and_parent_roundtrip<A: AddressBits>() {
        let p = prefix::<A>(&[10], 8);
        let (l, r) = p.children().unwrap();
        assert_eq!(l, prefix(&[10, 0], 9));
        assert_eq!(r, prefix(&[10, 128], 9));
        assert_eq!(l.parent().unwrap(), p);
        assert_eq!(r.parent().unwrap(), p);
        // The edges: a full-length prefix has no children (its right
        // child's bit would lie past the address), the default no parent.
        let host = Prefix::<A>::new(!A::ZERO, A::BITS).unwrap();
        assert!(host.children().is_none());
        assert_eq!(
            host.parent().unwrap().children().unwrap().1,
            host,
            "the last address is its parent's right child"
        );
        assert!(Prefix::<A>::DEFAULT.parent().is_none());
        let (l, r) = Prefix::<A>::DEFAULT.children().unwrap();
        assert_eq!((l, r), (prefix(&[0], 1), prefix(&[128], 1)));
    }

    fn first_last_addr_and_size<A: AddressBits>() {
        let p = prefix::<A>(&[192, 168, 1], 24);
        assert_eq!(p.first_addr(), addr(&[192, 168, 1]));
        assert_eq!(
            p.last_addr(),
            addr::<A>(&[192, 168, 1]) | !A::prefix_mask(24)
        );
        // 2^8 at 32 bits; 2^104 at 128, which saturates.
        assert_eq!(p.size(), if A::BITS == 32 { 256 } else { u64::MAX });
        let host = Prefix::<A>::new(!A::ZERO, A::BITS).unwrap();
        assert_eq!(host.last_addr(), host.first_addr());
        assert_eq!(host.size(), 1);
    }

    #[test]
    fn size_saturates_instead_of_overflowing() {
        assert_eq!(Prefix::<u32>::DEFAULT.size(), 1 << 32);
        assert_eq!("192.168.1.0/24".parse::<Prefix>().unwrap().size(), 256);
        assert_eq!(Prefix::<u128>::DEFAULT.size(), u64::MAX);
        assert_eq!(prefix::<u128>(&[0x20], 64).size(), u64::MAX);
        assert_eq!(prefix::<u128>(&[0x20], 65).size(), 1 << 63);
    }

    #[test]
    fn non_canonical_error_keeps_its_v4_text() {
        assert_eq!(
            Prefix::new_strict(0xC0A8_0001u32, 16)
                .unwrap_err()
                .to_string(),
            "prefix bits 0xc0a80001 have set bits beyond length 16"
        );
    }

    #[test]
    fn display_and_parse_roundtrip() {
        for s in ["0.0.0.0/0", "10.0.0.0/8", "192.168.1.0/24", "1.2.3.4/32"] {
            let p: Prefix = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
        assert_eq!(
            prefix::<u128>(&[0x20, 0x01, 0x0d, 0xb8], 32).to_string(),
            "2001:db8:0:0:0:0:0:0/32"
        );
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
}
