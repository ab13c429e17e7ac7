//! Routing-table substrate for the SPAL reproduction.
//!
//! This crate provides everything the rest of the workspace needs to talk
//! about IP routes:
//!
//! * [`Prefix`] — a CIDR prefix with the bit-level accessors the SPAL
//!   partitioning algorithm needs (`0` / `1` / `*` per bit position),
//!   generic over the address width ([`AddressBits`]; `u32` unless said
//!   otherwise, so `Prefix` alone is the IPv4 prefix),
//! * [`RoutingTable`] — an in-memory BGP-style routing table with a
//!   reference longest-prefix match (one binary search per prefix length)
//!   used as a test oracle, generic the same way,
//! * [`synth`] — deterministic synthetic generators standing in for the two
//!   tables evaluated in the paper (FUNET "RT_1", 41,709 prefixes; AS1221
//!   "RT_2", 140,838 prefixes), and
//! * [`v6`] — the IPv6 table synthesizers and the `Prefix6` /
//!   `RoutingTable6` spellings of the types above at `u128` (the paper's
//!   §6 claims SPAL is "feasibly applicable to IPv6").
//!
//! The original table files are long gone; see `DESIGN.md` (substitution 1)
//! for why synthetic tables with the published size and length distribution
//! preserve the behaviour every experiment depends on.

pub mod bits;
pub mod parse;
pub mod prefix;
pub mod stats;
pub mod synth;
pub mod table;
pub mod updates;
pub mod v6;

pub use bits::{AddressBits, TriBit};
pub use prefix::{Prefix, PrefixError};
pub use table::{NextHop, RouteEntry, RoutingTable};
