//! Messages exchanged across the switching fabric.
//!
//! All message types are generic over the address width [`FabricAddr`]
//! (`u32` IPv4, the default type parameter, or `u128` IPv6), so the
//! same ring/outbox/coalescing machinery serves both dataplanes; a bare
//! `FabricMsg` is the IPv4 message the v4 runtime always used.

/// An address a fabric message can carry: plain old data wide enough
/// for one destination IP.
pub trait FabricAddr: Copy + Default + Eq + std::fmt::Debug + 'static {}
impl FabricAddr for u32 {}
impl FabricAddr for u128 {}

/// Maximum addresses one batch message carries. Batch payloads are
/// fixed-size inline arrays (the SPSC ring requires `Copy` slots, so no
/// heap indirection): at 32 lanes a v4 `FabricMsg` is ~290 bytes, which
/// keeps per-packet ring traffic under 10 bytes once a dataplane
/// worker coalesces its misses, without bloating ring memory the way a
/// cache-line-per-address layout would. (A v6 batch message is ~4×
/// larger — still far below a line per address.)
pub const BATCH_MSG_LANES: usize = 32;

/// Payload of a [`MsgKind::BatchRequest`]: up to [`BATCH_MSG_LANES`]
/// addresses homed on the destination LC, coalesced from one sender
/// iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrBatch<A: FabricAddr = u32> {
    len: u8,
    addrs: [A; BATCH_MSG_LANES],
}

impl<A: FabricAddr> AddrBatch<A> {
    /// Pack a slice of addresses.
    ///
    /// # Panics
    /// Panics if the slice is empty or longer than [`BATCH_MSG_LANES`].
    pub fn from_slice(addrs: &[A]) -> Self {
        assert!(
            !addrs.is_empty() && addrs.len() <= BATCH_MSG_LANES,
            "batch of {} addresses (lanes: {BATCH_MSG_LANES})",
            addrs.len()
        );
        let mut packed = [A::default(); BATCH_MSG_LANES];
        packed[..addrs.len()].copy_from_slice(addrs);
        AddrBatch {
            len: addrs.len() as u8,
            addrs: packed,
        }
    }

    /// Append one address; `false`, and no change, when every lane is
    /// taken.
    pub fn push(&mut self, addr: A) -> bool {
        let n = self.len as usize;
        if n == BATCH_MSG_LANES {
            return false;
        }
        self.addrs[n] = addr;
        self.len += 1;
        true
    }

    /// The packed addresses, in sender order.
    pub fn addrs(&self) -> &[A] {
        &self.addrs[..self.len as usize]
    }

    /// Number of addresses carried.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the batch carries nothing (never true for a constructed
    /// batch; present for clippy's `len`-without-`is_empty` lint).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Payload of a [`MsgKind::BatchReply`]: up to [`BATCH_MSG_LANES`]
/// `(address, next_hop)` results, all computed against the same table
/// version (the carrying message's `sent_at`). The home LC answers each
/// request lane as it resolves — a cache hit at once, a miss through
/// `fe_flush`'s one `forward_batch` over its whole FE queue — and each
/// answer joins the newest reply queued for the requester at that
/// version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyBatch<A: FabricAddr = u32> {
    len: u8,
    addrs: [A; BATCH_MSG_LANES],
    next_hops: [Option<u16>; BATCH_MSG_LANES],
}

impl<A: FabricAddr> ReplyBatch<A> {
    /// Pack `(address, next_hop)` pairs.
    ///
    /// # Panics
    /// Panics if the slice is empty or longer than [`BATCH_MSG_LANES`].
    pub fn from_pairs(pairs: &[(A, Option<u16>)]) -> Self {
        assert!(
            !pairs.is_empty() && pairs.len() <= BATCH_MSG_LANES,
            "batch of {} replies (lanes: {BATCH_MSG_LANES})",
            pairs.len()
        );
        let mut addrs = [A::default(); BATCH_MSG_LANES];
        let mut next_hops = [None; BATCH_MSG_LANES];
        for (i, &(a, nh)) in pairs.iter().enumerate() {
            addrs[i] = a;
            next_hops[i] = nh;
        }
        ReplyBatch {
            len: pairs.len() as u8,
            addrs,
            next_hops,
        }
    }

    /// Append one result; `false`, and no change, when every lane is
    /// taken.
    pub fn push(&mut self, addr: A, next_hop: Option<u16>) -> bool {
        let n = self.len as usize;
        if n == BATCH_MSG_LANES {
            return false;
        }
        self.addrs[n] = addr;
        self.next_hops[n] = next_hop;
        self.len += 1;
        true
    }

    /// Iterate the packed `(address, next_hop)` pairs in sender order.
    pub fn iter(&self) -> impl Iterator<Item = (A, Option<u16>)> + '_ {
        (0..self.len as usize).map(move |i| (self.addrs[i], self.next_hops[i]))
    }

    /// Number of results carried.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the batch carries nothing (never true for a constructed
    /// batch; present for clippy's `len`-without-`is_empty` lint).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// What a fabric message carries.
///
/// Requests travel from a packet's arrival LC to its home LC; replies
/// carry the lookup result back (§3.3). Identifiers are raw `u16`s so
/// this crate stays dependency-free; `spal-core` maps them to `NextHop`.
/// The simulator sends the scalar kinds. The threaded dataplane sends
/// only the batch kinds — a lone address is a one-lane batch — with the
/// same per-address semantics on the receiving side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgKind<A: FabricAddr = u32> {
    /// "Look this address up for me" — routed by the partitioning bits.
    Request,
    /// The lookup result: `Some(next_hop)` or `None` for a routing miss.
    Reply { next_hop: Option<u16> },
    /// Coalesced requests: every address is homed on the destination LC.
    BatchRequest(AddrBatch<A>),
    /// Coalesced replies, all stamped with the carrying message's
    /// `sent_at` table version.
    BatchReply(ReplyBatch<A>),
}

/// One message in flight over the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricMsg<A: FabricAddr = u32> {
    pub kind: MsgKind<A>,
    /// Originating LC (the reply's destination, read by the LR2 detector).
    pub src: u16,
    /// Destination LC (the home LC for requests).
    pub dst: u16,
    /// The packet's destination IP address.
    pub addr: A,
    /// Simulator-level packet identity (latency accounting). Unused by
    /// the dataplane, which sends 0.
    pub packet_id: u64,
    /// Simulator: the cycle the message entered the fabric. Dataplane:
    /// the table version a reply was computed against (0 on requests).
    pub sent_at: u64,
}

impl<A: FabricAddr> FabricMsg<A> {
    /// Whether this is a request (scalar or batch).
    pub fn is_request(&self) -> bool {
        matches!(self.kind, MsgKind::Request | MsgKind::BatchRequest(_))
    }

    /// Number of addresses this message carries (1 for scalar kinds).
    pub fn lanes(&self) -> usize {
        match &self.kind {
            MsgKind::Request | MsgKind::Reply { .. } => 1,
            MsgKind::BatchRequest(b) => b.len(),
            MsgKind::BatchReply(b) => b.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        let req = FabricMsg {
            kind: MsgKind::Request,
            src: 0,
            dst: 1,
            addr: 42u32,
            packet_id: 7,
            sent_at: 100,
        };
        assert!(req.is_request());
        assert_eq!(req.lanes(), 1);
        let rep = FabricMsg {
            kind: MsgKind::Reply { next_hop: Some(3) },
            ..req
        };
        assert!(!rep.is_request());
    }

    #[test]
    fn addr_batch_packs_and_unpacks() {
        let addrs: Vec<u32> = (0..7).map(|i| 0x0A00_0000 + i).collect();
        let b = AddrBatch::from_slice(&addrs);
        assert_eq!(b.len(), 7);
        assert!(!b.is_empty());
        assert_eq!(b.addrs(), &addrs[..]);
        let msg = FabricMsg {
            kind: MsgKind::BatchRequest(b),
            src: 2,
            dst: 0,
            addr: addrs[0],
            packet_id: 0,
            sent_at: 0,
        };
        assert!(msg.is_request());
        assert_eq!(msg.lanes(), 7);
    }

    #[test]
    fn push_fills_the_free_lanes_then_refuses() {
        let mut b = AddrBatch::from_slice(&[1u32]);
        let mut r = ReplyBatch::from_pairs(&[(1u32, Some(1))]);
        for i in 2..=BATCH_MSG_LANES as u32 {
            assert!(b.push(i));
            assert!(r.push(i, (i % 2 == 0).then_some(i as u16)));
        }
        assert!(!b.push(0));
        assert!(!r.push(0, None));
        let lanes: Vec<u32> = (1..=BATCH_MSG_LANES as u32).collect();
        assert_eq!(b.addrs(), &lanes[..]);
        assert_eq!(r.len(), BATCH_MSG_LANES);
        assert_eq!(r.iter().last(), Some((BATCH_MSG_LANES as u32, Some(32))));
    }

    #[test]
    fn reply_batch_preserves_pairs_in_order() {
        let pairs: Vec<(u32, Option<u16>)> = (0..BATCH_MSG_LANES as u32)
            .map(|i| (i * 13, if i % 3 == 0 { None } else { Some(i as u16) }))
            .collect();
        let b = ReplyBatch::from_pairs(&pairs);
        assert_eq!(b.len(), BATCH_MSG_LANES);
        assert_eq!(b.iter().collect::<Vec<_>>(), pairs);
        let msg = FabricMsg {
            kind: MsgKind::BatchReply(b),
            src: 0,
            dst: 2,
            addr: pairs[0].0,
            packet_id: 0,
            sent_at: 9,
        };
        assert!(!msg.is_request());
        assert_eq!(msg.lanes(), BATCH_MSG_LANES);
    }

    #[test]
    fn v6_messages_carry_full_width_addresses() {
        let addrs: Vec<u128> = (0..5u128).map(|i| (0x2001_0db8 + i) << 96 | i).collect();
        let b: AddrBatch<u128> = AddrBatch::from_slice(&addrs);
        assert_eq!(b.addrs(), &addrs[..]);
        let msg: FabricMsg<u128> = FabricMsg {
            kind: MsgKind::BatchRequest(b),
            src: 1,
            dst: 3,
            addr: addrs[0],
            packet_id: 0,
            sent_at: 0,
        };
        assert!(msg.is_request());
        assert_eq!(msg.lanes(), 5);
        let pairs: Vec<(u128, Option<u16>)> =
            addrs.iter().map(|&a| (a, Some((a & 0xF) as u16))).collect();
        let rb: ReplyBatch<u128> = ReplyBatch::from_pairs(&pairs);
        assert_eq!(rb.iter().collect::<Vec<_>>(), pairs);
    }

    #[test]
    #[should_panic]
    fn oversized_addr_batch_rejected() {
        let addrs = vec![0u32; BATCH_MSG_LANES + 1];
        let _ = AddrBatch::from_slice(&addrs);
    }

    #[test]
    #[should_panic]
    fn empty_reply_batch_rejected() {
        let _ = ReplyBatch::<u32>::from_pairs(&[]);
    }
}
