//! The batch-identity check of the differential battery, in a file of
//! its own so a suite can include it without the update-stream driver
//! (`dfz_stress.rs`).

use proptest::prelude::*;
use spal_lpm::{CountedLookup, Lpm};
use spal_rib::bits::AddressBits;

/// `lookup_batch` must be bit-identical to per-address `lookup_counted`
/// — next hop, access count, line count — and `forward_batch` and
/// `lookup` must yield the counted path's next hops, feeding `addrs`
/// through in batches of `batch` (and once as the empty batch).
pub fn check_batches<A: AddressBits>(
    lpm: &dyn Lpm<A>,
    addrs: &[A],
    batch: usize,
) -> Result<(), TestCaseError> {
    lpm.lookup_batch(&[], &mut []);
    lpm.forward_batch(&[], &mut []);
    let mut out = vec![CountedLookup::MISS; addrs.len()];
    let mut fwd = vec![None; addrs.len()];
    for ((chunk, chunk_out), chunk_fwd) in addrs
        .chunks(batch)
        .zip(out.chunks_mut(batch))
        .zip(fwd.chunks_mut(batch))
    {
        lpm.lookup_batch(chunk, chunk_out);
        lpm.forward_batch(chunk, chunk_fwd);
    }
    for (i, &addr) in addrs.iter().enumerate() {
        let want = lpm.lookup_counted(addr);
        prop_assert_eq!(
            out[i],
            want,
            "{}: lookup_batch diverged from lookup_counted at index {} addr {:#x} (batch size {})",
            lpm.name(),
            i,
            addr.into(),
            batch
        );
        prop_assert_eq!(
            (fwd[i], lpm.lookup(addr)),
            (want.next_hop, want.next_hop),
            "{}: forward_batch / lookup diverged from lookup_counted at index {} addr {:#x} \
             (batch size {})",
            lpm.name(),
            i,
            addr.into(),
            batch
        );
    }
    Ok(())
}
