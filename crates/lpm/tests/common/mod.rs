//! The differential battery every engine is held to, at either address
//! width: agreement with the routing table's linear longest-match,
//! bit-identity of the batch entry points with the scalar ones, and
//! `apply_delta` over an update stream against a fresh build. The
//! suites instantiate it per `(engine, width)` over their own
//! generators.

mod batches;
mod oracle;

pub use batches::check_batches;
pub use oracle::check_oracle;
use proptest::prelude::*;
use spal_lpm::Lpm;
use spal_rib::bits::AddressBits;
use spal_rib::updates::{apply, Update};
use spal_rib::{Prefix, RoutingTable};

/// The whole battery around an update stream. An engine built from
/// `base` passes [`check_oracle`] and [`check_batches`]; then `updates`
/// are replayed in chunks of `chunk` through [`Lpm::apply_delta`],
/// rebuilding with `build` whenever the engine declines a chunk (`None`
/// — that fallback is the contract, not a failure); then the patched
/// engine and a fresh build from the post-stream table both pass
/// [`check_oracle`], so they agree with each other, and the patched one
/// [`check_batches`]. `addrs` are the probes, `batch` the lookup batch
/// length. Returns how many chunks the engine declined.
pub fn check_delta_stream<A: AddressBits, L: Lpm<A>>(
    build: impl Fn(&RoutingTable<A>) -> L,
    base: &RoutingTable<A>,
    updates: &[Update<A>],
    chunk: usize,
    addrs: &[A],
    batch: usize,
) -> Result<usize, TestCaseError> {
    let mut engine = build(base);
    check_oracle(&engine, base, addrs)?;
    check_batches(&engine, addrs, batch)?;

    let mut rib = base.clone();
    let mut declined = 0;
    for burst in updates.chunks(chunk.max(1)) {
        let mut changed: Vec<Prefix<A>> = Vec::with_capacity(burst.len());
        for &u in burst {
            if !changed.contains(&u.prefix()) {
                changed.push(u.prefix());
            }
            apply(&mut rib, u);
        }
        if engine.apply_delta(&changed, &rib).is_none() {
            engine = build(&rib);
            declined += 1;
        }
    }
    check_oracle(&engine, &rib, addrs)?;
    check_oracle(&build(&rib), &rib, addrs)?;
    check_batches(&engine, addrs, batch)?;
    Ok(declined)
}
