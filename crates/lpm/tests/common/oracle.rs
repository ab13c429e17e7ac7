//! The oracle check of the differential battery, in a file of its own so
//! the facade's property suites (`tests/prop_lpm.rs`, `tests/prop_v6.rs`)
//! can include just this.

use proptest::prelude::*;
use spal_lpm::Lpm;
use spal_rib::bits::AddressBits;
use spal_rib::RoutingTable;

/// `lpm`, built from `table`, must agree with the table's linear
/// longest-match on every address of `addrs`.
pub fn check_oracle<A: AddressBits>(
    lpm: &dyn Lpm<A>,
    table: &RoutingTable<A>,
    addrs: &[A],
) -> Result<(), TestCaseError> {
    for &addr in addrs {
        prop_assert_eq!(
            lpm.lookup(addr),
            table.longest_match(addr).map(|e| e.next_hop),
            "{} diverged from the table oracle at {:#x}",
            lpm.name(),
            addr.into()
        );
    }
    Ok(())
}
