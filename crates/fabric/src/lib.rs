//! Switching-fabric models for SPAL-based routers.
//!
//! §3 of the paper interconnects the line cards through a low-latency
//! fabric — "a shared-bus (for a small ψ), a crossbar, or a
//! multistage-based structure" — and deliberately abstracts the details:
//! "no emphasis on the fabric details will be placed, but the fabric
//! latency (in terms of system cycles) is assumed to depend on the fabric
//! size". This crate follows that contract:
//!
//! * [`FabricModel`] maps a port count to a transit latency in cycles:
//!   the crossbar curve (≤ 2 cycles = 10 ns for the sizes the paper
//!   studies, per its §1 discussion of fast crossbars) or a fixed
//!   latency for sensitivity studies;
//! * [`SwitchingFabric`] moves [`FabricMsg`] lookup requests and replies
//!   between LCs with that latency, one injection per source per cycle
//!   and one delivery per destination per cycle (port serialisation);
//! * [`queue::Queue`] provides the FIFO queues the FIL chips use
//!   (input, request, outgoing, incoming — Fig. 2 of the paper);
//! * [`spsc::spsc_ring`] provides the bounded lock-free SPSC rings the
//!   multi-threaded dataplane runtime uses as real point-to-point links
//!   between LC worker threads (same [`FabricMsg`] payloads, actual
//!   concurrency instead of modelled cycle latency).

pub mod msg;
pub mod queue;
pub mod spsc;
pub mod topology;

pub use msg::{AddrBatch, FabricAddr, FabricMsg, MsgKind, ReplyBatch, BATCH_MSG_LANES};
pub use queue::Queue;
pub use spsc::{spsc_ring, SpscConsumer, SpscProducer};
pub use topology::{FabricModel, FabricStats, SwitchingFabric};
