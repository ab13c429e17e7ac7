//! Fabric topologies, their latency models, and the message-moving
//! machinery.

use crate::msg::FabricMsg;
use std::collections::VecDeque;

/// The interconnect between line cards. §3 names a shared bus, a
/// crossbar or a multistage structure but reduces each to "the fabric
/// latency (in terms of system cycles) … assumed to depend on the fabric
/// size"; the crossbar curve is that latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricModel {
    /// A full crossbar: every input/output pair simultaneously.
    Crossbar,
    /// A fixed transit latency regardless of port count — for
    /// sensitivity studies on how fabric cost shifts the SPAL trade-offs
    /// (e.g. the γ mix optimum of Fig. 4).
    Fixed { cycles: u64 },
}

impl FabricModel {
    /// Transit latency in system cycles for a fabric with `ports` LCs.
    ///
    /// Calibrated to §1's "packet latency over the fabric being 10 ns or
    /// less" (= 2 cycles at 5 ns) for the router sizes the paper studies:
    /// 1 cycle at ψ ≤ 2, 2 cycles up to ψ = 16.
    pub fn latency_cycles(self, ports: usize) -> u64 {
        let ports = ports.max(1);
        match self {
            FabricModel::Crossbar => {
                if ports <= 2 {
                    1
                } else if ports <= 16 {
                    2
                } else {
                    // Larger crossbars pay extra wiring/arbitration delay.
                    2 + (ports as f64).log2().ceil() as u64 - 4
                }
            }
            FabricModel::Fixed { cycles } => cycles.max(1),
        }
    }
}

/// Aggregate fabric accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Messages accepted for transit.
    pub sent: u64,
    /// Messages handed to their destination LC.
    pub delivered: u64,
    /// Sum over delivered messages of (delivery − send) cycles,
    /// including output-port queueing.
    pub total_transit_cycles: u64,
}

impl FabricStats {
    /// Mean cycles a delivered message spent in the fabric.
    pub fn mean_transit(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.total_transit_cycles as f64 / self.delivered as f64
        }
    }
}

/// The switching fabric: constant-latency transit plus per-destination
/// output queues drained one message per cycle (output-port
/// serialisation).
#[derive(Debug, Clone)]
pub struct SwitchingFabric {
    ports: usize,
    latency: u64,
    /// Per-destination FIFO of (arrival_cycle, message). Constant latency
    /// keeps these ordered by arrival time.
    in_transit: Vec<VecDeque<(u64, FabricMsg)>>,
    /// Cycle of the last delivery per destination port (serialisation).
    last_delivery: Vec<Option<u64>>,
    stats: FabricStats,
}

impl SwitchingFabric {
    /// Create a fabric connecting `ports` LCs.
    pub fn new(model: FabricModel, ports: usize) -> Self {
        assert!(ports >= 1, "a fabric needs at least one port");
        SwitchingFabric {
            ports,
            latency: model.latency_cycles(ports),
            in_transit: vec![VecDeque::new(); ports],
            last_delivery: vec![None; ports],
            stats: FabricStats::default(),
        }
    }

    /// Number of LC ports.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Transit latency in cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &FabricStats {
        &self.stats
    }

    /// Inject `msg` at cycle `now`. The caller (an LC's outgoing stage)
    /// injects at most one message per cycle per source.
    pub fn send(&mut self, msg: FabricMsg, now: u64) {
        debug_assert!((msg.dst as usize) < self.ports, "destination out of range");
        let arrives = now + self.latency;
        self.in_transit[msg.dst as usize].push_back((arrives, msg));
        self.stats.sent += 1;
    }

    /// Deliver at most one message to `dst` whose transit has completed
    /// by cycle `now` (output-port serialisation: one per cycle).
    pub fn receive(&mut self, dst: u16, now: u64) -> Option<FabricMsg> {
        if self.last_delivery[dst as usize] == Some(now) {
            return None; // the port already delivered this cycle
        }
        let q = &mut self.in_transit[dst as usize];
        match q.front() {
            Some(&(arrives, _)) if arrives <= now => {
                let (_, msg) = q.pop_front().expect("front exists");
                self.last_delivery[dst as usize] = Some(now);
                self.stats.delivered += 1;
                self.stats.total_transit_cycles += now - msg.sent_at;
                Some(msg)
            }
            _ => None,
        }
    }

    /// Messages still inside the fabric or waiting at output ports.
    pub fn in_flight(&self) -> usize {
        self.in_transit.iter().map(VecDeque::len).sum()
    }

    /// Earliest cycle at which any in-flight message finishes transit,
    /// or `None` when the fabric is empty. Constant latency keeps each
    /// per-destination queue ordered by arrival time, so only queue
    /// fronts need inspecting. A message may still be delivered *later*
    /// than this (output-port serialisation), never earlier — which is
    /// exactly the guarantee an event-driven scheduler needs.
    pub fn next_delivery_at(&self) -> Option<u64> {
        (0..self.ports as u16)
            .filter_map(|dst| self.next_delivery_for(dst))
            .min()
    }

    /// Earliest transit-completion cycle among messages bound for `dst`,
    /// or `None` when none are in flight. Same guarantee as
    /// [`SwitchingFabric::next_delivery_at`], restricted to one output
    /// port — the per-LC event horizon an event-driven scheduler scans.
    pub fn next_delivery_for(&self, dst: u16) -> Option<u64> {
        self.in_transit[dst as usize]
            .front()
            .map(|&(arrives, _)| arrives)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::MsgKind;

    fn msg(src: u16, dst: u16, id: u64, now: u64) -> FabricMsg {
        FabricMsg {
            kind: MsgKind::Request,
            src,
            dst,
            addr: 0,
            packet_id: id,
            sent_at: now,
        }
    }

    #[test]
    fn latency_models() {
        assert_eq!(FabricModel::Crossbar.latency_cycles(2), 1);
        assert_eq!(FabricModel::Crossbar.latency_cycles(16), 2);
        assert_eq!(FabricModel::Crossbar.latency_cycles(64), 4);
        assert_eq!(FabricModel::Fixed { cycles: 20 }.latency_cycles(64), 20);
        assert_eq!(FabricModel::Fixed { cycles: 0 }.latency_cycles(4), 1);
    }

    #[test]
    fn transit_takes_latency_cycles() {
        let mut f = SwitchingFabric::new(FabricModel::Crossbar, 4);
        assert_eq!(f.latency(), 2);
        f.send(msg(0, 1, 1, 100), 100);
        assert_eq!(f.receive(1, 100), None);
        assert_eq!(f.receive(1, 101), None);
        let m = f.receive(1, 102).unwrap();
        assert_eq!(m.packet_id, 1);
        assert_eq!(f.receive(1, 103), None);
        assert_eq!(f.stats().delivered, 1);
        assert_eq!(f.stats().total_transit_cycles, 2);
    }

    #[test]
    fn output_port_serialises() {
        let mut f = SwitchingFabric::new(FabricModel::Crossbar, 4);
        f.send(msg(0, 1, 1, 0), 0);
        f.send(msg(2, 1, 2, 0), 0);
        // Both arrive at cycle 2, but only one is handed over per cycle.
        assert_eq!(f.receive(1, 2).unwrap().packet_id, 1);
        assert_eq!(f.receive(1, 2), None); // caller polls once per cycle anyway
        assert_eq!(f.receive(1, 3).unwrap().packet_id, 2);
        // The second message's transit includes the queueing cycle.
        assert_eq!(f.stats().total_transit_cycles, 2 + 3);
    }

    #[test]
    fn crossbar_parallel_paths() {
        let mut f = SwitchingFabric::new(FabricModel::Crossbar, 4);
        // Distinct destinations in the same cycle: no contention at all.
        f.send(msg(0, 1, 1, 0), 0);
        f.send(msg(2, 3, 2, 0), 0);
        assert!(f.receive(1, 2).is_some());
        assert!(f.receive(3, 2).is_some());
        assert_eq!(f.in_flight(), 0);
    }

    #[test]
    fn next_delivery_tracks_queue_fronts() {
        let mut f = SwitchingFabric::new(FabricModel::Crossbar, 4);
        assert_eq!(f.next_delivery_at(), None);
        f.send(msg(0, 1, 1, 10), 10);
        f.send(msg(2, 3, 2, 12), 12);
        // Latency 2: arrivals at 12 and 14; the minimum wins.
        assert_eq!(f.next_delivery_at(), Some(12));
        assert_eq!(f.next_delivery_for(1), Some(12));
        assert_eq!(f.next_delivery_for(3), Some(14));
        assert_eq!(f.next_delivery_for(0), None);
        assert!(f.receive(1, 12).is_some());
        assert_eq!(f.next_delivery_at(), Some(14));
        assert!(f.receive(3, 14).is_some());
        assert_eq!(f.next_delivery_at(), None);
    }

    #[test]
    fn different_destinations_isolated() {
        let mut f = SwitchingFabric::new(FabricModel::Crossbar, 4);
        f.send(msg(0, 2, 9, 0), 0);
        assert_eq!(f.receive(1, 10), None);
        assert_eq!(f.receive(2, 10).unwrap().packet_id, 9);
    }
}
