//! Property tests for the switching fabric and queues: messages are
//! conserved, delivered in per-destination FIFO order, and never early.

use proptest::prelude::*;
use spal_fabric::{FabricModel, FabricMsg, MsgKind, Queue, SwitchingFabric};

fn arb_model() -> impl Strategy<Value = FabricModel> {
    prop_oneof![
        Just(FabricModel::Crossbar),
        (1u64..=16).prop_map(|cycles| FabricModel::Fixed { cycles }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn messages_conserved_and_fifo_per_destination(
        model in arb_model(),
        ports in 1usize..=8,
        sends in proptest::collection::vec((0u16..8, 0u16..8, 0u64..40), 0..60),
    ) {
        let mut fabric = SwitchingFabric::new(model, ports);
        let latency = fabric.latency();
        let mut sent: Vec<FabricMsg> = Vec::new();
        // Drive sends over time (one send per listed event, at
        // non-decreasing cycles), then drain.
        let mut now = 0u64;
        for (seq, (src, dst, gap)) in sends.into_iter().enumerate() {
            now += gap;
            let msg = FabricMsg {
                kind: MsgKind::Request,
                src: src % ports as u16,
                dst: dst % ports as u16,
                addr: seq as u32,
                packet_id: seq as u64,
                sent_at: now,
            };
            fabric.send(msg, now);
            sent.push(msg);
        }
        // Drain: poll every port each cycle until quiet.
        let mut received: Vec<(u64, FabricMsg)> = Vec::new();
        let deadline = now + latency + sent.len() as u64 + 4;
        for t in now..=deadline {
            for p in 0..ports as u16 {
                if let Some(m) = fabric.receive(p, t) {
                    received.push((t, m));
                }
            }
        }
        prop_assert_eq!(fabric.in_flight(), 0);
        prop_assert_eq!(received.len(), sent.len());
        for (t, m) in &received {
            // Never earlier than the transit latency.
            prop_assert!(*t >= m.sent_at + latency, "early delivery");
        }
        // Per-destination FIFO by send time.
        for dst in 0..ports as u16 {
            let times: Vec<u64> = received
                .iter()
                .filter(|(_, m)| m.dst == dst)
                .map(|(_, m)| m.sent_at)
                .collect();
            let mut sorted = times.clone();
            sorted.sort_unstable();
            prop_assert_eq!(times, sorted, "out-of-order at port {}", dst);
        }
        // Stats agree.
        prop_assert_eq!(fabric.stats().sent, sent.len() as u64);
        prop_assert_eq!(fabric.stats().delivered, sent.len() as u64);
    }

    #[test]
    fn queue_is_fifo(
        items in proptest::collection::vec(any::<u32>(), 0..64),
        pops_between in proptest::collection::vec(any::<bool>(), 64),
    ) {
        let mut q = Queue::unbounded();
        let mut model: std::collections::VecDeque<u32> = Default::default();
        let mut peak = 0;
        for (i, &x) in items.iter().enumerate() {
            q.push(x);
            model.push_back(x);
            peak = peak.max(model.len());
            if pops_between[i % pops_between.len()] {
                prop_assert_eq!(q.pop(), model.pop_front());
            }
            prop_assert_eq!(q.len(), model.len());
        }
        prop_assert_eq!(q.high_water(), peak);
        while let Some(x) = q.pop() {
            prop_assert_eq!(Some(x), model.pop_front());
        }
        prop_assert!(model.is_empty());
    }

    #[test]
    fn latency_is_monotone_in_ports(model in arb_model()) {
        let mut prev = 0u64;
        for ports in [1usize, 2, 4, 8, 16, 32, 64] {
            let l = model.latency_cycles(ports);
            prop_assert!(l >= 1);
            prop_assert!(l >= prev, "latency shrank with size");
            prev = l;
        }
    }
}
