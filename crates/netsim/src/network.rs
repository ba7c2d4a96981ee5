//! The network proper: scheduled delivery with per-channel FIFO.
//!
//! Vector-clock protocols (and the paper's Algorithm 5 clock updates) assume
//! reliable channels; we additionally guarantee FIFO per ordered pair
//! `(src, dst)` — matching both InfiniBand reliable-connected queue pairs
//! and the Cray SHMEM ordering the paper cites. Messages between different
//! pairs are *not* ordered relative to each other: that freedom is exactly
//! where the paper's Fig 5 races come from.

use crate::fault::FaultPlan;
use crate::latency::LatencyModel;
use crate::message::{Classify, Message, MsgId};
use crate::stats::NetStats;
use crate::time::{EventQueue, SimTime};
use crate::topology::Topology;
use crate::Rank;

/// A simulated interconnect carrying payloads of type `P`.
pub struct Network<P> {
    n: usize,
    topology: Topology,
    latency: Box<dyn LatencyModel>,
    in_flight: EventQueue<Message<P>>,
    /// Earliest legal delivery time per (src, dst) channel, enforcing FIFO.
    channel_front: Vec<SimTime>,
    next_id: MsgId,
    stats: NetStats,
    /// Optional fault injection (see [`crate::fault`]); `None` is the
    /// reliable network the paper assumes.
    faults: Option<FaultPlan>,
}

impl<P: Classify> Network<P> {
    /// A network of `n` ranks over `topology` using `latency`.
    pub fn new(n: usize, topology: Topology, latency: Box<dyn LatencyModel>) -> Self {
        Network {
            n,
            topology,
            latency,
            in_flight: EventQueue::new(),
            channel_front: vec![SimTime::ZERO; n * n],
            next_id: 0,
            stats: NetStats::new(),
            faults: None,
        }
    }

    /// [`Network::new`] with a fault-injection plan (see [`crate::fault`]).
    pub fn with_faults(
        n: usize,
        topology: Topology,
        latency: Box<dyn LatencyModel>,
        plan: FaultPlan,
    ) -> Self {
        let mut net = Network::new(n, topology, latency);
        net.faults = Some(plan);
        net
    }

    /// Convenience constructor: full mesh with a constant latency.
    pub fn full_mesh(n: usize, ns_per_hop: u64) -> Self {
        Network::new(
            n,
            Topology::FullMesh,
            Box::new(crate::latency::Constant::new(ns_per_hop)),
        )
    }

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Send `payload` from `src` to `dst` at time `now`; returns the
    /// scheduled arrival time and the assigned message id.
    ///
    /// Under a fault plan (see [`Network::with_faults`]) the message may be
    /// dropped (the returned time is then the arrival it *would* have had —
    /// nothing is scheduled), duplicated, delayed, or allowed to overtake
    /// earlier traffic on its channel; every injection is counted in
    /// [`NetStats`].
    ///
    /// # Panics
    /// Panics if a rank is out of range.
    pub fn send(&mut self, now: SimTime, src: Rank, dst: Rank, payload: P) -> (SimTime, MsgId)
    where
        P: Clone,
    {
        assert!(src < self.n && dst < self.n, "rank out of range");
        let id = self.next_id;
        self.next_id += 1;

        let fault = match self.faults.as_mut() {
            Some(plan) => plan.decide(src, dst),
            None => Default::default(),
        };

        let hops = self.topology.hops(src, dst);
        let msg = Message {
            id,
            src,
            dst,
            sent_at: now,
            payload,
        };
        let wire = msg.total_bytes();
        let mut delay = self.latency.delay_ns(src, dst, wire, hops);
        if fault.extra_delay_ns > 0 {
            delay += fault.extra_delay_ns;
            self.stats.record_injected_delay();
        }
        let mut arrive = now + delay;

        if fault.drop {
            // Consumed but never scheduled: the receiver simply never sees
            // it. The projected arrival is still returned so callers that
            // display it stay meaningful; the channel front is untouched.
            self.stats.record_injected_drop();
            return (arrive, id);
        }

        // FIFO per channel: never deliver before (or at the same instant as)
        // an earlier message on the same (src, dst) pair. A reorder fault
        // relaxes the clamp by its window, letting this message overtake
        // earlier traffic — the front itself never moves backwards.
        let ch = src * self.n + dst;
        let front = self.channel_front[ch];
        let relaxed = SimTime::from_ns(front.as_ns().saturating_sub(fault.reorder_ahead_ns));
        if arrive <= relaxed {
            arrive = relaxed + 1;
        }
        if arrive < front {
            self.stats.record_injected_reorder();
        }
        if arrive > front {
            self.channel_front[ch] = arrive;
        }

        if fault.duplicate {
            // The copy queues behind everything on the channel, including
            // the original.
            let dup_arrive = self.channel_front[ch] + 1;
            self.channel_front[ch] = dup_arrive;
            let dup = Message {
                id: self.next_id,
                src,
                dst,
                sent_at: now,
                payload: msg.payload.clone(),
            };
            self.next_id += 1;
            self.in_flight.schedule(dup_arrive, dup);
            self.stats.record_injected_duplicate();
        }

        self.in_flight.schedule(arrive, msg);
        (arrive, id)
    }

    /// Time of the next arrival, if any message is in flight.
    pub fn next_arrival_time(&self) -> Option<SimTime> {
        self.in_flight.peek_time()
    }

    /// Deliver the earliest in-flight message, recording statistics.
    pub fn deliver_next(&mut self) -> Option<(SimTime, Message<P>)> {
        let (at, msg) = self.in_flight.pop()?;
        self.stats.record(
            msg.payload.class(),
            msg.total_bytes(),
            msg.payload.detection_bytes(),
            at.since(msg.sent_at),
        );
        Some((at, msg))
    }

    /// Number of messages still in flight.
    pub fn in_flight_count(&self) -> usize {
        self.in_flight.len()
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::{Constant, Jittered};
    use crate::message::OpClass;

    #[derive(Debug, Clone, PartialEq)]
    struct P(u64, usize); // (tag, size)
    impl Classify for P {
        fn class(&self) -> OpClass {
            OpClass::PutData
        }
        fn wire_bytes(&self) -> usize {
            self.1
        }
    }

    #[test]
    fn delivery_at_computed_time() {
        let mut net: Network<P> = Network::full_mesh(2, 100);
        let (arrive, _) = net.send(SimTime::ZERO, 0, 1, P(1, 8));
        assert_eq!(arrive, SimTime::from_ns(100));
        let (at, msg) = net.deliver_next().unwrap();
        assert_eq!(at, arrive);
        assert_eq!(msg.payload, P(1, 8));
        assert_eq!(net.in_flight_count(), 0);
    }

    #[test]
    fn fifo_per_channel_under_jitter() {
        // With heavy jitter, later sends could overtake earlier ones; the
        // channel front must prevent that on the same (src,dst) pair.
        let mut net: Network<P> = Network::new(
            2,
            Topology::FullMesh,
            Box::new(Jittered::new(Constant::new(10), 99, 1_000)),
        );
        let mut sent = Vec::new();
        for i in 0..50 {
            let (_, id) = net.send(SimTime::from_ns(i), 0, 1, P(i, 1));
            sent.push(id);
        }
        let mut delivered = Vec::new();
        let mut last = SimTime::ZERO;
        while let Some((at, msg)) = net.deliver_next() {
            assert!(at >= last, "delivery times must be monotone");
            last = at;
            delivered.push(msg.id);
        }
        assert_eq!(sent, delivered, "FIFO order violated");
    }

    #[test]
    fn cross_channel_messages_may_reorder() {
        // 0→1 is slow (3 hops on a ring), 2→1 is fast: the later send can
        // arrive first. This is the freedom races live in.
        let mut net: Network<P> =
            Network::new(4, Topology::Ring { nodes: 4 }, Box::new(Constant::new(100)));
        net.send(SimTime::ZERO, 0, 2, P(0, 1)); // 2 hops → 200ns
        net.send(SimTime::from_ns(50), 1, 2, P(1, 1)); // 1 hop → 150ns
        let first = net.deliver_next().unwrap().1;
        assert_eq!(first.payload.0, 1, "faster channel arrives first");
    }

    #[test]
    fn stats_accumulate() {
        let mut net: Network<P> = Network::full_mesh(2, 10);
        net.send(SimTime::ZERO, 0, 1, P(0, 100));
        net.send(SimTime::ZERO, 1, 0, P(1, 50));
        while net.deliver_next().is_some() {}
        assert_eq!(net.stats().total_msgs(), 2);
        assert_eq!(
            net.stats().total_bytes(),
            (100 + 50 + 2 * crate::message::HEADER_BYTES) as u64
        );
    }

    #[test]
    fn self_send_allowed() {
        let mut net: Network<P> = Network::full_mesh(2, 10);
        let (at, _) = net.send(SimTime::ZERO, 0, 0, P(7, 1));
        assert_eq!(at, SimTime::from_ns(10));
    }

    #[test]
    #[should_panic(expected = "rank out of range")]
    fn bad_rank_panics() {
        let mut net: Network<P> = Network::full_mesh(2, 10);
        net.send(SimTime::ZERO, 0, 5, P(0, 0));
    }

    #[test]
    fn ids_monotone() {
        let mut net: Network<P> = Network::full_mesh(2, 10);
        let (_, a) = net.send(SimTime::ZERO, 0, 1, P(0, 0));
        let (_, b) = net.send(SimTime::ZERO, 0, 1, P(0, 0));
        assert!(b > a);
    }

    use crate::fault::{FaultPlan, FaultSpec};

    fn faulty(n: usize, spec: FaultSpec, seed: u64) -> Network<P> {
        Network::with_faults(
            n,
            Topology::FullMesh,
            Box::new(Constant::new(100)),
            FaultPlan::uniform(spec, seed),
        )
    }

    #[test]
    fn quiet_plan_is_byte_identical_to_no_plan() {
        let mut plain: Network<P> = Network::full_mesh(2, 100);
        let mut chaos = faulty(2, FaultSpec::default(), 7);
        for i in 0..20 {
            let a = plain.send(SimTime::from_ns(i), 0, 1, P(i, 4));
            let b = chaos.send(SimTime::from_ns(i), 0, 1, P(i, 4));
            assert_eq!(a, b);
        }
        while let (Some(a), Some(b)) = (plain.deliver_next(), chaos.deliver_next()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.payload, b.1.payload);
        }
        assert_eq!(chaos.stats().injected_total(), 0);
    }

    #[test]
    fn dropped_messages_never_arrive_and_are_counted() {
        let mut net = faulty(
            2,
            FaultSpec {
                drop: 1.0,
                ..FaultSpec::default()
            },
            1,
        );
        for i in 0..10 {
            net.send(SimTime::from_ns(i), 0, 1, P(i, 4));
        }
        assert_eq!(net.in_flight_count(), 0, "everything dropped");
        assert_eq!(net.stats().injected_drops(), 10);
        assert_eq!(net.stats().total_msgs(), 0, "drops are not deliveries");
    }

    #[test]
    fn duplicates_deliver_twice_in_order() {
        let mut net = faulty(
            2,
            FaultSpec {
                duplicate: 1.0,
                ..FaultSpec::default()
            },
            1,
        );
        net.send(SimTime::ZERO, 0, 1, P(7, 4));
        assert_eq!(net.in_flight_count(), 2);
        let a = net.deliver_next().unwrap();
        let b = net.deliver_next().unwrap();
        assert_eq!(a.1.payload, P(7, 4));
        assert_eq!(b.1.payload, P(7, 4));
        assert!(b.0 > a.0, "the copy queues behind the original");
        assert_eq!(net.stats().injected_duplicates(), 1);
    }

    #[test]
    fn extra_delay_fires_and_is_counted() {
        let mut net = faulty(
            2,
            FaultSpec {
                delay: 1.0,
                extra_delay_ns: 5_000,
                ..FaultSpec::default()
            },
            1,
        );
        let (at, _) = net.send(SimTime::ZERO, 0, 1, P(0, 4));
        assert_eq!(at, SimTime::from_ns(5_100));
        assert_eq!(net.stats().injected_delays(), 1);
    }

    #[test]
    fn reorder_can_break_channel_fifo() {
        // A huge reorder window and a fast second message: without the
        // fault the FIFO clamp would hold it behind the slow first one.
        let mut net: Network<P> = Network::with_faults(
            2,
            Topology::FullMesh,
            Box::new(Jittered::new(Constant::new(10), 99, 1_000)),
            FaultPlan::uniform(
                FaultSpec {
                    reorder: 1.0,
                    reorder_window_ns: 1_000_000,
                    ..FaultSpec::default()
                },
                3,
            ),
        );
        let mut sent = Vec::new();
        for i in 0..50 {
            let (_, id) = net.send(SimTime::from_ns(i), 0, 1, P(i, 1));
            sent.push(id);
        }
        let mut delivered = Vec::new();
        while let Some((_, msg)) = net.deliver_next() {
            delivered.push(msg.id);
        }
        assert_eq!(delivered.len(), sent.len(), "reorder never loses");
        assert_ne!(sent, delivered, "FIFO must actually break");
        assert!(net.stats().injected_reorders() > 0);
    }
}
