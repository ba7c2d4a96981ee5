//! Simulated time and the deterministic event queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in nanoseconds from simulation start.
///
/// Virtual time is what the latency / overhead experiments report: it is
/// deterministic for a given seed, unlike wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Time as fractional microseconds (for reporting).
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Saturating difference (`self - earlier`), in nanoseconds.
    pub fn since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    fn add(self, ns: u64) -> SimTime {
        SimTime(self.0 + ns)
    }
}

impl AddAssign<u64> for SimTime {
    fn add_assign(&mut self, ns: u64) {
        self.0 += ns;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = u64;
    fn sub(self, rhs: SimTime) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// A deterministic priority queue of timed events.
///
/// Events scheduled for the same instant pop in insertion order (a strictly
/// increasing sequence number breaks ties), which is what makes whole-system
/// replays bit-identical for a given seed.
///
/// The heap orders small `(time, sequence, slot)` keys; the events
/// themselves sit in a slab whose freed slots are reused, so a sift moves
/// 24-byte keys whatever the size of `E`, and a steady state of schedules
/// and pops allocates nothing.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    slots: Vec<Option<E>>,
    free: Vec<usize>,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            seq: 0,
        }
    }

    /// Schedule `event` at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(event);
                slot
            }
            None => {
                self.slots.push(Some(event));
                self.slots.len() - 1
            }
        };
        let seq = self.seq;
        self.seq += 1;
        // `seq` is unique, so `slot` never decides the order.
        self.heap.push(Reverse((at, seq, slot)));
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((at, ..))| *at)
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse((at, _, slot)) = self.heap.pop()?;
        let event = self.slots.get_mut(slot)?.take()?;
        self.free.push(slot);
        Some((at, event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_arithmetic() {
        let t = SimTime::from_us(3);
        assert_eq!(t.as_ns(), 3_000);
        assert_eq!((t + 500).as_ns(), 3_500);
        assert_eq!(t.since(SimTime::from_ns(1_000)), 2_000);
        assert_eq!(SimTime::from_ns(10).since(SimTime::from_ns(20)), 0);
    }

    #[test]
    fn display_scales() {
        assert_eq!(SimTime::from_ns(12).to_string(), "12ns");
        assert_eq!(SimTime::from_ns(1_500).to_string(), "1.500us");
        assert_eq!(SimTime::from_ns(2_000_000).to_string(), "2.000ms");
    }

    #[test]
    fn queue_orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(30), "c");
        q.schedule(SimTime::from_ns(10), "a");
        q.schedule(SimTime::from_ns(20), "b");
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(10)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(5);
        for label in ["first", "second", "third"] {
            q.schedule(t, label);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["first", "second", "third"]);
    }

    #[test]
    fn random_interleavings_match_a_time_then_insertion_model() {
        // Few distinct times (many ties) and short bursts between pops, so
        // the slab's slots are freed and reused all the time.
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % bound
        };
        for round in 0..50 {
            let mut q = EventQueue::new();
            // The reference: (time, insertion number), popped by minimum.
            let mut model: Vec<(u64, u64)> = Vec::new();
            let mut inserted = 0u64;
            let mut high_water = 0;
            for _ in 0..2_000 {
                if next(5) < 3 {
                    let at = (round % 3) * 10 + next(4);
                    q.schedule(SimTime::from_ns(at), inserted);
                    model.push((at, inserted));
                    inserted += 1;
                } else {
                    let want = model
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, key)| **key)
                        .map(|(i, _)| i)
                        .map(|i| model.swap_remove(i));
                    let got = q.pop().map(|(at, id)| (at.as_ns(), id));
                    assert_eq!(got, want, "round {round}");
                }
                assert_eq!(q.len(), model.len());
                assert_eq!(
                    q.peek_time().map(SimTime::as_ns),
                    model.iter().min().map(|k| k.0)
                );
                high_water = high_water.max(model.len());
            }
            while let Some((at, id)) = q.pop() {
                let i = model.iter().position(|k| *k == (at.as_ns(), id));
                let min = model.iter().min().copied();
                assert_eq!(i.map(|i| model.swap_remove(i)), min);
            }
            assert!(model.is_empty());
            // The slab never outgrows the most events pending at once.
            assert!(q.slots.len() <= high_water, "round {round}");
        }
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, 1);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
