//! Delta encoding of clock updates — a §IV-C communication optimisation.
//!
//! §IV-C concludes the clock *width* cannot shrink below `n`, but the
//! *update traffic* can: successive clock writes to the same area differ in
//! few components (typically only the writer's own). A [`ClockDelta`]
//! carries just the changed `(rank, value)` pairs relative to a base the
//! receiver already holds; applying a delta is a component-wise max, so
//! deltas tolerate loss-free reordering exactly like full clocks. The
//! EXT-delta accounting compares full vs delta bytes on the protocol's
//! update stream.

use crate::vector::VectorClock;
use crate::Rank;

/// The changed components between two clocks.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClockDelta {
    changes: Vec<(Rank, u64)>,
}

impl ClockDelta {
    /// Components of `next` that exceed `base` (merge semantics: only
    /// increases matter).
    ///
    /// # Panics
    /// Panics if the clocks have different widths.
    pub fn between(base: &VectorClock, next: &VectorClock) -> Self {
        assert_eq!(base.len(), next.len(), "width mismatch");
        let changes = next
            .components()
            .iter()
            .enumerate()
            .filter(|&(i, &v)| v > base.get(i))
            .map(|(i, &v)| (i, v))
            .collect();
        ClockDelta { changes }
    }

    /// Apply to a clock (component-wise max with the carried values).
    pub fn apply(&self, clock: &mut VectorClock) {
        for &(rank, v) in &self.changes {
            if clock.get(rank) < v {
                clock.set(rank, v);
            }
        }
    }

    /// Number of changed components.
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// True when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Wire size with a `(u32 rank, u64 value)` pair encoding.
    pub fn wire_size(&self) -> usize {
        self.changes.len() * 12
    }
}

/// Stateful per-channel delta encoder: remembers the last clock shipped to
/// a peer and emits only the difference.
#[derive(Debug, Clone)]
pub struct DeltaEncoder {
    last_sent: VectorClock,
}

impl DeltaEncoder {
    /// A fresh encoder for a system of `n` processes (base = zero clock,
    /// which every receiver starts from).
    pub fn new(n: usize) -> Self {
        DeltaEncoder {
            last_sent: VectorClock::zero(n),
        }
    }

    /// Encode `clock` against the last transmission and advance the base.
    pub fn encode(&mut self, clock: &VectorClock) -> ClockDelta {
        let delta = ClockDelta::between(&self.last_sent, clock);
        self.last_sent.merge(clock);
        delta
    }
}

/// Stateful decoder: reconstructs the sender's clock stream.
#[derive(Debug, Clone)]
pub struct DeltaDecoder {
    current: VectorClock,
}

impl DeltaDecoder {
    /// A decoder starting from the zero clock.
    pub fn new(n: usize) -> Self {
        DeltaDecoder {
            current: VectorClock::zero(n),
        }
    }

    /// Apply a delta; returns the reconstructed clock.
    pub fn decode(&mut self, delta: &ClockDelta) -> &VectorClock {
        delta.apply(&mut self.current);
        &self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vc(v: &[u64]) -> VectorClock {
        VectorClock::from_components(v.to_vec())
    }

    #[test]
    fn delta_captures_only_increases() {
        let d = ClockDelta::between(&vc(&[1, 2, 3]), &vc(&[1, 5, 3]));
        assert_eq!(d.len(), 1);
        let mut c = vc(&[1, 2, 3]);
        d.apply(&mut c);
        assert_eq!(c, vc(&[1, 5, 3]));
    }

    #[test]
    fn empty_delta_for_equal_clocks() {
        let d = ClockDelta::between(&vc(&[4, 4]), &vc(&[4, 4]));
        assert!(d.is_empty());
        assert_eq!(d.wire_size(), 0);
    }

    #[test]
    fn decreases_are_ignored_merge_semantics() {
        // A "next" clock lower in some component (stale message) produces
        // no change for it, and applying never decreases.
        let d = ClockDelta::between(&vc(&[5, 0]), &vc(&[3, 1]));
        assert_eq!(d.len(), 1);
        let mut c = vc(&[5, 0]);
        d.apply(&mut c);
        assert_eq!(c, vc(&[5, 1]));
    }

    #[test]
    fn encoder_decoder_roundtrip_stream() {
        let n = 8;
        let mut enc = DeltaEncoder::new(n);
        let mut dec = DeltaDecoder::new(n);
        let mut truth = VectorClock::zero(n);
        let mut delta_bytes = 0usize;
        let mut dense_bytes = 0usize;
        for step in 1..=20u64 {
            // The "sender" ticks its own component and sometimes learns of
            // others.
            truth.tick(0);
            if step % 3 == 0 {
                truth.set(usize::try_from(step % 8).unwrap(), step);
            }
            let d = enc.encode(&truth);
            delta_bytes += d.wire_size();
            dense_bytes += truth.dense_wire_size();
            let got = dec.decode(&d);
            assert!(
                truth.leq(got) && got.leq(&truth),
                "stream reconstructs exactly"
            );
        }
        assert!(
            delta_bytes < dense_bytes / 2,
            "deltas beat dense on a typical stream ({delta_bytes} vs {dense_bytes})"
        );
    }

    #[test]
    fn reordering_tolerance() {
        // Deltas are merges: applying out of order converges to the same
        // clock (the FIFO channels make this moot in the protocol, but the
        // property is what makes deltas safe at all).
        let base = vc(&[0, 0, 0]);
        let d1 = ClockDelta::between(&base, &vc(&[1, 0, 0]));
        let d2 = ClockDelta::between(&vc(&[1, 0, 0]), &vc(&[2, 1, 0]));
        let mut in_order = base.clone();
        d1.apply(&mut in_order);
        d2.apply(&mut in_order);
        let mut reordered = base;
        d2.apply(&mut reordered);
        d1.apply(&mut reordered);
        assert_eq!(in_order, reordered);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        ClockDelta::between(&vc(&[0]), &vc(&[0, 0]));
    }
}
