//! Sparse vector clocks for the §IV-C storage-overhead study.
//!
//! §IV-C (citing Charron-Bost `[3]`): the size of vector clocks must be at
//! least `n` *in the worst case* — "the size of the clocks cannot be
//! reduced". That is a worst-case statement; when only a few processes ever
//! touch a given shared area, a map-based clock stores only the non-zero
//! components. [`SparseClock`] quantifies the gap between the dense lower
//! bound and what typical executions need (experiment SEC4C compares
//! dense vs sparse bytes as `n` grows).

use std::collections::BTreeMap;

use crate::vector::{ClockRelation, VectorClock};
use crate::Rank;

/// A vector clock storing only non-zero components.
///
/// Semantically identical to a [`VectorClock`] of width `n` whose absent
/// components are zero.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SparseClock {
    entries: BTreeMap<Rank, u64>,
}

impl SparseClock {
    /// The empty (all-zero) clock.
    pub fn new() -> Self {
        SparseClock::default()
    }

    /// Build from a dense clock, dropping zero components.
    pub fn from_dense(dense: &VectorClock) -> Self {
        let entries = dense
            .components()
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != 0)
            .map(|(i, &v)| (i, v))
            .collect();
        SparseClock { entries }
    }

    /// Expand to a dense clock of width `n`.
    ///
    /// # Panics
    /// Panics if any stored rank is `>= n`.
    pub fn to_dense(&self, n: usize) -> VectorClock {
        let mut out = VectorClock::zero(n);
        for (&rank, &v) in &self.entries {
            assert!(rank < n, "rank {rank} out of width {n}");
            out.set(rank, v);
        }
        out
    }

    /// Component for `rank` (zero when absent).
    pub fn get(&self, rank: Rank) -> u64 {
        self.entries.get(&rank).copied().unwrap_or(0)
    }

    /// Increment `rank`'s component.
    pub fn tick(&mut self, rank: Rank) -> u64 {
        let e = self.entries.entry(rank).or_insert(0);
        *e += 1;
        *e
    }

    /// Component-wise max merge.
    pub fn merge(&mut self, other: &SparseClock) {
        for (&rank, &v) in &other.entries {
            let e = self.entries.entry(rank).or_insert(0);
            *e = (*e).max(v);
        }
    }

    /// `self ≤ other` under the causal order.
    pub fn leq(&self, other: &SparseClock) -> bool {
        self.entries.iter().all(|(&r, &v)| v <= other.get(r))
    }

    /// Causal relation (same semantics as [`VectorClock::relation`]).
    pub fn relation(&self, other: &SparseClock) -> ClockRelation {
        match (self.leq(other), other.leq(self)) {
            (true, true) => ClockRelation::Equal,
            (true, false) => ClockRelation::Before,
            (false, true) => ClockRelation::After,
            (false, false) => ClockRelation::Concurrent,
        }
    }

    /// Number of non-zero components.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Wire size with a (rank: u32, count: u64) pair encoding.
    pub fn sparse_wire_size(&self) -> usize {
        self.entries.len() * (std::mem::size_of::<u32>() + std::mem::size_of::<u64>())
    }
}

impl std::fmt::Display for SparseClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, (r, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "P{r}:{v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_dense_sparse() {
        let dense = VectorClock::from_components(vec![0, 3, 0, 7]);
        let sparse = SparseClock::from_dense(&dense);
        assert_eq!(sparse.nnz(), 2);
        assert_eq!(sparse.to_dense(4), dense);
    }

    #[test]
    fn relations_agree_with_dense() {
        let a = VectorClock::from_components(vec![1, 0, 2]);
        let b = VectorClock::from_components(vec![0, 1, 2]);
        let sa = SparseClock::from_dense(&a);
        let sb = SparseClock::from_dense(&b);
        assert_eq!(sa.relation(&sb), a.relation(&b));
    }

    #[test]
    fn merge_matches_dense_merge() {
        let a = VectorClock::from_components(vec![1, 0, 5]);
        let b = VectorClock::from_components(vec![0, 2, 3]);
        let mut sa = SparseClock::from_dense(&a);
        sa.merge(&SparseClock::from_dense(&b));
        assert_eq!(sa.to_dense(3), a.merged(&b));
    }

    #[test]
    fn sparse_wins_when_few_writers() {
        // 64-process system, 2 active writers: the §IV-C comparison.
        let mut dense = VectorClock::zero(64);
        dense.set(3, 9);
        dense.set(17, 2);
        let sparse = SparseClock::from_dense(&dense);
        assert!(sparse.sparse_wire_size() < dense.dense_wire_size());
        assert_eq!(sparse.sparse_wire_size(), 2 * 12);
        assert_eq!(dense.dense_wire_size(), 64 * 8);
    }

    #[test]
    fn tick_and_get() {
        let mut s = SparseClock::new();
        assert_eq!(s.get(5), 0);
        assert_eq!(s.tick(5), 1);
        assert_eq!(s.tick(5), 2);
        assert_eq!(s.get(5), 2);
    }

    #[test]
    fn empty_clock_precedes_everything() {
        let empty = SparseClock::new();
        let mut s = SparseClock::new();
        s.tick(0);
        assert_eq!(empty.relation(&s), ClockRelation::Before);
        assert_eq!(empty.relation(&SparseClock::new()), ClockRelation::Equal);
    }
}
