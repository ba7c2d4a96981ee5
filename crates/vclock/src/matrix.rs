//! Matrix clocks — the paper's per-process `V_{P_i}` (§IV-B).
//!
//! §IV-B: "The clock matrix `V_{P_i}` is maintained by each process `P_i`.
//! This matrix is a local view of the global time. It is initially set to
//! zero. Before `P_i` performs an event, it increments its local logical
//! clock `V_{P_i}[i,i]`."
//!
//! Row `i` of the matrix is process `i`'s own vector clock — the value
//! shipped with its messages. Rows `j ≠ i` record the most recent knowledge
//! `P_i` has of `P_j`'s vector clock (gossiped on clock-update messages,
//! Algorithm 5). The matrix lets a process answer "what did `P_j` know about
//! `P_k` last time I heard from it", which the discussion sections use for
//! the storage-cost accounting (`n²` entries per process).

use crate::vector::VectorClock;
use crate::Rank;

/// An `n × n` matrix clock owned by one process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixClock {
    owner: Rank,
    rows: Vec<VectorClock>,
}

impl MatrixClock {
    /// Zero matrix for `n` processes, owned by `owner`.
    ///
    /// # Panics
    /// Panics if `owner >= n`.
    pub fn zero(owner: Rank, n: usize) -> Self {
        assert!(owner < n, "owner rank {owner} out of range for n={n}");
        MatrixClock {
            owner,
            rows: vec![VectorClock::zero(n); n],
        }
    }

    /// Rebuild a matrix from its rows — the inverse of reading each row
    /// back with [`MatrixClock::row`]. Used by snapshot codecs that persist
    /// and restore detector state.
    ///
    /// # Panics
    /// Panics if `rows` is empty, `owner >= rows.len()`, or the rows are
    /// not all `rows.len()` wide (the matrix must be square).
    pub fn from_rows(owner: Rank, rows: Vec<VectorClock>) -> Self {
        let n = rows.len();
        assert!(owner < n, "owner rank {owner} out of range for n={n}");
        assert!(
            rows.iter().all(|r| r.len() == n),
            "matrix rows must be {n} wide"
        );
        MatrixClock { owner, rows }
    }

    /// The owning process's rank.
    pub fn owner(&self) -> Rank {
        self.owner
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.rows.len()
    }

    /// The paper's `update_local_clock`: increment `V[i,i]` before an event.
    /// Returns a snapshot of the owner's row (the clock attached to the
    /// event / message).
    pub fn tick(&mut self) -> VectorClock {
        let owner = self.owner;
        self.rows[owner].tick(owner);
        self.rows[owner].clone()
    }

    /// [`MatrixClock::tick`] without the snapshot: the event's clock *is*
    /// [`MatrixClock::own_row`] until the next tick, so a caller that only
    /// compares against it (the detector hot loop) borrows the row instead
    /// of copying it. Returns the new diagonal value — the event's count.
    pub fn tick_in_place(&mut self) -> u64 {
        let owner = self.owner;
        self.rows[owner].tick(owner)
    }

    /// The owner's current vector clock (row `owner`), without ticking.
    pub fn own_row(&self) -> &VectorClock {
        &self.rows[self.owner]
    }

    /// Read any row (local knowledge of process `rank`'s clock).
    pub fn row(&self, rank: Rank) -> &VectorClock {
        &self.rows[rank]
    }

    /// Merge a received vector clock attributed to process `from` into both
    /// that process's row and the owner's row (Algorithm 4 applied to each).
    pub fn observe(&mut self, from: Rank, clock: &VectorClock) {
        self.rows[from].merge(clock);
        let owner = self.owner;
        self.rows[owner].merge(clock);
    }

    /// Merge knowledge attributed to the owner itself into the owner's row
    /// only — `observe(owner, clock)` without the redundant second merge of
    /// the same row. Used by the detector hot path when a read absorbs an
    /// area's write clock.
    ///
    /// Returns whether the row moved (some component of `clock` was ahead
    /// of it): a caller that shares copies of the row re-makes them only
    /// then.
    pub fn absorb(&mut self, clock: &VectorClock) -> bool {
        let row = &mut self.rows[self.owner];
        let moved = !clock.leq(row);
        if moved {
            row.merge(clock);
        }
        moved
    }

    /// Merge an entire remote matrix (gossip-style exchange): component-wise
    /// maximum of every row. Used by the clock-update traffic accounting.
    pub fn merge_matrix(&mut self, other: &MatrixClock) {
        assert_eq!(self.n(), other.n(), "matrix width mismatch");
        for (mine, theirs) in self.rows.iter_mut().zip(&other.rows) {
            mine.merge(theirs);
        }
    }

    /// Storage footprint in bytes of the dense matrix (`n²` components) —
    /// §IV-C / §V-A accounting.
    pub fn dense_size_bytes(&self) -> usize {
        self.n() * self.n() * std::mem::size_of::<u64>()
    }
}

impl std::fmt::Display for MatrixClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "MatrixClock(P{}):", self.owner)?;
        for (i, row) in self.rows.iter().enumerate() {
            writeln!(f, "  P{i}: {row}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_matrix() {
        let m = MatrixClock::zero(1, 3);
        assert_eq!(m.owner(), 1);
        assert_eq!(m.n(), 3);
        assert_eq!(m.own_row().total(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn owner_out_of_range_panics() {
        MatrixClock::zero(3, 3);
    }

    #[test]
    fn tick_increments_diagonal() {
        let mut m = MatrixClock::zero(0, 2);
        let snap = m.tick();
        assert_eq!(snap.components(), &[1, 0]);
        assert_eq!(m.row(0).components(), &[1, 0]);
        assert_eq!(m.row(1).components(), &[0, 0]);
    }

    #[test]
    fn tick_in_place_is_tick_without_the_copy() {
        let mut a = MatrixClock::zero(0, 2);
        let mut b = a.clone();
        assert_eq!(a.tick_in_place(), 1);
        assert_eq!(a.own_row(), &b.tick());
        assert_eq!(a, b);
    }

    #[test]
    fn absorb_reports_whether_the_row_moved() {
        let mut m = MatrixClock::zero(0, 2);
        m.tick_in_place();
        assert!(!m.absorb(&VectorClock::from_components(vec![1, 0])));
        assert!(!m.absorb(&VectorClock::zero(2)));
        assert!(m.absorb(&VectorClock::from_components(vec![0, 3])));
        assert_eq!(m.own_row().components(), &[1, 3]);
        assert!(!m.absorb(&VectorClock::from_components(vec![1, 3])));
    }

    #[test]
    fn observe_merges_sender_row_and_own_row() {
        let mut m = MatrixClock::zero(1, 3);
        let remote = VectorClock::from_components(vec![2, 0, 0]);
        m.observe(0, &remote);
        assert_eq!(m.row(0).components(), &[2, 0, 0]);
        assert_eq!(m.own_row().components(), &[2, 0, 0]);
        // Own events then stamp on top of the merged knowledge.
        let snap = m.tick();
        assert_eq!(snap.components(), &[2, 1, 0]);
    }

    #[test]
    fn fig5a_event_sequence() {
        // Reproduce the clock values printed in Fig 5a at P1.
        let mut p0 = MatrixClock::zero(0, 3);
        let mut p1 = MatrixClock::zero(1, 3);
        let mut p2 = MatrixClock::zero(2, 3);

        let m1 = p0.tick(); // P0 sends m1 with clock 100
        assert_eq!(m1.to_string(), "100");

        p1.observe(0, &m1);
        let p1_after = p1.tick(); // P1's state 110
        assert_eq!(p1_after.to_string(), "110");

        let m2 = p2.tick(); // P2 sends m2 with clock 001
        assert_eq!(m2.to_string(), "001");

        // Race: 110 × 001.
        assert!(p1_after.concurrent_with(&m2));
    }

    #[test]
    fn merge_matrix_takes_max_everywhere() {
        let mut a = MatrixClock::zero(0, 2);
        let mut b = MatrixClock::zero(1, 2);
        a.tick();
        b.tick();
        b.tick();
        a.merge_matrix(&b);
        assert_eq!(a.row(0).components(), &[1, 0]);
        assert_eq!(a.row(1).components(), &[0, 2]);
    }

    #[test]
    fn dense_size_is_quadratic() {
        assert_eq!(MatrixClock::zero(0, 4).dense_size_bytes(), 4 * 4 * 8);
    }
}
