//! Epochs and adaptive area clocks — the FastTrack-style fast path.
//!
//! The paper's detector compares full `O(n)` vector clocks on every access.
//! In the overwhelmingly common case, however, the accesses recorded on an
//! area are *totally ordered*: the join of their clocks equals the clock of
//! the **single most recent access**, an event `e = (rank, count)`. For an
//! event clock the happens-before test collapses to one integer compare
//! (Mattern's characterisation, the paper's Lemma 1):
//!
//! ```text
//!   C(e) ≤ C'  ⟺  C'[rank] ≥ count
//! ```
//!
//! [`AreaClock`] exploits this adaptively, exactly as FastTrack (Flanagan &
//! Freund, PLDI 2009) does for its write clocks:
//!
//! | state | represents | `leq` cost | `record` cost |
//! |---|---|---|---|
//! | `Bottom` | the zero clock (untouched) | O(1) | O(1) |
//! | `Epoch`  | join == one event's clock  | O(1) | O(1) while dominated |
//! | `Vector` | join of concurrent events  | O(n) | O(n) |
//!
//! A `record` whose clock dominates the current join **promotes** (back) to
//! `Epoch`; one that is concurrent with it **demotes** to `Vector`. The
//! represented value is always exactly the join of every recorded clock, so
//! substituting `AreaClock` for a plain [`VectorClock`] join is
//! report-invisible — only faster.

use crate::vector::VectorClock;
use crate::Rank;

/// One event: process `rank`'s `count`-th tick.
///
/// For the clock `C(e)` of such an event and any clock `C'` in the same
/// execution, `C(e) ≤ C'` iff `C'[rank] ≥ count` — the O(1) compare this
/// whole module exists for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Epoch {
    /// The event's process.
    pub rank: Rank,
    /// The process's clock component at the event (`C(e)[rank]`).
    pub count: u64,
}

impl Epoch {
    /// The epoch of the event whose clock snapshot is `clock`, performed by
    /// `rank`.
    pub fn of(rank: Rank, clock: &VectorClock) -> Epoch {
        Epoch {
            rank,
            count: clock.get(rank),
        }
    }

    /// `C(e) ≤ c` in one integer compare.
    #[inline]
    pub fn leq(&self, c: &VectorClock) -> bool {
        self.count <= c.get(self.rank)
    }
}

impl std::fmt::Display for Epoch {
    /// FastTrack's `c@t` rendering.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}", self.count, self.rank)
    }
}

/// The join of a set of event clocks, represented adaptively (see the
/// module docs for the state machine).
///
/// The `Epoch` state stores only the 16-byte `(rank, count)` pair — not the
/// event's full clock. The *owner* of an `AreaClock` (the detector's area
/// history, whose antichains retain every live access as an event beside a
/// shared row — the same identity, used per entry) supplies the full clock
/// through a closure on the rare paths that need it (demotion, merging).
/// This keeps the hot-path update completely free of reference-count
/// traffic.
#[derive(Debug, Clone, Default)]
pub enum AreaClock {
    /// No events recorded: the zero clock, which precedes everything.
    #[default]
    Bottom,
    /// The join equals this one event's clock.
    Epoch(Epoch),
    /// Concurrent events have been recorded: the general component-wise
    /// join, updated in place.
    Vector(VectorClock),
}

impl AreaClock {
    /// The empty join.
    pub fn bottom() -> Self {
        AreaClock::Bottom
    }

    /// True while the fast path applies.
    pub fn is_epoch(&self) -> bool {
        matches!(self, AreaClock::Bottom | AreaClock::Epoch(_))
    }

    /// `join ≤ c` — O(1) in `Bottom`/`Epoch` states, O(n) in `Vector`.
    ///
    /// Since every recorded clock is ≤ the join, `leq` returning true
    /// proves *all* recorded events happen-before `c`: the caller may skip
    /// any per-event race scan.
    #[inline]
    pub fn leq(&self, c: &VectorClock) -> bool {
        match self {
            AreaClock::Bottom => true,
            AreaClock::Epoch(epoch) => epoch.leq(c),
            AreaClock::Vector(v) => v.leq(c),
        }
    }

    /// Record the event `(rank, clock)` into the join.
    ///
    /// O(1) when the join is dominated by the new clock (promotion to
    /// `Epoch`, the common totally-ordered case) — no clones, no
    /// refcounts, two words written. O(n) when the new clock is concurrent
    /// with the join: the state demotes to `Vector`, and `resolve` is
    /// called (exactly once, with the demoted epoch) to obtain that
    /// event's full clock for the join.
    #[inline]
    pub fn record(
        &mut self,
        rank: Rank,
        clock: &VectorClock,
        resolve: impl FnOnce(Epoch) -> VectorClock,
    ) {
        match self {
            // The new event dominates everything recorded so far: the join
            // IS its clock.
            AreaClock::Bottom => *self = AreaClock::Epoch(Epoch::of(rank, clock)),
            AreaClock::Epoch(e) if e.leq(clock) => {
                *self = AreaClock::Epoch(Epoch::of(rank, clock));
            }
            // Concurrent with the epoch event: demote to the full join.
            AreaClock::Epoch(e) => {
                let mut v = resolve(*e);
                v.merge(clock);
                *self = AreaClock::Vector(v);
            }
            // Dense state: one fused pass merges and tests domination, so
            // staying demoted costs exactly one O(n) sweep (the same as the
            // naive merge) and re-promotion is detected for free.
            AreaClock::Vector(v) => {
                if v.merge_dominated(clock) {
                    *self = AreaClock::Epoch(Epoch::of(rank, clock));
                }
            }
        }
    }

    /// Merge the join into `dst` (Algorithm 4 applied to the represented
    /// value). `Bottom` merges nothing; in the `Epoch` state the owner
    /// merges the event's full clock itself through `merge_event` — it may
    /// hold that clock in a form that is not a `VectorClock` it can lend.
    pub fn merge_into(
        &self,
        dst: &mut VectorClock,
        merge_event: impl FnOnce(Epoch, &mut VectorClock),
    ) {
        match self {
            AreaClock::Bottom => {}
            AreaClock::Epoch(e) => merge_event(*e, dst),
            AreaClock::Vector(v) => dst.merge(v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy event log standing in for the detector's antichains: maps an
    /// epoch back to the full clock of the event it names.
    #[derive(Default)]
    struct Log(Vec<(Rank, VectorClock)>);

    impl Log {
        fn record(&mut self, area: &mut AreaClock, rank: Rank, v: &[u64]) {
            let clock = VectorClock::from_components(v.to_vec());
            area.record(rank, &clock, |e| self.resolve(e).clone());
            self.0.push((rank, clock));
        }

        fn resolve(&self, e: Epoch) -> &VectorClock {
            self.0
                .iter()
                .rev()
                .find(|(r, c)| *r == e.rank && c.get(e.rank) == e.count)
                .map(|(_, c)| c)
                .expect("epoch event must be in the log")
        }

        fn to_vector(&self, area: &AreaClock, n: usize) -> VectorClock {
            let mut out = VectorClock::zero(n);
            area.merge_into(&mut out, |e, dst| dst.merge(self.resolve(e)));
            out
        }
    }

    #[test]
    fn bottom_precedes_everything() {
        let b = AreaClock::bottom();
        assert!(b.leq(&VectorClock::zero(3)));
        assert!(b.leq(&VectorClock::from_components(vec![5, 0, 0])));
        assert!(b.is_epoch());
        assert_eq!(Log::default().to_vector(&b, 3), VectorClock::zero(3));
    }

    #[test]
    fn epoch_leq_is_the_event_clock_property() {
        // Event: P1's 2nd tick, clock [0,2,1].
        let mut a = AreaClock::bottom();
        let mut log = Log::default();
        log.record(&mut a, 1, &[0, 2, 1]);
        assert!(a.is_epoch());
        // A clock that knows P1's 2nd event.
        assert!(a.leq(&VectorClock::from_components(vec![9, 2, 0])));
        // A clock that does not.
        assert!(!a.leq(&VectorClock::from_components(vec![9, 1, 9])));
    }

    #[test]
    fn dominating_records_stay_epoch() {
        let mut a = AreaClock::bottom();
        let mut log = Log::default();
        log.record(&mut a, 0, &[1, 0]);
        log.record(&mut a, 0, &[2, 0]);
        log.record(&mut a, 1, &[2, 1]); // saw P0's 2nd event: dominates
        assert!(a.is_epoch());
        assert_eq!(log.to_vector(&a, 2).components(), &[2, 1]);
    }

    #[test]
    fn concurrent_record_demotes_to_exact_join() {
        let mut a = AreaClock::bottom();
        let mut log = Log::default();
        log.record(&mut a, 0, &[1, 0]);
        log.record(&mut a, 1, &[0, 1]); // concurrent with 1@0
        assert!(!a.is_epoch());
        assert_eq!(log.to_vector(&a, 2).components(), &[1, 1]);
    }

    #[test]
    fn dominating_record_repromotes_from_vector() {
        let mut a = AreaClock::bottom();
        let mut log = Log::default();
        log.record(&mut a, 0, &[1, 0]);
        log.record(&mut a, 1, &[0, 1]);
        assert!(!a.is_epoch());
        // An event that saw both: the join collapses back to one epoch.
        log.record(&mut a, 0, &[2, 1]);
        assert!(a.is_epoch());
        assert_eq!(log.to_vector(&a, 2).components(), &[2, 1]);
    }

    #[test]
    fn join_matches_reference_merge_under_random_records() {
        // Differential check against a plain VectorClock join.
        let mut fast = AreaClock::bottom();
        let mut log = Log::default();
        let mut slow = VectorClock::zero(4);
        let mut x: u64 = 0x9E3779B97F4A7C15;
        let mut procs = vec![VectorClock::zero(4); 4];
        for step in 0..200 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = (x >> 33) as usize % 4;
            procs[r].tick(r);
            if step % 3 == 0 {
                let other = (r + 1) % 4;
                let snapshot = procs[other].clone();
                procs[r].merge(&snapshot);
            }
            let c = procs[r].clone();
            log.record(&mut fast, r, c.components());
            slow.merge(&c);
            assert_eq!(log.to_vector(&fast, 4), slow, "diverged at step {step}");
            // leq must agree with the reference join on arbitrary probes.
            for p in &procs {
                assert_eq!(fast.leq(p), slow.leq(p));
            }
        }
    }

    #[test]
    fn merge_into_accumulates() {
        let mut a = AreaClock::bottom();
        let mut log = Log::default();
        log.record(&mut a, 0, &[3, 0]);
        let mut dst = VectorClock::from_components(vec![1, 7]);
        a.merge_into(&mut dst, |e, dst| dst.merge(log.resolve(e)));
        assert_eq!(dst.components(), &[3, 7]);
    }

    #[test]
    fn epoch_display() {
        assert_eq!(Epoch { rank: 2, count: 7 }.to_string(), "7@2");
    }
}
