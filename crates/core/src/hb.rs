//! The happens-before detector — Algorithms 1, 2, 3, 4 and 5 of the paper,
//! with a FastTrack-style epoch fast path.
//!
//! Per operation (Algorithm 1 for put, Algorithm 2 for get), with the
//! source and destination areas locked by the backend:
//!
//! 1. `update_local_clock` — the actor's matrix-clock diagonal is ticked
//!    and its row snapshot `V` is attached to the op's accesses (shared via
//!    `Arc`, one snapshot per op);
//! 2. for each area the op touches, the relevant area clock is compared
//!    with `V` (Algorithm 3 / Corollary 1); concurrent ⇒
//!    `signal_race_condition()` (a [`RaceReport`], never an abort);
//! 3. the area clocks are updated by merging `V` (Algorithms 4 and 5:
//!    `update_clock` for the general clock, `update_clock_W` for the write
//!    clock);
//! 4. a *read* additionally merges the area's write clock into the actor's
//!    own clock — reading data makes the reader causally dependent on its
//!    writer, which is how the causal chains of Fig 5b become visible.
//!
//! The three [`HbMode`]s differ only in *which* clock each access compares
//! against (see the table in the crate docs and DESIGN.md §5):
//!
//! | mode    | write checks            | read checks        | FP on read-read | misses WAR |
//! |---------|-------------------------|--------------------|-----------------|------------|
//! | Dual    | V (all prior accesses)  | W (writes only)    | no              | no         |
//! | Single  | V                       | V                  | yes             | no         |
//! | Literal | W (writes only)         | V                  | yes             | yes        |
//!
//! # The epoch fast path
//!
//! Every area keeps its `V`/`W` joins as adaptive [`vclock::AreaClock`]s.
//! The per-access state machine, and its cost:
//!
//! | area state | check (Algorithm 3) | update (Algorithm 5) |
//! |---|---|---|
//! | `Bottom` (untouched) | skip — zero clock precedes everything, O(1) | promote to `Epoch`, O(1) |
//! | `Epoch`, dominated by the access (`count ≤ V[rank]`) | **no race possible** — skip the antichain scan entirely, O(1) | re-point the epoch at this access, O(1) |
//! | `Epoch`, concurrent with the access | fall back: O(n)-compare the (usually 1-entry) antichain and report | demote to `Vector`, O(n) |
//! | `Vector` | guard `join ≤ V` is an O(n) compare; scan only when it fails | merge O(n); **re-promote** to `Epoch` once an access dominates again |
//!
//! Well-synchronised traffic (stencils, rings, reductions — anything where
//! conflicting accesses are ordered by barriers/locks/data flow) therefore
//! runs the whole check-and-update in O(1) per touched area. Racy or
//! genuinely concurrent areas degrade gracefully to the paper's exact O(n)
//! behaviour. The fast path is a *pure filter*: it only skips scans whose
//! every compare is provably ordered, so the emitted reports — class,
//! attribution, order — are byte-identical to the full-vector-clock
//! reference (`reference::ReferenceHbDetector`, which the differential
//! property tests check against).
//!
//! The observe hot loop is allocation-free on the no-race path: the op's
//! clock snapshot is one `Arc` shared by every access, the read-absorb
//! scratch clock is reused across ops, and reports stream out by value
//! through the caller's [`crate::api::ReportSink`] (the legacy
//! `observe`/`reports` pair routes through an internal
//! [`crate::api::VecSink`]; callers wanting copies use `observe_collect`).

use std::sync::Arc;

use dsm::addr::Segment;
use vclock::{MatrixClock, VectorClock};

use crate::api::{ReportSink, VecSink};
use crate::clockstore::{AreaKey, ClockStore, Granularity, StoreConfig};
use crate::detector::Detector;
use crate::event::{AccessKind, AccessSummary, DsmOp, LockId};
use crate::report::{RaceClass, RaceReport};
use crate::Rank;

/// Which clock each access kind is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HbMode {
    /// Corrected dual-clock discipline (the reproduction's reference).
    Dual,
    /// One general-purpose clock only — no write clock (§IV-D strawman).
    Single,
    /// The protocol exactly as printed: Algorithm 1 compares a put against
    /// the write clock only, Algorithm 2 compares a get against the general
    /// clock. (The printed strict `<` of Algorithm 3 is replaced by the
    /// standard `≤` — see `vclock::literal_less` for why the strict version
    /// cannot be meant literally.)
    Literal,
}

impl HbMode {
    pub(crate) fn detector_name(self) -> &'static str {
        match self {
            HbMode::Dual => "dual-clock",
            HbMode::Single => "single-clock",
            HbMode::Literal => "literal-paper",
        }
    }

    /// `(check_writes, check_reads)`: which antichains an access of `kind`
    /// is compared against in this mode.
    pub(crate) fn checks(self, kind: AccessKind) -> (bool, bool) {
        match (self, kind) {
            (HbMode::Dual, AccessKind::Write) => (true, true),
            (HbMode::Dual, AccessKind::Read) => (true, false),
            (HbMode::Single, _) => (true, true),
            (HbMode::Literal, AccessKind::Write) => (true, false),
            (HbMode::Literal, AccessKind::Read) => (true, true),
        }
    }
}

/// The clock-based detector.
///
/// Observing an operation runs Algorithms 1–5 for each access it induces
/// and returns the number of new race reports (accumulated in
/// [`Detector::reports`] — signalled, never fatal):
///
/// ```
/// use dsm::GlobalAddr;
/// use race_core::{Detector, DsmOp, Granularity, HbDetector, HbMode, OpKind, RaceClass};
///
/// let mut det = HbDetector::new(3, Granularity::WORD, HbMode::Dual);
/// // Fig 5a: P0 and P2 put to the same word of P1's memory, unsynchronised.
/// let dst = GlobalAddr::public(1, 0).range(8);
/// let put = |op_id, actor: usize| DsmOp {
///     op_id,
///     actor,
///     kind: OpKind::Put {
///         src: GlobalAddr::private(actor, 0).range(8),
///         dst,
///     },
/// };
/// assert_eq!(det.observe(&put(0, 0), &[]), 0); // first write: silent
/// assert_eq!(det.observe(&put(1, 2), &[]), 1); // concurrent write: a race
/// assert_eq!(det.reports()[0].class, RaceClass::WriteWrite);
/// ```
pub struct HbDetector {
    mode: HbMode,
    store: ClockStore,
    /// One matrix clock per process (§IV-B).
    clocks: Vec<MatrixClock>,
    /// Clock snapshots taken at program-lock releases, merged into the
    /// acquirer on hand-off (the grant message carries the clock).
    lock_clocks: std::collections::HashMap<LockId, VectorClock>,
    /// The legacy keep-everything log, fed only by [`Detector::observe`].
    log: VecSink,
    /// Per-op report staging, drained into the sink at op end; reuses its
    /// capacity across ops, so the steady state allocates nothing.
    scratch: Vec<RaceReport>,
    /// Scratch clock for the read-absorb merge, reused across ops.
    absorb: VectorClock,
    n: usize,
}

impl HbDetector {
    /// A detector for `n` processes at the given area granularity, with the
    /// default clock-store layout.
    pub fn new(n: usize, granularity: Granularity, mode: HbMode) -> Self {
        HbDetector::with_config(n, granularity, mode, StoreConfig::default())
    }

    /// [`HbDetector::new`] with an explicit [`StoreConfig`] (dense-prefix
    /// spill threshold of the per-rank slabs).
    pub fn with_config(
        n: usize,
        granularity: Granularity,
        mode: HbMode,
        store: StoreConfig,
    ) -> Self {
        HbDetector {
            mode,
            store: ClockStore::with_config(n, granularity, mode != HbMode::Single, store),
            clocks: (0..n).map(|i| MatrixClock::zero(i, n)).collect(),
            lock_clocks: std::collections::HashMap::new(),
            log: VecSink::new(),
            scratch: Vec::new(),
            absorb: VectorClock::zero(n),
            n,
        }
    }

    /// The actor's current vector clock (for tests and traces).
    pub fn process_clock(&self, rank: Rank) -> &VectorClock {
        self.clocks[rank].own_row()
    }

    /// Access to the underlying store (for memory accounting experiments).
    pub fn store(&self) -> &ClockStore {
        &self.store
    }

    /// The durable parts of the detector, for the snapshot codec
    /// ([`crate::snapshot`]): the area store, the per-process matrix
    /// clocks, and the program-lock clock snapshots. The legacy log and
    /// the per-op scratch buffers are transient at op boundaries and are
    /// not part of the durable state.
    pub(crate) fn snapshot_parts(
        &self,
    ) -> (
        &ClockStore,
        &[MatrixClock],
        &std::collections::HashMap<LockId, VectorClock>,
    ) {
        (&self.store, &self.clocks, &self.lock_clocks)
    }

    /// Rebuild a detector from restored parts — the inverse of
    /// [`HbDetector::snapshot_parts`]. Scratch state starts empty, exactly
    /// as it is at every op boundary of a live detector.
    pub(crate) fn from_parts(
        mode: HbMode,
        store: ClockStore,
        clocks: Vec<MatrixClock>,
        lock_clocks: std::collections::HashMap<LockId, VectorClock>,
    ) -> Self {
        let n = store.n();
        HbDetector {
            mode,
            store,
            clocks,
            lock_clocks,
            log: VecSink::new(),
            scratch: Vec::new(),
            absorb: VectorClock::zero(n),
            n,
        }
    }

    /// Reports whose class is a true race under the paper's definition
    /// (filters the read-read false positives of the baselines). Reads the
    /// legacy log, like [`Detector::reports`].
    pub fn true_race_reports(&self) -> Vec<&RaceReport> {
        self.log
            .as_slice()
            .iter()
            .filter(|r| r.class.is_true_race())
            .collect()
    }
}

/// Signal the race between `access` and the recorded `prev`, whose clocks
/// the caller found concurrent (Algorithm 3 / Corollary 1) — unless the
/// pair cannot race: a process is ordered with itself by program order,
/// and the NIC serialises atomic-atomic pairs.
fn signal_race(
    mode: HbMode,
    access: &AccessSummary,
    prev: &AccessSummary,
    area: AreaKey,
    out: &mut Vec<RaceReport>,
) {
    if prev.process == access.process || (access.atomic && prev.atomic) {
        return;
    }
    let class = match (access.kind, prev.kind) {
        (AccessKind::Write, AccessKind::Write) => RaceClass::WriteWrite,
        (AccessKind::Read, AccessKind::Read) => RaceClass::ReadRead,
        _ => RaceClass::ReadWrite,
    };
    out.push(RaceReport {
        detector: mode.detector_name(),
        class,
        current: access.clone(),
        previous: Some(prev.clone()),
        area,
    });
}

/// Check a read against one antichain of its area (Algorithm 2 compares
/// before updating). A write's check rides on the pass that prunes the
/// antichains: see [`crate::clockstore::AreaHistory::record_write_hinted`].
fn check_read(
    mode: HbMode,
    chain: &[AccessSummary],
    access: &AccessSummary,
    area: AreaKey,
    out: &mut Vec<RaceReport>,
) {
    for prev in chain {
        if prev.process != access.process && prev.clock.concurrent_with(&access.clock) {
            signal_race(mode, access, prev, area, out);
        }
    }
}

impl Detector for HbDetector {
    fn name(&self) -> &'static str {
        self.mode.detector_name()
    }

    fn observe_sink(
        &mut self,
        op: &DsmOp,
        _held_locks: &[LockId],
        sink: &mut dyn ReportSink,
    ) -> usize {
        debug_assert!(self.scratch.is_empty(), "scratch drained at op end");
        // Algorithm 1/2 step: update_local_clock before the event. One
        // snapshot allocation per op, shared by every access via Arc.
        let actor_clock = self.clocks[op.actor].tick_shared();
        // Scratch absorb clock is cleared lazily, on the first merge.
        let mut absorbed = false;
        let granularity = self.store.granularity();

        for (kind, range, access_id) in op.accesses() {
            if range.addr.segment != Segment::Public {
                // Private memory cannot race (owner-only; §IV-A: "no need of
                // a real lock" — and no clocks either).
                continue;
            }
            let access = AccessSummary {
                id: access_id,
                process: op.actor,
                kind,
                range,
                clock: Arc::clone(&actor_clock),
                atomic: op.is_atomic(),
            };
            for block in granularity.blocks_of(&range) {
                let area = AreaKey::new(range.addr.rank, block);
                // One slab lookup per area, and each happens-before guard
                // (`W ≤ clock`, `V ≤ clock`) computed exactly once per
                // access — O(1) integer compares while the area is in
                // epoch state — then shared by the race check (Algorithm
                // 3), the read absorption and the clock update (Algorithm
                // 5).
                let hist = self.store.history_mut(area);
                let w_le = hist.w.leq(&access.clock);
                let v_le = hist.v.leq(&access.clock);
                // Check first (Algorithms 1–2 compare before updating),
                // then update the area clocks (Algorithm 5). The epoch
                // guards make the common ordered case O(1): when the
                // area's `W` (resp. `V`) join precedes the access's clock,
                // every recorded write (resp. read) does too, and its
                // antichain is not scanned at all.
                let mode = self.mode;
                let (_, check_reads) = mode.checks(kind);
                let scratch = &mut self.scratch;
                match kind {
                    AccessKind::Write => {
                        hist.record_write_hinted(access.clone(), v_le, w_le, |prev| {
                            if check_reads || prev.kind.is_write() {
                                signal_race(mode, &access, prev, area, scratch);
                            }
                        });
                    }
                    AccessKind::Read => {
                        if !w_le {
                            check_read(mode, &hist.writes, &access, area, scratch);
                        }
                        if check_reads && !v_le {
                            check_read(mode, &hist.reads, &access, area, scratch);
                        }
                        // The read absorbs the area's write knowledge (the
                        // get reply carries the clock, matrix-clock rule of
                        // §IV-B). Collected and merged after the loop so the
                        // absorption cannot mask a race within this same op.
                        // Skipped entirely when the write clock is already
                        // in the reader's past.
                        if !w_le {
                            if !absorbed {
                                self.absorb.clear();
                                absorbed = true;
                            }
                            hist.merge_w_into(&mut self.absorb);
                        }
                        if self.mode == HbMode::Single || self.mode == HbMode::Literal {
                            // Only V exists / is fetched in these modes.
                            if !v_le {
                                if !absorbed {
                                    self.absorb.clear();
                                    absorbed = true;
                                }
                                hist.merge_v_into(&mut self.absorb);
                            }
                        }
                        hist.record_read_hinted(access.clone(), v_le);
                    }
                }
            }
        }

        if absorbed {
            self.clocks[op.actor].absorb(&self.absorb);
        }
        // Hand the op's reports to the sink by value, in one call — the
        // silent path never touches the sink.
        let new = self.scratch.len();
        if new > 0 {
            sink.accept_all(&mut self.scratch);
        }
        new
    }

    fn observe(&mut self, op: &DsmOp, held_locks: &[LockId]) -> usize {
        crate::detector::observe_via_log!(self.log, op, held_locks)
    }

    fn reports(&self) -> &[RaceReport] {
        self.log.as_slice()
    }

    fn clock_components_per_area(&self) -> usize {
        match self.mode {
            HbMode::Dual | HbMode::Literal => 2 * self.n,
            HbMode::Single => self.n,
        }
    }

    fn clock_memory_bytes(&self) -> usize {
        self.store.clock_memory_bytes()
    }

    fn requires_locking(&self) -> bool {
        true
    }

    /// Lock release: the release message carries the releaser's current
    /// clock; a subsequent acquirer becomes causally dependent on
    /// everything the releaser did before releasing.
    fn on_release(&mut self, rank: usize, lock: LockId) {
        let snapshot = self.clocks[rank].own_row().clone();
        self.lock_clocks
            .entry(lock)
            .and_modify(|c| c.merge(&snapshot))
            .or_insert(snapshot);
    }

    /// Lock acquire: merge the lock's last-release clock into the acquirer
    /// (the grant message carries the clock).
    fn on_acquire(&mut self, rank: usize, lock: LockId) {
        if let Some(c) = self.lock_clocks.get(&lock) {
            self.clocks[rank].absorb(c);
        }
    }

    /// Barrier release: everyone's clock becomes the join of all
    /// participants' clocks (the release messages carry the coordinator's
    /// merged clock).
    fn on_barrier(&mut self) {
        let mut join = VectorClock::zero(self.n);
        for c in &self.clocks {
            join.merge(c.own_row());
        }
        for c in &mut self.clocks {
            c.absorb(&join);
        }
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        Some(crate::snapshot::encode_hb(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::OpKind;
    use dsm::addr::GlobalAddr;

    fn put(op_id: u64, actor: Rank, dst_rank: Rank, dst_off: usize) -> DsmOp {
        DsmOp {
            op_id,
            actor,
            kind: OpKind::Put {
                src: GlobalAddr::private(actor, 0).range(8),
                dst: GlobalAddr::public(dst_rank, dst_off).range(8),
            },
        }
    }

    fn get(op_id: u64, actor: Rank, src_rank: Rank, src_off: usize) -> DsmOp {
        DsmOp {
            op_id,
            actor,
            kind: OpKind::Get {
                src: GlobalAddr::public(src_rank, src_off).range(8),
                dst: GlobalAddr::private(actor, 0).range(8),
            },
        }
    }

    fn dual(n: usize) -> HbDetector {
        HbDetector::new(n, Granularity::WORD, HbMode::Dual)
    }

    #[test]
    fn fig5a_concurrent_puts_detected() {
        // P0 and P2 put to the same word of P1's memory with no ordering.
        let mut d = dual(3);
        assert!(d.observe_collect(&put(0, 0, 1, 0), &[]).is_empty());
        let reports = d.observe_collect(&put(1, 2, 1, 0), &[]);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].class, RaceClass::WriteWrite);
        // The two clocks in the report are concurrent (Corollary 1).
        let r = &reports[0];
        assert!(r
            .current
            .clock
            .concurrent_with(&r.previous.as_ref().unwrap().clock));
    }

    #[test]
    fn fig4_concurrent_gets_not_a_race_in_dual_mode() {
        // P1 writes its own variable, then P0 and P2 read it concurrently.
        let mut d = dual(3);
        let init = DsmOp {
            op_id: 0,
            actor: 1,
            kind: OpKind::LocalWrite {
                range: GlobalAddr::public(1, 0).range(8),
            },
        };
        assert!(d.observe_collect(&init, &[]).is_empty());
        // Both readers are causally after the init write? No — they never
        // synchronised with P1. But reads are checked against W only, and
        // the initial write is the *latest* write… its clock is (0,1,0);
        // the readers' clocks are (1,0,0) and (0,0,1): concurrent! So this
        // IS flagged unless the program orders the readers after the init.
        // Fig 4's premise is that `a = A` before the reads; we model that
        // with a barrier-like absorption: the readers first read P1's area
        // (absorbing W), as the figure's gets do.
        let r1 = d.observe_collect(&get(1, 0, 1, 0), &[]);
        // First get: concurrent with the init write → read-write race IS
        // reported? In the figure the value was initialised "before" the
        // remote accesses, i.e. causally before — model it as such:
        // (see fig4_with_causal_init below). Here, unsynchronised init:
        assert_eq!(r1.len(), 1, "unsynchronised init write races with reader");
    }

    #[test]
    fn fig4_with_causal_init_reads_are_silent() {
        // Proper Fig 4: `a = A` happens causally before both gets (the
        // figure draws it in the processes' past). After the first get
        // absorbs W, a second get by another process must NOT race with the
        // first get (concurrent read-read) — that is the §IV-D claim.
        let mut d = dual(3);
        let init = DsmOp {
            op_id: 0,
            actor: 1,
            kind: OpKind::LocalWrite {
                range: GlobalAddr::public(1, 0).range(8),
            },
        };
        d.observe(&init, &[]);
        // Both readers first absorb the write clock via an initial get each;
        // the first get races (unsynchronised with init) — treat it as the
        // synchronisation step and clear; the *second round* of gets is the
        // Fig 4 scenario proper.
        d.observe(&get(1, 0, 1, 0), &[]);
        d.observe(&get(2, 2, 1, 0), &[]);
        let before = d.reports().len();
        // Now both P0 and P2 are causally after the write. Concurrent gets:
        let a = d.observe_collect(&get(3, 0, 1, 0), &[]);
        let b = d.observe_collect(&get(4, 2, 1, 0), &[]);
        assert!(
            a.is_empty() && b.is_empty(),
            "read-read must be silent in dual mode"
        );
        assert_eq!(d.reports().len(), before);
    }

    #[test]
    fn single_clock_flags_concurrent_reads() {
        // Same scenario as fig4_with_causal_init but with the single-clock
        // baseline: the second reader races with the first reader's V entry.
        let mut d = HbDetector::new(3, Granularity::WORD, HbMode::Single);
        let init = DsmOp {
            op_id: 0,
            actor: 1,
            kind: OpKind::LocalWrite {
                range: GlobalAddr::public(1, 0).range(8),
            },
        };
        d.observe(&init, &[]);
        d.observe(&get(1, 0, 1, 0), &[]);
        d.observe(&get(2, 2, 1, 0), &[]);
        let a = d.observe_collect(&get(3, 0, 1, 0), &[]);
        let b = d.observe_collect(&get(4, 2, 1, 0), &[]);
        let rr: Vec<_> = a
            .iter()
            .chain(b.iter())
            .filter(|r| r.class == RaceClass::ReadRead)
            .collect();
        assert!(
            !rr.is_empty(),
            "single-clock baseline must emit read-read false positives"
        );
    }

    #[test]
    fn literal_mode_misses_write_after_read() {
        // P0 reads P1's word; P2 then writes it, concurrent with the read.
        // Dual mode reports (write checks V, which saw the read); literal
        // mode checks only W → silent. This is the ABL-lit false negative.
        let scenario = |mode: HbMode| -> usize {
            let mut d = HbDetector::new(3, Granularity::WORD, mode);
            d.observe(&get(0, 0, 1, 0), &[]);
            d.observe(&put(1, 2, 1, 0), &[])
        };
        assert!(scenario(HbMode::Dual) >= 1, "dual catches WAR");
        assert_eq!(scenario(HbMode::Literal), 0, "literal misses WAR");
    }

    #[test]
    fn causal_chain_via_get_then_put_is_silent() {
        // Fig 5b's essence: P1 writes x; P2 gets x (absorbing the write
        // clock); P2 then puts y based on it; P1's subsequent access to y
        // after getting… simplified: P2's put to the same word after its
        // get is causally AFTER P1's write → no race.
        let mut d = dual(3);
        let w = DsmOp {
            op_id: 0,
            actor: 1,
            kind: OpKind::LocalWrite {
                range: GlobalAddr::public(1, 0).range(8),
            },
        };
        d.observe(&w, &[]);
        d.observe(&get(1, 2, 1, 0), &[]); // absorbs P1's write (flagged: unsynchronised — but absorbs)
        let reports = d.observe_collect(&put(2, 2, 1, 0), &[]);
        assert!(
            reports.is_empty(),
            "P2's put is causally after P1's write through the get"
        );
    }

    #[test]
    fn same_process_never_races_with_itself() {
        let mut d = dual(2);
        for i in 0..5 {
            let r = d.observe(&put(i, 0, 1, 0), &[]);
            assert_eq!(r, 0, "program order forbids self-races");
        }
    }

    #[test]
    fn disjoint_words_never_race() {
        let mut d = dual(2);
        d.observe(&put(0, 0, 1, 0), &[]);
        let r = d.observe(&put(1, 1, 1, 8), &[]);
        assert_eq!(r, 0, "different words are different areas");
    }

    #[test]
    fn overlapping_multiword_ranges_race_on_shared_blocks() {
        let mut d = dual(2);
        let a = DsmOp {
            op_id: 0,
            actor: 0,
            kind: OpKind::Put {
                src: GlobalAddr::private(0, 0).range(16),
                dst: GlobalAddr::public(1, 0).range(16),
            },
        };
        let b = DsmOp {
            op_id: 1,
            actor: 1,
            kind: OpKind::LocalWrite {
                range: GlobalAddr::public(1, 8).range(16),
            },
        };
        d.observe(&a, &[]);
        let reports = d.observe_collect(&b, &[]);
        // Word 1 (bytes 8..16) is shared → exactly one area races.
        assert_eq!(reports.len(), 1);
    }

    #[test]
    fn clock_memory_single_is_half_of_dual() {
        let mut d = dual(4);
        let mut s = HbDetector::new(4, Granularity::WORD, HbMode::Single);
        for det in [&mut d, &mut s] {
            det.observe(&put(0, 0, 1, 0), &[]);
        }
        assert_eq!(d.clock_memory_bytes(), 2 * s.clock_memory_bytes());
    }

    #[test]
    fn tick_advances_process_clock() {
        let mut d = dual(2);
        assert_eq!(d.process_clock(0).total(), 0);
        d.observe(&put(0, 0, 1, 0), &[]);
        assert_eq!(d.process_clock(0).get(0), 1);
    }

    #[test]
    fn report_ids_match_access_id_scheme() {
        let mut d = dual(3);
        d.observe(&put(0, 0, 1, 0), &[]);
        let reports = d.observe_collect(&put(1, 2, 1, 0), &[]);
        let r = &reports[0];
        // put's write access id = 2*op_id + 1.
        assert_eq!(r.current.id, 3);
        assert_eq!(r.previous.as_ref().unwrap().id, 1);
    }

    #[test]
    fn observe_into_fills_caller_vec_and_only_that() {
        let mut d = dual(3);
        let mut out = Vec::new();
        assert_eq!(d.observe_into(&put(0, 0, 1, 0), &[], &mut out), 0);
        assert!(out.is_empty());
        assert_eq!(d.observe_into(&put(1, 2, 1, 0), &[], &mut out), 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].class, RaceClass::WriteWrite);
        // The temporary-VecSink discipline: neither the legacy log nor any
        // attached sink sees these reports — no double-reporting.
        assert!(d.reports().is_empty());
    }

    #[test]
    fn ordered_writer_stream_stays_on_epoch_fast_path() {
        // One writer hammering one word: totally ordered, so both area
        // clocks must remain epochs the whole way.
        let mut d = dual(2);
        for i in 0..64 {
            assert_eq!(d.observe(&put(i, 0, 1, 0), &[]), 0);
        }
        assert_eq!(d.store().epoch_areas(), d.store().touched_areas());
    }

    #[test]
    fn racy_area_demotes_then_repromotes_after_barrier() {
        let mut d = dual(2);
        d.observe(&put(0, 0, 1, 0), &[]);
        assert_eq!(
            d.observe(&put(1, 1, 1, 0), &[]),
            1,
            "concurrent writes race"
        );
        assert_eq!(d.store().epoch_areas(), 0, "concurrency demoted the area");
        // Barrier orders everyone; the next write dominates the old join.
        d.on_barrier();
        assert_eq!(d.observe(&put(2, 0, 1, 0), &[]), 0);
        assert_eq!(d.store().epoch_areas(), 1, "dominating write re-promoted");
    }
}
