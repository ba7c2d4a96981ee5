//! The happens-before detector — Algorithms 1, 2, 3, 4 and 5 of the paper,
//! with a FastTrack-style epoch fast path.
//!
//! Per operation (Algorithm 1 for put, Algorithm 2 for get), with the
//! source and destination areas locked by the backend:
//!
//! 1. `update_local_clock` — the actor's matrix-clock diagonal is ticked;
//!    the ticked row `V` *is* the clock of every access of the op, and is
//!    borrowed, not copied;
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
//! | `Epoch`, concurrent with the access | fall back: scan the (usually 1-entry) antichain, O(1) per entry, and report | demote to `Vector`, O(n) |
//! | `Vector` | guard `join ≤ V` is an O(n) compare; scan only when it fails, O(1) per entry | merge O(n); **re-promote** to `Epoch` once an access dominates again |
//!
//! Well-synchronised traffic (stencils, rings, reductions — anything where
//! conflicting accesses are ordered by barriers/locks/data flow) therefore
//! runs the whole check-and-update in O(1) per touched area. Racy or
//! genuinely concurrent areas pay the paper's O(n) only for the area's
//! *joins*; the antichain scan stays O(1) per entry, because a recorded
//! access is an *event* `(process, count)` and Lemma 1 for an event clock
//! is one integer test: the entry precedes the access iff
//! `V[process] ≥ count`, and is concurrent with it otherwise (see
//! [`crate::AccessSummary`]; `tests/lemma.rs` checks the
//! equivalence against the full-vector compare, and a `debug_assert!` in
//! the loop below re-checks it on every access of every debug run). The
//! fast path is a *pure filter*: it only skips scans whose every compare
//! is provably ordered, so the emitted reports — class, attribution, order
//! — are byte-identical to the full-vector-clock reference
//! (`reference::ReferenceHbDetector`, which the differential property
//! tests check against).
//!
//! # What is allocated, and when
//!
//! `tests/alloc_guard.rs` counts it with a counting global allocator:
//!
//! * An op that reports nothing and learns nothing allocates **nothing**.
//!   Its clock is the actor's row, borrowed; the entries it records share
//!   one copy of that row per actor (`Arc`), which a tick leaves valid —
//!   the entry keeps its own `count` beside it; the read-absorb scratch
//!   clock is reused across ops; antichains keep their capacity.
//! * That shared copy is re-made — one `Vec`, one `Arc` — only when the
//!   actor's knowledge of *other* processes moved: a read that absorbed
//!   something new, an acquire, or a barrier (where every row becomes the
//!   join and one copy serves all `n` actors: two allocations per barrier,
//!   not 2·n).
//! * A report copies no clock. It names both accesses as the events they
//!   are — `(process, count)` beside the shared row — so building one is
//!   two `Arc` clones, and the report keeps alive the rows its entries
//!   already hold. A full clock is built only when a report is printed,
//!   encoded or compared ([`crate::AccessSummary::clock`]).
//! * An area clock that demotes to `Vector` allocates its join.
//!
//! Reports stream out by value through the caller's
//! [`crate::api::ReportSink`]; callers wanting copies use
//! `observe_collect`.

use std::sync::Arc;

use dsm::addr::{MemRange, Segment};
use vclock::{MatrixClock, VectorClock};

use crate::api::ReportSink;
use crate::clockstore::{AreaKey, ClockStore, Granularity};
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
/// and streams the race reports it finds into the caller's sink —
/// signalled, never fatal:
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
/// assert!(det.observe_collect(&put(0, 0), &[]).is_empty()); // first write: silent
/// let reports = det.observe_collect(&put(1, 2), &[]); // concurrent write: a race
/// assert_eq!(reports.len(), 1);
/// assert_eq!(reports[0].class, RaceClass::WriteWrite);
/// ```
pub struct HbDetector {
    mode: HbMode,
    store: ClockStore,
    /// One matrix clock per process (§IV-B).
    clocks: Vec<MatrixClock>,
    /// Per process, the copy of its row that the entries it records share
    /// (`None`: not made yet, or out of date). Equal to the process's row
    /// in every *other* component — its own may lag, an entry keeps the
    /// count beside the row — so a tick leaves it valid and only an
    /// absorb, acquire or barrier that moved the row drops it.
    shared_rows: Vec<Option<Arc<VectorClock>>>,
    /// Clock snapshots taken at program-lock releases, merged into the
    /// acquirer on hand-off (the grant message carries the clock).
    lock_clocks: std::collections::HashMap<LockId, VectorClock>,
    /// Per-op report staging, drained into the sink at op end; reuses its
    /// capacity across ops, so the steady state allocates nothing.
    scratch: Vec<RaceReport>,
    /// Scratch clock for the read-absorb merge, reused across ops.
    absorb: VectorClock,
    /// The state was decoded from bytes, which may have been forged: the
    /// debug checks that rest on Lemma 1 then do not apply (restored
    /// *valid* state obeys it, forged state need not, and the two cannot
    /// be told apart cheaply).
    decoded: bool,
    n: usize,
}

impl HbDetector {
    /// A detector for `n` processes at the given area granularity.
    pub fn new(n: usize, granularity: Granularity, mode: HbMode) -> Self {
        HbDetector {
            mode,
            store: ClockStore::new(n, granularity, mode != HbMode::Single),
            clocks: (0..n).map(|i| MatrixClock::zero(i, n)).collect(),
            shared_rows: vec![None; n],
            lock_clocks: std::collections::HashMap::new(),
            scratch: Vec::new(),
            absorb: VectorClock::zero(n),
            decoded: false,
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
    /// clocks, and the program-lock clock snapshots. The per-op scratch
    /// buffers are transient at op boundaries and are not part of the
    /// durable state.
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
    /// as it is at every op boundary of a live detector; the shared rows
    /// are re-made on demand.
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
            shared_rows: vec![None; n],
            lock_clocks,
            scratch: Vec::new(),
            absorb: VectorClock::zero(n),
            decoded: true,
            n,
        }
    }
}

/// The access being checked. Its clock is the actor's row itself, borrowed
/// — between the tick and the end of the op the two are the same value.
struct Current<'a> {
    id: u64,
    process: Rank,
    kind: AccessKind,
    range: MemRange,
    atomic: bool,
    /// The actor's tick at the access: `row[process]`.
    count: u64,
    /// The actor's row: the access's full clock.
    row: &'a VectorClock,
    /// The actor's slot of `HbDetector::shared_rows`.
    shared: &'a mut Option<Arc<VectorClock>>,
}

impl Current<'_> {
    /// The access as its reports name it and its antichain entries keep
    /// it: its count, and the actor's shared row — copied from the row
    /// only if the actor has none yet.
    fn summary(&mut self) -> AccessSummary {
        let row = self
            .shared
            .get_or_insert_with(|| Arc::new(self.row.clone()));
        AccessSummary {
            id: self.id,
            process: self.process,
            kind: self.kind,
            range: self.range,
            atomic: self.atomic,
            count: self.count,
            row: Arc::clone(row),
        }
    }
}

/// Signal the race between `access` and the recorded `prev`, whose clocks
/// the caller found concurrent (Algorithm 3 / Corollary 1) — unless the
/// pair cannot race: a process is ordered with itself by program order,
/// and the NIC serialises atomic-atomic pairs. A report is the two events:
/// building it clones two `Arc`s and copies no clock.
fn signal_race(
    mode: HbMode,
    access: &mut Current<'_>,
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
        current: access.summary(),
        previous: Some(prev.clone()),
        area,
    });
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
        // Algorithm 1/2 step: update_local_clock before the event. The
        // ticked row is the clock of every access of the op; nothing is
        // copied.
        let count = self.clocks[op.actor].tick_in_place();
        let row = self.clocks[op.actor].own_row();
        // Scratch absorb clock is cleared lazily, on the first merge.
        let mut absorbed = false;
        let granularity = self.store.granularity();
        let mode = self.mode;
        let scratch = &mut self.scratch;

        for (kind, range, id) in op.accesses() {
            if range.addr.segment != Segment::Public {
                // Private memory cannot race (owner-only; §IV-A: "no need of
                // a real lock" — and no clocks either).
                continue;
            }
            let mut access = Current {
                id,
                process: op.actor,
                kind,
                range,
                atomic: op.is_atomic(),
                count,
                row,
                shared: &mut self.shared_rows[op.actor],
            };
            let (_, check_reads) = mode.checks(kind);
            for block in granularity.blocks_of(&range) {
                let area = AreaKey::new(range.addr.rank, block);
                // One slab lookup per area, and each happens-before guard
                // (`W ≤ row`, `V ≤ row`) computed exactly once per access
                // — O(1) integer compares while the area is in epoch state
                // — then shared by the race check (Algorithm 3), the read
                // absorption and the clock update (Algorithm 5).
                let hist = self.store.history_mut(area);
                let w_le = hist.w.leq(row);
                let v_le = hist.v.leq(row);
                debug_assert!(
                    self.decoded || ((w_le || !v_le) && hist.obeys_lemma(row)),
                    "W joins a subset of V's events, and every recorded clock \
                     is an event clock (Lemma 1): {hist:?} against {row}"
                );
                // Check first (Algorithms 1–2 compare before updating),
                // then update the area clocks (Algorithm 5). The epoch
                // guards make the common ordered case O(1): when the
                // area's `W` (resp. `V`) join precedes the row, every
                // recorded write (resp. read) does too, and its antichain
                // is not scanned at all. A scanned entry costs one integer
                // test: it is concurrent with the access exactly when the
                // row does not know its event.
                match kind {
                    AccessKind::Write => {
                        hist.prune_for_write(row, v_le, w_le, |prev| {
                            if check_reads || prev.kind.is_write() {
                                signal_race(mode, &mut access, prev, area, scratch);
                            }
                        });
                    }
                    AccessKind::Read => {
                        if !w_le {
                            for prev in &hist.writes {
                                if !prev.leq_row(row) {
                                    signal_race(mode, &mut access, prev, area, scratch);
                                }
                            }
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
                        if mode == HbMode::Single || mode == HbMode::Literal {
                            // Only V exists / is fetched in these modes.
                            if !v_le {
                                if !absorbed {
                                    self.absorb.clear();
                                    absorbed = true;
                                }
                                hist.merge_v_into(&mut self.absorb);
                            }
                        }
                        hist.prune_for_read(row, v_le, |prev| {
                            if check_reads {
                                signal_race(mode, &mut access, prev, area, scratch);
                            }
                        });
                    }
                }
                hist.push(access.summary(), row);
            }
        }

        // A tick leaves the shared row valid; new foreign knowledge does not.
        if absorbed && self.clocks[op.actor].absorb(&self.absorb) {
            self.shared_rows[op.actor] = None;
        }
        // Hand the op's reports to the sink by value, in one call — the
        // silent path never touches the sink.
        let new = self.scratch.len();
        if new > 0 {
            sink.accept_all(&mut self.scratch);
        }
        new
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
            if self.clocks[rank].absorb(c) {
                self.shared_rows[rank] = None;
            }
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
        let mut moved = false;
        for c in &mut self.clocks {
            moved |= c.absorb(&join);
        }
        if moved {
            // Every row now equals the join: one copy serves all n actors.
            self.shared_rows.fill(Some(Arc::new(join)));
        }
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        Some(crate::snapshot::encode_hb(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::VecSink;
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
            .clock()
            .concurrent_with(&r.previous.as_ref().unwrap().clock()));
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
        let mut log = VecSink::new();
        d.observe_sink(&init, &[], &mut log);
        // Both readers first absorb the write clock via an initial get each;
        // the first get races (unsynchronised with init) — treat it as the
        // synchronisation step and clear; the *second round* of gets is the
        // Fig 4 scenario proper.
        d.observe_sink(&get(1, 0, 1, 0), &[], &mut log);
        d.observe_sink(&get(2, 2, 1, 0), &[], &mut log);
        let before = log.len();
        // Now both P0 and P2 are causally after the write. Concurrent gets:
        let a = d.observe_collect(&get(3, 0, 1, 0), &[]);
        let b = d.observe_collect(&get(4, 2, 1, 0), &[]);
        assert!(
            a.is_empty() && b.is_empty(),
            "read-read must be silent in dual mode"
        );
        assert_eq!(log.len(), before);
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
        d.observe_collect(&init, &[]);
        d.observe_collect(&get(1, 0, 1, 0), &[]);
        d.observe_collect(&get(2, 2, 1, 0), &[]);
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
            d.observe_collect(&get(0, 0, 1, 0), &[]);
            d.observe_collect(&put(1, 2, 1, 0), &[]).len()
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
        d.observe_collect(&w, &[]);
        d.observe_collect(&get(1, 2, 1, 0), &[]); // absorbs P1's write (flagged: unsynchronised — but absorbs)
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
            let r = d.observe_collect(&put(i, 0, 1, 0), &[]).len();
            assert_eq!(r, 0, "program order forbids self-races");
        }
    }

    #[test]
    fn disjoint_words_never_race() {
        let mut d = dual(2);
        d.observe_collect(&put(0, 0, 1, 0), &[]);
        let r = d.observe_collect(&put(1, 1, 1, 8), &[]).len();
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
        d.observe_collect(&a, &[]);
        let reports = d.observe_collect(&b, &[]);
        // Word 1 (bytes 8..16) is shared → exactly one area races.
        assert_eq!(reports.len(), 1);
    }

    #[test]
    fn writes_to_a_range_that_overflows_the_address_space_still_race() {
        // `offset + len` wraps. The parent clocked no area for such a
        // range in release (0 reports) and panicked on the add in debug.
        let mut d = dual(3);
        let off = usize::MAX - 3;
        assert_eq!(d.observe_collect(&put(0, 0, 1, off), &[]).len(), 0);
        let reports = d.observe_collect(&put(1, 2, 1, off), &[]);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].class, RaceClass::WriteWrite);
        assert_eq!(reports[0].area, AreaKey::new(1, usize::MAX / 8));
    }

    #[test]
    fn clock_memory_single_is_half_of_dual() {
        let mut d = dual(4);
        let mut s = HbDetector::new(4, Granularity::WORD, HbMode::Single);
        for det in [&mut d, &mut s] {
            det.observe_collect(&put(0, 0, 1, 0), &[]);
        }
        assert_eq!(d.clock_memory_bytes(), 2 * s.clock_memory_bytes());
    }

    #[test]
    fn tick_advances_process_clock() {
        let mut d = dual(2);
        assert_eq!(d.process_clock(0).total(), 0);
        d.observe_collect(&put(0, 0, 1, 0), &[]);
        assert_eq!(d.process_clock(0).get(0), 1);
    }

    #[test]
    fn report_ids_match_access_id_scheme() {
        let mut d = dual(3);
        d.observe_collect(&put(0, 0, 1, 0), &[]);
        let reports = d.observe_collect(&put(1, 2, 1, 0), &[]);
        let r = &reports[0];
        // put's write access id = 2*op_id + 1.
        assert_eq!(r.current.id, 3);
        assert_eq!(r.previous.as_ref().unwrap().id, 1);
    }

    #[test]
    fn observe_collect_returns_the_reports_and_feeds_no_other_sink() {
        let mut d = dual(3);
        let mut log = VecSink::new();
        assert_eq!(d.observe_sink(&put(0, 0, 1, 0), &[], &mut log), 0);
        let out = d.observe_collect(&put(1, 2, 1, 0), &[]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].class, RaceClass::WriteWrite);
        // The temporary-VecSink discipline: a sink the detector was driven
        // into before does not see these reports — no double-reporting.
        assert!(log.is_empty());
    }

    #[test]
    fn ordered_writer_stream_stays_on_epoch_fast_path() {
        // One writer hammering one word: totally ordered, so both area
        // clocks must remain epochs the whole way.
        let mut d = dual(2);
        for i in 0..64 {
            assert_eq!(d.observe_collect(&put(i, 0, 1, 0), &[]).len(), 0);
        }
        assert_eq!(d.store().epoch_areas(), d.store().touched_areas());
    }

    #[test]
    fn racy_area_demotes_then_repromotes_after_barrier() {
        let mut d = dual(2);
        d.observe_collect(&put(0, 0, 1, 0), &[]);
        assert_eq!(
            d.observe_collect(&put(1, 1, 1, 0), &[]).len(),
            1,
            "concurrent writes race"
        );
        assert_eq!(d.store().epoch_areas(), 0, "concurrency demoted the area");
        // Barrier orders everyone; the next write dominates the old join.
        d.on_barrier();
        assert_eq!(d.observe_collect(&put(2, 0, 1, 0), &[]).len(), 0);
        assert_eq!(d.store().epoch_areas(), 1, "dominating write re-promoted");
    }
}
