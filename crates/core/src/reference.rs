//! The full-vector-clock reference detector — the paper's algorithms with
//! **no** performance machinery.
//!
//! This is the pre-optimisation implementation of [`crate::hb::HbDetector`]
//! kept verbatim in the tree as its **parity oracle**: the differential
//! property tests (`tests/differential.rs`) drive random operation streams
//! through this detector and the epoch-fast-path detector and assert
//! byte-identical report sequences in every [`HbMode`] and at several
//! granularities.
//!
//! Cost profile it deliberately preserves: a `HashMap` lookup per touched
//! block, a full `O(n)` vector compare per recorded access, an `O(n)` merge
//! per area update, one clock snapshot allocation per *access*, and a
//! per-op `Vec` of reports — every cost the optimised detector removes.

use std::collections::HashMap;
use std::sync::Arc;

use dsm::addr::Segment;
use vclock::{MatrixClock, VectorClock};

use crate::clockstore::{AreaKey, Granularity};
use crate::detector::Detector;
use crate::event::{AccessKind, AccessSummary, DsmOp, LockId};
use crate::hb::HbMode;
use crate::report::{RaceClass, RaceReport};
use crate::Rank;

/// Clock state and recent-access history for one area, dense clocks only.
#[derive(Debug, Clone)]
struct RefAreaHistory {
    /// General-purpose clock: join of every access's clock.
    v: VectorClock,
    /// Write clock: join of every write's clock.
    w: VectorClock,
    /// Antichain of recent writes (pairwise concurrent).
    writes: Vec<AccessSummary>,
    /// Antichain of recent reads not yet superseded.
    reads: Vec<AccessSummary>,
}

impl RefAreaHistory {
    fn new(n: usize) -> Self {
        RefAreaHistory {
            v: VectorClock::zero(n),
            w: VectorClock::zero(n),
            writes: Vec::new(),
            reads: Vec::new(),
        }
    }

    /// The pre-optimisation layout stored an *owned* clock per antichain
    /// entry; materialise that *copy* so the baseline keeps the original
    /// allocation profile (the shared `AccessSummary` type now carries an
    /// `Arc`, which would otherwise hide it).
    fn owned_clock_copy(access: &AccessSummary) -> AccessSummary {
        AccessSummary {
            row: Arc::new(access.clock().into_owned()),
            ..access.clone()
        }
    }

    fn record_write(&mut self, access: &AccessSummary) {
        let access = Self::owned_clock_copy(access);
        self.writes
            .retain(|p| p.clock().concurrent_with(&access.clock()));
        self.reads
            .retain(|p| p.clock().concurrent_with(&access.clock()));
        self.v.merge(&access.clock());
        self.w.merge(&access.clock());
        self.writes.push(access);
    }

    fn record_read(&mut self, access: &AccessSummary) {
        let access = Self::owned_clock_copy(access);
        self.reads
            .retain(|p| p.clock().concurrent_with(&access.clock()));
        self.v.merge(&access.clock());
        self.reads.push(access);
    }
}

/// The unoptimised happens-before detector (see the module docs).
pub struct ReferenceHbDetector {
    mode: HbMode,
    granularity: Granularity,
    areas: HashMap<AreaKey, RefAreaHistory>,
    clocks: Vec<MatrixClock>,
    lock_clocks: HashMap<LockId, VectorClock>,
    n: usize,
}

impl ReferenceHbDetector {
    /// A reference detector for `n` processes at `granularity`.
    pub fn new(n: usize, granularity: Granularity, mode: HbMode) -> Self {
        ReferenceHbDetector {
            mode,
            granularity,
            areas: HashMap::new(),
            clocks: (0..n).map(|i| MatrixClock::zero(i, n)).collect(),
            lock_clocks: HashMap::new(),
            n,
        }
    }

    /// The actor's current vector clock (differential-test introspection).
    pub fn process_clock(&self, rank: Rank) -> &VectorClock {
        self.clocks[rank].own_row()
    }

    /// Area keys covered by `range` (allocates a `Vec`, as the original
    /// store did).
    fn areas_for(&self, range: &dsm::addr::MemRange) -> Vec<AreaKey> {
        self.granularity
            .blocks_of(range)
            .map(|block| AreaKey::new(range.addr.rank, block))
            .collect()
    }

    /// Check one access against one area's history (full O(n) compares
    /// against every antichain entry, no guards). Returns fresh reports.
    fn check_access(&self, access: &AccessSummary, area: AreaKey) -> Vec<RaceReport> {
        let Some(hist) = self.areas.get(&area) else {
            return Vec::new(); // untouched area: initial zero clocks precede everything
        };
        let mut out = Vec::new();
        let (check_writes, check_reads) = self.mode.checks(access.kind);
        if check_writes {
            for prev in &hist.writes {
                if access.atomic && prev.atomic {
                    continue;
                }
                if prev.process != access.process && prev.clock().concurrent_with(&access.clock()) {
                    let class = if access.kind.is_write() {
                        RaceClass::WriteWrite
                    } else {
                        RaceClass::ReadWrite
                    };
                    out.push(RaceReport {
                        detector: self.mode.detector_name(),
                        class,
                        current: access.clone(),
                        previous: Some(prev.clone()),
                        area,
                    });
                }
            }
        }
        if check_reads {
            for prev in &hist.reads {
                if access.atomic && prev.atomic {
                    continue;
                }
                if prev.process != access.process && prev.clock().concurrent_with(&access.clock()) {
                    let class = if access.kind.is_write() {
                        RaceClass::ReadWrite
                    } else {
                        RaceClass::ReadRead
                    };
                    out.push(RaceReport {
                        detector: self.mode.detector_name(),
                        class,
                        current: access.clone(),
                        previous: Some(prev.clone()),
                        area,
                    });
                }
            }
        }
        out
    }
}

impl Detector for ReferenceHbDetector {
    fn name(&self) -> &'static str {
        // Distinct from the optimised detector so mixed tables attribute
        // correctly; the differential tests compare reports field-by-field
        // with the name normalised.
        "reference"
    }

    fn observe_sink(
        &mut self,
        op: &DsmOp,
        _held_locks: &[LockId],
        sink: &mut dyn crate::api::ReportSink,
    ) -> usize {
        let actor_clock = self.clocks[op.actor].tick();
        let mut new_reports = Vec::new();
        let mut absorb = VectorClock::zero(self.n);

        for (kind, range, access_id) in op.accesses() {
            if range.addr.segment != Segment::Public {
                continue;
            }
            let access = AccessSummary {
                id: access_id,
                process: op.actor,
                kind,
                range,
                atomic: op.is_atomic(),
                count: actor_clock.get(op.actor),
                // One snapshot allocation per access — the original cost.
                row: Arc::new(actor_clock.clone()),
            };
            for area in self.areas_for(&range) {
                new_reports.extend(self.check_access(&access, area));
                let n = self.n;
                let hist = self
                    .areas
                    .entry(area)
                    .or_insert_with(|| RefAreaHistory::new(n));
                match kind {
                    AccessKind::Write => hist.record_write(&access),
                    AccessKind::Read => {
                        absorb.merge(&hist.w);
                        if self.mode == HbMode::Single || self.mode == HbMode::Literal {
                            absorb.merge(&hist.v);
                        }
                        hist.record_read(&access);
                    }
                }
            }
        }

        self.clocks[op.actor].observe(op.actor, &absorb);
        let count = new_reports.len();
        // The original per-op report Vec is built (and paid for) either
        // way; the sink receives the values when it is done.
        for report in new_reports {
            sink.accept(report);
        }
        count
    }

    fn clock_components_per_area(&self) -> usize {
        match self.mode {
            HbMode::Dual | HbMode::Literal => 2 * self.n,
            HbMode::Single => self.n,
        }
    }

    fn clock_memory_bytes(&self) -> usize {
        let per_clock = self.n * std::mem::size_of::<u64>();
        let dual = self.mode != HbMode::Single;
        self.areas.len() * per_clock * if dual { 2 } else { 1 }
    }

    fn requires_locking(&self) -> bool {
        true
    }

    fn on_release(&mut self, rank: usize, lock: LockId) {
        let snapshot = self.clocks[rank].own_row().clone();
        self.lock_clocks
            .entry(lock)
            .and_modify(|c| c.merge(&snapshot))
            .or_insert(snapshot);
    }

    fn on_acquire(&mut self, rank: usize, lock: LockId) {
        if let Some(c) = self.lock_clocks.get(&lock) {
            let c = c.clone();
            self.clocks[rank].observe(rank, &c);
        }
    }

    fn on_barrier(&mut self) {
        let mut join = VectorClock::zero(self.n);
        for c in &self.clocks {
            join.merge(c.own_row());
        }
        for (rank, c) in self.clocks.iter_mut().enumerate() {
            c.observe(rank, &join);
        }
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

    #[test]
    fn reference_detects_fig5a() {
        let mut d = ReferenceHbDetector::new(3, Granularity::WORD, HbMode::Dual);
        assert_eq!(d.observe_collect(&put(0, 0, 1, 0), &[]).len(), 0);
        let reports = d.observe_collect(&put(1, 2, 1, 0), &[]);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].class, RaceClass::WriteWrite);
    }

    #[test]
    fn memory_accounting_matches_optimised_detector() {
        use crate::hb::HbDetector;
        let mut r = ReferenceHbDetector::new(4, Granularity::WORD, HbMode::Dual);
        let mut h = HbDetector::new(4, Granularity::WORD, HbMode::Dual);
        for d in [&mut r as &mut dyn Detector, &mut h as &mut dyn Detector] {
            d.observe_collect(&put(0, 0, 1, 0), &[]);
            d.observe_collect(&put(1, 0, 1, 64), &[]);
        }
        assert_eq!(r.clock_memory_bytes(), h.clock_memory_bytes());
    }
}
