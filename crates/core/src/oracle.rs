//! Offline ground truth: exact happens-before over a complete trace.
//!
//! The paper has no quantitative evaluation of detection quality; to measure
//! the §IV-D claim ("eliminates numerous cases of false positives") we need
//! ground truth. The oracle sees the *whole* execution after the fact —
//! every access in memory-apply order plus every synchronisation edge the
//! runtime created (lock hand-offs, barriers, data flow through get/put) —
//! and computes exact vector clocks over that event graph. Two accesses
//! race iff they conflict (overlapping ranges, different processes, at
//! least one write) and their exact clocks are concurrent.
//!
//! Online detectors are then scored against the oracle's pair set:
//! precision = reported ∧ true / reported, recall = reported ∧ true / true.

use std::collections::HashMap;

use dsm::addr::MemRange;
use vclock::VectorClock;

use crate::event::AccessKind;
use crate::report::RaceReport;
use crate::Rank;

/// One access as recorded in the trace (ids use the same
/// `2*op_id (+1)` scheme as the online detectors).
#[derive(Debug, Clone)]
pub struct TraceAccess {
    /// Access id.
    pub id: u64,
    /// Performing process.
    pub process: Rank,
    /// Read or write.
    pub kind: AccessKind,
    /// Bytes touched.
    pub range: MemRange,
    /// True for NIC-atomic accesses (atomic-atomic pairs never race).
    pub atomic: bool,
}

/// A complete execution trace.
///
/// `events` must be listed in a causally consistent global order (the
/// simulator's apply order qualifies). Two edge kinds mirror the paper's
/// clock semantics:
///
/// * `edges` — **synchronisation** edges (lock release→acquire, barrier):
///   the target event is ordered after the source;
/// * `absorb_edges` — **data-flow** edges (write→read that observed it):
///   causality reaches the reader's *subsequent* events, but the reading
///   access itself stays concurrent with the write. This is exactly the
///   check-then-absorb order of Algorithm 2: an unsynchronised read that
///   happens to see a write is still a race (the read could equally have
///   lost the schedule race), while everything the reader does afterwards
///   is causally after the write (the Fig 5b chains).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Number of processes.
    pub n: usize,
    /// Accesses in apply order.
    pub events: Vec<TraceAccess>,
    /// Cross-process synchronisation edges between access ids.
    pub edges: Vec<(u64, u64)>,
    /// Data-flow edges: ordered *past* the target, not including it.
    pub absorb_edges: Vec<(u64, u64)>,
}

impl Trace {
    /// An empty trace over `n` processes.
    pub fn new(n: usize) -> Self {
        Trace {
            n,
            events: Vec::new(),
            edges: Vec::new(),
            absorb_edges: Vec::new(),
        }
    }

    /// Append an access.
    pub fn push_access(&mut self, access: TraceAccess) {
        self.events.push(access);
    }

    /// Append a synchronisation happens-before edge.
    pub fn push_edge(&mut self, from: u64, to: u64) {
        self.edges.push((from, to));
    }

    /// Append a data-flow (absorb) edge.
    pub fn push_absorb_edge(&mut self, from: u64, to: u64) {
        self.absorb_edges.push((from, to));
    }
}

/// A ground-truth race pair (unordered access ids, smaller first).
pub type TruthPair = (u64, u64);

/// Result of scoring a detector's reports against ground truth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Score {
    /// Reported pairs that are true races.
    pub true_positives: usize,
    /// Reported pairs that are not races (or unattributable reports).
    pub false_positives: usize,
    /// True races never reported.
    pub false_negatives: usize,
}

impl Score {
    /// `tp / (tp + fp)`; 1.0 when nothing was reported.
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// `tp / (tp + fn)`; 1.0 when there are no true races.
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// The all-zero score (identity of [`Score::absorb`] — the starting
    /// point for matrix aggregation).
    pub fn zero() -> Self {
        Score {
            true_positives: 0,
            false_positives: 0,
            false_negatives: 0,
        }
    }

    /// Accumulate another score cell-wise (aggregating a matrix of
    /// independent runs; precision/recall of the sum are the micro-averaged
    /// metrics over the whole matrix).
    pub fn absorb(&mut self, other: &Score) {
        self.true_positives += other.true_positives;
        self.false_positives += other.false_positives;
        self.false_negatives += other.false_negatives;
    }

    /// Perfect means sound *and* complete: no false positives, no false
    /// negatives.
    pub fn is_perfect(&self) -> bool {
        self.false_positives == 0 && self.false_negatives == 0
    }
}

/// A race *site*: the owning rank and first conflicting 8-byte word.
///
/// Online detectors with bounded per-area histories (this crate's
/// antichains, FastTrack's epochs, …) guarantee **at least one report per
/// racy variable**, not one per historical access pair: an access
/// superseded by a causally later one from the same or another process is
/// reported through its successor. Site-level recall is therefore the
/// meaningful completeness metric; pair-level precision remains the
/// soundness metric.
pub type SiteKey = (Rank, usize);

/// The site key of a conflicting range pair: the owner rank plus the
/// higher of the two 8-byte word indices (the word where the overlap
/// begins). Shared by the oracle's scoring and the static analyzer's
/// verdict catalogue so the two graders name sites identically.
pub fn site_of(ra: &MemRange, rb: &MemRange) -> SiteKey {
    let word = ra.addr.offset.max(rb.addr.offset) / 8;
    (ra.addr.rank, word)
}

/// The offline analyser.
pub struct Oracle {
    truth: Vec<TruthPair>,
    clocks: HashMap<u64, VectorClock>,
    accesses: HashMap<u64, TraceAccess>,
}

impl Oracle {
    /// Analyse a trace, computing exact clocks and the ground-truth pairs.
    pub fn analyze(trace: &Trace) -> Self {
        // Incoming edges per access id.
        let mut incoming: HashMap<u64, Vec<u64>> = HashMap::new();
        for &(from, to) in &trace.edges {
            incoming.entry(to).or_default().push(from);
        }
        let mut absorbing: HashMap<u64, Vec<u64>> = HashMap::new();
        for &(from, to) in &trace.absorb_edges {
            absorbing.entry(to).or_default().push(from);
        }

        let mut proc_clock: Vec<VectorClock> =
            (0..trace.n).map(|_| VectorClock::zero(trace.n)).collect();
        let mut clocks: HashMap<u64, VectorClock> = HashMap::new();

        // Events arrive in a causally consistent order, so every edge source
        // has been processed before its target.
        for ev in &trace.events {
            let mut c = proc_clock[ev.process].clone();
            // Synchronisation edges order the event itself.
            if let Some(preds) = incoming.get(&ev.id) {
                for p in preds {
                    if let Some(pc) = clocks.get(p) {
                        c.merge(pc);
                    }
                }
            }
            c.tick(ev.process);
            clocks.insert(ev.id, c.clone());
            // Data-flow (absorb) edges reach only *subsequent* events of
            // this process: merge after the event's clock is assigned.
            if let Some(preds) = absorbing.get(&ev.id) {
                for p in preds {
                    if let Some(pc) = clocks.get(p) {
                        c.merge(pc);
                    }
                }
            }
            proc_clock[ev.process] = c;
        }

        // Conflicting, concurrent pairs.
        let mut truth = Vec::new();
        for (i, a) in trace.events.iter().enumerate() {
            for b in &trace.events[i + 1..] {
                if a.process == b.process {
                    continue;
                }
                if !a.kind.is_write() && !b.kind.is_write() {
                    continue;
                }
                if a.atomic && b.atomic {
                    continue; // NIC-serialised pair
                }
                if !a.range.overlaps(&b.range) {
                    continue;
                }
                if clocks[&a.id].concurrent_with(&clocks[&b.id]) {
                    truth.push((a.id.min(b.id), a.id.max(b.id)));
                }
            }
        }
        truth.sort_unstable();
        truth.dedup();
        let accesses = trace.events.iter().map(|e| (e.id, e.clone())).collect();
        Oracle {
            truth,
            clocks,
            accesses,
        }
    }

    /// The ground-truth race pairs.
    pub fn truth(&self) -> &[TruthPair] {
        &self.truth
    }

    /// The exact clock the oracle computed for an access.
    pub fn clock_of(&self, access_id: u64) -> Option<&VectorClock> {
        self.clocks.get(&access_id)
    }

    /// Score a detector's reports against the ground truth.
    ///
    /// A report counts as a true positive when its access pair is a ground
    /// truth pair. Reports without attribution count as false positives
    /// unless *some* truth pair involves the current access (we credit the
    /// detection but cannot check the pair).
    pub fn score(&self, reports: &[RaceReport]) -> Score {
        use std::collections::HashSet;
        let truth: HashSet<TruthPair> = self.truth.iter().copied().collect();
        let mut found: HashSet<TruthPair> = HashSet::new();
        let mut fp = 0;
        for r in reports {
            match r.pair() {
                Some(p) => {
                    if truth.contains(&p) {
                        found.insert(p);
                    } else {
                        fp += 1;
                    }
                }
                None => {
                    // Unattributed: credit any truth pair touching the event.
                    let id = r.current.id;
                    let touching: Vec<_> = self
                        .truth
                        .iter()
                        .filter(|(a, b)| *a == id || *b == id)
                        .copied()
                        .collect();
                    if touching.is_empty() {
                        fp += 1;
                    } else {
                        found.extend(touching);
                    }
                }
            }
        }
        Score {
            true_positives: found.len(),
            false_positives: fp,
            false_negatives: truth.len() - found.len(),
        }
    }

    /// Ground-truth race sites.
    pub fn truth_sites(&self) -> std::collections::HashSet<SiteKey> {
        self.truth
            .iter()
            .filter_map(|(a, b)| {
                let ea = self.accesses.get(a)?;
                let eb = self.accesses.get(b)?;
                Some(site_of(&ea.range, &eb.range))
            })
            .collect()
    }

    /// Score at site granularity: a truth site counts as found when any
    /// report names its conflicting word; a report whose site is not a
    /// truth site is a false positive.
    pub fn site_score(&self, reports: &[RaceReport]) -> Score {
        let truth = self.truth_sites();
        let mut found = std::collections::HashSet::new();
        let mut fp_sites = std::collections::HashSet::new();
        for r in reports {
            let Some(prev) = &r.previous else {
                continue;
            };
            let site = site_of(&r.current.range, &prev.range);
            if truth.contains(&site) {
                found.insert(site);
            } else {
                fp_sites.insert(site);
            }
        }
        Score {
            true_positives: found.len(),
            false_positives: fp_sites.len(),
            false_negatives: truth.len() - found.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm::addr::GlobalAddr;

    fn acc(id: u64, process: Rank, kind: AccessKind, off: usize) -> TraceAccess {
        TraceAccess {
            id,
            process,
            kind,
            range: GlobalAddr::public(0, off).range(8),
            atomic: false,
        }
    }

    #[test]
    fn unsynchronised_writes_race() {
        let mut t = Trace::new(2);
        t.push_access(acc(1, 0, AccessKind::Write, 0));
        t.push_access(acc(3, 1, AccessKind::Write, 0));
        let o = Oracle::analyze(&t);
        assert_eq!(o.truth(), &[(1, 3)]);
    }

    #[test]
    fn edge_orders_accesses() {
        let mut t = Trace::new(2);
        t.push_access(acc(1, 0, AccessKind::Write, 0));
        t.push_access(acc(3, 1, AccessKind::Write, 0));
        t.push_edge(1, 3); // e.g. lock hand-off
        let o = Oracle::analyze(&t);
        assert!(o.truth().is_empty());
    }

    #[test]
    fn reads_never_race_with_reads() {
        let mut t = Trace::new(2);
        t.push_access(acc(1, 0, AccessKind::Read, 0));
        t.push_access(acc(3, 1, AccessKind::Read, 0));
        let o = Oracle::analyze(&t);
        assert!(o.truth().is_empty());
    }

    #[test]
    fn disjoint_ranges_never_race() {
        let mut t = Trace::new(2);
        t.push_access(acc(1, 0, AccessKind::Write, 0));
        t.push_access(acc(3, 1, AccessKind::Write, 64));
        assert!(Oracle::analyze(&t).truth().is_empty());
    }

    #[test]
    fn same_process_never_races() {
        let mut t = Trace::new(2);
        t.push_access(acc(1, 0, AccessKind::Write, 0));
        t.push_access(acc(3, 0, AccessKind::Write, 0));
        assert!(Oracle::analyze(&t).truth().is_empty());
    }

    #[test]
    fn dataflow_orders_later_events_not_the_read() {
        // w0 →(absorb) r1: the read itself still races with the write, but
        // P1's subsequent write is ordered after w0 (the Fig 5b chain).
        let mut t = Trace::new(3);
        t.push_access(acc(1, 0, AccessKind::Write, 0));
        t.push_access(acc(3, 1, AccessKind::Read, 0));
        t.push_absorb_edge(1, 3);
        t.push_access(acc(5, 1, AccessKind::Write, 0));
        let o = Oracle::analyze(&t);
        assert_eq!(o.truth(), &[(1, 3)], "read races; later write does not");
    }

    #[test]
    fn sync_edge_orders_the_read_itself() {
        // Same shape but with a *sync* edge (e.g. lock hand-off): nothing
        // races.
        let mut t = Trace::new(3);
        t.push_access(acc(1, 0, AccessKind::Write, 0));
        t.push_access(acc(3, 1, AccessKind::Read, 0));
        t.push_edge(1, 3);
        t.push_access(acc(5, 1, AccessKind::Write, 0));
        let o = Oracle::analyze(&t);
        assert!(o.truth().is_empty());
    }

    #[test]
    fn scoring_counts_tp_fp_fn() {
        let mut t = Trace::new(3);
        t.push_access(acc(1, 0, AccessKind::Write, 0));
        t.push_access(acc(3, 1, AccessKind::Write, 0)); // races with 1
        t.push_access(acc(5, 2, AccessKind::Write, 64)); // no race
        let o = Oracle::analyze(&t);
        assert_eq!(o.truth().len(), 1);

        use crate::clockstore::AreaKey;
        use crate::event::AccessSummary;
        let mk = |cur: u64, prev: u64| RaceReport {
            detector: "t",
            class: crate::report::RaceClass::WriteWrite,
            current: AccessSummary {
                id: cur,
                process: 0,
                kind: AccessKind::Write,
                range: GlobalAddr::public(0, 0).range(8),
                atomic: false,
                count: 0,
                row: std::sync::Arc::new(VectorClock::zero(3)),
            },
            previous: Some(AccessSummary {
                id: prev,
                process: 1,
                kind: AccessKind::Write,
                range: GlobalAddr::public(0, 0).range(8),
                atomic: false,
                count: 0,
                row: std::sync::Arc::new(VectorClock::zero(3)),
            }),
            area: AreaKey::new(0, 0),
        };
        // One correct report, one bogus.
        let s = o.score(&[mk(3, 1), mk(5, 1)]);
        assert_eq!(s.true_positives, 1);
        assert_eq!(s.false_positives, 1);
        assert_eq!(s.false_negatives, 0);
        assert!((s.precision() - 0.5).abs() < 1e-9);
        assert!((s.recall() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_everything_scores_perfect() {
        let o = Oracle::analyze(&Trace::new(2));
        let s = o.score(&[]);
        assert_eq!(s.precision(), 1.0);
        assert_eq!(s.recall(), 1.0);
    }
}
