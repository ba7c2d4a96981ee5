//! The detector interface shared by the reference algorithm and the
//! baselines, plus the kind selector that [`crate::api::DetectorConfig`]
//! builds from.

use crate::api::{ReportSink, VecSink};
use crate::event::{DsmOp, Event, LockId};
use crate::report::RaceReport;

/// An online race detector, driven one operation at a time by an execution
/// backend (the discrete-event `simulator` or the real-thread `shmem`
/// runtime).
///
/// The backend guarantees what the paper's algorithms guarantee before the
/// check runs: the source and destination areas are locked (when
/// [`Detector::requires_locking`] is true) and the operation's accesses are
/// presented in program order.
///
/// # Report flow
///
/// The hot path is [`Detector::observe_sink`]: reports stream into a
/// caller-supplied [`ReportSink`] as they are detected, and the detector
/// itself retains nothing — what a report costs is the sink's policy, which
/// is how long-running sessions stay bounded (see [`crate::api`]).
/// [`Detector::observe_collect`] is the convenience for tests and
/// interactive callers that want the reports of one op as a `Vec`.
pub trait Detector: Send {
    /// Detector name for report attribution and tables.
    fn name(&self) -> &'static str;

    /// Observe one operation, streaming any race reports it triggers into
    /// `sink`; returns the number of new reports. `held_locks` is the set
    /// of area locks the actor currently holds *for application purposes*
    /// (i.e. excluding the locks the detection algorithm itself wraps
    /// around the op) — used by the lockset baseline.
    ///
    /// Contract for implementors: this is the hot path. It must not
    /// allocate or clone reports on the common no-race outcome — reports
    /// are handed to the sink exactly once, by value
    /// ([`ReportSink::accept`]), and the sink is not consulted at all for
    /// silent ops.
    fn observe_sink(
        &mut self,
        op: &DsmOp,
        held_locks: &[LockId],
        sink: &mut dyn ReportSink,
    ) -> usize;

    /// Observe one op and return the new reports as a fresh `Vec`
    /// (convenience for tests and interactive callers). The reports go
    /// through a temporary [`VecSink`] and land **only** in the returned
    /// `Vec`.
    fn observe_collect(&mut self, op: &DsmOp, held_locks: &[LockId]) -> Vec<RaceReport> {
        let mut tmp = VecSink::new();
        self.observe_sink(op, held_locks, &mut tmp);
        tmp.into_reports()
    }

    /// Number of clock components of an area that a remote access to it
    /// ships back to the initiator (`0` = no clock traffic; `n` = one
    /// clock; `2n` = V and W). The engine sizes the clocks piggy-backed on
    /// its replies from this.
    fn clock_components_per_area(&self) -> usize;

    /// Bytes of detector metadata currently held, in the paper's §IV-D
    /// accounting (clock storage only).
    fn clock_memory_bytes(&self) -> usize;

    /// Whether the backend must wrap operations in the Algorithm-1/2 lock
    /// pairs. True for the clock-based detectors (the paper requires it so
    /// the detection machinery itself cannot race), false for vanilla and
    /// lockset (which only observe).
    fn requires_locking(&self) -> bool;

    /// Program-level synchronisation hooks. In a real deployment the lock
    /// grant and barrier release messages carry vector clocks (like every
    /// message in the paper's model, §IV-B); the backend reports those
    /// events so the clock-based detectors can merge. Defaults are no-ops
    /// (vanilla / lockset keep no clocks).
    ///
    /// `rank` released the program lock `lock`.
    fn on_release(&mut self, rank: usize, lock: LockId) {
        let _ = (rank, lock);
    }

    /// `rank` acquired the program lock `lock` (after someone's release).
    fn on_acquire(&mut self, rank: usize, lock: LockId) {
        let _ = (rank, lock);
    }

    /// A barrier completed among all ranks.
    fn on_barrier(&mut self) {}

    /// Drive the bare detector with one event: the one place an [`Event`]
    /// maps onto [`Detector::observe_sink`] and the sync hooks for callers
    /// that hold a detector rather than a [`crate::api::Session`]. Returns
    /// the number of reports the event streamed into `sink` (always 0 for
    /// sync events).
    fn apply(&mut self, ev: &Event, held: &[LockId], sink: &mut dyn ReportSink) -> usize {
        match ev {
            Event::Op(op) => self.observe_sink(op, held, sink),
            Event::Barrier => {
                self.on_barrier();
                0
            }
            Event::Acquire { rank, lock } => {
                self.on_acquire(*rank, *lock);
                0
            }
            Event::Release { rank, lock } => {
                self.on_release(*rank, *lock);
                0
            }
        }
    }

    /// Serialize this detector's state for the session checkpoint codec
    /// (see [`crate::snapshot`]). `None` means the detector has no durable
    /// representation (the default); the production kinds built by
    /// [`crate::api::DetectorConfig::build`] all return `Some`.
    fn snapshot_state(&self) -> Option<Vec<u8>> {
        None
    }
}

/// Detector selection for harnesses and config files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorKind {
    /// Corrected dual-clock detector (the reproduction's reference).
    Dual,
    /// Single general-purpose clock (no write clock) — §IV-D's strawman.
    Single,
    /// The algorithms exactly as printed (ABL-lit).
    Literal,
    /// Eraser-style lockset baseline.
    Lockset,
    /// No detection (overhead baseline).
    Vanilla,
}

impl DetectorKind {
    /// All kinds, in reporting order.
    pub const ALL: [DetectorKind; 5] = [
        DetectorKind::Dual,
        DetectorKind::Single,
        DetectorKind::Literal,
        DetectorKind::Lockset,
        DetectorKind::Vanilla,
    ];

    /// The happens-before mode this kind runs, for the clock-based kinds
    /// (`None` for the lockset and vanilla baselines, which keep no area
    /// clocks).
    pub fn hb_mode(self) -> Option<crate::hb::HbMode> {
        match self {
            DetectorKind::Dual => Some(crate::hb::HbMode::Dual),
            DetectorKind::Single => Some(crate::hb::HbMode::Single),
            DetectorKind::Literal => Some(crate::hb::HbMode::Literal),
            DetectorKind::Lockset | DetectorKind::Vanilla => None,
        }
    }

    /// Stable label.
    pub fn label(self) -> &'static str {
        match self {
            DetectorKind::Dual => "dual-clock",
            DetectorKind::Single => "single-clock",
            DetectorKind::Literal => "literal-paper",
            DetectorKind::Lockset => "lockset",
            DetectorKind::Vanilla => "vanilla",
        }
    }

    /// Inverse of [`DetectorKind::label`] (the JSON encoding used by
    /// [`crate::api::DetectorConfig`]).
    pub fn from_label(label: &str) -> Option<Self> {
        DetectorKind::ALL.into_iter().find(|k| k.label() == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::DetectorConfig;
    use crate::clockstore::Granularity;
    use crate::event::OpKind;
    use dsm::GlobalAddr;

    fn build(kind: DetectorKind, n: usize) -> Box<dyn Detector> {
        DetectorConfig::new(kind, n)
            .with_granularity(Granularity::WORD)
            .build()
    }

    #[test]
    fn factory_builds_every_kind() {
        let first_write = DsmOp {
            op_id: 0,
            actor: 0,
            kind: OpKind::Put {
                src: GlobalAddr::private(0, 0).range(8),
                dst: GlobalAddr::public(1, 0).range(8),
            },
        };
        for kind in DetectorKind::ALL {
            let mut d = build(kind, 4);
            assert!(!d.name().is_empty());
            assert!(d.observe_collect(&first_write, &[]).is_empty());
        }
    }

    #[test]
    fn clock_traffic_by_kind() {
        let n = 4;
        assert_eq!(
            build(DetectorKind::Dual, n).clock_components_per_area(),
            2 * n
        );
        assert_eq!(
            build(DetectorKind::Single, n).clock_components_per_area(),
            n
        );
        assert_eq!(
            build(DetectorKind::Vanilla, n).clock_components_per_area(),
            0
        );
    }

    #[test]
    fn locking_requirements() {
        assert!(build(DetectorKind::Dual, 2).requires_locking());
        assert!(!build(DetectorKind::Vanilla, 2).requires_locking());
        assert!(!build(DetectorKind::Lockset, 2).requires_locking());
    }
}
