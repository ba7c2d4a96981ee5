//! The detector interface that [`crate::hb::HbDetector`] and the
//! unoptimised [`crate::reference::ReferenceHbDetector`] share, plus the
//! kind selector that [`crate::api::DetectorConfig`] names. Backends drive
//! a [`crate::api::Session`], which runs an `HbDetector` for the clock
//! kinds and only counts ops for [`DetectorKind::Vanilla`].

use crate::api::{ReportSink, VecSink};
use crate::event::{DsmOp, Event, LockId};
use crate::report::RaceReport;

/// An online happens-before race detector, driven one operation at a time
/// (by a [`crate::api::Session`], or bare by tests and the benchmark's
/// detector rung).
///
/// The backend guarantees what the paper's algorithms guarantee before the
/// check runs: the source and destination areas are locked (see
/// [`crate::api::Session::requires_locking`]) and the operation's accesses
/// are presented in program order.
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
    /// Observe one operation, streaming any race reports it triggers into
    /// `sink`; returns the number of new reports. `held_locks` is ignored:
    /// no detector reads it, and it goes with the next change to the
    /// `benchmark` crate, which still passes `&[]` (ROADMAP item 3).
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
    fn observe_collect(&mut self, op: &DsmOp) -> Vec<RaceReport> {
        let mut tmp = VecSink::new();
        self.observe_sink(op, &[], &mut tmp);
        tmp.into_reports()
    }

    /// Bytes of detector metadata currently held, in the paper's §IV-D
    /// accounting (clock storage only).
    fn clock_memory_bytes(&self) -> usize;

    /// Program-level synchronisation hooks. In a real deployment the lock
    /// grant and barrier release messages carry vector clocks (like every
    /// message in the paper's model, §IV-B); the backend reports those
    /// events so the detector can merge.
    ///
    /// `rank` released the program lock `lock`.
    fn on_release(&mut self, rank: usize, lock: LockId);

    /// `rank` acquired the program lock `lock` (after someone's release).
    fn on_acquire(&mut self, rank: usize, lock: LockId);

    /// A barrier completed among all ranks.
    fn on_barrier(&mut self);

    /// Drive the bare detector with one event: the one place an [`Event`]
    /// maps onto [`Detector::observe_sink`] and the sync hooks for callers
    /// that hold a detector rather than a [`crate::api::Session`]. Returns
    /// the number of reports the event streamed into `sink` (always 0 for
    /// sync events).
    fn apply(&mut self, ev: &Event, sink: &mut dyn ReportSink) -> usize {
        match ev {
            Event::Op(op) => self.observe_sink(op, &[], sink),
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
    /// No detection (overhead baseline).
    Vanilla,
}

impl DetectorKind {
    /// All kinds, in reporting order.
    pub const ALL: [DetectorKind; 4] = [
        DetectorKind::Dual,
        DetectorKind::Single,
        DetectorKind::Literal,
        DetectorKind::Vanilla,
    ];

    /// The happens-before mode this kind runs, for the clock-based kinds
    /// (`None` for the vanilla baseline, which keeps no area clocks).
    pub fn hb_mode(self) -> Option<crate::hb::HbMode> {
        match self {
            DetectorKind::Dual => Some(crate::hb::HbMode::Dual),
            DetectorKind::Single => Some(crate::hb::HbMode::Single),
            DetectorKind::Literal => Some(crate::hb::HbMode::Literal),
            DetectorKind::Vanilla => None,
        }
    }

    /// See [`crate::api::Session::requires_locking`].
    pub(crate) fn requires_locking(self) -> bool {
        self.hb_mode().is_some()
    }

    /// See [`crate::api::Session::clock_components_per_area`]; `n` is the
    /// process count.
    pub(crate) fn clock_components_per_area(self, n: usize) -> usize {
        match self {
            DetectorKind::Dual | DetectorKind::Literal => 2 * n,
            DetectorKind::Single => n,
            DetectorKind::Vanilla => 0,
        }
    }

    /// Stable label; also the detector name every report of the kind
    /// carries.
    pub fn label(self) -> &'static str {
        match self {
            DetectorKind::Dual => "dual-clock",
            DetectorKind::Single => "single-clock",
            DetectorKind::Literal => "literal-paper",
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
    use crate::event::OpKind;
    use dsm::GlobalAddr;

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
            let mut session = DetectorConfig::new(kind, 4).session();
            assert!(session.observe_collect(&first_write).is_empty());
            assert_eq!(session.events(), 1);
        }
    }

    #[test]
    fn clock_traffic_by_kind() {
        let n = 4;
        let expected = [
            (DetectorKind::Dual, 2 * n),
            (DetectorKind::Single, n),
            (DetectorKind::Literal, 2 * n),
            (DetectorKind::Vanilla, 0),
        ];
        for (kind, components) in expected {
            assert_eq!(kind.clock_components_per_area(n), components);
            let session = DetectorConfig::new(kind, n).session();
            assert_eq!(session.clock_components_per_area(), components);
        }
    }

    #[test]
    fn locking_requirements() {
        for kind in DetectorKind::ALL {
            let locks = kind != DetectorKind::Vanilla;
            assert_eq!(kind.requires_locking(), locks);
            assert_eq!(
                DetectorConfig::new(kind, 2).session().requires_locking(),
                locks
            );
        }
    }
}
