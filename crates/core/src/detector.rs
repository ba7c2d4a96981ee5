//! The detector interface shared by the reference algorithm and the
//! baselines, plus a factory for the experiment harnesses.

use crate::api::{ReportSink, VecSink};
use crate::event::{DsmOp, LockId};
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
/// [`Detector::observe`] / [`Detector::reports`] are the legacy
/// keep-everything convenience: each detector owns a [`VecSink`] log that
/// only the legacy entry points feed. Drive a detector through one
/// interface or the other, not both — the log deliberately does *not* see
/// sink-streamed reports (no double-reporting).
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

    /// Legacy entry point: observe one operation, appending its reports to
    /// the detector's internal log ([`Detector::reports`]); returns the
    /// number of new reports. Implemented by routing
    /// [`Detector::observe_sink`] into the internal [`VecSink`].
    fn observe(&mut self, op: &DsmOp, held_locks: &[LockId]) -> usize;

    /// Observe one op and push a copy of each new report into the
    /// caller-owned `out`; returns the number of new reports. Goes through
    /// a temporary [`VecSink`], so the reports land in `out` and **only**
    /// in `out` — neither the internal log nor any attached sink sees them,
    /// which is what makes double-reporting impossible when both exist.
    fn observe_into(
        &mut self,
        op: &DsmOp,
        held_locks: &[LockId],
        out: &mut Vec<RaceReport>,
    ) -> usize {
        let mut tmp = VecSink::new();
        let n = self.observe_sink(op, held_locks, &mut tmp);
        tmp.drain_into(out);
        n
    }

    /// Observe one op and return the new reports as a fresh `Vec`
    /// (convenience for tests and interactive callers). Same temporary
    /// [`VecSink`] discipline as [`Detector::observe_into`].
    fn observe_collect(&mut self, op: &DsmOp, held_locks: &[LockId]) -> Vec<RaceReport> {
        let mut tmp = VecSink::new();
        self.observe_sink(op, held_locks, &mut tmp);
        tmp.into_reports()
    }

    /// All reports the *legacy* entry points accumulated so far — the
    /// [`VecSink`]-backed convenience. Empty for detectors driven purely
    /// through [`Detector::observe_sink`].
    fn reports(&self) -> &[RaceReport];

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

    /// Serialize this detector's state for the session checkpoint codec
    /// (see [`crate::snapshot`]). `None` means the detector has no durable
    /// representation (the default); the production kinds built by
    /// [`crate::api::DetectorConfig::build`] all return `Some`.
    fn snapshot_state(&self) -> Option<Vec<u8>> {
        None
    }
}

/// The shared body of every legacy [`Detector::observe`] shim: take the
/// internal [`VecSink`] log out of `self` (a three-word swap, no clone) so
/// it can be passed as the sink without aliasing `&mut self`, run
/// `observe_sink`, and put it back. One definition, so the bridge's
/// semantics cannot drift between detectors.
macro_rules! observe_via_log {
    ($self:ident . $log:ident, $op:expr, $held:expr) => {{
        let mut log = std::mem::take(&mut $self.$log);
        let n = $self.observe_sink($op, $held, &mut log);
        $self.$log = log;
        n
    }};
}
pub(crate) use observe_via_log;

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

    /// Instantiate for `n` processes at `granularity`.
    ///
    /// **Legacy shim.** This predates the [`crate::api`] façade and is kept
    /// as a thin wrapper so old call sites and tests keep compiling; new
    /// code should build through [`crate::api::DetectorConfig`], which is
    /// where the slab layout knob lives.
    pub fn build(self, n: usize, granularity: crate::clockstore::Granularity) -> Box<dyn Detector> {
        crate::api::DetectorConfig::new(self, n)
            .with_granularity(granularity)
            .build()
    }

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
    use crate::clockstore::Granularity;

    #[test]
    fn factory_builds_every_kind() {
        for kind in DetectorKind::ALL {
            let d = kind.build(4, Granularity::WORD);
            assert!(!d.name().is_empty());
            assert!(d.reports().is_empty());
        }
    }

    #[test]
    fn clock_traffic_by_kind() {
        let n = 4;
        assert_eq!(
            DetectorKind::Dual
                .build(n, Granularity::WORD)
                .clock_components_per_area(),
            2 * n
        );
        assert_eq!(
            DetectorKind::Single
                .build(n, Granularity::WORD)
                .clock_components_per_area(),
            n
        );
        assert_eq!(
            DetectorKind::Vanilla
                .build(n, Granularity::WORD)
                .clock_components_per_area(),
            0
        );
    }

    #[test]
    fn locking_requirements() {
        assert!(DetectorKind::Dual
            .build(2, Granularity::WORD)
            .requires_locking());
        assert!(!DetectorKind::Vanilla
            .build(2, Granularity::WORD)
            .requires_locking());
        assert!(!DetectorKind::Lockset
            .build(2, Granularity::WORD)
            .requires_locking());
    }
}
