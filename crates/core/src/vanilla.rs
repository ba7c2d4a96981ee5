//! The no-detection baseline.
//!
//! §V-A argues detection overhead is acceptable because it is a debugging
//! feature; the overhead experiments need the "full performance" end of
//! that comparison. [`VanillaDetector`] observes operations (so access
//! counts stay comparable) but keeps no clocks, sends no clock traffic,
//! takes no algorithm locks and never reports.

use crate::detector::Detector;
use crate::event::{DsmOp, LockId};

/// A detector that detects nothing.
#[derive(Debug, Default)]
pub struct VanillaDetector {
    ops_seen: u64,
}

impl VanillaDetector {
    /// A fresh baseline detector.
    pub fn new() -> Self {
        VanillaDetector::default()
    }

    /// Number of operations observed (sanity checks in tests).
    pub fn ops_seen(&self) -> u64 {
        self.ops_seen
    }

    /// Rebuild from a restored op counter (the snapshot codec's restore
    /// path — the counter is this baseline's entire state).
    pub(crate) fn from_ops_seen(ops_seen: u64) -> Self {
        VanillaDetector { ops_seen }
    }
}

impl Detector for VanillaDetector {
    fn name(&self) -> &'static str {
        "vanilla"
    }

    fn observe_sink(
        &mut self,
        _op: &DsmOp,
        _held_locks: &[LockId],
        _sink: &mut dyn crate::api::ReportSink,
    ) -> usize {
        self.ops_seen += 1;
        0
    }

    fn clock_components_per_area(&self) -> usize {
        0
    }

    fn clock_memory_bytes(&self) -> usize {
        0
    }

    fn requires_locking(&self) -> bool {
        false
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        Some(crate::snapshot::encode_vanilla(self.ops_seen))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::OpKind;
    use dsm::addr::GlobalAddr;

    #[test]
    fn never_reports_and_costs_nothing() {
        let mut d = VanillaDetector::new();
        let op = DsmOp {
            op_id: 0,
            actor: 0,
            kind: OpKind::LocalWrite {
                range: GlobalAddr::public(0, 0).range(8),
            },
        };
        for _ in 0..10 {
            assert!(d.observe_collect(&op).is_empty());
        }
        assert_eq!(d.ops_seen(), 10);
        assert_eq!(d.clock_memory_bytes(), 0);
        assert_eq!(d.clock_components_per_area(), 0);
        assert!(!d.requires_locking());
    }
}
