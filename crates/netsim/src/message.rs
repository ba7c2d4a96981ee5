//! Messages and operation classes.
//!
//! The network is payload-generic; the only thing it needs from a payload is
//! an [`OpClass`] for the statistics tables (Fig 2 message counting, §V-A
//! overhead accounting split into data vs detection traffic).

use crate::time::SimTime;
use crate::Rank;

/// Unique, monotonically increasing message identifier (assigned by the
/// network at send time; doubles as a deterministic tie-breaker).
pub type MsgId = u64;

/// Coarse classification of traffic for the accounting tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Application data movement: the single message of a `put`.
    PutData,
    /// The request half of a `get` (1st of its 2 messages).
    GetRequest,
    /// The reply half of a `get` (2nd of its 2 messages), carrying data.
    GetReply,
    /// Lock protocol traffic (request / grant / release).
    Lock,
    /// NIC-executed atomic read-modify-write (fetch-add, compare-and-swap)
    /// — the "new operations" extension of §V-B (request + reply).
    Atomic,
    /// Clock traffic added by the race-detection algorithms (Algorithms
    /// 1, 2 and 5) — the paper's detection overhead: detection-only
    /// messages, plus the clock bytes piggy-backed on messages of other
    /// classes (see [`Classify::detection_bytes`]).
    Clock,
    /// Synchronisation (barriers, fences).
    Sync,
    /// Anything else.
    Other,
}

impl OpClass {
    /// All classes, in reporting order.
    pub const ALL: [OpClass; 8] = [
        OpClass::PutData,
        OpClass::GetRequest,
        OpClass::GetReply,
        OpClass::Lock,
        OpClass::Atomic,
        OpClass::Clock,
        OpClass::Sync,
        OpClass::Other,
    ];

    /// Position in [`OpClass::ALL`] (the per-class counter index).
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            OpClass::PutData => "put-data",
            OpClass::GetRequest => "get-req",
            OpClass::GetReply => "get-reply",
            OpClass::Lock => "lock",
            OpClass::Atomic => "atomic",
            OpClass::Clock => "clock",
            OpClass::Sync => "sync",
            OpClass::Other => "other",
        }
    }

    /// True for traffic that exists only because detection is enabled.
    pub fn is_detection_overhead(self) -> bool {
        matches!(self, OpClass::Clock)
    }
}

/// Trait implemented by protocol payloads so the network can classify and
/// size them without knowing their structure.
pub trait Classify {
    /// Operation class for the statistics tables.
    fn class(&self) -> OpClass;
    /// Payload size in bytes as it would appear on the wire (excluding the
    /// fixed header accounted by the network).
    fn wire_bytes(&self) -> usize;
    /// The part of [`Classify::wire_bytes`] that a message of a
    /// *non-detection* class carries only because detection is enabled
    /// (piggy-backed clocks). The statistics book these bytes under
    /// [`OpClass::Clock`] and the rest under the message's own class, so
    /// §V-A's byte overhead stays measurable when detection adds bytes to a
    /// data message instead of sending its own. Messages classed
    /// [`OpClass::Clock`] are detection traffic whole and report 0 here.
    fn detection_bytes(&self) -> usize {
        0
    }
}

/// A message in flight.
#[derive(Debug, Clone)]
pub struct Message<P> {
    /// Network-assigned identifier.
    pub id: MsgId,
    /// Sending rank.
    pub src: Rank,
    /// Destination rank.
    pub dst: Rank,
    /// When the send was issued.
    pub sent_at: SimTime,
    /// Protocol payload.
    pub payload: P,
}

/// Fixed per-message header cost, bytes (addresses, lengths, CRC — a
/// plausible RDMA header; the exact constant only scales the tables).
pub const HEADER_BYTES: usize = 32;

impl<P: Classify> Message<P> {
    /// Total wire footprint of the message.
    pub fn total_bytes(&self) -> usize {
        HEADER_BYTES + self.payload.wire_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake(usize);
    impl Classify for Fake {
        fn class(&self) -> OpClass {
            OpClass::PutData
        }
        fn wire_bytes(&self) -> usize {
            self.0
        }
    }

    #[test]
    fn total_bytes_includes_header() {
        let m = Message {
            id: 0,
            src: 0,
            dst: 1,
            sent_at: SimTime::ZERO,
            payload: Fake(100),
        };
        assert_eq!(m.total_bytes(), 100 + HEADER_BYTES);
    }

    #[test]
    fn index_follows_reporting_order() {
        for (i, c) in OpClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<_> = OpClass::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), OpClass::ALL.len());
    }

    #[test]
    fn only_clock_is_detection_overhead() {
        for c in OpClass::ALL {
            assert_eq!(c.is_detection_overhead(), c == OpClass::Clock);
        }
    }
}
