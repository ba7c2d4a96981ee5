//! The DSM wire protocol carried over the `netsim` interconnect.
//!
//! Message inventory follows §III-B exactly: a **put is one message**
//! (source → destination, carrying the data); a **get is two messages**
//! (request, then the data reply). Program locks add request/grant/release
//! traffic.
//!
//! The detection algorithms (Algorithms 1, 2, 5) add **no message kinds of
//! their own**: the initiator's clock and a take-the-area-lock flag ride on
//! the data request as a [`DetHeader`], the owner's NIC runs the critical
//! section (lock, read `(V, W)`, access, merge, unlock), and the area's
//! `(V, W)` comes back on the reply — [`DsmPayload::GetReply`],
//! [`DsmPayload::AtomicReply`], or the [`DsmPayload::PutAck`] a put gains
//! under detection. A detected access is therefore two messages. Only an
//! op that locks two public areas keeps explicit
//! [`DsmPayload::LockRequest`]s, and then `(V, W)` rides on the
//! [`DsmPayload::LockGrant`]. Clocks are carried as a *word count*: the
//! detection logic is centralised in the detector, so the wire only needs
//! their size. [`Classify::detection_bytes`] reports the piggy-backed
//! bytes, so the §V-A overhead split stays measurable.

use netsim::{Classify, OpClass};

use crate::addr::MemRange;
use crate::data::Data;

/// An operation token correlating requests with replies/completions.
pub type OpToken = u64;

/// Atomic read-modify-write operations a NIC can execute on a u64 word
/// (the standard RDMA verbs; §V-B's "new operations can be imagined").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicOp {
    /// `old = *p; *p = old + v; return old`.
    FetchAdd(u64),
    /// `old = *p; if old == expected { *p = new }; return old`.
    CompareSwap {
        /// Value the word must currently hold.
        expected: u64,
        /// Replacement on success.
        new: u64,
    },
    /// `old = *p; *p = v; return old`.
    Swap(u64),
}

impl AtomicOp {
    /// Apply to a current value; returns `(new_value, old_value)`.
    pub fn apply(self, current: u64) -> (u64, u64) {
        match self {
            AtomicOp::FetchAdd(v) => (current.wrapping_add(v), current),
            AtomicOp::CompareSwap { expected, new } => {
                if current == expected {
                    (new, current)
                } else {
                    (current, current)
                }
            }
            AtomicOp::Swap(v) => (v, current),
        }
    }
}

/// The detection header a data request carries when Algorithms 1–2 run
/// (absent on a vanilla request).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetHeader {
    /// Components of the initiator's clock carried with the request (the
    /// operand of Algorithm 5's merge at the owner).
    pub clock_words: usize,
    /// Components of the area's `(V, W)` the reply must carry for the
    /// initiator's Algorithm 3 comparison (0 when a [`DsmPayload::LockGrant`]
    /// already delivered them).
    pub reply_words: usize,
    /// Ask the owner's NIC to take the area lock on the initiator's behalf
    /// for the duration of the access. Clear when the initiator already
    /// holds a lock covering the range.
    pub take_lock: bool,
}

impl DetHeader {
    /// Wire size: one word of flags and reply length, plus the clock.
    pub fn wire_bytes(&self) -> usize {
        8 + 8 * self.clock_words
    }
}

/// Protocol payloads.
#[derive(Debug, Clone)]
pub enum DsmPayload {
    /// The single message of a put: write `data` at `dst` (Fig 2 left).
    PutData {
        /// Destination range in the target's public memory.
        dst: MemRange,
        /// Data to write (`data.len() == dst.len`).
        data: Data,
        /// Completion token echoed to the initiator.
        token: OpToken,
        /// Detection header; when present the owner answers with a
        /// [`DsmPayload::PutAck`].
        det: Option<DetHeader>,
    },
    /// First message of a get: ask the owner's NIC for `src` (Fig 2 right).
    GetRequest {
        /// Range to read.
        src: MemRange,
        /// Completion token.
        token: OpToken,
        /// Detection header.
        det: Option<DetHeader>,
    },
    /// Second message of a get: the data comes back.
    GetReply {
        /// Token of the original request.
        token: OpToken,
        /// The bytes read.
        data: Data,
        /// Components of the area's `(V, W)` piggy-backed for detection.
        clock_words: usize,
    },
    /// Detection traffic: the put was applied and its critical section at
    /// the owner is over (Algorithm 1's `update_clock` and `unlock` have
    /// run). Sent only for a put that carried a [`DetHeader`].
    PutAck {
        /// Token of the original put.
        token: OpToken,
        /// Components of the area's `(V, W)` carried for detection.
        clock_words: usize,
    },
    /// Ask the owner's NIC to lock `range`.
    LockRequest {
        /// Area to lock.
        range: MemRange,
        /// Correlation token.
        token: OpToken,
        /// Components of the area's `(V, W)` the grant must carry (a
        /// detection lock's `get_clock`; 0 for a program lock).
        clock_words: usize,
    },
    /// The lock is now held by the requester.
    LockGrant {
        /// Token of the granted request.
        token: OpToken,
        /// The NIC-side lock token needed to release.
        lock_token: u64,
        /// Components of the area's `(V, W)` piggy-backed for detection.
        clock_words: usize,
    },
    /// Release a held lock (fire-and-forget).
    LockRelease {
        /// NIC-side lock token.
        lock_token: u64,
    },
    /// NIC-executed atomic read-modify-write request (§V-B extension).
    AtomicRequest {
        /// Target u64 word (must be 8 bytes).
        range: MemRange,
        /// The operation to apply.
        op: AtomicOp,
        /// Correlation token.
        token: OpToken,
        /// Detection header.
        det: Option<DetHeader>,
    },
    /// The atomic's reply, carrying the previous value.
    AtomicReply {
        /// Token of the request.
        token: OpToken,
        /// Value of the word before the operation.
        old: u64,
        /// Components of the area's `(V, W)` piggy-backed for detection.
        clock_words: usize,
    },
    /// Barrier arrival notification (to the coordinator, rank 0).
    BarrierArrive {
        /// Barrier epoch.
        epoch: u64,
    },
    /// Barrier release broadcast (from the coordinator).
    BarrierRelease {
        /// Barrier epoch.
        epoch: u64,
    },
}

impl Classify for DsmPayload {
    fn class(&self) -> OpClass {
        match self {
            // A put is ONE data message (Fig 2). The PutAck exists only
            // under detection (it ends Algorithm 1's critical section and
            // returns the clocks), so it is detection traffic whole and
            // never perturbs the Fig 2 counts.
            DsmPayload::PutData { .. } => OpClass::PutData,
            DsmPayload::PutAck { .. } => OpClass::Clock,
            DsmPayload::GetRequest { .. } => OpClass::GetRequest,
            DsmPayload::GetReply { .. } => OpClass::GetReply,
            DsmPayload::LockRequest { .. }
            | DsmPayload::LockGrant { .. }
            | DsmPayload::LockRelease { .. } => OpClass::Lock,
            DsmPayload::AtomicRequest { .. } | DsmPayload::AtomicReply { .. } => OpClass::Atomic,
            DsmPayload::BarrierArrive { .. } | DsmPayload::BarrierRelease { .. } => OpClass::Sync,
        }
    }

    fn wire_bytes(&self) -> usize {
        const RANGE: usize = 24; // rank + segment + offset + len
        const TOKEN: usize = 8;
        let base = match self {
            DsmPayload::PutData { data, .. } => RANGE + TOKEN + data.len(),
            DsmPayload::GetRequest { .. } => RANGE + TOKEN,
            DsmPayload::GetReply { data, .. } => TOKEN + data.len(),
            DsmPayload::PutAck { clock_words, .. } => TOKEN + 8 * clock_words,
            DsmPayload::LockRequest { .. } => RANGE + TOKEN,
            DsmPayload::LockGrant { .. } => 2 * TOKEN,
            DsmPayload::LockRelease { .. } => TOKEN,
            DsmPayload::AtomicRequest { .. } => RANGE + TOKEN + 24,
            DsmPayload::AtomicReply { .. } => 2 * TOKEN,
            DsmPayload::BarrierArrive { .. } | DsmPayload::BarrierRelease { .. } => 8,
        };
        base + self.detection_bytes()
    }

    fn detection_bytes(&self) -> usize {
        match self {
            DsmPayload::PutData { det, .. }
            | DsmPayload::GetRequest { det, .. }
            | DsmPayload::AtomicRequest { det, .. } => det.map_or(0, |d| d.wire_bytes()),
            DsmPayload::GetReply { clock_words, .. }
            | DsmPayload::LockGrant { clock_words, .. }
            | DsmPayload::AtomicReply { clock_words, .. } => 8 * clock_words,
            // `PutAck` is detection traffic whole (class `Clock`): nothing in
            // it is piggy-backed.
            DsmPayload::PutAck { .. }
            | DsmPayload::LockRequest { .. }
            | DsmPayload::LockRelease { .. }
            | DsmPayload::BarrierArrive { .. }
            | DsmPayload::BarrierRelease { .. } => 0,
        }
    }
}

/// Serializable summary of a payload (for traces; omits bulk data).
#[derive(Debug, Clone)]
pub struct PayloadSummary {
    /// Payload discriminant name.
    pub kind: String,
    /// Stats class label.
    pub class: String,
    /// Wire size in bytes.
    pub bytes: usize,
}

impl From<&DsmPayload> for PayloadSummary {
    fn from(p: &DsmPayload) -> Self {
        let kind = match p {
            DsmPayload::PutData { .. } => "PutData",
            DsmPayload::GetRequest { .. } => "GetRequest",
            DsmPayload::GetReply { .. } => "GetReply",
            DsmPayload::PutAck { .. } => "PutAck",
            DsmPayload::LockRequest { .. } => "LockRequest",
            DsmPayload::LockGrant { .. } => "LockGrant",
            DsmPayload::LockRelease { .. } => "LockRelease",
            DsmPayload::AtomicRequest { .. } => "AtomicRequest",
            DsmPayload::AtomicReply { .. } => "AtomicReply",
            DsmPayload::BarrierArrive { .. } => "BarrierArrive",
            DsmPayload::BarrierRelease { .. } => "BarrierRelease",
        };
        PayloadSummary {
            kind: kind.to_string(),
            class: p.class().label().to_string(),
            bytes: p.wire_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::GlobalAddr;

    fn range() -> MemRange {
        GlobalAddr::public(1, 0).range(8)
    }

    fn header(clock_words: usize) -> DetHeader {
        DetHeader {
            clock_words,
            reply_words: 2 * clock_words,
            take_lock: true,
        }
    }

    #[test]
    fn put_is_put_class_and_sized_by_data() {
        let p = DsmPayload::PutData {
            dst: range(),
            data: Data::from(&[0u8; 100][..]),
            token: 1,
            det: None,
        };
        assert_eq!(p.class(), OpClass::PutData);
        assert_eq!(p.wire_bytes(), 24 + 8 + 100);
        assert_eq!(p.detection_bytes(), 0, "a vanilla put carries no clock");
    }

    #[test]
    fn get_halves_have_distinct_classes() {
        let req = DsmPayload::GetRequest {
            src: range(),
            token: 1,
            det: None,
        };
        let rep = DsmPayload::GetReply {
            token: 1,
            data: Data::from(&[0u8; 8][..]),
            clock_words: 0,
        };
        assert_eq!(req.class(), OpClass::GetRequest);
        assert_eq!(rep.class(), OpClass::GetReply);
    }

    #[test]
    fn piggy_backed_clocks_keep_the_data_class_and_report_their_bytes() {
        // Detection adds bytes, not message kinds: the request keeps its
        // Fig 2 class and grows by the header (one word + the initiator's
        // n-component clock); the reply grows by (V, W).
        let n = 4;
        let vanilla = DsmPayload::PutData {
            dst: range(),
            data: Data::from(&[0u8; 8][..]),
            token: 0,
            det: None,
        };
        let put = DsmPayload::PutData {
            dst: range(),
            data: Data::from(&[0u8; 8][..]),
            token: 0,
            det: Some(header(n)),
        };
        assert_eq!(put.class(), OpClass::PutData);
        assert_eq!(put.detection_bytes(), 8 + 8 * n);
        assert_eq!(put.wire_bytes(), vanilla.wire_bytes() + 8 + 8 * n);

        let reply = DsmPayload::GetReply {
            token: 0,
            data: Data::from(&[0u8; 8][..]),
            clock_words: 2 * n,
        };
        assert_eq!(reply.class(), OpClass::GetReply);
        assert_eq!(reply.detection_bytes(), 8 * 2 * n);
        assert_eq!(reply.wire_bytes(), 8 + 8 + 8 * 2 * n);

        let grant = DsmPayload::LockGrant {
            token: 0,
            lock_token: 0,
            clock_words: 2 * n,
        };
        assert_eq!(grant.class(), OpClass::Lock);
        assert_eq!(grant.detection_bytes(), 8 * 2 * n);
    }

    #[test]
    fn clock_traffic_is_detection_overhead() {
        let ack = DsmPayload::PutAck {
            token: 0,
            clock_words: 8,
        };
        assert!(ack.class().is_detection_overhead());
        // Token + 2 × n × 8 bytes of clocks; nothing "piggy-backed" — the
        // whole message is booked under `Clock` by its class.
        assert_eq!(ack.wire_bytes(), 8 + 8 * 8);
        assert_eq!(ack.detection_bytes(), 0);
    }

    #[test]
    fn atomic_ops_apply() {
        assert_eq!(AtomicOp::FetchAdd(5).apply(10), (15, 10));
        assert_eq!(
            AtomicOp::CompareSwap {
                expected: 10,
                new: 99
            }
            .apply(10),
            (99, 10)
        );
        assert_eq!(
            AtomicOp::CompareSwap {
                expected: 11,
                new: 99
            }
            .apply(10),
            (10, 10)
        );
        assert_eq!(AtomicOp::Swap(7).apply(3), (7, 3));
        // Wrapping semantics at the boundary.
        assert_eq!(AtomicOp::FetchAdd(1).apply(u64::MAX), (0, u64::MAX));
    }

    #[test]
    fn atomic_messages_classified() {
        let req = DsmPayload::AtomicRequest {
            range: range(),
            op: AtomicOp::FetchAdd(1),
            token: 0,
            det: None,
        };
        let rep = DsmPayload::AtomicReply {
            token: 0,
            old: 0,
            clock_words: 0,
        };
        assert_eq!(req.class(), OpClass::Atomic);
        assert_eq!(rep.class(), OpClass::Atomic);
        assert!(req.wire_bytes() > rep.wire_bytes());
    }

    #[test]
    fn summary_captures_kind() {
        let p = DsmPayload::BarrierArrive { epoch: 3 };
        let s = PayloadSummary::from(&p);
        assert_eq!(s.kind, "BarrierArrive");
        assert_eq!(s.class, "sync");
    }
}
