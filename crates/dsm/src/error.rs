//! Error taxonomy for the DSM substrate.
//!
//! Note that a *race condition is not an error* in this system: §IV-D of the
//! paper requires races to be signalled but never to abort the execution
//! ("some algorithms contain race conditions on purpose"). Races therefore
//! flow through the `race-core` reporting channel, while this type covers
//! genuine misuse of the substrate.

use crate::addr::{GlobalAddr, MemRange};
use crate::Rank;

/// Errors raised by the DSM substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DsmError {
    /// Access past the end of a segment.
    OutOfBounds {
        /// The offending range.
        range: MemRange,
        /// Size of the segment it targeted.
        segment_len: usize,
    },
    /// A process touched another process's *private* memory — forbidden by
    /// the model (§III-A).
    PrivateViolation {
        /// Who attempted the access.
        accessor: Rank,
        /// The private address they targeted.
        addr: GlobalAddr,
    },
    /// Rank outside `0..n`.
    BadRank {
        /// The offending rank.
        rank: Rank,
        /// System size.
        n: usize,
    },
    /// An address of one process handed to another process's memory.
    NotOwner {
        /// The rank the address names.
        rank: Rank,
        /// The rank whose memory was asked.
        owner: Rank,
    },
    /// Releasing a lock token that is not currently held.
    LockNotHeld {
        /// The stale or foreign token.
        token: u64,
    },
    /// The symmetric heap ran out of space.
    HeapExhausted {
        /// Bytes requested.
        requested: usize,
        /// Bytes remaining.
        available: usize,
    },
    /// A write whose data is not exactly as long as its destination range
    /// (a put from a source of another length, or a local write whose
    /// value does not fit its range).
    LengthMismatch {
        /// The destination range.
        range: MemRange,
        /// Bytes of data supplied.
        data_len: usize,
    },
    /// An RDMA completion referenced an unknown operation token.
    UnknownOp {
        /// The unmatched token.
        token: u64,
    },
}

impl std::fmt::Display for DsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DsmError::OutOfBounds { range, segment_len } => {
                write!(
                    f,
                    "access {range} out of bounds (segment is {segment_len} bytes)"
                )
            }
            DsmError::PrivateViolation { accessor, addr } => {
                write!(f, "process P{accessor} accessed private memory {addr}")
            }
            DsmError::BadRank { rank, n } => write!(f, "rank {rank} out of range (n={n})"),
            DsmError::NotOwner { rank, owner } => {
                write!(f, "an address of P{rank} is not in P{owner}'s memory")
            }
            DsmError::LockNotHeld { token } => write!(f, "lock token {token} not held"),
            DsmError::HeapExhausted {
                requested,
                available,
            } => write!(
                f,
                "symmetric heap exhausted: need {requested}, have {available}"
            ),
            DsmError::LengthMismatch { range, data_len } => write!(
                f,
                "{data_len} bytes written to {range} ({} bytes long)",
                range.len
            ),
            DsmError::UnknownOp { token } => write!(f, "unknown RDMA operation token {token}"),
        }
    }
}

impl std::error::Error for DsmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = DsmError::OutOfBounds {
            range: GlobalAddr::public(1, 100).range(64),
            segment_len: 128,
        };
        let text = e.to_string();
        assert!(text.contains("out of bounds"));
        assert!(text.contains("128"));

        let e = DsmError::PrivateViolation {
            accessor: 2,
            addr: GlobalAddr::private(0, 8),
        };
        assert!(e.to_string().contains("P2"));

        let e = DsmError::NotOwner { rank: 5, owner: 0 };
        assert_eq!(e.to_string(), "an address of P5 is not in P0's memory");
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&DsmError::BadRank { rank: 9, n: 4 });
    }
}
