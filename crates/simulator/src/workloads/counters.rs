//! Shared-counter disciplines — the §V-B "new operations" extension study.
//!
//! The same logical program — every process increments a shared counter `k`
//! times — under three disciplines:
//!
//! * [`atomic`] — NIC fetch-add: 2 messages per increment, race-free
//!   (atomics are NIC-serialised);
//! * [`locked`] — NIC lock + get + put + unlock: 6+ messages per increment,
//!   race-free, exact;
//! * [`racy`] — plain get + put: lost updates and reported races.
//!
//! The EXT-atomic experiment compares their message bills and detection
//! verdicts.

use dsm::GlobalAddr;

use crate::program::ProgramBuilder;

use super::Workload;

/// The shared counter: word 0 of rank 0's public memory.
pub fn counter() -> dsm::MemRange {
    GlobalAddr::public(0, 0).range(8)
}

/// Atomic fetch-add increments.
pub fn atomic(n: usize, increments: usize) -> Workload {
    let mut programs = Vec::with_capacity(n);
    for rank in 0..n {
        let mut b = ProgramBuilder::new(rank);
        for _ in 0..increments {
            b = b.fetch_add(counter(), 1, None).compute(500);
        }
        programs.push(b.build());
    }
    Workload {
        name: format!("counter-atomic({n}p,{increments}i)"),
        n,
        programs,
        truth: None,
    }
}

/// Lock-protected read-modify-write increments.
pub fn locked(n: usize, increments: usize) -> Workload {
    let mut programs = Vec::with_capacity(n);
    for rank in 0..n {
        let scratch = GlobalAddr::private(rank, 0).range(8);
        let mut b = ProgramBuilder::new(rank);
        for _ in 0..increments {
            // The incremented value is data-dependent; the simulator's DSL
            // has no arithmetic, so the locked variant writes a
            // rank-specific value instead — the synchronisation pattern
            // (and its message bill) is what the experiment measures.
            b = b
                .lock(counter())
                .get(counter(), scratch)
                .put_u64(rank as u64 + 1, counter())
                .unlock(counter())
                .compute(500);
        }
        programs.push(b.build());
    }
    Workload {
        name: format!("counter-locked({n}p,{increments}i)"),
        n,
        programs,
        truth: None,
    }
}

/// Unsynchronised read-modify-write (the §IV-D bug pattern).
pub fn racy(n: usize, increments: usize) -> Workload {
    let mut programs = Vec::with_capacity(n);
    for rank in 0..n {
        let scratch = GlobalAddr::private(rank, 0).range(8);
        let mut b = ProgramBuilder::new(rank);
        for _ in 0..increments {
            b = b
                .get(counter(), scratch)
                .put_u64(rank as u64 + 1, counter())
                .compute(500);
        }
        programs.push(b.build());
    }
    Workload {
        name: format!("counter-racy({n}p,{increments}i)"),
        n,
        programs,
        truth: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes() {
        assert_eq!(atomic(4, 3).programs.len(), 4);
        assert_eq!(atomic(4, 3).data_ops(), 4 * 3);
    }
}
