//! One-sided reduction — the paper's §V-B future work.
//!
//! "A process can perform a reduction (i.e., a global operation on some
//! data held by all the other processes) without any participation for the
//! other processes, by fetching the data remotely."
//!
//! Every rank exposes a contribution word in its public segment; the root
//! *gets* each contribution and keeps a running private total — no
//! collective call, no participation from the owners. Variants:
//!
//! * [`onesided`] — contributors write, barrier, root gets: race-free.
//! * [`onesided_unsynced`] — the barrier omitted: the root's gets race with
//!   late contributors (schedule-dependent).
//! * [`push_racy`] — the inverse pattern: everyone *puts* into a single
//!   accumulator word at the root (a deliberate WW race, like the §IV-D
//!   master-worker).

use dsm::GlobalAddr;

use crate::program::ProgramBuilder;

use super::Workload;

/// Each rank's contribution word (offset 0 of its public segment).
pub fn contribution(rank: usize) -> dsm::MemRange {
    GlobalAddr::public(rank, 0).range(8)
}

/// Where the root stores fetched values (private scratch, one slot each).
fn root_scratch(i: usize) -> dsm::MemRange {
    GlobalAddr::private(0, 8 * i).range(8)
}

/// Synchronised one-sided reduction at rank 0.
pub fn onesided(n: usize) -> Workload {
    let mut programs = Vec::with_capacity(n);
    {
        let mut b = ProgramBuilder::new(0)
            .local_write_u64(contribution(0), 1)
            .barrier();
        for r in 1..n {
            b = b.get(contribution(r), root_scratch(r)).compute(200);
        }
        programs.push(b.build());
    }
    for r in 1..n {
        programs.push(
            ProgramBuilder::new(r)
                .local_write_u64(contribution(r), (r + 1) as u64)
                .barrier()
                .build(),
        );
    }
    Workload {
        name: format!("reduction-onesided({n}p)"),
        n,
        programs,
        truth: None,
    }
}

/// Same, without the barrier: the root may fetch before a contribution is
/// written — read-write races in some schedules.
pub fn onesided_unsynced(n: usize) -> Workload {
    let mut programs = Vec::with_capacity(n);
    {
        let mut b = ProgramBuilder::new(0).local_write_u64(contribution(0), 1);
        for r in 1..n {
            b = b.get(contribution(r), root_scratch(r)).compute(200);
        }
        programs.push(b.build());
    }
    for r in 1..n {
        programs.push(
            ProgramBuilder::new(r)
                .compute(500 * r as u64)
                .local_write_u64(contribution(r), (r + 1) as u64)
                .build(),
        );
    }
    Workload {
        name: format!("reduction-unsynced({n}p)"),
        n,
        programs,
        truth: None,
    }
}

/// Everyone puts into one accumulator word at the root: deliberate WW race.
pub fn push_racy(n: usize) -> Workload {
    let acc = GlobalAddr::public(0, 0).range(8);
    let mut programs = vec![ProgramBuilder::new(0)
        .compute(50_000)
        .local_read(acc)
        .build()];
    for r in 1..n {
        programs.push(ProgramBuilder::new(r).put_u64((r + 1) as u64, acc).build());
    }
    Workload {
        name: format!("reduction-push-racy({n}p)"),
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
        let w = onesided(4);
        assert_eq!(w.programs.len(), 4);
        assert_eq!(w.programs[0].data_ops(), 1 + 3, "own write + 3 gets");
    }
}
