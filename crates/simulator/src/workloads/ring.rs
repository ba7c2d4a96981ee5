//! Ring pipeline — race-free by lock-ordered handoff.
//!
//! Rank `r` reads its inbox under the inbox's NIC lock, adds its rank, and
//! puts the result into the next rank's inbox under *that* inbox's lock.
//! Lock hand-offs create synchronisation edges ordering every access pair
//! on each inbox, so the workload is race-free in every schedule — like the
//! paper's Fig 5b chain. Any report on this workload is a false positive
//! (none for the clock detectors; the lockset baseline is also satisfied,
//! since every access is consistently protected).

use dsm::GlobalAddr;

use crate::program::ProgramBuilder;

use super::Workload;

/// Rank `r`'s inbox word.
pub fn inbox(rank: usize) -> dsm::MemRange {
    GlobalAddr::public(rank, 0).range(8)
}

/// Build a ring over `n` ranks with `laps` passes of the token.
pub fn pipeline(n: usize, laps: usize) -> Workload {
    assert!(n >= 2, "ring needs at least two ranks");
    const SLOT_NS: u64 = 100_000; // staggers turns; correctness comes from locks
    let mut programs = Vec::with_capacity(n);
    for rank in 0..n {
        let next = (rank + 1) % n;
        let mut b = ProgramBuilder::new(rank);
        if rank == 0 {
            b = b
                .lock(inbox(1 % n))
                .put_u64(1, inbox(1 % n))
                .unlock(inbox(1 % n));
        }
        for lap in 0..laps {
            let my_turn = (lap * n + rank) as u64;
            b = b
                .compute(SLOT_NS * (my_turn + 1))
                .lock(inbox(rank))
                .local_read(inbox(rank))
                .unlock(inbox(rank))
                .lock(inbox(next))
                .put_u64(my_turn + 2, inbox(next))
                .unlock(inbox(next));
        }
        programs.push(b.build());
    }
    Workload {
        name: format!("ring({n}p,{laps}laps)"),
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
        let w = pipeline(4, 2);
        assert_eq!(w.n, 4);
        // Rank 0 has the kick-off put plus 2 laps × (read + put).
        assert_eq!(w.programs[0].data_ops(), 1 + 2 * 2);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn needs_two_ranks() {
        pipeline(1, 1);
    }
}
