//! Lock contention: every rank hammers the same few shared counter words
//! under heavy lock traffic — the §III-A NIC-lock discipline pushed to its
//! contended worst case (the scenario that stresses lock hand-off edges in
//! the trace, not barriers).
//!
//! The counters are words `0..words` of rank 0's public segment; each rank
//! performs `rounds` read-modify-write passes over all of them, starting at
//! a rank-rotated word so the lock queues interleave.
//!
//! * [`safe`] — each RMW holds the word's area lock: race-free in every
//!   schedule, entirely through lock hand-off ordering.
//! * [`racy`] — the same get+put traffic without locks: every counter word
//!   sees conflicting cross-rank writes, but the grade is
//!   [`ScenarioTruth::sometimes`], not `always` — a finding of the static
//!   analyzer (`dsm-analysis`). Each RMW *reads* the counter before
//!   writing it, and a cross-rank read that observes a put picks up an
//!   absorb edge ordering the reader's subsequent accesses after the
//!   writer's. In a fully serialised schedule every get observes the
//!   previous put and every conflicting pair is ordered; in the sampled
//!   contended schedules the sites race every time. (The original
//!   hand-written annotation said `always`; the analyzer's may-HB pass
//!   proved a schedule exists that orders every pair.)

use dsm::GlobalAddr;

use crate::program::ProgramBuilder;

use super::{ScenarioTruth, Workload};

/// Counter word `w` on rank 0's public segment.
pub fn counter(w: usize) -> dsm::MemRange {
    GlobalAddr::public(0, w * 8).range(8)
}

fn build(n: usize, rounds: usize, words: usize, locked: bool) -> Workload {
    assert!(n >= 2, "contention needs at least two ranks");
    assert!(rounds >= 1 && words >= 1);
    let mut programs = Vec::with_capacity(n);
    for rank in 0..n {
        let scratch = GlobalAddr::private(rank, 0).range(8);
        let mut b = ProgramBuilder::new(rank);
        for round in 0..rounds {
            for i in 0..words {
                let w = (rank + i) % words; // rotated start interleaves queues
                let c = counter(w);
                if locked {
                    b = b.lock(c);
                }
                b = b.get(c, scratch).put_u64((rank * rounds + round) as u64, c);
                if locked {
                    b = b.unlock(c);
                }
                b = b.compute(250);
            }
        }
        programs.push(b.build());
    }
    let truth = if locked {
        ScenarioTruth::race_free()
    } else {
        ScenarioTruth::sometimes((0..words).map(|w| (0, w)).collect())
    };
    Workload {
        name: format!(
            "lockcontend-{}({n}p,{rounds}r,{words}w)",
            if locked { "safe" } else { "racy" }
        ),
        n,
        programs,
        truth: None,
    }
    .with_truth(truth)
}

/// Lock-disciplined contended counters (race-free).
pub fn safe(n: usize, rounds: usize, words: usize) -> Workload {
    build(n, rounds, words, true)
}

/// The same traffic with the locks stripped (schedule-dependent: the
/// RMWs' own reads can order the pairs via absorb edges — see the module
/// docs).
pub fn racy(n: usize, rounds: usize, words: usize) -> Workload {
    build(n, rounds, words, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_truth() {
        let s = safe(4, 2, 2);
        assert_eq!(s.programs.len(), 4);
        let r = racy(4, 2, 2);
        let t = r.truth.unwrap();
        assert_eq!(t.grade, super::super::RaceGrade::Sometimes);
        assert_eq!(t.racy_sites, vec![(0, 0), (0, 1)]);
    }

    #[test]
    fn safe_doubles_the_op_count_with_lock_traffic() {
        // Same data ops either way; the locks are pure synchronisation.
        assert_eq!(safe(3, 2, 2).data_ops(), racy(3, 2, 2).data_ops());
    }
}
