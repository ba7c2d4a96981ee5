//! Fan-in: every worker reports a result into the master's public segment
//! (the many-to-one half of the §IV-D master-worker pattern).
//!
//! * [`safe`] — worker `w` puts into its own result slot (word `w` of rank
//!   0's segment) and a barrier separates the gather from the master's
//!   read-out: race-free.
//! * [`racy`] — every worker puts into the *same* slot, word 0, with no
//!   synchronisation: with two or more workers the puts are pairwise
//!   conflicting unsynchronised writes, so the slot races in every
//!   schedule ([`ScenarioTruth::always`]).

use dsm::GlobalAddr;

use crate::program::ProgramBuilder;

use super::{ScenarioTruth, Workload};

/// Result slot `i` on the master's (rank 0's) public segment.
pub fn slot(i: usize) -> dsm::MemRange {
    GlobalAddr::public(0, i * 8).range(8)
}

/// Slotted gather with a separating barrier (race-free).
pub fn safe(n: usize, rounds: usize) -> Workload {
    assert!(n >= 2, "fan-in needs a master and at least one worker");
    let mut programs = Vec::with_capacity(n);
    let mut m = ProgramBuilder::new(0);
    for _ in 0..rounds {
        m = m.barrier();
        for w in 1..n {
            m = m.local_read(slot(w));
        }
        m = m.compute(500).barrier();
    }
    programs.push(m.build());
    for w in 1..n {
        let mut b = ProgramBuilder::new(w);
        for round in 0..rounds {
            b = b
                .compute(500)
                .put_u64((round * n + w) as u64, slot(w))
                .barrier()
                .barrier();
        }
        programs.push(b.build());
    }
    Workload {
        name: format!("fanin-safe({n}p,{rounds}r)"),
        n,
        programs,
        truth: None,
    }
    .with_truth(ScenarioTruth::race_free())
}

/// All workers funnel into one unsynchronised slot (always races when
/// `n >= 3`, i.e. at least two workers collide; the master read races too).
pub fn racy(n: usize, rounds: usize) -> Workload {
    assert!(n >= 3, "a fan-in collision needs at least two workers");
    let mut programs = Vec::with_capacity(n);
    let mut m = ProgramBuilder::new(0);
    for _ in 0..rounds {
        m = m.compute(500).local_read(slot(0));
    }
    programs.push(m.build());
    for w in 1..n {
        let mut b = ProgramBuilder::new(w);
        for round in 0..rounds {
            b = b.compute(500).put_u64((round * n + w) as u64, slot(0));
        }
        programs.push(b.build());
    }
    Workload {
        name: format!("fanin-racy({n}p,{rounds}r)"),
        n,
        programs,
        truth: None,
    }
    .with_truth(ScenarioTruth::always(vec![(0, 0)]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_truth() {
        let s = safe(4, 2);
        assert!(s.truth.as_ref().unwrap().is_race_free());
        let r = racy(4, 2);
        assert_eq!(r.truth.unwrap().racy_sites, vec![(0, 0)]);
    }

    #[test]
    #[should_panic(expected = "at least two workers")]
    fn collision_needs_two_workers() {
        racy(2, 1);
    }
}
