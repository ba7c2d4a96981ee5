//! Fan-out: one master scatters work into every worker's mailbox (the
//! one-to-many half of the §IV-D master-worker pattern).
//!
//! Worker `w` owns mailbox word 0 of its public segment; the master puts a
//! round tag there and the worker consumes it locally.
//!
//! * [`safe`] — the scatter and the consume are separated by barriers:
//!   race-free in every schedule.
//! * [`racy`] — no synchronisation at all, and each worker *also* writes
//!   its own mailbox: the master's put and the worker's local write are two
//!   unsynchronised conflicting writes, so every mailbox races in every
//!   schedule ([`ScenarioTruth::always`]).

use dsm::GlobalAddr;

use crate::program::ProgramBuilder;

use super::{ScenarioTruth, Workload};

/// Worker `w`'s mailbox: word 0 of its own public segment.
pub fn mailbox(worker: usize) -> dsm::MemRange {
    GlobalAddr::public(worker, 0).range(8)
}

/// Barrier-separated scatter/consume (race-free).
pub fn safe(n: usize, rounds: usize) -> Workload {
    assert!(n >= 2, "fan-out needs a master and at least one worker");
    let mut programs = Vec::with_capacity(n);
    // Master: scatter, fence, wait out the consume phase.
    let mut m = ProgramBuilder::new(0).barrier();
    for round in 0..rounds {
        for w in 1..n {
            m = m.put_u64(round as u64, mailbox(w));
        }
        m = m.barrier().barrier();
    }
    programs.push(m.build());
    // Workers: initialise the mailbox, then consume once per round.
    for w in 1..n {
        let mut b = ProgramBuilder::new(w)
            .local_write_u64(mailbox(w), 0)
            .barrier();
        for _ in 0..rounds {
            b = b.barrier().local_read(mailbox(w)).compute(500).barrier();
        }
        programs.push(b.build());
    }
    Workload {
        name: format!("fanout-safe({n}p,{rounds}r)"),
        n,
        programs,
        truth: None,
    }
    .with_truth(ScenarioTruth::race_free())
}

/// Unsynchronised scatter racing each worker's own mailbox writes
/// (always races, at every mailbox).
pub fn racy(n: usize, rounds: usize) -> Workload {
    assert!(n >= 2, "fan-out needs a master and at least one worker");
    let mut programs = Vec::with_capacity(n);
    let mut m = ProgramBuilder::new(0);
    for round in 0..rounds {
        for w in 1..n {
            m = m.put_u64(round as u64, mailbox(w));
        }
        m = m.compute(500);
    }
    programs.push(m.build());
    for w in 1..n {
        let mut b = ProgramBuilder::new(w);
        for round in 0..rounds {
            b = b
                .local_write_u64(mailbox(w), round as u64)
                .local_read(mailbox(w))
                .compute(500);
        }
        programs.push(b.build());
    }
    Workload {
        name: format!("fanout-racy({n}p,{rounds}r)"),
        n,
        programs,
        truth: None,
    }
    .with_truth(ScenarioTruth::always((1..n).map(|w| (w, 0)).collect()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_truth() {
        let s = safe(4, 2);
        assert_eq!(s.programs.len(), 4);
        assert!(s.truth.as_ref().unwrap().is_race_free());
        let r = racy(4, 2);
        let t = r.truth.unwrap();
        assert!(t.always_races());
        assert_eq!(t.racy_sites, vec![(1, 0), (2, 0), (3, 0)]);
    }

    #[test]
    #[should_panic(expected = "needs a master")]
    fn needs_two_ranks() {
        safe(1, 1);
    }
}
