//! Master–worker patterns (§IV-D's motivating example).
//!
//! "Parallel master-worker computation patterns induce a race condition
//! between workers when the results are sent to the master." Two variants:
//!
//! * [`racy`] — every worker puts its result into the **same** slot of the
//!   master's public memory: the intentional race of §IV-D (the program is
//!   "last writer wins" by design). The detector must signal it and the run
//!   must still complete — races are never fatal.
//! * [`slotted`] — each worker has its own slot: race-free.
//! * [`locked`] — workers share the slot but serialise with the NIC area
//!   lock: race-free.

use dsm::GlobalAddr;

use crate::program::ProgramBuilder;

use super::Workload;

/// Workers all put to slot 0 of the master (rank 0): racy on purpose. The
/// master's unsynchronised read races with the worker puts even for a
/// single worker; two or more workers add write-write races.
pub fn racy(workers: usize, rounds: usize) -> Workload {
    let n = workers + 1;
    let slot = GlobalAddr::public(0, 0).range(8);
    let mut programs = vec![ProgramBuilder::new(0)
        .compute(10_000)
        .local_read(slot)
        .build()];
    for w in 1..n {
        let mut b = ProgramBuilder::new(w);
        for r in 0..rounds {
            b = b
                .compute(500 * w as u64)
                .put_u64((w * 1000 + r) as u64, slot);
        }
        programs.push(b.build());
    }
    Workload {
        name: format!("master-worker-racy({workers}w,{rounds}r)"),
        n,
        programs,
        truth: None,
    }
}

/// Each worker owns a distinct slot: the §IV-D pattern done right.
pub fn slotted(workers: usize, rounds: usize) -> Workload {
    let n = workers + 1;
    let mut programs = vec![{
        // Master reads every slot after a barrier.
        let mut b = ProgramBuilder::new(0).barrier();
        for w in 1..n {
            b = b.local_read(GlobalAddr::public(0, w * 8).range(8));
        }
        b.build()
    }];
    for w in 1..n {
        let slot = GlobalAddr::public(0, w * 8).range(8);
        let mut b = ProgramBuilder::new(w);
        for r in 0..rounds {
            b = b
                .compute(500 * w as u64)
                .put_u64((w * 1000 + r) as u64, slot);
        }
        programs.push(b.barrier().build());
    }
    Workload {
        name: format!("master-worker-slotted({workers}w,{rounds}r)"),
        n,
        programs,
        truth: None,
    }
}

/// Workers share slot 0 but hold the NIC lock across their update.
pub fn locked(workers: usize, rounds: usize) -> Workload {
    let n = workers + 1;
    let slot = GlobalAddr::public(0, 0).range(8);
    let mut programs = vec![ProgramBuilder::new(0).barrier().local_read(slot).build()];
    for w in 1..n {
        let mut b = ProgramBuilder::new(w);
        for r in 0..rounds {
            b = b
                .compute(500 * w as u64)
                .lock(slot)
                .put_u64((w * 1000 + r) as u64, slot)
                .unlock(slot);
        }
        programs.push(b.barrier().build());
    }
    Workload {
        name: format!("master-worker-locked({workers}w,{rounds}r)"),
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
        let w = racy(4, 2);
        assert_eq!(w.n, 5);
        assert_eq!(w.programs.len(), 5);

        let s = slotted(3, 1);
        assert_eq!(s.programs[0].data_ops(), 3, "master reads 3 slots");

        let l = locked(2, 2);
        assert!(l.programs[1].len() >= 2 * 4, "lock/put/unlock per round");
    }

    #[test]
    fn single_worker_still_races_with_master_read() {
        let w = racy(1, 3);
        let result = crate::Engine::new(crate::SimConfig::debugging(w.n), w.programs).run();
        assert!(result.deduped().iter().any(|r| r.class.is_true_race()));
    }
}
