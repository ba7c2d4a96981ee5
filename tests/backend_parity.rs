//! Backend parity (index SHMEM in DESIGN.md): the same scenarios produce
//! the same verdicts on the discrete-event simulator and on the real-thread
//! SHMEM runtime — §III-B's claim that the model "can easily be extended to
//! shared memory systems".

use coherent_dsm::prelude::*;
use shmem::ShmemConfig;

fn sim_word(rank: usize, offset: usize) -> MemRange {
    GlobalAddr::public(rank, offset).range(8)
}

/// Fig 5a on both backends: one WW race each.
#[test]
fn fig5a_parity() {
    // Simulator.
    let programs = vec![
        ProgramBuilder::new(0).put_u64(1, sim_word(1, 0)).build(),
        Program::new(),
        ProgramBuilder::new(2).put_u64(2, sim_word(1, 0)).build(),
    ];
    let sim = Engine::new(SimConfig::debugging(3), programs).run();
    let sim_ww = sim
        .deduped()
        .iter()
        .filter(|r| r.class == RaceClass::WriteWrite)
        .count();

    // Threads.
    let thr = shmem::run(ShmemConfig::new(3), |pe| {
        if pe.my_pe() != 1 {
            pe.put_u64(sim_word(1, 0), pe.my_pe() as u64 + 1);
        }
    });
    let thr_ww = thr
        .reports
        .iter()
        .filter(|r| r.class == RaceClass::WriteWrite)
        .count();

    assert_eq!(sim_ww, 1);
    assert_eq!(thr_ww, 1);
}

/// Fig 4 on both backends: dual silent, single-clock reports read-read.
#[test]
fn fig4_parity() {
    for kind in [DetectorKind::Dual, DetectorKind::Single] {
        let programs = vec![
            ProgramBuilder::new(0)
                .local_write_u64(sim_word(0, 0), 9)
                .barrier()
                .build(),
            ProgramBuilder::new(1)
                .barrier()
                .get(sim_word(0, 0), GlobalAddr::private(1, 0).range(8))
                .build(),
            ProgramBuilder::new(2)
                .barrier()
                .get(sim_word(0, 0), GlobalAddr::private(2, 0).range(8))
                .build(),
        ];
        let sim = Engine::new(SimConfig::debugging(3).with_detector(kind), programs).run();

        let thr = shmem::run(ShmemConfig::new(3).with_detector(kind), |pe| {
            if pe.my_pe() == 0 {
                pe.put_u64(sim_word(0, 0), 9);
            }
            pe.barrier();
            if pe.my_pe() != 0 {
                let _ = pe.get_u64(sim_word(0, 0));
            }
        });

        match kind {
            DetectorKind::Dual => {
                assert!(sim.deduped().is_empty(), "{:?}", sim.deduped());
                assert!(thr.reports.is_empty(), "{:?}", thr.reports);
            }
            _ => {
                assert!(sim.deduped().iter().any(|r| r.class == RaceClass::ReadRead));
                assert!(thr.reports.iter().any(|r| r.class == RaceClass::ReadRead));
            }
        }
    }
}

/// Lock-protected shared slot: silent on both backends, and the final
/// value reflects every update on the threaded one.
#[test]
fn locked_updates_parity() {
    let slot = sim_word(0, 0);
    // Simulator: three writers under the NIC lock.
    let mut programs = vec![Program::new()];
    for rank in 1..4 {
        programs.push(
            ProgramBuilder::new(rank)
                .lock(slot)
                .put_u64(rank as u64, slot)
                .unlock(slot)
                .build(),
        );
    }
    let sim = Engine::new(SimConfig::debugging(4), programs).run();
    assert!(sim.deduped().is_empty(), "{:?}", sim.deduped());

    let thr = shmem::run(ShmemConfig::new(4), |pe| {
        if pe.my_pe() != 0 {
            let guard = pe.lock(slot);
            let (v, _) = pe.get_u64(slot);
            pe.put_u64(slot, v + pe.my_pe() as u64);
            drop(guard);
        }
    });
    assert!(thr.reports.is_empty(), "{:?}", thr.reports);
    assert_eq!(thr.read_u64(slot), 1 + 2 + 3);
}

/// Clock-memory accounting matches across backends for the same access
/// pattern (same number of touched areas × same clock widths).
#[test]
fn clock_memory_parity() {
    let n = 4;
    // Every rank writes one word in rank 0's segment.
    let mut programs = Vec::new();
    for rank in 0..n {
        programs.push(
            ProgramBuilder::new(rank)
                .put_u64(1, sim_word(0, 64 * rank))
                .build(),
        );
    }
    let sim = Engine::new(SimConfig::debugging(n), programs).run();

    let thr = shmem::run(ShmemConfig::new(n), |pe| {
        pe.put_u64(sim_word(0, 64 * pe.my_pe()), 1);
    });

    assert_eq!(sim.clock_memory_bytes, thr.clock_memory_bytes);
    // 4 touched word-areas × 2 clocks × n × 8 bytes.
    assert_eq!(sim.clock_memory_bytes, 4 * 2 * n * 8);
}
