//! Debugging a PGAS halo exchange with the detector: the workflow the
//! paper's §V-A envisions ("race condition detection is typically a
//! debugging technique … parallel programmes are typically debugged on
//! small data sets and a few processes").
//!
//! A 1-D stencil pushes boundary cells to its neighbours with one-sided
//! puts. With the separating barrier the program is race-free; with the
//! barrier *missing* the race only manifests in some interleavings — so a
//! single run can miss it. The interleaving explorer runs many seeds in
//! parallel and shows the detection rate, plus the §IV-D comparison between
//! the dual-clock detector and the single-clock baseline.
//!
//! Run with: `cargo run --example stencil_debugging`

use coherent_dsm::prelude::*;
use simulator::workloads::stencil;

fn main() {
    let n = 6;
    let seeds: Vec<u64> = (1..=16).collect();

    for (label, w) in [
        ("correct (with barrier)", stencil::with_barrier(n, 8, 3)),
        ("buggy (missing barrier)", stencil::missing_barrier(n, 8, 3)),
    ] {
        let cfg = SimConfig::debugging(n)
            .with_detector_config(DetectorConfig::new(DetectorKind::Dual, n));
        let summary = explore(&cfg, &w.programs, &seeds);
        println!("{label}:");
        println!(
            "  schedules with true races  : {:2}/{}",
            summary.seeds_with_truth(),
            seeds.len()
        );
        println!(
            "  schedules with reports     : {:2}/{}",
            summary.seeds_with_reports(),
            seeds.len()
        );
        println!(
            "  mean precision/recall      : {:.2} / {:.2}",
            summary.mean_precision(),
            summary.mean_recall()
        );
        if label.starts_with("correct") {
            assert_eq!(summary.seeds_with_reports(), 0, "no false alarms");
        } else {
            assert!(
                summary.seeds_with_reports() > 0,
                "the bug must surface in some schedule"
            );
        }
        println!();
    }

    // §IV-D comparison on a correct program with *shared reads*: every rank
    // reads rank 0's coefficient table after a barrier (a common stencil
    // idiom). The reads are mutually concurrent, which is fine — but the
    // single-clock baseline flags them, the dual clock stays silent.
    let coeff = GlobalAddr::public(0, 0).range(8);
    let mut programs = vec![ProgramBuilder::new(0)
        .local_write_u64(coeff, 42)
        .barrier()
        .build()];
    for rank in 1..n {
        programs.push(
            ProgramBuilder::new(rank)
                .barrier()
                .get(coeff, GlobalAddr::private(rank, 0).range(8))
                .build(),
        );
    }
    for kind in [DetectorKind::Dual, DetectorKind::Single] {
        let r = Engine::new(
            SimConfig::debugging(n).with_detector_config(DetectorConfig::new(kind, n)),
            programs.clone(),
        )
        .run();
        let rr = r
            .deduped()
            .iter()
            .filter(|x| x.class == RaceClass::ReadRead)
            .count();
        println!(
            "shared coefficient reads under {:?}: {} reports ({} read-read)",
            kind,
            r.deduped().len(),
            rr
        );
        match kind {
            DetectorKind::Dual => assert_eq!(r.deduped().len(), 0),
            _ => assert!(rr > 0, "single clock must flag the concurrent reads"),
        }
    }
}
