//! A PGAS application end-to-end: distributed matrix–vector multiply with
//! the data placement done by the symmetric heap (the paper's §III-A
//! "compiler in charge with data locality"), executed under full race
//! detection.
//!
//! The input vector is replicated symmetrically (same offset on every
//! rank, SHMEM-style); matrix rows and output elements are distributed
//! round-robin; the root gathers the result with one-sided gets. Barriers
//! separate the phases, so the detector stays silent — delete a barrier
//! and it will not.
//!
//! Run with: `cargo run --example distributed_matvec`

use coherent_dsm::prelude::*;
use simulator::workloads::matvec;

fn main() {
    let (n, dim) = (4, 8);
    let mv = matvec::build(n, dim);

    let cfg =
        SimConfig::debugging(n).with_detector_config(DetectorConfig::new(DetectorKind::Dual, n));
    let result = Engine::new(cfg, mv.workload.programs.clone()).run();
    assert!(result.stuck.is_empty());

    println!("distributed mat-vec: {n} ranks, {dim}×{dim} matrix");
    println!("  placement      : x replicated symmetrically; y round-robin");
    println!("  wire messages  : {}", result.stats.total_msgs());
    println!("  virtual time   : {}", result.virtual_time);
    println!("  race reports   : {}", result.deduped().len());
    assert!(result.deduped().is_empty());

    println!("\n  y = A·x gathered at the root:");
    for (i, g) in mv.gathered.iter().enumerate() {
        let got = result.read_u64(*g);
        println!("    y[{i}] = {got}  (expected {})", mv.expected[i]);
        assert_eq!(got, mv.expected[i]);
    }

    // The §IV-D comparison on an application workload: the oracle confirms
    // the barrier discipline ordered everything.
    let oracle = Oracle::analyze(&result.trace);
    println!(
        "\n  oracle: {} true races across {} recorded accesses",
        oracle.truth().len(),
        result.trace.events.len()
    );
    assert!(oracle.truth().is_empty());

    // Now break the program: drop every barrier and re-run.
    let broken: Vec<Program> = mv
        .workload
        .programs
        .iter()
        .map(|p| {
            let mut b = ProgramBuilder::new(0);
            for instr in p.iter() {
                if !matches!(instr, Instr::Barrier) {
                    b = b.push(instr.clone());
                }
            }
            b.build()
        })
        .collect();
    let broken_run = Engine::new(SimConfig::debugging(n), broken).run();
    println!(
        "\n  same program without barriers: {} race reports (first: {})",
        broken_run.deduped().len(),
        broken_run
            .deduped()
            .first()
            .map(|r| r.signal_line())
            .unwrap_or_default()
    );
    assert!(
        !broken_run.deduped().is_empty(),
        "removing the barriers must surface races"
    );
}
