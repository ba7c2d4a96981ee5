//! The paper's §V-B future work: non-collective, one-sided global
//! operations — "a process can perform a reduction without any
//! participation for the other processes, by fetching the data remotely."
//!
//! Part 1 runs the reduction on the discrete-event simulator and shows the
//! one-sidedness in the traffic accounting (only get request/reply pairs,
//! no sends from the owners). Part 2 runs the same operation on the real
//! threaded SHMEM backend (§III-B) and checks the sum.
//!
//! Run with: `cargo run --example onesided_reduction`

use coherent_dsm::prelude::*;
use simulator::workloads::reduction;

fn main() {
    // ---- Part 1: on the simulator -------------------------------------
    let n = 8;
    let w = reduction::onesided(n);
    let cfg =
        SimConfig::debugging(n).with_detector_config(DetectorConfig::new(DetectorKind::Vanilla, n));
    let result = Engine::new(cfg, w.programs.clone()).run();
    assert!(result.stuck.is_empty());

    println!("one-sided reduction over {n} processes (simulator):");
    println!(
        "  get requests : {}",
        result.stats.msgs(OpClass::GetRequest)
    );
    println!("  get replies  : {}", result.stats.msgs(OpClass::GetReply));
    println!("  put messages : {}", result.stats.msgs(OpClass::PutData));
    assert_eq!(
        result.stats.msgs(OpClass::GetRequest),
        (n - 1) as u64,
        "root fetches each remote contribution exactly once"
    );
    assert_eq!(result.stats.msgs(OpClass::PutData), 0, "owners never send");

    // Root's private scratch holds every fetched contribution.
    let mut sum = 1u64; // root's own contribution
    for r in 1..n {
        sum += result.read_u64(GlobalAddr::private(0, 8 * r).range(8));
    }
    println!("  reduced sum  : {sum}");
    assert_eq!(sum, (1..=n as u64).sum());

    // With detection enabled the same program stays silent (barrier orders
    // the gets after the contributions).
    let detected = Engine::new(SimConfig::debugging(n), w.programs).run();
    assert!(detected.deduped().is_empty(), "{:?}", detected.deduped());
    println!(
        "  race reports : {} (barrier-ordered)",
        detected.deduped().len()
    );

    // ---- Part 2: on real threads (shmem backend) -----------------------
    let report = shmem::run(shmem::ShmemConfig::new(n), |pe| {
        let me = pe.my_pe();
        let slot = shmem::GlobalAddr::public(me, 0).range(8);
        pe.put_u64(slot, (me + 1) as u64);
        pe.barrier();
        if me == 0 {
            let parts: Vec<_> = (0..pe.n_pes())
                .map(|r| shmem::GlobalAddr::public(r, 0).range(8))
                .collect();
            let (sum, _) = pe.reduce_sum_u64(&parts);
            println!("one-sided reduction over {n} threads (shmem): sum = {sum}");
            assert_eq!(sum, (1..=n as u64).sum());
        }
    });
    assert!(report.reports.is_empty(), "{:?}", report.reports);
    println!("  race reports : 0 (threads, barrier-ordered)");
}
