//! The §IV-D motivating pattern: master–worker with an *intentional* race.
//!
//! "Parallel master-worker computation patterns induce a race condition
//! between workers when the results are sent to the master. Therefore, race
//! conditions must be signaled to the user, but they must not abort the
//! execution of the program."
//!
//! This example runs three variants (all workers → one slot; one slot per
//! worker; shared slot under the NIC lock) under every detector and prints
//! a comparison table: the dual-clock detector flags exactly the racy
//! variant, the single-clock baseline also flags the clean ones (read-read
//! false positives), and the lockset baseline only accepts the locked one.
//!
//! Run with: `cargo run --example master_worker`

use coherent_dsm::prelude::*;
use simulator::workloads::master_worker;

fn main() {
    let variants = [
        master_worker::racy(4, 2),
        master_worker::slotted(4, 2),
        master_worker::locked(4, 2),
    ];

    println!(
        "{:<34} {:>12} {:>12} {:>12} {:>9}",
        "workload", "dual-clock", "single-clock", "lockset", "truth"
    );
    for w in &variants {
        let mut row = format!("{:<34}", w.name);
        let mut truth = 0usize;
        for kind in [
            DetectorKind::Dual,
            DetectorKind::Single,
            DetectorKind::Lockset,
        ] {
            let cfg =
                SimConfig::debugging(w.n).with_detector_config(DetectorConfig::new(kind, w.n));
            let result = Engine::new(cfg, w.programs.clone()).run();
            assert!(result.stuck.is_empty(), "races are never fatal");
            let reports = result.deduped().len();
            row.push_str(&format!(
                " {:>12}",
                if reports == 0 {
                    "silent".to_string()
                } else {
                    format!("{reports} races")
                }
            ));
            if kind == DetectorKind::Dual {
                truth = Oracle::analyze(&result.trace).truth().len();
            }
        }
        row.push_str(&format!(" {:>9}", truth));
        println!("{row}");
    }

    println!(
        "\nThe racy variant completes anyway — §IV-D: signalling must not \
         abort the execution."
    );
}
