//! Quickstart: detect the paper's Fig 5a race in a three-process program.
//!
//! Run with: `cargo run --example quickstart`

use coherent_dsm::prelude::*;

fn main() {
    // The global address space: each process maps a public segment; shared
    // variable `a` is the first word of P1's segment (the compiler's
    // placement decision in the paper, made explicit here).
    let a = GlobalAddr::public(1, 0).range(8);

    // P0 and P2 both put to `a` with no synchronisation — the exact
    // scenario of the paper's Fig 5a.
    let programs = vec![
        ProgramBuilder::new(0).put_u64(0xAAAA, a).build(),
        ProgramBuilder::new(1).build(),
        ProgramBuilder::new(2).put_u64(0xCCCC, a).build(),
    ];

    // Debug-scale configuration (§V-A: detection is a debugging feature):
    // jittered InfiniBand-like latencies, dual-clock detection at word
    // granularity. Every detection knob lives on one DetectorConfig
    // builder; its JSON round-trips, so a run is reproducible from the
    // printed line alone.
    let detector = DetectorConfig::new(DetectorKind::Dual, 3).with_granularity(Granularity::WORD);
    println!("detector config         : {}", detector.to_json());
    let cfg = SimConfig::debugging(3).with_detector_config(detector);
    let result = Engine::new(cfg, programs).run();

    println!("virtual completion time : {}", result.virtual_time);
    println!("messages on the wire    : {}", result.stats.total_msgs());
    println!(
        "clock storage           : {} bytes",
        result.clock_memory_bytes
    );
    println!();

    // §IV-D: races are signalled, never fatal.
    for report in result.deduped() {
        println!("{report}");
    }
    assert_eq!(result.deduped().len(), 1, "exactly one write-write race");
    // The session's bounded aggregate (what a long-running service keeps):
    print!("{}", result.summary);

    // The run still completed, and one of the two values won:
    let v = result.read_u64(a);
    println!("\nfinal value of a = {v:#x} (one of the racers won)");
    assert!(v == 0xAAAA || v == 0xCCCC);

    // The offline oracle agrees with the online detector:
    let oracle = Oracle::analyze(&result.trace);
    let score = oracle.score(result.deduped());
    println!(
        "oracle check: precision {:.2}, recall {:.2}",
        score.precision(),
        score.recall()
    );
    assert_eq!(score.false_positives, 0);
}
