//! Regenerate every figure and quantified claim of the paper, and run the
//! repository's smoke and sweep checks.
//!
//! Usage:
//!   repro                 # all experiment tables (the EXPERIMENTS.md content)
//!   repro FIG2 SEC5A      # a selection by experiment id
//!   repro --config JSON   # DetectorConfig round-trip smoke: build a
//!                         # session from the JSON, drive the hotspot
//!                         # stream, serialize → reparse → rebuild, and
//!                         # fail (exit 1) unless the two report streams
//!                         # are byte-identical
//!   repro --serve-smoke   # detection-service stress: one server, 128
//!                         # concurrent clients (override with --clients N)
//!                         # mixing clean streams, mid-stream hangups,
//!                         # garbage bytes and stallers, plus an injected
//!                         # session panic. Fails (exit 1) unless the
//!                         # server survives, every misbehaving session is
//!                         # recorded degraded with the right outcome, and
//!                         # every clean summary is byte-identical to an
//!                         # in-process Session run
//!   repro --chaos         # fault-injection sweep: scenario workloads
//!                         # under a seed matrix of network fault plans.
//!                         # Fails (exit 1) if a panic escapes, a quiet
//!                         # plan perturbs a run, an injection goes
//!                         # unreported as degraded, or a lossy plan
//!                         # wedges a rank. `--seeds N` widens the matrix
//!                         # (default 8).
//!   repro --scenarios     # the oracle-validated scenario matrix: every
//!                         # annotated workload twin through the engine
//!                         # across detector kinds × network models,
//!                         # graded by the oracle. Prints
//!                         # the BENCH_0005.json rows (scored columns next
//!                         # to throughput) to stdout and fails (exit 1)
//!                         # on any ground-truth violation: a racy twin
//!                         # missing a declared site, a race-free twin
//!                         # reported by the dual clock, or a
//!                         # false-positive dual-clock pair. `--seeds N`
//!                         # widens the sweep (default 4).
//!   repro --analyze       # static/dynamic cross-validation: the static
//!                         # MHP analyzer (dsm-analysis) grades every
//!                         # matrix twin over all schedules, and must agree
//!                         # exactly with the embedded annotation and with
//!                         # Oracle::analyze over per-seed dynamic runs.
//!                         # Fails (exit 1) on any disagreement. `--seeds
//!                         # N` widens the dynamic sample (default 6).

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unreachable,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

fn parse_seeds(args: &[String], default: u64) -> u64 {
    args.iter()
        .position(|a| a == "--seeds")
        .and_then(|at| args.get(at + 1))
        .map(|v| match v.parse::<u64>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("--seeds needs a positive integer, got {v:?}");
                std::process::exit(1);
            }
        })
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if args.iter().any(|a| a == "--analyze") {
        let seeds = parse_seeds(&args, 6);
        let report = dsm_bench::analysis::run_analyze(seeds);
        for line in &report.lines {
            println!("{line}");
        }
        if !report.ok {
            eprintln!(
                "analyze: static/dynamic disagreement ({} scenario(s), {} run(s))",
                report.scenarios, report.runs
            );
            std::process::exit(1);
        }
        eprintln!(
            "# analyze: {} scenario(s), {} dynamic run(s): static verdicts == annotations == oracle",
            report.scenarios, report.runs
        );
        return;
    }

    if args.iter().any(|a| a == "--scenarios") {
        let seeds = parse_seeds(&args, 4);
        let report = dsm_bench::scenarios::run_scenarios(seeds);
        for line in &report.lines {
            eprintln!("{line}");
        }
        if !report.ok {
            eprintln!(
                "scenarios: ground truth violated ({} runs across {} seed(s))",
                report.runs, seeds
            );
            std::process::exit(1);
        }
        for row in dsm_bench::scenarios::bench_rows_scenarios() {
            println!("{}", row.to_json());
        }
        eprintln!(
            "# scenarios: {} run(s) across {} seed(s), every oracle ground-truth assertion held",
            report.runs, seeds
        );
        return;
    }

    if args.iter().any(|a| a == "--serve-smoke") {
        let clients = args
            .iter()
            .position(|a| a == "--clients")
            .and_then(|at| args.get(at + 1))
            .map(|v| match v.parse::<usize>() {
                Ok(n) if n > 0 => n,
                _ => {
                    eprintln!("--clients needs a positive integer, got {v:?}");
                    std::process::exit(1);
                }
            })
            .unwrap_or(128);
        let seeds = parse_seeds(&args, 1);
        let mut failed = false;
        for seed in 0..seeds {
            let report = dsm_bench::serve::run_serve_smoke(clients, seed);
            for line in &report.lines {
                println!("{line}");
            }
            failed |= !report.ok;
        }
        if failed {
            eprintln!("serve-smoke: invariant violated");
            std::process::exit(1);
        }
        eprintln!(
            "# serve-smoke: server survived {clients}+ chaotic clients across {seeds} seed(s); clean summaries byte-identical"
        );
        return;
    }

    if args.iter().any(|a| a == "--chaos") {
        let seeds = parse_seeds(&args, 8);
        let report = dsm_bench::chaos::run_chaos(seeds);
        for line in &report.lines {
            println!("{line}");
        }
        if !report.ok {
            eprintln!("chaos: invariant violated ({} runs)", report.runs);
            std::process::exit(1);
        }
        eprintln!(
            "# chaos: {} run(s) across {} seed(s), all invariants held",
            report.runs, seeds
        );
        return;
    }

    if let Some(at) = args.iter().position(|a| a == "--config") {
        let Some(json) = args.get(at + 1) else {
            eprintln!("--config needs a DetectorConfig JSON argument");
            std::process::exit(1);
        };
        let config = match race_core::DetectorConfig::from_json(json) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("config parse error: {e}");
                std::process::exit(1);
            }
        };
        match dsm_bench::perfjson::config_roundtrip(&config) {
            Ok((reports, accesses)) => {
                println!(
                    "{{\"config\":{},\"reports\":{},\"accesses\":{},\"roundtrip\":\"ok\"}}",
                    config.to_json(),
                    reports,
                    accesses,
                );
            }
            Err(e) => {
                eprintln!("config round-trip FAILED: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let tables = dsm_bench::all_tables();
    let mut printed = 0;
    for t in &tables {
        if args.is_empty() || args.iter().any(|a| a.eq_ignore_ascii_case(t.id)) {
            println!("{t}");
            printed += 1;
        }
    }
    if printed == 0 {
        eprintln!("no experiment matched {:?}; known ids:", args);
        for t in &tables {
            eprintln!("  {}", t.id);
        }
        std::process::exit(1);
    }
}
