//! Tier-1 gate for the oracle-validated scenario matrix: the full
//! detector-kind × network-model sweep must satisfy every
//! embedded ground-truth annotation, and the whole matrix must be a pure
//! function of the seed (same seed ⇒ same scores, cell for cell).

use dsm_bench::scenarios::{run_scenarios, scenario_matrix, MATRIX_KINDS};
use simulator::workloads::RaceGrade;

#[test]
fn full_matrix_satisfies_ground_truth_and_is_deterministic() {
    let first = run_scenarios(1);
    assert!(
        first.ok,
        "scenario sweep violated ground truth:\n{}",
        first
            .lines
            .iter()
            .filter(|l| l.starts_with("FAIL"))
            .cloned()
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Full coverage: every scenario × net × kind cell was graded.
    let nets = dsm_bench::scenarios::net_matrix().len();
    let expected = scenario_matrix().len() * nets * MATRIX_KINDS.len();
    assert_eq!(first.cells.len(), expected, "cells missing from the sweep");
    assert_eq!(first.runs, expected);

    // Determinism: a second sweep from the same seed reproduces every cell
    // — reports, truth counts and both Score levels — exactly.
    let second = run_scenarios(1);
    assert!(second.ok);
    assert_eq!(first.cells, second.cells, "same seed must give same scores");
}

#[test]
fn race_free_twins_are_silent_and_racy_twins_are_site_complete() {
    let report = run_scenarios(1);
    assert!(report.ok);
    let truths: std::collections::HashMap<String, _> = scenario_matrix()
        .into_iter()
        .map(|w| (w.name.clone(), w.truth.expect("annotated")))
        .collect();
    let mut silent_cells = 0;
    let mut complete_cells = 0;
    for cell in &report.cells {
        let truth = &truths[&cell.scenario];
        if truth.is_race_free() {
            // Oracle agrees with the annotation in every cell…
            assert_eq!(cell.truth_pairs, 0, "{}: oracle found races", cell.scenario);
            // …and the sound detector stays silent.
            if cell.detector == "dual-clock" {
                assert_eq!(
                    cell.reports, 0,
                    "{} [{} net={}]: dual clock reported on a race-free twin",
                    cell.scenario, cell.detector, cell.net
                );
                silent_cells += 1;
            }
        } else {
            match truth.grade {
                // Always-racing twins hit their whole declared catalogue…
                RaceGrade::Always => assert_eq!(
                    cell.truth_sites,
                    truth.racy_sites.len(),
                    "{}: oracle missed declared sites",
                    cell.scenario
                ),
                // …schedule-dependent twins hit a (possibly empty) subset —
                // per-cell soundness is asserted inside run_scenarios, and
                // the sweep-level both-outcomes check lives there too.
                RaceGrade::Sometimes => assert!(
                    cell.truth_sites <= truth.racy_sites.len(),
                    "{}: oracle found more sites than declared",
                    cell.scenario
                ),
                RaceGrade::Never => unreachable!("race-free handled above"),
            }
            // The site-complete kinds report every site the oracle found
            // in *this* run (per-run truth, so this holds for both grades).
            if cell.detector != "literal-paper" {
                assert_eq!(
                    cell.sites.false_negatives, 0,
                    "{} [{} net={}]: missed a true race site",
                    cell.scenario, cell.detector, cell.net
                );
                assert!((cell.sites.recall() - 1.0).abs() < 1e-12);
                complete_cells += 1;
            }
        }
        if cell.detector == "dual-clock" {
            assert_eq!(
                cell.pairs.false_positives, 0,
                "{} [{} net={}]: unsound dual-clock pair",
                cell.scenario, cell.detector, cell.net
            );
        }
    }
    assert!(
        silent_cells > 0 && complete_cells > 0,
        "both gates exercised"
    );
}

#[test]
fn fault_cells_fire_and_stay_graded() {
    // The fault-plan nets exist to prove grading survives perturbed
    // delivery: at least one faulted cell must actually have injected
    // (degraded), and every degraded cell still satisfied its contract
    // (run_scenarios would have failed otherwise).
    let report = run_scenarios(2);
    assert!(report.ok);
    let degraded = report.cells.iter().filter(|c| c.degraded).count();
    assert!(degraded > 0, "fault plans never fired across two seeds");
    assert!(report
        .cells
        .iter()
        .filter(|c| c.degraded)
        .all(|c| c.net == "fault-delay" || c.net == "fault-reorder"));
}

/// What every `RunResult` promises about its three views of the report
/// stream, whoever owns the stream inside the engine: the summary counts the
/// raw reports, and `deduped` keeps the first report of each access pair.
fn assert_report_views_agree(result: &simulator::RunResult, at: &str) {
    use race_core::{dedup_reports, RaceSummary};

    assert_eq!(result.summary.total, result.reports.len(), "{at}: total");
    let mut from_reports = RaceSummary::from_reports(&result.reports);
    from_reports.degraded = result.summary.degraded;
    assert_eq!(result.summary, from_reports, "{at}: summary");
    assert_eq!(
        result.deduped(),
        dedup_reports(&result.reports),
        "{at}: deduped"
    );
    // And `dedup_reports` itself against the plainest statement of it.
    let mut seen = std::collections::BTreeSet::new();
    let firsts: Vec<_> = result
        .reports
        .iter()
        .filter(|r| seen.insert(r.pair()))
        .cloned()
        .collect();
    assert_eq!(
        result.deduped(),
        firsts,
        "{at}: first of each pair, in order"
    );
}

#[test]
fn run_results_keep_their_report_views_consistent() {
    use race_core::{DetectorConfig, DetectorKind};
    use simulator::workloads::random_access::{self, RandomSpec};
    use simulator::workloads::{master_worker, stencil};
    use simulator::{Engine, SimConfig};

    // The BENCH_0005 corpus: every scenario on every network model, under
    // every detector kind (vanilla has no reports).
    let mut reports_seen = 0;
    for w in scenario_matrix() {
        for net in dsm_bench::scenarios::net_matrix() {
            for kind in DetectorKind::ALL {
                let mut cfg = SimConfig::debugging(w.n).with_seed(1).with_detector(kind);
                cfg.latency = net.latency;
                if let Some(topology) = net.topology {
                    cfg.topology = topology(w.n);
                }
                if let Some(spec) = net.faults {
                    cfg = cfg.with_faults(spec);
                }
                let result = Engine::new(cfg, w.programs.clone()).run();
                let at = format!("{} [{} net={}]", w.name, kind.label(), net.name);
                assert_report_views_agree(&result, &at);
                reports_seen += result.reports.len();
            }
        }
    }
    assert!(reports_seen > 0, "the corpus has racy twins");

    // The three `sim_debug` programs (benchmark/src/sim.rs), at full scale.
    const RANKS: usize = 10;
    let programs = [
        stencil::with_barrier(RANKS, 64, 32),
        master_worker::racy(RANKS - 1, 64),
        random_access::generate(RandomSpec {
            n: RANKS,
            ops_per_rank: 256,
            hot_words: 64,
            p_write: 0.25,
            locked: false,
            seed: 176,
        }),
    ];
    for (program, racy) in programs.iter().zip([false, true, true]) {
        for kind in [DetectorKind::Vanilla, DetectorKind::Dual] {
            let config = SimConfig::debugging(RANKS)
                .with_seed(176)
                .with_detector_config(DetectorConfig::new(kind, RANKS));
            let result = Engine::new(config, program.programs.clone()).run();
            let at = format!("{} [{}]", program.name, kind.label());
            assert_report_views_agree(&result, &at);
            assert_eq!(
                !result.reports.is_empty(),
                racy && kind == DetectorKind::Dual,
                "{at}: {} report(s)",
                result.reports.len()
            );
        }
    }
}
