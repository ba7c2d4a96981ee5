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
