//! The `repro --scenarios` harness: the oracle-validated scenario matrix.
//!
//! Every communication-pattern twin in [`scenario_matrix`] carries a
//! [`ScenarioTruth`] annotation (its complete race-site catalogue, or
//! race-freedom). The harness drives each scenario through the full engine
//! across **detector kinds × network models** (quiet
//! latency/topology variants plus the PR-6 fault matrix's delay and
//! reorder plans — the non-lossy plans: dropped messages no longer wedge
//! the engine, which force-completes lost waits degraded, but a run that
//! skipped detection traffic cannot be graded against the oracle's
//! ground truth; the lossy plans' wedge-free smoke lives in
//! `repro --chaos`), runs [`Oracle::analyze`] on each recorded trace, and
//! asserts:
//!
//! * **annotation soundness** — every site the oracle finds racy is in the
//!   scenario's declared catalogue; race-free twins have empty oracle
//!   truth in every cell;
//! * **annotation completeness** — `always_races` twins hit *all* their
//!   declared sites in every cell (their conflicts carry no
//!   synchronisation, so no schedule can order them);
//! * **detector contracts** — the dual clock is sound (zero false-positive
//!   pairs, zero reports on race-free twins) and site-complete; the
//!   single clock is site-complete with its false positives confined to
//!   the documented read-read class (§IV-D); the literal mode's scores
//!   are recorded but not recall-gated (Algorithm 1's write-after-read
//!   blind spot is a *finding*, not a bug);
//! * **hygiene** — no panic escapes, no rank wedges, quiet nets surface
//!   no substrate errors.
//!
//! Everything is a pure function of the seed, so a failure line names the
//! exact `(scenario, detector, net, seed)` cell to replay, and the
//! same seed always reproduces the same [`Score`]s.

use std::panic::{catch_unwind, AssertUnwindSafe};

use netsim::{FaultSpec, Topology};
use race_core::{DetectorKind, Oracle, RaceClass, Score};
use simulator::workloads::{
    fanin, fanout, handshake, lock_contention, pipeline_nm, poisson, producer_consumer, sendsend,
    RaceGrade, ScenarioTruth, Workload,
};
use simulator::{Engine, LatencySpec, SimConfig};

use crate::chaos;

/// Detector kinds the matrix sweeps: the clock-based kinds the paper
/// compares.
pub const MATRIX_KINDS: [DetectorKind; 3] = [
    DetectorKind::Dual,
    DetectorKind::Single,
    DetectorKind::Literal,
];

/// The scenario matrix: eight communication patterns, each as a race-free /
/// racy twin with embedded ground truth. The first six racy twins are
/// graded [`RaceGrade::Always`] (no synchronisation at all on the racy
/// sites); the last two ([`handshake`], [`sendsend`]) are graded
/// [`RaceGrade::Sometimes`] — their conflicts are ordered by an
/// atomic-flag data-flow edge in some interleavings and not in others, so
/// the sweep must observe both outcomes across cells. Scales are
/// debugging-sized (§V-A) so the full cross product stays a smoke-test,
/// not a soak.
pub fn scenario_matrix() -> Vec<Workload> {
    vec![
        fanout::safe(4, 2),
        fanout::racy(4, 2),
        fanin::safe(4, 2),
        fanin::racy(4, 2),
        pipeline_nm::safe(4, 3),
        pipeline_nm::racy(4, 3),
        poisson::safe(4, 3, 2_000, 11),
        poisson::racy(4, 3, 2_000, 11),
        producer_consumer::safe(4, 3),
        producer_consumer::racy(4, 3),
        lock_contention::safe(4, 2, 2),
        lock_contention::racy(4, 2, 2),
        handshake::safe(4, 2),
        handshake::racy(4, 2),
        sendsend::safe(3, 2),
        sendsend::racy(3, 2),
    ]
}

/// One network model of the sweep: latency spec, topology and an optional
/// fault plan (delay / reorder only — a lossy plan completes degraded by
/// skipping lost waits, so its trace cannot be oracle-graded; its
/// wedge-free smoke lives in `repro --chaos`).
#[derive(Debug, Clone)]
pub struct NetModel {
    /// Row label.
    pub name: &'static str,
    /// Latency model.
    pub latency: LatencySpec,
    /// Interconnect topology (`None` = the scenario-sized full mesh).
    pub topology: Option<fn(usize) -> Topology>,
    /// Fault plan, straight from [`chaos::spec_matrix`].
    pub faults: Option<FaultSpec>,
}

#[expect(
    clippy::panic,
    reason = "static label lookup; the net_matrix unit test exercises every label, so absence is a programmer error, not a runtime condition."
)]
fn fault_plan(label: &str) -> FaultSpec {
    chaos::spec_matrix()
        .into_iter()
        .find(|(l, _)| *l == label)
        .map(|(_, s)| s)
        .unwrap_or_else(|| panic!("fault plan {label:?} missing from the chaos matrix"))
}

/// The network axis: the debugging default, two deterministic
/// latency/topology variants, and the two non-lossy fault plans of the
/// PR-6 chaos matrix.
pub fn net_matrix() -> Vec<NetModel> {
    vec![
        NetModel {
            name: "jittered-ib",
            latency: LatencySpec::JitteredInfiniBand { max_ns: 2_000 },
            topology: None,
            faults: None,
        },
        NetModel {
            name: "lockstep-ring",
            latency: LatencySpec::Constant { ns: 500 },
            topology: Some(|n| Topology::Ring { nodes: n }),
            faults: None,
        },
        NetModel {
            name: "ethernet-star",
            latency: LatencySpec::Ethernet,
            topology: Some(|_| Topology::Star { hub: 0 }),
            faults: None,
        },
        NetModel {
            name: "fault-delay",
            latency: LatencySpec::JitteredInfiniBand { max_ns: 2_000 },
            topology: None,
            faults: Some(fault_plan("delay")),
        },
        NetModel {
            name: "fault-reorder",
            latency: LatencySpec::JitteredInfiniBand { max_ns: 2_000 },
            topology: None,
            faults: Some(fault_plan("reorder")),
        },
    ]
}

/// One graded cell of the matrix: the oracle's verdict on one engine run.
/// Deliberately timing-free, so two sweeps from the same seed must produce
/// *equal* cells (the determinism acceptance check).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioCell {
    /// Workload name.
    pub scenario: String,
    /// Detector kind label.
    pub detector: &'static str,
    /// Network model label.
    pub net: &'static str,
    /// Run seed.
    pub seed: u64,
    /// Deduped report count.
    pub reports: usize,
    /// Oracle ground-truth pair count.
    pub truth_pairs: usize,
    /// Oracle ground-truth site count.
    pub truth_sites: usize,
    /// Pair-level score of the deduped reports.
    pub pairs: Score,
    /// Site-level score of the deduped reports.
    pub sites: Score,
    /// Whether fault injection actually fired.
    pub degraded: bool,
}

/// Outcome of a scenario sweep, mirroring [`chaos::ChaosReport`]:
/// human-readable verdict lines plus the graded cells (`repro --scenarios`
/// exits non-zero when `ok` is false).
pub struct ScenarioReport {
    /// One line per scenario × net summary; failures are prefixed `FAIL`.
    pub lines: Vec<String>,
    /// True when every ground-truth assertion held across the matrix.
    pub ok: bool,
    /// Total engine runs executed.
    pub runs: usize,
    /// Every graded cell, in sweep order.
    pub cells: Vec<ScenarioCell>,
}

impl ScenarioReport {
    fn fail(&mut self, line: String) {
        self.ok = false;
        self.lines.push(format!("FAIL {line}"));
    }
}

struct CellOutcome {
    cell: ScenarioCell,
    read_read_only: bool,
    oracle_truth_sites: Vec<(usize, usize)>,
    stuck: usize,
    errors: usize,
}

fn run_cell(
    w: &Workload,
    kind: DetectorKind,
    net: &NetModel,
    seed: u64,
) -> Result<CellOutcome, String> {
    let mut cfg = SimConfig::debugging(w.n)
        .with_seed(seed)
        .with_detector(kind);
    cfg.latency = net.latency;
    if let Some(topo) = net.topology {
        cfg.topology = topo(w.n);
    }
    if let Some(spec) = net.faults {
        cfg = cfg.with_faults(spec);
    }
    let programs = w.programs.clone();
    let (name, net_name) = (w.name.clone(), net.name);
    catch_unwind(AssertUnwindSafe(move || {
        let r = Engine::new(cfg, programs).run();
        let oracle = Oracle::analyze(&r.trace);
        let pairs = oracle.score(r.deduped());
        let sites = oracle.site_score(r.deduped());
        let mut oracle_truth_sites: Vec<(usize, usize)> =
            oracle.truth_sites().into_iter().collect();
        oracle_truth_sites.sort_unstable();
        CellOutcome {
            cell: ScenarioCell {
                scenario: name,
                detector: kind.label(),
                net: net_name,
                seed,
                reports: r.deduped().len(),
                truth_pairs: oracle.truth().len(),
                truth_sites: oracle_truth_sites.len(),
                pairs,
                sites,
                degraded: r.summary.degraded,
            },
            read_read_only: r.deduped().iter().all(|p| p.class == RaceClass::ReadRead),
            oracle_truth_sites,
            stuck: r.stuck.len(),
            errors: r.errors.len(),
        }
    }))
    .map_err(|payload| {
        payload
            .downcast::<String>()
            .map(|s| *s)
            .unwrap_or_else(|p| {
                p.downcast::<&'static str>()
                    .map(|s| s.to_string())
                    .unwrap_or_else(|_| "non-string panic payload".into())
            })
    })
}

/// Apply every ground-truth and contract assertion to one graded cell.
fn check_cell(out: &CellOutcome, truth: &ScenarioTruth, report: &mut ScenarioReport) {
    let c = &out.cell;
    let at = format!(
        "{} [{} net={} seed={}]",
        c.scenario, c.detector, c.net, c.seed
    );
    if out.stuck > 0 {
        report.fail(format!("{at}: {} rank(s) wedged", out.stuck));
        return;
    }
    if out.errors > 0 && c.net != "fault-delay" && c.net != "fault-reorder" {
        report.fail(format!(
            "{at}: {} substrate error(s) on a quiet net",
            out.errors
        ));
    }
    // Annotation soundness: the oracle can never find a site outside the
    // declared catalogue.
    for site in &out.oracle_truth_sites {
        if !truth.racy_sites.contains(site) {
            report.fail(format!(
                "{at}: oracle found undeclared race site {site:?} (annotation incomplete)"
            ));
        }
    }
    if truth.is_race_free() && c.truth_pairs > 0 {
        report.fail(format!(
            "{at}: declared race-free but oracle found {} true pair(s)",
            c.truth_pairs
        ));
    }
    // Annotation completeness: always-racing twins hit every declared site
    // in every schedule. (`sometimes` twins are checked at sweep level
    // instead: both outcomes must appear somewhere across the matrix.)
    if truth.always_races() && out.oracle_truth_sites != truth.racy_sites {
        report.fail(format!(
            "{at}: always-racing twin hit sites {:?}, declared {:?}",
            out.oracle_truth_sites, truth.racy_sites
        ));
    }
    // Detector contracts.
    match c.detector {
        "dual-clock" => {
            if c.pairs.false_positives > 0 {
                report.fail(format!(
                    "{at}: dual clock reported {} false-positive pair(s)",
                    c.pairs.false_positives
                ));
            }
            if truth.is_race_free() && c.reports > 0 {
                report.fail(format!(
                    "{at}: race-free twin but dual clock reported {} race(s)",
                    c.reports
                ));
            }
            if c.sites.false_negatives > 0 {
                report.fail(format!(
                    "{at}: dual clock missed {} true race site(s)",
                    c.sites.false_negatives
                ));
            }
        }
        "single-clock" => {
            if c.sites.false_negatives > 0 {
                report.fail(format!(
                    "{at}: single clock missed {} true race site(s)",
                    c.sites.false_negatives
                ));
            }
            if truth.is_race_free() && c.reports > 0 && !out.read_read_only {
                report.fail(format!(
                    "{at}: single clock's false positives must be read-read only"
                ));
            }
        }
        // literal-paper: scores recorded, recall not gated — Algorithm 1's
        // write-after-read blind spot is the measured finding.
        _ => {}
    }
}

/// Sweep the whole matrix for one seed; returns cells in deterministic
/// order and appends verdicts to `report`.
fn sweep_seed(seed: u64, report: &mut ScenarioReport) {
    let nets = net_matrix();
    for w in scenario_matrix() {
        let Some(truth) = w.truth.clone() else {
            report.fail(format!("{}: matrix scenario without ground truth", w.name));
            continue;
        };
        let mut cells_here = 0usize;
        for net in &nets {
            for kind in MATRIX_KINDS {
                let out = match run_cell(&w, kind, net, seed) {
                    Ok(o) => o,
                    Err(msg) => {
                        report.fail(format!(
                            "{} [{} net={} seed={}]: panicked: {msg}",
                            w.name,
                            kind.label(),
                            net.name,
                            seed
                        ));
                        continue;
                    }
                };
                report.runs += 1;
                cells_here += 1;
                check_cell(&out, &truth, report);
                report.cells.push(out.cell);
            }
        }
        report.lines.push(format!(
            "scenario {:<28} seed {seed}: {cells_here} cell(s) ok",
            w.name
        ));
    }
}

/// Run the full oracle-validated sweep over seeds `0..seeds`.
pub fn run_scenarios(seeds: u64) -> ScenarioReport {
    let mut report = ScenarioReport {
        lines: Vec::new(),
        ok: true,
        runs: 0,
        cells: Vec::new(),
    };
    for seed in 0..seeds.max(1) {
        sweep_seed(seed, &mut report);
    }
    check_schedule_dependence(&mut report);
    report
}

/// Sweep-level check for `sometimes`-graded twins. Per twin, at least one
/// cell must hit a catalogued site (the races are real). Across all
/// `sometimes` twins together, at least one cell must *miss* a catalogued
/// site (the races are demonstrably not inevitable) — aggregate rather
/// than per twin because a saturated-contention twin like
/// `lockcontend-racy` is schedule-dependent only through schedules (full
/// serialisation) the random sweep never samples. Per-cell soundness
/// already pins every oracle site inside the catalogue, so `truth_sites`
/// counts suffice here.
fn check_schedule_dependence(report: &mut ScenarioReport) {
    let mut any_partial = false;
    let mut sometimes_twins = 0usize;
    for w in scenario_matrix() {
        let Some(truth) = w.truth else { continue };
        if truth.grade != RaceGrade::Sometimes {
            continue;
        }
        sometimes_twins += 1;
        let declared = truth.racy_sites.len();
        let (mut hit, mut partial) = (false, false);
        for c in report.cells.iter().filter(|c| c.scenario == w.name) {
            hit |= c.truth_sites > 0;
            partial |= c.truth_sites < declared;
        }
        any_partial |= partial;
        if !hit {
            report.fail(format!(
                "{}: schedule-dependent twin never raced in any cell of the sweep",
                w.name
            ));
        }
    }
    if sometimes_twins > 0 && !any_partial {
        report.fail(
            "every schedule-dependent twin hit every declared site in every cell \
             of the sweep (no schedule dependence observed)"
                .to_string(),
        );
    }
}

// ---------------------------------------------------------------------------
// Bench rows (the BENCH_0005.json content)
// ---------------------------------------------------------------------------

/// One perf row of `repro --scenarios`: a scenario × detector cell at the
/// baseline configuration, carrying throughput *and* the oracle's scored
/// columns — the "correctness fixture as bench workload" shape.
#[derive(Debug, Clone)]
pub struct ScenarioRow {
    /// Workload name.
    pub scenario: String,
    /// Detector kind label.
    pub detector: &'static str,
    /// Process count.
    pub n: usize,
    /// Network model label.
    pub net: &'static str,
    /// Run seed.
    pub seed: u64,
    /// Clocked accesses in the recorded trace.
    pub accesses: usize,
    /// Mean wall-clock ns per engine run (whole simulation, calibrated).
    pub wall_ns_per_run: u64,
    /// Trace accesses per wall-clock second.
    pub accesses_per_sec: u64,
    /// Deduped report count.
    pub reports: usize,
    /// Oracle ground-truth pair / site counts.
    pub truth_pairs: usize,
    /// Oracle ground-truth site count.
    pub truth_sites: usize,
    /// Pair-level precision/recall and site-level precision/recall.
    pub pair_precision: f64,
    /// Pair-level recall.
    pub pair_recall: f64,
    /// Site-level precision.
    pub site_precision: f64,
    /// Site-level recall.
    pub site_recall: f64,
}

impl ScenarioRow {
    /// The single-line JSON shape committed as `BENCH_0005.json`
    /// (hand-formatted like every producer in this workspace).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"scenario\":\"{}\",\"detector\":\"{}\",\"n\":{},",
                "\"net\":\"{}\",\"seed\":{},\"accesses\":{},\"wall_ns_per_run\":{},",
                "\"accesses_per_sec\":{},\"reports\":{},\"truth_pairs\":{},",
                "\"truth_sites\":{},\"pair_precision\":{:.4},\"pair_recall\":{:.4},",
                "\"site_precision\":{:.4},\"site_recall\":{:.4}}}"
            ),
            self.scenario,
            self.detector,
            self.n,
            self.net,
            self.seed,
            self.accesses,
            self.wall_ns_per_run,
            self.accesses_per_sec,
            self.reports,
            self.truth_pairs,
            self.truth_sites,
            self.pair_precision,
            self.pair_recall,
            self.site_precision,
            self.site_recall,
        )
    }
}

/// Produce the BENCH_0005 rows: every scenario × matrix kind at the
/// baseline net, seed 1, wall-clock calibrated to at least ~60 ms
/// or 64 runs per row. Scores are seed-deterministic; only the timing
/// columns vary between hosts.
pub fn bench_rows_scenarios() -> Vec<ScenarioRow> {
    let seed = 1u64;
    let mut rows = Vec::new();
    for w in scenario_matrix() {
        for kind in MATRIX_KINDS {
            let cfg = || {
                SimConfig::debugging(w.n)
                    .with_seed(seed)
                    .with_detector(kind)
            };
            // Calibrate: run once, then repeat until the budget is spent.
            let budget = std::time::Duration::from_millis(60);
            let started = std::time::Instant::now();
            let mut r = Engine::new(cfg(), w.programs.clone()).run();
            let mut runs = 1u32;
            while started.elapsed() < budget && runs < 64 {
                r = Engine::new(cfg(), w.programs.clone()).run();
                runs += 1;
            }
            let wall_ns_per_run = (started.elapsed().as_nanos() / u128::from(runs)) as u64;
            let oracle = Oracle::analyze(&r.trace);
            let pairs = oracle.score(r.deduped());
            let sites = oracle.site_score(r.deduped());
            let accesses = r.trace.events.len();
            rows.push(ScenarioRow {
                scenario: w.name.clone(),
                detector: kind.label(),
                n: w.n,
                net: "jittered-ib",
                seed,
                accesses,
                wall_ns_per_run,
                accesses_per_sec: if wall_ns_per_run == 0 {
                    0
                } else {
                    (accesses as u128 * 1_000_000_000 / wall_ns_per_run as u128) as u64
                },
                reports: r.deduped().len(),
                truth_pairs: oracle.truth().len(),
                truth_sites: oracle.truth_sites().len(),
                pair_precision: pairs.precision(),
                pair_recall: pairs.recall(),
                site_precision: sites.precision(),
                site_recall: sites.recall(),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_has_sixteen_annotated_scenarios_in_twin_pairs() {
        let m = scenario_matrix();
        assert_eq!(m.len(), 16);
        let mut sometimes = 0usize;
        for pair in m.chunks(2) {
            let safe = pair[0].truth.as_ref().unwrap();
            let racy = pair[1].truth.as_ref().unwrap();
            assert!(safe.is_race_free(), "{} must be race-free", pair[0].name);
            assert!(
                !racy.is_race_free(),
                "{} must declare race sites",
                pair[1].name
            );
            match racy.grade {
                RaceGrade::Always => {}
                RaceGrade::Sometimes => sometimes += 1,
                RaceGrade::Never => panic!("{} racy twin graded never", pair[1].name),
            }
        }
        assert_eq!(
            sometimes, 3,
            "the lock-contention (RMW absorb), handshake and send/send twins \
             are schedule-dependent"
        );
    }

    #[test]
    fn net_matrix_reuses_the_chaos_fault_plans() {
        let nets = net_matrix();
        assert_eq!(nets.len(), 5);
        let delay = nets.iter().find(|n| n.name == "fault-delay").unwrap();
        assert_eq!(delay.faults, Some(fault_plan("delay")));
        assert!(
            nets.iter()
                .filter_map(|n| n.faults)
                .all(|f| f.drop == 0.0 && f.duplicate == 0.0),
            "only non-lossy, non-duplicating plans — skipped waits can't be oracle-graded"
        );
    }

    #[test]
    fn a_wrong_annotation_fails_the_sweep() {
        // The exit-1 path: grade a genuinely racy run against a falsified
        // race-free annotation and the harness must flag it.
        let w = fanout::racy(4, 2);
        let net = &net_matrix()[0];
        let out = run_cell(&w, DetectorKind::Dual, net, 1).unwrap();
        let mut report = ScenarioReport {
            lines: Vec::new(),
            ok: true,
            runs: 0,
            cells: Vec::new(),
        };
        check_cell(&out, &ScenarioTruth::race_free(), &mut report);
        assert!(!report.ok, "undeclared races must fail the sweep");
        assert!(report.lines.iter().any(|l| l.starts_with("FAIL")));

        // And an annotation claiming more sites than exist must also fail.
        let mut report = ScenarioReport {
            lines: Vec::new(),
            ok: true,
            runs: 0,
            cells: Vec::new(),
        };
        let inflated = ScenarioTruth::always(vec![(1, 0), (2, 0), (3, 0), (3, 7)]);
        check_cell(&out, &inflated, &mut report);
        assert!(
            !report.ok,
            "an unhit declared site must fail an always twin"
        );
    }

    #[test]
    fn scenario_row_json_is_single_line_with_scored_columns() {
        let row = ScenarioRow {
            scenario: "fanout-racy(4p,2r)".into(),
            detector: "dual-clock",
            n: 4,
            net: "jittered-ib",
            seed: 1,
            accesses: 100,
            wall_ns_per_run: 1_000,
            accesses_per_sec: 100_000_000,
            reports: 3,
            truth_pairs: 6,
            truth_sites: 3,
            pair_precision: 1.0,
            pair_recall: 0.5,
            site_precision: 1.0,
            site_recall: 1.0,
        };
        let json = row.to_json();
        assert!(!json.contains('\n'));
        for key in [
            "\"scenario\":",
            "\"detector\":",
            "\"pair_precision\":",
            "\"site_recall\":",
            "\"accesses_per_sec\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.contains("\"pair_recall\":0.5000"));
    }
}
