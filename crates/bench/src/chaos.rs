//! The `repro --chaos` harness: scenario workloads under a seed matrix of
//! fault plans, asserting the whole stack honours the §IV-D contract —
//! trouble is **signalled, never fatal** — even when the environment
//! misbehaves.
//!
//! **Network chaos**, deterministic per seed: real engine runs of scenario
//! workloads under a matrix of [`FaultSpec`]s (quiet control, delay,
//! duplicate, reorder, drop, storm). Invariants: (a) no panic ever escapes
//! a run; (b) when a plan injected nothing (delivery order preserved), the
//! report stream is byte-identical to the no-fault baseline and the run is
//! not degraded; (c) whenever injection fired, the run's summary says
//! [`RaceSummary::degraded`](race_core::RaceSummary::degraded); (d) no run
//! ever wedges — the lossy cells (drop, storm) complete through the
//! engine's bounded-wait degrade path with zero stuck ranks.
//!
//! Everything is pure functions over seeds, so a CI failure line names
//! the exact `(scenario, spec, seed)` triple to replay locally. (Faults
//! *inside* the service — a session panic, a cut connection — are the
//! serve harness's half: `repro --serve-smoke`.)

use std::panic::{catch_unwind, AssertUnwindSafe};

use netsim::FaultSpec;
use race_core::RaceReport;
use simulator::workloads::{master_worker, reduction, stencil, Workload};
use simulator::{Engine, SimConfig};

/// Outcome of a chaos sweep: human-readable verdict lines plus an overall
/// pass flag (`repro --chaos` exits non-zero when `ok` is false).
pub struct ChaosReport {
    /// One line per checked invariant group; failures are prefixed
    /// `"FAIL"`.
    pub lines: Vec<String>,
    /// True when every invariant held across the whole matrix.
    pub ok: bool,
    /// Total engine runs executed.
    pub runs: usize,
}

impl ChaosReport {
    fn fail(&mut self, line: String) {
        self.ok = false;
        self.lines.push(format!("FAIL {line}"));
    }
}

/// The fault-plan matrix: one quiet control plus each fault class alone
/// plus a storm mixing all of them. Probabilities are chosen so small
/// scenario runs actually trigger injections.
pub fn spec_matrix() -> Vec<(&'static str, FaultSpec)> {
    vec![
        ("quiet", FaultSpec::default()),
        (
            "delay",
            FaultSpec {
                delay: 0.5,
                extra_delay_ns: 3_000,
                ..Default::default()
            },
        ),
        (
            "duplicate",
            FaultSpec {
                duplicate: 0.3,
                ..Default::default()
            },
        ),
        (
            "reorder",
            FaultSpec {
                reorder: 0.5,
                reorder_window_ns: 2_000,
                ..Default::default()
            },
        ),
        (
            "drop",
            FaultSpec {
                drop: 0.05,
                ..Default::default()
            },
        ),
        (
            "storm",
            FaultSpec {
                drop: 0.02,
                duplicate: 0.2,
                delay: 0.3,
                extra_delay_ns: 2_000,
                reorder: 0.3,
                reorder_window_ns: 1_000,
            },
        ),
    ]
}

/// Small scenario workloads: synchronised, racy and one-sided traffic.
fn scenarios() -> Vec<Workload> {
    vec![
        stencil::with_barrier(4, 8, 2),
        master_worker::racy(3, 2),
        reduction::onesided(4),
    ]
}

/// A run's observable outcome, or the panic message if one escaped.
struct RunOutcome {
    reports: Vec<RaceReport>,
    degraded: bool,
    injected: u64,
    stuck: Vec<usize>,
}

fn engine_run(cfg: SimConfig, w: &Workload) -> Result<RunOutcome, String> {
    let programs = w.programs.clone();
    catch_unwind(AssertUnwindSafe(move || {
        let r = Engine::new(cfg, programs).run();
        RunOutcome {
            reports: r.reports,
            degraded: r.summary.degraded,
            injected: r.stats.injected_total(),
            stuck: r.stuck,
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

/// Engine runs under the fault matrix across `seeds` seeds.
fn network_chaos(seeds: u64, report: &mut ChaosReport) {
    let specs = spec_matrix();
    for w in scenarios() {
        let mut checked = 0u64;
        let mut fired = 0u64;
        for seed in 0..seeds {
            let base = match engine_run(SimConfig::debugging(w.n).with_seed(seed), &w) {
                Ok(o) => o,
                Err(msg) => {
                    report.fail(format!("{} seed {seed} baseline panicked: {msg}", w.name));
                    continue;
                }
            };
            report.runs += 1;
            for (label, spec) in &specs {
                let cfg = SimConfig::debugging(w.n).with_seed(seed).with_faults(*spec);
                let out = match engine_run(cfg, &w) {
                    Ok(o) => o,
                    Err(msg) => {
                        report.fail(format!(
                            "{} spec {label} seed {seed} panicked: {msg}",
                            w.name
                        ));
                        continue;
                    }
                };
                report.runs += 1;
                checked += 1;
                if !out.stuck.is_empty() {
                    // The wedge-free smoke: lossy plans must complete via
                    // the engine's bounded-wait degrade path, never leave
                    // ranks stuck.
                    report.fail(format!(
                        "{} spec {label} seed {seed}: rank(s) {:?} wedged",
                        w.name, out.stuck
                    ));
                }
                if out.injected == 0 {
                    // Delivery untouched: the run must be indistinguishable
                    // from the baseline.
                    if out.reports != base.reports {
                        report.fail(format!(
                            "{} spec {label} seed {seed}: no injection but reports diverge",
                            w.name
                        ));
                    }
                    if out.degraded {
                        report.fail(format!(
                            "{} spec {label} seed {seed}: degraded without injection",
                            w.name
                        ));
                    }
                } else {
                    fired += 1;
                    if !out.degraded {
                        report.fail(format!(
                            "{} spec {label} seed {seed}: {} injection(s) but not degraded",
                            w.name, out.injected
                        ));
                    }
                }
            }
        }
        report.lines.push(format!(
            "network  {:<24} {} run(s), {} with injections: ok",
            w.name, checked, fired
        ));
    }
}

/// Run the full chaos sweep over `seeds` seeds per scenario/spec pair.
pub fn run_chaos(seeds: u64) -> ChaosReport {
    let mut report = ChaosReport {
        lines: Vec::new(),
        ok: true,
        runs: 0,
    };
    network_chaos(seeds.max(1), &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_sweep_passes_on_a_small_matrix() {
        let r = run_chaos(2);
        assert!(r.ok, "chaos sweep failed:\n{}", r.lines.join("\n"));
        assert!(r.runs > 0);
        assert!(r.lines.iter().all(|l| !l.starts_with("FAIL")));
    }

    #[test]
    fn lossy_plans_complete_wedge_free() {
        // The drop and storm cells must genuinely inject (else the smoke
        // proves nothing) and every run must complete with zero stuck
        // ranks via the engine's bounded-wait degrade path.
        for label in ["drop", "storm"] {
            let spec = spec_matrix()
                .into_iter()
                .find(|(l, _)| *l == label)
                .map(|(_, s)| s)
                .unwrap();
            let mut fired = 0u64;
            for w in scenarios() {
                for seed in 0..4 {
                    let cfg = SimConfig::debugging(w.n).with_seed(seed).with_faults(spec);
                    let out = engine_run(cfg, &w)
                        .unwrap_or_else(|msg| panic!("{label} seed {seed} panicked: {msg}"));
                    assert!(
                        out.stuck.is_empty(),
                        "{} {label} seed {seed}: wedged ranks {:?}",
                        w.name,
                        out.stuck
                    );
                    if out.injected > 0 {
                        fired += 1;
                        assert!(out.degraded);
                    }
                }
            }
            assert!(fired > 0, "{label} plan never injected across the sweep");
        }
    }

    #[test]
    fn spec_matrix_has_quiet_control_and_fires() {
        let specs = spec_matrix();
        assert_eq!(specs[0].0, "quiet");
        assert!(specs[0].1.is_quiet());
        assert!(specs.iter().skip(1).all(|(_, s)| !s.is_quiet()));
    }
}
