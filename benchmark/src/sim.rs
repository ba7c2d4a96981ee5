//! `sim_debug`: the paper's §V-A experiment. Three programs at debugging
//! scale (10 processes) run through `simulator::Engine` once without
//! detection (`Vanilla`) and once with the dual-clock detector, over 16
//! engine seeds per rep. No service layer is involved: engine, simulated
//! network and DSM protocol dominate, and the detector shows up as the
//! extra clock messages it makes the protocol send.

use std::time::Instant;

use race_core::{DetectorConfig, DetectorKind};
use simulator::workloads::random_access::{self, RandomSpec};
use simulator::workloads::{master_worker, stencil, Workload as Programs};
use simulator::{Engine, RunResult, SimConfig};

use crate::child::{set_up_again, write_trace, Args, Span, MIN_REPS};
use crate::report::Report;
use crate::spec::Scale;
use crate::stats::{quiet, summarize};
use crate::stream::Rng;

const RANKS: usize = 10;

/// One engine seed's three programs.
struct Case {
    seed: u64,
    programs: [Programs; 3],
}

/// What must hold of a run, beyond finishing cleanly.
#[derive(Clone, Copy, PartialEq)]
enum Verdict {
    RaceFree,
    Racy,
}

const VERDICTS: [Verdict; 3] = [Verdict::RaceFree, Verdict::Racy, Verdict::Racy];

fn cases(seed: u64, scale: Scale) -> Vec<Case> {
    let (seeds, div) = match scale {
        Scale::Full => (16, 1),
        Scale::Mini => (2, 8),
    };
    let mut rng = Rng::new(seed);
    (0..seeds)
        .map(|_| {
            let seed = rng.next_u64();
            Case {
                seed,
                programs: [
                    stencil::with_barrier(RANKS, 64, 32 / div),
                    master_worker::racy(RANKS - 1, 64 / div),
                    random_access::generate(RandomSpec {
                        n: RANKS,
                        ops_per_rank: 256 / div,
                        hot_words: 64,
                        p_write: 0.25,
                        locked: false,
                        seed,
                    }),
                ],
            }
        })
        .collect()
}

/// Sums over one rep, per detector kind (`[vanilla, dual]`).
#[derive(Default, Clone, PartialEq)]
struct Tally {
    wall_ns: [u64; 2],
    events: [u64; 2],
    msgs: [u64; 2],
    bytes: [u64; 2],
    detection_bytes: [u64; 2],
    virtual_ns: [u64; 2],
    reports: [u64; 2],
    /// `(kind, start, end)` of each engine run, relative to the rep's start.
    spans: Vec<(usize, u64, u64)>,
}

impl Tally {
    /// The part of a tally that the seed determines.
    fn exact(&self) -> [[u64; 2]; 6] {
        [
            self.events,
            self.msgs,
            self.bytes,
            self.detection_bytes,
            self.virtual_ns,
            self.reports,
        ]
    }
}

fn verify(result: &RunResult, kind: usize, verdict: Verdict, what: &str) -> Result<(), String> {
    if !result.errors.is_empty() || !result.stuck.is_empty() {
        return Err(format!(
            "{what}: {} error(s), {} stuck rank(s)",
            result.errors.len(),
            result.stuck.len()
        ));
    }
    let reports = result.summary.total;
    let wanted = kind == 1 && verdict == Verdict::Racy;
    if wanted != (reports > 0) {
        return Err(format!("{what}: {reports} report(s)"));
    }
    Ok(())
}

/// One rep: every case, every program, `Vanilla` then `Dual`, interleaved so
/// that drift in the host's speed lands on both sides of the ratio.
fn rep(cases: &[Case]) -> Result<Tally, String> {
    let kinds = [DetectorKind::Vanilla, DetectorKind::Dual];
    let mut tally = Tally::default();
    let start = Instant::now();
    for case in cases {
        for (program, verdict) in case.programs.iter().zip(VERDICTS) {
            for (k, kind) in kinds.into_iter().enumerate() {
                let config = SimConfig::debugging(RANKS)
                    .with_seed(case.seed)
                    .with_detector_config(DetectorConfig::new(kind, RANKS));
                let programs = program.programs.clone();
                let t0 = Instant::now();
                let result = Engine::new(config, programs).run();
                let t1 = Instant::now();
                let wall = t1.duration_since(t0).as_nanos() as u64;
                verify(
                    &result,
                    k,
                    verdict,
                    &format!("{} seed {}", program.name, case.seed),
                )?;
                tally.wall_ns[k] += wall;
                tally.events[k] += result.trace.events.len() as u64;
                tally.msgs[k] += result.stats.total_msgs();
                tally.bytes[k] += result.stats.total_bytes();
                tally.detection_bytes[k] += result.stats.detection_bytes();
                tally.virtual_ns[k] += result.virtual_time.as_ns();
                tally.reports[k] += result.summary.total as u64;
                let since = |t: Instant| t.duration_since(start).as_nanos() as u64;
                tally.spans.push((k, since(t0), since(t1)));
            }
        }
    }
    Ok(tally)
}

pub fn measure(args: &Args, report: &mut Report) -> Result<(), String> {
    // Set-up: build the programs and run one untimed rep. Only the
    // end-to-end run reports `setup_s`, so only it repeats the set-up.
    let mut setups: Vec<f64> = Vec::new();
    let mut kept = None;
    while setups.is_empty()
        || (!args.trace && set_up_again(args, setups.len(), setups.iter().sum()))
    {
        let start = Instant::now();
        let cases = cases(args.seed, args.scale);
        let warm = rep(&cases)?;
        setups.push(start.elapsed().as_secs_f64());
        kept = Some((cases, warm));
    }
    let (cases, warm) = kept.ok_or("no set-up ran")?;
    let events = warm.events[1];
    report.count("events", events);
    report.count("vanilla_events", warm.events[0]);
    report.count("reports", warm.reports[1]);
    report.count("virtual_ns_vanilla", warm.virtual_ns[0]);
    report.count("virtual_ns_dual", warm.virtual_ns[1]);
    report.count("msgs_vanilla", warm.msgs[0]);
    report.count("msgs_dual", warm.msgs[1]);

    let pid = std::process::id();
    let mut spans = Vec::new();
    let mut rates = [Vec::new(), Vec::new()];
    let mut slowdown = Vec::new();
    let mut cpu = crate::procfs::CpuMeter::start(pid)?;
    let epoch = Instant::now();
    let mut reps = 0;
    while reps < MIN_REPS || epoch.elapsed().as_secs_f64() < args.seconds {
        reps += 1;
        let rep_start = epoch.elapsed().as_nanos() as u64;
        report.attempted += events;
        let outcome = rep(&cases);
        cpu.add(events)?;
        let tally = match outcome {
            Ok(tally) if tally.exact() == warm.exact() => tally,
            Ok(_) => {
                report.fail(events, "a rep's counts differ from the warm-up's".into());
                continue;
            }
            Err(why) => {
                report.fail(events, why);
                continue;
            }
        };
        for (k, rates) in rates.iter_mut().enumerate() {
            rates.push(tally.events[k] as f64 / (tally.wall_ns[k] as f64 * 1e-9));
        }
        slowdown.push(tally.wall_ns[1] as f64 / tally.wall_ns[0] as f64);
        if args.trace {
            let parent = spans.len();
            spans.push(Span {
                name: "rep".into(),
                start_ns: rep_start,
                end_ns: epoch.elapsed().as_nanos() as u64,
                parent: None,
                counts: vec![("events", events), ("reports", tally.reports[1])],
            });
            spans.extend(tally.spans.iter().map(|&(k, start, end)| Span {
                name: ["engine_vanilla", "engine_dual"][k].into(),
                start_ns: rep_start + start,
                end_ns: rep_start + end,
                parent: Some(parent),
                counts: Vec::new(),
            }));
        }
    }

    if args.trace {
        let per_event = |x: u64, k: usize| x as f64 / warm.events[k] as f64;
        report.set("simulator.vanilla_events_per_s", summarize(&rates[0]));
        report.set("simulator.detect_slowdown", summarize(&slowdown));
        report.set_value(
            "simulator.virtual_slowdown",
            warm.virtual_ns[1] as f64 / warm.virtual_ns[0] as f64,
        );
        report.set_value(
            "simulator.msgs_per_event_vanilla",
            per_event(warm.msgs[0], 0),
        );
        report.set_value("simulator.msgs_per_event_dual", per_event(warm.msgs[1], 1));
        report.set_value(
            "netsim.detection_bytes_share",
            warm.detection_bytes[1] as f64 / warm.bytes[1] as f64,
        );
        let dual_ns: Vec<f64> = rates[1].iter().map(|r| 1e9 / r).collect();
        report.set("top.ns_per_event", summarize(&dual_ns));
        // The engine is timed the same way with and without the span list;
        // keeping the list is the whole of the tracing here.
        report.set_value("trace.overhead_share", 0.0);
        write_trace(args, &spans)?;
    } else {
        report.set("setup_s", quiet(&setups, false));
        report.set("events_per_s", quiet(&rates[1], true));
        report.set("cpu_ns_per_event", cpu.finish()?);
        report.set_value("peak_rss_mb", crate::procfs::peak_rss_mib(pid)?);
    }
    Ok(())
}
