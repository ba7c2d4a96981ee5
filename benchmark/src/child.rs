//! What a workload child does: set up, warm up, then measure for the time
//! it was given. The four op-stream workloads live here; `sim_debug` is in
//! [`crate::sim`].

use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

use dsm_service::frame::ClientFrame;
use race_core::api::{Session, SummarySink};

use crate::json::Value;
use crate::ladder::{self, Framed, Gen, Hb, InSession, Load, Outcome, Rep, Service, Socket, CHUNK};
use crate::procfs;
use crate::report::Report;
use crate::server::ServerProc;
use crate::spec::{Scale, Workload};
use crate::stats::{median, percentile, quiet, summarize, Summary};

/// Set-ups per run, at least; `setup_s` is taken over them. Cheap set-ups are
/// repeated (at most [`MAX_SETUPS`] times) until they have taken
/// [`SETUP_SHARE`] of the measuring time, because a 40 ms set-up timed five
/// times is mostly scheduler noise.
pub const MIN_SETUPS: usize = 5;
pub const MAX_SETUPS: usize = 25;
pub const SETUP_SHARE: f64 = 0.15;

/// Whether a run that has set up `done` times in `spent_s` sets up again.
pub fn set_up_again(args: &Args, done: usize, spent_s: f64) -> bool {
    done < MIN_SETUPS || (done < MAX_SETUPS && spent_s < SETUP_SHARE * args.seconds)
}

/// Timed reps a run makes even when one rep outlasts `--seconds`.
pub const MIN_REPS: usize = 3;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// The benchmark binary, for spawning the server child.
    pub exe: PathBuf,
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::new(args.workload, args.seed, args.trace);
    let result = match (args.workload, args.trace) {
        (Workload::SimDebug, _) => crate::sim::measure(args, &mut report),
        (_, false) => measure(args, &mut report),
        (_, true) => trace(args, &mut report),
    };
    if let Err(why) = result {
        // Set-up itself failed: nothing was measured.
        return Report::lost(args.workload, args.seed, args.trace, why);
    }
    report
}

/// One span of the trace file: a rep, or a 1024-event chunk inside one.
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Counts taken at the span's end (rep spans only).
    pub counts: Vec<(&'static str, u64)>,
}

/// Write `benchmark/out/trace_<workload>.json` under the current directory.
pub fn write_trace(args: &Args, spans: &[Span]) -> Result<(), String> {
    let spans = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let counts = s
                .counts
                .iter()
                .map(|(k, v)| (k.to_string(), Value::from(*v)));
            Value::obj([
                ("id", Value::from(id as u64)),
                ("name", Value::str(&s.name)),
                ("start_ns", Value::from(s.start_ns)),
                ("end_ns", Value::from(s.end_ns)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::from(p as u64)),
                ),
                ("counts", Value::Obj(counts.collect())),
            ])
        })
        .collect();
    let doc = Value::obj([
        ("workload", Value::str(args.workload.name())),
        ("seed", Value::from(args.seed)),
        ("spans", Value::Arr(spans)),
    ]);
    let dir = crate::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace_{}.json", args.workload.name()));
    std::fs::write(&path, doc.to_line() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// The answer every rung must reproduce: the stream through an in-process
/// `Session` + `SummarySink`.
struct Twin {
    reports: u64,
    summary_json: String,
}

fn twin(args: &Args, load: &Load) -> Result<Twin, String> {
    let (_, outcome) = ladder::rep(load, InSession::new(load), false);
    let outcome = outcome?;
    // The two stream families have known verdicts: the halo exchange is
    // race-free, the unsynchronised traffic is not.
    let racy = matches!(
        args.workload,
        Workload::InprocContended | Workload::TcpStream
    );
    if racy != (outcome.reports > 0) {
        return Err(format!(
            "{}: in-process twin reported {} race(s)",
            args.workload.name(),
            outcome.reports
        ));
    }
    Ok(Twin {
        reports: outcome.reports,
        summary_json: outcome.summary_json,
    })
}

/// `what` names the rep in failure messages.
fn check(outcome: Result<Outcome, String>, twin: &Twin, what: &str) -> Result<Outcome, String> {
    check_rung(outcome, twin, what, true)
}

/// `detects` is false for the one rung that runs no detector and so has no
/// report count to compare.
fn check_rung(
    outcome: Result<Outcome, String>,
    twin: &Twin,
    rung: &str,
    detects: bool,
) -> Result<Outcome, String> {
    let outcome = outcome.map_err(|e| format!("{rung}: {e}"))?;
    if detects && outcome.reports != twin.reports {
        return Err(format!(
            "{rung}: {} report(s), the twin has {}",
            outcome.reports, twin.reports
        ));
    }
    if !outcome.summary_json.is_empty() && outcome.summary_json != twin.summary_json {
        return Err(format!(
            "{rung}: summary differs from the in-process twin's"
        ));
    }
    if outcome.shed != 0 || outcome.reconnects != 0 {
        return Err(format!(
            "{rung}: {} event(s) shed, {} reconnect(s)",
            outcome.shed, outcome.reconnects
        ));
    }
    Ok(outcome)
}

/// The workload's top rung, untraced: what `--trace 0` measures.
fn top_rep(load: &Load, server: Option<&ServerProc>) -> (Rep, Result<Outcome, String>) {
    match server {
        None => ladder::rep(load, InSession::new(load), false),
        Some(server) => match Service::connect(load, server.addr) {
            Ok(service) => ladder::rep(load, service, false),
            Err(e) => (Rep::default(), Err(e)),
        },
    }
}

/// Generate the load, start the server if the workload has one, and make
/// the warm-up rep. Returns what the timed phase needs and how long it took.
fn set_up(args: &Args, twin: &Twin) -> Result<(Load, Option<ServerProc>, f64), String> {
    let start = Instant::now();
    let load = load(args)?;
    let server = if args.workload.is_tcp() {
        Some(ServerProc::spawn(&args.exe)?)
    } else {
        None
    };
    let (_, outcome) = top_rep(&load, server.as_ref());
    check(outcome, twin, "warm-up")?;
    Ok((load, server, start.elapsed().as_secs_f64()))
}

fn load(args: &Args) -> Result<Load, String> {
    args.workload
        .load(args.seed, args.scale)
        .ok_or_else(|| "not an op-stream workload".to_string())
}

fn stop(server: Option<ServerProc>) -> Result<Option<Value>, String> {
    server.map(ServerProc::stop).transpose()
}

/// `setup_s`: set up several times and keep the last one for measuring.
fn set_up_repeatedly(
    args: &Args,
    report: &mut Report,
) -> Result<(Load, Option<ServerProc>, Twin), String> {
    let twin = twin(args, &load(args)?)?;
    let mut times: Vec<f64> = Vec::new();
    let mut kept = None;
    while set_up_again(args, times.len(), times.iter().sum()) {
        if let Some((_, server)) = kept.take() {
            stop(server)?;
        }
        let (load, server, took) = set_up(args, &twin)?;
        times.push(took);
        kept = Some((load, server));
    }
    let (load, server) = kept.ok_or("no set-up ran")?;
    report.set("setup_s", quiet(&times, false));
    report.count("events", load.events());
    report.count("clocked_accesses", load.stream.clocked_accesses());
    report.count("reports", twin.reports);
    Ok((load, server, twin))
}

fn measure(args: &Args, report: &mut Report) -> Result<(), String> {
    let (load, server, twin) = set_up_repeatedly(args, report)?;
    let sut = server.as_ref().map_or(std::process::id(), |s| s.pid);
    let events = load.events();

    let mut rates = Vec::new();
    let mut cpu = procfs::CpuMeter::start(sut)?;
    let start = Instant::now();
    let mut reps = 0;
    while reps < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        reps += 1;
        let (rep, outcome) = top_rep(&load, server.as_ref());
        report.attempted += events;
        match check(outcome, &twin, "rep") {
            Ok(_) => rates.push(events as f64 / (rep.wall_ns as f64 * 1e-9)),
            Err(why) => report.fail(events, why),
        }
        cpu.add(events)?;
    }
    // Both read the server's /proc entry, so before it is stopped.
    report.set("cpu_ns_per_event", cpu.finish()?);
    report.set_value("peak_rss_mb", procfs::peak_rss_mib(sut)?);
    stop(server)?;
    report.set("events_per_s", quiet(&rates, true));
    Ok(())
}

// --- traced run --------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rung {
    Gen,
    Hb,
    Session,
    Snapshot,
    Frame,
    Socket,
    Service,
}

impl Rung {
    fn name(self) -> &'static str {
        match self {
            Rung::Gen => "gen",
            Rung::Hb => "hb",
            Rung::Session => "session",
            Rung::Snapshot => "snapshot",
            Rung::Frame => "frame",
            Rung::Socket => "socket",
            Rung::Service => "service",
        }
    }

    fn ladder(workload: Workload) -> &'static [Rung] {
        const ALL: [Rung; 7] = [
            Rung::Gen,
            Rung::Hb,
            Rung::Session,
            Rung::Snapshot,
            Rung::Frame,
            Rung::Socket,
            Rung::Service,
        ];
        if workload.is_tcp() {
            &ALL
        } else {
            &ALL[..3]
        }
    }
}

/// `/proc` samples of the server taken while a session's threads live.
#[derive(Default)]
struct ServerSample {
    threads: Vec<f64>,
    ctx_switches: Vec<f64>,
}

fn rung_rep(
    rung: Rung,
    load: &Load,
    server: Option<&ServerProc>,
    sample: &Rc<RefCell<ServerSample>>,
) -> (Rep, Result<Outcome, String>) {
    fn go<T: ladder::Target>(load: &Load, t: Result<T, String>) -> (Rep, Result<Outcome, String>) {
        match t {
            Ok(target) => ladder::rep(load, target, true),
            Err(e) => (Rep::default(), Err(e)),
        }
    }
    match rung {
        Rung::Gen => go(load, Ok(Gen)),
        Rung::Hb => go(load, Ok(Hb::new(load))),
        Rung::Session => go(load, Ok(InSession::new(load))),
        Rung::Snapshot => go(load, InSession::durable(load)),
        Rung::Frame => go(load, Framed::new(load)),
        Rung::Socket => go(load, Socket::new(load)),
        Rung::Service => {
            let Some(server) = server else {
                return (Rep::default(), Err("no server for the service rung".into()));
            };
            let pid = server.pid;
            let events = load.events() as f64;
            let sample = Rc::clone(sample);
            // Context switches of the session's two threads, which are born
            // with the connection: the long-lived threads' share is taken
            // out by sampling before the connection exists.
            let idle = procfs::ctx_switches(pid).unwrap_or(0);
            let service = Service::connect(load, server.addr).map(|s| {
                s.sampling(Box::new(move || {
                    let mut sample = sample.borrow_mut();
                    if let Ok(threads) = procfs::threads(pid) {
                        sample.threads.push(threads as f64);
                    }
                    if let Ok(now) = procfs::ctx_switches(pid) {
                        let per_kevent = now.saturating_sub(idle) as f64 * 1000.0 / events;
                        sample.ctx_switches.push(per_kevent);
                    }
                }))
            });
            go(load, service)
        }
    }
}

fn trace(args: &Args, report: &mut Report) -> Result<(), String> {
    let twin = twin(args, &load(args)?)?;
    let (load, server, _) = set_up(args, &twin)?;
    let events = load.events();
    let per_event = |ns: u64| ns as f64 / events as f64;
    report.count("events", events);
    report.count("clocked_accesses", load.stream.clocked_accesses());
    report.count("reports", twin.reports);

    let rungs = Rung::ladder(args.workload);
    let top = *rungs.last().ok_or("empty ladder")?;
    let sample = Rc::new(RefCell::new(ServerSample::default()));
    let mut spans: Vec<Span> = Vec::new();
    // ns per event of every rep, by rung; the last slot is the untraced top.
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); rungs.len() + 1];
    let mut last: Vec<Option<Outcome>> = vec![None; rungs.len()];
    let mut checkpoint_us = Vec::new();
    let mut finish_ms = Vec::new();
    let mut send_ns = Vec::new();
    let mut acks_ms = Vec::new();

    let epoch = Instant::now();
    let mut passes = 0;
    while passes < MIN_REPS || epoch.elapsed().as_secs_f64() < args.seconds {
        passes += 1;
        for (i, &rung) in rungs.iter().enumerate() {
            let rep_start = epoch.elapsed().as_nanos() as u64;
            let (rep, outcome) = rung_rep(rung, &load, server.as_ref(), &sample);
            report.attempted += events;
            let outcome = match check_rung(outcome, &twin, rung.name(), rung != Rung::Gen) {
                Ok(outcome) => outcome,
                Err(why) => {
                    report.fail(events, why);
                    continue;
                }
            };
            walls[i].push(per_event(rep.wall_ns));
            let parent = spans.len();
            spans.push(Span {
                name: rung.name().to_string(),
                start_ns: rep_start,
                end_ns: rep_start + rep.wall_ns,
                parent: None,
                counts: vec![
                    ("events", events),
                    ("reports", outcome.reports),
                    ("wire_bytes", outcome.wire_bytes),
                    ("writes", outcome.writes),
                    ("checkpoints", outcome.checkpoint_ns.len() as u64),
                ],
            });
            spans.extend(rep.chunks.iter().map(|&(start, end)| Span {
                name: format!("{}.chunk", rung.name()),
                start_ns: rep_start + start,
                end_ns: rep_start + end,
                parent: Some(parent),
                counts: Vec::new(),
            }));
            if rung == Rung::Snapshot {
                checkpoint_us.extend(outcome.checkpoint_ns.iter().map(|&ns| ns as f64 * 1e-3));
            }
            if rung == Rung::Service {
                finish_ms.push(rep.finish_ns as f64 * 1e-6);
                acks_ms.extend(rep.acks_ns.iter().map(|&ns| ns as f64 * 1e-6));
                if load.ping_every == 0 {
                    let sends = rep
                        .chunks
                        .iter()
                        .map(|&(s, e)| (e - s) as f64 / CHUNK as f64);
                    send_ns.extend(sends);
                } else {
                    let sends = rep
                        .sends_ns
                        .iter()
                        .map(|&ns| ns as f64 / load.ping_every as f64);
                    send_ns.extend(sends);
                }
            }
            last[i] = Some(outcome);
        }
        let (rep, outcome) = top_rep(&load, server.as_ref());
        report.attempted += events;
        match check(outcome, &twin, "untraced") {
            Ok(_) => walls[rungs.len()].push(per_event(rep.wall_ns)),
            Err(why) => report.fail(events, why),
        }
    }

    // Self time of a layer: its rung minus the rung below it.
    let med: Vec<f64> = walls.iter().map(|w| median(w)).collect();
    let delta = |rung: Rung| -> Option<Summary> {
        let i = rungs.iter().position(|&r| r == rung)?;
        let below = if i == 0 { 0.0 } else { med[i - 1] };
        let per_rep: Vec<f64> = walls[i].iter().map(|w| w - below).collect();
        Some(summarize(&per_rep))
    };
    for (name, rung) in [
        ("gen.ns_per_event", Rung::Gen),
        ("hb.ns_per_event", Rung::Hb),
        ("api.ns_per_event", Rung::Session),
        ("snapshot.ns_per_event", Rung::Snapshot),
        ("frame.ns_per_event", Rung::Frame),
        ("socket.ns_per_event", Rung::Socket),
        ("server.ns_per_event", Rung::Service),
    ] {
        if let Some(summary) = delta(rung) {
            report.set(name, summary);
        }
    }
    let top_index = rungs.len() - 1;
    report.set("top.ns_per_event", summarize(&walls[top_index]));
    let untraced = med[rungs.len()];
    if untraced > 0.0 {
        report.set_value(
            "trace.overhead_share",
            (med[top_index] - untraced) / untraced,
        );
    }

    let of = |rung: Rung| {
        rungs
            .iter()
            .position(|&r| r == rung)
            .and_then(|i| last[i].as_ref())
    };
    if let Some(hb) = of(Rung::Hb) {
        report.set_value(
            "hb.reports_per_kevent",
            hb.reports as f64 * 1000.0 / events as f64,
        );
        report.set_value("clockstore.epoch_area_share", hb.epoch_area_share);
    }
    if let Some(session) = of(Rung::Session) {
        report.set_value("clockstore.clock_bytes", session.clock_bytes as f64);
        report.set_value("summary.json_bytes", session.summary_json.len() as f64);
        report.count("clock_bytes", session.clock_bytes);
    }
    if let Some(snapshot) = of(Rung::Snapshot) {
        report.set("snapshot.checkpoint_us_p50", summarize(&checkpoint_us));
        report.set_value("snapshot.bytes", snapshot.last_checkpoint.len() as f64);
        report.set(
            "snapshot.restore_us_p50",
            time_restore(&snapshot.last_checkpoint)?,
        );
        report.count("snapshot_bytes", snapshot.last_checkpoint.len() as u64);
    }
    if let Some(frame) = of(Rung::Frame) {
        report.set_value(
            "frame.bytes_per_event",
            frame.wire_bytes as f64 / events as f64,
        );
        report.count("frame_bytes", frame.wire_bytes);
        let (encode, decode) = time_codec(&load);
        report.set("frame.encode_ns", encode);
        report.set("frame.decode_ns", decode);
    }
    if let Some(socket) = of(Rung::Socket) {
        report.set_value(
            "socket.writes_per_event",
            socket.writes as f64 / events as f64,
        );
        report.count("socket_writes", socket.writes);
    }
    if top == Rung::Service {
        report.set("client.send_ns_p50", summarize(&send_ns));
        report.set("client.finish_ms", summarize(&finish_ms));
        report.set("client.ack_ms_p50", summarize(&acks_ms));
        report.set_value("client.ack_ms_p99", percentile(&acks_ms, 0.99));
        report.set_value("client.ack_ms_p999", percentile(&acks_ms, 0.999));
        report.set_value("client.reconnects", 0.0); // `check` fails any rep that reconnected
        let sample = sample.borrow();
        report.set("server.threads", summarize(&sample.threads));
        report.set(
            "server.ctx_switches_per_kevent",
            summarize(&sample.ctx_switches),
        );
    }
    let (leq, merge, dominance) = time_kernels(load.stream.n);
    report.set("vclock.leq_ns", leq);
    report.set("vclock.merge_ns", merge);
    report.set("vclock.dominance_ns", dominance);

    if let Some(stats) = stop(server)? {
        let stat = |k: &str| stats.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        report.set_value("server.sessions_finished", stat("finished"));
        report.set_value("server.sessions_degraded", stat("degraded"));
        report.set_value("server.frames_rejected", stat("frames_rejected"));
        report.set_value("server.events_shed", stat("events_shed"));
        if stat("degraded") + stat("frames_rejected") + stat("events_shed") > 0.0 {
            report.fail(
                events,
                format!("server ledger is not clean: {}", stats.to_line()),
            );
        }
    }
    write_trace(args, &spans)
}

// --- timed calls into single layers --------------------------------------------

/// Median ns per call of `f`, from [`BATCHES`] batches of `calls` calls.
fn time_calls(calls: usize, mut f: impl FnMut(usize)) -> Summary {
    const BATCHES: usize = 31;
    let mut per_call = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        for i in 0..calls {
            f(i);
        }
        per_call.push(t0.elapsed().as_nanos() as f64 / calls as f64);
    }
    summarize(&per_call)
}

/// `vclock::kernels` at the workload's clock width, over clocks that differ
/// in every component so no early exit fires.
fn time_kernels(n: usize) -> (Summary, Summary, Summary) {
    use std::hint::black_box;
    use vclock::kernels;
    let a: Vec<u64> = (0..n as u64).map(|i| 2 * i).collect();
    let b: Vec<u64> = (0..n as u64).map(|i| 2 * i + 1).collect();
    let mut acc = a.clone();
    let leq = time_calls(4096, |_| {
        black_box(kernels::leq(black_box(&a), black_box(&b)));
    });
    let merge = time_calls(4096, |_| {
        kernels::merge(black_box(&mut acc), black_box(&b));
    });
    let dominance = time_calls(4096, |_| {
        black_box(kernels::dominance(black_box(&a), black_box(&b)));
    });
    (leq, merge, dominance)
}

/// `ClientFrame::encode` and `ClientFrame::decode` over the head of the
/// workload's own stream.
fn time_codec(load: &Load) -> (Summary, Summary) {
    use std::hint::black_box;
    let frames: Vec<ClientFrame> = load
        .stream
        .events()
        .take(4096)
        .map(ClientFrame::Event)
        .collect();
    let payloads: Vec<Vec<u8>> = frames.iter().map(ClientFrame::encode).collect();
    let encode = time_calls(frames.len(), |i| {
        black_box(frames[i].encode());
    });
    let decode = time_calls(payloads.len(), |i| {
        let _ = black_box(ClientFrame::decode(black_box(&payloads[i])));
    });
    (encode, decode)
}

/// `Session::restore` of the stream's final checkpoint.
fn time_restore(checkpoint: &[u8]) -> Result<Summary, String> {
    let mut us = Vec::new();
    for _ in 0..31 {
        let t0 = Instant::now();
        let session = Session::restore(checkpoint, Box::new(SummarySink::default()))
            .map_err(|e| format!("restore: {e}"))?;
        us.push(t0.elapsed().as_nanos() as f64 * 1e-3);
        drop(session);
    }
    Ok(summarize(&us))
}
