//! Stress harness for the detection service: hundreds of concurrent
//! clients mixing clean streams with hangups, garbage bytes, stallers, one
//! injected worker panic (recovered in place from its checkpoint) and two
//! reconnect cells — a clean mid-stream hangup and a mid-frame TCP cut,
//! both resumed via the session token. The server must survive all of it,
//! every clean, recovered or resumed session's summary must be
//! byte-identical to an in-process twin, and every misbehaving session
//! must land in the ledger with the right degraded outcome.
//!
//! Driven by `repro --serve-smoke` (CI) and the tier-1
//! `serve_stress` test.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use dsm::GlobalAddr;
use dsm_service::frame::{read_frame, write_frame, ClientFrame, ServerFrame, WireEvent};
use dsm_service::server::{outcome_histogram, ServeConfig, Server, SessionOutcome};
use dsm_service::{RetryPolicy, ServiceClient};
use race_core::api::SummarySink;
use race_core::{DetectorConfig, DetectorKind, DsmOp, OpKind, RaceSummary};

use crate::opstream;

/// Op id reserved for the panic-injection client; no generated workload
/// reaches it.
const PANIC_OP_ID: u64 = u64::MAX / 2;

/// Idle timeout for the stress server — short enough that staller clients
/// (who sleep `2 * STRESS_IDLE`) are reaped within the harness's bounded
/// runtime.
const STRESS_IDLE: Duration = Duration::from_millis(300);

/// What one simulated client does to the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClientKind {
    /// Streams a workload, finishes, checks summary parity.
    Clean,
    /// Streams half a workload, then vanishes without `Finish`.
    Hangup,
    /// Sends hostile bytes (garbage payloads or a hostile length prefix).
    Garbage,
    /// Streams a little, then goes silent past the idle timeout.
    Staller,
}

fn kind_for(index: usize) -> ClientKind {
    match index % 4 {
        0 => ClientKind::Clean,
        1 => ClientKind::Hangup,
        2 => ClientKind::Garbage,
        _ => ClientKind::Staller,
    }
}

/// The stream events of client `index` — deterministic per index/seed, so
/// the in-process twin replays exactly the same workload.
fn client_events(index: usize, seed: u64) -> Vec<WireEvent> {
    let variant = (index as u64 + seed) % 3;
    match variant {
        0 => opstream::hotspot(4, 30, 4),
        1 => opstream::stencil(4, 16, 2),
        _ => opstream::producer_consumer(2, 12),
    }
}

/// The in-process twin of a served session: the same events through a plain
/// bounded `Session`, summarised with the same canonical JSON.
pub fn in_process_summary_json(config: &DetectorConfig, events: &[WireEvent]) -> String {
    let mut session = config.session_with(Box::new(SummarySink::default()));
    for ev in events {
        session.apply(ev, &[]);
    }
    session.finish().0.to_json()
}

/// What one client thread reports back to the harness.
#[derive(Debug)]
enum ClientResult {
    /// Clean client: parity verdict (remote JSON vs twin JSON).
    Parity { matched: bool, detail: String },
    /// The misbehaviour was delivered as intended.
    Misbehaved(ClientKind),
    /// The client could not even do its job (e.g. connect failed) — a
    /// harness-level failure, not a server verdict.
    Broken(String),
}

/// Outcome of one stress run.
#[derive(Debug)]
pub struct ServeSmokeReport {
    /// Human-readable log lines (printed by `repro --serve-smoke`).
    pub lines: Vec<String>,
    /// True when every invariant held.
    pub ok: bool,
    /// Total client connections simulated (including the panic client and
    /// the final liveness probe).
    pub clients: usize,
    /// Clean sessions whose summary matched the in-process twin.
    pub parity_ok: usize,
    /// Clean sessions whose summary differed (must be 0).
    pub parity_failed: usize,
}

/// Run the stress mix against a fresh server: `clients` concurrent
/// connections (at least 8; rounded up to a multiple of 4 so every
/// misbehaviour kind appears), plus one panic-injection client and one
/// post-chaos liveness probe.
pub fn run_serve_smoke(clients: usize, seed: u64) -> ServeSmokeReport {
    let clients = clients.max(8).div_ceil(4) * 4;
    let mut lines = Vec::new();
    let mut ok = true;
    let config = DetectorConfig::new(DetectorKind::Dual, 4);

    #[expect(
        clippy::expect_used,
        reason = "stress-harness startup: failing to bind the loopback listener must abort the smoke run immediately."
    )]
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            idle_timeout: STRESS_IDLE,
            queue_capacity: 64,
            panic_on_op_id: Some(PANIC_OP_ID),
            ..ServeConfig::default()
        },
    )
    .expect("bind stress server");
    let addr = server.local_addr();

    // --- The chaos fleet. --------------------------------------------------
    let mut handles = Vec::new();
    for index in 0..clients {
        let config = config.clone();
        handles.push(std::thread::spawn(move || {
            run_client(addr, &config, index, seed)
        }));
    }
    // One panic-injection client rides along.
    {
        let config = config.clone();
        handles.push(std::thread::spawn(move || {
            run_panic_client(addr, &config, seed)
        }));
    }
    // Two reconnect cells: a clean hangup at a frame boundary, and a TCP
    // cut in the middle of a frame — both must resume byte-identical.
    {
        let config = config.clone();
        handles.push(std::thread::spawn(move || {
            run_boundary_resume_client(addr, &config, seed)
        }));
    }
    {
        let config = config.clone();
        handles.push(std::thread::spawn(move || {
            run_midframe_resume_client(addr, &config, seed)
        }));
    }

    let mut parity_ok = 0usize;
    let mut parity_failed = 0usize;
    let mut misbehaved = [0usize; 4];
    for handle in handles {
        match handle.join() {
            Ok(ClientResult::Parity { matched: true, .. }) => parity_ok += 1,
            Ok(ClientResult::Parity {
                matched: false,
                detail,
            }) => {
                parity_failed += 1;
                ok = false;
                lines.push(format!("serve-smoke: PARITY MISMATCH: {detail}"));
            }
            Ok(ClientResult::Misbehaved(kind)) => {
                misbehaved[match kind {
                    ClientKind::Clean => 0,
                    ClientKind::Hangup => 1,
                    ClientKind::Garbage => 2,
                    ClientKind::Staller => 3,
                }] += 1;
            }
            Ok(ClientResult::Broken(what)) => {
                ok = false;
                lines.push(format!("serve-smoke: client broke: {what}"));
            }
            Err(_) => {
                ok = false;
                lines.push("serve-smoke: client thread panicked".into());
            }
        }
    }

    // --- Post-chaos liveness probe: the server must still serve cleanly. --
    let probe_events = client_events(0, seed);
    match serve_one(addr, &config, &probe_events) {
        Ok(json) => {
            let twin = in_process_summary_json(&config, &probe_events);
            if json == twin {
                parity_ok += 1;
                lines.push("serve-smoke: post-chaos liveness probe passed".into());
            } else {
                ok = false;
                parity_failed += 1;
                lines.push("serve-smoke: post-chaos probe summary mismatched".into());
            }
        }
        Err(e) => {
            ok = false;
            lines.push(format!("serve-smoke: server unreachable after chaos: {e}"));
        }
    }

    // --- Ledger invariants. ------------------------------------------------
    let report = server.shutdown();
    let stats = report.stats;
    let quarter = clients / 4;
    lines.push(format!(
        "serve-smoke: {} connections, outcomes {:?}, {} frames rejected, parity {}/{}",
        stats.accepted,
        outcome_histogram(&report.sessions),
        stats.frames_rejected,
        parity_ok,
        parity_ok + parity_failed,
    ));

    let mut check = |cond: bool, what: &str| {
        if !cond {
            ok = false;
            lines.push(format!("serve-smoke: INVARIANT FAILED: {what}"));
        }
    };
    // The misbehaving clients must all have delivered their chaos (indices
    // 1=hangup, 2=garbage, 3=staller; the panic client logs under 0).
    check(
        misbehaved[1] == quarter && misbehaved[2] == quarter && misbehaved[3] == quarter,
        "every misbehaving client must have delivered its fault",
    );
    // Every connection is accounted for: the fleet + panic client + the two
    // resume cells (two connections each) + probe (+1 shutdown wake-up
    // connection that is dropped unrecorded).
    check(
        stats.accepted >= (clients + 6) as u64,
        "server must have accepted every connection",
    );
    check(
        stats.finished == (quarter + 4) as u64,
        "every clean client, the probe, the recovered panic client and both resume cells must finish",
    );
    check(
        stats.hangups == quarter as u64,
        "every unresumed hangup must be swept into a hangup record",
    );
    check(
        stats.poisoned == quarter as u64,
        "every garbage client must be recorded as poisoned",
    );
    check(
        stats.reaped == quarter as u64,
        "every staller must be reaped by the idle timeout",
    );
    check(
        stats.panics_supervised == 1,
        "the injected panic must be supervised exactly once",
    );
    check(
        stats.parked == (quarter + 2) as u64,
        "every hangup and both resume cells must have parked",
    );
    check(
        stats.resumed == 2,
        "exactly the two resume cells must have resumed",
    );
    check(parity_failed == 0, "clean summaries must be byte-identical");
    check(
        report
            .sessions
            .iter()
            .filter(|r| {
                !matches!(
                    r.outcome,
                    SessionOutcome::Finished | SessionOutcome::Drained
                )
            })
            .all(|r| r.degraded),
        "every non-clean outcome must be marked degraded",
    );
    check(
        report.with_outcome(SessionOutcome::Panicked).is_empty(),
        "the supervised panic must recover, not end its session",
    );
    check(
        report
            .sessions
            .iter()
            .filter(|r| r.outcome == SessionOutcome::Finished && r.degraded)
            .count()
            == 1,
        "exactly the recovered panic victim may finish degraded",
    );

    ServeSmokeReport {
        lines,
        ok,
        clients: clients + 4,
        parity_ok,
        parity_failed,
    }
}

/// Drive one clean session and return the remote summary's raw JSON.
fn serve_one(
    addr: std::net::SocketAddr,
    config: &DetectorConfig,
    events: &[WireEvent],
) -> Result<String, String> {
    let mut client = ServiceClient::connect(addr, config).map_err(|e| format!("connect: {e}"))?;
    for ev in events {
        client.send(ev).map_err(|e| format!("send: {e}"))?;
    }
    let remote = client.finish().map_err(|e| format!("finish: {e}"))?;
    Ok(remote.raw_json)
}

fn run_client(
    addr: std::net::SocketAddr,
    config: &DetectorConfig,
    index: usize,
    seed: u64,
) -> ClientResult {
    let kind = kind_for(index);
    let events = client_events(index, seed);
    match kind {
        ClientKind::Clean => match serve_one(addr, config, &events) {
            Ok(json) => {
                let twin = in_process_summary_json(config, &events);
                ClientResult::Parity {
                    matched: json == twin,
                    detail: format!("client {index}: remote {json} != twin {twin}"),
                }
            }
            Err(e) => ClientResult::Broken(format!("clean client {index}: {e}")),
        },
        ClientKind::Hangup => {
            let mut client = match ServiceClient::connect(addr, config) {
                Ok(c) => c,
                Err(e) => return ClientResult::Broken(format!("hangup client {index}: {e}")),
            };
            for ev in events.iter().take(events.len() / 2) {
                if client.send(ev).is_err() {
                    break;
                }
            }
            drop(client); // vanish mid-stream
            ClientResult::Misbehaved(kind)
        }
        ClientKind::Garbage => {
            let mut stream = match TcpStream::connect(addr) {
                Ok(s) => s,
                Err(e) => return ClientResult::Broken(format!("garbage client {index}: {e}")),
            };
            // Alternate hostile shapes: junk payload behind a valid prefix,
            // or a hostile oversized length prefix.
            let attack: &[u8] = if index.is_multiple_of(2) {
                &[
                    12, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 0xde, 0xad, 0xbe, 0xef, 0xff, 0xff, 0xff,
                    0xff,
                ]
            } else {
                &[0xff, 0xff, 0xff, 0x7f, 0x00]
            };
            let _ = stream.write_all(attack);
            let _ = stream.flush();
            ClientResult::Misbehaved(kind)
        }
        ClientKind::Staller => {
            let mut client = match ServiceClient::connect(addr, config) {
                Ok(c) => c,
                Err(e) => return ClientResult::Broken(format!("staller {index}: {e}")),
            };
            for ev in events.iter().take(4) {
                if client.send(ev).is_err() {
                    break;
                }
            }
            // Silence past the idle timeout: the server must reap us.
            std::thread::sleep(STRESS_IDLE * 2);
            drop(client);
            ClientResult::Misbehaved(kind)
        }
    }
}

/// A client whose stream trips the server's injected-panic hook in the
/// middle of a real workload. The worker must recover the session in place
/// from its checkpoint + journal and the final summary must match the
/// in-process twin of the *complete* stream — degraded, because a panic
/// happened, but not truncated.
fn run_panic_client(
    addr: std::net::SocketAddr,
    config: &DetectorConfig,
    seed: u64,
) -> ClientResult {
    let mut events = client_events(1, seed);
    let half = events.len() / 2;
    events.insert(
        half,
        WireEvent::Op(DsmOp {
            op_id: PANIC_OP_ID,
            actor: 0,
            kind: OpKind::LocalWrite {
                range: GlobalAddr::public(0, 0).range(8),
            },
        }),
    );

    let mut client = match ServiceClient::connect(addr, config) {
        Ok(c) => c,
        Err(e) => return ClientResult::Broken(format!("panic client: {e}")),
    };
    for ev in &events {
        if let Err(e) = client.send(ev) {
            return ClientResult::Broken(format!("panic client send: {e}"));
        }
    }
    let remote = match client.finish() {
        Ok(r) => r,
        Err(e) => return ClientResult::Broken(format!("panic client finish: {e}")),
    };
    let twin = match RaceSummary::from_json(&in_process_summary_json(config, &events)) {
        Ok(mut twin) => {
            twin.degraded = true; // the one divergence a recovered panic may cause
            twin.to_json()
        }
        Err(e) => return ClientResult::Broken(format!("panic twin: {e}")),
    };
    ClientResult::Parity {
        matched: remote.raw_json == twin && remote.error.is_some(),
        detail: format!(
            "panic client: remote {} != degraded twin {twin} (error {:?})",
            remote.raw_json, remote.error
        ),
    }
}

/// How long the resume cells wait after killing a connection before
/// reconnecting, so the server has provably parked the session.
const PARK_SETTLE: Duration = Duration::from_millis(50);

/// Reconnect cell 1: kill the TCP connection at a clean frame boundary
/// mid-stream, then let the client's auto-reconnect resume the parked
/// session. The final summary must be byte-identical to an uninterrupted
/// in-process run — parks are lossless, so not even `degraded` may differ.
fn run_boundary_resume_client(
    addr: std::net::SocketAddr,
    config: &DetectorConfig,
    seed: u64,
) -> ClientResult {
    let events = client_events(2, seed);
    let cut = events.len() / 2;
    let mut client = match ServiceClient::connect(addr, config) {
        Ok(c) => c,
        Err(e) => return ClientResult::Broken(format!("boundary-resume client: {e}")),
    };
    client.set_retry_policy(RetryPolicy {
        attempts: 8,
        base_delay: Duration::from_millis(2),
    });
    let session_id = client.session_id();
    for (i, ev) in events.iter().enumerate() {
        if i == cut {
            client.drop_connection();
            std::thread::sleep(PARK_SETTLE);
        }
        if let Err(e) = client.send(ev) {
            return ClientResult::Broken(format!("boundary-resume send {i}: {e}"));
        }
    }
    if client.reconnects() != 1 || client.session_id() != session_id {
        return ClientResult::Broken(format!(
            "boundary-resume: expected one identity-preserving reconnect, got {} (session {} -> {})",
            client.reconnects(),
            session_id,
            client.session_id()
        ));
    }
    match client.finish() {
        Ok(remote) => {
            let twin = in_process_summary_json(config, &events);
            ClientResult::Parity {
                matched: remote.raw_json == twin && !remote.summary.degraded,
                detail: format!("boundary-resume: remote {} != twin {twin}", remote.raw_json),
            }
        }
        Err(e) => ClientResult::Broken(format!("boundary-resume finish: {e}")),
    }
}

/// Reconnect cell 2: cut the TCP stream in the *middle of a frame* (length
/// prefix promising more bytes than ever arrive), then resume by hand with
/// the raw wire protocol. The half-frame must be discarded, the `ResumeAck`
/// must name exactly the applied-event count, and the finished summary must
/// be byte-identical to the uninterrupted twin.
fn run_midframe_resume_client(
    addr: std::net::SocketAddr,
    config: &DetectorConfig,
    seed: u64,
) -> ClientResult {
    let broken = |what: String| ClientResult::Broken(format!("midframe-resume: {what}"));
    let events = client_events(3, seed);
    let cut = events.len() / 2;

    // Handshake + prefix on the first connection, by hand.
    let mut stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => return broken(format!("connect: {e}")),
    };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let hello = ClientFrame::Hello {
        config_json: config.to_json(),
    };
    if let Err(e) = write_frame(&mut stream, &hello.encode()) {
        return broken(format!("hello: {e}"));
    }
    let (session_id, token) = match read_frame(&mut stream).map(|p| ServerFrame::decode(&p)) {
        Ok(Ok(ServerFrame::HelloAck { session, token })) => (session, token),
        other => return broken(format!("hello-ack: {other:?}")),
    };
    for ev in &events[..cut] {
        if let Err(e) = write_frame(&mut stream, &ClientFrame::Event(*ev).encode()) {
            return broken(format!("prefix send: {e}"));
        }
    }
    // The mid-frame cut: a length prefix promising 40 bytes, 7 bytes of
    // payload, then the connection dies.
    let _ = stream.write_all(&40u32.to_le_bytes());
    let _ = stream.write_all(&[0x02, 0, 1, 2, 3, 4, 5]);
    let _ = stream.flush();
    drop(stream);
    std::thread::sleep(PARK_SETTLE);

    // Resume on a fresh connection and stream the rest.
    let mut stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => return broken(format!("reconnect: {e}")),
    };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let resume = ClientFrame::Resume {
        token,
        last_acked_seq: 0,
    };
    if let Err(e) = write_frame(&mut stream, &resume.encode()) {
        return broken(format!("resume: {e}"));
    }
    match read_frame(&mut stream).map(|p| ServerFrame::decode(&p)) {
        Ok(Ok(ServerFrame::ResumeAck { session, next_seq })) => {
            if session != session_id || next_seq != cut as u64 {
                return broken(format!(
                    "resume-ack mismatch: session {session} (want {session_id}), \
                     next_seq {next_seq} (want {cut}) — the half-frame must not count"
                ));
            }
        }
        other => return broken(format!("resume-ack: {other:?}")),
    }
    for ev in &events[cut..] {
        if let Err(e) = write_frame(&mut stream, &ClientFrame::Event(*ev).encode()) {
            return broken(format!("tail send: {e}"));
        }
    }
    if let Err(e) = write_frame(&mut stream, &ClientFrame::Finish.encode()) {
        return broken(format!("finish: {e}"));
    }
    let json = loop {
        match read_frame(&mut stream).map(|p| ServerFrame::decode(&p)) {
            Ok(Ok(ServerFrame::Summary { json, .. })) => break json,
            Ok(Ok(ServerFrame::Health { .. } | ServerFrame::Error { .. })) => continue,
            other => return broken(format!("summary: {other:?}")),
        }
    };
    let twin = in_process_summary_json(config, &events);
    ClientResult::Parity {
        matched: json == twin,
        detail: format!("midframe-resume: remote {json} != twin {twin}"),
    }
}
