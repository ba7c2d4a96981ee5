//! The crash-tolerant, resumable detection server.
//!
//! One long-lived process accepts framed event streams from many concurrent
//! clients; each connection gets its own bounded [`race_core::api::Session`]
//! driven by a supervised worker thread. The robustness contract, in order
//! of importance:
//!
//! 1. **The accept loop never dies.** Whatever one connection does — garbage
//!    bytes, mid-stream hangup, a panic inside its session — only that
//!    session degrades. Supervision is per-session `catch_unwind`.
//! 2. **Sessions are durable.** The worker checkpoints its session
//!    ([`Session::checkpoint`]) at start and every
//!    [`ServeConfig::checkpoint_every`] events. A worker panic is recovered
//!    *in place*: the session is rebuilt from the last checkpoint plus its
//!    event journal and the stream continues (degraded, but complete). A
//!    client that vanishes mid-stream — clean hangup or a TCP cut in the
//!    middle of a frame — **parks** its session in a registry instead of
//!    ending it: a reconnecting client presents the resume token from its
//!    `HelloAck` and picks up exactly where it left off.
//! 3. **Per-session memory is bounded.** The socket is read a burst at a
//!    time into one fixed buffer ([`TickedFrameReader`]) and the decoded
//!    events reach the worker through a queue that never has more than
//!    [`ServeConfig::queue_capacity`] of them in flight; when a client
//!    outruns its session the reader stops reading until the queue drains,
//!    so TCP back-pressure slows that client alone and nothing is lost.
//!    The completed-session ledger is bounded too
//!    ([`ServeConfig::ledger_capacity`], FIFO eviction with a counter), as
//!    are the journal (truncated at every checkpoint) and the registry of
//!    connection threads (ended ones are joined at the next accept).
//! 4. **Idle and abandoned sessions are reaped.** No frame for
//!    [`ServeConfig::idle_timeout`] ends a live session as
//!    [`SessionOutcome::Reaped`]; a parked session unresumed for
//!    [`ServeConfig::park_ttl`] is finalised as a [`SessionOutcome::Hangup`]
//!    by the reaper thread (or the shutdown sweep).
//! 5. **Shutdown drains.** [`Server::shutdown`] stops accepting, lets every
//!    live session flush, finalises every still-parked session, and returns
//!    the ledger in the [`ShutdownReport`] — no stream is silently
//!    discarded.
//!
//! Clean sessions — including resumed ones — produce summaries
//! byte-identical (via `RaceSummary::to_json`) to an in-process `Session`
//! fed the same events; the serve-smoke chaos harness pins that parity
//! through mid-frame cuts and worker kills.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use race_core::api::{CountingSink, DetectorConfig, ReportSink, Session};
use race_core::summary::RaceSummary;

use crate::frame::{
    append_frame, check_event, ClientFrame, FrameError, ServerFrame, WireError, WireEvent,
};

mod queue;
mod reader;

use queue::{burst_channel, BurstReceiver, BurstSender};
pub use reader::TickedFrameReader;

/// How often blocked reads wake up to check for shutdown and idleness, and
/// how often the park reaper scans for expired sessions.
const TICK: Duration = Duration::from_millis(25);

/// Builds the per-session report sink. The summary returned to clients is
/// the `Session`'s own bounded tee, so the sink choice changes what is
/// *retained* server-side, never what the client receives.
pub type SinkFactory = Arc<dyn Fn() -> Box<dyn ReportSink> + Send + Sync>;

/// Server tuning knobs. `Default` is production-shaped: 256-event queues,
/// 30 s idle reaping, 30 s park TTL, a checkpoint every 1024 events and a
/// 4096-record ledger.
#[derive(Clone)]
pub struct ServeConfig {
    /// Bound of the per-session event queue: events in flight between the
    /// socket reader and the session worker — queued, or in the batch the
    /// worker is applying. Zero is treated as one. A full queue stops the
    /// socket reader until the worker drains it (TCP back-pressure).
    pub queue_capacity: usize,
    /// A session with no complete frame for this long is reaped (degraded).
    pub idle_timeout: Duration,
    /// How long a parked (disconnected mid-stream) session waits for its
    /// client to resume before it is finalised as a hangup.
    pub park_ttl: Duration,
    /// The worker re-checkpoints its session every this many events; the
    /// journal (and therefore panic-recovery replay cost) is bounded by
    /// this. Zero is treated as one.
    pub checkpoint_every: u64,
    /// Bound of the completed-session ledger. The oldest record is evicted
    /// (FIFO, counted in [`ShutdownReport::evicted_records`]) when a new
    /// one would exceed it — mirroring the `DedupSink` bound. Zero is
    /// treated as one.
    pub ledger_capacity: usize,
    /// Fault-injection hook: the session worker panics when it observes
    /// this op id. Exercises the supervision + checkpoint-recovery path
    /// from tests and the chaos harness; `None` in production. The hook is
    /// one-shot per session: recovery disarms it so the replayed event is
    /// applied, exactly once.
    pub panic_on_op_id: Option<u64>,
    /// Per-session report sink. `None` uses a [`CountingSink`]: two
    /// integers, the right default for a long-lived service — the summary
    /// a client receives is the `Session`'s own (see [`SinkFactory`]), so
    /// a summarising sink would only fold every report a second time.
    pub sink_factory: Option<SinkFactory>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 256,
            idle_timeout: Duration::from_secs(30),
            park_ttl: Duration::from_secs(30),
            checkpoint_every: 1024,
            ledger_capacity: 4096,
            panic_on_op_id: None,
            sink_factory: None,
        }
    }
}

impl std::fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeConfig")
            .field("queue_capacity", &self.queue_capacity)
            .field("idle_timeout", &self.idle_timeout)
            .field("park_ttl", &self.park_ttl)
            .field("checkpoint_every", &self.checkpoint_every)
            .field("ledger_capacity", &self.ledger_capacity)
            .field("panic_on_op_id", &self.panic_on_op_id)
            .field("sink_factory", &self.sink_factory.as_ref().map(|_| "..."))
            .finish()
    }
}

/// How a session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionOutcome {
    /// The client sent `Finish` and received its summary.
    Finished,
    /// Server shutdown drained the session; the summary covers every event
    /// received before the drain.
    Drained,
    /// No frame within the idle timeout; session degraded and closed.
    Reaped,
    /// The client vanished mid-stream and never resumed: the session was
    /// parked, expired past [`ServeConfig::park_ttl`] (or was swept at
    /// shutdown), and its checkpointed summary was finalised degraded.
    Hangup,
    /// The client sent bytes the codec rejected; the typed decode error is
    /// in [`SessionRecord::error`].
    Poisoned,
    /// The session worker panicked and could not be rebuilt from its last
    /// checkpoint; the server kept running. (A rebuildable panic recovers
    /// in place and the session continues — counted in
    /// `panics_supervised`, outcome still [`SessionOutcome::Finished`].)
    Panicked,
}

impl SessionOutcome {
    /// Stable lowercase label for logs and tables.
    pub fn label(self) -> &'static str {
        match self {
            SessionOutcome::Finished => "finished",
            SessionOutcome::Drained => "drained",
            SessionOutcome::Reaped => "reaped",
            SessionOutcome::Hangup => "hangup",
            SessionOutcome::Poisoned => "poisoned",
            SessionOutcome::Panicked => "panicked",
        }
    }
}

/// The server's record of one session, pushed to the ledger when the
/// session ends (and readable after [`Server::shutdown`]).
#[derive(Debug, Clone)]
pub struct SessionRecord {
    /// Server-assigned session id (also sent to the client in `HelloAck`;
    /// preserved across resumes).
    pub session: u64,
    /// How the session ended.
    pub outcome: SessionOutcome,
    /// Whether the summary is degraded (folded into the JSON too).
    pub degraded: bool,
    /// Events applied to the session (across every connection it spanned).
    pub events: u64,
    /// Always 0: nothing is shed; goes with protocol v3 (ROADMAP item 3).
    pub shed: u64,
    /// The session's `RaceSummary` as canonical JSON — the same bytes the
    /// client received in its `Summary` frame (when one was sent).
    pub summary_json: String,
    /// The failure message for degraded outcomes.
    pub error: Option<String>,
}

/// Monotonic server counters (all relaxed atomics; read via
/// [`Server::stats`]).
#[derive(Debug, Default)]
struct ServerStats {
    accepted: AtomicU64,
    finished: AtomicU64,
    drained: AtomicU64,
    reaped: AtomicU64,
    hangups: AtomicU64,
    poisoned: AtomicU64,
    panics_supervised: AtomicU64,
    frames_rejected: AtomicU64,
    parked: AtomicU64,
    resumed: AtomicU64,
}

/// A point-in-time copy of the server counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Connections accepted.
    pub accepted: u64,
    /// Sessions that ended with a clean `Finish`.
    pub finished: u64,
    /// Sessions drained by shutdown.
    pub drained: u64,
    /// Sessions reaped for idleness.
    pub reaped: u64,
    /// Parked sessions finalised unresumed (TTL expiry or shutdown sweep).
    pub hangups: u64,
    /// Sessions poisoned by malformed frames (including rejected resume
    /// tokens).
    pub poisoned: u64,
    /// Session-worker panics caught by supervision (whether or not the
    /// session was then recovered in place).
    pub panics_supervised: u64,
    /// Frames rejected by the codec or the resume handshake.
    pub frames_rejected: u64,
    /// Always 0: nothing is shed; goes with protocol v3 (ROADMAP item 3).
    pub events_shed: u64,
    /// Sessions parked on a mid-stream disconnect (awaiting resume).
    pub parked: u64,
    /// Parked sessions successfully resumed by a reconnecting client.
    pub resumed: u64,
}

impl StatsSnapshot {
    /// Sessions that ended degraded, by any cause.
    pub fn degraded_sessions(&self) -> u64 {
        self.reaped + self.hangups + self.poisoned + self.panics_supervised
    }
}

/// Everything [`Server::shutdown`] hands back: the session ledger and the
/// final counters.
#[derive(Debug)]
pub struct ShutdownReport {
    /// The retained session records, in completion order (oldest evicted
    /// first when the ledger bound was hit).
    pub sessions: Vec<SessionRecord>,
    /// Records evicted from the bounded ledger before shutdown.
    pub evicted_records: u64,
    /// Final counter values.
    pub stats: StatsSnapshot,
}

impl ShutdownReport {
    /// The records with a given outcome.
    pub fn with_outcome(&self, outcome: SessionOutcome) -> Vec<&SessionRecord> {
        self.sessions
            .iter()
            .filter(|r| r.outcome == outcome)
            .collect()
    }
}

/// FIFO-bounded session ledger, mirroring the `DedupSink` bound: eviction
/// is silent for readers but counted.
struct BoundedLedger {
    records: VecDeque<SessionRecord>,
    capacity: usize,
    evicted: u64,
}

impl BoundedLedger {
    fn new(capacity: usize) -> Self {
        BoundedLedger {
            records: VecDeque::new(),
            capacity: capacity.max(1),
            evicted: 0,
        }
    }

    fn push(&mut self, record: SessionRecord) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.evicted += 1;
        }
        self.records.push_back(record);
    }
}

type Ledger = Arc<Mutex<BoundedLedger>>;

/// A session whose client vanished mid-stream, awaiting resume. The
/// checkpoint is the *entire* session state — detector clocks, summary,
/// sink dedup state, event count — so resume needs nothing else.
struct ParkedSession {
    session_id: u64,
    checkpoint: Vec<u8>,
    events: u64,
    parked_at: Instant,
}

/// Parked sessions keyed by resume token.
type Registry = Arc<Mutex<HashMap<u64, ParkedSession>>>;

/// The running server: an accept thread, a park-reaper thread, plus two
/// threads (socket reader, session worker) per live connection.
pub struct Server {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    reaper: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    stats: Arc<ServerStats>,
    ledger: Ledger,
    registry: Registry,
}

impl Server {
    /// Bind and start accepting. `addr` is usually `"127.0.0.1:0"` (ephemeral
    /// port; read it back with [`Server::local_addr`]).
    pub fn bind(addr: impl ToSocketAddrs, config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let stats = Arc::new(ServerStats::default());
        let ledger: Ledger = Arc::new(Mutex::new(BoundedLedger::new(config.ledger_capacity)));
        let registry: Registry = Arc::new(Mutex::new(HashMap::new()));
        let next_session = Arc::new(AtomicU64::new(1));
        let config = Arc::new(config);

        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let conns = Arc::clone(&conns);
            let stats = Arc::clone(&stats);
            let ledger = Arc::clone(&ledger);
            let registry = Arc::clone(&registry);
            let config = Arc::clone(&config);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break; // the wake-up connection (or any late arrival) is dropped
                    }
                    let stream = match stream {
                        Ok(s) => s,
                        Err(_) => continue, // transient accept failure; the loop survives
                    };
                    stats.accepted.fetch_add(1, Ordering::Relaxed);
                    let conn_id = next_session.fetch_add(1, Ordering::Relaxed);
                    let config = Arc::clone(&config);
                    let shutdown = Arc::clone(&shutdown);
                    let stats = Arc::clone(&stats);
                    let ledger = Arc::clone(&ledger);
                    let registry = Arc::clone(&registry);
                    let handle = std::thread::spawn(move || {
                        // Belt and braces: the connection body is already
                        // panic-supervised internally; this outer catch
                        // keeps even a reader-side bug from aborting via a
                        // double panic in thread teardown.
                        let _ = catch_unwind(AssertUnwindSafe(|| {
                            handle_connection(
                                stream, conn_id, &config, &shutdown, &stats, &ledger, &registry,
                            );
                        }));
                    });
                    // Track the new connection and join the ones that have
                    // ended since the last accept, so the registry holds
                    // live connections, not every connection ever made.
                    let mut conns = locked(&conns, "conn registry");
                    for ended in conns.extract_if(.., |h| h.is_finished()) {
                        let _ = ended.join(); // cannot block: the thread has exited
                    }
                    conns.push(handle);
                }
            })
        };

        // The park reaper: parked sessions whose client never came back are
        // finalised as hangups after the TTL, so abandoned state cannot
        // accumulate.
        let reaper = {
            let shutdown = Arc::clone(&shutdown);
            let stats = Arc::clone(&stats);
            let ledger = Arc::clone(&ledger);
            let registry = Arc::clone(&registry);
            let config = Arc::clone(&config);
            std::thread::spawn(move || {
                while !shutdown.load(Ordering::SeqCst) {
                    std::thread::sleep(TICK);
                    let expired: Vec<ParkedSession> = {
                        let mut reg = locked(&registry, "park registry");
                        let tokens: Vec<u64> = reg
                            .iter()
                            .filter(|(_, p)| p.parked_at.elapsed() >= config.park_ttl)
                            .map(|(t, _)| *t)
                            .collect();
                        tokens.into_iter().filter_map(|t| reg.remove(&t)).collect()
                    };
                    for parked in expired {
                        finalize_parked(parked, &stats, &ledger);
                    }
                }
            })
        };

        Ok(Server {
            local_addr,
            shutdown,
            accept: Some(accept),
            reaper: Some(reaper),
            conns,
            stats,
            ledger,
            registry,
        })
    }

    /// The bound address (connect clients here).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Current counter values.
    pub fn stats(&self) -> StatsSnapshot {
        let s = &self.stats;
        StatsSnapshot {
            accepted: s.accepted.load(Ordering::Relaxed),
            finished: s.finished.load(Ordering::Relaxed),
            drained: s.drained.load(Ordering::Relaxed),
            reaped: s.reaped.load(Ordering::Relaxed),
            hangups: s.hangups.load(Ordering::Relaxed),
            poisoned: s.poisoned.load(Ordering::Relaxed),
            panics_supervised: s.panics_supervised.load(Ordering::Relaxed),
            frames_rejected: s.frames_rejected.load(Ordering::Relaxed),
            events_shed: 0,
            parked: s.parked.load(Ordering::Relaxed),
            resumed: s.resumed.load(Ordering::Relaxed),
        }
    }

    /// Copy of the completed-session ledger so far (live and parked
    /// sessions are not in it until they end).
    pub fn sessions(&self) -> Vec<SessionRecord> {
        locked(&self.ledger, "ledger")
            .records
            .iter()
            .cloned()
            .collect()
    }

    /// Number of sessions currently parked awaiting resume.
    pub fn parked_sessions(&self) -> usize {
        locked(&self.registry, "park registry").len()
    }

    /// Graceful shutdown: stop accepting, drain every live session (each
    /// flushes and records its summary as [`SessionOutcome::Drained`]),
    /// finalise every still-parked session as a hangup, join all threads,
    /// and return the complete ledger.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *locked(&self.conns, "conn registry"));
        for h in handles {
            let _ = h.join();
        }
        if let Some(h) = self.reaper.take() {
            let _ = h.join();
        }
        // Sweep: anything still parked was never resumed — finalise it so
        // no stream vanishes from the ledger.
        let leftover: Vec<ParkedSession> = {
            let mut reg = locked(&self.registry, "park registry");
            reg.drain().map(|(_, p)| p).collect()
        };
        for parked in leftover {
            finalize_parked(parked, &self.stats, &self.ledger);
        }
        let (sessions, evicted_records) = {
            let ledger = locked(&self.ledger, "ledger");
            (ledger.records.iter().cloned().collect(), ledger.evicted)
        };
        ShutdownReport {
            sessions,
            evicted_records,
            stats: self.stats(),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Best-effort: a dropped (not shut down) server still stops its
        // accept loop so the process can exit; connection threads notice
        // the flag within one tick.
        if self.accept.is_some() {
            self.shutdown.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(self.local_addr);
            if let Some(h) = self.accept.take() {
                let _ = h.join();
            }
            if let Some(h) = self.reaper.take() {
                let _ = h.join();
            }
        }
    }
}

/// Why the reader stopped feeding the worker.
enum EndReason {
    Finish,
    Drain,
    Reap,
    /// The connection died mid-stream (clean hangup or mid-frame cut):
    /// checkpoint and park rather than end.
    Park,
    Poison(String),
}

/// Commands from the socket reader to the session worker.
enum Cmd {
    Event(WireEvent),
    Ping,
    End(EndReason),
}

/// How the worker should obtain its session.
enum SessionStart {
    /// A fresh stream: build from the client's Hello config.
    Fresh(DetectorConfig),
    /// A resumed stream: restore from a parked checkpoint.
    Resume {
        session_id: u64,
        checkpoint: Vec<u8>,
        events: u64,
    },
}

/// What the worker hands back to the reader thread.
enum WorkerExit {
    /// The session ended; record it in the ledger.
    Ended(SessionRecord),
    /// The session parked: re-register it under the connection's token.
    Parked { checkpoint: Vec<u8>, events: u64 },
}

/// The first frame of a connection, validated.
enum Handshake {
    Fresh(DetectorConfig),
    Resume { token: u64, last_acked_seq: u64 },
}

/// One connection, start to finish. Runs on the connection's reader thread;
/// spawns (and joins) the session worker.
// The reader/worker split stays on measurement: docs/SERVICE.md, "Burst hand-off".
fn handle_connection(
    stream: TcpStream,
    conn_id: u64,
    cfg: &Arc<ServeConfig>,
    shutdown: &AtomicBool,
    stats: &Arc<ServerStats>,
    ledger: &Ledger,
    registry: &Registry,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(TICK));

    let write_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return, // connection unusable before it began
    };
    let mut reader = TickedFrameReader::new(stream);

    // --- Handshake: first frame must be a well-formed Hello or Resume. ----
    let handshake = match read_handshake(&mut reader, cfg, shutdown, stats) {
        Ok(h) => h,
        Err((outcome, message)) => {
            // No session ever ran; record the degraded stub so operators
            // see hostile/broken connections in the ledger.
            reject_connection(&write_stream, conn_id, outcome, message, stats, ledger);
            return;
        }
    };

    let (session_id, token, start) = match handshake {
        Handshake::Fresh(config) => {
            let token = mint_token(conn_id);
            send_frame(
                &write_stream,
                &ServerFrame::HelloAck {
                    session: conn_id,
                    token,
                },
            );
            (conn_id, token, SessionStart::Fresh(config))
        }
        Handshake::Resume {
            token,
            last_acked_seq,
        } => {
            let parked = locked(registry, "park registry").remove(&token);
            let Some(parked) = parked else {
                stats.frames_rejected.fetch_add(1, Ordering::Relaxed);
                reject_connection(
                    &write_stream,
                    conn_id,
                    SessionOutcome::Poisoned,
                    Some("unknown or expired resume token".into()),
                    stats,
                    ledger,
                );
                return;
            };
            if last_acked_seq > parked.events {
                // The client claims more progress than this session ever
                // made: a forged or mismatched token. Put the state back so
                // the attack cannot destroy the real client's session.
                locked(registry, "park registry").insert(token, parked);
                stats.frames_rejected.fetch_add(1, Ordering::Relaxed);
                reject_connection(
                    &write_stream,
                    conn_id,
                    SessionOutcome::Poisoned,
                    Some("resume sequence ahead of session state".into()),
                    stats,
                    ledger,
                );
                return;
            }
            stats.resumed.fetch_add(1, Ordering::Relaxed);
            let start = SessionStart::Resume {
                session_id: parked.session_id,
                checkpoint: parked.checkpoint,
                events: parked.events,
            };
            (parked.session_id, token, start)
        }
    };

    // --- Session worker. --------------------------------------------------
    let capacity = cfg.queue_capacity.max(1);
    let (tx, rx) = burst_channel::<Cmd>(capacity);
    let worker = {
        let cfg = Arc::clone(cfg);
        let stats = Arc::clone(stats);
        let worker_stream = match write_stream.try_clone() {
            Ok(s) => s,
            Err(_) => write_stream, // fall back to sharing; writes are framed
        };
        std::thread::spawn(move || run_session(rx, worker_stream, start, cfg, stats))
    };

    // --- Pump bursts until the stream ends one way or another. ------------
    // What one `read` completed is decoded into `burst` — never more than
    // the queue could hold — and handed to the worker in one go, so
    // commands stay in wire order and a terminal one is queued behind every
    // event that preceded it. `fill` only reads once the buffer holds no
    // whole frame.
    let mut last_frame = Instant::now();
    let mut burst: VecDeque<Cmd> = VecDeque::new();
    loop {
        let mut end = decode_buffered(&mut reader, &mut burst, capacity, stats);
        if !burst.is_empty() {
            last_frame = Instant::now();
        }
        if end.is_none() {
            if !forward(&tx, &mut burst) {
                // Worker is gone (it died un-recoverably); record what the
                // supervisor already counted and stop reading.
                break;
            }
            end = match reader.fill() {
                Ok(()) => None,
                Err(e) if e.is_timeout() => {
                    if shutdown.load(Ordering::SeqCst) {
                        Some(EndReason::Drain)
                    } else if last_frame.elapsed() >= cfg.idle_timeout {
                        Some(EndReason::Reap)
                    } else {
                        None
                    }
                }
                // A clean hangup at a frame boundary, the TCP stream dying
                // in the middle of a frame, or a socket error: park, don't
                // end. A partial frame is discarded; every complete frame
                // before it was applied — exactly the state the resume
                // protocol restores.
                Err(WireError::Frame(
                    FrameError::ConnectionClosed | FrameError::Truncated { .. },
                ))
                | Err(WireError::Io(_)) => Some(EndReason::Park),
                Err(WireError::Frame(e)) => {
                    stats.frames_rejected.fetch_add(1, Ordering::Relaxed);
                    Some(EndReason::Poison(e.to_string()))
                }
            };
        }
        if let Some(reason) = end {
            burst.push_back(Cmd::End(reason));
            let _ = forward(&tx, &mut burst);
            break;
        }
    }

    drop(tx);
    match worker.join() {
        Ok(WorkerExit::Ended(mut record)) => {
            record.session = session_id;
            bump_outcome(stats, record.outcome);
            push_record(ledger, record);
        }
        Ok(WorkerExit::Parked { checkpoint, events }) => {
            stats.parked.fetch_add(1, Ordering::Relaxed);
            locked(registry, "park registry").insert(
                token,
                ParkedSession {
                    session_id,
                    checkpoint,
                    events,
                    parked_at: Instant::now(),
                },
            );
        }
        // worker.join() Err is unreachable: run_session catches its panics.
        Err(_) => {}
    }
}

/// Send an error, count the outcome and push a degraded stub record — the
/// path for connections that never got (or lost) a session.
fn reject_connection(
    write_stream: &TcpStream,
    session_id: u64,
    outcome: SessionOutcome,
    message: Option<String>,
    stats: &ServerStats,
    ledger: &Ledger,
) {
    let summary = RaceSummary {
        degraded: true,
        ..RaceSummary::default()
    };
    if let Some(msg) = &message {
        send_frame(
            write_stream,
            &ServerFrame::Error {
                message: msg.clone(),
            },
        );
    }
    bump_outcome(stats, outcome);
    push_record(
        ledger,
        SessionRecord {
            session: session_id,
            outcome,
            degraded: true,
            events: 0,
            shed: 0,
            summary_json: summary.to_json(),
            error: message,
        },
    );
}

/// Reads and validates the first frame (Hello or Resume). On failure, the
/// connection is charged to the returned outcome (with a message to echo to
/// the peer when one makes sense).
fn read_handshake(
    reader: &mut TickedFrameReader<TcpStream>,
    cfg: &ServeConfig,
    shutdown: &AtomicBool,
    stats: &ServerStats,
) -> Result<Handshake, (SessionOutcome, Option<String>)> {
    let started = Instant::now();
    let first = loop {
        match reader.next_buffered() {
            Ok(Some(payload)) => break ClientFrame::decode(payload),
            Ok(None) => {}
            Err(e) => break Err(e),
        }
        match reader.fill() {
            Ok(()) => {}
            Err(e) if e.is_timeout() => {
                if shutdown.load(Ordering::SeqCst) {
                    return Err((SessionOutcome::Drained, None));
                }
                if started.elapsed() >= cfg.idle_timeout {
                    return Err((
                        SessionOutcome::Reaped,
                        Some("idle timeout before hello".into()),
                    ));
                }
            }
            Err(WireError::Frame(FrameError::ConnectionClosed)) | Err(WireError::Io(_)) => {
                return Err((SessionOutcome::Hangup, None));
            }
            Err(WireError::Frame(e)) => break Err(e),
        }
    };
    let message = match first {
        Ok(ClientFrame::Hello { config_json }) => match DetectorConfig::from_json(&config_json) {
            Ok(config) => return Ok(Handshake::Fresh(config)),
            Err(e) => format!("bad detector config: {e}"),
        },
        Ok(ClientFrame::Resume {
            token,
            last_acked_seq,
        }) => {
            return Ok(Handshake::Resume {
                token,
                last_acked_seq,
            })
        }
        Ok(_) => "first frame must be hello or resume".into(),
        Err(e) => e.to_string(),
    };
    stats.frames_rejected.fetch_add(1, Ordering::Relaxed);
    Err((SessionOutcome::Poisoned, Some(message)))
}

/// Decode the frames the reader already holds into `burst`, up to `limit`
/// commands (the rest stay in the reader as bytes). Returns the reason the
/// stream ends here, if one of them ends it: a `Finish`, a frame that is
/// not valid mid-stream, or bytes the codec rejects.
fn decode_buffered(
    reader: &mut TickedFrameReader<TcpStream>,
    burst: &mut VecDeque<Cmd>,
    limit: usize,
    stats: &ServerStats,
) -> Option<EndReason> {
    let poison = loop {
        if burst.len() >= limit {
            return None;
        }
        let frame = match reader.next_buffered() {
            Ok(Some(payload)) => ClientFrame::decode(payload),
            Ok(None) => return None,
            Err(e) => Err(e),
        };
        match frame {
            Ok(ClientFrame::Event(ev)) => burst.push_back(Cmd::Event(ev)),
            Ok(ClientFrame::Ping) => burst.push_back(Cmd::Ping),
            Ok(ClientFrame::Finish) => return Some(EndReason::Finish),
            Ok(ClientFrame::Hello { .. }) => break "unexpected second hello".to_string(),
            Ok(ClientFrame::Resume { .. }) => {
                break "resume is only valid as the first frame".to_string()
            }
            Err(e) => break e.to_string(),
        }
    };
    stats.frames_rejected.fetch_add(1, Ordering::Relaxed);
    Some(EndReason::Poison(poison))
}

/// Hand a burst to the worker, waiting for room while the queue is full,
/// and leave `burst` empty. Returns false when the worker is gone.
fn forward(tx: &BurstSender<Cmd>, burst: &mut VecDeque<Cmd>) -> bool {
    while !burst.is_empty() {
        if tx.send_some(burst).is_err() {
            return false;
        }
    }
    true
}

/// Build the configured per-session sink.
fn make_sink(cfg: &ServeConfig) -> Box<dyn ReportSink> {
    match &cfg.sink_factory {
        Some(f) => f(),
        None => Box::new(CountingSink::default()),
    }
}

/// Mint an unguessable resume token. `RandomState` seeds from OS entropy
/// per instance, so tokens are unpredictable without any extra dependency.
fn mint_token(session_id: u64) -> u64 {
    use std::collections::hash_map::RandomState;
    use std::hash::{BuildHasher, Hasher};
    let mut h = RandomState::new().build_hasher();
    h.write_u64(session_id);
    h.finish() | 1 // never zero
}

/// The session worker: owns the `Session`, applies events under per-event
/// `catch_unwind` supervision with checkpoint-based recovery, and always
/// produces a verdict — a panic degrades (or at worst ends) this session,
/// never the server.
fn run_session(
    mut rx: BurstReceiver<Cmd>,
    stream: TcpStream,
    start: SessionStart,
    cfg: Arc<ServeConfig>,
    stats: Arc<ServerStats>,
) -> WorkerExit {
    let (mut session, mut events) = match start {
        SessionStart::Fresh(config) => (config.session_with(make_sink(&cfg)), 0u64),
        SessionStart::Resume {
            session_id,
            checkpoint,
            events,
        } => match Session::restore(&checkpoint, make_sink(&cfg)) {
            Ok(session) => {
                send_frame(
                    &stream,
                    &ServerFrame::ResumeAck {
                        session: session_id,
                        next_seq: events,
                    },
                );
                (session, events)
            }
            Err(e) => {
                let message = format!("resume failed: {e}");
                send_frame(
                    &stream,
                    &ServerFrame::Error {
                        message: message.clone(),
                    },
                );
                return WorkerExit::Ended(SessionRecord {
                    session: 0, // filled in by the reader thread
                    outcome: SessionOutcome::Poisoned,
                    degraded: true,
                    events,
                    shed: 0,
                    summary_json: RaceSummary {
                        degraded: true,
                        ..RaceSummary::default()
                    }
                    .to_json(),
                    error: Some(message),
                });
            }
        },
    };

    // Durability bootstrap: the initial checkpoint turns on journalling, so
    // every event from here is either in the checkpoint or in the journal.
    let mut ckpt: Option<Vec<u8>> = session.checkpoint().ok();
    let checkpoint_every = cfg.checkpoint_every.max(1);
    let mut armed = cfg.panic_on_op_id;
    let mut recovered: Option<String> = None;

    let n = session.config().n;
    let mut batch: VecDeque<Cmd> = VecDeque::new();
    let end = 'drive: loop {
        let Some(cmd) = batch.pop_front() else {
            // The batch is applied: trade it for everything queued since.
            if rx.recv_all(&mut batch).is_err() {
                break EndReason::Park; // reader died without a verdict
            }
            continue;
        };
        match cmd {
            Cmd::Event(ev) => {
                // The frame decoded, but its ranks are still the client's
                // word: the detector grows its clock storage to any rank it
                // is handed, so an event outside the session's `n` ends the
                // session here, unapplied — as does a range whose end
                // overflows the address space.
                if let Err(e) = check_event(&ev, n) {
                    stats.frames_rejected.fetch_add(1, Ordering::Relaxed);
                    break 'drive EndReason::Poison(e.to_string());
                }
                events += 1;
                let step = catch_unwind(AssertUnwindSafe(|| {
                    if let WireEvent::Op(op) = &ev {
                        #[expect(
                            clippy::panic,
                            reason = "deliberate fault injection: the serve-smoke chaos path needs a real panic for the session supervisor to observe and degrade."
                        )]
                        if armed == Some(op.op_id) {
                            panic!("injected session panic at op {}", op.op_id);
                        }
                    }
                    session.apply(&ev, &[]);
                }));
                if let Err(payload) = step {
                    // The worker just died mid-event. Rebuild the session
                    // from the last checkpoint + journal and keep going;
                    // only an unrebuildable session is terminal.
                    let msg = panic_text(payload.as_ref());
                    armed = None; // one-shot: the replay must not re-trip
                    match recover_session(ckpt.as_deref(), &session, &ev, events, &cfg) {
                        Some(rebuilt) => {
                            stats.panics_supervised.fetch_add(1, Ordering::Relaxed);
                            session = rebuilt;
                            recovered = Some(msg);
                        }
                        None => break 'drive EndReason::Poison(format!("__panic__{msg}")),
                    }
                }
                if events % checkpoint_every == 0 {
                    if let Ok(bytes) = session.checkpoint() {
                        ckpt = Some(bytes);
                    }
                }
            }
            Cmd::Ping => {
                let summary = session.summary();
                let frame = ServerFrame::Health {
                    degraded: summary.degraded || recovered.is_some(),
                    events,
                    reports: summary.total as u64,
                    shed: 0,
                };
                send_frame(&stream, &frame);
            }
            Cmd::End(reason) => break reason,
        }
    };

    let (outcome, mut summary, error) = match end {
        // Park: checkpoint the whole session and hand it back for the
        // registry. If the checkpoint fails (it should not — flush precedes
        // encode) the session degrades to a terminal hangup record.
        EndReason::Park => match session.checkpoint() {
            Ok(checkpoint) => {
                return WorkerExit::Parked { checkpoint, events };
            }
            Err(e) => finish_session(
                session,
                SessionOutcome::Hangup,
                Some(format!(
                    "client hung up mid-stream and the session could not be parked: {e}"
                )),
            ),
        },
        EndReason::Poison(msg) => {
            if let Some(panic_msg) = msg.strip_prefix("__panic__") {
                // Unrebuildable panic: the session may be mid-mutation; drop
                // it supervised so a panicking Drop cannot re-enter the
                // unwind.
                let _ = catch_unwind(AssertUnwindSafe(move || drop(session)));
                (
                    SessionOutcome::Panicked,
                    RaceSummary::default(),
                    Some(format!("session panicked: {panic_msg}")),
                )
            } else {
                finish_session(session, SessionOutcome::Poisoned, Some(msg))
            }
        }
        EndReason::Finish => finish_session(session, SessionOutcome::Finished, None),
        EndReason::Drain => finish_session(session, SessionOutcome::Drained, None),
        EndReason::Reap => finish_session(
            session,
            SessionOutcome::Reaped,
            Some("session idle past timeout".to_string()),
        ),
    };

    let degraded = summary.degraded
        || recovered.is_some()
        || !matches!(outcome, SessionOutcome::Finished | SessionOutcome::Drained);
    summary.degraded = degraded;
    let summary_json = summary.to_json();

    let error = error.or_else(|| {
        recovered
            .as_ref()
            .map(|msg| format!("session worker panicked and was recovered from checkpoint: {msg}"))
    });

    // Tell the client what happened (ignore write failures — for hangups
    // and reaps the peer may already be gone).
    if let Some(msg) = &error {
        send_frame(
            &stream,
            &ServerFrame::Error {
                message: msg.clone(),
            },
        );
    }
    if outcome != SessionOutcome::Hangup {
        send_frame(
            &stream,
            &ServerFrame::Summary {
                shed: 0,
                json: summary_json.clone(),
            },
        );
    }

    WorkerExit::Ended(SessionRecord {
        session: 0, // filled in by the reader thread from its id
        outcome,
        degraded,
        events,
        shed: 0,
        summary_json,
        error,
    })
}

/// Supervised `Session::finish`: a panic during the final flush demotes the
/// outcome to [`SessionOutcome::Panicked`] instead of killing the worker.
fn finish_session(
    session: Session,
    outcome: SessionOutcome,
    message: Option<String>,
) -> (SessionOutcome, RaceSummary, Option<String>) {
    match catch_unwind(AssertUnwindSafe(move || session.finish().0)) {
        Ok(summary) => (outcome, summary, message),
        Err(payload) => (
            SessionOutcome::Panicked,
            RaceSummary::default(),
            Some(format!(
                "session flush panicked: {}",
                panic_text(payload.as_ref())
            )),
        ),
    }
}

/// Rebuild a session that panicked mid-event from its last checkpoint plus
/// journal, applying the in-flight event exactly once. Returns `None` when
/// there is no checkpoint or the rebuild itself dies.
fn recover_session(
    ckpt: Option<&[u8]>,
    broken: &Session,
    in_flight: &WireEvent,
    expected_events: u64,
    cfg: &ServeConfig,
) -> Option<Session> {
    let ckpt = ckpt?;
    let journal = broken.journal().to_vec();
    catch_unwind(AssertUnwindSafe(|| -> Option<Session> {
        let mut session = Session::restore(ckpt, make_sink(cfg)).ok()?;
        for (event, held) in &journal {
            session.apply(event, held);
        }
        if session.events() + 1 == expected_events {
            // The panic fired before the event reached the session journal
            // (the injection hook, or a pre-apply failure): apply it now.
            session.apply(in_flight, &[]);
        }
        // Exactly-once: anything else means the journal and the event
        // counter disagree and the rebuilt state cannot be trusted.
        (session.events() == expected_events).then_some(session)
    }))
    .ok()
    .flatten()
}

/// Finalise a parked session nobody resumed: its checkpointed summary
/// enters the ledger as a degraded hangup.
fn finalize_parked(parked: ParkedSession, stats: &ServerStats, ledger: &Ledger) {
    let fallback = || {
        RaceSummary {
            degraded: true,
            ..RaceSummary::default()
        }
        .to_json()
    };
    let summary_json = match race_core::snapshot::peek_header(&parked.checkpoint) {
        Ok(header) => match RaceSummary::from_json(&header.summary_json) {
            Ok(mut summary) => {
                summary.degraded = true;
                summary.to_json()
            }
            Err(_) => fallback(),
        },
        Err(_) => fallback(),
    };
    stats.hangups.fetch_add(1, Ordering::Relaxed);
    push_record(
        ledger,
        SessionRecord {
            session: parked.session_id,
            outcome: SessionOutcome::Hangup,
            degraded: true,
            events: parked.events,
            shed: 0,
            summary_json,
            error: Some("client hung up mid-stream; parked session expired unresumed".into()),
        },
    );
}

/// One frame, one `write`: prefix and payload leave in the same segment.
fn send_frame(stream: &TcpStream, frame: &ServerFrame) {
    use std::io::Write;
    let payload = frame.encode();
    let mut wire = Vec::with_capacity(4 + payload.len());
    if append_frame(&mut wire, &payload).is_ok() {
        let mut w = stream;
        let _ = w.write_all(&wire);
    }
}

fn bump_outcome(stats: &ServerStats, outcome: SessionOutcome) {
    let counter = match outcome {
        SessionOutcome::Finished => &stats.finished,
        SessionOutcome::Drained => &stats.drained,
        SessionOutcome::Reaped => &stats.reaped,
        SessionOutcome::Hangup => &stats.hangups,
        SessionOutcome::Poisoned => &stats.poisoned,
        SessionOutcome::Panicked => &stats.panics_supervised,
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Lock one of the server's registries, failing fast if it is poisoned.
#[expect(
    clippy::panic,
    reason = "mutex poisoning = a prior panic in a holder thread; the server's design is fail-fast on poisoned state rather than serving corrupt registries."
)]
fn locked<'a, T>(m: &'a Mutex<T>, what: &str) -> MutexGuard<'a, T> {
    m.lock()
        .unwrap_or_else(|e| panic!("{what} poisoned: {e:?}"))
}

fn push_record(ledger: &Ledger, record: SessionRecord) {
    locked(ledger, "ledger").push(record);
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Outcome histogram of a ledger — convenience for logs and the stress
/// harness's one-line report.
pub fn outcome_histogram(records: &[SessionRecord]) -> BTreeMap<&'static str, usize> {
    let mut hist = BTreeMap::new();
    for r in records {
        *hist.entry(r.outcome.label()).or_insert(0) += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ServiceClient;
    use race_core::DetectorKind;

    #[test]
    fn connection_handles_are_reaped_as_sessions_end() {
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
        let config = DetectorConfig::new(DetectorKind::Dual, 2);
        let tracked = || server.conns.lock().unwrap().len();
        let mut peak = 0;
        for _ in 0..200 {
            let mut client = ServiceClient::connect(server.local_addr(), &config).unwrap();
            client.send(&WireEvent::Barrier).unwrap();
            // One live connection, plus the previous one until the accept
            // that replaced it has run.
            peak = peak.max(tracked());
            client.finish().unwrap();
            // Let the connection's thread exit, so that the next accept
            // finds it finished whatever the scheduler does.
            let exiting = || {
                let conns = server.conns.lock().unwrap();
                conns.iter().any(|h| !h.is_finished())
            };
            while exiting() {
                std::thread::yield_now();
            }
        }
        assert!(peak <= 2, "tracked {peak} handles with one live connection");
        assert_eq!(server.shutdown().stats.finished, 200);
    }
}
