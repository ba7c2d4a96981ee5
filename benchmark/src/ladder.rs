//! The rungs of the ladder.
//!
//! One loop ([`rep`]) drives a stream into a [`Target`]; each rung is a
//! target that puts one more layer's public calls between the stream and
//! the detector than the rung below it:
//!
//! | rung | adds |
//! |---|---|
//! | [`Gen`] | nothing: decode the stream and discard it (harness floor) |
//! | [`Hb`] | `HbDetector::observe_sink` into a `CountingSink` |
//! | [`InSession`] | `Session` + `SummarySink` + the final `RaceSummary::to_json` |
//! | [`InSession::durable`] | journal + `Session::checkpoint` every 1024 events |
//! | [`Framed`] | `ClientFrame::encode` / `write_frame` / `read_frame` / `decode` in memory |
//! | [`Socket`] | the same bytes over a loopback `TcpStream` to a reader thread |
//! | [`Service`] | the real `ServiceClient` → `Server` |
//!
//! A layer's self time is the difference between adjacent rungs. The only
//! clocks read are one pair per 1024-event chunk (when tracing), one pair
//! per checkpoint, and one pair per acknowledgement on workloads that ping:
//! no event is timed on its own unless it is itself the acknowledged unit.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dsm_service::client::{ClientTimeouts, ServiceClient};
use dsm_service::frame::{read_frame, write_frame, ClientFrame, ServerFrame, WireEvent};
use race_core::api::{CountingSink, DetectorConfig, Session, SummarySink};
use race_core::{Detector, DetectorKind, Granularity, HbDetector, HbMode};

use crate::stream::{decode, Stream};

/// Events per trace span, and per server checkpoint (`ServeConfig`'s
/// default `checkpoint_every`).
pub const CHUNK: usize = 1024;

/// No blocking call on a socket waits longer than this; a hang becomes a
/// failed rep instead of a stuck benchmark.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// A stream plus how it is offered: `ping_every == 0` streams it through,
/// otherwise every `ping_every` events are followed by a ping whose answer
/// is awaited before the next event is sent.
pub struct Load {
    pub stream: Stream,
    pub ping_every: usize,
}

impl Load {
    pub fn events(&self) -> u64 {
        self.stream.len() as u64
    }

    pub fn config(&self) -> DetectorConfig {
        DetectorConfig::new(DetectorKind::Dual, self.stream.n)
    }
}

/// What a rung hands back when its stream ends. Fields a rung has nothing
/// to say about stay at their defaults.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    pub reports: u64,
    /// `RaceSummary::to_json` bytes (empty below the session rung).
    pub summary_json: String,
    pub clock_bytes: u64,
    pub epoch_area_share: f64,
    /// Duration of each `Session::checkpoint` call.
    pub checkpoint_ns: Vec<u64>,
    /// The last checkpoint taken (for the restore timing).
    pub last_checkpoint: Vec<u8>,
    /// Bytes put on the wire, length prefixes included.
    pub wire_bytes: u64,
    /// `write` calls issued under `write_frame`.
    pub writes: u64,
    pub reconnects: u64,
    pub shed: u64,
}

pub trait Target {
    fn event(&mut self, ev: &WireEvent) -> Result<(), String>;
    /// Wait until everything sent so far is acknowledged.
    fn ping(&mut self) -> Result<(), String> {
        Ok(())
    }
    fn finish(self) -> Result<Outcome, String>;
}

/// Timings of one pass of a stream through a target, in ns.
#[derive(Debug, Default)]
pub struct Rep {
    /// First event handed over → outcome in hand.
    pub wall_ns: u64,
    /// The `finish` part of `wall_ns`.
    pub finish_ns: u64,
    /// `(start, end)` of each 1024-event chunk, relative to the rep's start
    /// (traced reps only).
    pub chunks: Vec<(u64, u64)>,
    /// First send of a pinged chunk → its acknowledgement.
    pub acks_ns: Vec<u64>,
    /// The sending part of each `acks_ns` entry (traced reps only).
    pub sends_ns: Vec<u64>,
}

/// Drive `load` through `target` once.
pub fn rep<T: Target>(load: &Load, mut target: T, trace: bool) -> (Rep, Result<Outcome, String>) {
    let mut rep = Rep::default();
    let start = Instant::now();
    let since = |t: Instant| t.duration_since(start).as_nanos() as u64;
    let step = if load.ping_every == 0 {
        CHUNK
    } else {
        load.ping_every
    };
    let mut op_id = 0u64;
    let mut drive = || -> Result<(), String> {
        for chunk in load.stream.codes().chunks(CHUNK) {
            let chunk_start = trace.then(Instant::now);
            for batch in chunk.chunks(step) {
                let batch_start = (load.ping_every != 0).then(Instant::now);
                for &code in batch {
                    target.event(&decode(code, op_id))?;
                    op_id += 1;
                }
                if let Some(t0) = batch_start {
                    let sent = trace.then(Instant::now);
                    target.ping()?;
                    let acked = Instant::now();
                    rep.acks_ns.push(acked.duration_since(t0).as_nanos() as u64);
                    if let Some(sent) = sent {
                        rep.sends_ns.push(sent.duration_since(t0).as_nanos() as u64);
                    }
                }
            }
            if let Some(t0) = chunk_start {
                rep.chunks.push((since(t0), since(Instant::now())));
            }
        }
        Ok(())
    };
    let driven = drive();
    let finish_start = Instant::now();
    let outcome = driven.and_then(|()| target.finish());
    let end = Instant::now();
    rep.finish_ns = end.duration_since(finish_start).as_nanos() as u64;
    rep.wall_ns = since(end);
    (rep, outcome)
}

// --- gen -------------------------------------------------------------------

/// Harness floor: the stream is decoded and thrown away.
pub struct Gen;

impl Target for Gen {
    #[inline]
    fn event(&mut self, ev: &WireEvent) -> Result<(), String> {
        std::hint::black_box(ev);
        Ok(())
    }

    fn finish(self) -> Result<Outcome, String> {
        Ok(Outcome::default())
    }
}

// --- hb --------------------------------------------------------------------

/// The bare detector, reports counted and dropped.
pub struct Hb {
    detector: HbDetector,
    sink: CountingSink,
}

impl Hb {
    pub fn new(load: &Load) -> Hb {
        Hb {
            detector: HbDetector::new(load.stream.n, Granularity::WORD, HbMode::Dual),
            sink: CountingSink::default(),
        }
    }
}

impl Target for Hb {
    #[inline]
    fn event(&mut self, ev: &WireEvent) -> Result<(), String> {
        match ev {
            WireEvent::Op(op) => {
                self.detector.observe_sink(op, &[], &mut self.sink);
            }
            WireEvent::Barrier => self.detector.on_barrier(),
            WireEvent::Acquire { rank, lock } => self.detector.on_acquire(*rank, *lock),
            WireEvent::Release { rank, lock } => self.detector.on_release(*rank, *lock),
        }
        Ok(())
    }

    fn finish(self) -> Result<Outcome, String> {
        let store = self.detector.store();
        let touched = store.touched_areas();
        Ok(Outcome {
            reports: self.sink.total() as u64,
            clock_bytes: self.detector.clock_memory_bytes() as u64,
            epoch_area_share: if touched == 0 {
                0.0
            } else {
                store.epoch_areas() as f64 / touched as f64
            },
            ..Outcome::default()
        })
    }
}

// --- session / snapshot ------------------------------------------------------

/// `Session` + `SummarySink`, optionally durable the way the server's
/// session worker is: a checkpoint up front (which turns the journal on)
/// and another every [`CHUNK`] events.
pub struct InSession {
    session: Session,
    durable: bool,
    seen: usize,
    checkpoint_ns: Vec<u64>,
    last_checkpoint: Vec<u8>,
}

impl InSession {
    pub fn new(load: &Load) -> InSession {
        InSession {
            session: load.config().session_with(Box::new(SummarySink::default())),
            durable: false,
            seen: 0,
            checkpoint_ns: Vec::new(),
            last_checkpoint: Vec::new(),
        }
    }

    pub fn durable(load: &Load) -> Result<InSession, String> {
        let mut target = InSession::new(load);
        target.durable = true;
        target.session.enable_journal();
        target.checkpoint()?;
        Ok(target)
    }

    fn checkpoint(&mut self) -> Result<(), String> {
        let t0 = Instant::now();
        self.last_checkpoint = self.session.checkpoint().map_err(|e| e.to_string())?;
        self.checkpoint_ns.push(t0.elapsed().as_nanos() as u64);
        Ok(())
    }

    fn reports(&self) -> u64 {
        self.session.summary().total as u64
    }
}

impl Target for InSession {
    #[inline]
    fn event(&mut self, ev: &WireEvent) -> Result<(), String> {
        match ev {
            WireEvent::Op(op) => {
                self.session.observe(op, &[]);
            }
            WireEvent::Barrier => self.session.on_barrier(),
            WireEvent::Acquire { rank, lock } => self.session.on_acquire(*rank, *lock),
            WireEvent::Release { rank, lock } => self.session.on_release(*rank, *lock),
        }
        self.seen += 1;
        if self.durable && self.seen.is_multiple_of(CHUNK) {
            self.checkpoint()?;
        }
        Ok(())
    }

    fn finish(self) -> Result<Outcome, String> {
        let clock_bytes = self.session.clock_memory_bytes() as u64;
        let (summary, _sink) = self.session.finish();
        Ok(Outcome {
            reports: summary.total as u64,
            summary_json: summary.to_json(),
            clock_bytes,
            checkpoint_ns: self.checkpoint_ns,
            last_checkpoint: self.last_checkpoint,
            ..Outcome::default()
        })
    }
}

// --- frame -------------------------------------------------------------------

/// What the server does with one decoded client frame, minus its threads:
/// shared by the in-memory and the socket rung.
enum Reply {
    None,
    Frame(ServerFrame),
    /// The final frame; the session's outcome rides along.
    Last(ServerFrame, Box<Outcome>),
}

struct Responder {
    session: Option<InSession>,
}

impl Responder {
    fn handle(&mut self, payload: &[u8]) -> Result<Reply, String> {
        let frame = ClientFrame::decode(payload).map_err(|e| e.to_string())?;
        let session = self.session.as_mut().ok_or("frame after finish")?;
        match frame {
            ClientFrame::Event(ev) => {
                session.event(&ev)?;
                Ok(Reply::None)
            }
            ClientFrame::Ping => Ok(Reply::Frame(ServerFrame::Health {
                degraded: false,
                events: session.seen as u64,
                reports: session.reports(),
                shed: 0,
            })),
            ClientFrame::Finish => {
                let outcome = self.session.take().ok_or("double finish")?.finish()?;
                let frame = ServerFrame::Summary {
                    shed: 0,
                    json: outcome.summary_json.clone(),
                };
                Ok(Reply::Last(frame, Box::new(outcome)))
            }
            ClientFrame::Hello { .. } | ClientFrame::Resume { .. } => {
                Err("the bench responder has no handshake".into())
            }
        }
    }
}

fn expect_health(frame: ServerFrame) -> Result<(), String> {
    match frame {
        ServerFrame::Health { .. } => Ok(()),
        other => Err(format!("wanted health, got {other:?}")),
    }
}

fn expect_summary(frame: ServerFrame) -> Result<String, String> {
    match frame {
        ServerFrame::Summary { json, .. } => Ok(json),
        other => Err(format!("wanted summary, got {other:?}")),
    }
}

/// Counts what goes through `write_frame`.
struct CountingWriter<W> {
    inner: W,
    writes: u64,
    bytes: u64,
}

impl<W: Write> CountingWriter<W> {
    fn new(inner: W) -> Self {
        CountingWriter {
            inner,
            writes: 0,
            bytes: 0,
        }
    }
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.writes += 1;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// The codec with no transport: every event is encoded, framed into a
/// buffer, read back out of it and decoded before the durable session sees
/// it; pings and the finish make the same round trip in both directions.
pub struct Framed {
    responder: Responder,
    wire: CountingWriter<Vec<u8>>,
}

impl Framed {
    pub fn new(load: &Load) -> Result<Framed, String> {
        Ok(Framed {
            responder: Responder {
                session: Some(InSession::durable(load)?),
            },
            wire: CountingWriter::new(Vec::with_capacity(128)),
        })
    }

    fn round_trip(&mut self, frame: &ClientFrame) -> Result<Reply, String> {
        self.wire.inner.clear();
        write_frame(&mut self.wire, &frame.encode()).map_err(|e| e.to_string())?;
        let payload = read_frame(&mut self.wire.inner.as_slice()).map_err(|e| e.to_string())?;
        self.responder.handle(&payload)
    }

    /// Carry a server frame back through the codec.
    fn reply(frame: &ServerFrame) -> Result<ServerFrame, String> {
        let mut wire = Vec::with_capacity(64);
        write_frame(&mut wire, &frame.encode()).map_err(|e| e.to_string())?;
        let payload = read_frame(&mut wire.as_slice()).map_err(|e| e.to_string())?;
        ServerFrame::decode(&payload).map_err(|e| e.to_string())
    }
}

impl Target for Framed {
    #[inline]
    fn event(&mut self, ev: &WireEvent) -> Result<(), String> {
        self.round_trip(&ClientFrame::Event(*ev)).map(|_| ())
    }

    fn ping(&mut self) -> Result<(), String> {
        match self.round_trip(&ClientFrame::Ping)? {
            Reply::Frame(frame) => expect_health(Framed::reply(&frame)?),
            _ => Err("ping drew no health frame".into()),
        }
    }

    fn finish(mut self) -> Result<Outcome, String> {
        // Counted before the finish frame, so that per-event ratios are exact.
        let (wire_bytes, writes) = (self.wire.bytes, self.wire.writes);
        match self.round_trip(&ClientFrame::Finish)? {
            Reply::Last(frame, outcome) => Ok(Outcome {
                summary_json: expect_summary(Framed::reply(&frame)?)?,
                wire_bytes,
                writes,
                ..*outcome
            }),
            _ => Err("finish drew no summary frame".into()),
        }
    }
}

// --- socket ------------------------------------------------------------------

fn dial(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT).map_err(|e| e.to_string())?;
    configure(&stream)?;
    Ok(stream)
}

/// The socket options `ServiceClient` and `Server` set on their ends.
fn configure(stream: &TcpStream) -> Result<(), String> {
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())
}

/// The same frames over loopback TCP. The far end is one bench-built thread
/// that reads, decodes and observes in place: a real socket, but none of the
/// server's ticked reader, queue hand-off, ledger or resume bookkeeping —
/// those are what the `service` rung adds on top.
pub struct Socket {
    wire: CountingWriter<TcpStream>,
    reader: JoinHandle<Result<Outcome, String>>,
}

impl Socket {
    pub fn new(load: &Load) -> Result<Socket, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let session = InSession::durable(load)?;
        let client = dial(addr)?;
        let (mut served, _) = listener.accept().map_err(|e| e.to_string())?;
        configure(&served)?;
        let reader = std::thread::spawn(move || -> Result<Outcome, String> {
            let mut responder = Responder {
                session: Some(session),
            };
            loop {
                let payload = read_frame(&mut served).map_err(|e| e.to_string())?;
                match responder.handle(&payload)? {
                    Reply::None => {}
                    Reply::Frame(frame) => {
                        write_frame(&mut served, &frame.encode()).map_err(|e| e.to_string())?
                    }
                    Reply::Last(frame, outcome) => {
                        write_frame(&mut served, &frame.encode()).map_err(|e| e.to_string())?;
                        return Ok(*outcome);
                    }
                }
            }
        });
        Ok(Socket {
            wire: CountingWriter::new(client),
            reader,
        })
    }

    fn send(&mut self, frame: &ClientFrame) -> Result<(), String> {
        write_frame(&mut self.wire, &frame.encode()).map_err(|e| e.to_string())
    }

    fn receive(&mut self) -> Result<ServerFrame, String> {
        let payload = read_frame(&mut self.wire.inner).map_err(|e| e.to_string())?;
        ServerFrame::decode(&payload).map_err(|e| e.to_string())
    }
}

impl Target for Socket {
    #[inline]
    fn event(&mut self, ev: &WireEvent) -> Result<(), String> {
        self.send(&ClientFrame::Event(*ev))
    }

    fn ping(&mut self) -> Result<(), String> {
        self.send(&ClientFrame::Ping)?;
        expect_health(self.receive()?)
    }

    fn finish(mut self) -> Result<Outcome, String> {
        // On any failure the socket is dropped, which ends the reader's
        // blocking read; the join below cannot hang.
        let (wire_bytes, writes) = (self.wire.bytes, self.wire.writes);
        let sent = self.send(&ClientFrame::Finish);
        let summary_json = sent.and_then(|()| self.receive()).and_then(expect_summary);
        drop(self.wire);
        let outcome = self
            .reader
            .join()
            .map_err(|_| "socket reader panicked".to_string())??;
        Ok(Outcome {
            summary_json: summary_json?,
            wire_bytes,
            writes,
            ..outcome
        })
    }
}

// --- service -----------------------------------------------------------------

/// The shipped path: `ServiceClient` → `Server` in another process.
pub struct Service {
    client: ServiceClient,
    /// Runs after the last event is acknowledged and before `finish`, while
    /// the session's server threads are still alive to be sampled.
    before_finish: Option<Box<dyn FnMut()>>,
}

impl Service {
    pub fn connect(load: &Load, server: SocketAddr) -> Result<Service, String> {
        let timeouts = ClientTimeouts {
            connect: IO_TIMEOUT,
            read: IO_TIMEOUT,
        };
        let client = ServiceClient::connect_with_timeouts(server, &load.config(), timeouts)
            .map_err(|e| e.to_string())?;
        Ok(Service {
            client,
            before_finish: None,
        })
    }

    pub fn sampling(mut self, hook: Box<dyn FnMut()>) -> Service {
        self.before_finish = Some(hook);
        self
    }
}

impl Target for Service {
    #[inline]
    fn event(&mut self, ev: &WireEvent) -> Result<(), String> {
        self.client.send(ev).map_err(|e| e.to_string())
    }

    fn ping(&mut self) -> Result<(), String> {
        self.client.ping().map(|_| ()).map_err(|e| e.to_string())
    }

    fn finish(mut self) -> Result<Outcome, String> {
        if let Some(mut hook) = self.before_finish.take() {
            self.client.ping().map_err(|e| e.to_string())?;
            hook();
        }
        let reconnects = self.client.reconnects();
        let remote = self.client.finish().map_err(|e| e.to_string())?;
        if let Some(error) = remote.error {
            return Err(format!("session ended degraded: {error}"));
        }
        Ok(Outcome {
            reports: remote.summary.total as u64,
            summary_json: remote.raw_json,
            reconnects,
            shed: remote.shed,
            ..Outcome::default()
        })
    }
}
