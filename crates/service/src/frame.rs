//! Length-prefixed wire codec for the detection service.
//!
//! Every frame on the wire is `u32` little-endian payload length followed by
//! the payload; the first payload byte is a tag selecting the message. The
//! decoder is the trust boundary of the service: it must accept bytes from
//! arbitrary (possibly hostile or corrupt) clients and *never panic* —
//! malformed, oversized, truncated or unknown input comes back as a typed
//! [`FrameError`] that the server folds into that session's degraded state.
//!
//! Decoding is strict: trailing bytes after a well-formed message, unknown
//! tags, out-of-range discriminants and non-UTF-8 text are all errors. Strict
//! decoding is what makes the corrupted-bytes property test meaningful — a
//! lax decoder would silently "accept" flipped bits as different-but-valid
//! events.

#![deny(clippy::indexing_slicing)]

use std::io::{Read, Write};

use dsm::addr::{GlobalAddr, MemRange, Segment};
use race_core::event::{DsmOp, LockId, OpKind};
use race_core::Rank;

/// Hard cap on one frame's payload, in bytes. Large enough for any event or
/// summary the system produces, small enough that a hostile length prefix
/// cannot make the server allocate unbounded memory.
pub const MAX_FRAME: usize = 64 * 1024;

/// Wire protocol version carried in [`ClientFrame::Hello`] and
/// [`ClientFrame::Resume`]. Bumped on any incompatible codec change.
/// Version 2 added the resume handshake (`Resume`/`ResumeAck`) and the
/// resume token in `HelloAck`.
pub const PROTOCOL_VERSION: u8 = 2;

/// Typed decode failure. Every way untrusted bytes can be wrong maps to one
/// of these variants; the decoder has no panicking path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The peer closed the connection cleanly at a frame boundary.
    ConnectionClosed,
    /// The stream ended (or the buffer ran out) in the middle of a frame or
    /// field. `what` names the field being read when bytes ran out.
    Truncated {
        /// Field or region that was being decoded.
        what: &'static str,
    },
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized {
        /// The advertised payload length.
        len: usize,
    },
    /// A zero-length payload (every message needs at least a tag byte).
    Empty,
    /// The tag byte does not name any message this side understands.
    UnknownTag {
        /// The offending tag.
        tag: u8,
    },
    /// A discriminant or field value is out of range.
    Malformed {
        /// What was malformed.
        what: &'static str,
    },
    /// A text field was not valid UTF-8.
    BadUtf8 {
        /// Which field.
        what: &'static str,
    },
    /// The peer speaks a different protocol version.
    Version {
        /// The version the peer announced.
        got: u8,
    },
    /// A well-formed event names a process the session does not have (see
    /// [`check_event`]).
    RankOutOfRange {
        /// Which rank of the event.
        what: &'static str,
        /// The offending rank.
        rank: Rank,
        /// The session's process count.
        n: usize,
    },
    /// A well-formed event names a range that runs past the end of the
    /// address space (see [`check_event`]).
    RangeOverflow {
        /// Which range of the event.
        what: &'static str,
        /// The range's first byte.
        offset: usize,
        /// Its length.
        len: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::ConnectionClosed => write!(f, "connection closed"),
            FrameError::Truncated { what } => write!(f, "truncated frame while reading {what}"),
            FrameError::Oversized { len } => {
                write!(f, "oversized frame: {len} bytes exceeds cap of {MAX_FRAME}")
            }
            FrameError::Empty => write!(f, "empty frame (missing tag byte)"),
            FrameError::UnknownTag { tag } => write!(f, "unknown frame tag {tag:#04x}"),
            FrameError::Malformed { what } => write!(f, "malformed frame: {what}"),
            FrameError::BadUtf8 { what } => write!(f, "invalid utf-8 in {what}"),
            FrameError::Version { got } => {
                write!(f, "protocol version {got} (expected {PROTOCOL_VERSION})")
            }
            FrameError::RankOutOfRange { what, rank, n } => {
                write!(f, "event {what} rank {rank} out of range for {n} processes")
            }
            FrameError::RangeOverflow { what, offset, len } => write!(
                f,
                "event {what} range of {len} bytes at offset {offset} overflows the address space"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// Transport-level failure: either the bytes were wrong ([`FrameError`]) or
/// the socket itself failed.
#[derive(Debug)]
pub enum WireError {
    /// The bytes on the wire were not a valid frame.
    Frame(FrameError),
    /// The underlying stream failed (includes read timeouts, which the
    /// server uses as its idle/shutdown tick).
    Io(std::io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Frame(e) => write!(f, "{e}"),
            WireError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<FrameError> for WireError {
    fn from(e: FrameError) -> Self {
        WireError::Frame(e)
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl WireError {
    /// True when the error is a read timeout — the server's liveness tick,
    /// not a protocol violation.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            WireError::Io(e) if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            )
        )
    }
}

/// One event in a client's stream: the detection-stream event
/// [`race_core::Event`] itself, so a remote stream and an in-process replay
/// of the same events ([`race_core::Session::apply`]) produce
/// byte-identical summaries.
pub use race_core::Event as WireEvent;

/// Check a decoded event against the session before it is applied.
///
/// Every rank the event names — actor, the owner of each range, lock
/// holder and lock home — must be below the session's process count `n`:
/// the detector sizes its clock storage by the ranks it is handed, so an
/// event that decodes fine but names rank 2³²−1 must be refused, not
/// trusted ([`FrameError::RankOutOfRange`]). Then every range must end
/// inside the address space: the wire carries a 64-bit offset and a 32-bit
/// length, so their sum is the client's to overflow, and range arithmetic
/// downstream (`MemRange::end`) assumes it ([`FrameError::RangeOverflow`]).
/// Rank errors are reported before range errors.
pub fn check_event(ev: &WireEvent, n: usize) -> Result<(), FrameError> {
    let check_rank = |what, rank: Rank| {
        if rank < n {
            Ok(())
        } else {
            Err(FrameError::RankOutOfRange { what, rank, n })
        }
    };
    let (actor, lock_home, ranges) = match *ev {
        WireEvent::Op(op) => {
            let ranges = match op.kind {
                OpKind::Put { src, dst } | OpKind::Get { src, dst } => {
                    [Some(("source", src)), Some(("destination", dst))]
                }
                OpKind::LocalRead { range }
                | OpKind::LocalWrite { range }
                | OpKind::AtomicRmw { range } => [Some(("target", range)), None],
            };
            (Some(op.actor), None, ranges)
        }
        WireEvent::Barrier => (None, None, [None, None]),
        WireEvent::Acquire { rank, lock } | WireEvent::Release { rank, lock } => {
            (Some(rank), Some(lock.0), [None, None])
        }
    };
    if let Some(actor) = actor {
        check_rank("actor", actor)?;
    }
    for &(what, range) in ranges.iter().flatten() {
        check_rank(what, range.addr.rank)?;
    }
    if let Some(home) = lock_home {
        check_rank("lock", home)?;
    }
    for (what, range) in ranges.into_iter().flatten() {
        if range.addr.offset.checked_add(range.len).is_none() {
            return Err(FrameError::RangeOverflow {
                what,
                offset: range.addr.offset,
                len: range.len,
            });
        }
    }
    Ok(())
}

/// Frames a client may send.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientFrame {
    /// First frame on a connection: protocol version + the detector
    /// configuration as canonical JSON (`DetectorConfig::to_json`).
    Hello {
        /// JSON-encoded `DetectorConfig`.
        config_json: String,
    },
    /// One stream event.
    Event(WireEvent),
    /// End of stream: flush and return the summary.
    Finish,
    /// Liveness probe: the server answers with [`ServerFrame::Health`].
    Ping,
    /// First frame on a *reconnecting* connection: resume the parked
    /// session identified by the server-minted `token` (from
    /// [`ServerFrame::HelloAck`]). `last_acked_seq` is the highest event
    /// sequence number the client knows the server applied; the server
    /// answers [`ServerFrame::ResumeAck`] naming the sequence it expects
    /// next, and the client re-sends from there.
    Resume {
        /// Opaque resume token minted by the server at hello time.
        token: u64,
        /// Highest event sequence the client saw acknowledged.
        last_acked_seq: u64,
    },
}

/// Frames the server may send.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerFrame {
    /// Answer to `Hello`: the server-assigned session id plus the resume
    /// token a disconnected client presents in [`ClientFrame::Resume`].
    HelloAck {
        /// Session id, unique per server instance.
        session: u64,
        /// Server-minted resume token (opaque to the client).
        token: u64,
    },
    /// Answer to `Resume`: the parked session was restored.
    ResumeAck {
        /// The original session id, preserved across the reconnect.
        session: u64,
        /// The event sequence the server expects next (= events applied so
        /// far); the client replays its send buffer from here.
        next_seq: u64,
    },
    /// Answer to `Ping`: the session's liveness line.
    Health {
        /// True when the session's summary is degraded or the session was
        /// recovered from a panic.
        degraded: bool,
        /// Events applied so far.
        events: u64,
        /// Races reported so far.
        reports: u64,
        /// Always 0: nothing is shed; goes with protocol v3 (ROADMAP
        /// item 3).
        shed: u64,
    },
    /// Final frame of a session: the race summary as canonical JSON
    /// (`RaceSummary::to_json`) plus the shed-event count (always 0).
    Summary {
        /// Always 0: nothing is shed; goes with protocol v3 (ROADMAP
        /// item 3).
        shed: u64,
        /// JSON-encoded `RaceSummary`.
        json: String,
    },
    /// A typed failure the server wants the client to see (bad hello,
    /// malformed frame, supervised panic, idle reap). The session is
    /// degraded but the server stays up.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

// Tag bytes. Client tags are < 0x80, server tags >= 0x80, so a frame can
// never be mistaken for one travelling the other direction.
const TAG_HELLO: u8 = 0x01;
const TAG_EVENT: u8 = 0x02;
const TAG_FINISH: u8 = 0x03;
const TAG_PING: u8 = 0x04;
const TAG_RESUME: u8 = 0x05;
const TAG_HELLO_ACK: u8 = 0x81;
const TAG_HEALTH: u8 = 0x82;
const TAG_SUMMARY: u8 = 0x83;
const TAG_ERROR: u8 = 0x84;
const TAG_RESUME_ACK: u8 = 0x85;

// Event sub-tags.
const EV_OP: u8 = 0;
const EV_BARRIER: u8 = 1;
const EV_ACQUIRE: u8 = 2;
const EV_RELEASE: u8 = 3;

// OpKind sub-tags.
const OP_PUT: u8 = 0;
const OP_GET: u8 = 1;
const OP_LOCAL_READ: u8 = 2;
const OP_LOCAL_WRITE: u8 = 3;
const OP_ATOMIC: u8 = 4;

/// Write one frame (length prefix + payload). Fails with `InvalidInput`
/// rather than sending a frame the peer is guaranteed to reject.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    if payload.is_empty() || payload.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("refusing to send invalid frame of {} bytes", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Append one frame (length prefix + payload) to `buf`, so the caller can
/// put one frame — or a whole run of them — on the wire with a single
/// `write_all`. Refuses the same sizes [`write_frame`] refuses, leaving
/// `buf` untouched.
pub fn append_frame(buf: &mut Vec<u8>, payload: &[u8]) -> std::io::Result<()> {
    if payload.is_empty() || payload.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("refusing to send invalid frame of {} bytes", payload.len()),
        ));
    }
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    Ok(())
}

/// Read one frame's payload. Distinguishes a clean close at a frame boundary
/// ([`FrameError::ConnectionClosed`]) from a mid-frame hangup
/// ([`FrameError::Truncated`]); length-prefix violations surface before any
/// payload allocation.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, WireError> {
    let mut len_buf = [0u8; 4];
    read_exact_or(r, &mut len_buf, "length prefix", true)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 {
        return Err(FrameError::Empty.into());
    }
    if len > MAX_FRAME {
        return Err(FrameError::Oversized { len }.into());
    }
    let mut payload = vec![0u8; len];
    read_exact_or(r, &mut payload, "payload", false)?;
    Ok(payload)
}

/// `read_exact` that reports a clean EOF before the first byte as
/// `ConnectionClosed` (when `at_boundary`) and any other short read as
/// `Truncated`. Timeouts pass through as `WireError::Io`.
fn read_exact_or(
    r: &mut impl Read,
    buf: &mut [u8],
    what: &'static str,
    at_boundary: bool,
) -> Result<(), WireError> {
    let mut filled = 0;
    while let Some(dst) = buf.get_mut(filled..).filter(|d| !d.is_empty()) {
        match r.read(dst) {
            Ok(0) => {
                return if at_boundary && filled == 0 {
                    Err(FrameError::ConnectionClosed.into())
                } else {
                    Err(FrameError::Truncated { what }.into())
                };
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_range(buf: &mut Vec<u8>, r: &MemRange) {
    put_u32(buf, r.addr.rank as u32);
    buf.push(match r.addr.segment {
        Segment::Private => 0,
        Segment::Public => 1,
    });
    put_u64(buf, r.addr.offset as u64);
    put_u32(buf, r.len as u32);
}

fn put_lock(buf: &mut Vec<u8>, lock: &LockId) {
    put_u32(buf, lock.0 as u32);
    put_u64(buf, lock.1 as u64);
}

fn put_event(buf: &mut Vec<u8>, ev: &WireEvent) {
    match ev {
        WireEvent::Op(op) => {
            buf.push(EV_OP);
            put_u64(buf, op.op_id);
            put_u32(buf, op.actor as u32);
            match &op.kind {
                OpKind::Put { src, dst } => {
                    buf.push(OP_PUT);
                    put_range(buf, src);
                    put_range(buf, dst);
                }
                OpKind::Get { src, dst } => {
                    buf.push(OP_GET);
                    put_range(buf, src);
                    put_range(buf, dst);
                }
                OpKind::LocalRead { range } => {
                    buf.push(OP_LOCAL_READ);
                    put_range(buf, range);
                }
                OpKind::LocalWrite { range } => {
                    buf.push(OP_LOCAL_WRITE);
                    put_range(buf, range);
                }
                OpKind::AtomicRmw { range } => {
                    buf.push(OP_ATOMIC);
                    put_range(buf, range);
                }
            }
        }
        WireEvent::Barrier => buf.push(EV_BARRIER),
        WireEvent::Acquire { rank, lock } => {
            buf.push(EV_ACQUIRE);
            put_u32(buf, *rank as u32);
            put_lock(buf, lock);
        }
        WireEvent::Release { rank, lock } => {
            buf.push(EV_RELEASE);
            put_u32(buf, *rank as u32);
            put_lock(buf, lock);
        }
    }
}

impl ClientFrame {
    /// Serialise to a frame payload (tag byte + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        match self {
            ClientFrame::Hello { config_json } => {
                buf.push(TAG_HELLO);
                buf.push(PROTOCOL_VERSION);
                buf.extend_from_slice(config_json.as_bytes());
            }
            ClientFrame::Event(ev) => {
                buf.push(TAG_EVENT);
                put_event(&mut buf, ev);
            }
            ClientFrame::Finish => buf.push(TAG_FINISH),
            ClientFrame::Ping => buf.push(TAG_PING),
            ClientFrame::Resume {
                token,
                last_acked_seq,
            } => {
                buf.push(TAG_RESUME);
                buf.push(PROTOCOL_VERSION);
                put_u64(&mut buf, *token);
                put_u64(&mut buf, *last_acked_seq);
            }
        }
        buf
    }
}

impl ServerFrame {
    /// Serialise to a frame payload (tag byte + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        match self {
            ServerFrame::HelloAck { session, token } => {
                buf.push(TAG_HELLO_ACK);
                put_u64(&mut buf, *session);
                put_u64(&mut buf, *token);
            }
            ServerFrame::ResumeAck { session, next_seq } => {
                buf.push(TAG_RESUME_ACK);
                put_u64(&mut buf, *session);
                put_u64(&mut buf, *next_seq);
            }
            ServerFrame::Health {
                degraded,
                events,
                reports,
                shed,
            } => {
                buf.push(TAG_HEALTH);
                buf.push(u8::from(*degraded));
                put_u64(&mut buf, *events);
                put_u64(&mut buf, *reports);
                put_u64(&mut buf, *shed);
            }
            ServerFrame::Summary { shed, json } => {
                buf.push(TAG_SUMMARY);
                put_u64(&mut buf, *shed);
                buf.extend_from_slice(json.as_bytes());
            }
            ServerFrame::Error { message } => {
                buf.push(TAG_ERROR);
                buf.extend_from_slice(message.as_bytes());
            }
        }
        buf
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Cursor over untrusted payload bytes. Every `take_*` returns `Truncated`
/// instead of indexing out of bounds.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], FrameError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(FrameError::Truncated { what })?;
        let out = self
            .buf
            .get(self.pos..end)
            .ok_or(FrameError::Truncated { what })?;
        self.pos = end;
        Ok(out)
    }

    fn take_u8(&mut self, what: &'static str) -> Result<u8, FrameError> {
        self.take(1, what)?
            .first()
            .copied()
            .ok_or(FrameError::Truncated { what })
    }

    fn take_u32(&mut self, what: &'static str) -> Result<u32, FrameError> {
        let b: [u8; 4] = self
            .take(4, what)?
            .try_into()
            .map_err(|_| FrameError::Truncated { what })?;
        Ok(u32::from_le_bytes(b))
    }

    fn take_u64(&mut self, what: &'static str) -> Result<u64, FrameError> {
        let b: [u8; 8] = self
            .take(8, what)?
            .try_into()
            .map_err(|_| FrameError::Truncated { what })?;
        Ok(u64::from_le_bytes(b))
    }

    fn rest_utf8(&mut self, what: &'static str) -> Result<String, FrameError> {
        let bytes = self.buf.get(self.pos..).unwrap_or(&[]);
        self.pos = self.buf.len();
        String::from_utf8(bytes.to_vec()).map_err(|_| FrameError::BadUtf8 { what })
    }

    /// Strict decoders call this last: leftover bytes mean the frame was
    /// not what it claimed to be.
    fn finish(&self) -> Result<(), FrameError> {
        if self.pos != self.buf.len() {
            return Err(FrameError::Malformed {
                what: "trailing bytes after message",
            });
        }
        Ok(())
    }
}

fn take_usize64(c: &mut Cursor<'_>, what: &'static str) -> Result<usize, FrameError> {
    usize::try_from(c.take_u64(what)?).map_err(|_| FrameError::Malformed { what })
}

fn take_range(c: &mut Cursor<'_>) -> Result<MemRange, FrameError> {
    let rank = c.take_u32("range rank")? as usize;
    let segment = match c.take_u8("range segment")? {
        0 => Segment::Private,
        1 => Segment::Public,
        _ => return Err(FrameError::Malformed { what: "segment" }),
    };
    let offset = take_usize64(c, "range offset")?;
    let len = c.take_u32("range len")? as usize;
    Ok(MemRange {
        addr: GlobalAddr {
            rank,
            segment,
            offset,
        },
        len,
    })
}

fn take_lock(c: &mut Cursor<'_>) -> Result<LockId, FrameError> {
    let rank = c.take_u32("lock rank")? as usize;
    let offset = take_usize64(c, "lock offset")?;
    Ok((rank, offset))
}

fn take_event(c: &mut Cursor<'_>) -> Result<WireEvent, FrameError> {
    match c.take_u8("event tag")? {
        EV_OP => {
            let op_id = c.take_u64("op id")?;
            let actor = c.take_u32("op actor")? as usize;
            let kind = match c.take_u8("op kind")? {
                OP_PUT => OpKind::Put {
                    src: take_range(c)?,
                    dst: take_range(c)?,
                },
                OP_GET => OpKind::Get {
                    src: take_range(c)?,
                    dst: take_range(c)?,
                },
                OP_LOCAL_READ => OpKind::LocalRead {
                    range: take_range(c)?,
                },
                OP_LOCAL_WRITE => OpKind::LocalWrite {
                    range: take_range(c)?,
                },
                OP_ATOMIC => OpKind::AtomicRmw {
                    range: take_range(c)?,
                },
                _ => return Err(FrameError::Malformed { what: "op kind" }),
            };
            Ok(WireEvent::Op(DsmOp { op_id, actor, kind }))
        }
        EV_BARRIER => Ok(WireEvent::Barrier),
        EV_ACQUIRE => Ok(WireEvent::Acquire {
            rank: c.take_u32("acquire rank")? as usize,
            lock: take_lock(c)?,
        }),
        EV_RELEASE => Ok(WireEvent::Release {
            rank: c.take_u32("release rank")? as usize,
            lock: take_lock(c)?,
        }),
        _ => Err(FrameError::Malformed { what: "event tag" }),
    }
}

impl ClientFrame {
    /// Decode a payload the server received. Never panics on any input.
    pub fn decode(payload: &[u8]) -> Result<Self, FrameError> {
        let mut c = Cursor::new(payload);
        let frame = match c.take_u8("frame tag") {
            Err(_) => return Err(FrameError::Empty),
            Ok(TAG_HELLO) => {
                let version = c.take_u8("hello version")?;
                if version != PROTOCOL_VERSION {
                    return Err(FrameError::Version { got: version });
                }
                ClientFrame::Hello {
                    config_json: c.rest_utf8("hello config")?,
                }
            }
            Ok(TAG_EVENT) => ClientFrame::Event(take_event(&mut c)?),
            Ok(TAG_FINISH) => ClientFrame::Finish,
            Ok(TAG_PING) => ClientFrame::Ping,
            Ok(TAG_RESUME) => {
                let version = c.take_u8("resume version")?;
                if version != PROTOCOL_VERSION {
                    return Err(FrameError::Version { got: version });
                }
                ClientFrame::Resume {
                    token: c.take_u64("resume token")?,
                    last_acked_seq: c.take_u64("resume acked seq")?,
                }
            }
            Ok(tag) => return Err(FrameError::UnknownTag { tag }),
        };
        c.finish()?;
        Ok(frame)
    }
}

impl ServerFrame {
    /// Decode a payload the client received. Never panics on any input.
    pub fn decode(payload: &[u8]) -> Result<Self, FrameError> {
        let mut c = Cursor::new(payload);
        let frame = match c.take_u8("frame tag") {
            Err(_) => return Err(FrameError::Empty),
            Ok(TAG_HELLO_ACK) => ServerFrame::HelloAck {
                session: c.take_u64("session id")?,
                token: c.take_u64("resume token")?,
            },
            Ok(TAG_RESUME_ACK) => ServerFrame::ResumeAck {
                session: c.take_u64("session id")?,
                next_seq: c.take_u64("next seq")?,
            },
            Ok(TAG_HEALTH) => {
                let degraded = match c.take_u8("health degraded")? {
                    0 => false,
                    1 => true,
                    _ => {
                        return Err(FrameError::Malformed {
                            what: "health degraded flag",
                        })
                    }
                };
                ServerFrame::Health {
                    degraded,
                    events: c.take_u64("health events")?,
                    reports: c.take_u64("health reports")?,
                    shed: c.take_u64("health shed")?,
                }
            }
            Ok(TAG_SUMMARY) => ServerFrame::Summary {
                shed: c.take_u64("summary shed")?,
                json: c.rest_utf8("summary json")?,
            },
            Ok(TAG_ERROR) => ServerFrame::Error {
                message: c.rest_utf8("error message")?,
            },
            Ok(tag) => return Err(FrameError::UnknownTag { tag }),
        };
        c.finish()?;
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<WireEvent> {
        let src = GlobalAddr::private(0, 16).range(8);
        let dst = GlobalAddr::public(1, 32).range(8);
        vec![
            WireEvent::Op(DsmOp {
                op_id: 1,
                actor: 0,
                kind: OpKind::Put { src, dst },
            }),
            WireEvent::Op(DsmOp {
                op_id: 2,
                actor: 1,
                kind: OpKind::Get { src: dst, dst: src },
            }),
            WireEvent::Op(DsmOp {
                op_id: 3,
                actor: 2,
                kind: OpKind::LocalRead {
                    range: dst.addr.range(4),
                },
            }),
            WireEvent::Op(DsmOp {
                op_id: 4,
                actor: 2,
                kind: OpKind::LocalWrite {
                    range: dst.addr.range(4),
                },
            }),
            WireEvent::Op(DsmOp {
                op_id: 5,
                actor: 3,
                kind: OpKind::AtomicRmw {
                    range: dst.addr.range(8),
                },
            }),
            WireEvent::Barrier,
            WireEvent::Acquire {
                rank: 1,
                lock: (1, 64),
            },
            WireEvent::Release {
                rank: 1,
                lock: (1, 64),
            },
        ]
    }

    #[test]
    fn client_frames_round_trip() {
        let mut frames = vec![
            ClientFrame::Hello {
                config_json: "{\"kind\":\"dual\"}".into(),
            },
            ClientFrame::Finish,
            ClientFrame::Ping,
            ClientFrame::Resume {
                token: 0xDEAD_BEEF_F00D,
                last_acked_seq: 977,
            },
        ];
        frames.extend(sample_events().into_iter().map(ClientFrame::Event));
        for frame in frames {
            let decoded = ClientFrame::decode(&frame.encode()).expect("round trip");
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn server_frames_round_trip() {
        let frames = vec![
            ServerFrame::HelloAck {
                session: 42,
                token: 0x5EED,
            },
            ServerFrame::ResumeAck {
                session: 42,
                next_seq: 1234,
            },
            ServerFrame::Health {
                degraded: true,
                events: 10,
                reports: 2,
                shed: 1,
            },
            ServerFrame::Summary {
                shed: 3,
                json: "{\"total\":0}".into(),
            },
            ServerFrame::Error {
                message: "broken".into(),
            },
        ];
        for frame in frames {
            let decoded = ServerFrame::decode(&frame.encode()).expect("round trip");
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn decode_rejects_empty_unknown_and_truncated() {
        assert_eq!(ClientFrame::decode(&[]), Err(FrameError::Empty));
        assert_eq!(
            ClientFrame::decode(&[0x7f]),
            Err(FrameError::UnknownTag { tag: 0x7f })
        );
        // Event frame with a chopped op.
        let mut good = ClientFrame::Event(sample_events()[0]).encode();
        good.truncate(good.len() - 3);
        assert!(matches!(
            ClientFrame::decode(&good),
            Err(FrameError::Truncated { .. })
        ));
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut buf = ClientFrame::Finish.encode();
        buf.push(0);
        assert_eq!(
            ClientFrame::decode(&buf),
            Err(FrameError::Malformed {
                what: "trailing bytes after message"
            })
        );
    }

    #[test]
    fn decode_rejects_bad_discriminants() {
        // Segment byte 9 inside an op.
        let mut buf = ClientFrame::Event(sample_events()[0]).encode();
        // Layout: tag, ev tag, op_id(8), actor(4), op kind, rank(4), segment...
        let seg_at = 1 + 1 + 8 + 4 + 1 + 4;
        buf[seg_at] = 9;
        assert_eq!(
            ClientFrame::decode(&buf),
            Err(FrameError::Malformed { what: "segment" })
        );
    }

    #[test]
    fn decode_rejects_wrong_version() {
        let mut buf = ClientFrame::Hello {
            config_json: "{}".into(),
        }
        .encode();
        buf[1] = PROTOCOL_VERSION + 1;
        assert_eq!(
            ClientFrame::decode(&buf),
            Err(FrameError::Version {
                got: PROTOCOL_VERSION + 1
            })
        );
        // Resume carries the version too: a v1 client cannot resume.
        let mut buf = ClientFrame::Resume {
            token: 7,
            last_acked_seq: 0,
        }
        .encode();
        buf[1] = 1;
        assert_eq!(
            ClientFrame::decode(&buf),
            Err(FrameError::Version { got: 1 })
        );
    }

    #[test]
    fn read_frame_polices_length_prefix() {
        use std::io::Cursor as IoCursor;
        // Clean close at boundary.
        let mut empty = IoCursor::new(Vec::<u8>::new());
        assert!(matches!(
            read_frame(&mut empty),
            Err(WireError::Frame(FrameError::ConnectionClosed))
        ));
        // Oversized prefix never allocates.
        let mut huge = IoCursor::new((u32::MAX).to_le_bytes().to_vec());
        assert!(matches!(
            read_frame(&mut huge),
            Err(WireError::Frame(FrameError::Oversized { .. }))
        ));
        // Zero-length frame.
        let mut zero = IoCursor::new(0u32.to_le_bytes().to_vec());
        assert!(matches!(
            read_frame(&mut zero),
            Err(WireError::Frame(FrameError::Empty))
        ));
        // Mid-frame hangup.
        let mut cut = IoCursor::new(vec![8, 0, 0, 0, 1, 2]);
        assert!(matches!(
            read_frame(&mut cut),
            Err(WireError::Frame(FrameError::Truncated { .. }))
        ));
    }

    #[test]
    fn write_frame_refuses_invalid_sizes() {
        let mut out = Vec::new();
        assert!(write_frame(&mut out, &[]).is_err());
        assert!(write_frame(&mut out, &vec![0; MAX_FRAME + 1]).is_err());
        assert!(out.is_empty(), "nothing written on refusal");
    }

    #[test]
    fn append_frame_matches_write_frame_and_refuses_the_same_sizes() {
        let mut written = Vec::new();
        let mut appended = Vec::new();
        for ev in sample_events() {
            let payload = ClientFrame::Event(ev).encode();
            write_frame(&mut written, &payload).unwrap();
            append_frame(&mut appended, &payload).unwrap();
        }
        assert_eq!(appended, written, "same bytes on the wire");
        assert!(append_frame(&mut appended, &[]).is_err());
        assert!(append_frame(&mut appended, &vec![0; MAX_FRAME + 1]).is_err());
        assert_eq!(appended, written, "nothing appended on refusal");
    }
}
