//! Blocking client handle for the detection service.
//!
//! [`ServiceClient`] wraps one *logical* session that may span several TCP
//! connections: handshake on connect, one frame per event, and a final
//! `Finish` → `Summary` exchange whose JSON is exactly the canonical
//! `RaceSummary::to_json` bytes — callers compare it directly against an
//! in-process run for parity checks.
//!
//! # Durability
//!
//! The server minted a resume token at hello time and parks the session
//! (rather than ending it) when the connection dies mid-stream. The client
//! holds up its end: every sent event is kept in a bounded replay buffer,
//! and an I/O failure on [`ServiceClient::send`], [`ServiceClient::ping`]
//! or [`ServiceClient::finish`] triggers an automatic reconnect — dial with
//! a connect timeout, present the token, and replay exactly the events the
//! server's `ResumeAck` says it never applied. Reconnect attempts follow
//! the [`RetryPolicy`]'s *jittered* exponential backoff so a fleet of
//! clients orphaned by the same network blip does not stampede back in
//! lockstep. Failures stay typed: a dead endpoint is
//! [`ClientError::ReconnectFailed`], a refused token is
//! [`ClientError::Rejected`], a replay buffer too small for the gap is
//! [`ClientError::ResumeGap`] — never a panic, never a hang.

use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use race_core::api::DetectorConfig;
use race_core::summary::RaceSummary;

use crate::frame::{
    append_frame, read_frame, ClientFrame, FrameError, ServerFrame, WireError, WireEvent,
};

/// Bound of the client-side replay buffer (events retained for resume).
/// Matches the server's default checkpoint cadence with headroom; a
/// reconnect needing older events fails with [`ClientError::ResumeGap`].
const DEFAULT_REPLAY_CAPACITY: usize = 4096;

/// A client-side failure. Like the server, the client never panics on wire
/// input: everything wrong comes back typed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server's bytes were not a valid frame.
    Frame(FrameError),
    /// The server answered with an `Error` frame (its message preserved).
    Rejected(String),
    /// The server sent a well-formed frame the client did not expect at
    /// this point of the exchange.
    Unexpected(&'static str),
    /// The summary JSON did not parse back into a `RaceSummary`.
    BadSummary(String),
    /// Every reconnect attempt in the backoff schedule failed; the message
    /// is the last attempt's error.
    ReconnectFailed(String),
    /// The server resumed the session but expects events the client's
    /// bounded replay buffer no longer holds.
    ResumeGap {
        /// The sequence the server expects next.
        next_seq: u64,
        /// The oldest sequence still buffered client-side.
        oldest_buffered: u64,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Frame(e) => write!(f, "frame error: {e}"),
            ClientError::Rejected(msg) => write!(f, "server rejected session: {msg}"),
            ClientError::Unexpected(what) => write!(f, "unexpected server frame: {what}"),
            ClientError::BadSummary(e) => write!(f, "unparseable summary: {e}"),
            ClientError::ReconnectFailed(msg) => {
                write!(f, "reconnect attempts exhausted: {msg}")
            }
            ClientError::ResumeGap {
                next_seq,
                oldest_buffered,
            } => write!(
                f,
                "resume gap: server expects seq {next_seq}, oldest buffered is {oldest_buffered}"
            ),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(e) => ClientError::Io(e),
            WireError::Frame(e) => ClientError::Frame(e),
        }
    }
}

impl ClientError {
    /// True for transport-level failures that auto-reconnect may heal (the
    /// connection died; the session may be parked server-side).
    fn is_transport(&self) -> bool {
        matches!(
            self,
            ClientError::Io(_)
                | ClientError::Frame(FrameError::ConnectionClosed)
                | ClientError::Frame(FrameError::Truncated { .. })
        )
    }
}

/// The session's liveness line, as answered to a `Ping`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthLine {
    /// True when the session's summary is degraded or the session was
    /// recovered from a panic.
    pub degraded: bool,
    /// Events the session has applied.
    pub events: u64,
    /// Races reported so far.
    pub reports: u64,
    /// Always 0: nothing is shed; goes with protocol v3 (ROADMAP item 3).
    pub shed: u64,
}

/// The final result of a remote session.
#[derive(Debug, Clone)]
pub struct RemoteSummary {
    /// The parsed summary.
    pub summary: RaceSummary,
    /// The summary's exact wire bytes (canonical JSON) — compare these for
    /// byte-identical parity with an in-process run.
    pub raw_json: String,
    /// Always 0: nothing is shed; goes with protocol v3 (ROADMAP item 3).
    pub shed: u64,
    /// The server's error message, when the session ended degraded but a
    /// summary was still produced (reap, poison, supervised panic).
    pub error: Option<String>,
}

/// Connection-robustness knobs for [`ServiceClient`].
#[derive(Debug, Clone, Copy)]
pub struct ClientTimeouts {
    /// Bound on establishing one TCP connection.
    pub connect: Duration,
    /// Bound on awaiting any single server response.
    pub read: Duration,
}

impl Default for ClientTimeouts {
    fn default() -> Self {
        ClientTimeouts {
            connect: Duration::from_secs(10),
            read: Duration::from_secs(10),
        }
    }
}

/// The reconnect backoff: bounded retry with exponential backoff, attempt
/// `i` waiting `base_delay << i` scaled by jitter. The policy bounds how
/// long a client keeps trying, never what it does when the attempts run
/// out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Number of timed attempts.
    pub attempts: u32,
    /// Wait of the first attempt; doubles each attempt.
    pub base_delay: Duration,
}

impl Default for RetryPolicy {
    /// Four attempts starting at 1 ms (1 + 2 + 4 + 8 = 15 ms in total).
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base_delay: Duration::from_millis(1),
        }
    }
}

impl RetryPolicy {
    /// The nominal schedule: `attempts` delays, doubling from
    /// [`RetryPolicy::base_delay`].
    fn delays(&self) -> impl Iterator<Item = Duration> + '_ {
        let base = self.base_delay;
        (0..self.attempts).map(move |i| base.saturating_mul(1u32 << i.min(16)))
    }

    /// The backoff schedule with deterministic pseudo-random jitter: each
    /// delay is scaled by a factor in `[0.5, 1.0]` derived from `seed` and
    /// the attempt index, so a fleet of clients reconnecting after the same
    /// outage does not thunder back in lockstep. Same seed ⇒ same schedule
    /// (reconnect tests stay reproducible).
    pub fn jittered_delays(&self, seed: u64) -> impl Iterator<Item = Duration> + '_ {
        self.delays().enumerate().map(move |(i, delay)| {
            // SplitMix64 on (seed, attempt): cheap, dependency-free, and
            // well-distributed even for adjacent seeds.
            let mut z = seed.wrapping_add(i as u64).wrapping_add(0x9E3779B97F4A7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^= z >> 31;
            // Map to [512, 1024] / 1024 — never below half the nominal
            // delay, so backoff keeps its exponential floor.
            let scale = 512 + (z % 513) as u32;
            delay.saturating_mul(scale) / 1024
        })
    }
}

/// One logical session with the detection server, surviving reconnects.
#[derive(Debug)]
pub struct ServiceClient {
    stream: TcpStream,
    session: u64,
    token: u64,
    peer: SocketAddr,
    timeouts: ClientTimeouts,
    retry: RetryPolicy,
    /// Events sent so far; doubles as the next event's sequence number.
    sent: u64,
    /// Recently sent events, by sequence, for resume replay.
    replay: VecDeque<(u64, WireEvent)>,
    /// Reconnects performed over this client's lifetime.
    reconnects: u64,
    /// Outgoing bytes, reused: each frame (on resume, the whole replay
    /// tail) is assembled here and leaves in one `write`.
    wire: Vec<u8>,
}

impl ServiceClient {
    /// Connect and perform the Hello handshake with default timeouts.
    pub fn connect(
        addr: impl ToSocketAddrs,
        config: &DetectorConfig,
    ) -> Result<ServiceClient, ClientError> {
        Self::connect_with_timeouts(addr, config, ClientTimeouts::default())
    }

    /// [`ServiceClient::connect`] with explicit connect and read timeouts.
    /// A dead or unroutable endpoint fails typed ([`ClientError::Io`])
    /// within the connect timeout instead of hanging.
    pub fn connect_with_timeouts(
        addr: impl ToSocketAddrs,
        config: &DetectorConfig,
        timeouts: ClientTimeouts,
    ) -> Result<ServiceClient, ClientError> {
        let (stream, peer) = dial(addr, timeouts)?;
        let mut client = ServiceClient {
            stream,
            session: 0,
            token: 0,
            peer,
            timeouts,
            retry: RetryPolicy::default(),
            sent: 0,
            replay: VecDeque::new(),
            reconnects: 0,
            wire: Vec::new(),
        };
        client.send_client_frame(&ClientFrame::Hello {
            config_json: config.to_json(),
        })?;
        match client.read_server_frame()? {
            ServerFrame::HelloAck { session, token } => {
                client.session = session;
                client.token = token;
                Ok(client)
            }
            ServerFrame::Error { message } => Err(ClientError::Rejected(message)),
            _ => Err(ClientError::Unexpected("wanted hello-ack")),
        }
    }

    /// The server-assigned session id.
    pub fn session_id(&self) -> u64 {
        self.session
    }

    /// The server-minted resume token for this session.
    pub fn resume_token(&self) -> u64 {
        self.token
    }

    /// Reconnects performed so far (0 on an uninterrupted connection).
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Replace the reconnect backoff schedule (jitter is applied on top).
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Chaos hook: kill the underlying TCP connection *now*, as a network
    /// fault would. The next [`ServiceClient::send`], [`ServiceClient::ping`]
    /// or [`ServiceClient::finish`] exercises the full reconnect-and-resume
    /// path. Used by the durability tests and the serve-smoke harness.
    pub fn drop_connection(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    /// Stream one event. A dead connection is healed transparently: the
    /// client reconnects (jittered backoff), resumes its parked session and
    /// replays every unacknowledged event — this one included.
    pub fn send(&mut self, event: &WireEvent) -> Result<(), ClientError> {
        let seq = self.sent;
        self.replay.push_back((seq, *event));
        if self.replay.len() > DEFAULT_REPLAY_CAPACITY {
            self.replay.pop_front();
        }
        self.sent += 1;
        match self.send_client_frame(&ClientFrame::Event(*event)) {
            Ok(()) => Ok(()),
            Err(e) if e.is_transport() => self.reconnect(), // replay covers this event
            Err(e) => Err(e),
        }
    }

    /// Probe the session's liveness. Acknowledged events are trimmed from
    /// the replay buffer; a dead connection is healed as in
    /// [`ServiceClient::send`].
    pub fn ping(&mut self) -> Result<HealthLine, ClientError> {
        let health = match self.ping_once() {
            Err(e) if e.is_transport() => {
                self.reconnect()?;
                self.ping_once()
            }
            other => other,
        }?;
        // The server's applied-event count is the ack floor: anything below
        // it will never be requested by a resume.
        while matches!(self.replay.front(), Some((seq, _)) if *seq < health.events) {
            self.replay.pop_front();
        }
        Ok(health)
    }

    /// End the stream and collect the summary. Consumes the client; the
    /// connection closes when this returns.
    pub fn finish(mut self) -> Result<RemoteSummary, ClientError> {
        match self.finish_once() {
            Err(e) if e.is_transport() => {
                self.reconnect()?;
                self.finish_once()
            }
            other => other,
        }
    }

    fn ping_once(&mut self) -> Result<HealthLine, ClientError> {
        self.send_client_frame(&ClientFrame::Ping)?;
        match self.read_server_frame()? {
            ServerFrame::Health {
                degraded,
                events,
                reports,
                shed,
            } => Ok(HealthLine {
                degraded,
                events,
                reports,
                shed,
            }),
            ServerFrame::Error { message } => Err(ClientError::Rejected(message)),
            _ => Err(ClientError::Unexpected("wanted health")),
        }
    }

    fn finish_once(&mut self) -> Result<RemoteSummary, ClientError> {
        self.send_client_frame(&ClientFrame::Finish)?;
        let mut error = None;
        loop {
            match self.read_server_frame()? {
                // A late Health answer (pipelined ping) is skipped, not an
                // error: frames are ordered but the client may not have
                // drained every response before finishing.
                ServerFrame::Health { .. } => continue,
                ServerFrame::Error { message } => error = Some(message),
                ServerFrame::Summary { shed, json } => {
                    let summary = RaceSummary::from_json(&json).map_err(ClientError::BadSummary)?;
                    return Ok(RemoteSummary {
                        summary,
                        raw_json: json,
                        shed,
                        error,
                    });
                }
                ServerFrame::HelloAck { .. } => {
                    return Err(ClientError::Unexpected("second hello-ack"))
                }
                ServerFrame::ResumeAck { .. } => {
                    return Err(ClientError::Unexpected("resume-ack outside resume"))
                }
            }
        }
    }

    /// Dial the server again and resume the parked session, replaying the
    /// unacknowledged event tail. Every attempt is preceded by a jittered
    /// backoff delay (the server needs a beat to notice the dead connection
    /// and park the session; the jitter de-correlates a reconnecting fleet).
    fn reconnect(&mut self) -> Result<(), ClientError> {
        // Make sure the server sees the old connection as dead even when the
        // failure was asymmetric (e.g. only our reads broke).
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        let mut last_err = "no reconnect attempts configured".to_string();
        let seed = self.token ^ self.sent.rotate_left(32);
        let delays: Vec<Duration> = self.retry.jittered_delays(seed).collect();
        for delay in delays {
            std::thread::sleep(delay);
            match self.try_resume() {
                Ok(()) => {
                    self.reconnects += 1;
                    return Ok(());
                }
                // Typed rejections are final: retrying a refused token or a
                // replay gap cannot succeed.
                Err(e @ (ClientError::Rejected(_) | ClientError::ResumeGap { .. })) => {
                    return Err(e)
                }
                Err(e) => last_err = e.to_string(),
            }
        }
        Err(ClientError::ReconnectFailed(last_err))
    }

    fn try_resume(&mut self) -> Result<(), ClientError> {
        let (mut stream, _) = dial(self.peer, self.timeouts)?;
        let resume = ClientFrame::Resume {
            token: self.token,
            last_acked_seq: self.server_floor(),
        };
        self.wire.clear();
        append_frame(&mut self.wire, &resume.encode())?;
        stream.write_all(&self.wire)?;
        let payload = read_frame(&mut stream)?;
        match ServerFrame::decode(&payload)? {
            ServerFrame::ResumeAck { session, next_seq } => {
                if let Some((oldest, _)) = self.replay.front() {
                    if next_seq < *oldest {
                        return Err(ClientError::ResumeGap {
                            next_seq,
                            oldest_buffered: *oldest,
                        });
                    }
                } else if next_seq < self.sent {
                    return Err(ClientError::ResumeGap {
                        next_seq,
                        oldest_buffered: self.sent,
                    });
                }
                // Replay exactly the events the server never applied.
                self.wire.clear();
                for (_, ev) in self.replay.iter().filter(|(seq, _)| *seq >= next_seq) {
                    append_frame(&mut self.wire, &ClientFrame::Event(*ev).encode())?;
                }
                stream.write_all(&self.wire)?;
                self.session = session;
                self.stream = stream;
                Ok(())
            }
            ServerFrame::Error { message } => Err(ClientError::Rejected(message)),
            _ => Err(ClientError::Unexpected("wanted resume-ack")),
        }
    }

    /// The highest sequence the client can prove the server applied — the
    /// trim floor of the replay buffer (everything below it was dropped
    /// because a Health line acknowledged it).
    fn server_floor(&self) -> u64 {
        self.replay
            .front()
            .map(|(seq, _)| *seq)
            .unwrap_or(self.sent)
    }

    fn send_client_frame(&mut self, frame: &ClientFrame) -> Result<(), ClientError> {
        self.wire.clear();
        append_frame(&mut self.wire, &frame.encode())?;
        self.stream.write_all(&self.wire)?;
        Ok(())
    }

    fn read_server_frame(&mut self) -> Result<ServerFrame, ClientError> {
        let payload = read_frame(&mut self.stream)?;
        Ok(ServerFrame::decode(&payload)?)
    }
}

/// Resolve and dial with a connect timeout; the read timeout is installed
/// on the resulting stream. A dead endpoint fails typed, never hangs.
fn dial(
    addr: impl ToSocketAddrs,
    timeouts: ClientTimeouts,
) -> Result<(TcpStream, SocketAddr), ClientError> {
    let mut last_err: Option<std::io::Error> = None;
    for candidate in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&candidate, timeouts.connect) {
            Ok(stream) => {
                stream.set_nodelay(true).ok();
                stream.set_read_timeout(Some(timeouts.read))?;
                return Ok((stream, candidate));
            }
            Err(e) => last_err = Some(e),
        }
    }
    Err(ClientError::Io(last_err.unwrap_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::AddrNotAvailable,
            "address resolved to no candidates",
        )
    })))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_is_bounded() {
        let policy = RetryPolicy::default();
        let delays: Vec<_> = policy.delays().collect();
        assert_eq!(delays.len(), 4);
        assert_eq!(delays[0], Duration::from_millis(1));
        assert_eq!(delays[1], Duration::from_millis(2));
        assert_eq!(delays[3], Duration::from_millis(8));
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_seed_sensitive() {
        let policy = RetryPolicy {
            attempts: 8,
            base_delay: Duration::from_millis(64),
        };
        let a: Vec<_> = policy.jittered_delays(7).collect();
        let b: Vec<_> = policy.jittered_delays(7).collect();
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.len(), 8);
        for (jittered, nominal) in a.iter().zip(policy.delays()) {
            assert!(*jittered >= nominal / 2, "never below half the nominal");
            assert!(*jittered <= nominal, "never above the nominal");
        }
        let c: Vec<_> = policy.jittered_delays(8).collect();
        assert_ne!(a, c, "different seeds decorrelate");
    }
}
