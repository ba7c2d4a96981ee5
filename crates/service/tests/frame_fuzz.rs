//! Property tests for the wire codec's trust boundary: arbitrary and
//! corrupted bytes must decode to typed errors (or valid frames), never
//! panic, and valid frames must survive a round trip bit-for-bit.

use dsm::addr::GlobalAddr;
use dsm_service::frame::{
    append_frame, read_frame, ClientFrame, FrameError, ServerFrame, WireError, WireEvent,
};
use dsm_service::server::TickedFrameReader;
use proptest::prelude::*;
use race_core::{DsmOp, OpKind};

/// Decode an arbitrary wire event from four generator words — covers every
/// event and op-kind arm.
fn event_from_words(sel: u64, a: u64, b: u64, c: u64) -> WireEvent {
    let rank = (a % 8) as usize;
    let range = |seed: u64| {
        let addr = if seed.is_multiple_of(2) {
            GlobalAddr::public((seed % 8) as usize, (seed % 4096) as usize)
        } else {
            GlobalAddr::private((seed % 8) as usize, (seed % 4096) as usize)
        };
        addr.range(1 + (seed % 64) as usize)
    };
    match sel % 7 {
        0 => WireEvent::Op(DsmOp {
            op_id: b,
            actor: rank,
            kind: OpKind::Put {
                src: range(b),
                dst: range(c),
            },
        }),
        1 => WireEvent::Op(DsmOp {
            op_id: b,
            actor: rank,
            kind: OpKind::Get {
                src: range(b),
                dst: range(c),
            },
        }),
        2 => WireEvent::Op(DsmOp {
            op_id: b,
            actor: rank,
            kind: OpKind::LocalRead { range: range(c) },
        }),
        3 => WireEvent::Op(DsmOp {
            op_id: b,
            actor: rank,
            kind: OpKind::LocalWrite { range: range(c) },
        }),
        4 => WireEvent::Op(DsmOp {
            op_id: b,
            actor: rank,
            kind: OpKind::AtomicRmw { range: range(c) },
        }),
        5 => WireEvent::Barrier,
        _ => WireEvent::Acquire {
            rank,
            lock: ((b % 8) as usize, (c % 4096) as usize),
        },
    }
}

/// Plays `stream` in chunks of the given sizes (cycled), a read timeout
/// after every chunk, then end of stream.
struct Chunked {
    stream: Vec<u8>,
    at: usize,
    sizes: Vec<usize>,
    reads: usize,
    timeout_due: bool,
}

impl std::io::Read for Chunked {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if std::mem::take(&mut self.timeout_due) {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        let size = self.sizes[self.reads % self.sizes.len()].max(1);
        let n = size.min(buf.len()).min(self.stream.len() - self.at);
        buf[..n].copy_from_slice(&self.stream[self.at..self.at + n]);
        self.at += n;
        self.reads += 1;
        self.timeout_due = n > 0;
        Ok(n)
    }
}

/// Every payload the server's burst reader yields for `stream` delivered
/// in `sizes` chunks, and the error that ends it.
fn burst_read(stream: &[u8], sizes: &[usize]) -> (Vec<Vec<u8>>, FrameError) {
    let mut reader = TickedFrameReader::new(Chunked {
        stream: stream.to_vec(),
        at: 0,
        sizes: sizes.to_vec(),
        reads: 0,
        timeout_due: false,
    });
    let mut payloads = Vec::new();
    loop {
        loop {
            match reader.next_buffered() {
                Ok(Some(payload)) => payloads.push(payload.to_vec()),
                Ok(None) => break,
                Err(e) => return (payloads, e),
            }
        }
        match reader.fill() {
            Ok(()) => {}
            Err(e) if e.is_timeout() => {}
            Err(WireError::Frame(e)) => return (payloads, e),
            Err(WireError::Io(e)) => panic!("the source only ever times out: {e}"),
        }
    }
}

/// The same for `read_frame`, one frame after another off the whole stream.
fn sequential_read(stream: &[u8]) -> (Vec<Vec<u8>>, FrameError) {
    let mut cursor = std::io::Cursor::new(stream);
    let mut payloads = Vec::new();
    loop {
        match read_frame(&mut cursor) {
            Ok(payload) => payloads.push(payload),
            Err(WireError::Frame(e)) => return (payloads, e),
            Err(WireError::Io(e)) => panic!("a cursor cannot fail: {e}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Differential: however a stream of mixed-size frames (events, pings,
    /// hellos up to several read buffers long) is cut into reads, with a
    /// timeout between reads, the burst reader yields the payloads — and
    /// the final error — that sequential `read_frame` yields.
    #[test]
    fn burst_reader_matches_sequential_read_frame(
        raw in proptest::collection::vec(
            (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
            1..120,
        ),
        sizes in proptest::collection::vec(1usize..40_000, 1..8),
        cut_tail in 0usize..64,
    ) {
        let mut stream = Vec::new();
        for (sel, a, b, c) in raw {
            let frame = match sel % 23 {
                0 => ClientFrame::Hello { config_json: "j".repeat((a % 50_000) as usize) },
                1 => ClientFrame::Ping,
                _ => ClientFrame::Event(event_from_words(sel, a, b, c)),
            };
            append_frame(&mut stream, &frame.encode()).unwrap();
        }
        // Sometimes the stream dies inside its last frame.
        stream.truncate(stream.len() - cut_tail.min(stream.len()) * (cut_tail % 2));
        prop_assert_eq!(burst_read(&stream, &sizes), sequential_read(&stream));
    }

    /// Byte soup and XOR-corrupted streams: the burst reader never panics
    /// and never yields a frame `read_frame` would not have.
    #[test]
    fn burst_reader_agrees_with_read_frame_on_hostile_streams(
        soup in proptest::collection::vec(0u8..=255, 0..600),
        raw in proptest::collection::vec(
            (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
            1..40,
        ),
        flips in proptest::collection::vec((0usize..1 << 20, 1u8..=255), 1..6),
        sizes in proptest::collection::vec(1usize..300, 1..6),
    ) {
        prop_assert_eq!(burst_read(&soup, &sizes), sequential_read(&soup));

        let mut stream = Vec::new();
        for (sel, a, b, c) in raw {
            let payload = ClientFrame::Event(event_from_words(sel, a, b, c)).encode();
            append_frame(&mut stream, &payload).unwrap();
        }
        for (pos, bits) in flips {
            let pos = pos % stream.len();
            stream[pos] ^= bits;
        }
        prop_assert_eq!(burst_read(&stream, &sizes), sequential_read(&stream));
    }

    /// Any generated event round-trips exactly.
    #[test]
    fn events_round_trip(raw in proptest::collection::vec(
        (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
        1..40,
    )) {
        for (sel, a, b, c) in raw {
            let frame = ClientFrame::Event(event_from_words(sel, a, b, c));
            let decoded = ClientFrame::decode(&frame.encode());
            prop_assert_eq!(decoded.as_ref(), Ok(&frame));
        }
    }

    /// Arbitrary byte soup decodes without panicking, on both sides of the
    /// protocol.
    #[test]
    fn random_bytes_never_panic_the_decoders(
        bytes in proptest::collection::vec(0u8..=255, 0..256),
    ) {
        let _ = ClientFrame::decode(&bytes);
        let _ = ServerFrame::decode(&bytes);
    }

    /// Single-byte corruption of a valid frame decodes to a typed error or
    /// a (different but) valid frame — never a panic, and never the
    /// original frame when the corrupted byte matters.
    #[test]
    fn corrupted_frames_fail_typed(
        (sel, a, b, c) in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
        flip_pos in 0usize..4096,
        flip_bits in 1u8..=255,
    ) {
        let frame = ClientFrame::Event(event_from_words(sel, a, b, c));
        let mut payload = frame.encode();
        let pos = flip_pos % payload.len();
        payload[pos] ^= flip_bits;
        // Must not panic; errors must be typed (that's the return type);
        // success is legitimate when the flipped bits land in a value field.
        let _ = ClientFrame::decode(&payload);
    }

    /// Truncation at every length decodes to a typed error, never a panic.
    #[test]
    fn truncated_frames_fail_typed(
        (sel, a, b, c) in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
        keep in 0usize..4096,
    ) {
        let frame = ClientFrame::Event(event_from_words(sel, a, b, c));
        let mut payload = frame.encode();
        let keep = keep % payload.len();
        payload.truncate(keep);
        prop_assert!(ClientFrame::decode(&payload).is_err());
    }

    /// `read_frame` handles arbitrary byte streams (hostile length
    /// prefixes included) without panicking or over-allocating.
    #[test]
    fn read_frame_survives_arbitrary_streams(
        bytes in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        let mut cursor = std::io::Cursor::new(bytes);
        let _ = read_frame(&mut cursor);
    }

    /// The resume-protocol frames (v2) round-trip exactly for every token
    /// and sequence value.
    #[test]
    fn resume_frames_round_trip(
        token in 0u64..u64::MAX,
        seq in 0u64..u64::MAX,
        session in 0u64..u64::MAX,
    ) {
        let resume = ClientFrame::Resume { token, last_acked_seq: seq };
        prop_assert_eq!(ClientFrame::decode(&resume.encode()).as_ref(), Ok(&resume));

        let hello_ack = ServerFrame::HelloAck { session, token };
        prop_assert_eq!(ServerFrame::decode(&hello_ack.encode()).as_ref(), Ok(&hello_ack));

        let resume_ack = ServerFrame::ResumeAck { session, next_seq: seq };
        prop_assert_eq!(ServerFrame::decode(&resume_ack.encode()).as_ref(), Ok(&resume_ack));
    }

    /// Truncating a resume-protocol frame at any length is a typed error,
    /// never a panic — tokens cannot be smuggled through short frames.
    #[test]
    fn truncated_resume_frames_fail_typed(
        token in 0u64..u64::MAX,
        seq in 0u64..u64::MAX,
        keep in 0usize..4096,
    ) {
        let payload = ClientFrame::Resume { token, last_acked_seq: seq }.encode();
        let cut = keep % payload.len();
        prop_assert!(ClientFrame::decode(&payload[..cut]).is_err());

        let payload = ServerFrame::HelloAck { session: seq, token }.encode();
        let cut = keep % payload.len();
        prop_assert!(ServerFrame::decode(&payload[..cut]).is_err());

        let payload = ServerFrame::ResumeAck { session: token, next_seq: seq }.encode();
        let cut = keep % payload.len();
        prop_assert!(ServerFrame::decode(&payload[..cut]).is_err());
    }

    /// XOR-corrupting a resume frame decodes to a typed error or a valid
    /// frame with different fields — never a panic, and flips in the
    /// version byte are always rejected.
    #[test]
    fn corrupted_resume_frames_fail_typed(
        token in 0u64..u64::MAX,
        seq in 0u64..u64::MAX,
        flip_pos in 0usize..4096,
        flip_bits in 1u8..=255,
    ) {
        let mut payload = ClientFrame::Resume { token, last_acked_seq: seq }.encode();
        let pos = flip_pos % payload.len();
        payload[pos] ^= flip_bits;
        match ClientFrame::decode(&payload) {
            // Version byte (offset 1) corrupted: must be refused as such.
            _ if pos == 1 => prop_assert!(matches!(
                ClientFrame::decode(&payload),
                Err(dsm_service::FrameError::Version { .. })
            )),
            // Tag corrupted into another tag or garbage: any typed outcome
            // is fine; the original frame must not come back.
            Ok(frame) => prop_assert_ne!(
                frame,
                ClientFrame::Resume { token, last_acked_seq: seq }
            ),
            Err(_) => {}
        }
    }
}
