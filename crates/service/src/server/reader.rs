//! The burst frame reader: one `read` per burst of frames, not per frame.

use std::io::Read;

use crate::frame::{FrameError, WireError, MAX_FRAME};

/// Steady-state size of a connection's read buffer: about three hundred
/// event frames per `read`. The buffer leaves this size only while it holds
/// one frame larger than itself.
const BURST: usize = 16 * 1024;

/// Incremental frame reader that survives read timeouts and takes as many
/// frames per `read` as the socket has ready.
///
/// [`fill`](Self::fill) issues one `read` straight into the buffer's spare
/// room; [`next_buffered`](Self::next_buffered) then hands out every
/// complete frame as a slice of that buffer, so a frame costs neither a
/// syscall nor an allocation. Whatever is left — the partial tail of the
/// next frame — is retained across `WouldBlock`, so the liveness tick never
/// corrupts the stream. (A plain `read_exact` would drop the partial prefix
/// on timeout and resynchronise mid-frame.)
///
/// Errors are the ones [`crate::frame::read_frame`] gives on the same bytes,
/// in the same order: a length prefix is policed as soon as its four bytes
/// are buffered and before the buffer grows for it, and end of stream is
/// only looked for once every complete frame has been handed out.
pub struct TickedFrameReader<R> {
    src: R,
    /// Fully initialised at all times; `buf[start..end]` are the bytes read
    /// and not yet handed out, `buf[end..]` is spare room.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl<R: Read> TickedFrameReader<R> {
    /// Wrap a byte source (the server's `TcpStream` with a read timeout).
    pub fn new(src: R) -> Self {
        TickedFrameReader {
            src,
            buf: vec![0; BURST],
            start: 0,
            end: 0,
        }
    }

    /// The bytes read and not yet handed out.
    fn pending(&self) -> &[u8] {
        self.buf.get(self.start..self.end).unwrap_or(&[])
    }

    /// Prefix + payload size of the frame at the head of the buffer, once
    /// its length prefix is buffered; the prefix is policed here.
    fn head_size(&self) -> Result<Option<usize>, FrameError> {
        let prefix = self.pending().get(..4);
        let Some(prefix) = prefix.and_then(|p| <[u8; 4]>::try_from(p).ok()) else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(prefix) as usize;
        if len == 0 {
            return Err(FrameError::Empty);
        }
        if len > MAX_FRAME {
            return Err(FrameError::Oversized { len });
        }
        Ok(Some(4 + len))
    }

    /// The payload of the next frame if all of it is already buffered.
    /// `Ok(None)` means the socket has to be read: [`fill`](Self::fill).
    /// Never touches the source.
    pub fn next_buffered(&mut self) -> Result<Option<&[u8]>, FrameError> {
        let Some(size) = self.head_size()? else {
            return Ok(None);
        };
        // (Not `self.pending()`: the payload borrows `buf` alone, so `start`
        // can move past it.)
        let pending = self.buf.get(self.start..self.end);
        let Some(payload) = pending.and_then(|p| p.get(4..size)) else {
            return Ok(None);
        };
        self.start += size;
        Ok(Some(payload))
    }

    /// One `read` into the buffer's spare room, after moving the partial
    /// tail to the front. End of stream is [`FrameError::ConnectionClosed`]
    /// with nothing buffered and [`FrameError::Truncated`] otherwise;
    /// timeouts come back as `Io` with the tail preserved. Returns at once
    /// if a whole frame is still waiting to be handed out.
    pub fn fill(&mut self) -> Result<(), WireError> {
        let size = self.head_size()?;
        if size.is_some_and(|size| self.pending().len() >= size) {
            return Ok(());
        }
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        // Grow only to hold the one frame larger than the buffer, and give
        // the memory back once that frame has been handed out. The frame at
        // the head is incomplete, so `end` is below the new length.
        let want = size.unwrap_or(0).max(BURST);
        if self.buf.len() != want {
            self.buf.resize(want, 0);
            self.buf.shrink_to(want);
        }
        loop {
            let spare = self.buf.get_mut(self.end..).unwrap_or(&mut []);
            match self.src.read(spare) {
                Ok(0) => {
                    return Err(match self.end {
                        0 => FrameError::ConnectionClosed,
                        1..=3 => FrameError::Truncated {
                            what: "length prefix",
                        },
                        _ => FrameError::Truncated { what: "payload" },
                    }
                    .into());
                }
                Ok(n) => {
                    // (Clamped: a source that over-reports must not be able
                    // to push `end` past the buffer.)
                    self.end = (self.end + n).min(self.buf.len());
                    return Ok(());
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(WireError::Io(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;
    use std::io::{self, Read};

    use super::*;
    use crate::frame::{append_frame, read_frame, ClientFrame, WireEvent};

    /// A scripted byte source: each `read` plays the next step — some bytes
    /// (as many as fit), or a read timeout — and end of stream after the
    /// last one.
    struct Script(VecDeque<Option<Vec<u8>>>);

    impl Script {
        /// `stream` cut at `cuts`, a timeout between adjacent chunks.
        fn chunked(stream: &[u8], cuts: &[usize]) -> Script {
            let mut steps = VecDeque::new();
            let mut at = 0;
            for &cut in cuts.iter().chain([&stream.len()]) {
                steps.push_back(Some(stream[at..cut].to_vec()));
                steps.push_back(None);
                at = cut;
            }
            Script(steps)
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(None) => Err(io::ErrorKind::WouldBlock.into()),
                Some(Some(mut bytes)) => {
                    let n = bytes.len().min(buf.len());
                    buf[..n].copy_from_slice(&bytes[..n]);
                    if n < bytes.len() {
                        self.0.push_front(Some(bytes.split_off(n)));
                    } else if n == 0 {
                        return self.read(buf); // an empty chunk is not end of stream
                    }
                    Ok(n)
                }
            }
        }
    }

    /// Every payload the reader yields, the error that ended the stream, and
    /// the largest buffer it held.
    fn drain(mut reader: TickedFrameReader<Script>) -> (Vec<Vec<u8>>, FrameError, usize) {
        let mut payloads = Vec::new();
        let mut largest = reader.buf.len();
        loop {
            loop {
                match reader.next_buffered() {
                    Ok(Some(payload)) => payloads.push(payload.to_vec()),
                    Ok(None) => break,
                    Err(e) => return (payloads, e, largest),
                }
            }
            match reader.fill() {
                Ok(()) => {}
                Err(e) if e.is_timeout() => {}
                Err(WireError::Frame(e)) => return (payloads, e, largest),
                Err(WireError::Io(e)) => panic!("script never fails otherwise: {e}"),
            }
            largest = largest.max(reader.buf.len());
        }
    }

    /// What sequential `read_frame` makes of the same bytes.
    fn sequential(stream: &[u8]) -> (Vec<Vec<u8>>, FrameError) {
        let mut cursor = io::Cursor::new(stream);
        let mut payloads = Vec::new();
        loop {
            match read_frame(&mut cursor) {
                Ok(payload) => payloads.push(payload),
                Err(WireError::Frame(e)) => return (payloads, e),
                Err(WireError::Io(e)) => panic!("cursor never fails: {e}"),
            }
        }
    }

    fn frames(payloads: &[Vec<u8>]) -> Vec<u8> {
        let mut stream = Vec::new();
        for payload in payloads {
            append_frame(&mut stream, payload).unwrap();
        }
        stream
    }

    /// One-byte, event-sized, awkward and several-kilobyte payloads.
    fn mixed_payloads() -> Vec<Vec<u8>> {
        let mut payloads = vec![
            ClientFrame::Ping.encode(),
            ClientFrame::Event(WireEvent::Barrier).encode(),
            ClientFrame::Hello {
                config_json: "x".repeat(300),
            }
            .encode(),
            ClientFrame::Finish.encode(),
        ];
        payloads.extend((1..40u8).map(|n| vec![n; usize::from(n) * 3]));
        payloads
    }

    #[test]
    fn cut_at_every_offset_with_a_timeout_matches_sequential_read_frame() {
        let payloads = mixed_payloads();
        let stream = frames(&payloads);
        for cut in 0..=stream.len() {
            let (got, end, _) = drain(TickedFrameReader::new(Script::chunked(&stream, &[cut])));
            assert_eq!(got, payloads, "cut at {cut}");
            assert_eq!(end, FrameError::ConnectionClosed, "cut at {cut}");
        }
        // And one byte per read, a timeout after every byte.
        let every: Vec<usize> = (0..stream.len()).collect();
        let (got, end, _) = drain(TickedFrameReader::new(Script::chunked(&stream, &every)));
        assert_eq!((got, end), sequential(&stream));
    }

    #[test]
    fn many_frames_arrive_in_one_read() {
        let payload = ClientFrame::Event(WireEvent::Barrier).encode();
        let stream = frames(&vec![payload.clone(); 500]);
        assert!(stream.len() < BURST);
        let mut reader = TickedFrameReader::new(Script::chunked(&stream, &[]));
        reader.fill().unwrap();
        let mut seen = 0;
        while let Some(got) = reader.next_buffered().unwrap() {
            assert_eq!(got, payload);
            seen += 1;
        }
        assert_eq!(seen, 500, "all of them from the single read");
        assert!(reader.fill().unwrap_err().is_timeout());
    }

    #[test]
    fn a_hello_larger_than_the_buffer_is_followed_by_events() {
        let mut payloads = vec![ClientFrame::Hello {
            config_json: "c".repeat(60 * 1024),
        }
        .encode()];
        payloads.extend(vec![ClientFrame::Event(WireEvent::Barrier).encode(); 700]);
        let stream = frames(&payloads);
        for cuts in [&[][..], &[3], &[4], &[BURST], &[60 * 1024 + 7, 61 * 1024]] {
            let (got, end, largest) = drain(TickedFrameReader::new(Script::chunked(&stream, cuts)));
            assert_eq!(got, payloads, "cuts {cuts:?}");
            assert_eq!(end, FrameError::ConnectionClosed);
            assert_eq!(largest, 4 + payloads[0].len(), "grew to that one frame");
        }
        // The buffer is back at its steady size once the hello is out.
        let mut reader = TickedFrameReader::new(Script::chunked(&stream, &[]));
        while reader.buf.len() == BURST {
            reader.fill().unwrap();
        }
        while reader.next_buffered().unwrap().is_some() {}
        reader.fill().unwrap();
        assert_eq!(reader.buf.len(), BURST);
        assert!(reader.buf.capacity() < 2 * BURST, "memory given back");
    }

    #[test]
    fn bad_length_prefixes_are_rejected_before_the_buffer_grows() {
        let good = ClientFrame::Ping.encode();
        for (prefix, want) in [
            (0u32, FrameError::Empty),
            (
                MAX_FRAME as u32 + 1,
                FrameError::Oversized { len: MAX_FRAME + 1 },
            ),
            (
                u32::MAX,
                FrameError::Oversized {
                    len: u32::MAX as usize,
                },
            ),
        ] {
            let mut stream = frames(std::slice::from_ref(&good));
            stream.extend_from_slice(&prefix.to_le_bytes());
            stream.extend_from_slice(&[7; 64]);
            let (got, end, largest) = drain(TickedFrameReader::new(Script::chunked(&stream, &[6])));
            assert_eq!(got, vec![good.clone()], "the frame before it still arrives");
            assert_eq!(end, want);
            assert_eq!(largest, BURST);
        }
        // The largest legal frame is accepted.
        let stream = frames(&[vec![1; MAX_FRAME]]);
        let (got, end, _) = drain(TickedFrameReader::new(Script::chunked(&stream, &[])));
        assert_eq!(got.len(), 1);
        assert_eq!(end, FrameError::ConnectionClosed);
    }

    #[test]
    fn end_of_stream_is_closed_at_a_boundary_and_truncated_inside_a_frame() {
        let payloads = mixed_payloads();
        let stream = frames(&payloads);
        let mut boundaries = vec![0];
        for payload in &payloads {
            boundaries.push(boundaries[boundaries.len() - 1] + 4 + payload.len());
        }
        for keep in 0..=stream.len() {
            let cut = &stream[..keep];
            let (got, end, _) = drain(TickedFrameReader::new(Script::chunked(cut, &[keep / 2])));
            let whole = boundaries.iter().filter(|b| **b <= keep).count() - 1;
            assert_eq!(got, payloads[..whole], "kept {keep}");
            if boundaries.contains(&keep) {
                assert_eq!(end, FrameError::ConnectionClosed, "kept {keep}");
            } else {
                assert!(
                    matches!(end, FrameError::Truncated { .. }),
                    "kept {keep}: {end}"
                );
            }
            assert_eq!((got, end), sequential(cut), "kept {keep}");
        }
    }

    #[test]
    fn fill_does_not_read_past_a_frame_it_has_not_handed_out() {
        let stream = frames(&[ClientFrame::Ping.encode()]);
        let mut reader = TickedFrameReader::new(Script::chunked(&stream, &[]));
        reader.fill().unwrap();
        reader.fill().unwrap(); // would hit the script's timeout if it read
        assert!(reader.next_buffered().unwrap().is_some());
    }
}
