//! Length-prefixed framing over any byte stream.
//!
//! A frame is `[len: u32 LE][payload: len bytes]`. `len` counts only the
//! payload. Zero-length frames are illegal (every message has at least a
//! kind byte); frames over [`crate::MAX_FRAME`] are rejected *before* the
//! payload is read, so a hostile length field cannot make the reader
//! allocate unboundedly.
//!
//! Both directions cost one system call per frame on a connection:
//! [`FrameWriter`] assembles prefix and payload in one reused buffer and
//! issues one `write_all` (one segment under `TCP_NODELAY`), and
//! [`FrameReader`] issues one `read` per arrival into a per-connection
//! buffer and parses frames out of it, so requests a peer pipelined into
//! one segment are served from the buffer. [`write_frame`] and
//! [`read_frame`] are the one-shot forms for callers that hold no
//! connection state; they share the length check with the buffered pair.

use std::io::{self, Read, Write};
use std::ops::Range;

use crate::MAX_FRAME;

/// Bytes of the length prefix.
const PREFIX: usize = 4;

/// Initial (and steady-state) size of a connection's read buffer. Larger
/// frames grow it to exactly `4 + len`; it shrinks back once drained.
const READ_BUF: usize = 8 * 1024;

/// Largest write buffer a connection keeps between frames; one bulk
/// answer must not pin megabytes for the rest of the session.
const WRITE_BUF_KEEP: usize = 64 * 1024;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed (includes clean EOF between frames,
    /// surfaced as `UnexpectedEof` mid-frame).
    Io(io::Error),
    /// The peer closed the stream cleanly at a frame boundary.
    Closed,
    /// The length field exceeds [`MAX_FRAME`] or is zero.
    BadLength(usize),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::BadLength(n) => {
                write!(f, "frame length {n} outside 1..={MAX_FRAME}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// The one length rule, both directions: `1..=MAX_FRAME`.
fn check_len(len: usize) -> Result<usize, FrameError> {
    if len == 0 || len > MAX_FRAME {
        return Err(FrameError::BadLength(len));
    }
    Ok(len)
}

fn truncated() -> FrameError {
    FrameError::Io(io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "stream ended inside a frame",
    ))
}

/// A connection's outgoing half: one reused buffer in which each frame is
/// assembled — four prefix bytes reserved, payload encoded behind them —
/// and sent with a single `write_all`.
#[derive(Debug, Default)]
pub struct FrameWriter {
    buf: Vec<u8>,
}

impl FrameWriter {
    /// An empty writer; the buffer grows to the largest frame sent.
    pub fn new() -> Self {
        FrameWriter::default()
    }

    /// Sends one frame whose payload `encode` appends to the buffer it is
    /// handed. A payload outside `1..=MAX_FRAME` is refused with
    /// `InvalidInput` and nothing is written: the peer would drop the
    /// connection on it.
    pub fn write(
        &mut self,
        w: &mut impl Write,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> io::Result<()> {
        self.buf.clear();
        self.buf.extend_from_slice(&[0; PREFIX]);
        encode(&mut self.buf);
        let sent = match check_len(self.buf.len() - PREFIX) {
            Ok(len) => {
                self.buf[..PREFIX].copy_from_slice(&(len as u32).to_le_bytes());
                w.write_all(&self.buf).and_then(|()| w.flush())
            }
            Err(e) => Err(io::Error::new(io::ErrorKind::InvalidInput, e.to_string())),
        };
        if self.buf.capacity() > WRITE_BUF_KEEP {
            self.buf = Vec::new();
        }
        sent
    }
}

/// Writes one frame — the payload's length, then the payload — with one
/// `write_all`, then flushes. A payload outside `1..=MAX_FRAME` is
/// refused with `InvalidInput`.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut writer = FrameWriter {
        buf: Vec::with_capacity(PREFIX + payload.len()),
    };
    writer.write(w, |buf| buf.extend_from_slice(payload))
}

/// Reads one frame's payload. Distinguishes a clean close (EOF before any
/// length byte) from a truncated frame (EOF after some bytes), and rejects
/// an oversized or zero length without reading the payload.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut len_buf = [0u8; PREFIX];
    let mut filled = 0usize;
    while filled < PREFIX {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Err(FrameError::Closed),
            Ok(0) => return Err(truncated()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = check_len(u32::from_le_bytes(len_buf) as usize)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// A connection's incoming half: a buffer filled with one `read` per
/// arrival, out of which whole frames are handed as borrowed slices.
///
/// An error from the stream (`WouldBlock`/`TimedOut` on a socket with a
/// read timeout included) leaves the buffered bytes in place, so the call
/// can simply be repeated; [`FrameReader::buffered`] tells a caller that
/// polls whether the wait is between frames or inside one.
#[derive(Debug)]
pub struct FrameReader {
    /// Unconsumed bytes live in `buf[start..end]`.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Default for FrameReader {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameReader {
    /// An empty reader with the steady-state buffer.
    pub fn new() -> Self {
        FrameReader {
            buf: vec![0; READ_BUF],
            start: 0,
            end: 0,
        }
    }

    /// Bytes received but not yet handed out: zero exactly when the
    /// stream is at a frame boundary with nothing pipelined behind it.
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// The next frame's payload, reading from `r` only if no whole frame
    /// is buffered. Same verdicts as [`read_frame`]: `Closed` for EOF at
    /// a frame boundary, `UnexpectedEof` for EOF inside a frame,
    /// `BadLength` before any payload byte is awaited or allocated for.
    pub fn read_frame(&mut self, r: &mut impl Read) -> Result<&[u8], FrameError> {
        let frame = loop {
            if let Some(frame) = self.take_buffered()? {
                break frame;
            }
            match r.read(&mut self.buf[self.end..]) {
                Ok(0) if self.buffered() == 0 => return Err(FrameError::Closed),
                Ok(0) => return Err(truncated()),
                Ok(n) => self.end += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(FrameError::Io(e)),
            }
        };
        Ok(&self.buf[frame])
    }

    /// Consumes the frame at the head of the buffer if it is complete.
    /// Otherwise makes room for the rest of it — only after its length
    /// passed the check — and answers `None`.
    fn take_buffered(&mut self) -> Result<Option<Range<usize>>, FrameError> {
        if self.buffered() == 0 {
            self.start = 0;
            self.end = 0;
            if self.buf.len() > READ_BUF {
                self.buf = vec![0; READ_BUF];
            }
            return Ok(None);
        }
        let mut need = PREFIX;
        if self.buffered() >= PREFIX {
            let prefix: [u8; PREFIX] = self.buf[self.start..self.start + PREFIX]
                .try_into()
                .expect("slice of PREFIX bytes");
            need += check_len(u32::from_le_bytes(prefix) as usize)?;
            if self.buffered() >= need {
                let payload = self.start + PREFIX..self.start + need;
                self.start += need;
                return Ok(Some(payload));
            }
        }
        // A partial frame: move it to the front so the next read has the
        // whole remainder of the buffer to fill.
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() < need {
            self.buf.resize(need, 0);
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, &[0xff; 300]).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), vec![0xff; 300]);
        assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));
    }

    #[test]
    fn oversized_length_is_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            read_frame(&mut &buf[..]),
            Err(FrameError::BadLength(_))
        ));
        let mut reader = FrameReader::new();
        assert!(matches!(
            reader.read_frame(&mut &buf[..]),
            Err(FrameError::BadLength(_))
        ));
        assert_eq!(reader.buf.len(), READ_BUF, "no growth for a bad length");
    }

    #[test]
    fn zero_length_is_rejected() {
        let buf = 0u32.to_le_bytes();
        assert!(matches!(
            read_frame(&mut &buf[..]),
            Err(FrameError::BadLength(0))
        ));
    }

    #[test]
    fn truncated_payload_is_an_io_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&8u32.to_le_bytes());
        buf.extend_from_slice(b"abc"); // 3 of 8 promised bytes
        assert!(matches!(read_frame(&mut &buf[..]), Err(FrameError::Io(_))));
    }

    #[test]
    fn truncated_length_is_an_io_error() {
        let buf = [5u8, 0];
        assert!(matches!(read_frame(&mut &buf[..]), Err(FrameError::Io(_))));
    }

    /// Counts `write` calls; a frame must arrive in exactly one.
    struct CountingSink {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        let mut sink = CountingSink {
            writes: 0,
            bytes: Vec::new(),
        };
        write_frame(&mut sink, b"hello").unwrap();
        assert_eq!(sink.writes, 1);
        let mut writer = FrameWriter::new();
        writer.write(&mut sink, |b| b.push(7)).unwrap();
        writer
            .write(&mut sink, |b| b.extend_from_slice(b"xy"))
            .unwrap();
        assert_eq!(sink.writes, 3);
        let mut r = &sink.bytes[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), [7]);
        assert_eq!(read_frame(&mut r).unwrap(), b"xy");
    }

    #[test]
    fn write_refuses_what_the_peer_would_reject() {
        let mut sink = CountingSink {
            writes: 0,
            bytes: Vec::new(),
        };
        let too_big = vec![0u8; MAX_FRAME + 1];
        for payload in [&too_big[..], &[]] {
            let err = write_frame(&mut sink, payload).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        }
        assert_eq!(sink.writes, 0, "nothing reaches the wire");
        write_frame(&mut sink, &too_big[..MAX_FRAME]).unwrap();
    }

    #[test]
    fn reader_serves_pipelined_frames_from_one_read() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"one").unwrap();
        write_frame(&mut wire, b"two").unwrap();
        let mut r = &wire[..];
        let mut reader = FrameReader::new();
        assert_eq!(reader.read_frame(&mut r).unwrap(), b"one");
        assert!(r.is_empty(), "both frames arrived in the first read");
        assert_eq!(reader.buffered(), PREFIX + 3);
        assert_eq!(reader.read_frame(&mut r).unwrap(), b"two");
        assert_eq!(reader.buffered(), 0);
        assert!(matches!(reader.read_frame(&mut r), Err(FrameError::Closed)));
    }

    #[test]
    fn reader_grows_for_a_large_frame_and_shrinks_back() {
        let big = vec![0xabu8; 3 * READ_BUF];
        let mut wire = Vec::new();
        write_frame(&mut wire, &big).unwrap();
        write_frame(&mut wire, b"small").unwrap();
        let mut r = &wire[..];
        let mut reader = FrameReader::new();
        assert_eq!(reader.read_frame(&mut r).unwrap(), &big[..]);
        assert_eq!(reader.read_frame(&mut r).unwrap(), b"small");
        assert!(matches!(reader.read_frame(&mut r), Err(FrameError::Closed)));
        assert_eq!(reader.buf.len(), READ_BUF);
    }
}
