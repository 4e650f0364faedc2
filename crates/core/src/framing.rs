//! Length-prefixed binary framing primitives.
//!
//! The transport-agnostic half of the service's binary wire mode
//! (`DRQOS_WIRE=binary`), hoisted into the core so the inter-daemon
//! cluster protocol (`drqos-cluster`) can share the exact same framing
//! without depending on the service crate. A frame is:
//!
//! ```text
//! [u32 LE len] [body: len bytes]
//! ```
//!
//! `len` counts the bytes after the length field and is capped at
//! [`MAX_FRAME_BYTES`]; a larger announced length is unrecoverable (the
//! stream cannot be resynchronized) and closes the connection. What the
//! body *means* is the caller's business: `drqos_service::frame` layers
//! the client request/response opcodes on top, `drqos_cluster::proto`
//! layers the coordinator/member messages.
//!
//! The same accumulator also cuts the text framing's newline-terminated
//! lines ([`FrameReader::next_line`]) under the same byte cap, so a served
//! connection has one bounded buffer whichever framing it speaks.

use std::io::{self, Read};

/// Hard cap on a frame body or a text line; a larger announced length —
/// or that many bytes without a newline — is unrecoverable (the stream
/// cannot be resynchronized) and closes the connection.
pub const MAX_FRAME_BYTES: usize = 64 * 1024;

/// The one cap check: `len` bytes of one `unit` ("frame" or "line").
fn within_cap(unit: &str, len: usize) -> io::Result<usize> {
    if len <= MAX_FRAME_BYTES {
        return Ok(len);
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{unit} length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"),
    ))
}

/// Prepends the little-endian length field to a frame body, yielding a
/// complete frame ready to write.
pub fn finish(body: Vec<u8>) -> Vec<u8> {
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend(body);
    frame
}

/// Appends a little-endian `u64` to a frame body.
pub fn put_u64(body: &mut Vec<u8>, v: u64) {
    body.extend_from_slice(&v.to_le_bytes());
}

/// Reads the little-endian `u64` at byte offset `at` (`None` if the body
/// is too short).
pub fn get_u64(body: &[u8], at: usize) -> Option<u64> {
    let bytes: [u8; 8] = body.get(at..at + 8)?.try_into().ok()?;
    Some(u64::from_le_bytes(bytes))
}

/// What one [`FrameReader::fill`] call observed on the stream.
#[derive(Debug, PartialEq, Eq)]
pub enum Fill {
    /// Bytes arrived (there may now be a complete frame).
    Data,
    /// Clean end of stream.
    Eof,
    /// The read timed out or would block; poll again.
    Idle,
}

/// Incremental accumulator for a non-blocking (timeout-polled) stream:
/// bytes are buffered across short reads, and complete request units —
/// frames or lines — pop out as they close, so a unit split across any
/// number of packets reassembles exactly.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pops the next complete frame body, if one is fully buffered.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the announced length exceeds
    /// [`MAX_FRAME_BYTES`] — the connection cannot be resynchronized.
    pub fn next_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        let Some(len_bytes) = self.buf.get(..4).and_then(|b| <[u8; 4]>::try_from(b).ok()) else {
            return Ok(None);
        };
        let len = within_cap("frame", u32::from_le_bytes(len_bytes) as usize)?;
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let mut frame: Vec<u8> = self.buf.drain(..4 + len).collect();
        frame.drain(..4);
        Ok(Some(frame))
    }

    /// Pops the next complete line, if its newline is buffered, without
    /// the terminator (`\n`, or `\r\n`).
    ///
    /// # Errors
    ///
    /// `InvalidData` when the line — terminated or not yet — is longer
    /// than [`MAX_FRAME_BYTES`]: a peer that never sends a newline must
    /// not grow the buffer without limit.
    pub fn next_line(&mut self) -> io::Result<Option<Vec<u8>>> {
        let newline = self.buf.iter().position(|&b| b == b'\n');
        within_cap("line", newline.unwrap_or(self.buf.len()))?;
        let Some(end) = newline else {
            return Ok(None);
        };
        let mut line: Vec<u8> = self.buf.drain(..=end).collect();
        line.pop();
        while line.last() == Some(&b'\r') {
            line.pop();
        }
        Ok(Some(line))
    }

    /// Reads once from `r` into the buffer.
    ///
    /// # Errors
    ///
    /// Hard I/O errors; timeouts and `WouldBlock` surface as
    /// [`Fill::Idle`].
    pub fn fill(&mut self, r: &mut impl Read) -> io::Result<Fill> {
        let mut chunk = [0u8; 4096];
        match r.read(&mut chunk) {
            Ok(0) => Ok(Fill::Eof),
            Ok(n) => {
                self.buf
                    .extend_from_slice(chunk.get(..n).unwrap_or_default());
                Ok(Fill::Data)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                Ok(Fill::Idle)
            }
            Err(e) => Err(e),
        }
    }
}

/// Reads one complete frame body from a blocking stream (client side).
///
/// # Errors
///
/// `UnexpectedEof` on a torn frame, `InvalidData` past the length cap,
/// plus any underlying I/O error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let mut body = vec![0u8; within_cap("frame", u32::from_le_bytes(len_bytes) as usize)?];
    r.read_exact(&mut body)?;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_round_trip_and_short_reads() {
        let mut body = Vec::new();
        put_u64(&mut body, 7);
        put_u64(&mut body, u64::MAX);
        assert_eq!(get_u64(&body, 0), Some(7));
        assert_eq!(get_u64(&body, 8), Some(u64::MAX));
        assert_eq!(get_u64(&body, 9), None, "short read must not panic");
    }

    #[test]
    fn finish_prefixes_the_body_length() {
        let frame = finish(vec![1, 2, 3]);
        assert_eq!(&frame[..4], &3u32.to_le_bytes());
        assert_eq!(&frame[4..], &[1, 2, 3]);
        let mut stream = &frame[..];
        assert_eq!(read_frame(&mut stream).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn reader_reassembles_byte_by_byte() {
        let mut bytes = Vec::new();
        for body in [vec![9u8; 5], vec![], vec![1, 2]] {
            bytes.extend(finish(body));
        }
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        for b in bytes {
            let mut one = &[b][..];
            assert_eq!(reader.fill(&mut one).unwrap(), Fill::Data);
            while let Some(body) = reader.next_frame().unwrap() {
                frames.push(body);
            }
        }
        assert_eq!(frames, vec![vec![9u8; 5], vec![], vec![1, 2]]);
        assert!(reader.buf.is_empty());
    }

    #[test]
    fn lines_reassemble_byte_by_byte_and_are_capped_like_frames() {
        let mut reader = FrameReader::new();
        let mut lines = Vec::new();
        for b in b"RELEASE 7\r\n\nSNAP".iter().chain(b"SHOT\npartial") {
            let mut one = &[*b][..];
            assert_eq!(reader.fill(&mut one).unwrap(), Fill::Data);
            while let Some(line) = reader.next_line().unwrap() {
                lines.push(line);
            }
        }
        assert_eq!(lines, [&b"RELEASE 7"[..], b"", b"SNAPSHOT"]);
        assert_eq!(
            reader.buf, b"partial",
            "the unterminated tail stays buffered"
        );
        // Exactly the cap is a line; one byte more is not, with or
        // without its newline.
        let mut at_cap = vec![b'x'; MAX_FRAME_BYTES];
        let mut reader = FrameReader::new();
        reader.buf.clone_from(&at_cap);
        assert_eq!(reader.next_line().unwrap(), None);
        reader.buf.push(b'\n');
        assert_eq!(reader.next_line().unwrap(), Some(at_cap.clone()));
        at_cap.push(b'x');
        reader.buf.clone_from(&at_cap);
        assert!(reader.next_line().is_err(), "unterminated and over the cap");
        reader.buf.push(b'\n');
        assert!(reader.next_line().is_err(), "terminated and over the cap");
    }

    #[test]
    fn oversized_announcements_are_rejected_on_both_paths() {
        let huge = ((MAX_FRAME_BYTES as u32) + 1).to_le_bytes();
        let mut reader = FrameReader::new();
        let mut stream = &huge[..];
        assert_eq!(reader.fill(&mut stream).unwrap(), Fill::Data);
        assert!(reader.next_frame().is_err());
        let mut stream = &huge[..];
        assert!(read_frame(&mut stream).is_err());
    }
}
