//! Length-prefixed framing with hard size caps.
//!
//! Every byte on an `ipd` socket travels inside one of these frames:
//! a little-endian `u32` length followed by that many body bytes. The
//! length is validated against a hard cap *before* any allocation, so
//! a hostile prefix cannot reserve memory, and a client's reads can be
//! bounded by a deadline.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::error::WireError;

/// Default maximum frame body size (1 MiB) — a sanity bound against
/// corruption and hostile length prefixes.
pub const DEFAULT_MAX_FRAME: u32 = 1 << 20;

/// Writes one frame as a single buffer (one syscall on a socket).
///
/// # Errors
///
/// Refuses bodies over `max_frame` (the peer would refuse them too)
/// and propagates writer failures.
pub fn write_frame<W: Write>(mut writer: W, body: &[u8], max_frame: u32) -> Result<(), WireError> {
    if body.len() > max_frame as usize {
        return Err(WireError::protocol(format!(
            "refusing to send {}-byte frame over the {max_frame}-byte cap",
            body.len()
        )));
    }
    let mut buf = Vec::with_capacity(4 + body.len());
    buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
    buf.extend_from_slice(body);
    writer.write_all(&buf)?;
    writer.flush()?;
    Ok(())
}

/// Reads one frame from a `TcpStream`, retuning the socket's read
/// timeout each iteration to the *remaining* deadline so a short
/// timeout cannot overshoot by a whole poll increment. `deadline` of
/// `None` blocks until the stream delivers or fails.
///
/// # Errors
///
/// - [`WireError::Deadline`] when the deadline expires.
/// - [`WireError::Protocol`] on an oversized length prefix.
/// - [`WireError::Io`] on transport failures (including EOF).
pub fn read_frame_deadline(
    stream: &TcpStream,
    max_frame: u32,
    deadline: Option<Duration>,
) -> Result<Vec<u8>, WireError> {
    let due = deadline.map(|d| Instant::now() + d);
    let mut header = [0u8; 4];
    read_exact_deadline(stream, &mut header, due, "frame header")?;
    let mut body = vec![0u8; frame_len(header, max_frame)?];
    read_exact_deadline(stream, &mut body, due, "frame body")?;
    Ok(body)
}

/// Fills `buf` from the stream, tightening the socket read timeout to
/// the time remaining before `due` on every pass.
fn read_exact_deadline(
    stream: &TcpStream,
    buf: &mut [u8],
    due: Option<Instant>,
    during: &'static str,
) -> Result<(), WireError> {
    let mut filled = 0usize;
    if due.is_none() {
        stream.set_read_timeout(None)?;
    }
    while filled < buf.len() {
        if let Some(due) = due {
            let remaining = due.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(WireError::Deadline { during });
            }
            // set_read_timeout(Some(ZERO)) is an error; clamp up.
            stream.set_read_timeout(Some(remaining.max(Duration::from_millis(1))))?;
        }
        match (&mut &*stream).read(&mut buf[filled..]) {
            Ok(0) => return Err(WireError::Io(ErrorKind::UnexpectedEof.into())),
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Reads one frame, enforcing the size cap before allocating.
///
/// # Errors
///
/// Fails on I/O errors (an EOF before or inside a frame is
/// [`ErrorKind::UnexpectedEof`]) and oversized length prefixes.
pub fn read_frame<R: Read>(mut reader: R, max_frame: u32) -> Result<Vec<u8>, WireError> {
    let mut header = [0u8; 4];
    reader.read_exact(&mut header)?;
    let mut body = vec![0u8; frame_len(header, max_frame)?];
    reader.read_exact(&mut body)?;
    Ok(body)
}

/// The body length a frame header declares, refused over `max_frame`
/// so that no read allocates for a hostile prefix.
pub(crate) fn frame_len(header: [u8; 4], max_frame: u32) -> Result<usize, WireError> {
    let len = u32::from_le_bytes(header);
    if len > max_frame {
        return Err(WireError::protocol(format!(
            "declared frame of {len} bytes exceeds the {max_frame}-byte cap"
        )));
    }
    Ok(len as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello", DEFAULT_MAX_FRAME).unwrap();
        write_frame(&mut buf, b"", DEFAULT_MAX_FRAME).unwrap();
        let mut cursor = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap(),
            b"hello"
        );
        assert_eq!(read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap(), b"");
        assert!(matches!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME),
            Err(WireError::Io(_))
        ));
    }

    #[test]
    fn oversized_prefix_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(Cursor::new(buf), DEFAULT_MAX_FRAME),
            Err(WireError::Protocol { .. })
        ));
        // Refusing to *send* oversized frames, too.
        let big = vec![0u8; 17];
        assert!(write_frame(Vec::new(), &big, 16).is_err());
    }

    #[test]
    fn eof_mid_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello", DEFAULT_MAX_FRAME).unwrap();
        buf.truncate(6); // header + 2 body bytes
        assert!(matches!(
            read_frame(Cursor::new(buf), DEFAULT_MAX_FRAME),
            Err(WireError::Io(_))
        ));
    }
}
