//! Length-prefixed framing over a byte stream.
//!
//! Every protocol message — in both directions — is one *frame*: a 4-byte
//! big-endian length followed by that many bytes of UTF-8 JSON.  Framing is
//! where most of the daemon's robustness lives: the length is validated
//! against a configurable ceiling *before* any allocation, truncated frames
//! are distinguished from clean closes, and read timeouts surface as their
//! own error variants, an idle peer apart from one stalled mid-frame (the
//! slow-loris defence), so the server can answer with a structured `timeout`
//! error before hanging up.

use std::io::{Read, Write};

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection mid-frame (after the prefix, or
    /// partway through either the prefix or the body).
    Truncated,
    /// The length prefix announced a body larger than the negotiated ceiling.
    /// The connection must be dropped: the body was not consumed.
    TooLarge {
        /// The announced body length.
        announced: u64,
        /// The ceiling it exceeded.
        max: usize,
    },
    /// The socket read timeout expired before any byte of a frame arrived:
    /// the peer is idle between frames.
    Idle,
    /// The socket read timeout expired mid-frame.
    TimedOut,
    /// Any other transport failure.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "connection closed mid-frame"),
            FrameError::TooLarge { announced, max } => {
                write!(f, "frame of {announced} bytes exceeds the {max}-byte limit")
            }
            FrameError::Idle => write!(f, "timed out waiting for a frame"),
            FrameError::TimedOut => write!(f, "timed out waiting for frame bytes"),
            FrameError::Io(err) => write!(f, "frame transport error: {err}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(err: std::io::Error) -> Self {
        match err.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => FrameError::TimedOut,
            std::io::ErrorKind::UnexpectedEof => FrameError::Truncated,
            _ => FrameError::Io(err),
        }
    }
}

/// Reads one frame body. `Ok(None)` is a clean close (EOF exactly on a frame
/// boundary); EOF anywhere else is [`FrameError::Truncated`].  A timeout
/// before the first byte is [`FrameError::Idle`], after it
/// [`FrameError::TimedOut`].
pub fn read_frame(reader: &mut impl Read, max_len: usize) -> Result<Option<Vec<u8>>, FrameError> {
    let mut prefix = [0u8; 4];
    let mut got = match reader.read(&mut prefix[..]).map_err(FrameError::from) {
        Ok(0) => return Ok(None),
        Ok(got) => got,
        Err(FrameError::TimedOut) => return Err(FrameError::Idle),
        Err(err) => return Err(err),
    };
    while got < 4 {
        match reader.read(&mut prefix[got..])? {
            0 => return Err(FrameError::Truncated),
            n => got += n,
        }
    }
    let announced = u32::from_be_bytes(prefix) as u64;
    if announced > max_len as u64 {
        return Err(FrameError::TooLarge {
            announced,
            max: max_len,
        });
    }
    let mut body = vec![0u8; announced as usize];
    let mut filled = 0;
    while filled < body.len() {
        match reader.read(&mut body[filled..])? {
            0 => return Err(FrameError::Truncated),
            n => filled += n,
        }
    }
    Ok(Some(body))
}

/// Writes one frame (prefix + body) in a single write, and flushes.  Over
/// TCP a separate write of the prefix would let Nagle's algorithm hold the
/// body back until the peer acknowledged the prefix.
pub fn write_frame(writer: &mut impl Write, body: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(body.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame body exceeds u32")
    })?;
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(body);
    writer.write_all(&frame)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn round_trips_a_frame() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"{\"op\":\"stats\"}").unwrap();
        let mut cursor = Cursor::new(wire);
        let body = read_frame(&mut cursor, 1 << 20).unwrap().unwrap();
        assert_eq!(body, b"{\"op\":\"stats\"}");
        assert!(read_frame(&mut cursor, 1 << 20).unwrap().is_none());
    }

    #[test]
    fn clean_eof_is_none_but_partial_prefix_is_truncated() {
        let mut empty = Cursor::new(Vec::new());
        assert!(read_frame(&mut empty, 64).unwrap().is_none());

        let mut partial = Cursor::new(vec![0u8, 0, 0]);
        assert!(matches!(
            read_frame(&mut partial, 64),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn truncated_body_is_reported() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abcdef").unwrap();
        wire.truncate(wire.len() - 2);
        let mut cursor = Cursor::new(wire);
        assert!(matches!(
            read_frame(&mut cursor, 64),
            Err(FrameError::Truncated)
        ));
    }

    /// Yields `bytes`, then times out as a socket with a read timeout does.
    struct Stalls(Cursor<Vec<u8>>);

    impl Read for Stalls {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.0.read(buf)? {
                0 => Err(std::io::ErrorKind::WouldBlock.into()),
                n => Ok(n),
            }
        }
    }

    #[test]
    fn a_timeout_between_frames_is_idle_but_mid_frame_is_timed_out() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abcdef").unwrap();
        let mut idle = Stalls(Cursor::new(wire.clone()));
        assert!(read_frame(&mut idle, 64).unwrap().is_some());
        assert!(matches!(read_frame(&mut idle, 64), Err(FrameError::Idle)));

        for cut in [2, 6] {
            let mut stalled = Stalls(Cursor::new(wire[..cut].to_vec()));
            assert!(matches!(
                read_frame(&mut stalled, 64),
                Err(FrameError::TimedOut)
            ));
        }
    }

    #[test]
    fn oversized_prefix_is_rejected_without_allocating() {
        let mut wire = u32::MAX.to_be_bytes().to_vec();
        wire.extend_from_slice(b"ignored");
        let mut cursor = Cursor::new(wire);
        match read_frame(&mut cursor, 1024) {
            Err(FrameError::TooLarge { announced, max }) => {
                assert_eq!(announced, u32::MAX as u64);
                assert_eq!(max, 1024);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }
}
