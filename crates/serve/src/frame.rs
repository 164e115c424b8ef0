//! The length-prefixed batch frame around protocol messages.
//!
//! Layout (all integers little-endian):
//!
//! | offset | size | field | meaning |
//! |-------:|-----:|-------|---------|
//! | 0 | 4 | magic | [`MAGIC`] = `b"HSRV"` |
//! | 4 | 2 | version | [`PROTOCOL_VERSION`]; anything else is rejected |
//! | 6 | 1 | direction | 0 = request frame, 1 = response frame |
//! | 7 | 2 | count | messages in the batch |
//! | 9 | 4 | length | payload bytes that follow |
//! | 13 | length | payload | `count` messages back-to-back, each prefixed by its u32 byte length |
//!
//! Each message inside the payload carries its own u32 length prefix so
//! a reader can frame messages without understanding their content —
//! the shell/core split on the wire. [`Limits`] bounds everything an
//! attacker controls (payload length, batch size) **before** any
//! allocation, so a hostile length prefix costs the daemon nothing.
//!
//! The daemon's session reads with [`read_frame_into`], which fills a
//! payload buffer the session reuses, checks once that the message
//! prefixes tile it, and then hands out each message as a borrowed
//! slice. It encodes each reply frame in place with a
//! [`FrameEncoder`] over one reused output buffer. [`read_frame`],
//! [`encode_frame`] and [`write_frame`] are owned wrappers over the
//! same code, for clients and tests.

use std::fmt;
use std::io::{self, Read, Write};

/// Frame magic: `b"HSRV"`.
pub const MAGIC: [u8; 4] = *b"HSRV";

/// The protocol version this build speaks.
pub const PROTOCOL_VERSION: u16 = 1;

/// Frame header size in bytes.
pub const HEADER_LEN: usize = 13;

/// A request frame (client → daemon).
pub const DIR_REQUEST: u8 = 0;
/// A response frame (daemon → client).
pub const DIR_RESPONSE: u8 = 1;

/// Hostile-input bounds applied while reading a frame.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum payload length accepted (bytes).
    pub max_frame_len: u32,
    /// Maximum messages per frame.
    pub max_batch: u16,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_frame_len: 1 << 20, // 1 MiB
            max_batch: 4096,
        }
    }
}

/// Everything that can go wrong reading a frame.
#[derive(Debug)]
pub enum FrameError {
    /// The stream ended cleanly at a frame boundary (not an error for
    /// a connection: the peer hung up).
    Eof,
    /// The first four bytes are not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The version field is not [`PROTOCOL_VERSION`].
    BadVersion(u16),
    /// The direction byte is neither request nor response.
    BadDirection(u8),
    /// The payload length exceeds [`Limits::max_frame_len`].
    Oversized(u32),
    /// The batch count exceeds [`Limits::max_batch`].
    BatchTooLarge(u16),
    /// The payload's message length prefixes do not tile the payload.
    MisframedPayload,
    /// The stream ended mid-frame.
    Truncated,
    /// An underlying transport failure.
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Eof => write!(f, "end of stream"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (expected {PROTOCOL_VERSION})"
                )
            }
            FrameError::BadDirection(d) => write!(f, "bad direction byte {d:#04x}"),
            FrameError::Oversized(n) => write!(f, "frame payload of {n} bytes exceeds the limit"),
            FrameError::BatchTooLarge(n) => write!(f, "batch of {n} messages exceeds the limit"),
            FrameError::MisframedPayload => {
                write!(f, "message length prefixes do not tile the payload")
            }
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::Io(e) => write!(f, "transport: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// One decoded frame: direction plus the raw bytes of each message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// [`DIR_REQUEST`] or [`DIR_RESPONSE`].
    pub direction: u8,
    /// Each message's undecoded bytes.
    pub messages: Vec<Vec<u8>>,
}

/// A frame read into a caller-owned payload buffer by
/// [`read_frame_into`]. Its message length prefixes are already known
/// to tile the payload, so [`FrameRef::messages`] cannot fail.
#[derive(Debug, Clone, Copy)]
pub struct FrameRef<'a> {
    /// [`DIR_REQUEST`] or [`DIR_RESPONSE`].
    pub direction: u8,
    count: u16,
    payload: &'a [u8],
}

impl<'a> FrameRef<'a> {
    /// Messages in the frame.
    pub fn count(&self) -> usize {
        usize::from(self.count)
    }

    /// The frame's messages, in order, as slices of the payload buffer.
    pub fn messages(&self) -> Messages<'a> {
        Messages {
            rest: self.payload,
            left: self.count,
        }
    }
}

/// Iterator over a frame payload's length-prefixed messages.
#[derive(Debug, Clone)]
pub struct Messages<'a> {
    rest: &'a [u8],
    left: u16,
}

impl<'a> Iterator for Messages<'a> {
    type Item = &'a [u8];

    /// The next message, or `None` once `count` messages are taken or
    /// the remaining bytes do not hold a whole one.
    fn next(&mut self) -> Option<&'a [u8]> {
        if self.left == 0 {
            return None;
        }
        let (len, rest) = self.rest.split_first_chunk::<4>()?;
        let len = u32::from_le_bytes(*len) as usize;
        if rest.len() < len {
            return None;
        }
        let (message, rest) = rest.split_at(len);
        self.rest = rest;
        self.left -= 1;
        Some(message)
    }
}

/// Builds one frame in place in a reused buffer: the header first,
/// then each message behind its length prefix; [`FrameEncoder::finish`]
/// patches the message count and payload length into the header.
#[derive(Debug)]
pub struct FrameEncoder<'a> {
    out: &'a mut Vec<u8>,
    count: u16,
}

impl<'a> FrameEncoder<'a> {
    /// Start a `direction` frame in `out`, dropping what it held.
    pub fn new(out: &'a mut Vec<u8>, direction: u8) -> FrameEncoder<'a> {
        out.clear();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        out.push(direction);
        out.extend_from_slice(&[0; 6]); // count and length, patched by finish
        FrameEncoder { out, count: 0 }
    }

    /// Append one message, whose bytes `encode` writes.
    pub fn message(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        let at = self.out.len();
        self.out.extend_from_slice(&[0; 4]);
        encode(self.out);
        let len = (self.out.len() - at - 4) as u32;
        self.out[at..at + 4].copy_from_slice(&len.to_le_bytes());
        self.count = self.count.wrapping_add(1);
    }

    /// Patch the header and return the whole frame.
    pub fn finish(self) -> &'a [u8] {
        let out = self.out;
        let payload_len = (out.len() - HEADER_LEN) as u32;
        out[7..9].copy_from_slice(&self.count.to_le_bytes());
        out[9..13].copy_from_slice(&payload_len.to_le_bytes());
        out
    }
}

/// Encode a frame from already-encoded messages.
pub fn encode_frame(direction: u8, messages: &[Vec<u8>]) -> Vec<u8> {
    let payload_len: usize = messages.iter().map(|m| 4 + m.len()).sum();
    let mut out = Vec::with_capacity(HEADER_LEN + payload_len);
    let mut frame = FrameEncoder::new(&mut out, direction);
    for m in messages {
        frame.message(|buf| buf.extend_from_slice(m));
    }
    frame.finish();
    out
}

/// Write one frame to `w`.
///
/// # Errors
///
/// Propagates transport failures.
pub fn write_frame(
    w: &mut (impl Write + ?Sized),
    direction: u8,
    messages: &[Vec<u8>],
) -> io::Result<()> {
    w.write_all(&encode_frame(direction, messages))?;
    w.flush()
}

fn read_exact_or(
    r: &mut (impl Read + ?Sized),
    buf: &mut [u8],
    at_start: bool,
) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if at_start && filled == 0 {
                    FrameError::Eof
                } else {
                    FrameError::Truncated
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Read one frame from `r` into `payload`, enforcing `limits` before
/// the buffer grows, and check that its messages tile the payload.
/// `payload` is reused from frame to frame, so a session pays for its
/// largest frame once; it never grows past [`Limits::max_frame_len`].
///
/// # Errors
///
/// [`FrameError::Eof`] at a clean frame boundary; every other variant
/// names the specific protocol violation or transport failure.
pub fn read_frame_into<'a>(
    r: &mut (impl Read + ?Sized),
    limits: &Limits,
    payload: &'a mut Vec<u8>,
) -> Result<FrameRef<'a>, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    read_exact_or(r, &mut header, true)?;

    let magic: [u8; 4] = header[0..4].try_into().unwrap();
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(header[4..6].try_into().unwrap());
    if version != PROTOCOL_VERSION {
        return Err(FrameError::BadVersion(version));
    }
    let direction = header[6];
    if direction != DIR_REQUEST && direction != DIR_RESPONSE {
        return Err(FrameError::BadDirection(direction));
    }
    let count = u16::from_le_bytes(header[7..9].try_into().unwrap());
    if count > limits.max_batch {
        return Err(FrameError::BatchTooLarge(count));
    }
    let payload_len = u32::from_le_bytes(header[9..13].try_into().unwrap());
    if payload_len > limits.max_frame_len {
        return Err(FrameError::Oversized(payload_len));
    }
    // A message costs at least its 4-byte length prefix; a count the
    // payload cannot hold is rejected before reading it.
    if (count as u64) * 4 > u64::from(payload_len) {
        return Err(FrameError::MisframedPayload);
    }

    payload.clear();
    payload.resize(payload_len as usize, 0);
    read_exact_or(r, payload, false)?;

    let frame = FrameRef {
        direction,
        count,
        payload,
    };
    let mut tiles = frame.messages();
    if tiles.by_ref().count() != usize::from(count) || !tiles.rest.is_empty() {
        return Err(FrameError::MisframedPayload);
    }
    Ok(frame)
}

/// Read one frame from `r`, enforcing `limits` before any allocation:
/// [`read_frame_into`] with a fresh buffer and owned messages.
///
/// # Errors
///
/// As [`read_frame_into`].
pub fn read_frame(r: &mut (impl Read + ?Sized), limits: &Limits) -> Result<Frame, FrameError> {
    let mut payload = Vec::new();
    let frame = read_frame_into(r, limits, &mut payload)?;
    let mut messages = Vec::with_capacity(frame.count());
    messages.extend(frame.messages().map(<[u8]>::to_vec));
    Ok(Frame {
        direction: frame.direction,
        messages,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_of(msgs: &[&[u8]]) -> Vec<u8> {
        encode_frame(
            DIR_REQUEST,
            &msgs.iter().map(|m| m.to_vec()).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn frame_round_trip() {
        let bytes = frame_of(&[b"abc", b"", b"xyzzy"]);
        let frame = read_frame(&mut bytes.as_slice(), &Limits::default()).unwrap();
        assert_eq!(frame.direction, DIR_REQUEST);
        assert_eq!(
            frame.messages,
            vec![b"abc".to_vec(), Vec::new(), b"xyzzy".to_vec()]
        );
    }

    #[test]
    fn eof_is_distinct_from_truncation() {
        let empty: &[u8] = &[];
        assert!(matches!(
            read_frame(&mut { empty }, &Limits::default()),
            Err(FrameError::Eof)
        ));
        let bytes = frame_of(&[b"abc"]);
        for cut in 1..bytes.len() {
            let err = read_frame(&mut &bytes[..cut], &Limits::default()).unwrap_err();
            assert!(
                matches!(err, FrameError::Truncated),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn hostile_headers_are_rejected_before_allocation() {
        // Oversized length prefix: rejected from the header alone.
        let mut bytes = frame_of(&[b"abc"]);
        bytes[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut bytes.as_slice(), &Limits::default()),
            Err(FrameError::Oversized(u32::MAX))
        ));

        // Unknown version.
        let mut bytes = frame_of(&[b"abc"]);
        bytes[4..6].copy_from_slice(&7u16.to_le_bytes());
        assert!(matches!(
            read_frame(&mut bytes.as_slice(), &Limits::default()),
            Err(FrameError::BadVersion(7))
        ));

        // Bad magic.
        let mut bytes = frame_of(&[b"abc"]);
        bytes[0] = b'X';
        assert!(matches!(
            read_frame(&mut bytes.as_slice(), &Limits::default()),
            Err(FrameError::BadMagic(_))
        ));

        // A batch count the payload cannot possibly hold.
        let mut bytes = frame_of(&[b"abc"]);
        bytes[7..9].copy_from_slice(&100u16.to_le_bytes());
        assert!(matches!(
            read_frame(&mut bytes.as_slice(), &Limits::default()),
            Err(FrameError::MisframedPayload)
        ));
    }

    #[test]
    fn message_prefixes_must_tile_the_payload() {
        let mut bytes = frame_of(&[b"abc", b"de"]);
        // Grow the first message's length prefix past its bytes.
        let first_len_at = HEADER_LEN;
        bytes[first_len_at..first_len_at + 4].copy_from_slice(&200u32.to_le_bytes());
        assert!(matches!(
            read_frame(&mut bytes.as_slice(), &Limits::default()),
            Err(FrameError::MisframedPayload)
        ));
    }
}
