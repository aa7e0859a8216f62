//! The `mp-serve` wire protocol: length-prefixed frames over a byte
//! stream.
//!
//! The framing is deliberately thin. A collector session's payload is
//! the `MPES` v3 stream format *verbatim* — the preamble and every
//! self-delimiting, checksummed chunk pass through untouched, so the
//! daemon lands raw segments byte-identical to what
//! `mp-collect --stream` would have written locally, and every
//! integrity property of the chunk format ([`memprof_store::StreamFile`]
//! truncation handling in particular) carries over to network ingest
//! for free.
//!
//! ```text
//! frame := tag:u8 len:u32le payload(len)
//!
//! 1 HELLO     collector handshake: ver:u8, name:str16, window:str16
//! 2 HELLO_OK  server reply: assigned session id (str16)
//! 3 CHUNK     raw MPES v3 bytes (appended verbatim to the raw segment)
//! 4 END       collector is done (after the footer chunk)
//! 5 END_OK    server has made the session durable (data and directory
//!             entry synced); ERROR instead if the session was discarded
//! 6 QUERY     one query line (UTF-8)
//! 7 RESULT    query result text (UTF-8)
//! 8 ERROR     query/ingest failure message (UTF-8)
//! 9 WATCH     subscribe to one window (payload: window label, UTF-8)
//! 10 PUSH     one streamed summary frame (UTF-8, see below)
//!
//! str16 := len:u16le bytes
//! ```
//!
//! A connection is a *collector session* (HELLO first), a *query*
//! (QUERY first), or a *watch* (WATCH first); the daemon dispatches
//! on the first frame's tag. Query connections are one-shot: one
//! QUERY, one RESULT or ERROR, close.
//!
//! A watch connection stays open: the daemon pushes one PUSH frame
//! immediately and another every time the window's tier generation
//! advances (a session seals into it, compaction folds it, retention
//! ages its raw tier out), until either side closes. A PUSH payload
//! is one header line —
//!
//! ```text
//! window LABEL generation G events TOTAL
//! ```
//!
//! — followed by the same aggregate text a `stat LABEL` query would
//! return at that instant (or `no data` while the window is empty).
//! `TOTAL` sums every column's samples, so a dashboard can follow a
//! window's event total without parsing the body; it is monotone
//! non-decreasing over a connection's lifetime because seals only add
//! events and compaction only re-tiers them.

use std::io::{Read, Write};

/// Protocol version carried in HELLO; bumped on incompatible changes,
/// including a new MPES version, since CHUNK payloads are MPES bytes.
/// Version 2 carries MPES v3. A collector built against another
/// version is refused at HELLO with an ERROR naming both, before it
/// streams a session this daemon could not read.
pub const PROTO_VERSION: u8 = 2;

/// Frames larger than this are a protocol violation, not a payload.
pub const MAX_FRAME: usize = 64 << 20;

pub const TAG_HELLO: u8 = 1;
pub const TAG_HELLO_OK: u8 = 2;
pub const TAG_CHUNK: u8 = 3;
pub const TAG_END: u8 = 4;
pub const TAG_END_OK: u8 = 5;
pub const TAG_QUERY: u8 = 6;
pub const TAG_RESULT: u8 = 7;
pub const TAG_ERROR: u8 = 8;
pub const TAG_WATCH: u8 = 9;
pub const TAG_PUSH: u8 = 10;

/// One decoded frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    pub tag: u8,
    pub payload: Vec<u8>,
}

/// Why reading a frame stopped.
#[derive(Debug)]
pub enum WireError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The connection died mid-frame; the partial payload is returned
    /// so an ingest path can land what arrived (the chunk checksums
    /// make the damaged tail detectable on read).
    TruncatedFrame {
        tag: u8,
        partial: Vec<u8>,
    },
    /// No bytes arrived within the socket's read timeout while
    /// waiting *between* frames — the peer is idle or half-dead. A
    /// timeout that strikes mid-frame reports as
    /// [`WireError::TruncatedFrame`] instead, so ingest still lands
    /// the readable prefix.
    TimedOut,
    /// A frame violated the protocol (oversized, bad handshake...).
    Protocol(String),
    Io(std::io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed"),
            WireError::TruncatedFrame { tag, partial } => {
                write!(
                    f,
                    "connection died mid-frame (tag {tag}, {} bytes received)",
                    partial.len()
                )
            }
            WireError::TimedOut => write!(f, "connection idle past the read timeout"),
            WireError::Protocol(why) => write!(f, "protocol violation: {why}"),
            WireError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

/// Write one frame and flush it.
pub fn write_frame(w: &mut impl Write, tag: u8, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame exceeds 4 GiB")
    })?;
    let mut head = [0u8; 5];
    head[0] = tag;
    head[1..5].copy_from_slice(&len.to_le_bytes());
    w.write_all(&head)?;
    w.write_all(payload)?;
    w.flush()
}

/// True for the error kinds a socket read returns when its configured
/// read timeout expires with nothing received (`SO_RCVTIMEO` surfaces
/// as either, platform-dependently).
pub(crate) fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Read one frame. Distinguishes a clean close (between frames) from
/// a mid-frame disconnect, returning whatever partial payload arrived
/// in the latter case. On a transport with a read timeout, an expiry
/// between frames is [`WireError::TimedOut`]; an expiry mid-frame —
/// the peer started a frame and went silent — is treated like a
/// disconnect ([`WireError::TruncatedFrame`] with the partial bytes),
/// so a half-dead collector's readable prefix still lands.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, WireError> {
    let mut head = [0u8; 5];
    let mut got = 0usize;
    while got < head.len() {
        match r.read(&mut head[got..]) {
            Ok(0) if got == 0 => return Err(WireError::Closed),
            Ok(0) => {
                return Err(WireError::TruncatedFrame {
                    tag: head[0],
                    partial: Vec::new(),
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) && got == 0 => return Err(WireError::TimedOut),
            Err(e) if is_timeout(&e) => {
                return Err(WireError::TruncatedFrame {
                    tag: head[0],
                    partial: Vec::new(),
                })
            }
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let tag = head[0];
    let len = u32::from_le_bytes(head[1..5].try_into().unwrap()) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Protocol(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"
        )));
    }
    // The claimed length only bounds the read: the buffer grows with
    // the bytes that arrive, so a header claiming `MAX_FRAME` bytes
    // costs nothing until they come. `read_to_end` retries
    // `Interrupted` and keeps what arrived before an error.
    let mut payload = Vec::new();
    let truncated = match Read::take(&mut *r, len as u64).read_to_end(&mut payload) {
        Ok(got) => got < len,
        Err(e) if is_timeout(&e) => true,
        Err(e) => return Err(WireError::Io(e)),
    };
    if truncated {
        return Err(WireError::TruncatedFrame {
            tag,
            partial: payload,
        });
    }
    Ok(Frame { tag, payload })
}

/// Encode a length-prefixed string into a payload. Oversized strings
/// are truncated on a char boundary so the receiver never sees a
/// split UTF-8 sequence (which its `get_str16` would reject as a
/// protocol violation).
pub fn put_str16(out: &mut Vec<u8>, s: &str) {
    let mut end = s.len().min(u16::MAX as usize);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    out.extend_from_slice(&(end as u16).to_le_bytes());
    out.extend_from_slice(&s.as_bytes()[..end]);
}

/// Decode a length-prefixed string from `buf` at `*pos`.
pub fn get_str16(buf: &[u8], pos: &mut usize) -> Result<String, WireError> {
    let end = *pos + 2;
    let len_bytes: [u8; 2] = buf
        .get(*pos..end)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| WireError::Protocol("truncated string length".to_string()))?;
    let len = u16::from_le_bytes(len_bytes) as usize;
    let s = buf
        .get(end..end + len)
        .ok_or_else(|| WireError::Protocol("truncated string".to_string()))?;
    *pos = end + len;
    String::from_utf8(s.to_vec())
        .map_err(|_| WireError::Protocol("string is not UTF-8".to_string()))
}

/// Build the HELLO payload for a collector session.
pub fn hello_payload(name: &str, window: &str) -> Vec<u8> {
    let mut payload = vec![PROTO_VERSION];
    put_str16(&mut payload, name);
    put_str16(&mut payload, window);
    payload
}

/// Parse a HELLO payload into `(name, window)`.
pub fn parse_hello(payload: &[u8]) -> Result<(String, String), WireError> {
    let ver = *payload
        .first()
        .ok_or_else(|| WireError::Protocol("empty HELLO".to_string()))?;
    if ver != PROTO_VERSION {
        return Err(WireError::Protocol(format!(
            "protocol version {ver} (this daemon speaks {PROTO_VERSION})"
        )));
    }
    let mut pos = 1;
    let name = get_str16(payload, &mut pos)?;
    let window = get_str16(payload, &mut pos)?;
    Ok((name, window))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, TAG_CHUNK, b"hello chunk").unwrap();
        write_frame(&mut buf, TAG_END, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Frame {
                tag: TAG_CHUNK,
                payload: b"hello chunk".to_vec()
            }
        );
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Frame {
                tag: TAG_END,
                payload: Vec::new()
            }
        );
        assert!(matches!(read_frame(&mut r), Err(WireError::Closed)));
    }

    #[test]
    fn mid_frame_disconnect_returns_the_partial_payload() {
        let mut buf = Vec::new();
        write_frame(&mut buf, TAG_CHUNK, b"0123456789").unwrap();
        // Cut the stream 4 bytes into the payload.
        let cut = &buf[..5 + 4];
        let mut r = cut;
        match read_frame(&mut r) {
            Err(WireError::TruncatedFrame { tag, partial }) => {
                assert_eq!(tag, TAG_CHUNK);
                assert_eq!(partial, b"0123".to_vec());
            }
            other => panic!("expected TruncatedFrame, got {other:?}"),
        }
    }

    /// A header claiming the largest legal frame, then 10 bytes and
    /// EOF: the payload buffer holds what arrived, not what was
    /// claimed.
    #[test]
    fn a_claimed_length_allocates_only_what_arrives() {
        let mut buf = vec![TAG_CHUNK];
        buf.extend_from_slice(&(MAX_FRAME as u32).to_le_bytes());
        buf.extend_from_slice(b"0123456789");
        let mut r = &buf[..];
        match read_frame(&mut r) {
            Err(WireError::TruncatedFrame { tag, partial }) => {
                assert_eq!(tag, TAG_CHUNK);
                assert_eq!(partial, b"0123456789".to_vec());
                assert!(
                    partial.capacity() < 64 * 1024,
                    "{} bytes reserved for 10 received",
                    partial.capacity()
                );
            }
            other => panic!("expected TruncatedFrame, got {other:?}"),
        }
    }

    /// A reader that fails with `Interrupted` before every read that
    /// would return data.
    struct Interrupting<'a> {
        bytes: &'a [u8],
        interrupt: bool,
    }

    impl Read for Interrupting<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.interrupt = !self.interrupt;
            if self.interrupt {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            let n = buf.len().min(self.bytes.len()).min(3);
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn interrupted_reads_are_retried() {
        let mut buf = Vec::new();
        write_frame(&mut buf, TAG_CHUNK, b"hello chunk").unwrap();
        let mut r = Interrupting {
            bytes: &buf,
            interrupt: false,
        };
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Frame {
                tag: TAG_CHUNK,
                payload: b"hello chunk".to_vec()
            }
        );
    }

    #[test]
    fn hello_round_trips() {
        let payload = hello_payload("mcf-run", "w1");
        let (name, window) = parse_hello(&payload).unwrap();
        assert_eq!(name, "mcf-run");
        assert_eq!(window, "w1");
        assert!(parse_hello(&[9]).is_err());
        assert!(parse_hello(&[]).is_err());
    }

    #[test]
    fn put_str16_truncates_on_char_boundaries() {
        // 2-byte chars; 40000 of them overflow the u16 length field.
        let s = "é".repeat(40_000);
        let mut buf = Vec::new();
        put_str16(&mut buf, &s);
        let mut pos = 0;
        let back = get_str16(&buf, &mut pos).unwrap();
        assert!(back.len() <= u16::MAX as usize);
        assert!(s.starts_with(&back));
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let mut buf = Vec::new();
        buf.push(TAG_CHUNK);
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut r = &buf[..];
        assert!(matches!(read_frame(&mut r), Err(WireError::Protocol(_))));
    }
}
