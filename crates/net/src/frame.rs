//! Length-prefixed, checksummed framing for the TCP transport.
//!
//! Every message on a LocoFS socket is one frame:
//!
//! ```text
//!  0      2      3      4             12            16          20
//!  +------+------+------+-------------+-------------+-----------+----
//!  | "LW" | ver  | kind | req_id (LE) | len (LE)    | crc32(LE) | payload…
//!  | 2 B  | 1 B  | 1 B  | 8 B         | 4 B         | 4 B       | len B
//!  +------+------+------+-------------+-------------+-----------+----
//! ```
//!
//! * `ver` is the protocol version ([`VERSION`]); a mismatch closes the
//!   connection — there is no negotiation.
//! * `kind` routes the payload: request, response, or control.
//! * `req_id` pairs a reply with its request. The client sends one call
//!   at a time per connection and checks that the reply echoes its
//!   `req_id`; the server still accepts pipelined frames on one
//!   connection and answers each with its own `req_id`.
//! * `len` is validated against [`MAX_PAYLOAD`] *before* any
//!   allocation, so a corrupt length cannot balloon memory.
//! * `crc32` (IEEE) covers the payload; a mismatch is surfaced as an
//!   [`std::io::ErrorKind::InvalidData`] error — corruption is
//!   *rejected*, never trusted and never a panic.

use std::io::{self, Read, Write};

/// Frame magic: the first two bytes of every frame.
pub const MAGIC: [u8; 2] = *b"LW";
/// Protocol version byte. Bump on any incompatible codec change.
///
/// * v1 — original codec.
/// * v2 — `RpcResponse` gained the `repl` replication stamp between
///   `span` and `body`, and `ReplInfo` gained `silence_ms`; a v1 peer
///   would mis-decode every reply, so the version gate turns a mixed
///   rolling upgrade into a clean connection error instead.
/// * v3 — `RpcRequest` gained a leading fixed-width `budget_ms`
///   deadline field (loco-guard), and [`FrameKind::Error`] was added
///   for fast guard rejections (shed / expired). A v2 peer would read
///   the budget bytes as the trace tag, so again: clean header-level
///   rejection, no negotiation.
pub const VERSION: u8 = 3;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 20;
/// Hard cap on a frame payload — matches the codec's
/// `loco_types::wire::MAX_WIRE_LEN`.
pub const MAX_PAYLOAD: usize = 64 << 20;

/// What a frame's payload contains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// An `RpcRequest` (client → server).
    Request,
    /// An `RpcResponse` (server → client), `req_id` echoes the request.
    Response,
    /// A `Control` message (ping, metrics scrape, shutdown).
    Control,
    /// A guard rejection (server → client), `req_id` echoes the
    /// request. Payload is a single reject-code byte
    /// ([`crate::rpc::REJECT_OVERLOADED`] / [`crate::rpc::REJECT_EXPIRED`])
    /// — cheap enough to send for a request the server refused to
    /// decode.
    Error,
}

impl FrameKind {
    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Request => 0,
            FrameKind::Response => 1,
            FrameKind::Control => 2,
            FrameKind::Error => 3,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(FrameKind::Request),
            1 => Some(FrameKind::Response),
            2 => Some(FrameKind::Control),
            3 => Some(FrameKind::Error),
            _ => None,
        }
    }
}

/// One decoded frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Payload routing kind.
    pub kind: FrameKind,
    /// Request id, echoed by the reply (0 for control frames).
    pub req_id: u64,
    /// The framed bytes (a `Wire`-encoded value).
    pub payload: Vec<u8>,
}

// CRC32 lives in loco-types so the WAL and snapshot formats (loco-kv)
// share the exact same checksum; re-exported here for compatibility.
pub use loco_types::checksum::crc32;

// ----- encode / decode --------------------------------------------------

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Serialize a frame header + payload into one buffer, so a frame
/// reaches the socket in one write.
pub fn encode_frame(kind: FrameKind, req_id: u64, payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= MAX_PAYLOAD, "frame payload over limit");
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    buf.extend_from_slice(&MAGIC);
    buf.push(VERSION);
    buf.push(kind.to_byte());
    buf.extend_from_slice(&req_id.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// Write one frame to `w` (single `write_all`). A payload over
/// [`MAX_PAYLOAD`] writes nothing and fails with `InvalidInput`.
pub fn write_frame(
    w: &mut impl Write,
    kind: FrameKind,
    req_id: u64,
    payload: &[u8],
) -> io::Result<()> {
    if payload.len() > MAX_PAYLOAD {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload length {} over limit", payload.len()),
        ));
    }
    w.write_all(&encode_frame(kind, req_id, payload))
}

/// Parse and validate a frame header. Returns `(kind, req_id,
/// payload_len)`.
pub fn decode_header(header: &[u8; HEADER_LEN]) -> io::Result<(FrameKind, u64, usize, u32)> {
    if header[0..2] != MAGIC {
        return Err(bad(format!(
            "bad frame magic {:02x}{:02x}",
            header[0], header[1]
        )));
    }
    if header[2] != VERSION {
        return Err(bad(format!(
            "protocol version mismatch: peer {} vs local {VERSION}",
            header[2]
        )));
    }
    let kind = FrameKind::from_byte(header[3])
        .ok_or_else(|| bad(format!("unknown frame kind {}", header[3])))?;
    let req_id = u64::from_le_bytes(header[4..12].try_into().unwrap());
    let len = u32::from_le_bytes(header[12..16].try_into().unwrap()) as usize;
    if len > MAX_PAYLOAD {
        return Err(bad(format!("frame payload length {len} over limit")));
    }
    let crc = u32::from_le_bytes(header[16..20].try_into().unwrap());
    Ok((kind, req_id, len, crc))
}

/// Read one frame from `r`. A clean EOF before the first header byte
/// returns `Ok(None)` (peer closed between frames); any other short
/// read, bad magic/version/kind, oversized length or CRC mismatch is an
/// error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Frame>> {
    let mut header = [0u8; HEADER_LEN];
    // First byte distinguishes clean close from mid-frame truncation.
    match r.read(&mut header[..1])? {
        0 => return Ok(None),
        _ => r.read_exact(&mut header[1..])?,
    }
    let (kind, req_id, len, crc) = decode_header(&header)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    if crc32(&payload) != crc {
        return Err(bad(format!("frame {req_id} payload checksum mismatch")));
    }
    Ok(Some(Frame {
        kind,
        req_id,
        payload,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_roundtrip() {
        let bytes = encode_frame(FrameKind::Request, 42, b"hello");
        let frame = read_frame(&mut &bytes[..]).unwrap().unwrap();
        assert_eq!(frame.kind, FrameKind::Request);
        assert_eq!(frame.req_id, 42);
        assert_eq!(frame.payload, b"hello");
    }

    #[test]
    fn empty_payload_roundtrip() {
        let bytes = encode_frame(FrameKind::Control, 0, b"");
        let frame = read_frame(&mut &bytes[..]).unwrap().unwrap();
        assert_eq!(frame.payload, b"");
    }

    #[test]
    fn error_kind_roundtrip() {
        let bytes = encode_frame(FrameKind::Error, 9, &[1]);
        let frame = read_frame(&mut &bytes[..]).unwrap().unwrap();
        assert_eq!(frame.kind, FrameKind::Error);
        assert_eq!(frame.req_id, 9);
        assert_eq!(frame.payload, [1]);
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(read_frame(&mut &b""[..]).unwrap().is_none());
    }

    #[test]
    fn truncated_header_is_error() {
        let bytes = encode_frame(FrameKind::Request, 1, b"abc");
        for cut in 1..HEADER_LEN {
            assert!(read_frame(&mut &bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn truncated_payload_is_error() {
        let bytes = encode_frame(FrameKind::Request, 1, b"abcdef");
        for cut in HEADER_LEN..bytes.len() {
            assert!(read_frame(&mut &bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_bytes_rejected_not_panicked() {
        let clean = encode_frame(FrameKind::Response, 7, b"payload bytes");
        for i in 0..clean.len() {
            let mut evil = clean.clone();
            evil[i] ^= 0x40;
            // Flipping req_id bits still parses (req_id is not covered
            // by the crc — the payload is); everything else must fail.
            let parsed = read_frame(&mut &evil[..]);
            if (4..12).contains(&i) {
                assert!(parsed.is_ok(), "req_id flip at {i} parses");
            } else {
                assert!(parsed.is_err(), "flip at byte {i} must be rejected");
            }
        }
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut bytes = encode_frame(FrameKind::Request, 1, b"x");
        // Rewrite the length field to 3 GiB.
        bytes[12..16].copy_from_slice(&(3u32 << 30).to_le_bytes());
        let err = read_frame(&mut &bytes[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_payload_is_refused_before_any_byte_is_written() {
        let payload = vec![0u8; MAX_PAYLOAD + 1];
        let mut sink = Vec::new();
        let err = write_frame(&mut sink, FrameKind::Request, 1, &payload).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(sink.is_empty());
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut bytes = encode_frame(FrameKind::Request, 1, b"x");
        bytes[2] = VERSION + 1;
        assert!(read_frame(&mut &bytes[..]).is_err());
    }
}
