//! `Wire` — the hand-rolled binary codec for everything that crosses a
//! LocoFS RPC boundary.
//!
//! The workspace is deliberately dependency-free, so instead of serde
//! this module defines one small trait with explicit little-endian
//! encodings. The design rules, in the spirit of the paper's
//! fixed-layout values (§3.3.3):
//!
//! * **No panics on untrusted input.** Every `decode` returns a
//!   [`WireError`] for truncated buffers, unknown enum tags, bad UTF-8
//!   or absurd lengths — corrupt frames are *rejected*, not trusted.
//! * **No attacker-controlled allocation.** Length prefixes are checked
//!   against both a hard cap and the bytes actually remaining in the
//!   buffer before any allocation happens, so a frame claiming a
//!   4 GiB string cannot make the decoder reserve 4 GiB.
//! * **Explicit layout.** Integers are little-endian and fixed-width;
//!   enums are a one-byte tag followed by their fields; `Option` is a
//!   presence byte; sequences are a `u32` count.
//!
//! The trait is implemented here for the primitive vocabulary and for
//! every `loco-types` record; the per-server request/response enums
//! implement it in their own crates (`loco-dms`, `loco-fms`,
//! `loco-ostore`), and `loco-net` frames the result onto TCP sockets.

use crate::acl::Perm;
use crate::dirent::DirentKind;
use crate::error::FsError;
use crate::id::Uuid;
use crate::meta::{DirInode, FileAccess, FileContent};
use std::fmt;

/// Hard cap on any single length-prefixed field (strings, byte blobs,
/// sequences). Data-path payloads are chunked at the block size (≤ a
/// few MiB), so 64 MiB is generous while still bounding allocation.
pub const MAX_WIRE_LEN: usize = 64 << 20;

/// Decode failure. Encoding is infallible; decoding never panics and
/// never over-allocates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Buffer ended before the value was complete.
    Truncated,
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// Which type was being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A length prefix exceeded [`MAX_WIRE_LEN`] or the remaining
    /// buffer.
    Oversized {
        /// Which type was being decoded.
        what: &'static str,
        /// The claimed length.
        len: u64,
    },
    /// Bytes remained after the value was fully decoded (frame/value
    /// length mismatch).
    TrailingBytes,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated wire value"),
            WireError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag:#04x}"),
            WireError::BadUtf8 => write!(f, "invalid utf-8 in wire string"),
            WireError::Oversized { what, len } => {
                write!(f, "{what} length {len} exceeds wire limits")
            }
            WireError::TrailingBytes => write!(f, "trailing bytes after wire value"),
        }
    }
}

impl std::error::Error for WireError {}

/// Result alias for decoding.
pub type WireResult<T> = Result<T, WireError>;

/// Binary wire codec. `put` appends the encoding to `out`; `get`
/// consumes the encoding from the front of `buf`.
pub trait Wire: Sized {
    /// Append this value's encoding to `out`.
    fn put(&self, out: &mut Vec<u8>);
    /// Decode one value from the front of `buf`, advancing it past the
    /// consumed bytes.
    fn get(buf: &mut &[u8]) -> WireResult<Self>;

    /// Encode into a fresh buffer.
    fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.put(&mut out);
        out
    }

    /// Decode a value that must span the whole buffer (frame payloads).
    fn from_wire(mut buf: &[u8]) -> WireResult<Self> {
        let v = Self::get(&mut buf)?;
        if !buf.is_empty() {
            return Err(WireError::TrailingBytes);
        }
        Ok(v)
    }
}

// ----- primitive helpers ------------------------------------------------

/// Consume `n` raw bytes from the front of `buf`.
pub fn take<'a>(buf: &mut &'a [u8], n: usize) -> WireResult<&'a [u8]> {
    if buf.len() < n {
        return Err(WireError::Truncated);
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

/// Validate a length prefix against [`MAX_WIRE_LEN`] *and* the bytes
/// remaining, so corrupt prefixes cannot drive allocation.
pub fn checked_len(what: &'static str, len: u64, remaining: usize) -> WireResult<usize> {
    if len > MAX_WIRE_LEN as u64 || len > remaining as u64 {
        return Err(WireError::Oversized { what, len });
    }
    Ok(len as usize)
}

macro_rules! int_wire {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(buf: &mut &[u8]) -> WireResult<Self> {
                let b = take(buf, std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(b.try_into().unwrap()))
            }
        }
    )*};
}

int_wire!(u8, u16, u32, u64, i64);

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn get(buf: &mut &[u8]) -> WireResult<Self> {
        match u8::get(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { what: "bool", tag }),
        }
    }
}

// `usize` counts travel as u32: no metadata sequence needs more, and it
// keeps the format identical across architectures.
impl Wire for usize {
    fn put(&self, out: &mut Vec<u8>) {
        debug_assert!(*self <= u32::MAX as usize);
        (*self as u32).put(out);
    }
    fn get(buf: &mut &[u8]) -> WireResult<Self> {
        Ok(u32::get(buf)? as usize)
    }
}

impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn get(buf: &mut &[u8]) -> WireResult<Self> {
        let len = u32::get(buf)?;
        let len = checked_len("string", len as u64, buf.len())?;
        let bytes = take(buf, len)?;
        std::str::from_utf8(bytes)
            .map(str::to_string)
            .map_err(|_| WireError::BadUtf8)
    }
}

/// Generic sequences: `u32` count then each element. The count is
/// sanity-checked against the remaining bytes (every element costs at
/// least one byte) before any reservation.
macro_rules! seq_get {
    ($buf:ident, $what:literal) => {{
        let count = u32::get($buf)? as usize;
        if count > $buf.len() {
            return Err(WireError::Oversized {
                what: $what,
                len: count as u64,
            });
        }
        count
    }};
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        for item in self {
            item.put(out);
        }
    }
    fn get(buf: &mut &[u8]) -> WireResult<Self> {
        let count = seq_get!(buf, "sequence");
        let mut v = Vec::with_capacity(count);
        for _ in 0..count {
            v.push(T::get(buf)?);
        }
        Ok(v)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.put(out);
            }
        }
    }
    fn get(buf: &mut &[u8]) -> WireResult<Self> {
        match u8::get(buf)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(buf)?)),
            tag => Err(WireError::BadTag {
                what: "option",
                tag,
            }),
        }
    }
}

impl<T: Wire, E: Wire> Wire for Result<T, E> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Ok(v) => {
                out.push(0);
                v.put(out);
            }
            Err(e) => {
                out.push(1);
                e.put(out);
            }
        }
    }
    fn get(buf: &mut &[u8]) -> WireResult<Self> {
        match u8::get(buf)? {
            0 => Ok(Ok(T::get(buf)?)),
            1 => Ok(Err(E::get(buf)?)),
            tag => Err(WireError::BadTag {
                what: "result",
                tag,
            }),
        }
    }
}

impl Wire for () {
    fn put(&self, _out: &mut Vec<u8>) {}
    fn get(_buf: &mut &[u8]) -> WireResult<Self> {
        Ok(())
    }
}

macro_rules! tuple_wire {
    ($(($($n:tt $t:ident),+)),+) => {$(
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$n.put(out);)+
            }
            fn get(buf: &mut &[u8]) -> WireResult<Self> {
                Ok(($($t::get(buf)?,)+))
            }
        }
    )+};
}

tuple_wire!((0 A, 1 B), (0 A, 1 B, 2 C));

/// How a request touches server state. Admission control sheds
/// mutations while reads drain, and a client re-sends an idempotent
/// request after an ambiguous failure instead of reporting
/// `MaybeApplied`. Declared once per request, in its
/// [`impl_wire_enum!`](crate::impl_wire_enum) row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpClass {
    /// No mutation; safe to re-send.
    Read,
    /// Writes absolute values the caller supplies; safe to re-send.
    Set,
    /// A second landing is observable (e.g. `AlreadyExists` on a
    /// create that did land).
    Once,
}

impl OpClass {
    /// Whether the request may change server state.
    pub fn mutates(self) -> bool {
        self != OpClass::Read
    }

    /// Whether re-sending the request after an ambiguous failure is
    /// safe.
    pub fn idempotent(self) -> bool {
        self != OpClass::Once
    }
}

/// Implement [`Wire`] for an enum by writing a one-byte tag followed by
/// the variant's fields in declaration order. Two forms:
///
/// ```ignore
/// impl_wire_enum!(MyRequest, "my-request", {
///     0 => Get { key, len }: Read,
///     1 => Put { key, value }: Set,
///     2 => Append { key, value }: Once,
/// });
/// impl_wire_enum!(MyResponse, "my-response", tuple {
///     0 => Value(v),
///     1 => Done(r),
/// });
/// ```
///
/// The request (brace) form is the role's op table: each row ends with
/// the request's [`OpClass`], and the macro also generates
/// `label(&self)` (the variant name), `class(&self)` and
/// `class_of_tag(tag)` (`None` for a tag the decoder rejects).
///
/// Tags are part of the wire protocol: never renumber an existing
/// variant, only append.
#[macro_export]
macro_rules! impl_wire_enum {
    ($ty:ident, $what:literal, {
        $( $tag:literal => $variant:ident { $($f:ident),* $(,)? }: $class:ident ),+ $(,)?
    }) => {
        impl $crate::wire::Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $( $ty::$variant { $($f),* } => {
                        out.push($tag);
                        $( $crate::wire::Wire::put($f, out); )*
                    } )+
                }
            }
            fn get(buf: &mut &[u8]) -> $crate::wire::WireResult<Self> {
                match <u8 as $crate::wire::Wire>::get(buf)? {
                    $( $tag => Ok($ty::$variant {
                        $($f: $crate::wire::Wire::get(buf)?),*
                    }), )+
                    tag => Err($crate::wire::WireError::BadTag { what: $what, tag }),
                }
            }
        }

        impl $ty {
            /// The variant name: the request's metric and log label.
            pub fn label(&self) -> &'static str {
                match self {
                    $( $ty::$variant { .. } => stringify!($variant), )+
                }
            }

            /// How the request touches server state.
            pub fn class(&self) -> $crate::wire::OpClass {
                match self {
                    $( $ty::$variant { .. } => $crate::wire::OpClass::$class, )+
                }
            }

            /// The class of the request a wire tag encodes; `None` for
            /// a tag the decoder rejects.
            pub fn class_of_tag(tag: u8) -> Option<$crate::wire::OpClass> {
                match tag {
                    $( $tag => Some($crate::wire::OpClass::$class), )+
                    _ => None,
                }
            }
        }
    };
    ($ty:ident, $what:literal, tuple {
        $( $tag:literal => $variant:ident ($f:ident) ),+ $(,)?
    }) => {
        impl $crate::wire::Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $( $ty::$variant($f) => {
                        out.push($tag);
                        $crate::wire::Wire::put($f, out);
                    } )+
                }
            }
            fn get(buf: &mut &[u8]) -> $crate::wire::WireResult<Self> {
                match <u8 as $crate::wire::Wire>::get(buf)? {
                    $( $tag => Ok($ty::$variant($crate::wire::Wire::get(buf)?)), )+
                    tag => Err($crate::wire::WireError::BadTag { what: $what, tag }),
                }
            }
        }
    };
}

// ----- loco-types records ----------------------------------------------

impl Wire for Uuid {
    fn put(&self, out: &mut Vec<u8>) {
        self.raw().put(out);
    }
    fn get(buf: &mut &[u8]) -> WireResult<Self> {
        Ok(Uuid::from_raw(u64::get(buf)?))
    }
}

impl Wire for Perm {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Perm::Read => 0,
            Perm::Write => 1,
            Perm::Exec => 2,
        });
    }
    fn get(buf: &mut &[u8]) -> WireResult<Self> {
        match u8::get(buf)? {
            0 => Ok(Perm::Read),
            1 => Ok(Perm::Write),
            2 => Ok(Perm::Exec),
            tag => Err(WireError::BadTag { what: "perm", tag }),
        }
    }
}

impl Wire for DirentKind {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(match self {
            DirentKind::File => 0,
            DirentKind::Dir => 1,
        });
    }
    fn get(buf: &mut &[u8]) -> WireResult<Self> {
        match u8::get(buf)? {
            0 => Ok(DirentKind::File),
            1 => Ok(DirentKind::Dir),
            tag => Err(WireError::BadTag {
                what: "dirent-kind",
                tag,
            }),
        }
    }
}

impl Wire for FsError {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            FsError::NotFound => out.push(0),
            FsError::AlreadyExists => out.push(1),
            FsError::NotADirectory => out.push(2),
            FsError::IsADirectory => out.push(3),
            FsError::NotEmpty => out.push(4),
            FsError::PermissionDenied => out.push(5),
            FsError::InvalidArgument => out.push(6),
            FsError::Busy => out.push(7),
            FsError::Io(msg) => {
                out.push(8);
                msg.put(out);
            }
        }
    }
    fn get(buf: &mut &[u8]) -> WireResult<Self> {
        Ok(match u8::get(buf)? {
            0 => FsError::NotFound,
            1 => FsError::AlreadyExists,
            2 => FsError::NotADirectory,
            3 => FsError::IsADirectory,
            4 => FsError::NotEmpty,
            5 => FsError::PermissionDenied,
            6 => FsError::InvalidArgument,
            7 => FsError::Busy,
            8 => FsError::Io(String::get(buf)?),
            tag => {
                return Err(WireError::BadTag {
                    what: "fs-error",
                    tag,
                })
            }
        })
    }
}

// The metadata records reuse their storage images (§3.3.3's fixed
// layouts): the wire form of a d-inode IS the stored 256-byte value, so
// a server could in principle forward a KV value without re-encoding.
// (Access/content parts likewise: 32 and 40 bytes.)
impl Wire for DirInode {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.encode());
    }
    fn get(buf: &mut &[u8]) -> WireResult<Self> {
        let bytes = take(buf, DirInode::SIZE)?;
        DirInode::decode(bytes).ok_or(WireError::Truncated)
    }
}

impl Wire for FileAccess {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.encode());
    }
    fn get(buf: &mut &[u8]) -> WireResult<Self> {
        let bytes = take(buf, FileAccess::SIZE)?;
        FileAccess::decode(bytes).ok_or(WireError::Truncated)
    }
}

impl Wire for FileContent {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.encode());
    }
    fn get(buf: &mut &[u8]) -> WireResult<Self> {
        let bytes = take(buf, FileContent::SIZE)?;
        FileContent::decode(bytes).ok_or(WireError::Truncated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_wire();
        assert_eq!(T::from_wire(&bytes), Ok(v));
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(0xbeefu16);
        roundtrip(0xdead_beefu32);
        roundtrip(u64::MAX);
        roundtrip(-42i64);
        roundtrip(true);
        roundtrip(false);
        roundtrip(12345usize);
        roundtrip(String::from("héllo / wörld"));
        roundtrip(String::new());
        roundtrip(vec![1u8, 2, 3]);
        roundtrip::<Vec<u8>>(Vec::new());
        roundtrip(vec!["a".to_string(), String::new()]);
        roundtrip(Some(7u64));
        roundtrip(Option::<u64>::None);
        roundtrip(Result::<u32, FsError>::Ok(9));
        roundtrip(Result::<u32, FsError>::Err(FsError::NotEmpty));
        roundtrip(("k".to_string(), 7u64));
        roundtrip((
            "n".to_string(),
            FileAccess::default(),
            FileContent::default(),
        ));
    }

    #[test]
    fn typed_records_roundtrip() {
        roundtrip(Uuid::new(7, 99));
        roundtrip(Perm::Write);
        roundtrip(DirentKind::Dir);
        for e in [
            FsError::NotFound,
            FsError::AlreadyExists,
            FsError::NotADirectory,
            FsError::IsADirectory,
            FsError::NotEmpty,
            FsError::PermissionDenied,
            FsError::InvalidArgument,
            FsError::Busy,
            FsError::Io("server 3 unreachable".into()),
        ] {
            roundtrip(e);
        }
        roundtrip(DirInode::new(Uuid::new(1, 2), 0o755, 10, 20, 99));
        roundtrip(FileAccess {
            ctime: 1,
            mode: 0o644,
            uid: 2,
            gid: 3,
        });
        roundtrip(FileContent {
            mtime: 4,
            atime: 5,
            size: 6,
            bsize: 7,
            uuid: Uuid::new(8, 9),
        });
    }

    #[test]
    fn truncation_never_panics() {
        // Every strict prefix of a valid encoding must decode to an
        // error, not a panic (mirrors DirentList::decode's tests).
        let samples: Vec<Vec<u8>> = vec![
            String::from("some path").to_wire(),
            vec![("a".to_string(), 1u64), ("bb".to_string(), 2u64)].to_wire(),
            Result::<DirInode, FsError>::Ok(DirInode::new(Uuid::new(1, 1), 0o700, 0, 0, 0))
                .to_wire(),
            Some(FileContent::default()).to_wire(),
        ];
        for full in samples {
            for cut in 0..full.len() {
                assert!(
                    <Vec<(String, u64)>>::from_wire(&full[..cut]).is_err()
                        || String::from_wire(&full[..cut]).is_err()
                        || cut < full.len(),
                    "prefix decode must not succeed as the full value"
                );
                // The precise type each sample encodes must error too.
                let _ = String::from_wire(&full[..cut]);
                let _ = Result::<DirInode, FsError>::from_wire(&full[..cut]);
            }
        }
    }

    #[test]
    fn oversized_lengths_rejected_without_allocation() {
        // String claiming u32::MAX bytes with a 3-byte body.
        let mut evil = (u32::MAX).to_wire();
        evil.extend_from_slice(b"abc");
        assert!(matches!(
            String::from_wire(&evil),
            Err(WireError::Oversized { .. })
        ));
        // Sequence claiming 2^31 elements.
        let evil = (1u32 << 31).to_wire();
        assert!(matches!(
            <Vec<(String, u64)>>::from_wire(&evil),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn bad_tags_rejected() {
        assert!(matches!(
            bool::from_wire(&[9]),
            Err(WireError::BadTag { what: "bool", .. })
        ));
        assert!(matches!(
            Perm::from_wire(&[77]),
            Err(WireError::BadTag { what: "perm", .. })
        ));
        assert!(matches!(
            FsError::from_wire(&[42]),
            Err(WireError::BadTag { .. })
        ));
        assert!(matches!(
            Option::<u8>::from_wire(&[2, 0]),
            Err(WireError::BadTag { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = 7u32.to_wire();
        bytes.push(0);
        assert_eq!(u32::from_wire(&bytes), Err(WireError::TrailingBytes));
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut bytes = 2u32.to_wire();
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(String::from_wire(&bytes), Err(WireError::BadUtf8));
    }
}
