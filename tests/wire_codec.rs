//! Property/fuzz-style tests for the `Wire` codec and the frame layer:
//! every request/response variant roundtrips byte-exactly, and
//! truncated, bit-flipped and oversized-length inputs must come back as
//! decode errors — never a panic, never an unbounded allocation. Same
//! contract style as `DirentList::decode`'s corrupt-buffer tests.

use locofs::dms::{DirServer, DmsRequest, DmsResponse};
use locofs::fms::{FileServer, FmsMode, FmsRequest, FmsResponse};
use locofs::kv::{AccessStats, BTreeDb, HashDb, KvConfig, KvStore};
use locofs::net::frame::{crc32, decode_header, encode_frame, read_frame, FrameKind, HEADER_LEN};
use locofs::net::{Nanos, ReplStamp, RpcRequest, RpcResponse, Service, SpanReply, TraceCtx};
use locofs::ostore::{ObjectStore, OstoreRequest, OstoreResponse};
use locofs::types::{
    DirInode, FileAccess, FileContent, FsError, OpClass, Perm, Uuid, Wire, WireError,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

fn access() -> FileAccess {
    FileAccess {
        ctime: 3,
        mode: 0o644,
        uid: 1,
        gid: 2,
    }
}

fn content() -> FileContent {
    FileContent {
        mtime: 8,
        atime: 9,
        size: 4096,
        bsize: 1 << 20,
        uuid: Uuid::from_raw(21),
    }
}

/// Deterministic xorshift64* so fuzz failures reproduce exactly.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

fn uuid(n: u64) -> Uuid {
    Uuid::from_raw(n)
}

/// One exemplar per DmsRequest variant (every field populated).
fn dms_requests() -> Vec<DmsRequest> {
    vec![
        DmsRequest::Mkdir {
            path: "/a/b".into(),
            mode: 0o755,
            uid: 1,
            gid: 2,
            ts: 3,
        },
        DmsRequest::Rmdir {
            path: "/a/b".into(),
            uid: 1,
            gid: 2,
        },
        DmsRequest::GetDir { path: "/a".into() },
        DmsRequest::StatDir {
            path: "/a".into(),
            uid: 1,
            gid: 2,
        },
        DmsRequest::ReaddirSubdirs { dir_uuid: uuid(7) },
        DmsRequest::SetDirAttr {
            path: "/a".into(),
            uid: 1,
            gid: 2,
            new_mode: Some(0o700),
            new_owner: Some((3, 4)),
            ts: 9,
        },
        DmsRequest::RenameDir {
            old_path: "/a".into(),
            new_path: "/b".into(),
            uid: 1,
            gid: 2,
            ts: 9,
        },
        DmsRequest::CheckAccess {
            path: "/a".into(),
            uid: 1,
            gid: 2,
            perm: Perm::Write,
        },
        DmsRequest::MkdirLocal {
            path: "/a".into(),
            mode: 0o755,
            uid: 1,
            gid: 2,
            ts: 3,
        },
        DmsRequest::RmdirLocal { path: "/a".into() },
        DmsRequest::AddDirent {
            dir_uuid: uuid(1),
            name: "x".into(),
            child_uuid: uuid(2),
        },
        DmsRequest::RemoveDirent {
            dir_uuid: uuid(1),
            name: "x".into(),
        },
        DmsRequest::ReplAppend {
            epoch: 2,
            first_seq: 40,
            group: vec![0x5A; 24],
        },
        DmsRequest::ReplSnapshot {
            epoch: 2,
            last_seq: 39,
            image: vec![0xC3; 32],
        },
        DmsRequest::ReplStatus {},
        DmsRequest::Promote {},
    ]
}

fn dms_responses() -> Vec<DmsResponse> {
    let inode = DirInode::new(uuid(5), 0o755, 1, 2, 3);
    vec![
        DmsResponse::Dir(Ok(inode)),
        DmsResponse::Dir(Err(FsError::NotFound)),
        DmsResponse::Dirents(Ok(vec![
            ("a".to_string(), uuid(1)),
            ("b".to_string(), uuid(2)),
        ])),
        DmsResponse::Dirents(Err(FsError::NotADirectory)),
        DmsResponse::Done(Ok(3)),
        DmsResponse::Done(Err(FsError::Io("disk on fire".into()))),
        DmsResponse::Bool(true),
        DmsResponse::Bool(false),
    ]
}

fn fms_requests() -> Vec<FmsRequest> {
    vec![
        FmsRequest::Create {
            dir_uuid: uuid(1),
            name: "f".into(),
            mode: 0o644,
            uid: 1,
            gid: 2,
            ts: 3,
        },
        FmsRequest::Open {
            dir_uuid: uuid(1),
            name: "f".into(),
            uid: 1,
            gid: 2,
            perm: Perm::Read,
            with_content: true,
        },
        FmsRequest::Stat {
            dir_uuid: uuid(1),
            name: "f".into(),
        },
        FmsRequest::GetContent {
            dir_uuid: uuid(1),
            name: "f".into(),
        },
        FmsRequest::Access {
            dir_uuid: uuid(1),
            name: "f".into(),
            uid: 1,
            gid: 2,
            perm: Perm::Exec,
        },
        FmsRequest::Chmod {
            dir_uuid: uuid(1),
            name: "f".into(),
            uid: 1,
            mode: 0o600,
            ts: 9,
        },
        FmsRequest::Chown {
            dir_uuid: uuid(1),
            name: "f".into(),
            uid: 1,
            new_uid: 5,
            new_gid: 6,
            ts: 9,
        },
        FmsRequest::Utimens {
            dir_uuid: uuid(1),
            name: "f".into(),
            atime: 11,
            mtime: 12,
        },
        FmsRequest::SetSize {
            dir_uuid: uuid(1),
            name: "f".into(),
            size: 4096,
            ts: 9,
        },
        FmsRequest::Remove {
            dir_uuid: uuid(1),
            name: "f".into(),
        },
        FmsRequest::ListFiles { dir_uuid: uuid(1) },
        FmsRequest::ListFilesPlus { dir_uuid: uuid(1) },
        FmsRequest::CountFiles { dir_uuid: uuid(1) },
        FmsRequest::TakeFile {
            dir_uuid: uuid(1),
            name: "f".into(),
        },
        FmsRequest::PutFile {
            dir_uuid: uuid(1),
            name: "f".into(),
            access: access(),
            content: content(),
        },
    ]
}

fn fms_responses() -> Vec<FmsResponse> {
    vec![
        FmsResponse::Created(Ok(uuid(9))),
        FmsResponse::Created(Err(FsError::AlreadyExists)),
        FmsResponse::Opened(Ok((access(), Some(content())))),
        FmsResponse::Opened(Ok((access(), None))),
        FmsResponse::Opened(Err(FsError::PermissionDenied)),
        FmsResponse::Statted(Ok((access(), content()))),
        FmsResponse::Statted(Err(FsError::NotFound)),
        FmsResponse::Content(Ok(content())),
        FmsResponse::Bool(true),
        FmsResponse::Done(Ok(())),
        FmsResponse::Removed(Ok(uuid(4))),
        FmsResponse::Removed(Err(FsError::NotFound)),
        FmsResponse::Names(vec![("a".to_string(), uuid(1)), ("b".to_string(), uuid(2))]),
        FmsResponse::NamesPlus(vec![("a".to_string(), access(), content())]),
        FmsResponse::Count(17),
        FmsResponse::Taken(Ok((access(), content()))),
        FmsResponse::Taken(Err(FsError::NotFound)),
    ]
}

fn ost_requests() -> Vec<OstoreRequest> {
    vec![
        OstoreRequest::WriteBlock {
            uuid: uuid(1),
            blk: 3,
            data: vec![0xAB; 64],
        },
        OstoreRequest::ReadBlock {
            uuid: uuid(1),
            blk: 3,
        },
        OstoreRequest::TruncateBlocks {
            uuid: uuid(1),
            keep_blocks: 2,
        },
        OstoreRequest::RemoveObject { uuid: uuid(1) },
    ]
}

fn ost_responses() -> Vec<OstoreResponse> {
    vec![
        OstoreResponse::Done(Ok(())),
        OstoreResponse::Block(Ok(vec![1, 2, 3])),
        OstoreResponse::Block(Err(FsError::NotFound)),
        OstoreResponse::Removed(9),
    ]
}

/// Decode any prefix / corruption of `bytes` as `T`: must never panic,
/// and a strict prefix must never round-trip as the full value.
fn assert_decode_robust<T: Wire + PartialEq + std::fmt::Debug>(bytes: &[u8]) {
    // Every truncation errors (the codec has no zero-width suffix:
    // all encodings here end in fixed-width or length-checked data).
    for cut in 0..bytes.len() {
        assert!(
            T::from_wire(&bytes[..cut]).is_err(),
            "truncated to {cut}/{} bytes must not decode",
            bytes.len()
        );
    }
    // Trailing garbage is rejected.
    let mut padded = bytes.to_vec();
    padded.push(0);
    assert!(T::from_wire(&padded).is_err(), "trailing byte accepted");
}

/// Bit-flip fuzz: every single-bit corruption either fails to decode or
/// decodes to a *different* valid value — never panics. `budget` caps
/// the work for long encodings.
fn assert_bitflips_safe<T: Wire + PartialEq + std::fmt::Debug>(bytes: &[u8], rng: &mut Rng) {
    let total_bits = bytes.len() * 8;
    let flips: Vec<usize> = if total_bits <= 512 {
        (0..total_bits).collect()
    } else {
        (0..512)
            .map(|_| (rng.next() as usize) % total_bits)
            .collect()
    };
    for bit in flips {
        let mut mutated = bytes.to_vec();
        mutated[bit / 8] ^= 1 << (bit % 8);
        // Must not panic; Ok is fine if the flipped byte still forms a
        // valid encoding of some other value.
        let _ = T::from_wire(&mutated);
    }
}

fn exhaustive<T: Wire + PartialEq + std::fmt::Debug>(values: Vec<T>, rng: &mut Rng) {
    for v in values {
        let bytes = v.to_wire();
        let back = T::from_wire(&bytes).expect("roundtrip decode");
        assert_eq!(back, v, "roundtrip must be identity");
        assert_decode_robust::<T>(&bytes);
        assert_bitflips_safe::<T>(&bytes, rng);
    }
}

#[test]
fn every_dms_variant_roundtrips_and_rejects_corruption() {
    let mut rng = Rng(0xD5A2_91E0_33C7_B14F);
    exhaustive(dms_requests(), &mut rng);
    exhaustive(dms_responses(), &mut rng);
}

#[test]
fn every_fms_variant_roundtrips_and_rejects_corruption() {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    exhaustive(fms_requests(), &mut rng);
    exhaustive(fms_responses(), &mut rng);
}

#[test]
fn every_ostore_variant_roundtrips_and_rejects_corruption() {
    let mut rng = Rng(0xC2B2_AE3D_27D4_EB4F);
    exhaustive(ost_requests(), &mut rng);
    exhaustive(ost_responses(), &mut rng);
}

#[test]
fn rpc_envelopes_roundtrip_and_reject_corruption() {
    let mut rng = Rng(0x1656_67B1_9E37_79F9);
    let reqs = vec![
        RpcRequest {
            budget_ms: 0,
            trace: None,
            body: DmsRequest::GetDir { path: "/x".into() },
        },
        RpcRequest {
            budget_ms: 0,
            trace: Some(TraceCtx {
                trace_id: 42,
                span_id: 7,
                parent: 3,
                sampled: true,
            }),
            body: DmsRequest::GetDir { path: "/x".into() },
        },
    ];
    exhaustive(reqs, &mut rng);
    let resps = vec![
        RpcResponse {
            cost: 1234,
            span: None,
            repl: None,
            body: DmsResponse::Bool(true),
        },
        RpcResponse {
            cost: 1234,
            span: Some(SpanReply {
                op: "GetDir",
                queue_ns: 55,
                attrs: vec![("kv_ns", 9), ("sw_ns", 2)],
            }),
            repl: Some(ReplStamp {
                epoch: 7,
                fenced: true,
            }),
            body: DmsResponse::Bool(true),
        },
    ];
    exhaustive(resps, &mut rng);
}

#[test]
fn oversized_length_fields_error_without_allocating() {
    // A Vec<u8> claiming u32::MAX elements in a 10-byte buffer: the
    // count sanity check must fire before any reserve. If this test
    // completes (rather than aborting on OOM), the guard held.
    let mut evil = Vec::new();
    evil.extend_from_slice(&u32::MAX.to_le_bytes());
    evil.extend_from_slice(&[0u8; 6]);
    assert!(matches!(
        Vec::<u8>::from_wire(&evil),
        Err(WireError::Oversized { .. })
    ));
    // One byte more than remains is refused the same way.
    let mut short = 7u32.to_le_bytes().to_vec();
    short.extend_from_slice(&[1u8; 6]);
    assert!(matches!(
        Vec::<u8>::from_wire(&short),
        Err(WireError::Oversized { len: 7, .. })
    ));

    // Same via a request wrapper: WriteBlock's data length lies.
    let mut bytes = OstoreRequest::WriteBlock {
        uuid: Uuid::from_raw(1),
        blk: 0,
        data: vec![7; 8],
    }
    .to_wire();
    // data length field sits after tag(1) + uuid(8) + blk(8).
    let len_off = 1 + 8 + 8;
    bytes[len_off..len_off + 4].copy_from_slice(&(u32::MAX).to_le_bytes());
    assert!(matches!(
        OstoreRequest::from_wire(&bytes),
        Err(WireError::Oversized { .. })
    ));

    // A String claiming 64 MiB + 1 is over MAX_WIRE_LEN even if the
    // buffer were big enough.
    let mut huge = Vec::new();
    huge.extend_from_slice(&((locofs::types::MAX_WIRE_LEN as u32) + 1).to_le_bytes());
    huge.extend_from_slice(b"abc");
    assert!(String::from_wire(&huge).is_err());
}

/// Byte payloads (block data, WAL groups, snapshot images) are copied
/// as one slice. These encodings were captured from the per-element
/// encoder that preceded the slice copy, so the wire format is pinned
/// rather than assumed.
#[test]
fn byte_payloads_encode_to_golden_bytes() {
    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }
    fn check<T: Wire + PartialEq + std::fmt::Debug>(v: T, golden: &str) {
        let golden = unhex(golden);
        assert_eq!(v.to_wire(), golden, "{v:?}");
        assert_eq!(T::from_wire(&golden).unwrap(), v);
    }
    let data: Vec<u8> = (0..24u32).map(|i| (i * 37 + 5) as u8).collect();
    check(
        OstoreRequest::WriteBlock {
            uuid: Uuid::from_raw(0x0102_0304_0506_0708),
            blk: 3,
            data: data.clone(),
        },
        "00080706050403020103000000000000001800000005\
         2a4f7499bee3082d52779cc1e60b30557a9fc4e90e3358",
    );
    check(
        OstoreResponse::Block(Ok(data[..13].to_vec())),
        "01000d000000052a4f7499bee3082d52779cc1",
    );
    check(
        DmsRequest::ReplAppend {
            epoch: 2,
            first_seq: 17,
            group: data[5..21].to_vec(),
        },
        "0c0200000000000000110000000000000010000000\
         bee3082d52779cc1e60b30557a9fc4e9",
    );
}

#[test]
fn unknown_enum_tags_are_rejected() {
    for bad_tag in [16u8, 200, 255] {
        let mut bytes = DmsRequest::GetDir { path: "/x".into() }.to_wire();
        bytes[0] = bad_tag;
        assert!(DmsRequest::from_wire(&bytes).is_err(), "tag {bad_tag}");
    }
    let mut bytes = OstoreResponse::Removed(1).to_wire();
    bytes[0] = 99;
    assert!(OstoreResponse::from_wire(&bytes).is_err());
}

// ---- frame layer -----------------------------------------------------

#[test]
fn frames_roundtrip_through_a_byte_stream() {
    let payload = DmsRequest::GetDir { path: "/x".into() }.to_wire();
    let bytes = encode_frame(FrameKind::Request, 77, &payload);
    let frame = read_frame(&mut &bytes[..]).unwrap().expect("one frame");
    assert_eq!(frame.kind, FrameKind::Request);
    assert_eq!(frame.req_id, 77);
    assert_eq!(frame.payload, payload);
    // Clean EOF at a frame boundary reads as None, not an error.
    assert!(read_frame(&mut &[][..]).unwrap().is_none());
}

#[test]
fn corrupted_frames_are_rejected_not_panicked_on() {
    let payload = b"hello wire".to_vec();
    let good = encode_frame(FrameKind::Response, 5, &payload);

    // Truncation anywhere mid-frame is an error (not a clean close).
    for cut in 1..good.len() {
        assert!(
            read_frame(&mut &good[..cut]).is_err(),
            "cut at {cut} must error"
        );
    }

    // Any single-bit flip in the payload or checksum trips the CRC;
    // flips in the header trip magic/version/len validation. Two header
    // fields are deliberately outside the CRC: the request id (bytes
    // 4..12, so a flipped id still parses) and the kind byte (byte 3,
    // where a flip may land on another *valid* kind). Both only
    // misroute a frame within one already-authenticated connection.
    for byte in 0..good.len() {
        if byte == 3 || (4..12).contains(&byte) {
            continue;
        }
        for bit in 0..8 {
            let mut evil = good.clone();
            evil[byte] ^= 1 << bit;
            match read_frame(&mut &evil[..]) {
                Err(_) => {}
                Ok(got) => panic!("flip byte {byte} bit {bit} must be rejected, got {got:?}"),
            }
        }
    }

    // A length field claiming more than MAX_PAYLOAD errors before any
    // allocation happens.
    let mut evil = good.clone();
    evil[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(read_frame(&mut &evil[..]).is_err());
}

#[test]
fn header_validation_rejects_wrong_magic_and_version() {
    let good = encode_frame(FrameKind::Control, 0, b"x");
    let mut hdr = [0u8; HEADER_LEN];
    hdr.copy_from_slice(&good[..HEADER_LEN]);
    assert!(decode_header(&hdr).is_ok());

    let mut bad = hdr;
    bad[0] = b'X';
    assert!(decode_header(&bad).is_err(), "bad magic");
    let mut bad = hdr;
    bad[2] = 99;
    assert!(decode_header(&bad).is_err(), "future protocol version");
    let mut bad = hdr;
    bad[3] = 42;
    assert!(decode_header(&bad).is_err(), "unknown frame kind");
}

#[test]
fn crc32_matches_reference_vector() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
}

#[test]
fn random_garbage_never_decodes_as_anything_dangerous() {
    // 4 KiB of deterministic noise thrown at every decoder: any result
    // is fine as long as nothing panics or over-allocates.
    let mut rng = Rng(0x0123_4567_89AB_CDEF);
    for _ in 0..200 {
        let len = (rng.next() as usize) % 64;
        let noise: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        let _ = DmsRequest::from_wire(&noise);
        let _ = DmsResponse::from_wire(&noise);
        let _ = FmsRequest::from_wire(&noise);
        let _ = FmsResponse::from_wire(&noise);
        let _ = OstoreRequest::from_wire(&noise);
        let _ = OstoreResponse::from_wire(&noise);
        let _ = RpcRequest::<FmsRequest>::from_wire(&noise);
        let _ = RpcResponse::<FmsResponse>::from_wire(&noise);
        let _ = read_frame(&mut &noise[..]);
    }
}

// ---- op classification vs the codec and the handlers -----------------
//
// `Service::tag_mutates` (admission control sheds by raw wire tag) and
// `Service::req_idempotent` (blind retry vs `MaybeApplied`) read each
// role's op table, the class column of its `impl_wire_enum!` rows.
// These checks tie that table to the codec's tag space and to what the
// handlers actually do to the store.

/// A store wrapper counting the calls that change contents. The inner
/// store is shared, so a test can read it back after handing the
/// wrapper to a server.
#[derive(Clone)]
struct Counted {
    inner: Arc<Mutex<Box<dyn KvStore>>>,
    mutations: Arc<AtomicU64>,
}

impl Counted {
    fn new(inner: Box<dyn KvStore>) -> Self {
        Self {
            inner: Arc::new(Mutex::new(inner)),
            mutations: Arc::new(AtomicU64::new(0)),
        }
    }

    fn db(&self) -> MutexGuard<'_, Box<dyn KvStore>> {
        self.inner.lock().unwrap()
    }

    fn mutated(&self) {
        self.mutations.fetch_add(1, Ordering::Relaxed);
    }

    /// Every record, sorted (hash stores scan in arbitrary order).
    fn contents(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut all = self.db().scan_prefix(b"");
        all.sort();
        all
    }
}

impl KvStore for Counted {
    fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        self.db().get(key)
    }
    fn put(&mut self, key: &[u8], value: &[u8]) {
        self.mutated();
        self.db().put(key, value)
    }
    fn delete(&mut self, key: &[u8]) -> bool {
        self.mutated();
        self.db().delete(key)
    }
    fn contains(&mut self, key: &[u8]) -> bool {
        self.db().contains(key)
    }
    fn read_at(&mut self, key: &[u8], off: usize, len: usize) -> Option<Vec<u8>> {
        self.db().read_at(key, off, len)
    }
    fn write_at(&mut self, key: &[u8], off: usize, data: &[u8]) -> bool {
        self.mutated();
        self.db().write_at(key, off, data)
    }
    fn append(&mut self, key: &[u8], data: &[u8]) {
        self.mutated();
        self.db().append(key, data)
    }
    fn scan_prefix(&mut self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.db().scan_prefix(prefix)
    }
    fn extract_prefix(&mut self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.mutated();
        self.db().extract_prefix(prefix)
    }
    fn len(&self) -> usize {
        self.db().len()
    }
    fn ordered(&self) -> bool {
        self.db().ordered()
    }
    fn take_cost(&mut self) -> Nanos {
        self.db().take_cost()
    }
    fn stats(&self) -> AccessStats {
        self.db().stats()
    }
    fn reset_stats(&mut self) {
        self.db().reset_stats()
    }
}

/// What the classification checks need to know about one server role.
struct Role<S: Service> {
    samples: Vec<S::Req>,
    /// A fresh backing store.
    store: fn() -> Box<dyn KvStore>,
    /// A server over `store`.
    boot: fn(Box<dyn KvStore>) -> S,
    /// Requests that create what the samples act on.
    populate: Vec<S::Req>,
    /// The response reports success.
    ok: fn(&S::Resp) -> bool,
}

impl<S: Service> Role<S>
where
    S::Req: Clone + Wire,
{
    /// A server whose store has seen `seed`, plus a handle on that store.
    fn seeded(&self, seed: &[S::Req]) -> (S, Counted) {
        let store = Counted::new((self.store)());
        let mut server = (self.boot)(Box::new(store.clone()));
        for req in seed {
            let resp = server.handle(req.clone());
            assert!((self.ok)(&resp), "seed {} failed", S::req_label(req));
        }
        (server, store)
    }

    /// Read-only tags must leave the store untouched.
    fn read_only_violations(&self) -> Vec<String> {
        let mut bad = Vec::new();
        for req in &self.samples {
            if S::tag_mutates(req.to_wire()[0]) {
                continue;
            }
            let (mut server, store) = self.seeded(&self.populate);
            let before = store.mutations.load(Ordering::Relaxed);
            server.handle(req.clone());
            let calls = store.mutations.load(Ordering::Relaxed) - before;
            if calls > 0 {
                bad.push(format!(
                    "{} is read-only but made {calls} mutating KV calls",
                    S::req_label(req)
                ));
            }
        }
        bad
    }

    /// Idempotent requests, handled twice where one run succeeds, must
    /// leave the store as one run does and must not fail the second time.
    fn idempotence_violations(&self, skip: &[&str]) -> Vec<String> {
        let mut bad = Vec::new();
        let seeds = [self.populate.clone(), Vec::new()];
        for req in &self.samples {
            let label = S::req_label(req);
            if !S::req_idempotent(req) || skip.contains(&label) {
                continue;
            }
            let Some((seed, once)) = seeds.iter().find_map(|seed| {
                let (mut server, store) = self.seeded(seed);
                (self.ok)(&server.handle(req.clone())).then(|| (seed, store.contents()))
            }) else {
                bad.push(format!("{label}: no seed lets one run succeed"));
                continue;
            };
            let (mut server, store) = self.seeded(seed);
            server.handle(req.clone());
            if !(self.ok)(&server.handle(req.clone())) {
                bad.push(format!("{label} is idempotent but its second run fails"));
            }
            if store.contents() != once {
                bad.push(format!(
                    "{label} is idempotent but a second run changes the store"
                ));
            }
        }
        bad
    }
}

fn dms_role() -> Role<DirServer> {
    Role {
        samples: dms_requests(),
        store: || Box::new(BTreeDb::new(KvConfig::default())),
        boot: |db| DirServer::with_store(db, 0),
        populate: vec![DmsRequest::Mkdir {
            path: "/a".into(),
            mode: 0o755,
            uid: 1,
            gid: 2,
            ts: 3,
        }],
        ok: |resp| match resp {
            DmsResponse::Dir(r) => r.is_ok(),
            DmsResponse::Dirents(r) => r.is_ok(),
            DmsResponse::Done(r) => r.is_ok(),
            DmsResponse::Bool(_) => true,
            DmsResponse::Repl(info) => info.ok,
        },
    }
}

fn fms_role() -> Role<FileServer> {
    Role {
        samples: fms_requests(),
        store: || {
            let cfg = FileServer::tune_cfg(FmsMode::Decoupled, KvConfig::default());
            Box::new(HashDb::new(cfg))
        },
        boot: |db| FileServer::with_store(db, 1, FmsMode::Decoupled),
        populate: vec![FmsRequest::Create {
            dir_uuid: uuid(1),
            name: "f".into(),
            mode: 0o644,
            uid: 1,
            gid: 2,
            ts: 3,
        }],
        ok: |resp| match resp {
            FmsResponse::Created(r) | FmsResponse::Removed(r) => r.is_ok(),
            FmsResponse::Opened(r) => r.is_ok(),
            FmsResponse::Statted(r) | FmsResponse::Taken(r) => r.is_ok(),
            FmsResponse::Content(r) => r.is_ok(),
            FmsResponse::Done(r) => r.is_ok(),
            FmsResponse::Bool(_)
            | FmsResponse::Names(_)
            | FmsResponse::NamesPlus(_)
            | FmsResponse::Count(_) => true,
        },
    }
}

fn ost_role() -> Role<ObjectStore> {
    Role {
        samples: ost_requests(),
        store: || Box::new(HashDb::new(KvConfig::default())),
        boot: ObjectStore::with_store,
        populate: vec![OstoreRequest::WriteBlock {
            uuid: uuid(1),
            blk: 3,
            data: vec![0xAB; 64],
        }],
        ok: |resp| match resp {
            OstoreResponse::Done(r) => r.is_ok(),
            OstoreResponse::Block(r) => r.is_ok(),
            OstoreResponse::Removed(_) => true,
        },
    }
}

/// Every tag byte the decoder accepts (anything but `BadTag` when the
/// tag is the whole input) has a sample above, and the op table has a
/// class for exactly those tags.
fn tag_gaps<T: Wire>(
    what: &str,
    samples: &[T],
    class_of_tag: fn(u8) -> Option<OpClass>,
) -> Vec<String> {
    let sampled: Vec<u8> = samples.iter().map(|s| s.to_wire()[0]).collect();
    let mut bad = Vec::new();
    for tag in 0..=u8::MAX {
        let accepted = !matches!(T::from_wire(&[tag]), Err(WireError::BadTag { .. }));
        if accepted && !sampled.contains(&tag) {
            bad.push(format!("{what} tag {tag} decodes but has no sample"));
        }
        if accepted != class_of_tag(tag).is_some() {
            bad.push(format!(
                "{what} tag {tag}: decoder accepts it: {accepted}, class_of_tag: {:?}",
                class_of_tag(tag)
            ));
        }
    }
    bad
}

#[test]
fn every_accepted_request_tag_has_a_sample() {
    let mut bad = tag_gaps("dms", &dms_requests(), DmsRequest::class_of_tag);
    bad.extend(tag_gaps("fms", &fms_requests(), FmsRequest::class_of_tag));
    bad.extend(tag_gaps(
        "ost",
        &ost_requests(),
        OstoreRequest::class_of_tag,
    ));
    assert!(bad.is_empty(), "{bad:#?}");
}

#[test]
fn read_only_tags_make_no_mutating_kv_calls() {
    let mut bad = dms_role().read_only_violations();
    bad.extend(fms_role().read_only_violations());
    bad.extend(ost_role().read_only_violations());
    assert!(bad.is_empty(), "{bad:#?}");
}

#[test]
fn idempotent_requests_handled_twice_match_once() {
    // Replication requests need a replica set; a standalone server
    // answers them with `ok: false`.
    let repl = ["ReplAppend", "ReplSnapshot", "ReplStatus"];
    let mut bad = dms_role().idempotence_violations(&repl);
    bad.extend(fms_role().idempotence_violations(&[]));
    bad.extend(ost_role().idempotence_violations(&[]));
    assert!(bad.is_empty(), "{bad:#?}");
}
