//! Torture the on-disk durability formats: truncate the WAL at every
//! byte boundary, flip bits everywhere, craft oversized length fields,
//! append garbage tails, and corrupt the snapshot. The recovery
//! contract under all of it:
//!
//! * `DurableStore::open` never panics;
//! * when it succeeds, the recovered state equals the state after some
//!   *prefix* of the committed op stream (commit groups are atomic —
//!   no torn or phantom records, ever);
//! * when the damage is detectable but not safely truncatable (a
//!   corrupt snapshot), it fails with a clean `Err`.
//!
//! The WAL torture runs twice: over an os-managed log, which ends at
//! its last record, and over an every-record log, whose records are
//! followed by a zero-filled tail.

use locofs::kv::{BTreeDb, DurableStore, KvConfig, KvStore, SyncPolicy};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

const OPS: u64 = 60;
/// Cutting or flipping every byte of a 1 MiB zero tail would mean a
/// million opens; the tail is visited at this stride instead.
const TAIL_STRIDE: usize = 4093;

static SEQ: AtomicU32 = AtomicU32::new(0);

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let p = std::env::temp_dir().join(format!(
            "loco-wal-corruption-{}-{n}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        Scratch(p)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Deterministic op `i`: a mix of puts, appends, in-place writes and
/// deletes over a small rotating key space, so every WAL op code and
/// multi-part payload shape appears in the log.
fn apply_op(db: &mut dyn KvStore, i: u64) {
    let key = format!("k{:02}", i % 17).into_bytes();
    match i % 6 {
        0 | 1 => db.put(&key, format!("value-{i}").as_bytes()),
        2 => db.append(&key, format!("+{i}").as_bytes()),
        3 => {
            db.write_at(&key, (i % 5) as usize, b"XY");
        }
        4 => {
            db.delete(&key);
        }
        _ => db.put(&key, &[(i % 251) as u8; 48]),
    }
}

fn dump(db: &mut dyn KvStore) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut d = db.scan_prefix(b"");
    d.sort();
    d
}

/// `prefixes[k]` = the sorted state after ops `0..k`.
fn model_prefixes() -> Vec<Vec<(Vec<u8>, Vec<u8>)>> {
    let mut model = BTreeDb::new(KvConfig::default());
    let mut out = vec![dump(&mut model)];
    for i in 0..OPS {
        apply_op(&mut model, i);
        out.push(dump(&mut model));
    }
    out
}

/// Write all `OPS` ops through a DurableStore at `dir`. With
/// `checkpoint` false the checkpoint threshold is parked out of reach
/// so every op stays in the WAL; with it true a checkpoint lands
/// mid-stream, leaving a snapshot plus a WAL tail.
fn build_store(dir: &Path, checkpoint: bool, policy: SyncPolicy) {
    let mut db = DurableStore::open(dir, BTreeDb::new(KvConfig::default()))
        .unwrap()
        .with_sync_policy(policy);
    db.checkpoint_every = usize::MAX;
    for i in 0..OPS {
        apply_op(&mut db, i);
        if checkpoint && i == OPS / 2 {
            db.checkpoint().unwrap();
        }
    }
}

/// Open the (possibly damaged) store and, on success, return which
/// model prefix the recovered state equals; a recovered state that
/// matches *no* prefix is the one unforgivable outcome.
fn open_and_classify(
    dir: &Path,
    prefixes: &[Vec<(Vec<u8>, Vec<u8>)>],
    what: &str,
) -> Option<usize> {
    match DurableStore::open(dir, BTreeDb::new(KvConfig::default())) {
        Err(_) => None,
        Ok(mut db) => {
            let got = dump(&mut db);
            match prefixes.iter().position(|p| *p == got) {
                Some(k) => Some(k),
                None => panic!(
                    "{what}: recovered state matches no prefix of the op stream \
                     ({} keys recovered) — torn or phantom records leaked through",
                    got.len()
                ),
            }
        }
    }
}

fn wal_len(dir: &Path) -> usize {
    std::fs::metadata(dir.join("wal.log")).unwrap().len() as usize
}

/// An os-managed store of the op stream; returns it and its log
/// length, which is where the log ends.
fn os_managed_src(tag: &str) -> (Scratch, usize) {
    let src = Scratch::new(tag);
    build_store(&src.0, false, SyncPolicy::OsManaged);
    let len = wal_len(&src.0);
    (src, len)
}

/// An every-record store of the same op stream; returns it and the
/// length of its logged bytes. Its log holds the os-managed log's
/// bytes in place, then zeros to the end of the file.
fn every_record_src(tag: &str) -> (Scratch, usize) {
    let (os, logged) = os_managed_src(&format!("{tag}-os"));
    let records = std::fs::read(os.0.join("wal.log")).unwrap();
    let src = Scratch::new(tag);
    build_store(&src.0, false, SyncPolicy::EveryRecord);
    let wal = std::fs::read(src.0.join("wal.log")).unwrap();
    assert!(wal.len() > logged, "the log reserves a zero tail");
    assert_eq!(wal[..logged], records[..], "the same records, in place");
    assert!(wal[logged..].iter().all(|&b| b == 0), "then only zeros");
    (src, logged)
}

/// Write `bytes` into the log image at `at`: over the zero tail when
/// there is one, past the end otherwise.
fn place(wal: &mut Vec<u8>, at: usize, bytes: &[u8]) {
    let end = at + bytes.len();
    if wal.len() < end {
        wal.resize(end, 0);
    }
    wal[at..end].copy_from_slice(bytes);
}

/// Copy `src` store dir into a fresh dir with `mutate` applied to the
/// WAL bytes (recovery truncates/rewrites in place, so each case needs
/// its own copy of the original damage).
fn with_damaged_wal(src: &Path, dst: &Path, mutate: impl FnOnce(&mut Vec<u8>)) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    if src.join("snapshot.db").exists() {
        std::fs::copy(src.join("snapshot.db"), dst.join("snapshot.db")).unwrap();
    }
    let mut wal = std::fs::read(src.join("wal.log")).unwrap();
    mutate(&mut wal);
    std::fs::write(dst.join("wal.log"), &wal).unwrap();
}

/// Open the log of `src` cut at each of `cuts`, in increasing order.
fn truncation_torture(src: &Path, cuts: impl IntoIterator<Item = usize>) {
    let prefixes = model_prefixes();
    let case = Scratch::new("trunc-case");

    let mut longest = 0usize;
    for cut in cuts {
        with_damaged_wal(src, &case.0, |wal| wal.truncate(cut));
        let k = open_and_classify(&case.0, &prefixes, &format!("truncate at {cut}"))
            .unwrap_or_else(|| panic!("truncate at {cut}: open failed — a shorter log must load"));
        assert!(
            k >= longest,
            "truncate at {cut}: recovered prefix {k} shrank below {longest} — \
             more log bytes must never mean fewer recovered ops"
        );
        longest = longest.max(k);
    }
    assert_eq!(
        longest, OPS as usize,
        "the untruncated log must recover every op"
    );
}

#[test]
fn truncation_at_every_byte_recovers_a_prefix() {
    let (src, len) = os_managed_src("trunc-src");
    truncation_torture(&src.0, 0..=len);
}

#[test]
fn truncation_through_a_zero_tail_recovers_a_prefix() {
    let (src, logged) = every_record_src("trunc-tail-src");
    let len = wal_len(&src.0);
    let tail = (logged + 1..len).step_by(TAIL_STRIDE).chain([len]);
    truncation_torture(&src.0, (0..=logged).chain(tail));
}

/// Flip one bit at each of `positions` of the log of `src`.
fn flip_torture(src: &Path, positions: impl IntoIterator<Item = usize>) {
    let prefixes = model_prefixes();
    let case = Scratch::new("flip-case");
    for pos in positions {
        let bit = 1u8 << (pos % 8);
        with_damaged_wal(src, &case.0, |wal| wal[pos] ^= bit);
        // Ok-with-some-prefix or clean Err (header damage) both
        // satisfy the contract; open_and_classify panics on the one
        // outcome that does not (a state matching no prefix).
        let _ = open_and_classify(&case.0, &prefixes, &format!("bit flip at {pos}"));
    }
}

#[test]
fn bit_flips_never_panic_and_never_fabricate_state() {
    // Every byte of the 5-byte header, then a stride across the body.
    let (src, len) = os_managed_src("flip-src");
    flip_torture(&src.0, (0..5.min(len)).chain((5..len).step_by(3)));
}

#[test]
fn bit_flips_over_a_zero_tail_never_fabricate_state() {
    let (src, logged) = every_record_src("flip-tail-src");
    let len = wal_len(&src.0);
    let tail = (logged..len).step_by(TAIL_STRIDE);
    flip_torture(&src.0, (0..5).chain((5..logged).step_by(3)).chain(tail));
}

/// A crafted record claiming a 4 GiB key, written where the next
/// record would go (`logged`): seq, commit flag, put op, klen =
/// u32::MAX. The parser must bounds-check before trusting the length —
/// no OOM, no panic, tail dropped.
fn oversize_torture(src: &Path, logged: usize) {
    let prefixes = model_prefixes();
    let case = Scratch::new("oversize-case");
    let mut junk = (OPS + 1).to_le_bytes().to_vec();
    junk.push(0x01); // commit
    junk.push(1); // OP_PUT
    junk.extend_from_slice(&u32::MAX.to_le_bytes());
    junk.extend_from_slice(b"garbage");
    with_damaged_wal(src, &case.0, |wal| place(wal, logged, &junk));
    let k = open_and_classify(&case.0, &prefixes, "oversized length")
        .expect("a valid log with a junk tail must load");
    assert_eq!(k, OPS as usize, "junk tail must not cost committed ops");

    // Recovery truncates the junk: a second open sees a clean log.
    assert_eq!(
        wal_len(&case.0),
        logged,
        "recovery cuts the log to its records"
    );
    assert_eq!(
        open_and_classify(&case.0, &prefixes, "reopen after truncation"),
        Some(OPS as usize)
    );
    assert_eq!(wal_len(&case.0), logged, "second recovery must be a no-op");
}

#[test]
fn oversized_length_field_is_rejected_without_allocation() {
    let (src, len) = os_managed_src("oversize-src");
    oversize_torture(&src.0, len);
}

#[test]
fn oversized_length_field_over_a_zero_tail_is_rejected() {
    let (src, logged) = every_record_src("oversize-tail-src");
    oversize_torture(&src.0, logged);
}

/// A torn write where the next record would go (`logged`): half of a
/// plausible record, then noise.
fn torn_torture(src: &Path, logged: usize) {
    let prefixes = model_prefixes();
    let case = Scratch::new("torn-case");
    let mut junk = (OPS + 1).to_le_bytes().to_vec();
    junk.extend((0..37u8).map(|i| i.wrapping_mul(89) ^ 0x5a));
    let mut damaged = Vec::new();
    with_damaged_wal(src, &case.0, |wal| {
        place(wal, logged, &junk);
        damaged = wal.clone();
    });
    assert_eq!(
        open_and_classify(&case.0, &prefixes, "torn tail"),
        Some(OPS as usize),
        "committed prefix must survive a torn tail"
    );
    assert_eq!(
        wal_len(&case.0),
        logged,
        "recovery must truncate the log back to its committed prefix"
    );
    assert_eq!(
        std::fs::read(case.0.join("wal.discarded.0")).unwrap(),
        damaged[logged..],
        "the truncated bytes are kept aside, not destroyed"
    );
}

#[test]
fn torn_tail_garbage_is_truncated() {
    let (src, len) = os_managed_src("torn-src");
    torn_torture(&src.0, len);
}

#[test]
fn torn_write_over_a_zero_tail_is_truncated() {
    let (src, logged) = every_record_src("torn-tail-src");
    torn_torture(&src.0, logged);
}

#[test]
fn snapshot_corruption_is_detected_never_absorbed() {
    let prefixes = model_prefixes();
    let src = Scratch::new("snap-src");
    // Checkpoint mid-stream: snapshot + WAL tail.
    build_store(&src.0, true, SyncPolicy::OsManaged);
    assert_eq!(
        open_and_classify(&src.0, &prefixes, "pristine snapshot+wal"),
        Some(OPS as usize)
    );

    let snap = std::fs::read(src.0.join("snapshot.db")).unwrap();
    let case = Scratch::new("snap-case");
    // Every header byte (magic, version, last-covered-seq, header crc)
    // plus a stride across the image body. The last-covered-seq decides
    // which WAL records replay — an undetected flip there would
    // silently double-apply or skip committed ops.
    let positions: Vec<usize> = (0..17.min(snap.len()))
        .chain((17..snap.len()).step_by(5))
        .collect();
    for pos in positions {
        let _ = std::fs::remove_dir_all(&case.0);
        std::fs::create_dir_all(&case.0).unwrap();
        std::fs::copy(src.0.join("wal.log"), case.0.join("wal.log")).unwrap();
        let mut bytes = snap.clone();
        bytes[pos] ^= 1 << (pos % 8);
        std::fs::write(case.0.join("snapshot.db"), &bytes).unwrap();

        match DurableStore::open(&case.0, BTreeDb::new(KvConfig::default())) {
            Err(_) => {} // detected: the only acceptable failure mode
            Ok(mut db) => {
                // If a flip somehow passes every checksum, the loaded
                // state must still be exactly right.
                assert_eq!(
                    dump(&mut db),
                    prefixes[OPS as usize],
                    "snapshot flip at byte {pos} loaded silently WRONG state"
                );
            }
        }
    }
}
