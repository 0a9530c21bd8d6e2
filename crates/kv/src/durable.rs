//! File-backed durability: a write-ahead log plus checkpoints over any
//! [`KvStore`].
//!
//! The in-memory stores model Kyoto Cabinet's *performance*; this
//! module supplies the missing *durability* half for deployments that
//! want real persistence (the daemons and the crash-recovery tests use
//! it):
//!
//! * every mutation is appended to `wal.log` before being applied to
//!   the wrapped store, and the WAL is flushed to the OS per commit
//!   group (so an acknowledged op survives `kill -9`) and fsync'd
//!   according to [`SyncPolicy`] (so it can also survive power loss);
//! * mutations bracketed by [`KvStore::txn_begin`] /
//!   [`KvStore::txn_commit`] form a *commit group*: the group is
//!   written as one contiguous run of records whose last record carries
//!   a commit flag, and recovery applies a group only when its commit
//!   record is present — a crash mid-group (e.g. half a rename's
//!   delete+put fan-out) leaves no partial effects;
//! * [`DurableStore::checkpoint`] writes a full snapshot image
//!   atomically (`snapshot.tmp` → fsync → rename → dir fsync) and
//!   rotates the log; the snapshot envelope records the last WAL
//!   sequence number it covers, so a crash between the rename and the
//!   log rotation cannot double-apply non-idempotent records (appends)
//!   on the next boot;
//! * [`DurableStore::open`] recovers by loading the snapshot and
//!   replaying committed groups, then truncates the log to the valid
//!   prefix so a torn tail can never shadow later appends.
//!
//! ## On-disk formats
//!
//! WAL v2: file header `b"LWAL"` ‖ u8 version(2), then records:
//! `u64 seq LE ‖ u8 flags (bit0 = commit, last record of its group) ‖
//! u8 op ‖ u32 key-len ‖ key ‖ per-op payload parts (u32 len ‖ bytes)
//! ‖ u32 IEEE CRC32 LE` over all preceding bytes of the record (the
//! same crc the RPC frames and snapshots use, from `loco_types`).
//!
//! Snapshot: `b"LSNP"` ‖ u8 version(2) ‖ u64 last-covered-seq LE ‖
//! u32 CRC32 LE over the preceding 13 header bytes ‖
//! [`crate::snapshot`] image. The header carries its own crc because
//! the inner image's checksum does not cover it — an unverified
//! last-covered-seq would silently skip (or double-apply) WAL records.
//!
//! These are the only formats `open` reads. A log that does not start
//! with the v2 header, or a snapshot without the envelope, fails `open`
//! with `InvalidData` and is left untouched on disk. The one exception
//! is a log shorter than its header that matches the header so far: a
//! torn first write, recovered as an empty log.
//!
//! ## Failure discipline
//!
//! A WAL write or fsync failure at runtime is **fatal** (process
//! abort): once the log can no longer be trusted, acknowledging more
//! mutations would be lying to clients — the Postgres "fsyncgate"
//! lesson. Corrupt on-disk state at *open* time is a clean error,
//! never a panic and never phantom records.
//!
//! Crash points (`loco_faults`, env-armed): `wal_pre_commit`,
//! `wal_after_append`, `wal_after_sync`, `checkpoint_pre_write`,
//! `checkpoint_pre_rename`, `checkpoint_post_rename`,
//! `checkpoint_post_truncate`; torn-write sites `wal_commit`,
//! `checkpoint_write`; I/O error sites `wal_write`, `wal_fsync`,
//! `checkpoint_write`.

use crate::{AccessStats, KvStore};
use loco_sim::time::Nanos;
use loco_types::checksum::crc32;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

const OP_PUT: u8 = 1;
const OP_DELETE: u8 = 2;
const OP_APPEND: u8 = 3;
const OP_WRITE_AT: u8 = 4;

const WAL_MAGIC: &[u8; 4] = b"LWAL";
const WAL_VERSION: u8 = 2;
const WAL_HEADER_LEN: usize = 5;

const SNAP_MAGIC: &[u8; 4] = b"LSNP";
const SNAP_VERSION: u8 = 2;
/// magic(4) + version(1) + last_seq(8) + header crc32(4).
const SNAP_HEADER_LEN: usize = 17;
/// The header crc covers everything before it: magic, version, seq.
const SNAP_CRC_OFFSET: usize = 13;

/// Record-flags bit: this record commits its group.
const FLAG_COMMIT: u8 = 0x01;
/// Byte offset of the flags byte inside an encoded record (after the
/// u64 seq), patched when the group seals.
const FLAGS_OFFSET: usize = 8;

/// Commit tap: called as `(first_seq, last_seq, bytes)` with the
/// sealed, crc-complete bytes of every commit group immediately after
/// the group is appended + flushed to the local WAL. The bytes are the
/// exact on-disk encoding — a standby feeds them verbatim to
/// [`DurableStore::apply_replicated_group`]. Invoked under the store
/// lock, so tap invocations observe groups in WAL order.
pub type CommitTap = Box<dyn FnMut(u64, u64, &[u8]) + Send>;

/// When the WAL is fsync'd. Independently of the policy, the WAL is
/// *flushed* (userspace buffer → OS page cache) per commit group, so
/// acknowledged mutations survive a `kill -9` under either policy; the
/// policy only decides whether they also survive power loss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync every commit group (safest, slowest).
    EveryRecord,
    /// Let the OS flush (group commit via page cache).
    OsManaged,
}

impl SyncPolicy {
    /// Parse a CLI/env spelling of the policy.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "every-record" | "every" | "sync" | "fsync" | "always" => Some(Self::EveryRecord),
            "os" | "os-managed" | "async" => Some(Self::OsManaged),
            _ => None,
        }
    }

    /// Canonical CLI spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::EveryRecord => "every-record",
            Self::OsManaged => "os-managed",
        }
    }
}

/// Counters describing a durable store's recovery and steady-state
/// persistence work; surfaced as daemon gauges and in boot reports.
#[derive(Clone, Debug, Default)]
pub struct PersistenceStats {
    /// Records currently in the log (since the last checkpoint).
    pub wal_records: u64,
    /// WAL records applied during the last `open` (acked mutations the
    /// snapshot did not yet cover).
    pub replayed_records: u64,
    /// Records loaded from the snapshot during the last `open`.
    pub snapshot_records: u64,
    /// Checkpoints written since `open`.
    pub checkpoints: u64,
    /// WAL fsyncs issued since `open` (inline per-group syncs,
    /// deferred group-commit flushes, and maintenance syncs). The
    /// group-commit win is this counter staying far below the op
    /// count.
    pub wal_fsyncs: u64,
}

/// Durable wrapper over a store.
pub struct DurableStore<S: KvStore> {
    inner: S,
    dir: PathBuf,
    wal: BufWriter<File>,
    next_seq: u64,
    policy: SyncPolicy,
    /// Checkpoint automatically after this many logged mutations.
    pub checkpoint_every: usize,
    txn_depth: usize,
    /// Encoded-but-uncommitted records (crc appended at commit).
    txn_buf: Vec<Vec<u8>>,
    /// Group-commit mode: under [`SyncPolicy::EveryRecord`], commit
    /// groups are appended + flushed but their fsync is deferred to an
    /// explicit [`DurableStore::commit_flush`] — the hosting server
    /// promises not to acknowledge the group before calling it.
    defer_sync: bool,
    /// Records appended since the last WAL fsync (batch size of the
    /// next `commit_flush`).
    unsynced_records: u64,
    /// Per-request marker: highest sequence number of a group this
    /// request appended without an inline fsync. Taken (and cleared)
    /// by [`DurableStore::take_sync_ticket`].
    sync_ticket: Option<u64>,
    /// Replication feed: observes every sealed commit group.
    tap: Option<CommitTap>,
    stats: PersistenceStats,
}

fn wal_path(dir: &Path) -> PathBuf {
    dir.join("wal.log")
}

fn snap_path(dir: &Path) -> PathBuf {
    dir.join("snapshot.db")
}

/// Verify a snapshot envelope's header; returns the last WAL sequence
/// number it covers and the inner image.
fn open_envelope(env: &[u8]) -> Result<(u64, &[u8]), String> {
    if !env.starts_with(SNAP_MAGIC) || env.len() < SNAP_HEADER_LEN {
        return Err("not a v2 snapshot envelope".into());
    }
    let (head, image) = env.split_at(SNAP_HEADER_LEN);
    if head[4] != SNAP_VERSION {
        return Err(format!("unsupported snapshot version {}", head[4]));
    }
    let want = u32::from_le_bytes(head[SNAP_CRC_OFFSET..].try_into().expect("4-byte crc"));
    if crc32(&head[..SNAP_CRC_OFFSET]) != want {
        return Err("snapshot envelope header checksum mismatch".into());
    }
    let seq = u64::from_le_bytes(head[5..SNAP_CRC_OFFSET].try_into().expect("8-byte seq"));
    Ok((seq, image))
}

fn invalid(e: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e.into())
}

fn wal_fatal(what: &str, e: std::io::Error) -> ! {
    loco_log::last_gasp(
        "wal",
        "wal failure; aborting",
        &format!(
            "loco-kv: FATAL wal {what} failure: {e} — aborting rather than acknowledge unlogged mutations"
        ),
    );
    std::process::abort();
}

/// One decoded WAL record (replay side).
struct RecView {
    seq: u64,
    commit: bool,
    op: u8,
    key: Vec<u8>,
    parts: Vec<Vec<u8>>,
}

fn op_part_count(op: u8) -> Option<usize> {
    match op {
        OP_PUT | OP_APPEND => Some(1),
        OP_DELETE => Some(0),
        OP_WRITE_AT => Some(2),
        _ => None,
    }
}

/// Parse one v2 record starting at `start`; `None` on a torn,
/// truncated, oversized-length or checksum-damaged record.
fn parse_v2_record(buf: &[u8], start: usize) -> Option<(RecView, usize)> {
    let rem = buf.get(start..)?;
    if rem.len() < 14 {
        return None;
    }
    let seq = u64::from_le_bytes(rem[0..8].try_into().unwrap());
    let flags = rem[8];
    let op = rem[9];
    let klen = u32::from_le_bytes(rem[10..14].try_into().unwrap()) as usize;
    let mut pos = 14usize;
    let end = pos.checked_add(klen)?;
    if rem.len() < end {
        return None;
    }
    let key = rem[pos..end].to_vec();
    pos = end;
    let n_parts = op_part_count(op)?;
    let mut parts = Vec::with_capacity(n_parts);
    for _ in 0..n_parts {
        if rem.len() < pos + 4 {
            return None;
        }
        let plen = u32::from_le_bytes(rem[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4;
        let end = pos.checked_add(plen)?;
        if rem.len() < end {
            return None;
        }
        parts.push(rem[pos..end].to_vec());
        pos = end;
    }
    if rem.len() < pos + 4 {
        return None;
    }
    let stored = u32::from_le_bytes(rem[pos..pos + 4].try_into().unwrap());
    if crc32(&rem[..pos]) != stored {
        return None;
    }
    Some((
        RecView {
            seq,
            commit: flags & FLAG_COMMIT != 0,
            op,
            key,
            parts,
        },
        start + pos + 4,
    ))
}

/// Apply one record [`parse_v2_record`] accepted.
fn apply<S: KvStore>(store: &mut S, op: u8, key: &[u8], parts: &[Vec<u8>]) {
    match op {
        OP_PUT => store.put(key, &parts[0]),
        OP_DELETE => {
            store.delete(key);
        }
        OP_APPEND => store.append(key, &parts[0]),
        OP_WRITE_AT => {
            if let Ok(off) = <[u8; 8]>::try_from(parts[0].as_slice()) {
                store.write_at(key, u64::from_le_bytes(off) as usize, &parts[1]);
            }
        }
        _ => {}
    }
}

impl<S: KvStore> DurableStore<S> {
    /// Open (or create) a durable store at `dir`, recovering any
    /// existing snapshot + log into `inner` (which must be empty).
    ///
    /// Recovery applies only *committed* groups whose sequence numbers
    /// the snapshot does not already cover, then truncates the log to
    /// that valid prefix. Corrupt state is a clean `Err`, never a
    /// panic and never a partial load presented as whole.
    pub fn open(dir: impl Into<PathBuf>, mut inner: S) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut stats = PersistenceStats::default();

        // 1) snapshot (v2 envelope with last-covered-seq).
        let mut snap_seq = 0u64;
        match std::fs::read(snap_path(&dir)) {
            Ok(env) => {
                let (seq, image) = open_envelope(&env).map_err(invalid)?;
                snap_seq = seq;
                stats.snapshot_records =
                    crate::snapshot::load(&mut inner, image).map_err(invalid)? as u64;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }

        // 2) replay the WAL and compute the valid prefix.
        let wal_p = wal_path(&dir);
        let mut max_seq = 0u64;
        match std::fs::read(&wal_p) {
            Ok(buf) if buf.is_empty() => {}
            Ok(buf) => {
                let valid_end = if buf.len() < WAL_HEADER_LEN
                    && WAL_MAGIC.starts_with(&buf[..buf.len().min(4)])
                {
                    // A torn header write (the magic and version land in
                    // separate write calls): an empty log, not an error.
                    0
                } else if !buf.starts_with(WAL_MAGIC) {
                    // Not a v2 log: refuse it before the truncation
                    // below can touch it.
                    return Err(invalid("not a v2 wal: bad header magic"));
                } else {
                    if buf[4] != WAL_VERSION {
                        return Err(invalid(format!("unsupported wal version {}", buf[4])));
                    }
                    let mut pos = WAL_HEADER_LEN;
                    let mut valid_end = pos;
                    let mut group: Vec<RecView> = Vec::new();
                    while let Some((rec, next)) = parse_v2_record(&buf, pos) {
                        pos = next;
                        let commit = rec.commit;
                        group.push(rec);
                        if commit {
                            for r in group.drain(..) {
                                max_seq = max_seq.max(r.seq);
                                stats.wal_records += 1;
                                if r.seq > snap_seq {
                                    apply(&mut inner, r.op, &r.key, &r.parts);
                                    stats.replayed_records += 1;
                                }
                            }
                            valid_end = pos;
                        }
                    }
                    // A trailing commit-less group is a torn group
                    // write: discard it (and everything after the last
                    // sealed group) by truncating below.
                    valid_end
                };
                if valid_end < buf.len() {
                    let f = OpenOptions::new().write(true).open(&wal_p)?;
                    f.set_len(valid_end as u64)?;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }

        let file = OpenOptions::new().create(true).append(true).open(&wal_p)?;
        let fresh = file.metadata()?.len() == 0;
        let mut wal = BufWriter::new(file);
        if fresh {
            wal.write_all(WAL_MAGIC)?;
            wal.write_all(&[WAL_VERSION])?;
            wal.flush()?;
        }

        let mut s = Self {
            inner,
            dir,
            wal,
            next_seq: max_seq.max(snap_seq) + 1,
            policy: SyncPolicy::OsManaged,
            checkpoint_every: 100_000,
            txn_depth: 0,
            txn_buf: Vec::new(),
            defer_sync: false,
            unsynced_records: 0,
            sync_ticket: None,
            tap: None,
            stats,
        };
        let _ = s.inner.take_cost(); // recovery is offline work
        loco_log::info!("wal.recovery", "durable store opened";
            snapshot_records = s.stats.snapshot_records,
            wal_records = s.stats.wal_records,
            replayed = s.stats.replayed_records,
            next_seq = s.next_seq);
        Ok(s)
    }

    /// Override the WAL sync policy.
    pub fn with_sync_policy(mut self, policy: SyncPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The configured sync policy.
    pub fn sync_policy(&self) -> SyncPolicy {
        self.policy
    }

    /// Mutations currently in the log (since the last checkpoint).
    pub fn wal_records(&self) -> usize {
        self.stats.wal_records as usize
    }

    /// Recovery/persistence counters.
    pub fn stats(&self) -> &PersistenceStats {
        &self.stats
    }

    /// Build the crc-sealed snapshot envelope (the exact bytes
    /// `checkpoint` persists) for the current state; returns
    /// `(last_covered_seq, envelope)`. Also the replication snapshot
    /// image a primary ships to a lagging standby.
    pub fn snapshot_image(&mut self) -> (u64, Vec<u8>) {
        let image = crate::snapshot::dump(&mut self.inner);
        let _ = self.inner.take_cost();
        let last_seq = self.next_seq - 1;
        let mut env = Vec::with_capacity(SNAP_HEADER_LEN + image.len());
        env.extend_from_slice(SNAP_MAGIC);
        env.push(SNAP_VERSION);
        env.extend_from_slice(&last_seq.to_le_bytes());
        let header_crc = crc32(&env);
        env.extend_from_slice(&header_crc.to_le_bytes());
        env.extend_from_slice(&image);
        (last_seq, env)
    }

    /// Write a full snapshot atomically and rotate the log.
    pub fn checkpoint(&mut self) -> std::io::Result<()> {
        loco_log::debug!("wal.checkpoint", "checkpoint begin";
            wal_records = self.stats.wal_records);
        loco_faults::crashpoint("checkpoint_pre_write");
        let (last_seq, env) = self.snapshot_image();
        let tmp = self.dir.join("snapshot.tmp");
        {
            let mut f = File::create(&tmp)?;
            if let Some(e) = loco_faults::io_error("checkpoint_write") {
                return Err(e);
            }
            if let Some(n) = loco_faults::torn_len("checkpoint_write", env.len()) {
                let _ = f.write_all(&env[..n]);
                let _ = f.sync_all();
                loco_faults::die("checkpoint_write", "torn checkpoint write");
            }
            f.write_all(&env)?;
            f.sync_all()?;
        }
        loco_faults::crashpoint("checkpoint_pre_rename");
        std::fs::rename(&tmp, snap_path(&self.dir))?;
        // Make the rename itself durable before rotating the log.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        loco_faults::crashpoint("checkpoint_post_rename");
        // Rotate the WAL only after the snapshot is durable. If we
        // crash before this point the old log replays but its seqs are
        // ≤ the snapshot's last_seq, so nothing double-applies.
        let mut wal = BufWriter::new(File::create(wal_path(&self.dir))?);
        wal.write_all(WAL_MAGIC)?;
        wal.write_all(&[WAL_VERSION])?;
        wal.flush()?;
        self.wal = wal;
        loco_faults::crashpoint("checkpoint_post_truncate");
        self.stats.wal_records = 0;
        // The fsync'd snapshot covers every appended record, so any
        // deferred groups are durable now; the rotated (empty) log has
        // nothing left to flush.
        self.unsynced_records = 0;
        self.stats.checkpoints += 1;
        loco_log::info!("wal.checkpoint", "checkpoint complete: snapshot rotated";
            last_seq = last_seq,
            bytes = env.len() as u64,
            checkpoints = self.stats.checkpoints);
        Ok(())
    }

    /// Encode a record (sans crc) and queue it on the open group; a
    /// bare mutation (no surrounding txn) commits its group of one
    /// immediately.
    fn log(&mut self, op: u8, key: &[u8], parts: &[&[u8]]) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut rec =
            Vec::with_capacity(18 + key.len() + parts.iter().map(|p| p.len() + 4).sum::<usize>());
        rec.extend_from_slice(&seq.to_le_bytes());
        rec.push(0); // flags — commit bit patched when the group seals
        rec.push(op);
        rec.extend_from_slice(&(key.len() as u32).to_le_bytes());
        rec.extend_from_slice(key);
        for p in parts {
            rec.extend_from_slice(&(p.len() as u32).to_le_bytes());
            rec.extend_from_slice(p);
        }
        self.txn_buf.push(rec);
    }

    /// Commit the group of one for a bare (non-txn) mutation. Called
    /// by the mutators *after* the inner apply, so an auto-checkpoint
    /// triggered here snapshots state that includes the mutation whose
    /// sequence number the snapshot claims to cover.
    fn autocommit(&mut self) {
        if self.txn_depth == 0 {
            self.commit_group();
        }
    }

    /// Seal the open group (commit flag on its last record, crc per
    /// record), write it as one contiguous append, flush, and fsync
    /// per policy. A write/fsync failure here aborts the process: the
    /// caller is about to acknowledge these mutations.
    fn commit_group(&mut self) {
        let mut records = std::mem::take(&mut self.txn_buf);
        if records.is_empty() {
            return;
        }
        loco_faults::crashpoint("wal_pre_commit");
        if let Some(last) = records.last_mut() {
            last[FLAGS_OFFSET] |= FLAG_COMMIT;
        }
        let n = records.len() as u64;
        let mut group = Vec::with_capacity(records.iter().map(|r| r.len() + 4).sum::<usize>());
        for mut rec in records {
            let crc = crc32(&rec);
            rec.extend_from_slice(&crc.to_le_bytes());
            group.extend_from_slice(&rec);
        }
        if let Some(tl) = loco_faults::torn_len("wal_commit", group.len()) {
            let _ = self.wal.write_all(&group[..tl]);
            let _ = self.wal.flush();
            loco_faults::die("wal_commit", "torn wal group write");
        }
        if let Some(e) = loco_faults::io_error("wal_write") {
            wal_fatal("write", e);
        }
        // Always push the group through to the OS: a BufWriter-only
        // record dies with the process on kill -9, and the daemon acks
        // as soon as this returns.
        if let Err(e) = self.wal.write_all(&group).and_then(|()| self.wal.flush()) {
            wal_fatal("write", e);
        }
        loco_faults::crashpoint("wal_after_append");
        if let Some(tap) = self.tap.as_mut() {
            tap(self.next_seq - n, self.next_seq - 1, &group);
        }
        if self.policy == SyncPolicy::EveryRecord {
            if self.defer_sync {
                // Group commit: the records are in the OS page cache;
                // the fsync that makes them power-loss-durable happens
                // in `commit_flush`, before any ack for this group.
                self.unsynced_records += n;
                self.sync_ticket = Some(self.next_seq - 1);
            } else {
                if let Some(e) = loco_faults::io_error("wal_fsync") {
                    wal_fatal("fsync", e);
                }
                if let Err(e) = self.wal.get_ref().sync_data() {
                    wal_fatal("fsync", e);
                }
                self.stats.wal_fsyncs += 1;
                loco_faults::crashpoint("wal_after_sync");
            }
        }
        self.stats.wal_records += n;
        if self.stats.wal_records as usize >= self.checkpoint_every && self.txn_depth == 0 {
            // Abort (not panic) on failure: unwinding would flush the
            // BufWriter and run destructors, which is not what a crash
            // does — and a store that cannot checkpoint must not keep
            // acknowledging writes against an unbounded WAL.
            if let Err(e) = self.checkpoint() {
                wal_fatal("checkpoint", e);
            }
        }
    }

    /// Flush buffered WAL records to the OS (and disk).
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.wal.flush()?;
        self.wal.get_ref().sync_data()?;
        self.unsynced_records = 0;
        self.stats.wal_fsyncs += 1;
        Ok(())
    }

    /// Switch deferred group fsync on or off. Returns whether deferral
    /// is active afterwards — only [`SyncPolicy::EveryRecord`] stores
    /// defer (under [`SyncPolicy::OsManaged`] there is no per-group
    /// fsync to amortize and the WAL-before-ack contract is already met
    /// by the per-group flush). Turning deferral off flushes anything
    /// pending so no acknowledged group is left unsynced.
    pub fn set_defer_sync(&mut self, on: bool) -> bool {
        if on && self.policy == SyncPolicy::EveryRecord {
            self.defer_sync = true;
        } else {
            if self.defer_sync && self.unsynced_records > 0 {
                self.commit_flush();
            }
            self.defer_sync = false;
        }
        self.defer_sync
    }

    /// Take the pending commit ticket: `Some(seq)` when the current
    /// request appended a group whose fsync was deferred (the caller
    /// must not ack before [`DurableStore::commit_flush`] runs),
    /// `None` for read-only requests or non-deferring stores.
    pub fn take_sync_ticket(&mut self) -> Option<u64> {
        self.sync_ticket.take()
    }

    /// Fsync every deferred record in one batch; returns how many
    /// records the fsync covered (0 when everything was already
    /// durable — e.g. a checkpoint rotated the log meanwhile). A
    /// failure is fatal, exactly like the inline per-group fsync: the
    /// caller is about to acknowledge these groups.
    pub fn commit_flush(&mut self) -> u64 {
        let n = self.unsynced_records;
        if n == 0 {
            return 0;
        }
        if let Some(e) = loco_faults::io_error("wal_fsync") {
            wal_fatal("fsync", e);
        }
        if let Err(e) = self
            .wal
            .flush()
            .and_then(|()| self.wal.get_ref().sync_data())
        {
            wal_fatal("fsync", e);
        }
        self.unsynced_records = 0;
        self.stats.wal_fsyncs += 1;
        n
    }

    /// Stage [`DurableStore::commit_flush`] so the fsync itself can run
    /// without the store lock: flush the buffered WAL bytes to the OS
    /// now (so the returned handle sees every covered byte), zero the
    /// deferred counter, and hand back the fsync as a closure over a
    /// cloned file handle. Concurrent appends during the out-of-lock
    /// fsync are safe — they only *add* bytes past the ones this batch
    /// covers, and their own tickets hold their acks for the next
    /// batch. Falls back to the inline flush (returning `None`) if the
    /// handle cannot be cloned.
    pub fn commit_flush_begin(&mut self) -> Option<(u64, Box<dyn FnOnce() + Send>)> {
        let n = self.unsynced_records;
        if n == 0 {
            return None;
        }
        if let Err(e) = self.wal.flush() {
            wal_fatal("fsync", e);
        }
        let Ok(wal) = self.wal.get_ref().try_clone() else {
            self.commit_flush();
            return None;
        };
        self.unsynced_records = 0;
        self.stats.wal_fsyncs += 1;
        Some((
            n,
            Box::new(move || {
                if let Some(e) = loco_faults::io_error("wal_fsync") {
                    wal_fatal("fsync", e);
                }
                if let Err(e) = wal.sync_data() {
                    wal_fatal("fsync", e);
                }
            }),
        ))
    }

    // ----- replication (warm-standby) side ------------------------------

    /// Install the commit tap (replaces any previous tap).
    pub fn set_commit_tap(&mut self, tap: CommitTap) {
        self.tap = Some(tap);
    }

    /// The next WAL sequence number this store would assign.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Standby-side apply of one or more replicated commit groups —
    /// the exact bytes a primary's commit tap produced, possibly
    /// concatenated. Torn-tail safe: the payload is fully validated
    /// (parse, crc, contiguous seqs, final commit flag) before a single
    /// byte hits the local WAL or the wrapped store, so a malformed
    /// ship can never leave partial effects.
    ///
    /// Idempotent: a payload whose records are all `< next_seq` is
    /// skipped with `Ok(0)`. A payload starting past `next_seq` is a
    /// gap error — the primary must back-fill from its ring or send a
    /// snapshot. Returns the number of records applied.
    pub fn apply_replicated_group(&mut self, group: &[u8]) -> Result<u64, String> {
        let mut recs = Vec::new();
        let mut pos = 0usize;
        while pos < group.len() {
            let Some((rec, next)) = parse_v2_record(group, pos) else {
                return Err(format!("malformed replicated record at byte {pos}"));
            };
            pos = next;
            recs.push(rec);
        }
        let (Some(first), Some(last)) = (recs.first(), recs.last()) else {
            return Err("empty replicated group".into());
        };
        if !last.commit {
            return Err("replicated group missing its commit record".into());
        }
        let (first_seq, last_seq) = (first.seq, last.seq);
        for (i, r) in recs.iter().enumerate() {
            if r.seq != first_seq + i as u64 {
                return Err(format!(
                    "non-contiguous replicated seqs: expected {} got {}",
                    first_seq + i as u64,
                    r.seq
                ));
            }
        }
        if last_seq < self.next_seq {
            return Ok(0); // already applied (duplicate ship)
        }
        if first_seq > self.next_seq {
            return Err(format!(
                "replication gap: group starts at {first_seq}, store expects {}",
                self.next_seq
            ));
        }
        if first_seq != self.next_seq {
            // A group straddling the applied prefix would mean the
            // primary resent half a group — groups are atomic, refuse.
            return Err(format!(
                "replicated group straddles applied prefix ({first_seq}..{last_seq} vs next {})",
                self.next_seq
            ));
        }
        let n = recs.len() as u64;
        // Verbatim append: the standby's WAL stays byte-identical to
        // the primary's for the replicated range.
        if let Err(e) = self.wal.write_all(group).and_then(|()| self.wal.flush()) {
            wal_fatal("write", e);
        }
        if self.policy == SyncPolicy::EveryRecord {
            if self.defer_sync {
                // The hosting server's group-commit flush fsyncs before
                // the replication ack leaves — "standby acked" must
                // imply "standby durable" or the primary's quorum is a
                // lie.
                self.unsynced_records += n;
                self.sync_ticket = Some(last_seq);
            } else {
                if let Err(e) = self.wal.get_ref().sync_data() {
                    wal_fatal("fsync", e);
                }
                self.stats.wal_fsyncs += 1;
            }
        }
        for r in &recs {
            apply(&mut self.inner, r.op, &r.key, &r.parts);
        }
        let _ = self.inner.take_cost();
        self.next_seq = last_seq + 1;
        self.stats.wal_records += n;
        if let Some(tap) = self.tap.as_mut() {
            // Keep our own replication ring warm: if this standby is
            // promoted it can back-fill its peers without a snapshot.
            tap(first_seq, last_seq, group);
        }
        if self.stats.wal_records as usize >= self.checkpoint_every && self.txn_depth == 0 {
            if let Err(e) = self.checkpoint() {
                wal_fatal("checkpoint", e);
            }
        }
        Ok(n)
    }

    /// Install a snapshot envelope (from [`DurableStore::snapshot_image`]
    /// on the primary): validate, persist atomically, replace the
    /// in-memory state wholesale, and rotate the WAL. The standby
    /// resumes applying groups at `last_covered_seq + 1`.
    pub fn install_snapshot(&mut self, env: &[u8]) -> Result<usize, String> {
        let (snap_seq, image) = open_envelope(env)?;
        // Fully parse + checksum the image payload BEFORE touching the
        // disk envelope or the live store: a corrupt ship must leave
        // this replica serving (and acking) its current state, never
        // gut a running standby that then keeps taking the stream.
        crate::snapshot::validate(image)?;
        let io = |what: &str, e: std::io::Error| format!("snapshot install {what}: {e}");
        let tmp = self.dir.join("snapshot.tmp");
        {
            let mut f = File::create(&tmp).map_err(|e| io("create", e))?;
            f.write_all(env).map_err(|e| io("write", e))?;
            f.sync_all().map_err(|e| io("fsync", e))?;
        }
        std::fs::rename(&tmp, snap_path(&self.dir)).map_err(|e| io("rename", e))?;
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        let _ = self.inner.extract_prefix(b"");
        let count = crate::snapshot::load(&mut self.inner, image)?;
        let _ = self.inner.take_cost();
        // Rotate the WAL only after the snapshot is durable (same
        // ordering argument as `checkpoint`).
        let mut wal =
            BufWriter::new(File::create(wal_path(&self.dir)).map_err(|e| io("rotate", e))?);
        wal.write_all(WAL_MAGIC).map_err(|e| io("rotate", e))?;
        wal.write_all(&[WAL_VERSION]).map_err(|e| io("rotate", e))?;
        wal.flush().map_err(|e| io("rotate", e))?;
        self.wal = wal;
        self.next_seq = snap_seq + 1;
        self.txn_buf.clear();
        self.sync_ticket = None;
        self.unsynced_records = 0;
        self.stats.wal_records = 0;
        self.stats.snapshot_records = count as u64;
        self.stats.checkpoints += 1;
        loco_log::info!("wal.snapshot", "replication snapshot installed";
            last_seq = snap_seq,
            records = count as u64,
            bytes = env.len() as u64);
        Ok(count)
    }
}

impl<S: KvStore> KvStore for DurableStore<S> {
    fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        self.inner.get(key)
    }

    fn put(&mut self, key: &[u8], value: &[u8]) {
        self.log(OP_PUT, key, &[value]);
        self.inner.put(key, value);
        self.autocommit();
    }

    fn delete(&mut self, key: &[u8]) -> bool {
        self.log(OP_DELETE, key, &[]);
        let hit = self.inner.delete(key);
        self.autocommit();
        hit
    }

    fn contains(&mut self, key: &[u8]) -> bool {
        self.inner.contains(key)
    }

    fn read_at(&mut self, key: &[u8], off: usize, len: usize) -> Option<Vec<u8>> {
        self.inner.read_at(key, off, len)
    }

    fn write_at(&mut self, key: &[u8], off: usize, data: &[u8]) -> bool {
        self.log(OP_WRITE_AT, key, &[&(off as u64).to_le_bytes(), data]);
        let hit = self.inner.write_at(key, off, data);
        self.autocommit();
        hit
    }

    fn append(&mut self, key: &[u8], data: &[u8]) {
        self.log(OP_APPEND, key, &[data]);
        self.inner.append(key, data);
        self.autocommit();
    }

    fn scan_prefix(&mut self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.inner.scan_prefix(prefix)
    }

    fn extract_prefix(&mut self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        // Logged as individual deletes so replay is store-agnostic;
        // the deletes share one commit group so a crash can't leave
        // half an extraction applied.
        let out = self.inner.extract_prefix(prefix);
        for (k, _) in &out {
            self.log(OP_DELETE, k, &[]);
        }
        self.autocommit();
        out
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn ordered(&self) -> bool {
        self.inner.ordered()
    }

    fn take_cost(&mut self) -> Nanos {
        self.inner.take_cost()
    }

    fn stats(&self) -> AccessStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn txn_begin(&mut self) {
        self.txn_depth += 1;
    }

    fn txn_commit(&mut self) {
        if self.txn_depth > 0 {
            self.txn_depth -= 1;
        }
        if self.txn_depth == 0 && !self.txn_buf.is_empty() {
            self.commit_group();
        }
    }

    fn persist_checkpoint(&mut self) -> std::io::Result<bool> {
        if self.txn_depth > 0 {
            // Never snapshot half a commit group.
            return Ok(false);
        }
        self.checkpoint()?;
        Ok(true)
    }

    fn persist_sync(&mut self) -> std::io::Result<()> {
        self.sync()
    }

    fn persist_defer_sync(&mut self, on: bool) -> bool {
        self.set_defer_sync(on)
    }

    fn persist_take_ticket(&mut self) -> Option<u64> {
        self.take_sync_ticket()
    }

    fn persist_commit_flush(&mut self) -> u64 {
        self.commit_flush()
    }

    fn persist_commit_flush_begin(&mut self) -> Option<(u64, Box<dyn FnOnce() + Send>)> {
        self.commit_flush_begin()
    }

    fn persistence(&self) -> Option<PersistenceStats> {
        Some(self.stats.clone())
    }

    fn repl_set_tap(&mut self, tap: CommitTap) -> bool {
        self.set_commit_tap(tap);
        true
    }

    fn repl_next_seq(&self) -> u64 {
        self.next_seq()
    }

    fn repl_apply_group(&mut self, group: &[u8]) -> Result<u64, String> {
        self.apply_replicated_group(group)
    }

    fn repl_snapshot_image(&mut self) -> Option<(u64, Vec<u8>)> {
        Some(self.snapshot_image())
    }

    fn repl_install_snapshot(&mut self, env: &[u8]) -> Result<usize, String> {
        self.install_snapshot(env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BTreeDb, HashDb, KvConfig};
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    /// Unique scratch directory, removed on drop.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new() -> Self {
            let n = DIR_SEQ.fetch_add(1, Ordering::SeqCst);
            let dir =
                std::env::temp_dir().join(format!("loco-kv-durable-{}-{n}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn fresh(dir: &Path) -> DurableStore<BTreeDb> {
        DurableStore::open(dir, BTreeDb::new(KvConfig::default())).unwrap()
    }

    /// Hand-encode a sealed v2 record (for corruption tests).
    fn encode_v2(seq: u64, flags: u8, op: u8, key: &[u8], parts: &[&[u8]]) -> Vec<u8> {
        let mut rec = Vec::new();
        rec.extend_from_slice(&seq.to_le_bytes());
        rec.push(flags);
        rec.push(op);
        rec.extend_from_slice(&(key.len() as u32).to_le_bytes());
        rec.extend_from_slice(key);
        for p in parts {
            rec.extend_from_slice(&(p.len() as u32).to_le_bytes());
            rec.extend_from_slice(p);
        }
        let crc = crc32(&rec);
        rec.extend_from_slice(&crc.to_le_bytes());
        rec
    }

    #[test]
    fn mutations_survive_reopen_via_wal() {
        let scratch = Scratch::new();
        {
            let mut db = fresh(&scratch.0);
            db.put(b"a", b"1");
            db.put(b"b", b"2");
            db.delete(b"a");
            db.append(b"log", b"xy");
            db.append(b"log", b"z");
            db.sync().unwrap();
            // Dropped without checkpoint: recovery must come from WAL.
        }
        let mut db = fresh(&scratch.0);
        assert_eq!(db.get(b"a"), None);
        assert_eq!(db.get(b"b").as_deref(), Some(&b"2"[..]));
        assert_eq!(db.get(b"log").as_deref(), Some(&b"xyz"[..]));
        assert_eq!(db.len(), 2);
        assert_eq!(db.stats().replayed_records, 5);
    }

    #[test]
    fn checkpoint_truncates_wal_and_still_recovers() {
        let scratch = Scratch::new();
        {
            let mut db = fresh(&scratch.0);
            for i in 0..200u32 {
                db.put(&i.to_be_bytes(), &[7u8; 32]);
            }
            db.checkpoint().unwrap();
            assert_eq!(db.wal_records(), 0);
            db.put(b"after", b"ckpt");
            db.sync().unwrap();
        }
        let mut db = fresh(&scratch.0);
        assert_eq!(db.len(), 201);
        assert_eq!(db.get(b"after").as_deref(), Some(&b"ckpt"[..]));
        assert_eq!(db.stats().snapshot_records, 200);
        assert_eq!(db.stats().replayed_records, 1);
    }

    #[test]
    fn torn_wal_tail_is_ignored_and_truncated() {
        let scratch = Scratch::new();
        {
            let mut db = fresh(&scratch.0);
            db.put(b"good", b"record");
            db.sync().unwrap();
        }
        // Simulate a crash mid-append: write half a record.
        let mut f = OpenOptions::new()
            .append(true)
            .open(wal_path(&scratch.0))
            .unwrap();
        f.write_all(&[0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01]).unwrap();
        drop(f);
        {
            let mut db = fresh(&scratch.0);
            assert_eq!(db.get(b"good").as_deref(), Some(&b"record"[..]));
            assert_eq!(db.len(), 1);
            // And the store keeps appending after recovery — the torn
            // tail was truncated, so new records are reachable.
            db.put(b"more", b"data");
            db.sync().unwrap();
        }
        let mut db = fresh(&scratch.0);
        assert_eq!(db.len(), 2);
        assert_eq!(db.get(b"more").as_deref(), Some(&b"data"[..]));
    }

    #[test]
    fn corrupted_record_checksum_stops_replay() {
        let scratch = Scratch::new();
        {
            let mut db = fresh(&scratch.0);
            db.put(b"k1", b"v1");
            db.put(b"k2", b"v2");
            db.sync().unwrap();
        }
        // Flip a bit in the middle of the log: replay stops at the
        // damaged record (k2's).
        let p = wal_path(&scratch.0);
        let mut bytes = std::fs::read(&p).unwrap();
        let n = bytes.len();
        bytes[n - 6] ^= 0xFF;
        std::fs::write(&p, &bytes).unwrap();
        let mut db = fresh(&scratch.0);
        assert_eq!(db.get(b"k1").as_deref(), Some(&b"v1"[..]));
        assert_eq!(db.get(b"k2"), None, "damaged record must not apply");
    }

    #[test]
    fn uncommitted_group_tail_is_discarded() {
        let scratch = Scratch::new();
        {
            let mut db = fresh(&scratch.0);
            db.txn_begin();
            db.put(b"pair/a", b"1");
            db.put(b"pair/b", b"2");
            db.txn_commit();
            db.sync().unwrap();
        }
        // Append a valid-looking record that never got its commit
        // record (torn group write): it must not apply on recovery.
        let mut f = OpenOptions::new()
            .append(true)
            .open(wal_path(&scratch.0))
            .unwrap();
        f.write_all(&encode_v2(99, 0, OP_PUT, b"orphan", &[b"x"]))
            .unwrap();
        drop(f);
        let mut db = fresh(&scratch.0);
        assert_eq!(db.get(b"pair/a").as_deref(), Some(&b"1"[..]));
        assert_eq!(db.get(b"pair/b").as_deref(), Some(&b"2"[..]));
        assert_eq!(db.get(b"orphan"), None, "uncommitted group must not apply");
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn snapshot_seq_prevents_double_replay_of_appends() {
        let scratch = Scratch::new();
        {
            let mut db = fresh(&scratch.0);
            db.append(b"log", b"x");
            db.sync().unwrap();
            let old_wal = std::fs::read(wal_path(&scratch.0)).unwrap();
            db.checkpoint().unwrap();
            drop(db);
            // Simulate a crash between the snapshot rename and the WAL
            // rotation: the old log (seqs the snapshot covers) is
            // still on disk.
            std::fs::write(wal_path(&scratch.0), &old_wal).unwrap();
        }
        let mut db = fresh(&scratch.0);
        assert_eq!(
            db.get(b"log").as_deref(),
            Some(&b"x"[..]),
            "append must not double-apply"
        );
        assert_eq!(db.stats().replayed_records, 0);
        // Sequence numbers keep climbing past the recovered state.
        db.append(b"log", b"y");
        db.sync().unwrap();
        drop(db);
        let mut db = fresh(&scratch.0);
        assert_eq!(db.get(b"log").as_deref(), Some(&b"xy"[..]));
    }

    #[test]
    fn a_flipped_header_bit_fails_open_and_leaves_the_log_intact() {
        let scratch = Scratch::new();
        {
            let mut db = fresh(&scratch.0);
            for i in 0..50u32 {
                db.put(&i.to_be_bytes(), b"value");
            }
            db.sync().unwrap();
        }
        let p = wal_path(&scratch.0);
        let mut bytes = std::fs::read(&p).unwrap();
        bytes[0] ^= 0x01;
        std::fs::write(&p, &bytes).unwrap();
        let err = DurableStore::open(&scratch.0, BTreeDb::new(KvConfig::default()))
            .err()
            .expect("a log that is not v2 must not open");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(
            std::fs::read(&p).unwrap(),
            bytes,
            "the refused log must stay byte-identical"
        );
    }

    #[test]
    fn corrupted_snapshot_fails_cleanly() {
        let scratch = Scratch::new();
        {
            let mut db = fresh(&scratch.0);
            db.put(b"k", b"v");
            db.checkpoint().unwrap();
        }
        let p = snap_path(&scratch.0);
        let mut bytes = std::fs::read(&p).unwrap();
        let n = bytes.len();
        bytes[n / 2] ^= 0x40;
        std::fs::write(&p, &bytes).unwrap();
        let err = DurableStore::open(&scratch.0, BTreeDb::new(KvConfig::default()));
        assert!(err.is_err(), "bit-flipped snapshot must not load");
    }

    #[test]
    fn write_at_and_extract_prefix_are_logged() {
        let scratch = Scratch::new();
        {
            let mut db = fresh(&scratch.0);
            db.put(b"fixed", b"0000000000");
            db.write_at(b"fixed", 4, b"XY");
            for i in 0..10u32 {
                db.put(format!("gone/{i}").as_bytes(), b"v");
            }
            let extracted = db.extract_prefix(b"gone/");
            assert_eq!(extracted.len(), 10);
            db.sync().unwrap();
        }
        let mut db = fresh(&scratch.0);
        assert_eq!(db.get(b"fixed").as_deref(), Some(&b"0000XY0000"[..]));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn auto_checkpoint_kicks_in() {
        let scratch = Scratch::new();
        let mut db = fresh(&scratch.0);
        db.checkpoint_every = 50;
        for i in 0..120u32 {
            db.put(&i.to_be_bytes(), b"v");
        }
        assert!(db.wal_records() < 50, "wal must have been truncated");
        assert!(snap_path(&scratch.0).exists());
        drop(db);
        let db2 = fresh(&scratch.0);
        assert_eq!(db2.len(), 120);
    }

    #[test]
    fn auto_checkpoint_defers_until_txn_commit() {
        let scratch = Scratch::new();
        let mut db = fresh(&scratch.0);
        db.checkpoint_every = 10;
        db.txn_begin();
        for i in 0..25u32 {
            db.put(&i.to_be_bytes(), b"v");
        }
        // Mid-txn: nothing written yet, so no checkpoint either.
        assert_eq!(db.stats().checkpoints, 0);
        db.txn_commit();
        assert_eq!(db.stats().checkpoints, 1, "group commit then checkpoint");
        drop(db);
        let db2 = fresh(&scratch.0);
        assert_eq!(db2.len(), 25);
    }

    #[test]
    fn works_over_hash_store_too() {
        let scratch = Scratch::new();
        {
            let mut db = DurableStore::open(&scratch.0, HashDb::new(KvConfig::default())).unwrap();
            db.put(b"h", b"1");
            db.sync().unwrap();
        }
        let mut db = DurableStore::open(&scratch.0, HashDb::new(KvConfig::default())).unwrap();
        assert_eq!(db.get(b"h").as_deref(), Some(&b"1"[..]));
    }

    #[test]
    fn every_record_sync_policy_works() {
        let scratch = Scratch::new();
        {
            let mut db = fresh(&scratch.0).with_sync_policy(SyncPolicy::EveryRecord);
            db.put(b"synced", b"yes");
            // No explicit sync(): the policy already flushed.
        }
        let mut db = fresh(&scratch.0);
        assert_eq!(db.get(b"synced").as_deref(), Some(&b"yes"[..]));
    }

    #[test]
    fn sync_policy_parses_cli_spellings() {
        assert_eq!(
            SyncPolicy::parse("every-record"),
            Some(SyncPolicy::EveryRecord)
        );
        assert_eq!(SyncPolicy::parse("os-managed"), Some(SyncPolicy::OsManaged));
        assert_eq!(SyncPolicy::parse("nope"), None);
        assert_eq!(SyncPolicy::EveryRecord.as_str(), "every-record");
    }

    #[test]
    fn deferred_sync_batches_fsyncs_and_survives_reopen() {
        let scratch = Scratch::new();
        {
            let mut db = fresh(&scratch.0).with_sync_policy(SyncPolicy::EveryRecord);
            assert!(db.set_defer_sync(true), "every-record store defers");
            assert!(db.take_sync_ticket().is_none(), "no mutation yet");
            let before = db.stats().wal_fsyncs;
            for i in 0..10u32 {
                db.put(&i.to_be_bytes(), b"v");
                assert!(db.take_sync_ticket().is_some(), "mutation takes a ticket");
            }
            assert!(db.take_sync_ticket().is_none(), "tickets drain once");
            assert_eq!(db.stats().wal_fsyncs, before, "no inline fsync deferred");
            assert_eq!(db.commit_flush(), 10, "one fsync covers the batch");
            assert_eq!(db.stats().wal_fsyncs, before + 1);
            assert_eq!(db.commit_flush(), 0, "nothing pending after the flush");
        }
        let db = fresh(&scratch.0);
        assert_eq!(db.len(), 10, "deferred groups recover");
    }

    #[test]
    fn os_managed_store_refuses_deferral() {
        let scratch = Scratch::new();
        let mut db = fresh(&scratch.0); // OsManaged by default
        assert!(!db.set_defer_sync(true));
        db.put(b"k", b"v");
        assert!(db.take_sync_ticket().is_none());
    }

    #[test]
    fn disabling_deferral_flushes_pending_groups() {
        let scratch = Scratch::new();
        let mut db = fresh(&scratch.0).with_sync_policy(SyncPolicy::EveryRecord);
        db.set_defer_sync(true);
        db.put(b"k", b"v");
        let before = db.stats().wal_fsyncs;
        assert!(!db.set_defer_sync(false));
        assert_eq!(db.stats().wal_fsyncs, before + 1, "pending group flushed");
        assert_eq!(db.commit_flush(), 0);
        // Back to inline fsyncs.
        db.put(b"k2", b"v");
        assert_eq!(db.stats().wal_fsyncs, before + 2);
    }

    #[test]
    fn checkpoint_clears_deferred_batch() {
        let scratch = Scratch::new();
        let mut db = fresh(&scratch.0).with_sync_policy(SyncPolicy::EveryRecord);
        db.set_defer_sync(true);
        db.put(b"k", b"v");
        db.checkpoint().unwrap();
        // The fsync'd snapshot covers the group: nothing left to flush.
        assert_eq!(db.commit_flush(), 0);
    }

    #[test]
    fn commit_tap_feed_replays_on_a_standby() {
        use std::sync::{Arc, Mutex};
        type TappedGroups = Arc<Mutex<Vec<(u64, u64, Vec<u8>)>>>;
        let (p, s) = (Scratch::new(), Scratch::new());
        let feed: TappedGroups = Arc::new(Mutex::new(Vec::new()));
        let mut primary = fresh(&p.0);
        let sink = feed.clone();
        primary.set_commit_tap(Box::new(move |f, l, b| {
            sink.lock().unwrap().push((f, l, b.to_vec()));
        }));
        primary.put(b"a", b"1");
        primary.txn_begin();
        primary.put(b"b", b"2");
        primary.delete(b"a");
        primary.txn_commit();
        primary.append(b"log", b"xyz");

        let mut standby = fresh(&s.0);
        let groups = feed.lock().unwrap().clone();
        assert_eq!(groups.len(), 3, "three commit groups tapped");
        assert_eq!(groups[0].0, 1, "first group starts at seq 1");
        assert_eq!(groups[1].1 - groups[1].0, 1, "txn group spans 2 records");
        for (_, last, bytes) in &groups {
            let n = standby.apply_replicated_group(bytes).unwrap();
            assert!(n > 0);
            assert_eq!(standby.next_seq(), last + 1);
        }
        assert_eq!(standby.get(b"a"), None);
        assert_eq!(standby.get(b"b").as_deref(), Some(&b"2"[..]));
        assert_eq!(standby.get(b"log").as_deref(), Some(&b"xyz"[..]));
        // Duplicate ship is idempotent; a gap is an error.
        assert_eq!(
            standby.apply_replicated_group(&groups[2].2).unwrap(),
            0,
            "duplicate group skipped"
        );
        let gap = encode_v2(99, FLAG_COMMIT, OP_PUT, b"hole", &[b"x"]);
        assert!(standby.apply_replicated_group(&gap).is_err());
        // And the replicated range is durable: reopen the standby.
        drop(standby);
        let mut standby = fresh(&s.0);
        assert_eq!(standby.get(b"b").as_deref(), Some(&b"2"[..]));
        assert_eq!(standby.get(b"log").as_deref(), Some(&b"xyz"[..]));
    }

    #[test]
    fn replicated_group_without_commit_flag_is_rejected() {
        let scratch = Scratch::new();
        let mut db = fresh(&scratch.0);
        let open = encode_v2(1, 0, OP_PUT, b"k", &[b"v"]);
        assert!(db.apply_replicated_group(&open).is_err());
        assert_eq!(db.get(b"k"), None, "rejected group leaves no effects");
        assert_eq!(db.next_seq(), 1);
        // Damaged crc is also rejected wholesale.
        let mut torn = encode_v2(1, FLAG_COMMIT, OP_PUT, b"k", &[b"v"]);
        let n = torn.len();
        torn[n - 1] ^= 0xFF;
        assert!(db.apply_replicated_group(&torn).is_err());
    }

    #[test]
    fn snapshot_image_installs_on_a_standby() {
        let (p, s) = (Scratch::new(), Scratch::new());
        let mut primary = fresh(&p.0);
        for i in 0..50u32 {
            primary.put(&i.to_be_bytes(), b"v");
        }
        let (last_seq, env) = primary.snapshot_image();
        assert_eq!(last_seq, 50);

        let mut standby = fresh(&s.0);
        standby.put(b"stale", b"state"); // wiped by the install
        let count = standby.install_snapshot(&env).unwrap();
        assert_eq!(count, 50);
        assert_eq!(standby.len(), 50);
        assert_eq!(standby.get(b"stale"), None);
        assert_eq!(standby.next_seq(), last_seq + 1);
        // The standby can now take the WAL tail from exactly last_seq+1.
        let tail = encode_v2(last_seq + 1, FLAG_COMMIT, OP_PUT, b"tail", &[b"t"]);
        assert_eq!(standby.apply_replicated_group(&tail).unwrap(), 1);
        // Both snapshot and tail survive a reopen.
        drop(standby);
        let mut standby = fresh(&s.0);
        assert_eq!(standby.len(), 51);
        assert_eq!(standby.get(b"tail").as_deref(), Some(&b"t"[..]));
        // A corrupted envelope is refused before any state changes.
        let mut bad = env.clone();
        bad[6] ^= 0x01;
        assert!(standby.install_snapshot(&bad).is_err());
        // Corruption past the envelope header (inside the image
        // payload) is caught by the pre-install validation pass: the
        // live store keeps serving its current state instead of being
        // cleared and then failing the load.
        let mut bad = env.clone();
        let n = bad.len();
        bad[n - 3] ^= 0x10;
        assert!(standby.install_snapshot(&bad).is_err());
        assert_eq!(standby.len(), 51, "failed install must not gut the store");
        assert_eq!(standby.get(b"tail").as_deref(), Some(&b"t"[..]));
        assert_eq!(standby.next_seq(), last_seq + 2, "cursor unchanged");
        // ...and the replication stream resumes where it left off.
        let more = encode_v2(last_seq + 2, FLAG_COMMIT, OP_PUT, b"more", &[b"m"]);
        assert_eq!(standby.apply_replicated_group(&more).unwrap(), 1);
    }

    #[test]
    fn replicated_apply_defers_fsync_under_group_commit() {
        let scratch = Scratch::new();
        let mut db = fresh(&scratch.0).with_sync_policy(SyncPolicy::EveryRecord);
        db.set_defer_sync(true);
        let group = encode_v2(1, FLAG_COMMIT, OP_PUT, b"k", &[b"v"]);
        let before = db.stats().wal_fsyncs;
        db.apply_replicated_group(&group).unwrap();
        assert_eq!(db.stats().wal_fsyncs, before, "fsync deferred");
        assert_eq!(
            db.take_sync_ticket(),
            Some(1),
            "replicated apply takes a commit ticket so the ack waits for the flush"
        );
        assert_eq!(db.commit_flush(), 1);
    }

    #[test]
    fn repl_hooks_route_through_the_trait_object() {
        let scratch = Scratch::new();
        let mut db: Box<dyn KvStore> = Box::new(fresh(&scratch.0));
        assert!(db.repl_set_tap(Box::new(|_, _, _| {})));
        db.put(b"k", b"v");
        assert_eq!(db.repl_next_seq(), 2);
        assert!(db.repl_snapshot_image().is_some());
        // Volatile stores opt out of every hook.
        let mut plain: Box<dyn KvStore> = Box::new(BTreeDb::new(KvConfig::default()));
        assert!(!plain.repl_set_tap(Box::new(|_, _, _| {})));
        assert_eq!(plain.repl_next_seq(), 0);
        assert!(plain.repl_apply_group(b"x").is_err());
        assert!(plain.repl_snapshot_image().is_none());
        assert!(plain.repl_install_snapshot(b"x").is_err());
    }

    #[test]
    fn persistence_hooks_route_through_the_trait() {
        let scratch = Scratch::new();
        let mut db: Box<dyn KvStore> = Box::new(fresh(&scratch.0));
        db.put(b"k", b"v");
        assert!(db.persistence().is_some());
        assert!(db.persist_checkpoint().unwrap());
        db.persist_sync().unwrap();
        assert_eq!(db.persistence().unwrap().checkpoints, 1);
        // And a volatile store reports no persistence.
        let mut plain: Box<dyn KvStore> = Box::new(BTreeDb::new(KvConfig::default()));
        assert!(plain.persistence().is_none());
        assert!(!plain.persist_checkpoint().unwrap());
    }
}
