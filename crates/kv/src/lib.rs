#![warn(missing_docs)]
//! # loco-kv — key-value store substrate
//!
//! LocoFS stores all metadata in key-value stores (the paper uses Kyoto
//! Cabinet for LocoFS itself and compares against LevelDB-backed
//! systems). This crate provides three from-scratch stores behind one
//! [`KvStore`] trait:
//!
//! * [`HashDb`] — a bucket-chained hash store (Kyoto Cabinet *hash DB*
//!   analog). Point operations are O(1); **prefix scans require a full
//!   table scan**, which is what makes directory rename expensive in
//!   hash mode (paper Fig 14).
//! * [`BTreeDb`] — a real B+ tree (Kyoto Cabinet *tree DB* analog) with
//!   ordered iteration, cheap prefix scans and range extraction; this is
//!   what the DMS uses to make directory rename a contiguous-range move
//!   (paper §3.4.3).
//! * [`LsmDb`] — a memtable-plus-sorted-runs store with compaction
//!   (LevelDB analog) used by the IndexFS baseline model.
//!
//! Every store performs the real data-structure work *and* charges
//! virtual time to an internal cost accumulator according to the
//! calibrated [`CostModel`] plus a [`Device`] model; the RPC layer
//! drains the accumulator to obtain handler service times.
//!
//! Stores are also configured with a [`CodecKind`]: `Varlen` stores pay
//! per-byte (de)serialization on whole-value accesses (the overhead the
//! paper identifies in §2.2.2), `Fixed` stores support cheap partial
//! reads/writes via [`KvStore::read_at`]/[`KvStore::write_at`] (the
//! "(de)serialization removal" of §3.3.3).

pub mod bloom;
pub mod btree;
pub mod durable;
pub mod hashdb;
pub mod lsm;
pub mod snapshot;
pub mod watermark;

pub use bloom::BloomFilter;
pub use btree::BTreeDb;
pub use durable::{CommitTap, DurableStore, PersistenceStats, SyncPolicy};
pub use hashdb::HashDb;
pub use lsm::LsmDb;

pub use loco_sim::cost::{CodecKind, CostModel};
pub use loco_sim::device::{Device, DeviceKind};
use loco_sim::time::{CostAcc, Nanos};

/// Operation counters, used by tests that assert *which* metadata records
/// an FS operation touches (Table 1 conformance) and by benchmark
/// reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Whole-value reads.
    pub gets: u64,
    /// Whole-value writes (including appends).
    pub puts: u64,
    /// Record removals.
    pub deletes: u64,
    /// Prefix/range scans.
    pub scans: u64,
    /// Fixed-layout partial reads (`read_at`).
    pub partial_reads: u64,
    /// In-place partial writes (`write_at`).
    pub partial_writes: u64,
    /// Value bytes returned by reads (gets, partial reads, scans).
    pub bytes_read: u64,
    /// Key+value bytes ingested by writes (puts, appends, partial
    /// writes).
    pub bytes_written: u64,
}

impl AccessStats {
    /// Total number of operations of any kind (byte volumes are not
    /// operations and do not contribute).
    pub fn total(&self) -> u64 {
        self.gets + self.puts + self.deletes + self.scans + self.partial_reads + self.partial_writes
    }
}

/// Per-request cost attribution for span tracing: the software-vs-KV
/// split of a server's `take_cost` plus the KV traffic delta since the
/// previous request. Servers update this on every `take_cost` (a few
/// subtractions — the cumulative [`AccessStats`] are maintained anyway)
/// so attribution is correct even when traced and untraced requests
/// interleave.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanSplit {
    /// Handler software cost of the last request (everything that is
    /// not KV work).
    pub sw_ns: u64,
    /// KV store cost of the last request.
    pub kv_ns: u64,
    /// Value bytes read from the KV store by the last request.
    pub kv_bytes_read: u64,
    /// Key+value bytes written to the KV store by the last request.
    pub kv_bytes_written: u64,
    /// KV operations issued by the last request.
    pub kv_ops: u64,
    prev_read: u64,
    prev_written: u64,
    prev_ops: u64,
}

impl SpanSplit {
    /// Record one request's split: its software and KV cost plus the
    /// store's *cumulative* stats, from which the per-request traffic
    /// delta is derived.
    pub fn update(&mut self, sw_ns: u64, kv_ns: u64, stats: &AccessStats) {
        self.sw_ns = sw_ns;
        self.kv_ns = kv_ns;
        let (read, written, ops) = (stats.bytes_read, stats.bytes_written, stats.total());
        self.kv_bytes_read = read.saturating_sub(self.prev_read);
        self.kv_bytes_written = written.saturating_sub(self.prev_written);
        self.kv_ops = ops.saturating_sub(self.prev_ops);
        self.prev_read = read;
        self.prev_written = written;
        self.prev_ops = ops;
    }

    /// Forget the cumulative baseline (call when the store's stats are
    /// reset).
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// The last request's split as span attributes.
    pub fn attrs(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("sw_ns", self.sw_ns),
            ("kv_ns", self.kv_ns),
            ("kv_bytes_read", self.kv_bytes_read),
            ("kv_bytes_written", self.kv_bytes_written),
            ("kv_ops", self.kv_ops),
        ]
    }
}

/// Common interface over the three stores.
///
/// Keys and values are raw byte strings; the metadata layer (loco-types)
/// defines their layout. All methods take `&mut self`: stores are owned
/// by a single server and external synchronization (the server lock) is
/// the concurrency boundary, mirroring how Kyoto Cabinet is used by the
/// original system.
pub trait KvStore: Send {
    /// Read a whole value.
    fn get(&mut self, key: &[u8]) -> Option<Vec<u8>>;

    /// Insert or overwrite a whole value.
    fn put(&mut self, key: &[u8], value: &[u8]);

    /// Remove a record. Returns whether it existed.
    fn delete(&mut self, key: &[u8]) -> bool;

    /// Whether a record exists (charged like a point lookup).
    fn contains(&mut self, key: &[u8]) -> bool;

    /// Read `len` bytes at byte offset `off` of the value. On a
    /// fixed-layout store this is a cheap field access; on a varlen
    /// store it costs a full deserialization. Returns `None` if the key
    /// is missing or the range is out of bounds.
    fn read_at(&mut self, key: &[u8], off: usize, len: usize) -> Option<Vec<u8>>;

    /// Overwrite `data.len()` bytes at byte offset `off` of the value
    /// in place. Fails (returns false) if the key is missing or the
    /// range exceeds the current value length — fixed-layout values
    /// never grow.
    fn write_at(&mut self, key: &[u8], off: usize, data: &[u8]) -> bool;

    /// Append `data` to the value of `key`, creating the record if
    /// missing. Charged proportionally to `data.len()` on stores that
    /// support in-place extension (HashDb, BTreeDb — like Kyoto
    /// Cabinet's `append`); LSM stores pay a full read-modify-write.
    /// This is how per-directory dirent lists absorb O(1)-cost inserts.
    fn append(&mut self, key: &[u8], data: &[u8]);

    /// Return all records whose key starts with `prefix`, in key order.
    /// Every record is copied out, and a [`HashDb`] also sorts them; a
    /// reader that wants the whole store and not its key order uses
    /// [`KvStore::for_each_record`] instead.
    fn scan_prefix(&mut self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)>;

    /// Visit every record once, in place, in the store's own order:
    /// key order for ordered stores, bucket order for a [`HashDb`].
    /// Unlike `scan_prefix(b"")` it copies nothing, sorts nothing and
    /// charges no virtual cost, so snapshots and index rebuilds pay
    /// only for what they do with each record. The default body copies
    /// through `scan_prefix(b"")`; stores that can walk their records
    /// in place override it.
    fn for_each_record(&mut self, visit: &mut dyn FnMut(&[u8], &[u8])) {
        for (k, v) in self.scan_prefix(b"") {
            visit(&k, &v);
        }
    }

    /// Remove and return all records whose key starts with `prefix`, in
    /// key order. This is the directory-rename primitive: the B+ tree
    /// extracts a contiguous range; the hash store must scan everything.
    fn extract_prefix(&mut self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)>;

    /// Number of live records.
    fn len(&self) -> usize;

    /// Whether there are no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether prefix scans are supported natively by ordered traversal
    /// (`true` for [`BTreeDb`] and [`LsmDb`], `false` for [`HashDb`]).
    fn ordered(&self) -> bool;

    /// Drain the virtual cost accumulated since the last call.
    fn take_cost(&mut self) -> Nanos;

    /// Access-pattern counters since creation.
    fn stats(&self) -> AccessStats;

    /// Reset access counters (between benchmark phases).
    fn reset_stats(&mut self);

    // ----- durability hooks (no-ops for the volatile stores) -----------

    /// Begin a commit group: mutations issued until the matching
    /// [`KvStore::txn_commit`] become durable *atomically* — a crash
    /// mid-group recovers to the state before the group. Servers
    /// bracket every request handler with begin/commit so multi-record
    /// operations (rename's extract + reinserts, create's inode +
    /// dirent append) never survive half-applied. Groups nest; only the
    /// outermost commit writes. Volatile stores ignore both calls.
    fn txn_begin(&mut self) {}

    /// End a commit group, making its mutations durable before any ack
    /// is sent. A WAL failure here is fatal by design (see
    /// `DurableStore`): the process dies rather than acknowledge an
    /// operation it cannot recover.
    fn txn_commit(&mut self) {}

    /// Write a durable checkpoint (snapshot + WAL truncation), if this
    /// store persists at all. Returns `Ok(true)` when a checkpoint was
    /// written, `Ok(false)` for volatile stores.
    fn persist_checkpoint(&mut self) -> std::io::Result<bool> {
        Ok(false)
    }

    /// Push buffered WAL bytes to stable storage (fsync), if this store
    /// persists at all. Volatile stores return `Ok(())`.
    fn persist_sync(&mut self) -> std::io::Result<()> {
        Ok(())
    }

    /// Switch deferred group fsync (cross-request WAL group commit) on
    /// or off; returns whether deferral is active afterwards. While
    /// active, commit groups are appended + flushed but *not* fsync'd
    /// inline — the caller must run a staged
    /// [`KvStore::persist_commit_flush_begin`] fsync before
    /// acknowledging any group that took a ticket. Volatile
    /// stores (and stores whose sync policy never fsyncs per group)
    /// return `false`.
    fn persist_defer_sync(&mut self, _on: bool) -> bool {
        false
    }

    /// Take the pending commit ticket: `Some(seq)` when the current
    /// request appended a deferred (not yet fsync'd) commit group,
    /// `None` otherwise. Read-only requests and volatile stores never
    /// ticket.
    fn persist_take_ticket(&mut self) -> Option<u64> {
        None
    }

    /// Fsync every deferred commit group in one batch; returns how many
    /// WAL records the fsync covered (0 when nothing was pending).
    /// Nothing in the workspace calls it: the servers stage their
    /// fsyncs with [`KvStore::persist_commit_flush_begin`]. It stays
    /// declared because the wall-clock benchmark's store decorator
    /// overrides it, and goes when the durability hooks move behind one
    /// handle (ROADMAP item 8(a)).
    fn persist_commit_flush(&mut self) -> u64 {
        0
    }

    /// Stage the deferred batch fsync: flush buffered WAL bytes to the
    /// OS now and return `(records covered, fsync closure)`. The
    /// closure performs the actual fsync and may run *without* the
    /// store lock — but must run before any covered group is
    /// acknowledged. `None` when nothing was pending, or for volatile
    /// stores.
    fn persist_commit_flush_begin(&mut self) -> Option<(u64, Box<dyn FnOnce() + Send>)> {
        None
    }

    /// Recovery/durability counters, or `None` for volatile stores.
    /// Servers use `Some` here to detect that they are running durably
    /// (e.g. to persist the uuid-allocation watermark).
    fn persistence(&self) -> Option<PersistenceStats> {
        None
    }

    // ----- replication hooks (DurableStore only) ------------------------

    /// Install a commit tap: invoked as `(first_seq, last_seq, bytes)`
    /// with the sealed, crc-complete bytes of every WAL commit group
    /// right after it is written — the feed a replication shipper
    /// forwards to warm standbys. Returns whether the store supports
    /// tapping (`false` for volatile stores, which have no WAL).
    fn repl_set_tap(&mut self, _tap: durable::CommitTap) -> bool {
        false
    }

    /// The next WAL sequence number this store would assign (equals
    /// `last applied seq + 1`). `0` for volatile stores.
    fn repl_next_seq(&self) -> u64 {
        0
    }

    /// Apply a replicated commit group (the exact bytes a tap
    /// produced) on a standby: validate, append verbatim to the local
    /// WAL, and apply to the wrapped store. Idempotent — a group whose
    /// records are already covered returns `Ok(0)`. A sequence gap
    /// (group starts past our next seq) is an error; the primary must
    /// back-fill from its ring or send a snapshot.
    fn repl_apply_group(&mut self, _group: &[u8]) -> Result<u64, String> {
        Err("store does not support replication".into())
    }

    /// Build a crc-sealed snapshot envelope of the current state (the
    /// same format `checkpoint` writes) without touching disk; returns
    /// `(last_covered_seq, envelope_bytes)`. `None` for volatile
    /// stores.
    fn repl_snapshot_image(&mut self) -> Option<(u64, Vec<u8>)> {
        None
    }

    /// Install a snapshot envelope produced by
    /// [`KvStore::repl_snapshot_image`] on a standby: validate, persist
    /// atomically, replace the in-memory state, and rotate the WAL.
    /// Returns the number of records loaded.
    fn repl_install_snapshot(&mut self, _env: &[u8]) -> Result<usize, String> {
        Err("store does not support replication".into())
    }
}

/// A boxed store is itself a store, so layers that are generic over
/// `S: KvStore` (notably [`DurableStore`]) can wrap a backend chosen
/// at runtime.
impl KvStore for Box<dyn KvStore> {
    fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        (**self).get(key)
    }
    fn put(&mut self, key: &[u8], value: &[u8]) {
        (**self).put(key, value)
    }
    fn delete(&mut self, key: &[u8]) -> bool {
        (**self).delete(key)
    }
    fn contains(&mut self, key: &[u8]) -> bool {
        (**self).contains(key)
    }
    fn read_at(&mut self, key: &[u8], off: usize, len: usize) -> Option<Vec<u8>> {
        (**self).read_at(key, off, len)
    }
    fn write_at(&mut self, key: &[u8], off: usize, data: &[u8]) -> bool {
        (**self).write_at(key, off, data)
    }
    fn append(&mut self, key: &[u8], data: &[u8]) {
        (**self).append(key, data)
    }
    fn scan_prefix(&mut self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        (**self).scan_prefix(prefix)
    }
    fn for_each_record(&mut self, visit: &mut dyn FnMut(&[u8], &[u8])) {
        (**self).for_each_record(visit)
    }
    fn extract_prefix(&mut self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        (**self).extract_prefix(prefix)
    }
    fn len(&self) -> usize {
        (**self).len()
    }
    fn ordered(&self) -> bool {
        (**self).ordered()
    }
    fn take_cost(&mut self) -> Nanos {
        (**self).take_cost()
    }
    fn stats(&self) -> AccessStats {
        (**self).stats()
    }
    fn reset_stats(&mut self) {
        (**self).reset_stats()
    }
    fn txn_begin(&mut self) {
        (**self).txn_begin()
    }
    fn txn_commit(&mut self) {
        (**self).txn_commit()
    }
    fn persist_checkpoint(&mut self) -> std::io::Result<bool> {
        (**self).persist_checkpoint()
    }
    fn persist_sync(&mut self) -> std::io::Result<()> {
        (**self).persist_sync()
    }
    fn persist_defer_sync(&mut self, on: bool) -> bool {
        (**self).persist_defer_sync(on)
    }
    fn persist_take_ticket(&mut self) -> Option<u64> {
        (**self).persist_take_ticket()
    }
    fn persist_commit_flush(&mut self) -> u64 {
        (**self).persist_commit_flush()
    }
    fn persist_commit_flush_begin(&mut self) -> Option<(u64, Box<dyn FnOnce() + Send>)> {
        (**self).persist_commit_flush_begin()
    }
    fn persistence(&self) -> Option<PersistenceStats> {
        (**self).persistence()
    }
    fn repl_set_tap(&mut self, tap: durable::CommitTap) -> bool {
        (**self).repl_set_tap(tap)
    }
    fn repl_next_seq(&self) -> u64 {
        (**self).repl_next_seq()
    }
    fn repl_apply_group(&mut self, group: &[u8]) -> Result<u64, String> {
        (**self).repl_apply_group(group)
    }
    fn repl_snapshot_image(&mut self) -> Option<(u64, Vec<u8>)> {
        (**self).repl_snapshot_image()
    }
    fn repl_install_snapshot(&mut self, env: &[u8]) -> Result<usize, String> {
        (**self).repl_install_snapshot(env)
    }
}

/// Shared configuration for constructing any of the stores.
#[derive(Clone, Debug)]
pub struct KvConfig {
    /// Virtual-cost model.
    pub model: CostModel,
    /// Storage-device model.
    pub device: Device,
    /// Value encoding (fixed layout vs varlen).
    pub codec: CodecKind,
}

impl Default for KvConfig {
    fn default() -> Self {
        Self {
            model: CostModel::default(),
            device: Device::ram(),
            codec: CodecKind::Fixed,
        }
    }
}

impl KvConfig {
    /// Configuration with the fixed-layout codec (default).
    pub fn fixed() -> Self {
        Self::default()
    }

    /// Configuration with the varlen codec.
    pub fn varlen() -> Self {
        Self {
            codec: CodecKind::Varlen,
            ..Self::default()
        }
    }

    /// Override the device model.
    pub fn with_device(mut self, device: Device) -> Self {
        self.device = device;
        self
    }

    /// Override the value codec.
    pub fn with_codec(mut self, codec: CodecKind) -> Self {
        self.codec = codec;
        self
    }
}

/// Bookkeeping shared by the store implementations: cost accumulator and
/// access counters.
#[derive(Debug, Default)]
pub(crate) struct Meter {
    pub cost: CostAcc,
    pub stats: AccessStats,
}

impl Meter {
    pub fn charge(&self, ns: Nanos) {
        self.cost.charge(ns);
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    /// All three stores must agree on basic semantics.
    fn stores() -> Vec<Box<dyn KvStore>> {
        vec![
            Box::new(HashDb::new(KvConfig::default())),
            Box::new(BTreeDb::new(KvConfig::default())),
            Box::new(LsmDb::new(KvConfig::default())),
        ]
    }

    #[test]
    fn put_get_roundtrip_all_stores() {
        for mut s in stores() {
            s.put(b"alpha", b"1");
            s.put(b"beta", b"2");
            assert_eq!(s.get(b"alpha").as_deref(), Some(&b"1"[..]));
            assert_eq!(s.get(b"beta").as_deref(), Some(&b"2"[..]));
            assert_eq!(s.get(b"gamma"), None);
            assert_eq!(s.len(), 2);
        }
    }

    #[test]
    fn overwrite_replaces_value() {
        for mut s in stores() {
            s.put(b"k", b"old");
            s.put(b"k", b"new-longer-value");
            assert_eq!(s.get(b"k").as_deref(), Some(&b"new-longer-value"[..]));
            assert_eq!(s.len(), 1);
        }
    }

    #[test]
    fn byte_volume_counters_track_reads_and_writes() {
        for mut s in stores() {
            s.put(b"key", &[7u8; 100]);
            let st = s.stats();
            assert_eq!(st.bytes_written, 103, "put writes key+value");
            assert_eq!(st.bytes_read, 0);
            s.get(b"key");
            assert_eq!(s.stats().bytes_read, 100, "get reads the value");
            s.get(b"missing");
            assert_eq!(s.stats().bytes_read, 100, "a miss moves no bytes");
            assert_eq!(s.read_at(b"key", 10, 20).unwrap().len(), 20);
            assert_eq!(s.stats().bytes_read, 120);
            assert!(s.write_at(b"key", 0, &[1u8; 8]));
            assert!(
                s.stats().bytes_written >= 111,
                "write_at adds at least its span: {:?}",
                s.stats()
            );
            assert_eq!(s.scan_prefix(b"key").len(), 1);
            assert!(
                s.stats().bytes_read >= 223,
                "scan reads key+value: {:?}",
                s.stats()
            );
            s.reset_stats();
            assert_eq!(s.stats().bytes_read, 0);
            assert_eq!(s.stats().bytes_written, 0);
        }
    }

    #[test]
    fn delete_semantics() {
        for mut s in stores() {
            s.put(b"k", b"v");
            assert!(s.delete(b"k"));
            assert!(!s.delete(b"k"));
            assert_eq!(s.get(b"k"), None);
            assert_eq!(s.len(), 0);
        }
    }

    #[test]
    fn contains_and_empty() {
        for mut s in stores() {
            assert!(s.is_empty());
            assert!(!s.contains(b"x"));
            s.put(b"x", b"");
            assert!(s.contains(b"x"));
            assert_eq!(s.get(b"x").as_deref(), Some(&b""[..]));
        }
    }

    #[test]
    fn scan_prefix_ordering_all_stores() {
        for mut s in stores() {
            for k in ["/a/b", "/a/c", "/a", "/b", "/a/b/c"] {
                s.put(k.as_bytes(), k.as_bytes());
            }
            let got: Vec<String> = s
                .scan_prefix(b"/a")
                .into_iter()
                .map(|(k, _)| String::from_utf8(k).unwrap())
                .collect();
            assert_eq!(got, vec!["/a", "/a/b", "/a/b/c", "/a/c"]);
        }
    }

    #[test]
    fn extract_prefix_removes_records() {
        for mut s in stores() {
            for k in ["p/1", "p/2", "q/1"] {
                s.put(k.as_bytes(), b"v");
            }
            let got = s.extract_prefix(b"p/");
            assert_eq!(got.len(), 2);
            assert_eq!(s.len(), 1);
            assert!(s.contains(b"q/1"));
            assert!(!s.contains(b"p/1"));
        }
    }

    #[test]
    fn read_at_and_write_at() {
        for mut s in stores() {
            s.put(b"k", b"0123456789");
            assert_eq!(s.read_at(b"k", 2, 3).as_deref(), Some(&b"234"[..]));
            assert!(s.write_at(b"k", 4, b"XY"));
            assert_eq!(s.get(b"k").as_deref(), Some(&b"0123XY6789"[..]));
            // Out of bounds and missing keys fail cleanly.
            assert_eq!(s.read_at(b"k", 8, 4), None);
            assert!(!s.write_at(b"k", 9, b"ZZ"));
            assert_eq!(s.read_at(b"missing", 0, 1), None);
            assert!(!s.write_at(b"missing", 0, b"a"));
        }
    }

    #[test]
    fn costs_accumulate_and_drain() {
        for mut s in stores() {
            s.put(b"k", b"value");
            let c = s.take_cost();
            assert!(c > 0, "put must charge");
            assert_eq!(s.take_cost(), 0);
            s.get(b"k");
            assert!(s.take_cost() > 0, "get must charge");
        }
    }

    #[test]
    fn stats_counters() {
        for mut s in stores() {
            s.put(b"a", b"1");
            s.get(b"a");
            s.get(b"b");
            s.delete(b"a");
            s.scan_prefix(b"");
            let st = s.stats();
            assert_eq!(st.puts, 1);
            assert_eq!(st.gets, 2);
            assert_eq!(st.deletes, 1);
            assert_eq!(st.scans, 1);
            s.reset_stats();
            assert_eq!(s.stats().total(), 0);
        }
    }

    #[test]
    fn append_semantics_all_stores() {
        for mut s in stores() {
            s.append(b"log", b"aa");
            s.append(b"log", b"bb");
            assert_eq!(s.get(b"log").as_deref(), Some(&b"aabb"[..]));
            assert_eq!(s.len(), 1);
            // Append after put extends the existing value.
            s.put(b"log", b"x");
            s.append(b"log", b"y");
            assert_eq!(s.get(b"log").as_deref(), Some(&b"xy"[..]));
        }
    }

    #[test]
    fn append_cost_is_entry_sized_on_mutable_stores() {
        // In-place stores charge O(entry); this keeps dirent-list
        // maintenance O(1) per create no matter how big the directory.
        let mut db = BTreeDb::new(KvConfig::default());
        db.append(b"d", &[0u8; 16]);
        db.take_cost();
        // Grow the value to ~16 KB.
        for _ in 0..1000 {
            db.append(b"d", &[0u8; 16]);
        }
        db.take_cost();
        db.append(b"d", &[0u8; 16]);
        let late = db.take_cost();
        let mut fresh = BTreeDb::new(KvConfig::default());
        fresh.append(b"d", &[0u8; 16]);
        let early = fresh.take_cost();
        assert!(
            late <= early * 2,
            "append must not scale: {late} vs {early}"
        );
    }

    #[test]
    fn varlen_charges_more_than_fixed() {
        let value = vec![7u8; 256];
        let mut f = BTreeDb::new(KvConfig::fixed());
        let mut v = BTreeDb::new(KvConfig::varlen());
        f.put(b"k", &value);
        v.put(b"k", &value);
        let (cf, cv) = (f.take_cost(), v.take_cost());
        assert!(cv > cf, "varlen put {cv} must exceed fixed put {cf}");
    }

    #[test]
    fn ordered_flags() {
        assert!(!HashDb::new(KvConfig::default()).ordered());
        assert!(BTreeDb::new(KvConfig::default()).ordered());
        assert!(LsmDb::new(KvConfig::default()).ordered());
    }
}

#[cfg(test)]
mod span_split_tests {
    use super::*;

    #[test]
    fn span_split_tracks_per_request_deltas() {
        let mut db = HashDb::new(KvConfig::default());
        let mut split = SpanSplit::default();

        db.put(b"a", &[1u8; 64]);
        let kv = db.take_cost();
        split.update(500, kv, &db.stats());
        assert_eq!((split.sw_ns, split.kv_ns), (500, kv));
        assert_eq!(split.kv_ops, 1);
        assert!(split.kv_bytes_written >= 64);
        assert_eq!(split.kv_bytes_read, 0);

        // Next request sees only its own delta, not the cumulative sum.
        db.get(b"a");
        let kv2 = db.take_cost();
        split.update(200, kv2, &db.stats());
        assert_eq!(split.kv_ops, 1);
        assert_eq!(split.kv_bytes_written, 0);
        assert!(split.kv_bytes_read >= 64);
        assert_eq!(split.attrs().len(), 5);

        db.reset_stats();
        split.reset();
        db.put(b"b", &[0u8; 8]);
        let kv3 = db.take_cost();
        split.update(0, kv3, &db.stats());
        assert_eq!(split.kv_ops, 1, "reset rebases the cumulative baseline");
    }
}
