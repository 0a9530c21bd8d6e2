#![warn(missing_docs)]
//! # loco-dms — the Directory Metadata Server
//!
//! LocoFS keeps **all** directory inodes on one DMS (§3.1), keyed by
//! full path in an ordered key-value store. The design consequences this
//! crate implements:
//!
//! * **Single-get directory lookup** — locating any directory is one KV
//!   `get` on its full path; no per-component traversal across servers
//!   (the flattened directory tree of §3.2).
//! * **Local ancestor ACL walk** — permission checks over the whole
//!   ancestry happen inside one RPC, reading each ancestor's d-inode
//!   locally (cheap KV gets, no extra round trips). Deeper paths cost
//!   more *server* time but never more network time (Fig 13).
//! * **Backward subdirectory dirents** — per directory uuid, the DMS
//!   keeps one concatenated dirent list of its subdirectories (§3.2.1).
//! * **Range-move rename** — with the B+ tree backend, renaming a
//!   directory extracts the contiguous key range `old/…` and reinserts
//!   it under `new/…` (§3.4.3). With the hash backend the same
//!   operation degenerates to a full table scan — the Fig 14 ablation.
//!
//! The key space of the backing store uses the first byte as a
//! namespace: directory paths start with `/`, dirent lists with `E`.
//! Path keys therefore form one contiguous lexicographic region that
//! rename can extract without touching dirent records.

use loco_kv::{BTreeDb, HashDb, KvConfig, KvStore};
use loco_net::{Nanos, Service};
use loco_repl::{ReplCtl, ReplInfo, Role};
use loco_sim::time::CostAcc;
use loco_types::{
    acl, basename, parent, DirInode, DirentKind, DirentList, FsError, FsResult, OpClass, Perm,
    Uuid, UuidGen,
};
use std::sync::Arc;

/// Which KV backend the DMS runs on (Fig 14 compares them).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DmsBackend {
    /// B+ tree (Kyoto Cabinet tree DB) — ordered, rename-friendly.
    BTree,
    /// Hash table (Kyoto Cabinet hash DB) — rename needs a full scan.
    Hash,
}

/// Requests handled by the DMS.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DmsRequest {
    /// Create a directory. ACL-checks the ancestry, inserts the
    /// d-inode, and appends to the parent's subdir dirent list.
    Mkdir {
        /// Absolute, normalized path of the target.
        path: String,
        /// POSIX permission bits.
        mode: u32,
        /// Caller user id (permission checks).
        uid: u32,
        /// Caller group id (permission checks).
        gid: u32,
        /// Logical timestamp recorded in ctime/mtime fields.
        ts: u64,
    },
    /// Remove an empty directory (no subdirs; the *client* first
    /// verifies no files remain on any FMS, per §4.2.1's rmdir note).
    /// Remove an empty directory.
    /// on any FMS first, per §4.2.1's rmdir note).
    Rmdir {
        /// Absolute, normalized path of the directory.
        path: String,
        /// Caller user id (permission checks).
        uid: u32,
        /// Caller group id (permission checks).
        gid: u32,
    },
    /// Fetch a d-inode by full path (no ACL walk — used by lookups that
    /// already hold cached ancestors).
    /// Fetch a d-inode by full path (no ACL walk).
    GetDir {
        /// Absolute, normalized path of the directory.
        path: String,
    },
    /// Fetch a d-inode with a full ancestor ACL walk (exec permission
    /// on every ancestor), as issued on client-cache misses.
    /// misses).
    StatDir {
        /// Absolute, normalized path of the directory.
        path: String,
        /// Caller user id (permission checks).
        uid: u32,
        /// Caller group id (permission checks).
        gid: u32,
    },
    /// Subdirectory dirents of the directory with this uuid.
    ReaddirSubdirs {
        /// Uuid of the directory to list.
        dir_uuid: Uuid,
    },
    /// chmod/chown on a directory: updates mode and/or owner + ctime.
    SetDirAttr {
        /// Absolute, normalized path of the target.
        path: String,
        /// Caller user id (permission checks).
        uid: u32,
        /// Caller group id (permission checks).
        gid: u32,
        /// Replacement permission bits, if changing.
        new_mode: Option<u32>,
        /// Replacement `(uid, gid)`, if changing ownership.
        new_owner: Option<(u32, u32)>,
        /// Logical timestamp recorded in ctime/mtime fields.
        ts: u64,
    },
    /// Rename/move a directory and (implicitly) its whole subtree of
    /// directory inodes.
    RenameDir {
        /// Current absolute path.
        old_path: String,
        /// Destination absolute path.
        new_path: String,
        /// Caller user id (permission checks).
        uid: u32,
        /// Caller group id (permission checks).
        gid: u32,
        /// Logical timestamp recorded in ctime/mtime fields.
        ts: u64,
    },
    /// Pure permission probe against the ancestry + target directory.
    CheckAccess {
        /// Absolute, normalized path of the target.
        path: String,
        /// Caller user id (permission checks).
        uid: u32,
        /// Caller group id (permission checks).
        gid: u32,
        /// Requested access kind.
        perm: Perm,
    },
    /// Sharded-DMS ablation: insert a d-inode without ancestor checks or
    /// parent-dirent maintenance (the client does both across shards).
    MkdirLocal {
        /// Absolute, normalized path of the target.
        path: String,
        /// POSIX permission bits.
        mode: u32,
        /// Caller user id (permission checks).
        uid: u32,
        /// Caller group id (permission checks).
        gid: u32,
        /// Logical timestamp recorded in ctime/mtime fields.
        ts: u64,
    },
    /// Sharded-DMS ablation: remove a d-inode (emptiness of the subdir
    /// dirent list is still enforced locally).
    /// Sharded ablation: remove a d-inode (local emptiness check only).
    RmdirLocal {
        /// Absolute, normalized path of the directory.
        path: String,
    },
    /// Sharded-DMS ablation: append a subdirectory dirent.
    AddDirent {
        /// Uuid of the parent directory (placement-key half).
        dir_uuid: Uuid,
        /// File name within the directory (placement-key half).
        name: String,
        /// Uuid of the child entry.
        child_uuid: Uuid,
    },
    /// Sharded-DMS ablation: tombstone a subdirectory dirent.
    /// Sharded ablation: tombstone a subdirectory dirent.
    RemoveDirent {
        /// Uuid of the parent directory.
        dir_uuid: Uuid,
        /// Child entry name to tombstone.
        name: String,
    },
    /// Replication: one sealed WAL commit group shipped primary →
    /// standby. An empty `group` is a heartbeat/probe (lease renewal +
    /// `next_seq` discovery). Answered with [`DmsResponse::Repl`].
    ReplAppend {
        /// The sender's fencing epoch.
        epoch: u64,
        /// Sequence number of the group's first record (0 for probes).
        first_seq: u64,
        /// Verbatim sealed commit-group bytes from the primary's WAL.
        group: Vec<u8>,
    },
    /// Replication: full-state catch-up when the standby is behind the
    /// primary's in-memory group ring. Installs the image, then the
    /// WAL tail streams via `ReplAppend`.
    ReplSnapshot {
        /// The sender's fencing epoch.
        epoch: u64,
        /// Last WAL sequence number the image covers.
        last_seq: u64,
        /// Snapshot envelope bytes (`loco-kv` snapshot format).
        image: Vec<u8>,
    },
    /// Replication: read-only role/epoch/seq probe, used by clients
    /// resolving the current primary and by `cluster.sh status`.
    ReplStatus {},
    /// Election: make this replica the primary at a fresh epoch. The
    /// epoch bump is written through the WAL, so it replicates to the
    /// surviving standbys like any mutation.
    Promote {},
}

/// Responses from the DMS.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DmsResponse {
    /// Directory.
    Dir(FsResult<DirInode>),
    /// Subdirectory entries as `(name, uuid)` pairs.
    Dirents(FsResult<Vec<(String, Uuid)>>),
    /// Unit result; `Ok(n)` carries the number of relocated directory
    /// records for rename (1 for mkdir/rmdir/attr ops).
    Done(FsResult<usize>),
    /// Boolean probe result.
    Bool(bool),
    /// Replication control reply (epoch / next expected seq / role).
    Repl(ReplInfo),
}

// The DMS op table and wire codec: tag, variant (the request's label)
// and class per request. Tags are protocol: append-only.
loco_types::impl_wire_enum!(DmsRequest, "dms-request", {
    0 => Mkdir { path, mode, uid, gid, ts }: Once,
    1 => Rmdir { path, uid, gid }: Once,
    2 => GetDir { path }: Read,
    3 => StatDir { path, uid, gid }: Read,
    4 => ReaddirSubdirs { dir_uuid }: Read,
    5 => SetDirAttr { path, uid, gid, new_mode, new_owner, ts }: Set,
    6 => RenameDir { old_path, new_path, uid, gid, ts }: Once,
    7 => CheckAccess { path, uid, gid, perm }: Read,
    8 => MkdirLocal { path, mode, uid, gid, ts }: Once,
    9 => RmdirLocal { path }: Once,
    10 => AddDirent { dir_uuid, name, child_uuid }: Once,
    11 => RemoveDirent { dir_uuid, name }: Once,
    12 => ReplAppend { epoch, first_seq, group }: Set,
    13 => ReplSnapshot { epoch, last_seq, image }: Set,
    14 => ReplStatus {}: Read,
    15 => Promote {}: Once,
});

loco_types::impl_wire_enum!(DmsResponse, "dms-response", tuple {
    0 => Dir(r),
    1 => Dirents(r),
    2 => Done(r),
    3 => Bool(r),
    4 => Repl(r),
});

/// The Directory Metadata Server.
pub struct DirServer {
    db: Box<dyn KvStore>,
    uuids: UuidGen,
    extra: CostAcc,
    /// Fixed software overhead charged per handled request.
    rpc_overhead: Nanos,
    /// Software-vs-KV split of the last request (span attribution).
    split: loco_kv::SpanSplit,
    /// Store is durable: uuid allocation goes through the persisted
    /// watermark so recovery never re-issues a live uuid.
    durable: bool,
    /// Exclusive fid bound covered by the persisted watermark.
    wm_limit: u64,
    /// Warm-standby replication control plane, when enabled.
    repl: Option<Arc<ReplCtl>>,
    /// The request just handled was rejected for not being primary;
    /// drained into the reply's [`loco_net::ReplStamp`].
    fenced_reply: bool,
    /// A client request appended WAL records since the last stage: the
    /// next batch holds replies that may leave only on a standby
    /// quorum.
    client_writes: bool,
}

const DIRENT_NS: u8 = b'E';

/// Reserved KV key holding the replica set's fencing epoch. Writing it
/// through the store (rather than a side file) makes epoch bumps ride
/// the WAL — durable before the promote is acknowledged, replayed on
/// recovery, and replicated to standbys like any other mutation.
/// The leading NUL keeps it outside the `/` and `E` namespaces,
/// mirroring the uuid watermark key.
const EPOCH_KEY: &[u8] = b"\x00repl_epoch";

fn dirent_key(dir_uuid: Uuid) -> [u8; 9] {
    let mut k = [0u8; 9];
    k[0] = DIRENT_NS;
    k[1..].copy_from_slice(&dir_uuid.key_bytes());
    k
}

impl DirServer {
    /// Create a DMS over the given backend. The root directory (`/`,
    /// mode 0777, owned by root) exists from the start.
    pub fn new(backend: DmsBackend, cfg: KvConfig) -> Self {
        Self::with_sid(backend, cfg, 0)
    }

    /// Create a DMS shard with a distinct uuid-allocation space. Used by
    /// the sharded-DMS ablation (multiple directory servers, directories
    /// hash-placed by path); the paper's design uses a single DMS.
    pub fn with_sid(backend: DmsBackend, cfg: KvConfig, sid: u16) -> Self {
        let db: Box<dyn KvStore> = match backend {
            DmsBackend::BTree => Box::new(BTreeDb::new(cfg)),
            DmsBackend::Hash => Box::new(HashDb::new(cfg)),
        };
        Self::with_store(db, sid)
    }

    /// Create a DMS over a caller-supplied store — e.g. a
    /// `loco_kv::DurableStore` for on-disk persistence. If the store
    /// already holds a namespace (recovered from disk), it is used
    /// as-is; otherwise the root directory is initialized.
    pub fn with_store(mut db: Box<dyn KvStore>, sid: u16) -> Self {
        if !db.contains(b"/") {
            // World-writable root, like the fresh scratch namespace
            // mdtest assumes.
            let root = DirInode::new(Uuid::ROOT, 0o777, 0, 0, 0);
            db.put(b"/", &root.encode());
            db.put(&dirent_key(Uuid::ROOT), &DirentList::new().encode());
        }
        let durable = db.persistence().is_some();
        let (uuids, wm_limit) = match loco_kv::watermark::load(&mut *db) {
            // A recovered durable store resumes allocation at the
            // persisted bound: every fid below it may already name a
            // live file or directory.
            Some(bound) if durable => (UuidGen::from_state(sid, bound), bound),
            _ => (UuidGen::new(sid), 0),
        };
        db.take_cost(); // setup is free
        Self {
            db,
            uuids,
            extra: CostAcc::new(),
            rpc_overhead: loco_sim::CostModel::default().rpc_handler,
            split: loco_kv::SpanSplit::default(),
            durable,
            wm_limit,
            repl: None,
            fenced_reply: false,
            client_writes: false,
        }
    }

    /// Wire up warm-standby replication: every sealed WAL commit group
    /// is pushed into the control plane's ring (for the shipper to
    /// replay), and the server starts stamping replies / gating client
    /// ops by role. Returns `false` when the backing store has no WAL
    /// (volatile stores cannot replicate).
    pub fn enable_repl(&mut self, ctl: Arc<ReplCtl>) -> bool {
        let sink = Arc::clone(&ctl);
        let ok = self.db.repl_set_tap(Box::new(move |first, last, group| {
            sink.push_group(first, last, group);
        }));
        if ok {
            self.repl = Some(ctl);
        }
        ok
    }

    /// The fencing epoch persisted in the store (0 when never
    /// promoted). Read at boot to seed the control plane's epoch.
    pub fn stored_epoch(&mut self) -> u64 {
        let e = self
            .db
            .get(EPOCH_KEY)
            .and_then(|v| {
                v.get(..8)
                    .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
            })
            .unwrap_or(0);
        let _ = self.db.take_cost();
        e
    }

    /// Next WAL sequence number of the backing store (0 when volatile).
    pub fn wal_next_seq(&mut self) -> u64 {
        self.db.repl_next_seq()
    }

    /// Snapshot image + last covered seq for standby catch-up
    /// (maintenance path; virtual cost discarded).
    pub fn repl_snapshot(&mut self) -> Option<(u64, Vec<u8>)> {
        let img = self.db.repl_snapshot_image();
        let _ = self.db.take_cost();
        img
    }

    /// Allocate a uuid, first pushing the durable watermark past it
    /// when the store persists (the watermark write rides in the
    /// current request's WAL commit group, so it is durable before the
    /// op that used the uuid is acknowledged). Volatile stores skip
    /// the extra write to keep the Table 1 op/KV-access accounting
    /// exact.
    fn alloc_uuid(&mut self) -> Uuid {
        if self.durable {
            let (_, next_fid) = self.uuids.state();
            if next_fid >= self.wm_limit {
                self.wm_limit = loco_kv::watermark::reserve(&mut *self.db, next_fid);
            }
        }
        self.uuids.alloc()
    }

    /// Persist the full server state (all records + uuid allocator) to
    /// a binary image; virtual cost of the scan is discarded (snapshots
    /// are an offline/maintenance path).
    pub fn snapshot(&mut self) -> Vec<u8> {
        let (sid, next_fid) = self.uuids.state();
        let mut out = Vec::new();
        out.extend_from_slice(&sid.to_le_bytes());
        out.extend_from_slice(&next_fid.to_le_bytes());
        loco_kv::snapshot::dump_into(&mut *self.db, &mut out);
        let _ = self.db.take_cost();
        out
    }

    /// Rebuild a server from a [`DirServer::snapshot`] image, on any
    /// backend (a restore can migrate hash → B+ tree).
    pub fn restore(backend: DmsBackend, cfg: KvConfig, image: &[u8]) -> Result<Self, String> {
        if image.len() < 10 {
            return Err("truncated server snapshot".into());
        }
        let sid = u16::from_le_bytes(image[0..2].try_into().unwrap());
        let next_fid = u64::from_le_bytes(image[2..10].try_into().unwrap());
        let mut server = Self::new(backend, cfg);
        // Drop the constructor's default root; the snapshot carries it.
        server.db.delete(b"/");
        server.db.extract_prefix(b"E");
        loco_kv::snapshot::load(&mut *server.db, &image[10..])?;
        let _ = server.db.take_cost();
        server.uuids = UuidGen::from_state(sid, next_fid);
        Ok(server)
    }

    /// Export every directory inode (offline/maintenance path; virtual
    /// cost discarded).
    pub fn export_dirs(&mut self) -> Vec<(String, DirInode)> {
        let out = self
            .db
            .scan_prefix(b"/")
            .into_iter()
            .filter_map(|(k, v)| {
                let path = String::from_utf8(k).ok()?;
                Some((path, DirInode::decode(&v)?))
            })
            .collect();
        let _ = self.db.take_cost();
        out
    }

    /// Export every subdirectory dirent list keyed by directory uuid.
    pub fn export_dirent_lists(&mut self) -> Vec<(Uuid, DirentList)> {
        let out = self
            .db
            .scan_prefix(&[DIRENT_NS])
            .into_iter()
            .filter_map(|(k, v)| {
                let uuid = Uuid::from_key_bytes(k.get(1..9)?.try_into().ok()?);
                Some((uuid, DirentList::decode(&v)?))
            })
            .collect();
        let _ = self.db.take_cost();
        out
    }

    /// Overwrite one dirent list (fsck repair path).
    pub fn repair_dirent_list(&mut self, dir_uuid: Uuid, list: &DirentList) {
        self.db.put(&dirent_key(dir_uuid), &list.encode());
        let _ = self.db.take_cost();
    }

    /// Delete one dirent list (fsck: corruption injection in tests).
    pub fn drop_dirent_list(&mut self, dir_uuid: Uuid) {
        self.db.delete(&dirent_key(dir_uuid));
        let _ = self.db.take_cost();
    }

    /// Number of directories (excluding dirent-list records).
    pub fn dir_count(&mut self) -> usize {
        // Dirent lists are one record per directory, so halve.
        self.db.len() / 2
    }

    /// Direct read access for tests.
    pub fn lookup(&mut self, path: &str) -> Option<DirInode> {
        let inode = self
            .db
            .get(path.as_bytes())
            .and_then(|v| DirInode::decode(&v));
        self.db.take_cost();
        inode
    }

    /// KV access statistics of the backing store (Table 1 conformance
    /// tests).
    pub fn kv_stats(&self) -> loco_kv::AccessStats {
        self.db.stats()
    }

    /// Reset the KV access counters.
    pub fn reset_kv_stats(&mut self) {
        self.db.reset_stats();
        self.split.reset();
    }

    /// Walk every ancestor of `path` (excluding `path` itself), checking
    /// exec permission. All reads are local KV gets — the single-RPC ACL
    /// check the paper credits the single-DMS design with.
    fn check_ancestors(&mut self, path: &str, uid: u32, gid: u32) -> FsResult<()> {
        for anc in loco_types::path::ancestors(path) {
            let v = self.db.get(anc.as_bytes()).ok_or(FsError::NotFound)?;
            let d = DirInode::decode(&v).ok_or_else(|| FsError::Io("bad d-inode".into()))?;
            if !acl::may_access(d.mode, d.uid, d.gid, uid, gid, Perm::Exec) {
                return Err(FsError::PermissionDenied);
            }
        }
        Ok(())
    }

    fn get_dir(&mut self, path: &str) -> FsResult<DirInode> {
        let v = self.db.get(path.as_bytes()).ok_or(FsError::NotFound)?;
        DirInode::decode(&v).ok_or_else(|| FsError::Io("bad d-inode".into()))
    }

    fn load_dirents(&mut self, dir_uuid: Uuid) -> DirentList {
        let list = self
            .db
            .get(&dirent_key(dir_uuid))
            .and_then(|v| DirentList::decode(&v))
            .unwrap_or_default();
        // Lazy compaction: once tombstones dominate the stored log,
        // rewrite it as the resolved list.
        if list.tombstone_ratio() > 0.5 {
            self.db.put(&dirent_key(dir_uuid), &list.encode());
        }
        list
    }

    /// O(entry) dirent insert: append one record to the directory's
    /// dirent log (Kyoto Cabinet `append` semantics).
    fn add_dirent(&mut self, dir_uuid: Uuid, name: &str, uuid: Uuid) {
        self.db.append(
            &dirent_key(dir_uuid),
            &loco_types::encode_entry(name, uuid, DirentKind::Dir),
        );
    }

    /// O(entry) dirent removal: append a tombstone.
    fn remove_dirent(&mut self, dir_uuid: Uuid, name: &str) {
        self.db
            .append(&dirent_key(dir_uuid), &loco_types::encode_tombstone(name));
    }

    fn mkdir(&mut self, path: &str, mode: u32, uid: u32, gid: u32, ts: u64) -> FsResult<usize> {
        let parent_path = parent(path).ok_or(FsError::AlreadyExists)?; // mkdir /
        self.check_ancestors(path, uid, gid)?;
        let parent_inode = self.get_dir(parent_path)?;
        if !acl::may_access(
            parent_inode.mode,
            parent_inode.uid,
            parent_inode.gid,
            uid,
            gid,
            Perm::Write,
        ) {
            return Err(FsError::PermissionDenied);
        }
        if self.db.contains(path.as_bytes()) {
            return Err(FsError::AlreadyExists);
        }
        let uuid = self.alloc_uuid();
        let inode = DirInode::new(uuid, mode, uid, gid, ts);
        self.db.put(path.as_bytes(), &inode.encode());
        self.db.put(&dirent_key(uuid), &DirentList::new().encode());
        self.add_dirent(parent_inode.uuid, basename(path), uuid);
        Ok(1)
    }

    fn rmdir(&mut self, path: &str, uid: u32, gid: u32) -> FsResult<usize> {
        if path == "/" {
            return Err(FsError::Busy);
        }
        self.check_ancestors(path, uid, gid)?;
        let inode = self.get_dir(path)?;
        let parent_path = parent(path).expect("non-root has parent");
        let parent_inode = self.get_dir(parent_path)?;
        if !acl::may_access(
            parent_inode.mode,
            parent_inode.uid,
            parent_inode.gid,
            uid,
            gid,
            Perm::Write,
        ) {
            return Err(FsError::PermissionDenied);
        }
        if !self.load_dirents(inode.uuid).is_empty() {
            return Err(FsError::NotEmpty);
        }
        self.db.delete(path.as_bytes());
        self.db.delete(&dirent_key(inode.uuid));
        self.remove_dirent(parent_inode.uuid, basename(path));
        Ok(1)
    }

    fn set_attr(
        &mut self,
        path: &str,
        uid: u32,
        gid: u32,
        new_mode: Option<u32>,
        new_owner: Option<(u32, u32)>,
        ts: u64,
    ) -> FsResult<usize> {
        self.check_ancestors(path, uid, gid)?;
        let inode = self.get_dir(path)?;
        // Only the owner (or root) may chmod/chown.
        if uid != 0 && uid != inode.uid {
            return Err(FsError::PermissionDenied);
        }
        // Fixed-layout in-place field updates: mode/uid/gid/ctime only.
        if let Some(mode) = new_mode {
            self.db
                .write_at(path.as_bytes(), DirInode::OFF_MODE, &mode.to_le_bytes());
        }
        if let Some((new_uid, new_gid)) = new_owner {
            self.db
                .write_at(path.as_bytes(), DirInode::OFF_UID, &new_uid.to_le_bytes());
            self.db
                .write_at(path.as_bytes(), DirInode::OFF_GID, &new_gid.to_le_bytes());
        }
        self.db
            .write_at(path.as_bytes(), DirInode::OFF_CTIME, &ts.to_le_bytes());
        Ok(1)
    }

    /// Relocate `old_path` and every directory beneath it to
    /// `new_path`. Returns the number of directory inodes moved.
    ///
    /// On the B+ tree backend the subtree `old_path/…` is a contiguous
    /// key range: one range extraction + reinserts. On the hash backend
    /// each extraction is a full table scan. Files and data blocks are
    /// *never* touched: they are indexed by `directory_uuid + name` and
    /// `uuid + blk_num`, and uuids don't change (§3.4.2).
    fn rename_dir(
        &mut self,
        old_path: &str,
        new_path: &str,
        uid: u32,
        gid: u32,
        ts: u64,
    ) -> FsResult<usize> {
        if old_path == "/" || new_path == "/" {
            return Err(FsError::Busy);
        }
        if loco_types::path::is_same_or_descendant(new_path, old_path) {
            return Err(FsError::Busy); // cannot move under itself
        }
        self.check_ancestors(old_path, uid, gid)?;
        self.check_ancestors(new_path, uid, gid)?;
        let inode = self.get_dir(old_path)?;
        if self.db.contains(new_path.as_bytes()) {
            return Err(FsError::AlreadyExists);
        }
        let old_parent = self.get_dir(parent(old_path).unwrap())?;
        let new_parent = self.get_dir(parent(new_path).unwrap())?;
        for p in [&old_parent, &new_parent] {
            if !acl::may_access(p.mode, p.uid, p.gid, uid, gid, Perm::Write) {
                return Err(FsError::PermissionDenied);
            }
        }

        // Move the directory's own inode.
        self.db.delete(old_path.as_bytes());
        let mut moved_inode = inode;
        moved_inode.ctime = ts;
        self.db.put(new_path.as_bytes(), &moved_inode.encode());
        let mut moved = 1usize;

        // Move the subtree: contiguous range `old_path/…`.
        let mut prefix = old_path.as_bytes().to_vec();
        prefix.push(b'/');
        let subtree = self.db.extract_prefix(&prefix);
        for (k, v) in subtree {
            let suffix = &k[prefix.len()..];
            let mut new_key = new_path.as_bytes().to_vec();
            new_key.push(b'/');
            new_key.extend_from_slice(suffix);
            self.db.put(&new_key, &v);
            moved += 1;
        }

        // Fix parent dirent lists (uuid-keyed, so unaffected by the key
        // moves above).
        self.remove_dirent(old_parent.uuid, basename(old_path));
        self.add_dirent(new_parent.uuid, basename(new_path), inode.uuid);
        Ok(moved)
    }
}

impl Service for DirServer {
    type Req = DmsRequest;
    type Resp = DmsResponse;

    fn handle(&mut self, req: DmsRequest) -> DmsResponse {
        self.extra.charge(self.rpc_overhead);
        // Replication traffic bypasses the txn bracket: a ReplAppend
        // carries an *already sealed* commit group that must land in
        // the WAL verbatim, not be re-wrapped into a new group.
        if matches!(
            req,
            DmsRequest::ReplAppend { .. }
                | DmsRequest::ReplSnapshot { .. }
                | DmsRequest::ReplStatus {}
        ) {
            return self.handle_repl(req);
        }
        // Role gate: a replicated server that is not the primary
        // rejects every client operation (reads included — a standby
        // may lag, and LocoFS's consistency story is primary-only).
        // The rejection rides the reply's ReplStamp so the transport
        // surfaces it as FencedEpoch and the client redials.
        if let Some(ctl) = &self.repl {
            if !matches!(req, DmsRequest::Promote {}) && ctl.role() != Role::Primary {
                self.fenced_reply = true;
                return DmsResponse::Done(Err(FsError::Io("fenced: not primary".into())));
            }
        }
        let op = Self::req_label(&req);
        let seq = self.db.repl_next_seq();
        // One request = one WAL commit group: a crash mid-handler (e.g.
        // between a rename's extracts and reinserts) replays either the
        // whole mutation or none of it.
        self.db.txn_begin();
        let resp = self.dispatch(req);
        self.db.txn_commit();
        self.client_writes |= self.repl.is_some() && self.db.repl_next_seq() != seq;
        if let Some(e) = resp_error(&resp) {
            loco_log::debug!("dms", "request failed";
                op = op, error = format_args!("{e}"));
        }
        resp
    }

    fn take_cost(&mut self) -> Nanos {
        let sw = self.extra.take();
        let kv = self.db.take_cost();
        self.split.update(sw, kv, &self.db.stats());
        sw + kv
    }

    fn span_attrs(&self) -> Vec<(&'static str, u64)> {
        self.split.attrs()
    }

    fn maintain(&mut self, drain: bool) -> Option<loco_net::MaintainReport> {
        let _ = self.db.persistence()?;
        let checkpointed = if drain {
            self.db.persist_checkpoint().unwrap_or(false)
        } else {
            let _ = self.db.persist_sync();
            false
        };
        let stats = self.db.persistence()?;
        Some(loco_net::MaintainReport {
            wal_records: stats.wal_records,
            replayed_records: stats.replayed_records,
            snapshot_records: stats.snapshot_records,
            checkpoints: stats.checkpoints,
            wal_fsyncs: stats.wal_fsyncs,
            checkpointed,
        })
    }

    fn defer_sync(&mut self, on: bool) -> bool {
        self.db.persist_defer_sync(on)
    }

    fn take_commit_ticket(&mut self) -> Option<u64> {
        self.db.persist_take_ticket()
    }

    fn commit_flush_begin(&mut self) -> Option<(u64, loco_net::CommitFsync)> {
        let staged = self.db.persist_commit_flush_begin();
        let Some(ctl) = self.repl.clone() else {
            return staged;
        };
        let client_writes = std::mem::take(&mut self.client_writes);
        if ctl.role() != Role::Primary {
            // Demoted since the batch's client writes were accepted:
            // no quorum covers them, so none of its replies may leave.
            // A standby's own batches (replication acks) still do.
            if !client_writes {
                return staged;
            }
            ctl.abort_batch();
            return Some(staged.unwrap_or_else(|| (0, Box::new(|| {}))));
        }
        // Replicated primary: after the local fsync, hold the acks until
        // the configured quorum of standbys has every record appended
        // so far (or the node fences / times out, which raises the
        // batch-abort flag the committer reads via `commit_abort`).
        // Staged even when a maintenance sync or checkpoint already
        // made the records durable: the quorum wait is still owed.
        // Runs outside the service lock, so shipping proceeds while we
        // wait.
        let (n, fsync) = staged.unwrap_or_else(|| (0, Box::new(|| {})));
        let last_seq = self.db.repl_next_seq().saturating_sub(1);
        let timeout = ctl.lease() * 2;
        Some((
            n,
            Box::new(move || {
                fsync();
                let _ = ctl.wait_quorum(last_seq, timeout);
            }),
        ))
    }

    fn take_repl_stamp(&mut self) -> Option<loco_net::ReplStamp> {
        let ctl = self.repl.as_ref()?;
        Some(loco_net::ReplStamp {
            epoch: ctl.epoch(),
            fenced: std::mem::take(&mut self.fenced_reply),
        })
    }

    fn commit_abort(&mut self) -> bool {
        self.repl.as_ref().is_some_and(|c| c.take_abort())
    }

    fn req_label(req: &DmsRequest) -> &'static str {
        req.label()
    }

    fn tag_mutates(tag: u8) -> bool {
        DmsRequest::class_of_tag(tag).is_none_or(OpClass::mutates)
    }

    /// The op table's class, with one exception: a `SetDirAttr` that
    /// changes the owner is not idempotent. Once it landed, the caller
    /// may no longer own the directory, and the re-send fails the
    /// owner check.
    fn req_idempotent(req: &DmsRequest) -> bool {
        req.class().idempotent()
            && !matches!(
                req,
                DmsRequest::SetDirAttr {
                    new_owner: Some(_),
                    ..
                }
            )
    }
}

/// The error a response carries, if any — the one choke point where
/// every failed mutation/lookup becomes a structured log event.
fn resp_error(resp: &DmsResponse) -> Option<&FsError> {
    match resp {
        DmsResponse::Dir(Err(e)) => Some(e),
        DmsResponse::Dirents(Err(e)) => Some(e),
        DmsResponse::Done(Err(e)) => Some(e),
        _ => None,
    }
}

impl DirServer {
    fn dispatch(&mut self, req: DmsRequest) -> DmsResponse {
        match req {
            DmsRequest::Mkdir {
                path,
                mode,
                uid,
                gid,
                ts,
            } => DmsResponse::Done(self.mkdir(&path, mode, uid, gid, ts)),
            DmsRequest::Rmdir { path, uid, gid } => DmsResponse::Done(self.rmdir(&path, uid, gid)),
            DmsRequest::GetDir { path } => DmsResponse::Dir(self.get_dir(&path)),
            DmsRequest::StatDir { path, uid, gid } => DmsResponse::Dir(
                self.check_ancestors(&path, uid, gid)
                    .and_then(|()| self.get_dir(&path)),
            ),
            DmsRequest::ReaddirSubdirs { dir_uuid } => {
                let list = self.load_dirents(dir_uuid);
                DmsResponse::Dirents(Ok(list
                    .entries()
                    .iter()
                    .map(|e| (e.name.clone(), e.uuid))
                    .collect()))
            }
            DmsRequest::SetDirAttr {
                path,
                uid,
                gid,
                new_mode,
                new_owner,
                ts,
            } => DmsResponse::Done(self.set_attr(&path, uid, gid, new_mode, new_owner, ts)),
            DmsRequest::RenameDir {
                old_path,
                new_path,
                uid,
                gid,
                ts,
            } => DmsResponse::Done(self.rename_dir(&old_path, &new_path, uid, gid, ts)),
            DmsRequest::MkdirLocal {
                path,
                mode,
                uid,
                gid,
                ts,
            } => {
                let res = (|| {
                    if self.db.contains(path.as_bytes()) {
                        return Err(FsError::AlreadyExists);
                    }
                    let uuid = self.alloc_uuid();
                    let inode = DirInode::new(uuid, mode, uid, gid, ts);
                    self.db.put(path.as_bytes(), &inode.encode());
                    self.db.put(&dirent_key(uuid), &DirentList::new().encode());
                    Ok(1)
                })();
                DmsResponse::Done(res)
            }
            DmsRequest::RmdirLocal { path } => {
                let res = (|| {
                    let inode = self.get_dir(&path)?;
                    if !self.load_dirents(inode.uuid).is_empty() {
                        return Err(FsError::NotEmpty);
                    }
                    self.db.delete(path.as_bytes());
                    self.db.delete(&dirent_key(inode.uuid));
                    Ok(1)
                })();
                DmsResponse::Done(res)
            }
            DmsRequest::AddDirent {
                dir_uuid,
                name,
                child_uuid,
            } => {
                self.add_dirent(dir_uuid, &name, child_uuid);
                DmsResponse::Done(Ok(1))
            }
            DmsRequest::RemoveDirent { dir_uuid, name } => {
                self.remove_dirent(dir_uuid, &name);
                DmsResponse::Done(Ok(1))
            }
            DmsRequest::CheckAccess {
                path,
                uid,
                gid,
                perm,
            } => {
                let ok = self
                    .check_ancestors(&path, uid, gid)
                    .and_then(|()| {
                        let d = self.get_dir(&path)?;
                        if acl::may_access(d.mode, d.uid, d.gid, uid, gid, perm) {
                            Ok(())
                        } else {
                            Err(FsError::PermissionDenied)
                        }
                    })
                    .is_ok();
                DmsResponse::Bool(ok)
            }
            DmsRequest::Promote {} => DmsResponse::Repl(self.do_promote()),
            // Intercepted in `handle` before the txn bracket; kept
            // total so the match stays exhaustive.
            DmsRequest::ReplAppend { .. }
            | DmsRequest::ReplSnapshot { .. }
            | DmsRequest::ReplStatus {} => self.repl_info(false),
        }
    }

    /// Snapshot of the replication state for a control reply.
    fn repl_info(&mut self, ok: bool) -> DmsResponse {
        let (epoch, role, silence_ms) = match &self.repl {
            Some(ctl) => {
                let silence = match ctl.role() {
                    Role::Primary => 0,
                    _ => ctl.primary_silence_ms(),
                };
                (ctl.epoch(), ctl.role().as_u8(), silence)
            }
            None => (0, 0, u64::MAX),
        };
        DmsResponse::Repl(ReplInfo {
            ok,
            epoch,
            next_seq: self.db.repl_next_seq(),
            role,
            silence_ms,
        })
    }

    /// Become the primary at a fresh epoch: `max(max epoch ever seen,
    /// mine) + 1`, persisted through the WAL so the bump is durable
    /// before the promote is acknowledged and replicates to surviving
    /// standbys. Runs inside the normal txn bracket.
    fn do_promote(&mut self) -> ReplInfo {
        let Some(ctl) = self.repl.clone() else {
            // Unreplicated server: promote is meaningless but harmless.
            return ReplInfo {
                ok: false,
                epoch: 0,
                next_seq: self.db.repl_next_seq(),
                role: 0,
                silence_ms: u64::MAX,
            };
        };
        let epoch = ctl.max_seen_epoch().max(ctl.epoch()) + 1;
        self.db.put(EPOCH_KEY, &epoch.to_le_bytes());
        // The replicated stream carried the old primary's watermark
        // writes straight into the store, bypassing this instance's
        // in-memory allocator — re-seed it so the new primary never
        // re-issues a uuid the old one already handed out.
        let (sid, cur) = self.uuids.state();
        let bound = loco_kv::watermark::load(&mut *self.db).unwrap_or(0);
        if bound > cur {
            self.uuids = UuidGen::from_state(sid, bound);
            self.wm_limit = bound;
        }
        ctl.transition(Role::Primary, epoch);
        loco_log::info!("repl.election", "promoted to primary";
            epoch = epoch, next_seq = self.db.repl_next_seq());
        ReplInfo {
            ok: true,
            epoch,
            next_seq: self.db.repl_next_seq(),
            role: Role::Primary.as_u8(),
            silence_ms: 0,
        }
    }

    /// Standby-side replication handler (and the shared status probe).
    /// Runs outside the txn bracket: shipped groups land in the WAL
    /// verbatim via `repl_apply_group`, preserving the primary's
    /// sequence numbers and group boundaries.
    fn handle_repl(&mut self, req: DmsRequest) -> DmsResponse {
        let Some(ctl) = self.repl.clone() else {
            return self.repl_info(false);
        };
        match req {
            DmsRequest::ReplStatus {} => self.repl_info(true),
            DmsRequest::ReplAppend {
                epoch,
                first_seq,
                group,
            } => {
                ctl.observe_epoch(epoch);
                let mine = ctl.epoch();
                if epoch < mine {
                    // Stale primary: reject, and let our higher epoch
                    // in the reply fence it.
                    loco_log::warn!("repl.ship", "append from stale epoch rejected";
                        from_epoch = epoch, epoch = mine, first_seq = first_seq);
                    return self.repl_info(false);
                }
                if epoch > mine || ctl.role() == Role::Primary {
                    // A higher (or equal-from-elsewhere) epoch is
                    // authoritative: follow it. A primary hearing a
                    // higher epoch has been superseded and steps down.
                    if ctl.role() == Role::Primary && epoch > mine {
                        loco_log::warn!("repl.election", "superseded by higher epoch; stepping down";
                            epoch = mine, new_epoch = epoch);
                    }
                    if epoch > mine {
                        ctl.transition(Role::Standby, epoch);
                    } else if ctl.role() == Role::Primary {
                        // Same epoch from another node claiming primary
                        // — split brain; refuse and keep our claim.
                        return self.repl_info(false);
                    }
                }
                ctl.note_primary_contact(epoch);
                if group.is_empty() {
                    return self.repl_info(true); // heartbeat/probe
                }
                match self.db.repl_apply_group(&group) {
                    Ok(_) => self.repl_info(true),
                    Err(e) => {
                        loco_log::warn!("repl.ship", "replicated group refused";
                            first_seq = first_seq,
                            next_seq = self.db.repl_next_seq(),
                            error = format_args!("{e}"));
                        self.repl_info(false)
                    }
                }
            }
            DmsRequest::ReplSnapshot {
                epoch,
                last_seq,
                image,
            } => {
                ctl.observe_epoch(epoch);
                if epoch < ctl.epoch() {
                    return self.repl_info(false);
                }
                if epoch > ctl.epoch() {
                    ctl.transition(Role::Standby, epoch);
                } else if ctl.role() == Role::Primary {
                    // Same epoch from another node claiming primary —
                    // split brain, exactly as in ReplAppend: refuse
                    // rather than let a rival wholesale-clobber a live
                    // primary's store while it keeps acking clients.
                    loco_log::warn!("repl.ship", "equal-epoch snapshot from rival primary refused";
                        epoch = epoch, last_seq = last_seq);
                    return self.repl_info(false);
                }
                ctl.note_primary_contact(epoch);
                match self.db.repl_install_snapshot(&image) {
                    Ok(records) => {
                        loco_log::info!("repl.ship", "snapshot installed";
                            last_seq = last_seq, records = records as u64);
                        // Snapshot state supersedes the in-memory uuid
                        // allocator: re-seed from the persisted
                        // watermark it carried.
                        let (sid, _) = self.uuids.state();
                        let bound = loco_kv::watermark::load(&mut *self.db).unwrap_or(0);
                        self.uuids = UuidGen::from_state(sid, bound);
                        self.wm_limit = bound;
                        self.repl_info(true)
                    }
                    Err(e) => {
                        loco_log::warn!("repl.ship", "snapshot install failed";
                            error = format_args!("{e}"));
                        self.repl_info(false)
                    }
                }
            }
            _ => self.repl_info(false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dms() -> DirServer {
        DirServer::new(DmsBackend::BTree, KvConfig::default())
    }

    fn mk(d: &mut DirServer, path: &str) -> FsResult<usize> {
        d.mkdir(path, 0o755, 1000, 100, 1)
    }

    #[test]
    fn root_exists_at_startup() {
        let mut d = dms();
        let root = d.lookup("/").unwrap();
        assert_eq!(root.uuid, Uuid::ROOT);
        assert_eq!(root.mode, 0o777);
    }

    #[test]
    fn mkdir_and_lookup() {
        let mut d = dms();
        mk(&mut d, "/a").unwrap();
        mk(&mut d, "/a/b").unwrap();
        let a = d.lookup("/a").unwrap();
        let b = d.lookup("/a/b").unwrap();
        assert_ne!(a.uuid, b.uuid);
        assert_eq!(a.uid, 1000);
    }

    #[test]
    fn mkdir_requires_existing_parent() {
        let mut d = dms();
        assert_eq!(mk(&mut d, "/a/b"), Err(FsError::NotFound));
    }

    #[test]
    fn mkdir_duplicate_fails() {
        let mut d = dms();
        mk(&mut d, "/a").unwrap();
        assert_eq!(mk(&mut d, "/a"), Err(FsError::AlreadyExists));
    }

    #[test]
    fn mkdir_records_parent_dirent() {
        let mut d = dms();
        mk(&mut d, "/a").unwrap();
        mk(&mut d, "/b").unwrap();
        let list = d.load_dirents(Uuid::ROOT);
        assert_eq!(list.len(), 2);
        assert!(list.find("a").is_some());
    }

    #[test]
    fn rmdir_empty_only() {
        let mut d = dms();
        mk(&mut d, "/a").unwrap();
        mk(&mut d, "/a/b").unwrap();
        assert_eq!(d.rmdir("/a", 1000, 100), Err(FsError::NotEmpty));
        d.rmdir("/a/b", 1000, 100).unwrap();
        d.rmdir("/a", 1000, 100).unwrap();
        assert!(d.lookup("/a").is_none());
        assert!(d.load_dirents(Uuid::ROOT).is_empty());
    }

    #[test]
    fn rmdir_root_refused() {
        let mut d = dms();
        assert_eq!(d.rmdir("/", 0, 0), Err(FsError::Busy));
    }

    #[test]
    fn acl_walk_blocks_unreadable_ancestors() {
        let mut d = dms();
        d.mkdir("/secret", 0o700, 42, 42, 1).unwrap();
        // Owner can create inside.
        d.mkdir("/secret/mine", 0o755, 42, 42, 1).unwrap();
        // Others cannot traverse /secret.
        assert_eq!(
            d.mkdir("/secret/theirs", 0o755, 7, 7, 1),
            Err(FsError::PermissionDenied)
        );
        assert_eq!(
            d.check_ancestors("/secret/mine/x", 7, 7),
            Err(FsError::PermissionDenied)
        );
    }

    #[test]
    fn mkdir_needs_write_on_parent() {
        let mut d = dms();
        d.mkdir("/ro", 0o555, 42, 42, 1).unwrap();
        assert_eq!(
            d.mkdir("/ro/x", 0o755, 42, 42, 1),
            Err(FsError::PermissionDenied)
        );
        // root bypasses
        d.mkdir("/ro/byroot", 0o755, 0, 0, 1).unwrap();
    }

    #[test]
    fn set_attr_chmod_chown() {
        let mut d = dms();
        mk(&mut d, "/a").unwrap();
        d.set_attr("/a", 1000, 100, Some(0o700), None, 9).unwrap();
        let a = d.lookup("/a").unwrap();
        assert_eq!(a.mode, 0o700);
        assert_eq!(a.ctime, 9);
        // Non-owner cannot chmod.
        assert_eq!(
            d.set_attr("/a", 7, 7, Some(0o777), None, 9),
            Err(FsError::PermissionDenied)
        );
        // Root can chown.
        d.set_attr("/a", 0, 0, None, Some((5, 6)), 10).unwrap();
        let a = d.lookup("/a").unwrap();
        assert_eq!((a.uid, a.gid), (5, 6));
    }

    #[test]
    fn rename_moves_whole_subtree() {
        let mut d = dms();
        for p in ["/a", "/a/x", "/a/x/deep", "/a/y", "/b"] {
            mk(&mut d, p).unwrap();
        }
        let moved = d.rename_dir("/a", "/b/a2", 1000, 100, 5).unwrap();
        assert_eq!(moved, 4); // /a + 3 descendants
        assert!(d.lookup("/a").is_none());
        assert!(d.lookup("/a/x").is_none());
        assert!(d.lookup("/b/a2").is_some());
        assert!(d.lookup("/b/a2/x/deep").is_some());
        // Dirent lists updated.
        let root_list = d.load_dirents(Uuid::ROOT);
        assert!(root_list.find("a").is_none());
        let b_uuid = d.lookup("/b").unwrap().uuid;
        assert!(d.load_dirents(b_uuid).find("a2").is_some());
    }

    #[test]
    fn rename_preserves_uuids() {
        let mut d = dms();
        mk(&mut d, "/a").unwrap();
        mk(&mut d, "/a/x").unwrap();
        let before = d.lookup("/a/x").unwrap().uuid;
        d.rename_dir("/a", "/a2", 1000, 100, 5).unwrap();
        assert_eq!(d.lookup("/a2/x").unwrap().uuid, before);
    }

    #[test]
    fn rename_onto_descendant_refused() {
        let mut d = dms();
        mk(&mut d, "/a").unwrap();
        mk(&mut d, "/a/b").unwrap();
        assert_eq!(
            d.rename_dir("/a", "/a/b/c", 1000, 100, 5),
            Err(FsError::Busy)
        );
        assert_eq!(d.rename_dir("/a", "/a", 1000, 100, 5), Err(FsError::Busy));
    }

    #[test]
    fn rename_does_not_disturb_siblings_with_common_prefix() {
        let mut d = dms();
        mk(&mut d, "/ab").unwrap();
        mk(&mut d, "/ab2").unwrap(); // shares string prefix "/ab"
        mk(&mut d, "/ab/kid").unwrap();
        let moved = d.rename_dir("/ab", "/zz", 1000, 100, 5).unwrap();
        assert_eq!(moved, 2);
        assert!(d.lookup("/ab2").is_some(), "sibling must survive");
    }

    #[test]
    fn rename_to_existing_target_fails() {
        let mut d = dms();
        mk(&mut d, "/a").unwrap();
        mk(&mut d, "/b").unwrap();
        assert_eq!(
            d.rename_dir("/a", "/b", 1000, 100, 5),
            Err(FsError::AlreadyExists)
        );
    }

    #[test]
    fn hash_backend_same_semantics() {
        let mut d = DirServer::new(DmsBackend::Hash, KvConfig::default());
        d.mkdir("/a", 0o755, 1, 1, 1).unwrap();
        d.mkdir("/a/b", 0o755, 1, 1, 1).unwrap();
        let moved = d.rename_dir("/a", "/c", 1, 1, 2).unwrap();
        assert_eq!(moved, 2);
        assert!(d.lookup("/c/b").is_some());
    }

    #[test]
    fn btree_rename_much_cheaper_than_hash_at_scale() {
        let mut bt = DirServer::new(DmsBackend::BTree, KvConfig::default());
        let mut hs = DirServer::new(DmsBackend::Hash, KvConfig::default());
        for d in [&mut bt, &mut hs] {
            d.mkdir("/big", 0o755, 1, 1, 0).unwrap();
            d.mkdir("/target", 0o755, 1, 1, 0).unwrap();
            for i in 0..2_000 {
                d.mkdir(&format!("/big/d{i:05}"), 0o755, 1, 1, 0).unwrap();
            }
            // Plenty of unrelated records that hash rename must scan.
            for i in 0..2_000 {
                d.mkdir(&format!("/target/t{i:05}"), 0o755, 1, 1, 0)
                    .unwrap();
            }
            let _ = d.take_cost();
        }
        bt.rename_dir("/big", "/big2", 1, 1, 1).unwrap();
        let bt_cost = bt.take_cost();
        hs.rename_dir("/big", "/big2", 1, 1, 1).unwrap();
        let hs_cost = hs.take_cost();
        assert!(
            // The gap mostly comes from the full scan; with everything in
            // RAM it is modest at this scale but must be clearly visible.
            bt_cost < hs_cost,
            "btree {bt_cost} should beat hash {hs_cost}"
        );
    }

    #[test]
    fn service_interface_dispatches() {
        let mut d = dms();
        let resp = d.handle(DmsRequest::Mkdir {
            path: "/s".into(),
            mode: 0o755,
            uid: 1,
            gid: 1,
            ts: 0,
        });
        assert!(matches!(resp, DmsResponse::Done(Ok(1))));
        assert!(d.take_cost() > 0);
        let resp = d.handle(DmsRequest::GetDir { path: "/s".into() });
        match resp {
            DmsResponse::Dir(Ok(inode)) => assert_eq!(inode.uid, 1),
            other => panic!("unexpected {other:?}"),
        }
        let resp = d.handle(DmsRequest::CheckAccess {
            path: "/s".into(),
            uid: 1,
            gid: 1,
            perm: Perm::Write,
        });
        assert!(matches!(resp, DmsResponse::Bool(true)));
    }

    #[test]
    fn shard_local_requests_skip_ancestor_state() {
        // A shard holding only part of the namespace must accept
        // MkdirLocal for paths whose ancestors live elsewhere.
        let mut shard = DirServer::with_sid(DmsBackend::BTree, KvConfig::default(), 3);
        let resp = shard.handle(DmsRequest::MkdirLocal {
            path: "/elsewhere/deep/dir".into(),
            mode: 0o755,
            uid: 1,
            gid: 1,
            ts: 0,
        });
        assert!(matches!(resp, DmsResponse::Done(Ok(1))));
        let inode = shard.lookup("/elsewhere/deep/dir").unwrap();
        assert_eq!(inode.uuid.sid(), 3, "shard allocates from its own space");
        // Duplicate refused.
        let resp = shard.handle(DmsRequest::MkdirLocal {
            path: "/elsewhere/deep/dir".into(),
            mode: 0o755,
            uid: 1,
            gid: 1,
            ts: 0,
        });
        assert!(matches!(
            resp,
            DmsResponse::Done(Err(FsError::AlreadyExists))
        ));
        // RmdirLocal enforces subdir emptiness via the local dirent log.
        shard.handle(DmsRequest::AddDirent {
            dir_uuid: inode.uuid,
            name: "kid".into(),
            child_uuid: Uuid::new(3, 99),
        });
        let resp = shard.handle(DmsRequest::RmdirLocal {
            path: "/elsewhere/deep/dir".into(),
        });
        assert!(matches!(resp, DmsResponse::Done(Err(FsError::NotEmpty))));
        shard.handle(DmsRequest::RemoveDirent {
            dir_uuid: inode.uuid,
            name: "kid".into(),
        });
        let resp = shard.handle(DmsRequest::RmdirLocal {
            path: "/elsewhere/deep/dir".into(),
        });
        assert!(matches!(resp, DmsResponse::Done(Ok(1))));
        assert!(shard.lookup("/elsewhere/deep/dir").is_none());
    }

    #[test]
    fn check_access_probes_ancestry_and_target() {
        let mut d = dms();
        d.mkdir("/locked", 0o700, 42, 42, 1).unwrap();
        let ok = |d: &mut DirServer, uid, perm| {
            matches!(
                d.handle(DmsRequest::CheckAccess {
                    path: "/locked".into(),
                    uid,
                    gid: 42,
                    perm,
                }),
                DmsResponse::Bool(true)
            )
        };
        assert!(ok(&mut d, 42, Perm::Write));
        assert!(!ok(&mut d, 7, Perm::Read), "others blocked by 0700");
        assert!(ok(&mut d, 0, Perm::Write), "root bypasses");
    }

    #[test]
    fn wal_replication_ships_promotes_and_fences() {
        use loco_repl::AckPolicy;
        use std::time::Duration;
        let tmp = std::env::temp_dir().join(format!("dms-repl-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        let open = |name: &str| {
            let store =
                loco_kv::DurableStore::open(tmp.join(name), BTreeDb::new(KvConfig::default()))
                    .unwrap();
            DirServer::with_store(Box::new(store), 0)
        };
        let ctl_p = Arc::new(ReplCtl::new(
            1,
            Role::Primary,
            AckPolicy::None,
            Duration::from_millis(100),
            vec!["peer".into()],
        ));
        let ctl_s = Arc::new(ReplCtl::new(
            0,
            Role::Standby,
            AckPolicy::None,
            Duration::from_millis(100),
            Vec::new(),
        ));
        let mut primary = open("primary");
        let mut standby = open("standby");
        assert!(primary.enable_repl(Arc::clone(&ctl_p)));
        assert!(standby.enable_repl(Arc::clone(&ctl_s)));
        for p in ["/a", "/a/b", "/c"] {
            let resp = primary.handle(DmsRequest::Mkdir {
                path: p.into(),
                mode: 0o755,
                uid: 1,
                gid: 1,
                ts: 0,
            });
            assert!(matches!(resp, DmsResponse::Done(Ok(1))), "{resp:?}");
        }
        // Ship every sealed group from the primary's ring, starting at
        // the standby's next expected sequence number.
        let from = standby.wal_next_seq();
        let groups = ctl_p
            .with_ring(|r| r.collect_from(from, usize::MAX))
            .unwrap();
        assert!(!groups.is_empty());
        for (first, _, bytes) in groups {
            let resp = standby.handle(DmsRequest::ReplAppend {
                epoch: 1,
                first_seq: first,
                group: bytes,
            });
            match resp {
                DmsResponse::Repl(i) => assert!(i.ok, "{i:?}"),
                other => panic!("unexpected {other:?}"),
            }
        }
        // Client ops on the standby are fenced.
        let resp = standby.handle(DmsRequest::GetDir { path: "/a".into() });
        assert!(matches!(resp, DmsResponse::Done(Err(FsError::Io(_)))));
        assert!(standby.take_repl_stamp().unwrap().fenced);
        // Promote: fresh epoch above anything seen, namespace complete.
        let resp = standby.handle(DmsRequest::Promote {});
        let info = match resp {
            DmsResponse::Repl(i) => i,
            other => panic!("unexpected {other:?}"),
        };
        assert!(info.ok && info.epoch == 2 && info.role == Role::Primary.as_u8());
        assert!(standby.lookup("/a/b").is_some());
        // Uuid allocation resumes past everything the old primary used.
        let resp = standby.handle(DmsRequest::Mkdir {
            path: "/d".into(),
            mode: 0o755,
            uid: 1,
            gid: 1,
            ts: 1,
        });
        assert!(matches!(resp, DmsResponse::Done(Ok(1))));
        let fresh = standby.lookup("/d").unwrap().uuid;
        for p in ["/a", "/a/b", "/c"] {
            assert_ne!(standby.lookup(p).unwrap().uuid, fresh);
        }
        // The stale primary's appends are now rejected by epoch.
        let resp = standby.handle(DmsRequest::ReplAppend {
            epoch: 1,
            first_seq: 99,
            group: vec![1, 2, 3],
        });
        match resp {
            DmsResponse::Repl(i) => {
                assert!(!i.ok);
                assert_eq!(i.epoch, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        // An equal-epoch ReplSnapshot from a rival claimed primary is
        // split brain, exactly like an equal-epoch append: it must be
        // refused before it can wholesale-clobber a live primary's
        // store while that primary keeps acking clients.
        let (snap_last, image) = standby.repl_snapshot().expect("snapshot image");
        let resp = standby.handle(DmsRequest::Mkdir {
            path: "/post-snap".into(),
            mode: 0o755,
            uid: 1,
            gid: 1,
            ts: 2,
        });
        assert!(matches!(resp, DmsResponse::Done(Ok(1))), "{resp:?}");
        let resp = standby.handle(DmsRequest::ReplSnapshot {
            epoch: 2,
            last_seq: snap_last,
            image,
        });
        match resp {
            DmsResponse::Repl(i) => {
                assert!(!i.ok, "equal-epoch rival snapshot must be refused");
                assert_eq!(i.role, Role::Primary.as_u8(), "role keeps its claim");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(
            standby.lookup("/post-snap").is_some(),
            "refused snapshot must leave the live store untouched"
        );
        let _ = std::fs::remove_dir_all(&tmp);
    }

    /// A replicated primary over an fsync-always store with group
    /// commit on, whose one standby never acks; it has handled one
    /// `Mkdir` whose reply is parked. Returns the server, its control
    /// block and the data directory.
    fn primary_with_parked_mkdir(name: &str) -> (DirServer, Arc<ReplCtl>, std::path::PathBuf) {
        use loco_kv::{DurableStore, SyncPolicy};
        use loco_repl::AckPolicy;
        use std::time::Duration;
        let dir = std::env::temp_dir().join(format!("dms-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DurableStore::open(&dir, BTreeDb::new(KvConfig::default()))
            .unwrap()
            .with_sync_policy(SyncPolicy::EveryRecord);
        let mut dms = DirServer::with_store(Box::new(store), 0);
        let ctl = Arc::new(ReplCtl::new(
            1,
            Role::Primary,
            AckPolicy::One,
            Duration::from_millis(20),
            vec!["silent-standby".into()],
        ));
        assert!(dms.enable_repl(Arc::clone(&ctl)));
        assert!(dms.defer_sync(true));
        let resp = dms.handle(DmsRequest::Mkdir {
            path: "/a".into(),
            mode: 0o755,
            uid: 1,
            gid: 1,
            ts: 0,
        });
        assert!(matches!(resp, DmsResponse::Done(Ok(1))), "{resp:?}");
        assert!(dms.take_commit_ticket().is_some(), "the reply is parked");
        (dms, ctl, dir)
    }

    /// Stage the parked batch, run its fsync, and report whether the
    /// committer must drop its replies.
    fn stage_and_run(dms: &mut DirServer) -> bool {
        let (_, fsync) = dms
            .commit_flush_begin()
            .expect("a replicated server stages every batch");
        fsync();
        dms.commit_abort()
    }

    #[test]
    fn a_maintenance_sync_does_not_skip_the_quorum_wait() {
        let (mut dms, _ctl, dir) = primary_with_parked_mkdir("maintain-quorum");
        // The periodic maintenance sync makes the Mkdir durable before
        // the committer stages it; no standby has it yet.
        assert!(dms.maintain(false).is_some());
        assert!(
            stage_and_run(&mut dms),
            "an ack no standby has must be dropped"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_primary_demoted_before_the_stage_drops_the_batch() {
        let (mut dms, ctl, dir) = primary_with_parked_mkdir("demoted-stage");
        ctl.transition(Role::Standby, 2);
        assert!(
            stage_and_run(&mut dms),
            "a write accepted as primary must not ack after a demotion"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deeper_paths_cost_more_server_time() {
        // Fig 13 mechanism: ancestor ACL walk is per-level KV gets.
        let mut d = dms();
        let mut path = String::new();
        for i in 0..16 {
            path.push_str(&format!("/L{i}"));
            mk(&mut d, &path).unwrap();
        }
        d.take_cost();
        d.check_ancestors("/L0/x", 1000, 100).unwrap();
        let shallow = d.take_cost();
        d.check_ancestors(&format!("{path}/x"), 1000, 100).unwrap();
        let deep = d.take_cost();
        assert!(deep > 5 * shallow, "shallow={shallow} deep={deep}");
    }
}
