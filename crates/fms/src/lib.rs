#![warn(missing_docs)]
//! # loco-fms — the File Metadata Server
//!
//! File metadata in LocoFS is placed on one of many FMS nodes by
//! consistent-hashing `directory_uuid + file_name` (§3.1). Within a
//! server, this crate implements the paper's *decoupled file metadata*
//! (§3.3):
//!
//! * the file inode is split into an **access** record (ctime, mode,
//!   uid, gid) and a **content** record (mtime, atime, size, bsize,
//!   uuid), each a small fixed-layout value;
//! * operations touch only the record(s) Table 1 assigns them — chmod
//!   updates two fields of the access record in place, write updates
//!   two fields of the content record, stat reads both — with no
//!   (de)serialization (§3.3.3);
//! * per directory uuid, the server keeps one concatenated dirent list
//!   of the files *it* hosts (§3.2.1), maintained by O(entry) appends
//!   and tombstones;
//! * block-index metadata does not exist: content carries the file's
//!   uuid and blocks are addressed `uuid + blk_num` (§3.3.2).
//!
//! The `FmsMode::Coupled` configuration stores one combined
//! variable-length record per file instead — the LocoFS-CF baseline of
//! the paper's Fig 11 ablation — so every field update becomes a full
//! read-modify-write with serialization charges.
//!
//! Key namespaces within the backing store: `A` access, `C` content,
//! `F` coupled inode, `E` dirent list.

use loco_kv::{CodecKind, HashDb, KvConfig, KvStore};
use loco_net::{Nanos, Service};
use loco_sim::time::CostAcc;
use loco_types::meta::{decode_coupled, encode_coupled};
use loco_types::{
    acl, encode_entry, encode_tombstone, DirentKind, DirentList, FileAccess, FileContent, FsError,
    FsResult, OpClass, Perm, Uuid, UuidGen,
};

/// Whether file metadata is stored decoupled (paper design, LocoFS-DF)
/// or as a single coupled record (LocoFS-CF ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FmsMode {
    /// Access and content parts stored separately (paper design).
    Decoupled,
    /// One combined varlen record per file (Fig 11 ablation).
    Coupled,
}

/// Requests handled by an FMS. `dir_uuid` + `name` is always the file's
/// placement/storage key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FmsRequest {
    /// Create a file; allocates its uuid, writes its metadata and
    /// appends its dirent.
    Create {
        /// Uuid of the parent directory (placement-key half).
        dir_uuid: Uuid,
        /// File name within the directory (placement-key half).
        name: String,
        /// POSIX permission bits.
        mode: u32,
        /// Caller user id (permission checks).
        uid: u32,
        /// Caller group id (permission checks).
        gid: u32,
        /// Logical timestamp recorded in ctime/mtime fields.
        ts: u64,
    },
    /// Open: permission check on the access record; optionally also
    /// fetch the content record (Table 1 marks that optional).
    Open {
        /// Uuid of the parent directory (placement-key half).
        dir_uuid: Uuid,
        /// File name within the directory (placement-key half).
        name: String,
        /// Caller user id (permission checks).
        uid: u32,
        /// Caller group id (permission checks).
        gid: u32,
        /// Requested access kind.
        perm: Perm,
        /// Also fetch the content record (Table 1 optional).
        with_content: bool,
    },
    /// Full stat: both records.
    /// Read both metadata parts of a file.
    Stat {
        /// Uuid of the parent directory (placement-key half).
        dir_uuid: Uuid,
        /// File name (placement-key half).
        name: String,
    },
    /// Content record only (read path).
    /// Read the content record only.
    GetContent {
        /// Uuid of the parent directory (placement-key half).
        dir_uuid: Uuid,
        /// File name (placement-key half).
        name: String,
    },
    /// access(2): permission probe against the access record only.
    Access {
        /// Uuid of the parent directory (placement-key half).
        dir_uuid: Uuid,
        /// File name within the directory (placement-key half).
        name: String,
        /// Caller user id (permission checks).
        uid: u32,
        /// Caller group id (permission checks).
        gid: u32,
        /// Requested access kind.
        perm: Perm,
    },
    /// chmod: update mode + ctime fields.
    Chmod {
        /// Uuid of the parent directory (placement-key half).
        dir_uuid: Uuid,
        /// File name within the directory (placement-key half).
        name: String,
        /// Caller user id (permission checks).
        uid: u32,
        /// POSIX permission bits.
        mode: u32,
        /// Logical timestamp recorded in ctime/mtime fields.
        ts: u64,
    },
    /// chown: update uid/gid + ctime fields.
    Chown {
        /// Uuid of the parent directory (placement-key half).
        dir_uuid: Uuid,
        /// File name within the directory (placement-key half).
        name: String,
        /// Caller user id (permission checks).
        uid: u32,
        /// New owner user id.
        new_uid: u32,
        /// New owner group id.
        new_gid: u32,
        /// Logical timestamp recorded in ctime/mtime fields.
        ts: u64,
    },
    /// utimens: update atime/mtime fields of the content record.
    Utimens {
        /// Uuid of the parent directory (placement-key half).
        dir_uuid: Uuid,
        /// File name within the directory (placement-key half).
        name: String,
        /// New access timestamp.
        atime: u64,
        /// New modification timestamp.
        mtime: u64,
    },
    /// Metadata half of write/truncate: set size + mtime.
    SetSize {
        /// Uuid of the parent directory (placement-key half).
        dir_uuid: Uuid,
        /// File name within the directory (placement-key half).
        name: String,
        /// File size in bytes.
        size: u64,
        /// Logical timestamp recorded in ctime/mtime fields.
        ts: u64,
    },
    /// client can free data blocks.
    /// client can reclaim data blocks.
    Remove {
        /// Uuid of the parent directory (placement-key half).
        dir_uuid: Uuid,
        /// File name (placement-key half).
        name: String,
    },
    /// Dirents of the files this server hosts for the directory.
    ListFiles {
        /// Uuid of the directory to list.
        dir_uuid: Uuid,
    },
    /// readdirplus: dirents plus both metadata records in one RPC —
    /// turns an `ls -l` stat storm into one visit per server.
    /// readdirplus: dirents plus both records in one RPC.
    ListFilesPlus {
        /// Uuid of the directory to list.
        dir_uuid: Uuid,
    },
    /// Count of files this server hosts for the directory (rmdir check).
    /// Count of files this server hosts for the directory.
    CountFiles {
        /// Uuid of the directory to count.
        dir_uuid: Uuid,
    },
    /// f-rename source half: remove and return the metadata.
    TakeFile {
        /// Uuid of the parent directory (placement-key half).
        dir_uuid: Uuid,
        /// File name (placement-key half).
        name: String,
    },
    /// f-rename destination half: install metadata under a new key.
    PutFile {
        /// Uuid of the parent directory (placement-key half).
        dir_uuid: Uuid,
        /// File name within the directory (placement-key half).
        name: String,
        /// Access-part record (ctime, mode, uid, gid).
        access: FileAccess,
        /// Content-part record (mtime, atime, size, bsize, uuid).
        content: FileContent,
    },
}

/// FMS responses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FmsResponse {
    /// Result of a create: the new uuid.
    Created(FsResult<Uuid>),
    /// Result of an open: access part and optional content part.
    Opened(FsResult<(FileAccess, Option<FileContent>)>),
    /// Result of a stat: both metadata parts.
    Statted(FsResult<(FileAccess, FileContent)>),
    /// Result carrying a content record.
    Content(FsResult<FileContent>),
    /// Boolean probe result.
    Bool(bool),
    /// Unit result of a mutation.
    Done(FsResult<()>),
    /// Result of a removal (uuid or count).
    Removed(FsResult<Uuid>),
    /// Directory entries as `(name, uuid)` pairs.
    Names(Vec<(String, Uuid)>),
    /// Directory entries with full attributes (readdirplus).
    NamesPlus(Vec<(String, FileAccess, FileContent)>),
    /// Entry count.
    Count(usize),
    /// Metadata extracted for an f-rename.
    Taken(FsResult<(FileAccess, FileContent)>),
}

// The FMS op table and wire codec: tag, variant (the request's label)
// and class per request. Tags are protocol: append-only.
loco_types::impl_wire_enum!(FmsRequest, "fms-request", {
    0 => Create { dir_uuid, name, mode, uid, gid, ts }: Once,
    1 => Open { dir_uuid, name, uid, gid, perm, with_content }: Read,
    2 => Stat { dir_uuid, name }: Read,
    3 => GetContent { dir_uuid, name }: Read,
    4 => Access { dir_uuid, name, uid, gid, perm }: Read,
    5 => Chmod { dir_uuid, name, uid, mode, ts }: Set,
    6 => Chown { dir_uuid, name, uid, new_uid, new_gid, ts }: Once,
    7 => Utimens { dir_uuid, name, atime, mtime }: Set,
    8 => SetSize { dir_uuid, name, size, ts }: Set,
    9 => Remove { dir_uuid, name }: Once,
    10 => ListFiles { dir_uuid }: Read,
    11 => ListFilesPlus { dir_uuid }: Read,
    12 => CountFiles { dir_uuid }: Read,
    13 => TakeFile { dir_uuid, name }: Once,
    14 => PutFile { dir_uuid, name, access, content }: Once,
});

loco_types::impl_wire_enum!(FmsResponse, "fms-response", tuple {
    0 => Created(r),
    1 => Opened(r),
    2 => Statted(r),
    3 => Content(r),
    4 => Bool(r),
    5 => Done(r),
    6 => Removed(r),
    7 => Names(r),
    8 => NamesPlus(r),
    9 => Count(r),
    10 => Taken(r),
});

/// A File Metadata Server.
pub struct FileServer {
    db: Box<dyn KvStore>,
    /// Software-vs-KV split of the last request (span attribution).
    split: loco_kv::SpanSplit,
    mode: FmsMode,
    uuids: UuidGen,
    extra: CostAcc,
    rpc_overhead: Nanos,
    /// Default block size recorded in new content records.
    pub default_bsize: u32,
    /// Store is durable: uuid allocation goes through the persisted
    /// watermark so recovery never re-issues a live uuid.
    durable: bool,
    /// Exclusive fid bound covered by the persisted watermark.
    wm_limit: u64,
}

fn file_key(ns: u8, dir_uuid: Uuid, name: &str) -> Vec<u8> {
    let mut k = Vec::with_capacity(9 + name.len());
    k.push(ns);
    k.extend_from_slice(&dir_uuid.key_bytes());
    k.extend_from_slice(name.as_bytes());
    k
}

/// Issue one in-place partial write covering exactly the byte range that
/// differs between `old` and `new` images. No-op when nothing changed.
fn write_changed_span(db: &mut dyn KvStore, key: &[u8], old: &[u8], new: &[u8]) {
    debug_assert_eq!(old.len(), new.len(), "fixed layouts never resize");
    let Some(first) = old.iter().zip(new).position(|(a, b)| a != b) else {
        return;
    };
    let last = old
        .iter()
        .zip(new)
        .rposition(|(a, b)| a != b)
        .expect("first diff implies last diff");
    db.write_at(key, first, &new[first..=last]);
}

fn dirent_key(dir_uuid: Uuid) -> [u8; 9] {
    let mut k = [0u8; 9];
    k[0] = b'E';
    k[1..].copy_from_slice(&dir_uuid.key_bytes());
    k
}

impl FileServer {
    /// Create an FMS with server id `sid` (used for uuid allocation).
    /// Decoupled mode uses a fixed-layout store; coupled mode a varlen
    /// store, reproducing the serialization tax it is meant to show.
    pub fn new(sid: u16, mode: FmsMode, cfg: KvConfig) -> Self {
        Self::with_store(Box::new(HashDb::new(Self::tune_cfg(mode, cfg))), sid, mode)
    }

    /// The KV codec each mode implies (callers building their own store
    /// — e.g. a durable one — should apply this before construction).
    pub fn tune_cfg(mode: FmsMode, cfg: KvConfig) -> KvConfig {
        match mode {
            FmsMode::Decoupled => cfg.with_codec(CodecKind::Fixed),
            FmsMode::Coupled => cfg.with_codec(CodecKind::Varlen),
        }
    }

    /// Create an FMS over a caller-supplied store — e.g. a
    /// `loco_kv::DurableStore` for on-disk persistence. A store
    /// recovered from disk is used as-is, including the persisted
    /// uuid-allocation watermark.
    pub fn with_store(mut db: Box<dyn KvStore>, sid: u16, mode: FmsMode) -> Self {
        let durable = db.persistence().is_some();
        let (uuids, wm_limit) = match loco_kv::watermark::load(&mut *db) {
            Some(bound) if durable => (UuidGen::from_state(sid, bound), bound),
            _ => (UuidGen::new(sid), 0),
        };
        db.take_cost(); // setup is free
        Self {
            db,
            split: loco_kv::SpanSplit::default(),
            mode,
            uuids,
            extra: CostAcc::new(),
            rpc_overhead: loco_sim::CostModel::default().rpc_handler,
            default_bsize: 1 << 20,
            durable,
            wm_limit,
        }
    }

    /// Allocate a uuid, first pushing the durable watermark past it
    /// when the store persists (the write rides in the current
    /// request's WAL commit group, so it is durable before the ack).
    fn alloc_uuid(&mut self) -> Uuid {
        if self.durable {
            let (_, next_fid) = self.uuids.state();
            if next_fid >= self.wm_limit {
                self.wm_limit = loco_kv::watermark::reserve(&mut *self.db, next_fid);
            }
        }
        self.uuids.alloc()
    }

    /// Storage mode of this server.
    pub fn mode(&self) -> FmsMode {
        self.mode
    }

    /// Persist the full server state to a binary image.
    pub fn snapshot(&mut self) -> Vec<u8> {
        let (sid, next_fid) = self.uuids.state();
        let mut out = Vec::new();
        out.extend_from_slice(&sid.to_le_bytes());
        out.extend_from_slice(&next_fid.to_le_bytes());
        loco_kv::snapshot::dump_into(&mut *self.db, &mut out);
        let _ = self.db.take_cost();
        out
    }

    /// Rebuild a server from a [`FileServer::snapshot`] image.
    pub fn restore(mode: FmsMode, cfg: KvConfig, image: &[u8]) -> Result<Self, String> {
        if image.len() < 10 {
            return Err("truncated server snapshot".into());
        }
        let sid = u16::from_le_bytes(image[0..2].try_into().unwrap());
        let next_fid = u64::from_le_bytes(image[2..10].try_into().unwrap());
        let mut server = Self::new(sid, mode, cfg);
        loco_kv::snapshot::load(&mut *server.db, &image[10..])?;
        let _ = server.db.take_cost();
        server.uuids = loco_types::UuidGen::from_state(sid, next_fid);
        Ok(server)
    }

    /// Export every file record on this server as
    /// `(dir_uuid, name, uuid)` (offline/maintenance path).
    pub fn export_files(&mut self) -> Vec<(Uuid, String, Uuid)> {
        let ns = match self.mode {
            FmsMode::Decoupled => b'C', // content records carry the uuid
            FmsMode::Coupled => b'F',
        };
        let out = self
            .db
            .scan_prefix(&[ns])
            .into_iter()
            .filter_map(|(k, v)| {
                let dir = Uuid::from_key_bytes(k.get(1..9)?.try_into().ok()?);
                let name = String::from_utf8(k.get(9..)?.to_vec()).ok()?;
                let uuid = match self.mode {
                    FmsMode::Decoupled => FileContent::decode(&v)?.uuid,
                    FmsMode::Coupled => decode_coupled(&v)?.1.uuid,
                };
                Some((dir, name, uuid))
            })
            .collect();
        let _ = self.db.take_cost();
        out
    }

    /// Export this server's per-directory file dirent lists.
    pub fn export_dirent_lists(&mut self) -> Vec<(Uuid, DirentList)> {
        let out = self
            .db
            .scan_prefix(b"E")
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

    /// KV access statistics (Table 1 conformance tests).
    pub fn kv_stats(&self) -> loco_kv::AccessStats {
        self.db.stats()
    }

    /// Reset the KV access counters.
    pub fn reset_kv_stats(&mut self) {
        self.db.reset_stats();
        self.split.reset();
    }

    fn exists(&mut self, dir_uuid: Uuid, name: &str) -> bool {
        match self.mode {
            FmsMode::Decoupled => self.db.contains(&file_key(b'A', dir_uuid, name)),
            FmsMode::Coupled => self.db.contains(&file_key(b'F', dir_uuid, name)),
        }
    }

    fn load_access(&mut self, dir_uuid: Uuid, name: &str) -> FsResult<FileAccess> {
        match self.mode {
            FmsMode::Decoupled => {
                let v = self
                    .db
                    .get(&file_key(b'A', dir_uuid, name))
                    .ok_or(FsError::NotFound)?;
                FileAccess::decode(&v).ok_or_else(|| FsError::Io("bad access record".into()))
            }
            FmsMode::Coupled => Ok(self.load_coupled(dir_uuid, name)?.0),
        }
    }

    fn load_content(&mut self, dir_uuid: Uuid, name: &str) -> FsResult<FileContent> {
        match self.mode {
            FmsMode::Decoupled => {
                let v = self
                    .db
                    .get(&file_key(b'C', dir_uuid, name))
                    .ok_or(FsError::NotFound)?;
                FileContent::decode(&v).ok_or_else(|| FsError::Io("bad content record".into()))
            }
            FmsMode::Coupled => Ok(self.load_coupled(dir_uuid, name)?.1),
        }
    }

    fn load_coupled(&mut self, dir_uuid: Uuid, name: &str) -> FsResult<(FileAccess, FileContent)> {
        let v = self
            .db
            .get(&file_key(b'F', dir_uuid, name))
            .ok_or(FsError::NotFound)?;
        decode_coupled(&v).ok_or_else(|| FsError::Io("bad coupled record".into()))
    }

    fn store_both(
        &mut self,
        dir_uuid: Uuid,
        name: &str,
        access: &FileAccess,
        content: &FileContent,
    ) {
        match self.mode {
            FmsMode::Decoupled => {
                self.db
                    .put(&file_key(b'A', dir_uuid, name), &access.encode());
                self.db
                    .put(&file_key(b'C', dir_uuid, name), &content.encode());
            }
            FmsMode::Coupled => {
                self.db.put(
                    &file_key(b'F', dir_uuid, name),
                    &encode_coupled(access, content),
                );
            }
        }
    }

    /// Update selected access-part fields: in-place partial writes when
    /// decoupled; full read-modify-write when coupled. `check` runs
    /// against the loaded record before any mutation (permission gate),
    /// so the whole operation needs exactly one record read.
    fn update_access_fields(
        &mut self,
        dir_uuid: Uuid,
        name: &str,
        check: impl Fn(&FileAccess) -> FsResult<()>,
        f: impl Fn(&mut FileAccess),
    ) -> FsResult<()> {
        match self.mode {
            FmsMode::Decoupled => {
                let key = file_key(b'A', dir_uuid, name);
                let v = self.db.get(&key).ok_or(FsError::NotFound)?;
                let mut a =
                    FileAccess::decode(&v).ok_or_else(|| FsError::Io("bad access".into()))?;
                check(&a)?;
                f(&mut a);
                // One in-place write covering the changed byte span —
                // the "simple calculation" field access of §3.3.3.
                write_changed_span(&mut *self.db, &key, &v, &a.encode());
                Ok(())
            }
            FmsMode::Coupled => {
                let (mut a, c) = self.load_coupled(dir_uuid, name)?;
                check(&a)?;
                f(&mut a);
                self.store_both(dir_uuid, name, &a, &c);
                Ok(())
            }
        }
    }

    /// Update selected content-part fields (same in-place vs RMW split).
    fn update_content_fields(
        &mut self,
        dir_uuid: Uuid,
        name: &str,
        f: impl Fn(&mut FileContent),
    ) -> FsResult<()> {
        match self.mode {
            FmsMode::Decoupled => {
                let key = file_key(b'C', dir_uuid, name);
                let v = self.db.get(&key).ok_or(FsError::NotFound)?;
                let mut c =
                    FileContent::decode(&v).ok_or_else(|| FsError::Io("bad content".into()))?;
                f(&mut c);
                write_changed_span(&mut *self.db, &key, &v, &c.encode());
                Ok(())
            }
            FmsMode::Coupled => {
                let (a, mut c) = self.load_coupled(dir_uuid, name)?;
                f(&mut c);
                self.store_both(dir_uuid, name, &a, &c);
                Ok(())
            }
        }
    }

    fn create(
        &mut self,
        dir_uuid: Uuid,
        name: &str,
        mode: u32,
        uid: u32,
        gid: u32,
        ts: u64,
    ) -> FsResult<Uuid> {
        if self.exists(dir_uuid, name) {
            return Err(FsError::AlreadyExists);
        }
        let uuid = self.alloc_uuid();
        let access = FileAccess {
            ctime: ts,
            mode,
            uid,
            gid,
        };
        let content = FileContent {
            mtime: ts,
            atime: ts,
            size: 0,
            bsize: self.default_bsize,
            uuid,
        };
        self.store_both(dir_uuid, name, &access, &content);
        self.db.append(
            &dirent_key(dir_uuid),
            &encode_entry(name, uuid, DirentKind::File),
        );
        Ok(uuid)
    }

    fn remove(&mut self, dir_uuid: Uuid, name: &str) -> FsResult<Uuid> {
        let content = self.load_content(dir_uuid, name)?;
        match self.mode {
            FmsMode::Decoupled => {
                self.db.delete(&file_key(b'A', dir_uuid, name));
                self.db.delete(&file_key(b'C', dir_uuid, name));
            }
            FmsMode::Coupled => {
                self.db.delete(&file_key(b'F', dir_uuid, name));
            }
        }
        self.db
            .append(&dirent_key(dir_uuid), &encode_tombstone(name));
        Ok(content.uuid)
    }

    fn list_files(&mut self, dir_uuid: Uuid) -> DirentList {
        let list = self
            .db
            .get(&dirent_key(dir_uuid))
            .and_then(|v| DirentList::decode(&v))
            .unwrap_or_default();
        if list.tombstone_ratio() > 0.5 {
            self.db.put(&dirent_key(dir_uuid), &list.encode());
        }
        list
    }
}

impl Service for FileServer {
    type Req = FmsRequest;
    type Resp = FmsResponse;

    fn handle(&mut self, req: FmsRequest) -> FmsResponse {
        self.extra.charge(self.rpc_overhead);
        let op = Self::req_label(&req);
        // One request = one WAL commit group (see DirServer::handle).
        self.db.txn_begin();
        let resp = self.dispatch(req);
        self.db.txn_commit();
        if let Some(e) = resp_error(&resp) {
            loco_log::debug!("fms", "request failed";
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
        self.db.persist_commit_flush_begin()
    }

    fn req_label(req: &FmsRequest) -> &'static str {
        req.label()
    }

    fn tag_mutates(tag: u8) -> bool {
        FmsRequest::class_of_tag(tag).is_none_or(OpClass::mutates)
    }

    fn req_idempotent(req: &FmsRequest) -> bool {
        req.class().idempotent()
    }
}

/// The error a response carries, if any — the one choke point where
/// every failed mutation/lookup becomes a structured log event.
fn resp_error(resp: &FmsResponse) -> Option<&FsError> {
    match resp {
        FmsResponse::Created(Err(e)) => Some(e),
        FmsResponse::Opened(Err(e)) => Some(e),
        FmsResponse::Statted(Err(e)) => Some(e),
        FmsResponse::Content(Err(e)) => Some(e),
        FmsResponse::Done(Err(e)) => Some(e),
        FmsResponse::Removed(Err(e)) => Some(e),
        FmsResponse::Taken(Err(e)) => Some(e),
        _ => None,
    }
}

impl FileServer {
    fn dispatch(&mut self, req: FmsRequest) -> FmsResponse {
        match req {
            FmsRequest::Create {
                dir_uuid,
                name,
                mode,
                uid,
                gid,
                ts,
            } => FmsResponse::Created(self.create(dir_uuid, &name, mode, uid, gid, ts)),
            FmsRequest::Open {
                dir_uuid,
                name,
                uid,
                gid,
                perm,
                with_content,
            } => {
                let res = (|| {
                    let a = self.load_access(dir_uuid, &name)?;
                    if !acl::may_access(a.mode, a.uid, a.gid, uid, gid, perm) {
                        return Err(FsError::PermissionDenied);
                    }
                    let c = if with_content {
                        Some(self.load_content(dir_uuid, &name)?)
                    } else {
                        None
                    };
                    Ok((a, c))
                })();
                FmsResponse::Opened(res)
            }
            FmsRequest::Stat { dir_uuid, name } => {
                let res = (|| {
                    let a = self.load_access(dir_uuid, &name)?;
                    let c = self.load_content(dir_uuid, &name)?;
                    Ok((a, c))
                })();
                FmsResponse::Statted(res)
            }
            FmsRequest::GetContent { dir_uuid, name } => {
                FmsResponse::Content(self.load_content(dir_uuid, &name))
            }
            FmsRequest::Access {
                dir_uuid,
                name,
                uid,
                gid,
                perm,
            } => {
                let ok = self
                    .load_access(dir_uuid, &name)
                    .map(|a| acl::may_access(a.mode, a.uid, a.gid, uid, gid, perm))
                    .unwrap_or(false);
                FmsResponse::Bool(ok)
            }
            FmsRequest::Chmod {
                dir_uuid,
                name,
                uid,
                mode,
                ts,
            } => {
                let res = self.update_access_fields(
                    dir_uuid,
                    &name,
                    |a| {
                        if uid != 0 && uid != a.uid {
                            return Err(FsError::PermissionDenied);
                        }
                        Ok(())
                    },
                    |a| {
                        a.mode = mode;
                        a.ctime = ts;
                    },
                );
                FmsResponse::Done(res)
            }
            FmsRequest::Chown {
                dir_uuid,
                name,
                uid,
                new_uid,
                new_gid,
                ts,
            } => {
                let res = self.update_access_fields(
                    dir_uuid,
                    &name,
                    |a| {
                        if uid != 0 && uid != a.uid {
                            return Err(FsError::PermissionDenied);
                        }
                        Ok(())
                    },
                    |a| {
                        a.uid = new_uid;
                        a.gid = new_gid;
                        a.ctime = ts;
                    },
                );
                FmsResponse::Done(res)
            }
            FmsRequest::Utimens {
                dir_uuid,
                name,
                atime,
                mtime,
            } => FmsResponse::Done(self.update_content_fields(dir_uuid, &name, |c| {
                c.atime = atime;
                c.mtime = mtime;
            })),
            FmsRequest::SetSize {
                dir_uuid,
                name,
                size,
                ts,
            } => FmsResponse::Done(self.update_content_fields(dir_uuid, &name, |c| {
                c.size = size;
                c.mtime = ts;
            })),
            FmsRequest::Remove { dir_uuid, name } => {
                FmsResponse::Removed(self.remove(dir_uuid, &name))
            }
            FmsRequest::ListFiles { dir_uuid } => {
                let list = self.list_files(dir_uuid);
                FmsResponse::Names(
                    list.entries()
                        .iter()
                        .map(|e| (e.name.clone(), e.uuid))
                        .collect(),
                )
            }
            FmsRequest::ListFilesPlus { dir_uuid } => {
                let list = self.list_files(dir_uuid);
                let mut out = Vec::with_capacity(list.len());
                for e in list.entries() {
                    if let (Ok(a), Ok(c)) = (
                        self.load_access(dir_uuid, &e.name),
                        self.load_content(dir_uuid, &e.name),
                    ) {
                        out.push((e.name.clone(), a, c));
                    }
                }
                FmsResponse::NamesPlus(out)
            }
            FmsRequest::CountFiles { dir_uuid } => {
                FmsResponse::Count(self.list_files(dir_uuid).len())
            }
            FmsRequest::TakeFile { dir_uuid, name } => {
                let res = (|| {
                    let a = self.load_access(dir_uuid, &name)?;
                    let c = self.load_content(dir_uuid, &name)?;
                    match self.mode {
                        FmsMode::Decoupled => {
                            self.db.delete(&file_key(b'A', dir_uuid, &name));
                            self.db.delete(&file_key(b'C', dir_uuid, &name));
                        }
                        FmsMode::Coupled => {
                            self.db.delete(&file_key(b'F', dir_uuid, &name));
                        }
                    }
                    self.db
                        .append(&dirent_key(dir_uuid), &encode_tombstone(&name));
                    Ok((a, c))
                })();
                FmsResponse::Taken(res)
            }
            FmsRequest::PutFile {
                dir_uuid,
                name,
                access,
                content,
            } => {
                let res = if self.exists(dir_uuid, &name) {
                    Err(FsError::AlreadyExists)
                } else {
                    self.store_both(dir_uuid, &name, &access, &content);
                    self.db.append(
                        &dirent_key(dir_uuid),
                        &encode_entry(&name, content.uuid, DirentKind::File),
                    );
                    Ok(())
                };
                FmsResponse::Done(res)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D: Uuid = Uuid::ROOT;

    fn fms(mode: FmsMode) -> FileServer {
        FileServer::new(1, mode, KvConfig::default())
    }

    fn both_modes() -> [FileServer; 2] {
        [fms(FmsMode::Decoupled), fms(FmsMode::Coupled)]
    }

    #[test]
    fn create_stat_roundtrip_both_modes() {
        for mut s in both_modes() {
            let uuid = s.create(D, "f", 0o644, 10, 20, 5).unwrap();
            assert_eq!(uuid.sid(), 1);
            let a = s.load_access(D, "f").unwrap();
            let c = s.load_content(D, "f").unwrap();
            assert_eq!((a.mode, a.uid, a.gid, a.ctime), (0o644, 10, 20, 5));
            assert_eq!((c.size, c.uuid), (0, uuid));
            assert_eq!(c.bsize, 1 << 20);
        }
    }

    #[test]
    fn duplicate_create_fails() {
        for mut s in both_modes() {
            s.create(D, "f", 0o644, 1, 1, 0).unwrap();
            assert_eq!(
                s.create(D, "f", 0o600, 1, 1, 0),
                Err(FsError::AlreadyExists)
            );
        }
    }

    #[test]
    fn chmod_updates_mode_and_ctime_only() {
        for mut s in both_modes() {
            s.create(D, "f", 0o644, 10, 20, 5).unwrap();
            let resp = s.handle(FmsRequest::Chmod {
                dir_uuid: D,
                name: "f".into(),
                uid: 10,
                mode: 0o600,
                ts: 9,
            });
            assert!(matches!(resp, FmsResponse::Done(Ok(()))));
            let a = s.load_access(D, "f").unwrap();
            assert_eq!((a.mode, a.ctime, a.uid), (0o600, 9, 10));
            let c = s.load_content(D, "f").unwrap();
            assert_eq!(c.mtime, 5, "content part untouched by chmod");
        }
    }

    #[test]
    fn chmod_denied_for_non_owner() {
        let mut s = fms(FmsMode::Decoupled);
        s.create(D, "f", 0o644, 10, 20, 5).unwrap();
        let resp = s.handle(FmsRequest::Chmod {
            dir_uuid: D,
            name: "f".into(),
            uid: 11,
            mode: 0o777,
            ts: 9,
        });
        assert!(matches!(
            resp,
            FmsResponse::Done(Err(FsError::PermissionDenied))
        ));
        // Root may.
        let resp = s.handle(FmsRequest::Chmod {
            dir_uuid: D,
            name: "f".into(),
            uid: 0,
            mode: 0o777,
            ts: 9,
        });
        assert!(matches!(resp, FmsResponse::Done(Ok(()))));
    }

    #[test]
    fn setsize_updates_content_only() {
        for mut s in both_modes() {
            s.create(D, "f", 0o644, 10, 20, 5).unwrap();
            s.update_content_fields(D, "f", |c| {
                c.size = 4096;
                c.mtime = 11;
            })
            .unwrap();
            let c = s.load_content(D, "f").unwrap();
            assert_eq!((c.size, c.mtime), (4096, 11));
            let a = s.load_access(D, "f").unwrap();
            assert_eq!(a.ctime, 5, "access part untouched by write");
        }
    }

    #[test]
    fn remove_returns_uuid_and_clears_everything() {
        for mut s in both_modes() {
            let uuid = s.create(D, "f", 0o644, 1, 1, 0).unwrap();
            let got = s.remove(D, "f").unwrap();
            assert_eq!(got, uuid);
            assert!(s.load_access(D, "f").is_err());
            assert!(s.load_content(D, "f").is_err());
            assert_eq!(s.list_files(D).len(), 0);
            assert_eq!(s.remove(D, "f"), Err(FsError::NotFound));
        }
    }

    #[test]
    fn list_and_count_files() {
        let mut s = fms(FmsMode::Decoupled);
        for i in 0..5 {
            s.create(D, &format!("f{i}"), 0o644, 1, 1, 0).unwrap();
        }
        s.remove(D, "f2").unwrap();
        let resp = s.handle(FmsRequest::CountFiles { dir_uuid: D });
        assert!(matches!(resp, FmsResponse::Count(4)));
        let resp = s.handle(FmsRequest::ListFiles { dir_uuid: D });
        let FmsResponse::Names(names) = resp else {
            panic!()
        };
        assert_eq!(names.len(), 4);
        assert!(!names.iter().any(|(n, _)| n == "f2"));
    }

    #[test]
    fn files_in_different_directories_do_not_collide() {
        let mut s = fms(FmsMode::Decoupled);
        let d2 = Uuid::new(0, 99);
        s.create(D, "same", 0o644, 1, 1, 0).unwrap();
        s.create(d2, "same", 0o600, 2, 2, 0).unwrap();
        assert_eq!(s.load_access(D, "same").unwrap().uid, 1);
        assert_eq!(s.load_access(d2, "same").unwrap().uid, 2);
        assert_eq!(s.list_files(D).len(), 1);
    }

    #[test]
    fn open_checks_permissions() {
        let mut s = fms(FmsMode::Decoupled);
        s.create(D, "f", 0o600, 10, 20, 0).unwrap();
        let open = |s: &mut FileServer, uid, with_content| {
            s.handle(FmsRequest::Open {
                dir_uuid: D,
                name: "f".into(),
                uid,
                gid: 20,
                perm: Perm::Read,
                with_content,
            })
        };
        assert!(matches!(
            open(&mut s, 10, false),
            FmsResponse::Opened(Ok((_, None)))
        ));
        assert!(matches!(
            open(&mut s, 10, true),
            FmsResponse::Opened(Ok((_, Some(_))))
        ));
        assert!(matches!(
            open(&mut s, 99, false),
            FmsResponse::Opened(Err(FsError::PermissionDenied))
        ));
    }

    #[test]
    fn take_put_file_preserves_uuid_for_rename() {
        let mut src = fms(FmsMode::Decoupled);
        let mut dst = fms(FmsMode::Decoupled);
        let uuid = src.create(D, "old", 0o644, 1, 1, 0).unwrap();
        let FmsResponse::Taken(Ok((a, c))) = src.handle(FmsRequest::TakeFile {
            dir_uuid: D,
            name: "old".into(),
        }) else {
            panic!()
        };
        let d2 = Uuid::new(0, 5);
        let resp = dst.handle(FmsRequest::PutFile {
            dir_uuid: d2,
            name: "new".into(),
            access: a,
            content: c,
        });
        assert!(matches!(resp, FmsResponse::Done(Ok(()))));
        assert_eq!(dst.load_content(d2, "new").unwrap().uuid, uuid);
        assert!(src.load_access(D, "old").is_err());
        assert_eq!(src.list_files(D).len(), 0);
        assert_eq!(dst.list_files(d2).len(), 1);
    }

    #[test]
    fn decoupled_single_part_updates_cheaper_than_coupled() {
        // The Fig 11 mechanism, measured directly at the server.
        let mut df = fms(FmsMode::Decoupled);
        let mut cf = fms(FmsMode::Coupled);
        for s in [&mut df, &mut cf] {
            s.create(D, "f", 0o644, 10, 20, 0).unwrap();
            let _ = s.take_cost();
        }
        let chmod = |s: &mut FileServer| {
            s.handle(FmsRequest::Chmod {
                dir_uuid: D,
                name: "f".into(),
                uid: 10,
                mode: 0o600,
                ts: 1,
            });
            s.take_cost()
        };
        let (c_df, c_cf) = (chmod(&mut df), chmod(&mut cf));
        assert!(
            c_cf > c_df,
            "coupled chmod {c_cf} must cost more than decoupled {c_df}"
        );
        let setsz = |s: &mut FileServer| {
            s.handle(FmsRequest::SetSize {
                dir_uuid: D,
                name: "f".into(),
                size: 123,
                ts: 2,
            });
            s.take_cost()
        };
        let (w_df, w_cf) = (setsz(&mut df), setsz(&mut cf));
        assert!(w_cf > w_df, "coupled write {w_cf} vs decoupled {w_df}");
    }

    #[test]
    fn table1_chmod_touches_only_access_partials() {
        // Conformance against the op matrix: decoupled chmod must issue
        // partial writes on the access record and never touch content.
        let mut s = fms(FmsMode::Decoupled);
        s.create(D, "f", 0o644, 10, 20, 0).unwrap();
        s.reset_kv_stats();
        s.handle(FmsRequest::Chmod {
            dir_uuid: D,
            name: "f".into(),
            uid: 10,
            mode: 0o600,
            ts: 1,
        });
        let st = s.kv_stats();
        assert_eq!(st.gets, 1, "one access-record read");
        assert_eq!(st.partial_writes, 1, "one span poke for mode + ctime");
        assert_eq!(st.puts, 0);
        assert_eq!(st.deletes, 0);
    }

    #[test]
    fn table1_write_touches_only_content_partials() {
        let mut s = fms(FmsMode::Decoupled);
        s.create(D, "f", 0o644, 10, 20, 0).unwrap();
        s.reset_kv_stats();
        s.handle(FmsRequest::SetSize {
            dir_uuid: D,
            name: "f".into(),
            size: 77,
            ts: 1,
        });
        let st = s.kv_stats();
        assert_eq!(st.gets, 1, "one content-record read");
        assert_eq!(st.partial_writes, 1, "one span poke for size + mtime");
        assert_eq!(st.puts, 0);
    }

    #[test]
    fn table1_access_reads_single_record() {
        let mut s = fms(FmsMode::Decoupled);
        s.create(D, "f", 0o644, 10, 20, 0).unwrap();
        s.reset_kv_stats();
        let resp = s.handle(FmsRequest::Access {
            dir_uuid: D,
            name: "f".into(),
            uid: 10,
            gid: 20,
            perm: Perm::Read,
        });
        assert!(matches!(resp, FmsResponse::Bool(true)));
        let st = s.kv_stats();
        assert_eq!(st.gets, 1);
        assert_eq!(st.total(), 1);
    }
}
