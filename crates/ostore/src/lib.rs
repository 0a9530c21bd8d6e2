#![warn(missing_docs)]
//! # loco-ostore — the object store holding file data blocks
//!
//! LocoFS addresses data blocks directly by `uuid + blk_num` (§3.3.2):
//! the block number is `offset / block_size`, so no per-file block index
//! exists anywhere. This crate implements that store.
//!
//! Because data-path RPCs move real payloads (unlike metadata RPCs), the
//! service charges a per-byte network transfer cost on top of device
//! costs — that is what makes large-I/O latency converge across file
//! systems in the paper's Fig 12 while small-I/O latency stays
//! metadata-dominated.

use loco_kv::{HashDb, KvConfig, KvStore};
use loco_net::{Nanos, Service};
use loco_sim::time::CostAcc;
use loco_types::{FsError, FsResult, OpClass, Uuid};

/// Requests handled by an object-store server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OstoreRequest {
    /// Write one block (full or partial-from-zero; LocoFS clients chunk
    /// writes on block boundaries).
    WriteBlock {
        /// Object uuid (`sid` + `fid`).
        uuid: Uuid,
        /// Block number (`offset / block_size`).
        blk: u64,
        /// Payload bytes.
        data: Vec<u8>,
    },
    /// Read one block.
    ReadBlock {
        /// Object uuid.
        uuid: Uuid,
        /// Block number (`offset / block_size`).
        blk: u64,
    },
    /// Drop all blocks with `blk >= keep_blocks` (truncate) — the
    /// client computes `keep_blocks` from the new size.
    /// Drop all blocks numbered `>= keep_blocks`.
    TruncateBlocks {
        /// Object uuid.
        uuid: Uuid,
        /// Number of leading blocks to retain.
        keep_blocks: u64,
    },
    /// Drop every block of the object (unlink GC).
    RemoveObject {
        /// Object uuid.
        uuid: Uuid,
    },
}

/// Object-store responses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OstoreResponse {
    /// Unit result of a mutation.
    Done(FsResult<()>),
    /// Block payload result.
    Block(FsResult<Vec<u8>>),
    /// Number of blocks removed.
    Removed(usize),
}

// The OST op table and wire codec: tag, variant (the request's label)
// and class per request. Tags are protocol: append-only.
loco_types::impl_wire_enum!(OstoreRequest, "ostore-request", {
    0 => WriteBlock { uuid, blk, data }: Set,
    1 => ReadBlock { uuid, blk }: Read,
    2 => TruncateBlocks { uuid, keep_blocks }: Set,
    3 => RemoveObject { uuid }: Set,
});

loco_types::impl_wire_enum!(OstoreResponse, "ostore-response", tuple {
    0 => Done(r),
    1 => Block(r),
    2 => Removed(r),
});

/// An object-store server: blocks keyed `uuid (8B BE) ‖ blk (8B BE)`.
pub struct ObjectStore {
    db: Box<dyn KvStore>,
    /// Software-vs-KV split of the last request (span attribution).
    split: loco_kv::SpanSplit,
    extra: CostAcc,
    /// Per-byte network transfer cost for payload bytes (≈1 GbE:
    /// 1 ns/byte ≈ 125 MB/s each way).
    pub net_byte: Nanos,
    rpc_overhead: Nanos,
    /// Blocks per object are tracked to make truncate/remove O(blocks).
    max_blk: std::collections::HashMap<u64, u64>,
}

impl ObjectStore {
    /// Create a new instance with default settings.
    pub fn new(cfg: KvConfig) -> Self {
        Self::with_store(Box::new(HashDb::new(cfg)))
    }

    /// Create an object store over a caller-supplied store — e.g. a
    /// `loco_kv::DurableStore` for on-disk persistence. The per-object
    /// block-count index is rebuilt from the recovered keys (it is
    /// derived state, never logged).
    pub fn with_store(mut db: Box<dyn KvStore>) -> Self {
        let mut max_blk = std::collections::HashMap::new();
        if !db.is_empty() {
            for (k, _) in db.scan_prefix(b"") {
                if k.len() != 16 {
                    continue;
                }
                let raw = u64::from_be_bytes(k[0..8].try_into().unwrap());
                let blk = u64::from_be_bytes(k[8..16].try_into().unwrap());
                let e = max_blk.entry(raw).or_insert(0u64);
                *e = (*e).max(blk + 1);
            }
        }
        db.take_cost(); // setup/recovery is free
        Self {
            db,
            split: loco_kv::SpanSplit::default(),
            extra: CostAcc::new(),
            net_byte: 8,
            rpc_overhead: loco_sim::CostModel::default().rpc_handler,
            max_blk,
        }
    }

    /// Number of stored blocks across all objects.
    pub fn block_count(&self) -> usize {
        self.db.len()
    }

    fn write_block(&mut self, uuid: Uuid, blk: u64, data: Vec<u8>) -> FsResult<()> {
        self.extra.charge(data.len() as Nanos * self.net_byte);
        self.db.put(&uuid.block_key(blk), &data);
        let e = self.max_blk.entry(uuid.raw()).or_insert(0);
        *e = (*e).max(blk + 1);
        Ok(())
    }

    fn read_block(&mut self, uuid: Uuid, blk: u64) -> FsResult<Vec<u8>> {
        let data = self.db.get(&uuid.block_key(blk)).ok_or(FsError::NotFound)?;
        self.extra.charge(data.len() as Nanos * self.net_byte);
        Ok(data)
    }

    fn truncate(&mut self, uuid: Uuid, keep_blocks: u64) -> usize {
        let Some(&max) = self.max_blk.get(&uuid.raw()) else {
            return 0;
        };
        let mut removed = 0;
        for blk in keep_blocks..max {
            if self.db.delete(&uuid.block_key(blk)) {
                removed += 1;
            }
        }
        if keep_blocks == 0 {
            self.max_blk.remove(&uuid.raw());
        } else {
            self.max_blk.insert(uuid.raw(), keep_blocks.min(max));
        }
        removed
    }
}

impl Service for ObjectStore {
    type Req = OstoreRequest;
    type Resp = OstoreResponse;

    fn handle(&mut self, req: OstoreRequest) -> OstoreResponse {
        self.extra.charge(self.rpc_overhead);
        // One request = one WAL commit group (truncate/remove delete
        // many blocks; a crash must not leave half of them).
        self.db.txn_begin();
        let resp = match req {
            OstoreRequest::WriteBlock { uuid, blk, data } => {
                OstoreResponse::Done(self.write_block(uuid, blk, data))
            }
            OstoreRequest::ReadBlock { uuid, blk } => {
                OstoreResponse::Block(self.read_block(uuid, blk))
            }
            OstoreRequest::TruncateBlocks { uuid, keep_blocks } => {
                OstoreResponse::Removed(self.truncate(uuid, keep_blocks))
            }
            OstoreRequest::RemoveObject { uuid } => OstoreResponse::Removed(self.truncate(uuid, 0)),
        };
        self.db.txn_commit();
        match &resp {
            OstoreResponse::Done(Err(e)) | OstoreResponse::Block(Err(e)) => {
                loco_log::debug!("ostore", "request failed";
                    error = format_args!("{e}"));
            }
            _ => {}
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

    fn commit_flush(&mut self) -> u64 {
        self.db.persist_commit_flush()
    }

    fn commit_flush_begin(&mut self) -> Option<(u64, loco_net::CommitFsync)> {
        self.db.persist_commit_flush_begin()
    }

    fn req_label(req: &OstoreRequest) -> &'static str {
        req.label()
    }

    fn tag_mutates(tag: u8) -> bool {
        OstoreRequest::class_of_tag(tag).is_none_or(OpClass::mutates)
    }

    fn req_idempotent(req: &OstoreRequest) -> bool {
        req.class().idempotent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> ObjectStore {
        ObjectStore::new(KvConfig::default())
    }

    fn u(n: u64) -> Uuid {
        Uuid::new(0, n)
    }

    #[test]
    fn write_read_roundtrip() {
        let mut s = store();
        s.write_block(u(1), 0, vec![1, 2, 3]).unwrap();
        s.write_block(u(1), 1, vec![4, 5]).unwrap();
        assert_eq!(s.read_block(u(1), 0).unwrap(), vec![1, 2, 3]);
        assert_eq!(s.read_block(u(1), 1).unwrap(), vec![4, 5]);
        assert_eq!(s.read_block(u(1), 2), Err(FsError::NotFound));
        assert_eq!(s.read_block(u(2), 0), Err(FsError::NotFound));
    }

    #[test]
    fn objects_are_isolated_by_uuid() {
        let mut s = store();
        s.write_block(u(1), 0, vec![1]).unwrap();
        s.write_block(u(2), 0, vec![2]).unwrap();
        assert_eq!(s.read_block(u(1), 0).unwrap(), vec![1]);
        assert_eq!(s.read_block(u(2), 0).unwrap(), vec![2]);
        assert_eq!(s.block_count(), 2);
    }

    #[test]
    fn truncate_drops_tail_blocks() {
        let mut s = store();
        for blk in 0..8 {
            s.write_block(u(1), blk, vec![blk as u8]).unwrap();
        }
        assert_eq!(s.truncate(u(1), 3), 5);
        assert!(s.read_block(u(1), 2).is_ok());
        assert_eq!(s.read_block(u(1), 3), Err(FsError::NotFound));
        assert_eq!(s.block_count(), 3);
        // Truncate is idempotent.
        assert_eq!(s.truncate(u(1), 3), 0);
    }

    #[test]
    fn remove_object_frees_all_blocks() {
        let mut s = store();
        for blk in 0..4 {
            s.write_block(u(7), blk, vec![0u8; 64]).unwrap();
        }
        let resp = s.handle(OstoreRequest::RemoveObject { uuid: u(7) });
        assert!(matches!(resp, OstoreResponse::Removed(4)));
        assert_eq!(s.block_count(), 0);
        // Removing again is a no-op.
        let resp = s.handle(OstoreRequest::RemoveObject { uuid: u(7) });
        assert!(matches!(resp, OstoreResponse::Removed(0)));
    }

    #[test]
    fn transfer_cost_scales_with_payload() {
        let mut s = store();
        s.write_block(u(1), 0, vec![0u8; 512]).unwrap();
        let small = s.take_cost();
        s.write_block(u(1), 1, vec![0u8; 1 << 20]).unwrap();
        let large = s.take_cost();
        assert!(
            large > 100 * small,
            "1 MiB write ({large}) must dwarf 512 B write ({small})"
        );
    }

    #[test]
    fn rewrite_same_block_replaces() {
        let mut s = store();
        s.write_block(u(1), 0, vec![1; 8]).unwrap();
        s.write_block(u(1), 0, vec![2; 4]).unwrap();
        assert_eq!(s.read_block(u(1), 0).unwrap(), vec![2; 4]);
        assert_eq!(s.block_count(), 1);
    }
}
