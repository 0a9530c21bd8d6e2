//! End-to-end durability: a DMS running on a write-ahead-logged store
//! survives process "crashes" (drop without checkpoint) with its
//! namespace intact, recovered purely from disk.

use locofs::dms::{DirServer, DmsRequest, DmsResponse};
use locofs::kv::{BTreeDb, DurableStore, KvConfig};
use locofs::net::Service;
use std::path::PathBuf;

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("loco-durable-dms-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn open_dms(dir: &PathBuf) -> DirServer {
    let store = DurableStore::open(dir, BTreeDb::new(KvConfig::default())).unwrap();
    DirServer::with_store(Box::new(store), 0)
}

fn mkdir(dms: &mut DirServer, path: &str) {
    let resp = dms.handle(DmsRequest::Mkdir {
        path: path.into(),
        mode: 0o755,
        uid: 1,
        gid: 1,
        ts: 0,
    });
    assert!(matches!(resp, DmsResponse::Done(Ok(_))), "{resp:?}");
}

#[test]
fn namespace_survives_crash_and_reopen() {
    let scratch = Scratch::new("crash");
    {
        let mut dms = open_dms(&scratch.0);
        mkdir(&mut dms, "/projects");
        mkdir(&mut dms, "/projects/alpha");
        mkdir(&mut dms, "/projects/beta");
        dms.handle(DmsRequest::RenameDir {
            old_path: "/projects/beta".into(),
            new_path: "/projects/gamma".into(),
            uid: 1,
            gid: 1,
            ts: 2,
        });
        // "Crash": drop without any explicit checkpoint or sync — the
        // OsManaged policy still leaves records in the OS cache, since
        // each commit group is written to the OS unbuffered; to be
        // strict we only rely on what a reopen actually finds.
    }
    let mut dms = open_dms(&scratch.0);
    assert!(dms.lookup("/projects/alpha").is_some());
    assert!(dms.lookup("/projects/gamma").is_some());
    assert!(dms.lookup("/projects/beta").is_none());
    // Keep mutating after recovery and recover again.
    mkdir(&mut dms, "/projects/alpha/run1");
    drop(dms);
    let mut dms = open_dms(&scratch.0);
    assert!(dms.lookup("/projects/alpha/run1").is_some());
}

#[test]
fn uuid_continuity_across_restarts_via_watermark() {
    // A durable DirServer persists a uuid watermark alongside the
    // namespace (the watermark write rides in the same WAL commit
    // group as the allocation), so a crash-and-reopen resumes
    // allocation past every uuid it ever handed out — no snapshot
    // image required.
    let scratch = Scratch::new("uuid");
    let before = {
        let mut dms = open_dms(&scratch.0);
        mkdir(&mut dms, "/a");
        dms.lookup("/a").unwrap().uuid
        // crash: drop without checkpoint
    };
    let mut dms = open_dms(&scratch.0);
    mkdir(&mut dms, "/b");
    let after = dms.lookup("/b").unwrap().uuid;
    assert_ne!(
        before, after,
        "reopened allocator must not reissue a uuid that may name live state"
    );

    // The snapshot path preserves the allocator too.
    let image = dms.snapshot();
    let mut restored =
        DirServer::restore(locofs::dms::DmsBackend::BTree, KvConfig::default(), &image).unwrap();
    mkdir(&mut restored, "/c");
    let newest = restored.lookup("/c").unwrap().uuid;
    assert_ne!(newest, before);
    assert_ne!(
        newest, after,
        "snapshot restore resumed past persisted uuids"
    );
}
