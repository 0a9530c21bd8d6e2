//! Crash-point matrix: for every named fault site, under both sync
//! policies, kill a `locod chaos-apply` child mid-flight and prove the
//! recovery invariant with `locod chaos-verify`:
//!
//! * the recovered store equals the state after *some* prefix of the
//!   deterministic op stream (commit groups are atomic — no torn or
//!   phantom records survive), and
//! * that prefix is at least as long as the acknowledged prefix (no
//!   acknowledged op is ever lost).
//!
//! Faults are armed purely via `LOCO_CRASHPOINT` / `LOCO_IOFAULT`
//! (see `loco-faults`), so each case is a plain subprocess run of the
//! release binary under test — the same code path a production daemon
//! executes. A site that never fires under a given policy (e.g.
//! `wal_after_sync` with os-managed flushing) simply lets the child
//! complete; the verify invariant must hold either way.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU32, Ordering};

fn locod() -> &'static str {
    env!("CARGO_BIN_EXE_locod")
}

static CASE_SEQ: AtomicU32 = AtomicU32::new(0);

struct Scratch {
    dir: PathBuf,
    ack: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Self {
        let n = CASE_SEQ.fetch_add(1, Ordering::Relaxed);
        let base = std::env::temp_dir().join(format!(
            "loco-crash-matrix-{}-{n}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        Self {
            dir: base.join("store"),
            ack: base.join("acked"),
        }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if let Some(base) = self.dir.parent() {
            let _ = std::fs::remove_dir_all(base);
        }
    }
}

const OPS: &str = "200";
const CHECKPOINT_EVERY: &str = "25";

/// Run one apply-crash-verify cycle with the given fault env var;
/// returns the apply phase's output.
fn run_case(policy: &str, env_key: &str, env_val: &str) -> std::process::Output {
    let tag = format!("{policy}-{}", env_val.replace(['=', ':'], "_"));
    let s = Scratch::new(&tag);
    let apply = Command::new(locod())
        .args([
            "chaos-apply",
            "--data-dir",
            s.dir.to_str().unwrap(),
            "--ops",
            OPS,
            "--sync-policy",
            policy,
            "--checkpoint-every",
            CHECKPOINT_EVERY,
            "--ack-file",
            s.ack.to_str().unwrap(),
        ])
        .env_remove("LOCO_CRASHPOINT")
        .env_remove("LOCO_IOFAULT")
        .env(env_key, env_val)
        .output()
        .expect("spawn chaos-apply");
    let stderr = String::from_utf8_lossy(&apply.stderr);
    assert!(
        !stderr.contains("panicked"),
        "[{tag}] chaos-apply panicked (must abort or fail cleanly):\n{stderr}"
    );
    if !apply.status.success() {
        // The child died — it must have been our armed fault, loudly.
        assert!(
            stderr.contains("loco-faults") || stderr.contains("FATAL wal"),
            "[{tag}] child failed for an unexpected reason:\n{stderr}"
        );
    }

    // Recovery runs with nothing armed: replay must be clean and the
    // recovered state must match an acked-or-longer prefix.
    let verify = Command::new(locod())
        .args([
            "chaos-verify",
            "--data-dir",
            s.dir.to_str().unwrap(),
            "--ops",
            OPS,
            "--ack-file",
            s.ack.to_str().unwrap(),
        ])
        .env_remove("LOCO_CRASHPOINT")
        .env_remove("LOCO_IOFAULT")
        .output()
        .expect("spawn chaos-verify");
    assert!(
        verify.status.success(),
        "[{tag}] RECOVERY INVARIANT VIOLATED\napply stderr:\n{stderr}\nverify stdout:\n{}\nverify stderr:\n{}",
        String::from_utf8_lossy(&verify.stdout),
        String::from_utf8_lossy(&verify.stderr),
    );
    apply
}

const POLICIES: [&str; 2] = ["os-managed", "every-record"];

/// Crash points on the WAL commit path. Hit counts land mid-stream so
/// some ops are already acked and checkpoints have happened.
#[test]
fn crash_matrix_wal_sites() {
    for policy in POLICIES {
        // Before the group is written: the op was never acked.
        run_case(policy, "LOCO_CRASHPOINT", "wal_pre_commit:57");
        // After write+flush, before fsync/ack: op durable but unacked.
        run_case(policy, "LOCO_CRASHPOINT", "wal_after_append:101");
        // After fsync (fires only under every-record).
        run_case(policy, "LOCO_CRASHPOINT", "wal_after_sync:33");
    }
}

/// Crash points bracketing every step of the checkpoint protocol:
/// snapshot tmp write, rename, WAL truncation.
#[test]
fn crash_matrix_checkpoint_sites() {
    for policy in POLICIES {
        run_case(policy, "LOCO_CRASHPOINT", "checkpoint_pre_write:2");
        run_case(policy, "LOCO_CRASHPOINT", "checkpoint_pre_rename:3");
        run_case(policy, "LOCO_CRASHPOINT", "checkpoint_post_rename:3");
        run_case(policy, "LOCO_CRASHPOINT", "checkpoint_post_truncate:4");
    }
}

/// Injected I/O failures: write errors abort before the ack
/// (fsyncgate discipline — never ack what the log did not take), and
/// torn writes crash mid-write leaving a prefix on disk.
#[test]
fn crash_matrix_io_faults() {
    for policy in POLICIES {
        run_case(policy, "LOCO_IOFAULT", "wal_write=err:44");
        run_case(policy, "LOCO_IOFAULT", "wal_fsync=err:78");
        run_case(policy, "LOCO_IOFAULT", "wal_commit=short:90");
        run_case(policy, "LOCO_IOFAULT", "checkpoint_write=err:2");
        run_case(policy, "LOCO_IOFAULT", "checkpoint_write=short:3");
        // The second checkpoint's directory fsync fails after its
        // rename: fatal before the log rotates, never swallowed.
        let apply = run_case(policy, "LOCO_IOFAULT", "dir_sync=err:2");
        let stderr = String::from_utf8_lossy(&apply.stderr);
        assert!(
            !apply.status.success() && stderr.contains("FATAL wal"),
            "[{policy}] a failed directory fsync must abort the apply:\n{stderr}"
        );
    }
}

/// Kill the daemon child on drop so a failing assertion never leaks a
/// listening process into later tests.
struct DaemonGuard(std::process::Child);

impl Drop for DaemonGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// One group-committer crash case, driven through a real `locod serve`
/// daemon: concurrent TCP clients issue durable writes, the armed
/// crash point aborts the committer thread mid-batch, and an offline
/// reopen of the data dir must recover every *acknowledged* write and
/// nothing that was never issued. This is the batched generalization
/// of recovered-state-equals-acked-prefix: with many connections there
/// is no single op order, so the invariant is acked ⊆ recovered ⊆
/// issued, per-record.
fn run_daemon_committer_case(site: &str) {
    use locofs::kv::{DurableStore, HashDb, KvConfig};
    use locofs::net::tcp::{RetryPolicy, TcpEndpoint};
    use locofs::net::{class, CallCtx, Endpoint, ServerId, Service};
    use locofs::ostore::{ObjectStore, OstoreRequest, OstoreResponse};
    use locofs::types::Uuid;
    use std::collections::HashSet;
    use std::io::BufRead;
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    const THREADS: u64 = 8;
    const OPS_PER_THREAD: u64 = 40;
    let s = Scratch::new(&format!("daemon-{}", site.replace(':', "_")));

    let mut child = DaemonGuard(
        Command::new(locod())
            .args([
                "serve",
                "--role",
                "ost",
                "--index",
                "0",
                "--listen",
                "127.0.0.1:0",
                "--data-dir",
                s.dir.to_str().unwrap(),
                "--sync-policy",
                "every-record",
            ])
            .env_remove("LOCO_IOFAULT")
            .env("LOCO_CRASHPOINT", site)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn locod serve"),
    );
    // The daemon line-buffers its banner; the bound port is in it.
    // Keep the stdout pipe alive for the daemon's whole life — closing
    // it would kill the daemon on its next print.
    let mut banner = std::io::BufReader::new(child.0.stdout.take().expect("child stdout"));
    let addr = loop {
        let mut line = String::new();
        let n = banner.read_line(&mut line).expect("read daemon banner");
        assert!(n > 0, "[{site}] daemon exited before announcing its port");
        if let Some(rest) = line.split("listening on ").nth(1) {
            break rest.trim().to_string();
        }
    };

    let acked: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));
    let one_shot = RetryPolicy {
        attempts: 1,
        backoff: Duration::from_millis(1),
        deadline: Duration::from_secs(2),
        connect_timeout: Duration::from_secs(2),
        reconnect_window: Duration::ZERO,
        retry_budget: 0,
        breaker_threshold: 0,
        breaker_cooldown: Duration::from_millis(100),
    };
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let addr = addr.clone();
        let acked = Arc::clone(&acked);
        let policy = one_shot;
        handles.push(std::thread::spawn(move || {
            let ep = TcpEndpoint::<ObjectStore>::with_policy(
                ServerId::new(class::OST, 0),
                &addr,
                policy,
            );
            let mut ctx = CallCtx::new();
            for i in 0..OPS_PER_THREAD {
                let id = t * 1000 + i;
                let r = ep.try_call(
                    &mut ctx,
                    OstoreRequest::WriteBlock {
                        uuid: Uuid::new(7, id),
                        blk: 0,
                        data: vec![id as u8; 32],
                    },
                );
                match r {
                    Ok(OstoreResponse::Done(Ok(()))) => {
                        acked.lock().unwrap().insert(id);
                    }
                    // The daemon aborted mid-batch (or the write raced
                    // the abort): the op was simply never acked.
                    _ => break,
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    // The armed site must actually have fired: the daemon aborts.
    let deadline = Instant::now() + Duration::from_secs(15);
    let status = loop {
        if let Some(st) = child.0.try_wait().expect("try_wait daemon") {
            break st;
        }
        assert!(
            Instant::now() < deadline,
            "[{site}] daemon survived {THREADS}x{OPS_PER_THREAD} durable \
             writes — the committer crash point never fired"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(!status.success(), "[{site}] daemon must die at the site");

    // Offline recovery over the daemon's data dir (same composition as
    // locod's ost role: HashDb inner under ROOT/ost0/).
    let acked = acked.lock().unwrap();
    let db = DurableStore::open(s.dir.join("ost0"), HashDb::new(KvConfig::default()))
        .expect("recover daemon store");
    let mut ost = ObjectStore::with_store(Box::new(db));
    for &id in acked.iter() {
        match ost.handle(OstoreRequest::ReadBlock {
            uuid: Uuid::new(7, id),
            blk: 0,
        }) {
            OstoreResponse::Block(Ok(data)) => assert_eq!(
                data,
                vec![id as u8; 32],
                "[{site}] acked write {id} recovered with wrong bytes"
            ),
            other => panic!("[{site}] ACKED WRITE {id} LOST ACROSS CRASH: {other:?}"),
        }
    }
    // No phantoms: ids that were never issued must not exist.
    for id in [THREADS * 1000, 999_999] {
        let r = ost.handle(OstoreRequest::ReadBlock {
            uuid: Uuid::new(7, id),
            blk: 0,
        });
        assert!(
            matches!(r, OstoreResponse::Block(Err(_))),
            "[{site}] phantom block {id} appeared after recovery: {r:?}"
        );
    }
    assert!(
        !acked.is_empty(),
        "[{site}] nothing was acked before the crash — the case \
         exercised no batch at all"
    );
}

/// Crash points inside the cross-connection group committer, through a
/// real daemon under `--sync-policy every-record`:
/// * `group_commit_pre_sync` — a batch dies before its fsync: none of
///   its records were acked, earlier batches stay recovered;
/// * `group_commit_post_sync` — the batch is durable but its acks may
///   never have left: recovery may be a superset of acked, never less.
#[test]
fn crash_matrix_group_committer_sites() {
    // Hit count 25: clients issue sequentially, so at most 8 records
    // share a batch — 320 ops force ≥40 committer drains. 25 therefore
    // always fires, after ~24 acked batches of history.
    run_daemon_committer_case("group_commit_pre_sync:25");
    run_daemon_committer_case("group_commit_post_sync:25");
}

/// Recovery must be idempotent: after a torn-tail crash, the first
/// open truncates the torn bytes and replays; a second open over the
/// result must see exactly the same state. (This is the double-crash
/// scenario — dying again right after recovery must lose nothing.)
#[test]
fn crash_matrix_recovery_is_idempotent() {
    let s = Scratch::new("idempotent");
    let apply = Command::new(locod())
        .args([
            "chaos-apply",
            "--data-dir",
            s.dir.to_str().unwrap(),
            "--ops",
            OPS,
            "--sync-policy",
            "os-managed",
            "--checkpoint-every",
            CHECKPOINT_EVERY,
            "--ack-file",
            s.ack.to_str().unwrap(),
        ])
        .env_remove("LOCO_CRASHPOINT")
        .env("LOCO_IOFAULT", "wal_commit=short:90")
        .output()
        .expect("spawn chaos-apply");
    assert!(!apply.status.success(), "torn write must crash the child");
    for round in 1..=2 {
        let verify = Command::new(locod())
            .args([
                "chaos-verify",
                "--data-dir",
                s.dir.to_str().unwrap(),
                "--ops",
                OPS,
                "--ack-file",
                s.ack.to_str().unwrap(),
            ])
            .env_remove("LOCO_CRASHPOINT")
            .env_remove("LOCO_IOFAULT")
            .output()
            .expect("spawn chaos-verify");
        assert!(
            verify.status.success(),
            "recovery round {round} violated the invariant:\n{}\n{}",
            String::from_utf8_lossy(&verify.stdout),
            String::from_utf8_lossy(&verify.stderr),
        );
    }
}
