//! End-to-end DMS warm-standby failover over real `locod` daemons:
//! SIGKILL the primary mid-workload, promote a standby, and prove
//! every *acknowledged* mutation survived and the promote completed in
//! under a second. Also covers split-brain fencing (a stale primary
//! can never ack a post-promotion mutation), standby cold-restart
//! catch-up through the snapshot path, and a chaos loop of repeated
//! kill → promote → rejoin rounds.
//!
//! The last three cases pin the one ack path: a primary whose only
//! peer never acks must ack nothing, whatever way a reply might have
//! left without the group committer's quorum wait (an `os-managed`
//! boot, a group-commit off switch in the environment, a write that
//! arrives during the drain).
//!
//! Quorum shape matters: with `--repl-ack one` a primary can only ack
//! while at least one standby is alive, so the failover scenarios run
//! the CI topology (1 primary + 2 standbys, full mesh) — after losing
//! any single node the survivor pair still forms an ack quorum.

use locofs::dms::{DirServer, DmsRequest, DmsResponse};
use locofs::net::frame::{encode_frame, read_frame, FrameKind};
use locofs::net::tcp::{RetryPolicy, TcpEndpoint};
use locofs::net::{
    class, control, CallCtx, Control, ControlReply, Endpoint, RpcError, RpcRequest, ServerId,
};
use locofs::repl::Role;
use locofs::types::wire::Wire;
use std::io::Write;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

fn locod() -> &'static str {
    env!("CARGO_BIN_EXE_locod")
}

static SEQ: AtomicU32 = AtomicU32::new(0);

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let p = std::env::temp_dir().join(format!(
            "loco-repl-failover-{}-{n}-{tag}",
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

fn free_port() -> u16 {
    std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port()
}

/// A spawned `locod serve` child, SIGKILLed on drop so a failed
/// assertion never leaks a daemon.
struct Daemon(Child);

impl Daemon {
    fn kill(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Spawn one replicated DMS. `standby_of = Some(primary_addr)` boots
/// the node as a standby; `None` boots it as the primary. `peers` is
/// the comma-joined list this node ships to once it is primary.
fn spawn_dms(
    addr: &str,
    data_dir: &Path,
    index: u16,
    standby_of: Option<&str>,
    peers: &str,
    ack: &str,
    extra_env: &[(&str, &str)],
) -> Daemon {
    let mut cmd = Command::new(locod());
    cmd.args([
        "serve",
        "--role",
        "dms",
        "--index",
        &index.to_string(),
        "--listen",
        addr,
        "--data-dir",
        data_dir.to_str().unwrap(),
        "--sync-policy",
        "every-record",
        "--replicate-to",
        peers,
        "--repl-ack",
        ack,
        "--repl-lease-ms",
        "200",
    ]);
    if let Some(primary) = standby_of {
        cmd.args(["--standby-of", primary]);
    }
    cmd.env_remove("LOCO_CRASHPOINT")
        .env_remove("LOCO_IOFAULT")
        .env_remove("LOCO_REPL_AUTO_PROMOTE")
        .env_remove("LOCO_REPL_RING_BYTES")
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    for (k, v) in extra_env {
        cmd.env(k, v);
    }
    Daemon(cmd.spawn().expect("spawn locod serve"))
}

fn wait_ping(addr: &str) {
    let start = Instant::now();
    loop {
        if let Ok(ControlReply::Pong) = control(addr, Control::Ping, Duration::from_millis(500)) {
            return;
        }
        assert!(
            start.elapsed() < Duration::from_secs(15),
            "daemon at {addr} never answered a ping"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// One attempt, short deadline: "acked" means exactly one reply frame
/// arrived — no retry ambiguity about which mutations count.
fn one_shot(addr: &str) -> TcpEndpoint<DirServer> {
    one_shot_within(addr, Duration::from_secs(5))
}

fn one_shot_within(addr: &str, deadline: Duration) -> TcpEndpoint<DirServer> {
    TcpEndpoint::with_policy(
        ServerId::new(class::DMS, 0),
        addr,
        RetryPolicy {
            attempts: 1,
            backoff: Duration::from_millis(10),
            deadline,
            connect_timeout: Duration::from_secs(2),
            reconnect_window: Duration::ZERO,
            retry_budget: 0,
            breaker_threshold: 0,
            breaker_cooldown: Duration::from_millis(100),
        },
    )
}

fn mkdir(ep: &TcpEndpoint<DirServer>, path: &str) -> Result<(), RpcError> {
    match ep.try_call(
        &mut CallCtx::new(),
        DmsRequest::Mkdir {
            path: path.into(),
            mode: 0o755,
            uid: 0,
            gid: 0,
            ts: 1,
        },
    )? {
        DmsResponse::Done(Ok(_)) => Ok(()),
        other => panic!("unexpected mkdir response: {other:?}"),
    }
}

fn dir_exists(ep: &TcpEndpoint<DirServer>, path: &str) -> bool {
    matches!(
        ep.try_call(
            &mut CallCtx::new(),
            DmsRequest::GetDir { path: path.into() }
        ),
        Ok(DmsResponse::Dir(Ok(_)))
    )
}

/// (role, epoch, next_seq) from `ReplStatus` — answered by every role,
/// never fenced.
fn repl_status(ep: &TcpEndpoint<DirServer>) -> (u8, u64, u64) {
    match ep
        .try_call(&mut CallCtx::new(), DmsRequest::ReplStatus {})
        .expect("ReplStatus rpc")
    {
        DmsResponse::Repl(info) => (info.role, info.epoch, info.next_seq),
        other => panic!("unexpected ReplStatus response: {other:?}"),
    }
}

/// Promote the node behind `ep`, returning (epoch, elapsed).
fn promote(ep: &TcpEndpoint<DirServer>) -> (u64, Duration) {
    let start = Instant::now();
    match ep
        .try_call(&mut CallCtx::new(), DmsRequest::Promote {})
        .expect("Promote rpc")
    {
        DmsResponse::Repl(info) => {
            assert!(info.ok, "promote must succeed");
            assert_eq!(info.role, Role::Primary.as_u8());
            (info.epoch, start.elapsed())
        }
        other => panic!("unexpected Promote response: {other:?}"),
    }
}

/// Poll until the node no longer claims the primary role (fencing /
/// step-down propagates via heartbeats, not synchronously).
fn wait_not_primary(ep: &TcpEndpoint<DirServer>, why: &str) -> u8 {
    let start = Instant::now();
    loop {
        let (r, _, _) = repl_status(ep);
        if r != Role::Primary.as_u8() {
            return r;
        }
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "{why}: node still claims primary"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Poll until the node's applied WAL reaches `target_seq` at `epoch`.
fn wait_caught_up(ep: &TcpEndpoint<DirServer>, epoch: u64, target_seq: u64, why: &str) {
    let start = Instant::now();
    loop {
        let (_, e, next_seq) = repl_status(ep);
        if e >= epoch && next_seq >= target_seq {
            return;
        }
        assert!(
            start.elapsed() < Duration::from_secs(15),
            "{why}: standby stuck at epoch {e} seq {next_seq}, want {epoch}/{target_seq}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// The CI failover topology: three DMS replicas in a full replication
/// mesh. Node 0 boots as the primary, 1 and 2 as its standbys.
struct Trio {
    addrs: [String; 3],
    scratch: [Scratch; 3],
    daemons: [Option<Daemon>; 3],
    ack: &'static str,
}

impl Trio {
    fn boot(tag: &str, ack: &'static str) -> Self {
        let addrs = [
            format!("127.0.0.1:{}", free_port()),
            format!("127.0.0.1:{}", free_port()),
            format!("127.0.0.1:{}", free_port()),
        ];
        let scratch = [
            Scratch::new(&format!("{tag}-0")),
            Scratch::new(&format!("{tag}-1")),
            Scratch::new(&format!("{tag}-2")),
        ];
        let mut trio = Trio {
            addrs,
            scratch,
            daemons: [None, None, None],
            ack,
        };
        trio.daemons[0] = Some(trio.spawn(0, None));
        trio.daemons[1] = Some(trio.spawn(1, Some(0)));
        trio.daemons[2] = Some(trio.spawn(2, Some(0)));
        for a in &trio.addrs {
            wait_ping(a);
        }
        trio
    }

    /// Comma-joined addresses of every node except `index`.
    fn peers(&self, index: usize) -> String {
        let mut out = Vec::new();
        for (i, a) in self.addrs.iter().enumerate() {
            if i != index {
                out.push(a.clone());
            }
        }
        out.join(",")
    }

    fn spawn(&self, index: usize, standby_of: Option<usize>) -> Daemon {
        spawn_dms(
            &self.addrs[index],
            &self.scratch[index].0,
            index as u16,
            standby_of.map(|p| self.addrs[p].as_str()),
            &self.peers(index),
            self.ack,
            &[],
        )
    }

    fn kill(&mut self, index: usize) {
        if let Some(mut d) = self.daemons[index].take() {
            d.kill();
        }
    }

    /// Of the two survivors of `dead`, the one a zero-loss failover
    /// must promote: with ack=one only the furthest-ahead standby is
    /// guaranteed to hold every acked commit group.
    fn most_caught_up_survivor(&self, dead: usize) -> usize {
        (0..3)
            .filter(|&i| i != dead)
            .max_by_key(|&i| repl_status(&one_shot(&self.addrs[i])).2)
            .unwrap()
    }
}

#[test]
fn sigkill_primary_mid_workload_promote_loses_no_acked_mutation() {
    let mut trio = Trio::boot("kill", "one");

    // Workload thread: mkdirs against the primary until the kill cuts
    // it off. Every Ok(()) is an ack the cluster must never lose.
    let workload_addr = trio.addrs[0].clone();
    let worker = std::thread::spawn(move || {
        let ep = one_shot(&workload_addr);
        let mut acked = Vec::new();
        for i in 0..5000 {
            let path = format!("/w{i}");
            match mkdir(&ep, &path) {
                Ok(()) => acked.push(path),
                Err(_) => break,
            }
        }
        acked
    });

    // Let some mutations land, then SIGKILL the primary mid-stream.
    std::thread::sleep(Duration::from_millis(300));
    trio.kill(0);
    let acked = worker.join().unwrap();
    assert!(
        acked.len() >= 3,
        "workload never got going before the kill ({} acks)",
        acked.len()
    );

    // Operator failover: promote the furthest-ahead standby.
    // Sub-second promote is the headline number of the design.
    let target = trio.most_caught_up_survivor(0);
    let ep = one_shot(&trio.addrs[target]);
    let (epoch, took) = promote(&ep);
    assert_eq!(epoch, 2, "first promotion bumps the fencing epoch to 2");
    assert!(
        took < Duration::from_secs(1),
        "promote must complete sub-second, took {took:?}"
    );

    // Zero lost acked mutations: every ack implied a standby quorum
    // had the commit group durable before the client saw the reply.
    for path in &acked {
        assert!(
            dir_exists(&ep, path),
            "{path} was acked before the SIGKILL and must survive the failover"
        );
    }
    // The promoted primary keeps taking writes, acked by the other
    // surviving standby.
    mkdir(&ep, "/after-failover").unwrap();
    assert!(dir_exists(&ep, "/after-failover"));

    // Drain the new primary and fsck its data dir offline: the
    // replicated namespace must be structurally clean, not just
    // readable.
    assert!(matches!(
        control(
            &trio.addrs[target],
            Control::Shutdown,
            Duration::from_secs(5)
        ),
        Ok(ControlReply::ShuttingDown)
    ));
    trio.daemons[target].take().unwrap().0.wait().unwrap();
    let out = Command::new(locod())
        .args([
            "fsck",
            "--data-dir",
            trio.scratch[target].0.to_str().unwrap(),
            "--dms-index",
            &target.to_string(),
        ])
        .output()
        .expect("spawn locod fsck");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("clean"),
        "offline fsck of the promoted standby failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn stale_primary_is_fenced_and_cannot_ack_post_promotion_mutations() {
    let s_pri = Scratch::new("fence-pri");
    let s_sby = Scratch::new("fence-sby");
    let pri_addr = format!("127.0.0.1:{}", free_port());
    let sby_addr = format!("127.0.0.1:{}", free_port());

    let _pri = spawn_dms(&pri_addr, &s_pri.0, 0, None, &sby_addr, "one", &[]);
    let _sby = spawn_dms(
        &sby_addr,
        &s_sby.0,
        1,
        Some(&pri_addr),
        &pri_addr,
        "one",
        &[],
    );
    wait_ping(&pri_addr);
    wait_ping(&sby_addr);

    let pri_ep = one_shot(&pri_addr);
    let sby_ep = one_shot(&sby_addr);
    mkdir(&pri_ep, "/before").unwrap();

    // Split brain: promote the standby while the old primary is STILL
    // RUNNING (the operator's view of liveness was wrong, or the lease
    // expired on a network partition).
    let (epoch, _) = promote(&sby_ep);
    assert_eq!(epoch, 2);

    // The stale primary must never ack a post-promotion mutation: its
    // commit groups need the peer's accept, and the epoch-2 node
    // rejects every epoch-1 append — the write either fences
    // immediately or times out with its reply dropped.
    assert!(
        mkdir(&pri_ep, "/split-brain").is_err(),
        "stale primary acked a mutation after the promotion"
    );
    assert!(
        !dir_exists(&sby_ep, "/split-brain"),
        "the unacked split-brain mutation must not leak to the new primary"
    );

    // The peer's epoch-2 rejections fence the stale primary within a
    // few heartbeats (it may then step down to standby once the new
    // primary's epoch-2 heartbeats reach it — either way it has lost
    // the primary claim for good).
    let role = wait_not_primary(&pri_ep, "stale primary");
    assert!(
        role == Role::Fenced.as_u8() || role == Role::Standby.as_u8(),
        "stale primary must end up fenced or demoted, got role {role}"
    );
    // From now on every client op on the stale node is refused with
    // the fencing epoch, fast — no retry budget burned.
    match mkdir(&pri_ep, "/post-fence") {
        Err(RpcError::FencedEpoch { epoch }) => assert!(epoch >= 1),
        other => panic!("fenced node must reject with FencedEpoch, got {other:?}"),
    }

    // Pre-promotion acked state is intact on the new primary.
    assert!(dir_exists(&sby_ep, "/before"));
}

#[test]
fn cold_standby_catches_up_from_snapshot_plus_wal_tail() {
    let s_pri = Scratch::new("snap-pri");
    let s_sby = Scratch::new("snap-sby");
    let pri_addr = format!("127.0.0.1:{}", free_port());
    let sby_addr = format!("127.0.0.1:{}", free_port());

    // Tiny replication ring: the backlog below overflows it, so the
    // late-joining standby CANNOT be served from buffered commit
    // groups and must take the snapshot + WAL-tail path. ack=none so
    // the primary acks while its only peer is still down.
    let mut pri = spawn_dms(
        &pri_addr,
        &s_pri.0,
        0,
        None,
        &sby_addr,
        "none",
        &[("LOCO_REPL_RING_BYTES", "1024")],
    );
    wait_ping(&pri_addr);

    let pri_ep = one_shot(&pri_addr);
    for i in 0..60 {
        mkdir(&pri_ep, &format!("/s{i}")).unwrap();
    }
    let (_, _, pri_seq) = repl_status(&pri_ep);

    // Cold standby: empty data dir, joins long after the backlog.
    let _sby = spawn_dms(
        &sby_addr,
        &s_sby.0,
        1,
        Some(&pri_addr),
        &pri_addr,
        "none",
        &[],
    );
    wait_ping(&sby_addr);
    let sby_ep = one_shot(&sby_addr);
    wait_caught_up(&sby_ep, 1, pri_seq, "snapshot catch-up");

    // A few more mutations ride the live tail after the snapshot.
    for i in 60..70 {
        mkdir(&pri_ep, &format!("/s{i}")).unwrap();
    }
    let (_, _, pri_seq) = repl_status(&pri_ep);
    wait_caught_up(&sby_ep, 1, pri_seq, "post-snapshot tail");

    // Fail over and prove the whole namespace (snapshot image + both
    // tails) is served by the promoted standby.
    pri.kill();
    let (epoch, _) = promote(&sby_ep);
    assert_eq!(epoch, 2);
    for i in 0..70 {
        assert!(
            dir_exists(&sby_ep, &format!("/s{i}")),
            "/s{i} must survive snapshot-path catch-up + failover"
        );
    }
}

#[test]
fn chaos_loop_of_kill_promote_rejoin_rounds_loses_nothing() {
    let mut trio = Trio::boot("chaos", "one");
    let mut primary = 0usize;
    let mut acked: Vec<String> = Vec::new();
    let mut expect_epoch = 1u64;

    for round in 0..3 {
        // Burst of acked mutations against the current primary.
        let ep = one_shot(&trio.addrs[primary]);
        for i in 0..10 {
            let path = format!("/r{round}-{i}");
            mkdir(&ep, &path).unwrap_or_else(|e| panic!("round {round} mkdir {path}: {e}"));
            acked.push(path);
        }

        // Kill the primary, promote the furthest-ahead survivor.
        let victim = primary;
        trio.kill(victim);
        primary = trio.most_caught_up_survivor(victim);
        let ep = one_shot(&trio.addrs[primary]);
        let (epoch, took) = promote(&ep);
        expect_epoch += 1;
        assert_eq!(epoch, expect_epoch, "each promotion bumps the epoch");
        assert!(
            took < Duration::from_secs(2),
            "round {round}: promote took {took:?}"
        );

        // Everything ever acked is present on the new primary.
        for path in &acked {
            assert!(
                dir_exists(&ep, path),
                "round {round}: {path} lost across failover"
            );
        }

        // The victim rejoins as a standby of the new primary (its
        // stale epoch is corrected by the first heartbeat) and must
        // catch up before the next round.
        trio.daemons[victim] = Some(trio.spawn(victim, Some(primary)));
        wait_ping(&trio.addrs[victim]);
        let sby_ep = one_shot(&trio.addrs[victim]);
        let rejoined = wait_not_primary(&sby_ep, "rejoined victim");
        assert_eq!(rejoined, Role::Standby.as_u8());
        let (_, _, pri_seq) = repl_status(&ep);
        wait_caught_up(&sby_ep, expect_epoch, pri_seq, "rejoined victim");
    }

    // Final state: 30 acked mutations, all present.
    let ep = one_shot(&trio.addrs[primary]);
    assert_eq!(acked.len(), 30);
    for path in &acked {
        assert!(dir_exists(&ep, path));
    }
}

/// A replicated DMS (the primary, unless `extra_args` passes
/// `--standby-of`) whose only peer is a port nothing listens on, so
/// `--repl-ack one` is never met and every quorum wait times out after
/// 2 × the 200 ms lease. Its stderr goes to `stderr.log` in the scratch
/// dir.
fn spawn_lonely_dms(
    addr: &str,
    s: &Scratch,
    extra_args: &[&str],
    extra_env: &[(&str, &str)],
) -> Daemon {
    let dead_peer = format!("127.0.0.1:{}", free_port());
    let data_dir = s.0.join("data");
    let stderr = std::fs::File::create(s.0.join("stderr.log")).unwrap();
    let mut cmd = Command::new(locod());
    cmd.args([
        "serve",
        "--role",
        "dms",
        "--listen",
        addr,
        "--data-dir",
        data_dir.to_str().unwrap(),
        "--replicate-to",
        &dead_peer,
        "--repl-ack",
        "one",
        "--repl-lease-ms",
        "200",
    ])
    .args(extra_args)
    .env_remove("LOCO_CRASHPOINT")
    .env_remove("LOCO_IOFAULT")
    .env_remove("LOCO_REPL_AUTO_PROMOTE")
    .envs(extra_env.iter().copied())
    .stdout(Stdio::null())
    .stderr(stderr);
    Daemon(cmd.spawn().expect("spawn locod serve"))
}

fn mkdir_frame(req_id: u64, path: &str) -> Vec<u8> {
    let req = RpcRequest {
        budget_ms: 0,
        trace: None,
        body: DmsRequest::Mkdir {
            path: path.into(),
            mode: 0o755,
            uid: 0,
            gid: 0,
            ts: 1,
        },
    };
    encode_frame(FrameKind::Request, req_id, &req.to_wire())
}

#[test]
fn replication_is_refused_under_os_managed_sync() {
    // A primary, and a standby: an os-managed primary acks before any
    // quorum wait, and an os-managed standby's ack promises no fsync.
    for extra in [&[][..], &["--standby-of", "127.0.0.1:1"][..]] {
        let s = Scratch::new("os-managed");
        let addr = format!("127.0.0.1:{}", free_port());
        let mut d = spawn_lonely_dms(&addr, &s, extra, &[]);
        let start = Instant::now();
        let status = loop {
            if let Some(st) = d.0.try_wait().unwrap() {
                break st;
            }
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "{extra:?}: locod served replication under os-managed sync"
            );
            std::thread::sleep(Duration::from_millis(20));
        };
        assert!(!status.success(), "{extra:?}: the refusal must fail");
        let stderr = std::fs::read_to_string(s.0.join("stderr.log")).unwrap();
        let first = stderr.lines().next().unwrap_or("");
        assert!(
            first.contains("every-record"),
            "{extra:?}: the refusal must name every-record, got {first:?}"
        );
    }
}

#[test]
fn a_group_commit_off_switch_in_the_env_acks_nothing_without_a_quorum() {
    let s = Scratch::new("gc-off");
    let addr = format!("127.0.0.1:{}", free_port());
    let _d = spawn_lonely_dms(
        &addr,
        &s,
        &["--sync-policy", "every-record"],
        &[("LOCO_GROUP_COMMIT", "off")],
    );
    wait_ping(&addr);
    // The quorum wait gives up after 400 ms and drops the reply.
    let ep = one_shot_within(&addr, Duration::from_secs(2));
    let r = mkdir(&ep, "/unreplicated");
    assert!(r.is_err(), "a mkdir no standby has was acked");
}

#[test]
fn a_write_during_the_drain_is_not_acked_without_a_quorum() {
    let s = Scratch::new("drain");
    let addr = format!("127.0.0.1:{}", free_port());
    let mut d = spawn_lonely_dms(
        &addr,
        &s,
        &["--sync-policy", "every-record", "--workers", "1"],
        &[],
    );
    wait_ping(&addr);
    let start = Instant::now();
    let at = |ms: u64| {
        let t = start + Duration::from_millis(ms);
        std::thread::sleep(t.saturating_duration_since(Instant::now()));
    };
    // Mkdir A parks in a quorum wait that lasts 400 ms.
    let mut conn = TcpStream::connect(&addr).unwrap();
    conn.set_nodelay(true).unwrap();
    conn.write_all(&mkdir_frame(1, "/a")).unwrap();
    // The drain starts while A waits...
    at(60);
    let mut ctl = TcpStream::connect(&addr).unwrap();
    ctl.write_all(&encode_frame(
        FrameKind::Control,
        0,
        &Control::Shutdown.to_wire(),
    ))
    .unwrap();
    // ...and mkdir B arrives on A's connection during it.
    at(140);
    conn.write_all(&mkdir_frame(2, "/b")).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    loop {
        match read_frame(&mut conn) {
            Ok(Some(f)) => assert_ne!(
                f.kind,
                FrameKind::Response,
                "request {} acked at {:?} without a quorum",
                f.req_id,
                start.elapsed()
            ),
            Ok(None) => break,
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => break,
            Err(e) => panic!("no EOF from the draining daemon: {e}"),
        }
    }
    let start = Instant::now();
    while d.0.try_wait().unwrap().is_none() {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "the daemon never finished its drain"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}
