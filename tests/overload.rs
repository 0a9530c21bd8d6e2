//! loco-guard behaviour under overload and network chaos:
//!
//! * a slow-loris connection dribbling one request byte at a time must
//!   not starve healthy clients sharing the server;
//! * requests whose deadline budget expires while queued are dropped
//!   before dispatch — provably never reaching the WAL;
//! * past the admission watermark, mutations shed with a fast
//!   `Overloaded` reject while reads keep draining;
//! * the client retry budget caps aggregate retry amplification under
//!   a brownout (driven through the chaos proxy);
//! * the per-address circuit breaker trips to fail-fast after repeated
//!   exhaustion and recovers through a half-open probe once the
//!   partition heals;
//! * a request's budget runs from the first byte of its frame, so a
//!   frame that arrives slowly expires unexecuted.

use locofs::dms::{DirServer, DmsRequest, DmsResponse};
use locofs::faults::ChaosProxy;
use locofs::kv::{BTreeDb, DurableStore, KvConfig, SyncPolicy};
use locofs::net::frame::{encode_frame, FrameKind};
use locofs::net::tcp::{serve_tcp, serve_tcp_shared, RetryPolicy, ServeOptions, TcpEndpoint};
use locofs::net::{
    class, CallCtx, CommitFsync, Endpoint, EndpointMetrics, RpcError, RpcRequest, ServerId, Service,
};
use locofs::obs::MetricsRegistry;
use locofs::types::wire::Wire;
use locofs::types::FsError;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn mkdir_local(path: String) -> DmsRequest {
    DmsRequest::MkdirLocal {
        path,
        mode: 0o755,
        uid: 0,
        gid: 0,
        ts: 1,
    }
}

/// Client guard off, generous deadline: the baseline policy the guard
/// tests perturb one knob at a time.
fn plain_policy() -> RetryPolicy {
    RetryPolicy {
        attempts: 1,
        backoff: Duration::from_millis(1),
        deadline: Duration::from_secs(2),
        connect_timeout: Duration::from_secs(2),
        reconnect_window: Duration::ZERO,
        retry_budget: 0,
        breaker_threshold: 0,
        breaker_cooldown: Duration::from_millis(100),
    }
}

fn shed_count(registry: &Arc<MetricsRegistry>) -> u64 {
    let labels_i: [(&str, &str); 3] = [("role", "dms"), ("server", "0"), ("reason", "inflight")];
    let labels_q: [(&str, &str); 3] = [("role", "dms"), ("server", "0"), ("reason", "queue")];
    registry.counter("loco_server_shed", &labels_i).get()
        + registry.counter("loco_server_shed", &labels_q).get()
}

fn expired_count(registry: &Arc<MetricsRegistry>) -> u64 {
    // The op label depends on where the drop happened (pre-decode
    // recovers the label; an undecodable payload falls back to "?").
    ["MkdirLocal", "Mkdir", "?"]
        .iter()
        .map(|op| {
            let labels: [(&str, &str); 3] = [("role", "dms"), ("server", "0"), ("op", op)];
            registry.counter("loco_server_expired", &labels).get()
        })
        .sum()
}

// ---------------------------------------------------------------------
// 1. Slow-loris starvation
// ---------------------------------------------------------------------

#[test]
fn slow_loris_dribble_does_not_starve_healthy_clients() {
    let id = ServerId::new(class::DMS, 0);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut guard = serve_tcp(
        id,
        DirServer::with_sid(locofs::dms::DmsBackend::BTree, KvConfig::default(), 0),
        listener,
        ServeOptions::default(),
    )
    .unwrap();
    let addr = guard.addr().to_string();

    // A valid request frame, fed to the server one byte every 15 ms —
    // a whole-frame dribble lasting ~1.5 s.
    let payload = RpcRequest {
        budget_ms: 0,
        trace: None,
        body: mkdir_local("/loris".into()),
    }
    .to_wire();
    let frame = encode_frame(FrameKind::Request, 1, &payload);
    let stop = Arc::new(AtomicBool::new(false));
    let loris = {
        let addr = addr.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut sock = TcpStream::connect(&addr).unwrap();
            for b in &frame {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                if sock.write_all(std::slice::from_ref(b)).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(15));
            }
            sock
        })
    };

    // Healthy traffic on a normal endpoint must complete while the
    // loris is still mid-frame.
    let ep = TcpEndpoint::<DirServer>::with_policy(id, &addr, plain_policy());
    let mut ctx = CallCtx::new();
    let t0 = Instant::now();
    for i in 0..100 {
        let r = ep
            .try_call(&mut ctx, mkdir_local(format!("/h{i}")))
            .unwrap();
        assert!(matches!(r, DmsResponse::Done(Ok(_))), "healthy op failed");
    }
    let healthy = t0.elapsed();
    assert!(
        healthy < Duration::from_millis(1000),
        "healthy clients starved behind the slow-loris: {healthy:?}"
    );
    stop.store(true, Ordering::Relaxed);
    let _ = loris.join();
    guard.shutdown();
}

// ---------------------------------------------------------------------
// 2. Expired-in-queue requests never reach the WAL
// ---------------------------------------------------------------------

#[test]
fn expired_in_queue_requests_never_reach_the_wal() {
    let scratch = std::env::temp_dir().join(format!("loco-overload-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();

    let id = ServerId::new(class::DMS, 0);
    let registry = Arc::new(MetricsRegistry::new());
    let metrics = EndpointMetrics::register(&registry, id);
    let store = DurableStore::open(&scratch, BTreeDb::new(KvConfig::default())).unwrap();
    let svc = Arc::new(Mutex::new(DirServer::with_store(Box::new(store), 0)));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut guard = serve_tcp_shared(
        id,
        Arc::clone(&svc),
        listener,
        ServeOptions {
            metrics: Some(Arc::clone(&metrics)),
            registry: Some(Arc::clone(&registry)),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = guard.addr().to_string();

    // Warm-up mutation so connections and the WAL both exist.
    let ep = TcpEndpoint::<DirServer>::with_policy(id, &addr, plain_policy());
    let mut ctx = CallCtx::new();
    ep.try_call(&mut ctx, mkdir_local("/warm".into())).unwrap();

    let wal_before = locofs::net::Service::maintain(&mut *svc.lock().unwrap(), false)
        .expect("durable store reports")
        .wal_records;

    // Stall the service by holding its lock, then pipeline mutations
    // carrying 50 ms budgets on one raw connection. The first one is
    // dispatched immediately and blocks on the service mutex (the
    // post-lock re-check catches it); the rest sit parsed-but-queued
    // in the worker's read buffer (the pre-decode check catches them).
    // All four budgets lapse during the 400 ms stall.
    let mut sock = {
        let _stall = svc.lock().unwrap();
        let mut sock = TcpStream::connect(&addr).unwrap();
        // One write_all for all four frames: they must land in the
        // worker's buffer in a single read pass so frames 2-4 keep
        // frame 1's arrival stamp (separate writes can be segmented
        // by TCP and read late — with a *fresh* stamp).
        let mut batch = Vec::new();
        for i in 0..4u64 {
            let payload = RpcRequest {
                budget_ms: 50,
                trace: None,
                body: mkdir_local(format!("/late{i}")),
            }
            .to_wire();
            batch.extend_from_slice(&encode_frame(FrameKind::Request, 100 + i, &payload));
        }
        sock.write_all(&batch).unwrap();
        // Don't trust scheduling: wait until the worker has actually
        // read + dispatched the first request (it shows up in the
        // inflight gauge while blocked on the stalled service mutex),
        // THEN let the budgets lapse. The remaining three frames were
        // read in the same pass and keep their arrival stamp.
        let labels: [(&str, &str); 2] = [("role", "dms"), ("server", "0")];
        let inflight = registry.gauge("loco_rpc_inflight", &labels);
        let t0 = Instant::now();
        while inflight.get() < 1 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(inflight.get() >= 1, "worker never dispatched the request");
        std::thread::sleep(Duration::from_millis(400));
        sock
    };
    // Every reply is an explicit Error frame carrying REJECT_EXPIRED —
    // the server tells the (long-gone) caller it dropped the request
    // unexecuted rather than leaving the connection hanging.
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    for _ in 0..4 {
        let frame = locofs::net::frame::read_frame(&mut sock)
            .unwrap()
            .expect("reply frame");
        assert_eq!(frame.kind, FrameKind::Error, "want an expiry reject");
        assert_eq!(frame.payload, vec![locofs::net::REJECT_EXPIRED]);
    }

    // Give the drained queue a moment to be counted, then prove the
    // expired mutations died *before* the WAL: record count unchanged.
    let t0 = Instant::now();
    while expired_count(&registry) < 4 && t0.elapsed() < Duration::from_secs(2) {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        expired_count(&registry) >= 4,
        "server never counted the expired mutations: {}",
        expired_count(&registry)
    );
    let wal_after = locofs::net::Service::maintain(&mut *svc.lock().unwrap(), false)
        .expect("durable store reports")
        .wal_records;
    assert_eq!(
        wal_before, wal_after,
        "an expired-in-queue mutation reached the WAL"
    );
    // The directories provably do not exist.
    let mut ctx = CallCtx::new();
    for i in 0..4 {
        let r = ep
            .try_call(
                &mut ctx,
                DmsRequest::GetDir {
                    path: format!("/late{i}"),
                },
            )
            .unwrap();
        assert!(
            matches!(r, DmsResponse::Dir(Err(_))),
            "expired mkdir was applied anyway"
        );
    }
    guard.shutdown();
    let _ = std::fs::remove_dir_all(&scratch);
}

// ---------------------------------------------------------------------
// 3. Admission control: mutations shed, reads drain
// ---------------------------------------------------------------------

/// A durable DMS whose group-commit fsync takes an extra 40 ms —
/// enough for parked replies to pile past a `max_inflight` of 1.
struct SlowCommitDms(DirServer);

impl Service for SlowCommitDms {
    type Req = DmsRequest;
    type Resp = DmsResponse;
    fn handle(&mut self, req: DmsRequest) -> DmsResponse {
        self.0.handle(req)
    }
    fn take_cost(&mut self) -> locofs::sim::time::Nanos {
        self.0.take_cost()
    }
    fn req_label(req: &DmsRequest) -> &'static str {
        DirServer::req_label(req)
    }
    fn tag_mutates(tag: u8) -> bool {
        DirServer::tag_mutates(tag)
    }
    fn req_idempotent(req: &DmsRequest) -> bool {
        DirServer::req_idempotent(req)
    }
    fn maintain(&mut self, drain: bool) -> Option<locofs::net::MaintainReport> {
        self.0.maintain(drain)
    }
    fn defer_sync(&mut self, on: bool) -> bool {
        self.0.defer_sync(on)
    }
    fn take_commit_ticket(&mut self) -> Option<u64> {
        self.0.take_commit_ticket()
    }
    fn commit_flush_begin(&mut self) -> Option<(u64, CommitFsync)> {
        self.0.commit_flush_begin().map(|(n, fsync)| {
            let slow: CommitFsync = Box::new(move || {
                std::thread::sleep(Duration::from_millis(40));
                fsync();
            });
            (n, slow)
        })
    }
}

#[test]
fn admission_control_sheds_mutations_while_reads_drain() {
    let scratch = std::env::temp_dir().join(format!("loco-overload-shed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();

    let id = ServerId::new(class::DMS, 0);
    let registry = Arc::new(MetricsRegistry::new());
    // EveryRecord sync: mutations take commit tickets, so their replies
    // park with the (artificially slow) group committer.
    let store = DurableStore::open(&scratch, BTreeDb::new(KvConfig::default()))
        .unwrap()
        .with_sync_policy(SyncPolicy::EveryRecord);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut guard = serve_tcp(
        id,
        SlowCommitDms(DirServer::with_store(Box::new(store), 0)),
        listener,
        ServeOptions {
            registry: Some(Arc::clone(&registry)),
            workers: 1,
            max_inflight: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = guard.addr().to_string();

    // Warm-up: one durable mutation (also proves the happy path).
    let ep = TcpEndpoint::<SlowCommitDms>::with_policy(id, &addr, plain_policy());
    let mut ctx = CallCtx::new();
    let r = ep.try_call(&mut ctx, mkdir_local("/seed".into())).unwrap();
    assert!(matches!(r, DmsResponse::Done(Ok(_))));

    // Flood mutations from 6 connections while one read client keeps
    // polling. Reads must never be shed.
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let addr = addr.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let ep = TcpEndpoint::<SlowCommitDms>::with_policy(id, &addr, plain_policy());
            let mut ctx = CallCtx::new();
            let mut reads = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let r = ep
                    .try_call(
                        &mut ctx,
                        DmsRequest::GetDir {
                            path: "/seed".into(),
                        },
                    )
                    .expect("reads must drain during overload");
                assert!(matches!(r, DmsResponse::Dir(Ok(_))));
                reads += 1;
            }
            reads
        })
    };

    let writers: Vec<_> = (0..6)
        .map(|t| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let ep = TcpEndpoint::<SlowCommitDms>::with_policy(id, &addr, plain_policy());
                let mut ctx = CallCtx::new();
                let (mut ok, mut overloaded) = (0u64, 0u64);
                for i in 0..6 {
                    match ep.try_call(&mut ctx, mkdir_local(format!("/w{t}-{i}"))) {
                        Ok(DmsResponse::Done(Ok(_))) => ok += 1,
                        Ok(other) => panic!("unexpected response {other:?}"),
                        Err(
                            RpcError::Overloaded
                            | RpcError::Exhausted { .. }
                            | RpcError::MaybeApplied { .. },
                        ) => overloaded += 1,
                        Err(e) => panic!("unexpected error {e}"),
                    }
                }
                (ok, overloaded)
            })
        })
        .collect();
    let mut total_ok = 0;
    let mut total_overloaded = 0;
    for w in writers {
        let (ok, overloaded) = w.join().unwrap();
        total_ok += ok;
        total_overloaded += overloaded;
    }
    stop.store(true, Ordering::Relaxed);
    let reads = reader.join().unwrap();

    assert!(total_ok > 0, "no mutation got through at all");
    assert!(
        total_overloaded > 0,
        "watermark 1 with a 40 ms fsync never shed ({total_ok} ok)"
    );
    assert!(
        shed_count(&registry) >= total_overloaded,
        "server shed counter ({}) below client-observed rejects ({total_overloaded})",
        shed_count(&registry)
    );
    assert!(reads > 0, "read loop never completed a poll");
    guard.shutdown();
    let _ = std::fs::remove_dir_all(&scratch);
}

// ---------------------------------------------------------------------
// 4. Retry budget bounds amplification under a brownout
// ---------------------------------------------------------------------

#[test]
fn retry_budget_caps_attempts_during_a_brownout() {
    let id = ServerId::new(class::DMS, 0);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut guard = serve_tcp(
        id,
        DirServer::with_sid(locofs::dms::DmsBackend::BTree, KvConfig::default(), 0),
        listener,
        ServeOptions::default(),
    )
    .unwrap();
    let proxy = ChaosProxy::start("127.0.0.1:0", &guard.addr().to_string(), None).unwrap();
    proxy.set_partition(true);

    let registry = Arc::new(MetricsRegistry::new());
    let metrics = EndpointMetrics::register(&registry, id);
    let policy = RetryPolicy {
        attempts: 3,
        backoff: Duration::from_millis(1),
        deadline: Duration::from_millis(40),
        connect_timeout: Duration::from_millis(500),
        reconnect_window: Duration::ZERO,
        retry_budget: 2,
        breaker_threshold: 0,
        breaker_cooldown: Duration::from_millis(100),
    };
    let ep = TcpEndpoint::<DirServer>::with_policy(id, proxy.addr(), policy)
        .with_metrics(Arc::clone(&metrics));
    let mut ctx = CallCtx::new();
    const CALLS: u64 = 20;
    for i in 0..CALLS {
        let err = ep
            .try_call(&mut ctx, mkdir_local(format!("/b{i}")))
            .expect_err("partitioned call cannot succeed");
        // Timeouts on a non-idempotent mutation surface the ambiguity.
        assert!(
            matches!(
                err,
                RpcError::MaybeApplied { .. } | RpcError::Exhausted { .. }
            ),
            "want MaybeApplied/Exhausted, got {err}"
        );
    }
    // Without the budget: (attempts-1) * CALLS = 40 retries. With a
    // budget of 2 and zero successes to refill it, only the first two
    // retries ever run.
    assert_eq!(
        metrics.retries(),
        2,
        "retry budget failed to cap amplification"
    );
    proxy.shutdown();
    guard.shutdown();
}

// ---------------------------------------------------------------------
// 5. Circuit breaker trips and recovers through half-open
// ---------------------------------------------------------------------

#[test]
fn breaker_trips_fails_fast_and_half_open_recovers() {
    let id = ServerId::new(class::DMS, 0);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut guard = serve_tcp(
        id,
        DirServer::with_sid(locofs::dms::DmsBackend::BTree, KvConfig::default(), 0),
        listener,
        ServeOptions::default(),
    )
    .unwrap();
    let proxy = ChaosProxy::start("127.0.0.1:0", &guard.addr().to_string(), None).unwrap();

    let policy = RetryPolicy {
        attempts: 2,
        backoff: Duration::from_millis(1),
        deadline: Duration::from_millis(40),
        connect_timeout: Duration::from_millis(500),
        reconnect_window: Duration::ZERO,
        retry_budget: 0,
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_millis(150),
    };
    let ep = TcpEndpoint::<DirServer>::with_policy(id, proxy.addr(), policy);
    let mut ctx = CallCtx::new();

    proxy.set_partition(true);
    // Two consecutive exhaustions trip the breaker...
    for i in 0..2 {
        ep.try_call(&mut ctx, mkdir_local(format!("/t{i}")))
            .expect_err("partitioned call cannot succeed");
    }
    assert_eq!(ep.breaker_trips(), 1, "breaker did not trip");
    // ...after which calls fail fast without touching the network.
    let t0 = Instant::now();
    let err = ep
        .try_call(&mut ctx, mkdir_local("/fast".into()))
        .expect_err("open breaker must fail fast");
    assert!(
        matches!(err, RpcError::CircuitOpen { .. }),
        "want CircuitOpen, got {err}"
    );
    assert!(
        t0.elapsed() < Duration::from_millis(20),
        "open-breaker call was not fast: {:?}",
        t0.elapsed()
    );

    // Heal the network, let the cooldown lapse: the next call is the
    // half-open probe, its success closes the breaker for good.
    proxy.set_partition(false);
    proxy.kill_conns();
    std::thread::sleep(Duration::from_millis(200));
    let r = ep
        .try_call(&mut ctx, mkdir_local("/healed".into()))
        .expect("half-open probe should succeed after heal");
    assert!(matches!(r, DmsResponse::Done(Ok(_))));
    for i in 0..5 {
        ep.try_call(&mut ctx, mkdir_local(format!("/post{i}")))
            .expect("breaker must stay closed after recovery");
    }
    assert_eq!(ep.breaker_trips(), 1, "breaker re-tripped after recovery");
    proxy.shutdown();
    guard.shutdown();
}

// ---------------------------------------------------------------------
// 6. A budget runs from the frame's first byte
// ---------------------------------------------------------------------

#[test]
fn a_frame_that_arrives_slower_than_its_budget_expires_unexecuted() {
    let id = ServerId::new(class::DMS, 0);
    let registry = Arc::new(MetricsRegistry::new());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut guard = serve_tcp(
        id,
        DirServer::with_sid(locofs::dms::DmsBackend::BTree, KvConfig::default(), 0),
        listener,
        ServeOptions {
            metrics: Some(EndpointMetrics::register(&registry, id)),
            registry: Some(Arc::clone(&registry)),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = guard.addr().to_string();

    // A 5 ms budget, and a frame written 4 bytes every 2 ms: no gap
    // outlasts the budget, but the whole frame does, many times over.
    // The long path stretches the frame to ~80 ms, so a worker that
    // wakes late still stamps its first bytes long before the last.
    let path = format!("/{}", "slow".repeat(25));
    let payload = RpcRequest {
        budget_ms: 5,
        trace: None,
        body: DmsRequest::Mkdir {
            path: path.clone(),
            mode: 0o755,
            uid: 0,
            gid: 0,
            ts: 1,
        },
    }
    .to_wire();
    let frame = encode_frame(FrameKind::Request, 1, &payload);
    let mut sock = TcpStream::connect(&addr).unwrap();
    sock.set_nodelay(true).unwrap();
    for piece in frame.chunks(4) {
        sock.write_all(piece).unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let reply = locofs::net::frame::read_frame(&mut sock)
        .unwrap()
        .expect("reply frame");
    assert_eq!(reply.kind, FrameKind::Error, "want an expiry reject");
    assert_eq!(reply.payload, vec![locofs::net::REJECT_EXPIRED]);
    assert_eq!(expired_count(&registry), 1);

    // The mkdir was never applied.
    let ep = TcpEndpoint::<DirServer>::with_policy(id, &addr, plain_policy());
    let stat = DmsRequest::StatDir {
        path,
        uid: 0,
        gid: 0,
    };
    let r = ep.try_call(&mut CallCtx::new(), stat).unwrap();
    assert!(
        matches!(r, DmsResponse::Dir(Err(FsError::NotFound))),
        "expired mkdir was applied anyway: {r:?}"
    );
    guard.shutdown();
}
