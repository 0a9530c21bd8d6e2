//! Fault behavior of the TCP transport: killing a server mid-workload
//! must surface `EIO` (FsError::Io) through retry exhaustion — no
//! hangs, deadlines fire, and the cluster stays usable for every
//! role that is still up. The client's call path is held to its
//! contract against misbehaving peers too: a deadline bounds the whole
//! reply, a late or mismatched reply never reaches a call, and
//! connections are reused only after a complete exchange.

use locofs::client::{DmsEndpoint, FmsEndpoint, LocoClient, LocoConfig, ObsWiring, OstEndpoint};
use locofs::dms::DirServer;
use locofs::fms::FileServer;
use locofs::kv::KvConfig;
use locofs::net::frame::{encode_frame, read_frame, FrameKind, HEADER_LEN};
use locofs::net::tcp::{serve_tcp, RetryPolicy, ServeOptions, TcpEndpoint, TcpServerGuard};
use locofs::net::{
    class, CallCtx, Endpoint, EndpointMetrics, Nanos, RpcError, RpcResponse, ServerId, Service,
};
use locofs::obs::{FlightRecorder, MetricsRegistry, SampleMode, Tracer, Watchdog, WatchdogConfig};
use locofs::ostore::ObjectStore;
use locofs::types::wire::Wire;
use locofs::types::FsError;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Aggressive policy so retry exhaustion completes in well under a
/// second: 2 attempts, 5 ms backoff, 200 ms deadline.
fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        attempts: 2,
        backoff: Duration::from_millis(5),
        deadline: Duration::from_millis(200),
        connect_timeout: Duration::from_millis(200),
        reconnect_window: Duration::ZERO,
        retry_budget: 0,
        breaker_threshold: 0,
        breaker_cooldown: Duration::from_millis(100),
    }
}

struct TcpTestCluster {
    client: LocoClient,
    // Index 0 = DMS, then FMS guards, then OST guards.
    fms_guards: Vec<TcpServerGuard>,
    _other_guards: Vec<TcpServerGuard>,
}

/// 1 DMS + `fms` FMS + 1 OST, all in-process behind real sockets, with
/// the fast retry policy on every client endpoint.
fn boot(fms: u16) -> TcpTestCluster {
    let config = LocoConfig::with_servers(fms);
    let kv = KvConfig::default();
    let registry = Arc::new(MetricsRegistry::new());
    let mut other_guards = Vec::new();

    let dms_id = ServerId::new(class::DMS, 0);
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    let g = serve_tcp(
        dms_id,
        DirServer::with_sid(config.dms_backend, kv.clone(), 0),
        l,
        ServeOptions::default(),
    )
    .unwrap();
    let dms: Vec<DmsEndpoint> = vec![Arc::new(TcpEndpoint::<DirServer>::with_policy(
        dms_id,
        &g.addr().to_string(),
        fast_policy(),
    ))];
    other_guards.push(g);

    let mut fms_eps: Vec<FmsEndpoint> = Vec::new();
    let mut fms_guards = Vec::new();
    for i in 0..fms {
        let id = ServerId::new(class::FMS, i);
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let g = serve_tcp(
            id,
            FileServer::new(i + 1, config.fms_mode, kv.clone()),
            l,
            ServeOptions::default(),
        )
        .unwrap();
        fms_eps.push(Arc::new(TcpEndpoint::<FileServer>::with_policy(
            id,
            &g.addr().to_string(),
            fast_policy(),
        )));
        fms_guards.push(g);
    }

    let ost_id = ServerId::new(class::OST, 0);
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    let g = serve_tcp(ost_id, ObjectStore::new(kv), l, ServeOptions::default()).unwrap();
    let ost: Vec<OstEndpoint> = vec![Arc::new(TcpEndpoint::<ObjectStore>::with_policy(
        ost_id,
        &g.addr().to_string(),
        fast_policy(),
    ))];
    other_guards.push(g);

    let obs = ObsWiring {
        registry,
        tracer: Arc::new(Tracer::new(SampleMode::Off)),
        flight: Arc::new(FlightRecorder::new(8)),
        watchdog: Arc::new(Watchdog::new(WatchdogConfig::default())),
    };
    let client = LocoClient::with_endpoints(config, dms, fms_eps, ost, obs, 1000, 1000);
    TcpTestCluster {
        client,
        fms_guards,
        _other_guards: other_guards,
    }
}

#[test]
fn killing_an_fms_mid_workload_surfaces_eio_without_hanging() {
    let mut cluster = boot(2);
    let c = &mut cluster.client;
    c.mkdir("/w", 0o755).unwrap();
    // Warm up: files land on both FMS shards.
    for i in 0..12 {
        c.create(&format!("/w/f{i}"), 0o644).unwrap();
    }

    // Kill every FMS (drop closes the listeners and joins the conn
    // threads), keeping DMS and OST alive.
    cluster.fms_guards.clear();

    let start = Instant::now();
    let mut io_errors = 0;
    for i in 0..12 {
        match c.stat_file(&format!("/w/f{i}")) {
            Err(FsError::Io(msg)) => {
                io_errors += 1;
                assert!(
                    msg.contains("FMS"),
                    "EIO should say which shard died: {msg}"
                );
            }
            other => panic!("expected EIO after FMS death, got {other:?}"),
        }
    }
    let elapsed = start.elapsed();
    assert_eq!(io_errors, 12);
    // 12 ops x 2 attempts x (fast connect-refused + 5-10 ms backoff):
    // generous bound proves deadlines/backoff fire instead of hanging.
    assert!(
        elapsed < Duration::from_secs(30),
        "retry exhaustion took {elapsed:?} — deadlines not firing"
    );

    // The DMS is still healthy: directory metadata ops keep working.
    c.mkdir("/w2", 0o755).unwrap();
    assert!(c.stat_dir("/w").is_ok());
}

/// Open a durable FMS store under `dir` (HashDb inner, FMS codec).
fn durable_fms(dir: &std::path::Path) -> FileServer {
    let cfg = FileServer::tune_cfg(locofs::fms::FmsMode::Decoupled, KvConfig::default());
    let db = locofs::kv::DurableStore::open(dir, locofs::kv::HashDb::new(cfg)).unwrap();
    FileServer::with_store(Box::new(db), 1, locofs::fms::FmsMode::Decoupled)
}

#[test]
fn fms_restart_recovers_acked_namespace_from_durable_store() {
    // A restarted FMS used to come back empty (process state died with
    // it). With a DurableStore every acknowledged mutation is WAL-logged
    // before the response frame, so the restart recovers the namespace
    // and the protocol level reconnects lazily — same client, same
    // pooled endpoints, no rebuild.
    let scratch = std::env::temp_dir().join(format!("loco-tcp-fault-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();

    let mut cluster = boot(1);
    let c = &mut cluster.client;

    // Swap the volatile FMS for a durable one on its own port.
    let fms_id = ServerId::new(class::FMS, 0);
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    let g = serve_tcp(fms_id, durable_fms(&scratch), l, ServeOptions::default()).unwrap();
    let fms_addr = g.addr();
    let fms_ep: FmsEndpoint = Arc::new(TcpEndpoint::<FileServer>::with_policy(
        fms_id,
        &fms_addr.to_string(),
        fast_policy(),
    ));
    c.swap_fms_endpoint(0, fms_ep);
    cluster.fms_guards = vec![g];

    c.mkdir("/d", 0o755).unwrap();
    c.create("/d/before", 0o644).unwrap();

    // Take the FMS down: file creates fail with EIO, dirs still work.
    cluster.fms_guards.clear();
    assert!(matches!(c.create("/d/during", 0o644), Err(FsError::Io(_))));
    c.mkdir("/d/sub", 0o755).unwrap();

    // Restart on the same port over the same data dir: the WAL replay
    // brings back every acknowledged file record.
    let l = TcpListener::bind(fms_addr).expect("rebind the freed port");
    let _g = serve_tcp(fms_id, durable_fms(&scratch), l, ServeOptions::default()).unwrap();
    assert!(
        c.stat_file("/d/before").is_ok(),
        "acked create must survive the FMS restart"
    );
    c.create("/d/after", 0o644).unwrap();
    assert!(c.stat_file("/d/after").is_ok());

    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn idle_pooled_conn_closed_by_server_redials_lazily_without_spurious_eio() {
    // A daemon restart closes every pooled client connection. The next
    // call on such a connection must not burn the retry budget (or
    // surface a spurious EIO with attempts=1): the lost connection earns
    // one free redial, which always dials fresh, and the call succeeds
    // on the new socket.
    use locofs::ostore::{OstoreRequest, OstoreResponse};
    use locofs::types::Uuid;

    let one_shot = RetryPolicy {
        attempts: 1,
        backoff: Duration::from_millis(1),
        deadline: Duration::from_millis(2000),
        connect_timeout: Duration::from_millis(2000),
        reconnect_window: Duration::ZERO,
        retry_budget: 0,
        breaker_threshold: 0,
        breaker_cooldown: Duration::from_millis(100),
    };
    let id = ServerId::new(class::OST, 0);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut guard = serve_tcp(
        id,
        ObjectStore::new(KvConfig::default()),
        listener,
        ServeOptions::default(),
    )
    .unwrap();
    let addr = guard.addr();
    let ep = TcpEndpoint::<ObjectStore>::with_policy(id, &addr.to_string(), one_shot);
    let mut ctx = locofs::net::CallCtx::new();
    let write = |ctx: &mut locofs::net::CallCtx, blk: u64| {
        ep.try_call(
            ctx,
            OstoreRequest::WriteBlock {
                uuid: Uuid::new(0, 1),
                blk,
                data: vec![7u8; 64],
            },
        )
    };
    // Warm the pool.
    for blk in 0..4 {
        assert!(matches!(
            write(&mut ctx, blk),
            Ok(OstoreResponse::Done(Ok(())))
        ));
    }
    // Several restart rounds: each one leaves the whole pool pointing
    // at sockets the old server closed.
    for round in 0..5 {
        guard.shutdown();
        let listener = TcpListener::bind(addr).expect("rebind the freed port");
        guard = serve_tcp(
            id,
            ObjectStore::new(KvConfig::default()),
            listener,
            ServeOptions::default(),
        )
        .unwrap();
        for blk in 0..10 {
            let r = write(&mut ctx, blk);
            assert!(
                matches!(r, Ok(OstoreResponse::Done(Ok(())))),
                "round {round} blk {blk}: stale pooled conn must redial, got {r:?}"
            );
        }
    }
}

#[test]
fn fenced_reply_skips_backoff_budget_and_surfaces_fenced_epoch() {
    // A standby (or fenced ex-primary) answers instantly with a
    // fenced stamp. That is not a transport fault: burning the full
    // exponential-backoff budget before reporting it would only delay
    // the client's redial to the real primary. The endpoint takes ONE
    // immediate no-sleep retry (covers a promote racing the call) and
    // then surfaces `RpcError::FencedEpoch` — never `Exhausted`, and
    // never a backoff sleep.
    use locofs::dms::DmsRequest;
    use locofs::kv::{BTreeDb, DurableStore};
    use locofs::net::RpcError;
    use locofs::repl::{AckPolicy, ReplCtl, Role};

    let scratch = std::env::temp_dir().join(format!("loco-tcp-fenced-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();

    // A durable DMS booted as a *standby* at epoch 3: every client op
    // is rejected with a fenced reply stamp.
    let db = DurableStore::open(&scratch, BTreeDb::new(KvConfig::default())).unwrap();
    let mut server = DirServer::with_store(Box::new(db), 0);
    let ctl = Arc::new(ReplCtl::new(
        3,
        Role::Standby,
        AckPolicy::None,
        Duration::from_millis(500),
        Vec::new(),
    ));
    assert!(server.enable_repl(ctl), "durable store must take the tap");

    let id = ServerId::new(class::DMS, 0);
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    let g = serve_tcp(id, server, l, ServeOptions::default()).unwrap();

    // Pathological budget: if the fenced reply took the normal retry
    // path, the backoff sleeps alone (2 s + 4 s + ...) would trip the
    // elapsed assertion below.
    let slow_policy = RetryPolicy {
        attempts: 5,
        backoff: Duration::from_secs(2),
        deadline: Duration::from_secs(10),
        connect_timeout: Duration::from_secs(2),
        reconnect_window: Duration::ZERO,
        retry_budget: 0,
        breaker_threshold: 0,
        breaker_cooldown: Duration::from_millis(100),
    };
    let ep = TcpEndpoint::<DirServer>::with_policy(id, &g.addr().to_string(), slow_policy);
    let mut ctx = locofs::net::CallCtx::new();

    let start = Instant::now();
    let err = ep
        .try_call(&mut ctx, DmsRequest::GetDir { path: "/".into() })
        .expect_err("standby must fence client metadata ops");
    let elapsed = start.elapsed();

    match err {
        RpcError::FencedEpoch { epoch } => assert_eq!(epoch, 3, "stamp carries the fencing epoch"),
        other => panic!("expected FencedEpoch (not Exhausted/backoff), got {other:?}"),
    }
    assert!(
        elapsed < Duration::from_millis(500),
        "fenced fast path must not burn the backoff budget: {elapsed:?}"
    );

    drop(g);
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn deadline_fires_on_a_black_hole_server() {
    // A listener that accepts but never replies: the per-call deadline
    // (not TCP buffering) must bound the latency of every attempt.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let _hold = std::thread::spawn(move || {
        let mut held = Vec::new();
        while let Ok((s, _)) = listener.accept() {
            held.push(s); // keep sockets open, say nothing
        }
    });

    let policy = RetryPolicy {
        attempts: 2,
        backoff: Duration::from_millis(1),
        deadline: Duration::from_millis(100),
        connect_timeout: Duration::from_millis(200),
        reconnect_window: Duration::ZERO,
        retry_budget: 0,
        breaker_threshold: 0,
        breaker_cooldown: Duration::from_millis(100),
    };
    let ep = TcpEndpoint::<DirServer>::with_policy(
        ServerId::new(class::DMS, 0),
        &addr.to_string(),
        policy,
    );
    let mut ctx = locofs::net::CallCtx::new();
    let start = Instant::now();
    let err = ep
        .try_call(
            &mut ctx,
            locofs::dms::DmsRequest::GetDir { path: "/".into() },
        )
        .expect_err("black hole must not answer");
    let elapsed = start.elapsed();
    let msg = err.to_string();
    assert!(
        msg.contains("exhausted") || msg.contains("deadline"),
        "unexpected error: {msg}"
    );
    // 2 attempts x 100 ms deadline + backoff: must finish well under
    // the 2 s default — proves the configured deadline is honored.
    assert!(
        elapsed < Duration::from_secs(2),
        "deadline did not fire: {elapsed:?}"
    );
    assert!(
        elapsed >= Duration::from_millis(150),
        "two deadlines expected"
    );
}

/// Echoes each request; sleeps [`SLOW_MS`] first on [`SLOW`].
struct Echo;

const SLOW: u64 = u64::MAX;
const SLOW_MS: u64 = 200;

impl Service for Echo {
    type Req = u64;
    type Resp = u64;

    fn handle(&mut self, req: u64) -> u64 {
        if req == SLOW {
            std::thread::sleep(Duration::from_millis(SLOW_MS));
        }
        req
    }

    fn take_cost(&mut self) -> Nanos {
        0
    }
}

/// One attempt per call, with `deadline`.
fn one_shot(deadline: Duration) -> RetryPolicy {
    RetryPolicy {
        attempts: 1,
        deadline,
        ..fast_policy()
    }
}

/// The labels of the [`Echo`] server's metrics.
const ECHO: &[(&str, &str)] = &[("role", "fms"), ("server", "0")];

/// An [`Echo`] server and an endpoint with `policy`, plus the registry
/// the server reports into.
fn serve_echo(policy: RetryPolicy) -> (TcpServerGuard, TcpEndpoint<Echo>, Arc<MetricsRegistry>) {
    let id = ServerId::new(class::FMS, 0);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let registry = MetricsRegistry::shared();
    let opts = ServeOptions {
        metrics: Some(EndpointMetrics::register(&registry, id)),
        registry: Some(Arc::clone(&registry)),
        ..Default::default()
    };
    let guard = serve_tcp(id, Echo, listener, opts).unwrap();
    let ep = TcpEndpoint::<Echo>::with_policy(id, &guard.addr().to_string(), policy);
    (guard, ep, registry)
}

fn is_timeout(err: &RpcError) -> bool {
    match err {
        RpcError::MaybeApplied { last, .. } | RpcError::Exhausted { last, .. } => is_timeout(last),
        other => matches!(other, RpcError::Timeout { .. }),
    }
}

#[test]
fn a_late_reply_never_reaches_the_next_call() {
    let (_guard, ep, _) = serve_echo(one_shot(Duration::from_secs(2)));
    let mut ctx = CallCtx::new();
    assert_eq!(ep.call(&mut ctx, 1), 1);
    ctx.set_deadline(Duration::from_millis(SLOW_MS / 2));
    let err = ep.try_call(&mut ctx, SLOW).unwrap_err();
    assert!(is_timeout(&err), "got {err:?}");
    ctx.clear_deadline();
    // The server is still handling SLOW: its late reply is written
    // after the next request arrives.
    for i in 2..10 {
        assert_eq!(ep.call(&mut ctx, i), i);
    }
}

#[test]
fn a_trickled_reply_cannot_extend_the_deadline() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let body = RpcResponse::<u64> {
        cost: 0,
        span: None,
        repl: None,
        body: 5,
    }
    .to_wire();
    let frame_len = HEADER_LEN + body.len();
    let trickle = Duration::from_millis(30);
    let server = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let req = read_frame(&mut s).unwrap().unwrap();
        // A valid reply, one byte at a time.
        for b in encode_frame(FrameKind::Response, req.req_id, &body) {
            if std::io::Write::write_all(&mut s, &[b]).is_err() {
                return;
            }
            std::thread::sleep(trickle);
        }
    });
    let policy = one_shot(Duration::from_millis(100));
    let ep = TcpEndpoint::<Echo>::with_policy(ServerId::new(class::FMS, 0), &addr, policy);
    let start = Instant::now();
    let err = ep.try_call(&mut CallCtx::new(), 5).unwrap_err();
    let elapsed = start.elapsed();
    assert!(is_timeout(&err), "got {err:?}");
    assert!(
        elapsed < trickle * frame_len as u32 / 2,
        "a {frame_len}-byte trickle stretched a 100 ms deadline to {elapsed:?}"
    );
    server.join().unwrap();
}

#[test]
fn a_reply_to_another_request_fails_the_call_at_once_without_a_resend() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let body = RpcResponse::<u64> {
            cost: 0,
            span: None,
            repl: None,
            body: 5,
        }
        .to_wire();
        // The first request gets its reply, so the connection is pooled;
        // the second, on the reused connection, gets a reply to another
        // request.
        for skew in [0, 1] {
            let req = read_frame(&mut s).unwrap().unwrap();
            let reply = encode_frame(FrameKind::Response, req.req_id + skew, &body);
            std::io::Write::write_all(&mut s, &reply).unwrap();
        }
        // The client drops the connection and must not re-send the
        // request, which the server has already received, on a new one.
        assert!(read_frame(&mut s).unwrap().is_none());
        listener.set_nonblocking(true).unwrap();
        listener.accept().is_err()
    });
    let ep = TcpEndpoint::<Echo>::with_policy(
        ServerId::new(class::FMS, 0),
        &addr,
        one_shot(Duration::from_secs(2)),
    );
    let mut ctx = CallCtx::new();
    assert_eq!(ep.call(&mut ctx, 5), 5);
    let start = Instant::now();
    let err = ep.try_call(&mut ctx, 5).unwrap_err();
    assert!(
        matches!(&err, RpcError::MaybeApplied { last, .. } if matches!(**last, RpcError::ConnectionLost(_))),
        "got {err:?}"
    );
    assert!(start.elapsed() < Duration::from_secs(1), "{err}");
    assert!(server.join().unwrap(), "the request was re-sent");
}

#[test]
fn replies_longer_than_one_read_arrive_whole_on_a_reused_connection() {
    use locofs::ostore::{OstoreRequest, OstoreResponse};
    use locofs::types::Uuid;

    let id = ServerId::new(class::OST, 0);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let opts = ServeOptions::default();
    let guard = serve_tcp(id, ObjectStore::new(KvConfig::default()), listener, opts).unwrap();
    let ep = TcpEndpoint::<ObjectStore>::with_policy(id, &guard.addr().to_string(), fast_policy());
    let mut ctx = CallCtx::new();
    let uuid = Uuid::new(0, 1);
    // Large, small, large replies through one pooled connection.
    for (blk, len) in [(0u64, 300_000usize), (1, 10), (2, 100_000)] {
        let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8 ^ blk as u8).collect();
        let write = OstoreRequest::WriteBlock {
            uuid,
            blk,
            data: data.clone(),
        };
        assert_eq!(
            ep.try_call(&mut ctx, write),
            Ok(OstoreResponse::Done(Ok(())))
        );
        let read = ep.try_call(&mut ctx, OstoreRequest::ReadBlock { uuid, blk });
        assert_eq!(read, Ok(OstoreResponse::Block(Ok(data))), "block {blk}");
    }
}

#[test]
fn sequential_calls_reuse_one_connection() {
    let (_guard, ep, registry) = serve_echo(fast_policy());
    let mut ctx = CallCtx::new();
    for i in 0..200 {
        assert_eq!(ep.call(&mut ctx, i), i);
    }
    assert_eq!(registry.gauge("loco_srv_open_conns", ECHO).get(), 1);
}

#[test]
fn concurrent_callers_get_their_own_answers_on_at_most_one_connection_each() {
    let (_guard, ep, registry) = serve_echo(fast_policy());
    let handles: Vec<_> = (0..8u64)
        .map(|t| {
            let ep = ep.clone();
            std::thread::spawn(move || {
                let mut ctx = CallCtx::new();
                for i in 0..50 {
                    let req = t * 1000 + i;
                    assert_eq!(ep.call(&mut ctx, req), req);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // Every call was served exactly once.
    assert_eq!(registry.counter("loco_rpc_requests_total", ECHO).get(), 400);
    let open = registry.gauge("loco_srv_open_conns", ECHO).get();
    assert!((1..=8).contains(&open), "{open} connections for 8 callers");
}

#[test]
fn each_caller_gets_back_the_connection_it_used_last() {
    use locofs::net::RpcRequest;
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Mutex};

    // A raw server that records which accepted connection carried each
    // request value, and echoes the value back.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let carried = Mutex::new(Vec::<Vec<u64>>::new());
    let firsts = AtomicUsize::new(0);
    let serve = |conn: usize, mut s: TcpStream| {
        let mut first = true;
        while let Ok(Some(req)) = read_frame(&mut s) {
            let value = RpcRequest::<u64>::from_wire(&req.payload).unwrap().body;
            carried.lock().unwrap()[conn].push(value);
            if std::mem::take(&mut first) {
                // Hold each connection's first reply until two requests
                // are in, so the second caller must dial its own.
                firsts.fetch_add(1, Ordering::SeqCst);
                let t0 = Instant::now();
                while firsts.load(Ordering::SeqCst) < 2 && t0.elapsed() < Duration::from_secs(5) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            let body = RpcResponse::<u64> {
                cost: 0,
                span: None,
                repl: None,
                body: value,
            }
            .to_wire();
            let reply = encode_frame(FrameKind::Response, req.req_id, &body);
            if std::io::Write::write_all(&mut s, &reply).is_err() {
                return;
            }
        }
    };

    std::thread::scope(|scope| {
        let serve = &serve;
        let carried = &carried;
        scope.spawn(move || {
            listener.set_nonblocking(true).unwrap();
            let t0 = Instant::now();
            while carried.lock().unwrap().len() < 2 && t0.elapsed() < Duration::from_secs(5) {
                match listener.accept() {
                    Ok((s, _)) => {
                        s.set_nonblocking(false).unwrap();
                        let conn = {
                            let mut carried = carried.lock().unwrap();
                            carried.push(Vec::new());
                            carried.len() - 1
                        };
                        scope.spawn(move || serve(conn, s));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(1)),
                }
            }
        });

        let ep =
            TcpEndpoint::<Echo>::with_policy(ServerId::new(class::FMS, 0), &addr, fast_policy());
        // Two callers make one call together, then pass a turn token back
        // and forth for 20 calls each in strict alternation, caller 1
        // first.
        let (to_1, turn_1) = mpsc::channel::<()>();
        let (to_2, turn_2) = mpsc::channel::<()>();
        to_1.send(()).unwrap();
        let callers: Vec<_> = [(1u64, turn_1, to_2), (2, turn_2, to_1)]
            .into_iter()
            .map(|(t, my_turn, next)| {
                let ep = ep.clone();
                scope.spawn(move || {
                    let mut ctx = CallCtx::new();
                    let base = t * 1000;
                    assert_eq!(ep.call(&mut ctx, base), base);
                    for i in 1..=20 {
                        my_turn.recv().unwrap();
                        assert_eq!(ep.call(&mut ctx, base + i), base + i);
                        let _ = next.send(());
                    }
                })
            })
            .collect();
        for c in callers {
            c.join().unwrap();
        }
        // Closing the pool ends the server's connection threads.
        drop(ep);
    });

    let carried = carried.into_inner().unwrap();
    assert_eq!(carried.len(), 2, "two concurrent callers, two connections");
    for (conn, values) in carried.iter().enumerate() {
        let callers: std::collections::BTreeSet<u64> = values.iter().map(|v| v / 1000).collect();
        assert_eq!(
            callers.len(),
            1,
            "connection {conn} carried calls of callers {callers:?}: {values:?}"
        );
    }
}

#[test]
fn a_new_caller_takes_an_idle_connection_instead_of_dialing() {
    let (_guard, ep, registry) = serve_echo(fast_policy());
    for t in 1..=2u64 {
        let ep = ep.clone();
        std::thread::spawn(move || {
            let mut ctx = CallCtx::new();
            for i in 0..20 {
                assert_eq!(ep.call(&mut ctx, t * 1000 + i), t * 1000 + i);
            }
        })
        .join()
        .unwrap();
    }
    // The second caller found only the first caller's connection idle.
    assert_eq!(registry.gauge("loco_srv_open_conns", ECHO).get(), 1);
}

#[test]
fn an_oversized_request_fails_its_call_without_dialing_or_killing_the_thread() {
    use locofs::dms::DmsRequest;
    use locofs::net::frame::MAX_PAYLOAD;
    use locofs::net::RpcRequest;
    use std::net::{Shutdown, TcpStream};

    let id = ServerId::new(class::DMS, 0);
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    let server = DirServer::with_sid(LocoConfig::default().dms_backend, KvConfig::default(), 0);
    let dms = serve_tcp(id, server, l, ServeOptions::default()).unwrap();
    // The endpoint dials a gate in front of the DMS, so every
    // connection it opens waits in the gate's accept queue.
    let gate = TcpListener::bind("127.0.0.1:0").unwrap();
    let ep = TcpEndpoint::<DirServer>::with_policy(
        id,
        &gate.local_addr().unwrap().to_string(),
        fast_policy(),
    );

    // A replication snapshot whose request encodes to one byte over
    // the frame limit.
    let snapshot = |image: Vec<u8>| DmsRequest::ReplSnapshot {
        epoch: 1,
        last_seq: 1,
        image,
    };
    let overhead = RpcRequest {
        budget_ms: 0,
        trace: None,
        body: snapshot(Vec::new()),
    }
    .to_wire()
    .len();
    let req = snapshot(vec![0u8; MAX_PAYLOAD + 1 - overhead]);
    let caller = ep.clone();
    let outcome = std::thread::spawn(move || caller.try_call(&mut CallCtx::new(), req))
        .join()
        .expect("the calling thread must survive an oversized request");
    assert_eq!(
        outcome,
        Err(RpcError::TooLarge {
            len: MAX_PAYLOAD + 1
        })
    );
    gate.set_nonblocking(true).unwrap();
    assert_eq!(
        gate.accept().map(|_| ()).unwrap_err().kind(),
        std::io::ErrorKind::WouldBlock,
        "the refused call must not dial"
    );
    gate.set_nonblocking(false).unwrap();

    // The next ordinary call on the same endpoint goes through: the
    // gate forwards its one connection to the DMS.
    let upstream = dms.addr();
    let forward = std::thread::spawn(move || {
        let (client, _) = gate.accept().unwrap();
        let server = TcpStream::connect(upstream).unwrap();
        let (mut down_from, mut down_to) =
            (server.try_clone().unwrap(), client.try_clone().unwrap());
        let down = std::thread::spawn(move || std::io::copy(&mut down_from, &mut down_to));
        let (mut up_from, mut up_to) = (client, server);
        let _ = std::io::copy(&mut up_from, &mut up_to);
        let _ = up_to.shutdown(Shutdown::Write);
        let _ = down.join();
    });
    let resp = ep.try_call(&mut CallCtx::new(), DmsRequest::GetDir { path: "/".into() });
    assert!(resp.is_ok(), "ordinary call after the refusal: {resp:?}");
    drop(ep);
    forward.join().unwrap();
}
