//! Group commit without a timed linger, pinned through a durable DMS
//! whose group-commit fsync the test holds on a gate:
//!
//! * a lone durable request is fsynced at once and alone — its fsync
//!   begins within the committer's wake-up, not after a timer — and
//!   its reply leaves only after that fsync returns;
//! * requests that arrive while an fsync is in flight form the next
//!   batch: one fsync covers them all, and none is acked before it;
//! * a parked request whose budget runs out during an fsync is
//!   rejected as expired and causes no fsync of its own.

use locofs::dms::{DirServer, DmsRequest, DmsResponse};
use locofs::kv::{BTreeDb, DurableStore, KvConfig, SyncPolicy};
use locofs::net::frame::{encode_frame, read_frame, Frame, FrameKind};
use locofs::net::tcp::{serve_tcp, ServeOptions, TcpServerGuard};
use locofs::net::{class, CommitFsync, RpcRequest, RpcResponse, ServerId, Service};
use locofs::obs::MetricsRegistry;
use locofs::types::wire::Wire;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Holds every group-commit fsync until the test opens it.
#[derive(Default)]
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    /// When each handler run ended.
    handled: Vec<Instant>,
    /// When each fsync began, and the WAL records it covered.
    started: Vec<(Instant, u64)>,
    /// Fsyncs the test has let through.
    opened: usize,
}

impl Gate {
    /// Block until `n` fsyncs have begun; returns their record counts.
    fn wait_started(&self, n: usize) -> Vec<u64> {
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut st = self.state.lock().unwrap();
        while st.started.len() < n {
            let left = deadline.saturating_duration_since(Instant::now());
            assert!(!left.is_zero(), "fsync #{n} never began");
            st = self.cv.wait_timeout(st, left).unwrap().0;
        }
        st.started.iter().map(|&(_, records)| records).collect()
    }

    fn started(&self) -> usize {
        self.state.lock().unwrap().started.len()
    }

    /// Let the next held fsync run.
    fn open(&self) {
        self.state.lock().unwrap().opened += 1;
        self.cv.notify_all();
    }

    fn wait_handled(&self, n: usize) {
        let t0 = Instant::now();
        while self.state.lock().unwrap().handled.len() < n {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "request #{n} never ran"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// A durable DMS whose staged fsync waits at the gate.
struct GatedDms {
    inner: DirServer,
    gate: Arc<Gate>,
}

impl Service for GatedDms {
    type Req = DmsRequest;
    type Resp = DmsResponse;
    fn handle(&mut self, req: DmsRequest) -> DmsResponse {
        let resp = self.inner.handle(req);
        self.gate.state.lock().unwrap().handled.push(Instant::now());
        resp
    }
    fn take_cost(&mut self) -> locofs::sim::time::Nanos {
        self.inner.take_cost()
    }
    fn req_label(req: &DmsRequest) -> &'static str {
        DirServer::req_label(req)
    }
    fn defer_sync(&mut self, on: bool) -> bool {
        self.inner.defer_sync(on)
    }
    fn take_commit_ticket(&mut self) -> Option<u64> {
        self.inner.take_commit_ticket()
    }
    fn commit_flush_begin(&mut self) -> Option<(u64, CommitFsync)> {
        let (records, fsync) = self.inner.commit_flush_begin()?;
        let gate = Arc::clone(&self.gate);
        let held: CommitFsync = Box::new(move || {
            let mut st = gate.state.lock().unwrap();
            let me = st.started.len();
            st.started.push((Instant::now(), records));
            gate.cv.notify_all();
            while st.opened <= me {
                st = gate.cv.wait(st).unwrap();
            }
            drop(st);
            fsync();
        });
        Some((records, held))
    }
}

struct Server {
    guard: TcpServerGuard,
    gate: Arc<Gate>,
    registry: Arc<MetricsRegistry>,
    dir: PathBuf,
}

impl Server {
    fn boot(name: &str) -> Server {
        let dir = std::env::temp_dir().join(format!("loco-gc-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store = DurableStore::open(&dir, BTreeDb::new(KvConfig::default()))
            .unwrap()
            .with_sync_policy(SyncPolicy::EveryRecord);
        let gate = Arc::new(Gate::default());
        let registry = MetricsRegistry::shared();
        let guard = serve_tcp(
            ServerId::new(class::DMS, 0),
            GatedDms {
                inner: DirServer::with_store(Box::new(store), 0),
                gate: Arc::clone(&gate),
            },
            TcpListener::bind("127.0.0.1:0").unwrap(),
            ServeOptions {
                registry: Some(Arc::clone(&registry)),
                ..Default::default()
            },
        )
        .unwrap();
        Server {
            guard,
            gate,
            registry,
            dir,
        }
    }

    /// Send one mkdir on a fresh connection.
    fn mkdir(&self, path: &str, budget_ms: u32) -> TcpStream {
        let payload = RpcRequest {
            budget_ms,
            trace: None,
            body: DmsRequest::MkdirLocal {
                path: path.into(),
                mode: 0o755,
                uid: 0,
                gid: 0,
                ts: 1,
            },
        }
        .to_wire();
        let mut sock = TcpStream::connect(self.guard.addr()).unwrap();
        sock.write_all(&encode_frame(FrameKind::Request, 1, &payload))
            .unwrap();
        sock
    }

    fn histogram(&self, name: &str) -> Arc<locofs::obs::LogHistogram> {
        self.registry
            .histogram(name, &[("role", "dms"), ("server", "0")])
    }

    fn stop(mut self) {
        // Let any fsync the drain stages through.
        for _ in 0..8 {
            self.gate.open();
        }
        self.guard.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The reply on `sock`, or `None` when none arrives within `wait`.
fn reply_within(sock: &mut TcpStream, wait: Duration) -> Option<Frame> {
    sock.set_read_timeout(Some(wait)).unwrap();
    match read_frame(sock) {
        Ok(frame) => Some(frame.expect("server closed the connection")),
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            None
        }
        Err(e) => panic!("reading reply: {e}"),
    }
}

fn assert_acked(sock: &mut TcpStream, what: &str) {
    let frame = reply_within(sock, Duration::from_secs(5))
        .unwrap_or_else(|| panic!("{what}: no reply after its fsync"));
    assert_eq!(frame.kind, FrameKind::Response, "{what}: not a response");
    let resp = RpcResponse::<DmsResponse>::from_wire(&frame.payload).unwrap();
    assert!(
        matches!(resp.body, DmsResponse::Done(Ok(_))),
        "{what}: {:?}",
        resp.body
    );
}

fn assert_silent(sock: &mut TcpStream, what: &str) {
    assert!(
        reply_within(sock, Duration::from_millis(50)).is_none(),
        "{what}: acked before its records were fsynced"
    );
}

#[test]
fn requests_parked_during_an_fsync_share_the_next_one() {
    let srv = Server::boot("share");
    let gate = &srv.gate;

    // A lone request: its fsync begins with no other traffic, and it
    // covers that request alone.
    let mut a = srv.mkdir("/a", 0);
    let a_records = gate.wait_started(1)[0];
    assert!(a_records > 0);
    assert_silent(&mut a, "lone request");

    // Three requests run while that fsync is held. Their records were
    // appended after it was staged, so it cannot cover them.
    let mut later: Vec<TcpStream> = ["/b", "/c", "/d"].iter().map(|p| srv.mkdir(p, 0)).collect();
    gate.wait_handled(4);
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(gate.started(), 1, "an fsync began while another ran");
    for s in &mut later {
        assert_silent(s, "request parked during an fsync");
    }

    gate.open();
    assert_acked(&mut a, "lone request");
    // The next fsync begins as soon as the first returns and covers
    // all three; none of them leaves before it does.
    let started = gate.wait_started(2);
    assert!(
        started[1] >= 3,
        "second fsync covered {} records",
        started[1]
    );
    for s in &mut later {
        assert_silent(s, "request of the second batch");
    }
    gate.open();
    for s in &mut later {
        assert_acked(s, "request of the second batch");
    }
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(
        gate.started(),
        2,
        "three parked requests needed more than one fsync"
    );

    let batch = srv.histogram("loco_wal_batch_size");
    assert_eq!(batch.count(), 2);
    assert_eq!(batch.sum(), started.iter().sum::<u64>());
    assert_eq!(srv.histogram("loco_wal_fsync_nanos").count(), 2);
    // Every reply stayed parked at least as long as the test held the
    // fsync covering it (two silence checks of 50 ms each).
    let wait = srv.histogram("loco_wal_commit_wait_nanos");
    assert_eq!(wait.count(), 4);
    assert!(
        wait.min() >= Duration::from_millis(90).as_nanos() as u64,
        "a reply was released after {} ns",
        wait.min()
    );
    srv.stop();
}

#[test]
fn request_expiring_during_an_fsync_is_rejected_without_one() {
    let srv = Server::boot("expire");
    let gate = &srv.gate;

    let mut a = srv.mkdir("/a", 0);
    gate.wait_started(1);
    // Runs and parks while the first fsync is held; its 30 ms budget
    // lapses before that fsync returns.
    let mut b = srv.mkdir("/b", 30);
    gate.wait_handled(2);
    std::thread::sleep(Duration::from_millis(80));
    gate.open();
    assert_acked(&mut a, "request without a budget");

    let frame = reply_within(&mut b, Duration::from_secs(5)).expect("expired request got no reply");
    assert_eq!(frame.kind, FrameKind::Error, "want an expiry reject");
    assert_eq!(frame.payload, vec![locofs::net::REJECT_EXPIRED]);
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(gate.started(), 1, "dead work caused an fsync");
    let expired = srv
        .registry
        .counter(
            "loco_server_expired",
            &[("role", "dms"), ("server", "0"), ("op", "MkdirLocal")],
        )
        .get();
    assert_eq!(expired, 1);
    srv.stop();
}

#[test]
fn a_lone_request_is_fsynced_without_waiting_for_company() {
    const OPS: usize = 30;
    let srv = Server::boot("lone");
    for _ in 0..OPS {
        srv.gate.open();
    }
    for i in 0..OPS {
        let mut s = srv.mkdir(&format!("/l{i}"), 0);
        assert_acked(&mut s, "lone request");
    }
    let st = srv.gate.state.lock().unwrap();
    assert_eq!(st.started.len(), OPS, "one fsync per lone request");
    // From a handler's end to the start of its fsync is only the
    // committer's wake-up, ~10-30 µs on a 2-core VM. A timed wait for
    // company would add its whole period to every gap, so the best of
    // the runs must come in well under 100 µs.
    let best = (0..OPS)
        .map(|i| st.started[i].0 - st.handled[i])
        .min()
        .unwrap();
    assert!(
        best < Duration::from_micros(100),
        "every lone request waited {best:?} or more before its fsync began"
    );
    drop(st);
    srv.stop();
}
