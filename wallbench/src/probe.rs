//! Timing decorators for the traced run, and the in-memory span store.
//!
//! Each decorator wraps one public layer boundary and records wall-clock
//! spans while the measurement window is open:
//!
//! * [`TimedEndpoint`] — `Endpoint::try_call`/`call` (client → server
//!   RPC), one [`RpcSpan`] per call tagged with the client op id;
//! * [`TimedService`] — `Service::handle` (one [`HandlerSpan`] per
//!   request, carrying the KV and WAL time spent inside it) and the
//!   `CommitFsync` closure `commit_flush_begin` hands the group
//!   committer (one [`FsyncSpan`] per batch);
//! * [`TimedKv`] — `KvStore`, once inside `DurableStore` (the in-memory
//!   store) and once outside it (WAL + store). WAL time is outer minus
//!   inner.
//!
//! Client op spans and their RPC spans share an op id. Handler and fsync
//! spans are linked per server and thread only: tying them to a client
//! op needs tracing inside the program.

use loco_kv::{AccessStats, CommitTap, KvStore, PersistenceStats};
use loco_net::{
    CallCtx, CommitFsync, Endpoint, MaintainReport, ReplStamp, RpcError, ServerId, Service,
    TcpEndpoint,
};
use loco_types::wire::Wire;
use std::cell::{Cell, RefCell};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Spans are plain data: a panicking writer leaves them valid.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Shared clock and on/off switch of the measurement window.
pub struct Window {
    epoch: Instant,
    on: AtomicBool,
}

impl Window {
    /// Whether spans are being recorded.
    #[inline]
    pub fn on(&self) -> bool {
        self.on.load(Relaxed)
    }

    /// Nanoseconds from the epoch to `t`.
    #[inline]
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Nanoseconds from the epoch to now.
    #[inline]
    pub fn now(&self) -> u64 {
        self.ns(Instant::now())
    }
}

static NEXT_TID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static TID: u32 = NEXT_TID.fetch_add(1, Relaxed);
    static CUR_OP: Cell<u64> = const { Cell::new(0) };
    static RPCS: RefCell<Vec<RpcSpan>> = const { RefCell::new(Vec::new()) };
    static MUTATES: RefCell<Vec<(u8, &'static str, bool)>> = const { RefCell::new(Vec::new()) };
}

/// Small stable id of the calling thread.
pub fn tid() -> u32 {
    TID.with(|t| *t)
}

/// Tag the RPCs this thread sends from now on with client op `id`.
pub fn set_op(id: u64) {
    CUR_OP.with(|c| c.set(id));
}

/// Drain the RPC spans this thread recorded.
pub fn take_rpcs() -> Vec<RpcSpan> {
    RPCS.with(|r| std::mem::take(&mut *r.borrow_mut()))
}

/// One client operation.
#[derive(Clone, Copy, Debug)]
pub struct OpSpan {
    /// Op id (client index in the top bits, stream index below).
    pub op: u64,
    /// Whether the op only reads.
    pub read: bool,
    /// Start, ns since the window epoch.
    pub start: u64,
    /// End, ns since the window epoch.
    pub end: u64,
    /// Result matched the model.
    pub ok: bool,
}

/// One client → server RPC, as the client saw it.
#[derive(Clone, Copy, Debug)]
pub struct RpcSpan {
    /// Client op that sent it.
    pub op: u64,
    /// Target server.
    pub server: ServerId,
    /// Request label (`Service::req_label`).
    pub label: &'static str,
    /// Whether the request mutates server state (`Service::tag_mutates`).
    pub mutates: bool,
    /// Start, ns since the window epoch.
    pub start: u64,
    /// End, ns since the window epoch.
    pub end: u64,
    /// The transport returned a reply.
    pub ok: bool,
}

/// One `Service::handle` run, with the store work inside it.
#[derive(Clone, Copy, Debug)]
pub struct HandlerSpan {
    /// Server thread that ran it.
    pub thread: u32,
    /// Request label.
    pub label: &'static str,
    /// Start, ns since the window epoch.
    pub start: u64,
    /// End, ns since the window epoch.
    pub end: u64,
    /// Calls into the in-memory store.
    pub kv_calls: u64,
    /// Time inside the in-memory store.
    pub kv_ns: u64,
    /// Time inside `DurableStore` but outside the in-memory store.
    pub wal_ns: u64,
    /// Key and value bytes the handler asked the store to write.
    pub user_bytes: u64,
    /// WAL commit groups the handler wrote.
    pub commits: u64,
    /// Part of `wal_ns` spent in checkpoints.
    pub ckpt_ns: u64,
    /// Checkpoints run.
    pub ckpts: u64,
}

/// One group-commit (or inline drain) fsync.
#[derive(Clone, Copy, Debug)]
pub struct FsyncSpan {
    /// Thread that ran the fsync.
    pub thread: u32,
    /// Start, ns since the window epoch.
    pub start: u64,
    /// End, ns since the window epoch.
    pub end: u64,
    /// WAL records the fsync covered.
    pub records: u64,
}

/// Cumulative store counters of one server.
#[derive(Clone, Copy, Default)]
struct Acc {
    kv_calls: u64,
    kv_ns: u64,
    outer_ns: u64,
    user_bytes: u64,
    commits: u64,
    ckpt_ns: u64,
    ckpts: u64,
}

/// Size tracking of one server's `wal.log` (on-disk growth).
struct WalSize {
    path: PathBuf,
    last: u64,
    bytes: u64,
}

/// Per-server probe state shared by its decorators.
pub struct ServerProbe {
    /// Which server.
    pub id: ServerId,
    window: Arc<Window>,
    kv_calls: AtomicU64,
    kv_ns: AtomicU64,
    outer_ns: AtomicU64,
    user_bytes: AtomicU64,
    commits: AtomicU64,
    ckpt_ns: AtomicU64,
    ckpts: AtomicU64,
    handlers: Mutex<Vec<HandlerSpan>>,
    fsyncs: Mutex<Vec<FsyncSpan>>,
    wal: Mutex<WalSize>,
}

/// WAL size is sampled every this many commit groups (and after each
/// checkpoint); growth between the last sample and a log rotation is
/// lost, at most this many groups per checkpoint.
const WAL_SAMPLE_EVERY: u64 = 64;
/// Length of the WAL file header (`LWAL` + version byte).
const WAL_HEADER: u64 = 5;

impl ServerProbe {
    fn acc(&self) -> Acc {
        Acc {
            kv_calls: self.kv_calls.load(Relaxed),
            kv_ns: self.kv_ns.load(Relaxed),
            outer_ns: self.outer_ns.load(Relaxed),
            user_bytes: self.user_bytes.load(Relaxed),
            commits: self.commits.load(Relaxed),
            ckpt_ns: self.ckpt_ns.load(Relaxed),
            ckpts: self.ckpts.load(Relaxed),
        }
    }

    /// Account on-disk WAL growth since the previous sample.
    fn sample_wal(&self) {
        let mut w = lock(&self.wal);
        let size = std::fs::metadata(&w.path).map(|m| m.len()).unwrap_or(0);
        w.bytes += if size >= w.last {
            size - w.last
        } else {
            size.saturating_sub(WAL_HEADER)
        };
        w.last = size;
    }

    /// Handler spans recorded in the window.
    pub fn handlers(&self) -> Vec<HandlerSpan> {
        lock(&self.handlers).clone()
    }

    /// Fsync spans recorded in the window.
    pub fn fsyncs(&self) -> Vec<FsyncSpan> {
        lock(&self.fsyncs).clone()
    }

    /// WAL bytes written to disk during the window.
    pub fn wal_bytes(&self) -> u64 {
        lock(&self.wal).bytes
    }
}

/// The span store of one traced cluster.
pub struct Probe {
    /// Clock and switch.
    pub window: Arc<Window>,
    servers: Mutex<Vec<Arc<ServerProbe>>>,
}

impl Default for Probe {
    fn default() -> Self {
        Self::new()
    }
}

impl Probe {
    /// A closed window with no servers.
    pub fn new() -> Self {
        Self {
            window: Arc::new(Window {
                epoch: Instant::now(),
                on: AtomicBool::new(false),
            }),
            servers: Mutex::new(Vec::new()),
        }
    }

    /// Register a server whose WAL lives in `wal_dir`.
    pub fn server(&self, id: ServerId, wal_dir: PathBuf) -> Arc<ServerProbe> {
        let p = Arc::new(ServerProbe {
            id,
            window: self.window.clone(),
            kv_calls: AtomicU64::new(0),
            kv_ns: AtomicU64::new(0),
            outer_ns: AtomicU64::new(0),
            user_bytes: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            ckpt_ns: AtomicU64::new(0),
            ckpts: AtomicU64::new(0),
            handlers: Mutex::new(Vec::new()),
            fsyncs: Mutex::new(Vec::new()),
            wal: Mutex::new(WalSize {
                path: wal_dir.join("wal.log"),
                last: 0,
                bytes: 0,
            }),
        });
        lock(&self.servers).push(p.clone());
        p
    }

    /// Every registered server.
    pub fn servers(&self) -> Vec<Arc<ServerProbe>> {
        lock(&self.servers).clone()
    }

    /// Start recording (spans of earlier windows are dropped).
    pub fn open(&self) {
        for s in self.servers() {
            lock(&s.handlers).clear();
            lock(&s.fsyncs).clear();
            s.sample_wal();
            lock(&s.wal).bytes = 0;
        }
        self.window.on.store(true, Relaxed);
    }

    /// Stop recording.
    pub fn close(&self) {
        self.window.on.store(false, Relaxed);
        for s in self.servers() {
            s.sample_wal();
        }
    }
}

// ----- client → server RPC ---------------------------------------------

/// `Endpoint` decorator timing every RPC of a TCP endpoint.
pub struct TimedEndpoint<S: Service> {
    inner: TcpEndpoint<S>,
    window: Arc<Window>,
}

impl<S: Service> TimedEndpoint<S> {
    /// Wrap `inner`.
    pub fn new(inner: TcpEndpoint<S>, window: Arc<Window>) -> Self {
        Self { inner, window }
    }
}

/// Whether `req` mutates, from its wire tag, cached per label.
fn mutates<S: Service>(class: u8, req: &S::Req, label: &'static str) -> bool
where
    S::Req: Wire,
{
    MUTATES.with(|m| {
        let mut m = m.borrow_mut();
        if let Some(&(_, _, v)) = m.iter().find(|(c, l, _)| *c == class && *l == label) {
            return v;
        }
        let mut buf = Vec::new();
        req.put(&mut buf);
        let v = S::tag_mutates(buf[0]);
        m.push((class, label, v));
        v
    })
}

impl<S: Service> TimedEndpoint<S>
where
    S::Req: Wire,
    S::Resp: Wire,
{
    fn timed<T>(&self, req: S::Req, ok: impl Fn(&T) -> bool, call: impl FnOnce(S::Req) -> T) -> T {
        if !self.window.on() {
            return call(req);
        }
        let id = self.inner.id();
        let label = S::req_label(&req);
        let mutates = mutates::<S>(id.class, &req, label);
        let start = Instant::now();
        let r = call(req);
        let end = Instant::now();
        let span = RpcSpan {
            op: CUR_OP.with(|c| c.get()),
            server: id,
            label,
            mutates,
            start: self.window.ns(start),
            end: self.window.ns(end),
            ok: ok(&r),
        };
        RPCS.with(|v| v.borrow_mut().push(span));
        r
    }
}

impl<S> Endpoint<S::Req, S::Resp> for TimedEndpoint<S>
where
    S: Service,
    S::Req: Wire,
    S::Resp: Wire,
{
    fn call(&self, ctx: &mut CallCtx, req: S::Req) -> S::Resp {
        self.timed(req, |_| true, |req| self.inner.call(ctx, req))
    }

    fn id(&self) -> ServerId {
        self.inner.id()
    }

    fn is_down(&self) -> bool {
        self.inner.is_down()
    }

    fn try_call(&self, ctx: &mut CallCtx, req: S::Req) -> Result<S::Resp, RpcError> {
        self.timed(req, Result::is_ok, |req| self.inner.try_call(ctx, req))
    }
}

// ----- server handler and group-commit fsync ---------------------------

/// `Service` decorator timing `handle` and the staged group fsync.
/// Every other method forwards unchanged.
pub struct TimedService<S> {
    inner: S,
    probe: Arc<ServerProbe>,
}

impl<S> TimedService<S> {
    /// Wrap `inner`.
    pub fn new(inner: S, probe: Arc<ServerProbe>) -> Self {
        Self { inner, probe }
    }
}

impl<S: Service> Service for TimedService<S> {
    type Req = S::Req;
    type Resp = S::Resp;

    fn handle(&mut self, req: S::Req) -> S::Resp {
        let w = &self.probe.window;
        if !w.on() {
            return self.inner.handle(req);
        }
        let label = S::req_label(&req);
        let a = self.probe.acc();
        let start = Instant::now();
        let resp = self.inner.handle(req);
        let end = Instant::now();
        let b = self.probe.acc();
        let kv_ns = b.kv_ns - a.kv_ns;
        let span = HandlerSpan {
            thread: tid(),
            label,
            start: w.ns(start),
            end: w.ns(end),
            kv_calls: b.kv_calls - a.kv_calls,
            kv_ns,
            wal_ns: (b.outer_ns - a.outer_ns).saturating_sub(kv_ns),
            user_bytes: b.user_bytes - a.user_bytes,
            commits: b.commits - a.commits,
            ckpt_ns: b.ckpt_ns - a.ckpt_ns,
            ckpts: b.ckpts - a.ckpts,
        };
        lock(&self.probe.handlers).push(span);
        resp
    }

    fn take_cost(&mut self) -> loco_net::Nanos {
        self.inner.take_cost()
    }

    fn req_label(req: &S::Req) -> &'static str {
        S::req_label(req)
    }

    fn tag_mutates(tag: u8) -> bool {
        S::tag_mutates(tag)
    }

    fn req_idempotent(req: &S::Req) -> bool {
        S::req_idempotent(req)
    }

    fn span_attrs(&self) -> Vec<(&'static str, u64)> {
        self.inner.span_attrs()
    }

    fn maintain(&mut self, drain: bool) -> Option<MaintainReport> {
        self.inner.maintain(drain)
    }

    fn defer_sync(&mut self, on: bool) -> bool {
        self.inner.defer_sync(on)
    }

    fn take_commit_ticket(&mut self) -> Option<u64> {
        self.inner.take_commit_ticket()
    }

    fn commit_flush(&mut self) -> u64 {
        let start = Instant::now();
        let records = self.inner.commit_flush();
        let w = &self.probe.window;
        if records > 0 && w.on() {
            lock(&self.probe.fsyncs).push(FsyncSpan {
                thread: tid(),
                start: w.ns(start),
                end: w.now(),
                records,
            });
        }
        records
    }

    fn commit_flush_begin(&mut self) -> Option<(u64, CommitFsync)> {
        let (records, fsync) = self.inner.commit_flush_begin()?;
        let probe = self.probe.clone();
        let timed: CommitFsync = Box::new(move || {
            let start = Instant::now();
            fsync();
            let end = Instant::now();
            let w = &probe.window;
            if w.on() {
                lock(&probe.fsyncs).push(FsyncSpan {
                    thread: tid(),
                    start: w.ns(start),
                    end: w.ns(end),
                    records,
                });
            }
        });
        Some((records, timed))
    }

    fn take_repl_stamp(&mut self) -> Option<ReplStamp> {
        self.inner.take_repl_stamp()
    }

    fn commit_abort(&mut self) -> bool {
        self.inner.commit_abort()
    }
}

// ----- key-value store --------------------------------------------------

/// Which side of `DurableStore` a [`TimedKv`] sits on.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Wraps the in-memory store, inside `DurableStore`.
    Inner,
    /// Wraps `DurableStore` itself.
    Outer,
}

/// `KvStore` decorator timing every call.
pub struct TimedKv<K> {
    inner: K,
    probe: Arc<ServerProbe>,
    side: Side,
    depth: u32,
    dirty: bool,
}

impl<K: KvStore> TimedKv<K> {
    /// Wrap `inner` on `side`.
    pub fn new(inner: K, probe: Arc<ServerProbe>, side: Side) -> Self {
        Self {
            inner,
            probe,
            side,
            depth: 0,
            dirty: false,
        }
    }

    fn timed<T>(&mut self, f: impl FnOnce(&mut K) -> T) -> T {
        let start = Instant::now();
        let r = f(&mut self.inner);
        let ns = start.elapsed().as_nanos() as u64;
        match self.side {
            Side::Inner => {
                self.probe.kv_calls.fetch_add(1, Relaxed);
                self.probe.kv_ns.fetch_add(ns, Relaxed);
            }
            Side::Outer => {
                self.probe.outer_ns.fetch_add(ns, Relaxed);
            }
        }
        r
    }

    fn checkpoints(&self) -> u64 {
        self.inner.persistence().map_or(0, |p| p.checkpoints)
    }

    /// Run a call that may seal a WAL commit group (a commit, or a bare
    /// mutation outside any group) and account the group.
    fn sealing<T>(&mut self, f: impl FnOnce(&mut K) -> T) -> T {
        if self.depth > 0 || !std::mem::take(&mut self.dirty) {
            return self.timed(f);
        }
        let ckpts = self.checkpoints();
        let start = Instant::now();
        let r = self.timed(f);
        let p = &self.probe;
        let n = p.commits.fetch_add(1, Relaxed) + 1;
        if self.checkpoints() != ckpts {
            p.ckpt_ns
                .fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
            p.ckpts.fetch_add(1, Relaxed);
            p.sample_wal();
        } else if n.is_multiple_of(WAL_SAMPLE_EVERY) {
            p.sample_wal();
        }
        r
    }

    fn mutation<T>(&mut self, bytes: usize, f: impl FnOnce(&mut K) -> T) -> T {
        if self.side == Side::Inner {
            return self.timed(f);
        }
        self.probe.user_bytes.fetch_add(bytes as u64, Relaxed);
        self.dirty = true;
        self.sealing(f)
    }
}

impl<K: KvStore> KvStore for TimedKv<K> {
    fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        self.timed(|s| s.get(key))
    }
    fn put(&mut self, key: &[u8], value: &[u8]) {
        self.mutation(key.len() + value.len(), |s| s.put(key, value))
    }
    fn delete(&mut self, key: &[u8]) -> bool {
        self.mutation(key.len(), |s| s.delete(key))
    }
    fn contains(&mut self, key: &[u8]) -> bool {
        self.timed(|s| s.contains(key))
    }
    fn read_at(&mut self, key: &[u8], off: usize, len: usize) -> Option<Vec<u8>> {
        self.timed(|s| s.read_at(key, off, len))
    }
    fn write_at(&mut self, key: &[u8], off: usize, data: &[u8]) -> bool {
        self.mutation(key.len() + data.len(), |s| s.write_at(key, off, data))
    }
    fn append(&mut self, key: &[u8], data: &[u8]) {
        self.mutation(key.len() + data.len(), |s| s.append(key, data))
    }
    fn scan_prefix(&mut self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.timed(|s| s.scan_prefix(prefix))
    }
    fn extract_prefix(&mut self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.mutation(prefix.len(), |s| s.extract_prefix(prefix))
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn ordered(&self) -> bool {
        self.inner.ordered()
    }
    fn take_cost(&mut self) -> loco_net::Nanos {
        self.inner.take_cost()
    }
    fn stats(&self) -> AccessStats {
        self.inner.stats()
    }
    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }
    fn txn_begin(&mut self) {
        self.depth += 1;
        self.inner.txn_begin()
    }
    fn txn_commit(&mut self) {
        self.depth = self.depth.saturating_sub(1);
        match self.side {
            Side::Inner => self.inner.txn_commit(),
            Side::Outer => self.sealing(|s| s.txn_commit()),
        }
    }
    fn persist_checkpoint(&mut self) -> std::io::Result<bool> {
        self.inner.persist_checkpoint()
    }
    fn persist_sync(&mut self) -> std::io::Result<()> {
        self.inner.persist_sync()
    }
    fn persist_defer_sync(&mut self, on: bool) -> bool {
        self.inner.persist_defer_sync(on)
    }
    fn persist_take_ticket(&mut self) -> Option<u64> {
        self.inner.persist_take_ticket()
    }
    fn persist_commit_flush(&mut self) -> u64 {
        self.inner.persist_commit_flush()
    }
    fn persist_commit_flush_begin(&mut self) -> Option<(u64, Box<dyn FnOnce() + Send>)> {
        self.inner.persist_commit_flush_begin()
    }
    fn persistence(&self) -> Option<PersistenceStats> {
        self.inner.persistence()
    }
    fn repl_set_tap(&mut self, tap: CommitTap) -> bool {
        self.inner.repl_set_tap(tap)
    }
    fn repl_next_seq(&self) -> u64 {
        self.inner.repl_next_seq()
    }
    fn repl_apply_group(&mut self, group: &[u8]) -> Result<u64, String> {
        self.inner.repl_apply_group(group)
    }
    fn repl_snapshot_image(&mut self) -> Option<(u64, Vec<u8>)> {
        self.inner.repl_snapshot_image()
    }
    fn repl_install_snapshot(&mut self, env: &[u8]) -> Result<usize, String> {
        self.inner.repl_install_snapshot(env)
    }
}
