//! Service trait, per-operation call context, and the synchronous
//! simulated endpoint.

use crate::metrics::EndpointMetrics;
use loco_obs::trace::{OpTrace, TraceCtx, VisitSpan};
use loco_sim::des::{JobTrace, ServerId, Visit};
use loco_sim::time::Nanos;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

fn lock_ignoring_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A metadata or storage server: handles typed requests and reports the
/// virtual cost of each handler invocation.
pub trait Service: Send {
    /// Request message type.
    type Req: Send + 'static;
    /// Response message type.
    type Resp: Send + 'static;

    /// Process one request, mutating server state.
    fn handle(&mut self, req: Self::Req) -> Self::Resp;

    /// Drain the virtual cost accumulated by the last handler run
    /// (typically the sum of the KV stores' cost accumulators plus
    /// fixed per-request software overhead).
    fn take_cost(&mut self) -> Nanos;

    /// Short static label describing the request's RPC type, used to
    /// bucket per-op service-time histograms (e.g. `"Mkdir"`). The
    /// default collapses every request into a single bucket.
    fn req_label(_req: &Self::Req) -> &'static str {
        "req"
    }

    /// Whether the request behind a given wire body tag mutates server
    /// state. Consulted by the overloaded server *before decoding* the
    /// request body, so sheds stay cheap: mutations past the admission
    /// watermark are rejected with `Overloaded` while reads drain. The
    /// conservative default treats every tag as a mutation (sheddable —
    /// never lets an unknown tag bypass admission control).
    fn tag_mutates(_tag: u8) -> bool {
        true
    }

    /// Whether retrying this request after an *ambiguous* failure
    /// (timeout or connection loss — the ack may or may not have been
    /// applied) is safe. Idempotent requests (reads, absolute-value
    /// sets) may be re-sent blindly; for the rest the client surfaces
    /// [`RpcError::MaybeApplied`] on exhaustion instead of pretending
    /// the op never ran. The conservative default is non-idempotent.
    fn req_idempotent(_req: &Self::Req) -> bool {
        false
    }

    /// Numeric span attributes describing the *last* handled request —
    /// typically the software-vs-KV split of `take_cost` plus KV byte
    /// volumes. Read after `take_cost`, for traced calls and for
    /// metered endpoints (the `kv_ns` attr feeds the always-on
    /// `loco_op_kv_nanos` counter behind the daemon-side folded
    /// profile). The default reports nothing.
    fn span_attrs(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }

    /// Background persistence maintenance, invoked by the hosting
    /// endpoint between requests (never mid-handler): periodically with
    /// `drain == false` (flush buffered durability state) and once at
    /// shutdown with `drain == true` (write a final checkpoint so the
    /// next boot recovers from a short log). Returns `None` for purely
    /// in-memory services — the default.
    fn maintain(&mut self, _drain: bool) -> Option<MaintainReport> {
        None
    }

    // ----- group commit (cross-connection WAL fsync batching) --------

    /// Switch deferred group fsync on or off; returns whether deferral
    /// is active afterwards. While active, mutation handlers append +
    /// flush their WAL groups but leave the fsync to a staged
    /// [`Service::commit_flush_begin`], and every mutating request takes
    /// a commit ticket that the hosting server must hold the reply on
    /// until the staged fsync runs. Volatile services — the default —
    /// return `false`.
    fn defer_sync(&mut self, _on: bool) -> bool {
        false
    }

    /// Take the commit ticket of the request just handled: `Some(seq)`
    /// when its durability is still pending (reply must wait for a
    /// [`Service::commit_flush_begin`] stage), `None` when the reply may
    /// leave immediately.
    fn take_commit_ticket(&mut self) -> Option<u64> {
        None
    }

    /// Fsync every deferred commit group in one batch; returns how
    /// many WAL records the fsync covered (0 when nothing was
    /// pending). Nothing in the workspace calls it: durable replies
    /// leave only through [`Service::commit_flush_begin`]. It stays
    /// declared because the wall-clock benchmark's service decorator
    /// overrides it, and goes when the durability hooks move behind one
    /// handle (ROADMAP item 8(a)).
    fn commit_flush(&mut self) -> u64 {
        0
    }

    /// Stage the deferred batch fsync: push buffered WAL bytes to the
    /// OS *under the service lock* and return `(records, fsync)` where
    /// `fsync` must run — possibly without the lock — before any
    /// covered reply leaves. Releasing the lock during the fsync lets
    /// request handling continue, so the next batch grows while this
    /// one syncs (the classic group-commit overlap). `None` when
    /// nothing was pending.
    fn commit_flush_begin(&mut self) -> Option<(u64, CommitFsync)> {
        None
    }

    // ----- replication (warm-standby fencing) -------------------------

    /// Replication stamp for the reply of the request just handled:
    /// the server's fencing epoch plus whether the request was
    /// *rejected* because this server is not the primary. Read after
    /// `handle`, attached to every TCP reply. `None` — the default —
    /// for unreplicated services.
    fn take_repl_stamp(&mut self) -> Option<crate::rpc::ReplStamp> {
        None
    }

    /// After the staged group-commit fsync ran: `true` when the batch
    /// failed its replication ack quorum (or the node fenced mid-batch)
    /// and the parked replies must be **dropped**, not sent — the
    /// clients time out and retry against the new primary, so nothing
    /// unreplicated is ever acknowledged. The default never aborts.
    fn commit_abort(&mut self) -> bool {
        false
    }
}

/// The out-of-lock half of a staged [`Service::commit_flush_begin`]:
/// fsyncs the WAL bytes the stage covered. Must be run before any
/// covered reply is sent; a failure aborts the process (never ack what
/// might not be durable).
pub type CommitFsync = Box<dyn FnOnce() + Send>;

/// What a [`Service::maintain`] pass observed/did; mirrored into the
/// daemon's persistence gauges.
#[derive(Clone, Debug, Default)]
pub struct MaintainReport {
    /// Records currently in the write-ahead log.
    pub wal_records: u64,
    /// WAL records replayed at the last recovery.
    pub replayed_records: u64,
    /// Records loaded from the snapshot at the last recovery.
    pub snapshot_records: u64,
    /// Checkpoints written since the store was opened.
    pub checkpoints: u64,
    /// WAL fsyncs issued since the store was opened.
    pub wal_fsyncs: u64,
    /// This maintain pass wrote a checkpoint.
    pub checkpointed: bool,
}

/// Per-operation context threaded through every RPC a filesystem
/// operation makes. Collects the visit trace that drives both latency
/// and throughput figures, and — when the op was head-sampled — the
/// causal span tree ([`OpTrace`]) that attributes where the time went.
#[derive(Clone, Debug, Default)]
pub struct CallCtx {
    visits: Vec<Visit>,
    client_work: Nanos,
    /// Present only for sampled ops; boxed so the untraced hot path
    /// stays one pointer wide.
    trace: Option<Box<OpTrace>>,
    /// Wall-clock point after which the operation's caller no longer
    /// cares about the result. Propagated as a remaining-budget field
    /// in every request frame so servers can drop dead work.
    deadline: Option<Instant>,
}

impl CallCtx {
    /// Create a new instance with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one server visit.
    pub fn record(&mut self, server: ServerId, service: Nanos) {
        self.visits.push(Visit { server, service });
    }

    // ----- deadline budget ------------------------------------------

    /// Give the current operation a wall-clock deadline, measured from
    /// now. Every subsequent RPC encodes the *remaining* budget into
    /// its request frame; servers drop the request once it expires.
    pub fn set_deadline(&mut self, budget: std::time::Duration) {
        self.deadline = Some(Instant::now() + budget);
    }

    /// Clear the operation deadline (ops after this call carry no
    /// budget and are never expired server-side).
    pub fn clear_deadline(&mut self) {
        self.deadline = None;
    }

    /// Budget left before the operation deadline: `None` when no
    /// deadline is set, `Some(ZERO)` once it has passed.
    pub fn remaining_budget(&self) -> Option<std::time::Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    // ----- span tracing ---------------------------------------------

    /// Begin tracing this operation (the caller's head-based sampling
    /// decision). Every subsequent RPC records an attributed span until
    /// [`Self::take_op_trace`].
    pub fn start_trace(&mut self, trace_id: u64) {
        self.trace = Some(Box::new(OpTrace::new(trace_id)));
    }

    /// Whether the current op is being traced.
    pub fn is_traced(&self) -> bool {
        self.trace.is_some()
    }

    /// The propagation context the *next* RPC would carry (the root
    /// span of the in-flight op), if tracing.
    pub fn trace_ctx(&self) -> Option<TraceCtx> {
        self.trace.as_ref().map(|t| t.root)
    }

    /// Attach a string attribute to the op's root span (path, cache
    /// outcome, …). No-op when untraced.
    pub fn annotate(&mut self, key: &str, value: impl Into<String>) {
        if let Some(t) = &mut self.trace {
            t.attrs.push((key.to_string(), value.into()));
        }
    }

    /// Record one attributed visit span (called by endpoints alongside
    /// [`Self::record`]). No-op when untraced.
    pub fn record_span(
        &mut self,
        server: ServerId,
        op: &'static str,
        service: Nanos,
        queue: Nanos,
        attrs: Vec<(&'static str, u64)>,
    ) {
        if let Some(t) = &mut self.trace {
            let ctx = t.child_ctx();
            t.spans.push(VisitSpan {
                span_id: ctx.span_id,
                parent: ctx.parent,
                class: server.class,
                index: server.index,
                server: format!(
                    "{}{}",
                    crate::metrics::role_name(server.class),
                    server.index
                ),
                op: op.to_string(),
                queue_ns: queue,
                service_ns: service,
                attrs,
            });
        }
    }

    /// Finish the traced op: drain the span buffer (None if the op was
    /// not sampled). Call before [`Self::take_trace`].
    pub fn take_op_trace(&mut self) -> Option<Box<OpTrace>> {
        self.trace.take()
    }

    /// Charge client-side CPU work (path parsing, cache management).
    pub fn charge_client(&mut self, ns: Nanos) {
        self.client_work += ns;
    }

    /// Number of round trips made so far.
    pub fn round_trips(&self) -> usize {
        self.visits.len()
    }

    /// Visits recorded so far.
    pub fn visits(&self) -> &[Visit] {
        &self.visits
    }

    /// Finish the operation: drain into a replayable trace.
    pub fn take_trace(&mut self) -> JobTrace {
        JobTrace {
            visits: std::mem::take(&mut self.visits),
            client_work: std::mem::replace(&mut self.client_work, 0),
        }
    }
}

/// Why an RPC failed at the transport layer. In-process endpoints never
/// fail (a dead server thread is a harness bug, not a fault to model);
/// the TCP transport surfaces these, and the client maps exhaustion to
/// `EIO` exactly like the failure-injection paths.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RpcError {
    /// Could not establish a connection.
    Connect(String),
    /// The connection dropped before the response arrived.
    ConnectionLost(String),
    /// The per-call deadline elapsed with no response.
    Timeout {
        /// The deadline that fired, in milliseconds.
        deadline_ms: u64,
    },
    /// The peer sent bytes that failed frame or codec validation.
    Decode(String),
    /// The server rejected the request because it is not the primary
    /// (fenced or standby) at the carried epoch. Not retried against
    /// the same address beyond one fast-path attempt — the caller must
    /// redial through an updated cluster view.
    FencedEpoch {
        /// The server's fencing epoch.
        epoch: u64,
    },
    /// The server shed the request at admission (past its inflight or
    /// queue watermark) without decoding or executing it. Retryable
    /// after a capped pushback delay — never an immediate redial.
    Overloaded,
    /// The request's deadline budget ran out — either client-side
    /// before sending, or server-side while the request sat in a
    /// queue. The op was *not* executed. Not retried: the caller
    /// already stopped caring.
    Expired,
    /// A non-idempotent request exhausted its retries on an
    /// *ambiguous* failure (timeout / connection loss after the bytes
    /// left): the mutation may or may not have been applied. The
    /// caller must reconcile (e.g. treat `AlreadyExists` on re-issue
    /// as success) rather than blindly re-send.
    MaybeApplied {
        /// How many attempts were made.
        attempts: u32,
        /// The ambiguous error of the last attempt.
        last: Box<RpcError>,
    },
    /// The per-address circuit breaker is open after consecutive
    /// exhaustions: the call failed fast without touching the network.
    /// The breaker half-opens with a probe once the cooldown elapses.
    CircuitOpen {
        /// Cooldown before the next half-open probe, in milliseconds.
        cooldown_ms: u64,
    },
    /// The encoded request exceeds the frame payload limit
    /// ([`crate::frame::MAX_PAYLOAD`]), so it was refused before any
    /// connection was dialed: nothing was sent and nothing executed.
    /// Not retried — resending the same bytes can only fail the same
    /// way.
    TooLarge {
        /// Length of the encoded request, in bytes.
        len: usize,
    },
    /// All retry attempts failed; carries the final attempt's error.
    Exhausted {
        /// How many attempts were made.
        attempts: u32,
        /// The error of the last attempt.
        last: Box<RpcError>,
    },
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::Connect(e) => write!(f, "connect failed: {e}"),
            RpcError::ConnectionLost(e) => write!(f, "connection lost: {e}"),
            RpcError::Timeout { deadline_ms } => {
                write!(f, "rpc deadline ({deadline_ms} ms) elapsed")
            }
            RpcError::Decode(e) => write!(f, "undecodable reply: {e}"),
            RpcError::FencedEpoch { epoch } => {
                write!(f, "server fenced (not primary, epoch {epoch})")
            }
            RpcError::Overloaded => {
                write!(f, "server overloaded (request shed at admission)")
            }
            RpcError::Expired => {
                write!(f, "request deadline budget expired before execution")
            }
            RpcError::MaybeApplied { attempts, last } => {
                write!(
                    f,
                    "non-idempotent rpc ambiguous after {attempts} attempts \
                     (may have been applied): {last}"
                )
            }
            RpcError::CircuitOpen { cooldown_ms } => {
                write!(f, "circuit breaker open (retry in {cooldown_ms} ms)")
            }
            RpcError::TooLarge { len } => write!(
                f,
                "request of {len} bytes over the {} byte frame limit; not sent",
                crate::frame::MAX_PAYLOAD
            ),
            RpcError::Exhausted { attempts, last } => {
                write!(f, "rpc failed after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for RpcError {}

/// Anything a client can send requests to.
pub trait Endpoint<Req, Resp>: Send + Sync {
    /// Issue one request, recording the visit into `ctx`.
    fn call(&self, ctx: &mut CallCtx, req: Req) -> Resp;

    /// Stable identity of the server behind this endpoint.
    fn id(&self) -> ServerId;

    /// Whether the server is currently marked unreachable (failure
    /// injection). Clients must check before calling; calling a down
    /// endpoint is a caller bug.
    fn is_down(&self) -> bool {
        false
    }

    /// Issue one request, surfacing transport failures instead of
    /// panicking. In-process endpoints cannot fail, so the default
    /// simply delegates to [`Endpoint::call`]; the TCP endpoint
    /// overrides this with its deadline/retry machinery.
    fn try_call(&self, ctx: &mut CallCtx, req: Req) -> Result<Resp, RpcError> {
        Ok(self.call(ctx, req))
    }
}

/// Synchronous in-process endpoint: the handler runs on the caller's
/// thread; timing is purely virtual. Cloning shares the same server.
pub struct SimEndpoint<S: Service> {
    svc: Arc<Mutex<S>>,
    id: ServerId,
    down: Arc<std::sync::atomic::AtomicBool>,
    metrics: Option<Arc<EndpointMetrics>>,
}

impl<S: Service> Clone for SimEndpoint<S> {
    fn clone(&self) -> Self {
        Self {
            svc: Arc::clone(&self.svc),
            id: self.id,
            down: Arc::clone(&self.down),
            metrics: self.metrics.clone(),
        }
    }
}

impl<S: Service> SimEndpoint<S> {
    /// Create a new instance with default settings.
    pub fn new(id: ServerId, svc: S) -> Self {
        Self {
            svc: Arc::new(Mutex::new(svc)),
            id,
            down: Arc::new(std::sync::atomic::AtomicBool::new(false)),
            metrics: None,
        }
    }

    /// Attach per-endpoint instrumentation (builder style). Every
    /// clone made afterwards shares the same metric handles.
    pub fn with_metrics(mut self, metrics: Arc<EndpointMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The instrumentation attached via [`Self::with_metrics`], if any.
    pub fn metrics(&self) -> Option<&Arc<EndpointMetrics>> {
        self.metrics.as_ref()
    }

    /// Failure injection: mark the server unreachable (or back up).
    /// Affects every clone of this endpoint — all clients see the
    /// outage.
    pub fn set_down(&self, down: bool) {
        self.down.store(down, std::sync::atomic::Ordering::SeqCst);
    }

    /// Direct access to the underlying service for test setup and
    /// inspection (not part of the RPC surface).
    pub fn with_service<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut lock_ignoring_poison(&self.svc))
    }
}

impl<S: Service> Endpoint<S::Req, S::Resp> for SimEndpoint<S> {
    fn call(&self, ctx: &mut CallCtx, req: S::Req) -> S::Resp {
        debug_assert!(!self.is_down(), "call to a down endpoint");
        let traced = ctx.is_traced();
        let op = (self.metrics.is_some() || traced).then(|| {
            if let Some(m) = &self.metrics {
                m.begin();
            }
            (S::req_label(&req), Instant::now())
        });
        // In-process transports correlate logs the same way the TCP
        // dispatch sites do: a thread-local span scope over the handler.
        let _span = ctx
            .trace_ctx()
            .filter(|t| t.sampled)
            .map(|t| loco_log::span_scope(t.trace_id, t.span_id as u64));
        let mut svc = lock_ignoring_poison(&self.svc);
        let queue_wait = op
            .as_ref()
            .map(|(_, t0)| t0.elapsed().as_nanos() as Nanos)
            .unwrap_or(0);
        let alloc0 = op.as_ref().map(|_| loco_obs::alloc::snapshot());
        let resp = svc.handle(req);
        let (allocs, alloc_bytes) = alloc0.map(|s| s.delta()).unwrap_or((0, 0));
        let service = svc.take_cost();
        let attrs = op.as_ref().map(|_| svc.span_attrs());
        drop(svc);
        ctx.record(self.id, service);
        if let Some((label, _)) = op {
            let mut attrs = attrs.unwrap_or_default();
            if let Some(m) = &self.metrics {
                let kv_ns = attrs
                    .iter()
                    .find(|(k, _)| *k == "kv_ns")
                    .map(|(_, v)| *v)
                    .unwrap_or(0);
                m.observe_profiled(label, service, queue_wait, kv_ns, allocs, alloc_bytes);
            }
            if traced {
                attrs.push(("allocs", allocs));
                attrs.push(("alloc_bytes", alloc_bytes));
                ctx.record_span(self.id, label, service, queue_wait, attrs);
            }
        }
        resp
    }

    fn id(&self) -> ServerId {
        self.id
    }

    fn is_down(&self) -> bool {
        self.down.load(std::sync::atomic::Ordering::SeqCst)
    }
}

#[cfg(test)]
pub(crate) mod test_service {
    use super::*;
    use loco_sim::time::CostAcc;

    /// Toy echo service used by endpoint tests: replies with the sum and
    /// charges `cost_per_req` per request.
    pub struct Adder {
        pub total: u64,
        pub cost_per_req: Nanos,
        pub acc: CostAcc,
    }

    impl Adder {
        pub fn new(cost_per_req: Nanos) -> Self {
            Self {
                total: 0,
                cost_per_req,
                acc: CostAcc::new(),
            }
        }
    }

    impl Service for Adder {
        type Req = u64;
        type Resp = u64;

        fn handle(&mut self, req: u64) -> u64 {
            self.total += req;
            self.acc.charge(self.cost_per_req);
            self.total
        }

        fn take_cost(&mut self) -> Nanos {
            self.acc.take()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_service::Adder;
    use super::*;
    use loco_sim::time::MICROS;

    #[test]
    fn sim_endpoint_executes_and_records() {
        let ep = SimEndpoint::new(ServerId::new(3, 7), Adder::new(5 * MICROS));
        let mut ctx = CallCtx::new();
        assert_eq!(ep.call(&mut ctx, 10), 10);
        assert_eq!(ep.call(&mut ctx, 5), 15);
        assert_eq!(ctx.round_trips(), 2);
        assert_eq!(ctx.visits()[0].server, ServerId::new(3, 7));
        assert_eq!(ctx.visits()[0].service, 5 * MICROS);
    }

    #[test]
    fn clones_share_server_state() {
        let ep = SimEndpoint::new(ServerId::new(0, 0), Adder::new(0));
        let ep2 = ep.clone();
        let mut ctx = CallCtx::new();
        ep.call(&mut ctx, 1);
        assert_eq!(ep2.call(&mut ctx, 1), 2);
    }

    #[test]
    fn trace_drains_ctx() {
        let ep = SimEndpoint::new(ServerId::new(0, 0), Adder::new(MICROS));
        let mut ctx = CallCtx::new();
        ep.call(&mut ctx, 1);
        ctx.charge_client(500);
        let trace = ctx.take_trace();
        assert_eq!(trace.visits.len(), 1);
        assert_eq!(trace.client_work, 500);
        assert_eq!(ctx.round_trips(), 0);
        assert_eq!(ctx.take_trace().visits.len(), 0);
    }

    #[test]
    fn unloaded_latency_counts_round_trips() {
        let ep = SimEndpoint::new(ServerId::new(0, 0), Adder::new(MICROS));
        let mut ctx = CallCtx::new();
        ep.call(&mut ctx, 1);
        ep.call(&mut ctx, 1);
        let t = ctx.take_trace();
        let rtt = 174 * MICROS;
        assert_eq!(t.unloaded_latency(rtt), 2 * rtt + 2 * MICROS);
    }

    #[test]
    fn down_flag_is_shared_across_clones() {
        let ep = SimEndpoint::new(ServerId::new(0, 0), Adder::new(0));
        let clone = ep.clone();
        assert!(!ep.is_down());
        clone.set_down(true);
        assert!(ep.is_down(), "clones share the outage flag");
        ep.set_down(false);
        assert!(!clone.is_down());
    }

    #[test]
    fn untraced_ctx_records_no_spans() {
        let ep = SimEndpoint::new(ServerId::new(0, 0), Adder::new(MICROS));
        let mut ctx = CallCtx::new();
        ep.call(&mut ctx, 1);
        ctx.annotate("path", "/ignored");
        assert!(!ctx.is_traced());
        assert!(ctx.trace_ctx().is_none());
        assert!(ctx.take_op_trace().is_none());
    }

    #[test]
    fn traced_ctx_collects_attributed_spans() {
        let ep = SimEndpoint::new(ServerId::new(crate::class::FMS, 3), Adder::new(2 * MICROS));
        let mut ctx = CallCtx::new();
        ctx.start_trace(42);
        assert_eq!(ctx.trace_ctx().unwrap().trace_id, 42);
        ctx.annotate("path", "/a/b");
        ep.call(&mut ctx, 1);
        ep.call(&mut ctx, 2);
        let t = ctx.take_op_trace().expect("sampled op has a trace");
        assert_eq!(t.root.trace_id, 42);
        assert_eq!(t.attrs, vec![("path".to_string(), "/a/b".to_string())]);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].server, "fms3");
        assert_eq!(t.spans[0].service_ns, 2 * MICROS);
        assert_eq!((t.spans[0].span_id, t.spans[0].parent), (2, 1));
        assert_eq!((t.spans[1].span_id, t.spans[1].parent), (3, 1));
        // The visit trace is unaffected by tracing.
        assert_eq!(ctx.take_trace().visits.len(), 2);
        assert!(ctx.take_op_trace().is_none(), "buffer drains once");
    }

    #[test]
    fn with_service_allows_inspection() {
        let ep = SimEndpoint::new(ServerId::new(0, 0), Adder::new(0));
        let mut ctx = CallCtx::new();
        ep.call(&mut ctx, 41);
        ep.call(&mut ctx, 1);
        assert_eq!(ep.with_service(|s| s.total), 42);
    }
}
