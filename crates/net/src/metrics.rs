//! Per-endpoint instrumentation.
//!
//! An [`EndpointMetrics`] bundles the handles one server endpoint
//! records into: a request counter, service-time and queue-wait
//! histograms, an in-flight gauge, and a lazily-built per-RPC-type
//! histogram family. All handles live in a shared
//! [`MetricsRegistry`], labelled by server `role` (`dms`/`fms`/`ost`/
//! `mds`) and `server` index, so one registry snapshot covers the whole
//! cluster.
//!
//! Metric families (all `loco_`-prefixed — the whole export namespace
//! is uniform so one scrape filter catches everything):
//!
//! * `loco_rpc_requests_total{role,server}` — requests handled;
//! * `loco_rpc_service_nanos{role,server}` — virtual service time per
//!   request (the same [`Nanos`] cost recorded into the visit trace,
//!   so histogram sums equal trace sums — the integration tests rely
//!   on this);
//! * `loco_rpc_queue_wait_nanos{role,server}` — *real* nanoseconds a
//!   request waited before its handler ran (the wait for the service
//!   lock, in `SimEndpoint` and in the TCP server core alike);
//! * `loco_rpc_op_service_nanos{role,server,op}` — service time split
//!   by RPC type (from [`Service::req_label`]);
//! * `loco_rpc_inflight{role,server}` — requests currently being
//!   handled;
//! * `loco_op_kv_nanos{role,server,op}` — KV-store share of the
//!   service time, per RPC type (feeds the daemon-side folded-stack
//!   profile, `loco_obs::fold_snapshot`);
//! * `loco_alloc_per_op{role,server,op}` /
//!   `loco_alloc_bytes_per_op{role,server,op}` — heap allocations and
//!   bytes the handler performed per request (loco-prof counting
//!   allocator; recorded by the server dispatch paths, always on);
//! * `loco_rpc_retries_total{role,server}` — retry attempts the client
//!   spent against this endpoint (loco-guard retry-budget accounting);
//! * `loco_rpc_brkr_trips_total{role,server}` — client circuit-breaker
//!   trips for this endpoint's address.
//!
//! [`Service::req_label`]: crate::Service::req_label

use loco_obs::{Counter, Gauge, LogHistogram, MetricsRegistry};
use loco_sim::des::ServerId;
use loco_sim::time::Nanos;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Human-readable role name for a [`ServerId::class`].
pub fn role_name(class: u8) -> &'static str {
    match class {
        crate::class::DMS => "dms",
        crate::class::FMS => "fms",
        crate::class::OST => "ost",
        crate::class::MDS => "mds",
        _ => "srv",
    }
}

/// Instrumentation handles for one server endpoint. Cheap to share
/// (`Arc`); all recording is lock-free except the first time a new RPC
/// type label is seen.
pub struct EndpointMetrics {
    registry: Arc<MetricsRegistry>,
    role: &'static str,
    server: String,
    requests: Arc<Counter>,
    service: Arc<LogHistogram>,
    queue_wait: Arc<LogHistogram>,
    inflight: Arc<Gauge>,
    retries: Arc<Counter>,
    brkr_trips: Arc<Counter>,
    per_op: Mutex<HashMap<&'static str, OpHandles>>,
}

/// Lazily-built per-RPC-type handles (one entry per distinct
/// `req_label` an endpoint serves).
#[derive(Clone)]
struct OpHandles {
    service: Arc<LogHistogram>,
    allocs: Arc<LogHistogram>,
    alloc_bytes: Arc<LogHistogram>,
    kv_nanos: Arc<Counter>,
}

impl EndpointMetrics {
    /// Register the endpoint's metric family in `registry`.
    pub fn register(registry: &Arc<MetricsRegistry>, id: ServerId) -> Arc<Self> {
        let role = role_name(id.class);
        let server = id.index.to_string();
        let labels: [(&str, &str); 2] = [("role", role), ("server", &server)];
        Arc::new(Self {
            requests: registry.counter("loco_rpc_requests_total", &labels),
            service: registry.histogram("loco_rpc_service_nanos", &labels),
            queue_wait: registry.histogram("loco_rpc_queue_wait_nanos", &labels),
            inflight: registry.gauge("loco_rpc_inflight", &labels),
            retries: registry.counter("loco_rpc_retries_total", &labels),
            brkr_trips: registry.counter("loco_rpc_brkr_trips_total", &labels),
            registry: registry.clone(),
            role,
            server,
            per_op: Mutex::new(HashMap::new()),
        })
    }

    /// Mark a request as started (in-flight gauge up).
    #[inline]
    pub fn begin(&self) {
        self.inflight.inc();
    }

    /// Undo [`begin`](Self::begin) for a request that was dropped
    /// before its handler ran (loco-guard deadline expiry): the
    /// in-flight gauge drops without counting a handled request.
    #[inline]
    pub fn abort(&self) {
        self.inflight.dec();
    }

    /// Record a completed request: `op` is the RPC-type label,
    /// `service` the virtual handler cost, `queue_wait` the real wait
    /// before the handler ran. Also drops the in-flight gauge.
    pub fn observe(&self, op: &'static str, service: Nanos, queue_wait: Nanos) {
        self.requests.inc();
        self.service.record(service);
        self.queue_wait.record(queue_wait);
        self.op_handles(op).service.record(service);
        self.inflight.dec();
    }

    /// [`observe`](Self::observe) plus loco-prof resource attribution:
    /// the handler's KV-time share (from its span attrs) and the heap
    /// traffic the counting allocator charged to it. Server dispatch
    /// paths use this; client-side mirrors use plain `observe` (a
    /// client thread's allocations are charged per *op*, not per RPC).
    pub fn observe_profiled(
        &self,
        op: &'static str,
        service: Nanos,
        queue_wait: Nanos,
        kv_ns: u64,
        allocs: u64,
        alloc_bytes: u64,
    ) {
        self.requests.inc();
        self.service.record(service);
        self.queue_wait.record(queue_wait);
        let h = self.op_handles(op);
        h.service.record(service);
        h.allocs.record(allocs);
        h.alloc_bytes.record(alloc_bytes);
        if kv_ns > 0 {
            h.kv_nanos.add(kv_ns);
        }
        self.inflight.dec();
    }

    fn op_handles(&self, op: &'static str) -> OpHandles {
        let mut map = self.per_op.lock().unwrap_or_else(PoisonError::into_inner);
        map.entry(op)
            .or_insert_with(|| {
                let labels = [
                    ("role", self.role),
                    ("server", self.server.as_str()),
                    ("op", op),
                ];
                OpHandles {
                    service: self
                        .registry
                        .histogram("loco_rpc_op_service_nanos", &labels),
                    allocs: self.registry.histogram("loco_alloc_per_op", &labels),
                    alloc_bytes: self.registry.histogram("loco_alloc_bytes_per_op", &labels),
                    kv_nanos: self.registry.counter("loco_op_kv_nanos", &labels),
                }
            })
            .clone()
    }

    /// The registry this endpoint reports into.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Requests handled so far.
    pub fn requests(&self) -> u64 {
        self.requests.get()
    }

    /// Requests currently in flight.
    pub fn inflight(&self) -> i64 {
        self.inflight.get()
    }

    /// Sum of all recorded service time, in nanoseconds.
    pub fn service_total(&self) -> u64 {
        self.service.sum()
    }

    /// A retry attempt was spent against this endpoint (loco-guard
    /// retry budget accounting — first attempts are not retries).
    #[inline]
    pub fn retry(&self) {
        self.retries.inc();
    }

    /// The per-address circuit breaker tripped open.
    #[inline]
    pub fn breaker_trip(&self) {
        self.brkr_trips.inc();
    }

    /// Retries recorded so far (test hook).
    pub fn retries(&self) -> u64 {
        self.retries.get()
    }

    /// Breaker trips recorded so far (test hook).
    pub fn breaker_trips(&self) -> u64 {
        self.brkr_trips.get()
    }
}

/// Instrumentation for the event-driven server core itself (as opposed
/// to the per-request [`EndpointMetrics`]): connection lifecycle,
/// readiness-loop activity and WAL group-commit behaviour.
///
/// Metric families (all labelled `role`/`server`):
///
/// * `loco_srv_open_conns` — currently open connections;
/// * `loco_srv_conns_shed_total` — connections dropped at accept
///   because `--max-conns` was reached;
/// * `loco_epoll_wakeups_total` — readiness-loop wakeups (poll returns)
///   across the acceptor and all workers;
/// * `loco_srv_pipeline_depth` — requests parsed per readable pass on
///   one connection (the observed client pipelining depth);
/// * `loco_wal_batch_size` — WAL records covered by one group-commit
///   fsync. `sum > count` proves cross-connection batching happened;
/// * `loco_wal_fsync_nanos` — wall time of one group-commit fsync (for
///   a replicated primary, including its standby-quorum wait);
/// * `loco_wal_commit_wait_nanos` — wall time one durable reply stayed
///   parked with the group committer, until the fsync covering its
///   records returned;
/// * `loco_server_shed{reason}` — requests rejected at admission
///   (loco-guard), split by `reason="inflight"` (per-server parked
///   mutations over `--max-inflight`) vs `reason="queue"` (group-commit
///   queue over `--shed-watermark`);
/// * `loco_server_expired{op}` — requests dropped because their
///   deadline budget ran out in a server queue (never executed, never
///   fsynced).
pub struct ServerMetrics {
    registry: Arc<MetricsRegistry>,
    role: &'static str,
    server: String,
    open_conns: Arc<Gauge>,
    conns_shed: Arc<Counter>,
    wakeups: Arc<Counter>,
    pipeline_depth: Arc<LogHistogram>,
    wal_batch: Arc<LogHistogram>,
    wal_fsync: Arc<LogHistogram>,
    commit_wait: Arc<LogHistogram>,
    shed_inflight: Arc<Counter>,
    shed_queue: Arc<Counter>,
    expired_unknown: Arc<Counter>,
    expired_per_op: Mutex<HashMap<&'static str, Arc<Counter>>>,
}

impl ServerMetrics {
    /// Register the server-core metric family in `registry`.
    pub fn register(registry: &Arc<MetricsRegistry>, id: ServerId) -> Arc<Self> {
        let role = role_name(id.class);
        let server = id.index.to_string();
        let labels: [(&str, &str); 2] = [("role", role), ("server", &server)];
        Arc::new(Self {
            open_conns: registry.gauge("loco_srv_open_conns", &labels),
            conns_shed: registry.counter("loco_srv_conns_shed_total", &labels),
            wakeups: registry.counter("loco_epoll_wakeups_total", &labels),
            pipeline_depth: registry.histogram("loco_srv_pipeline_depth", &labels),
            wal_batch: registry.histogram("loco_wal_batch_size", &labels),
            wal_fsync: registry.histogram("loco_wal_fsync_nanos", &labels),
            commit_wait: registry.histogram("loco_wal_commit_wait_nanos", &labels),
            shed_inflight: registry.counter(
                "loco_server_shed",
                &[("role", role), ("server", &server), ("reason", "inflight")],
            ),
            shed_queue: registry.counter(
                "loco_server_shed",
                &[("role", role), ("server", &server), ("reason", "queue")],
            ),
            expired_unknown: registry.counter(
                "loco_server_expired",
                &[("role", role), ("server", &server), ("op", "?")],
            ),
            registry: registry.clone(),
            role,
            server,
            expired_per_op: Mutex::new(HashMap::new()),
        })
    }

    /// A connection was accepted.
    #[inline]
    pub fn conn_opened(&self) {
        self.open_conns.inc();
    }

    /// A connection was closed.
    #[inline]
    pub fn conn_closed(&self) {
        self.open_conns.dec();
    }

    /// A connection was refused because the open-connection cap was
    /// reached.
    #[inline]
    pub fn conn_shed(&self) {
        self.conns_shed.inc();
    }

    /// One readiness-loop wakeup (a `poll`/`epoll_wait` return).
    #[inline]
    pub fn wakeup(&self) {
        self.wakeups.inc();
    }

    /// `n` requests were parsed from one connection in one readable
    /// pass.
    #[inline]
    pub fn pipeline_depth(&self, n: u64) {
        self.pipeline_depth.record(n);
    }

    /// One group-commit fsync covered `records` WAL records.
    #[inline]
    pub fn wal_batch(&self, records: u64) {
        self.wal_batch.record(records);
    }

    /// One group-commit fsync took `d` of wall time.
    #[inline]
    pub fn wal_fsync(&self, d: Duration) {
        self.wal_fsync.record(d.as_nanos() as u64);
    }

    /// One durable reply stayed parked for `d` before its release.
    #[inline]
    pub fn commit_wait(&self, d: Duration) {
        self.commit_wait.record(d.as_nanos() as u64);
    }

    /// A mutation was shed at admission because the per-server parked
    /// inflight watermark was hit.
    #[inline]
    pub fn shed_inflight(&self) {
        self.shed_inflight.inc();
    }

    /// A mutation was shed at admission because the group-commit queue
    /// watermark was hit.
    #[inline]
    pub fn shed_queue(&self) {
        self.shed_queue.inc();
    }

    /// A request's deadline budget ran out in a server queue; `op` is
    /// its `req_label` when the label was recoverable, `"?"` otherwise.
    pub fn expired(&self, op: &'static str) {
        if op == "?" {
            self.expired_unknown.inc();
            return;
        }
        let mut map = self
            .expired_per_op
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        map.entry(op)
            .or_insert_with(|| {
                self.registry.counter(
                    "loco_server_expired",
                    &[
                        ("role", self.role),
                        ("server", self.server.as_str()),
                        ("op", op),
                    ],
                )
            })
            .inc();
    }

    /// Total requests shed at admission, across both reasons (test
    /// hook).
    pub fn shed_total(&self) -> u64 {
        self.shed_inflight.get() + self.shed_queue.get()
    }

    /// Total requests expired in a server queue (test hook).
    pub fn expired_total(&self) -> u64 {
        let map = self
            .expired_per_op
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.expired_unknown.get() + map.values().map(|c| c.get()).sum::<u64>()
    }

    /// Currently open connections (test hook).
    pub fn open_conns(&self) -> i64 {
        self.open_conns.get()
    }
}

impl std::fmt::Debug for EndpointMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "EndpointMetrics(role={}, server={}, requests={})",
            self.role,
            self.server,
            self.requests()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_updates_all_families() {
        let reg = MetricsRegistry::shared();
        let m = EndpointMetrics::register(&reg, ServerId::new(crate::class::DMS, 2));
        m.begin();
        assert_eq!(m.inflight(), 1);
        m.observe("Mkdir", 5_000, 100);
        m.begin();
        m.observe("Mkdir", 7_000, 50);
        m.begin();
        m.observe("GetDir", 1_000, 10);
        assert_eq!(m.inflight(), 0);
        assert_eq!(m.requests(), 3);
        assert_eq!(m.service_total(), 13_000);

        let text = reg.render_prometheus();
        assert!(text.contains("loco_rpc_requests_total{role=\"dms\",server=\"2\"} 3"));
        assert!(text
            .contains("loco_rpc_op_service_nanos_count{op=\"Mkdir\",role=\"dms\",server=\"2\"} 2"));
        assert!(text.contains(
            "loco_rpc_op_service_nanos_sum{op=\"GetDir\",role=\"dms\",server=\"2\"} 1000"
        ));
        assert!(text.contains("loco_rpc_inflight{role=\"dms\",server=\"2\"} 0"));
    }

    #[test]
    fn observe_profiled_attributes_kv_and_heap_traffic() {
        let reg = MetricsRegistry::shared();
        let m = EndpointMetrics::register(&reg, ServerId::new(crate::class::FMS, 1));
        m.begin();
        m.observe_profiled("Create", 9_000, 100, 6_000, 12, 4_096);
        m.begin();
        m.observe_profiled("Create", 11_000, 0, 7_000, 8, 1_024);
        assert_eq!(m.requests(), 2);

        let text = reg.render_prometheus();
        assert!(text.contains("loco_op_kv_nanos{op=\"Create\",role=\"fms\",server=\"1\"} 13000"));
        assert!(text.contains("loco_alloc_per_op_count{op=\"Create\",role=\"fms\",server=\"1\"} 2"));
        assert!(text.contains("loco_alloc_per_op_sum{op=\"Create\",role=\"fms\",server=\"1\"} 20"));
        assert!(text
            .contains("loco_alloc_bytes_per_op_sum{op=\"Create\",role=\"fms\",server=\"1\"} 5120"));

        // The daemon-side folded profile derives from exactly these
        // families.
        let stacks = loco_obs::fold_snapshot(&reg.snapshot());
        let get = |s: &str| stacks.iter().find(|(k, _)| k == s).map(|(_, v)| *v);
        assert_eq!(get("fms1;Create"), Some(20_000 - 13_000));
        assert_eq!(get("fms1;Create;kv"), Some(13_000));
    }

    #[test]
    fn role_names_cover_all_classes() {
        assert_eq!(role_name(crate::class::DMS), "dms");
        assert_eq!(role_name(crate::class::FMS), "fms");
        assert_eq!(role_name(crate::class::OST), "ost");
        assert_eq!(role_name(crate::class::MDS), "mds");
        assert_eq!(role_name(250), "srv");
    }
}
