//! The cluster under test: 1 DMS (B+ tree), 2 FMS, 1 OST, durable, over
//! TCP on localhost, built either as the unmodified `TransportCluster`
//! or with a timing decorator on every layer boundary.

use crate::probe::{Probe, Side, TimedEndpoint, TimedKv, TimedService};
use loco_client::{
    DmsBackend, DmsEndpoint, FmsEndpoint, LocoClient, LocoConfig, ObsWiring, OstEndpoint,
    Transport, TransportCluster,
};
use loco_dms::DirServer;
use loco_fms::FileServer;
use loco_kv::{BTreeDb, DurableStore, HashDb, KvStore, SyncPolicy};
use loco_net::{class, tcp, EndpointMetrics, ServerId, TcpEndpoint, TcpServerGuard};
use loco_obs::recorder::DEFAULT_K;
use loco_obs::{FlightRecorder, MetricsRegistry, SampleMode, Tracer, Watchdog, WatchdogConfig};
use loco_ostore::ObjectStore;
use std::net::TcpListener;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// File metadata servers.
pub const FMS: u16 = 2;
/// Object-store servers.
pub const OST: u16 = 1;

/// One-line description of the cluster, for provenance.
pub fn shape(policy: SyncPolicy) -> String {
    format!(
        "1dms(btree)+{FMS}fms+{OST}ost tcp-localhost durable sync={} group_commit=on core=event",
        policy.as_str()
    )
}

/// The cluster's configuration: library defaults plus the shape above.
pub fn config(root: &Path, policy: SyncPolicy) -> LocoConfig {
    LocoConfig {
        num_fms: FMS,
        num_ost: OST,
        dms_backend: DmsBackend::BTree,
        ..LocoConfig::default()
    }
    .durable(root, policy)
}

/// A running cluster of either build.
pub enum Cluster {
    /// `TransportCluster::new(config, Transport::Tcp)`, untouched.
    Plain(TransportCluster),
    /// The same composition with timing decorators.
    Traced(TracedCluster),
}

impl Cluster {
    /// Boot the unmodified cluster over `root`.
    pub fn plain(root: &Path, policy: SyncPolicy) -> Self {
        Cluster::Plain(TransportCluster::new(config(root, policy), Transport::Tcp))
    }

    /// Boot the decorated cluster over `root`, recording into `probe`.
    pub fn traced(root: &Path, policy: SyncPolicy, probe: &Probe) -> Self {
        Cluster::Traced(TracedCluster::new(config(root, policy), probe))
    }

    /// A client with the benchmark identity (uid/gid 1000).
    pub fn client(&self) -> LocoClient {
        match self {
            Cluster::Plain(c) => c.client(),
            Cluster::Traced(c) => c.client(),
        }
    }

    /// The registry the servers count requests in.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        match self {
            Cluster::Plain(c) => &c.registry,
            Cluster::Traced(c) => &c.registry,
        }
    }

    /// Handled requests per role (`dms`, `fms`, `ost`), from the
    /// servers' `loco_rpc_requests_total` counters.
    pub fn requests_by_role(&self) -> [u64; 3] {
        let snap = self.registry().snapshot();
        let mut out = [0u64; 3];
        for (id, v) in &snap.entries {
            if id.name != "loco_rpc_requests_total" {
                continue;
            }
            let loco_obs::MetricValue::Counter(n) = v else {
                continue;
            };
            let role = id.labels.iter().find(|(k, _)| k == "role").map(|(_, r)| r);
            let slot = match role.map(String::as_str) {
                Some("dms") => 0,
                Some("fms") => 1,
                Some("ost") => 2,
                _ => continue,
            };
            out[slot] += n;
        }
        out
    }

    /// Retries the clients spent (traced build only; 0 otherwise).
    pub fn retries(&self) -> u64 {
        match self {
            Cluster::Plain(_) => 0,
            Cluster::Traced(c) => c.client_metrics.iter().map(|m| m.retries()).sum(),
        }
    }
}

/// The in-process TCP cluster `TransportCluster` builds for a durable
/// config, with every layer boundary wrapped:
///
/// ```text
/// LocoClient → TimedEndpoint → TcpEndpoint ⇄ serve_tcp(TimedService(server))
///   server → TimedKv(Outer) → DurableStore → TimedKv(Inner) → HashDb/BTreeDb
/// ```
pub struct TracedCluster {
    config: LocoConfig,
    dms: Vec<DmsEndpoint>,
    fms: Vec<FmsEndpoint>,
    ost: Vec<OstEndpoint>,
    registry: Arc<MetricsRegistry>,
    tracer: Arc<Tracer>,
    flight: Arc<FlightRecorder>,
    watchdog: Arc<Watchdog>,
    /// Client-side endpoint counters (retries), in a registry of their
    /// own so server request counts stay comparable with the plain build.
    client_metrics: Vec<Arc<EndpointMetrics>>,
    // Last: servers shut down after the endpoints are gone.
    _guards: Vec<TcpServerGuard>,
}

impl TracedCluster {
    fn new(config: LocoConfig, probe: &Probe) -> Self {
        let root = config
            .durable_root
            .clone()
            .expect("the benchmark cluster is durable");
        let policy = config.wal_sync;
        let registry = Arc::new(MetricsRegistry::new());
        let client_registry = Arc::new(MetricsRegistry::new());
        let mode = config.trace.unwrap_or_else(SampleMode::from_env);
        // Same server options `TransportCluster` uses for durable clusters.
        let opts = |id: ServerId| tcp::ServeOptions {
            metrics: Some(EndpointMetrics::register(&registry, id)),
            registry: Some(registry.clone()),
            maintain_every: Some(Duration::from_millis(200)),
            ..Default::default()
        };
        let mut guards = Vec::new();
        let mut client_metrics = Vec::new();
        let store = |role: &str, id: ServerId, inner: Box<dyn KvStore>| {
            let dir = root.join(format!("{role}{}", id.index));
            let sp = probe.server(id, dir.clone());
            let inner = TimedKv::new(inner, sp.clone(), Side::Inner);
            let durable = DurableStore::open(&dir, inner)
                .unwrap_or_else(|e| panic!("open durable {role}{} store: {e}", id.index))
                .with_sync_policy(policy);
            let outer: Box<dyn KvStore> = Box::new(TimedKv::new(durable, sp.clone(), Side::Outer));
            (outer, sp)
        };
        let mut serve = |id: ServerId, guard: std::io::Result<TcpServerGuard>| {
            let guard = guard.expect("serve");
            let addr = guard.addr().to_string();
            guards.push(guard);
            let m = EndpointMetrics::register(&client_registry, id);
            client_metrics.push(m.clone());
            (addr, m)
        };
        let listener = || TcpListener::bind("127.0.0.1:0").expect("bind localhost");

        let id = ServerId::new(class::DMS, 0);
        let (db, sp) = store("dms", id, Box::new(BTreeDb::new(config.kv.clone())));
        let svc = TimedService::new(DirServer::with_store(db, 0), sp);
        let (addr, m) = serve(id, tcp::serve_tcp(id, svc, listener(), opts(id)));
        let ep = TcpEndpoint::<DirServer>::connect(id, &addr).with_metrics(m);
        let dms = vec![Arc::new(TimedEndpoint::new(ep, probe.window.clone())) as DmsEndpoint];

        let mut fms = Vec::new();
        for i in 0..config.num_fms {
            let id = ServerId::new(class::FMS, i);
            let cfg = FileServer::tune_cfg(config.fms_mode, config.kv.clone());
            let (db, sp) = store("fms", id, Box::new(HashDb::new(cfg)));
            let svc = TimedService::new(FileServer::with_store(db, i + 1, config.fms_mode), sp);
            let (addr, m) = serve(id, tcp::serve_tcp(id, svc, listener(), opts(id)));
            let ep = TcpEndpoint::<FileServer>::connect(id, &addr).with_metrics(m);
            fms.push(Arc::new(TimedEndpoint::new(ep, probe.window.clone())) as FmsEndpoint);
        }

        let mut ost = Vec::new();
        for i in 0..config.num_ost {
            let id = ServerId::new(class::OST, i);
            let (db, sp) = store("ost", id, Box::new(HashDb::new(config.kv.clone())));
            let svc = TimedService::new(ObjectStore::with_store(db), sp);
            let (addr, m) = serve(id, tcp::serve_tcp(id, svc, listener(), opts(id)));
            let ep = TcpEndpoint::<ObjectStore>::connect(id, &addr).with_metrics(m);
            ost.push(Arc::new(TimedEndpoint::new(ep, probe.window.clone())) as OstEndpoint);
        }

        let flight = if mode == SampleMode::All {
            FlightRecorder::new(DEFAULT_K).with_recent(1024)
        } else {
            FlightRecorder::new(DEFAULT_K)
        };
        Self {
            config,
            dms,
            fms,
            ost,
            registry,
            tracer: Arc::new(Tracer::new(mode)),
            flight: Arc::new(flight),
            watchdog: Arc::new(Watchdog::new(WatchdogConfig::default())),
            client_metrics,
            _guards: guards,
        }
    }

    fn client(&self) -> LocoClient {
        LocoClient::with_endpoints(
            self.config.clone(),
            self.dms.clone(),
            self.fms.clone(),
            self.ost.clone(),
            ObsWiring {
                registry: self.registry.clone(),
                tracer: self.tracer.clone(),
                flight: self.flight.clone(),
                watchdog: self.watchdog.clone(),
            },
            1000,
            1000,
        )
    }
}
