//! Transport selection: run the same LocoFS cluster over in-process
//! simulated endpoints or real TCP sockets.
//!
//! The client logic is transport-blind ([`LocoClient`] holds
//! `Arc<dyn Endpoint>`s); this module is the wiring that decides what
//! those endpoints actually are:
//!
//! * [`Transport::Sim`] — the execute-then-replay default; identical to
//!   [`LocoCluster`].
//! * [`Transport::Tcp`] — each server behind a real listening socket.
//!   By default the cluster is booted *in this process* on ephemeral
//!   localhost ports (every RPC still crosses the loopback wire); when
//!   `LOCO_CLUSTER` is set, no servers are started and the endpoints
//!   dial the given `locod` daemons instead:
//!
//!   ```text
//!   LOCO_CLUSTER="dms=127.0.0.1:7100;fms=127.0.0.1:7101,127.0.0.1:7102;ost=127.0.0.1:7103"
//!   ```
//!
//! Because servers return their *virtual* `Service::take_cost` in every
//! reply, visit traces — and everything replayed from them — are
//! identical across both transports; the transport-equivalence
//! integration test pins that down.

use crate::client::{DmsEndpoint, FmsEndpoint, ObsWiring, OstEndpoint};
use crate::{LocoClient, LocoCluster, LocoConfig};
use loco_dms::DirServer;
use loco_fms::FileServer;
use loco_net::{class, tcp, EndpointMetrics, ServerId, TcpServerGuard};
use loco_obs::recorder::DEFAULT_K;
use loco_obs::{FlightRecorder, MetricsRegistry, SampleMode, Tracer, Watchdog, WatchdogConfig};
use loco_ostore::ObjectStore;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

/// Wrap `inner` in a [`loco_kv::DurableStore`] under `root/<role><i>/`
/// with the cluster's WAL sync policy — the same composition `locod
/// --data-dir` uses, so in-process benchmark clusters measure the wire
/// at real durability.
fn durable_store(
    root: &std::path::Path,
    policy: loco_kv::SyncPolicy,
    role: &str,
    i: u16,
    inner: Box<dyn loco_kv::KvStore>,
) -> Box<dyn loco_kv::KvStore> {
    Box::new(
        loco_kv::DurableStore::open(root.join(format!("{role}{i}")), inner)
            .unwrap_or_else(|e| panic!("open durable {role}{i} store: {e}"))
            .with_sync_policy(policy),
    )
}

/// Which endpoint flavour a cluster (or benchmark run) uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Transport {
    /// In-process synchronous endpoints (execute-then-replay default).
    #[default]
    Sim,
    /// Real TCP sockets (in-process localhost servers, or external
    /// `locod` daemons via `LOCO_CLUSTER`).
    Tcp,
}

impl Transport {
    /// Parse a `--transport` flag value.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "sim" => Some(Transport::Sim),
            "tcp" => Some(Transport::Tcp),
            _ => None,
        }
    }

    /// Flag-style name (`sim`/`tcp`).
    pub fn name(self) -> &'static str {
        match self {
            Transport::Sim => "sim",
            Transport::Tcp => "tcp",
        }
    }
}

impl std::fmt::Display for Transport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Addresses of an externally launched cluster, parsed from
/// `LOCO_CLUSTER` (`dms=a;fms=a,b;ost=a,b` — whitespace ignored).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterAddrs {
    /// DMS listen addresses (the paper's design has exactly one).
    pub dms: Vec<String>,
    /// Warm-standby DMS replicas (`dms_standby=a,b`; optional). Not
    /// dialed for normal traffic — failover candidates only.
    pub dms_standby: Vec<String>,
    /// FMS listen addresses, in ring order.
    pub fms: Vec<String>,
    /// Object-store listen addresses.
    pub ost: Vec<String>,
}

impl ClusterAddrs {
    /// Parse the `LOCO_CLUSTER` format. Returns `None` when any role is
    /// missing or empty.
    pub fn parse(spec: &str) -> Option<Self> {
        let mut dms = Vec::new();
        let mut dms_standby = Vec::new();
        let mut fms = Vec::new();
        let mut ost = Vec::new();
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (role, addrs) = part.split_once('=')?;
            let list: Vec<String> = addrs
                .split(',')
                .map(|a| a.trim().to_string())
                .filter(|a| !a.is_empty())
                .collect();
            match role.trim() {
                "dms" => dms = list,
                "dms_standby" => dms_standby = list,
                "fms" => fms = list,
                "ost" => ost = list,
                _ => return None,
            }
        }
        if dms.is_empty() || fms.is_empty() || ost.is_empty() {
            return None;
        }
        Some(Self {
            dms,
            dms_standby,
            fms,
            ost,
        })
    }

    /// Read the cluster view from the environment. `LOCO_CLUSTER_FILE`
    /// (a path whose contents are one `LOCO_CLUSTER` line) takes
    /// precedence over `LOCO_CLUSTER`: a file can be rewritten after a
    /// failover, so clients that re-read the view mid-run pick up the
    /// promoted primary without restarting.
    pub fn from_env() -> Option<Self> {
        if let Ok(path) = std::env::var("LOCO_CLUSTER_FILE") {
            if let Ok(contents) = std::fs::read_to_string(path.trim()) {
                if let Some(addrs) = ClusterAddrs::parse(contents.trim()) {
                    return Some(addrs);
                }
            }
        }
        ClusterAddrs::parse(&std::env::var("LOCO_CLUSTER").ok()?)
    }
}

/// A LocoFS cluster over a chosen [`Transport`], handing out
/// transport-blind [`LocoClient`]s. The equivalent of [`LocoCluster`]
/// when the endpoints are not (necessarily) simulated.
pub struct TransportCluster {
    /// Configuration the cluster was built with (`num_fms`/`num_ost`
    /// reflect the actual endpoint counts for external clusters).
    pub config: LocoConfig,
    /// Which transport the endpoints speak.
    pub transport: Transport,
    /// Directory metadata server endpoints.
    pub dms: Vec<DmsEndpoint>,
    /// File metadata server endpoints.
    pub fms: Vec<FmsEndpoint>,
    /// Object-store endpoints.
    pub ost: Vec<OstEndpoint>,
    /// Client-side metrics registry. For in-process transports the
    /// servers record here too; external daemons keep their own
    /// registries, scraped via `Control::Metrics`.
    pub registry: Arc<MetricsRegistry>,
    /// Head-based span-trace sampler shared by all clients.
    pub tracer: Arc<Tracer>,
    /// Flight recorder for the slowest sampled ops.
    pub flight: Arc<FlightRecorder>,
    /// Tail-anomaly watchdog.
    pub watchdog: Arc<Watchdog>,
    /// In-process TCP servers, shut down (drained) when the cluster
    /// drops. Empty for sim endpoints, which own their services, and
    /// for external daemons, which outlive us.
    _guards: Vec<TcpServerGuard>,
}

fn obs_stack(
    config: &LocoConfig,
) -> (
    Arc<MetricsRegistry>,
    Arc<Tracer>,
    Arc<FlightRecorder>,
    Arc<Watchdog>,
) {
    let mode = config.trace.unwrap_or_else(SampleMode::from_env);
    let flight = if mode == SampleMode::All {
        FlightRecorder::new(DEFAULT_K).with_recent(1024)
    } else {
        FlightRecorder::new(DEFAULT_K)
    };
    // Route watchdog firings into the structured log ring (tagged with
    // the slow op's trace id) instead of the default raw stderr line.
    loco_obs::watchdog::set_fire_hook(|ev| {
        let _span = loco_log::span_scope(ev.trace_id, 0);
        loco_log::warn!("watchdog", "tail anomaly";
            kind = format_args!("{:?}", ev.kind),
            op = format_args!("{}", ev.op),
            latency_ns = ev.latency_ns,
            threshold_ns = ev.threshold_ns,
            baseline_p99_ns = ev.baseline_p99_ns);
    });
    (
        Arc::new(MetricsRegistry::new()),
        Arc::new(Tracer::new(mode)),
        Arc::new(flight),
        Arc::new(Watchdog::new(WatchdogConfig::default())),
    )
}

impl TransportCluster {
    /// Build a cluster per `config` over `transport`. For
    /// [`Transport::Tcp`] this boots in-process localhost servers on
    /// ephemeral ports unless `LOCO_CLUSTER` points at external
    /// daemons.
    pub fn new(config: LocoConfig, transport: Transport) -> Self {
        match transport {
            Transport::Sim => Self::sim(config),
            Transport::Tcp => match ClusterAddrs::from_env() {
                Some(addrs) => Self::tcp_external(config, &addrs),
                None => Self::tcp_local(config),
            },
        }
    }

    fn sim(config: LocoConfig) -> Self {
        let cluster = LocoCluster::new(config);
        Self {
            config: cluster.config.clone(),
            transport: Transport::Sim,
            dms: cluster
                .dms
                .iter()
                .map(|e| Arc::new(e.clone()) as DmsEndpoint)
                .collect(),
            fms: cluster
                .fms
                .iter()
                .map(|e| Arc::new(e.clone()) as FmsEndpoint)
                .collect(),
            ost: cluster
                .ost
                .iter()
                .map(|e| Arc::new(e.clone()) as OstEndpoint)
                .collect(),
            registry: cluster.registry,
            tracer: cluster.tracer,
            flight: cluster.flight,
            watchdog: cluster.watchdog,
            _guards: Vec::new(),
        }
    }

    /// Boot every server of the cluster inside this process, each on
    /// its own ephemeral localhost port, and dial them over TCP — the
    /// full wire protocol without external process management.
    fn tcp_local(config: LocoConfig) -> Self {
        let (registry, tracer, flight, watchdog) = obs_stack(&config);
        // Durable clusters publish their WAL counters (fsyncs, batch
        // sizes) into the shared registry on a short maintenance beat
        // so benchmarks can read them without a drain.
        let maintain = config
            .durable_root
            .as_deref()
            .map(|_| Duration::from_millis(200));
        let opts = |m: Arc<EndpointMetrics>| tcp::ServeOptions {
            metrics: Some(m),
            registry: Some(registry.clone()),
            maintain_every: maintain,
            ..Default::default()
        };
        let mut guards = Vec::new();
        let mut dms = Vec::new();
        for i in 0..config.num_dms.max(1) {
            let id = ServerId::new(class::DMS, i);
            let m = EndpointMetrics::register(&registry, id);
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind localhost");
            let server = match config.durable_root.as_deref() {
                Some(root) => {
                    let inner: Box<dyn loco_kv::KvStore> = match config.dms_backend {
                        loco_dms::DmsBackend::BTree => {
                            Box::new(loco_kv::BTreeDb::new(config.kv.clone()))
                        }
                        loco_dms::DmsBackend::Hash => {
                            Box::new(loco_kv::HashDb::new(config.kv.clone()))
                        }
                    };
                    DirServer::with_store(durable_store(root, config.wal_sync, "dms", i, inner), i)
                }
                None => DirServer::with_sid(config.dms_backend, config.kv.clone(), i),
            };
            let guard = tcp::serve_tcp(id, server, listener, opts(m)).expect("serve dms");
            dms.push(Arc::new(tcp::TcpEndpoint::<DirServer>::connect(
                id,
                &guard.addr().to_string(),
            )) as DmsEndpoint);
            guards.push(guard);
        }
        let mut fms = Vec::new();
        for i in 0..config.num_fms {
            let id = ServerId::new(class::FMS, i);
            let m = EndpointMetrics::register(&registry, id);
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind localhost");
            let server = match config.durable_root.as_deref() {
                Some(root) => {
                    let cfg = FileServer::tune_cfg(config.fms_mode, config.kv.clone());
                    let inner: Box<dyn loco_kv::KvStore> = Box::new(loco_kv::HashDb::new(cfg));
                    FileServer::with_store(
                        durable_store(root, config.wal_sync, "fms", i, inner),
                        i + 1,
                        config.fms_mode,
                    )
                }
                None => FileServer::new(i + 1, config.fms_mode, config.kv.clone()),
            };
            let guard = tcp::serve_tcp(id, server, listener, opts(m)).expect("serve fms");
            fms.push(Arc::new(tcp::TcpEndpoint::<FileServer>::connect(
                id,
                &guard.addr().to_string(),
            )) as FmsEndpoint);
            guards.push(guard);
        }
        let mut ost = Vec::new();
        for i in 0..config.num_ost {
            let id = ServerId::new(class::OST, i);
            let m = EndpointMetrics::register(&registry, id);
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind localhost");
            let server = match config.durable_root.as_deref() {
                Some(root) => {
                    let inner: Box<dyn loco_kv::KvStore> =
                        Box::new(loco_kv::HashDb::new(config.kv.clone()));
                    ObjectStore::with_store(durable_store(root, config.wal_sync, "ost", i, inner))
                }
                None => ObjectStore::new(config.kv.clone()),
            };
            let guard = tcp::serve_tcp(id, server, listener, opts(m)).expect("serve ost");
            ost.push(Arc::new(tcp::TcpEndpoint::<ObjectStore>::connect(
                id,
                &guard.addr().to_string(),
            )) as OstEndpoint);
            guards.push(guard);
        }
        Self {
            config,
            transport: Transport::Tcp,
            dms,
            fms,
            ost,
            registry,
            tracer,
            flight,
            watchdog,
            _guards: guards,
        }
    }

    /// Dial an externally launched cluster (the `scripts/cluster.sh`
    /// shape): no servers are started here, and `config.num_*` are
    /// overridden by the address counts.
    pub fn tcp_external(mut config: LocoConfig, addrs: &ClusterAddrs) -> Self {
        let (registry, tracer, flight, watchdog) = obs_stack(&config);
        config.num_dms = addrs.dms.len() as u16;
        config.num_fms = addrs.fms.len() as u16;
        config.num_ost = addrs.ost.len() as u16;
        // The daemons keep their own registries (scraped out of band
        // via Control::Metrics), so the client-side endpoints record
        // the *client's* view of each RPC into the local registry —
        // without this, `loco_rpc_*` families would be empty
        // client-side.
        //
        // The DMS dials through [`crate::failover::FailoverDms`] so a
        // fenced or dead primary triggers a redial to the promoted
        // standby instead of surfacing a hard error.
        let dms = addrs
            .dms
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let id = ServerId::new(class::DMS, i as u16);
                let m = EndpointMetrics::register(&registry, id);
                Arc::new(crate::failover::FailoverDms::new(id, a, Some(m))) as DmsEndpoint
            })
            .collect();
        let fms = addrs
            .fms
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let id = ServerId::new(class::FMS, i as u16);
                let m = EndpointMetrics::register(&registry, id);
                Arc::new(tcp::TcpEndpoint::<FileServer>::connect(id, a).with_metrics(m))
                    as FmsEndpoint
            })
            .collect();
        let ost = addrs
            .ost
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let id = ServerId::new(class::OST, i as u16);
                let m = EndpointMetrics::register(&registry, id);
                Arc::new(tcp::TcpEndpoint::<ObjectStore>::connect(id, a).with_metrics(m))
                    as OstEndpoint
            })
            .collect();
        Self {
            config,
            transport: Transport::Tcp,
            dms,
            fms,
            ost,
            registry,
            tracer,
            flight,
            watchdog,
            _guards: Vec::new(),
        }
    }

    /// Create a client with the given identity.
    pub fn client_as(&self, uid: u32, gid: u32) -> LocoClient {
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
            uid,
            gid,
        )
    }

    /// Create a client with the default benchmark identity (uid 1000).
    pub fn client(&self) -> LocoClient {
        self.client_as(1000, 1000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_parses_flag_values() {
        assert_eq!(Transport::parse("sim"), Some(Transport::Sim));
        assert_eq!(Transport::parse("TCP"), Some(Transport::Tcp));
        assert_eq!(Transport::parse("thread"), None);
        assert_eq!(Transport::parse("carrier-pigeon"), None);
        assert_eq!(Transport::Tcp.name(), "tcp");
    }

    #[test]
    fn cluster_addrs_parse() {
        let a = ClusterAddrs::parse(
            "dms=127.0.0.1:7100;fms=127.0.0.1:7101, 127.0.0.1:7102;ost=127.0.0.1:7103",
        )
        .unwrap();
        assert_eq!(a.dms.len(), 1);
        assert_eq!(a.fms, vec!["127.0.0.1:7101", "127.0.0.1:7102"]);
        assert_eq!(a.ost.len(), 1);
        assert!(a.dms_standby.is_empty(), "standbys default to none");
        assert!(ClusterAddrs::parse("dms=;fms=a;ost=b").is_none());
        assert!(ClusterAddrs::parse("fms=a;ost=b").is_none());
        assert!(ClusterAddrs::parse("bogus").is_none());
    }

    #[test]
    fn cluster_addrs_parse_standbys() {
        let a = ClusterAddrs::parse(
            "dms=127.0.0.1:7100;dms_standby=127.0.0.1:7110,127.0.0.1:7111;\
             fms=127.0.0.1:7101;ost=127.0.0.1:7103",
        )
        .unwrap();
        assert_eq!(a.dms, vec!["127.0.0.1:7100"]);
        assert_eq!(a.dms_standby, vec!["127.0.0.1:7110", "127.0.0.1:7111"]);
    }

    #[test]
    fn same_ops_agree_across_all_transports() {
        let run = |transport: Transport| {
            let cluster = TransportCluster::new(LocoConfig::with_servers(2), transport);
            let mut c = cluster.client();
            c.mkdir("/d", 0o755).unwrap();
            c.create("/d/f", 0o644).unwrap();
            let st = c.stat_file("/d/f").unwrap();
            let missing = c.stat_file("/d/nope").unwrap_err();
            let t = c.take_trace();
            (st.access.mode, missing, t.visits)
        };
        assert_eq!(run(Transport::Sim), run(Transport::Tcp));
    }
}
