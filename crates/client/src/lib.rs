#![warn(missing_docs)]
//! # loco-client — LocoLib, the LocoFS client library
//!
//! The paper's default client interface (§3.1): applications link
//! LocoLib and talk directly to the metadata servers — directory
//! operations to the single DMS, file operations to the consistent-hash
//!-selected FMS, data operations to the object store. (The paper also
//! describes a FUSE client but abandons it for all evaluations because
//! of FUSE overhead; we implement LocoLib only.)
//!
//! What lives here:
//!
//! * [`LocoConfig`] / [`LocoCluster`] — build a simulated cluster (one
//!   DMS, *n* FMS, *m* object-store servers) and hand out clients;
//! * [`LocoClient`] — the full filesystem API (mkdir, rmdir, readdir,
//!   create, open, unlink, stat, chmod, chown, access, utimens,
//!   truncate, read, write, rename) with the paper's communication
//!   pattern per operation;
//! * [`cache`] — the client directory-metadata cache (§3.2.2):
//!   d-inodes only, 30 s leases, no f-inode or dirent caching.
//!
//! Every operation records a visit trace ([`LocoClient::take_trace`])
//! that the benchmark harness either sums (single-client latency) or
//! replays through the closed-loop simulator (throughput).

pub mod cache;
pub mod client;
pub mod failover;
pub mod fsck;
pub mod metrics;
pub mod remote;

pub use cache::DirCache;
pub use client::{DmsEndpoint, FileHandle, FmsEndpoint, LocoClient, ObsWiring, OstEndpoint};
pub use failover::FailoverDms;
pub use fsck::{fsck, fsck_repair, FsckReport};
pub use metrics::{CacheStats, ClusterReport};
pub use remote::{ClusterAddrs, Transport, TransportCluster};

pub use loco_dms::DmsBackend;
pub use loco_fms::FmsMode;
pub use loco_obs::{
    FlightRecorder as OpFlightRecorder, OpRecord, SampleMode as TraceMode, Watchdog as OpWatchdog,
    WatchdogEvent, WatchdogKind,
};

use loco_dms::DirServer;
use loco_fms::FileServer;
use loco_kv::KvConfig;
use loco_net::{class, EndpointMetrics, ServerId, SimEndpoint};
use loco_obs::recorder::DEFAULT_K;
use loco_obs::{FlightRecorder, MetricsRegistry, SampleMode, Tracer, Watchdog, WatchdogConfig};
use loco_ostore::ObjectStore;
use loco_sim::time::{Nanos, MICROS, SECS};
use loco_types::HashRing;
use std::sync::Arc;

/// Cluster and client configuration. Defaults match the paper's
/// evaluation setup (§4.1): RTT 174 µs, 30 s leases, cache enabled,
/// decoupled file metadata, B+ tree DMS.
#[derive(Clone, Debug)]
pub struct LocoConfig {
    /// Number of Directory Metadata Servers. The paper's design uses
    /// exactly one (§3.1); values >1 enable the *sharded-DMS ablation*
    /// (directories hash-placed by path), which trades the single-RPC
    /// ancestor ACL check for per-component cross-shard lookups and
    /// loses range-move rename. See `ablation_dms_shards` in loco-bench.
    pub num_dms: u16,
    /// Number of File Metadata Servers.
    pub num_fms: u16,
    /// Number of object-store servers.
    pub num_ost: u16,
    /// Client directory-metadata cache (LocoFS-C vs LocoFS-NC).
    pub cache_enabled: bool,
    /// Decoupled (LocoFS-DF) vs coupled (LocoFS-CF) file metadata.
    pub fms_mode: FmsMode,
    /// DMS key-value backend (B+ tree vs hash; Fig 14).
    pub dms_backend: DmsBackend,
    /// Network round-trip time.
    pub rtt: Nanos,
    /// d-inode cache lease (§3.2.2: 30 s default).
    pub lease: Nanos,
    /// Data block size.
    pub block_size: u32,
    /// KV store configuration (cost model + device).
    pub kv: KvConfig,
    /// Client-side per-operation overhead per connected server
    /// (connection polling/multiplexing — the effect the paper blames
    /// for touch latency growing with server count, §4.2.1 obs. 2).
    pub conn_poll: Nanos,
    /// Fixed client CPU per operation.
    pub client_work: Nanos,
    /// When set, in-process TCP clusters ([`Transport::Tcp`] without
    /// `LOCO_CLUSTER`) persist every role under
    /// `<root>/<role><index>/` behind a `loco_kv::DurableStore` —
    /// the same WAL + checkpoint composition `locod --data-dir` uses.
    /// Benchmarks use this to measure wire throughput at real
    /// durability. Ignored by the Sim transport.
    pub durable_root: Option<std::path::PathBuf>,
    /// WAL fsync policy for `durable_root` clusters
    /// (`EveryRecord` = the paper-honest durable configuration;
    /// group commit amortizes the fsyncs across connections).
    pub wal_sync: loco_kv::SyncPolicy,
    /// Span-trace sampling policy. `None` reads the `LOCO_TRACE`
    /// environment variable (`off|slow|sample:N|all`, default `off`);
    /// `Some(mode)` pins it programmatically (tests, shell).
    pub trace: Option<SampleMode>,
}

impl Default for LocoConfig {
    fn default() -> Self {
        Self {
            num_dms: 1,
            num_fms: 1,
            num_ost: 1,
            cache_enabled: true,
            fms_mode: FmsMode::Decoupled,
            dms_backend: DmsBackend::BTree,
            rtt: 174 * MICROS,
            lease: 30 * SECS,
            block_size: 1 << 20,
            kv: KvConfig::default(),
            conn_poll: 20 * MICROS,
            client_work: 2 * MICROS,
            durable_root: None,
            wal_sync: loco_kv::SyncPolicy::OsManaged,
            trace: None,
        }
    }
}

impl LocoConfig {
    /// Paper-style shorthand: LocoFS-C with `n` metadata servers.
    pub fn with_servers(n: u16) -> Self {
        Self {
            num_fms: n,
            ..Self::default()
        }
    }

    /// Disable the client d-inode cache (LocoFS-NC).
    pub fn no_cache(mut self) -> Self {
        self.cache_enabled = false;
        self
    }

    /// Persist in-process TCP clusters under `root` with the given WAL
    /// fsync policy (see [`LocoConfig::durable_root`]).
    pub fn durable(
        mut self,
        root: impl Into<std::path::PathBuf>,
        policy: loco_kv::SyncPolicy,
    ) -> Self {
        self.durable_root = Some(root.into());
        self.wal_sync = policy;
        self
    }

    /// Store file metadata as one coupled record (LocoFS-CF).
    pub fn coupled(mut self) -> Self {
        self.fms_mode = FmsMode::Coupled;
        self
    }

    /// Sharded-DMS ablation with `n` directory servers.
    pub fn sharded_dms(mut self, n: u16) -> Self {
        self.num_dms = n.max(1);
        self
    }

    /// Pin the span-trace sampling policy (overrides `LOCO_TRACE`).
    pub fn traced(mut self, mode: SampleMode) -> Self {
        self.trace = Some(mode);
        self
    }
}

/// A simulated LocoFS cluster: one DMS, `num_fms` FMS, `num_ost` object
/// stores. Cheap to clone handles out of; all clients share the same
/// server state.
pub struct LocoCluster {
    /// Configuration the cluster was built with.
    pub config: LocoConfig,
    /// Directory metadata servers — exactly one in the paper's design;
    /// more only in the sharded-DMS ablation.
    pub dms: Vec<SimEndpoint<DirServer>>,
    /// File metadata servers.
    pub fms: Vec<SimEndpoint<FileServer>>,
    /// Object-store servers.
    pub ost: Vec<SimEndpoint<ObjectStore>>,
    /// Consistent-hash ring placing file metadata on FMS.
    pub ring: HashRing,
    /// Shared metrics registry every server endpoint (and every client
    /// created from this cluster) records into.
    pub registry: Arc<MetricsRegistry>,
    /// Head-based sampling decisions for loco-trace span collection.
    pub tracer: Arc<Tracer>,
    /// Flight recorder holding the K slowest sampled op span trees per
    /// op class (plus a recent-ops ring when sampling everything).
    pub flight: Arc<FlightRecorder>,
    /// Online tail-anomaly watchdog fed by every sampled completed op.
    pub watchdog: Arc<Watchdog>,
}

impl LocoCluster {
    /// Build a cluster per `config`.
    pub fn new(config: LocoConfig) -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let dms = (0..config.num_dms.max(1))
            .map(|i| {
                let id = ServerId::new(class::DMS, i);
                SimEndpoint::new(
                    id,
                    DirServer::with_sid(config.dms_backend, config.kv.clone(), i),
                )
                .with_metrics(EndpointMetrics::register(&registry, id))
            })
            .collect();
        let fms = (0..config.num_fms)
            .map(|i| {
                let id = ServerId::new(class::FMS, i);
                SimEndpoint::new(
                    id,
                    FileServer::new(i + 1, config.fms_mode, config.kv.clone()),
                )
                .with_metrics(EndpointMetrics::register(&registry, id))
            })
            .collect();
        let ost = (0..config.num_ost)
            .map(|i| {
                let id = ServerId::new(class::OST, i);
                SimEndpoint::new(id, ObjectStore::new(config.kv.clone()))
                    .with_metrics(EndpointMetrics::register(&registry, id))
            })
            .collect();
        let ring = HashRing::new(config.num_fms);
        let mode = config.trace.unwrap_or_else(SampleMode::from_env);
        let flight = if mode == SampleMode::All {
            // Sampling everything: also keep a recent-ops ring so a
            // full timeline (not just tail outliers) can be dumped.
            FlightRecorder::new(DEFAULT_K).with_recent(1024)
        } else {
            FlightRecorder::new(DEFAULT_K)
        };
        Self {
            config,
            dms,
            fms,
            ost,
            ring,
            registry,
            tracer: Arc::new(Tracer::new(mode)),
            flight: Arc::new(flight),
            watchdog: Arc::new(Watchdog::new(WatchdogConfig::default())),
        }
    }

    /// Create a client with the given identity.
    pub fn client_as(&self, uid: u32, gid: u32) -> LocoClient {
        LocoClient::new(self, uid, gid)
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
    fn cluster_builds_with_requested_shape() {
        let c = LocoCluster::new(LocoConfig::with_servers(4));
        assert_eq!(c.fms.len(), 4);
        assert_eq!(c.ost.len(), 1);
        assert_eq!(c.ring.servers(), 4);
    }

    #[test]
    fn config_builders() {
        let c = LocoConfig::with_servers(8).no_cache().coupled();
        assert_eq!(c.num_fms, 8);
        assert!(!c.cache_enabled);
        assert_eq!(c.fms_mode, FmsMode::Coupled);
        assert_eq!(c.rtt, 174 * MICROS);
        assert_eq!(c.lease, 30 * SECS);
    }
}
