//! Stable metric names: the Prometheus export surface is an API.
//!
//! Dashboards, `locotop`, `scripts/cluster.sh`, and the CI budget
//! checks all key on family names, so a rename is a breaking change
//! that must be made deliberately — by updating the golden lists here
//! alongside every consumer. The tests also enforce the naming
//! convention: every family carries the `loco_` prefix, so one scrape
//! of any registry yields a single consistently-named corpus.

use locofs::client::{LocoCluster, LocoConfig, TraceMode};
use locofs::net::{class, EndpointMetrics, ServerId, ServerMetrics};
use locofs::obs::MetricsRegistry;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Distinct family names in a registry (histogram suffixes collapse to
/// the family).
fn family_names(reg: &MetricsRegistry) -> Vec<String> {
    let set: BTreeSet<String> = reg
        .snapshot()
        .entries
        .iter()
        .map(|(id, _)| id.name.clone())
        .collect();
    set.into_iter().collect()
}

/// Every family a full in-process client workload (tracing on)
/// registers, in one shared registry. One scrape returns everything.
#[test]
fn client_workload_family_names_are_stable() {
    let cluster = LocoCluster::new(LocoConfig::with_servers(2).traced(TraceMode::All));
    let mut fs = cluster.client();
    fs.mkdir("/m", 0o755).unwrap();
    for i in 0..4 {
        let mut h = fs.create(&format!("/m/f{i}"), 0o644).unwrap();
        fs.write(&mut h, 0, b"payload").unwrap();
        fs.read(&h, 0, 7).unwrap();
        fs.stat_file(&format!("/m/f{i}")).unwrap();
        fs.chmod_file(&format!("/m/f{i}"), 0o600).unwrap();
    }
    fs.readdir("/m").unwrap();
    fs.rename_file("/m/f0", "/m/g0").unwrap();
    fs.unlink("/m/g0").unwrap();
    fs.rename_dir("/m", "/m2").unwrap();

    let got = family_names(fs.registry());
    let want = [
        "loco_alloc_bytes_per_op",
        "loco_alloc_per_op",
        "loco_client_alloc_bytes_per_op",
        "loco_client_alloc_per_op",
        "loco_client_cache_expired_leases_total",
        "loco_client_cache_hits_total",
        "loco_client_cache_misses_total",
        "loco_client_op_latency_nanos",
        "loco_op_kv_nanos",
        "loco_rpc_brkr_trips_total",
        "loco_rpc_inflight",
        "loco_rpc_op_service_nanos",
        "loco_rpc_queue_wait_nanos",
        "loco_rpc_requests_total",
        "loco_rpc_retries_total",
        "loco_rpc_service_nanos",
    ];
    assert_eq!(
        got,
        want.to_vec(),
        "metric families changed — update every consumer \
         (locotop, fold_snapshot, cluster.sh, CI budgets), then this golden"
    );
}

/// The daemon-side families (event-loop server core) follow the same
/// convention and stay stable too.
#[test]
fn server_core_family_names_are_stable() {
    let reg = Arc::new(MetricsRegistry::new());
    let id = ServerId::new(class::FMS, 0);
    let _ep = EndpointMetrics::register(&reg, id);
    let _srv = ServerMetrics::register(&reg, id);
    let got = family_names(&reg);
    let want = [
        "loco_epoll_wakeups_total",
        "loco_rpc_brkr_trips_total",
        "loco_rpc_inflight",
        "loco_rpc_queue_wait_nanos",
        "loco_rpc_requests_total",
        "loco_rpc_retries_total",
        "loco_rpc_service_nanos",
        "loco_server_expired",
        "loco_server_shed",
        "loco_srv_conns_shed_total",
        "loco_srv_open_conns",
        "loco_srv_pipeline_depth",
        "loco_wal_batch_size",
        "loco_wal_commit_wait_nanos",
        "loco_wal_fsync_nanos",
    ];
    assert_eq!(got, want.to_vec(), "server-core families changed");
}

/// Convention check across both surfaces: every family is `loco_`-
/// prefixed, so mixed scrapes sort and filter as one namespace.
#[test]
fn every_family_carries_the_loco_prefix() {
    let cluster = LocoCluster::new(LocoConfig::with_servers(2).traced(TraceMode::All));
    let mut fs = cluster.client();
    fs.mkdir("/p", 0o755).unwrap();
    fs.create("/p/f", 0o644).unwrap();
    let reg2 = Arc::new(MetricsRegistry::new());
    let _srv = ServerMetrics::register(&reg2, ServerId::new(class::DMS, 0));
    for name in family_names(fs.registry())
        .into_iter()
        .chain(family_names(&reg2))
    {
        assert!(name.starts_with("loco_"), "unprefixed family {name}");
    }
}
