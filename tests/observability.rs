//! Observability integration: the metrics registry, endpoint
//! instrumentation, and trace export working together across the
//! stack. These are the acceptance tests of the `loco-obs` subsystem:
//!
//! * both transports (simulated in-process, TCP event core) feed
//!   identical virtual-cost histograms for identical workloads, and
//!   both agree with the visit traces the client records;
//! * `MetricsRegistry::snapshot()` / `render_prometheus()` are safe
//!   while server threads are concurrently recording;
//! * a multi-visit operation (create: DMS then FMS) exports to Chrome
//!   trace-event JSON and parses back with correctly nested spans;
//! * the log-bucketed histogram holds p50/p99 within 1% of exact on
//!   one million samples.

use locofs::client::{ClusterReport, LocoCluster, LocoConfig};
use locofs::dms::{DirServer, DmsBackend, DmsRequest, DmsResponse};
use locofs::kv::KvConfig;
use locofs::net::{
    chrome_trace_of_ops, class, serve_tcp, CallCtx, Endpoint, EndpointMetrics, ServeOptions,
    ServerId, SimEndpoint, TcpEndpoint, TcpServerGuard,
};
use locofs::obs::{parse_chrome_trace, LogHistogram, MetricsRegistry};
use std::net::TcpListener;

/// Host a DMS on an ephemeral loopback port behind the TCP event core
/// and dial it.
fn serve_dms(
    id: ServerId,
    svc: DirServer,
    opts: ServeOptions,
) -> (TcpEndpoint<DirServer>, TcpServerGuard) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let guard = serve_tcp(id, svc, listener, opts).expect("serve");
    let ep = TcpEndpoint::connect(id, &guard.addr().to_string());
    (ep, guard)
}

/// Drive the same mkdir/stat mix through any endpoint, returning the
/// accumulated visit trace.
fn dms_script(ep: &dyn Endpoint<DmsRequest, DmsResponse>) -> locofs::sim::des::JobTrace {
    let mut ctx = CallCtx::new();
    for i in 0..50 {
        ep.call(
            &mut ctx,
            DmsRequest::Mkdir {
                path: format!("/d{i}"),
                mode: 0o755,
                uid: 1,
                gid: 1,
                ts: 0,
            },
        );
    }
    for i in 0..10 {
        ep.call(
            &mut ctx,
            DmsRequest::GetDir {
                path: format!("/d{i}"),
            },
        );
    }
    ctx.take_trace()
}

#[test]
fn tcp_and_sim_endpoints_record_identical_metrics() {
    let id = ServerId::new(class::DMS, 0);
    let mk = || DirServer::new(DmsBackend::BTree, KvConfig::default());

    let sim_reg = MetricsRegistry::shared();
    let sim_ep = SimEndpoint::new(id, mk()).with_metrics(EndpointMetrics::register(&sim_reg, id));
    let sim_trace = dms_script(&sim_ep);

    let tcp_reg = MetricsRegistry::shared();
    let tcp_metrics = EndpointMetrics::register(&tcp_reg, id);
    let opts = ServeOptions {
        metrics: Some(tcp_metrics.clone()),
        ..Default::default()
    };
    let (tcp_ep, _guard) = serve_dms(id, mk(), opts);
    let tcp_trace = dms_script(&tcp_ep);

    // Both transports executed the same service code over the same
    // requests, so the virtual costs in the traces are identical...
    assert_eq!(sim_trace.visits, tcp_trace.visits);

    // ...and the metrics each endpoint recorded agree with each other
    // and with the trace: 60 requests, service-time sum equal to the
    // summed visit costs.
    let trace_service: u64 = sim_trace.visits.iter().map(|v| v.service).sum();
    let sim_metrics = sim_ep.metrics().expect("sim endpoint has metrics");
    // The server records a request before writing its reply, so each
    // synchronous call's metrics are complete when it returns.
    for m in [&**sim_metrics, &*tcp_metrics] {
        assert_eq!(m.requests(), 60);
        assert_eq!(m.service_total(), trace_service);
        assert_eq!(m.inflight(), 0, "in-flight gauge returns to zero");
    }

    // The per-RPC-type family splits the same total: Mkdir + GetDir
    // service histograms sum back to the aggregate.
    for reg in [&sim_reg, &tcp_reg] {
        let snap = reg.snapshot();
        let per_op: u64 = ["Mkdir", "GetDir"]
            .iter()
            .filter_map(|op| {
                snap.get(
                    "loco_rpc_op_service_nanos",
                    &[("op", op), ("role", "dms"), ("server", "0")],
                )
            })
            .filter_map(|v| match v {
                locofs::obs::MetricValue::Histogram(h) => Some(h.sum),
                _ => None,
            })
            .sum();
        assert_eq!(per_op, trace_service);
    }
}

#[test]
fn snapshot_is_safe_while_server_threads_record() {
    let id = ServerId::new(class::DMS, 0);
    let reg = MetricsRegistry::shared();
    let metrics = EndpointMetrics::register(&reg, id);
    // The server core's own families record into the same registry.
    let opts = ServeOptions {
        metrics: Some(metrics.clone()),
        registry: Some(reg.clone()),
        ..Default::default()
    };
    let (ep, _guard) = serve_dms(
        id,
        DirServer::new(DmsBackend::Hash, KvConfig::default()),
        opts,
    );

    const CLIENTS: usize = 4;
    const OPS: usize = 200;
    let mut handles = Vec::new();
    for t in 0..CLIENTS {
        let ep = ep.clone();
        handles.push(std::thread::spawn(move || {
            let mut ctx = CallCtx::new();
            for i in 0..OPS {
                ep.call(
                    &mut ctx,
                    DmsRequest::Mkdir {
                        path: format!("/t{t}-{i}"),
                        mode: 0o755,
                        uid: 1,
                        gid: 1,
                        ts: 0,
                    },
                );
            }
        }));
    }
    // Snapshot concurrently with the recording threads: must not
    // panic, deadlock, or return torn families.
    while handles.iter().any(|h| !h.is_finished()) {
        let snap = reg.snapshot();
        let _ = reg.render_prometheus();
        assert!(snap.counter_family_total("loco_rpc_requests_total") <= (CLIENTS * OPS) as u64);
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(metrics.requests(), (CLIENTS * OPS) as u64);
    assert_eq!(metrics.inflight(), 0);
    let text = reg.render_prometheus();
    assert!(text.contains("# TYPE loco_rpc_requests_total counter"));
    assert!(text.contains("loco_rpc_service_nanos_count"));
}

#[test]
fn create_exports_a_chrome_trace_with_nested_dms_and_fms_spans() {
    let cluster = LocoCluster::new(LocoConfig::with_servers(4));
    let mut fs = cluster.client();
    fs.mkdir("/proj", 0o755).unwrap();
    let mkdir_trace = fs.take_trace();
    fs.create("/proj/a.dat", 0o644).unwrap();
    let create_trace = fs.take_trace();
    assert!(
        create_trace.visits.len() >= 2,
        "create touches DMS (resolve) then FMS"
    );

    let rtt = fs.rtt();
    let ops = vec![
        ("mkdir".to_string(), mkdir_trace),
        ("create".to_string(), create_trace),
    ];
    let text = chrome_trace_of_ops(&ops, rtt);
    let spans = parse_chrome_trace(&text).expect("export parses back");

    // Round trip is lossless.
    assert_eq!(spans, locofs::net::op_spans(&ops, rtt));

    // Two client spans, in order, not overlapping.
    let clients: Vec<_> = spans.iter().filter(|s| s.cat == "client").collect();
    assert_eq!(clients.len(), 2);
    assert_eq!(clients[0].name, "mkdir");
    assert_eq!(clients[1].name, "create");
    assert!(clients[0].end_us() <= clients[1].ts_us + 1e-9);

    // Every server span nests inside exactly its operation's client
    // span; the create op shows both a DMS and an FMS visit.
    let servers: Vec<_> = spans.iter().filter(|s| s.cat == "server").collect();
    assert!(!servers.is_empty());
    for s in &servers {
        assert_eq!(
            clients.iter().filter(|c| c.encloses(s)).count(),
            1,
            "span {} must nest in exactly one client op",
            s.name
        );
    }
    let create_servers: Vec<_> = servers.iter().filter(|s| clients[1].encloses(s)).collect();
    assert!(create_servers.iter().any(|s| s.name.starts_with("dms")));
    assert!(create_servers.iter().any(|s| s.name.starts_with("fms")));
}

#[test]
fn cluster_metrics_cover_a_full_client_workload() {
    let cluster = LocoCluster::new(LocoConfig::with_servers(2));
    let mut fs = cluster.client();
    fs.mkdir("/w", 0o755).unwrap();
    for i in 0..20 {
        let mut fh = fs.create(&format!("/w/f{i}"), 0o644).unwrap();
        fs.write(&mut fh, 0, b"payload").unwrap();
        fs.stat_file(&format!("/w/f{i}")).unwrap();
    }
    let report = ClusterReport::collect_with_client(&cluster, &fs);
    let cache = report.cache.expect("client report carries cache stats");
    assert!(
        cache.hits > 0,
        "warm path resolutions hit the d-inode cache"
    );

    let text = fs.registry().render_prometheus();
    // One registry snapshot covers client ops, cache counters, and
    // every server's RPC families.
    for needle in [
        "loco_client_op_latency_nanos{op=\"create\",quantile=\"0.5\"}",
        "loco_client_op_latency_nanos{op=\"write\"",
        "loco_client_cache_hits_total",
        "loco_rpc_requests_total{role=\"dms\"",
        "loco_rpc_requests_total{role=\"fms\"",
        "loco_rpc_requests_total{role=\"ost\"",
        "loco_rpc_inflight",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
    // Client op count in the registry equals the ops we issued
    // (1 mkdir + 20 * (create + write + stat)).
    let snap = fs.registry().snapshot();
    let op_count: u64 = snap
        .entries
        .iter()
        .filter(|(id, _)| id.name == "loco_client_op_latency_nanos")
        .filter_map(|(_, v)| match v {
            locofs::obs::MetricValue::Histogram(h) => Some(h.count),
            _ => None,
        })
        .sum();
    assert_eq!(op_count, 61);
}

/// Deterministic xorshift so the test needs no RNG dependency.
struct XorShift(u64);
impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

#[test]
fn histogram_quantiles_within_one_percent_on_a_million_samples() {
    let hist = LogHistogram::new();
    let mut rng = XorShift(0x9E3779B97F4A7C15);
    let mut exact = Vec::with_capacity(1_000_000);
    for _ in 0..1_000_000 {
        // Log-uniform over ~6 decades, like a latency distribution
        // with a long tail.
        let exp = rng.next() % 20;
        let v = (1u64 << exp) + rng.next() % (1u64 << exp);
        hist.record(v);
        exact.push(v);
    }
    exact.sort_unstable();
    for q in [0.50, 0.90, 0.99] {
        let rank = ((q * exact.len() as f64).ceil() as usize).max(1) - 1;
        let truth = exact[rank] as f64;
        let est = hist.quantile(q) as f64;
        let rel = (est - truth).abs() / truth;
        assert!(
            rel <= 0.01,
            "p{} off by {:.3}%: exact {truth}, histogram {est}",
            q * 100.0,
            rel * 100.0
        );
    }
    assert_eq!(hist.count(), 1_000_000);
    assert_eq!(hist.min(), *exact.first().unwrap());
    assert_eq!(hist.max(), *exact.last().unwrap());
}

// ===== loco-trace: span collection, flight recorder, watchdog =======

/// Drive a mkdir/stat mix through any endpoint with tracing on,
/// returning the collected span tree.
fn traced_dms_script(ep: &dyn Endpoint<DmsRequest, DmsResponse>) -> Vec<locofs::obs::VisitSpan> {
    let mut ctx = CallCtx::new();
    ctx.start_trace(42);
    for i in 0..20 {
        ep.call(
            &mut ctx,
            DmsRequest::Mkdir {
                path: format!("/d{i}"),
                mode: 0o755,
                uid: 1,
                gid: 1,
                ts: 0,
            },
        );
    }
    for i in 0..5 {
        ep.call(
            &mut ctx,
            DmsRequest::GetDir {
                path: format!("/d{i}"),
            },
        );
    }
    ctx.take_op_trace().expect("context was traced").spans
}

#[test]
fn span_trees_agree_across_transports() {
    let id = ServerId::new(class::DMS, 0);
    let mk = || DirServer::new(DmsBackend::BTree, KvConfig::default());

    let sim_spans = traced_dms_script(&SimEndpoint::new(id, mk()));
    let (tcp_ep, _guard) = serve_dms(id, mk(), ServeOptions::default());
    let tcp_spans = traced_dms_script(&tcp_ep);

    // Queue wait is real wall-clock time and legitimately differs
    // between the in-process call and the server core; everything
    // else — span ids, parents, op labels, virtual service costs, and
    // the KV/software attribution shipped back over the wire — must be
    // identical.
    let normalize = |spans: Vec<locofs::obs::VisitSpan>| {
        spans
            .into_iter()
            .map(|mut s| {
                s.queue_ns = 0;
                s
            })
            .collect::<Vec<_>>()
    };
    let (sim_spans, tcp_spans) = (normalize(sim_spans), normalize(tcp_spans));
    assert_eq!(sim_spans.len(), 25);
    assert_eq!(sim_spans, tcp_spans);
    // The span tree is attributed: each visit splits its service time
    // into software and KV shares.
    for s in &sim_spans {
        assert_eq!(s.parent, 1, "visits hang off the root span");
        assert!(s.attr("kv_ns") <= s.service_ns);
        assert!(s.attr("kv_ops") > 0, "DMS ops touch the KV store: {s:?}");
    }
}

#[test]
fn sampling_off_records_zero_spans_and_costs_nothing_in_state() {
    use locofs::client::TraceMode;
    let cluster = LocoCluster::new(LocoConfig::with_servers(2).traced(TraceMode::Off));
    let mut fs = cluster.client();
    fs.mkdir("/q", 0o755).unwrap();
    for i in 0..30 {
        fs.create(&format!("/q/f{i}"), 0o644).unwrap();
        fs.stat_file(&format!("/q/f{i}")).unwrap();
    }
    assert!(fs.flight_recorder().is_empty(), "off ⇒ no records");
    assert_eq!(fs.flight_recorder().stats(), (0, 0), "off ⇒ never offered");
    assert_eq!(fs.watchdog().fired_count(), 0);
    assert!(fs.watchdog().events().is_empty());
}

#[test]
fn tracing_does_not_perturb_virtual_latencies() {
    use locofs::client::TraceMode;
    // The tracer observes the latency model; it must not change it.
    let run = |mode: TraceMode| {
        let cluster = LocoCluster::new(LocoConfig::with_servers(2).traced(mode));
        let mut fs = cluster.client();
        fs.mkdir("/p", 0o755).unwrap();
        for i in 0..25 {
            fs.create(&format!("/p/f{i}"), 0o644).unwrap();
            fs.stat_file(&format!("/p/f{i}")).unwrap();
        }
        fs.rename_dir("/p", "/p2").unwrap();
        fs.now()
    };
    assert_eq!(run(TraceMode::Off), run(TraceMode::All));
    assert_eq!(run(TraceMode::Off), run(TraceMode::Sample(7)));
}

/// The subsystem's acceptance test: a deliberately slow operation shows
/// up in the flight recorder with a span tree naming the layer that
/// consumed the time, and the watchdog fires exactly one structured
/// event for it.
#[test]
fn slow_op_is_flight_recorded_attributed_and_watchdogged() {
    use locofs::client::TraceMode;
    let cluster = LocoCluster::new(LocoConfig::with_servers(2).traced(TraceMode::Slow));
    let mut fs = cluster.client();

    // Warm phase: enough cheap ops to arm the watchdog's baseline
    // (min_samples) with ordinary latencies.
    fs.mkdir("/big", 0o755).unwrap();
    for i in 0..64 {
        fs.stat_dir("/big").unwrap();
        fs.create(&format!("/big/f{i}"), 0o644).unwrap();
    }
    assert_eq!(fs.watchdog().fired_count(), 0, "warm phase is unremarkable");

    // Grow a wide subtree, then range-move it: the DMS rename extracts
    // and reinserts every d-inode under the prefix in one visit — the
    // op class the paper's §3.4.3 calls out, and our designated slow op.
    for i in 0..800 {
        fs.mkdir(&format!("/big/sub{i}"), 0o755).unwrap();
    }
    let fired_before = fs.watchdog().fired_count();
    let moved = fs.rename_dir("/big", "/big2").unwrap();
    assert_eq!(moved, 801);

    // 1. The flight recorder holds it, slowest-first.
    let recs = fs.flight_recorder().slowest_of("rename_dir");
    assert_eq!(recs.len(), 1, "one rename_dir was sampled");
    let rec = &recs[0];
    assert_eq!(rec.detail, "/big", "root span carries the source path");
    assert_eq!(
        fs.flight_recorder().slowest().first().map(|r| r.trace_id),
        Some(rec.trace_id),
        "globally the slowest op of the run"
    );

    // 2. The span tree names the exact layer that consumed the time:
    // one DMS visit whose KV share dominates client, network, and
    // every other server's software share.
    assert_eq!(rec.visits.len(), 1, "d-rename is a single DMS visit");
    assert_eq!(rec.visits[0].role(), "dms");
    assert_eq!(rec.visits[0].op, "RenameDir");
    assert!(
        rec.dominant_layer().starts_with("dms"),
        "latency attributed to the DMS, got {}",
        rec.dominant_layer()
    );
    assert!(
        rec.visits[0].attr("kv_ops") >= 801,
        "range move touches every moved inode: {:?}",
        rec.visits[0]
    );

    // 3. The watchdog fired exactly one tail-latency event for it,
    // with the span tree attached.
    let events: Vec<_> = fs
        .watchdog()
        .events()
        .into_iter()
        .filter(|e| e.op == "rename_dir")
        .collect();
    assert_eq!(events.len(), 1, "exactly one event for the slow op");
    let ev = &events[0];
    assert_eq!(ev.kind, locofs::obs::WatchdogKind::TailLatency);
    assert_eq!(ev.trace_id, rec.trace_id);
    assert!(ev.latency_ns > ev.threshold_ns);
    assert!(ev.record.is_some(), "event carries the full span tree");
    assert_eq!(
        fs.watchdog().fired_count(),
        fired_before + 1,
        "no other op tripped the watchdog"
    );

    // 4. The record exports as a Chrome trace that parses back with
    // the KV share nested inside the DMS visit span.
    let text = fs.flight_recorder().chrome_trace();
    let spans = parse_chrome_trace(&text).expect("flight export parses");
    let client = spans
        .iter()
        .find(|s| s.cat == "client" && s.name == "rename_dir")
        .expect("client span present");
    let server = spans
        .iter()
        .find(|s| s.cat == "server" && s.name.starts_with("dms0/RenameDir"))
        .expect("DMS visit span present");
    let kv = spans
        .iter()
        .filter(|s| s.cat == "kv")
        .find(|s| server.encloses(s))
        .expect("kv share nests in the DMS visit");
    assert!(client.encloses(server), "visit nests in the op span");
    assert!(kv.dur_us <= server.dur_us);

    // 5. CI artifact hook: when LOCO_OBS_DUMP_DIR is set, leave the
    // dumps on disk for the workflow to upload.
    if let Ok(dir) = std::env::var("LOCO_OBS_DUMP_DIR") {
        let dir = std::path::Path::new(&dir);
        std::fs::create_dir_all(dir).expect("create dump dir");
        std::fs::write(dir.join("flight.json"), fs.flight_recorder().dump_json())
            .expect("write flight dump");
        std::fs::write(dir.join("flight.chrome.json"), &text).expect("write chrome dump");
        std::fs::write(dir.join("metrics.prom"), fs.registry().render_prometheus())
            .expect("write metrics dump");
        std::fs::write(dir.join("watchdog.json"), format!("[{}]", ev.to_json()))
            .expect("write watchdog dump");
    }
}
