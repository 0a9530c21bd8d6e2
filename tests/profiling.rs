//! loco-prof acceptance: per-op resource attribution, span folding,
//! and the `locotop` dashboard, end to end.
//!
//! * sampled ops carry heap-allocation counts on the client record
//!   *and* on every server visit span, and the always-on
//!   `loco_alloc_per_op` histograms attribute allocations with tracing
//!   entirely off;
//! * folded stacks derived from the span trees are identical across
//!   the sim and TCP transports (modulo wall-clock queue frames),
//!   round-trip through render/parse, and conserve total
//!   attributed time;
//! * `locod profile` returns parseable folded stacks from a live
//!   daemon, and `locotop --once --json` renders a full cluster
//!   snapshot with plausible allocs/op, failing when a daemon is down.

use locofs::client::{LocoCluster, LocoConfig, TraceMode, Transport, TransportCluster};
use locofs::net::{control, Control, ControlReply};
use locofs::obs::{
    counting_installed, fold_records, leaf_total, parse_folded, render_folded, FoldedStacks,
};
use std::process::Command;
use std::time::{Duration, Instant};

/// Upper bound on heap allocations a single metadata op may perform,
/// client- or server-side. Generous (real counts are tens), but tight
/// enough to catch attribution bugs that misfile whole phases of work
/// onto one op.
const MAX_PLAUSIBLE_ALLOCS_PER_OP: u64 = 100_000;

#[test]
fn sampled_ops_carry_alloc_attribution_client_and_server() {
    assert!(
        counting_installed(),
        "loco-obs installs the counting global allocator in this binary"
    );
    let cluster = LocoCluster::new(LocoConfig::with_servers(2).traced(TraceMode::All));
    let mut fs = cluster.client();
    fs.mkdir("/a", 0o755).unwrap();
    for i in 0..16 {
        fs.create(&format!("/a/f{i}"), 0o644).unwrap();
    }
    let records = fs.flight_recorder().recent();
    assert_eq!(records.len(), 17, "TraceMode::All records every op");
    for rec in &records {
        // Client-side: building request paths alone allocates, so a
        // zero here means the snapshot/delta pair never ran.
        assert!(
            (1..MAX_PLAUSIBLE_ALLOCS_PER_OP).contains(&rec.allocs),
            "implausible client allocs for {}: {}",
            rec.op,
            rec.allocs
        );
        assert!(rec.alloc_bytes > 0, "allocations imply bytes: {rec:?}");
        // Server-side: every visit span carries its handler's counts
        // (metadata mutations insert into the KV store, so the
        // handler path allocates too).
        for v in &rec.visits {
            let allocs = v.attr("allocs");
            assert!(
                (1..MAX_PLAUSIBLE_ALLOCS_PER_OP).contains(&allocs),
                "implausible server allocs for {}/{}: {allocs}",
                v.server,
                v.op
            );
            assert!(v.attr("alloc_bytes") > 0, "visit bytes: {v:?}");
        }
        assert!(rec.total_allocs() > rec.allocs, "total spans both sides");
    }
    // The op's JSON export carries the aggregate, for dashboards.
    let json = records[0].to_json().to_string();
    assert!(json.contains("\"allocs\""), "{json}");
    assert!(json.contains("\"alloc_bytes\""), "{json}");
    // And the registry holds both per-op alloc histograms: client
    // (sampled ops) and server (always-on).
    let text = fs.registry().render_prometheus();
    assert!(
        text.contains("loco_client_alloc_per_op{op=\"create\""),
        "{text}"
    );
    assert!(text.contains("loco_alloc_per_op{"), "{text}");
    assert!(text.contains("loco_alloc_bytes_per_op{"), "{text}");
}

#[test]
fn tracing_off_still_attributes_allocs_server_side_only() {
    let cluster = LocoCluster::new(LocoConfig::with_servers(2).traced(TraceMode::Off));
    let mut fs = cluster.client();
    fs.mkdir("/b", 0o755).unwrap();
    for i in 0..8 {
        fs.create(&format!("/b/f{i}"), 0o644).unwrap();
    }
    assert!(fs.flight_recorder().is_empty(), "off ⇒ nothing sampled");
    let text = fs.registry().render_prometheus();
    // The unsampled client path takes no snapshots and registers no
    // client alloc families...
    assert!(!text.contains("loco_client_alloc_per_op"), "{text}");
    // ...but server-side attribution is always on: the per-RPC alloc
    // histograms populate regardless.
    assert!(text.contains("loco_alloc_per_op{"), "{text}");
    let pt = locofs::obs::promtext::parse(&text).unwrap();
    let count = pt.sum("loco_alloc_per_op_count", &[("role", "dms")]);
    assert!(count > 0.0, "DMS requests were attributed: {text}");
    let mean = pt.sum("loco_alloc_per_op_sum", &[("role", "dms")]) / count;
    assert!(
        mean >= 1.0 && mean < MAX_PLAUSIBLE_ALLOCS_PER_OP as f64,
        "implausible DMS allocs/op {mean}"
    );
}

/// Run the golden create workload on one transport and fold it.
fn folded_create_workload(transport: Transport) -> FoldedStacks {
    let config = LocoConfig::with_servers(2).traced(TraceMode::All);
    let cluster = TransportCluster::new(config, transport);
    let mut c = cluster.client();
    c.mkdir("/g", 0o755).unwrap();
    for i in 0..10 {
        c.create(&format!("/g/f{i}"), 0o644).unwrap();
    }
    fold_records(&cluster.flight.recent())
}

/// Queue-wait frames are wall-clock and legitimately differ between an
/// in-process call and a socket; everything else in the fold is
/// virtual-cost and must agree bit-for-bit.
fn drop_queue_frames(stacks: FoldedStacks) -> FoldedStacks {
    stacks
        .into_iter()
        .filter(|(s, _)| s.rsplit(';').next() != Some("queue"))
        .collect()
}

#[test]
fn folded_stacks_agree_across_transports_and_round_trip() {
    let sim = drop_queue_frames(folded_create_workload(Transport::Sim));
    let tcp = drop_queue_frames(folded_create_workload(Transport::Tcp));
    assert!(!sim.is_empty());
    assert_eq!(sim, tcp, "sim vs tcp folds");

    // Golden shape of the create workload: client work, network, and
    // the FMS Create handler with its KV share all present.
    let stacks: Vec<&str> = sim.iter().map(|(s, _)| s.as_str()).collect();
    assert!(stacks.contains(&"create"), "{stacks:?}");
    assert!(stacks.contains(&"create;net"), "{stacks:?}");
    assert!(
        stacks
            .iter()
            .any(|s| s.starts_with("create;fms") && s.ends_with(".Create")),
        "{stacks:?}"
    );
    assert!(
        stacks
            .iter()
            .any(|s| s.starts_with("create;fms") && s.ends_with(".Create;kv")),
        "{stacks:?}"
    );
    assert!(
        stacks.iter().any(|s| s.starts_with("mkdir;dms0")),
        "{stacks:?}"
    );
    assert!(leaf_total(&sim, "kv") > 0, "KV time attributed");

    // The folded text round-trips through the parser losslessly.
    let text = render_folded(&sim);
    assert_eq!(parse_folded(&text).unwrap(), sim);

    // Conservation: the fold redistributes — never invents — time.
    // Client work + network + service must equal the fold total.
    let cluster = TransportCluster::new(
        LocoConfig::with_servers(2).traced(TraceMode::All),
        Transport::Sim,
    );
    let mut c = cluster.client();
    c.mkdir("/g", 0o755).unwrap();
    for i in 0..10 {
        c.create(&format!("/g/f{i}"), 0o644).unwrap();
    }
    let records = cluster.flight.recent();
    let expected: u64 = records
        .iter()
        .map(|r| {
            r.client_work_ns
                + r.visits.len() as u64 * r.rtt_ns
                + r.visits
                    .iter()
                    .map(|v| v.service_ns + v.queue_ns)
                    .sum::<u64>()
        })
        .sum();
    let total: u64 = fold_records(&records).iter().map(|(_, v)| *v).sum();
    assert_eq!(total, expected);
}

// --- live-cluster dashboard ------------------------------------------

struct Daemon(std::process::Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn free_port() -> u16 {
    std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port()
}

fn spawn_daemon(role: &str, addr: &str) -> Daemon {
    let child = Command::new(env!("CARGO_BIN_EXE_locod"))
        .args([
            "serve",
            "--role",
            role,
            "--index",
            "0",
            "--listen",
            addr,
            "--maintain-ms",
            "100",
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn locod");
    Daemon(child)
}

fn wait_ping(addr: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if matches!(
            control(addr, Control::Ping, Duration::from_millis(500)),
            Ok(ControlReply::Pong)
        ) {
            return;
        }
        assert!(Instant::now() < deadline, "{addr} never answered a ping");
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn locotop_and_locod_profile_work_against_a_live_cluster() {
    let (dms, fms, ost) = (
        format!("127.0.0.1:{}", free_port()),
        format!("127.0.0.1:{}", free_port()),
        format!("127.0.0.1:{}", free_port()),
    );
    let _daemons = [
        spawn_daemon("dms", &dms),
        spawn_daemon("fms", &fms),
        spawn_daemon("ost", &ost),
    ];
    for a in [&dms, &fms, &ost] {
        wait_ping(a);
    }

    // Drive real metadata load over the wire.
    let spec = format!("dms={dms};fms={fms};ost={ost}");
    let addrs = locofs::client::ClusterAddrs::parse(&spec).unwrap();
    let cluster = TransportCluster::tcp_external(LocoConfig::default(), &addrs);
    let mut c = cluster.client();
    c.mkdir("/live", 0o755).unwrap();
    for i in 0..32 {
        let mut h = c.create(&format!("/live/f{i}"), 0o644).unwrap();
        c.write(&mut h, 0, b"x").unwrap();
        c.stat_file(&format!("/live/f{i}")).unwrap();
    }
    // Let at least two maintain ticks land so the series ring holds a
    // rate window.
    std::thread::sleep(Duration::from_millis(300));

    // `locod profile` returns parseable folded stacks with the per-op
    // KV split, tracing entirely off.
    let out = Command::new(env!("CARGO_BIN_EXE_locod"))
        .args(["profile", &dms])
        .output()
        .expect("run locod profile");
    assert!(out.status.success(), "{out:?}");
    let folded = parse_folded(&String::from_utf8_lossy(&out.stdout)).expect("parseable fold");
    let stacks: Vec<&str> = folded.iter().map(|(s, _)| s.as_str()).collect();
    assert!(
        stacks.iter().any(|s| s.starts_with("dms0;")),
        "daemon-rooted frames: {stacks:?}"
    );
    assert!(
        leaf_total(&folded, "kv") > 0,
        "KV share present: {stacks:?}"
    );

    // `locod series` returns the ring as JSON with at least one point.
    let out = Command::new(env!("CARGO_BIN_EXE_locod"))
        .args(["series", &dms])
        .output()
        .expect("run locod series");
    assert!(out.status.success(), "{out:?}");
    let series = locofs::obs::json::parse(String::from_utf8_lossy(&out.stdout).trim())
        .expect("series JSON parses");
    assert!(
        !series.get("points").unwrap().as_arr().unwrap().is_empty(),
        "maintain timer ticked the ring"
    );

    // `locotop --once --json`: one snapshot covering every daemon,
    // machine-readable, exit 0.
    let out = Command::new(env!("CARGO_BIN_EXE_locotop"))
        .args(["--cluster", &spec, "--once", "--json"])
        .output()
        .expect("run locotop");
    assert!(out.status.success(), "{out:?}");
    let doc = locofs::obs::json::parse(String::from_utf8_lossy(&out.stdout).trim())
        .expect("locotop JSON parses");
    assert_eq!(doc.get("ok").unwrap(), &locofs::obs::json::Json::Bool(true));
    let daemons = doc.get("daemons").unwrap().as_arr().unwrap();
    assert_eq!(daemons.len(), 3);
    for d in daemons {
        assert_eq!(d.get("ok").unwrap(), &locofs::obs::json::Json::Bool(true));
        let ops = d.get("ops_total").unwrap().as_f64().unwrap();
        assert!(ops > 0.0, "every role served requests: {d:?}");
        let allocs = d
            .get("allocs_per_op")
            .unwrap()
            .as_f64()
            .expect("allocs/op attributed with tracing off");
        assert!(
            allocs >= 1.0 && allocs < MAX_PLAUSIBLE_ALLOCS_PER_OP as f64,
            "implausible allocs/op {allocs} for {d:?}"
        );
    }

    // Against a dead daemon the one-shot snapshot fails loudly.
    drop(_daemons);
    let out = Command::new(env!("CARGO_BIN_EXE_locotop"))
        .args([
            "--cluster",
            &spec,
            "--once",
            "--json",
            "--timeout-ms",
            "300",
        ])
        .output()
        .expect("run locotop on dead cluster");
    assert!(!out.status.success(), "dead cluster must exit non-zero");
}
