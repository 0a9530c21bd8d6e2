//! Mini-mdtest CLI: run a metadata phase against any modeled filesystem
//! and print latency + closed-loop throughput, like one cell of the
//! paper's evaluation.
//!
//! Usage:
//!   cargo run --release --example metadata_bench -- \
//!       [system] [servers] [clients] [items] [phase] [--transport T]
//!       [--clients N] [--sync-policy P]
//!
//!   system: loco-c | loco-nc | loco-cf | ceph | gluster | lustre-d1 |
//!           lustre-d2 | indexfs | rawkv        (default loco-c)
//!   phase:  touch | mkdir | file-stat | dir-stat | rm | rmdir |
//!           readdir | chmod | chown | truncate | access (default touch)
//!   --transport sim | tcp  (default sim; LocoFS systems only —
//!           tcp boots in-process localhost servers, or dials an
//!           external `locod` cluster when LOCO_CLUSTER is set)
//!   --clients N     closed-loop client count (same as positional 3)
//!   --sync-policy P wire mode WAL durability: os-managed | always
//!                   (default os-managed)
//!
//! With `--transport tcp` and a LocoFS system, an extra *wire
//! throughput* section runs after the modeled sections: real client
//! threads against in-process durable servers, measured in wall-clock
//! op/s, once with WAL group commit disabled (one fsync per acked
//! RPC) and once enabled — so the group commit win and the
//! fsyncs-per-op are recorded numbers in
//! `results/BENCH_fig08_tcp_pipelined.json`, not claims.

use locofs::baselines::{
    CephFsModel, DistFs, GlusterFsModel, IndexFsModel, LocoAdapter, LustreFsModel, LustreVariant,
    RawKvFs,
};
use locofs::client::{LocoConfig, Transport, TransportCluster};
use locofs::kv::SyncPolicy;
use locofs::mdtest::{
    collect_traces, dump_phase_slow_ops, gen_phase, gen_setup, run_latency, run_setup, BenchReport,
    PhaseKind, TreeSpec,
};
use locofs::sim::des::ClosedLoopSim;

fn make(system: &str, servers: u16, transport: Transport) -> Box<dyn DistFs> {
    match system {
        "loco-c" => Box::new(LocoAdapter::with_transport(
            LocoConfig::with_servers(servers),
            transport,
        )),
        "loco-nc" => Box::new(LocoAdapter::with_transport(
            LocoConfig::with_servers(servers).no_cache(),
            transport,
        )),
        "loco-cf" => Box::new(LocoAdapter::with_transport(
            LocoConfig::with_servers(servers).coupled(),
            transport,
        )),
        "ceph" => Box::new(CephFsModel::new(servers)),
        "gluster" => Box::new(GlusterFsModel::new(servers)),
        "lustre-d1" => Box::new(LustreFsModel::new(LustreVariant::Dne1, servers)),
        "lustre-d2" => Box::new(LustreFsModel::new(LustreVariant::Dne2, servers)),
        "indexfs" => Box::new(IndexFsModel::new(servers)),
        "rawkv" => Box::new(RawKvFs::new()),
        other => panic!("unknown system {other:?}"),
    }
}

fn phase(name: &str) -> PhaseKind {
    match name {
        "touch" => PhaseKind::FileCreate,
        "mkdir" => PhaseKind::DirCreate,
        "file-stat" => PhaseKind::FileStat,
        "dir-stat" => PhaseKind::DirStat,
        "rm" => PhaseKind::FileRemove,
        "rmdir" => PhaseKind::DirRemove,
        "readdir" => PhaseKind::Readdir,
        "chmod" => PhaseKind::ModChmod,
        "chown" => PhaseKind::ModChown,
        "truncate" => PhaseKind::ModTruncate,
        "access" => PhaseKind::ModAccess,
        other => panic!("unknown phase {other:?}"),
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut transport = Transport::Sim;
    let mut clients_flag: Option<usize> = None;
    let mut sync_policy = SyncPolicy::OsManaged;
    let mut args = Vec::new();
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        // Accept both `--flag VALUE` and `--flag=VALUE`.
        let mut flag_val = |name: &str| -> Option<String> {
            if a == name {
                Some(
                    it.next()
                        .unwrap_or_else(|| panic!("{name} needs a value"))
                        .clone(),
                )
            } else {
                a.strip_prefix(&format!("{name}=")).map(str::to_string)
            }
        };
        if let Some(val) = flag_val("--transport") {
            transport = Transport::parse(&val)
                .unwrap_or_else(|| panic!("unknown transport {val:?} (sim/tcp)"));
        } else if let Some(val) = flag_val("--clients") {
            clients_flag = Some(val.parse().expect("--clients takes a number"));
        } else if let Some(val) = flag_val("--sync-policy") {
            sync_policy = SyncPolicy::parse(&val)
                .unwrap_or_else(|| panic!("unknown sync policy {val:?} (os-managed/always)"));
        } else {
            args.push(a.clone());
        }
    }
    let system = args
        .first()
        .map(String::as_str)
        .unwrap_or("loco-c")
        .to_string();
    let servers: u16 = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(8);
    let clients: usize = clients_flag
        .or_else(|| args.get(2).and_then(|a| a.parse().ok()))
        .unwrap_or(64);
    let items: usize = args.get(3).and_then(|a| a.parse().ok()).unwrap_or(100);
    let kind = phase(args.get(4).map(String::as_str).unwrap_or("touch"));

    println!(
        "system={system} servers={servers} clients={clients} items/client={items} phase={} transport={transport}",
        kind.label()
    );

    // Single-client latency.
    let mut fs = make(&system, servers, transport);
    let spec1 = TreeSpec::new(1, items);
    run_setup(&mut *fs, &gen_setup(&spec1)).unwrap();
    if kind.needs_files() {
        let pre = match kind {
            PhaseKind::DirStat | PhaseKind::DirRemove => PhaseKind::DirCreate,
            _ => PhaseKind::FileCreate,
        };
        for op in &gen_phase(&spec1, pre)[0] {
            let _ = op.apply(&mut *fs);
            let _ = fs.take_trace();
        }
    }
    let run = run_latency(&mut *fs, &gen_phase(&spec1, kind)[0]);
    println!(
        "latency : mean {:.1} µs ({:.2}× RTT), errors {}",
        run.mean_us(),
        run.mean_rtts(fs.rtt().max(1)),
        run.errors
    );
    dump_phase_slow_ops(&format!("{system} {} latency", kind.label()), &mut *fs);
    let mut report = BenchReport::new("mdtest");
    let labels = (system.clone(), servers.to_string(), kind.label());
    report.push(
        "latency_mean_us",
        &[
            ("system", &labels.0),
            ("servers", &labels.1),
            ("phase", labels.2),
        ],
        run.mean_us(),
    );

    // Closed-loop throughput.
    let mut fs = make(&system, servers, transport);
    let spec = TreeSpec::new(clients, items);
    run_setup(&mut *fs, &gen_setup(&spec)).unwrap();
    if kind.needs_files() {
        let pre = match kind {
            PhaseKind::DirStat | PhaseKind::DirRemove => PhaseKind::DirCreate,
            _ => PhaseKind::FileCreate,
        };
        for stream in gen_phase(&spec, pre) {
            for op in stream {
                let _ = op.apply(&mut *fs);
                let _ = fs.take_trace();
            }
        }
    }
    let traces = collect_traces(&mut *fs, &gen_phase(&spec, kind));
    let sim = ClosedLoopSim {
        rtt: fs.rtt(),
        ..Default::default()
    };
    let out = sim.run(traces);
    println!(
        "throughput: {:.0} IOPS ({} ops, mean loaded latency {:.1} µs)",
        out.iops(),
        out.ops_completed,
        out.mean_latency() / 1000.0
    );
    dump_phase_slow_ops(&format!("{system} {} throughput", kind.label()), &mut *fs);
    report.push(
        "iops",
        &[
            ("system", &labels.0),
            ("servers", &labels.1),
            ("phase", labels.2),
        ],
        out.iops(),
    );
    report.write();

    // Wall-clock wire throughput (TCP + LocoFS systems only): the
    // sections above replay virtual costs; this one measures the real
    // server core — sockets, event loop, WAL, fsync — before and after
    // cross-connection group commit.
    if transport == Transport::Tcp && system.starts_with("loco") {
        wire_bench(&system, servers, clients, items, sync_policy);
    }
}

/// One wall-clock wire run: `clients` threads, `items` creates each,
/// against in-process durable TCP servers. Each thread's call holds one
/// pooled connection per server at a time. Returns (ops/s, WAL fsyncs).
fn wire_run(config: &LocoConfig, clients: usize, items: usize, group_commit: bool) -> (f64, u64) {
    // Read when `serve_tcp` starts. With group commit off, each durable
    // handler fsyncs inline before its reply is written: one fsync per
    // acked RPC.
    std::env::set_var("LOCO_GROUP_COMMIT", if group_commit { "on" } else { "off" });
    let cluster = TransportCluster::new(config.clone(), Transport::Tcp);
    let registry = cluster.registry.clone();

    let barrier = std::sync::Arc::new(std::sync::Barrier::new(clients + 1));
    let mut handles = Vec::new();
    for t in 0..clients {
        let mut c = cluster.client();
        let barrier = barrier.clone();
        handles.push(std::thread::spawn(move || {
            c.mkdir(&format!("/wire{t}"), 0o755).expect("setup dir");
            barrier.wait();
            for i in 0..items {
                c.create(&format!("/wire{t}/f{i}"), 0o644).expect("create");
            }
        }));
    }
    barrier.wait();
    let t0 = std::time::Instant::now();
    for h in handles {
        h.join().expect("wire client thread");
    }
    let secs = t0.elapsed().as_secs_f64().max(1e-9);

    // Drain the cluster: the shutdown maintenance pass publishes each
    // role's final WAL counters into the shared registry.
    let (num_dms, num_fms, num_ost) = (
        cluster.config.num_dms.max(1),
        cluster.config.num_fms,
        cluster.config.num_ost,
    );
    drop(cluster);
    let mut fsyncs = 0u64;
    for (role, n) in [("dms", num_dms), ("fms", num_fms), ("ost", num_ost)] {
        for i in 0..n {
            let idx = i.to_string();
            fsyncs += registry
                .gauge("loco_wal_fsyncs", &[("role", role), ("server", &idx)])
                .get()
                .max(0) as u64;
        }
    }
    ((clients * items) as f64 / secs, fsyncs)
}

/// The before/after group-commit comparison at equal durability, with
/// the result recorded in `results/BENCH_fig08_tcp_pipelined.json`.
fn wire_bench(system: &str, servers: u16, clients: usize, items: usize, sync_policy: SyncPolicy) {
    let scratch = std::env::temp_dir().join(format!("loco-wire-bench-{}", std::process::id()));
    // Short wall-clock runs are dominated by scheduler noise; floor the
    // per-thread op count so each trial lasts long enough to average it
    // out.
    let items = items.max(200);
    let ops = (clients * items) as f64;
    let policy_label = match sync_policy {
        SyncPolicy::EveryRecord => "always",
        SyncPolicy::OsManaged => "os-managed",
    };
    println!("wire     : {clients} clients, {items} creates each, sync-policy {policy_label}");
    println!("wire     : off = event loop, fsync per acked RPC; on = event loop + group commit");

    // Best of TRIALS per configuration, with the off/on arms
    // *interleaved* so drifting background load hits both arms alike
    // rather than biasing whichever ran second. The best run is the one
    // least disturbed by unrelated scheduling — standard practice for
    // peak-throughput comparisons. Each trial boots a fresh cluster on
    // a fresh WAL.
    const TRIALS: usize = 5;
    let arms = [("off", false), ("on", true)];
    let mut best: [Option<(f64, u64)>; 2] = [None, None];
    for trial in 0..TRIALS {
        for (arm, (tag, group_commit)) in arms.iter().enumerate() {
            let dir = scratch.join(format!("{tag}{trial}"));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("wire bench scratch dir");
            let config = LocoConfig::with_servers(servers).durable(&dir, sync_policy);
            let run = wire_run(&config, clients, items, *group_commit);
            if best[arm].is_none_or(|b| run.0 > b.0) {
                best[arm] = Some(run);
            }
        }
    }
    let mut results = Vec::new();
    for (arm, (tag, _)) in arms.iter().enumerate() {
        let (ops_per_s, fsyncs) = best[arm].expect("at least one trial");
        println!(
            "wire     : group-commit {tag:3} {ops_per_s:8.0} op/s, {fsyncs} wal fsyncs \
             ({:.3} fsyncs/op, best of {TRIALS})",
            fsyncs as f64 / ops
        );
        results.push((*tag, ops_per_s, fsyncs));
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let (_, off_ops, off_fsyncs) = results[0];
    let (_, on_ops, on_fsyncs) = results[1];
    println!(
        "wire     : fsyncs {off_fsyncs} -> {on_fsyncs}, throughput {off_ops:.0} -> {on_ops:.0} \
         op/s ({:.2}x) with group commit",
        on_ops / off_ops.max(1e-9)
    );

    let mut report = BenchReport::new("fig08_tcp_pipelined");
    let (c, s) = (clients.to_string(), servers.to_string());
    for (tag, ops_per_s, fsyncs) in results {
        let labels = [
            ("system", system),
            ("servers", s.as_str()),
            ("clients", c.as_str()),
            ("sync_policy", policy_label),
            ("group_commit", tag),
        ];
        report.push("wire_ops_per_s", &labels, ops_per_s);
        report.push("wal_fsyncs", &labels, fsyncs as f64);
        report.push("fsyncs_per_op", &labels, fsyncs as f64 / ops);
    }
    report.write();
}
