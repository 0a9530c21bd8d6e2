//! Mini-mdtest CLI: run a metadata phase against any modeled filesystem
//! and print latency + closed-loop throughput, like one cell of the
//! paper's evaluation.
//!
//! Usage:
//!   cargo run --release --example metadata_bench -- \
//!       [system] [servers] [clients] [items] [phase] [--transport T]
//!       [--clients N]
//!
//!   system: loco-c | loco-nc | loco-cf | ceph | gluster | lustre-d1 |
//!           lustre-d2 | indexfs | rawkv        (default loco-c)
//!   phase:  touch | mkdir | file-stat | dir-stat | rm | rmdir |
//!           readdir | chmod | chown | truncate | access (default touch)
//!   --transport sim | tcp  (default sim; LocoFS systems only —
//!           tcp boots in-process localhost servers, or dials an
//!           external `locod` cluster when LOCO_CLUSTER is set)
//!   --clients N     closed-loop client count (same as positional 3)
//!
//! Both sections replay modeled costs, over either transport. The
//! measured wall-clock numbers of the real stack, group-commit fsync
//! and commit wait included, come from `wallbench/` (its
//! `durable-mixed` workload runs WAL fsync per record with group
//! commit).

use locofs::baselines::{
    CephFsModel, DistFs, GlusterFsModel, IndexFsModel, LocoAdapter, LustreFsModel, LustreVariant,
    RawKvFs,
};
use locofs::client::{LocoConfig, Transport};
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
}
