//! Fig 8 — closed-loop throughput of touch, mkdir, rm, rmdir,
//! file-stat and dir-stat while scaling metadata servers 1→16.
//!
//! Paper shape: LocoFS-C ≈100 K create IOPS at one server, scaling with
//! FMS count (touch ≈2.8× LocoFS-NC at 16 servers); mkdir flat for
//! LocoFS (single DMS) but scaling for Lustre; rmdir anti-scales for
//! LocoFS (checks every FMS); CephFS wins the stat phases via client
//! caching.

//! Pass `--transport {sim,tcp}` to run the LocoFS rows over a
//! different endpoint flavour (baseline models are unaffected); the
//! report is then written as `BENCH_fig08_<transport>.json`. Virtual
//! costs cross the wire, so the numbers are transport-invariant — the
//! tcp run exists to exercise the RPC stack at benchmark scale.
//!
//! `--clients N` overrides the paper's Table 3 client counts;
//! `--pipeline D` models D outstanding requests per client (closed-loop
//! equivalent: N x D concurrent streams). Wall-clock numbers of the
//! real stack come from `wallbench/`, not from this binary.
//!
//! `--overload` runs the loco-guard overload arm instead: a wall-clock
//! goodput comparison at 4x the measured capacity concurrency, guard on
//! vs `LOCO_GUARD=off`, written to `results/BENCH_overload.json` (see
//! DESIGN.md §15).

use loco_bench::{
    env_scale, measure_throughput_on, paper_clients, parse_transport_flag, BenchReport, FsKind,
    Table, Transport,
};
use loco_mdtest::PhaseKind;

mod overload {
    //! The loco-guard overload arm (`fig08 --overload`).
    //!
    //! A deliberately slow DMS (5 ms of service per mutation, 5 ms of
    //! extra fsync latency — a loaded disk in miniature) is driven
    //! closed-loop over TCP, twice:
    //!
    //! * **capacity** — 4 clients with a generous deadline: the healthy
    //!   throughput baseline;
    //! * **overload** — 16 clients (4x the capacity concurrency), each
    //!   holding an 80 ms SLO. *Goodput* counts only ops acknowledged
    //!   within the SLO.
    //!
    //! Run once with the guard on (clients stamp their 80 ms budget
    //! into every frame; the server drops expired-in-queue requests
    //! before dispatch and sheds past the admission watermarks) and
    //! once with `LOCO_GUARD=off` (the pre-guard baseline: every stale
    //! request is executed anyway, so under 4x load the queue grows
    //! and almost every reply misses the SLO). The guard arm should
    //! hold >= 70% of capacity as goodput; the baseline arm collapses.

    use loco_bench::{BenchReport, Table};
    use loco_dms::{DirServer, DmsRequest, DmsResponse};
    use loco_kv::{BTreeDb, DurableStore, KvConfig, SyncPolicy};
    use loco_net::tcp::{serve_tcp, RetryPolicy, ServeOptions, TcpEndpoint};
    use loco_net::{class, CallCtx, CommitFsync, Endpoint, MaintainReport, ServerId, Service};
    use loco_obs::MetricsRegistry;
    use std::net::TcpListener;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// Per-mutation service time — the knob that makes a laptop DMS
    /// behave like a loaded one (capacity ~= workers-independent
    /// 1/SERVICE since the service mutex serialises handlers). Kept
    /// small relative to the SLO so that an op the server *chooses* to
    /// execute can still make its deadline — the waste the guard
    /// cannot avoid (work admitted with a near-empty budget) stays a
    /// few percent instead of dominating.
    const SERVICE: Duration = Duration::from_millis(2);
    /// Extra group-commit fsync latency (parked-reply delay).
    const FSYNC_EXTRA: Duration = Duration::from_millis(2);
    /// The client-side SLO; the guard arm also propagates it as the
    /// per-request deadline budget.
    const SLO: Duration = Duration::from_millis(80);
    const CAPACITY_CLIENTS: usize = 16;
    /// 4x the capacity concurrency: the queue delay alone
    /// (64 x 2 ms = 128 ms) exceeds the SLO, so the baseline arm
    /// executes almost exclusively already-dead requests.
    const OVERLOAD_CLIENTS: usize = 64;

    /// [`DirServer`] slowed down to miniature-loaded-disk speed.
    struct SlowDms(DirServer);

    impl Service for SlowDms {
        type Req = DmsRequest;
        type Resp = DmsResponse;
        fn handle(&mut self, req: DmsRequest) -> DmsResponse {
            std::thread::sleep(SERVICE);
            self.0.handle(req)
        }
        fn take_cost(&mut self) -> loco_sim::time::Nanos {
            self.0.take_cost()
        }
        fn req_label(req: &DmsRequest) -> &'static str {
            DirServer::req_label(req)
        }
        fn tag_mutates(tag: u8) -> bool {
            DirServer::tag_mutates(tag)
        }
        fn req_idempotent(req: &DmsRequest) -> bool {
            DirServer::req_idempotent(req)
        }
        fn maintain(&mut self, drain: bool) -> Option<MaintainReport> {
            self.0.maintain(drain)
        }
        fn defer_sync(&mut self, on: bool) -> bool {
            self.0.defer_sync(on)
        }
        fn take_commit_ticket(&mut self) -> Option<u64> {
            self.0.take_commit_ticket()
        }
        fn commit_flush_begin(&mut self) -> Option<(u64, CommitFsync)> {
            self.0.commit_flush_begin().map(|(n, fsync)| {
                let slow: CommitFsync = Box::new(move || {
                    std::thread::sleep(FSYNC_EXTRA);
                    fsync();
                });
                (n, slow)
            })
        }
    }

    fn mkdir(path: String) -> DmsRequest {
        DmsRequest::MkdirLocal {
            path,
            mode: 0o755,
            uid: 0,
            gid: 0,
            ts: 1,
        }
    }

    struct PhaseStats {
        good: u64,
        late_or_failed: u64,
        expired_rejects: u64,
        shed_rejects: u64,
        lat_ms: Vec<f64>,
        wall: Duration,
    }

    impl PhaseStats {
        fn goodput(&self) -> f64 {
            self.good as f64 / self.wall.as_secs_f64()
        }
        fn p99_ms(&mut self) -> f64 {
            if self.lat_ms.is_empty() {
                return 0.0;
            }
            self.lat_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
            self.lat_ms[(self.lat_ms.len() - 1) * 99 / 100]
        }
    }

    /// Closed-loop mkdir storm: `clients` threads for `secs`, each op
    /// counted good only if acknowledged within `slo`. `budget` decides
    /// whether the SLO is also propagated to the server as a deadline.
    fn drive(
        id: ServerId,
        addr: &str,
        tag: &str,
        clients: usize,
        secs: f64,
        slo: Duration,
        budget: bool,
    ) -> PhaseStats {
        let until = Instant::now() + Duration::from_secs_f64(secs);
        let t0 = Instant::now();
        let workers: Vec<_> = (0..clients)
            .map(|t| {
                let addr = addr.to_string();
                let tag = tag.to_string();
                std::thread::spawn(move || {
                    let policy = RetryPolicy {
                        attempts: 1,
                        backoff: Duration::from_millis(1),
                        deadline: slo,
                        connect_timeout: Duration::from_secs(2),
                        reconnect_window: Duration::ZERO,
                        retry_budget: 0,
                        breaker_threshold: 0,
                        breaker_cooldown: Duration::from_millis(100),
                    };
                    let ep = TcpEndpoint::<SlowDms>::with_policy(id, &addr, policy);
                    let mut ctx = CallCtx::new();
                    let mut s = PhaseStats {
                        good: 0,
                        late_or_failed: 0,
                        expired_rejects: 0,
                        shed_rejects: 0,
                        lat_ms: Vec::new(),
                        wall: Duration::ZERO,
                    };
                    let mut i = 0u64;
                    while Instant::now() < until {
                        if budget {
                            ctx.set_deadline(slo);
                        } else {
                            ctx.clear_deadline();
                        }
                        let op0 = Instant::now();
                        let r = ep.try_call(&mut ctx, mkdir(format!("/{tag}-{t}-{i}")));
                        let lat = op0.elapsed();
                        s.lat_ms.push(lat.as_secs_f64() * 1e3);
                        i += 1;
                        match r {
                            Ok(DmsResponse::Done(Ok(_))) if lat <= slo => s.good += 1,
                            Ok(_) => s.late_or_failed += 1,
                            Err(loco_net::RpcError::Expired) => s.expired_rejects += 1,
                            Err(loco_net::RpcError::Overloaded) => s.shed_rejects += 1,
                            Err(_) => s.late_or_failed += 1,
                        }
                    }
                    s
                })
            })
            .collect();
        let mut total = PhaseStats {
            good: 0,
            late_or_failed: 0,
            expired_rejects: 0,
            shed_rejects: 0,
            lat_ms: Vec::new(),
            wall: Duration::ZERO,
        };
        for w in workers {
            let s = w.join().unwrap();
            total.good += s.good;
            total.late_or_failed += s.late_or_failed;
            total.expired_rejects += s.expired_rejects;
            total.shed_rejects += s.shed_rejects;
            total.lat_ms.extend(s.lat_ms);
        }
        total.wall = t0.elapsed();
        total
    }

    fn server_counter(reg: &MetricsRegistry, name: &str, extra: (&str, &str)) -> u64 {
        let labels: [(&str, &str); 3] = [("role", "dms"), ("server", "0"), extra];
        reg.counter(name, &labels).get()
    }

    struct ArmResult {
        capacity: f64,
        goodput: f64,
        ratio: f64,
        p99_ms: f64,
        expired: u64,
        shed: u64,
    }

    /// One full arm: boot a slow durable DMS (guard per `LOCO_GUARD`,
    /// already set by the caller), measure capacity, then goodput at 4x.
    fn run_arm(arm: &str, secs: f64, report: &mut BenchReport) -> ArmResult {
        let scratch =
            std::env::temp_dir().join(format!("loco-fig08-overload-{}-{arm}", std::process::id()));
        let _ = std::fs::remove_dir_all(&scratch);
        std::fs::create_dir_all(&scratch).unwrap();
        let id = ServerId::new(class::DMS, 0);
        let registry = Arc::new(MetricsRegistry::new());
        let store = DurableStore::open(&scratch, BTreeDb::new(KvConfig::default()))
            .unwrap()
            .with_sync_policy(SyncPolicy::EveryRecord);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut guard = serve_tcp(
            id,
            SlowDms(DirServer::with_store(Box::new(store), 0)),
            listener,
            ServeOptions {
                registry: Some(Arc::clone(&registry)),
                max_inflight: 8,
                shed_watermark: 64,
                ..Default::default()
            },
        )
        .unwrap();
        let addr = guard.addr().to_string();

        let cap = drive(
            id,
            &addr,
            &format!("cap-{arm}"),
            CAPACITY_CLIENTS,
            secs,
            Duration::from_secs(2),
            false,
        );
        let capacity = cap.goodput();

        let mut ovl = drive(
            id,
            &addr,
            &format!("ovl-{arm}"),
            OVERLOAD_CLIENTS,
            secs,
            SLO,
            arm == "on",
        );
        let goodput = ovl.goodput();
        let p99 = ovl.p99_ms();
        let expired = server_counter(&registry, "loco_server_expired", ("op", "MkdirLocal"))
            + server_counter(&registry, "loco_server_expired", ("op", "?"));
        let shed = server_counter(&registry, "loco_server_shed", ("reason", "inflight"))
            + server_counter(&registry, "loco_server_shed", ("reason", "queue"));
        guard.shutdown();
        let _ = std::fs::remove_dir_all(&scratch);

        let ratio = if capacity > 0.0 {
            goodput / capacity
        } else {
            0.0
        };
        let labels = [("guard", arm)];
        report.push("capacity_ops_per_s", &labels, capacity);
        report.push("goodput_ops_per_s", &labels, goodput);
        report.push("goodput_ratio_vs_capacity", &labels, ratio);
        report.push("p99_ms", &labels, p99);
        report.push("expired_total", &labels, expired as f64);
        report.push("shed_total", &labels, shed as f64);
        report.push(
            "late_or_failed",
            &labels,
            ovl.late_or_failed as f64 / ovl.wall.as_secs_f64(),
        );
        ArmResult {
            capacity,
            goodput,
            ratio,
            p99_ms: p99,
            expired,
            shed,
        }
    }

    /// Entry point for `fig08 --overload`.
    pub fn run() {
        let secs: f64 = std::env::var("LOCO_OVERLOAD_SECS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(2.0);
        let mut report = BenchReport::new("overload");

        std::env::set_var("LOCO_GUARD", "on");
        let on = run_arm("on", secs, &mut report);
        std::env::set_var("LOCO_GUARD", "off");
        let off = run_arm("off", secs, &mut report);
        std::env::remove_var("LOCO_GUARD");

        let mut t = Table::new(vec![
            "guard",
            "capacity/s",
            "goodput/s",
            "ratio",
            "p99 ms",
            "expired",
            "shed",
        ]);
        for (name, r) in [("on", &on), ("off", &off)] {
            t.row(vec![
                name.to_string(),
                format!("{:.0}", r.capacity),
                format!("{:.0}", r.goodput),
                format!("{:.2}", r.ratio),
                format!("{:.1}", r.p99_ms),
                r.expired.to_string(),
                r.shed.to_string(),
            ]);
        }
        t.print(&format!(
            "loco-guard overload arm: goodput at 4x capacity concurrency \
             [{OVERLOAD_CLIENTS} clients, {} ms SLO, {secs:.1}s/phase]",
            SLO.as_millis()
        ));

        let guard_holds = on.ratio >= 0.70;
        let baseline_worse = off.ratio < on.ratio;
        report.push(
            "guard_on_holds_70pct",
            &[],
            f64::from(u8::from(guard_holds)),
        );
        report.push(
            "guard_off_degrades_worse",
            &[],
            f64::from(u8::from(baseline_worse)),
        );
        println!(
            "verdict: guard-on holds {:.0}% of capacity ({}); guard-off holds {:.0}% ({})",
            on.ratio * 100.0,
            if guard_holds {
                "PASS >=70%"
            } else {
                "FAIL <70%"
            },
            off.ratio * 100.0,
            if baseline_worse {
                "degrades worse, as expected"
            } else {
                "UNEXPECTEDLY better"
            },
        );
        report.write();
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--overload") {
        overload::run();
        return;
    }
    let (rest, transport) = parse_transport_flag(&args);
    let mut clients_override: Option<usize> = None;
    let mut pipeline: usize = 1;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--clients" => {
                let v = it.next().expect("--clients needs a value");
                clients_override = Some(v.parse().expect("--clients takes a number"));
            }
            "--pipeline" => {
                let v = it.next().expect("--pipeline needs a value");
                pipeline = v.parse().expect("--pipeline takes a number");
                assert!(pipeline >= 1, "--pipeline must be at least 1");
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    let items = env_scale("LOCO_TP_ITEMS", 60);
    let servers = [1u16, 2, 4, 8, 16];
    let phases = [
        PhaseKind::FileCreate,
        PhaseKind::DirCreate,
        PhaseKind::FileRemove,
        PhaseKind::DirRemove,
        PhaseKind::FileStat,
        PhaseKind::DirStat,
    ];

    let report_name = match transport {
        Transport::Sim => "fig08".to_string(),
        other => format!("fig08_{}", other.name()),
    };
    let mut report = BenchReport::new(&report_name);
    for phase in phases {
        let mut t = Table::new(
            std::iter::once("system".to_string())
                .chain(servers.iter().map(|s| format!("{s} MDS")))
                .collect::<Vec<_>>(),
        );
        for kind in FsKind::COMPARED {
            let mut cells = vec![kind.label().to_string()];
            for &n in &servers {
                let clients = clients_override.unwrap_or_else(|| paper_clients(n)) * pipeline;
                let iops = measure_throughput_on(kind, n, phase, clients, items, transport);
                cells.push(format!("{:.0}", iops));
                report.push(
                    "iops",
                    &[
                        ("system", kind.label()),
                        ("phase", phase.label()),
                        ("servers", &n.to_string()),
                    ],
                    iops,
                );
            }
            t.row(cells);
        }
        t.print(&format!(
            "Fig 8 ({}): aggregate IOPS  [items/client = {items}, clients = Table 3, transport = {transport}]",
            phase.label()
        ));
    }
    report.write();
}
