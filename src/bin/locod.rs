//! `locod` — the LocoFS metadata daemon.
//!
//! Hosts one server role (DMS, FMS or OST) behind a listening TCP
//! socket speaking the `loco-net` framed wire protocol. A localhost
//! cluster is normally booted by `scripts/cluster.sh`, but each daemon
//! can also be started by hand:
//!
//! ```text
//! locod serve --role dms --index 0 --listen 127.0.0.1:7100 --data-dir /tmp/loco
//! locod serve --role fms --index 0 --listen 127.0.0.1:7101 --data-dir /tmp/loco
//! locod serve --role ost --index 0 --listen 127.0.0.1:7103 --data-dir /tmp/loco
//! ```
//!
//! With `--data-dir ROOT` the role's key-value store is wrapped in a
//! `loco_kv::DurableStore` rooted at `ROOT/<role><index>/`: every
//! mutating RPC appends to a write-ahead log *before* the response
//! frame is written, so an acknowledged operation survives `kill -9`.
//! On boot the daemon replays snapshot + WAL and reports how much
//! state it recovered. Without `--data-dir` the daemon is volatile
//! (the pre-existing behaviour).
//!
//! Control-plane subcommands speak the `Control` frame to a running
//! daemon:
//!
//! ```text
//! locod ping     127.0.0.1:7100     # liveness probe
//! locod metrics  127.0.0.1:7100     # scrape Prometheus text
//! locod shutdown 127.0.0.1:7100     # graceful drain + exit
//! ```
//!
//! Offline subcommands operate on a data directory with no daemon
//! running:
//!
//! ```text
//! locod fsck --data-dir ROOT        # recover all roles, check invariants
//! locod chaos-apply  --data-dir D --ops N   # deterministic workload (crashable)
//! locod chaos-verify --data-dir D --ops N   # recovered state == some acked prefix
//! ```
//!
//! `chaos-apply` + `chaos-verify` are the crash-point harness: the
//! test runner arms `LOCO_CRASHPOINT` / `LOCO_IOFAULT`, lets the apply
//! phase die mid-flight, then verifies that the recovered store equals
//! the state after some prefix of the op stream at least as long as
//! the acknowledged prefix — i.e. no acked op was lost and no phantom
//! half-group was replayed.

use locofs::client::{fsck, DmsBackend, FmsMode, LocoCluster, LocoConfig};
use locofs::collect;
use locofs::dms::{DirServer, DmsRequest, DmsResponse};
use locofs::fms::FileServer;
use locofs::kv::{BTreeDb, DurableStore, HashDb, KvConfig, KvStore, PersistenceStats, SyncPolicy};
use locofs::net::tcp::{serve_tcp, serve_tcp_shared, RetryPolicy, ServeOptions, TcpEndpoint};
use locofs::net::{
    class, control, CallCtx, Control, ControlReply, Endpoint, EndpointMetrics, ServerId,
    Service as _, SimEndpoint,
};
use locofs::obs::{MetricsRegistry, TimeSeriesRing};
use locofs::ostore::ObjectStore;
use locofs::repl::{
    AckPolicy, ReplCtl, ReplHost, ReplInfo, ReplTransport, Replicator, ReplicatorConfig, Role,
};
use std::io::Write as _;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

const USAGE: &str = "\
locod — LocoFS metadata daemon

USAGE:
  locod serve --role {dms|fms|ost} --listen ADDR [--index N]
              [--dms-backend {btree|hash}] [--fms-mode {decoupled|coupled}]
              [--data-dir ROOT] [--sync-policy {os-managed|every-record}]
              [--checkpoint-every N] [--maintain-ms MS]
              [--workers N] [--max-conns N]
              [--max-inflight N] [--shed-watermark N]
              [--metrics-out FILE]
              [--standby-of ADDR] [--replicate-to A,B] [--repl-ack {none|one|all}]
              [--repl-lease-ms MS]
  locod ping ADDR
  locod metrics ADDR
  locod profile ADDR
  locod series ADDR
  locod shutdown ADDR
  locod promote ADDR
  locod repl-status ADDR
  locod logs ADDR [--follow] [--json]
  locod collect --state FILE --out DIR [--interval-ms MS] [--duration-ms MS]
  locod report --out DIR
  locod fsck --data-dir ROOT [--dms-backend B] [--fms-mode M] [--dms-index N]
  locod chaos-apply  --data-dir DIR --ops N [--sync-policy P]
              [--checkpoint-every N] [--ack-file FILE]
  locod chaos-verify --data-dir DIR --ops N [--ack-file FILE]
  locod chaos-proxy --listen ADDR --upstream ADDR --ctl ADDR
  locod chaos-ctl ADDR COMMAND [ARGS...]

The serve role maps to the LocoFS split: one dms (full-path d-inodes),
N fms (consistent-hash file metadata; --index is the ring slot), and
object stores. --data-dir ROOT makes the role durable under
ROOT/<role><index>/ (WAL-before-ack + periodic checkpoints). The
server runs an event-driven core: --workers sizes the readiness loops
(0 = auto) and --max-conns caps open connections (0 = unlimited);
durable roles batch WAL fsyncs across connections (disable with
LOCO_GROUP_COMMIT=off). A durable dms can run warm-standby WAL
replication: give every replica --replicate-to with its peers, start
standbys with --standby-of PRIMARY, and pick --repl-ack (none=async,
one=any standby, all=every standby) — promote flips a standby to
primary with a fresh fencing epoch (LOCO_REPL_AUTO_PROMOTE=1 enables
lease-based self-promotion). Overload guard: --max-inflight caps
parked commit waiters per worker and --shed-watermark caps committer
queue depth — past either, mutations are shed with a fast Overloaded
reject while reads drain (LOCO_GUARD=off disables). chaos-proxy runs
a misbehaving TCP relay (latency/bandwidth/partition/dribble/kill)
tuned at runtime via chaos-ctl. Env knobs: LOCO_RPC_RECONNECT_MS and
LOCO_OP_DEADLINE_MS (client side), LOCO_TRACE (span sampling),
LOCO_CRASHPOINT / LOCO_IOFAULT (fault injection, see loco-faults).";

fn fail(msg: &str) -> ExitCode {
    eprintln!("locod: {msg}");
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("fsck") => fsck_cmd(&args[1..]),
        Some("chaos-apply") => chaos_cmd(&args[1..], true),
        Some("chaos-verify") => chaos_cmd(&args[1..], false),
        Some("chaos-proxy") => chaos_proxy_cmd(&args[1..]),
        Some("chaos-ctl") => chaos_ctl_cmd(&args[1..]),
        Some("ping") | Some("metrics") | Some("profile") | Some("series") | Some("shutdown") => {
            let Some(addr) = args.get(1) else {
                return fail("missing daemon address");
            };
            let msg = match args[0].as_str() {
                "ping" => Control::Ping,
                "metrics" => Control::Metrics,
                "profile" => Control::Profile,
                "series" => Control::Series,
                _ => Control::Shutdown,
            };
            match control(addr, msg, Duration::from_secs(5)) {
                Ok(ControlReply::Pong) => {
                    println!("pong from {addr}");
                    ExitCode::SUCCESS
                }
                Ok(ControlReply::Metrics(text)) => {
                    print!("{text}");
                    ExitCode::SUCCESS
                }
                Ok(ControlReply::Profile(folded)) => {
                    print!("{folded}");
                    ExitCode::SUCCESS
                }
                Ok(ControlReply::Series(json)) => {
                    println!("{json}");
                    ExitCode::SUCCESS
                }
                Ok(ControlReply::ShuttingDown) => {
                    println!("{addr} draining");
                    ExitCode::SUCCESS
                }
                Ok(ControlReply::Logs(_)) => {
                    eprintln!("locod: {addr}: unexpected Logs reply");
                    ExitCode::FAILURE
                }
                Err(e) => {
                    eprintln!("locod: {addr}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("promote") => repl_cmd(&args[1..], true),
        Some("repl-status") => repl_cmd(&args[1..], false),
        Some("logs") => logs_cmd(&args[1..]),
        Some("collect") => collect_cmd(&args[1..]),
        Some("report") => report_cmd(&args[1..]),
        Some("--help") | Some("-h") | Some("help") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        _ => fail(
            "expected a subcommand (serve/ping/metrics/logs/collect/report/promote/repl-status/\
             shutdown/fsck/chaos-*)",
        ),
    }
}

// --- replication control plane ----------------------------------------

/// `locod promote ADDR` / `locod repl-status ADDR`: drive a replicated
/// DMS over its normal request port. Promote bumps the fencing epoch
/// (durably, via the WAL) and flips the daemon to primary; status just
/// reports `role/epoch/next_seq`.
fn repl_cmd(args: &[String], promote: bool) -> ExitCode {
    let Some(addr) = args.first() else {
        return fail("missing daemon address");
    };
    let ep = TcpEndpoint::<DirServer>::connect(ServerId::new(class::DMS, 0), addr);
    let req = if promote {
        DmsRequest::Promote {}
    } else {
        DmsRequest::ReplStatus {}
    };
    let mut ctx = CallCtx::new();
    match ep.try_call(&mut ctx, req) {
        Ok(DmsResponse::Repl(info)) => {
            let role = Role::from_u8(info.role).map_or("?", Role::as_str);
            // silence_ms is appended last so existing `grep -o` parsers
            // (cluster.sh, CI) keep matching role/epoch/next_seq.
            let silence = if info.silence_ms == u64::MAX {
                "-".to_string()
            } else {
                info.silence_ms.to_string()
            };
            println!(
                "locod: {addr}: role={role} epoch={} next_seq={} silence_ms={silence}{}",
                info.epoch,
                info.next_seq,
                if promote { " (promoted)" } else { "" },
            );
            if info.ok {
                ExitCode::SUCCESS
            } else {
                eprintln!("locod: {addr}: daemon refused the request");
                ExitCode::FAILURE
            }
        }
        Ok(other) => {
            eprintln!("locod: {addr}: unexpected reply {other:?} (not a replicated dms?)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("locod: {addr}: {e}");
            ExitCode::FAILURE
        }
    }
}

// --- log tailing + the collector --------------------------------------

/// Tail a daemon's in-memory log ring over the `Logs` control frame.
/// `--follow` keeps polling; a daemon restart (new boot id) resets the
/// cursor so tailing survives crashes.
fn logs_cmd(args: &[String]) -> ExitCode {
    let Some(addr) = args.first().filter(|a| !a.starts_with("--")) else {
        return fail("logs needs a daemon address");
    };
    let follow = args.iter().any(|a| a == "--follow");
    let raw = args.iter().any(|a| a == "--json");
    let mut cursor = 0u64;
    let mut boot: Option<String> = None;
    loop {
        let reply = match control(
            addr,
            Control::Logs { cursor, max: 4096 },
            Duration::from_secs(5),
        ) {
            Ok(ControlReply::Logs(s)) => s,
            Ok(other) => {
                eprintln!("locod: {addr}: unexpected reply {other:?}");
                return ExitCode::FAILURE;
            }
            Err(e) if follow => {
                // Keep trying: the daemon may be restarting.
                eprintln!("locod: {addr}: {e} (retrying)");
                std::thread::sleep(Duration::from_millis(500));
                continue;
            }
            Err(e) => {
                eprintln!("locod: {addr}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let Ok(parsed) = locofs::obs::json::parse(&reply) else {
            eprintln!("locod: {addr}: malformed logs reply");
            return ExitCode::FAILURE;
        };
        let new_boot = parsed
            .get("boot_id")
            .and_then(locofs::obs::json::Json::as_str)
            .unwrap_or("")
            .to_string();
        if boot.as_deref().is_some_and(|b| b != new_boot) {
            eprintln!("locod: {addr}: daemon restarted, rewinding");
            cursor = 0;
            boot = Some(new_boot);
            continue;
        }
        boot = Some(new_boot);
        if let Some(events) = parsed
            .get("events")
            .and_then(locofs::obs::json::Json::as_arr)
        {
            for ev in events {
                let line = ev.to_string();
                if raw {
                    println!("{line}");
                } else {
                    println!("{}", collect::format_line(&line, addr));
                }
            }
        }
        if let Some(next) = parsed.get("next").and_then(locofs::obs::json::Json::as_f64) {
            cursor = next as u64;
        }
        if !follow {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(Duration::from_millis(500));
    }
}

fn collect_cmd(args: &[String]) -> ExitCode {
    let mut state: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    let mut cfg = collect::CollectConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let r = match flag.as_str() {
            "--state" => val().map(|v| state = Some(PathBuf::from(v))),
            "--out" => val().map(|v| out = Some(PathBuf::from(v))),
            "--interval-ms" => val().and_then(|v| {
                v.parse::<u64>()
                    .map(|ms| cfg.interval = Duration::from_millis(ms.max(1)))
                    .map_err(|_| "--interval-ms must be an integer".into())
            }),
            "--duration-ms" => val().and_then(|v| {
                v.parse::<u64>()
                    .map(|ms| cfg.duration = Some(Duration::from_millis(ms)))
                    .map_err(|_| "--duration-ms must be an integer".into())
            }),
            other => Err(format!("unknown flag {other:?}")),
        };
        if let Err(e) = r {
            return fail(&e);
        }
    }
    let (Some(state), Some(out)) = (state, out) else {
        return fail("collect needs --state and --out");
    };
    let daemons = match collect::daemons_from_state(&state) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("locod: collect: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "locod: collect: scraping {} daemons every {}ms into {}",
        daemons.len(),
        cfg.interval.as_millis(),
        out.display()
    );
    match collect::collect(&daemons, &out, &cfg) {
        Ok(stats) => {
            println!(
                "locod: collect: {} ticks, {} events, {} restarts, {} unreachable",
                stats.ticks, stats.events, stats.restarts, stats.unreachable
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("locod: collect: {e}");
            ExitCode::FAILURE
        }
    }
}

fn report_cmd(args: &[String]) -> ExitCode {
    let mut out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => match it.next() {
                Some(v) => out = Some(PathBuf::from(v)),
                None => return fail("--out needs a value"),
            },
            other => return fail(&format!("unknown flag {other:?}")),
        }
    }
    let Some(out) = out else {
        return fail("report needs --out");
    };
    match collect::report(&out) {
        Ok(sum) => {
            println!(
                "locod: report: {} events from {} sources, {} incident markers → {}",
                sum.events,
                sum.sources,
                sum.incidents,
                sum.report_md.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("locod: report: {e}");
            ExitCode::FAILURE
        }
    }
}

struct ServeArgs {
    role: String,
    listen: String,
    index: u16,
    dms_backend: DmsBackend,
    fms_mode: FmsMode,
    metrics_out: Option<String>,
    data_dir: Option<PathBuf>,
    sync_policy: SyncPolicy,
    checkpoint_every: Option<usize>,
    maintain_ms: u64,
    workers: usize,
    max_conns: usize,
    /// Per-worker parked commit-waiter ceiling; past it, mutations are
    /// shed with `Overloaded` (0 = unlimited).
    max_inflight: usize,
    /// Committer queue-depth watermark with the same shedding effect.
    shed_watermark: usize,
    /// Boot as a warm standby of this primary (dms only).
    standby_of: Option<String>,
    /// Peer replicas this node ships WAL groups to when primary.
    replicate_to: Vec<String>,
    /// Standby acks required before client acks release.
    repl_ack: AckPolicy,
    /// Primary lease duration (standbys self-arm promotion eligibility
    /// after 2× this of primary silence).
    repl_lease_ms: u64,
}

fn parse_serve(args: &[String]) -> Result<ServeArgs, String> {
    let mut out = ServeArgs {
        role: String::new(),
        listen: String::new(),
        index: 0,
        dms_backend: DmsBackend::BTree,
        fms_mode: FmsMode::Decoupled,
        metrics_out: None,
        data_dir: None,
        sync_policy: SyncPolicy::OsManaged,
        checkpoint_every: None,
        maintain_ms: 1000,
        workers: 0,
        max_conns: 0,
        max_inflight: 0,
        shed_watermark: 0,
        standby_of: None,
        replicate_to: Vec::new(),
        repl_ack: AckPolicy::One,
        repl_lease_ms: 500,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--role" => out.role = val()?,
            "--listen" => out.listen = val()?,
            "--index" => {
                out.index = val()?
                    .parse()
                    .map_err(|_| "--index must be an integer".to_string())?
            }
            "--dms-backend" => out.dms_backend = parse_backend(&val()?)?,
            "--fms-mode" => out.fms_mode = parse_mode(&val()?)?,
            "--metrics-out" => out.metrics_out = Some(val()?),
            "--data-dir" => out.data_dir = Some(PathBuf::from(val()?)),
            "--sync-policy" => out.sync_policy = parse_policy(&val()?)?,
            "--checkpoint-every" => {
                out.checkpoint_every = Some(
                    val()?
                        .parse()
                        .map_err(|_| "--checkpoint-every must be an integer".to_string())?,
                )
            }
            "--maintain-ms" => {
                out.maintain_ms = val()?
                    .parse()
                    .map_err(|_| "--maintain-ms must be an integer".to_string())?
            }
            "--workers" => {
                out.workers = val()?
                    .parse()
                    .map_err(|_| "--workers must be an integer".to_string())?
            }
            "--max-conns" => {
                out.max_conns = val()?
                    .parse()
                    .map_err(|_| "--max-conns must be an integer".to_string())?
            }
            "--max-inflight" => {
                out.max_inflight = val()?
                    .parse()
                    .map_err(|_| "--max-inflight must be an integer".to_string())?
            }
            "--shed-watermark" => {
                out.shed_watermark = val()?
                    .parse()
                    .map_err(|_| "--shed-watermark must be an integer".to_string())?
            }
            "--standby-of" => out.standby_of = Some(val()?),
            "--replicate-to" => {
                out.replicate_to = val()?
                    .split(',')
                    .map(|a| a.trim().to_string())
                    .filter(|a| !a.is_empty())
                    .collect()
            }
            "--repl-ack" => {
                let v = val()?;
                out.repl_ack = AckPolicy::parse(&v)
                    .ok_or_else(|| format!("unknown repl ack policy {v:?} (none/one/all)"))?
            }
            "--repl-lease-ms" => {
                out.repl_lease_ms = val()?
                    .parse()
                    .map_err(|_| "--repl-lease-ms must be an integer".to_string())?
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if out.role.is_empty() {
        return Err("--role is required".into());
    }
    if out.listen.is_empty() {
        return Err("--listen is required".into());
    }
    Ok(out)
}

fn parse_backend(s: &str) -> Result<DmsBackend, String> {
    match s {
        "btree" => Ok(DmsBackend::BTree),
        "hash" => Ok(DmsBackend::Hash),
        other => Err(format!("unknown dms backend {other:?}")),
    }
}

fn parse_mode(s: &str) -> Result<FmsMode, String> {
    match s {
        "decoupled" => Ok(FmsMode::Decoupled),
        "coupled" => Ok(FmsMode::Coupled),
        other => Err(format!("unknown fms mode {other:?}")),
    }
}

fn parse_policy(s: &str) -> Result<SyncPolicy, String> {
    SyncPolicy::parse(s).ok_or_else(|| format!("unknown sync policy {s:?}"))
}

/// [`ReplTransport`] over the standby's normal DMS request port. The
/// shipper threads own retry/backoff, so every call is a single
/// attempt; the generous deadline covers snapshot installs.
struct TcpReplTransport {
    ep: TcpEndpoint<DirServer>,
}

impl TcpReplTransport {
    fn new(addr: &str, peer_index: usize) -> Self {
        let policy = RetryPolicy {
            attempts: 1,
            backoff: Duration::from_millis(10),
            deadline: Duration::from_secs(10),
            connect_timeout: Duration::from_millis(500),
            reconnect_window: Duration::ZERO,
            // Replication shipping has its own retry loop; a breaker here
            // would only delay the standby's catch-up after a blip.
            breaker_threshold: 0,
            ..RetryPolicy::default()
        };
        let id = ServerId::new(class::DMS, peer_index as u16);
        Self {
            ep: TcpEndpoint::<DirServer>::with_policy(id, addr, policy),
        }
    }

    fn roundtrip(&self, req: DmsRequest) -> Result<ReplInfo, String> {
        let mut ctx = CallCtx::new();
        match self.ep.try_call(&mut ctx, req) {
            Ok(DmsResponse::Repl(info)) => Ok(info),
            Ok(other) => Err(format!("unexpected replication reply {other:?}")),
            Err(e) => Err(e.to_string()),
        }
    }
}

impl ReplTransport for TcpReplTransport {
    fn append(&self, epoch: u64, first_seq: u64, group: &[u8]) -> Result<ReplInfo, String> {
        self.roundtrip(DmsRequest::ReplAppend {
            epoch,
            first_seq,
            group: group.to_vec(),
        })
    }

    fn snapshot(&self, epoch: u64, last_seq: u64, image: &[u8]) -> Result<ReplInfo, String> {
        self.roundtrip(DmsRequest::ReplSnapshot {
            epoch,
            last_seq,
            image: image.to_vec(),
        })
    }

    fn status(&self) -> Result<ReplInfo, String> {
        self.roundtrip(DmsRequest::ReplStatus {})
    }
}

/// Wrap `inner` in a [`DurableStore`] rooted at `dir`, applying the
/// CLI durability knobs, and return it with its recovery counters.
fn open_durable<S: KvStore + 'static>(
    dir: PathBuf,
    inner: S,
    policy: SyncPolicy,
    checkpoint_every: Option<usize>,
) -> std::io::Result<(Box<dyn KvStore>, PersistenceStats)> {
    let mut store = DurableStore::open(dir, inner)?.with_sync_policy(policy);
    if let Some(n) = checkpoint_every {
        store.checkpoint_every = n;
    }
    let stats = store.stats().clone();
    Ok((Box::new(store), stats))
}

/// Build the role's store: durable under `ROOT/<role><index>/` when a
/// data dir was given, volatile otherwise. Reports recovery counters.
fn role_store(
    a: &ServeArgs,
    inner_of: impl FnOnce() -> Box<dyn KvStore>,
) -> std::io::Result<Box<dyn KvStore>> {
    let Some(root) = &a.data_dir else {
        return Ok(inner_of());
    };
    let dir = root.join(format!("{}{}", a.role, a.index));
    std::fs::create_dir_all(&dir)?;
    // `Box<dyn KvStore>` is itself a KvStore, so the durable layer can
    // wrap whichever inner backend the role picked.
    let (store, stats) = open_durable(dir, inner_of(), a.sync_policy, a.checkpoint_every)?;
    println!(
        "locod: {} #{} recovered {} records from snapshot + {} replayed from wal \
         (sync-policy {})",
        a.role,
        a.index,
        stats.snapshot_records,
        stats.replayed_records,
        a.sync_policy.as_str(),
    );
    Ok(store)
}

fn serve(args: &[String]) -> ExitCode {
    let a = match parse_serve(args) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    let listener = match TcpListener::bind(&a.listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("locod: cannot bind {}: {e}", a.listen);
            return ExitCode::FAILURE;
        }
    };
    locofs::log::info!("locod", "daemon booting";
        role = format_args!("{}", a.role),
        index = a.index as u64,
        listen = format_args!("{}", a.listen),
        durable = a.data_dir.is_some(),
        pid = std::process::id() as u64);
    let registry = Arc::new(MetricsRegistry::new());
    let kv = KvConfig::default();
    // One time-series ring per daemon, ticked by the maintain timer —
    // which therefore always runs, even for volatile roles (their
    // maintain pass itself is a no-op).
    let series = Arc::new(TimeSeriesRing::default());
    let opts = |m: Arc<EndpointMetrics>, registry: &Arc<MetricsRegistry>| ServeOptions {
        metrics: Some(m),
        registry: Some(registry.clone()),
        series: Some(series.clone()),
        maintain_every: Some(Duration::from_millis(a.maintain_ms.max(1))),
        workers: a.workers,
        max_conns: a.max_conns,
        max_inflight: a.max_inflight,
        shed_watermark: a.shed_watermark,
        ..Default::default()
    };
    let repl_on = a.standby_of.is_some() || !a.replicate_to.is_empty();
    if repl_on && (a.role != "dms" || a.data_dir.is_none()) {
        return fail("--standby-of/--replicate-to need --role dms with --data-dir");
    }
    let mut replicator: Option<Replicator> = None;
    let result = match a.role.as_str() {
        "dms" => {
            let id = ServerId::new(class::DMS, a.index);
            let m = EndpointMetrics::register(&registry, id);
            let backend = a.dms_backend;
            let store = role_store(&a, || match backend {
                DmsBackend::BTree => Box::new(BTreeDb::new(kv.clone())),
                DmsBackend::Hash => Box::new(HashDb::new(kv.clone())),
            });
            match store {
                Ok(db) => {
                    let mut server = DirServer::with_store(db, a.index);
                    if repl_on {
                        // Warm-standby replication: seed the fencing
                        // epoch from the store (it rides the WAL, so a
                        // restarted replica remembers how far the
                        // cluster's election history got), hook the
                        // WAL commit tap, and run shipper + lease
                        // threads against the shared service.
                        let stored = server.stored_epoch();
                        let role = if a.standby_of.is_some() {
                            Role::Standby
                        } else {
                            Role::Primary
                        };
                        let epoch = if role == Role::Primary {
                            stored.max(1)
                        } else {
                            stored
                        };
                        let lease = Duration::from_millis(a.repl_lease_ms.max(1));
                        let ctl = Arc::new(ReplCtl::new(
                            epoch,
                            role,
                            a.repl_ack,
                            lease,
                            a.replicate_to.clone(),
                        ));
                        if !server.enable_repl(ctl.clone()) {
                            eprintln!(
                                "locod: dms #{}: store rejected the replication tap",
                                a.index
                            );
                            return ExitCode::FAILURE;
                        }
                        locofs::log::info!("repl", "replication enabled";
                            role = format_args!("{}", ctl.role().as_str()),
                            epoch = ctl.epoch(),
                            ack = format_args!("{}", a.repl_ack.as_str()),
                            lease_ms = a.repl_lease_ms,
                            peers = a.replicate_to.len() as u64);
                        let svc = Arc::new(Mutex::new(server));
                        let transports: Vec<Box<dyn ReplTransport>> = a
                            .replicate_to
                            .iter()
                            .enumerate()
                            .map(|(i, addr)| {
                                Box::new(TcpReplTransport::new(addr, i)) as Box<dyn ReplTransport>
                            })
                            .collect();
                        let host = ReplHost {
                            last_seq: {
                                let s = svc.clone();
                                Arc::new(move || lock(&s).wal_next_seq().saturating_sub(1))
                            },
                            snapshot: {
                                let s = svc.clone();
                                Arc::new(move || lock(&s).repl_snapshot())
                            },
                            promote: {
                                let s = svc.clone();
                                Arc::new(move || {
                                    // Same path as an external Promote
                                    // request, driven locally: handle,
                                    // then flush the epoch record and
                                    // clear the per-request state the
                                    // serve loop would normally drain.
                                    let mut g = lock(&s);
                                    let _ = g.handle(DmsRequest::Promote {});
                                    let _ = g.take_commit_ticket();
                                    let _ = g.take_repl_stamp();
                                    g.commit_flush();
                                    let _ = g.commit_abort();
                                })
                            },
                        };
                        let rcfg = ReplicatorConfig {
                            heartbeat: (lease / 3).max(Duration::from_millis(1)),
                            rank: u64::from(a.index.saturating_sub(1)),
                            auto_promote: std::env::var("LOCO_REPL_AUTO_PROMOTE")
                                .is_ok_and(|v| v == "1"),
                        };
                        replicator = Some(Replicator::spawn(
                            ctl,
                            transports,
                            host,
                            Some(registry.clone()),
                            rcfg,
                        ));
                        serve_tcp_shared(id, svc, listener, opts(m, &registry))
                    } else {
                        serve_tcp(id, server, listener, opts(m, &registry))
                    }
                }
                Err(e) => {
                    eprintln!("locod: dms #{}: cannot open data dir: {e}", a.index);
                    return ExitCode::FAILURE;
                }
            }
        }
        "fms" => {
            // Ring slot `index` corresponds to server id `index + 1`,
            // matching LocoCluster::new so uuid placement agrees with
            // in-process clusters.
            let id = ServerId::new(class::FMS, a.index);
            let m = EndpointMetrics::register(&registry, id);
            let cfg = FileServer::tune_cfg(a.fms_mode, kv.clone());
            let store = role_store(&a, || Box::new(HashDb::new(cfg.clone())));
            match store {
                Ok(db) => serve_tcp(
                    id,
                    FileServer::with_store(db, a.index + 1, a.fms_mode),
                    listener,
                    opts(m, &registry),
                ),
                Err(e) => {
                    eprintln!("locod: fms #{}: cannot open data dir: {e}", a.index);
                    return ExitCode::FAILURE;
                }
            }
        }
        "ost" => {
            let id = ServerId::new(class::OST, a.index);
            let m = EndpointMetrics::register(&registry, id);
            let store = role_store(&a, || Box::new(HashDb::new(kv.clone())));
            match store {
                Ok(db) => serve_tcp(
                    id,
                    ObjectStore::with_store(db),
                    listener,
                    opts(m, &registry),
                ),
                Err(e) => {
                    eprintln!("locod: ost #{}: cannot open data dir: {e}", a.index);
                    return ExitCode::FAILURE;
                }
            }
        }
        other => return fail(&format!("unknown role {other:?} (dms/fms/ost)")),
    };
    let mut guard = match result {
        Ok(g) => g,
        Err(e) => {
            eprintln!("locod: serve failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "locod: {} #{} listening on {}",
        a.role,
        a.index,
        guard.addr()
    );
    // Block until a Control::Shutdown frame flips the flag; the guard
    // then joins every connection thread (draining in-flight requests)
    // and runs the drain-time maintain pass (final checkpoint).
    guard.wait();
    if let Some(r) = replicator.take() {
        r.stop();
    }
    let dump = registry.render_prometheus();
    match &a.metrics_out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &dump) {
                eprintln!("locod: cannot write {path}: {e}");
            } else {
                println!("locod: {} #{} metrics written to {path}", a.role, a.index);
            }
        }
        None => print!("{dump}"),
    }
    println!("locod: {} #{} drained, exiting", a.role, a.index);
    ExitCode::SUCCESS
}

// --- offline fsck over a data-dir tree --------------------------------

/// Count `ROOT/<role>0 ..` subdirectories for one role.
fn role_count(root: &Path, role: &str) -> usize {
    let mut n = 0;
    while root.join(format!("{role}{n}")).is_dir() {
        n += 1;
    }
    n
}

fn fsck_cmd(args: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut backend = DmsBackend::BTree;
    let mut mode = FmsMode::Decoupled;
    let mut dms_index = 0usize;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let r = match flag.as_str() {
            "--data-dir" => val().map(|v| root = Some(PathBuf::from(v))),
            "--dms-backend" => val().and_then(|v| parse_backend(&v).map(|b| backend = b)),
            "--fms-mode" => val().and_then(|v| parse_mode(&v).map(|m| mode = m)),
            // Which dms replica's store to check the namespace against
            // (a replicated cluster has dms0..dmsN under one root;
            // after a failover the promoted standby is authoritative).
            "--dms-index" => val().and_then(|v| {
                v.parse()
                    .map(|n| dms_index = n)
                    .map_err(|_| "--dms-index must be an integer".into())
            }),
            other => Err(format!("unknown flag {other:?}")),
        };
        if let Err(e) = r {
            return fail(&e);
        }
    }
    let Some(root) = root else {
        return fail("fsck needs --data-dir");
    };
    let num_fms = role_count(&root, "fms").max(1);
    let num_ost = role_count(&root, "ost").max(1);
    let dms_dir = format!("dms{dms_index}");
    if !root.join(&dms_dir).is_dir() {
        eprintln!("locod: fsck: no {dms_dir}/ under {}", root.display());
        return ExitCode::FAILURE;
    }
    let kv = KvConfig::default();
    let recover = |dir: PathBuf, cfg: KvConfig, hash: bool| -> std::io::Result<Box<dyn KvStore>> {
        let inner: Box<dyn KvStore> = if hash {
            Box::new(HashDb::new(cfg))
        } else {
            Box::new(BTreeDb::new(cfg))
        };
        Ok(Box::new(DurableStore::open(dir, inner)?))
    };
    // Rebuild each role's in-memory server from its recovered store,
    // then graft them into a standard cluster shell so the shared
    // `fsck` pass (used by the in-process tests) can run unchanged.
    let config = LocoConfig {
        num_fms: num_fms as u16,
        num_ost: num_ost as u16,
        dms_backend: backend,
        fms_mode: mode,
        ..Default::default()
    };
    let mut cluster = LocoCluster::new(config);
    let dms_db = match recover(
        root.join(&dms_dir),
        kv.clone(),
        matches!(backend, DmsBackend::Hash),
    ) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("locod: fsck: {dms_dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    cluster.dms = vec![SimEndpoint::new(
        ServerId::new(class::DMS, 0),
        DirServer::with_store(dms_db, 0),
    )];
    let mut fms = Vec::new();
    for i in 0..num_fms {
        let cfg = FileServer::tune_cfg(mode, kv.clone());
        match recover(root.join(format!("fms{i}")), cfg, true) {
            Ok(db) => fms.push(SimEndpoint::new(
                ServerId::new(class::FMS, i as u16),
                FileServer::with_store(db, i as u16 + 1, mode),
            )),
            Err(e) => {
                eprintln!("locod: fsck: fms{i}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    cluster.fms = fms;
    let mut ost = Vec::new();
    for i in 0..num_ost {
        let dir = root.join(format!("ost{i}"));
        if !dir.is_dir() {
            continue;
        }
        match recover(dir, kv.clone(), true) {
            Ok(db) => ost.push(SimEndpoint::new(
                ServerId::new(class::OST, i as u16),
                ObjectStore::with_store(db),
            )),
            Err(e) => {
                eprintln!("locod: fsck: ost{i}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if !ost.is_empty() {
        cluster.ost = ost;
    }
    let report = fsck(&cluster);
    println!(
        "locod: fsck: {} directories, {} files, {} findings",
        report.directories,
        report.files,
        report.findings()
    );
    if report.is_clean() {
        println!("locod: fsck: clean");
        ExitCode::SUCCESS
    } else {
        println!("locod: fsck: INCONSISTENT: {report:?}");
        ExitCode::FAILURE
    }
}

// --- deterministic crash-point workload -------------------------------

/// Apply op `i` of the deterministic chaos stream. Every op kind the
/// WAL can log appears in the rotation, so crash points exercise each
/// record shape.
fn chaos_op(db: &mut dyn KvStore, i: u64) {
    let key = format!("k{:03}", i % 41).into_bytes();
    match i % 7 {
        0..=2 => db.put(&key, format!("v{i}").as_bytes()),
        3 => db.append(&key, format!("+{i}").as_bytes()),
        4 => {
            db.write_at(&key, (i % 8) as usize, b"WX");
        }
        5 => {
            db.delete(&key);
        }
        _ => db.put(&key, &[(i % 251) as u8; 64]),
    }
}

/// Sorted full dump of a store (order-independent comparison).
fn dump(db: &mut dyn KvStore) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut d = db.scan_prefix(b"");
    d.sort();
    d
}

struct ChaosArgs {
    dir: PathBuf,
    ops: u64,
    policy: SyncPolicy,
    checkpoint_every: Option<usize>,
    ack_file: Option<PathBuf>,
}

fn parse_chaos(args: &[String]) -> Result<ChaosArgs, String> {
    let mut out = ChaosArgs {
        dir: PathBuf::new(),
        ops: 0,
        policy: SyncPolicy::OsManaged,
        checkpoint_every: None,
        ack_file: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--data-dir" => out.dir = PathBuf::from(val()?),
            "--ops" => {
                out.ops = val()?
                    .parse()
                    .map_err(|_| "--ops must be an integer".to_string())?
            }
            "--sync-policy" => out.policy = parse_policy(&val()?)?,
            "--checkpoint-every" => {
                out.checkpoint_every = Some(
                    val()?
                        .parse()
                        .map_err(|_| "--checkpoint-every must be an integer".to_string())?,
                )
            }
            "--ack-file" => out.ack_file = Some(PathBuf::from(val()?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if out.dir.as_os_str().is_empty() {
        return Err("--data-dir is required".into());
    }
    if out.ops == 0 {
        return Err("--ops is required".into());
    }
    Ok(out)
}

fn chaos_cmd(args: &[String], apply: bool) -> ExitCode {
    let a = match parse_chaos(args) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    if apply {
        chaos_apply(&a)
    } else {
        chaos_verify(&a)
    }
}

/// `locod chaos-proxy --listen A --upstream B --ctl C` — run a
/// misbehaving TCP relay in the foreground until killed. Faults start
/// clear; arm them at runtime with `locod chaos-ctl C <command>`.
fn chaos_proxy_cmd(args: &[String]) -> ExitCode {
    let (mut listen, mut upstream, mut ctl) = (String::new(), String::new(), String::new());
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(v) = it.next() else {
            return fail(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--listen" => listen = v.clone(),
            "--upstream" => upstream = v.clone(),
            "--ctl" => ctl = v.clone(),
            other => return fail(&format!("unknown flag {other:?}")),
        }
    }
    if listen.is_empty() || upstream.is_empty() || ctl.is_empty() {
        return fail("chaos-proxy needs --listen, --upstream and --ctl");
    }
    let proxy = match locofs::faults::ChaosProxy::start(&listen, &upstream, Some(&ctl)) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("locod: chaos-proxy: {e}");
            return ExitCode::FAILURE;
        }
    };
    locofs::log::info!("locod.chaos", "chaos proxy up";
        listen = format_args!("{}", proxy.addr()),
        upstream = format_args!("{upstream}"),
        ctl = format_args!("{}", proxy.ctl_addr().unwrap_or("-")));
    // Foreground daemon: the accept threads do all the work.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// `locod chaos-ctl ADDR COMMAND [ARGS...]` — send one control command
/// to a running chaos proxy and print its reply.
fn chaos_ctl_cmd(args: &[String]) -> ExitCode {
    let Some((addr, cmd)) = args.split_first() else {
        return fail("chaos-ctl needs an address and a command");
    };
    if cmd.is_empty() {
        return fail(
            "chaos-ctl needs a command (latency/bandwidth/partition/dribble/kill/reset/stat)",
        );
    }
    match locofs::faults::ctl_send(addr, &cmd.join(" ")) {
        Ok(reply) => {
            println!("{reply}");
            if reply.starts_with("ok") {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("locod: chaos-ctl {addr}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn chaos_apply(a: &ChaosArgs) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(&a.dir) {
        eprintln!("locod: chaos-apply: {e}");
        return ExitCode::FAILURE;
    }
    let mut store = match DurableStore::open(&a.dir, BTreeDb::new(KvConfig::default())) {
        Ok(s) => s.with_sync_policy(a.policy),
        Err(e) => {
            eprintln!("locod: chaos-apply: open: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(n) = a.checkpoint_every {
        store.checkpoint_every = n;
    }
    let mut ack = a.ack_file.as_ref().map(|p| {
        std::fs::File::create(p).unwrap_or_else(|e| {
            eprintln!("locod: chaos-apply: ack file: {e}");
            std::process::exit(1);
        })
    });
    for i in 0..a.ops {
        // The commit group (WAL append + flush) completes inside the
        // mutation; only then is the op acknowledged below.
        chaos_op(&mut store, i);
        if let Some(f) = ack.as_mut() {
            // Record "ops 0..=i are acked". Rewritten in place so a
            // crash leaves at worst the previous (smaller) count —
            // never an over-claim.
            if writeln!(f, "{}", i + 1).and_then(|_| f.flush()).is_err() {
                eprintln!("locod: chaos-apply: ack write failed");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "locod: chaos-apply: {} ops acked, wal_records={} checkpoints={}",
        a.ops,
        store.stats().wal_records,
        store.stats().checkpoints,
    );
    ExitCode::SUCCESS
}

fn chaos_verify(a: &ChaosArgs) -> ExitCode {
    // Lowest acked-op floor: the last line the apply phase flushed.
    let acked: u64 = match &a.ack_file {
        Some(p) => std::fs::read_to_string(p)
            .ok()
            .and_then(|s| {
                s.lines()
                    .rev()
                    .find(|l| !l.trim().is_empty())
                    .map(String::from)
            })
            .and_then(|l| l.trim().parse().ok())
            .unwrap_or(0),
        None => 0,
    };
    let mut store = match DurableStore::open(&a.dir, BTreeDb::new(KvConfig::default())) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("locod: chaos-verify: recovery failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let recovered = dump(&mut store);
    // The recovered image must equal the model state after applying
    // some prefix of the op stream no shorter than the acked prefix
    // (commit groups are whole ops here, so any group boundary is a
    // prefix boundary). Anything else means a lost acked op or a
    // phantom replay.
    let mut model = BTreeDb::new(KvConfig::default());
    for i in 0..acked {
        chaos_op(&mut model, i);
    }
    for k in acked..=a.ops {
        if dump(&mut model) == recovered {
            println!(
                "locod: chaos-verify: recovered state matches prefix {k} (acked {acked}, \
                 replayed {} wal records)",
                store.stats().replayed_records
            );
            return ExitCode::SUCCESS;
        }
        if k < a.ops {
            chaos_op(&mut model, k);
        }
    }
    eprintln!(
        "locod: chaos-verify: recovered state matches NO prefix in {acked}..={} — \
         lost acked op or phantom record",
        a.ops
    );
    ExitCode::FAILURE
}
