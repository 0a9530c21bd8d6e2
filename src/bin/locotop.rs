//! `locotop` — live dashboard over a running LocoFS cluster.
//!
//! Scrapes every daemon's `Metrics` and `Series` control frames and
//! renders one row per daemon: throughput (from the daemon's own
//! time-series ring, so no scraper-side state), service-time
//! quantiles, connection and pipeline depth, WAL batching, fsyncs per
//! op, the wall-clock means of a group-commit fsync and of a durable
//! reply's wait for it, and heap allocations per op. The same numbers
//! back three consumers:
//!
//! * interactive: `locotop` repaints a terminal table every
//!   `--interval-ms` until interrupted;
//! * scripting: `locotop --once --json` emits a single machine-readable
//!   snapshot (this is what `scripts/cluster.sh status` and the CI
//!   profile-smoke job call);
//! * tests: the JSON shape is asserted by `tests/observability.rs`.
//!
//! Cluster discovery, in order: `--cluster SPEC`, `--state FILE`, the
//! `LOCO_CLUSTER` environment variable, then the default state file
//! `results/cluster/cluster.state` written by `cluster.sh --keep`.

use locofs::client::ClusterAddrs;
use locofs::net::{control, Control, ControlReply};
use locofs::obs::json::{self, Json};
use locofs::obs::promtext;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
locotop — live LocoFS cluster dashboard

USAGE:
  locotop [--cluster SPEC] [--state FILE] [--once] [--json]
          [--interval-ms MS] [--timeout-ms MS]

  --cluster SPEC   cluster addresses (dms=a;fms=a,b;ost=a,b)
  --state FILE     cluster.state file written by cluster.sh --keep
  --once           scrape once and exit (non-zero if any daemon down)
  --json           emit the snapshot as JSON instead of a table
  --interval-ms MS repaint period in live mode (default 1000)
  --timeout-ms MS  per-daemon control timeout (default 2000)
  --max-allocs-per-op N
                   with --once: exit non-zero if any daemon's mean
                   allocs/op exceeds N (the CI heap-budget gate)

Without --cluster/--state the cluster is discovered from LOCO_CLUSTER,
falling back to results/cluster/cluster.state.";

struct Args {
    cluster: Option<String>,
    state: Option<PathBuf>,
    once: bool,
    json: bool,
    interval_ms: u64,
    timeout_ms: u64,
    max_allocs_per_op: Option<f64>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        cluster: None,
        state: None,
        once: false,
        json: false,
        interval_ms: 1000,
        timeout_ms: 2000,
        max_allocs_per_op: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--cluster" => out.cluster = Some(val()?),
            "--state" => out.state = Some(PathBuf::from(val()?)),
            "--once" => out.once = true,
            "--json" => out.json = true,
            "--interval-ms" => {
                out.interval_ms = val()?
                    .parse()
                    .map_err(|_| "--interval-ms must be an integer".to_string())?
            }
            "--timeout-ms" => {
                out.timeout_ms = val()?
                    .parse()
                    .map_err(|_| "--timeout-ms must be an integer".to_string())?
            }
            "--max-allocs-per-op" => {
                out.max_allocs_per_op = Some(
                    val()?
                        .parse()
                        .map_err(|_| "--max-allocs-per-op must be a number".to_string())?,
                )
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(out)
}

/// One scrape target: the daemon's conventional name (`fms1`) plus its
/// control address.
struct Daemon {
    name: String,
    addr: String,
}

fn daemons_of(addrs: &ClusterAddrs) -> Vec<Daemon> {
    let mut out = Vec::new();
    for (role, list) in [
        ("dms", &addrs.dms),
        ("fms", &addrs.fms),
        ("ost", &addrs.ost),
    ] {
        for (i, addr) in list.iter().enumerate() {
            out.push(Daemon {
                name: format!("{role}{i}"),
                addr: addr.clone(),
            });
        }
    }
    out
}

/// Parse a `cluster.state` file (`role index port pid data_dir
/// sync_policy` per line, `#` comments).
fn daemons_from_state(path: &Path) -> Result<Vec<Daemon>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() < 3 {
            return Err(format!("{}: malformed line {line:?}", path.display()));
        }
        out.push(Daemon {
            name: format!("{}{}", fields[0], fields[1]),
            addr: format!("127.0.0.1:{}", fields[2]),
        });
    }
    if out.is_empty() {
        return Err(format!("{}: no daemons listed", path.display()));
    }
    Ok(out)
}

fn discover(args: &Args) -> Result<Vec<Daemon>, String> {
    if let Some(spec) = &args.cluster {
        return ClusterAddrs::parse(spec)
            .map(|a| daemons_of(&a))
            .ok_or_else(|| format!("malformed --cluster spec {spec:?}"));
    }
    if let Some(path) = &args.state {
        return daemons_from_state(path);
    }
    if let Some(a) = ClusterAddrs::from_env() {
        return Ok(daemons_of(&a));
    }
    let default_state = Path::new("results/cluster/cluster.state");
    if default_state.is_file() {
        return daemons_from_state(default_state);
    }
    Err("no cluster: pass --cluster/--state or set LOCO_CLUSTER".into())
}

/// Everything one dashboard row shows, all optional because a volatile
/// or idle daemon legitimately lacks WAL/series numbers.
#[derive(Default)]
struct Row {
    ok: bool,
    error: Option<String>,
    ops_total: f64,
    ops_per_sec: Option<f64>,
    p50_us: Option<f64>,
    p99_us: Option<f64>,
    inflight: f64,
    /// Mutations rejected by admission control (all shed reasons).
    shed_total: f64,
    /// Requests dropped because their deadline budget expired in queue.
    expired_total: f64,
    /// Client-side circuit-breaker trips observed by this daemon's own
    /// outbound endpoints (replication shippers etc.).
    brkr_trips: f64,
    open_conns: Option<f64>,
    pipeline_avg: Option<f64>,
    wal_batch_avg: Option<f64>,
    fsyncs_per_op: Option<f64>,
    /// Mean wall time of one group-commit fsync.
    fsync_us: Option<f64>,
    /// Mean wall time a durable reply stayed parked for its fsync.
    commit_wait_us: Option<f64>,
    allocs_per_op: Option<f64>,
    alloc_bytes_per_op: Option<f64>,
    /// Replication role gauge (1=primary, 2=standby, 3=fenced); absent
    /// on unreplicated daemons.
    repl_role: Option<f64>,
    repl_epoch: Option<f64>,
    /// Records the slowest peer is behind (primaries only).
    repl_lag: Option<f64>,
}

/// Mean of a summary family: `Σ_sum / Σ_count` over every label set.
fn ratio(pt: &promtext::PromText, family: &str) -> Option<f64> {
    let count = pt.sum(&format!("{family}_count"), &[]);
    if count > 0.0 {
        Some(pt.sum(&format!("{family}_sum"), &[]) / count)
    } else {
        None
    }
}

/// Requests/second over the daemon's most recent series point.
fn ops_rate(series_json: &str) -> Option<f64> {
    let doc = json::parse(series_json).ok()?;
    let points = doc.get("points")?.as_arr()?;
    let last = points.last()?;
    let span_ms = last.get("span_ms")?.as_f64()?;
    if span_ms <= 0.0 {
        return None;
    }
    let values = last.get("values")?.as_obj()?;
    let delta: f64 = values
        .iter()
        .filter(|(k, _)| k.starts_with("loco_rpc_requests_total"))
        .filter_map(|(_, v)| v.as_f64())
        .sum();
    Some(delta * 1_000.0 / span_ms)
}

fn scrape(addr: &str, timeout: Duration) -> Row {
    let text = match control(addr, Control::Metrics, timeout) {
        Ok(ControlReply::Metrics(text)) => text,
        Ok(other) => {
            return Row {
                error: Some(format!("unexpected reply {other:?}")),
                ..Row::default()
            }
        }
        Err(e) => {
            return Row {
                error: Some(e.to_string()),
                ..Row::default()
            }
        }
    };
    let pt = match promtext::parse(&text) {
        Ok(pt) => pt,
        Err(e) => {
            return Row {
                error: Some(format!("bad metrics text: {e}")),
                ..Row::default()
            }
        }
    };
    let ops_total = pt.sum("loco_rpc_requests_total", &[]);
    let fsyncs_per_op = pt
        .value("loco_wal_fsyncs_per_1k_ops", &[])
        .map(|v| v / 1_000.0);
    // Series scrape is best-effort: an old daemon (or one without a
    // maintain timer) still renders a row, just without a rate.
    let ops_per_sec = match control(addr, Control::Series, timeout) {
        Ok(ControlReply::Series(json_text)) => ops_rate(&json_text),
        _ => None,
    };
    Row {
        ok: true,
        error: None,
        ops_total,
        ops_per_sec,
        p50_us: pt
            .quantile("loco_rpc_service_nanos", &[], "0.5")
            .map(|v| v / 1_000.0),
        p99_us: pt
            .quantile("loco_rpc_service_nanos", &[], "0.99")
            .map(|v| v / 1_000.0),
        inflight: pt.sum("loco_rpc_inflight", &[]),
        shed_total: pt.sum("loco_server_shed", &[]),
        expired_total: pt.sum("loco_server_expired", &[]),
        brkr_trips: pt.sum("loco_rpc_brkr_trips_total", &[]),
        open_conns: pt.value("loco_srv_open_conns", &[]),
        pipeline_avg: ratio(&pt, "loco_srv_pipeline_depth"),
        wal_batch_avg: ratio(&pt, "loco_wal_batch_size"),
        fsyncs_per_op,
        fsync_us: ratio(&pt, "loco_wal_fsync_nanos").map(|v| v / 1_000.0),
        commit_wait_us: ratio(&pt, "loco_wal_commit_wait_nanos").map(|v| v / 1_000.0),
        allocs_per_op: ratio(&pt, "loco_alloc_per_op"),
        alloc_bytes_per_op: ratio(&pt, "loco_alloc_bytes_per_op"),
        repl_role: pt.value("loco_repl_role", &[]),
        repl_epoch: pt.value("loco_repl_epoch", &[]),
        repl_lag: pt
            .value("loco_repl_role", &[])
            .map(|_| pt.sum("loco_repl_lag_records", &[])),
    }
}

/// `pri@3` — replication role + fencing epoch, `-` when unreplicated.
fn fmt_repl(r: &Row) -> String {
    match r.repl_role {
        Some(role) => {
            let name = match role as u8 {
                1 => "pri",
                2 => "sby",
                3 => "fen",
                _ => "?",
            };
            format!("{name}@{}", r.repl_epoch.unwrap_or(0.0) as u64)
        }
        None => "-".into(),
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(v) if v >= 100.0 => format!("{v:.0}"),
        Some(v) => format!("{v:.1}"),
        None => "-".into(),
    }
}

fn render_table(rows: &[(String, String, Row)]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<6} {:<21} {:>9} {:>8} {:>8} {:>5} {:>5} {:>7} {:>4} {:>5} {:>6} {:>6} {:>6} {:>7} {:>7} {:>8} {:>9} {:>7} {:>5}\n",
        "NAME",
        "ADDR",
        "OP/S",
        "P50us",
        "P99us",
        "INFL",
        "SHED",
        "EXPIRED",
        "BRKR",
        "CONN",
        "PIPE",
        "WALB",
        "FS/OP",
        "FSYNCus",
        "CWAITus",
        "ALLOC/OP",
        "BYTES/OP",
        "REPL",
        "RLAG"
    ));
    for (name, addr, r) in rows {
        if !r.ok {
            out.push_str(&format!(
                "{name:<6} {addr:<21} DOWN: {}\n",
                r.error.as_deref().unwrap_or("unreachable")
            ));
            continue;
        }
        out.push_str(&format!(
            "{:<6} {:<21} {:>9} {:>8} {:>8} {:>5} {:>5} {:>7} {:>4} {:>5} {:>6} {:>6} {:>6} {:>7} {:>7} {:>8} {:>9} {:>7} {:>5}\n",
            name,
            addr,
            fmt_opt(r.ops_per_sec),
            fmt_opt(r.p50_us),
            fmt_opt(r.p99_us),
            r.inflight,
            r.shed_total,
            r.expired_total,
            r.brkr_trips,
            fmt_opt(r.open_conns),
            fmt_opt(r.pipeline_avg),
            fmt_opt(r.wal_batch_avg),
            fmt_opt(r.fsyncs_per_op),
            fmt_opt(r.fsync_us),
            fmt_opt(r.commit_wait_us),
            fmt_opt(r.allocs_per_op),
            fmt_opt(r.alloc_bytes_per_op),
            fmt_repl(r),
            fmt_opt(r.repl_lag),
        ));
    }
    out
}

fn opt_num(v: Option<f64>) -> Json {
    v.map(Json::Num).unwrap_or(Json::Null)
}

fn render_json(rows: &[(String, String, Row)]) -> String {
    let daemons: Vec<Json> = rows
        .iter()
        .map(|(name, addr, r)| {
            Json::obj(vec![
                ("name", Json::Str(name.clone())),
                ("addr", Json::Str(addr.clone())),
                ("ok", Json::Bool(r.ok)),
                (
                    "error",
                    r.error.clone().map(Json::Str).unwrap_or(Json::Null),
                ),
                ("ops_total", Json::Num(r.ops_total)),
                ("ops_per_sec", opt_num(r.ops_per_sec)),
                ("p50_us", opt_num(r.p50_us)),
                ("p99_us", opt_num(r.p99_us)),
                ("inflight", Json::Num(r.inflight)),
                ("shed_total", Json::Num(r.shed_total)),
                ("expired_total", Json::Num(r.expired_total)),
                ("brkr_trips", Json::Num(r.brkr_trips)),
                ("open_conns", opt_num(r.open_conns)),
                ("pipeline_depth_avg", opt_num(r.pipeline_avg)),
                ("wal_batch_avg", opt_num(r.wal_batch_avg)),
                ("fsyncs_per_op", opt_num(r.fsyncs_per_op)),
                ("fsync_us_avg", opt_num(r.fsync_us)),
                ("commit_wait_us_avg", opt_num(r.commit_wait_us)),
                ("allocs_per_op", opt_num(r.allocs_per_op)),
                ("alloc_bytes_per_op", opt_num(r.alloc_bytes_per_op)),
                ("repl_role", opt_num(r.repl_role)),
                ("repl_epoch", opt_num(r.repl_epoch)),
                ("repl_lag_records", opt_num(r.repl_lag)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("ok", Json::Bool(rows.iter().all(|(_, _, r)| r.ok))),
        ("daemons", Json::Arr(daemons)),
    ])
    .to_string()
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("locotop: {e}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let daemons = match discover(&args) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("locotop: {e}");
            return ExitCode::FAILURE;
        }
    };
    let timeout = Duration::from_millis(args.timeout_ms.max(1));
    loop {
        let rows: Vec<(String, String, Row)> = daemons
            .iter()
            .map(|d| (d.name.clone(), d.addr.clone(), scrape(&d.addr, timeout)))
            .collect();
        let all_ok = rows.iter().all(|(_, _, r)| r.ok);
        if args.json {
            println!("{}", render_json(&rows));
        } else {
            if !args.once {
                // Clear + home: repaint in place like top(1).
                print!("\x1b[2J\x1b[H");
            }
            print!("{}", render_table(&rows));
        }
        if args.once {
            // The CI heap-budget gate: a regression that makes the
            // metadata path start allocating per op (e.g. accidental
            // serialization or copying) fails the scrape itself.
            let mut over_budget = false;
            if let Some(budget) = args.max_allocs_per_op {
                for (name, _, r) in &rows {
                    if let Some(allocs) = r.allocs_per_op {
                        if allocs > budget {
                            eprintln!(
                                "locotop: {name} mean allocs/op {allocs:.1} \
                                 exceeds budget {budget}"
                            );
                            over_budget = true;
                        }
                    }
                }
            }
            return if all_ok && !over_budget {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
        std::thread::sleep(Duration::from_millis(args.interval_ms.max(50)));
    }
}
