//! Per-layer metrics of a traced phase, the conservation check, and the
//! span dump.
//!
//! Each RPC span is paired with the handler run it caused: a handler
//! span of the same server and label that lies inside the RPC's wall
//! interval. Handler runs of one server are serialized by its service
//! lock, so taking them in order and giving each the qualifying RPC
//! that ends first pairs as many as any assignment can. A mutating
//! RPC's fsync is the last group-commit fsync of that server that
//! started after its handler ended and finished before its reply
//! arrived. Per op, the stages are then:
//!
//! * client self — op wall minus the wall of the op's RPCs;
//! * handler self, KV, WAL — from the paired handler span (KV is time
//!   inside the in-memory store, WAL is time inside `DurableStore`
//!   outside it);
//! * group wait — from the handler's end to the start of that fsync:
//!   the reply parked while the group committer gathers its batch;
//! * fsync — the paired fsync's wall;
//! * residual — the rest of the RPC wall: loopback, framing, worker
//!   wake, service-lock wait and the reply's way back.
//!
//! The stages cover an op's wall exactly when every one of its RPCs
//! pairs with a handler run. `trace.unattributed_ratio` is the share of
//! op wall in RPCs that found none.

use crate::drive::Phase;
use crate::probe::{FsyncSpan, HandlerSpan, Probe, RpcSpan};
use crate::stats::{metric, quantile, Metric};
use loco_net::{class, ServerId};
use std::collections::HashMap;
use std::io::Write;

/// Roles in metric order: (class, `net`/`kv`/`wal` name, handler name).
const ROLES: [(u8, &str, &str); 3] = [
    (class::DMS, "dms", "dms"),
    (class::FMS, "fms", "fms"),
    (class::OST, "ost", "ostore"),
];

/// Largest share of op wall a traced run may leave unattributed.
pub const TOLERANCE: f64 = 0.05;

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn p_us(mut ns: Vec<u64>, q: f64) -> f64 {
    ns.sort_unstable();
    us(quantile(&ns, q))
}

/// Stage times of one RPC (ns).
#[derive(Clone, Copy, Default)]
struct Stages {
    residual: f64,
    group_wait: f64,
    fsync: f64,
    handler_self: f64,
    kv: f64,
    wal: f64,
}

impl Stages {
    fn add(&mut self, o: &Stages) {
        self.residual += o.residual;
        self.group_wait += o.group_wait;
        self.fsync += o.fsync;
        self.handler_self += o.handler_self;
        self.kv += o.kv;
        self.wal += o.wal;
    }

    fn total(&self) -> f64 {
        self.residual + self.group_wait + self.fsync + self.handler_self + self.kv + self.wal
    }
}

/// Pair the RPCs to one server with its handler and fsync spans; returns
/// per-RPC stages (`None`: no handler run found) and the handler runs
/// left without an RPC.
fn pair(
    rpcs: &[&RpcSpan],
    mut hs: Vec<HandlerSpan>,
    mut fs: Vec<FsyncSpan>,
) -> (Vec<Option<Stages>>, usize) {
    hs.sort_by_key(|h| h.start);
    fs.sort_by_key(|f| f.end);
    let mut order: Vec<usize> = (0..rpcs.len()).collect();
    order.sort_by_key(|&i| rpcs[i].start);
    let mut out = vec![None; rpcs.len()];
    let mut open: Vec<usize> = Vec::new();
    let mut next = 0;
    let mut orphans = 0;
    for h in &hs {
        while next < order.len() && rpcs[order[next]].start <= h.start {
            open.push(order[next]);
            next += 1;
        }
        // An RPC that ended before this handler began can hold no later
        // handler either.
        open.retain(|&i| rpcs[i].end >= h.start);
        let pick = open
            .iter()
            .enumerate()
            .filter(|(_, &i)| rpcs[i].label == h.label && rpcs[i].end >= h.end)
            .min_by_key(|(_, &i)| rpcs[i].end)
            .map(|(pos, _)| pos);
        let Some(pos) = pick else {
            orphans += 1;
            continue;
        };
        let i = open.swap_remove(pos);
        let r = rpcs[i];
        let h_wall = (h.end - h.start) as f64;
        let upto = fs.partition_point(|f| f.end <= r.end);
        let (group_wait, fsync) = fs[..upto]
            .iter()
            .rev()
            .take_while(|f| r.mutates && f.end > h.end)
            .find(|f| f.start >= h.end)
            .map_or((0.0, 0.0), |f| {
                ((f.start - h.end) as f64, (f.end - f.start) as f64)
            });
        let kv = h.kv_ns as f64;
        let wal = h.wal_ns as f64;
        let rpc_wall = (r.end - r.start) as f64;
        out[i] = Some(Stages {
            residual: rpc_wall - h_wall - group_wait - fsync,
            group_wait,
            fsync,
            handler_self: (h_wall - kv - wal).max(0.0),
            kv,
            wal,
        });
    }
    (out, orphans)
}

/// Per-layer metrics and the verdict of the conservation check.
pub struct Layers {
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Conservation failures (empty: the stages add up).
    pub violations: Vec<String>,
    /// Human-readable stage breakdown.
    pub notes: Vec<String>,
}

/// Stage sums of one client op.
#[derive(Default)]
struct OpAgg {
    rpc_wall: f64,
    unpaired: f64,
    stages: Stages,
}

/// Fold a traced phase into per-layer metrics. `untraced_ops_per_s` is
/// the throughput of the same workload on the plain cluster; `retries`
/// the client retries spent during the phase.
pub fn compute(phase: &Phase, probe: &Probe, untraced_ops_per_s: f64, retries: u64) -> Layers {
    let ops: Vec<_> = phase.runs.iter().flat_map(|r| r.ops.iter()).collect();
    let rpcs: Vec<&RpcSpan> = phase.runs.iter().flat_map(|r| r.rpcs.iter()).collect();
    let servers = probe.servers();
    let n_ops = ops.len() as f64;
    let window_ns = phase.elapsed_ns as f64;
    let mut m = Vec::new();
    let mut violations = Vec::new();
    let mut notes = Vec::new();

    // Pair every RPC with its handler run (and fsync), server by server.
    let mut paired: Vec<Option<Stages>> = vec![None; rpcs.len()];
    let mut orphans = HashMap::new();
    for s in &servers {
        let idx: Vec<usize> = (0..rpcs.len())
            .filter(|&i| rpcs[i].server == s.id)
            .collect();
        let sub: Vec<&RpcSpan> = idx.iter().map(|&i| rpcs[i]).collect();
        let (st, lone) = pair(&sub, s.handlers(), s.fsyncs());
        for (k, st) in st.into_iter().enumerate() {
            paired[idx[k]] = st;
        }
        *orphans.entry(s.id.class).or_insert(0usize) += lone;
    }
    let mut per_op: HashMap<u64, OpAgg> = HashMap::new();
    for (r, st) in rpcs.iter().zip(&paired) {
        let a = per_op.entry(r.op).or_default();
        let wall = (r.end - r.start) as f64;
        a.rpc_wall += wall;
        match st {
            Some(st) => a.stages.add(st),
            None => a.unpaired += wall,
        }
    }

    // Client.
    let mut op_wall = 0.0;
    let mut client_self = 0.0;
    let mut unpaired = 0.0;
    let (mut w_wall, mut w_self, mut w_stages, mut n_writes) = (0.0, 0.0, Stages::default(), 0.0);
    for o in &ops {
        let wall = (o.end - o.start) as f64;
        let a = per_op.get(&o.op);
        let own = (wall - a.map_or(0.0, |a| a.rpc_wall)).max(0.0);
        op_wall += wall;
        client_self += own;
        unpaired += a.map_or(0.0, |a| a.unpaired);
        if !o.read {
            n_writes += 1.0;
            w_wall += wall;
            w_self += own;
            if let Some(a) = a {
                w_stages.add(&a.stages);
            }
        }
    }
    let (hits, misses) = phase
        .runs
        .iter()
        .fold((0, 0), |(h, m), r| (h + r.cache.0, m + r.cache.1));
    m.push(metric(
        "client.self_us_per_op",
        us(ratio(client_self, n_ops)),
        "us",
    ));
    m.push(metric(
        "client.rpcs_per_op",
        ratio(rpcs.len() as f64, n_ops),
        "count",
    ));
    m.push(metric(
        "client.dcache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    ));

    let mut fsync_durs = Vec::new();
    let mut fsync_records = 0u64;
    let mut wal_bytes = 0u64;
    let mut user_bytes = 0u64;
    let (mut ckpt_ns, mut ckpts) = (0u64, 0u64);
    for (cls, net, role) in ROLES {
        let r: Vec<(&RpcSpan, &Option<Stages>)> = rpcs
            .iter()
            .zip(&paired)
            .filter(|(x, _)| x.server.class == cls)
            .map(|(x, st)| (*x, st))
            .collect();
        let sp: Vec<_> = servers.iter().filter(|s| s.id.class == cls).collect();
        let h: Vec<HandlerSpan> = sp.iter().flat_map(|s| s.handlers()).collect();
        let f: Vec<FsyncSpan> = sp.iter().flat_map(|s| s.fsyncs()).collect();
        fsync_durs.extend(f.iter().map(|x| x.end - x.start));
        fsync_records += f.iter().map(|x| x.records).sum::<u64>();
        wal_bytes += sp.iter().map(|s| s.wal_bytes()).sum::<u64>();
        let role_user: u64 = h.iter().map(|x| x.user_bytes).sum();
        user_bytes += role_user;
        ckpt_ns += h.iter().map(|x| x.ckpt_ns).sum::<u64>();
        ckpts += h.iter().map(|x| x.ckpts).sum::<u64>();

        // RPC wall minus handler wall, over the paired RPCs: overall and
        // for mutating vs read requests.
        let mean_residual = |want: Option<bool>| {
            let (sum, n) = r
                .iter()
                .filter(|(x, _)| want.is_none_or(|w| x.mutates == w))
                .filter_map(|(_, st)| st.as_ref())
                .fold((0.0, 0.0), |(s, n), st| {
                    (s + st.residual + st.group_wait + st.fsync, n + 1.0)
                });
            (n > 0.0).then(|| sum / n)
        };
        let commit_wait = match (mean_residual(Some(true)), mean_residual(Some(false))) {
            (Some(w), Some(rd)) => w - rd,
            _ => 0.0,
        };
        let mut role_stages = Stages::default();
        for st in r.iter().filter_map(|(_, st)| st.as_ref()) {
            role_stages.add(st);
        }
        let rpc_walls = || r.iter().map(|(x, _)| x.end - x.start).collect::<Vec<_>>();
        let wall = |x: &HandlerSpan| (x.end - x.start) as f64;
        let n_r = r.len() as f64;
        let n_h = h.len() as f64;
        let h_wall: f64 = h.iter().map(wall).sum();
        let kv: f64 = h.iter().map(|x| x.kv_ns as f64).sum();
        let wal: f64 = h.iter().map(|x| x.wal_ns as f64).sum();
        let kv_calls: u64 = h.iter().map(|x| x.kv_calls).sum();
        let commits: u64 = h.iter().map(|x| x.commits).sum();
        let busy = sp
            .iter()
            .map(|s| s.handlers().iter().map(wall).sum::<f64>())
            .fold(0.0, f64::max);
        m.push(metric(
            format!("net.{net}.rpcs_per_op"),
            ratio(n_r, n_ops),
            "count",
        ));
        m.push(metric(
            format!("net.{net}.rpc_p50_us"),
            p_us(rpc_walls(), 0.5),
            "us",
        ));
        m.push(metric(
            format!("net.{net}.rpc_p99_us"),
            p_us(rpc_walls(), 0.99),
            "us",
        ));
        m.push(metric(
            format!("net.{net}.residual_us_per_rpc"),
            us(mean_residual(None).unwrap_or(0.0)),
            "us",
        ));
        m.push(metric(
            format!("net.{net}.commit_wait_us"),
            us(commit_wait),
            "us",
        ));
        m.push(metric(
            format!("{role}.handle_us_per_rpc"),
            us(ratio(h_wall, n_h)),
            "us",
        ));
        m.push(metric(
            format!("{role}.handle_p99_us"),
            p_us(h.iter().map(|x| x.end - x.start).collect(), 0.99),
            "us",
        ));
        m.push(metric(
            format!("{role}.self_us_per_handle"),
            us(ratio((h_wall - kv - wal).max(0.0), n_h)),
            "us",
        ));
        m.push(metric(
            format!("{role}.busy_ratio"),
            ratio(busy, window_ns),
            "ratio",
        ));
        m.push(metric(
            format!("kv.{net}.calls_per_handle"),
            ratio(kv_calls as f64, n_h),
            "count",
        ));
        m.push(metric(
            format!("kv.{net}.us_per_call"),
            us(ratio(kv, kv_calls as f64)),
            "us",
        ));
        m.push(metric(
            format!("kv.{net}.user_bytes_per_op"),
            ratio(role_user as f64, n_ops),
            "B",
        ));
        m.push(metric(
            format!("wal.{net}.append_us_per_commit"),
            us(ratio(wal, commits as f64)),
            "us",
        ));

        // Conservation: one handler run per RPC that got a reply (a
        // retried request may run once more), and none without an RPC.
        let replied = r.iter().filter(|(x, _)| x.ok).count() as u64;
        let handled = h.len() as u64;
        let lone = orphans.get(&cls).copied().unwrap_or(0) as u64;
        if handled < replied || handled > n_r as u64 + retries || lone > retries {
            violations.push(format!(
                "{net}: {} RPCs sent ({replied} replied), {handled} handler runs, \
                 {lone} runs inside no RPC, {retries} retries",
                r.len()
            ));
        }
        notes.push(format!(
            "{net}: {:.1} us/op of RPC = residual {:.1} + group wait {:.1} + fsync {:.1} + handler self {:.1} + kv {:.1} + wal {:.1}",
            us(ratio(role_stages.total(), n_ops)),
            us(ratio(role_stages.residual, n_ops)),
            us(ratio(role_stages.group_wait, n_ops)),
            us(ratio(role_stages.fsync, n_ops)),
            us(ratio(role_stages.handler_self, n_ops)),
            us(ratio(role_stages.kv, n_ops)),
            us(ratio(role_stages.wal, n_ops)),
        ));
    }

    let failed_rpcs = rpcs.iter().filter(|r| !r.ok).count() as f64;
    m.push(metric(
        "net.failed_rpc_ratio",
        ratio(failed_rpcs, rpcs.len() as f64),
        "ratio",
    ));
    m.push(metric("net.retries", retries as f64, "count"));
    let n_fsync = fsync_durs.len() as f64;
    m.push(metric("wal.fsyncs_per_op", ratio(n_fsync, n_ops), "count"));
    m.push(metric(
        "wal.fsync_p50_us",
        p_us(fsync_durs.clone(), 0.5),
        "us",
    ));
    m.push(metric("wal.fsync_p99_us", p_us(fsync_durs, 0.99), "us"));
    m.push(metric(
        "wal.fsync_share_of_write",
        ratio(w_stages.fsync, w_wall),
        "ratio",
    ));
    m.push(metric(
        "wal.group_wait_share_of_write",
        ratio(w_stages.group_wait, w_wall),
        "ratio",
    ));
    m.push(metric(
        "wal.records_per_fsync",
        ratio(fsync_records as f64, n_fsync),
        "count",
    ));
    m.push(metric(
        "wal.bytes_per_op",
        ratio(wal_bytes as f64, n_ops),
        "B",
    ));
    m.push(metric(
        "wal.write_amp",
        ratio(wal_bytes as f64, user_bytes as f64),
        "ratio",
    ));
    m.push(metric(
        "wal.checkpoint_ms",
        ratio(ckpt_ns as f64, ckpts as f64) / 1e6,
        "ms",
    ));

    let traced_ops_per_s = n_ops / (window_ns / 1e9);
    let unattributed = ratio(unpaired, op_wall);
    m.push(metric(
        "trace.overhead_ratio",
        ratio(traced_ops_per_s, untraced_ops_per_s),
        "ratio",
    ));
    m.push(metric("trace.unattributed_ratio", unattributed, "ratio"));
    if unattributed > TOLERANCE {
        violations.push(format!(
            "{:.1}% of op wall is in RPCs paired with no handler run (tolerance {:.0}%)",
            100.0 * unattributed,
            100.0 * TOLERANCE
        ));
    }
    notes.insert(
        0,
        format!(
            "op {:.1} us = client self {:.1} + RPC stages below + unattributed {:.2}",
            us(ratio(op_wall, n_ops)),
            us(ratio(client_self, n_ops)),
            us(ratio(unpaired, n_ops)),
        ),
    );
    if n_writes > 0.0 {
        let terms = [
            ("client self", w_self),
            ("residual", w_stages.residual),
            ("group wait", w_stages.group_wait),
            ("fsync", w_stages.fsync),
            ("handler self", w_stages.handler_self),
            ("kv", w_stages.kv),
            ("wal", w_stages.wal),
        ];
        let (top, _) = terms
            .iter()
            .copied()
            .fold(("", f64::MIN), |a, t| if t.1 > a.1 { t } else { a });
        let parts: Vec<String> = terms
            .iter()
            .map(|(k, v)| format!("{k} {:.1}", us(v / n_writes)))
            .collect();
        notes.push(format!(
            "write op {:.1} us = {}; largest term: {top}",
            us(w_wall / n_writes),
            parts.join(" + ")
        ));
    }
    Layers {
        metrics: m,
        violations,
        notes,
    }
}

/// Write every span of the traced phase as tab-separated lines:
/// `kind op server thread label start_ns end_ns detail`. Client op and
/// RPC spans share the op id; handler and fsync spans carry their
/// server and thread.
pub fn dump(
    path: &std::path::Path,
    header: &str,
    phase: &Phase,
    probe: &Probe,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "# {header}")?;
    writeln!(
        out,
        "kind\top\tserver\tthread\tlabel\tstart_ns\tend_ns\tdetail"
    )?;
    let server = |id: ServerId| format!("{}{}", loco_net::role_name(id.class), id.index);
    for (ci, run) in phase.runs.iter().enumerate() {
        for o in &run.ops {
            let label = if o.read { "read" } else { "write" };
            writeln!(
                out,
                "op\t{}\t-\tc{ci}\t{label}\t{}\t{}\tok={}",
                o.op, o.start, o.end, o.ok as u8
            )?;
        }
        for r in &run.rpcs {
            writeln!(
                out,
                "rpc\t{}\t{}\tc{ci}\t{}\t{}\t{}\tok={} mutates={}",
                r.op,
                server(r.server),
                r.label,
                r.start,
                r.end,
                r.ok as u8,
                r.mutates as u8
            )?;
        }
    }
    for s in probe.servers() {
        for h in s.handlers() {
            writeln!(
                out,
                "handler\t-\t{}\tt{}\t{}\t{}\t{}\tkv_calls={} kv_ns={} wal_ns={} user_bytes={} commits={} ckpt_ns={}",
                server(s.id),
                h.thread,
                h.label,
                h.start,
                h.end,
                h.kv_calls,
                h.kv_ns,
                h.wal_ns,
                h.user_bytes,
                h.commits,
                h.ckpt_ns
            )?;
        }
        for f in s.fsyncs() {
            writeln!(
                out,
                "fsync\t-\t{}\tt{}\t-\t{}\t{}\trecords={}",
                server(s.id),
                f.thread,
                f.start,
                f.end,
                f.records
            )?;
        }
    }
    out.flush()
}
