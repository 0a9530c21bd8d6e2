//! # loco-bench — the benchmark harness
//!
//! One binary per table/figure of the paper (see DESIGN.md §4 for the
//! full index):
//!
//! | binary | regenerates |
//! |---|---|
//! | `fig01_gap` | Fig 1 — FS metadata vs raw KV gap |
//! | `fig06_latency_create` | Fig 6 — touch/mkdir latency vs #MDS |
//! | `fig07_latency_ops` | Fig 7 — readdir/rmdir/rm/stat latency @16 MDS |
//! | `fig08_throughput` | Fig 8 — op throughput vs #MDS |
//! | `fig09_gap_bridge` | Fig 9 — % of single-node KV throughput |
//! | `fig10_flattened` | Fig 10 — co-located latency (flattened tree) |
//! | `fig11_decoupled` | Fig 11 — decoupled-file-metadata ablation |
//! | `fig12_fullsystem` | Fig 12 — read/write latency vs I/O size |
//! | `fig13_depth` | Fig 13 — create IOPS vs directory depth |
//! | `fig14_rename` | Fig 14 — d-rename time, hash vs B-tree, SSD vs HDD |
//! | `table1_matrix` | Table 1 — metadata parts touched per op |
//! | `table3_clients` | Table 3 — optimal client counts |
//!
//! Scale knobs (environment variables): `LOCO_ITEMS` (items per client
//! in latency runs), `LOCO_TP_ITEMS` (items per client in throughput
//! runs), `LOCO_MAX_CLIENTS`. Defaults are sized so every binary
//! finishes in seconds while preserving each figure's shape; raise them
//! to approach paper scale.
//!
//! Micro-benches of the substrates live under `benches/`, running on
//! the in-tree [`micro`] harness (the workspace builds offline, so
//! Criterion is unavailable).

pub mod micro;

use loco_baselines::{
    CephFsModel, DistFs, GlusterFsModel, IndexFsModel, LocoAdapter, LustreFsModel, LustreVariant,
    RawKvFs,
};
use loco_client::LocoConfig;
use loco_sim::des::ClosedLoopSim;

pub use loco_client::Transport;

/// Filesystems under test, by paper label.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsKind {
    /// LocoFS with client cache.
    LocoC,
    /// LocoFS without client cache.
    LocoNC,
    /// LocoFS with *coupled* file metadata (Fig 11 ablation; cache on).
    LocoCF,
    Ceph,
    Gluster,
    LustreSingle,
    LustreD1,
    LustreD2,
    IndexFs,
    RawKv,
}

impl FsKind {
    pub fn label(self) -> &'static str {
        match self {
            FsKind::LocoC => "LocoFS-C",
            FsKind::LocoNC => "LocoFS-NC",
            FsKind::LocoCF => "LocoFS-CF",
            FsKind::Ceph => "CephFS",
            FsKind::Gluster => "Gluster",
            FsKind::LustreSingle => "Lustre",
            FsKind::LustreD1 => "Lustre-D1",
            FsKind::LustreD2 => "Lustre-D2",
            FsKind::IndexFs => "IndexFS",
            FsKind::RawKv => "RawKV(KC)",
        }
    }

    /// The systems of the latency/throughput comparisons (Figs 6–9).
    pub const COMPARED: [FsKind; 6] = [
        FsKind::LocoC,
        FsKind::LocoNC,
        FsKind::LustreD1,
        FsKind::LustreD2,
        FsKind::Ceph,
        FsKind::Gluster,
    ];
}

/// Instantiate a filesystem with `servers` metadata servers.
pub fn make_fs(kind: FsKind, servers: u16) -> Box<dyn DistFs> {
    make_fs_on(kind, servers, Transport::Sim)
}

/// Like [`make_fs`], but LocoFS variants run over an explicit
/// [`Transport`]. The baseline *models* have no wire to cross, so the
/// transport only affects the `FsKind::Loco*` rows — which is exactly
/// what the transport-equivalence guarantee needs: their virtual-cost
/// traces (and therefore every figure) are identical across transports.
pub fn make_fs_on(kind: FsKind, servers: u16, transport: Transport) -> Box<dyn DistFs> {
    match kind {
        FsKind::LocoC => Box::new(LocoAdapter::with_transport(
            LocoConfig::with_servers(servers),
            transport,
        )),
        FsKind::LocoNC => Box::new(LocoAdapter::with_transport(
            LocoConfig::with_servers(servers).no_cache(),
            transport,
        )),
        FsKind::LocoCF => Box::new(LocoAdapter::with_transport(
            LocoConfig::with_servers(servers).coupled(),
            transport,
        )),
        FsKind::Ceph => Box::new(CephFsModel::new(servers)),
        FsKind::Gluster => Box::new(GlusterFsModel::new(servers)),
        FsKind::LustreSingle => Box::new(LustreFsModel::new(LustreVariant::Single, servers)),
        FsKind::LustreD1 => Box::new(LustreFsModel::new(LustreVariant::Dne1, servers)),
        FsKind::LustreD2 => Box::new(LustreFsModel::new(LustreVariant::Dne2, servers)),
        FsKind::IndexFs => Box::new(IndexFsModel::new(servers)),
        FsKind::RawKv => Box::new(RawKvFs::new()),
    }
}

/// Read a scale knob from the environment.
pub fn env_scale(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The simulator parameters shared by throughput figures.
pub fn default_sim() -> ClosedLoopSim {
    ClosedLoopSim::default()
}

/// Optimal client counts per server count, seeded from the paper's
/// Table 3 (LocoFS row); used when a figure doesn't run its own sweep.
pub fn paper_clients(servers: u16) -> usize {
    match servers {
        0..=1 => 30,
        2 => 50,
        3..=4 => 70,
        5..=8 => 120,
        _ => 144,
    }
}

/// Virtual time between mdtest phases: long enough that 30 s leases
/// from the preparation phase are stale when the measured phase starts.
pub const PHASE_GAP: loco_net::Nanos = 31 * loco_sim::time::SECS;

/// Pre-create whatever a phase operates on (files for stat/remove/mod
/// phases, directories for dir-stat/rmdir), without recording.
pub fn prepare_phase(
    fs: &mut dyn DistFs,
    spec: &loco_mdtest::TreeSpec,
    phase: loco_mdtest::PhaseKind,
) {
    use loco_mdtest::PhaseKind;
    if !phase.needs_files() {
        return;
    }
    let pre = match phase {
        PhaseKind::DirStat | PhaseKind::DirRemove => PhaseKind::DirCreate,
        _ => PhaseKind::FileCreate,
    };
    for stream in loco_mdtest::gen_phase(spec, pre) {
        for op in stream {
            let _ = op.apply(fs);
            let _ = fs.take_trace();
        }
    }
}

pub use loco_mdtest::{
    dump_phase_folded, dump_phase_metrics, dump_phase_slow_ops, prom_family_sum, BenchReport,
};

/// Parse a `--transport {sim,tcp}` flag out of a bin's argument
/// list, returning the remaining positional arguments and the chosen
/// transport (default [`Transport::Sim`]).
pub fn parse_transport_flag(args: &[String]) -> (Vec<String>, Transport) {
    let mut transport = Transport::Sim;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--transport" {
            let val = it
                .next()
                .unwrap_or_else(|| panic!("--transport needs a value (sim/tcp)"));
            transport = Transport::parse(val)
                .unwrap_or_else(|| panic!("unknown transport {val:?} (sim/tcp)"));
        } else if let Some(val) = a.strip_prefix("--transport=") {
            transport = Transport::parse(val)
                .unwrap_or_else(|| panic!("unknown transport {val:?} (sim/tcp)"));
        } else {
            rest.push(a.clone());
        }
    }
    (rest, transport)
}

/// Closed-loop throughput of one (system, servers, phase) cell.
pub fn measure_throughput(
    kind: FsKind,
    servers: u16,
    phase: loco_mdtest::PhaseKind,
    clients: usize,
    items: usize,
) -> f64 {
    measure_throughput_on(kind, servers, phase, clients, items, Transport::Sim)
}

/// [`measure_throughput`] over an explicit transport.
pub fn measure_throughput_on(
    kind: FsKind,
    servers: u16,
    phase: loco_mdtest::PhaseKind,
    clients: usize,
    items: usize,
    transport: Transport,
) -> f64 {
    let mut fs = make_fs_on(kind, servers, transport);
    let spec = loco_mdtest::TreeSpec::new(clients, items);
    loco_mdtest::run_setup(&mut *fs, &loco_mdtest::gen_setup(&spec)).expect("setup");
    prepare_phase(&mut *fs, &spec, phase);
    if phase.needs_files() {
        // mdtest runs phases back to back over millions of items, so
        // time-based leases from the create phase are stale by the
        // measured phase; revocation-based caches (Ceph caps) survive.
        fs.advance_clock(PHASE_GAP);
    }
    let ops = loco_mdtest::gen_phase(&spec, phase);
    let iops = loco_mdtest::run_throughput(&mut *fs, &ops, &default_sim()).iops();
    let label = format!(
        "{} {phase:?} servers={servers} clients={clients}",
        kind.label()
    );
    dump_phase_metrics(&label, &mut *fs);
    dump_phase_slow_ops(&label, &mut *fs);
    dump_phase_folded(&label, &mut *fs);
    // Cells attached to an external cluster (`LOCO_CLUSTER`) share one
    // namespace across the whole sweep — dropping `fs` doesn't clear
    // it, so remove this cell's tree or the next setup hits
    // AlreadyExists. In-process clusters die with `fs`; skip the ops.
    if transport == Transport::Tcp && std::env::var("LOCO_CLUSTER").is_ok() {
        loco_mdtest::cleanup_tree(&mut *fs, &spec);
    }
    iops
}

/// Single-client latency of one (system, servers, phase) cell.
/// `rtt_override` of `Some(0)` reproduces the co-located Fig 10 setup.
pub fn measure_latency(
    kind: FsKind,
    servers: u16,
    phase: loco_mdtest::PhaseKind,
    items: usize,
    rtt_override: Option<loco_net::Nanos>,
) -> loco_mdtest::LatencyRun {
    let mut fs = make_fs(kind, servers);
    if let Some(rtt) = rtt_override {
        fs.set_rtt(rtt);
    }
    let spec = loco_mdtest::TreeSpec::new(1, items);
    loco_mdtest::run_setup(&mut *fs, &loco_mdtest::gen_setup(&spec)).expect("setup");
    prepare_phase(&mut *fs, &spec, phase);
    if phase.needs_files() {
        fs.advance_clock(PHASE_GAP);
    }
    let ops = &loco_mdtest::gen_phase(&spec, phase)[0];
    let run = loco_mdtest::run_latency(&mut *fs, ops);
    let label = format!("{} {phase:?} servers={servers} latency", kind.label());
    dump_phase_metrics(&label, &mut *fs);
    dump_phase_slow_ops(&label, &mut *fs);
    dump_phase_folded(&label, &mut *fs);
    run
}

/// Fixed-width table printer for figure output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render with per-column widths.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  "),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    pub fn print(&self, title: &str) {
        println!("\n== {title} ==");
        print!("{}", self.render());
    }
}

/// Format a float compactly for table cells.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_every_kind() {
        for kind in [
            FsKind::LocoC,
            FsKind::LocoNC,
            FsKind::LocoCF,
            FsKind::Ceph,
            FsKind::Gluster,
            FsKind::LustreSingle,
            FsKind::LustreD1,
            FsKind::LustreD2,
            FsKind::IndexFs,
            FsKind::RawKv,
        ] {
            let mut fs = make_fs(kind, 4);
            fs.mkdir("/x").unwrap();
            fs.create("/x/f").unwrap();
            fs.stat_file("/x/f").unwrap();
            assert!(!fs.name().is_empty());
        }
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["sys", "iops"]);
        t.row(vec!["LocoFS", "100000"]);
        t.row(vec!["CephFS", "1500"]);
        let s = t.render();
        assert!(s.contains("LocoFS"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(4.25519), "4.26");
        assert_eq!(fmt(42.123), "42.1");
        assert_eq!(fmt(123456.7), "123457");
    }

    #[test]
    fn paper_client_counts_monotonic() {
        assert!(paper_clients(1) <= paper_clients(4));
        assert!(paper_clients(4) <= paper_clients(16));
    }
}
