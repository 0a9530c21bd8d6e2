//! Transport equivalence: the same workload over `SimEndpoint` and
//! `TcpEndpoint` must yield identical operation results and error
//! codes, and — because servers
//! return their *virtual* service cost in every reply — structurally
//! identical flight-recorder span trees (same visit order, same
//! KV-vs-software attribution, same unloaded latency). Only queue-wait
//! is wall-clock and therefore excluded from comparison.

use locofs::client::{LocoClient, LocoConfig, TraceMode, Transport, TransportCluster};
use locofs::types::FsError;

/// A workload exercising every server role plus the error paths.
/// Returns a printable outcome per step so mismatches point at the op.
fn workload(c: &mut LocoClient) -> Vec<String> {
    let mut out = Vec::new();
    let mut push = |label: &str, r: Result<String, FsError>| {
        out.push(format!("{label}: {r:?}"));
    };

    push("mkdir /a", c.mkdir("/a", 0o755).map(|_| String::new()));
    push("mkdir /a/b", c.mkdir("/a/b", 0o755).map(|_| String::new()));
    push("mkdir dup", c.mkdir("/a", 0o755).map(|_| String::new()));
    for i in 0..8 {
        push(
            "create",
            c.create(&format!("/a/b/f{i}"), 0o644)
                .map(|_| String::new()),
        );
    }
    push(
        "stat file",
        c.stat_file("/a/b/f3")
            .map(|st| format!("{:o}", st.access.mode)),
    );
    push(
        "stat missing",
        c.stat_file("/a/b/nope").map(|_| String::new()),
    );
    push(
        "readdir",
        c.readdir("/a/b").map(|v| format!("{} entries", v.len())),
    );
    push(
        "chmod",
        c.chmod_file("/a/b/f0", 0o600).map(|_| String::new()),
    );
    push(
        "chown",
        c.chown_file("/a/b/f0", 1000, 1000).map(|_| String::new()),
    );
    push(
        "access",
        c.access_file("/a/b/f0", locofs::types::Perm::Read)
            .map(|ok| ok.to_string()),
    );
    // Data path: write crosses FMS + OST, read comes back verbatim.
    let mut h = c.create("/a/b/data", 0o644).unwrap();
    push(
        "write",
        c.write(&mut h, 0, b"equivalence").map(|_| String::new()),
    );
    push(
        "read",
        c.read(&h, 0, 11)
            .map(|d| String::from_utf8_lossy(&d).into_owned()),
    );
    push(
        "truncate",
        c.truncate_file("/a/b/data", 4).map(|_| String::new()),
    );
    push(
        "rename file",
        c.rename_file("/a/b/f7", "/a/b/g7").map(|_| String::new()),
    );
    push(
        "rename dir",
        c.rename_dir("/a/b", "/a/c").map(|n| n.to_string()),
    );
    push("rmdir nonempty", c.rmdir("/a").map(|_| String::new()));
    push("unlink", c.unlink("/a/c/g7").map(|_| String::new()));
    push("unlink missing", c.unlink("/a/c/g7").map(|_| String::new()));
    out
}

/// Structural digest of a span tree: everything except wall-clock
/// queue waits.
fn span_digest(cluster: &TransportCluster) -> Vec<String> {
    cluster
        .flight
        .recent()
        .iter()
        .map(|rec| {
            let visits: Vec<String> = rec
                .visits
                .iter()
                .map(|v| {
                    let mut attrs: Vec<String> = v
                        .attrs
                        .iter()
                        .map(|(k, val)| format!("{k}={val}"))
                        .collect();
                    attrs.sort();
                    format!(
                        "{}[{}] {} svc={} {{{}}}",
                        v.server,
                        v.index,
                        v.op,
                        v.service_ns,
                        attrs.join(",")
                    )
                })
                .collect();
            format!(
                "{} {} lat={} cw={} :: {}",
                rec.op,
                rec.detail,
                rec.latency_ns,
                rec.client_work_ns,
                visits.join(" -> ")
            )
        })
        .collect()
}

fn run(transport: Transport) -> (Vec<String>, Vec<String>) {
    let config = LocoConfig::with_servers(3).traced(TraceMode::All);
    let cluster = TransportCluster::new(config, transport);
    let mut client = cluster.client();
    let results = workload(&mut client);
    (results, span_digest(&cluster))
}

#[test]
fn sim_and_tcp_agree_on_results_and_span_trees() {
    let (sim_results, sim_spans) = run(Transport::Sim);
    let (tcp_results, tcp_spans) = run(Transport::Tcp);

    assert!(!sim_results.is_empty());
    assert!(
        !sim_spans.is_empty(),
        "TraceMode::All must populate the flight recorder"
    );

    assert_eq!(sim_results, tcp_results, "sim vs tcp op results");
    assert_eq!(sim_spans, tcp_spans, "sim vs tcp span trees");
}

#[test]
fn error_codes_survive_the_wire_byte_exactly() {
    let probe = |transport: Transport| {
        let cluster = TransportCluster::new(LocoConfig::with_servers(2), transport);
        let mut c = cluster.client();
        c.mkdir("/d", 0o755).unwrap();
        c.create("/d/f", 0o644).unwrap();
        vec![
            c.mkdir("/d", 0o755).unwrap_err(),
            c.create("/d/f", 0o644).unwrap_err(),
            c.stat_file("/ghost").unwrap_err(),
            c.rmdir("/d").unwrap_err(),
            c.rmdir("/nope").unwrap_err(),
            c.unlink("/d").unwrap_err(),
        ]
    };
    let sim = probe(Transport::Sim);
    assert_eq!(sim, probe(Transport::Tcp));
    assert_eq!(
        sim,
        vec![
            FsError::AlreadyExists,
            FsError::AlreadyExists,
            FsError::NotFound,
            FsError::NotEmpty,
            FsError::NotFound,
            // unlink of a directory: the file lookup on the FMS misses
            // (directories are not f-inodes), so ENOENT, not EISDIR.
            FsError::NotFound,
        ]
    );
}

#[test]
fn mdtest_phases_agree_across_transports() {
    use locofs::baselines::LocoAdapter;
    use locofs::mdtest::{gen_phase, gen_setup, run_latency, run_setup, PhaseKind, TreeSpec};

    let run = |transport: Transport| {
        let mut fs = LocoAdapter::with_transport(LocoConfig::with_servers(2), transport);
        let spec = TreeSpec::new(2, 15);
        run_setup(&mut fs, &gen_setup(&spec)).unwrap();
        let mut digest = Vec::new();
        for kind in [
            PhaseKind::DirCreate,
            PhaseKind::FileCreate,
            PhaseKind::FileStat,
            PhaseKind::Readdir,
            PhaseKind::FileRemove,
            PhaseKind::DirRemove,
        ] {
            for stream in gen_phase(&spec, kind) {
                let r = run_latency(&mut fs, &stream);
                // Virtual latency sums are transport-invariant, so the
                // mean compares exactly, not just approximately.
                digest.push(format!("{} {} {:.3}", kind.label(), r.errors, r.mean_us()));
            }
        }
        digest
    };
    assert_eq!(
        run(Transport::Sim),
        run(Transport::Tcp),
        "sim vs tcp mdtest digest"
    );
}
