//! The traced composition must behave exactly like the plain one: on
//! the same seeded op stream, the decorated cluster and an unmodified
//! `TransportCluster::new(.., Transport::Tcp)` return identical op
//! results and handle identical numbers of requests per role.

use loco_client::LocoClient;
use loco_types::Perm;
use std::path::{Path, PathBuf};
use wallbench::cluster::Cluster;
use wallbench::drive;
use wallbench::plan::{Op, Plan, Workload};
use wallbench::probe::{self, Probe};

/// Ops of the stream compared (after its warm-up).
const OPS: usize = 400;

/// Every op's raw result, rendered with `Debug`.
fn results(c: &mut LocoClient, plan: &Plan) -> Vec<String> {
    let s = &plan.streams[0];
    let p = |i: u32| s.paths.get(i);
    s.ops[s.warmup..s.warmup + OPS]
        .iter()
        .map(|op| match *op {
            Op::Create { path, mode } => format!("{:?}", c.create(p(path), mode)),
            Op::StatFile { path, .. } => format!("{:?}", c.stat_file(p(path))),
            Op::StatDir { path, .. } => format!("{:?}", c.stat_dir(p(path))),
            Op::Readdir { path, .. } => format!("{:?}", c.readdir(p(path))),
            Op::Read { path, .. } => format!(
                "{:?}",
                c.open(p(path), Perm::Read)
                    .and_then(|h| c.read(&h, 0, 4096))
            ),
            Op::CreateWrite { path, content } => format!(
                "{:?}",
                c.create(p(path), 0o644)
                    .and_then(|mut h| c.write(&mut h, 0, &plan.pool[content as usize]).map(|()| h))
            ),
            Op::Chmod { path, mode } => format!("{:?}", c.chmod_file(p(path), mode)),
            Op::Utimens { path, atime, mtime } => {
                format!("{:?}", c.utimens_file(p(path), atime as u64, mtime as u64))
            }
            Op::Unlink { path } => format!("{:?}", c.unlink(p(path))),
            Op::Rename { from, to } => format!("{:?}", c.rename_file(p(from), p(to))),
            Op::Mkdir { path } => format!("{:?}", c.mkdir(p(path), 0o755)),
            Op::Rmdir { path } => format!("{:?}", c.rmdir(p(path))),
        })
        .collect()
}

/// Populate with one client (deterministic uuids), run the compared
/// ops (spans recorded into `probe`, if given), verify the namespace,
/// and return the results plus requests handled per role during the
/// ops and in total.
fn run(plan: &Plan, cluster: Cluster, probe: Option<&Probe>) -> (Vec<String>, [u64; 3], [u64; 3]) {
    let mut clients = vec![cluster.client()];
    drive::populate(plan, &mut clients).expect("set-up");
    let before = cluster.requests_by_role();
    probe.inspect(|p| p.open());
    let out = results(&mut clients[0], plan);
    probe.inspect(|p| p.close());
    let after = cluster.requests_by_role();
    let ns = plan.expected(&[plan.streams[0].warmup + OPS, 0]);
    let v = drive::verify(plan, &ns, &mut clients, true);
    assert_eq!(v.failed, 0, "{:?}", v.errors);
    (out, [0, 1, 2].map(|i| after[i] - before[i]), after)
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("fidelity-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn traced_cluster_matches_plain_cluster() {
    let plan = Plan::new(Workload::DurableMixed, 7, 1.0);
    let policy = plan.workload.sync_policy();

    let plain_root = scratch("plain");
    let (plain, plain_handled, plain_total) = run(&plan, Cluster::plain(&plain_root, policy), None);

    let probe = Probe::new();
    let traced_root = scratch("traced");
    let cluster = Cluster::traced(&traced_root, policy, &probe);
    let (traced, traced_handled, traced_total) = run(&plan, cluster, Some(&probe));
    let rpcs = probe::take_rpcs();

    assert_eq!(plain.len(), OPS);
    for (i, (a, b)) in plain.iter().zip(&traced).enumerate() {
        assert_eq!(a, b, "op {i} differs");
    }
    assert_eq!(
        plain_handled, traced_handled,
        "requests per role (dms, fms, ost)"
    );
    assert_eq!(
        plain_total, traced_total,
        "requests per role including set-up"
    );
    assert!(plain_handled.iter().all(|&n| n > 0), "{plain_handled:?}");
    // The RPC spans the decorator recorded match the servers' counts.
    let spans = [0u8, 1, 2].map(|c| rpcs.iter().filter(|r| r.server.class == c).count() as u64);
    assert_eq!(spans, traced_handled);
    let hs: usize = probe.servers().iter().map(|s| s.handlers().len()).sum();
    assert_eq!(hs as u64, traced_handled.iter().sum::<u64>());

    let _ = std::fs::remove_dir_all(plain_root);
    let _ = std::fs::remove_dir_all(traced_root);
}
