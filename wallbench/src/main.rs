//! `wallbench --workload <create|stat|durable-mixed> --seed N --seconds S --trace <0|1>`
//!
//! Prints progress and provenance on stderr, and as the last line of
//! stdout one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. With `--trace 0` the metrics are the end-to-end ones of
//! an untraced run; with `--trace 1` the per-layer ones of a traced run.

use loco_client::LocoClient;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use wallbench::cluster::{self, Cluster};
use wallbench::drive::{self, Phase, Verdict};
use wallbench::layers;
use wallbench::plan::{Plan, Workload, CLIENTS};
use wallbench::probe::Probe;
use wallbench::stats::{median, metric, peak_rss_mb, E2e, Metric};

/// An untraced run measures on this many fresh clusters, `seconds /
/// SUBRUNS` each, and reports the median of each metric: the host's
/// speed drifts, and a burst of interference then spoils one sub-run
/// rather than the result.
const SUBRUNS: usize = 5;

/// Variables that change what the stack does; the benchmark measures
/// the defaults and refuses to run under any of them.
const GUARDED: [&str; 11] = [
    "LOCO_CLUSTER",
    "LOCO_CLUSTER_FILE",
    "LOCO_TRACE",
    "LOCO_SERVER_CORE",
    "LOCO_GROUP_COMMIT",
    "LOCO_RPC_CONNS",
    "LOCO_GUARD",
    "LOCO_OP_DEADLINE_MS",
    "LOCO_CRASHPOINT",
    "LOCO_IOFAULT",
    "LOCO_PROF",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds: Option<u64> = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

fn env_guard() -> Result<(), String> {
    let set: Vec<&str> = GUARDED
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("refusing to run with {} set", set.join(", ")))
    }
}

/// Removes the run's data directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Populate a freshly booted cluster and warm up its clients.
fn set_up(plan: &Plan, cluster: Cluster) -> Result<(Cluster, Vec<LocoClient>), String> {
    let mut clients: Vec<LocoClient> = (0..CLIENTS).map(|_| cluster.client()).collect();
    drive::populate(plan, &mut clients)?;
    Ok((cluster, clients))
}

/// What a run found wrong, beyond mismatched ops.
#[derive(Default)]
struct Findings {
    failed: u64,
    notes: Vec<String>,
}

impl Findings {
    fn phase(&mut self, what: &str, p: &Phase) {
        self.failed += p.failed();
        for r in &p.runs {
            self.notes
                .extend(r.errors.iter().map(|e| format!("{what}: {e}")));
            if r.exhausted {
                eprintln!(
                    "wallbench: {what}: a client used up its op stream; the phase ended early"
                );
            }
        }
    }

    fn verdict(&mut self, what: &str, v: Verdict) {
        eprintln!(
            "wallbench: {what}: {} checks, {} failed",
            v.checks, v.failed
        );
        self.failed += v.failed;
        self.notes
            .extend(v.errors.into_iter().map(|e| format!("{what}: {e}")));
    }
}

/// Verify the namespace after a phase; for durable workloads, also
/// drain the cluster, cold-reopen it from its data directory and check
/// every acknowledged mutation (payloads included) again.
fn check_after(
    plan: &Plan,
    phase: &Phase,
    cluster: Cluster,
    mut clients: Vec<LocoClient>,
    root: &Path,
    reopen: bool,
    found: &mut Findings,
) {
    let ns = plan.expected(&phase.executed());
    found.verdict("namespace", drive::verify(plan, &ns, &mut clients, false));
    drop(clients);
    drop(cluster);
    if reopen {
        let cluster = Cluster::plain(root, plan.workload.sync_policy());
        let mut clients: Vec<LocoClient> = (0..CLIENTS).map(|_| cluster.client()).collect();
        found.verdict("after reopen", drive::verify(plan, &ns, &mut clients, true));
    }
}

/// One untraced sub-run on a fresh cluster: set-up, `seconds` of
/// closed loop, verification. Returns the set-up time and the phase.
/// The data directory stays until the run ends: deleting it here would
/// put its discard and journal work under the next sub-run's timing.
fn untraced(
    plan: &Plan,
    seconds: f64,
    root: &Path,
    found: &mut Findings,
) -> Result<(f64, Phase), String> {
    let t0 = Instant::now();
    let (cluster, mut clients) = set_up(plan, Cluster::plain(root, plan.workload.sync_policy()))?;
    let setup = t0.elapsed().as_secs_f64();
    let phase = drive::measure(plan, &mut clients, seconds, None);
    found.phase("untraced", &phase);
    let reopen = plan.workload == Workload::DurableMixed;
    check_after(plan, &phase, cluster, clients, root, reopen, found);
    Ok((setup, phase))
}

/// End-to-end metrics: the median over the sub-runs of each.
fn e2e_metrics(runs: &[E2e], setups: Vec<f64>) -> Vec<Metric> {
    let med = |f: &dyn Fn(&E2e) -> f64| median(runs.iter().map(f).collect());
    vec![
        metric("ops_per_s", med(&|e| e.ops_per_s), "1/s"),
        metric("op_p50_us", med(&|e| e.all.p50_us), "us"),
        metric("setup_s", median(setups), "s"),
    ]
}

/// The untraced half of a traced run: the tail, which host interference
/// moves too much to bound, and the read/write split.
fn split_metrics(e: &E2e) -> Vec<Metric> {
    vec![
        metric("mix.op_p99_us", e.all.p99_us, "us"),
        metric("mix.read_p50_us", e.read.p50_us, "us"),
        metric("mix.read_p99_us", e.read.p99_us, "us"),
        metric("mix.write_p50_us", e.write.p50_us, "us"),
        metric("mix.write_p99_us", e.write.p99_us, "us"),
    ]
}

fn describe(e: &E2e, what: &str) {
    eprintln!(
        "wallbench: {what}: {:.0} op/s; p50 {:.1} us, p99 {:.1} us over {} ops \
         (reads {} p50 {:.1} p99 {:.1}; writes {} p50 {:.1} p99 {:.1})",
        e.ops_per_s,
        e.all.p50_us,
        e.all.p99_us,
        e.all.n,
        e.read.n,
        e.read.p50_us,
        e.read.p99_us,
        e.write.n,
        e.write.p50_us,
        e.write.p99_us,
    );
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let policy = args.workload.sync_policy();
    let provenance = format!(
        "source=measured cores={cores} workload={} seed={} seconds={} clients={CLIENTS} loop=closed cluster={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        cluster::shape(policy),
        args.trace as u8
    );
    eprintln!("wallbench: {provenance}");
    // Untraced runs split the time over SUBRUNS phases, traced runs
    // over an untraced and a traced one.
    let slice = args.seconds as f64 / if args.trace { 2.0 } else { SUBRUNS as f64 };
    let plan = Plan::new(args.workload, args.seed, slice);
    let data = PathBuf::from(".bench_data").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let _scratch = Scratch(data.clone());
    let mut found = Findings::default();

    let mut attempted = 0;
    let mut violations = Vec::new();
    let metrics = if !args.trace {
        let (mut runs, mut setups) = (Vec::new(), Vec::new());
        for k in 0..SUBRUNS {
            let (setup, phase) = untraced(&plan, slice, &data.join(format!("u{k}")), &mut found)?;
            let e2e = E2e::of(&phase);
            describe(&e2e, &format!("untraced sub-run {k} (set-up {setup:.3} s)"));
            attempted += phase.ops();
            setups.push(setup);
            runs.push(e2e);
        }
        e2e_metrics(&runs, setups)
    } else {
        let (_, phase) = untraced(&plan, slice, &data.join("u"), &mut found)?;
        let e2e = E2e::of(&phase);
        describe(&e2e, "untraced");
        attempted += phase.ops();
        let probe = Probe::new();
        let root = data.join("traced");
        let (cluster, mut clients) = set_up(&plan, Cluster::traced(&root, policy, &probe))?;
        let retries0 = cluster.retries();
        eprintln!("wallbench: measuring {slice} s traced");
        probe.open();
        let traced = drive::measure(&plan, &mut clients, slice, Some(&probe.window));
        probe.close();
        let retries = cluster.retries() - retries0;
        found.phase("traced", &traced);
        attempted += traced.ops();
        describe(&E2e::of(&traced), "traced");
        let layers = layers::compute(&traced, &probe, e2e.ops_per_s, retries);
        for n in &layers.notes {
            eprintln!("wallbench: stages: {n}");
        }
        let spans = PathBuf::from(".bench_out").join(format!("spans-{}.tsv", args.workload.name()));
        layers::dump(&spans, &provenance, &traced, &probe)
            .map_err(|e| format!("writing {}: {e}", spans.display()))?;
        eprintln!("wallbench: spans written to {}", spans.display());
        check_after(&plan, &traced, cluster, clients, &root, false, &mut found);
        violations = layers.violations;
        let mut m = layers.metrics;
        m.extend(split_metrics(&e2e));
        m.push(metric("proc.peak_rss_mb", peak_rss_mb(), "MiB"));
        m
    };

    for n in &found.notes {
        eprintln!("wallbench: mismatch: {n}");
    }
    for v in &violations {
        eprintln!("wallbench: conservation check failed: {v}");
    }
    let correct = found.failed == 0 && violations.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!("# {provenance}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        found.failed,
        body.join(", ")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args = match parse_args().and_then(|a| env_guard().map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("wallbench: {e}");
            ExitCode::FAILURE
        }
    }
}
