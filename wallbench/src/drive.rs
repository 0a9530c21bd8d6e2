//! Set-up, the closed measurement loop, and namespace verification.

use crate::plan::{Arena, Entry, Namespace, Op, Plan, BLOCK, DIR_MODE};
use crate::probe::{self, OpSpan, RpcSpan, Window};
use loco_client::LocoClient;
use loco_types::{DirentKind, FsError, FsResult, Perm};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// Benchmark identity every client runs as.
const UID: u32 = 1000;

fn check<T>(
    what: &str,
    path: &str,
    r: FsResult<T>,
    ok: impl FnOnce(&T) -> bool,
) -> Result<(), String>
where
    T: std::fmt::Debug,
{
    match r {
        Ok(v) if ok(&v) => Ok(()),
        Ok(v) => Err(format!("{what} {path}: unexpected {v:?}")),
        Err(e) => Err(format!("{what} {path}: {e:?}")),
    }
}

/// Run one op. Returns the instant the last client call returned (the
/// result checks after it are not timed) and whether the outcome
/// matched the model.
pub fn exec(
    c: &mut LocoClient,
    op: &Op,
    paths: &Arena,
    plan: &Plan,
) -> (Instant, Result<(), String>) {
    let p = |i: u32| paths.get(i);
    match *op {
        Op::Create { path, mode } => {
            let r = c.create(p(path), mode);
            let t = Instant::now();
            (t, check("create", p(path), r, |h| h.size == 0))
        }
        Op::StatFile { path, mode, size } => {
            let r = c.stat_file(p(path));
            let t = Instant::now();
            let ok = |st: &loco_types::meta::FileStat| {
                st.access.mode == mode && st.access.uid == UID && st.content.size == size as u64
            };
            (t, check("stat_file", p(path), r, ok))
        }
        Op::StatDir { path, mode } => {
            let r = c.stat_dir(p(path));
            let t = Instant::now();
            (t, check("stat_dir", p(path), r, |d| d.mode == mode))
        }
        Op::Readdir { path, listing } => {
            let r = c.readdir(p(path));
            let t = Instant::now();
            let want = &plan.listings[listing as usize];
            let ok = |v: &Vec<(String, DirentKind)>| {
                let mut got: Vec<&str> = v.iter().map(|(n, _)| n.as_str()).collect();
                got.sort_unstable();
                got.len() == want.len() && got.iter().zip(want).all(|(a, b)| *a == b)
            };
            (t, check("readdir", p(path), r, ok))
        }
        Op::Read { path, content } => {
            let r = c
                .open(p(path), Perm::Read)
                .and_then(|h| c.read(&h, 0, BLOCK as u64));
            let t = Instant::now();
            let want = &plan.pool[content as usize];
            (
                t,
                check("read", p(path), r.map(|b| b == *want), |same| *same),
            )
        }
        Op::CreateWrite { path, content } => {
            let data = &plan.pool[content as usize];
            let r = c
                .create(p(path), 0o644)
                .and_then(|mut h| c.write(&mut h, 0, data));
            let t = Instant::now();
            (t, check("create+write", p(path), r, |_| true))
        }
        Op::Chmod { path, mode } => {
            let r = c.chmod_file(p(path), mode);
            (Instant::now(), check("chmod", p(path), r, |_| true))
        }
        Op::Utimens { path, atime, mtime } => {
            let r = c.utimens_file(p(path), atime as u64, mtime as u64);
            (Instant::now(), check("utimens", p(path), r, |_| true))
        }
        Op::Unlink { path } => {
            let r = c.unlink(p(path));
            (Instant::now(), check("unlink", p(path), r, |_| true))
        }
        Op::Rename { from, to } => {
            let r = c.rename_file(p(from), p(to));
            (Instant::now(), check("rename_file", p(from), r, |_| true))
        }
        Op::Mkdir { path } => {
            let r = c.mkdir(p(path), DIR_MODE);
            (Instant::now(), check("mkdir", p(path), r, |_| true))
        }
        Op::Rmdir { path } => {
            let r = c.rmdir(p(path));
            (Instant::now(), check("rmdir", p(path), r, |_| true))
        }
    }
}

/// Populate the set-up tree (directories by client 0, files split over
/// the clients), then fill every client's d-cache and run its warm-up
/// ops.
pub fn populate(plan: &Plan, clients: &mut [LocoClient]) -> Result<(), String> {
    for d in &plan.dirs {
        check("mkdir", d, clients[0].mkdir(d, DIR_MODE), |_| true)?;
    }
    let n = clients.len();
    let barrier = Barrier::new(n);
    std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(ci, c)| {
                let barrier = &barrier;
                s.spawn(move || {
                    let files = plan.files.iter().skip(ci).step_by(n).try_for_each(|f| {
                        let r = c.create(&f.path, f.mode).and_then(|mut h| match f.content {
                            Some(k) => c.write(&mut h, 0, &plan.pool[k as usize]),
                            None => Ok(()),
                        });
                        check("populate", &f.path, r, |_| true)
                    });
                    // Every client waits for the whole tree, even after
                    // a failure, so no thread is left at the barrier.
                    barrier.wait();
                    files?;
                    let stream = &plan.streams[ci];
                    for d in &stream.warm_dirs {
                        check("stat_dir", d, c.stat_dir(d), |_| true)?;
                    }
                    for op in &stream.ops[..stream.warmup] {
                        exec(c, op, &stream.paths, plan).1?;
                    }
                    Ok(())
                })
            })
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().expect("set-up thread panicked"))
    })
}

/// One timed op.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Completion, ns since the phase started.
    pub end_ns: u64,
    /// Latency in ns.
    pub lat_ns: u64,
    /// Whether the op only reads.
    pub read: bool,
}

/// What one client did in a measured phase.
#[derive(Default)]
pub struct ClientRun {
    /// Stream position reached (warm-up included).
    pub next: usize,
    /// Every timed op.
    pub samples: Vec<Sample>,
    /// Ops whose outcome did not match the model.
    pub failed: u64,
    /// The first few mismatches.
    pub errors: Vec<String>,
    /// d-cache (hits, misses) during the phase.
    pub cache: (u64, u64),
    /// The stream ran out before the deadline.
    pub exhausted: bool,
    /// Op spans (traced phase only).
    pub ops: Vec<OpSpan>,
    /// RPC spans (traced phase only).
    pub rpcs: Vec<RpcSpan>,
}

/// A measured phase.
pub struct Phase {
    /// One entry per client.
    pub runs: Vec<ClientRun>,
    /// From the common start to the last completion, ns.
    pub elapsed_ns: u64,
}

impl Phase {
    /// Ops timed.
    pub fn ops(&self) -> u64 {
        self.runs.iter().map(|r| r.samples.len() as u64).sum()
    }

    /// Ops that did not match the model.
    pub fn failed(&self) -> u64 {
        self.runs.iter().map(|r| r.failed).sum()
    }

    /// Stream positions reached, per client.
    pub fn executed(&self) -> Vec<usize> {
        self.runs.iter().map(|r| r.next).collect()
    }
}

/// Closed loop: every client issues its next op as soon as the previous
/// one returns, for `seconds` (or until a stream runs out). With a
/// `window`, op and RPC spans are recorded too.
pub fn measure(
    plan: &Plan,
    clients: &mut [LocoClient],
    seconds: f64,
    window: Option<&Window>,
) -> Phase {
    let barrier = Barrier::new(clients.len());
    let start = OnceLock::new();
    let stop = AtomicBool::new(false);
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(ci, c)| {
                let (barrier, start, stop) = (&barrier, &start, &stop);
                s.spawn(move || {
                    let stream = &plan.streams[ci];
                    let mut run = ClientRun {
                        samples: Vec::with_capacity(
                            (stream.ops.len() - stream.warmup).min(1 << 20),
                        ),
                        ..Default::default()
                    };
                    let cache0 = c.cache_stats();
                    barrier.wait();
                    let t_start: Instant = *start.get_or_init(Instant::now);
                    let deadline = t_start + Duration::from_secs_f64(seconds);
                    let mut i = stream.warmup;
                    let mut now = Instant::now();
                    while now < deadline && !stop.load(Relaxed) {
                        let Some(op) = stream.ops.get(i) else {
                            run.exhausted = true;
                            stop.store(true, Relaxed);
                            break;
                        };
                        let id = ((ci as u64) << 40) | i as u64;
                        if window.is_some() {
                            probe::set_op(id);
                        }
                        let t0 = Instant::now();
                        let (t1, res) = exec(c, op, &stream.paths, plan);
                        i += 1;
                        let read = op.is_read();
                        run.samples.push(Sample {
                            end_ns: (t1 - t_start).as_nanos() as u64,
                            lat_ns: (t1 - t0).as_nanos() as u64,
                            read,
                        });
                        if let Err(e) = &res {
                            run.failed += 1;
                            if run.errors.len() < 5 {
                                run.errors.push(e.clone());
                            }
                        }
                        if let Some(w) = window {
                            run.ops.push(OpSpan {
                                op: id,
                                read,
                                start: w.ns(t0),
                                end: w.ns(t1),
                                ok: res.is_ok(),
                            });
                        }
                        now = t1;
                    }
                    run.next = i;
                    let cache1 = c.cache_stats();
                    run.cache = (cache1.0 - cache0.0, cache1.1 - cache0.1);
                    run.rpcs = probe::take_rpcs();
                    run
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed_ns = runs
        .iter()
        .filter_map(|r| r.samples.last().map(|s| s.end_ns))
        .max()
        .unwrap_or(1);
    Phase { runs, elapsed_ns }
}

/// Outcome of a namespace verification.
#[derive(Default)]
pub struct Verdict {
    /// Individual checks made.
    pub checks: u64,
    /// Checks that failed.
    pub failed: u64,
    /// The first few failures.
    pub errors: Vec<String>,
}

impl Verdict {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 10 {
            self.errors.push(msg);
        }
    }

    fn merge(&mut self, other: Verdict) {
        self.checks += other.checks;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 10 {
                self.errors.push(e);
            }
        }
    }
}

fn verify_dir(
    c: &mut LocoClient,
    plan: &Plan,
    dir: &str,
    entries: &std::collections::BTreeMap<String, Entry>,
    content: bool,
    v: &mut Verdict,
) {
    v.checks += 1;
    match c.readdir(dir) {
        Ok(list) => {
            let mut got: Vec<(&str, bool)> = list
                .iter()
                .map(|(n, k)| (n.as_str(), *k == DirentKind::Dir))
                .collect();
            got.sort_unstable();
            let want: Vec<(&str, bool)> = entries
                .iter()
                .map(|(n, e)| (n.as_str(), *e == Entry::Dir))
                .collect();
            if got != want {
                v.fail(format!(
                    "readdir {dir}: {} entries, expected {}",
                    got.len(),
                    want.len()
                ));
            }
        }
        Err(e) => v.fail(format!("readdir {dir}: {e:?}")),
    }
    let files = entries.values().filter(|e| **e != Entry::Dir).count();
    if files == 0 {
        return;
    }
    match c.readdir_plus(dir) {
        Ok(rows) => {
            v.checks += rows.len() as u64;
            if rows.len() != files {
                v.fail(format!(
                    "stat {dir}/*: {} files, expected {files}",
                    rows.len()
                ));
            }
            for (name, st) in rows {
                match entries.get(&name) {
                    Some(Entry::File { mode, size, .. })
                        if st.access.mode == *mode && st.content.size == *size => {}
                    want => v.fail(format!("stat {dir}/{name}: got {st:?}, expected {want:?}")),
                }
            }
        }
        Err(e) => v.fail(format!("stat {dir}/*: {e:?}")),
    }
    if !content {
        return;
    }
    for (name, e) in entries {
        let Entry::File {
            content: Some(k), ..
        } = e
        else {
            continue;
        };
        let path = format!("{dir}/{name}");
        v.checks += 1;
        let r = c
            .open(&path, Perm::Read)
            .and_then(|h| c.read(&h, 0, BLOCK as u64));
        if let Err(msg) = check("read", &path, r, |b| *b == plan.pool[*k as usize]) {
            v.fail(msg);
        }
    }
}

/// Check the cluster holds exactly `ns`: every directory's listing,
/// every file's mode and size (and payload, with `content`), and the
/// absence of everything removed. Work is split over the clients.
pub fn verify(plan: &Plan, ns: &Namespace, clients: &mut [LocoClient], content: bool) -> Verdict {
    let n = clients.len();
    std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(ci, c)| {
                s.spawn(move || {
                    let mut v = Verdict::default();
                    for (dir, entries) in ns.dirs.iter().skip(ci).step_by(n) {
                        verify_dir(c, plan, dir, entries, content, &mut v);
                    }
                    for p in ns.gone_files.iter().skip(ci).step_by(n) {
                        v.checks += 1;
                        match c.stat_file(p) {
                            Err(FsError::NotFound) => {}
                            other => v.fail(format!("removed file {p}: {other:?}")),
                        }
                    }
                    for p in ns.gone_dirs.iter().skip(ci).step_by(n) {
                        v.checks += 1;
                        match c.stat_dir(p) {
                            Err(FsError::NotFound) => {}
                            other => v.fail(format!("removed dir {p}: {other:?}")),
                        }
                    }
                    v
                })
            })
            .collect();
        let mut all = Verdict::default();
        for w in workers {
            all.merge(w.join().expect("verify thread panicked"));
        }
        all
    })
}
