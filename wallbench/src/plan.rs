//! Workloads: op streams, set-up tree and the expected namespace, all
//! generated from `(workload, seed)` before any timing starts.
//!
//! Every client works in a subtree only it mutates, so the generator can
//! simulate the namespace ahead of time and embed each op's expected
//! result in the op itself. After a run, [`Plan::expected`] replays the
//! executed prefix of every stream to get the namespace the cluster must
//! hold.

use crate::rng::Rng;
use loco_kv::SyncPolicy;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Closed-loop client threads.
pub const CLIENTS: usize = 2;
/// Size of one data payload.
pub const BLOCK: usize = 4096;
/// Distinct payloads a seed generates.
const POOL: usize = 64;
/// Mode every created file starts with.
const FILE_MODE: u32 = 0o644;
/// Mode of every directory.
pub const DIR_MODE: u32 = 0o755;
/// File modes the generator picks from; the owner can always read and
/// write, so later checks may open any file.
const MODES: [u32; 5] = [0o600, 0o640, 0o644, 0o660, 0o664];

/// The three traffic mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Zero-byte creates into private directories, WAL sync os-managed.
    Create,
    /// Read-only stats over a shared tree, WAL sync os-managed.
    Stat,
    /// 60 % reads / 40 % writes, WAL fsync on every commit group with
    /// group commit.
    DurableMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Create, Workload::Stat, Workload::DurableMixed];

    /// Parse a `--workload` value.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Create => "create",
            Workload::Stat => "stat",
            Workload::DurableMixed => "durable-mixed",
        }
    }

    /// WAL sync policy of the cluster the workload runs on.
    pub fn sync_policy(self) -> SyncPolicy {
        match self {
            Workload::DurableMixed => SyncPolicy::EveryRecord,
            _ => SyncPolicy::OsManaged,
        }
    }

    /// Ops one client may issue per second at most; streams are sized
    /// from it (several times the rate observed on a 2-core VM). A client
    /// that runs out ends the measured phase early.
    fn max_rate(self) -> usize {
        match self {
            Workload::Create => 50_000,
            Workload::Stat => 100_000,
            Workload::DurableMixed => 15_000,
        }
    }

    /// Ops per client run before timing starts (part of set-up).
    fn warmup(self) -> usize {
        match self {
            Workload::Create | Workload::Stat => 2_000,
            Workload::DurableMixed => 300,
        }
    }
}

/// Paths packed into one buffer (one allocation per stream, not per op).
#[derive(Default)]
pub struct Arena {
    buf: String,
    ends: Vec<u32>,
}

impl Arena {
    /// Append a formatted path; returns its index.
    pub fn push(&mut self, args: std::fmt::Arguments) -> u32 {
        self.buf.write_fmt(args).expect("writing to a String");
        let end = u32::try_from(self.buf.len()).expect("path arena under 4 GiB");
        self.ends.push(end);
        (self.ends.len() - 1) as u32
    }

    /// The path at `i`.
    pub fn get(&self, i: u32) -> &str {
        let i = i as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.buf[start..self.ends[i] as usize]
    }
}

/// One client operation with its expected outcome. Paths are indices
/// into the client's [`Arena`]; `content` indexes [`Plan::pool`].
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// `create` of a zero-byte file.
    Create { path: u32, mode: u32 },
    /// `stat_file`; expects `mode` and `size`.
    StatFile { path: u32, mode: u32, size: u32 },
    /// `stat_dir`; expects `mode`.
    StatDir { path: u32, mode: u32 },
    /// `readdir` of a shared directory; expects `Plan::listings[listing]`.
    Readdir { path: u32, listing: u32 },
    /// `open` + 4 KiB `read`; expects the payload `content`.
    Read { path: u32, content: u32 },
    /// `create` + 4 KiB `write` of payload `content`.
    CreateWrite { path: u32, content: u32 },
    /// `chmod_file`.
    Chmod { path: u32, mode: u32 },
    /// `utimens_file`.
    Utimens { path: u32, atime: u32, mtime: u32 },
    /// `unlink`.
    Unlink { path: u32 },
    /// Cross-directory `rename_file`.
    Rename { from: u32, to: u32 },
    /// `mkdir` of an empty directory.
    Mkdir { path: u32 },
    /// `rmdir` of an empty directory.
    Rmdir { path: u32 },
}

impl Op {
    /// Whether the op only reads.
    pub fn is_read(&self) -> bool {
        matches!(
            self,
            Op::StatFile { .. } | Op::StatDir { .. } | Op::Readdir { .. } | Op::Read { .. }
        )
    }
}

/// A file the set-up creates.
pub struct SetupFile {
    /// Absolute path.
    pub path: String,
    /// Mode it is created with.
    pub mode: u32,
    /// Payload written into it, if any.
    pub content: Option<u32>,
}

/// One client's inputs.
pub struct Stream {
    /// Every path the ops name.
    pub paths: Arena,
    /// Directories to `stat_dir` before the warm-up (fills the d-cache).
    pub warm_dirs: Vec<String>,
    /// Ops; the first `warmup` run during set-up, the rest are timed.
    pub ops: Vec<Op>,
    /// Warm-up length.
    pub warmup: usize,
}

/// Everything a run needs, derived from `(workload, seed, seconds)`.
pub struct Plan {
    /// Which mix.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Directories made during set-up, parents first.
    pub dirs: Vec<String>,
    /// Files made during set-up.
    pub files: Vec<SetupFile>,
    /// Sorted file names of each shared directory `Readdir` lists.
    pub listings: Vec<Vec<String>>,
    /// 4 KiB payloads.
    pub pool: Vec<Vec<u8>>,
    /// One stream per client.
    pub streams: Vec<Stream>,
}

/// Expected state of one directory entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Entry {
    /// A subdirectory.
    Dir,
    /// A file.
    File {
        /// Permission bits.
        mode: u32,
        /// Size in bytes.
        size: u64,
        /// Payload, when one was written.
        content: Option<u32>,
    },
}

/// The namespace a cluster must hold after a run.
#[derive(Default)]
pub struct Namespace {
    /// Every directory (including `/`) with its entries by name.
    pub dirs: BTreeMap<String, BTreeMap<String, Entry>>,
    /// Files that were removed or renamed away.
    pub gone_files: Vec<String>,
    /// Directories that were removed.
    pub gone_dirs: Vec<String>,
}

fn split(path: &str) -> (&str, &str) {
    let (parent, name) = path.rsplit_once('/').expect("absolute path");
    (if parent.is_empty() { "/" } else { parent }, name)
}

impl Namespace {
    fn mkdir(&mut self, path: &str) {
        let (parent, name) = split(path);
        self.dirs
            .get_mut(parent)
            .expect("parent exists")
            .insert(name.to_string(), Entry::Dir);
        self.dirs.insert(path.to_string(), BTreeMap::new());
    }

    fn put(&mut self, path: &str, entry: Entry) {
        let (parent, name) = split(path);
        self.dirs
            .get_mut(parent)
            .expect("parent exists")
            .insert(name.to_string(), entry);
    }

    fn take(&mut self, path: &str) -> Entry {
        let (parent, name) = split(path);
        self.dirs
            .get_mut(parent)
            .and_then(|d| d.remove(name))
            .expect("entry exists")
    }

    fn apply(&mut self, op: &Op, paths: &Arena) {
        match *op {
            Op::Create { path, mode } => self.put(
                paths.get(path),
                Entry::File {
                    mode,
                    size: 0,
                    content: None,
                },
            ),
            Op::CreateWrite { path, content } => self.put(
                paths.get(path),
                Entry::File {
                    mode: FILE_MODE,
                    size: BLOCK as u64,
                    content: Some(content),
                },
            ),
            Op::Chmod { path, mode: m } => {
                let p = paths.get(path);
                let (parent, name) = split(p);
                if let Some(Entry::File { mode, .. }) =
                    self.dirs.get_mut(parent).and_then(|d| d.get_mut(name))
                {
                    *mode = m;
                }
            }
            Op::Unlink { path } => {
                self.take(paths.get(path));
                self.gone_files.push(paths.get(path).to_string());
            }
            Op::Rename { from, to } => {
                let e = self.take(paths.get(from));
                self.put(paths.get(to), e);
                self.gone_files.push(paths.get(from).to_string());
            }
            Op::Mkdir { path } => self.mkdir(paths.get(path)),
            Op::Rmdir { path } => {
                let p = paths.get(path);
                self.take(p);
                self.dirs.remove(p);
                self.gone_dirs.push(p.to_string());
            }
            Op::StatFile { .. }
            | Op::StatDir { .. }
            | Op::Readdir { .. }
            | Op::Read { .. }
            | Op::Utimens { .. } => {}
        }
    }
}

impl Plan {
    /// Generate the inputs of a run whose phases last `seconds`.
    pub fn new(workload: Workload, seed: u64, seconds: f64) -> Self {
        let mut rng = Rng::new(seed, 0x9000);
        let pool = (0..POOL)
            .map(|_| {
                let mut v = Vec::with_capacity(BLOCK);
                while v.len() < BLOCK {
                    v.extend_from_slice(&rng.next_u64().to_le_bytes());
                }
                v
            })
            .collect();
        let cap = workload.warmup() + (workload.max_rate() as f64 * seconds).ceil() as usize;
        let mut plan = Plan {
            workload,
            seed,
            dirs: Vec::new(),
            files: Vec::new(),
            listings: Vec::new(),
            pool,
            streams: Vec::new(),
        };
        match workload {
            Workload::Create => plan.gen_create(cap),
            Workload::Stat => plan.gen_stat(cap),
            Workload::DurableMixed => plan.gen_mixed(cap),
        }
        plan
    }

    /// mdtest-style: each client creates uniquely named empty files
    /// spread over 16 private directories.
    fn gen_create(&mut self, cap: usize) {
        const DIRS: u64 = 16;
        for c in 0..CLIENTS {
            let mut rng = Rng::new(self.seed, 0x100 + c as u64);
            self.dirs.push(format!("/c{c}"));
            let warm_dirs: Vec<String> = (0..DIRS).map(|j| format!("/c{c}/d{j}")).collect();
            self.dirs.extend(warm_dirs.iter().cloned());
            let mut paths = Arena::default();
            let tag = self.seed % 0x10000;
            let ops = (0..cap)
                .map(|k| {
                    let j = rng.below(DIRS);
                    let path = paths.push(format_args!("/c{c}/d{j}/f{tag:x}.{k}"));
                    Op::Create {
                        path,
                        mode: FILE_MODE,
                    }
                })
                .collect();
            self.streams.push(Stream {
                paths,
                warm_dirs,
                ops,
                warmup: self.workload.warmup(),
            });
        }
    }

    /// Stats over a shared tree of 128 directories × 64 files, 90 %
    /// `stat_file`, 10 % `stat_dir`.
    fn gen_stat(&mut self, cap: usize) {
        const DIRS: usize = 128;
        const FILES: usize = 64;
        let mut rng = Rng::new(self.seed, 0x200);
        self.dirs.push("/s".to_string());
        let dirs: Vec<String> = (0..DIRS).map(|j| format!("/s/d{j}")).collect();
        self.dirs.extend(dirs.iter().cloned());
        for d in &dirs {
            for k in 0..FILES {
                self.files.push(SetupFile {
                    path: format!("{d}/f{k}"),
                    mode: MODES[rng.index(MODES.len())],
                    content: None,
                });
            }
        }
        for c in 0..CLIENTS {
            let mut rng = Rng::new(self.seed, 0x210 + c as u64);
            let mut paths = Arena::default();
            for d in &dirs {
                paths.push(format_args!("{d}"));
            }
            for f in &self.files {
                paths.push(format_args!("{}", f.path));
            }
            let ops = (0..cap)
                .map(|_| {
                    if rng.below(10) == 0 {
                        Op::StatDir {
                            path: rng.index(DIRS) as u32,
                            mode: DIR_MODE,
                        }
                    } else {
                        let i = rng.index(self.files.len());
                        Op::StatFile {
                            path: (DIRS + i) as u32,
                            mode: self.files[i].mode,
                            size: 0,
                        }
                    }
                })
                .collect();
            self.streams.push(Stream {
                paths,
                warm_dirs: dirs.clone(),
                ops,
                warmup: self.workload.warmup(),
            });
        }
    }

    /// Small-file DL-pipeline pattern: reads of a shared region plus
    /// writes in a private subtree.
    fn gen_mixed(&mut self, cap: usize) {
        const SHARED_DIRS: usize = 8;
        const SHARED_FILES: usize = 32;
        const OWN_DIRS: u64 = 8;
        self.dirs.push("/m".to_string());
        self.dirs.push("/m/shared".to_string());
        let shared_dirs: Vec<String> = (0..SHARED_DIRS)
            .map(|j| format!("/m/shared/d{j}"))
            .collect();
        self.dirs.extend(shared_dirs.iter().cloned());
        for (j, d) in shared_dirs.iter().enumerate() {
            let mut names = Vec::new();
            for k in 0..SHARED_FILES {
                names.push(format!("s{k}"));
                self.files.push(SetupFile {
                    path: format!("{d}/s{k}"),
                    mode: FILE_MODE,
                    content: Some(((j * SHARED_FILES + k) % POOL) as u32),
                });
            }
            names.sort();
            self.listings.push(names);
        }
        for c in 0..CLIENTS {
            self.dirs.push(format!("/m/c{c}"));
            let own_dirs: Vec<String> = (0..OWN_DIRS).map(|j| format!("/m/c{c}/p{j}")).collect();
            self.dirs.extend(own_dirs.iter().cloned());
            let mut rng = Rng::new(self.seed, 0x300 + c as u64);
            let mut paths = Arena::default();
            for d in &shared_dirs {
                paths.push(format_args!("{d}"));
            }
            for f in &self.files {
                paths.push(format_args!("{}", f.path));
            }
            let shared_files = self.files.len();
            // Generator-side model of the private subtree.
            struct Own {
                path: u32,
                dir: u64,
                mode: u32,
            }
            let mut live: Vec<Own> = Vec::new();
            let mut empty: Vec<u32> = Vec::new();
            let mut next = 0u64;
            let mut ops = Vec::with_capacity(cap);
            while ops.len() < cap {
                let roll = rng.below(100);
                let op = match roll {
                    0..=19 => {
                        let i = rng.index(shared_files);
                        Op::StatFile {
                            path: (SHARED_DIRS + i) as u32,
                            mode: FILE_MODE,
                            size: BLOCK as u32,
                        }
                    }
                    20..=29 if !live.is_empty() => {
                        let f = &live[rng.index(live.len())];
                        Op::StatFile {
                            path: f.path,
                            mode: f.mode,
                            size: BLOCK as u32,
                        }
                    }
                    30..=39 => {
                        let j = rng.index(SHARED_DIRS);
                        Op::Readdir {
                            path: j as u32,
                            listing: j as u32,
                        }
                    }
                    40..=59 => {
                        let i = rng.index(shared_files);
                        Op::Read {
                            path: (SHARED_DIRS + i) as u32,
                            content: self.files[i].content.expect("shared files hold data"),
                        }
                    }
                    60..=65 if !live.is_empty() => {
                        let i = rng.index(live.len());
                        let mode = MODES[rng.index(MODES.len())];
                        live[i].mode = mode;
                        Op::Chmod {
                            path: live[i].path,
                            mode,
                        }
                    }
                    66..=69 if !live.is_empty() => Op::Utimens {
                        path: live[rng.index(live.len())].path,
                        atime: rng.next_u64() as u32,
                        mtime: rng.next_u64() as u32,
                    },
                    70..=74 if !live.is_empty() => {
                        let f = live.swap_remove(rng.index(live.len()));
                        Op::Unlink { path: f.path }
                    }
                    75..=80 if !live.is_empty() => {
                        let i = rng.index(live.len());
                        let dir = (live[i].dir + 1 + rng.below(OWN_DIRS - 1)) % OWN_DIRS;
                        next += 1;
                        let to = paths.push(format_args!("/m/c{c}/p{dir}/f{next}"));
                        let from = std::mem::replace(&mut live[i].path, to);
                        live[i].dir = dir;
                        Op::Rename { from, to }
                    }
                    81..=82 if !empty.is_empty() => Op::Rmdir {
                        path: empty.swap_remove(rng.index(empty.len())),
                    },
                    83..=85 => {
                        next += 1;
                        let path = paths.push(format_args!("/m/c{c}/e{next}"));
                        empty.push(path);
                        Op::Mkdir { path }
                    }
                    _ => {
                        let dir = rng.below(OWN_DIRS);
                        next += 1;
                        let path = paths.push(format_args!("/m/c{c}/p{dir}/f{next}"));
                        live.push(Own {
                            path,
                            dir,
                            mode: FILE_MODE,
                        });
                        Op::CreateWrite {
                            path,
                            content: rng.index(POOL) as u32,
                        }
                    }
                };
                ops.push(op);
            }
            let mut warm_dirs = shared_dirs.clone();
            warm_dirs.extend(own_dirs);
            self.streams.push(Stream {
                paths,
                warm_dirs,
                ops,
                warmup: self.workload.warmup(),
            });
        }
    }

    /// The namespace after set-up plus the first `executed[c]` ops of
    /// every client's stream.
    pub fn expected(&self, executed: &[usize]) -> Namespace {
        let mut ns = Namespace::default();
        ns.dirs.insert("/".to_string(), BTreeMap::new());
        for d in &self.dirs {
            ns.mkdir(d);
        }
        for f in &self.files {
            ns.put(
                &f.path,
                Entry::File {
                    mode: f.mode,
                    size: if f.content.is_some() { BLOCK as u64 } else { 0 },
                    content: f.content,
                },
            );
        }
        for (s, &n) in self.streams.iter().zip(executed) {
            for op in &s.ops[..n] {
                ns.apply(op, &s.paths);
            }
        }
        ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = Plan::new(Workload::DurableMixed, 3, 1.0);
        let b = Plan::new(Workload::DurableMixed, 3, 1.0);
        let c = Plan::new(Workload::DurableMixed, 4, 1.0);
        let dump = |p: &Plan| format!("{:?}", &p.streams[1].ops[..200]);
        assert_eq!(dump(&a), dump(&b));
        assert_ne!(dump(&a), dump(&c));
    }

    #[test]
    fn mixed_stream_replays_into_a_consistent_namespace() {
        let p = Plan::new(Workload::DurableMixed, 11, 1.0);
        let n = p.streams[0].ops.len();
        let ns = p.expected(&[n, n]);
        assert!(ns.dirs.contains_key("/m/c0/p0"));
        assert!(!ns.gone_files.is_empty() && !ns.gone_dirs.is_empty());
        let reads = p.streams[0].ops.iter().filter(|o| o.is_read()).count();
        let share = reads as f64 / n as f64;
        assert!((0.55..0.65).contains(&share), "read share {share}");
    }
}
