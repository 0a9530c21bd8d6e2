//! # locofs — a loosely-coupled metadata service for distributed file systems
//!
//! A from-scratch Rust reproduction of *LocoFS* (Li, Lu, Shu, Li, Hu —
//! SC'17, DOI 10.1145/3126908.3126928): a distributed file system whose
//! metadata service decouples the directory tree so that it maps
//! efficiently onto key-value stores.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`client`] — `LocoCluster` / `LocoClient` (LocoLib), the main entry
//!   point: build a cluster, get a client, run filesystem operations;
//! * [`types`] — metadata types (inodes, dirents, uuids, paths, the
//!   Table 1 op matrix);
//! * [`kv`] — the key-value substrates (hash DB, B+ tree, LSM) plus
//!   the WAL + checkpoint [`kv::DurableStore`] the daemons persist to;
//! * [`faults`] — deterministic crash-point / I/O fault injection
//!   (env-armed, zero-cost when off) used by the crash-recovery tests;
//! * [`dms`] / [`fms`] / [`ostore`] — the three server roles;
//! * [`net`] — the RPC layer (simulated + TCP endpoints);
//! * [`obs`] — the observability substrate: metrics registry,
//!   log-bucketed latency histograms, Prometheus + Chrome-trace export;
//! * [`log`] — structured trace-correlated logging (per-daemon ring,
//!   `Logs` control frame); [`collect`] is its cluster-side collector
//!   and post-run timeline report generator;
//! * [`sim`] — virtual time, cost models, the closed-loop simulator;
//! * [`baselines`] — behavioural models of IndexFS, CephFS, Gluster and
//!   Lustre used by the benchmark harness;
//! * [`mdtest`] — the mdtest-style workload generator and drivers.
//!
//! ## Quick start
//!
//! ```
//! use locofs::client::{LocoCluster, LocoConfig};
//!
//! let cluster = LocoCluster::new(LocoConfig::with_servers(4));
//! let mut fs = cluster.client();
//! fs.mkdir("/data", 0o755).unwrap();
//! let mut fh = fs.create("/data/hello.txt", 0o644).unwrap();
//! fs.write(&mut fh, 0, b"hello, loco").unwrap();
//! assert_eq!(fs.read(&fh, 0, 11).unwrap(), b"hello, loco");
//!
//! // Every operation leaves a replayable trace with its round trips.
//! let trace = fs.take_trace();
//! assert!(trace.visits.len() >= 1);
//! ```
//!
//! See `README.md` for the architecture overview, `DESIGN.md` for the
//! system inventory, and `EXPERIMENTS.md` for the paper-reproduction
//! index.

pub mod collect;

pub use loco_baselines as baselines;
pub use loco_client as client;
pub use loco_dms as dms;
pub use loco_faults as faults;
pub use loco_fms as fms;
pub use loco_kv as kv;
pub use loco_log as log;
pub use loco_mdtest as mdtest;
pub use loco_net as net;
pub use loco_obs as obs;
pub use loco_ostore as ostore;
pub use loco_posix as posix;
pub use loco_repl as repl;
pub use loco_sim as sim;
pub use loco_types as types;
