//! Wall-clock benchmark of the real LocoFS stack.
//!
//! One process boots a durable in-process TCP cluster (1 DMS on a B+
//! tree, 2 FMS, 1 OST, default `ServeOptions`, the epoll event core with
//! WAL group commit), drives it with a closed loop of two client
//! threads, checks every result against a model, and prints each metric
//! by name and unit.
//!
//! * [`plan`] turns `(workload, seed)` into op streams and the expected
//!   namespace, all before any timing starts;
//! * [`cluster`] builds either the unmodified `TransportCluster` (the
//!   untraced run, which gives the end-to-end numbers) or the same
//!   cluster with a timing decorator on every layer boundary (the traced
//!   run, which gives the per-layer numbers);
//! * [`probe`] holds those decorators and the in-memory span store;
//! * [`drive`] runs the closed loop and verifies the namespace;
//! * [`layers`] folds the spans into per-layer metrics and checks that
//!   the stages add up.
//!
//! Nothing here reads a modeled quantity: no `take_cost`, no visit
//! service time, no modeled-time histogram.

pub mod cluster;
pub mod drive;
pub mod layers;
pub mod plan;
pub mod probe;
pub mod rng;
pub mod stats;
