#![warn(missing_docs)]
//! # loco-net — RPC layer between LocoFS clients and metadata servers
//!
//! The paper's analysis (§2.2.1) shows that metadata performance is
//! governed by how many network round trips an operation needs, not by
//! bandwidth. This crate therefore models an RPC as:
//!
//! ```text
//! latency(op) = Σ_visits (RTT + queueing + service)
//! ```
//!
//! A server is a [`Service`]: a request handler that also reports the
//! virtual cost of the work it just did (drained from its KV stores'
//! cost accumulators). Two endpoint flavours expose a service to
//! clients:
//!
//! * [`SimEndpoint`] — executes the handler synchronously in the calling
//!   thread and records a [`Visit`] into the caller's [`CallCtx`]. This
//!   is the *execute-then-replay* path used by every benchmark: the
//!   recorded [`JobTrace`] is either summed for unloaded latency or fed
//!   to `loco-sim`'s closed-loop simulator for throughput.
//! * [`TcpEndpoint`] — speaks the framed wire protocol ([`frame`],
//!   [`rpc`]) to a server hosted by [`serve_tcp`] — in this process on
//!   a loopback port, or in a `locod` daemon — over pooled connections
//!   that each carry one call at a time, with per-call deadlines and
//!   retry with backoff. This is the real-concurrency path.
//!
//! Both flavours produce identical visit traces for identical request
//! sequences, which the integration tests verify. Either flavour can
//! carry [`EndpointMetrics`] — per-server request counts, service-time
//! and queue-wait histograms and an in-flight gauge, reported into a
//! shared [`loco_obs::MetricsRegistry`] — and [`trace_export`] renders
//! recorded traces as Chrome trace-event timelines.

pub mod endpoint;
mod event_loop;
pub mod frame;
pub mod metrics;
pub mod poller;
pub mod rpc;
pub mod tcp;
pub mod trace_export;

pub use endpoint::{
    CallCtx, CommitFsync, Endpoint, MaintainReport, RpcError, Service, SimEndpoint,
};
pub use metrics::{role_name, EndpointMetrics, ServerMetrics};
pub use poller::{Interest, Poller, PollerEvent};
pub use rpc::{
    Control, ControlReply, ReplStamp, RpcRequest, RpcResponse, SpanReply, REJECT_EXPIRED,
    REJECT_OVERLOADED,
};
pub use tcp::{
    control, serve_tcp, serve_tcp_shared, RetryPolicy, ServeOptions, TcpEndpoint, TcpServerGuard,
};
pub use trace_export::{chrome_trace_of_ops, op_spans};

pub use loco_obs::trace::{OpTrace, TraceCtx, VisitSpan};
pub use loco_sim::des::{JobTrace, ServerId, Visit};
pub use loco_sim::time::Nanos;

/// Server-role classes used across the workspace for [`ServerId::class`].
pub mod class {
    /// Directory Metadata Server.
    pub const DMS: u8 = 0;
    /// File Metadata Server.
    pub const FMS: u8 = 1;
    /// Object store server.
    pub const OST: u8 = 2;
    /// Generic metadata server used by baseline models.
    pub const MDS: u8 = 3;
}
