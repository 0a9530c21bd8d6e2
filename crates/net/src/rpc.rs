//! RPC envelopes: what actually travels inside a frame payload.
//!
//! A request frame carries an [`RpcRequest`] — the typed request body
//! plus the caller's optional trace-propagation context, so a sampled
//! slow op decomposes into the same client / net / software / KV terms
//! whether the server is in-process or across a socket. A response
//! frame carries an [`RpcResponse`] — the typed response body, the
//! handler's virtual cost (the `Service::take_cost` contract crosses
//! the wire, keeping visit traces transport-independent), and the
//! [`SpanReply`] attribution for traced calls.
//!
//! `SpanReply` and `TraceCtx` are encoded field-by-field here rather
//! than via `impl Wire` in their home crates, because `loco-obs` must
//! not depend on `loco-types` (orphan rule + layering).

use loco_obs::trace::TraceCtx;
use loco_sim::time::Nanos;
use loco_types::wire::{Wire, WireError, WireResult};
use std::collections::HashSet;
use std::sync::Mutex;

/// Span attribution computed server-side for a traced call: only the
/// server side is generic over the service, so it alone can resolve
/// the request label and read `Service::span_attrs`. Travels back
/// inside the [`RpcResponse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanReply {
    /// The service's `req_label` for the handled request.
    pub op: &'static str,
    /// Real (wall-clock) queue wait before the handler ran.
    pub queue_ns: Nanos,
    /// Numeric attribution from `Service::span_attrs` (kv/software
    /// split, byte volumes).
    pub attrs: Vec<(&'static str, u64)>,
}

// ----- string interning -------------------------------------------------

/// Upper bound on distinct interned strings. The real vocabulary is
/// tiny (op labels + span attr keys, a few dozen); the cap stops a
/// malicious peer from leaking unbounded memory through fresh labels.
const INTERN_CAP: usize = 1024;

/// Label returned once the intern table is full.
const INTERN_OVERFLOW: &str = "?";

/// Intern a decoded label, returning a `&'static str`. Span labels and
/// attr keys are `&'static str` throughout the tracing stack (they are
/// string literals in-process); decoding from the wire reconstructs
/// that via a small leaked, capped table.
pub fn intern(s: &str) -> &'static str {
    static TABLE: Mutex<Option<HashSet<&'static str>>> = Mutex::new(None);
    let mut guard = TABLE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let table = guard.get_or_insert_with(HashSet::new);
    if let Some(hit) = table.get(s) {
        return hit;
    }
    if table.len() >= INTERN_CAP {
        return INTERN_OVERFLOW;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    table.insert(leaked);
    leaked
}

fn put_static_str(s: &str, out: &mut Vec<u8>) {
    (s.len() as u32).put(out);
    out.extend_from_slice(s.as_bytes());
}

fn get_interned_str(buf: &mut &[u8]) -> WireResult<&'static str> {
    let s = String::get(buf)?;
    Ok(intern(&s))
}

impl Wire for SpanReply {
    fn put(&self, out: &mut Vec<u8>) {
        put_static_str(self.op, out);
        self.queue_ns.put(out);
        (self.attrs.len() as u32).put(out);
        for (k, v) in &self.attrs {
            put_static_str(k, out);
            v.put(out);
        }
    }
    fn get(buf: &mut &[u8]) -> WireResult<Self> {
        let op = get_interned_str(buf)?;
        let queue_ns = Nanos::get(buf)?;
        let count = u32::get(buf)? as usize;
        if count > buf.len() {
            return Err(WireError::Oversized {
                what: "span-attrs",
                len: count as u64,
            });
        }
        let mut attrs = Vec::with_capacity(count);
        for _ in 0..count {
            attrs.push((get_interned_str(buf)?, u64::get(buf)?));
        }
        Ok(SpanReply {
            op,
            queue_ns,
            attrs,
        })
    }
}

fn put_trace_ctx(t: &TraceCtx, out: &mut Vec<u8>) {
    t.trace_id.put(out);
    t.span_id.put(out);
    t.parent.put(out);
    t.sampled.put(out);
}

fn get_trace_ctx(buf: &mut &[u8]) -> WireResult<TraceCtx> {
    Ok(TraceCtx {
        trace_id: u64::get(buf)?,
        span_id: u32::get(buf)?,
        parent: u32::get(buf)?,
        sampled: bool::get(buf)?,
    })
}

// ----- request / response envelopes ------------------------------------

/// Client → server payload of a `Request` frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RpcRequest<Req> {
    /// Remaining deadline budget of the caller's operation in
    /// milliseconds, measured when the frame was (re)sent; `0` means
    /// "no deadline". Servers drop the request (without executing it)
    /// once this much time has passed since the frame arrived. Encoded
    /// *first* and fixed-width so the server can read it — and the
    /// body tag behind it — before decoding anything. Adding this
    /// field changed the request codec — frame protocol v3
    /// ([`crate::frame::VERSION`]).
    pub budget_ms: u32,
    /// Trace propagation context of the caller's sampled op, if any —
    /// asks the server to attach a [`SpanReply`].
    pub trace: Option<TraceCtx>,
    /// The typed request.
    pub body: Req,
}

impl<Req: Wire> Wire for RpcRequest<Req> {
    fn put(&self, out: &mut Vec<u8>) {
        self.budget_ms.put(out);
        match &self.trace {
            None => out.push(0),
            Some(t) => {
                out.push(1);
                put_trace_ctx(t, out);
            }
        }
        self.body.put(out);
    }
    fn get(buf: &mut &[u8]) -> WireResult<Self> {
        let budget_ms = u32::get(buf)?;
        let trace = match u8::get(buf)? {
            0 => None,
            1 => Some(get_trace_ctx(buf)?),
            tag => return Err(WireError::BadTag { what: "trace", tag }),
        };
        Ok(RpcRequest {
            budget_ms,
            trace,
            body: Req::get(buf)?,
        })
    }
}

// ----- guard fast-path peeking ------------------------------------------

/// Byte offset of the `budget_ms` field in an encoded [`RpcRequest`].
const REQ_BUDGET_OFF: usize = 0;
/// Byte offset of the trace presence tag in an encoded [`RpcRequest`].
const REQ_TRACE_OFF: usize = 4;
/// Encoded size of a [`TraceCtx`] (u64 + u32 + u32 + bool).
const TRACE_CTX_LEN: usize = 17;

/// Read the `budget_ms` field out of an encoded [`RpcRequest`] payload
/// without decoding it. `None` if the payload is too short to be one.
pub fn peek_budget_ms(payload: &[u8]) -> Option<u32> {
    let b = payload.get(REQ_BUDGET_OFF..REQ_BUDGET_OFF + 4)?;
    Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

/// Overwrite the `budget_ms` field of an already-encoded
/// [`RpcRequest`] payload in place (the client restamps the remaining
/// budget on every retry attempt without re-encoding the body). False
/// if the payload is too short.
pub fn restamp_budget_ms(payload: &mut [u8], budget_ms: u32) -> bool {
    match payload.get_mut(REQ_BUDGET_OFF..REQ_BUDGET_OFF + 4) {
        Some(b) => {
            b.copy_from_slice(&budget_ms.to_le_bytes());
            true
        }
        None => false,
    }
}

/// Read the request-body enum tag out of an encoded [`RpcRequest`]
/// payload without decoding it — the first body byte sits right after
/// the fixed-width budget and the (optional, fixed-width) trace
/// context. `None` when the payload is malformed; the caller falls
/// back to the conservative path (full decode / treat as mutation).
pub fn peek_body_tag(payload: &[u8]) -> Option<u8> {
    let body_off = match *payload.get(REQ_TRACE_OFF)? {
        0 => REQ_TRACE_OFF + 1,
        1 => REQ_TRACE_OFF + 1 + TRACE_CTX_LEN,
        _ => return None,
    };
    payload.get(body_off).copied()
}

// ----- guard reject codes -----------------------------------------------

/// Payload byte of a [`crate::frame::FrameKind::Error`] frame: the
/// request was shed at admission (server past its inflight or
/// queue-depth watermark).
pub const REJECT_OVERLOADED: u8 = 1;
/// Payload byte of a [`crate::frame::FrameKind::Error`] frame: the
/// request's deadline budget expired while it sat in a server queue.
pub const REJECT_EXPIRED: u8 = 2;

/// Replication stamp a replicated service attaches to every reply:
/// the server's fencing epoch, and whether the request was *rejected*
/// because this server is not the primary (fenced or standby). Clients
/// seeing `fenced = true` redial through an updated cluster view
/// instead of retrying the same address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplStamp {
    /// The server's current fencing epoch.
    pub epoch: u64,
    /// The request was rejected for fencing reasons (not primary).
    pub fenced: bool,
}

impl Wire for ReplStamp {
    fn put(&self, out: &mut Vec<u8>) {
        self.epoch.put(out);
        self.fenced.put(out);
    }
    fn get(buf: &mut &[u8]) -> WireResult<Self> {
        Ok(ReplStamp {
            epoch: u64::get(buf)?,
            fenced: bool::get(buf)?,
        })
    }
}

/// Server → client payload of a `Response` frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RpcResponse<Resp> {
    /// Virtual cost of the handler run (`Service::take_cost`).
    pub cost: Nanos,
    /// Span attribution, present iff the request carried a sampled
    /// trace context.
    pub span: Option<SpanReply>,
    /// Replication stamp (`Service::take_repl_stamp`): present on every
    /// reply from a replicated service, absent otherwise. Adding this
    /// field changed the reply codec — frame protocol v2
    /// ([`crate::frame::VERSION`]).
    pub repl: Option<ReplStamp>,
    /// The typed response.
    pub body: Resp,
}

impl<Resp: Wire> Wire for RpcResponse<Resp> {
    fn put(&self, out: &mut Vec<u8>) {
        self.cost.put(out);
        self.span.put(out);
        self.repl.put(out);
        self.body.put(out);
    }
    fn get(buf: &mut &[u8]) -> WireResult<Self> {
        Ok(RpcResponse {
            cost: Nanos::get(buf)?,
            span: Option::<SpanReply>::get(buf)?,
            repl: Option::<ReplStamp>::get(buf)?,
            body: Resp::get(buf)?,
        })
    }
}

// ----- control plane ----------------------------------------------------

/// Out-of-band messages a client (or the launcher) can send on any
/// connection, framed as `FrameKind::Control`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Control {
    /// Liveness probe; the launcher polls this until a daemon is up.
    Ping,
    /// Ask the server for its Prometheus metrics text.
    Metrics,
    /// Ask the server to drain in-flight requests and exit.
    Shutdown,
    /// Ask the server for its folded-stack profile (loco-prof): per-RPC
    /// service time split into software and KV frames, in inferno text.
    Profile,
    /// Ask the server for its metrics time-series window as JSON
    /// (periodic counter deltas + gauge levels; see
    /// `loco_obs::TimeSeriesRing`).
    Series,
    /// Tail the server's structured log ring (loco-log) from `cursor`,
    /// returning at most `max` events as JSON. `cursor = 0` starts at
    /// the oldest retained event; the reply's `next` field is the
    /// cursor for the following call, and its `boot_id` lets a scraper
    /// detect a daemon restart (sequence numbers reset).
    Logs {
        /// First sequence number wanted (inclusive).
        cursor: u64,
        /// Cap on returned events (bounds the reply frame size).
        max: u32,
    },
}

/// Server reply to a [`Control`] message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ControlReply {
    /// Ping answer.
    Pong,
    /// Rendered Prometheus exposition text.
    Metrics(String),
    /// Shutdown acknowledged; the server closes after draining.
    ShuttingDown,
    /// Folded-stack profile text (`stack value` lines).
    Profile(String),
    /// Time-series window JSON; empty object when the daemon was not
    /// started with a series ring.
    Series(String),
    /// Log-tail JSON: `{"boot_id":…,"first":…,"next":…,"dropped":…,
    /// "events":[…]}` (see `loco_log::tail_json`).
    Logs(String),
}

impl Wire for Control {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Control::Ping => out.push(0),
            Control::Metrics => out.push(1),
            Control::Shutdown => out.push(2),
            Control::Profile => out.push(3),
            Control::Series => out.push(4),
            Control::Logs { cursor, max } => {
                out.push(5);
                cursor.put(out);
                max.put(out);
            }
        }
    }
    fn get(buf: &mut &[u8]) -> WireResult<Self> {
        Ok(match u8::get(buf)? {
            0 => Control::Ping,
            1 => Control::Metrics,
            2 => Control::Shutdown,
            3 => Control::Profile,
            4 => Control::Series,
            5 => Control::Logs {
                cursor: u64::get(buf)?,
                max: u32::get(buf)?,
            },
            tag => {
                return Err(WireError::BadTag {
                    what: "control",
                    tag,
                })
            }
        })
    }
}

impl Wire for ControlReply {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            ControlReply::Pong => out.push(0),
            ControlReply::Metrics(text) => {
                out.push(1);
                text.put(out);
            }
            ControlReply::ShuttingDown => out.push(2),
            ControlReply::Profile(text) => {
                out.push(3);
                text.put(out);
            }
            ControlReply::Series(text) => {
                out.push(4);
                text.put(out);
            }
            ControlReply::Logs(text) => {
                out.push(5);
                text.put(out);
            }
        }
    }
    fn get(buf: &mut &[u8]) -> WireResult<Self> {
        Ok(match u8::get(buf)? {
            0 => ControlReply::Pong,
            1 => ControlReply::Metrics(String::get(buf)?),
            2 => ControlReply::ShuttingDown,
            3 => ControlReply::Profile(String::get(buf)?),
            4 => ControlReply::Series(String::get(buf)?),
            5 => ControlReply::Logs(String::get(buf)?),
            tag => {
                return Err(WireError::BadTag {
                    what: "control-reply",
                    tag,
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_stable_and_capped() {
        let a = intern("kv_ns");
        let b = intern("kv_ns");
        assert!(std::ptr::eq(a, b), "same allocation on re-intern");
        assert_eq!(intern("sw_ns"), "sw_ns");
    }

    #[test]
    fn span_reply_roundtrip() {
        let span = SpanReply {
            op: "Mkdir",
            queue_ns: 1234,
            attrs: vec![("kv_ns", 900), ("sw_ns", 100)],
        };
        let back = SpanReply::from_wire(&span.to_wire()).unwrap();
        assert_eq!(back, span);
    }

    #[test]
    fn rpc_request_roundtrip_with_and_without_trace() {
        let req = RpcRequest {
            budget_ms: 1500,
            trace: Some(TraceCtx {
                trace_id: 99,
                span_id: 1,
                parent: 0,
                sampled: true,
            }),
            body: 7u64,
        };
        let back = RpcRequest::<u64>::from_wire(&req.to_wire()).unwrap();
        assert_eq!(back.trace, req.trace);
        assert_eq!(back.budget_ms, 1500);
        assert_eq!(back.body, 7);

        let req = RpcRequest {
            budget_ms: 0,
            trace: None,
            body: 7u64,
        };
        let back = RpcRequest::<u64>::from_wire(&req.to_wire()).unwrap();
        assert!(back.trace.is_none());
        assert_eq!(back.budget_ms, 0);
    }

    #[test]
    fn budget_peek_and_restamp_match_codec() {
        for trace in [
            None,
            Some(TraceCtx {
                trace_id: 1,
                span_id: 2,
                parent: 0,
                sampled: true,
            }),
        ] {
            let mut bytes = RpcRequest {
                budget_ms: 250,
                trace,
                body: 0xABu8, // body tag byte for an enum would sit here
            }
            .to_wire();
            assert_eq!(peek_budget_ms(&bytes), Some(250));
            assert_eq!(peek_body_tag(&bytes), Some(0xAB));
            assert!(restamp_budget_ms(&mut bytes, 75));
            let back = RpcRequest::<u8>::from_wire(&bytes).unwrap();
            assert_eq!(back.budget_ms, 75);
            assert_eq!(back.body, 0xAB);
        }
        // Degenerate payloads peek to None, not panic.
        assert_eq!(peek_budget_ms(&[1, 2]), None);
        assert_eq!(peek_body_tag(&[0, 0, 0, 0]), None);
        assert_eq!(peek_body_tag(&[0, 0, 0, 0, 9]), None);
    }

    #[test]
    fn rpc_response_roundtrip() {
        let resp = RpcResponse {
            cost: 5000,
            span: Some(SpanReply {
                op: "Stat",
                queue_ns: 7,
                attrs: vec![("kv_bytes_read", 72)],
            }),
            repl: Some(ReplStamp {
                epoch: 3,
                fenced: true,
            }),
            body: String::from("ok"),
        };
        let back = RpcResponse::<String>::from_wire(&resp.to_wire()).unwrap();
        assert_eq!(back.cost, 5000);
        assert_eq!(back.span, resp.span);
        assert_eq!(back.repl, resp.repl);
        assert_eq!(back.body, "ok");
    }

    #[test]
    fn control_roundtrip() {
        for c in [
            Control::Ping,
            Control::Metrics,
            Control::Shutdown,
            Control::Profile,
            Control::Series,
            Control::Logs {
                cursor: 987,
                max: 512,
            },
        ] {
            assert_eq!(Control::from_wire(&c.to_wire()), Ok(c));
        }
        for r in [
            ControlReply::Pong,
            ControlReply::Metrics("# HELP x\n".into()),
            ControlReply::ShuttingDown,
            ControlReply::Profile("dms0;Mknod;kv 9\n".into()),
            ControlReply::Series("{\"points\":[]}".into()),
            ControlReply::Logs("{\"events\":[]}".into()),
        ] {
            let back = ControlReply::from_wire(&r.to_wire()).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn corrupt_envelopes_rejected() {
        let resp = RpcResponse {
            cost: 1,
            span: None,
            repl: None,
            body: 9u32,
        };
        let bytes = resp.to_wire();
        for cut in 0..bytes.len() {
            assert!(RpcResponse::<u32>::from_wire(&bytes[..cut]).is_err());
        }
        assert!(Control::from_wire(&[9]).is_err());
    }
}
