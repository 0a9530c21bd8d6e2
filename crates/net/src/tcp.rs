//! The real-socket transport: [`TcpEndpoint`] and [`serve_tcp`].
//!
//! This is the second [`Endpoint`] flavour — after the in-process
//! [`SimEndpoint`](crate::SimEndpoint) — and the one that can cross
//! machine boundaries, which is the deployment shape LocoFS's
//! loosely-coupled DMS/FMS split exists for (§3.1).
//!
//! Design:
//!
//! * **Connection pool, one call per connection.** A call takes an idle
//!   connection from the endpoint's pool (or dials one), writes its
//!   request frame, and reads exactly one reply frame back on its own
//!   thread — no reader thread, no hand-off. The reply must echo the
//!   call's `req_id`. Only a complete exchange returns the connection
//!   to the pool, so the pool holds at most the peak number of
//!   concurrent calls, and a late reply can never reach a later call.
//!   A caller gets back the connection it returned last; only when it
//!   has none idle does it take another caller's. The server pins each
//!   connection to one worker thread for its whole life, so this keeps
//!   a client thread talking to the same worker instead of waking a
//!   different one whenever callers interleave.
//! * **Deadlines.** Every attempt waits at most
//!   [`RetryPolicy::deadline`] for its *whole* reply: each `read(2)` is
//!   bounded by the time left, so a server that trickles bytes cannot
//!   stretch it. A fired deadline drops the connection and counts as a
//!   failed attempt.
//! * **Retry with exponential backoff + jitter.** Failed attempts are
//!   retried up to [`RetryPolicy::attempts`] times, sleeping
//!   `backoff * 2^attempt ± jitter` in between. Exhaustion surfaces
//!   [`RpcError::Exhausted`], which the LocoFS client maps to `EIO` —
//!   the same contract as the failure-injected in-process paths.
//! * **Costs stay virtual.** The server returns `Service::take_cost`
//!   inside each [`RpcResponse`], so visit traces — and everything
//!   replayed from them — are identical across transports. Wall-clock
//!   only enters through the observability side channel (queue waits,
//!   metrics).
//!
//! The server half, [`serve_tcp`], hosts one [`Service`] on a
//! listening socket via the event-driven core (`event_loop.rs`): one
//! acceptor plus a fixed set of worker readiness loops (non-blocking
//! reads, incremental frame assembly, buffered writes with
//! backpressure, pipelined requests per connection), and — for
//! durable services — a group-commit thread that batches WAL fsyncs
//! across connections while preserving WAL-before-ack. Handlers run
//! under the service mutex (LocoFS servers are single-writer by
//! design). Graceful shutdown — via
//! [`TcpServerGuard::shutdown`] or a [`Control::Shutdown`] frame —
//! stops accepting, lets every in-flight request finish and its
//! response flush, then closes. A corrupt frame closes only the
//! offending connection; the client sees the drop and retries.

use crate::endpoint::{CallCtx, Endpoint, MaintainReport, RpcError, Service};
use crate::frame::{read_frame, write_frame, Frame, FrameKind, MAX_PAYLOAD};
use crate::metrics::EndpointMetrics;
use crate::rpc::{
    restamp_budget_ms, Control, ControlReply, RpcRequest, RpcResponse, REJECT_EXPIRED,
    REJECT_OVERLOADED,
};
use loco_obs::MetricsRegistry;
use loco_sim::des::ServerId;
use loco_types::wire::Wire;
use std::io::ErrorKind::{Interrupted, InvalidData, TimedOut, UnexpectedEof, WouldBlock};
use std::io::{self, BufReader, Read};
use std::marker::PhantomData;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{JoinHandle, ThreadId};
use std::time::{Duration, Instant};

pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Deadline/retry knobs for a [`TcpEndpoint`].
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts per call (first try + retries).
    pub attempts: u32,
    /// Base backoff before the second attempt; doubles per retry.
    pub backoff: Duration,
    /// Per-attempt response deadline.
    pub deadline: Duration,
    /// Per-attempt connection-establishment timeout.
    pub connect_timeout: Duration,
    /// After the normal attempts are exhausted on a *connection-class*
    /// failure (refused, lost, timed out — the signature of a daemon
    /// restart), keep redialing for up to this long before surfacing
    /// [`RpcError::Exhausted`]. `ZERO` (the default) disables the
    /// window, preserving fast-fail semantics for fault tests.
    pub reconnect_window: Duration,
    /// Retry-budget token bucket capacity, in retries (loco-guard).
    /// The bucket starts full; each retry attempt withdraws one token
    /// and each success deposits a tenth of one (capping the sustained
    /// retry ratio near 10% — the knob that turns a brownout's retry
    /// storm back into load the server can shed). `0` disables the
    /// budget (unbounded retries, the pre-guard behaviour).
    pub retry_budget: u32,
    /// Consecutive call exhaustions that trip the per-address circuit
    /// breaker into fail-fast. `0` disables the breaker.
    pub breaker_threshold: u32,
    /// How long a tripped breaker stays open before it half-opens and
    /// lets one probe call through.
    pub breaker_cooldown: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 3,
            backoff: Duration::from_millis(20),
            deadline: Duration::from_millis(2000),
            connect_timeout: Duration::from_millis(1000),
            reconnect_window: Duration::ZERO,
            retry_budget: 10,
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(500),
        }
    }
}

impl RetryPolicy {
    /// The defaults, with two environment overrides:
    /// `LOCO_RPC_RECONNECT_MS` widens the reconnect window (the chaos
    /// harness rides out a daemon restart with it), and
    /// `LOCO_GUARD=off` zeroes the retry budget and the breaker (the
    /// baseline arm of the overload bench).
    pub fn from_env() -> Self {
        let mut p = Self::default();
        if let Some(ms) = std::env::var("LOCO_RPC_RECONNECT_MS")
            .ok()
            .and_then(|v| v.trim().parse().ok())
        {
            p.reconnect_window = Duration::from_millis(ms);
        }
        if !crate::event_loop::guard_enabled() {
            p.retry_budget = 0;
            p.breaker_threshold = 0;
        }
        p
    }
}

/// Encode a remaining deadline budget as the wire's `budget_ms` field:
/// `0` means "no deadline", so a positive-but-sub-millisecond
/// remainder rounds up to 1 rather than losing the deadline.
fn budget_ms(rem: Option<Duration>) -> u32 {
    match rem {
        None => 0,
        Some(d) => (d.as_millis() as u64).clamp(1, u32::MAX as u64) as u32,
    }
}

/// Deterministic backoff jitter: xorshift of the attempt's request id,
/// scaled to at most half the current backoff. Keeps retry storms from
/// synchronizing without pulling in a real RNG.
fn jitter(seed: u64, backoff: Duration) -> Duration {
    let mut x = seed | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    let half = backoff.as_micros() as u64 / 2;
    if half == 0 {
        return Duration::ZERO;
    }
    Duration::from_micros(x % half)
}

// ----- client side ------------------------------------------------------

/// Milli-tokens one retry withdraws from the budget bucket.
const RETRY_TOKEN_MILLI: u64 = 1000;
/// Milli-tokens one success deposits (1/10 of a retry — the ~10%
/// sustained retry-ratio cap).
const SUCCESS_REFILL_MILLI: u64 = 100;

/// Per-address circuit breaker state.
#[derive(Clone, Copy, Debug)]
enum BreakerState {
    /// Calls flow normally.
    Closed,
    /// Fail-fast until the cooldown instant.
    Open { until: Instant },
    /// Cooldown elapsed: probe calls flow; the first failure re-opens,
    /// the first success closes.
    HalfOpen,
}

struct Breaker {
    state: BreakerState,
    consec_fails: u32,
}

/// Client-side loco-guard state, shared by every clone of a
/// [`TcpEndpoint`] (so the budget and breaker govern the *address*,
/// not one handle).
struct GuardState {
    /// Retry-budget bucket in milli-tokens (see [`RETRY_TOKEN_MILLI`]).
    tokens_milli: AtomicU64,
    breaker: Mutex<Breaker>,
    trips: AtomicU64,
}

impl GuardState {
    fn new(capacity: u32) -> Self {
        Self {
            tokens_milli: AtomicU64::new(capacity as u64 * RETRY_TOKEN_MILLI),
            breaker: Mutex::new(Breaker {
                state: BreakerState::Closed,
                consec_fails: 0,
            }),
            trips: AtomicU64::new(0),
        }
    }

    /// Withdraw one retry token. `capacity == 0` disables the budget.
    fn try_spend_retry(&self, capacity: u32) -> bool {
        if capacity == 0 {
            return true;
        }
        loop {
            let cur = self.tokens_milli.load(Ordering::Relaxed);
            if cur < RETRY_TOKEN_MILLI {
                return false;
            }
            if self
                .tokens_milli
                .compare_exchange(
                    cur,
                    cur - RETRY_TOKEN_MILLI,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                return true;
            }
        }
    }

    /// Deposit the per-success refill, capped at capacity.
    fn deposit(&self, capacity: u32) {
        if capacity == 0 {
            return;
        }
        let cap = capacity as u64 * RETRY_TOKEN_MILLI;
        loop {
            let cur = self.tokens_milli.load(Ordering::Relaxed);
            let next = (cur + SUCCESS_REFILL_MILLI).min(cap);
            if next == cur {
                return;
            }
            if self
                .tokens_milli
                .compare_exchange(cur, next, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return;
            }
        }
    }
}

/// A client socket read against a deadline: each `read(2)` waits at
/// most for the time left, so a server that trickles bytes cannot
/// stretch it.
struct DeadlineReader {
    stream: TcpStream,
    deadline: Instant,
    /// The read timeout currently set on `stream`.
    timeout: Option<Duration>,
    /// Bytes read since `deadline` was set.
    got: usize,
}

impl Read for DeadlineReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            let left = self.deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(TimedOut.into());
            }
            // Whole milliseconds, so back-to-back calls usually find the
            // timeout already set; when it fires early the loop re-arms
            // it with what is left.
            let ms = Duration::from_millis(left.as_millis() as u64);
            let timeout = Some(if ms.is_zero() { left } else { ms });
            if self.timeout != timeout {
                self.stream.set_read_timeout(timeout)?;
                self.timeout = timeout;
            }
            match self.stream.read(buf) {
                Ok(n) => {
                    self.got += n;
                    return Ok(n);
                }
                Err(e) if matches!(e.kind(), WouldBlock | Interrupted) => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// One client connection. A call owns it for one request/reply
/// exchange; between calls it sits in its endpoint's idle list. Only a
/// connection whose last exchange completed is pooled, so a pooled
/// stream always starts at a frame boundary. The buffer lets one
/// `read(2)` take a typical reply whole.
struct Conn(BufReader<DeadlineReader>);

impl Conn {
    fn open(addr: &str, connect_timeout: Duration) -> Result<Self, RpcError> {
        let sock_addr: SocketAddr = resolve(addr)?;
        let stream = TcpStream::connect_timeout(&sock_addr, connect_timeout)
            .map_err(|e| RpcError::Connect(format!("{addr}: {e}")))?;
        let _ = stream.set_nodelay(true);
        let sock = DeadlineReader {
            stream,
            deadline: Instant::now(),
            timeout: None,
            got: 0,
        };
        Ok(Conn(BufReader::new(sock)))
    }

    /// Send `req_bytes` as request `req_id` and read its reply by
    /// `deadline`: one frame that echoes `req_id` and is all the server
    /// sent.
    fn round_trip(
        &mut self,
        req_id: u64,
        req_bytes: &[u8],
        deadline: Instant,
    ) -> io::Result<Frame> {
        let sock = self.0.get_mut();
        sock.deadline = deadline;
        sock.got = 0;
        write_frame(&mut sock.stream, FrameKind::Request, req_id, req_bytes)?;
        let frame = read_frame(&mut self.0)?.ok_or(UnexpectedEof)?;
        let reply = matches!(frame.kind, FrameKind::Response | FrameKind::Error);
        if frame.req_id == req_id && reply && self.0.buffer().is_empty() {
            return Ok(frame);
        }
        let (kind, id) = (frame.kind, frame.req_id);
        let msg = format!("{kind:?} frame {id} is not the reply to request {req_id}");
        Err(io::Error::new(InvalidData, msg))
    }

    /// Whether the last round trip got no byte back.
    fn heard_nothing(&self) -> bool {
        self.0.get_ref().got == 0
    }
}

fn resolve(addr: &str) -> Result<SocketAddr, RpcError> {
    use std::net::ToSocketAddrs;
    addr.to_socket_addrs()
        .map_err(|e| RpcError::Connect(format!("{addr}: {e}")))?
        .next()
        .ok_or_else(|| RpcError::Connect(format!("{addr}: no address")))
}

/// Client endpoint speaking the framed wire protocol to a remote
/// `locod`. Generic over the hosted [`Service`] type so it can resolve
/// request labels (`S::req_label`) without the service instance.
/// Cloning shares the pool.
pub struct TcpEndpoint<S: Service> {
    addr: Arc<str>,
    id: ServerId,
    policy: RetryPolicy,
    /// Idle connections, each between two complete exchanges, tagged
    /// with the thread that completed that exchange; the most recently
    /// returned is last. It never holds more than the peak number of
    /// concurrent calls.
    idle: Arc<Mutex<Vec<(ThreadId, Conn)>>>,
    next_req: Arc<AtomicU64>,
    metrics: Option<Arc<EndpointMetrics>>,
    guard: Arc<GuardState>,
    _svc: PhantomData<fn(S)>,
}

impl<S: Service> Clone for TcpEndpoint<S> {
    fn clone(&self) -> Self {
        Self {
            addr: Arc::clone(&self.addr),
            id: self.id,
            policy: self.policy,
            idle: Arc::clone(&self.idle),
            next_req: Arc::clone(&self.next_req),
            metrics: self.metrics.clone(),
            guard: Arc::clone(&self.guard),
            _svc: PhantomData,
        }
    }
}

impl<S: Service> TcpEndpoint<S> {
    /// Create an endpoint for the server at `addr` (e.g.
    /// `"127.0.0.1:7101"`). Connections are opened lazily on first
    /// use and reopened after failures.
    pub fn connect(id: ServerId, addr: &str) -> Self {
        Self::with_policy(id, addr, RetryPolicy::from_env())
    }

    /// Like [`TcpEndpoint::connect`] with explicit deadline/retry
    /// settings.
    pub fn with_policy(id: ServerId, addr: &str, policy: RetryPolicy) -> Self {
        Self {
            addr: Arc::from(addr),
            id,
            policy,
            idle: Arc::new(Mutex::new(Vec::new())),
            next_req: Arc::new(AtomicU64::new(1)),
            metrics: None,
            guard: Arc::new(GuardState::new(policy.retry_budget)),
            _svc: PhantomData,
        }
    }

    /// Attach client-side instrumentation (builder style). The server
    /// process keeps its own authoritative metrics; these count what
    /// *this* client observed.
    pub fn with_metrics(mut self, metrics: Arc<EndpointMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The remote address this endpoint dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// How many times this endpoint's circuit breaker has tripped
    /// open (test hook).
    pub fn breaker_trips(&self) -> u64 {
        self.guard.trips.load(Ordering::Relaxed)
    }

    /// Remaining retry-budget tokens, in thousandths (test hook).
    pub fn retry_tokens_milli(&self) -> u64 {
        self.guard.tokens_milli.load(Ordering::Relaxed)
    }

    /// Breaker entry check: fail fast while open, transition to
    /// half-open once the cooldown elapses.
    fn breaker_admit(&self) -> Result<(), RpcError> {
        if self.policy.breaker_threshold == 0 {
            return Ok(());
        }
        let mut b = lock(&self.guard.breaker);
        match b.state {
            BreakerState::Closed | BreakerState::HalfOpen => Ok(()),
            BreakerState::Open { until } => {
                let now = Instant::now();
                if now >= until {
                    b.state = BreakerState::HalfOpen;
                    loco_log::debug!("net.client", "circuit breaker half-open: probing";
                        addr = format_args!("{}", self.addr));
                    Ok(())
                } else {
                    Err(RpcError::CircuitOpen {
                        cooldown_ms: until.duration_since(now).as_millis() as u64,
                    })
                }
            }
        }
    }

    /// A call succeeded: refill the retry budget and close the
    /// breaker.
    fn guard_success(&self) {
        self.guard.deposit(self.policy.retry_budget);
        if self.policy.breaker_threshold == 0 {
            return;
        }
        let mut b = lock(&self.guard.breaker);
        b.consec_fails = 0;
        b.state = BreakerState::Closed;
    }

    /// A call exhausted its attempts: count toward the breaker
    /// threshold; a half-open probe failure re-opens immediately.
    fn guard_exhausted(&self) {
        if self.policy.breaker_threshold == 0 {
            return;
        }
        let mut b = lock(&self.guard.breaker);
        b.consec_fails += 1;
        let reopen = matches!(b.state, BreakerState::HalfOpen);
        if reopen || b.consec_fails >= self.policy.breaker_threshold {
            b.state = BreakerState::Open {
                until: Instant::now() + self.policy.breaker_cooldown,
            };
            b.consec_fails = 0;
            self.guard.trips.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = &self.metrics {
                m.breaker_trip();
            }
            loco_log::warn!("net.client", "circuit breaker tripped open";
                addr = format_args!("{}", self.addr),
                cooldown_ms = self.policy.breaker_cooldown.as_millis() as u64);
        }
    }

    /// Success bookkeeping shared by every `try_call` return path.
    fn record_ok(
        &self,
        ctx: &mut CallCtx,
        label: &'static str,
        resp: RpcResponse<S::Resp>,
    ) -> S::Resp
    where
        S::Resp: Wire,
    {
        self.guard_success();
        ctx.record(self.id, resp.cost);
        if let Some(span) = resp.span {
            ctx.record_span(self.id, span.op, resp.cost, span.queue_ns, span.attrs);
        }
        if let Some(m) = &self.metrics {
            m.begin();
            m.observe(label, resp.cost, 0);
        }
        resp.body
    }

    /// One send/receive attempt, no retries: send `req_bytes` on an idle
    /// connection (or a new one, only when none is idle) and read its
    /// reply on this thread, all of it within `wait` (the per-attempt
    /// deadline, already clipped to the op's remaining budget). The
    /// connection returns to the idle list, tagged with this thread,
    /// only after a complete exchange — a response, fenced or not, or a
    /// guard reject. Any other outcome drops it, so a late reply can
    /// never reach a later call.
    fn attempt(&self, req_bytes: &[u8], wait: Duration) -> Result<RpcResponse<S::Resp>, RpcError>
    where
        S::Resp: Wire,
    {
        let req_id = self.next_req.fetch_add(1, Ordering::Relaxed);
        let me = std::thread::current().id();
        let mut idle = {
            let mut idle = lock(&self.idle);
            // The connection this thread returned last, else the one any
            // thread returned last (so it never dials while one is idle):
            // the server pins each connection to one worker, so a caller
            // that gets its own back keeps talking to the same worker.
            match idle.iter().rposition(|(owner, _)| *owner == me) {
                Some(i) => Some(idle.remove(i).1),
                None => idle.pop().map(|(_, conn)| conn),
            }
        };
        let (conn, frame) = loop {
            let (mut conn, reused) = match idle.take() {
                Some(conn) => (conn, true),
                None => (Conn::open(&self.addr, self.policy.connect_timeout)?, false),
            };
            match conn.round_trip(req_id, req_bytes, Instant::now() + wait) {
                Ok(frame) => break (conn, frame),
                Err(e) if e.kind() == TimedOut => {
                    return Err(RpcError::Timeout {
                        deadline_ms: wait.as_millis() as u64,
                    })
                }
                // An idle connection the server has since closed (daemon
                // restart, idle timeout) fails before any reply byte
                // comes back, though the server is fine: one free redial,
                // always on a fresh socket — after a restart every idle
                // connection may be stale. Once a byte came back the
                // server has the request, and re-sending it could apply
                // it twice.
                Err(_) if reused && conn.heard_nothing() => {}
                Err(e) => return Err(RpcError::ConnectionLost(e.to_string())),
            }
        };
        let result = match frame.kind {
            FrameKind::Error => match frame.payload.first() {
                // Guard rejects: the server refused the request without
                // executing it — cheap, unambiguous failures.
                Some(&REJECT_OVERLOADED) => Err(RpcError::Overloaded),
                Some(&REJECT_EXPIRED) => Err(RpcError::Expired),
                other => Err(RpcError::Decode(format!(
                    "unknown guard reject code {other:?}"
                ))),
            },
            _ => match RpcResponse::<S::Resp>::from_wire(&frame.payload) {
                // A fenced reply is a *valid* answer from a server that
                // is no longer (or not yet) the primary: surface it as
                // its own error class so the caller can redial through
                // the cluster view instead of retrying here.
                Ok(RpcResponse {
                    repl: Some(stamp), ..
                }) if stamp.fenced => Err(RpcError::FencedEpoch { epoch: stamp.epoch }),
                Ok(resp) => Ok(resp),
                Err(e) => Err(RpcError::Decode(e.to_string())),
            },
        };
        if matches!(
            result,
            Ok(_) | Err(RpcError::Overloaded | RpcError::Expired | RpcError::FencedEpoch { .. })
        ) {
            lock(&self.idle).push((me, conn));
        }
        result
    }
}

impl<S> Endpoint<S::Req, S::Resp> for TcpEndpoint<S>
where
    S: Service,
    S::Req: Wire,
    S::Resp: Wire,
{
    /// Infallible call surface; a transport failure here is a panic.
    /// The LocoFS client always goes through [`Endpoint::try_call`]
    /// and maps failures to `EIO`.
    fn call(&self, ctx: &mut CallCtx, req: S::Req) -> S::Resp {
        match self.try_call(ctx, req) {
            Ok(resp) => resp,
            Err(e) => panic!("tcp rpc to {} failed: {e}", self.addr),
        }
    }

    fn id(&self) -> ServerId {
        self.id
    }

    fn try_call(&self, ctx: &mut CallCtx, req: S::Req) -> Result<S::Resp, RpcError> {
        let label = S::req_label(&req);
        // Ambiguous-failure classification must happen before the
        // request is consumed by the encoder.
        let idempotent = S::req_idempotent(&req);
        // Client-side correlation: retry/reconnect events emitted
        // below carry the sampled op's trace identity.
        let _span = ctx
            .trace_ctx()
            .filter(|t| t.sampled)
            .map(|t| loco_log::span_scope(t.trace_id, t.span_id as u64));
        self.breaker_admit()?;
        if ctx.remaining_budget().is_some_and(|b| b.is_zero()) {
            // The op's deadline already passed: don't even send.
            return Err(RpcError::Expired);
        }
        // Encode once; retries resend the same bytes with the budget
        // field restamped in place.
        let mut req_bytes = RpcRequest {
            budget_ms: budget_ms(ctx.remaining_budget()),
            trace: ctx.trace_ctx(),
            body: req,
        }
        .to_wire();
        if req_bytes.len() > MAX_PAYLOAD {
            // No frame can carry it: refuse before dialing, so it costs
            // no attempt, no retry token and no breaker count.
            loco_log::warn!("net.client", "request over the frame limit; not sent";
                addr = format_args!("{}", self.addr), op = label,
                len = req_bytes.len() as u64);
            return Err(RpcError::TooLarge {
                len: req_bytes.len(),
            });
        }
        let window_start = Instant::now();
        let mut total_attempts = 0u32;
        let mut fenced_fast_retry = false;
        loop {
            let mut backoff = self.policy.backoff;
            let mut last: Option<RpcError> = None;
            for attempt in 0..self.policy.attempts {
                if attempt > 0 {
                    // Retry budget: a token per retry, refilled by
                    // successes. An empty bucket ends the call — under
                    // a brownout the fleet's aggregate retry traffic
                    // stays a bounded fraction of its success traffic
                    // instead of amplifying the overload.
                    if !self.guard.try_spend_retry(self.policy.retry_budget) {
                        loco_log::warn!("net.client", "retry budget exhausted; not retrying";
                            addr = format_args!("{}", self.addr), op = label,
                            attempts = total_attempts);
                        break;
                    }
                    if let Some(m) = &self.metrics {
                        m.retry();
                    }
                    let seed = (self.next_req.load(Ordering::Relaxed) << 8) | attempt as u64;
                    let sleep = if matches!(last, Some(RpcError::Overloaded)) {
                        // Overloaded is explicit pushback from a live
                        // server: wait at least a full backoff step
                        // (never an immediate redial), capped so a
                        // brief shed doesn't stall the caller forever.
                        (backoff + jitter(seed, backoff)).min(Duration::from_millis(250))
                    } else {
                        backoff + jitter(seed, backoff)
                    };
                    std::thread::sleep(sleep);
                    backoff = backoff.saturating_mul(2);
                }
                // Clip the attempt's wait to the op's remaining budget
                // and restamp the wire field so the server sees the
                // *current* remaining budget, not the original.
                let wait = match ctx.remaining_budget() {
                    Some(rem) if rem.is_zero() => {
                        return Err(RpcError::Expired);
                    }
                    Some(rem) => {
                        restamp_budget_ms(&mut req_bytes, budget_ms(Some(rem)));
                        rem.min(self.policy.deadline)
                    }
                    None => self.policy.deadline,
                };
                total_attempts += 1;
                match self.attempt(&req_bytes, wait) {
                    Ok(resp) => return Ok(self.record_ok(ctx, label, resp)),
                    Err(RpcError::Expired) => {
                        // The server dropped it unexecuted; the caller
                        // stopped caring — nothing to retry.
                        return Err(RpcError::Expired);
                    }
                    Err(e @ RpcError::FencedEpoch { .. }) => {
                        // A fenced answer is not a transport fault: the
                        // server replied, it just is not the primary.
                        // Backing off exponentially here only delays
                        // the redial — so take ONE immediate no-sleep
                        // retry (covers a promote racing this call),
                        // then surface FencedEpoch directly for the
                        // caller to re-resolve the primary.
                        if fenced_fast_retry {
                            loco_log::warn!("net.client", "rpc fenced; caller must redial primary";
                                addr = format_args!("{}", self.addr), op = label,
                                attempts = total_attempts);
                            return Err(e);
                        }
                        fenced_fast_retry = true;
                        total_attempts += 1;
                        match self.attempt(&req_bytes, wait) {
                            Ok(resp) => return Ok(self.record_ok(ctx, label, resp)),
                            Err(e2 @ RpcError::FencedEpoch { .. }) => {
                                loco_log::warn!("net.client", "rpc fenced; caller must redial primary";
                                    addr = format_args!("{}", self.addr), op = label,
                                    attempts = total_attempts);
                                return Err(e2);
                            }
                            Err(other) => last = Some(other),
                        }
                    }
                    Err(e) => last = Some(e),
                }
            }
            let last = last.expect("at least one attempt ran");
            // Connection-class failures look like a daemon restart;
            // within the reconnect window, keep redialing rather than
            // surfacing an error the caller would map to EIO.
            let reconnectable = matches!(
                last,
                RpcError::Connect(_) | RpcError::ConnectionLost(_) | RpcError::Timeout { .. }
            );
            if !(reconnectable && window_start.elapsed() < self.policy.reconnect_window) {
                loco_log::error!("net.client", "rpc retries exhausted";
                    addr = format_args!("{}", self.addr), op = label,
                    attempts = total_attempts,
                    error = format_args!("{last}"));
                self.guard_exhausted();
                // Timeouts and lost connections after the bytes left
                // are *ambiguous*: the mutation may have been applied.
                // For non-idempotent requests that distinction must
                // reach the caller — re-issuing blindly could apply
                // the op twice (the chaos client reconciles its
                // re-issue's AlreadyExists as success for exactly this
                // reason).
                let ambiguous = matches!(
                    last,
                    RpcError::ConnectionLost(_) | RpcError::Timeout { .. } | RpcError::Decode(_)
                );
                return Err(if ambiguous && !idempotent {
                    RpcError::MaybeApplied {
                        attempts: total_attempts,
                        last: Box::new(last),
                    }
                } else {
                    RpcError::Exhausted {
                        attempts: total_attempts,
                        last: Box::new(last),
                    }
                });
            }
            // Correlated with the op via the ambient span scope when
            // the caller sampled it; the collector's merged timeline
            // shows this reconnect between the daemon's crash and its
            // recovery events.
            loco_log::warn!("net.client", "daemon unreachable; redialing within reconnect window";
                addr = format_args!("{}", self.addr), op = label,
                attempts = total_attempts,
                waited_ms = window_start.elapsed().as_millis() as u64,
                error = format_args!("{last}"));
            std::thread::sleep(self.policy.backoff.max(Duration::from_millis(20)));
        }
    }
}

// ----- server side ------------------------------------------------------

/// Optional server wiring for [`serve_tcp`].
pub struct ServeOptions {
    /// Per-endpoint instrumentation recorded for each handled request.
    pub metrics: Option<Arc<EndpointMetrics>>,
    /// Registry rendered in reply to [`Control::Metrics`] scrapes.
    pub registry: Option<Arc<MetricsRegistry>>,
    /// How often the accept loop runs [`Service::maintain`] between
    /// requests (periodic WAL flush + persistence gauges). `None`
    /// disables periodic maintenance; the drain-time pass at shutdown
    /// always runs.
    pub maintain_every: Option<Duration>,
    /// Worker event loops. `0` (the default) sizes automatically from
    /// the machine's available parallelism, capped at 4 — the service
    /// is single-writer, so workers buy socket I/O overlap, not
    /// handler parallelism.
    pub workers: usize,
    /// Open-connection cap; connections accepted beyond it are dropped
    /// immediately (and counted in `loco_srv_conns_shed_total`). `0`
    /// means unlimited.
    pub max_conns: usize,
    /// Per-connection cap on replies parked in the group committer.
    /// Past it the worker stops reading that connection until replies
    /// drain (pipelining backpressure).
    pub pipeline_limit: usize,
    /// Per-connection cap in bytes on buffered unsent replies. Past it
    /// the worker stops reading that connection until the socket
    /// accepts the backlog (slow-reader backpressure).
    pub write_buf_limit: usize,
    /// loco-guard admission watermark: mutations are shed with a fast
    /// `Overloaded` reject while a worker has this many replies parked
    /// in the group committer (reads still drain). `0` disables.
    pub max_inflight: usize,
    /// loco-guard admission watermark on the group-commit queue depth
    /// (parked waiters across all workers awaiting one fsync): past
    /// it, mutations are shed with `Overloaded`. `0` disables.
    pub shed_watermark: usize,
    /// Metrics time-series ring answered to [`Control::Series`]
    /// scrapes. Ticked with a registry snapshot on the maintenance
    /// timer (so it needs both `registry` and `maintain_every` to
    /// accumulate points).
    pub series: Option<Arc<loco_obs::TimeSeriesRing>>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            metrics: None,
            registry: None,
            maintain_every: None,
            workers: 0,
            max_conns: 0,
            pipeline_limit: 128,
            write_buf_limit: 1 << 20,
            max_inflight: 0,
            shed_watermark: 0,
            series: None,
        }
    }
}

/// Handle to a running TCP server. Dropping it performs a graceful
/// shutdown: stop accepting, drain in-flight requests, close.
pub struct TcpServerGuard {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl TcpServerGuard {
    /// The bound listen address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request a graceful shutdown and wait for it to complete.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Whether a shutdown (local or via a [`Control::Shutdown`] frame)
    /// has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Block until the server exits (e.g. on a remote
    /// [`Control::Shutdown`]). Used by the `locod` main thread.
    pub fn wait(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for TcpServerGuard {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Host `svc` on `listener`, speaking the framed wire protocol.
/// Returns once the accept loop is running.
pub fn serve_tcp<S>(
    id: ServerId,
    svc: S,
    listener: TcpListener,
    opts: ServeOptions,
) -> io::Result<TcpServerGuard>
where
    S: Service + 'static,
    S::Req: Wire,
    S::Resp: Wire,
{
    serve_tcp_shared(id, Arc::new(Mutex::new(svc)), listener, opts)
}

/// Like [`serve_tcp`], but the caller keeps a handle on the service
/// mutex. This is how a replicated DMS wires up: the replication
/// shipper and the lease loop need the same `DirServer` instance the
/// request handlers run against, so the daemon builds the
/// `Arc<Mutex<_>>` itself, hands clones to the `loco-repl` host
/// closures, and passes the original here.
pub fn serve_tcp_shared<S>(
    id: ServerId,
    svc: Arc<Mutex<S>>,
    listener: TcpListener,
    opts: ServeOptions,
) -> io::Result<TcpServerGuard>
where
    S: Service + 'static,
    S::Req: Wire,
    S::Resp: Wire,
{
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    loco_log::info!("net.srv", "listening";
        role = crate::metrics::role_name(id.class), index = id.index,
        addr = addr.to_string());
    let accept = {
        let shutdown = Arc::clone(&shutdown);
        std::thread::Builder::new()
            .name(format!(
                "locod-{}-{}",
                crate::metrics::role_name(id.class),
                id.index
            ))
            .spawn(move || crate::event_loop::run::<S>(listener, svc, shutdown, opts, id))?
    };
    Ok(TcpServerGuard {
        addr,
        shutdown,
        accept: Some(accept),
    })
}

/// Run one [`Service::maintain`] pass and publish its persistence
/// counters as gauges (labelled by role/server) when a registry is
/// wired. Volatile services return `None` and publish nothing.
pub(crate) fn run_maintain<S: Service>(
    svc: &Arc<Mutex<S>>,
    opts: &ServeOptions,
    id: ServerId,
    drain: bool,
) -> Option<MaintainReport> {
    // The series ring ticks on the same cadence, volatile or durable —
    // it must advance even when `maintain` has nothing to report.
    tick_series(opts);
    let report = lock(svc).maintain(drain)?;
    if let Some(reg) = &opts.registry {
        let role = crate::metrics::role_name(id.class);
        let server = id.index.to_string();
        let labels: &[(&str, &str)] = &[("role", role), ("server", &server)];
        reg.gauge("loco_wal_records", labels)
            .set(report.wal_records as i64);
        reg.gauge("loco_wal_replayed_records", labels)
            .set(report.replayed_records as i64);
        reg.gauge("loco_snapshot_records", labels)
            .set(report.snapshot_records as i64);
        reg.gauge("loco_checkpoints_total", labels)
            .set(report.checkpoints as i64);
        reg.gauge("loco_wal_fsyncs", labels)
            .set(report.wal_fsyncs as i64);
        if let Some(m) = &opts.metrics {
            // Durability amortization at a glance: <1000 means the
            // group committer is batching more than one op per fsync.
            let per_1k = report.wal_fsyncs.saturating_mul(1000) / m.requests().max(1);
            reg.gauge("loco_wal_fsyncs_per_1k_ops", labels)
                .set(per_1k as i64);
        }
    }
    Some(report)
}

/// Advance the daemon's metrics time series with a fresh registry
/// snapshot (no-op unless both a series ring and a registry are
/// wired).
pub(crate) fn tick_series(opts: &ServeOptions) {
    if let (Some(series), Some(reg)) = (&opts.series, &opts.registry) {
        let at_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        series.tick(at_ms, &reg.snapshot());
    }
}

/// One-shot control request over a dedicated connection: ping a
/// daemon, scrape its metrics, or ask it to shut down.
pub fn control(addr: &str, msg: Control, timeout: Duration) -> Result<ControlReply, RpcError> {
    let sock_addr = resolve(addr)?;
    let mut stream = TcpStream::connect_timeout(&sock_addr, timeout)
        .map_err(|e| RpcError::Connect(format!("{addr}: {e}")))?;
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    write_frame(&mut stream, FrameKind::Control, 0, &msg.to_wire())
        .map_err(|e| RpcError::ConnectionLost(e.to_string()))?;
    match read_frame(&mut stream) {
        Ok(Some(frame)) => {
            ControlReply::from_wire(&frame.payload).map_err(|e| RpcError::Decode(e.to_string()))
        }
        Ok(None) => Err(RpcError::ConnectionLost("closed before reply".into())),
        Err(e) => Err(RpcError::ConnectionLost(e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::test_service::Adder;
    use loco_sim::time::{Nanos, MICROS};

    fn quick_policy() -> RetryPolicy {
        RetryPolicy {
            attempts: 3,
            backoff: Duration::from_millis(5),
            deadline: Duration::from_millis(500),
            connect_timeout: Duration::from_millis(500),
            reconnect_window: Duration::ZERO,
            // Guard off: these tests pin pre-guard retry semantics.
            retry_budget: 0,
            breaker_threshold: 0,
            breaker_cooldown: Duration::from_millis(100),
        }
    }

    fn serve_adder(cost: Nanos) -> (TcpServerGuard, TcpEndpoint<Adder>) {
        let id = ServerId::new(crate::class::FMS, 0);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let guard = serve_tcp(id, Adder::new(cost), listener, ServeOptions::default()).unwrap();
        let ep = TcpEndpoint::<Adder>::with_policy(id, &guard.addr().to_string(), quick_policy());
        (guard, ep)
    }

    #[test]
    fn tcp_call_roundtrip_records_virtual_cost() {
        let (_guard, ep) = serve_adder(3 * MICROS);
        let mut ctx = CallCtx::new();
        assert_eq!(ep.call(&mut ctx, 7), 7);
        assert_eq!(ep.call(&mut ctx, 3), 10);
        assert_eq!(ctx.round_trips(), 2);
        assert_eq!(ctx.visits()[1].service, 3 * MICROS);
    }

    #[test]
    fn traced_call_carries_span_reply_across_the_wire() {
        let (_guard, ep) = serve_adder(2 * MICROS);
        let mut ctx = CallCtx::new();
        ctx.start_trace(77);
        ep.call(&mut ctx, 1);
        let t = ctx.take_op_trace().expect("sampled op has a trace");
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.spans[0].op, "req"); // Adder's default req_label
        assert_eq!(t.spans[0].service_ns, 2 * MICROS);
    }

    #[test]
    fn dead_server_surfaces_exhausted_not_hang() {
        let (mut guard, ep) = serve_adder(0);
        let mut ctx = CallCtx::new();
        ep.call(&mut ctx, 1); // warm connection
        guard.shutdown();
        let policy = quick_policy();
        let t0 = Instant::now();
        let err = ep.try_call(&mut ctx, 1).unwrap_err();
        assert!(
            matches!(err, RpcError::Exhausted { attempts: 3, .. }),
            "got {err:?}"
        );
        // Bounded: attempts × (deadline + backoff) with slack.
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "retry exhaustion took {:?} (policy {policy:?})",
            t0.elapsed()
        );
    }

    #[test]
    fn concurrent_clients_share_one_pool() {
        let (_guard, ep) = serve_adder(0);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let ep = ep.clone();
            handles.push(std::thread::spawn(move || {
                let mut ctx = CallCtx::new();
                for _ in 0..50 {
                    ep.call(&mut ctx, 1);
                }
                ctx.round_trips()
            }));
        }
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 400);
        // The pool holds at most one connection per concurrent caller.
        let idle = lock(&ep.idle).len();
        assert!((1..=8).contains(&idle), "{idle} idle connections");
        let mut ctx = CallCtx::new();
        assert_eq!(ep.call(&mut ctx, 0), 400);
    }

    #[test]
    fn control_ping_metrics_shutdown() {
        let id = ServerId::new(crate::class::DMS, 0);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let registry = MetricsRegistry::shared();
        let metrics = EndpointMetrics::register(&registry, id);
        let mut guard = serve_tcp(
            id,
            Adder::new(MICROS),
            listener,
            ServeOptions {
                metrics: Some(metrics),
                registry: Some(registry),
                ..Default::default()
            },
        )
        .unwrap();
        let addr = guard.addr().to_string();
        let timeout = Duration::from_secs(2);
        assert_eq!(
            control(&addr, Control::Ping, timeout).unwrap(),
            ControlReply::Pong
        );
        let ep = TcpEndpoint::<Adder>::with_policy(id, &addr, quick_policy());
        let mut ctx = CallCtx::new();
        ep.call(&mut ctx, 5);
        match control(&addr, Control::Metrics, timeout).unwrap() {
            ControlReply::Metrics(text) => {
                assert!(
                    text.contains("loco_rpc_requests_total{role=\"dms\",server=\"0\"} 1"),
                    "metrics cross the wire: {text}"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            control(&addr, Control::Shutdown, timeout).unwrap(),
            ControlReply::ShuttingDown
        );
        guard.wait(); // remote shutdown stops the accept loop
    }

    #[test]
    fn tcp_matches_sim_visit_traces() {
        use crate::endpoint::SimEndpoint;
        let id = ServerId::new(crate::class::FMS, 1);
        let sim = SimEndpoint::new(id, Adder::new(9 * MICROS));
        let (_guard, tcp) = serve_adder(9 * MICROS);
        let mut cs = CallCtx::new();
        let mut ct = CallCtx::new();
        for i in 0..10 {
            assert_eq!(sim.call(&mut cs, i), tcp.call(&mut ct, i));
        }
        // Same virtual visits — wall-clock never leaks into the trace.
        let (vs, vt) = (cs.take_trace().visits, ct.take_trace().visits);
        assert_eq!(
            vs.iter().map(|v| v.service).collect::<Vec<_>>(),
            vt.iter().map(|v| v.service).collect::<Vec<_>>()
        );
    }
}
