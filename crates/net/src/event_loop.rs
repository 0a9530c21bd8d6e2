//! Event-driven server core: one acceptor + N worker readiness loops
//! + an optional WAL group-commit thread.
//!
//! The server runs on a fixed set of threads, each running a
//! level-triggered [`Poller`] loop:
//!
//! * The **acceptor** owns the listening socket. It accepts
//!   connections (shedding above `--max-conns`), hands each to a
//!   worker round-robin, and runs periodic [`Service::maintain`]
//!   passes.
//! * Each **worker** owns a slab of connections. Reads are
//!   non-blocking and assemble frames incrementally, so a frame split
//!   across readiness events decodes once complete; many requests may
//!   be parsed from one readable pass (client pipelining). Writes go
//!   through a per-connection buffer with backpressure: when a
//!   connection exceeds its pipeline or write-buffer budget the worker
//!   stops *reading* it (bytes stay in the kernel socket buffer, which
//!   is real TCP backpressure) until replies drain.
//! * The **committer** amortizes WAL fsyncs across connections. A
//!   handler that produced durable records does not write its reply
//!   directly; the worker parks the pre-encoded reply frame as a
//!   commit waiter. The committer fsyncs as soon as one waiter is
//!   parked — it never lingers on a timer for company — and only then
//!   hands the covered reply frames back to the workers. No ack leaves
//!   the process before its records are durable: WAL-before-ack holds,
//!   with fsyncs/op → 1/batch.
//!
//! Batches form on their own. The fsync runs without the service lock,
//! so handlers keep appending and parking while it is in flight; the
//! round after it covers all of them with one fsync. A lone request
//! therefore pays one fsync, and under load each fsync covers whatever
//! arrived during the one before it.
//!
//! The ordering argument: the committer begins a flush *stage* under
//! the service lock — it bumps the stage count and pushes every
//! appended WAL byte to the OS — and fsyncs after releasing the lock.
//! A worker appends a request's records under the same lock and, still
//! holding it, reads the stage count: the request is due at the next
//! stage, which begins after its records were appended. After stage
//! `k`'s fsync the committer releases every waiter due at or before
//! `k`, including waiters that parked while that fsync ran.

use crate::endpoint::Service;
use crate::frame::{crc32, decode_header, encode_frame, FrameKind, HEADER_LEN, MAX_PAYLOAD};
use crate::metrics::ServerMetrics;
use crate::poller::{Interest, Poller};
use crate::rpc::{
    peek_body_tag, peek_budget_ms, Control, ControlReply, RpcRequest, RpcResponse, SpanReply,
    REJECT_EXPIRED, REJECT_OVERLOADED,
};
use crate::tcp::{lock, run_maintain, ServeOptions};
use loco_sim::des::ServerId;
use loco_sim::time::Nanos;
use loco_types::wire::Wire;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poll-loop tick: the longest a worker or the acceptor goes without
/// rechecking the shutdown flag.
const TICK: Duration = Duration::from_millis(25);
/// How long a draining worker keeps waiting for half-received frames,
/// parked commit waiters, and unflushed replies before giving up.
const DRAIN_GRACE: Duration = Duration::from_millis(500);
/// Read chunk size per `read(2)` call.
const READ_CHUNK: usize = 64 * 1024;
/// Poller token reserved for the worker wake pipe.
const WAKE_TOKEN: u64 = u64::MAX;

/// `LOCO_GROUP_COMMIT=off|0|false|no` disables the cross-connection
/// group committer: each durable request then fsyncs inline under the
/// store's sync policy, one fsync per acked mutation.
fn group_commit_enabled() -> bool {
    match std::env::var("LOCO_GROUP_COMMIT") {
        Ok(v) => !matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "off" | "0" | "false" | "no"
        ),
        Err(_) => true,
    }
}

/// `LOCO_GUARD=off|0|false|no` disables the loco-guard server-side
/// protections (deadline expiry drops and admission-control sheds) —
/// the pre-guard behaviour, kept as the baseline arm for the overload
/// bench.
pub(crate) fn guard_enabled() -> bool {
    match std::env::var("LOCO_GUARD") {
        Ok(v) => !matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "off" | "0" | "false" | "no"
        ),
        Err(_) => true,
    }
}

// ----- cross-thread plumbing -------------------------------------------

/// Message into a worker's inbox.
enum InboxMsg {
    /// A freshly accepted connection to adopt.
    Conn(TcpStream),
    /// Reply frames released by the group committer — one message per
    /// worker per commit round. Each reply is delivered only if its slot
    /// still holds generation `gen` (the connection may have died and
    /// the slot been recycled meanwhile).
    Replies(Vec<ReplyMsg>),
}

/// One committed reply addressed to a worker's connection slot.
struct ReplyMsg {
    slot: usize,
    gen: u64,
    frame: Vec<u8>,
}

/// Sending half of a worker: inbox + wake pipe writer.
struct WorkerHandle {
    inbox: Mutex<Vec<InboxMsg>>,
    wake: UnixStream,
}

impl WorkerHandle {
    fn send(&self, msg: InboxMsg) {
        lock(&self.inbox).push(msg);
        // A full pipe means a wake is already pending.
        let _ = (&self.wake).write(&[1u8]);
    }

    fn kick(&self) {
        let _ = (&self.wake).write(&[1u8]);
    }
}

/// A reply parked until its WAL records are durable.
struct CommitWaiter {
    worker: usize,
    slot: usize,
    gen: u64,
    req_id: u64,
    /// The request's `req_label`, for the expiry counter.
    op: &'static str,
    /// Deadline derived from the request's budget; a waiter still
    /// parked past this point when a stage is about to begin is dropped
    /// instead (the caller gave up — dead work must not cost a flush).
    expires_at: Option<Instant>,
    /// The first flush stage whose fsync covers this request's records.
    due: u64,
    /// When the reply was parked, for the commit-wait histogram.
    parked: Instant,
    frame: Vec<u8>,
}

#[derive(Default)]
struct CommitState {
    waiters: Vec<CommitWaiter>,
    /// Live (non-draining) workers. The committer exits once this hits
    /// zero and the waiter queue is empty.
    producing: usize,
}

struct CommitShared {
    state: Mutex<CommitState>,
    cv: Condvar,
    /// Lock-free mirror of `state.waiters.len()`, read by workers for
    /// the `--shed-watermark` admission check without touching the
    /// commit mutex on the reject path. Updated under the state lock.
    depth: AtomicUsize,
    /// Flush stages begun so far. Written by the committer and read by
    /// workers, both under the service lock, which orders each read
    /// against each stage.
    stages: AtomicU64,
}

impl CommitShared {
    /// Remove the waiters matching `pred` from the queue.
    fn take_where(&self, pred: impl FnMut(&mut CommitWaiter) -> bool) -> Vec<CommitWaiter> {
        let mut st = lock(&self.state);
        let taken: Vec<_> = st.waiters.extract_if(.., pred).collect();
        self.depth.store(st.waiters.len(), Ordering::Relaxed);
        taken
    }
}

/// Fsync as soon as a waiter is parked; after each fsync release every
/// waiter it covers, including those that parked while it ran.
fn committer_loop<S: Service>(
    svc: Arc<Mutex<S>>,
    shared: Arc<CommitShared>,
    workers: Arc<Vec<WorkerHandle>>,
    metrics: Option<Arc<ServerMetrics>>,
) {
    loop {
        {
            let mut st = lock(&shared.state);
            while st.waiters.is_empty() {
                if st.producing == 0 {
                    return;
                }
                st = shared
                    .cv
                    .wait_timeout(st, TICK)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        }
        // Deadline check at the last possible moment before staging:
        // a waiter whose budget ran out while parked is dropped here —
        // its caller already gave up, so its ack is dead work. The WAL
        // records it appended stay buffered (they ride the next live
        // stage or the drain flush), but they never *cause* an fsync:
        // a queue of expired waiters only skips the stage.
        let now = Instant::now();
        let expired = shared.take_where(|w| w.expires_at.is_some_and(|t| now >= t));
        let mut by_worker: Vec<Vec<ReplyMsg>> = (0..workers.len()).map(|_| Vec::new()).collect();
        if !expired.is_empty() {
            loco_log::debug!("wal.commit", "expired parked replies dropped before fsync";
                expired = expired.len() as u64);
        }
        // Expired waiters still flow back as one Error frame each so
        // per-connection inflight accounting stays balanced and the
        // client learns immediately instead of timing out.
        for w in expired {
            if let Some(m) = &metrics {
                m.expired(w.op);
            }
            by_worker[w.worker].push(ReplyMsg {
                slot: w.slot,
                gen: w.gen,
                frame: encode_frame(FrameKind::Error, w.req_id, &[REJECT_EXPIRED]),
            });
        }
        if shared.depth.load(Ordering::Relaxed) > 0 {
            commit_round(&svc, &shared, metrics.as_deref(), &mut by_worker);
        }
        // One inbox message (and one wake byte) per worker per round,
        // not per reply — under load a round carries replies for many
        // connections on the same worker.
        for (worker, replies) in by_worker.into_iter().enumerate() {
            if !replies.is_empty() {
                workers[worker].send(InboxMsg::Replies(replies));
            }
        }
    }
}

/// One stage + fsync; queues the reply of every waiter it covers.
fn commit_round<S: Service>(
    svc: &Mutex<S>,
    shared: &CommitShared,
    metrics: Option<&ServerMetrics>,
    by_worker: &mut [Vec<ReplyMsg>],
) {
    let (stage, staged) = {
        let mut svc = lock(svc);
        // Crash here: records hit the WAL but were never fsynced, and
        // no ack left — recovery may lose them all, which is correct
        // (nothing was promised).
        loco_faults::crashpoint("group_commit_pre_sync");
        let stage = shared.stages.fetch_add(1, Ordering::Relaxed) + 1;
        (stage, svc.commit_flush_begin())
    };
    let staged_any = staged.is_some();
    // The fsync runs with the service lock *released*: workers keep
    // appending and parking the next batch while this one reaches the
    // platter.
    let records = match staged {
        Some((n, fsync)) => {
            let t0 = Instant::now();
            fsync();
            // A stage that covers no records (a replicated primary's
            // quorum wait after a maintenance sync) ran no fsync.
            if let Some(m) = metrics.filter(|_| n > 0) {
                m.wal_fsync(t0.elapsed());
            }
            n
        }
        None => 0,
    };
    // A replicated service may fail its ack-quorum inside the staged
    // flush (standbys dead or this node fenced). The stage is locally
    // durable, but the promised replication guarantee is not met — so
    // no ack leaves: every reply it covers is dropped and the clients
    // redial through the cluster view. The empty frames below still
    // flow to the workers so per-conn inflight accounting stays
    // balanced.
    let aborted = staged_any && lock(svc).commit_abort();
    if aborted {
        loco_log::warn!("wal.commit", "group commit acks dropped: replication quorum not met";
            records = records);
    }
    // Crash here: the records are durable but no ack left — recovery
    // replays them, a superset of what clients saw. Also correct.
    loco_faults::crashpoint("group_commit_post_sync");
    if records > 0 {
        loco_log::trace!("wal.commit", "group commit batch fsynced";
            records = records);
        if let Some(m) = metrics {
            m.wal_batch(records);
        }
    }
    let released = Instant::now();
    for w in shared.take_where(|w| w.due <= stage) {
        if let Some(m) = metrics {
            m.commit_wait(released - w.parked);
        }
        by_worker[w.worker].push(ReplyMsg {
            slot: w.slot,
            gen: w.gen,
            frame: if aborted { Vec::new() } else { w.frame },
        });
    }
}

// ----- worker -----------------------------------------------------------

struct ConnState {
    stream: TcpStream,
    /// Slot generation at adoption; stale committer replies are dropped.
    gen: u64,
    /// Incrementally assembled inbound bytes; `read_pos` is the parse
    /// cursor (consumed prefix, compacted periodically).
    read_buf: Vec<u8>,
    read_pos: usize,
    /// Outbound reply bytes not yet accepted by the socket.
    out: Vec<u8>,
    out_pos: usize,
    /// When the oldest unparsed byte in `read_buf` arrived — the
    /// request arrival time the deadline-budget check measures from.
    /// Conservative under pipelining (later frames of one read share
    /// the stamp of the first).
    buf_stamp: Instant,
    /// Replies parked in the group committer for this connection.
    inflight: usize,
    interest: Interest,
    peer_closed: bool,
    close_after_flush: bool,
}

impl ConnState {
    fn pending_out(&self) -> usize {
        self.out.len() - self.out_pos
    }

    fn buffered(&self) -> bool {
        self.read_buf.len() > self.read_pos
    }

    fn idle(&self) -> bool {
        self.inflight == 0 && self.pending_out() == 0 && !self.buffered()
    }
}

struct Worker<S: Service> {
    idx: usize,
    svc: Arc<Mutex<S>>,
    shutdown: Arc<AtomicBool>,
    opts: Arc<ServeOptions>,
    srv_metrics: Option<Arc<ServerMetrics>>,
    /// `Some` while the group committer accepts waiters.
    commit: Option<Arc<CommitShared>>,
    handles: Arc<Vec<WorkerHandle>>,
    open: Arc<AtomicUsize>,
    poller: Poller,
    conns: Vec<Option<ConnState>>,
    slot_gen: Vec<u64>,
    free: Vec<usize>,
    draining: bool,
    /// loco-guard master switch (`LOCO_GUARD`), sampled once at boot.
    guard: bool,
    /// Replies this worker currently has parked in the group committer
    /// — the "per-worker inflight" the `--max-inflight` admission
    /// watermark measures.
    parked_total: usize,
}

impl<S> Worker<S>
where
    S: Service + 'static,
    S::Req: Wire,
    S::Resp: Wire,
{
    fn run(mut self, wake_rx: UnixStream) {
        let _ = wake_rx.set_nonblocking(true);
        if self
            .poller
            .register(wake_rx.as_raw_fd(), WAKE_TOKEN, Interest::READ)
            .is_err()
        {
            return; // cannot be woken: unusable worker
        }
        let mut events = Vec::new();
        let mut drain_deadline = Instant::now();
        loop {
            let timeout = if self.draining {
                Duration::from_millis(5)
            } else {
                TICK
            };
            let _ = self.poller.wait(&mut events, Some(timeout));
            if let Some(m) = &self.srv_metrics {
                m.wakeup();
            }
            drain_wake(&wake_rx);
            self.process_inbox();
            let evs = std::mem::take(&mut events);
            for ev in &evs {
                if ev.token == WAKE_TOKEN {
                    continue;
                }
                let slot = ev.token as usize;
                if ev.readable || ev.error {
                    self.pump_read(slot);
                }
                if ev.writable {
                    self.flush_out(slot);
                    // Flushing may drop `pending_out` back under the
                    // admission limit. Any requests parked in the
                    // user-space read buffer will never produce another
                    // readiness event (the kernel buffer is empty), so
                    // resume parsing explicitly.
                    self.pump_read(slot);
                }
                self.finish_touch(slot);
            }
            events = evs;
            if !self.draining && self.shutdown.load(Ordering::SeqCst) {
                self.draining = true;
                drain_deadline = Instant::now() + DRAIN_GRACE;
                if let Some(c) = &self.commit {
                    // From here durable requests flush inline; the
                    // committer must not wait on this worker.
                    lock(&c.state).producing -= 1;
                    c.cv.notify_all();
                }
            }
            if self.draining {
                let busy = self.drain_sweep();
                if !busy || Instant::now() >= drain_deadline {
                    break;
                }
            }
        }
        for slot in 0..self.conns.len() {
            self.close_conn(slot);
        }
    }

    fn process_inbox(&mut self) {
        let msgs = std::mem::take(&mut *lock(&self.handles[self.idx].inbox));
        for msg in msgs {
            match msg {
                InboxMsg::Conn(stream) => self.add_conn(stream),
                InboxMsg::Replies(replies) => {
                    for ReplyMsg { slot, gen, frame } in replies {
                        // Every parked waiter produces exactly one
                        // reply message, delivered or not — the
                        // admission watermark tracks parked work, not
                        // live connections.
                        self.parked_total = self.parked_total.saturating_sub(1);
                        let live = self.conns.get(slot).and_then(|c| c.as_ref());
                        if live.is_some_and(|c| c.gen == gen) {
                            let conn = self.conns[slot].as_mut().unwrap();
                            conn.inflight -= 1;
                            self.push_out(slot, &frame);
                            // A drained reply may unblock admission;
                            // resume parsing bytes already buffered in
                            // user space (they will not generate a
                            // poller event).
                            self.pump_read(slot);
                            self.finish_touch(slot);
                        }
                    }
                }
            }
        }
    }

    fn add_conn(&mut self, stream: TcpStream) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.slot_gen.push(0);
            self.conns.len() - 1
        });
        self.slot_gen[slot] += 1;
        let fd = stream.as_raw_fd();
        if self
            .poller
            .register(fd, slot as u64, Interest::READ)
            .is_err()
        {
            self.free.push(slot);
            self.open.fetch_sub(1, Ordering::SeqCst);
            if let Some(m) = &self.srv_metrics {
                m.conn_closed();
            }
            return;
        }
        loco_log::debug!("net.conn", "connection adopted";
            worker = self.idx, slot = slot);
        self.conns[slot] = Some(ConnState {
            stream,
            gen: self.slot_gen[slot],
            read_buf: Vec::new(),
            read_pos: 0,
            out: Vec::new(),
            out_pos: 0,
            buf_stamp: Instant::now(),
            inflight: 0,
            interest: Interest::READ,
            peer_closed: false,
            close_after_flush: false,
        });
        // Bytes may already be queued on the socket.
        self.pump_read(slot);
        self.finish_touch(slot);
    }

    fn admission_blocked(&self, slot: usize) -> bool {
        self.conns[slot].as_ref().is_some_and(|c| {
            c.inflight >= self.opts.pipeline_limit.max(1)
                || c.pending_out() >= self.opts.write_buf_limit.max(1)
        })
    }

    /// Interleave parsing buffered frames with non-blocking reads until
    /// the socket runs dry, the peer closes, or admission control says
    /// stop (then the socket is deliberately left unread).
    fn pump_read(&mut self, slot: usize) {
        let mut parsed = 0u64;
        let mut chunk = [0u8; READ_CHUNK];
        'outer: loop {
            loop {
                if self.conns[slot].is_none() || self.admission_blocked(slot) {
                    break 'outer;
                }
                match self.try_parse(slot) {
                    Ok(Some((kind, req_id, payload))) => {
                        if kind == FrameKind::Request {
                            parsed += 1;
                        }
                        let ok = match kind {
                            FrameKind::Request => self.dispatch_request(slot, req_id, payload),
                            FrameKind::Control => self.dispatch_control(slot, &payload),
                            // A client must never send Response or
                            // Error frames.
                            FrameKind::Response | FrameKind::Error => Err(()),
                        };
                        if ok.is_err() {
                            self.close_conn(slot);
                            break 'outer;
                        }
                    }
                    Ok(None) => break,
                    Err(()) => {
                        // Corrupt frame: close only this connection;
                        // the client observes the drop and retries.
                        loco_log::warn!("net.conn", "corrupt frame; closing connection";
                            worker = self.idx, slot = slot);
                        self.close_conn(slot);
                        break 'outer;
                    }
                }
            }
            let Some(conn) = self.conns[slot].as_mut() else {
                break;
            };
            if conn.peer_closed {
                break;
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.peer_closed = true;
                    break;
                }
                Ok(n) => {
                    if !conn.buffered() {
                        // The buffer was fully parsed: these bytes are
                        // the oldest unconsumed ones — (re)stamp their
                        // arrival for the deadline-budget check.
                        conn.buf_stamp = Instant::now();
                    }
                    conn.read_buf.extend_from_slice(&chunk[..n]);
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::Interrupted =>
                {
                    break;
                }
                Err(_) => {
                    self.close_conn(slot);
                    break;
                }
            }
        }
        if parsed > 0 {
            if let Some(m) = &self.srv_metrics {
                m.pipeline_depth(parsed);
            }
        }
    }

    /// Try to cut one complete frame out of the read buffer.
    /// `Ok(None)` = need more bytes; `Err` = corrupt.
    #[allow(clippy::type_complexity)]
    fn try_parse(&mut self, slot: usize) -> Result<Option<(FrameKind, u64, Vec<u8>)>, ()> {
        let conn = self.conns[slot].as_mut().ok_or(())?;
        let avail = conn.read_buf.len() - conn.read_pos;
        if avail < HEADER_LEN {
            return Ok(None);
        }
        let header: [u8; HEADER_LEN] = conn.read_buf[conn.read_pos..conn.read_pos + HEADER_LEN]
            .try_into()
            .unwrap();
        let (kind, req_id, len, crc) = decode_header(&header).map_err(|_| ())?;
        if avail < HEADER_LEN + len {
            return Ok(None);
        }
        let start = conn.read_pos + HEADER_LEN;
        let payload = conn.read_buf[start..start + len].to_vec();
        if crc32(&payload) != crc {
            return Err(());
        }
        conn.read_pos += HEADER_LEN + len;
        if conn.read_pos == conn.read_buf.len() {
            conn.read_buf.clear();
            conn.read_pos = 0;
        } else if conn.read_pos > READ_CHUNK {
            conn.read_buf.drain(..conn.read_pos);
            conn.read_pos = 0;
        }
        Ok(Some((kind, req_id, payload)))
    }

    /// Decode + run one request under the service lock, then either
    /// park the reply with the committer (durable mutation, group
    /// commit active) or queue it for writing directly.
    fn dispatch_request(&mut self, slot: usize, req_id: u64, payload: Vec<u8>) -> Result<(), ()> {
        let arrived = self.conns[slot].as_ref().ok_or(())?.buf_stamp;
        let guard_on = self.guard && !self.draining;
        // Deadline derived from the frame's budget field (0 = none).
        // Peeked, not decoded — expired and shed requests must be
        // rejected before the codec or the service lock touch them.
        let deadline = match peek_budget_ms(&payload) {
            Some(b) if guard_on && b > 0 => Some(arrived + Duration::from_millis(b as u64)),
            _ => None,
        };
        if deadline.is_some_and(|d| Instant::now() >= d) {
            // Budget consumed while the bytes sat in this worker's
            // read buffer (admission backpressure): the caller gave
            // up — drop without executing. Decode only for the label.
            let op = RpcRequest::<S::Req>::from_wire(&payload)
                .map(|r| S::req_label(&r.body))
                .unwrap_or("?");
            if let Some(m) = &self.srv_metrics {
                m.expired(op);
            }
            let frame = encode_frame(FrameKind::Error, req_id, &[REJECT_EXPIRED]);
            self.push_out(slot, &frame);
            return Ok(());
        }
        if guard_on && peek_body_tag(&payload).is_none_or(S::tag_mutates) {
            // Admission control: past the watermarks, mutations are
            // shed with a fast pre-decode reject (no WAL touch) while
            // reads still drain.
            let inflight_hit =
                self.opts.max_inflight > 0 && self.parked_total >= self.opts.max_inflight;
            let queue_hit = self.opts.shed_watermark > 0
                && self
                    .commit
                    .as_ref()
                    .is_some_and(|c| c.depth.load(Ordering::Relaxed) >= self.opts.shed_watermark);
            if inflight_hit || queue_hit {
                if let Some(m) = &self.srv_metrics {
                    if inflight_hit {
                        m.shed_inflight();
                    } else {
                        m.shed_queue();
                    }
                }
                let frame = encode_frame(FrameKind::Error, req_id, &[REJECT_OVERLOADED]);
                self.push_out(slot, &frame);
                return Ok(());
            }
        }
        let rpc = RpcRequest::<S::Req>::from_wire(&payload).map_err(|_| ())?;
        let traced = rpc.trace.is_some_and(|t| t.sampled);
        let op = S::req_label(&rpc.body);
        // Logs emitted anywhere under the handler (WAL, KV, fault
        // sites) carry the sampled op's trace identity.
        let _span = rpc
            .trace
            .filter(|t| t.sampled)
            .map(|t| loco_log::span_scope(t.trace_id, t.span_id as u64));
        if let Some(m) = &self.opts.metrics {
            m.begin();
        }
        let received = Instant::now();
        let mut guard = lock(&self.svc);
        // As with the in-process endpoints: queue wait is the real time
        // spent waiting for the single-writer service, here the mutex.
        let queue_ns = received.elapsed().as_nanos() as Nanos;
        // Re-check the deadline now that the lock is held: the mutex
        // wait is the dominant queue on a loaded server, and a request
        // that expired in it must not execute (this is what makes
        // "expired requests never reach the WAL" exact, not
        // best-effort).
        if deadline.is_some_and(|d| Instant::now() >= d) {
            drop(guard);
            if let Some(m) = &self.opts.metrics {
                m.abort();
            }
            if let Some(m) = &self.srv_metrics {
                m.expired(op);
            }
            let frame = encode_frame(FrameKind::Error, req_id, &[REJECT_EXPIRED]);
            self.push_out(slot, &frame);
            return Ok(());
        }
        let alloc0 = loco_obs::alloc::snapshot();
        let body = guard.handle(rpc.body);
        let (allocs, alloc_bytes) = alloc0.delta();
        let cost = guard.take_cost();
        let attrs = if traced || self.opts.metrics.is_some() {
            guard.span_attrs()
        } else {
            Vec::new()
        };
        let span = traced.then(|| {
            let mut attrs = attrs.clone();
            attrs.push(("allocs", allocs));
            attrs.push(("alloc_bytes", alloc_bytes));
            SpanReply {
                op,
                queue_ns,
                attrs,
            }
        });
        let repl = guard.take_repl_stamp();
        let group = self.commit.is_some() && !self.draining;
        let ticket = if self.commit.is_some() {
            guard.take_commit_ticket()
        } else {
            None
        };
        // Read under the service lock: a stage that began before this
        // handler ran is counted, so the next one covers its records.
        let due = self
            .commit
            .as_ref()
            .map_or(0, |c| c.stages.load(Ordering::Relaxed) + 1);
        if ticket.is_some() && !group {
            // Draining: the committer no longer waits on this worker,
            // so make the records durable inline before replying.
            guard.commit_flush();
            if guard.commit_abort() {
                // Quorum failed during the inline flush: never ack.
                if let Some(m) = &self.opts.metrics {
                    m.abort();
                }
                return Err(());
            }
        }
        drop(guard);
        if let Some(m) = &self.opts.metrics {
            let kv_ns = attrs
                .iter()
                .find(|(k, _)| *k == "kv_ns")
                .map(|(_, v)| *v)
                .unwrap_or(0);
            m.observe_profiled(op, cost, queue_ns, kv_ns, allocs, alloc_bytes);
        }
        let resp = RpcResponse {
            cost,
            span,
            repl,
            body,
        }
        .to_wire();
        if resp.len() > MAX_PAYLOAD {
            return Err(());
        }
        let frame = encode_frame(FrameKind::Response, req_id, &resp);
        if let (Some(c), true) = (&self.commit, ticket.is_some() && group) {
            let conn = self.conns[slot].as_mut().ok_or(())?;
            conn.inflight += 1;
            let gen = conn.gen;
            self.parked_total += 1;
            let mut st = lock(&c.state);
            let was_empty = st.waiters.is_empty();
            st.waiters.push(CommitWaiter {
                worker: self.idx,
                slot,
                gen,
                req_id,
                op,
                expires_at: deadline,
                due,
                parked: Instant::now(),
                frame,
            });
            c.depth.store(st.waiters.len(), Ordering::Relaxed);
            // Only a waiter that finds the queue empty wakes the
            // committer: while the queue is non-empty the committer is
            // awake or already woken, and it re-checks the queue before
            // it sleeps.
            // Skipping the per-request futex wake saves a syscall and,
            // on small boxes, a context switch per operation.
            if was_empty {
                c.cv.notify_all();
            }
        } else {
            self.push_out(slot, &frame);
        }
        Ok(())
    }

    fn dispatch_control(&mut self, slot: usize, payload: &[u8]) -> Result<(), ()> {
        let msg = Control::from_wire(payload).map_err(|_| ())?;
        let (reply, stop) = match msg {
            Control::Ping => (ControlReply::Pong, false),
            Control::Metrics => {
                let text = self
                    .opts
                    .registry
                    .as_ref()
                    .map(|r| r.render_prometheus())
                    .unwrap_or_default();
                (ControlReply::Metrics(text), false)
            }
            Control::Shutdown => {
                loco_log::info!("net.srv", "shutdown requested over control frame");
                self.shutdown.store(true, Ordering::SeqCst);
                (ControlReply::ShuttingDown, true)
            }
            Control::Profile => {
                let text = self
                    .opts
                    .registry
                    .as_ref()
                    .map(|r| loco_obs::render_folded(&loco_obs::fold_snapshot(&r.snapshot())))
                    .unwrap_or_default();
                (ControlReply::Profile(text), false)
            }
            Control::Series => {
                let text = self
                    .opts
                    .series
                    .as_ref()
                    .map(|s| s.to_json())
                    .unwrap_or_else(|| "{}".to_string());
                (ControlReply::Series(text), false)
            }
            Control::Logs { cursor, max } => (
                ControlReply::Logs(loco_log::tail_json(cursor, max as usize)),
                false,
            ),
        };
        let frame = encode_frame(FrameKind::Response, 0, &reply.to_wire());
        self.push_out(slot, &frame);
        if stop {
            if let Some(conn) = self.conns[slot].as_mut() {
                conn.close_after_flush = true;
            }
        }
        Ok(())
    }

    fn push_out(&mut self, slot: usize, frame: &[u8]) {
        if let Some(conn) = self.conns[slot].as_mut() {
            conn.out.extend_from_slice(frame);
        }
        // Opportunistic flush: most replies fit the socket buffer and
        // never need a writable event.
        self.flush_out(slot);
    }

    fn flush_out(&mut self, slot: usize) {
        let mut failed = false;
        {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            while conn.out_pos < conn.out.len() {
                match conn.stream.write(&conn.out[conn.out_pos..]) {
                    Ok(0) => {
                        failed = true;
                        break;
                    }
                    Ok(n) => conn.out_pos += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
            if conn.out_pos == conn.out.len() {
                conn.out.clear();
                conn.out_pos = 0;
            }
        }
        if failed {
            self.close_conn(slot);
        }
    }

    /// Re-derive the poller interest set after touching a connection,
    /// and close it once every owed byte has been delivered.
    fn finish_touch(&mut self, slot: usize) {
        let blocked = self.admission_blocked(slot);
        let (fd, want, cur, done) = {
            let Some(conn) = self.conns[slot].as_ref() else {
                return;
            };
            let done = conn.pending_out() == 0
                && conn.inflight == 0
                && (conn.close_after_flush || (conn.peer_closed && !conn.buffered()));
            let want = Interest {
                read: !conn.peer_closed && !blocked,
                write: conn.pending_out() > 0,
            };
            (conn.stream.as_raw_fd(), want, conn.interest, done)
        };
        if done {
            self.close_conn(slot);
            return;
        }
        if want != cur && self.poller.modify(fd, slot as u64, want).is_ok() {
            // Admission-control transitions are the interesting edge:
            // reads pausing means this connection out-ran its pipeline
            // or write-buffer budget and real TCP backpressure begins.
            // Log resumes always, pauses only when backpressure (not
            // peer close) drove them.
            if want.read != cur.read && (blocked || !cur.read) {
                loco_log::debug!("net.conn",
                    if want.read { "backpressure released: reads resumed" }
                    else { "backpressure: reads paused" };
                    worker = self.idx, slot = slot);
            }
            if let Some(conn) = self.conns[slot].as_mut() {
                conn.interest = want;
            }
        }
    }

    /// One drain iteration: pump every live connection, close the idle
    /// ones. Returns whether any connection still has work in flight.
    fn drain_sweep(&mut self) -> bool {
        let mut busy = false;
        for slot in 0..self.conns.len() {
            if self.conns[slot].is_none() {
                continue;
            }
            self.pump_read(slot);
            self.flush_out(slot);
            match self.conns[slot].as_ref() {
                None => continue,
                Some(c) if c.idle() => self.close_conn(slot),
                Some(_) => busy = true,
            }
        }
        busy
    }

    fn close_conn(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            loco_log::debug!("net.conn", "connection closed";
                worker = self.idx, slot = slot,
                unsent = conn.pending_out(), inflight = conn.inflight);
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            self.free.push(slot);
            self.open.fetch_sub(1, Ordering::SeqCst);
            if let Some(m) = &self.srv_metrics {
                m.conn_closed();
            }
        }
    }
}

fn drain_wake(rx: &UnixStream) {
    let mut buf = [0u8; 256];
    loop {
        match (&*rx).read(&mut buf) {
            Ok(n) if n == buf.len() => {}
            _ => break,
        }
    }
}

// ----- acceptor ---------------------------------------------------------

/// Body of the accept thread spawned by [`crate::serve_tcp`]: brings up
/// workers and (for durable services) the group committer, accepts and
/// distributes connections, runs periodic maintenance, and coordinates
/// the graceful drain.
pub(crate) fn run<S>(
    listener: TcpListener,
    svc: Arc<Mutex<S>>,
    shutdown: Arc<AtomicBool>,
    opts: ServeOptions,
    id: ServerId,
) where
    S: Service + 'static,
    S::Req: Wire,
    S::Resp: Wire,
{
    let opts = Arc::new(opts);
    let srv_metrics = opts
        .registry
        .as_ref()
        .map(|r| ServerMetrics::register(r, id));
    let n_workers = if opts.workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(4)
    } else {
        opts.workers.min(64)
    };
    let guard = guard_enabled();
    let deferred = group_commit_enabled() && lock(&svc).defer_sync(true);
    let commit = deferred.then(|| {
        Arc::new(CommitShared {
            state: Mutex::new(CommitState {
                waiters: Vec::new(),
                producing: n_workers,
            }),
            cv: Condvar::new(),
            depth: AtomicUsize::new(0),
            stages: AtomicU64::new(0),
        })
    });
    let open = Arc::new(AtomicUsize::new(0));

    let mut wake_readers = Vec::with_capacity(n_workers);
    let mut handle_vec = Vec::with_capacity(n_workers);
    for _ in 0..n_workers {
        let Ok((tx, rx)) = UnixStream::pair() else {
            return; // no wake pipes: cannot run at all
        };
        let _ = tx.set_nonblocking(true);
        wake_readers.push(rx);
        handle_vec.push(WorkerHandle {
            inbox: Mutex::new(Vec::new()),
            wake: tx,
        });
    }
    let handles = Arc::new(handle_vec);

    let mut threads: Vec<JoinHandle<()>> = Vec::new();
    for (i, wake_rx) in wake_readers.into_iter().enumerate() {
        let Ok(poller) = Poller::new() else { return };
        let worker = Worker {
            idx: i,
            svc: Arc::clone(&svc),
            shutdown: Arc::clone(&shutdown),
            opts: Arc::clone(&opts),
            srv_metrics: srv_metrics.clone(),
            commit: commit.clone(),
            handles: Arc::clone(&handles),
            open: Arc::clone(&open),
            poller,
            conns: Vec::new(),
            slot_gen: Vec::new(),
            free: Vec::new(),
            draining: false,
            guard,
            parked_total: 0,
        };
        if let Ok(h) = std::thread::Builder::new()
            .name(format!("locod-worker-{i}"))
            .spawn(move || worker.run(wake_rx))
        {
            threads.push(h);
        }
    }

    let committer = commit.as_ref().and_then(|c| {
        let svc = Arc::clone(&svc);
        let c = Arc::clone(c);
        let workers = Arc::clone(&handles);
        let m = srv_metrics.clone();
        std::thread::Builder::new()
            .name("locod-commit".into())
            .spawn(move || committer_loop(svc, c, workers, m))
            .ok()
    });

    // Publish recovery counters immediately so a scrape right after
    // boot sees how much state was replayed.
    run_maintain(&svc, &opts, id, false);
    let mut last_maintain = Instant::now();

    let apoller = Poller::new().ok().and_then(|mut p| {
        p.register(listener.as_raw_fd(), 0, Interest::READ)
            .ok()
            .map(|()| p)
    });
    let mut apoller = apoller;
    let mut events = Vec::new();
    let mut next_worker = 0usize;
    while !shutdown.load(Ordering::SeqCst) {
        match &mut apoller {
            Some(p) => {
                let _ = p.wait(&mut events, Some(TICK));
                if let Some(m) = &srv_metrics {
                    m.wakeup();
                }
            }
            None => std::thread::sleep(Duration::from_millis(2)),
        }
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if opts.max_conns > 0 && open.load(Ordering::SeqCst) >= opts.max_conns {
                        loco_log::warn!("net.srv", "connection shed: at max-conns";
                            open = open.load(Ordering::SeqCst), max = opts.max_conns);
                        if let Some(m) = &srv_metrics {
                            m.conn_shed();
                        }
                        drop(stream);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_nonblocking(true);
                    open.fetch_add(1, Ordering::SeqCst);
                    if let Some(m) = &srv_metrics {
                        m.conn_opened();
                    }
                    handles[next_worker].send(InboxMsg::Conn(stream));
                    next_worker = (next_worker + 1) % n_workers;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    shutdown.store(true, Ordering::SeqCst);
                    break;
                }
            }
        }
        if let Some(every) = opts.maintain_every {
            if last_maintain.elapsed() >= every {
                run_maintain(&svc, &opts, id, false);
                last_maintain = Instant::now();
            }
        }
    }
    // Stop accepting before the drain so redialing clients get a fast
    // "connection refused" rather than a connection nobody will read.
    loco_log::info!("net.srv", "draining: listener closed";
        open = open.load(Ordering::SeqCst));
    drop(listener);
    for h in handles.iter() {
        h.kick();
    }
    for h in threads {
        let _ = h.join();
    }
    if let Some(h) = committer {
        let _ = h.join();
    }
    // All pending groups were flushed by the committer or inline; turn
    // deferral off so post-drain maintenance sees a settled store.
    lock(&svc).defer_sync(false);
    // A crash here models dying after the last ack but before the
    // shutdown checkpoint — recovery must replay the WAL.
    loco_faults::crashpoint("daemon_drain");
    run_maintain(&svc, &opts, id, true);
    loco_log::info!("net.srv", "drain complete");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::CommitFsync;

    fn waiter(slot: usize, due: u64) -> CommitWaiter {
        CommitWaiter {
            worker: 0,
            slot,
            gen: 1,
            req_id: slot as u64,
            op: "Put",
            expires_at: None,
            due,
            parked: Instant::now(),
            frame: vec![slot as u8],
        }
    }

    fn shared() -> Arc<CommitShared> {
        Arc::new(CommitShared {
            state: Mutex::new(CommitState::default()),
            cv: Condvar::new(),
            depth: AtomicUsize::new(0),
            stages: AtomicU64::new(0),
        })
    }

    /// A durable service whose fsync parks `late` while it runs, like a
    /// worker that appended before the stage but parked after it.
    struct Wal {
        unsynced: u64,
        shared: Arc<CommitShared>,
        late: Vec<CommitWaiter>,
    }

    impl Service for Wal {
        type Req = ();
        type Resp = ();
        fn handle(&mut self, _: ()) {}
        fn take_cost(&mut self) -> Nanos {
            0
        }
        fn commit_flush_begin(&mut self) -> Option<(u64, CommitFsync)> {
            let n = std::mem::take(&mut self.unsynced);
            if n == 0 {
                return None;
            }
            let shared = Arc::clone(&self.shared);
            let late = std::mem::take(&mut self.late);
            Some((
                n,
                Box::new(move || lock(&shared.state).waiters.extend(late)),
            ))
        }
    }

    fn released(by_worker: &mut [Vec<ReplyMsg>]) -> Vec<usize> {
        by_worker[0].drain(..).map(|r| r.slot).collect()
    }

    /// A durable service whose every commit fails its replication
    /// quorum, and whose group-commit fsync waits for `gate` to open.
    struct NoQuorum {
        gate: Arc<AtomicBool>,
    }

    impl Service for NoQuorum {
        type Req = ();
        type Resp = ();
        fn handle(&mut self, _: ()) {}
        fn take_cost(&mut self) -> Nanos {
            0
        }
        fn defer_sync(&mut self, _on: bool) -> bool {
            true
        }
        fn take_commit_ticket(&mut self) -> Option<u64> {
            Some(1)
        }
        fn commit_flush_begin(&mut self) -> Option<(u64, CommitFsync)> {
            let gate = Arc::clone(&self.gate);
            Some((
                1,
                Box::new(move || {
                    while !gate.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }),
            ))
        }
        fn commit_abort(&mut self) -> bool {
            true
        }
    }

    #[test]
    fn a_quorum_failure_while_draining_leaves_nothing_in_flight() {
        use crate::metrics::EndpointMetrics;
        let gate = Arc::new(AtomicBool::new(false));
        let svc = Arc::new(Mutex::new(NoQuorum {
            gate: Arc::clone(&gate),
        }));
        let id = ServerId::new(crate::class::DMS, 0);
        let metrics = EndpointMetrics::register(&loco_obs::MetricsRegistry::shared(), id);
        let opts = ServeOptions {
            metrics: Some(Arc::clone(&metrics)),
            workers: 1,
            pipeline_limit: 1,
            ..Default::default()
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let server = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || run(listener, svc, shutdown, opts, id))
        };
        // Two durable requests in one write: the first parks behind the
        // gated fsync, the second stays buffered behind it.
        let req = RpcRequest {
            budget_ms: 0,
            trace: None,
            body: (),
        }
        .to_wire();
        let mut bytes = encode_frame(FrameKind::Request, 1, &req);
        bytes.extend(encode_frame(FrameKind::Request, 2, &req));
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(&bytes).unwrap();
        while metrics.requests() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Once draining, the worker flushes the second request inline,
        // and that flush fails its quorum.
        shutdown.store(true, Ordering::SeqCst);
        std::thread::sleep(TICK * 2);
        gate.store(true, Ordering::SeqCst);
        server.join().unwrap();
        assert_eq!(metrics.requests(), 1);
        assert_eq!(metrics.inflight(), 0);
    }

    #[test]
    fn a_stage_releases_every_waiter_it_covers_and_no_other() {
        let shared = shared();
        lock(&shared.state)
            .waiters
            .extend([waiter(1, 1), waiter(3, 2)]);
        let svc = Mutex::new(Wal {
            unsynced: 2,
            shared: Arc::clone(&shared),
            late: vec![waiter(2, 1)],
        });
        let mut by_worker = vec![Vec::new()];

        // Stage 1 covers the waiter parked before it and the one that
        // parked during its fsync; the waiter due at stage 2 stays.
        commit_round(&svc, &shared, None, &mut by_worker);
        assert_eq!(released(&mut by_worker), vec![1, 2]);
        assert_eq!(shared.depth.load(Ordering::Relaxed), 1);

        // Nothing left to sync (a checkpoint made it durable): stage 2
        // issues no fsync but still releases what it covers.
        commit_round(&svc, &shared, None, &mut by_worker);
        assert_eq!(released(&mut by_worker), vec![3]);
        assert_eq!(shared.stages.load(Ordering::Relaxed), 2);
        assert!(lock(&shared.state).waiters.is_empty());
    }

    /// Stages its quorum wait with no records to fsync, like a
    /// replicated primary after a maintenance sync.
    struct QuorumOnly;

    impl Service for QuorumOnly {
        type Req = ();
        type Resp = ();
        fn handle(&mut self, _: ()) {}
        fn take_cost(&mut self) -> Nanos {
            0
        }
        fn commit_flush_begin(&mut self) -> Option<(u64, CommitFsync)> {
            Some((0, Box::new(|| {})))
        }
    }

    #[test]
    fn a_stage_covering_no_records_adds_no_fsync_sample() {
        let registry = Arc::new(loco_obs::MetricsRegistry::new());
        let id = ServerId::new(crate::class::DMS, 0);
        let metrics = ServerMetrics::register(&registry, id);
        let shared = shared();
        lock(&shared.state).waiters.push(waiter(1, 1));
        let mut by_worker = vec![Vec::new()];
        commit_round(
            &Mutex::new(QuorumOnly),
            &shared,
            Some(&*metrics),
            &mut by_worker,
        );
        assert_eq!(released(&mut by_worker), vec![1]);
        let fsyncs =
            registry.histogram("loco_wal_fsync_nanos", &[("role", "dms"), ("server", "0")]);
        assert_eq!(fsyncs.count(), 0);
    }
}
