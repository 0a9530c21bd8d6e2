//! `loco-repl` — warm-standby WAL replication for the DMS.
//!
//! The paper's loosely-coupled design leaves the directory metadata
//! server as the one component every operation routes through; this
//! crate makes it survive node loss. The primary's `DurableStore`
//! already seals every mutation into a crc-complete *commit group*
//! (PR 5's group commit); a commit tap hands those sealed bytes to a
//! [`GroupRing`], and per-standby shipper threads forward them verbatim
//! over loco-rpc (`ReplAppend`). Standbys apply them torn-tail-safely
//! into a live shadow store and ack with their durable high-water mark;
//! the primary's group-commit fsync then waits on a configurable
//! [`AckPolicy`] quorum before any client sees an acknowledgement.
//!
//! ## Epochs and fencing
//!
//! Every promotion bumps a monotonically increasing **epoch** (persisted
//! through the replicated KV itself, so it survives restarts and rides
//! the WAL to every replica). The epoch travels on every replicated
//! record batch and every client-visible reply:
//!
//! * a standby rejects `ReplAppend` from a lower epoch — the stale
//!   primary sees the higher epoch in the rejection and **self-fences**
//!   (stops acking client mutations, permanently);
//! * clients that receive a fenced reply redial through the updated
//!   `LOCO_CLUSTER` view (`FencedEpoch` fast-path in the TCP endpoint).
//!
//! ## Leases
//!
//! The primary heartbeats each standby every `lease/3` even when idle.
//! A standby whose last valid primary contact is older than `2×lease`
//! considers the lease expired and becomes *promotion-eligible*; with
//! auto-promotion enabled (`LOCO_REPL_AUTO_PROMOTE=1`, fleet-wide)
//! standby rank `r` promotes itself after `(2 + r) × lease` of
//! silence, so the fleet picks a single winner without a coordinator
//! in the common case. Two guards keep an automatic promotion from
//! racing a primary that is alive but unreachable:
//!
//! * **isolation fence** — with auto-promotion armed, a primary that
//!   has not completed an exchange with *any* standby for one lease
//!   self-fences (stops acking, for the rest of the process lifetime),
//!   a full lease before the earliest standby timer (`2×lease`) can
//!   fire on the same silence. This is a CP trade: in a 1+1 fleet a
//!   *dead* peer also fences the survivor until the peer is restarted
//!   (boot role comes from flags, so a reboot heals the fleet);
//! * **promotion gate** — before self-promoting, a standby probes its
//!   peers (`ReplStatus`): a reachable live primary, a standby that
//!   heard the primary within the last lease, or any higher epoch
//!   vetoes the promotion, and in fleets of three or more replicas a
//!   majority of the replica set must corroborate the loss — a lone
//!   partitioned standby cannot crown itself.
//!
//! Operator-driven promotion (auto-promotion off, the default) has no
//! silent-primary fence: a stale primary fences only on first contact
//! with the new epoch. With `--repl-ack one|all` it still cannot ack
//! in the interim (no standby at its epoch covers its batches), which
//! is what the zero-acked-loss guarantee rests on; `--repl-ack none`
//! explicitly trades that guarantee for latency.
//!
//! The crate is transport-agnostic: `loco-dms` carries the frames and
//! `locod` supplies a [`ReplTransport`] per peer, so `loco-repl`
//! depends only on the logging/metrics substrate.

use loco_obs::metrics::MetricsRegistry;
use loco_types::wire::{Wire, WireResult};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Default byte cap on the in-memory ring of sealed commit groups
/// (override with `LOCO_REPL_RING_BYTES`). A standby that falls further
/// behind than the ring covers is caught up with a full snapshot.
pub const DEFAULT_RING_BYTES: usize = 4 << 20;

/// Largest batch of ring bytes shipped in one `ReplAppend`.
pub const MAX_SHIP_BYTES: usize = 1 << 20;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ----- roles + policies -------------------------------------------------

/// Replication role of a DMS daemon.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Serving clients, shipping groups to standbys.
    Primary,
    /// Applying replicated groups; rejects client operations.
    Standby,
    /// A former primary that observed a higher epoch: rejects client
    /// operations forever (until an operator re-promotes it).
    Fenced,
}

impl Role {
    /// Stable wire byte (rides `ReplInfo`).
    pub fn as_u8(self) -> u8 {
        match self {
            Role::Primary => 1,
            Role::Standby => 2,
            Role::Fenced => 3,
        }
    }

    /// Decode the wire byte.
    pub fn from_u8(b: u8) -> Option<Self> {
        match b {
            1 => Some(Role::Primary),
            2 => Some(Role::Standby),
            3 => Some(Role::Fenced),
            _ => None,
        }
    }

    /// Human spelling (logs, `locotop`).
    pub fn as_str(self) -> &'static str {
        match self {
            Role::Primary => "primary",
            Role::Standby => "standby",
            Role::Fenced => "fenced",
        }
    }
}

/// How many standby acks the primary's group-commit fsync waits for
/// before client acks release (`--repl-ack`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AckPolicy {
    /// Asynchronous replication: ack after the local fsync only. A
    /// failover can lose the unshipped tail (documented trade-off).
    None,
    /// Ack once the local fsync plus at least one standby covered the
    /// batch — survives any single node loss without losing acks.
    One,
    /// Ack only when every standby covered the batch (CP choice: a
    /// dead standby stalls writes until it returns or is removed).
    All,
}

impl AckPolicy {
    /// Parse a CLI/env spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "none" | "async" => Some(Self::None),
            "one" | "quorum" => Some(Self::One),
            "all" | "sync" => Some(Self::All),
            _ => None,
        }
    }

    /// Canonical CLI spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::None => "none",
            Self::One => "one",
            Self::All => "all",
        }
    }
}

// ----- wire types -------------------------------------------------------

/// Replication control reply: every `ReplAppend`/`ReplSnapshot`/
/// `ReplStatus` answers with the replica's view of the world.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplInfo {
    /// The request was accepted (`false`: epoch rejected or seq
    /// mismatch — consult `epoch` and `next_seq` to decide between
    /// fencing and back-fill).
    pub ok: bool,
    /// The replica's current epoch.
    pub epoch: u64,
    /// The next WAL sequence number the replica expects.
    pub next_seq: u64,
    /// The replica's [`Role`] byte.
    pub role: u8,
    /// Ms since the replica last heard a valid primary (0 on a primary
    /// — it *is* the feed; `u64::MAX` when unreplicated). Peers use
    /// this to corroborate a primary loss before auto-promoting.
    pub silence_ms: u64,
}

impl Wire for ReplInfo {
    fn put(&self, out: &mut Vec<u8>) {
        self.ok.put(out);
        self.epoch.put(out);
        self.next_seq.put(out);
        self.role.put(out);
        self.silence_ms.put(out);
    }
    fn get(buf: &mut &[u8]) -> WireResult<Self> {
        Ok(ReplInfo {
            ok: bool::get(buf)?,
            epoch: u64::get(buf)?,
            next_seq: u64::get(buf)?,
            role: u8::get(buf)?,
            silence_ms: u64::get(buf)?,
        })
    }
}

// ----- the commit-group ring --------------------------------------------

struct RingEntry {
    first: u64,
    last: u64,
    bytes: Vec<u8>,
}

/// Byte-capped in-memory buffer of sealed commit groups, contiguous in
/// sequence space. Shippers replay from it; when a standby needs
/// records the ring no longer holds, the primary falls back to a full
/// snapshot.
pub struct GroupRing {
    entries: VecDeque<RingEntry>,
    bytes: usize,
    cap: usize,
}

impl GroupRing {
    /// Empty ring with the given byte cap.
    pub fn new(cap: usize) -> Self {
        Self {
            entries: VecDeque::new(),
            bytes: 0,
            cap: cap.max(1),
        }
    }

    /// Append one sealed group. A discontinuity (snapshot install,
    /// ring handed between roles) drops the stale prefix rather than
    /// ever serving a gap.
    pub fn push(&mut self, first: u64, last: u64, bytes: &[u8]) {
        if let Some(back) = self.entries.back() {
            if first != back.last + 1 {
                self.entries.clear();
                self.bytes = 0;
            }
        }
        self.bytes += bytes.len();
        self.entries.push_back(RingEntry {
            first,
            last,
            bytes: bytes.to_vec(),
        });
        while self.bytes > self.cap && self.entries.len() > 1 {
            if let Some(old) = self.entries.pop_front() {
                self.bytes -= old.bytes.len();
            }
        }
    }

    /// Sealed groups currently buffered.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no groups are buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes currently buffered.
    pub fn byte_len(&self) -> usize {
        self.bytes
    }

    /// Highest sequence number buffered (0 when empty).
    pub fn last_seq(&self) -> u64 {
        self.entries.back().map(|e| e.last).unwrap_or(0)
    }

    /// Collect up to `max_bytes` of groups starting exactly at `seq`.
    /// `None` means the ring no longer covers `seq` (snapshot needed);
    /// an empty vec means the peer is already caught up.
    pub fn collect_from(&self, seq: u64, max_bytes: usize) -> Option<Vec<(u64, u64, Vec<u8>)>> {
        let Some(front) = self.entries.front() else {
            return Some(Vec::new());
        };
        if seq > self.last_seq() {
            return Some(Vec::new());
        }
        if seq < front.first {
            return None;
        }
        let mut out = Vec::new();
        let mut total = 0usize;
        let mut expect = seq;
        for e in &self.entries {
            if e.last < seq {
                continue;
            }
            if e.first != expect {
                // `seq` falls mid-group (a snapshot boundary drifted):
                // groups are atomic, so back-fill with a snapshot.
                return if out.is_empty() { None } else { Some(out) };
            }
            if total + e.bytes.len() > max_bytes && !out.is_empty() {
                break;
            }
            total += e.bytes.len();
            out.push((e.first, e.last, e.bytes.clone()));
            expect = e.last + 1;
        }
        Some(out)
    }
}

// ----- shared control state ---------------------------------------------

/// Per-standby replication state tracked by the primary.
pub struct PeerState {
    /// The standby's RPC address.
    pub addr: String,
    /// Highest sequence number known durable on the peer.
    acked: AtomicU64,
    /// The peer's next expected sequence (0 = unknown, probe first).
    next: AtomicU64,
    /// The last exchange succeeded.
    up: AtomicBool,
    /// Monotonic ms of the last successful exchange.
    last_ok_ms: AtomicU64,
}

impl PeerState {
    /// Highest sequence number known durable on this peer.
    pub fn acked(&self) -> u64 {
        self.acked.load(Ordering::Acquire)
    }

    /// Whether the last exchange with this peer succeeded.
    pub fn is_up(&self) -> bool {
        self.up.load(Ordering::Acquire)
    }
}

/// Shared replication control block: epoch, role, lease clocks, the
/// commit-group ring, and the ack quorum the group committer waits on.
/// One per DMS daemon, shared between the `DirServer` (under the
/// service lock) and the [`Replicator`] threads (outside it).
pub struct ReplCtl {
    epoch: AtomicU64,
    role: AtomicU8,
    ack: AckPolicy,
    lease: Duration,
    peers: Vec<PeerState>,
    ring: Mutex<GroupRing>,
    /// Paired with `ring`: signalled on new groups and role changes.
    work: Condvar,
    acks: Mutex<()>,
    ack_cv: Condvar,
    /// A quorum wait failed: the committer must drop (not send) the
    /// parked replies of that batch.
    abort_pending: AtomicBool,
    /// Monotonic ms of the last valid contact from a primary
    /// (standby-side lease clock).
    last_primary_ms: AtomicU64,
    /// Highest epoch ever observed (local or remote) — promotion bumps
    /// past it.
    max_seen_epoch: AtomicU64,
    start: Instant,
    shutdown: AtomicBool,
}

impl ReplCtl {
    /// New control block. `peers` are the standby RPC addresses (for a
    /// booting standby: the other replicas it would ship to *after* a
    /// promotion).
    pub fn new(
        epoch: u64,
        role: Role,
        ack: AckPolicy,
        lease: Duration,
        peers: Vec<String>,
    ) -> Self {
        let ring_cap = std::env::var("LOCO_REPL_RING_BYTES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_RING_BYTES);
        let now = Instant::now();
        Self {
            epoch: AtomicU64::new(epoch),
            role: AtomicU8::new(role.as_u8()),
            ack,
            lease,
            peers: peers
                .into_iter()
                .map(|addr| PeerState {
                    addr,
                    acked: AtomicU64::new(0),
                    next: AtomicU64::new(0),
                    up: AtomicBool::new(false),
                    last_ok_ms: AtomicU64::new(0),
                })
                .collect(),
            ring: Mutex::new(GroupRing::new(ring_cap)),
            work: Condvar::new(),
            acks: Mutex::new(()),
            ack_cv: Condvar::new(),
            abort_pending: AtomicBool::new(false),
            last_primary_ms: AtomicU64::new(0),
            max_seen_epoch: AtomicU64::new(epoch),
            start: now,
            shutdown: AtomicBool::new(false),
        }
    }

    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// Current fencing epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Current role.
    pub fn role(&self) -> Role {
        Role::from_u8(self.role.load(Ordering::Acquire)).unwrap_or(Role::Fenced)
    }

    /// The configured ack policy.
    pub fn ack_policy(&self) -> AckPolicy {
        self.ack
    }

    /// The configured lease duration.
    pub fn lease(&self) -> Duration {
        self.lease
    }

    /// The tracked peers (shippers index into this).
    pub fn peers(&self) -> &[PeerState] {
        &self.peers
    }

    /// Record an epoch observed anywhere in the system.
    pub fn observe_epoch(&self, epoch: u64) {
        self.max_seen_epoch.fetch_max(epoch, Ordering::AcqRel);
    }

    /// Highest epoch ever observed.
    pub fn max_seen_epoch(&self) -> u64 {
        self.max_seen_epoch.load(Ordering::Acquire)
    }

    /// Adopt a role + epoch (promotion, demotion, or adopting a higher
    /// epoch from a legitimate primary). Logs the transition and wakes
    /// every waiter so shippers/committers re-evaluate immediately.
    pub fn transition(&self, role: Role, epoch: u64) {
        let old_role = self.role();
        let old_epoch = self.epoch();
        self.epoch.store(epoch, Ordering::Release);
        self.observe_epoch(epoch);
        self.role.store(role.as_u8(), Ordering::Release);
        if old_role != role || old_epoch != epoch {
            loco_log::info!("repl.election", "replication role transition";
                from = old_role.as_str(),
                to = role.as_str(),
                old_epoch = old_epoch,
                epoch = epoch);
        }
        let _g = lock(&self.ring);
        self.work.notify_all();
        drop(_g);
        let _g = lock(&self.acks);
        self.ack_cv.notify_all();
    }

    /// Self-fence: a higher epoch exists. Idempotent; never lowers the
    /// observed epoch.
    pub fn fence(&self, seen_epoch: u64) {
        self.observe_epoch(seen_epoch);
        if self.role() == Role::Fenced {
            return;
        }
        loco_log::warn!("repl.election", "higher epoch observed: self-fencing";
            my_epoch = self.epoch(),
            seen_epoch = seen_epoch);
        self.fence_now();
    }

    /// Isolation fence: a primary that cannot complete an exchange with
    /// any standby for a full lease stops acking *before* any standby's
    /// staggered auto-promotion timer (earliest `2×lease`) can fire.
    /// Only meaningful with auto-promotion armed; the lease monitor
    /// owns the trigger.
    pub fn fence_isolated(&self) {
        if self.role() != Role::Primary {
            return;
        }
        loco_log::warn!("repl.lease", "no standby reachable within one lease: self-fencing";
            epoch = self.epoch(),
            silence_ms = self.peer_silence_ms(),
            lease_ms = self.lease.as_millis() as u64);
        self.fence_now();
    }

    fn fence_now(&self) {
        self.transition(Role::Fenced, self.epoch());
        // Fail any in-flight quorum waits — their batches must not ack.
        self.abort_pending.store(true, Ordering::Release);
        let _g = lock(&self.acks);
        self.ack_cv.notify_all();
    }

    /// Feed one sealed commit group into the ring (the store's commit
    /// tap) and wake the shippers.
    pub fn push_group(&self, first: u64, last: u64, bytes: &[u8]) {
        let mut ring = lock(&self.ring);
        ring.push(first, last, bytes);
        self.work.notify_all();
    }

    /// Run `f` against the ring (shippers collect batches through this).
    pub fn with_ring<R>(&self, f: impl FnOnce(&mut GroupRing) -> R) -> R {
        f(&mut lock(&self.ring))
    }

    /// Block until new work may exist (a group, a role change, or the
    /// timeout — whichever first).
    pub fn wait_work(&self, timeout: Duration) {
        let g = lock(&self.ring);
        let _ = self.work.wait_timeout(g, timeout);
    }

    /// Standby-side: record a valid contact from a primary at `epoch`.
    pub fn note_primary_contact(&self, epoch: u64) {
        self.observe_epoch(epoch);
        self.last_primary_ms.store(self.now_ms(), Ordering::Release);
    }

    /// Standby-side: ms since the last valid primary contact (since
    /// boot if none yet — a fresh standby starts its lease clock at
    /// construction, so promotion eligibility is never instant).
    pub fn primary_silence_ms(&self) -> u64 {
        self.now_ms()
            .saturating_sub(self.last_primary_ms.load(Ordering::Acquire))
    }

    /// The lease has been silent past `2×lease`: this standby may be
    /// promoted. Automatic promotion additionally waits out the rank
    /// stagger and the peer-corroboration gate (see the module docs);
    /// an operator promoting manually owns that judgement.
    pub fn promotion_eligible(&self) -> bool {
        self.role() == Role::Standby
            && self.primary_silence_ms() >= 2 * self.lease.as_millis() as u64
    }

    /// Primary-side: ms since the last completed exchange with *any*
    /// peer (since boot if none yet — mirrors the standby lease clock,
    /// so the isolation fence and the standby promotion timers measure
    /// the same silence window).
    pub fn peer_silence_ms(&self) -> u64 {
        let now = self.now_ms();
        self.peers
            .iter()
            .map(|p| now.saturating_sub(p.last_ok_ms.load(Ordering::Acquire)))
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Primary-side: record the outcome of one exchange with peer `i`.
    /// Wakes quorum waiters on success. The durable-ack watermark only
    /// advances on an accepting reply from a standby: a refusal from an
    /// equal-epoch rival primary reports *its own* divergent WAL cursor,
    /// which must never count toward this primary's quorum.
    pub fn note_peer(&self, i: usize, info: Option<&ReplInfo>) {
        let Some(p) = self.peers.get(i) else { return };
        match info {
            Some(info) => {
                self.observe_epoch(info.epoch);
                p.next.store(info.next_seq, Ordering::Release);
                p.up.store(true, Ordering::Release);
                p.last_ok_ms.store(self.now_ms(), Ordering::Release);
                if info.ok || Role::from_u8(info.role) == Some(Role::Standby) {
                    p.acked
                        .store(info.next_seq.saturating_sub(1), Ordering::Release);
                    let _g = lock(&self.acks);
                    self.ack_cv.notify_all();
                }
            }
            None => p.up.store(false, Ordering::Release),
        }
    }

    /// The peer's next expected sequence (0 = unknown).
    pub fn peer_next(&self, i: usize) -> u64 {
        self.peers
            .get(i)
            .map(|p| p.next.load(Ordering::Acquire))
            .unwrap_or(0)
    }

    fn quorum_met(&self, last_seq: u64) -> bool {
        let covered = self
            .peers
            .iter()
            .filter(|p| p.acked.load(Ordering::Acquire) >= last_seq)
            .count();
        match self.ack {
            AckPolicy::None => true,
            AckPolicy::One => covered >= 1.min(self.peers.len()),
            AckPolicy::All => covered >= self.peers.len(),
        }
    }

    /// Block until the ack quorum covers `last_seq`, the node fences,
    /// or the timeout expires. `true` = safe to ack. On failure the
    /// abort flag is raised so the committer drops the batch's replies.
    pub fn wait_quorum(&self, last_seq: u64, timeout: Duration) -> bool {
        if self.role() == Role::Fenced {
            // A fenced node never acks — even under `ack=none`, where
            // there is no quorum to wait for.
            self.abort_pending.store(true, Ordering::Release);
            return false;
        }
        if self.ack == AckPolicy::None || self.peers.is_empty() {
            return true;
        }
        let deadline = Instant::now() + timeout;
        let mut g = lock(&self.acks);
        loop {
            if self.role() == Role::Fenced {
                self.abort_pending.store(true, Ordering::Release);
                return false;
            }
            if self.quorum_met(last_seq) {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                loco_log::warn!("repl.quorum", "ack quorum timed out; dropping batch replies";
                    last_seq = last_seq,
                    policy = self.ack.as_str(),
                    timeout_ms = timeout.as_millis() as u64);
                self.abort_pending.store(true, Ordering::Release);
                return false;
            }
            let (g2, _) = self
                .ack_cv
                .wait_timeout(g, deadline - now)
                .unwrap_or_else(|e| {
                    let (g, t) = e.into_inner();
                    (g, t)
                });
            g = g2;
        }
    }

    /// Take (and clear) the pending batch-abort flag.
    pub fn take_abort(&self) -> bool {
        self.abort_pending.swap(false, Ordering::AcqRel)
    }

    /// Signal the replicator threads to exit.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        let _g = lock(&self.ring);
        self.work.notify_all();
    }

    /// Whether shutdown was requested.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }
}

// ----- the replicator ---------------------------------------------------

/// Transport to one peer replica, supplied by the daemon (an RPC
/// endpoint speaking the DMS `ReplAppend`/`ReplSnapshot`/`ReplStatus`
/// frames). Shared between the peer's shipper thread and the lease
/// monitor, hence `Sync`.
pub trait ReplTransport: Send + Sync {
    /// Ship one sealed commit group (`group` empty = heartbeat/probe).
    fn append(&self, epoch: u64, first_seq: u64, group: &[u8]) -> Result<ReplInfo, String>;
    /// Ship a full snapshot envelope covering sequences `..= last_seq`.
    fn snapshot(&self, epoch: u64, last_seq: u64, image: &[u8]) -> Result<ReplInfo, String>;
    /// Read-only probe of the peer's replication state. Unlike an
    /// empty `append`, this must NOT renew the peer's lease clock —
    /// the pre-promotion gate uses it to ask peers how long ago *they*
    /// heard the primary.
    fn status(&self) -> Result<ReplInfo, String>;
}

/// Reads the highest locally appended WAL sequence number.
pub type LastSeqFn = Arc<dyn Fn() -> u64 + Send + Sync>;
/// Builds a snapshot envelope: `(last_covered_seq, bytes)`.
pub type SnapshotFn = Arc<dyn Fn() -> Option<(u64, Vec<u8>)> + Send + Sync>;

/// Pulls state the shippers need from under the service lock.
pub struct ReplHost {
    /// Highest sequence number appended locally (`next_seq - 1`).
    pub last_seq: LastSeqFn,
    /// Build a snapshot envelope: `(last_covered_seq, bytes)`.
    pub snapshot: SnapshotFn,
    /// Promote this node (runs the same path as an explicit `Promote`
    /// request; used by auto-promotion).
    pub promote: Arc<dyn Fn() + Send + Sync>,
}

/// Tuning knobs for [`Replicator::spawn`].
pub struct ReplicatorConfig {
    /// Heartbeat cadence when idle (default `lease/3`).
    pub heartbeat: Duration,
    /// Standby rank for staggered auto-promotion (its index).
    pub rank: u64,
    /// Auto-promote after `(2 + rank) × lease` of primary silence.
    pub auto_promote: bool,
}

/// Background replication threads: one shipper per standby plus a
/// lease monitor. Threads park when the node is not primary and wake on
/// role transitions, so one `Replicator` serves the node across its
/// whole primary/standby lifecycle.
pub struct Replicator {
    ctl: Arc<ReplCtl>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Replicator {
    /// Spawn the shipper + monitor threads. `transports` pairs with
    /// `ctl.peers()` by index.
    pub fn spawn(
        ctl: Arc<ReplCtl>,
        transports: Vec<Box<dyn ReplTransport>>,
        host: ReplHost,
        registry: Option<Arc<MetricsRegistry>>,
        cfg: ReplicatorConfig,
    ) -> Self {
        assert_eq!(transports.len(), ctl.peers().len());
        // The lease monitor shares the transports with the shippers:
        // its pre-promotion gate probes peers with `status()`.
        let transports: Vec<Arc<dyn ReplTransport>> =
            transports.into_iter().map(Arc::from).collect();
        let mut threads = Vec::new();
        for (i, transport) in transports.iter().cloned().enumerate() {
            let ctl2 = ctl.clone();
            let host_last = host.last_seq.clone();
            let host_snap = host.snapshot.clone();
            let reg = registry.clone();
            let hb = cfg.heartbeat;
            threads.push(
                std::thread::Builder::new()
                    .name(format!("loco-repl-ship-{i}"))
                    .spawn(move || {
                        ship_loop(
                            &ctl2,
                            i,
                            transport.as_ref(),
                            &host_last,
                            &host_snap,
                            reg.as_deref(),
                            hb,
                        )
                    })
                    .expect("spawn replication shipper"),
            );
        }
        {
            let ctl2 = ctl.clone();
            let promote = host.promote.clone();
            let reg = registry.clone();
            let rank = cfg.rank;
            let auto = cfg.auto_promote;
            threads.push(
                std::thread::Builder::new()
                    .name("loco-repl-lease".into())
                    .spawn(move || {
                        lease_loop(&ctl2, &transports, &promote, reg.as_deref(), rank, auto)
                    })
                    .expect("spawn replication lease monitor"),
            );
        }
        Self { ctl, threads }
    }

    /// Stop the threads and join them.
    pub fn stop(mut self) {
        self.ctl.shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn publish_gauges(
    reg: Option<&MetricsRegistry>,
    ctl: &ReplCtl,
    peer: &str,
    lag_records: u64,
    lag_bytes: u64,
) {
    let Some(reg) = reg else { return };
    let labels: &[(&str, &str)] = &[("peer", peer)];
    reg.gauge("loco_repl_lag_records", labels)
        .set(lag_records as i64);
    reg.gauge("loco_repl_lag_bytes", labels)
        .set(lag_bytes as i64);
    reg.gauge("loco_repl_epoch", &[]).set(ctl.epoch() as i64);
    reg.gauge("loco_repl_role", &[])
        .set(ctl.role().as_u8() as i64);
}

/// One shipper: keeps peer `i` converged with the local WAL. Heartbeats
/// on idle (the standby's lease feed), replays the ring on lag, falls
/// back to a snapshot when the ring no longer covers the peer.
fn ship_loop(
    ctl: &ReplCtl,
    i: usize,
    transport: &dyn ReplTransport,
    last_seq: &LastSeqFn,
    snapshot: &SnapshotFn,
    reg: Option<&MetricsRegistry>,
    heartbeat: Duration,
) {
    let peer_addr = ctl.peers()[i].addr.clone();
    let mut last_beat = Instant::now() - heartbeat; // probe immediately
    loop {
        if ctl.is_shutdown() {
            return;
        }
        if ctl.role() != Role::Primary {
            ctl.wait_work(heartbeat);
            continue;
        }
        let epoch = ctl.epoch();
        let target = last_seq();
        let pn = ctl.peer_next(i);
        // Decide: probe (unknown peer), replay the ring, or snapshot.
        let batch = if pn == 0 {
            None // unknown: probe via heartbeat below
        } else {
            match ctl.with_ring(|r| r.collect_from(pn, MAX_SHIP_BYTES)) {
                Some(groups) => Some(groups),
                None => {
                    // The ring no longer covers the peer: full snapshot.
                    let Some((snap_last, image)) = snapshot() else {
                        ctl.wait_work(heartbeat);
                        continue;
                    };
                    loco_log::info!("repl.ship", "standby behind ring: shipping snapshot";
                        peer = peer_addr.clone(),
                        peer_next = pn,
                        snap_last = snap_last,
                        bytes = image.len() as u64);
                    match transport.snapshot(epoch, snap_last, &image) {
                        Ok(info) if info.epoch > epoch => {
                            ctl.fence(info.epoch);
                            continue;
                        }
                        Ok(info) => {
                            ctl.note_peer(i, Some(&info));
                            continue;
                        }
                        Err(e) => {
                            loco_log::warn!("repl.ship", "snapshot ship failed";
                                peer = peer_addr.clone(), error = e);
                            ctl.note_peer(i, None);
                            std::thread::sleep(heartbeat);
                            continue;
                        }
                    }
                }
            }
        };
        match batch {
            Some(groups) if !groups.is_empty() => {
                let mut ok = true;
                for (first, glast, bytes) in groups {
                    match transport.append(epoch, first, &bytes) {
                        Ok(info) if info.epoch > epoch => {
                            ctl.fence(info.epoch);
                            ok = false;
                            break;
                        }
                        Ok(info) => {
                            ctl.note_peer(i, Some(&info));
                            if !info.ok {
                                // Seq mismatch: the reply told us the
                                // peer's real cursor; re-plan.
                                ok = false;
                                break;
                            }
                            loco_log::trace!("repl.ship", "group shipped";
                                peer = peer_addr.clone(),
                                first = first,
                                last = glast,
                                bytes = bytes.len() as u64);
                        }
                        Err(e) => {
                            loco_log::warn!("repl.ship", "group ship failed";
                                peer = peer_addr.clone(), error = e);
                            ctl.note_peer(i, None);
                            ok = false;
                            std::thread::sleep(heartbeat);
                            break;
                        }
                    }
                }
                last_beat = Instant::now();
                let acked = ctl.peers()[i].acked();
                let lag = target.saturating_sub(acked);
                let lag_bytes = ctl.with_ring(|r| r.byte_len() as u64).min(lag * 64);
                publish_gauges(reg, ctl, &peer_addr, lag, lag_bytes);
                if !ok {
                    continue;
                }
            }
            _ => {
                // Caught up (or cursor unknown): heartbeat to feed the
                // standby's lease and learn its cursor.
                if last_beat.elapsed() >= heartbeat {
                    match transport.append(epoch, 0, &[]) {
                        Ok(info) if info.epoch > epoch => ctl.fence(info.epoch),
                        Ok(info) => {
                            ctl.note_peer(i, Some(&info));
                            let lag = target.saturating_sub(info.next_seq.saturating_sub(1));
                            publish_gauges(reg, ctl, &peer_addr, lag, 0);
                        }
                        Err(e) => {
                            loco_log::debug!("repl.ship", "heartbeat failed";
                                peer = peer_addr.clone(), error = e);
                            ctl.note_peer(i, None);
                        }
                    }
                    last_beat = Instant::now();
                }
                ctl.wait_work(heartbeat.min(Duration::from_millis(50)));
            }
        }
    }
}

/// Pre-promotion election gate: ask the other replicas whether they
/// corroborate the primary loss this standby observed. Vetoed by a
/// reachable live primary, a peer that heard the primary within the
/// last lease, or any higher epoch (an election already concluded
/// elsewhere — its stream will reach us). Fleets of three or more
/// replicas additionally require a majority of the replica set
/// (corroborating peers + this node) to agree, so a standby that is
/// itself the partitioned one cannot crown itself; a lone pair cannot
/// make that distinction, and relies on the primary-side isolation
/// fence instead.
fn promotion_confirmed(
    ctl: &ReplCtl,
    transports: &[Arc<dyn ReplTransport>],
    lease_ms: u64,
) -> bool {
    let mut corroborating = 0usize;
    for (i, t) in transports.iter().enumerate() {
        let Ok(info) = t.status() else { continue };
        ctl.observe_epoch(info.epoch);
        let peer = ctl.peers()[i].addr.clone();
        if info.epoch > ctl.epoch() {
            loco_log::debug!("repl.lease", "promotion gate: peer already at a higher epoch";
                peer = peer, epoch = info.epoch);
            return false;
        }
        match Role::from_u8(info.role) {
            Some(Role::Primary) => {
                loco_log::debug!("repl.lease", "promotion gate: peer is a live primary";
                    peer = peer, epoch = info.epoch);
                return false;
            }
            Some(Role::Standby) if info.silence_ms < lease_ms => {
                loco_log::debug!("repl.lease", "promotion gate: peer still hears the primary";
                    peer = peer, peer_silence_ms = info.silence_ms);
                return false;
            }
            // A fenced peer has certainly stopped acking; it counts as
            // corroboration just like a silent standby.
            Some(Role::Standby) | Some(Role::Fenced) => corroborating += 1,
            None => {}
        }
    }
    transports.len() <= 1 || 2 * (corroborating + 1) > transports.len() + 1
}

/// Lease monitor. On a standby: tracks primary silence and (with
/// auto-promotion armed) self-promotes at `(2 + rank) × lease` once
/// [`promotion_confirmed`] agrees. On a primary with auto-promotion
/// armed: enforces the isolation fence — one lease without a completed
/// standby exchange and the node stops acking, strictly before any
/// standby's promotion timer can fire. Also keeps the role/epoch
/// gauges fresh.
fn lease_loop(
    ctl: &ReplCtl,
    transports: &[Arc<dyn ReplTransport>],
    promote: &Arc<dyn Fn() + Send + Sync>,
    reg: Option<&MetricsRegistry>,
    rank: u64,
    auto_promote: bool,
) {
    let lease_ms = ctl.lease().as_millis() as u64;
    let mut announced_expired = false;
    let mut announced_withheld = false;
    loop {
        if ctl.is_shutdown() {
            return;
        }
        if let Some(reg) = reg {
            reg.gauge("loco_repl_epoch", &[]).set(ctl.epoch() as i64);
            reg.gauge("loco_repl_role", &[])
                .set(ctl.role().as_u8() as i64);
        }
        match ctl.role() {
            Role::Primary
                if auto_promote && !ctl.peers().is_empty() && ctl.peer_silence_ms() >= lease_ms =>
            {
                ctl.fence_isolated();
            }
            Role::Standby => {
                let silence = ctl.primary_silence_ms();
                if silence >= 2 * lease_ms && !announced_expired {
                    announced_expired = true;
                    loco_log::warn!("repl.lease", "primary lease expired; promotion-eligible";
                        silence_ms = silence,
                        lease_ms = lease_ms,
                        rank = rank);
                } else if silence < lease_ms {
                    announced_expired = false;
                    announced_withheld = false;
                }
                if auto_promote && silence >= (2 + rank) * lease_ms {
                    if promotion_confirmed(ctl, transports, lease_ms) {
                        loco_log::warn!("repl.lease", "auto-promoting after staggered lease expiry";
                            silence_ms = silence, rank = rank);
                        announced_withheld = false;
                        promote();
                        // The promote path transitions the role; loop back.
                    } else if !announced_withheld {
                        announced_withheld = true;
                        loco_log::warn!("repl.lease", "auto-promotion withheld: peers do not corroborate primary loss";
                            silence_ms = silence, rank = rank);
                    }
                }
            }
            _ => {}
        }
        std::thread::sleep(Duration::from_millis((lease_ms / 4).clamp(5, 250)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_and_policies_roundtrip() {
        for r in [Role::Primary, Role::Standby, Role::Fenced] {
            assert_eq!(Role::from_u8(r.as_u8()), Some(r));
        }
        assert_eq!(Role::from_u8(0), None);
        for (s, p) in [
            ("none", AckPolicy::None),
            ("one", AckPolicy::One),
            ("all", AckPolicy::All),
        ] {
            assert_eq!(AckPolicy::parse(s), Some(p));
            assert_eq!(AckPolicy::parse(p.as_str()), Some(p));
        }
        assert_eq!(AckPolicy::parse("maybe"), None);
        let info = ReplInfo {
            ok: true,
            epoch: 7,
            next_seq: 42,
            role: Role::Standby.as_u8(),
            silence_ms: 0,
        };
        assert_eq!(ReplInfo::from_wire(&info.to_wire()), Ok(info));
    }

    #[test]
    fn ring_replays_contiguous_ranges() {
        let mut ring = GroupRing::new(1 << 20);
        ring.push(1, 2, b"aa");
        ring.push(3, 3, b"b");
        ring.push(4, 6, b"ccc");
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.last_seq(), 6);
        let all = ring.collect_from(1, usize::MAX).unwrap();
        assert_eq!(all.len(), 3);
        let tail = ring.collect_from(4, usize::MAX).unwrap();
        assert_eq!(tail, vec![(4, 6, b"ccc".to_vec())]);
        assert_eq!(
            ring.collect_from(7, usize::MAX),
            Some(Vec::new()),
            "caught-up peer gets nothing"
        );
        // Mid-group cursor and pre-ring cursor need a snapshot.
        assert_eq!(ring.collect_from(5, usize::MAX), None);
        ring = GroupRing::new(4); // tiny cap: evicts the front
        ring.push(1, 1, b"xx");
        ring.push(2, 2, b"yy");
        ring.push(3, 3, b"zz");
        assert!(
            ring.collect_from(1, usize::MAX).is_none(),
            "evicted: snapshot"
        );
        assert!(ring.collect_from(3, usize::MAX).is_some());
    }

    #[test]
    fn ring_discontinuity_drops_stale_prefix() {
        let mut ring = GroupRing::new(1 << 20);
        ring.push(1, 5, b"aaaaa");
        ring.push(100, 101, b"bb"); // snapshot reset the seq space
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.collect_from(100, usize::MAX).unwrap().len(), 1);
        assert_eq!(ring.collect_from(1, usize::MAX), None);
    }

    #[test]
    fn ring_batches_respect_byte_budget() {
        let mut ring = GroupRing::new(1 << 20);
        ring.push(1, 1, &[0u8; 600]);
        ring.push(2, 2, &[0u8; 600]);
        ring.push(3, 3, &[0u8; 600]);
        let batch = ring.collect_from(1, 1000).unwrap();
        assert_eq!(batch.len(), 1, "second group would bust the budget");
        // But a single over-budget group still ships (progress beats
        // the cap).
        let batch = ring.collect_from(1, 10).unwrap();
        assert_eq!(batch.len(), 1);
    }

    #[test]
    fn quorum_policies_gate_on_peer_acks() {
        let mk = |ack| {
            Arc::new(ReplCtl::new(
                1,
                Role::Primary,
                ack,
                Duration::from_millis(50),
                vec!["a:1".into(), "b:2".into()],
            ))
        };
        // none: instant.
        assert!(mk(AckPolicy::None).wait_quorum(10, Duration::from_millis(1)));
        // one: blocks until any peer covers the seq.
        let ctl = mk(AckPolicy::One);
        assert!(!ctl.wait_quorum(10, Duration::from_millis(20)));
        assert!(ctl.take_abort(), "timeout raised the abort flag");
        ctl.note_peer(
            0,
            Some(&ReplInfo {
                ok: true,
                epoch: 1,
                next_seq: 11,
                role: Role::Standby.as_u8(),
                silence_ms: 0,
            }),
        );
        assert!(ctl.wait_quorum(10, Duration::from_millis(20)));
        // all: every peer must cover it.
        assert!(
            !ctl.wait_quorum(10, Duration::from_millis(5)) || ctl.ack_policy() != AckPolicy::All
        );
        let ctl = mk(AckPolicy::All);
        ctl.note_peer(
            0,
            Some(&ReplInfo {
                ok: true,
                epoch: 1,
                next_seq: 11,
                role: Role::Standby.as_u8(),
                silence_ms: 0,
            }),
        );
        assert!(!ctl.wait_quorum(10, Duration::from_millis(20)));
        let _ = ctl.take_abort();
        ctl.note_peer(
            1,
            Some(&ReplInfo {
                ok: true,
                epoch: 1,
                next_seq: 11,
                role: Role::Standby.as_u8(),
                silence_ms: 0,
            }),
        );
        assert!(ctl.wait_quorum(10, Duration::from_millis(20)));
    }

    #[test]
    fn quorum_wait_from_another_thread_unblocks() {
        let ctl = Arc::new(ReplCtl::new(
            1,
            Role::Primary,
            AckPolicy::One,
            Duration::from_millis(100),
            vec!["a:1".into()],
        ));
        let c2 = ctl.clone();
        let acker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            c2.note_peer(
                0,
                Some(&ReplInfo {
                    ok: true,
                    epoch: 1,
                    next_seq: 100,
                    role: Role::Standby.as_u8(),
                    silence_ms: 0,
                }),
            );
        });
        assert!(ctl.wait_quorum(99, Duration::from_secs(2)));
        acker.join().unwrap();
    }

    #[test]
    fn fencing_fails_quorum_waits_and_sticks() {
        let ctl = Arc::new(ReplCtl::new(
            3,
            Role::Primary,
            AckPolicy::One,
            Duration::from_millis(50),
            vec!["a:1".into()],
        ));
        let c2 = ctl.clone();
        let fencer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            c2.fence(9);
        });
        assert!(
            !ctl.wait_quorum(5, Duration::from_secs(2)),
            "fenced: no ack"
        );
        fencer.join().unwrap();
        assert!(ctl.take_abort());
        assert_eq!(ctl.role(), Role::Fenced);
        assert_eq!(ctl.max_seen_epoch(), 9);
        // Fencing is idempotent and epoch observation is monotonic.
        ctl.fence(4);
        assert_eq!(ctl.max_seen_epoch(), 9);
    }

    #[test]
    fn standby_lease_clock_tracks_primary_contact() {
        let ctl = ReplCtl::new(
            1,
            Role::Standby,
            AckPolicy::One,
            Duration::from_millis(10),
            Vec::new(),
        );
        assert!(!ctl.promotion_eligible(), "fresh standby not yet eligible");
        std::thread::sleep(Duration::from_millis(25));
        assert!(ctl.promotion_eligible(), "2x lease of silence");
        ctl.note_primary_contact(1);
        assert!(!ctl.promotion_eligible(), "contact resets the clock");
    }

    #[test]
    fn shipper_converges_a_sim_standby_and_fences_on_higher_epoch() {
        use std::sync::Mutex as StdMutex;
        // A fake standby: applies groups by recording (first, bytes),
        // acks with a moving next_seq, and can be armed to answer with
        // a higher epoch.
        struct SimStandby {
            next: AtomicU64,
            applied: StdMutex<Vec<(u64, Vec<u8>)>>,
            fence_with: AtomicU64,
        }
        impl ReplTransport for Arc<SimStandby> {
            fn append(&self, epoch: u64, first_seq: u64, group: &[u8]) -> Result<ReplInfo, String> {
                let fence = self.fence_with.load(Ordering::Acquire);
                if fence > epoch {
                    return Ok(ReplInfo {
                        ok: false,
                        epoch: fence,
                        next_seq: self.next.load(Ordering::Acquire),
                        role: Role::Primary.as_u8(),
                        silence_ms: 0,
                    });
                }
                if !group.is_empty() && first_seq == self.next.load(Ordering::Acquire) {
                    // Count records = count of commit groups' records is
                    // opaque here; the sim advances by one group.
                    self.applied
                        .lock()
                        .unwrap()
                        .push((first_seq, group.to_vec()));
                    self.next.store(first_seq + 1, Ordering::Release);
                }
                Ok(ReplInfo {
                    ok: true,
                    epoch,
                    next_seq: self.next.load(Ordering::Acquire),
                    role: Role::Standby.as_u8(),
                    silence_ms: 0,
                })
            }
            fn snapshot(
                &self,
                epoch: u64,
                last_seq: u64,
                _image: &[u8],
            ) -> Result<ReplInfo, String> {
                self.next.store(last_seq + 1, Ordering::Release);
                Ok(ReplInfo {
                    ok: true,
                    epoch,
                    next_seq: last_seq + 1,
                    role: Role::Standby.as_u8(),
                    silence_ms: 0,
                })
            }
            fn status(&self) -> Result<ReplInfo, String> {
                Ok(ReplInfo {
                    ok: true,
                    epoch: 1,
                    next_seq: self.next.load(Ordering::Acquire),
                    role: Role::Standby.as_u8(),
                    silence_ms: 0,
                })
            }
        }

        let standby = Arc::new(SimStandby {
            next: AtomicU64::new(1),
            applied: StdMutex::new(Vec::new()),
            fence_with: AtomicU64::new(0),
        });
        let ctl = Arc::new(ReplCtl::new(
            1,
            Role::Primary,
            AckPolicy::One,
            Duration::from_millis(20),
            vec!["sim:1".into()],
        ));
        let local_last = Arc::new(AtomicU64::new(0));
        let ll = local_last.clone();
        let host = ReplHost {
            last_seq: Arc::new(move || ll.load(Ordering::Acquire)),
            snapshot: Arc::new(|| None),
            promote: Arc::new(|| {}),
        };
        let repl = Replicator::spawn(
            ctl.clone(),
            vec![Box::new(standby.clone())],
            host,
            None,
            ReplicatorConfig {
                heartbeat: Duration::from_millis(5),
                rank: 0,
                auto_promote: false,
            },
        );
        // Feed three single-record groups.
        for seq in 1..=3u64 {
            local_last.store(seq, Ordering::Release);
            ctl.push_group(seq, seq, format!("g{seq}").as_bytes());
        }
        // The quorum wait is the real synchronization point.
        assert!(
            ctl.wait_quorum(3, Duration::from_secs(5)),
            "shipper must converge the standby"
        );
        assert_eq!(standby.applied.lock().unwrap().len(), 3);
        // Now the standby answers with a higher epoch: the shipper must
        // fence this primary.
        standby.fence_with.store(7, Ordering::Release);
        local_last.store(4, Ordering::Release);
        ctl.push_group(4, 4, b"g4");
        for _ in 0..200 {
            if ctl.role() == Role::Fenced {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(ctl.role(), Role::Fenced, "higher epoch must fence");
        assert!(!ctl.wait_quorum(4, Duration::from_millis(50)));
        repl.stop();
    }

    fn info(ok: bool, epoch: u64, next_seq: u64, role: Role, silence_ms: u64) -> ReplInfo {
        ReplInfo {
            ok,
            epoch,
            next_seq,
            role: role.as_u8(),
            silence_ms,
        }
    }

    #[test]
    fn refused_appends_do_not_advance_the_ack_watermark() {
        let ctl = ReplCtl::new(
            1,
            Role::Primary,
            AckPolicy::One,
            Duration::from_millis(50),
            vec!["a:1".into()],
        );
        // An equal-epoch rival primary refuses the append and reports
        // its own divergent WAL cursor: reachability bookkeeping
        // updates, but the durable-ack watermark must not — quorum
        // releases on its strength would ack unreplicated batches.
        ctl.note_peer(0, Some(&info(false, 1, 100, Role::Primary, 0)));
        assert!(ctl.peers()[0].is_up());
        assert_eq!(ctl.peer_next(0), 100);
        assert_eq!(ctl.peers()[0].acked(), 0, "rival cursor must not count");
        assert!(!ctl.wait_quorum(5, Duration::from_millis(10)));
        let _ = ctl.take_abort();
        // A genuine standby refusing a gap still reports a cursor that
        // *is* its durable high-water mark: that one counts.
        ctl.note_peer(0, Some(&info(false, 1, 7, Role::Standby, 0)));
        assert_eq!(ctl.peers()[0].acked(), 6);
        assert!(ctl.wait_quorum(5, Duration::from_millis(10)));
    }

    /// A transport to a peer that never answers.
    struct DeadPeer;
    impl ReplTransport for DeadPeer {
        fn append(&self, _: u64, _: u64, _: &[u8]) -> Result<ReplInfo, String> {
            Err("unreachable".into())
        }
        fn snapshot(&self, _: u64, _: u64, _: &[u8]) -> Result<ReplInfo, String> {
            Err("unreachable".into())
        }
        fn status(&self) -> Result<ReplInfo, String> {
            Err("unreachable".into())
        }
    }

    /// A transport whose `status()` reply is scripted by the test.
    struct FixedStatus(std::sync::Mutex<Result<ReplInfo, String>>);
    impl FixedStatus {
        fn scripted(r: Result<ReplInfo, String>) -> Arc<dyn ReplTransport> {
            Arc::new(FixedStatus(std::sync::Mutex::new(r)))
        }
    }
    impl ReplTransport for FixedStatus {
        fn append(&self, _: u64, _: u64, _: &[u8]) -> Result<ReplInfo, String> {
            // Answer heartbeats with the same scripted reply so a
            // freshly promoted primary in these tests keeps one peer
            // in contact (no spurious isolation fence).
            self.0.lock().unwrap().clone()
        }
        fn snapshot(&self, _: u64, _: u64, _: &[u8]) -> Result<ReplInfo, String> {
            Err("not a shipping target".into())
        }
        fn status(&self) -> Result<ReplInfo, String> {
            self.0.lock().unwrap().clone()
        }
    }

    #[test]
    fn isolated_primary_fences_after_one_lease_without_standby_contact() {
        let ctl = Arc::new(ReplCtl::new(
            3,
            Role::Primary,
            AckPolicy::One,
            Duration::from_millis(30),
            vec!["dead:1".into()],
        ));
        let host = ReplHost {
            last_seq: Arc::new(|| 0),
            snapshot: Arc::new(|| None),
            promote: Arc::new(|| {}),
        };
        let repl = Replicator::spawn(
            ctl.clone(),
            vec![Box::new(DeadPeer)],
            host,
            None,
            ReplicatorConfig {
                heartbeat: Duration::from_millis(10),
                rank: 0,
                auto_promote: true,
            },
        );
        for _ in 0..200 {
            if ctl.role() == Role::Fenced {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            ctl.role(),
            Role::Fenced,
            "one lease of total standby silence must fence an auto-promote primary"
        );
        assert!(!ctl.wait_quorum(1, Duration::from_millis(10)));
        assert!(ctl.take_abort(), "in-flight batches must drop, not ack");
        repl.stop();
    }

    #[test]
    fn isolation_fence_stays_off_without_auto_promote() {
        // Operator-driven fleets (the default) must not fence a healthy
        // primary over a transient standby outage — nothing can promote
        // behind its back without an operator deciding to.
        let ctl = Arc::new(ReplCtl::new(
            3,
            Role::Primary,
            AckPolicy::None,
            Duration::from_millis(10),
            vec!["dead:1".into()],
        ));
        let host = ReplHost {
            last_seq: Arc::new(|| 0),
            snapshot: Arc::new(|| None),
            promote: Arc::new(|| {}),
        };
        let repl = Replicator::spawn(
            ctl.clone(),
            vec![Box::new(DeadPeer)],
            host,
            None,
            ReplicatorConfig {
                heartbeat: Duration::from_millis(5),
                rank: 0,
                auto_promote: false,
            },
        );
        std::thread::sleep(Duration::from_millis(60)); // 6 leases
        assert_eq!(ctl.role(), Role::Primary);
        repl.stop();
    }

    #[test]
    fn promotion_gate_requires_peer_corroboration() {
        let lease_ms = 10u64;
        let ctl = ReplCtl::new(
            1,
            Role::Standby,
            AckPolicy::One,
            Duration::from_millis(lease_ms),
            vec!["p:1".into(), "s:2".into()],
        );
        let dead: Arc<dyn ReplTransport> = Arc::new(DeadPeer);
        // A reachable live primary vetoes: this standby is the
        // partitioned one, not the primary.
        let live_primary = FixedStatus::scripted(Ok(info(true, 1, 9, Role::Primary, 0)));
        assert!(!promotion_confirmed(
            &ctl,
            &[live_primary, dead.clone()],
            lease_ms
        ));
        // A peer that still hears the primary vetoes too.
        let fresh_standby = FixedStatus::scripted(Ok(info(true, 1, 9, Role::Standby, 2)));
        assert!(!promotion_confirmed(
            &ctl,
            &[dead.clone(), fresh_standby],
            lease_ms
        ));
        // A higher epoch anywhere means an election already concluded.
        let promoted = FixedStatus::scripted(Ok(info(true, 5, 9, Role::Standby, 50)));
        assert!(!promotion_confirmed(
            &ctl,
            &[promoted, dead.clone()],
            lease_ms
        ));
        // A fully isolated standby (no peer reachable, fleet of 3)
        // cannot crown itself...
        assert!(!promotion_confirmed(
            &ctl,
            &[dead.clone(), dead.clone()],
            lease_ms
        ));
        // ...but one corroborating silent standby makes a majority of
        // the replica set (2 of 3), and a fenced peer counts the same.
        let silent = FixedStatus::scripted(Ok(info(true, 1, 9, Role::Standby, 40)));
        assert!(promotion_confirmed(&ctl, &[dead.clone(), silent], lease_ms));
        let fenced = FixedStatus::scripted(Ok(info(true, 1, 9, Role::Fenced, 40)));
        assert!(promotion_confirmed(&ctl, &[dead.clone(), fenced], lease_ms));
        // A lone pair cannot distinguish primary death from its own
        // isolation; the primary-side isolation fence covers it, so
        // the gate waives corroboration.
        let ctl2 = ReplCtl::new(
            1,
            Role::Standby,
            AckPolicy::One,
            Duration::from_millis(lease_ms),
            vec!["p:1".into()],
        );
        assert!(promotion_confirmed(
            &ctl2,
            std::slice::from_ref(&dead),
            lease_ms
        ));
    }

    #[test]
    fn auto_promotion_waits_for_the_gate_then_fires() {
        // End-to-end through the lease monitor: a rank-0 standby with a
        // corroborating silent peer self-promotes once its own silence
        // passes 2x lease; the promote hook transitions the role.
        let ctl = Arc::new(ReplCtl::new(
            1,
            Role::Standby,
            AckPolicy::One,
            Duration::from_millis(15),
            vec!["p:1".into(), "s:2".into()],
        ));
        let promoted = Arc::new(AtomicBool::new(false));
        let host = ReplHost {
            last_seq: Arc::new(|| 0),
            snapshot: Arc::new(|| None),
            promote: {
                let ctl = ctl.clone();
                let promoted = promoted.clone();
                Arc::new(move || {
                    promoted.store(true, Ordering::Release);
                    let epoch = ctl.max_seen_epoch().max(ctl.epoch()) + 1;
                    ctl.transition(Role::Primary, epoch);
                })
            },
        };
        let silent = FixedStatus(std::sync::Mutex::new(Ok(info(
            true,
            1,
            9,
            Role::Standby,
            1_000,
        ))));
        let repl = Replicator::spawn(
            ctl.clone(),
            vec![Box::new(DeadPeer), Box::new(silent)],
            host,
            None,
            ReplicatorConfig {
                heartbeat: Duration::from_millis(5),
                rank: 0,
                auto_promote: true,
            },
        );
        for _ in 0..400 {
            if promoted.load(Ordering::Acquire) {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            promoted.load(Ordering::Acquire),
            "gate must allow promotion"
        );
        assert_eq!(ctl.role(), Role::Primary);
        assert_eq!(ctl.epoch(), 2);
        repl.stop();
    }
}
