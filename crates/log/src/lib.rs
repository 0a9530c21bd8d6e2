//! # loco-log — structured, trace-correlated, ring-buffered logging
//!
//! Every daemon keeps the last 4096 log events in a fixed-size in-memory
//! ring; nothing is written to disk by the hot path. Events are
//! structured — a static `target` (subsystem), a static `msg`, and
//! typed `key=value` fields — and automatically carry the trace/span
//! identity of the operation being served (see [`span_scope`]), so a
//! cluster-wide collector can merge per-daemon streams into one
//! timeline keyed by `trace_id`.
//!
//! Cost discipline (same as loco-trace's sampling off-path):
//!
//! * **Disabled level ⇒ one relaxed atomic load.** The [`event!`]
//!   macro evaluates *nothing* — no field expressions, no allocation —
//!   unless the level passes the filter. `LOCO_LOG=off` turns every
//!   site into a load + predictable branch.
//! * **Enabled ⇒ no global lock.** An emitter claims a slot with one
//!   `fetch_add` on the ring head and takes only that slot's guard;
//!   two emitters contend only when they collide on the same slot
//!   modulo the capacity (i.e. one full lap apart).
//! * **Readers never stall writers.** [`tail`] walks the ring
//!   slot-by-slot and simply skips entries that are mid-overwrite;
//!   the cursor protocol re-delivers anything skipped.
//!
//! Environment:
//!
//! * `LOCO_LOG` — minimum level kept in the ring:
//!   `off|error|warn|info|debug|trace` (default `info`);
//! * `LOCO_LOG_STDERR` — minimum level *also* mirrored to stderr as a
//!   text line (default `error`; `off` silences);
//! * `LOCO_LOG_DUMP` — see [`dump_env`]: clients (bench harnesses,
//!   chaos workloads) flush their ring to a JSONL file the collector's
//!   report phase merges into the timeline.
//!
//! The crate depends on nothing, so any layer — including `loco-faults`
//! and `loco-kv`, which sit below the observability stack — can log.

use std::cell::Cell;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

// ----- levels -----------------------------------------------------------

/// Severity of an event. Ordered: `Trace < Debug < Info < Warn < Error`.
#[repr(u8)]
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Per-item detail (per-frame, per-record); high volume.
    Trace = 1,
    /// Per-batch / per-connection detail.
    Debug = 2,
    /// Lifecycle milestones: boot, recovery, checkpoint, drain.
    Info = 3,
    /// Something degraded but survivable: reconnects, sheds, faults.
    Warn = 4,
    /// A request or subsystem failed.
    Error = 5,
}

impl Level {
    /// Lowercase name, as rendered in JSON and text.
    pub fn name(self) -> &'static str {
        match self {
            Level::Trace => "trace",
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parse `trace|debug|info|warn|error`; `off`/unknown ⇒ `None`.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "trace" => Some(Level::Trace),
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" | "warning" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }
}

/// Sentinel meaning "filter not initialized yet" in [`MIN_LEVEL`].
const UNINIT: u8 = 0;
/// Sentinel meaning "everything disabled" (`LOCO_LOG=off`).
const OFF: u8 = u8::MAX;

/// Minimum level kept in the ring. `UNINIT` until first use.
static MIN_LEVEL: AtomicU8 = AtomicU8::new(UNINIT);
/// Minimum level mirrored to stderr (`OFF` disables the mirror).
static STDERR_LEVEL: AtomicU8 = AtomicU8::new(UNINIT);

#[cold]
fn init_levels() -> u8 {
    let ring = match std::env::var("LOCO_LOG") {
        Ok(v) => match Level::parse(&v) {
            Some(l) => l as u8,
            None => OFF, // "off" and anything unparseable
        },
        Err(_) => Level::Info as u8,
    };
    let mirror = match std::env::var("LOCO_LOG_STDERR") {
        Ok(v) => match Level::parse(&v) {
            Some(l) => l as u8,
            None => OFF,
        },
        Err(_) => Level::Error as u8,
    };
    STDERR_LEVEL.store(mirror, Ordering::Relaxed);
    MIN_LEVEL.store(ring, Ordering::Relaxed);
    ring
}

/// Whether events at `level` are currently kept. This is the entire
/// off-path: one relaxed load and a compare.
#[inline]
pub fn enabled(level: Level) -> bool {
    let min = MIN_LEVEL.load(Ordering::Relaxed);
    if min == UNINIT {
        return level as u8 >= init_levels();
    }
    level as u8 >= min
}

/// Override the ring filter at runtime (tests, daemons raising
/// verbosity on demand). `None` ⇒ off.
pub fn set_level(level: Option<Level>) {
    if MIN_LEVEL.load(Ordering::Relaxed) == UNINIT {
        init_levels(); // settle STDERR_LEVEL from env first
    }
    MIN_LEVEL.store(level.map(|l| l as u8).unwrap_or(OFF), Ordering::Relaxed);
}

/// Override the stderr mirror level. `None` ⇒ no mirroring.
pub fn set_stderr_level(level: Option<Level>) {
    if MIN_LEVEL.load(Ordering::Relaxed) == UNINIT {
        init_levels();
    }
    STDERR_LEVEL.store(level.map(|l| l as u8).unwrap_or(OFF), Ordering::Relaxed);
}

/// The current ring filter (`None` = off).
pub fn level() -> Option<Level> {
    match MIN_LEVEL.load(Ordering::Relaxed) {
        UNINIT => match init_levels() {
            OFF => None,
            v => Level::parse_u8(v),
        },
        OFF => None,
        v => Level::parse_u8(v),
    }
}

impl Level {
    fn parse_u8(v: u8) -> Option<Level> {
        match v {
            1 => Some(Level::Trace),
            2 => Some(Level::Debug),
            3 => Some(Level::Info),
            4 => Some(Level::Warn),
            5 => Some(Level::Error),
            _ => None,
        }
    }
}

// ----- values & events --------------------------------------------------

/// A typed field value. Constructed via `From` in the [`event!`] macro;
/// field expressions are only evaluated when the level is enabled.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Owned string (allocates; only on the enabled path).
    Str(String),
}

macro_rules! value_from {
    ($($t:ty => $variant:ident as $conv:ty),* $(,)?) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value { Value::$variant(v as $conv) }
        }
    )*};
}
value_from!(
    u64 => U64 as u64, u32 => U64 as u64, u16 => U64 as u64,
    u8 => U64 as u64, usize => U64 as u64,
    i64 => I64 as i64, i32 => I64 as i64, isize => I64 as i64,
    f64 => F64 as f64, f32 => F64 as f64,
);

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}
impl From<&String> for Value {
    fn from(v: &String) -> Value {
        Value::Str(v.clone())
    }
}
impl From<std::fmt::Arguments<'_>> for Value {
    fn from(v: std::fmt::Arguments<'_>) -> Value {
        Value::Str(v.to_string())
    }
}

impl Value {
    fn write_json(&self, out: &mut String) {
        match self {
            Value::U64(v) => {
                out.push_str(&v.to_string());
            }
            Value::I64(v) => {
                out.push_str(&v.to_string());
            }
            Value::F64(v) => {
                if v.is_finite() {
                    out.push_str(&format!("{v}"));
                } else {
                    out.push_str("null");
                }
            }
            Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Value::Str(v) => write_json_str(out, v),
        }
    }

    fn write_text(&self, out: &mut String) {
        match self {
            Value::U64(v) => out.push_str(&v.to_string()),
            Value::I64(v) => out.push_str(&v.to_string()),
            Value::F64(v) => out.push_str(&format!("{v}")),
            Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Value::Str(v) => {
                if v.contains([' ', '"', '=']) {
                    write_json_str(out, v);
                } else {
                    out.push_str(v);
                }
            }
        }
    }
}

/// Minimal JSON string escaping (the workspace builds offline; this
/// crate depends on nothing, so it carries its own writer).
fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One structured log event as stored in the ring.
#[derive(Clone, Debug)]
pub struct Event {
    /// Monotone per-process sequence number (resets on restart).
    pub seq: u64,
    /// Wall-clock microseconds since the unix epoch (cross-process
    /// merge key; one host ⇒ one clock).
    pub t_us: u64,
    /// Monotonic nanoseconds since logger init (intra-process order
    /// even across wall-clock steps).
    pub mono_ns: u64,
    /// Severity.
    pub level: Level,
    /// Subsystem, dot-separated (`"net.conn"`, `"wal"`, `"faults"`).
    pub target: &'static str,
    /// Static human-readable message; variability goes in `fields`.
    pub msg: &'static str,
    /// Trace identity of the op being served when emitted (0 = none).
    pub trace_id: u64,
    /// Span within the trace (0 = none).
    pub span_id: u64,
    /// Structured `key=value` fields.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// One JSON object (one JSONL line). `source` tags the emitting
    /// process (daemon name); `None` omits the key — the collector
    /// injects it on ingest instead.
    pub fn to_json(&self, source: Option<&str>) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"seq\":");
        out.push_str(&self.seq.to_string());
        out.push_str(",\"t_us\":");
        out.push_str(&self.t_us.to_string());
        out.push_str(",\"mono_ns\":");
        out.push_str(&self.mono_ns.to_string());
        out.push_str(",\"level\":\"");
        out.push_str(self.level.name());
        out.push_str("\",\"target\":");
        write_json_str(&mut out, self.target);
        out.push_str(",\"msg\":");
        write_json_str(&mut out, self.msg);
        if self.trace_id != 0 {
            // Hex string: u64 ids do not survive an f64-based JSON
            // parser (the in-tree one) as numbers.
            out.push_str(",\"trace\":");
            write_json_str(&mut out, &format!("{:016x}", self.trace_id));
            out.push_str(",\"span\":");
            out.push_str(&self.span_id.to_string());
        }
        if let Some(src) = source {
            out.push_str(",\"source\":");
            write_json_str(&mut out, src);
        }
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":{");
            for (i, (k, v)) in self.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_str(&mut out, k);
                out.push(':');
                v.write_json(&mut out);
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// One human-readable text line (what `locod logs` prints).
    pub fn to_text(&self) -> String {
        let secs = self.t_us / 1_000_000;
        let us = self.t_us % 1_000_000;
        let (h, m, s) = (secs / 3600 % 24, secs / 60 % 60, secs % 60);
        let mut out = format!(
            "{h:02}:{m:02}:{s:02}.{us:06} {:5} {:<12} {}",
            self.level.name().to_ascii_uppercase(),
            self.target,
            self.msg
        );
        for (k, v) in &self.fields {
            out.push(' ');
            out.push_str(k);
            out.push('=');
            v.write_text(&mut out);
        }
        if self.trace_id != 0 {
            out.push_str(&format!(" trace={:016x}:{}", self.trace_id, self.span_id));
        }
        out
    }
}

// ----- the ring ---------------------------------------------------------

struct Ring {
    /// Per-slot guards: emitters claim a seq with `fetch_add` on
    /// `head`, then take only slot `seq % capacity`.
    slots: Vec<Mutex<Option<Event>>>,
    /// Next sequence number to claim (== total events ever emitted).
    head: AtomicU64,
    /// Identifies this process incarnation: a cursor obtained from a
    /// previous boot is detected by the reader and reset.
    boot_id: u64,
    /// Base for `mono_ns`.
    start: Instant,
}

static RING: OnceLock<Ring> = OnceLock::new();

fn ring() -> &'static Ring {
    RING.get_or_init(|| {
        let boot_id = wall_us() ^ ((std::process::id() as u64) << 48);
        Ring {
            slots: (0..CAPACITY).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
            boot_id,
            start: Instant::now(),
        }
    })
}

fn wall_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

const CAPACITY: usize = 4096;

/// Ring capacity in events.
pub fn capacity() -> usize {
    CAPACITY
}

/// This process incarnation's identity, carried in every [`tail_json`]
/// reply so a scraper can tell a restart from a quiet daemon.
pub fn boot_id() -> u64 {
    ring().boot_id
}

/// Total events emitted so far (== the next event's `seq`).
pub fn head_seq() -> u64 {
    ring().head.load(Ordering::Acquire)
}

// ----- span correlation -------------------------------------------------

thread_local! {
    /// `(trace_id, span_id)` of the operation this thread is serving.
    static CURRENT_SPAN: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// RAII guard restoring the previous span identity on drop.
pub struct SpanScope {
    prev: (u64, u64),
}

/// Enter a traced operation: until the guard drops, every event this
/// thread emits carries `(trace_id, span_id)`. Request dispatch sites
/// (the epoll worker, the sim endpoint) install one
/// around the service handler for sampled ops.
pub fn span_scope(trace_id: u64, span_id: u64) -> SpanScope {
    let prev = CURRENT_SPAN.with(|c| c.replace((trace_id, span_id)));
    SpanScope { prev }
}

impl Drop for SpanScope {
    fn drop(&mut self) {
        let _ = CURRENT_SPAN.try_with(|c| c.set(self.prev));
    }
}

/// The calling thread's current `(trace_id, span_id)` (0,0 = none).
pub fn current_span() -> (u64, u64) {
    CURRENT_SPAN.try_with(Cell::get).unwrap_or((0, 0))
}

// ----- emission ---------------------------------------------------------

/// Store one event. Called by the [`event!`] macro *after* the level
/// check; use the macro, not this, so disabled sites stay free.
pub fn emit(
    level: Level,
    target: &'static str,
    msg: &'static str,
    fields: Vec<(&'static str, Value)>,
) {
    let r = ring();
    let (trace_id, span_id) = current_span();
    let ev = Event {
        seq: r.head.fetch_add(1, Ordering::AcqRel),
        t_us: wall_us(),
        mono_ns: r.start.elapsed().as_nanos() as u64,
        level,
        target,
        msg,
        trace_id,
        span_id,
        fields,
    };
    if level as u8 >= STDERR_LEVEL.load(Ordering::Relaxed) {
        let mut err = std::io::stderr().lock();
        let _ = writeln!(err, "[loco-log] {}", ev.to_text());
    }
    let slot = &r.slots[(ev.seq % r.slots.len() as u64) as usize];
    *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(ev);
}

/// Emit a structured event:
///
/// ```ignore
/// loco_log::event!(Level::Info, "wal", "recovery complete";
///     replayed = n, truncated = t, path = dir.display().to_string());
/// ```
///
/// Field expressions are not evaluated unless `enabled(level)`.
#[macro_export]
macro_rules! event {
    ($lvl:expr, $target:expr, $msg:expr $(; $($k:ident = $v:expr),* $(,)?)?) => {
        if $crate::enabled($lvl) {
            $crate::emit(
                $lvl,
                $target,
                $msg,
                ::std::vec![$($( (stringify!($k), $crate::Value::from($v)) ),*)?],
            );
        }
    };
}

/// `event!` at [`Level::Error`].
#[macro_export]
macro_rules! error {
    ($($tt:tt)*) => { $crate::event!($crate::Level::Error, $($tt)*) };
}
/// `event!` at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    ($($tt:tt)*) => { $crate::event!($crate::Level::Warn, $($tt)*) };
}
/// `event!` at [`Level::Info`].
#[macro_export]
macro_rules! info {
    ($($tt:tt)*) => { $crate::event!($crate::Level::Info, $($tt)*) };
}
/// `event!` at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    ($($tt:tt)*) => { $crate::event!($crate::Level::Debug, $($tt)*) };
}
/// `event!` at [`Level::Trace`].
#[macro_export]
macro_rules! trace {
    ($($tt:tt)*) => { $crate::event!($crate::Level::Trace, $($tt)*) };
}

/// Last-gasp diagnostic for abort paths (WAL fsync failure, armed
/// crash points): records an error event *and* writes the line
/// straight to stderr regardless of the mirror level — the ring dies
/// with the process, so stderr is the only surviving copy.
pub fn last_gasp(target: &'static str, msg: &'static str, detail: &str) {
    if enabled(Level::Error) {
        emit(
            Level::Error,
            target,
            msg,
            vec![("detail", Value::Str(detail.to_string()))],
        );
    }
    let mut err = std::io::stderr().lock();
    let _ = writeln!(err, "{detail}");
}

// ----- reading ----------------------------------------------------------

/// Result of one [`tail`] call.
#[derive(Clone, Debug, Default)]
pub struct Tail {
    /// Events with `seq >= cursor`, oldest first, contiguous.
    pub events: Vec<Event>,
    /// Oldest sequence still (approximately) in the ring.
    pub first_seq: u64,
    /// Pass this as the next call's `cursor`.
    pub next_seq: u64,
    /// Events that fell out of the ring between `cursor` and
    /// `first_seq` (the reader polled too slowly).
    pub dropped: u64,
}

/// Read events from `cursor` (inclusive), at most `max`. Lock-step
/// with writers: a slot whose event has not been stored yet ends the
/// scan (it is re-delivered next poll); a slot already overwritten by
/// a lap counts as dropped.
pub fn tail(cursor: u64, max: usize) -> Tail {
    let r = ring();
    let cap = r.slots.len() as u64;
    let head = r.head.load(Ordering::Acquire);
    let first = head.saturating_sub(cap);
    let from = cursor.max(first);
    let mut out = Tail {
        events: Vec::new(),
        first_seq: first,
        next_seq: from,
        dropped: from.saturating_sub(cursor),
    };
    for seq in from..head.min(from.saturating_add(max as u64)) {
        let slot = r.slots[(seq % cap) as usize]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        match &*slot {
            Some(ev) if ev.seq == seq => {
                out.events.push(ev.clone());
                out.next_seq = seq + 1;
            }
            Some(ev) if ev.seq > seq => {
                // Lapped while scanning: the event is gone.
                out.dropped += 1;
                out.next_seq = seq + 1;
            }
            // Claimed but not yet stored (writer in flight) — stop;
            // the cursor stays here and the next poll picks it up.
            _ => break,
        }
    }
    out
}

/// Render a [`tail`] as the JSON the `Logs` control frame returns:
/// `{"boot_id":"…","first":f,"next":n,"dropped":d,"events":[…]}`.
pub fn tail_json(cursor: u64, max: usize) -> String {
    let t = tail(cursor, max);
    let mut out = String::with_capacity(256 + t.events.len() * 128);
    out.push_str("{\"boot_id\":");
    write_json_str(&mut out, &format!("{:016x}", boot_id()));
    out.push_str(&format!(
        ",\"first\":{},\"next\":{},\"dropped\":{},\"events\":[",
        t.first_seq, t.next_seq, t.dropped
    ));
    for (i, ev) in t.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&ev.to_json(None));
    }
    out.push_str("]}");
    out
}

/// Append the whole ring (oldest first) to `path` as JSONL, tagging
/// each line with `source`. Used by client processes whose rings the
/// collector cannot scrape over the wire.
pub fn dump_jsonl(path: &std::path::Path, source: &str) -> std::io::Result<usize> {
    let t = tail(0, usize::MAX);
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    for ev in &t.events {
        writeln!(f, "{}", ev.to_json(Some(source)))?;
    }
    f.flush()?;
    Ok(t.events.len())
}

/// If `LOCO_LOG_DUMP=path` is set, flush the ring there, tagged with
/// source `"client"`. Harness binaries call this before exiting so
/// client-side events (reconnects, watchdog warns) reach the
/// collector's merged timeline.
pub fn dump_env() -> Option<usize> {
    let path = std::env::var("LOCO_LOG_DUMP").ok()?;
    dump_jsonl(std::path::Path::new(&path), "client").ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Level mutations are process-global; every test that touches the
    /// filter serializes here.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn level_parsing_and_ordering() {
        assert!(Level::Trace < Level::Debug);
        assert!(Level::Warn < Level::Error);
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("off"), None);
        assert_eq!(Level::parse("nonsense"), None);
    }

    #[test]
    fn emitted_events_come_back_in_order_with_fields() {
        let _g = lock();
        set_level(Some(Level::Debug));
        set_stderr_level(None);
        let start = head_seq();
        crate::info!("test.order", "first"; n = 1u64, name = "alpha");
        crate::warn!("test.order", "second"; ok = false);
        let t = tail(start, usize::MAX);
        let mine: Vec<&Event> = t
            .events
            .iter()
            .filter(|e| e.target == "test.order")
            .collect();
        assert_eq!(mine.len(), 2);
        assert_eq!(mine[0].msg, "first");
        assert_eq!(mine[0].fields[0], ("n", Value::U64(1)));
        assert_eq!(mine[0].fields[1], ("name", Value::Str("alpha".into())));
        assert_eq!(mine[1].level, Level::Warn);
        assert!(mine[0].seq < mine[1].seq);
    }

    #[test]
    fn disabled_levels_evaluate_nothing() {
        let _g = lock();
        set_level(Some(Level::Warn));
        set_stderr_level(None);
        let mut evaluated = false;
        crate::debug!("test.off", "below filter"; x = {
            evaluated = true;
            1u64
        });
        assert!(!evaluated, "field expressions must not run when filtered");
        crate::error!("test.off", "above filter"; x = {
            evaluated = true;
            1u64
        });
        assert!(evaluated);
    }

    #[test]
    fn span_scope_attaches_and_restores() {
        let _g = lock();
        set_level(Some(Level::Info));
        set_stderr_level(None);
        assert_eq!(current_span(), (0, 0));
        let start = head_seq();
        {
            let _s = span_scope(0xABCD, 7);
            crate::info!("test.span", "inside");
            {
                let _inner = span_scope(0xEF, 9);
                assert_eq!(current_span(), (0xEF, 9));
            }
            assert_eq!(current_span(), (0xABCD, 7));
        }
        assert_eq!(current_span(), (0, 0));
        let t = tail(start, usize::MAX);
        let ev = t
            .events
            .iter()
            .find(|e| e.target == "test.span")
            .expect("event recorded");
        assert_eq!((ev.trace_id, ev.span_id), (0xABCD, 7));
    }

    #[test]
    fn json_line_shape_and_escaping() {
        let ev = Event {
            seq: 3,
            t_us: 1_000_000,
            mono_ns: 42,
            level: Level::Warn,
            target: "net.conn",
            msg: "peer \"quoted\"\n",
            trace_id: 0x1234,
            span_id: 2,
            fields: vec![
                ("count", Value::U64(9)),
                ("path", Value::Str("/a b".into())),
            ],
        };
        let line = ev.to_json(Some("fms0"));
        assert!(line.contains("\"level\":\"warn\""));
        assert!(line.contains("\"msg\":\"peer \\\"quoted\\\"\\n\""));
        assert!(line.contains("\"trace\":\"0000000000001234\""));
        assert!(line.contains("\"source\":\"fms0\""));
        assert!(line.contains("\"fields\":{\"count\":9,\"path\":\"/a b\"}"));
        // Text rendering carries the same information.
        let text = ev.to_text();
        assert!(text.contains("WARN"));
        assert!(text.contains("count=9"));
        assert!(text.contains("trace=0000000000001234:2"));
    }

    #[test]
    fn tail_cursor_protocol_is_contiguous() {
        let _g = lock();
        set_level(Some(Level::Info));
        set_stderr_level(None);
        let start = head_seq();
        for _ in 0..5 {
            crate::info!("test.cursor", "ev");
        }
        let t1 = tail(start, 2);
        assert_eq!(t1.events.len(), 2);
        assert_eq!(t1.next_seq, start + 2);
        let t2 = tail(t1.next_seq, usize::MAX);
        assert!(t2.events.iter().take(3).all(|e| e.target == "test.cursor"));
        assert_eq!(t2.events.first().unwrap().seq, start + 2);
    }

    #[test]
    fn tail_json_parses_as_expected_shape() {
        let _g = lock();
        set_level(Some(Level::Info));
        set_stderr_level(None);
        crate::info!("test.json", "one");
        let s = tail_json(0, 8);
        assert!(s.starts_with("{\"boot_id\":\""));
        assert!(s.contains("\"events\":["));
        assert!(s.ends_with("]}"));
    }
}
