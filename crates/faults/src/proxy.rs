//! # loco-chaos — a network-misbehavior proxy for overload drills
//!
//! The deterministic crash points in this crate cover *storage* faults;
//! this module covers the *network* half: a std-only TCP proxy that sits
//! between a client and one server and misbehaves on command. It is the
//! adversary the loco-guard stack (deadline propagation, admission
//! control, retry budgets, circuit breaking) is tested against.
//!
//! ## Fault repertoire
//!
//! * **Latency** — per-direction fixed delay added before forwarding
//!   each chunk (client→server and server→client independently).
//! * **Bandwidth cap** — bytes/second ceiling enforced by sleeping
//!   after each forwarded chunk.
//! * **Partition** — forwarding stalls entirely (data neither flows nor
//!   errors, exactly like a blackholed route); clears on command.
//! * **Dribble (slow-loris)** — forward in tiny chunks with a pause
//!   between each, keeping connections alive but glacially slow.
//! * **Kill** — tear down every in-flight connection mid-stream (new
//!   connections still accepted).
//!
//! ## Control protocol
//!
//! A second listener accepts line-oriented text commands, one per
//! connection line, replying `ok[ detail]` or `err <reason>`:
//!
//! ```text
//! latency <up_ms> [down_ms]   # one arg sets both directions
//! bandwidth <bytes_per_sec>   # 0 = unlimited
//! partition on|off
//! dribble <chunk_bytes> <delay_ms>   # 0 0 = off
//! kill                        # drop all live connections
//! reset                       # clear every fault, keep conns
//! stat                        # ok conns=<n> up_bytes=<n> down_bytes=<n>
//! ```
//!
//! `locod chaos-proxy` wraps [`ChaosProxy::start`] for shell use and
//! `locod chaos-ctl` speaks the control protocol, so CI can stage a
//! brownout with two commands. Tests drive the programmatic setters
//! directly and skip the socket round-trip.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// How often a stalled pump re-checks the partition flag and the
/// connection-kill generation. Bounds fault-clear reaction time.
const POLL: Duration = Duration::from_millis(20);

/// Forwarding read-buffer size. Small enough that latency is applied
/// at a per-packet-ish granularity, large enough to not throttle a
/// healthy proxy.
const CHUNK: usize = 16 * 1024;

/// Shared, atomically-tunable fault state. One instance per proxy,
/// read by every pump thread on every chunk.
#[derive(Default)]
struct Faults {
    latency_up_ms: AtomicU64,
    latency_down_ms: AtomicU64,
    /// Bytes per second; 0 means unlimited.
    bandwidth: AtomicU64,
    partitioned: AtomicBool,
    /// Dribble chunk size in bytes; 0 means off.
    dribble_chunk: AtomicU64,
    dribble_delay_ms: AtomicU64,
    /// Bumped by `kill`; pumps holding an older generation exit.
    conn_gen: AtomicU64,
    /// Flipped once on shutdown; everything drains.
    stopped: AtomicBool,
    // Observability for `stat`.
    live_conns: AtomicU64,
    bytes_up: AtomicU64,
    bytes_down: AtomicU64,
}

/// Handle to a running chaos proxy. Faults are tuned either through
/// the programmatic setters or the text control socket; dropping the
/// handle leaves the proxy running (daemon use) — call
/// [`shutdown`](Self::shutdown) for an orderly stop.
pub struct ChaosProxy {
    faults: Arc<Faults>,
    listen_addr: String,
    ctl_addr: Option<String>,
}

impl ChaosProxy {
    /// Start forwarding `listen` → `upstream`. When `ctl` is given, a
    /// control listener speaking the text protocol is bound there.
    /// Pass port 0 to let the OS pick; the resolved addresses are
    /// available via [`addr`](Self::addr) / [`ctl_addr`](Self::ctl_addr).
    pub fn start(listen: &str, upstream: &str, ctl: Option<&str>) -> io::Result<ChaosProxy> {
        // Resolve early so a typo'd upstream fails at start, not on the
        // first connection.
        upstream
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "upstream unresolvable"))?;

        let faults = Arc::new(Faults::default());
        let listener = TcpListener::bind(listen)?;
        let listen_addr = listener.local_addr()?.to_string();

        let ctl_addr = match ctl {
            Some(c) => {
                let ctl_listener = TcpListener::bind(c)?;
                let addr = ctl_listener.local_addr()?.to_string();
                let f = Arc::clone(&faults);
                thread::Builder::new()
                    .name("chaos-ctl".into())
                    .spawn(move || control_loop(ctl_listener, f))?;
                Some(addr)
            }
            None => None,
        };

        let f = Arc::clone(&faults);
        let up = upstream.to_string();
        thread::Builder::new()
            .name("chaos-accept".into())
            .spawn(move || accept_loop(listener, up, f))?;

        Ok(ChaosProxy {
            faults,
            listen_addr,
            ctl_addr,
        })
    }

    /// Address clients should dial (resolved, so port 0 works).
    pub fn addr(&self) -> &str {
        &self.listen_addr
    }

    /// Resolved control-socket address, when one was requested.
    pub fn ctl_addr(&self) -> Option<&str> {
        self.ctl_addr.as_deref()
    }

    /// Fixed added delay per forwarded chunk, per direction.
    pub fn set_latency(&self, up: Duration, down: Duration) {
        self.faults
            .latency_up_ms
            .store(up.as_millis() as u64, Ordering::Relaxed);
        self.faults
            .latency_down_ms
            .store(down.as_millis() as u64, Ordering::Relaxed);
    }

    /// Bytes/second ceiling across each connection (0 = unlimited).
    pub fn set_bandwidth(&self, bytes_per_sec: u64) {
        self.faults
            .bandwidth
            .store(bytes_per_sec, Ordering::Relaxed);
    }

    /// Stall all forwarding (true) or resume it (false).
    pub fn set_partition(&self, on: bool) {
        self.faults.partitioned.store(on, Ordering::Relaxed);
    }

    /// Slow-loris mode: forward `chunk`-byte slivers with `delay`
    /// between them. `chunk = 0` turns dribbling off.
    pub fn set_dribble(&self, chunk: usize, delay: Duration) {
        self.faults
            .dribble_chunk
            .store(chunk as u64, Ordering::Relaxed);
        self.faults
            .dribble_delay_ms
            .store(delay.as_millis() as u64, Ordering::Relaxed);
    }

    /// Sever every live connection mid-stream. New connections are
    /// still accepted and proxied.
    pub fn kill_conns(&self) {
        self.faults.conn_gen.fetch_add(1, Ordering::Relaxed);
    }

    /// Clear every armed fault (latency, bandwidth, partition,
    /// dribble). Live connections survive.
    pub fn reset(&self) {
        self.set_latency(Duration::ZERO, Duration::ZERO);
        self.set_bandwidth(0);
        self.set_partition(false);
        self.set_dribble(0, Duration::ZERO);
    }

    /// Live proxied connections right now.
    pub fn live_conns(&self) -> u64 {
        self.faults.live_conns.load(Ordering::Relaxed)
    }

    /// Stop accepting, sever all connections, and wind down threads.
    pub fn shutdown(&self) {
        self.faults.stopped.store(true, Ordering::Relaxed);
        self.faults.conn_gen.fetch_add(1, Ordering::Relaxed);
        // Unblock the accept() calls with a throwaway connection.
        let _ = TcpStream::connect(&self.listen_addr);
        if let Some(c) = &self.ctl_addr {
            let _ = TcpStream::connect(c);
        }
    }

    /// Execute one control-protocol command programmatically (same
    /// grammar as the socket). Exposed so `locod chaos-ctl` and tests
    /// share the parser.
    pub fn ctl_command(&self, line: &str) -> String {
        apply_command(&self.faults, line)
    }
}

fn accept_loop(listener: TcpListener, upstream: String, faults: Arc<Faults>) {
    loop {
        let Ok((client, _)) = listener.accept() else {
            return;
        };
        if faults.stopped.load(Ordering::Relaxed) {
            return;
        }
        let f = Arc::clone(&faults);
        let up = upstream.clone();
        let _ = thread::Builder::new()
            .name("chaos-conn".into())
            .spawn(move || proxy_conn(client, &up, f));
    }
}

/// Wire one accepted client to a fresh upstream connection with two
/// pump threads, one per direction.
fn proxy_conn(client: TcpStream, upstream: &str, faults: Arc<Faults>) {
    let Ok(server) = TcpStream::connect(upstream) else {
        let _ = client.shutdown(Shutdown::Both);
        return;
    };
    let gen = faults.conn_gen.load(Ordering::Relaxed);
    faults.live_conns.fetch_add(1, Ordering::Relaxed);

    let (c2, s2) = match (client.try_clone(), server.try_clone()) {
        (Ok(c), Ok(s)) => (c, s),
        _ => {
            faults.live_conns.fetch_sub(1, Ordering::Relaxed);
            return;
        }
    };

    let f_up = Arc::clone(&faults);
    let up_pump = thread::Builder::new()
        .name("chaos-up".into())
        .spawn(move || {
            pump(client, s2, &f_up, gen, Dir::Up);
        });
    let f_down = Arc::clone(&faults);
    pump(server, c2, &f_down, gen, Dir::Down);
    if let Ok(h) = up_pump {
        let _ = h.join();
    }
    faults.live_conns.fetch_sub(1, Ordering::Relaxed);
}

#[derive(Clone, Copy)]
enum Dir {
    /// client → server
    Up,
    /// server → client
    Down,
}

/// Forward bytes `src` → `dst` applying the armed faults until either
/// side closes, the kill generation moves past `gen`, or the proxy
/// stops. Closing `dst`'s write half on exit propagates EOF so the
/// peer pump drains too.
fn pump(mut src: TcpStream, mut dst: TcpStream, faults: &Faults, gen: u64, dir: Dir) {
    // Finite read timeout so a silent link still re-checks kill /
    // partition / stop at POLL granularity.
    let _ = src.set_read_timeout(Some(POLL));
    let mut buf = vec![0u8; CHUNK];
    loop {
        if dead(faults, gen) {
            break;
        }
        let n = match src.read(&mut buf) {
            Ok(0) | Err(_) if dead(faults, gen) => break,
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(_) => break,
        };

        // Partition: hold the bytes; neither forward nor error. The
        // peer sees pure silence, as a blackholed route would give.
        while faults.partitioned.load(Ordering::Relaxed) {
            if dead(faults, gen) {
                let _ = src.shutdown(Shutdown::Both);
                let _ = dst.shutdown(Shutdown::Both);
                return;
            }
            thread::sleep(POLL);
        }

        let latency = match dir {
            Dir::Up => faults.latency_up_ms.load(Ordering::Relaxed),
            Dir::Down => faults.latency_down_ms.load(Ordering::Relaxed),
        };
        if latency > 0 {
            thread::sleep(Duration::from_millis(latency));
        }

        if forward(&mut dst, &buf[..n], faults, gen).is_err() {
            break;
        }
        match dir {
            Dir::Up => faults.bytes_up.fetch_add(n as u64, Ordering::Relaxed),
            Dir::Down => faults.bytes_down.fetch_add(n as u64, Ordering::Relaxed),
        };
    }
    let _ = src.shutdown(Shutdown::Both);
    let _ = dst.shutdown(Shutdown::Both);
}

fn dead(faults: &Faults, gen: u64) -> bool {
    faults.stopped.load(Ordering::Relaxed) || faults.conn_gen.load(Ordering::Relaxed) != gen
}

/// Write one chunk applying dribble and bandwidth shaping.
fn forward(dst: &mut TcpStream, data: &[u8], faults: &Faults, gen: u64) -> io::Result<()> {
    let dribble = faults.dribble_chunk.load(Ordering::Relaxed) as usize;
    let step = if dribble > 0 {
        dribble
    } else {
        data.len().max(1)
    };
    for piece in data.chunks(step) {
        if dead(faults, gen) {
            return Err(io::Error::new(io::ErrorKind::ConnectionAborted, "killed"));
        }
        dst.write_all(piece)?;
        if dribble > 0 {
            let delay = faults.dribble_delay_ms.load(Ordering::Relaxed);
            thread::sleep(Duration::from_millis(delay));
        }
        let bw = faults.bandwidth.load(Ordering::Relaxed);
        if bw > 0 {
            // Sleep long enough that this piece's bytes fit the cap.
            let ms = piece.len() as u64 * 1000 / bw.max(1);
            thread::sleep(Duration::from_millis(ms));
        }
    }
    Ok(())
}

// ----- control protocol ---------------------------------------------

fn control_loop(listener: TcpListener, faults: Arc<Faults>) {
    loop {
        let Ok((sock, _)) = listener.accept() else {
            return;
        };
        if faults.stopped.load(Ordering::Relaxed) {
            return;
        }
        let mut reader = BufReader::new(match sock.try_clone() {
            Ok(s) => s,
            Err(_) => continue,
        });
        let mut sock = sock;
        let mut line = String::new();
        while {
            line.clear();
            matches!(reader.read_line(&mut line), Ok(n) if n > 0)
        } {
            let reply = apply_command(&faults, line.trim());
            if sock.write_all(reply.as_bytes()).is_err() || sock.write_all(b"\n").is_err() {
                break;
            }
        }
    }
}

/// Parse and apply one command line; returns the reply line.
fn apply_command(faults: &Faults, line: &str) -> String {
    let mut it = line.split_whitespace();
    let cmd = it.next().unwrap_or("");
    let args: Vec<&str> = it.collect();
    let parse = |s: &str| s.parse::<u64>().ok();
    match (cmd, args.as_slice()) {
        ("latency", [both]) => match parse(both) {
            Some(ms) => {
                faults.latency_up_ms.store(ms, Ordering::Relaxed);
                faults.latency_down_ms.store(ms, Ordering::Relaxed);
                "ok".into()
            }
            None => "err bad latency".into(),
        },
        ("latency", [up, down]) => match (parse(up), parse(down)) {
            (Some(u), Some(d)) => {
                faults.latency_up_ms.store(u, Ordering::Relaxed);
                faults.latency_down_ms.store(d, Ordering::Relaxed);
                "ok".into()
            }
            _ => "err bad latency".into(),
        },
        ("bandwidth", [bps]) => match parse(bps) {
            Some(b) => {
                faults.bandwidth.store(b, Ordering::Relaxed);
                "ok".into()
            }
            None => "err bad bandwidth".into(),
        },
        ("partition", ["on"]) => {
            faults.partitioned.store(true, Ordering::Relaxed);
            "ok".into()
        }
        ("partition", ["off"]) => {
            faults.partitioned.store(false, Ordering::Relaxed);
            "ok".into()
        }
        ("dribble", [chunk, delay]) => match (parse(chunk), parse(delay)) {
            (Some(c), Some(d)) => {
                faults.dribble_chunk.store(c, Ordering::Relaxed);
                faults.dribble_delay_ms.store(d, Ordering::Relaxed);
                "ok".into()
            }
            _ => "err bad dribble".into(),
        },
        ("kill", []) => {
            faults.conn_gen.fetch_add(1, Ordering::Relaxed);
            "ok".into()
        }
        ("reset", []) => {
            faults.latency_up_ms.store(0, Ordering::Relaxed);
            faults.latency_down_ms.store(0, Ordering::Relaxed);
            faults.bandwidth.store(0, Ordering::Relaxed);
            faults.partitioned.store(false, Ordering::Relaxed);
            faults.dribble_chunk.store(0, Ordering::Relaxed);
            faults.dribble_delay_ms.store(0, Ordering::Relaxed);
            "ok".into()
        }
        ("stat", []) => format!(
            "ok conns={} up_bytes={} down_bytes={}",
            faults.live_conns.load(Ordering::Relaxed),
            faults.bytes_up.load(Ordering::Relaxed),
            faults.bytes_down.load(Ordering::Relaxed),
        ),
        _ => "err unknown command (latency/bandwidth/partition/dribble/kill/reset/stat)".into(),
    }
}

/// Send one command to a remote proxy's control socket and return its
/// reply line — the client half `locod chaos-ctl` uses.
pub fn ctl_send(ctl_addr: &str, command: &str) -> io::Result<String> {
    let mut sock = TcpStream::connect(ctl_addr)?;
    sock.set_read_timeout(Some(Duration::from_secs(5)))?;
    sock.write_all(command.as_bytes())?;
    sock.write_all(b"\n")?;
    let mut reply = String::new();
    BufReader::new(sock).read_line(&mut reply)?;
    Ok(reply.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echo server for proxy tests: writes back whatever it reads.
    fn echo_server() -> String {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap().to_string();
        thread::spawn(move || {
            for sock in l.incoming().flatten() {
                thread::spawn(move || {
                    let mut r = sock.try_clone().unwrap();
                    let mut w = sock;
                    let mut buf = [0u8; 4096];
                    while let Ok(n) = r.read(&mut buf) {
                        if n == 0 || w.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        addr
    }

    fn roundtrip(addr: &str, payload: &[u8]) -> io::Result<Vec<u8>> {
        let mut s = TcpStream::connect(addr)?;
        s.set_read_timeout(Some(Duration::from_secs(5)))?;
        s.write_all(payload)?;
        let mut got = vec![0u8; payload.len()];
        s.read_exact(&mut got)?;
        Ok(got)
    }

    #[test]
    fn passthrough_echoes_bytes() {
        let up = echo_server();
        let p = ChaosProxy::start("127.0.0.1:0", &up, None).unwrap();
        assert_eq!(roundtrip(p.addr(), b"hello").unwrap(), b"hello");
        p.shutdown();
    }

    #[test]
    fn latency_delays_the_reply() {
        let up = echo_server();
        let p = ChaosProxy::start("127.0.0.1:0", &up, None).unwrap();
        p.set_latency(Duration::from_millis(60), Duration::from_millis(60));
        let t0 = std::time::Instant::now();
        assert_eq!(roundtrip(p.addr(), b"ping").unwrap(), b"ping");
        // One up-leg + one down-leg of injected latency.
        assert!(
            t0.elapsed() >= Duration::from_millis(100),
            "{:?}",
            t0.elapsed()
        );
        p.shutdown();
    }

    #[test]
    fn partition_stalls_then_recovers() {
        let up = echo_server();
        let p = ChaosProxy::start("127.0.0.1:0", &up, None).unwrap();
        p.set_partition(true);
        let mut s = TcpStream::connect(p.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_millis(120)))
            .unwrap();
        s.write_all(b"stuck?").unwrap();
        let mut buf = [0u8; 6];
        assert!(
            s.read_exact(&mut buf).is_err(),
            "read must time out while partitioned"
        );
        // Heal: the buffered bytes flow through and the echo lands.
        p.set_partition(false);
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"stuck?");
        p.shutdown();
    }

    #[test]
    fn kill_severs_live_connections() {
        let up = echo_server();
        let p = ChaosProxy::start("127.0.0.1:0", &up, None).unwrap();
        let mut s = TcpStream::connect(p.addr()).unwrap();
        s.write_all(b"warm").unwrap();
        let mut buf = [0u8; 4];
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.read_exact(&mut buf).unwrap();
        p.kill_conns();
        // The severed socket yields EOF (or reset) promptly.
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let dead = matches!(s.read(&mut buf), Ok(0) | Err(_));
        assert!(dead, "connection should be severed after kill");
        // New connections still work.
        assert_eq!(roundtrip(p.addr(), b"next").unwrap(), b"next");
        p.shutdown();
    }

    #[test]
    fn control_socket_drives_faults() {
        let up = echo_server();
        let p = ChaosProxy::start("127.0.0.1:0", &up, Some("127.0.0.1:0")).unwrap();
        let ctl = p.ctl_addr().unwrap().to_string();
        assert_eq!(ctl_send(&ctl, "latency 40").unwrap(), "ok");
        let t0 = std::time::Instant::now();
        assert_eq!(roundtrip(p.addr(), b"x").unwrap(), b"x");
        assert!(
            t0.elapsed() >= Duration::from_millis(70),
            "{:?}",
            t0.elapsed()
        );
        assert_eq!(ctl_send(&ctl, "reset").unwrap(), "ok");
        assert!(ctl_send(&ctl, "stat").unwrap().starts_with("ok conns="));
        assert!(ctl_send(&ctl, "nonsense").unwrap().starts_with("err"));
        p.shutdown();
    }
}
