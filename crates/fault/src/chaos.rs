//! Seeded environment-fault injection: network chaos and artifact-I/O
//! faults.
//!
//! The microarchitectural loci in the crate root perturb *front-end
//! state*; this module perturbs the *environment* the harness runs in,
//! with the same discipline: a seeded plan, deterministic draws, and a
//! stats surface for what actually happened.
//!
//! Two fault dimensions live here:
//!
//! - [`ChaosProxy`] — an in-process TCP proxy that sits in front of a
//!   `tw serve` daemon and injects connection-level faults (reset,
//!   slow-loris throttling, partial write then close, payload
//!   corruption, delayed accept). Fault decisions are a pure function
//!   of `(seed, connection index)`, so a serial client observes the
//!   same fault sequence on every run.
//! - [`IoFaultPlan`] — injectable failures for durable-artifact writes
//!   (torn temp file, crash before rename), used by
//!   `harness::artifact` contract tests and the serve disk tier's
//!   degraded-mode tests. Real crashes cannot be scheduled; these hooks
//!   make the crash window testable.
//!
//! Everything is hand-rolled over `std::net` — the workspace builds
//! offline with no external crates.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crate::SplitMix64;

/// One kind of connection-level fault the proxy can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosKind {
    /// Drop the client connection immediately, before contacting the
    /// upstream — the client sees a reset/EOF with no response bytes.
    Reset,
    /// Forward the response in tiny chunks with a delay per chunk
    /// (bounded total stall), exercising client read patience.
    Throttle,
    /// Forward only a prefix of the response, then close both sides —
    /// the client sees a truncated status line or short body.
    PartialWrite,
    /// Overwrite one early response byte with `0xFF` (never valid in
    /// the ASCII HTTP responses the daemon emits), so corruption is
    /// always client-detectable as invalid UTF-8.
    Corrupt,
    /// Hold the connection unserviced for a bounded delay before
    /// proxying normally.
    DelayAccept,
}

impl ChaosKind {
    /// Every kind, in stats/display order.
    pub const ALL: [ChaosKind; 5] = [
        ChaosKind::Reset,
        ChaosKind::Throttle,
        ChaosKind::PartialWrite,
        ChaosKind::Corrupt,
        ChaosKind::DelayAccept,
    ];

    /// Stable lowercase name (stats keys, CLI).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ChaosKind::Reset => "reset",
            ChaosKind::Throttle => "throttle",
            ChaosKind::PartialWrite => "partial-write",
            ChaosKind::Corrupt => "corrupt",
            ChaosKind::DelayAccept => "delay-accept",
        }
    }

    /// Parses a [`name`](ChaosKind::name) back to the kind.
    pub fn parse(s: &str) -> Result<ChaosKind, String> {
        ChaosKind::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| format!("unknown chaos kind '{s}'"))
    }
}

fn kind_index(kind: ChaosKind) -> usize {
    ChaosKind::ALL.iter().position(|k| *k == kind).unwrap_or(0)
}

/// When and what the chaos proxy injects. Like [`crate::FaultPlan`],
/// a plan is pure data; draws are a deterministic function of the plan
/// and the connection index.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    /// RNG seed for fault decisions.
    pub seed: u64,
    /// Per-connection fault probability in `[0, 1]`.
    pub rate: f64,
    /// Enabled kinds, as a bitmask over [`ChaosKind::ALL`] indices.
    kinds: u8,
}

impl ChaosPlan {
    const ALL_KINDS: u8 = (1 << ChaosKind::ALL.len()) - 1;

    /// The empty plan: a transparent proxy that never injects.
    #[must_use]
    pub fn none() -> ChaosPlan {
        ChaosPlan {
            seed: 0,
            rate: 0.0,
            kinds: ChaosPlan::ALL_KINDS,
        }
    }

    /// A rate-driven plan: each connection faults with probability
    /// `rate` (clamped to `[0, 1]`), drawing from every kind.
    #[must_use]
    pub fn with_rate(seed: u64, rate: f64) -> ChaosPlan {
        ChaosPlan {
            seed,
            rate: rate.clamp(0.0, 1.0),
            ..ChaosPlan::none()
        }
    }

    /// Restricts the plan to the given kinds (empty slice = all).
    #[must_use]
    pub fn only(mut self, kinds: &[ChaosKind]) -> ChaosPlan {
        if kinds.is_empty() {
            self.kinds = ChaosPlan::ALL_KINDS;
        } else {
            self.kinds = 0;
            for k in kinds {
                self.kinds |= 1 << kind_index(*k);
            }
        }
        self
    }

    /// Whether `kind` is enabled.
    #[must_use]
    pub fn enables(&self, kind: ChaosKind) -> bool {
        self.kinds & (1 << kind_index(kind)) != 0
    }

    /// The fault decision for connection number `conn_index`: `None`
    /// for a clean pass-through, or the kind to inject plus 64 bits of
    /// entropy for parameterizing it (delay length, corrupt offset,
    /// prefix size). Pure: same plan + index → same draw, regardless
    /// of timing or thread interleaving.
    #[must_use]
    pub fn draw(&self, conn_index: u64) -> Option<(ChaosKind, u64)> {
        if self.rate <= 0.0 {
            return None;
        }
        let mut rng = SplitMix64::new(self.seed ^ conn_index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let threshold = if self.rate >= 1.0 {
            u64::MAX
        } else {
            (self.rate * (u64::MAX as f64)) as u64
        };
        if threshold != u64::MAX && rng.next_u64() >= threshold {
            return None;
        }
        let enabled: Vec<ChaosKind> = ChaosKind::ALL
            .into_iter()
            .filter(|k| self.enables(*k))
            .collect();
        if enabled.is_empty() {
            return None;
        }
        let kind = enabled[(rng.next_u64() % enabled.len() as u64) as usize];
        Some((kind, rng.next_u64()))
    }
}

/// Counters for what a proxy actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Connections accepted.
    pub connections: u64,
    /// Connections that received a fault.
    pub faulted: u64,
    /// Per-kind injection counts, in [`ChaosKind::ALL`] order.
    pub by_kind: [u64; 5],
}

#[derive(Default)]
struct ChaosCounters {
    connections: AtomicU64,
    faulted: AtomicU64,
    by_kind: [AtomicU64; 5],
}

impl ChaosCounters {
    fn snapshot(&self) -> ChaosStats {
        let mut by_kind = [0u64; 5];
        for (dst, src) in by_kind.iter_mut().zip(&self.by_kind) {
            *dst = src.load(Ordering::Relaxed);
        }
        ChaosStats {
            connections: self.connections.load(Ordering::Relaxed),
            faulted: self.faulted.load(Ordering::Relaxed),
            by_kind,
        }
    }
}

/// How long a proxy pump waits on a silent peer before giving up. A
/// bound, not a tuning knob: it guarantees pump threads cannot hang
/// forever even if both endpoints wedge.
const PUMP_TIMEOUT: Duration = Duration::from_secs(10);

/// Response-direction bytes scanned for the [`ChaosKind::Corrupt`]
/// overwrite; keeping it early in the stream means the corruption lands
/// in the status line or headers of small responses too.
const CORRUPT_WINDOW: usize = 512;

/// An in-process TCP chaos proxy: accepts on an ephemeral localhost
/// port, forwards to `upstream`, and injects the plan's faults. Each
/// accepted connection is handled on its own thread; fault decisions
/// come from [`ChaosPlan::draw`] on the accept-order index.
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    counters: Arc<ChaosCounters>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds `127.0.0.1:0` and starts proxying to `upstream`.
    pub fn spawn(upstream: SocketAddr, plan: ChaosPlan) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(ChaosCounters::default());
        let accept_stop = Arc::clone(&stop);
        let accept_counters = Arc::clone(&counters);
        let accept_thread =
            thread::Builder::new()
                .name("chaos-accept".into())
                .spawn(move || {
                    let mut conn_index = 0u64;
                    for client in listener.incoming() {
                        if accept_stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(client) = client else { continue };
                        accept_counters.connections.fetch_add(1, Ordering::Relaxed);
                        let draw = plan.draw(conn_index);
                        conn_index += 1;
                        if let Some((kind, _)) = draw {
                            accept_counters.faulted.fetch_add(1, Ordering::Relaxed);
                            accept_counters.by_kind[kind_index(kind)]
                                .fetch_add(1, Ordering::Relaxed);
                        }
                        let _ = thread::Builder::new()
                            .name("chaos-conn".into())
                            .spawn(move || {
                                // A connection thread owns only its two
                                // sockets; any error just ends the
                                // connection, which is the point.
                                let _ = proxy_connection(client, upstream, draw);
                            });
                    }
                })?;
        Ok(ChaosProxy {
            addr,
            stop,
            counters,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address clients should connect to.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of injection counters.
    #[must_use]
    pub fn stats(&self) -> ChaosStats {
        self.counters.snapshot()
    }

    /// Stops accepting and joins the accept thread. In-flight
    /// connection pumps finish on their own (bounded by
    /// [`PUMP_TIMEOUT`]).
    pub fn shutdown(mut self) {
        self.stop_accepting();
    }

    fn stop_accepting(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.stop_accepting();
        }
    }
}

fn proxy_connection(
    client: TcpStream,
    upstream: SocketAddr,
    draw: Option<(ChaosKind, u64)>,
) -> io::Result<()> {
    let (kind, entropy) = match draw {
        None => (None, 0),
        Some((ChaosKind::Reset, _)) => {
            // Close without contacting the upstream; the client's write
            // may land in a kernel buffer, but its read sees EOF/reset
            // with zero response bytes.
            let _ = client.shutdown(Shutdown::Both);
            return Ok(());
        }
        Some((ChaosKind::DelayAccept, entropy)) => {
            // 20..200 ms of unserviced silence, then a clean proxy.
            thread::sleep(Duration::from_millis(20 + entropy % 180));
            (None, 0)
        }
        Some((kind, entropy)) => (Some(kind), entropy),
    };

    let server = TcpStream::connect_timeout(&upstream, Duration::from_secs(5))?;
    client.set_read_timeout(Some(PUMP_TIMEOUT))?;
    client.set_write_timeout(Some(PUMP_TIMEOUT))?;
    server.set_read_timeout(Some(PUMP_TIMEOUT))?;
    server.set_write_timeout(Some(PUMP_TIMEOUT))?;

    // Request direction runs clean on its own thread; response-direction
    // faults are applied inline below.
    let mut req_src = client.try_clone()?;
    let mut req_dst = server.try_clone()?;
    let request_pump = thread::Builder::new()
        .name("chaos-pump-req".into())
        .spawn(move || {
            let _ = io::copy(&mut req_src, &mut req_dst);
            let _ = req_dst.shutdown(Shutdown::Write);
        })?;

    let result = pump_response(server.try_clone()?, client.try_clone()?, kind, entropy);
    let _ = client.shutdown(Shutdown::Both);
    let _ = server.shutdown(Shutdown::Both);
    let _ = request_pump.join();
    result
}

/// Copies server→client applying the response-direction fault, if any.
fn pump_response(
    mut server: TcpStream,
    mut client: TcpStream,
    kind: Option<ChaosKind>,
    entropy: u64,
) -> io::Result<()> {
    match kind {
        None => {
            io::copy(&mut server, &mut client)?;
            Ok(())
        }
        Some(ChaosKind::PartialWrite) => {
            // Forward a 1..=96-byte prefix — always inside the status
            // line / early headers for our responses — then close.
            let budget = 1 + (entropy % 96) as usize;
            let mut buf = vec![0u8; budget];
            let mut sent = 0;
            while sent < budget {
                let n = server.read(&mut buf[sent..])?;
                if n == 0 {
                    break;
                }
                client.write_all(&buf[sent..sent + n])?;
                sent += n;
            }
            Ok(())
        }
        Some(ChaosKind::Corrupt) => {
            let target = (entropy % CORRUPT_WINDOW as u64) as usize;
            let mut pos = 0usize;
            let mut corrupted = false;
            let mut buf = [0u8; 4096];
            loop {
                let n = server.read(&mut buf)?;
                if n == 0 {
                    // Response shorter than the drawn offset: corrupt
                    // nothing rather than stall.
                    return Ok(());
                }
                if !corrupted && target < pos + n {
                    buf[target - pos] = 0xFF;
                    corrupted = true;
                }
                client.write_all(&buf[..n])?;
                pos += n;
                if corrupted {
                    break;
                }
            }
            io::copy(&mut server, &mut client)?;
            Ok(())
        }
        Some(ChaosKind::Throttle) => {
            // Slow-loris the response: tiny chunks with a per-chunk
            // sleep, capped so total added latency stays bounded
            // (~200 ms), then open the tap.
            let mut stalls = 2 + (entropy % 99) as u32; // ≤ 202 ms
            let mut buf = [0u8; 113];
            loop {
                let n = server.read(&mut buf)?;
                if n == 0 {
                    return Ok(());
                }
                client.write_all(&buf[..n])?;
                if stalls == 0 {
                    break;
                }
                stalls -= 1;
                thread::sleep(Duration::from_millis(2));
            }
            io::copy(&mut server, &mut client)?;
            Ok(())
        }
        // Reset/DelayAccept are resolved before the pumps start.
        Some(ChaosKind::Reset | ChaosKind::DelayAccept) => unreachable!(),
    }
}

/// One kind of injected durable-write failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFaultKind {
    /// The temp file receives only a prefix of the bytes, then the
    /// "process dies" (the write call errors out before rename).
    TornTemp,
    /// The temp file is written completely and synced, but the process
    /// dies before the rename publishes it.
    CrashBeforeRename,
}

/// A seeded plan for artifact-I/O faults, consumed by
/// `harness::artifact::write_atomic_with` and the serve disk tier.
/// `draw` is indexed by the caller's write counter, so a given plan
/// faults the same writes on every run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoFaultPlan {
    /// RNG seed for fault decisions.
    pub seed: u64,
    /// Per-write fault probability in `[0, 1]`.
    pub rate: f64,
    /// Forced kind; `None` draws uniformly between kinds.
    pub kind: Option<IoFaultKind>,
}

impl IoFaultPlan {
    /// The empty plan: every write succeeds normally.
    #[must_use]
    pub fn none() -> IoFaultPlan {
        IoFaultPlan {
            seed: 0,
            rate: 0.0,
            kind: None,
        }
    }

    /// A plan that faults every write with the given kind — the
    /// contract-test workhorse.
    #[must_use]
    pub fn always(kind: IoFaultKind) -> IoFaultPlan {
        IoFaultPlan {
            seed: 0,
            rate: 1.0,
            kind: Some(kind),
        }
    }

    /// A rate-driven plan over both kinds.
    #[must_use]
    pub fn with_rate(seed: u64, rate: f64) -> IoFaultPlan {
        IoFaultPlan {
            seed,
            rate: rate.clamp(0.0, 1.0),
            kind: None,
        }
    }

    /// Whether the plan can ever fire.
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.rate <= 0.0
    }

    /// The fault decision for the caller's `write_index`-th write.
    #[must_use]
    pub fn draw(&self, write_index: u64) -> Option<IoFaultKind> {
        if self.rate <= 0.0 {
            return None;
        }
        let mut rng = SplitMix64::new(self.seed ^ write_index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let threshold = if self.rate >= 1.0 {
            u64::MAX
        } else {
            (self.rate * (u64::MAX as f64)) as u64
        };
        if threshold != u64::MAX && rng.next_u64() >= threshold {
            return None;
        }
        Some(self.kind.unwrap_or(if rng.next_u64() & 1 == 0 {
            IoFaultKind::TornTemp
        } else {
            IoFaultKind::CrashBeforeRename
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_draws_are_deterministic_and_rate_bounded() {
        let plan = ChaosPlan::with_rate(42, 1e-2);
        let a: Vec<_> = (0..20_000).map(|i| plan.draw(i)).collect();
        let b: Vec<_> = (0..20_000).map(|i| plan.draw(i)).collect();
        assert_eq!(a, b);
        let fired = a.iter().filter(|d| d.is_some()).count();
        assert!(
            (100..400).contains(&fired),
            "expected ~200 faults at 1e-2 over 20k connections, got {fired}"
        );
    }

    #[test]
    fn none_plan_never_fires_and_rate_one_always_fires() {
        assert!((0..1000).all(|i| ChaosPlan::none().draw(i).is_none()));
        let hot = ChaosPlan::with_rate(7, 1.0);
        assert!((0..1000).all(|i| hot.draw(i).is_some()));
    }

    #[test]
    fn only_restricts_kinds() {
        let plan = ChaosPlan::with_rate(9, 1.0).only(&[ChaosKind::Reset]);
        for i in 0..200 {
            let (kind, _) = plan.draw(i).expect("rate 1.0 always fires");
            assert_eq!(kind, ChaosKind::Reset);
        }
        let all = ChaosPlan::with_rate(9, 1.0).only(&[]);
        let mut seen = [false; 5];
        for i in 0..500 {
            let (kind, _) = all.draw(i).expect("rate 1.0 always fires");
            seen[kind_index(kind)] = true;
        }
        assert!(seen.iter().all(|s| *s), "all kinds drawn at rate 1.0");
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in ChaosKind::ALL {
            assert_eq!(ChaosKind::parse(kind.name()), Ok(kind));
        }
        assert!(ChaosKind::parse("bogus").is_err());
    }

    #[test]
    fn io_fault_plans_draw_deterministically() {
        assert!(IoFaultPlan::none().is_none());
        assert_eq!(IoFaultPlan::none().draw(3), None);
        assert_eq!(
            IoFaultPlan::always(IoFaultKind::TornTemp).draw(0),
            Some(IoFaultKind::TornTemp)
        );
        let plan = IoFaultPlan::with_rate(11, 0.5);
        let a: Vec<_> = (0..1000).map(|i| plan.draw(i)).collect();
        assert_eq!(a, (0..1000).map(|i| plan.draw(i)).collect::<Vec<_>>());
        let fired = a.iter().filter(|d| d.is_some()).count();
        assert!((300..700).contains(&fired), "rate 0.5 fired {fired}/1000");
    }

    #[test]
    fn transparent_proxy_forwards_bytes_intact() {
        // A tiny upstream that echoes one request line back, uppercased.
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        let server = thread::spawn(move || {
            for _ in 0..2 {
                let (mut conn, _) = upstream.accept().unwrap();
                let mut buf = [0u8; 256];
                let n = conn.read(&mut buf).unwrap();
                let reply = String::from_utf8_lossy(&buf[..n]).to_uppercase();
                conn.write_all(reply.as_bytes()).unwrap();
            }
        });

        let proxy = ChaosProxy::spawn(upstream_addr, ChaosPlan::none()).unwrap();
        for _ in 0..2 {
            let mut conn = TcpStream::connect(proxy.addr()).unwrap();
            conn.write_all(b"hello chaos").unwrap();
            conn.shutdown(Shutdown::Write).unwrap();
            let mut reply = String::new();
            conn.read_to_string(&mut reply).unwrap();
            assert_eq!(reply, "HELLO CHAOS");
        }
        let stats = proxy.stats();
        assert_eq!(stats.connections, 2);
        assert_eq!(stats.faulted, 0);
        proxy.shutdown();
        server.join().unwrap();
    }

    #[test]
    fn reset_kind_drops_the_connection_without_response() {
        // Upstream that would happily answer — reset must never reach it.
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        let plan = ChaosPlan::with_rate(1, 1.0).only(&[ChaosKind::Reset]);
        let proxy = ChaosProxy::spawn(upstream_addr, plan).unwrap();

        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let _ = conn.write_all(b"doomed");
        let mut buf = Vec::new();
        // EOF (Ok(0 bytes)) or ECONNRESET are both acceptable: the
        // point is that no response bytes ever arrive.
        match conn.read_to_end(&mut buf) {
            Ok(_) => assert!(buf.is_empty(), "reset leaked bytes: {buf:?}"),
            Err(_) => {}
        }
        assert_eq!(proxy.stats().by_kind[kind_index(ChaosKind::Reset)], 1);
        proxy.shutdown();
    }
}
