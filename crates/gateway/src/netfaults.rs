//! Deterministic network-chaos harness: seeded socket-layer fault
//! injection for the gateway, the transport-level mirror of the decode
//! pipeline's `FaultPlan` (PR 3).
//!
//! A [`NetFaultPlan`] is a named, seeded list of [`NetFault`]
//! injectors; [`ChaosProxy`] applies it to live connections as an
//! in-process TCP proxy sitting between a client and the daemon:
//!
//! ```text
//! GatewayClient ──► ChaosProxy (faults on client→daemon bytes) ──► Gateway
//!               ◄──────────── clean copy ◄─────────────────────────
//! ```
//!
//! The injectors come in two flavors:
//!
//! - **Content-transparent** ([`NetFault::SplitWrites`],
//!   [`NetFault::CoalesceReads`], [`NetFault::Stall`]): the forwarded
//!   byte stream is identical, only its segmentation/timing changes —
//!   these stress [`crate::wire::FrameReader`]'s incremental parse and
//!   must never change the uplink transcript.
//! - **Destructive** ([`NetFault::DisconnectAt`],
//!   [`NetFault::BitFlip`]): the connection dies (or a frame is
//!   corrupted, which the daemon's CRC turns into a connection-closing
//!   wire error). A [`crate::client::GatewayClient`] recovers via
//!   reconnect + RESUME + resend; the soak test proves the recovered
//!   transcript is byte-identical to a clean run. Destructive faults
//!   are **one-shot**: armed only on the proxy's first connection, so
//!   the reconnect always lands on a clean path and recovery is
//!   guaranteed rather than probabilistic.
//!
//! Everything is deterministic given the plan seed: offsets and sizes
//! come from an LCG over the seed, never the clock or the OS RNG.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// How often proxy pumps wake up to check the shutdown flag.
const PUMP_POLL: Duration = Duration::from_millis(25);

/// One socket-layer fault injector (applied to client→daemon bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Forward in bursts of at most `max_burst` bytes, so the daemon's
    /// reader sees partial frames on every poll (partial-write /
    /// fragmented-read chaos). Content-transparent.
    SplitWrites { max_burst: usize },
    /// Hold up to `hold` bytes before forwarding (flushing on idle and
    /// EOF), so many frames arrive in one read. Content-transparent.
    CoalesceReads { hold: usize },
    /// Pause forwarding for `millis` once, when the byte counter
    /// crosses `at_byte`. Content-transparent (timing only).
    Stall { at_byte: u64, millis: u64 },
    /// Close the connection (both directions) after forwarding exactly
    /// `byte` bytes — almost always mid-frame. Destructive, one-shot.
    DisconnectAt { byte: u64 },
    /// XOR `0x01` into the byte at absolute offset `byte` — the
    /// daemon's frame CRC catches it as a wire error. Destructive,
    /// one-shot.
    BitFlip { byte: u64 },
}

/// A named, seeded chaos scenario: the fault list one [`ChaosProxy`]
/// applies.
#[derive(Debug, Clone)]
pub struct NetFaultPlan {
    /// Scenario label (stable across seeds; used in reports and JSON).
    pub name: &'static str,
    /// The seed the offsets/sizes were derived from.
    pub seed: u64,
    /// Injectors, applied together on the client→daemon direction.
    pub faults: Vec<NetFault>,
    /// Whether a reconnect+resend client is guaranteed to recover a
    /// byte-identical transcript under this plan (true for every
    /// matrix entry; destructive faults are one-shot).
    pub recoverable: bool,
}

fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x >> 33
}

impl NetFaultPlan {
    /// No faults: the proxy forwards verbatim (the parity baseline).
    pub fn clean() -> NetFaultPlan {
        NetFaultPlan {
            name: "clean",
            seed: 0,
            faults: Vec::new(),
            recoverable: true,
        }
    }

    /// The standard chaos matrix for `seed`: every injector alone plus
    /// two combinations, with seeded offsets landing mid-stream
    /// (roughly within the first 64 KiB, so even short runs hit them).
    pub fn matrix(seed: u64) -> Vec<NetFaultPlan> {
        let mut s = seed ^ 0xd6e8_feb8_6659_fd93;
        let mut offset = |lo: u64, hi: u64| lo + lcg(&mut s) % (hi - lo);
        let plan = |name, faults| NetFaultPlan {
            name,
            seed,
            faults,
            recoverable: true,
        };
        vec![
            NetFaultPlan::clean(),
            plan(
                "split-writes",
                vec![NetFault::SplitWrites {
                    max_burst: 1 + offset(0, 96) as usize,
                }],
            ),
            plan(
                "coalesced-reads",
                vec![NetFault::CoalesceReads {
                    hold: 4096 + offset(0, 8192) as usize,
                }],
            ),
            plan(
                "stall",
                vec![NetFault::Stall {
                    at_byte: offset(1024, 65_536),
                    millis: 60,
                }],
            ),
            plan(
                "disconnect-mid-frame",
                vec![NetFault::DisconnectAt {
                    byte: offset(1024, 65_536),
                }],
            ),
            plan(
                "bitflip",
                vec![NetFault::BitFlip {
                    byte: offset(1024, 65_536),
                }],
            ),
            plan(
                "split+disconnect",
                vec![
                    NetFault::SplitWrites {
                        max_burst: 1 + offset(0, 32) as usize,
                    },
                    NetFault::DisconnectAt {
                        byte: offset(1024, 65_536),
                    },
                ],
            ),
            plan(
                "coalesce+bitflip",
                vec![
                    NetFault::CoalesceReads {
                        hold: 2048 + offset(0, 4096) as usize,
                    },
                    NetFault::BitFlip {
                        byte: offset(1024, 65_536),
                    },
                ],
            ),
        ]
    }
}

/// Live counters of one proxy instance.
#[derive(Debug, Default)]
pub struct ProxyStats {
    /// Connections proxied.
    pub connections: tnb_metrics::SharedCounter,
    /// Client→daemon bytes forwarded (post-fault). Both byte counters
    /// are bumped before the write, so a peer never outruns them.
    pub bytes_up: tnb_metrics::SharedCounter,
    /// Daemon→client bytes forwarded.
    pub bytes_down: tnb_metrics::SharedCounter,
    /// Destructive faults fired (bit flips + forced disconnects).
    pub faults_fired: tnb_metrics::SharedCounter,
}

/// An in-process TCP proxy applying a [`NetFaultPlan`] between a client
/// and a daemon. Accepts any number of sequential connections (a
/// reconnecting client comes back through the proxy); destructive
/// faults fire on the first connection only.
pub struct ChaosProxy {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ProxyStats>,
    accept: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds an ephemeral local port and proxies every connection to
    /// `upstream` under `plan`.
    pub fn spawn<A: ToSocketAddrs>(upstream: A, plan: NetFaultPlan) -> io::Result<ChaosProxy> {
        let upstream = upstream
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no upstream address"))?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ProxyStats::default());
        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let stats = Arc::clone(&stats);
            thread::spawn(move || proxy_accept_loop(listener, upstream, plan, stats, shutdown))
        };
        Ok(ChaosProxy {
            local_addr,
            shutdown,
            stats,
            accept: Some(accept),
        })
    }

    /// The proxy's listen address (point clients here).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Counter snapshot: (connections, bytes_up, bytes_down,
    /// faults_fired).
    pub fn stats(&self) -> (u64, u64, u64, u64) {
        (
            self.stats.connections.get(),
            self.stats.bytes_up.get(),
            self.stats.bytes_down.get(),
            self.stats.faults_fired.get(),
        )
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

fn proxy_accept_loop(
    listener: TcpListener,
    upstream: SocketAddr,
    plan: NetFaultPlan,
    stats: Arc<ProxyStats>,
    shutdown: Arc<AtomicBool>,
) {
    // Destructive (one-shot) faults arm on the first connection only:
    // the post-reconnect path is clean, so recovery is guaranteed.
    let armed = Arc::new(AtomicBool::new(true));
    let mut pumps: Vec<JoinHandle<()>> = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((client, _)) => {
                let Ok(daemon) = TcpStream::connect(upstream) else {
                    // Upstream gone (daemon shut down): drop the client.
                    continue;
                };
                stats.connections.inc();
                let one_shot = armed.swap(false, Ordering::SeqCst);
                let faults: Vec<NetFault> = plan
                    .faults
                    .iter()
                    .copied()
                    .filter(|f| {
                        one_shot
                            || !matches!(
                                f,
                                NetFault::DisconnectAt { .. }
                                    | NetFault::BitFlip { .. }
                                    | NetFault::Stall { .. }
                            )
                    })
                    .collect();
                let (c_up, d_up) = (client, daemon);
                let Ok(c_down) = c_up.try_clone() else {
                    continue;
                };
                let Ok(d_down) = d_up.try_clone() else {
                    continue;
                };
                {
                    let stats = Arc::clone(&stats);
                    let shutdown = Arc::clone(&shutdown);
                    pumps.push(thread::spawn(move || {
                        pump_faulted(c_up, d_up, &faults, &stats, &shutdown);
                    }));
                }
                {
                    let stats = Arc::clone(&stats);
                    let shutdown = Arc::clone(&shutdown);
                    pumps.push(thread::spawn(move || {
                        pump_clean(d_down, c_down, &stats, &shutdown);
                    }));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                let mut live = Vec::with_capacity(pumps.len());
                for h in pumps {
                    if h.is_finished() {
                        let _ = h.join();
                    } else {
                        live.push(h);
                    }
                }
                pumps = live;
                thread::sleep(PUMP_POLL);
            }
            Err(_) => thread::sleep(PUMP_POLL),
        }
    }
    for h in pumps {
        let _ = h.join();
    }
}

/// Forwards daemon→client bytes verbatim.
fn pump_clean(mut src: TcpStream, mut dst: TcpStream, stats: &ProxyStats, shutdown: &AtomicBool) {
    let _ = src.set_read_timeout(Some(PUMP_POLL));
    let mut buf = [0u8; 8192];
    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match src.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                // Count before the write: a peer that has read every
                // byte must never see a lower count.
                stats.bytes_down.add(n as u64);
                if dst.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            Err(_) => break,
        }
    }
    let _ = dst.shutdown(Shutdown::Write);
}

/// Forwards client→daemon bytes through the fault list.
fn pump_faulted(
    mut src: TcpStream,
    mut dst: TcpStream,
    faults: &[NetFault],
    stats: &ProxyStats,
    shutdown: &AtomicBool,
) {
    let _ = src.set_read_timeout(Some(PUMP_POLL));
    let mut buf = [0u8; 8192];
    // Absolute byte offset of the next byte to leave the proxy.
    let mut sent: u64 = 0;
    // CoalesceReads holding buffer (empty unless the fault is present).
    let mut held: Vec<u8> = Vec::new();
    let hold_cap = faults.iter().find_map(|f| match f {
        NetFault::CoalesceReads { hold } => Some(*hold),
        _ => None,
    });
    let max_burst = faults.iter().find_map(|f| match f {
        NetFault::SplitWrites { max_burst } => Some((*max_burst).max(1)),
        _ => None,
    });
    let mut stall = faults.iter().find_map(|f| match f {
        NetFault::Stall { at_byte, millis } => Some((*at_byte, *millis)),
        _ => None,
    });
    let disconnect_at = faults.iter().find_map(|f| match f {
        NetFault::DisconnectAt { byte } => Some(*byte),
        _ => None,
    });
    let mut flip_at = faults.iter().find_map(|f| match f {
        NetFault::BitFlip { byte } => Some(*byte),
        _ => None,
    });
    'pump: loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let chunk: Vec<u8> = match src.read(&mut buf) {
            Ok(0) => {
                // EOF: flush anything coalesced, then half-close.
                if !held.is_empty()
                    && forward(
                        &mut dst,
                        &mut held,
                        &mut sent,
                        max_burst,
                        &mut stall,
                        &mut flip_at,
                        disconnect_at,
                        stats,
                    )
                    .is_err()
                {
                    break;
                }
                break;
            }
            Ok(n) => buf[..n].to_vec(),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // Idle: flush the coalesce buffer so a request/reply
                // handshake (HELLO, PING) can't deadlock behind it.
                if !held.is_empty()
                    && forward(
                        &mut dst,
                        &mut held,
                        &mut sent,
                        max_burst,
                        &mut stall,
                        &mut flip_at,
                        disconnect_at,
                        stats,
                    )
                    .is_err()
                {
                    break;
                }
                continue;
            }
            Err(_) => break,
        };
        held.extend_from_slice(&chunk);
        if let Some(cap) = hold_cap {
            if held.len() < cap {
                continue;
            }
        }
        if forward(
            &mut dst,
            &mut held,
            &mut sent,
            max_burst,
            &mut stall,
            &mut flip_at,
            disconnect_at,
            stats,
        )
        .is_err()
        {
            break 'pump;
        }
    }
    let _ = dst.shutdown(Shutdown::Write);
    let _ = src.shutdown(Shutdown::Read);
}

/// Drains `held` into `dst`, applying stall, bit-flip, burst-split, and
/// the forced disconnect. Errors mean the connection is done.
// One flat injector pipeline beats a struct invented only to carry it.
#[allow(clippy::too_many_arguments)]
fn forward(
    dst: &mut TcpStream,
    held: &mut Vec<u8>,
    sent: &mut u64,
    max_burst: Option<usize>,
    stall: &mut Option<(u64, u64)>,
    flip_at: &mut Option<u64>,
    disconnect_at: Option<u64>,
    stats: &ProxyStats,
) -> io::Result<()> {
    let mut data = std::mem::take(held);
    // Bit flip: XOR the byte at its absolute stream offset.
    if let Some(at) = *flip_at {
        if at >= *sent && at < *sent + data.len() as u64 {
            data[(at - *sent) as usize] ^= 0x01;
            *flip_at = None;
            stats.faults_fired.inc();
        }
    }
    // Forced disconnect: truncate at the boundary, ship the prefix,
    // then kill the connection mid-frame.
    let mut kill_after = None;
    if let Some(at) = disconnect_at {
        if at < *sent + data.len() as u64 {
            data.truncate((at.saturating_sub(*sent)) as usize);
            kill_after = Some(());
        }
    }
    let mut off = 0usize;
    while off < data.len() {
        if let Some((at, millis)) = *stall {
            if at >= *sent && at < *sent + data.len() as u64 {
                thread::sleep(Duration::from_millis(millis));
                *stall = None;
            }
        }
        let burst = max_burst.unwrap_or(data.len() - off).min(data.len() - off);
        stats.bytes_up.add(burst as u64); // before the write, as in `pump_clean`
        dst.write_all(&data[off..off + burst])?;
        *sent += burst as u64;
        off += burst;
    }
    if kill_after.is_some() {
        stats.faults_fired.inc();
        let _ = dst.shutdown(Shutdown::Both);
        return Err(io::Error::new(
            io::ErrorKind::ConnectionAborted,
            "injected disconnect",
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_deterministic_and_covers_every_injector() {
        let a = NetFaultPlan::matrix(42);
        let b = NetFaultPlan::matrix(42);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.faults, y.faults, "same seed, same plan: {}", x.name);
        }
        let names: Vec<&str> = a.iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            [
                "clean",
                "split-writes",
                "coalesced-reads",
                "stall",
                "disconnect-mid-frame",
                "bitflip",
                "split+disconnect",
                "coalesce+bitflip"
            ]
        );
        // Different seeds move the offsets (spot-check the disconnect).
        let c = NetFaultPlan::matrix(43);
        assert_ne!(a[4].faults, c[4].faults);
        assert!(a[0].faults.is_empty());
        assert!(a.iter().all(|p| p.recoverable));
    }

    #[test]
    fn seeded_offsets_stay_in_the_early_stream_window() {
        for seed in 0..32 {
            for plan in NetFaultPlan::matrix(seed) {
                for f in &plan.faults {
                    match *f {
                        NetFault::SplitWrites { max_burst } => {
                            assert!((1..=97).contains(&max_burst))
                        }
                        NetFault::CoalesceReads { hold } => assert!((2048..16384).contains(&hold)),
                        NetFault::Stall { at_byte, millis } => {
                            assert!((1024..65_536).contains(&at_byte) && millis > 0)
                        }
                        NetFault::DisconnectAt { byte } | NetFault::BitFlip { byte } => {
                            assert!((1024..65_536).contains(&byte))
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn proxy_forwards_bytes_verbatim_without_faults() {
        // echo upstream: one connection, echoes everything back.
        let upstream = TcpListener::bind("127.0.0.1:0").expect("bind upstream");
        let up_addr = upstream.local_addr().expect("upstream addr");
        let echo = thread::spawn(move || {
            let (mut s, _) = upstream.accept().expect("accept");
            let mut buf = [0u8; 1024];
            loop {
                match s.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        if s.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                }
            }
        });
        let proxy = ChaosProxy::spawn(up_addr, NetFaultPlan::clean()).expect("proxy");
        let mut sock = TcpStream::connect(proxy.local_addr()).expect("connect");
        let payload: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        sock.write_all(&payload).expect("write");
        let mut got = vec![0u8; payload.len()];
        sock.read_exact(&mut got).expect("read back");
        assert_eq!(got, payload, "clean proxy is byte-transparent");
        drop(sock);
        echo.join().expect("echo thread");
        let (conns, up, down, fired) = proxy.stats();
        assert_eq!(conns, 1);
        assert!(up >= 4096 && down >= 4096);
        assert_eq!(fired, 0);
    }

    #[test]
    fn proxy_disconnects_mid_stream_exactly_at_the_seeded_byte() {
        let upstream = TcpListener::bind("127.0.0.1:0").expect("bind upstream");
        let up_addr = upstream.local_addr().expect("upstream addr");
        let sink = thread::spawn(move || {
            let (mut s, _) = upstream.accept().expect("accept");
            let mut total = 0usize;
            let mut buf = [0u8; 1024];
            loop {
                match s.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => total += n,
                }
            }
            total
        });
        let plan = NetFaultPlan {
            name: "cut",
            seed: 0,
            faults: vec![NetFault::DisconnectAt { byte: 1000 }],
            recoverable: true,
        };
        let proxy = ChaosProxy::spawn(up_addr, plan).expect("proxy");
        let mut sock = TcpStream::connect(proxy.local_addr()).expect("connect");
        // Writes beyond the cut may appear to succeed locally; the far
        // side must see exactly the first 1000 bytes.
        for _ in 0..8 {
            if sock.write_all(&[0xAB; 512]).is_err() {
                break;
            }
            thread::sleep(Duration::from_millis(10));
        }
        let delivered = sink.join().expect("sink thread");
        assert_eq!(delivered, 1000, "stream cut exactly at the fault offset");
        let (_, up, _, fired) = proxy.stats();
        assert_eq!(up, 1000);
        assert_eq!(fired, 1);
    }
}
