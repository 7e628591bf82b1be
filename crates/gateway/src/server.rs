//! The gateway daemon: a `std::net` TCP server feeding per-stream
//! [`StreamDecoder`]s from framed IQ connections.
//!
//! # Thread model
//!
//! ```text
//! accept loop ──► one connection thread per client
//!                   ├─ reader  (this thread): FrameReader::poll → Ingest queue
//!                   └─ decoder (spawned):     Ingest queue → StreamDecoder
//!                                              → uplink JSON lines on the socket
//! ```
//!
//! The ingest queue is **bounded with fair-share backpressure**: when
//! the decoder falls behind the socket, the oldest buffered DATA chunk
//! of the *most-buffered stream* is evicted (never control verbs) and
//! `chunks_dropped` increments — the daemon sheds load from the
//! heaviest stream instead of ballooning memory or letting one firehose
//! starve its neighbours. An optional per-stream quota sheds incoming
//! frames of a stream that already holds its fair share
//! (`shed_frames`). Each connection is fault-contained: a panicking
//! stream decode is caught ([`std::panic::catch_unwind`], same policy
//! as the parallel receiver's worker containment), the stream's
//! receiver is restarted, and every other stream and connection keeps
//! decoding. A malformed frame yields a typed
//! [`crate::wire::WireError`], one `error` JSON line, and closes only
//! that connection.
//!
//! # Resilience layer
//!
//! The daemon's *control plane* (and only the control plane) also keeps
//! wall-clock deadlines — every clock read below carries a justified
//! `TNB-DET01` allowance:
//!
//! - **Idle deadline** (`idle_timeout`): a connection that delivers no
//!   frame within the window is disconnected (`idle_disconnects`) with
//!   a `goaway` line; PING frames are cheap keepalives.
//! - **Write deadline** (`write_timeout`): an uplink write that blocks
//!   past the window marks the peer as a slow consumer
//!   (`write_timeouts`) and disconnects it.
//! - **Session resume**: a connection that sent HELLO owns a session
//!   token. On an *unexpected* disconnect (EOF, wire error, idle or
//!   write deadline) its per-stream receiver state is parked for
//!   `RESUME_GRACE`; a reconnecting client sends RESUME(token) and
//!   continues decoding mid-packet with nothing lost. A clean GOAWAY
//!   (or daemon SHUTDOWN) flushes and reports instead of parking.
//! - **Admission control** (`max_conns`): connections beyond the cap
//!   are answered with a `busy` line and closed (`busy_rejects`).
//!
//! All timing on the *uplink path* still comes from the sample clock
//! ([`StreamDecoder::position`]); decoded output never depends on
//! the wall clock, so a replayed stream uplinks byte-identical lines.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::stats::{GatewayStats, GatewayStatsSnapshot};
use crate::uplink;
use crate::wire::{FrameKind, FrameReader, ReadStep};
use tnb_core::{DecodeReport, MetricsSnapshot, StreamDecoder, StreamingConfig, WidebandConfig};
use tnb_dsp::{ChannelizerConfig, Complex32};
use tnb_phy::LoRaParams;

/// How often blocked socket reads wake up to check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// How long a HELLO'd connection's stream state survives an unexpected
/// disconnect waiting for a RESUME.
const RESUME_GRACE: Duration = Duration::from_secs(30);

/// Daemon configuration.
#[derive(Debug, Clone, Copy)]
pub struct GatewayConfig {
    /// PHY parameters every stream of this daemon is decoded with.
    pub params: LoRaParams,
    /// Per-stream streaming-receiver configuration (`workers` reuses the
    /// parallel pipeline inside each stream's receiver).
    pub streaming: StreamingConfig,
    /// Ingest-queue bound, in buffered DATA chunks per connection.
    /// Beyond it the fair-share policy evicts the oldest chunk of the
    /// most-buffered stream (clamped to ≥ 1).
    pub queue_chunks: usize,
    /// Filterbank geometry for streams that arrive with the wire
    /// protocol's WIDEBAND flag (see [`crate::wire::FLAG_WIDEBAND`]).
    pub channelizer: ChannelizerConfig,
    /// Disconnect a connection that delivers no frame within this
    /// window (`None` = never; the default). PING keepalives count as
    /// activity.
    pub idle_timeout: Option<Duration>,
    /// Socket write deadline for uplink lines: a peer that blocks the
    /// writer past this window is disconnected as a slow consumer
    /// (`None` = block forever; the default).
    pub write_timeout: Option<Duration>,
    /// Admission cap: connections beyond this many concurrent peers are
    /// answered with a `busy` line and closed (0 = unlimited).
    pub max_conns: usize,
    /// Ack cadence on HELLO'd connections: write an `ack` line after
    /// every this-many consumed chunks per stream (0 = ack only at end
    /// of stream). Plain connections are never acked.
    pub ack_every: u64,
    /// Per-stream ingest quota, in buffered chunks (0 = none): a DATA
    /// frame for a stream already holding this many queued chunks is
    /// shed on arrival (`shed_frames`) instead of evicting neighbours.
    pub quota_chunks: usize,
}

impl GatewayConfig {
    /// Defaults: single worker, no observation, 256-chunk ingest bound,
    /// 8-channel wideband filterbank, no idle/write deadlines, no
    /// admission cap, ack every 16 chunks.
    pub fn new(params: LoRaParams) -> Self {
        GatewayConfig {
            params,
            streaming: StreamingConfig::default(),
            queue_chunks: 256,
            channelizer: ChannelizerConfig::default(),
            idle_timeout: None,
            write_timeout: None,
            max_conns: 0,
            ack_every: 16,
            quota_chunks: 0,
        }
    }
}

/// Work items flowing from a connection's reader to its decoder.
enum Work {
    /// One DATA frame's samples.
    Chunk {
        stream_id: u32,
        seq: u32,
        wideband: bool,
        samples: Vec<Complex32>,
    },
    /// END_STREAM verb: flush and report one stream (`seq` is the END
    /// frame's own sequence number, acked back to resumable clients).
    End { stream_id: u32, seq: u32 },
    /// STATS verb: emit a stats JSON line.
    Stats,
    /// PING verb: emit a pong line echoing the nonce.
    Ping { nonce: u32 },
    /// HELLO verb: allocate (or repeat) this connection's session token.
    Hello,
    /// RESUME verb: re-attach the parked session `token`. `delivered`
    /// is how many session lines the client already received; the
    /// daemon replays the session log past that point, recovering the
    /// lines that died in the old connection's socket buffer.
    Resume { token: u32, delivered: u32 },
    /// Reader is done (EOF, shutdown, or a protocol error): tear the
    /// connection down. `error` carries the wire-error name + detail
    /// when a malformed frame ended the connection; `park` asks the
    /// decoder to park a HELLO'd session for resume instead of
    /// finishing it; `goaway` names the reason line to send first.
    Terminal {
        error: Option<(&'static str, String)>,
        park: bool,
        goaway: Option<&'static str>,
    },
}

impl Work {
    /// A clean end-of-connection marker (flush + report everything).
    fn finish_terminal() -> Work {
        Work::Terminal {
            error: None,
            park: false,
            goaway: None,
        }
    }
}

/// Outcome of enqueueing one DATA chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PushOutcome {
    /// Enqueued; `evicted` buffered chunks were dropped to make room.
    Queued { evicted: u64 },
    /// The incoming frame itself was shed (stream over its quota).
    Shed,
}

/// Bounded MPSC queue with fair-share backpressure on DATA chunks.
/// Control verbs are never dropped and don't count toward the bound.
struct Ingest {
    state: Mutex<IngestState>,
    ready: Condvar,
    cap: usize,
    quota: usize,
}

struct IngestState {
    items: VecDeque<Work>,
    chunks: usize,
    /// Buffered-chunk count per stream id (fair-share bookkeeping).
    per_stream: BTreeMap<u32, usize>,
}

impl Ingest {
    fn new(cap: usize, quota: usize) -> Self {
        Ingest {
            state: Mutex::new(IngestState {
                items: VecDeque::new(),
                chunks: 0,
                per_stream: BTreeMap::new(),
            }),
            ready: Condvar::new(),
            cap: cap.max(1),
            quota,
        }
    }

    fn lock_queue(&self) -> MutexGuard<'_, IngestState> {
        // A poisoned queue mutex only means a decoder panicked while
        // holding it; the queue data is still structurally valid.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueues `w`, applying the per-stream quota and the fair-share
    /// eviction policy to DATA chunks.
    fn push(&self, w: Work) -> PushOutcome {
        let mut st = self.lock_queue();
        let mut evicted = 0u64;
        if let Work::Chunk { stream_id, .. } = w {
            let held = st.per_stream.get(&stream_id).copied().unwrap_or(0);
            if self.quota > 0 && held >= self.quota {
                return PushOutcome::Shed;
            }
            while st.chunks >= self.cap {
                // Fair share: evict the oldest chunk of the stream
                // holding the most buffered chunks (ties → lowest id),
                // so a firehose stream sheds before its neighbours.
                let Some((&victim, _)) = st.per_stream.iter().max_by_key(|(id, n)| {
                    // max_by_key keeps the *last* max; invert the id so
                    // ties resolve to the lowest stream id.
                    (**n, u32::MAX - **id)
                }) else {
                    break;
                };
                let Some(pos) = st.items.iter().position(
                    |i| matches!(i, Work::Chunk { stream_id, .. } if *stream_id == victim),
                ) else {
                    break;
                };
                st.items.remove(pos);
                st.chunks -= 1;
                match st.per_stream.get_mut(&victim) {
                    Some(n) if *n > 1 => *n -= 1,
                    _ => {
                        st.per_stream.remove(&victim);
                    }
                }
                evicted += 1;
            }
            st.chunks += 1;
            *st.per_stream.entry(stream_id).or_insert(0) += 1;
        }
        st.items.push_back(w);
        drop(st);
        self.ready.notify_one();
        PushOutcome::Queued { evicted }
    }

    /// Blocks until an item is available. The reader always enqueues a
    /// [`Work::Terminal`] before exiting, so this cannot hang forever.
    fn pop(&self) -> Work {
        let mut st = self.lock_queue();
        loop {
            if let Some(w) = st.items.pop_front() {
                if let Work::Chunk { stream_id, .. } = &w {
                    st.chunks -= 1;
                    match st.per_stream.get_mut(stream_id) {
                        Some(n) if *n > 1 => *n -= 1,
                        _ => {
                            st.per_stream.remove(stream_id);
                        }
                    }
                }
                return w;
            }
            st = self.ready.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Bound on the per-session line log (see [`SessionLog`]): a resumed
/// client more than this many lines behind gets a gapped replay.
const SESSION_LOG_CAP: usize = 8192;

/// The per-session delivery log: every *session line* (uplink / end /
/// ack / stats / error — the lines whose delivery matters for the
/// transcript) written on a resumable connection, indexed from the
/// session's start. TCP write success only means "reached the kernel
/// buffer": the lines in flight when a connection dies are lost, and
/// the parked receiver cannot re-decode them. A RESUME carries the
/// client's received-line count, and the daemon replays `lines[count -
/// start ..]` — exactly the lost tail, nothing else.
#[derive(Default)]
struct SessionLog {
    lines: VecDeque<String>,
    /// Session-line index of `lines[0]` (grows as the cap evicts).
    start: u64,
}

impl SessionLog {
    fn append(&mut self, line: &str) {
        self.lines.push_back(line.to_owned());
        while self.lines.len() > SESSION_LOG_CAP {
            self.lines.pop_front();
            self.start += 1;
        }
    }

    /// The lines a client that received `delivered` lines is missing
    /// (clamped to what the cap kept).
    fn replay_from(&self, delivered: u64) -> impl Iterator<Item = &String> {
        let idx = delivered
            .saturating_sub(self.start)
            .min(self.lines.len() as u64);
        self.lines.iter().skip(idx as usize)
    }
}

/// One parked (disconnected, resumable) connection's decode state.
struct Parked {
    sessions: BTreeMap<u32, Session>,
    finished: BTreeMap<u32, FinishedStream>,
    closed_report: DecodeReport,
    last_metrics: MetricsSnapshot,
    log: SessionLog,
    /// When the grace window runs out and this entry is dropped.
    deadline: Instant,
}

/// The resume table: session token → parked state, shared by every
/// connection thread and pruned by the accept loop.
#[derive(Default)]
struct SessionTable {
    inner: Mutex<BTreeMap<u32, Parked>>,
}

impl SessionTable {
    fn lock_table(&self) -> MutexGuard<'_, BTreeMap<u32, Parked>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn park(&self, token: u32, parked: Parked) {
        self.lock_table().insert(token, parked);
    }

    fn resume(&self, token: u32) -> Option<Parked> {
        self.lock_table().remove(&token)
    }

    /// Drops entries whose grace window has passed; returns how many.
    fn prune(&self, now: Instant) -> u64 {
        let mut table = self.lock_table();
        let before = table.len();
        table.retain(|_, p| p.deadline > now);
        (before - table.len()) as u64
    }
}

/// A running gateway daemon. Dropping (or [`Gateway::join`]) signals
/// shutdown and joins every thread.
pub struct Gateway {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    stats: Arc<GatewayStats>,
    accept: Option<JoinHandle<()>>,
}

impl Gateway {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop in a background thread.
    pub fn spawn<A: ToSocketAddrs>(addr: A, cfg: GatewayConfig) -> io::Result<Gateway> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(GatewayStats::default());
        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let stats = Arc::clone(&stats);
            thread::spawn(move || accept_loop(listener, cfg, stats, shutdown))
        };
        Ok(Gateway {
            local_addr,
            shutdown,
            stats,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live counter snapshot.
    pub fn stats(&self) -> GatewayStatsSnapshot {
        self.stats.snapshot()
    }

    /// Whether shutdown has been requested (locally or by a client's
    /// SHUTDOWN verb).
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown without blocking; threads exit within one poll
    /// interval.
    pub fn signal_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Graceful shutdown: signals every thread, joins them (flushing
    /// per-stream end lines on open connections) and returns the final
    /// counters.
    pub fn join(mut self) -> GatewayStatsSnapshot {
        self.shutdown_and_join();
        self.stats.snapshot()
    }

    fn shutdown_and_join(&mut self) {
        self.signal_shutdown();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

fn accept_loop(
    listener: TcpListener,
    cfg: GatewayConfig,
    stats: Arc<GatewayStats>,
    shutdown: Arc<AtomicBool>,
) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    let table = Arc::new(SessionTable::default());
    // Session tokens are a daemon-global monotonic counter (never the
    // clock, never random): deterministic and collision-free.
    let tokens = Arc::new(AtomicU32::new(0));
    let active = Arc::new(AtomicUsize::new(0));
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((sock, _peer)) => {
                if cfg.max_conns > 0 && active.load(Ordering::SeqCst) >= cfg.max_conns {
                    // Admission control: answer BUSY and close without
                    // spawning threads for the peer.
                    stats.busy_rejects.inc();
                    let line = uplink::busy_line(active.load(Ordering::SeqCst), cfg.max_conns);
                    let mut sock = sock;
                    let _ = writeln!(sock, "{line}");
                    continue;
                }
                active.fetch_add(1, Ordering::SeqCst);
                let stats = Arc::clone(&stats);
                let shutdown = Arc::clone(&shutdown);
                let table = Arc::clone(&table);
                let tokens = Arc::clone(&tokens);
                let active = Arc::clone(&active);
                conns.push(thread::spawn(move || {
                    serve_connection(sock, cfg, stats, shutdown, table, tokens);
                    active.fetch_sub(1, Ordering::SeqCst);
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // Reap finished connections so the handle list stays
                // bounded on long-lived daemons.
                let mut live = Vec::with_capacity(conns.len());
                for h in conns {
                    if h.is_finished() {
                        let _ = h.join();
                    } else {
                        live.push(h);
                    }
                }
                conns = live;
                // Expire parked sessions whose grace window has passed.
                // tnb-lint: allow(TNB-DET01) -- control-plane resume-grace expiry, never on the decode path
                let expired = table.prune(Instant::now());
                if expired > 0 {
                    stats.sessions_expired.add(expired);
                }
                thread::sleep(POLL_INTERVAL);
            }
            Err(_) => thread::sleep(POLL_INTERVAL),
        }
    }
    for h in conns {
        let _ = h.join();
    }
}

fn serve_connection(
    sock: TcpStream,
    cfg: GatewayConfig,
    stats: Arc<GatewayStats>,
    shutdown: Arc<AtomicBool>,
    table: Arc<SessionTable>,
    tokens: Arc<AtomicU32>,
) {
    stats.connections_accepted.inc();
    let write_half = match sock.try_clone() {
        Ok(w) => w,
        Err(_) => {
            // No way to uplink results; nothing useful to serve.
            stats.connections_closed.inc();
            return;
        }
    };
    if sock.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        // Without the read timeout the reader cannot poll the shutdown
        // flag; serve anyway (a hung connection still dies with the
        // process) but make the degraded mode visible in the counters.
        stats.sock_config_errors.inc();
    }
    if let Some(wt) = cfg.write_timeout {
        if write_half.set_write_timeout(Some(wt)).is_err() {
            stats.sock_config_errors.inc();
        }
    }
    // Set by the decoder when the write half dies (slow consumer), so
    // the reader stops draining a connection nobody answers on.
    let conn_done = Arc::new(AtomicBool::new(false));
    let ingest = Arc::new(Ingest::new(cfg.queue_chunks, cfg.quota_chunks));
    let decoder = {
        let ingest = Arc::clone(&ingest);
        let stats = Arc::clone(&stats);
        let table = Arc::clone(&table);
        let tokens = Arc::clone(&tokens);
        let conn_done = Arc::clone(&conn_done);
        thread::spawn(move || {
            decode_loop(
                &ingest, write_half, cfg, &stats, &table, &tokens, &conn_done,
            )
        })
    };
    read_loop(
        sock,
        &ingest,
        &stats,
        &shutdown,
        &conn_done,
        cfg.idle_timeout,
    );
    let _ = decoder.join();
    stats.connections_closed.inc();
}

/// Parses frames off the socket until EOF, shutdown, idle deadline, or
/// a wire error, feeding the decoder through the bounded ingest queue.
fn read_loop(
    mut sock: TcpStream,
    ingest: &Ingest,
    stats: &GatewayStats,
    shutdown: &AtomicBool,
    conn_done: &AtomicBool,
    idle_timeout: Option<Duration>,
) {
    let mut reader = FrameReader::new();
    // Idle deadline (control plane): armed only when configured, so the
    // default daemon never reads the clock at all.
    // tnb-lint: allow(TNB-DET01) -- control-plane idle deadline, never on the decode path
    let mut last_activity = idle_timeout.map(|_| Instant::now());
    loop {
        if shutdown.load(Ordering::SeqCst) {
            ingest.push(Work::finish_terminal());
            return;
        }
        if conn_done.load(Ordering::SeqCst) {
            // The decoder already tore the connection down (dead write
            // half); nobody is listening for a terminal.
            return;
        }
        match reader.poll(&mut sock) {
            Ok(ReadStep::Pending) => {
                if let (Some(limit), Some(last)) = (idle_timeout, last_activity) {
                    // tnb-lint: allow(TNB-DET01) -- control-plane idle deadline, never on the decode path
                    let now = Instant::now();
                    if now.duration_since(last) >= limit {
                        stats.idle_disconnects.inc();
                        ingest.push(Work::Terminal {
                            error: None,
                            park: true,
                            goaway: Some("idle-timeout"),
                        });
                        return;
                    }
                }
            }
            Ok(ReadStep::Eof) => {
                // Unexpected close (a clean leave is GOAWAY/SHUTDOWN):
                // park a resumable session rather than finishing it.
                ingest.push(Work::Terminal {
                    error: None,
                    park: true,
                    goaway: None,
                });
                return;
            }
            Ok(ReadStep::Frame(frame)) => {
                stats.frames_in.inc();
                if let Some(last) = last_activity.as_mut() {
                    // tnb-lint: allow(TNB-DET01) -- control-plane idle deadline, never on the decode path
                    *last = Instant::now();
                }
                match frame.kind {
                    FrameKind::Data => {
                        stats.chunks_in.inc();
                        stats.samples_in.add(frame.samples.len() as u64);
                        let outcome = ingest.push(Work::Chunk {
                            stream_id: frame.stream_id,
                            seq: frame.seq,
                            wideband: frame.is_wideband(),
                            samples: frame.samples,
                        });
                        match outcome {
                            PushOutcome::Queued { evicted } => stats.chunks_dropped.add(evicted),
                            PushOutcome::Shed => stats.shed_frames.inc(),
                        }
                    }
                    FrameKind::EndStream => {
                        ingest.push(Work::End {
                            stream_id: frame.stream_id,
                            seq: frame.seq,
                        });
                    }
                    FrameKind::Stats => {
                        ingest.push(Work::Stats);
                    }
                    FrameKind::Ping => {
                        ingest.push(Work::Ping {
                            nonce: frame.nonce(),
                        });
                    }
                    FrameKind::Hello => {
                        ingest.push(Work::Hello);
                    }
                    FrameKind::Resume => {
                        ingest.push(Work::Resume {
                            token: frame.session_token(),
                            delivered: frame.delivered(),
                        });
                    }
                    FrameKind::GoAway => {
                        // Clean close: flush + report, never park.
                        ingest.push(Work::finish_terminal());
                        return;
                    }
                    FrameKind::Pong | FrameKind::Busy => {
                        // Server→client verbs; harmless as inbound
                        // keepalive traffic (they reset the idle clock).
                    }
                    FrameKind::Shutdown => {
                        shutdown.store(true, Ordering::SeqCst);
                        ingest.push(Work::finish_terminal());
                        return;
                    }
                }
            }
            Err(e) => {
                stats.protocol_errors.inc();
                ingest.push(Work::Terminal {
                    error: Some((e.name(), e.to_string())),
                    park: true,
                    goaway: None,
                });
                return;
            }
        }
    }
}

/// One stream's decode state inside a connection.
struct Session {
    /// The decode engine; its narrowband/wideband mode is latched by
    /// the stream's first DATA frame's WIDEBAND flag.
    rx: StreamDecoder,
    next_seq: u32,
    uplinked: u64,
    /// Chunks consumed by the decoder (drives the ack cadence).
    processed: u64,
}

/// A fresh decode engine for one stream.
fn decoder(cfg: &GatewayConfig, wideband: bool) -> StreamDecoder {
    let wb = WidebandConfig {
        channelizer: cfg.channelizer,
        streaming: cfg.streaming,
    };
    StreamDecoder::new(cfg.params, &wb, wideband)
}

/// What remains of a stream after END_STREAM: enough to recognize (and
/// ack) retransmissions of already-delivered frames after a resume.
#[derive(Debug, Clone, Copy)]
struct FinishedStream {
    /// The seq cursor after the END frame (first never-consumed seq).
    next_seq: u32,
    /// Packets the stream uplinked before it finished.
    uplinked: u64,
}

impl Session {
    fn new(cfg: &GatewayConfig, wideband: bool) -> Session {
        Session {
            rx: decoder(cfg, wideband),
            next_seq: 0,
            uplinked: 0,
            processed: 0,
        }
    }

    /// Writes one uplink session line per packet, numbered from the
    /// stream's running uplink count (channel-tagged on wideband).
    fn uplink(
        &mut self,
        stream_id: u32,
        pkts: &[(Option<usize>, tnb_core::DecodedPacket)],
        params: &LoRaParams,
        stats: &GatewayStats,
        up: &mut Uplink,
    ) {
        for (chan, p) in pkts {
            let line = uplink::tagged_uplink_line(params, stream_id, self.uplinked, *chan, p);
            self.uplinked += 1;
            stats.packets_uplinked.inc();
            up.session(&line, stats);
        }
    }
}

/// The uplink writer plus its health and the session delivery log.
/// Once a write fails (slow consumer hitting the write deadline, or a
/// vanished peer) the connection is torn down and — for HELLO'd
/// sessions — parked for resume; the log makes the undelivered lines
/// replayable.
struct Uplink {
    out: BufWriter<TcpStream>,
    broken: bool,
    /// True once the connection holds a session token: session lines
    /// are logged for replay from then on.
    logging: bool,
    log: SessionLog,
}

impl Uplink {
    /// Writes a *session line* (uplink / end / ack / stats / error):
    /// logged for resume replay on resumable connections. The set of
    /// logged types must match what [`crate::client::ResilientClient`]
    /// counts as delivered.
    fn session(&mut self, line: &str, stats: &GatewayStats) {
        if self.logging {
            self.log.append(line);
        }
        self.write(line, stats);
    }

    /// Writes a *link line* (hello / resumed / pong / busy / goaway):
    /// connection-scoped, never logged or replayed.
    fn link(&mut self, line: &str, stats: &GatewayStats) {
        self.write(line, stats);
    }

    /// Writes one line; on failure marks the link broken and counts a
    /// write timeout when the failure was the write deadline.
    fn write(&mut self, line: &str, stats: &GatewayStats) {
        if self.broken {
            return;
        }
        let r = writeln!(self.out, "{line}").and_then(|()| self.out.flush());
        if let Err(e) = r {
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) {
                stats.write_timeouts.inc();
            }
            self.broken = true;
        }
    }
}

/// Everything one connection's decoder accumulates.
struct ConnState {
    sessions: BTreeMap<u32, Session>,
    finished: BTreeMap<u32, FinishedStream>,
    closed_report: DecodeReport,
    last_metrics: MetricsSnapshot,
    /// HELLO-assigned session token (makes the connection resumable).
    token: Option<u32>,
    /// Whether this connection re-attached a parked session (switches
    /// the stale-frame counter from `seq_dups` to `retransmitted_frames`).
    resumed: bool,
}

impl ConnState {
    fn new() -> ConnState {
        ConnState {
            sessions: BTreeMap::new(),
            finished: BTreeMap::new(),
            closed_report: DecodeReport::default(),
            last_metrics: MetricsSnapshot::default(),
            token: None,
            resumed: false,
        }
    }
}

/// Drains the ingest queue, decoding each stream with its own
/// [`StreamDecoder`] and writing uplink JSON lines to `write_half`.
fn decode_loop(
    ingest: &Ingest,
    write_half: TcpStream,
    cfg: GatewayConfig,
    stats: &GatewayStats,
    table: &SessionTable,
    tokens: &AtomicU32,
    conn_done: &AtomicBool,
) {
    let mut up = Uplink {
        out: BufWriter::new(write_half),
        broken: false,
        logging: false,
        log: SessionLog::default(),
    };
    let mut state = ConnState::new();
    loop {
        match ingest.pop() {
            Work::Chunk {
                stream_id,
                seq,
                wideband,
                samples,
            } => {
                if let Some(f) = state.finished.get(&stream_id) {
                    // The stream already ended on this session; frames
                    // at/behind its cursor are resends of delivered
                    // data, dropped so nothing decodes twice.
                    if seq.wrapping_sub(f.next_seq) >= 1 << 31 {
                        count_stale(stats, state.resumed);
                        continue;
                    }
                    // A genuinely new seq on a finished stream falls
                    // through and (re)creates the stream.
                    state.finished.remove(&stream_id);
                }
                let s = state
                    .sessions
                    .entry(stream_id)
                    .or_insert_with(|| Session::new(&cfg, wideband));
                // Sequence tracking with u32 wraparound: a frame ahead
                // of the cursor (by less than half the sequence space)
                // is a gap — counted, then accepted; a frame at or
                // behind the cursor is a duplicate / stale
                // retransmission — counted and dropped, so a replayed
                // chunk is never decoded (and uplinked) twice.
                let diff = seq.wrapping_sub(s.next_seq);
                if diff != 0 {
                    if diff < 1 << 31 {
                        stats.seq_gaps.inc();
                    } else {
                        count_stale(stats, state.resumed);
                        continue;
                    }
                }
                s.next_seq = seq.wrapping_add(1);
                // Fault containment: a panicking decode restarts this
                // stream's receiver (sample clock rebases); every other
                // stream and connection is untouched.
                let pkts = match catch_unwind(AssertUnwindSafe(|| s.rx.push(&samples))) {
                    Ok(pkts) => pkts,
                    Err(_) => {
                        stats.worker_panics.inc();
                        s.rx = decoder(&cfg, s.rx.is_wideband());
                        Vec::new()
                    }
                };
                s.processed += 1;
                s.uplink(stream_id, &pkts, &cfg.params, stats, &mut up);
                // Delivery acks let a resumable client trim its resend
                // buffer; plain connections never see them.
                if state.token.is_some()
                    && cfg.ack_every > 0
                    && s.processed.is_multiple_of(cfg.ack_every)
                {
                    up.session(&uplink::ack_line(stream_id, seq), stats);
                }
            }
            Work::End { stream_id, seq } => {
                if let Some(mut s) = state.sessions.remove(&stream_id) {
                    let cursor = seq.wrapping_add(1);
                    finish_session(
                        stream_id,
                        &mut s,
                        &cfg,
                        stats,
                        &mut up,
                        &mut state.closed_report,
                        &mut state.last_metrics,
                    );
                    state.finished.insert(
                        stream_id,
                        FinishedStream {
                            next_seq: cursor,
                            uplinked: s.uplinked,
                        },
                    );
                }
                if state.token.is_some() {
                    // Final ack: the whole stream (END included) is
                    // delivered; the client drops its resend buffer.
                    up.session(&uplink::ack_line(stream_id, seq), stats);
                }
            }
            Work::Stats => {
                let mut report = state.closed_report.clone();
                let mut metrics = state.last_metrics;
                for s in state.sessions.values() {
                    report.absorb(&s.rx.report());
                    metrics = s.rx.metrics_snapshot();
                }
                let line = uplink::stats_line(&stats.snapshot(), &report, &metrics);
                up.session(&line, stats);
            }
            Work::Ping { nonce } => {
                stats.pings_answered.inc();
                up.link(&uplink::pong_line(nonce), stats);
            }
            Work::Hello => {
                let token = match state.token {
                    Some(t) => t,
                    None => {
                        let t = tokens.fetch_add(1, Ordering::SeqCst).wrapping_add(1);
                        state.token = Some(t);
                        up.logging = true;
                        t
                    }
                };
                up.link(
                    &uplink::hello_line(token, RESUME_GRACE.as_millis() as u64),
                    stats,
                );
            }
            Work::Resume { token, delivered } => match table.resume(token) {
                Some(parked) => {
                    stats.sessions_resumed.inc();
                    state.sessions = parked.sessions;
                    state.finished = parked.finished;
                    state.closed_report = parked.closed_report;
                    state.last_metrics = parked.last_metrics;
                    state.token = Some(token);
                    state.resumed = true;
                    up.log = parked.log;
                    up.logging = true;
                    let mut streams: Vec<(u32, u32, u64)> = state
                        .sessions
                        .iter()
                        .map(|(&id, s)| (id, s.next_seq, s.uplinked))
                        .collect();
                    streams.extend(
                        state
                            .finished
                            .iter()
                            .map(|(&id, f)| (id, f.next_seq, f.uplinked)),
                    );
                    streams.sort_unstable();
                    up.link(&uplink::resumed_line(token, &streams), stats);
                    // Replay the session lines that died in the old
                    // connection's socket buffer: everything past the
                    // client's delivered count (already in the log, so
                    // written raw — not re-appended).
                    let replay: Vec<String> =
                        up.log.replay_from(delivered as u64).cloned().collect();
                    for line in &replay {
                        up.write(line, stats);
                    }
                }
                None => {
                    // Unknown or expired token: tell the client its
                    // session is gone; it can HELLO a fresh one.
                    up.link(&uplink::goaway_line("unknown-session"), stats);
                }
            },
            Work::Terminal {
                error,
                park,
                goaway,
            } => {
                if let Some((name, detail)) = error {
                    up.session(&uplink::error_line(name, &detail), stats);
                }
                if let Some(reason) = goaway {
                    up.link(&uplink::goaway_line(reason), stats);
                }
                teardown(state, park, &cfg, stats, table, &mut up);
                return;
            }
        }
        if up.broken {
            // Slow or vanished consumer: stop decoding for a peer that
            // cannot take uplinks; park a resumable session and tell
            // the reader to stop.
            teardown(state, true, &cfg, stats, table, &mut up);
            conn_done.store(true, Ordering::SeqCst);
            return;
        }
    }
}

/// Counts a dropped stale DATA frame: a resumed connection's resends
/// are expected (`retransmitted_frames`); on a plain connection they
/// are duplicates (`seq_dups`).
fn count_stale(stats: &GatewayStats, resumed: bool) {
    if resumed {
        stats.retransmitted_frames.inc();
    } else {
        stats.seq_dups.inc();
    }
}

/// End-of-connection: parks a resumable session for the grace window,
/// or flushes and reports everything.
fn teardown(
    mut state: ConnState,
    park: bool,
    cfg: &GatewayConfig,
    stats: &GatewayStats,
    table: &SessionTable,
    up: &mut Uplink,
) {
    if park {
        if let Some(token) = state.token {
            stats.sessions_parked.inc();
            // tnb-lint: allow(TNB-DET01) -- control-plane resume-grace deadline, never on the decode path
            let deadline = Instant::now() + RESUME_GRACE;
            table.park(
                token,
                Parked {
                    sessions: state.sessions,
                    finished: state.finished,
                    closed_report: state.closed_report,
                    last_metrics: state.last_metrics,
                    log: std::mem::take(&mut up.log),
                    deadline,
                },
            );
            return;
        }
    }
    let ids: Vec<u32> = state.sessions.keys().copied().collect();
    for id in ids {
        if let Some(mut s) = state.sessions.remove(&id) {
            finish_session(
                id,
                &mut s,
                cfg,
                stats,
                up,
                &mut state.closed_report,
                &mut state.last_metrics,
            );
        }
    }
}

/// Flushes a stream's tail, uplinks any final packets, and writes the
/// end-of-stream report line.
fn finish_session(
    stream_id: u32,
    s: &mut Session,
    cfg: &GatewayConfig,
    stats: &GatewayStats,
    up: &mut Uplink,
    closed_report: &mut DecodeReport,
    last_metrics: &mut MetricsSnapshot,
) {
    let pkts = match catch_unwind(AssertUnwindSafe(|| s.rx.finish())) {
        Ok(pkts) => pkts,
        Err(_) => {
            stats.worker_panics.inc();
            Vec::new()
        }
    };
    s.uplink(stream_id, &pkts, &cfg.params, stats, up);
    let report = s.rx.report();
    *last_metrics = s.rx.metrics_snapshot();
    up.session(
        &uplink::end_line(stream_id, s.rx.position(), s.uplinked, &report),
        stats,
    );
    closed_report.absorb(&report);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(stream_id: u32, n: usize) -> Work {
        Work::Chunk {
            stream_id,
            seq: n as u32,
            wideband: false,
            samples: vec![Complex32::ZERO; 4],
        }
    }

    fn popped_chunk(q: &Ingest) -> (u32, u32) {
        match q.pop() {
            Work::Chunk { stream_id, seq, .. } => (stream_id, seq),
            _ => panic!("expected chunk"),
        }
    }

    #[test]
    fn ingest_evicts_chunks_but_never_control_verbs() {
        let q = Ingest::new(2, 0);
        assert_eq!(q.push(chunk(0, 0)), PushOutcome::Queued { evicted: 0 });
        assert_eq!(q.push(Work::Stats), PushOutcome::Queued { evicted: 0 });
        assert_eq!(q.push(chunk(0, 1)), PushOutcome::Queued { evicted: 0 });
        // Queue holds chunks {0,1} at the cap of 2: the next chunk
        // evicts seq 0, the oldest buffered chunk of the only stream.
        assert_eq!(q.push(chunk(0, 2)), PushOutcome::Queued { evicted: 1 });
        // Control verbs are never counted or dropped.
        assert_eq!(
            q.push(Work::End {
                stream_id: 0,
                seq: 3
            }),
            PushOutcome::Queued { evicted: 0 }
        );
        match q.pop() {
            Work::Stats => {}
            _ => panic!("Stats verb survives eviction and stays FIFO-first"),
        }
        assert_eq!(popped_chunk(&q), (0, 1), "seq 0 was evicted");
        assert_eq!(popped_chunk(&q), (0, 2));
        match q.pop() {
            Work::End { .. } => {}
            _ => panic!("expected end"),
        }
    }

    #[test]
    fn ingest_cap_zero_clamps_to_one() {
        let q = Ingest::new(0, 0);
        assert_eq!(q.push(chunk(0, 0)), PushOutcome::Queued { evicted: 0 });
        assert_eq!(q.push(chunk(0, 1)), PushOutcome::Queued { evicted: 1 });
    }

    #[test]
    fn ingest_fair_share_evicts_the_heaviest_stream() {
        // Stream 7 hogs 3 of the 4 slots; stream 1 holds one. The next
        // chunk (for stream 1) must evict from stream 7 — the heaviest
        // stream pays, not the oldest frame overall (which is 7's
        // anyway) and not the newcomer.
        let q = Ingest::new(4, 0);
        for seq in 0..3 {
            assert_eq!(q.push(chunk(7, seq)), PushOutcome::Queued { evicted: 0 });
        }
        assert_eq!(q.push(chunk(1, 0)), PushOutcome::Queued { evicted: 0 });
        assert_eq!(q.push(chunk(1, 1)), PushOutcome::Queued { evicted: 1 });
        // Stream 7's oldest chunk (seq 0) is gone; everything of
        // stream 1 survives.
        let mut remaining = Vec::new();
        for _ in 0..4 {
            remaining.push(popped_chunk(&q));
        }
        assert_eq!(remaining, vec![(7, 1), (7, 2), (1, 0), (1, 1)]);
    }

    #[test]
    fn ingest_fair_share_breaks_ties_toward_the_lowest_stream_id() {
        let q = Ingest::new(2, 0);
        assert_eq!(q.push(chunk(5, 0)), PushOutcome::Queued { evicted: 0 });
        assert_eq!(q.push(chunk(9, 0)), PushOutcome::Queued { evicted: 0 });
        // Both streams hold one chunk; the tie resolves to stream 5.
        assert_eq!(q.push(chunk(9, 1)), PushOutcome::Queued { evicted: 1 });
        assert_eq!(popped_chunk(&q), (9, 0));
        assert_eq!(popped_chunk(&q), (9, 1));
    }

    #[test]
    fn ingest_quota_sheds_the_incoming_frame() {
        let q = Ingest::new(16, 2);
        assert_eq!(q.push(chunk(3, 0)), PushOutcome::Queued { evicted: 0 });
        assert_eq!(q.push(chunk(3, 1)), PushOutcome::Queued { evicted: 0 });
        // Stream 3 is at its quota: the new frame is shed, nothing
        // buffered is touched…
        assert_eq!(q.push(chunk(3, 2)), PushOutcome::Shed);
        // …and other streams are unaffected.
        assert_eq!(q.push(chunk(4, 0)), PushOutcome::Queued { evicted: 0 });
        assert_eq!(popped_chunk(&q), (3, 0));
        // Consuming frees quota for the shedding stream.
        assert_eq!(q.push(chunk(3, 3)), PushOutcome::Queued { evicted: 0 });
    }

    #[test]
    fn session_log_replays_exactly_the_undelivered_tail() {
        let mut log = SessionLog::default();
        for i in 0..5 {
            log.append(&format!("line-{i}"));
        }
        // Client saw 3 lines: replay 3 and 4 only.
        let replay: Vec<&String> = log.replay_from(3).collect();
        assert_eq!(replay, [&"line-3".to_owned(), &"line-4".to_owned()]);
        // Fully delivered (or a stale over-count): nothing to replay.
        assert_eq!(log.replay_from(5).count(), 0);
        assert_eq!(log.replay_from(99).count(), 0);
        // Cap eviction shifts the start index; a client further behind
        // than the cap gets the oldest retained line onward.
        for i in 5..(SESSION_LOG_CAP + 10) {
            log.append(&format!("line-{i}"));
        }
        assert_eq!(log.start, 10);
        assert_eq!(log.replay_from(0).count(), SESSION_LOG_CAP);
        assert_eq!(
            log.replay_from(0).next().map(String::as_str),
            Some("line-10")
        );
    }

    #[test]
    fn session_table_parks_resumes_and_prunes() {
        let table = SessionTable::default();
        // tnb-lint: allow(TNB-DET01) -- test-only clock anchor
        let now = Instant::now();
        let parked = |grace: Duration| Parked {
            sessions: BTreeMap::new(),
            finished: BTreeMap::new(),
            closed_report: DecodeReport::default(),
            last_metrics: MetricsSnapshot::default(),
            log: SessionLog::default(),
            deadline: now + grace,
        };
        table.park(1, parked(Duration::from_secs(60)));
        table.park(2, parked(Duration::from_millis(0)));
        // Token 2's grace has already passed at now + 1ms.
        assert_eq!(table.prune(now + Duration::from_millis(1)), 1);
        assert!(table.resume(2).is_none());
        assert!(table.resume(1).is_some(), "unexpired session resumes");
        assert!(table.resume(1).is_none(), "a session resumes only once");
    }
}
