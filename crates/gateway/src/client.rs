//! The gateway wire-protocol client.
//!
//! [`GatewayClient`] speaks the framed IQ protocol of [`crate::wire`]
//! over a plain [`TcpStream`]: a HELLO session handshake, chunked DATA
//! frames per stream, END_STREAM / STATS / SHUTDOWN / PING verbs, and
//! a background reader collecting the daemon's JSON lines. Every sent
//! frame stays in a bounded resend buffer until the daemon acks it, so
//! a send that hits a dead socket (a daemon bounce, a chaos-proxy
//! disconnect) reconnects with seeded-jitter exponential backoff,
//! RESUMEs the session and resends the unacked tail — the uplink
//! transcript then matches a clean run byte for byte whenever the
//! buffer still holds that tail. On a healthy link the same code is a
//! plain connection.
//!
//! The traffic synthesis that drives the client lives in `tnb-sim`
//! (the layer above); this module is only the socket plumbing, so
//! integration tests and the CLI can reuse it.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::wire::{encode_frame, Frame, MAX_FRAME_SAMPLES};
use tnb_dsp::Complex32;

/// Default DATA-frame chunk length in samples (64 ms at 1 Msps — large
/// enough to amortize framing, small enough to exercise chunk-boundary
/// packet reassembly).
pub const DEFAULT_CHUNK: usize = 65_536;

/// Dials `addr`, retrying with exponential backoff (10 ms doubling to a
/// 320 ms ceiling, clipped to the remaining deadline) until `timeout`.
/// The backoff keeps a daemon that is still binding from being
/// hammered by a hot connect loop.
fn connect_with_backoff(addr: SocketAddr, timeout: Duration) -> io::Result<TcpStream> {
    // tnb-lint: allow(TNB-DET01) -- control-plane connect deadline, never on the decode path
    let deadline = Instant::now() + timeout;
    let mut delay = Duration::from_millis(10);
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                // tnb-lint: allow(TNB-DET01) -- control-plane connect deadline, never on the decode path
                let now = Instant::now();
                if now >= deadline {
                    return Err(e);
                }
                thread::sleep(delay.min(deadline - now));
                delay = (delay * 2).min(Duration::from_millis(320));
            }
        }
    }
}

/// Settings of a [`GatewayClient`]. Everything is deterministic given
/// `seed`: the backoff jitter comes from a seeded LCG, never the clock
/// or the OS RNG.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Per-dial connect deadline (also used for the first connect).
    pub connect_timeout: Duration,
    /// Jitter seed (LCG); same seed → same delay schedule.
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            seed: 0,
        }
    }
}

/// Reconnect attempts per failed send (and per stalled
/// [`GatewayClient::drain`]) before giving up.
const MAX_RECONNECTS: u32 = 10;

/// Backoff base: attempt `n` sleeps `BASE_DELAY * 2^n` (plus jitter).
const BASE_DELAY: Duration = Duration::from_millis(20);

/// Backoff ceiling of the reconnect schedule.
const MAX_DELAY: Duration = Duration::from_millis(500);

/// How long to wait for the daemon's `hello` / `resumed` / `pong`
/// reply lines; in [`GatewayClient::drain`], for the pong or for ack
/// progress.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Resend-buffer bound, in frames. Older unacked frames beyond it are
/// evicted (counted in [`ClientStats::resend_evicted`]) — past that
/// point a resume can no longer guarantee a gap-free stream.
const RESEND_FRAMES: usize = 1024;

/// Seeded-jitter exponential backoff: [`BASE_DELAY`]` * 2^attempt`
/// capped at [`MAX_DELAY`], plus an LCG-jittered fraction of
/// [`BASE_DELAY`]. Advances `rng`, so successive calls draw fresh
/// jitter.
fn backoff_delay(rng: &mut u64, attempt: u32) -> Duration {
    *rng = rng
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let exp = BASE_DELAY
        .saturating_mul(1u32 << attempt.min(16))
        .min(MAX_DELAY);
    let jitter_ms = (*rng >> 33) % BASE_DELAY.as_millis() as u64;
    exp + Duration::from_millis(jitter_ms)
}

/// Client-side resilience counters (the daemon-side mirror lives in
/// [`crate::stats::GatewayStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Successful reconnect+RESUME cycles.
    pub reconnects: u64,
    /// Buffered frames re-sent after a resume.
    pub retransmitted_frames: u64,
    /// Unacked frames evicted from the full resend buffer.
    pub resend_evicted: u64,
}

/// One buffered (sent but not yet acked) frame.
struct BufferedFrame {
    stream_id: u32,
    seq: u32,
    bytes: Vec<u8>,
}

/// What the background reader learned from the daemon's control lines.
#[derive(Default)]
struct LinkState {
    /// Full transcript, in arrival order (uplink + control lines).
    lines: Vec<String>,
    /// Session token from the last `hello` line.
    session: Option<u32>,
    /// Per-stream `next_seq` cursors from the last `resumed` line
    /// (`None` until one arrives after a RESUME).
    resume_cursors: Option<BTreeMap<u32, u32>>,
    /// Latest acked seq per stream (daemon `ack` lines).
    acks: BTreeMap<u32, u32>,
    /// Session lines received (uplink / end / ack / stats / error) —
    /// the delivery cursor a RESUME reports so the daemon replays
    /// exactly the lines lost with a dead connection. The counted set
    /// must match what the daemon's session log records.
    session_lines: u64,
    /// Nonce of the most recent `pong` line. Pong lines answer the
    /// client's own liveness probes, so they stay out of `lines`.
    last_pong: Option<u32>,
    /// `goaway` lines seen (a RESUME of an expired session is answered
    /// with `goaway "unknown-session"` instead of `resumed`).
    goaways: u64,
}

struct Link {
    state: Mutex<LinkState>,
    cv: Condvar,
}

impl Link {
    fn lock_state(&self) -> MutexGuard<'_, LinkState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Extracts the unsigned integer following `"key":` in a JSON line
/// (the daemon's control lines are flat enough that this never needs a
/// real parser).
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let digits: &str = line[at..]
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .unwrap_or("");
    digits.parse().ok()
}

/// Parses the `streams` array of a `resumed` line into
/// stream → next_seq cursors.
fn parse_resumed_streams(line: &str) -> BTreeMap<u32, u32> {
    let mut out = BTreeMap::new();
    for part in line.split("{\"stream\":").skip(1) {
        let id = part
            .split(|c: char| !c.is_ascii_digit())
            .next()
            .and_then(|d| d.parse::<u32>().ok());
        let next = json_u64(part, "next_seq").map(|v| v as u32);
        if let (Some(id), Some(next)) = (id, next) {
            out.insert(id, next);
        }
    }
    out
}

/// Drops buffered frames covered by `acks` (per-stream cursor,
/// u32-wraparound aware).
fn prune(buffer: &mut VecDeque<BufferedFrame>, acks: &BTreeMap<u32, u32>) {
    buffer.retain(|f| match acks.get(&f.stream_id) {
        // Keep the frame only while it is ahead of the acked seq.
        Some(&acked) => f.seq.wrapping_sub(acked) < 1 << 31 && f.seq != acked,
        None => true,
    });
}

/// What a [`GatewayClient::drain`] turn learns while it waits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DrainStep {
    /// The pong of the turn's PING arrived. The daemon's ingest is FIFO
    /// and its decode loop answers PING in turn, so every frame written
    /// before the PING was consumed.
    Consumed,
    /// An ack moved past the turn's snapshot: the daemon is making
    /// progress, so a long decode backlog is not a dead link.
    Acked,
}

/// The drain turn's decision on `st`, given the ack snapshot the turn
/// pruned against and the nonce of its PING; `None` keeps waiting.
fn drain_step(st: &LinkState, snapshot: &BTreeMap<u32, u32>, nonce: u32) -> Option<DrainStep> {
    if st.last_pong == Some(nonce) {
        Some(DrainStep::Consumed)
    } else if st.acks != *snapshot {
        Some(DrainStep::Acked)
    } else {
        None
    }
}

fn spawn_link_reader(read_half: TcpStream, link: Arc<Link>) -> JoinHandle<()> {
    thread::spawn(move || {
        for line in BufReader::new(read_half).lines() {
            let Ok(l) = line else { break };
            let mut st = link.lock_state();
            if l.starts_with("{\"type\":\"hello\"") {
                st.session = json_u64(&l, "session").map(|v| v as u32);
            } else if l.starts_with("{\"type\":\"resumed\"") {
                st.resume_cursors = Some(parse_resumed_streams(&l));
            } else if l.starts_with("{\"type\":\"ack\"") {
                if let (Some(s), Some(q)) = (json_u64(&l, "stream"), json_u64(&l, "seq")) {
                    st.acks.insert(s as u32, q as u32);
                }
            } else if l.starts_with("{\"type\":\"pong\"") {
                st.last_pong = json_u64(&l, "nonce").map(|v| v as u32);
                drop(st);
                link.cv.notify_all();
                continue;
            } else if l.starts_with("{\"type\":\"goaway\"") {
                st.goaways += 1;
            }
            if l.starts_with("{\"type\":\"uplink\"")
                || l.starts_with("{\"type\":\"end\"")
                || l.starts_with("{\"type\":\"ack\"")
                || l.starts_with("{\"type\":\"stats\"")
                || l.starts_with("{\"type\":\"error\"")
            {
                st.session_lines += 1;
            }
            st.lines.push(l);
            drop(st);
            link.cv.notify_all();
        }
        link.cv.notify_all();
    })
}

/// A connected gateway client: HELLO on connect, seeded-jitter
/// exponential-backoff reconnect with RESUME, and a bounded
/// resend-from-last-acked frame buffer. Writes frames on the caller's
/// thread; a background thread accumulates every line the daemon
/// sends. Any send that hits a dead socket transparently reconnects,
/// resumes the session, and resends the unacked tail — the daemon's seq
/// cursors make the resend idempotent, so the uplink transcript matches
/// a clean run.
pub struct GatewayClient {
    addr: SocketAddr,
    connect_timeout: Duration,
    sock: TcpStream,
    reader: Option<JoinHandle<()>>,
    link: Arc<Link>,
    token: u32,
    next_seq: BTreeMap<u32, u32>,
    buffer: VecDeque<BufferedFrame>,
    /// Nonce of the last PING [`Self::drain`] sent.
    drain_nonce: u32,
    rng: u64,
    stats: ClientStats,
}

impl GatewayClient {
    /// Connects, retrying with backoff until `cfg.connect_timeout` (the
    /// daemon binds and starts accepting asynchronously), performs the
    /// HELLO handshake, and waits for the daemon's session token. The
    /// deadlines are control-plane only — nothing on the decode path
    /// ever reads the wall clock.
    pub fn connect<A: ToSocketAddrs>(addr: A, cfg: ClientConfig) -> io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address"))?;
        let sock = connect_with_backoff(addr, cfg.connect_timeout)?;
        sock.set_nodelay(true).ok();
        let read_half = sock.try_clone()?;
        let link = Arc::new(Link {
            state: Mutex::new(LinkState::default()),
            cv: Condvar::new(),
        });
        let reader = spawn_link_reader(read_half, Arc::clone(&link));
        let mut client = GatewayClient {
            addr,
            connect_timeout: cfg.connect_timeout,
            sock,
            reader: Some(reader),
            link,
            token: 0,
            next_seq: BTreeMap::new(),
            buffer: VecDeque::new(),
            drain_nonce: 0,
            rng: cfg.seed ^ 0x9e37_79b9_7f4a_7c15,
            stats: ClientStats::default(),
        };
        client.sock.write_all(&encode_frame(&Frame::hello()))?;
        let token = client.wait_state(REPLY_TIMEOUT, |st| st.session);
        match token {
            Some(t) => {
                client.token = t;
                Ok(client)
            }
            None => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "no hello reply from daemon",
            )),
        }
    }

    /// The daemon-assigned session token.
    pub fn session_token(&self) -> u32 {
        self.token
    }

    /// Client-side resilience counters.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Streams `samples` as DATA frames of `chunk_len` samples on
    /// `stream_id`, quantizing through the shared wire quantizer (so a
    /// local reference decode over [`crate::wire::quantize`]d samples
    /// sees exactly the bytes the daemon sees). With `wideband` set
    /// every frame carries the WIDEBAND flag, so the daemon channelizes
    /// the stream into the 8 LoRa uplink channels before decoding.
    /// Survives daemon bounces via reconnect+RESUME+resend. Returns the
    /// number of frames sent (retransmissions not counted).
    pub fn send_samples(
        &mut self,
        stream_id: u32,
        samples: &[Complex32],
        chunk_len: usize,
        wideband: bool,
    ) -> io::Result<u32> {
        let mut sent = 0;
        for chunk in samples.chunks(chunk_len.clamp(1, MAX_FRAME_SAMPLES)) {
            let seq = self.bump_seq(stream_id);
            let frame = if wideband {
                Frame::data_wideband(stream_id, seq, chunk.to_vec())
            } else {
                Frame::data(stream_id, seq, chunk.to_vec())
            };
            self.ship(stream_id, seq, encode_frame(&frame))?;
            sent += 1;
        }
        Ok(sent)
    }

    /// Sends one raw, already-built frame, outside the resend buffer
    /// and the seq cursors (fault-injection tests use this to ship
    /// hand-numbered or deliberately corrupted byte strings).
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.sock.write_all(bytes)
    }

    /// END_STREAM with resend protection: if the END frame (or any
    /// unacked DATA before it) dies with the connection, the resume
    /// path replays it.
    pub fn end_stream(&mut self, stream_id: u32) -> io::Result<()> {
        let seq = self.bump_seq(stream_id);
        let bytes = encode_frame(&Frame::end_stream(stream_id, seq));
        self.ship(stream_id, seq, bytes)
    }

    /// PING keepalive: sends the nonce and waits for the matching pong
    /// line. Returns whether it arrived within the reply timeout.
    pub fn ping(&mut self, nonce: u32) -> io::Result<bool> {
        {
            let mut st = self.link.lock_state();
            st.last_pong = None;
        }
        self.sock.write_all(&encode_frame(&Frame::ping(nonce)))?;
        Ok(self
            .wait_state(REPLY_TIMEOUT, |st| st.last_pong.filter(|&n| n == nonce))
            .is_some())
    }

    /// STATS: the daemon replies with one stats JSON line (collected in
    /// the transcript).
    pub fn request_stats(&mut self) -> io::Result<()> {
        self.sock.write_all(&encode_frame(&Frame::stats()))
    }

    /// SHUTDOWN: asks the whole daemon to shut down gracefully.
    pub fn request_shutdown(&mut self) -> io::Result<()> {
        self.sock.write_all(&encode_frame(&Frame::shutdown()))
    }

    /// Blocks until the daemon has consumed every buffered frame. Each
    /// turn prunes the buffer against one ack snapshot, writes a PING
    /// and waits: the pong proves every earlier frame consumed (acked or
    /// not, so an open stream's unacked tail does not stall), and an ack
    /// that moves past the snapshot starts a new turn. Only a full reply
    /// timeout with neither reconnects and resends. This is what turns
    /// "the write syscall succeeded" into "the daemon consumed it": a
    /// send swallowed by a dying socket's kernel buffer is detected here
    /// and replayed.
    pub fn drain(&mut self) -> io::Result<()> {
        let mut attempts_left = MAX_RECONNECTS;
        loop {
            let snapshot = {
                let st = self.link.lock_state();
                st.acks.clone()
            };
            prune(&mut self.buffer, &snapshot);
            if self.buffer.is_empty() {
                return Ok(());
            }
            self.drain_nonce = self.drain_nonce.wrapping_add(1);
            let nonce = self.drain_nonce;
            let step = match self.sock.write_all(&encode_frame(&Frame::ping(nonce))) {
                Ok(()) => self.wait_state(REPLY_TIMEOUT, |st| drain_step(st, &snapshot, nonce)),
                Err(_) => None,
            };
            match step {
                Some(DrainStep::Consumed) => {
                    self.buffer.clear();
                    return Ok(());
                }
                Some(DrainStep::Acked) => continue,
                None => {}
            }
            if attempts_left == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "unacked frames after reconnect attempts",
                ));
            }
            attempts_left -= 1;
            self.reconnect()?;
        }
    }

    /// Clean close: waits for every buffered frame to be acked
    /// (reconnecting if needed), sends GOAWAY (so the daemon flushes
    /// instead of parking the session), then returns the full
    /// transcript.
    pub fn finish(mut self) -> Vec<String> {
        let _ = self.drain();
        let _ = self.sock.write_all(&encode_frame(&Frame::goaway()));
        let _ = self.sock.shutdown(Shutdown::Write);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
        let mut st = self.link.lock_state();
        std::mem::take(&mut st.lines)
    }

    fn bump_seq(&mut self, stream_id: u32) -> u32 {
        let seq = self.next_seq.entry(stream_id).or_insert(0);
        let cur = *seq;
        *seq = seq.wrapping_add(1);
        cur
    }

    /// Writes the frame, buffers it, trims acked/overflowed entries,
    /// and falls back to the reconnect path when the socket is dead.
    fn ship(&mut self, stream_id: u32, seq: u32, bytes: Vec<u8>) -> io::Result<()> {
        let acks = {
            let st = self.link.lock_state();
            st.acks.clone()
        };
        prune(&mut self.buffer, &acks);
        let written = self.sock.write_all(&bytes).is_ok();
        self.buffer.push_back(BufferedFrame {
            stream_id,
            seq,
            bytes,
        });
        while self.buffer.len() > RESEND_FRAMES {
            self.buffer.pop_front();
            self.stats.resend_evicted += 1;
        }
        if written {
            return Ok(());
        }
        // Dead socket: the reconnect path resends the whole unacked
        // buffer (this frame included) after RESUME.
        self.reconnect()
    }

    /// Reconnect loop: backoff, dial, RESUME the session, resend every
    /// buffered frame at/ahead of the daemon's per-stream cursors.
    fn reconnect(&mut self) -> io::Result<()> {
        'attempts: for attempt in 0..MAX_RECONNECTS {
            // Force the old reader to EOF so its lines are all in the
            // transcript before the new connection starts appending.
            let _ = self.sock.shutdown(Shutdown::Both);
            if let Some(h) = self.reader.take() {
                let _ = h.join();
            }
            thread::sleep(backoff_delay(&mut self.rng, attempt));
            let Ok(sock) = connect_with_backoff(self.addr, self.connect_timeout) else {
                continue;
            };
            sock.set_nodelay(true).ok();
            let Ok(read_half) = sock.try_clone() else {
                continue;
            };
            self.sock = sock;
            self.reader = Some(spawn_link_reader(read_half, Arc::clone(&self.link)));
            let (goaways_before, delivered) = {
                let mut st = self.link.lock_state();
                st.resume_cursors = None;
                (st.goaways, st.session_lines)
            };
            if self
                .sock
                .write_all(&encode_frame(&Frame::resume(self.token, delivered as u32)))
                .is_err()
            {
                continue;
            }
            let answered = self.wait_until(REPLY_TIMEOUT, |st| {
                st.resume_cursors.is_some() || st.goaways > goaways_before
            });
            if !answered {
                continue;
            }
            let cursors = {
                let mut st = self.link.lock_state();
                st.resume_cursors.take()
            };
            let Some(cursors) = cursors else {
                // goaway "unknown-session". Either the grace window
                // expired (the daemon dropped our state for good) or —
                // right after a disconnect — the old connection's
                // decoder is still draining its queue and has not
                // parked the session yet. The latter heals on its own,
                // so retry with backoff and only give up when the
                // attempts run out.
                continue;
            };
            // Resend the unacked tail: everything the daemon's cursors
            // say it has not consumed yet. Streams the daemon never saw
            // are resent in full.
            let mut resent = 0u64;
            for f in &self.buffer {
                let needed = match cursors.get(&f.stream_id) {
                    Some(&next) => f.seq.wrapping_sub(next) < 1 << 31,
                    None => true,
                };
                if !needed {
                    continue;
                }
                if self.sock.write_all(&f.bytes).is_err() {
                    continue 'attempts;
                }
                resent += 1;
            }
            self.stats.reconnects += 1;
            self.stats.retransmitted_frames += resent;
            return Ok(());
        }
        Err(io::Error::new(
            io::ErrorKind::ConnectionAborted,
            "gateway unreachable after reconnect attempts",
        ))
    }

    /// Blocks until `f` yields `Some` on the link state, or `timeout`.
    fn wait_state<T, F: Fn(&LinkState) -> Option<T>>(&self, timeout: Duration, f: F) -> Option<T> {
        // tnb-lint: allow(TNB-DET01) -- control-plane reply deadline, never on the decode path
        let deadline = Instant::now() + timeout;
        let mut st = self.link.lock_state();
        loop {
            if let Some(v) = f(&st) {
                return Some(v);
            }
            // tnb-lint: allow(TNB-DET01) -- control-plane reply deadline, never on the decode path
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (g, _) = self
                .link
                .cv
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            st = g;
        }
    }

    fn wait_until<F: Fn(&LinkState) -> bool>(&self, timeout: Duration, pred: F) -> bool {
        self.wait_state(timeout, |st| if pred(st) { Some(()) } else { None })
            .is_some()
    }
}

impl Drop for GatewayClient {
    fn drop(&mut self) {
        let _ = self.sock.shutdown(Shutdown::Both);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_u64_extracts_flat_numbers() {
        let line = r#"{"type":"ack","stream":7,"seq":4123}"#;
        assert_eq!(json_u64(line, "stream"), Some(7));
        assert_eq!(json_u64(line, "seq"), Some(4123));
        assert_eq!(json_u64(line, "nonce"), None);
    }

    #[test]
    fn resumed_line_parses_every_stream_cursor() {
        let line = concat!(
            "{\"type\":\"resumed\",\"session\":3,\"streams\":[",
            "{\"stream\":0,\"next_seq\":12,\"uplinked\":2},",
            "{\"stream\":9,\"next_seq\":0,\"uplinked\":0}]}"
        );
        let cursors = parse_resumed_streams(line);
        assert_eq!(cursors.len(), 2);
        assert_eq!(cursors.get(&0), Some(&12));
        assert_eq!(cursors.get(&9), Some(&0));
        assert!(
            parse_resumed_streams("{\"type\":\"resumed\",\"session\":1,\"streams\":[]}").is_empty()
        );
    }

    /// Buffered frames `0..n` of stream 0.
    fn frames(n: u32) -> VecDeque<BufferedFrame> {
        (0..n)
            .map(|seq| BufferedFrame {
                stream_id: 0,
                seq,
                bytes: Vec::new(),
            })
            .collect()
    }

    fn seqs(buffer: &VecDeque<BufferedFrame>) -> Vec<u32> {
        buffer.iter().map(|f| f.seq).collect()
    }

    #[test]
    fn drain_sees_an_ack_that_lands_between_prune_and_wait() {
        let mut st = LinkState::default();
        st.acks.insert(0, 1);
        let mut buffer = frames(4);
        // Turn 1 prunes against its one snapshot.
        let snapshot = st.acks.clone();
        prune(&mut buffer, &snapshot);
        assert_eq!(seqs(&buffer), [2, 3]);
        // The last ack lands after the prune, before the wait: the wait
        // compares with the same snapshot, so it sees the ack at once.
        st.acks.insert(0, 3);
        assert_eq!(drain_step(&st, &snapshot, 1), Some(DrainStep::Acked));
        // Turn 2 prunes against the new snapshot: nothing is left.
        prune(&mut buffer, &st.acks.clone());
        assert!(buffer.is_empty());
    }

    #[test]
    fn drain_ends_on_its_own_pong_and_otherwise_waits() {
        // An open stream: acked up to seq 15, its tail never acked.
        let mut st = LinkState::default();
        st.acks.insert(0, 15);
        let snapshot = st.acks.clone();
        assert_eq!(drain_step(&st, &snapshot, 2), None, "nothing moved");
        st.last_pong = Some(1);
        assert_eq!(
            drain_step(&st, &snapshot, 2),
            None,
            "an earlier PING's pong proves nothing about later frames"
        );
        st.last_pong = Some(2);
        st.acks.insert(0, 16);
        assert_eq!(
            drain_step(&st, &snapshot, 2),
            Some(DrainStep::Consumed),
            "the pong covers every frame, acked or not"
        );
    }

    #[test]
    fn backoff_schedule_is_deterministic_per_seed() {
        // The schedule needs no socket: only the seeded RNG feeds it.
        // Eight attempts run past the point where the cap binds.
        let delays = |seed: u64| -> Vec<Duration> {
            let mut rng = seed;
            (0..8)
                .map(|attempt| backoff_delay(&mut rng, attempt))
                .collect()
        };
        assert_eq!(delays(42), delays(42), "same seed, same schedule");
        assert_ne!(delays(42), delays(43), "different seed, different jitter");
        // The exponential envelope grows and respects the cap.
        let d = delays(7);
        let base = BASE_DELAY;
        let cap = MAX_DELAY + base;
        assert!(d.iter().all(|&x| x <= cap), "{d:?}");
        assert!(d[4] >= Duration::from_millis(320 - 20), "{d:?}");
    }
}
