//! `gateway_rt_sf8`: open-loop real-time streaming through the gateway
//! daemon — the only workload through the wire protocol, the ingest
//! queue and uplink rendering. Gateway 0's IQ of a 20 000-node SF8 city
//! is framed into 65 536-sample DATA frames during set-up and sent over
//! one loopback connection on the capture schedule: frame k is written
//! when its last sample would have been captured, t0 + (k+1)·65.536 ms,
//! whether or not the daemon keeps up. A packet's latency runs from its
//! last on-air sample to the arrival of its uplink line.
//!
//! The daemon transcript must be byte-identical to an in-process
//! `StreamingReceiver` replay of the same frames; the replays (closed
//! loop, one core) also give the workload's decode throughput, and in a
//! traced run the second replay is the observed decode.

use crate::layers::{Layers, Timed};
use crate::ledger::{secs, EndToEnd, Fingerprint, Ledger};
use crate::Opts;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::thread;
use std::time::{Duration, Instant};
use tnb_core::{DecodeReport, MetricsSnapshot, StreamingConfig, StreamingReceiver};
use tnb_deploy::network::{parse_uplink_line, NetworkReport};
use tnb_deploy::{DeployConfig, Scene};
use tnb_gateway::client::DEFAULT_CHUNK;
use tnb_gateway::wire::{decode_frame_exact, encode_frame, Frame};
use tnb_gateway::{uplink, Gateway, GatewayConfig, GatewayStatsSnapshot};
use tnb_phy::params::SpreadingFactor;
use tnb_phy::LoRaParams;
use tnb_sim::traffic::parse_payload;

/// Seed of the fixed traffic schedule (see `seeded_scene`).
const SCENE_SEED: u64 = 1;

/// Offered load of the city, packets per second. One decoder thread is
/// then busy about half the time, so latency reacts to decode speed and
/// window policy, and a slower second on the shared host does not build
/// a backlog.
const LOAD_PPS: f64 = 12.0;

/// Set-ups per run (the reported set-up time is their median).
const SETUPS: usize = 3;

/// Real-time streams per untraced run.
const STREAMS: usize = 2;

/// Replays per untraced run (the decode throughput is their step-wise
/// best).
const REPLAYS: usize = 3;

/// The set-up product: the scene and its encoded frames.
struct Input {
    scene: Scene,
    frames: Vec<Vec<u8>>,
    samples: u64,
}

fn scene(o: &Opts) -> Scene {
    let cfg = DeployConfig {
        nodes: 20_000,
        gateways: 1,
        sfs: vec![SpreadingFactor::SF8],
        load_pps: LOAD_PPS,
        // The stream is the measurement: it lasts the run's budget.
        duration_s: o.seconds.max(1.0),
        side_m: 1_000.0,
        seed: SCENE_SEED,
        ..DeployConfig::default()
    };
    crate::seeded_scene(o, cfg)
}

/// Builds the scene, synthesizes gateway 0's stream and encodes it;
/// also returns the synthesis and encoding timings.
fn setup(o: &Opts) -> (Input, Timed, Timed) {
    let t0 = Instant::now();
    let scene = scene(o);
    let iq = crate::materialize(&scene);
    let synth = Timed {
        s: secs(t0),
        n: iq.len() as u64,
    };
    let t0 = Instant::now();
    let frames: Vec<Vec<u8>> = iq
        .chunks(DEFAULT_CHUNK)
        .enumerate()
        .map(|(k, c)| encode_frame(&Frame::data(0, k as u32, c.to_vec())))
        .collect();
    let encode = Timed {
        s: secs(t0),
        n: iq.len() as u64,
    };
    let input = Input {
        scene,
        frames,
        samples: iq.len() as u64,
    };
    (input, synth, encode)
}

/// What the daemon did with one real-time stream.
struct Streamed {
    /// Every line the daemon wrote, with its arrival time.
    lines: Vec<(Instant, String)>,
    t0: Instant,
    late_max_s: f64,
    end_sent: Instant,
    stats: GatewayStatsSnapshot,
    io_ok: bool,
}

/// Streams the frames in real time over one connection and collects the
/// timestamped transcript. The daemon and the reader thread are always
/// joined before returning.
fn stream(frames: &[Vec<u8>], params: LoRaParams) -> Result<Streamed, String> {
    let cfg = GatewayConfig::new(params);
    let gw = Gateway::spawn(("127.0.0.1", 0), cfg).map_err(|e| format!("spawn: {e}"))?;
    let mut sock = match TcpStream::connect(gw.local_addr()) {
        Ok(s) => s,
        Err(e) => {
            gw.join();
            return Err(format!("connect: {e}"));
        }
    };
    sock.set_nodelay(true).ok();
    let read_half = match sock.try_clone() {
        Ok(r) => r,
        Err(e) => {
            gw.join();
            return Err(format!("clone: {e}"));
        }
    };
    let reader = thread::spawn(move || {
        let mut lines = Vec::new();
        for line in BufReader::new(read_half).lines() {
            match line {
                Ok(l) => lines.push((Instant::now(), l)),
                Err(_) => break,
            }
        }
        lines
    });
    let period = Duration::from_secs_f64(DEFAULT_CHUNK as f64 / params.sample_rate());
    let t0 = Instant::now();
    let mut late_max_s = 0.0f64;
    let mut io_ok = true;
    for (k, f) in frames.iter().enumerate() {
        let due = t0 + period * (k as u32 + 1);
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        late_max_s = late_max_s.max(Instant::now().saturating_duration_since(due).as_secs_f64());
        if sock.write_all(f).is_err() {
            io_ok = false;
            break;
        }
    }
    let end = encode_frame(&Frame::end_stream(0, frames.len() as u32));
    io_ok &= sock.write_all(&end).is_ok();
    let end_sent = Instant::now();
    // EOF after END_STREAM: the daemon flushes the stream and closes.
    let _ = sock.shutdown(Shutdown::Write);
    let lines = reader.join().unwrap_or_default();
    let stats = gw.join();
    Ok(Streamed {
        lines,
        t0,
        late_max_s,
        end_sent,
        stats,
        io_ok,
    })
}

/// An in-process decode of the same frames, rendered like the daemon.
struct Replay {
    lines: Vec<String>,
    /// Duration of each frame's push (and of the final flush), seconds.
    push_s: Vec<f64>,
    window_push_ms: Vec<f64>,
    wire_decode_s: f64,
    render_s: f64,
    report: DecodeReport,
    metrics: MetricsSnapshot,
    frames_ok: bool,
}

fn replay(frames: &[Vec<u8>], params: LoRaParams, observe: bool) -> Replay {
    let mut rx = StreamingReceiver::with_config(
        params,
        StreamingConfig {
            observe,
            ..StreamingConfig::default()
        },
    );
    let mut r = Replay {
        lines: Vec::new(),
        push_s: Vec::new(),
        window_push_ms: Vec::new(),
        wire_decode_s: 0.0,
        render_s: 0.0,
        report: DecodeReport::default(),
        metrics: MetricsSnapshot::default(),
        frames_ok: true,
    };
    let mut uplinked = 0u64;
    let mut windows = 0u64;
    for bytes in frames.iter().map(Some).chain([None]) {
        let t0 = Instant::now();
        let frame = bytes.map(|b| decode_frame_exact(b));
        r.wire_decode_s += secs(t0);
        let t0 = Instant::now();
        let pkts = match frame {
            Some(Ok(f)) => rx.push(&f.samples),
            Some(Err(_)) => {
                r.frames_ok = false;
                continue;
            }
            None => rx.finish(),
        };
        let dt = secs(t0);
        r.push_s.push(dt);
        if observe {
            let w = rx.report().stages.detect_windows;
            if w > windows {
                r.window_push_ms.push(dt * 1e3);
                windows = w;
            }
        }
        let t0 = Instant::now();
        for p in &pkts {
            r.lines.push(uplink::uplink_line(&params, 0, uplinked, p));
            uplinked += 1;
        }
        r.render_s += secs(t0);
    }
    r.report = rx.report();
    r.lines
        .push(uplink::end_line(0, rx.position(), uplinked, &r.report));
    r.metrics = rx.metrics_snapshot();
    r
}

/// Runs the workload: set-up, the real-time streams, then the replays
/// of the same frames. A packet's reported latency is its best over the
/// streams: every stream carries the same frames on the same schedule,
/// so the streams differ only in what the shared host's neighbours took.
/// A traced run streams once.
pub fn run(o: &Opts, led: &mut Ledger, calib: f64) {
    let params = LoRaParams::new(SpreadingFactor::SF8, tnb_phy::CodingRate::CR4);
    let mut layers = Layers {
        samples_per_symbol: params.samples_per_symbol() as u64,
        ..Layers::default()
    };
    let mut e = EndToEnd {
        workers: 1,
        ..EndToEnd::default()
    };
    let mut input = None;
    for _ in 0..SETUPS {
        drop(input.take());
        let t0 = Instant::now();
        let (i, synth, encode) = setup(o);
        e.setup_s.push(secs(t0));
        (layers.synth, layers.wire_encode) = (synth, encode);
        input = Some(i);
    }
    let Some(mut input) = input else { return };
    let mut fp = Fingerprint::default();
    for f in &input.frames {
        for chunk in f.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            fp.word(u64::from_le_bytes(w));
        }
    }
    led.input = fp.0;
    if o.corrupt {
        // Flip one payload byte mid-stream: the frame fails its CRC.
        let mid = input.frames.len() / 2;
        if let Some(b) = input.frames.get_mut(mid).and_then(|f| f.get_mut(40)) {
            *b ^= 0x5a;
        }
    }

    let scene = &input.scene;
    let fs = params.sample_rate();
    let ends = crate::on_air_ends(scene);
    let mut latency_ms: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    let mut streams: Vec<Streamed> = Vec::new();
    for _ in 0..if o.trace { 1 } else { STREAMS } {
        let streamed = match stream(&input.frames, params) {
            Ok(s) => s,
            Err(err) => {
                led.notes.push(format!("stream failed: {err}"));
                led.check("gateway.stream", false);
                return;
            }
        };
        led.check("gateway.stream", streamed.io_ok);
        let st = &streamed.stats;
        led.attempted += input.frames.len() as u64 + 1;
        led.failed += st.chunks_dropped + st.shed_frames + st.protocol_errors + st.worker_panics;
        led.check("gateway.protocol_errors_zero", st.protocol_errors == 0);
        for (at, line) in &streamed.lines {
            let Some(key) = parse_uplink_line(line).and_then(|p| parse_payload(&p.data)) else {
                continue;
            };
            if let Some(end) = ends.get(&key) {
                let on_air_end = streamed.t0 + Duration::from_secs_f64(end / fs);
                let ms = signed_ms(*at, on_air_end);
                let best = latency_ms.entry(key).or_insert(ms);
                *best = best.min(ms);
            }
        }
        if let Some(first) = streams.first() {
            led.check(
                "gateway.streams_identical",
                transcript(first) == transcript(&streamed),
            );
        }
        streams.push(streamed);
    }
    let Some(streamed) = streams.first() else {
        return;
    };

    // Closed-loop decode throughput comes from the replays. A traced run
    // replays once untraced and once observed.
    let rep = replay(&input.frames, params, false);
    e.decode.record(&rep.push_s);
    led.check(
        "gateway.transcript_identical",
        rep.frames_ok
            && transcript(streamed) == rep.lines.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let mut last = None;
    for _ in 1..if o.trace { 2 } else { REPLAYS } {
        let again = replay(&input.frames, params, o.trace);
        led.check(
            "gateway.replay_repeat_identical",
            again.lines == rep.lines && again.report == rep.report,
        );
        e.decode.record(&again.push_s);
        last = Some(again);
    }
    led.count_stages(&rep.report.stages);

    let uplinks: Vec<String> = streamed
        .lines
        .iter()
        .filter(|(_, l)| parse_uplink_line(l).is_some())
        .map(|(_, l)| l.clone())
        .collect();
    let lines = uplinks.len() as u64;
    let t0 = Instant::now();
    let net = NetworkReport::collect(scene, &[uplinks]);
    layers.collect.add(secs(t0), lines);
    e.samples = input.samples;
    e.offered = scene.schedule.len() as u64;
    e.delivered = net.deliveries.len() as u64;
    e.latency_ms = latency_ms.into_values().collect();
    led.counters.insert("offered", e.offered);
    led.counters.insert("delivered", e.delivered);
    let late_max_s = streams.iter().map(|s| s.late_max_s).fold(0.0, f64::max);
    led.notes.push(format!(
        "{} frames streamed in real time {} time(s), generator at most {:.2} ms late",
        input.frames.len(),
        streams.len(),
        late_max_s * 1e3
    ));

    if let (true, Some(traced)) = (o.trace, last) {
        let period_s = DEFAULT_CHUNK as f64 / fs;
        let st = &streamed.stats;
        let traced_s: f64 = traced.push_s.iter().sum();
        layers.untraced_s = rep.push_s.iter().sum();
        layers.traced_cmp_s = traced_s;
        layers.traced_s = traced_s;
        layers.traced_wall_s = traced_s + traced.wire_decode_s + traced.render_s;
        layers.window_push_ms = traced.window_push_ms;
        layers.samples_pushed = input.samples;
        layers.add_decode(&traced.metrics, &traced.report.stages);
        layers.wire_decode.add(traced.wire_decode_s, input.samples);
        layers
            .render
            .add(traced.render_s, traced.lines.len() as u64 - 1);
        layers.duplicates = net.duplicates;
        layers.ghosts = net.ghosts;
        layers.frames_in = st.frames_in;
        layers.shed_frames = st.shed_frames;
        layers.chunks_dropped = st.chunks_dropped;
        layers.late_frames_max = late_max_s / period_s;
        let end_line_at = streamed
            .lines
            .iter()
            .find(|(_, l)| l.starts_with("{\"type\":\"end\""))
            .map(|(at, _)| *at);
        layers.drain_lag_frames =
            end_line_at.map_or(0.0, |at| signed_ms(at, streamed.end_sent) / 1e3 / period_s);
        layers.emit(led, calib);
    } else {
        led.end_to_end(&e);
    }
}

/// The daemon's lines of one stream, without their arrival times.
fn transcript(s: &Streamed) -> Vec<&str> {
    s.lines.iter().map(|(_, l)| l.as_str()).collect()
}

/// `a − b` in milliseconds, negative when `a` is earlier.
fn signed_ms(a: Instant, b: Instant) -> f64 {
    match a.checked_duration_since(b) {
        Some(d) => d.as_secs_f64() * 1e3,
        None => -b.duration_since(a).as_secs_f64() * 1e3,
    }
}
