//! `wideband_sparse_8ch`: closed-loop decode of an 8-channel wideband
//! capture through `WidebandReceiver` — the only workload through the
//! channelizer. Traffic is sparse (2.5 packets/s per channel), so the
//! channelizer and the detect scan over mostly-noise channels do most
//! of the work and sync does less: the contrast to `batch_dense_sf8`.
//!
//! The capture lasts one second, shorter than a streaming window, so
//! each channel's receiver decodes its whole stream once, at end of
//! stream: short passes give the best-of-passes timing many passes to
//! pick from. The streaming window policy is timed by `gateway_rt_sf8`.
//!
//! Output checks: re-decoding an input repeats the first decode, and
//! the composed `Channelizer` + per-channel `StreamingReceiver`s give
//! the same per-channel uplinks. In a traced run that composed decode
//! is the observed one.

use crate::layers::{Layers, Timed};
use crate::ledger::{secs, EndToEnd, Fingerprint, Ledger};
use crate::Opts;
use std::time::Instant;
use tnb_core::{
    DecodeReport, StageCounters, StreamingConfig, StreamingReceiver, WidebandConfig,
    WidebandReceiver,
};
use tnb_deploy::network::NetworkReport;
use tnb_deploy::{DeployConfig, Scene};
use tnb_dsp::{Channelizer, Complex32};
use tnb_gateway::uplink;
use tnb_phy::params::SpreadingFactor;
use tnb_phy::{CodingRate, LoRaParams};
use tnb_sim::traffic::parse_payload;

/// Set-ups per run (the reported set-up time is their median).
const SETUPS: usize = 3;

/// Seed of the fixed traffic schedule (see `seeded_scene`).
const SCENE_SEED: u64 = 1;

/// Wideband samples per push (32 768 per channel).
const CHUNK: usize = 262_144;

fn scene(o: &Opts) -> Scene {
    let cfg = DeployConfig {
        nodes: 20_000,
        gateways: 1,
        sfs: vec![SpreadingFactor::SF8],
        load_pps: 20.0,
        duration_s: 1.0 * o.scale,
        side_m: 1_000.0,
        wideband: true,
        seed: SCENE_SEED,
        ..DeployConfig::default()
    };
    crate::seeded_scene(o, cfg)
}

/// One decode's output: uplink lines in emission order (the comparable
/// result), per emitted packet (push index it came out of, payload), and
/// the duration of every push.
struct Decoded {
    lines: Vec<String>,
    emitted: Vec<(usize, Vec<u8>)>,
    push_s: Vec<f64>,
    wall_s: f64,
    counters: StageCounters,
}

impl Decoded {
    fn new() -> Decoded {
        Decoded {
            lines: Vec::new(),
            emitted: Vec::new(),
            push_s: Vec::new(),
            wall_s: 0.0,
            counters: StageCounters::default(),
        }
    }

    fn emit(
        &mut self,
        params: &LoRaParams,
        push: usize,
        channel: usize,
        p: &tnb_core::DecodedPacket,
    ) {
        let n = self.lines.len() as u64;
        self.lines
            .push(uplink::uplink_line_on_channel(params, 0, n, channel, p));
        self.emitted.push((push, p.payload.clone()));
    }
}

fn absorb(reports: &[DecodeReport]) -> StageCounters {
    let mut c = StageCounters::default();
    for r in reports {
        c.absorb(&r.stages);
    }
    c
}

/// The untraced decode through `WidebandReceiver`.
fn decode(iq: &[Complex32], params: LoRaParams) -> Decoded {
    let mut rx = WidebandReceiver::with_config(params, WidebandConfig::default());
    let mut d = Decoded::new();
    let t_run = Instant::now();
    for (i, chunk) in iq.chunks(CHUNK).map(Some).chain([None]).enumerate() {
        let t0 = Instant::now();
        let pkts = match chunk {
            Some(c) => rx.push(c),
            None => rx.finish(),
        };
        d.push_s.push(secs(t0));
        for cp in &pkts {
            d.emit(&params, i, cp.channel, &cp.packet);
        }
    }
    d.wall_s = secs(t_run);
    d.counters = absorb(&rx.reports());
    d
}

/// The same decode composed from its parts, optionally observed: the
/// channelizer and each channel's receiver are timed from outside.
fn composed(iq: &[Complex32], params: LoRaParams, observe: bool, layers: &mut Layers) -> Decoded {
    let cfg = WidebandConfig::default();
    let mut chan = Channelizer::new(cfg.channelizer);
    let m = chan.channels();
    let mut rxs: Vec<StreamingReceiver> = (0..m)
        .map(|_| {
            StreamingReceiver::with_config(
                params,
                StreamingConfig {
                    observe,
                    ..cfg.streaming
                },
            )
        })
        .collect();
    let mut bufs: Vec<Vec<Complex32>> = vec![Vec::new(); m];
    let mut windows = vec![0u64; m];
    let mut d = Decoded::new();
    let t_run = Instant::now();
    for (i, chunk) in iq.chunks(CHUNK).map(Some).chain([None]).enumerate() {
        if let Some(c) = chunk {
            for b in &mut bufs {
                b.clear();
            }
            let t0 = Instant::now();
            chan.push(c, &mut bufs);
            layers.channelizer.add(secs(t0), c.len() as u64);
        }
        for (c, rx) in rxs.iter_mut().enumerate() {
            let t0 = Instant::now();
            let pkts = match chunk {
                Some(_) => rx.push(&bufs[c]),
                None => rx.finish(),
            };
            let dt = secs(t0);
            layers.traced_s += dt;
            if chunk.is_some() {
                layers.samples_pushed += bufs[c].len() as u64;
            }
            if observe {
                let w = rx.report().stages.detect_windows;
                if w > windows[c] {
                    layers.window_push_ms.push(dt * 1e3);
                    windows[c] = w;
                }
            }
            let t0 = Instant::now();
            for p in &pkts {
                d.emit(&params, i, c, p);
            }
            layers.render.add(secs(t0), pkts.len() as u64);
        }
    }
    d.wall_s = secs(t_run);
    let reports: Vec<DecodeReport> = rxs.iter().map(StreamingReceiver::report).collect();
    d.counters = absorb(&reports);
    if observe {
        for rx in &rxs {
            layers.add_decode(&rx.metrics_snapshot(), &StageCounters::default());
        }
        layers.counters.absorb(&d.counters);
    }
    d
}

/// Runs the workload. Set-up builds the scene (three times, timed);
/// passes then decode it until the budget is spent, and every pass must
/// repeat the first. After the first pass the composed decode runs once
/// (observed in a traced run, which makes only that one pass).
pub fn run(o: &Opts, led: &mut Ledger, calib: f64) {
    let params = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4);
    let mut layers = Layers {
        samples_per_symbol: params.samples_per_symbol() as u64,
        ..Layers::default()
    };
    let mut e = EndToEnd {
        workers: 1,
        ..EndToEnd::default()
    };
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let t0 = Instant::now();
        let sc = scene(o);
        let iq = crate::materialize(&sc);
        let setup = secs(t0);
        e.setup_s.push(setup);
        layers.synth = Timed {
            s: setup,
            n: iq.len() as u64,
        };
        built = Some((sc, iq));
    }
    let Some((sc, mut iq)) = built else { return };
    let mut fp = Fingerprint::default();
    fp.samples(&iq);
    led.input = fp.0;
    e.samples = iq.len() as u64;

    let mut first: Option<Decoded> = None;
    let t_run = Instant::now();
    while e.decode.passes < 2 - usize::from(o.trace) || (!o.trace && secs(t_run) < o.seconds) {
        if o.corrupt && e.decode.passes == 1 {
            iq.truncate(iq.len() / 2);
        }
        let d = decode(&iq, params);
        e.decode.record(&d.push_s);
        led.attempted += 1;
        match &first {
            Some(f) => led.check(
                "wideband.repeat_identical",
                f.lines == d.lines && f.counters == d.counters,
            ),
            None => {
                let c = composed(&iq, params, o.trace, &mut layers);
                led.check("wideband.composed_identical", c.lines == d.lines);
                layers.traced_wall_s = c.wall_s;
                layers.traced_cmp_s = c.wall_s;
                layers.untraced_s = d.wall_s;
                first = Some(d);
            }
        }
    }
    let Some(d) = first else { return };
    let t0 = Instant::now();
    let net = NetworkReport::collect(&sc, std::slice::from_ref(&d.lines));
    layers.collect.add(secs(t0), d.lines.len() as u64);
    layers.duplicates = net.duplicates;
    layers.ghosts = net.ghosts;
    e.offered = sc.schedule.len() as u64;
    e.delivered = net.deliveries.len() as u64;
    led.count_stages(&d.counters);
    led.counters.insert("offered", e.offered);
    led.counters.insert("delivered", e.delivered);

    // Latency on the best-case timeline of the passes: from the start of
    // the push that delivered a packet's last sample to the end of the
    // push that emitted it.
    let m = sc.cfg.channels.max(1) as f64;
    let ends = crate::on_air_ends(&sc);
    let last_chunk = e.decode.best.len().saturating_sub(2);
    e.latency_ms = d
        .emitted
        .iter()
        .filter_map(|(push, payload)| {
            let end = *ends.get(&parse_payload(payload)?)?;
            let arrived = ((end * m) as usize / CHUNK).min(last_chunk);
            Some((e.decode.start(push + 1) - e.decode.start(arrived)) * 1e3)
        })
        .collect();
    if o.trace {
        layers.emit(led, calib);
    } else {
        led.end_to_end(&e);
    }
}
