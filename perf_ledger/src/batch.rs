//! `batch_dense_sf8`: closed-loop batch decode at the paper's headline
//! collision density — SF8/CR4 Indoor traces at 25 packets/s offered
//! (the fig12 top-load point), decoded by `TnbReceiver` on one worker.
//! Bypasses the streaming, wire and channelizer layers; detect and sync
//! dominate.
//!
//! A run decodes four one-second scenes. Short traces make short timed
//! steps, so the best-of-passes time of each step has many passes to
//! pick from; four scenes keep 100 offered packets behind the PRR.

use crate::layers::Layers;
use crate::ledger::{secs, EndToEnd, Fingerprint, Ledger};
use crate::Opts;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use tnb_channel::trace::{PacketConfig, Trace, TraceBuilder};
use tnb_core::{DecodeReport, DecodedPacket, PipelineMetrics, TnbReceiver};
use tnb_phy::{CodingRate, LoRaParams, SpreadingFactor, Transmitter};
use tnb_sim::metrics::match_decoded;
use tnb_sim::traffic::{generate_schedule, make_payload, ScheduledPacket, PAYLOAD_LEN};
use tnb_sim::{Deployment, ExperimentConfig};

/// Scenes per run. A pass decodes each once; their delivered counts
/// pool into the run's PRR.
const SCENES: usize = 4;

/// Synthesizes one trace, step for step as
/// `tnb_sim::runner::build_experiment` does, except that the scene
/// draws (schedule, node SNRs and CFOs, per-packet SNR jitter and
/// timing offsets) come from `cfg.seed` and only the AWGN comes from
/// `noise_seed`. Every run seed then decodes the same transmissions, so
/// the work per run — and the metrics — stay comparable across seeds.
fn build(cfg: &ExperimentConfig, noise_seed: u64) -> (Trace, Vec<ScheduledPacket>) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let fs = cfg.params.sample_rate();
    let airtime = Transmitter::new(cfg.params).packet_airtime(PAYLOAD_LEN);
    let n_nodes = cfg.deployment.node_count();
    let node_snrs = cfg.deployment.draw_node_snrs(&mut rng);
    let node_cfos: Vec<f64> = (0..n_nodes)
        .map(|_| rng.gen_range(-cfg.cfo_range_hz..=cfg.cfo_range_hz))
        .collect();
    let schedule = generate_schedule(&mut rng, n_nodes, cfg.load_pps, cfg.duration_s, airtime);
    let mut builder = TraceBuilder::new(cfg.params, noise_seed);
    builder.set_min_len((cfg.duration_s * fs).ceil() as usize);
    for p in &schedule {
        let snr = node_snrs[p.node as usize] + Deployment::packet_jitter_db(&mut rng);
        builder.add_packet(
            &make_payload(p.node, p.seq),
            PacketConfig {
                start_sample: (p.time * fs).round() as usize,
                snr_db: snr,
                cfo_hz: node_cfos[p.node as usize],
                frac_delay: rng.gen_range(0.0..1.0f32).min(0.999),
                channel: cfg.channel,
                node_id: p.node,
                seq: p.seq,
            },
        );
    }
    (builder.build(), schedule)
}

/// Runs the workload. Set-up builds every scene's trace (each build
/// timed); a pass then decodes the traces in turn, and passes repeat
/// until the budget is spent. Every re-decode must equal the first
/// decode of its trace. A traced run makes one untraced and
/// one traced pass.
pub fn run(o: &Opts, led: &mut Ledger, calib: f64) {
    let params = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4);
    let cfg = ExperimentConfig {
        load_pps: 25.0,
        duration_s: 1.0 * o.scale,
        ..ExperimentConfig::new(params, Deployment::Indoor)
    };
    let rx = TnbReceiver::new(params);
    let mut e = EndToEnd {
        workers: 1,
        ..EndToEnd::default()
    };
    let mut layers = Layers {
        samples_per_symbol: params.samples_per_symbol() as u64,
        ..Layers::default()
    };
    let mut fp = Fingerprint::default();
    let mut inputs = Vec::new();
    for r in 0..SCENES {
        let t0 = Instant::now();
        let scene = ExperimentConfig {
            seed: 1 + r as u64,
            ..cfg
        };
        let (trace, schedule) = build(&scene, o.realization(r));
        let setup = secs(t0);
        e.setup_s.push(setup);
        layers.synth.add(setup, trace.samples().len() as u64);
        fp.samples(trace.samples());
        inputs.push((trace, schedule));
    }
    led.input = fp.0;

    let mut first: Vec<(Vec<DecodedPacket>, DecodeReport)> = Vec::new();
    let t_run = Instant::now();
    while e.decode.passes < 2 || (!o.trace && secs(t_run) < o.seconds) {
        if o.corrupt && e.decode.passes == 1 {
            corrupt(&mut inputs[0].0);
        }
        let mut steps = Vec::new();
        for (r, (trace, schedule)) in inputs.iter().enumerate() {
            let samples = trace.samples();
            let t0 = Instant::now();
            let out = rx.decode_with_report(samples);
            let dt = secs(t0);
            steps.push(dt);
            led.attempted += 1;
            led.check("batch.accounting_ok", out.1.accounting_ok());
            if !out.1.accounting_ok() {
                led.failed += 1;
            }
            if let Some(f) = first.get(r) {
                led.check("batch.repeat_identical", *f == out);
                if o.trace {
                    traced_decode(&rx, params, samples, &out, dt, &mut layers, led);
                }
                continue;
            }
            e.samples += samples.len() as u64;
            e.offered += schedule.len() as u64;
            e.delivered += match_decoded(&out.0, schedule).correct.len() as u64;
            led.count_stages(&out.1.stages);
            first.push(out);
        }
        e.decode.record(&steps);
    }
    led.counters.insert("offered", e.offered);
    led.counters.insert("delivered", e.delivered);
    // Every packet of a batch decode is released when the call returns:
    // a realization's latency is its decode time.
    e.latency_ms = e.decode.best.iter().map(|s| s * 1e3).collect();
    if o.trace {
        layers.emit(led, calib);
    } else {
        led.end_to_end(&e);
    }
}

/// The traced decode of one realization: the same call with stage spans
/// recorded, which must return the same packets and report.
fn traced_decode(
    rx: &TnbReceiver,
    params: LoRaParams,
    samples: &[tnb_dsp::Complex32],
    untraced: &(Vec<DecodedPacket>, DecodeReport),
    untraced_s: f64,
    layers: &mut Layers,
    led: &mut Ledger,
) {
    let metrics = PipelineMetrics::enabled();
    let t_wall = Instant::now();
    let (decoded, report) = rx.decode_multi_report_observed(&[samples], &metrics);
    let dt = secs(t_wall);
    led.check(
        "batch.traced_identical",
        decoded == untraced.0 && report == untraced.1,
    );
    layers.untraced_s += untraced_s;
    layers.traced_cmp_s += dt;
    layers.traced_s += dt;
    layers.window_push_ms.push(dt * 1e3);
    layers.samples_pushed += samples.len() as u64;
    layers.add_decode(&metrics.snapshot(), &report.stages);
    let t0 = Instant::now();
    for (n, p) in decoded.iter().enumerate() {
        std::hint::black_box(tnb_gateway::uplink::uplink_line(&params, 0, n as u64, p));
    }
    layers.render.add(secs(t0), decoded.len() as u64);
    layers.traced_wall_s += secs(t_wall);
}

/// Cuts the trace in half, so a re-decode cannot match the first decode
/// of the same trace.
fn corrupt(trace: &mut Trace) {
    for a in &mut trace.antennas {
        a.truncate(a.len() / 2);
    }
}
