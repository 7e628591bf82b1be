//! `city_sic_2gw`: closed-loop `run_deploy` of a 20 000-node city with
//! two gateways, SF7+SF8 and SIC on, decoded by a two-thread pool — the
//! only workload with SIC, synthesis inside the timed path, shard
//! pre-padding and cross-gateway dedup.
//!
//! The city runs for one simulated second: short enough for several
//! timed passes per run, long enough that each gateway's stream spans
//! two shards, so one shard boundary is pre-padded.
//!
//! `run_deploy` exposes no stage spans, so a traced run replays gateway
//! 0's SF7 stream (where the traffic is: at 1 km every node's link
//! clears the SF7 bucket) through one observed `StreamingReceiver` with
//! the same receiver configuration; its stage splits are a replay's.

use crate::layers::Layers;
use crate::ledger::{secs, EndToEnd, Fingerprint, Ledger};
use crate::Opts;
use std::time::Instant;
use tnb_core::{SicConfig, StreamingConfig, StreamingReceiver, TnbConfig};
use tnb_deploy::network::NetworkReport;
use tnb_deploy::{run_deploy, DeployConfig, Scene};
use tnb_gateway::uplink;
use tnb_phy::params::SpreadingFactor;
use tnb_sim::traffic::PAYLOAD_LEN;

/// Seed of the fixed traffic schedule (see `seeded_scene`).
const SCENE_SEED: u64 = 1;

/// Decode threads of the deploy pool.
const WORKERS: usize = 2;

/// Scene set-ups timed per run: one is well under a millisecond, so
/// many make the median steady.
const SETUPS: usize = 25;

fn scene(o: &Opts) -> Scene {
    let cfg = DeployConfig {
        nodes: 20_000,
        gateways: 2,
        sfs: vec![SpreadingFactor::SF7, SpreadingFactor::SF8],
        load_pps: 30.0,
        duration_s: 1.0 * o.scale,
        side_m: 1_000.0,
        sic: true,
        seed: SCENE_SEED,
        ..DeployConfig::default()
    };
    crate::seeded_scene(o, cfg)
}

/// Runs the workload. Set-up builds the scene (many times, timed); the
/// deployment then runs on it until the budget is spent, and every
/// re-run's report must be byte-identical to the first. A traced run
/// makes one untraced run and the traced pass.
pub fn run(o: &Opts, led: &mut Ledger, calib: f64) {
    let mut layers = Layers::default();
    let mut e = EndToEnd {
        workers: WORKERS,
        ..EndToEnd::default()
    };
    let mut built = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        built = Some(scene(o));
        e.setup_s.push(secs(t0));
    }
    let Some(mut sc) = built else { return };
    led.input = fingerprint(&sc);
    e.samples = sc.total_samples() * u64::from(sc.cfg.gateways);

    let mut first: Option<String> = None;
    let t_run = Instant::now();
    while e.decode.passes < 2 - usize::from(o.trace) || (!o.trace && secs(t_run) < o.seconds) {
        if o.corrupt && e.decode.passes == 1 {
            // Another radio realization of the same traffic.
            sc.cfg.seed ^= 1;
        }
        let t0 = Instant::now();
        let report = run_deploy(&sc, WORKERS);
        let dt = secs(t0);
        e.decode.record(&[dt]);
        led.attempted += 1;
        let net = &report.network;
        let wins: u64 = net.wins_per_gateway.iter().sum();
        led.check("city.ghosts_zero", net.ghosts == 0);
        led.check(
            "city.wins_sum_to_delivered",
            wins == net.deliveries.len() as u64,
        );
        let json = report.to_json();
        if let Some(f) = &first {
            led.check("city.report_identical", *f == json);
            continue;
        }
        e.offered = report.offered as u64;
        e.delivered = net.deliveries.len() as u64;
        if o.trace {
            trace_pass(&sc, &report, dt, &mut layers, led);
        }
        first = Some(json);
    }
    led.counters.insert("offered", e.offered);
    led.counters.insert("delivered", e.delivered);
    // The deployment releases every uplink when the run returns.
    e.latency_ms = vec![e.decode.total() * 1e3];
    if o.trace {
        layers.emit(led, calib);
    } else {
        led.end_to_end(&e);
    }
}

/// Fingerprints the input without synthesizing the whole city: the
/// schedule and gateway 0's samples over the first transmission.
fn fingerprint(sc: &Scene) -> u64 {
    let mut fp = Fingerprint::default();
    for tx in &sc.schedule {
        fp.word(u64::from(tx.node) << 32 | u64::from(tx.seq));
        fp.word(tx.start.to_bits() ^ u64::from(tx.sf_idx));
    }
    if let Some(tx) = sc.schedule.first() {
        let a = tx.start as u64;
        fp.samples(&sc.synth_window(0, a, a + sc.max_packet_samples() as u64));
    }
    fp.0
}

/// Per-layer measurements of one realization: deploy pool and network
/// collection timed from outside, stage splits from an untraced and an
/// observed replay of gateway 0's SF7 stream.
fn trace_pass(
    sc: &Scene,
    report: &tnb_deploy::DeployReport,
    run_s: f64,
    layers: &mut Layers,
    led: &mut Ledger,
) {
    let t0 = Instant::now();
    let net = NetworkReport::collect(sc, &report.uplinks);
    let collect_s = secs(t0);
    let lines: u64 = report.uplinks.iter().map(|l| l.len() as u64).sum();
    layers.collect.add(collect_s, lines);
    layers.duplicates = net.duplicates;
    layers.ghosts = net.ghosts;
    let shards = sc.total_samples().div_ceil(sc.cfg.shard_samples.max(1));
    layers.pool_tasks = u64::from(sc.cfg.gateways) * sc.cfg.sfs.len() as u64 * shards;
    layers.pool_s = run_s - collect_s;

    let t0 = Instant::now();
    let iq = crate::materialize(sc);
    layers.synth.add(secs(t0), iq.len() as u64);
    let params = sc.params(0);
    layers.samples_per_symbol = params.samples_per_symbol() as u64;
    let replay = |observe: bool, layers: &mut Layers| {
        let mut rx = StreamingReceiver::with_config(
            params,
            StreamingConfig {
                receiver: TnbConfig {
                    noise_power: Some(1.0),
                    sic: SicConfig {
                        enabled: sc.cfg.sic,
                        ..SicConfig::default()
                    },
                    ..TnbConfig::default()
                },
                max_payload: PAYLOAD_LEN,
                window_factor: 4,
                observe,
                workers: 1,
            },
        );
        let (mut busy, mut windows, mut decoded) = (0.0, 0u64, Vec::new());
        for chunk in iq
            .chunks(sc.cfg.chunk_samples.max(1))
            .map(Some)
            .chain([None])
        {
            let t0 = Instant::now();
            let pkts = match chunk {
                Some(c) => rx.push(c),
                None => rx.finish(),
            };
            let dt = secs(t0);
            busy += dt;
            if observe {
                let w = rx.report().stages.detect_windows;
                if w > windows {
                    layers.window_push_ms.push(dt * 1e3);
                    windows = w;
                }
            }
            decoded.extend(pkts);
        }
        (busy, decoded, rx.report(), rx.metrics_snapshot())
    };
    let (untraced_s, plain, plain_report, _) = replay(false, layers);
    let t_wall = Instant::now();
    let (traced_s, decoded, traced_report, snap) = replay(true, layers);
    let t0 = Instant::now();
    for (n, p) in decoded.iter().enumerate() {
        std::hint::black_box(uplink::uplink_line(&params, 0, n as u64, p));
    }
    layers.render.add(secs(t0), decoded.len() as u64);
    layers.traced_wall_s = secs(t_wall);
    led.check(
        "city.replay_traced_identical",
        plain == decoded && plain_report == traced_report,
    );
    layers.untraced_s = untraced_s;
    layers.traced_cmp_s = traced_s;
    layers.traced_s = traced_s;
    layers.samples_pushed = iq.len() as u64;
    layers.add_decode(&snap, &traced_report.stages);
}
