//! Streaming-synthesis and sharding determinism (ISSUE 10 satellite 3
//! and the acceptance criterion): the chunked, sharded, multi-worker
//! deploy pipeline must be byte-identical to a materialized-trace
//! reference decode, across chunk sizes and shard/worker counts
//! {1, 2, 8} — and a city-scale config must produce byte-identical
//! `--json` output for any worker count.

use tnb_core::{
    SicConfig, StreamingConfig, StreamingReceiver, TnbConfig, WidebandConfig, WidebandReceiver,
};
use tnb_deploy::{run_deploy, DeployConfig, Scene};
use tnb_dsp::ChannelizerConfig;
use tnb_gateway::uplink;
use tnb_phy::params::SpreadingFactor;
use tnb_sim::traffic::PAYLOAD_LEN;

/// Decodes gateway `gw`'s fully materialized stream with one
/// continuous receiver (the same receiver config and chunk feed the
/// deploy loop uses) and renders the same uplink lines. Identical IQ
/// through identical decode windows must give identical bytes — so any
/// difference isolates a synthesis divergence.
fn reference_lines(sc: &Scene, gw: u32, chunk: usize) -> Vec<String> {
    let params = sc.params(0);
    let trace = sc.materialize(gw);
    let mut rx = StreamingReceiver::with_config(
        params,
        StreamingConfig {
            receiver: TnbConfig {
                noise_power: Some(1.0),
                sic: SicConfig::default(),
                ..TnbConfig::default()
            },
            max_payload: PAYLOAD_LEN,
            window_factor: 4,
            observe: false,
            workers: 1,
        },
    );
    let mut decoded = Vec::new();
    for c in trace.chunks(chunk.max(1)) {
        decoded.extend(rx.push(c));
    }
    decoded.extend(rx.finish());
    decoded.sort_by(|a, b| a.start.total_cmp(&b.start));
    decoded
        .iter()
        .enumerate()
        .map(|(n, p)| uplink::uplink_line(&params, gw, n as u64, p))
        .collect()
}

#[test]
fn chunked_sharded_run_matches_materialized_reference() {
    let cfg = DeployConfig {
        nodes: 70_000,
        gateways: 2,
        sfs: vec![SpreadingFactor::SF7],
        side_m: 500.0,
        duration_s: 0.35,
        load_pps: 20.0,
        seed: 3,
        ..DeployConfig::default()
    };
    let sc = Scene::new(cfg.clone());
    assert!(!sc.schedule.is_empty(), "scene must offer traffic");
    let total = sc.total_samples();

    // (chunk size, shard count, workers): every combination must
    // reproduce the materialized-trace reference's uplink bytes and
    // the same report JSON.
    let mut jsons = Vec::new();
    for (chunk, shards, workers) in [(37_777, 1u64, 1), (262_144, 2, 2), (90_001, 8, 8)] {
        let reference: Vec<Vec<String>> = (0..cfg.gateways)
            .map(|g| reference_lines(&sc, g, chunk))
            .collect();
        assert!(
            reference.iter().any(|l| !l.is_empty()),
            "reference must decode something"
        );
        let mut cfg_run = cfg.clone();
        cfg_run.chunk_samples = chunk;
        cfg_run.shard_samples = total.div_ceil(shards);
        let sc_run = Scene::with_schedule(cfg_run, sc.schedule.clone());
        let report = run_deploy(&sc_run, workers);
        assert_eq!(
            report.uplinks, reference,
            "chunk {chunk} × {shards} shards × {workers} workers diverged from the reference"
        );
        jsons.push(report.to_json());
    }
    assert!(
        jsons.windows(2).all(|w| w[0] == w[1]),
        "report JSON must not depend on chunking, sharding or workers"
    );
}

#[test]
fn city_scale_json_is_byte_identical_for_1_2_8_workers() {
    let cfg = DeployConfig {
        nodes: 100_000,
        gateways: 2,
        sfs: vec![SpreadingFactor::SF7, SpreadingFactor::SF8],
        side_m: 700.0,
        duration_s: 0.3,
        load_pps: 40.0,
        seed: 9,
        shard_samples: 160_000,
        ..DeployConfig::default()
    };
    let sc = Scene::new(cfg);
    let baseline = run_deploy(&sc, 1);
    assert!(
        !baseline.network.deliveries.is_empty(),
        "city run must deliver packets; summary:\n{}",
        baseline.summary()
    );
    // Node ids beyond u16 must be exercised by a 10⁵-node city.
    assert!(
        baseline.network.deliveries.iter().any(|d| d.node > 65_535),
        "expected wide node ids in the delivered set"
    );
    let json = baseline.to_json();
    for workers in [2usize, 8] {
        let report = run_deploy(&sc, workers);
        assert_eq!(
            report.to_json(),
            json,
            "worker count {workers} changed the output bytes"
        );
        assert_eq!(report.uplinks, baseline.uplinks);
    }
}

/// Wideband counterpart of [`reference_lines`]: one continuous
/// [`WidebandReceiver`] (SIC on, the deploy loop's receiver config) over
/// gateway `gw`'s materialized wideband capture, in deploy-sized chunks.
fn wideband_reference_lines(sc: &Scene, gw: u32) -> Vec<String> {
    let params = sc.params(0);
    let m = sc.cfg.channels;
    let mut rx = WidebandReceiver::with_config(
        params,
        WidebandConfig {
            channelizer: ChannelizerConfig { channels: m },
            streaming: StreamingConfig {
                receiver: TnbConfig {
                    noise_power: Some(1.0),
                    sic: SicConfig { enabled: true },
                    ..TnbConfig::default()
                },
                max_payload: PAYLOAD_LEN,
                window_factor: 4,
                observe: false,
                workers: 1,
            },
        },
    );
    let trace = sc.materialize(gw);
    let mut decoded = Vec::new();
    for c in trace.chunks(sc.cfg.chunk_samples * m) {
        decoded.extend(rx.push(c));
    }
    decoded.extend(rx.finish());
    decoded.sort_by(|a, b| {
        a.packet
            .start
            .total_cmp(&b.packet.start)
            .then(a.channel.cmp(&b.channel))
    });
    decoded
        .iter()
        .enumerate()
        .map(|(n, cp)| {
            uplink::uplink_line_on_channel(&params, gw, n as u64, cp.channel, &cp.packet)
        })
        .collect()
}

#[test]
fn wideband_sic_sharded_run_matches_materialized_reference() {
    let cfg = DeployConfig {
        nodes: 70_000,
        gateways: 1,
        sfs: vec![SpreadingFactor::SF7],
        side_m: 500.0,
        duration_s: 0.25,
        load_pps: 40.0,
        seed: 3,
        sic: true,
        wideband: true,
        ..DeployConfig::default()
    };
    let sc = Scene::new(cfg.clone());
    let reference = vec![wideband_reference_lines(&sc, 0)];
    assert!(
        !reference[0].is_empty(),
        "wideband reference must decode something"
    );
    let total = sc.total_samples();
    let mut jsons = Vec::new();
    for (chunk, shards, workers) in [(37_777, 1u64, 1), (262_144, 2, 2), (90_001, 8, 8)] {
        let mut cfg_run = cfg.clone();
        cfg_run.chunk_samples = chunk;
        cfg_run.shard_samples = total.div_ceil(shards);
        let sc_run = Scene::with_schedule(cfg_run, sc.schedule.clone());
        let report = run_deploy(&sc_run, workers);
        assert_eq!(
            report.uplinks, reference,
            "wideband chunk {chunk} × {shards} shards × {workers} workers diverged from the reference"
        );
        jsons.push(report.to_json());
    }
    assert!(
        jsons.windows(2).all(|w| w[0] == w[1]),
        "wideband report JSON must not depend on chunking, sharding or workers"
    );
}
