//! End-to-end loopback determinism: synthesized collided traffic
//! streamed through the daemon must uplink **byte-identical** JSON
//! lines to a direct in-process `StreamingReceiver` decode of the same
//! wire-quantized samples — for 1 worker and 4 workers, across
//! multiplexed streams, including payload bytes, outcomes, and
//! sample-clock timestamps.

use tnb_gateway::{ClientConfig, Gateway, GatewayClient, GatewayConfig};
use tnb_phy::{CodingRate, LoRaParams, SpreadingFactor};
use tnb_sim::loopback::{self, LoopbackConfig};

fn params() -> LoRaParams {
    LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4)
}

fn run(workers: usize) {
    let cfg = LoopbackConfig {
        workers,
        streams: 2,
        packets: 3,
        chunk: 32_768,
        seed: 7,
        ..LoopbackConfig::new(params())
    };
    let outcome = loopback::run(&cfg).expect("loopback run");
    assert!(
        outcome.stats.packets_uplinked >= 2 * cfg.streams as u64,
        "expected ≥2 decodes per 3-packet collision per stream: {outcome:?}"
    );
    assert_eq!(
        outcome.daemon_lines.len(),
        cfg.streams as usize,
        "lines naming no stream: {outcome:?}"
    );
    for s in 0..cfg.streams as usize {
        assert_eq!(
            outcome.daemon_lines[s], outcome.reference_lines[s],
            "stream {s} transcript diverged at {} workers",
            workers
        );
        // Spot-check the schema: uplinks carry sample-clock timestamps
        // and per-packet outcomes; the stream terminates with a report.
        let uplink = outcome.daemon_lines[s]
            .iter()
            .find(|l| l.contains("\"type\":\"uplink\""))
            .expect("at least one uplink line");
        for key in [
            "\"tmst\":",
            "\"datr\":\"SF8CR4\"",
            "\"data\":\"",
            "\"outcome\":{",
        ] {
            assert!(uplink.contains(key), "missing {key} in {uplink}");
        }
        let end = outcome.daemon_lines[s].last().expect("end line");
        assert!(end.contains("\"type\":\"end\""), "{end}");
        let streamed = loopback::scene(&cfg, s as u32).len();
        assert!(
            end.contains(&format!("\"samples\":{streamed},")),
            "end line must report the {streamed} streamed samples: {end}"
        );
        assert!(end.contains("\"outcomes\":["), "{end}");
    }
    assert_eq!(outcome.stats.protocol_errors, 0, "{outcome:?}");
    assert_eq!(outcome.stats.worker_panics, 0, "{outcome:?}");
}

#[test]
fn loopback_byte_identical_one_worker() {
    run(1);
}

#[test]
fn loopback_byte_identical_four_workers() {
    run(4);
}

#[test]
fn stats_and_shutdown_verbs() {
    let gw = Gateway::spawn(("127.0.0.1", 0), GatewayConfig::new(params())).expect("bind");
    let addr = gw.local_addr();
    let mut c = GatewayClient::connect(addr, ClientConfig::default()).expect("connect");
    let samples = loopback::scene(&LoopbackConfig::new(params()), 0);
    c.send_samples(0, &samples, 65_536, false).expect("stream");
    c.end_stream(0).expect("end");
    c.request_stats().expect("stats");
    c.request_shutdown().expect("shutdown");
    let lines = c.finish();

    let stats_line = lines
        .iter()
        .find(|l| l.contains("\"type\":\"stats\""))
        .unwrap_or_else(|| panic!("no stats line in {lines:?}"));
    for key in [
        "\"gateway\":{",
        "\"report\":{",
        "\"metrics\":{",
        "\"packets_uplinked\":",
    ] {
        assert!(stats_line.contains(key), "missing {key} in {stats_line}");
    }

    // SHUTDOWN verb stops the whole daemon: join() returns promptly and
    // final counters are coherent.
    let final_stats = gw.join();
    assert_eq!(final_stats.connections_accepted, 1, "{final_stats:?}");
    assert_eq!(final_stats.connections_closed, 1, "{final_stats:?}");
    assert!(final_stats.packets_uplinked >= 2, "{final_stats:?}");
}
