//! Malformed-frame and fault-injection fuzz against a **live daemon**:
//! every fault class must surface as a typed error line + an
//! incremented drop counter, the offending connection closes, and the
//! daemon keeps serving every other connection. No panics anywhere.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};

use tnb_channel::FaultPlan;
use tnb_core::StreamingConfig;
use tnb_gateway::wire::{encode_frame, HEADER_LEN};
use tnb_gateway::{ClientConfig, Frame, Gateway, GatewayClient, GatewayConfig};
use tnb_phy::{CodingRate, LoRaParams, SpreadingFactor};
use tnb_sim::loopback::{scene, LoopbackConfig};

fn params() -> LoRaParams {
    LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4)
}

/// The seeded `packets`-packet collision of the loopback harness.
fn collided_samples(seed: u64, packets: usize) -> Vec<tnb_dsp::Complex32> {
    let cfg = LoopbackConfig {
        packets,
        seed,
        ..LoopbackConfig::new(params())
    };
    scene(&cfg, 0)
}

fn spawn_daemon() -> Gateway {
    Gateway::spawn(
        ("127.0.0.1", 0),
        GatewayConfig {
            params: params(),
            streaming: StreamingConfig::default(),
            queue_chunks: 64,
            ..GatewayConfig::new(params())
        },
    )
    .expect("bind loopback")
}

fn connect(gw: &Gateway) -> GatewayClient {
    GatewayClient::connect(gw.local_addr(), ClientConfig::default()).expect("connect")
}

/// Sends `bytes` on a fresh plain connection (no session, so a wire
/// error closes it instead of parking it for resume), closes the write
/// half, and returns the daemon's lines.
fn send_malformed(gw: &Gateway, bytes: &[u8]) -> Vec<String> {
    let mut peer = TcpStream::connect(gw.local_addr()).expect("connect");
    peer.write_all(bytes).expect("send");
    peer.shutdown(Shutdown::Write).expect("close write half");
    BufReader::new(&peer)
        .lines()
        .map_while(Result::ok)
        .collect()
}

fn error_line_of(lines: &[String]) -> Option<&String> {
    lines.iter().find(|l| l.contains("\"type\":\"error\""))
}

#[test]
fn every_malformation_yields_typed_error_and_daemon_survives() {
    let gw = spawn_daemon();
    let good = encode_frame(&Frame::data(1, 0, vec![tnb_dsp::Complex32::ZERO; 64]));

    // (name, mutated bytes) — one case per wire-error class.
    let mut cases: Vec<(&str, Vec<u8>)> = Vec::new();
    let mut b = good.clone();
    b[0] = b'X';
    cases.push(("bad-magic", b));
    let mut b = good.clone();
    b[4] = 42;
    cases.push(("bad-version", b));
    let mut b = good.clone();
    b[5] = 250;
    cases.push(("bad-kind", b));
    let mut b = good.clone();
    b[6] = 0x80;
    cases.push(("bad-flags", b));
    let mut b = good.clone();
    b[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
    cases.push(("oversized", b));
    let mut b = encode_frame(&Frame::stats());
    b[16] = 8;
    cases.push(("control-with-payload", b));
    let mut b = good.clone();
    let flip = HEADER_LEN + 5;
    b[flip] ^= 0xFF;
    cases.push(("crc-mismatch", b));
    cases.push(("truncated", good[..good.len() - 3].to_vec()));
    // Pure garbage that happens to start with the magic: the CRC gate
    // still rejects it.
    let mut garbage = b"TNBG".to_vec();
    garbage.push(1);
    garbage.extend(std::iter::repeat_n(0u8, 40));
    garbage[16] = 2;
    cases.push(("crc-mismatch", garbage));

    let mut expected_errors = 0;
    for (name, bytes) in cases {
        let lines = send_malformed(&gw, &bytes);
        expected_errors += 1;
        let err =
            error_line_of(&lines).unwrap_or_else(|| panic!("{name}: no error line in {lines:?}"));
        assert!(
            err.contains(&format!("\"error\":\"{name}\"")),
            "{name}: wrong class in {err}"
        );
        // Counters saw this error.
        assert_eq!(gw.stats().protocol_errors, expected_errors, "{name}");
    }

    // After all that abuse, a clean connection still decodes packets.
    let samples = collided_samples(7, 3);
    let mut c = connect(&gw);
    c.send_samples(0, &samples, 65_536, false).expect("stream");
    c.end_stream(0).expect("end");
    let lines = c.finish();
    assert!(
        lines.iter().any(|l| l.contains("\"type\":\"uplink\"")),
        "no uplinks after malformed-frame storm: {lines:?}"
    );
    assert!(
        lines.iter().any(|l| l.contains("\"type\":\"end\"")),
        "no end line: {lines:?}"
    );

    let stats = gw.join();
    assert_eq!(stats.protocol_errors, expected_errors);
    assert!(stats.packets_uplinked >= 2, "{stats:?}");
    assert_eq!(stats.worker_panics, 0, "{stats:?}");
}

#[test]
fn fault_injected_iq_never_kills_the_daemon() {
    let gw = spawn_daemon();
    let clean = collided_samples(11, 2);

    for (i, (name, plan)) in FaultPlan::matrix(11).into_iter().enumerate() {
        let hostile = plan.apply(&clean);
        let mut c = connect(&gw);
        c.send_samples(i as u32, &hostile, 32_768, false)
            .expect("stream");
        c.end_stream(i as u32).expect("end");
        let lines = c.finish();
        // Hostile IQ is *valid* wire traffic: the daemon must finish the
        // stream and report, never error out or panic.
        assert!(
            lines.iter().any(|l| l.contains("\"type\":\"end\"")),
            "{name}: no end line in {lines:?}"
        );
        assert!(error_line_of(&lines).is_none(), "{name}: {lines:?}");
    }

    let stats = gw.join();
    assert_eq!(stats.protocol_errors, 0, "{stats:?}");
    assert_eq!(stats.worker_panics, 0, "{stats:?}");
}

#[test]
fn backpressure_drops_oldest_and_counts() {
    // A tiny ingest bound plus a decoder that cannot keep up (the first
    // chunk of a big trace takes a while) forces drop-oldest eviction;
    // the connection must stay healthy and the counter must record it.
    let gw = Gateway::spawn(
        ("127.0.0.1", 0),
        GatewayConfig {
            params: params(),
            streaming: StreamingConfig::default(),
            queue_chunks: 2,
            ..GatewayConfig::new(params())
        },
    )
    .expect("bind");
    let samples = collided_samples(3, 3);
    let mut c = connect(&gw);
    // Ending stream 0 parks the decoder inside a full collision decode;
    // stream 1's small chunks then flood the 2-chunk queue far faster
    // than the decoder can drain it, forcing drop-oldest eviction.
    c.send_samples(0, &samples, 65_536, false).expect("stream");
    c.end_stream(0).expect("end");
    c.send_samples(1, &samples, 1_024, false).expect("stream");
    c.end_stream(1).expect("end");
    let lines = c.finish();
    assert!(
        lines.iter().any(|l| l.contains("\"type\":\"end\"")),
        "{lines:?}"
    );
    let stats = gw.join();
    assert!(
        stats.chunks_dropped > 0,
        "expected drop-oldest eviction: {stats:?}"
    );
    assert_eq!(stats.protocol_errors, 0, "{stats:?}");
}
