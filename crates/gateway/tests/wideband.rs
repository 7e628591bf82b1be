//! Wideband streams and sequence-number accounting, end to end.
//!
//! A WIDEBAND-flagged stream must decode through the channelizer +
//! per-channel receivers **byte-identically** to a direct in-process
//! [`tnb_core::WidebandReceiver`] over the same wire-quantized samples,
//! with every uplink line carrying its channel. Sequence numbers must
//! split cleanly into gaps (counted, frame accepted) and duplicates
//! (counted, frame dropped — a replayed chunk is never decoded twice).

use tnb_gateway::wire::{encode_frame, Frame};
use tnb_gateway::{ClientConfig, Gateway, GatewayClient, GatewayConfig};
use tnb_phy::{CodingRate, LoRaParams, SpreadingFactor};
use tnb_sim::loopback::{reference_transcript, run, scene, uplink_transcript, LoopbackConfig};

fn params() -> LoRaParams {
    LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4)
}

#[test]
fn wideband_stream_uplinks_byte_identical_per_channel_lines() {
    let cfg = LoopbackConfig::wideband(params());
    let outcome = run(&cfg).expect("wideband loopback");
    // One stream: its transcript is the whole connection's.
    let daemon_lines = outcome.daemon_lines.concat();

    assert!(
        daemon_lines.iter().any(|l| l.contains("\"uplink\"")),
        "daemon uplinked nothing: {:?}",
        outcome.daemon_lines
    );
    assert_eq!(
        outcome.daemon_lines, outcome.reference_lines,
        "wideband transcript diverged from the in-process reference"
    );
    // Every uplink line names its channel; only occupied channels appear.
    for line in &daemon_lines {
        if line.contains("\"type\":\"uplink\"") {
            assert!(line.contains("\"channel\":"), "{line}");
        }
    }
    for &c in &cfg.occupied {
        assert!(
            outcome.per_channel[c] >= 1,
            "channel {c} decoded nothing: {:?}",
            outcome.per_channel
        );
    }
    for (c, &n) in outcome.per_channel.iter().enumerate() {
        if !cfg.occupied.contains(&c) {
            assert_eq!(n, 0, "ghost packets on empty channel {c}");
        }
    }
    assert_eq!(outcome.stats.protocol_errors, 0, "{:?}", outcome.stats);
    assert_eq!(outcome.stats.worker_panics, 0, "{:?}", outcome.stats);
}

/// Streams `samples` as raw DATA frames whose `seq` values are given
/// explicitly (chunk `i` carries `seqs[i]`), then ends the stream.
fn stream_with_seqs(
    client: &mut GatewayClient,
    samples: &[tnb_dsp::Complex32],
    chunk: usize,
    seqs: &[u32],
    end_seq: u32,
) {
    let chunks: Vec<_> = samples.chunks(chunk).collect();
    assert_eq!(chunks.len(), seqs.len(), "test wiring: one seq per chunk");
    for (c, &seq) in chunks.iter().zip(seqs) {
        let frame = Frame::data(0, seq, c.to_vec());
        client.send_raw(&encode_frame(&frame)).expect("send");
    }
    client
        .send_raw(&encode_frame(&Frame::end_stream(0, end_seq)))
        .expect("end");
}

#[test]
fn duplicate_frames_are_dropped_and_counted_gaps_accepted() {
    let p = params();
    let mut cfg = LoopbackConfig {
        packets: 2,
        seed: 7,
        ..LoopbackConfig::new(p)
    };
    let samples = scene(&cfg, 0);
    let chunk = samples.len().div_ceil(4);
    cfg.chunk = chunk;

    // Chunks 0..4 sent as seqs [0, 1, 1, 2, 3]: the replayed seq-1 frame
    // (identical bytes, a retransmission) must be dropped, so the decode
    // and transcript match a clean single send exactly.
    let gw = Gateway::spawn(("127.0.0.1", 0), GatewayConfig::new(p)).expect("bind");
    let mut c = GatewayClient::connect(gw.local_addr(), ClientConfig::default()).expect("connect");
    let chunks: Vec<_> = samples.chunks(chunk).collect();
    for (i, payload) in chunks.iter().enumerate() {
        let frame = Frame::data(0, i as u32, payload.to_vec());
        c.send_raw(&encode_frame(&frame)).expect("send");
        if i == 1 {
            c.send_raw(&encode_frame(&frame)).expect("resend dup");
        }
    }
    c.send_raw(&encode_frame(&Frame::end_stream(0, chunks.len() as u32)))
        .expect("end");
    let lines = uplink_transcript(&c.finish());
    let stats = gw.join();

    let (reference, per_channel) = reference_transcript(&cfg, 0, &samples);
    let uplinked = per_channel[0];
    assert!(uplinked >= 1, "scene decodes at least one packet");
    assert_eq!(
        lines, reference,
        "a duplicated frame changed the transcript (decoded twice or corrupted the stream)"
    );
    assert_eq!(stats.seq_dups, 1, "{stats:?}");
    assert_eq!(stats.seq_gaps, 0, "{stats:?}");
    assert_eq!(stats.packets_uplinked, uplinked, "{stats:?}");
}

#[test]
fn seq_gap_is_counted_and_stream_keeps_decoding() {
    let p = params();
    let mut cfg = LoopbackConfig {
        packets: 2,
        seed: 9,
        ..LoopbackConfig::new(p)
    };
    let samples = scene(&cfg, 0);
    let chunk = samples.len().div_ceil(4);
    cfg.chunk = chunk;

    let gw = Gateway::spawn(("127.0.0.1", 0), GatewayConfig::new(p)).expect("bind");
    let mut c = GatewayClient::connect(gw.local_addr(), ClientConfig::default()).expect("connect");
    // Seqs [0, 1, 5, 6]: one gap of 3 lost frames after seq 1 — counted
    // once, and the surviving frames still decode (all samples present,
    // only the numbering skipped).
    stream_with_seqs(&mut c, &samples, chunk, &[0, 1, 5, 6], 7);
    let lines = uplink_transcript(&c.finish());
    let stats = gw.join();

    assert_eq!(stats.seq_gaps, 1, "{stats:?}");
    assert_eq!(stats.seq_dups, 0, "{stats:?}");
    let (reference, _) = reference_transcript(&cfg, 0, &samples);
    assert_eq!(
        lines, reference,
        "a seq gap (with no actual sample loss) must not change the decode"
    );
}
