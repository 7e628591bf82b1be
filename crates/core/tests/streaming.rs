//! Streaming receiver vs batch receiver: feeding the same trace in
//! arbitrary chunks must produce the same packets, each exactly once.

use tnb_channel::trace::{PacketConfig, TraceBuilder};
use tnb_core::{StreamingReceiver, TnbReceiver};
use tnb_phy::{CodingRate, LoRaParams, SpreadingFactor};

fn build_trace(seed: u64, n_packets: usize) -> (tnb_channel::trace::Trace, Vec<Vec<u8>>) {
    let p = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4);
    let mut b = TraceBuilder::new(p, seed);
    let airtime = b.packet_samples(16);
    let mut payloads = Vec::new();
    for k in 0..n_packets {
        let payload: Vec<u8> = (0..16).map(|i| (k * 31 + i) as u8).collect();
        b.add_packet(
            &payload,
            PacketConfig {
                start_sample: 3_000 + k * (airtime + 40_000),
                snr_db: 9.0 + (k % 3) as f32 * 2.0,
                cfo_hz: -3000.0 + 1200.0 * k as f64,
                ..Default::default()
            },
        );
        payloads.push(payload);
    }
    b.set_min_len(3_000 + n_packets * (airtime + 40_000) + 50_000);
    (b.build(), payloads)
}

fn stream_decode(trace: &[tnb_dsp::Complex32], chunk: usize) -> Vec<Vec<u8>> {
    let p = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4);
    let mut rx = StreamingReceiver::new(p);
    let mut out = Vec::new();
    for c in trace.chunks(chunk) {
        out.extend(rx.push(c).into_iter().map(|d| d.payload));
    }
    out.extend(rx.finish().into_iter().map(|d| d.payload));
    out
}

#[test]
fn streaming_matches_batch() {
    let (trace, payloads) = build_trace(31, 5);
    let p = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4);
    let batch: Vec<Vec<u8>> = TnbReceiver::new(p)
        .decode(trace.samples())
        .into_iter()
        .map(|d| d.payload)
        .collect();
    assert_eq!(batch.len(), 5, "batch baseline should decode all");
    for chunk in [10_000usize, 77_777, 1_000_000] {
        let streamed = stream_decode(trace.samples(), chunk);
        assert_eq!(streamed.len(), 5, "chunk={chunk}: {streamed:?}");
        for pay in &payloads {
            assert!(streamed.contains(pay), "chunk={chunk} missing {pay:?}");
        }
    }
}

#[test]
fn no_duplicate_emissions_across_windows() {
    let (trace, _) = build_trace(32, 4);
    // Tiny chunks maximise window-boundary crossings.
    let streamed = stream_decode(trace.samples(), 50_000);
    let mut seen = std::collections::HashSet::new();
    for p in &streamed {
        assert!(seen.insert(p.clone()), "duplicate emission of {p:?}");
    }
    assert_eq!(streamed.len(), 4);
}

/// A packet deliberately straddling the first processing boundary must be
/// emitted exactly once, with its absolute start — the overlap region is
/// retried in the next window and deduplicated.
#[test]
fn boundary_straddling_packet_emitted_exactly_once() {
    let p = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4);
    let cfg = tnb_core::StreamingConfig::default();
    let max_packet = tnb_phy::Transmitter::new(p).packet_samples(cfg.max_payload);
    // The first decode fires once the buffer reaches the window size;
    // start the packet half an airtime before that boundary.
    let window = cfg.window_factor * max_packet;
    let airtime = tnb_phy::Transmitter::new(p).packet_samples(16);
    let start = window - airtime / 2;
    let payload: Vec<u8> = (0..16).map(|i| 0xC0 ^ i as u8).collect();

    let mut b = TraceBuilder::new(p, 44);
    b.add_packet(
        &payload,
        PacketConfig {
            start_sample: start,
            snr_db: 12.0,
            cfo_hz: 900.0,
            ..Default::default()
        },
    );
    b.set_min_len(window + 2 * airtime);
    let trace = b.build();

    let mut rx = StreamingReceiver::new(p);
    let mut got = Vec::new();
    for c in trace.samples().chunks(40_000) {
        got.extend(rx.push(c));
    }
    got.extend(rx.finish());
    assert_eq!(
        got.len(),
        1,
        "straddling packet must be emitted exactly once"
    );
    assert_eq!(got[0].payload, payload);
    assert!(
        (got[0].start - start as f64).abs() < 3.0,
        "absolute start {} expect {start}",
        got[0].start
    );
}

/// Regression: `finish()` must reset the stream state. A reused receiver
/// previously kept the emitted-packet dedup memory, silently suppressing
/// packets of the next stream that landed near a previous stream's
/// offsets.
#[test]
fn receiver_reusable_after_finish() {
    let (trace, payloads) = build_trace(35, 2);
    let p = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4);
    let mut rx = StreamingReceiver::new(p);
    let mut starts: Vec<Vec<f64>> = Vec::new();
    for round in 0..2 {
        let mut got = Vec::new();
        for c in trace.samples().chunks(80_000) {
            got.extend(rx.push(c));
        }
        got.extend(rx.finish());
        assert_eq!(got.len(), 2, "round {round}: {got:?}");
        for pay in &payloads {
            assert!(
                got.iter().any(|d| &d.payload == pay),
                "round {round} missing {pay:?}"
            );
        }
        assert_eq!(
            rx.position(),
            trace.samples().len() as u64,
            "round {round}: position must read the finished stream's length"
        );
        starts.push(got.iter().map(|d| d.start).collect());
    }
    // The second stream restarts at sample 0, so its packets land at the
    // first stream's offsets.
    assert_eq!(starts[0], starts[1]);
    // The cumulative report spans both streams (overlapping windows may
    // decode a packet more than once upstream of emission dedup).
    assert!(rx.report().decoded >= 4, "{:?}", rx.report());
}

/// Regression (satellite of the SIC PR): a rescue decoded in a push
/// window and re-decoded from the retained overlap at `finish` must be
/// counted once in the cumulative report, and a reused receiver must
/// count one rescue per stream — not one per overlapping window.
#[test]
fn reused_receiver_counts_rescues_once_per_stream() {
    let p = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4);
    let l = p.samples_per_symbol();
    let cfg = tnb_core::StreamingConfig {
        receiver: tnb_core::TnbConfig {
            sic: tnb_core::SicConfig { enabled: true },
            ..tnb_core::TnbConfig::default()
        },
        workers: 2,
        ..Default::default()
    };
    let max_packet = tnb_phy::Transmitter::new(p).packet_samples(cfg.max_payload);
    let window = cfg.window_factor * max_packet;
    let airtime = tnb_phy::Transmitter::new(p).packet_samples(16);
    // Near-far pair near the end of the first processing window: rescued
    // by the push-triggered decode, then re-decoded from the retained
    // overlap when `finish` flushes.
    let strong_start = window - 2 * airtime;
    let weak_payload: Vec<u8> = vec![0x57; 16];
    let strong_payload: Vec<u8> = vec![0xA5; 16];
    let mut b = TraceBuilder::new(p, 46);
    b.add_packet(
        &strong_payload,
        PacketConfig {
            start_sample: strong_start,
            snr_db: 18.0,
            cfo_hz: -1_800.0,
            frac_delay: 0.41,
            node_id: 1,
            ..Default::default()
        },
    );
    b.add_packet(
        &weak_payload,
        PacketConfig {
            start_sample: strong_start + 3 * l + l / 3,
            snr_db: 3.0,
            cfo_hz: 2_400.0,
            frac_delay: 0.73,
            node_id: 2,
            ..Default::default()
        },
    );
    b.set_min_len(window + airtime);
    let trace = b.build();

    let mut rx = tnb_core::StreamingReceiver::with_config(p, cfg);
    for round in 1..=2usize {
        let mut got = Vec::new();
        for c in trace.samples().chunks(60_000) {
            got.extend(rx.push(c).into_iter().map(|d| d.payload));
        }
        got.extend(rx.finish().into_iter().map(|d| d.payload));
        assert!(
            got.contains(&weak_payload) && got.contains(&strong_payload),
            "round {round}: {got:?}"
        );
        assert_eq!(got.len(), 2, "round {round}: each packet exactly once");
        assert_eq!(
            rx.report().second_pass_rescues,
            round,
            "round {round}: one rescue per stream, not per window"
        );
    }
}

#[test]
fn sic_rescue_at_end_of_trace_with_small_chunks_emits_exactly_once() {
    // Regression guard for the SIC-overlap boundary arithmetic: a
    // near-far pair sitting in the trace's *tail* — past the last
    // push-triggered processing window, so only `finish()` ever decodes
    // it — must be emitted exactly once, and the rescue counted exactly
    // once, even when every chunk is far smaller than one packet
    // airtime (many chunk boundaries crossing the retained SIC overlap).
    let p = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4);
    let l = p.samples_per_symbol();
    let cfg = tnb_core::StreamingConfig {
        receiver: tnb_core::TnbConfig {
            sic: tnb_core::SicConfig { enabled: true },
            ..tnb_core::TnbConfig::default()
        },
        workers: 2,
        ..Default::default()
    };
    let airtime = tnb_phy::Transmitter::new(p).packet_samples(16);
    let strong_start = 6_000;
    let weak_payload: Vec<u8> = vec![0x57; 16];
    let strong_payload: Vec<u8> = vec![0xA5; 16];
    let mut b = TraceBuilder::new(p, 47);
    b.add_packet(
        &strong_payload,
        PacketConfig {
            start_sample: strong_start,
            snr_db: 18.0,
            cfo_hz: -1_800.0,
            frac_delay: 0.41,
            node_id: 1,
            ..Default::default()
        },
    );
    b.add_packet(
        &weak_payload,
        PacketConfig {
            start_sample: strong_start + 3 * l + l / 3,
            snr_db: 3.0,
            cfo_hz: 2_400.0,
            frac_delay: 0.73,
            node_id: 2,
            ..Default::default()
        },
    );
    b.set_min_len(strong_start + 2 * airtime + 20_000);
    let trace = b.build();

    // Chunk sizes straddle awkward boundaries: both far below one
    // airtime, one not a divisor of anything round.
    for chunk in [20_000usize, 33_333] {
        let mut rx = tnb_core::StreamingReceiver::with_config(p, cfg);
        let mut got = Vec::new();
        for c in trace.samples().chunks(chunk) {
            got.extend(rx.push(c).into_iter().map(|d| d.payload));
        }
        got.extend(rx.finish().into_iter().map(|d| d.payload));
        assert!(
            got.contains(&weak_payload) && got.contains(&strong_payload),
            "chunk {chunk}: {got:?}"
        );
        assert_eq!(got.len(), 2, "chunk {chunk}: each packet exactly once");
        assert_eq!(
            rx.report().second_pass_rescues,
            1,
            "chunk {chunk}: the tail rescue must be counted exactly once"
        );
    }
}

#[test]
fn absolute_starts_reported() {
    let (trace, _) = build_trace(33, 3);
    let p = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4);
    let mut rx = StreamingReceiver::new(p);
    let mut starts = Vec::new();
    for c in trace.samples().chunks(123_456) {
        starts.extend(rx.push(c).into_iter().map(|d| d.start));
    }
    starts.extend(rx.finish().into_iter().map(|d| d.start));
    starts.sort_by(f64::total_cmp);
    let airtime = tnb_phy::Transmitter::new(p).packet_samples(16);
    for (k, s) in starts.iter().enumerate() {
        let expect = (3_000 + k * (airtime + 40_000)) as f64;
        assert!(
            (s - expect).abs() < 3.0,
            "packet {k}: start {s} expect {expect}"
        );
    }
}
