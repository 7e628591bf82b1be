//! Integration tests for packet detection and synchronization against
//! synthetic traces with known ground truth.

use tnb_channel::trace::{PacketConfig, TraceBuilder};
use tnb_core::packet::DetectedPacket;
use tnb_core::{Detector, PipelineMetrics, StageCounters};
use tnb_dsp::{Complex32, DspScratch};
use tnb_phy::{CodingRate, LoRaParams, SpreadingFactor};

fn params(sf: SpreadingFactor) -> LoRaParams {
    LoRaParams::new(sf, CodingRate::CR4)
}

/// One-worker detection on a fresh scratch, without observability.
fn detect(p: LoRaParams, samples: &[Complex32]) -> Vec<DetectedPacket> {
    Detector::new(p).detect(
        &[samples],
        1,
        &mut DspScratch::new(),
        &PipelineMetrics::disabled(),
        &mut StageCounters::default(),
    )
}

/// CFO in cycles/symbol for a given Hz value.
fn cfo_cycles(p: &LoRaParams, hz: f64) -> f64 {
    hz / p.bin_hz()
}

#[test]
fn clean_packet_detected_exactly() {
    let p = params(SpreadingFactor::SF8);
    let mut b = TraceBuilder::new(p, 1).without_noise();
    b.add_packet(
        &[0x55; 16],
        PacketConfig {
            start_sample: 10_000,
            snr_db: 0.0,
            ..Default::default()
        },
    );
    let trace = b.build();
    let found = detect(p, trace.samples());
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(
        (found[0].start - 10_000.0).abs() <= 2.0,
        "start {}",
        found[0].start
    );
    assert!(
        found[0].cfo_cycles.abs() < 0.2,
        "cfo {}",
        found[0].cfo_cycles
    );
}

#[test]
fn cfo_and_offset_estimated() {
    let p = params(SpreadingFactor::SF8);
    for &(cfo_hz, start, frac) in &[
        (2000.0f64, 7_013usize, 0.0f32),
        (-3500.0, 12_345, 0.5),
        (4880.0, 20_001, 0.25),
        (-4880.0, 9_876, 0.75),
    ] {
        let mut b = TraceBuilder::new(p, 2).without_noise();
        b.add_packet(
            &[0xA7; 16],
            PacketConfig {
                start_sample: start,
                snr_db: 0.0,
                cfo_hz,
                frac_delay: frac,
                ..Default::default()
            },
        );
        let trace = b.build();
        let found = detect(p, trace.samples());
        assert_eq!(found.len(), 1, "cfo={cfo_hz} start={start}");
        let want_cfo = cfo_cycles(&p, cfo_hz);
        assert!(
            (found[0].cfo_cycles - want_cfo).abs() < 0.25,
            "cfo got {} want {want_cfo}",
            found[0].cfo_cycles
        );
        assert!(
            (found[0].start - start as f64).abs() <= 2.0,
            "start got {} want {start}",
            found[0].start
        );
    }
}

#[test]
fn detection_works_at_low_snr() {
    let p = params(SpreadingFactor::SF8);
    let mut b = TraceBuilder::new(p, 3);
    b.add_packet(
        &[0x11; 16],
        PacketConfig {
            start_sample: 30_000,
            snr_db: 0.0,
            cfo_hz: 1200.0,
            ..Default::default()
        },
    );
    let trace = b.build();
    let found = detect(p, trace.samples());
    assert_eq!(found.len(), 1);
    assert!(
        (found[0].start - 30_000.0).abs() <= 3.0,
        "start {}",
        found[0].start
    );
}

#[test]
fn sf10_detection() {
    let p = params(SpreadingFactor::SF10);
    let mut b = TraceBuilder::new(p, 4);
    b.add_packet(
        &[0x3C; 16],
        PacketConfig {
            start_sample: 50_000,
            snr_db: 3.0,
            cfo_hz: -2400.0,
            ..Default::default()
        },
    );
    let trace = b.build();
    let found = detect(p, trace.samples());
    assert_eq!(found.len(), 1);
    assert!((found[0].start - 50_000.0).abs() <= 2.0);
    let want = cfo_cycles(&p, -2400.0);
    assert!((found[0].cfo_cycles - want).abs() < 0.25);
}

#[test]
fn two_colliding_packets_both_detected() {
    let p = params(SpreadingFactor::SF8);
    let mut b = TraceBuilder::new(p, 5);
    let l = p.samples_per_symbol();
    // Second packet starts mid-payload of the first, different CFO.
    b.add_packet(
        &[1; 16],
        PacketConfig {
            start_sample: 5_000,
            snr_db: 6.0,
            cfo_hz: 1500.0,
            ..Default::default()
        },
    );
    b.add_packet(
        &[2; 16],
        PacketConfig {
            start_sample: 5_000 + 20 * l + 371,
            snr_db: 4.0,
            cfo_hz: -2000.0,
            ..Default::default()
        },
    );
    let trace = b.build();
    let found = detect(p, trace.samples());
    assert_eq!(found.len(), 2, "{found:?}");
    assert!((found[0].start - 5_000.0).abs() <= 2.0);
    assert!((found[1].start - (5_000 + 20 * l + 371) as f64).abs() <= 2.0);
}

#[test]
fn overlapping_preambles_detected() {
    // Preambles offset by a few symbols overlap heavily; both must be
    // found (they track at different bins).
    let p = params(SpreadingFactor::SF8);
    let l = p.samples_per_symbol();
    let mut b = TraceBuilder::new(p, 6);
    b.add_packet(
        &[3; 16],
        PacketConfig {
            start_sample: 4_000,
            snr_db: 8.0,
            cfo_hz: 800.0,
            ..Default::default()
        },
    );
    b.add_packet(
        &[4; 16],
        PacketConfig {
            start_sample: 4_000 + 3 * l + 1234,
            snr_db: 8.0,
            cfo_hz: -800.0,
            ..Default::default()
        },
    );
    let trace = b.build();
    let found = detect(p, trace.samples());
    assert_eq!(found.len(), 2, "{found:?}");
}

#[test]
fn pure_noise_produces_no_detections() {
    let p = params(SpreadingFactor::SF8);
    let mut b = TraceBuilder::new(p, 7);
    b.set_min_len(300_000);
    let trace = b.build();
    let found = detect(p, trace.samples());
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn truncated_preamble_not_detected() {
    // A packet cut off before its downchirps cannot be validated.
    let p = params(SpreadingFactor::SF8);
    let mut b = TraceBuilder::new(p, 8).without_noise();
    b.add_packet(
        &[9; 16],
        PacketConfig {
            start_sample: 1_000,
            snr_db: 0.0,
            ..Default::default()
        },
    );
    let trace = b.build();
    let l = p.samples_per_symbol();
    let cut = &trace.samples()[..1_000 + 9 * l];
    let found = detect(p, cut);
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn cfo_beyond_limit_rejected() {
    // CFO far outside the allowed range must not produce a (mis-timed)
    // detection: the validation's CFO bound rejects it.
    let p = params(SpreadingFactor::SF8);
    let mut b = TraceBuilder::new(p, 9).without_noise();
    b.add_packet(
        &[5; 16],
        PacketConfig {
            start_sample: 10_000,
            snr_db: 0.0,
            cfo_hz: 20_000.0, // 41 bins ≫ max_cfo_bins = 12
            ..Default::default()
        },
    );
    let trace = b.build();
    let found = detect(p, trace.samples());
    for f in &found {
        // If anything is detected, it must not be wildly mis-timed.
        assert!((f.start - 10_000.0).abs() < p.samples_per_symbol() as f64);
    }
}

#[test]
fn same_bin_preambles_merge_into_one_detection() {
    // Two preambles whose chip offsets and CFOs coincide track at the
    // same scan bin — a documented limitation shared with the paper: at
    // most one of them is detected (never more than two ghosts).
    let p = params(SpreadingFactor::SF8);
    let l = p.samples_per_symbol();
    let mut b = TraceBuilder::new(p, 40);
    b.add_packet(
        &[1; 16],
        PacketConfig {
            start_sample: 4_000,
            snr_db: 10.0,
            ..Default::default()
        },
    );
    // Exactly 3 symbols later: identical boundary alignment, same CFO.
    b.add_packet(
        &[2; 16],
        PacketConfig {
            start_sample: 4_000 + 3 * l,
            snr_db: 10.0,
            ..Default::default()
        },
    );
    let t = b.build();
    let found = detect(p, t.samples());
    assert!((1..=2).contains(&found.len()), "{found:?}");
}
