//! End-to-end TnB receiver tests on synthetic traces.

use tnb_channel::trace::{PacketConfig, TraceBuilder};
use tnb_core::{TnbConfig, TnbReceiver};
use tnb_phy::{CodingRate, LoRaParams, SpreadingFactor};

fn params(sf: SpreadingFactor, cr: CodingRate) -> LoRaParams {
    LoRaParams::new(sf, cr)
}

#[test]
fn single_clean_packet_decodes() {
    let p = params(SpreadingFactor::SF8, CodingRate::CR4);
    let payload: Vec<u8> = (0..16).collect();
    let mut b = TraceBuilder::new(p, 1).without_noise();
    b.add_packet(
        &payload,
        PacketConfig {
            start_sample: 5000,
            snr_db: 0.0,
            ..Default::default()
        },
    );
    let t = b.build();
    let decoded = TnbReceiver::new(p).decode(t.samples());
    assert_eq!(decoded.len(), 1);
    assert_eq!(decoded[0].payload, payload);
    assert_eq!(decoded[0].header.payload_len, 16);
    assert_eq!(decoded[0].pass, 1);
}

#[test]
fn single_noisy_packet_with_cfo_decodes_all_crs() {
    for cr in CodingRate::ALL {
        let p = params(SpreadingFactor::SF8, cr);
        let payload = b"all coding rates".to_vec();
        let mut b = TraceBuilder::new(p, 2);
        b.add_packet(
            &payload,
            PacketConfig {
                start_sample: 9_321,
                snr_db: 6.0,
                cfo_hz: 2500.0,
                frac_delay: 0.3,
                ..Default::default()
            },
        );
        let t = b.build();
        let decoded = TnbReceiver::new(p).decode(t.samples());
        assert_eq!(decoded.len(), 1, "cr={cr:?}");
        assert_eq!(decoded[0].payload, payload, "cr={cr:?}");
    }
}

#[test]
fn two_colliding_packets_decode() {
    let p = params(SpreadingFactor::SF8, CodingRate::CR4);
    let l = p.samples_per_symbol();
    let pay1 = b"packet number 1!".to_vec();
    let pay2 = b"packet number 2?".to_vec();
    let mut b = TraceBuilder::new(p, 3);
    b.add_packet(
        &pay1,
        PacketConfig {
            start_sample: 4_000,
            snr_db: 12.0,
            cfo_hz: 1500.0,
            ..Default::default()
        },
    );
    b.add_packet(
        &pay2,
        PacketConfig {
            start_sample: 4_000 + 17 * l + 613,
            snr_db: 9.0,
            cfo_hz: -2300.0,
            ..Default::default()
        },
    );
    let t = b.build();
    let decoded = TnbReceiver::new(p).decode(t.samples());
    let payloads: Vec<&[u8]> = decoded.iter().map(|d| d.payload.as_slice()).collect();
    assert!(payloads.contains(&pay1.as_slice()), "{payloads:?}");
    assert!(payloads.contains(&pay2.as_slice()), "{payloads:?}");
}

#[test]
fn three_way_collision_sf8() {
    let p = params(SpreadingFactor::SF8, CodingRate::CR3);
    let l = p.samples_per_symbol();
    let mut b = TraceBuilder::new(p, 4);
    let payloads: Vec<Vec<u8>> = (0..3u8)
        .map(|i| {
            let mut v = vec![i; 16];
            v[0] = b'#';
            v
        })
        .collect();
    let offsets = [2_000usize, 2_000 + 11 * l + 300, 2_000 + 23 * l + 1500];
    let snrs = [14.0f32, 10.0, 12.0];
    let cfos = [900.0f64, -1800.0, 3100.0];
    for i in 0..3 {
        b.add_packet(
            &payloads[i],
            PacketConfig {
                start_sample: offsets[i],
                snr_db: snrs[i],
                cfo_hz: cfos[i],
                ..Default::default()
            },
        );
    }
    let t = b.build();
    let decoded = TnbReceiver::new(p).decode(t.samples());
    assert!(
        decoded.len() >= 2,
        "expected at least 2 of 3 collided packets, got {}",
        decoded.len()
    );
}

#[test]
fn disabling_bec_still_decodes_clean_packets() {
    let p = params(SpreadingFactor::SF8, CodingRate::CR4);
    let payload = b"no bec needed...".to_vec();
    let mut b = TraceBuilder::new(p, 5);
    b.add_packet(
        &payload,
        PacketConfig {
            start_sample: 3_000,
            snr_db: 15.0,
            ..Default::default()
        },
    );
    let t = b.build();
    let cfg = TnbConfig {
        use_bec: false,
        ..TnbConfig::default()
    };
    let decoded = TnbReceiver::with_config(p, cfg).decode(t.samples());
    assert_eq!(decoded.len(), 1);
    assert_eq!(decoded[0].payload, payload);
    assert_eq!(decoded[0].rescued_codewords, 0);
}

#[test]
fn empty_trace_decodes_nothing() {
    let p = params(SpreadingFactor::SF8, CodingRate::CR1);
    let mut b = TraceBuilder::new(p, 6);
    b.set_min_len(100_000);
    let t = b.build();
    assert!(TnbReceiver::new(p).decode(t.samples()).is_empty());
}

#[test]
fn truncated_packet_fails_cleanly() {
    let p = params(SpreadingFactor::SF8, CodingRate::CR4);
    let mut b = TraceBuilder::new(p, 7).without_noise();
    b.add_packet(
        &[0xEE; 16],
        PacketConfig {
            start_sample: 1_000,
            snr_db: 0.0,
            ..Default::default()
        },
    );
    let t = b.build();
    // Cut the trace in the middle of the payload.
    let cut = &t.samples()[..1_000 + p.preamble_samples() + 12 * p.samples_per_symbol()];
    let decoded = TnbReceiver::new(p).decode(cut);
    assert!(decoded.is_empty());
}

#[test]
fn snr_estimate_is_reasonable() {
    let p = params(SpreadingFactor::SF8, CodingRate::CR4);
    let mut b = TraceBuilder::new(p, 8);
    b.add_packet(
        &[0x42; 16],
        PacketConfig {
            start_sample: 2_000,
            snr_db: 10.0,
            ..Default::default()
        },
    );
    let t = b.build();
    let decoded = TnbReceiver::new(p).decode(t.samples());
    assert_eq!(decoded.len(), 1);
    assert!(
        (decoded[0].snr_db - 10.0).abs() < 5.0,
        "snr estimate {}",
        decoded[0].snr_db
    );
}

#[test]
fn two_antennas_decode() {
    let p = params(SpreadingFactor::SF10, CodingRate::CR2);
    let payload = b"antenna diversity".to_vec();
    let mut b = TraceBuilder::new(p, 9).with_antennas(2);
    b.add_packet(
        &payload,
        PacketConfig {
            start_sample: 12_000,
            snr_db: 3.0,
            cfo_hz: -900.0,
            ..Default::default()
        },
    );
    let t = b.build();
    let refs: Vec<&[tnb_dsp::Complex32]> = t.antennas.iter().map(|a| a.as_slice()).collect();
    let (decoded, _) = TnbReceiver::new(p)
        .decode_multi_report_observed(&refs, &tnb_core::PipelineMetrics::disabled());
    assert_eq!(decoded.len(), 1);
    assert_eq!(decoded[0].payload, payload);
}

#[test]
fn decode_report_accounts_for_every_detection() {
    let p = params(SpreadingFactor::SF8, CodingRate::CR4);
    let l = p.samples_per_symbol();
    let mut b = TraceBuilder::new(p, 20);
    // Two healthy packets and one weak one buried under a strong collider.
    b.add_packet(
        &[1; 16],
        PacketConfig {
            start_sample: 2_000,
            snr_db: 14.0,
            cfo_hz: 1000.0,
            ..Default::default()
        },
    );
    b.add_packet(
        &[2; 16],
        PacketConfig {
            start_sample: 2_000 + 14 * l + 500,
            snr_db: 12.0,
            cfo_hz: -1800.0,
            ..Default::default()
        },
    );
    let t = b.build();
    let rx = TnbReceiver::new(p);
    let (decoded, report) = rx.decode_with_report(t.samples());
    assert_eq!(report.detected, 2);
    assert_eq!(report.decoded, decoded.len());
    assert_eq!(
        report.decoded + report.header_failures + report.payload_failures + report.truncated,
        report.detected,
        "{report:?}"
    );
}

#[test]
fn decode_report_flags_truncation() {
    let p = params(SpreadingFactor::SF8, CodingRate::CR4);
    let mut b = TraceBuilder::new(p, 21).without_noise();
    b.add_packet(
        &[7; 16],
        PacketConfig {
            start_sample: 1_000,
            snr_db: 0.0,
            ..Default::default()
        },
    );
    let t = b.build();
    let cut = &t.samples()[..1_000 + p.preamble_samples() + 12 * p.samples_per_symbol()];
    let rx = TnbReceiver::new(p);
    let (decoded, report) = rx.decode_with_report(cut);
    assert!(decoded.is_empty());
    assert_eq!(report.detected, 1);
    assert_eq!(report.truncated, 1, "{report:?}");
}
