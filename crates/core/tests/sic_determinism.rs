//! SIC determinism and rescue-regression tests: the near-far collision
//! trace must decode byte-identically across the serial, parallel (any
//! worker count) and streaming (any chunking) receivers with SIC on, and
//! SIC must rescue the weak packet where plain TnB provably fails.

use tnb_channel::trace::{PacketConfig, TraceBuilder};
use tnb_core::streaming::{StreamingConfig, StreamingReceiver};
use tnb_core::{DecodeReport, SicConfig, TnbConfig, TnbReceiver};
use tnb_dsp::Complex32;
use tnb_phy::{CodingRate, LoRaParams, SpreadingFactor};

fn params() -> LoRaParams {
    LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4)
}

fn sic_on() -> TnbConfig {
    TnbConfig {
        sic: SicConfig {
            enabled: true,
            ..SicConfig::default()
        },
        ..TnbConfig::default()
    }
}

/// Near-far scene: a weak packet whose preamble lands in the middle of a
/// strong collider `delta_db` louder, so the weak preamble is buried at
/// detection time and only subtraction of the strong packet reveals it.
fn near_far_trace(
    p: LoRaParams,
    seed: u64,
    weak_snr_db: f32,
    delta_db: f32,
) -> (Vec<Complex32>, Vec<u8>, Vec<u8>) {
    let l = p.samples_per_symbol();
    let weak_payload = vec![0x57u8; 16];
    let strong_payload = vec![0xA5u8; 16];
    let mut b = TraceBuilder::new(p, seed);
    b.add_packet(
        &strong_payload,
        PacketConfig {
            start_sample: 4_000,
            snr_db: weak_snr_db + delta_db,
            cfo_hz: -1_800.0,
            frac_delay: 0.41,
            node_id: 1,
            ..Default::default()
        },
    );
    b.add_packet(
        &weak_payload,
        PacketConfig {
            start_sample: 4_000 + 3 * l + l / 3,
            snr_db: weak_snr_db,
            cfo_hz: 2_400.0,
            frac_delay: 0.73,
            node_id: 2,
            ..Default::default()
        },
    );
    (b.build().samples().to_vec(), weak_payload, strong_payload)
}

/// Serializes everything a report carries (counts, per-packet outcomes,
/// deterministic stage counters) so byte-equality means full equality.
fn report_json(r: &DecodeReport) -> String {
    format!(
        "{{\"detected\":{},\"decoded\":{},\"second_pass_rescues\":{},\
         \"header_failures\":{},\"payload_failures\":{},\"truncated\":{},\
         \"outcomes\":{},\"stages\":\"{:?}\"}}",
        r.detected,
        r.decoded,
        r.second_pass_rescues,
        r.header_failures,
        r.payload_failures,
        r.truncated,
        r.outcomes_json(),
        r.stages,
    )
}

fn decode_streaming(
    p: LoRaParams,
    trace: &[Complex32],
    chunk: usize,
    workers: usize,
) -> (Vec<Vec<u8>>, DecodeReport) {
    let mut rx = StreamingReceiver::with_config(
        p,
        StreamingConfig {
            receiver: sic_on(),
            workers,
            ..StreamingConfig::default()
        },
    );
    let mut payloads = Vec::new();
    for c in trace.chunks(chunk) {
        payloads.extend(rx.push(c).into_iter().map(|d| d.payload));
    }
    payloads.extend(rx.finish().into_iter().map(|d| d.payload));
    (payloads, rx.report())
}

#[test]
fn near_far_reports_byte_identical_across_receivers() {
    let p = params();
    let (trace, weak, strong) = near_far_trace(p, 42, 3.0, 15.0);

    let (serial_decoded, serial_report) = TnbReceiver::with_config(p, sic_on())
        .decode_multi_report_observed(&[&trace], &tnb_core::PipelineMetrics::disabled());
    let reference = report_json(&serial_report);
    let payloads: Vec<Vec<u8>> = serial_decoded.iter().map(|d| d.payload.clone()).collect();
    assert!(payloads.contains(&weak) && payloads.contains(&strong));

    for workers in [1usize, 2, 8] {
        let (decoded, report) = TnbReceiver::with_config(p, sic_on())
            .with_workers(workers)
            .decode_multi_report_observed(&[&trace], &tnb_core::PipelineMetrics::disabled());
        assert_eq!(report_json(&report), reference, "workers={workers}");
        let par: Vec<Vec<u8>> = decoded.iter().map(|d| d.payload.clone()).collect();
        assert_eq!(par, payloads, "workers={workers}");
    }

    // Streaming: an odd chunk size and a power of two. The trace is
    // shorter than the streaming window, so the whole decode happens in
    // `finish` over the identical buffer — chunking must not matter.
    for chunk in [7_777usize, 65_536] {
        let (payloads_s, report_s) = decode_streaming(p, &trace, chunk, 2);
        assert_eq!(report_json(&report_s), reference, "chunk={chunk}");
        assert_eq!(payloads_s, payloads, "chunk={chunk}");
    }
}

#[test]
fn sic_rescues_where_plain_tnb_fails() {
    let p = params();
    // ΔSNR = 15 dB and up: the weak preamble is buried below the
    // detector's threshold under the strong collider.
    for delta in [15.0f32, 18.0] {
        let (trace, weak, strong) = near_far_trace(p, 42, 3.0, delta);

        let (plain_decoded, plain_report) = TnbReceiver::new(p)
            .decode_multi_report_observed(&[&trace], &tnb_core::PipelineMetrics::disabled());
        assert!(
            !plain_decoded.iter().any(|d| d.payload == weak),
            "plain TnB unexpectedly decodes the weak packet at delta={delta}"
        );
        assert!(plain_decoded.iter().any(|d| d.payload == strong));
        assert_eq!(plain_report.second_pass_rescues, 0);

        let (sic_decoded, sic_report) = TnbReceiver::with_config(p, sic_on())
            .decode_multi_report_observed(&[&trace], &tnb_core::PipelineMetrics::disabled());
        let rescued = sic_decoded
            .iter()
            .find(|d| d.payload == weak)
            .unwrap_or_else(|| panic!("SIC failed to rescue the weak packet at delta={delta}"));
        assert_eq!(rescued.pass, 3, "rescue must be recorded as pass 3");
        assert!(sic_report.second_pass_rescues > 0, "delta={delta}");
        assert!(sic_report.stages.sic_rescues > 0);
        assert!(sic_report.stages.sic_subtracted > 0);
        assert_eq!(
            sic_report.detected,
            sic_report.decoded + sic_report.degraded()
        );
    }
}

#[test]
fn sic_off_is_unchanged_and_clean_traces_match() {
    // On a trace where nothing needs rescuing, SIC-on must be
    // bit-identical to SIC-off (failed re-detections are dropped, decoded
    // packets keep their pass-1 labels).
    let p = params();
    let mut b = TraceBuilder::new(p, 9);
    b.add_packet(
        &[0x11u8; 16],
        PacketConfig {
            start_sample: 5_000,
            snr_db: 12.0,
            cfo_hz: 900.0,
            ..Default::default()
        },
    );
    let trace = b.build().samples().to_vec();
    let (d_off, r_off) = TnbReceiver::new(p)
        .decode_multi_report_observed(&[&trace], &tnb_core::PipelineMetrics::disabled());
    let (d_on, r_on) = TnbReceiver::with_config(p, sic_on())
        .decode_multi_report_observed(&[&trace], &tnb_core::PipelineMetrics::disabled());
    assert_eq!(d_off.len(), d_on.len());
    for (a, b) in d_off.iter().zip(&d_on) {
        assert_eq!(a.payload, b.payload);
        assert_eq!(a.pass, b.pass);
        assert_eq!(a.start, b.start);
    }
    assert_eq!(r_off.outcomes_json(), r_on.outcomes_json());
    assert_eq!(r_on.second_pass_rescues, 0);
}
