//! Deterministic fault-injection matrix: every fault from
//! [`FaultPlan::matrix`] is run through the serial, parallel and
//! streaming receivers. The pipeline must never panic, every detected
//! packet must be accounted for (decoded or degraded-with-reason), and
//! the clean plan must leave decode output byte-identical to decoding
//! the untouched trace.

use tnb_channel::trace::{PacketConfig, TraceBuilder};
use tnb_channel::FaultPlan;
use tnb_core::streaming::{StreamingConfig, StreamingReceiver};
use tnb_core::{DecodeReport, SicConfig, TnbConfig, TnbReceiver};
use tnb_dsp::Complex32;
use tnb_phy::{CodingRate, LoRaParams, SpreadingFactor};

const SEED: u64 = 7;

/// One receiver flavour under test: payloads plus the full report.
type DecodeFn = fn(&[Complex32]) -> (Vec<Vec<u8>>, DecodeReport);

fn params() -> LoRaParams {
    LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4)
}

/// Three-packet SF8 collision: the middle packet overlaps both
/// neighbours, so every receiver exercises the multi-packet path.
fn collision_trace() -> Vec<Complex32> {
    let p = params();
    let l = p.samples_per_symbol();
    let mut b = TraceBuilder::new(p, SEED);
    let cfg = [
        (vec![0xA1u8; 16], 4_000usize, 12.0f32, 1_500.0f64),
        (vec![0x5B; 16], 4_000 + 14 * l + 300, 10.0, -2_200.0),
        (vec![0x3C; 16], 4_000 + 28 * l + 900, 9.0, 800.0),
    ];
    for (payload, start_sample, snr_db, cfo_hz) in cfg {
        b.add_packet(
            &payload,
            PacketConfig {
                start_sample,
                snr_db,
                cfo_hz,
                ..Default::default()
            },
        );
    }
    b.build().samples().to_vec()
}

fn sic_cfg() -> TnbConfig {
    TnbConfig {
        sic: SicConfig {
            enabled: true,
            ..SicConfig::default()
        },
        ..TnbConfig::default()
    }
}

fn serial_decode(samples: &[Complex32]) -> (Vec<Vec<u8>>, DecodeReport) {
    let (d, r) = TnbReceiver::new(params()).decode_with_report(samples);
    (d.into_iter().map(|p| p.payload).collect(), r)
}

fn serial_decode_sic(samples: &[Complex32]) -> (Vec<Vec<u8>>, DecodeReport) {
    let (d, r) = TnbReceiver::with_config(params(), sic_cfg()).decode_with_report(samples);
    (d.into_iter().map(|p| p.payload).collect(), r)
}

fn parallel_decode_sic(samples: &[Complex32]) -> (Vec<Vec<u8>>, DecodeReport) {
    let (d, r) = TnbReceiver::with_config(params(), sic_cfg())
        .with_workers(3)
        .decode_with_report(samples);
    (d.into_iter().map(|p| p.payload).collect(), r)
}

fn streaming_decode_sic(samples: &[Complex32]) -> (Vec<Vec<u8>>, DecodeReport) {
    let cfg = StreamingConfig {
        receiver: sic_cfg(),
        workers: 2,
        ..Default::default()
    };
    let mut rx = StreamingReceiver::with_config(params(), cfg);
    let mut out = Vec::new();
    for chunk in samples.chunks(50_000) {
        out.extend(rx.push(chunk).into_iter().map(|p| p.payload));
    }
    out.extend(rx.finish().into_iter().map(|p| p.payload));
    (out, rx.report())
}

fn parallel_decode(samples: &[Complex32]) -> (Vec<Vec<u8>>, DecodeReport) {
    let (d, r) = TnbReceiver::new(params())
        .with_workers(3)
        .decode_with_report(samples);
    (d.into_iter().map(|p| p.payload).collect(), r)
}

fn streaming_decode(samples: &[Complex32]) -> (Vec<Vec<u8>>, DecodeReport) {
    let cfg = StreamingConfig {
        workers: 2,
        ..Default::default()
    };
    let mut rx = StreamingReceiver::with_config(params(), cfg);
    let mut out = Vec::new();
    for chunk in samples.chunks(50_000) {
        out.extend(rx.push(chunk).into_iter().map(|p| p.payload));
    }
    out.extend(rx.finish().into_iter().map(|p| p.payload));
    (out, rx.report())
}

/// Every detected packet ends up either decoded or degraded with a
/// reason; the outcome list covers the whole batch.
fn assert_accounted(kind: &str, fault: &str, decoded: usize, report: &DecodeReport) {
    assert_eq!(
        report.outcomes.len(),
        report.detected,
        "{kind}/{fault}: outcome per detected packet"
    );
    assert_eq!(
        report.decoded, decoded,
        "{kind}/{fault}: report.decoded matches packet list"
    );
    assert_eq!(
        report.detected,
        report.decoded + report.degraded(),
        "{kind}/{fault}: detected = decoded + degraded"
    );
}

#[test]
fn clean_plan_is_byte_identical_to_direct_decode() {
    let base = collision_trace();
    let plan = FaultPlan::new(SEED);
    assert!(plan.is_clean());
    let cleaned = plan.apply(&base);
    assert_eq!(base, cleaned, "a clean plan must not touch the samples");

    let (direct, direct_report) = serial_decode(&base);
    let (via_plan, plan_report) = serial_decode(&cleaned);
    assert_eq!(direct, via_plan, "clean-path payloads byte-identical");
    assert_eq!(direct_report, plan_report);
    assert_eq!(direct.len(), 3, "clean collision fully decodes");
}

#[test]
fn matrix_is_deterministic_per_seed() {
    // Bit-pattern comparison: float == would reject NaN == NaN even when
    // the injected bytes are identical.
    fn bits(v: &[Complex32]) -> Vec<(u32, u32)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }
    let base = collision_trace();
    for (name, plan) in FaultPlan::matrix(SEED) {
        let a = plan.apply(&base);
        let b = plan.apply(&base);
        assert_eq!(bits(&a), bits(&b), "{name}: same plan, same bytes");
    }
}

#[test]
fn no_receiver_panics_on_any_fault_serial() {
    run_matrix("serial", serial_decode);
}

#[test]
fn no_receiver_panics_on_any_fault_parallel() {
    run_matrix("parallel", parallel_decode);
}

#[test]
fn no_receiver_panics_on_any_fault_streaming() {
    run_matrix("streaming", streaming_decode);
}

#[test]
fn no_receiver_panics_on_any_fault_serial_sic() {
    run_matrix("serial+sic", serial_decode_sic);
}

#[test]
fn no_receiver_panics_on_any_fault_parallel_sic() {
    run_matrix("parallel+sic", parallel_decode_sic);
}

#[test]
fn no_receiver_panics_on_any_fault_streaming_sic() {
    run_matrix("streaming+sic", streaming_decode_sic);
}

/// With SIC enabled but no rescue firing, every matrix row must decode
/// bit-identically to SIC-off: failed re-detections are dropped and
/// decoded packets keep their original pass labels, so the rescue pass is
/// invisible unless it actually rescues something.
#[test]
fn sic_rows_match_sic_off_when_no_rescue_fires() {
    let base = collision_trace();
    for (name, plan) in FaultPlan::matrix(SEED) {
        let faulty = plan.apply(&base);
        let (off_payloads, off_report) = serial_decode(&faulty);
        let (on_payloads, on_report) = serial_decode_sic(&faulty);
        if on_report.stages.sic_rescues == 0 {
            assert_eq!(on_payloads, off_payloads, "{name}: payloads");
            assert_eq!(
                on_report.outcomes_json(),
                off_report.outcomes_json(),
                "{name}: outcomes"
            );
            assert_eq!(
                on_report.second_pass_rescues, off_report.second_pass_rescues,
                "{name}: rescue tally"
            );
        } else {
            // A rescue may only ever add packets, never lose one.
            assert!(on_payloads.len() >= off_payloads.len(), "{name}");
        }
    }
}

fn run_matrix(kind: &str, decode: DecodeFn) {
    let base = collision_trace();
    let (clean_payloads, _) = decode(&base);
    assert_eq!(clean_payloads.len(), 3, "{kind}: clean baseline decodes");
    for (name, plan) in FaultPlan::matrix(SEED) {
        let faulty = plan.apply(&base);
        let (payloads, report) = decode(&faulty);
        assert_accounted(kind, name, payloads.len(), &report);
        if plan.is_clean() {
            assert_eq!(
                payloads, clean_payloads,
                "{kind}: clean matrix row is byte-identical"
            );
        }
        // Anything that did not decode must carry a degradation reason.
        for outcome in &report.outcomes {
            match outcome {
                tnb_core::DecodeOutcome::Decoded { .. } => {}
                tnb_core::DecodeOutcome::Degraded { reason, .. } => {
                    assert!(!reason.name().is_empty(), "{kind}/{name}: named reason");
                }
            }
        }
    }
}

#[test]
fn receivers_agree_on_degradation_counts() {
    let base = collision_trace();
    for (name, plan) in FaultPlan::matrix(SEED) {
        let faulty = plan.apply(&base);
        let (sp, sr) = serial_decode(&faulty);
        let (pp, pr) = parallel_decode(&faulty);
        assert_eq!(sp, pp, "{name}: serial and parallel payloads agree");
        assert_eq!(sr.stages, pr.stages, "{name}: deterministic counters agree");
        assert_eq!(
            sr.degraded(),
            pr.degraded(),
            "{name}: degraded counts agree"
        );
    }
}

#[test]
fn hostile_inputs_that_break_framing_degrade_with_reasons() {
    let base = collision_trace();
    let matrix = FaultPlan::matrix(SEED);
    let truncate = matrix
        .iter()
        .find(|(n, _)| *n == "truncate")
        .map(|(_, p)| p.apply(&base))
        .unwrap_or_default();
    let (_, report) = serial_decode(&truncate);
    assert!(
        report.degraded() > 0,
        "hard truncation must degrade at least one packet"
    );
    assert!(
        report
            .degraded_with(tnb_core::DegradeReason::Truncated)
            .max(report.degraded_with(tnb_core::DegradeReason::Header))
            > 0,
        "truncation shows up as truncated or header degradation"
    );
}
