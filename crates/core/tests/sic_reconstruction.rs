//! Golden-vector tests for the SIC replica: the reconstruction must
//! match the `tnb-phy` transmit chain sample-for-sample across coding
//! rates, CFOs and fractional timing offsets, and subtracting a packet
//! from its own clean trace must leave the residual below a fixed floor.

use tnb_channel::impairments::{apply_cfo, fractional_delay};
use tnb_core::detect::Detector;
use tnb_core::sic;
use tnb_core::{PipelineMetrics, StageCounters};
use tnb_dsp::{Complex32, DspScratch};
use tnb_phy::demodulate::Demodulator;
use tnb_phy::encoder::encode_packet_symbols;
use tnb_phy::{CodingRate, LoRaParams, SpreadingFactor, Transmitter};

const PAYLOAD: [u8; 12] = *b"golden bytes";

fn params(cr: CodingRate) -> LoRaParams {
    LoRaParams::new(SpreadingFactor::SF8, cr)
}

/// The transmit chain the channel applies: modulate, fractionally delay
/// (only when non-zero, mirroring the channel), then rotate by the CFO.
fn golden_packet(p: LoRaParams, cfo_hz: f64, frac: f32) -> Vec<Complex32> {
    let mut samples = Transmitter::new(p).transmit(&PAYLOAD);
    if frac > 0.0 {
        samples = fractional_delay(&samples, frac);
    }
    if cfo_hz != 0.0 {
        // Multiplying by phase 0 normalizes -0.0 samples to +0.0, which
        // would spoil the bitwise no-impairment comparison below.
        apply_cfo(&mut samples, cfo_hz, p.sample_rate());
    }
    samples
}

#[test]
fn replica_matches_modulator_across_cr_cfo_and_timing() {
    for cr in CodingRate::ALL {
        let p = params(cr);
        let demod = Demodulator::new(p);
        let symbols = encode_packet_symbols(&PAYLOAD, &p);
        let mut replica = Vec::new();
        for cfo_hz in [0.0f64, 1_234.5, -2_400.0, 4_880.0] {
            for frac in [0.0f32, 0.25, 0.73, 0.999] {
                let golden = golden_packet(p, cfo_hz, frac);
                let cfo_cycles = cfo_hz / p.bin_hz();
                sic::build_replica(&demod, &symbols, cfo_cycles, f64::from(frac), &mut replica);
                assert_eq!(
                    replica.len(),
                    golden.len(),
                    "cr={} cfo={cfo_hz} frac={frac}",
                    cr.value()
                );
                if cfo_hz == 0.0 && frac == 0.0 {
                    // No impairment: the replica must be bit-identical to
                    // the modulator output.
                    assert!(
                        replica.iter().zip(&golden).all(|(a, b)| {
                            a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
                        }),
                        "cr={} bitwise mismatch",
                        cr.value()
                    );
                } else {
                    // CFO is parameterized as cycles/symbol instead of
                    // Hz; the two phase steps agree to f64 rounding,
                    // which stays far below f32 sample resolution.
                    let worst = replica
                        .iter()
                        .zip(&golden)
                        .map(|(a, b)| (*a - *b).abs())
                        .fold(0.0f32, f32::max);
                    assert!(
                        worst < 1e-4,
                        "cr={} cfo={cfo_hz} frac={frac}: worst sample error {worst}",
                        cr.value()
                    );
                }
            }
        }
    }
}

/// Embeds a packet at `offset` in a zero trace of length `n`.
fn embed(packet: &[Complex32], offset: usize, n: usize) -> Vec<Complex32> {
    let mut trace = vec![Complex32::ZERO; n];
    for (i, &s) in packet.iter().enumerate() {
        trace[offset + i] = s * 0.6; // arbitrary amplitude the gains must absorb
    }
    trace
}

fn power(x: &[Complex32]) -> f64 {
    x.iter().map(|z| f64::from(z.norm_sqr())).sum::<f64>() / x.len().max(1) as f64
}

#[test]
fn self_subtraction_with_ground_truth_is_below_floor() {
    for cr in [CodingRate::CR1, CodingRate::CR4] {
        let p = params(cr);
        let demod = Demodulator::new(p);
        let l = p.samples_per_symbol();
        let (cfo_hz, frac) = (1_700.0f64, 0.37f32);
        let packet = golden_packet(p, cfo_hz, frac);
        let offset = 3 * l + 100;
        let trace = embed(&packet, offset, packet.len() + 8 * l);
        let before = power(&trace);

        let symbols = encode_packet_symbols(&PAYLOAD, &p);
        let mut replica = Vec::new();
        sic::build_replica(
            &demod,
            &symbols,
            cfo_hz / p.bin_hz(),
            f64::from(frac),
            &mut replica,
        );
        let mut gains = Vec::new();
        sic::estimate_block_gains(&trace, &replica, offset as i64, l, &mut gains);
        let mut residual = trace;
        sic::subtract_replica(&mut residual, &replica, offset as i64, l, &gains);

        let after = power(&residual);
        assert!(
            after / before < 1e-6,
            "cr={}: residual power ratio {}",
            cr.value(),
            after / before
        );
    }
}

#[test]
fn self_subtraction_with_detector_estimates_is_below_floor() {
    // Same scene, but start and CFO come from the detector (quantized
    // estimates) instead of ground truth; the per-block gains must absorb
    // the leftover drift down to a fixed floor.
    let p = params(CodingRate::CR4);
    let demod = Demodulator::new(p);
    let l = p.samples_per_symbol();
    let (cfo_hz, frac) = (2_400.0f64, 0.73f32);
    let packet = golden_packet(p, cfo_hz, frac);
    let offset = 3 * l + 777;
    let trace = embed(&packet, offset, packet.len() + 8 * l);
    let before = power(&trace);

    let mut scratch = DspScratch::new();
    let detected = Detector::new(p).detect(
        &[&trace],
        1,
        &mut scratch,
        &PipelineMetrics::disabled(),
        &mut StageCounters::default(),
    );
    assert_eq!(detected.len(), 1, "clean packet must be detected");
    let det = detected[0];

    let symbols = encode_packet_symbols(&PAYLOAD, &p);
    let mut replica = Vec::new();
    let start_floor = det.start.floor();
    sic::build_replica(
        &demod,
        &symbols,
        det.cfo_cycles,
        det.start - start_floor,
        &mut replica,
    );
    let mut gains = Vec::new();
    sic::estimate_block_gains(&trace, &replica, start_floor as i64, l, &mut gains);
    let mut residual = trace;
    sic::subtract_replica(&mut residual, &replica, start_floor as i64, l, &gains);

    let after = power(&residual);
    assert!(
        after / before < 0.02,
        "residual power ratio {} (detector est: start {} vs {}, cfo {} vs {})",
        after / before,
        det.start,
        offset,
        det.cfo_cycles * p.bin_hz(),
        cfo_hz
    );
}
