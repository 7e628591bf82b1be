//! Direct tests of Thrive's checkpoint assignment on synthetic collided
//! traces with known ground truth.

use tnb_channel::trace::{PacketConfig, TraceBuilder};
use tnb_core::packet::DetectedPacket;
use tnb_core::sigcalc::SigCalc;
use tnb_core::thrive::{
    assign_checkpoint, shift_bins, Assignment, CheckpointScratch, CheckpointSymbol, HistoryModel,
    ThriveConfig,
};
use tnb_dsp::DspScratch;
use tnb_phy::demodulate::Demodulator;
use tnb_phy::encoder::encode_packet_symbols;
use tnb_phy::{CodingRate, LoRaParams, SpreadingFactor};

fn params() -> LoRaParams {
    LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4)
}

/// One checking point on fresh working storage.
fn assign(
    sig: &mut SigCalc<'_>,
    packets: &[DetectedPacket],
    symbols: &[CheckpointSymbol],
    cfg: &ThriveConfig,
) -> Vec<Assignment> {
    let mut out = Vec::new();
    assign_checkpoint(
        sig,
        packets,
        symbols,
        cfg,
        &mut CheckpointScratch::default(),
        &mut out,
    );
    out
}

/// Builds a two-packet collision and returns (trace, detections, true
/// symbol streams).
fn two_packet_setup(
    seed: u64,
    snr: (f32, f32),
    cfo: (f64, f64),
    offset2: usize,
) -> (
    tnb_channel::trace::Trace,
    [DetectedPacket; 2],
    [Vec<u16>; 2],
) {
    let p = params();
    let pay1 = b"thrive pkt alpha".to_vec();
    let pay2 = b"thrive pkt bravo".to_vec();
    let mut b = TraceBuilder::new(p, seed);
    b.add_packet(
        &pay1,
        PacketConfig {
            start_sample: 4_000,
            snr_db: snr.0,
            cfo_hz: cfo.0,
            ..Default::default()
        },
    );
    b.add_packet(
        &pay2,
        PacketConfig {
            start_sample: 4_000 + offset2,
            snr_db: snr.1,
            cfo_hz: cfo.1,
            ..Default::default()
        },
    );
    let trace = b.build();
    let d1 = DetectedPacket {
        start: 4_000.0,
        cfo_cycles: cfo.0 / p.bin_hz(),
        preamble_peak: 1.0,
    };
    let d2 = DetectedPacket {
        start: (4_000 + offset2) as f64,
        cfo_cycles: cfo.1 / p.bin_hz(),
        preamble_peak: 1.0,
    };
    let s1 = encode_packet_symbols(&pay1, &p);
    let s2 = encode_packet_symbols(&pay2, &p);
    (trace, [d1, d2], [s1, s2])
}

#[test]
fn sibling_location_relation_holds() {
    // The paper's §5.3.2 relation: a signal observed at bin a in packet
    // i's vector appears at a + shift(i→k) in packet k's — verify against
    // actual signal vectors.
    let p = params();
    let l = p.samples_per_symbol();
    let (trace, dets, truth) = two_packet_setup(3, (10.0, 10.0), (1500.0, -2000.0), 15 * l + 640);
    let demod = Demodulator::new(p);
    let ants: Vec<&[tnb_dsp::Complex32]> = vec![trace.samples()];
    let mut scratch = DspScratch::new();
    let mut sig = SigCalc::new(&demod, &ants, &mut scratch, None);

    // Packet 2's data symbol 0 overlaps packet 1's data symbols 15/16.
    let v2 = sig.symbol_vector(1, &dets[1], 0).unwrap().to_vec();
    let own_bin = truth[1][0] as i64;
    assert!(
        v2[own_bin as usize] > tnb_dsp::stats::median(&v2) * 20.0,
        "own peak visible"
    );
    let shift = shift_bins(&dets[1], &dets[0], &p);
    let n = p.n() as i64;
    let sib = (own_bin + shift.round() as i64).rem_euclid(n) as usize;
    // The sibling must be visible in one of packet 1's overlapping
    // symbols.
    let mut best = 0.0f32;
    for j in [15isize, 16] {
        if let Some(v1) = sig.symbol_vector(0, &dets[0], j) {
            best = best.max(v1[sib]);
        }
    }
    let med = tnb_dsp::stats::median(sig.symbol_vector(0, &dets[0], 15).unwrap());
    assert!(best > med * 10.0, "sibling {best} vs median {med}");
    // And the sibling is LOWER than the owner's peak (mismatched
    // boundary/CFO) — Thrive's core observation.
    assert!(
        best < v2[own_bin as usize],
        "sibling must be weaker than owner peak"
    );
}

#[test]
fn checkpoint_assigns_true_symbols_in_collision() {
    let p = params();
    let l = p.samples_per_symbol();
    let (trace, dets, truth) = two_packet_setup(4, (12.0, 9.0), (1000.0, -2600.0), 15 * l + 640);
    let demod = Demodulator::new(p);
    let ants: Vec<&[tnb_dsp::Complex32]> = vec![trace.samples()];
    let mut scratch = DspScratch::new();
    let mut sig = SigCalc::new(&demod, &ants, &mut scratch, None);
    let cfg = ThriveConfig::default();

    // Checkpoint where packet 1 is at symbol 20 and packet 2 at symbol 4.
    let symbols = vec![
        CheckpointSymbol {
            packet: 0,
            symbol: 20,
            masked_bins: vec![],
            bounds: (f32::MAX, 0.0),
        },
        CheckpointSymbol {
            packet: 1,
            symbol: 4,
            masked_bins: vec![],
            bounds: (f32::MAX, 0.0),
        },
    ];
    let assignments = assign(&mut sig, &dets, &symbols, &cfg);
    assert_eq!(assignments.len(), 2);
    for a in &assignments {
        let (pkt, sym) = match a.slot {
            0 => (0usize, 20usize),
            _ => (1, 4),
        };
        assert_eq!(
            a.bin, truth[pkt][sym],
            "packet {pkt} symbol {sym}: assigned {} truth {}",
            a.bin, truth[pkt][sym]
        );
    }
}

#[test]
fn masking_excludes_known_peaks() {
    let p = params();
    let l = p.samples_per_symbol();
    let (trace, dets, truth) = two_packet_setup(5, (14.0, 8.0), (900.0, -1400.0), 15 * l + 640);
    let demod = Demodulator::new(p);
    let ants: Vec<&[tnb_dsp::Complex32]> = vec![trace.samples()];
    let mut scratch = DspScratch::new();
    let mut sig = SigCalc::new(&demod, &ants, &mut scratch, None);
    let cfg = ThriveConfig::default();

    // Assign packet 2's symbol 4 alone, masking packet 1's (stronger)
    // known symbols at their expected locations. The window overlaps two
    // of packet 1's symbols (19 and 20), so both must be masked. Without
    // the masks the stronger interferer could win; with them, the true
    // peak must.
    let shift = shift_bins(&dets[0], &dets[1], &p);
    let n = p.n() as i64;
    let masked: Vec<i64> = [19usize, 20]
        .iter()
        .map(|&j| (truth[0][j] as i64 + shift.round() as i64).rem_euclid(n))
        .collect();
    let symbols = vec![CheckpointSymbol {
        packet: 1,
        symbol: 4,
        masked_bins: masked,
        bounds: (f32::MAX, 0.0),
    }];
    let assignments = assign(&mut sig, &dets, &symbols, &cfg);
    assert_eq!(assignments.len(), 1);
    assert_eq!(assignments[0].bin, truth[1][4]);
}

#[test]
fn history_model_progression() {
    // The model must follow a slow ramp and keep its band around it.
    let mut h = HistoryModel::new(vec![10.0, 10.5, 11.0, 10.8, 11.3, 11.6, 12.0, 12.2]);
    let cfg = ThriveConfig::default();
    for k in 0..10 {
        let v = 12.5 + k as f32 * 0.4;
        let (up, lo) = h.bounds(&cfg);
        assert!(
            v < up * 1.6 && v > lo * 0.4,
            "step {k}: {v} outside [{lo}, {up}]"
        );
        h.push(v);
    }
    // After the ramp, the band sits near the last values.
    let (up, lo) = h.bounds(&cfg);
    assert!(lo > 8.0, "lower bound {lo}");
    assert!(up < 25.0, "upper bound {up}");
}

#[test]
fn empty_checkpoint_is_empty() {
    let p = params();
    let demod = Demodulator::new(p);
    let samples = vec![tnb_dsp::Complex32::ZERO; 10 * p.samples_per_symbol()];
    let ants: Vec<&[tnb_dsp::Complex32]> = vec![&samples];
    let mut scratch = DspScratch::new();
    let mut sig = SigCalc::new(&demod, &ants, &mut scratch, None);
    let out = assign(&mut sig, &[], &[], &ThriveConfig::default());
    assert!(out.is_empty());
}
