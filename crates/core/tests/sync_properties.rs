//! Property tests for the fractional synchronization (detection step 4):
//! for random true offsets within the search range, the 3-phase search
//! must recover timing within ±2 samples and CFO within ±1/8 bin.

use proptest::prelude::*;
use tnb_channel::trace::{PacketConfig, TraceBuilder};
use tnb_core::sync::fractional_sync;
use tnb_phy::demodulate::Demodulator;
use tnb_phy::{CodingRate, LoRaParams, SpreadingFactor};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn recovers_fractional_offsets(
        cfo_hz in -4500.0f64..4500.0,
        start_err in -4i64..=4,      // coarse start error in samples
        frac in 0.0f32..0.95,        // sub-sample timing offset
        seed in 0u64..500,
    ) {
        let p = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4);
        let true_start = 8_192usize;
        let mut b = TraceBuilder::new(p, seed);
        b.add_packet(
            &[0x5A; 16],
            PacketConfig {
                start_sample: true_start,
                snr_db: 10.0,
                cfo_hz,
                frac_delay: frac,
                ..Default::default()
            },
        );
        let trace = b.build();
        let demod = Demodulator::new(p);
        let cfo_bins = cfo_hz / p.bin_hz();
        let r = fractional_sync(
            trace.samples(),
            &demod,
            true_start as i64 + start_err,
            cfo_bins.round(),
        );
        let r = r.expect("sync must lock at 10 dB");
        let true_pos = true_start as f64 + frac as f64;
        prop_assert!(
            (r.start - true_pos).abs() <= 2.0,
            "start {} vs true {true_pos}",
            r.start
        );
        prop_assert!(
            (r.cfo_cycles - cfo_bins).abs() <= 0.125,
            "cfo {} vs true {cfo_bins}",
            r.cfo_cycles
        );
    }
}

#[test]
fn sync_rejects_noise() {
    // Pure noise must not produce a Q*-gated lock at most offsets.
    let p = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4);
    let mut b = TraceBuilder::new(p, 99);
    b.set_min_len(80_000);
    let trace = b.build();
    let demod = Demodulator::new(p);
    let mut locks = 0;
    for s in (0..10).map(|k| 1_000 + k * 5_000) {
        if fractional_sync(trace.samples(), &demod, s, 0.0).is_some() {
            locks += 1;
        }
    }
    // The Q* gate (up AND down peaks at bin 0) makes accidental locks
    // rare; allow at most a couple across 10 probes of raw noise.
    assert!(locks <= 2, "{locks} noise locks");
}
