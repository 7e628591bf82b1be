//! Fig. 8: the synchronization objective `Q(δt, δf)` of one packet, and
//! the `Q*`-gated variant, over a grid of fractional timing and CFO
//! offsets. Shows why the 3-phase search works: `Q` ridges repeat at ±1
//! bin in `δf`; `Q*` keeps only the true one.

use tnb_channel::trace::{PacketConfig, TraceBuilder};
use tnb_core::sync::fractional_sync;
use tnb_phy::demodulate::Demodulator;
use tnb_phy::{CodingRate, LoRaParams, SpreadingFactor};

fn main() {
    let p = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4);
    let demod = Demodulator::new(p);
    let start = 5_000usize;
    let cfo_hz = 1700.0; // fractional part ≈ 0.48 bins
    let mut b = TraceBuilder::new(p, 42);
    b.add_packet(
        &[0x5A; 16],
        PacketConfig {
            start_sample: start,
            snr_db: 10.0,
            cfo_hz,
            ..Default::default()
        },
    );
    let trace = b.build();

    let cfo_bins = cfo_hz / p.bin_hz();
    let cfo_int = cfo_bins.round();
    println!(
        "Q(δt, δf) for a packet at sample {start} with CFO {cfo_hz} Hz = {cfo_bins:.3} bins (coarse estimate {cfo_int})\n"
    );
    println!("rows: δt in chips; columns: δf in bins relative to the coarse estimate");
    print!("{:>6}", "δt\\δf");
    let dfs: Vec<f64> = (-8..=8).map(|i| i as f64 / 8.0).collect();
    for df in &dfs {
        print!("{df:>7.2}");
    }
    println!();
    for ti in -4..=4i64 {
        let dt = ti as f64 / 4.0;
        print!("{dt:>6.2}");
        for &df in &dfs {
            // Evaluate Q by running the internal machinery through the
            // public API: a one-point sync at (dt, df) equals shifting
            // start and CFO.
            let q = probe_q(&demod, trace.samples(), start as i64, dt, cfo_int + df);
            print!("{:>7.2}", q);
        }
        println!();
    }

    // And the actual 36-point search result.
    let r = fractional_sync(trace.samples(), &demod, start as i64, cfo_int);
    match r {
        Some(pkt) => println!(
            "\n3-phase search: start {:.1} (true {start}), CFO {:.3} bins (true {cfo_bins:.3})",
            pkt.start, pkt.cfo_cycles
        ),
        None => println!("\n3-phase search failed"),
    }
}

/// Normalized Q at one (δt, δf): coherent preamble peak energy.
fn probe_q(
    demod: &Demodulator,
    samples: &[tnb_dsp::Complex32],
    start: i64,
    dt_chips: f64,
    cfo: f64,
) -> f32 {
    let p = demod.params();
    let l = p.samples_per_symbol() as i64;
    let shift = (dt_chips * p.osf as f64).round() as i64;
    let base = start + shift;
    let mut sum = vec![tnb_dsp::Complex32::ZERO; l as usize];
    for j in 0..8i64 {
        let s = base + j * l;
        if s < 0 || (s + l) as usize > samples.len() {
            return 0.0;
        }
        let spec = demod.complex_spectrum(&samples[s as usize..(s + l) as usize], cfo);
        let rot = tnb_dsp::Complex32::from_phase(-2.0 * std::f64::consts::PI * cfo * j as f64);
        for (a, b) in sum.iter_mut().zip(spec) {
            *a += b * rot;
        }
    }
    let folded = demod.fold(&sum);
    let max = folded.iter().copied().fold(0.0f32, f32::max);
    // Normalize by the ideal coherent energy (8 symbols × L)².
    max / ((8 * l) as f32 * (8 * l) as f32) * 100.0
}
