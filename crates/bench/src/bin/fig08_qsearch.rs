//! Fig. 8: the synchronization objective `Q(δt, δf)` of one packet, and
//! the `Q*`-gated variant, over a grid of fractional timing and CFO
//! offsets. Shows why the 3-phase search works: `Q` ridges repeat at ±1
//! bin in `δf`; `Q*` keeps only the true one. Every cell is the
//! receiver's own [`evaluate_q`]; a `*` marks the cells that pass the
//! `Q*` gate (upchirp and downchirp peaks both at bin 0).

use tnb_channel::trace::{PacketConfig, TraceBuilder};
use tnb_core::sync::{evaluate_q, fractional_sync};
use tnb_dsp::DspScratch;
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
    println!("cells: Q as % of the ideal coherent energy (8·L)²; * = passes the Q* gate\n");
    let dfs: Vec<f64> = (-8..=8).map(|i| i as f64 / 8.0).collect();
    let mut row = format!("{:>6}", "δt\\δf");
    for df in &dfs {
        row.push_str(&format!("{df:>7.2} "));
    }
    println!("{}", row.trim_end());
    // Normalize by the ideal coherent energy (8 symbols × L)².
    let ideal = (8 * p.samples_per_symbol()) as f32;
    let mut scratch = DspScratch::new();
    for ti in -4..=4i64 {
        let dt = ti as f64 / 4.0;
        let mut row = format!("{dt:>6.2}");
        for &df in &dfs {
            let v = evaluate_q(
                trace.samples(),
                &demod,
                start as i64,
                dt,
                cfo_int + df,
                &mut scratch,
            );
            row.push_str(&match v {
                Some(v) => {
                    let mark = if v.peaks_at_zero { '*' } else { ' ' };
                    format!("{:>7.2}{mark}", v.q / (ideal * ideal) * 100.0)
                }
                None => format!("{:>7} ", "-"),
            });
        }
        println!("{}", row.trim_end());
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
