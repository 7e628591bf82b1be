//! Fractional timing and CFO estimation — detection step 4 (paper §7).
//!
//! A three-phase search evaluates `Q(δt, δf)`, the phase-coherent peak
//! energy of the preamble: the complex signal vectors of the 8 upchirps
//! are summed and the energy taken at the peak of the summed vector. Any
//! residual fractional CFO rotates consecutive symbols against each other
//! and collapses the sum, which is what makes `Q` sharp in `δf`.
//!
//! - **Phase 1**: 17 points along `δt = 0`, `δf ∈ [−1, 0]` in steps of
//!   1/16 bin → `δf*` (possibly off by exactly 1 because `Q` only looks
//!   at peak energy, which is invariant to integer-bin shifts).
//! - **Phase 2**: 10 points, `δt ∈ {−1, −½, 0, ½, 1}` chips ×
//!   `δf ∈ {δf*, δf*+1}`, scored by `Q*` — `Q` gated on both the upchirp
//!   and downchirp peaks landing at bin 0, which disambiguates the ±1.
//! - **Phase 3**: `U + 1` points refining `δt` in steps of `1/U` chip
//!   (= 1 receiver sample) around the phase-2 winner.
//!
//! Total: 36 grid points for `U = 8`, matching the paper. Two of them
//! repeat an earlier point, and the search reuses that point's `Q`:
//! `(0, δf*)` in phase 2, and `(δt₂, δf₂)` in phase 3 when a computed
//! `δt` has `δt₂`'s exact bits (`i = U/2`, so never for an odd `U`).
//!
//! Each evaluation runs two FFTs, one per chirp direction, so an attempt
//! costs at most 68 for `U = 8` (34 evaluations). The de-chirp `d` and
//! the CFO rotator `r` are the same for every window `wⱼ` of one
//! evaluation and the FFT is linear, so the coherent sum of spectra with
//! per-window carry phases `cⱼ` is one FFT of a time-domain sum:
//! `Σⱼ cⱼ·FFT(wⱼ⊙d⊙r) = FFT(d⊙r⊙Σⱼ cⱼ·wⱼ)`.

use crate::packet::DetectedPacket;
use tnb_dsp::{Complex32, DspScratch};
use tnb_metrics::{PipelineMetrics, Stage, StageCounters};
use tnb_phy::demodulate::Demodulator;
use tnb_phy::params::LoRaParams;

/// Phase-1 grid points along the CFO axis (paper: 17 → 1/16-bin steps).
const CFO_GRID: usize = 17;

/// Evaluation of `Q`/`Q*` at one `(δt, δf)` point.
#[derive(Debug, Clone, Copy)]
pub struct QValue {
    /// Peak energy of the coherently summed upchirps.
    pub q: f32,
    /// True if the upchirp peak *and* the downchirp peak are at bin 0
    /// (the `Q*` gate).
    pub peaks_at_zero: bool,
}

/// Runs the fractional search and returns the synchronized packet, or
/// `None` if the preamble does not produce consistent peaks.
///
/// `start` is the coarse start estimate in samples, `cfo_int` the coarse
/// CFO in (integer) bins.
pub fn fractional_sync(
    samples: &[Complex32],
    demod: &Demodulator,
    start: i64,
    cfo_int: f64,
) -> Option<DetectedPacket> {
    let mut scratch = DspScratch::new();
    fractional_sync_scratch(samples, demod, start, cfo_int, &mut scratch)
}

/// [`fractional_sync_scratch`] with observability: counts the attempt,
/// its FFTs and its acceptance in `counters` and times the whole 36-point
/// search under [`Stage::Sync`].
pub fn fractional_sync_observed(
    samples: &[Complex32],
    demod: &Demodulator,
    start: i64,
    cfo_int: f64,
    scratch: &mut DspScratch,
    metrics: &PipelineMetrics,
    counters: &mut StageCounters,
) -> Option<DetectedPacket> {
    counters.sync_attempts += 1;
    let t0 = metrics.now();
    let out = search(
        samples,
        demod,
        start,
        cfo_int,
        scratch,
        &mut counters.sync_ffts,
    );
    metrics.record_span(Stage::Sync, t0);
    if out.is_some() {
        counters.sync_accepted += 1;
    }
    out
}

/// [`fractional_sync`] with a caller-owned [`DspScratch`], so the 36-point
/// search performs no per-evaluation allocations. Results are bit-identical
/// to the allocating path.
// tnb-lint: no_alloc_root -- the 36-point (δt, δf) search runs per detected packet; every buffer lives in the scratch
pub fn fractional_sync_scratch(
    samples: &[Complex32],
    demod: &Demodulator,
    start: i64,
    cfo_int: f64,
    scratch: &mut DspScratch,
) -> Option<DetectedPacket> {
    search(samples, demod, start, cfo_int, scratch, &mut 0)
}

/// The 36-point search, adding the FFTs it runs to `ffts`.
fn search(
    samples: &[Complex32],
    demod: &Demodulator,
    start: i64,
    cfo_int: f64,
    scratch: &mut DspScratch,
    ffts: &mut u64,
) -> Option<DetectedPacket> {
    let params = *demod.params();
    let u = params.osf as i64;

    let mut eval = |dt_chips: f64, df: f64| -> Option<QValue> {
        let v = evaluate_q(samples, demod, start, dt_chips, cfo_int + df, scratch)?;
        // An evaluation that reads its windows runs exactly two FFTs.
        *ffts += 2;
        Some(v)
    };

    // Phase 1: δt = 0, δf from −1 to 0.
    let steps = CFO_GRID - 1;
    let mut p1: Option<(QValue, f64)> = None;
    for i in 0..=steps {
        let df = -1.0 + i as f64 / steps as f64;
        if let Some(v) = eval(0.0, df) {
            if v.q > p1.map_or(f32::NEG_INFINITY, |(b, _)| b.q) {
                p1 = Some((v, df));
            }
        }
    }
    let (best, best_df) = p1.filter(|(b, _)| b.q > 0.0)?;

    // Phase 2: δt ∈ {−1, −½, 0, ½, 1} chips × δf ∈ {δf*, δf*+1}, by Q*.
    // Phase 1 already evaluated `(0, δf*)`.
    let mut p2: Option<(f32, f64, f64)> = None;
    for &df in &[best_df, best_df + 1.0] {
        for i in -2i64..=2 {
            let dt = i as f64 / 2.0;
            let known = (i == 0 && df == best_df).then_some(best);
            if let Some(v) = known.or_else(|| eval(dt, df)) {
                if v.peaks_at_zero && p2.map(|(q, _, _)| v.q > q).unwrap_or(true) {
                    p2 = Some((v.q, dt, df));
                }
            }
        }
    }
    // No `Q*` anywhere means no consistent peak: reject the preamble.
    let (q2, dt2, df2) = p2?;

    // Phase 3: refine δt at 1/U-chip (1-sample) resolution. Phase 2
    // already evaluated `(δt₂, δf₂)`, which this grid meets only when a
    // computed δt has δt₂'s exact bits (at `i = U/2` for an even `U`).
    let mut p3: Option<(f32, f64)> = None;
    for i in 0..=params.osf {
        let dt = dt2 - 0.5 + i as f64 / u as f64;
        let known = (dt.to_bits() == dt2.to_bits()).then_some(QValue {
            q: q2,
            peaks_at_zero: true,
        });
        if let Some(v) = known.or_else(|| eval(dt, df2)) {
            if v.peaks_at_zero && p3.map(|(q, _)| v.q > q).unwrap_or(true) {
                p3 = Some((v.q, dt));
            }
        }
    }
    let (q3, dt3) = p3.unwrap_or((best.q, dt2));

    let final_start = start as f64 + dt3 * u as f64;
    if final_start < 0.0 {
        return None;
    }
    // Per-symbol preamble peak height for Thrive's history bootstrap: the
    // coherent sum over 8 symbols scales as 8², so one symbol's peak is
    // Q/64.
    let preamble_peak = q3 / (LoRaParams::PREAMBLE_UPCHIRPS * LoRaParams::PREAMBLE_UPCHIRPS) as f32;
    Some(DetectedPacket {
        start: final_start,
        cfo_cycles: cfo_int + df2,
        preamble_peak,
    })
}

/// Computes `Q` and the peaks-at-zero predicate for one candidate
/// `(δt, δf)`: the coherent sums of the 8 upchirp windows and of the 2
/// full downchirp windows, shifted by `dt_chips` chips and CFO-corrected
/// by `cfo` bins. `None` when a window runs off the trace; otherwise the
/// evaluation runs one FFT per chirp direction.
///
/// The sums are taken in the time domain (`scratch.cacc_a`/`cacc_b`),
/// then de-chirped, rotated and FFT'd once each — the module doc's
/// linearity identity.
pub fn evaluate_q(
    samples: &[Complex32],
    demod: &Demodulator,
    start: i64,
    dt_chips: f64,
    cfo: f64,
    scratch: &mut DspScratch,
) -> Option<QValue> {
    let params = demod.params();
    let l = params.samples_per_symbol() as i64;
    let base = start + (dt_chips * params.osf as f64).round() as i64;

    let ups = 0..LoRaParams::PREAMBLE_UPCHIRPS as i64;
    carried_sum(samples, base, l, cfo, ups, &mut scratch.cacc_a)?;
    // The two full downchirp windows start 10 and 11 symbols in.
    carried_sum(samples, base, l, cfo, 10..12, &mut scratch.cacc_b)?;

    // The demodulator reads the sum while it writes the scratch, so the
    // accumulator is moved out for the call and put back after.
    let acc = std::mem::take(&mut scratch.cacc_a);
    demod.signal_vector_scratch(&acc, cfo, scratch);
    scratch.cacc_a = acc;
    let (up_bin, q) = peak(&scratch.fbuf)?;
    let up_pos = centred_peak_position(&scratch.fbuf, up_bin);

    let acc = std::mem::take(&mut scratch.cacc_b);
    demod.signal_vector_down_scratch(&acc, cfo, scratch);
    scratch.cacc_b = acc;
    let (down_bin, _) = peak(&scratch.fbuf)?;
    let down_pos = centred_peak_position(&scratch.fbuf, down_bin);

    // "At location 1" (paper, 1-indexed) = within half a bin of bin 0
    // here; 0.6 leaves margin for interpolation error while still
    // rejecting the ±1-bin CFO/timing ambiguities.
    let peaks_at_zero = up_pos.abs() <= 0.6 && down_pos.abs() <= 0.6;
    Some(QValue { q, peaks_at_zero })
}

/// Sums the symbol windows `js` (in symbols from `base`) into `acc`, each
/// de-rotated by its carry phase. The de-chirp's CFO correction uses a
/// local time index, so window `j` must additionally be de-rotated by the
/// correction phase accumulated since the packet start (2π·cfo per
/// symbol) — otherwise the sum's coherence would depend on the *true*
/// fractional CFO instead of the corrected residual, and `Q` would not
/// discriminate `δf` at all. `None` when a window runs off the trace.
fn carried_sum(
    samples: &[Complex32],
    base: i64,
    l: i64,
    cfo: f64,
    js: std::ops::Range<i64>,
    acc: &mut Vec<Complex32>,
) -> Option<()> {
    acc.clear();
    acc.resize(l as usize, Complex32::ZERO);
    for j in js {
        let s = usize::try_from(base + j * l).ok()?;
        let w = samples.get(s..s + l as usize)?;
        let rot = carry(cfo, j);
        for (a, &x) in acc.iter_mut().zip(w) {
            *a += x * rot;
        }
    }
    Some(())
}

/// Carry phase of preamble symbol `j` under a CFO of `cfo` bins.
fn carry(cfo: f64, j: i64) -> Complex32 {
    Complex32::from_phase(-2.0 * std::f64::consts::PI * cfo * j as f64)
}

/// Index and value of the largest entry (`None` on an empty slice).
fn peak(y: &[f32]) -> Option<(usize, f32)> {
    let (i, &v) = y.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1))?;
    Some((i, v))
}

/// Sub-bin peak position of a circular spectrum peak, centred so bin
/// `n−1` reads as `−1`.
fn centred_peak_position(folded: &[f32], bin: usize) -> f32 {
    let n = folded.len() as i64;
    let (delta, _) = tnb_dsp::peakfinder::refine_peak(folded, bin);
    crate::detect::center(bin as i64, n) as f32 + delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnb_channel::trace::{PacketConfig, TraceBuilder};
    use tnb_phy::{CodingRate, SpreadingFactor};

    /// `(Q, up bin, down bin, peaks_at_zero)` the way the search computed
    /// them before the time-domain sum: every window de-chirped, rotated
    /// and FFT'd on its own, the carried spectra summed.
    fn reference_q(
        samples: &[Complex32],
        demod: &Demodulator,
        start: i64,
        dt_chips: f64,
        cfo: f64,
    ) -> Option<(f32, usize, usize, bool)> {
        let p = demod.params();
        let l = p.samples_per_symbol() as i64;
        let base = start + (dt_chips * p.osf as f64).round() as i64;
        let spectra_sum = |js: std::ops::Range<i64>, down: bool| -> Option<Vec<f32>> {
            let mut sum = vec![Complex32::ZERO; l as usize];
            for j in js {
                let s = usize::try_from(base + j * l).ok()?;
                let w = samples.get(s..s + l as usize)?;
                let spec = if down {
                    demod.complex_spectrum_down(w, cfo)
                } else {
                    demod.complex_spectrum(w, cfo)
                };
                let rot = carry(cfo, j);
                for (a, b) in sum.iter_mut().zip(spec) {
                    *a += b * rot;
                }
            }
            Some(demod.fold(&sum))
        };
        let up = spectra_sum(0..8, false)?;
        let down = spectra_sum(10..12, true)?;
        let (up_bin, q) = peak(&up)?;
        let (down_bin, _) = peak(&down)?;
        let at_zero = centred_peak_position(&up, up_bin).abs() <= 0.6
            && centred_peak_position(&down, down_bin).abs() <= 0.6;
        Some((q, up_bin, down_bin, at_zero))
    }

    #[test]
    fn time_domain_sum_matches_the_per_window_spectra_on_the_search_grid() {
        let p = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4);
        let demod = Demodulator::new(p);
        let (start, cfo_hz) = (6_000usize, 1_300.0);
        let mut b = TraceBuilder::new(p, 11);
        b.add_packet(
            &[0xA5; 12],
            PacketConfig {
                start_sample: start,
                snr_db: 8.0,
                cfo_hz,
                frac_delay: 0.4,
                ..Default::default()
            },
        );
        let trace = b.build();
        let samples = trace.samples();
        let cfo_int = (cfo_hz / p.bin_hz()).round();
        let start = start as i64 + 3;
        let mut scratch = DspScratch::new();
        let mut up_scratch = DspScratch::new();

        // Compares both paths at one point; returns the reference's Q and
        // Q* gate for the caller's argmax.
        let mut check = |dt: f64, df: f64| -> (f32, bool) {
            let cfo = cfo_int + df;
            let (q_ref, up_ref, down_ref, zero_ref) =
                reference_q(samples, &demod, start, dt, cfo).expect("reference in range");
            let v = evaluate_q(samples, &demod, start, dt, cfo, &mut scratch).expect("in range");
            // The down fold is left in `fbuf`, the up sum in `cacc_a`.
            let (down_bin, _) = peak(&scratch.fbuf).expect("down fold");
            demod.signal_vector_scratch(&scratch.cacc_a, cfo, &mut up_scratch);
            let (up_bin, q_up) = peak(&up_scratch.fbuf).expect("up fold");
            assert_eq!(q_up, v.q, "dt={dt} df={df}");
            assert_eq!(
                (up_bin, down_bin),
                (up_ref, down_ref),
                "bins dt={dt} df={df}"
            );
            assert_eq!(v.peaks_at_zero, zero_ref, "Q* gate dt={dt} df={df}");
            let rel = ((v.q - q_ref) / q_ref).abs();
            assert!(
                rel <= 1e-4,
                "Q {} vs {q_ref} (rel {rel:e}) dt={dt} df={df}",
                v.q
            );
            (q_ref, zero_ref)
        };

        // The 36 points the search visits, winners picked as it picks them.
        let mut evals = 0;
        let mut best = (f32::NEG_INFINITY, 0.0);
        for i in 0..CFO_GRID {
            let df = -1.0 + i as f64 / (CFO_GRID - 1) as f64;
            let (q, _) = check(0.0, df);
            evals += 1;
            if q > best.0 {
                best = (q, df);
            }
        }
        let mut p2 = (f32::NEG_INFINITY, 0.0, best.1);
        for df in [best.1, best.1 + 1.0] {
            for i in -2..=2 {
                let dt = i as f64 / 2.0;
                let (q, at_zero) = check(dt, df);
                evals += 1;
                if at_zero && q > p2.0 {
                    p2 = (q, dt, df);
                }
            }
        }
        assert!(p2.0 > 0.0, "the packet passes the Q* gate somewhere");
        for i in 0..=p.osf {
            check(p2.1 - 0.5 + i as f64 / p.osf as f64, p2.2);
            evals += 1;
        }
        assert_eq!(evals, 36);
    }

    #[test]
    fn each_evaluation_runs_two_ffts_and_off_trace_ones_none() {
        let p = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4);
        let demod = Demodulator::new(p);
        let mut b = TraceBuilder::new(p, 5);
        b.add_packet(
            &[0x3C; 8],
            PacketConfig {
                start_sample: 3_000,
                snr_db: 10.0,
                ..Default::default()
            },
        );
        let trace = b.build();
        let mut scratch = DspScratch::new();
        let mut ffts = 0;
        let pkt = search(trace.samples(), &demod, 3_000, 0.0, &mut scratch, &mut ffts);
        assert!(pkt.is_some());
        // 36 grid points, two of them reused: 34 evaluations.
        assert_eq!(ffts, 68);
        // Too close to the end for the downchirps: every evaluation bails.
        let late = trace.samples().len() as i64 - 11 * p.samples_per_symbol() as i64;
        let mut ffts = 0;
        assert!(search(trace.samples(), &demod, late, 0.0, &mut scratch, &mut ffts).is_none());
        assert_eq!(ffts, 0);
    }
}
