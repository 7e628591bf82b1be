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
//! Total: 36 evaluations for `U = 8`, matching the paper.

use crate::packet::DetectedPacket;
use tnb_dsp::{Complex32, DspScratch};
use tnb_metrics::{PipelineMetrics, Stage, StageCounters};
use tnb_phy::demodulate::Demodulator;
use tnb_phy::params::LoRaParams;

/// Phase-1 grid points along the CFO axis (paper: 17 → 1/16-bin steps).
const CFO_GRID: usize = 17;

/// Evaluation of `Q`/`Q*` at one `(δt, δf)` point.
struct QValue {
    /// Peak energy of the summed upchirp spectra.
    q: f32,
    /// True if the upchirp peak *and* the downchirp peak are at bin 0.
    peaks_at_zero: bool,
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

/// [`fractional_sync_scratch`] with observability: counts the attempt and
/// its acceptance in `counters` and times the whole 36-point search under
/// [`Stage::Sync`].
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
    let out = fractional_sync_scratch(samples, demod, start, cfo_int, scratch);
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
    let params = *demod.params();
    let u = params.osf as i64;

    let mut eval = |dt_chips: f64, df: f64| -> Option<QValue> {
        evaluate_q(samples, demod, start, dt_chips, cfo_int + df, scratch)
    };

    // Phase 1: δt = 0, δf from −1 to 0.
    let steps = CFO_GRID - 1;
    let mut best_df = 0.0;
    let mut best_q = f32::NEG_INFINITY;
    for i in 0..=steps {
        let df = -1.0 + i as f64 / steps as f64;
        if let Some(v) = eval(0.0, df) {
            if v.q > best_q {
                best_q = v.q;
                best_df = df;
            }
        }
    }
    if best_q <= 0.0 {
        return None;
    }

    // Phase 2: δt ∈ {−1, −½, 0, ½, 1} chips × δf ∈ {δf*, δf*+1}, by Q*.
    let mut p2: Option<(f32, f64, f64)> = None;
    for &df in &[best_df, best_df + 1.0] {
        for i in -2i64..=2 {
            let dt = i as f64 / 2.0;
            if let Some(v) = eval(dt, df) {
                if v.peaks_at_zero && p2.map(|(q, _, _)| v.q > q).unwrap_or(true) {
                    p2 = Some((v.q, dt, df));
                }
            }
        }
    }
    // No `Q*` anywhere means no consistent peak: reject the preamble.
    let (_, dt2, df2) = p2?;

    // Phase 3: refine δt at 1/U-chip (1-sample) resolution.
    let mut p3: Option<(f32, f64)> = None;
    for i in 0..=params.osf {
        let dt = dt2 - 0.5 + i as f64 / u as f64;
        if let Some(v) = eval(dt, df2) {
            if v.peaks_at_zero && p3.map(|(q, _)| v.q > q).unwrap_or(true) {
                p3 = Some((v.q, dt));
            }
        }
    }
    let (q3, dt3) = p3.unwrap_or((best_q, dt2));

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
/// `(δt, δf)`: sums the complex spectra of the 8 upchirp windows and the 2
/// full downchirp windows, CFO-corrected by `cfo` bins, with the windows
/// shifted by `dt_chips` chips.
fn evaluate_q(
    samples: &[Complex32],
    demod: &Demodulator,
    start: i64,
    dt_chips: f64,
    cfo: f64,
    scratch: &mut DspScratch,
) -> Option<QValue> {
    let params = demod.params();
    let l = params.samples_per_symbol() as i64;
    let shift = (dt_chips * params.osf as f64).round() as i64;
    let base = start + shift;

    let window = |off: i64| -> Option<&[Complex32]> {
        let s = base + off;
        if s < 0 {
            return None;
        }
        // `get` degrades to None when the window runs off the trace.
        samples.get(s as usize..(s + l) as usize)
    };

    // Summed upchirp spectra, accumulated in `scratch.cacc_a`. The
    // per-window CFO correction uses a local time index, so each window
    // must additionally be de-rotated by the correction phase accumulated
    // since the packet start (2π·cfo per symbol) — otherwise the sum's
    // coherence would depend on the *true* fractional CFO instead of the
    // corrected residual, and Q would not discriminate δf at all.
    let carry = |j: i64| Complex32::from_phase(-2.0 * std::f64::consts::PI * cfo * j as f64);
    scratch.cacc_a.clear();
    scratch.cacc_a.resize(l as usize, Complex32::ZERO);
    for j in 0..LoRaParams::PREAMBLE_UPCHIRPS as i64 {
        let w = window(j * l)?;
        demod.complex_spectrum_scratch(w, cfo, scratch);
        let rot = carry(j);
        let DspScratch { cbuf, cacc_a, .. } = &mut *scratch;
        for (a, b) in cacc_a.iter_mut().zip(cbuf.iter()) {
            *a += *b * rot;
        }
    }
    {
        let DspScratch { cacc_a, fbuf, .. } = &mut *scratch;
        demod.fold_into(cacc_a, fbuf);
    }
    let folded = &scratch.fbuf;
    let (up_bin, &q) = folded
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))?;
    let up_pos = centred_peak_position(folded, up_bin);

    // Downchirp peak location (two full downchirp windows start 10 and 11
    // symbols in). Their dechirped spectra also sum coherently, in
    // `scratch.cacc_b`; the fold reuses `scratch.fbuf` (the upchirp
    // readouts above are already taken).
    scratch.cacc_b.clear();
    scratch.cacc_b.resize(l as usize, Complex32::ZERO);
    for j in [10i64, 11] {
        let w = window(j * l)?;
        demod.complex_spectrum_down_scratch(w, cfo, scratch);
        let rot = carry(j);
        let DspScratch { cbuf, cacc_b, .. } = &mut *scratch;
        for (a, b) in cacc_b.iter_mut().zip(cbuf.iter()) {
            *a += *b * rot;
        }
    }
    {
        let DspScratch { cacc_b, fbuf, .. } = &mut *scratch;
        demod.fold_into(cacc_b, fbuf);
    }
    let down_folded = &scratch.fbuf;
    let down_bin = down_folded
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))?
        .0;
    let down_pos = centred_peak_position(down_folded, down_bin);

    // "At location 1" (paper, 1-indexed) = within half a bin of bin 0
    // here; 0.6 leaves margin for interpolation error while still
    // rejecting the ±1-bin CFO/timing ambiguities.
    let peaks_at_zero = up_pos.abs() <= 0.6 && down_pos.abs() <= 0.6;
    Some(QValue { q, peaks_at_zero })
}

/// Sub-bin peak position of a circular spectrum peak, centred so bin
/// `n−1` reads as `−1`.
fn centred_peak_position(folded: &[f32], bin: usize) -> f32 {
    let n = folded.len() as i64;
    let (delta, _) = tnb_dsp::peakfinder::refine_peak(folded, bin);
    crate::detect::center(bin as i64, n) as f32 + delta
}
