//! Packet detection, steps 1–3 (paper §7).
//!
//! 1. Scan the trace in symbol-length windows; runs of consecutive windows
//!    whose signal vector peaks at the same bin reveal a preamble (the 8
//!    identical upchirps make *every* window fully inside the preamble
//!    peak at the same bin, regardless of alignment).
//! 2. Validate each candidate with whole-symbol adjustments of −2T..2T:
//!    the two full downchirp windows must produce consistent peaks (this
//!    also resolves start-time errors that are multiples of T).
//! 3. Coarse timing and CFO from the up/down peak locations `x₁`, `x₂`
//!    (after \[25\]): timing error `= U·(x₁ − x₂)/2` samples and CFO
//!    `= (x₁ + x₂)/2` bins — an upchirp window offset by `e` samples peaks
//!    at `e/U + δ` while a downchirp window peaks at `−e/U + δ`.
//!
//! Step 4 (fractional timing/CFO) lives in [`crate::sync`].

use crate::packet::{same_transmission, DetectedPacket};
use crate::parallel::fan_out;
use crate::sync::fractional_sync_observed;

use tnb_dsp::{find_peaks, Complex32, DspScratch, Peak};
use tnb_metrics::{PipelineMetrics, Stage, StageCounters};
use tnb_phy::demodulate::Demodulator;
use tnb_phy::params::LoRaParams;

/// Minimum run of consecutive same-bin windows to accept a preamble.
/// The 8 upchirps guarantee 7 fully-contained windows.
const MIN_RUN: usize = 5;

/// A peak must exceed this multiple of the window's median bin value.
const PEAK_MEDIAN_FACTOR: f32 = 10.0;

/// Maximum allowed |CFO| in Hz (paper: "the relaxation is determined by
/// the maximum allowable CFO"; its simulations draw CFOs from ±4.88 kHz).
/// Converted to bins per spreading factor internally.
const MAX_CFO_HZ: f64 = 6000.0;

/// Keep at most this many peaks per scan window.
const MAX_SCAN_PEAKS: usize = 8;

/// A preamble candidate from step 1: a run of windows peaking at one bin.
#[derive(Debug, Clone, Copy)]
struct PreambleRun {
    /// First window index of the run.
    first_window: usize,
    /// Peak bin the run was tracked at.
    bin: usize,
    /// Run length in windows.
    len: usize,
}

/// The packet detector (steps 1–4 composed).
#[derive(Debug)]
pub struct Detector {
    params: LoRaParams,
    demod: Demodulator,
}

impl Detector {
    /// Builds a detector.
    pub fn new(params: LoRaParams) -> Self {
        Detector {
            demod: Demodulator::new(params),
            params,
        }
    }

    /// The demodulator (shared with later pipeline stages).
    pub fn demodulator(&self) -> &Demodulator {
        &self.demod
    }

    /// Detects all packets on every antenna, returning their synchronized
    /// start times and CFOs sorted by start time. Stage wall times go to
    /// `metrics`, deterministic event counts to `counters`.
    ///
    /// Each antenna is detected on its own, then its start-sorted
    /// candidates are merged, antenna by antenna, into one list under
    /// [`same_transmission`]: under fading this is where antenna
    /// diversity pays (paper §8.5), and a preamble seen on two antennas
    /// keeps its stronger observation.
    pub fn detect(
        &self,
        antennas: &[&[Complex32]],
        workers: usize,
        scratch: &mut DspScratch,
        metrics: &PipelineMetrics,
        counters: &mut StageCounters,
    ) -> Vec<DetectedPacket> {
        let l = self.params.samples_per_symbol() as f64;
        let mut out: Vec<DetectedPacket> = Vec::new();
        for samples in antennas {
            for p in self.detect_antenna(samples, workers, scratch, metrics, counters) {
                if merge_dedup(&mut out, p, l) {
                    counters.detect_duplicates += 1;
                }
            }
        }
        out.sort_by(|a, b| a.start.total_cmp(&b.start));
        out
    }

    /// Detection on one antenna, deduplicated and sorted by start time.
    ///
    /// The scan pass is a single cheap sweep and stays on `scratch`;
    /// validation — five candidate alignments plus the 36-point
    /// fractional search per run — dominates detection cost and is fanned
    /// out over `workers` threads. Results and counters are identical for
    /// any worker count: validated candidates are deduplicated in scan
    /// order.
    fn detect_antenna(
        &self,
        samples: &[Complex32],
        workers: usize,
        scratch: &mut DspScratch,
        metrics: &PipelineMetrics,
        counters: &mut StageCounters,
    ) -> Vec<DetectedPacket> {
        counters.detect_windows += (samples.len() / self.params.samples_per_symbol()) as u64;
        let t0 = metrics.now();
        let runs = self.scan_preambles(samples, scratch);
        metrics.record_span(Stage::Detect, t0);
        counters.detect_runs += runs.len() as u64;
        // A validation worker that panics forfeits its runs (they stay
        // unvalidated) instead of taking the whole pipeline down.
        let validated = fan_out(runs.len(), workers, scratch, metrics, |i, scratch, m| {
            let mut c = StageCounters::default();
            let p = self.validate_and_sync(samples, &runs[i], scratch, m, &mut c);
            (p, c)
        });
        let mut out: Vec<DetectedPacket> = Vec::new();
        for (p, c) in validated.into_iter().flatten() {
            counters.absorb(&c);
            if let Some(p) = p {
                if merge_dedup(&mut out, p, self.params.samples_per_symbol() as f64) {
                    counters.detect_duplicates += 1;
                }
            }
        }
        out.sort_by(|a, b| a.start.total_cmp(&b.start));
        out
    }

    /// Step 1: scan for runs of same-bin peaks across consecutive windows.
    fn scan_preambles(&self, samples: &[Complex32], scratch: &mut DspScratch) -> Vec<PreambleRun> {
        let l = self.params.samples_per_symbol();
        let n = self.params.n() as i64;
        let n_windows = samples.len() / l;
        let mut finished: Vec<PreambleRun> = Vec::new();

        /// An in-progress run of same-bin peaks.
        struct Run {
            bin: usize,
            first: usize,
            last: usize,
            len: usize,
        }
        let mut active: Vec<Run> = Vec::new();

        // Per-window buffers, reused across windows.
        let mut found: Vec<Peak> = Vec::new();
        let mut peaks: Vec<usize> = Vec::new();
        let mut consumed: Vec<bool> = Vec::new();
        for w in 0..n_windows {
            self.demod
                .signal_vector_scratch(&samples[w * l..(w + 1) * l], 0.0, scratch);
            let y = &scratch.fbuf;
            scratch.fsel.clear();
            scratch.fsel.extend_from_slice(y);
            let median = tnb_dsp::stats::median_mut(&mut scratch.fsel);
            let thresh = median * PEAK_MEDIAN_FACTOR;
            find_peaks(y, MAX_SCAN_PEAKS, &mut found);
            peaks.clear();
            peaks.extend(found.iter().filter(|p| p.height > thresh).map(|p| p.index));

            consumed.clear();
            consumed.resize(peaks.len(), false);
            for run in active.iter_mut() {
                if let Some(pi) = peaks
                    .iter()
                    .position(|&b| bins_close(b as i64, run.bin as i64, n, 1))
                {
                    run.bin = peaks[pi];
                    run.last = w;
                    run.len += 1;
                    consumed[pi] = true;
                }
            }
            // Finalize runs that were not extended in this window.
            active.retain(|run| {
                if run.last == w {
                    return true;
                }
                if run.len >= MIN_RUN {
                    finished.push(PreambleRun {
                        first_window: run.first,
                        bin: run.bin,
                        len: run.len,
                    });
                }
                false
            });
            // Unconsumed peaks open new runs.
            for (pi, &b) in peaks.iter().enumerate() {
                if !consumed[pi] {
                    active.push(Run {
                        bin: b,
                        first: w,
                        last: w,
                        len: 1,
                    });
                }
            }
        }
        for run in active {
            if run.len >= MIN_RUN {
                finished.push(PreambleRun {
                    first_window: run.first,
                    bin: run.bin,
                    len: run.len,
                });
            }
        }
        // Longer runs first on ties: they are the more trustworthy
        // preamble evidence when two runs start in the same window.
        finished.sort_by_key(|r| (r.first_window, usize::MAX - r.len));
        finished
    }

    /// Steps 2–4 for one preamble run: whole-symbol validation, coarse
    /// timing/CFO (timed as [`Stage::Detect`]), then the fractional search
    /// (timed as [`Stage::Sync`]).
    fn validate_and_sync(
        &self,
        samples: &[Complex32],
        run: &PreambleRun,
        scratch: &mut DspScratch,
        metrics: &PipelineMetrics,
        counters: &mut StageCounters,
    ) -> Option<DetectedPacket> {
        let t0 = metrics.now();
        let coarse = self.validate_coarse(samples, run, scratch);
        metrics.record_span(Stage::Detect, t0);
        let (s_coarse, cfo_est) = coarse?;
        // Step 4: fractional timing and CFO around the integer-bin CFO.
        let cfo_int = cfo_est.round();
        fractional_sync_observed(
            samples,
            &self.demod,
            s_coarse,
            cfo_int,
            scratch,
            metrics,
            counters,
        )
    }

    /// Steps 2–3 for one preamble run: whole-symbol validation and coarse
    /// timing/CFO estimation.
    fn validate_coarse(
        &self,
        samples: &[Complex32],
        run: &PreambleRun,
        scratch: &mut DspScratch,
    ) -> Option<(i64, f64)> {
        let l = self.params.samples_per_symbol() as i64;
        let u = self.params.osf as i64;
        let n = self.params.n() as i64;

        // Preliminary start (step 2), assuming zero CFO.
        let p0 = run.first_window as i64 * l - run.bin as i64 * u;

        let mut best: Option<(f32, i64, f64)> = None; // (score, start, cfo)
        let mut down_a: Vec<Peak> = Vec::new();
        let mut down_b: Vec<Peak> = Vec::new();
        'align: for k in -2i64..=2 {
            let p = p0 + k * l;
            if p + 13 * l > samples.len() as i64 {
                continue;
            }
            // Upchirp peaks from three windows well inside the preamble.
            // These windows are aligned to the candidate start, so this
            // preamble's peak sits near bin 0, displaced only by the CFO —
            // search that neighbourhood rather than taking the window
            // maximum, which a stronger colliding packet would hijack.
            let max_cfo_bins = (MAX_CFO_HZ / self.params.bin_hz()).ceil() as i64 + 1;
            // Median over five windows: a colliding packet's payload peak
            // can outshine this preamble near bin 0 in any single window,
            // but not in the majority of them.
            let mut bins = [0i64; 5];
            let mut heights = [0f32; 5];
            for j in 0..5 {
                let start = p + (j as i64 + 1) * l;
                let Some((bin, h)) =
                    self.peak_near(samples, start, false, 0, max_cfo_bins, scratch)
                else {
                    continue 'align;
                };
                bins[j] = center(bin, n);
                heights[j] = h;
            }
            bins.sort_unstable();
            let x1 = bins[bins.len() / 2].rem_euclid(n);
            heights.sort_by(f32::total_cmp);
            let up_h = heights[heights.len() / 2];
            // Two full downchirp windows (also rejects ±T start errors:
            // only the true alignment puts full downchirps in both). The
            // downchirp bin is unknown a priori; consider every peak of
            // the first window that (a) repeats in the second and (b)
            // yields a CFO within bounds, and keep the strongest.
            if !self.window_peaks(samples, p + 10 * l, true, scratch, &mut down_a)
                || !self.window_peaks(samples, p + 11 * l, true, scratch, &mut down_b)
            {
                continue;
            }
            let c1 = center(x1, n);
            let mut best_down: Option<(f32, i64)> = None; // (score, x2)
            for pa in &down_a {
                let Some(pb) = down_b
                    .iter()
                    .find(|pb| bins_close(pb.index as i64, pa.index as i64, n, 1))
                else {
                    continue;
                };
                let c2 = center(pa.index as i64, n);
                let cfo = (c1 + c2) as f64 / 2.0;
                if cfo.abs() * self.params.bin_hz() > MAX_CFO_HZ {
                    continue;
                }
                let score = pa.height.min(pb.height);
                if best_down.map(|(s, _)| score > s).unwrap_or(true) {
                    best_down = Some((score, pa.index as i64));
                }
            }
            let Some((score, x2)) = best_down else {
                continue;
            };
            // Downchirp height vs upchirp height must be comparable — a
            // spurious "downchirp" from noise or a colliding upchirp is
            // weak.
            if score < up_h * 0.2 {
                continue;
            }
            let c2 = center(x2, n);
            let cfo = (c1 + c2) as f64 / 2.0;
            let timing_err = u * (c1 - c2) / 2; // samples
            let start = p - timing_err;
            if best.map(|(s, _, _)| score > s).unwrap_or(true) {
                best = Some((score, start, cfo));
            }
        }

        let (_, s_coarse, cfo_est) = best?;
        if s_coarse < 0 {
            return None;
        }
        Some((s_coarse, cfo_est))
    }

    /// Signal vector of one window, processed with the downchirp
    /// (`down = false`, for upchirps) or the upchirp (`down = true`, for
    /// downchirps), left in `scratch.fbuf`. `None` when the window runs
    /// off the trace.
    fn window_vector<'s>(
        &self,
        samples: &[Complex32],
        start: i64,
        down: bool,
        scratch: &'s mut DspScratch,
    ) -> Option<&'s [f32]> {
        let l = self.params.samples_per_symbol();
        if start < 0 || start as usize + l > samples.len() {
            return None;
        }
        let w = &samples[start as usize..start as usize + l];
        if down {
            self.demod.signal_vector_down_scratch(w, 0.0, scratch);
        } else {
            self.demod.signal_vector_scratch(w, 0.0, scratch);
        }
        Some(&scratch.fbuf)
    }

    /// Top peaks of one window (circular peak finding, capped) into
    /// `out`; `false` when the window runs off the trace.
    fn window_peaks(
        &self,
        samples: &[Complex32],
        start: i64,
        down: bool,
        scratch: &mut DspScratch,
        out: &mut Vec<Peak>,
    ) -> bool {
        let Some(y) = self.window_vector(samples, start, down, scratch) else {
            return false;
        };
        find_peaks(y, MAX_SCAN_PEAKS, out);
        true
    }

    /// The signal-vector value and bin of the strongest bin within `tol`
    /// of `expect` in one window (reads the raw vector, so a peak
    /// overshadowed by a stronger colliding peak is still found).
    fn peak_near(
        &self,
        samples: &[Complex32],
        start: i64,
        down: bool,
        expect: i64,
        tol: i64,
        scratch: &mut DspScratch,
    ) -> Option<(i64, f32)> {
        let y = self.window_vector(samples, start, down, scratch)?;
        let n = y.len() as i64;
        let mut best: Option<(i64, f32)> = None;
        for d in -tol..=tol {
            let bin = (expect + d).rem_euclid(n);
            let h = y[bin as usize];
            if best.map(|(_, bh)| h > bh).unwrap_or(true) {
                best = Some((bin, h));
            }
        }
        best
    }
}

/// Merges `p` into `out` under the shared [`same_transmission`] predicate:
/// appends when no equivalent detection is present, otherwise keeps the
/// higher-scored (`preamble_peak`) of the two. Returns `true` when `p` was
/// a duplicate. Deduplication matters because two runs (e.g. split by a
/// collision glitch) or two antennas can describe the same preamble, and
/// keeping the stronger observation gives Thrive the better history
/// bootstrap.
fn merge_dedup(out: &mut Vec<DetectedPacket>, p: DetectedPacket, l: f64) -> bool {
    match out
        .iter()
        .position(|q| same_transmission(q.start, q.cfo_cycles, p.start, p.cfo_cycles, l))
    {
        Some(i) => {
            if p.preamble_peak > out[i].preamble_peak {
                out[i] = p;
            }
            true
        }
        None => {
            out.push(p);
            false
        }
    }
}

/// Maps a bin in `[0, n)` to the centred range `[−n/2, n/2)`.
pub(crate) fn center(x: i64, n: i64) -> i64 {
    ((x + n / 2).rem_euclid(n)) - n / 2
}

/// True if two bins are within `tol` of each other modulo `n` (for
/// `tol < n/2`).
pub(crate) fn bins_close(a: i64, b: i64, n: i64, tol: i64) -> bool {
    let d = (a - b).rem_euclid(n);
    d <= tol || d >= n - tol
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn center_maps_to_half_open_range() {
        assert_eq!(center(0, 256), 0);
        assert_eq!(center(255, 256), -1);
        assert_eq!(center(128, 256), -128);
        assert_eq!(center(127, 256), 127);
        assert_eq!(center(-1, 256), -1);
    }

    #[test]
    fn bins_close_wraps() {
        assert!(bins_close(0, 255, 256, 1));
        assert!(bins_close(255, 0, 256, 1));
        assert!(!bins_close(0, 250, 256, 2));
        assert!(!bins_close(5, 250, 256, 2));
    }

    #[test]
    fn bins_close_matches_centred_distance() {
        for n in [128i64, 4096] {
            for tol in 0..=2 {
                for a in 0..n {
                    for b in 0..n {
                        assert_eq!(
                            bins_close(a, b, n, tol),
                            center(a - b, n).abs() <= tol,
                            "a={a} b={b} n={n} tol={tol}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn merge_dedup_keeps_higher_peak() {
        let l = 1024.0;
        let mk = |start: f64, cfo: f64, peak: f32| DetectedPacket {
            start,
            cfo_cycles: cfo,
            preamble_peak: peak,
        };
        let mut out = vec![mk(1000.0, 0.5, 10.0)];
        // Duplicate (within l/4 and 1.5 bins) with a stronger preamble
        // replaces the weaker observation in place.
        assert!(merge_dedup(&mut out, mk(1100.0, 0.2, 25.0), l));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].preamble_peak, 25.0);
        assert_eq!(out[0].start, 1100.0);
        // A weaker duplicate is still reported as one but changes nothing.
        assert!(merge_dedup(&mut out, mk(1050.0, 0.4, 5.0), l));
        assert_eq!(out[0].preamble_peak, 25.0);
        // Same start but far-off CFO is a different transmission.
        assert!(!merge_dedup(&mut out, mk(1100.0, 4.0, 1.0), l));
        assert_eq!(out.len(), 2);
    }
}
