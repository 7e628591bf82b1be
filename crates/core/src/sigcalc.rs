//! Per-packet signal-vector calculation (paper §4, second component).
//!
//! For every detected packet, the signal vectors of its symbols are
//! computed by aligning windows to the packet's own estimated symbol
//! boundary and removing its estimated CFO. With multiple receive
//! antennas the per-antenna signal vectors are summed (paper §3).

use crate::packet::DetectedPacket;
use std::collections::BTreeMap;
use tnb_dsp::{Complex32, DspScratch};
use tnb_metrics::{PipelineMetrics, Stage};
use tnb_phy::demodulate::Demodulator;
use tnb_phy::params::LoRaParams;

/// Computes (and caches) aligned, CFO-corrected signal vectors for
/// detected packets over a multi-antenna trace.
///
/// All per-symbol DSP runs inside the caller-owned [`DspScratch`], and
/// the cached vectors sit back to back in its `arena`, so the
/// steady-state symbol loop makes no heap allocations once the arena
/// has grown to the decode's working set.
pub struct SigCalc<'a> {
    demod: &'a Demodulator,
    antennas: &'a [&'a [Complex32]],
    scratch: &'a mut DspScratch,
    /// Arena offset of each cached vector, keyed by (packet id,
    /// data-symbol index); `None` when the window runs off the trace.
    cache: BTreeMap<(usize, isize), Option<usize>>,
    /// Optional observability sink (wall time of vector computation and
    /// matching-cost samples recorded by Thrive through [`Self::metrics`]).
    metrics: Option<&'a PipelineMetrics>,
    /// Vectors computed so far (cache misses) — deterministic because the
    /// cache is keyed by (packet id, symbol index).
    computed: u64,
}

impl<'a> SigCalc<'a> {
    /// Creates a calculator over `antennas`, borrowing the caller's
    /// scratch for the lifetime of the calculator (its `arena` is cleared
    /// here). With a `metrics` sink, vector computations are timed under
    /// [`Stage::SigCalc`], and downstream stages holding only the
    /// calculator can reach the sink via [`Self::metrics`].
    pub fn new(
        demod: &'a Demodulator,
        antennas: &'a [&'a [Complex32]],
        scratch: &'a mut DspScratch,
        metrics: Option<&'a PipelineMetrics>,
    ) -> Self {
        // Zero antennas is tolerated: every vector request returns `None`.
        scratch.arena.clear();
        SigCalc {
            demod,
            antennas,
            scratch,
            cache: BTreeMap::new(),
            metrics,
            computed: 0,
        }
    }

    /// The observability sink, when one was attached.
    pub fn metrics(&self) -> Option<&'a PipelineMetrics> {
        self.metrics
    }

    /// Number of signal vectors computed (cache misses) so far.
    pub fn vectors_computed(&self) -> u64 {
        self.computed
    }

    /// Parameters in use.
    pub fn params(&self) -> &LoRaParams {
        self.demod.params()
    }

    /// First sample (rounded) of data symbol `j` of a packet. Data symbols
    /// start after the 12.25-symbol preamble; negative `j` reaches back
    /// into the preamble (−13 = first preamble upchirp).
    pub fn symbol_start(&self, pkt: &DetectedPacket, j: isize) -> i64 {
        let l = self.params().samples_per_symbol() as f64;
        (pkt.start + l * (self.params().preamble_symbols() + j as f64)).round() as i64
    }

    /// Signal vector of data symbol `j` of `pkt` (id `pkt_id`), summed
    /// over antennas; `None` when the window runs off the trace. Results
    /// are cached.
    // tnb-lint: no_alloc_root -- steady-state symbol path: cache hits are free, misses append to the scratch arena
    pub fn symbol_vector(
        &mut self,
        pkt_id: usize,
        pkt: &DetectedPacket,
        j: isize,
    ) -> Option<&[f32]> {
        let key = (pkt_id, j);
        let at = match self.cache.get(&key) {
            Some(&at) => at,
            None => {
                self.computed += 1;
                let t0 = self.metrics.and_then(PipelineMetrics::now);
                let at = self.compute(pkt, j);
                if let Some(m) = self.metrics {
                    m.record_span(Stage::SigCalc, t0);
                }
                self.cache.insert(key, at);
                at
            }
        }?;
        self.scratch.arena.get(at..at + self.params().n())
    }

    /// Appends the antenna-summed vector to the arena and returns its
    /// offset; `None` (arena unchanged) when the window runs off the trace.
    fn compute(&mut self, pkt: &DetectedPacket, j: isize) -> Option<usize> {
        let l = self.params().samples_per_symbol();
        let start = self.symbol_start(pkt, j);
        if start < 0 || self.antennas.is_empty() {
            return None;
        }
        let start = start as usize;
        let at = self.scratch.arena.len();
        for (a, ant) in self.antennas.iter().enumerate() {
            let Some(window) = ant.get(start..start + l) else {
                // Window runs off the trace: drop any partial sum and
                // report the vector unavailable.
                self.scratch.arena.truncate(at);
                return None;
            };
            self.demod
                .signal_vector_scratch(window, pkt.cfo_cycles, self.scratch);
            let DspScratch { arena, fbuf, .. } = &mut *self.scratch;
            if a == 0 {
                arena.extend_from_slice(fbuf);
            } else {
                for (acc, b) in arena.iter_mut().skip(at).zip(fbuf.iter()) {
                    *acc += *b;
                }
            }
        }
        Some(at)
    }

    /// Peak heights of the 8 preamble upchirps, processed with the
    /// packet's own alignment — the bootstrap data for Thrive's
    /// peak-height history (paper §5.2: "bootstrapped by the peaks in the
    /// preamble").
    pub fn preamble_heights(&mut self, pkt_id: usize, pkt: &DetectedPacket) -> Vec<f32> {
        let n = self.params().n() as isize;
        let pre = LoRaParams::PREAMBLE_UPCHIRPS as isize;
        let mut out = Vec::with_capacity(pre as usize);
        for j in 0..pre {
            // Preamble upchirp j sits at data-symbol index j − 12.25; we
            // can only window at integer symbol offsets, and −13 + j
            // starts a quarter-symbol early — instead take the window at
            // offset j − 12 symbols, which covers upchirp j's tail plus
            // upchirp j+1's head: for identical upchirps this is still a
            // clean full-height peak at bin 0 except for the last one.
            let jj = j - 12;
            if let Some(v) = self.symbol_vector(pkt_id, pkt, jj) {
                // The preamble peak is at bin 0 (own alignment); read
                // around it to tolerate ±1-bin residuals.
                let h = (-1..=1)
                    .map(|d| v[(d + n).rem_euclid(n) as usize])
                    .fold(0.0f32, f32::max);
                out.push(h);
            }
        }
        out
    }
}

/// Blind SNR estimate in dB from a signal vector and a peak bin.
///
/// For signal amplitude `A`, the folded peak is `(A·L)²` while a noise
/// bin averages `≈ π·L·σ²` (folded magnitudes of two complex-Gaussian
/// bins), so `SNR = peak·π / (L · median_bin)` up to the median/mean
/// ratio of the noise bins. Above ≈ 14 dB the median becomes dominated by
/// the chirp's own spectral leakage, compressing the estimate — use
/// [`snr_from_peak_db`] when the noise power is known.
pub fn estimate_snr_db(vector: &[f32], peak_bin: usize, samples_per_symbol: usize) -> f32 {
    let median = tnb_dsp::stats::median(vector).max(f32::MIN_POSITIVE);
    let peak = vector[peak_bin];
    let snr = peak * std::f32::consts::PI / (samples_per_symbol as f32 * median);
    tnb_dsp::stats::to_db(snr.max(1e-12))
}

/// SNR in dB from a peak height when the noise power is known: the folded
/// peak of a clean symbol with amplitude `A` is `(A·L)²`, so
/// `SNR = peak / (L² · noise_power)`. The paper estimates node SNRs from
/// peak heights the same way (§8.1); the synthetic traces have unit noise
/// power by construction.
pub fn snr_from_peak_db(peak: f32, samples_per_symbol: usize, noise_power: f32) -> f32 {
    let l = samples_per_symbol as f32;
    tnb_dsp::stats::to_db((peak / (l * l * noise_power)).max(1e-12))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnb_phy::params::{CodingRate, SpreadingFactor};

    fn demod() -> Demodulator {
        Demodulator::new(LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4))
    }

    #[test]
    fn symbol_start_offsets() {
        let d = demod();
        let ant: Vec<Complex32> = vec![Complex32::ZERO; 100_000];
        let refs: Vec<&[Complex32]> = vec![&ant];
        let mut scratch = DspScratch::new();
        let sc = SigCalc::new(&d, &refs, &mut scratch, None);
        let pkt = DetectedPacket {
            start: 1000.0,
            cfo_cycles: 0.0,
            preamble_peak: 1.0,
        };
        let l = 2048i64;
        // Data symbols start 12.25 symbols in.
        assert_eq!(sc.symbol_start(&pkt, 0), 1000 + (12 * l + l / 4));
        assert_eq!(sc.symbol_start(&pkt, 1), 1000 + (13 * l + l / 4));
        assert_eq!(sc.symbol_start(&pkt, -13), 1000 - 3 * l / 4);
    }

    #[test]
    fn out_of_bounds_returns_none() {
        let d = demod();
        let ant: Vec<Complex32> = vec![Complex32::ZERO; 10_000];
        let refs: Vec<&[Complex32]> = vec![&ant];
        let mut scratch = DspScratch::new();
        let mut sc = SigCalc::new(&d, &refs, &mut scratch, None);
        let pkt = DetectedPacket {
            start: 9_000.0,
            cfo_cycles: 0.0,
            preamble_peak: 1.0,
        };
        assert!(sc.symbol_vector(0, &pkt, 0).is_none());
        let early = DetectedPacket {
            start: 10.0,
            cfo_cycles: 0.0,
            preamble_peak: 1.0,
        };
        assert!(sc.symbol_vector(1, &early, -13).is_none());
    }

    #[test]
    fn window_past_the_shorter_antenna_leaves_no_partial_sum() {
        let d = demod();
        let l = d.params().samples_per_symbol();
        let n = d.params().n();
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let mut noise = |len: usize| -> Vec<Complex32> {
            (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    Complex32::new(
                        (x >> 40) as f32 / 8e6 - 1.0,
                        (x & 0xffff) as f32 / 3e4 - 1.0,
                    )
                })
                .collect()
        };
        // Data symbol j starts at (12.25 + j)·L: symbol 7 lies inside
        // antenna 0 but runs past the end of antenna 1.
        let ant0 = noise(30 * l);
        let ant1 = noise(20 * l);
        let refs: Vec<&[Complex32]> = vec![&ant0, &ant1];
        let pkt = DetectedPacket {
            start: 0.0,
            cfo_cycles: 0.3,
            preamble_peak: 1.0,
        };
        let mut scratch = DspScratch::new();
        let mut sc = SigCalc::new(&d, &refs, &mut scratch, None);
        assert!(sc.symbol_vector(0, &pkt, 0).is_some());
        assert!(sc.symbol_vector(0, &pkt, 7).is_none());
        let got = sc.symbol_vector(0, &pkt, 1).unwrap().to_vec();
        let s1 = sc.symbol_start(&pkt, 1) as usize;
        drop(sc);
        // Only the two available vectors occupy the arena.
        assert_eq!(scratch.arena.len(), 2 * n);

        let mut direct = DspScratch::new();
        d.signal_vector_scratch(&ant0[s1..s1 + l], pkt.cfo_cycles, &mut direct);
        let mut want = direct.fbuf.clone();
        d.signal_vector_scratch(&ant1[s1..s1 + l], pkt.cfo_cycles, &mut direct);
        for (w, b) in want.iter_mut().zip(&direct.fbuf) {
            *w += *b;
        }
        assert_eq!(got, want);
    }

    #[test]
    fn snr_estimate_tracks_truth() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let d = demod();
        let p = *d.params();
        let l = p.samples_per_symbol();
        let mut rng = StdRng::seed_from_u64(11);
        for snr_db in [-5.0f32, 0.0, 10.0] {
            let amp = tnb_dsp::stats::from_db(snr_db).sqrt();
            let mut wave: Vec<Complex32> = d
                .chirps()
                .symbol(40)
                .into_iter()
                .map(|z| z.scale(amp))
                .collect();
            tnb_channel::awgn::add_awgn(&mut rng, &mut wave, 1.0);
            let y = d.signal_vector(&wave, 0.0);
            let est = estimate_snr_db(&y, 40, l);
            assert!((est - snr_db).abs() < 3.0, "snr {snr_db} est {est}");
        }
    }

    #[test]
    fn known_noise_snr_is_tight() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let d = demod();
        let l = d.params().samples_per_symbol();
        let mut rng = StdRng::seed_from_u64(12);
        for snr_db in [-5.0f32, 0.0, 10.0, 20.0, 30.0] {
            let amp = tnb_dsp::stats::from_db(snr_db).sqrt();
            let mut wave: Vec<Complex32> = d
                .chirps()
                .symbol(99)
                .into_iter()
                .map(|z| z.scale(amp))
                .collect();
            tnb_channel::awgn::add_awgn(&mut rng, &mut wave, 1.0);
            let y = d.signal_vector(&wave, 0.0);
            let est = snr_from_peak_db(y[99], l, 1.0);
            assert!((est - snr_db).abs() < 1.5, "snr {snr_db} est {est}");
        }
    }
}
