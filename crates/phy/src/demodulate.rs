//! De-chirping and signal-vector computation (paper §3).
//!
//! A received symbol window `β` (length `N·U`) is de-chirped by
//! element-wise multiplication with the downchirp, FFT'd, and the
//! over-sampling aliases folded so the *signal vector*
//! `Y = |FFT(γ)| ⊙ |FFT(γ)|` has `N` bins with the peak at the symbol
//! value `h`.
//!
//! The energy of a symbol with value `h` lands in FFT bins `h` and
//! `N·(U−1) + h` of the length-`N·U` spectrum (the two aliases of the
//! dechirped sinusoid's wrapped frequency); folding sums the squared
//! magnitudes of both.

use crate::chirp::ChirpTable;
use crate::params::LoRaParams;
use tnb_dsp::scratch::fill_rotator;
use tnb_dsp::{simd, Complex32, DspScratch, FftPlan};

/// De-chirps `window` against `chirp` into `out`; with `rot` present the
/// CFO rotator is applied as a second elementwise multiply, preserving
/// the scalar association `(w·d)·rot` bit-for-bit. Both multiplies run
/// on the dispatched SIMD kernel.
fn dechirp_into(
    window: &[Complex32],
    chirp: &[Complex32],
    rot: Option<&[Complex32]>,
    out: &mut Vec<Complex32>,
) {
    out.clear();
    out.resize(window.len().min(chirp.len()), Complex32::ZERO);
    simd::cmul(window, chirp, out);
    if let Some(rot) = rot {
        simd::cmul_assign(out, rot);
    }
}

/// Reusable demodulator: owns the chirp table, FFT plan and scratch buffer
/// for one parameter set.
#[derive(Debug, Clone)]
pub struct Demodulator {
    params: LoRaParams,
    chirps: ChirpTable,
    plan: FftPlan,
}

impl Demodulator {
    /// Builds a demodulator for `params`.
    pub fn new(params: LoRaParams) -> Self {
        let chirps = ChirpTable::new(&params);
        let plan = FftPlan::new(params.samples_per_symbol());
        Demodulator {
            params,
            chirps,
            plan,
        }
    }

    /// The parameter set this demodulator was built for.
    #[inline]
    pub fn params(&self) -> &LoRaParams {
        &self.params
    }

    /// The underlying chirp table (shared with modulation code).
    #[inline]
    pub fn chirps(&self) -> &ChirpTable {
        &self.chirps
    }

    /// De-chirps a symbol window and returns the full complex spectrum of
    /// length `N·U` (the paper's *complex signal vector*, needed by the
    /// phase-coherent synchronization search).
    ///
    /// `cfo_cycles` is the carrier-frequency offset to *remove*, expressed
    /// in cycles per symbol (i.e. in units of `1/T` = one FFT bin).
    ///
    /// # Panics
    /// Panics if `window.len() != N·U`.
    pub fn complex_spectrum(&self, window: &[Complex32], cfo_cycles: f64) -> Vec<Complex32> {
        let l = self.params.samples_per_symbol();
        assert_eq!(window.len(), l, "window must be one symbol long"); // tnb-lint: allow(TNB-PANIC02) -- documented `# Panics` precondition: a wrong-length window is a caller bug, not hostile input
        let mut buf: Vec<Complex32> = Vec::with_capacity(l);
        if cfo_cycles == 0.0 {
            dechirp_into(window, self.chirps.downchirp(), None, &mut buf);
        } else {
            // Remove the CFO: multiply by e^{-j2π·δ·n/(N·U)} where δ is in
            // cycles per symbol.
            let mut rot: Vec<Complex32> = Vec::new();
            fill_rotator(l, cfo_cycles, &mut rot);
            dechirp_into(window, self.chirps.downchirp(), Some(&rot), &mut buf);
        }
        self.plan.forward(&mut buf);
        buf
    }

    /// Folds a complex spectrum of length `N·U` into the length-`N` signal
    /// vector `Y[k] = (|F[k]| + |F[N(U−1)+k]|)²`.
    ///
    /// A cyclically shifted chirp de-chirps into *two* tone segments whose
    /// lengths depend on the symbol value `h`; their magnitudes always sum
    /// to the full symbol length, so adding magnitudes before squaring
    /// (as LoRaPHY's reference implementation does) makes the peak height
    /// independent of `h`. Squaring restores the paper's power-like units
    /// `Y = |FFT(γ)| ⊙ |FFT(γ)|`.
    pub fn fold(&self, spectrum: &[Complex32]) -> Vec<f32> {
        let mut out = Vec::new();
        self.fold_into(spectrum, &mut out);
        out
    }

    /// Convenience: signal vector of a symbol window (de-chirp, FFT, fold).
    pub fn signal_vector(&self, window: &[Complex32], cfo_cycles: f64) -> Vec<f32> {
        self.fold(&self.complex_spectrum(window, cfo_cycles))
    }

    /// Complex spectrum of a window de-chirped with the *upchirp* (used
    /// for the preamble's downchirps). A downchirp at offset 0 peaks at
    /// bin 0. The CFO correction has the same sign as for upchirps: the
    /// offset sits on the received signal either way.
    pub fn complex_spectrum_down(&self, window: &[Complex32], cfo_cycles: f64) -> Vec<Complex32> {
        let l = self.params.samples_per_symbol();
        assert_eq!(window.len(), l, "window must be one symbol long"); // tnb-lint: allow(TNB-PANIC02) -- documented `# Panics` precondition: a wrong-length window is a caller bug, not hostile input
                                                                       // The rotator is applied even for a zero CFO (it is exactly 1+0i
                                                                       // there), matching the historical code path bit-for-bit.
        let mut rot: Vec<Complex32> = Vec::new();
        fill_rotator(l, cfo_cycles, &mut rot);
        let mut buf: Vec<Complex32> = Vec::with_capacity(l);
        dechirp_into(window, self.chirps.upchirp(), Some(&rot), &mut buf);
        self.plan.forward(&mut buf);
        buf
    }

    /// De-chirps with the *upchirp* instead (used to detect the preamble's
    /// downchirps) and folds. A downchirp at offset 0 peaks at bin 0.
    // tnb-lint: allow(TNB-DEAD01) -- allocating reference that the tests check signal_vector_down_scratch against
    pub fn signal_vector_down(&self, window: &[Complex32], cfo_cycles: f64) -> Vec<f32> {
        self.fold(&self.complex_spectrum_down(window, cfo_cycles))
    }

    /// Allocation-free [`Self::complex_spectrum`]: de-chirps into
    /// `scratch.cbuf` and FFTs it in place (plan from the scratch's
    /// cache, so one scratch serves demodulators of any size). The
    /// spectrum is left in `scratch.cbuf`.
    ///
    /// Produces bit-identical values to the allocating path.
    // tnb-lint: no_alloc_root -- de-chirp + in-place FFT inside the warm scratch
    pub fn complex_spectrum_scratch(
        &self,
        window: &[Complex32],
        cfo_cycles: f64,
        scratch: &mut DspScratch,
    ) {
        let l = self.params.samples_per_symbol();
        assert_eq!(window.len(), l, "window must be one symbol long"); // tnb-lint: allow(TNB-PANIC02) -- documented `# Panics` precondition: a wrong-length window is a caller bug, not hostile input
        let DspScratch {
            plans, cbuf, rot, ..
        } = scratch;
        let rot = (cfo_cycles != 0.0).then(|| rot.get(l, cfo_cycles));
        dechirp_into(window, self.chirps.downchirp(), rot, cbuf);
        plans.get(l).forward(cbuf);
    }

    /// Allocation-free [`Self::complex_spectrum_down`]: the upchirp-dechirped
    /// spectrum is left in `scratch.cbuf`.
    // tnb-lint: no_alloc_root -- upchirp de-chirp + in-place FFT inside the warm scratch
    pub fn complex_spectrum_down_scratch(
        &self,
        window: &[Complex32],
        cfo_cycles: f64,
        scratch: &mut DspScratch,
    ) {
        let l = self.params.samples_per_symbol();
        assert_eq!(window.len(), l, "window must be one symbol long"); // tnb-lint: allow(TNB-PANIC02) -- documented `# Panics` precondition: a wrong-length window is a caller bug, not hostile input
        let DspScratch {
            plans, cbuf, rot, ..
        } = scratch;
        dechirp_into(
            window,
            self.chirps.upchirp(),
            Some(rot.get(l, cfo_cycles)),
            cbuf,
        );
        plans.get(l).forward(cbuf);
    }

    /// [`Self::fold`] into a caller-owned buffer (cleared and refilled;
    /// capacity is reused across calls).
    // tnb-lint: no_alloc_root -- fold into a caller-owned buffer, capacity reused
    pub fn fold_into(&self, spectrum: &[Complex32], out: &mut Vec<f32>) {
        let n = self.params.n();
        let l = self.params.samples_per_symbol();
        debug_assert_eq!(spectrum.len(), l);
        out.clear();
        out.resize(n.min(spectrum.len()), 0.0);
        // The two alias segments: bins k and N(U−1)+k. The kernel trims
        // to the common prefix, which is exactly `n` on a well-formed
        // spectrum.
        let back = spectrum.get(l - n..).unwrap_or(spectrum);
        simd::fold_mag(spectrum, back, out);
    }

    /// Allocation-free [`Self::signal_vector`]: de-chirp, FFT and fold
    /// entirely inside `scratch`. The length-`N` signal vector is left in
    /// `scratch.fbuf` (and `scratch.cbuf` holds the complex spectrum).
    // tnb-lint: no_alloc_root -- full symbol path: de-chirp, FFT, fold, all in scratch
    pub fn signal_vector_scratch(
        &self,
        window: &[Complex32],
        cfo_cycles: f64,
        scratch: &mut DspScratch,
    ) {
        self.complex_spectrum_scratch(window, cfo_cycles, scratch);
        let DspScratch { cbuf, fbuf, .. } = scratch;
        self.fold_into(cbuf, fbuf);
    }

    /// Allocation-free [`Self::signal_vector_down`]: result in
    /// `scratch.fbuf`.
    // tnb-lint: no_alloc_root -- downchirp symbol path, all in scratch
    pub fn signal_vector_down_scratch(
        &self,
        window: &[Complex32],
        cfo_cycles: f64,
        scratch: &mut DspScratch,
    ) {
        self.complex_spectrum_down_scratch(window, cfo_cycles, scratch);
        let DspScratch { cbuf, fbuf, .. } = scratch;
        self.fold_into(cbuf, fbuf);
    }

    /// Demodulates a window to the most likely symbol value (argmax of the
    /// signal vector) and its peak height.
    pub fn demod_symbol(&self, window: &[Complex32], cfo_cycles: f64) -> (u16, f32) {
        let y = self.signal_vector(window, cfo_cycles);
        let (idx, &h) = y
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap_or((0, &0.0));
        (idx as u16, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{CodingRate, SpreadingFactor};

    fn demod(sf: SpreadingFactor) -> Demodulator {
        Demodulator::new(LoRaParams::new(sf, CodingRate::CR4))
    }

    #[test]
    fn clean_symbols_demodulate_exactly() {
        for sf in [
            SpreadingFactor::SF7,
            SpreadingFactor::SF8,
            SpreadingFactor::SF10,
        ] {
            let d = demod(sf);
            let n = d.params().n() as u16;
            for h in [0u16, 1, n / 3, n - 1] {
                let wave = d.chirps().symbol(h);
                let (got, _) = d.demod_symbol(&wave, 0.0);
                assert_eq!(got, h, "sf={sf:?} h={h}");
            }
        }
    }

    #[test]
    fn integer_cfo_shifts_peak() {
        let d = demod(SpreadingFactor::SF8);
        let l = d.params().samples_per_symbol();
        let h = 50u16;
        // Apply a CFO of +3 cycles per symbol to the transmitted symbol.
        let wave: Vec<Complex32> = d
            .chirps()
            .symbol(h)
            .into_iter()
            .enumerate()
            .map(|(n, z)| {
                z * Complex32::from_phase(2.0 * std::f64::consts::PI * 3.0 * n as f64 / l as f64)
            })
            .collect();
        let (got, _) = d.demod_symbol(&wave, 0.0);
        assert_eq!(got, h + 3);
        // Correcting the CFO restores the true value.
        let (got, _) = d.demod_symbol(&wave, 3.0);
        assert_eq!(got, h);
    }

    #[test]
    fn fractional_cfo_reduces_peak_height() {
        // Paper Fig. 1(c): a residual CFO of 0.5 cycles much reduces the
        // peak.
        let d = demod(SpreadingFactor::SF8);
        let l = d.params().samples_per_symbol();
        let h = 77u16;
        let clean = d.chirps().symbol(h);
        let (_, clean_height) = d.demod_symbol(&clean, 0.0);
        let shifted: Vec<Complex32> = clean
            .iter()
            .enumerate()
            .map(|(n, &z)| {
                z * Complex32::from_phase(2.0 * std::f64::consts::PI * 0.5 * n as f64 / l as f64)
            })
            .collect();
        let (_, off_height) = d.demod_symbol(&shifted, 0.0);
        assert!(
            off_height < clean_height * 0.75,
            "clean {clean_height} vs 0.5-cycle offset {off_height}"
        );
    }

    #[test]
    fn timing_error_reduces_peak_height() {
        // Paper Fig. 1(b): processing with a misaligned boundary lowers the
        // peak (part of the window holds a different symbol).
        let d = demod(SpreadingFactor::SF8);
        let l = d.params().samples_per_symbol();
        let wave = [d.chirps().symbol(30), d.chirps().symbol(200)].concat();
        let aligned = &wave[..l];
        let (_, aligned_height) = d.demod_symbol(aligned, 0.0);
        let misaligned = &wave[l / 4..l / 4 + l];
        let y = d.signal_vector(misaligned, 0.0);
        let mis_height = y[30];
        assert!(
            mis_height < aligned_height * 0.7,
            "aligned {aligned_height} vs misaligned {mis_height}"
        );
    }

    #[test]
    fn downchirp_detected_with_upchirp_dechirp() {
        let d = demod(SpreadingFactor::SF8);
        let l = d.params().samples_per_symbol();
        let mut wave = Vec::with_capacity(l);
        d.chirps().write_downchirps(1, 0, &mut wave);
        let y = d.signal_vector_down(&wave, 0.0);
        let peak = y
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(peak, 0);
    }

    #[test]
    fn two_collided_symbols_yield_two_peaks() {
        let d = demod(SpreadingFactor::SF8);
        let a = d.chirps().symbol(40);
        let b = d.chirps().symbol(150);
        let sum: Vec<Complex32> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        let y = d.signal_vector(&sum, 0.0);
        let mean = y.iter().sum::<f32>() / y.len() as f32;
        assert!(y[40] > 10.0 * mean);
        assert!(y[150] > 10.0 * mean);
    }

    #[test]
    #[should_panic(expected = "one symbol long")]
    fn wrong_window_length_panics() {
        let d = demod(SpreadingFactor::SF7);
        d.signal_vector(&[Complex32::ZERO; 5], 0.0);
    }

    #[test]
    fn scratch_path_is_bit_identical() {
        let d = demod(SpreadingFactor::SF8);
        let mut scratch = DspScratch::new();
        let wave = d.chirps().symbol(123);
        for cfo in [0.0, 1.25, -0.5] {
            let spec = d.complex_spectrum(&wave, cfo);
            d.complex_spectrum_scratch(&wave, cfo, &mut scratch);
            assert_eq!(spec, scratch.cbuf, "spectrum cfo={cfo}");

            let y = d.signal_vector(&wave, cfo);
            d.signal_vector_scratch(&wave, cfo, &mut scratch);
            assert_eq!(y, scratch.fbuf, "signal vector cfo={cfo}");

            let specd = d.complex_spectrum_down(&wave, cfo);
            d.complex_spectrum_down_scratch(&wave, cfo, &mut scratch);
            assert_eq!(specd, scratch.cbuf, "down spectrum cfo={cfo}");

            let yd = d.signal_vector_down(&wave, cfo);
            d.signal_vector_down_scratch(&wave, cfo, &mut scratch);
            assert_eq!(yd, scratch.fbuf, "down vector cfo={cfo}");
        }
        // One plan (the demodulator's size) was cached along the way.
        assert_eq!(scratch.plans.len(), 1);

        // The rotator memo must serve the table of the CFO asked for, not
        // the last one filled: interleaved CFOs, more CFOs than the memo
        // keeps followed by a revisit, and a demodulator of another size
        // sharing the scratch at the same CFO.
        let check = |d: &Demodulator, wave: &[Complex32], cfo: f64, s: &mut DspScratch| {
            d.complex_spectrum_scratch(wave, cfo, s);
            assert_eq!(d.complex_spectrum(wave, cfo), s.cbuf, "cfo={cfo}");
            d.complex_spectrum_down_scratch(wave, cfo, s);
            assert_eq!(d.complex_spectrum_down(wave, cfo), s.cbuf, "down cfo={cfo}");
        };
        for cfo in [0.75, -2.125, 0.75] {
            check(&d, &wave, cfo, &mut scratch);
        }
        for i in 0..12 {
            check(&d, &wave, 0.1 * i as f64 + 0.05, &mut scratch);
        }
        check(&d, &wave, 0.05, &mut scratch);
        let d7 = demod(SpreadingFactor::SF7);
        let wave7 = d7.chirps().symbol(45);
        for (dm, w) in [(&d7, &wave7), (&d, &wave), (&d7, &wave7)] {
            check(dm, w, 0.75, &mut scratch);
        }
    }
}
