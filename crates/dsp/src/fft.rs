//! Iterative radix-2 Cooley–Tukey FFT.
//!
//! Every transform the TnB pipeline performs has a power-of-two length
//! (`2^SF` at base rate or `2^SF · OSF` oversampled, with SF ∈ 6..=12 and
//! OSF a power of two), so a radix-2 kernel covers all of them.
//!
//! [`FftPlan`] precomputes twiddle factors and the bit-reversal swaps
//! once per size; the de-chirp loop then reuses the plan for every symbol.
//! Transforms are performed in place to avoid per-symbol allocations.
//!
//! The two small stages (`len = 2` and `4`, fewer than four butterflies
//! per block) run inline, fused in registers one 4-point block at a time.
//! Dispatch to [`crate::simd::butterfly`] starts at `half ≥ 4`, the first
//! stage where a vector backend has a whole vector of butterflies to run.
//! Every butterfly keeps the scalar reference's formula and operation
//! order, so the output bits are the same on every backend.

use crate::complex::Complex32;
use crate::simd::butterfly_one;

/// A reusable FFT plan for a fixed power-of-two size.
///
/// Create one with [`FftPlan::new`] and call [`FftPlan::forward`] /
/// [`FftPlan::inverse`] on buffers of exactly that size.
#[derive(Debug, Clone)]
pub struct FftPlan {
    size: usize,
    /// Twiddle factors `e^{-2πik/N}` (forward direction) flattened per
    /// stage (`len = 2, 4, …, N`): for each stage the `len/2` factors
    /// `e^{-2πi·(k·N/len)/N}`, `k in 0..len/2`, in order. The butterfly
    /// kernel walks a contiguous slice instead of a strided gather; the
    /// bits are identical to the classic half-size table. N−1 entries.
    stage_twiddles: Vec<Complex32>,
    /// The bit-reversal permutation as its swaps: each pair `(i, j)`,
    /// `i < j`, with `j` being `i` with `log2(N)` bits reversed, in
    /// ascending `i`.
    swaps: Vec<(u32, u32)>,
}

impl FftPlan {
    /// Builds a plan for transforms of length `size`.
    ///
    /// # Panics
    /// Panics if `size` is zero or not a power of two.
    pub fn new(size: usize) -> Self {
        // tnb-lint: allow(TNB-PANIC02) -- documented `# Panics` plan-construction precondition; FFT sizes are configuration constants, not decode input
        assert!(
            size.is_power_of_two() && size > 0,
            "FFT size must be a nonzero power of two, got {size}"
        );
        let bits = size.trailing_zeros();
        // Twiddles are generated from f64 phases so large sizes keep full
        // f32 accuracy.
        let twiddles: Vec<Complex32> = (0..size / 2)
            .map(|k| Complex32::from_phase(-2.0 * std::f64::consts::PI * k as f64 / size as f64))
            .collect();
        let mut stage_twiddles = Vec::with_capacity(size.saturating_sub(1));
        let mut len = 2;
        while len <= size {
            let stride = size / len;
            for k in 0..len / 2 {
                stage_twiddles.push(twiddles[k * stride]);
            }
            len <<= 1;
        }
        // For size == 1 the shift below would be 31 and maps 0 to 0, so
        // no special case is needed beyond bits.max(1).
        let swaps = (0..size as u32)
            .map(|i| (i, i.reverse_bits() >> (32 - bits.max(1))))
            .filter(|&(i, j)| j > i)
            .collect();
        FftPlan {
            size,
            stage_twiddles,
            swaps,
        }
    }

    /// The transform length this plan was built for.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// In-place forward DFT: `X[k] = Σ_n x[n] e^{-2πikn/N}` (no scaling).
    ///
    /// # Panics
    /// Panics if `buf.len() != self.size()`.
    // tnb-lint: no_alloc_root -- in-place transform, run per symbol by every decode stage
    pub fn forward(&self, buf: &mut [Complex32]) {
        assert_eq!(buf.len(), self.size, "buffer length must match plan size"); // tnb-lint: allow(TNB-PANIC02) -- documented `# Panics` precondition: a mis-sized buffer is a caller bug
        self.permute(buf);
        self.butterflies(buf, false);
    }

    /// In-place inverse DFT with `1/N` scaling, so
    /// `inverse(forward(x)) == x`.
    ///
    /// # Panics
    /// Panics if `buf.len() != self.size()`.
    // tnb-lint: no_alloc_root -- in-place transform, run per symbol by every decode stage
    pub fn inverse(&self, buf: &mut [Complex32]) {
        assert_eq!(buf.len(), self.size, "buffer length must match plan size"); // tnb-lint: allow(TNB-PANIC02) -- documented `# Panics` precondition: a mis-sized buffer is a caller bug
        self.permute(buf);
        self.butterflies(buf, true);
        let k = 1.0 / self.size as f32;
        for v in buf.iter_mut() {
            *v = v.scale(k);
        }
    }

    // tnb-lint: no_alloc
    fn permute(&self, buf: &mut [Complex32]) {
        for &(i, j) in &self.swaps {
            buf.swap(i as usize, j as usize);
        }
    }

    // tnb-lint: no_alloc
    fn butterflies(&self, buf: &mut [Complex32], inverse: bool) {
        let n = self.size;
        let mut len = 2;
        let mut toff = 0;
        if n >= 4 {
            first_two_stages(buf, &self.stage_twiddles, inverse);
            len = 8;
            toff = 3;
        }
        while len <= n {
            let half = len / 2;
            let tw = self
                .stage_twiddles
                .get(toff..toff + half)
                .unwrap_or_default();
            for block in buf.chunks_exact_mut(len) {
                let (a, b) = block.split_at_mut(half);
                crate::simd::butterfly(a, b, tw, inverse);
            }
            toff += half;
            len <<= 1;
        }
    }
}

/// The `len = 2` and `len = 4` stages over every 4-point block of `buf`,
/// in registers: per block, the two `len = 2` butterflies, then the two
/// `len = 4` ones. `tw` starts with the stages' three forward twiddles.
/// Each butterfly is the scalar reference's, so the bits match every
/// backend: the vector kernels run fewer than four butterflies in scalar
/// anyway.
// tnb-lint: no_alloc
#[inline(always)]
fn first_two_stages(buf: &mut [Complex32], tw: &[Complex32], inverse: bool) {
    let w = |k: usize| {
        let t = tw.get(k).copied().unwrap_or_default();
        if inverse {
            t.conj()
        } else {
            t
        }
    };
    let (w2, w40, w41) = (w(0), w(1), w(2));
    for block in buf.chunks_exact_mut(4) {
        let [mut x0, mut x1, mut x2, mut x3] = [block[0], block[1], block[2], block[3]];
        butterfly_one(&mut x0, &mut x1, w2);
        butterfly_one(&mut x2, &mut x3, w2);
        butterfly_one(&mut x0, &mut x2, w40);
        butterfly_one(&mut x1, &mut x3, w41);
        block.copy_from_slice(&[x0, x1, x2, x3]);
    }
}

/// Convenience one-shot forward FFT (allocates a plan; prefer [`FftPlan`] in
/// loops).
pub fn fft(input: &[Complex32]) -> Vec<Complex32> {
    let mut buf = input.to_vec();
    FftPlan::new(input.len()).forward(&mut buf);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    /// O(N²) reference DFT used to validate the FFT.
    fn naive_dft(x: &[Complex32]) -> Vec<Complex32> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex32::ZERO;
                for (i, &v) in x.iter().enumerate() {
                    let w = Complex32::from_phase(
                        -2.0 * std::f64::consts::PI * (k * i % n) as f64 / n as f64,
                    );
                    acc += v * w;
                }
                acc
            })
            .collect()
    }

    fn rand_signal(n: usize, seed: u64) -> Vec<Complex32> {
        // Tiny xorshift so the test has no external deps.
        let mut s = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) as f32 - 0.5
        };
        (0..n).map(|_| Complex32::new(next(), next())).collect()
    }

    #[test]
    fn matches_naive_dft() {
        for &n in &[1usize, 2, 4, 8, 64, 256] {
            let x = rand_signal(n, n as u64);
            let got = fft(&x);
            let want = naive_dft(&x);
            for (g, w) in got.iter().zip(&want) {
                assert!((*g - *w).abs() < 1e-3 * (n as f32).sqrt(), "n={n}");
            }
        }
    }

    #[test]
    fn inverse_roundtrip() {
        for &n in &[2usize, 16, 1024, 2048] {
            let x = rand_signal(n, 7 + n as u64);
            let mut y = fft(&x);
            FftPlan::new(n).inverse(&mut y);
            for (a, b) in x.iter().zip(&y) {
                assert!((*a - *b).abs() < 1e-4, "n={n}");
            }
        }
    }

    #[test]
    fn impulse_gives_flat_spectrum() {
        let mut x = vec![Complex32::ZERO; 32];
        x[0] = Complex32::ONE;
        let y = fft(&x);
        for v in y {
            assert!((v - Complex32::ONE).abs() < 1e-5);
        }
    }

    #[test]
    fn pure_tone_concentrates_in_one_bin() {
        let n = 256;
        let k0 = 37;
        let x: Vec<Complex32> = (0..n)
            .map(|i| {
                Complex32::from_phase(2.0 * std::f64::consts::PI * k0 as f64 * i as f64 / n as f64)
            })
            .collect();
        let y = fft(&x);
        let p: Vec<f32> = y.iter().map(|z| z.norm_sqr()).collect();
        let max_bin = p
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(max_bin, k0);
        // All energy should be in bin k0 (tone is bin-aligned).
        let total: f32 = p.iter().sum();
        assert!(p[k0] / total > 0.999);
    }

    #[test]
    fn parseval_energy_preserved() {
        let n = 512;
        let x = rand_signal(n, 99);
        let y = fft(&x);
        let ex: f32 = x.iter().map(|v| v.norm_sqr()).sum();
        let ey: f32 = y.iter().map(|v| v.norm_sqr()).sum::<f32>() / n as f32;
        assert!((ex - ey).abs() / ex < 1e-4);
    }

    #[test]
    fn linearity() {
        let n = 128;
        let a = rand_signal(n, 1);
        let b = rand_signal(n, 2);
        let sum: Vec<Complex32> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        let fa = fft(&a);
        let fb = fft(&b);
        let fsum = fft(&sum);
        for i in 0..n {
            assert!((fsum[i] - (fa[i] + fb[i])).abs() < 1e-3);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        FftPlan::new(48);
    }

    #[test]
    #[should_panic(expected = "must match plan size")]
    fn wrong_buffer_length_panics() {
        let plan = FftPlan::new(16);
        let mut buf = vec![Complex32::ZERO; 8];
        plan.forward(&mut buf);
    }

    /// The transform as it ran before the first two stages went inline
    /// and the permutation became a swap list, kept as the bit-identity
    /// reference: a full `rev` table, then one dispatched butterfly call
    /// per block in every stage.
    fn frozen_transform(buf: &mut [Complex32], inverse: bool) {
        let plan = FftPlan::new(buf.len());
        let n = plan.size;
        let bits = n.trailing_zeros();
        let rev: Vec<u32> = (0..n as u32)
            .map(|i| i.reverse_bits() >> (32 - bits.max(1)))
            .collect();
        for (i, &j) in rev.iter().enumerate() {
            if j as usize > i {
                buf.swap(i, j as usize);
            }
        }
        let mut len = 2;
        let mut toff = 0;
        while len <= n {
            let half = len / 2;
            let tw = &plan.stage_twiddles[toff..toff + half];
            for block in buf.chunks_exact_mut(len) {
                let (a, b) = block.split_at_mut(half);
                crate::simd::butterfly(a, b, tw, inverse);
            }
            toff += half;
            len <<= 1;
        }
        if inverse {
            let k = 1.0 / n as f32;
            for v in buf.iter_mut() {
                *v = v.scale(k);
            }
        }
    }

    /// Bits with every NaN mapped to one pattern: NaN payloads are outside
    /// the kernels' contract (see `tests/simd_parity.rs`).
    fn canon(x: &[Complex32]) -> Vec<(u32, u32)> {
        let c = |v: f32| if v.is_nan() { 0x7FC0_0000 } else { v.to_bits() };
        x.iter().map(|z| (c(z.re), c(z.im))).collect()
    }

    #[test]
    fn bit_identical_to_the_frozen_transform_on_every_backend() {
        use crate::simd::{self, Backend};
        let before = simd::active();
        let backends = [Backend::Scalar, Backend::Avx2];
        for b in backends.into_iter().filter(|&b| simd::supported(b)) {
            assert!(simd::force(b));
            for e in 0..=13 {
                let n = 1usize << e;
                let mut clean = rand_signal(n, 40 + e as u64);
                for v in clean.iter_mut().step_by(5) {
                    v.re = -0.0;
                }
                let mut poisoned = clean.clone();
                let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
                for (k, &v) in specials.iter().enumerate() {
                    let i = (k * 7 + 1) % n;
                    poisoned[i] = Complex32::new(v, poisoned[i].im);
                }
                for x in [&clean, &poisoned] {
                    for inverse in [false, true] {
                        let mut want = x.clone();
                        frozen_transform(&mut want, inverse);
                        let mut got = x.clone();
                        let plan = FftPlan::new(n);
                        if inverse {
                            plan.inverse(&mut got);
                        } else {
                            plan.forward(&mut got);
                        }
                        assert_eq!(canon(&got), canon(&want), "{b:?} n={n} inv={inverse}");
                    }
                }
            }
        }
        simd::force(before);
    }

    #[test]
    fn size_one_is_identity() {
        let plan = FftPlan::new(1);
        let mut buf = [Complex32::new(2.0, -3.0)];
        plan.forward(&mut buf);
        assert_eq!(buf[0], Complex32::new(2.0, -3.0));
    }
}
