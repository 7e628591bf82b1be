//! Successive interference cancellation (SIC) rescue primitives.
//!
//! After the two Thrive/BEC passes, every packet that passed its CRC is
//! fully known: its payload re-encodes to the exact transmitted symbol
//! sequence, and the standard preamble prepends it. This module rebuilds
//! that packet's baseband waveform (mirroring the channel model's
//! impairment order: fractional delay, then CFO rotation), estimates a
//! per-symbol-block complex gain by least squares against the received
//! IQ buffer, and subtracts the scaled replica. Re-running detection and
//! Thrive/BEC on the residual then rescues packets the strong collider
//! had buried — the near-far regime plain TnB cannot enter because the
//! weak preamble never produces a detectable peak run.
//!
//! # Estimator
//!
//! For block `k` covering samples `B_k` of the replica `r` against the
//! received buffer `x`, the least-squares complex gain is
//!
//! ```text
//! g_k = Σ_{n ∈ B_k} x[n]·conj(r[n]) / Σ_{n ∈ B_k} |r[n]|²
//! ```
//!
//! accumulated in `f64`. One gain per symbol-length block absorbs the
//! amplitude, the constant channel phase, *and* slow phase drift from
//! residual CFO estimation error as a piecewise-constant phase ramp: a
//! CFO error of δ cycles/symbol leaves a residual power factor of about
//! `1 − sinc²(πδ)` ≈ `(πδ)²/3` per block, i.e. ~1.3e-3 at δ = 0.02 —
//! enough to sink a 20 dB-stronger collider below unit noise power.
//!
//! All hot-path functions here are allocation-free (`tnb-lint:
//! no_alloc`) apart from amortized growth of caller-owned buffers, and
//! none of them read the clock — determinism and the zero-alloc steady
//! state of the receiver are preserved.

use tnb_dsp::Complex32;
use tnb_phy::demodulate::Demodulator;
use tnb_phy::params::LoRaParams;

/// Configuration of the SIC rescue pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SicConfig {
    /// Run the rescue pass after the regular two-pass decode.
    pub enabled: bool,
}

/// Upper bound on rescue rounds per overlap component: each round
/// subtracts every decoded packet and re-decodes the residual; another
/// round only runs when the previous one decoded something new (which
/// exposes the next-weaker packet).
pub(crate) const MAX_ROUNDS: usize = 2;

/// Minimum estimated SNR (dB, against the configured noise power) of a
/// reconstructed packet for its subtraction to proceed. A replica whose
/// estimated gain power is below this floor is mostly fitting noise, and
/// subtracting it would *add* interference.
pub(crate) const MIN_RESIDUAL_SNR_DB: f32 = -15.0;

/// Rebuilds the baseband waveform of a decoded packet into `out`
/// (cleared first): the standard 12.25-symbol preamble followed by the
/// re-encoded data symbols, shifted by the fractional part of the
/// estimated start (`frac_delay`, applied only when positive — matching
/// the channel model) and rotated by the estimated CFO.
///
/// `cfo_cycles` is the CFO in units of FFT bins per symbol (the
/// detector's estimate); the per-sample phase step `2π·cfo/L` equals the
/// channel's `2π·f_cfo/f_s` exactly when `cfo = f_cfo / bin_hz`.
pub fn build_replica(
    demod: &Demodulator,
    known_symbols: &[u16],
    cfo_cycles: f64,
    frac_delay: f64,
    out: &mut Vec<Complex32>,
) {
    let chirps = demod.chirps();
    let l = demod.params().samples_per_symbol();
    out.clear();
    out.reserve(demod.params().preamble_samples() + known_symbols.len() * l + 1);
    for _ in 0..LoRaParams::PREAMBLE_UPCHIRPS {
        chirps.write_symbol(0, out);
    }
    for &sync in &LoRaParams::SYNC_VALUES {
        chirps.write_symbol(sync, out);
    }
    chirps.write_downchirps(2, l / 4, out);
    for &h in known_symbols {
        chirps.write_symbol(h, out);
    }
    if frac_delay > 0.0 {
        fractional_delay_in_place(out, frac_delay);
    }
    rotate_cfo(out, cfo_cycles, l);
}

/// Two-tap linear-interpolation delay by `frac` (0..1) samples, in place,
/// growing the buffer by one sample — the same filter the channel model
/// applies, so a replica built with the true offsets matches the channel
/// output sample for sample.
fn fractional_delay_in_place(samples: &mut Vec<Complex32>, frac: f64) {
    let frac = frac.rem_euclid(1.0) as f32;
    let n = samples.len();
    if n == 0 {
        return;
    }
    let last = samples[n - 1];
    samples.push(last.scale(frac));
    for i in (1..n).rev() {
        let prev = samples[i - 1];
        samples[i] = samples[i].scale(1.0 - frac) + prev.scale(frac);
    }
    samples[0] = samples[0].scale(1.0 - frac);
}

/// Rotates `samples` by a CFO of `cfo_cycles` bins per symbol of length
/// `samples_per_symbol`, phase-referenced to the packet start (index 0) —
/// the same convention as the channel model's `apply_cfo`.
// tnb-lint: no_alloc_root -- per-sample rotation over a caller-owned buffer
pub fn rotate_cfo(samples: &mut [Complex32], cfo_cycles: f64, samples_per_symbol: usize) {
    if cfo_cycles == 0.0 {
        return;
    }
    let step = 2.0 * std::f64::consts::PI * cfo_cycles / samples_per_symbol as f64;
    for (n, s) in samples.iter_mut().enumerate() {
        *s *= Complex32::from_phase(step * n as f64);
    }
}

/// Per-block complex least-squares gains of `replica` against `rx`,
/// written into `gains` (cleared first), one `(re, im)` pair per
/// `block`-sample block of the replica. `offset` is the index in `rx`
/// where `replica[0]` aligns and may be negative or run past the end:
/// out-of-range samples are simply excluded from the block's sums, and a
/// block with no usable overlap gets gain zero (its subtraction is a
/// no-op). Accumulation is in `f64` so even the longest (SF12) blocks
/// cost no precision.
// tnb-lint: no_alloc_root -- pushes into a caller-owned, amortized-capacity buffer
pub fn estimate_block_gains(
    rx: &[Complex32],
    replica: &[Complex32],
    offset: i64,
    block: usize,
    gains: &mut Vec<(f64, f64)>,
) {
    gains.clear();
    if block == 0 {
        return;
    }
    let mut b0 = 0usize;
    while b0 < replica.len() {
        let b1 = (b0 + block).min(replica.len());
        let mut num_re = 0.0f64;
        let mut num_im = 0.0f64;
        let mut den = 0.0f64;
        for (i, r) in replica.iter().enumerate().take(b1).skip(b0) {
            let n = offset + i as i64;
            if n < 0 {
                continue;
            }
            let Some(&x) = rx.get(n as usize) else {
                continue;
            };
            let (xr, xi) = (x.re as f64, x.im as f64);
            let (rr, ri) = (r.re as f64, r.im as f64);
            num_re += xr * rr + xi * ri;
            num_im += xi * rr - xr * ri;
            den += rr * rr + ri * ri;
        }
        if den > f64::EPSILON {
            gains.push((num_re / den, num_im / den));
        } else {
            gains.push((0.0, 0.0));
        }
        b0 = b1;
    }
}

/// Mean gain power `|g|²` over the blocks that had usable overlap (zero
/// gains are placeholders for off-trace blocks). With a unit-amplitude
/// replica this is the estimated received signal power per sample, so
/// `10·log₁₀(mean/noise_power)` is the packet's estimated SNR.
// tnb-lint: no_alloc_root
pub fn mean_gain_power(gains: &[(f64, f64)]) -> f64 {
    let mut sum = 0.0f64;
    let mut n = 0usize;
    for &(re, im) in gains {
        let p = re * re + im * im;
        if p > 0.0 {
            sum += p;
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Subtracts `gains[k] · replica[n]` from `residual[offset + n]` for
/// every block `k`, skipping out-of-range samples. `block` and `offset`
/// must match the [`estimate_block_gains`] call that produced `gains`.
// tnb-lint: no_alloc_root -- in-place subtraction over caller-owned buffers
pub fn subtract_replica(
    residual: &mut [Complex32],
    replica: &[Complex32],
    offset: i64,
    block: usize,
    gains: &[(f64, f64)],
) {
    if block == 0 {
        return;
    }
    for (k, &(gre, gim)) in gains.iter().enumerate() {
        if gre == 0.0 && gim == 0.0 {
            continue;
        }
        let g = Complex32::new(gre as f32, gim as f32);
        let b0 = k * block;
        let b1 = (b0 + block).min(replica.len());
        for (i, r) in replica.iter().enumerate().take(b1).skip(b0) {
            let n = offset + i as i64;
            if n < 0 {
                continue;
            }
            let Some(x) = residual.get_mut(n as usize) else {
                continue;
            };
            *x -= g * *r;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnb_phy::params::{CodingRate, LoRaParams, SpreadingFactor};
    use tnb_phy::Transmitter;

    fn demod() -> Demodulator {
        Demodulator::new(LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4))
    }

    #[test]
    fn replica_matches_transmitter_exactly() {
        let d = demod();
        let tx = Transmitter::new(*d.params());
        let payload = b"sic replica test";
        let symbols = tx.data_symbols(payload);
        let mut replica = Vec::new();
        build_replica(&d, &symbols, 0.0, 0.0, &mut replica);
        let clean = tx.transmit(payload);
        assert_eq!(replica.len(), clean.len());
        // Same ChirpTable construction on both sides: bitwise identical.
        assert_eq!(replica, clean);
    }

    #[test]
    fn fractional_delay_matches_channel_filter() {
        let d = demod();
        let tx = Transmitter::new(*d.params());
        let symbols = tx.data_symbols(b"frac");
        let mut replica = Vec::new();
        build_replica(&d, &symbols, 0.0, 0.37, &mut replica);
        let expect = tnb_channel::impairments::fractional_delay(&tx.transmit(b"frac"), 0.37);
        assert_eq!(replica.len(), expect.len());
        for (a, b) in replica.iter().zip(&expect) {
            assert!((*a - *b).abs() < 1e-6);
        }
    }

    #[test]
    fn gains_recover_amplitude_and_phase() {
        let d = demod();
        let l = d.params().samples_per_symbol();
        let rep: Vec<Complex32> = d.chirps().symbol(17);
        let g_true = Complex32::from_polar(0.35, 1.1);
        let rx: Vec<Complex32> = rep.iter().map(|&r| g_true * r).collect();
        let mut gains = Vec::new();
        estimate_block_gains(&rx, &rep, 0, l, &mut gains);
        assert_eq!(gains.len(), 1);
        let (re, im) = gains[0];
        assert!((re - g_true.re as f64).abs() < 1e-5);
        assert!((im - g_true.im as f64).abs() < 1e-5);
        // Subtraction removes (essentially) everything.
        let mut resid = rx.clone();
        subtract_replica(&mut resid, &rep, 0, l, &gains);
        let power: f32 = resid.iter().map(|z| z.norm_sqr()).sum::<f32>() / resid.len() as f32;
        assert!(power < 1e-8, "residual power {power}");
    }

    #[test]
    fn partial_overlap_is_tolerated() {
        let d = demod();
        let l = d.params().samples_per_symbol();
        let rep = d.chirps().symbol(3);
        let rx = vec![Complex32::ONE; l / 2];
        let mut gains = Vec::new();
        // Replica hangs off both ends; no panic, gains stay finite.
        estimate_block_gains(&rx, &rep, -((l / 4) as i64), l, &mut gains);
        assert_eq!(gains.len(), 1);
        let mut resid = rx.clone();
        subtract_replica(&mut resid, &rep, -((l / 4) as i64), l, &gains);
        assert!(resid.iter().all(|z| !z.is_nan()));
        // Zero-length and off-trace cases degrade to no-ops.
        estimate_block_gains(&rx, &rep, 10_000_000, l, &mut gains);
        assert!(gains.iter().all(|&(re, im)| re == 0.0 && im == 0.0));
        assert_eq!(mean_gain_power(&gains), 0.0);
    }
}
