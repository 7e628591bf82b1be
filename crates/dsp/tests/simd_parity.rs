//! Scalar-vs-SIMD bit-exactness, property-tested.
//!
//! Every dispatched kernel must return **bitwise identical** results
//! under the scalar backend and AVX2 — across power-of-two-times-OSF sizes,
//! unaligned slice offsets, and NaN/Inf-poisoned inputs — for every
//! **non-NaN** output, and NaN outputs must be NaN at the same sites
//! under both backends. NaN *payload* bits are outside the contract:
//! LLVM treats `fmul`/`fadd` as commutative, so the optimized scalar
//! build itself is free to propagate either operand's payload, and
//! which one survives varies by codegen context (comparisons below
//! canonicalize every NaN to one bit pattern before demanding exact
//! bits). `find_peaks`, whose sanitizer and selectivity default ride
//! on `all_finite`/`min_max`, must report identical peaks under both
//! backends.
//!
//! AVX2 is the only vector backend: non-x86 hosts run the scalar
//! bodies, and there these tests compare scalar with scalar. A new
//! vector backend needs a CI job that runs this file on its
//! architecture.
//!
//! `simd::force` mutates process-global dispatch state, so every test
//! case serializes through one mutex.

use std::sync::Mutex;

use proptest::prelude::*;
use tnb_dsp::peakfinder::find_peaks;
use tnb_dsp::simd::{self, Backend};
use tnb_dsp::Complex32;

/// Serializes all `force()` flips: the active backend is process-global.
static BACKEND_LOCK: Mutex<()> = Mutex::new(());

/// The vector backend, if this host can execute it. On hosts without
/// AVX2 the parity tests degenerate to scalar-vs-scalar, which is
/// vacuously exact but keeps the suite portable.
fn simd_backend() -> Option<Backend> {
    Some(Backend::Avx2).filter(|&b| simd::supported(b))
}

/// Runs `f` under backend `b` (caller holds [`BACKEND_LOCK`]).
fn under<T>(b: Backend, f: impl FnOnce() -> T) -> T {
    assert!(simd::force(b), "backend {b:?} must be supported here");
    f()
}

/// Runs `f` under scalar and under the best SIMD backend, returning
/// both results for comparison.
fn scalar_vs_simd<T>(f: impl Fn() -> T) -> (T, T) {
    let _guard = BACKEND_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let scalar = under(Backend::Scalar, &f);
    let vector = under(simd_backend().unwrap_or(Backend::Scalar), &f);
    (scalar, vector)
}

/// Deterministic xorshift word stream.
fn words(seed: u64, n: usize) -> Vec<u64> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect()
}

/// `n` floats derived from raw bit patterns; roughly one in eight is
/// poisoned with a special value (NaNs with varied payloads, ±Inf,
/// negative zero, subnormals survive from the raw-bits path anyway).
fn poisoned_f32(seed: u64, n: usize) -> Vec<f32> {
    words(seed, n)
        .into_iter()
        .map(|w| {
            if w & 0x7 == 0 {
                match (w >> 3) & 0x3 {
                    0 => f32::from_bits(0x7FC0_0000 | (w >> 40) as u32 & 0x003F_FFFF),
                    1 => f32::INFINITY,
                    2 => f32::NEG_INFINITY,
                    _ => -0.0,
                }
            } else {
                // Raw bits, squashed away from the exponent extremes so
                // most values are ordinary finite floats.
                f32::from_bits((w as u32 & 0xC7FF_FFFF) | 0x3800_0000)
            }
        })
        .collect()
}

/// Finite-only variant (clean traces must stay on the fast paths).
fn finite_f32(seed: u64, n: usize) -> Vec<f32> {
    words(seed, n)
        .into_iter()
        .map(|w| ((w & 0xFFFF) as f32 / 32768.0 - 1.0) * 1.0e3)
        .collect()
}

fn poisoned_c32(seed: u64, n: usize) -> Vec<Complex32> {
    let re = poisoned_f32(seed, n);
    let im = poisoned_f32(seed ^ 0x9E37_79B9_7F4A_7C15, n);
    re.into_iter()
        .zip(im)
        .map(|(re, im)| Complex32 { re, im })
        .collect()
}

/// NaN-canonicalizing bit image: every NaN maps to one quiet-NaN
/// pattern, everything else (±Inf, ±0, subnormals) keeps its exact
/// bits. See the module docs for why NaN payloads are out of scope.
fn canon_bits(v: f32) -> u32 {
    if v.is_nan() {
        0x7FC0_0000
    } else {
        v.to_bits()
    }
}

fn bits_f32(x: &[f32]) -> Vec<u32> {
    x.iter().map(|&v| canon_bits(v)).collect()
}

fn bits_c32(x: &[Complex32]) -> Vec<(u32, u32)> {
    x.iter()
        .map(|z| (canon_bits(z.re), canon_bits(z.im)))
        .collect()
}

/// Sizes the demodulator actually uses: `2^e × OSF` for `e` in 6..=12
/// (OSF 8 is the repo default), plus the raw power of two.
fn kernel_len(e: u32, with_osf: bool) -> usize {
    (1usize << e) * if with_osf { 8 } else { 1 }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cmul_and_cmul_assign_bitwise_parity(
        seed in 0u64..100_000,
        e in 6u32..=12,
        with_osf in any::<bool>(),
        off in 0usize..7,
    ) {
        let n = kernel_len(e, with_osf);
        let a = poisoned_c32(seed, n + off);
        let b = poisoned_c32(seed.wrapping_add(1), n + off);
        let (s, v) = scalar_vs_simd(|| {
            let mut out = vec![Complex32::ZERO; n];
            simd::cmul(&a[off..], &b[off..], &mut out);
            let mut buf = a[off..].to_vec();
            simd::cmul_assign(&mut buf, &b[off..]);
            (bits_c32(&out), bits_c32(&buf))
        });
        prop_assert_eq!(s, v);
    }

    #[test]
    fn butterfly_bitwise_parity(
        seed in 0u64..100_000,
        e in 6u32..=12,
        conj_tw in any::<bool>(),
        off in 0usize..7,
    ) {
        let half = kernel_len(e, false);
        let a0 = poisoned_c32(seed, half + off);
        let b0 = poisoned_c32(seed.wrapping_add(2), half + off);
        let tw = poisoned_c32(seed.wrapping_add(3), half + off);
        let (s, v) = scalar_vs_simd(|| {
            let mut a = a0[off..].to_vec();
            let mut b = b0[off..].to_vec();
            simd::butterfly(&mut a, &mut b, &tw[off..], conj_tw);
            (bits_c32(&a), bits_c32(&b))
        });
        prop_assert_eq!(s, v);
    }

    #[test]
    fn fold_mag_bitwise_parity(
        seed in 0u64..100_000,
        e in 6u32..=12,
        off in 0usize..7,
        tail in 0usize..5,
    ) {
        let n = kernel_len(e, false);
        let front = poisoned_c32(seed, n + off);
        // `back` deliberately shorter: the fold's ragged tail (the last
        // `n - l + n` bins have no back half) must trim identically.
        let back = poisoned_c32(seed.wrapping_add(4), n.saturating_sub(tail) + off);
        let (s, v) = scalar_vs_simd(|| {
            let mut out = vec![0.0f32; n];
            simd::fold_mag(&front[off..], &back[off..], &mut out);
            bits_f32(&out)
        });
        prop_assert_eq!(s, v);
    }

    #[test]
    fn min_max_and_all_finite_bitwise_parity(
        seed in 0u64..100_000,
        n in 1usize..2_000,
        off in 0usize..7,
        clean in any::<bool>(),
    ) {
        let x = if clean {
            finite_f32(seed, n + off)
        } else {
            poisoned_f32(seed, n + off)
        };
        let (s, v) = scalar_vs_simd(|| {
            let (lo, hi) = simd::min_max(&x[off..]);
            (canon_bits(lo), canon_bits(hi), simd::all_finite(&x[off..]))
        });
        prop_assert_eq!(s, v);
        // all_finite agrees with the scalar definition exactly.
        prop_assert_eq!(s.2, x[off..].iter().all(|v| v.is_finite()));
    }

    #[test]
    fn find_peaks_identical_under_both_backends(
        seed in 0u64..100_000,
        n in 3usize..1_500,
        clean in any::<bool>(),
    ) {
        let x = if clean {
            finite_f32(seed, n)
        } else {
            poisoned_f32(seed, n)
        };
        let (s, v) = scalar_vs_simd(|| {
            let mut peaks = Vec::new();
            find_peaks(&x, 16, &mut peaks);
            peaks
                .into_iter()
                .map(|p| (p.index, canon_bits(p.height)))
                .collect::<Vec<_>>()
        });
        prop_assert_eq!(s, v);
    }
}

#[test]
fn empty_and_degenerate_inputs_match() {
    let _guard = BACKEND_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for b in [Backend::Scalar, simd_backend().unwrap_or(Backend::Scalar)] {
        under(b, || {
            assert_eq!(
                simd::min_max(&[]),
                (f32::INFINITY, f32::NEG_INFINITY),
                "{b:?}"
            );
            assert!(simd::all_finite(&[]), "{b:?}");
            let mut out: Vec<Complex32> = Vec::new();
            simd::cmul(&[], &[], &mut out);
            assert!(out.is_empty(), "{b:?}");
            let mut mags: Vec<f32> = Vec::new();
            simd::fold_mag(&[], &[], &mut mags);
            assert!(mags.is_empty(), "{b:?}");
        });
    }
}

#[test]
fn force_rejects_unsupported_backends() {
    let _guard = BACKEND_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Vacuous on AVX2 hosts; the `TNB_SIMD` resolution table in
    // `simd.rs` checks the degrade-to-scalar rule on every host.
    if !simd::supported(Backend::Avx2) {
        assert!(
            !simd::force(Backend::Avx2),
            "force(Avx2) accepted an unsupported backend"
        );
    }
    // Scalar is always accepted, and active() reflects the pin.
    assert!(simd::force(Backend::Scalar));
    assert_eq!(simd::active(), Backend::Scalar);
}
