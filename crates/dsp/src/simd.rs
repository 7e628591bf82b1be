//! Runtime-dispatched SIMD kernels for the three hot inner loops of the
//! decode pipeline: the de-chirp complex multiply, the radix-2 FFT
//! butterfly pass, and the magnitude/peak scan.
//!
//! The butterfly kernel serves only the FFT's wide stages (`half ≥ 4`
//! butterflies per block; a 2-point transform's one stage aside).
//! [`crate::fft`] runs the two small stages inline with the same scalar
//! formula, since a dispatched call there would do one or two scalar
//! butterflies.
//!
//! # Dispatch-once rule
//!
//! The backend is chosen once, on first kernel call, and cached in an
//! atomic: `TNB_SIMD=scalar|avx2` overrides detection (a request the
//! host cannot run falls back to scalar), any other value takes the best
//! backend the CPU supports. Tests pin a backend with [`force`];
//! production code never re-detects, so a long-running gateway cannot
//! change kernels mid-stream.
//!
//! # Two backends
//!
//! The scalar bodies and AVX2 (x86_64, runtime-detected). Every other
//! host, aarch64 included, runs the scalar bodies, which are the
//! reference the AVX2 bodies must match bit for bit. A vector backend
//! for another architecture belongs here only together with a CI job
//! that runs `tests/simd_parity.rs` on that architecture: a kernel that
//! no check compiles has a contract nobody verifies.
//!
//! # Bit-exactness contract
//!
//! Every vector kernel is **bit-identical** to its scalar reference for
//! every input, including non-finite values:
//!
//! - Complex multiplies keep the exact scalar operand order
//!   (`re·re − im·im`, `re·im + im·re`) using independent vector
//!   multiplies plus `addsub`/`add`/`sub` — never FMA, whose single
//!   rounding would diverge. Per-lane IEEE-754 ops round identically to
//!   their scalar counterparts, and matching operand *order* preserves
//!   NaN-payload propagation too.
//! - Magnitudes use `sqrt`, which IEEE requires to be correctly rounded
//!   in both scalar and vector forms.
//! - The min/max scan maps floats to totally ordered integer keys (the
//!   IEEE-754 `totalOrder` trick), making the reduction associative and
//!   order-independent — the same bits fall out no matter how lanes are
//!   combined.
//!
//! The kernels sit inside `tnb-lint: no_alloc` regions: they are called
//! per symbol from the receiver hot path and must never allocate or
//! panic (lengths are trimmed to the common prefix instead of asserted).

use crate::complex::Complex32;
use std::sync::atomic::{AtomicU8, Ordering};

/// Which kernel implementation services the hot loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar kernels — the reference semantics.
    Scalar,
    /// 256-bit AVX2 kernels (x86_64, runtime-detected).
    Avx2,
}

impl Backend {
    /// Lower-case name, as accepted by the `TNB_SIMD` override.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
        }
    }

    fn code(self) -> u8 {
        match self {
            Backend::Scalar => 1,
            Backend::Avx2 => 2,
        }
    }
}

/// 0 = not yet resolved; otherwise a [`Backend::code`].
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// True when this host can execute `b`'s kernels.
pub fn supported(b: Backend) -> bool {
    match b {
        Backend::Scalar => true,
        Backend::Avx2 => avx2_available(),
    }
}

#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_available() -> bool {
    false
}

/// The backend in effect, resolved on first use and cached (the
/// dispatch-once rule). Resolution order: a supported `TNB_SIMD`
/// override, then the best backend the CPU supports, then scalar.
pub fn active() -> Backend {
    match ACTIVE.load(Ordering::Relaxed) {
        2 => Backend::Avx2,
        1 => Backend::Scalar,
        _ => {
            let b = resolve();
            ACTIVE.store(b.code(), Ordering::Relaxed);
            b
        }
    }
}

fn resolve() -> Backend {
    let requested = std::env::var("TNB_SIMD").unwrap_or_default();
    resolve_request(&requested, avx2_available())
}

/// The backend that the `TNB_SIMD` value `requested` selects on a host
/// with or without AVX2. `scalar` always selects scalar. A request the
/// host cannot run degrades to scalar rather than crashing, since the
/// scalar path is always correct. Any other value (`auto`, empty,
/// unknown) takes the best backend the host supports.
fn resolve_request(requested: &str, avx2: bool) -> Backend {
    match (requested, avx2) {
        ("scalar", _) | (_, false) => Backend::Scalar,
        _ => Backend::Avx2,
    }
}

/// Pins `b` for all subsequent kernel calls (tests and the scalar
/// override knob). Returns `false`, leaving the active backend
/// unchanged, when the host cannot execute `b`.
pub fn force(b: Backend) -> bool {
    if supported(b) {
        ACTIVE.store(b.code(), Ordering::Relaxed);
        true
    } else {
        false
    }
}

// ---------------------------------------------------------------------
// Public dispatching kernels
// ---------------------------------------------------------------------

/// Elementwise complex multiply `out[i] = a[i] * b[i]` over the common
/// prefix of the three slices — the de-chirp inner loop.
// tnb-lint: no_alloc
pub fn cmul(a: &[Complex32], b: &[Complex32], out: &mut [Complex32]) {
    match active() {
        // SAFETY: `Backend::Avx2` is only ever stored (resolve/force)
        // after `is_x86_feature_detected!("avx2")` confirmed support.
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { avx2::cmul(a, b, out) },
        _ => cmul_scalar(a, b, out, 0),
    }
}

/// In-place elementwise complex multiply `buf[i] *= rhs[i]` over the
/// common prefix — the CFO-rotation half of the de-chirp.
// tnb-lint: no_alloc
pub fn cmul_assign(buf: &mut [Complex32], rhs: &[Complex32]) {
    match active() {
        // SAFETY: `Backend::Avx2` is only ever stored (resolve/force)
        // after `is_x86_feature_detected!("avx2")` confirmed support.
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { avx2::cmul_assign(buf, rhs) },
        _ => cmul_assign_scalar(buf, rhs, 0),
    }
}

/// One radix-2 butterfly pass over paired half-blocks: with
/// `t = b[k] * w[k]` (conjugating `w` for the inverse transform),
/// `a[k] ← a[k] + t` and `b[k] ← a[k] − t`. Operates on the common
/// prefix of `a`, `b` and `tw`. The FFT calls it from its third stage
/// on (`half ≥ 4`).
// tnb-lint: no_alloc
pub fn butterfly(a: &mut [Complex32], b: &mut [Complex32], tw: &[Complex32], conj_tw: bool) {
    match active() {
        // SAFETY: `Backend::Avx2` is only ever stored (resolve/force)
        // after `is_x86_feature_detected!("avx2")` confirmed support.
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { avx2::butterfly(a, b, tw, conj_tw) },
        _ => butterfly_scalar(a, b, tw, conj_tw, 0),
    }
}

/// Folded signal-vector magnitude `out[k] = (|front[k]| + |back[k]|)²`
/// over the common prefix — the paper's `Y[k]` fold after the FFT.
// tnb-lint: no_alloc
pub fn fold_mag(front: &[Complex32], back: &[Complex32], out: &mut [f32]) {
    match active() {
        // SAFETY: `Backend::Avx2` is only ever stored (resolve/force)
        // after `is_x86_feature_detected!("avx2")` confirmed support.
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { avx2::fold_mag(front, back, out) },
        _ => fold_mag_scalar(front, back, out, 0),
    }
}

/// Minimum and maximum of `x` under the IEEE-754 total order (so the
/// result is bitwise deterministic for *any* input, NaN included, and
/// independent of lane/reduction order). Returns
/// `(f32::INFINITY, f32::NEG_INFINITY)` for an empty slice.
// tnb-lint: no_alloc
pub fn min_max(x: &[f32]) -> (f32, f32) {
    if x.is_empty() {
        return (f32::INFINITY, f32::NEG_INFINITY);
    }
    let (lo, hi) = match active() {
        // SAFETY: `Backend::Avx2` is only ever stored (resolve/force)
        // after `is_x86_feature_detected!("avx2")` confirmed support.
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { avx2::min_max_keys(x) },
        _ => min_max_keys_scalar(x, 0, (i32::MAX, i32::MIN)),
    };
    (f32_from_key(lo), f32_from_key(hi))
}

/// True when every element of `x` is finite (the peak-scan sanitizer
/// pre-check). Exact: tests the exponent bits, like `f32::is_finite`.
// tnb-lint: no_alloc
pub fn all_finite(x: &[f32]) -> bool {
    match active() {
        // SAFETY: `Backend::Avx2` is only ever stored (resolve/force)
        // after `is_x86_feature_detected!("avx2")` confirmed support.
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { avx2::all_finite(x) },
        _ => all_finite_scalar(x, 0),
    }
}

// ---------------------------------------------------------------------
// Scalar reference kernels (also the remainder loops of the vector
// paths, entered at `skip` elements in).
// ---------------------------------------------------------------------

// tnb-lint: no_alloc
fn cmul_scalar(a: &[Complex32], b: &[Complex32], out: &mut [Complex32], skip: usize) {
    for ((&x, &y), o) in a.iter().zip(b).zip(out.iter_mut()).skip(skip) {
        *o = x * y;
    }
}

// tnb-lint: no_alloc
fn cmul_assign_scalar(buf: &mut [Complex32], rhs: &[Complex32], skip: usize) {
    for (o, &y) in buf.iter_mut().zip(rhs).skip(skip) {
        *o *= y;
    }
}

// tnb-lint: no_alloc
fn butterfly_scalar(
    a: &mut [Complex32],
    b: &mut [Complex32],
    tw: &[Complex32],
    conj_tw: bool,
    skip: usize,
) {
    for ((x, y), &w0) in a.iter_mut().zip(b.iter_mut()).zip(tw).skip(skip) {
        let w = if conj_tw { w0.conj() } else { w0 };
        butterfly_one(x, y, w);
    }
}

/// One radix-2 butterfly in the scalar reference formula and operation
/// order: `t = y·w`, `x ← x + t`, `y ← x − t`. The vector kernels match
/// it lane by lane, and the FFT's inline small stages call it directly.
// tnb-lint: no_alloc
#[inline(always)]
pub(crate) fn butterfly_one(x: &mut Complex32, y: &mut Complex32, w: Complex32) {
    let t = *y * w;
    let u = *x;
    *x = u + t;
    *y = u - t;
}

// tnb-lint: no_alloc
fn fold_mag_scalar(front: &[Complex32], back: &[Complex32], out: &mut [f32], skip: usize) {
    for ((&f, &b), o) in front.iter().zip(back).zip(out.iter_mut()).skip(skip) {
        let m = f.abs() + b.abs();
        *o = m * m;
    }
}

/// Monotone bijection from `f32` bit patterns to `i32` keys ordered by
/// the IEEE-754 total order. It is an involution on the bit level, so
/// [`f32_from_key`] applies the same transform to invert it.
#[inline]
fn key_from_f32(v: f32) -> i32 {
    let b = v.to_bits() as i32;
    b ^ (((b >> 31) as u32) >> 1) as i32
}

#[inline]
fn f32_from_key(k: i32) -> f32 {
    f32::from_bits((k ^ (((k >> 31) as u32) >> 1) as i32) as u32)
}

// tnb-lint: no_alloc
fn min_max_keys_scalar(x: &[f32], skip: usize, init: (i32, i32)) -> (i32, i32) {
    let (mut lo, mut hi) = init;
    for &v in x.iter().skip(skip) {
        let k = key_from_f32(v);
        lo = lo.min(k);
        hi = hi.max(k);
    }
    (lo, hi)
}

#[inline]
fn finite_bits(v: f32) -> bool {
    (v.to_bits() & 0x7F80_0000) != 0x7F80_0000
}

// tnb-lint: no_alloc
fn all_finite_scalar(x: &[f32], skip: usize) -> bool {
    x.iter().skip(skip).all(|&v| finite_bits(v))
}

// ---------------------------------------------------------------------
// AVX2 kernels (x86_64)
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::Complex32;
    use std::arch::x86_64::*;

    /// See [`super::cmul`].
    ///
    /// # Safety
    /// The CPU must support AVX2 (the dispatcher guarantees it).
    // tnb-lint: no_alloc
    #[target_feature(enable = "avx2")]
    // SAFETY: callers are gated on runtime AVX2 detection; all pointer
    // arithmetic below stays within the common prefix of the slices
    // (Complex32 is `repr(C)` — n complexes are exactly 2n packed f32s).
    pub unsafe fn cmul(a: &[Complex32], b: &[Complex32], out: &mut [Complex32]) {
        let n = a.len().min(b.len()).min(out.len());
        let quads = n / 4;
        let ap = a.as_ptr().cast::<f32>();
        let bp = b.as_ptr().cast::<f32>();
        let op = out.as_mut_ptr().cast::<f32>();
        for q in 0..quads {
            let av = _mm256_loadu_ps(ap.add(q * 8));
            let bv = _mm256_loadu_ps(bp.add(q * 8));
            _mm256_storeu_ps(op.add(q * 8), mul4(av, bv));
        }
        super::cmul_scalar(a, b, out, quads * 4);
    }

    /// See [`super::cmul_assign`].
    ///
    /// # Safety
    /// The CPU must support AVX2 (the dispatcher guarantees it).
    // tnb-lint: no_alloc
    // SAFETY: callers are gated on runtime AVX2 detection; pointer
    // arithmetic stays within the common prefix of the slices.
    #[target_feature(enable = "avx2")]
    pub unsafe fn cmul_assign(buf: &mut [Complex32], rhs: &[Complex32]) {
        let n = buf.len().min(rhs.len());
        let quads = n / 4;
        let bp = buf.as_mut_ptr().cast::<f32>();
        let rp = rhs.as_ptr().cast::<f32>();
        for q in 0..quads {
            let av = _mm256_loadu_ps(bp.add(q * 8));
            let bv = _mm256_loadu_ps(rp.add(q * 8));
            _mm256_storeu_ps(bp.add(q * 8), mul4(av, bv));
        }
        super::cmul_assign_scalar(buf, rhs, quads * 4);
    }

    /// Four complex products `a ⊙ b` in scalar operand order:
    /// `re = a.re·b.re − a.im·b.im`, `im = a.re·b.im + a.im·b.re`,
    /// via two independent multiplies and one `addsub` (no FMA).
    ///
    /// # Safety
    /// The CPU must support AVX2 (callers are `target_feature(avx2)`).
    // tnb-lint: no_alloc
    // SAFETY: pure register arithmetic, no memory access.
    #[target_feature(enable = "avx2")]
    unsafe fn mul4(av: __m256, bv: __m256) -> __m256 {
        let a_re = _mm256_moveldup_ps(av); // lanes (a0.re, a0.re, a1.re, …)
        let a_im = _mm256_movehdup_ps(av); // lanes (a0.im, a0.im, a1.im, …)
        let b_swap = _mm256_permute_ps(bv, 0xB1); // pairwise (im, re) swap
        let x = _mm256_mul_ps(a_re, bv); // even: re·re   odd: re·im
        let y = _mm256_mul_ps(a_im, b_swap); // even: im·im   odd: im·re
        _mm256_addsub_ps(x, y) // even: x − y   odd: x + y
    }

    /// See [`super::butterfly`].
    ///
    /// # Safety
    /// The CPU must support AVX2 (the dispatcher guarantees it).
    // tnb-lint: no_alloc
    // SAFETY: callers are gated on runtime AVX2 detection; pointer
    // arithmetic stays within the common prefix of the slices.
    #[target_feature(enable = "avx2")]
    pub unsafe fn butterfly(
        a: &mut [Complex32],
        b: &mut [Complex32],
        tw: &[Complex32],
        conj_tw: bool,
    ) {
        let half = a.len().min(b.len()).min(tw.len());
        let quads = half / 4;
        let ap = a.as_mut_ptr().cast::<f32>();
        let bp = b.as_mut_ptr().cast::<f32>();
        let tp = tw.as_ptr().cast::<f32>();
        // Sign-flip mask for the imaginary lanes: conjugation is an
        // exact bit operation, identical to the scalar `-im`.
        let conj_mask = _mm256_setr_ps(0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0);
        for q in 0..quads {
            let mut wv = _mm256_loadu_ps(tp.add(q * 8));
            if conj_tw {
                wv = _mm256_xor_ps(wv, conj_mask);
            }
            let bv = _mm256_loadu_ps(bp.add(q * 8));
            let t = mul4(bv, wv); // b[k] * w in scalar operand order
            let av = _mm256_loadu_ps(ap.add(q * 8));
            _mm256_storeu_ps(ap.add(q * 8), _mm256_add_ps(av, t));
            _mm256_storeu_ps(bp.add(q * 8), _mm256_sub_ps(av, t));
        }
        super::butterfly_scalar(a, b, tw, conj_tw, quads * 4);
    }

    /// See [`super::fold_mag`].
    ///
    /// # Safety
    /// The CPU must support AVX2 (the dispatcher guarantees it).
    // tnb-lint: no_alloc
    // SAFETY: callers are gated on runtime AVX2 detection; pointer
    // arithmetic stays within the common prefix of the slices.
    #[target_feature(enable = "avx2")]
    pub unsafe fn fold_mag(front: &[Complex32], back: &[Complex32], out: &mut [f32]) {
        let n = front.len().min(back.len()).min(out.len());
        let quads = n / 4;
        let fp = front.as_ptr().cast::<f32>();
        let bp = back.as_ptr().cast::<f32>();
        let op = out.as_mut_ptr();
        // Gathers the even (valid) lanes of the result into the low half.
        let even = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
        for q in 0..quads {
            let f = _mm256_loadu_ps(fp.add(q * 8));
            let b = _mm256_loadu_ps(bp.add(q * 8));
            let fsq = _mm256_mul_ps(f, f);
            let bsq = _mm256_mul_ps(b, b);
            // Even lanes: re² + im² in scalar order (re² is the first
            // addend, as in `norm_sqr`); odd lanes are discarded.
            let fns = _mm256_add_ps(fsq, _mm256_permute_ps(fsq, 0xB1));
            let bns = _mm256_add_ps(bsq, _mm256_permute_ps(bsq, 0xB1));
            let fab = _mm256_sqrt_ps(fns); // correctly rounded, like .sqrt()
            let bab = _mm256_sqrt_ps(bns);
            let m = _mm256_add_ps(fab, bab); // |front| first, as in scalar
            let y = _mm256_mul_ps(m, m);
            let packed = _mm256_permutevar8x32_ps(y, even);
            _mm_storeu_ps(op.add(q * 4), _mm256_castps256_ps128(packed));
        }
        super::fold_mag_scalar(front, back, out, quads * 4);
    }

    /// See [`super::min_max`]; returns total-order integer keys.
    ///
    /// # Safety
    /// The CPU must support AVX2 (the dispatcher guarantees it).
    // tnb-lint: no_alloc
    // SAFETY: callers are gated on runtime AVX2 detection; pointer
    // arithmetic stays within `x`; the store targets a local array.
    #[target_feature(enable = "avx2")]
    pub unsafe fn min_max_keys(x: &[f32]) -> (i32, i32) {
        let lanes = x.len() / 8;
        let p = x.as_ptr();
        let mut lo_v = _mm256_set1_epi32(i32::MAX);
        let mut hi_v = _mm256_set1_epi32(i32::MIN);
        for q in 0..lanes {
            let v = _mm256_loadu_si256(p.add(q * 8).cast());
            // Total-order key: b ^ ((b >>a 31) >>l 1) — flips the value
            // bits of negatives so integer compare matches totalOrder.
            let sign = _mm256_srai_epi32(v, 31);
            let flip = _mm256_srli_epi32(sign, 1);
            let k = _mm256_xor_si256(v, flip);
            lo_v = _mm256_min_epi32(lo_v, k);
            hi_v = _mm256_max_epi32(hi_v, k);
        }
        let mut lo_a = [0i32; 8];
        let mut hi_a = [0i32; 8];
        _mm256_storeu_si256(lo_a.as_mut_ptr().cast(), lo_v);
        _mm256_storeu_si256(hi_a.as_mut_ptr().cast(), hi_v);
        let mut lo = i32::MAX;
        let mut hi = i32::MIN;
        for i in 0..8 {
            lo = lo.min(lo_a[i]);
            hi = hi.max(hi_a[i]);
        }
        super::min_max_keys_scalar(x, lanes * 8, (lo, hi))
    }

    /// See [`super::all_finite`].
    ///
    /// # Safety
    /// The CPU must support AVX2 (the dispatcher guarantees it).
    // tnb-lint: no_alloc
    // SAFETY: callers are gated on runtime AVX2 detection; pointer
    // arithmetic stays within `x`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn all_finite(x: &[f32]) -> bool {
        let lanes = x.len() / 8;
        let p = x.as_ptr();
        let exp = _mm256_set1_epi32(0x7F80_0000u32 as i32);
        for q in 0..lanes {
            let v = _mm256_loadu_si256(p.add(q * 8).cast());
            let masked = _mm256_and_si256(v, exp);
            let nonfinite = _mm256_cmpeq_epi32(masked, exp);
            if _mm256_movemask_epi8(nonfinite) != 0 {
                return false;
            }
        }
        super::all_finite_scalar(x, lanes * 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signal(n: usize, seed: u64) -> Vec<Complex32> {
        let mut s = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) as f32 - 0.5
        };
        (0..n).map(|_| Complex32::new(next(), next())).collect()
    }

    #[test]
    fn scalar_backend_is_always_supported_and_forcible() {
        assert!(supported(Backend::Scalar));
        assert!(matches!(active(), Backend::Scalar | Backend::Avx2));
        assert_eq!(Backend::Scalar.name(), "scalar");
        assert_eq!(Backend::Avx2.name(), "avx2");
    }

    #[test]
    fn unsupported_backend_cannot_be_forced() {
        // Vacuous on AVX2 hosts: `simd_override_resolves_by_table`
        // checks the degrade-to-scalar rule on every host.
        if !supported(Backend::Avx2) {
            assert!(!force(Backend::Avx2));
        }
    }

    #[test]
    fn simd_override_resolves_by_table() {
        // (TNB_SIMD value, host has AVX2, backend selected)
        let table = [
            ("scalar", true, Backend::Scalar),
            ("scalar", false, Backend::Scalar),
            ("avx2", true, Backend::Avx2),
            ("avx2", false, Backend::Scalar),
            ("auto", true, Backend::Avx2),
            ("auto", false, Backend::Scalar),
            ("", true, Backend::Avx2),
            ("", false, Backend::Scalar),
            // An unknown value, like the name of a backend this crate
            // does not have, takes the best supported backend.
            ("neon", true, Backend::Avx2),
            ("neon", false, Backend::Scalar),
        ];
        for (requested, avx2, want) in table {
            assert_eq!(
                resolve_request(requested, avx2),
                want,
                "TNB_SIMD={requested:?}, avx2 {avx2}"
            );
        }
    }

    #[test]
    fn key_transform_is_an_involution_and_monotone() {
        let cases = [
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            1.5e-42, // subnormal
        ];
        for &v in &cases {
            let k = key_from_f32(v);
            assert_eq!(f32_from_key(k).to_bits(), v.to_bits(), "{v}");
        }
        // Monotone over an ordered ladder of representative values.
        let ladder = [
            f32::NEG_INFINITY,
            -1.0e30,
            -1.0,
            -f32::MIN_POSITIVE,
            -0.0,
            0.0,
            f32::MIN_POSITIVE,
            1.0,
            1.0e30,
            f32::INFINITY,
        ];
        for w in ladder.windows(2) {
            assert!(key_from_f32(w[0]) < key_from_f32(w[1]), "{w:?}");
        }
    }

    #[test]
    fn scalar_cmul_matches_operator() {
        let a = signal(37, 1);
        let b = signal(37, 2);
        let mut out = vec![Complex32::ZERO; 37];
        cmul_scalar(&a, &b, &mut out, 0);
        for i in 0..37 {
            assert_eq!(out[i], a[i] * b[i]);
        }
        let mut buf = a.clone();
        cmul_assign_scalar(&mut buf, &b, 0);
        assert_eq!(buf, out);
    }

    #[test]
    fn scalar_min_max_matches_total_order() {
        let xs = [3.0f32, -7.5, 0.25, 42.0, -0.0, 11.0];
        let (lo, hi) = min_max(&xs);
        assert_eq!(lo, -7.5);
        assert_eq!(hi, 42.0);
        assert_eq!(min_max(&[]), (f32::INFINITY, f32::NEG_INFINITY));
        // NaN sorts above +Inf in the total order; the result is still
        // deterministic.
        let (_, hi) = min_max(&[1.0, f32::NAN]);
        assert!(hi.is_nan());
    }

    #[test]
    fn scalar_all_finite_matches_is_finite() {
        assert!(all_finite(&[0.0, -1.0, 3.0e38]));
        assert!(!all_finite(&[0.0, f32::NAN]));
        assert!(!all_finite(&[f32::INFINITY]));
        assert!(!all_finite(&[f32::NEG_INFINITY, 1.0]));
        assert!(all_finite(&[]));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_kernels_match_scalar_bits() {
        if !supported(Backend::Avx2) {
            return; // nothing to compare on this host
        }
        for n in [0usize, 1, 3, 4, 7, 8, 64, 129] {
            let a = signal(n, 10 + n as u64);
            let b = signal(n, 20 + n as u64);
            let mut want = vec![Complex32::ZERO; n];
            let mut got = vec![Complex32::ZERO; n];
            cmul_scalar(&a, &b, &mut want, 0);
            // SAFETY: guarded by the `supported(Backend::Avx2)` check above.
            unsafe { avx2::cmul(&a, &b, &mut got) };
            assert_eq!(want, got, "cmul n={n}");

            let mut want_f = vec![0.0f32; n];
            let mut got_f = vec![0.0f32; n];
            fold_mag_scalar(&a, &b, &mut want_f, 0);
            // SAFETY: guarded by the `supported(Backend::Avx2)` check above.
            unsafe { avx2::fold_mag(&a, &b, &mut got_f) };
            for i in 0..n {
                assert_eq!(want_f[i].to_bits(), got_f[i].to_bits(), "fold n={n} i={i}");
            }

            let xs: Vec<f32> = a.iter().flat_map(|c| [c.re, c.im]).collect();
            // SAFETY: guarded by the `supported(Backend::Avx2)` check above.
            let got_mm = unsafe { avx2::min_max_keys(&xs) };
            let want_mm = min_max_keys_scalar(&xs, 0, (i32::MAX, i32::MIN));
            assert_eq!(want_mm, got_mm, "min_max n={n}");
            // SAFETY: guarded by the `supported(Backend::Avx2)` check above.
            let got_fin = unsafe { avx2::all_finite(&xs) };
            assert_eq!(all_finite_scalar(&xs, 0), got_fin, "all_finite n={n}");

            for conj_tw in [false, true] {
                let mut wa = a.clone();
                let mut wb = b.clone();
                let tw = signal(n, 30 + n as u64);
                let mut ga = a.clone();
                let mut gb = b.clone();
                butterfly_scalar(&mut wa, &mut wb, &tw, conj_tw, 0);
                // SAFETY: guarded by the `supported(Backend::Avx2)` check.
                unsafe { avx2::butterfly(&mut ga, &mut gb, &tw, conj_tw) };
                assert_eq!(wa, ga, "butterfly a n={n} conj={conj_tw}");
                assert_eq!(wb, gb, "butterfly b n={n} conj={conj_tw}");
            }
        }
    }

    #[test]
    fn kernels_trim_to_common_prefix() {
        let a = signal(8, 3);
        let b = signal(5, 4);
        let mut out = vec![Complex32::ZERO; 10];
        cmul(&a, &b, &mut out);
        for i in 0..5 {
            assert_eq!(out[i], a[i] * b[i]);
        }
        for o in out.iter().skip(5) {
            assert_eq!(*o, Complex32::ZERO);
        }
    }
}
