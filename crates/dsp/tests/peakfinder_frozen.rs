//! `find_peaks` against a frozen copy of the previous implementation.
//!
//! The previous peak finder took a config struct and built its answer in
//! fresh vectors: a sanitized copy of a poisoned input, a rotated copy for
//! circular mode, and the returned list. The only mode the receiver ran
//! was circular, with the default selectivity and a `max_peaks` cap; that
//! mode is copied below verbatim (minus the unused options) and must
//! report the same peaks, index and height bits, as today's
//! allocation-free scan — over every length 3..=4096, several caps, clean,
//! plateau-heavy and NaN/±inf-poisoned inputs, under every SIMD backend
//! this host supports.

use tnb_dsp::peakfinder::{find_peaks, Peak};
use tnb_dsp::simd::{self, Backend};

/// The previous `find_peaks` with `circular: true`, `sel: None`,
/// `threshold: None`, `max_peaks: Some(cap)`.
fn frozen_find_peaks(x: &[f32], cap: usize) -> Vec<Peak> {
    if x.len() < 3 {
        return Vec::new();
    }
    if !simd::all_finite(x) {
        let lo = x
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .fold(f32::INFINITY, f32::min);
        if !lo.is_finite() {
            return Vec::new();
        }
        let sanitized: Vec<f32> = x
            .iter()
            .map(|&v| if v.is_finite() { v } else { lo })
            .collect();
        let mut peaks = frozen_find_peaks(&sanitized, cap);
        peaks.retain(|p| x[p.index].is_finite());
        return peaks;
    }
    let (lo, hi) = simd::min_max(x);
    let sel = (hi - lo) / 4.0;
    let mut peaks = frozen_circular(x, sel);
    if peaks.len() > cap {
        peaks.sort_by(|a, b| b.height.total_cmp(&a.height));
        peaks.truncate(cap);
        peaks.sort_by_key(|p| p.index);
    }
    peaks
}

fn frozen_linear(x: &[f32], sel: f32, include_endpoints: bool) -> Vec<Peak> {
    let n = x.len();
    let mut peaks = Vec::new();
    let mut left_min = x[0];
    let mut candidate: Option<Peak> = None;
    if include_endpoints && x[0] > x[1] {
        candidate = Some(Peak {
            index: 0,
            height: x[0],
        });
    }
    for (i, &v) in x.iter().enumerate().skip(1) {
        match candidate {
            Some(c) => {
                if v > c.height {
                    candidate = Some(Peak {
                        index: i,
                        height: v,
                    });
                } else if v < c.height - sel {
                    peaks.push(c);
                    candidate = None;
                    left_min = v;
                }
            }
            None => {
                left_min = left_min.min(v);
                if v > left_min + sel {
                    candidate = Some(Peak {
                        index: i,
                        height: v,
                    });
                }
            }
        }
    }
    if let Some(c) = candidate {
        if include_endpoints || c.index + 1 < n {
            peaks.push(c);
        }
    }
    peaks
}

fn frozen_circular(x: &[f32], sel: f32) -> Vec<Peak> {
    let n = x.len();
    let min_idx = x
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0);
    let rotated: Vec<f32> = (0..n).map(|i| x[(i + min_idx) % n]).collect();
    let mut peaks = frozen_linear(&rotated, sel, true);
    for p in &mut peaks {
        p.index = (p.index + min_idx) % n;
    }
    peaks.sort_by_key(|p| p.index);
    peaks
}

/// Deterministic xorshift stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn unit(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 24) as f32
    }
}

/// Input families: 0 = clean noise with a few strong peaks, 1 = values
/// on five levels (plateaus and many equal-height peaks, so the cap's
/// tie order matters), 2 = family 1 with NaN/±inf and ±0 bins.
fn input(kind: u32, n: usize, rng: &mut Rng) -> Vec<f32> {
    (0..n)
        .map(|_| match kind {
            0 => {
                let v = rng.unit();
                if rng.next().is_multiple_of(37) {
                    40.0 * v
                } else {
                    v
                }
            }
            1 => (rng.next() % 5) as f32,
            _ => match rng.next() % 23 {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                3 => -0.0,
                _ => (rng.next() % 5) as f32,
            },
        })
        .collect()
}

fn bits(peaks: &[Peak]) -> Vec<(usize, u32)> {
    peaks
        .iter()
        .map(|p| (p.index, p.height.to_bits()))
        .collect()
}

#[test]
fn matches_the_frozen_circular_capped_finder() {
    let backends: Vec<Backend> = [Backend::Scalar, Backend::Avx2]
        .into_iter()
        .filter(|&b| simd::supported(b))
        .collect();
    let mut out = Vec::new();
    for b in backends {
        assert!(simd::force(b));
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        for n in 3..=4096 {
            for kind in 0..3 {
                let x = input(kind, n, &mut rng);
                for cap in [1, 2, 8, 16, n, usize::MAX] {
                    find_peaks(&x, cap, &mut out);
                    assert_eq!(
                        bits(&out),
                        bits(&frozen_find_peaks(&x, cap)),
                        "backend {b:?}, n {n}, kind {kind}, cap {cap}"
                    );
                }
            }
        }
    }
}
