//! Local-maxima detection: a port of the MATLAB `peakfinder` routine
//! (N. Yoder, MATLAB Central #25500), which the paper uses as its peak
//! detector (reference \[29\]).
//!
//! The algorithm walks the alternating local extrema of the input and keeps
//! a maximum only if it stands out from the neighbouring minima by more than
//! the MATLAB default *selectivity* `(max(x) − min(x)) / 4`. This
//! suppresses spectral ripple around a strong FFT peak while keeping
//! genuinely separate peaks from different LoRa transmitters.
//!
//! TnB runs it in one mode, with two extensions beyond the MATLAB
//! original:
//!
//! - **Circular**: LoRa signal vectors are FFT-bin vectors, so a peak can
//!   straddle the bin-0 boundary. The endpoints are neighbours.
//! - A hard `max_peaks` cap (Thrive bounds the number of peaks per symbol
//!   by `2M`), keeping the tallest peaks.

/// A detected peak.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peak {
    /// Index of the peak sample in the input vector.
    pub index: usize,
    /// Height of the peak sample.
    pub height: f32,
}

/// Finds the local maxima of the circular vector `x` and writes the
/// tallest `max_peaks` of them to `out` (cleared first), sorted by index.
/// Equal heights keep the lower index.
///
/// Inputs shorter than 3 samples yield no peaks (matching the MATLAB
/// routine, which requires a neighbourhood). `out` keeps its capacity,
/// so a reused buffer makes the call allocation-free.
// tnb-lint: no_alloc_root -- once per detect-scan window and per Thrive slot; peaks go to the caller's buffer
pub fn find_peaks(x: &[f32], max_peaks: usize, out: &mut Vec<Peak>) {
    out.clear();
    if x.len() < 3 {
        return;
    }
    // NaN/Inf bins (hostile or broken front-end input) must neither win
    // peak selection nor poison the selectivity estimate. The all-finite
    // fast path scans `x` as it is; otherwise non-finite bins are scanned
    // as the finite minimum, so they can never stand out from their
    // neighbourhood.
    if crate::simd::all_finite(x) {
        // Total-order min/max (SIMD-dispatched): on all-finite input it
        // agrees with the naive `f32::min`/`max` fold up to the sign of a
        // ±0 extremum, which cancels in `hi - lo`.
        let (lo, hi) = crate::simd::min_max(x);
        scan_circular(x, (hi - lo) / 4.0, |v| v, out);
    } else {
        let (lo, hi) = x
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), v| {
                (lo.min(v), hi.max(v))
            });
        if !lo.is_finite() {
            return; // nothing finite: no meaningful peaks
        }
        let floor = |v: f32| if v.is_finite() { v } else { lo };
        scan_circular(x, (hi - lo) / 4.0, floor, out);
    }

    if out.len() > max_peaks {
        // Keep the tallest `max_peaks` (ties: lower index first), then
        // restore index order.
        out.select_nth_unstable_by(max_peaks, |a, b| {
            b.height.total_cmp(&a.height).then(a.index.cmp(&b.index))
        });
        out.truncate(max_peaks);
        out.sort_unstable_by_key(|p| p.index);
    }
    // A floored bin can only be reported if the whole vector is flat;
    // drop anything whose height is the stand-in for a bad bin.
    out.retain(|p| x[p.index].is_finite());
}

/// The MATLAB alternating-extrema scan over `s(x)` as a circle, walked
/// `x[start..]` then `x[..start]` from its first global minimum `start`
/// (which can never be inside a peak).
///
/// It keeps the lowest value seen since the last confirmed peak
/// (`left_min`); a candidate maximum starts once a sample exceeds
/// `left_min + sel`, climbs while the signal rises, and becomes a peak
/// once the signal drops more than `sel` below it. A candidate still live
/// at the end of the walk wraps down to the global minimum, which
/// confirms it.
fn scan_circular(x: &[f32], sel: f32, s: impl Fn(f32) -> f32, out: &mut Vec<Peak>) {
    let n = x.len();
    let start = (0..n)
        .min_by(|&a, &b| s(x[a]).total_cmp(&s(x[b])))
        .unwrap_or(0);
    let mut left_min = s(x[start]);
    let mut candidate: Option<Peak> = None;
    for i in (start + 1..n).chain(0..start) {
        let v = s(x[i]);
        match candidate {
            Some(c) => {
                if v > c.height {
                    // Still climbing: move the candidate up.
                    candidate = Some(Peak {
                        index: i,
                        height: v,
                    });
                } else if v < c.height - sel {
                    // Dropped far enough below the candidate: confirm it.
                    out.push(c);
                    candidate = None;
                    left_min = v;
                }
            }
            None => {
                left_min = left_min.min(v);
                // A rise of more than `sel` above the running minimum
                // starts a new candidate.
                if v > left_min + sel {
                    candidate = Some(Peak {
                        index: i,
                        height: v,
                    });
                }
            }
        }
    }
    out.extend(candidate);
    // Peaks past `start` were found first: rotate to index order.
    let wrapped = out.partition_point(|p| p.index > start);
    out.rotate_left(wrapped);
}

/// Quadratic (parabolic) interpolation of a peak's fractional position from
/// its two neighbours. Returns the fractional index offset in `[-0.5, 0.5]`
/// and the interpolated height.
///
/// Used by analyses that need sub-bin peak positions; Thrive itself works on
/// integer bins.
pub fn refine_peak(x: &[f32], index: usize) -> (f32, f32) {
    let n = x.len();
    if n < 3 {
        return (0.0, x.get(index).copied().unwrap_or(0.0));
    }
    let l = x[(index + n - 1) % n];
    let c = x[index];
    let r = x[(index + 1) % n];
    let denom = l - 2.0 * c + r;
    if denom.abs() < 1e-20 {
        return (0.0, c);
    }
    let delta = 0.5 * (l - r) / denom;
    let delta = delta.clamp(-0.5, 0.5);
    let height = c - 0.25 * (l - r) * delta;
    (delta, height)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peaks(x: &[f32], max_peaks: usize) -> Vec<Peak> {
        let mut out = Vec::new();
        find_peaks(x, max_peaks, &mut out);
        out
    }

    fn indices(x: &[f32]) -> Vec<usize> {
        peaks(x, usize::MAX).iter().map(|p| p.index).collect()
    }

    #[test]
    fn single_triangle_peak() {
        let x = [0.0, 1.0, 4.0, 1.0, 0.0];
        let p = peaks(&x, usize::MAX);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].index, 2);
        assert_eq!(p[0].height, 4.0);
    }

    #[test]
    fn two_separated_peaks() {
        assert_eq!(indices(&[0.0, 5.0, 0.0, 0.0, 7.0, 0.0, 0.0]), vec![1, 4]);
    }

    #[test]
    fn ripple_below_selectivity_is_ignored() {
        // Main peak 10 with ripple of ±0.5 around it; sel = 2.5.
        let x = [0.0, 0.5, 0.2, 0.6, 10.0, 0.4, 0.7, 0.3, 0.0];
        assert_eq!(indices(&x), vec![4]);
    }

    #[test]
    fn max_peaks_keeps_tallest() {
        let x = [0.0, 3.0, 0.0, 9.0, 0.0, 6.0, 0.0];
        assert_eq!(indices(&x), vec![1, 3, 5]);
        let p = peaks(&x, 2);
        assert_eq!(p.len(), 2);
        assert_eq!(p[0].index, 3);
        assert_eq!(p[1].index, 5);
    }

    #[test]
    fn circular_peak_at_wraparound() {
        // Peak centred on bin 0 of a circular vector.
        assert_eq!(indices(&[10.0, 4.0, 0.0, 0.0, 0.0, 0.0, 0.0, 4.0]), vec![0]);
    }

    #[test]
    fn circular_two_peaks() {
        assert_eq!(
            indices(&[9.0, 1.0, 0.0, 6.0, 0.5, 0.0, 0.0, 2.0]),
            vec![0, 3]
        );
    }

    #[test]
    fn circular_peak_at_last_bin() {
        // Peak in the final bin, valley wraps through bin 0.
        assert_eq!(indices(&[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3.0, 10.0]), vec![7]);
    }

    #[test]
    fn flat_signal_has_no_peaks() {
        assert!(indices(&[1.0; 16]).is_empty());
        assert!(indices(&[0.0, 0.0]).is_empty());
    }

    #[test]
    fn plateau_reports_first_top_sample() {
        assert_eq!(indices(&[0.0, 5.0, 5.0, 5.0, 0.0]), vec![1]);
    }

    #[test]
    fn nan_and_inf_bins_never_win() {
        // A NaN next to a genuine peak, +Inf in the flank, -Inf in the
        // valley: only the real peaks may be reported.
        let x = [
            0.0,
            5.0,
            0.0,
            f32::NAN,
            0.0,
            f32::INFINITY,
            0.0,
            7.0,
            f32::NEG_INFINITY,
            0.0,
        ];
        let p = peaks(&x, usize::MAX);
        assert!(!p.is_empty());
        for pk in &p {
            assert!(pk.height.is_finite(), "{pk:?}");
            assert!(x[pk.index].is_finite(), "{pk:?}");
        }
        assert!(p.iter().any(|pk| pk.index == 1));
        assert!(p.iter().any(|pk| pk.index == 7));
    }

    #[test]
    fn all_nonfinite_input_yields_no_peaks() {
        assert!(indices(&[f32::NAN; 8]).is_empty());
        assert!(indices(&[f32::INFINITY; 8]).is_empty());
    }

    #[test]
    fn finite_input_unaffected_by_sanitizer() {
        // The sanitizer's fast path: clean input reports every peak that
        // clears the selectivity.
        assert_eq!(peaks(&[0.0, 3.0, 0.0, 9.0, 0.0, 6.0, 0.0], 8).len(), 3);
    }

    #[test]
    fn output_buffer_is_cleared_and_reused() {
        let mut out = Vec::with_capacity(2);
        out.push(Peak {
            index: 99,
            height: 1.0,
        });
        let ptr = out.as_ptr();
        find_peaks(&[0.0, 1.0, 4.0, 1.0, 0.0], 8, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].index, 2);
        find_peaks(&[0.0, 5.0, 0.0, 0.0, 7.0, 0.0, 0.0], 8, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out.as_ptr(), ptr);
    }

    #[test]
    fn refine_peak_recovers_fractional_position() {
        // Sample a parabola with apex at 4.3.
        let apex = 4.3_f32;
        let x: Vec<f32> = (0..9).map(|i| 10.0 - (i as f32 - apex).powi(2)).collect();
        let (d, h) = refine_peak(&x, 4);
        assert!((d - 0.3).abs() < 1e-4, "delta {d}");
        assert!((h - 10.0).abs() < 1e-3, "height {h}");
    }

    #[test]
    fn refine_peak_wraps_circularly() {
        let x = [10.0, 6.0, 0.0, 0.0, 0.0, 0.0, 0.0, 6.0];
        let (d, _) = refine_peak(&x, 0);
        assert!(d.abs() < 1e-6); // symmetric neighbours -> centred
    }
}
