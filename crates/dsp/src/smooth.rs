//! Moving-window smoothers standing in for MATLAB `smoothdata`.
//!
//! Thrive fits a curve to the peak-height history of each packet to predict
//! the next peak's height (paper §5.3.3, Fig. 6). The paper uses MATLAB's
//! `smoothdata`, whose default method is a centred moving mean; we provide
//! that, and the helpers Thrive needs:
//! evaluating the fitted curve at a given index and the median absolute
//! deviation between data and fit.

/// Centred moving mean with window length `window` (clamped at the edges,
/// like MATLAB's `movmean` with default endpoint handling).
///
/// `window == 0` is treated as 1 (identity). Returns a vector the same
/// length as `data`.
pub fn moving_mean(data: &[f32], window: usize) -> Vec<f32> {
    let n = data.len();
    if n == 0 {
        return Vec::new();
    }
    let w = window.max(1);
    let half_left = (w - 1) / 2;
    let half_right = w / 2;
    let mut out = Vec::with_capacity(n);
    // Prefix sums in f64 so long histories do not lose precision.
    let mut prefix = Vec::with_capacity(n + 1);
    prefix.push(0.0f64);
    let mut running = 0.0f64;
    for &v in data {
        running += v as f64;
        prefix.push(running);
    }
    for i in 0..n {
        let lo = i.saturating_sub(half_left);
        let hi = (i + half_right + 1).min(n);
        let sum = prefix[hi] - prefix[lo];
        out.push((sum / (hi - lo) as f64) as f32);
    }
    out
}

/// The fitted-history model Thrive uses: a smoothed version of the observed
/// peak heights plus the spread of the data around the fit.
///
/// - `fitted`: smoothed curve (same length as the input history),
/// - `deviation`: median of `|data[i] - fitted[i]|` (paper: "the median of
///   the differences between the actual and fitted data").
#[derive(Debug, Clone)]
pub struct FittedHistory {
    /// Smoothed curve, one value per observed sample.
    pub fitted: Vec<f32>,
    /// Median absolute deviation of the data from the curve.
    pub deviation: f32,
}

/// Fits the peak-height history with a moving mean of length `window`
/// (Thrive uses this via `smoothdata` \[8\]).
pub fn fit_history(data: &[f32], window: usize) -> FittedHistory {
    let fitted = moving_mean(data, window);
    let mut devs: Vec<f32> = data
        .iter()
        .zip(&fitted)
        .map(|(&d, &f)| (d - f).abs())
        .collect();
    let deviation = if devs.is_empty() {
        0.0
    } else {
        crate::stats::median_mut(&mut devs)
    };
    FittedHistory { fitted, deviation }
}

impl FittedHistory {
    /// Value of the fitted curve at `index`, clamped to the fitted range so
    /// "the value of the fitted curve at the previous symbol" is defined
    /// even at the edges of the history.
    pub fn value_at(&self, index: usize) -> f32 {
        if self.fitted.is_empty() {
            return 0.0;
        }
        let i = index.min(self.fitted.len() - 1);
        self.fitted[i]
    }

    /// The last fitted value (the model's prediction for the next sample).
    pub fn last(&self) -> f32 {
        self.fitted.last().copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moving_mean_window_one_is_identity() {
        let d = [1.0, 5.0, 2.0, 8.0];
        assert_eq!(moving_mean(&d, 1), d.to_vec());
        assert_eq!(moving_mean(&d, 0), d.to_vec());
    }

    #[test]
    fn moving_mean_constant_preserved() {
        let d = [3.0; 10];
        for w in [1, 3, 5, 11] {
            for v in moving_mean(&d, w) {
                assert!((v - 3.0).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn moving_mean_interior_window3() {
        let d = [0.0, 3.0, 6.0, 9.0];
        let m = moving_mean(&d, 3);
        assert!((m[1] - 3.0).abs() < 1e-6);
        assert!((m[2] - 6.0).abs() < 1e-6);
        // Edge-clamped windows:
        assert!((m[0] - 1.5).abs() < 1e-6);
        assert!((m[3] - 7.5).abs() < 1e-6);
    }

    #[test]
    fn moving_mean_empty() {
        assert!(moving_mean(&[], 3).is_empty());
    }

    #[test]
    fn fit_history_tracks_trend() {
        // Linear ramp with alternating noise: fit should stay close to ramp.
        let d: Vec<f32> = (0..40)
            .map(|i| i as f32 + if i % 2 == 0 { 0.5 } else { -0.5 })
            .collect();
        let f = fit_history(&d, 5);
        for i in 5..35 {
            assert!((f.fitted[i] - i as f32).abs() < 0.6, "i={i}");
        }
        assert!(f.deviation <= 0.55, "deviation {}", f.deviation);
    }

    #[test]
    fn fit_history_value_at_clamps() {
        let f = fit_history(&[1.0, 2.0, 3.0], 1);
        assert_eq!(f.value_at(0), 1.0);
        assert_eq!(f.value_at(99), 3.0);
        assert_eq!(f.last(), 3.0);
    }

    #[test]
    fn fit_history_empty_is_zero() {
        let f = fit_history(&[], 5);
        assert_eq!(f.deviation, 0.0);
        assert_eq!(f.value_at(3), 0.0);
        assert_eq!(f.last(), 0.0);
    }
}
