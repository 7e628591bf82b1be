//! Small statistics helpers used by Thrive (median deviations) and the
//! evaluation harness (CDFs, percentiles, dB conversions).

/// Median of a slice, reordering it in place (avoids a copy in hot loops).
/// Returns 0.0 for an empty slice.
pub fn median_mut(data: &mut [f32]) -> f32 {
    let n = data.len();
    if n == 0 {
        return 0.0;
    }
    let mid = n / 2;
    let (_, m, _) = data.select_nth_unstable_by(mid, |a, b| a.total_cmp(b));
    let hi = *m;
    if n % 2 == 1 {
        hi
    } else {
        // Lower middle is the max of the left partition.
        let lo = data[..mid]
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max);
        (lo + hi) / 2.0
    }
}

/// Median of a slice without mutating it.
pub fn median(data: &[f32]) -> f32 {
    let mut copy = data.to_vec();
    median_mut(&mut copy)
}

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(data: &[f32]) -> f32 {
    if data.is_empty() {
        return 0.0;
    }
    (data.iter().map(|&v| v as f64).sum::<f64>() / data.len() as f64) as f32
}

/// Linearly interpolated percentile, `p` in `[0, 100]`. 0.0 for empty input.
pub fn percentile(data: &[f32], p: f32) -> f32 {
    if data.is_empty() {
        return 0.0;
    }
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f32;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f32;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Converts a linear power ratio to decibels. Non-positive input maps to
/// `-inf` dB.
pub fn to_db(linear: f32) -> f32 {
    if linear <= 0.0 {
        f32::NEG_INFINITY
    } else {
        10.0 * linear.log10()
    }
}

/// Converts decibels to a linear power ratio.
pub fn from_db(db: f32) -> f32 {
    10f32.powf(db / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn median_with_duplicates() {
        assert_eq!(median(&[1.0, 1.0, 1.0, 9.0]), 1.0);
    }

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn percentile_endpoints_and_interp() {
        let d = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&d, 0.0), 10.0);
        assert_eq!(percentile(&d, 100.0), 50.0);
        assert_eq!(percentile(&d, 50.0), 30.0);
        assert!((percentile(&d, 25.0) - 20.0).abs() < 1e-5);
        assert!((percentile(&d, 62.5) - 35.0).abs() < 1e-5);
    }

    #[test]
    fn db_roundtrip() {
        for &db in &[-20.0f32, -3.0, 0.0, 10.0, 17.5] {
            assert!((to_db(from_db(db)) - db).abs() < 1e-4);
        }
        assert_eq!(to_db(0.0), f32::NEG_INFINITY);
        assert!((from_db(3.0103) - 2.0).abs() < 1e-3);
    }
}
