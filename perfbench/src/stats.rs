//! Order statistics over timing samples.

/// A percentile is reported only with at least this many samples
/// strictly beyond it; below that it is one outlier's value.
pub const MIN_BEYOND: usize = 10;

/// Median of `v` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let s = sorted(v);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Nearest-rank `p`-th percentile of `v`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond its rank.
pub fn percentile(v: &[f64], p: f64) -> Option<f64> {
    if v.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let s = sorted(v);
    let rank = ((p / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    let beyond = s.len() - rank;
    (beyond >= MIN_BEYOND).then(|| s[rank - 1])
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 100 samples: rank 90, ten beyond.
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
        // 99 samples: rank 90, only nine beyond.
        assert_eq!(percentile(&ramp(99), 90.0), None);
        assert_eq!(percentile(&ramp(128), 90.0), Some(116.0));
    }

    #[test]
    fn p50_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_ignores_sample_order() {
        let mut v = ramp(200);
        v.reverse();
        assert_eq!(percentile(&v, 90.0), Some(180.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
