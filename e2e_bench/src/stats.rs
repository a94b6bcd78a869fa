//! Order statistics for timing samples.
//!
//! Every end-to-end figure is a median or a tail percentile, never a
//! mean: a stall on a shared host moves a mean by the stall's full length
//! but moves a median only by one sample.

/// How many samples must lie beyond a tail percentile before it is
/// reported; with fewer the "tail" is a handful of outliers.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The median of `samples` (mean of the two middle values for an even
/// count). Panics on an empty slice: every caller measures at least one
/// sample before asking.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let s = sorted(samples);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        0.5 * (s[mid - 1] + s[mid])
    }
}

/// The nearest-rank `q`-quantile of `samples`, reported only when at
/// least [`TAIL_MIN_BEYOND`] samples lie strictly beyond its rank.
/// `None` means the run is too short to support that tail.
pub fn tail(samples: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..1.0).contains(&q), "tail quantile {q} outside [0, 1)");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    // Nearest rank: the smallest value with at least q·n samples at or
    // below it.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if beyond < TAIL_MIN_BEYOND {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

/// The smallest sample count for which [`tail`] reports quantile `q`.
pub fn min_samples_for_tail(q: f64) -> usize {
    (1..)
        .find(|&n: &usize| n - ((q * n as f64).ceil() as usize).clamp(1, n) >= TAIL_MIN_BEYOND)
        .expect("some sample count supports every q < 1")
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&ninety_nine, 0.9), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank 90 of 100: exactly ten samples (91..=100) lie beyond it.
        assert_eq!(tail(&hundred, 0.9), Some(90.0));
        assert_eq!(min_samples_for_tail(0.9), 100);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(min_samples_for_tail(0.99), 1000);
        let few: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(tail(&few, 0.99), None);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        v.reverse();
        assert_eq!(tail(&v, 0.9), Some(180.0));
    }
}
