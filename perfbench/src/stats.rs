//! Summary statistics shared by every workload.

/// Median of `samples` (mean of the two middle values for an even count).
/// Returns 0.0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let s = sorted(samples);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A tail latency chosen by the percentile rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the chosen rank.
    pub value: f64,
    /// Share of samples at or below `value`, in percent.
    pub percentile: f64,
    /// How many samples the percentile was taken over.
    pub count: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile that still has at least [`TAIL_MIN_BEYOND`]
/// samples beyond it. When too few samples exist for that percentile to sit
/// above the median, the median is the tail.
pub fn tail(samples: &[f64]) -> Tail {
    let n = samples.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            count: 0,
        };
    }
    let s = sorted(samples);
    let median_rank = (n - 1) / 2;
    let rank = n
        .checked_sub(TAIL_MIN_BEYOND + 1)
        .map_or(median_rank, |r| r.max(median_rank));
    if rank == median_rank {
        return Tail {
            value: median(samples),
            percentile: 50.0,
            count: n,
        };
    }
    Tail {
        value: s[rank],
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        count: n,
    }
}

/// Geometric mean of positive values (1.0 for an empty slice, the identity
/// of a ratio).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&samples);
        // Rank 89 (value 90) has samples 91..=100 beyond it: exactly ten.
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.count, 100);
        let beyond = samples.iter().filter(|&&v| v > t.value).count();
        assert_eq!(beyond, TAIL_MIN_BEYOND);
    }

    #[test]
    fn tail_scales_with_sample_count() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 99.0);
    }

    #[test]
    fn tail_falls_back_to_median_on_few_samples() {
        let samples: Vec<f64> = (1..=15).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!(t.value, 8.0);
        assert_eq!(t.percentile, 50.0);
        assert_eq!(t.count, 15);
        assert_eq!(tail(&[]).count, 0);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut samples: Vec<f64> = (1..=40).map(f64::from).collect();
        samples.reverse();
        assert_eq!(tail(&samples).value, 30.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
        assert!((geomean(&[0.98; 7]) - 0.98).abs() < 1e-12);
    }
}
