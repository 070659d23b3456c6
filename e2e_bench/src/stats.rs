//! Order statistics over raw samples. Every quantile the benchmark reports
//! is taken from the full sample, never from a histogram.

/// Nearest-rank quantile of `samples` (`q` in `[0, 1]`). Returns 0 for an
/// empty sample. `f64::INFINITY` entries (failed operations) sort last, so
/// a failure counts as missing any latency limit.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest rank, lower middle for even counts).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn failures_sort_last() {
        let mut s: Vec<f64> = vec![1.0; 99];
        s.push(f64::INFINITY);
        assert_eq!(quantile(&s, 0.99), 1.0);
        assert!(quantile(&s, 1.0).is_infinite());
        s.push(f64::INFINITY);
        assert!(quantile(&s, 0.99).is_infinite());
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }
}
