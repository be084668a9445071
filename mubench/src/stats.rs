//! Order statistics over latency samples.

/// Candidate tail percentiles, highest first.
const TAIL_PERCENTILES: [f64; 8] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile for it to count as a tail.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` when `xs` is empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The highest percentile in [`TAIL_PERCENTILES`] that still has at least
/// [`MIN_BEYOND`] samples strictly beyond its nearest rank, with its value:
/// `(percentile, value)`. `None` when there are too few samples for any.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    if n <= MIN_BEYOND {
        return None;
    }
    TAIL_PERCENTILES
        .iter()
        .find(|&&p| n - rank(n, p) >= MIN_BEYOND)
        .map(|&p| (p, s[rank(n, p) - 1]))
}

/// 1-based nearest rank of percentile `p` among `n > 0` samples.
fn rank(n: usize, p: f64) -> usize {
    // The product is at most n, so the cast cannot truncate a valid rank.
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
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
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99.5 leaves 5 beyond, p99 leaves exactly 10.
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        // 100 samples: p95 leaves 5 beyond, p90 leaves 10.
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        // 20 samples: only the median leaves 10 beyond.
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)));
        // 199 samples: p95 has rank 190 and leaves 9 beyond, so p90.
        assert_eq!(tail(&ramp(199)).map(|t| t.0), Some(90.0));
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        assert_eq!(tail(&ramp(10)), None);
        assert_eq!(tail(&[]), None);
        // 11 samples: the median's rank is 6, leaving only 5 beyond.
        assert_eq!(tail(&ramp(11)), None);
    }
}
