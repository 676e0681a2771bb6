//! Order statistics for latency samples.

/// Percentiles the tail is chosen from, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Sorts `v` ascending (all values must be finite).
pub fn sort(v: &mut [f64]) {
    v.sort_by(f64::total_cmp);
}

/// Nearest-rank percentile of an ascending slice: the value at 1-based
/// rank `ceil(p/100 * n)`. Returns 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples,
/// computed in tenths of a percent so 99.9 of 10,000 is exactly 9,990.
fn rank(n: usize, p: f64) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n)
}

/// Median of unsorted values (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    sort(&mut s);
    percentile(&s, 50.0)
}

/// The reported tail of a latency distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The chosen percentile.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly beyond its rank.
    pub beyond: usize,
    /// All samples.
    pub samples: usize,
}

/// The highest ladder percentile that still has at least
/// [`TAIL_MIN_BEYOND`] samples beyond its rank. With too few samples
/// for any rung, the median is reported and `beyond` says how thin it
/// is.
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    let chosen = TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n > 0 && n - rank(n, p) >= TAIL_MIN_BEYOND)
        .unwrap_or(50.0);
    Tail {
        percentile: chosen,
        value: percentile(sorted, chosen),
        beyond: if n == 0 { 0 } else { n - rank(n, chosen) },
        samples: n,
    }
}

/// `num / den`, or 0 when `den` is 0 — for per-call means of layers a
/// workload never calls.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        for n in [
            1, 5, 19, 20, 39, 40, 99, 100, 199, 200, 999, 1000, 5000, 10_000, 12_345,
        ] {
            let v = ramp(n);
            let t = tail(&v);
            assert_eq!(t.samples, n);
            let beyond = v.iter().filter(|&&x| x > t.value).count();
            assert_eq!(beyond, t.beyond, "n={n}: reported count is the true count");
            if n >= 40 {
                assert!(t.beyond >= TAIL_MIN_BEYOND, "n={n}: {t:?}");
                // The next rung up would leave fewer than ten beyond.
                if let Some(&higher) = TAIL_LADDER.iter().rev().find(|&&p| p > t.percentile) {
                    assert!(n - rank(n, higher) < TAIL_MIN_BEYOND, "n={n}: {t:?}");
                }
            }
        }
        assert_eq!(tail(&ramp(1000)).percentile, 99.0);
        assert_eq!(tail(&ramp(999)).percentile, 95.0);
        assert_eq!(tail(&ramp(10_000)).percentile, 99.9);
        assert_eq!(tail(&ramp(200)).percentile, 95.0);
        assert_eq!(tail(&ramp(5)).percentile, 50.0);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
