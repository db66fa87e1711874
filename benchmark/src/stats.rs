//! Sample statistics: means, medians, nearest-rank percentiles and the
//! tail-percentile rule.

/// Sorts a copy of `samples` ascending (all timings are finite).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    v
}

/// Arithmetic mean; `0.0` for an empty set.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Median (mean of the two middle samples for an even count); `0.0` when
/// empty.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Exact nearest-rank percentile `q ∈ (0, 1]`; `0.0` when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Percentiles the tail rule chooses from, highest first.
const TAIL_CANDIDATES: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.75];

/// The highest percentile that still has at least ten samples beyond it,
/// as `(q, value)` — p90 needs 100 samples, p99 needs 1000. `None` when even
/// p75 is not resolved (fewer than 40 samples); the median is then the only
/// honest summary.
pub fn tail_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len() as f64;
    TAIL_CANDIDATES
        .iter()
        // The epsilon keeps `100 * (1 - 0.9)` from rounding just below 10.
        .find(|&&q| n * (1.0 - q) + 1e-9 >= 10.0)
        .map(|&q| (q, percentile(samples, q)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_are_exact() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        let of = |n: u32| {
            let v: Vec<f64> = (1..=n).map(f64::from).collect();
            tail_percentile(&v).map(|(q, _)| q)
        };
        assert_eq!(of(39), None);
        assert_eq!(of(40), Some(0.75));
        assert_eq!(of(99), Some(0.75));
        assert_eq!(of(100), Some(0.9));
        assert_eq!(of(199), Some(0.9));
        assert_eq!(of(200), Some(0.95));
        assert_eq!(of(1000), Some(0.99));
        assert_eq!(of(10_000), Some(0.999));
        // The value is the nearest-rank sample at that percentile.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((0.9, 90.0)));
    }
}
