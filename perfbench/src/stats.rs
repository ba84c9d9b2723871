//! Order statistics for the reported timings.

/// A tail percentile picked from a sample, with the rank it was read at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at the chosen rank.
    pub value: f64,
    /// The percentile that rank represents, as a fraction (`0.95` = p95).
    pub percentile: f64,
}

/// Median of `values` (mean of the two middle values for an even count);
/// `None` for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The highest nearest-rank percentile at or below `want_pct` percent
/// that still leaves at least `beyond` samples strictly above it.
///
/// With enough samples this is plain p`want_pct`; with fewer it backs
/// off to the rank `n - beyond`, so a tail figure is never read off the
/// last handful of samples. `None` when the sample has `beyond` or fewer
/// values. `sorted` must be in ascending order.
#[must_use]
pub fn tail(sorted: &[f64], want_pct: usize, beyond: usize) -> Option<Tail> {
    let n = sorted.len();
    // Nearest rank (1-based) of the wanted percentile, in integer
    // arithmetic so 95 % of 200 is exactly rank 190.
    let wanted_rank = (want_pct * n).div_ceil(100);
    let rank = wanted_rank.min(n.checked_sub(beyond)?);
    (rank >= 1).then(|| Tail {
        value: sorted[rank - 1],
        percentile: rank as f64 / n as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn plain_p95_when_the_sample_is_large_enough() {
        let t = tail(&ramp(200), 95, 10).unwrap();
        assert_eq!(t.value, 190.0, "rank 190 leaves exactly ten beyond");
        assert_eq!(t.percentile, 0.95);
        let t = tail(&ramp(1000), 95, 10).unwrap();
        assert_eq!(t.value, 950.0);
    }

    #[test]
    fn backs_off_to_keep_ten_samples_beyond() {
        let t = tail(&ramp(100), 95, 10).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 0.90);
        let t = tail(&ramp(199), 95, 10).unwrap();
        assert_eq!(t.value, 189.0, "ceil(0.95 * 199) = 190 would leave nine");
        let t = tail(&ramp(11), 95, 10).unwrap();
        assert_eq!(t.value, 1.0);
    }

    #[test]
    fn too_few_samples_give_no_tail() {
        assert_eq!(tail(&ramp(10), 95, 10), None);
        assert_eq!(tail(&[], 95, 10), None);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
