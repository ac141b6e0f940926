//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark prints comes from the full sorted
//! sample, never from a bucketed histogram, and is printed with its
//! sample count.

/// Nearest-rank percentile: the smallest sample with at least `q` of
/// the samples at or below it (`q` in `(0, 1]`). `sorted` must be
/// ascending; `None` when it is empty.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    // Rank in 1..=n; the epsilon keeps exact products such as
    // 0.99 × 1000 from rounding up past their integer rank.
    let rank = ((q * n as f64) - 1e-9).ceil().clamp(1.0, n as f64) as usize;
    Some(sorted[rank - 1])
}

/// Sorts a copy of `samples` ascending (NaN-free input).
#[must_use]
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (nearest-rank p50) of unsorted samples.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(&sorted(samples), 0.5)
}

/// How many samples lie strictly above the nearest-rank `q` percentile.
#[must_use]
pub fn beyond(sorted: &[f64], q: f64) -> usize {
    percentile(sorted, q).map_or(0, |p| sorted.iter().filter(|&&x| x > p).count())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_vectors() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.05), Some(15.0));
        assert_eq!(percentile(&v, 0.30), Some(20.0));
        assert_eq!(percentile(&v, 0.40), Some(20.0));
        assert_eq!(percentile(&v, 0.50), Some(35.0));
        assert_eq!(percentile(&v, 1.00), Some(50.0));

        let w = [3.0, 6.0, 7.0, 8.0, 8.0, 10.0, 13.0, 15.0, 16.0, 20.0];
        assert_eq!(percentile(&w, 0.25), Some(7.0));
        assert_eq!(percentile(&w, 0.50), Some(8.0));
        assert_eq!(percentile(&w, 0.75), Some(15.0));
        assert_eq!(percentile(&w, 0.99), Some(20.0));

        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[4.0], 0.99), Some(4.0));
    }

    #[test]
    fn p99_of_a_thousand_leaves_ten_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(beyond(&v, 0.99), 10);
        assert_eq!(percentile(&v, 0.5), Some(500.0));
    }

    #[test]
    fn median_sorts_its_input() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
        assert_eq!(median(&[2.0, 1.0]), Some(1.0));
        assert_eq!(median(&[]), None);
    }
}
