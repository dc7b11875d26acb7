//! Order statistics over host-time samples.

/// Nearest-rank percentile `p` (0 < p < 100) of `xs`, with the number of
/// samples strictly above the chosen rank. `None` for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> Option<(f64, usize)> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, v.len()) - 1;
    Some((v[idx], v.len() - idx - 1))
}

/// Median of `xs` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_of_hundred_leaves_ten_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), Some((90.0, 10)));
        assert_eq!(percentile(&xs, 50.0), Some((50.0, 50)));
    }

    #[test]
    fn median_of_even_count_averages_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
