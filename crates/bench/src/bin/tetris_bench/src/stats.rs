//! Sample summaries: the median and quartiles every reported timing and
//! every compare verdict rests on, and percentiles read off the engine's
//! power-of-two histograms.

/// The median of `xs` (mean of the two middle values for an even count);
/// `NaN` for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The first and third quartiles of `xs`, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` does (the default "exclusive" method),
/// so spreads printed here match spreads computed from the same values
/// elsewhere. One value is its own quartiles; an empty sample gives `NaN`.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let ld = s.len();
    match ld {
        0 => (f64::NAN, f64::NAN),
        1 => (s[0], s[0]),
        _ => {
            let m = ld + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            (cut(1), cut(3))
        }
    }
}

/// The distance between the quartiles as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The `p`-quantile (`0 < p ≤ 1`) of a power-of-two histogram, reported
/// as the largest value its bucket can hold: bucket 0 holds only `0`,
/// bucket `k ≥ 1` holds `[2^(k-1), 2^k)`, so the answer is `2^k − 1` and
/// overstates the true quantile by less than a factor of two. An empty
/// histogram gives 0.
pub fn pow2_percentile(buckets: &[u64], p: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = (p * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    for (k, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return if k == 0 { 0 } else { (1u64 << k) - 1 };
        }
    }
    unreachable!("rank {rank} is at most the total {total}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 3.0, 1.0]), (1.25, 3.75));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), (4.5, 7.5));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn pow2_percentile_reports_the_bucket_ceiling() {
        // 0 ×2, [1,2) ×1, [2,4) ×5, [4,8) ×2.
        let b = [2, 1, 5, 2];
        assert_eq!(pow2_percentile(&b, 0.2), 0);
        assert_eq!(pow2_percentile(&b, 0.3), 1);
        assert_eq!(pow2_percentile(&b, 0.5), 3);
        assert_eq!(pow2_percentile(&b, 0.8), 3);
        assert_eq!(pow2_percentile(&b, 0.99), 7);
        assert_eq!(pow2_percentile(&b, 1.0), 7);
        assert_eq!(pow2_percentile(&[0, 0], 0.5), 0);
    }
}
