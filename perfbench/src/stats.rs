//! Order statistics for the benchmark's timings.
//!
//! Percentiles are nearest-rank: the `p`-th percentile of `n` sorted
//! samples is the sample at 1-based rank `ceil(p/100 · n)`. The samples
//! strictly beyond it are the ones a tail percentile is trusted on, and
//! the benchmark reports a tail only where at least [`MIN_BEYOND`] remain.

/// Tail percentiles the benchmark chooses from, in per-mille.
pub const LADDER_PER_MILLE: [u64; 6] = [500, 750, 900, 950, 990, 999];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `per_mille`-th percentile of `n` samples.
fn rank(n: usize, per_mille: u64) -> usize {
    let r = (per_mille as usize * n).div_ceil(1000);
    r.clamp(1, n.max(1))
}

/// Samples strictly beyond the `per_mille`-th percentile of `n` samples.
pub fn beyond(n: usize, per_mille: u64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, per_mille)
}

/// Nearest-rank percentile of unsorted samples; `NaN` when empty.
pub fn percentile(samples: &[f64], per_mille: u64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s[rank(s.len(), per_mille) - 1]
}

/// The highest ladder percentile (per-mille) with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median has fewer.
pub fn tail_per_mille(n: usize) -> Option<u64> {
    LADDER_PER_MILLE
        .iter()
        .copied()
        .filter(|&p| beyond(n, p) >= MIN_BEYOND)
        .max()
}

/// The tail of `samples` for a detail line: the highest ladder percentile
/// with at least [`MIN_BEYOND`] samples beyond it, its value and the sample
/// count; `Null` when there are too few samples for any.
pub fn tail_json(samples: &[f64]) -> obs::Json {
    use obs::Json;
    match tail_per_mille(samples.len()) {
        None => Json::Null,
        Some(p) => Json::obj(vec![
            ("percentile", Json::Num(p as f64 / 10.0)),
            ("value", Json::Num(percentile(samples, p))),
            ("samples", Json::from(samples.len())),
        ]),
    }
}

/// Median (mean of the middle two for an even count); `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_helper_picks_highest_percentile_with_ten_beyond() {
        // 256 windows: p95 leaves 12 beyond, p99 only 2.
        assert_eq!(beyond(256, 950), 12);
        assert_eq!(beyond(256, 990), 2);
        assert_eq!(tail_per_mille(256), Some(950));
        // 1000 samples: p99 leaves exactly 10.
        assert_eq!(tail_per_mille(1000), Some(990));
        assert_eq!(tail_per_mille(200), Some(950));
        assert_eq!(tail_per_mille(199), Some(900));
        // 24 column solves: only the median qualifies.
        assert_eq!(tail_per_mille(24), Some(500));
        // Too few samples for any tail.
        assert_eq!(tail_per_mille(19), None);
        assert_eq!(tail_per_mille(0), None);
        // The pick always has at least MIN_BEYOND beyond it, and the next
        // ladder rung does not.
        for n in 20..3000 {
            let p = tail_per_mille(n).expect("n >= 20 always has a median");
            assert!(beyond(n, p) >= MIN_BEYOND);
            if let Some(&next) = LADDER_PER_MILLE.iter().find(|&&q| q > p) {
                assert!(beyond(n, next) < MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn nearest_rank_percentile_and_median() {
        let v: Vec<f64> = (1..=20).map(f64::from).rev().collect();
        assert_eq!(percentile(&v, 500), 10.0);
        assert_eq!(percentile(&v, 950), 19.0);
        assert_eq!(percentile(&v, 999), 20.0);
        assert_eq!(median(&v), 10.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
    }
}
