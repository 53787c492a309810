//! Sample summaries and the regression-bound comparator.

/// Order statistics of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn median_of_sorted(v: &[f64]) -> Option<f64> {
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Median of `samples` (mean of the middle two when even); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    median_of_sorted(&sorted(samples))
}

/// Quartiles by the rule of Python's `statistics.quantiles(v, n=4)`
/// (exclusive method), so the spread this benchmark prints is the spread
/// the driver computes. A single sample is its own quartiles.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let v = sorted(samples);
    let n = v.len();
    let med = median_of_sorted(&v)?;
    let quartile = |i: usize| {
        if n < 2 {
            return v[0];
        }
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some(Summary { n, min: v[0], q1: quartile(1), median: med, q3: quartile(3), max: v[n - 1] })
}

/// The tail to report beside a median: the highest of p75 / p90 / p95 /
/// p99 (nearest rank) that still has at least ten samples beyond it.
/// `None` below 40 samples — a "tail" read off fewer is one outlier.
pub fn tail(samples: &[f64]) -> Option<(u32, f64)> {
    let v = sorted(samples);
    let n = v.len();
    [99u32, 95, 90, 75].into_iter().find_map(|pct| {
        let rank = (pct as usize * n).div_ceil(100);
        (rank >= 1 && n - rank >= 10).then(|| (pct, v[rank - 1]))
    })
}

/// Whether `new` is worse than `base` for a lower-is-better metric: by
/// more than the relative bound *and* by more than the absolute floor
/// (the floor keeps a 30 ms set-up from tripping on 5 ms of jitter).
pub fn regressed(base: f64, new: f64, rel_bound: f64, abs_floor: f64) -> bool {
    new > base * (1.0 + rel_bound) && new - base > abs_floor
}

/// Whether two runs of the same code disagree: either one regressed
/// against the other.
pub fn disagree(a: f64, b: f64, rel_bound: f64, abs_floor: f64) -> bool {
    regressed(a, b, rel_bound, abs_floor) || regressed(b, a, rel_bound, abs_floor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        let s = summarize(&[8.0, 1.0, 4.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.25, 3.0, 7.0));
    }

    #[test]
    fn degenerate_sample_sets() {
        assert!(summarize(&[]).is_none());
        assert!(median(&[]).is_none());
        let s = summarize(&[4.5]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (4.5, 4.5, 4.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // No tail below 20 samples — nor below 40, where p75 first has
        // ten samples beyond it.
        assert_eq!(tail(&ramp(16)), None);
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&ramp(39)), None);
        assert_eq!(tail(&ramp(40)), Some((75, 30.0)));
        assert_eq!(tail(&ramp(99)), Some((75, 75.0)));
        assert_eq!(tail(&ramp(100)), Some((90, 90.0)));
        assert_eq!(tail(&ramp(250)), Some((95, 238.0)));
        assert_eq!(tail(&ramp(1000)), Some((99, 990.0)));
    }

    #[test]
    fn bound_needs_both_the_ratio_and_the_floor() {
        // 10 % bound, no floor.
        assert!(!regressed(1.0, 1.10, 0.10, 0.0));
        assert!(regressed(1.0, 1.11, 0.10, 0.0));
        assert!(!regressed(1.0, 0.5, 0.10, 0.0), "an improvement is not a regression");
        // 15 % / 0.05 s: a 30 ms set-up doubling to 60 ms is inside the floor.
        assert!(!regressed(0.030, 0.060, 0.15, 0.05));
        assert!(regressed(1.0, 1.2, 0.15, 0.05));
        // 5 % / 2 MiB: +3 MiB on 40 MiB is over both; on 100 MiB only the floor.
        assert!(regressed(40.0, 43.0, 0.05, 2.0));
        assert!(!regressed(100.0, 103.0, 0.05, 2.0));
        // Disagreement is symmetric.
        assert!(disagree(1.2, 1.0, 0.10, 0.0) && disagree(1.0, 1.2, 0.10, 0.0));
        assert!(!disagree(1.0, 1.05, 0.10, 0.0));
    }
}
