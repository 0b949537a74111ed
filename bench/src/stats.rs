//! Order statistics and the regression verdict shared by every command.

use std::fmt;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First, second and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the numbers here match any external check of the same samples.
/// A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return [x; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        // Negative when the clamp raised `j`: extrapolates below v[0].
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median: the run-to-run spread
/// the acceptance rule compares against a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let dev: Vec<f64> = values.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// Nearest-rank `pct`-th percentile: the value of rank
/// `ceil(pct / 100 * n)`, at least the first (NaN when empty).
pub fn percentile(values: &[f64], pct: usize) -> f64 {
    let v = sorted(values);
    let rank = (pct * v.len()).div_ceil(100).max(1);
    v.get(rank - 1).copied().unwrap_or(f64::NAN)
}

/// The highest whole percentile that still has at least ten samples
/// beyond it, and its nearest-rank value. Fewer than twenty samples leave
/// no percentile above the median with ten beyond; the median is returned
/// then, labelled as the 50th percentile.
pub fn tail(values: &[f64]) -> (u32, f64) {
    let n = values.len();
    let pct = if n > 10 { 100 * (n - 10) / n } else { 0 };
    if pct < 50 {
        return (50, median(values));
    }
    // The nearest rank, ceil(pct/100 * n), is at most n - 10.
    (pct as u32, percentile(values, pct))
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput).
    Higher,
}

impl Better {
    /// Parses the `better` field of `BENCHMARK.json`.
    pub fn from_name(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    fn improves(self, from: f64, to: f64) -> bool {
        match self {
            Better::Lower => to < from,
            Better::Higher => to > from,
        }
    }

    /// How much worse `to` is than `from`, as a share of `from`
    /// (negative when it is better).
    fn worsening(self, from: f64, to: f64) -> f64 {
        match self {
            Better::Lower => (to - from) / from.abs(),
            Better::Higher => (from - to) / from.abs(),
        }
    }
}

/// Outcome of comparing a change's runs against its parent's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// At least ten pairs, nine tenths won, and the medians differ by more
    /// than the parent's interquartile range.
    Better,
    /// The change's median is within the bound of the parent's.
    NoWorse,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Worse,
    /// The parent's own spread is wider than the bound, and not every
    /// change run beats every parent run.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::NoWorse => "no worse",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Minimum number of parent/change pairs before a gain can be claimed.
pub const MIN_PAIRS: usize = 10;

/// Applies the gain and no-regression rules to paired runs: `parent[i]`
/// and `change[i]` are the i-th alternating pair (extra runs on either
/// side count towards the medians but not towards the pairs).
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let (mp, mc) = (median(parent), median(change));
    let [q1, _, q3] = quartiles(parent);
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better.improves(**p, **c))
        .count();
    if pairs >= MIN_PAIRS
        && wins * 10 >= pairs * 9
        && better.improves(mp, mc)
        && (mc - mp).abs() > q3 - q1
    {
        return Verdict::Better;
    }
    if spread(parent) > bound {
        let all_better = change
            .iter()
            .all(|c| parent.iter().all(|p| better.improves(*p, *c)));
        return if all_better {
            Verdict::NoWorse
        } else {
            Verdict::Unresolved
        };
    }
    if better.worsening(mp, mc) > bound {
        Verdict::Worse
    } else {
        Verdict::NoWorse
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[5.0, 7.0]), [4.5, 6.0, 7.5]);
        assert_eq!(quartiles(&[9.0]), [9.0; 3]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn mad_ignores_one_outlier() {
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 95), 19.0);
        assert_eq!(percentile(&v, 50), 10.0);
        assert_eq!(percentile(&v, 100), 20.0);
        // ceil(0.95 * 15) = 15: the largest.
        assert_eq!(percentile(&v[..15], 95), 20.0);
        // Below one rank it is the smallest sample.
        assert_eq!(percentile(&[3.0, 1.0], 10), 1.0);
        assert!(percentile(&[], 95).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=60).map(f64::from).collect();
        let (pct, value) = tail(&v);
        assert_eq!(pct, 83);
        assert_eq!(v.iter().filter(|x| **x > value).count(), 10);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99, 990.0));
        // Too few samples for any percentile above the median.
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (50, 2.0));
        assert_eq!(tail(&(1..=19).map(f64::from).collect::<Vec<_>>()).0, 50);
    }

    fn around(center: f64, n: usize) -> Vec<f64> {
        (0..n).map(|i| center + (i % 5) as f64 * 0.001).collect()
    }

    #[test]
    fn verdict_better_needs_ten_pairs_and_nine_wins() {
        let parent = around(100.0, 10);
        let change = around(90.0, 10);
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.1),
            Verdict::Better
        );
        // Nine pairs are not enough to claim a gain.
        assert_eq!(
            verdict(&parent[..9], &change[..9], Better::Lower, 0.1),
            Verdict::NoWorse
        );
        // Two lost pairs out of ten break the nine-in-ten rule.
        let mut mixed = change.clone();
        mixed[0] = 101.0;
        mixed[1] = 101.0;
        assert_eq!(
            verdict(&parent, &mixed, Better::Lower, 0.1),
            Verdict::NoWorse
        );
        // Direction matters.
        assert_eq!(
            verdict(&change, &parent, Better::Higher, 0.1),
            Verdict::Better
        );
    }

    #[test]
    fn verdict_worse_beyond_bound_only() {
        let parent = around(100.0, 10);
        assert_eq!(
            verdict(&parent, &around(105.0, 10), Better::Lower, 0.1),
            Verdict::NoWorse
        );
        assert_eq!(
            verdict(&parent, &around(115.0, 10), Better::Lower, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&parent, &around(85.0, 10), Better::Higher, 0.1),
            Verdict::Worse
        );
    }

    #[test]
    fn verdict_unresolved_when_parent_spread_exceeds_bound() {
        let parent = [
            80.0, 90.0, 100.0, 110.0, 120.0, 80.0, 90.0, 100.0, 110.0, 120.0,
        ];
        let change = [100.0; 10];
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // ...unless every change run beats every parent run (here by less
        // than the parent's interquartile range, so it is no gain either).
        assert_eq!(
            verdict(&parent, &[76.0; 10], Better::Lower, 0.1),
            Verdict::NoWorse
        );
    }
}
