//! Order statistics and the `compare` verdict rule.

/// Zero-based index of the nearest-rank `q`-quantile in `n` ascending
/// samples: the smallest sample with at least a share `q` of all samples
/// at or below it.
pub fn percentile_index(n: usize, q: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly above the nearest-rank `q`-quantile.
pub fn beyond(n: usize, q: f64) -> usize {
    n - (percentile_index(n, q) + 1)
}

/// A percentile is reported as measured only when at least ten samples
/// lie beyond it; below that it is one or two outliers, not a tail.
pub fn supported(n: usize, q: f64) -> bool {
    n > 0 && beyond(n, q) >= 10
}

/// Nearest-rank `q`-quantile of ascending `sorted`.
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> T {
    sorted[percentile_index(sorted.len(), q)]
}

/// Median (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so spreads read the same here as in any script that checks
/// them. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    assert!(ld > 0, "quartiles of an empty sample");
    if ld == 1 {
        return (v[0], v[0], v[0]);
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        if q3 == q1 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Outcome of comparing a change against its parent on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    WithinBound,
    /// Worse by more than the bound with spreads inside it, or worse on
    /// every run whatever the spreads.
    Regressed,
    /// A spread is wider than the bound, so neither "no worse" nor
    /// "worse" can be shown.
    Unresolved,
    /// Wins at least nine pairs in ten and moves the median by more than
    /// the parent's own interquartile range.
    Improved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Improved => "improved",
        }
    }
}

/// The verdict for one metric: `parent[i]` and `change[i]` are the i-th
/// pair of interleaved runs; `bound` is the share of the parent's median
/// by which the change may be worse.
pub fn verdict(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better(c, p))
        .count();
    let (q1p, mp, q3p) = quartiles(parent);
    let mc = median(change);
    if pairs > 0 && wins * 10 >= pairs * 9 && better(mc, mp) && (mc - mp).abs() > q3p - q1p {
        return Verdict::Improved;
    }
    let spread = relative_spread(parent).max(relative_spread(change));
    if spread > bound {
        // Whole-sample orderings settle what the spread cannot.
        let all = |cmp: &dyn Fn(f64, f64) -> bool| {
            change.iter().all(|&c| parent.iter().all(|&p| cmp(c, p)))
        };
        return if all(&better) {
            Verdict::WithinBound
        } else if all(&|c, p| better(p, c)) {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    let worse = if lower_is_better { mc - mp } else { mp - mc };
    if worse > bound * mp.abs() {
        Verdict::Regressed
    } else {
        Verdict::WithinBound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_index() {
        assert_eq!(percentile_index(1, 0.5), 0);
        assert_eq!(percentile_index(100, 0.5), 49);
        assert_eq!(percentile_index(100, 0.99), 98);
        assert_eq!(percentile_index(101, 0.99), 99);
        assert_eq!(percentile_index(1000, 0.999), 998);
        assert_eq!(percentile_index(10, 1.0), 9);
        assert_eq!(percentile_index(10, 0.0), 0);
        let sorted: Vec<u32> = (1..=200).collect();
        assert_eq!(percentile(&sorted, 0.5), 100);
        assert_eq!(percentile(&sorted, 0.99), 198);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 needs 1000 samples: index 989, ten above it.
        assert_eq!(beyond(1000, 0.99), 10);
        assert!(supported(1000, 0.99));
        assert_eq!(beyond(999, 0.99), 9);
        assert!(!supported(999, 0.99));
        assert!(supported(10_000, 0.999));
        assert!(!supported(9_999, 0.999));
        assert!(supported(21, 0.5));
        assert!(!supported(19, 0.5));
        assert!(!supported(0, 0.5));
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((relative_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    fn around(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + jitter * ((i % 5) as f64 - 2.0))
            .collect()
    }

    #[test]
    fn verdict_rule() {
        // Parent: IQR 2.5 around 100, a 2.5 % spread.
        let parent = around(100.0, 1.0);
        // Same distribution: within bound.
        assert_eq!(
            verdict(&parent, &around(100.0, 1.0), true, 0.10),
            Verdict::WithinBound
        );
        // 20 % slower with tight spreads: regressed.
        assert_eq!(
            verdict(&parent, &around(120.0, 1.0), true, 0.10),
            Verdict::Regressed
        );
        // Higher-is-better metric dropping 20 %: regressed.
        assert_eq!(
            verdict(&parent, &around(80.0, 1.0), false, 0.10),
            Verdict::Regressed
        );
        // 10 % faster on every pair, gap above the parent's IQR: improved.
        assert_eq!(
            verdict(&parent, &around(90.0, 1.0), true, 0.10),
            Verdict::Improved
        );
        // Faster median but only 8 of 10 pairs won: not improved.
        let mut mixed = around(95.0, 1.0);
        mixed[0] = 200.0;
        mixed[1] = 200.0;
        assert_ne!(verdict(&parent, &mixed, true, 0.5), Verdict::Improved);
        // Gap smaller than the parent's IQR: not improved.
        let wide = around(100.0, 10.0);
        let nudged: Vec<f64> = wide.iter().map(|v| v - 1.0).collect();
        assert_ne!(verdict(&wide, &nudged, true, 0.5), Verdict::Improved);
        // Spread wider than the bound: unresolved, even if the median
        // moved by less than the bound.
        assert_eq!(
            verdict(&wide, &around(101.0, 10.0), true, 0.05),
            Verdict::Unresolved
        );
        // ...unless every change run beats every parent run: parent
        // 100..109 (IQR 5.5), change a flat 99.9 — a gap under the IQR,
        // so not an improvement, but no worse either.
        let spread_parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        assert_eq!(
            verdict(&spread_parent, &[99.9; 10], true, 0.01),
            Verdict::WithinBound
        );
        // ...and the mirror: every change run worse than every parent run
        // is a regression, however wide the spreads.
        assert_eq!(
            verdict(&spread_parent, &[109.1; 10], true, 0.01),
            Verdict::Regressed
        );
        let slower: Vec<f64> = spread_parent.iter().map(|p| p + 10.0).collect();
        assert_eq!(
            verdict(&spread_parent, &slower, true, 0.01),
            Verdict::Regressed
        );
        // A higher-is-better metric that is lower on every run.
        let fewer: Vec<f64> = spread_parent.iter().map(|p| p - 10.0).collect();
        assert_eq!(
            verdict(&spread_parent, &fewer, false, 0.01),
            Verdict::Regressed
        );
    }
}
