//! Sample summaries: median, quartiles and tail percentiles.
//!
//! Quartiles use the "exclusive" interpolation of Python's
//! `statistics.quantiles(data, n=4)`, so a spread printed here is the
//! spread a script computing it from the same samples would get.

/// The summary every timed metric reports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Middle sample (mean of the middle two for an even count).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarises `samples` (any order).
    ///
    /// # Panics
    /// Panics if `samples` is empty or holds a NaN.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary of no samples");
        let mut s = samples.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        let [q1, median, q3] = quartiles(&s);
        Summary {
            median,
            q1,
            q3,
            min: s[0],
            max: s[s.len() - 1],
            n: s.len(),
        }
    }

    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn iqr_frac(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The three cut points of `statistics.quantiles(sorted, n=4)` (exclusive
/// method); a single sample is its own quartiles.
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let ld = sorted.len();
    if ld == 1 {
        return [sorted[0]; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// The `p`-quantile (0 < p < 1) of an ascending sample, interpolated at
/// position `p·(n+1)` like the quartiles. `None` unless at least ten
/// samples lie beyond it: a tail percentile resting on fewer is noise.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if !(0.0..1.0).contains(&p) || (n as f64) * (1.0 - p) < 10.0 {
        return None;
    }
    let pos = (p * (n + 1) as f64).clamp(1.0, n as f64);
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    let hi = (lo + 1).min(n);
    Some(sorted[lo - 1] + (sorted[hi - 1] - sorted[lo - 1]) * frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        let sum = Summary::of(&s);
        assert_eq!((sum.q1, sum.median, sum.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        let sum = Summary::of(&[3.0, 1.0, 2.0, 5.0, 4.0]);
        assert_eq!((sum.q1, sum.median, sum.q3), (1.5, 3.0, 4.5));
        assert_eq!((sum.min, sum.max, sum.n), (1.0, 5.0, 5));
        // statistics.quantiles([7, 9], n=4) == [6.5, 8.0, 9.5]
        let sum = Summary::of(&[9.0, 7.0]);
        assert_eq!((sum.q1, sum.median, sum.q3), (6.5, 8.0, 9.5));
    }

    #[test]
    fn one_sample_is_its_own_summary() {
        let sum = Summary::of(&[4.0]);
        assert_eq!((sum.q1, sum.median, sum.q3, sum.n), (4.0, 4.0, 4.0, 1));
        assert_eq!(sum.iqr_frac(), 0.0);
    }

    #[test]
    fn iqr_is_relative_to_the_median() {
        let sum = Summary::of(&[9.0, 10.0, 10.0, 10.0, 11.0]);
        assert!((sum.iqr_frac() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        let s: Vec<f64> = (1..=999).map(f64::from).collect();
        // 999 samples leave 9.99 beyond p99: refused.
        assert_eq!(percentile(&s, 0.99), None);
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&s, 0.99).expect("exactly ten beyond");
        assert!((p99 - 990.99).abs() < 1e-9, "{p99}");
        assert_eq!(percentile(&s, 0.5), Some(500.5));
        // A median needs twenty samples under the same rule.
        assert_eq!(percentile(&s[..19], 0.5), None);
        assert_eq!(percentile(&s[..20], 0.5), Some(10.5));
    }

    #[test]
    fn percentile_rejects_out_of_range_levels() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 1.0), None);
        assert_eq!(percentile(&s, -0.1), None);
    }
}
