//! Sample statistics: the median every timing metric reports and the
//! tail percentile the `*_tail` metrics report.

/// Samples of one timed phase, in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples(pub Vec<f64>);

/// A tail reading: the value, which percentile it is, and of how many
/// samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub n: usize,
}

/// How many samples must lie beyond a percentile for it to be reported.
pub const TAIL_BEYOND: usize = 10;

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median (mean of the two middle samples when the count is
    /// even). `NaN` for no samples, which the result check refuses.
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => f64::NAN,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    /// The `q`-quantile by nearest rank, rounded towards the fast end
    /// for `q < 0.5` and towards the slow end above, so that with ten
    /// samples or fewer `quantile(0.1)` is the smallest and
    /// `quantile(0.9)` the largest. `NaN` for no samples.
    pub fn quantile(&self, q: f64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return f64::NAN;
        }
        let rank = (v.len() - 1) as f64 * q;
        v[if q < 0.5 { rank.floor() } else { rank.ceil() } as usize]
    }

    /// Minimum, p10, p25, median, p75, p90 and maximum.
    pub fn seven_numbers(&self) -> [f64; 7] {
        let q = |q| self.quantile(q);
        [q(0.0), q(0.10), q(0.25), self.median(), q(0.75), q(0.90), q(1.0)]
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }

    /// The highest percentile with at least [`TAIL_BEYOND`] samples
    /// beyond it. With too few samples for any percentile above the
    /// median to qualify, the tail *is* the median and says so
    /// (`percentile == 50`).
    pub fn tail(&self) -> Tail {
        let v = self.sorted();
        let n = v.len();
        if n == 0 {
            return Tail { value: f64::NAN, percentile: 50.0, n };
        }
        // Sorted index `i` has `n - 1 - i` samples beyond it.
        let idx = n.saturating_sub(TAIL_BEYOND + 1);
        if idx <= n / 2 {
            return Tail { value: self.median(), percentile: 50.0, n };
        }
        Tail { value: v[idx], percentile: 100.0 * (idx + 1) as f64 / n as f64, n }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Samples {
        // 1..=n shuffled deterministically, so sorting is exercised.
        Samples((0..n).map(|i| ((i * 7919) % n + 1) as f64).collect())
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(Samples(vec![3.0, 1.0, 2.0]).median(), 2.0);
        assert_eq!(Samples(vec![4.0, 1.0, 3.0, 2.0]).median(), 2.5);
        assert_eq!(Samples(vec![5.0]).median(), 5.0);
        assert!(Samples::default().median().is_nan());
    }

    #[test]
    fn low_and_high_quantiles_lean_outwards() {
        let s = samples(101); // values 1..=101
        assert_eq!(s.quantile(0.10), 11.0);
        assert_eq!(s.quantile(0.90), 91.0);
        assert_eq!((s.quantile(0.0), s.quantile(1.0)), (1.0, 101.0));
        // Ten samples or fewer: the fastest tenth is the fastest sample.
        for n in 1..=10 {
            let s = samples(n);
            assert_eq!(s.quantile(0.10), 1.0, "n={n}");
            assert_eq!(s.quantile(0.90), n as f64, "n={n}");
        }
        assert_eq!(samples(12).quantile(0.10), 2.0);
        assert!(Samples::default().quantile(0.1).is_nan());
    }

    #[test]
    fn tail_has_at_least_ten_samples_beyond_it() {
        let t = samples(1000).tail();
        // Values are 1..=1000, so ten samples (991..=1000) lie beyond 990.
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.n, 1000);

        let t = samples(100).tail();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
    }

    #[test]
    fn tail_degrades_to_the_median_when_samples_are_few() {
        for n in [1, 5, 10, 21] {
            let s = samples(n);
            let t = s.tail();
            assert_eq!(t.percentile, 50.0, "n={n}");
            assert_eq!(t.value, s.median(), "n={n}");
        }
        // 24 samples: index 13 has ten beyond it and is above the median.
        let t = samples(24).tail();
        assert_eq!(t.value, 14.0);
        assert!(t.percentile > 50.0);
    }
}
