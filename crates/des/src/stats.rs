//! Small statistics toolkit for aggregating Monte-Carlo trials.

use crate::compact::Fields;
use serde::{Deserialize, Serialize};

// The log-bucketed distribution accumulator lives in [`crate::hist`]
// but belongs to the same toolkit, so re-export it here next to
// `Running` (they are used together in every trial aggregate).
pub use crate::hist::Histogram;

/// Online mean/variance accumulator (Welford's algorithm).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Running {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Running {
    pub fn new() -> Self {
        Running {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, xs: I) {
        for x in xs {
            self.push(x);
        }
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance (n-1 denominator). Zero for fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    pub fn min(&self) -> f64 {
        self.min
    }

    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Running) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = (self.n + other.n) as f64;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n;
        let m2 = self.m2 + other.m2 + delta * delta * self.n as f64 * other.n as f64 / n;
        self.n += other.n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Exact single-line form: `r1;n=..;mean=..;m2=..;min=..;max=..`,
    /// with every float as its 16-hex-digit bit pattern. Campaign
    /// checkpoint files round-trip accumulators through this, so it
    /// must preserve every bit (including the ±inf min/max sentinels
    /// of an empty accumulator) — same discipline as
    /// [`Histogram::to_compact`].
    pub fn to_compact(&self) -> String {
        format!(
            "r1;n={};mean={:016x};m2={:016x};min={:016x};max={:016x}",
            self.n,
            self.mean.to_bits(),
            self.m2.to_bits(),
            self.min.to_bits(),
            self.max.to_bits()
        )
    }

    /// Parse the [`Running::to_compact`] form: exactly what it writes,
    /// fields in its order (see [`crate::compact`]).
    pub fn from_compact(s: &str) -> Result<Running, String> {
        let mut f = Fields::new(s, ';', "r1")?;
        let r = Running {
            n: f.uint("n")?,
            mean: f.hex_f64("mean")?,
            m2: f.hex_f64("m2")?,
            min: f.hex_f64("min")?,
            max: f.hex_f64("max")?,
        };
        f.end()?;
        Ok(r)
    }
}

/// A binomial proportion (e.g. "fraction of trials that lost data") with a
/// normal-approximation 95 % confidence interval, matching the error bars
/// in Figure 7 of the paper.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Proportion {
    pub successes: u64,
    pub trials: u64,
}

impl Proportion {
    pub fn new(successes: u64, trials: u64) -> Self {
        assert!(successes <= trials, "{successes} successes of {trials}");
        Proportion { successes, trials }
    }

    pub fn value(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.successes as f64 / self.trials as f64
        }
    }

    /// Standard error of the proportion.
    pub fn std_err(&self) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        let p = self.value();
        (p * (1.0 - p) / self.trials as f64).sqrt()
    }

    /// 95 % confidence half-width (1.96 σ), clamped to [0, 1] bounds by the
    /// caller if needed.
    pub fn ci95_half_width(&self) -> f64 {
        1.96 * self.std_err()
    }

    /// (lower, upper) bounds of the 95 % CI, clamped to [0, 1].
    pub fn ci95(&self) -> (f64, f64) {
        let p = self.value();
        let hw = self.ci95_half_width();
        ((p - hw).max(0.0), (p + hw).min(1.0))
    }

    /// (lower, upper) bounds of the Wilson score 95 % interval.
    ///
    /// Unlike the normal approximation of [`Proportion::ci95`], the
    /// Wilson interval stays meaningful at the extremes the simulator
    /// lives in — zero observed losses out of a handful of trials early
    /// in a campaign — which is exactly where the live monitor reads it
    /// to show convergence. With no trials at all it reports the
    /// uninformative `(0, 1)`.
    pub fn wilson95(&self) -> (f64, f64) {
        if self.trials == 0 {
            return (0.0, 1.0);
        }
        const Z: f64 = 1.96;
        let n = self.trials as f64;
        let p = self.value();
        let z2 = Z * Z;
        let denom = 1.0 + z2 / n;
        let center = (p + z2 / (2.0 * n)) / denom;
        let half = (Z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
        ((center - half).max(0.0), (center + half).min(1.0))
    }

    /// Half-width of the Wilson score 95 % interval, `(hi - lo) / 2`.
    ///
    /// This is the convergence layer's primary gauge: it shrinks
    /// monotonically in expectation as trials accumulate, and unlike
    /// the normal approximation it never reports a zero width for a
    /// config that has produced no losses yet.
    pub fn wilson95_half_width(&self) -> f64 {
        let (lo, hi) = self.wilson95();
        (hi - lo) / 2.0
    }

    /// Relative Wilson-95 half-width (half-width over the point
    /// estimate), the quantity the `--target-rel-ci` stopping rule
    /// compares against its target.
    ///
    /// Returns `None` while the estimate is not yet informative — zero
    /// trials, or zero successes (losses). A config that has seen no
    /// losses has a point estimate of exactly zero, so *any* finite
    /// interval is infinitely wide in relative terms; reporting `None`
    /// instead of `inf` makes "never stop a zero-loss config" fall out
    /// of the type rather than a float comparison.
    pub fn rel_half_width(&self) -> Option<f64> {
        if self.successes == 0 || self.trials == 0 {
            return None;
        }
        Some(self.wilson95_half_width() / self.value())
    }

    pub fn merge(&mut self, other: Proportion) {
        self.successes += other.successes;
        self.trials += other.trials;
    }

    /// Exact single-line form: `p1;s=..;t=..` (integer counts, so this
    /// codec is trivially lossless — it exists for symmetry with
    /// [`Running::to_compact`] in the campaign checkpoint format).
    pub fn to_compact(&self) -> String {
        format!("p1;s={};t={}", self.successes, self.trials)
    }

    /// Parse the [`Proportion::to_compact`] form: exactly what it
    /// writes, with `s <= t`.
    pub fn from_compact(s: &str) -> Result<Proportion, String> {
        let mut f = Fields::new(s, ';', "p1")?;
        let (successes, trials) = (f.uint("s")?, f.uint("t")?);
        f.end()?;
        if successes > trials {
            return Err(format!(
                "p1: field s: {successes} successes of {trials} trials"
            ));
        }
        Ok(Proportion { successes, trials })
    }
}

/// Pearson chi-squared statistic for a uniform-expected histogram —
/// used by placement-balance tests.
pub fn chi_squared_uniform(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if counts.is_empty() || total == 0 {
        return 0.0;
    }
    let expected = total as f64 / counts.len() as f64;
    counts
        .iter()
        .map(|&c| {
            let d = c as f64 - expected;
            d * d / expected
        })
        .sum()
}

/// Coefficient of variation (σ/μ) of a histogram of counts.
pub fn coefficient_of_variation(counts: &[u64]) -> f64 {
    let mut r = Running::new();
    r.extend(counts.iter().map(|&c| c as f64));
    if r.mean() == 0.0 {
        0.0
    } else {
        r.std_dev() / r.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_matches_closed_form() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut r = Running::new();
        r.extend(xs.iter().copied());
        assert_eq!(r.count(), 8);
        assert!((r.mean() - 5.0).abs() < 1e-12);
        // Sample variance of this classic dataset is 32/7.
        assert!((r.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(r.min(), 2.0);
        assert_eq!(r.max(), 9.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Running::new();
        whole.extend(xs.iter().copied());
        let mut left = Running::new();
        left.extend(xs[..300].iter().copied());
        let mut right = Running::new();
        right.extend(xs[300..].iter().copied());
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Running::new();
        a.extend([1.0, 2.0, 3.0]);
        let before = (a.count(), a.mean(), a.variance());
        a.merge(&Running::new());
        assert_eq!(before, (a.count(), a.mean(), a.variance()));

        let mut empty = Running::new();
        let mut b = Running::new();
        b.extend([1.0, 2.0, 3.0]);
        empty.merge(&b);
        assert!((empty.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn proportion_ci() {
        let p = Proportion::new(10, 100);
        assert!((p.value() - 0.1).abs() < 1e-12);
        let (lo, hi) = p.ci95();
        assert!(lo < 0.1 && hi > 0.1);
        assert!((hi - 0.1 - 1.96 * (0.1f64 * 0.9 / 100.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn proportion_ci_clamped() {
        let p = Proportion::new(0, 10);
        let (lo, _) = p.ci95();
        assert_eq!(lo, 0.0);
        let p = Proportion::new(10, 10);
        let (_, hi) = p.ci95();
        assert_eq!(hi, 1.0);
    }

    #[test]
    #[should_panic]
    fn proportion_rejects_impossible_counts() {
        let _ = Proportion::new(11, 10);
    }

    #[test]
    fn wilson95_matches_closed_form() {
        // 10/100: the textbook Wilson 95 % interval is (0.0552, 0.1744).
        let (lo, hi) = Proportion::new(10, 100).wilson95();
        assert!((lo - 0.05522).abs() < 1e-4, "lo = {lo}");
        assert!((hi - 0.17436).abs() < 1e-4, "hi = {hi}");
    }

    #[test]
    fn wilson95_is_informative_at_zero_successes() {
        // 0/10 must not collapse to a zero-width interval (the normal
        // approximation does): the upper bound stays well above zero.
        let (lo, hi) = Proportion::new(0, 10).wilson95();
        assert_eq!(lo, 0.0);
        assert!(hi > 0.2 && hi < 0.35, "hi = {hi}");
        // Symmetric at the other extreme.
        let (lo, hi) = Proportion::new(10, 10).wilson95();
        assert_eq!(hi, 1.0);
        assert!(lo > 0.65 && lo < 0.8, "lo = {lo}");
    }

    #[test]
    fn wilson95_with_no_trials_is_uninformative() {
        assert_eq!(Proportion::new(0, 0).wilson95(), (0.0, 1.0));
    }

    #[test]
    fn wilson95_brackets_the_point_estimate() {
        for (s, n) in [(1u64, 7u64), (3, 9), (50, 1000), (999, 1000)] {
            let p = Proportion::new(s, n);
            let (lo, hi) = p.wilson95();
            assert!(lo <= p.value() && p.value() <= hi, "{s}/{n}");
            assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
        }
    }

    #[test]
    fn wilson95_half_width_is_half_the_interval() {
        let p = Proportion::new(10, 100);
        let (lo, hi) = p.wilson95();
        assert_eq!(p.wilson95_half_width(), (hi - lo) / 2.0);
        assert!(p.wilson95_half_width() > 0.0);
    }

    #[test]
    fn rel_half_width_not_informative_at_zero_losses() {
        // The stopping rule must never halt a config that has seen no
        // losses, no matter how many trials have run: with successes ==
        // 0 the relative width is undefined (p-hat = 0), so the
        // accessor reports None rather than a number a `< eps`
        // comparison could accidentally accept.
        assert_eq!(Proportion::new(0, 0).rel_half_width(), None);
        assert_eq!(Proportion::new(0, 10).rel_half_width(), None);
        assert_eq!(Proportion::new(0, 1_000_000).rel_half_width(), None);
    }

    #[test]
    fn rel_half_width_matches_ratio_once_informative() {
        let p = Proportion::new(10, 100);
        let rel = p.rel_half_width().unwrap();
        assert_eq!(rel, p.wilson95_half_width() / p.value());
        assert!(rel.is_finite() && rel > 0.0);
    }

    #[test]
    fn rel_half_width_shrinks_with_more_trials() {
        // Same point estimate, 100x the evidence: the relative width
        // must narrow (this monotonic trajectory is what the streaming
        // checkpoints record).
        let coarse = Proportion::new(5, 50).rel_half_width().unwrap();
        let fine = Proportion::new(500, 5000).rel_half_width().unwrap();
        assert!(fine < coarse, "fine = {fine}, coarse = {coarse}");
    }

    #[test]
    fn chi_squared_zero_for_perfectly_uniform() {
        assert_eq!(chi_squared_uniform(&[5, 5, 5, 5]), 0.0);
    }

    #[test]
    fn chi_squared_grows_with_imbalance() {
        let balanced = chi_squared_uniform(&[10, 10, 10, 10]);
        let skewed = chi_squared_uniform(&[40, 0, 0, 0]);
        assert!(skewed > balanced + 100.0);
    }

    #[test]
    fn cv_of_equal_counts_is_zero() {
        assert_eq!(coefficient_of_variation(&[7, 7, 7]), 0.0);
    }

    #[test]
    fn running_compact_round_trip_is_bit_exact() {
        let mut r = Running::new();
        r.extend([0.1, -3.7, 1e-300, 42.0, f64::MIN_POSITIVE]);
        let back = Running::from_compact(&r.to_compact()).unwrap();
        assert_eq!(back.count(), r.count());
        assert_eq!(back.mean().to_bits(), r.mean().to_bits());
        assert_eq!(back.variance().to_bits(), r.variance().to_bits());
        assert_eq!(back.min().to_bits(), r.min().to_bits());
        assert_eq!(back.max().to_bits(), r.max().to_bits());
    }

    #[test]
    fn running_compact_preserves_empty_sentinels() {
        // An empty accumulator carries ±inf min/max sentinels; the codec
        // must round-trip them so a merged-from-checkpoint accumulator
        // behaves identically to a fresh one.
        let back = Running::from_compact(&Running::new().to_compact()).unwrap();
        assert_eq!(back.count(), 0);
        assert_eq!(back.min(), f64::INFINITY);
        assert_eq!(back.max(), f64::NEG_INFINITY);
        let mut seeded = back;
        seeded.push(2.5);
        assert_eq!(seeded.min(), 2.5);
        assert_eq!(seeded.max(), 2.5);
    }

    #[test]
    fn running_compact_rejects_malformed() {
        assert!(Running::from_compact("h1;n=1").is_err());
        assert!(Running::from_compact("r1;n=1;mean=zz").is_err());
        assert!(Running::from_compact("r1;n=1").is_err());
        assert!(Running::from_compact("r1;n=1;mean=0;m2=0;min=0;max=0;extra=0").is_err());
        // A repeated field, a reordered one, and non-canonical numbers.
        let err = Running::from_compact("r1;n=3;n=3;mean=0;m2=0;min=0").unwrap_err();
        assert!(err.contains("expected field mean"), "{err}");
        let good = Running::new().to_compact();
        assert!(Running::from_compact(&good.replace("n=0", "n=00")).is_err());
        assert!(Running::from_compact(&good.replace("n=0", "n=+0")).is_err());
        let upper = good.replace("7ff0", "7FF0");
        assert!(Running::from_compact(&upper)
            .unwrap_err()
            .contains("field min"));
        let m2_first = good.replace(";mean=", ";tmp=").replace(";m2=", ";mean=");
        assert!(Running::from_compact(&m2_first).is_err());
    }

    #[test]
    fn proportion_compact_round_trip() {
        let p = Proportion::new(3, 17);
        let back = Proportion::from_compact(&p.to_compact()).unwrap();
        assert_eq!((back.successes, back.trials), (3, 17));
        assert!(Proportion::from_compact("p1;s=5;t=2").is_err());
        assert!(Proportion::from_compact("p1;s=5").is_err());
        assert!(Proportion::from_compact("r1;s=5;t=9").is_err());
        assert!(Proportion::from_compact("p1;t=9;s=5").is_err());
        assert!(Proportion::from_compact("p1;s=5;t=9;t=9").is_err());
        assert!(Proportion::from_compact("p1;s=5;t=09").is_err());
    }
}
