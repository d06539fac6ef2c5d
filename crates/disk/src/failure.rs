//! Disk failure process: piecewise-constant ("bathtub") hazard rates.
//!
//! The paper follows Elerath's proposed industry standard instead of a
//! flat MTBF: failure rates start high (infant mortality), decline, and
//! stay low until End Of Design Life. Table 1:
//!
//! | period (months) | 0–3  | 3–6   | 6–12  | 12–72 |
//! | rate / 1000 h   | 0.5% | 0.35% | 0.25% | 0.2%  |
//!
//! §3.6 additionally doubles all rates to model a worse disk vintage
//! (Figure 8(b)) — expressed here as a hazard `multiplier`.

use farm_des::rng::RngStream;
use farm_des::time::{Duration, SECONDS_PER_HOUR, SECONDS_PER_MONTH};
use serde::{Deserialize, Serialize};

/// One segment of the piecewise-constant hazard.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct HazardSegment {
    /// Segment applies to disk ages in [start, end) months.
    pub start_months: f64,
    pub end_months: f64,
    /// Failure probability per 1000 power-on hours (e.g. 0.005 = 0.5%).
    pub rate_per_1000h: f64,
}

impl HazardSegment {
    /// Hazard rate λ in failures per second.
    pub fn lambda_per_sec(&self) -> f64 {
        self.rate_per_1000h / (1000.0 * SECONDS_PER_HOUR)
    }
}

/// A disk-lifetime distribution with piecewise-constant hazard.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Hazard {
    segments: Vec<HazardSegment>,
    /// Vintage multiplier applied to every rate (1.0 = Table 1 as-is,
    /// 2.0 = Figure 8(b)'s "failure rate twice that listed in Table 1").
    multiplier: f64,
}

/// End Of Design Life: 6 years (§3.1).
pub const EODL_MONTHS: f64 = 72.0;

impl Hazard {
    /// The bathtub curve of Table 1 (Elerath 2000).
    pub fn table1() -> Self {
        Hazard::new(vec![
            HazardSegment {
                start_months: 0.0,
                end_months: 3.0,
                rate_per_1000h: 0.005,
            },
            HazardSegment {
                start_months: 3.0,
                end_months: 6.0,
                rate_per_1000h: 0.0035,
            },
            HazardSegment {
                start_months: 6.0,
                end_months: 12.0,
                rate_per_1000h: 0.0025,
            },
            HazardSegment {
                start_months: 12.0,
                end_months: EODL_MONTHS,
                rate_per_1000h: 0.002,
            },
        ])
    }

    /// A constant-rate (exponential-lifetime) hazard — the flat-MTBF model
    /// the paper criticizes earlier studies for using; kept as an
    /// ablation baseline.
    pub fn constant(rate_per_1000h: f64) -> Self {
        Hazard::new(vec![HazardSegment {
            start_months: 0.0,
            end_months: f64::INFINITY,
            rate_per_1000h,
        }])
    }

    /// A constant hazard whose 6-year failure probability equals this
    /// hazard's — used by the bathtub-vs-flat ablation.
    pub fn flattened(&self) -> Hazard {
        let horizon = Duration::from_months(EODL_MONTHS);
        let total = self.cumulative_hazard(Duration::ZERO, horizon);
        let rate_per_sec = total / horizon.as_secs();
        Hazard::constant(rate_per_sec * 1000.0 * SECONDS_PER_HOUR)
    }

    pub fn new(segments: Vec<HazardSegment>) -> Self {
        assert!(!segments.is_empty());
        for w in segments.windows(2) {
            assert!(
                (w[0].end_months - w[1].start_months).abs() < 1e-9,
                "segments must be contiguous"
            );
        }
        assert_eq!(segments[0].start_months, 0.0, "hazard must start at age 0");
        Hazard {
            segments,
            multiplier: 1.0,
        }
    }

    /// Scale every rate (disk-vintage effect, §3.6).
    pub fn with_multiplier(mut self, m: f64) -> Self {
        assert!(m > 0.0 && m.is_finite());
        self.multiplier = m;
        self
    }

    pub fn multiplier(&self) -> f64 {
        self.multiplier
    }

    pub fn segments(&self) -> &[HazardSegment] {
        &self.segments
    }

    /// Hazard rate at a given age, per second.
    pub fn lambda_at(&self, age: Duration) -> f64 {
        let months = age.as_secs() / SECONDS_PER_MONTH;
        let seg = self
            .segments
            .iter()
            .find(|s| months < s.end_months)
            .or_else(|| self.segments.last())
            .expect("non-empty");
        seg.lambda_per_sec() * self.multiplier
    }

    /// Integrated hazard Λ over ages [age, age + dt).
    pub fn cumulative_hazard(&self, age: Duration, dt: Duration) -> f64 {
        let mut from = age.as_secs() / SECONDS_PER_MONTH;
        let to = (age + dt).as_secs() / SECONDS_PER_MONTH;
        let mut total = 0.0;
        for s in &self.segments {
            if from >= to {
                break;
            }
            if from >= s.end_months {
                continue;
            }
            let lo = from.max(s.start_months);
            let hi = to.min(s.end_months);
            if hi > lo {
                total += (hi - lo) * SECONDS_PER_MONTH * s.lambda_per_sec();
                from = hi;
            }
        }
        // Beyond the last segment, extend its rate (disks past EODL keep
        // failing at the wear-out rate until replaced).
        if from < to {
            let last = self.segments.last().expect("non-empty");
            total += (to - from) * SECONDS_PER_MONTH * last.lambda_per_sec();
        }
        total * self.multiplier
    }

    /// A uniform draw below this value gives a new disk a lifetime beyond
    /// `horizon`, so callers that only schedule in-horizon failures can
    /// skip [`Hazard::ttf_from_uniform`] for it. The lifetime exceeds the
    /// horizon exactly when `-ln(u) > Λ(0, horizon)`; the relative margin
    /// of 1e-6 on Λ dwarfs the rounding of the `ln` and the segment walk
    /// (~1e-15).
    pub fn survival_threshold(&self, horizon: Duration) -> f64 {
        (-self.cumulative_hazard(Duration::ZERO, horizon) * (1.0 + 1e-6)).exp()
    }

    /// Probability a disk of age `age` fails within the next `dt`.
    pub fn failure_probability(&self, age: Duration, dt: Duration) -> f64 {
        1.0 - (-self.cumulative_hazard(age, dt)).exp()
    }

    /// Sample a time-to-failure for a disk currently aged `age`, via
    /// inverse-CDF on the piecewise-exponential distribution.
    pub fn sample_ttf(&self, age: Duration, rng: &mut RngStream) -> Duration {
        self.ttf_from_uniform(age, rng.uniform_open())
    }

    /// The time-to-failure [`Hazard::sample_ttf`] returns for the uniform
    /// draw `u` in (0, 1].
    pub fn ttf_from_uniform(&self, age: Duration, u: f64) -> Duration {
        // Target cumulative hazard: -ln(U).
        let mut remaining = -u.ln();
        let mut months = age.as_secs() / SECONDS_PER_MONTH;
        let mut ttf_secs = 0.0;
        for s in &self.segments {
            if months >= s.end_months {
                continue;
            }
            let lambda = s.lambda_per_sec() * self.multiplier;
            let span_secs = (s.end_months - months.max(s.start_months)) * SECONDS_PER_MONTH;
            let seg_hazard = lambda * span_secs;
            if remaining <= seg_hazard {
                ttf_secs += remaining / lambda;
                return Duration::from_secs(ttf_secs);
            }
            remaining -= seg_hazard;
            ttf_secs += span_secs;
            months = s.end_months;
        }
        // Tail: extend the last segment's rate indefinitely.
        let last = self.segments.last().expect("non-empty");
        let lambda = last.lambda_per_sec() * self.multiplier;
        ttf_secs += remaining / lambda;
        Duration::from_secs(ttf_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farm_des::rng::SeedFactory;

    #[test]
    fn table1_values() {
        let h = Hazard::table1();
        assert_eq!(h.segments().len(), 4);
        // Spot-check rates at representative ages.
        let per_1000h = |age_months: f64| {
            h.lambda_at(Duration::from_months(age_months)) * 1000.0 * SECONDS_PER_HOUR
        };
        assert!((per_1000h(1.0) - 0.005).abs() < 1e-12);
        assert!((per_1000h(4.0) - 0.0035).abs() < 1e-12);
        assert!((per_1000h(9.0) - 0.0025).abs() < 1e-12);
        assert!((per_1000h(36.0) - 0.002).abs() < 1e-12);
    }

    #[test]
    fn six_year_failure_probability_near_ten_percent() {
        // §3.5: "only about 10% of the disks fail during the first six
        // years" — our integral gives ≈ 11%.
        let h = Hazard::table1();
        let p = h.failure_probability(Duration::ZERO, Duration::from_months(72.0));
        assert!(
            (0.09..0.13).contains(&p),
            "six-year failure probability {p}"
        );
    }

    #[test]
    fn doubling_rates_roughly_doubles_small_probabilities() {
        let h1 = Hazard::table1();
        let h2 = Hazard::table1().with_multiplier(2.0);
        let p1 = h1.failure_probability(Duration::ZERO, Duration::from_months(12.0));
        let p2 = h2.failure_probability(Duration::ZERO, Duration::from_months(12.0));
        assert!(p2 > 1.9 * p1 && p2 < 2.0 * p1, "p1={p1} p2={p2}");
    }

    #[test]
    fn cumulative_hazard_is_additive() {
        let h = Hazard::table1();
        let a = h.cumulative_hazard(Duration::ZERO, Duration::from_months(5.0));
        let b = h.cumulative_hazard(Duration::from_months(5.0), Duration::from_months(19.0));
        let whole = h.cumulative_hazard(Duration::ZERO, Duration::from_months(24.0));
        assert!((a + b - whole).abs() < 1e-12);
    }

    #[test]
    fn hazard_extends_past_eodl() {
        let h = Hazard::table1();
        let lam = h.lambda_at(Duration::from_months(100.0));
        assert!((lam * 1000.0 * SECONDS_PER_HOUR - 0.002).abs() < 1e-12);
        let ch = h.cumulative_hazard(Duration::from_months(70.0), Duration::from_months(10.0));
        assert!(ch > 0.0);
    }

    #[test]
    fn sampled_ttf_matches_analytic_cdf() {
        let h = Hazard::table1();
        let mut rng = SeedFactory::new(11).stream(0);
        let n = 100_000;
        let horizon = Duration::from_months(72.0);
        let failures = (0..n)
            .filter(|_| h.sample_ttf(Duration::ZERO, &mut rng) < horizon)
            .count();
        let empirical = failures as f64 / n as f64;
        let analytic = h.failure_probability(Duration::ZERO, horizon);
        assert!(
            (empirical - analytic).abs() < 0.005,
            "empirical {empirical} vs analytic {analytic}"
        );
    }

    #[test]
    fn sampled_ttf_respects_age_memory() {
        // A disk aged past infant mortality must fail less in the next
        // 3 months than a brand-new one.
        let h = Hazard::table1();
        let mut rng = SeedFactory::new(5).stream(1);
        let window = Duration::from_months(3.0);
        let n = 60_000;
        let young = (0..n)
            .filter(|_| h.sample_ttf(Duration::ZERO, &mut rng) < window)
            .count();
        let old = (0..n)
            .filter(|_| h.sample_ttf(Duration::from_months(24.0), &mut rng) < window)
            .count();
        assert!(
            young as f64 > 1.5 * old as f64,
            "infant mortality not visible: young={young} old={old}"
        );
    }

    #[test]
    fn constant_hazard_is_exponential() {
        let h = Hazard::constant(0.002);
        let lam = h.lambda_at(Duration::ZERO);
        assert!((h.lambda_at(Duration::from_months(500.0)) - lam).abs() < 1e-18);
        let mut rng = SeedFactory::new(3).stream(0);
        let n = 50_000;
        let mean: f64 = (0..n)
            .map(|_| h.sample_ttf(Duration::ZERO, &mut rng).as_secs())
            .sum::<f64>()
            / n as f64;
        let expected = 1.0 / lam;
        assert!(
            (mean / expected - 1.0).abs() < 0.02,
            "mean {mean} vs {expected}"
        );
    }

    #[test]
    fn flattened_preserves_six_year_probability() {
        let h = Hazard::table1();
        let flat = h.flattened();
        let horizon = Duration::from_months(72.0);
        let a = h.failure_probability(Duration::ZERO, horizon);
        let b = flat.failure_probability(Duration::ZERO, horizon);
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        // But the flat model has no infant mortality:
        let small = Duration::from_months(3.0);
        assert!(
            flat.failure_probability(Duration::ZERO, small)
                < h.failure_probability(Duration::ZERO, small)
        );
    }

    /// The hazards the survival shortcut must be exact for.
    fn shortcut_cases() -> Vec<(&'static str, Hazard)> {
        vec![
            ("table1", Hazard::table1()),
            ("table1x2", Hazard::table1().with_multiplier(2.0)),
            ("constant", Hazard::constant(0.002)),
            ("flattened", Hazard::table1().flattened()),
        ]
    }

    #[test]
    fn survival_shortcut_is_exact() {
        // Taking the shortcut below the threshold and the segment walk
        // above it must decide "outlives the horizon" exactly as the walk
        // alone does, for random draws and for draws within 1e-9
        // (relative) of the threshold and of the exact boundary exp(-Λ).
        let mut rng = SeedFactory::new(2004).stream(0);
        for (name, h) in shortcut_cases() {
            for years in [6.0, 10.0] {
                let horizon = Duration::from_years(years);
                let threshold = h.survival_threshold(horizon);
                let boundary = (-h.cumulative_hazard(Duration::ZERO, horizon)).exp();
                let near = (-1000..=1000).flat_map(|k| {
                    let r = 1.0 + k as f64 * 1e-12;
                    [threshold * r, boundary * r]
                });
                let random = 1_000_000;
                let draws: Vec<f64> = (0..random)
                    .map(|_| rng.uniform_open())
                    .chain(near)
                    .collect();
                let (mut survivors, mut skipped) = (0u64, 0u64);
                for (i, u) in draws.into_iter().enumerate() {
                    let outlives = h.ttf_from_uniform(Duration::ZERO, u) > horizon;
                    let skip = u < threshold;
                    assert_eq!(
                        skip || outlives,
                        outlives,
                        "{name}, {years} y: u={u} skipped but fails inside the horizon"
                    );
                    if i < random {
                        survivors += outlives as u64;
                        skipped += skip as u64;
                    }
                }
                // The margin costs a negligible share of the survivors.
                assert!(
                    skipped as f64 > 0.999 * survivors as f64,
                    "{name}, {years} y: only {skipped} of {survivors} survivors skipped"
                );
            }
        }
    }

    /// [`Hazard::sample_ttf`] as written before the uniform draw was
    /// split out into [`Hazard::ttf_from_uniform`].
    fn unsplit_sample_ttf(h: &Hazard, age: Duration, rng: &mut RngStream) -> Duration {
        let target = -rng.uniform_open().ln();
        let mut remaining = target;
        let mut months = age.as_secs() / SECONDS_PER_MONTH;
        let mut ttf_secs = 0.0;
        for s in &h.segments {
            if months >= s.end_months {
                continue;
            }
            let lambda = s.lambda_per_sec() * h.multiplier;
            let span_secs = (s.end_months - months.max(s.start_months)) * SECONDS_PER_MONTH;
            let seg_hazard = lambda * span_secs;
            if remaining <= seg_hazard {
                ttf_secs += remaining / lambda;
                return Duration::from_secs(ttf_secs);
            }
            remaining -= seg_hazard;
            ttf_secs += span_secs;
            months = s.end_months;
        }
        let last = h.segments.last().expect("non-empty");
        let lambda = last.lambda_per_sec() * h.multiplier;
        ttf_secs += remaining / lambda;
        Duration::from_secs(ttf_secs)
    }

    #[test]
    fn sample_ttf_matches_the_unsplit_sampler_bit_for_bit() {
        for (name, h) in shortcut_cases() {
            for age_months in [0.0, 2.0, 30.0, 80.0] {
                let age = Duration::from_months(age_months);
                let mut a = SeedFactory::new(9).stream(1);
                let mut b = SeedFactory::new(9).stream(1);
                for i in 0..100_000 {
                    let got = h.sample_ttf(age, &mut a).as_secs();
                    let want = unsplit_sample_ttf(&h, age, &mut b).as_secs();
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{name}, age {age_months}, draw {i}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn rejects_gap_in_segments() {
        Hazard::new(vec![
            HazardSegment {
                start_months: 0.0,
                end_months: 3.0,
                rate_per_1000h: 0.005,
            },
            HazardSegment {
                start_months: 4.0,
                end_months: 12.0,
                rate_per_1000h: 0.002,
            },
        ]);
    }
}
