//! A log-bucketed histogram for Monte-Carlo distributions.
//!
//! The paper's headline results are distributions — windows of
//! vulnerability, rebuild delays, per-disk fan-out — so scalar mean/max
//! accumulators ([`crate::stats::Running`]) lose exactly the tail
//! behaviour the figures are about. `Histogram` keeps HDR-style
//! log-linear buckets: each power-of-two octave is split into
//! `2^SUB_BITS` equal sub-buckets, bounding the relative error of any
//! reported quantile by one sub-bucket width (~9%) while the whole
//! structure stays a few KiB, mergeable, and allocation-free to record
//! into (the bucket array is allocated once, on the first sample).
//!
//! Bucket indices are derived from the *bit pattern* of the `f64` value
//! (exponent + top mantissa bits), so bucketing is exact, deterministic
//! and costs a couple of shifts per sample — no `log2`, no division.

use crate::compact::{parse_uint, Fields};
use serde::{Deserialize, Serialize};

/// Sub-bucket resolution: 2^3 = 8 sub-buckets per octave.
const SUB_BITS: u32 = 3;
const SUBS: usize = 1 << SUB_BITS;
/// Smallest representable exponent: values in [2^-16, 2^-16+1) land in
/// bucket 0; anything positive but smaller counts as `underflow`.
const MIN_EXP: i64 = -16;
/// Largest representable exponent: values >= 2^40 count as `overflow`.
const MAX_EXP: i64 = 39;
const N_BUCKETS: usize = ((MAX_EXP - MIN_EXP + 1) as usize) << SUB_BITS;

/// Where a value lands.
enum Slot {
    Zero,
    Under,
    Over,
    Bucket(usize),
}

fn slot_of(v: f64) -> Slot {
    if v.is_nan() || v <= 0.0 {
        // Zero, negatives and NaN all share the zero slot; the callers
        // record non-negative quantities (seconds, counts).
        return Slot::Zero;
    }
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i64 - 1023; // subnormals => -1023
    if exp < MIN_EXP {
        Slot::Under
    } else if exp > MAX_EXP {
        Slot::Over
    } else {
        let sub = ((bits >> (52 - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
        Slot::Bucket((((exp - MIN_EXP) as usize) << SUB_BITS) | sub)
    }
}

/// Lower bound of bucket `idx`: `2^exp * (1 + sub/SUBS)`.
fn bucket_low(idx: usize) -> f64 {
    let exp = MIN_EXP + (idx >> SUB_BITS) as i64;
    let sub = (idx & (SUBS - 1)) as f64;
    (exp as f64).exp2() * (1.0 + sub / SUBS as f64)
}

/// Log-bucketed histogram of non-negative `f64` samples.
///
/// Mergeable like [`crate::stats::Running`] (parallel Monte-Carlo
/// reductions), with exact count/sum/min/max and quantiles accurate to
/// one sub-bucket (values are reported as the bucket's lower bound,
/// clamped into the observed `[min, max]`).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Samples that were zero (or negative/NaN, which callers don't
    /// produce but which must not corrupt the buckets).
    zero: u64,
    /// Positive samples below 2^-16.
    underflow: u64,
    /// Samples at or above 2^40.
    overflow: u64,
    /// Bucketed counts; empty until the first bucketed sample.
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            zero: 0,
            underflow: 0,
            overflow: 0,
            counts: Vec::new(),
            total: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Reset to the empty state while keeping the bucket allocation.
    ///
    /// Observationally identical to a fresh [`Histogram::new`] — the
    /// bucket `Vec` is cleared to length zero (capacity retained), so
    /// every accessor, `merge`, `PartialEq`, and serialized form match
    /// a new histogram bit for bit.
    pub fn reset(&mut self) {
        self.zero = 0;
        self.underflow = 0;
        self.overflow = 0;
        self.counts.clear();
        self.total = 0;
        self.sum = 0.0;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: f64) {
        self.record_n(v, 1);
    }

    /// Record `n` identical samples.
    pub fn record_n(&mut self, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        match slot_of(v) {
            Slot::Zero => self.zero += n,
            Slot::Under => self.underflow += n,
            Slot::Over => self.overflow += n,
            Slot::Bucket(i) => {
                if self.counts.is_empty() {
                    // `resize` instead of a fresh `vec![]` so a reset
                    // histogram re-uses the bucket allocation it kept.
                    self.counts.resize(N_BUCKETS, 0);
                }
                self.counts[i] += n;
            }
        }
        let v = if v.is_nan() || v < 0.0 { 0.0 } else { v };
        self.total += n;
        self.sum += v * n as f64;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Smallest recorded sample (0.0 for an empty histogram).
    pub fn min(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0.0 for an empty histogram).
    pub fn max(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The value at quantile `q` in [0, 1]: the lower bound of the
    /// bucket holding the sample of rank `ceil(q * count)`, clamped to
    /// the observed `[min, max]`. Returns 0.0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        if rank == self.total {
            // The top-ranked sample is the tracked exact maximum.
            return self.max;
        }
        let mut seen = self.zero;
        let raw = 'found: {
            if rank <= seen {
                break 'found 0.0;
            }
            seen += self.underflow;
            if rank <= seen {
                break 'found self.min;
            }
            for (i, &c) in self.counts.iter().enumerate() {
                seen += c;
                if rank <= seen {
                    break 'found bucket_low(i);
                }
            }
            self.max
        };
        raw.clamp(self.min, self.max)
    }

    pub fn p50(&self) -> f64 {
        self.percentile(0.50)
    }

    pub fn p90(&self) -> f64 {
        self.percentile(0.90)
    }

    pub fn p99(&self) -> f64 {
        self.percentile(0.99)
    }

    /// Merge another histogram into this one (parallel reduction).
    /// Equivalent to having recorded the union of both sample streams,
    /// up to f64 addition order in `sum`.
    pub fn merge(&mut self, other: &Histogram) {
        if other.total == 0 {
            return;
        }
        self.zero += other.zero;
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        if !other.counts.is_empty() {
            if self.counts.is_empty() {
                self.counts = other.counts.clone();
            } else {
                for (a, b) in self.counts.iter_mut().zip(&other.counts) {
                    *a += b;
                }
            }
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Approximate mean computed from bucket lower bounds and integer
    /// counts only (the zero slot contributes 0, underflow contributes
    /// `min`, overflow contributes `max`). Unlike [`Histogram::mean`],
    /// whose exact f64 `sum` depends on record/merge order, this is
    /// bit-identical for every merge order that pools the same sample
    /// multiset — the property cross-trial band exports rely on.
    pub fn bucket_mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mut s = self.min * self.underflow as f64 + self.max * self.overflow as f64;
        for (low, c) in self.nonzero_buckets() {
            s += low * c as f64;
        }
        s / self.total as f64
    }

    /// Non-empty buckets as `(lower_bound, count)`, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_low(i), c))
    }

    /// Compact, lossless, line-oriented text form: scalar fields as
    /// key=value (f64s as hex bit patterns, so the round trip is exact)
    /// followed by the sparse `index:count` bucket list.
    pub fn to_compact(&self) -> String {
        let mut s = format!(
            "h1;z={};u={};o={};n={};sum={:016x};min={:016x};max={:016x};b=",
            self.zero,
            self.underflow,
            self.overflow,
            self.total,
            self.sum.to_bits(),
            self.min.to_bits(),
            self.max.to_bits(),
        );
        let mut first = true;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                if !first {
                    s.push(',');
                }
                s.push_str(&format!("{i}:{c}"));
                first = false;
            }
        }
        s
    }

    /// Parse the [`Histogram::to_compact`] form: exactly what it
    /// writes, so campaign checkpoint files read back bit for bit.
    /// Fields come in the encoder's order; buckets are listed by
    /// strictly ascending index with non-zero counts; `n` must equal
    /// `z + u + o + Σcounts`; and a non-empty histogram must have
    /// `min <= max` (a quantile clamps into that range). An empty one
    /// must carry [`Histogram::new`]'s sentinels.
    pub fn from_compact(s: &str) -> Result<Histogram, String> {
        let mut f = Fields::new(s, ';', "h1")?;
        let mut h = Histogram {
            zero: f.uint("z")?,
            underflow: f.uint("u")?,
            overflow: f.uint("o")?,
            counts: Vec::new(),
            total: f.uint("n")?,
            sum: f.hex_f64("sum")?,
            min: f.hex_f64("min")?,
            max: f.hex_f64("max")?,
        };
        let buckets = f.raw("b")?;
        f.end()?;
        let mut seen = [h.zero, h.underflow, h.overflow]
            .iter()
            .try_fold(0u64, |a, &c| a.checked_add(c));
        if !buckets.is_empty() {
            h.counts = vec![0; N_BUCKETS];
            let mut next = 0;
            for pair in buckets.split(',') {
                let bad = || format!("h1: field b: bad bucket {pair:?}");
                let (i, c) = pair.split_once(':').ok_or_else(bad)?;
                let i = parse_uint(i).ok_or_else(bad)? as usize;
                let c = parse_uint(c).filter(|&c| c > 0).ok_or_else(bad)?;
                if i < next || i >= N_BUCKETS {
                    return Err(format!("h1: field b: bucket {i} out of order or range"));
                }
                h.counts[i] = c;
                next = i + 1;
                seen = seen.and_then(|a| a.checked_add(c));
            }
        }
        if seen != Some(h.total) {
            return Err(format!("h1: field n: {} is not z+u+o+Σcounts", h.total));
        }
        let empty = Histogram::new();
        let bounds_ok = if h.total == 0 {
            (h.min.to_bits(), h.max.to_bits()) == (empty.min.to_bits(), empty.max.to_bits())
        } else {
            h.min <= h.max
        };
        if !bounds_ok {
            return Err(format!("h1: field min/max: bad bounds for n={}", h.total));
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedFactory;

    fn samples(n: usize) -> Vec<f64> {
        let mut rng = SeedFactory::new(0x4849_5354).stream(1);
        (0..n)
            .map(|_| {
                // Spread over ~9 decades, including the paper-relevant
                // seconds-to-months range.
                let mag = rng.uniform() * 9.0 - 2.0;
                10f64.powf(mag)
            })
            .collect()
    }

    #[test]
    fn count_sum_min_max_are_exact() {
        let xs = [0.0, 0.5, 1.0, 2.0, 64.0, 6400.0];
        let mut h = Histogram::new();
        for &x in &xs {
            h.record(x);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 6400.0);
        assert!((h.sum() - xs.iter().sum::<f64>()).abs() < 1e-9);
        assert!((h.mean() - xs.iter().sum::<f64>() / 6.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_well_behaved() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.percentile(1.0), 0.0);
    }

    #[test]
    fn percentiles_are_within_one_subbucket() {
        let mut xs = samples(4000);
        let mut h = Histogram::new();
        for &x in &xs {
            h.record(x);
        }
        xs.sort_by(f64::total_cmp);
        for q in [0.10, 0.50, 0.90, 0.99] {
            let exact = xs[((q * xs.len() as f64).ceil() as usize - 1).min(xs.len() - 1)];
            let approx = h.percentile(q);
            let rel = (approx - exact).abs() / exact;
            // One sub-bucket of 8 per octave is a 2^(1/8) ≈ 9% step;
            // allow a hair more for rank-vs-boundary effects.
            assert!(
                rel < 0.15,
                "q={q}: exact {exact}, histogram {approx} (rel {rel})"
            );
        }
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut h = Histogram::new();
        for &x in &samples(2000) {
            h.record(x);
        }
        h.record(0.0);
        let mut last = f64::NEG_INFINITY;
        for i in 0..=100 {
            let p = h.percentile(i as f64 / 100.0);
            assert!(p >= last, "p{i} = {p} < previous {last}");
            last = p;
        }
        assert_eq!(h.percentile(1.0), h.max());
    }

    #[test]
    fn merge_equals_sequential() {
        // Mirrors `Running`'s merge test: splitting the sample stream
        // and merging must reproduce the whole-stream histogram.
        let xs = samples(3000);
        let mut whole = Histogram::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        for &x in &xs[..1234] {
            left.record(x);
        }
        for &x in &xs[1234..] {
            right.record(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
        assert!((left.sum() - whole.sum()).abs() < 1e-6 * whole.sum().abs());
        for q in [0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            assert_eq!(left.percentile(q), whole.percentile(q), "q={q}");
        }
    }

    #[test]
    fn bucket_mean_is_merge_order_independent_and_close_to_exact() {
        let xs = samples(3000);
        let mut parts: Vec<Histogram> = (0..3).map(|_| Histogram::new()).collect();
        for (i, &x) in xs.iter().enumerate() {
            parts[i % 3].record(x);
        }
        parts[0].record(0.0);
        parts[1].record(1e-9);
        parts[2].record(1e13);

        // a+(b+c) vs (a+b)+c must agree to the last bit.
        let mut abc = parts[0].clone();
        let mut bc = parts[1].clone();
        bc.merge(&parts[2]);
        abc.merge(&bc);
        let mut ab = parts[0].clone();
        ab.merge(&parts[1]);
        ab.merge(&parts[2]);
        assert_eq!(abc.bucket_mean().to_bits(), ab.bucket_mean().to_bits());

        // And it approximates the exact mean to within one sub-bucket.
        let rel = (abc.bucket_mean() - abc.mean()).abs() / abc.mean();
        assert!(rel < 0.10, "bucket_mean off by {rel}");
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Histogram::new();
        a.record(3.0);
        a.record(7.0);
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a, before);

        let mut empty = Histogram::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn bucket_boundary_values_land_in_their_own_bucket() {
        // Exact powers of two and exact sub-bucket edges are bucket
        // *lower* bounds: the reported percentile of a single such value
        // is the value itself.
        for v in [
            1.0,
            2.0,
            1024.0,
            1.5,               // 2^0 * (1 + 4/8)
            3.0,               // 2^1 * (1 + 4/8)
            2.25,              // 2^1 * (1 + 1/8)
            0.000030517578125, // 2^-15
        ] {
            let mut h = Histogram::new();
            h.record(v);
            assert_eq!(h.p50(), v, "boundary value {v}");
            // A value just below the edge must not report above it.
            let mut h2 = Histogram::new();
            let below = f64::from_bits(v.to_bits() - 1);
            h2.record(below);
            assert!(h2.p50() <= below, "{below} reported {}", h2.p50());
        }
    }

    #[test]
    fn out_of_range_values_are_counted_not_lost() {
        let mut h = Histogram::new();
        h.record(1e-9); // underflow
        h.record(1e13); // overflow
        h.record(0.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 1e13);
        assert_eq!(h.percentile(1.0), 1e13);
        assert_eq!(h.percentile(0.0), 0.0);
    }

    #[test]
    fn compact_roundtrip_empty() {
        let h = Histogram::new();
        let s = h.to_compact();
        let back = Histogram::from_compact(&s).unwrap();
        assert_eq!(back, h);
        assert!(back.is_empty());
    }

    #[test]
    fn compact_roundtrip_populated() {
        let mut h = Histogram::new();
        for &x in &samples(500) {
            h.record(x);
        }
        h.record(0.0);
        h.record(1e-9);
        h.record(1e13);
        let back = Histogram::from_compact(&h.to_compact()).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.p99(), h.p99());
    }

    #[test]
    fn compact_rejects_garbage() {
        assert!(Histogram::from_compact("").is_err());
        assert!(Histogram::from_compact("h2;b=").is_err());
        assert!(Histogram::from_compact("h1;z=x;b=").is_err());
        assert!(Histogram::from_compact("h1;z=0").is_err()); // no bucket list
        assert!(Histogram::from_compact("h1;b=999999:1").is_err());
        // Read back, this one's p50 would panic: no samples behind n.
        let err = Histogram::from_compact("h1;n=5;b=").unwrap_err();
        assert!(err.contains("field z"), "{err}");
        let mut h = Histogram::new();
        h.record(3.0);
        h.record(5.0);
        let good = h.to_compact();
        assert_eq!(Histogram::from_compact(&good).unwrap().to_compact(), good);
        // n must equal z+u+o+Σcounts.
        let err = Histogram::from_compact(&good.replace(";n=2;", ";n=3;")).unwrap_err();
        assert!(err.contains("field n"), "{err}");
        // Buckets ascend strictly and hold non-zero counts.
        let (head, buckets) = good.split_once(";b=").unwrap();
        let (first, second) = buckets.split_once(',').unwrap();
        for bad in [format!("{second},{first}"), format!("{first},{first}")] {
            assert!(Histogram::from_compact(&format!("{head};b={bad}")).is_err());
        }
        let zero = format!("{head};b={first},0:0,{second}");
        assert!(Histogram::from_compact(&zero).is_err());
        // min > max on a non-empty histogram.
        let (min, max) = (
            format!("{:016x}", 3f64.to_bits()),
            format!("{:016x}", 5f64.to_bits()),
        );
        let swapped = good
            .replace(&min, "MIN")
            .replace(&max, &min)
            .replace("MIN", &max);
        let err = Histogram::from_compact(&swapped).unwrap_err();
        assert!(err.contains("min/max"), "{err}");
    }
}
