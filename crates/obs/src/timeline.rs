//! Cluster-state timelines: fixed-interval gauge sampling per trial,
//! merged across a Monte-Carlo batch into mean/p10/p90 bands.
//!
//! The paper's whole argument — window of vulnerability, recovery
//! parallelism, spare exhaustion — is about how cluster state *evolves*
//! over the six simulated years, yet a trial normally reports only
//! end-of-horizon scalars. With a timeline attached, the simulator
//! samples a small set of gauges at every multiple of a fixed interval:
//!
//! | gauge | definition |
//! |---|---|
//! | `failed_disks`       | drives in the `Failed` state (dead, not yet replaced by a batch) |
//! | `rebuilds_in_flight` | unavailable blocks of live groups (awaiting detection or rebuilding) |
//! | `vulnerable_groups`  | live groups with at least one unavailable block |
//! | `recovery_util`      | fraction of active drives whose recovery pipe is busy |
//! | `spare_frac`         | free capacity of active drives / their total capacity |
//!
//! Each trial yields exactly `floor(duration / interval)` rows. The
//! batch aggregator pools the trials' rows per sample instant into one
//! mergeable [`Histogram`] per gauge, from which the exported bands
//! (mean, p10, p90, min, max) are read. Trials are merged in trial-index
//! order, so the rendered output is bit-identical regardless of worker
//! thread count.

use farm_des::Histogram;
use std::fmt::Write as _;

/// Gauge names, in row order.
pub const GAUGES: [&str; 5] = [
    "failed_disks",
    "rebuilds_in_flight",
    "vulnerable_groups",
    "recovery_util",
    "spare_frac",
];

/// Number of gauges sampled per instant.
pub const N_GAUGES: usize = GAUGES.len();

/// Where the timeline goes and how often to sample.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimelineSpec {
    /// Output path. Extension `.json`/`.jsonl` selects JSONL; anything
    /// else is CSV.
    pub path: String,
    /// Sample interval in simulated seconds; `None` = duration / 128.
    pub interval_secs: Option<f64>,
}

/// Default output path for a bare `--timeline` / `FARM_TIMELINE=1`.
pub const DEFAULT_TIMELINE_PATH: &str = "farm-timeline.csv";

impl TimelineSpec {
    /// Parse a `FARM_TIMELINE` / `--timeline` spec:
    ///
    /// * `""` or `"1"` — CSV to `farm-timeline.csv`, auto interval,
    /// * `"out.csv"` — CSV to `out.csv`,
    /// * `"out.jsonl"` — JSONL to `out.jsonl`,
    /// * `"out.csv@604800"` — sample every 604800 simulated seconds,
    /// * `"@3600"` — default path, hourly samples.
    pub fn parse(s: &str) -> Result<TimelineSpec, String> {
        let (path, interval) = crate::split_spec(s);
        let interval_secs = match interval {
            Some(i) => {
                let secs = i
                    .parse::<f64>()
                    .map_err(|e| format!("interval {i:?}: {e}"))?;
                if !(secs > 0.0 && secs.is_finite()) {
                    return Err(format!("interval must be positive, got {i:?}"));
                }
                Some(secs)
            }
            None => None,
        };
        Ok(TimelineSpec {
            path: path.unwrap_or(DEFAULT_TIMELINE_PATH).to_string(),
            interval_secs,
        })
    }

    /// The effective sample interval for a horizon of `duration_secs`.
    pub fn resolve_interval(&self, duration_secs: f64) -> f64 {
        self.interval_secs.unwrap_or(duration_secs / 128.0)
    }

    /// JSONL output (by extension)?
    pub fn json(&self) -> bool {
        self.path.ends_with(".json") || self.path.ends_with(".jsonl")
    }
}

/// One trial's gauge rows, recorded at `interval, 2·interval, …`.
#[derive(Clone, Debug)]
pub struct TimelineRecorder {
    interval_secs: f64,
    n_samples: u64,
    rows: Vec<[f64; N_GAUGES]>,
}

impl TimelineRecorder {
    /// A recorder for a horizon of `duration_secs`, sampling every
    /// `interval_secs`. Exactly `floor(duration / interval)` rows will
    /// be recorded (the epsilon forgives `duration / 128.0` round-trip
    /// error in the auto interval).
    pub fn new(interval_secs: f64, duration_secs: f64) -> Self {
        assert!(interval_secs > 0.0, "sample interval must be positive");
        let n_samples = (duration_secs / interval_secs + 1e-9).floor() as u64;
        TimelineRecorder {
            interval_secs,
            n_samples,
            rows: Vec::with_capacity(n_samples as usize),
        }
    }

    /// The next sample instant (simulated seconds), if any remain.
    #[inline]
    pub fn due(&self) -> Option<f64> {
        let k = self.rows.len() as u64;
        (k < self.n_samples).then(|| (k + 1) as f64 * self.interval_secs)
    }

    /// Record the gauge row for the instant [`TimelineRecorder::due`]
    /// reported.
    pub fn push(&mut self, row: [f64; N_GAUGES]) {
        debug_assert!(self.due().is_some(), "timeline already complete");
        self.rows.push(row);
    }

    pub fn interval_secs(&self) -> f64 {
        self.interval_secs
    }

    pub fn n_samples(&self) -> u64 {
        self.n_samples
    }

    pub fn rows(&self) -> &[[f64; N_GAUGES]] {
        &self.rows
    }

    /// Have all sample instants been recorded?
    pub fn is_complete(&self) -> bool {
        self.rows.len() as u64 == self.n_samples
    }
}

/// Cross-trial aggregate: one mergeable [`Histogram`] per (sample
/// instant, gauge), from which the exported bands are read.
#[derive(Clone, Debug, Default)]
pub struct TimelineBands {
    interval_secs: f64,
    trials: u64,
    samples: Vec<[Histogram; N_GAUGES]>,
}

impl TimelineBands {
    pub fn new() -> Self {
        TimelineBands::default()
    }

    pub fn trials(&self) -> u64 {
        self.trials
    }

    pub fn n_samples(&self) -> usize {
        self.samples.len()
    }

    /// Pool one trial's rows. All trials of a batch share a config, so
    /// their shapes must match (the first trial fixes the shape).
    pub fn add_trial(&mut self, rec: &TimelineRecorder) {
        assert!(rec.is_complete(), "trial timeline incomplete");
        if self.samples.is_empty() && self.trials == 0 {
            self.interval_secs = rec.interval_secs;
            self.samples = (0..rec.n_samples)
                .map(|_| std::array::from_fn(|_| Histogram::new()))
                .collect();
        }
        assert_eq!(
            self.samples.len(),
            rec.rows.len(),
            "timeline shape mismatch across trials"
        );
        for (hists, row) in self.samples.iter_mut().zip(&rec.rows) {
            for (h, &v) in hists.iter_mut().zip(row) {
                h.record(v);
            }
        }
        self.trials += 1;
    }

    /// Merge another batch partial (parallel reduction).
    pub fn merge(&mut self, other: &TimelineBands) {
        if other.trials == 0 {
            return;
        }
        if self.trials == 0 {
            *self = other.clone();
            return;
        }
        assert_eq!(
            self.samples.len(),
            other.samples.len(),
            "timeline shape mismatch in merge"
        );
        for (a, b) in self.samples.iter_mut().zip(&other.samples) {
            for (ha, hb) in a.iter_mut().zip(b) {
                ha.merge(hb);
            }
        }
        self.trials += other.trials;
    }

    /// CSV column order (after the header row).
    pub const CSV_HEADER: &'static str = "batch,sample,t_secs,gauge,trials,mean,p10,p90,min,max";

    /// Render the bands: one line per (sample instant, gauge). CSV gets
    /// the header only when `header` is set (fresh file); JSONL never
    /// needs one.
    pub fn render(&self, batch: u64, json: bool, header: bool) -> String {
        let mut out = String::new();
        if !json && header {
            out.push_str(Self::CSV_HEADER);
            out.push('\n');
        }
        for (i, hists) in self.samples.iter().enumerate() {
            let sample = i as u64 + 1;
            let t = sample as f64 * self.interval_secs;
            for (g, h) in GAUGES.iter().zip(hists) {
                // bucket_mean, not mean(): the rendered bands must be
                // bit-identical for any trial merge order.
                let (mean, p10, p90, min, max) = (
                    h.bucket_mean(),
                    h.percentile(0.10),
                    h.percentile(0.90),
                    h.min(),
                    h.max(),
                );
                if json {
                    let _ = writeln!(
                        out,
                        "{{\"batch\":{batch},\"sample\":{sample},\"t_secs\":{t},\"gauge\":\"{g}\",\
                         \"trials\":{},\"mean\":{mean},\"p10\":{p10},\"p90\":{p90},\
                         \"min\":{min},\"max\":{max}}}",
                        h.count(),
                    );
                } else {
                    let _ = writeln!(
                        out,
                        "{batch},{sample},{t},{g},{},{mean},{p10},{p90},{min},{max}",
                        h.count(),
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing_forms() {
        for s in ["", "1"] {
            let spec = TimelineSpec::parse(s).unwrap();
            assert_eq!(spec.path, DEFAULT_TIMELINE_PATH);
            assert_eq!(spec.interval_secs, None);
            assert!(!spec.json());
        }
        let spec = TimelineSpec::parse("tl.jsonl").unwrap();
        assert_eq!(spec.path, "tl.jsonl");
        assert!(spec.json());
        let spec = TimelineSpec::parse("tl.csv@604800").unwrap();
        assert_eq!(spec.path, "tl.csv");
        assert_eq!(spec.interval_secs, Some(604800.0));
        let spec = TimelineSpec::parse("@3600").unwrap();
        assert_eq!(spec.path, DEFAULT_TIMELINE_PATH);
        assert_eq!(spec.interval_secs, Some(3600.0));
        assert!(TimelineSpec::parse("x@zero").is_err());
        assert!(TimelineSpec::parse("x@-5").is_err());
        assert!(TimelineSpec::parse("x@0").is_err());
    }

    #[test]
    fn auto_interval_yields_128_rows() {
        let spec = TimelineSpec::parse("").unwrap();
        let dur = 6.0 * 365.25 * 86400.0;
        let rec = TimelineRecorder::new(spec.resolve_interval(dur), dur);
        assert_eq!(rec.n_samples(), 128);
    }

    #[test]
    fn recorder_row_count_is_duration_over_interval() {
        let mut rec = TimelineRecorder::new(10.0, 95.0);
        assert_eq!(rec.n_samples(), 9);
        let mut instants = Vec::new();
        while let Some(t) = rec.due() {
            instants.push(t);
            rec.push([0.0; N_GAUGES]);
        }
        assert!(rec.is_complete());
        assert_eq!(rec.rows().len(), 9);
        assert_eq!(instants[0], 10.0);
        assert_eq!(instants[8], 90.0);
    }

    fn rec_with(rows: &[[f64; N_GAUGES]], interval: f64) -> TimelineRecorder {
        let mut r = TimelineRecorder::new(interval, interval * rows.len() as f64);
        for row in rows {
            r.push(*row);
        }
        r
    }

    #[test]
    fn bands_pool_trials_and_merge_order_independently() {
        let a = rec_with(&[[1.0, 0.0, 0.0, 0.5, 0.9], [2.0, 1.0, 1.0, 0.5, 0.8]], 5.0);
        let b = rec_with(&[[3.0, 0.0, 0.0, 0.0, 0.9], [4.0, 3.0, 2.0, 1.0, 0.7]], 5.0);
        let c = rec_with(&[[5.0, 0.0, 1.0, 0.0, 0.9], [6.0, 5.0, 3.0, 0.0, 0.6]], 5.0);

        let mut whole = TimelineBands::new();
        for r in [&a, &b, &c] {
            whole.add_trial(r);
        }
        let mut left = TimelineBands::new();
        left.add_trial(&a);
        let mut right = TimelineBands::new();
        right.add_trial(&b);
        right.add_trial(&c);
        left.merge(&right);

        assert_eq!(whole.trials(), 3);
        assert_eq!(left.trials(), 3);
        // Bands are order-independent under merge: quantiles, extremes
        // and counts come from pooled integer bucket counts.
        assert_eq!(whole.render(0, false, true), left.render(0, false, true));
    }

    #[test]
    fn render_emits_one_line_per_sample_and_gauge() {
        let mut bands = TimelineBands::new();
        bands.add_trial(&rec_with(&[[1.0, 2.0, 3.0, 0.25, 0.75]], 60.0));
        let csv = bands.render(2, false, true);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], TimelineBands::CSV_HEADER);
        assert_eq!(lines.len(), 1 + N_GAUGES);
        assert!(lines[1].starts_with("2,1,60,failed_disks,1,1,"));

        let jsonl = bands.render(2, true, false);
        let jlines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(jlines.len(), N_GAUGES);
        for l in jlines {
            assert!(
                l.starts_with("{\"batch\":2,\"sample\":1,\"t_secs\":60,"),
                "{l}"
            );
            assert!(l.ends_with('}'), "{l}");
        }
    }

    #[test]
    #[should_panic]
    fn incomplete_trial_cannot_be_pooled() {
        let mut rec = TimelineRecorder::new(10.0, 100.0);
        rec.push([0.0; N_GAUGES]);
        let mut bands = TimelineBands::new();
        bands.add_trial(&rec);
    }
}
