//! Minimal command-line parsing shared by all experiment binaries.
//!
//! Every binary accepts:
//!
//! * `--trials N`   — Monte-Carlo trials per data point (default: the
//!   paper's 100 in full mode, 25 in quick mode),
//! * `--seed S`     — master seed (default 2004, the paper's year),
//! * `--quick`      — scale the system down 8× and reduce trials so the
//!   experiment finishes in seconds (default),
//! * `--full`       — the paper's full 2 PiB scale,
//! * `--threads T`  — worker threads (default: all cores, capped).
//!
//! Observability switches (see `farm-obs`; environment variables
//! `FARM_TRACE` / `FARM_PROFILE` / `FARM_PROGRESS` / `FARM_TIMELINE` /
//! `FARM_POSTMORTEM` work everywhere, the flags override them):
//!
//! * `--trace [N|loss]` — emit a JSONL trace of trial N (default 0), or
//!   of every trial that loses data, to stderr; route it to a file with
//!   `FARM_TRACE=N:path` / `FARM_TRACE=loss:path`,
//! * `--timeline [SPEC]` — sample cluster-state gauges per trial and
//!   export cross-trial mean/p10/p90 bands; SPEC is
//!   `[path][@interval_secs]` (default `farm-timeline.csv`, 128 samples
//!   over the horizon; a `.jsonl` extension selects JSONL),
//! * `--profile`     — print an event-loop profile after each batch,
//! * `--status [SPEC]` — live campaign status snapshots: a JSON file
//!   rewritten atomically every few seconds with per-config progress,
//!   trials/sec, ETA and the online Wilson-interval loss estimate; SPEC
//!   is `[path][@interval_secs]` (default `farm-status.json` every 1 s),
//! * `--convergence [SPEC]` — stream estimator-convergence checkpoints
//!   (Wilson-interval trajectory, analytic-anchor drift, batched-means
//!   diagnostics) as JSONL on a decimated schedule; SPEC is
//!   `[path][@base_trials]` (default `farm-convergence.jsonl`, first
//!   checkpoint at 16 trials),
//! * `--target-rel-ci EPS` — sequential stopping: end each batch once
//!   the relative Wilson-95 half-width of its loss estimate reaches
//!   EPS (checked at fixed trial boundaries, so the stopped run is a
//!   bit-identical prefix of the unstopped one; a batch with zero
//!   losses never stops early),
//! * `--spans [SPEC]` — record every block repair as a lifecycle span
//!   (failure → detect → queue → transfer → done) and export it; SPEC
//!   is `[path][@fmt]` with fmt `jsonl` (default, `farm-spans-v1` rows
//!   plus per-disk/per-group bandwidth attribution) or `chrome` (a
//!   trace-event JSON loadable in Perfetto),
//! * `--progress` / `--no-progress` — force batch progress reporting on
//!   or off (default: on only when stderr is a terminal).
//!
//! Data-loss post-mortems have no flag: set `FARM_POSTMORTEM=file.jsonl`.
//! The `/metrics` + `/status` HTTP exporter likewise: `FARM_HTTP=addr`.

use farm_core::montecarlo;
use farm_obs::{
    ConvergenceSpec, ObsOptions, SpansSpec, StatusSpec, TimelineSpec, TraceSel, TraceSpec,
};

/// Parsed experiment options.
#[derive(Clone, Debug)]
pub struct Options {
    pub trials: u64,
    pub seed: u64,
    /// 1.0 = the paper's scale; quick mode uses 1/8.
    pub scale: f64,
    pub threads: usize,
    pub quick: bool,
    /// Trace a trial index — or all data-losing trials — as JSONL
    /// (`--trace [N|loss]`).
    pub trace: Option<TraceSel>,
    /// Sample cluster-state timelines (`--timeline [SPEC]`).
    pub timeline: Option<TimelineSpec>,
    /// Periodic live status snapshots (`--status [SPEC]`).
    pub status: Option<StatusSpec>,
    /// Streaming convergence checkpoints (`--convergence [SPEC]`).
    pub convergence: Option<ConvergenceSpec>,
    /// Sequential stopping target (`--target-rel-ci EPS`).
    pub target_rel_ci: Option<f64>,
    /// Recovery-lifecycle span export (`--spans [SPEC]`).
    pub spans: Option<SpansSpec>,
    /// Force progress reporting on/off (`None` = auto).
    pub progress: Option<bool>,
    /// Print an event-loop profile per batch.
    pub profile: bool,
}

impl Options {
    pub fn quick_default() -> Self {
        Options {
            trials: 25,
            seed: 2004,
            scale: 0.125,
            threads: montecarlo::default_threads(),
            quick: true,
            trace: None,
            timeline: None,
            status: None,
            convergence: None,
            target_rel_ci: None,
            spans: None,
            progress: None,
            profile: false,
        }
    }

    pub fn full_default() -> Self {
        Options {
            scale: 1.0,
            trials: 100,
            quick: false,
            ..Options::quick_default()
        }
    }

    /// Parse `std::env::args`-style strings (first element = program
    /// name is skipped if present via [`Options::from_env`]).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Options, String> {
        let mut opts = Options::quick_default();
        // The last mode flag wins; its scale and default trial count
        // apply after the loop, so no other flag depends on its position.
        let mut full = false;
        let mut explicit_trials = None;
        let mut it = args.into_iter().peekable();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => full = false,
                "--full" => full = true,
                "--trials" => {
                    let v = it.next().ok_or("--trials needs a value")?;
                    explicit_trials = Some(v.parse::<u64>().map_err(|e| format!("--trials: {e}"))?);
                }
                "--seed" => {
                    let v = it.next().ok_or("--seed needs a value")?;
                    opts.seed = v.parse().map_err(|e| format!("--seed: {e}"))?;
                }
                "--threads" => {
                    let v = it.next().ok_or("--threads needs a value")?;
                    opts.threads = v.parse().map_err(|e| format!("--threads: {e}"))?;
                    if opts.threads == 0 {
                        return Err("--threads must be >= 1".into());
                    }
                }
                "--trace" => {
                    // Optional selector; bare `--trace` samples trial 0.
                    let sel = match it.peek() {
                        Some(v) if !v.starts_with('-') => {
                            let v = it.next().unwrap();
                            if v == "loss" {
                                TraceSel::Loss
                            } else {
                                TraceSel::Trial(
                                    v.parse::<u64>().map_err(|e| format!("--trace: {e}"))?,
                                )
                            }
                        }
                        _ => TraceSel::Trial(0),
                    };
                    opts.trace = Some(sel);
                }
                "--timeline" => {
                    // Optional `[path][@interval_secs]` spec; bare
                    // `--timeline` takes every default.
                    let spec = match it.peek() {
                        Some(v) if !v.starts_with('-') => {
                            let v = it.next().unwrap();
                            TimelineSpec::parse(&v).map_err(|e| format!("--timeline: {e}"))?
                        }
                        _ => TimelineSpec::parse("").expect("empty spec is valid"),
                    };
                    opts.timeline = Some(spec);
                }
                "--status" => {
                    // Optional `[path][@interval_secs]` spec; bare
                    // `--status` takes every default.
                    let spec = match it.peek() {
                        Some(v) if !v.starts_with('-') => {
                            let v = it.next().unwrap();
                            StatusSpec::parse(&v).map_err(|e| format!("--status: {e}"))?
                        }
                        _ => StatusSpec::parse("").expect("empty spec is valid"),
                    };
                    opts.status = Some(spec);
                }
                "--convergence" => {
                    // Optional `[path][@base_trials]` spec; bare
                    // `--convergence` takes every default.
                    let spec = match it.peek() {
                        Some(v) if !v.starts_with('-') => {
                            let v = it.next().unwrap();
                            ConvergenceSpec::parse(&v).map_err(|e| format!("--convergence: {e}"))?
                        }
                        _ => ConvergenceSpec::parse("").expect("empty spec is valid"),
                    };
                    opts.convergence = Some(spec);
                }
                "--spans" => {
                    // Optional `[path][@fmt]` spec; bare `--spans`
                    // takes every default.
                    let spec = match it.peek() {
                        Some(v) if !v.starts_with('-') => {
                            let v = it.next().unwrap();
                            SpansSpec::parse(&v).map_err(|e| format!("--spans: {e}"))?
                        }
                        _ => SpansSpec::parse("").expect("empty spec is valid"),
                    };
                    opts.spans = Some(spec);
                }
                "--target-rel-ci" => {
                    let v = it.next().ok_or("--target-rel-ci needs a value")?;
                    let eps: f64 = v.parse().map_err(|e| format!("--target-rel-ci: {e}"))?;
                    if !(eps > 0.0 && eps.is_finite()) {
                        return Err("--target-rel-ci must be a positive finite number".into());
                    }
                    opts.target_rel_ci = Some(eps);
                }
                "--progress" => opts.progress = Some(true),
                "--no-progress" => opts.progress = Some(false),
                "--profile" => opts.profile = true,
                "--help" | "-h" => {
                    return Err(
                        "options: [--quick|--full] [--trials N] [--seed S] [--threads T] \
                         [--trace [N|loss]] [--timeline [SPEC]] [--status [SPEC]] \
                         [--convergence [SPEC]] [--target-rel-ci EPS] [--spans [SPEC]] \
                         [--profile] [--progress|--no-progress]"
                            .into(),
                    );
                }
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        if full {
            let mode = Options::full_default();
            (opts.scale, opts.trials, opts.quick) = (mode.scale, mode.trials, mode.quick);
        }
        if let Some(t) = explicit_trials {
            if t == 0 {
                return Err("--trials must be >= 1".into());
            }
            opts.trials = t;
        }
        Ok(opts)
    }

    /// Resolve the observability switches: environment first, CLI flags
    /// override. A `--trace` flag keeps any `FARM_TRACE` output path.
    pub fn obs_options(&self) -> ObsOptions {
        let mut o = ObsOptions::from_env();
        if let Some(p) = self.progress {
            o.progress = Some(p);
        }
        if self.profile {
            o.profile = true;
        }
        if let Some(sel) = self.trace {
            let path = o.trace.take().and_then(|s| s.path);
            o.trace = Some(TraceSpec { sel, path });
        }
        if let Some(spec) = &self.timeline {
            o.timeline = Some(spec.clone());
        }
        if let Some(spec) = &self.status {
            o.status = Some(spec.clone());
        }
        if let Some(spec) = &self.convergence {
            o.convergence = Some(spec.clone());
        }
        if let Some(eps) = self.target_rel_ci {
            o.target_rel_ci = Some(eps);
        }
        if let Some(spec) = &self.spans {
            o.spans = Some(spec.clone());
        }
        o
    }

    /// Parse the real process arguments, exiting with a message on error.
    /// Installs the resolved observability options process-wide so every
    /// `run_trials*` call in the binary picks them up.
    pub fn from_env() -> Options {
        match Options::parse(std::env::args().skip(1)) {
            Ok(o) => {
                farm_obs::set_global(o.obs_options());
                o
            }
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// Describe the run mode for experiment headers.
    pub fn mode_line(&self) -> String {
        format!(
            "mode: {} (scale x{:.3}), {} trials/point, seed {}, {} threads",
            if self.quick { "quick" } else { "full" },
            self.scale,
            self.trials,
            self.seed,
            self.threads
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_are_quick() {
        let o = parse(&[]).unwrap();
        assert!(o.quick);
        assert_eq!(o.trials, 25);
        assert_eq!(o.seed, 2004);
    }

    #[test]
    fn full_mode() {
        let o = parse(&["--full"]).unwrap();
        assert!(!o.quick);
        assert_eq!(o.trials, 100);
        assert_eq!(o.scale, 1.0);
    }

    #[test]
    fn explicit_trials_survive_mode_switch() {
        let o = parse(&["--trials", "7", "--full"]).unwrap();
        assert_eq!(o.trials, 7);
        let o = parse(&["--full", "--trials", "7"]).unwrap();
        assert_eq!(o.trials, 7);
    }

    #[test]
    fn seed_and_threads_survive_mode_switch() {
        let o = parse(&["--seed", "7", "--quick"]).unwrap();
        assert_eq!(o.seed, 7);
        assert!(o.quick);
        let o = parse(&["--threads", "2", "--full"]).unwrap();
        assert_eq!(o.threads, 2);
        assert!(!o.quick);
        assert_eq!((o.scale, o.trials), (1.0, 100));
        // The last mode flag wins.
        let o = parse(&["--full", "--seed", "7", "--quick"]).unwrap();
        assert_eq!((o.seed, o.scale, o.trials), (7, 0.125, 25));
    }

    #[test]
    fn seed_and_threads() {
        let o = parse(&["--seed", "9", "--threads", "2"]).unwrap();
        assert_eq!(o.seed, 9);
        assert_eq!(o.threads, 2);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["--trials"]).is_err());
        assert!(parse(&["--trials", "zero"]).is_err());
        assert!(parse(&["--trials", "0"]).is_err());
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--trace", "x"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }

    #[test]
    fn observability_flags() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.trace, None);
        assert_eq!(o.progress, None);
        assert!(!o.profile);

        let o = parse(&["--trace", "7", "--profile", "--progress"]).unwrap();
        assert_eq!(o.trace, Some(TraceSel::Trial(7)));
        assert!(o.profile);
        assert_eq!(o.progress, Some(true));

        // Bare --trace defaults to trial 0, even before another flag.
        let o = parse(&["--trace", "--no-progress"]).unwrap();
        assert_eq!(o.trace, Some(TraceSel::Trial(0)));
        assert_eq!(o.progress, Some(false));

        // Loss mode: trace only trials that lose data.
        let o = parse(&["--trace", "loss"]).unwrap();
        assert_eq!(o.trace, Some(TraceSel::Loss));

        // Flags survive a later mode switch.
        let o = parse(&["--trace", "3", "--full"]).unwrap();
        assert_eq!(o.trace, Some(TraceSel::Trial(3)));
        assert!(!o.quick);
    }

    #[test]
    fn timeline_flag_forms() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.timeline, None);

        // Bare --timeline takes every default.
        let o = parse(&["--timeline", "--no-progress"]).unwrap();
        let spec = o.timeline.expect("timeline on");
        assert_eq!(spec.path, farm_obs::timeline::DEFAULT_TIMELINE_PATH);
        assert_eq!(spec.interval_secs, None);

        let o = parse(&["--timeline", "tl.jsonl@604800", "--full"]).unwrap();
        let spec = o.timeline.expect("timeline on");
        assert_eq!(spec.path, "tl.jsonl");
        assert_eq!(spec.interval_secs, Some(604800.0));
        assert!(spec.json());
        assert!(!o.quick);

        assert!(parse(&["--timeline", "tl.csv@nope"]).is_err());
    }

    #[test]
    fn status_flag_forms() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.status, None);

        // Bare --status takes every default.
        let o = parse(&["--status", "--no-progress"]).unwrap();
        let spec = o.status.expect("status on");
        assert_eq!(spec.path, farm_obs::status::DEFAULT_STATUS_PATH);
        assert_eq!(spec.interval_secs, None);

        let o = parse(&["--status", "live.json@0.5", "--full"]).unwrap();
        let spec = o.status.expect("status on");
        assert_eq!(spec.path, "live.json");
        assert_eq!(spec.interval_secs, Some(0.5));
        assert!(!o.quick);

        assert!(parse(&["--status", "live.json@never"]).is_err());
    }

    #[test]
    fn convergence_flag_forms() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.convergence, None);
        assert_eq!(o.target_rel_ci, None);

        // Bare --convergence takes every default.
        let o = parse(&["--convergence", "--no-progress"]).unwrap();
        let spec = o.convergence.expect("convergence on");
        assert_eq!(spec.path, farm_obs::convergence::DEFAULT_CONVERGENCE_PATH);
        assert_eq!(spec.base_trials, None);

        let o = parse(&["--convergence", "conv.jsonl@8", "--full"]).unwrap();
        let spec = o.convergence.expect("convergence on");
        assert_eq!(spec.path, "conv.jsonl");
        assert_eq!(spec.base_trials, Some(8));
        assert!(!o.quick);

        let o = parse(&["--target-rel-ci", "0.1"]).unwrap();
        assert_eq!(o.target_rel_ci, Some(0.1));

        assert!(parse(&["--convergence", "c.jsonl@zero"]).is_err());
        assert!(parse(&["--target-rel-ci"]).is_err());
        assert!(parse(&["--target-rel-ci", "0"]).is_err());
        assert!(parse(&["--target-rel-ci", "-0.5"]).is_err());
        assert!(parse(&["--target-rel-ci", "inf"]).is_err());
    }

    #[test]
    fn spans_flag_forms() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.spans, None);

        // Bare --spans takes every default.
        let o = parse(&["--spans", "--no-progress"]).unwrap();
        let spec = o.spans.expect("spans on");
        assert_eq!(spec.path, farm_obs::spans::DEFAULT_SPANS_PATH);
        assert_eq!(spec.format, farm_obs::SpanFormat::Jsonl);

        let o = parse(&["--spans", "trace.json@chrome", "--full"]).unwrap();
        let spec = o.spans.expect("spans on");
        assert_eq!(spec.path, "trace.json");
        assert_eq!(spec.format, farm_obs::SpanFormat::Chrome);
        assert!(!o.quick);

        let obs = parse(&["--spans", "run.jsonl"]).unwrap().obs_options();
        assert_eq!(
            obs.spans.as_ref().map(|s| s.path.as_str()),
            Some("run.jsonl")
        );

        assert!(parse(&["--spans", "x@perfetto"]).is_err());
    }

    #[test]
    fn obs_options_reflect_flags() {
        let mut o = parse(&["--profile", "--no-progress"]).unwrap();
        o.trace = Some(TraceSel::Trial(5));
        o.timeline = Some(TimelineSpec::parse("bands.csv").unwrap());
        o.status = Some(StatusSpec::parse("live.json@2").unwrap());
        let obs = o.obs_options();
        assert!(obs.profile);
        assert_eq!(obs.progress, Some(false));
        assert_eq!(obs.trace.as_ref().map(|s| s.sel), Some(TraceSel::Trial(5)));
        assert_eq!(
            obs.timeline.as_ref().map(|s| s.path.as_str()),
            Some("bands.csv")
        );
        assert_eq!(
            obs.status.as_ref().map(|s| s.path.as_str()),
            Some("live.json")
        );
        assert!(obs.monitor_requested());

        let mut o = parse(&["--no-progress"]).unwrap();
        o.convergence = Some(ConvergenceSpec::parse("conv.jsonl@32").unwrap());
        o.target_rel_ci = Some(0.25);
        let obs = o.obs_options();
        assert_eq!(
            obs.convergence.as_ref().map(|s| s.path.as_str()),
            Some("conv.jsonl")
        );
        assert_eq!(obs.target_rel_ci, Some(0.25));
    }
}
