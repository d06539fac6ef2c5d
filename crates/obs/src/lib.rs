//! # farm-obs — observability for the FARM simulator
//!
//! The simulator's results are distributions and its workloads are
//! long-running Monte-Carlo batches, so this crate provides the layer a
//! serving system would have:
//!
//! * [`profile::EventProfile`] — per-event-type counts and wall time in
//!   the discrete-event loop, plus queue-depth sampling,
//! * [`trace::TrialTracer`] — a structured JSONL trace of one sampled
//!   trial (failures, detections, redirections, rebuilds, losses),
//! * [`progress::Progress`] — rate-limited stderr progress for
//!   Monte-Carlo batches (trials done, trials/sec, ETA, losses),
//! * [`diag`] — a process-wide diagnostics sink with once-per-process
//!   warning dedup (replaces ad-hoc `eprintln!`s),
//! * [`timeline::TimelineRecorder`] / [`timeline::TimelineBands`] —
//!   fixed-interval cluster-state gauges per trial, merged across the
//!   batch into mean/p10/p90 bands (`FARM_TIMELINE` / `--timeline`),
//! * [`flight::FlightRecorder`] — a bounded per-group ring of recent
//!   failure/rebuild events that emits a JSON post-mortem of the causal
//!   chain whenever a group loses data (`FARM_POSTMORTEM`),
//! * [`registry::CampaignMonitor`] — the live campaign monitor: a
//!   sharded per-worker metrics registry aggregated on demand, periodic
//!   atomic-rename status snapshots with an online Wilson-interval loss
//!   estimate (`FARM_STATUS=path[@secs]` / `--status`), and a std-only
//!   HTTP listener serving `/metrics` + `/status` (`FARM_HTTP=addr`);
//!   a resumed checkpointed campaign reports through it too, counting
//!   only the chunks that run builds,
//! * [`convergence::ConvergenceTracker`] / [`convergence::ConvergenceCore`]
//!   — estimator-convergence observability: a decimated JSONL stream of
//!   Wilson-interval trajectories, analytic-anchor drift, and
//!   batched-means drift diagnostics (`FARM_CONVERGENCE=path[@trials]`
//!   / `--convergence`), plus the deterministic `--target-rel-ci`
//!   sequential stopping rule,
//! * [`spans::SpanRecorder`] — recovery-lifecycle span tracing: every
//!   block repair as a span with phase attribution (detect / queue /
//!   transfer), per-disk/per-group bandwidth accounting, exported as
//!   `farm-spans-v1` JSONL or a Chrome trace-event file
//!   (`FARM_SPANS=path[@fmt]` / `--spans`), and critical-path
//!   breakdowns in data-loss post-mortems,
//! * [`ObsOptions`] — the switchboard, populated from `FARM_TRACE` /
//!   `FARM_PROFILE` / `FARM_PROGRESS` / `FARM_TIMELINE` /
//!   `FARM_POSTMORTEM` / `FARM_STATUS` / `FARM_HTTP` /
//!   `FARM_CONVERGENCE` / `FARM_TARGET_REL_CI` / `FARM_SPANS` or from
//!   CLI flags.
//!
//! **Overhead contract:** everything here is *off by default*, and the
//! disabled path inside the trial event loop is a branch on an
//! `Option`/`bool` — no allocation, no atomics, no syscalls. Whether
//! observability is on or off never changes simulation results (pinned
//! by the golden-metrics determinism test in `tests/observability.rs`).

pub mod convergence;
pub mod diag;
pub mod flight;
pub mod http;
pub mod profile;
pub mod progress;
pub mod registry;
pub mod rss;
pub mod sink;
pub mod spans;
pub mod status;
pub mod timeline;
pub mod trace;

pub use convergence::{ConvergenceCore, ConvergenceSpec, ConvergenceTracker, STOP_CHECK_EVERY};
pub use flight::FlightRecorder;
pub use profile::EventProfile;
pub use progress::Progress;
pub use registry::{BatchHandle, BatchTotals, CampaignMonitor, SpanPhases, WorkerShard};
pub use sink::open_batch_file;
pub use spans::{CriticalPath, SpanFormat, SpanRecorder, SpansSpec, TrialSpans};
pub use status::StatusSpec;
pub use timeline::{TimelineBands, TimelineRecorder, TimelineSpec, GAUGES, N_GAUGES};
pub use trace::{TraceSel, TraceSpec, TrialTracer};

use std::sync::OnceLock;

/// What to observe during a Monte-Carlo run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObsOptions {
    /// Batch progress reporting on stderr. `None` = auto: on only when
    /// stderr is a terminal (so CI logs and piped output stay clean).
    pub progress: Option<bool>,
    /// Profile the event loop (per-event-type counts/time, queue depth).
    pub profile: bool,
    /// Trace one sampled trial (or all data-losing trials) as JSONL.
    pub trace: Option<TraceSpec>,
    /// Sample cluster-state gauges at a fixed simulated-time interval
    /// and export cross-trial bands.
    pub timeline: Option<TimelineSpec>,
    /// JSONL path for data-loss post-mortems (enables the per-group
    /// flight recorder).
    pub postmortem: Option<String>,
    /// Periodic campaign status snapshots (`FARM_STATUS=path[@secs]`).
    pub status: Option<StatusSpec>,
    /// Listen address for the `/metrics` + `/status` HTTP exporter
    /// (`FARM_HTTP=addr`, e.g. `127.0.0.1:9919`; port 0 picks one).
    pub http: Option<String>,
    /// Streaming estimator-convergence checkpoints as JSONL
    /// (`FARM_CONVERGENCE=path[@trials]` / `--convergence`).
    pub convergence: Option<ConvergenceSpec>,
    /// Sequential stopping: halt a batch once the relative Wilson-95
    /// half-width of its loss estimate reaches this target
    /// (`FARM_TARGET_REL_CI=eps` / `--target-rel-ci`). The one
    /// observability knob that intentionally changes how many trials
    /// run — but deterministically: same config + master seed + target
    /// ⇒ the same stopping trial count, and the stopped run is a
    /// bit-identical prefix of the unstopped one.
    pub target_rel_ci: Option<f64>,
    /// Recovery-lifecycle span tracing: one span per block repair with
    /// phase attribution and bandwidth accounting, exported as
    /// `farm-spans-v1` JSONL or a Chrome trace-event file
    /// (`FARM_SPANS=path[@fmt]` / `--spans`).
    pub spans: Option<SpansSpec>,
}

impl ObsOptions {
    /// Everything off — the zero-overhead default.
    pub fn off() -> Self {
        ObsOptions {
            progress: Some(false),
            profile: false,
            trace: None,
            timeline: None,
            postmortem: None,
            status: None,
            http: None,
            convergence: None,
            target_rel_ci: None,
            spans: None,
        }
    }

    /// Does this configuration ask for the live campaign monitor?
    pub fn monitor_requested(&self) -> bool {
        self.status.is_some() || self.http.is_some()
    }

    /// Read the `FARM_PROGRESS`, `FARM_PROFILE`, `FARM_TRACE`,
    /// `FARM_TIMELINE` and `FARM_POSTMORTEM` environment variables.
    /// Unset variables leave the default (progress auto-detects a
    /// terminal; everything else off).
    pub fn from_env() -> Self {
        let mut o = ObsOptions::default();
        if let Ok(v) = std::env::var("FARM_PROGRESS") {
            o.progress = Some(env_truthy(&v));
        }
        if let Ok(v) = std::env::var("FARM_PROFILE") {
            o.profile = env_truthy(&v);
        }
        if let Ok(v) = std::env::var("FARM_TRACE") {
            match TraceSpec::parse(&v) {
                Ok(spec) => o.trace = Some(spec),
                Err(e) => {
                    diag::warn_once("FARM_TRACE", &format!("ignoring FARM_TRACE={v:?}: {e}"));
                }
            }
        }
        if let Ok(v) = std::env::var("FARM_TIMELINE") {
            if env_truthy(&v) {
                match TimelineSpec::parse(&v) {
                    Ok(spec) => o.timeline = Some(spec),
                    Err(e) => {
                        diag::warn_once(
                            "FARM_TIMELINE",
                            &format!("ignoring FARM_TIMELINE={v:?}: {e}"),
                        );
                    }
                }
            }
        }
        if let Ok(v) = std::env::var("FARM_POSTMORTEM") {
            if env_truthy(&v) {
                o.postmortem = Some(v);
            }
        }
        if let Ok(v) = std::env::var("FARM_STATUS") {
            if env_truthy(&v) {
                match StatusSpec::parse(&v) {
                    Ok(spec) => o.status = Some(spec),
                    Err(e) => {
                        diag::warn_once("FARM_STATUS", &format!("ignoring FARM_STATUS={v:?}: {e}"));
                    }
                }
            }
        }
        if let Ok(v) = std::env::var("FARM_HTTP") {
            if env_truthy(&v) {
                o.http = Some(v.trim().to_string());
            }
        }
        if let Ok(v) = std::env::var("FARM_CONVERGENCE") {
            if env_truthy(&v) {
                match ConvergenceSpec::parse(&v) {
                    Ok(spec) => o.convergence = Some(spec),
                    Err(e) => {
                        diag::warn_once(
                            "FARM_CONVERGENCE",
                            &format!("ignoring FARM_CONVERGENCE={v:?}: {e}"),
                        );
                    }
                }
            }
        }
        if let Ok(v) = std::env::var("FARM_SPANS") {
            if env_truthy(&v) {
                match SpansSpec::parse(&v) {
                    Ok(spec) => o.spans = Some(spec),
                    Err(e) => {
                        diag::warn_once("FARM_SPANS", &format!("ignoring FARM_SPANS={v:?}: {e}"));
                    }
                }
            }
        }
        if let Ok(v) = std::env::var("FARM_TARGET_REL_CI") {
            match v.trim().parse::<f64>() {
                Ok(eps) if eps > 0.0 && eps.is_finite() => o.target_rel_ci = Some(eps),
                _ => {
                    diag::warn_once(
                        "FARM_TARGET_REL_CI",
                        &format!(
                            "ignoring FARM_TARGET_REL_CI={v:?}: expected a positive finite number"
                        ),
                    );
                }
            }
        }
        o
    }

    /// Resolve the progress switch (auto = stderr is a terminal).
    pub fn progress_enabled(&self) -> bool {
        use std::io::IsTerminal;
        self.progress
            .unwrap_or_else(|| std::io::stderr().is_terminal())
    }
}

fn env_truthy(v: &str) -> bool {
    !matches!(v.trim(), "" | "0" | "false" | "off" | "no")
}

static GLOBAL: OnceLock<ObsOptions> = OnceLock::new();

/// Install process-wide observability options (e.g. from CLI flags).
/// First caller wins; returns false if options were already installed.
pub fn set_global(opts: ObsOptions) -> bool {
    GLOBAL.set(opts).is_ok()
}

/// The process-wide options: what [`set_global`] installed, else the
/// environment. Read once and cached — consulting this per batch (not
/// per trial or per event) keeps the off path free of env syscalls.
pub fn global() -> &'static ObsOptions {
    GLOBAL.get_or_init(ObsOptions::from_env)
}

static MONITOR: OnceLock<CampaignMonitor> = OnceLock::new();

/// The live campaign monitor for a batch with the given options:
/// `None` unless the options ask for one ([`ObsOptions::monitor_requested`]),
/// else the process-wide monitor — created on first use from *this*
/// batch's status/http specs (a campaign has one status file and one
/// listener; later batches attach to the same monitor). Consulted once
/// per batch, never per trial.
pub fn campaign_monitor(obs: &ObsOptions) -> Option<&'static CampaignMonitor> {
    if !obs.monitor_requested() {
        return None;
    }
    Some(MONITOR.get_or_init(|| CampaignMonitor::new(obs.status.clone(), obs.http.as_deref())))
}

/// The already-installed campaign monitor, if any batch has created one
/// (test and debugging hook — e.g. to discover the bound `/metrics`
/// port after `FARM_HTTP=127.0.0.1:0`).
pub fn installed_monitor() -> Option<&'static CampaignMonitor> {
    MONITOR.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_really_off() {
        let o = ObsOptions::off();
        assert!(!o.progress_enabled());
        assert!(!o.profile);
        assert!(o.trace.is_none());
        assert!(o.timeline.is_none());
        assert!(o.postmortem.is_none());
        assert!(o.status.is_none());
        assert!(o.http.is_none());
        assert!(o.convergence.is_none());
        assert!(o.target_rel_ci.is_none());
        assert!(o.spans.is_none());
        assert!(!o.monitor_requested());
        // Off options never install a campaign monitor.
        assert!(campaign_monitor(&o).is_none());
    }

    #[test]
    fn monitor_requested_by_status_or_http() {
        let mut o = ObsOptions::off();
        o.status = Some(StatusSpec::parse("s.json@5").unwrap());
        assert!(o.monitor_requested());
        let mut o = ObsOptions::off();
        o.http = Some("127.0.0.1:0".into());
        assert!(o.monitor_requested());
    }

    #[test]
    fn env_truthiness() {
        for v in ["0", "false", "off", "no", "", "  "] {
            assert!(!env_truthy(v), "{v:?} should be falsy");
        }
        for v in ["1", "true", "yes", "on", "2"] {
            assert!(env_truthy(v), "{v:?} should be truthy");
        }
    }
}
