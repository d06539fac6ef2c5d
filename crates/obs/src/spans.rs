//! Recovery-lifecycle span tracing (`FARM_SPANS=path[@fmt]`,
//! `--spans [SPEC]`).
//!
//! The paper's argument is about the *shape* of recovery — detection
//! latency, queueing behind busy pipes, bandwidth-limited transfer —
//! but the batch summaries pool those phases into histograms and lose
//! the per-repair narrative. This module makes every block repair a
//! **span**: opened when a failure makes the block vulnerable, advanced
//! through phase transitions (detected, scheduled, redirected), and
//! closed by exactly one terminal outcome (`rebuilt`, `loss_disk`,
//! `loss_latent`, or `truncated` at end of trial).
//!
//! Every instant of a span's life is attributed to exactly one phase:
//!
//! * **detect** — from the failure (or a redirecting re-failure) until
//!   the scrubbing Detect event schedules a rebuild,
//! * **queue** — from scheduling until the rebuild's pipes free up,
//! * **transfer** — the bandwidth-limited rebuild itself.
//!
//! so `detect_secs + queue_secs + transfer_secs` telescopes to the
//! span's end-to-end duration — the invariant the critical-path
//! extraction in data-loss post-mortems relies on (the breakdown of a
//! fatal vulnerability window sums to the window).
//!
//! Two export formats, chosen by the spec's `@fmt` suffix:
//!
//! * `jsonl` (default) — one `farm-spans-v1` object per span, plus
//!   sparse `farm-spans-bw-v1` per-disk/per-group bandwidth-attribution
//!   rows per trial (validated by `scripts/check_telemetry.py spans`),
//! * `chrome` — a Chrome trace-event JSON file loadable in Perfetto /
//!   `chrome://tracing` (`pid` = trial, `tid` = group, one complete
//!   event per span plus nested phase events).
//!
//! Spans are one renderer over the trial's recovery log
//! ([`crate::trial_log`]): at trial end [`TrialLog::spans`] replays the
//! log once, in order, into the trial's [`TrialSpans`] and the critical
//! path of each loss. The spans ride the ordered-artifact path, so the
//! exported files are byte-identical across `FARM_THREADS`.

use crate::status::{jnum, jstr};
use crate::trial_log::{kind, Transition, TrialLog, NO_DISK};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};

/// Default output path for a bare `--spans` / `FARM_SPANS=1`.
pub const DEFAULT_SPANS_PATH: &str = "farm-spans.jsonl";
/// Default output path when the chrome format is selected bare.
pub const DEFAULT_CHROME_PATH: &str = "farm-spans.json";

/// Export format of the spans artifact.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SpanFormat {
    /// `farm-spans-v1` JSONL (one object per span / bandwidth row).
    #[default]
    Jsonl,
    /// Chrome trace-event JSON (Perfetto / `chrome://tracing`).
    Chrome,
}

/// Where the spans artifact goes and in which format.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpansSpec {
    pub path: String,
    pub format: SpanFormat,
}

impl SpansSpec {
    /// Parse a `FARM_SPANS` / `--spans` spec:
    ///
    /// * `""` or `"1"` — `farm-spans.jsonl`,
    /// * `"run.jsonl"` — a specific path,
    /// * `"run.jsonl@jsonl"` — explicit format,
    /// * `"trace.json@chrome"` — Chrome trace-event export,
    /// * `"@chrome"` — default chrome path (`farm-spans.json`).
    pub fn parse(s: &str) -> Result<SpansSpec, String> {
        let (path, format) = crate::split_spec(s);
        let format = match format {
            None | Some("jsonl") => SpanFormat::Jsonl,
            Some("chrome") => SpanFormat::Chrome,
            Some(other) => {
                return Err(format!(
                    "span format {other:?} (want \"jsonl\" or \"chrome\")"
                ))
            }
        };
        let path = path.unwrap_or(match format {
            SpanFormat::Jsonl => DEFAULT_SPANS_PATH,
            SpanFormat::Chrome => DEFAULT_CHROME_PATH,
        });
        Ok(SpansSpec {
            path: path.to_string(),
            format,
        })
    }
}

/// Which phase a live span is currently accruing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Waiting to be (re-)detected and scheduled.
    Detect,
    /// A rebuild is scheduled: queued until `planned_start`, then in
    /// transfer.
    Scheduled,
}

/// One block repair, open or closed. Fields mirror the `farm-spans-v1`
/// row; `t_detect`/`t_start` are `NaN` until the span reaches that
/// phase (rendered as JSON `null`).
#[derive(Clone, Debug)]
pub struct SpanRow {
    /// Per-trial ordinal, in span-open order.
    pub span: u32,
    pub group: u32,
    pub block: u32,
    /// The disk whose failure opened the span.
    pub fail_disk: u32,
    /// Rebuild target of the last scheduled attempt ([`NO_DISK`] if
    /// never scheduled).
    pub target: u32,
    /// Bytes moved by completed transfers.
    pub bytes: u64,
    pub t_fail: f64,
    /// First detection instant (`NaN` = never detected).
    pub t_detect: f64,
    /// First scheduled rebuild-start instant (`NaN` = never scheduled).
    /// This is the *planned* start: a span that closes while still
    /// queued (group death, horizon) has `t_end < t_start` and zero
    /// transfer time.
    pub t_start: f64,
    pub t_end: f64,
    pub detect_secs: f64,
    pub queue_secs: f64,
    pub transfer_secs: f64,
    /// Scheduled rebuild attempts (redirections re-schedule).
    pub attempts: u32,
    /// Epoch bumps that invalidated an in-flight rebuild.
    pub redirects: u32,
    /// Detect rounds that found no spare capacity for this block.
    pub no_target: u32,
    pub outcome: &'static str,
    phase: Phase,
    last_t: f64,
    planned_start: f64,
    open: bool,
}

impl SpanRow {
    /// Advance the phase accumulators to instant `t`, attributing the
    /// elapsed interval to the current phase (a `Scheduled` interval is
    /// split at `planned_start` between queue and transfer).
    fn advance(&mut self, t: f64) {
        debug_assert!(t >= self.last_t, "span advanced backwards");
        match self.phase {
            Phase::Detect => self.detect_secs += t - self.last_t,
            Phase::Scheduled => {
                if t <= self.planned_start {
                    self.queue_secs += t - self.last_t;
                } else {
                    let boundary = self.planned_start.max(self.last_t);
                    self.queue_secs += (boundary - self.last_t).max(0.0);
                    self.transfer_secs += t - boundary;
                }
            }
        }
        self.last_t = t;
    }

    fn close(&mut self, t: f64, outcome: &'static str) {
        self.advance(t);
        self.t_end = t;
        self.outcome = outcome;
        self.open = false;
    }

    /// The phase decomposition of this span's whole window, for the
    /// post-mortem critical path.
    fn critical_path(&self) -> CriticalPath {
        CriticalPath {
            window_secs: self.t_end - self.t_fail,
            detect_secs: self.detect_secs,
            queue_secs: self.queue_secs,
            transfer_secs: self.transfer_secs,
        }
    }

    /// Render the `farm-spans-v1` JSONL row.
    fn render(&self, out: &mut String, batch: u64, label: &str, trial: u64) {
        let _ = write!(
            out,
            "{{\"schema\":\"farm-spans-v1\",\"batch\":{batch},\"config\":"
        );
        jstr(out, label);
        let _ = write!(
            out,
            ",\"trial\":{trial},\"span\":{},\"group\":{},\"block\":{},\"fail_disk\":{}",
            self.span, self.group, self.block, self.fail_disk
        );
        out.push_str(",\"target\":");
        if self.target == NO_DISK {
            out.push_str("null");
        } else {
            let _ = write!(out, "{}", self.target);
        }
        let _ = write!(out, ",\"bytes\":{}", self.bytes);
        for (key, v) in [
            ("t_fail", self.t_fail),
            ("t_detect", self.t_detect),
            ("t_start", self.t_start),
            ("t_end", self.t_end),
            ("detect_secs", self.detect_secs),
            ("queue_secs", self.queue_secs),
            ("transfer_secs", self.transfer_secs),
        ] {
            let _ = write!(out, ",\"{key}\":");
            if v.is_nan() {
                out.push_str("null");
            } else {
                jnum(out, v);
            }
        }
        let _ = write!(
            out,
            ",\"attempts\":{},\"redirects\":{},\"no_target\":{},\"outcome\":\"{}\"}}",
            self.attempts, self.redirects, self.no_target, self.outcome
        );
        out.push('\n');
    }
}

/// Phase breakdown of a fatal vulnerability window, attached to the
/// post-mortem of the data-loss event. By construction
/// `detect + queue + transfer` telescopes to `window_secs`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CriticalPath {
    /// End-to-end fatal window: first failure to the loss instant.
    pub window_secs: f64,
    pub detect_secs: f64,
    pub queue_secs: f64,
    pub transfer_secs: f64,
}

impl CriticalPath {
    /// The phase that contributed the most wall-time.
    pub fn dominant(&self) -> &'static str {
        let mut best = ("detect", self.detect_secs);
        for cand in [("queue", self.queue_secs), ("transfer", self.transfer_secs)] {
            if cand.1 > best.1 {
                best = cand;
            }
        }
        best.0
    }

    /// Render as a JSON object fragment (no surrounding comma).
    pub fn render(&self, out: &mut String) {
        out.push_str("{\"window_secs\":");
        jnum(out, self.window_secs);
        for (key, v) in [
            ("detect_secs", self.detect_secs),
            ("queue_secs", self.queue_secs),
            ("transfer_secs", self.transfer_secs),
        ] {
            let _ = write!(out, ",\"{key}\":");
            jnum(out, v);
        }
        let _ = write!(out, ",\"dominant\":\"{}\"}}", self.dominant());
    }
}

/// Per-resource recovery-traffic totals for one trial: bytes the model
/// scheduled against each disk pipe and each group, with pipe-busy
/// seconds. Sparse — only resources recovery actually touched.
#[derive(Clone, Debug, Default)]
pub struct BwRow {
    pub id: u32,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub busy_secs: f64,
    /// Scheduled rebuild attempts this resource took part in.
    pub spans: u32,
}

impl BwRow {
    fn render(&self, out: &mut String, batch: u64, label: &str, trial: u64, resource: &str) {
        let _ = write!(
            out,
            "{{\"schema\":\"farm-spans-bw-v1\",\"batch\":{batch},\"config\":"
        );
        jstr(out, label);
        let _ = write!(
            out,
            ",\"trial\":{trial},\"resource\":\"{resource}\",\"id\":{},\"bytes_read\":{},\"bytes_written\":{},\"busy_secs\":",
            self.id, self.bytes_read, self.bytes_written
        );
        jnum(out, self.busy_secs);
        let _ = write!(out, ",\"spans\":{}}}", self.spans);
        out.push('\n');
    }
}

/// The harvested spans of one finished trial, ready for ordered
/// emission.
#[derive(Clone, Debug, Default)]
pub struct TrialSpans {
    pub spans: Vec<SpanRow>,
    pub disks: Vec<BwRow>,
    pub groups: Vec<BwRow>,
}

impl TrialSpans {
    /// Append this trial's `farm-spans-v1` + `farm-spans-bw-v1` lines.
    pub fn render_jsonl(&self, out: &mut String, batch: u64, label: &str, trial: u64) {
        for span in &self.spans {
            span.render(out, batch, label, trial);
        }
        for row in &self.disks {
            row.render(out, batch, label, trial, "disk");
        }
        for row in &self.groups {
            row.render(out, batch, label, trial, "group");
        }
    }

    /// Append this trial's Chrome trace events (one line per event,
    /// comma-terminated; the caller frames the surrounding array).
    /// `ts` is microseconds of simulated time; `pid` = trial, `tid` =
    /// group, so concurrent repairs of one group share a lane.
    pub fn render_chrome(&self, out: &mut Vec<String>, trial: u64) {
        for s in &self.spans {
            let mut ev = String::with_capacity(192);
            let dur_us = (s.t_end - s.t_fail) * 1e6;
            let _ = write!(
                ev,
                "{{\"name\":\"repair:{}\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":",
                s.outcome
            );
            jnum(&mut ev, s.t_fail * 1e6);
            ev.push_str(",\"dur\":");
            jnum(&mut ev, dur_us.max(0.0));
            let _ = write!(
                ev,
                ",\"pid\":{trial},\"tid\":{},\"args\":{{\"span\":{},\"block\":{},\"fail_disk\":{},\"bytes\":{},\"attempts\":{},\"redirects\":{}}}}}",
                s.group, s.span, s.block, s.fail_disk, s.bytes, s.attempts, s.redirects
            );
            out.push(ev);
            // Nested phase events, laid out sequentially from t_fail.
            // Redirected spans interleave phases in reality; the
            // aggregate layout keeps the total width exact and the
            // visualization simple.
            let mut t = s.t_fail;
            for (name, secs) in [
                ("detect", s.detect_secs),
                ("queue", s.queue_secs),
                ("transfer", s.transfer_secs),
            ] {
                if secs <= 0.0 {
                    continue;
                }
                let mut ev = String::with_capacity(96);
                let _ = write!(
                    ev,
                    "{{\"name\":\"{name}\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":"
                );
                jnum(&mut ev, t * 1e6);
                ev.push_str(",\"dur\":");
                jnum(&mut ev, secs * 1e6);
                let _ = write!(ev, ",\"pid\":{trial},\"tid\":{}}}", s.group);
                out.push(ev);
                t += secs;
            }
        }
    }
}

impl TrialLog {
    /// Replay the log into the trial's spans and bandwidth rows, in one
    /// in-order pass, and the critical path of each loss record in log
    /// order (`None` when the lost group had no open span). Spans still
    /// open at `end_secs` close as `truncated`; every rebuild moves
    /// `block_bytes`.
    pub fn spans(
        &self,
        end_secs: f64,
        block_bytes: u64,
    ) -> (TrialSpans, Vec<Option<CriticalPath>>) {
        let mut rp = Replay::default();
        let mut paths = Vec::new();
        for r in self.records() {
            match r.kind {
                kind::BLOCK_FAILED => rp.open_span(r),
                kind::REBUILD_START => rp.schedule(r, self.sources(r), block_bytes),
                kind::NO_TARGET | kind::REDIRECT => {
                    if let Some(&i) = rp.open.get(&r.block) {
                        let span = &mut rp.spans[i as usize];
                        span.advance(r.t);
                        if r.kind == kind::NO_TARGET {
                            span.no_target += 1;
                        } else {
                            span.redirects += 1;
                        }
                        span.phase = Phase::Detect;
                    }
                }
                kind::REBUILD_DONE => {
                    if let Some(i) = rp.open.remove(&r.block) {
                        let span = &mut rp.spans[i as usize];
                        span.bytes += block_bytes;
                        span.close(r.t, "rebuilt");
                    }
                }
                kind::LOSS_DISK | kind::LOSS_LATENT => {
                    paths.push(rp.group_loss(r.group, r.t, r.kind == kind::LOSS_LATENT));
                }
                _ => {}
            }
        }
        (rp.finish(end_secs), paths)
    }
}

/// The span replay's state: every span in open order (the emission
/// order), the open span of each vulnerable block, and the resources
/// recovery touched.
#[derive(Default)]
struct Replay {
    spans: Vec<SpanRow>,
    /// Block → index of its currently-open span in `spans`.
    open: HashMap<u32, u32>,
    disks: HashMap<u32, BwRow>,
    groups: HashMap<u32, BwRow>,
}

impl Replay {
    /// A disk failure made the block vulnerable: open a span.
    fn open_span(&mut self, r: &Transition) {
        debug_assert!(
            !self.open.contains_key(&r.block),
            "span re-opened for an already-vulnerable block"
        );
        let idx = self.spans.len() as u32;
        self.spans.push(SpanRow {
            span: idx,
            group: r.group,
            block: r.block,
            fail_disk: r.disk,
            target: NO_DISK,
            bytes: 0,
            t_fail: r.t,
            t_detect: f64::NAN,
            t_start: f64::NAN,
            t_end: f64::NAN,
            detect_secs: 0.0,
            queue_secs: 0.0,
            transfer_secs: 0.0,
            attempts: 0,
            redirects: 0,
            no_target: 0,
            outcome: "truncated",
            phase: Phase::Detect,
            last_t: r.t,
            planned_start: f64::NAN,
            open: true,
        });
        self.open.insert(r.block, idx);
    }

    /// A Detect event scheduled a rebuild of the block: transfer starts
    /// at `r.a` (>= `r.t`, the detection instant) on target `r.disk`
    /// for `r.b` seconds, reading from `sources`.
    fn schedule(&mut self, r: &Transition, sources: &[u32], block_bytes: u64) {
        let Some(&idx) = self.open.get(&r.block) else {
            return;
        };
        let (t, start, duration, target) = (r.t, r.a, r.b, r.disk);
        let span = &mut self.spans[idx as usize];
        span.advance(t);
        if span.t_detect.is_nan() {
            span.t_detect = t;
        }
        if span.t_start.is_nan() {
            span.t_start = start;
        }
        span.phase = Phase::Scheduled;
        span.planned_start = start;
        span.attempts += 1;
        span.target = target;
        let group = span.group;
        // Bandwidth attribution: the model charges each source pipe a
        // full block read and the target a full block write, busy for
        // the whole transfer.
        let row = |map: &mut HashMap<u32, BwRow>, id: u32, read: u64, written: u64| {
            let row = map.entry(id).or_insert_with(|| BwRow {
                id,
                ..BwRow::default()
            });
            row.bytes_read += read;
            row.bytes_written += written;
            row.busy_secs += duration;
            row.spans += 1;
        };
        row(&mut self.disks, target, 0, block_bytes);
        for &src in sources {
            row(&mut self.disks, src, block_bytes, 0);
        }
        let read = block_bytes * sources.len() as u64;
        row(&mut self.groups, group, read, block_bytes);
    }

    /// The group lost data at `t`: close all its open spans with the
    /// loss outcome and return the critical path of the *oldest* one —
    /// the span whose window is the fatal vulnerability window.
    fn group_loss(&mut self, group: u32, t: f64, latent: bool) -> Option<CriticalPath> {
        let outcome = if latent { "loss_latent" } else { "loss_disk" };
        let mut fatal: Option<CriticalPath> = None;
        // `spans` is in open order, so the first match is the oldest.
        for span in self.spans.iter_mut() {
            if !span.open || span.group != group {
                continue;
            }
            span.close(t, outcome);
            self.open.remove(&span.block);
            if fatal.is_none() {
                fatal = Some(span.critical_path());
            }
        }
        fatal
    }

    /// End of trial: close every span still open as `truncated` and
    /// harvest (resource rows in ascending id order, so the artifact is
    /// deterministic).
    fn finish(mut self, t: f64) -> TrialSpans {
        for span in self.spans.iter_mut().filter(|s| s.open) {
            span.close(t, "truncated");
        }
        let sorted = |map: HashMap<u32, BwRow>| {
            let mut rows: Vec<BwRow> = map.into_values().collect();
            rows.sort_by_key(|r| r.id);
            rows
        };
        TrialSpans {
            spans: self.spans,
            disks: sorted(self.disks),
            groups: sorted(self.groups),
        }
    }
}

/// Per-path accumulated Chrome trace events across batches. A Chrome
/// trace must be one JSON document, but multi-config campaigns emit
/// once per batch — so each flush rewrites the whole file from the
/// accumulated rows (small for the debugging workloads this targets),
/// via write-temp-then-rename like the status snapshots.
static CHROME_RUNS: OnceLock<Mutex<HashMap<String, Vec<String>>>> = OnceLock::new();

/// Append `events` for `path` and rewrite the file as a complete
/// `{"traceEvents":[...]}` document.
pub fn chrome_flush(path: &str, events: Vec<String>) -> std::io::Result<()> {
    let runs = CHROME_RUNS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut runs = runs.lock().expect("chrome trace registry poisoned");
    let all = runs.entry(path.to_string()).or_default();
    all.extend(events);
    let mut body = String::with_capacity(32 + all.iter().map(|e| e.len() + 2).sum::<usize>());
    body.push_str("{\"traceEvents\":[");
    for (i, ev) in all.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push('\n');
        body.push_str(ev);
    }
    body.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, body.as_bytes())?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parse_forms() {
        let s = SpansSpec::parse("").unwrap();
        assert_eq!(s.path, DEFAULT_SPANS_PATH);
        assert_eq!(s.format, SpanFormat::Jsonl);

        let s = SpansSpec::parse("1").unwrap();
        assert_eq!(s.path, DEFAULT_SPANS_PATH);

        let s = SpansSpec::parse("run.jsonl").unwrap();
        assert_eq!(s.path, "run.jsonl");
        assert_eq!(s.format, SpanFormat::Jsonl);

        let s = SpansSpec::parse("trace.json@chrome").unwrap();
        assert_eq!(s.path, "trace.json");
        assert_eq!(s.format, SpanFormat::Chrome);

        let s = SpansSpec::parse("@chrome").unwrap();
        assert_eq!(s.path, DEFAULT_CHROME_PATH);
        assert_eq!(s.format, SpanFormat::Chrome);

        assert!(SpansSpec::parse("x@perfetto").is_err());
    }

    /// The uncontended happy path: fail → detect+schedule → done.
    #[test]
    fn phases_sum_to_the_window() {
        let mut log = TrialLog::default();
        log.push(100.0, kind::BLOCK_FAILED, 3, 40, 0, 7);
        log.rebuild_start(130.0, 3, 40, 0, 9, 150.0, 600.0, [1, 2]);
        log.push(750.0, kind::REBUILD_DONE, 3, 40, 0, 9).a = 650.0;
        let (t, paths) = log.spans(751.0, 1 << 30);
        assert!(paths.is_empty(), "no loss, no critical path");
        assert_eq!(t.spans.len(), 1);
        let s = &t.spans[0];
        assert_eq!(s.outcome, "rebuilt");
        assert_eq!(s.detect_secs, 30.0);
        assert_eq!(s.queue_secs, 20.0);
        assert_eq!(s.transfer_secs, 600.0);
        assert_eq!(s.t_end - s.t_fail, 650.0);
        assert_eq!(s.bytes, 1 << 30);
        assert_eq!(s.attempts, 1);
        // Bandwidth attribution: target wrote, sources read, all three
        // pipes busy for the transfer.
        assert_eq!(t.disks.len(), 3);
        assert_eq!(t.disks.iter().map(|d| d.id).collect::<Vec<_>>(), [1, 2, 9]);
        let target = t.disks.iter().find(|d| d.id == 9).unwrap();
        assert_eq!(target.bytes_written, 1 << 30);
        assert_eq!(target.bytes_read, 0);
        assert_eq!(target.busy_secs, 600.0);
        let src = t.disks.iter().find(|d| d.id == 1).unwrap();
        assert_eq!(src.bytes_read, 1 << 30);
        assert_eq!(t.groups.len(), 1);
        assert_eq!(t.groups[0].bytes_read, 2 << 30);
    }

    /// A redirect mid-transfer re-enters the detect phase; the phase
    /// sums still telescope to the window.
    #[test]
    fn redirected_span_keeps_the_telescoping_invariant() {
        let mut log = TrialLog::default();
        log.push(0.0, kind::BLOCK_FAILED, 0, 5, 1, 2);
        log.rebuild_start(30.0, 0, 5, 1, 8, 30.0, 1000.0, [1]);
        // Second failure at t=200: 170 s of transfer happened, then the
        // epoch bump sends the block back to detection.
        log.push(200.0, kind::REDIRECT, 0, 5, 1, 8);
        log.rebuild_start(230.0, 0, 5, 1, 8, 400.0, 1000.0, [1]);
        log.push(1400.0, kind::REBUILD_DONE, 0, 5, 1, 8).a = 1400.0;
        let s = &log.spans(1500.0, 4096).0.spans[0];
        assert_eq!(s.redirects, 1);
        assert_eq!(s.attempts, 2);
        assert_eq!(s.detect_secs, 30.0 + 30.0);
        assert_eq!(s.queue_secs, 0.0 + 170.0);
        assert_eq!(s.transfer_secs, 170.0 + 1000.0);
        let total = s.detect_secs + s.queue_secs + s.transfer_secs;
        assert!((total - (s.t_end - s.t_fail)).abs() < 1e-9);
        // First-transition timestamps are of the *first* attempt.
        assert_eq!(s.t_detect, 30.0);
        assert_eq!(s.t_start, 30.0);
    }

    #[test]
    fn group_loss_closes_spans_and_reports_the_oldest_window() {
        let mut log = TrialLog::default();
        log.push(50.0, kind::BLOCK_FAILED, 1, 10, 0, 2);
        log.rebuild_start(80.0, 1, 10, 0, 7, 90.0, 500.0, [3]);
        log.push(300.0, kind::BLOCK_FAILED, 1, 11, 1, 4); // second failure, same group
        log.push(300.0, kind::BLOCK_FAILED, 2, 20, 0, 4); // unrelated group stays open
        log.push(300.0, kind::LOSS_DISK, 1, NO_DISK, 0, NO_DISK);
        // No second critical path for an already-closed group.
        log.push(350.0, kind::LOSS_LATENT, 1, NO_DISK, 0, NO_DISK);
        let (t, paths) = log.spans(400.0, 4096);
        assert_eq!(paths.len(), 2);
        assert!(paths[1].is_none());
        let cp = paths[0].expect("critical path");
        assert_eq!(cp.window_secs, 250.0);
        assert_eq!(cp.detect_secs, 30.0);
        assert_eq!(cp.queue_secs, 10.0);
        assert_eq!(cp.transfer_secs, 210.0);
        let sum = cp.detect_secs + cp.queue_secs + cp.transfer_secs;
        assert!((sum - cp.window_secs).abs() < 1e-9);
        assert_eq!(cp.dominant(), "transfer");
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[0].outcome, "loss_disk");
        assert_eq!(t.spans[1].outcome, "loss_disk");
        assert_eq!(t.spans[1].t_end - t.spans[1].t_fail, 0.0);
        assert_eq!(t.spans[2].outcome, "truncated");
        assert_eq!(t.spans[2].t_end, 400.0);
    }

    /// A Detect round with no spare capacity keeps the span in detection
    /// and counts the round; a loss's latent cause names the outcome.
    #[test]
    fn no_target_rounds_stay_in_detection() {
        let mut log = TrialLog::default();
        log.push(0.0, kind::BLOCK_FAILED, 4, 9, 0, 1);
        log.push(30.0, kind::NO_TARGET, 4, 9, 0, NO_DISK);
        log.rebuild_start(60.0, 4, 9, 0, 6, 60.0, 100.0, [2]);
        log.push(100.0, kind::LOSS_LATENT, 4, NO_DISK, 0, NO_DISK);
        let (t, paths) = log.spans(200.0, 4096);
        let s = &t.spans[0];
        assert_eq!((s.no_target, s.attempts), (1, 1));
        assert_eq!(s.detect_secs, 60.0);
        assert_eq!(s.transfer_secs, 40.0);
        assert_eq!(s.outcome, "loss_latent");
        assert_eq!(paths[0].unwrap().window_secs, 100.0);
    }

    #[test]
    fn jsonl_rows_follow_the_schema() {
        let mut log = TrialLog::default();
        log.push(100.0, kind::BLOCK_FAILED, 3, 40, 0, 7);
        log.rebuild_start(130.0, 3, 40, 0, 9, 150.0, 600.0, [1]);
        log.push(750.0, kind::REBUILD_DONE, 3, 40, 0, 9).a = 650.0;
        log.push(900.0, kind::BLOCK_FAILED, 3, 41, 1, 8);
        let (t, _) = log.spans(1000.0, 1 << 20);
        let mut out = String::new();
        t.render_jsonl(&mut out, 2, "mirror(2) Farm", 17);
        let lines: Vec<&str> = out.lines().collect();
        // 2 spans + 2 disk rows + 1 group row.
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with(
            "{\"schema\":\"farm-spans-v1\",\"batch\":2,\"config\":\"mirror(2) Farm\",\"trial\":17,\"span\":0,"
        ));
        assert!(lines[0].contains("\"outcome\":\"rebuilt\""));
        // A never-scheduled span renders nulls, not NaNs.
        assert!(lines[1].contains("\"target\":null"));
        assert!(lines[1].contains("\"t_detect\":null"));
        assert!(lines[1].contains("\"outcome\":\"truncated\""));
        assert!(!out.contains("NaN"));
        assert!(lines[2].starts_with("{\"schema\":\"farm-spans-bw-v1\""));
        assert!(lines[2].contains("\"resource\":\"disk\""));
        assert!(lines[4].contains("\"resource\":\"group\""));
    }

    #[test]
    fn chrome_events_cover_the_span() {
        let mut log = TrialLog::default();
        log.push(100.0, kind::BLOCK_FAILED, 3, 40, 0, 7);
        log.rebuild_start(130.0, 3, 40, 0, 9, 150.0, 600.0, [1]);
        log.push(750.0, kind::REBUILD_DONE, 3, 40, 0, 9).a = 650.0;
        let (t, _) = log.spans(800.0, 1 << 20);
        let mut evs = Vec::new();
        t.render_chrome(&mut evs, 4);
        // One repair envelope + three phase events.
        assert_eq!(evs.len(), 4);
        assert!(evs[0].contains("\"name\":\"repair:rebuilt\""));
        assert!(evs[0].contains("\"pid\":4,\"tid\":3"));
        assert!(evs[1].contains("\"name\":\"detect\""));
        assert!(evs[3].contains("\"name\":\"transfer\""));
    }

    #[test]
    fn chrome_flush_rewrites_a_complete_document() {
        let path = std::env::temp_dir().join(format!(
            "farm-spans-chrome-test-{}.json",
            std::process::id()
        ));
        let p = path.to_str().unwrap();
        chrome_flush(
            p,
            vec!["{\"ph\":\"X\",\"ts\":0,\"dur\":1,\"pid\":0,\"tid\":0,\"name\":\"a\"}".into()],
        )
        .unwrap();
        chrome_flush(
            p,
            vec!["{\"ph\":\"X\",\"ts\":2,\"dur\":1,\"pid\":0,\"tid\":0,\"name\":\"b\"}".into()],
        )
        .unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(body.starts_with("{\"traceEvents\":["));
        assert!(body.trim_end().ends_with("],\"displayTimeUnit\":\"ms\"}"));
        assert_eq!(body.matches("\"name\"").count(), 2);
    }
}
