//! Structured trial tracing: one sampled Monte-Carlo trial emits a
//! JSONL record per simulator action (failure, detection, redirection,
//! rebuild start/finish, loss), replacing printf-debugging of the event
//! loop with a machine-readable narrative.
//!
//! Records are one JSON object per line, always carrying `trial`, `t`
//! (simulated seconds) and `ev`; event-specific fields follow. The
//! trace is one renderer over the trial's recovery log
//! ([`crate::trial_log`]): nothing is formatted while the trial runs.
//!
//! Two selection modes: `FARM_TRACE=7` traces the one trial you name;
//! `FARM_TRACE=loss` logs every trial and renders only the trials that
//! actually lose data — no guessing a trial index up front when hunting
//! a loss. Either way a trace is written with the batch's other
//! artifacts, in trial order, and only for committed trials.

use crate::trial_log::{kind, TrialLog};
use std::fmt::Write as _;

/// Which trials to trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceSel {
    /// Trace exactly this trial index.
    Trial(u64),
    /// Log every trial; render the trace only of trials that lose data.
    Loss,
}

impl Default for TraceSel {
    fn default() -> Self {
        TraceSel::Trial(0)
    }
}

/// Which trials to trace, and where the JSONL goes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSpec {
    /// Trial selection (an index, or all data-losing trials).
    pub sel: TraceSel,
    /// Output path; `None` = stderr.
    pub path: Option<String>,
}

impl TraceSpec {
    /// Parse a `FARM_TRACE` spec:
    ///
    /// * `""` or `"0"` — trace trial 0 to stderr,
    /// * `"7"` — trace trial 7 to stderr,
    /// * `"7:out.jsonl"` — trace trial 7 to `out.jsonl`,
    /// * `"loss"` — trace only data-losing trials, to stderr,
    /// * `"loss:out.jsonl"` — data-losing trials to `out.jsonl`,
    /// * `"out.jsonl"` — trace trial 0 to `out.jsonl`.
    pub fn parse(s: &str) -> Result<TraceSpec, String> {
        let s = s.trim();
        if s.is_empty() {
            return Ok(TraceSpec::default());
        }
        if let Some((sel, path)) = s.split_once(':') {
            if path.is_empty() {
                return Err("empty output path after ':'".into());
            }
            let sel = parse_sel(sel)?;
            return Ok(TraceSpec {
                sel,
                path: Some(path.to_string()),
            });
        }
        if s == "loss" {
            return Ok(TraceSpec {
                sel: TraceSel::Loss,
                path: None,
            });
        }
        match s.parse::<u64>() {
            Ok(trial) => Ok(TraceSpec {
                sel: TraceSel::Trial(trial),
                path: None,
            }),
            Err(_) => Ok(TraceSpec {
                sel: TraceSel::default(),
                path: Some(s.to_string()),
            }),
        }
    }
}

fn parse_sel(s: &str) -> Result<TraceSel, String> {
    if s == "loss" {
        return Ok(TraceSel::Loss);
    }
    s.parse::<u64>()
        .map(TraceSel::Trial)
        .map_err(|e| format!("trial selector {s:?} (want an index or \"loss\"): {e}"))
}

impl TrialLog {
    /// Render the trial's JSONL trace: one record per traced transition,
    /// in log order, then a `trial_end` record at `end_secs` carrying
    /// the trial's `[failures, rebuilds, redirections, lost_groups]`.
    pub fn render_trace(&self, trial: u64, end_secs: f64, counts: [u64; 4]) -> String {
        let mut out = String::new();
        for r in self.records() {
            // A block going missing and a latent trip are post-mortem and
            // span material; the trace narrates the disk-level failure
            // and the recovery actions.
            let closed_window = r.kind != kind::REBUILD_DONE || !r.a.is_nan();
            if matches!(r.kind, kind::BLOCK_FAILED | kind::LATENT) || !closed_window {
                continue;
            }
            let ev = kind::NAMES[r.kind as usize];
            let _ = write!(out, "{{\"trial\":{trial},\"t\":{:.3},\"ev\":\"{ev}\"", r.t);
            let _ = match r.kind {
                kind::DISK_FAILED => write!(out, ",\"disk\":{}", r.disk),
                kind::DETECT => write!(out, ",\"disk\":{},\"rebuilds\":{}", r.disk, r.a as u64),
                kind::LOSS_DISK | kind::LOSS_LATENT => write!(out, ",\"group\":{}", r.group),
                _ => write!(out, ",\"group\":{},\"idx\":{}", r.group, r.idx),
            };
            let _ = match r.kind {
                kind::REBUILD_START => {
                    write!(out, ",\"target\":{},\"wait\":{:.3}", r.disk, r.a - r.t)
                }
                kind::REBUILD_DONE => write!(out, ",\"window\":{:.3}", r.a),
                _ => Ok(()),
            };
            out.push_str("}\n");
        }
        let [failures, rebuilds, redirections, lost_groups] = counts;
        let _ = writeln!(
            out,
            "{{\"trial\":{trial},\"t\":{end_secs:.3},\"ev\":\"trial_end\",\"failures\":{failures},\
             \"rebuilds\":{rebuilds},\"redirections\":{redirections},\"lost_groups\":{lost_groups}}}"
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trial_log::NO_DISK;

    #[test]
    fn spec_parsing_forms() {
        assert_eq!(TraceSpec::parse("").unwrap(), TraceSpec::default());
        assert_eq!(
            TraceSpec::parse("7").unwrap(),
            TraceSpec {
                sel: TraceSel::Trial(7),
                path: None
            }
        );
        assert_eq!(
            TraceSpec::parse("3:t.jsonl").unwrap(),
            TraceSpec {
                sel: TraceSel::Trial(3),
                path: Some("t.jsonl".into())
            }
        );
        assert_eq!(
            TraceSpec::parse("t.jsonl").unwrap(),
            TraceSpec {
                sel: TraceSel::Trial(0),
                path: Some("t.jsonl".into())
            }
        );
        assert_eq!(
            TraceSpec::parse("loss").unwrap(),
            TraceSpec {
                sel: TraceSel::Loss,
                path: None
            }
        );
        assert_eq!(
            TraceSpec::parse("loss:losses.jsonl").unwrap(),
            TraceSpec {
                sel: TraceSel::Loss,
                path: Some("losses.jsonl".into())
            }
        );
        assert!(TraceSpec::parse("x:").is_err());
        assert!(TraceSpec::parse("nope:file").is_err());
    }

    #[test]
    fn records_are_one_json_object_per_line() {
        let mut log = TrialLog::default();
        log.push(0.0, kind::DISK_FAILED, NO_DISK, NO_DISK, 0, 17);
        log.push(0.0, kind::BLOCK_FAILED, 4, 40, 1, 17); // not traced
        log.push(30.0, kind::DETECT, NO_DISK, NO_DISK, 0, 17).a = 3.0;
        log.rebuild_start(30.0, 4, 40, 1, 9, 32.25, 60.0, [2]);
        log.push(30.0, kind::LATENT, 4, 41, 2, 5); // not traced
        log.push(94.5, kind::REBUILD_DONE, 4, 40, 1, 9).a = 94.5;
        log.push(95.0, kind::REBUILD_DONE, 4, 42, 0, 9); // no window: not traced
        log.push(96.0, kind::REDIRECT, 4, 43, 3, 8);
        log.push(97.0, kind::NO_TARGET, 4, 44, 2, u32::MAX);
        log.push(98.0, kind::LOSS_LATENT, 4, NO_DISK, 0, NO_DISK);
        let out = log.render_trace(5, 99.0, [1, 1, 1, 1]);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines,
            [
                "{\"trial\":5,\"t\":0.000,\"ev\":\"failure\",\"disk\":17}",
                "{\"trial\":5,\"t\":30.000,\"ev\":\"detect\",\"disk\":17,\"rebuilds\":3}",
                "{\"trial\":5,\"t\":30.000,\"ev\":\"rebuild_start\",\"group\":4,\"idx\":1,\"target\":9,\"wait\":2.250}",
                "{\"trial\":5,\"t\":94.500,\"ev\":\"rebuild_done\",\"group\":4,\"idx\":1,\"window\":94.500}",
                "{\"trial\":5,\"t\":96.000,\"ev\":\"redirect\",\"group\":4,\"idx\":3}",
                "{\"trial\":5,\"t\":97.000,\"ev\":\"no_target\",\"group\":4,\"idx\":2}",
                "{\"trial\":5,\"t\":98.000,\"ev\":\"loss\",\"group\":4}",
                "{\"trial\":5,\"t\":99.000,\"ev\":\"trial_end\",\"failures\":1,\"rebuilds\":1,\"redirections\":1,\"lost_groups\":1}",
            ]
        );
        assert!(out.ends_with("}\n"));
        // A trial with no traced transition is its trial_end alone.
        let out = TrialLog::default().render_trace(9, 1.5, [0, 0, 0, 0]);
        assert_eq!(
            out,
            "{\"trial\":9,\"t\":1.500,\"ev\":\"trial_end\",\"failures\":0,\
             \"rebuilds\":0,\"redirections\":0,\"lost_groups\":0}\n"
        );
    }
}
