//! Structured trial tracing: one sampled Monte-Carlo trial emits a
//! JSONL record per simulator action (failure, detection, redirection,
//! rebuild start/finish, loss), replacing printf-debugging of the event
//! loop with a machine-readable narrative.
//!
//! Records are one JSON object per line, always carrying `trial`, `t`
//! (simulated seconds) and `ev`; event-specific fields follow. The
//! writer is buffered and owned by the trial being traced, so untraced
//! trials pay nothing.
//!
//! Two selection modes: `FARM_TRACE=7` traces the one trial you name;
//! `FARM_TRACE=loss` traces *every* trial into an in-memory buffer and
//! flushes only the trials that actually lose data — no guessing a
//! trial index up front when hunting a loss.

use crate::sink::open_batch_file;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};

/// Which trials to trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceSel {
    /// Trace exactly this trial index.
    Trial(u64),
    /// Trace every trial into memory; keep only trials that lose data.
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

enum Sink {
    Stderr(io::Stderr),
    File(BufWriter<File>),
    /// In-memory buffer for `FARM_TRACE=loss`: the batch runner takes
    /// the bytes afterwards and flushes them only if the trial lost.
    Buffer(Vec<u8>),
}

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Sink::Stderr(s) => s.write(buf),
            Sink::File(f) => f.write(buf),
            Sink::Buffer(b) => b.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Sink::Stderr(s) => s.flush(),
            Sink::File(f) => f.flush(),
            Sink::Buffer(_) => Ok(()),
        }
    }
}

/// The per-trial trace writer handed to one simulation.
pub struct TrialTracer {
    trial: u64,
    sink: Sink,
    records: u64,
}

impl TrialTracer {
    /// Open the spec's sink for trial `trial`. A file is truncated by
    /// the first open in the process and appended to after that, so a
    /// sweep keeps every batch's trace (see [`open_batch_file`]).
    pub fn open(spec: &TraceSpec, trial: u64) -> io::Result<TrialTracer> {
        let sink = match &spec.path {
            None => Sink::Stderr(io::stderr()),
            Some(p) => Sink::File(BufWriter::new(open_batch_file(p)?.0)),
        };
        Ok(TrialTracer {
            trial,
            sink,
            records: 0,
        })
    }

    /// A tracer accumulating into memory (for `FARM_TRACE=loss`): take
    /// the bytes with [`TrialTracer::take_buffer`] after the trial.
    pub fn buffered(trial: u64) -> TrialTracer {
        TrialTracer {
            trial,
            sink: Sink::Buffer(Vec::new()),
            records: 0,
        }
    }

    /// File-backed tracer for unit tests of the record format.
    pub fn to_path(trial: u64, path: &str) -> io::Result<TrialTracer> {
        Self::open(
            &TraceSpec {
                sel: TraceSel::Trial(trial),
                path: Some(path.to_string()),
            },
            trial,
        )
    }

    pub fn trial(&self) -> u64 {
        self.trial
    }

    pub fn records(&self) -> u64 {
        self.records
    }

    /// Emit one record. `extra` is a pre-formatted JSON fragment of
    /// event-specific fields, either empty or starting with a comma
    /// (e.g. `,"disk":17`); building it with `format_args!` costs
    /// nothing at disabled call sites.
    pub fn emit(&mut self, t_secs: f64, ev: &str, extra: fmt::Arguments<'_>) {
        self.records += 1;
        // A trace write failing (closed pipe, full disk) must not abort
        // the simulation; drop the record.
        let _ = writeln!(
            self.sink,
            "{{\"trial\":{},\"t\":{:.3},\"ev\":\"{}\"{}}}",
            self.trial, t_secs, ev, extra
        );
    }

    /// For a [`TrialTracer::buffered`] tracer, take the accumulated
    /// JSONL bytes (leaving it empty); `None` for other sinks.
    pub fn take_buffer(&mut self) -> Option<Vec<u8>> {
        match &mut self.sink {
            Sink::Buffer(b) => Some(std::mem::take(b)),
            _ => None,
        }
    }

    /// Flush buffered records (also happens on drop).
    pub fn flush(&mut self) {
        let _ = self.sink.flush();
    }
}

impl Drop for TrialTracer {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let path =
            std::env::temp_dir().join(format!("farm-trace-test-{}.jsonl", std::process::id()));
        let path_s = path.to_str().unwrap();
        {
            let mut t = TrialTracer::to_path(5, path_s).unwrap();
            t.emit(0.0, "failure", format_args!(",\"disk\":17"));
            t.emit(30.0, "detect", format_args!(",\"disk\":17,\"blocks\":3"));
            t.emit(94.5, "rebuild_done", format_args!(""));
            assert_eq!(t.records(), 3);
        }
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"trial\":5,\"t\":0.000,\"ev\":\"failure\",\"disk\":17}"
        );
        assert_eq!(
            lines[2],
            "{\"trial\":5,\"t\":94.500,\"ev\":\"rebuild_done\"}"
        );
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }

    #[test]
    fn buffered_tracer_accumulates_and_yields_bytes() {
        let mut t = TrialTracer::buffered(9);
        t.emit(1.0, "failure", format_args!(",\"disk\":3"));
        t.emit(2.0, "loss", format_args!(""));
        let bytes = t.take_buffer().expect("buffered sink");
        let body = String::from_utf8(bytes).unwrap();
        assert_eq!(
            body,
            "{\"trial\":9,\"t\":1.000,\"ev\":\"failure\",\"disk\":3}\n\
             {\"trial\":9,\"t\":2.000,\"ev\":\"loss\"}\n"
        );
        // Taking leaves the buffer empty, and non-buffer sinks say None.
        assert_eq!(t.take_buffer().unwrap(), Vec::<u8>::new());
    }
}
