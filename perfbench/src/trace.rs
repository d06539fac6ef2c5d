//! In-memory span trace of the benchmark's calls into the workspace.
//!
//! Spans are opened and closed around public-API calls made from this
//! package (`Simulation::from_shared`, `Simulation::run`,
//! `Cluster::recover`, ...). Phase timings that the program measures
//! itself (the setup phases of `Simulation::recycle_profiled`, the
//! per-event-kind nanos of `EventProfile`) enter as *profiled* child
//! spans: their durations are measured, but the program reports only
//! totals, so they are laid back to back from the parent's start.
//!
//! A span's self time is its duration minus the time covered by its
//! children. The spans form one tree under a root span, so the self
//! times add up to the root's duration; `finish_trace` (main.rs) compares
//! that sum with a wall clock read independently around the traced
//! pass.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span in its [`Trace`].
pub type SpanId = usize;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Trial (or round) index the span belongs to; `None` for spans
    /// that cover several.
    pub trial: Option<u64>,
    /// Duration reported by the program, not bracketed by this package.
    pub profiled: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`Trace::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        trial: Option<u64>,
    ) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            trial,
            profiled: false,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        trial: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (SpanId, T) {
        let id = self.begin(name, parent, trial);
        let out = f();
        self.end(id);
        (id, out)
    }

    /// Attach program-measured durations as children of `parent`, laid
    /// back to back from the parent's start.
    pub fn profiled_children(&mut self, parent: SpanId, parts: &[(&'static str, u64)]) {
        let trial = self.spans[parent].trial;
        let mut at = self.spans[parent].start_ns;
        for &(name, ns) in parts {
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: at + ns,
                parent: Some(parent),
                trial,
                profiled: true,
            });
            at += ns;
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn get(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    /// Durations of every span with this name, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Self time of every span (duration minus children), signed: a
    /// negative value means the children claim more than the parent
    /// lasted.
    pub fn self_times(&self) -> Vec<i64> {
        let mut own: Vec<i64> = self.spans.iter().map(|s| s.dur_ns() as i64).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_ns() as i64;
            }
        }
        own
    }

    /// Self time summed per span name, in name order.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, (u64, i64)> {
        let mut by: BTreeMap<&'static str, (u64, i64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let e = by.entry(s.name).or_default();
            e.0 += 1;
            e.1 += own;
        }
        by
    }

    /// Sum of all self times as a share of `wall_ns`, the wall clock
    /// read around the traced pass.
    pub fn self_sum_frac(&self, wall_ns: u64) -> f64 {
        let sum: i64 = self.self_times().iter().sum();
        sum as f64 / wall_ns as f64
    }

    /// Spans whose children claim more than `slack_ns` beyond the
    /// span's own duration.
    pub fn overclaimed(&self, slack_ns: i64) -> usize {
        self.self_times()
            .iter()
            .filter(|&&own| own < -slack_ns)
            .count()
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"trial\":{},\"profiled\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.trial.map_or("null".to_string(), |t| t.to_string()),
                s.profiled,
            )?;
        }
        w.flush()
    }

    /// Human-readable self-time table.
    pub fn render_self_table(&self, wall_ns: u64) -> String {
        let mut out = format!(
            "{:<22} {:>8} {:>12} {:>8}\n",
            "span", "count", "self ms", "share"
        );
        for (name, (count, own)) in self.self_by_name() {
            out.push_str(&format!(
                "{:<22} {:>8} {:>12.3} {:>7.2}%\n",
                name,
                count,
                own as f64 / 1e6,
                100.0 * own as f64 / wall_ns as f64
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_telescope_to_the_root() {
        let mut t = Trace::new();
        let root = t.begin("root", None, None);
        let (a, ()) = t.span("a", Some(root), Some(0), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.profiled_children(a, &[("a1", 500_000), ("a2", 700_000)]);
        t.end(root);
        let own = t.self_times();
        let sum: i64 = own.iter().sum();
        assert_eq!(sum, t.get(root).dur_ns() as i64);
        assert_eq!(own[a], t.get(a).dur_ns() as i64 - 1_200_000);
    }
}
