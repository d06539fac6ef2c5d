//! Sharded live-metrics registry for Monte-Carlo campaigns.
//!
//! A campaign (one experiment-binary process) runs many batches — one
//! per configuration point — and each batch fans trials out across
//! worker threads. The registry mirrors that shape:
//!
//! * [`CampaignMonitor`] — one per process, owns every batch and the
//!   export side (status snapshots, the `/metrics` listener),
//! * [`BatchHandle`] / `BatchState` — one per Monte-Carlo batch: the
//!   config label, the expected trial count and the worker shards,
//! * [`WorkerShard`] — one per worker thread: cache-line-aligned atomic
//!   counters (trials, losses, events) plus a mergeable
//!   [`Histogram`] of per-trial wall seconds behind a private mutex.
//!
//! Workers touch *only their own shard* — three relaxed atomic adds and
//! one uncontended lock per **trial** (never per event), recorded when
//! the trial's reduction chunk commits — so the hot event loop is
//! untouched and scrapes never stall workers: aggregation
//! sums the shards on the reader's thread. Totals read while trials are
//! in flight are momentarily racy across shards; [`BatchTotals`] clamps
//! `losses <= trials` so a mid-run scrape can always form a valid
//! binomial proportion. Once a batch is finished the totals are exact:
//! the final snapshot's loss estimate equals the batch summary's value
//! bit for bit (pinned by `tests/campaign_monitor.rs`).

use crate::status::StatusSpec;
use crate::{diag, http, status};
use farm_des::stats::{Histogram, Proportion};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One worker thread's private slice of a batch's counters. Padded to a
/// cache line so two workers' shards never false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct WorkerShard {
    trials: AtomicU64,
    losses: AtomicU64,
    events: AtomicU64,
    /// Per-trial wall seconds; merged across shards on demand. The
    /// mutex is private to this shard, so the only contention is a
    /// scraper's brief read — workers never wait on each other.
    trial_secs: Mutex<Histogram>,
}

impl WorkerShard {
    /// Record one finished trial. `trials` is bumped before `losses` so
    /// a concurrent reader never sees more losses than trials *from
    /// this shard's own ordering* (cross-shard skew is clamped at
    /// aggregation).
    pub fn record_trial(&self, lost_data: bool, events: u64, wall_secs: f64) {
        self.trials.fetch_add(1, Ordering::Relaxed);
        if lost_data {
            self.losses.fetch_add(1, Ordering::Relaxed);
        }
        self.events.fetch_add(events, Ordering::Relaxed);
        self.trial_secs
            .lock()
            .expect("trial_secs poisoned")
            .record(wall_secs);
    }
}

/// A point-in-time aggregate of one batch's shards.
#[derive(Clone, Debug)]
pub struct BatchTotals {
    pub trials: u64,
    pub losses: u64,
    pub events: u64,
    pub trial_secs: Histogram,
}

/// Pooled recovery-span phase distributions of one batch, published by
/// the Monte-Carlo driver when the batch completes (simulated seconds).
/// The four phases mirror the span model: detection lag, queue wait,
/// bandwidth-limited transfer, and the end-to-end repair window.
#[derive(Clone, Debug, Default)]
pub struct SpanPhases {
    pub detect: Histogram,
    pub queue: Histogram,
    pub transfer: Histogram,
    pub repair: Histogram,
}

impl SpanPhases {
    /// `(name, histogram)` pairs for renderers, in display order.
    pub fn named(&self) -> [(&'static str, &Histogram); 4] {
        [
            ("detect", &self.detect),
            ("queue", &self.queue),
            ("transfer", &self.transfer),
            ("repair", &self.repair),
        ]
    }
}

impl BatchTotals {
    /// The online data-loss estimate as a binomial proportion (read its
    /// Wilson interval via [`Proportion::wilson95`]).
    pub fn p_loss(&self) -> Proportion {
        Proportion::new(self.losses, self.trials)
    }
}

/// One Monte-Carlo batch's registry entry.
#[derive(Debug)]
pub struct BatchState {
    /// Process-stable batch id (0, 1, … in begin order).
    pub index: u64,
    /// Human-readable configuration label (becomes the `config` label
    /// on `/metrics` series).
    pub label: String,
    /// Expected trials in this batch.
    pub total: u64,
    /// Campaign-clock second the batch began at.
    pub started_secs: f64,
    /// Analytic (Markov/MTTDL) data-loss probability for this config,
    /// when it admits an exact chain — the drift anchor on `/status`
    /// and `/metrics`.
    pub anchor_p_loss: Option<f64>,
    /// Campaign-clock millisecond the batch finished at, +1 (0 = still
    /// running) — atomics cannot hold an `Option<f64>`.
    finished_ms_plus_1: AtomicU64,
    shards: Mutex<Vec<Arc<WorkerShard>>>,
    /// Batch-end span-phase distributions (`None` until published).
    phases: Mutex<Option<SpanPhases>>,
}

impl BatchState {
    /// Sum every shard. Never blocks workers for longer than one
    /// histogram merge per shard.
    pub fn totals(&self) -> BatchTotals {
        let mut t = BatchTotals {
            trials: 0,
            losses: 0,
            events: 0,
            trial_secs: Histogram::new(),
        };
        let shards = self.shards.lock().expect("shards poisoned");
        for s in shards.iter() {
            t.trials += s.trials.load(Ordering::Relaxed);
            t.losses += s.losses.load(Ordering::Relaxed);
            t.events += s.events.load(Ordering::Relaxed);
            t.trial_secs
                .merge(&s.trial_secs.lock().expect("trial_secs poisoned"));
        }
        // Cross-shard reads are unsynchronized; never report an
        // impossible binomial.
        t.losses = t.losses.min(t.trials);
        t
    }

    /// Has the batch's driver called finish?
    pub fn is_finished(&self) -> bool {
        self.finished_ms_plus_1.load(Ordering::Acquire) != 0
    }

    /// Campaign-clock second the batch finished at, if it has.
    pub fn finished_secs(&self) -> Option<f64> {
        match self.finished_ms_plus_1.load(Ordering::Acquire) {
            0 => None,
            ms => Some((ms - 1) as f64 / 1e3),
        }
    }

    /// The batch's published span-phase distributions, if any.
    pub fn span_phases(&self) -> Option<SpanPhases> {
        self.phases.lock().expect("phases poisoned").clone()
    }
}

/// A worker-facing handle to one batch: hand out shards, then report
/// the batch finished.
#[derive(Clone)]
pub struct BatchHandle {
    batch: Arc<BatchState>,
    core: Arc<MonitorCore>,
}

impl BatchHandle {
    /// Register a new shard for one worker thread.
    pub fn shard(&self) -> Arc<WorkerShard> {
        let shard = Arc::new(WorkerShard::default());
        self.batch
            .shards
            .lock()
            .expect("shards poisoned")
            .push(Arc::clone(&shard));
        shard
    }

    /// The batch's registry entry (for assertions and renderers).
    pub fn state(&self) -> &BatchState {
        &self.batch
    }

    /// Publish the batch's pooled span-phase distributions (detect /
    /// queue / transfer / end-to-end repair, simulated seconds). Called
    /// once by the Monte-Carlo driver when the batch's summary is
    /// final; empty histograms are skipped so `/metrics` never exports
    /// hollow quantile series.
    pub fn record_phases(
        &self,
        detect: &Histogram,
        queue: &Histogram,
        transfer: &Histogram,
        repair: &Histogram,
    ) {
        if detect.is_empty() && queue.is_empty() && transfer.is_empty() && repair.is_empty() {
            return;
        }
        let mut slot = self.batch.phases.lock().expect("phases poisoned");
        let p = slot.get_or_insert_with(SpanPhases::default);
        p.detect.merge(detect);
        p.queue.merge(queue);
        p.transfer.merge(transfer);
        p.repair.merge(repair);
    }

    /// Mark the batch complete and synchronously write a status
    /// snapshot, so the file on disk reflects every finished batch even
    /// between periodic ticks — and the *final* snapshot of a campaign
    /// is exact, not a race with the writer thread.
    pub fn finish(&self) {
        let ms = (self.core.start.elapsed().as_secs_f64() * 1e3) as u64;
        self.batch
            .finished_ms_plus_1
            .store(ms + 1, Ordering::Release);
        self.core.write_status_snapshot(false);
    }
}

/// Shared monitor state: the batch list plus everything the exporters
/// need. Lives behind an `Arc` so the snapshot-writer and HTTP threads
/// outlive any particular batch.
pub(crate) struct MonitorCore {
    pub(crate) start: Instant,
    pub(crate) status: Option<StatusSpec>,
    batches: Mutex<Vec<Arc<BatchState>>>,
    /// Bound address of the `/metrics` listener, once it is up.
    pub(crate) http_addr: OnceLock<SocketAddr>,
    /// Serializes snapshot writers (periodic thread vs `finish`): the
    /// next snapshot's number and the progress the last one showed.
    snapshots: Mutex<(u64, Option<CampaignProgress>)>,
}

/// Batches begun, trials recorded, batches finished: what a status
/// snapshot can change by.
type CampaignProgress = (usize, u64, usize);

impl MonitorCore {
    pub(crate) fn batches(&self) -> Vec<Arc<BatchState>> {
        self.batches.lock().expect("batches poisoned").clone()
    }

    pub(crate) fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn progress(&self) -> CampaignProgress {
        let batches = self.batches();
        let trials = batches.iter().map(|b| b.totals().trials).sum();
        let finished = batches.iter().filter(|b| b.is_finished()).count();
        (batches.len(), trials, finished)
    }

    /// Render and atomically publish one status snapshot (no-op without
    /// a `FARM_STATUS` spec). With `if_changed` (the periodic writer),
    /// skip it when no batch has begun, recorded trials or finished
    /// since the last snapshot, so a finished campaign's file stays as
    /// its final snapshot left it.
    pub(crate) fn write_status_snapshot(&self, if_changed: bool) {
        let Some(spec) = &self.status else {
            return;
        };
        let mut snapshots = self.snapshots.lock().expect("snapshots poisoned");
        let (seq, shown) = &mut *snapshots;
        let progress = Some(self.progress());
        if if_changed && *shown == progress {
            return;
        }
        if let Err(e) = status::write_snapshot(self, spec, *seq) {
            diag::warn_once(
                "status-write",
                &format!("cannot write status snapshot {:?}: {e}", spec.path),
            );
            return;
        }
        *seq += 1;
        *shown = progress;
    }
}

/// The process-wide live campaign monitor: a sharded registry of every
/// batch, a periodic atomic-rename status snapshot, and an optional
/// `/metrics` + `/status` HTTP listener. Everything is pull/observe —
/// attaching a monitor never changes simulation results (pinned by the
/// golden tests), and with no monitor attached the Monte-Carlo driver
/// does no per-trial work at all.
pub struct CampaignMonitor {
    core: Arc<MonitorCore>,
}

impl CampaignMonitor {
    /// Build a monitor and spawn its export threads: a snapshot writer
    /// when `status` is set, a `TcpListener` thread when `http` is set.
    /// Thread spawn or bind failures degrade to a warn-once diagnostic,
    /// never an abort — monitoring must not take the campaign down.
    pub fn new(status: Option<StatusSpec>, http: Option<&str>) -> Self {
        let core = Arc::new(MonitorCore {
            start: Instant::now(),
            status,
            batches: Mutex::new(Vec::new()),
            http_addr: OnceLock::new(),
            snapshots: Mutex::default(),
        });
        if let Some(spec) = &core.status {
            let interval = std::time::Duration::from_secs_f64(spec.resolve_interval());
            // The writer ends once nothing else holds the monitor.
            let writer = Arc::downgrade(&core);
            std::thread::Builder::new()
                .name("farm-status".into())
                .spawn(move || loop {
                    std::thread::sleep(interval);
                    let Some(core) = writer.upgrade() else {
                        return;
                    };
                    core.write_status_snapshot(true);
                })
                .map_err(|e| {
                    diag::warn_once("status-thread", &format!("cannot spawn status writer: {e}"))
                })
                .ok();
        }
        if let Some(addr) = http {
            match http::spawn_exporter(Arc::clone(&core), addr) {
                Ok(bound) => {
                    let _ = core.http_addr.set(bound);
                }
                Err(e) => {
                    diag::warn_once(
                        "http-bind",
                        &format!("cannot bind FARM_HTTP listener on {addr:?}: {e}"),
                    );
                }
            }
        }
        CampaignMonitor { core }
    }

    /// Register a new batch of `total` trials under a config label.
    pub fn begin_batch(&self, label: String, total: u64) -> BatchHandle {
        self.begin_batch_anchored(label, total, None)
    }

    /// [`begin_batch`](Self::begin_batch) plus the config's analytic
    /// data-loss anchor, when one exists (surfaced as drift gauges).
    pub fn begin_batch_anchored(
        &self,
        label: String,
        total: u64,
        anchor_p_loss: Option<f64>,
    ) -> BatchHandle {
        let mut batches = self.core.batches.lock().expect("batches poisoned");
        let batch = Arc::new(BatchState {
            index: batches.len() as u64,
            label,
            total,
            started_secs: self.core.elapsed_secs(),
            anchor_p_loss,
            finished_ms_plus_1: AtomicU64::new(0),
            shards: Mutex::new(Vec::new()),
            phases: Mutex::new(None),
        });
        batches.push(Arc::clone(&batch));
        drop(batches);
        BatchHandle {
            batch,
            core: Arc::clone(&self.core),
        }
    }

    /// Where the `/metrics` listener actually bound (`FARM_HTTP=addr`
    /// may ask for port 0), if it is up.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.core.http_addr.get().copied()
    }

    /// Force one status snapshot now (the driver's final write path).
    pub fn write_snapshot_now(&self) {
        self.core.write_status_snapshot(false);
    }

    /// Render the current `/metrics` exposition (what the HTTP listener
    /// serves; exposed for tests and debugging).
    pub fn render_metrics(&self) -> String {
        http::render_metrics(&self.core)
    }

    /// Render the current status-snapshot JSON without touching disk.
    pub fn render_status(&self) -> String {
        status::render_status(&self.core, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_aggregate_across_workers() {
        let mon = CampaignMonitor::new(None, None);
        let b = mon.begin_batch("cfg".into(), 100);
        std::thread::scope(|s| {
            for w in 0..4 {
                let b = b.clone();
                s.spawn(move || {
                    let shard = b.shard();
                    for t in 0..25 {
                        shard.record_trial(t == 0 && w == 0, 1000 + t, 0.001 * (t + 1) as f64);
                    }
                });
            }
        });
        let t = b.state().totals();
        assert_eq!(t.trials, 100);
        assert_eq!(t.losses, 1);
        assert_eq!(t.events, 4 * (25 * 1000 + (0..25).sum::<u64>()));
        assert_eq!(t.trial_secs.count(), 100);
        let p = t.p_loss();
        assert_eq!(p.value(), 0.01);
        let (lo, hi) = p.wilson95();
        assert!(lo <= 0.01 && 0.01 <= hi);
    }

    #[test]
    fn batches_are_numbered_and_finishable() {
        let mon = CampaignMonitor::new(None, None);
        let a = mon.begin_batch("a".into(), 10);
        let b = mon.begin_batch("b".into(), 20);
        assert_eq!(a.state().index, 0);
        assert_eq!(b.state().index, 1);
        assert!(!a.state().is_finished());
        assert_eq!(a.state().finished_secs(), None);
        a.finish();
        assert!(a.state().is_finished());
        assert!(a.state().finished_secs().unwrap() >= 0.0);
        assert!(!b.state().is_finished());
    }

    #[test]
    fn status_writer_goes_quiet_until_the_campaign_moves() {
        let path =
            std::env::temp_dir().join(format!("farm-status-quiet-{}.json", std::process::id()));
        let spec = StatusSpec {
            path: path.to_str().unwrap().to_string(),
            interval_secs: Some(0.05),
        };
        let interval = std::time::Duration::from_millis(50);
        let mon = CampaignMonitor::new(Some(spec), None);
        let a = mon.begin_batch("a".into(), 1);
        a.shard().record_trial(false, 10, 0.001);
        a.finish();
        std::fs::remove_file(&path).expect("finish wrote the final snapshot");
        std::thread::sleep(3 * interval);
        assert!(!path.exists(), "status file rewritten after the campaign");
        // A new batch's trials resume the periodic snapshots.
        let b = mon.begin_batch("b".into(), 1);
        b.shard().record_trial(true, 10, 0.001);
        let back = (0..100).any(|_| {
            std::thread::sleep(interval);
            path.exists()
        });
        std::fs::remove_file(&path).ok();
        assert!(back, "no snapshot after the new batch recorded a trial");
    }

    #[test]
    fn totals_clamp_cross_shard_skew() {
        // Simulate the reader race: a shard whose losses landed before
        // its trial increment from the aggregate's point of view.
        let mon = CampaignMonitor::new(None, None);
        let b = mon.begin_batch("racy".into(), 10);
        let s = b.shard();
        s.losses.fetch_add(2, Ordering::Relaxed);
        s.trials.fetch_add(1, Ordering::Relaxed);
        let t = b.state().totals();
        assert_eq!((t.trials, t.losses), (1, 1));
        let _ = t.p_loss(); // must not panic
    }
}
