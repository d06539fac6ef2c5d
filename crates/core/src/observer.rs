//! The per-trial observer: one seam between the simulator and every
//! recorder that watches a trial.
//!
//! A [`Simulation`](crate::Simulation) holds at most one boxed
//! [`TrialObserver`]. With none attached (the default) each transition
//! costs one null test; with one attached, each transition is one call
//! that fans out to whichever recorders the observer carries — the
//! event-loop profile, the JSONL tracer, the cluster-state timeline
//! with its live gauges, the flight recorder and the span recorder.
//! The hooks mirror the recovery lifecycle of §2.3 / Figure 2: a disk
//! fails, each of its blocks goes missing or is redirected, Δ later
//! detection schedules rebuilds, a rebuild completes, and a group may
//! drop below `m`.
//!
//! Call sites compute a hook's arguments inside the null test, so with
//! no observer attached nothing is looked up, formatted or allocated.
//! Observers only read what they are handed: attaching one never
//! changes a trial's results.

use crate::layout::{BlockRef, GroupLayout};
use crate::metrics::TrialMetrics;
use crate::sim::Event;
use crate::PreparedConfig;
use farm_des::time::SimTime;
use farm_disk::model::Disk;
use farm_obs::flight::{kind as flight_kind, NO_DISK};
use farm_obs::{
    diag, EventProfile, FlightRecorder, ObsOptions, SpanRecorder, TimelineRecorder, TraceSel,
    TrialSpans, TrialTracer, N_GAUGES,
};
use farm_placement::DiskId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Why a group dropped below `m`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LossCause {
    /// A disk failure took the group's last spare redundancy.
    DiskFailure,
    /// Latent sector errors on the rebuild sources left too few clean
    /// blocks to reconstruct from.
    LatentReadError,
}

impl LossCause {
    /// The cause as post-mortems spell it.
    fn name(self) -> &'static str {
        match self {
            LossCause::DiskFailure => "disk_failure",
            LossCause::LatentReadError => "latent_read_error",
        }
    }
}

/// Per-trial telemetry an observer leaves behind: the trial's timeline
/// rows, any post-mortems its flight recorder emitted, (in
/// `FARM_TRACE=loss` mode) the buffered trace of a losing trial, and
/// its recovery spans.
#[derive(Default)]
pub struct TrialArtifacts {
    pub timeline: Option<TimelineRecorder>,
    pub postmortems: Vec<String>,
    pub loss_trace: Option<Vec<u8>>,
    pub spans: Option<TrialSpans>,
}

impl TrialArtifacts {
    /// Nothing to write: a profile-only observer, or a non-losing trial
    /// in loss-trace mode.
    pub(crate) fn is_empty(&self) -> bool {
        self.timeline.is_none()
            && self.postmortems.is_empty()
            && self.loss_trace.is_none()
            && self.spans.is_none()
    }
}

/// Everything observing one trial. Build it with
/// [`TrialObserver::for_trial`], hand it to
/// [`Simulation::attach`](crate::Simulation::attach), and take its
/// artifacts back with [`Simulation::detach`](crate::Simulation::detach).
#[derive(Default)]
pub struct TrialObserver {
    profile: Option<EventProfile>,
    tracer: Option<TrialTracer>,
    timeline: Option<Timeline>,
    flight: Option<FlightRecorder>,
    spans: Option<SpanRecorder>,
}

/// The timeline recorder and the running aggregates its rows read.
struct Timeline {
    rec: TimelineRecorder,
    gauges: LiveGauges,
}

/// Incrementally-maintained cluster-state aggregates behind the
/// timeline gauges: the handlers pay a few adds per state change
/// instead of a full disk + group scan per sample (the dominant
/// telemetry-on cost at paper scale).
#[derive(Default)]
struct LiveGauges {
    /// Active (not failed) disks.
    active: u64,
    /// Sum of `free_bytes()` over active disks.
    free: u64,
    /// Sum of `capacity` over active disks.
    capacity: u64,
    /// Unavailable blocks of live (not dead) groups.
    rebuilds_in_flight: u64,
    /// Live groups with at least one unavailable block.
    vulnerable_groups: u64,
    /// Active disks whose recovery pipe is busy past the last drained
    /// sample instant (see `pipe_busy`).
    busy_pipes: u64,
    /// pipe_busy[d]: disk d is currently counted in `busy_pipes`.
    pipe_busy: Vec<bool>,
    /// Min-heap of `(busy-until, disk)` snapshots, one per busy pipe,
    /// drained lazily at each (monotone) sample instant. Entries are
    /// validated against the authoritative `recovery_busy` value when
    /// they surface, so a pipe extended since its push is re-armed
    /// rather than miscounted.
    expiries: BinaryHeap<Reverse<(SimTime, u32)>>,
}

impl LiveGauges {
    /// The aggregates of the state at `now`, from one full scan: the
    /// initializer when an observer attaches (every later sample reads
    /// the counters), and the debug builds' reference for every row.
    fn scan(disks: &[Disk], busy: &[SimTime], layout: &GroupLayout, now: SimTime) -> Self {
        let mut g = LiveGauges {
            pipe_busy: vec![false; disks.len()],
            ..LiveGauges::default()
        };
        for (i, d) in disks.iter().enumerate() {
            if d.is_active() {
                g.active += 1;
                g.free += d.free_bytes();
                g.capacity += d.capacity;
                if busy[i] > now {
                    g.pipe_busy[i] = true;
                    g.busy_pipes += 1;
                    g.expiries.push(Reverse((busy[i], i as u32)));
                }
            }
        }
        for grp in 0..layout.n_groups() {
            if layout.is_dead(grp) {
                continue;
            }
            let missing = layout.missing_count(grp) as u64;
            if missing > 0 {
                g.rebuilds_in_flight += missing;
                g.vulnerable_groups += 1;
            }
        }
        g
    }

    /// The gauge row at sample instant `at`. The only per-sample work
    /// proportional to anything is draining the pipe expiries that
    /// elapsed since the previous sample: each busy pipe holds one heap
    /// entry, so the drain is O(pipes that went idle).
    fn row(&mut self, at: SimTime, busy: &[SimTime], failed_since_batch: u32) -> [f64; N_GAUGES] {
        while let Some(&Reverse((until, d))) = self.expiries.peek() {
            if until > at {
                break;
            }
            self.expiries.pop();
            let di = d as usize;
            if self.pipe_busy[di] {
                let live = busy[di];
                if live > at {
                    // Extended since the entry was pushed: re-arm with
                    // the authoritative expiry (strictly later, so the
                    // drain advances).
                    self.expiries.push(Reverse((live, d)));
                } else {
                    self.pipe_busy[di] = false;
                    self.busy_pipes -= 1;
                }
            }
        }
        [
            failed_since_batch as f64,
            self.rebuilds_in_flight as f64,
            self.vulnerable_groups as f64,
            if self.active == 0 {
                0.0
            } else {
                self.busy_pipes as f64 / self.active as f64
            },
            if self.capacity == 0 {
                0.0
            } else {
                self.free as f64 / self.capacity as f64
            },
        ]
    }
}

/// The gauge row at `at` from a full scan of all disks and all groups:
/// the reference the live aggregates are checked against.
pub(crate) fn scanned_row(
    disks: &[Disk],
    busy: &[SimTime],
    layout: &GroupLayout,
    at: SimTime,
    failed_since_batch: u32,
) -> [f64; N_GAUGES] {
    LiveGauges::scan(disks, busy, layout, at).row(at, busy, failed_since_batch)
}

impl TrialObserver {
    /// The observer `obs` asks for on trial `trial`, or `None` when it
    /// asks for nothing per-trial (the trial then runs the plain loop).
    pub fn for_trial(obs: &ObsOptions, cfg: &PreparedConfig, trial: u64) -> Option<Self> {
        let tracer = obs.trace.as_ref().and_then(|spec| match spec.sel {
            TraceSel::Trial(sampled) if sampled == trial => TrialTracer::open(spec, trial)
                .map_err(|e| {
                    diag::warn_once(
                        "trace-open",
                        &format!("cannot open trace sink {:?}: {e}", spec.path),
                    );
                })
                .ok(),
            TraceSel::Trial(_) => None,
            // Loss mode: trace every trial into memory; the batch
            // driver keeps only the trials that lost data.
            TraceSel::Loss => Some(TrialTracer::buffered(trial)),
        });
        let duration = cfg.sim_duration.as_secs();
        let o = TrialObserver {
            profile: obs.profile.then(|| EventProfile::new(Event::KIND_LABELS)),
            tracer,
            timeline: obs.timeline.as_ref().map(|spec| Timeline {
                rec: TimelineRecorder::new(spec.resolve_interval(duration), duration),
                gauges: LiveGauges::default(),
            }),
            flight: obs
                .postmortem
                .as_ref()
                .map(|_| FlightRecorder::new(trial, cfg.n_groups as usize)),
            spans: obs.spans.as_ref().map(|_| SpanRecorder::new()),
        };
        let any = o.profile.is_some()
            || o.tracer.is_some()
            || o.timeline.is_some()
            || o.flight.is_some()
            || o.spans.is_some();
        any.then_some(o)
    }

    pub(crate) fn enable_profiling(&mut self) {
        self.profile = Some(EventProfile::new(Event::KIND_LABELS));
    }

    pub(crate) fn take_profile(self) -> Option<EventProfile> {
        self.profile
    }

    pub(crate) fn profiling(&self) -> bool {
        self.profile.is_some()
    }

    /// Seed the live gauges from the state the observer is attached to.
    pub(crate) fn init_gauges(
        &mut self,
        disks: &[Disk],
        busy: &[SimTime],
        layout: &GroupLayout,
        now: SimTime,
    ) {
        if let Some(tl) = &mut self.timeline {
            tl.gauges = LiveGauges::scan(disks, busy, layout, now);
        }
    }

    /// The next timeline sample instant, if one is still due.
    pub(crate) fn timeline_due(&self) -> Option<f64> {
        self.timeline.as_ref().and_then(|tl| tl.rec.due())
    }

    /// Record every due timeline sample at or before `upto`, handing
    /// each row to `check` first; returns the next due instant.
    pub(crate) fn sample_timeline(
        &mut self,
        upto: f64,
        busy: &[SimTime],
        failed_since_batch: u32,
        check: impl Fn(SimTime, &[f64; N_GAUGES]),
    ) -> Option<f64> {
        let tl = self.timeline.as_mut()?;
        while let Some(s) = tl.rec.due() {
            if s > upto {
                break;
            }
            let at = SimTime::from_secs(s);
            let row = tl.gauges.row(at, busy, failed_since_batch);
            check(at, &row);
            tl.rec.push(row);
        }
        tl.rec.due()
    }

    /// One dispatched event: its kind, handler time and the queue depth
    /// it left.
    pub(crate) fn event_done(&mut self, kind: usize, nanos: u64, depth: u64) {
        if let Some(p) = &mut self.profile {
            p.record(kind, nanos);
            p.sample_queue_depth(depth);
        }
    }

    fn trace(&mut self, now: SimTime, ev: &str, extra: std::fmt::Arguments<'_>) {
        if let Some(t) = &mut self.tracer {
            t.emit(now.as_secs(), ev, extra);
        }
    }

    fn flight(&mut self, now: SimTime, group: u32, kind: u8, disk: u32, idx: u8) {
        if let Some(f) = &mut self.flight {
            f.record(group, now.as_secs(), kind, disk, idx);
        }
    }

    /// A drive joined with `free` of its `capacity` bytes free.
    #[cold]
    #[inline(never)]
    pub(crate) fn disk_added(&mut self, free: u64, capacity: u64) {
        if let Some(tl) = &mut self.timeline {
            let g = &mut tl.gauges;
            g.active += 1;
            g.free += free;
            g.capacity += capacity;
            g.pipe_busy.push(false);
        }
    }

    /// Disk `d` failed; `free` and `capacity` are its bytes just before.
    #[cold]
    #[inline(never)]
    pub(crate) fn disk_failed(&mut self, now: SimTime, d: DiskId, free: u64, capacity: u64) {
        if let Some(tl) = &mut self.timeline {
            let g = &mut tl.gauges;
            g.active -= 1;
            g.free -= free;
            g.capacity -= capacity;
            let di = d.0 as usize;
            // Branchless: an idle pipe subtracts 0 and rewrites false.
            let was_busy = g.pipe_busy[di];
            g.pipe_busy[di] = false;
            g.busy_pipes -= was_busy as u64;
        }
        self.trace(now, "failure", format_args!(",\"disk\":{}", d.0));
    }

    /// Block `b` of a live group went missing on disk `d`; `missing` is
    /// the group's missing count after the mark.
    #[cold]
    #[inline(never)]
    pub(crate) fn block_failed(&mut self, now: SimTime, b: BlockRef, d: DiskId, missing: u8) {
        if let Some(tl) = &mut self.timeline {
            tl.gauges.rebuilds_in_flight += 1;
            // Branchless: the 0→1 missing transition is data-dependent,
            // so fold it into the add.
            tl.gauges.vulnerable_groups += (missing == 1) as u64;
        }
        self.flight(now, b.group(), flight_kind::FAILURE, d.0, b.idx());
        if let Some(s) = &mut self.spans {
            s.on_fail(b.group(), b.raw(), d.0, now.as_secs());
        }
    }

    /// The failure of `d` invalidated `b`'s in-flight rebuild (recovery
    /// redirection): its span re-enters detection.
    #[cold]
    #[inline(never)]
    pub(crate) fn redirect(&mut self, now: SimTime, b: BlockRef, d: DiskId) {
        self.flight(now, b.group(), flight_kind::REDIRECT, d.0, b.idx());
        if let Some(s) = &mut self.spans {
            s.on_redirect(b.raw(), now.as_secs());
        }
        self.trace(
            now,
            "redirect",
            format_args!(",\"group\":{},\"idx\":{}", b.group(), b.idx()),
        );
    }

    /// `group` dropped below `m` and was marked dead with `missing`
    /// blocks unavailable. The fatal event is already in the flight
    /// ring, so the post-mortem chain ends with it.
    #[cold]
    #[inline(never)]
    pub(crate) fn group_lost(&mut self, now: SimTime, group: u32, missing: u8, cause: LossCause) {
        if let Some(tl) = &mut self.timeline {
            // A dead group leaves both gauges; it only dies on a
            // missing-block transition, so it was vulnerable.
            tl.gauges.rebuilds_in_flight -= missing as u64;
            tl.gauges.vulnerable_groups -= 1;
        }
        let t = now.as_secs();
        let latent = cause == LossCause::LatentReadError;
        let cp = self
            .spans
            .as_mut()
            .and_then(|s| s.on_group_loss(group, t, latent));
        if let Some(f) = &mut self.flight {
            f.postmortem(group, t, cause.name(), cp.as_ref());
        }
        self.trace(now, "loss", format_args!(",\"group\":{group}"));
    }

    /// Detection of `d`'s failure launches `rebuilds` rebuilds.
    #[cold]
    #[inline(never)]
    pub(crate) fn detect(&mut self, now: SimTime, d: DiskId, rebuilds: usize) {
        self.trace(
            now,
            "detect",
            format_args!(",\"disk\":{},\"rebuilds\":{rebuilds}", d.0),
        );
    }

    /// No eligible recovery target exists for `b`.
    #[cold]
    #[inline(never)]
    pub(crate) fn no_target(&mut self, now: SimTime, b: BlockRef) {
        self.flight(now, b.group(), flight_kind::NO_TARGET, NO_DISK, b.idx());
        if let Some(s) = &mut self.spans {
            s.on_no_target(b.raw(), now.as_secs());
        }
        self.trace(
            now,
            "no_target",
            format_args!(",\"group\":{},\"idx\":{}", b.group(), b.idx()),
        );
    }

    /// Reading `b`'s rebuild source `source` tripped a latent error.
    #[cold]
    #[inline(never)]
    pub(crate) fn latent_trip(&mut self, now: SimTime, b: BlockRef, source: DiskId) {
        self.flight(now, b.group(), flight_kind::LATENT, source.0, b.idx());
    }

    /// A rebuild of `b` onto `target` was scheduled: after a `wait`
    /// behind busy pipes it starts at `start` and transfers for
    /// `duration` seconds, reading one `block_bytes` block from each of
    /// `sources`.
    #[cold]
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn rebuild_scheduled(
        &mut self,
        now: SimTime,
        b: BlockRef,
        target: DiskId,
        start: SimTime,
        duration: f64,
        sources: &[DiskId],
        block_bytes: u64,
    ) {
        self.flight(
            now,
            b.group(),
            flight_kind::REBUILD_START,
            target.0,
            b.idx(),
        );
        let wait = (start - now).as_secs();
        self.trace(
            now,
            "rebuild_start",
            format_args!(
                ",\"group\":{},\"idx\":{},\"target\":{},\"wait\":{wait:.3}",
                b.group(),
                b.idx(),
                target.0
            ),
        );
        if let Some(s) = &mut self.spans {
            let ids: Vec<u32> = sources.iter().map(|d| d.0).collect();
            let (t, start) = (now.as_secs(), start.as_secs());
            s.on_schedule(b.raw(), t, start, duration, target.0, &ids, block_bytes);
        }
    }

    /// `b`'s rebuild onto `home` completed, leaving its group with
    /// `remaining` missing blocks; `window` is the vulnerability window
    /// it closed, if one was open.
    #[cold]
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn rebuild_done(
        &mut self,
        now: SimTime,
        b: BlockRef,
        home: DiskId,
        remaining: u8,
        window: Option<f64>,
        block_bytes: u64,
    ) {
        if let Some(tl) = &mut self.timeline {
            tl.gauges.rebuilds_in_flight -= 1;
            // Branchless mirror of `block_failed`.
            tl.gauges.vulnerable_groups -= (remaining == 0) as u64;
        }
        if let Some(s) = &mut self.spans {
            s.on_done(b.raw(), now.as_secs(), block_bytes);
        }
        self.flight(now, b.group(), flight_kind::REBUILD_DONE, home.0, b.idx());
        if let Some(window) = window {
            self.trace(
                now,
                "rebuild_done",
                format_args!(
                    ",\"group\":{},\"idx\":{},\"window\":{window:.3}",
                    b.group(),
                    b.idx()
                ),
            );
        }
    }

    /// An active disk allocated `bytes` (rebuild target reservation,
    /// migration destination).
    #[cold]
    #[inline(never)]
    pub(crate) fn bytes_allocated(&mut self, bytes: u64) {
        if let Some(tl) = &mut self.timeline {
            tl.gauges.free -= bytes;
        }
    }

    /// An active disk released `bytes` (dead-group reservation freed,
    /// migration source).
    #[cold]
    #[inline(never)]
    pub(crate) fn bytes_released(&mut self, bytes: u64) {
        if let Some(tl) = &mut self.timeline {
            tl.gauges.free += bytes;
        }
    }

    /// Disk `d`'s recovery pipe is now busy until `until`.
    #[cold]
    #[inline(never)]
    pub(crate) fn pipe_busy(&mut self, now: SimTime, d: DiskId, until: SimTime) {
        if let Some(tl) = &mut self.timeline {
            let g = &mut tl.gauges;
            // One heap entry per busy pipe: push only on the idle→busy
            // transition. A surfacing entry is checked against the
            // authoritative busy-until value and re-armed if the pipe
            // was extended meanwhile, so extensions — the common case,
            // every rebuild re-busies m+1 pipes — cost no heap traffic.
            // The counter update is branchless (+1 on idle→busy, −1 on
            // busy→idle, 0 otherwise via wrapping arithmetic).
            let di = d.0 as usize;
            let was = g.pipe_busy[di] as u64;
            let busy = (until > now) as u64;
            g.pipe_busy[di] = busy != 0;
            g.busy_pipes = g.busy_pipes.wrapping_add(busy).wrapping_sub(was);
            if busy > was {
                g.expiries.push(Reverse((until, d.0)));
            }
        }
    }

    /// End of trial at `now`: write the tracer's `trial_end` record and
    /// harvest every recorder.
    pub(crate) fn finish(
        self,
        now: SimTime,
        m: &TrialMetrics,
    ) -> (TrialArtifacts, Option<EventProfile>) {
        let t = now.as_secs();
        let mut a = TrialArtifacts::default();
        if let Some(mut tr) = self.tracer {
            tr.emit(
                t,
                "trial_end",
                format_args!(
                    ",\"failures\":{},\"rebuilds\":{},\"redirections\":{},\"lost_groups\":{}",
                    m.disk_failures, m.rebuilds_completed, m.redirections, m.lost_groups
                ),
            );
            tr.flush();
            if m.lost_data() {
                a.loss_trace = tr.take_buffer();
            }
        }
        a.timeline = self.timeline.map(|tl| tl.rec);
        if let Some(f) = self.flight {
            a.postmortems = f.take_postmortems();
        }
        if let Some(mut s) = self.spans {
            s.finalize(t);
            a.spans = Some(s.take());
        }
        (a, self.profile)
    }
}
