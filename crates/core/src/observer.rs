//! The per-trial observer: one seam between the simulator and every
//! recorder that watches a trial.
//!
//! A [`Simulation`](crate::Simulation) holds at most one boxed
//! [`TrialObserver`]. With none attached (the default) each transition
//! costs one null test; with one attached, each transition is one call
//! that updates the timeline's live gauges (where it moves one) and
//! pushes one record onto the trial's recovery log
//! ([`farm_obs::TrialLog`]), when a trace, post-mortems or spans asked
//! for one. The hooks mirror the recovery lifecycle of §2.3 / Figure 2:
//! a disk fails, each of its blocks goes missing or is redirected, Δ
//! later detection schedules rebuilds, a rebuild completes, and a group
//! may drop below `m`. At trial end [`TrialObserver`] renders the log
//! once into the outputs the run selected: the JSONL trace, the
//! post-mortems and the spans.
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
use farm_obs::trial_log::{kind, Transition, NO_DISK};
use farm_obs::{
    EventProfile, ObsOptions, TimelineRecorder, TraceSel, TrialLog, TrialSpans, N_GAUGES,
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

/// Per-trial telemetry an observer leaves behind: the trial's timeline
/// rows, its post-mortems, its JSONL trace (the sampled trial, or a
/// losing one in `FARM_TRACE=loss` mode) and its recovery spans.
#[derive(Default)]
pub struct TrialArtifacts {
    pub timeline: Option<TimelineRecorder>,
    pub postmortems: Vec<String>,
    pub trace: Option<String>,
    pub spans: Option<TrialSpans>,
}

impl TrialArtifacts {
    /// Nothing to write: a profile-only observer, or a non-losing trial
    /// in loss-trace mode.
    pub(crate) fn is_empty(&self) -> bool {
        self.timeline.is_none()
            && self.postmortems.is_empty()
            && self.trace.is_none()
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
    timeline: Option<Timeline>,
    /// The recovery log, when some output renders it.
    log: Option<TrialLog>,
    /// What `finish` renders from the log.
    renders: Renders,
}

/// The outputs one trial's recovery log is rendered into.
#[derive(Default)]
struct Renders {
    trial: u64,
    /// Trace this trial: always (`Trial`, it is the sampled one), or
    /// only if it lost data (`Loss`).
    trace: Option<TraceSel>,
    postmortems: bool,
    spans: bool,
    block_bytes: u64,
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
        let sel = obs.trace.as_ref().map(|spec| spec.sel);
        let renders = Renders {
            trial,
            // Loss mode logs every trial; `finish` renders only the
            // trials that lost data.
            trace: sel.filter(|&s| s == TraceSel::Loss || s == TraceSel::Trial(trial)),
            postmortems: obs.postmortem.is_some(),
            spans: obs.spans.is_some(),
            block_bytes: cfg.block_bytes,
        };
        let logged = renders.trace.is_some() || renders.postmortems || renders.spans;
        let duration = cfg.sim_duration.as_secs();
        let o = TrialObserver {
            profile: obs.profile.then(|| EventProfile::new(Event::KIND_LABELS)),
            timeline: obs.timeline.as_ref().map(|spec| Timeline {
                rec: TimelineRecorder::new(spec.resolve_interval(duration), duration),
                gauges: LiveGauges::default(),
            }),
            log: logged.then(TrialLog::default),
            renders,
        };
        (o.profile.is_some() || o.timeline.is_some() || o.log.is_some()).then_some(o)
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

    /// Push a transition involving `disk` onto the log, of block `b` or,
    /// with none, of the whole disk.
    fn push(
        &mut self,
        now: SimTime,
        kind: u8,
        b: Option<BlockRef>,
        disk: u32,
    ) -> Option<&mut Transition> {
        let log = self.log.as_mut()?;
        let (group, block, idx) =
            b.map_or((NO_DISK, NO_DISK, 0), |b| (b.group(), b.raw(), b.idx()));
        Some(log.push(now.as_secs(), kind, group, block, idx, disk))
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
        self.push(now, kind::DISK_FAILED, None, d.0);
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
        self.push(now, kind::BLOCK_FAILED, Some(b), d.0);
    }

    /// The failure of `d` invalidated `b`'s in-flight rebuild (recovery
    /// redirection): its span re-enters detection.
    #[cold]
    #[inline(never)]
    pub(crate) fn redirect(&mut self, now: SimTime, b: BlockRef, d: DiskId) {
        self.push(now, kind::REDIRECT, Some(b), d.0);
    }

    /// `group` dropped below `m` and was marked dead with `missing`
    /// blocks unavailable. The fatal event is already in the log, so
    /// the post-mortem chain ends with it.
    #[cold]
    #[inline(never)]
    pub(crate) fn group_lost(&mut self, now: SimTime, group: u32, missing: u8, cause: LossCause) {
        if let Some(tl) = &mut self.timeline {
            // A dead group leaves both gauges; it only dies on a
            // missing-block transition, so it was vulnerable.
            tl.gauges.rebuilds_in_flight -= missing as u64;
            tl.gauges.vulnerable_groups -= 1;
        }
        if let Some(log) = &mut self.log {
            let k = match cause {
                LossCause::DiskFailure => kind::LOSS_DISK,
                LossCause::LatentReadError => kind::LOSS_LATENT,
            };
            log.push(now.as_secs(), k, group, NO_DISK, 0, NO_DISK);
        }
    }

    /// Detection of `d`'s failure launches `rebuilds` rebuilds.
    #[cold]
    #[inline(never)]
    pub(crate) fn detect(&mut self, now: SimTime, d: DiskId, rebuilds: usize) {
        if let Some(r) = self.push(now, kind::DETECT, None, d.0) {
            r.a = rebuilds as f64;
        }
    }

    /// No eligible recovery target exists for `b`.
    #[cold]
    #[inline(never)]
    pub(crate) fn no_target(&mut self, now: SimTime, b: BlockRef) {
        self.push(now, kind::NO_TARGET, Some(b), NO_DISK);
    }

    /// Reading `b`'s rebuild source `source` tripped a latent error.
    #[cold]
    #[inline(never)]
    pub(crate) fn latent_trip(&mut self, now: SimTime, b: BlockRef, source: DiskId) {
        self.push(now, kind::LATENT, Some(b), source.0);
    }

    /// A rebuild of `b` onto `target` was scheduled: after a wait
    /// behind busy pipes it starts at `start` and transfers for
    /// `duration` seconds, reading one block from each of `sources`.
    #[cold]
    #[inline(never)]
    pub(crate) fn rebuild_scheduled(
        &mut self,
        now: SimTime,
        b: BlockRef,
        target: DiskId,
        start: SimTime,
        duration: f64,
        sources: &[DiskId],
    ) {
        if let Some(log) = &mut self.log {
            let (t, s, srcs) = (now.as_secs(), start.as_secs(), sources.iter().map(|d| d.0));
            log.rebuild_start(t, b.group(), b.raw(), b.idx(), target.0, s, duration, srcs);
        }
    }

    /// `b`'s rebuild onto `home` completed, leaving its group with
    /// `remaining` missing blocks; `window` is the vulnerability window
    /// it closed, if one was open.
    #[cold]
    #[inline(never)]
    pub(crate) fn rebuild_done(
        &mut self,
        now: SimTime,
        b: BlockRef,
        home: DiskId,
        remaining: u8,
        window: Option<f64>,
    ) {
        if let Some(tl) = &mut self.timeline {
            tl.gauges.rebuilds_in_flight -= 1;
            // Branchless mirror of `block_failed`.
            tl.gauges.vulnerable_groups -= (remaining == 0) as u64;
        }
        if let Some(r) = self.push(now, kind::REBUILD_DONE, Some(b), home.0) {
            r.a = window.unwrap_or(f64::NAN);
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

    /// End of trial at `now`: render the recovery log into the selected
    /// outputs and harvest the timeline.
    pub(crate) fn finish(
        self,
        now: SimTime,
        m: &TrialMetrics,
    ) -> (TrialArtifacts, Option<EventProfile>) {
        let t = now.as_secs();
        let mut a = TrialArtifacts {
            timeline: self.timeline.map(|tl| tl.rec),
            ..TrialArtifacts::default()
        };
        if let Some(log) = &self.log {
            let r = &self.renders;
            // Spans first: their replay yields each loss's critical path.
            let mut paths = None;
            if r.spans {
                let (spans, p) = log.spans(t, r.block_bytes);
                a.spans = Some(spans);
                paths = Some(p);
            }
            if r.postmortems {
                a.postmortems = log.render_postmortems(r.trial, paths.as_deref());
            }
            let traced = match r.trace {
                Some(TraceSel::Trial(_)) => true,
                Some(TraceSel::Loss) => m.lost_data(),
                None => false,
            };
            if traced {
                let counts = [
                    m.disk_failures,
                    m.rebuilds_completed,
                    m.redirections,
                    m.lost_groups,
                ];
                a.trace = Some(log.render_trace(r.trial, t, counts));
            }
        }
        (a, self.profile)
    }
}
