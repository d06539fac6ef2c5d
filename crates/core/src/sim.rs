//! The discrete-event storage-system simulator: one Monte-Carlo trial.
//!
//! Lifecycle of a disk failure (§2.3, Figure 2):
//!
//! 1. `Failure(d)` — the drive dies; every block on it becomes
//!    unavailable. If any redundancy group now has fewer than `m`
//!    available blocks, that group has **lost data**. In-flight rebuilds
//!    that targeted `d` are flagged for **recovery redirection**.
//! 2. `Detect(d)` — after the failure-detection latency Δ, rebuilds start
//!    for every unavailable block homed on `d`:
//!    * **FARM** walks the group's RUSH candidate list for a target that
//!      is alive, holds no buddy, has space (and, preferably, idle
//!      recovery bandwidth, §2.3's soft constraint).
//!    * **Single-spare RAID** sends every block to one fresh spare drive,
//!      where the rebuilds queue.
//! 3. `RebuildDone` — the block is available again; the window of
//!    vulnerability (detection latency + queueing + rebuild) closes.

use crate::config::{PreparedConfig, RecoveryPolicy, SystemConfig};
use crate::layout::{BlockRef, GroupLayout};
use crate::metrics::TrialMetrics;
use crate::observer::{self, LossCause, TrialArtifacts, TrialObserver};
use crate::replacement::Migration;
use crate::workload;
use farm_des::rng::SeedFactory;
use farm_des::time::{Duration, SimTime};
use farm_des::EventQueue;
use farm_disk::health::SmartVerdict;
use farm_disk::model::Disk;
use farm_obs::{EventProfile, N_GAUGES};
use farm_placement::{kernel, ClusterMap, DiskId, PreDraws, Rush, RushScratch};
use std::sync::Arc;

/// How many blocks ahead of the one being handled the failure and detect
/// handlers prefetch a block's per-group state (see
/// [`GroupLayout::prefetch_block`]). 16 measured ahead of 8 on RS 8/10
/// wide groups, where one failed disk holds ~350 blocks.
pub(crate) const LOOKAHEAD: usize = 16;

/// Simulation events.
#[derive(Clone, Copy, Debug)]
pub enum Event {
    /// A drive fails, losing its contents.
    Failure(DiskId),
    /// The failure of this drive is detected; recovery starts.
    Detect(DiskId),
    /// A block rebuild finishes (valid only if the epoch still matches).
    RebuildDone { block: BlockRef, epoch: u32 },
}

impl Event {
    /// Profiler labels, indexed by [`Event::kind_index`].
    pub const KIND_LABELS: &'static [&'static str] = &["failure", "detect", "rebuild_done"];

    /// Discriminant index into [`Event::KIND_LABELS`].
    #[inline]
    pub fn kind_index(&self) -> usize {
        match self {
            Event::Failure(_) => 0,
            Event::Detect(_) => 1,
            Event::RebuildDone { .. } => 2,
        }
    }
}

/// Seed-stream labels (one namespace per concern keeps streams
/// independent of construction order).
mod streams {
    pub const DISK_LIFETIME: u64 = 1;
    pub const SMART: u64 = 2;
    pub const ABLATION: u64 = 3;
    pub const LATENT: u64 = 4;
}

/// One trial of the storage system.
pub struct Simulation {
    cfg: Arc<PreparedConfig>,
    rush: Rush,
    /// Reusable dedup state for RUSH candidate walks (placement and
    /// recovery-target selection run one walk at a time, so a single
    /// scratch serves every hot path without allocating).
    pub(crate) rush_scratch: RushScratch,
    map: ClusterMap,
    disks: Vec<Disk>,
    /// Per-disk health verdicts; empty when the config has no SMART.
    smart: Vec<SmartVerdict>,
    /// Per-disk recovery pipe: busy until this instant.
    recovery_busy: Vec<SimTime>,
    layout: GroupLayout,
    queue: EventQueue<Event>,
    now: SimTime,
    horizon: SimTime,
    seeds: SeedFactory,
    metrics: TrialMetrics,
    /// Reusable buffer for the blocks of a failed drive (`on_failure` /
    /// `on_detect` snapshot the reverse index before mutating it).
    blocks_scratch: Vec<BlockRef>,
    /// Reusable buffer for rebuild-source selection.
    pub(crate) sources_scratch: Vec<DiskId>,
    /// Reusable buffer for the batched placement engine's prehashed
    /// attempt-0 draws (index-major, [`kernel::LANES`] lanes per row).
    place_hashes: Vec<u64>,
    /// Delta-migration state for batch replacement: the clean bits
    /// initial placement reports (empty without a replacement policy;
    /// see `replacement.rs`).
    pub(crate) migration: Migration,
    /// Failed drives in the placement population since the last batch.
    pub(crate) failed_since_batch: u32,
    /// Everything observing this trial (`None` = off, the zero-cost
    /// default: each transition is one null test, and the event loop
    /// is the plain one). See `observer.rs`.
    pub(crate) obs: Option<Box<TrialObserver>>,
    /// RNG used only by ablation policies (random target choice).
    ablation_rng: farm_des::rng::RngStream,
    /// RNG for latent-sector-error sampling.
    latent_rng: farm_des::rng::RngStream,
}

impl Simulation {
    pub fn new(cfg: SystemConfig, seed: u64) -> Self {
        Self::from_shared(Arc::new(PreparedConfig::new(cfg)), seed)
    }

    /// Construct a trial from a batch-shared [`PreparedConfig`]. The
    /// Monte-Carlo runner builds the `Arc` once and every trial on
    /// every worker clones the pointer instead of the config.
    pub fn from_shared(cfg: Arc<PreparedConfig>, seed: u64) -> Self {
        let seeds = SeedFactory::new(seed);
        let n = cfg.scheme.n as u8;
        let mut sim = Simulation {
            layout: GroupLayout::new(0, n, 0),
            rush: Rush::new(0),
            rush_scratch: RushScratch::new(),
            map: ClusterMap::new(),
            disks: Vec::new(),
            smart: Vec::new(),
            recovery_busy: Vec::new(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            horizon: SimTime::ZERO,
            seeds,
            metrics: TrialMetrics::new(),
            blocks_scratch: Vec::new(),
            sources_scratch: Vec::new(),
            place_hashes: Vec::new(),
            migration: Migration::default(),
            failed_since_batch: 0,
            obs: None,
            ablation_rng: seeds.stream(streams::ABLATION),
            latent_rng: seeds.stream(streams::LATENT),
            cfg: Arc::clone(&cfg),
        };
        sim.recycle(&cfg, seed);
        sim
    }

    /// Reset this simulation to the exact state `from_shared(cfg, seed)`
    /// would construct, reusing every large allocation: the layout
    /// arrays and reverse-index arena, the per-disk vectors, the event
    /// queue's storage, the cluster map, the metrics histograms, and
    /// both scratch buffers. The determinism contract — a trial is a
    /// pure function of `(config, master_seed, trial_index)` — is pinned
    /// by the fresh-vs-recycled golden tests in
    /// `tests/workspace_identity.rs`.
    ///
    /// The observer must be detached before recycling; its log and
    /// gauges carry per-trial state that must not leak across trials.
    pub fn recycle(&mut self, cfg: &Arc<PreparedConfig>, seed: u64) {
        self.reset_core(cfg, seed);
        self.populate_disks();
        self.place_all_groups();
    }

    /// Labels for the setup phases timed by [`Simulation::recycle_profiled`]:
    /// state reset (seeds, layout, map, queue, metrics), disk
    /// installation (lifetime sampling + failure scheduling), and the
    /// initial RUSH placement of every group.
    pub const SETUP_PHASE_LABELS: &'static [&'static str] = &["reset", "disks", "placement"];

    /// [`Simulation::recycle`], with each setup phase timed into `prof`
    /// (one slot per [`Simulation::SETUP_PHASE_LABELS`] entry) — the
    /// same farm-obs profile the event loop uses, so reports can show
    /// where the setup half of trial wall time goes.
    pub fn recycle_profiled(
        &mut self,
        cfg: &Arc<PreparedConfig>,
        seed: u64,
        prof: &mut EventProfile,
    ) {
        let t0 = std::time::Instant::now();
        self.reset_core(cfg, seed);
        prof.record(0, t0.elapsed().as_nanos() as u64);
        let t0 = std::time::Instant::now();
        self.populate_disks();
        prof.record(1, t0.elapsed().as_nanos() as u64);
        let t0 = std::time::Instant::now();
        self.place_all_groups();
        prof.record(2, t0.elapsed().as_nanos() as u64);
    }

    /// Reset seeds, layout, map, queue, metrics and scratch state.
    fn reset_core(&mut self, cfg: &Arc<PreparedConfig>, seed: u64) {
        assert!(
            cfg.replacement.threshold.is_none() || cfg.recovery == RecoveryPolicy::Farm,
            "batch replacement is modeled for FARM only (spares and \
             batches use disjoint id spaces)"
        );
        debug_assert!(self.obs.is_none(), "detach the observer before recycling");
        if !Arc::ptr_eq(&self.cfg, cfg) {
            self.cfg = Arc::clone(cfg);
        }
        let seeds = SeedFactory::new(seed);
        self.seeds = seeds;
        self.rush = Rush::new(seeds.child(0xFA).master());
        self.ablation_rng = seeds.stream(streams::ABLATION);
        self.latent_rng = seeds.stream(streams::LATENT);
        let n_disks = self.cfg.n_disks;
        let n_groups = u32::try_from(self.cfg.n_groups).expect("group count fits u32");
        self.map.reset_uniform(n_disks);
        self.layout
            .reset(n_groups, self.cfg.scheme.n as u8, n_disks);
        self.queue.reset();
        self.metrics.reset();
        self.disks.clear();
        self.smart.clear();
        self.recovery_busy.clear();
        self.blocks_scratch.clear();
        self.sources_scratch.clear();
        // `rush_scratch` is kept as-is: its generation-stamped reset is
        // O(1) and walk output is independent of retained state (pinned
        // by farm-placement's golden-sequence test).
        self.failed_since_batch = 0;
        self.now = SimTime::ZERO;
        self.horizon = SimTime::ZERO + self.cfg.sim_duration;
    }

    /// Install the initial disk population.
    fn populate_disks(&mut self) {
        for _ in 0..self.cfg.n_disks {
            self.add_disk(SimTime::ZERO);
        }
    }

    /// Install a new drive (initial population, spare, or batch member),
    /// sample its lifetime and schedule its failure.
    pub(crate) fn add_disk(&mut self, birth: SimTime) -> DiskId {
        let id = DiskId(self.disks.len() as u32);
        let disk = Disk::new(birth)
            .with_capacity(self.cfg.disk_capacity)
            .with_vintage(self.cfg.hazard.multiplier());
        let u = self
            .seeds
            .stream2(streams::DISK_LIFETIME, id.0 as u64)
            .uniform_open();
        // Most drives outlive the horizon; a draw below `survival_u` says
        // so without the `ln` and the segment walk (exact for any birth:
        // the lifetime alone already exceeds the horizon).
        let fail_at = (u >= self.cfg.survival_u)
            .then(|| birth + self.cfg.hazard.ttf_from_uniform(Duration::ZERO, u))
            .filter(|&t| t <= self.horizon);
        if let Some(t) = fail_at {
            self.queue.schedule(t, Event::Failure(id));
        }
        if let Some(smart_cfg) = &self.cfg.smart {
            let mut rng = self.seeds.stream2(streams::SMART, id.0 as u64);
            self.smart
                .push(SmartVerdict::roll(smart_cfg, birth, fail_at, &mut rng));
        }
        if let Some(o) = self.obs.as_deref_mut() {
            o.disk_added(disk.free_bytes(), disk.capacity);
        }
        self.disks.push(disk);
        self.recovery_busy.push(SimTime::ZERO);
        if (self.layout.n_disks() as usize) < self.disks.len() {
            self.layout.grow_disks(self.disks.len() as u32);
        }
        id
    }

    /// Initial data placement, the sequential specification: group by
    /// group, each group's n blocks go to the first n RUSH candidates
    /// whose disk has room for a block (capacity is a hard constraint).
    ///
    /// Each group is placed once. A fill pass writes every group's
    /// *unfiltered* first n candidates; then the layout counts blocks per
    /// disk. Every disk is active, empty and the same size at setup, so
    /// a disk has room exactly when its count is below `disk_capacity /
    /// block_bytes`. When no disk ends above that, every block found room
    /// and the homes are the specification's. Otherwise the groups are
    /// charged again in group order: a group whose n all had room keeps
    /// them (the filtered walk's first n are these same n), and only one
    /// that meets a full disk takes the space-filtered walk. The paper's
    /// base config (100 GB blocks on 1 TB drives) fills some drive to its
    /// 10 blocks in every trial, so that branch is live, not an edge
    /// case. The unchecked count comes first because configs that never
    /// fill a disk then pay no per-block check: charging each group with
    /// a check inside the fill loop read 5–9% slower on
    /// `rs_wide_groups`' setup (`BENCH_PR18.json`).
    ///
    /// Three things come out of the same pass: the counts are the
    /// layout's deferred-index histogram, every unfiltered group's homes
    /// are its walk memo (with the engine on), and the fill reports each
    /// group's migration clean bit (kept only when the config has batch
    /// replacement; see `replacement.rs`).
    ///
    /// Batched engine: with [`kernel::engine_enabled`], strips of
    /// [`kernel::LANES`]-group rounds prehash their attempt-0 draws
    /// through the dispatched multi-lane kernel (the initial map is
    /// always a single cluster); each group's fill then consumes its
    /// lane. Duplicate candidates, attempts ≥ 1 and the fallback probe
    /// stay on the sequential fold, so the emitted candidate sequence —
    /// and hence every trial artifact — is byte-identical to the
    /// engine-off walk by construction (pinned by
    /// `tests/placement_kernel_identity.rs`).
    fn place_all_groups(&mut self) {
        let n = self.cfg.scheme.n as usize;
        let block_bytes = self.cfg.block_bytes;
        let room = u32::try_from(self.cfg.disk_capacity / block_bytes).unwrap_or(u32::MAX);
        let n_groups = self.layout.n_groups();
        let engine = kernel::engine_enabled();
        debug_assert_eq!(self.map.n_clusters(), 1, "setup places on the uniform map");
        let mut hashes = std::mem::take(&mut self.place_hashes);
        let mut filtered = Vec::new();
        let track_clean = self.cfg.replacement.threshold.is_some();
        if track_clean {
            self.migration.reset(n_groups, n);
        }
        self.layout.begin_bulk_placement();
        let lanes = kernel::LANES as u32;
        // Strips of STRIP_ROUNDS lane-rounds per kernel call amortize
        // dispatch, constant broadcasts and in-kernel key folding; the
        // tail (< LANES groups) fills sequentially.
        const STRIP_ROUNDS: u32 = 16;
        let prefix = self.rush.key_prefix();
        let row = n * kernel::LANES;
        let mut g = 0u32;
        while g < n_groups {
            let rounds = ((n_groups - g) / lanes).min(STRIP_ROUNDS);
            let prehashed = engine && rounds > 0;
            let strip_groups = if prehashed {
                hashes.resize(rounds as usize * row, 0);
                kernel::draw_hashes_strip(prefix, g as u64, rounds as usize, n, &mut hashes);
                rounds * lanes
            } else {
                n_groups - g
            };
            for s in 0..strip_groups {
                let gi = g + s;
                // `n` prehashed draws per lane cover the whole fill, so a
                // prehashed fill fails only at an attempt-0 collision:
                // exactly when the walk is not clean.
                let clean = if prehashed {
                    let r = (s / lanes) as usize;
                    let pre = PreDraws::new(&hashes[r * row..(r + 1) * row], (s % lanes) as usize);
                    let filled = self.rush.fill_prehashed(
                        &self.map,
                        &mut self.rush_scratch,
                        pre,
                        self.layout.group_homes_mut(gi),
                    );
                    if !filled {
                        // The generic walk re-begins the scratch and
                        // emits the identical sequence the slow way.
                        let slot = self.layout.group_homes_mut(gi);
                        let walk = self.rush.walk_prehashed(
                            &self.map,
                            gi as u64,
                            &mut self.rush_scratch,
                            pre,
                        );
                        let mut got = 0;
                        for d in walk {
                            slot[got] = d;
                            got += 1;
                            if got == n {
                                break;
                            }
                        }
                        assert_eq!(got, n, "system too full to place group {gi}");
                    }
                    filled
                } else {
                    self.rush.fill_walk(
                        &self.map,
                        gi as u64,
                        &mut self.rush_scratch,
                        self.layout.group_homes_mut(gi),
                    )
                };
                if track_clean {
                    self.migration.set_clean(gi, clean);
                }
            }
            g += strip_groups;
        }
        self.place_hashes = hashes;
        // Some disk would end above its room, so charge in group order:
        // each group's check then sees exactly the groups before it, and
        // the filtered walk only the charges of earlier groups.
        if !self.layout.charge_all_groups(room) {
            for gi in 0..n_groups {
                if !self.layout.charge_group(gi, room) {
                    self.place_filtered(gi, room);
                    filtered.push(gi);
                }
            }
        }
        self.layout.finish_bulk_placement(engine);
        for &gi in &filtered {
            self.layout.forget_walk_prefix(gi);
        }
        for (di, disk) in self.disks.iter_mut().enumerate() {
            let bytes = self.layout.disk_load(DiskId(di as u32)) as u64 * block_bytes;
            if bytes > 0 {
                disk.allocate(bytes);
            }
        }
    }

    /// The space-filtered walk for a group whose unfiltered first n
    /// candidates hit a full disk: take the first n candidates whose
    /// disk holds fewer than `room` blocks, and charge them.
    #[cold]
    fn place_filtered(&mut self, gi: u32, room: u32) {
        let n = self.layout.blocks_per_group() as usize;
        let walk = self.rush.walk(&self.map, gi as u64, &mut self.rush_scratch);
        let mut got = 0;
        for d in walk {
            if self.layout.disk_load(d) < room {
                self.layout.group_homes_mut(gi)[got] = d;
                got += 1;
                if got == n {
                    break;
                }
            }
        }
        assert_eq!(got, n, "system too full to place group {gi}");
        let charged = self.layout.charge_group(gi, room);
        debug_assert!(charged, "the filtered walk only takes disks with room");
    }

    // ----- accessors -----------------------------------------------------

    pub fn config(&self) -> &SystemConfig {
        self.cfg.config()
    }

    /// The batch-shared validated config with precomputed derived values.
    pub fn prepared(&self) -> &Arc<PreparedConfig> {
        &self.cfg
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    pub fn metrics(&self) -> &TrialMetrics {
        &self.metrics
    }

    pub fn layout(&self) -> &GroupLayout {
        &self.layout
    }

    pub(crate) fn layout_mut(&mut self) -> &mut GroupLayout {
        &mut self.layout
    }

    pub(crate) fn schedule(&mut self, at: SimTime, ev: Event) {
        self.queue.schedule(at, ev);
    }

    pub fn cluster_map(&self) -> &ClusterMap {
        &self.map
    }

    pub(crate) fn map_mut(&mut self) -> &mut ClusterMap {
        &mut self.map
    }

    pub(crate) fn metrics_mut(&mut self) -> &mut TrialMetrics {
        &mut self.metrics
    }

    pub(crate) fn rush(&self) -> Rush {
        self.rush
    }

    pub fn disk(&self, d: DiskId) -> &Disk {
        &self.disks[d.0 as usize]
    }

    pub fn n_disks(&self) -> u32 {
        self.disks.len() as u32
    }

    pub(crate) fn disk_mut(&mut self, d: DiskId) -> &mut Disk {
        &mut self.disks[d.0 as usize]
    }

    /// Without SMART `smart` is empty, so this reads no per-disk state.
    pub(crate) fn is_suspect(&self, d: DiskId) -> bool {
        self.smart
            .get(d.0 as usize)
            .is_some_and(|v| v.health_at(self.now) == farm_disk::health::Health::Suspect)
    }

    pub(crate) fn ablation_rng_below(&mut self, n: u64) -> u64 {
        self.ablation_rng.below(n)
    }

    /// Sample whether reading `bytes` from source `d` right now trips a
    /// latent sector error (extension model; false when disabled).
    pub(crate) fn latent_read_trips(&mut self, d: DiskId, bytes: u64) -> bool {
        let Some(latent) = self.cfg.latent else {
            return false;
        };
        let disk = &self.disks[d.0 as usize];
        latent.read_trips(
            disk.birth,
            self.now,
            bytes,
            disk.capacity,
            &mut self.latent_rng,
        )
    }

    // ----- observability --------------------------------------------------

    /// Attach `obs` to this trial (replacing any attached observer).
    /// Never changes results: observers only read what the handlers
    /// hand them, and timeline samples are taken between events, not
    /// through the event queue.
    pub fn attach(&mut self, mut obs: TrialObserver) {
        obs.init_gauges(&self.disks, &self.recovery_busy, &self.layout, self.now);
        self.obs = Some(Box::new(obs));
    }

    /// Detach the observer, rendering its recovery log and returning
    /// its artifacts and event-loop profile (`None` when no observer
    /// was attached). Call after a run, so spans still open close as
    /// `truncated` at the horizon.
    pub fn detach(&mut self) -> Option<(TrialArtifacts, Option<EventProfile>)> {
        let obs = self.obs.take()?;
        Some(obs.finish(self.now, &self.metrics))
    }

    /// Profile the event loop (per-event-type counts/time, queue depth).
    /// Never changes results; costs ~two `Instant` reads per event.
    pub fn enable_profiling(&mut self) {
        self.obs
            .get_or_insert_with(Default::default)
            .enable_profiling();
    }

    /// Detach the observer and return its profile (if profiling was
    /// enabled).
    pub fn take_profile(&mut self) -> Option<EventProfile> {
        self.obs.take().and_then(|o| o.take_profile())
    }

    pub(crate) fn recovery_busy_until(&self, d: DiskId) -> SimTime {
        self.recovery_busy[d.0 as usize]
    }

    pub(crate) fn set_recovery_busy(&mut self, d: DiskId, until: SimTime) {
        let di = d.0 as usize;
        self.recovery_busy[di] = until;
        if let Some(o) = self.obs.as_deref_mut() {
            o.pipe_busy(self.now, d, until);
        }
    }

    /// Used bytes of every drive in the *placement population* (the disks
    /// the utilization experiments of §3.4 look at), with liveness.
    /// Returns a lazy iterator — callers that need a snapshot collect it
    /// themselves; per-call allocation here was pure waste.
    pub fn population_utilization(&self) -> impl Iterator<Item = (DiskId, u64, bool)> + '_ {
        (0..self.map.n_disks()).map(|i| {
            let d = DiskId(i);
            let disk = &self.disks[i as usize];
            (d, disk.used, disk.is_active())
        })
    }

    // ----- main loop ------------------------------------------------------

    /// Run the whole horizon and return the trial metrics.
    pub fn run(&mut self) -> TrialMetrics {
        self.run_inner(false)
    }

    /// Run until the first data loss (cheaper when only P(loss) matters).
    pub fn run_until_loss(&mut self) -> TrialMetrics {
        self.run_inner(true)
    }

    fn run_inner(&mut self, stop_on_loss: bool) -> TrialMetrics {
        // The loop is monomorphized twice so that with no observer
        // attached (the default) the hot path carries no clock reads,
        // no `Option` plumbing — nothing beyond the dispatch itself.
        if self.obs.is_some() {
            self.run_loop_observed(stop_on_loss);
        } else {
            self.run_loop(stop_on_loss);
        }
        self.now = self.horizon;
        self.metrics.clone()
    }

    #[inline(always)]
    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::Failure(d) => self.on_failure(d),
            Event::Detect(d) => self.on_detect(d),
            Event::RebuildDone { block, epoch } => self.on_rebuild_done(block, epoch),
        }
    }

    fn run_loop(&mut self, stop_on_loss: bool) {
        while let Some((t, ev)) = self.queue.pop() {
            if t > self.horizon {
                break;
            }
            self.now = t;
            self.metrics.events_processed += 1;
            self.dispatch(ev);
            if stop_on_loss && self.metrics.lost_data() {
                break;
            }
        }
    }

    /// Event loop with an observer attached: profiling and timeline
    /// sampling. Timeline samples are drawn *between* events — every
    /// due sample instant `s <= t` is recorded (from the state the
    /// previous event left) before the event at `t` dispatches — never
    /// through the event queue, so `events_processed` and queue
    /// tie-breaking are untouched and results stay bit-identical.
    fn run_loop_observed(&mut self, stop_on_loss: bool) {
        // Batch timeline sampling: cache the next due sample instant so
        // each event pays one float compare, entering the cold sampling
        // path only when a sample interval actually elapsed. Only this
        // loop advances the recorder, so the cache cannot go stale.
        let obs = self.obs.as_deref().expect("caller checked");
        let mut next_due = obs.timeline_due();
        let profiling = obs.profiling();
        while let Some((t, ev)) = self.queue.pop() {
            if t > self.horizon {
                break;
            }
            if next_due.is_some_and(|due| due <= t.as_secs()) {
                next_due = self.timeline_sample_to(t.as_secs());
            }
            self.now = t;
            self.metrics.events_processed += 1;
            if profiling {
                let t0 = std::time::Instant::now();
                self.dispatch(ev);
                let nanos = t0.elapsed().as_nanos() as u64;
                let depth = self.queue.len() as u64;
                if let Some(o) = self.obs.as_deref_mut() {
                    o.event_done(ev.kind_index(), nanos, depth);
                }
            } else {
                self.dispatch(ev);
            }
            if stop_on_loss && self.metrics.lost_data() {
                break;
            }
        }
        // Sample instants past the last event (or past an early loss
        // stop) record the final state, so every trial yields the same
        // row count — duration / interval — whatever its event history.
        if next_due.is_some() {
            self.timeline_sample_to(f64::INFINITY);
        }
    }

    /// Record every due timeline sample at or before `upto` from the
    /// live gauges; returns the next due instant. Debug builds
    /// cross-check every row against the full scan
    /// ([`Simulation::timeline_gauges`]), which is what keeps the
    /// incremental bookkeeping honest across the whole test suite.
    #[cold]
    #[inline(never)]
    fn timeline_sample_to(&mut self, upto: f64) -> Option<f64> {
        // Lift the observer out so the reference scan can borrow `self`.
        let mut obs = self.obs.take().expect("caller checked");
        let next = obs.sample_timeline(
            upto,
            &self.recovery_busy,
            self.failed_since_batch,
            |at, row| {
                debug_assert_eq!(
                    *row,
                    self.timeline_gauges(at),
                    "live gauges diverged from the reference scan at t={}",
                    at.as_secs()
                );
            },
        );
        self.obs = Some(obs);
        next
    }

    /// Reference implementation of the gauge row: a full scan of all
    /// disks and all groups. Not used on the sampling path (the live
    /// aggregates are); retained as the debug-build cross-check.
    fn timeline_gauges(&self, at: SimTime) -> [f64; N_GAUGES] {
        let (busy, failed) = (&self.recovery_busy, self.failed_since_batch);
        observer::scanned_row(&self.disks, busy, &self.layout, at, failed)
    }

    // ----- event handlers -------------------------------------------------

    fn on_failure(&mut self, d: DiskId) {
        debug_assert!(self.disks[d.0 as usize].is_active(), "disk fails once");
        self.metrics.disk_failures += 1;
        if let Some(o) = self.obs.as_deref_mut() {
            let disk = &self.disks[d.0 as usize];
            o.disk_failed(self.now, d, disk.free_bytes(), disk.capacity);
        }
        self.disks[d.0 as usize].fail();

        // Classify every block homed here. The first failure of the
        // trial materializes the reverse index the bulk placement
        // deferred (see `GroupLayout::build_reverse_index`); then
        // snapshot it into the reusable scratch (the loop body mutates
        // the layout).
        self.layout.build_reverse_index();
        let mut blocks = std::mem::take(&mut self.blocks_scratch);
        blocks.clear();
        blocks.extend_from_slice(self.layout.blocks_on(d));
        for (i, &b) in blocks.iter().enumerate() {
            if let Some(&ahead) = blocks.get(i + LOOKAHEAD) {
                self.layout.prefetch_availability(ahead);
            }
            if self.layout.is_dead(b.group()) {
                continue;
            }
            if self.layout.is_missing(b) {
                // An in-flight rebuild was targeting this drive: recovery
                // redirection (§2.3). Invalidate the pending completion;
                // Detect(d) will pick a fresh target.
                self.metrics.redirections += 1;
                self.layout.bump_epoch(b);
                if let Some(o) = self.obs.as_deref_mut() {
                    o.redirect(self.now, b, d);
                }
            } else {
                let missing = self.layout.mark_missing(b);
                self.layout.set_vulnerable(b, self.now);
                if let Some(o) = self.obs.as_deref_mut() {
                    o.block_failed(self.now, b, d, missing);
                }
                let available = self.cfg.scheme.n - missing as u32;
                if available < self.cfg.scheme.m {
                    self.layout.mark_dead(b.group());
                    self.metrics
                        .record_loss(self.cfg.group_user_bytes, self.now);
                    if let Some(o) = self.obs.as_deref_mut() {
                        o.group_lost(self.now, b.group(), missing, LossCause::DiskFailure);
                    }
                }
            }
        }
        self.blocks_scratch = blocks;

        // Batch replacement bookkeeping (only the placement population).
        if d.0 < self.map.n_disks() {
            self.failed_since_batch += 1;
            self.maybe_replace_batch();
        }

        self.queue
            .schedule(self.now + self.cfg.detection_latency, Event::Detect(d));
    }

    fn on_detect(&mut self, d: DiskId) {
        // Start (or restart, after redirection) a rebuild for every
        // unavailable block still homed on the dead drive. (The index
        // is already live — `on_failure` ran first — but a detect-only
        // entry path would materialize it here; O(1) when built.)
        self.layout.build_reverse_index();
        let mut blocks = std::mem::take(&mut self.blocks_scratch);
        blocks.clear();
        blocks.extend(
            self.layout
                .blocks_on(d)
                .iter()
                .copied()
                .filter(|&b| self.layout.is_missing(b) && !self.layout.is_dead(b.group())),
        );
        if !blocks.is_empty() {
            // Recovery fan-out: how many rebuilds this one detected
            // failure launches (FARM declusters them; single-spare RAID
            // funnels the same count into one fresh drive).
            self.metrics.fanout.record(blocks.len() as f64);
            if let Some(o) = self.obs.as_deref_mut() {
                o.detect(self.now, d, blocks.len());
            }
            let forced_target = match self.cfg.recovery {
                RecoveryPolicy::Farm => None,
                RecoveryPolicy::SingleSpare => {
                    // One dedicated replacement drive per failed disk
                    // (Figure 2(c)): all rebuilds converge on it.
                    Some(self.add_disk(self.now))
                }
            };
            // Blocks are handled in order, so each target choice still
            // sees the pipes the earlier rebuilds made busy; only the
            // state loads run ahead.
            for (i, &b) in blocks.iter().enumerate() {
                if let Some(&ahead) = blocks.get(i + LOOKAHEAD) {
                    self.layout.prefetch_block(ahead);
                }
                self.schedule_rebuild(b, forced_target);
            }
        }
        self.blocks_scratch = blocks;
    }

    fn on_rebuild_done(&mut self, b: BlockRef, epoch: u32) {
        if self.layout.epoch(b) != epoch {
            return; // redirected or otherwise superseded
        }
        if self.layout.is_dead(b.group()) {
            // The group lost data while this rebuild was in flight; the
            // reconstructed block is useless. Release the reservation.
            let home = self.layout.home(b);
            if self.disks[home.0 as usize].is_active() {
                let bytes = self.cfg.block_bytes;
                self.disks[home.0 as usize].release(bytes);
                if let Some(o) = self.obs.as_deref_mut() {
                    o.bytes_released(bytes);
                }
            }
            self.layout.take_vulnerable(b);
            return;
        }
        self.layout.mark_available(b);
        self.metrics.rebuilds_completed += 1;
        let window = self
            .layout
            .take_vulnerable(b)
            .map(|since| (self.now - since).as_secs());
        if let Some(window) = window {
            self.metrics.record_vulnerability(window);
        }
        if let Some(o) = self.obs.as_deref_mut() {
            let home = self.layout.home(b);
            let remaining = self.layout.missing_count(b.group());
            o.rebuild_done(self.now, b, home, remaining, window);
        }
    }

    /// Effective recovery bandwidth at an instant (constant unless the
    /// adaptive-workload extension is enabled).
    pub(crate) fn recovery_bandwidth_at(&self, t: SimTime) -> u64 {
        match &self.cfg.workload {
            Some(w) => workload::effective_bandwidth(self.cfg.recovery_bandwidth, w, t),
            None => self.cfg.recovery_bandwidth,
        }
    }
}
