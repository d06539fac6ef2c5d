//! The Monte-Carlo workloads: `paper_ci`, `fig7_replacement` and
//! `rs_wide_groups`.
//!
//! End-to-end numbers come from the untraced Monte-Carlo runner
//! (`farm_core::run_trials_observed`). The traced run replays the same
//! master seed and trial indices through the per-trial API
//! (`Simulation::from_shared`, then `recycle_profiled`;
//! `enable_profiling`, `run`/`run_until_loss`, `take_profile`) with
//! spans around each call, and folds the trials into the same chunked
//! summary the runner builds, so its digest must match the untraced one.

use crate::report::{fnv1a, median, peak_rss_mb, Report};
use crate::trace::Trace;
use crate::Args;
use farm_core::montecarlo::{n_chunks, run_trials_observed, TrialMode, CHUNK_TRIALS};
use farm_core::{Event, McSummary, PreparedConfig, ReplacementPolicy, Simulation, SystemConfig};
use farm_des::rng::derive_seed;
use farm_disk::model::GIB;
use farm_erasure::Scheme;
use farm_obs::{EventProfile, ObsOptions, StatusSpec, STOP_CHECK_EVERY};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Relative Wilson-95 half-width at which `paper_ci` stops.
const TARGET_REL_CI: f64 = 0.3;

/// Upper bound on a `paper_ci` campaign; reaching it means the stop
/// rule never fired, which fails the run.
const PAPER_CI_CAP: u64 = 16_384;

pub struct McWorkload {
    pub name: &'static str,
    cfg: SystemConfig,
    mode: TrialMode,
    threads: usize,
    /// Trials per timed unit; `None` = run to the CI target.
    batch: Option<u64>,
    /// Fresh builds whose median is `setup_s`, half before and half
    /// after the timed work so one host slowdown cannot sway it.
    setup_builds: u64,
    /// Trials the traced run replays (capped by the stop count on
    /// `paper_ci`).
    traced_trials: u64,
    /// `fnv1a(McSummary::to_compact())` of unit 0 at the default seed,
    /// and its trial count, recorded from the unmodified program.
    golden: (u64, u64),
}

pub fn workload(name: &str) -> Option<McWorkload> {
    let base = SystemConfig::default();
    match name {
        "paper_ci" => Some(McWorkload {
            name: "paper_ci",
            cfg: base,
            mode: TrialMode::UntilLoss,
            threads: 2,
            batch: None,
            setup_builds: 126,
            traced_trials: 512,
            golden: (GOLDEN_PAPER_CI, 1728),
        }),
        "fig7_replacement" => Some(McWorkload {
            name: "fig7_replacement",
            cfg: SystemConfig {
                replacement: ReplacementPolicy::at_fraction(0.02),
                ..base
            },
            mode: TrialMode::Full,
            threads: 1,
            batch: Some(8),
            setup_builds: 126,
            traced_trials: 48,
            golden: (GOLDEN_FIG7, 8),
        }),
        "rs_wide_groups" => Some(McWorkload {
            name: "rs_wide_groups",
            cfg: SystemConfig {
                scheme: Scheme::new(8, 10),
                group_user_bytes: 10 * GIB,
                ..base
            },
            mode: TrialMode::Full,
            threads: 1,
            batch: Some(2),
            setup_builds: 30,
            traced_trials: 12,
            golden: (GOLDEN_RS_WIDE, 2),
        }),
        _ => None,
    }
}

const GOLDEN_PAPER_CI: u64 = 0x9215_37a1_20cb_d07a;
const GOLDEN_FIG7: u64 = 0xccc1_6656_2940_81ca;
const GOLDEN_RS_WIDE: u64 = 0x700a_d15a_a1ba_20a8;

/// Master seed of timed unit `i` in a run with workload seed `seed`:
/// unit 0 uses the workload seed itself.
fn unit_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_add(i << 32)
}

/// Seed of the `i`-th setup build, apart from every timed trial's.
fn setup_seed(seed: u64, i: u64) -> u64 {
    derive_seed(seed ^ 0x5E70_5E70_5E70_5E70, i)
}

fn total_events(s: &McSummary) -> u64 {
    (s.events.mean() * s.events.count() as f64).round() as u64
}

impl McWorkload {
    fn obs(&self, args: &Args) -> ObsOptions {
        let mut o = ObsOptions::off();
        if self.batch.is_none() {
            o.status = Some(StatusSpec {
                path: args
                    .out_dir
                    .join(format!("status-{}.json", self.name))
                    .display()
                    .to_string(),
                interval_secs: None,
            });
            o.target_rel_ci = Some(TARGET_REL_CI);
        }
        o
    }

    fn trials_cap(&self) -> u64 {
        self.batch.unwrap_or(PAPER_CI_CAP)
    }

    /// Times of fresh `Simulation::from_shared` builds `builds` on
    /// distinct seeds, seconds.
    fn setup_times(
        &self,
        prepared: &Arc<PreparedConfig>,
        seed: u64,
        builds: std::ops::Range<u64>,
    ) -> Vec<f64> {
        builds
            .map(|i| {
                let t0 = Instant::now();
                let sim = Simulation::from_shared(Arc::clone(prepared), setup_seed(seed, i));
                let dt = t0.elapsed().as_secs_f64();
                drop(black_box(sim));
                dt
            })
            .collect()
    }

    /// Output checks every unit's summary must pass.
    fn check_unit(&self, r: &mut Report, args: &Args, i: u64, s: &McSummary) {
        let trials = s.trials();
        let losses = s.p_loss.successes;
        let ctx = format!("{} seed {} unit {i}", self.name, args.seed);
        r.check(s.no_targets.max() == 0.0, trials, || {
            format!("{ctx}: rebuilds without a target")
        });
        r.check(losses <= trials, trials, || {
            format!("{ctx}: {losses} losses > {trials} trials")
        });
        match self.batch {
            Some(b) => r.check(trials == b, trials, || {
                format!("{ctx}: ran {trials} of {b} trials")
            }),
            None => {
                r.check(
                    trials.is_multiple_of(STOP_CHECK_EVERY) && trials < PAPER_CI_CAP,
                    trials,
                    || format!("{ctx}: stop count {trials} not a stop boundary below the cap"),
                );
                let rel = s.p_loss.rel_half_width().unwrap_or(f64::INFINITY);
                r.check(rel <= TARGET_REL_CI, trials, || {
                    format!("{ctx}: final relative half-width {rel} > {TARGET_REL_CI}")
                });
            }
        }
        if args.seed == crate::DEFAULT_SEED && i == 0 {
            let digest = fnv1a(&s.to_compact());
            let (want, want_trials) = self.golden;
            r.check(digest == want && trials == want_trials, trials, || {
                format!("{ctx}: summary digest {digest:#018x} over {trials} trials, recorded {want:#018x} over {want_trials}")
            });
        }
    }

    /// `--trace 0`: timed units until `--seconds` elapse.
    pub fn run(&self, args: &Args) -> Report {
        let mut r = Report::new();
        let prepared = Arc::new(PreparedConfig::new(self.cfg.clone()));
        let half = self.setup_builds / 2;
        let mut setup = self.setup_times(&prepared, args.seed, 0..half);
        let obs = self.obs(args);
        let (mut walls, mut unit_trials, mut events) = (Vec::new(), Vec::new(), 0u64);
        let started = Instant::now();
        for i in 0.. {
            let t0 = Instant::now();
            let (s, _) = run_trials_observed(
                &self.cfg,
                unit_seed(args.seed, i),
                self.trials_cap(),
                self.mode,
                self.threads,
                &obs,
            );
            walls.push(t0.elapsed().as_secs_f64());
            r.attempted += s.trials();
            unit_trials.push(s.trials());
            events += total_events(&s);
            self.check_unit(&mut r, args, i, &s);
            // Start another unit only if it should end near the budget.
            let mean = walls.iter().sum::<f64>() / walls.len() as f64;
            if started.elapsed().as_secs_f64() + mean / 2.0 >= args.seconds {
                break;
            }
        }
        setup.extend(self.setup_times(&prepared, args.seed, half..self.setup_builds));
        let busy: f64 = walls.iter().sum();
        let trials: u64 = unit_trials.iter().sum();
        // Units of `paper_ci` differ in size (each stops at its own
        // trial count), so its campaign time is the mean; fixed-size
        // units report the median.
        let campaign_s = match self.batch {
            None => busy / walls.len() as f64,
            Some(_) => median(&walls),
        };
        r.metric("campaign_s", campaign_s, "s");
        r.metric("trials_per_s", trials as f64 / busy, "1/s");
        r.metric("events_per_s", events as f64 / busy, "1/s");
        r.metric("setup_s", median(&setup), "s");
        r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        eprintln!(
            "{}: {trials} trials, {events} events in {busy:.3} s; unit trials {unit_trials:?}, unit walls {:?}",
            self.name,
            walls.iter().map(|w| (w * 1e3).round() / 1e3).collect::<Vec<_>>()
        );
        r
    }

    /// `--trace 1`: untraced reference passes, then the traced replay.
    pub fn run_traced(&self, args: &Args) -> Report {
        let mut r = Report::new();
        let seed = unit_seed(args.seed, 0);
        let off = ObsOptions::off();
        // The process's first build, cold: the same seed and config the
        // first build of `setup_s` uses.
        let prepared = Arc::new(PreparedConfig::new(self.cfg.clone()));
        let (sim, first_build_s) =
            timed(|| Simulation::from_shared(Arc::clone(&prepared), setup_seed(args.seed, 0)));
        drop(black_box(sim));

        // The campaign whose trials are replayed: the CI-targeted one on
        // `paper_ci`, a fixed count elsewhere. On `paper_ci` the first
        // monitored campaign finds the stop count and is checked; the
        // monitor's cost is then timed as off, on, on, off on that count,
        // so neither a cold first campaign nor a host slowdown during the
        // run biases it.
        let (campaign_trials, obs_overhead, snapshots) = match self.batch {
            None => {
                let obs = self.obs(args);
                let ((on, _), _) = timed(|| {
                    run_trials_observed(
                        &self.cfg,
                        seed,
                        PAPER_CI_CAP,
                        self.mode,
                        self.threads,
                        &obs,
                    )
                });
                self.check_unit(&mut r, args, 0, &on);
                let n = on.trials();
                let status = std::fs::read_to_string(&obs.status.as_ref().expect("status on").path)
                    .unwrap_or_default();
                let snapshots = json_u64(&status, "seq").map_or(0, |seq| seq + 1);
                let done = json_u64(&status, "trials_done").unwrap_or(0);
                r.check(done == n, n, || {
                    format!(
                        "{}: status snapshot reports {done} trials, ran {n}",
                        self.name
                    )
                });
                let plain = |o: &ObsOptions| {
                    timed(|| run_trials_observed(&self.cfg, seed, n, self.mode, self.threads, o))
                };
                let ((off1, _), w_off1) = plain(&off);
                let ((on2, _), w_on2) = plain(&obs);
                let (_, w_on3) = plain(&obs);
                let (_, w_off2) = plain(&off);
                r.check(
                    off1.to_compact() == on.to_compact() && on2.to_compact() == on.to_compact(),
                    n,
                    || {
                        format!(
                            "{}: stopped campaign differs from the unmonitored run of {n} trials",
                            self.name
                        )
                    },
                );
                r.attempted += 5 * n;
                (n, (w_on2 + w_on3) / (w_off1 + w_off2) - 1.0, snapshots)
            }
            Some(_) => (self.traced_trials, 0.0, 0),
        };
        let m = self.traced_trials.min(campaign_trials);

        // Untraced 1- and 2-thread passes over the same trials, placed
        // symmetrically around the traced pass (1, 2, traced, 2, 1) so a
        // host slowdown during the run does not bias either ratio.
        let untraced = |threads: usize| {
            timed(|| run_trials_observed(&self.cfg, seed, m, self.mode, threads, &off).0)
        };
        let (one, w1a) = untraced(1);
        let (two, w2a) = untraced(2);
        let mut trace = Trace::new();
        let t0 = Instant::now();
        let pass = self.traced_pass(&mut trace, &prepared, seed, m);
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let (_, w2b) = untraced(2);
        let (_, w1b) = untraced(1);
        let w1 = (w1a + w1b) / 2.0;
        let w2 = (w2a + w2b) / 2.0;
        r.attempted += 5 * m;
        r.check(one.to_compact() == two.to_compact(), m, || {
            format!("{}: 1-thread and 2-thread summaries differ", self.name)
        });
        r.check(pass.summary.to_compact() == one.to_compact(), m, || {
            format!(
                "{}: traced replay summary differs from the untraced run",
                self.name
            )
        });
        r.check(pass.summary.no_targets.max() == 0.0, m, || {
            format!("{}: rebuilds without a target", self.name)
        });
        let self_sum = crate::finish_trace(&mut r, args, &trace, wall_ns, m);

        let per_trial = |v: f64| v / m as f64;
        let ms = |ns: u64| ns as f64 / 1e6;
        let sum = |name: &str| trace.durations(name).iter().sum::<u64>();
        let recycled = m.saturating_sub(1).max(1) as f64;
        let prof = &pass.profile;
        let loop_ns = sum("loop");
        let trial_ms: Vec<f64> = trace.durations("trial").iter().map(|&ns| ms(ns)).collect();
        let setup_ns = sum("setup.build") + sum("setup.recycle");

        let s = &pass.summary;
        let kind = |k: usize| {
            let count = prof.count(k);
            (
                count as f64,
                prof.nanos(k).checked_div(count).unwrap_or(0) as f64,
            )
        };
        layer_metrics(
            &mut r,
            &McLayers {
                trials: campaign_trials as f64,
                chunks: n_chunks(campaign_trials) as f64,
                parallel_speedup: w1 / w2,
                reset_ms: ms(sum("reset")) / recycled,
                disks_ms: ms(sum("disks")) / recycled,
                placement_ms: ms(sum("placement")) / recycled,
                setup_frac: setup_ns as f64 / sum("trial") as f64,
                loop_ms_per_trial: per_trial(ms(loop_ns)),
                loop_events_per_s: prof.total_events() as f64 / (loop_ns as f64 / 1e9),
                kinds: [kind(0), kind(1), kind(2)],
                queue_depth_p50: prof.queue_depth().p50(),
                queue_depth_p99: prof.queue_depth().p99(),
                batches_per_trial: per_trial(pass.batches as f64),
                migrated_blocks_per_trial: per_trial(pass.migrated as f64),
                rebuilds_per_trial: s.rebuilds.mean(),
                redirections_per_trial: s.redirections.mean(),
                fanout_p99: s.fanout.p99(),
                no_targets: s.no_targets.max().max(0.0),
                obs_overhead_frac: obs_overhead,
                status_snapshots: snapshots as f64,
            },
        );
        crate::osd::zero_metrics(&mut r);
        crate::common_trace_metrics(
            &mut r,
            first_build_s * 1e3,
            &trial_ms,
            wall_ns as f64 / 1e9 / w1 - 1.0,
            self_sum,
            trace.len(),
        );
        r
    }

    /// Replay trials `0..m` of master seed `seed` through the per-trial
    /// API with spans around every call.
    fn traced_pass(
        &self,
        trace: &mut Trace,
        prepared: &Arc<PreparedConfig>,
        seed: u64,
        m: u64,
    ) -> TracedPass {
        let root = trace.begin("campaign", None, None);
        let mut sim: Option<Simulation> = None;
        let mut profile = EventProfile::new(Event::KIND_LABELS);
        let mut summary = McSummary::new();
        let mut chunk = McSummary::new();
        let (mut batches, mut migrated) = (0u64, 0u64);
        for t in 0..m {
            let trial = trace.begin("trial", Some(root), Some(t));
            let trial_seed = derive_seed(seed, t);
            match sim.as_mut() {
                None => {
                    let (_, built) = trace.span("setup.build", Some(trial), Some(t), || {
                        Simulation::from_shared(Arc::clone(prepared), trial_seed)
                    });
                    sim = Some(built);
                }
                Some(s) => {
                    let mut phases = EventProfile::new(Simulation::SETUP_PHASE_LABELS);
                    let (id, ()) = trace.span("setup.recycle", Some(trial), Some(t), || {
                        s.recycle_profiled(prepared, trial_seed, &mut phases)
                    });
                    let parts: Vec<(&'static str, u64)> = Simulation::SETUP_PHASE_LABELS
                        .iter()
                        .enumerate()
                        .map(|(k, &label)| (label, phases.nanos(k)))
                        .collect();
                    trace.profiled_children(id, &parts);
                }
            }
            let s = sim.as_mut().expect("built above");
            s.enable_profiling();
            let mode = self.mode;
            let (loop_id, metrics) = trace.span("loop", Some(trial), Some(t), || match mode {
                TrialMode::Full => s.run(),
                TrialMode::UntilLoss => s.run_until_loss(),
            });
            let p = s.take_profile().expect("profiling was enabled");
            let parts: Vec<(&'static str, u64)> = Event::KIND_LABELS
                .iter()
                .enumerate()
                .map(|(k, &label)| (label, p.nanos(k)))
                .collect();
            trace.profiled_children(loop_id, &parts);
            trace.span("metrics", Some(trial), Some(t), || {
                profile.merge(&p);
                batches += metrics.batches_added;
                migrated += metrics.migrated_blocks;
                // The runner's canonical fold: chunks of CHUNK_TRIALS
                // trials pushed in order, merged in chunk order.
                chunk.push(&metrics);
                if (t + 1) % CHUNK_TRIALS == 0 || t + 1 == m {
                    summary.merge(&chunk);
                    chunk = McSummary::new();
                }
            });
            trace.end(trial);
        }
        drop(sim);
        trace.end(root);
        TracedPass {
            summary,
            profile,
            batches,
            migrated,
        }
    }
}

struct TracedPass {
    summary: McSummary,
    profile: EventProfile,
    batches: u64,
    migrated: u64,
}

/// The Monte-Carlo layers' metrics of one traced run.
#[derive(Default)]
struct McLayers {
    trials: f64,
    chunks: f64,
    parallel_speedup: f64,
    reset_ms: f64,
    disks_ms: f64,
    placement_ms: f64,
    setup_frac: f64,
    loop_ms_per_trial: f64,
    loop_events_per_s: f64,
    /// (count, mean ns) per event kind, in `Event::KIND_LABELS` order.
    kinds: [(f64, f64); 3],
    queue_depth_p50: f64,
    queue_depth_p99: f64,
    batches_per_trial: f64,
    migrated_blocks_per_trial: f64,
    rebuilds_per_trial: f64,
    redirections_per_trial: f64,
    fanout_p99: f64,
    no_targets: f64,
    obs_overhead_frac: f64,
    status_snapshots: f64,
}

/// Per-event-kind metric names, in `Event::KIND_LABELS` order.
const LOOP_KIND_METRICS: [(&str, &str); 3] = [
    ("loop.failure.count", "loop.failure.ns_per_event"),
    ("loop.detect.count", "loop.detect.ns_per_event"),
    ("loop.rebuild_done.count", "loop.rebuild_done.ns_per_event"),
];

const _: () = assert!(Event::KIND_LABELS.len() == LOOP_KIND_METRICS.len());

fn layer_metrics(r: &mut Report, l: &McLayers) {
    r.metric("montecarlo.trials", l.trials, "count");
    r.metric("montecarlo.chunks", l.chunks, "count");
    r.metric("montecarlo.parallel_speedup", l.parallel_speedup, "x");
    r.metric("setup.reset_ms", l.reset_ms, "ms");
    r.metric("setup.disks_ms", l.disks_ms, "ms");
    r.metric("setup.placement_ms", l.placement_ms, "ms");
    r.metric("setup.frac", l.setup_frac, "ratio");
    r.metric("loop.ms_per_trial", l.loop_ms_per_trial, "ms");
    r.metric("loop.events_per_s", l.loop_events_per_s, "1/s");
    for ((count_name, ns_name), (count, ns)) in LOOP_KIND_METRICS.into_iter().zip(l.kinds) {
        r.metric(count_name, count, "count");
        r.metric(ns_name, ns, "ns");
    }
    r.metric("des.queue_depth_p50", l.queue_depth_p50, "count");
    r.metric("des.queue_depth_p99", l.queue_depth_p99, "count");
    r.metric(
        "replacement.batches_per_trial",
        l.batches_per_trial,
        "count",
    );
    r.metric(
        "replacement.migrated_blocks_per_trial",
        l.migrated_blocks_per_trial,
        "count",
    );
    r.metric("recovery.rebuilds_per_trial", l.rebuilds_per_trial, "count");
    r.metric(
        "recovery.redirections_per_trial",
        l.redirections_per_trial,
        "count",
    );
    r.metric("recovery.fanout_p99", l.fanout_p99, "count");
    r.metric("recovery.no_targets", l.no_targets, "count");
    r.metric("obs.overhead_frac", l.obs_overhead_frac, "ratio");
    r.metric("obs.status_snapshots", l.status_snapshots, "count");
}

/// Zero every Monte-Carlo layer metric (`osd_rebuild` does not run the
/// simulator).
pub fn zero_metrics(r: &mut Report) {
    layer_metrics(r, &McLayers::default());
}

/// Run `f`, returning its result and its wall time in seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// First unsigned integer after `"key":` in a JSON document.
fn json_u64(body: &str, key: &str) -> Option<u64> {
    let at = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = body[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}
