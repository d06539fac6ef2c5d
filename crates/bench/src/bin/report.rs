//! Benchmark trajectory report: trial throughput at tracked configs.
//!
//! ```text
//! cargo run --release -p farm-bench --bin report -- --label after
//! ```
//!
//! Runs the small and medium `bench_sim` configurations, times full
//! six-year Monte-Carlo trials single-threaded (events/sec — the
//! optimization-tracking metric, independent of core count) and at the
//! default thread count (trials/sec), splits each trial's wall time
//! into setup (workspace obtain: recycle or construct + placement) and
//! event loop, samples peak RSS (an explicit `null` on platforms where
//! it is unavailable), reports the vulnerability-window percentiles of
//! the timed batch, measures the observability overhead (event-loop
//! profiling on vs off), probes the cluster-state telemetry overhead
//! (timeline + flight recorder on vs off, interleaved to cancel machine
//! drift), probes the live campaign monitor the same way (status
//! snapshots + /metrics exporter on vs off), probes the convergence
//! stream the same way (`FARM_CONVERGENCE`-style JSONL checkpoints on
//! vs off), probes recovery-span tracing the same way (`FARM_SPANS`
//! per-repair span rows + bandwidth attribution on vs off), isolates
//! the incremental `LiveGauges` maintenance cost
//! (timeline attached with an interval past the horizon so no sample
//! is ever taken — the `bench_gauges` pair), splits per-trial setup
//! time into its phases (state reset, disk installation, placement)
//! via `Simulation::recycle_profiled`, probes the batched placement
//! engine the same way (`FARM_PLACE_ENGINE`-style multi-lane RUSH
//! prehash + memoized walk prefixes off vs on, whole trials in
//! interleaved chunks — the `placement_*` pair), sweeps the GF(2^8)
//! region kernels (scalar/AVX2 `mul_slice_xor` MB/s at 4 KiB /
//! 64 KiB / 1 MiB plus RS 8/10 encode/reconstruct MB/s — the
//! `gf_kernel` section), sweeps the placement kernels the same way
//! (raw `draw_hashes` rates plus `place_all_groups` throughput per
//! kernel — the `place_kernel` section), and merges the labelled
//! result set — stamped with host metadata and an optional `--notes`
//! annotation — into a JSON file (default `BENCH_PR10.json`).
//! Re-running with an existing label replaces that label's entry, so a
//! "before" run survives an "after" run of the same file.
//!
//! `--smoke` shrinks the trial counts ~20× for a CI smoke run (numbers
//! are noisy; the point is that the pipeline works end to end).

use farm_bench::json::Json;
use farm_bench::rss::peak_rss_bytes;
use farm_core::prelude::*;
use farm_des::rng::derive_seed;
use farm_obs::{
    ConvergenceSpec, EventProfile, ObsOptions, SpanFormat, SpansSpec, StatusSpec, TimelineSpec,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

struct ConfigSpec {
    name: &'static str,
    cfg: SystemConfig,
    trials: u64,
}

fn tracked_configs(smoke: bool) -> Vec<ConfigSpec> {
    let base = |total: u64, group: u64| SystemConfig {
        total_user_bytes: total,
        group_user_bytes: group,
        ..SystemConfig::default()
    };
    let scale = if smoke { 20 } else { 1 };
    vec![
        ConfigSpec {
            name: "small_64TiB_10GiB",
            cfg: base(64 * TIB, 10 * GIB),
            trials: 1500 / scale,
        },
        ConfigSpec {
            name: "medium_256TiB_10GiB",
            cfg: base(256 * TIB, 10 * GIB),
            trials: 400 / scale,
        },
    ]
}

struct RunResult {
    name: &'static str,
    trials: u64,
    events: u64,
    wall_secs: f64,
    events_per_sec: f64,
    /// Fraction of the timed batch spent in per-trial setup (workspace
    /// obtain: recycle-or-construct, initial placement) vs event loop.
    setup_frac: f64,
    /// Trial setups per second of setup time (how fast `obtain` is).
    trial_setups_per_sec: f64,
    /// Events per second over event-loop time only (excludes setup).
    loop_events_per_sec: f64,
    /// Setup throughput with a recycled workspace vs fresh
    /// construction, measured in alternating chunks of the same
    /// invocation so machine drift hits both sides equally.
    recycled_setups_per_sec: f64,
    fresh_setups_per_sec: f64,
    parallel_trials_per_sec: f64,
    /// `None` when the platform has no peak-RSS source (recorded as
    /// JSON `null`, never a fake 0).
    peak_rss_bytes: Option<u64>,
    /// Vulnerability-window percentiles of the timed batch, seconds.
    vuln_p50: f64,
    vuln_p99: f64,
    vuln_max: f64,
    /// events/sec with event-loop profiling enabled (overhead probe).
    profiled_events_per_sec: f64,
    /// events/sec with telemetry fully off / fully on (timeline +
    /// flight recorder + post-mortems), interleaved in alternating
    /// chunks so CPU-frequency drift hits both sides equally.
    telemetry_off_events_per_sec: f64,
    telemetry_on_events_per_sec: f64,
    /// events/sec with the live campaign monitor fully off / fully on
    /// (status snapshots + /metrics exporter), interleaved chunks.
    monitor_off_events_per_sec: f64,
    monitor_on_events_per_sec: f64,
    /// events/sec with the convergence stream off / on (decimated
    /// JSONL checkpoints + reorder frontier), interleaved chunks.
    convergence_off_events_per_sec: f64,
    convergence_on_events_per_sec: f64,
    /// events/sec with the incremental timeline gauge aggregates
    /// (`LiveGauges`) off / on. The "on" side attaches a timeline whose
    /// interval lies past the horizon, so no sample is ever taken and
    /// the pair isolates the per-event maintenance cost alone.
    gauges_off_events_per_sec: f64,
    gauges_on_events_per_sec: f64,
    /// events/sec with recovery-span tracing off / on (`FARM_SPANS`
    /// JSONL export: per-repair span rows + bandwidth attribution),
    /// interleaved chunks.
    spans_off_events_per_sec: f64,
    spans_on_events_per_sec: f64,
    /// Whole-trial throughput (setup + event loop) with the batched
    /// placement engine disabled / enabled (`FARM_PLACE_ENGINE`),
    /// interleaved chunks. The engine only accelerates setup, so the
    /// events/sec gap is the trial-level win of the multi-lane prehash
    /// plus the memoized walk prefixes.
    placement_off_events_per_sec: f64,
    placement_on_events_per_sec: f64,
    placement_off_trials_per_sec: f64,
    placement_on_trials_per_sec: f64,
    /// Fraction of recycled-setup time spent in each phase, in
    /// [`Simulation::SETUP_PHASE_LABELS`] order (reset, disks,
    /// placement).
    setup_phase_fracs: Vec<(&'static str, f64)>,
}

/// Time a single-threaded batch with explicit observability options;
/// returns (summary, events/sec). Benchmarks pin their own options so
/// stray `FARM_*` variables cannot perturb the numbers.
fn timed_events_per_sec(
    spec: &ConfigSpec,
    trials: u64,
    obs: &ObsOptions,
) -> (farm_core::McSummary, f64) {
    let start = Instant::now();
    let (summary, _) = run_trials_observed(&spec.cfg, 2, trials, TrialMode::Full, 1, obs);
    let wall = start.elapsed().as_secs_f64();
    let events = summary.events.mean() * summary.trials() as f64;
    (summary, events / wall)
}

/// Probe the full-telemetry overhead: alternate off/on chunks of the
/// same trial budget and return (off events/sec, on events/sec). The
/// telemetry artifacts land in the temp dir and are removed afterwards.
fn telemetry_pair(spec: &ConfigSpec, trials: u64) -> (f64, f64) {
    let tmp = std::env::temp_dir();
    let tl = tmp.join(format!(
        "farm-bench-tl-{}-{}.csv",
        spec.name,
        std::process::id()
    ));
    let pm = tmp.join(format!(
        "farm-bench-pm-{}-{}.jsonl",
        spec.name,
        std::process::id()
    ));
    let obs_off = ObsOptions::off();
    let obs_on = ObsOptions {
        timeline: Some(TimelineSpec {
            path: tl.to_str().unwrap().to_string(),
            interval_secs: None,
        }),
        postmortem: Some(pm.to_str().unwrap().to_string()),
        ..ObsOptions::off()
    };

    const CHUNKS: u64 = 4;
    let per_chunk = (trials / CHUNKS).max(1);
    let (mut off_events, mut off_wall) = (0.0, 0.0);
    let (mut on_events, mut on_wall) = (0.0, 0.0);
    for _ in 0..CHUNKS {
        for (obs, events, wall) in [
            (&obs_off, &mut off_events, &mut off_wall),
            (&obs_on, &mut on_events, &mut on_wall),
        ] {
            let start = Instant::now();
            let (summary, _) =
                run_trials_observed(&spec.cfg, 2, per_chunk, TrialMode::Full, 1, obs);
            *wall += start.elapsed().as_secs_f64();
            *events += summary.events.mean() * summary.trials() as f64;
        }
    }
    std::fs::remove_file(&tl).ok();
    std::fs::remove_file(&pm).ok();
    (off_events / off_wall, on_events / on_wall)
}

/// Probe the live campaign monitor overhead: alternate off/on chunks
/// (status snapshots + /metrics exporter vs nothing) and return
/// (off events/sec, on events/sec). The monitor is process-global, so
/// once the first "on" chunk installs it the background status thread
/// runs for the rest of the process — that cost hits both sides of the
/// later chunks equally; the per-trial shard recording only hits "on".
fn monitor_pair(spec: &ConfigSpec, trials: u64) -> (f64, f64) {
    let status_path = std::env::temp_dir().join(format!(
        "farm-bench-status-{}-{}.json",
        spec.name,
        std::process::id()
    ));
    let obs_off = ObsOptions::off();
    let obs_on = ObsOptions {
        status: Some(StatusSpec {
            path: status_path.to_str().unwrap().to_string(),
            interval_secs: Some(0.5),
        }),
        http: Some("127.0.0.1:0".to_string()),
        ..ObsOptions::off()
    };

    const CHUNKS: u64 = 4;
    let per_chunk = (trials / CHUNKS).max(1);
    let (mut off_events, mut off_wall) = (0.0, 0.0);
    let (mut on_events, mut on_wall) = (0.0, 0.0);
    for _ in 0..CHUNKS {
        for (obs, events, wall) in [
            (&obs_off, &mut off_events, &mut off_wall),
            (&obs_on, &mut on_events, &mut on_wall),
        ] {
            let start = Instant::now();
            let (summary, _) =
                run_trials_observed(&spec.cfg, 2, per_chunk, TrialMode::Full, 1, obs);
            *wall += start.elapsed().as_secs_f64();
            *events += summary.events.mean() * summary.trials() as f64;
        }
    }
    std::fs::remove_file(&status_path).ok();
    (off_events / off_wall, on_events / on_wall)
}

/// Generic interleaved overhead probe: alternate chunks of the same
/// trial budget under `ObsOptions::off()` and `obs_on`, single-threaded,
/// and return (off events/sec, on events/sec). Interleaving cancels
/// CPU-frequency and load drift, the same design as the telemetry and
/// monitor pairs above.
fn interleaved_pair(spec: &ConfigSpec, trials: u64, obs_on: &ObsOptions) -> (f64, f64) {
    let obs_off = ObsOptions::off();
    const CHUNKS: u64 = 4;
    let per_chunk = (trials / CHUNKS).max(1);
    let (mut off_events, mut off_wall) = (0.0, 0.0);
    let (mut on_events, mut on_wall) = (0.0, 0.0);
    for _ in 0..CHUNKS {
        for (obs, events, wall) in [
            (&obs_off, &mut off_events, &mut off_wall),
            (obs_on, &mut on_events, &mut on_wall),
        ] {
            let start = Instant::now();
            let (summary, _) =
                run_trials_observed(&spec.cfg, 2, per_chunk, TrialMode::Full, 1, obs);
            *wall += start.elapsed().as_secs_f64();
            *events += summary.events.mean() * summary.trials() as f64;
        }
    }
    (off_events / off_wall, on_events / on_wall)
}

/// Probe the convergence-stream overhead: decimated JSONL checkpoints
/// plus the reorder frontier, against an interleaved off control.
fn convergence_pair(spec: &ConfigSpec, trials: u64) -> (f64, f64) {
    let path = std::env::temp_dir().join(format!(
        "farm-bench-conv-{}-{}.jsonl",
        spec.name,
        std::process::id()
    ));
    let obs_on = ObsOptions {
        convergence: Some(ConvergenceSpec {
            path: path.to_str().unwrap().to_string(),
            base_trials: None,
        }),
        ..ObsOptions::off()
    };
    let pair = interleaved_pair(spec, trials, &obs_on);
    std::fs::remove_file(&path).ok();
    pair
}

/// Isolate the incremental `LiveGauges` maintenance cost: attach a
/// timeline whose sample interval lies past the simulation horizon, so
/// the recorder never takes a sample and the only "on" cost left is
/// the per-event gauge bookkeeping in the handlers.
fn gauges_pair(spec: &ConfigSpec, trials: u64) -> (f64, f64) {
    let path = std::env::temp_dir().join(format!(
        "farm-bench-gauges-{}-{}.csv",
        spec.name,
        std::process::id()
    ));
    let obs_on = ObsOptions {
        timeline: Some(TimelineSpec {
            path: path.to_str().unwrap().to_string(),
            // Far beyond any simulated horizon: zero samples are taken,
            // but the live gauge aggregates are still maintained.
            interval_secs: Some(1e18),
        }),
        ..ObsOptions::off()
    };
    let pair = interleaved_pair(spec, trials, &obs_on);
    std::fs::remove_file(&path).ok();
    pair
}

/// Probe the recovery-span tracing overhead: per-repair span recording
/// plus the JSONL artifact export, against an interleaved off control.
fn spans_pair(spec: &ConfigSpec, trials: u64) -> (f64, f64) {
    let path = std::env::temp_dir().join(format!(
        "farm-bench-spans-{}-{}.jsonl",
        spec.name,
        std::process::id()
    ));
    let obs_on = ObsOptions {
        spans: Some(SpansSpec {
            path: path.to_str().unwrap().to_string(),
            format: SpanFormat::Jsonl,
        }),
        ..ObsOptions::off()
    };
    let pair = interleaved_pair(spec, trials, &obs_on);
    std::fs::remove_file(&path).ok();
    pair
}

/// Batched-placement-engine probe: whole trials (recycled setup +
/// event loop) with the engine off vs on, in alternating chunks with
/// one workspace per side so recycling state is comparable. Returns
/// (off events/sec, on events/sec, off trials/sec, on trials/sec).
/// Trial *results* are bit-identical either way (pinned by
/// `tests/placement_kernel_identity.rs`); only the wall time moves.
fn placement_pair(spec: &ConfigSpec, trials: u64) -> (f64, f64, f64, f64) {
    use farm_placement::kernel;
    let prepared = Arc::new(PreparedConfig::new(spec.cfg.clone()));
    const CHUNKS: u64 = 4;
    let per_chunk = (trials / CHUNKS).max(1);
    let startup = kernel::engine_enabled();
    let mut ws_off = TrialWorkspace::new();
    let mut ws_on = TrialWorkspace::new();
    let (mut off_events, mut off_wall, mut off_n) = (0.0f64, 0.0f64, 0u64);
    let (mut on_events, mut on_wall, mut on_n) = (0.0f64, 0.0f64, 0u64);
    for chunk in 0..CHUNKS {
        for (engine, ws, events, wall, n) in [
            (
                false,
                &mut ws_off,
                &mut off_events,
                &mut off_wall,
                &mut off_n,
            ),
            (true, &mut ws_on, &mut on_events, &mut on_wall, &mut on_n),
        ] {
            kernel::set_engine_enabled(engine);
            for t in 0..per_chunk {
                let seed = derive_seed(6, chunk * per_chunk + t);
                let start = Instant::now();
                let m = ws.obtain(&prepared, seed).run();
                *wall += start.elapsed().as_secs_f64();
                *events += m.events_processed as f64;
                *n += 1;
            }
        }
    }
    kernel::set_engine_enabled(startup);
    (
        off_events / off_wall,
        on_events / on_wall,
        off_n as f64 / off_wall,
        on_n as f64 / on_wall,
    )
}

/// Workspace-recycling probe: alternate chunks of trials whose setup
/// comes from a recycled workspace vs fresh `Simulation::from_shared`
/// construction, timing only the setup portion. The full event loop
/// still runs after each setup so allocator state stays representative,
/// and interleaving cancels CPU-frequency and load drift.
fn reuse_pair(spec: &ConfigSpec, trials: u64) -> (f64, f64) {
    let prepared = Arc::new(PreparedConfig::new(spec.cfg.clone()));
    const CHUNKS: u64 = 4;
    let per_chunk = (trials / CHUNKS).max(1);
    let (mut rec_secs, mut fresh_secs) = (0.0f64, 0.0f64);
    for _ in 0..CHUNKS {
        let mut ws = TrialWorkspace::new();
        let _ = ws.obtain(&prepared, derive_seed(3, 0)).run();
        for t in 0..per_chunk {
            let s0 = Instant::now();
            let sim = ws.obtain(&prepared, derive_seed(3, t + 1));
            rec_secs += s0.elapsed().as_secs_f64();
            let _ = sim.run();
        }
        // The previous trial's simulation drops inside the timed
        // region, as a reallocating workspace's would.
        let mut fresh: Option<Simulation> = None;
        for t in 0..per_chunk {
            let s0 = Instant::now();
            let sim = fresh.insert(Simulation::from_shared(
                Arc::clone(&prepared),
                derive_seed(3, t + 1),
            ));
            fresh_secs += s0.elapsed().as_secs_f64();
            let _ = sim.run();
        }
    }
    let n = (CHUNKS * per_chunk) as f64;
    (n / rec_secs, n / fresh_secs)
}

fn measure(spec: &ConfigSpec) -> RunResult {
    let obs_off = ObsOptions::off();
    let obs_profiled = ObsOptions {
        profile: true,
        ..ObsOptions::off()
    };

    // Warm-up: fault in code paths and the allocator before timing.
    run_trials_observed(&spec.cfg, 1, 1, TrialMode::Full, 1, &obs_off);

    // Single-threaded timed run: the per-core throughput number that
    // optimizations must move. Driven through the same per-worker
    // workspace the Monte-Carlo runner uses, with per-trial setup and the event loop timed
    // separately — `Simulation::new` used to dominate the trial, so the
    // split is tracked explicitly.
    let prepared = Arc::new(PreparedConfig::new(spec.cfg.clone()));
    let mut ws = TrialWorkspace::new();
    let mut summary = McSummary::new();
    let (mut setup_secs, mut loop_secs) = (0.0f64, 0.0f64);
    for t in 0..spec.trials {
        let seed = derive_seed(2, t);
        let s0 = Instant::now();
        let sim = ws.obtain(&prepared, seed);
        setup_secs += s0.elapsed().as_secs_f64();
        let s1 = Instant::now();
        let m = sim.run();
        loop_secs += s1.elapsed().as_secs_f64();
        summary.push(&m);
    }
    let wall = setup_secs + loop_secs;
    let events = (summary.events.mean() * summary.trials() as f64).round() as u64;

    // Overhead probe: the same batch with the event-loop profiler on.
    // The contract is "zero when off, cheap when on"; tracking the
    // profiled number catches regressions in the instrumented path too.
    let probe_trials = (spec.trials / 4).max(1);
    let (_, profiled_eps) = timed_events_per_sec(spec, probe_trials, &obs_profiled);

    // Telemetry probe: the timeline sampler + flight recorder, measured
    // against an interleaved telemetry-off control of the same size.
    let (telemetry_off_eps, telemetry_on_eps) = telemetry_pair(spec, probe_trials);

    // Campaign-monitor probe: status snapshots + /metrics exporter,
    // same interleaved design.
    let (monitor_off_eps, monitor_on_eps) = monitor_pair(spec, probe_trials);

    // Convergence-stream probe: decimated JSONL checkpoints + reorder
    // frontier vs off, interleaved.
    let (convergence_off_eps, convergence_on_eps) = convergence_pair(spec, probe_trials);

    // LiveGauges probe: incremental gauge maintenance with sampling
    // suppressed vs off, interleaved.
    let (gauges_off_eps, gauges_on_eps) = gauges_pair(spec, probe_trials);

    // Recovery-span probe: per-repair span recording + JSONL export vs
    // off, interleaved.
    let (spans_off_eps, spans_on_eps) = spans_pair(spec, probe_trials);

    // Placement-engine probe: whole trials with the batched engine off
    // vs on, interleaved.
    let (placement_off_eps, placement_on_eps, placement_off_tps, placement_on_tps) =
        placement_pair(spec, probe_trials);

    // Workspace-reuse probe: recycled vs fresh setup, interleaved.
    let (recycled_sps, fresh_sps) = reuse_pair(spec, probe_trials);

    // Setup-phase breakdown: recycle the same simulation repeatedly
    // with each phase timed, the full event loop running in between so
    // the layout is dirty the way real trials leave it.
    let setup_phase_fracs = setup_phase_breakdown(&prepared, probe_trials);

    // Parallel throughput at the default thread count.
    let threads = default_threads();
    let pstart = Instant::now();
    run_trials_observed(
        &spec.cfg,
        2,
        spec.trials,
        TrialMode::Full,
        threads,
        &obs_off,
    );
    let pwall = pstart.elapsed().as_secs_f64();

    RunResult {
        name: spec.name,
        trials: spec.trials,
        events,
        wall_secs: wall,
        events_per_sec: events as f64 / wall,
        setup_frac: setup_secs / wall,
        trial_setups_per_sec: spec.trials as f64 / setup_secs,
        loop_events_per_sec: events as f64 / loop_secs,
        recycled_setups_per_sec: recycled_sps,
        fresh_setups_per_sec: fresh_sps,
        parallel_trials_per_sec: spec.trials as f64 / pwall,
        peak_rss_bytes: peak_rss_bytes(),
        vuln_p50: summary.vulnerability.p50(),
        vuln_p99: summary.vulnerability.p99(),
        vuln_max: summary.vulnerability.max(),
        profiled_events_per_sec: profiled_eps,
        telemetry_off_events_per_sec: telemetry_off_eps,
        telemetry_on_events_per_sec: telemetry_on_eps,
        monitor_off_events_per_sec: monitor_off_eps,
        monitor_on_events_per_sec: monitor_on_eps,
        convergence_off_events_per_sec: convergence_off_eps,
        convergence_on_events_per_sec: convergence_on_eps,
        gauges_off_events_per_sec: gauges_off_eps,
        gauges_on_events_per_sec: gauges_on_eps,
        spans_off_events_per_sec: spans_off_eps,
        spans_on_events_per_sec: spans_on_eps,
        placement_off_events_per_sec: placement_off_eps,
        placement_on_events_per_sec: placement_on_eps,
        placement_off_trials_per_sec: placement_off_tps,
        placement_on_trials_per_sec: placement_on_tps,
        setup_phase_fracs,
    }
}

/// Where does recycled setup time go? Runs `trials` recycles of one
/// simulation with `Simulation::recycle_profiled`, the event loop
/// executing between recycles, and returns each phase's fraction of
/// total setup time.
fn setup_phase_breakdown(prepared: &Arc<PreparedConfig>, trials: u64) -> Vec<(&'static str, f64)> {
    let mut sim = Simulation::from_shared(Arc::clone(prepared), derive_seed(4, 0));
    let _ = sim.run();
    let mut prof = EventProfile::new(Simulation::SETUP_PHASE_LABELS);
    for t in 0..trials {
        sim.recycle_profiled(prepared, derive_seed(4, t + 1), &mut prof);
        let _ = sim.run();
    }
    let total = prof.total_nanos().max(1) as f64;
    Simulation::SETUP_PHASE_LABELS
        .iter()
        .enumerate()
        .map(|(i, &label)| (label, prof.nanos(i) as f64 / total))
        .collect()
}

/// GF(2^8) kernel sweep: `mul_slice_xor` MB/s per available kernel at
/// three region sizes, plus RS 8/10 encode/reconstruct MB/s at 64 KiB,
/// and the headline SIMD-vs-scalar speedup on 64 KiB regions.
fn gf_kernel_section() -> Json {
    use farm_erasure::gf256::kernel::{self, Kernel};

    fn mbps(bytes_per_iter: usize, mut f: impl FnMut()) -> f64 {
        f(); // warm-up
        let start = Instant::now();
        let mut iters = 0u64;
        while start.elapsed().as_secs_f64() < 0.25 {
            f();
            iters += 1;
        }
        iters as f64 * bytes_per_iter as f64 / start.elapsed().as_secs_f64() / 1e6
    }

    let startup = kernel::active();
    let sizes: [(usize, &str); 3] = [
        (4 << 10, "mul_xor_4KiB_mbps"),
        (64 << 10, "mul_xor_64KiB_mbps"),
        (1 << 20, "mul_xor_1MiB_mbps"),
    ];
    let scheme = Scheme::new(8, 10);
    let m = scheme.m as usize;
    let k_tol = scheme.fault_tolerance() as usize;
    let codec = scheme.codec();
    let region = 64usize << 10;
    let data: Vec<Vec<u8>> = (0..m)
        .map(|i| {
            (0..region)
                .map(|j| ((i * 31 + j * 7) & 0xff) as u8)
                .collect()
        })
        .collect();
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    let full: Vec<Vec<u8>> = data.iter().cloned().chain(codec.encode(&refs)).collect();

    let mut kernels = Vec::new();
    let (mut scalar_64k, mut best_64k) = (0.0f64, 0.0f64);
    for k in Kernel::ALL {
        let mut entry = BTreeMap::from([
            ("kernel".into(), Json::str(k.name())),
            ("supported".into(), Json::Bool(k.supported())),
        ]);
        if k.supported() {
            for (size, field) in sizes {
                let src = vec![0xABu8; size];
                let mut dst = vec![0x11u8; size];
                let rate = mbps(size, || kernel::mul_slice_xor(k, 0x57, &src, &mut dst));
                if size == 64 << 10 {
                    if k == Kernel::Scalar {
                        scalar_64k = rate;
                    }
                    best_64k = best_64k.max(rate);
                }
                entry.insert(field.into(), Json::num(rate.round()));
            }
            kernel::set_active(k);
            let enc = mbps(m * region, || {
                std::hint::black_box(codec.encode(std::hint::black_box(&refs)));
            });
            let rec = mbps(m * region, || {
                let mut working: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
                for slot in working.iter_mut().take(k_tol) {
                    *slot = None;
                }
                assert!(codec.reconstruct(&mut working));
                std::hint::black_box(working);
            });
            entry.insert("encode_64KiB_mbps".into(), Json::num(enc.round()));
            entry.insert("reconstruct_64KiB_mbps".into(), Json::num(rec.round()));
        }
        kernels.push(Json::Obj(entry));
    }
    kernel::set_active(startup);

    Json::Obj(BTreeMap::from([
        ("active".into(), Json::str(startup.name())),
        (
            "simd_speedup_64KiB".into(),
            Json::num((best_64k / scalar_64k.max(1e-9) * 1e2).round() / 1e2),
        ),
        ("kernels".into(), Json::Arr(kernels)),
    ]))
}

/// Placement-kernel sweep: raw batched `draw_hashes` rates per
/// available kernel, plus the real `place_all_groups` throughput
/// (initial placement of the small tracked config, timed through
/// `Simulation::recycle_profiled`'s placement phase) under each kernel
/// and with the engine off — the sequential-walk baseline the speedup
/// is quoted against.
fn place_kernel_section(smoke: bool) -> Json {
    use farm_placement::kernel::{self, Kernel};

    let cfg = SystemConfig {
        total_user_bytes: 64 * TIB,
        group_user_bytes: 10 * GIB,
        ..SystemConfig::default()
    };
    let prepared = Arc::new(PreparedConfig::new(cfg));
    let recycles = if smoke { 4u64 } else { 48 };
    let mut sim = Simulation::from_shared(Arc::clone(&prepared), derive_seed(8, 0));
    let n_groups = sim.layout().n_groups() as f64;

    // groups/sec through place_all_groups alone (placement-phase nanos
    // of profiled recycles; reset and disk installation excluded).
    let mut place_rate = |engine: bool| -> f64 {
        let prev = kernel::set_engine_enabled(engine);
        let mut prof = EventProfile::new(Simulation::SETUP_PHASE_LABELS);
        for t in 0..recycles {
            sim.recycle_profiled(&prepared, derive_seed(8, t + 1), &mut prof);
        }
        kernel::set_engine_enabled(prev);
        let placement_secs = (prof.nanos(2).max(1)) as f64 / 1e9;
        recycles as f64 * n_groups / placement_secs
    };

    let startup = kernel::active();
    let seq_rate = place_rate(false);
    let mut kernels = Vec::new();
    let mut active_rate = seq_rate;
    for k in Kernel::ALL {
        let mut entry = BTreeMap::from([
            ("kernel".into(), Json::str(k.name())),
            ("supported".into(), Json::Bool(k.supported())),
        ]);
        if k.supported() {
            kernel::set_active(k);
            // Raw multi-lane hash rate, independent of the simulator.
            let gkeys: [u64; kernel::LANES] =
                std::array::from_fn(|l| 0x9E37_79B9u64.wrapping_mul(l as u64 + 1));
            let n_idx = 16usize;
            let mut out = vec![0u64; n_idx * kernel::LANES];
            k.run(&gkeys, n_idx, &mut out);
            let start = Instant::now();
            let mut iters = 0u64;
            while start.elapsed().as_secs_f64() < 0.1 {
                for _ in 0..256 {
                    k.run(&gkeys, n_idx, &mut out);
                }
                iters += 256;
            }
            std::hint::black_box(&out);
            let mhashes =
                iters as f64 * (n_idx * kernel::LANES) as f64 / start.elapsed().as_secs_f64() / 1e6;
            let groups = place_rate(true);
            if k == startup {
                active_rate = groups;
            }
            entry.insert("draw_mhashes_per_sec".into(), Json::num(mhashes.round()));
            entry.insert(
                "place_all_groups_kgroups_per_sec".into(),
                Json::num((groups / 1e3 * 1e1).round() / 1e1),
            );
        }
        kernels.push(Json::Obj(entry));
    }
    kernel::set_active(startup);

    Json::Obj(BTreeMap::from([
        ("active".into(), Json::str(startup.name())),
        (
            "engine_enabled".into(),
            Json::Bool(kernel::engine_enabled()),
        ),
        (
            "place_all_groups_seq_kgroups_per_sec".into(),
            Json::num((seq_rate / 1e3 * 1e1).round() / 1e1),
        ),
        (
            "engine_speedup".into(),
            Json::num((active_rate / seq_rate.max(1e-9) * 1e2).round() / 1e2),
        ),
        ("kernels".into(), Json::Arr(kernels)),
    ]))
}

fn result_to_json(r: &RunResult) -> Json {
    Json::Obj(BTreeMap::from([
        ("config".into(), Json::str(r.name)),
        ("trials".into(), Json::num(r.trials as f64)),
        ("events".into(), Json::num(r.events as f64)),
        (
            "wall_secs".into(),
            Json::num((r.wall_secs * 1e3).round() / 1e3),
        ),
        ("events_per_sec".into(), Json::num(r.events_per_sec.round())),
        (
            "setup_frac".into(),
            Json::num((r.setup_frac * 1e4).round() / 1e4),
        ),
        (
            "trial_setups_per_sec".into(),
            Json::num((r.trial_setups_per_sec * 1e1).round() / 1e1),
        ),
        (
            "loop_events_per_sec".into(),
            Json::num(r.loop_events_per_sec.round()),
        ),
        (
            "recycled_setups_per_sec".into(),
            Json::num((r.recycled_setups_per_sec * 1e1).round() / 1e1),
        ),
        (
            "fresh_setups_per_sec".into(),
            Json::num((r.fresh_setups_per_sec * 1e1).round() / 1e1),
        ),
        (
            "parallel_trials_per_sec".into(),
            Json::num((r.parallel_trials_per_sec * 1e3).round() / 1e3),
        ),
        (
            "peak_rss_bytes".into(),
            match r.peak_rss_bytes {
                Some(b) => Json::num(b as f64),
                None => Json::Null,
            },
        ),
        ("vuln_p50_secs".into(), Json::num(r.vuln_p50.round())),
        ("vuln_p99_secs".into(), Json::num(r.vuln_p99.round())),
        ("vuln_max_secs".into(), Json::num(r.vuln_max.round())),
        (
            "profiled_events_per_sec".into(),
            Json::num(r.profiled_events_per_sec.round()),
        ),
        (
            "telemetry_off_events_per_sec".into(),
            Json::num(r.telemetry_off_events_per_sec.round()),
        ),
        (
            "telemetry_on_events_per_sec".into(),
            Json::num(r.telemetry_on_events_per_sec.round()),
        ),
        (
            "monitor_off_events_per_sec".into(),
            Json::num(r.monitor_off_events_per_sec.round()),
        ),
        (
            "monitor_on_events_per_sec".into(),
            Json::num(r.monitor_on_events_per_sec.round()),
        ),
        (
            "convergence_off_events_per_sec".into(),
            Json::num(r.convergence_off_events_per_sec.round()),
        ),
        (
            "convergence_on_events_per_sec".into(),
            Json::num(r.convergence_on_events_per_sec.round()),
        ),
        (
            "gauges_off_events_per_sec".into(),
            Json::num(r.gauges_off_events_per_sec.round()),
        ),
        (
            "gauges_on_events_per_sec".into(),
            Json::num(r.gauges_on_events_per_sec.round()),
        ),
        (
            "spans_off_events_per_sec".into(),
            Json::num(r.spans_off_events_per_sec.round()),
        ),
        (
            "spans_on_events_per_sec".into(),
            Json::num(r.spans_on_events_per_sec.round()),
        ),
        (
            "placement_off_events_per_sec".into(),
            Json::num(r.placement_off_events_per_sec.round()),
        ),
        (
            "placement_on_events_per_sec".into(),
            Json::num(r.placement_on_events_per_sec.round()),
        ),
        (
            "placement_off_trials_per_sec".into(),
            Json::num((r.placement_off_trials_per_sec * 1e3).round() / 1e3),
        ),
        (
            "placement_on_trials_per_sec".into(),
            Json::num((r.placement_on_trials_per_sec * 1e3).round() / 1e3),
        ),
        (
            "setup_phases".into(),
            Json::Obj(
                r.setup_phase_fracs
                    .iter()
                    .map(|&(label, frac)| {
                        (label.to_string(), Json::num((frac * 1e4).round() / 1e4))
                    })
                    .collect(),
            ),
        ),
    ]))
}

/// Fleet-scaling sweep: wall-clock the fleet coordinator (the
/// `fleet` binary from `farm-experiments`, expected next to this one
/// in the target dir) over the same small campaign at 1, 2 and 4
/// worker processes. The merged result is bit-identical by
/// construction (pinned by `tests/fleet.rs`); this probe records only
/// the throughput curve. When the binary is absent the section is a
/// `points: null` stub with a note, so report generation never fails
/// on a partial build.
fn fleet_scaling_section(smoke: bool) -> Json {
    use std::process::{Command, Stdio};

    let bin = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("fleet")))
        .filter(|b| b.exists());
    let Some(bin) = bin else {
        return Json::Obj(BTreeMap::from([
            ("points".into(), Json::Null),
            (
                "note".into(),
                Json::str(
                    "fleet binary not found next to report; build with \
                     `cargo build --release -p farm-experiments --bin fleet`",
                ),
            ),
        ]));
    };
    let trials: u64 = if smoke { 16 } else { 96 };
    let mut points = Vec::new();
    for workers in [1usize, 2, 4] {
        let dir = std::env::temp_dir().join(format!(
            "farm-bench-fleet-{}-w{workers}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let t0 = Instant::now();
        let status = Command::new(&bin)
            .args(["--workers", &workers.to_string()])
            .args(["--no-dashboard", "--no-worker-http"])
            .args(["--trials", &trials.to_string()])
            .args(["--seed", "7", "--scale", "0.015625", "--threads", "1"])
            .arg("--fleet")
            .arg(&dir)
            .stdout(Stdio::null())
            .status();
        let wall = t0.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(&dir);
        if !status.map(|s| s.success()).unwrap_or(false) {
            return Json::Obj(BTreeMap::from([
                ("points".into(), Json::Null),
                (
                    "note".into(),
                    Json::str(format!("fleet run with {workers} worker(s) failed")),
                ),
            ]));
        }
        points.push(Json::Obj(BTreeMap::from([
            ("workers".into(), Json::num(workers as f64)),
            (
                "trials_per_sec".into(),
                Json::num((trials as f64 / wall.max(1e-9) * 1e2).round() / 1e2),
            ),
            ("wall_secs".into(), Json::num((wall * 1e3).round() / 1e3)),
        ])));
    }
    Json::Obj(BTreeMap::from([
        ("trials".into(), Json::num(trials as f64)),
        ("points".into(), Json::Arr(points)),
    ]))
}

/// Host/provenance metadata stamped into each labelled run so that
/// trajectory points from different machines or toolchains are
/// comparable at a glance.
fn host_metadata() -> Json {
    let logical_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    Json::Obj(BTreeMap::from([
        ("logical_cpus".into(), Json::num(logical_cpus as f64)),
        ("farm_threads".into(), Json::num(default_threads() as f64)),
        ("rustc".into(), Json::str(env!("FARM_RUSTC_VERSION"))),
    ]))
}

/// Replace-or-append this label's entry in the report document.
fn merge_into(
    doc: Json,
    label: &str,
    notes: &str,
    gf_kernel: Json,
    place_kernel: Json,
    fleet_scaling: Json,
    results: &[RunResult],
) -> Json {
    let mut runs: Vec<Json> = doc
        .get("runs")
        .and_then(|r| r.as_arr())
        .map(|r| r.to_vec())
        .unwrap_or_default();
    runs.retain(|r| r.get("label").and_then(|l| l.as_str()) != Some(label));
    runs.push(Json::Obj(BTreeMap::from([
        ("label".into(), Json::str(label)),
        ("notes".into(), Json::str(notes)),
        ("host".into(), host_metadata()),
        ("gf_kernel".into(), gf_kernel),
        ("place_kernel".into(), place_kernel),
        ("fleet_scaling".into(), fleet_scaling),
        (
            "configs".into(),
            Json::Arr(results.iter().map(result_to_json).collect()),
        ),
    ])));
    Json::Obj(BTreeMap::from([
        ("benchmark".into(), Json::str("farm trial throughput")),
        ("runs".into(), Json::Arr(runs)),
    ]))
}

fn main() {
    let mut label = String::from("run");
    let mut out = String::from("BENCH_PR10.json");
    let mut notes = String::new();
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--label" => label = args.next().expect("--label needs a value"),
            "--out" => out = args.next().expect("--out needs a value"),
            "--notes" => notes = args.next().expect("--notes needs a value"),
            "--smoke" => smoke = true,
            "--help" | "-h" => {
                println!("usage: report [--label NAME] [--out FILE.json] [--notes TEXT] [--smoke]");
                return;
            }
            other => {
                eprintln!("unknown argument {other:?} (see --help)");
                std::process::exit(2);
            }
        }
    }

    eprintln!("sweeping GF(2^8) kernels...");
    let gf_kernel = gf_kernel_section();
    if let Some(speedup) = gf_kernel.get("simd_speedup_64KiB").and_then(|s| s.as_f64()) {
        println!("gf_kernel: best SIMD mul_slice_xor is {speedup:.2}x scalar on 64 KiB regions");
    }

    eprintln!("sweeping placement kernels...");
    let place_kernel = place_kernel_section(smoke);
    if let Some(speedup) = place_kernel.get("engine_speedup").and_then(|s| s.as_f64()) {
        println!("place_kernel: batched place_all_groups is {speedup:.2}x the sequential walk");
    }

    eprintln!("sweeping fleet scaling...");
    let fleet_scaling = fleet_scaling_section(smoke);
    match fleet_scaling.get("points").and_then(|p| p.as_arr()) {
        Some(points) => println!("fleet_scaling: {} worker-count point(s)", points.len()),
        None => {
            if let Some(note) = fleet_scaling.get("note").and_then(|n| n.as_str()) {
                eprintln!("fleet_scaling: skipped: {note}");
            }
        }
    }

    let mut results = Vec::new();
    for spec in tracked_configs(smoke) {
        eprintln!("measuring {} ({} trials)...", spec.name, spec.trials);
        let r = measure(&spec);
        let rss = match r.peak_rss_bytes {
            Some(b) => format!("{} MiB", b >> 20),
            None => "unknown".to_string(),
        };
        println!(
            "{:<22} {:>9.1} events/sec  {:>6.3} trials/sec ({} threads)  peak RSS {rss}",
            r.name,
            r.events_per_sec,
            r.parallel_trials_per_sec,
            default_threads(),
        );
        println!(
            "{:<22} setup {:.1}% of wall  {:.1} setups/sec  loop {:.1} events/sec",
            "",
            100.0 * r.setup_frac,
            r.trial_setups_per_sec,
            r.loop_events_per_sec,
        );
        let phases = r
            .setup_phase_fracs
            .iter()
            .map(|(label, frac)| format!("{label} {:.1}%", 100.0 * frac))
            .collect::<Vec<_>>()
            .join("  ");
        println!("{:<22} setup phases: {phases}", "");
        println!(
            "{:<22} setup recycled {:.1} vs fresh {:.1} setups/sec ({:+.1}%)",
            "",
            r.recycled_setups_per_sec,
            r.fresh_setups_per_sec,
            100.0 * (r.recycled_setups_per_sec / r.fresh_setups_per_sec - 1.0),
        );
        println!(
            "{:<22} vuln window p50 {:.0}s p99 {:.0}s max {:.0}s  profiled {:.1} events/sec ({:+.1}%)",
            "",
            r.vuln_p50,
            r.vuln_p99,
            r.vuln_max,
            r.profiled_events_per_sec,
            100.0 * (r.profiled_events_per_sec / r.events_per_sec - 1.0),
        );
        println!(
            "{:<22} telemetry off {:.1} on {:.1} events/sec ({:+.1}%)",
            "",
            r.telemetry_off_events_per_sec,
            r.telemetry_on_events_per_sec,
            100.0 * (r.telemetry_on_events_per_sec / r.telemetry_off_events_per_sec - 1.0),
        );
        println!(
            "{:<22} monitor off {:.1} on {:.1} events/sec ({:+.1}%)",
            "",
            r.monitor_off_events_per_sec,
            r.monitor_on_events_per_sec,
            100.0 * (r.monitor_on_events_per_sec / r.monitor_off_events_per_sec - 1.0),
        );
        println!(
            "{:<22} convergence off {:.1} on {:.1} events/sec ({:+.1}%)",
            "",
            r.convergence_off_events_per_sec,
            r.convergence_on_events_per_sec,
            100.0 * (r.convergence_on_events_per_sec / r.convergence_off_events_per_sec - 1.0),
        );
        println!(
            "{:<22} gauges off {:.1} on {:.1} events/sec ({:+.1}%)",
            "",
            r.gauges_off_events_per_sec,
            r.gauges_on_events_per_sec,
            100.0 * (r.gauges_on_events_per_sec / r.gauges_off_events_per_sec - 1.0),
        );
        println!(
            "{:<22} spans off {:.1} on {:.1} events/sec ({:+.1}%)",
            "",
            r.spans_off_events_per_sec,
            r.spans_on_events_per_sec,
            100.0 * (r.spans_on_events_per_sec / r.spans_off_events_per_sec - 1.0),
        );
        println!(
            "{:<22} placement engine off {:.3} on {:.3} trials/sec ({:+.1}%)",
            "",
            r.placement_off_trials_per_sec,
            r.placement_on_trials_per_sec,
            100.0 * (r.placement_on_trials_per_sec / r.placement_off_trials_per_sec - 1.0),
        );
        results.push(r);
    }

    let existing = std::fs::read_to_string(&out)
        .ok()
        .and_then(|s| Json::parse(&s).ok())
        .unwrap_or(Json::Null);
    let doc = merge_into(
        existing,
        &label,
        &notes,
        gf_kernel,
        place_kernel,
        fleet_scaling,
        &results,
    );
    std::fs::write(&out, doc.pretty()).expect("write report");
    eprintln!("wrote label {label:?} to {out}");
}
