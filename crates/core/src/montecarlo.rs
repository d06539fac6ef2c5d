//! Parallel Monte-Carlo driver: many independent trials, aggregated.
//!
//! The paper runs 100 trials per configuration (Figure 3). Each trial is
//! a pure function of `(config, master_seed, trial_index)`, so trials
//! fan out across scoped threads — or across worker *processes* in a
//! fleet — and the aggregate is identical regardless of how they were
//! scheduled.
//!
//! That identity is not automatic: `Running::merge` (Chan's parallel
//! Welford update) and the pooled histograms' f64 sums are neither
//! associative nor commutative at the bit level, so "merge whatever
//! each worker accumulated" produces answers that drift in the last
//! ulps with the thread count. Instead every execution path reduces
//! through the same *canonical chunked fold*: trials are grouped into
//! fixed [`CHUNK_TRIALS`]-sized chunks, each chunk's summary is built
//! by pushing its trials in ascending order, and the final summary is
//! a left fold of the chunk summaries in ascending chunk order
//! ([`fold_chunk_summaries`]).
//!
//! One private chunk-range runner builds and commits the chunks for
//! both entry points: [`run_trials_observed`] runs the whole campaign
//! (with the live monitor, the convergence stream and the stopping
//! rule), and [`run_trial_chunks_observed`] runs a fleet worker's share.
//! Workers (threads, and processes in a fleet) race to *claim* chunks
//! but never change what a chunk contains or where it lands in the
//! fold, so `threads=1`, `threads=N` and any fleet partition of the
//! chunk space produce bit-identical summaries.

use crate::config::{PreparedConfig, SystemConfig};
use crate::metrics::{McSummary, TrialMetrics};
use crate::observer::{TrialArtifacts, TrialObserver};
use crate::sim::Simulation;
use farm_des::rng::derive_seed;
use farm_obs::{
    diag, BatchHandle, ConvergenceCore, EventProfile, ObsOptions, Progress, SpanFormat,
    TimelineBands, TraceSel, WorkerShard,
};
use std::io::Write;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Trials per reduction chunk — the canonical unit of summary folding.
///
/// Chunk `c` covers trials `[c*CHUNK_TRIALS, min((c+1)*CHUNK_TRIALS,
/// trials))`. Must divide [`farm_obs::convergence::STOP_CHECK_EVERY`]
/// so `--target-rel-ci` stop boundaries (multiples of it) always land
/// on chunk edges and a kept prefix is a whole number of chunks.
pub const CHUNK_TRIALS: u64 = 8;

const _: () = assert!(
    farm_obs::convergence::STOP_CHECK_EVERY.is_multiple_of(CHUNK_TRIALS),
    "stop boundaries must land on chunk edges"
);

/// Number of reduction chunks in a campaign of `trials` trials.
pub fn n_chunks(trials: u64) -> u64 {
    trials.div_ceil(CHUNK_TRIALS)
}

/// Trial bounds `[lo, hi)` of chunk `chunk` in a campaign of
/// `trials_total` trials (the final chunk may be partial).
pub fn chunk_bounds(chunk: u64, trials_total: u64) -> (u64, u64) {
    let lo = chunk * CHUNK_TRIALS;
    let hi = ((chunk + 1) * CHUNK_TRIALS).min(trials_total);
    (lo, hi)
}

/// How a trial is executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrialMode {
    /// Run the full horizon (needed for utilization/redirection stats).
    Full,
    /// Stop at the first data loss (sufficient for P(data loss)).
    UntilLoss,
}

/// Run one trial.
pub fn run_trial(
    cfg: &SystemConfig,
    master_seed: u64,
    trial: u64,
    mode: TrialMode,
) -> TrialMetrics {
    let seed = derive_seed(master_seed, trial);
    let mut sim = Simulation::new(cfg.clone(), seed);
    match mode {
        TrialMode::Full => sim.run(),
        TrialMode::UntilLoss => sim.run_until_loss(),
    }
}

/// A worker thread's reusable simulation slot. The first trial on a
/// worker constructs a [`Simulation`]; every later trial
/// [`Simulation::recycle`]s it, reusing the layout arrays, the
/// reverse-index arena, the per-disk vectors, the event-queue storage
/// and the metrics histograms instead of reallocating them. Recycled
/// trials are bit-identical to fresh ones (see
/// `tests/workspace_identity.rs`), so this is purely a throughput
/// optimization.
#[derive(Default)]
pub struct TrialWorkspace {
    sim: Option<Simulation>,
}

impl TrialWorkspace {
    /// A workspace that recycles its simulation across trials.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hand out a simulation initialized exactly as
    /// `Simulation::from_shared(cfg, seed)` would be, recycling the
    /// previous trial's allocations.
    pub fn obtain(&mut self, cfg: &Arc<PreparedConfig>, seed: u64) -> &mut Simulation {
        match &mut self.sim {
            Some(sim) => sim.recycle(cfg, seed),
            slot => *slot = Some(Simulation::from_shared(Arc::clone(cfg), seed)),
        }
        self.sim.as_mut().expect("workspace holds a simulation")
    }
}

/// What a held chunk keeps per trial so the live monitor's shard can be
/// updated when (and only when) the chunk commits.
struct TrialSideband {
    lost: bool,
    events: u64,
    wall_secs: f64,
}

/// A finished chunk that has not entered the aggregate yet. Under the
/// sequential stopping rule a chunk may only commit once every stop
/// boundary at or below its upper bound has been decided — otherwise a
/// later "stop at B" verdict would leave trials `>= B` already baked
/// into the summary. Stop boundaries are chunk-aligned, so whole chunks
/// are the natural holding unit; each held entry carries everything
/// commit needs, including the per-trial wall times measured when the
/// trials actually ran. Without a stop rule a chunk commits as soon as
/// it is built.
struct HeldChunk {
    chunk: u64,
    lo: u64,
    hi: u64,
    summary: McSummary,
    trials: Vec<TrialSideband>,
    profile: Option<EventProfile>,
    artifacts: Vec<(u64, TrialArtifacts)>,
}

/// The committed part of a chunk-range run (one worker's, or the whole
/// range's once the workers joined): the chunk summaries in commit
/// order, the merged event-loop profile and the committed trials'
/// artifacts.
#[derive(Default)]
struct Committed {
    chunks: Vec<(u64, McSummary)>,
    profile: Option<EventProfile>,
    artifacts: Vec<(u64, TrialArtifacts)>,
}

impl Committed {
    fn absorb(&mut self, other: Committed) {
        self.chunks.extend(other.chunks);
        merge_profile(&mut self.profile, other.profile);
        self.artifacts.extend(other.artifacts);
    }
}

/// Settle held chunks against the stopping frontier: commit every chunk
/// wholly below `min(decided, limit)` (no future boundary can exclude
/// it), discard every chunk at or beyond a triggered stop `limit`, keep
/// the rest held.
fn settle_held(
    held: &mut Vec<HeldChunk>,
    decided: u64,
    limit: u64,
    done: &mut Committed,
    shard: &Option<Arc<WorkerShard>>,
) {
    let commit_below = decided.min(limit);
    let mut i = 0;
    while i < held.len() {
        if held[i].hi <= commit_below {
            commit_chunk(held.swap_remove(i), done, shard);
        } else if held[i].lo >= limit {
            held.swap_remove(i);
        } else {
            i += 1;
        }
    }
}

/// Commit one chunk: its trials reach the live monitor's shard, its
/// summary, profile and artifacts the committed aggregate.
fn commit_chunk(h: HeldChunk, done: &mut Committed, shard: &Option<Arc<WorkerShard>>) {
    if let Some(shard) = shard {
        for t in &h.trials {
            shard.record_trial(t.lost, t.events, t.wall_secs);
        }
    }
    done.chunks.push((h.chunk, h.summary));
    merge_profile(&mut done.profile, h.profile);
    done.artifacts.extend(h.artifacts);
}

/// Fold chunk summaries into the campaign aggregate after validating
/// exact coverage: the indices must be exactly `0..total_chunks`, each
/// exactly once. A missing chunk (a seed-range gap after a lost worker)
/// or a duplicate (double-counted work after a respawn) is an error,
/// never a silently wrong number. The fold itself is the canonical
/// ascending left fold, so the result is bit-identical to a
/// single-process run over the same seed set.
pub fn fold_chunk_summaries(
    mut chunks: Vec<(u64, McSummary)>,
    total_chunks: u64,
) -> Result<McSummary, String> {
    fold_chunk_range(&mut chunks, 0..total_chunks)
}

/// [`fold_chunk_summaries`] over the chunk range `range`: sorts `chunks`
/// in place, checks that they are exactly `range`, and folds them.
fn fold_chunk_range(
    chunks: &mut [(u64, McSummary)],
    range: Range<u64>,
) -> Result<McSummary, String> {
    chunks.sort_by_key(|&(c, _)| c);
    for (i, win) in chunks.windows(2).enumerate() {
        if win[0].0 == win[1].0 {
            return Err(format!(
                "duplicate chunk {} (positions {i} and {})",
                win[0].0,
                i + 1
            ));
        }
    }
    let expected = range.end - range.start;
    if chunks.len() as u64 != expected {
        return Err(format!("expected {expected} chunks, got {}", chunks.len()));
    }
    for (want, &(c, _)) in range.zip(chunks.iter()) {
        if c != want {
            return Err(format!("missing chunk {want} (found {c} in its place)"));
        }
    }
    let mut summary = McSummary::new();
    for (_, cs) in chunks.iter() {
        summary.merge(cs);
    }
    Ok(summary)
}

/// A short human label for a batch's configuration, shown in the live
/// monitor's status file and as the `config` label on `/metrics`
/// series (e.g. `mirror(2) Farm 256GiB`).
fn config_label(cfg: &SystemConfig) -> String {
    use farm_disk::model::{GIB, PIB, TIB};
    let b = cfg.total_user_bytes;
    let size = if b >= PIB {
        format!("{}PiB", b / PIB)
    } else if b >= TIB {
        format!("{}TiB", b / TIB)
    } else {
        format!("{}GiB", b / GIB)
    };
    format!("{} {:?} {size}", cfg.scheme, cfg.recovery)
}

/// Run one trial with the observer `obs` asks for attached. Results are
/// bit-identical to [`run_trial`] — observability never feeds back into
/// the model. The artifacts and profile are `None` when nothing was
/// attached.
fn run_trial_observed(
    ws: &mut TrialWorkspace,
    cfg: &Arc<PreparedConfig>,
    master_seed: u64,
    trial: u64,
    mode: TrialMode,
    obs: &ObsOptions,
) -> (TrialMetrics, Option<(TrialArtifacts, Option<EventProfile>)>) {
    let sim = ws.obtain(cfg, derive_seed(master_seed, trial));
    if let Some(o) = TrialObserver::for_trial(obs, cfg, trial) {
        sim.attach(o);
    }
    let metrics = match mode {
        TrialMode::Full => sim.run(),
        TrialMode::UntilLoss => sim.run_until_loss(),
    };
    (metrics, sim.detach())
}

fn merge_profile(acc: &mut Option<EventProfile>, p: Option<EventProfile>) {
    if let Some(p) = p {
        match acc {
            Some(a) => a.merge(&p),
            None => *acc = Some(p),
        }
    }
}

/// Trials covered by the chunk range `chunks` of a campaign of
/// `trials_total` trials.
fn range_trials(trials_total: u64, chunks: &Range<u64>) -> u64 {
    (chunks.end * CHUNK_TRIALS).min(trials_total) - (chunks.start * CHUNK_TRIALS).min(trials_total)
}

/// The one Monte-Carlo runner behind every execution path: run the
/// reduction chunks `chunks` of a campaign of `trials_total` trials on
/// `min(threads, chunks)` workers and return what committed.
///
/// Worker 0 is the calling thread, so `threads = 1` spawns nothing.
/// Workers claim chunk indices from one shared counter and build each
/// chunk by pushing its trials in ascending order — the only way a chunk
/// summary is ever built. A finished chunk commits once the convergence
/// core's `decided_through` frontier has passed it (at once without a
/// stop rule), and a chunk at or beyond a triggered stop limit is
/// dropped. Chunks still held when the workers join are settled once
/// against the final stop limit. The live monitor's shards record a
/// chunk's trials when it commits; progress is reported per trial.
#[allow(clippy::too_many_arguments)]
fn run_chunk_range(
    prepared: &Arc<PreparedConfig>,
    master_seed: u64,
    trials_total: u64,
    chunks: Range<u64>,
    mode: TrialMode,
    threads: usize,
    obs: &ObsOptions,
    conv: Option<&ConvergenceCore>,
    batch: Option<&BatchHandle>,
) -> Committed {
    assert!(threads >= 1);
    let progress = Progress::new(range_trials(trials_total, &chunks), obs.progress_enabled());
    let limit = || conv.map_or(u64::MAX, |c| c.stop_limit());
    let decided = || match conv {
        Some(c) if c.stopping() => c.decided_through(),
        _ => u64::MAX,
    };
    let next = AtomicU64::new(chunks.start);
    let worker = || {
        let mut done = Committed::default();
        let mut held: Vec<HeldChunk> = Vec::new();
        let mut ws = TrialWorkspace::new();
        let shard = batch.map(|b| b.shard());
        loop {
            let chunk = next.fetch_add(1, Ordering::Relaxed);
            if chunk >= chunks.end {
                break;
            }
            let (lo, hi) = chunk_bounds(chunk, trials_total);
            // Stop limits are chunk-aligned, so a chunk is entirely
            // inside or entirely outside the kept prefix.
            if lo >= limit() {
                break;
            }
            let mut h = HeldChunk {
                chunk,
                lo,
                hi,
                summary: McSummary::new(),
                trials: Vec::with_capacity((hi - lo) as usize),
                profile: None,
                artifacts: Vec::new(),
            };
            for t in lo..hi {
                let started = shard.as_ref().map(|_| Instant::now());
                let (m, observed) =
                    run_trial_observed(&mut ws, prepared, master_seed, t, mode, obs);
                progress.trial_done(m.lost_data());
                if let Some(c) = conv {
                    c.submit(t, m.lost_data(), m.first_loss.map(|ft| ft.as_secs()));
                }
                h.summary.push(&m);
                h.trials.push(TrialSideband {
                    lost: m.lost_data(),
                    events: m.events_processed,
                    wall_secs: started.map_or(0.0, |t0| t0.elapsed().as_secs_f64()),
                });
                if let Some((a, p)) = observed {
                    merge_profile(&mut h.profile, p);
                    if !a.is_empty() {
                        h.artifacts.push((t, a));
                    }
                }
            }
            held.push(h);
            settle_held(&mut held, decided(), limit(), &mut done, &shard);
        }
        (done, held)
    };
    let workers = (chunks.end - chunks.start).clamp(1, threads as u64);
    let parts = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(worker)).collect();
        let mut parts = vec![worker()];
        for h in spawned {
            parts.push(h.join().expect("trial thread panicked"));
        }
        parts
    });
    progress.finish();
    let mut out = Committed::default();
    let mut leftover: Vec<HeldChunk> = Vec::new();
    for (done, held) in parts {
        out.absorb(done);
        leftover.extend(held);
    }
    if !leftover.is_empty() {
        // Every trial has been submitted, so the stop limit is final.
        // Committed through one extra shard so the monitor's totals
        // match the summary exactly.
        let shard = batch.map(|b| b.shard());
        settle_held(&mut leftover, u64::MAX, limit(), &mut out, &shard);
    }
    out
}

/// Publish a finished batch to the live monitor: its pooled span-phase
/// histograms (detect / queue / transfer / end-to-end repair), then the
/// exact final snapshot, synchronously.
fn finish_batch(batch: &BatchHandle, s: &McSummary) {
    batch.record_phases(&s.detect_lag, &s.queue_delay, &s.transfer, &s.vulnerability);
    batch.finish();
}

/// Run `trials` independent trials in parallel and aggregate.
pub fn run_trials(cfg: &SystemConfig, master_seed: u64, trials: u64, mode: TrialMode) -> McSummary {
    run_trials_with_threads(cfg, master_seed, trials, mode, default_threads())
}

/// Degree of parallelism: physical parallelism, bounded so that large
/// per-trial state (a 2 PiB system with 1 GiB groups holds a few
/// million block records) does not exhaust memory. A `FARM_THREADS`
/// environment variable overrides the default — used by the benchmark
/// harness to compare single-thread and saturated runs.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("FARM_THREADS") {
        match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => return n,
            _ => {
                diag::warn_once(
                    "FARM_THREADS",
                    &format!("ignoring invalid FARM_THREADS={v:?} (want an integer >= 1)"),
                );
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(16)
}

/// As [`run_trials`], with an explicit thread count (1 = sequential).
///
/// Observability comes from the process-wide [`farm_obs::global`]
/// options (CLI flags or `FARM_*` environment variables); a profile
/// requested that way is rendered to stderr when the batch completes.
pub fn run_trials_with_threads(
    cfg: &SystemConfig,
    master_seed: u64,
    trials: u64,
    mode: TrialMode,
    threads: usize,
) -> McSummary {
    let (summary, profile) =
        run_trials_observed(cfg, master_seed, trials, mode, threads, farm_obs::global());
    if let Some(p) = profile {
        eprint!("{}", p.render());
    }
    summary
}

/// The full-control entry point: run `trials` trials with explicit
/// observability options, returning the aggregate and (when profiling
/// was on) the merged event-loop profile.
pub fn run_trials_observed(
    cfg: &SystemConfig,
    master_seed: u64,
    trials: u64,
    mode: TrialMode,
    threads: usize,
    obs: &ObsOptions,
) -> (McSummary, Option<EventProfile>) {
    // Live campaign monitor (status snapshots / the /metrics exporter):
    // consulted once per batch; `None` — and zero per-trial work — when
    // neither FARM_STATUS nor FARM_HTTP asked for it.
    let monitor = farm_obs::campaign_monitor(obs);
    let convergence_requested = obs.convergence.is_some() || obs.target_rel_ci.is_some();
    // The analytic Markov anchor, solved once per batch (a tiny linear
    // system) and only when something will display it.
    let anchor = if monitor.is_some() || convergence_requested {
        crate::markov::anchor_loss_probability(cfg)
    } else {
        None
    };
    let batch: Option<BatchHandle> =
        monitor.map(|mon| mon.begin_batch_anchored(config_label(cfg), trials, anchor));
    // Convergence layer: the trial-ordered tracker behind the JSONL
    // stream and the `--target-rel-ci` stopping rule. One mutex lock
    // per *trial* when on; `None` — and zero per-trial work — when off.
    let conv: Option<ConvergenceCore> = convergence_requested.then(|| {
        let base = obs
            .convergence
            .as_ref()
            .map_or(farm_obs::convergence::DEFAULT_BASE_TRIALS, |s| {
                s.resolve_base()
            });
        ConvergenceCore::new(config_label(cfg), trials, anchor, base, obs.target_rel_ci)
    });
    let conv = conv.as_ref();
    // One validated config per batch: every trial on every worker shares
    // the `Arc` instead of cloning the `SystemConfig`.
    let prepared = Arc::new(PreparedConfig::new(cfg.clone()));
    let run = run_chunk_range(
        &prepared,
        master_seed,
        trials,
        0..n_chunks(trials),
        mode,
        threads,
        obs,
        conv,
        batch.as_ref(),
    );
    // A triggered stop keeps exactly the (chunk-aligned) prefix below
    // its limit; the canonical fold checks that every chunk of it
    // committed once.
    let kept = conv.and_then(|c| c.stopped_at()).unwrap_or(trials);
    let summary = fold_chunk_summaries(run.chunks, n_chunks(kept))
        .unwrap_or_else(|e| panic!("chunk runner committed a wrong chunk set: {e}"));
    // Flush the convergence stream (final record carries the exact
    // totals) and cross-check it against the aggregate: the tracker was
    // fed exactly the committed trials, in trial order.
    if let Some(c) = conv {
        let final_p = c.finish(obs.convergence.as_ref());
        debug_assert_eq!(final_p.trials, summary.trials());
        debug_assert_eq!(final_p.successes, summary.p_loss.successes);
    }
    if let Some(b) = &batch {
        finish_batch(b, &summary);
    }
    emit_artifacts(obs, cfg, run.artifacts);
    (summary, run.profile)
}

/// Run reduction chunks `[chunk_lo, chunk_hi)` of a campaign of
/// `trials_total` trials — the fleet worker entry point.
///
/// The per-chunk summaries are returned *unfolded*, in ascending chunk
/// order: `Running::merge` is not associative, so a worker that
/// pre-folded its contiguous range could not be re-grouped into the
/// campaign-wide ascending fold. The coordinator collects every chunk
/// from every worker and folds them with [`fold_chunk_summaries`],
/// which is bit-identical to [`run_trials_observed`] over the full seed
/// set.
///
/// Only the live monitor (`FARM_STATUS` / `FARM_HTTP`) and the progress
/// line attach, scoped to this worker's share of the campaign. A fleet
/// worker returns bare chunk summaries, so profiling, tracing, the
/// timeline, spans, post-mortems and convergence stopping are not
/// attached even when `obs` asks for them.
#[allow(clippy::too_many_arguments)]
pub fn run_trial_chunks_observed(
    cfg: &SystemConfig,
    master_seed: u64,
    trials_total: u64,
    chunk_lo: u64,
    chunk_hi: u64,
    mode: TrialMode,
    threads: usize,
    obs: &ObsOptions,
) -> Vec<(u64, McSummary)> {
    assert!(
        chunk_lo <= chunk_hi && chunk_hi <= n_chunks(trials_total),
        "chunk range {chunk_lo}:{chunk_hi} outside campaign of {} chunks",
        n_chunks(trials_total)
    );
    let obs = ObsOptions {
        progress: obs.progress,
        status: obs.status.clone(),
        http: obs.http.clone(),
        ..ObsOptions::off()
    };
    let monitor = farm_obs::campaign_monitor(&obs);
    let anchor = if monitor.is_some() {
        crate::markov::anchor_loss_probability(cfg)
    } else {
        None
    };
    let range = chunk_lo..chunk_hi;
    let batch: Option<BatchHandle> = monitor.map(|mon| {
        mon.begin_batch_anchored(
            config_label(cfg),
            range_trials(trials_total, &range),
            anchor,
        )
    });
    let prepared = Arc::new(PreparedConfig::new(cfg.clone()));
    let mut chunks = run_chunk_range(
        &prepared,
        master_seed,
        trials_total,
        range.clone(),
        mode,
        threads,
        &obs,
        None,
        batch.as_ref(),
    )
    .chunks;
    // Sort, check and pool this worker's share (the monitor shows its
    // span-phase summaries).
    let pooled = fold_chunk_range(&mut chunks, range)
        .unwrap_or_else(|e| panic!("chunk runner committed a wrong chunk set: {e}"));
    if let Some(b) = &batch {
        finish_batch(b, &pooled);
    }
    chunks
}

/// Open `path` for this batch's artifact output; warn once under `key`
/// (and write nothing) when it cannot be opened.
fn open_or_warn(path: &str, key: &str, what: &str) -> Option<(std::fs::File, bool, u64)> {
    farm_obs::open_batch_file(path)
        .map_err(|e| diag::warn_once(key, &format!("cannot open {what} {path:?}: {e}")))
        .ok()
}

/// Write the batch's telemetry artifacts: timeline bands, post-mortem
/// JSONL, recovery spans, buffered traces of losing trials. Artifacts
/// are sorted by trial index first, so the files are bit-identical
/// regardless of how the trials were scheduled across worker threads.
fn emit_artifacts(obs: &ObsOptions, cfg: &SystemConfig, mut artifacts: Vec<(u64, TrialArtifacts)>) {
    artifacts.sort_by_key(|&(t, _)| t);
    if let Some(spec) = &obs.timeline {
        let mut bands = TimelineBands::new();
        for (_, a) in &artifacts {
            if let Some(tl) = &a.timeline {
                bands.add_trial(tl);
            }
        }
        if let Some((mut f, fresh, batch)) =
            open_or_warn(&spec.path, "timeline-open", "timeline output")
        {
            let body = bands.render(batch, spec.json(), fresh);
            let _ = f.write_all(body.as_bytes());
        }
    }
    if let Some(path) = &obs.postmortem {
        // Open even when this batch had no losses: the first batch of
        // the process truncates stale output, and an existing-but-empty
        // file distinguishes "no losses" from "post-mortems not on".
        if let Some((mut f, _, _)) = open_or_warn(path, "postmortem-open", "post-mortem output") {
            for (_, a) in &artifacts {
                for line in &a.postmortems {
                    let _ = writeln!(f, "{line}");
                }
            }
        }
    }
    if let Some(spec) = &obs.spans {
        match spec.format {
            SpanFormat::Jsonl => {
                if let Some((mut f, _, batch)) =
                    open_or_warn(&spec.path, "spans-open", "spans output")
                {
                    let (label, mut body) = (config_label(cfg), String::new());
                    for (t, a) in &artifacts {
                        if let Some(s) = &a.spans {
                            s.render_jsonl(&mut body, batch, &label, *t);
                        }
                    }
                    let _ = f.write_all(body.as_bytes());
                }
            }
            SpanFormat::Chrome => {
                let mut events = Vec::new();
                for (t, a) in &artifacts {
                    if let Some(s) = &a.spans {
                        s.render_chrome(&mut events, *t);
                    }
                }
                if let Err(e) = farm_obs::spans::chrome_flush(&spec.path, events) {
                    diag::warn_once(
                        "spans-open",
                        &format!("cannot write chrome trace {:?}: {e}", spec.path),
                    );
                }
            }
        }
    }
    if let Some(spec) = &obs.trace {
        if spec.sel == TraceSel::Loss {
            let traces = artifacts
                .iter()
                .filter_map(|(_, a)| a.loss_trace.as_deref());
            match &spec.path {
                Some(p) => {
                    if let Some((mut f, _, _)) = open_or_warn(p, "trace-open", "trace sink") {
                        for tr in traces {
                            let _ = f.write_all(tr);
                        }
                    }
                }
                None => {
                    let mut err = std::io::stderr().lock();
                    for tr in traces {
                        let _ = err.write_all(tr);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farm_des::time::Duration;
    use farm_disk::model::{GIB, MIB, TIB};

    /// A tiny configuration that runs in milliseconds.
    fn tiny() -> SystemConfig {
        SystemConfig {
            total_user_bytes: 2 * TIB,
            group_user_bytes: 4 * GIB,
            disk_capacity: 64 * GIB,
            recovery_bandwidth: 16 * MIB,
            detection_latency: Duration::from_secs(30.0),
            ..SystemConfig::default()
        }
    }

    #[test]
    fn trials_are_reproducible() {
        let cfg = tiny();
        let a = run_trial(&cfg, 7, 3, TrialMode::Full);
        let b = run_trial(&cfg, 7, 3, TrialMode::Full);
        assert_eq!(a.disk_failures, b.disk_failures);
        assert_eq!(a.rebuilds_completed, b.rebuilds_completed);
        assert_eq!(a.lost_groups, b.lost_groups);
    }

    #[test]
    fn different_trials_differ() {
        let cfg = tiny();
        let a = run_trial(&cfg, 7, 0, TrialMode::Full);
        let b = run_trial(&cfg, 7, 1, TrialMode::Full);
        // Failure counts are Poisson-ish; identical streams would be a
        // seeding bug. (They could coincide by chance; compare a richer
        // signature.)
        let sig_a = (
            a.disk_failures,
            a.rebuilds_completed,
            a.total_vulnerability_secs.to_bits(),
        );
        let sig_b = (
            b.disk_failures,
            b.rebuilds_completed,
            b.total_vulnerability_secs.to_bits(),
        );
        assert_ne!(sig_a, sig_b);
    }

    #[test]
    fn parallel_equals_sequential_bit_for_bit() {
        // The canonical chunked reduction makes the thread count
        // invisible in the result *bits*, not just within an epsilon:
        // compare the full compact encodings (26 trials = 4 chunks,
        // the last partial).
        let cfg = tiny();
        let seq = run_trials_with_threads(&cfg, 11, 26, TrialMode::Full, 1);
        let par = run_trials_with_threads(&cfg, 11, 26, TrialMode::Full, 4);
        assert_eq!(seq.trials(), 26);
        assert_eq!(seq.to_compact(), par.to_compact());
    }

    #[test]
    fn chunk_bounds_cover_the_campaign() {
        assert_eq!(n_chunks(0), 0);
        assert_eq!(n_chunks(1), 1);
        assert_eq!(n_chunks(CHUNK_TRIALS), 1);
        assert_eq!(n_chunks(CHUNK_TRIALS + 1), 2);
        // Chunks tile [0, trials) exactly, final chunk partial.
        let trials = 3 * CHUNK_TRIALS + 5;
        let mut next = 0;
        for c in 0..n_chunks(trials) {
            let (lo, hi) = chunk_bounds(c, trials);
            assert_eq!(lo, next);
            assert!(hi > lo && hi <= trials);
            next = hi;
        }
        assert_eq!(next, trials);
    }

    #[test]
    fn chunked_worker_fold_matches_single_process() {
        // The fleet invariant, in-process: run the campaign as two
        // unequal worker shares plus the full driver, fold, and require
        // bit-identity. 26 trials = 4 chunks split 1 + 3.
        let cfg = tiny();
        let obs = ObsOptions::off();
        let (whole, _) = run_trials_observed(&cfg, 11, 26, TrialMode::Full, 2, &obs);
        let mut chunks = run_trial_chunks_observed(&cfg, 11, 26, 0, 1, TrialMode::Full, 1, &obs);
        chunks.extend(run_trial_chunks_observed(
            &cfg,
            11,
            26,
            1,
            4,
            TrialMode::Full,
            2,
            &obs,
        ));
        let folded = fold_chunk_summaries(chunks, n_chunks(26)).unwrap();
        assert_eq!(folded.to_compact(), whole.to_compact());
    }

    #[test]
    fn fold_rejects_gaps_and_duplicates() {
        let cfg = tiny();
        let obs = ObsOptions::off();
        let chunks = run_trial_chunks_observed(&cfg, 11, 16, 0, 2, TrialMode::Full, 1, &obs);
        assert_eq!(chunks.len(), 2);
        // Exact coverage passes.
        assert!(fold_chunk_summaries(chunks.clone(), 2).is_ok());
        // A gap (missing chunk) fails.
        let err = fold_chunk_summaries(vec![chunks[1].clone()], 2).unwrap_err();
        assert!(err.contains("expected 2 chunks"), "{err}");
        // A double-counted chunk fails.
        let mut dup = chunks.clone();
        dup.push(chunks[0].clone());
        let err = fold_chunk_summaries(dup, 2).unwrap_err();
        assert!(err.contains("duplicate chunk 0"), "{err}");
        // The right count but wrong indices fails.
        let wrong = vec![chunks[1].clone(), (2, McSummary::new())];
        let err = fold_chunk_summaries(wrong, 2).unwrap_err();
        assert!(err.contains("missing chunk 0"), "{err}");
    }

    #[test]
    fn fleet_chunks_attach_no_discarded_recorders() {
        // A fleet worker returns bare chunk summaries, so recorders whose
        // output it would drop are never attached: the chunks equal an
        // all-off run's bit for bit and no artifact file appears.
        let cfg = tiny();
        let tmp = |name: &str| {
            std::env::temp_dir()
                .join(format!("farm-mc-fleet-{name}-{}", std::process::id()))
                .to_string_lossy()
                .into_owned()
        };
        let (timeline, spans) = (tmp("timeline.csv"), tmp("spans.jsonl"));
        let noisy = ObsOptions {
            profile: true,
            timeline: Some(farm_obs::TimelineSpec {
                path: timeline.clone(),
                interval_secs: None,
            }),
            spans: Some(farm_obs::SpansSpec {
                path: spans.clone(),
                format: SpanFormat::Jsonl,
            }),
            target_rel_ci: Some(0.5),
            ..ObsOptions::off()
        };
        let compact = |chunks: Vec<(u64, McSummary)>| {
            chunks
                .into_iter()
                .map(|(c, s)| (c, s.to_compact()))
                .collect::<Vec<_>>()
        };
        let off =
            run_trial_chunks_observed(&cfg, 11, 26, 0, 4, TrialMode::Full, 2, &ObsOptions::off());
        let on = run_trial_chunks_observed(&cfg, 11, 26, 0, 4, TrialMode::Full, 2, &noisy);
        assert_eq!(compact(off), compact(on));
        assert!(
            !std::path::Path::new(&timeline).exists(),
            "timeline written"
        );
        assert!(!std::path::Path::new(&spans).exists(), "spans written");
    }

    #[test]
    fn observed_run_returns_a_profile_that_accounts_for_every_event() {
        let cfg = tiny();
        let off = ObsOptions::off();
        let (base, none) = run_trials_observed(&cfg, 5, 4, TrialMode::Full, 2, &off);
        assert!(none.is_none(), "no profile requested");
        let on = ObsOptions {
            profile: true,
            ..ObsOptions::off()
        };
        let (summary, profile) = run_trials_observed(&cfg, 5, 4, TrialMode::Full, 2, &on);
        let p = profile.expect("profiling was requested");
        // The profiler saw exactly the events the metrics counted, and
        // profiling did not change the simulation.
        let events = (summary.events.mean() * summary.events.count() as f64).round() as u64;
        assert_eq!(p.total_events(), events);
        assert_eq!(p.queue_depth().count(), events);
        assert_eq!(base.p_loss.successes, summary.p_loss.successes);
        assert!((base.failures.mean() - summary.failures.mean()).abs() < 1e-12);
    }

    #[test]
    fn config_labels_identify_scheme_policy_and_size() {
        let label = config_label(&tiny());
        assert!(label.contains("Farm"), "{label}");
        assert!(label.ends_with("2TiB"), "{label}");
        let mut raid = tiny();
        raid.recovery = crate::config::RecoveryPolicy::SingleSpare;
        assert!(config_label(&raid).contains("SingleSpare"));
    }

    #[test]
    fn until_loss_agrees_on_the_loss_verdict() {
        let cfg = tiny();
        for t in 0..6 {
            let full = run_trial(&cfg, 3, t, TrialMode::Full);
            let fast = run_trial(&cfg, 3, t, TrialMode::UntilLoss);
            assert_eq!(full.lost_data(), fast.lost_data(), "trial {t}");
        }
    }
}
