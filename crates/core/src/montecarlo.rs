//! Parallel Monte-Carlo driver: many independent trials, aggregated.
//!
//! The paper runs 100 trials per configuration (Figure 3). Each trial is
//! a pure function of `(config, master_seed, trial_index)`, so trials
//! fan out across scoped threads and the aggregate is identical
//! regardless of how they were scheduled.
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
//! One private chunk-set runner builds and commits the chunks for both
//! entry points: [`run_trials_observed`] runs the whole campaign (with
//! the live monitor, the convergence stream and the stopping rule), and
//! [`run_trials_checkpointed`] runs the chunks a campaign checkpoint is
//! missing, appending one line to the checkpoint per committed chunk,
//! so a killed campaign resumes where it stopped. Worker threads race
//! to *claim* chunks but never change what a chunk contains or where it
//! lands in the fold, so `threads=1`, `threads=N` and any split of the
//! chunks across interrupted runs produce bit-identical summaries.

use crate::config::{PreparedConfig, SystemConfig};
use crate::metrics::{McSummary, TrialMetrics};
use crate::observer::{TrialArtifacts, TrialObserver};
use crate::sim::Simulation;
use farm_des::rng::derive_seed;
use farm_obs::{
    diag, BatchHandle, ConvergenceCore, EventProfile, ObsOptions, Progress, SpanFormat,
    TimelineBands, TraceSel, WorkerShard,
};
use std::fs::{File, OpenOptions, TryLockError};
use std::io::{self, Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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

/// The committed part of a chunk-set run (one worker's, or the whole
/// set's once the workers joined): the chunk summaries in commit order,
/// the merged event-loop profile and the committed trials' artifacts.
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

/// The chunks a run builds, ascending: a whole range, or the chunks a
/// campaign checkpoint is missing (any subset). Workers claim the
/// `i`-th chunk with one atomic add, and [`ChunkSet::get`] maps it to a
/// chunk index in O(1) without allocating.
enum ChunkSet {
    Range(Range<u64>),
    Listed(Vec<u64>),
}

impl ChunkSet {
    fn len(&self) -> u64 {
        match self {
            ChunkSet::Range(r) => r.end - r.start,
            ChunkSet::Listed(v) => v.len() as u64,
        }
    }

    /// The `i`-th chunk of the set, if it has that many.
    fn get(&self, i: u64) -> Option<u64> {
        match self {
            ChunkSet::Range(r) => (i < r.end - r.start).then(|| r.start + i),
            ChunkSet::Listed(v) => v.get(i as usize).copied(),
        }
    }

    /// Trials covered by the set in a campaign of `trials_total` trials.
    fn trials(&self, trials_total: u64) -> u64 {
        (0..self.len())
            .filter_map(|i| self.get(i))
            .map(|c| {
                let (lo, hi) = chunk_bounds(c, trials_total);
                hi - lo
            })
            .sum()
    }
}

/// The append side of a campaign checkpoint: one `chunk=C <mc1>` line
/// per committed chunk, written with one `write` call while the lock is
/// held, so lines from concurrent workers never interleave.
struct CheckpointLog {
    path: PathBuf,
    file: Mutex<File>,
}

impl CheckpointLog {
    fn append(&self, chunk: u64, summary: &McSummary) -> io::Result<()> {
        let line = format!("chunk={chunk} {}\n", summary.to_compact());
        let named = |e: &dyn std::fmt::Display| format!("{}: {e}", self.path.display());
        // A worker that panicked mid-write may have left a torn line, so
        // a poisoned lock ends the run rather than appending after it.
        let mut file = self.file.lock().map_err(|e| io::Error::other(named(&e)))?;
        file.write_all(line.as_bytes())
            .map_err(|e| io::Error::new(e.kind(), named(&e)))
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
    log: Option<&CheckpointLog>,
) -> io::Result<()> {
    let commit_below = decided.min(limit);
    let mut i = 0;
    while i < held.len() {
        if held[i].hi <= commit_below {
            commit_chunk(held.swap_remove(i), done, shard, log)?;
        } else if held[i].lo >= limit {
            held.swap_remove(i);
        } else {
            i += 1;
        }
    }
    Ok(())
}

/// Commit one chunk: its line reaches the checkpoint (when there is
/// one), its trials the live monitor's shard, its summary, profile and
/// artifacts the committed aggregate.
fn commit_chunk(
    h: HeldChunk,
    done: &mut Committed,
    shard: &Option<Arc<WorkerShard>>,
    log: Option<&CheckpointLog>,
) -> io::Result<()> {
    if let Some(log) = log {
        log.append(h.chunk, &h.summary)?;
    }
    if let Some(shard) = shard {
        for t in &h.trials {
            shard.record_trial(t.lost, t.events, t.wall_secs);
        }
    }
    done.chunks.push((h.chunk, h.summary));
    merge_profile(&mut done.profile, h.profile);
    done.artifacts.extend(h.artifacts);
    Ok(())
}

/// Fold chunk summaries into the campaign aggregate after validating
/// exact coverage: the indices must be exactly `0..total_chunks`, each
/// exactly once. A missing chunk (a gap in a resumed campaign) or a
/// duplicate (double-counted work) is an error, never a silently wrong
/// number. The fold itself is the canonical ascending left fold, so the
/// result is bit-identical to an uninterrupted run over the same seeds.
pub fn fold_chunk_summaries(
    mut chunks: Vec<(u64, McSummary)>,
    total_chunks: u64,
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
    if chunks.len() as u64 != total_chunks {
        return Err(format!(
            "expected {total_chunks} chunks, got {}",
            chunks.len()
        ));
    }
    for (want, &(c, _)) in (0..total_chunks).zip(chunks.iter()) {
        if c != want {
            return Err(format!("missing chunk {want} (found {c} in its place)"));
        }
    }
    let mut summary = McSummary::new();
    for (_, cs) in &chunks {
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

/// The one Monte-Carlo runner behind every execution path: build the
/// reduction chunks `chunks` of a campaign of `trials_total` trials on
/// `min(threads, chunks)` workers and return what committed.
///
/// Worker 0 is the calling thread, so `threads = 1` spawns nothing.
/// Workers claim positions in `chunks` from one shared counter and
/// build each chunk by pushing its trials in ascending order — the only
/// way a chunk summary is ever built. A finished chunk commits once the
/// convergence core's `decided_through` frontier has passed it (at once
/// without a stop rule), and a chunk at or beyond a triggered stop limit
/// is dropped. Chunks still held when the workers join are settled once
/// against the final stop limit. The live monitor's shards record a
/// chunk's trials when it commits; progress is reported per trial.
///
/// With a checkpoint `log`, a committed chunk's line is written before
/// its worker claims the next chunk. A failed write stops every worker
/// at its next claim and ends the run with that error.
#[allow(clippy::too_many_arguments)]
fn run_chunk_set(
    prepared: &Arc<PreparedConfig>,
    master_seed: u64,
    trials_total: u64,
    chunks: &ChunkSet,
    mode: TrialMode,
    threads: usize,
    obs: &ObsOptions,
    conv: Option<&ConvergenceCore>,
    batch: Option<&BatchHandle>,
    log: Option<&CheckpointLog>,
) -> io::Result<Committed> {
    assert!(threads >= 1);
    let progress = Progress::new(chunks.trials(trials_total), obs.progress_enabled());
    let limit = || conv.map_or(u64::MAX, |c| c.stop_limit());
    let decided = || match conv {
        Some(c) if c.stopping() => c.decided_through(),
        _ => u64::MAX,
    };
    let next = AtomicU64::new(0);
    let worker = || -> io::Result<(Committed, Vec<HeldChunk>)> {
        let mut done = Committed::default();
        let mut held: Vec<HeldChunk> = Vec::new();
        let mut ws = TrialWorkspace::new();
        let shard = batch.map(|b| b.shard());
        while let Some(chunk) = chunks.get(next.fetch_add(1, Ordering::Relaxed)) {
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
            if let Err(e) = settle_held(&mut held, decided(), limit(), &mut done, &shard, log) {
                // Every later claim now falls past the end of the set.
                next.store(chunks.len(), Ordering::Relaxed);
                return Err(e);
            }
        }
        Ok((done, held))
    };
    let workers = chunks.len().clamp(1, threads as u64);
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
    for part in parts {
        let (done, held) = part?;
        out.absorb(done);
        leftover.extend(held);
    }
    if !leftover.is_empty() {
        // Every trial has been submitted, so the stop limit is final.
        // Committed through one extra shard so the monitor's totals
        // match the summary exactly.
        let shard = batch.map(|b| b.shard());
        settle_held(&mut leftover, u64::MAX, limit(), &mut out, &shard, log)?;
    }
    Ok(out)
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
    let run = run_chunk_set(
        &prepared,
        master_seed,
        trials,
        &ChunkSet::Range(0..n_chunks(trials)),
        mode,
        threads,
        obs,
        conv,
        batch.as_ref(),
        None,
    )
    .expect("a run without a checkpoint does no I/O");
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

/// Chunk summaries by chunk index, in no particular order.
type Chunks = Vec<(u64, McSummary)>;

/// First line of a campaign checkpoint file.
const CHECKPOINT_HEADER: &str = "farm-checkpoint-v1";

/// FNV-1a 64 over everything that determines a chunk's summary: the
/// full config (via `Debug`, which covers every field), the master
/// seed, the campaign size, the chunking constant and the trial mode.
/// Any drift re-keys the checkpoint namespace.
pub fn campaign_fingerprint(
    cfg: &SystemConfig,
    master_seed: u64,
    trials: u64,
    mode: TrialMode,
) -> u64 {
    let text =
        format!("{cfg:?}|seed={master_seed}|trials={trials}|chunk={CHUNK_TRIALS}|mode={mode:?}");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The checkpoint file of a campaign under `dir`.
pub fn checkpoint_path(dir: &Path, fingerprint: u64) -> PathBuf {
    dir.join(format!("checkpoint-{fingerprint:016x}.txt"))
}

/// Run `trials` trials resumably, checkpointing each committed chunk
/// to `<dir>/checkpoint-<fingerprint>.txt` ([`checkpoint_path`]).
///
/// The file holds a `farm-checkpoint-v1` header line, a
/// `fingerprint=<16 hex>` line ([`campaign_fingerprint`]) and then one
/// `chunk=C <mc1 record>` line per committed chunk, in commit order.
/// A run loads the chunks already there, runs only the missing ones
/// (any subset, not only a suffix) on `threads` threads, appending each
/// line before its worker starts another chunk, and folds all of them
/// through [`fold_chunk_summaries`]. So a campaign killed at any point
/// and run again returns the bytes an uninterrupted run returns.
///
/// A final line without its trailing newline is a write the kill cut
/// short: it is dropped and the file truncated before it. Any other bad
/// line, a chunk index at or past `n_chunks(trials)`, a duplicate chunk
/// or a fingerprint that does not match is an error naming the file and
/// line; so is a failed write.
///
/// Only the progress line and the live monitor (`FARM_STATUS` /
/// `FARM_HTTP`) attach, scoped to the chunks this run builds. A chunk
/// loaded from the file has no per-trial record left, so profiling,
/// tracing, the timeline, spans, post-mortems and the convergence
/// stream and stopping rule are not attached even when `obs` asks for
/// them: their output would cover only part of the campaign.
pub fn run_trials_checkpointed(
    cfg: &SystemConfig,
    master_seed: u64,
    trials: u64,
    mode: TrialMode,
    threads: usize,
    obs: &ObsOptions,
    dir: &Path,
) -> io::Result<McSummary> {
    std::fs::create_dir_all(dir)
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", dir.display())))?;
    let fingerprint = campaign_fingerprint(cfg, master_seed, trials, mode);
    let path = checkpoint_path(dir, fingerprint);
    let (mut chunks, missing, log) = open_checkpoint(&path, fingerprint, trials)?;
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
    let batch: Option<BatchHandle> = monitor
        .map(|mon| mon.begin_batch_anchored(config_label(cfg), missing.trials(trials), anchor));
    let prepared = Arc::new(PreparedConfig::new(cfg.clone()));
    let mut fresh = run_chunk_set(
        &prepared,
        master_seed,
        trials,
        &missing,
        mode,
        threads,
        &obs,
        None,
        batch.as_ref(),
        Some(&log),
    )?
    .chunks;
    if let Some(b) = &batch {
        // The monitor shows this run's share: its chunks, pooled in
        // chunk order.
        fresh.sort_by_key(|&(c, _)| c);
        let mut pooled = McSummary::new();
        for (_, s) in &fresh {
            pooled.merge(s);
        }
        finish_batch(b, &pooled);
    }
    chunks.extend(fresh);
    fold_chunk_summaries(chunks, n_chunks(trials))
        .map_err(|e| io::Error::other(format!("{}: {e}", path.display())))
}

/// How long [`open_checkpoint`] waits for a locked checkpoint before
/// failing. A child process forked while a checkpoint is open holds a
/// copy of its lock until it execs, which takes milliseconds; a second
/// run of the campaign holds it for the whole run.
const LOCK_WAIT: std::time::Duration = std::time::Duration::from_secs(1);

/// Open (or create) a campaign checkpoint: the chunks it holds, the
/// chunks it is missing, and the log that appends to it. A new file is
/// created whole, header and fingerprint, by writing a temporary file
/// and renaming it, so a kill never leaves a torn header. The file is
/// locked for the life of the run, so a second process on the same
/// campaign fails, after waiting up to [`LOCK_WAIT`] for the lock,
/// instead of appending duplicate chunks.
fn open_checkpoint(
    path: &Path,
    fingerprint: u64,
    trials: u64,
) -> io::Result<(Chunks, ChunkSet, CheckpointLog)> {
    let named = |e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", path.display()));
    let open = || OpenOptions::new().read(true).append(true).open(path);
    let mut file = match open() {
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
            let header = format!("{CHECKPOINT_HEADER}\nfingerprint={fingerprint:016x}\n");
            std::fs::write(&tmp, header).map_err(named)?;
            std::fs::rename(&tmp, path).map_err(named)?;
            open()
        }
        opened => opened,
    }
    .map_err(named)?;
    let deadline = Instant::now() + LOCK_WAIT;
    let locked = loop {
        match file.try_lock() {
            Err(TryLockError::WouldBlock) if Instant::now() < deadline => {
                std::thread::sleep(LOCK_WAIT / 100);
            }
            locked => break locked,
        }
    };
    locked.map_err(|e| match e {
        TryLockError::WouldBlock => io::Error::new(
            io::ErrorKind::WouldBlock,
            format!(
                "{}: another process is running this campaign",
                path.display()
            ),
        ),
        TryLockError::Error(e) => named(e),
    })?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes).map_err(named)?;
    let (chunks, missing, whole) =
        parse_checkpoint(&bytes, fingerprint, trials).map_err(|(line, why)| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}:{line}: {why}", path.display()),
            )
        })?;
    if whole < bytes.len() {
        file.set_len(whole as u64).map_err(named)?;
    }
    let log = CheckpointLog {
        path: path.to_path_buf(),
        file: Mutex::new(file),
    };
    Ok((chunks, ChunkSet::Listed(missing), log))
}

/// Parse a checkpoint file's bytes: the chunks it holds, the ascending
/// chunk indices it is missing, and the length of its whole lines (less
/// than `bytes.len()` when the final line is torn). An error carries the
/// 1-based line number and what is wrong with that line.
fn parse_checkpoint(
    bytes: &[u8],
    fingerprint: u64,
    trials: u64,
) -> Result<(Chunks, Vec<u64>, usize), (usize, String)> {
    let whole = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let mut lines = bytes[..whole].split(|&b| b == b'\n');
    lines.next_back(); // the empty slice after the final newline
    let mut lines = lines.enumerate().map(|(i, l)| (i + 1, l));
    let fp_line = format!("fingerprint={fingerprint:016x}");
    match lines.next() {
        Some((_, l)) if l == CHECKPOINT_HEADER.as_bytes() => {}
        _ => return Err((1, format!("expected the {CHECKPOINT_HEADER} header"))),
    }
    match lines.next() {
        Some((_, l)) if l == fp_line.as_bytes() => {}
        Some((no, l)) => {
            let found = utf8(no, l)?;
            return Err((
                no,
                format!("{found:?} does not match this campaign's {fp_line}"),
            ));
        }
        None => return Err((2, format!("expected {fp_line}"))),
    }
    let total = n_chunks(trials);
    let mut have = vec![false; total as usize];
    let mut chunks = Vec::new();
    for (no, line) in lines {
        let line = utf8(no, line)?;
        let (c, summary) = line
            .strip_prefix("chunk=")
            .and_then(|rest| rest.split_once(' '))
            .ok_or_else(|| (no, "expected `chunk=C <mc1 record>`".to_string()))?;
        let c = farm_des::compact::parse_uint(c)
            .ok_or_else(|| (no, format!("bad chunk index {c:?}")))?;
        if c >= total {
            return Err((
                no,
                format!("chunk {c} is past the campaign's {total} chunks"),
            ));
        }
        if std::mem::replace(&mut have[c as usize], true) {
            return Err((no, format!("duplicate chunk {c}")));
        }
        let summary = McSummary::from_compact(summary).map_err(|e| (no, e))?;
        let (lo, hi) = chunk_bounds(c, trials);
        if summary.trials() != hi - lo {
            return Err((
                no,
                format!(
                    "chunk {c} holds {} trials, not {}",
                    summary.trials(),
                    hi - lo
                ),
            ));
        }
        chunks.push((c, summary));
    }
    let missing = (0..total).filter(|&c| !have[c as usize]).collect();
    Ok((chunks, missing, whole))
}

fn utf8(no: usize, line: &[u8]) -> Result<&str, (usize, String)> {
    std::str::from_utf8(line).map_err(|_| (no, "not UTF-8".to_string()))
}

/// Open `path` for this batch's artifact output; warn once under `key`
/// (and write nothing) when it cannot be opened.
fn open_or_warn(path: &str, key: &str, what: &str) -> Option<(std::fs::File, bool, u64)> {
    farm_obs::open_batch_file(path)
        .map_err(|e| diag::warn_once(key, &format!("cannot open {what} {path:?}: {e}")))
        .ok()
}

/// Write the batch's telemetry artifacts: timeline bands, post-mortem
/// JSONL, recovery spans, the trace of the sampled trial or of every
/// losing trial. Artifacts are sorted by trial index first, so the
/// files are bit-identical regardless of how the trials were scheduled
/// across worker threads.
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
        let mut traces = artifacts
            .iter()
            .filter_map(|(_, a)| a.trace.as_deref())
            .peekable();
        // A loss-trace sink is opened even when no trial lost data (the
        // first batch truncates stale output); a trial-N sink only when
        // trial N committed.
        if spec.sel == TraceSel::Loss || traces.peek().is_some() {
            match &spec.path {
                Some(p) => {
                    if let Some((mut f, _, _)) = open_or_warn(p, "trace-open", "trace sink") {
                        for tr in traces {
                            let _ = f.write_all(tr.as_bytes());
                        }
                    }
                }
                None => {
                    let mut err = std::io::stderr().lock();
                    for tr in traces {
                        let _ = err.write_all(tr.as_bytes());
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

    /// The committed chunks of `set` in a campaign of `trials` trials.
    fn run_set(seed: u64, trials: u64, set: ChunkSet, threads: usize) -> Vec<(u64, McSummary)> {
        let prepared = Arc::new(PreparedConfig::new(tiny()));
        let obs = ObsOptions::off();
        run_chunk_set(
            &prepared,
            seed,
            trials,
            &set,
            TrialMode::Full,
            threads,
            &obs,
            None,
            None,
            None,
        )
        .unwrap()
        .chunks
    }

    /// A scratch directory unique to this process and test.
    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("farm-mc-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn chunked_worker_fold_matches_single_process() {
        // Any split of the chunks into sets folds to the same bits:
        // 26 trials = 4 chunks, split {0, 2} + {1, 3}.
        let cfg = tiny();
        let (whole, _) = run_trials_observed(&cfg, 11, 26, TrialMode::Full, 2, &ObsOptions::off());
        let mut chunks = run_set(11, 26, ChunkSet::Listed(vec![0, 2]), 1);
        chunks.extend(run_set(11, 26, ChunkSet::Listed(vec![1, 3]), 2));
        let folded = fold_chunk_summaries(chunks, n_chunks(26)).unwrap();
        assert_eq!(folded.to_compact(), whole.to_compact());
    }

    #[test]
    fn fold_rejects_gaps_and_duplicates() {
        let chunks = run_set(11, 16, ChunkSet::Range(0..2), 1);
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
        // A checkpointed run folds chunks it did not build, so recorders
        // whose output would cover only part of the campaign are never
        // attached: the result and the checkpoint equal an all-off
        // run's bit for bit, every chunk runs despite the stop target,
        // and no artifact file appears.
        let cfg = tiny();
        let (dir_off, dir_on) = (scratch("quiet"), scratch("noisy"));
        let (timeline, spans) = (dir_on.join("timeline.csv"), dir_on.join("spans.jsonl"));
        let noisy = ObsOptions {
            profile: true,
            timeline: Some(farm_obs::TimelineSpec {
                path: timeline.to_string_lossy().into_owned(),
                interval_secs: None,
            }),
            spans: Some(farm_obs::SpansSpec {
                path: spans.to_string_lossy().into_owned(),
                format: SpanFormat::Jsonl,
            }),
            target_rel_ci: Some(0.5),
            ..ObsOptions::off()
        };
        let run = |obs: &ObsOptions, dir: &Path| {
            run_trials_checkpointed(&cfg, 11, 26, TrialMode::Full, 2, obs, dir).unwrap()
        };
        let off = run(&ObsOptions::off(), &dir_off);
        let on = run(&noisy, &dir_on);
        assert_eq!(on.trials(), 26);
        assert_eq!(off.to_compact(), on.to_compact());
        let fp = campaign_fingerprint(&cfg, 11, 26, TrialMode::Full);
        let lines = |dir: &Path| {
            let body = std::fs::read_to_string(checkpoint_path(dir, fp)).unwrap();
            let mut lines: Vec<String> = body.lines().map(str::to_string).collect();
            lines.sort();
            lines
        };
        assert_eq!(lines(&dir_off), lines(&dir_on));
        assert!(!timeline.exists(), "timeline written");
        assert!(!spans.exists(), "spans written");
        let _ = std::fs::remove_dir_all(&dir_off);
        let _ = std::fs::remove_dir_all(&dir_on);
    }

    #[test]
    fn checkpoint_write_error_names_the_file() {
        // The log's file is open read-only, so the first committed
        // chunk's write fails and the run ends with an error naming the
        // path rather than a warning.
        let dir = scratch("ro");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint.txt");
        std::fs::write(&path, "").unwrap();
        let log = CheckpointLog {
            path: path.clone(),
            file: Mutex::new(File::open(&path).unwrap()),
        };
        let prepared = Arc::new(PreparedConfig::new(tiny()));
        let err = run_chunk_set(
            &prepared,
            11,
            64,
            &ChunkSet::Range(0..8),
            TrialMode::Full,
            2,
            &ObsOptions::off(),
            None,
            None,
            Some(&log),
        )
        .err()
        .expect("a read-only checkpoint cannot be written");
        assert!(err.to_string().contains(&*path.to_string_lossy()), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chunk_sets_map_claims_to_chunks() {
        let range = ChunkSet::Range(1..4);
        assert_eq!(range.len(), 3);
        assert_eq!(
            (range.get(0), range.get(2), range.get(3)),
            (Some(1), Some(3), None)
        );
        let listed = ChunkSet::Listed(vec![0, 3]);
        assert_eq!((listed.get(1), listed.get(2)), (Some(3), None));
        // 26 trials: chunks 0..=2 hold 8 each, chunk 3 holds 2.
        assert_eq!(listed.trials(26), 10);
        assert_eq!(range.trials(26), 18);
    }

    #[test]
    fn torn_final_line_is_dropped_and_truncated() {
        let dir = scratch("torn");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint.txt");
        let line = format!(
            "chunk=1 {}\n",
            run_set(3, 16, ChunkSet::Range(1..2), 1)[0].1.to_compact()
        );
        let whole = format!("{CHECKPOINT_HEADER}\nfingerprint={:016x}\n{line}", 9);
        std::fs::write(&path, format!("{whole}chunk=0 mc1|p_lo")).unwrap();
        let (chunks, missing, log) = open_checkpoint(&path, 9, 16).unwrap();
        assert_eq!(chunks.iter().map(|&(c, _)| c).collect::<Vec<_>>(), [1]);
        assert_eq!((missing.len(), missing.get(0)), (1, Some(0)));
        drop(log);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), whole);
        // A line that is not UTF-8 is an error with its line number.
        let mut bytes = whole.clone().into_bytes();
        bytes.extend_from_slice(b"chunk=0 \xff\n");
        std::fs::write(&path, bytes).unwrap();
        let err = open_checkpoint(&path, 9, 16).err().unwrap().to_string();
        assert!(err.contains("checkpoint.txt:4: not UTF-8"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_second_run_on_a_locked_checkpoint_fails() {
        // Two processes appending to one checkpoint would duplicate
        // chunks; the lock turns the second into an error up front.
        let dir = scratch("locked");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint.txt");
        let (_, missing, held) = open_checkpoint(&path, 1, 16).unwrap();
        assert_eq!(missing.len(), 2);
        let t0 = Instant::now();
        let err = open_checkpoint(&path, 1, 16)
            .err()
            .expect("checkpoint is locked");
        assert!(t0.elapsed() >= LOCK_WAIT, "gave up before the wait");
        let msg = err.to_string();
        assert!(msg.contains("another process"), "{msg}");
        assert!(msg.contains(&path.display().to_string()), "{msg}");
        drop(held);
        assert!(open_checkpoint(&path, 1, 16).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_lock_released_within_the_wait_lets_the_run_proceed() {
        // A lock held briefly, as by a child forked while the checkpoint
        // was open, is waited out.
        let dir = scratch("briefly-locked");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint.txt");
        let (_, _, held) = open_checkpoint(&path, 1, 16).unwrap();
        let release = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(100));
            drop(held);
        });
        let (_, missing, _) = open_checkpoint(&path, 1, 16).expect("lock waited out");
        assert_eq!(missing.len(), 2);
        release.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
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
