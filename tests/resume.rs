//! Checkpoint and resume, end to end: a campaign run through
//! `run_trials_checkpointed` — in process or as the real `fleet`
//! binary, killed with SIGKILL mid-run and started again — folds to
//! the bytes of one uninterrupted `run_trials_observed` run, runs only
//! the chunks its checkpoint is missing, and refuses a corrupt
//! checkpoint with an error naming the file.

use farm_bench::json::Json;
use farm_core::montecarlo::{
    campaign_fingerprint, checkpoint_path, n_chunks, run_trials_checkpointed, run_trials_observed,
};
use farm_core::prelude::*;
use farm_experiments::cli::Options;
use farm_experiments::fleet::fleet_config;
use farm_obs::ObsOptions;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration as StdDuration, Instant};

const SEED: u64 = 7;
const SCALE: f64 = 1.0 / 64.0;

fn opts(trials: u64, scale: f64) -> Options {
    let mut o = Options::quick_default();
    o.trials = trials;
    o.seed = SEED;
    o.scale = scale;
    o
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("farm-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One uninterrupted run's summary, compact form.
fn reference(trials: u64, scale: f64) -> String {
    let cfg = fleet_config(&opts(trials, scale));
    let off = ObsOptions::off();
    let (summary, _) = run_trials_observed(&cfg, SEED, trials, TrialMode::UntilLoss, 2, &off);
    summary.to_compact()
}

/// Held around every in-process checkpointed run and every child spawn
/// in this test binary. A child forked while a checkpoint is open holds
/// a copy of its locked descriptor until it execs, so a rerun of that
/// campaign in the window would read the lock as another process's.
static SPAWN_LOCK: Mutex<()> = Mutex::new(());

fn spawn_lock() -> MutexGuard<'static, ()> {
    SPAWN_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn checkpointed(seed: u64, trials: u64, threads: usize, dir: &Path) -> std::io::Result<McSummary> {
    let cfg = fleet_config(&opts(trials, SCALE));
    let off = ObsOptions::off();
    let _held = spawn_lock();
    run_trials_checkpointed(&cfg, seed, trials, TrialMode::UntilLoss, threads, &off, dir)
}

fn checkpoint_of(seed: u64, trials: u64, scale: f64, dir: &Path) -> PathBuf {
    let cfg = fleet_config(&opts(trials, scale));
    checkpoint_path(
        dir,
        campaign_fingerprint(&cfg, seed, trials, TrialMode::UntilLoss),
    )
}

fn chunk_lines(path: &Path) -> usize {
    let body = std::fs::read_to_string(path).unwrap_or_default();
    body.lines().filter(|l| l.starts_with("chunk=")).count()
}

/// The `fleet` binary on a campaign of `trials` trials in `dir`.
fn fleet(trials: u64, scale: f64, threads: usize, dir: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fleet"));
    cmd.args(["--trials", &trials.to_string(), "--seed", &SEED.to_string()])
        .args([
            "--scale",
            &scale.to_string(),
            "--threads",
            &threads.to_string(),
        ])
        .arg("--fleet")
        .arg(dir)
        .env("FARM_PROGRESS", "0")
        .env_remove("FARM_STATUS")
        .env_remove("FARM_HTTP")
        .env_remove("FARM_FLEET");
    cmd
}

fn spawn(cmd: &mut Command) -> Child {
    let _held = spawn_lock();
    cmd.spawn().expect("spawn fleet")
}

fn output(cmd: &mut Command) -> Output {
    spawn(cmd.stdout(Stdio::piped()).stderr(Stdio::piped()))
        .wait_with_output()
        .expect("wait for fleet")
}

/// (a) From an empty directory, at one and two threads, the result is
/// the uninterrupted run's bytes and the file holds every chunk once.
#[test]
fn fresh_campaign_matches_the_unchunked_run() {
    let trials = 36; // 5 chunks, the last partial
    let want = reference(trials, SCALE);
    for threads in [1, 2] {
        let dir = scratch(&format!("fresh{threads}"));
        let got = checkpointed(SEED, trials, threads, &dir).unwrap();
        assert_eq!(got.to_compact(), want, "{threads} thread(s)");
        let path = checkpoint_of(SEED, trials, SCALE, &dir);
        assert_eq!(chunk_lines(&path) as u64, n_chunks(trials));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// (b) A checkpoint holding chunks {0, 2} of 4 and a half-written
/// final line: the rerun builds chunks 1 and 3 only, leaves the kept
/// lines as they were, and writes the uninterrupted run's bytes.
#[test]
fn resume_runs_only_the_missing_chunks() {
    let trials = 32;
    let dir = scratch("subset");
    checkpointed(SEED, trials, 2, &dir).unwrap();
    let path = checkpoint_of(SEED, trials, SCALE, &dir);
    let body = std::fs::read_to_string(&path).unwrap();
    let line = |c: u64| {
        let prefix = format!("chunk={c} ");
        body.lines()
            .find(|l| l.starts_with(&prefix))
            .unwrap()
            .to_string()
    };
    let header: Vec<&str> = body.lines().take(2).collect();
    let kept = format!("{}\n{}\n{}\n", header.join("\n"), line(0), line(2));
    let torn = line(1);
    std::fs::write(&path, format!("{kept}{}", &torn[..torn.len() / 2])).unwrap();

    let status = dir.join("status.json");
    let out = output(
        fleet(trials, SCALE, 2, &dir).env("FARM_STATUS", format!("{}@0.05", status.display())),
    );
    assert!(out.status.success(), "fleet failed: {out:?}");
    let summary = std::fs::read_to_string(dir.join("fleet-summary.txt")).unwrap();
    assert_eq!(summary.trim(), reference(trials, SCALE));

    let after = std::fs::read_to_string(&path).unwrap();
    assert!(after.starts_with(&kept), "kept lines changed");
    assert_eq!(chunk_lines(&path), 4);
    let mut rest: Vec<&str> = after[kept.len()..].lines().collect();
    rest.sort_unstable();
    assert_eq!(rest, [line(1), line(3)]);

    // The final snapshot counts this run's 16 trials, not the campaign's.
    let doc = Json::parse(&std::fs::read_to_string(&status).unwrap()).unwrap();
    let count = |key: &str| doc.get(key).and_then(|v| v.as_f64());
    assert_eq!(count("trials_done"), Some(16.0));
    assert_eq!(count("trials_total"), Some(16.0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The real binary, uninterrupted from an empty directory at one and
/// two threads, writes byte-identical summary files equal to the
/// in-process run, and its final snapshot counts every trial once.
#[test]
fn fleet_binary_matches_the_in_process_run() {
    let trials = 36;
    let want = reference(trials, SCALE);
    let mut summaries = Vec::new();
    for threads in [1, 2] {
        let dir = scratch(&format!("bin{threads}"));
        let status = dir.join("status.json");
        let out = output(
            fleet(trials, SCALE, threads, &dir)
                .env("FARM_STATUS", format!("{}@0.05", status.display())),
        );
        assert!(out.status.success(), "fleet failed: {out:?}");
        let summary = std::fs::read_to_string(dir.join("fleet-summary.txt")).unwrap();
        assert_eq!(summary.trim(), want, "threads={threads}");
        let path = checkpoint_of(SEED, trials, SCALE, &dir);
        assert_eq!(chunk_lines(&path) as u64, n_chunks(trials));

        let doc = Json::parse(&std::fs::read_to_string(&status).unwrap()).unwrap();
        let count = |key: &str| doc.get(key).and_then(|v| v.as_f64());
        assert_eq!(count("trials_done"), Some(trials as f64));
        assert_eq!(count("trials_total"), Some(trials as f64));
        summaries.push(summary);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(summaries[0], summaries[1]);
}

/// (c) A bad middle line, a wrong fingerprint and a duplicate chunk are
/// each an error naming the file, never a silently partial result.
#[test]
fn corrupt_checkpoints_are_errors_naming_the_file() {
    let trials = 32;
    let dir = scratch("corrupt");
    checkpointed(SEED, trials, 2, &dir).unwrap();
    let path = checkpoint_of(SEED, trials, SCALE, &dir);
    let body = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = body.lines().collect();
    let name = path.to_string_lossy().into_owned();
    let rejects = |bad: Vec<&str>, why: &str| -> String {
        std::fs::write(&path, format!("{}\n", bad.join("\n"))).unwrap();
        let err = checkpointed(SEED, trials, 2, &dir).unwrap_err().to_string();
        assert!(err.contains(&name), "{why}: {err}");
        err
    };

    let mut middle = lines.clone();
    let cut = &lines[3][..lines[3].len() / 2];
    middle[3] = cut;
    let err = rejects(middle, "bad middle line");
    assert!(err.contains(&format!("{name}:4:")), "{err}");

    let other = campaign_fingerprint(
        &fleet_config(&opts(trials, SCALE)),
        SEED + 1,
        trials,
        TrialMode::UntilLoss,
    );
    let fp = format!("fingerprint={other:016x}");
    let mut wrong = lines.clone();
    wrong[1] = &fp;
    let err = rejects(wrong, "wrong fingerprint");
    assert!(err.contains("does not match"), "{err}");

    let dup = vec![lines[0], lines[1], lines[2], lines[2]];
    let err = rejects(dup, "duplicate chunk");
    assert!(err.contains("duplicate chunk"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Another campaign's checkpoint in the same directory is another file:
/// it is neither read nor touched.
#[test]
fn stale_checkpoint_from_other_campaign_is_ignored() {
    let trials = 16;
    let dir = scratch("stale");
    checkpointed(SEED + 1, trials, 1, &dir).unwrap();
    let stale = checkpoint_of(SEED + 1, trials, SCALE, &dir);
    let before = std::fs::read_to_string(&stale).unwrap();
    let got = checkpointed(SEED, trials, 1, &dir).unwrap();
    assert_eq!(got.to_compact(), reference(trials, SCALE));
    assert_eq!(std::fs::read_to_string(&stale).unwrap(), before);
    let _ = std::fs::remove_dir_all(&dir);
}

/// (d) The real binary on a campaign of a few seconds, SIGKILLed once
/// its checkpoint holds a chunk: fewer than all chunks survive, and the
/// rerun writes the uninterrupted run's bytes with every chunk once.
#[test]
fn killed_campaign_resumes_to_the_same_bytes() {
    let (trials, scale) = (1200, 1.0);
    let dir = scratch("killed");
    let path = checkpoint_of(SEED, trials, scale, &dir);
    let mut child = spawn(&mut fleet(trials, scale, 1, &dir));
    let deadline = Instant::now() + StdDuration::from_secs(120);
    while chunk_lines(&path) == 0 {
        assert!(Instant::now() < deadline, "no chunk line within 120 s");
        assert!(child.try_wait().unwrap().is_none(), "fleet exited early");
        std::thread::sleep(StdDuration::from_millis(5));
    }
    child.kill().unwrap();
    child.wait().unwrap();
    let survived = chunk_lines(&path) as u64;
    assert!(
        (1..n_chunks(trials)).contains(&survived),
        "{survived} of {} chunks survived the kill",
        n_chunks(trials)
    );
    assert!(!dir.join("fleet-summary.txt").exists());

    let out = output(&mut fleet(trials, scale, 2, &dir));
    assert!(out.status.success(), "resumed fleet failed: {out:?}");
    let summary = std::fs::read_to_string(dir.join("fleet-summary.txt")).unwrap();
    assert_eq!(summary.trim(), reference(trials, scale));
    assert_eq!(chunk_lines(&path) as u64, n_chunks(trials));
    let _ = std::fs::remove_dir_all(&dir);
}
