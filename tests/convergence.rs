//! Convergence-stream and sequential-stopping golden tests: turning
//! the stream on never changes simulation results by a bit, the final
//! JSONL record agrees with the batch summary exactly, the stream is
//! byte-identical across thread counts, and `--target-rel-ci` stops at
//! the same boundary-aligned trial count no matter how the workers are
//! scheduled — with the stopped run a bit-identical prefix of the
//! unstopped one.

use farm_bench::json::Json;
use farm_core::prelude::*;
use farm_des::stats::Running;
use farm_obs::{ConvergenceSpec, ObsOptions};

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

fn conv_obs(path: &std::path::Path, target: Option<f64>) -> ObsOptions {
    ObsOptions {
        convergence: Some(ConvergenceSpec {
            path: path.to_str().unwrap().to_string(),
            base_trials: Some(8),
        }),
        target_rel_ci: target,
        ..ObsOptions::off()
    }
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("farm-conv-{name}-{}.jsonl", std::process::id()))
}

fn assert_running_identical(a: &Running, b: &Running, what: &str) {
    assert_eq!(a.count(), b.count(), "{what}: count");
    assert_eq!(a.mean().to_bits(), b.mean().to_bits(), "{what}: mean");
    assert_eq!(a.min().to_bits(), b.min().to_bits(), "{what}: min");
    assert_eq!(a.max().to_bits(), b.max().to_bits(), "{what}: max");
}

fn assert_summaries_identical(a: &McSummary, b: &McSummary) {
    assert_eq!(a.trials(), b.trials());
    assert_eq!(a.p_loss.successes, b.p_loss.successes);
    assert_eq!(a.p_redirection.successes, b.p_redirection.successes);
    assert_running_identical(&a.failures, &b.failures, "failures");
    assert_running_identical(&a.rebuilds, &b.rebuilds, "rebuilds");
    assert_running_identical(&a.redirections, &b.redirections, "redirections");
    assert_running_identical(&a.lost_groups, &b.lost_groups, "lost_groups");
    assert_running_identical(&a.events, &b.events, "events");
    assert_eq!(a.vulnerability.to_compact(), b.vulnerability.to_compact());
    assert_eq!(a.queue_delay.to_compact(), b.queue_delay.to_compact());
    assert_eq!(a.fanout.to_compact(), b.fanout.to_compact());
}

/// A deliberately fragile variant of [`tiny`]: detection takes a week
/// and rebuilds crawl, so mirror pairs overlap in their vulnerability
/// windows often enough that the stopping rule has losses to work with.
fn lossy() -> SystemConfig {
    SystemConfig {
        detection_latency: Duration::from_secs(7.0 * 86400.0),
        recovery_bandwidth: 64 * 1024,
        ..tiny()
    }
}

/// Parse every line of a convergence stream and sanity-check the fixed
/// envelope (schema, config label, monotone trials, exactly one final).
fn parse_stream(path: &std::path::Path) -> Vec<Json> {
    let body = std::fs::read_to_string(path).expect("convergence stream written");
    let rows: Vec<Json> = body
        .lines()
        .map(|l| Json::parse(l).expect("stream line parses"))
        .collect();
    assert!(!rows.is_empty(), "empty convergence stream");
    for row in &rows {
        assert_eq!(
            row.get("schema").and_then(|s| s.as_str()),
            Some("farm-convergence-v1")
        );
    }
    let trials: Vec<f64> = rows
        .iter()
        .map(|r| r.get("trials").and_then(|t| t.as_f64()).unwrap())
        .collect();
    assert!(
        trials.windows(2).all(|w| w[1] > w[0]),
        "non-monotone checkpoint trials: {trials:?}"
    );
    let finals = rows
        .iter()
        .filter(|r| r.get("final") == Some(&Json::Bool(true)))
        .count();
    assert_eq!(finals, 1, "exactly one final record");
    assert_eq!(rows.last().unwrap().get("final"), Some(&Json::Bool(true)));
    rows
}

#[test]
fn golden_results_identical_with_stream_on() {
    let cfg = tiny();
    let path = tmp("golden");
    let off = ObsOptions::off();
    let on = conv_obs(&path, None);
    // Single-threaded so the comparison is exact to the bit.
    let (base, _) = run_trials_observed(&cfg, 2004, 6, TrialMode::Full, 1, &off);
    let (streamed, _) = run_trials_observed(&cfg, 2004, 6, TrialMode::Full, 1, &on);
    std::fs::remove_file(&path).ok();
    assert_summaries_identical(&base, &streamed);
}

#[test]
fn final_record_agrees_with_batch_summary_exactly() {
    let cfg = lossy();
    let path = tmp("final");
    let (summary, _) =
        run_trials_observed(&cfg, 11, 192, TrialMode::Full, 2, &conv_obs(&path, None));
    let rows = parse_stream(&path);
    std::fs::remove_file(&path).ok();
    let last = rows.last().unwrap();
    assert_eq!(
        last.get("trials").and_then(|t| t.as_f64()),
        Some(summary.trials() as f64)
    );
    assert_eq!(
        last.get("losses").and_then(|l| l.as_f64()),
        Some(summary.p_loss.successes as f64)
    );
    // `jnum` renders shortest-roundtrip floats, so parsed == computed.
    let p = last.get("p_loss").and_then(|p| p.as_f64()).unwrap();
    assert_eq!(
        p.to_bits(),
        summary.p_loss.value().to_bits(),
        "final streamed p_loss must equal the batch summary exactly"
    );
    let (lo, hi) = summary.p_loss.wilson95();
    let slo = last.get("wilson95_lo").and_then(|v| v.as_f64()).unwrap();
    let shi = last.get("wilson95_hi").and_then(|v| v.as_f64()).unwrap();
    assert_eq!(slo.to_bits(), lo.to_bits());
    assert_eq!(shi.to_bits(), hi.to_bits());
}

#[test]
fn stream_bytes_identical_across_thread_counts() {
    let cfg = lossy();
    let p1 = tmp("threads-1");
    let p4 = tmp("threads-4");
    run_trials_observed(&cfg, 42, 100, TrialMode::Full, 1, &conv_obs(&p1, None));
    run_trials_observed(&cfg, 42, 100, TrialMode::Full, 4, &conv_obs(&p4, None));
    parse_stream(&p1);
    let a = std::fs::read(&p1).expect("stream (1 thread)");
    let b = std::fs::read(&p4).expect("stream (4 threads)");
    std::fs::remove_file(&p1).ok();
    std::fs::remove_file(&p4).ok();
    assert!(
        a == b,
        "convergence stream changed with the thread count:\n{}\nvs\n{}",
        String::from_utf8_lossy(&a),
        String::from_utf8_lossy(&b)
    );
}

/// The stopping rule: boundary-aligned, reproducible across runs and
/// thread counts, and the stopped run is a bit-identical prefix of the
/// unstopped one.
#[test]
fn target_rel_ci_stops_deterministically() {
    use farm_obs::STOP_CHECK_EVERY;
    let cfg = lossy();
    let total = 2048u64;
    let target = 0.75;

    let run = |threads: usize, name: &str| {
        let path = tmp(name);
        let (summary, _) = run_trials_observed(
            &cfg,
            7,
            total,
            TrialMode::Full,
            threads,
            &conv_obs(&path, Some(target)),
        );
        let rows = parse_stream(&path);
        std::fs::remove_file(&path).ok();
        (summary, rows)
    };

    let (stopped, rows) = run(1, "stop-a");
    let s = stopped.trials();
    assert!(s < total, "the rule never triggered in {total} trials");
    assert_eq!(s % STOP_CHECK_EVERY, 0, "stop at {s} is off-boundary");
    assert!(stopped.p_loss.successes > 0, "stopped with zero losses");
    // The final record reflects the stopped prefix.
    let last = rows.last().unwrap();
    assert_eq!(last.get("trials").and_then(|t| t.as_f64()), Some(s as f64));
    let rel = last.get("rel_half_width").and_then(|v| v.as_f64()).unwrap();
    assert!(rel <= target, "stopped at rel half-width {rel} > {target}");

    // Same stopped run, bit for bit, on a re-run and across thread
    // counts: every count commits through the same held-chunk path.
    let (again, _) = run(1, "stop-b");
    assert_summaries_identical(&stopped, &again);
    for (threads, name) in [(2, "stop-c"), (4, "stop-d")] {
        let (parallel, _) = run(threads, name);
        assert_eq!(parallel.trials(), s, "stop count depends on threads");
        assert_summaries_identical(&stopped, &parallel);
    }

    // Prefix exactness: an unstopped run of exactly `s` trials is the
    // same run, bit for bit.
    let (prefix, _) = run_trials_observed(&cfg, 7, s, TrialMode::Full, 1, &ObsOptions::off());
    assert_summaries_identical(&stopped, &prefix);
}

#[test]
fn zero_loss_config_never_stops() {
    // `tiny` saw zero losses in this range; the rule must run the full
    // batch and the stream must publish a null rel_half_width.
    let cfg = tiny();
    let path = tmp("zero-loss");
    let (summary, _) = run_trials_observed(
        &cfg,
        2004,
        96,
        TrialMode::Full,
        2,
        &conv_obs(&path, Some(0.5)),
    );
    let rows = parse_stream(&path);
    std::fs::remove_file(&path).ok();
    assert_eq!(summary.trials(), 96, "zero-loss batch was cut short");
    assert_eq!(summary.p_loss.successes, 0, "config is no longer loss-free");
    let last = rows.last().unwrap();
    assert_eq!(last.get("rel_half_width"), Some(&Json::Null));
    assert_eq!(last.get("losses").and_then(|l| l.as_f64()), Some(0.0));
}
