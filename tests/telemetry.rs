//! Cluster-state telemetry contracts: timeline shape and determinism,
//! post-mortem causal chains, and loss-only tracing.
//!
//! Everything here rides on the observability invariant pinned by
//! `tests/observability.rs` — telemetry never changes results — and
//! checks the artifacts themselves: row counts, cross-thread file
//! identity, and that a post-mortem's chain ends in the exact event
//! that dropped the group below `m`.

use farm_core::prelude::*;
use farm_disk::latent::LatentConfig;
use farm_obs::{ObsOptions, TimelineSpec, TraceSel, TraceSpec, GAUGES, N_GAUGES};

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

/// Two-way mirroring with unscrubbed latent sector errors loses data
/// reliably — the source of guaranteed post-mortems.
fn lossy() -> SystemConfig {
    SystemConfig {
        scheme: Scheme::two_way_mirroring(),
        group_user_bytes: 10 * GIB,
        latent: Some(LatentConfig {
            defects_per_drive_year: 1.0,
            scrub_interval: None,
        }),
        ..tiny()
    }
}

fn tmp_path(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!("farm-telemetry-{tag}-{}", std::process::id()))
        .to_str()
        .unwrap()
        .to_string()
}

fn obs_with_timeline(path: &str, interval_secs: Option<f64>) -> ObsOptions {
    ObsOptions {
        timeline: Some(TimelineSpec {
            path: path.to_string(),
            interval_secs,
        }),
        ..ObsOptions::off()
    }
}

#[test]
fn timeline_rows_follow_the_documented_schema() {
    let cfg = tiny();
    let path = tmp_path("schema.csv");
    // One sample per simulated month over the 6-year horizon.
    let month = farm_des::time::SECONDS_PER_MONTH;
    let obs = obs_with_timeline(&path, Some(month));
    let n_samples = (cfg.sim_duration().as_secs() / month).floor() as usize;
    assert_eq!(n_samples, 72, "6 years of monthly samples");

    run_trials_observed(&cfg, 2004, 3, TrialMode::Full, 1, &obs);
    let body = std::fs::read_to_string(&path).expect("timeline written");
    std::fs::remove_file(&path).ok();

    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(
        lines[0],
        "batch,sample,t_secs,gauge,trials,mean,p10,p90,min,max"
    );
    // Row count: one line per (sample instant, gauge), every trial
    // contributing duration/interval rows.
    assert_eq!(lines.len(), 1 + n_samples * N_GAUGES);
    for (i, line) in lines[1..].iter().enumerate() {
        let f: Vec<&str> = line.split(',').collect();
        assert_eq!(f.len(), 10, "field count: {line}");
        assert_eq!(f[0], "0", "single batch: {line}");
        // Samples are contiguous, 1-based, with all gauges per sample.
        assert_eq!(f[1].parse::<usize>().unwrap(), i / N_GAUGES + 1, "{line}");
        assert_eq!(f[3], GAUGES[i % N_GAUGES], "{line}");
        assert_eq!(f[4], "3", "every trial pooled: {line}");
        let t: f64 = f[2].parse().unwrap();
        assert!(
            (t - (i / N_GAUGES + 1) as f64 * month).abs() < 1e-6,
            "{line}"
        );
        let (mean, p10, p90) = (
            f[5].parse::<f64>().unwrap(),
            f[6].parse::<f64>().unwrap(),
            f[7].parse::<f64>().unwrap(),
        );
        let (min, max) = (f[8].parse::<f64>().unwrap(), f[9].parse::<f64>().unwrap());
        assert!(min <= p10 && p10 <= p90 && p90 <= max, "band order: {line}");
        assert!((0.0..=max).contains(&mean), "mean in range: {line}");
    }
}

#[test]
fn telemetry_files_are_identical_across_thread_counts() {
    // Artifacts are merged in trial order, so the exported files are
    // bit-identical no matter how trials were scheduled over workers.
    let cfg = lossy();
    let (tl_seq, tl_par) = (tmp_path("seq.csv"), tmp_path("par.csv"));
    let (pm_seq, pm_par) = (tmp_path("seq.jsonl"), tmp_path("par.jsonl"));
    let mk = |tl: &str, pm: &str| ObsOptions {
        postmortem: Some(pm.to_string()),
        ..obs_with_timeline(tl, None)
    };
    let (a, _) = run_trials_observed(&cfg, 42, 8, TrialMode::Full, 1, &mk(&tl_seq, &pm_seq));
    let (b, _) = run_trials_observed(&cfg, 42, 8, TrialMode::Full, 4, &mk(&tl_par, &pm_par));
    assert_eq!(a.p_loss.successes, b.p_loss.successes);

    let read = |p: &str| {
        let s = std::fs::read_to_string(p).expect("artifact written");
        std::fs::remove_file(p).ok();
        s
    };
    assert_eq!(
        read(&tl_seq),
        read(&tl_par),
        "timeline differs by thread count"
    );
    assert_eq!(
        read(&pm_seq),
        read(&pm_par),
        "post-mortems differ by thread count"
    );
}

#[test]
fn timeline_artifact_is_byte_identical_for_recycled_workspaces() {
    // Workspace recycling must not disturb telemetry: the rendered
    // timeline body built from recycled simulations equals, byte for
    // byte, the one built from freshly constructed simulations.
    use farm_core::{PreparedConfig, TrialObserver};
    use farm_obs::TimelineBands;
    use std::sync::Arc;

    let cfg = lossy();
    let month = farm_des::time::SECONDS_PER_MONTH;
    // The observer only records rows; the runner would write the path.
    let obs = obs_with_timeline("", Some(month));

    let prepared = Arc::new(PreparedConfig::new(cfg.clone()));
    let timeline = |sim: &mut Simulation, t: u64| {
        sim.attach(TrialObserver::for_trial(&obs, &prepared, t).expect("timeline requested"));
        let _ = sim.run();
        let (a, _) = sim.detach().expect("observer attached");
        a.timeline.expect("timeline")
    };
    let mut ws = farm_core::TrialWorkspace::new();
    let mut recycled_bands = TimelineBands::new();
    let mut fresh_bands = TimelineBands::new();
    for t in 0..4u64 {
        let seed = farm_des::rng::derive_seed(42, t);
        recycled_bands.add_trial(&timeline(ws.obtain(&prepared, seed), t));
        fresh_bands.add_trial(&timeline(&mut Simulation::new(cfg.clone(), seed), t));
    }
    assert_eq!(
        recycled_bands.render(0, false, true),
        fresh_bands.render(0, false, true),
        "recycled timeline artifact diverges from fresh"
    );
}

#[test]
fn postmortem_chain_ends_in_the_fatal_event() {
    let cfg = lossy();
    let path = tmp_path("pm.jsonl");
    let obs = ObsOptions {
        postmortem: Some(path.clone()),
        ..ObsOptions::off()
    };
    let (summary, _) = run_trials_observed(&cfg, 42, 8, TrialMode::Full, 2, &obs);
    let body = std::fs::read_to_string(&path).expect("post-mortems written");
    std::fs::remove_file(&path).ok();

    assert!(summary.p_loss.successes > 0, "lossy config must lose data");
    let lines: Vec<&str> = body.lines().collect();
    assert!(!lines.is_empty(), "losses must produce post-mortems");
    for line in &lines {
        assert!(
            line.starts_with("{\"trial\":") && line.ends_with("]}"),
            "{line}"
        );
        // The chain's last event must be the one that dropped the
        // group below m: a `failure` for cause disk_failure, a
        // `latent` read trip for cause latent_read_error.
        let cause = line
            .split("\"cause\":\"")
            .nth(1)
            .and_then(|s| s.split('"').next())
            .expect("cause field");
        let last_ev = line
            .rsplit("\"ev\":\"")
            .next()
            .and_then(|s| s.split('"').next())
            .expect("chain events");
        match cause {
            "disk_failure" => assert_eq!(last_ev, "failure", "{line}"),
            "latent_read_error" => assert_eq!(last_ev, "latent", "{line}"),
            other => panic!("unknown cause {other:?}: {line}"),
        }
        assert!(line.contains("\"chain\":[{"), "chain is non-empty: {line}");
    }
}

#[test]
fn loss_trace_mode_keeps_exactly_the_losing_trials() {
    let cfg = lossy();
    let path = tmp_path("loss-trace.jsonl");
    let obs = ObsOptions {
        trace: Some(TraceSpec {
            sel: TraceSel::Loss,
            path: Some(path.clone()),
        }),
        ..ObsOptions::off()
    };
    let trials = 8;
    let (summary, _) = run_trials_observed(&cfg, 42, trials, TrialMode::Full, 2, &obs);
    let body = std::fs::read_to_string(&path).expect("loss traces written");
    std::fs::remove_file(&path).ok();

    // Every trace ends in a trial_end record reporting lost groups, and
    // the set of traced trials is exactly the set of losing trials.
    let mut traced = std::collections::BTreeSet::new();
    let mut ends = 0u64;
    for line in body.lines() {
        let trial: u64 = line
            .strip_prefix("{\"trial\":")
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.parse().ok())
            .expect("trial field");
        traced.insert(trial);
        if line.contains("\"ev\":\"trial_end\"") {
            ends += 1;
            assert!(
                !line.contains("\"lost_groups\":0"),
                "non-losing trial kept: {line}"
            );
        }
    }
    assert!(summary.p_loss.successes > 0, "lossy config must lose data");
    assert_eq!(traced.len() as u64, summary.p_loss.successes);
    assert_eq!(
        ends, summary.p_loss.successes,
        "one trial_end per losing trial"
    );
}

#[test]
fn full_telemetry_never_changes_the_lossy_summary() {
    // The golden bit-identity test for the loss-heavy path: timeline +
    // flight recorder + post-mortems + loss tracing all on.
    let cfg = lossy();
    let tl = tmp_path("golden.csv");
    let pm = tmp_path("golden-pm.jsonl");
    let tr = tmp_path("golden-tr.jsonl");
    let on = ObsOptions {
        profile: true,
        trace: Some(TraceSpec {
            sel: TraceSel::Loss,
            path: Some(tr.clone()),
        }),
        postmortem: Some(pm.clone()),
        ..obs_with_timeline(&tl, None)
    };
    let (base, _) = run_trials_observed(&cfg, 7, 6, TrialMode::Full, 1, &ObsOptions::off());
    let (full, _) = run_trials_observed(&cfg, 7, 6, TrialMode::Full, 1, &on);
    for p in [&tl, &pm, &tr] {
        std::fs::remove_file(p).ok();
    }
    assert_eq!(base.trials(), full.trials());
    assert_eq!(base.p_loss.successes, full.p_loss.successes);
    assert_eq!(
        base.failures.mean().to_bits(),
        full.failures.mean().to_bits()
    );
    assert_eq!(base.events.mean().to_bits(), full.events.mean().to_bits());
    // Compact histogram forms are lossless: string equality is bit
    // equality of the whole distribution.
    assert_eq!(
        base.vulnerability.to_compact(),
        full.vulnerability.to_compact()
    );
    assert_eq!(base.queue_delay.to_compact(), full.queue_delay.to_compact());
    assert_eq!(base.fanout.to_compact(), full.fanout.to_compact());
}

/// FNV-1a (64-bit) of an artifact file's bytes; removes the file.
fn file_digest(path: &str) -> u64 {
    let bytes = std::fs::read(path).expect("artifact written");
    std::fs::remove_file(path).ok();
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn artifact_bytes_match_the_pinned_digests() {
    // The other tests compare obs-on with obs-off metrics and artifacts
    // across thread counts; this pins the artifact bytes themselves, so
    // a refactor of the recorder plumbing cannot change a record. (Both
    // traces include trials that lose groups to latent read errors, so
    // they carry those losses' `loss` records.)
    use farm_obs::{SpanFormat, SpansSpec};
    let cfg = lossy();
    let run = |tag: &str, obs: &dyn Fn(String) -> ObsOptions| {
        let path = tmp_path(&format!("digest-{tag}"));
        run_trials_observed(&cfg, 42, 6, TrialMode::Full, 2, &obs(path.clone()));
        (tag.to_string(), file_digest(&path))
    };
    let spans = |path: String, format: SpanFormat| ObsOptions {
        spans: Some(SpansSpec { path, format }),
        ..ObsOptions::off()
    };
    let trace = |path: String, sel: TraceSel| ObsOptions {
        trace: Some(TraceSpec {
            sel,
            path: Some(path),
        }),
        ..ObsOptions::off()
    };
    let got = vec![
        run("timeline.csv", &|p| obs_with_timeline(&p, None)),
        run("postmortem.jsonl", &|p| ObsOptions {
            postmortem: Some(p),
            ..ObsOptions::off()
        }),
        run("spans.jsonl", &|p| spans(p, SpanFormat::Jsonl)),
        run("spans.json", &|p| spans(p, SpanFormat::Chrome)),
        run("trial-trace.jsonl", &|p| trace(p, TraceSel::Trial(1))),
        run("loss-trace.jsonl", &|p| trace(p, TraceSel::Loss)),
    ];
    let want: Vec<(String, u64)> = [
        ("timeline.csv", 0x7d4c_90e1_71f4_189e),
        ("postmortem.jsonl", 0x739f_07f9_332f_22b5),
        ("spans.jsonl", 0x41c1_cd66_0ac1_e1c6),
        ("spans.json", 0x3cbc_d4b9_2c13_87c9),
        ("trial-trace.jsonl", 0xd785_f887_168a_24d0),
        ("loss-trace.jsonl", 0x5dd9_8048_9ab9_7e5e),
    ]
    .iter()
    .map(|&(tag, d)| (tag.to_string(), d))
    .collect();
    assert_eq!(got, want, "artifact bytes changed");
}

#[test]
fn trial_trace_keeps_every_batch_of_a_process() {
    // A sweep binary runs one batch per configuration point, each tracing
    // the same trial index into the same file: every batch's trace must
    // survive, not only the last one's.
    let path = tmp_path("trial-trace-batches.jsonl");
    let obs = ObsOptions {
        trace: Some(TraceSpec {
            sel: TraceSel::Trial(1),
            path: Some(path.clone()),
        }),
        ..ObsOptions::off()
    };
    for seed in [42, 43] {
        run_trials_observed(&lossy(), seed, 2, TrialMode::Full, 1, &obs);
    }
    let body = std::fs::read_to_string(&path).expect("trace written");
    std::fs::remove_file(&path).ok();
    let ends = body
        .lines()
        .filter(|l| l.contains("\"ev\":\"trial_end\""))
        .count();
    assert_eq!(ends, 2, "one trial_end per batch");
}

#[test]
fn loss_trace_has_one_loss_record_per_lost_group() {
    // Both loss causes (a disk failure and a latent read error during a
    // rebuild) write a `loss` record, so in file order the records
    // before each trial_end count exactly its lost groups.
    let cfg = lossy();
    let path = tmp_path("loss-count.jsonl");
    let obs = ObsOptions {
        trace: Some(TraceSpec {
            sel: TraceSel::Loss,
            path: Some(path.clone()),
        }),
        ..ObsOptions::off()
    };
    run_trials_observed(&cfg, 2004, 8, TrialMode::Full, 2, &obs);
    let body = std::fs::read_to_string(&path).expect("loss traces written");
    std::fs::remove_file(&path).ok();
    let (mut losses, mut ends) = (0u64, 0u64);
    for line in body.lines() {
        if line.contains("\"ev\":\"loss\"") {
            losses += 1;
        } else if line.contains("\"ev\":\"trial_end\"") {
            let lost: u64 = line
                .split("\"lost_groups\":")
                .nth(1)
                .and_then(|s| s.trim_end_matches('}').parse().ok())
                .expect("lost_groups field");
            assert_eq!(losses, lost, "loss records before {line}");
            losses = 0;
            ends += 1;
        }
    }
    assert!(ends > 0, "lossy config must lose data");
    assert_eq!(losses, 0, "loss records after the last trial_end");
}

#[test]
fn trial_trace_is_written_only_for_a_committed_trial() {
    // A trial-N trace lands with the batch's other artifacts, so under a
    // `--target-rel-ci` stop it exists exactly when trial N is inside
    // the committed prefix. Workers run some trials past the stop before
    // they see it (which ones depends on scheduling), so every trial of
    // the next three chunks is tried.
    let cfg = lossy();
    let (total, threads) = (2048, 2);
    let stop = |trace: Option<TraceSpec>| ObsOptions {
        target_rel_ci: Some(0.75),
        trace,
        ..ObsOptions::off()
    };
    let (summary, _) = run_trials_observed(&cfg, 7, total, TrialMode::Full, threads, &stop(None));
    let s = summary.trials();
    assert!(s < total, "the rule never triggered in {total} trials");
    for trial in s - 1..s + 3 * farm_core::montecarlo::CHUNK_TRIALS {
        let path = tmp_path(&format!("committed-trace-{trial}.jsonl"));
        let spec = TraceSpec {
            sel: TraceSel::Trial(trial),
            path: Some(path.clone()),
        };
        let obs = stop(Some(spec));
        let (traced, _) = run_trials_observed(&cfg, 7, total, TrialMode::Full, threads, &obs);
        assert_eq!(traced.trials(), s, "tracing moved the stop");
        let body = std::fs::read_to_string(&path).ok();
        std::fs::remove_file(&path).ok();
        if trial < s {
            let body = body.expect("committed trial traced");
            let ends: Vec<&str> = body
                .lines()
                .filter(|l| l.contains("\"ev\":\"trial_end\""))
                .collect();
            assert_eq!(ends.len(), 1, "{body}");
            assert!(
                ends[0].starts_with(&format!("{{\"trial\":{trial},")),
                "{}",
                ends[0]
            );
        } else {
            assert_eq!(body, None, "trial {trial} is past the {s}-trial prefix");
        }
    }
}
