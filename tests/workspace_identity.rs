//! Workspace-recycling determinism contract: a trial run in a recycled
//! [`TrialWorkspace`] is bit-for-bit identical to one run in a freshly
//! constructed [`Simulation`]. This is what makes per-worker workspace
//! reuse a pure throughput optimization — every counter, every f64 (by
//! bits) and every histogram must match, across all six redundancy
//! schemes of Figure 3 and config changes between trials on the same
//! workspace.

use farm_core::prelude::*;
use farm_des::rng::derive_seed;
use farm_disk::latent::LatentConfig;
use std::sync::Arc;

fn base() -> SystemConfig {
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
/// reliably, exercising the loss and latent-RNG paths.
fn lossy() -> SystemConfig {
    SystemConfig {
        scheme: Scheme::two_way_mirroring(),
        group_user_bytes: 10 * GIB,
        latent: Some(LatentConfig {
            defects_per_drive_year: 1.0,
            scrub_interval: None,
        }),
        ..base()
    }
}

/// Fast-failing drives with batch replacement and erasure coding:
/// spares, migration and heavy event traffic.
fn stressed() -> SystemConfig {
    SystemConfig {
        scheme: Scheme::new(4, 6),
        hazard: farm_disk::failure::Hazard::table1().with_multiplier(4.0),
        replacement: ReplacementPolicy::at_fraction(0.04),
        ..base()
    }
}

fn assert_metrics_identical(a: &TrialMetrics, b: &TrialMetrics, what: &str) {
    assert_eq!(a.lost_groups, b.lost_groups, "{what}: lost_groups");
    assert_eq!(a.lost_user_bytes, b.lost_user_bytes, "{what}: lost bytes");
    assert_eq!(a.first_loss, b.first_loss, "{what}: first_loss");
    assert_eq!(a.disk_failures, b.disk_failures, "{what}: disk_failures");
    assert_eq!(
        a.rebuilds_completed, b.rebuilds_completed,
        "{what}: rebuilds"
    );
    assert_eq!(a.redirections, b.redirections, "{what}: redirections");
    assert_eq!(
        a.latent_read_errors, b.latent_read_errors,
        "{what}: latent reads"
    );
    assert_eq!(a.migrated_blocks, b.migrated_blocks, "{what}: migrations");
    assert_eq!(a.batches_added, b.batches_added, "{what}: batches");
    assert_eq!(
        a.events_processed, b.events_processed,
        "{what}: events_processed"
    );
    assert_eq!(a.no_targets, b.no_targets, "{what}: no_targets");
    assert_eq!(
        a.max_vulnerability_secs.to_bits(),
        b.max_vulnerability_secs.to_bits(),
        "{what}: max vulnerability"
    );
    assert_eq!(
        a.total_vulnerability_secs.to_bits(),
        b.total_vulnerability_secs.to_bits(),
        "{what}: total vulnerability"
    );
    assert_eq!(
        a.vulnerability.to_compact(),
        b.vulnerability.to_compact(),
        "{what}: vulnerability histogram"
    );
    assert_eq!(
        a.queue_delay.to_compact(),
        b.queue_delay.to_compact(),
        "{what}: queue-delay histogram"
    );
    assert_eq!(
        a.fanout.to_compact(),
        b.fanout.to_compact(),
        "{what}: fan-out histogram"
    );
}

/// Run `trials` on a deliberately dirtied workspace and compare each
/// against a fresh construction, trial by trial.
fn assert_recycled_matches_fresh(cfg: &SystemConfig, master_seed: u64, trials: u64, what: &str) {
    let prepared = Arc::new(PreparedConfig::new(cfg.clone()));
    let mut ws = TrialWorkspace::new();
    // Warm the workspace with an unrelated trial so every compared one
    // is genuinely recycled, never freshly constructed.
    let _ = ws.obtain(&prepared, derive_seed(0xD1B7, 0)).run();
    for t in 0..trials {
        let seed = derive_seed(master_seed, t);
        let recycled = ws.obtain(&prepared, seed).run();
        let fresh = Simulation::new(cfg.clone(), seed).run();
        assert_metrics_identical(&recycled, &fresh, &format!("{what}, trial {t}"));
    }
}

#[test]
fn recycled_trials_match_fresh_for_every_scheme_and_queue() {
    for scheme in Scheme::figure3_schemes() {
        let cfg = SystemConfig { scheme, ..base() };
        assert_recycled_matches_fresh(&cfg, 2004, 2, &format!("{scheme:?}"));
    }
}

#[test]
fn recycled_trials_match_fresh_under_stress_and_loss() {
    assert_recycled_matches_fresh(&stressed(), 17, 3, "stressed");
    assert_recycled_matches_fresh(&lossy(), 42, 4, "lossy");
}

#[test]
fn recycled_until_loss_matches_fresh() {
    let cfg = lossy();
    let prepared = Arc::new(PreparedConfig::new(cfg.clone()));
    let mut ws = TrialWorkspace::new();
    let _ = ws.obtain(&prepared, derive_seed(1, 0)).run();
    let mut saw_loss = false;
    for t in 0..6 {
        let seed = derive_seed(3, t);
        let recycled = ws.obtain(&prepared, seed).run_until_loss();
        let fresh = Simulation::new(cfg.clone(), seed).run_until_loss();
        assert_metrics_identical(&recycled, &fresh, &format!("until-loss trial {t}"));
        saw_loss |= recycled.lost_data();
    }
    assert!(saw_loss, "lossy config must exercise the loss path");
}

#[test]
fn workspace_reuse_across_configs_matches_fresh() {
    // A workspace recycled across *different* configurations — larger to
    // smaller, smaller to larger, different scheme — must still equal
    // fresh construction every time.
    let big = SystemConfig {
        total_user_bytes: 4 * TIB,
        ..base()
    };
    let small = SystemConfig {
        total_user_bytes: TIB,
        scheme: Scheme::new(4, 6),
        ..base()
    };
    let seq = [
        ("big", &big),
        ("big->small", &small),
        ("small->big", &big),
        ("big->small again", &small),
    ];
    let mut ws = TrialWorkspace::new();
    for (i, (what, cfg)) in seq.iter().enumerate() {
        let prepared = Arc::new(PreparedConfig::new((*cfg).clone()));
        let seed = derive_seed(7, i as u64);
        let recycled = ws.obtain(&prepared, seed).run();
        let fresh = Simulation::new((*cfg).clone(), seed).run();
        assert_metrics_identical(&recycled, &fresh, what);
    }
}

#[test]
fn recycled_timeline_rows_match_fresh() {
    // Telemetry from a recycled simulation must be bit-identical too:
    // the O(1) gauge aggregates are rebuilt per trial, never carried
    // over. The recorder rows are compared exactly (f64 bits).
    let cfg = lossy();
    let obs = farm_obs::ObsOptions {
        timeline: Some(farm_obs::TimelineSpec {
            // The observer only records rows; the runner writes files.
            path: String::new(),
            interval_secs: Some(farm_des::time::SECONDS_PER_MONTH),
        }),
        ..farm_obs::ObsOptions::off()
    };

    let prepared = Arc::new(PreparedConfig::new(cfg.clone()));
    let run = |sim: &mut Simulation, t: u64| {
        let o = farm_core::TrialObserver::for_trial(&obs, &prepared, t).expect("timeline");
        sim.attach(o);
        let metrics = sim.run();
        let (a, _) = sim.detach().expect("observer attached");
        (metrics, a.timeline.expect("timeline attached"))
    };
    let mut ws = TrialWorkspace::new();
    // Dirty the workspace with a *traced-free* plain trial first.
    let _ = ws.obtain(&prepared, derive_seed(5, 0)).run();
    for t in 0..3 {
        let seed = derive_seed(9, t);
        let (recycled, recycled_rows) = run(ws.obtain(&prepared, seed), t);
        let (fresh, fresh_rows) = run(&mut Simulation::new(cfg.clone(), seed), t);

        assert_metrics_identical(&recycled, &fresh, &format!("timeline trial {t}"));
        assert_eq!(
            recycled_rows.rows(),
            fresh_rows.rows(),
            "trial {t}: recycled timeline rows diverge from fresh"
        );
        assert_eq!(recycled_rows.n_samples(), fresh_rows.n_samples());
    }
}

/// FNV-1a 64 of a summary's compact form.
fn compact_digest(summary: &McSummary) -> u64 {
    summary
        .to_compact()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
}

#[test]
fn summaries_match_the_pinned_digests() {
    // The other tests here compare two runs of the same build; these pin
    // absolute bytes for the paths that schedule failures after the first
    // pop (spares, batch members) or read per-disk state that disk
    // population fills (SMART verdicts, latent-error birth times).
    use farm_disk::health::SmartConfig;
    let smart = Some(SmartConfig {
        detection_rate: 0.5,
        false_alarm_rate: 0.2,
        lead_time: Duration::from_days(30.0),
    });
    let fast = farm_disk::failure::Hazard::table1().with_multiplier(4.0);
    let digest = |cfg: &SystemConfig| compact_digest(&run_trials(cfg, 2004, 12, TrialMode::Full));
    let cases = [
        (
            "smart",
            SystemConfig {
                hazard: fast.clone(),
                smart,
                ..base()
            },
        ),
        (
            "single_spare",
            SystemConfig {
                hazard: fast.clone(),
                recovery: RecoveryPolicy::SingleSpare,
                ..base()
            },
        ),
        ("batch_replacement", stressed()),
        (
            "batch_replacement_smart",
            SystemConfig {
                smart,
                ..stressed()
            },
        ),
        ("latent", lossy()),
    ];
    let got: Vec<(&str, u64)> = cases.iter().map(|(tag, cfg)| (*tag, digest(cfg))).collect();
    // SMART must steer some target choice, or its pins guard nothing.
    let no_smart = SystemConfig {
        hazard: fast,
        ..base()
    };
    assert_ne!(digest(&no_smart), got[0].1, "SMART changed no outcome");
    assert_ne!(digest(&stressed()), got[3].1, "SMART changed no outcome");
    let want = [
        ("smart", 0xdfcb_5dbe_222e_d18e),
        ("single_spare", 0xcc03_e825_b89c_a6d2),
        ("batch_replacement", 0x0db0_75a4_522e_9e58),
        ("batch_replacement_smart", 0x4019_4a2d_0f45_e5f4),
        ("latent", 0x1dee_4828_f157_f764),
    ];
    assert_eq!(got, want, "summary bytes changed");
}
