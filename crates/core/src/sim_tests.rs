//! Behavioural tests for the simulator on scaled-down systems.

use crate::config::{RecoveryPolicy, ReplacementPolicy, SystemConfig};
use crate::sim::Simulation;
use farm_des::time::Duration;
use farm_disk::failure::Hazard;
use farm_disk::model::{GIB, MIB, TIB};

/// 2 TiB of user data on 64 GiB drives: 160 disks, 512 groups.
fn tiny() -> SystemConfig {
    SystemConfig {
        total_user_bytes: 2 * TIB,
        group_user_bytes: 4 * GIB,
        disk_capacity: 64 * GIB,
        ..SystemConfig::default()
    }
}

#[test]
fn initial_utilization_hits_target() {
    let sim = Simulation::new(tiny(), 1);
    let cfg = sim.config();
    let total_used: u64 = sim.population_utilization().map(|(_, used, _)| used).sum();
    assert_eq!(total_used, cfg.total_stored_bytes());
    let mean_util =
        total_used as f64 / (sim.cluster_map().n_disks() as u64 * cfg.disk_capacity) as f64;
    assert!(
        (mean_util - cfg.target_utilization).abs() < 0.01,
        "mean utilization {mean_util}"
    );
}

#[test]
fn initial_placement_never_doubles_up() {
    let sim = Simulation::new(tiny(), 2);
    for g in 0..sim.layout().n_groups() {
        let homes = sim.layout().homes_of(g);
        let set: std::collections::HashSet<_> = homes.iter().collect();
        assert_eq!(set.len(), homes.len(), "group {g} has co-located blocks");
    }
}

#[test]
fn failure_count_tracks_hazard() {
    // Expected six-year failure fraction ≈ 11%; with 160 disks the count
    // per trial is small, so aggregate a few trials.
    let mut failures = 0u64;
    let trials = 20;
    for t in 0..trials {
        let mut sim = Simulation::new(tiny(), 100 + t);
        failures += sim.run().disk_failures;
    }
    let cfg = tiny();
    let expected_per_disk = cfg
        .hazard
        .failure_probability(Duration::ZERO, Duration::from_years(6.0));
    // Population: initial disks only under FARM (no spares/batches).
    let n = Simulation::new(tiny(), 0).cluster_map().n_disks() as f64;
    let expected = expected_per_disk * n * trials as f64;
    let got = failures as f64;
    assert!(
        (got / expected - 1.0).abs() < 0.25,
        "failures {got}, expected ~{expected}"
    );
}

#[test]
fn farm_rebuilds_everything_it_can() {
    let mut sim = Simulation::new(tiny(), 3);
    let m = sim.run();
    // Every block lost to a failure must be either rebuilt or in a dead
    // group (or still inside a final detection/rebuild window, which at
    // 30 s detection and ~4 GiB blocks is vanishingly unlikely to strand
    // more than a handful).
    assert!(m.rebuilds_completed > 0, "no rebuilds happened");
    assert_eq!(m.no_targets, 0, "recovery target always exists");
}

#[test]
fn zero_latency_and_fast_rebuild_prevents_most_loss() {
    let cfg = SystemConfig {
        detection_latency: Duration::ZERO,
        recovery_bandwidth: 30 * MIB,
        ..tiny()
    };
    let mut losses = 0;
    for t in 0..10 {
        let mut sim = Simulation::new(cfg.clone(), 200 + t);
        if sim.run().lost_data() {
            losses += 1;
        }
    }
    assert!(
        losses <= 2,
        "FARM lost data in {losses}/10 tiny-system trials"
    );
}

#[test]
fn single_spare_creates_spare_disks() {
    let cfg = SystemConfig {
        recovery: RecoveryPolicy::SingleSpare,
        ..tiny()
    };
    let mut sim = Simulation::new(cfg, 4);
    let initial = sim.n_disks();
    let m = sim.run();
    if m.disk_failures > 0 {
        assert!(
            sim.n_disks() > initial,
            "spares should have been provisioned"
        );
    }
}

#[test]
fn farm_shrinks_the_window_of_vulnerability() {
    // The mechanism behind Figure 3: FARM parallelizes rebuilds across
    // many targets, so the mean window of vulnerability (detection +
    // queueing + rebuild) is far smaller than with a single spare where
    // every reconstruction of a failed disk queues up.
    let mk = |recovery| SystemConfig {
        recovery,
        group_user_bytes: GIB,
        detection_latency: Duration::from_secs(30.0),
        hazard: Hazard::table1().with_multiplier(4.0),
        ..tiny()
    };
    let mut farm_window = 0.0;
    let mut raid_window = 0.0;
    for t in 0..4 {
        let mut s = Simulation::new(mk(RecoveryPolicy::Farm), 300 + t);
        farm_window += s.run().mean_vulnerability_secs();
        let mut s = Simulation::new(mk(RecoveryPolicy::SingleSpare), 300 + t);
        raid_window += s.run().mean_vulnerability_secs();
    }
    // A failed disk here holds ~25 blocks of 64 s each; the average
    // queued block waits ~13 rebuild slots, FARM waits ~1.
    assert!(
        raid_window > 3.0 * farm_window,
        "RAID window {raid_window}, FARM window {farm_window}"
    );
}

#[test]
fn replacement_batches_join_and_migrate() {
    let cfg = SystemConfig {
        replacement: ReplacementPolicy::at_fraction(0.02),
        hazard: Hazard::table1().with_multiplier(4.0),
        ..tiny()
    };
    let mut sim = Simulation::new(cfg, 5);
    let m = sim.run();
    assert!(m.batches_added > 0, "no batch was added");
    assert!(m.migrated_blocks > 0, "no data migrated to the batch");
    assert!(sim.cluster_map().n_clusters() as u64 == 1 + m.batches_added);
}

#[test]
fn walk_prefix_memo_survives_growth_exactly() {
    // Delta migration keeps the memo across growth: skipped groups keep
    // their prefix, re-walked ones record a fresh one. Every prefix left
    // at the horizon must be the final map's walk.
    let base = SystemConfig {
        recovery_bandwidth: 16 * MIB,
        detection_latency: Duration::from_secs(30.0),
        ..tiny()
    };
    let stressed = SystemConfig {
        scheme: farm_erasure::Scheme::new(4, 6),
        hazard: Hazard::table1().with_multiplier(4.0),
        replacement: ReplacementPolicy::at_fraction(0.04),
        ..base.clone()
    };
    let mirrored = SystemConfig {
        hazard: Hazard::table1().with_multiplier(4.0),
        replacement: ReplacementPolicy::at_fraction(0.02),
        ..base
    };
    for (name, cfg) in [("stressed", stressed), ("mirrored", mirrored)] {
        let mut sim = Simulation::new(cfg, 7);
        let m = sim.run();
        assert!(m.batches_added >= 2, "{name}: {} batches", m.batches_added);
        let n = sim.layout().blocks_per_group() as usize;
        let rush = sim.rush();
        let mut scratch = farm_placement::RushScratch::new();
        let mut memoized = 0u32;
        for g in 0..sim.layout().n_groups() {
            let prefix = sim.layout().walk_prefix(g);
            if prefix.is_empty() {
                continue;
            }
            let walked: Vec<_> = rush
                .walk(sim.cluster_map(), g as u64, &mut scratch)
                .take(n)
                .collect();
            assert_eq!(prefix, &walked[..], "{name}: group {g} memo is stale");
            memoized += 1;
        }
        if farm_placement::kernel::engine_enabled() {
            assert!(memoized > 0, "{name}: no memoized prefix survived");
        }
    }
}

#[test]
fn placement_pass_matches_the_sequential_specification_when_disks_fill() {
    // The paper's block and drive sizes (100 GiB mirrored blocks on
    // 1 TiB drives at 40% fill): a drive has room for 10 blocks against
    // a mean load of 4.1, so some drive fills during placement and later
    // groups must skip it. The replacement policy makes placement keep
    // the migration clean bits.
    let cfg = SystemConfig {
        total_user_bytes: 200 * TIB,
        replacement: ReplacementPolicy::at_fraction(0.02),
        ..SystemConfig::default()
    };
    let mut filtered = 0u32;
    for seed in 0..4 {
        let sim = Simulation::new(cfg.clone(), seed);
        let layout = sim.layout();
        let n = layout.blocks_per_group() as usize;
        let block_bytes = sim.prepared().block_bytes;
        let capacity = sim.config().disk_capacity;
        let rush = sim.rush();
        let map = sim.cluster_map();
        let mut scratch = farm_placement::RushScratch::new();
        let mut fill = vec![farm_placement::DiskId(0); n];
        // The specification: each group, in order, takes the first n
        // candidates whose disk has room for a block, charging as it goes.
        let mut used = vec![0u64; map.n_disks() as usize];
        for g in 0..layout.n_groups() {
            let walked: Vec<_> = rush.walk(map, g as u64, &mut scratch).take(n).collect();
            let homes: Vec<_> = rush
                .walk(map, g as u64, &mut scratch)
                .filter(|d| used[d.0 as usize] + block_bytes <= capacity)
                .take(n)
                .collect();
            for d in &homes {
                used[d.0 as usize] += block_bytes;
            }
            assert_eq!(
                layout.homes_of(g),
                &homes[..],
                "seed {seed}: group {g} homes"
            );
            let prefix = layout.walk_prefix(g);
            if homes == walked {
                if farm_placement::kernel::engine_enabled() {
                    assert_eq!(prefix, &walked[..], "seed {seed}: group {g} memo");
                }
            } else {
                filtered += 1;
                assert!(
                    prefix.is_empty(),
                    "seed {seed}: filtered group {g} memoized"
                );
            }
            let clean = rush.fill_walk(map, g as u64, &mut scratch, &mut fill);
            assert_eq!(
                sim.migration.is_clean(g),
                clean,
                "seed {seed}: group {g} clean bit"
            );
        }
        for (di, &bytes) in used.iter().enumerate() {
            let d = farm_placement::DiskId(di as u32);
            assert_eq!(sim.disk(d).used, bytes, "seed {seed}: disk {di} bytes");
            assert_eq!(
                layout.disk_load(d) as u64 * block_bytes,
                bytes,
                "seed {seed}: disk {di} blocks"
            );
            assert!(bytes <= capacity, "seed {seed}: disk {di} over capacity");
        }
    }
    assert!(
        filtered > 0,
        "no group was filtered: the test lost its subject"
    );
}

#[test]
fn dead_groups_stay_dead_and_are_counted_once() {
    let cfg = SystemConfig {
        hazard: Hazard::table1().with_multiplier(30.0),
        detection_latency: Duration::from_hours(10.0),
        ..tiny()
    };
    let mut sim = Simulation::new(cfg, 6);
    let m = sim.run();
    assert_eq!(m.lost_groups, sim.layout().dead_groups());
}

#[test]
fn vulnerability_includes_detection_latency() {
    let slow_detect = SystemConfig {
        detection_latency: Duration::from_hours(1.0),
        ..tiny()
    };
    let mut sim = Simulation::new(slow_detect, 7);
    let m = sim.run();
    if m.rebuilds_completed > 0 {
        assert!(
            m.mean_vulnerability_secs() >= 3600.0,
            "window {} s must include the 1 h detection latency",
            m.mean_vulnerability_secs()
        );
    }
}

#[test]
fn smart_monitoring_runs() {
    let cfg = SystemConfig {
        smart: Some(farm_disk::health::SmartConfig::default()),
        ..tiny()
    };
    let mut sim = Simulation::new(cfg, 8);
    let m = sim.run();
    // Smoke: the run completes and rebuilds still happen.
    if m.disk_failures > 0 {
        assert!(m.rebuilds_completed > 0);
    }
}

#[test]
fn adaptive_workload_runs() {
    let cfg = SystemConfig {
        workload: Some(crate::config::WorkloadConfig::default()),
        ..tiny()
    };
    let mut sim = Simulation::new(cfg, 9);
    let _ = sim.run();
}

#[test]
fn conservation_of_blocks() {
    // After a full run, every group is either dead or has all n blocks
    // homed on distinct, active disks or within an unfinished window.
    let mut sim = Simulation::new(tiny(), 10);
    let _ = sim.run();
    let layout = sim.layout();
    for g in 0..layout.n_groups() {
        if layout.is_dead(g) {
            continue;
        }
        let homes = layout.homes_of(g);
        let distinct: std::collections::HashSet<_> = homes.iter().collect();
        assert_eq!(distinct.len(), homes.len(), "group {g} doubled up");
        for (idx, &d) in homes.iter().enumerate() {
            let b = crate::layout::BlockRef::new(g, idx as u8);
            if !layout.is_missing(b) {
                assert!(
                    sim.disk(d).is_active(),
                    "group {g} block {idx} homed on dead disk"
                );
            }
        }
    }
}

#[test]
fn disk_usage_matches_layout() {
    // The bytes charged to every active disk equal block_bytes times the
    // number of non-missing blocks homed there.
    let mut sim = Simulation::new(tiny(), 11);
    let _ = sim.run();
    let bb = sim.config().block_bytes();
    for i in 0..sim.n_disks() {
        let d = farm_placement::DiskId(i);
        if !sim.disk(d).is_active() {
            continue;
        }
        let expected: u64 = sim
            .layout()
            .blocks_on(d)
            .iter()
            // in-flight rebuilds reserve space at start, so count missing
            // blocks homed here too — unless their group is dead and the
            // completion already released the reservation.
            .filter(|b| !sim.layout().is_dead(b.group()) || !sim.layout().is_missing(**b))
            .count() as u64
            * bb;
        let used = sim.disk(d).used;
        assert!(
            used == expected,
            "disk {i}: used {used} vs expected {expected}"
        );
    }
}

#[test]
fn random_target_policy_still_recovers() {
    let cfg = SystemConfig {
        target_policy: crate::config::TargetPolicy::RandomEligible,
        hazard: Hazard::table1().with_multiplier(4.0),
        ..tiny()
    };
    let mut sim = Simulation::new(cfg, 12);
    let m = sim.run();
    assert!(m.rebuilds_completed > 0);
    assert_eq!(m.no_targets, 0);
    // Constraints still hold for live groups.
    for g in 0..sim.layout().n_groups() {
        if sim.layout().is_dead(g) {
            continue;
        }
        let homes = sim.layout().homes_of(g);
        let distinct: std::collections::HashSet<_> = homes.iter().collect();
        assert_eq!(distinct.len(), homes.len());
    }
}

#[test]
fn disabling_contention_shrinks_windows() {
    let mk = |contention| SystemConfig {
        model_contention: contention,
        group_user_bytes: GIB,
        hazard: Hazard::table1().with_multiplier(4.0),
        ..tiny()
    };
    let mut with = Simulation::new(mk(true), 13);
    let mw = with.run().mean_vulnerability_secs();
    let mut without = Simulation::new(mk(false), 13);
    let mwo = without.run().mean_vulnerability_secs();
    assert!(
        mwo <= mw + 1e-9,
        "contention-free window {mwo} must not exceed contended {mw}"
    );
}

#[test]
fn trial_is_pure_function_of_seed_across_policies() {
    for policy in [RecoveryPolicy::Farm, RecoveryPolicy::SingleSpare] {
        let cfg = SystemConfig {
            recovery: policy,
            ..tiny()
        };
        let mut a = Simulation::new(cfg.clone(), 99);
        let mut b = Simulation::new(cfg, 99);
        let ma = a.run();
        let mb = b.run();
        assert_eq!(ma.disk_failures, mb.disk_failures);
        assert_eq!(ma.rebuilds_completed, mb.rebuilds_completed);
        assert_eq!(ma.redirections, mb.redirections);
        assert_eq!(
            ma.total_vulnerability_secs.to_bits(),
            mb.total_vulnerability_secs.to_bits()
        );
    }
}

#[test]
fn run_until_loss_stops_early_on_lossy_trials() {
    let cfg = SystemConfig {
        hazard: Hazard::table1().with_multiplier(30.0),
        detection_latency: Duration::from_hours(10.0),
        ..tiny()
    };
    let mut full = Simulation::new(cfg.clone(), 21);
    let mf = full.run();
    if mf.lost_data() {
        let mut fast = Simulation::new(cfg, 21);
        let mq = fast.run_until_loss();
        assert!(mq.lost_data());
        assert!(mq.disk_failures <= mf.disk_failures);
    }
}

#[test]
fn latent_errors_increase_loss_for_single_fault_schemes() {
    use farm_disk::latent::LatentConfig;
    let mk = |latent| SystemConfig {
        latent,
        group_user_bytes: GIB,
        hazard: Hazard::table1().with_multiplier(4.0),
        ..tiny()
    };
    let mut base_losses = 0u32;
    let mut latent_losses = 0u32;
    let mut trips = 0u64;
    for t in 0..8 {
        let mut s = Simulation::new(mk(None), 500 + t);
        base_losses += s.run().lost_data() as u32;
        let mut s = Simulation::new(
            mk(Some(LatentConfig {
                defects_per_drive_year: 20.0, // exaggerated to make the effect visible
                scrub_interval: None,
            })),
            500 + t,
        );
        let m = s.run();
        latent_losses += m.lost_data() as u32;
        trips += m.latent_read_errors;
    }
    assert!(trips > 0, "no latent trips sampled");
    assert!(
        latent_losses >= base_losses,
        "latent errors reduced losses: {latent_losses} vs {base_losses}"
    );
}

#[test]
fn scrubbing_reduces_latent_trips() {
    use farm_des::time::Duration as D;
    use farm_disk::latent::LatentConfig;
    let mk = |scrub| SystemConfig {
        latent: Some(LatentConfig {
            defects_per_drive_year: 20.0,
            scrub_interval: scrub,
        }),
        group_user_bytes: GIB,
        hazard: Hazard::table1().with_multiplier(4.0),
        ..tiny()
    };
    let mut unscrubbed = 0u64;
    let mut scrubbed = 0u64;
    for t in 0..6 {
        let mut s = Simulation::new(mk(None), 600 + t);
        unscrubbed += s.run().latent_read_errors;
        let mut s = Simulation::new(mk(Some(D::from_days(7.0))), 600 + t);
        scrubbed += s.run().latent_read_errors;
    }
    assert!(
        scrubbed * 5 < unscrubbed.max(1),
        "weekly scrubbing should slash trips: {scrubbed} vs {unscrubbed}"
    );
}

#[test]
fn lookahead_handlers_match_recorded_summary() {
    use crate::montecarlo::{run_trials_with_threads, TrialMode};
    use crate::sim::LOOKAHEAD;
    // RS 8/10 with 1 GiB blocks on 256 GiB drives: ~100 blocks a disk,
    // so a failed disk's blocks run past the handlers' look-ahead.
    let cfg = SystemConfig {
        scheme: farm_erasure::Scheme::new(8, 10),
        total_user_bytes: 8 * TIB,
        group_user_bytes: 8 * GIB,
        disk_capacity: 256 * GIB,
        ..SystemConfig::default()
    };
    let sim = Simulation::new(cfg.clone(), 1);
    let block_bytes = cfg.block_bytes();
    for (d, used, _) in sim.population_utilization() {
        assert!(used / block_bytes >= 64, "disk {d:?} holds {used} bytes");
    }
    let s = run_trials_with_threads(&cfg, 17, 4, TrialMode::Full, 1);
    assert!(
        s.fanout.max() > LOOKAHEAD as f64,
        "fan-out {} never exceeds the look-ahead",
        s.fanout.max()
    );
    // FNV-1a of the compact summary, recorded before the handlers
    // prefetched ahead: the look-ahead must not change any statistic.
    let digest = s
        .to_compact()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
    assert_eq!(digest, 0x6043_9f20_70d3_2817, "summary digest changed");
}
