//! Cross-kernel byte-identity of the placement engine.
//!
//! The batched RUSH placement kernels (scalar, AVX-512) are selected
//! at runtime, and the engine memoizes walk prefixes that recovery
//! replays, so a dispatch or memo bug would silently change simulation
//! results depending on the host CPU or engine toggle. This test pins
//! the contract: the initial layout and every trial metric must be
//! bit-identical under every supported kernel, with the engine on or
//! off, fresh or recycled (including recycling across configurations,
//! which exercises memo resizing and invalidation).
//!
//! The CI placement-kernel matrix runs this binary once per
//! `FARM_PLACE_KERNEL` value; the single test below first asserts that
//! the startup selection honours that variable, then switches kernels
//! explicitly via `set_active`. Everything lives in one `#[test]`
//! because the active kernel and the engine toggle are process-global
//! state — parallel test threads flipping them would race.

use farm_core::prelude::*;
use farm_des::rng::derive_seed;
use farm_disk::latent::LatentConfig;
use farm_placement::kernel::{self, Kernel};
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

/// Two-way mirroring with unscrubbed latent sector errors: loses data,
/// exercising the loss paths and plenty of recovery-target walks (which
/// resume from the memoized placement prefixes).
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

/// Fast-failing drives with batch replacement: the cluster map grows
/// mid-trial, which must invalidate every memoized prefix.
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
}

/// The full initial layout — every group's homes in order — as one flat
/// vector, for exact comparison across kernels and engine settings.
fn full_layout(cfg: &SystemConfig, seed: u64) -> Vec<u32> {
    let sim = Simulation::new(cfg.clone(), seed);
    let layout = sim.layout();
    let mut flat =
        Vec::with_capacity(layout.n_groups() as usize * layout.blocks_per_group() as usize);
    for g in 0..layout.n_groups() {
        flat.extend(layout.homes_of(g).iter().map(|d| d.0));
    }
    flat
}

#[test]
fn placement_is_byte_identical_across_kernels_and_engine_modes() {
    // --- startup dispatch honours FARM_PLACE_KERNEL (the CI matrix
    // sets it; locally it is usually unset and this block is a no-op).
    let startup = kernel::active();
    if let Ok(raw) = std::env::var("FARM_PLACE_KERNEL") {
        if let Some(want) = Kernel::parse(&raw) {
            if want.supported() {
                assert_eq!(
                    startup, want,
                    "FARM_PLACE_KERNEL={raw} but startup kernel is {startup}"
                );
            } else {
                // Unsupported request must fall back to autodetection,
                // not crash — reaching this line at all proves that.
                assert_eq!(startup, Kernel::detect());
            }
        }
    }
    let startup_engine = kernel::set_engine_enabled(true);

    let supported: Vec<Kernel> = Kernel::ALL.into_iter().filter(|k| k.supported()).collect();
    assert!(supported.contains(&Kernel::Scalar));

    let configs = [
        ("base", base()),
        ("lossy", lossy()),
        ("stressed", stressed()),
    ];

    // --- full-layout equality: every group's homes, engine off (the
    // pure sequential walk) as reference, then engine on under every
    // supported kernel.
    for (name, cfg) in &configs {
        let seed = derive_seed(0x9A7C, 1);
        kernel::set_engine_enabled(false);
        let reference = full_layout(cfg, seed);
        kernel::set_engine_enabled(true);
        for &k in &supported {
            kernel::set_active(k);
            assert_eq!(
                full_layout(cfg, seed),
                reference,
                "{name}: initial layout differs under {k} (engine on vs off)"
            );
        }
    }

    // --- the filtered branch: a `lossy` drive holds 6 blocks against a
    // mean load of ~2.6, so some drive fills during placement and a later
    // group skips it. Such a group keeps no walk memo, so an empty
    // prefix with the engine on marks it, and the engine-on vs engine-off
    // equality above and below pins that branch too.
    kernel::set_engine_enabled(true);
    for seed in [derive_seed(0x9A7C, 1), derive_seed(0x51AB, 0)] {
        let sim = Simulation::new(lossy(), seed);
        let layout = sim.layout();
        assert!(
            (0..layout.n_groups()).any(|g| layout.walk_prefix(g).is_empty()),
            "lossy: no group took the filtered walk"
        );
    }

    // --- whole-trial equality: metrics (counters, f64 bits, histograms)
    // of complete trials — covering recovery-target walks resumed from
    // the memoized prefixes, spares, and batch replacement's memo
    // invalidation — compared engine-off vs engine-on per kernel.
    for (name, cfg) in &configs {
        for t in 0..2u64 {
            let seed = derive_seed(0x51AB, t);
            kernel::set_engine_enabled(false);
            let reference = Simulation::new(cfg.clone(), seed).run();
            kernel::set_engine_enabled(true);
            for &k in &supported {
                kernel::set_active(k);
                let got = Simulation::new(cfg.clone(), seed).run();
                assert_metrics_identical(&got, &reference, &format!("{name} trial {t} under {k}"));
            }
        }
    }

    // --- recycling across configurations: the memo must resize and
    // invalidate correctly when a workspace hops between shapes. Engine
    // on with recycling vs engine off with fresh construction.
    kernel::set_active(Kernel::detect());
    let seq = [
        ("stressed", stressed()),
        ("stressed->lossy", lossy()),
        ("lossy->base", base()),
        ("base->stressed", stressed()),
    ];
    let mut ws = TrialWorkspace::new();
    for (i, (what, cfg)) in seq.iter().enumerate() {
        let seed = derive_seed(0xC0F1, i as u64);
        kernel::set_engine_enabled(true);
        let prepared = Arc::new(PreparedConfig::new(cfg.clone()));
        let recycled = ws.obtain(&prepared, seed).run();
        kernel::set_engine_enabled(false);
        let fresh = Simulation::new(cfg.clone(), seed).run();
        assert_metrics_identical(&recycled, &fresh, what);
    }

    // Restore the startup selection for any later code in this process.
    kernel::set_engine_enabled(startup_engine);
    kernel::set_active(startup);
}
