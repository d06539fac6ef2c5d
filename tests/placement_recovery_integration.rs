//! Integration between the placement layer and the recovery engine:
//! targets chosen after failures must respect RUSH candidate semantics
//! and the §2.3 constraints, and batch growth must interact correctly
//! with live placement.

use farm_core::prelude::*;
use farm_core::Simulation;
use farm_disk::failure::Hazard;
use farm_placement::{ClusterMap, DiskId, Rush, RushScratch};

fn small() -> SystemConfig {
    SystemConfig {
        total_user_bytes: 8 * TIB,
        group_user_bytes: 4 * GIB,
        disk_capacity: 128 * GIB,
        ..SystemConfig::default()
    }
}

#[test]
fn rebuilt_blocks_never_share_a_disk_with_buddies() {
    let mut sim = Simulation::new(
        SystemConfig {
            hazard: Hazard::table1().with_multiplier(6.0),
            ..small()
        },
        1,
    );
    let m = sim.run();
    assert!(m.rebuilds_completed > 0, "want rebuilds to inspect");
    for g in 0..sim.layout().n_groups() {
        if sim.layout().is_dead(g) {
            continue;
        }
        let homes = sim.layout().homes_of(g);
        let distinct: std::collections::HashSet<_> = homes.iter().collect();
        assert_eq!(
            distinct.len(),
            homes.len(),
            "group {g} buddies share a disk"
        );
    }
}

#[test]
fn rebuilt_blocks_live_on_active_disks_with_space_accounted() {
    let mut sim = Simulation::new(
        SystemConfig {
            hazard: Hazard::table1().with_multiplier(6.0),
            ..small()
        },
        2,
    );
    let _ = sim.run();
    for i in 0..sim.n_disks() {
        let d = DiskId(i);
        let disk = sim.disk(d);
        if disk.is_active() {
            assert!(
                disk.used <= disk.capacity,
                "disk {i} over capacity: {} > {}",
                disk.used,
                disk.capacity
            );
        }
    }
}

#[test]
fn candidate_walk_matches_raw_rush_for_untouched_groups() {
    // Groups that never lost a block must still sit exactly where RUSH
    // put them ("replicas are not moved once placed", §2.3) — unless
    // capacity skipping rerouted them at init, which cannot happen in a
    // fresh 40%-utilized system.
    let sim = Simulation::new(small(), 3);
    let rush = Rush::new(farm_des::rng::SeedFactory::new(3).child(0xFA).master());
    let map = ClusterMap::uniform(sim.cluster_map().n_disks());
    let n = sim.config().scheme.n as usize;
    let mut scratch = RushScratch::new();
    for g in (0..sim.layout().n_groups()).step_by(37) {
        let expected: Vec<DiskId> = rush.walk(&map, g as u64, &mut scratch).take(n).collect();
        assert_eq!(
            sim.layout().homes_of(g),
            &expected[..],
            "group {g} moved without a failure"
        );
    }
}

#[test]
fn batch_growth_extends_candidate_space() {
    // After a replacement batch joins, recovery targets may come from the
    // new cluster; placement and layout must agree about disk ids.
    let cfg = SystemConfig {
        replacement: ReplacementPolicy::at_fraction(0.02),
        hazard: Hazard::table1().with_multiplier(8.0),
        ..small()
    };
    let mut sim = Simulation::new(cfg, 4);
    let m = sim.run();
    assert!(m.batches_added > 0);
    let map_disks = sim.cluster_map().n_disks();
    assert_eq!(
        map_disks,
        sim.n_disks(),
        "placement map and disk table must stay in sync under FARM"
    );
    // Some blocks should have migrated onto batch disks.
    let first_batch = sim.cluster_map().cluster(1).first;
    let on_batch: usize = (first_batch..map_disks)
        .map(|i| sim.layout().blocks_on(DiskId(i)).len())
        .sum();
    assert!(on_batch > 0, "no blocks on the replacement batch");
}

#[test]
fn spares_are_outside_the_placement_population() {
    let cfg = SystemConfig {
        recovery: RecoveryPolicy::SingleSpare,
        hazard: Hazard::table1().with_multiplier(4.0),
        ..small()
    };
    let mut sim = Simulation::new(cfg, 5);
    let m = sim.run();
    if m.disk_failures > 0 {
        assert!(sim.n_disks() > sim.cluster_map().n_disks());
        // Population snapshot only covers the placement population.
        assert_eq!(
            sim.population_utilization().count(),
            sim.cluster_map().n_disks() as usize
        );
    }
}

#[test]
fn migration_respects_capacity_and_buddy_constraints() {
    let cfg = SystemConfig {
        replacement: ReplacementPolicy::at_fraction(0.02),
        hazard: Hazard::table1().with_multiplier(8.0),
        ..small()
    };
    let mut sim = Simulation::new(cfg, 6);
    let _ = sim.run();
    for g in 0..sim.layout().n_groups() {
        if sim.layout().is_dead(g) {
            continue;
        }
        let homes = sim.layout().homes_of(g);
        let distinct: std::collections::HashSet<_> = homes.iter().collect();
        assert_eq!(
            distinct.len(),
            homes.len(),
            "migration co-located group {g}"
        );
    }
    for i in 0..sim.n_disks() {
        let disk = sim.disk(DiskId(i));
        if disk.is_active() {
            assert!(disk.used <= disk.capacity);
        }
    }
}
