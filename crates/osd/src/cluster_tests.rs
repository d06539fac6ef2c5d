//! Behavioural tests for the object cluster.

use crate::cluster::{Cluster, ClusterError};
use crate::device::OsdId;
use farm_erasure::Scheme;

fn payload(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (seed as usize ^ (i * 131 + 17)) as u8)
        .collect()
}

fn small_cluster(scheme: Scheme) -> Cluster {
    Cluster::new(24, 1 << 20, scheme, 4 << 10, 42)
}

#[test]
fn put_get_roundtrip_every_scheme() {
    for scheme in Scheme::figure3_schemes() {
        let mut c = small_cluster(scheme);
        let data = payload(100_000, 7);
        c.put("obj", &data).unwrap();
        assert_eq!(c.get("obj").unwrap(), data, "{scheme}");
    }
}

#[test]
fn odd_sizes_roundtrip() {
    let mut c = small_cluster(Scheme::new(4, 6));
    for (i, len) in [0usize, 1, 4095, 4096, 4097, 16384, 99_999]
        .iter()
        .enumerate()
    {
        let name = format!("o{i}");
        let data = payload(*len, i as u8);
        c.put(&name, &data).unwrap();
        assert_eq!(c.get(&name).unwrap(), data, "len {len}");
    }
}

#[test]
fn degraded_reads_survive_tolerated_failures() {
    for scheme in Scheme::figure3_schemes() {
        let mut c = small_cluster(scheme);
        let data = payload(50_000, 3);
        c.put("obj", &data).unwrap();
        // Fail as many devices as the scheme tolerates.
        for i in 0..scheme.fault_tolerance() {
            c.fail_osd(OsdId(i));
        }
        assert_eq!(c.get("obj").unwrap(), data, "{scheme} degraded read failed");
    }
}

#[test]
fn recovery_restores_redundancy() {
    let mut c = small_cluster(Scheme::new(4, 6));
    let data = payload(200_000, 9);
    c.put("obj", &data).unwrap();
    let lost = c.fail_osd(OsdId(0)) + c.fail_osd(OsdId(1));
    let report = c.recover();
    assert_eq!(report.blocks_rebuilt, lost, "every lost block rebuilt");
    assert_eq!(report.groups_lost, 0);
    // Now fail two MORE devices: still readable only because recovery
    // restored full redundancy.
    c.fail_osd(OsdId(2));
    c.fail_osd(OsdId(3));
    let report = c.recover();
    assert_eq!(report.groups_lost, 0);
    assert_eq!(c.get("obj").unwrap(), data);
}

#[test]
fn too_many_failures_lose_data() {
    let mut c = small_cluster(Scheme::two_way_mirroring());
    let data = payload(300_000, 1);
    c.put("obj", &data).unwrap();
    // Without recovery in between, failing many devices must eventually
    // kill some group (2-way mirroring tolerates one loss per group).
    for i in 0..12 {
        c.fail_osd(OsdId(i));
    }
    match c.get("obj") {
        Err(ClusterError::Unrecoverable { .. }) => {}
        Ok(_) => panic!("expected data loss after 12 of 24 devices failed"),
        Err(e) => panic!("unexpected error: {e}"),
    }
    let report = c.recover();
    assert!(report.groups_lost > 0);
}

#[test]
fn recovery_targets_respect_buddy_constraint() {
    let mut c = small_cluster(Scheme::new(1, 3));
    c.put("obj", &payload(100_000, 5)).unwrap();
    c.fail_osd(OsdId(0));
    c.recover();
    // No device may hold two blocks of the same group.
    for g in 0..100u64 {
        let mut seen = std::collections::HashSet::new();
        for idx in 0..3u8 {
            let k = crate::device::BlockKey { group: g, idx };
            if let Some(osd) = (0..c.n_osds()).find(|&i| c.osd(OsdId(i)).get(k).is_ok()) {
                assert!(seen.insert(osd), "group {g} doubled on OSD {osd}");
            }
        }
    }
}

#[test]
fn capacity_accounting_matches_scheme_overhead() {
    let scheme = Scheme::new(4, 6);
    let mut c = small_cluster(scheme);
    let data = payload(96 << 10, 2); // exactly 6 groups of 16 KiB
    c.put("obj", &data).unwrap();
    let stored = c.stored_bytes();
    let expected = (data.len() as f64 / scheme.storage_efficiency()) as u64;
    assert_eq!(stored, expected, "stored {stored} vs expected {expected}");
    c.delete("obj").unwrap();
    assert_eq!(c.stored_bytes(), 0);
}

#[test]
fn duplicate_and_missing_names_error() {
    let mut c = small_cluster(Scheme::new(1, 2));
    c.put("a", &payload(10, 0)).unwrap();
    assert!(matches!(
        c.put("a", &payload(10, 0)),
        Err(ClusterError::Duplicate(_))
    ));
    assert!(matches!(c.get("b"), Err(ClusterError::NotFound(_))));
    assert!(matches!(c.delete("b"), Err(ClusterError::NotFound(_))));
}

#[test]
fn scrub_detects_silent_corruption() {
    let mut c = small_cluster(Scheme::new(4, 5));
    c.put("obj", &payload(64 << 10, 8)).unwrap();
    let clean = c.scrub();
    assert!(clean.groups_checked > 0);
    assert_eq!(clean.groups_inconsistent, 0);
    // Flip a byte in some stored block on some device.
    let key = crate::device::BlockKey { group: 0, idx: 0 };
    let holder = (0..c.n_osds())
        .find(|&i| c.osd(OsdId(i)).get(key).is_ok())
        .expect("block stored somewhere");
    assert!(c.osd_mut(OsdId(holder)).corrupt(key, 5));
    let dirty = c.scrub();
    assert_eq!(dirty.groups_inconsistent, 1);
}

#[test]
fn recovery_is_idempotent() {
    let mut c = small_cluster(Scheme::new(2, 3));
    c.put("obj", &payload(50_000, 4)).unwrap();
    c.fail_osd(OsdId(5));
    let first = c.recover();
    let second = c.recover();
    assert_eq!(second.blocks_rebuilt, 0, "nothing left to rebuild");
    assert_eq!(second.groups_lost, 0);
    let _ = first;
}

#[test]
fn many_objects_share_the_cluster() {
    let mut c = small_cluster(Scheme::new(4, 6));
    let objs: Vec<(String, Vec<u8>)> = (0..20)
        .map(|i| (format!("obj{i}"), payload(10_000 + i * 777, i as u8)))
        .collect();
    for (name, data) in &objs {
        c.put(name, data).unwrap();
    }
    assert_eq!(c.object_names().count(), 20);
    c.fail_osd(OsdId(7));
    c.recover();
    for (name, data) in &objs {
        assert_eq!(&c.get(name).unwrap(), data, "{name}");
    }
}

/// The device holding block `idx` of `group`.
fn holder(c: &Cluster, group: u64, idx: u8) -> OsdId {
    let key = crate::device::BlockKey { group, idx };
    (0..c.n_osds())
        .map(OsdId)
        .find(|&id| c.osd(id).get(key).is_ok())
        .expect("block stored somewhere")
}

#[test]
fn recovery_without_targets_is_not_data_loss() {
    // Ten devices and 8/10 groups: every group spans every device, so
    // after one failure no device may take a lost block. The data is
    // intact (one loss is within tolerance), so nothing is lost.
    let mut c = Cluster::new(10, 1 << 30, Scheme::new(8, 10), 4096, 3);
    let data = payload(200_000, 6);
    c.put("obj", &data).unwrap();
    let lost = c.fail_osd(OsdId(0));
    assert_eq!(lost, 7, "one block of each of the 7 groups");
    let report = c.recover();
    assert_eq!(report.groups_lost, 0);
    assert_eq!(report.blocks_rebuilt, 0);
    assert_eq!(report.bytes_rebuilt, 0);
    assert_eq!(report.blocks_unplaced, lost);
    assert_eq!(c.get("obj").unwrap(), data);
}

#[test]
fn blocks_placed_before_running_out_of_targets_count_as_rebuilt() {
    // Eleven devices: each 8/10 group leaves out one. After two
    // failures a group that lost two blocks has exactly one eligible
    // device (the one it left out), so it places one block and then runs
    // out; a group that lost one block left out a failed device and has
    // none.
    let mut c = Cluster::new(11, 1 << 30, Scheme::new(8, 10), 4096, 3);
    let data = payload(600_000, 2);
    c.put("obj", &data).unwrap();
    let groups = data.len().div_ceil(8 * 4096) as u64;
    let failed = [OsdId(0), OsdId(1)];
    let (mut two_lost, mut one_lost) = (0u64, 0u64);
    for g in 0..groups {
        match (0..10u8)
            .filter(|&i| failed.contains(&holder(&c, g, i)))
            .count()
        {
            2 => two_lost += 1,
            1 => one_lost += 1,
            _ => {}
        }
    }
    assert!(two_lost > 0 && one_lost > 0, "{two_lost} / {one_lost}");
    let lost: u64 = failed.iter().map(|&id| c.fail_osd(id)).sum();
    assert_eq!(lost, 2 * two_lost + one_lost);
    let report = c.recover();
    assert_eq!(report.groups_lost, 0);
    assert_eq!(report.blocks_rebuilt, two_lost);
    assert_eq!(report.bytes_rebuilt, two_lost * 4096);
    assert_eq!(report.blocks_unplaced, two_lost + one_lost);
    assert_eq!(c.get("obj").unwrap(), data);
    assert_eq!(c.scrub().groups_inconsistent, 0);
}

#[test]
fn degraded_reads_over_padding() {
    // The last group holds 1.25 data blocks of payload: block 0 full,
    // block 1 partial and the rest (where m > 2) padding only. Every
    // tolerated loss pattern of that group must read back, including
    // ones that lose only padding or only the partial block.
    for scheme in Scheme::figure3_schemes() {
        let (m, n) = (scheme.m as usize, scheme.n as usize);
        let len = 3 * m * 4096 + 5 * 1024;
        for lost in 1u32..1 << n {
            if lost.count_ones() > scheme.fault_tolerance() {
                continue;
            }
            let mut c = small_cluster(scheme);
            let data = payload(len, 11);
            c.put("obj", &data).unwrap();
            let victims: Vec<OsdId> = (0..n as u8)
                .filter(|&i| lost & (1 << i) != 0)
                .map(|i| holder(&c, 3, i))
                .collect();
            for v in victims {
                c.fail_osd(v);
            }
            assert_eq!(c.get("obj").unwrap(), data, "{scheme} lost {lost:b}");
        }
    }
}

#[test]
fn reads_and_recovery_at_exactly_the_tolerance() {
    // For every scheme, several windows of exactly n - m failed devices;
    // the object's last group is padded. Degraded reads, then recovery
    // rebuilds every lost block, reads stay byte-identical and a scrub
    // finds every group consistent.
    for scheme in Scheme::figure3_schemes() {
        let k = scheme.fault_tolerance();
        for start in (0..24 - k).step_by(5) {
            let mut c = small_cluster(scheme);
            let data = payload(90_001, start as u8);
            c.put("obj", &data).unwrap();
            let lost: u64 = (start..start + k).map(|i| c.fail_osd(OsdId(i))).sum();
            assert_eq!(c.get("obj").unwrap(), data, "{scheme} degraded at {start}");
            let report = c.recover();
            assert_eq!(report.groups_lost, 0, "{scheme} at {start}");
            assert_eq!(report.blocks_unplaced, 0, "{scheme} at {start}");
            assert_eq!(report.blocks_rebuilt, lost, "{scheme} at {start}");
            assert_eq!(c.get("obj").unwrap(), data, "{scheme} rebuilt at {start}");
            assert_eq!(c.scrub().groups_inconsistent, 0, "{scheme} at {start}");
        }
    }
}
