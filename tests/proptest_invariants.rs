//! Property-based tests on the core data structures and invariants,
//! spanning crates.
//!
//! The build environment is offline, so instead of the `proptest` crate
//! these drive each property over many deterministically generated cases
//! from the workspace's own [`SeedFactory`]/[`RngStream`]. Every case is
//! reproducible from the constants below; on failure the assert message
//! carries the case index so it can be replayed in isolation.

use farm_des::rng::{RngStream, SeedFactory};
use farm_des::stats::Running;
use farm_des::time::Duration;
use farm_des::{EventQueue, SimTime};
use farm_disk::failure::Hazard;
use farm_erasure::{evenodd::EvenOdd, gf256, Scheme};
use farm_placement::{ClusterMap, DiskId, Rush, RushScratch};

/// Master seed for every generated case in this file.
const MASTER: u64 = 0xFA12_31AB_CD00_7E57;

/// Per-property case stream: property `label`, case `i`.
fn cases(label: u64, count: u64) -> impl Iterator<Item = (u64, RngStream)> {
    let factory = SeedFactory::new(MASTER);
    (0..count).map(move |i| (i, factory.stream2(label, i)))
}

// ----- GF(256) field laws ------------------------------------------------

#[test]
fn gf256_mul_commutes() {
    for a in 0..=255u8 {
        for b in 0..=255u8 {
            assert_eq!(gf256::mul(a, b), gf256::mul(b, a), "a={a} b={b}");
        }
    }
}

#[test]
fn gf256_mul_associates() {
    for (i, mut rng) in cases(1, 4000) {
        let a = rng.bits() as u8;
        let b = rng.bits() as u8;
        let c = rng.bits() as u8;
        assert_eq!(
            gf256::mul(gf256::mul(a, b), c),
            gf256::mul(a, gf256::mul(b, c)),
            "case {i}: a={a} b={b} c={c}"
        );
    }
}

#[test]
fn gf256_distributes() {
    for (i, mut rng) in cases(2, 4000) {
        let a = rng.bits() as u8;
        let b = rng.bits() as u8;
        let c = rng.bits() as u8;
        assert_eq!(
            gf256::mul(a, gf256::add(b, c)),
            gf256::add(gf256::mul(a, b), gf256::mul(a, c)),
            "case {i}: a={a} b={b} c={c}"
        );
    }
}

#[test]
fn gf256_division_inverts_multiplication() {
    for a in 0..=255u8 {
        for b in 1..=255u8 {
            assert_eq!(gf256::div(gf256::mul(a, b), b), a, "a={a} b={b}");
        }
    }
}

// ----- GF(256) kernel identity -------------------------------------------

/// Every compiled region kernel (scalar SWAR, AVX2) must agree
/// with the per-byte table lookup `gf256::mul` for **all 256 constants**,
/// across odd lengths, unaligned starting offsets, and the zero-length
/// slice. Unsupported kernels on this host are skipped (the CI kernel
/// matrix covers them on hosts that do support them).
#[test]
fn gf256_kernels_match_scalar_mul_for_all_constants() {
    use farm_erasure::gf256::kernel::{self, Kernel};
    for k in Kernel::ALL {
        if !k.supported() {
            continue;
        }
        for c in 0..=255u8 {
            for (i, mut rng) in cases(10 + c as u64, 4) {
                // Odd lengths around the 16/32-byte vector widths plus a
                // random tail, at an unaligned offset into the backing
                // allocation.
                let len = (2 * rng.below(40) + 1) as usize;
                let offset = 1 + rng.below(7) as usize;
                let backing: Vec<u8> = (0..offset + len).map(|_| rng.bits() as u8).collect();
                let src = &backing[offset..];

                let mut dst: Vec<u8> = (0..len).map(|_| rng.bits() as u8).collect();
                let expect_xor: Vec<u8> = src
                    .iter()
                    .zip(&dst)
                    .map(|(&s, &d)| d ^ gf256::mul(c, s))
                    .collect();
                kernel::mul_slice_xor(k, c, src, &mut dst);
                assert_eq!(
                    dst, expect_xor,
                    "case {i}: kernel {k} c={c} len={len} offset={offset} (xor)"
                );

                let mut buf = src.to_vec();
                let expect_mul: Vec<u8> = src.iter().map(|&s| gf256::mul(c, s)).collect();
                kernel::mul_slice(k, c, &mut buf);
                assert_eq!(
                    buf, expect_mul,
                    "case {i}: kernel {k} c={c} len={len} offset={offset} (in place)"
                );
            }
        }
        // Zero-length slices must be a no-op for every constant.
        for c in 0..=255u8 {
            let mut empty: Vec<u8> = Vec::new();
            kernel::mul_slice_xor(k, c, &[], &mut empty);
            kernel::mul_slice(k, c, &mut empty);
            assert!(empty.is_empty(), "kernel {k} c={c} touched empty slice");
        }
    }
}

/// `xor_slice` is `mul_slice_xor` with c=1; check every kernel against a
/// plain byte-wise xor at awkward lengths and offsets.
#[test]
fn gf256_kernel_xor_matches_reference() {
    use farm_erasure::gf256::kernel::{self, Kernel};
    for k in Kernel::ALL {
        if !k.supported() {
            continue;
        }
        for (i, mut rng) in cases(9, 200) {
            let len = rng.below(300) as usize;
            let offset = rng.below(9) as usize;
            let backing: Vec<u8> = (0..offset + len).map(|_| rng.bits() as u8).collect();
            let src = &backing[offset..];
            let mut dst: Vec<u8> = (0..len).map(|_| rng.bits() as u8).collect();
            let expect: Vec<u8> = src.iter().zip(&dst).map(|(&s, &d)| d ^ s).collect();
            kernel::xor_slice(k, src, &mut dst);
            assert_eq!(
                dst, expect,
                "case {i}: kernel {k} len={len} offset={offset}"
            );
        }
    }
}

// ----- Reed–Solomon round trip -------------------------------------------

#[test]
fn rs_roundtrip_arbitrary_data_and_losses() {
    for (i, mut rng) in cases(3, 60) {
        let scheme_idx = rng.below(6) as usize;
        let len = 1 + rng.below(199) as usize;
        let scheme = Scheme::figure3_schemes()[scheme_idx];
        let m = scheme.m as usize;
        let n = scheme.n as usize;
        let codec = scheme.codec();
        let data: Vec<Vec<u8>> = (0..m)
            .map(|_| (0..len).map(|_| rng.bits() as u8).collect())
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = codec.encode(&refs);
        let all: Vec<Vec<u8>> = data.iter().cloned().chain(parity).collect();

        // Lose a random tolerable subset.
        let k = scheme.fault_tolerance() as usize;
        let lost = rng.sample_distinct(n as u64, k);
        let mut working: Vec<Option<Vec<u8>>> = all.iter().cloned().map(Some).collect();
        for &l in &lost {
            working[l as usize] = None;
        }
        assert!(
            codec.reconstruct(&mut working),
            "case {i}: scheme {scheme:?} failed to reconstruct losses {lost:?}"
        );
        for (col, (w, a)) in working.iter().zip(&all).enumerate() {
            assert_eq!(w.as_ref().unwrap(), a, "case {i}: column {col} differs");
        }
    }
}

#[test]
fn evenodd_double_erasure_roundtrip() {
    for (i, mut rng) in cases(4, 60) {
        let m = 1 + rng.below(8) as usize;
        let chunks = 1 + rng.below(3) as usize;
        let code = EvenOdd::new(m);
        let col_len = code.rows() * chunks * 3;
        let data: Vec<Vec<u8>> = (0..m)
            .map(|_| (0..col_len).map(|_| rng.bits() as u8).collect())
            .collect();
        let (p, q) = code.encode(&data);
        let all: Vec<Vec<u8>> = data.iter().cloned().chain([p, q]).collect();
        let total = m + 2;
        let a = rng.below(total as u64) as usize;
        let b = rng.below(total as u64) as usize;
        let mut cols: Vec<Option<Vec<u8>>> = all.iter().cloned().map(Some).collect();
        cols[a] = None;
        cols[b] = None;
        assert!(
            code.reconstruct(&mut cols),
            "case {i}: EvenOdd(m={m}) failed on erasures ({a}, {b})"
        );
        for (col, c) in all.iter().enumerate() {
            assert_eq!(cols[col].as_ref().unwrap(), c, "case {i}: column {col}");
        }
    }
}

// ----- Placement ---------------------------------------------------------

#[test]
fn rush_candidates_distinct_and_deterministic() {
    for (i, mut rng) in cases(5, 120) {
        let seed = rng.bits();
        let group = rng.bits();
        let disks = 4 + rng.below(196) as u32;
        let take = (1 + rng.below(7) as usize).min(disks as usize);
        let map = ClusterMap::uniform(disks);
        let rush = Rush::new(seed);
        let mut scratch = RushScratch::new();
        let a: Vec<DiskId> = rush.walk(&map, group, &mut scratch).take(take).collect();
        let b: Vec<DiskId> = rush.walk(&map, group, &mut scratch).take(take).collect();
        assert_eq!(a, b, "case {i}: placement not deterministic");
        let set: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(set.len(), take, "case {i}: duplicate candidates in {a:?}");
    }
}

#[test]
fn rush_growth_only_moves_to_new_cluster_or_stays() {
    for (i, mut rng) in cases(6, 25) {
        let seed = rng.bits();
        let groups = 1 + rng.below(199);
        let old = 8 + rng.below(72) as u32;
        let added = 1 + rng.below(39) as u32;
        let before = ClusterMap::uniform(old);
        let mut after = before.clone();
        after.add_cluster(added, 1.0);
        let rush = Rush::new(seed);
        let mut scratch = RushScratch::new();
        let mut moved_within_old = 0u32;
        let mut total = 0u32;
        for g in 0..groups {
            let a: Vec<DiskId> = rush.walk(&before, g, &mut scratch).take(2).collect();
            let b: Vec<DiskId> = rush.walk(&after, g, &mut scratch).take(2).collect();
            for (x, y) in a.iter().zip(&b) {
                total += 1;
                if x != y && y.0 < old {
                    moved_within_old += 1;
                }
            }
        }
        // Collision-chain shifts may move a candidate between old disks,
        // but only rarely; the bulk of churn must target the new cluster.
        assert!(
            moved_within_old as f64 <= 0.05 * total as f64 + 2.0,
            "case {i}: {moved_within_old} of {total} placements moved between old disks"
        );
    }
}

// ----- Event queue -------------------------------------------------------

#[test]
fn event_queue_pops_sorted() {
    for (i, mut rng) in cases(7, 50) {
        let n = 1 + rng.below(199) as usize;
        let mut times: Vec<f64> = (0..n).map(|_| rng.uniform() * 1e6).collect();
        let mut q = EventQueue::new();
        for (j, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_secs(t), j);
        }
        // Payloads are schedule indices, so (time, payload) must rise
        // strictly: time order, FIFO among ties. After the first pop,
        // follow-ups land later, at the popped instant, or exactly on
        // an earlier entry's time, so ties cross the two tiers.
        let mut last: Option<(SimTime, usize)> = None;
        let mut popped = 0;
        while let Some((t, j)) = q.pop() {
            popped += 1;
            assert!(
                last.is_none_or(|l| (t, j) > l),
                "case {i}: pop {j} out of (time, seq) order"
            );
            last = Some((t, j));
            if times.len() < 2 * n && rng.below(2) == 0 {
                let at = match rng.below(3) {
                    0 => t.as_secs() + rng.uniform() * 1e5,
                    1 => t.as_secs(),
                    _ => times[rng.below(times.len() as u64) as usize].max(t.as_secs()),
                };
                q.schedule(SimTime::from_secs(at), times.len());
                times.push(at);
            }
        }
        assert_eq!(popped, times.len(), "case {i}: lost events");
    }
}

// ----- Hazard sampling ---------------------------------------------------

#[test]
fn hazard_ttf_is_positive_and_monotone_in_hazard() {
    for (i, mut rng) in cases(8, 200) {
        let seed = rng.bits();
        let age_months = rng.uniform() * 60.0;
        let h = Hazard::table1();
        let mut draw = SeedFactory::new(seed).stream(0);
        let ttf = h.sample_ttf(Duration::from_months(age_months), &mut draw);
        assert!(ttf.as_secs() > 0.0, "case {i}: non-positive TTF");

        // Same uniform draw, doubled hazard => shorter or equal lifetime.
        let h2 = Hazard::table1().with_multiplier(2.0);
        let mut rng_a = SeedFactory::new(seed).stream(1);
        let mut rng_b = SeedFactory::new(seed).stream(1);
        let t1 = h.sample_ttf(Duration::ZERO, &mut rng_a);
        let t2 = h2.sample_ttf(Duration::ZERO, &mut rng_b);
        assert!(
            t2 <= t1 + Duration::from_secs(1e-6),
            "case {i}: doubled hazard lengthened lifetime"
        );
    }
}

// ----- Whole-system recovery ---------------------------------------------

#[test]
fn recovery_always_finds_a_target_at_paper_utilization() {
    // §2.3's hard constraints always leave an eligible target at the
    // paper's ~40% utilization; the promoted `no_targets` counter must
    // stay zero for every seed (the single-spare policy provisions its
    // own fresh drive, so it trivially satisfies this too).
    use farm_core::prelude::*;
    for (i, mut rng) in cases(11, 6) {
        let cfg = SystemConfig {
            total_user_bytes: 2 * (1 << 40),
            group_user_bytes: 1 << 32,
            disk_capacity: 1 << 36,
            recovery: if rng.below(4) == 0 {
                RecoveryPolicy::SingleSpare
            } else {
                RecoveryPolicy::Farm
            },
            ..SystemConfig::default()
        };
        let m = run_trial(&cfg, rng.bits(), 0, TrialMode::Full);
        assert_eq!(m.no_targets, 0, "case {i}: rebuild found no target");
        assert!(m.disk_failures > 0, "case {i}: trial saw no failures");
    }
}

// ----- Statistics --------------------------------------------------------

#[test]
fn running_merge_is_associative_enough() {
    for (i, mut rng) in cases(9, 200) {
        let n = rng.below(100) as usize;
        let xs: Vec<f64> = (0..n).map(|_| (rng.uniform() - 0.5) * 2e6).collect();
        let split = if n == 0 {
            0
        } else {
            rng.below(n as u64 + 1) as usize
        };
        let mut whole = Running::new();
        whole.extend(xs.iter().copied());
        let mut left = Running::new();
        left.extend(xs[..split].iter().copied());
        let mut right = Running::new();
        right.extend(xs[split..].iter().copied());
        left.merge(&right);
        assert_eq!(left.count(), whole.count(), "case {i}");
        if whole.count() > 0 {
            assert!(
                (left.mean() - whole.mean()).abs() < 1e-6 * (1.0 + whole.mean().abs()),
                "case {i}: merged mean {} vs whole {}",
                left.mean(),
                whole.mean()
            );
        }
    }
}

// ----- Scheme arithmetic -------------------------------------------------

#[test]
fn scheme_sizes_are_consistent() {
    for (i, mut rng) in cases(10, 300) {
        let m = 1 + rng.below(15) as u32;
        let extra = 1 + rng.below(7) as u32;
        let group_mult = 1 + rng.below(63);
        let scheme = Scheme::new(m, m + extra);
        let group = group_mult * m as u64 * (1 << 20);
        assert_eq!(scheme.block_bytes(group) * m as u64, group, "case {i}");
        assert_eq!(
            scheme.stored_bytes(group),
            scheme.block_bytes(group) * (m + extra) as u64,
            "case {i}"
        );
        let eff = scheme.storage_efficiency();
        assert!(eff > 0.0 && eff < 1.0, "case {i}: efficiency {eff}");
    }
}
