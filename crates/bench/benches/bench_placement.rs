//! Placement throughput: RUSH lookups must be cheap enough to place
//! millions of redundancy groups at simulation start.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use farm_placement::{ClusterMap, DiskId, Rush, RushScratch};
use std::hint::black_box;

fn bench_rush_place(c: &mut Criterion) {
    let mut group = c.benchmark_group("placement/rush_place2");
    for disks in [1_000u32, 10_000, 100_000] {
        let map = ClusterMap::uniform(disks);
        let rush = Rush::new(42);
        let mut scratch = RushScratch::new();
        let mut homes = [DiskId(0); 2];
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::from_parameter(disks), &disks, |b, _| {
            let mut g = 0u64;
            b.iter(|| {
                g = g.wrapping_add(1);
                rush.fill_walk(black_box(&map), g, &mut scratch, &mut homes);
                black_box(homes)
            })
        });
    }
    group.finish();
}

fn bench_rush_multi_cluster(c: &mut Criterion) {
    // Placement cost grows with the number of sub-clusters (batches).
    let mut group = c.benchmark_group("placement/rush_place2_clusters");
    for clusters in [1usize, 4, 16] {
        let mut map = ClusterMap::new();
        for _ in 0..clusters {
            map.add_cluster(10_000 / clusters as u32, 1.0);
        }
        let rush = Rush::new(42);
        let mut scratch = RushScratch::new();
        let mut homes = [DiskId(0); 2];
        group.bench_with_input(BenchmarkId::from_parameter(clusters), &clusters, |b, _| {
            let mut g = 0u64;
            b.iter(|| {
                g = g.wrapping_add(1);
                rush.fill_walk(black_box(&map), g, &mut scratch, &mut homes);
                black_box(homes)
            })
        });
    }
    group.finish();
}

fn bench_candidate_walk(c: &mut Criterion) {
    // FARM's recovery-target search: how fast can we pull the 10th
    // candidate (typical after skipping dead/busy disks)?
    let map = ClusterMap::uniform(10_000);
    let rush = Rush::new(42);
    let mut scratch = RushScratch::new();
    c.bench_function("placement/candidates_take10", |b| {
        let mut g = 0u64;
        b.iter(|| {
            g = g.wrapping_add(1);
            black_box(rush.walk(&map, g, &mut scratch).nth(9))
        })
    });
}

fn bench_draw_hashes(c: &mut Criterion) {
    // The raw multi-lane hash rate of each placement kernel, apart from
    // the walk: one call draws 16 candidate hashes for each of `LANES`
    // groups.
    use farm_placement::kernel::{Kernel, LANES};
    const N_IDX: usize = 16;
    let gkeys: [u64; LANES] = std::array::from_fn(|l| 0x9E37_79B9u64.wrapping_mul(l as u64 + 1));
    let mut out = vec![0u64; N_IDX * LANES];
    let mut group = c.benchmark_group("placement/draw_hashes");
    group.throughput(Throughput::Elements((N_IDX * LANES) as u64));
    for k in Kernel::ALL {
        if !k.supported() {
            continue;
        }
        group.bench_function(k.name(), |b| {
            b.iter(|| k.run(black_box(&gkeys), N_IDX, black_box(&mut out)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_rush_place,
    bench_rush_multi_cluster,
    bench_candidate_walk,
    bench_draw_hashes
);
criterion_main!(benches);
