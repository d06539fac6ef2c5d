//! Erasure-codec throughput: encode and reconstruct for every Figure 3
//! scheme. Establishes that coding is never the recovery bottleneck —
//! the paper's §2.2 observation that "since disk access times are
//! comparatively long, time to compute an ECC is relatively unimportant".

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use farm_erasure::{EvenOdd, Scheme};
use std::hint::black_box;

const SHARD_LEN: usize = 1 << 20; // 1 MiB shards

fn make_data(m: usize) -> Vec<Vec<u8>> {
    (0..m)
        .map(|i| {
            (0..SHARD_LEN)
                .map(|j| ((i * 31 + j * 7) & 0xff) as u8)
                .collect()
        })
        .collect()
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("erasure/encode");
    for scheme in Scheme::figure3_schemes() {
        let m = scheme.m as usize;
        let data = make_data(m);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let codec = scheme.codec();
        group.throughput(Throughput::Bytes((m * SHARD_LEN) as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(scheme.to_string()),
            &scheme,
            |b, _| b.iter(|| black_box(codec.encode(black_box(&refs)))),
        );
    }
    group.finish();
}

fn bench_reconstruct(c: &mut Criterion) {
    let mut group = c.benchmark_group("erasure/reconstruct_worst_case");
    for scheme in Scheme::figure3_schemes() {
        let m = scheme.m as usize;
        let k = scheme.fault_tolerance() as usize;
        let data = make_data(m);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let codec = scheme.codec();
        let parity = codec.encode(&refs);
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity).collect();
        group.throughput(Throughput::Bytes((k * SHARD_LEN) as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(scheme.to_string()),
            &scheme,
            |b, _| {
                b.iter(|| {
                    // Lose the first k blocks (data blocks: worst case).
                    let mut working: Vec<Option<Vec<u8>>> =
                        full.iter().cloned().map(Some).collect();
                    for slot in working.iter_mut().take(k) {
                        *slot = None;
                    }
                    assert!(codec.reconstruct(black_box(&mut working)));
                    black_box(working)
                })
            },
        );
    }
    group.finish();
}

fn bench_gf256_mul_slice(c: &mut Criterion) {
    let src = vec![0xABu8; SHARD_LEN];
    let mut dst = vec![0x11u8; SHARD_LEN];
    let mut group = c.benchmark_group("erasure/gf256_mul_slice_xor");
    group.throughput(Throughput::Bytes(SHARD_LEN as u64));
    group.bench_function("c=0x57", |b| {
        b.iter(|| {
            farm_erasure::gf256::mul_slice_xor(0x57, black_box(&src), black_box(&mut dst));
        })
    });
    group.finish();
}

/// Region sizes for the per-kernel sweeps: one page, a typical recovery
/// region, and a full shard.
const REGION_SIZES: [usize; 3] = [4 << 10, 64 << 10, 1 << 20];

/// `mul_slice_xor` per kernel (the innermost recovery loop): scalar SWAR
/// vs AVX2 at 4 KiB / 64 KiB / 1 MiB. Unsupported kernels on
/// this host are skipped.
fn bench_gf256_kernels(c: &mut Criterion) {
    use farm_erasure::gf256::kernel::{self, Kernel};
    for size in REGION_SIZES {
        let src = vec![0xABu8; size];
        let mut dst = vec![0x11u8; size];
        let mut group = c.benchmark_group(format!("erasure/gf256_kernel_{}KiB", size >> 10));
        group.throughput(Throughput::Bytes(size as u64));
        for k in Kernel::ALL {
            if !k.supported() {
                continue;
            }
            group.bench_function(k.name(), |b| {
                b.iter(|| {
                    kernel::mul_slice_xor(k, 0x57, black_box(&src), black_box(&mut dst));
                })
            });
        }
        group.finish();
    }
}

/// Full codec encode/reconstruct/decode per kernel at each region size, for a
/// representative Reed–Solomon scheme (8/10, the paper's workhorse).
/// Kernel selection is process-global; criterion runs benches
/// sequentially, so flipping `set_active` per measurement is safe.
fn bench_codec_per_kernel(c: &mut Criterion) {
    use farm_erasure::gf256::kernel::{self, Kernel};
    let scheme = Scheme::new(8, 10);
    let m = scheme.m as usize;
    let k_tol = scheme.fault_tolerance() as usize;
    let codec = scheme.codec();
    let startup = kernel::active();
    for size in REGION_SIZES {
        let data: Vec<Vec<u8>> = (0..m)
            .map(|i| (0..size).map(|j| ((i * 31 + j * 7) & 0xff) as u8).collect())
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = codec.encode(&refs);
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity).collect();

        let mut group = c.benchmark_group(format!("erasure/rs_8_10_kernel_{}KiB", size >> 10));
        group.throughput(Throughput::Bytes((m * size) as u64));
        for kern in Kernel::ALL {
            if !kern.supported() {
                continue;
            }
            kernel::set_active(kern);
            group.bench_function(format!("encode/{}", kern.name()), |b| {
                b.iter(|| black_box(codec.encode(black_box(&refs))))
            });
            group.bench_function(format!("reconstruct/{}", kern.name()), |b| {
                b.iter(|| {
                    let mut working: Vec<Option<Vec<u8>>> =
                        full.iter().cloned().map(Some).collect();
                    for slot in working.iter_mut().take(k_tol) {
                        *slot = None;
                    }
                    assert!(codec.reconstruct(black_box(&mut working)));
                    black_box(working)
                })
            });
            // What farm-osd reads and recovery run: decode only the lost
            // data blocks from borrowed survivors.
            for lost in [1usize, 2] {
                let survivors: Vec<Option<&[u8]>> = full
                    .iter()
                    .enumerate()
                    .map(|(i, b)| (i >= lost).then_some(b.as_slice()))
                    .collect();
                let want: Vec<usize> = (0..lost).collect();
                group.bench_function(format!("decode_{lost}_lost/{}", kern.name()), |b| {
                    b.iter(|| {
                        let mut out = vec![vec![0u8; size]; lost];
                        let mut slices: Vec<&mut [u8]> =
                            out.iter_mut().map(Vec::as_mut_slice).collect();
                        codec
                            .decode(black_box(&survivors), &want, &mut slices)
                            .unwrap();
                        black_box(out)
                    })
                });
            }
        }
        group.finish();
    }
    kernel::set_active(startup);
}

fn bench_evenodd_vs_rs(c: &mut Criterion) {
    // EVENODD's selling point: double-fault tolerance with XOR only.
    // Compare encode throughput against GF(256) Reed-Solomon at m=4, k=2.
    let m = 4usize;
    let mut group = c.benchmark_group("erasure/double_parity_encode_m4");
    let eo = EvenOdd::new(m);
    let col_len = SHARD_LEN - (SHARD_LEN % eo.rows());
    let data = make_data(m)
        .into_iter()
        .map(|mut d| {
            d.truncate(col_len);
            d
        })
        .collect::<Vec<_>>();
    group.throughput(Throughput::Bytes((m * col_len) as u64));
    group.bench_function("evenodd", |b| {
        b.iter(|| black_box(eo.encode(black_box(&data))))
    });
    let rs = Scheme::new(4, 6).codec();
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    group.bench_function("reed_solomon", |b| {
        b.iter(|| black_box(rs.encode(black_box(&refs))))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_encode,
    bench_reconstruct,
    bench_gf256_mul_slice,
    bench_gf256_kernels,
    bench_codec_per_kernel,
    bench_evenodd_vs_rs
);
criterion_main!(benches);
