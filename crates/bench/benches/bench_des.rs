//! Discrete-event substrate micro-benchmarks: event queue operations and
//! bathtub-lifetime sampling, the two inner loops of every trial.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use farm_des::rng::SeedFactory;
use farm_des::time::Duration;
use farm_des::{EventQueue, SimTime};
use farm_disk::failure::Hazard;
use std::hint::black_box;

fn bench_queue_churn(c: &mut Criterion) {
    // Steady-state schedule+pop at various queue depths.
    let mut group = c.benchmark_group("des/queue_schedule_pop");
    for depth in [100usize, 10_000, 100_000] {
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, &depth| {
            let mut q = EventQueue::with_capacity(depth);
            let mut rng = SeedFactory::new(1).stream(0);
            for i in 0..depth {
                q.schedule(SimTime::from_secs(rng.uniform() * 1e6), i as u64);
            }
            b.iter(|| {
                let (t, e) = q.pop().expect("queue stays full");
                q.schedule(t + Duration::from_secs(rng.uniform() * 1e3), black_box(e));
            })
        });
    }
    group.finish();
}

fn bench_queue_cancel(c: &mut Criterion) {
    c.bench_function("des/queue_cancel", |b| {
        let mut q = EventQueue::new();
        let mut ids = Vec::new();
        b.iter(|| {
            if ids.is_empty() {
                for i in 0..1000u64 {
                    ids.push(q.schedule(SimTime::from_secs(i as f64), i));
                }
            }
            let id = ids.pop().expect("non-empty");
            black_box(q.cancel(id))
        })
    });
}

fn bench_ttf_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("disk/sample_ttf");
    group.throughput(Throughput::Elements(1));
    let bathtub = Hazard::table1();
    let flat = Hazard::table1().flattened();
    let mut rng = SeedFactory::new(2).stream(0);
    group.bench_function("bathtub", |b| {
        b.iter(|| black_box(bathtub.sample_ttf(Duration::ZERO, &mut rng)))
    });
    group.bench_function("flat", |b| {
        b.iter(|| black_box(flat.sample_ttf(Duration::ZERO, &mut rng)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_queue_churn,
    bench_queue_cancel,
    bench_ttf_sampling
);
criterion_main!(benches);
