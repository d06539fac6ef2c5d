//! Discrete-event substrate micro-benchmarks: event queue operations and
//! bathtub-lifetime sampling, the two inner loops of every trial.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use farm_des::rng::SeedFactory;
use farm_des::time::Duration;
use farm_des::{EventQueue, SimTime};
use farm_disk::failure::Hazard;
use std::hint::black_box;

fn bench_queue_churn(c: &mut Criterion) {
    // Steady-state schedule+pop at various heap depths. The pop on the
    // empty queue ends its bulk phase, so the prefill goes to the heap.
    let mut group = c.benchmark_group("des/queue_schedule_pop");
    for depth in [100usize, 10_000, 100_000] {
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, &depth| {
            let mut q = EventQueue::new();
            let mut rng = SeedFactory::new(1).stream(0);
            assert!(q.pop().is_none());
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

fn bench_queue_trial(c: &mut Criterion) {
    // One trial's queue traffic in the paper's base config: ~1,100
    // failures known up front over six years, then one detect (+30 s)
    // per failure and eight rebuild completions (~2-9 h) per detect.
    const FAILURES: usize = 1_100;
    let horizon = Duration::from_years(6.0).as_secs();
    let mut q = EventQueue::new();
    let mut rng = SeedFactory::new(3).stream(0);
    let mut group = c.benchmark_group("des/queue_trial");
    group.throughput(Throughput::Elements(FAILURES as u64 * 10));
    group.bench_function("base_config", |b| {
        b.iter(|| {
            q.reset();
            for _ in 0..FAILURES {
                q.schedule(SimTime::from_secs(rng.uniform() * horizon), 0u8);
            }
            let mut events = 0u32;
            while let Some((t, kind)) = q.pop() {
                events += 1;
                match kind {
                    0 => q.schedule(t + Duration::from_secs(30.0), 1),
                    1 => {
                        for _ in 0..8 {
                            let rebuild = 6_400.0 * (1.0 + 4.0 * rng.uniform());
                            q.schedule(t + Duration::from_secs(rebuild), 2);
                        }
                    }
                    _ => {}
                }
            }
            black_box(events)
        })
    });
    group.finish();
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
    bench_queue_trial,
    bench_ttf_sampling
);
criterion_main!(benches);
