//! Whole-trial benchmarks: how fast one six-year Monte-Carlo trial runs
//! at various scales and under both recovery policies, the cost of
//! system construction (placement of every group), and the cost of each
//! telemetry recorder.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use farm_core::prelude::*;
use farm_core::Simulation;
use farm_obs::{
    ConvergenceSpec, ObsOptions, SpanFormat, SpansSpec, StatusSpec, TimelineSpec, TraceSel,
    TraceSpec,
};
use std::hint::black_box;

fn cfg(total: u64, group: u64, recovery: RecoveryPolicy) -> SystemConfig {
    SystemConfig {
        total_user_bytes: total,
        group_user_bytes: group,
        recovery,
        ..SystemConfig::default()
    }
}

fn bench_trial(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim/six_year_trial");
    group.sample_size(10);
    for (label, total, gsize) in [
        ("64TiB_10GiB", 64 * TIB, 10 * GIB),
        ("256TiB_10GiB", 256 * TIB, 10 * GIB),
        ("256TiB_100GiB", 256 * TIB, 100 * GIB),
    ] {
        for (policy_name, policy) in [
            ("farm", RecoveryPolicy::Farm),
            ("raid", RecoveryPolicy::SingleSpare),
        ] {
            let config = cfg(total, gsize, policy);
            let mut seed = 0u64;
            group.bench_with_input(
                BenchmarkId::new(label, policy_name),
                &config,
                |b, config| {
                    b.iter(|| {
                        seed = seed.wrapping_add(1);
                        let mut sim = Simulation::new(config.clone(), seed);
                        black_box(sim.run())
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_construction(c: &mut Criterion) {
    // Construction = placing every redundancy group: the startup cost
    // that dominates small-group configurations.
    let mut group = c.benchmark_group("sim/construction");
    group.sample_size(10);
    for (label, total, gsize) in [
        ("256TiB_1GiB_groups", 256 * TIB, GIB),
        ("256TiB_100GiB_groups", 256 * TIB, 100 * GIB),
    ] {
        let config = cfg(total, gsize, RecoveryPolicy::Farm);
        group.bench_with_input(BenchmarkId::from_parameter(label), &config, |b, config| {
            b.iter(|| black_box(Simulation::new(config.clone(), 1)))
        });
    }
    group.finish();
}

fn bench_ablations(c: &mut Criterion) {
    // Ablation cost check: the candidate walk vs random target choice,
    // and contention modeling on/off (see the `ablations` experiment
    // binary for the reliability deltas these imply).
    let mut group = c.benchmark_group("sim/ablations");
    group.sample_size(10);
    let base = cfg(128 * TIB, 4 * GIB, RecoveryPolicy::Farm);
    let variants: [(&str, SystemConfig); 3] = [
        ("candidate_walk", base.clone()),
        (
            "random_target",
            SystemConfig {
                target_policy: farm_core::config::TargetPolicy::RandomEligible,
                ..base.clone()
            },
        ),
        (
            "no_contention",
            SystemConfig {
                model_contention: false,
                ..base.clone()
            },
        ),
    ];
    for (name, config) in variants {
        let mut seed = 0u64;
        group.bench_with_input(BenchmarkId::from_parameter(name), &config, |b, config| {
            b.iter(|| {
                seed = seed.wrapping_add(1);
                let mut sim = Simulation::new(config.clone(), seed);
                black_box(sim.run())
            })
        });
    }
    group.finish();
}

fn bench_recorders(c: &mut Criterion) {
    // What each telemetry recorder adds to one 8-trial chunk of full
    // trials, single-threaded, against `off`. Artifacts go to the temp
    // dir and are removed at the end.
    let mut group = c.benchmark_group("sim/recorders");
    group.sample_size(10);
    let config = cfg(64 * TIB, 10 * GIB, RecoveryPolicy::Farm);
    let tmp = |name: &str| {
        let path = std::env::temp_dir().join(format!("farm-bench-{}-{name}", std::process::id()));
        path.to_str().expect("temp dir is UTF-8").to_string()
    };
    let paths = [
        "timeline.csv",
        "postmortem.jsonl",
        "gauges.csv",
        "spans.jsonl",
        "convergence.jsonl",
        "status.json",
        "postmortem-only.jsonl",
        "loss-trace.jsonl",
    ]
    .map(tmp);
    let variants = [
        ("off", ObsOptions::off()),
        (
            "profile",
            ObsOptions {
                profile: true,
                ..ObsOptions::off()
            },
        ),
        (
            "postmortem",
            ObsOptions {
                postmortem: Some(paths[6].clone()),
                ..ObsOptions::off()
            },
        ),
        (
            "trace_loss",
            ObsOptions {
                trace: Some(TraceSpec {
                    sel: TraceSel::Loss,
                    path: Some(paths[7].clone()),
                }),
                ..ObsOptions::off()
            },
        ),
        (
            "timeline_postmortem",
            ObsOptions {
                timeline: Some(TimelineSpec {
                    path: paths[0].clone(),
                    interval_secs: None,
                }),
                postmortem: Some(paths[1].clone()),
                ..ObsOptions::off()
            },
        ),
        // A sample interval past any horizon: no sample is ever taken,
        // so this isolates the per-event `LiveGauges` upkeep.
        (
            "gauges",
            ObsOptions {
                timeline: Some(TimelineSpec {
                    path: paths[2].clone(),
                    interval_secs: Some(1e18),
                }),
                ..ObsOptions::off()
            },
        ),
        (
            "spans",
            ObsOptions {
                spans: Some(SpansSpec {
                    path: paths[3].clone(),
                    format: SpanFormat::Jsonl,
                }),
                ..ObsOptions::off()
            },
        ),
        (
            "convergence",
            ObsOptions {
                convergence: Some(ConvergenceSpec {
                    path: paths[4].clone(),
                    base_trials: None,
                }),
                ..ObsOptions::off()
            },
        ),
        // Last: the campaign monitor is process-global, so once this
        // variant installs it, its status thread runs until exit.
        (
            "monitor",
            ObsOptions {
                status: Some(StatusSpec {
                    path: paths[5].clone(),
                    interval_secs: Some(0.5),
                }),
                http: Some("127.0.0.1:0".to_string()),
                ..ObsOptions::off()
            },
        ),
    ];
    for (name, obs) in &variants {
        group.bench_function(*name, |b| {
            b.iter(|| black_box(run_trials_observed(&config, 2, 8, TrialMode::Full, 1, obs)))
        });
    }
    group.finish();
    for path in &paths {
        std::fs::remove_file(path).ok();
    }
}

// `bench_recorders` runs last: it leaves the campaign monitor installed.
criterion_group!(
    benches,
    bench_trial,
    bench_construction,
    bench_ablations,
    bench_recorders
);
criterion_main!(benches);
