//! Benchmark of the FARM simulator workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--out <dir>] [--sensitivity place-engine-off]
//!           [--host-rustc <version>] [--host-commit <id>]
//! ```
//!
//! Workloads: `paper_ci`, `fig7_replacement`, `rs_wide_groups` (the
//! Monte-Carlo simulator, see `mc.rs`) and `osd_rebuild` (recovery of
//! real bytes, see `osd.rs`). `--trace 0` prints the end-to-end metrics,
//! `--trace 1` the per-layer ones; the last line of standard output is
//! the JSON result. See `README.md` for what each metric means.

mod mc;
mod osd;
mod report;
mod trace;

use report::{quantile, Report};
use std::path::PathBuf;
use std::process::ExitCode;

/// The seed whose unit-0 summaries are pinned by digest.
pub const DEFAULT_SEED: u64 = 1;

/// How far the sum of span self times may stray from the traced wall,
/// as a share of it.
pub const SELF_TIME_TOLERANCE: f64 = 0.01;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
    sensitivity: Option<String>,
    host_rustc: String,
    host_commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from("perfbench-out"),
        sensitivity: None,
        host_rustc: "unknown".into(),
        host_commit: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|e| format!("--seed {v:?}: {e}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().map_err(|e| format!("--seconds {v:?}: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err(format!("--seconds {v}: want a number in (0, 120]"));
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v:?}: want 0 or 1")),
                }
            }
            "--out" => args.out_dir = PathBuf::from(value()?),
            "--sensitivity" => {
                let v = value()?;
                if v != "place-engine-off" {
                    return Err(format!(
                        "--sensitivity {v:?}: the only mode is place-engine-off"
                    ));
                }
                args.sensitivity = Some(v);
            }
            "--host-rustc" => args.host_rustc = value()?,
            "--host-commit" => args.host_commit = value()?,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// `FARM_*` variables switch code paths inside the workspace
/// (workspace recycling, placement engine and kernels, GF kernels,
/// thread count, telemetry), so a run refuses to start with any set.
/// The sensitivity mode sets the one it names itself.
fn pin_environment(args: &Args) -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("FARM_"))
        .collect();
    if let Some(name) = set.first() {
        return Err(format!(
            "environment variable {name} is set; FARM_* variables change code paths \
             inside the program, unset them (the sensitivity mode is --sensitivity place-engine-off)"
        ));
    }
    if args.sensitivity.is_some() {
        std::env::set_var("FARM_PLACE_ENGINE", "0");
    }
    Ok(())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn host_record(args: &Args) -> String {
    format!(
        "{{\"nproc\": {}, \"cpu\": \"{}\", \"place_kernel\": \"{}\", \"place_engine\": {}, \
         \"gf_kernel\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\"}}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cpu_model().replace('"', "'"),
        farm_placement::kernel::active().name(),
        farm_placement::kernel::engine_enabled(),
        farm_erasure::gf256::kernel::active().name(),
        args.host_rustc.replace('"', "'"),
        args.host_commit.replace('"', "'"),
    )
}

/// Per-layer metrics every workload reports: the first build of its
/// system, per-trial (or per-round) wall time, and the trace's own
/// overhead and consistency.
pub fn common_trace_metrics(
    r: &mut Report,
    first_build_ms: f64,
    trial_ms: &[f64],
    trace_overhead: f64,
    self_sum_frac: f64,
    spans: usize,
) {
    r.metric("setup.first_build_ms", first_build_ms, "ms");
    r.metric("trial_ms_p50", quantile(trial_ms, 0.5), "ms");
    r.metric("trial_ms_p99", quantile(trial_ms, 0.99), "ms");
    r.metric("trial_ms.samples", trial_ms.len() as f64, "count");
    r.metric("trace.overhead_frac", trace_overhead, "ratio");
    r.metric("trace.self_sum_frac", self_sum_frac, "ratio");
    r.metric("trace.spans", spans as f64, "count");
}

/// Close out a traced pass: check that the span self times add up to
/// `wall_ns` (read around the pass) within [`SELF_TIME_TOLERANCE`] and
/// that no span's children outlast it, print the self-time table, and
/// write the spans as JSONL under `--out`. Returns the self-time sum as
/// a share of the wall.
pub fn finish_trace(
    r: &mut Report,
    args: &Args,
    trace: &trace::Trace,
    wall_ns: u64,
    ops: u64,
) -> f64 {
    let self_sum = trace.self_sum_frac(wall_ns);
    r.check((self_sum - 1.0).abs() <= SELF_TIME_TOLERANCE, ops, || {
        format!(
            "{}: span self times sum to {self_sum} of the traced wall",
            args.workload
        )
    });
    let over = trace.overclaimed(1_000);
    r.check(over == 0, ops, || {
        format!(
            "{}: {over} spans have children longer than themselves",
            args.workload
        )
    });
    println!("{}", trace.render_self_table(wall_ns));
    let path = args
        .out_dir
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    match trace.write_jsonl(&path) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("cannot write spans to {}: {e}", path.display()),
    }
    self_sum
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = pin_environment(&args) {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    let host = host_record(&args);
    eprintln!("host {host}");
    let report = match (args.workload.as_str(), mc::workload(&args.workload)) {
        (_, Some(w)) if args.trace => w.run_traced(&args),
        (_, Some(w)) => w.run(&args),
        ("osd_rebuild", None) if args.trace => osd::run_traced(&args),
        ("osd_rebuild", None) => osd::run(&args),
        (other, None) => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    println!("host {host}");
    report.print();
    ExitCode::SUCCESS
}
