//! Resumable campaign driver: run the fixed fig3 mirroring campaign in
//! one process, checkpointing each committed reduction chunk under the
//! campaign directory. Killed and started again with the same options,
//! it runs only the missing chunks and writes the same
//! `<dir>/fleet-summary.txt` bytes as an uninterrupted run.
use farm_core::montecarlo::default_threads;
use farm_experiments::cli::Options;
use farm_experiments::fleet;
use std::path::PathBuf;

const USAGE: &str = "usage: fleet [--fleet DIR] [--quick|--full] [--trials N] [--seed S] \
     [--threads T] [--scale X]";

fn fail(msg: &str) -> ! {
    eprintln!("fleet: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> String {
    it.next()
        .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
}

fn number<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> T {
    value(it, flag)
        .parse()
        .unwrap_or_else(|_| fail(&format!("{flag}: not a number")))
}

fn main() {
    // `--quick`/`--full` pick the defaults; the other flags override
    // them wherever they appear on the command line.
    let mut full = false;
    let (mut trials, mut seed, mut scale) = (None, None, None);
    let mut threads = default_threads();
    let mut dir = fleet::fleet_dir(std::env::var("FARM_FLEET").ok().as_deref());

    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fleet" => dir = value(&mut it, "--fleet"),
            "--quick" => full = false,
            "--full" => full = true,
            "--trials" => trials = Some(number(&mut it, "--trials")),
            "--seed" => seed = Some(number(&mut it, "--seed")),
            "--threads" => {
                threads = number(&mut it, "--threads");
                if threads == 0 {
                    fail("--threads must be >= 1");
                }
            }
            "--scale" => {
                let x: f64 = number(&mut it, "--scale");
                if !(x > 0.0 && x.is_finite()) {
                    fail("--scale must be a positive finite number");
                }
                scale = Some(x);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown flag {other}")),
        }
    }
    let mut opts = if full {
        Options::full_default()
    } else {
        Options::quick_default()
    };
    opts.trials = trials.unwrap_or(opts.trials);
    opts.seed = seed.unwrap_or(opts.seed);
    opts.scale = scale.unwrap_or(opts.scale);
    opts.threads = threads;

    match fleet::run_campaign(&opts, &PathBuf::from(dir)) {
        Ok(summary) => {
            let p = summary.p_loss;
            let (lo, hi) = p.wilson95();
            println!(
                "fleet: {} trials, {} losses, p_loss={:.6} wilson95=[{:.6}, {:.6}]",
                p.trials,
                p.successes,
                p.value(),
                lo,
                hi
            );
        }
        Err(e) => {
            eprintln!("fleet: {e}");
            std::process::exit(1);
        }
    }
}
