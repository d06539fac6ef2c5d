//! The resumable campaign behind the `fleet` binary.
//!
//! One process runs a fixed campaign through
//! [`run_trials_checkpointed`], which appends every committed reduction
//! chunk to `<dir>/checkpoint-<fingerprint>.txt`. Killed at any point
//! and started again with the same options, it runs only the chunks the
//! checkpoint is missing, and the summary it writes to
//! `<dir>/fleet-summary.txt` is byte-identical to an uninterrupted
//! run's (DESIGN.md §18).

use crate::base_config;
use crate::cli::Options;
use farm_core::montecarlo::run_trials_checkpointed;
use farm_core::prelude::*;
use std::io;
use std::path::Path;

/// Campaign directory for a bare `FARM_FLEET=1`, and when it is unset.
pub const DEFAULT_FLEET_DIR: &str = "farm-fleet";

/// The campaign directory named by a `FARM_FLEET` value: `""` or `"1"`
/// mean [`DEFAULT_FLEET_DIR`], anything else is a path.
pub fn fleet_dir(env: Option<&str>) -> String {
    match env.map(str::trim) {
        None | Some("" | "1") => DEFAULT_FLEET_DIR.to_string(),
        Some(p) => p.to_string(),
    }
}

/// The fleet campaign's configuration: the Figure 3 slice (first
/// figure-3 scheme, 100 GiB groups, zero detection latency, FARM
/// recovery) at the run's scale.
pub fn fleet_config(opts: &Options) -> SystemConfig {
    SystemConfig {
        scheme: Scheme::figure3_schemes()[0],
        group_user_bytes: 100 * GIB,
        detection_latency: Duration::ZERO,
        recovery: RecoveryPolicy::Farm,
        ..base_config(opts)
    }
}

/// Run (or resume) the campaign in `dir` and write its summary's
/// compact form to `<dir>/fleet-summary.txt`. Observability comes from
/// the `FARM_*` environment; only `FARM_PROGRESS`, `FARM_STATUS` and
/// `FARM_HTTP` attach (see [`run_trials_checkpointed`]).
pub fn run_campaign(opts: &Options, dir: &Path) -> io::Result<McSummary> {
    let summary = run_trials_checkpointed(
        &fleet_config(opts),
        opts.seed,
        opts.trials,
        TrialMode::UntilLoss,
        opts.threads,
        &farm_obs::ObsOptions::from_env(),
        dir,
    )?;
    let path = dir.join("fleet-summary.txt");
    let tmp = path.with_extension(format!("txt.tmp.{}", std::process::id()));
    std::fs::write(&tmp, format!("{}\n", summary.to_compact()))?;
    std::fs::rename(&tmp, &path)?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_options;
    use farm_core::montecarlo::{campaign_fingerprint, checkpoint_path, run_trials_observed};
    use farm_obs::ObsOptions;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("farm-fleet-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn campaign(opts: &Options, dir: &Path) -> io::Result<McSummary> {
        let cfg = fleet_config(opts);
        let obs = ObsOptions::off();
        run_trials_checkpointed(
            &cfg,
            opts.seed,
            opts.trials,
            TrialMode::UntilLoss,
            1,
            &obs,
            dir,
        )
    }

    #[test]
    fn fleet_env_knobs() {
        assert_eq!(fleet_dir(None), "farm-fleet");
        assert_eq!(fleet_dir(Some("")), "farm-fleet");
        assert_eq!(fleet_dir(Some("1")), "farm-fleet");
        assert_eq!(fleet_dir(Some(" /tmp/c ")), "/tmp/c");
    }

    #[test]
    fn fingerprint_tracks_campaign_identity() {
        let opts = test_options();
        let cfg = fleet_config(&opts);
        let a = campaign_fingerprint(&cfg, 7, 16, TrialMode::UntilLoss);
        assert_eq!(a, campaign_fingerprint(&cfg, 7, 16, TrialMode::UntilLoss));
        assert_ne!(a, campaign_fingerprint(&cfg, 8, 16, TrialMode::UntilLoss));
        assert_ne!(a, campaign_fingerprint(&cfg, 7, 24, TrialMode::UntilLoss));
        assert_ne!(a, campaign_fingerprint(&cfg, 7, 16, TrialMode::Full));
        let mut other = cfg.clone();
        other.group_user_bytes *= 2;
        assert_ne!(a, campaign_fingerprint(&other, 7, 16, TrialMode::UntilLoss));
    }

    #[test]
    fn checkpoint_round_trip_is_bit_exact() {
        // A rerun over a complete checkpoint builds nothing: it folds
        // the summaries read back from the file, which must give the
        // in-process bytes and leave the file as it was.
        let mut opts = test_options();
        opts.trials = 20;
        let dir = scratch("roundtrip");
        let cfg = fleet_config(&opts);
        let (reference, _) = run_trials_observed(
            &cfg,
            opts.seed,
            20,
            TrialMode::UntilLoss,
            2,
            &ObsOptions::off(),
        );
        let first = campaign(&opts, &dir).unwrap();
        let path = checkpoint_path(
            &dir,
            campaign_fingerprint(&cfg, opts.seed, 20, TrialMode::UntilLoss),
        );
        let body = std::fs::read_to_string(&path).unwrap();
        let again = campaign(&opts, &dir).unwrap();
        assert_eq!(first.to_compact(), reference.to_compact());
        assert_eq!(again.to_compact(), reference.to_compact());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), body);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_rejects_tampering() {
        let opts = test_options(); // 4 trials: one chunk
        let dir = scratch("tamper");
        let cfg = fleet_config(&opts);
        campaign(&opts, &dir).unwrap();
        let path = checkpoint_path(
            &dir,
            campaign_fingerprint(&cfg, opts.seed, 4, TrialMode::UntilLoss),
        );
        let good = std::fs::read_to_string(&path).unwrap();
        let chunk_line = good.lines().nth(2).unwrap().to_string();
        let rejects = |body: &str, why: &str| {
            std::fs::write(&path, body).unwrap();
            let err = campaign(&opts, &dir).unwrap_err().to_string();
            assert!(err.contains(&*path.to_string_lossy()), "{why}: {err}");
            err
        };
        let header = good.lines().take(2).collect::<Vec<_>>().join("\n");
        // A chunk index past the campaign's one chunk.
        let past = chunk_line.replacen("chunk=0 ", "chunk=1 ", 1);
        assert!(rejects(&format!("{header}\n{past}\n"), "index").contains(":3:"));
        // A non-canonical chunk index.
        let padded = chunk_line.replacen("chunk=0 ", "chunk=00 ", 1);
        rejects(&format!("{header}\n{padded}\n"), "padded index");
        // A record whose trial count is not its chunk's.
        let five = chunk_line.replacen(";t=4|p_redirection", ";t=5|p_redirection", 1);
        assert!(rejects(&format!("{header}\n{five}\n"), "trial count").contains("holds 5 trials"));
        // No header at all.
        rejects(&format!("{chunk_line}\n"), "header");
        // A torn line is only forgiven at the end of the file.
        let torn = &chunk_line[..chunk_line.len() / 2];
        rejects(&format!("{header}\n{torn}\n{chunk_line}\n"), "torn middle");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
