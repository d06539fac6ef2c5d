//! # farm-core — FARM: FAst Recovery Mechanism
//!
//! A reproduction of *"Evaluation of Distributed Recovery in Large-Scale
//! Storage Systems"* (Xin, Miller & Schwarz, HPDC 2004): a discrete-event
//! Monte-Carlo simulator measuring the probability of data loss in
//! petabyte-scale storage systems under
//!
//! * **FARM** — declustered, distributed recovery: after a disk failure,
//!   every affected redundancy group re-replicates onto a different disk
//!   chosen from its RUSH candidate list, in parallel
//!   ([`config::RecoveryPolicy::Farm`]), versus
//! * **traditional RAID** — rebuild of the whole disk onto a single
//!   dedicated spare ([`config::RecoveryPolicy::SingleSpare`]).
//!
//! The model includes the paper's bathtub disk-failure hazard (Table 1),
//! failure-detection latency, bounded per-disk recovery bandwidth,
//! recovery redirection, batch disk replacement with data migration, and
//! all six redundancy schemes of Figure 3.
//!
//! ```
//! use farm_core::prelude::*;
//!
//! // A scaled-down system: 2 TiB of user data, two-way mirroring.
//! let cfg = SystemConfig {
//!     total_user_bytes: 2 * farm_disk::TIB,
//!     group_user_bytes: 4 * farm_disk::GIB,
//!     disk_capacity: 64 * farm_disk::GIB,
//!     ..SystemConfig::default()
//! };
//! let summary = run_trials(&cfg, 42, 4, TrialMode::UntilLoss);
//! assert_eq!(summary.trials(), 4);
//! // P(data loss) over the 6-year design life:
//! let _p = summary.p_loss.value();
//! ```

pub mod analytic;
pub mod config;
pub mod layout;
pub mod markov;
pub mod metrics;
pub mod montecarlo;
pub mod observer;
pub mod recovery;
pub mod replacement;
pub mod sim;
#[cfg(test)]
mod sim_tests;
pub mod workload;

pub use config::{PreparedConfig, RecoveryPolicy, ReplacementPolicy, SystemConfig, WorkloadConfig};
pub use layout::{BlockRef, GroupLayout};
pub use metrics::{McSummary, TrialMetrics};
pub use montecarlo::{
    run_trial, run_trials, run_trials_observed, run_trials_with_threads, TrialMode, TrialWorkspace,
};
pub use observer::{TrialArtifacts, TrialObserver};
pub use sim::{Event, Simulation};

/// Common imports for examples and experiments.
pub mod prelude {
    pub use crate::config::{
        PreparedConfig, RecoveryPolicy, ReplacementPolicy, SystemConfig, WorkloadConfig,
    };
    pub use crate::metrics::{McSummary, TrialMetrics};
    pub use crate::montecarlo::{
        default_threads, run_trial, run_trials, run_trials_observed, run_trials_with_threads,
        TrialMode, TrialWorkspace,
    };
    pub use crate::sim::Simulation;
    pub use farm_des::time::Duration;
    pub use farm_disk::model::{GIB, MIB, PIB, TIB};
    pub use farm_erasure::Scheme;
}
