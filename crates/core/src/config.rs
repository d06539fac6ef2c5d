//! System configuration: Table 2 of the paper, plus the knobs each
//! experiment sweeps.
//!
//! Observability switches (tracing, profiling, progress) deliberately do
//! *not* live here: `SystemConfig` fully determines simulation results,
//! while observability must never affect them. Those knobs come from
//! `farm-obs` ([`farm_obs::ObsOptions`]) via CLI flags or `FARM_*`
//! environment variables instead.

use farm_des::time::Duration;
use farm_disk::failure::Hazard;
use farm_disk::health::SmartConfig;
use farm_disk::model::{GIB, MIB, PIB, TIB};
use farm_erasure::Scheme;
use serde::{Deserialize, Serialize};

/// Which recovery mechanism handles disk failures.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum RecoveryPolicy {
    /// FARM: distribute new replicas of every affected redundancy group
    /// across many disks, in parallel (§2.3, Figure 2(d)).
    Farm,
    /// Traditional RAID: rebuild the whole failed disk onto one dedicated
    /// spare drive; reconstruction requests queue at the single target
    /// (Figure 2(c)).
    SingleSpare,
}

/// How FARM picks a recovery target (ablation knob; the paper's policy
/// is [`TargetPolicy::CandidateWalk`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum TargetPolicy {
    /// §2.3: walk the group's RUSH candidate list, applying the
    /// alive/no-buddy/space hard constraints and the health/bandwidth
    /// soft constraints.
    CandidateWalk,
    /// Ablation baseline: a uniformly random active disk satisfying only
    /// the hard constraints (no candidate ordering, no soft constraints).
    RandomEligible,
}

/// When and how failed drives are replaced by new batches (§3.5).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ReplacementPolicy {
    /// Add a batch once this fraction of the original drive population
    /// has failed (the paper examines 0.02, 0.04, 0.06 and 0.08).
    /// `None` disables replacement.
    pub threshold: Option<f64>,
}

impl ReplacementPolicy {
    pub fn never() -> Self {
        ReplacementPolicy { threshold: None }
    }

    pub fn at_fraction(f: f64) -> Self {
        assert!(f > 0.0 && f < 1.0, "threshold fraction {f}");
        ReplacementPolicy { threshold: Some(f) }
    }
}

/// Optional diurnal user-workload model: recovery can run faster when the
/// system is idle (§2.4 mentions exploiting idle time; this is our
/// extension, off by default).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Peak-hour recovery bandwidth multiplier (≤ 1).
    pub busy_factor: f64,
    /// Idle-hour recovery bandwidth multiplier (≥ 1), capped by the 20%
    /// device-bandwidth rule.
    pub idle_factor: f64,
    /// Fraction of each day that is busy.
    pub busy_fraction: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            busy_factor: 0.5,
            idle_factor: 1.5,
            busy_fraction: 0.4,
        }
    }
}

/// Full system configuration. `SystemConfig::default()` reproduces the
/// base values of Table 2.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Total user data stored in the system (Table 2: 2 PB).
    pub total_user_bytes: u64,
    /// User data per redundancy group (Table 2: 100 GB; 500 GB in
    /// Fig 3(b); 1–100 GB examined).
    pub group_user_bytes: u64,
    /// Redundancy scheme (Table 2: two-way mirroring).
    pub scheme: Scheme,
    /// Recovery mechanism under test.
    pub recovery: RecoveryPolicy,
    /// Latency from disk failure to detection (Table 2: 30 s; 0–3600 s
    /// examined).
    pub detection_latency: Duration,
    /// Disk bandwidth devoted to recovery (Table 2: 16 MB/s; 8–40
    /// examined).
    pub recovery_bandwidth: u64,
    /// Capacity of each drive (§3.1: 1 TB).
    pub disk_capacity: u64,
    /// Sustained bandwidth of each drive (§3.1: 150 MB/s).
    pub disk_bandwidth: u64,
    /// Average fraction of each disk filled at initialization (§3.1:
    /// at most 40% reserved; §3.4 fills to 40%).
    pub target_utilization: f64,
    /// Simulated horizon (§3.1: six years, the drives' design life).
    pub sim_years: f64,
    /// Disk lifetime distribution.
    pub hazard: Hazard,
    /// Batch replacement policy.
    pub replacement: ReplacementPolicy,
    /// Optional S.M.A.R.T. health monitoring for target selection.
    pub smart: Option<SmartConfig>,
    /// Optional adaptive recovery bandwidth under a diurnal workload.
    pub workload: Option<WorkloadConfig>,
    /// Optional latent-sector-error + scrubbing model (extension): a
    /// rebuild read can trip an undiscovered defect on a source drive.
    pub latent: Option<farm_disk::latent::LatentConfig>,
    /// Recovery-target selection policy (ablation knob).
    pub target_policy: TargetPolicy,
    /// Model per-disk recovery-bandwidth contention (rebuilds sharing a
    /// disk queue). Disabling it is the "infinite parallelism" ablation.
    pub model_contention: bool,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            total_user_bytes: 2 * PIB,
            group_user_bytes: 100 * GIB,
            scheme: Scheme::two_way_mirroring(),
            recovery: RecoveryPolicy::Farm,
            detection_latency: Duration::from_secs(30.0),
            recovery_bandwidth: 16 * MIB,
            disk_capacity: TIB,
            disk_bandwidth: 150 * MIB,
            target_utilization: 0.4,
            sim_years: 6.0,
            hazard: Hazard::table1(),
            replacement: ReplacementPolicy::never(),
            smart: None,
            workload: None,
            latent: None,
            target_policy: TargetPolicy::CandidateWalk,
            model_contention: true,
        }
    }
}

impl SystemConfig {
    /// A laptop-scale configuration (0.1 PiB) with the same proportions,
    /// for tests and quick runs.
    pub fn small() -> Self {
        SystemConfig {
            total_user_bytes: PIB / 10,
            ..SystemConfig::default()
        }
    }

    /// Number of redundancy groups. The configured total is rounded to a
    /// whole number of groups (binary group sizes rarely divide binary
    /// totals exactly; the paper's decimal "2 PB / 100 GB" did).
    pub fn n_groups(&self) -> u64 {
        ((self.total_user_bytes + self.group_user_bytes / 2) / self.group_user_bytes).max(1)
    }

    /// Raw bytes stored including redundancy (whole groups).
    pub fn total_stored_bytes(&self) -> u64 {
        self.n_groups() * self.scheme.stored_bytes(self.group_user_bytes)
    }

    /// Size of one block of a group.
    pub fn block_bytes(&self) -> u64 {
        self.scheme.block_bytes(self.group_user_bytes)
    }

    /// Number of active data-holding drives, sized so the initial
    /// average utilization hits `target_utilization` (§3.1: "up to
    /// 15,000 disk drives" at 2 PB depending on the scheme).
    pub fn n_disks(&self) -> u32 {
        let per_disk = (self.disk_capacity as f64 * self.target_utilization) as u64;
        let n = self.total_stored_bytes().div_ceil(per_disk);
        // Floor: enough drives for a group's n distinct homes plus spare
        // recovery targets (only relevant for toy-scale configurations).
        let floor = (3 * self.scheme.n as u64).max(8);
        u32::try_from(n.max(floor)).expect("disk count fits u32")
    }

    /// Seconds to rebuild one block at the configured recovery bandwidth
    /// (§3.3's worked example: 64 s for 1 GB at 16 MB/s).
    pub fn block_rebuild_secs(&self) -> f64 {
        self.block_bytes() as f64 / self.recovery_bandwidth as f64
    }

    pub fn sim_duration(&self) -> Duration {
        Duration::from_years(self.sim_years)
    }

    /// Sanity-check invariants before a run.
    pub fn validate(&self) -> Result<(), String> {
        if self.group_user_bytes == 0 || self.total_user_bytes == 0 {
            return Err("sizes must be positive".into());
        }
        if !self.group_user_bytes.is_multiple_of(self.scheme.m as u64) {
            return Err(format!(
                "group size must divide into {} data blocks",
                self.scheme.m
            ));
        }
        if self.block_bytes() > self.disk_capacity {
            return Err("a block must fit on one disk".into());
        }
        // The paper's base assumption caps recovery at 20% of device
        // bandwidth, but Figure 5 sweeps past it (8–40 MB/s), so the hard
        // limit here is only the physical device bandwidth.
        if self.recovery_bandwidth == 0 || self.recovery_bandwidth > self.disk_bandwidth {
            return Err(format!(
                "recovery bandwidth {} outside (0, {}]",
                self.recovery_bandwidth, self.disk_bandwidth
            ));
        }
        if !(0.0..=farm_disk::model::MAX_INITIAL_UTILIZATION + 1e-9)
            .contains(&self.target_utilization)
        {
            return Err("target utilization above the 40% reservation rule".into());
        }
        if (self.scheme.n as u64) > self.n_disks() as u64 {
            return Err("scheme needs more disks than the system has".into());
        }
        Ok(())
    }
}

/// A validated [`SystemConfig`] bundled with its derived quantities,
/// computed once per Monte-Carlo batch and shared across trials behind
/// an `Arc` (the batch drivers in `montecarlo.rs` build one; each
/// worker thread clones the pointer, not the config).
///
/// The derived fields are exactly what the trial hot paths used to
/// recompute per call: `n_disks`/`n_groups` walk the whole sizing chain
/// (`total_stored_bytes` → `div_ceil`), `block_bytes` sits on the
/// rebuild-scheduling path, and `block_rebuild_secs` divides by the
/// recovery bandwidth. `Deref`s to [`SystemConfig`] so the plain knob
/// fields read naturally through it.
#[derive(Clone, Debug)]
pub struct PreparedConfig {
    cfg: SystemConfig,
    /// [`SystemConfig::n_disks`], precomputed.
    pub n_disks: u32,
    /// [`SystemConfig::n_groups`], precomputed (fits `u32`: checked
    /// against the `BlockRef` packing limit by the simulation anyway).
    pub n_groups: u64,
    /// [`SystemConfig::block_bytes`], precomputed.
    pub block_bytes: u64,
    /// [`SystemConfig::block_rebuild_secs`], precomputed.
    pub block_rebuild_secs: f64,
    /// [`SystemConfig::sim_duration`], precomputed.
    pub sim_duration: Duration,
    /// [`Hazard::survival_threshold`] over the horizon: a disk whose
    /// lifetime draw falls below it outlives the simulation.
    ///
    /// [`Hazard::survival_threshold`]: farm_disk::failure::Hazard::survival_threshold
    pub survival_u: f64,
}

impl PreparedConfig {
    /// Validate `cfg` and compute the derived values. Panics on an
    /// invalid configuration, mirroring `Simulation::new`'s contract.
    pub fn new(cfg: SystemConfig) -> Self {
        cfg.validate().expect("invalid system configuration");
        PreparedConfig {
            n_disks: cfg.n_disks(),
            n_groups: cfg.n_groups(),
            block_bytes: cfg.block_bytes(),
            block_rebuild_secs: cfg.block_rebuild_secs(),
            sim_duration: cfg.sim_duration(),
            survival_u: cfg.hazard.survival_threshold(cfg.sim_duration()),
            cfg,
        }
    }

    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }
}

impl std::ops::Deref for PreparedConfig {
    type Target = SystemConfig;

    fn deref(&self) -> &SystemConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepared_config_agrees_with_on_the_fly_derivation() {
        for cfg in [
            SystemConfig::default(),
            SystemConfig::small(),
            SystemConfig {
                scheme: Scheme::new(8, 10),
                ..SystemConfig::default()
            },
        ] {
            let p = PreparedConfig::new(cfg.clone());
            assert_eq!(p.n_disks, cfg.n_disks());
            assert_eq!(p.n_groups, cfg.n_groups());
            assert_eq!(p.block_bytes, cfg.block_bytes());
            assert_eq!(p.block_rebuild_secs, cfg.block_rebuild_secs());
            assert_eq!(p.sim_duration.as_secs(), cfg.sim_duration().as_secs());
            let survival_u = cfg.hazard.survival_threshold(cfg.sim_duration());
            assert_eq!(p.survival_u.to_bits(), survival_u.to_bits());
            // Deref exposes the raw knobs.
            assert_eq!(p.total_user_bytes, cfg.total_user_bytes);
        }
    }

    #[test]
    #[should_panic]
    fn prepared_config_rejects_invalid() {
        let _ = PreparedConfig::new(SystemConfig {
            recovery_bandwidth: 0,
            ..SystemConfig::default()
        });
    }

    #[test]
    fn default_matches_table2() {
        let c = SystemConfig::default();
        assert_eq!(c.total_user_bytes, 2 * PIB);
        assert_eq!(c.group_user_bytes, 100 * GIB);
        assert_eq!(c.scheme, Scheme::new(1, 2));
        assert!((c.detection_latency.as_secs() - 30.0).abs() < 1e-12);
        assert_eq!(c.recovery_bandwidth, 16 * MIB);
        assert_eq!(c.sim_years, 6.0);
        c.validate().expect("default config is valid");
    }

    #[test]
    fn disk_count_matches_section_3_1() {
        // 2 PiB mirrored ≈ 4 PiB stored; at 40% of 1 TiB per disk that is
        // ~10,240 drives — the paper's "10,000 disks" (§3.4).
        let c = SystemConfig::default();
        assert!((10_200..10_300).contains(&c.n_disks()), "{}", c.n_disks());
        // Three-way mirroring pushes toward the paper's 15,000 ceiling.
        let c3 = SystemConfig {
            scheme: Scheme::mirroring(3),
            ..SystemConfig::default()
        };
        assert!((15_300..15_450).contains(&c3.n_disks()), "{}", c3.n_disks());
    }

    #[test]
    fn group_count() {
        // 2 PiB / 100 GiB = 20971.52, rounded to whole groups.
        let c = SystemConfig::default();
        assert_eq!(c.n_groups(), 20_972);
        // Exact divisions stay exact.
        let c2 = SystemConfig {
            total_user_bytes: 2 * PIB,
            group_user_bytes: PIB / 1024, // 1 TiB groups
            ..SystemConfig::default()
        };
        assert_eq!(c2.n_groups(), 2048);
    }

    #[test]
    fn rebuild_time_worked_example() {
        let c = SystemConfig {
            group_user_bytes: GIB,
            ..SystemConfig::default()
        };
        assert!((c.block_rebuild_secs() - 64.0).abs() < 1e-9);
        let c100 = SystemConfig::default();
        assert!((c100.block_rebuild_secs() - 6400.0).abs() < 1e-9);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = SystemConfig {
            recovery_bandwidth: 200 * MIB, // exceeds device bandwidth
            ..SystemConfig::default()
        };
        assert!(c.validate().is_err());
        c.recovery_bandwidth = 0;
        assert!(c.validate().is_err());
        c.recovery_bandwidth = 40 * MIB; // Figure 5's top sweep point
        assert!(c.validate().is_ok());

        let c = SystemConfig {
            target_utilization: 0.9, // violates 40% reservation
            ..SystemConfig::default()
        };
        assert!(c.validate().is_err());

        let mut c = SystemConfig {
            group_user_bytes: 100 * GIB,
            scheme: Scheme::new(8, 10),
            ..SystemConfig::default()
        };
        c.group_user_bytes = 100 * GIB; // 100 GiB / 8 is fine (12.5 GiB)
        assert!(c.validate().is_ok());

        // 100 GiB not divisible by 3 data blocks.
        let c = SystemConfig {
            scheme: Scheme::new(3, 4),
            ..SystemConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn erasure_schemes_use_fewer_disks_than_mirroring() {
        let mirror = SystemConfig::default();
        let rs = SystemConfig {
            scheme: Scheme::new(8, 10),
            ..SystemConfig::default()
        };
        assert!(rs.n_disks() < mirror.n_disks());
        // ~2.5 PiB stored / 0.4 TiB per disk ≈ 6,400.
        assert!((6_380..6_420).contains(&rs.n_disks()), "{}", rs.n_disks());
    }

    #[test]
    fn replacement_policy_constructors() {
        assert!(ReplacementPolicy::never().threshold.is_none());
        assert_eq!(ReplacementPolicy::at_fraction(0.2).threshold, Some(0.2));
    }

    #[test]
    #[should_panic]
    fn replacement_fraction_must_be_in_range() {
        let _ = ReplacementPolicy::at_fraction(1.5);
    }
}
