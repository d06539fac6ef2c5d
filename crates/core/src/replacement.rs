//! Batch disk replacement and data migration (§3.5).
//!
//! "It is typically infeasible to add disk drives one by one into large
//! storage systems ... Instead, a cluster of disk drives, called a batch,
//! is added." Once the system has lost the configured fraction of its
//! drives, a batch of new (age-0, hence infant-mortality-prone — the
//! *cohort effect*) drives joins as a new placement sub-cluster, and the
//! placement function migrates the batch's fair share of data onto it.
//!
//! Migration is a delta: adding cluster J cannot change any RUSH draw at
//! clusters < J, so a group whose walk was *clean* under the old map
//! (first `n` candidates all attempt-0 draws, see
//! [`Rush::fill_walk`](farm_placement::Rush::fill_walk)) keeps them
//! unless cluster J's take-hash fires on one of them
//! ([`Rush::growth_probe`](farm_placement::Rush::growth_probe)). Only the
//! groups where it fires, and the rare groups that are not clean, are
//! re-walked, so the outcome equals re-placing every group.

use crate::layout::BlockRef;
use crate::sim::Simulation;
use farm_placement::{kernel, DiskId};

/// Per-trial delta-migration state: one clean bit per group, describing
/// its walk under the current cluster map. Initial placement reports
/// every bit when the config has a replacement policy (its fill is the
/// same test), and batches carry them forward.
#[derive(Default)]
pub(crate) struct Migration {
    clean: Vec<u64>,
    /// The first `n` candidates of the group being re-walked.
    homes: Vec<DiskId>,
}

impl Migration {
    /// Size for `n_groups` groups of `n` blocks, every bit unclean.
    pub(crate) fn reset(&mut self, n_groups: u32, n: usize) {
        self.clean.clear();
        self.clean.resize((n_groups as usize).div_ceil(64), 0);
        self.homes.resize(n, DiskId(0));
    }

    pub(crate) fn is_clean(&self, group: u32) -> bool {
        self.clean[group as usize / 64] >> (group % 64) & 1 == 1
    }

    #[inline]
    pub(crate) fn set_clean(&mut self, group: u32, clean: bool) {
        let word = &mut self.clean[group as usize / 64];
        let shift = group % 64;
        *word = *word & !(1 << shift) | (clean as u64) << shift;
    }
}

impl Simulation {
    /// Check the replacement threshold and add a batch if crossed.
    pub(crate) fn maybe_replace_batch(&mut self) {
        let Some(threshold) = self.config().replacement.threshold else {
            return;
        };
        let population = self.cluster_map().n_disks();
        if (self.failed_since_batch_count() as f64) < threshold * population as f64 {
            return;
        }
        self.replace_batch();
    }

    pub(crate) fn failed_since_batch_count(&self) -> u32 {
        self.failed_since_batch
    }

    /// Add a batch of new drives equal to the failed count and migrate
    /// each group's fair share of blocks onto them.
    pub(crate) fn replace_batch(&mut self) {
        let batch_size = self.failed_since_batch;
        if batch_size == 0 {
            return;
        }
        let now = self.now();
        let mut mig = std::mem::take(&mut self.migration);
        let mut scratch = std::mem::take(&mut self.rush_scratch);
        // New drives carry the weight of the existing ones ("currently,
        // the weight of each disk is set to that of the existing drives
        // for simplicity", §3.5).
        let cluster_idx = self.map_mut().add_cluster(batch_size, 1.0);
        let first_new = self.cluster_map().cluster(cluster_idx).first;
        for _ in 0..batch_size {
            let id = self.add_disk(now);
            debug_assert!(id.0 >= first_new);
        }
        self.failed_since_batch = 0;
        self.metrics_mut().batches_added += 1;

        // Migration, in ascending group order so capacity checks see the
        // same disk state as a full re-placement would. A skipped group's
        // first `n` candidates are unchanged and hold no new disk, so it
        // moves nothing and its memoized walk prefix stays exact. A
        // re-walked group gets a fresh prefix: the memo follows the
        // placement engine toggle, as initial placement does. Blocks
        // whose new home falls in the new sub-cluster move there (RUSH's
        // minimal-migration property means nothing else moves).
        let n = self.layout().blocks_per_group() as usize;
        let block_bytes = self.prepared().block_bytes;
        let rush = self.rush();
        let memoize = kernel::engine_enabled();
        let mut moved = 0u64;
        for g in 0..self.layout().n_groups() {
            if mig.is_clean(g) && !rush.growth_probe(self.cluster_map(), g as u64, n) {
                continue;
            }
            let clean = rush.fill_walk(self.cluster_map(), g as u64, &mut scratch, &mut mig.homes);
            mig.set_clean(g, clean);
            if memoize {
                self.layout_mut().record_walk_prefix(g, &mig.homes);
            }
            if self.layout().is_dead(g) {
                continue; // re-walked only to keep its bit and memo exact
            }
            for (idx, &new_home) in mig.homes.iter().enumerate() {
                if new_home.0 < first_new {
                    continue; // not remapped into the batch
                }
                let b = BlockRef::new(g, idx as u8);
                let cur = self.layout().home(b);
                if cur == new_home
                    || self.layout().is_missing(b)
                    || !self.disk(cur).is_active()
                    || self.layout().group_uses_disk(g, new_home)
                    || !self.disk(new_home).has_space_for(block_bytes)
                {
                    continue;
                }
                self.disk_mut(cur).release(block_bytes);
                self.disk_mut(new_home).allocate(block_bytes);
                if let Some(o) = self.obs.as_deref_mut() {
                    o.bytes_released(block_bytes);
                    o.bytes_allocated(block_bytes);
                }
                self.layout_mut().move_block(b, new_home);
                moved += 1;
            }
        }
        self.metrics_mut().migrated_blocks += moved;
        self.rush_scratch = scratch;
        self.migration = mig;
    }
}
