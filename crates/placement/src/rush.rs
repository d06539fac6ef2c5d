//! RUSH-style decentralized placement.
//!
//! `Rush` maps `(redundancy group, candidate index)` to a disk, giving
//! every group an unbounded ordered list of *distinct* candidate disks.
//! The first `n` candidates hold the group's blocks; later candidates are
//! the recovery targets FARM consults after a failure (§2.3: "our data
//! placement algorithm provides a list of locations where replicated data
//! blocks can go").
//!
//! Properties (each checked by tests below):
//!
//! 1. **Decentralized determinism** — placement is a pure function of
//!    `(seed, cluster map, group, index)`; no central directory.
//! 2. **Statistical balance** — each disk receives load proportional to
//!    its weight ("gives each disk statistically its fair share of user
//!    data and parity data", §2.2).
//! 3. **Minimal migration** — appending a sub-cluster moves only
//!    ≈ its weight share of existing placements, nothing else, because
//!    the descent consults clusters newest-to-oldest and draws for older
//!    clusters are unaffected by the new one.
//! 4. **Distinctness** — a group's candidate list never repeats a disk,
//!    so replicas always land on different drives (§2.2).

use crate::cluster::{ClusterMap, DiskId};
use crate::hash;
use crate::kernel;

/// How many hash retries to burn per candidate before falling back to a
/// deterministic probe. Collisions are rare until a group's candidate
/// list approaches the size of the system, so 64 is generous.
const MAX_ATTEMPTS: u32 = 64;

/// The RUSH-style placement function. Stateless and cheap to copy; all
/// system topology lives in the [`ClusterMap`].
#[derive(Clone, Copy, Debug)]
pub struct Rush {
    seed: u64,
    /// `hash_prefix(seed)`, folded once at construction: every group
    /// key and raw draw starts from it, and the batched strip kernels
    /// take it directly to fold group keys in-register.
    prefix: u64,
}

impl Rush {
    pub fn new(seed: u64) -> Self {
        Rush {
            seed,
            prefix: hash::hash_prefix(seed),
        }
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The seed's folded hash prefix — the left operand of every
    /// [`Rush::group_key`] combine. Exposed for
    /// [`kernel::Kernel::run_strip`], which folds group keys for whole
    /// strips of groups inside the kernel.
    #[inline]
    pub fn key_prefix(&self) -> u64 {
        self.prefix
    }

    /// The per-group folded hash key, `combine(hash_prefix(seed),
    /// group)` — the state every candidate index extends. Exposed so
    /// the batched engine can build lane keys for
    /// [`kernel::draw_hashes`].
    #[inline]
    pub fn group_key(&self, group: u64) -> u64 {
        hash::combine(self.prefix, group)
    }

    /// The infinite-until-exhausted ordered candidate list for a group;
    /// its first `n` entries are the homes of the group's `n` blocks.
    /// Dedup state lives in the caller's reusable `scratch` (reset here,
    /// O(1) amortized), so a walk costs only hashing. The golden-sequence
    /// test pins the emitted order to an allocating specification.
    pub fn walk<'m, 's>(
        &self,
        map: &'m ClusterMap,
        group: u64,
        scratch: &'s mut RushScratch,
    ) -> Walk<'m, 's> {
        self.walk_resumed(map, group, scratch, &[])
    }

    /// [`Rush::walk`], resuming from a memoized prefix: `prefix` must
    /// hold the first `prefix.len()` candidates this exact `(seed, map,
    /// group)` walk emitted, in order. They are re-emitted (and
    /// re-marked, rebuilding the dedup state) without any hashing; the
    /// walk then continues from the cached frontier — `index` advances
    /// exactly once per emission, so after the replay it sits precisely
    /// where the uncached walk's would. With an empty prefix this *is*
    /// `walk`; with a wrong prefix the sequence would diverge, which is
    /// why `GroupLayout` generation-stamps its memo per (trial, map).
    pub fn walk_resumed<'m, 's>(
        &self,
        map: &'m ClusterMap,
        group: u64,
        scratch: &'s mut RushScratch,
        prefix: &'m [DiskId],
    ) -> Walk<'m, 's> {
        debug_assert!(prefix.len() as u64 <= map.n_disks() as u64);
        scratch.begin(map.n_disks());
        Walk {
            rush: *self,
            map,
            group,
            gkey: self.group_key(group),
            index: 0,
            scratch,
            replay: prefix,
            pre: PreDraws::empty(),
        }
    }

    /// [`Rush::walk`] with batch-prehashed attempt-0 draws: `pre` views
    /// one lane of a [`kernel::draw_hashes`] buffer computed for this
    /// group's [`Rush::group_key`] on this (single-cluster) map.
    /// Collisions, attempts ≥ 1 and indices past the prehashed range
    /// fall back to the sequential fold, so the emitted sequence is
    /// byte-identical to `walk` by construction.
    pub fn walk_prehashed<'m, 's>(
        &self,
        map: &'m ClusterMap,
        group: u64,
        scratch: &'s mut RushScratch,
        pre: PreDraws<'m>,
    ) -> Walk<'m, 's> {
        debug_assert!(
            pre.is_empty() || map.n_clusters() == 1,
            "prehashed draws require a single-cluster map"
        );
        scratch.begin(map.n_disks());
        Walk {
            rush: *self,
            map,
            group,
            gkey: self.group_key(group),
            index: 0,
            scratch,
            replay: &[],
            pre,
        }
    }

    /// Collision-free fast path for initial placement: fill `out` with
    /// the walk's first `out.len()` candidates straight from the
    /// prehashed attempt-0 draws — no iterator or fallback machinery in
    /// the loop. Returns `false` (leaving `out` unspecified) the moment
    /// a draw collides or runs past the prehashed range; the caller
    /// redoes that group through the generic walk, which re-begins the
    /// scratch and emits the identical sequence the slow way. Until a
    /// group's candidate list approaches system size, collisions are
    /// rare enough that this is almost always the entire walk.
    #[inline]
    pub fn fill_prehashed(
        &self,
        map: &ClusterMap,
        scratch: &mut RushScratch,
        pre: PreDraws<'_>,
        out: &mut [DiskId],
    ) -> bool {
        debug_assert_eq!(map.n_clusters(), 1, "prehashed draws are single-cluster");
        if let [s0, s1] = out {
            // Mirrored groups (the paper's dominant scheme) need no
            // dedup state at all: two draws are distinct or the pair
            // falls back. The scratch is untouched — the next `begin`
            // (fallback walk or next group) resets it regardless.
            let (Some(w0), Some(w1)) = (pre.get(0), pre.get(1)) else {
                return false;
            };
            let d0 = map.single_cluster_disk(w0);
            let d1 = map.single_cluster_disk(w1);
            if d0 == d1 {
                return false;
            }
            *s0 = d0;
            *s1 = d1;
            return true;
        }
        scratch.begin(map.n_disks());
        for (i, slot) in out.iter_mut().enumerate() {
            let Some(within) = pre.get(i as u64) else {
                return false;
            };
            let d = map.single_cluster_disk(within);
            if !scratch.mark(d) {
                return false;
            }
            *slot = d;
        }
        true
    }

    /// Fill `out` with the walk's first `out.len()` candidates and
    /// report whether the walk is *clean* over that prefix: each
    /// candidate was the attempt-0 draw at its index, so no collision
    /// retry (and hence no fallback probe) ran. Equivalently, the first
    /// `out.len()` attempt-0 draws are pairwise distinct. `out` is the
    /// walk's output either way: a collision re-begins the scratch and
    /// takes the generic walk. Panics if `out` is longer than the system.
    pub fn fill_walk(
        &self,
        map: &ClusterMap,
        group: u64,
        scratch: &mut RushScratch,
        out: &mut [DiskId],
    ) -> bool {
        assert!(
            out.len() as u64 <= map.n_disks() as u64,
            "cannot place {} blocks on {} disks",
            out.len(),
            map.n_disks()
        );
        scratch.begin(map.n_disks());
        let gkey = self.group_key(group);
        let clean = out.iter_mut().enumerate().all(|(i, slot)| {
            *slot = Self::draw_with_prefix(map, hash::combine(hash::combine(gkey, i as u64), 0));
            scratch.mark(*slot)
        });
        if !clean {
            for (slot, d) in out.iter_mut().zip(self.walk(map, group, scratch)) {
                *slot = d;
            }
        }
        clean
    }

    /// The delta-migration probe, on a map whose newest sub-cluster was
    /// just appended: does that cluster's take-hash fire on any of the
    /// group's first `n` attempt-0 draws? Appending a cluster leaves
    /// every draw at the older clusters unchanged (see the descent in
    /// `Rush::raw_draw`), so for a walk that was clean under the
    /// previous map (see [`Rush::fill_walk`]), `false` proves its first
    /// `n` candidates, and the walk state after them, are unchanged.
    /// A walk that was not clean can change without the probe firing:
    /// a retry draw may land in the new cluster.
    pub fn growth_probe(&self, map: &ClusterMap, group: u64, n: usize) -> bool {
        let j = map.n_clusters() - 1;
        debug_assert!(j > 0, "the probe needs a grown map");
        let gkey = self.group_key(group);
        (0..n as u64).any(|i| Self::takes(map, hash::combine(hash::combine(gkey, i), 0), j))
    }

    /// One raw draw: candidate `index`, attempt `attempt` for `group` —
    /// before distinctness filtering. This is the readable specification
    /// of the draw; the hot path below ([`Rush::draw_with_prefix`])
    /// computes the identical value with the hash prefix factored out,
    /// and the golden-sequence test holds the two together.
    #[cfg_attr(not(test), allow(dead_code))]
    fn raw_draw(&self, map: &ClusterMap, group: u64, index: u64, attempt: u32) -> DiskId {
        // RUSH descent: visit sub-clusters newest to oldest. At cluster j,
        // the group's draw lands there with probability
        // w_j / (w_0 + ... + w_j); otherwise descend. Draws are per-cluster
        // hashes, so adding cluster J+1 cannot change the draws at <= J —
        // the key to minimal migration.
        for j in (0..map.n_clusters()).rev() {
            let c = map.cluster(j);
            let take_p = c.total_weight() / map.cum_weight(j);
            let h = hash::hash_words(self.seed, &[group, index, attempt as u64, j as u64, 0xC1]);
            if j == 0 || hash::to_unit(h) < take_p {
                let within =
                    hash::hash_words(self.seed, &[group, index, attempt as u64, j as u64, 0xD2]);
                return DiskId(c.first + (within % c.len as u64) as u32);
            }
        }
        unreachable!("descent always terminates at cluster 0")
    }

    /// [`Rush::raw_draw`] with the `(seed, group, index, attempt)` hash
    /// prefix already folded (see [`hash::hash_prefix`]): the descent
    /// only appends `(cluster, tag)` per step, and the descent hash —
    /// which `raw_draw` computes and discards at cluster 0 — is skipped
    /// there, so the common single-cluster map costs two `combine`s per
    /// draw instead of two full five-word hashes.
    #[inline]
    fn draw_with_prefix(map: &ClusterMap, prefix: u64) -> DiskId {
        for j in (1..map.n_clusters()).rev() {
            if Self::takes(map, prefix, j) {
                let within = hash::combine(hash::combine(prefix, j as u64), 0xD2);
                return DiskId(map.cluster(j).first + map.rem_cluster_len(j, within) as u32);
            }
        }
        let c = map.cluster(0);
        let within = hash::combine(hash::combine(prefix, 0), 0xD2);
        DiskId(c.first + map.rem_cluster_len(0, within) as u32)
    }

    /// The descent's take test at sub-cluster `j >= 1`: does the draw
    /// with folded hash `prefix` land in `j` rather than descend, with
    /// probability `w_j / (w_0 + ... + w_j)`?
    #[inline]
    fn takes(map: &ClusterMap, prefix: u64, j: usize) -> bool {
        let take_p = map.cluster(j).total_weight() / map.cum_weight(j);
        hash::to_unit(hash::combine(hash::combine(prefix, j as u64), 0xC1)) < take_p
    }
}

/// Reusable dedup state for candidate walks.
///
/// A walk must never repeat a disk. Instead of collecting emitted disks
/// into a `Vec` and scanning it per draw (O(k²) per walk, one heap
/// allocation each), the scratch keeps one stamp per disk: a disk is
/// "already emitted" iff its stamp equals the current walk's generation.
/// Starting a new walk just increments the generation — O(1) reset, no
/// clearing — and on the (once per 2³² walks) wrap-around the stamps are
/// refilled with the never-matching 0.
#[derive(Clone, Debug, Default)]
pub struct RushScratch {
    stamp: Vec<u32>,
    generation: u32,
    emitted: u32,
    fallback_probes: u64,
}

impl RushScratch {
    pub fn new() -> Self {
        RushScratch::default()
    }

    /// How many walk steps exhausted their hash attempts and used the
    /// deterministic linear probe. Only reachable when a walk has nearly
    /// covered the whole system; exposed so tests can pin that branch.
    pub fn fallback_probes(&self) -> u64 {
        self.fallback_probes
    }

    fn begin(&mut self, n_disks: u32) {
        if self.stamp.len() < n_disks as usize {
            self.stamp.resize(n_disks as usize, 0);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamp.fill(0);
            self.generation = 1;
        }
        self.emitted = 0;
    }

    /// Mark `d` emitted. Returns false if it already was, this walk.
    #[inline]
    fn mark(&mut self, d: DiskId) -> bool {
        let s = &mut self.stamp[d.0 as usize];
        if *s == self.generation {
            false
        } else {
            *s = self.generation;
            self.emitted += 1;
            true
        }
    }
}

/// One group's batch-prehashed attempt-0 draw hashes: lane `lane` of an
/// index-major `[n_idx × LANES]` buffer filled by
/// [`kernel::draw_hashes`]. Valid only for single-cluster maps (the
/// kernels skip the multi-cluster descent); the producer enforces that.
#[derive(Clone, Copy, Debug)]
pub struct PreDraws<'a> {
    hashes: &'a [u64],
    lane: usize,
}

impl<'a> PreDraws<'a> {
    /// No prehashed indices: every draw takes the sequential fold.
    pub const fn empty() -> PreDraws<'static> {
        PreDraws {
            hashes: &[],
            lane: 0,
        }
    }

    /// View lane `lane` of a [`kernel::draw_hashes`] output buffer.
    pub fn new(hashes: &'a [u64], lane: usize) -> Self {
        assert!(lane < kernel::LANES);
        debug_assert_eq!(hashes.len() % kernel::LANES, 0);
        PreDraws { hashes, lane }
    }

    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// The prehashed within-hash for candidate `index`, if covered.
    #[inline]
    fn get(&self, index: u64) -> Option<u64> {
        self.hashes
            .get(index as usize * kernel::LANES + self.lane)
            .copied()
    }
}

/// One step of the distinct-candidate sequence. Shared with the
/// test-only `Candidates` specification so their output cannot diverge.
fn next_distinct(
    rush: Rush,
    map: &ClusterMap,
    group: u64,
    gkey: u64,
    index: &mut u64,
    scratch: &mut RushScratch,
    pre: PreDraws<'_>,
) -> Option<DiskId> {
    let n = map.n_disks();
    if scratch.emitted >= n {
        return None; // every disk already listed
    }
    // Attempt 0 first — from the batch-prehashed buffer when it covers
    // this index (the kernels fold the identical chain, so this is the
    // very hash the sequential path below would compute), from the fold
    // otherwise. On the collision-free fast path this is the whole draw.
    let d0 = match pre.get(*index) {
        Some(within) => map.single_cluster_disk(within),
        None => Rush::draw_with_prefix(map, hash::combine(hash::combine(gkey, *index), 0)),
    };
    if scratch.mark(d0) {
        *index += 1;
        return Some(d0);
    }
    // `gkey` is combine(hash_prefix(seed), group), folded once per walk;
    // the candidate index folds once per candidate, each attempt appends
    // one more word.
    let key = hash::combine(gkey, *index);
    for attempt in 1..MAX_ATTEMPTS {
        let d = Rush::draw_with_prefix(map, hash::combine(key, attempt as u64));
        if scratch.mark(d) {
            *index += 1;
            return Some(d);
        }
    }
    // Deterministic fallback: probe linearly from a hashed start.
    // Only reachable when the candidate list is nearly system-sized.
    scratch.fallback_probes += 1;
    let start = hash::hash_words(rush.seed, &[group, *index, 0xFA11]) % n as u64;
    for off in 0..n {
        let d = DiskId(((start + off as u64) % n as u64) as u32);
        if scratch.mark(d) {
            *index += 1;
            return Some(d);
        }
    }
    None
}

/// Iterator over a group's distinct candidate disks, deduplicating
/// through a borrowed [`RushScratch`] — the allocation-free hot path.
pub struct Walk<'m, 's> {
    rush: Rush,
    map: &'m ClusterMap,
    group: u64,
    gkey: u64,
    index: u64,
    scratch: &'s mut RushScratch,
    /// Memoized prefix to re-emit before any hashing (see
    /// [`Rush::walk_resumed`]); empty on plain walks.
    replay: &'m [DiskId],
    /// Batch-prehashed attempt-0 draws (see [`Rush::walk_prehashed`]);
    /// empty on plain walks.
    pre: PreDraws<'m>,
}

impl Iterator for Walk<'_, '_> {
    type Item = DiskId;

    fn next(&mut self) -> Option<DiskId> {
        // Replay the memoized prefix: these are the first emissions of
        // this exact (seed, map, group) walk, recorded earlier in the
        // trial, so re-marking them rebuilds the dedup state and the
        // continuation below hashes from the cached frontier exactly as
        // the uncached walk would.
        if (self.index as usize) < self.replay.len() {
            let d = self.replay[self.index as usize];
            let fresh = self.scratch.mark(d);
            debug_assert!(fresh, "a memoized prefix never repeats a disk");
            self.index += 1;
            return Some(d);
        }
        next_distinct(
            self.rush,
            self.map,
            self.group,
            self.gkey,
            &mut self.index,
            self.scratch,
            self.pre,
        )
    }
}

/// The allocating specification of a walk: an iterator that owns its
/// dedup state. Test-only; the golden-sequence test ties it to [`Walk`].
#[cfg(test)]
struct Candidates<'a> {
    rush: Rush,
    map: &'a ClusterMap,
    group: u64,
    gkey: u64,
    index: u64,
    scratch: RushScratch,
}

#[cfg(test)]
impl Rush {
    fn candidates<'a>(&self, map: &'a ClusterMap, group: u64) -> Candidates<'a> {
        let mut scratch = RushScratch::new();
        scratch.begin(map.n_disks());
        Candidates {
            rush: *self,
            map,
            group,
            gkey: self.group_key(group),
            index: 0,
            scratch,
        }
    }

    /// First `n` candidates: the homes of the group's `n` blocks.
    fn place(&self, map: &ClusterMap, group: u64, n: usize) -> Vec<DiskId> {
        assert!(
            n as u64 <= map.n_disks() as u64,
            "cannot place {n} blocks on {} disks",
            map.n_disks()
        );
        self.candidates(map, group).take(n).collect()
    }
}

#[cfg(test)]
impl Iterator for Candidates<'_> {
    type Item = DiskId;

    fn next(&mut self) -> Option<DiskId> {
        next_distinct(
            self.rush,
            self.map,
            self.group,
            self.gkey,
            &mut self.index,
            &mut self.scratch,
            PreDraws::empty(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farm_des::stats::coefficient_of_variation;

    /// The pre-scratch candidate iterator, verbatim: `Vec` of emitted
    /// disks, linear `contains` dedup. The golden-sequence tests pin the
    /// production iterators to this reference so the generation-stamp
    /// rewrite provably emits the identical order.
    fn legacy_candidates(rush: &Rush, map: &ClusterMap, group: u64) -> Vec<DiskId> {
        let mut emitted: Vec<DiskId> = Vec::new();
        let mut index = 0u64;
        'outer: while (emitted.len() as u64) < map.n_disks() as u64 {
            for attempt in 0..MAX_ATTEMPTS {
                let d = rush.raw_draw(map, group, index, attempt);
                if !emitted.contains(&d) {
                    emitted.push(d);
                    index += 1;
                    continue 'outer;
                }
            }
            let start = hash::hash_words(rush.seed, &[group, index, 0xFA11]) % map.n_disks() as u64;
            let n = map.n_disks();
            for off in 0..n {
                let d = DiskId(((start + off as u64) % n as u64) as u32);
                if !emitted.contains(&d) {
                    emitted.push(d);
                    index += 1;
                    continue 'outer;
                }
            }
            break;
        }
        emitted
    }

    #[test]
    fn golden_sequence_matches_legacy_iterator() {
        // Full exhaustion (every disk, including the fallback-probe tail)
        // across shapes: uniform, weighted multi-cluster, tiny.
        let mut weighted = ClusterMap::uniform(48);
        weighted.add_cluster(16, 2.0);
        weighted.add_cluster(32, 0.5);
        let maps = [ClusterMap::uniform(96), weighted, ClusterMap::uniform(3)];
        for (m, map) in maps.iter().enumerate() {
            for seed in [0u64, 7, 0xDEAD_BEEF] {
                let rush = Rush::new(seed);
                let mut scratch = RushScratch::new();
                for group in 0..40u64 {
                    let golden = legacy_candidates(&rush, map, group);
                    let via_candidates: Vec<DiskId> = rush.candidates(map, group).collect();
                    let via_walk: Vec<DiskId> = rush.walk(map, group, &mut scratch).collect();
                    assert_eq!(
                        golden, via_candidates,
                        "candidates diverged (map {m}, seed {seed}, group {group})"
                    );
                    assert_eq!(
                        golden, via_walk,
                        "walk diverged (map {m}, seed {seed}, group {group})"
                    );
                }
            }
        }
    }

    #[test]
    fn walk_scratch_survives_generation_wraparound() {
        let map = ClusterMap::uniform(32);
        let rush = Rush::new(5);
        let mut scratch = RushScratch::new();
        // Park the generation counter just below the wrap so the next
        // few walks cross it; emitted sequences must be unaffected.
        scratch.generation = u32::MAX - 2;
        for group in 0..6u64 {
            let expected: Vec<DiskId> = rush.candidates(&map, group).take(8).collect();
            let got: Vec<DiskId> = rush.walk(&map, group, &mut scratch).take(8).collect();
            assert_eq!(expected, got, "group {group} diverged near the wrap");
        }
    }

    #[test]
    fn abandoned_walk_leaves_scratch_reusable() {
        // Hot paths routinely stop a walk early (first eligible target
        // wins); the next walk must still dedup correctly.
        let map = ClusterMap::uniform(64);
        let rush = Rush::new(9);
        let mut scratch = RushScratch::new();
        let _ = rush.walk(&map, 1, &mut scratch).next();
        let full: Vec<DiskId> = rush.walk(&map, 2, &mut scratch).collect();
        assert_eq!(full, rush.candidates(&map, 2).collect::<Vec<_>>());
        assert_eq!(full.len(), 64);
    }

    #[test]
    fn exhaustion_exercises_the_linear_probe_fallback() {
        // With 512 disks, the last few candidates collide on essentially
        // every hash attempt (P ≈ (511/512)^64 ≈ 0.88 per draw), so full
        // exhaustion is all but guaranteed to take the fallback path —
        // this pins the branch that plain placement never reaches.
        let map = ClusterMap::uniform(512);
        let rush = Rush::new(42);
        let mut iter = rush.candidates(&map, 0);
        let all: Vec<DiskId> = iter.by_ref().collect();
        assert!(
            iter.scratch.fallback_probes() > 0,
            "512-disk exhaustion was expected to hit the fallback probe"
        );
        assert_eq!(all.len(), 512);
        let mut sorted: Vec<u32> = all.iter().map(|d| d.0).collect();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..512).collect::<Vec<_>>(),
            "fallback must stay distinct"
        );
        // And the fallback tail is deterministic.
        let again: Vec<DiskId> = rush.candidates(&map, 0).collect();
        assert_eq!(all, again);
        // The scratch-based walk takes the identical tail.
        let mut scratch = RushScratch::new();
        let via_walk: Vec<DiskId> = rush.walk(&map, 0, &mut scratch).collect();
        assert_eq!(all, via_walk);
        assert!(scratch.fallback_probes() > 0);
    }

    #[test]
    fn resumed_walk_matches_the_plain_walk_from_every_frontier() {
        let map = ClusterMap::uniform(96);
        let rush = Rush::new(0xBEEF);
        let mut scratch = RushScratch::new();
        for group in 0..16u64 {
            let full: Vec<DiskId> = rush.walk(&map, group, &mut scratch).take(24).collect();
            for k in 0..=8usize {
                let resumed: Vec<DiskId> = rush
                    .walk_resumed(&map, group, &mut scratch, &full[..k])
                    .take(24)
                    .collect();
                assert_eq!(resumed, full, "group {group}, prefix {k} diverged");
            }
        }
    }

    #[test]
    fn prehashed_walk_matches_the_plain_walk() {
        // Batch-hash 8 groups at a time through every supported kernel
        // and check each lane's walk against the sequential one, both
        // with full coverage (n_idx beyond what the walk consumes) and
        // partial coverage (indices past n_idx fall back to the fold).
        let map = ClusterMap::uniform(96);
        let rush = Rush::new(0x2004);
        let mut scratch = RushScratch::new();
        for k in kernel::Kernel::ALL.into_iter().filter(|k| k.supported()) {
            for base in [0u64, 8, 64] {
                let gkeys: [u64; kernel::LANES] =
                    std::array::from_fn(|l| rush.group_key(base + l as u64));
                for n_idx in [3usize, 12] {
                    let mut buf = vec![0u64; n_idx * kernel::LANES];
                    k.run(&gkeys, n_idx, &mut buf);
                    for lane in 0..kernel::LANES {
                        let group = base + lane as u64;
                        let plain: Vec<DiskId> =
                            rush.walk(&map, group, &mut scratch).take(8).collect();
                        let pre = PreDraws::new(&buf, lane);
                        let hashed: Vec<DiskId> = rush
                            .walk_prehashed(&map, group, &mut scratch, pre)
                            .take(8)
                            .collect();
                        assert_eq!(
                            hashed, plain,
                            "kernel {k}, group {group}, n_idx {n_idx} diverged"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fill_prehashed_matches_the_walk_or_bails() {
        // Whenever `fill_prehashed` succeeds, its output must be exactly
        // the walk's first n emissions; whenever attempt-0 draws collide
        // it must return false (both the mirrored n = 2 special case and
        // the general scratch-marked loop). A small map makes collisions
        // frequent enough to exercise both verdicts.
        let rush = Rush::new(0x2004);
        let mut scratch = RushScratch::new();
        for n_disks in [5u32, 64] {
            let map = ClusterMap::uniform(n_disks);
            for n in [2usize, 4] {
                let (mut hits, mut bails) = (0u32, 0u32);
                for group in 0..400u64 {
                    let mut buf = vec![0u64; n * kernel::LANES];
                    let base = group & !(kernel::LANES as u64 - 1);
                    let gkeys: [u64; kernel::LANES] =
                        std::array::from_fn(|l| rush.group_key(base + l as u64));
                    kernel::Kernel::Scalar.run(&gkeys, n, &mut buf);
                    let pre = PreDraws::new(&buf, (group - base) as usize);
                    let mut got = vec![DiskId(0); n];
                    let walked: Vec<DiskId> =
                        rush.walk(&map, group, &mut scratch).take(n).collect();
                    if rush.fill_prehashed(&map, &mut scratch, pre, &mut got) {
                        hits += 1;
                        assert_eq!(got, walked, "group {group} fast fill diverged");
                    } else {
                        bails += 1;
                        // A bail means some attempt-0 draw repeated a
                        // disk (or the prehash ran out); the generic
                        // walk must still work from the same PreDraws.
                        let rehashed: Vec<DiskId> = rush
                            .walk_prehashed(&map, group, &mut scratch, pre)
                            .take(n)
                            .collect();
                        assert_eq!(rehashed, walked, "group {group} fallback diverged");
                    }
                }
                assert!(hits > 0, "n_disks {n_disks}, n {n}: fast path never hit");
                if n_disks == 5 {
                    assert!(bails > 0, "n_disks 5, n {n}: collision bail never hit");
                }
            }
        }
    }

    #[test]
    fn placement_is_deterministic() {
        let map = ClusterMap::uniform(64);
        let rush = Rush::new(99);
        for g in 0..50u64 {
            assert_eq!(rush.place(&map, g, 3), rush.place(&map, g, 3));
        }
    }

    #[test]
    fn different_seeds_give_different_placements() {
        let map = ClusterMap::uniform(64);
        let a = Rush::new(1);
        let b = Rush::new(2);
        let differs = (0..100u64).any(|g| a.place(&map, g, 2) != b.place(&map, g, 2));
        assert!(differs);
    }

    #[test]
    fn candidates_are_distinct() {
        let map = ClusterMap::uniform(40);
        let rush = Rush::new(7);
        for g in 0..20u64 {
            let cands: Vec<DiskId> = rush.candidates(&map, g).take(40).collect();
            assert_eq!(cands.len(), 40);
            let set: std::collections::HashSet<_> = cands.iter().collect();
            assert_eq!(set.len(), 40, "group {g} repeated a candidate");
        }
    }

    #[test]
    fn candidate_list_exhausts_then_ends() {
        let map = ClusterMap::uniform(10);
        let rush = Rush::new(3);
        let all: Vec<DiskId> = rush.candidates(&map, 5).collect();
        assert_eq!(all.len(), 10, "must cover every disk exactly once");
        let mut sorted: Vec<u32> = all.iter().map(|d| d.0).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn prefix_stability() {
        // Asking for more candidates must not change the earlier ones.
        let map = ClusterMap::uniform(50);
        let rush = Rush::new(11);
        let five = rush.place(&map, 42, 5);
        let ten = rush.place(&map, 42, 10);
        assert_eq!(&ten[..5], &five[..]);
    }

    #[test]
    fn balance_on_uniform_cluster() {
        // "each disk gets statistically its fair share": with G groups of
        // n blocks on N disks, per-disk load should concentrate around
        // G*n/N with small coefficient of variation.
        let map = ClusterMap::uniform(100);
        let rush = Rush::new(5);
        let mut counts = vec![0u64; 100];
        let groups = 20_000u64;
        for g in 0..groups {
            for d in rush.place(&map, g, 2) {
                counts[d.0 as usize] += 1;
            }
        }
        let cv = coefficient_of_variation(&counts);
        // Poisson-like: expected CV ~ 1/sqrt(400) = 0.05.
        assert!(cv < 0.10, "coefficient of variation {cv} too high");
    }

    #[test]
    fn balance_respects_weights() {
        // A sub-cluster with twice the per-disk weight should receive
        // twice the per-disk load.
        let mut map = ClusterMap::uniform(50);
        map.add_cluster(50, 2.0);
        let rush = Rush::new(13);
        let mut light = 0u64;
        let mut heavy = 0u64;
        for g in 0..30_000u64 {
            for d in rush.place(&map, g, 2) {
                if d.0 < 50 {
                    light += 1;
                } else {
                    heavy += 1;
                }
            }
        }
        let ratio = heavy as f64 / light as f64;
        assert!(
            (ratio - 2.0).abs() < 0.15,
            "heavy/light load ratio {ratio}, expected ~2"
        );
    }

    #[test]
    fn adding_a_cluster_moves_only_its_fair_share() {
        // THE RUSH property: growing the system by 25% of total weight
        // should remap ~25% of block placements and leave the rest alone.
        let before = ClusterMap::uniform(100);
        let mut after = before.clone();
        after.add_cluster(25, 1.0); // new share = 25/125 = 20%
        let rush = Rush::new(21);
        let groups = 10_000u64;
        let mut moved = 0u64;
        let mut total = 0u64;
        for g in 0..groups {
            let old = rush.place(&before, g, 2);
            let new = rush.place(&after, g, 2);
            for (o, n) in old.iter().zip(&new) {
                total += 1;
                if o != n {
                    moved += 1;
                }
            }
        }
        let frac = moved as f64 / total as f64;
        let share = after.weight_share(1);
        assert!(
            (frac - share).abs() < 0.05,
            "moved {frac:.3}, fair share {share:.3}"
        );
        // And every moved block must have landed in the new cluster
        // (modulo rare collision-chain shifts).
        let mut moved_elsewhere = 0u64;
        for g in 0..groups {
            let old = rush.place(&before, g, 2);
            let new = rush.place(&after, g, 2);
            for (o, n) in old.iter().zip(&new) {
                if o != n && n.0 < 100 {
                    moved_elsewhere += 1;
                }
            }
        }
        assert!(
            (moved_elsewhere as f64) < 0.02 * total as f64,
            "{moved_elsewhere} of {total} moved to an old disk"
        );
    }

    #[test]
    fn growth_in_stages_matches_direct_construction() {
        // Placement must depend only on the final map, not the order in
        // which we queried it along the way.
        let mut staged = ClusterMap::uniform(30);
        staged.add_cluster(10, 1.0);
        staged.add_cluster(20, 0.5);
        let mut direct = ClusterMap::uniform(30);
        direct.add_cluster(10, 1.0);
        direct.add_cluster(20, 0.5);
        let rush = Rush::new(8);
        for g in 0..200u64 {
            assert_eq!(rush.place(&staged, g, 3), rush.place(&direct, g, 3));
        }
    }

    #[test]
    #[should_panic]
    fn cannot_place_more_blocks_than_disks() {
        let map = ClusterMap::uniform(3);
        Rush::new(0).place(&map, 1, 4);
    }

    #[test]
    fn replica_spread_across_clusters_is_fair() {
        // With two equal-weight clusters, each replica independently has
        // ~50% probability of landing in either.
        let mut map = ClusterMap::uniform(40);
        map.add_cluster(40, 1.0);
        let rush = Rush::new(17);
        let mut in_new = 0u64;
        let groups = 20_000u64;
        for g in 0..groups {
            let p = rush.place(&map, g, 1)[0];
            if p.0 >= 40 {
                in_new += 1;
            }
        }
        let frac = in_new as f64 / groups as f64;
        assert!((frac - 0.5).abs() < 0.02, "new-cluster share {frac}");
    }

    #[test]
    fn fill_walk_matches_the_walk() {
        // Dense maps so that collisions (unclean walks) are common.
        let mut map = ClusterMap::uniform(6);
        map.add_cluster(3, 0.5);
        let rush = Rush::new(0x16);
        let mut scratch = RushScratch::new();
        let (mut clean, mut unclean) = (0u32, 0u32);
        for n in [1usize, 2, 4, 6, 9] {
            for group in 0..200u64 {
                let mut got = vec![DiskId(0); n];
                let is_clean = rush.fill_walk(&map, group, &mut scratch, &mut got);
                assert_eq!(got, rush.place(&map, group, n), "n {n}, group {group}");
                // Clean iff the first n attempt-0 draws are distinct.
                let draws: std::collections::HashSet<DiskId> = (0..n as u64)
                    .map(|i| rush.raw_draw(&map, group, i, 0))
                    .collect();
                assert_eq!(is_clean, draws.len() == n, "n {n}, group {group}");
                if is_clean {
                    clean += 1;
                } else {
                    unclean += 1;
                }
            }
        }
        assert!(clean > 0 && unclean > 0, "clean {clean}, unclean {unclean}");
    }

    /// One growth step of the delta migration, checked against the full
    /// re-walk. Returns `(rewalk, changed_without_probe)`: whether the
    /// group needs a re-walk, and whether an unclean walk changed its
    /// first `n` although the probe did not fire.
    fn check_growth_step(
        rush: &Rush,
        before: &ClusterMap,
        after: &ClusterMap,
        group: u64,
        n: usize,
        scratch: &mut RushScratch,
    ) -> (bool, bool) {
        let mut walked = vec![DiskId(0); n];
        let clean = rush.fill_walk(before, group, scratch, &mut walked);
        let old = rush.place(before, group, n);
        let new = rush.place(after, group, n);
        let probe = rush.growth_probe(after, group, n);
        let first_new = after.cluster(after.n_clusters() - 1).first;
        let takes_new = new.iter().any(|d| d.0 >= first_new);
        if clean && !probe {
            assert_eq!(new, old, "group {group}, n {n}: a skipped walk changed");
        }
        let rewalk = !clean || probe;
        assert!(
            !takes_new || rewalk,
            "group {group}, n {n}: a new-cluster home without a re-walk"
        );
        (rewalk, !clean && !probe && new != old)
    }

    #[test]
    fn growth_probe_is_exact_for_clean_walks() {
        // Random seeds and growth sequences of 1-6 sub-clusters with
        // mixed lengths and weights.
        let mut state = 0x2004_u64;
        let mut next = |bound: u64| {
            state = hash::mix64(state.wrapping_add(0x9E37_79B9_7F4A_7C15));
            state % bound
        };
        let weights = [0.25, 0.5, 1.0, 2.0, 3.0];
        let mut scratch = RushScratch::new();
        let (mut rewalked, mut skipped) = (0u32, 0u32);
        for _case in 0..24 {
            let rush = Rush::new(next(u64::MAX));
            let mut before = ClusterMap::uniform(10 + next(120) as u32);
            for _step in 0..1 + next(6) {
                let mut after = before.clone();
                after.add_cluster(1 + next(48) as u32, weights[next(5) as usize]);
                for n in [1usize, 2, 4, 6, 10] {
                    for group in 0..60u64 {
                        let (rewalk, _) =
                            check_growth_step(&rush, &before, &after, group, n, &mut scratch);
                        if rewalk {
                            rewalked += 1;
                        } else {
                            skipped += 1;
                        }
                    }
                }
                before = after;
            }
        }
        assert!(
            rewalked > 0 && skipped > 0,
            "rewalked {rewalked}, skipped {skipped}"
        );
    }

    #[test]
    fn unclean_walks_near_a_full_map_need_the_rewalk() {
        // Ten disks, one of them nearly weightless: a 10-candidate walk
        // retries on almost every index and usually exhausts its hash
        // attempts before it draws the light disk, so the linear
        // fallback probe runs. Growth then reroutes retry draws without
        // the attempt-0 probe firing, which is why unclean groups are
        // always re-walked.
        let mut before = ClusterMap::uniform(9);
        before.add_cluster(1, 0.02);
        let rush = Rush::new(0xC0FFEE);
        let mut scratch = RushScratch::new();
        let mut changed_without_probe = 0u32;
        for (len, weight) in [(4u32, 1.0), (1, 0.5), (12, 2.0)] {
            let mut after = before.clone();
            after.add_cluster(len, weight);
            for n in [6usize, 10] {
                for group in 0..300u64 {
                    let (_, changed) =
                        check_growth_step(&rush, &before, &after, group, n, &mut scratch);
                    changed_without_probe += changed as u32;
                }
            }
        }
        assert!(
            scratch.fallback_probes() > 0,
            "the fallback probe never ran"
        );
        assert!(
            changed_without_probe > 0,
            "no unclean walk changed without the probe firing"
        );
    }
}
