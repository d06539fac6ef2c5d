//! An object storage cluster with FARM recovery of *real bytes* —
//! Figure 1's pipeline (files → blocks → redundancy groups → disks) plus
//! Figure 2(d)'s distributed recovery, operating on data instead of
//! bookkeeping.

use crate::device::{BlockKey, Osd, OsdError, OsdId};
use bytes::{Bytes, BytesMut};
use farm_erasure::{Codec, Scheme};
use farm_placement::{ClusterMap, DiskId, Rush, RushScratch};
use std::collections::{BTreeMap, HashMap};

/// Errors surfaced by cluster operations.
#[derive(Debug)]
pub enum ClusterError {
    /// No object with that name.
    NotFound(String),
    /// An object with that name already exists.
    Duplicate(String),
    /// A redundancy group lost more blocks than the scheme tolerates.
    Unrecoverable { group: u64 },
    /// Not enough eligible devices to place a group.
    NoEligibleDevice { group: u64 },
    /// A device refused an operation.
    Device(OsdError),
}

impl From<OsdError> for ClusterError {
    fn from(e: OsdError) -> Self {
        ClusterError::Device(e)
    }
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NotFound(n) => write!(f, "object '{n}' not found"),
            ClusterError::Duplicate(n) => write!(f, "object '{n}' already exists"),
            ClusterError::Unrecoverable { group } => {
                write!(f, "group {group} is unrecoverable")
            }
            ClusterError::NoEligibleDevice { group } => {
                write!(f, "no eligible device for group {group}")
            }
            ClusterError::Device(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// What a recovery pass did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Blocks reconstructed and re-placed.
    pub blocks_rebuilt: u64,
    /// Bytes written to recovery targets.
    pub bytes_rebuilt: u64,
    /// Groups that could not be recovered (data loss).
    pub groups_lost: u64,
    /// Lost blocks of recoverable groups that found no eligible target
    /// (every active device already holds a block of the group, or none
    /// has room); they stay lost until a later pass can place them.
    pub blocks_unplaced: u64,
}

/// What a scrub pass found.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    pub groups_checked: u64,
    /// Groups whose stored blocks are inconsistent with the code.
    pub groups_inconsistent: u64,
}

struct ObjectMeta {
    len: u64,
    groups: Vec<u64>,
}

/// An in-memory object storage cluster.
pub struct Cluster {
    scheme: Scheme,
    codec: Codec,
    /// Bytes of user data per group (m data blocks).
    group_bytes: usize,
    rush: Rush,
    /// Reusable dedup state for candidate walks (placement and recovery
    /// each run one walk at a time), so no walk allocates.
    rush_scratch: RushScratch,
    map: ClusterMap,
    osds: Vec<Osd>,
    /// Current home of every stored block.
    homes: HashMap<BlockKey, OsdId>,
    objects: HashMap<String, ObjectMeta>,
    next_group: u64,
    /// Per-device capacity (devices are homogeneous).
    osd_capacity: u64,
    /// Upper bound on `used()` across devices; never decreased (deletes
    /// leave it stale-high, which is safe: it only ever defers the fast
    /// path). While `used_watermark + need <= osd_capacity`, every
    /// active device can take the block, so placement skips the
    /// per-candidate `free()` recheck.
    used_watermark: u64,
}

impl Cluster {
    /// Build a cluster of `n_osds` devices of `osd_capacity` bytes each,
    /// protecting data with `scheme` over groups of `block_bytes`-sized
    /// blocks.
    pub fn new(
        n_osds: u32,
        osd_capacity: u64,
        scheme: Scheme,
        block_bytes: usize,
        seed: u64,
    ) -> Self {
        assert!(n_osds >= scheme.n, "need at least n devices");
        assert!(block_bytes > 0);
        let osds = (0..n_osds)
            .map(|i| Osd::new(OsdId(i), osd_capacity))
            .collect();
        Cluster {
            codec: scheme.codec(),
            group_bytes: block_bytes * scheme.m as usize,
            scheme,
            rush: Rush::new(seed),
            rush_scratch: RushScratch::new(),
            map: ClusterMap::uniform(n_osds),
            osds,
            homes: HashMap::new(),
            objects: HashMap::new(),
            next_group: 0,
            osd_capacity,
            used_watermark: 0,
        }
    }

    /// Whether *every* active device can surely take `need` more bytes —
    /// the watermark fast path, hoisted out of candidate loops. While it
    /// holds, the per-candidate `free()` recheck is skipped; it stays
    /// valid across the puts of one group because a device not yet
    /// written this group still sits at or below the hoisted watermark.
    #[inline]
    fn all_have_room(&self, need: u64) -> bool {
        self.used_watermark + need <= self.osd_capacity
    }

    #[inline]
    fn note_put(&mut self, id: OsdId) {
        self.used_watermark = self.used_watermark.max(self.osds[id.0 as usize].used());
    }

    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    pub fn n_osds(&self) -> u32 {
        self.osds.len() as u32
    }

    pub fn osd(&self, id: OsdId) -> &Osd {
        &self.osds[id.0 as usize]
    }

    /// Test/ops hook: mutable device access (corruption injection).
    pub fn osd_mut(&mut self, id: OsdId) -> &mut Osd {
        &mut self.osds[id.0 as usize]
    }

    pub fn object_names(&self) -> impl Iterator<Item = &str> {
        self.objects.keys().map(|s| s.as_str())
    }

    /// Total bytes stored across active devices (data + redundancy).
    pub fn stored_bytes(&self) -> u64 {
        self.osds.iter().map(|o| o.used()).sum()
    }

    fn block_bytes(&self) -> usize {
        self.group_bytes / self.scheme.m as usize
    }

    // ----- object I/O ----------------------------------------------------

    /// Store an object, striping it into redundancy groups.
    pub fn put(&mut self, name: &str, data: &[u8]) -> Result<(), ClusterError> {
        if self.objects.contains_key(name) {
            return Err(ClusterError::Duplicate(name.to_string()));
        }
        let mut groups = Vec::new();
        // Write all groups; on failure, roll back previously written ones.
        let result = (|| {
            for chunk in data.chunks(self.group_bytes.max(1)) {
                let group = self.next_group;
                self.write_group(group, chunk)?;
                self.next_group += 1;
                groups.push(group);
            }
            Ok(())
        })();
        match result {
            Ok(()) => {
                self.objects.insert(
                    name.to_string(),
                    ObjectMeta {
                        len: data.len() as u64,
                        groups,
                    },
                );
                Ok(())
            }
            Err(e) => {
                for g in groups {
                    self.drop_group(g);
                }
                Err(e)
            }
        }
    }

    /// Read an object back, reconstructing through up to `n − m` device
    /// failures per group (degraded reads need no prior `recover()`).
    pub fn get(&self, name: &str) -> Result<Vec<u8>, ClusterError> {
        let meta = self
            .objects
            .get(name)
            .ok_or_else(|| ClusterError::NotFound(name.to_string()))?;
        // Each group fills the next `group_bytes` of the output. Present data
        // blocks are copied in once; only missing ones that overlap the
        // object (not pure padding) are decoded, in place.
        let mut out = vec![0u8; meta.len as usize];
        for (span, &group) in out.chunks_mut(self.group_bytes).zip(&meta.groups) {
            let held = self.held_blocks(group);
            let (mut want, mut missing) = (Vec::new(), Vec::new());
            for (idx, part) in span.chunks_mut(self.block_bytes()).enumerate() {
                match &held[idx] {
                    Some(block) => part.copy_from_slice(&block[..part.len()]),
                    None => {
                        want.push(idx);
                        missing.push(part);
                    }
                }
            }
            if !want.is_empty() {
                let survivors: Vec<Option<&[u8]>> = held.iter().map(Option::as_deref).collect();
                self.codec
                    .decode(&survivors, &want, &mut missing)
                    .map_err(|_| ClusterError::Unrecoverable { group })?;
            }
        }
        Ok(out)
    }

    /// Delete an object and release its blocks.
    pub fn delete(&mut self, name: &str) -> Result<(), ClusterError> {
        let meta = self
            .objects
            .remove(name)
            .ok_or_else(|| ClusterError::NotFound(name.to_string()))?;
        for g in meta.groups {
            self.drop_group(g);
        }
        Ok(())
    }

    // ----- failure & recovery ---------------------------------------------

    /// Fail a device, losing its contents. Returns how many blocks it
    /// held.
    pub fn fail_osd(&mut self, id: OsdId) -> u64 {
        let lost = self.osds[id.0 as usize].n_blocks() as u64;
        self.osds[id.0 as usize].fail();
        lost
    }

    /// FARM recovery: re-create every block whose home has failed onto a
    /// new device from the group's candidate list, reconstructing the
    /// bytes from surviving buddies.
    ///
    /// Lost blocks are batched per redundancy group, so one decode from
    /// the survivors computes exactly a group's lost blocks; groups are
    /// processed in ascending id order so the pass is deterministic. Only
    /// a group with too few survivors counts as lost; a rebuilt block
    /// with no eligible target counts as unplaced.
    pub fn recover(&mut self) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        // Lost blocks, batched by group.
        let mut lost: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (&k, &osd) in &self.homes {
            if !self.osds[osd.0 as usize].is_active() {
                lost.entry(k.group).or_default().push(k.idx as usize);
            }
        }
        let bb = self.block_bytes();
        for (group, mut want) in lost {
            want.sort_unstable();
            let mut rebuilt: Vec<BytesMut> = want.iter().map(|_| BytesMut::zeroed(bb)).collect();
            let held = self.held_blocks(group);
            let survivors: Vec<Option<&[u8]>> = held.iter().map(Option::as_deref).collect();
            let mut out: Vec<&mut [u8]> = rebuilt.iter_mut().map(|b| &mut b[..]).collect();
            if self.codec.decode(&survivors, &want, &mut out).is_err() {
                report.groups_lost += 1;
                continue;
            }
            for (placed, (&w, block)) in want.iter().zip(rebuilt).enumerate() {
                // Choose a target per §2.3: alive, no buddy of this group,
                // space. Each placement updates `homes`, so later blocks
                // of the same group automatically avoid this target.
                let Some(target) = self.choose_target(group, bb as u64) else {
                    report.blocks_unplaced += (want.len() - placed) as u64;
                    break;
                };
                let idx = w as u8;
                let key = BlockKey { group, idx };
                self.osds[target.0 as usize]
                    .put(key, block.freeze())
                    .expect("the target is active, has room and holds no block of the group");
                self.note_put(target);
                self.homes.insert(key, target);
                report.blocks_rebuilt += 1;
                report.bytes_rebuilt += bb as u64;
            }
        }
        report
    }

    fn choose_target(&mut self, group: u64, need: u64) -> Option<OsdId> {
        let rush = self.rush;
        let wm_ok = self.all_have_room(need);
        // The walk holds the scratch mutably while the loop consults
        // `&self`; lift it out for the duration (restored below).
        let mut scratch = std::mem::take(&mut self.rush_scratch);
        let mut chosen = None;
        for cand in rush.walk(&self.map, group, &mut scratch) {
            let osd = &self.osds[cand.0 as usize];
            if osd.is_active()
                && (wm_ok || osd.free() >= need)
                && !self.group_uses(group, OsdId(cand.0))
            {
                chosen = Some(OsdId(cand.0));
                break;
            }
        }
        self.rush_scratch = scratch;
        chosen
    }

    fn group_uses(&self, group: u64, osd: OsdId) -> bool {
        (0..self.scheme.n as u8).any(|idx| {
            self.homes
                .get(&BlockKey { group, idx })
                .is_some_and(|&h| h == osd && self.osds[h.0 as usize].is_active())
        })
    }

    /// Verify every group's stored blocks against the code (§2.2's
    /// consistency property). Catches silent corruption.
    pub fn scrub(&self) -> ScrubReport {
        let mut report = ScrubReport::default();
        let groups: std::collections::HashSet<u64> = self.homes.keys().map(|k| k.group).collect();
        for group in groups {
            report.groups_checked += 1;
            if !self.group_is_consistent(group) {
                report.groups_inconsistent += 1;
            }
        }
        report
    }

    fn group_is_consistent(&self, group: u64) -> bool {
        // A group with missing blocks is degraded, not inconsistent.
        let Some(blocks) = self
            .held_blocks(group)
            .into_iter()
            .collect::<Option<Vec<_>>>()
        else {
            return true;
        };
        let (data, parity) = blocks.split_at(self.scheme.m as usize);
        let data: Vec<&[u8]> = data.iter().map(|b| &b[..]).collect();
        let encoded = self.codec.encode(&data);
        encoded
            .iter()
            .zip(parity)
            .all(|(p, stored)| p[..] == stored[..])
    }

    // ----- internals -------------------------------------------------------

    fn write_group(&mut self, group: u64, payload: &[u8]) -> Result<(), ClusterError> {
        let bb = self.block_bytes();
        // Stripe (zero-padded) into m data blocks.
        let mut data: Vec<Vec<u8>> = (0..self.scheme.m as usize)
            .map(|i| {
                let start = (i * bb).min(payload.len());
                let end = ((i + 1) * bb).min(payload.len());
                let mut v = payload[start..end].to_vec();
                v.resize(bb, 0);
                v
            })
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = self.codec.encode(&refs);
        let all: Vec<Vec<u8>> = data.drain(..).chain(parity).collect();

        // Place on the first n eligible candidates of *one* walk (the
        // per-block re-walk this replaces allocated a candidate list per
        // block). Equivalent by monotonicity: writes only consume space
        // and raise the watermark, so a candidate skipped as ineligible
        // for block i would also be skipped by every later block's walk,
        // and each candidate takes at most one block of the group.
        let n = all.len();
        let need = bb as u64;
        let wm_ok = self.all_have_room(need);
        let mut targets: Vec<OsdId> = Vec::with_capacity(n);
        let mut scratch = std::mem::take(&mut self.rush_scratch);
        for cand in self.rush.walk(&self.map, group, &mut scratch) {
            let osd = &self.osds[cand.0 as usize];
            if osd.is_active() && (wm_ok || osd.free() >= need) {
                targets.push(OsdId(cand.0));
                if targets.len() == n {
                    break;
                }
            }
        }
        self.rush_scratch = scratch;
        if targets.len() < n {
            return Err(ClusterError::NoEligibleDevice { group });
        }
        let mut placed: Vec<(BlockKey, OsdId)> = Vec::with_capacity(n);
        for (idx, (bytes, &id)) in all.into_iter().zip(&targets).enumerate() {
            let key = BlockKey {
                group,
                idx: idx as u8,
            };
            self.osds[id.0 as usize].put(key, Bytes::from(bytes))?;
            self.note_put(id);
            placed.push((key, id));
        }
        for (k, id) in placed {
            self.homes.insert(k, id);
        }
        Ok(())
    }

    /// The blocks of `group` on live devices, as refcounted handles.
    fn held_blocks(&self, group: u64) -> Vec<Option<Bytes>> {
        (0..self.scheme.n as u8)
            .map(|idx| {
                let k = BlockKey { group, idx };
                self.homes
                    .get(&k)
                    .and_then(|&osd| self.osds[osd.0 as usize].get(k).ok())
            })
            .collect()
    }

    fn drop_group(&mut self, group: u64) {
        for idx in 0..self.scheme.n as u8 {
            let k = BlockKey { group, idx };
            if let Some(osd) = self.homes.remove(&k) {
                if self.osds[osd.0 as usize].is_active() {
                    let _ = self.osds[osd.0 as usize].delete(k);
                }
            }
        }
    }
}

// DiskId and OsdId are the same index space; keep the conversion local.
impl From<DiskId> for OsdId {
    fn from(d: DiskId) -> OsdId {
        OsdId(d.0)
    }
}
