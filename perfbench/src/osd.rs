//! The `osd_rebuild` workload: FARM recovery of real bytes in a
//! `farm_osd::Cluster` (48 OSDs, RS 8/10, 64 KiB blocks).
//!
//! A dataset generated from the seed is put into the cluster outside
//! any timed round. Each round fails two OSDs, reads every object back
//! degraded, runs `recover()`, and reads every object again; every read
//! is compared byte for byte with the dataset. Failed OSDs stay failed,
//! so after `ROUNDS_PER_CLUSTER` rounds the cluster is scrubbed and a
//! fresh one is populated (untimed) for the next rounds.

use crate::report::{median, peak_rss_mb, Report};
use crate::trace::{SpanId, Trace};
use crate::Args;
use farm_erasure::Scheme;
use farm_osd::{Cluster, OsdId};
use std::time::Instant;

const N_OSDS: u32 = 48;
const OSD_CAPACITY: u64 = 1 << 30;
const BLOCK_BYTES: usize = 64 * 1024;
const DATASET_BYTES: usize = 32 << 20;
const FAILS_PER_ROUND: usize = 2;
const ROUNDS_PER_CLUSTER: u64 = 12;
/// Fresh `Cluster::new` + populate builds whose median is `setup_s`,
/// half before and half after the timed rounds.
const SETUP_BUILDS: u64 = 18;
/// Stripes the traced run pushes through the codec directly.
const CODEC_STRIPES: usize = 64;

fn scheme() -> Scheme {
    Scheme::new(8, 10)
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Objects of 384 KiB to 1.6 MiB of seeded pseudo-random bytes, at least
/// `DATASET_BYTES` in all; sizes are not multiples of the 512 KiB group,
/// so last groups are padded.
struct Dataset {
    objects: Vec<(String, Vec<u8>)>,
}

impl Dataset {
    fn generate(seed: u64) -> Dataset {
        let mut rng = seed ^ 0x05D0_05D0_05D0_05D0;
        let mut objects = Vec::new();
        let mut total = 0;
        while total < DATASET_BYTES {
            let len = 384 * 1024 + (splitmix(&mut rng) % (1200 * 1024)) as usize;
            let mut data = Vec::with_capacity(len + 8);
            while data.len() < len {
                data.extend_from_slice(&splitmix(&mut rng).to_le_bytes());
            }
            data.truncate(len);
            objects.push((format!("obj-{:05}", objects.len()), data));
            total += len;
        }
        Dataset { objects }
    }

    fn bytes(&self) -> u64 {
        self.objects.iter().map(|(_, d)| d.len() as u64).sum()
    }

    /// Data blocks a full read of the dataset delivers.
    fn data_blocks(&self) -> u64 {
        let group = BLOCK_BYTES * scheme().m as usize;
        self.objects
            .iter()
            .map(|(_, d)| (d.len().div_ceil(group) * scheme().m as usize) as u64)
            .sum()
    }
}

fn cluster_seed(seed: u64, i: u64) -> u64 {
    farm_des::rng::derive_seed(seed ^ 0xC1u64 << 56, i)
}

/// Time populate builds `builds`, returning the times and the last
/// cluster. Each build is timed while the previous cluster is still
/// alive and freed after it, so later builds reuse the memory earlier
/// ones released instead of faulting in fresh pages.
fn setup_builds(
    ds: &Dataset,
    seed: u64,
    builds: std::ops::Range<u64>,
) -> (Vec<f64>, Result<Cluster, String>) {
    let mut times = Vec::new();
    let mut last = Err("no build".to_string());
    for b in builds {
        let t0 = Instant::now();
        let built = populate(ds, cluster_seed(seed, b));
        times.push(t0.elapsed().as_secs_f64());
        last = built;
    }
    (times, last)
}

fn populate(ds: &Dataset, seed: u64) -> Result<Cluster, String> {
    let mut c = Cluster::new(N_OSDS, OSD_CAPACITY, scheme(), BLOCK_BYTES, seed);
    for (name, data) in &ds.objects {
        c.put(name, data).map_err(|e| format!("put {name}: {e}"))?;
    }
    Ok(c)
}

/// Step timings and outcome of one round, seconds.
#[derive(Default)]
struct Round {
    wall: f64,
    read: f64,
    recover: f64,
    blocks_lost: u64,
    blocks_rebuilt: u64,
    bytes_rebuilt: u64,
    failures: Vec<String>,
}

/// A cluster under test plus the deterministic choice of which OSDs
/// fail next.
struct Rig<'a> {
    ds: &'a Dataset,
    cluster: Cluster,
    rng: u64,
    rounds_on_cluster: u64,
    clusters_built: u64,
    seed: u64,
}

impl<'a> Rig<'a> {
    fn new(ds: &'a Dataset, cluster: Cluster, seed: u64, first_cluster: u64) -> Self {
        Rig {
            ds,
            cluster,
            rng: seed ^ 0xFA11,
            rounds_on_cluster: 0,
            clusters_built: first_cluster + 1,
            seed,
        }
    }

    /// Read every object, comparing with the dataset; when tracing, a
    /// `step` span with one `get_span` span per object.
    fn read_all(
        &self,
        tr: &mut Option<(&mut Trace, SpanId)>,
        (step, get_span): (&'static str, &'static str),
        round: u64,
        out: &mut Vec<String>,
    ) {
        let parent = tr
            .as_mut()
            .map(|(t, p)| t.begin(step, Some(*p), Some(round)));
        for (name, want) in &self.ds.objects {
            let got = match (tr.as_mut(), parent) {
                (Some((t, _)), Some(p)) => {
                    t.span(get_span, Some(p), Some(round), || self.cluster.get(name))
                        .1
                }
                _ => self.cluster.get(name),
            };
            match got {
                Ok(bytes) if bytes == *want => {}
                Ok(_) => out.push(format!("{step} of {name} returned different bytes")),
                Err(e) => out.push(format!("{step} of {name}: {e}")),
            }
        }
        if let (Some((t, _)), Some(p)) = (tr.as_mut(), parent) {
            t.end(p);
        }
    }

    fn round(&mut self, mut tr: Option<(&mut Trace, SpanId)>, index: u64) -> Round {
        let mut r = Round::default();
        let round_span = tr
            .as_mut()
            .map(|(t, p)| t.begin("round", Some(*p), Some(index)));
        let mut child = tr
            .as_mut()
            .map(|(t, _)| (&mut **t, round_span.expect("tracing")));
        let t_round = Instant::now();

        let fail_span = child
            .as_mut()
            .map(|(t, p)| t.begin("osd.fail", Some(*p), Some(index)));
        let active: Vec<u32> = (0..N_OSDS)
            .filter(|&i| self.cluster.osd(OsdId(i)).is_active())
            .collect();
        let mut victims: Vec<u32> = Vec::new();
        while victims.len() < FAILS_PER_ROUND {
            let v = active[(splitmix(&mut self.rng) % active.len() as u64) as usize];
            if !victims.contains(&v) {
                victims.push(v);
            }
        }
        for &v in &victims {
            r.blocks_lost += self.cluster.fail_osd(OsdId(v));
        }
        if let (Some((t, _)), Some(s)) = (child.as_mut(), fail_span) {
            t.end(s);
        }

        let t0 = Instant::now();
        self.read_all(
            &mut child,
            ("degraded_read", "osd.degraded_get"),
            index,
            &mut r.failures,
        );
        r.read = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let rep = match child.as_mut() {
            Some((t, p)) => {
                t.span("osd.recover", Some(*p), Some(index), || {
                    self.cluster.recover()
                })
                .1
            }
            None => self.cluster.recover(),
        };
        r.recover = t0.elapsed().as_secs_f64();
        if rep.groups_lost != 0 {
            r.failures
                .push(format!("recover lost {} groups", rep.groups_lost));
        }
        if rep.blocks_rebuilt != r.blocks_lost {
            r.failures.push(format!(
                "rebuilt {} blocks of {} lost",
                rep.blocks_rebuilt, r.blocks_lost
            ));
        }
        r.blocks_rebuilt = rep.blocks_rebuilt;
        r.bytes_rebuilt = rep.bytes_rebuilt;

        self.read_all(
            &mut child,
            ("verify_read", "osd.get"),
            index,
            &mut r.failures,
        );
        r.wall = t_round.elapsed().as_secs_f64();
        if let (Some((t, _)), Some(s)) = (tr.as_mut(), round_span) {
            t.end(s);
        }
        self.rounds_on_cluster += 1;
        r
    }

    /// After `ROUNDS_PER_CLUSTER` rounds: scrub, then move to a freshly
    /// populated cluster. Returns the scrub time, seconds.
    fn rotate_if_due(
        &mut self,
        mut tr: Option<(&mut Trace, SpanId)>,
        failures: &mut Vec<String>,
    ) -> Option<f64> {
        if self.rounds_on_cluster < ROUNDS_PER_CLUSTER {
            return None;
        }
        let t0 = Instant::now();
        let scrub = match tr.as_mut() {
            Some((t, p)) => {
                t.span("osd.scrub", Some(*p), None, || self.cluster.scrub())
                    .1
            }
            None => self.cluster.scrub(),
        };
        let secs = t0.elapsed().as_secs_f64();
        if scrub.groups_inconsistent != 0 {
            failures.push(format!(
                "scrub found {} inconsistent groups",
                scrub.groups_inconsistent
            ));
        }
        let seed = cluster_seed(self.seed, self.clusters_built);
        let next = match tr.as_mut() {
            Some((t, p)) => {
                t.span("populate", Some(*p), None, || populate(self.ds, seed))
                    .1
            }
            None => populate(self.ds, seed),
        };
        match next {
            Ok(c) => self.cluster = c,
            Err(e) => failures.push(e),
        }
        self.clusters_built += 1;
        self.rounds_on_cluster = 0;
        Some(secs)
    }
}

/// Zero every OSD and codec layer metric (the Monte-Carlo workloads do
/// not exercise these layers).
pub fn zero_metrics(r: &mut Report) {
    layer_metrics(r, &OsdLayers::default());
}

#[derive(Default)]
struct OsdLayers {
    encode_mb_per_s: f64,
    reconstruct_mb_per_s: f64,
    degraded_get_ms: f64,
    recover_ms: f64,
    scrub_ms: f64,
    blocks_rebuilt: u64,
    bytes_rebuilt: u64,
    rebuild_mb_per_s: f64,
    degraded_read_mb_per_s: f64,
}

fn layer_metrics(r: &mut Report, l: &OsdLayers) {
    r.metric("erasure.encode_mb_per_s", l.encode_mb_per_s, "MiB/s");
    r.metric(
        "erasure.reconstruct_mb_per_s",
        l.reconstruct_mb_per_s,
        "MiB/s",
    );
    r.metric("osd.degraded_get_ms", l.degraded_get_ms, "ms");
    r.metric("osd.recover_ms", l.recover_ms, "ms");
    r.metric("osd.scrub_ms", l.scrub_ms, "ms");
    r.metric("osd.blocks_rebuilt", l.blocks_rebuilt as f64, "count");
    r.metric("osd.bytes_rebuilt", l.bytes_rebuilt as f64, "bytes");
    r.metric("osd.rebuild_mb_per_s", l.rebuild_mb_per_s, "MiB/s");
    r.metric(
        "osd.degraded_read_mb_per_s",
        l.degraded_read_mb_per_s,
        "MiB/s",
    );
}

const MIB: f64 = 1024.0 * 1024.0;

fn record_round(r: &mut Report, round: &Round, index: u64) {
    r.attempted += 1;
    let failures = &round.failures;
    r.check(failures.is_empty(), 1, || {
        format!("osd_rebuild round {index}: {}", failures.join("; "))
    });
}

/// `--trace 0`: timed rounds until `--seconds` elapse.
pub fn run(args: &Args) -> Report {
    let mut r = Report::new();
    let ds = Dataset::generate(args.seed);
    let half = SETUP_BUILDS / 2;
    let (mut builds, cluster) = setup_builds(&ds, args.seed, 0..half);
    let cluster = match cluster {
        Ok(c) => c,
        Err(e) => {
            r.check(false, 1, || format!("osd_rebuild populate: {e}"));
            return r;
        }
    };
    let mut rig = Rig::new(&ds, cluster, args.seed, half - 1);
    let (mut walls, mut blocks, mut read_s, mut recover_s, mut rebuilt) =
        (Vec::new(), 0u64, 0.0, 0.0, 0u64);
    let started = Instant::now();
    let mut index = 0;
    while started.elapsed().as_secs_f64() < args.seconds {
        let round = rig.round(None, index);
        record_round(&mut r, &round, index);
        walls.push(round.wall);
        blocks += 2 * ds.data_blocks() + round.blocks_rebuilt;
        read_s += round.read;
        recover_s += round.recover;
        rebuilt += round.bytes_rebuilt;
        let mut failures = Vec::new();
        rig.rotate_if_due(None, &mut failures);
        r.check(failures.is_empty(), 1, || {
            format!("osd_rebuild after round {index}: {}", failures.join("; "))
        });
        index += 1;
    }
    let scrub = rig.cluster.scrub();
    r.check(scrub.groups_inconsistent == 0, 1, || {
        format!(
            "osd_rebuild final scrub: {} inconsistent groups",
            scrub.groups_inconsistent
        )
    });
    drop(rig);
    let (after, last) = setup_builds(&ds, args.seed, half..SETUP_BUILDS);
    builds.extend(after);
    if let Err(e) = last {
        r.check(false, 1, || format!("osd_rebuild populate: {e}"));
    }
    let busy: f64 = walls.iter().sum();
    r.metric("campaign_s", median(&walls), "s");
    r.metric("trials_per_s", walls.len() as f64 / busy, "1/s");
    r.metric("events_per_s", blocks as f64 / busy, "1/s");
    r.metric("setup_s", median(&builds), "s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    eprintln!(
        "osd_rebuild: {} rounds in {busy:.3} s; degraded read {:.1} MiB/s, rebuild {:.1} MiB/s",
        walls.len(),
        ds.bytes() as f64 * walls.len() as f64 / MIB / read_s,
        rebuilt as f64 / MIB / recover_s
    );
    r
}

/// `--trace 1`: untraced rounds on one rig, then the same rounds
/// replayed on an identically seeded rig with spans, then the codec on
/// the dataset's own stripes.
pub fn run_traced(args: &Args) -> Report {
    let mut r = Report::new();
    let ds = Dataset::generate(args.seed);
    let seed0 = cluster_seed(args.seed, 0);

    // Untraced reference rounds (about half the budget), on the
    // process's first, cold build.
    let t0 = Instant::now();
    let first = populate(&ds, seed0);
    let first_build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut plain = match first {
        Ok(c) => Rig::new(&ds, c, args.seed, 0),
        Err(e) => {
            r.check(false, 1, || format!("osd_rebuild populate: {e}"));
            return r;
        }
    };
    let (mut plain_walls, mut read_s, mut recover_s, mut rebuilt) = (Vec::new(), 0.0, 0.0, 0u64);
    let started = Instant::now();
    let mut failures = Vec::new();
    while plain_walls.is_empty() || started.elapsed().as_secs_f64() < args.seconds / 2.0 {
        let index = plain_walls.len() as u64;
        let round = plain.round(None, index);
        record_round(&mut r, &round, index);
        plain_walls.push(round.wall);
        read_s += round.read;
        recover_s += round.recover;
        rebuilt += round.bytes_rebuilt;
        plain.rotate_if_due(None, &mut failures);
    }
    drop(plain);
    let rounds = plain_walls.len() as u64;

    // Traced replay of the same rounds.
    let mut trace = Trace::new();
    let t_wall = Instant::now();
    let root = trace.begin("campaign", None, None);
    let (_, built) = trace.span("populate", Some(root), None, || populate(&ds, seed0));
    let mut rig = Rig::new(
        &ds,
        built.expect("the untraced pass populated this seed"),
        args.seed,
        0,
    );
    let (mut recover_ms, mut scrub_ms, mut blocks_rebuilt, mut bytes_rebuilt) =
        (Vec::new(), Vec::new(), 0, 0);
    for index in 0..rounds {
        let round = rig.round(Some((&mut trace, root)), index);
        record_round(&mut r, &round, index);
        recover_ms.push(round.recover * 1e3);
        blocks_rebuilt += round.blocks_rebuilt;
        bytes_rebuilt += round.bytes_rebuilt;
        if let Some(s) = rig.rotate_if_due(Some((&mut trace, root)), &mut failures) {
            scrub_ms.push(s * 1e3);
        }
    }
    // Every run scrubs at least once, at the end.
    let (_, scrub) = trace.span("osd.scrub", Some(root), None, || {
        let t0 = Instant::now();
        (rig.cluster.scrub(), t0.elapsed().as_secs_f64())
    });
    scrub_ms.push(scrub.1 * 1e3);
    if scrub.0.groups_inconsistent != 0 {
        failures.push(format!(
            "final scrub found {} inconsistent groups",
            scrub.0.groups_inconsistent
        ));
    }
    drop(rig);
    let (encode_mb_per_s, reconstruct_mb_per_s) = codec_pass(&ds, &mut trace, root, &mut failures);
    trace.end(root);
    let wall_ns = t_wall.elapsed().as_nanos() as u64;
    r.check(failures.is_empty(), 1, || {
        format!("osd_rebuild: {}", failures.join("; "))
    });

    let self_sum = crate::finish_trace(&mut r, args, &trace, wall_ns, rounds);

    crate::mc::zero_metrics(&mut r);
    let gets: Vec<f64> = trace
        .durations("osd.degraded_get")
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    layer_metrics(
        &mut r,
        &OsdLayers {
            encode_mb_per_s,
            reconstruct_mb_per_s,
            degraded_get_ms: median(&gets),
            recover_ms: median(&recover_ms),
            scrub_ms: median(&scrub_ms),
            blocks_rebuilt,
            bytes_rebuilt,
            rebuild_mb_per_s: rebuilt as f64 / MIB / recover_s,
            degraded_read_mb_per_s: ds.bytes() as f64 * rounds as f64 / MIB / read_s,
        },
    );
    let round_ms: Vec<f64> = trace
        .durations("round")
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    let traced_mean = round_ms.iter().sum::<f64>() / 1e3 / rounds as f64;
    let plain_mean = plain_walls.iter().sum::<f64>() / rounds as f64;
    crate::common_trace_metrics(
        &mut r,
        first_build_ms,
        &round_ms,
        traced_mean / plain_mean - 1.0,
        self_sum,
        trace.len(),
    );
    r
}

/// Encode the dataset's first stripes with the public codec, then
/// reconstruct each with two data blocks erased; returns MiB/s of user
/// data for each direction.
fn codec_pass(
    ds: &Dataset,
    trace: &mut Trace,
    root: SpanId,
    failures: &mut Vec<String>,
) -> (f64, f64) {
    let s = scheme();
    let codec = s.codec();
    let m = s.m as usize;
    let stripes: Vec<Vec<&[u8]>> = ds
        .objects
        .iter()
        .flat_map(|(_, d)| d.chunks_exact(BLOCK_BYTES * m))
        .take(CODEC_STRIPES)
        .map(|stripe| stripe.chunks_exact(BLOCK_BYTES).collect())
        .collect();
    let data_mib = (stripes.len() * m * BLOCK_BYTES) as f64 / MIB;
    let (enc_id, parities) = trace.span("erasure.encode", Some(root), None, || {
        stripes.iter().map(|d| codec.encode(d)).collect::<Vec<_>>()
    });
    let mut erased: Vec<Vec<Option<Vec<u8>>>> = stripes
        .iter()
        .zip(&parities)
        .map(|(d, p)| {
            let mut blocks: Vec<Option<Vec<u8>>> = d
                .iter()
                .map(|b| Some(b.to_vec()))
                .chain(p.iter().map(|b| Some(b.clone())))
                .collect();
            blocks[0] = None;
            blocks[m - 1] = None;
            blocks
        })
        .collect();
    let (rec_id, ok) = trace.span("erasure.reconstruct", Some(root), None, || {
        erased.iter_mut().all(|blocks| codec.reconstruct(blocks))
    });
    let same = erased.iter().zip(&stripes).all(|(blocks, d)| {
        blocks[..m]
            .iter()
            .zip(d)
            .all(|(b, want)| b.as_deref() == Some(*want))
    });
    if !(ok && same) {
        failures.push("codec reconstruct did not restore the erased blocks".into());
    }
    let secs = |id: SpanId| trace.get(id).dur_ns() as f64 / 1e9;
    (data_mib / secs(enc_id), data_mib / secs(rec_id))
}
