//! Runtime-dispatched multi-lane kernels for batched RUSH draw hashing.
//!
//! Initial placement hashes one attempt-0 draw per (group, candidate
//! index) — at paper scale tens of thousands of dependent `combine`
//! chains per trial, ~94 % of trial setup time (BENCH_PR8.json,
//! `setup_phases`). Each chain is only ~12 sequential multiplies, so a
//! single walk is latency-bound; but the chains of *different groups*
//! are independent, which is exactly the shape SIMD (and scalar
//! instruction-level parallelism) eats: compute candidate index `i` for
//! [`LANES`] groups at once, keeping eight multiply chains in flight.
//! Two kernels do it: AVX-512, which has a native 64-bit multiply, where
//! the CPU has it, and the portable scalar core everywhere else.
//!
//! A kernel computes only the *attempt-0, single-cluster* within-hash
//!
//! ```text
//! H(gkey, i) = combine(combine(combine(combine(gkey, i), 0), 0), 0xD2)
//! ```
//!
//! — the value `Rush::draw_with_prefix` folds for the common uniform
//! map. Everything downstream of the hash (magic-number remainder →
//! disk id, dedup, collision attempts ≥ 1, multi-cluster descent, the
//! linear-probe fallback) stays on the sequential scalar path, so the
//! emitted draw sequence is byte-identical to the unbatched walk *by
//! construction*: the kernels are pinned to the scalar `combine` chain
//! lane by lane (`hashes_match_the_scalar_combine_chain` below) and the
//! whole layout is pinned per kernel by
//! `tests/placement_kernel_identity.rs` at the workspace root.
//!
//! Dispatch mirrors `farm_erasure::gf256::kernel`: probed once per
//! process with `is_x86_feature_detected!`, cached in a process-global
//! atomic, overridable with `FARM_PLACE_KERNEL=scalar|avx512`
//! (an unsupported or unknown value logs one stderr notice and falls
//! back to autodetection rather than crashing). The batched engine as a
//! whole — prehashing *and* the memoized walk prefixes it feeds (see
//! `farm_core`'s `GroupLayout`) — can be disabled outright with
//! `FARM_PLACE_ENGINE=0`, which the benchmark harness uses for
//! interleaved off/on pairs.

use crate::hash::{self, COMBINE_A, COMBINE_B, MIX_INC, MIX_M1, MIX_M2};
use std::sync::atomic::{AtomicU8, Ordering};

/// Groups hashed per batched round. Eight 64-bit lanes fill one
/// AVX-512 register or eight scalar chains — enough to hide the
/// ~3-cycle multiply latency on both paths.
pub const LANES: usize = 8;

/// `0xD2 * COMBINE_B`: the tag word's side of the final `combine`,
/// lane-uniform and therefore folded once per batch.
const D2_B: u64 = 0xD2u64.wrapping_mul(COMBINE_B);

/// One batched placement-hash kernel. `Scalar` is the portable
/// reference and the fallback (eight independent chains, ILP only);
/// `Avx512` holds all eight lanes in one register and multiplies
/// natively (`vpmullq`, AVX-512DQ). Both compute the identical function.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Kernel {
    Scalar = 0,
    Avx512 = 1,
}

impl Kernel {
    pub const ALL: [Kernel; 2] = [Kernel::Scalar, Kernel::Avx512];

    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Avx512 => "avx512",
        }
    }

    pub fn parse(s: &str) -> Option<Kernel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Kernel::Scalar),
            "avx512" => Some(Kernel::Avx512),
            _ => None,
        }
    }

    /// Can this kernel run on the current CPU?
    pub fn supported(self) -> bool {
        match self {
            Kernel::Scalar => true,
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Kernel::Avx512 => {
                is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")
            }
            #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
            _ => false,
        }
    }

    /// The kernel runtime dispatch would pick: AVX-512 where the CPU
    /// has it, scalar otherwise.
    pub fn detect() -> Kernel {
        if Kernel::Avx512.supported() {
            Kernel::Avx512
        } else {
            Kernel::Scalar
        }
    }

    fn from_u8(v: u8) -> Option<Kernel> {
        Kernel::ALL.into_iter().find(|k| *k as u8 == v)
    }

    /// Startup selection: `FARM_PLACE_KERNEL` if set, valid and
    /// supported; autodetection otherwise. Unknown or unsupported
    /// requests log one stderr notice instead of crashing — an env
    /// typo must never take down a batch.
    fn from_env() -> Kernel {
        let detected = Kernel::detect();
        match std::env::var("FARM_PLACE_KERNEL") {
            Ok(raw) => match Kernel::parse(&raw) {
                Some(k) if k.supported() => k,
                Some(k) => {
                    eprintln!(
                        "farm-placement: FARM_PLACE_KERNEL={} is not supported on this CPU; \
                         falling back to {}",
                        k.name(),
                        detected.name()
                    );
                    detected
                }
                None => {
                    eprintln!(
                        "farm-placement: unknown FARM_PLACE_KERNEL={raw:?} \
                         (expected scalar|avx512); falling back to {}",
                        detected.name()
                    );
                    detected
                }
            },
            Err(_) => detected,
        }
    }

    /// Fill `out[i * LANES + l]` with `H(gkeys[l], i)` for candidate
    /// indices `0..n_idx` — index-major so each vector round stores one
    /// contiguous [`LANES`]-wide row. `out` must hold at least
    /// `n_idx * LANES` words.
    pub fn run(self, gkeys: &[u64; LANES], n_idx: usize, out: &mut [u64]) {
        assert!(out.len() >= n_idx * LANES, "output buffer too small");
        assert!(self.supported(), "kernel {self} not supported on this CPU");
        match self {
            Kernel::Scalar => draw_hashes_scalar(gkeys, n_idx, out),
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            // SAFETY: `supported()` verified the ISA above.
            Kernel::Avx512 => unsafe { draw_hashes_avx512(gkeys, n_idx, out) },
            #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
            _ => unreachable!("non-x86 builds only support the scalar kernel"),
        }
    }

    /// [`Kernel::run`] over a whole *strip* of `rounds * LANES`
    /// consecutive groups, folding each lane's group key
    /// `combine(prefix, base_group + r·LANES + l)` inside the kernel:
    /// `out[(r * n_idx + i) * LANES + l]` receives `H(gkey, i)`. One
    /// call per strip amortizes the dispatch, constant broadcasts and
    /// key folding that a per-round [`Kernel::run`] pays every eight
    /// groups. AVX-512 runs the strip fused (the per-lane `group ·
    /// COMBINE_B` term advances by one vector add per round); the
    /// scalar kernel folds keys through `combine` and reuses its
    /// per-round core — identical output either way.
    pub fn run_strip(
        self,
        prefix: u64,
        base_group: u64,
        rounds: usize,
        n_idx: usize,
        out: &mut [u64],
    ) {
        assert!(
            out.len() >= rounds * n_idx * LANES,
            "output buffer too small"
        );
        assert!(self.supported(), "kernel {self} not supported on this CPU");
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if self == Kernel::Avx512 {
            // SAFETY: `supported()` verified AVX-512F + AVX-512DQ above.
            unsafe { draw_strip_avx512(prefix, base_group, rounds, n_idx, out) };
            return;
        }
        let row = n_idx * LANES;
        for r in 0..rounds {
            let base = base_group + (r * LANES) as u64;
            let gkeys: [u64; LANES] =
                std::array::from_fn(|l| hash::combine(prefix, base + l as u64));
            self.run(&gkeys, n_idx, &mut out[r * row..(r + 1) * row]);
        }
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// `u8::MAX` = not yet selected; any other value is a `Kernel`
/// discriminant.
const UNSELECTED: u8 = u8::MAX;

static ACTIVE: AtomicU8 = AtomicU8::new(UNSELECTED);

/// The process-wide active kernel, selecting on first use (environment
/// override, then autodetection).
pub fn active() -> Kernel {
    match Kernel::from_u8(ACTIVE.load(Ordering::Relaxed)) {
        Some(k) => k,
        None => {
            let k = Kernel::from_env();
            ACTIVE.store(k as u8, Ordering::Relaxed);
            k
        }
    }
}

/// Force the active kernel (tests and benchmarks compare kernels within
/// one process). Returns the previous selection. Panics if `k` cannot
/// run on this CPU.
pub fn set_active(k: Kernel) -> Kernel {
    assert!(k.supported(), "kernel {k} not supported on this CPU");
    let prev = active();
    ACTIVE.store(k as u8, Ordering::Relaxed);
    prev
}

/// [`Kernel::run`] through the process-wide active kernel.
#[inline]
pub fn draw_hashes(gkeys: &[u64; LANES], n_idx: usize, out: &mut [u64]) {
    active().run(gkeys, n_idx, out)
}

/// [`Kernel::run_strip`] through the process-wide active kernel.
#[inline]
pub fn draw_hashes_strip(
    prefix: u64,
    base_group: u64,
    rounds: usize,
    n_idx: usize,
    out: &mut [u64],
) {
    active().run_strip(prefix, base_group, rounds, n_idx, out)
}

// ----- engine toggle ------------------------------------------------------

/// 2 = not yet read from the environment.
const ENGINE_UNSET: u8 = 2;

static ENGINE: AtomicU8 = AtomicU8::new(ENGINE_UNSET);

/// Is the batched placement engine (prehashed draws + memoized walk
/// prefixes) enabled? Defaults to on; `FARM_PLACE_ENGINE=0` (or `off`)
/// disables it, falling back to the pure sequential walk everywhere.
/// Purely a perf/debug knob: results are byte-identical either way.
pub fn engine_enabled() -> bool {
    match ENGINE.load(Ordering::Relaxed) {
        0 => false,
        1 => true,
        _ => {
            let on = match std::env::var("FARM_PLACE_ENGINE") {
                Ok(v) => {
                    let v = v.trim();
                    !(v == "0" || v.eq_ignore_ascii_case("off"))
                }
                Err(_) => true,
            };
            ENGINE.store(on as u8, Ordering::Relaxed);
            on
        }
    }
}

/// Force the engine on or off (the benchmark harness interleaves the
/// two in one process). Returns the previous setting.
pub fn set_engine_enabled(on: bool) -> bool {
    let prev = engine_enabled();
    ENGINE.store(on as u8, Ordering::Relaxed);
    prev
}

// ----- scalar core --------------------------------------------------------

/// Eight independent chains per candidate index. Each chain is the
/// verbatim `hash::combine` arithmetic with the lane-uniform right-hand
/// sides (`i`, `0`, `0`, `0xD2`) pre-multiplied by `COMBINE_B`; the
/// compiler keeps the lanes in flight, hiding each chain's multiply
/// latency behind the others — that alone is worth ~2× over the
/// one-walk-at-a-time path.
fn draw_hashes_scalar(gkeys: &[u64; LANES], n_idx: usize, out: &mut [u64]) {
    #[inline(always)]
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(MIX_INC);
        z = (z ^ (z >> 30)).wrapping_mul(MIX_M1);
        z = (z ^ (z >> 27)).wrapping_mul(MIX_M2);
        z ^ (z >> 31)
    }
    for i in 0..n_idx {
        let i_b = (i as u64).wrapping_mul(COMBINE_B);
        let row = &mut out[i * LANES..(i + 1) * LANES];
        for (slot, &gkey) in row.iter_mut().zip(gkeys) {
            let mut h = mix(gkey.wrapping_mul(COMBINE_A) ^ i_b); // combine(gkey, i)
            h = mix(h.wrapping_mul(COMBINE_A)); // combine(·, 0)
            h = mix(h.wrapping_mul(COMBINE_A)); // combine(·, 0)
            h = mix(h.wrapping_mul(COMBINE_A) ^ D2_B); // combine(·, 0xD2)
            *slot = h;
        }
    }
}

// ----- AVX-512 cores -------------------------------------------------------
//
// The per-index chain is the same four `combine`s as the scalar core,
// wrapping arithmetic throughout, hence bit-identical output.

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod x86 {
    use super::{COMBINE_A, COMBINE_B, D2_B, LANES, MIX_INC, MIX_M1, MIX_M2};
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// All eight lanes in one 512-bit register, with the native 64-bit
    /// low multiply (`vpmullq`): twelve multiplies per candidate row.
    ///
    /// SAFETY: caller verified AVX-512F + AVX-512DQ via
    /// `is_x86_feature_detected!`.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub unsafe fn draw_hashes_avx512(gkeys: &[u64; LANES], n_idx: usize, out: &mut [u64]) {
        #[inline(always)]
        unsafe fn mix(mut z: __m512i, inc: __m512i, m1: __m512i, m2: __m512i) -> __m512i {
            z = _mm512_add_epi64(z, inc);
            z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64::<30>(z)), m1);
            z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64::<27>(z)), m2);
            _mm512_xor_si512(z, _mm512_srli_epi64::<31>(z))
        }

        let a = _mm512_set1_epi64(COMBINE_A as i64);
        let inc = _mm512_set1_epi64(MIX_INC as i64);
        let m1 = _mm512_set1_epi64(MIX_M1 as i64);
        let m2 = _mm512_set1_epi64(MIX_M2 as i64);
        let d2b = _mm512_set1_epi64(D2_B as i64);
        let b = _mm512_set1_epi64(COMBINE_B as i64);
        let g = _mm512_loadu_si512(gkeys.as_ptr() as *const _);
        // `i · COMBINE_B` advances by one wrapping add per row.
        let mut i_b = _mm512_setzero_si512();
        for i in 0..n_idx {
            let mut h = mix(_mm512_xor_si512(_mm512_mullo_epi64(g, a), i_b), inc, m1, m2);
            h = mix(_mm512_mullo_epi64(h, a), inc, m1, m2);
            h = mix(_mm512_mullo_epi64(h, a), inc, m1, m2);
            h = mix(_mm512_xor_si512(_mm512_mullo_epi64(h, a), d2b), inc, m1, m2);
            _mm512_storeu_si512(out.as_mut_ptr().add(i * LANES) as *mut _, h);
            i_b = _mm512_add_epi64(i_b, b);
        }
    }

    /// Fused strip: group keys for `rounds * LANES` consecutive groups
    /// are folded in-register — the lane-l key operand `(base_group +
    /// r·LANES + l) · COMBINE_B` starts as one load and advances by a
    /// single vector add per round, so constants broadcast once per
    /// *strip* instead of once per eight groups.
    ///
    /// SAFETY: caller verified AVX-512F + AVX-512DQ via
    /// `is_x86_feature_detected!`.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub unsafe fn draw_strip_avx512(
        prefix: u64,
        base_group: u64,
        rounds: usize,
        n_idx: usize,
        out: &mut [u64],
    ) {
        #[inline(always)]
        unsafe fn mix(mut z: __m512i, inc: __m512i, m1: __m512i, m2: __m512i) -> __m512i {
            z = _mm512_add_epi64(z, inc);
            z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64::<30>(z)), m1);
            z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64::<27>(z)), m2);
            _mm512_xor_si512(z, _mm512_srli_epi64::<31>(z))
        }

        let a = _mm512_set1_epi64(COMBINE_A as i64);
        let inc = _mm512_set1_epi64(MIX_INC as i64);
        let m1 = _mm512_set1_epi64(MIX_M1 as i64);
        let m2 = _mm512_set1_epi64(MIX_M2 as i64);
        let d2b = _mm512_set1_epi64(D2_B as i64);
        let b = _mm512_set1_epi64(COMBINE_B as i64);
        let pa = _mm512_set1_epi64(prefix.wrapping_mul(COMBINE_A) as i64);
        let step = _mm512_set1_epi64((LANES as u64).wrapping_mul(COMBINE_B) as i64);
        let lane_b: [u64; LANES] =
            std::array::from_fn(|l| (base_group + l as u64).wrapping_mul(COMBINE_B));
        let mut g_b = _mm512_loadu_si512(lane_b.as_ptr() as *const _);
        #[inline(always)]
        unsafe fn row(
            g: __m512i,
            i_b: __m512i,
            a: __m512i,
            d2b: __m512i,
            inc: __m512i,
            m1: __m512i,
            m2: __m512i,
        ) -> __m512i {
            let mut h = mix(_mm512_xor_si512(_mm512_mullo_epi64(g, a), i_b), inc, m1, m2);
            h = mix(_mm512_mullo_epi64(h, a), inc, m1, m2);
            h = mix(_mm512_mullo_epi64(h, a), inc, m1, m2);
            mix(_mm512_xor_si512(_mm512_mullo_epi64(h, a), d2b), inc, m1, m2)
        }
        // Each candidate row is twelve *sequential* multiplies, so a
        // single round is latency-bound; interleaving four independent
        // rounds keeps enough chains in flight to approach the multiply
        // throughput bound instead.
        let stride = n_idx * LANES;
        let mut r = 0usize;
        while r + 4 <= rounds {
            // gkey = combine(prefix, group), all eight lanes at once.
            let g0 = mix(_mm512_xor_si512(pa, g_b), inc, m1, m2);
            let g_b1 = _mm512_add_epi64(g_b, step);
            let g1 = mix(_mm512_xor_si512(pa, g_b1), inc, m1, m2);
            let g_b2 = _mm512_add_epi64(g_b1, step);
            let g2 = mix(_mm512_xor_si512(pa, g_b2), inc, m1, m2);
            let g_b3 = _mm512_add_epi64(g_b2, step);
            let g3 = mix(_mm512_xor_si512(pa, g_b3), inc, m1, m2);
            let base = out.as_mut_ptr().add(r * stride);
            let mut i_b = _mm512_setzero_si512();
            for i in 0..n_idx {
                let h0 = row(g0, i_b, a, d2b, inc, m1, m2);
                let h1 = row(g1, i_b, a, d2b, inc, m1, m2);
                let h2 = row(g2, i_b, a, d2b, inc, m1, m2);
                let h3 = row(g3, i_b, a, d2b, inc, m1, m2);
                _mm512_storeu_si512(base.add(i * LANES) as *mut _, h0);
                _mm512_storeu_si512(base.add(stride + i * LANES) as *mut _, h1);
                _mm512_storeu_si512(base.add(2 * stride + i * LANES) as *mut _, h2);
                _mm512_storeu_si512(base.add(3 * stride + i * LANES) as *mut _, h3);
                i_b = _mm512_add_epi64(i_b, b);
            }
            g_b = _mm512_add_epi64(g_b3, step);
            r += 4;
        }
        while r < rounds {
            let g = mix(_mm512_xor_si512(pa, g_b), inc, m1, m2);
            let base = out.as_mut_ptr().add(r * stride);
            let mut i_b = _mm512_setzero_si512();
            for i in 0..n_idx {
                let h = row(g, i_b, a, d2b, inc, m1, m2);
                _mm512_storeu_si512(base.add(i * LANES) as *mut _, h);
                i_b = _mm512_add_epi64(i_b, b);
            }
            g_b = _mm512_add_epi64(g_b, step);
            r += 1;
        }
    }
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
use x86::{draw_hashes_avx512, draw_strip_avx512};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash;

    /// The readable specification of what a kernel must compute.
    fn reference(gkey: u64, i: u64) -> u64 {
        hash::combine(
            hash::combine(hash::combine(hash::combine(gkey, i), 0), 0),
            0xD2,
        )
    }

    #[test]
    fn parse_and_names_round_trip() {
        for k in Kernel::ALL {
            assert_eq!(Kernel::parse(k.name()), Some(k));
            assert_eq!(Kernel::parse(&k.name().to_uppercase()), Some(k));
            assert_eq!(Kernel::from_u8(k as u8), Some(k));
        }
        assert_eq!(Kernel::parse("neon"), None);
        // Only the two kernels parse; any other name is unknown.
        assert_eq!(Kernel::parse("sse2"), None);
        assert_eq!(Kernel::parse("avx2"), None);
        assert_eq!(Kernel::parse(""), None);
    }

    #[test]
    fn detect_is_supported_and_active_is_stable() {
        assert!(Kernel::detect().supported());
        assert!(Kernel::Scalar.supported());
        let first = active();
        assert_eq!(active(), first, "active() must cache its selection");
    }

    #[test]
    fn hashes_match_the_scalar_combine_chain() {
        // Every supported kernel, pinned lane by lane and index by index
        // to the hash-module fold it batches. Cores are called directly
        // (not through the process-global dispatch) so this test cannot
        // race others over the ACTIVE atomic.
        let gkeys: [u64; LANES] =
            std::array::from_fn(|l| hash::combine(hash::hash_prefix(0xFA12), l as u64 * 31 + 7));
        let n_idx = 19; // odd, larger than any real scheme's n
        let mut want = vec![0u64; n_idx * LANES];
        for (i, row) in want.chunks_mut(LANES).enumerate() {
            for (l, slot) in row.iter_mut().enumerate() {
                *slot = reference(gkeys[l], i as u64);
            }
        }
        for k in Kernel::ALL.into_iter().filter(|k| k.supported()) {
            let mut got = vec![0u64; n_idx * LANES];
            k.run(&gkeys, n_idx, &mut got);
            assert_eq!(got, want, "kernel {k} diverged from the combine chain");
        }
    }

    #[test]
    fn strips_match_the_per_round_runs() {
        // `run_strip` must equal per-round `run` over scalar-folded
        // group keys on every supported kernel — including the fused
        // AVX-512 strip, whose in-register key folding is pinned here
        // against `hash::combine`.
        let prefix = hash::hash_prefix(0x2004);
        let base_group = 26_209; // crosses a non-trivial lane boundary
        let rounds = 5;
        let n_idx = 3;
        let mut want = vec![0u64; rounds * n_idx * LANES];
        for r in 0..rounds {
            for i in 0..n_idx {
                for l in 0..LANES {
                    let gkey = hash::combine(prefix, base_group + (r * LANES + l) as u64);
                    want[(r * n_idx + i) * LANES + l] = reference(gkey, i as u64);
                }
            }
        }
        for k in Kernel::ALL.into_iter().filter(|k| k.supported()) {
            let mut got = vec![0u64; rounds * n_idx * LANES];
            k.run_strip(prefix, base_group, rounds, n_idx, &mut got);
            assert_eq!(got, want, "kernel {k} strip diverged from per-round runs");
        }
    }

    #[test]
    fn engine_toggle_round_trips() {
        let initial = engine_enabled();
        let prev = set_engine_enabled(false);
        assert_eq!(prev, initial);
        assert!(!engine_enabled());
        set_engine_enabled(true);
        assert!(engine_enabled());
        set_engine_enabled(initial);
    }
}
