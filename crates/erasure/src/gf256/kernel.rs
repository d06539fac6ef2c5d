//! Runtime-dispatched region kernels for GF(2^8) slice operations.
//!
//! The per-byte log/exp loop in [`super::mul_slice_xor`] caps byte-level
//! recovery experiments at toy sizes. This module supplies two
//! interchangeable "region" kernels, byte-identical for every constant
//! and length:
//!
//! * **scalar** — a portable 64-bit fallback: eight field elements packed
//!   in a `u64` and multiplied with carry-less shift-and-reduce steps
//!   (`xtime` across all lanes at once), no lookups in the main loop.
//! * **avx2** — Plank's split-table technique: two 16-entry tables hold
//!   `c * low_nibble` and `c * high_nibble`, broadcast to both 128-bit
//!   lanes of a 256-bit register; one `vpshufb` per table plus an XOR
//!   multiplies 32 bytes per iteration.
//!
//! The kernel is chosen once per process from `std::arch` runtime feature
//! detection, overridable via `FARM_GF_KERNEL=scalar|avx2` (an
//! unsupported or unrecognized value logs a notice to stderr and falls
//! back to auto-detection). All kernels compute the exact same field
//! arithmetic, so the choice can never change simulation results — only
//! throughput.
//!
//! Safety argument for the `unsafe` blocks (see also DESIGN §14): the
//! region cores take raw `(src, dst, len)` pointers so the in-place
//! `mul_slice` can alias them legally. Every core requires `src` and
//! `dst` to each point at `len` readable/writable bytes and to be either
//! identical or non-overlapping; the safe wrappers derive them from
//! slices (`&`/`&mut` rules out partial overlap). Each intrinsic is
//! covered by its enclosing function's `#[target_feature]` attribute,
//! and those functions are only reached through [`Kernel::Avx2`] values
//! produced after `is_x86_feature_detected!` confirmed the ISA (or by
//! [`set_active`], which asserts support). All vector loads/stores are
//! the unaligned variants (`loadu`/`storeu`), in bounds because the loop
//! reserves a full vector before each access; trailing bytes take the
//! per-byte path.

use std::sync::atomic::{AtomicU8, Ordering};

/// Bitwise ("Russian peasant") multiply, usable in const contexts to
/// build the split tables below without touching the log/exp tables.
const fn const_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80 != 0;
        a <<= 1;
        if hi {
            a ^= (super::POLY & 0xff) as u8;
        }
        b >>= 1;
    }
    p
}

const fn build_split_tables() -> ([[u8; 16]; 256], [[u8; 16]; 256]) {
    let mut lo = [[0u8; 16]; 256];
    let mut hi = [[0u8; 16]; 256];
    let mut c = 0usize;
    while c < 256 {
        let mut x = 0usize;
        while x < 16 {
            lo[c][x] = const_mul(c as u8, x as u8);
            hi[c][x] = const_mul(c as u8, (x << 4) as u8);
            x += 1;
        }
        c += 1;
    }
    (lo, hi)
}

const SPLIT: ([[u8; 16]; 256], [[u8; 16]; 256]) = build_split_tables();
/// `MUL_LO[c][x] = c * x` for `x < 16` (the low-nibble products).
pub const MUL_LO: [[u8; 16]; 256] = SPLIT.0;
/// `MUL_HI[c][x] = c * (x << 4)` (the high-nibble products).
pub const MUL_HI: [[u8; 16]; 256] = SPLIT.1;

/// One of the interchangeable GF(2^8) region kernels.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Kernel {
    /// Portable 64-bit shift-and-reduce fallback. Always supported.
    Scalar = 0,
    /// 256-bit split-table `vpshufb` kernel (x86-64 with AVX2).
    Avx2 = 1,
}

impl Kernel {
    /// Every kernel this build knows about, fastest last.
    pub const ALL: [Kernel; 2] = [Kernel::Scalar, Kernel::Avx2];

    /// The `FARM_GF_KERNEL` spelling of this kernel.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Avx2 => "avx2",
        }
    }

    /// Parse a `FARM_GF_KERNEL` value.
    pub fn parse(s: &str) -> Option<Kernel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Kernel::Scalar),
            "avx2" => Some(Kernel::Avx2),
            _ => None,
        }
    }

    /// Whether this CPU can run the kernel.
    pub fn supported(self) -> bool {
        match self {
            Kernel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The fastest supported kernel on this CPU.
    pub fn detect() -> Kernel {
        if Kernel::Avx2.supported() {
            Kernel::Avx2
        } else {
            Kernel::Scalar
        }
    }

    /// What [`active`] would select on a fresh process: the parsed,
    /// supported `FARM_GF_KERNEL` value, else the auto-detected best.
    /// Pure with respect to the process-wide cache; unlike [`active`] it
    /// re-reads the environment on every call.
    pub fn from_env() -> Kernel {
        match std::env::var("FARM_GF_KERNEL") {
            Ok(v) => match Kernel::parse(&v) {
                Some(k) if k.supported() => k,
                Some(k) => {
                    let fallback = Kernel::detect();
                    eprintln!(
                        "farm-erasure: FARM_GF_KERNEL={} is not supported on this CPU; \
                         falling back to {}",
                        k.name(),
                        fallback.name()
                    );
                    fallback
                }
                None => {
                    let fallback = Kernel::detect();
                    eprintln!(
                        "farm-erasure: unrecognized FARM_GF_KERNEL value {v:?} \
                         (expected scalar|avx2); using {}",
                        fallback.name()
                    );
                    fallback
                }
            },
            Err(_) => Kernel::detect(),
        }
    }

    fn from_u8(v: u8) -> Kernel {
        match v {
            0 => Kernel::Scalar,
            1 => Kernel::Avx2,
            _ => unreachable!("corrupt kernel id {v}"),
        }
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

const UNSELECTED: u8 = u8::MAX;
static ACTIVE: AtomicU8 = AtomicU8::new(UNSELECTED);

/// The process-wide kernel: selected once on first use from
/// [`Kernel::from_env`], then cached. Every kernel computes identical
/// bytes, so a racing first call is harmless — both sides resolve to the
/// same value.
#[inline]
pub fn active() -> Kernel {
    match ACTIVE.load(Ordering::Relaxed) {
        UNSELECTED => {
            let k = Kernel::from_env();
            ACTIVE.store(k as u8, Ordering::Relaxed);
            k
        }
        v => Kernel::from_u8(v),
    }
}

/// Override the process-wide kernel (tests and benchmarks). Panics if
/// the requested kernel is unsupported on this CPU. Returns the kernel
/// that was active before.
pub fn set_active(k: Kernel) -> Kernel {
    assert!(k.supported(), "kernel {k} not supported on this CPU");
    let prev = active();
    ACTIVE.store(k as u8, Ordering::Relaxed);
    prev
}

// ---------------------------------------------------------------------
// Dispatch layer. The `c == 0` / `c == 1` constants short-circuit here
// so the kernels proper only ever see genuine multiplies.
// ---------------------------------------------------------------------

/// `dst[i] ^= c * src[i]` through kernel `k`.
pub fn mul_slice_xor(k: Kernel, c: u8, src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "shard length mismatch");
    match c {
        0 => {}
        1 => xor_slice(k, src, dst),
        // SAFETY: src/dst are distinct live slices of equal length.
        _ => unsafe { mul_region(k, true, c, src.as_ptr(), dst.as_mut_ptr(), dst.len()) },
    }
}

/// `buf[i] = c * buf[i]` through kernel `k`.
pub fn mul_slice(k: Kernel, c: u8, buf: &mut [u8]) {
    match c {
        0 => buf.fill(0),
        1 => {}
        // SAFETY: src == dst is the aliasing case the cores permit (each
        // position is read before it is written).
        _ => unsafe { mul_region(k, false, c, buf.as_ptr(), buf.as_mut_ptr(), buf.len()) },
    }
}

/// `dst[i] ^= src[i]` through kernel `k` — the parity/mirror fast path.
pub fn xor_slice(k: Kernel, src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "length mismatch");
    match k {
        Kernel::Scalar => xor_region_scalar(src, dst),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an Avx2 kernel value proves detection succeeded.
        Kernel::Avx2 => unsafe { xor_region_avx2(src, dst) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => xor_region_scalar(src, dst),
    }
}

/// Dispatch one multiply-region call. `xor` selects accumulate vs store.
///
/// # Safety
/// `src` and `dst` must each cover `n` bytes and be identical or
/// non-overlapping; SIMD kernels additionally require their ISA, which
/// holds for any `Kernel` value obtained from detection (see above).
unsafe fn mul_region(k: Kernel, xor: bool, c: u8, src: *const u8, dst: *mut u8, n: usize) {
    match (k, xor) {
        (Kernel::Scalar, true) => mul_region_scalar::<true>(c, src, dst, n),
        (Kernel::Scalar, false) => mul_region_scalar::<false>(c, src, dst, n),
        #[cfg(target_arch = "x86_64")]
        (Kernel::Avx2, true) => mul_region_avx2::<true>(c, src, dst, n),
        #[cfg(target_arch = "x86_64")]
        (Kernel::Avx2, false) => mul_region_avx2::<false>(c, src, dst, n),
        #[cfg(not(target_arch = "x86_64"))]
        (_, true) => mul_region_scalar::<true>(c, src, dst, n),
        #[cfg(not(target_arch = "x86_64"))]
        (_, false) => mul_region_scalar::<false>(c, src, dst, n),
    }
}

// ---------------------------------------------------------------------
// Portable scalar kernel: u64 lanes.
// ---------------------------------------------------------------------

/// Multiply all eight bytes of `x` by `c` at once: accumulate `x` for
/// each set bit of `c`, doubling `x` (`xtime`) between bits. Doubling in
/// GF(2^8) is a left shift with conditional reduction by 0x1d; the
/// `(hi >> 7) * 0x1d` trick turns each lane's carried-out top bit into
/// the reduction byte without crossing lanes (0x01 * 0x1d fits a byte).
#[inline]
fn mul_word(c: u8, mut x: u64) -> u64 {
    let mut acc = 0u64;
    let mut bits = c;
    loop {
        if bits & 1 != 0 {
            acc ^= x;
        }
        bits >>= 1;
        if bits == 0 {
            return acc;
        }
        let hi = x & 0x8080_8080_8080_8080;
        x = ((x & 0x7f7f_7f7f_7f7f_7f7f) << 1) ^ (hi >> 7).wrapping_mul(0x1d);
    }
}

/// Per-byte split-table multiply for region tails (branch-free, two
/// 16-entry cache-resident lookups per byte).
///
/// # Safety
/// `src`/`dst` cover `n` bytes, identical or non-overlapping.
#[inline]
unsafe fn mul_tail<const XOR: bool>(c: u8, src: *const u8, dst: *mut u8, n: usize) {
    let lo = &MUL_LO[c as usize];
    let hi = &MUL_HI[c as usize];
    for j in 0..n {
        let s = *src.add(j);
        let p = lo[(s & 0x0f) as usize] ^ hi[(s >> 4) as usize];
        let d = dst.add(j);
        if XOR {
            *d ^= p;
        } else {
            *d = p;
        }
    }
}

/// # Safety
/// `src`/`dst` cover `n` bytes, identical or non-overlapping.
unsafe fn mul_region_scalar<const XOR: bool>(c: u8, src: *const u8, dst: *mut u8, n: usize) {
    let words = n / 8;
    for w in 0..words {
        let p = mul_word(c, src.add(w * 8).cast::<u64>().read_unaligned());
        let d = dst.add(w * 8).cast::<u64>();
        let out = if XOR { d.read_unaligned() ^ p } else { p };
        d.write_unaligned(out);
    }
    mul_tail::<XOR>(c, src.add(words * 8), dst.add(words * 8), n % 8);
}

fn xor_region_scalar(src: &[u8], dst: &mut [u8]) {
    let mut s = src.chunks_exact(8);
    let mut d = dst.chunks_exact_mut(8);
    for (sw, dw) in (&mut s).zip(&mut d) {
        let out = u64::from_ne_bytes(dw[..].try_into().expect("8-byte chunk"))
            ^ u64::from_ne_bytes(sw.try_into().expect("8-byte chunk"));
        dw.copy_from_slice(&out.to_ne_bytes());
    }
    for (db, sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *db ^= sb;
    }
}

// ---------------------------------------------------------------------
// x86-64 SIMD kernels.
// ---------------------------------------------------------------------

/// # Safety
/// AVX2 must be supported; `src`/`dst` cover `n` bytes, identical or
/// non-overlapping (see module docs).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mul_region_avx2<const XOR: bool>(c: u8, src: *const u8, dst: *mut u8, n: usize) {
    use std::arch::x86_64::*;
    let lo_t = _mm256_broadcastsi128_si256(_mm_loadu_si128(
        MUL_LO[c as usize].as_ptr() as *const __m128i
    ));
    let hi_t = _mm256_broadcastsi128_si256(_mm_loadu_si128(
        MUL_HI[c as usize].as_ptr() as *const __m128i
    ));
    let mask = _mm256_set1_epi8(0x0f);
    let mut i = 0usize;
    while i + 32 <= n {
        let s = _mm256_loadu_si256(src.add(i) as *const __m256i);
        let lo = _mm256_and_si256(s, mask);
        let hi = _mm256_and_si256(_mm256_srli_epi64(s, 4), mask);
        let mut p = _mm256_xor_si256(_mm256_shuffle_epi8(lo_t, lo), _mm256_shuffle_epi8(hi_t, hi));
        if XOR {
            p = _mm256_xor_si256(p, _mm256_loadu_si256(dst.add(i) as *const __m256i));
        }
        _mm256_storeu_si256(dst.add(i) as *mut __m256i, p);
        i += 32;
    }
    mul_tail::<XOR>(c, src.add(i), dst.add(i), n - i);
}

/// # Safety
/// AVX2 must be supported (see module docs).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn xor_region_avx2(src: &[u8], dst: &mut [u8]) {
    use std::arch::x86_64::*;
    let n = src.len();
    let mut i = 0usize;
    while i + 32 <= n {
        let s = _mm256_loadu_si256(src.as_ptr().add(i) as *const __m256i);
        let d = _mm256_loadu_si256(dst.as_ptr().add(i) as *const __m256i);
        _mm256_storeu_si256(
            dst.as_mut_ptr().add(i) as *mut __m256i,
            _mm256_xor_si256(d, s),
        );
        i += 32;
    }
    for (db, sb) in dst[i..].iter_mut().zip(&src[i..]) {
        *db ^= sb;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gf256;

    fn supported() -> Vec<Kernel> {
        Kernel::ALL.into_iter().filter(|k| k.supported()).collect()
    }

    #[test]
    fn split_tables_match_mul() {
        for c in 0..=255u8 {
            for x in 0..16u8 {
                assert_eq!(MUL_LO[c as usize][x as usize], gf256::mul(c, x));
                assert_eq!(MUL_HI[c as usize][x as usize], gf256::mul(c, x << 4));
            }
        }
    }

    #[test]
    fn mul_word_matches_per_byte_mul() {
        let mut x = 0x0123_4567_89ab_cdefu64;
        for c in 0..=255u8 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(c as u64);
            let got = mul_word(c, x).to_ne_bytes();
            for (i, b) in x.to_ne_bytes().into_iter().enumerate() {
                assert_eq!(got[i], gf256::mul(c, b), "c={c} byte {i}");
            }
        }
    }

    /// Every kernel × every constant × lengths that exercise the head,
    /// the vector body, and the tail, at unaligned offsets.
    #[test]
    fn kernels_match_scalar_mul_exhaustively() {
        let kernels = supported();
        // A buffer long enough for two AVX2 iterations plus a ragged tail,
        // sliced at offsets 0..8 to hit every alignment class.
        let base: Vec<u8> = (0..96u16).map(|i| (i * 37 + 11) as u8).collect();
        for c in 0..=255u8 {
            for off in 0..8usize {
                for len in [0usize, 1, 7, 15, 16, 17, 31, 32, 33, 63, 64, 80] {
                    let src = &base[off..off + len];
                    let expect: Vec<u8> = src.iter().map(|&s| gf256::mul(c, s)).collect();
                    for &k in &kernels {
                        let mut dst = vec![0xA5u8; len];
                        let want: Vec<u8> = expect.iter().zip(&dst).map(|(e, d)| e ^ d).collect();
                        mul_slice_xor(k, c, src, &mut dst);
                        assert_eq!(dst, want, "xor kernel={k} c={c} off={off} len={len}");

                        let mut buf = src.to_vec();
                        mul_slice(k, c, &mut buf);
                        assert_eq!(buf, expect, "inplace kernel={k} c={c} off={off} len={len}");
                    }
                }
            }
        }
    }

    #[test]
    fn xor_slice_matches_reference() {
        for &k in &supported() {
            for len in [0usize, 1, 7, 8, 15, 16, 17, 33, 64, 100] {
                let a: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
                let mut b: Vec<u8> = (0..len).map(|i| (i * 13 + 1) as u8).collect();
                let want: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
                xor_slice(k, &a, &mut b);
                assert_eq!(b, want, "kernel={k} len={len}");
            }
        }
    }

    #[test]
    fn parse_and_names_round_trip() {
        for k in Kernel::ALL {
            assert_eq!(Kernel::parse(k.name()), Some(k));
        }
        assert_eq!(Kernel::parse("AVX2"), Some(Kernel::Avx2));
        assert_eq!(Kernel::parse(" scalar "), Some(Kernel::Scalar));
        assert_eq!(Kernel::parse("neon"), None);
    }

    #[test]
    fn detect_is_supported_and_active_is_stable() {
        assert!(Kernel::detect().supported());
        let first = active();
        assert!(first.supported());
        assert_eq!(active(), first, "selection is cached");
    }
}
