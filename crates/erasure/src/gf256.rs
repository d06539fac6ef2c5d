//! Arithmetic in GF(2^8), the field underlying our Reed–Solomon codes.
//!
//! We use the AES polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11d) with
//! generator 2, and compile-time log/exp tables so multiplication and
//! division are two lookups and an add mod 255.
//!
//! Whole-slice operations ([`mul_slice`], [`mul_slice_xor`]) dispatch
//! through the runtime-selected region kernel in [`kernel`] — portable
//! 64-bit or AVX2 split-table — byte-identical; set
//! `FARM_GF_KERNEL=scalar|avx2` to pin one.

pub mod kernel;

/// Reduction polynomial (x^8 + x^4 + x^3 + x^2 + 1).
pub const POLY: u16 = 0x11d;

/// Field size.
pub const ORDER: usize = 256;

const fn build_tables() -> ([u8; 512], [u8; 256]) {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLY;
        }
        i += 1;
    }
    // Duplicate the exp table so exp[log a + log b] needs no mod.
    let mut j = 255;
    while j < 512 {
        exp[j] = exp[j - 255];
        j += 1;
    }
    (exp, log)
}

const TABLES: ([u8; 512], [u8; 256]) = build_tables();
/// exp[i] = g^i for i in 0..510 (doubled to skip a modulo).
pub const EXP: [u8; 512] = TABLES.0;
/// log[x] = discrete log of x (log[0] is unused and zero).
pub const LOG: [u8; 256] = TABLES.1;

/// Addition in GF(2^8) is XOR.
#[inline(always)]
pub fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Subtraction equals addition in characteristic 2.
#[inline(always)]
pub fn sub(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Multiplication via log/exp tables.
#[inline(always)]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
    }
}

/// Division; panics on division by zero.
#[inline(always)]
pub fn div(a: u8, b: u8) -> u8 {
    assert!(b != 0, "GF(256) division by zero");
    if a == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + 255 - LOG[b as usize] as usize]
    }
}

/// Multiplicative inverse; panics on zero.
#[inline(always)]
pub fn inv(a: u8) -> u8 {
    assert!(a != 0, "GF(256) inverse of zero");
    EXP[255 - LOG[a as usize] as usize]
}

/// Exponentiation `a^n`.
pub fn pow(a: u8, n: u64) -> u8 {
    if n == 0 {
        return 1;
    }
    if a == 0 {
        return 0;
    }
    let l = LOG[a as usize] as u64;
    EXP[((l * n) % 255) as usize]
}

/// The canonical generator element (2).
pub const GENERATOR: u8 = 2;

/// Multiply a slice by a constant, accumulating into `dst` with XOR:
/// `dst[i] ^= c * src[i]`. This is the inner loop of encode/decode,
/// dispatched through the runtime-selected region kernel.
pub fn mul_slice_xor(c: u8, src: &[u8], dst: &mut [u8]) {
    kernel::mul_slice_xor(kernel::active(), c, src, dst)
}

/// Multiply a slice by a constant in place: `buf[i] = c * buf[i]`,
/// dispatched through the runtime-selected region kernel.
pub fn mul_slice(c: u8, buf: &mut [u8]) {
    kernel::mul_slice(kernel::active(), c, buf)
}

/// `dst[i] ^= src[i]` — XOR-parity accumulation, dispatched through the
/// runtime-selected region kernel.
pub fn xor_slice(src: &[u8], dst: &mut [u8]) {
    kernel::xor_slice(kernel::active(), src, dst)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference bitwise ("Russian peasant") multiplication.
    fn slow_mul(mut a: u8, mut b: u8) -> u8 {
        let mut p = 0u8;
        while b != 0 {
            if b & 1 != 0 {
                p ^= a;
            }
            let hi = a & 0x80 != 0;
            a <<= 1;
            if hi {
                a ^= (POLY & 0xff) as u8;
            }
            b >>= 1;
        }
        p
    }

    #[test]
    fn tables_match_bitwise_multiplication() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(mul(a, b), slow_mul(a, b), "{a} * {b}");
            }
        }
    }

    #[test]
    fn field_axioms_hold() {
        for a in 0..=255u8 {
            assert_eq!(mul(a, 1), a, "1 is multiplicative identity");
            assert_eq!(mul(a, 0), 0);
            assert_eq!(add(a, a), 0, "characteristic 2");
            if a != 0 {
                assert_eq!(mul(a, inv(a)), 1, "inverse of {a}");
                assert_eq!(div(a, a), 1);
            }
        }
    }

    #[test]
    fn multiplication_is_commutative_and_associative() {
        // Spot-check associativity over a grid (full cube is 16M cases).
        for a in (0..=255u8).step_by(17) {
            for b in (0..=255u8).step_by(13) {
                assert_eq!(mul(a, b), mul(b, a));
                for c in (0..=255u8).step_by(29) {
                    assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
                }
            }
        }
    }

    #[test]
    fn distributivity() {
        for a in (0..=255u8).step_by(7) {
            for b in (0..=255u8).step_by(11) {
                for c in (0..=255u8).step_by(19) {
                    assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
                }
            }
        }
    }

    #[test]
    fn generator_has_full_order() {
        // g^i must cycle through all 255 nonzero elements.
        let mut seen = [false; 256];
        let mut x = 1u8;
        for _ in 0..255 {
            assert!(!seen[x as usize], "generator order < 255");
            seen[x as usize] = true;
            x = mul(x, GENERATOR);
        }
        assert_eq!(x, 1, "g^255 must equal 1");
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        for a in [0u8, 1, 2, 3, 97, 255] {
            let mut acc = 1u8;
            for n in 0..20u64 {
                assert_eq!(pow(a, n), acc, "{a}^{n}");
                acc = mul(acc, a);
            }
        }
        assert_eq!(pow(0, 0), 1, "0^0 = 1 by convention");
    }

    #[test]
    fn div_is_mul_by_inverse() {
        for a in (0..=255u8).step_by(3) {
            for b in (1..=255u8).step_by(5) {
                assert_eq!(div(a, b), mul(a, inv(b)));
            }
        }
    }

    #[test]
    #[should_panic]
    fn div_by_zero_panics() {
        let _ = div(3, 0);
    }

    #[test]
    #[should_panic]
    fn inv_of_zero_panics() {
        let _ = inv(0);
    }

    #[test]
    fn mul_slice_xor_accumulates() {
        let src = [1u8, 2, 3, 255];
        let mut dst = [9u8, 9, 9, 9];
        mul_slice_xor(7, &src, &mut dst);
        for i in 0..4 {
            assert_eq!(dst[i], 9 ^ mul(7, src[i]));
        }
    }

    #[test]
    fn mul_slice_xor_constant_zero_is_noop() {
        let src = [1u8, 2, 3];
        let mut dst = [4u8, 5, 6];
        mul_slice_xor(0, &src, &mut dst);
        assert_eq!(dst, [4, 5, 6]);
    }

    #[test]
    fn mul_slice_matches_scalar() {
        let mut buf = [0u8, 1, 2, 128, 255];
        let orig = buf;
        mul_slice(11, &mut buf);
        for i in 0..buf.len() {
            assert_eq!(buf[i], mul(11, orig[i]));
        }
        mul_slice(0, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }
}
