//! Systematic Reed–Solomon erasure coding over GF(2^8).
//!
//! An *m/n* code (the paper's notation: `n = m + k`) stores `m` data
//! shards plus `k = n - m` parity shards; the group survives the loss of
//! any `k` shards and can reconstruct every lost shard from any `m`
//! survivors — exactly the "m-availability" the paper requires of a good
//! ECC (§2.2).
//!
//! The generator matrix is Vandermonde-derived and made *systematic*
//! (top m×m block = identity) so data shards are stored verbatim.

use crate::gf256;
use crate::matrix::Matrix;

/// Errors surfaced by encode/reconstruct.
#[derive(Debug, PartialEq, Eq)]
pub enum CodeError {
    /// Fewer than `m` shards present — data is unrecoverable.
    TooFewShards { present: usize, needed: usize },
    /// Shards disagree in length or are empty.
    ShapeMismatch,
    /// Wrong number of shards passed for this code.
    WrongShardCount { got: usize, expected: usize },
}

impl std::fmt::Display for CodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodeError::TooFewShards { present, needed } => write!(
                f,
                "unrecoverable: {present} shards present, {needed} needed"
            ),
            CodeError::ShapeMismatch => write!(f, "shards differ in length or are empty"),
            CodeError::WrongShardCount { got, expected } => {
                write!(f, "expected {expected} shards, got {got}")
            }
        }
    }
}

impl std::error::Error for CodeError {}

/// A systematic Reed–Solomon code with `m` data shards and `n` total.
#[derive(Clone)]
pub struct ReedSolomon {
    m: usize,
    n: usize,
    /// n×m generator; rows 0..m form the identity.
    generator: Matrix,
}

impl ReedSolomon {
    /// Build an m/n code. Requires `0 < m <= n <= 255`.
    pub fn new(m: usize, n: usize) -> Self {
        assert!(m > 0 && m <= n && n <= 255, "invalid RS parameters {m}/{n}");
        // Vandermonde rows are independent in any m-subset; multiplying by
        // the inverse of the top square block keeps that property while
        // making the code systematic.
        let v = Matrix::vandermonde(n, m);
        let top = v.select_rows(&(0..m).collect::<Vec<_>>());
        let top_inv = top
            .inverse()
            .expect("top Vandermonde block is always invertible");
        let generator = v.mul(&top_inv);
        ReedSolomon { m, n, generator }
    }

    pub fn parity_shards(&self) -> usize {
        self.n - self.m
    }

    /// Compute the `k` parity shards for `m` equal-length data shards.
    pub fn encode(&self, data: &[&[u8]]) -> Result<Vec<Vec<u8>>, CodeError> {
        if data.len() != self.m {
            return Err(CodeError::WrongShardCount {
                got: data.len(),
                expected: self.m,
            });
        }
        let len = data[0].len();
        if len == 0 || data.iter().any(|d| d.len() != len) {
            return Err(CodeError::ShapeMismatch);
        }
        // One kernel lookup for the whole encode, not one per shard pair.
        let k = gf256::kernel::active();
        let mut parity = vec![vec![0u8; len]; self.parity_shards()];
        for (p, out) in parity.iter_mut().enumerate() {
            let grow = self.generator.row(self.m + p);
            for (j, shard) in data.iter().enumerate() {
                gf256::kernel::mul_slice_xor(k, grow[j], shard, out);
            }
        }
        Ok(parity)
    }

    /// Reconstruct every missing shard (`None` entries) in place.
    ///
    /// `shards` must have exactly `n` entries ordered by shard index
    /// (data 0..m, then parity). At least `m` must be present.
    pub fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), CodeError> {
        reconstruct_with(shards, |s, want, out| self.decode(s, want, out))
    }

    /// Compute only the shards `want` into `out` (see [`Codec::decode`](crate::Codec::decode)).
    /// The generator rows of the first `m` survivors are inverted once;
    /// shard `w` is then the one combination `G[w] · inverse` of those
    /// survivors, so a lost parity shard never waits for lost data.
    pub fn decode(
        &self,
        shards: &[Option<&[u8]>],
        want: &[usize],
        out: &mut [&mut [u8]],
    ) -> Result<(), CodeError> {
        let present = survivors(shards, self.m, self.n, want, out)?;
        let chosen = &present[..self.m];
        let inverse = self
            .generator
            .select_rows(chosen)
            .inverse()
            .expect("any m rows of the systematic Vandermonde generator are independent");
        let coefs = self.generator.select_rows(want).mul(&inverse);
        let k = gf256::kernel::active();
        for (i, dst) in out.iter_mut().enumerate() {
            dst.fill(0);
            for (&c, &s) in coefs.row(i).iter().zip(chosen) {
                let src = &shards[s].expect("present")[..dst.len()];
                gf256::kernel::mul_slice_xor(k, c, src, dst);
            }
        }
        Ok(())
    }

    /// Verify that a full shard set is consistent with the code.
    pub fn verify(&self, shards: &[&[u8]]) -> Result<bool, CodeError> {
        if shards.len() != self.n {
            return Err(CodeError::WrongShardCount {
                got: shards.len(),
                expected: self.n,
            });
        }
        let data = &shards[..self.m];
        let parity = self.encode(data)?;
        Ok(parity
            .iter()
            .zip(&shards[self.m..])
            .all(|(a, b)| a.as_slice() == *b))
    }
}

/// Check a decode request against an m-of-`n` code; returns the present
/// shards, which must share one nonzero length no output exceeds.
pub(crate) fn survivors(
    shards: &[Option<&[u8]>],
    m: usize,
    n: usize,
    want: &[usize],
    out: &[&mut [u8]],
) -> Result<Vec<usize>, CodeError> {
    assert_eq!(want.len(), out.len(), "one output per wanted shard");
    if shards.len() != n {
        return Err(CodeError::WrongShardCount {
            got: shards.len(),
            expected: n,
        });
    }
    let present: Vec<usize> = (0..n).filter(|&i| shards[i].is_some()).collect();
    if present.len() < m {
        return Err(CodeError::TooFewShards {
            present: present.len(),
            needed: m,
        });
    }
    let len = shards[present[0]].map_or(0, <[u8]>::len);
    let ragged = shards.iter().flatten().any(|s| s.len() != len);
    if len == 0 || ragged || out.iter().any(|o| o.len() > len) {
        return Err(CodeError::ShapeMismatch);
    }
    Ok(present)
}

/// Fill every missing shard through one `decode` call: all of `reconstruct`.
pub(crate) fn reconstruct_with(
    shards: &mut [Option<Vec<u8>>],
    decode: impl FnOnce(&[Option<&[u8]>], &[usize], &mut [&mut [u8]]) -> Result<(), CodeError>,
) -> Result<(), CodeError> {
    let want: Vec<usize> = (0..shards.len()).filter(|&i| shards[i].is_none()).collect();
    let len = shards.iter().flatten().next().map_or(0, Vec::len);
    let mut rebuilt = vec![vec![0u8; len]; want.len()];
    let present: Vec<Option<&[u8]>> = shards.iter().map(Option::as_deref).collect();
    let mut out: Vec<&mut [u8]> = rebuilt.iter_mut().map(Vec::as_mut_slice).collect();
    decode(&present, &want, &mut out)?;
    for (w, shard) in want.into_iter().zip(rebuilt) {
        shards[w] = Some(shard);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_data(m: usize, len: usize, seed: u8) -> Vec<Vec<u8>> {
        (0..m)
            .map(|i| {
                (0..len)
                    .map(|j| (seed as usize + i * 31 + j * 7) as u8)
                    .collect()
            })
            .collect()
    }

    fn full_shards(rs: &ReedSolomon, data: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = rs.encode(&refs).unwrap();
        data.iter().cloned().chain(parity).collect()
    }

    #[test]
    fn encode_then_verify() {
        for (m, n) in [(1, 2), (2, 3), (4, 5), (4, 6), (8, 10), (6, 9)] {
            let rs = ReedSolomon::new(m, n);
            let data = make_data(m, 64, 3);
            let shards = full_shards(&rs, &data);
            let refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
            assert!(rs.verify(&refs).unwrap(), "{m}/{n} verify");
        }
    }

    #[test]
    fn corruption_fails_verify() {
        let rs = ReedSolomon::new(4, 6);
        let data = make_data(4, 32, 9);
        let mut shards = full_shards(&rs, &data);
        shards[2][5] ^= 0x40;
        let refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
        assert!(!rs.verify(&refs).unwrap());
    }

    #[test]
    fn reconstructs_any_tolerable_loss_pattern() {
        // Exhaustively drop every subset of up to k shards for 4/6.
        let (m, n) = (4usize, 6usize);
        let rs = ReedSolomon::new(m, n);
        let data = make_data(m, 48, 5);
        let shards = full_shards(&rs, &data);
        for mask in 0u32..(1 << n) {
            let lost = mask.count_ones() as usize;
            if lost == 0 || lost > n - m {
                continue;
            }
            let mut working: Vec<Option<Vec<u8>>> = shards
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    if mask & (1 << i) != 0 {
                        None
                    } else {
                        Some(s.clone())
                    }
                })
                .collect();
            rs.reconstruct(&mut working).expect("tolerable loss");
            for (i, s) in shards.iter().enumerate() {
                assert_eq!(
                    working[i].as_ref().expect("reconstructed"),
                    s,
                    "shard {i} mask {mask:06b}"
                );
            }
        }
    }

    #[test]
    fn exactly_m_survivors_still_reconstructs() {
        let rs = ReedSolomon::new(8, 10);
        let data = make_data(8, 16, 1);
        let shards = full_shards(&rs, &data);
        // Drop both parity-capacity's worth: shards 0 and 9.
        let mut working: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
        working[0] = None;
        working[9] = None;
        rs.reconstruct(&mut working).unwrap();
        assert_eq!(working[0].as_ref().unwrap(), &shards[0]);
        assert_eq!(working[9].as_ref().unwrap(), &shards[9]);
    }

    #[test]
    fn too_many_losses_is_an_error() {
        let rs = ReedSolomon::new(4, 6);
        let data = make_data(4, 8, 2);
        let shards = full_shards(&rs, &data);
        let mut working: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        working[0] = None;
        working[1] = None;
        working[2] = None;
        assert_eq!(
            rs.reconstruct(&mut working),
            Err(CodeError::TooFewShards {
                present: 3,
                needed: 4
            })
        );
    }

    #[test]
    fn shard_count_mismatch_is_an_error() {
        let rs = ReedSolomon::new(2, 3);
        let d0 = vec![1u8, 2];
        assert_eq!(
            rs.encode(&[&d0]),
            Err(CodeError::WrongShardCount {
                got: 1,
                expected: 2
            })
        );
        let mut bad = vec![Some(vec![1u8, 2]); 4];
        assert_eq!(
            rs.reconstruct(&mut bad),
            Err(CodeError::WrongShardCount {
                got: 4,
                expected: 3
            })
        );
    }

    #[test]
    fn ragged_shards_are_an_error() {
        let rs = ReedSolomon::new(2, 3);
        let a = vec![1u8, 2, 3];
        let b = vec![4u8, 5];
        assert_eq!(rs.encode(&[&a, &b]), Err(CodeError::ShapeMismatch));
    }

    #[test]
    fn empty_shards_are_an_error() {
        let rs = ReedSolomon::new(2, 3);
        let a: Vec<u8> = vec![];
        let b: Vec<u8> = vec![];
        assert_eq!(rs.encode(&[&a, &b]), Err(CodeError::ShapeMismatch));
    }

    #[test]
    fn single_parity_protects_like_raid5() {
        // m/(m+1) tolerates any single loss, like RAID-5. (The parity
        // symbol itself is a GF(256) combination, not necessarily the
        // literal XOR — the Codec fast path handles literal RAID-5.)
        let rs = ReedSolomon::new(4, 5);
        let data = make_data(4, 32, 7);
        let shards = full_shards(&rs, &data);
        for lost in 0..5 {
            let mut working: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
            working[lost] = None;
            rs.reconstruct(&mut working).unwrap();
            assert_eq!(working[lost].as_ref().unwrap(), &shards[lost]);
        }
    }

    #[test]
    fn mirroring_parity_copies_data() {
        // 1/n: every "parity" shard equals the data shard.
        let rs = ReedSolomon::new(1, 3);
        let d = vec![9u8, 8, 7];
        let parity = rs.encode(&[&d]).unwrap();
        assert_eq!(parity.len(), 2);
        assert_eq!(parity[0], d);
        assert_eq!(parity[1], d);
    }

    #[test]
    fn full_set_reconstruct_is_noop() {
        let rs = ReedSolomon::new(2, 4);
        let data = make_data(2, 8, 4);
        let shards = full_shards(&rs, &data);
        let mut working: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
        rs.reconstruct(&mut working).unwrap();
        for (w, s) in working.iter().zip(&shards) {
            assert_eq!(w.as_ref().unwrap(), s);
        }
    }
}
