//! RAID-5-style single parity: the `m/(m+1)` special case with a fast
//! XOR-only data path and the incremental small-write update rule
//! (new_parity = old_parity ^ old_data ^ new_data) described in §2.2.

/// Compute the XOR parity of `m` equal-length data blocks.
pub fn parity(data: &[&[u8]]) -> Vec<u8> {
    assert!(!data.is_empty(), "parity of zero blocks");
    let len = data[0].len();
    assert!(data.iter().all(|d| d.len() == len), "ragged blocks");
    let mut out = vec![0u8; len];
    for d in data {
        xor_into(&mut out, d);
    }
    out
}

/// `dst ^= src` element-wise, through the runtime-selected region kernel.
pub fn xor_into(dst: &mut [u8], src: &[u8]) {
    crate::gf256::xor_slice(src, dst);
}

/// RAID-5 small-write rule: update parity in place after one data block
/// changes, without touching the other blocks.
pub fn update_parity(parity: &mut [u8], old_data: &[u8], new_data: &[u8]) {
    xor_into(parity, old_data);
    xor_into(parity, new_data);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks(m: usize, len: usize) -> Vec<Vec<u8>> {
        (0..m)
            .map(|i| (0..len).map(|j| (i * 37 + j * 11 + 5) as u8).collect())
            .collect()
    }

    #[test]
    fn parity_recovers_any_single_block() {
        let data = blocks(4, 64);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let p = parity(&refs);
        for lost in 0..4 {
            let mut survivors: Vec<&[u8]> = Vec::new();
            for (i, d) in data.iter().enumerate() {
                if i != lost {
                    survivors.push(d);
                }
            }
            survivors.push(&p);
            assert_eq!(parity(&survivors), data[lost], "lost block {lost}");
        }
    }

    #[test]
    fn parity_of_single_block_is_the_block() {
        let d = vec![1u8, 2, 3];
        assert_eq!(parity(&[&d]), d);
    }

    #[test]
    fn small_write_rule_matches_full_recompute() {
        let mut data = blocks(5, 32);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let mut p = parity(&refs);
        let old = data[2].clone();
        let new: Vec<u8> = old.iter().map(|b| b.wrapping_add(99)).collect();
        update_parity(&mut p, &old, &new);
        data[2] = new;
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        assert_eq!(p, parity(&refs));
    }

    #[test]
    fn xor_into_is_self_inverse() {
        let mut a = vec![1u8, 2, 3, 4];
        let b = vec![9u8, 8, 7, 6];
        let orig = a.clone();
        xor_into(&mut a, &b);
        xor_into(&mut a, &b);
        assert_eq!(a, orig);
    }

    #[test]
    #[should_panic]
    fn ragged_input_panics() {
        let a = vec![1u8, 2];
        let b = vec![3u8];
        let _ = parity(&[&a, &b]);
    }
}
