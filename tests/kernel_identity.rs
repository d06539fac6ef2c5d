//! Cross-kernel byte-identity of the erasure pipeline.
//!
//! The GF(2^8) region kernels (scalar SWAR, AVX2) are selected at
//! runtime, so a dispatch bug would silently change simulation results
//! depending on the host CPU. This test pins the contract: `encode`,
//! `verify` and `reconstruct` must produce byte-identical output under
//! every kernel the host supports, and `decode` must match that
//! `reconstruct` for every block it is asked for.
//!
//! The CI kernel matrix runs this binary once per `FARM_GF_KERNEL`
//! value; the single test below first asserts that the startup-selected
//! kernel honours that variable, then switches kernels explicitly via
//! `set_active`. Everything lives in one `#[test]` because the active
//! kernel is process-global state — parallel test threads flipping it
//! would race.

use farm_erasure::gf256::kernel::{self, Kernel};
use farm_erasure::{ReedSolomon, Scheme};

fn make_shards(m: usize, len: usize) -> Vec<Vec<u8>> {
    (0..m)
        .map(|i| {
            (0..len)
                .map(|j| ((i * 131 + j * 29 + (j >> 3)) & 0xff) as u8)
                .collect()
        })
        .collect()
}

#[test]
fn erasure_pipeline_is_byte_identical_across_kernels() {
    // --- startup dispatch honours FARM_GF_KERNEL (the CI matrix sets
    // it; locally it is usually unset and this block is a no-op).
    let startup = kernel::active();
    if let Ok(raw) = std::env::var("FARM_GF_KERNEL") {
        if let Some(want) = Kernel::parse(&raw) {
            if want.supported() {
                assert_eq!(
                    startup, want,
                    "FARM_GF_KERNEL={raw} but startup kernel is {startup}"
                );
            } else {
                // Unsupported request must fall back to autodetection,
                // not crash — reaching this line at all proves that.
                assert_eq!(startup, Kernel::detect());
            }
        }
    }

    let supported: Vec<Kernel> = Kernel::ALL.into_iter().filter(|k| k.supported()).collect();
    assert!(supported.contains(&Kernel::Scalar));

    // Shard lengths that exercise the vector body, the SWAR word loop
    // and the per-byte tail, including lengths below one vector.
    for &len in &[1usize, 13, 64, 1000, 4096 + 7] {
        for scheme in Scheme::figure3_schemes() {
            let m = scheme.m as usize;
            let n = scheme.n as usize;
            let k_tol = scheme.fault_tolerance() as usize;
            let codec = scheme.codec();
            let data = make_shards(m, len);
            let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();

            // Reference pass under the portable scalar kernel.
            kernel::set_active(Kernel::Scalar);
            let ref_parity = codec.encode(&refs);
            let full: Vec<Vec<u8>> = data.iter().cloned().chain(ref_parity.clone()).collect();
            let mut ref_working: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
            for slot in ref_working.iter_mut().take(k_tol) {
                *slot = None;
            }
            assert!(codec.reconstruct(&mut ref_working));

            for &k in &supported {
                kernel::set_active(k);
                let parity = codec.encode(&refs);
                assert_eq!(
                    parity, ref_parity,
                    "encode differs under {k} ({scheme:?}, len {len})"
                );

                // Worst case: lose the first k_tol (data) shards.
                let mut working: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
                for slot in working.iter_mut().take(k_tol) {
                    *slot = None;
                }
                assert!(
                    codec.reconstruct(&mut working),
                    "reconstruct failed under {k} ({scheme:?}, len {len})"
                );
                for (col, (got, want)) in working.iter().zip(&ref_working).enumerate() {
                    assert_eq!(
                        got, want,
                        "reconstruct differs under {k} ({scheme:?}, len {len}, column {col})"
                    );
                }

                // Also lose a parity shard where tolerance allows it, so
                // the parity-rebuild path is covered per kernel too.
                if k_tol >= 1 && n > m {
                    let mut working: Vec<Option<Vec<u8>>> =
                        full.iter().cloned().map(Some).collect();
                    working[n - 1] = None;
                    assert!(codec.reconstruct(&mut working));
                    assert_eq!(
                        working[n - 1].as_ref().unwrap(),
                        &full[n - 1],
                        "parity rebuild differs under {k} ({scheme:?}, len {len})"
                    );
                }
            }
        }
    }

    // --- `decode` computes only the wanted blocks; under every kernel it
    // must match the scalar `reconstruct` for every tolerated loss
    // pattern: every want set at an odd short length, and the lost set
    // plus the whole group at a length with a vector body and a tail.
    for scheme in Scheme::figure3_schemes() {
        let (m, n) = (scheme.m as usize, scheme.n as usize);
        let codecs = [
            scheme.codec(),
            farm_erasure::Codec::Rs(ReedSolomon::new(m, n)),
        ];
        for codec in &codecs {
            for len in [13usize, 4096 + 7] {
                let data = make_shards(m, len);
                let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
                kernel::set_active(Kernel::Scalar);
                let full: Vec<Vec<u8>> = data.iter().cloned().chain(codec.encode(&refs)).collect();
                for lost in 1u32..1 << n {
                    if lost.count_ones() as usize > n - m {
                        continue;
                    }
                    let is_lost = |i: usize| lost & (1 << i) != 0;
                    kernel::set_active(Kernel::Scalar);
                    let mut reference: Vec<Option<Vec<u8>>> = (0..n)
                        .map(|i| (!is_lost(i)).then(|| full[i].clone()))
                        .collect();
                    assert!(codec.reconstruct(&mut reference));
                    let survivors: Vec<Option<&[u8]>> = (0..n)
                        .map(|i| (!is_lost(i)).then_some(full[i].as_slice()))
                        .collect();
                    let want_sets: Vec<Vec<usize>> = if len == 13 {
                        (1u32..1 << n)
                            .map(|w| (0..n).filter(|&i| w & (1 << i) != 0).collect())
                            .collect()
                    } else {
                        vec![(0..n).filter(|&i| is_lost(i)).collect(), (0..n).collect()]
                    };
                    for &k in &supported {
                        kernel::set_active(k);
                        for want in &want_sets {
                            let mut out = vec![vec![0u8; len]; want.len()];
                            let mut slices: Vec<&mut [u8]> =
                                out.iter_mut().map(Vec::as_mut_slice).collect();
                            codec.decode(&survivors, want, &mut slices).unwrap();
                            for (&w, got) in want.iter().zip(&out) {
                                assert_eq!(
                                    Some(got),
                                    reference[w].as_ref(),
                                    "decode differs under {k} ({scheme:?}, len {len}, lost {lost:b}, block {w})"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    // --- ReedSolomon directly: `verify` recomputes parity through the
    // kernel path, so it must accept scalar-produced parity under every
    // kernel (and reject corrupted parity).
    for &(m, n) in &[(4usize, 6usize), (8, 10), (11, 12)] {
        let rs = ReedSolomon::new(m, n);
        let data = make_shards(m, 4096 + 3);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        kernel::set_active(Kernel::Scalar);
        let parity = rs.encode(&refs).unwrap();
        for &k in &supported {
            kernel::set_active(k);
            let mut shards: Vec<&[u8]> = refs.clone();
            let parity_refs: Vec<&[u8]> = parity.iter().map(|p| p.as_slice()).collect();
            shards.extend(parity_refs);
            assert_eq!(
                rs.verify(&shards),
                Ok(true),
                "verify rejected good parity under {k} ({m}/{n})"
            );
            let mut corrupted = parity.clone();
            corrupted[0][0] ^= 0x01;
            let mut bad: Vec<&[u8]> = refs.clone();
            bad.extend(corrupted.iter().map(|p| p.as_slice()));
            assert_eq!(
                rs.verify(&bad),
                Ok(false),
                "verify accepted corrupt parity under {k} ({m}/{n})"
            );
        }
    }

    // Restore the startup selection for any later code in this process.
    kernel::set_active(startup);
}
