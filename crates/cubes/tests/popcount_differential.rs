//! Differential property tests for the popcount kernel tiers: the AVX2
//! path (when the host has it) must be bit-identical to the scalar
//! `count_ones` loop on raw word streams, on packed rows (widths not
//! divisible by 64, all-X rows) and through every whole-set sweep
//! (toggle profiles, pairwise-distance sweeps) — including empty sets,
//! with the per-bit `dpfill-oracle` walks as the reference. The same
//! suite runs in CI with `DPFILL_SIMD=scalar` forcing the portable tier,
//! so the fallback stays green on runners without AVX2.

use dpfill_cubes::popcount::PopcountKernel;
use dpfill_cubes::{toggle_profile, Bit, CubeSet, PackedBits, PackedCubeSet, TestCube};
use dpfill_oracle::{hamming_distance_scalar, toggle_profile_scalar};
use proptest::prelude::*;

const ALL_TIERS: [PopcountKernel; 2] = [PopcountKernel::Scalar, PopcountKernel::Avx2];

fn arb_bit() -> impl Strategy<Value = Bit> {
    prop_oneof![
        1 => Just(Bit::Zero),
        1 => Just(Bit::One),
        2 => Just(Bit::X),
    ]
}

/// Cube sets whose widths straddle the 64-bit word boundary and the
/// 4-word AVX2 step, with all-X rows mixed in (via `x_mask`);
/// `count` starts at 0 so the empty set is a first-class case.
fn arb_cube_set() -> impl Strategy<Value = CubeSet> {
    (1usize..=1100, 0usize..=8, 0u8..=255).prop_flat_map(|(width, count, x_mask)| {
        proptest::collection::vec(proptest::collection::vec(arb_bit(), width), count).prop_map(
            move |mut rows| {
                for (i, row) in rows.iter_mut().enumerate() {
                    if x_mask >> (i % 8) & 1 == 1 {
                        row.iter_mut().for_each(|b| *b = Bit::X); // all-X row
                    }
                }
                let mut set = CubeSet::new(rows.first().map_or(0, Vec::len));
                for row in rows {
                    set.push(TestCube::new(row)).expect("uniform widths");
                }
                set
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every tier reduces raw word streams to the same count as the
    /// scalar loop, at lengths straddling the block sizes.
    #[test]
    fn tiers_agree_on_word_streams(
        words in proptest::collection::vec(
            (0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX),
            0..80,
        )
    ) {
        let va: Vec<u64> = words.iter().map(|w| w.0).collect();
        let vb: Vec<u64> = words.iter().map(|w| w.1).collect();
        let ca: Vec<u64> = words.iter().map(|w| w.2).collect();
        let cb: Vec<u64> = words.iter().map(|w| w.3).collect();
        let reference = PopcountKernel::Scalar.masked_xor_popcount(&va, &vb, &ca, &cb);
        prop_assert_eq!(
            PopcountKernel::Avx2.masked_xor_popcount(&va, &vb, &ca, &cb),
            reference,
            "avx2 diverged on {} words",
            va.len()
        );
    }

    /// Per-pair Hamming on packed rows: every tier matches the per-bit
    /// scalar walk over the decoded cubes.
    #[test]
    fn hamming_matches_scalar_walk_on_all_tiers(set in arb_cube_set()) {
        let packed = PackedCubeSet::from(&set);
        for i in 0..set.len() {
            for j in 0..set.len() {
                let want = hamming_distance_scalar(&set.cube(i), &set.cube(j));
                for kernel in ALL_TIERS {
                    prop_assert_eq!(
                        packed.cube(i).hamming_with(kernel, packed.cube(j)),
                        want,
                        "{} on cubes {},{}",
                        kernel.label(), i, j
                    );
                }
                prop_assert_eq!(packed.cube(i).hamming(packed.cube(j)), want);
            }
        }
    }

    /// The whole-set sweeps (batched kernels, one dispatch) equal the
    /// per-pair scalar loop and the per-bit reference profile.
    #[test]
    fn whole_set_sweeps_match_per_pair_scalar(set in arb_cube_set()) {
        let packed = PackedCubeSet::from(&set);
        let per_pair: Vec<usize> = packed
            .cubes()
            .windows(2)
            .map(|w| w[0].hamming_with(PopcountKernel::Scalar, &w[1]))
            .collect();
        prop_assert_eq!(&packed.toggle_profile(), &per_pair);
        prop_assert_eq!(packed.peak_toggles(), per_pair.iter().copied().max().unwrap_or(0));
        prop_assert_eq!(packed.total_conflicts(), per_pair.iter().sum::<usize>());
        prop_assert_eq!(packed.total_toggles(), packed.total_conflicts());
        if !set.is_empty() {
            prop_assert_eq!(&toggle_profile(&set).unwrap(), &toggle_profile_scalar(&set).unwrap());
            let from = set.len() / 2;
            let sweep = packed.distances_from(from);
            let pairs: Vec<(usize, usize)> = (0..set.len()).map(|i| (from, i)).collect();
            prop_assert_eq!(&packed.hamming_pairs(&pairs), &sweep);
            for (i, &d) in sweep.iter().enumerate() {
                prop_assert_eq!(d, hamming_distance_scalar(&set.cube(from), &set.cube(i)));
            }
        }
    }
}

#[test]
fn empty_and_degenerate_shapes() {
    let empty = PackedCubeSet::new(5);
    assert!(empty.toggle_profile().is_empty());
    assert_eq!(empty.peak_toggles(), 0);
    assert_eq!(empty.total_conflicts(), 0);
    assert!(empty.hamming_pairs(&[]).is_empty());
    // Zero-width rows reduce over zero words on every tier.
    let a = PackedBits::all_x(0);
    for kernel in ALL_TIERS {
        assert_eq!(a.hamming_with(kernel, &a), 0, "{}", kernel.label());
    }
}

#[test]
fn active_kernel_selection_is_stable_and_available() {
    let active = dpfill_cubes::popcount::active_kernel();
    assert!(active.is_available());
    assert_eq!(dpfill_cubes::popcount::active_kernel(), active);
}
