//! Differential property tests: the packed two-plane kernels must agree
//! bit-for-bit with the retained scalar reference implementations —
//! including widths that are not multiples of 64, all-X rows, and
//! fully-specified rows.

use dpfill_cubes::gen::random_cube_set;
use dpfill_cubes::packed::{PackedBits, PackedCubeSet};
use dpfill_cubes::stretch::StretchStats;
use dpfill_cubes::{
    hamming_distance, peak_toggles, toggle_profile, total_toggles, Bit, CubeSet, TestCube,
};
use dpfill_oracle::{
    hamming_distance_scalar, peak_toggles_scalar, pin_matrix_scalar, stretch_stats_scalar,
    toggle_profile_scalar, total_toggles_scalar, StretchTally,
};
use proptest::prelude::*;

fn arb_bit() -> impl Strategy<Value = Bit> {
    prop_oneof![
        1 => Just(Bit::Zero),
        1 => Just(Bit::One),
        2 => Just(Bit::X),
    ]
}

/// Widths deliberately straddling the word boundary: 1..=200 covers
/// sub-word, exact-word (64, 128) and multi-word shapes.
fn arb_cube_set() -> impl Strategy<Value = CubeSet> {
    (1usize..=200, 1usize..=12).prop_flat_map(|(width, count)| {
        proptest::collection::vec(proptest::collection::vec(arb_bit(), width), count).prop_map(
            |rows| {
                CubeSet::from_cubes(rows.into_iter().map(TestCube::new)).expect("uniform widths")
            },
        )
    })
}

/// Fig. 2(c)'s shapes: widths 1–300 with the word edges 63, 64, 65 and
/// 128 drawn often, 0–90 cubes, and X densities from fully specified (0)
/// through all-X (1), as `(set, density)`.
fn arb_stretch_set() -> impl Strategy<Value = (CubeSet, f64)> {
    let width = (0usize..8, 1usize..=300)
        .prop_map(|(edge, w)| [63, 64, 65, 128].get(edge).map_or(w, |&e| e));
    let density = (0u32..=13).prop_map(|k| match k {
        0 | 1 => 0.0,
        2 | 3 => 1.0,
        k => f64::from(k - 3) / 10.0,
    });
    (width, 0usize..=90, density, 0u64..u64::MAX).prop_map(|(width, count, density, seed)| {
        (random_cube_set(width, count, density, seed), density)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hamming_packed_equals_scalar(set in arb_cube_set()) {
        for i in 1..set.len() {
            let (a, b) = (set.cube(i - 1), set.cube(i));
            prop_assert_eq!(hamming_distance(&a, &b), hamming_distance_scalar(&a, &b));
        }
        // Packed-native operands agree too.
        let packed = PackedCubeSet::from(&set);
        for i in 1..set.len() {
            prop_assert_eq!(
                packed.cube(i - 1).hamming(packed.cube(i)),
                hamming_distance_scalar(&set.cube(i - 1), &set.cube(i))
            );
        }
    }

    #[test]
    fn toggle_kernels_packed_equal_scalar(set in arb_cube_set()) {
        prop_assert_eq!(
            toggle_profile(&set).unwrap(),
            toggle_profile_scalar(&set).unwrap()
        );
        prop_assert_eq!(
            peak_toggles(&set).unwrap(),
            peak_toggles_scalar(&set).unwrap()
        );
        prop_assert_eq!(
            total_toggles(&set).unwrap(),
            total_toggles_scalar(&set).unwrap()
        );
        let packed = PackedCubeSet::from(&set);
        prop_assert_eq!(packed.toggle_profile(), toggle_profile_scalar(&set).unwrap());
    }

    /// One pin over up to 199 cubes: the cube-major tally classifies
    /// the row's stretches (long ones past a word of cubes included)
    /// exactly as the scalar classifier does.
    #[test]
    fn stretch_classification_packed_equals_scalar(row in proptest::collection::vec(arb_bit(), 1..200)) {
        let set = CubeSet::from_cubes(row.iter().map(|&b| TestCube::new(vec![b])))
            .expect("uniform widths");
        prop_assert_eq!(
            StretchTally::from(&StretchStats::of_cubes(set.as_packed())),
            stretch_stats_scalar(&pin_matrix_scalar(&set))
        );
    }

    /// The cube-major Fig. 2(c) tally equals the scalar pin-major one,
    /// field by field, at 1, 2 and 8 threads.
    #[test]
    fn stretch_stats_packed_equal_scalar((set, density) in arb_stretch_set()) {
        let scalar = stretch_stats_scalar(&pin_matrix_scalar(&set));
        for threads in [1usize, 2, 8] {
            let pool = minipool::ThreadPool::new(threads);
            let packed = minipool::with_pool(&pool, || StretchStats::of_cubes(set.as_packed()));
            prop_assert_eq!(
                StretchTally::from(&packed),
                scalar.clone(),
                "{}x{} at density {} on {} threads",
                set.width(),
                set.len(),
                density,
                threads
            );
        }
    }

    #[test]
    fn packed_bits_round_trip(row in proptest::collection::vec(arb_bit(), 0..200)) {
        let packed = PackedBits::from_bits(&row);
        prop_assert_eq!(packed.to_bits(), row.clone());
        prop_assert_eq!(packed.len(), row.len());
        prop_assert_eq!(
            packed.x_count(),
            row.iter().filter(|b| b.is_x()).count()
        );
        for (i, &b) in row.iter().enumerate() {
            prop_assert_eq!(packed.get(i), b);
        }
    }
}

/// Deterministic seeded sweeps over the shapes the proptest generator is
/// unlikely to hit: exact word multiples, all-X and zero-X densities.
#[test]
fn seeded_edge_shape_sweep() {
    for &width in &[1usize, 63, 64, 65, 127, 128, 129, 192] {
        for &density in &[0.0, 0.5, 1.0] {
            let seed = width as u64 * 31 + (density * 10.0) as u64;
            let set = random_cube_set(width, 9, density, seed);
            assert_eq!(
                toggle_profile(&set).unwrap(),
                toggle_profile_scalar(&set).unwrap(),
                "width {width} density {density}"
            );
            assert_eq!(
                StretchTally::from(&StretchStats::of_cubes(set.as_packed())),
                stretch_stats_scalar(&pin_matrix_scalar(&set)),
                "width {width} density {density}"
            );
        }
    }
}

/// An all-X cube set exercises the AllX stretch path and constant fill
/// conventions end to end.
#[test]
fn all_x_rows_classified_and_counted() {
    let set = random_cube_set(130, 7, 1.0, 3);
    assert_eq!(set.x_count(), 130 * 7);
    assert_eq!(peak_toggles(&set).unwrap(), 0);
    assert_eq!(peak_toggles_scalar(&set).unwrap(), 0);
    let stats = StretchStats::of_cubes(set.as_packed());
    assert_eq!(stats.total_stretches(), 130);
    assert_eq!(stats.max_len(), 7);
    assert_eq!(stats.transition_stretches(), 0);
}
