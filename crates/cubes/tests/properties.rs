//! Property-based tests for the cube substrate.

use dpfill_cubes::{hamming_distance, peak_toggles, stretch::StretchStats, Bit, CubeSet, TestCube};
use dpfill_oracle::pin_matrix_scalar;
use proptest::prelude::*;

fn arb_bit() -> impl Strategy<Value = Bit> {
    prop_oneof![Just(Bit::Zero), Just(Bit::One), Just(Bit::X)]
}

fn arb_cube(width: usize) -> impl Strategy<Value = TestCube> {
    proptest::collection::vec(arb_bit(), width).prop_map(TestCube::new)
}

fn arb_cube_set() -> impl Strategy<Value = CubeSet> {
    (1usize..12, 1usize..10).prop_flat_map(|(width, count)| {
        proptest::collection::vec(arb_cube(width), count)
            .prop_map(|cubes| CubeSet::from_cubes(cubes).expect("uniform widths"))
    })
}

proptest! {
    #[test]
    fn cube_string_round_trip(cube in arb_cube(16)) {
        let s = cube.to_string();
        let back: TestCube = s.parse().unwrap();
        prop_assert_eq!(back, cube);
    }

    #[test]
    fn merge_symmetric_and_contained(a in arb_cube(10), b in arb_cube(10)) {
        prop_assert_eq!(a.merge(&b), b.merge(&a));
        if let Some(m) = a.merge(&b) {
            // The merge is contained in both operands.
            prop_assert!(m.is_contained_in(&a));
            prop_assert!(m.is_contained_in(&b));
            // And it is at least as specified as either.
            prop_assert!(m.x_count() <= a.x_count());
            prop_assert!(m.x_count() <= b.x_count());
        } else {
            prop_assert!(!a.is_compatible(&b));
        }
    }

    #[test]
    fn hamming_symmetric_and_bounded(a in arb_cube(12), b in arb_cube(12)) {
        let d = hamming_distance(&a, &b);
        prop_assert_eq!(d, hamming_distance(&b, &a));
        prop_assert!(d <= 12);
        prop_assert_eq!(hamming_distance(&a, &a), 0);
    }

    #[test]
    fn pin_matrix_round_trip(set in arb_cube_set()) {
        let m = pin_matrix_scalar(&set);
        prop_assert_eq!(m.rows(), set.width());
        prop_assert_eq!(m.cols(), set.len());
        prop_assert_eq!(m.to_cube_set(), set);
    }

    #[test]
    fn reorder_preserves_multiset(set in arb_cube_set()) {
        let n = set.len();
        let order: Vec<usize> = (0..n).rev().collect();
        let r = set.reordered(&order).unwrap();
        let mut a: Vec<String> = set.iter().map(|c| c.to_string()).collect();
        let mut b: Vec<String> = r.iter().map(|c| c.to_string()).collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn peak_is_max_of_profile(set in arb_cube_set()) {
        let profile = dpfill_cubes::toggle_profile(&set).unwrap();
        let peak = peak_toggles(&set).unwrap();
        prop_assert_eq!(peak, profile.iter().copied().max().unwrap_or(0));
    }

    #[test]
    fn stretch_x_lengths_sum_to_row_x_count(row in proptest::collection::vec(arb_bit(), 1..30)) {
        // One pin over `row.len()` cubes: every X lies in one stretch.
        let set = CubeSet::from_cubes(row.iter().map(|&b| TestCube::new(vec![b])))
            .expect("uniform widths");
        let x_count = row.iter().filter(|b| b.is_x()).count();
        prop_assert_eq!(StretchStats::of_cubes(set.as_packed()).total_x_bits(), x_count);
    }

    #[test]
    fn pattern_format_round_trip(set in arb_cube_set()) {
        let text = dpfill_cubes::format::patterns_to_string(&set, None);
        let back = dpfill_cubes::format::parse_patterns(&text).unwrap();
        prop_assert_eq!(back, set);
    }

    #[test]
    fn all_x_matrix_has_full_x_count(rows in 1usize..8, cols in 1usize..8) {
        let set = CubeSet::from_cubes((0..cols).map(|_| TestCube::new(vec![Bit::X; rows])))
            .expect("uniform widths");
        prop_assert_eq!(set.x_count(), rows * cols);
    }
}
