//! Equivalence suite for the dense-care fast path: the X-run scanner
//! (`for_each_stretch_dense`) and the density-adaptive matrix mapping
//! built on it must be bit-identical to the care-position stretch
//! classifier — on every density from all-X to fully specified, on
//! widths not divisible by 64, on empty sets, and at 1/2/8 threads.
//! The reference is built independently from the scalar
//! `RowStretches::analyze` walk over the scalar pin matrix, so a bug
//! shared by both packed scanners would still be caught.

use dpfill_core::fill::DpFill;
use dpfill_core::mapping::MatrixMapping;
use dpfill_core::Interval;
use dpfill_cubes::gen::random_cube_set;
use dpfill_cubes::packed::PackedCubeSet;
use dpfill_cubes::stretch::{RowStretches, Stretch};
use dpfill_cubes::{peak_toggles, Bit, CubeSet, PackedBits, TestCube};
use proptest::prelude::*;

/// The mapping outputs rebuilt from the scalar classifier: intervals in
/// the mapping's `(end, pin)` order (a stable sort by end of the
/// row-major walk) and the baseline.
fn reference_mapping(set: &CubeSet) -> (Vec<Interval>, Vec<u64>) {
    let cols = set.len();
    let scalar = set.to_pin_matrix();
    let mut intervals = Vec::new();
    let mut baseline = vec![0u64; cols.saturating_sub(1)];
    for r in 0..scalar.rows() {
        for &s in RowStretches::analyze(scalar.row(r)).stretches() {
            match s {
                Stretch::Transition { left, right, .. } => {
                    intervals.push(Interval::new(left as u32, (right - 1) as u32));
                }
                Stretch::ForcedToggle { col } => baseline[col] += 1,
                _ => {}
            }
        }
    }
    intervals.sort_by_key(|iv| iv.end());
    (intervals, baseline)
}

fn assert_mapping_matches_reference(set: &CubeSet) {
    let (intervals, baseline) = reference_mapping(set);
    let mapping = MatrixMapping::analyze(set);
    assert_eq!(mapping.instance().intervals(), intervals.as_slice());
    assert_eq!(mapping.instance().baseline(), baseline.as_slice());
    // Downstream: the DP fill over the (possibly dense-scanned) mapping
    // still produces a legal filling with the optimal peak.
    if !set.is_empty() {
        let report = DpFill::new().run(set);
        assert!(CubeSet::is_filling_of(&report.filled, set));
        assert_eq!(peak_toggles(&report.filled).unwrap() as u64, report.peak);
    }
}

/// Rows with a chosen care density; `d` sweeps sparse to near-specified.
fn arb_cube_set() -> impl Strategy<Value = CubeSet> {
    (1usize..=150, 0usize..=10, 0usize..=3).prop_flat_map(|(width, count, d)| {
        let x_weight = [30u32, 9, 3, 1][d];
        let bit = prop_oneof![
            5 => Just(Bit::Zero),
            5 => Just(Bit::One),
            x_weight => Just(Bit::X),
        ];
        proptest::collection::vec(proptest::collection::vec(bit, width), count).prop_map(
            move |rows| {
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Per-row: the X-run scanner emits exactly the scalar classifier's
    /// stretch stream at any density.
    #[test]
    fn dense_scanner_equals_scalar_classifier(set in arb_cube_set()) {
        let matrix = set.to_pin_matrix();
        for r in 0..matrix.rows() {
            let row = matrix.row(r);
            let packed = PackedBits::from_bits(row);
            prop_assert_eq!(
                RowStretches::analyze_dense(&packed),
                RowStretches::analyze(row),
                "row {}", r
            );
        }
    }

    /// Whole-pipeline: the density-adaptive mapping equals the scalar
    /// reference, identically at 1, 2 and 8 threads.
    #[test]
    fn adaptive_mapping_equals_reference_at_all_thread_counts(set in arb_cube_set()) {
        assert_mapping_matches_reference(&set);
        let serial = MatrixMapping::analyze(&set);
        for threads in [2usize, 8] {
            let pool = minipool::ThreadPool::new(threads);
            let parallel = minipool::with_pool(&pool, || MatrixMapping::analyze(&set));
            prop_assert_eq!(parallel.instance(), serial.instance(), "threads {}", threads);
        }
    }
}

#[test]
fn fully_specified_sets_take_the_word_wise_path() {
    // Density 0.0: every row is fully specified, so the mapping's dense
    // branch never classifies a stretch — only forced toggles survive.
    for seed in 0..4u64 {
        let set = random_cube_set(90, 40, 0.0, seed);
        assert_mapping_matches_reference(&set);
        let mapping = MatrixMapping::analyze(&set);
        assert!(mapping.instance().intervals().is_empty());
        // The baseline equals the unfilled set's toggle profile (no X
        // means every toggle is forced).
        let profile = PackedCubeSet::from(&set).toggle_profile();
        let baseline: Vec<u64> = profile.iter().map(|&t| t as u64).collect();
        assert_eq!(mapping.instance().baseline(), baseline.as_slice());
    }
}

#[test]
fn mixed_density_matrices_agree() {
    // Dense and sparse rows in one matrix: the per-row dispatch must
    // splice both kinds identically to the reference.
    for (seed, density) in [(1u64, 0.05), (2, 0.25), (3, 0.5), (4, 0.9)] {
        let set = random_cube_set(130, 70, density, seed);
        assert_mapping_matches_reference(&set);
    }
    assert_mapping_matches_reference(&CubeSet::new(8));
}
