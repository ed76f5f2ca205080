//! Property-based tests for the DP-fill core: the optimality claims of
//! the paper, checked against brute force on randomized small instances.

use dpfill_core::bcp::BcpInstance;
use dpfill_core::fill::{DpFill, DpMode, FillMethod, FillStrategy};
use dpfill_core::ordering::{is_permutation, OrderingMethod};
use dpfill_core::Interval;
use dpfill_cubes::{peak_toggles, Bit, CubeSet, TestCube};
use dpfill_oracle::{lower_bound_dp, lower_bound_naive};
use proptest::prelude::*;

fn arb_bit() -> impl Strategy<Value = Bit> {
    prop_oneof![
        1 => Just(Bit::Zero),
        1 => Just(Bit::One),
        2 => Just(Bit::X),
    ]
}

fn arb_cube_set(max_w: usize, max_n: usize) -> impl Strategy<Value = CubeSet> {
    (1..=max_w, 2..=max_n).prop_flat_map(|(w, n)| {
        proptest::collection::vec(proptest::collection::vec(arb_bit(), w), n).prop_map(|rows| {
            CubeSet::from_cubes(rows.into_iter().map(TestCube::new)).expect("uniform widths")
        })
    })
}

fn arb_instance() -> impl Strategy<Value = BcpInstance> {
    (1usize..8).prop_flat_map(|colors| {
        let intervals = proptest::collection::vec(
            (0..colors as u32).prop_flat_map(move |s| {
                (Just(s), s..colors as u32).prop_map(|(s, e)| Interval::new(s, e))
            }),
            0..7,
        );
        let baseline = proptest::collection::vec(0u64..3, colors);
        (Just(colors), intervals, baseline).prop_map(|(c, ivs, base)| {
            let mut inst = BcpInstance::new(c);
            for iv in ivs {
                inst.add_interval(iv).expect("intervals in range");
            }
            inst.set_baseline(base).expect("matching length");
            inst
        })
    })
}

/// Exhaustive minimum peak over all X assignments (only for tiny sets).
fn brute_force_min_peak(cubes: &CubeSet) -> usize {
    let x_positions: Vec<(usize, usize)> = cubes
        .iter()
        .enumerate()
        .flat_map(|(ci, c)| {
            c.into_iter()
                .enumerate()
                .filter(|(_, b)| b.is_x())
                .map(move |(pi, _)| (ci, pi))
        })
        .collect();
    assert!(x_positions.len() <= 16, "brute force capped at 2^16");
    let mut best = usize::MAX;
    for mask in 0u32..(1 << x_positions.len()) {
        let mut filled: Vec<TestCube> = cubes.iter().collect();
        for (bit, &(ci, pi)) in x_positions.iter().enumerate() {
            filled[ci].set(pi, Bit::from_bool(mask >> bit & 1 == 1));
        }
        let set = CubeSet::from_cubes(filled).expect("same widths");
        best = best.min(peak_toggles(&set).expect("non-empty"));
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline claim: DP-fill (baseline-aware) achieves the
    /// exhaustive optimum of max_j hd(T_j, T_{j+1}).
    #[test]
    fn dp_fill_is_optimal(cubes in arb_cube_set(4, 4)) {
        let total_x: usize = cubes.iter().map(|c| c.x_count()).sum();
        prop_assume!(total_x <= 12);
        let report = DpFill::new().run(&cubes);
        prop_assert!(CubeSet::is_filling_of(&report.filled, &cubes));
        let measured = peak_toggles(&report.filled).unwrap();
        prop_assert_eq!(measured as u64, report.peak, "certificate mismatch");
        prop_assert_eq!(measured, brute_force_min_peak(&cubes), "not optimal");
    }

    /// Algorithm 1 (DP lower bound) agrees with direct window counting,
    /// and the incremental parametric bound agrees with both — with and
    /// without the baseline.
    #[test]
    fn lower_bounds_all_agree(inst in arb_instance()) {
        let naive = lower_bound_naive(&inst, false).unwrap();
        prop_assert_eq!(lower_bound_dp(&inst, false).unwrap(), naive);
        prop_assert_eq!(inst.lower_bound_paper().unwrap(), naive);
        let naive_b = lower_bound_naive(&inst, true).unwrap();
        prop_assert_eq!(lower_bound_dp(&inst, true).unwrap(), naive_b);
        prop_assert_eq!(inst.lower_bound().unwrap(), naive_b);
    }

    /// Algorithm 2 yields a valid coloring achieving Algorithm 1's bound.
    #[test]
    fn greedy_achieves_the_paper_bound(inst in arb_instance()) {
        let sol = inst.solve_paper().unwrap();
        let verified = inst.verify(&sol.coloring).unwrap();
        prop_assert_eq!(verified.intervals_only, sol.lower_bound);
    }

    /// The generalized solver matches brute force on the true objective.
    #[test]
    fn generalized_solver_is_optimal(inst in arb_instance()) {
        let sol = inst.solve().unwrap();
        prop_assert_eq!(sol.peak.with_baseline, dpfill_oracle::brute_force_min_peak(&inst));
    }

    /// With a zero baseline the two solvers agree on the peak.
    #[test]
    fn solvers_agree_on_zero_baseline(inst in arb_instance()) {
        let mut zeroed = BcpInstance::new(inst.num_colors());
        for &iv in inst.intervals() {
            zeroed.add_interval(iv).unwrap();
        }
        let paper = zeroed.solve_paper().unwrap();
        let exact = zeroed.solve().unwrap();
        prop_assert_eq!(paper.peak.intervals_only, exact.peak.with_baseline);
    }

    /// Every fill method preserves care bits and kills every X.
    #[test]
    fn fills_are_legal(cubes in arb_cube_set(6, 6)) {
        for m in [
            FillMethod::Mt,
            FillMethod::Random(11),
            FillMethod::Zero,
            FillMethod::One,
            FillMethod::B,
            FillMethod::Dp,
            FillMethod::XStat,
            FillMethod::Adj,
        ] {
            let filled = m.fill(&cubes);
            prop_assert!(
                CubeSet::is_filling_of(&filled, &cubes),
                "{} violated the filling contract", m.label()
            );
        }
    }

    /// DP-fill is the minimum over all fill methods (same ordering).
    #[test]
    fn dp_dominates_other_fills(cubes in arb_cube_set(6, 6)) {
        let dp = peak_toggles(&FillMethod::Dp.fill(&cubes)).unwrap();
        for m in FillMethod::TABLE_COLUMNS {
            let peak = peak_toggles(&m.fill(&cubes)).unwrap();
            prop_assert!(dp <= peak, "DP {} vs {} {}", dp, m.label(), peak);
        }
    }

    /// Paper-exact mode also never beats the generalized mode on the
    /// true objective (it solves a relaxation but reconstructs the same
    /// kind of filling).
    #[test]
    fn exact_mode_dominates_paper_mode(cubes in arb_cube_set(5, 5)) {
        let exact = peak_toggles(&DpFill::with_mode(DpMode::Exact).fill(&cubes)).unwrap();
        let paper = peak_toggles(&DpFill::with_mode(DpMode::PaperExact).fill(&cubes)).unwrap();
        prop_assert!(exact <= paper);
    }

    /// Orderings always return permutations.
    #[test]
    fn orderings_are_permutations(cubes in arb_cube_set(8, 10)) {
        for m in [
            OrderingMethod::Tool,
            OrderingMethod::XStat,
            OrderingMethod::Isa(3),
            OrderingMethod::Interleaved,
        ] {
            prop_assert!(is_permutation(&m.order(&cubes).unwrap(), cubes.len()));
        }
    }
}
