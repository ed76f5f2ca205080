//! Balanced bottleneck greedy fill.

use dpfill_cubes::CubeSet;

use crate::bcp::test_support;
use crate::mapping::MatrixMapping;

use super::FillStrategy;

/// B-fill: a *balanced* greedy cousin of DP-fill.
///
/// Like DP-fill it works on the interval view of the matrix (one
/// interval per `v X…X w` stretch, forced toggles as baseline; every
/// other `X` copies the care value to its left). Unlike DP-fill it assigns intervals one at a time —
/// tightest window first — to the currently least-loaded admissible
/// transition, with no lower-bound certificate. It is strong in practice
/// (the second-best column of the paper's tables) but provably
/// sub-optimal: a later interval can be cornered into a transition that
/// a global solver would have kept free.
///
/// The paper's tables include B-fill without defining it; this greedy is
/// our reconstruction (see DESIGN.md §2.4) and empirically lands between
/// 1-fill and DP-fill exactly as in the paper.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BFill;

impl FillStrategy for BFill {
    fn name(&self) -> &'static str {
        "B-fill"
    }

    fn fill(&self, cubes: &CubeSet) -> CubeSet {
        let mapping = MatrixMapping::analyze(cubes);
        let instance = mapping.instance();
        let mut load: Vec<u64> = instance.baseline().to_vec();

        // Process tightest windows first so constrained intervals are not
        // starved by flexible ones.
        let mut order: Vec<usize> = (0..instance.intervals().len()).collect();
        order.sort_by_key(|&i| {
            let iv = instance.intervals()[i];
            (iv.len(), iv.start())
        });

        let mut colors = vec![0u32; instance.intervals().len()];
        for &i in &order {
            let iv = instance.intervals()[i];
            let mut best_t = iv.start();
            let mut best_load = u64::MAX;
            for t in iv.start()..=iv.end() {
                let l = load[t as usize];
                if l < best_load {
                    best_load = l;
                    best_t = t;
                }
            }
            colors[i] = best_t;
            load[best_t as usize] += 1;
        }
        mapping.apply_coloring(&test_support::coloring(colors))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fill::{DpFill, OneFill};
    use dpfill_cubes::peak_toggles;

    #[test]
    fn produces_legal_filling() {
        let cubes = CubeSet::parse_rows(&["0X1X", "XX0X", "1X0X", "0XX1"]).unwrap();
        let filled = BFill.fill(&cubes);
        assert!(CubeSet::is_filling_of(&filled, &cubes));
    }

    #[test]
    fn spreads_toggles_across_transitions() {
        // Two parallel 0 X 1 rows: B-fill must split the two toggles.
        let cubes = CubeSet::parse_rows(&["00", "XX", "11"]).unwrap();
        let filled = BFill.fill(&cubes);
        assert_eq!(peak_toggles(&filled).unwrap(), 1);
    }

    #[test]
    fn between_one_fill_and_dp_fill_on_random_cubes() {
        let cubes = dpfill_cubes::gen::random_cube_set(40, 30, 0.7, 21);
        let b = peak_toggles(&BFill.fill(&cubes)).unwrap();
        let one = peak_toggles(&OneFill.fill(&cubes)).unwrap();
        let dp = peak_toggles(&DpFill::new().fill(&cubes)).unwrap();
        assert!(dp <= b, "DP {dp} must not exceed B {b}");
        assert!(b <= one, "B {b} should beat 1-fill {one} on X-rich cubes");
    }

    #[test]
    fn respects_baseline_loads() {
        // Forced toggle at transition 0 (row 0: 0 then 1); a flexible
        // interval on row 1 must move to transition 1.
        let cubes = CubeSet::parse_rows(&["00", "1X", "X1"]).unwrap();
        let filled = BFill.fill(&cubes);
        assert_eq!(peak_toggles(&filled).unwrap(), 1);
    }

    #[test]
    fn empty_and_trivial_sets() {
        let empty = CubeSet::new(4);
        assert!(BFill.fill(&empty).is_empty());
        let single = CubeSet::parse_rows(&["0X1X"]).unwrap();
        let filled = BFill.fill(&single);
        assert!(filled.is_fully_specified());
    }

    #[test]
    fn name() {
        assert_eq!(BFill.name(), "B-fill");
    }
}
