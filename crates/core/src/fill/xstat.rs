//! The XStat two-phase fill (Trinadh et al. \[22\]), on the DP-fill
//! mapping: phase 1 is the cube-major analysis, phase 2 a greedy
//! coloring of each stretch's two middle transitions in `(load, pin,
//! left column)` order, and the fill is the mapping's filled-value
//! plane sweep.

use dpfill_cubes::CubeSet;

use crate::bcp::test_support;
use crate::mapping::MatrixMapping;

use super::FillStrategy;

/// XStat fill: the strongest published heuristic prior to DP-fill, and
/// the paper's Fig 1 foil.
///
/// * **Phase 1** — adjacent-fills every stretch from both ends: a
///   `v X…X w` (`v ≠ w`) stretch keeps exactly one `X` in the middle
///   (`0XXXX1 → 00X11`); `v X…X v`, leading/trailing and all-`X`
///   stretches are filled completely (they never need a toggle).
/// * **Phase 2** — each surviving middle `X` has a binary choice: copy
///   the left value (toggle on its right) or the right value (toggle on
///   its left). Choices are made greedily against the running
///   per-transition toggle counts, lightest side first.
///
/// Phase 1 leaves no toggle but the forced ones (a halved stretch is
/// `v…v X w…w`), so phase 2 starts from the mapping's forced baseline,
/// and each middle choice is a BCP color: `mid − 1` (toggle on its
/// left) or `mid`.
///
/// The greedy phase-1 halving is what costs optimality: it shrinks each
/// stretch's window to two transitions *before* seeing the global
/// picture, which is exactly the weakness the paper's Fig 1 illustrates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct XStatFill;

impl FillStrategy for XStatFill {
    fn name(&self) -> &'static str {
        "XStat"
    }

    fn fill(&self, cubes: &CubeSet) -> CubeSet {
        let mapping = MatrixMapping::analyze(cubes);
        let (intervals, pins) = (mapping.instance().intervals(), mapping.pins());
        let mut load = mapping.instance().baseline().to_vec();
        // Phase 1 keeps one X at the stretch's midpoint column: the
        // stretch runs from care column `start` to care column `end + 1`.
        let mid = |i: usize| {
            let iv = intervals[i];
            let (left, right) = (iv.start() as usize, iv.end() as usize + 1);
            ((left + right) / 2).clamp(left + 1, right - 1)
        };
        // Lightest-neighbourhood decisions first (the "statistical"
        // ordering: constrained middles with one heavy side decided while
        // alternatives remain); ties by pin, then by left column.
        let mut pending: Vec<(u64, u32, u32, usize)> = (0..intervals.len())
            .map(|i| {
                let light = load[mid(i) - 1].min(load[mid(i)]);
                (light, pins[i], intervals[i].start(), i)
            })
            .collect();
        pending.sort_unstable();
        let mut colors = vec![0u32; intervals.len()];
        for (.., i) in pending {
            let m = mid(i);
            // Toggle on the lighter side: at `m − 1` when the middle
            // takes the right value, at `m` when it keeps the left.
            let t = if load[m - 1] < load[m] { m - 1 } else { m };
            colors[i] = t as u32;
            load[t] += 1;
        }
        mapping.apply_coloring(&test_support::coloring(colors))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fill::{DpFill, FillStrategy};
    use dpfill_cubes::peak_toggles;

    #[test]
    fn phase1_leaves_middle_then_phase2_resolves() {
        let cubes = CubeSet::parse_rows(&["0", "X", "X", "X", "X", "1"]).unwrap();
        let filled = XStatFill.fill(&cubes);
        assert!(CubeSet::is_filling_of(&filled, &cubes));
        // Exactly one toggle in the row.
        assert_eq!(
            dpfill_cubes::total_toggles(&filled).unwrap(),
            1,
            "one transition stretch -> one toggle"
        );
    }

    #[test]
    fn single_x_between_opposite_bits() {
        let cubes = CubeSet::parse_rows(&["0", "X", "1"]).unwrap();
        let filled = XStatFill.fill(&cubes);
        assert!(CubeSet::is_filling_of(&filled, &cubes));
        assert_eq!(peak_toggles(&filled).unwrap(), 1);
    }

    #[test]
    fn same_value_stretch_costs_nothing() {
        let cubes = CubeSet::parse_rows(&["1", "X", "X", "1"]).unwrap();
        let filled = XStatFill.fill(&cubes);
        assert_eq!(peak_toggles(&filled).unwrap(), 0);
    }

    #[test]
    fn suboptimal_vs_dp_fill_exists() {
        // The Fig 1 phenomenon: XStat's halving pins toggles near stretch
        // middles; DP-fill can do strictly better on a crafted matrix.
        // Rows chosen so every stretch middle collides on the same
        // transition while DP can spread them.
        let cubes =
            CubeSet::parse_rows(&["000", "XXX", "X0X", "111", "0X1", "XX1", "X11"]).unwrap();
        let xstat = peak_toggles(&XStatFill.fill(&cubes)).unwrap();
        let dp = peak_toggles(&DpFill::new().fill(&cubes)).unwrap();
        assert!(dp <= xstat, "dp {dp} must never exceed xstat {xstat}");
    }

    #[test]
    fn handles_edge_shapes() {
        let empty = CubeSet::new(3);
        assert!(XStatFill.fill(&empty).is_empty());
        let single = CubeSet::parse_rows(&["X0X"]).unwrap();
        let filled = XStatFill.fill(&single);
        assert!(filled.is_fully_specified());
        let two = CubeSet::parse_rows(&["0X", "X1"]).unwrap();
        let filled = XStatFill.fill(&two);
        assert!(CubeSet::is_filling_of(&filled, &two));
    }

    #[test]
    fn name() {
        assert_eq!(XStatFill.name(), "XStat");
    }
}
