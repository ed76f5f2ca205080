//! Mapping between test-cube matrices and BCP instances (paper §V-C/V-D).
//!
//! [`MatrixMapping::analyze`] packs the cube set into the two-plane
//! representation, transposes it with the word-blocked bit transpose, and
//! runs the windowed analyzer over the whole matrix as one window — the
//! same scan the streaming pipeline runs window by window:
//!
//! * records one [`IntervalSite`] — one BCP [`Interval`] — per
//!   `v X…X w` transition stretch (the one unavoidable toggle whose
//!   position is free);
//! * tallies *forced toggles* (adjacent opposite care bits) into the
//!   instance baseline.
//!
//! Every other `X` is *safe*: it takes the nearest care value and never
//! toggles, so nothing is stored for it. [`MatrixMapping::apply_coloring`]
//! reconstructs the filled matrix from a BCP coloring through
//! `fill_row`, the one row kernel the streaming emit pass also runs per
//! window: a word-parallel copy-left fill, then each interval colored `j`
//! flips its stretch's columns after `j` to the right value (paper §V-D).

use dpfill_cubes::packed::{PackedBits, PackedMatrix};
use dpfill_cubes::{Bit, CubeSet, PinMatrix};

use crate::bcp::{BcpError, BcpInstance, Coloring};
use crate::objective::{FillObjective, ObjectiveError};
use crate::stream::analyze::WindowedAnalyzer;
use crate::Interval;

/// Where an interval came from: the row and the delimiting care columns
/// (16 bytes — both pipelines keep one per stretch from scan to fill).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IntervalSite {
    /// Pin row of the stretch.
    pub row: u32,
    /// Column of the left care bit (`k` in the paper).
    pub left: u32,
    /// Column of the right care bit (`l` in the paper).
    pub right: u32,
    /// Value of the left care bit.
    pub left_value: Bit,
}

/// The BCP instance of both pipelines: per site, in site order (which
/// fixes the EDF tie-breaks), the interval `(left, right − 1)` charged
/// `weights[row]` (unit when `None`), over the forced-toggle `baseline`.
pub(crate) fn build_instance(
    sites: &[IntervalSite],
    weights: Option<&[u64]>,
    baseline: Vec<u64>,
) -> Result<BcpInstance, BcpError> {
    let mut instance = BcpInstance::new(baseline.len());
    instance.set_baseline(baseline)?;
    for site in sites {
        let load = weights.map_or(1, |w| w[site.row as usize]);
        instance.add_weighted_interval(Interval::new(site.left, site.right - 1), load)?;
    }
    Ok(instance)
}

/// Per-site shift desires toward `preferred[row]` for
/// [`BcpInstance::shift_within_slack`]: `+1` favors a late toggle (hold
/// the left value), `-1` an early one, `0` no preference.
pub(crate) fn desires(sites: &[IntervalSite], preferred: &[Bit]) -> Vec<i8> {
    sites
        .iter()
        .map(|site| match preferred[site.row as usize] {
            Bit::X => 0,
            p if p == site.left_value => 1,
            _ => -1,
        })
        .collect()
}

/// The value a vector's leading `X`-run copies: its first care value,
/// or zero when it has none.
pub(crate) fn leading_value(bits: &PackedBits) -> bool {
    bits.first_care().is_some_and(|i| bits.get(i) == Bit::One)
}

/// Fills one pin row holding columns `[start, start + row.len())`:
/// every `X` copies the nearest care value to its left (`carry` is the
/// value left of the held columns), then each of the row's `sites`
/// (left to right) colored `j` flips its columns `j + 1 .. right` to the
/// opposite of its left value, clipped to the held columns (paper §V-D).
/// A whole row for [`MatrixMapping::apply_coloring`], one window in
/// streaming.
///
/// # Panics
///
/// Panics if a flipped site's color falls outside its stretch window.
pub(crate) fn fill_row(
    row: &mut PackedBits,
    start: usize,
    carry: bool,
    sites: &[IntervalSite],
    colors: &[u32],
) {
    row.fill_copy_left(carry);
    let end = start + row.len();
    // A row's stretch interiors are disjoint and ordered, so the sites
    // overlapping the held columns are one contiguous run.
    let lo = sites.partition_point(|s| s.right as usize <= start);
    let hi = sites.partition_point(|s| (s.left as usize) + 1 < end);
    for (site, &color) in sites[lo..hi].iter().zip(&colors[lo..hi]) {
        assert!(
            site.left <= color && color < site.right,
            "color {color} outside stretch window [{}, {})",
            site.left,
            site.right
        );
        let from = (color as usize + 1).max(start);
        let to = (site.right as usize).min(end);
        if from < to {
            row.fill_range(from - start, to - start, !site.left_value);
        }
    }
}

/// The analyzed matrix: intervals extracted, forced toggles tallied,
/// and the transposed input kept for the fill.
#[derive(Clone, Debug)]
pub struct MatrixMapping {
    matrix: PackedMatrix,
    instance: BcpInstance,
    sites: Vec<IntervalSite>,
    /// Secondary-objective shift direction per interval (aligned with
    /// `sites`, see [`desires`]). Empty when the objective has no
    /// fill-value preference.
    desire: Vec<i8>,
}

impl MatrixMapping {
    /// Analyzes a cube set (columns = cubes) per the paper's mapping.
    /// The set is already packed, so this is the word-blocked transpose
    /// plus the `trailing_zeros` stretch scan — no scalar work.
    pub fn analyze(cubes: &CubeSet) -> MatrixMapping {
        Self::analyze_packed(PackedMatrix::from_packed_set(cubes.as_packed()))
    }

    /// [`MatrixMapping::analyze`] under a [`FillObjective`]: each
    /// interval carries the objective's fixed-point weight for its pin
    /// row, forced toggles charge the weighted baseline, and the
    /// per-interval shift desires ([`MatrixMapping::desire`]) encode
    /// the fill-value preference. With the default objective this is
    /// exactly [`MatrixMapping::analyze`].
    ///
    /// # Errors
    ///
    /// Returns [`ObjectiveError::WidthMismatch`] when the weight table
    /// does not cover the matrix's pin rows, and
    /// [`ObjectiveError::Overflow`] when a weighted forced-toggle load
    /// exceeds `u64`.
    pub fn analyze_with(
        cubes: &CubeSet,
        objective: &FillObjective,
    ) -> Result<MatrixMapping, ObjectiveError> {
        Self::analyze_packed_with(PackedMatrix::from_packed_set(cubes.as_packed()), objective)
    }

    /// Analyzes an already-transposed scalar matrix.
    pub fn analyze_matrix(matrix: PinMatrix) -> MatrixMapping {
        Self::analyze_packed(PackedMatrix::from_pin_matrix(&matrix))
    }

    /// Analyzes an already-packed matrix: the windowed analyzer's scan
    /// over the whole matrix as one window. Pin rows fan out across the
    /// current [`minipool`] pool, each row density-adaptive (care
    /// arrivals on sparse rows, X-run hops on dense ones), and the
    /// chunks merge back **in row order**, so the interval sequence,
    /// the sites and the baseline are bit-identical at any thread count
    /// and to any windowing of the same columns.
    pub fn analyze_packed(matrix: PackedMatrix) -> MatrixMapping {
        Self::analyze_packed_with(matrix, &FillObjective::default())
            .unwrap_or_else(|e| unreachable!("the default objective carries no table: {e}"))
    }

    /// [`MatrixMapping::analyze_packed`] under a [`FillObjective`] (see
    /// [`MatrixMapping::analyze_with`]). The scan itself is identical —
    /// the objective only changes how the emitted events charge the BCP
    /// instance — so the unit-objective mapping stays bit-identical.
    ///
    /// # Errors
    ///
    /// See [`MatrixMapping::analyze_with`].
    pub fn analyze_packed_with(
        matrix: PackedMatrix,
        objective: &FillObjective,
    ) -> Result<MatrixMapping, ObjectiveError> {
        objective.check_width(matrix.rows())?;
        let weights = objective.weights();
        let mut analyzer =
            WindowedAnalyzer::with_weights(matrix.rows(), weights.map(<[u64]>::to_vec));
        analyzer.ingest(&matrix);
        let analysis = analyzer.finish();
        if analysis.overflow {
            return Err(ObjectiveError::Overflow {
                what: "weighted forced-toggle load on one transition",
            });
        }
        let instance = build_instance(&analysis.sites, weights, analysis.baseline)
            .unwrap_or_else(|e| unreachable!("stretch bounds and table weights are valid: {e}"));
        let desire = objective
            .preferred()
            .map_or_else(Vec::new, |preferred| desires(&analysis.sites, preferred));
        Ok(MatrixMapping {
            matrix,
            instance,
            sites: analysis.sites,
            desire,
        })
    }

    /// Per-interval shift desires for the objective's fill-value
    /// preference (aligned with [`MatrixMapping::sites`]; empty when
    /// the objective has none). Feed to
    /// [`BcpInstance::shift_within_slack`] with the solved peak.
    pub fn desire(&self) -> &[i8] {
        &self.desire
    }

    /// The BCP instance extracted from the matrix.
    pub fn instance(&self) -> &BcpInstance {
        &self.instance
    }

    /// Interval provenance, aligned with `instance().intervals()`.
    pub fn sites(&self) -> &[IntervalSite] {
        &self.sites
    }

    /// Number of forced toggles summed over all transitions.
    pub fn forced_total(&self) -> u64 {
        self.instance.baseline().iter().sum()
    }

    /// Reconstructs the fully filled matrix from a coloring
    /// (paper §V-D) and returns it as a cube set: each row goes through
    /// `fill_row` with its first care value as the carry (zero for an
    /// all-`X` row).
    ///
    /// Sites are row-major (the analysis emits them that way), so row
    /// chunks fan out across the pool and each worker walks its slice of
    /// sites/colors — disjoint rows, disjoint fills, and a result
    /// independent of the execution interleaving.
    ///
    /// # Panics
    ///
    /// Panics if the coloring does not match the instance (wrong length
    /// or out-of-window colors) — obtain colorings from the BCP solvers,
    /// which guarantee validity.
    pub fn apply_coloring(&self, coloring: &Coloring) -> CubeSet {
        assert_eq!(
            coloring.colors().len(),
            self.sites.len(),
            "coloring does not match interval count"
        );
        let mut matrix = self.matrix.clone();
        let sites = &self.sites;
        let colors = coloring.colors();
        minipool::parallel_chunks_mut(matrix.packed_rows_mut(), 4, |start, rows| {
            let mut lo = sites.partition_point(|s| (s.row as usize) < start);
            for (r, row) in (start..).zip(rows.iter_mut()) {
                let hi = lo + sites[lo..].partition_point(|s| s.row as usize == r);
                let carry = leading_value(row);
                fill_row(row, 0, carry, &sites[lo..hi], &colors[lo..hi]);
                lo = hi;
            }
        });
        debug_assert_eq!(matrix.x_count(), 0, "all X bits must be filled");
        CubeSet::from_packed(matrix.to_packed_set())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpfill_cubes::peak_toggles;

    fn set(rows: &[&str]) -> CubeSet {
        CubeSet::parse_rows(rows).unwrap()
    }

    #[test]
    fn safe_fills_applied() {
        // One pin over 5 cubes: X 0 X 0 X -> leading, same-value,
        // trailing: fully filled with zeros, no intervals.
        let cubes = set(&["X", "0", "X", "0", "X"]);
        let m = MatrixMapping::analyze(&cubes);
        assert_eq!(m.instance().intervals().len(), 0);
        assert_eq!(m.forced_total(), 0);
        let filled = m.apply_coloring(&m.instance().solve().unwrap().coloring);
        assert_eq!(peak_toggles(&filled).unwrap(), 0);
    }

    #[test]
    fn all_x_row_filled_with_zero() {
        let cubes = set(&["X", "X", "X"]);
        let m = MatrixMapping::analyze(&cubes);
        let filled = m.apply_coloring(&m.instance().solve().unwrap().coloring);
        assert_eq!(filled.cube(0).to_string(), "0");
        assert_eq!(peak_toggles(&filled).unwrap(), 0);
    }

    #[test]
    fn transition_stretch_becomes_interval() {
        // Pin row: 0 X X 1 over 4 cubes -> interval [0, 2].
        let cubes = set(&["0", "X", "X", "1"]);
        let m = MatrixMapping::analyze(&cubes);
        assert_eq!(m.instance().intervals(), &[Interval::new(0, 2)]);
        assert_eq!(m.sites()[0].left, 0);
        assert_eq!(m.sites()[0].right, 3);
        assert_eq!(m.sites()[0].left_value, Bit::Zero);
    }

    #[test]
    fn forced_toggles_feed_baseline() {
        // Pin row: 0 1 0 -> two forced toggles at transitions 0 and 1.
        let cubes = set(&["0", "1", "0"]);
        let m = MatrixMapping::analyze(&cubes);
        assert_eq!(m.instance().baseline(), &[1, 1]);
        assert_eq!(m.forced_total(), 2);
    }

    #[test]
    fn coloring_reconstruction_each_position() {
        // 0 X X 1: placing the toggle at each admissible transition.
        let cubes = set(&["0", "X", "X", "1"]);
        let m = MatrixMapping::analyze(&cubes);
        let expectations = [
            (0u32, ["0", "1", "1", "1"]),
            (1u32, ["0", "0", "1", "1"]),
            (2u32, ["0", "0", "0", "1"]),
        ];
        for (color, want) in expectations {
            let coloring = crate::bcp::test_support::coloring(vec![color]);
            let filled = m.apply_coloring(&coloring);
            let got: Vec<String> = filled.iter().map(|c| c.to_string()).collect();
            assert_eq!(got, want, "color {color}");
            assert_eq!(peak_toggles(&filled).unwrap(), 1);
        }
    }

    #[test]
    fn falling_stretch_reconstruction() {
        // 1 X 0: one interval [0,1]; left value one.
        let cubes = set(&["1", "X", "0"]);
        let m = MatrixMapping::analyze(&cubes);
        assert_eq!(m.sites()[0].left_value, Bit::One);
        let sol = m.instance().solve().unwrap();
        let filled = m.apply_coloring(&sol.coloring);
        assert_eq!(peak_toggles(&filled).unwrap(), 1);
        assert!(CubeSet::is_filling_of(&filled, &cubes));
    }

    #[test]
    fn multi_row_solution_is_optimal_peak() {
        // Two pins, both 0 X 1 over 3 cubes: two intervals [0,1]; they
        // can split across the two transitions -> peak 1.
        let cubes = set(&["00", "XX", "11"]);
        let m = MatrixMapping::analyze(&cubes);
        let sol = m.instance().solve().unwrap();
        assert_eq!(sol.peak.with_baseline, 1);
        let filled = m.apply_coloring(&sol.coloring);
        assert_eq!(peak_toggles(&filled).unwrap(), 1);
        assert!(CubeSet::is_filling_of(&filled, &cubes));
    }

    #[test]
    fn peak_of_filled_matrix_matches_bcp_peak() {
        let cubes = set(&["0X1X0", "1XX00", "X01XX", "0XXX1", "10X0X", "XX10X"]);
        let m = MatrixMapping::analyze(&cubes);
        let sol = m.instance().solve().unwrap();
        let filled = m.apply_coloring(&sol.coloring);
        assert!(CubeSet::is_filling_of(&filled, &cubes));
        assert_eq!(
            peak_toggles(&filled).unwrap() as u64,
            sol.peak.with_baseline
        );
    }

    #[test]
    fn single_cube_has_no_transitions() {
        let cubes = set(&["0X1"]);
        let m = MatrixMapping::analyze(&cubes);
        assert_eq!(m.instance().num_colors(), 0);
        assert!(m.instance().intervals().is_empty());
        let filled = m.apply_coloring(&m.instance().solve().unwrap().coloring);
        assert!(filled.is_fully_specified());
    }

    #[test]
    fn reordered_analysis_matches_materialized_reorder() {
        // The I-ordering scores a candidate order by scanning the cubes
        // in that order; its bound is the mapping's of the reordered set.
        let cubes = set(&["0X1X0", "1XX00", "X01XX", "0XXX1", "10X0X", "XX10X"]);
        let order = [2, 0, 3, 5, 1, 4];
        let via_set = MatrixMapping::analyze(&cubes.reordered(&order).unwrap());
        assert_eq!(
            crate::ordering::IOrdering::bottleneck(&cubes, &order).unwrap(),
            via_set.instance().lower_bound().unwrap()
        );
    }

    #[test]
    fn objective_weights_charge_intervals_and_baseline() {
        use crate::objective::{FillObjective, WeightTable};
        // Pin 0: 0 X 1  -> one interval, weight 3.
        // Pin 1: 0 1 1  -> one forced toggle at transition 0, weight 5.
        let cubes = set(&["00", "X1", "11"]);
        let table = WeightTable::new(vec![3, 5], None).unwrap();
        let m = MatrixMapping::analyze_with(&cubes, &FillObjective::weighted(table)).unwrap();
        assert_eq!(m.instance().intervals(), &[Interval::new(0, 1)]);
        assert_eq!(m.instance().interval_load(0), 3);
        assert_eq!(m.instance().baseline(), &[5, 0]);
        assert!(m.desire().is_empty());
        // The weighted solve pushes the interval off the forced column.
        let sol = m.instance().solve().unwrap();
        assert_eq!(sol.peak.with_baseline, 5);
        assert_eq!(sol.coloring.colors(), &[1]);
    }

    #[test]
    fn objective_preference_builds_desires_and_shifts_fill() {
        use crate::objective::{FillObjective, WeightTable};
        use dpfill_cubes::toggle_profile;
        // Pin row 0 X X X 1 prefers rest value 0: the transition should
        // land as late as possible (left value 0 == preferred -> +1).
        let cubes = set(&["0", "X", "X", "X", "1"]);
        let table = WeightTable::new(vec![1], Some(vec![Bit::Zero])).unwrap();
        let m = MatrixMapping::analyze_with(&cubes, &FillObjective::leakage(table)).unwrap();
        assert_eq!(m.desire(), &[1]);
        let sol = m.instance().solve().unwrap();
        let shifted = m
            .instance()
            .shift_within_slack(&sol.coloring, m.desire(), sol.peak.with_baseline)
            .unwrap();
        let filled = m.apply_coloring(&shifted);
        assert!(CubeSet::is_filling_of(&filled, &cubes));
        // Toggle pushed to the last transition; all earlier cubes rest at 0.
        assert_eq!(toggle_profile(&filled).unwrap(), vec![0, 0, 0, 1]);
        // Preferring 1 pulls it to the first transition instead.
        let table = WeightTable::new(vec![1], Some(vec![Bit::One])).unwrap();
        let m = MatrixMapping::analyze_with(&cubes, &FillObjective::leakage(table)).unwrap();
        assert_eq!(m.desire(), &[-1]);
        let sol = m.instance().solve().unwrap();
        let shifted = m
            .instance()
            .shift_within_slack(&sol.coloring, m.desire(), sol.peak.with_baseline)
            .unwrap();
        let filled = m.apply_coloring(&shifted);
        assert_eq!(toggle_profile(&filled).unwrap(), vec![1, 0, 0, 0]);
    }

    #[test]
    fn default_objective_analysis_is_identical() {
        use crate::objective::FillObjective;
        let cubes = set(&["0X1X0", "1XX00", "X01XX", "0XXX1", "10X0X", "XX10X"]);
        let plain = MatrixMapping::analyze(&cubes);
        let via_objective =
            MatrixMapping::analyze_with(&cubes, &FillObjective::peak_toggles()).unwrap();
        assert_eq!(plain.instance(), via_objective.instance());
        assert_eq!(plain.sites(), via_objective.sites());
        assert!(via_objective.desire().is_empty());
    }

    #[test]
    fn objective_width_mismatch_is_a_typed_error() {
        use crate::objective::{FillObjective, ObjectiveError, WeightTable};
        let cubes = set(&["00", "X1", "11"]);
        let table = WeightTable::new(vec![1, 2, 3], None).unwrap();
        let err = MatrixMapping::analyze_with(&cubes, &FillObjective::weighted(table)).unwrap_err();
        assert_eq!(
            err,
            ObjectiveError::WidthMismatch {
                expected: 2,
                found: 3
            }
        );
    }

    #[test]
    fn wide_rows_splice_across_word_boundaries() {
        // A single pin whose transition stretch spans several 64-bit
        // words of the packed row: 0 X^200 1.
        let mut rows: Vec<String> = vec!["0".into()];
        rows.extend(std::iter::repeat_n("X".to_string(), 200));
        rows.push("1".into());
        let refs: Vec<&str> = rows.iter().map(String::as_str).collect();
        let cubes = CubeSet::parse_rows(&refs).unwrap();
        let m = MatrixMapping::analyze(&cubes);
        assert_eq!(m.instance().intervals().len(), 1);
        let sol = m.instance().solve().unwrap();
        let filled = m.apply_coloring(&sol.coloring);
        assert!(CubeSet::is_filling_of(&filled, &cubes));
        assert_eq!(peak_toggles(&filled).unwrap(), 1);
    }
}
