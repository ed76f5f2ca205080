//! Mapping between test-cube matrices and BCP instances (paper §V-C/V-D).
//!
//! [`MatrixMapping::analyze`] packs the cube set into the two-plane
//! representation, transposes it with the word-blocked bit transpose, and
//! walks every pin row with the `trailing_zeros` stretch scanner:
//!
//! * pre-fills the *safe* don't-cares — leading/trailing runs, `v X…X v`
//!   runs and all-`X` rows — as whole-word mask splices (they provably
//!   never need a toggle);
//! * records one [`IntervalSite`] — one BCP [`Interval`] — per
//!   `v X…X w` transition stretch (the one unavoidable toggle whose
//!   position is free);
//! * tallies *forced toggles* (adjacent opposite care bits) into the
//!   instance baseline.
//!
//! [`MatrixMapping::apply_coloring`] then reconstructs the filled matrix
//! from a BCP coloring: an interval colored `j` splices its stretch with
//! the left value through column `j` and the right value from column
//! `j+1` (paper §V-D) through `splice_colored`, the kernel the
//! streaming emit pass runs per window, and transposes back to cubes.

use dpfill_cubes::packed::{PackedBits, PackedMatrix};
use dpfill_cubes::stretch::{for_each_stretch_dense, is_dense_row, scan_row_mut, Stretch};
use dpfill_cubes::{Bit, CubeSet, PinMatrix};

use crate::bcp::{BcpError, BcpInstance, Coloring};
use crate::objective::{FillObjective, ObjectiveError};
use crate::Interval;

/// Where an interval came from: the row and the delimiting care columns
/// (16 bytes — both pipelines keep one per stretch from scan to splice).
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

/// The §V-D splice of one pin row: each of the row's `sites` (left to
/// right) colored `j` holds its left care value through column `j` and
/// the opposite value after it, clipped to the columns
/// `[start, start + row.len())` that `row` holds — a whole row for
/// [`MatrixMapping::apply_coloring`], one window in streaming.
///
/// # Panics
///
/// Panics if a spliced site's color falls outside its stretch window.
pub(crate) fn splice_colored(
    row: &mut PackedBits,
    start: usize,
    sites: &[IntervalSite],
    colors: &[u32],
) {
    let end = start + row.len();
    // A row's stretch interiors are disjoint and ordered, so the sites
    // overlapping the held columns are one contiguous run.
    let lo = sites.partition_point(|s| s.right as usize <= start);
    let hi = sites.partition_point(|s| (s.left as usize) + 1 < end);
    let mut fill = |from: usize, to: usize, value: Bit| {
        let (from, to) = (from.max(start), to.min(end));
        if from < to {
            row.fill_range(from - start, to - start, value);
        }
    };
    for (site, &color) in sites[lo..hi].iter().zip(&colors[lo..hi]) {
        assert!(
            site.left <= color && color < site.right,
            "color {color} outside stretch window [{}, {})",
            site.left,
            site.right
        );
        let split = color as usize + 1;
        fill(site.left as usize + 1, split, site.left_value);
        fill(split, site.right as usize, !site.left_value);
    }
}

/// The analyzed matrix: safe pre-fill applied, intervals extracted,
/// forced toggles tallied.
#[derive(Clone, Debug)]
pub struct MatrixMapping {
    prefilled: PackedMatrix,
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

    /// Analyzes `cubes` *as seen through* the permutation `order`
    /// without materializing a reordered set: the gather happens inside
    /// the word-blocked transpose. This is the candidate-evaluation
    /// kernel of the I-ordering's Algorithm 3 loop.
    ///
    /// # Panics
    ///
    /// Panics if an index in `order` is out of range.
    pub fn analyze_reordered(cubes: &CubeSet, order: &[usize]) -> MatrixMapping {
        Self::analyze_packed(PackedMatrix::from_reordered_set(cubes.as_packed(), order))
    }

    /// [`MatrixMapping::analyze_reordered`] under a [`FillObjective`]
    /// (see [`MatrixMapping::analyze_with`]).
    ///
    /// # Errors
    ///
    /// See [`MatrixMapping::analyze_with`].
    ///
    /// # Panics
    ///
    /// Panics if an index in `order` is out of range.
    pub fn analyze_reordered_with(
        cubes: &CubeSet,
        order: &[usize],
        objective: &FillObjective,
    ) -> Result<MatrixMapping, ObjectiveError> {
        Self::analyze_packed_with(
            PackedMatrix::from_reordered_set(cubes.as_packed(), order),
            objective,
        )
    }

    /// Analyzes an already-transposed scalar matrix.
    pub fn analyze_matrix(matrix: PinMatrix) -> MatrixMapping {
        Self::analyze_packed(PackedMatrix::from_pin_matrix(&matrix))
    }

    /// Analyzes an already-packed matrix.
    ///
    /// Pin rows are independent, so row chunks fan out across the
    /// current [`minipool`] pool. Per row the scan is density-adaptive:
    ///
    /// * **sparse rows** run the fused scan+splice ([`scan_row_mut`]) —
    ///   applying the safe mask splices in place, no per-row
    ///   `Vec<Stretch>`;
    /// * **dense rows** (the ROADMAP's dense-care fast path) classify by
    ///   X-run hops and take forced toggles word-wise off the
    ///   adjacent-conflict mask ([`for_each_stretch_dense`]): a mostly
    ///   specified row costs a handful of events instead of one
    ///   classification per care bit, and a fully specified row never
    ///   classifies a stretch at all.
    ///
    /// Both scanners emit the identical event stream (differential-
    /// tested in `crates/core/tests/dense_fastpath.rs`), and the chunks
    /// merge back **in row order**, so the interval sequence, the sites
    /// and the baseline are bit-identical to the serial sparse walk at
    /// any thread count.
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
        mut matrix: PackedMatrix,
        objective: &FillObjective,
    ) -> Result<MatrixMapping, ObjectiveError> {
        objective.check_width(matrix.rows())?;
        let cols = matrix.cols();
        let chunks: Vec<(Vec<IntervalSite>, Vec<_>)> =
            minipool::parallel_chunks_mut(matrix.packed_rows_mut(), 4, |start, rows| {
                let mut sites = Vec::new();
                let mut forced = Vec::new();
                // Scratch for the dense path, reused across the chunk's
                // rows: events are classified from the pristine planes
                // first, then the safe splices apply (splices only write
                // X positions, so classification stays valid).
                let mut events: Vec<Stretch> = Vec::new();
                for (i, r) in rows.iter_mut().enumerate() {
                    let row = start + i;
                    let mut on_unsafe = |s: Stretch| match s {
                        Stretch::Transition {
                            left,
                            right,
                            left_value,
                        } => sites.push(IntervalSite {
                            row: row as u32,
                            left: left as u32,
                            right: right as u32,
                            left_value,
                        }),
                        Stretch::ForcedToggle { col } => forced.push((row, col)),
                        _ => unreachable!("safe stretches handled by splice_safe"),
                    };
                    if is_dense_row(r) {
                        events.clear();
                        for_each_stretch_dense(r, |s| events.push(s));
                        for &s in &events {
                            if !s.splice_safe(r, cols) {
                                on_unsafe(s);
                            }
                        }
                    } else {
                        scan_row_mut(r, |r, s| {
                            if !s.splice_safe(r, cols) {
                                on_unsafe(s);
                            }
                        });
                    }
                }
                (sites, forced)
            });

        let weights = objective.weights();
        let mut sites = Vec::new();
        let mut baseline = vec![0u64; cols.saturating_sub(1)];
        for (chunk_sites, chunk_forced) in chunks {
            sites.extend(chunk_sites);
            for (row, col) in chunk_forced {
                let slot = &mut baseline[col];
                *slot = slot.checked_add(weights.map_or(1, |w| w[row])).ok_or(
                    ObjectiveError::Overflow {
                        what: "weighted forced-toggle load on one transition",
                    },
                )?;
            }
        }
        let instance = build_instance(&sites, weights, baseline)
            .unwrap_or_else(|e| unreachable!("stretch bounds and table weights are valid: {e}"));
        let desire = objective
            .preferred()
            .map_or_else(Vec::new, |preferred| desires(&sites, preferred));
        Ok(MatrixMapping {
            prefilled: matrix,
            instance,
            sites,
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

    /// The packed matrix with all safe fills applied; only transition
    /// stretches still hold `X`.
    pub fn prefilled(&self) -> &PackedMatrix {
        &self.prefilled
    }

    /// Number of forced toggles summed over all transitions.
    pub fn forced_total(&self) -> u64 {
        self.instance.baseline().iter().sum()
    }

    /// Reconstructs the fully filled matrix from a coloring
    /// (paper §V-D) and returns it as a cube set: each row's stretches
    /// go through `splice_colored` as two mask splices apiece.
    ///
    /// Sites are row-major (the analysis emits them that way), so row
    /// chunks fan out across the pool and each worker walks its slice of
    /// sites/colors — disjoint rows, disjoint splices, and a result
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
        let mut matrix = self.prefilled.clone();
        let sites = &self.sites;
        let colors = coloring.colors();
        minipool::parallel_chunks_mut(matrix.packed_rows_mut(), 4, |start, rows| {
            let mut lo = sites.partition_point(|s| (s.row as usize) < start);
            for (r, row) in (start..).zip(rows.iter_mut()) {
                let hi = lo + sites[lo..].partition_point(|s| s.row as usize == r);
                splice_colored(row, 0, &sites[lo..hi], &colors[lo..hi]);
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
        assert_eq!(m.prefilled().x_count(), 0);
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
        let cubes = set(&["0X1X0", "1XX00", "X01XX", "0XXX1", "10X0X", "XX10X"]);
        let order = [2, 0, 3, 5, 1, 4];
        let direct = MatrixMapping::analyze_reordered(&cubes, &order);
        let via_set = MatrixMapping::analyze(&cubes.reordered(&order).unwrap());
        assert_eq!(direct.instance(), via_set.instance());
        assert_eq!(direct.sites(), via_set.sites());
        assert_eq!(direct.prefilled(), via_set.prefilled());
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
        assert_eq!(plain.prefilled(), via_objective.prefilled());
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
