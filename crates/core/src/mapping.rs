//! Mapping between test-cube matrices and BCP instances (paper §V-C/V-D).
//!
//! [`MatrixMapping::analyze`] runs the cube-major analyzer over the
//! packed cube set as one window — the same scan the streaming pipeline
//! runs window by window, with no transpose:
//!
//! * each `v X…X w` transition stretch (the one unavoidable toggle
//!   whose position is free) becomes one BCP [`Interval`](crate::Interval), recorded as
//!   its start and pin in `(end, pin)` order — the order every BCP sweep
//!   walks, so the solve reads the instance in place;
//! * *forced toggles* (adjacent opposite care bits) are tallied into the
//!   instance baseline.
//!
//! Every other `X` is *safe*: it takes the nearest care value to its
//! left and never toggles, so nothing is stored for it beyond each pin's
//! first care value. [`MatrixMapping::apply_coloring`] reconstructs the
//! filled set cube by cube (paper §V-D) through the kernel the streaming
//! emit pass also runs per window: a filled-value plane `F`, seeded with
//! each pin's first care value, fills cube `t` as
//! `F ← ((F ^ flips(t − 1)) & !C_t) | (V_t & C_t)`, where `flips(j)` are
//! the pins whose stretch the coloring gives color `j`. A stretch
//! colored `j` thus holds its left value through cube `j` and its right
//! value from cube `j + 1`.

use dpfill_cubes::packed::PackedBits;
use dpfill_cubes::{Bit, CubeSet};

use crate::bcp::{BcpInstance, Coloring};
use crate::objective::{FillObjective, ObjectiveError};
use crate::stream::analyze::{Analysis, Analyzer};

/// Each interval's pin, bucketed by its color: the pins whose filled
/// value flips at each transition.
#[derive(Clone, Debug, Default)]
pub(crate) struct Flips {
    pins: Vec<u32>,
    /// `pins[at[j]..at[j + 1]]` flip at transition `j` (empty: none).
    at: Vec<usize>,
}

impl Flips {
    /// Buckets `pins[i]` by `colors[i]` over `num_colors` colors.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ or a color is out of range.
    pub fn new(pins: &[u32], colors: &[u32], num_colors: usize) -> Flips {
        assert_eq!(
            colors.len(),
            pins.len(),
            "coloring does not match interval count"
        );
        let (pins, at) = bucket(colors, num_colors, |i| pins[i]);
        Flips { pins, at }
    }

    /// Bytes held: 4 B per flip and 8 B per transition.
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        (self.pins.len() * size_of::<u32>() + self.at.len() * size_of::<usize>()) as u64
    }

    /// Applies the flips of the transition into cube `t` to `plane`.
    fn apply(&self, t: usize, plane: &mut [u64]) {
        if let Some(&[lo, hi]) = t.checked_sub(1).and_then(|j| self.at.get(j..j + 2)) {
            for &pin in &self.pins[lo..hi] {
                plane[pin as usize / 64] ^= 1 << (pin % 64);
            }
        }
    }
}

/// Advances the filled-value plane `carry` (the plane after cube
/// `t0 − 1`, or each pin's first care value before any) over `cubes`,
/// cubes `t0..` of the set: the flips into each cube, then its care
/// bits. The plane after a cube is that cube filled.
pub(crate) fn advance(cubes: &[PackedBits], t0: usize, carry: &mut [u64], flips: &Flips) {
    for (t, cube) in (t0..).zip(cubes) {
        flips.apply(t, carry);
        let planes = cube.care_words().iter().zip(cube.value_words());
        for (f, (&care, &val)) in carry.iter_mut().zip(planes) {
            *f = (*f & !care) | val;
        }
    }
}

/// Fills `cubes` in place while [`advance`]-ing `carry` over them.
pub(crate) fn fill_cubes(cubes: &mut [PackedBits], t0: usize, carry: &mut [u64], flips: &Flips) {
    for (t, cube) in (t0..).zip(cubes) {
        advance(std::slice::from_ref(cube), t, carry, flips);
        cube.fill_x_from_words(|w| carry[w]);
    }
}

/// Each pin's first care value over `cubes` of `width` pins, one bit per
/// pin (zero for an all-`X` pin).
pub(crate) fn first_values(cubes: &[PackedBits], width: usize) -> Vec<u64> {
    let words = width.div_ceil(64);
    let (mut first, mut seen) = (vec![0u64; words], vec![0u64; words]);
    for cube in cubes {
        let planes = cube.care_words().iter().zip(cube.value_words());
        for ((f, s), (&care, &val)) in first.iter_mut().zip(seen.iter_mut()).zip(planes) {
            *f |= val & care & !*s;
            *s |= care;
        }
    }
    first
}

/// The value a vector's leading `X`-run copies: its first care value,
/// or zero when it has none.
pub(crate) fn leading_value(bits: &PackedBits) -> bool {
    bits.first_care().is_some_and(|i| bits.get(i) == Bit::One)
}

/// A stable counting sort: `value(i)` for every `i`, grouped by
/// `keys[i] < buckets`, and the offset of each group (one more than
/// `buckets`).
fn bucket(keys: &[u32], buckets: usize, value: impl Fn(usize) -> u32) -> (Vec<u32>, Vec<usize>) {
    let mut at = vec![0usize; buckets + 1];
    for &k in keys {
        at[k as usize + 1] += 1;
    }
    for b in 1..at.len() {
        at[b] += at[b - 1];
    }
    let (mut next, mut out) = (at.clone(), vec![0u32; keys.len()]);
    for (i, &k) in keys.iter().enumerate() {
        out[next[k as usize]] = value(i);
        next[k as usize] += 1;
    }
    (out, at)
}

/// The interval indices of `pins` (in `(end, pin)` order) in `(pin,
/// start)` order, over `width` pins: the order the preference shift
/// walks.
pub(crate) fn pin_order(pins: &[u32], width: usize) -> Vec<u32> {
    bucket(pins, width, |i| i as u32).0
}

/// Per-interval shift desires toward `preferred[pin]` for
/// [`BcpInstance::shift_within_slack`]: `+1` favors a late toggle (hold
/// the left value), `-1` an early one, `0` no preference.
pub(crate) fn desires(pins: &[u32], lefts: &[bool], preferred: &[Bit]) -> Vec<i8> {
    pins.iter()
        .zip(lefts)
        .map(|(&pin, &left)| match preferred[pin as usize] {
            Bit::X => 0,
            p if p == Bit::from_bool(left) => 1,
            _ => -1,
        })
        .collect()
}

/// The BCP instance of an analysis, in its `(end, pin)` order: interval
/// `i` charged `weights[pins[i]]` (unit when `None`), over the forced
/// baseline. Takes the intervals and the baseline.
pub(crate) fn instance(analysis: &mut Analysis, weights: Option<&[u64]>) -> BcpInstance {
    let loads = weights.map_or_else(Vec::new, |w| {
        analysis.pins.iter().map(|&p| w[p as usize]).collect()
    });
    let intervals = std::mem::take(&mut analysis.intervals);
    BcpInstance::with_intervals(intervals, std::mem::take(&mut analysis.baseline), loads)
}

/// The analyzed set: intervals extracted, forced toggles tallied, and
/// the input kept for the fill.
#[derive(Clone, Debug)]
pub struct MatrixMapping {
    cubes: CubeSet,
    instance: BcpInstance,
    /// The pin of each interval, aligned with the instance.
    pins: Vec<u32>,
    first_values: Vec<u64>,
    /// Secondary-objective shift direction per interval (aligned with
    /// the instance, see [`desires`]). Empty when the objective has no
    /// fill-value preference.
    desire: Vec<i8>,
    /// The analyzer's online unit bound (see [`Analysis::warm_lb`]).
    warm_lb: u64,
}

impl MatrixMapping {
    /// Analyzes a cube set (columns = cubes) per the paper's mapping:
    /// one cube-major scan of the packed planes, with pin words fanned
    /// out across the current [`minipool`] pool. The intervals, the
    /// baseline and the fill are bit-identical at any thread count and
    /// to any windowing of the same cubes.
    pub fn analyze(cubes: &CubeSet) -> MatrixMapping {
        Self::analyze_with(cubes, &FillObjective::default())
            .unwrap_or_else(|e| unreachable!("the default objective carries no table: {e}"))
    }

    /// [`MatrixMapping::analyze`] under a [`FillObjective`]: each
    /// interval carries the objective's fixed-point weight for its pin,
    /// forced toggles charge the weighted baseline, and the
    /// per-interval shift desires ([`MatrixMapping::desire`]) encode
    /// the fill-value preference. The scan itself is identical, so with
    /// the default objective this is exactly [`MatrixMapping::analyze`].
    ///
    /// # Errors
    ///
    /// Returns [`ObjectiveError::WidthMismatch`] when the weight table
    /// does not cover the set's pins, and [`ObjectiveError::Overflow`]
    /// when a weighted forced-toggle load exceeds `u64`.
    pub fn analyze_with(
        cubes: &CubeSet,
        objective: &FillObjective,
    ) -> Result<MatrixMapping, ObjectiveError> {
        objective.check_width(cubes.width())?;
        let weights = objective.weights();
        let preferred = objective.preferred();
        let mut analyzer = Analyzer::new(
            cubes.width(),
            weights.map(<[u64]>::to_vec),
            preferred.is_some(),
        );
        analyzer.ingest(cubes.as_packed().cubes());
        let mut analysis = analyzer.finish();
        if analysis.overflow {
            return Err(ObjectiveError::Overflow {
                what: "weighted forced-toggle load on one transition",
            });
        }
        let instance = instance(&mut analysis, weights);
        let desire = preferred.map_or_else(Vec::new, |preferred| {
            desires(&analysis.pins, &analysis.lefts, preferred)
        });
        Ok(MatrixMapping {
            cubes: cubes.clone(),
            instance,
            pins: analysis.pins,
            first_values: analysis.first_values,
            desire,
            warm_lb: analysis.warm_lb,
        })
    }

    /// Per-interval shift desires for the objective's fill-value
    /// preference (aligned with `instance().intervals()`; empty when
    /// the objective has none). Feed to
    /// [`BcpInstance::shift_within_slack`] with the solved peak.
    pub fn desire(&self) -> &[i8] {
        &self.desire
    }

    /// The BCP instance extracted from the set, its intervals in
    /// `(end, pin)` order.
    pub fn instance(&self) -> &BcpInstance {
        &self.instance
    }

    /// The pin of each interval, aligned with `instance().intervals()`.
    pub(crate) fn pins(&self) -> &[u32] {
        &self.pins
    }

    /// The analyzer's online unit-load bound: a valid
    /// [`SolveOptions::warm_lb`](crate::SolveOptions::warm_lb).
    pub(crate) fn warm_lb(&self) -> u64 {
        self.warm_lb
    }

    /// The order DP-fill's preference shift visits the intervals in:
    /// by pin, then by start.
    pub(crate) fn shift_order(&self) -> Vec<u32> {
        pin_order(&self.pins, self.cubes.width())
    }

    /// Number of forced toggles summed over all transitions.
    pub fn forced_total(&self) -> u64 {
        self.instance.baseline().iter().sum()
    }

    /// Reconstructs the fully filled set from a coloring (paper §V-D):
    /// the coloring's pins are bucketed by color, then one cube-major
    /// sweep of the filled-value plane fills every cube (see the module
    /// docs), starting from each pin's first care value.
    ///
    /// # Panics
    ///
    /// Panics if the coloring does not match the instance (wrong length
    /// or out-of-window colors) — obtain colorings from the BCP solvers,
    /// which guarantee validity.
    pub fn apply_coloring(&self, coloring: &Coloring) -> CubeSet {
        let colors = coloring.colors();
        assert_eq!(
            colors.len(),
            self.pins.len(),
            "coloring does not match interval count"
        );
        for (iv, &color) in self.instance.intervals().iter().zip(colors) {
            assert!(iv.contains(color), "color {color} outside interval {iv}");
        }
        let flips = Flips::new(&self.pins, colors, self.instance.num_colors());
        let mut filled = self.cubes.clone();
        let mut carry = self.first_values.clone();
        fill_cubes(filled.packed_cubes_mut(), 0, &mut carry, &flips);
        debug_assert_eq!(filled.x_count(), 0, "all X bits must be filled");
        filled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Interval;
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
        assert_eq!(m.pins(), &[0]);
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
        assert_eq!(m.instance().intervals(), &[Interval::new(0, 1)]);
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
        assert_eq!(plain.pins(), via_objective.pins());
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
