//! End-to-end ordering + filling pipelines — the "techniques" compared in
//! the paper's Tables V and VI.

use dpfill_cubes::CubeSet;

use crate::fill::FillMethod;
use crate::objective::{FillObjective, ObjectiveError};
use crate::ordering::OrderingMethod;

/// One ordering + one fill, evaluated together.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Technique {
    /// The vector ordering applied first.
    pub ordering: OrderingMethod,
    /// The X-fill applied to the reordered cubes.
    pub fill: FillMethod,
}

/// The outcome of running a [`Technique`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TechniqueResult {
    /// Permutation applied to the input cubes.
    pub order: Vec<usize>,
    /// The reordered, fully filled patterns.
    pub filled: CubeSet,
    /// Peak input toggles `max_j hd(T_j, T_{j+1})`.
    pub peak: usize,
    /// Peak in objective units (fixed-point weighted toggles under a
    /// weighted objective; equals `peak` under the default).
    pub objective_peak: u64,
    /// Per-transition toggle profile.
    pub profile: Vec<usize>,
}

impl Technique {
    /// Creates a technique.
    pub fn new(ordering: OrderingMethod, fill: FillMethod) -> Technique {
        Technique { ordering, fill }
    }

    /// The paper's proposed technique: I-ordering + DP-fill.
    pub fn proposed() -> Technique {
        Technique::new(OrderingMethod::Interleaved, FillMethod::Dp)
    }

    /// Reconstruction of Girard et al. \[20\]: SA ordering of MT-filled
    /// vectors.
    pub fn isa(seed: u64) -> Technique {
        Technique::new(OrderingMethod::Isa(seed), FillMethod::Mt)
    }

    /// Reconstruction of Wu et al. \[21\]: tool order + scan-chain
    /// adjacent fill.
    pub fn adj_fill() -> Technique {
        Technique::new(OrderingMethod::Tool, FillMethod::Adj)
    }

    /// Reconstruction of Trinadh et al. \[22\]: XStat ordering + XStat
    /// fill.
    pub fn xstat() -> Technique {
        Technique::new(OrderingMethod::XStat, FillMethod::XStat)
    }

    /// A display label like `"I-order + DP-fill"`.
    pub fn label(&self) -> String {
        format!("{} + {}", self.ordering.label(), self.fill.label())
    }

    /// Orders, fills and measures `cubes`.
    ///
    /// # Panics
    ///
    /// Panics on an empty cube set (there is no toggle profile to
    /// report); callers filter empty pattern sets earlier. Ordering
    /// errors are unreachable for table-scale inputs (the bottleneck
    /// load model only overflows `u64` on absurd widths).
    pub fn evaluate(&self, cubes: &CubeSet) -> TechniqueResult {
        self.evaluate_with(cubes, &FillObjective::default())
            .unwrap_or_else(|e| unreachable!("the default objective always fits: {e}"))
    }

    /// Orders, fills and measures `cubes` under an explicit
    /// [`FillObjective`]: DP-fill optimizes it, the heuristic fills are
    /// objective-blind, and every technique is *scored* in objective
    /// units ([`TechniqueResult::objective_peak`]). The default
    /// objective reproduces [`Technique::evaluate`] byte for byte.
    ///
    /// # Errors
    ///
    /// [`ObjectiveError::WidthMismatch`] when the objective's weight
    /// table does not cover `cubes`' pins, [`ObjectiveError::Overflow`]
    /// when weighted scoring overflows `u64`.
    ///
    /// # Panics
    ///
    /// Panics on an empty cube set, like [`Technique::evaluate`].
    pub fn evaluate_with(
        &self,
        cubes: &CubeSet,
        objective: &FillObjective,
    ) -> Result<TechniqueResult, ObjectiveError> {
        assert!(!cubes.is_empty(), "cannot evaluate an empty cube set");
        objective.check_width(cubes.width())?;
        let order = self
            .ordering
            .order(cubes)
            .unwrap_or_else(|e| unreachable!("table-scale bounds fit u64: {e}"));
        let reordered = cubes
            .reordered(&order)
            .unwrap_or_else(|e| unreachable!("ordering strategies return permutations: {e}"));
        let filled = self.fill.fill_with(&reordered, objective);
        debug_assert!(CubeSet::is_filling_of(&filled, &reordered));
        // Both metrics come straight off the filled set's packed planes.
        let profile = filled.as_packed().toggle_profile();
        let peak = profile.iter().copied().max().unwrap_or(0);
        let objective_peak = objective_score(&filled, objective, peak)?;
        Ok(TechniqueResult {
            order,
            filled,
            peak,
            objective_peak,
            profile,
        })
    }
}

/// Scores a filled set in objective units: the unit peak verbatim for
/// unit weights, one weighted popcount sweep otherwise.
fn objective_score(
    filled: &CubeSet,
    objective: &FillObjective,
    unit_peak: usize,
) -> Result<u64, ObjectiveError> {
    match objective.weights() {
        Some(weights) if !objective.is_unit() => filled
            .as_packed()
            .weighted_peak_toggles(weights)
            .map_err(|_| ObjectiveError::Overflow {
                what: "weighted peak-toggle score",
            }),
        _ => Ok(unit_peak as u64),
    }
}

/// Peak toggles of every fill under one ordering — one row of
/// Tables II/III/IV.
///
/// The reorder clones packed rows once; each fill then splices words on
/// its own copy of the planes and the peak is one popcount sweep — no
/// scalar cube set is rebuilt per technique.
pub fn sweep_fills(cubes: &CubeSet, ordering: OrderingMethod) -> Vec<(FillMethod, usize)> {
    assert!(!cubes.is_empty(), "cannot sweep an empty cube set");
    let order = ordering
        .order(cubes)
        .unwrap_or_else(|e| unreachable!("table-scale bounds fit u64: {e}"));
    let reordered = cubes
        .reordered(&order)
        .unwrap_or_else(|e| unreachable!("ordering strategies return permutations: {e}"));
    FillMethod::TABLE_COLUMNS
        .iter()
        .map(|&fill| {
            let filled = fill.fill(&reordered);
            let peak = filled.as_packed().peak_toggles();
            (fill, peak)
        })
        .collect()
}

/// Objective-scored peak of every fill under one ordering — one row of
/// the objective Pareto tables. DP-fill optimizes the objective; the
/// heuristic columns are objective-blind but scored in the same units,
/// so the row is directly comparable.
///
/// # Errors
///
/// [`ObjectiveError::WidthMismatch`] when the table does not cover the
/// pins, [`ObjectiveError::Overflow`] when weighted scoring overflows.
///
/// # Panics
///
/// Panics on an empty cube set, like [`sweep_fills`].
pub fn sweep_fills_with(
    cubes: &CubeSet,
    ordering: OrderingMethod,
    objective: &FillObjective,
) -> Result<Vec<(FillMethod, u64)>, ObjectiveError> {
    assert!(!cubes.is_empty(), "cannot sweep an empty cube set");
    objective.check_width(cubes.width())?;
    let order = ordering
        .order(cubes)
        .unwrap_or_else(|e| unreachable!("table-scale bounds fit u64: {e}"));
    let reordered = cubes
        .reordered(&order)
        .unwrap_or_else(|e| unreachable!("ordering strategies return permutations: {e}"));
    FillMethod::TABLE_COLUMNS
        .iter()
        .map(|&fill| {
            let filled = fill.fill_with(&reordered, objective);
            let unit_peak = filled.as_packed().peak_toggles();
            objective_score(&filled, objective, unit_peak).map(|score| (fill, score))
        })
        .collect()
}

/// The percentage improvement of `ours` over `theirs`, as printed in the
/// paper's Tables V/VI (negative when `ours` is worse).
pub fn percent_improvement(theirs: f64, ours: f64) -> f64 {
    if theirs == 0.0 {
        0.0
    } else {
        100.0 * (theirs - ours) / theirs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpfill_cubes::gen::CubeProfile;

    fn cubes() -> CubeSet {
        CubeProfile::new(32, 24).x_percent(80.0).generate(41)
    }

    #[test]
    fn proposed_beats_or_ties_every_fill_under_its_own_ordering() {
        // DP-fill's optimality guarantee is per ordering (the paper makes
        // the same caveat for cross-ordering comparisons in §VII).
        let cubes = cubes();
        let proposed = Technique::proposed().evaluate(&cubes);
        for (fill, peak) in sweep_fills(&cubes, OrderingMethod::Interleaved) {
            assert!(
                proposed.peak <= peak,
                "proposed {} vs I-order + {} = {peak}",
                proposed.peak,
                fill.label()
            );
        }
    }

    #[test]
    fn dp_fill_is_the_best_column_under_each_ordering() {
        let cubes = cubes();
        for ordering in [
            OrderingMethod::Tool,
            OrderingMethod::XStat,
            OrderingMethod::Interleaved,
        ] {
            let sweep = sweep_fills(&cubes, ordering);
            let dp = sweep
                .iter()
                .find(|(f, _)| matches!(f, FillMethod::Dp))
                .unwrap()
                .1;
            for (fill, peak) in &sweep {
                assert!(
                    dp <= *peak,
                    "{}: DP {dp} vs {} {peak}",
                    ordering.label(),
                    fill.label()
                );
            }
        }
    }

    #[test]
    fn result_profile_is_consistent() {
        let cubes = cubes();
        let r = Technique::xstat().evaluate(&cubes);
        assert_eq!(r.profile.len(), cubes.len() - 1);
        assert_eq!(*r.profile.iter().max().unwrap(), r.peak);
        assert_eq!(r.filled.len(), cubes.len());
    }

    #[test]
    fn labels() {
        assert_eq!(Technique::proposed().label(), "I-order + DP-fill");
        assert_eq!(Technique::adj_fill().label(), "Tool + Adj-fill");
    }

    #[test]
    fn default_objective_evaluation_is_identical() {
        let cubes = cubes();
        let plain = Technique::proposed().evaluate(&cubes);
        let explicit = Technique::proposed()
            .evaluate_with(&cubes, &FillObjective::default())
            .unwrap();
        assert_eq!(plain, explicit);
        assert_eq!(plain.objective_peak, plain.peak as u64);
    }

    #[test]
    fn weighted_sweep_keeps_dp_fill_the_best_column() {
        use crate::objective::WeightTable;
        let cubes = cubes();
        let width = cubes.width();
        let weights: Vec<u64> = (0..width).map(|i| 1 + (i as u64 % 7) * 9).collect();
        let objective = FillObjective::weighted(WeightTable::new(weights.clone(), None).unwrap());
        let sweep = sweep_fills_with(&cubes, OrderingMethod::Interleaved, &objective).unwrap();
        let dp = sweep
            .iter()
            .find(|(f, _)| matches!(f, FillMethod::Dp))
            .unwrap()
            .1;
        for (fill, score) in &sweep {
            assert!(dp <= *score, "weighted DP {dp} vs {} {score}", fill.label());
        }
        // The evaluated technique agrees with its sweep column.
        let result = Technique::proposed()
            .evaluate_with(&cubes, &objective)
            .unwrap();
        assert_eq!(result.objective_peak, dp);
        assert_eq!(
            result.objective_peak,
            result
                .filled
                .as_packed()
                .weighted_peak_toggles(&weights)
                .unwrap()
        );
    }

    #[test]
    fn objective_width_mismatch_is_reported_not_panicked() {
        use crate::objective::WeightTable;
        let cubes = cubes();
        let objective = FillObjective::weighted(WeightTable::new(vec![1, 2], None).unwrap());
        let err = Technique::proposed()
            .evaluate_with(&cubes, &objective)
            .unwrap_err();
        assert!(matches!(err, ObjectiveError::WidthMismatch { .. }));
        let err = sweep_fills_with(&cubes, OrderingMethod::Tool, &objective).unwrap_err();
        assert!(matches!(err, ObjectiveError::WidthMismatch { .. }));
    }

    #[test]
    fn percent_improvement_math() {
        assert!((percent_improvement(100.0, 75.0) - 25.0).abs() < 1e-12);
        assert!((percent_improvement(10.0, 20.0) + 100.0).abs() < 1e-12);
        assert_eq!(percent_improvement(0.0, 5.0), 0.0);
    }
}
