//! DP-fill: the paper's optimal X-filling algorithm.
//!
//! One cube-major scan (see [`MatrixMapping`], pin words on the current
//! [`minipool`] pool) hands the BCP solve its intervals in `(end, pin)`
//! order: the solve certifies the parametric lower bound and colors in
//! one earliest-fit sweep in that order, with no sort (see
//! [`crate::bcp`]); the §V-D reconstruction fills cube by cube from the
//! colored pins. The filled set is bit-identical at any thread count.

use std::error::Error;
use std::fmt;

use dpfill_cubes::CubeSet;

use crate::bcp::{BcpError, BcpSolution, SolveOptions};
use crate::mapping::MatrixMapping;
use crate::objective::{FillObjective, ObjectiveError};

use super::FillStrategy;

/// What failed inside a DP-fill run.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum FillErrorSource {
    /// The internal BCP solve failed.
    Solve(BcpError),
    /// The fill objective does not fit the input (bad weight table
    /// width, weighted load overflow).
    Objective(ObjectiveError),
}

impl fmt::Display for FillErrorSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FillErrorSource::Solve(e) => e.fmt(f),
            FillErrorSource::Objective(e) => e.fmt(f),
        }
    }
}

/// Typed failure from DP-fill's internal BCP solve or objective
/// application.
///
/// [`MatrixMapping`] always produces instances the solvers can color at
/// their lower bound (Hall's condition holds for unit jobs with interval
/// windows — see `mapping_instances_are_always_solvable` in the tests),
/// so the [`FillErrorSource::Solve`] arm is unreachable through the
/// public entry points unless that invariant is broken by a solver bug.
/// [`FillErrorSource::Objective`] is reachable: a weight table that does
/// not cover the input's pins is a user error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DpFillError {
    /// The underlying error.
    pub source: FillErrorSource,
    /// Shape of the offending input (`cubes`, `pins`).
    pub shape: (usize, usize),
}

impl fmt::Display for DpFillError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DP-fill failed on a {}x{} cube set: {}",
            self.shape.0, self.shape.1, self.source
        )
    }
}

impl Error for DpFillError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match &self.source {
            FillErrorSource::Solve(e) => Some(e),
            FillErrorSource::Objective(e) => Some(e),
        }
    }
}

/// Which BCP solver DP-fill runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DpMode {
    /// Baseline-aware solver: optimal for the true objective
    /// `max_j hd(T_j, T_{j+1})` including forced toggles (default).
    #[default]
    Exact,
    /// The paper's Algorithms 1+2 verbatim: forced toggles are ignored
    /// during optimization. Identical to [`DpMode::Exact`] whenever no
    /// row has adjacent opposite care bits.
    PaperExact,
}

/// The paper's contribution: optimal X-filling for peak-toggle
/// minimization via the Bottleneck Coloring Problem.
///
/// The pipeline is: matrix analysis ([`MatrixMapping`]) → lower bound
/// (Algorithm 1, generalized when [`DpMode::Exact`]) → earliest-deadline
/// coloring (Algorithm 2 / EDF) → reconstruction (§V-D).
///
/// # Example
///
/// ```
/// use dpfill_core::fill::{DpFill, FillStrategy};
/// use dpfill_cubes::{peak_toggles, CubeSet};
///
/// let cubes = CubeSet::parse_rows(&["00", "XX", "11"]).unwrap();
/// let report = DpFill::new().run(&cubes);
/// assert_eq!(report.peak, 1); // the two toggles spread over 2 transitions
/// assert_eq!(peak_toggles(&report.filled).unwrap(), 1);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DpFill {
    mode: DpMode,
    objective: FillObjective,
}

impl Default for DpFill {
    fn default() -> DpFill {
        DpFill::new()
    }
}

/// Everything DP-fill knows after solving one cube set.
#[derive(Clone, Debug)]
pub struct DpFillReport {
    /// The filled patterns.
    pub filled: CubeSet,
    /// Achieved peak toggles `max_j hd(T_j, T_{j+1})` (with forced
    /// toggles counted). Under the default objective this is what the
    /// solver minimized; under a weighted objective it is the measured
    /// unweighted peak of the weighted-optimal fill (reported for
    /// comparison, not itself minimized).
    pub peak: u64,
    /// The certified lower bound in objective units (equals
    /// `objective_peak` in [`DpMode::Exact`] when the solver certified
    /// optimality).
    pub lower_bound: u64,
    /// Number of BCP intervals (transition stretches).
    pub interval_count: usize,
    /// Total forced toggles (baseline sum).
    pub forced_toggles: u64,
    /// Achieved peak in *objective units* — fixed-point weighted toggle
    /// load under a weighted objective, identical to `peak` under the
    /// default one.
    pub objective_peak: u64,
    /// The underlying BCP solution.
    pub solution: BcpSolution,
}

impl DpFill {
    /// DP-fill in the default (baseline-aware, exact) mode.
    pub fn new() -> DpFill {
        DpFill::with_mode(DpMode::Exact)
    }

    /// DP-fill with an explicit solver mode.
    pub fn with_mode(mode: DpMode) -> DpFill {
        DpFill {
            mode,
            objective: FillObjective::default(),
        }
    }

    /// Overrides the fill objective. The default ([`FillObjective::peak_toggles`])
    /// reproduces the paper's unweighted metric byte-for-byte; weighted
    /// objectives change which fill is optimal. Under
    /// [`DpMode::PaperExact`] the weights still charge the instance but
    /// the paper solver optimizes the unweighted interval count
    /// verbatim — use [`DpMode::Exact`] for weighted optimality.
    pub fn with_objective(mut self, objective: FillObjective) -> DpFill {
        self.objective = objective;
        self
    }

    /// The configured mode.
    pub fn mode(&self) -> DpMode {
        self.mode
    }

    /// The configured fill objective.
    pub fn objective(&self) -> &FillObjective {
        &self.objective
    }

    /// Fills `cubes` and returns the full report (filled set, peak,
    /// optimality certificate), propagating solver failures as a typed
    /// [`DpFillError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`DpFillError`] if the objective does not fit the input
    /// (wrong weight-table width, weighted load overflow) or if the
    /// internal BCP solve fails. The solve arm is unreachable for
    /// instances produced by [`MatrixMapping`] (the documented
    /// invariant, exercised by the randomized totality test); it exists
    /// so production callers on untrusted or very wide inputs degrade
    /// gracefully.
    pub fn try_run(&self, cubes: &CubeSet) -> Result<DpFillReport, DpFillError> {
        let shape = (cubes.len(), cubes.width());
        let fill_error = |source| DpFillError { source, shape };
        let mapping = MatrixMapping::analyze_with(cubes, &self.objective)
            .map_err(|e| fill_error(FillErrorSource::Objective(e)))?;
        let instance = mapping.instance();
        let mut solution = match self.mode {
            // The analyzer's online ladder is the solve's own warm start.
            DpMode::Exact => instance.solve_with(&SolveOptions {
                warm_lb: Some(mapping.warm_lb()),
            }),
            DpMode::PaperExact => instance.solve_paper(),
        }
        .map_err(|e| fill_error(FillErrorSource::Solve(e)))?;
        if !mapping.desire().is_empty() {
            // Secondary objective: slide intervals toward their
            // preferred rest value without raising the achieved peak,
            // visiting them by pin, then by start.
            instance
                .shift_solution(&mut solution, mapping.desire(), &mapping.shift_order())
                .map_err(|e| fill_error(FillErrorSource::Solve(e)))?;
        }
        let filled = mapping.apply_coloring(&solution.coloring);
        let objective_peak = solution.peak.with_baseline;
        let peak = if self.objective.is_unit() {
            objective_peak
        } else {
            dpfill_cubes::peak_toggles(&filled).map_or(0, |p| p as u64)
        };
        Ok(DpFillReport {
            peak,
            lower_bound: solution.lower_bound,
            interval_count: instance.intervals().len(),
            forced_toggles: mapping.forced_total(),
            objective_peak,
            solution,
            filled,
        })
    }

    /// Infallible convenience wrapper over [`DpFill::try_run`].
    ///
    /// # Panics
    ///
    /// Panics only if the [`MatrixMapping`] solvability invariant is
    /// broken (a solver bug); use [`DpFill::try_run`] to handle that
    /// condition as a value instead.
    pub fn run(&self, cubes: &CubeSet) -> DpFillReport {
        self.try_run(cubes)
            .unwrap_or_else(|e| panic!("DP-fill invariant violated: {e}"))
    }
}

impl FillStrategy for DpFill {
    fn name(&self) -> &'static str {
        "DP-fill"
    }

    fn fill(&self, cubes: &CubeSet) -> CubeSet {
        self.run(cubes).filled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpfill_cubes::{gen::random_cube_set, peak_toggles, Bit, TestCube};

    #[test]
    fn report_certificate_matches_measured_peak() {
        let cubes = CubeSet::parse_rows(&["0X1X0", "1XX00", "X01XX", "0XXX1"]).unwrap();
        let report = DpFill::new().run(&cubes);
        assert!(CubeSet::is_filling_of(&report.filled, &cubes));
        assert_eq!(
            report.peak,
            peak_toggles(&report.filled).unwrap() as u64,
            "certificate must equal measured peak"
        );
        assert_eq!(report.peak, report.lower_bound);
    }

    #[test]
    fn exact_mode_beats_or_ties_paper_mode_on_true_objective() {
        // A forced toggle (row "01") plus a flexible interval: the paper
        // mode may stack them, the exact mode must not.
        let cubes = CubeSet::parse_rows(&["00X", "1XX", "X10"]).unwrap();
        let exact = DpFill::with_mode(DpMode::Exact).run(&cubes);
        let paper = DpFill::with_mode(DpMode::PaperExact).run(&cubes);
        let exact_peak = peak_toggles(&exact.filled).unwrap();
        let paper_peak = peak_toggles(&paper.filled).unwrap();
        assert!(exact_peak <= paper_peak);
    }

    #[test]
    fn modes_agree_without_forced_toggles() {
        // No pin row has adjacent opposite care bits (pin rows here:
        // 0X1X, 1XX0, X0X1, X1XX — all separated by at least one X).
        let cubes = CubeSet::parse_rows(&["01XX", "XX01", "1XXX", "X01X"]).unwrap();
        let exact = DpFill::with_mode(DpMode::Exact).run(&cubes);
        let paper = DpFill::with_mode(DpMode::PaperExact).run(&cubes);
        assert_eq!(exact.forced_toggles, 0);
        assert_eq!(
            peak_toggles(&exact.filled).unwrap(),
            peak_toggles(&paper.filled).unwrap()
        );
    }

    #[test]
    fn optimal_on_brute_force_small_sets() {
        // Exhaustively fill every X assignment and compare peaks.
        for seed in 0..12u64 {
            let cubes = random_cube_set(4, 4, 0.5, seed);
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
            if x_positions.len() > 14 {
                continue; // keep the exhaustive search small
            }
            let mut best = usize::MAX;
            for mask in 0u32..(1 << x_positions.len()) {
                let mut filled: Vec<TestCube> = cubes.iter().collect();
                for (bit, &(ci, pi)) in x_positions.iter().enumerate() {
                    filled[ci].set(pi, Bit::from_bool(mask >> bit & 1 == 1));
                }
                let set = CubeSet::from_cubes(filled).unwrap();
                best = best.min(peak_toggles(&set).unwrap());
            }
            let dp = DpFill::new().run(&cubes);
            assert_eq!(
                dp.peak as usize, best,
                "seed {seed}: DP-fill peak {} vs brute force {best}",
                dp.peak
            );
        }
    }

    #[test]
    fn trivial_sets() {
        let empty = CubeSet::new(3);
        let r = DpFill::new().run(&empty);
        assert_eq!(r.peak, 0);
        assert!(r.filled.is_empty());

        let single = CubeSet::parse_rows(&["X0X"]).unwrap();
        let r = DpFill::new().run(&single);
        assert_eq!(r.peak, 0);
        assert!(r.filled.is_fully_specified());

        let fully = CubeSet::parse_rows(&["01", "10"]).unwrap();
        let r = DpFill::new().run(&fully);
        assert_eq!(r.peak, 2);
        assert_eq!(r.interval_count, 0);
        assert_eq!(r.forced_toggles, 2);
    }

    #[test]
    fn name() {
        assert_eq!(DpFill::new().name(), "DP-fill");
    }

    #[test]
    fn mapping_instances_are_always_solvable() {
        // The documented totality invariant behind `run`: whatever the
        // shape or X structure — including widths beyond one plane word
        // and all-X sets — `try_run` must return Ok in both modes.
        for seed in 0..20u64 {
            let width = 1 + (seed as usize * 17) % 140;
            let count = 1 + (seed as usize * 7) % 40;
            let density = [0.0, 0.3, 0.5, 0.8, 1.0][seed as usize % 5];
            let cubes = random_cube_set(width, count, density, seed);
            for mode in [DpMode::Exact, DpMode::PaperExact] {
                let report = DpFill::with_mode(mode)
                    .try_run(&cubes)
                    .unwrap_or_else(|e| panic!("seed {seed} {mode:?}: {e}"));
                assert!(CubeSet::is_filling_of(&report.filled, &cubes));
            }
        }
    }

    #[test]
    fn error_type_is_displayable_and_sourced() {
        use std::error::Error as _;
        let err = DpFillError {
            source: FillErrorSource::Solve(crate::bcp::BcpError::Infeasible { peak: 3, color: 7 }),
            shape: (10, 20),
        };
        let msg = err.to_string();
        assert!(msg.contains("10x20") && msg.contains("peak 3"), "{msg}");
        assert!(err.source().is_some());
        let err = DpFillError {
            source: FillErrorSource::Objective(ObjectiveError::WidthMismatch {
                expected: 20,
                found: 3,
            }),
            shape: (10, 20),
        };
        let msg = err.to_string();
        assert!(msg.contains("10x20") && msg.contains("3 pins"), "{msg}");
        assert!(err.source().is_some());
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DpFillError>();
    }

    #[test]
    fn objective_width_mismatch_is_a_typed_fill_error() {
        let cubes = CubeSet::parse_rows(&["0XX1", "1XXX"]).unwrap();
        let table = crate::objective::WeightTable::new(vec![1, 2], None).unwrap();
        let err = DpFill::new()
            .with_objective(crate::objective::FillObjective::weighted(table))
            .try_run(&cubes)
            .unwrap_err();
        assert!(matches!(
            err.source,
            FillErrorSource::Objective(ObjectiveError::WidthMismatch {
                expected: 4,
                found: 2
            })
        ));
        assert_eq!(err.shape, (2, 4));
    }

    #[test]
    fn default_objective_report_is_unchanged() {
        // The explicit default objective must be a no-op: identical
        // bytes, identical certificate, objective_peak == peak.
        for seed in 0..8u64 {
            let cubes = random_cube_set(9, 12, 0.6, seed);
            let plain = DpFill::new().run(&cubes);
            let with_default = DpFill::new()
                .with_objective(crate::objective::FillObjective::peak_toggles())
                .run(&cubes);
            assert_eq!(plain.filled, with_default.filled, "seed {seed}");
            assert_eq!(plain.peak, with_default.peak);
            assert_eq!(with_default.objective_peak, with_default.peak);
        }
    }

    #[test]
    fn weighted_objective_minimizes_the_weighted_peak() {
        use crate::objective::{FillObjective, WeightTable};
        // Pin 0 is 100x as expensive as the rest: the weighted fill
        // must keep pin-0 toggles out of the busiest transition even
        // when the unweighted fill would not bother.
        for seed in 0..10u64 {
            let cubes = random_cube_set(5, 6, 0.6, seed);
            let table = WeightTable::new(vec![100, 1, 1, 1, 1], None).unwrap();
            let report = DpFill::new()
                .with_objective(FillObjective::weighted(table.clone()))
                .run(&cubes);
            assert!(CubeSet::is_filling_of(&report.filled, &cubes));
            // The bound is in objective units and bounds from below
            // (the weighted bound is the fractional relaxation, so
            // equality is not guaranteed the way it is for unit loads).
            assert!(report.lower_bound <= report.objective_peak, "seed {seed}");
            // The report matches the weighted peak measured on the bytes.
            let measured =
                dpfill_cubes::weighted_peak_toggles(&report.filled, table.weights()).unwrap();
            assert_eq!(report.objective_peak, measured, "seed {seed}");
            // The unweighted peak of the weighted fill can't beat the
            // unweighted optimum.
            let unweighted = DpFill::new().run(&cubes);
            assert!(report.peak >= unweighted.peak);
            // And the weighted fill is truly weighted-optimal: check
            // against exhaustive enumeration of every X assignment.
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
            if x_positions.len() > 14 {
                continue;
            }
            let mut best = u64::MAX;
            for mask in 0u32..(1 << x_positions.len()) {
                let mut filled: Vec<TestCube> = cubes.iter().collect();
                for (bit, &(ci, pi)) in x_positions.iter().enumerate() {
                    filled[ci].set(pi, Bit::from_bool(mask >> bit & 1 == 1));
                }
                let set = CubeSet::from_cubes(filled).unwrap();
                best =
                    best.min(dpfill_cubes::weighted_peak_toggles(&set, table.weights()).unwrap());
            }
            assert_eq!(report.objective_peak, best, "seed {seed}");
        }
    }

    #[test]
    fn preference_tie_break_keeps_the_peak_and_biases_rest_values() {
        use crate::objective::{FillObjective, WeightTable};
        for seed in 0..10u64 {
            let cubes = random_cube_set(6, 8, 0.5, seed);
            let width = cubes.width();
            let baseline = DpFill::new().run(&cubes);
            for bit in [Bit::Zero, Bit::One] {
                let table = WeightTable::new(vec![1; width], Some(vec![bit; width])).unwrap();
                let report = DpFill::new()
                    .with_objective(FillObjective::leakage(table))
                    .run(&cubes);
                assert!(CubeSet::is_filling_of(&report.filled, &cubes));
                // Unit weights: the tie-break must not raise the peak.
                assert_eq!(report.peak, baseline.peak, "seed {seed} {bit:?}");
                assert_eq!(report.objective_peak, report.peak);
            }
        }
    }
}
