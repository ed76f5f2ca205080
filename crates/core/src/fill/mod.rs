//! X-filling strategies (the columns of the paper's Tables II–IV).
//!
//! Every strategy consumes a [`CubeSet`] with don't-cares and returns a
//! fully specified set *containing* the original (care bits are never
//! modified — verified by [`CubeSet::is_filling_of`] in the tests, since
//! flipping a care bit would destroy fault detection).
//!
//! | Strategy | Idea |
//! |----------|------|
//! | [`ZeroFill`]/[`OneFill`] | constants |
//! | [`RandomFill`] | seeded random bits |
//! | [`MtFill`] | minimum-transition temporal fill: copy the previous care value along each pin row |
//! | [`AdjFill`] | scan-chain adjacent fill (within each cube), per Wu et al. \[21\] |
//! | [`BFill`] | balanced greedy: place each stretch toggle on the lightest admissible transition |
//! | [`XStatFill`] | two-phase statistical fill, per Trinadh et al. \[22\] |
//! | [`DpFill`] | the paper's optimal dynamic-programming fill |

mod bfill;
mod dp;
mod simple;
mod xstat;

pub use bfill::BFill;
pub use dp::{DpFill, DpFillError, DpFillReport, DpMode, FillErrorSource};
pub use simple::{AdjFill, MtFill, OneFill, RandomFill, ZeroFill};
pub use xstat::XStatFill;

use dpfill_cubes::CubeSet;

/// An X-filling strategy.
///
/// Implementations must return a set of the same shape with every `X`
/// replaced by a care bit and every original care bit preserved.
pub trait FillStrategy {
    /// Short name used in reports ("DP-fill", "0-fill", …).
    fn name(&self) -> &'static str;

    /// Fills every don't-care of `cubes`.
    fn fill(&self, cubes: &CubeSet) -> CubeSet;
}

/// The fill methods compared in the paper's tables, as a convenient enum
/// for sweeping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FillMethod {
    /// Minimum-transition (temporal adjacent) fill.
    Mt,
    /// Random fill with the given seed.
    Random(u64),
    /// All zeros.
    Zero,
    /// All ones.
    One,
    /// Balanced bottleneck greedy.
    B,
    /// DP-fill (optimal), baseline-aware.
    Dp,
    /// XStat two-phase fill \[22\].
    XStat,
    /// Scan-chain adjacent fill \[21\].
    Adj,
}

impl FillMethod {
    /// The six fills of Tables II–IV, in column order.
    pub const TABLE_COLUMNS: [FillMethod; 6] = [
        FillMethod::Mt,
        FillMethod::Random(0xD0E5_F111),
        FillMethod::Zero,
        FillMethod::One,
        FillMethod::B,
        FillMethod::Dp,
    ];

    /// Column header used in the paper.
    pub fn label(self) -> &'static str {
        match self {
            FillMethod::Mt => "MT-fill",
            FillMethod::Random(_) => "R-fill",
            FillMethod::Zero => "0-fill",
            FillMethod::One => "1-fill",
            FillMethod::B => "B-fill",
            FillMethod::Dp => "DP-fill",
            FillMethod::XStat => "XStat",
            FillMethod::Adj => "Adj-fill",
        }
    }

    /// Runs the fill.
    pub fn fill(self, cubes: &CubeSet) -> CubeSet {
        self.fill_with(cubes, &crate::objective::FillObjective::default())
    }

    /// Runs the fill under an explicit
    /// [`FillObjective`](crate::objective::FillObjective).
    ///
    /// Only DP-fill consumes the objective (it is the only optimizer
    /// here); the heuristic fills are objective-blind and produce the
    /// same bytes for every objective — the sweeps then *score* them
    /// under the objective's weights. The default objective is
    /// byte-identical to [`FillMethod::fill`].
    ///
    /// # Panics
    ///
    /// Panics when the objective does not fit `cubes` (weight-table
    /// width mismatch); validate with
    /// [`FillObjective::check_width`](crate::objective::FillObjective::check_width)
    /// first on untrusted tables.
    pub fn fill_with(
        self,
        cubes: &CubeSet,
        objective: &crate::objective::FillObjective,
    ) -> CubeSet {
        match self {
            FillMethod::Mt => MtFill.fill(cubes),
            FillMethod::Random(seed) => RandomFill::new(seed).fill(cubes),
            FillMethod::Zero => ZeroFill.fill(cubes),
            FillMethod::One => OneFill.fill(cubes),
            FillMethod::B => BFill.fill(cubes),
            FillMethod::Dp => DpFill::new().with_objective(objective.clone()).fill(cubes),
            FillMethod::XStat => XStatFill.fill(cubes),
            FillMethod::Adj => AdjFill.fill(cubes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpfill_cubes::peak_toggles;

    fn sample() -> CubeSet {
        CubeSet::parse_rows(&["0X1X", "XX0X", "1X0X", "X1XX", "0XX1"]).unwrap()
    }

    #[test]
    fn all_methods_produce_legal_fillings() {
        let cubes = sample();
        let methods = [
            FillMethod::Mt,
            FillMethod::Random(7),
            FillMethod::Zero,
            FillMethod::One,
            FillMethod::B,
            FillMethod::Dp,
            FillMethod::XStat,
            FillMethod::Adj,
        ];
        for m in methods {
            let filled = m.fill(&cubes);
            assert!(
                CubeSet::is_filling_of(&filled, &cubes),
                "{} broke the filling contract",
                m.label()
            );
        }
    }

    #[test]
    fn dp_fill_is_never_worse_than_others() {
        let cubes = sample();
        let dp_peak = peak_toggles(&FillMethod::Dp.fill(&cubes)).unwrap();
        for m in FillMethod::TABLE_COLUMNS {
            let peak = peak_toggles(&m.fill(&cubes)).unwrap();
            assert!(
                dp_peak <= peak,
                "DP-fill peak {dp_peak} worse than {} peak {peak}",
                m.label()
            );
        }
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<&str> = FillMethod::TABLE_COLUMNS
            .iter()
            .map(|m| m.label())
            .collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 6);
    }
}
