//! Test-vector orderings (the rows of the paper's Tables II–IV).
//!
//! Peak toggles are measured between *consecutive* patterns, so the cube
//! order matters as much as the filling. Four orderings are provided:
//!
//! | Ordering | Idea |
//! |----------|------|
//! | [`ToolOrdering`] | the ATPG emission order (the paper's TetraMax™ order) |
//! | [`XStatOrdering`] | greedy nearest-neighbour chaining by conflict distance, per \[22\] |
//! | [`IsaOrdering`] | simulated annealing over orderings of the MT-filled patterns, reconstructing Girard et al. \[20\] |
//! | [`IOrdering`] | the paper's Algorithm 3: interleave X-poor and X-rich cubes, growing the interleave factor `k` while the bottleneck improves |

mod banded;
mod interleave;
mod isa;
mod packed;
mod search;
mod tool;
mod xstat;

pub use banded::{BandContext, BandedIOrdering, BandedMethod, BandedOrdering, BandedXStatOrdering};
pub use interleave::{IOrdering, IOrderingTrace};
pub use isa::IsaOrdering;
pub use packed::PackedCubes;
pub use tool::ToolOrdering;
pub use xstat::XStatOrdering;

use std::error::Error;
use std::fmt;

use dpfill_cubes::CubeSet;

use crate::bcp::BcpError;

/// Failure modes of the ordering layer.
///
/// Orderings used to panic on these (an `assert!` on a malformed
/// candidate schedule, an `unreachable!` on a bound overflow); inside a
/// pooled streaming worker that surfaced as an opaque
/// [`WindowPanicked`](crate::stream::StreamError::WindowPanicked)
/// instead of a real diagnostic. They are typed errors now, consistent
/// with the library's no-panic guarantee.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OrderingError {
    /// A candidate schedule was not a permutation of `0..expected`.
    MalformedSchedule {
        /// Length of the offending schedule.
        len: usize,
        /// The cube count the schedule must permute.
        expected: usize,
    },
    /// Evaluating a candidate's bottleneck value failed in the load
    /// model (overflow on absurd inputs).
    Bound(BcpError),
}

impl fmt::Display for OrderingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrderingError::MalformedSchedule { len, expected } => write!(
                f,
                "candidate schedule of length {len} is not a permutation of 0..{expected}"
            ),
            OrderingError::Bound(e) => write!(f, "candidate bottleneck evaluation failed: {e}"),
        }
    }
}

impl Error for OrderingError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            OrderingError::MalformedSchedule { .. } => None,
            OrderingError::Bound(e) => Some(e),
        }
    }
}

impl From<BcpError> for OrderingError {
    fn from(e: BcpError) -> OrderingError {
        OrderingError::Bound(e)
    }
}

/// A test-vector ordering strategy.
///
/// Implementations return a permutation of `0..cubes.len()`: position `p`
/// of the result names the original index of the cube scheduled `p`-th.
pub trait OrderingStrategy {
    /// Short name used in reports.
    fn name(&self) -> &'static str;

    /// Computes the ordering permutation.
    ///
    /// # Errors
    ///
    /// [`OrderingError`] when a candidate evaluation fails; the
    /// closed-form orderings ([`ToolOrdering`], [`XStatOrdering`],
    /// [`IsaOrdering`]) never fail.
    fn order(&self, cubes: &CubeSet) -> Result<Vec<usize>, OrderingError>;
}

/// The orderings compared in the paper, as an enum for sweeping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OrderingMethod {
    /// ATPG emission order (identity).
    Tool,
    /// XStat greedy nearest-neighbour ordering \[22\].
    XStat,
    /// Simulated-annealing ordering \[20\] with the given seed.
    Isa(u64),
    /// The paper's I-ordering (Algorithm 3).
    Interleaved,
}

impl OrderingMethod {
    /// Row labels used in the paper.
    pub fn label(self) -> &'static str {
        match self {
            OrderingMethod::Tool => "Tool",
            OrderingMethod::XStat => "XStat-order",
            OrderingMethod::Isa(_) => "ISA",
            OrderingMethod::Interleaved => "I-order",
        }
    }

    /// Computes the permutation.
    ///
    /// # Errors
    ///
    /// [`OrderingError`] when a candidate evaluation fails (only the
    /// I-ordering's bottleneck search can fail, and only on inputs
    /// whose load model overflows `u64`).
    pub fn order(self, cubes: &CubeSet) -> Result<Vec<usize>, OrderingError> {
        match self {
            OrderingMethod::Tool => ToolOrdering.order(cubes),
            OrderingMethod::XStat => XStatOrdering.order(cubes),
            OrderingMethod::Isa(seed) => IsaOrdering::new(seed).order(cubes),
            OrderingMethod::Interleaved => IOrdering::new().order(cubes),
        }
    }
}

/// Checks that `order` is a permutation of `0..n` (test/debug helper).
pub fn is_permutation(order: &[usize], n: usize) -> bool {
    if order.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for &i in order {
        if i >= n || seen[i] {
            return false;
        }
        seen[i] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpfill_cubes::gen::random_cube_set;

    #[test]
    fn every_method_returns_a_permutation() {
        let cubes = random_cube_set(24, 17, 0.7, 3);
        for m in [
            OrderingMethod::Tool,
            OrderingMethod::XStat,
            OrderingMethod::Isa(5),
            OrderingMethod::Interleaved,
        ] {
            let order = m.order(&cubes).unwrap();
            assert!(
                is_permutation(&order, cubes.len()),
                "{} returned a non-permutation",
                m.label()
            );
        }
    }

    #[test]
    fn permutation_checker() {
        assert!(is_permutation(&[2, 0, 1], 3));
        assert!(!is_permutation(&[0, 0, 1], 3));
        assert!(!is_permutation(&[0, 1], 3));
        assert!(!is_permutation(&[0, 1, 3], 3));
    }

    #[test]
    fn empty_set_orderings() {
        let cubes = CubeSet::new(8);
        for m in [
            OrderingMethod::Tool,
            OrderingMethod::XStat,
            OrderingMethod::Isa(1),
            OrderingMethod::Interleaved,
        ] {
            assert!(m.order(&cubes).unwrap().is_empty(), "{}", m.label());
        }
    }
}
