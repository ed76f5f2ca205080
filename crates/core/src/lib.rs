//! **DP-fill** — optimal X-filling for minimizing peak test power in scan
//! tests (Trinadh et al., DATE 2015).
//!
//! Test cubes emitted by ATPG are dominated by don't-care (`X`) bits.
//! How those bits are filled decides how many circuit inputs toggle
//! between consecutive test patterns, and the *peak* of those toggles
//! drives peak capture power — the IR-drop that fails good chips during
//! at-speed test. This crate implements the paper end to end:
//!
//! * [`bcp`] — the **Bottleneck Coloring Problem**: the paper's reduction
//!   target, with the Algorithm 1 dynamic-programming lower bound, the
//!   Algorithm 2 greedy coloring, and a generalized baseline-aware solver
//!   that is optimal even in the presence of forced toggles;
//! * [`mapping`] — the matrix ↔ BCP reduction (§V-C) and the solution
//!   reconstruction (§V-D);
//! * [`fill`] — [`fill::DpFill`] plus every baseline of Tables II–IV
//!   (MT/R/0/1/B, XStat \[22\], Adj-fill \[21\]);
//! * [`objective`] — pluggable fill objectives ([`FillObjective`]):
//!   weighted per-pin toggle loads and leakage/IR-drop preferences,
//!   compiled to fixed-point weight tables the solver consumes exactly;
//! * [`ordering`] — Tool, XStat \[22\], simulated-annealing (ISA, \[20\]) and
//!   the paper's I-ordering (Algorithm 3, [`ordering::IOrdering`]);
//! * [`pipeline`] — ordering+fill techniques and the sweeps behind the
//!   paper's tables;
//! * [`stream`] — the fill driver: windowed analyze→fill→emit with
//!   exact overlap stitching in bounded memory, byte-identical to its
//!   one-resident-window case over the whole set.
//!
//! # Quickstart
//!
//! ```
//! use dpfill_core::fill::{DpFill, FillStrategy};
//! use dpfill_core::ordering::{IOrdering, OrderingStrategy};
//! use dpfill_cubes::{peak_toggles, CubeSet};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Four test cubes over five pins, X-dominated.
//! let cubes = CubeSet::parse_rows(&["0XXX1", "X1XXX", "1XXX0", "XX0XX"])?;
//!
//! // Order with Algorithm 3, fill optimally.
//! let order = IOrdering::new().order(&cubes)?;
//! let report = DpFill::new().run(&cubes.reordered(&order)?);
//!
//! assert_eq!(report.peak, report.lower_bound); // optimality certificate
//! assert_eq!(peak_toggles(&report.filled)? as u64, report.peak);
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bcp;
pub mod fill;
mod interval;
pub mod mapping;
pub mod objective;
pub mod ordering;
pub mod pipeline;
pub mod stream;

pub use bcp::{
    BcpError, BcpInstance, BcpSolution, Coloring, IncrementalBound, SolveOptions, VerifiedPeak,
};
pub use interval::Interval;
pub use mapping::MatrixMapping;
pub use objective::{FillObjective, ObjectiveError, ObjectiveKind, WeightTable};
pub use pipeline::{
    percent_improvement, sweep_fills, sweep_fills_with, Technique, TechniqueResult,
};
pub use stream::{
    BandedOrder, ChaosPlan, DegradeEvent, StreamError, StreamOptions, StreamPass, StreamReport,
    StreamingFill, WindowSpec,
};
