//! Reference implementations for the differential suites.
//!
//! Every production kernel in `dpfill-cubes` and `dpfill-core` has a
//! slower, obviously-correct twin that the tests compare it against.
//! Those twins live here, in a crate that is only ever a
//! dev-dependency, so the shipped crates and the release binaries carry
//! one engine per decision:
//!
//! * Algorithm 1's O(C²) row DP as one load-weighted kernel
//!   ([`lower_bound_dp`]), the per-window direct count
//!   ([`lower_bound_naive`]) and the exhaustive optimum
//!   ([`brute_force_min_peak`]);
//! * the per-bit toggle walks behind the packed popcount metrics
//!   ([`toggle_profile_scalar`] and friends);
//! * the cube-at-a-time pattern parser ([`parse_patterns_scalar`]) and
//!   the per-bit transpose ([`pin_matrix_scalar`]);
//! * the pin-major windowed analysis ([`analyze_pin_major`]) and row
//!   splice fill ([`splice_fill`]) behind the cube-major analyzer and
//!   filled-value plane;
//! * [`faultio`] — deterministic fault-injection readers and writers
//!   for the chaos suites.
//!
//! The oracles reach production types only through their public
//! accessors, so a production refactor that keeps the API keeps them
//! valid.

mod analysis;
mod bcp;
mod distance;
pub mod faultio;
mod format;
mod matrix;

pub use analysis::{analyze_pin_major, analyze_rows, splice_fill, PinMajorAnalysis, Site};
pub use bcp::{brute_force_min_peak, lower_bound_dp, lower_bound_naive};
pub use distance::{
    hamming_distance_scalar, peak_toggles_scalar, toggle_profile_scalar, total_toggles_scalar,
    weighted_toggle_profile_scalar,
};
pub use format::parse_patterns_scalar;
pub use matrix::pin_matrix_scalar;
