//! Test-cube data structures for scan-test power experiments.
//!
//! A *test cube* is a partially specified test pattern: a vector over
//! `{0, 1, X}` where `X` marks a don't-care bit left unassigned by ATPG.
//! This crate provides:
//!
//! * [`Bit`] — a three-valued logic bit with the usual 3-valued operators;
//! * [`TestCube`] — one pattern in the scalar `Vec<Bit>` compat view,
//!   with Hamming/conflict distances and cube-merging for static
//!   compaction;
//! * [`CubeSet`] — an ordered set of equal-width cubes (the matrix whose
//!   columns the DP-fill paper calls `T1..Tn`). **Packed-first**: the
//!   single source of truth is the two-plane `(care, value)` word store
//!   ([`PackedCubeSet`]); the scalar [`TestCube`] view is decoded lazily
//!   by [`CubeSet::cube`] and the iterators, for debugging and
//!   compatibility only;
//! * [`packed`] — the bit-packed two-plane store itself ([`PackedBits`],
//!   [`PackedCubeSet`]) with the popcount kernels and the streaming row
//!   builder;
//! * [`popcount`] — the tiered masked-XOR popcount kernels behind every
//!   toggle/conflict metric (portable scalar, runtime-detected AVX2;
//!   `DPFILL_SIMD` overrides);
//! * [`stretch`] — the don't-care stretch statistics of the paper's
//!   Fig 2(c), counted in one cube-major pass;
//! * [`gen`] — seeded random cube generators used for tests and for the
//!   profile-driven reproduction mode;
//! * [`format`](mod@format) — a plain-text pattern format (one `01X` string per
//!   line), parsed by streaming characters straight into plane words;
//! * [`retry`] — the bounded deterministic-backoff retry policy every
//!   I/O path routes through (`EINTR` absorption, temp-file collisions).
//!
//! The per-bit reference implementations the differential suites pin
//! these kernels against, and the fault-injection I/O wrappers of the
//! chaos suites, live in the dev-only `dpfill-oracle` crate.
//!
//! The library crates carry a no-panic guarantee on their non-test
//! surface (`deny(clippy::unwrap_used, clippy::expect_used)` below,
//! gated in CI): every fallible path returns a typed error.
//!
//! # Example
//!
//! ```
//! use dpfill_cubes::{CubeSet, TestCube};
//!
//! # fn main() -> Result<(), dpfill_cubes::CubeError> {
//! let mut set = CubeSet::new(4);
//! set.push("01XX".parse::<TestCube>()?)?;
//! set.push("0X1X".parse::<TestCube>()?)?;
//! assert_eq!(set.len(), 2);
//! assert!((set.x_percent() - 50.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod bit;
mod cube;
mod distance;
mod error;
pub mod format;
pub mod gen;
pub mod packed;
pub mod popcount;
pub mod retry;
mod set;
pub mod stretch;

pub use bit::Bit;
pub use cube::TestCube;
pub use distance::{
    conflict_distance, hamming_distance, peak_toggles, toggle_profile, total_toggles,
    weighted_peak_toggles, weighted_toggle_profile,
};
pub use error::CubeError;
pub use format::PatternError;
pub use packed::{PackedBits, PackedCubeSet};
pub use set::{CubeSet, Cubes, IntoCubes};
