//! Scan-chain DFT model: chains, shift/capture schedules, LOS/LOC, and
//! the state-preserving ("first-level hold") property the paper assumes.
//!
//! In scan testing, flip-flops are stitched into shift registers. A test
//! is applied by shifting a pattern in (while shifting the previous
//! response out), then capturing. The DP-fill paper (§III) assumes a DFT
//! scheme that *preserves the combinational state* during shifting
//! (first-level hold, their ref. \[18\]): the combinational core then sees
//! the launch patterns back-to-back, which is what turns peak capture
//! power into the peak Hamming distance between consecutive filled
//! patterns.
//!
//! This crate models exactly that:
//!
//! * [`ScanChains`] — partitioning the flip-flops into one or more
//!   chains, mapping cube pins to (chain, position);
//! * [`ScanSchedule`] — the per-cycle combinational input states of a
//!   whole test session under hold-enabled shifting, for either capture
//!   scheme ([`CaptureScheme::Los`] / [`CaptureScheme::Loc`]), with the
//!   property check that shift cycles contribute zero combinational
//!   toggles;
//! * [`wtm`] / [`shift_power_profile`] — the weighted-transitions metric
//!   of scan-in vectors (shift power, which Adj-fill \[21\] optimizes).

mod apply;
mod chain;
mod metrics;

pub use apply::{CaptureScheme, CycleKind, ScanSchedule};
pub use chain::{ScanChains, ScanError};
pub use metrics::{shift_power_profile, wtm};
