//! The memory-budget governor: checked window math and graceful
//! degradation.
//!
//! A `--memory-budget` run promises bounded resident memory, but the
//! resident set is not just the cube planes the window formula sizes:
//! the analyzer's scalar **event stream** (interval sites, the
//! per-transition baseline, the incremental-bound ladder that
//! warm-starts the global solve, and the per-cube digests) grows with
//! input *content* and length, not with the window. A hostile input can blow through the budget mid-run while
//! every window stays small. [`BudgetGovernor`] owns the response:
//!
//! * the budget → window derivation reserves **1/8 of the budget as
//!   headroom** for the scalar events and the overlap tails, so
//!   ordinary runs never degrade spuriously;
//! * as the run reports its actual fixed-cost bytes
//!   ([`BudgetGovernor::charge`]), the governor **halves the window**
//!   while the modeled resident set exceeds the budget, recording each
//!   shrink as a [`DegradeEvent`] (surfaced in
//!   [`StreamReport`](super::StreamReport) and under `--stats`);
//! * at the floor of one cube per window it stops degrading and
//!   reports a typed [`StreamError::BudgetExhausted`] — never an OOM
//!   kill, never a silent overrun;
//! * every multiplication in the model is **checked**: absurd widths or
//!   budgets surface as [`StreamError::Overflow`] instead of a silent
//!   wrap (the unchecked formula used to divide by a wrapped-to-zero
//!   denominator).
//!
//! Degradation cannot change output bytes: the emitted patterns are
//! window-size-independent by construction (see the [module
//! docs](super)), so shrinking mid-run only trades throughput for
//! memory.

use std::fmt;

use super::StreamError;

/// Governor activity (relaxed no-ops unless a [`minitrace`] sink is
/// live): resident-set charges taken and window halvings issued.
static BUDGET_CHARGES: minitrace::Counter = minitrace::Counter::new("stream.budget.charges");
static BUDGET_DEGRADES: minitrace::Counter = minitrace::Counter::new("stream.budget.degrades");

/// Which pass of the pipeline a degradation happened in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamPass {
    /// The analysis pass (pass 1 of the planned fills).
    Analyze,
    /// The fill/emit pass.
    Emit,
}

impl fmt::Display for StreamPass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamPass::Analyze => f.write_str("analyze"),
            StreamPass::Emit => f.write_str("emit"),
        }
    }
}

/// One graceful-degradation step: the governor halved the window to
/// stay inside the memory budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DegradeEvent {
    /// The pass that was running.
    pub pass: StreamPass,
    /// The 0-based window index being processed when the budget
    /// pressure was noticed.
    pub window: usize,
    /// Window size (cubes) before the shrink.
    pub from_cubes: usize,
    /// Window size (cubes) after the shrink.
    pub to_cubes: usize,
    /// Modeled resident bytes that tripped the shrink.
    pub resident_bytes: u64,
    /// The configured budget in bytes.
    pub budget_bytes: u64,
}

impl fmt::Display for DegradeEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} pass, window {}: resident {} B over budget {} B; window {} -> {} cubes",
            self.pass,
            self.window,
            self.resident_bytes,
            self.budget_bytes,
            self.from_cubes,
            self.to_cubes
        )
    }
}

fn overflow(what: &str) -> StreamError {
    StreamError::Overflow {
        what: what.to_string(),
    }
}

/// Plane bytes per resident cube: `2 · ⌈width/64⌉` words of 8 bytes.
/// Never zero (an empty-width cube still costs bookkeeping), so the
/// window division below is total.
pub(crate) fn bytes_per_cube(width: usize) -> u64 {
    (width as u64).div_ceil(64).max(1) * 16
}

/// Plane copies of one in-flight cube: the parsed window and the filled
/// one. The analysis and the fill read and write cubes in place, with no
/// transposed copy.
const PLANE_COPIES: u64 = 2;

/// The per-window-cube cost of the plane model: [`PLANE_COPIES`] plane
/// copies per in-flight cube across a batch of `threads` windows.
///
/// # Errors
///
/// [`StreamError::Overflow`] when the product leaves `u64` — the absurd
/// width that used to wrap the unchecked formula to a zero divisor.
fn window_cube_cost(width: usize, threads: usize) -> Result<u64, StreamError> {
    bytes_per_cube(width)
        .checked_mul(PLANE_COPIES)
        .and_then(|v| v.checked_mul(threads.max(1) as u64))
        .ok_or_else(|| overflow("per-cube window memory (width x planes x threads)"))
}

/// Derives the initial window for a budget, reserving 1/8 headroom for
/// the scalar event stream and overlap tails. Floor of one cube.
///
/// # Errors
///
/// [`StreamError::Overflow`] when the budget or the per-cube cost
/// leaves `u64`.
pub(crate) fn window_for_budget(
    budget_mib: usize,
    width: usize,
    threads: usize,
) -> Result<usize, StreamError> {
    let budget = (budget_mib as u64)
        .checked_mul(1 << 20)
        .ok_or_else(|| overflow("memory budget in bytes"))?;
    let cost = window_cube_cost(width, threads)?;
    let window = (budget / 8).saturating_mul(7) / cost;
    Ok(usize::try_from(window).unwrap_or(usize::MAX).max(1))
}

/// Tracks the modeled resident set of a budget-constrained run and
/// shrinks the window under pressure. One governor per pass.
pub(crate) struct BudgetGovernor {
    budget: u64,
    /// `PLANE_COPIES · bytes_per_cube · threads` — the plane bytes one
    /// window cube costs.
    cube_cost: u64,
    window: usize,
    events: Vec<DegradeEvent>,
}

impl BudgetGovernor {
    /// Builds a governor for a `--memory-budget` run once the width is
    /// known.
    ///
    /// # Errors
    ///
    /// [`StreamError::Overflow`] on unrepresentable budgets or widths.
    pub fn new(budget_mib: usize, width: usize) -> Result<BudgetGovernor, StreamError> {
        let threads = minipool::current_threads().max(1);
        let budget = (budget_mib as u64)
            .checked_mul(1 << 20)
            .ok_or_else(|| overflow("memory budget in bytes"))?;
        let cube_cost = window_cube_cost(width, threads)?;
        let window = window_for_budget(budget_mib, width, threads)?;
        Ok(BudgetGovernor {
            budget,
            cube_cost,
            window,
            events: Vec::new(),
        })
    }

    /// The current window size in cubes.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Re-models the resident set with the run's actual fixed costs
    /// (event stream, plan, tails) at `fixed_bytes`, halving the window
    /// while the model exceeds the budget. `at_window` is the 0-based
    /// index of the window being processed, for diagnostics.
    ///
    /// # Errors
    ///
    /// [`StreamError::BudgetExhausted`] once the floor of one cube per
    /// window still exceeds the budget; [`StreamError::Overflow`] if
    /// the model itself leaves `u64`.
    pub fn charge(
        &mut self,
        pass: StreamPass,
        at_window: usize,
        fixed_bytes: u64,
    ) -> Result<(), StreamError> {
        BUDGET_CHARGES.add(1);
        loop {
            let planes = (self.window as u64)
                .checked_mul(self.cube_cost)
                .ok_or_else(|| overflow("resident plane bytes"))?;
            let resident = planes
                .checked_add(fixed_bytes)
                .ok_or_else(|| overflow("resident bytes"))?;
            if resident <= self.budget {
                return Ok(());
            }
            if self.window == 1 {
                return Err(StreamError::BudgetExhausted {
                    window: at_window,
                    resident_bytes: resident,
                    budget_bytes: self.budget,
                });
            }
            let to = self.window / 2;
            BUDGET_DEGRADES.add(1);
            self.events.push(DegradeEvent {
                pass,
                window: at_window,
                from_cubes: self.window,
                to_cubes: to,
                resident_bytes: resident,
                budget_bytes: self.budget,
            });
            self.window = to;
        }
    }

    /// The degradation events recorded so far, in order.
    pub fn into_events(self) -> Vec<DegradeEvent> {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_derivation_reserves_headroom() {
        // 1 MiB budget, width 64 (16 plane bytes/cube), one thread:
        // 7/8 MiB / (2 · 16) = 28672 cubes.
        assert_eq!(window_for_budget(1, 64, 1).unwrap(), 28672);
        // More threads shrink the per-thread window.
        assert_eq!(window_for_budget(1, 64, 2).unwrap(), 14336);
        // A tiny budget floors at one cube.
        assert_eq!(window_for_budget(1, 1 << 24, 1).unwrap(), 1);
    }

    #[test]
    fn the_plane_model_counts_the_cubes_it_holds() {
        // One cube's plane bytes are its two planes' words, and a window
        // cube costs the parsed and the filled copy, per thread.
        for width in [1, 63, 64, 65, 130, 1100] {
            let cube = dpfill_cubes::packed::PackedBits::all_x(width);
            let planes = std::mem::size_of_val(cube.care_words())
                + std::mem::size_of_val(cube.value_words());
            assert_eq!(bytes_per_cube(width), planes as u64, "width {width}");
            for threads in [1, 2, 8] {
                let cost = window_cube_cost(width, threads).unwrap();
                assert_eq!(cost, 2 * planes as u64 * threads as u64);
            }
        }
    }

    #[test]
    fn absurd_widths_overflow_as_typed_errors_not_wraps() {
        // The unchecked formula used to wrap `copies * bytes_per_cube *
        // threads` to zero here and divide by it.
        let err = window_for_budget(1, usize::MAX, 4).unwrap_err();
        assert!(matches!(err, StreamError::Overflow { .. }), "{err}");
        assert!(err.to_string().contains("overflow"), "{err}");
        let err = window_for_budget(usize::MAX, 64, 1).unwrap_err();
        assert!(matches!(err, StreamError::Overflow { .. }), "{err}");
    }

    #[test]
    fn governor_stays_quiet_inside_the_budget() {
        let mut g = BudgetGovernor::new(1, 64).unwrap();
        let w0 = g.window();
        // The reserved headroom absorbs a modest event stream.
        g.charge(StreamPass::Analyze, 0, 64 * 1024).unwrap();
        assert_eq!(g.window(), w0);
        assert!(g.into_events().is_empty());
    }

    #[test]
    fn governor_halves_under_pressure_and_records_each_step() {
        let mut g = BudgetGovernor::new(1, 64).unwrap();
        let w0 = g.window();
        // Fixed costs eating half the budget force shrinks.
        g.charge(StreamPass::Emit, 3, 512 * 1024).unwrap();
        assert!(g.window() < w0);
        let events = g.into_events();
        assert!(!events.is_empty());
        for e in &events {
            assert_eq!(e.pass, StreamPass::Emit);
            assert_eq!(e.window, 3);
            assert_eq!(e.to_cubes, e.from_cubes / 2);
            assert!(e.resident_bytes > e.budget_bytes);
        }
        // Consecutive events chain: each starts where the last ended.
        for pair in events.windows(2) {
            assert_eq!(pair[0].to_cubes, pair[1].from_cubes);
        }
    }

    #[test]
    fn governor_exhausts_at_the_one_cube_floor() {
        let mut g = BudgetGovernor::new(1, 64).unwrap();
        // Fixed costs beyond the whole budget cannot be absorbed.
        let err = g.charge(StreamPass::Analyze, 7, 2 << 20).unwrap_err();
        match err {
            StreamError::BudgetExhausted {
                window,
                resident_bytes,
                budget_bytes,
            } => {
                assert_eq!(window, 7);
                assert!(resident_bytes > budget_bytes);
                assert_eq!(budget_bytes, 1 << 20);
            }
            other => panic!("expected BudgetExhausted, got {other}"),
        }
    }
}
