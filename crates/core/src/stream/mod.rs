//! `dpfill-stream` — the bounded-memory streaming fill pipeline.
//!
//! The monolithic pipeline materializes every cube before analyzing;
//! this subsystem runs the full **analyze → solve → fill → metrics →
//! emit** flow over a sliding window of pattern chunks, keeping
//! `O(window × threads + overlap)` *cubes* resident no matter how large
//! the pattern file is, while producing output **byte-identical** to
//! the monolithic run.
//!
//! # How exactness survives windowing
//!
//! DP-fill's decisions live at two very different scales:
//!
//! * the **cube planes** — `2 · ⌈width/64⌉` words per cube, the memory
//!   that actually hurts at industrial pattern volumes;
//! * the **intervals** — one `(start, pin)` pair (8 bytes) per
//!   `v X…X w` stretch plus one counter per transition. Every other `X`
//!   copies the nearest care value to its left and is never stored.
//!
//! The pipeline streams the planes and keeps the intervals:
//!
//! 1. **Analysis pass** (the cube-major analyzer
//!    [`MatrixMapping::analyze`](crate::MatrixMapping::analyze) runs as
//!    one window): each 64-pin word's scan state carries across window
//!    boundaries, so stretches spanning any number of windows close
//!    *exactly*, and windows close intervals in global end order: each
//!    chunk of pin words appends its stretches' starts and pins grouped
//!    by end, walked in `(end, pin)` order. Each pin's first care value
//!    and a 64-bit digest of each cube are recorded; the cubes are read
//!    in place, with no transpose, and dropped as the next window
//!    arrives.
//! 2. **Solve**: the engine of the global
//!    [`BcpInstance::solve`](crate::BcpInstance::solve) the library
//!    DP-fill runs, on the same intervals in the same order, reading the
//!    chunks' groups in place — no interval list, no cubes resident at
//!    all. The colored pins, bucketed by color, and the first care
//!    values are then the fill plan.
//! 3. **Emit pass**: windows are re-read, checked against their
//!    digests and filled from the filled-value plane `F` carried across
//!    windows — the kernel `apply_coloring` runs on the whole set:
//!    `F ← ((F ^ flips(t − 1)) & !C_t) | (V_t & C_t)` fills cube `t` —
//!    then scored with the batched toggle sweeps (the boundary
//!    transition stitched against the previous window's last cube) and
//!    written out as each window retires. Window batches run on the
//!    [`minipool`] pool.
//!
//! Byte-identity therefore holds *by construction* — pinned by the
//! `streaming_fill` differential suite across window sizes and thread
//! counts — and the resident-cube bound is the window batch plus the
//! one-cube overlap tails.
//!
//! # One resident window
//!
//! [`StreamingFill::run_resident`] is the same driver over a set the
//! caller already holds, as one window with no frozen prefix, so a
//! ring ordering is the global one; the CLI's whole-set runs are it.
//! Under the I-ordering, its DP-fill solves the analysis Algorithm 3's
//! search made of the winning order and scans nothing again.
//!
//! # Banded streaming orderings
//!
//! A global ordering needs the whole set; a streaming run can still
//! reorder within a bounded horizon. Setting [`StreamOptions::order`]
//! interposes the reorder stage: a ring of `band × window` cubes is
//! kept resident and re-ordered (in-window I-order or online XStat,
//! chained against the last emitted cube) before windows are frozen out
//! to the analyzer and the fill. The two-pass fills record the
//! permutation in pass 1 and replay it in pass 2 with a
//! bounded-displacement buffer; single-pass fills reorder live in the
//! emit loop. When the ring covers the entire input, the result is
//! byte-identical to the monolithic *ordered* run.
//!
//! # Example
//!
//! ```
//! use dpfill_core::fill::FillMethod;
//! use dpfill_core::stream::{StreamOptions, StreamingFill, WindowSpec};
//!
//! let text = "0XX1\nXX0X\n1X0X\nX1XX\n0XX1\n";
//! let opts = StreamOptions {
//!     window: WindowSpec::Cubes(2),
//!     fill: FillMethod::Dp,
//!     ..StreamOptions::default()
//! };
//! let mut out = Vec::new();
//! let report = StreamingFill::new(opts)
//!     .run(|| Ok(text.as_bytes()), &mut out)
//!     .unwrap();
//! assert_eq!(report.cubes, 5);
//! // Byte-identical to filling the whole set at once:
//! let cubes = dpfill_cubes::format::parse_patterns(text).unwrap();
//! let mut whole = Vec::new();
//! dpfill_cubes::format::write_patterns(&mut whole, &FillMethod::Dp.fill(&cubes), None).unwrap();
//! assert_eq!(out, whole);
//! ```

pub(crate) mod analyze;
mod budget;
mod plan;
mod reorder;

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use dpfill_cubes::format::{PatternError, PatternStream, PatternWriter};
use dpfill_cubes::packed::PackedBits;
use dpfill_cubes::CubeSet;

use crate::bcp::SolveOptions;
use crate::fill::{DpFillError, FillErrorSource, FillMethod, RandomFill};
use crate::mapping::{shift_preferred, Flips};
use crate::objective::{FillObjective, ObjectiveError};
use crate::ordering::{BandContext, BandedMethod, IOrdering, OrderingError};

use analyze::{Analyzed, Analyzer, Colored, Keep};
use budget::BudgetGovernor;
pub use budget::{DegradeEvent, StreamPass};
use plan::{cube_digest, FillPlan};
pub use reorder::BandedOrder;

/// Windows whose emit scoring ran in objective units (the weighted
/// path) — a relaxed no-op unless a [`minitrace`] sink is live.
static WEIGHTED_SCORE_WINDOWS: minitrace::Counter =
    minitrace::Counter::new("stream.weighted_score.windows");
use reorder::{ReorderStage, ReplayStream};

/// How the window size is chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowSpec {
    /// A fixed number of cubes per window.
    Cubes(usize),
    /// A resident-memory budget in MiB; the window size is derived from
    /// the cube width once the first cube is read (see
    /// [`WindowSpec::window_for_width`]).
    MemoryBudgetMiB(usize),
}

impl WindowSpec {
    /// Resolves the window size for a known cube width.
    ///
    /// The memory model: one resident cube costs `2 · ⌈width/64⌉ · 8`
    /// bytes of plane words, and the pipeline holds two plane copies per
    /// in-flight cube (the parsed window and the filled one: the
    /// analysis and the fill work on the cubes in place, with no
    /// transpose) across a batch of `threads` windows. The budget is
    /// divided accordingly — minus a 1/8 headroom reserve for the
    /// analysis, the plan and the overlap tails (see the budget
    /// governor) — and the window never drops below one cube.
    ///
    /// # Errors
    ///
    /// [`StreamError::Overflow`] when the budget model leaves `u64`
    /// (absurd widths or budgets); the previous unchecked formula
    /// silently wrapped — and could divide by a wrapped-to-zero cost.
    pub fn window_for_width(self, width: usize) -> Result<usize, StreamError> {
        match self {
            WindowSpec::Cubes(n) => Ok(n.max(1)),
            WindowSpec::MemoryBudgetMiB(mib) => {
                let threads = minipool::current_threads().max(1);
                budget::window_for_budget(mib, width, threads)
            }
        }
    }
}

/// Deterministic chaos injection for the fault suite: makes a specific
/// window's worker panic on purpose, proving panic containment on the
/// real pool fan-out paths. Inert by default; the CLI wires it to the
/// `DPFILL_CHAOS` environment variable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Panic inside the pooled fill task of this 0-based window.
    pub panic_in_fill: Option<usize>,
    /// Panic while analyzing this 0-based window (pass 1).
    pub panic_in_analyze: Option<usize>,
}

/// Configuration of a [`StreamingFill`] run.
#[derive(Clone, Debug)]
pub struct StreamOptions {
    /// Window sizing (cubes or memory budget); a resident run holds one
    /// window and does not consult it.
    pub window: WindowSpec,
    /// The fill to run. Supported: [`FillMethod::Dp`], [`FillMethod::Mt`]
    /// (two-pass, globally solved/stitched) and the per-cube
    /// [`FillMethod::Zero`]/[`FillMethod::One`]/[`FillMethod::Adj`]/
    /// [`FillMethod::Random`] (single pass). [`FillMethod::B`] and
    /// [`FillMethod::XStat`] need the whole set resident: bounded runs
    /// reject them, [`StreamingFill::run_resident`] runs them.
    pub fill: FillMethod,
    /// Optional banded streaming ordering (see [`BandedOrder`] and
    /// [`reorder`](self)'s docs). `None` keeps the input order — the
    /// only mode with byte-identity to the *unordered* monolithic run.
    /// When set, cubes are re-ordered through a bounded ring of
    /// `band × window` cubes before analysis/fill; if that ring covers
    /// the whole input, the output is byte-identical to the monolithic
    /// *ordered* run. Note that for `--memory-budget` runs the emitted
    /// order can shift when the governor halves the window (the ring
    /// shrinks with it), so banded ordered output is a function of
    /// (input, band, window), not of the input alone.
    pub order: Option<BandedOrder>,
    /// Optional header comment emitted before the first cube.
    pub header: Option<String>,
    /// Also track the 0-fill (as-given) peak for before/after stats.
    pub collect_baseline: bool,
    /// Deliberate fault injection for the chaos suite (inert by
    /// default).
    pub chaos: ChaosPlan,
    /// Unused: the analyzer's online ladder supplies the solve's warm
    /// bound. Kept so callers that name every field still compile.
    pub solve: SolveOptions,
    /// The fill objective. The default
    /// ([`FillObjective::peak_toggles`]) keeps every code path and every
    /// emitted byte identical to a build without the objective layer; a
    /// weighted objective charges the global solve and the emitted
    /// metrics in objective units (the analyzer's online ladder stays a
    /// unit-load bound: a valid warm start for the weighted solve, and
    /// in the units the banded I-ordering compares), and a
    /// preference-carrying objective applies the slack-shift tie-break
    /// after the solve — exactly like the monolithic
    /// [`DpFill::with_objective`](crate::fill::DpFill::with_objective).
    /// Its weight table is charged to the memory-budget governor in
    /// both passes.
    pub objective: FillObjective,
}

impl Default for StreamOptions {
    fn default() -> StreamOptions {
        StreamOptions {
            window: WindowSpec::Cubes(1024),
            fill: FillMethod::Dp,
            order: None,
            header: None,
            collect_baseline: false,
            chaos: ChaosPlan::default(),
            solve: SolveOptions::default(),
            objective: FillObjective::default(),
        }
    }
}

/// What a streaming run measured while emitting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StreamReport {
    /// Cubes processed (0 means the input held no patterns and nothing
    /// was written).
    pub cubes: usize,
    /// Cube width in pins.
    pub width: usize,
    /// The resolved window size in cubes.
    pub window_cubes: usize,
    /// Number of windows emitted.
    pub windows: usize,
    /// Total `X` bits in the input.
    pub x_count: usize,
    /// Peak toggles of the emitted patterns (boundary transitions
    /// stitched across windows).
    pub peak_toggles: usize,
    /// Peak of the emitted patterns in objective units (fixed-point
    /// weighted toggles under a weighted [`StreamOptions::objective`];
    /// equals `peak_toggles` under the default).
    pub objective_peak: u64,
    /// Peak toggles of the 0-filled as-given input, when
    /// [`StreamOptions::collect_baseline`] was set.
    pub baseline_peak: Option<usize>,
    /// High-water mark of resident cubes (original + filled windows in
    /// flight, plus the carried boundary tails) — the `O(window ×
    /// threads + overlap)` bound, observable.
    pub resident_peak_cubes: usize,
    /// Every graceful-degradation step a `--memory-budget` run took
    /// (window halvings under budget pressure), in order. Empty for
    /// fixed-window runs and for budget runs that stayed inside the
    /// reserve.
    pub degradations: Vec<DegradeEvent>,
    /// Wall-clock nanoseconds of pass 1 (streamed analysis, excluding
    /// the solve). Zero for single-pass fills, which have no pass 1.
    pub pass1_ns: u64,
    /// Wall-clock nanoseconds of the plan resolution (the global BCP
    /// solve for DP, then the plan build). Zero for single-pass fills.
    pub solve_ns: u64,
    /// Wall-clock nanoseconds of pass 2 (re-stream, fill, score, emit)
    /// — the only pass for per-cube fills.
    pub pass2_ns: u64,
}

/// Failures of a streaming run.
#[derive(Debug)]
pub enum StreamError {
    /// Reading or parsing the pattern input failed.
    Pattern(PatternError),
    /// Writing the emitted patterns failed (e.g. a broken pipe).
    Write(io::Error),
    /// Opening the input failed.
    Open(io::Error),
    /// The global BCP solve or the objective application failed. The
    /// solve arm is unreachable for instances produced by the analyzer
    /// (kept total like [`crate::fill::DpFill::try_run`]); objective
    /// errors (weight-table width mismatch, weighted overflow) are
    /// reachable user errors.
    Solve(DpFillError),
    /// The configured fill needs the whole set resident.
    UnsupportedFill(FillMethod),
    /// The banded in-ring ordering failed (bound overflow inside the
    /// search, or a strategy returned a non-permutation).
    Order(OrderingError),
    /// The source returned different content on the second pass.
    SourceChanged {
        /// `(cubes, width)` seen by the analysis pass.
        expected: (usize, usize),
        /// `(cubes, width)` seen by the emit pass.
        found: (usize, usize),
    },
    /// A window's cubes are not the ones pass 1 digested, or a filled
    /// window is not a filling of the cubes read for it: the source
    /// returned different content of the same shape on the second
    /// pass, so the pass-1 plan no longer fits it. The window is not
    /// emitted.
    ContentChanged {
        /// 0-based index of the rejected window.
        window: usize,
    },
    /// A fill of a resident window is not a filling of it: a fill bug,
    /// since the window was never re-read.
    NotAFilling {
        /// The fill that ran.
        fill: FillMethod,
        /// 0-based index of the window.
        window: usize,
    },
    /// A worker panicked while processing one window; the panic was
    /// contained at the window boundary instead of unwinding through
    /// the caller.
    WindowPanicked {
        /// 0-based index of the poisoned window.
        window: usize,
        /// Global cube range the window covered.
        cubes: Range<usize>,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A `--memory-budget` run degraded to one-cube windows and the
    /// modeled resident set still exceeds the budget.
    BudgetExhausted {
        /// 0-based index of the window being processed.
        window: usize,
        /// Modeled resident bytes at the one-cube floor.
        resident_bytes: u64,
        /// The configured budget in bytes.
        budget_bytes: u64,
    },
    /// Window/budget arithmetic left the machine-word range (absurd
    /// widths or budgets) — reported instead of silently wrapping.
    Overflow {
        /// Which quantity overflowed.
        what: String,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Pattern(e) => e.fmt(f),
            StreamError::Write(e) => write!(f, "cannot write patterns: {e}"),
            StreamError::Open(e) => write!(f, "cannot open pattern source: {e}"),
            StreamError::Solve(e) => e.fmt(f),
            StreamError::UnsupportedFill(m) => write!(
                f,
                "{} needs the whole pattern set resident; streaming supports \
                 dp, mt, 0, 1, adj and random",
                m.label()
            ),
            StreamError::Order(e) => write!(f, "banded streaming ordering failed: {e}"),
            StreamError::SourceChanged { expected, found } => write!(
                f,
                "pattern source changed between passes: analysis saw {} cubes x {} pins, \
                 emit saw {} cubes x {} pins",
                expected.0, expected.1, found.0, found.1
            ),
            StreamError::ContentChanged { window } => write!(
                f,
                "window {window} is not a filling of its input: the pattern source \
                 changed content between passes"
            ),
            StreamError::NotAFilling { fill, window } => write!(
                f,
                "{} fill of window {window} is not a filling of its input (a fill bug)",
                fill.label()
            ),
            StreamError::WindowPanicked {
                window,
                cubes,
                message,
            } => write!(
                f,
                "worker panicked in window {window} (cubes {}..{}): {message}",
                cubes.start, cubes.end
            ),
            StreamError::BudgetExhausted {
                window,
                resident_bytes,
                budget_bytes,
            } => write!(
                f,
                "memory budget exhausted at window {window}: resident set needs \
                 {resident_bytes} bytes at the one-cube floor, budget is {budget_bytes} bytes; \
                 raise --memory-budget"
            ),
            StreamError::Overflow { what } => {
                write!(f, "arithmetic overflow computing {what}")
            }
        }
    }
}

impl Error for StreamError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StreamError::Pattern(e) => Some(e),
            StreamError::Write(e) | StreamError::Open(e) => Some(e),
            StreamError::Solve(e) => Some(e),
            StreamError::Order(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PatternError> for StreamError {
    fn from(e: PatternError) -> StreamError {
        StreamError::Pattern(e)
    }
}

impl From<OrderingError> for StreamError {
    fn from(e: OrderingError) -> StreamError {
        StreamError::Order(e)
    }
}

/// The streaming fill driver. See the [module docs](self) for the
/// pipeline and the exactness argument.
#[derive(Clone, Debug)]
pub struct StreamingFill {
    opts: StreamOptions,
}

/// The 0-fill peak of the as-given input: cubes observed in arrival
/// order, the boundary transition stitched through the last one. A
/// 0-filled cube's values are its value plane (zero at `X`), so a
/// transition toggles wherever two value planes differ.
#[derive(Default)]
struct ZeroFillPeak {
    tail: Option<PackedBits>,
    peak: usize,
}

impl ZeroFillPeak {
    /// Folds the next cubes read from the input into the peak.
    fn observe(&mut self, cubes: &[PackedBits]) {
        let next = cubes.iter().skip(usize::from(self.tail.is_none()));
        for (a, b) in self.tail.iter().chain(cubes).zip(next) {
            let words = a.value_words().iter().zip(b.value_words());
            let toggles: usize = words.map(|(x, y)| (x ^ y).count_ones() as usize).sum();
            self.peak = self.peak.max(toggles);
        }
        if let Some(last) = cubes.last() {
            self.tail = Some(last.clone());
        }
    }
}

/// Where a pass reads its (possibly reordered) windows.
enum WindowSource<R: Read> {
    /// Straight from the pattern reader — no ordering; the only source
    /// whose output is byte-identical to the unordered monolithic run.
    /// Tracks the as-given 0-fill peak when asked to.
    Direct(PatternStream<R>, Option<ZeroFillPeak>),
    /// Replay of the permutation pass 1 recorded (pass 2 of a planned
    /// fill under a banded ordering).
    Replay(ReplayStream<R>),
    /// Live banded reordering: pass 1 of a planned fill, which records
    /// the permutation, or the only pass of a per-cube fill.
    Reorder(ReorderStage<R>),
}

impl<R: Read> WindowSource<R> {
    /// The source of a pass that reads the input in arrival order:
    /// direct, or through the banded reorder stage when `order` is set.
    /// With `baseline`, the as-given 0-fill peak is taken as cubes are
    /// read, before any reordering.
    fn arrivals(stream: PatternStream<R>, order: Option<BandedOrder>, baseline: bool) -> Self {
        let zero_peak = baseline.then(ZeroFillPeak::default);
        match order {
            Some(order) => {
                let mut stage = ReorderStage::new(stream, order);
                stage.zero_peak = zero_peak;
                WindowSource::Reorder(stage)
            }
            None => WindowSource::Direct(stream, zero_peak),
        }
    }

    /// The next window of at most `max` cubes. A reorder stage hands
    /// the banded I-ordering the `analyzer`'s running bound as its warm
    /// bound (0 when no analyzer runs); it is that bound's only reader.
    fn next_window(
        &mut self,
        max: usize,
        analyzer: Option<&mut Analyzer>,
        win_idx: usize,
    ) -> Result<Option<CubeSet>, StreamError> {
        match self {
            WindowSource::Direct(s, zero_peak) => {
                let set = s.next_window(max)?;
                if let (Some(z), Some(set)) = (zero_peak, &set) {
                    z.observe(set.as_packed().cubes());
                }
                Ok(set)
            }
            WindowSource::Replay(s) => s.next_window(max),
            WindowSource::Reorder(s) => {
                let warm_lb = analyzer.map_or(0, |a| a.warm_bound());
                s.next_window(max, warm_lb, win_idx)
            }
        }
    }

    /// The width before the first window: a reorder stage peeks one cube
    /// into its ring, so a band that could cover the whole set is sized
    /// before the ring's first fill and orders all of it.
    fn peek_width(&mut self) -> Result<Option<usize>, StreamError> {
        match self {
            WindowSource::Reorder(s) => s.peek_width(),
            _ => Ok(None),
        }
    }

    /// Original cubes read from the underlying pattern stream.
    fn cubes_read(&self) -> usize {
        match self {
            WindowSource::Direct(s, _) => s.cubes_read(),
            WindowSource::Replay(s) => s.cubes_read(),
            WindowSource::Reorder(s) => s.cubes_read(),
        }
    }

    /// What the source itself holds (ring / replay buffer), on top of
    /// the windows in flight: the high-water mark of its cubes, and the
    /// bytes it holds now, charged to the budget governor alongside the
    /// analyzer's events or the plan.
    fn held(&self) -> (usize, u64) {
        match self {
            WindowSource::Direct(..) => (0, 0),
            WindowSource::Replay(s) => (s.peak_resident_cubes(), s.resident_bytes()),
            WindowSource::Reorder(s) => (s.peak_resident_cubes(), s.resident_bytes()),
        }
    }

    /// The as-given 0-fill peak of the cubes read so far, when tracked.
    fn zero_fill_peak(&self) -> Option<usize> {
        match self {
            WindowSource::Direct(_, z)
            | WindowSource::Reorder(ReorderStage { zero_peak: z, .. }) => {
                z.as_ref().map(|z| z.peak)
            }
            WindowSource::Replay(_) => None,
        }
    }
}

/// A pass's resolved cube width and window size, plus the governor
/// that shrinks the window under [`WindowSpec::MemoryBudgetMiB`].
struct Windowing {
    width: usize,
    window: usize,
    governor: Option<BudgetGovernor>,
}

impl Windowing {
    /// Charges the pass's resident fixed costs to the governor (a no-op
    /// for fixed windows) and adopts its possibly halved window.
    fn charge(&mut self, pass: StreamPass, at: usize, bytes: u64) -> Result<(), StreamError> {
        if let Some(g) = &mut self.governor {
            g.charge(pass, at, bytes)?;
            self.window = g.window();
        }
        Ok(())
    }

    fn into_events(self) -> Vec<DegradeEvent> {
        self.governor
            .map(BudgetGovernor::into_events)
            .unwrap_or_default()
    }
}

/// Everything pass 1 produced.
struct AnalyzeOutcome {
    plan: FillPlan,
    /// `(cubes, width)` seen by the analysis pass.
    shape: (usize, usize),
    /// The recorded output-position → original-index permutation, when
    /// a banded ordering ran during pass 1; pass 2 replays it.
    perm: Option<Vec<u32>>,
    /// Pass 1's part of the report: the as-given baseline taken while
    /// it read the input, its degradations and the pass-1 and solve
    /// times.
    report: StreamReport,
}

/// One window admitted to the emit pass: its stream offset, its cubes
/// and, for a planned fill, the filled-value plane before its first
/// cube.
type Admitted = (usize, CubeSet, Vec<u64>);

/// What the emit pass measured over the windows retired so far, and
/// the last cube it emitted: the one-cube overlap that stitches the
/// boundary transition into the next window's metrics.
#[derive(Default)]
struct Retired {
    report: StreamReport,
    tail: Option<PackedBits>,
}

/// Renders a contained panic payload: panics carry a `&str` or `String`
/// in practice; anything else is reported opaquely.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Wall-clock nanoseconds since `start`.
fn nanos(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Runs `f`, containing a panic as [`StreamError::WindowPanicked`] at
/// window `window`, which covers the global cube range `cubes`.
fn contain<T>(window: usize, cubes: Range<usize>, f: impl FnOnce() -> T) -> Result<T, StreamError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| StreamError::WindowPanicked {
        window,
        cubes,
        message: panic_message(payload.as_ref()),
    })
}

impl StreamingFill {
    /// Creates a driver.
    pub fn new(opts: StreamOptions) -> StreamingFill {
        StreamingFill { opts }
    }

    /// Validates the configured objective against the cube width, as
    /// soon as the width is known.
    fn check_width(&self, width: usize) -> Result<(), StreamError> {
        self.opts.objective.check_width(width).map_err(|e| {
            StreamError::Solve(DpFillError {
                source: FillErrorSource::Objective(e),
                shape: (0, width),
            })
        })
    }

    /// Validates the objective against a stream's cube width and sizes
    /// the pass's windows for it.
    fn windowing(&self, width: usize) -> Result<Windowing, StreamError> {
        self.check_width(width)?;
        let governor = match self.opts.window {
            WindowSpec::MemoryBudgetMiB(mib) => Some(BudgetGovernor::new(mib, width)?),
            WindowSpec::Cubes(_) => None,
        };
        Ok(Windowing {
            width,
            window: self.opts.window.window_for_width(width)?,
            governor,
        })
    }

    /// The per-pin weights the analyzer, the solve and the emit scoring
    /// charge, or `None` for unit weights — keeping the unit path's
    /// state (and bytes) identical to an objective-less build.
    fn weights(&self) -> Option<&[u64]> {
        if self.opts.objective.is_unit() {
            None
        } else {
            self.opts.objective.weights()
        }
    }

    /// What a planned fill's analysis keeps of each stretch. MT-fill's
    /// plan reads only the first care values, so it keeps none: each
    /// stretch only feeds the unit ladder, the banded I-ordering's warm
    /// bound.
    fn keep(&self) -> Keep {
        match self.opts.fill {
            FillMethod::Mt => Keep::Nothing,
            _ if self.opts.objective.preferred().is_some() => Keep::Lefts,
            _ => Keep::Pins,
        }
    }

    /// Is a DP plan's solve the unit bound problem the I-ordering
    /// certifies its winners by (unit objective, no fill preference)?
    /// Then the solve that certified the winner is the plan's coloring.
    fn solves_the_unit_bound(&self) -> bool {
        self.weights().is_none() && self.opts.objective.preferred().is_none()
    }

    /// The analyzer of a planned fill over `width` pins.
    fn analyzer(&self, width: usize) -> Analyzer {
        Analyzer::new(width, self.weights().map(<[u64]>::to_vec), self.keep())
    }

    /// Feeds window `win_idx`, cubes `cubes` of the stream, to the
    /// analyzer. A panic in it (the pooled per-word fan-out rethrows on
    /// this thread), the [`ChaosPlan`] one included, is contained at the
    /// window.
    fn ingest(
        &self,
        analyzer: &mut Analyzer,
        set: &CubeSet,
        win_idx: usize,
        cubes: Range<usize>,
    ) -> Result<(), StreamError> {
        let _span = minitrace::span_with(
            "stream.window.analyze",
            &[("window", win_idx.into()), ("cubes", set.len().into())],
        );
        contain(win_idx, cubes, || {
            if self.opts.chaos.panic_in_analyze == Some(win_idx) {
                panic!("chaos: injected panic while analyzing window {win_idx}");
            }
            analyzer.ingest(set.as_packed().cubes());
        })
    }

    /// How many times [`StreamingFill::run`] will call `open`: 2 for
    /// the planned fills (DP/MT analyze first, then re-read to emit),
    /// 1 for the per-cube fills. Callers feeding a non-seekable source
    /// (a pipe, say) must spool it when this returns 2.
    pub fn input_passes(&self) -> usize {
        match self.opts.fill {
            FillMethod::Dp | FillMethod::Mt => 2,
            _ => 1,
        }
    }

    /// Runs the pipeline: `open` is called once per pass (twice for the
    /// two-pass DP/MT fills, once for the per-cube fills) and must
    /// yield the same pattern bytes each time; filled patterns stream
    /// into `sink` as windows retire.
    ///
    /// On an input with no patterns, nothing is written and the report
    /// has `cubes == 0`.
    ///
    /// # Errors
    ///
    /// See [`StreamError`]. B-fill and XStat-fill need the whole set,
    /// here [`StreamError::UnsupportedFill`].
    pub fn run<R: Read, W: Write>(
        &self,
        mut open: impl FnMut() -> io::Result<R>,
        sink: W,
    ) -> Result<StreamReport, StreamError> {
        let planned = match self.opts.fill {
            FillMethod::Dp | FillMethod::Mt => match self.analyze(&mut open)? {
                Some(outcome) => Some(outcome),
                None => {
                    return Ok(StreamReport {
                        baseline_peak: self.opts.collect_baseline.then_some(0),
                        ..StreamReport::default()
                    })
                }
            },
            // Single pass; totals are discovered while emitting (and any
            // banded ordering runs live in the emit loop).
            FillMethod::Zero | FillMethod::One | FillMethod::Adj | FillMethod::Random(_) => None,
            FillMethod::B | FillMethod::XStat => {
                return Err(StreamError::UnsupportedFill(self.opts.fill))
            }
        };
        self.emit(&mut open, sink, planned)
    }

    /// Convenience wrapper reading from a filesystem path.
    ///
    /// # Errors
    ///
    /// See [`StreamError`].
    pub fn run_path<W: Write>(
        &self,
        path: &std::path::Path,
        sink: W,
    ) -> Result<StreamReport, StreamError> {
        self.run(|| std::fs::File::open(path), sink)
    }

    /// Runs the pipeline over one resident window: `cubes`, the whole
    /// set, already read by the caller, is analyzed, solved, filled,
    /// scored and emitted like any window, but nothing is re-read,
    /// spooled or digested, and [`StreamOptions::window`] is not
    /// consulted. The as-given baseline is taken before ordering; a
    /// [`StreamOptions::order`] is its ring ordering with no frozen
    /// prefix, the global ordering (ISA included). B-fill and
    /// XStat-fill, which bounded windows reject, run here.
    ///
    /// On an empty set, nothing is written and the report has
    /// `cubes == 0`.
    ///
    /// # Errors
    ///
    /// See [`StreamError`]; a fill whose output is not a filling of the
    /// set is a [`StreamError::NotAFilling`].
    pub fn run_resident<W: Write>(
        &self,
        cubes: CubeSet,
        sink: W,
    ) -> Result<StreamReport, StreamError> {
        let start = Instant::now();
        let baseline_peak = self.opts.collect_baseline.then(|| {
            let mut zero = ZeroFillPeak::default();
            zero.observe(cubes.as_packed().cubes());
            zero.peak
        });
        let mut report = StreamReport {
            width: cubes.width(),
            window_cubes: cubes.len(),
            baseline_peak,
            ..StreamReport::default()
        };
        if cubes.is_empty() {
            return Ok(report);
        }
        self.check_width(report.width)?;
        let (cubes, scanned) = self.order_resident(cubes)?;
        // Only DP-fill plans: MT-fill's plan would hold the first care
        // values alone, which its fill of the one window finds itself.
        // A single-pass fill's ordering belongs to its only pass.
        let mut pass2_start = start;
        let plan = match self.opts.fill {
            FillMethod::Dp => {
                let analyzed = match scanned {
                    Some(analyzed) => analyzed,
                    None => {
                        let mut analyzer = self.analyzer(report.width);
                        self.ingest(&mut analyzer, &cubes, 0, 0..cubes.len())?;
                        Analyzed::Stretches(analyzer.finish())
                    }
                };
                report.pass1_ns = nanos(start);
                let shape = (cubes.len(), report.width);
                let plan = self.resolve_plan(analyzed, Vec::new(), shape)?;
                report.solve_ns = nanos(start) - report.pass1_ns;
                pass2_start = Instant::now();
                Some(plan)
            }
            _ => None,
        };
        let carry = plan.as_ref().map_or_else(Vec::new, FillPlan::initial_carry);
        let mut writer = PatternWriter::new(sink);
        let mut done = Retired { report, tail: None };
        self.retire(
            vec![(0, cubes, carry)],
            plan.as_ref(),
            &mut writer,
            &mut done,
            0,
            false,
        )?;
        writer.finish().map_err(StreamError::Write)?;
        done.report.pass2_ns = nanos(pass2_start);
        Ok(done.report)
    }

    /// Applies [`StreamOptions::order`] to the resident set: the ring
    /// ordering with no frozen prefix, contained at window 0. A DP-fill
    /// under the I-ordering also returns the analysis of the reordered
    /// set, Algorithm 3's scan of its winning order (a panic in it, the
    /// [`ChaosPlan`] one included, contained at window 0), so the set is
    /// not scanned again; when the plan's solve is the unit bound problem
    /// (unit objective, no preference) the solve that certified the
    /// winner colors it, so it is not solved again either. It has none
    /// when the search scanned none.
    fn order_resident(&self, cubes: CubeSet) -> Result<(CubeSet, Option<Analyzed>), StreamError> {
        let Some(order) = self.opts.order else {
            return Ok((cubes, None));
        };
        let (perm, analysis) =
            contain(0, 0..cubes.len(), || match (order.method, self.opts.fill) {
                (BandedMethod::Interleave, FillMethod::Dp) => {
                    let (keep, weights) = (self.keep(), self.weights());
                    let color = self.solves_the_unit_bound();
                    let (perm, analysis) =
                        IOrdering::new().order_analyzed(&cubes, keep, weights, color)?;
                    if analysis.is_some() && self.opts.chaos.panic_in_analyze == Some(0) {
                        panic!("chaos: injected panic while analyzing window 0");
                    }
                    Ok((perm, analysis))
                }
                (method, _) => {
                    (method.order_band(&cubes, BandContext::whole_set())).map(|perm| (perm, None))
                }
            })??;
        let malformed = OrderingError::MalformedSchedule {
            len: perm.len(),
            expected: cubes.len(),
        };
        let cubes = (cubes.reordered(&perm)).map_err(|_| StreamError::Order(malformed))?;
        Ok((cubes, analysis))
    }

    /// Pass 1: stream every window through the stitching analyzer — with
    /// a banded ordering, through the reorder stage first, whose
    /// permutation pass 2 replays — digesting each cube, then solve
    /// globally and resolve the fill plan. Returns `None` on an empty
    /// input.
    fn analyze<R: Read>(
        &self,
        open: &mut impl FnMut() -> io::Result<R>,
    ) -> Result<Option<AnalyzeOutcome>, StreamError> {
        let pass_start = Instant::now();
        let stream = PatternStream::new(open().map_err(StreamError::Open)?);
        let mut source =
            WindowSource::arrivals(stream, self.opts.order, self.opts.collect_baseline);
        // Without a peeked width, window 0 is a single cube: the width
        // (and with it a budget-derived window size) is unknown until
        // one row is read.
        let mut sizing = source
            .peek_width()?
            .map(|w| self.windowing(w))
            .transpose()?;
        let mut analyzer: Option<Analyzer> = None;
        let mut digests: Vec<u64> = Vec::new();
        let mut win_idx = 0usize;
        loop {
            // The analyzer's incremental ladder doubles as the banded
            // I-ordering's warm bound: everything already frozen out of
            // the ring is a certified floor on the final bottleneck.
            let max = sizing.as_ref().map_or(1, |s| s.window);
            let Some(set) = source.next_window(max, analyzer.as_mut(), win_idx)? else {
                break;
            };
            if sizing.is_none() {
                sizing = Some(self.windowing(set.width())?);
            }
            let analyzer = analyzer.get_or_insert_with(|| self.analyzer(set.width()));
            let offset = digests.len();
            digests.extend(set.as_packed().cubes().iter().map(cube_digest));
            self.ingest(analyzer, &set, win_idx, offset..digests.len())?;
            if let Some(s) = &mut sizing {
                let digest_bytes = 8 * digests.len() as u64;
                let bytes = analyzer.event_bytes() + digest_bytes + source.held().1;
                s.charge(StreamPass::Analyze, win_idx, bytes)?;
            }
            win_idx += 1;
        }
        let (Some(analyzer), Some(sizing)) = (analyzer, sizing) else {
            return Ok(None);
        };
        let analysis = analyzer.finish();
        let pass1_ns = nanos(pass_start);
        let solve_start = Instant::now();
        let shape = (analysis.cols, sizing.width);
        let plan = self.resolve_plan(Analyzed::Stretches(analysis), digests, shape)?;
        let report = StreamReport {
            baseline_peak: source.zero_fill_peak(),
            degradations: sizing.into_events(),
            pass1_ns,
            solve_ns: nanos(solve_start),
            ..StreamReport::default()
        };
        Ok(Some(AnalyzeOutcome {
            plan,
            shape,
            perm: match source {
                WindowSource::Reorder(stage) => Some(stage.into_perm()),
                _ => None,
            },
            report,
        }))
    }

    /// Turns a finished analysis of `shape` (`(cubes, width)`) and pass
    /// 1's per-cube `digests` into the emit pass's fill plan: for DP the
    /// global BCP solve bounds, colors, verifies and shifts the
    /// analysis's stretches in place, in their `(end, pin)` walk, unless
    /// the I-ordering already colored them, and their pins are bucketed
    /// by color; MT-fill is copy-left with no flips, so its plan holds
    /// none.
    fn resolve_plan(
        &self,
        analyzed: Analyzed,
        digests: Vec<u64>,
        shape: (usize, usize),
    ) -> Result<FillPlan, StreamError> {
        let _span = minitrace::span_with(
            "stream.solve",
            &[
                ("sites", analyzed.stretches().into()),
                ("cubes", shape.0.into()),
            ],
        );
        let fill_error = |source| StreamError::Solve(DpFillError { source, shape });
        let solve_error = |e| fill_error(FillErrorSource::Solve(e));
        // The flips read each stretch's pin alone.
        let (first_values, flips) = match analyzed {
            // The solve that certified the I-ordering's winner, verified
            // at its bound.
            Analyzed::Colored(colored) => colored.into_flips(),
            Analyzed::Stretches(analysis) => {
                if analysis.overflow {
                    return Err(fill_error(FillErrorSource::Objective(
                        ObjectiveError::Overflow {
                            what: "weighted forced-toggle load on one transition",
                        },
                    )));
                }
                match self.opts.fill {
                    FillMethod::Dp => {
                        // The library DP-fill's solve of the same
                        // intervals, warmed by the bound the analysis
                        // certified.
                        let stretches = analysis.by_end(self.weights());
                        let (mut solution, load) =
                            (stretches.solve_with(Some(analysis.warm_lb))).map_err(solve_error)?;
                        match self.opts.objective.preferred() {
                            Some(preferred) => {
                                (shift_preferred(&stretches, &mut solution, load, preferred))
                                    .map_err(solve_error)?
                            }
                            // Freed before the flips are bucketed, not after.
                            None => drop(load),
                        }
                        // The starts are freed before the flips are bucketed.
                        let colored = Colored::new(analysis, solution.coloring.into_colors()).0;
                        colored.into_flips()
                    }
                    // MT-fill copies each stretch's left care value through
                    // the whole run: the coloring at each interval's end,
                    // which flips nothing before the run's right care bit.
                    FillMethod::Mt => (analysis.first_values, Flips::default()),
                    _ => unreachable!("plans only resolve for planned fills"),
                }
            }
        };
        let _plan = minitrace::span("stream.plan");
        Ok(FillPlan::new(first_values, flips, digests))
    }

    /// Pass 2 (or the only pass for per-cube fills): re-stream the
    /// windows, check each against pass 1's digests, and [`retire`]
    /// them in batches of one window per thread.
    ///
    /// [`retire`]: StreamingFill::retire
    fn emit<R: Read, W: Write>(
        &self,
        open: &mut impl FnMut() -> io::Result<R>,
        sink: W,
        mut planned: Option<AnalyzeOutcome>,
    ) -> Result<StreamReport, StreamError> {
        let pass_start = Instant::now();
        let stream = PatternStream::new(open().map_err(StreamError::Open)?);
        let pass1 = planned.as_ref().map(|o| o.shape);
        let perm = planned.as_mut().and_then(|o| o.perm.take());
        let report = planned.as_mut().map(|o| std::mem::take(&mut o.report));
        let plan = planned.as_ref().map(|o| &o.plan);
        // A planned fill took the as-given baseline in pass 1; a
        // single-pass fill takes it here, where cubes arrive.
        let mut source = match (perm, pass1) {
            (Some(perm), Some(p1)) => WindowSource::Replay(ReplayStream::new(stream, perm, p1)),
            (None, Some(_)) => WindowSource::Direct(stream, None),
            _ => WindowSource::arrivals(stream, self.opts.order, self.opts.collect_baseline),
        };
        let mut writer = PatternWriter::new(sink);
        let batch_windows = minipool::current_threads().max(1);
        // The emit pass's fixed memory cost: the resolved plan (and the
        // objective's weight table, kept resident for scoring) stays
        // for its whole duration.
        let plan_bytes =
            plan.map_or(0, FillPlan::approx_bytes) + self.opts.objective.resident_bytes();

        let width = match pass1 {
            Some((_, w)) => Some(w),
            None => source.peek_width()?,
        };
        let mut sizing = width.map(|w| self.windowing(w)).transpose()?;
        if let (Some(s), Some(_)) = (&mut sizing, plan) {
            // Budget pressure known up front (the plan) is charged
            // before the first window is read.
            s.charge(StreamPass::Emit, 0, plan_bytes)?;
        }
        // Per pin, the last care value read so far (each pin's first
        // care value before any): what the next window's X-runs copy.
        let mut carry = plan.map_or_else(Vec::new, FillPlan::initial_carry);
        let mut offset = 0usize;
        let mut done = Retired {
            report: report.unwrap_or_default(),
            tail: None,
        };

        loop {
            // Gather one batch of windows for the pool, each with the
            // carry into its first cube.
            let mut batch: Vec<Admitted> = Vec::new();
            while batch.len() < batch_windows {
                let max = sizing.as_ref().map_or(1, |s| s.window);
                let window = done.report.windows + batch.len();
                let Some(set) = source.next_window(max, None, window)? else {
                    break;
                };
                if sizing.is_none() {
                    sizing = Some(self.windowing(set.width())?);
                }
                let off = offset;
                offset += set.len();
                let mut window_carry = Vec::new();
                if let (Some((c1, w1)), Some(plan)) = (pass1, plan) {
                    // A width change or a source that *grew* since the
                    // analysis pass must fail here, before any cube
                    // beyond the plan's columns is "filled"; a
                    // same-shape content change fails on the digests.
                    if set.width() != w1 || offset > c1 {
                        return Err(StreamError::SourceChanged {
                            expected: (c1, w1),
                            found: (source.cubes_read(), set.width()),
                        });
                    }
                    window_carry = plan
                        .admit(off, set.as_packed().cubes(), &mut carry)
                        .ok_or(StreamError::ContentChanged { window })?;
                }
                batch.push((off, set, window_carry));
            }
            if batch.is_empty() {
                break;
            }
            let (held, held_bytes) = source.held();
            self.retire(batch, plan, &mut writer, &mut done, held, true)?;
            if let Some(s) = &mut sizing {
                let bytes = plan_bytes + held_bytes;
                s.charge(StreamPass::Emit, done.report.windows - 1, bytes)?;
            }
        }

        if let Some((c1, w1)) = pass1 {
            // Every window read was checked against the pass-1 width.
            if source.cubes_read() != c1 {
                return Err(StreamError::SourceChanged {
                    expected: (c1, w1),
                    found: (source.cubes_read(), w1),
                });
            }
        }
        writer.finish().map_err(StreamError::Write)?;
        let r = &mut done.report;
        (r.width, r.window_cubes) = sizing.as_ref().map_or((0, 0), |s| (s.width, s.window));
        if pass1.is_none() {
            r.baseline_peak = source.zero_fill_peak();
        }
        (r.degradations).extend(sizing.map(Windowing::into_events).unwrap_or_default());
        r.pass2_ns = nanos(pass_start);
        Ok(done.report)
    }

    /// Fills a batch of admitted windows on the pool, one task each,
    /// checks each is a filling of the cubes read for it, scores it with
    /// the batched toggle sweeps (the boundary transition stitched
    /// against the previous window's last cube) and emits it, in window
    /// order at any thread count. `held` is the cubes the source holds
    /// besides the batch. A filled window that is not a filling of its
    /// cubes is [`StreamError::ContentChanged`] when they were `reread`
    /// from the source, and [`StreamError::NotAFilling`] otherwise.
    fn retire<W: Write>(
        &self,
        batch: Vec<Admitted>,
        plan: Option<&FillPlan>,
        writer: &mut PatternWriter<W>,
        done: &mut Retired,
        held: usize,
        reread: bool,
    ) -> Result<(), StreamError> {
        let first = done.report.windows;
        if let (0, Some(h)) = (first, &self.opts.header) {
            writer.header(h).map_err(StreamError::Write)?;
        }
        // Each window's fill is wrapped in catch_unwind *inside* its
        // pooled task, so a worker panic is contained with exact window
        // attribution instead of unwinding through the pool scope.
        let filled = minipool::parallel_index_chunks(batch.len(), 1, |range| {
            range
                .map(|i| {
                    let (off, set, carry) = &batch[i];
                    let plan = plan.map(|p| (p, carry.as_slice()));
                    contain(first + i, *off..*off + set.len(), || {
                        self.fill_window(set, *off, plan, first + i)
                    })
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect::<Result<Vec<CubeSet>, StreamError>>()?;
        let r = &mut done.report;
        let batch_cubes: usize = batch.iter().map(|(_, set, _)| set.len()).sum();
        r.resident_peak_cubes = r.resident_peak_cubes.max(2 * batch_cubes + 2 + held);
        let score_overflow = |_| StreamError::Overflow {
            what: "weighted toggle score".to_string(),
        };
        for ((_, original, _), filled) in batch.iter().zip(filled) {
            let window = r.windows;
            if !CubeSet::is_filling_of(&filled, original) {
                return Err(if reread {
                    StreamError::ContentChanged { window }
                } else {
                    StreamError::NotAFilling {
                        fill: self.opts.fill,
                        window,
                    }
                });
            }
            r.x_count += original.x_count();
            let packed = filled.as_packed();
            let stitch = done.tail.as_ref().map(|tail| tail.hamming(packed.cube(0)));
            let _span = minitrace::span_with(
                "stream.window.emit",
                &[
                    ("window", window.into()),
                    ("cubes", filled.len().into()),
                    // The boundary transition stitched across the
                    // one-cube overlap with the previous window.
                    ("stitch_toggles", stitch.unwrap_or(0).into()),
                    ("stitch_overlap", u64::from(stitch.is_some()).into()),
                ],
            );
            // One-dispatch batched sweep over the window's transitions
            // (PR-4 kernels).
            let profile = packed.toggle_profile();
            let peak = stitch.unwrap_or(0).max(r.peak_toggles);
            r.peak_toggles = profile.into_iter().fold(peak, usize::max);
            r.objective_peak = match self.weights() {
                // Under unit weights the objective peak is the toggle peak.
                None => r.peak_toggles as u64,
                Some(ws) => {
                    WEIGHTED_SCORE_WINDOWS.add(1);
                    let mut peak = r.objective_peak;
                    if let Some(tail) = &done.tail {
                        let t = tail.weighted_hamming(packed.cube(0), ws);
                        peak = peak.max(t.map_err(score_overflow)?);
                    }
                    let profile = packed.weighted_toggle_profile(ws).map_err(score_overflow)?;
                    profile.into_iter().fold(peak, u64::max)
                }
            };
            done.tail = Some(packed.cube(packed.len() - 1).clone());
            writer.set(&filled).map_err(StreamError::Write)?;
            r.windows += 1;
            r.cubes += filled.len();
        }
        Ok(())
    }

    /// Fills one window. Planned fills run the global plan over the
    /// window from the carry into its first cube; the others run
    /// directly (R-fill keyed by the cube's **global** index, so
    /// windowing never changes its stream; MT-, B- and XStat-fill run
    /// directly only on a resident whole set). Runs inside a pooled task under
    /// `catch_unwind`: a panic here — including the deliberate
    /// [`ChaosPlan`] one — is contained and attributed to `win_idx`.
    fn fill_window(
        &self,
        original: &CubeSet,
        offset: usize,
        plan: Option<(&FillPlan, &[u64])>,
        win_idx: usize,
    ) -> CubeSet {
        let _span = minitrace::span_with(
            "stream.window.fill",
            &[("window", win_idx.into()), ("cubes", original.len().into())],
        );
        if self.opts.chaos.panic_in_fill == Some(win_idx) {
            panic!("chaos: injected panic in the fill worker of window {win_idx}");
        }
        match (plan, self.opts.fill) {
            (Some((plan, carry)), _) => {
                let filled = plan.fill_window(original, offset, carry);
                debug_assert_eq!(filled.x_count(), 0, "copy-left fills every X");
                filled
            }
            (None, FillMethod::Random(seed)) => RandomFill::new(seed).fill_from(original, offset),
            (None, fill) => fill.fill_with(original, &self.opts.objective),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpfill_cubes::{format, Bit};

    fn run_windowed(text: &str, fill: FillMethod, window: WindowSpec) -> (Vec<u8>, StreamReport) {
        let opts = StreamOptions {
            window,
            fill,
            collect_baseline: true,
            ..StreamOptions::default()
        };
        let mut out = Vec::new();
        let report = StreamingFill::new(opts)
            .run(|| Ok(text.as_bytes()), &mut out)
            .expect("streaming run");
        (out, report)
    }

    fn monolithic(text: &str, fill: FillMethod) -> Vec<u8> {
        let cubes = format::parse_patterns(text).unwrap();
        let filled = fill.fill(&cubes);
        let mut buf = Vec::new();
        format::write_patterns(&mut buf, &filled, None).unwrap();
        buf
    }

    #[test]
    fn empty_input_emits_nothing() {
        let (out, report) =
            run_windowed("# only comments\n\n", FillMethod::Dp, WindowSpec::Cubes(4));
        assert!(out.is_empty());
        assert_eq!(report.cubes, 0);
        assert_eq!(report.windows, 0);
        assert_eq!(report.baseline_peak, Some(0));
    }

    #[test]
    fn single_cube_single_window() {
        let (out, report) = run_windowed("0XX1X\n", FillMethod::Dp, WindowSpec::Cubes(8));
        assert_eq!(out, monolithic("0XX1X\n", FillMethod::Dp));
        assert_eq!(report.cubes, 1);
        assert_eq!(report.peak_toggles, 0);
    }

    #[test]
    fn every_supported_fill_matches_monolithic_at_window_two() {
        let text = "0XX1\nXX0X\n1X0X\nX1XX\n0XX1\nXXXX\n10X0\n";
        for fill in [
            FillMethod::Dp,
            FillMethod::Mt,
            FillMethod::Zero,
            FillMethod::One,
            FillMethod::Adj,
            FillMethod::Random(0xF111),
        ] {
            let (out, report) = run_windowed(text, fill, WindowSpec::Cubes(2));
            assert_eq!(out, monolithic(text, fill), "{}", fill.label());
            assert_eq!(report.cubes, 7);
            let filled = format::parse_patterns(std::str::from_utf8(&out).unwrap()).unwrap();
            assert_eq!(
                report.peak_toggles,
                dpfill_cubes::peak_toggles(&filled).unwrap(),
                "{}",
                fill.label()
            );
        }
    }

    fn run_objective(
        text: &str,
        fill: FillMethod,
        window: WindowSpec,
        objective: FillObjective,
    ) -> Result<(Vec<u8>, StreamReport), StreamError> {
        let opts = StreamOptions {
            window,
            fill,
            objective,
            ..StreamOptions::default()
        };
        let mut out = Vec::new();
        let report = StreamingFill::new(opts).run(|| Ok(text.as_bytes()), &mut out)?;
        Ok((out, report))
    }

    #[test]
    fn weighted_streaming_matches_the_monolithic_weighted_fill() {
        use crate::objective::WeightTable;
        use dpfill_cubes::gen::random_cube_set;
        for seed in [3u64, 11] {
            let cubes = random_cube_set(6, 13, 0.55, seed);
            let mut text = Vec::new();
            format::write_patterns(&mut text, &cubes, None).unwrap();
            let text = String::from_utf8(text).unwrap();
            let weights: Vec<u64> = (0..6).map(|i| [7, 1, 100, 3, 1, 19][i]).collect();
            for preferred in [None, Some(vec![Bit::One; 6]), Some(vec![Bit::Zero; 6])] {
                let table = WeightTable::new(weights.clone(), preferred).unwrap();
                let objective = FillObjective::weighted(table.clone());
                // The monolithic reference: DpFill under the same
                // objective.
                use crate::fill::FillStrategy as _;
                let filled = crate::fill::DpFill::new()
                    .with_objective(objective.clone())
                    .fill(&cubes);
                let mut whole = Vec::new();
                format::write_patterns(&mut whole, &filled, None).unwrap();
                for window in [1, 2, 5, 64] {
                    let (out, report) = run_objective(
                        &text,
                        FillMethod::Dp,
                        WindowSpec::Cubes(window),
                        objective.clone(),
                    )
                    .unwrap();
                    assert_eq!(out, whole, "seed {seed} window {window}");
                    assert_eq!(
                        report.objective_peak,
                        filled.as_packed().weighted_peak_toggles(&weights).unwrap(),
                        "seed {seed} window {window}"
                    );
                    assert_eq!(
                        report.peak_toggles,
                        dpfill_cubes::peak_toggles(&filled).unwrap()
                    );
                }
            }
        }
    }

    #[test]
    fn default_objective_report_mirrors_peak_toggles() {
        let text = "0XX1\nXX0X\n1X0X\nX1XX\n0XX1\n";
        let (out, report) = run_windowed(text, FillMethod::Dp, WindowSpec::Cubes(2));
        assert_eq!(out, monolithic(text, FillMethod::Dp));
        assert_eq!(report.objective_peak, report.peak_toggles as u64);
    }

    #[test]
    fn objective_width_mismatch_is_a_typed_stream_error() {
        use crate::objective::WeightTable;
        let objective = FillObjective::weighted(WeightTable::new(vec![1, 2, 3], None).unwrap());
        for fill in [FillMethod::Dp, FillMethod::Zero] {
            let err = run_objective("0X\n1X\n", fill, WindowSpec::Cubes(2), objective.clone())
                .unwrap_err();
            match err {
                StreamError::Solve(e) => {
                    assert!(matches!(
                        e.source,
                        FillErrorSource::Objective(ObjectiveError::WidthMismatch {
                            expected: 2,
                            found: 3
                        })
                    ));
                }
                other => panic!("expected a typed objective error, got {other}"),
            }
        }
    }

    #[test]
    fn weighted_scoring_covers_the_single_pass_fills() {
        use crate::objective::WeightTable;
        let text = "0XX1\nXX0X\n1X0X\nX1XX\n0XX1\n";
        let weights = vec![5u64, 1, 9, 2];
        let objective = FillObjective::weighted(WeightTable::new(weights.clone(), None).unwrap());
        for fill in [FillMethod::Zero, FillMethod::Adj] {
            let (out, report) =
                run_objective(text, fill, WindowSpec::Cubes(2), objective.clone()).unwrap();
            // Objective-blind fills emit the same bytes; only the score
            // is objective-aware.
            assert_eq!(out, monolithic(text, fill), "{}", fill.label());
            let filled = format::parse_patterns(std::str::from_utf8(&out).unwrap()).unwrap();
            assert_eq!(
                report.objective_peak,
                filled.as_packed().weighted_peak_toggles(&weights).unwrap(),
                "{}",
                fill.label()
            );
        }
    }

    #[test]
    fn unsupported_fills_are_rejected() {
        for fill in [FillMethod::B, FillMethod::XStat] {
            let opts = StreamOptions {
                fill,
                ..StreamOptions::default()
            };
            let err = StreamingFill::new(opts)
                .run(|| Ok("0X\n".as_bytes()), &mut Vec::new())
                .unwrap_err();
            assert!(matches!(err, StreamError::UnsupportedFill(_)));
            assert!(err.to_string().contains("whole pattern set"));
        }
    }

    #[test]
    fn source_changed_between_passes_is_detected() {
        // The second open yields fewer cubes.
        let texts = ["0X\n1X\nX1\n", "0X\n1X\n"];
        let mut calls = 0usize;
        let err = StreamingFill::new(StreamOptions {
            window: WindowSpec::Cubes(2),
            ..StreamOptions::default()
        })
        .run(
            || {
                let t = texts[calls.min(1)];
                calls += 1;
                Ok(t.as_bytes())
            },
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(matches!(err, StreamError::SourceChanged { .. }), "{err}");
        assert!(err.to_string().contains("changed between passes"));
    }

    #[test]
    fn source_growing_between_passes_never_emits_unplanned_cubes() {
        // The second open yields an extra cube: its columns lie beyond
        // every plan segment, so the run must fail as SourceChanged
        // before "filling" it — and nothing written may contain an X.
        let texts = ["0X\n1X\nX1\n", "0X\n1X\nX1\nXX\n"];
        let mut calls = 0usize;
        let mut out = Vec::new();
        let err = StreamingFill::new(StreamOptions {
            window: WindowSpec::Cubes(2),
            ..StreamOptions::default()
        })
        .run(
            || {
                let t = texts[calls.min(1)];
                calls += 1;
                Ok(t.as_bytes())
            },
            &mut out,
        )
        .unwrap_err();
        assert!(matches!(err, StreamError::SourceChanged { .. }), "{err}");
        assert!(
            !out.contains(&b'X'),
            "unfilled cube leaked into the output: {:?}",
            String::from_utf8_lossy(&out)
        );
    }

    #[test]
    fn broken_sink_surfaces_as_write_error() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "gone"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = StreamingFill::new(StreamOptions::default())
            .run(|| Ok("0X\n1X\n".as_bytes()), Broken)
            .unwrap_err();
        match err {
            StreamError::Write(e) => assert_eq!(e.kind(), io::ErrorKind::BrokenPipe),
            other => panic!("expected Write, got {other}"),
        }
    }

    #[test]
    fn memory_budget_resolves_to_a_window() {
        // 1 MiB budget, width 64 (16 bytes of planes per cube), one
        // thread: 7/8 MiB (1/8 is event headroom) / (2 · 16) = 28672.
        let w = WindowSpec::MemoryBudgetMiB(1).window_for_width(64).unwrap();
        assert!(w >= 1);
        let pool = minipool::ThreadPool::new(1);
        let w1 = minipool::with_pool(&pool, || {
            WindowSpec::MemoryBudgetMiB(1).window_for_width(64).unwrap()
        });
        assert_eq!(w1, 28672);
        // A tiny budget never drops below one cube.
        assert_eq!(
            WindowSpec::MemoryBudgetMiB(1)
                .window_for_width(1 << 24)
                .unwrap(),
            1
        );
        // An absurd width overflows as a typed error, not a wrap: two
        // plane copies of a usize::MAX-pin cube (2^63 bytes) per thread
        // leave u64 at two threads; at one they fit, and the window
        // floors at one cube.
        let absurd = |threads| {
            let pool = minipool::ThreadPool::new(threads);
            minipool::with_pool(&pool, || {
                WindowSpec::MemoryBudgetMiB(1).window_for_width(usize::MAX)
            })
        };
        assert!(matches!(absurd(2), Err(StreamError::Overflow { .. })));
        assert_eq!(absurd(1).unwrap(), 1);
        let (out, report) = run_windowed(
            "0XX1\nXX0X\n1X0X\n",
            FillMethod::Dp,
            WindowSpec::MemoryBudgetMiB(1),
        );
        assert_eq!(out, monolithic("0XX1\nXX0X\n1X0X\n", FillMethod::Dp));
        assert!(report.window_cubes >= 1);
    }

    fn run_ordered(
        text: &str,
        fill: FillMethod,
        window: usize,
        order: BandedOrder,
    ) -> (Vec<u8>, StreamReport) {
        let opts = StreamOptions {
            window: WindowSpec::Cubes(window),
            fill,
            order: Some(order),
            ..StreamOptions::default()
        };
        let mut out = Vec::new();
        let report = StreamingFill::new(opts)
            .run(|| Ok(text.as_bytes()), &mut out)
            .expect("ordered streaming run");
        (out, report)
    }

    /// The monolithic pipeline for an ordered run: global ordering,
    /// then fill, then emit.
    fn monolithic_ordered(
        text: &str,
        fill: FillMethod,
        method: crate::ordering::BandedMethod,
    ) -> Vec<u8> {
        use crate::ordering::{BandedMethod, OrderingMethod};
        let cubes = format::parse_patterns(text).unwrap();
        let global = match method {
            BandedMethod::Interleave => OrderingMethod::Interleaved,
            BandedMethod::XStat => OrderingMethod::XStat,
            BandedMethod::Isa(seed) => OrderingMethod::Isa(seed),
        };
        let order = global.order(&cubes).unwrap();
        let filled = fill.fill(&cubes.reordered(&order).unwrap());
        let mut buf = Vec::new();
        format::write_patterns(&mut buf, &filled, None).unwrap();
        buf
    }

    const ORDERED_TEXT: &str = "0XX1\nXX0X\n1X0X\nX1XX\n0XX1\nXXXX\n10X0\n";

    #[test]
    fn band_covering_the_set_is_byte_identical_to_the_monolithic_ordered_run() {
        use crate::ordering::BandedMethod;
        // 4 windows × 2 cubes ≥ 7 cubes: the ring swallows the input,
        // the banded orderings delegate to their global counterparts,
        // and every fill arm (two-pass planned, per-cube local) must
        // emit exactly the monolithic ordering's bytes.
        for method in [BandedMethod::Interleave, BandedMethod::XStat] {
            for fill in [
                FillMethod::Dp,
                FillMethod::Mt,
                FillMethod::Zero,
                FillMethod::Random(0xBEEF),
            ] {
                let (out, report) =
                    run_ordered(ORDERED_TEXT, fill, 2, BandedOrder::with_band(method, 4));
                assert_eq!(
                    out,
                    monolithic_ordered(ORDERED_TEXT, fill, method),
                    "{} under {}",
                    fill.label(),
                    method.label()
                );
                assert_eq!(report.cubes, 7);
            }
        }
    }

    #[test]
    fn narrow_bands_emit_a_filled_permutation_of_the_input() {
        use crate::ordering::BandedMethod;
        // A band that cannot see the whole set still emits every cube
        // exactly once (here checked through the Zero fill, where each
        // emitted line is its cube's X→0 image).
        let mut expected: Vec<String> = ORDERED_TEXT.lines().map(|l| l.replace('X', "0")).collect();
        expected.sort();
        for method in [BandedMethod::Interleave, BandedMethod::XStat] {
            for band in [1, 2] {
                let (out, report) = run_ordered(
                    ORDERED_TEXT,
                    FillMethod::Zero,
                    2,
                    BandedOrder::with_band(method, band),
                );
                let mut lines: Vec<String> = String::from_utf8(out)
                    .unwrap()
                    .lines()
                    .map(str::to_owned)
                    .collect();
                lines.sort();
                assert_eq!(lines, expected, "{} band {band}", method.label());
                assert_eq!(report.cubes, 7);
                // The ring is part of the observable resident set.
                assert!(report.resident_peak_cubes >= 2);
            }
        }
    }

    #[test]
    fn ordered_two_pass_report_matches_the_emitted_metrics() {
        use crate::ordering::BandedMethod;
        let (out, report) = run_ordered(
            ORDERED_TEXT,
            FillMethod::Dp,
            2,
            BandedOrder::with_band(BandedMethod::Interleave, 2),
        );
        let filled = format::parse_patterns(std::str::from_utf8(&out).unwrap()).unwrap();
        assert_eq!(filled.len(), 7);
        assert_eq!(
            report.peak_toggles,
            dpfill_cubes::peak_toggles(&filled).unwrap()
        );
        assert_eq!(filled.x_count(), 0, "the plan covers the reordered set");
    }

    #[test]
    fn ordered_source_change_between_passes_is_detected() {
        use crate::ordering::BandedMethod;
        let texts = ["0X\n1X\nX1\n", "0X\n1X\n"];
        let mut calls = 0usize;
        let err = StreamingFill::new(StreamOptions {
            window: WindowSpec::Cubes(2),
            order: Some(BandedOrder::new(BandedMethod::XStat)),
            ..StreamOptions::default()
        })
        .run(
            || {
                let t = texts[calls.min(1)];
                calls += 1;
                Ok(t.as_bytes())
            },
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(matches!(err, StreamError::SourceChanged { .. }), "{err}");
    }

    fn resident(text: &str, opts: StreamOptions) -> Result<(Vec<u8>, StreamReport), StreamError> {
        let mut out = Vec::new();
        let cubes = format::parse_patterns(text).unwrap();
        let report = StreamingFill::new(opts).run_resident(cubes, &mut out)?;
        Ok((out, report))
    }

    #[test]
    fn a_resident_run_is_the_whole_set_pipeline() {
        use crate::ordering::BandedMethod;
        // Every fill, the whole-set B and XStat included, under every
        // ordering, ISA included: the global ordering, then the fill.
        let as_given = dpfill_cubes::peak_toggles(
            &FillMethod::Zero.fill(&format::parse_patterns(ORDERED_TEXT).unwrap()),
        )
        .unwrap();
        for method in [
            None,
            Some(BandedMethod::Interleave),
            Some(BandedMethod::XStat),
            Some(BandedMethod::Isa(5)),
        ] {
            for fill in [
                FillMethod::Dp,
                FillMethod::Mt,
                FillMethod::B,
                FillMethod::XStat,
                FillMethod::Zero,
                FillMethod::Adj,
                FillMethod::Random(0xBEEF),
            ] {
                let opts = StreamOptions {
                    fill,
                    order: method.map(BandedOrder::new),
                    collect_baseline: true,
                    ..StreamOptions::default()
                };
                let (out, report) = resident(ORDERED_TEXT, opts).unwrap();
                let expected = match method {
                    None => monolithic(ORDERED_TEXT, fill),
                    Some(m) => monolithic_ordered(ORDERED_TEXT, fill, m),
                };
                let what = format!("{} under {method:?}", fill.label());
                assert_eq!(out, expected, "{what}");
                assert_eq!((report.cubes, report.width), (7, 4), "{what}");
                assert_eq!((report.windows, report.window_cubes), (1, 7), "{what}");
                assert_eq!(report.baseline_peak, Some(as_given), "{what}");
                let filled = format::parse_patterns(std::str::from_utf8(&out).unwrap()).unwrap();
                let peak = dpfill_cubes::peak_toggles(&filled).unwrap();
                assert_eq!(report.peak_toggles, peak, "{what}");
            }
        }
        let (out, report) = resident("# none\n", StreamOptions::default()).unwrap();
        assert!(out.is_empty());
        assert_eq!(report.cubes, 0);
    }

    #[test]
    fn isa_orders_a_ring_only_when_it_holds_the_whole_set() {
        use crate::ordering::BandedMethod;
        let isa = BandedMethod::Isa(5);
        let (out, _) = run_ordered(
            ORDERED_TEXT,
            FillMethod::Dp,
            2,
            BandedOrder::with_band(isa, 4),
        );
        assert_eq!(out, monolithic_ordered(ORDERED_TEXT, FillMethod::Dp, isa));
        let opts = StreamOptions {
            window: WindowSpec::Cubes(2),
            order: Some(BandedOrder::with_band(isa, 1)),
            ..StreamOptions::default()
        };
        let err = StreamingFill::new(opts)
            .run(|| Ok(ORDERED_TEXT.as_bytes()), &mut Vec::new())
            .unwrap_err();
        assert!(
            matches!(err, StreamError::Order(OrderingError::NeedsWholeSet("ISA"))),
            "{err}"
        );
    }

    #[test]
    fn resident_panics_are_contained_at_window_zero() {
        for chaos in [
            ChaosPlan {
                panic_in_fill: Some(0),
                panic_in_analyze: None,
            },
            ChaosPlan {
                panic_in_fill: None,
                panic_in_analyze: Some(0),
            },
        ] {
            let opts = StreamOptions {
                chaos,
                ..StreamOptions::default()
            };
            match resident(ORDERED_TEXT, opts).unwrap_err() {
                StreamError::WindowPanicked { window, cubes, .. } => {
                    assert_eq!((window, cubes), (0, 0..7), "{chaos:?}");
                }
                other => panic!("{chaos:?}: expected a contained panic, got {other}"),
            }
        }
    }

    #[test]
    fn mt_pass_one_keeps_no_stretch() {
        // MT-fill's plan reads only the first care values, so its pass 1
        // holds no per-stretch bytes; its unit ladder, the banded
        // I-ordering's warm bound, still sees every stretch.
        let cubes = dpfill_cubes::gen::random_cube_set(70, 40, 0.6, 5);
        let analyzed = |fill| {
            let driver = StreamingFill::new(StreamOptions {
                fill,
                ..StreamOptions::default()
            });
            let mut analyzer = driver.analyzer(cubes.width());
            analyzer.ingest(cubes.as_packed().cubes());
            let bytes = analyzer.event_bytes();
            (bytes, analyzer.warm_bound(), analyzer.finish())
        };
        let (mt_bytes, mt_bound, mt) = analyzed(FillMethod::Mt);
        let (dp_bytes, dp_bound, dp) = analyzed(FillMethod::Dp);
        assert!(mt.chunks.is_empty());
        assert!(dp.stretches() > 0);
        // DP keeps each stretch's start and pin, and per chunk one by-end
        // offset per transition; MT keeps the one initial offset.
        let per_stretch = 2 * std::mem::size_of::<u32>() as u64;
        let offsets = (dp.chunks.len() * dp.baseline.len() * std::mem::size_of::<usize>()) as u64;
        assert_eq!(
            dp_bytes - mt_bytes,
            dp.stretches() as u64 * per_stretch + offsets
        );
        assert_eq!((mt_bound, &mt.first_values), (dp_bound, &dp.first_values));
    }

    #[test]
    fn header_is_written_once_before_the_first_window() {
        let opts = StreamOptions {
            window: WindowSpec::Cubes(1),
            fill: FillMethod::Zero,
            header: Some("streamed".into()),
            ..StreamOptions::default()
        };
        let mut out = Vec::new();
        StreamingFill::new(opts)
            .run(|| Ok("0X\n1X\n".as_bytes()), &mut out)
            .unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), "# streamed\n00\n10\n");
    }
}

/// A resident I-ordered DP-fill under the unit objective takes the
/// solve that certified the winner as its coloring: it must be the
/// solve's coloring from scratch, and emit the bytes of a solved run.
#[cfg(test)]
mod certified {
    use dpfill_cubes::gen::random_cube_set;
    use dpfill_cubes::CubeSet;
    use proptest::prelude::*;

    use super::{Analyzed, Analyzer, BandedMethod, BandedOrder, IOrdering, Keep, StreamOptions};
    use super::{FillMethod, StreamingFill};

    const WIDTHS: [usize; 6] = [1, 8, 64, 65, 520, 1100];
    const DENSITIES: [f64; 4] = [0.0, 0.5, 0.8, 1.0];

    /// The resident DP-fill of `cubes`, I-ordered or as given.
    fn resident(cubes: CubeSet, interleave: bool) -> Vec<u8> {
        let opts = StreamOptions {
            fill: FillMethod::Dp,
            order: interleave.then(|| BandedOrder::new(BandedMethod::Interleave)),
            ..StreamOptions::default()
        };
        let mut out = Vec::new();
        (StreamingFill::new(opts).run_resident(cubes, &mut out)).expect("resident run");
        out
    }

    /// Checks the certified coloring of `cubes` against the solve of a
    /// fresh analysis of the chosen order, and the emitted bytes against
    /// the as-given run of the reordered set. Returns the chosen `k`.
    fn check(cubes: &CubeSet) -> usize {
        let search = IOrdering::new();
        let (order, analyzed) = search
            .order_analyzed(cubes, Keep::Pins, None, true)
            .unwrap();
        let reordered = cubes.reordered(&order).unwrap();
        match analyzed {
            Some(Analyzed::Colored(colored)) => {
                let mut analyzer = Analyzer::new(cubes.width(), None, Keep::Pins);
                analyzer.ingest(reordered.as_packed().cubes());
                let fresh = analyzer.finish();
                let (solution, _) = fresh.by_end(None).solve_with(None).unwrap();
                assert_eq!(colored.colors(), solution.coloring.colors(), "coloring");
                let analysis = colored.analysis();
                assert_eq!(analysis.warm_lb, solution.lower_bound, "bound");
                assert!(analysis.pins().eq(fresh.pins()), "pins");
                assert!(analysis.chunks.iter().all(|g| g.starts.is_empty()));
            }
            Some(Analyzed::Stretches(_)) => panic!("an uncolored winner"),
            None => assert!(cubes.len() <= 2, "no winner"),
        }
        assert_eq!(resident(cubes.clone(), true), resident(reordered, false));
        search.order_with_trace(cubes).unwrap().chosen_k
    }

    #[test]
    fn a_later_winner_replaces_the_first_coloring() {
        // k = 2 beats k = 1 on some of these sets: k = 1's coloring is
        // dropped, and k = 2's is the one the run uses.
        let later = (0..40u64)
            .map(|seed| check(&random_cube_set(8, 6, 0.5, seed)))
            .filter(|&k| k == 2)
            .count();
        assert!(later > 0, "no set chose k = 2");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn the_certified_coloring_is_the_solve_from_scratch(
            w in 0..WIDTHS.len(),
            count in 0usize..40,
            d in 0..DENSITIES.len(),
            seed in 0u64..u64::MAX,
            threads in 0usize..3,
        ) {
            let cubes = random_cube_set(WIDTHS[w], count, DENSITIES[d], seed);
            let pool = minipool::ThreadPool::new([1, 2, 8][threads]);
            minipool::with_pool(&pool, || check(&cubes));
        }
    }
}
