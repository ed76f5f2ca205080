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
//! * the **classification events** — one 16-byte interval site per
//!   `v X…X w` stretch plus one counter per transition. Every other `X`
//!   copies the nearest care value to its left and is never stored.
//!
//! The pipeline streams the planes and keeps the events:
//!
//! 1. **Analysis pass** ([`analyze::WindowedAnalyzer`], the analyzer
//!    [`MatrixMapping::analyze`](crate::MatrixMapping::analyze) runs as
//!    one window): per-pin scan state carries across window boundaries,
//!    so stretches spanning any number of windows are stitched
//!    *exactly*, and a stable group-by-row puts the sites in row-major
//!    order. Each pin's first care value and a 64-bit digest of each
//!    cube are recorded; the cubes are dropped as the next window
//!    arrives.
//! 2. **Solve**: the *same* global
//!    [`BcpInstance::solve`](crate::BcpInstance::solve) the monolithic
//!    DP-fill runs, on the identical instance built by the same
//!    function — no cubes resident at all. The row-major sites and
//!    their colors are then the fill plan ([`plan::FillPlan`]).
//! 3. **Emit pass**: windows are re-read, checked against their
//!    digests and filled "copy-left, then flip" from the per-pin last
//!    care value carried across windows — the row kernel
//!    `apply_coloring` runs on whole rows — then scored with the
//!    batched toggle sweeps (the boundary transition stitched against
//!    the previous window's last cube) and written out as each window
//!    retires. Window batches run on the [`minipool`] pool.
//!
//! Byte-identity therefore holds *by construction* — pinned by the
//! `streaming_fill` differential suite across window sizes and thread
//! counts — and the resident-cube bound is the window batch plus the
//! one-cube overlap tails.
//!
//! # Banded streaming orderings
//!
//! A global ordering needs the whole set; a streaming run can still
//! reorder within a bounded horizon. Setting [`StreamOptions::order`]
//! interposes the [`reorder`] stage: a ring of `band × window` cubes is
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
use dpfill_cubes::packed::{PackedBits, PackedMatrix};
use dpfill_cubes::CubeSet;

use crate::bcp::SolveOptions;
use crate::fill::{DpFillError, FillErrorSource, FillMethod, RandomFill};
use crate::mapping::{build_instance, desires};
use crate::objective::{FillObjective, ObjectiveError};
use crate::ordering::OrderingError;

use analyze::{Analysis, WindowedAnalyzer};
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
    /// bytes of plane words, and the pipeline holds about four plane
    /// copies per in-flight cube (the parsed window, its transpose, the
    /// filled transpose and the emitted set) across a batch of
    /// `threads` windows. The budget is divided accordingly — minus a
    /// 1/8 headroom reserve for the scalar event stream and overlap
    /// tails (see [`budget`]) — and the window never drops below one
    /// cube.
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

impl ChaosPlan {
    /// True when no fault is scheduled.
    pub fn is_inert(&self) -> bool {
        *self == ChaosPlan::default()
    }
}

/// Configuration of a [`StreamingFill`] run.
#[derive(Clone, Debug)]
pub struct StreamOptions {
    /// Window sizing (cubes or memory budget).
    pub window: WindowSpec,
    /// The fill to run. Supported: [`FillMethod::Dp`], [`FillMethod::Mt`]
    /// (two-pass, globally solved/stitched) and the per-cube
    /// [`FillMethod::Zero`]/[`FillMethod::One`]/[`FillMethod::Adj`]/
    /// [`FillMethod::Random`] (single pass). [`FillMethod::B`] and
    /// [`FillMethod::XStat`] need the whole set resident and are
    /// rejected.
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
        analyzer: Option<&WindowedAnalyzer>,
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
                let warm_lb = analyzer.map_or(0, WindowedAnalyzer::warm_bound);
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

    /// High-water mark of cubes the source itself held resident (ring
    /// / replay buffer), on top of the windows in flight.
    fn peak_resident_cubes(&self) -> usize {
        match self {
            WindowSource::Direct(..) => 0,
            WindowSource::Replay(s) => s.peak_resident_cubes(),
            WindowSource::Reorder(s) => s.peak_resident_cubes(),
        }
    }

    /// Bytes the source holds resident — charged to the budget
    /// governor alongside the analyzer's events or the plan.
    fn resident_bytes(&self) -> u64 {
        match self {
            WindowSource::Direct(..) => 0,
            WindowSource::Replay(s) => s.resident_bytes(),
            WindowSource::Reorder(s) => s.resident_bytes(),
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
    /// The as-given 0-fill peak, taken while pass 1 read the input.
    baseline_peak: Option<usize>,
    degradations: Vec<DegradeEvent>,
    /// Wall-clock spent streaming the analysis (excluding the solve).
    pass1_ns: u64,
    /// Wall-clock spent resolving the plan (solve and plan build).
    solve_ns: u64,
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

impl StreamingFill {
    /// Creates a driver.
    pub fn new(opts: StreamOptions) -> StreamingFill {
        StreamingFill { opts }
    }

    /// The configuration.
    pub fn options(&self) -> &StreamOptions {
        &self.opts
    }

    /// Validates the configured objective against the stream's cube
    /// width, as soon as the width is known, and sizes the pass's
    /// windows for it.
    fn windowing(&self, width: usize) -> Result<Windowing, StreamError> {
        self.opts.objective.check_width(width).map_err(|e| {
            StreamError::Solve(DpFillError {
                source: FillErrorSource::Objective(e),
                shape: (0, width),
            })
        })?;
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
    /// See [`StreamError`].
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
        let mut analyzer: Option<WindowedAnalyzer> = None;
        let mut digests: Vec<u64> = Vec::new();
        let mut win_idx = 0usize;
        let mut offset = 0usize;
        loop {
            // The analyzer's incremental ladder doubles as the banded
            // I-ordering's warm bound: everything already frozen out of
            // the ring is a certified floor on the final bottleneck.
            let max = sizing.as_ref().map_or(1, |s| s.window);
            let Some(set) = source.next_window(max, analyzer.as_ref(), win_idx)? else {
                break;
            };
            if sizing.is_none() {
                sizing = Some(self.windowing(set.width())?);
            }
            let analyzer = analyzer.get_or_insert_with(|| {
                WindowedAnalyzer::with_weights(set.width(), self.weights().map(<[u64]>::to_vec))
            });
            let cubes = offset..offset + set.len();
            offset = cubes.end;
            digests.extend(set.as_packed().cubes().iter().map(cube_digest));
            // Contain worker panics at the window boundary: the minipool
            // scope rethrows a task panic on this thread, so catching
            // here covers the pooled per-pin fan-out inside `ingest`.
            let _span = minitrace::span_with(
                "stream.window.analyze",
                &[("window", win_idx.into()), ("cubes", set.len().into())],
            );
            let ingest = catch_unwind(AssertUnwindSafe(|| {
                if self.opts.chaos.panic_in_analyze == Some(win_idx) {
                    panic!("chaos: injected panic while analyzing window {win_idx}");
                }
                analyzer.ingest(&PackedMatrix::from_packed_set(set.as_packed()));
            }));
            if let Err(payload) = ingest {
                return Err(StreamError::WindowPanicked {
                    window: win_idx,
                    cubes,
                    message: panic_message(payload.as_ref()),
                });
            }
            if let Some(s) = &mut sizing {
                let digest_bytes = 8 * digests.len() as u64;
                let bytes = analyzer.event_bytes() + digest_bytes + source.resident_bytes();
                s.charge(StreamPass::Analyze, win_idx, bytes)?;
            }
            win_idx += 1;
        }
        let (Some(analyzer), Some(sizing)) = (analyzer, sizing) else {
            return Ok(None);
        };
        let analysis = analyzer.finish();
        let pass1_ns = pass_start.elapsed().as_nanos() as u64;
        let solve_start = Instant::now();
        let shape = (analysis.cols, sizing.width);
        let plan = self.resolve_plan(analysis, digests, shape)?;
        Ok(Some(AnalyzeOutcome {
            plan,
            shape,
            baseline_peak: source.zero_fill_peak(),
            perm: match source {
                WindowSource::Reorder(stage) => Some(stage.into_perm()),
                _ => None,
            },
            degradations: sizing.into_events(),
            pass1_ns,
            solve_ns: solve_start.elapsed().as_nanos() as u64,
        }))
    }

    /// Turns a finished analysis of `shape` (`(cubes, width)`) and pass
    /// 1's per-cube `digests` into the emit pass's fill plan: for DP the
    /// sites keep their row-major order and take their colors from the
    /// global BCP solve; MT-fill is copy-left with no flips, so its plan
    /// holds no sites.
    fn resolve_plan(
        &self,
        analysis: Analysis,
        digests: Vec<u64>,
        shape: (usize, usize),
    ) -> Result<FillPlan, StreamError> {
        let _span = minitrace::span_with(
            "stream.solve",
            &[
                ("sites", analysis.sites.len().into()),
                ("cubes", shape.0.into()),
            ],
        );
        let fill_error = |source| StreamError::Solve(DpFillError { source, shape });
        let solve_error = |e| fill_error(FillErrorSource::Solve(e));
        if analysis.overflow {
            return Err(fill_error(FillErrorSource::Objective(
                ObjectiveError::Overflow {
                    what: "weighted forced-toggle load on one transition",
                },
            )));
        }
        let (sites, colors) = match self.opts.fill {
            FillMethod::Dp => {
                // Stretch bounds are valid transitions by construction;
                // a violation is a solver-input bug and surfaces as a
                // typed Solve error, not a panic.
                let instance = build_instance(&analysis.sites, self.weights(), analysis.baseline)
                    .map_err(solve_error)?;
                // The same global solve as the monolithic DpFill: same
                // instance, same lower bound, same EDF coloring — warmed
                // by the bound the analyzer certified online, so the
                // solve starts at (usually *at*) the answer instead of
                // re-deriving it from the whole event stream.
                let mut solution = instance
                    .solve_with(&SolveOptions {
                        warm_lb: Some(analysis.warm_lb),
                    })
                    .map_err(solve_error)?;
                if let Some(preferred) = self.opts.objective.preferred() {
                    // The monolithic DpFill's preference tie-break.
                    instance
                        .shift_solution(&mut solution, &desires(&analysis.sites, preferred))
                        .map_err(solve_error)?;
                }
                (analysis.sites, solution.coloring.into_colors())
            }
            // MT-fill copies each stretch's left care value through the
            // whole run: the coloring `right − 1`, which flips nothing.
            FillMethod::Mt => (Vec::new(), Vec::new()),
            _ => unreachable!("plans only resolve for planned fills"),
        };
        let _plan = minitrace::span("stream.plan");
        Ok(FillPlan::new(
            shape.1,
            analysis.first_values,
            sites,
            colors,
            digests,
        ))
    }

    /// Pass 2 (or the only pass for per-cube fills): re-stream the
    /// windows, check each against pass 1's digests, fill each batch on
    /// the pool, score with the batched sweeps, and emit as windows
    /// retire.
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
        // Weighted emit scoring (None = the unit metric, where
        // `objective_peak` just mirrors `peak_toggles`).
        let score_weights = self.weights();
        let score_overflow = |_| StreamError::Overflow {
            what: "weighted toggle score".to_string(),
        };

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
        let mut header_written = false;
        let mut offset = 0usize;
        let mut windows = 0usize;
        let mut x_count = 0usize;
        let mut peak = 0usize;
        let mut objective_peak = 0u64;
        let mut resident_peak = 0usize;
        // The one-cube overlap: the previous window's frozen tail, for
        // stitching the boundary transition into the toggle metrics.
        let mut filled_tail: Option<PackedBits> = None;

        loop {
            // Gather one batch of windows for the pool, each with the
            // carry into its first column.
            let mut batch: Vec<(usize, CubeSet, Vec<u64>)> = Vec::new();
            while batch.len() < batch_windows {
                let max = sizing.as_ref().map_or(1, |s| s.window);
                let Some(set) = source.next_window(max, None, windows + batch.len())? else {
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
                    let window = windows + batch.len();
                    window_carry = plan
                        .admit(off, set.as_packed().cubes(), &mut carry)
                        .ok_or(StreamError::ContentChanged { window })?;
                }
                batch.push((off, set, window_carry));
            }
            if batch.is_empty() {
                break;
            }
            if !header_written {
                if let Some(h) = &self.opts.header {
                    writer.header(h).map_err(StreamError::Write)?;
                }
                header_written = true;
            }
            // One task per window on the pool; results return in window
            // order, so emission (and the stitched metrics) stay
            // deterministic at any thread count. Each window's fill is
            // wrapped in catch_unwind *inside* its pooled task, so a
            // worker panic is contained with exact window attribution
            // instead of unwinding through the pool scope.
            let outcomes: Vec<Result<CubeSet, String>> =
                minipool::parallel_index_chunks(batch.len(), 1, |range| {
                    range
                        .map(|i| {
                            let (off, set, carry) = &batch[i];
                            let plan = plan.map(|p| (p, carry.as_slice()));
                            catch_unwind(AssertUnwindSafe(|| {
                                self.fill_window(set, *off, plan, windows + i)
                            }))
                            .map_err(|payload| panic_message(payload.as_ref()))
                        })
                        .collect::<Vec<Result<CubeSet, String>>>()
                })
                .into_iter()
                .flatten()
                .collect();
            let filled = outcomes
                .into_iter()
                .zip(&batch)
                .enumerate()
                .map(|(i, (outcome, (off, original, _)))| {
                    outcome.map_err(|message| StreamError::WindowPanicked {
                        window: windows + i,
                        cubes: *off..*off + original.len(),
                        message,
                    })
                })
                .collect::<Result<Vec<CubeSet>, StreamError>>()?;
            let batch_cubes: usize = batch.iter().map(|(_, set, _)| set.len()).sum();
            resident_peak = resident_peak.max(2 * batch_cubes + 2 + source.peak_resident_cubes());

            for (i, ((_, original, _), filled)) in batch.iter().zip(&filled).enumerate() {
                if !CubeSet::is_filling_of(filled, original) {
                    return Err(StreamError::ContentChanged {
                        window: windows + i,
                    });
                }
                x_count += original.x_count();
                let packed = filled.as_packed();
                let stitch = filled_tail
                    .as_ref()
                    .map(|tail| tail.hamming(packed.cube(0)));
                let _span = minitrace::span_with(
                    "stream.window.emit",
                    &[
                        ("window", (windows + i).into()),
                        ("cubes", filled.len().into()),
                        // The boundary transition stitched across the
                        // one-cube overlap with the previous window.
                        ("stitch_toggles", stitch.unwrap_or(0).into()),
                        ("stitch_overlap", u64::from(stitch.is_some()).into()),
                    ],
                );
                // One-dispatch batched sweep over the window's
                // transitions (PR-4 kernels).
                let profile = packed.toggle_profile();
                peak = profile
                    .into_iter()
                    .fold(peak.max(stitch.unwrap_or(0)), usize::max);
                if let Some(ws) = score_weights {
                    WEIGHTED_SCORE_WINDOWS.add(1);
                    if let Some(tail) = &filled_tail {
                        let t = tail.weighted_hamming(packed.cube(0), ws);
                        objective_peak = objective_peak.max(t.map_err(score_overflow)?);
                    }
                    let profile = packed.weighted_toggle_profile(ws).map_err(score_overflow)?;
                    objective_peak = profile.into_iter().fold(objective_peak, u64::max);
                }
                filled_tail = Some(packed.cube(packed.len() - 1).clone());
                writer.set(filled).map_err(StreamError::Write)?;
            }
            windows += batch.len();
            if let Some(s) = &mut sizing {
                let bytes = plan_bytes + source.resident_bytes();
                s.charge(StreamPass::Emit, windows.saturating_sub(1), bytes)?;
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
        let (width, window_cubes) = sizing.as_ref().map_or((0, 0), |s| (s.width, s.window));
        let baseline_peak = planned
            .as_ref()
            .map_or_else(|| source.zero_fill_peak(), |o| o.baseline_peak);
        let (mut degradations, pass1_ns, solve_ns) = planned.map_or((Vec::new(), 0, 0), |o| {
            (o.degradations, o.pass1_ns, o.solve_ns)
        });
        degradations.extend(sizing.map(Windowing::into_events).unwrap_or_default());
        Ok(StreamReport {
            cubes: offset,
            width,
            window_cubes,
            windows,
            x_count,
            peak_toggles: peak,
            objective_peak: if score_weights.is_some() {
                objective_peak
            } else {
                peak as u64
            },
            baseline_peak,
            resident_peak_cubes: resident_peak,
            degradations,
            pass1_ns,
            solve_ns,
            pass2_ns: pass_start.elapsed().as_nanos() as u64,
        })
    }

    /// Fills one window. Planned fills run the global plan over the
    /// window from the carry into its first column; per-cube fills run
    /// directly (R-fill keyed by the cube's **global** index, so
    /// windowing never changes its stream). Runs inside a pooled task
    /// under `catch_unwind`: a panic here — including the deliberate
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
        match plan {
            Some((plan, carry)) => {
                let mut matrix = PackedMatrix::from_packed_set(original.as_packed());
                plan.apply_window(&mut matrix, offset, carry);
                debug_assert_eq!(matrix.x_count(), 0, "copy-left fills every X");
                CubeSet::from_packed(matrix.to_packed_set())
            }
            None => match self.opts.fill {
                FillMethod::Zero | FillMethod::One | FillMethod::Adj => {
                    self.opts.fill.fill(original)
                }
                FillMethod::Random(seed) => RandomFill::new(seed).fill_from(original, offset),
                _ => unreachable!("planned fills never reach the local arm"),
            },
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
        // thread: 7/8 MiB (1/8 is event headroom) / (4 · 16) = 14336.
        let w = WindowSpec::MemoryBudgetMiB(1).window_for_width(64).unwrap();
        assert!(w >= 1);
        let pool = minipool::ThreadPool::new(1);
        let w1 = minipool::with_pool(&pool, || {
            WindowSpec::MemoryBudgetMiB(1).window_for_width(64).unwrap()
        });
        assert_eq!(w1, 14336);
        // A tiny budget never drops below one cube.
        assert_eq!(
            WindowSpec::MemoryBudgetMiB(1)
                .window_for_width(1 << 24)
                .unwrap(),
            1
        );
        // An absurd width overflows as a typed error, not a wrap.
        assert!(matches!(
            WindowSpec::MemoryBudgetMiB(1).window_for_width(usize::MAX),
            Err(StreamError::Overflow { .. })
        ));
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
