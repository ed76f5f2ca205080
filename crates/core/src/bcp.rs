//! The Bottleneck Coloring Problem (BCP).
//!
//! Given intervals over a discrete set of *colors* (transitions between
//! consecutive test cubes), assign each interval one color inside its
//! window so that the maximum number of intervals sharing a color is
//! minimized (paper §V). Two solvers are provided:
//!
//! * the **paper solver** — Algorithm 1 (the windowed-density lower
//!   bound) plus Algorithm 2 (earliest-deadline greedy with per-color
//!   quota = lower bound), exactly as published;
//! * the **generalized solver** — additionally accounts for per-color
//!   *baseline* loads (forced toggles from adjacent opposite care bits,
//!   which the paper's formulation ignores). The lower bound becomes
//!   `max over windows ⌈(intervals inside + baseline inside) / |window|⌉`
//!   and earliest-deadline-first with per-color capacities achieves it
//!   (Hall's condition over contiguous windows is sufficient for unit
//!   jobs with interval windows).
//!
//! Both agree whenever the baseline is zero (property-tested), and the
//! generalized peak is provably optimal for the true objective
//! `max_t (baseline_t + load_t)` (tested against the brute force in the
//! dev-only `dpfill-oracle` crate).
//!
//! # How the bound is computed
//!
//! The published Algorithm 1 evaluates every window `[i, j]` with a
//! row-by-row dynamic program — O(C²) in the number of colors, the
//! asymptotic wall-clock bound of the whole fill on large inputs. The
//! solver certifies the *same value* without the quadratic sweep; the
//! DP itself lives in `dpfill-oracle` as the differential reference:
//!
//! 1. **Window ladder** ([`IncrementalBound`], fed online by the
//!    analyzer and in one pass in batch): monotone maxima over
//!    power-of-two *aligned* color windows, each load counted once at
//!    its aligned level and the pyramid folded on read. Every ladder
//!    candidate is the density of a real window, so it never exceeds
//!    the true bound — it is a warm start, not an approximation that
//!    must be trusted.
//! 2. **Parametric certification**: EDF feasibility at peak `P` is
//!    monotone in `P`, and the minimum feasible `P` *equals* the
//!    windowed lower bound — infeasibility below the bound is the
//!    pigeonhole argument on the violating window, feasibility at the
//!    bound is Hall's condition. Galloping + k-ary search from the warm
//!    start finds that minimum with O(log) probes of one sweep each;
//!    the k-ary rounds probe one pivot per pool thread (deterministic:
//!    the answer is the minimum feasible peak however the pivots are
//!    scheduled).
//!
//! # How the sweeps run
//!
//! Every sweep — feasibility probe, weighted search and coloring —
//! walks the intervals once in `(end, index)` order, from contiguous
//! per-end arrays, and places each in the earliest open colors at or
//! after its start. A union-find over the colors finds them: a color is
//! joined to its successor once it is full or, in the blocking sweep,
//! once an interval does not fit it. The probes *pour* divisible loads
//! (exact for unit loads, the fractional relaxation for weighted ones);
//! the blocking probe and every coloring *fit* each load in one color.
//! An interval's color in the textbook heap sweep depends only on the
//! intervals before it in `(end, index)` order (the exchange argument
//! for unit jobs with release times and deadlines), so the colorings
//! and [`BcpError::Infeasible`] reports are the heap sweep's
//! (differential-tested against it).

use std::error::Error;
use std::fmt;

use crate::Interval;

/// Solver activity (relaxed no-ops unless a [`minitrace`] sink is
/// live): loads fed to ladders, added once per feed rather than per
/// load, and parametric feasibility probes.
pub(crate) static BCP_LADDER_LOADS: minitrace::Counter =
    minitrace::Counter::new("bcp.ladder.loads");
static BCP_PROBES: minitrace::Counter = minitrace::Counter::new("bcp.probes");

/// Errors from BCP construction and solving.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum BcpError {
    /// An interval refers to a color `>= num_colors`.
    IntervalOutOfRange {
        /// The offending interval.
        interval: Interval,
        /// Number of colors in the instance.
        num_colors: usize,
    },
    /// A baseline load refers to a color `>= num_colors`.
    BaselineOutOfRange {
        /// The offending color.
        color: usize,
        /// Number of colors in the instance.
        num_colors: usize,
    },
    /// The baseline vector length differs from `num_colors`.
    BaselineLengthMismatch {
        /// Expected length.
        expected: usize,
        /// Supplied length.
        found: usize,
    },
    /// A coloring assigned a color outside an interval's window, or has
    /// the wrong length.
    InvalidColoring(String),
    /// The greedy/EDF pass could not place every interval within the
    /// given peak. Cannot happen for peaks at or above the lower bound;
    /// reported instead of panicking to keep the solver total.
    Infeasible {
        /// The peak that was attempted (the caller's target, not the
        /// residual per-color quota).
        peak: u64,
        /// The color whose deadline was missed: an interval ending here
        /// could not be placed by its deadline.
        color: u32,
    },
    /// The optimality certificate failed: a unit-load solve colored at
    /// a verified peak other than the lower bound it certified. EDF
    /// meets the windowed bound exactly, so this marks a solver bug;
    /// it is raised in release builds instead of returning a
    /// suboptimal coloring.
    BoundNotMet {
        /// The certified lower bound.
        bound: u64,
        /// The verified peak of the coloring.
        peak: u64,
    },
    /// Arithmetic overflow: the instance's loads exceed `u64`.
    Overflow {
        /// What overflowed.
        what: &'static str,
    },
    /// A weighted interval was added with load 0. Zero-load jobs would
    /// be placeable for free and make "peak" meaningless; weight-0 pins
    /// are rejected at the objective layer and must never reach the
    /// solver.
    ZeroLoad {
        /// The offending interval.
        interval: Interval,
    },
}

impl fmt::Display for BcpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BcpError::IntervalOutOfRange {
                interval,
                num_colors,
            } => write!(f, "interval {interval} exceeds color range 0..{num_colors}"),
            BcpError::BaselineOutOfRange { color, num_colors } => {
                write!(
                    f,
                    "baseline color {color} exceeds color range 0..{num_colors}"
                )
            }
            BcpError::BaselineLengthMismatch { expected, found } => {
                write!(
                    f,
                    "baseline length {found} does not match {expected} colors"
                )
            }
            BcpError::InvalidColoring(msg) => write!(f, "invalid coloring: {msg}"),
            BcpError::Infeasible { peak, color } => {
                write!(
                    f,
                    "no coloring exists with peak {peak}: deadline missed at color {color}"
                )
            }
            BcpError::BoundNotMet { bound, peak } => {
                write!(
                    f,
                    "optimality certificate failed: coloring peak {peak} differs from \
                     the certified lower bound {bound}"
                )
            }
            BcpError::Overflow { what } => write!(f, "arithmetic overflow computing {what}"),
            BcpError::ZeroLoad { interval } => {
                write!(
                    f,
                    "interval [{}, {}] has load 0; weighted intervals must carry load >= 1",
                    interval.start(),
                    interval.end()
                )
            }
        }
    }
}

impl Error for BcpError {}

/// Configuration of [`BcpInstance::solve_with`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveOptions {
    /// A warm lower bound the caller already certified *for the
    /// generalized (baseline-aware) objective* — typically
    /// [`IncrementalBound::current`] maintained while the instance was
    /// being built. Must never exceed the true bound (every
    /// [`IncrementalBound`] value satisfies this). Skips rebuilding the
    /// ladder.
    pub warm_lb: Option<u64>,
}

/// Number of bits needed to represent `x` (`0` for `x == 0`).
#[inline]
fn bitlen(x: usize) -> usize {
    (usize::BITS - x.leading_zeros()) as usize
}

/// A lower bound on the BCP optimum maintained **incrementally** as
/// interval sites and baseline loads arrive, in any order — the one
/// window ladder, fed online by the analyzer and in one pass in batch.
///
/// Each load `[lo, hi]` is counted once, in its *aligned* window
/// `[q·2^l, (q+1)·2^l)` at level `l = bitlen(lo XOR hi)`
/// ([`Interval::aligned_level`]); [`IncrementalBound::current`] folds
/// the O(C) pyramid, each window adding its two halves, so every window
/// holds exactly the load fully inside it. That is a real window's
/// load, so `⌈load / 2^l⌉` — and the maximum over all windows — **never
/// exceeds the true windowed bound**. It is exact on aligned witnesses
/// and within the probe budget of [`BcpInstance::solve_with`]'s
/// parametric certification otherwise, which is why it serves as
/// [`SolveOptions::warm_lb`].
///
/// All arithmetic saturates: a saturated counter undercounts, which
/// only weakens (never invalidates) the bound, and a saturating sum of
/// non-negative terms is `min(total, u64::MAX)` in any order. Levels
/// grow on demand, so the analyzer can feed sites as it finds them.
#[derive(Clone, Debug, Default)]
pub struct IncrementalBound {
    /// `levels[l][q]` = the recorded load whose aligned window is
    /// `[q·2^l, (q+1)·2^l)`.
    levels: Vec<Vec<u64>>,
}

/// Levels are capped at window width `2^63`; a load that would need a
/// higher level is not counted (an undercount keeps the bound valid).
const MAX_LADDER_LEVELS: usize = 64;

impl IncrementalBound {
    /// An empty ladder (bound 0).
    pub fn new() -> IncrementalBound {
        IncrementalBound::default()
    }

    /// Records one interval (unit load placeable anywhere in
    /// `[interval.start(), interval.end()]`).
    pub fn add_interval(&mut self, interval: Interval) {
        self.add_load(interval.start() as usize, interval.end() as usize, 1);
    }

    /// Records `amount` of forced load at color `color`.
    pub fn add_baseline(&mut self, color: usize, amount: u64) {
        self.add_load(color, color, amount);
    }

    /// Records `amount` of load placeable anywhere in `[lo, hi]`
    /// (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn add_load(&mut self, lo: usize, hi: usize, amount: u64) {
        assert!(lo <= hi, "load window {lo} > {hi}");
        let l = bitlen(lo ^ hi);
        if l >= MAX_LADDER_LEVELS {
            return;
        }
        if self.levels.len() <= l {
            self.levels.resize_with(l + 1, Vec::new);
        }
        let (level, q) = (&mut self.levels[l], hi >> l);
        if level.len() <= q {
            level.resize(q + 1, 0);
        }
        level[q] = level[q].saturating_add(amount);
    }

    /// The best window-density bound over everything recorded so far,
    /// folding the pyramid level by level in O(C). Monotone in the
    /// recorded loads and never above the true windowed lower bound.
    pub fn current(&self) -> u64 {
        let at = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
        let mut best = 0u64;
        let mut below: Vec<u64> = Vec::new();
        for (l, own) in self.levels.iter().enumerate() {
            below = (0..own.len().max(below.len().div_ceil(2)))
                .map(|q| {
                    at(own, q)
                        .saturating_add(at(&below, 2 * q))
                        .saturating_add(at(&below, 2 * q + 1))
                })
                .collect();
            best = below.iter().fold(best, |b, &n| b.max(n.div_ceil(1 << l)));
        }
        best
    }

    /// Bytes held by the ladder — charged against the streaming memory
    /// budget alongside the event stream.
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        let counters: usize = self.levels.iter().map(Vec::len).sum();
        (counters * size_of::<u64>() + self.levels.len() * size_of::<Vec<u64>>()) as u64
    }
}

/// Intervals grouped by end color: those ending at color `e` start at
/// `starts[by_end[e]..by_end[e + 1]]` (`by_end` has one entry per color
/// plus one). The I-order scan emits one per chunk of pins.
pub(crate) struct EndGroups {
    pub starts: Vec<u32>,
    pub by_end: Vec<usize>,
}

/// One sweep: [`OpenColors::place`]s every interval of `chunks` in end
/// order, chunk by chunk within an end, position `r` weighing `loads[r]`
/// (one chunk; 1 when `loads` is empty), and reports each placement to
/// `place(r, color)`. The error is the end of the first interval that
/// finds no room.
fn sweep(
    chunks: &[EndGroups],
    loads: &[u64],
    mut colors: OpenColors,
    divisible: bool,
    mut place: impl FnMut(usize, u32),
) -> Result<(), u32> {
    for e in 0..colors.room.len() {
        for g in chunks {
            for r in g.by_end[e]..g.by_end[e + 1] {
                let load = loads.get(r).copied().unwrap_or(1);
                let t = colors.place(g.starts[r], e, load, divisible);
                place(r, t.ok_or(e as u32)?);
            }
        }
    }
    Ok(())
}

/// One feasibility probe: does a [`sweep`] place every interval? The
/// `divisible` (pour) probe is exact for unit loads, however the
/// intervals sharing an end are ordered; on weighted loads it is the
/// fractional relaxation, whose minimum feasible peak is `max(max_t
/// baseline_t, max_{i≤j} ⌈(W[i][j] + B[i][j])/(j−i+1)⌉)` (Gale–Hoffman on
/// contiguous windows), a true lower bound for the integral weighted
/// problem. The blocking (fit) probe's success certifies an achievable
/// peak; its failure does not certify infeasibility.
fn probe(chunks: &[EndGroups], loads: &[u64], colors: OpenColors, divisible: bool) -> bool {
    BCP_PROBES.add(1);
    sweep(chunks, loads, colors, divisible, |_, _| {}).is_ok()
}

/// The open colors of one sweep: a union-find over the colors `0..=C`
/// (`C` a sentinel that never closes) whose root from `t` is the
/// earliest open color at or after `t`, and each color's room.
struct OpenColors {
    next: Vec<u32>,
    room: Vec<u64>,
}

impl OpenColors {
    /// Each color's room at `peak`: `peak − baseline_t` (saturating), or
    /// `peak` without a baseline. A color without room starts closed.
    fn new(colors: usize, baseline: Option<&[u64]>, peak: u64) -> OpenColors {
        let room: Vec<u64> = match baseline {
            Some(b) => b.iter().map(|&b| peak.saturating_sub(b)).collect(),
            None => vec![peak; colors],
        };
        let next = (0..=colors)
            .map(|t| (t + usize::from(room.get(t) == Some(&0))) as u32)
            .collect();
        OpenColors { next, room }
    }

    /// The earliest open color at or after `t`, halving the path walked.
    fn find(&mut self, mut t: usize) -> usize {
        while self.next[t] as usize != t {
            self.next[t] = self.next[self.next[t] as usize];
            t = self.next[t] as usize;
        }
        t
    }

    /// Places `load` in the open colors of `[start, end]`, earliest
    /// first: the color that takes its last part, or `None`. A color the
    /// load exceeds closes; a `divisible` load (pour) first fills it, an
    /// indivisible one (fit) is blocked by it, as a heap sweep's head
    /// blocks its color.
    fn place(&mut self, start: u32, end: usize, mut load: u64, divisible: bool) -> Option<u32> {
        let mut t = self.find(start as usize);
        while t <= end {
            if load <= self.room[t] {
                self.room[t] -= load;
                if self.room[t] == 0 {
                    self.next[t] = t as u32 + 1;
                }
                return Some(t as u32);
            }
            if divisible {
                load -= self.room[t];
            }
            self.next[t] = t as u32 + 1;
            t = self.find(t);
        }
        None
    }
}

/// An instance's intervals in `(end, index)` order: start, interval
/// index and (weighted only) load. An instance already in that order
/// (the analyzer's `(end, pin)` order) is read in place, with no
/// scatter and the identity as its index; any other is counting-sorted
/// by end once per call.
struct ByEnd {
    groups: EndGroups,
    /// Empty when the instance is already in end order.
    index: Vec<u32>,
    /// Empty on unit instances.
    loads: Vec<u64>,
}

impl ByEnd {
    fn new(inst: &BcpInstance) -> ByEnd {
        let mut by_end = vec![0usize; inst.num_colors + 1];
        for iv in &inst.intervals {
            by_end[iv.end() as usize + 1] += 1;
        }
        for e in 1..by_end.len() {
            by_end[e] += by_end[e - 1];
        }
        if inst.intervals.is_sorted_by_key(|iv| iv.end()) {
            let starts = inst.intervals.iter().map(|iv| iv.start()).collect();
            return ByEnd {
                groups: EndGroups { starts, by_end },
                index: Vec::new(),
                loads: inst.loads.clone(),
            };
        }
        let k = inst.intervals.len();
        let mut next = by_end.clone();
        let (mut starts, mut index) = (vec![0u32; k], vec![0u32; k]);
        let mut loads = vec![0u64; inst.loads.len()];
        for (i, iv) in inst.intervals.iter().enumerate() {
            let r = next[iv.end() as usize];
            next[iv.end() as usize] += 1;
            starts[r] = iv.start();
            index[r] = i as u32;
            if let Some(&w) = inst.loads.get(i) {
                loads[r] = w;
            }
        }
        ByEnd {
            groups: EndGroups { starts, by_end },
            index,
            loads,
        }
    }

    /// The instance index of sweep position `r`.
    fn interval(&self, r: usize) -> usize {
        self.index.get(r).map_or(r, |&i| i as usize)
    }

    /// The loads a sweep weighs: none (unit) in the paper's problem.
    fn loads(&self, baseline: Option<&[u64]>) -> &[u64] {
        baseline.map_or(&[], |_| &self.loads)
    }
}

/// The cheap true lower bounds every certification starts from: the
/// largest baseline and the global density `⌈(loads + Σ baseline) / C⌉`
/// (`⌈loads / C⌉` without a baseline). Saturation undercounts, keeping
/// the candidate a valid bound.
fn density_floor(colors: usize, baseline: Option<&[u64]>, loads: u64) -> u64 {
    let Some(baseline) = baseline else {
        return loads.div_ceil(colors as u64);
    };
    let total = baseline.iter().fold(loads, |a, &b| a.saturating_add(b));
    let max = baseline.iter().copied().max().unwrap_or(0);
    max.max(total.div_ceil(colors as u64))
}

/// What overflows when a unit-load bound search leaves `u64`.
const UNIT_BOUND_OVERFLOW: &str = "BCP lower bound (exceeds u64)";

/// The widest k-ary panel of a monotone peak search.
const MAX_PANEL: u64 = 16;

/// The minimum peak at or above `lo` that the probe `feasible` accepts:
/// galloping to an infeasible/feasible bracket, then k-ary narrowing
/// with one probe per pool thread, at most `max_panel`. A monotone probe
/// gives the same result at any thread count: with `lo` at most the true
/// bound it is that bound; with `lo` above it, `lo`. A probe that need
/// not be monotone takes `max_panel` 1, a serial bisection that returns
/// an accepted peak at any thread count. A gallop that reaches
/// `u64::MAX` rejected is [`BcpError::Overflow`] naming `what`.
fn min_feasible_peak(
    lo: u64,
    what: &'static str,
    max_panel: u64,
    feasible: impl Fn(u64) -> bool + Sync,
) -> Result<u64, BcpError> {
    if feasible(lo) {
        // A monotone probe's lo never exceeds the true bound, which is
        // the minimum feasible peak — so feasibility at lo pins lo == bound.
        return Ok(lo);
    }
    // Gallop to an infeasible/feasible bracket (bad, good].
    let mut bad = lo;
    let mut step = 1u64;
    let mut good;
    loop {
        let p = bad.saturating_add(step);
        if feasible(p) {
            good = p;
            break;
        }
        if p == u64::MAX {
            return Err(BcpError::Overflow { what });
        }
        bad = p;
        step = step.saturating_mul(2);
    }
    // Narrow with a panel of pivots, one probe per pool thread. The
    // result is the minimum feasible peak regardless of panel width.
    while good - bad > 1 {
        let gap = good - bad - 1;
        let m = (minipool::current_threads().max(1) as u64).min(gap.min(max_panel));
        let pivots: Vec<u64> = (1..=m)
            .map(|i| bad + ((good - bad) as u128 * i as u128 / (m + 1) as u128) as u64)
            .collect();
        let feas = minipool::parallel_indexed(pivots.len(), |i| feasible(pivots[i]));
        match feas.iter().position(|&f| f) {
            Some(j) => {
                good = pivots[j];
                if j > 0 {
                    bad = pivots[j - 1];
                }
            }
            None => bad = pivots[m as usize - 1],
        }
    }
    Ok(good)
}

/// The generalized unit-load lower bound of an interval multiset over a
/// per-color baseline, without a [`BcpInstance`]: the same value
/// [`BcpInstance::lower_bound`] certifies for the instance those
/// intervals and that baseline would build (the bound depends only on
/// the multiset), from the same engine. The I-ordering scores its
/// candidate orders through it: one probe decides whether a candidate
/// beats a value, and only a winner is certified.
///
/// It probes the scan's per-chunk groups in place: a unit probe does not
/// depend on the order of the intervals sharing an end.
pub(crate) struct UnitBound {
    chunks: Vec<EndGroups>,
    baseline: Vec<u64>,
}

impl UnitBound {
    /// The intervals of `chunks` (inclusive colors) over `baseline`, one
    /// entry per color.
    pub(crate) fn new(chunks: Vec<EndGroups>, baseline: Vec<u64>) -> UnitBound {
        UnitBound { chunks, baseline }
    }

    /// Is the bound at most `peak`? One pour probe, which places the
    /// intervals only: a peak below the largest baseline is infeasible
    /// before any is placed.
    pub(crate) fn feasible(&self, peak: u64) -> bool {
        self.baseline.iter().all(|&b| b <= peak) && self.pour(peak)
    }

    /// The pour [`probe`] at `peak`.
    fn pour(&self, peak: u64) -> bool {
        let colors = OpenColors::new(self.baseline.len(), Some(&self.baseline), peak);
        probe(&self.chunks, &[], colors, true)
    }

    /// `max(floor, bound)`: the bound itself for any `floor` at or
    /// below it, certified like [`BcpInstance::lower_bound`] from the
    /// ladder, the density candidates and `floor`.
    ///
    /// The ladder is fed mirrored, color `t` as `C − 1 − t`. Either
    /// orientation gives a valid warm start, but the aligned windows are
    /// not mirror-symmetric, so the choice moves the probe count (never
    /// the bound).
    ///
    /// # Errors
    ///
    /// Returns [`BcpError::Overflow`] when the bound exceeds `u64`.
    pub(crate) fn certify(&self, floor: u64) -> Result<u64, BcpError> {
        let c = self.baseline.len();
        if c == 0 {
            return Ok(floor);
        }
        let last = c - 1;
        let mut ladder = IncrementalBound::new();
        for g in &self.chunks {
            for e in 0..c {
                for &start in &g.starts[g.by_end[e]..g.by_end[e + 1]] {
                    ladder.add_load(last - e, last - start as usize, 1);
                }
            }
        }
        for (t, &b) in self.baseline.iter().enumerate() {
            ladder.add_baseline(last - t, b);
        }
        let k: usize = self.chunks.iter().map(|g| g.starts.len()).sum();
        BCP_LADDER_LOADS.add((k + c) as u64);
        let baseline = Some(self.baseline.as_slice());
        let lo = floor
            .max(ladder.current())
            .max(density_floor(c, baseline, k as u64));
        min_feasible_peak(lo, UNIT_BOUND_OVERFLOW, MAX_PANEL, |p| self.pour(p))
    }
}

/// A BCP instance: intervals over `num_colors` colors plus optional
/// per-color baseline loads.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct BcpInstance {
    num_colors: usize,
    intervals: Vec<Interval>,
    baseline: Vec<u64>,
    /// Per-interval loads for weighted objectives. Lazily populated:
    /// empty means every interval has unit load (the canonical
    /// representation for unweighted instances, so derived equality and
    /// memory stay exactly as before). Once any non-unit load is added
    /// the vector is back-filled with 1s and kept in sync with
    /// `intervals`.
    loads: Vec<u64>,
}

/// A color assignment: `colors[i]` is the color given to interval `i` (in
/// instance order).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Coloring {
    colors: Vec<u32>,
}

impl Coloring {
    /// Per-interval colors, in instance order.
    pub fn colors(&self) -> &[u32] {
        &self.colors
    }

    /// Color of interval `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn color(&self, i: usize) -> u32 {
        self.colors[i]
    }

    /// The per-interval colors, by value.
    pub(crate) fn into_colors(self) -> Vec<u32> {
        self.colors
    }
}

/// Peaks achieved by a verified coloring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerifiedPeak {
    /// `max_t (baseline_t + interval load_t)` — the true toggle peak.
    pub with_baseline: u64,
    /// `max_t interval load_t` — the paper's BCP objective.
    pub intervals_only: u64,
}

/// A solved instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BcpSolution {
    /// The color given to each interval.
    pub coloring: Coloring,
    /// The lower bound the solver certified.
    pub lower_bound: u64,
    /// The achieved peaks (optimal: `with_baseline == lower_bound` for
    /// the generalized solver; `intervals_only == lower_bound` for the
    /// paper solver).
    pub peak: VerifiedPeak,
}

impl BcpInstance {
    /// Creates an instance with `num_colors` colors, no intervals and a
    /// zero baseline.
    pub fn new(num_colors: usize) -> BcpInstance {
        BcpInstance {
            num_colors,
            intervals: Vec::new(),
            baseline: vec![0; num_colors],
            loads: Vec::new(),
        }
    }

    /// The instance of `intervals` (ends inside `baseline`), interval
    /// `i` weighing `loads[i]`; all-unit `loads` are stored empty.
    pub(crate) fn with_intervals(
        intervals: Vec<Interval>,
        baseline: Vec<u64>,
        loads: Vec<u64>,
    ) -> BcpInstance {
        debug_assert!(intervals
            .iter()
            .all(|iv| (iv.end() as usize) < baseline.len()));
        let unit = loads.iter().all(|&w| w == 1);
        BcpInstance {
            num_colors: baseline.len(),
            intervals,
            baseline,
            loads: if unit { Vec::new() } else { loads },
        }
    }

    /// Adds an interval.
    ///
    /// # Errors
    ///
    /// Returns [`BcpError::IntervalOutOfRange`] when the interval's end is
    /// not a valid color.
    pub fn add_interval(&mut self, interval: Interval) -> Result<(), BcpError> {
        if interval.end() as usize >= self.num_colors {
            return Err(BcpError::IntervalOutOfRange {
                interval,
                num_colors: self.num_colors,
            });
        }
        self.intervals.push(interval);
        if !self.loads.is_empty() {
            self.loads.push(1);
        }
        Ok(())
    }

    /// Adds an interval carrying `load` toggle weight (a weighted
    /// objective's fixed-point cost for this pin's one transition).
    /// `add_weighted_interval(iv, 1)` is exactly `add_interval(iv)`.
    ///
    /// # Errors
    ///
    /// Returns [`BcpError::IntervalOutOfRange`] when the interval's end
    /// is not a valid color and [`BcpError::ZeroLoad`] when `load == 0`
    /// (weight-0 pins must be rejected before reaching the solver).
    pub fn add_weighted_interval(&mut self, interval: Interval, load: u64) -> Result<(), BcpError> {
        if load == 0 {
            return Err(BcpError::ZeroLoad { interval });
        }
        if interval.end() as usize >= self.num_colors {
            return Err(BcpError::IntervalOutOfRange {
                interval,
                num_colors: self.num_colors,
            });
        }
        let tracked = !self.loads.is_empty() || load != 1;
        if load != 1 && self.loads.is_empty() {
            // First non-unit load: back-fill unit loads for every
            // interval added so far.
            self.loads = vec![1; self.intervals.len()];
        }
        self.intervals.push(interval);
        if tracked {
            self.loads.push(load);
        }
        Ok(())
    }

    /// Load carried by interval `i` (1 for unweighted instances).
    ///
    /// # Panics
    ///
    /// Never panics; out-of-range indices report load 1 (callers index
    /// by instance order).
    pub fn interval_load(&self, i: usize) -> u64 {
        self.loads.get(i).copied().unwrap_or(1)
    }

    /// `true` when every interval carries unit load — the solver then
    /// routes through the unweighted engines verbatim.
    pub fn is_unit(&self) -> bool {
        self.loads.iter().all(|&w| w == 1)
    }

    /// Adds a forced (unavoidable) load at color `t`.
    ///
    /// # Errors
    ///
    /// Returns [`BcpError::BaselineOutOfRange`] when `t` is not a valid
    /// color and [`BcpError::Overflow`] when the accumulated load at `t`
    /// exceeds `u64` — the no-panic crate contract.
    pub fn add_baseline(&mut self, t: usize, amount: u64) -> Result<(), BcpError> {
        let num_colors = self.num_colors;
        let slot = self
            .baseline
            .get_mut(t)
            .ok_or(BcpError::BaselineOutOfRange {
                color: t,
                num_colors,
            })?;
        *slot = slot.checked_add(amount).ok_or(BcpError::Overflow {
            what: "accumulated baseline load",
        })?;
        Ok(())
    }

    /// Replaces the baseline vector.
    ///
    /// # Errors
    ///
    /// Returns [`BcpError::BaselineLengthMismatch`] on length mismatch.
    pub fn set_baseline(&mut self, baseline: Vec<u64>) -> Result<(), BcpError> {
        if baseline.len() != self.num_colors {
            return Err(BcpError::BaselineLengthMismatch {
                expected: self.num_colors,
                found: baseline.len(),
            });
        }
        self.baseline = baseline;
        Ok(())
    }

    /// Number of colors (transitions).
    pub fn num_colors(&self) -> usize {
        self.num_colors
    }

    /// The intervals, in insertion order.
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// The per-color baseline loads.
    pub fn baseline(&self) -> &[u64] {
        &self.baseline
    }

    /// The paper's Algorithm 1 bound (baseline ignored), computed by
    /// the sub-quadratic parametric engine. Equal to the Algorithm 1 row
    /// DP without the baseline wherever the DP does not overflow
    /// (differential-tested against `dpfill-oracle`).
    ///
    /// # Errors
    ///
    /// Returns [`BcpError::Overflow`] when the bound exceeds `u64`.
    pub fn lower_bound_paper(&self) -> Result<u64, BcpError> {
        self.certified_bound(&ByEnd::new(self), None, None)
    }

    /// Generalized lower bound for the true objective
    /// `max_t (baseline_t + load_t)`:
    /// `max( max_t baseline_t, max_{i≤j} ⌈(T[i][j] + Σ baseline)/(j−i+1)⌉ )`,
    /// computed by the sub-quadratic parametric engine.
    ///
    /// # Errors
    ///
    /// Returns [`BcpError::Overflow`] when the bound exceeds `u64`.
    ///
    /// On weighted instances (any interval load > 1) the windowed sums
    /// weigh each interval by its load and the engine switches to the
    /// weighted parametric probe — still exact for the windowed bound,
    /// though the integral weighted optimum may exceed it (the problem
    /// is NP-hard).
    pub fn lower_bound(&self) -> Result<u64, BcpError> {
        self.certified_bound(&ByEnd::new(self), Some(&self.baseline), None)
    }

    /// The batch bound of the [`IncrementalBound`] ladder: the best
    /// `⌈load / 2^l⌉` over every power-of-two aligned color window,
    /// with interval `i` weighing `load(i)` — one pass feeding each
    /// interval (and, `with_baseline`, each forced load) to a ladder,
    /// which counts it once at its aligned level and folds the pyramid.
    fn ladder_best(&self, load: impl Fn(usize) -> u64, with_baseline: bool) -> u64 {
        let mut ladder = IncrementalBound::new();
        for (i, iv) in self.intervals.iter().enumerate() {
            ladder.add_load(iv.start() as usize, iv.end() as usize, load(i));
        }
        if with_baseline {
            for (t, &b) in self.baseline.iter().enumerate() {
                ladder.add_baseline(t, b);
            }
        }
        let colors = if with_baseline { self.num_colors } else { 0 };
        BCP_LADDER_LOADS.add((self.intervals.len() + colors) as u64);
        ladder.current()
    }

    /// The parametric lower-bound engine: start from the best cheap
    /// candidate (the ladder — or for unit loads `warm` instead of it —
    /// plus the max-baseline and global-density candidates, all true
    /// lower bounds), then find the minimum feasible peak by
    /// [`min_feasible_peak`] over pour [`probe`]s. That minimum *is* the
    /// windowed bound: below it some window is overfull (pigeonhole), at
    /// it EDF succeeds (Hall). On weighted loads it is the fractional
    /// bound; warm candidates stay valid there because loads are ≥ 1, so
    /// any unit-load bound is below the weighted bound.
    fn certified_bound(
        &self,
        by_end: &ByEnd,
        baseline: Option<&[u64]>,
        warm: Option<u64>,
    ) -> Result<u64, BcpError> {
        let c = self.num_colors;
        if c == 0 {
            return Ok(0);
        }
        let loads = by_end.loads(baseline);
        let (lo, total, what) = if loads.is_empty() {
            let lo = warm.unwrap_or_else(|| self.ladder_best(|_| 1, baseline.is_some()));
            (lo, self.intervals.len() as u64, UNIT_BOUND_OVERFLOW)
        } else {
            let ladder = self.ladder_best(|i| self.interval_load(i), true);
            let total = loads.iter().fold(0u64, |a, &w| a.saturating_add(w));
            let what = "weighted BCP lower bound (exceeds u64)";
            (warm.unwrap_or(0).max(ladder), total, what)
        };
        let lo = lo.max(density_floor(c, baseline, total));
        let chunks = std::slice::from_ref(&by_end.groups);
        min_feasible_peak(lo, what, MAX_PANEL, |p| {
            probe(chunks, loads, OpenColors::new(c, baseline, p), true)
        })
    }

    /// Colors by one fit [`sweep`] at `peak`; a missed interval reports
    /// `peak` and its end.
    fn color_at(
        &self,
        by_end: &ByEnd,
        peak: u64,
        baseline: Option<&[u64]>,
        loads: &[u64],
    ) -> Result<Coloring, BcpError> {
        let mut colors = vec![u32::MAX; self.intervals.len()];
        let open = OpenColors::new(self.num_colors, baseline, peak);
        let chunks = std::slice::from_ref(&by_end.groups);
        sweep(chunks, loads, open, false, |r, t| {
            colors[by_end.interval(r)] = t
        })
        .map_err(|color| BcpError::Infeasible { peak, color })?;
        Ok(Coloring { colors })
    }

    /// Algorithm 2: earliest-deadline greedy coloring with a per-color
    /// quota of `lb` intervals (the paper's optimal coloring; baseline
    /// and loads ignored).
    ///
    /// # Errors
    ///
    /// Returns [`BcpError::Infeasible`] if `lb` is below the true lower
    /// bound (cannot happen when `lb = self.lower_bound_paper()`).
    pub fn color_greedy_paper(&self, lb: u64) -> Result<Coloring, BcpError> {
        self.color_at(&ByEnd::new(self), lb, None, &[])
    }

    /// Earliest-deadline-first coloring with per-color capacity
    /// `peak − baseline_t` — the generalized solver's assignment step
    /// (loads ignored).
    ///
    /// # Errors
    ///
    /// Returns [`BcpError::Infeasible`] when `peak` is below the
    /// generalized lower bound.
    pub fn color_edf(&self, peak: u64) -> Result<Coloring, BcpError> {
        self.color_at(&ByEnd::new(self), peak, Some(&self.baseline), &[])
    }

    /// Weighted [`BcpInstance::color_edf`]: blocking-EDF sweep with
    /// per-color capacity `peak − baseline_t`, each interval consuming
    /// its load. On unit loads places exactly like
    /// [`BcpInstance::color_edf`].
    ///
    /// # Errors
    ///
    /// Returns [`BcpError::Infeasible`] when the blocking sweep cannot
    /// meet `peak`.
    pub fn color_edf_weighted(&self, peak: u64) -> Result<Coloring, BcpError> {
        let by_end = ByEnd::new(self);
        self.color_at(&by_end, peak, Some(&self.baseline), &by_end.loads)
    }

    /// Verifies a coloring: every interval colored inside its window.
    /// Returns the achieved peaks.
    ///
    /// # Errors
    ///
    /// Returns [`BcpError::InvalidColoring`] when the coloring is
    /// malformed and [`BcpError::Overflow`] when an achieved per-color
    /// peak exceeds `u64`.
    pub fn verify(&self, coloring: &Coloring) -> Result<VerifiedPeak, BcpError> {
        if coloring.colors.len() != self.intervals.len() {
            return Err(BcpError::InvalidColoring(format!(
                "{} colors for {} intervals",
                coloring.colors.len(),
                self.intervals.len()
            )));
        }
        let mut load = vec![0u64; self.num_colors];
        for (i, (iv, &color)) in self.intervals.iter().zip(&coloring.colors).enumerate() {
            if !iv.contains(color) {
                return Err(BcpError::InvalidColoring(format!(
                    "interval {iv} colored {color}"
                )));
            }
            let slot = &mut load[color as usize];
            *slot = slot
                .checked_add(self.interval_load(i))
                .ok_or(BcpError::Overflow {
                    what: "verified peak (load + baseline)",
                })?;
        }
        let intervals_only = load.iter().copied().max().unwrap_or(0);
        let mut with_baseline = self.baseline.iter().copied().max().unwrap_or(0);
        for (l, b) in load.iter().zip(&self.baseline) {
            let peak = l.checked_add(*b).ok_or(BcpError::Overflow {
                what: "verified peak (load + baseline)",
            })?;
            with_baseline = with_baseline.max(peak);
        }
        Ok(VerifiedPeak {
            with_baseline,
            intervals_only,
        })
    }

    /// Secondary-objective tie-break: shifts each interval as far as
    /// its slack allows in the desired direction without raising any
    /// per-color peak above `peak`. `desire[i] > 0` moves interval
    /// `i`'s transition as late as possible (more cubes hold the left
    /// value of its stretch), `< 0` as early as possible, `0` leaves it
    /// in place. One deterministic pass in instance order; the result
    /// re-verifies at the same or a lower peak, so a peak-optimal
    /// coloring stays peak-optimal.
    ///
    /// # Errors
    ///
    /// Returns [`BcpError::InvalidColoring`] when the coloring is
    /// malformed, `desire` has the wrong length, or the coloring's
    /// verified peak already exceeds `peak`; [`BcpError::Overflow`]
    /// when verification overflows.
    pub fn shift_within_slack(
        &self,
        coloring: &Coloring,
        desire: &[i8],
        peak: u64,
    ) -> Result<Coloring, BcpError> {
        self.shift_walking(coloring, desire, peak, 0..self.intervals.len())
    }

    /// [`BcpInstance::shift_within_slack`], visiting the intervals in
    /// the order `walk` (a permutation of the instance indices).
    fn shift_walking(
        &self,
        coloring: &Coloring,
        desire: &[i8],
        peak: u64,
        walk: impl Iterator<Item = usize>,
    ) -> Result<Coloring, BcpError> {
        if desire.len() != self.intervals.len() {
            return Err(BcpError::InvalidColoring(format!(
                "{} desires for {} intervals",
                desire.len(),
                self.intervals.len()
            )));
        }
        let verified = self.verify(coloring)?;
        if verified.with_baseline > peak {
            return Err(BcpError::InvalidColoring(format!(
                "verified peak {} exceeds shift budget {peak}",
                verified.with_baseline
            )));
        }
        let mut load = vec![0u64; self.num_colors];
        for (i, &color) in coloring.colors.iter().enumerate() {
            // verify() above proved these sums fit in u64.
            load[color as usize] += self.interval_load(i);
        }
        let mut colors = coloring.colors.clone();
        for i in walk {
            let dir = desire[i];
            if dir == 0 {
                continue;
            }
            let iv = self.intervals[i];
            let w = self.interval_load(i);
            let cur = colors[i] as usize;
            load[cur] -= w;
            let fits = |t: usize, load: &[u64]| {
                self.baseline[t].saturating_add(load[t]).saturating_add(w) <= peak
            };
            let mut chosen = cur;
            if dir > 0 {
                // Farthest color to the right that still fits.
                let mut t = iv.end() as usize;
                while t > cur {
                    if fits(t, &load) {
                        chosen = t;
                        break;
                    }
                    t -= 1;
                }
            } else {
                // Farthest color to the left that still fits.
                for t in iv.start() as usize..cur {
                    if fits(t, &load) {
                        chosen = t;
                        break;
                    }
                }
            }
            load[chosen] += w;
            colors[i] = chosen as u32;
        }
        Ok(Coloring { colors })
    }

    /// The preference step both fill pipelines run after the solve:
    /// the slack shift at the solution's achieved peak, visiting the
    /// intervals in the order `walk`, then [`BcpInstance::verify`] of
    /// the shifted coloring.
    pub(crate) fn shift_solution(
        &self,
        solution: &mut BcpSolution,
        desire: &[i8],
        walk: &[u32],
    ) -> Result<(), BcpError> {
        let walk = walk.iter().map(|&i| i as usize);
        let shifted = self.shift_walking(
            &solution.coloring,
            desire,
            solution.peak.with_baseline,
            walk,
        )?;
        solution.peak = self.verify(&shifted)?;
        solution.coloring = shifted;
        Ok(())
    }

    /// Solves with the generalized (baseline-aware) algorithm under
    /// explicit [`SolveOptions`]; the returned peak is optimal for
    /// `max_t (baseline_t + load_t)`. A warm bound only skips work: the
    /// solution is the cold solve's (differential-tested).
    ///
    /// Weighted instances (any interval load > 1) route to the weighted
    /// engines: the certified `lower_bound` is the exact fractional
    /// windowed bound, and `peak` may exceed it on instances beyond the
    /// exact-search budget (weighted bottleneck coloring is NP-hard).
    /// Unit instances run the unweighted engines verbatim.
    ///
    /// The solve is traced as a `bcp.solve` span with `bcp.bound`
    /// (certification), `bcp.search` (the weighted blocking search) and
    /// `bcp.color` (coloring, verification and any exact refinement)
    /// children.
    ///
    /// # Errors
    ///
    /// Returns [`BcpError::Overflow`] when the bound exceeds `u64`. On
    /// unit instances the generalized lower bound is always achievable,
    /// so [`BcpError::Infeasible`] or [`BcpError::BoundNotMet`] (the
    /// coloring's verified peak differs from the certified bound) would
    /// indicate a solver bug.
    pub fn solve_with(&self, opts: &SolveOptions) -> Result<BcpSolution, BcpError> {
        self.solve_by(Some(&self.baseline), opts.warm_lb)
    }

    /// The solve; without a baseline, the paper's unit-load problem. A
    /// unit solve colors at the bound, and its verified peak must equal
    /// it (the optimality certificate; paper mode ignores loads, so on
    /// weighted instances its verified peak, which counts them, is not
    /// compared). A weighted solve colors at the smallest
    /// blocking-feasible peak at or above the fractional bound (a serial
    /// [`min_feasible_peak`], as blocking feasibility need not be
    /// monotone), then closes any remaining gap with a bounded exact
    /// branch-and-bound. Weighted bottleneck coloring is NP-hard, so
    /// `peak == lower_bound` is not guaranteed beyond the search budget;
    /// inside it the peak is exactly optimal (differential-tested against
    /// the `dpfill-oracle` brute force).
    fn solve_by(
        &self,
        baseline: Option<&[u64]>,
        warm: Option<u64>,
    ) -> Result<BcpSolution, BcpError> {
        let _span = minitrace::span_with(
            "bcp.solve",
            &[
                ("intervals", self.intervals.len().into()),
                ("colors", self.num_colors.into()),
                ("unit", u64::from(self.is_unit()).into()),
            ],
        );
        let by_end = ByEnd::new(self);
        let loads = by_end.loads(baseline);
        let lb = {
            let _span = minitrace::span("bcp.bound");
            self.certified_bound(&by_end, baseline, warm)?
        };
        let target = if loads.is_empty() {
            lb
        } else {
            let _span = minitrace::span("bcp.search");
            let chunks = std::slice::from_ref(&by_end.groups);
            min_feasible_peak(lb, "weighted BCP peak (exceeds u64)", 1, |p| {
                let colors = OpenColors::new(self.num_colors, baseline, p);
                probe(chunks, loads, colors, false)
            })?
        };
        let _span = minitrace::span("bcp.color");
        let mut coloring = self.color_at(&by_end, target, baseline, loads)?;
        let mut peak = self.verify(&coloring)?;
        let achieved = baseline.map_or(peak.intervals_only, |_| peak.with_baseline);
        if achieved != lb && self.is_unit() {
            return Err(BcpError::BoundNotMet {
                bound: lb,
                peak: achieved,
            });
        }
        if !loads.is_empty() && peak.with_baseline > lb {
            if let Some(improved) = self.exact_refine(lb, peak.with_baseline) {
                let improved = Coloring { colors: improved };
                let improved_peak = self.verify(&improved)?;
                if improved_peak.with_baseline < peak.with_baseline {
                    coloring = improved;
                    peak = improved_peak;
                }
            }
        }
        Ok(BcpSolution {
            coloring,
            lower_bound: lb,
            peak,
        })
    }

    /// Bounded deterministic branch-and-bound over interval placements:
    /// seeded with `seed_peak` (the greedy result, strict upper bound)
    /// and cut off at `lb` (provably optimal when reached). Intervals
    /// are visited tightest-deadline first; the node budget and depth
    /// gate bound worst-case work, so large instances simply keep the
    /// greedy coloring. Entirely serial — identical at any thread count.
    fn exact_refine(&self, lb: u64, seed_peak: u64) -> Option<Vec<u32>> {
        const NODE_BUDGET: u64 = 2_000_000;
        const MAX_DEPTH: usize = 2_000;
        let k = self.intervals.len();
        if k == 0 || k > MAX_DEPTH || seed_peak <= lb {
            return None;
        }
        let mut order: Vec<u32> = (0..k as u32).collect();
        order.sort_unstable_by_key(|&i| {
            let iv = self.intervals[i as usize];
            (iv.end(), iv.start(), i)
        });
        struct Search<'a> {
            inst: &'a BcpInstance,
            order: Vec<u32>,
            load: Vec<u64>,
            colors: Vec<u32>,
            best: Option<Vec<u32>>,
            best_peak: u64,
            lb: u64,
            budget: u64,
        }
        impl Search<'_> {
            fn dfs(&mut self, depth: usize, cur_peak: u64) {
                if self.best_peak == self.lb || self.budget == 0 {
                    return;
                }
                if depth == self.order.len() {
                    if cur_peak < self.best_peak {
                        self.best_peak = cur_peak;
                        self.best = Some(self.colors.clone());
                    }
                    return;
                }
                let idx = self.order[depth] as usize;
                let iv = self.inst.intervals[idx];
                let w = self.inst.interval_load(idx);
                for t in iv.start()..=iv.end() {
                    if self.budget == 0 {
                        return;
                    }
                    self.budget -= 1;
                    let slot = t as usize;
                    let new_load = self.load[slot].saturating_add(w);
                    // Prune: this color would already match the best peak.
                    if new_load >= self.best_peak {
                        continue;
                    }
                    self.load[slot] = new_load;
                    self.colors[idx] = t;
                    self.dfs(depth + 1, cur_peak.max(new_load));
                    self.load[slot] = new_load - w;
                    if self.best_peak == self.lb {
                        return;
                    }
                }
            }
        }
        let mut search = Search {
            inst: self,
            order,
            // `load` carries the baseline, so per-color sums are the
            // true objective directly.
            load: self.baseline.clone(),
            colors: vec![u32::MAX; k],
            best: None,
            best_peak: seed_peak,
            lb,
            budget: NODE_BUDGET,
        };
        let start_peak = search.load.iter().copied().max().unwrap_or(0);
        search.dfs(0, start_peak);
        search.best
    }

    /// Solves with the generalized (baseline-aware) algorithm and no
    /// warm bound.
    ///
    /// # Errors
    ///
    /// See [`BcpInstance::solve_with`].
    pub fn solve(&self) -> Result<BcpSolution, BcpError> {
        self.solve_with(&SolveOptions::default())
    }

    /// Solves with the paper's Algorithms 1+2 (baseline ignored during
    /// optimization, but reported in the verified peak). Interval loads
    /// are also ignored — the published algorithms are defined for unit
    /// loads; weighted instances must use [`BcpInstance::solve_with`].
    /// Traced like [`BcpInstance::solve_with`].
    ///
    /// # Errors
    ///
    /// Returns [`BcpError::Overflow`] when the bound exceeds `u64`.
    /// Algorithm 2 always meets the Algorithm 1 bound, so
    /// [`BcpError::Infeasible`] or [`BcpError::BoundNotMet`] would
    /// indicate a solver bug.
    pub fn solve_paper(&self) -> Result<BcpSolution, BcpError> {
        self.solve_by(None, None)
    }
}

/// Construction helpers for tests and examples that need a hand-made
/// [`Coloring`]. Not part of the stable API.
#[doc(hidden)]
pub mod test_support {
    use super::Coloring;

    /// Builds a coloring from raw colors (no validation; pair with
    /// [`BcpInstance::verify`](super::BcpInstance::verify)).
    pub fn coloring(colors: Vec<u32>) -> Coloring {
        Coloring { colors }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instance(n_colors: usize, ivs: &[(u32, u32)]) -> BcpInstance {
        let mut inst = BcpInstance::new(n_colors);
        for &(s, e) in ivs {
            inst.add_interval(Interval::new(s, e)).unwrap();
        }
        inst
    }

    #[test]
    fn zero_colors() {
        let mut inst = BcpInstance::new(0);
        assert_eq!(inst.lower_bound().unwrap(), 0);
        assert!(inst.solve().is_ok());
        assert!(inst.add_interval(Interval::new(0, 0)).is_err());
    }

    #[test]
    fn out_of_range_interval_rejected() {
        let mut inst = BcpInstance::new(3);
        assert!(matches!(
            inst.add_interval(Interval::new(1, 3)),
            Err(BcpError::IntervalOutOfRange { .. })
        ));
    }

    #[test]
    fn out_of_range_baseline_rejected() {
        // Was a documented panic; now the typed no-panic error.
        let mut inst = BcpInstance::new(3);
        assert_eq!(
            inst.add_baseline(3, 1),
            Err(BcpError::BaselineOutOfRange {
                color: 3,
                num_colors: 3
            })
        );
        assert!(BcpInstance::new(0).add_baseline(0, 1).is_err());
        assert!(inst.add_baseline(2, 5).is_ok());
        assert_eq!(inst.baseline(), &[0, 0, 5]);
    }

    #[test]
    fn baseline_accumulation_overflow_is_typed() {
        let mut inst = BcpInstance::new(2);
        inst.add_baseline(1, u64::MAX).unwrap();
        assert_eq!(
            inst.add_baseline(1, 1),
            Err(BcpError::Overflow {
                what: "accumulated baseline load"
            })
        );
        // The failed add must not have clobbered the slot.
        assert_eq!(inst.baseline(), &[0, u64::MAX]);
    }

    #[test]
    fn paper_fig1_style_instance_is_optimal() {
        // Disjoint choices allow peak 1.
        let inst = instance(4, &[(0, 1), (2, 3), (1, 2)]);
        let sol = inst.solve_paper().unwrap();
        assert_eq!(sol.peak.intervals_only, 1);
    }

    #[test]
    fn set_baseline_validates_length() {
        let mut inst = BcpInstance::new(3);
        assert!(matches!(
            inst.set_baseline(vec![0, 1]),
            Err(BcpError::BaselineLengthMismatch { .. })
        ));
    }

    #[test]
    fn greedy_respects_deadlines() {
        // Intervals with tight deadlines first: EDF must schedule the
        // early-ending ones before the late ones.
        let inst = instance(3, &[(0, 2), (0, 0), (0, 1), (0, 2)]);
        let lb = inst.lower_bound_paper().unwrap();
        assert_eq!(lb, 2);
        let coloring = inst.color_greedy_paper(lb).unwrap();
        let peak = inst.verify(&coloring).unwrap();
        assert_eq!(peak.intervals_only, 2);
        // Interval 1 (deadline 0) must get color 0.
        assert_eq!(coloring.color(1), 0);
    }

    #[test]
    fn infeasible_reports_attempted_peak_and_missed_color() {
        // Two point intervals at color 0: peak 1 places one, misses the
        // other at its deadline 0.
        let inst = instance(2, &[(0, 0), (0, 0)]);
        assert_eq!(
            inst.color_greedy_paper(1),
            Err(BcpError::Infeasible { peak: 1, color: 0 })
        );
    }

    #[test]
    fn infeasible_edf_reports_attempted_peak_not_residual_quota() {
        // Baseline-heavy: peak 5 leaves quota 5 - 4 = 1 at every color,
        // too little for three point intervals at color 1. The error
        // must name the attempted peak 5 (the old code leaked the
        // residual quota 1) and the missed color 1.
        let mut inst = instance(3, &[(1, 1), (1, 1), (1, 1)]);
        inst.set_baseline(vec![4, 4, 4]).unwrap();
        assert_eq!(
            inst.color_edf(5),
            Err(BcpError::Infeasible { peak: 5, color: 1 })
        );
        // At the true bound (4 + ceil(3/1) ... window [1,1] holds 4+3)
        // the solve succeeds.
        assert_eq!(inst.lower_bound().unwrap(), 7);
        assert!(inst.color_edf(7).is_ok());
    }

    #[test]
    fn verify_rejects_out_of_window_colors() {
        let inst = instance(3, &[(0, 1)]);
        let bad = Coloring { colors: vec![2] };
        assert!(matches!(
            inst.verify(&bad),
            Err(BcpError::InvalidColoring(_))
        ));
        let short = Coloring { colors: vec![] };
        assert!(matches!(
            inst.verify(&short),
            Err(BcpError::InvalidColoring(_))
        ));
    }

    #[test]
    fn solution_peak_equals_lower_bound() {
        let inst = instance(6, &[(0, 5), (1, 3), (2, 2), (2, 4), (0, 1), (4, 5)]);
        let sol = inst.solve_paper().unwrap();
        assert_eq!(sol.peak.intervals_only, sol.lower_bound);
        let gsol = inst.solve().unwrap();
        assert_eq!(gsol.peak.with_baseline, gsol.lower_bound);
        // No baseline: both agree.
        assert_eq!(gsol.peak.with_baseline, sol.peak.intervals_only);
    }

    /// The per-level recount the one-pass ladder replaced: every level
    /// re-walks all intervals and the baseline.
    fn ladder_per_level(
        inst: &BcpInstance,
        load: impl Fn(usize) -> u64,
        with_baseline: bool,
    ) -> u64 {
        let c = inst.num_colors;
        if c == 0 {
            return 0;
        }
        (0..=bitlen(c - 1))
            .map(|l| {
                let mut counts = vec![0u64; ((c - 1) >> l) + 1];
                for (i, iv) in inst.intervals.iter().enumerate() {
                    if iv.aligned_level() as usize <= l {
                        let q = iv.start() as usize >> l;
                        counts[q] = counts[q].saturating_add(load(i));
                    }
                }
                if with_baseline {
                    for (t, &b) in inst.baseline.iter().enumerate() {
                        counts[t >> l] = counts[t >> l].saturating_add(b);
                    }
                }
                counts
                    .iter()
                    .map(|&n| n.div_ceil(1 << l))
                    .max()
                    .unwrap_or(0)
            })
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn one_pass_ladder_matches_the_per_level_recount() {
        let mut seed = 0x1ADDu64;
        let mut next = |m: u64| {
            seed = seed
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(0x14057B7EF767814F);
            (seed >> 33) % m
        };
        // Heavy loads saturate the coarse levels but not the fine ones.
        let heavy = u64::MAX / 5;
        for c in [1usize, 2, 3, 7, 64, 65, 100, 1000] {
            for (k, max_load, max_base) in [
                (0u64, 1u64, 0u64),
                (40, 1, 0),
                (90, 9, 4),
                (25, heavy, 3),
                (12, 3, heavy),
            ] {
                let mut inst = BcpInstance::new(c);
                for _ in 0..k {
                    let s = next(c as u64) as u32;
                    let e = s + next(c as u64 - u64::from(s)) as u32;
                    inst.add_weighted_interval(Interval::new(s, e), 1 + next(max_load))
                        .unwrap();
                }
                if max_base > 0 {
                    inst.set_baseline((0..c).map(|_| next(max_base)).collect())
                        .unwrap();
                }
                for with_baseline in [false, true] {
                    let load = |i| inst.interval_load(i);
                    assert_eq!(
                        inst.ladder_best(load, with_baseline),
                        ladder_per_level(&inst, load, with_baseline),
                        "c {c} k {k} loads <= {max_load} baseline < {max_base}"
                    );
                    assert_eq!(
                        inst.ladder_best(|_| 1, with_baseline),
                        ladder_per_level(&inst, |_| 1, with_baseline)
                    );
                }
            }
        }
        // Fully saturated: every level's windows pin at u64::MAX.
        let mut inst = BcpInstance::new(5);
        for _ in 0..3 {
            inst.add_weighted_interval(Interval::new(0, 4), u64::MAX)
                .unwrap();
        }
        inst.set_baseline(vec![u64::MAX; 5]).unwrap();
        let load = |i| inst.interval_load(i);
        assert_eq!(inst.ladder_best(load, true), u64::MAX);
        assert_eq!(
            inst.ladder_best(load, true),
            ladder_per_level(&inst, load, true)
        );
    }

    #[test]
    fn unit_bound_decides_and_certifies_the_instance_bound() {
        let mut seed = 0xB0D5u64;
        let mut next = |m: u64| {
            seed = seed
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(0x14057B7EF767814F);
            (seed >> 33) % m
        };
        for c in [1usize, 2, 3, 7, 64, 65, 300] {
            for (k, max_base) in [(0u64, 0u64), (0, 5), (40, 0), (90, 4), (400, 9)] {
                let mut inst = BcpInstance::new(c);
                // Two chunks grouped by end, as the candidate scan hands
                // them over.
                let mut chunks = vec![Vec::new(), Vec::new()];
                for i in 0..k {
                    let s = next(c as u64) as u32;
                    let e = s + next(c as u64 - u64::from(s)) as u32;
                    inst.add_interval(Interval::new(s, e)).unwrap();
                    chunks[i as usize % 2].push((s, e));
                }
                let baseline: Vec<u64> = (0..c).map(|_| next(max_base + 1)).collect();
                inst.set_baseline(baseline.clone()).unwrap();
                let groups: Vec<EndGroups> = chunks
                    .into_iter()
                    .map(|mut pairs: Vec<(u32, u32)>| {
                        pairs.sort_by_key(|&(_, e)| e);
                        let mut by_end = vec![0; c + 1];
                        for &(_, e) in &pairs {
                            by_end[e as usize + 1] += 1;
                        }
                        for t in 0..c {
                            by_end[t + 1] += by_end[t];
                        }
                        let starts = pairs.iter().map(|&(s, _)| s).collect();
                        EndGroups { starts, by_end }
                    })
                    .collect();
                let bound = UnitBound::new(groups, baseline);
                let lb = inst.lower_bound().unwrap();
                assert_eq!(bound.certify(0).unwrap(), lb, "c {c} k {k}");
                assert_eq!(bound.certify(lb + 3).unwrap(), lb + 3, "c {c} k {k}");
                for p in lb.saturating_sub(3)..=lb + 1 {
                    assert_eq!(bound.feasible(p), p >= lb, "c {c} k {k} peak {p}");
                }
            }
        }
    }

    #[test]
    fn bound_not_met_is_a_displayable_solver_error() {
        let err = BcpError::BoundNotMet { bound: 4, peak: 5 };
        assert_eq!(
            err.to_string(),
            "optimality certificate failed: coloring peak 5 differs from the certified \
             lower bound 4"
        );
        let boxed: Box<dyn Error> = Box::new(err.clone());
        assert_eq!(boxed.to_string(), err.to_string());
    }

    #[test]
    fn ladder_is_exact_on_aligned_witnesses() {
        // Three point intervals at color 5: the level-0 window [5,5] is
        // aligned, so the ladder alone pins the bound.
        let mut ladder = IncrementalBound::new();
        for _ in 0..3 {
            ladder.add_interval(Interval::new(5, 5));
        }
        assert_eq!(ladder.current(), 3);
        // Unaligned window [1,2]: the ladder may undershoot (level-1
        // windows are [0,1] and [2,3]) but never overshoots.
        let mut ladder = IncrementalBound::new();
        for _ in 0..4 {
            ladder.add_load(1, 2, 1);
        }
        assert!(ladder.current() <= 2);
        assert!(ladder.current() >= 1);
    }

    #[test]
    fn solve_options_pick_engines_not_answers() {
        // Every valid warm bound (at most the true one) only skips
        // work: unit solves return the cold solution.
        let mut inst = instance(9, &[(0, 8), (2, 3), (2, 3), (5, 5), (6, 8), (0, 1)]);
        inst.set_baseline(vec![1, 0, 0, 2, 0, 1, 0, 0, 0]).unwrap();
        let reference = inst.solve().unwrap();
        for warm in 0..=reference.lower_bound {
            let sol = inst
                .solve_with(&SolveOptions {
                    warm_lb: Some(warm),
                })
                .unwrap();
            assert_eq!(sol, reference, "warm {warm}");
        }
    }

    fn weighted_instance(n_colors: usize, ivs: &[(u32, u32, u64)]) -> BcpInstance {
        let mut inst = BcpInstance::new(n_colors);
        for &(s, e, w) in ivs {
            inst.add_weighted_interval(Interval::new(s, e), w).unwrap();
        }
        inst
    }

    #[test]
    fn unit_loads_stay_in_the_canonical_representation() {
        let mut inst = BcpInstance::new(4);
        inst.add_weighted_interval(Interval::new(0, 2), 1).unwrap();
        inst.add_interval(Interval::new(1, 3)).unwrap();
        assert!(inst.is_unit());
        // Unit weighted adds leave the instance equal to the plain one.
        let plain = instance(4, &[(0, 2), (1, 3)]);
        assert_eq!(inst, plain);
        // A non-unit load back-fills and stays in sync afterwards.
        inst.add_weighted_interval(Interval::new(0, 0), 5).unwrap();
        inst.add_interval(Interval::new(2, 3)).unwrap();
        assert!(!inst.is_unit());
        assert_eq!(
            (0..4).map(|i| inst.interval_load(i)).collect::<Vec<_>>(),
            vec![1, 1, 5, 1]
        );
    }

    #[test]
    fn zero_load_intervals_are_rejected() {
        let mut inst = BcpInstance::new(4);
        let err = inst
            .add_weighted_interval(Interval::new(1, 2), 0)
            .unwrap_err();
        assert!(matches!(err, BcpError::ZeroLoad { .. }));
        assert_eq!(inst.intervals().len(), 0);
    }

    #[test]
    fn weighted_solve_is_identical_across_bound_engines() {
        let inst = {
            let mut inst = weighted_instance(
                11,
                &[
                    (0, 10, 3),
                    (0, 0, 7),
                    (3, 7, 2),
                    (3, 7, 5),
                    (4, 4, 1),
                    (8, 10, 9),
                    (9, 10, 4),
                    (2, 6, 6),
                    (0, 5, 2),
                ],
            );
            inst.set_baseline(vec![0, 2, 0, 1, 0, 0, 3, 0, 0, 1, 0])
                .unwrap();
            inst
        };
        let reference = inst.solve_with(&SolveOptions::default()).unwrap();
        assert_eq!(inst.verify(&reference.coloring).unwrap(), reference.peak);
        // Weighted solves take the warm bound too; it moves no answer.
        for warm in 0..=reference.lower_bound {
            let sol = inst
                .solve_with(&SolveOptions {
                    warm_lb: Some(warm),
                })
                .unwrap();
            assert_eq!(sol, reference, "warm {warm}");
        }
    }

    #[test]
    fn weighted_coloring_with_unit_loads_places_like_the_unit_sweep() {
        let mut inst = instance(9, &[(0, 8), (2, 3), (2, 3), (5, 5), (6, 8), (0, 1)]);
        inst.set_baseline(vec![1, 0, 0, 2, 0, 1, 0, 0, 0]).unwrap();
        let lb = inst.lower_bound().unwrap();
        assert_eq!(
            inst.color_edf_weighted(lb).unwrap(),
            inst.color_edf(lb).unwrap()
        );
        // And the miss reports match too.
        if lb > 0 {
            let unit_err = inst.color_edf(lb - 1).unwrap_err();
            let weighted_err = inst.color_edf_weighted(lb - 1).unwrap_err();
            assert_eq!(format!("{unit_err}"), format!("{weighted_err}"));
        }
    }

    #[test]
    fn shift_within_slack_moves_only_where_the_peak_allows() {
        // Three unit intervals over 3 colors, peak 1: the coloring is a
        // permutation; desires can only shuffle within slack.
        let inst = instance(3, &[(0, 2), (0, 2), (0, 2)]);
        let sol = inst.solve().unwrap();
        assert_eq!(sol.peak.with_baseline, 1);
        // Pull everything rightward: the last-placed can't move (the
        // other colors are full), so the shifted coloring must still
        // verify at peak 1.
        let shifted = inst
            .shift_within_slack(&sol.coloring, &[1, 1, 1], 1)
            .unwrap();
        let peak = inst.verify(&shifted).unwrap();
        assert_eq!(peak.with_baseline, 1);
        // With peak budget 3 everything piles onto the rightmost color.
        let shifted = inst
            .shift_within_slack(&sol.coloring, &[1, 1, 1], 3)
            .unwrap();
        assert_eq!(shifted.colors(), &[2, 2, 2]);
        let leftward = inst
            .shift_within_slack(&sol.coloring, &[-1, -1, -1], 3)
            .unwrap();
        assert_eq!(leftward.colors(), &[0, 0, 0]);
        // Zero desire is the identity.
        let same = inst
            .shift_within_slack(&sol.coloring, &[0, 0, 0], 1)
            .unwrap();
        assert_eq!(&same, &sol.coloring);
        // Bad budget and bad lengths are typed errors.
        assert!(inst.shift_within_slack(&sol.coloring, &[0, 0], 1).is_err());
        assert!(inst
            .shift_within_slack(&sol.coloring, &[0, 0, 0], 0)
            .is_err());
    }
}
