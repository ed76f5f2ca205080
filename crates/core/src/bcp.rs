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
//!    bound is Hall's condition. A probe that fails at `P` names that
//!    window: every color in the run of closed colors ending at the
//!    failing interval's end is full, so the run holds more than `P`
//!    per color. Widened by one pass over right ends and one over left
//!    ends, its density is a *witness*: a real window's density, so a
//!    certified floor above `P` and at most the bound. One serial
//!    gallop-and-bisect search from the warm start raises its
//!    infeasible end to each witness and gallops to `max(witness, P +
//!    step)`, so it takes O(log gap) probes of one sweep each however
//!    small the witnesses, and usually two: the first failure's witness
//!    is often the bound itself.
//!
//! # How the sweeps run
//!
//! Every sweep — feasibility probe, weighted search and coloring —
//! walks the intervals once in `(end, index)` order and places each in
//! the earliest open colors at or after its start. The sweep input
//! (`ByEnd`) is the scan's own output: per chunk of pin words, the
//! stretches grouped by end, walked end by end and chunk by chunk within
//! an end, which is `(end, pin)` order, so the pipelines bound, color,
//! verify and shift their analysis in place. A [`BcpInstance`] in any
//! other order is counting-sorted by end once per call. A union-find over the colors finds them: a color is
//! joined to its successor once it is full or, in the blocking sweep,
//! once an interval does not fit it. The probes *pour* divisible loads
//! (exact for unit loads, the fractional relaxation for weighted ones);
//! the blocking probe and every coloring *fit* each load in one color.
//! A pour places unit loads exactly as a fit does, so a unit solve's
//! probes record their placements and the probe that certifies the
//! bound is the coloring; the weighted blocking search keeps the
//! placements of its last accepted probe the same way.
//! An interval's color in the textbook heap sweep depends only on the
//! intervals before it in `(end, index)` order (the exchange argument
//! for unit jobs with release times and deadlines), so the colorings
//! and [`BcpError::Infeasible`] reports are the heap sweep's
//! (differential-tested against it).

use std::convert::Infallible;
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
/// the pyramid, each window adding its two halves, so every window
/// holds exactly the load fully inside it. That is a real window's
/// load, so `⌈load / 2^l⌉` — and the maximum over all windows — **never
/// exceeds the true windowed bound**. It is exact on aligned witnesses
/// and within the probe budget of [`BcpInstance::solve_with`]'s
/// parametric certification otherwise, which is why it serves as
/// [`SolveOptions::warm_lb`].
///
/// The fold is kept between reads. Loads only raise window sums, so a
/// read re-folds only the windows at or after the earliest color loaded
/// since the previous read: a stream read after each of its windows
/// costs time linear in its colors, not quadratic.
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
    /// `folded[l - 1][q]` = the load fully inside window `q` of level
    /// `l ≥ 1`, as of the last fold (level 0's is its own load).
    folded: Vec<Vec<u64>>,
    /// The best window density of the last fold.
    best: u64,
    /// The earliest color loaded since the last fold (`usize::MAX`:
    /// none; a new ladder folds from color 0).
    dirty: usize,
}

/// Levels are capped at window width `2^63`; a load that would need a
/// higher level is not counted (an undercount keeps the bound valid).
const MAX_LADDER_LEVELS: usize = 64;

/// Counts `amount` of load placeable anywhere in `[lo, hi]` at its
/// aligned level of `levels`, whose level-`l` counters start at window
/// `origin >> l` (`hi` at or after `origin`).
fn count_load(levels: &mut Vec<Vec<u64>>, origin: usize, lo: usize, hi: usize, amount: u64) {
    let l = bitlen(lo ^ hi);
    if l >= MAX_LADDER_LEVELS {
        return;
    }
    if levels.len() <= l {
        levels.resize_with(l + 1, Vec::new);
    }
    let (level, q) = (&mut levels[l], (hi >> l) - (origin >> l));
    if level.len() <= q {
        level.resize(q + 1, 0);
    }
    level[q] = level[q].saturating_add(amount);
}

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
        count_load(&mut self.levels, 0, lo, hi, amount);
        self.dirty = self.dirty.min(lo);
    }

    /// Records every load of `delta`, as if each were added here.
    pub(crate) fn absorb(&mut self, delta: LadderDelta) {
        self.dirty = self.dirty.min(delta.origin);
        if self.levels.is_empty() && delta.origin == 0 {
            // A first delta from color 0 (a whole set) is the ladder.
            self.levels = delta.levels;
            return;
        }
        if self.levels.len() < delta.levels.len() {
            self.levels.resize_with(delta.levels.len(), Vec::new);
        }
        for (l, counts) in delta.levels.iter().enumerate() {
            let (level, base) = (&mut self.levels[l], delta.origin >> l);
            if level.len() < base + counts.len() {
                level.resize(base + counts.len(), 0);
            }
            for (total, &n) in level[base..].iter_mut().zip(counts) {
                *total = total.saturating_add(n);
            }
        }
    }

    /// The best window-density bound over everything recorded so far.
    /// Monotone in the recorded loads and never above the true windowed
    /// lower bound. Re-folds the pyramid level by level from the
    /// earliest color loaded since the previous call (from color 0 on a
    /// level the previous fold did not reach).
    pub fn current(&mut self) -> u64 {
        let dirty = std::mem::replace(&mut self.dirty, usize::MAX);
        if dirty == usize::MAX {
            return self.best;
        }
        let at = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
        let Some((base, upper)) = self.levels.split_first() else {
            return self.best;
        };
        // Level 0's windows hold their own load.
        let reached = self.folded.len() + 1;
        self.best = (base.iter().skip(dirty)).fold(self.best, |b, &n| b.max(n));
        self.folded.resize_with(upper.len(), Vec::new);
        for (i, own) in upper.iter().enumerate() {
            let l = i + 1;
            let (lower, sums) = self.folded.split_at_mut(i);
            let below = lower.last().map_or(base.as_slice(), Vec::as_slice);
            let sums = &mut sums[0];
            let len = own.len().max(below.len().div_ceil(2));
            sums.resize(len, 0);
            let from = if l < reached { dirty >> l } else { 0 };
            for (q, sum) in sums.iter_mut().enumerate().skip(from) {
                *sum = at(own, q)
                    .saturating_add(at(below, 2 * q))
                    .saturating_add(at(below, 2 * q + 1));
                self.best = self.best.max(sum.div_ceil(1 << l));
            }
        }
        self.best
    }

    /// Bytes held by the ladder and its fold — charged against the
    /// streaming memory budget alongside the event stream.
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        let levels = self.levels.iter().chain(&self.folded);
        let counters: usize = levels.clone().map(Vec::len).sum();
        (counters * size_of::<u64>() + levels.count() * size_of::<Vec<u64>>()) as u64
    }
}

/// Unit loads for an [`IncrementalBound`] that all end at or after one
/// color: the stretches one scan chunk closes in a window, counted on
/// the pool and [absorbed](IncrementalBound::absorb) after it.
pub(crate) struct LadderDelta {
    origin: usize,
    levels: Vec<Vec<u64>>,
}

impl LadderDelta {
    /// An empty delta for loads ending at or after color `origin`.
    pub(crate) fn new(origin: usize) -> LadderDelta {
        LadderDelta {
            origin,
            levels: Vec::new(),
        }
    }

    /// Records one unit load placeable anywhere in `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi` is before the origin.
    pub(crate) fn add_unit(&mut self, lo: usize, hi: usize) {
        assert!(lo <= hi && hi >= self.origin, "load window {lo}..={hi}");
        count_load(&mut self.levels, self.origin, lo, hi, 1);
    }
}

/// Intervals grouped by end color, as one scan chunk of pin words closes
/// them (by ascending pin within an end) or as an instance lists them:
/// those ending at color `e` start at `starts[by_end[e]..by_end[e + 1]]`,
/// and `by_end` has one entry per color plus one. A scan appends colors
/// window by window.
#[derive(Clone, Debug)]
pub(crate) struct EndGroups {
    pub starts: Vec<u32>,
    pub by_end: Vec<usize>,
    /// Each interval's key, aligned with `starts` when recorded: its pin
    /// in a scan, its index in an instance (empty: its position).
    pub keys: Vec<u32>,
    /// Each interval's left care value, aligned with `starts` when
    /// recorded.
    pub lefts: Vec<bool>,
}

impl Default for EndGroups {
    fn default() -> EndGroups {
        EndGroups {
            starts: Vec::new(),
            by_end: vec![0],
            keys: Vec::new(),
            lefts: Vec::new(),
        }
    }
}

impl EndGroups {
    /// The key of interval `i`.
    fn key(&self, i: usize) -> usize {
        self.keys.get(i).map_or(i, |&k| k as usize)
    }
}

/// The one sweep input: end-grouped chunks, walked end by end and chunk
/// by chunk within an end — a scan's `(end, pin)` order, an instance's
/// `(end, index)` order — over a per-color baseline. Interval `i`
/// weighs `weights[key]`: its pin's weight in a scan, its own load in an
/// instance, and the intervals are *unit* when every one weighs 1. A
/// coloring lists its colors in walk order (by key for an instance).
///
/// An interval's color in the textbook heap sweep depends only on the
/// intervals before it in walk order, so every sweep, bound and
/// coloring reads the scan's groups in place, with no sort.
#[derive(Clone, Copy)]
pub(crate) struct ByEnd<'a> {
    chunks: &'a [EndGroups],
    baseline: &'a [u64],
    weights: &'a [u64],
    unit: bool,
    keyed: bool,
}

/// One interval a slack shift visits: its coloring slot, the color it
/// moves toward (its end to move late, its start to move early) and its
/// load.
pub(crate) type Visit = (usize, u32, u64);

impl<'a> ByEnd<'a> {
    /// The intervals of `chunks` (each with one `by_end` entry per color
    /// of `baseline`, plus one) weighing `weights[pin]` (unit when
    /// `None`), colored in walk order.
    pub(crate) fn new(
        chunks: &'a [EndGroups],
        baseline: &'a [u64],
        weights: Option<&'a [u64]>,
    ) -> ByEnd<'a> {
        ByEnd::with(chunks, baseline, weights.unwrap_or(&[]), false)
    }

    fn with(
        chunks: &'a [EndGroups],
        baseline: &'a [u64],
        weights: &'a [u64],
        keyed: bool,
    ) -> ByEnd<'a> {
        let unit = weights.is_empty()
            || (chunks.iter()).all(|g| (0..g.starts.len()).all(|i| weights[g.key(i)] == 1));
        ByEnd {
            chunks,
            baseline,
            weights,
            unit,
            keyed,
        }
    }

    /// The number of colors.
    fn colors(&self) -> usize {
        self.baseline.len()
    }

    /// The number of intervals.
    pub(crate) fn len(&self) -> usize {
        self.chunks.iter().map(|g| g.starts.len()).sum()
    }

    /// Every interval in walk order: its start and end, its chunk and its
    /// position there.
    #[cfg(test)]
    pub(crate) fn intervals(&self) -> impl Iterator<Item = (u32, usize, &'a EndGroups, usize)> {
        let chunks = self.chunks;
        (0..self.colors()).flat_map(move |e| {
            chunks.iter().flat_map(move |g| {
                (g.by_end[e]..g.by_end[e + 1]).map(move |i| (g.starts[i], e, g, i))
            })
        })
    }

    /// The load of pin (or instance index) `key`: 1 on unit intervals.
    pub(crate) fn weight(&self, key: usize) -> u64 {
        if self.unit {
            1
        } else {
            self.weights[key]
        }
    }

    /// Where a coloring keeps the color of interval `i` of `g`, the
    /// `r`-th walked.
    fn slot(&self, r: usize, g: &EndGroups, i: usize) -> usize {
        if self.keyed {
            g.key(i)
        } else {
            r
        }
    }

    /// Calls `visit(r, start, end, g, i)` for every interval in walk
    /// order — the `r`-th walked, interval `i` of chunk `g` — end by
    /// end, then chunk by chunk, stopping at the first error.
    fn walk<E>(
        &self,
        mut visit: impl FnMut(usize, u32, usize, &'a EndGroups, usize) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut r = 0;
        for e in 0..self.colors() {
            for g in self.chunks {
                for i in g.by_end[e]..g.by_end[e + 1] {
                    visit(r, g.starts[i], e, g, i)?;
                    r += 1;
                }
            }
        }
        Ok(())
    }

    /// [`ByEnd::walk`] with a visit that cannot fail.
    pub(crate) fn each(&self, mut visit: impl FnMut(usize, u32, usize, &'a EndGroups, usize)) {
        let Ok(()) = self.walk(|r, start, e, g, i| {
            visit(r, start, e, g, i);
            Ok::<_, Infallible>(())
        });
    }

    /// The end-grouped chunks.
    pub(crate) fn chunks(&self) -> &'a [EndGroups] {
        self.chunks
    }

    /// Calls `visit(start, load)` for every interval ending at color
    /// `end`, weighing its load when `weighed` (else 1).
    fn ending_at(&self, end: usize, weighed: bool, mut visit: impl FnMut(u32, u64)) {
        for g in self.chunks {
            for i in g.by_end[end]..g.by_end[end + 1] {
                visit(g.starts[i], if weighed { self.weight(g.key(i)) } else { 1 });
            }
        }
    }

    /// One sweep: [`OpenColors::place`]s every interval in walk order,
    /// weighing its load when `weighed` (else 1), and reports each
    /// placement to `place(slot, color)`. The error is the end of the
    /// first interval that finds no room.
    fn sweep(
        &self,
        colors: &mut OpenColors,
        weighed: bool,
        divisible: bool,
        mut place: impl FnMut(usize, u32),
    ) -> Result<(), u32> {
        self.walk(|r, start, e, g, i| {
            let load = if weighed { self.weight(g.key(i)) } else { 1 };
            let t = colors.place(start, e, load, divisible);
            place(self.slot(r, g, i), t.ok_or(e as u32)?);
            Ok(())
        })
    }

    /// One feasibility probe at `peak` over `baseline`: does a [`sweep`]
    /// place every interval? Each placement is reported to `place`. The
    /// `divisible` (pour) probe is exact for unit loads, however the
    /// intervals sharing an end are ordered; on weighted loads it is the
    /// fractional relaxation, whose minimum feasible peak is
    /// `max(max_t baseline_t, max_{i≤j} ⌈(W[i][j] + B[i][j])/(j−i+1)⌉)`
    /// (Gale–Hoffman on contiguous windows), a true lower bound for the
    /// integral weighted problem. A failed pour returns its
    /// [`witness`], a floor above `peak` that no feasible peak is below;
    /// unit loads fit exactly as they pour, so a unit fit does too. The
    /// blocking (weighted fit) probe's success certifies an achievable
    /// peak, and blocking feasibility is monotone in the peak. Compare
    /// fits at P < P′ over the same walk: after every interval, (A)
    /// every color closed at P′ is closed at P, and (B) every color open
    /// at P has at least as much room at P′. P′ places each interval at
    /// or before P's color, and every color P′ passes lacks room at P′,
    /// hence at P, so a miss at P′ is a miss at P. A blocking failure
    /// returns `peak + 1`. With lb the fractional bound and w_max the
    /// largest load, a fit at lb + w_max − 1 cannot miss.
    ///
    /// [`sweep`]: ByEnd::sweep
    /// [`witness`]: ByEnd::witness
    fn probe(
        &self,
        baseline: Option<&[u64]>,
        peak: u64,
        weighed: bool,
        divisible: bool,
        place: impl FnMut(usize, u32),
    ) -> Result<(), u64> {
        BCP_PROBES.add(1);
        let mut open = OpenColors::new(self.colors(), baseline, peak);
        let Err(end) = self.sweep(&mut open, weighed, divisible, place) else {
            return Ok(());
        };
        if weighed && !divisible {
            return Err(peak.saturating_add(1));
        }
        let floor = self.witness(&open, baseline, weighed, end as usize);
        debug_assert!(
            floor > peak || peak == u64::MAX,
            "witness {floor} at {peak}"
        );
        Err(floor)
    }

    /// The floor a failed pour proves: the densest window `W` met, its
    /// density `⌈(loads inside W + baseline of W) / |W|⌉` a real
    /// window's, so at most the bound. `W` starts as the run of closed
    /// colors ending at `end`, where an interval found no room. A pour
    /// closes a color only once full, no load from before the run
    /// reached it (the color left of it never closed) and none from
    /// after `end` (not yet walked), so the run's own intervals overfill
    /// it and its density exceeds the probe's peak. One pass over right
    /// ends, then one over left ends, each reaching [`WITNESS_REACH`]
    /// run lengths past the run, widen `W` to the densest window seen.
    fn witness(
        &self,
        open: &OpenColors,
        baseline: Option<&[u64]>,
        weighed: bool,
        end: usize,
    ) -> u64 {
        let base = |t: usize| u128::from(baseline.map_or(0, |b| b[t]));
        let mut lo = end;
        while lo > 0 && !open.is_open(lo - 1) {
            lo -= 1;
        }
        let reach = WITNESS_REACH * (end + 1 - lo);
        // Right ends: windows [lo, e], with every load inside them.
        let (mut best, mut hi, mut inside) = (0u128, lo, 0u128);
        let mut sum = 0u128;
        for e in lo..=(end + reach).min(self.colors() - 1) {
            sum += base(e);
            self.ending_at(e, weighed, |start, w| {
                if start as usize >= lo {
                    sum += u128::from(w);
                }
            });
            let density = sum.div_ceil((e + 1 - lo) as u128);
            if density >= best {
                (best, hi, inside) = (density, e, sum);
            }
        }
        // Left ends: windows [t, hi], each adding the loads starting at t.
        let from = lo.saturating_sub(reach);
        let mut starting = vec![0u128; lo - from];
        for e in from..=hi {
            self.ending_at(e, weighed, |start, w| {
                let at = start as usize;
                if (from..lo).contains(&at) {
                    starting[at - from] += u128::from(w);
                }
            });
        }
        for t in (from..lo).rev() {
            inside += base(t) + starting[t - from];
            best = best.max(inside.div_ceil((hi + 1 - t) as u128));
        }
        u64::try_from(best).unwrap_or(u64::MAX)
    }

    /// Is the unit-load bound over the baseline at most `peak`? One
    /// [`Pour`] fed every color, which places the intervals only: a peak
    /// below a color's baseline is infeasible before any interval ending
    /// there is placed. The banded I-ordering probes its first candidate
    /// at its warm bound with it.
    pub(crate) fn feasible(&self, peak: u64) -> bool {
        let chunks: Vec<_> = self.chunks.iter().collect();
        Pour::new(self.colors(), peak).feed(&chunks, self.baseline)
    }

    /// A pour probe at `peak` that records nothing.
    fn pour(&self, baseline: Option<&[u64]>, peak: u64, weighed: bool) -> Result<(), u64> {
        self.probe(baseline, peak, weighed, true, |_, _| {})
    }

    /// `max(floor, bound)` for the unit-load bound over the baseline: the
    /// bound itself for any `floor` at or below it, certified like
    /// [`BcpInstance::lower_bound`] from the ladder, the density
    /// candidates and `floor`. The I-ordering certifies its winners with
    /// it.
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
        let c = self.colors();
        if c == 0 {
            return Ok(floor);
        }
        let last = c - 1;
        let mut ladder = IncrementalBound::new();
        for g in self.chunks {
            for e in 0..c {
                for &start in &g.starts[g.by_end[e]..g.by_end[e + 1]] {
                    ladder.add_load(last - e, last - start as usize, 1);
                }
            }
        }
        for (t, &b) in self.baseline.iter().enumerate() {
            ladder.add_baseline(last - t, b);
        }
        let k = self.len();
        BCP_LADDER_LOADS.add((k + c) as u64);
        let baseline = Some(self.baseline);
        let lo = floor
            .max(ladder.current())
            .max(density_floor(c, baseline, k as u64));
        min_feasible_peak(lo, UNIT_BOUND_OVERFLOW, |p| self.pour(baseline, p, false))
    }

    /// The batch bound of the [`IncrementalBound`] ladder: the best
    /// `⌈load / 2^l⌉` over every power-of-two aligned color window, each
    /// interval weighing its load when `weighed` (else 1) — one pass
    /// feeding each interval (and, `with_baseline`, each forced load) to
    /// a ladder, which counts it once at its aligned level and folds the
    /// pyramid — and the intervals' total load, summed in the same walk
    /// (saturating).
    fn ladder_best(&self, weighed: bool, with_baseline: bool) -> (u64, u64) {
        let mut ladder = IncrementalBound::new();
        let mut total = 0u64;
        self.each(|_, start, end, g, i| {
            let load = if weighed { self.weight(g.key(i)) } else { 1 };
            ladder.add_load(start as usize, end, load);
            total = total.saturating_add(load);
        });
        let colors = if with_baseline { self.colors() } else { 0 };
        for (t, &b) in self.baseline[..colors].iter().enumerate() {
            ladder.add_baseline(t, b);
        }
        BCP_LADDER_LOADS.add((self.len() + colors) as u64);
        (ladder.current(), total)
    }

    /// Where the parametric lower-bound search over `baseline` (none:
    /// the paper's problem, loads ignored) starts, and what overflows
    /// when its bound leaves `u64`: the best cheap candidate — the
    /// ladder, or for unit loads `warm` instead of it, plus the
    /// max-baseline and global-density candidates, all true lower
    /// bounds. On weighted loads warm candidates stay valid because
    /// loads are ≥ 1, so any unit-load bound is below the weighted bound.
    fn bound_start(&self, baseline: Option<&[u64]>, warm: Option<u64>) -> (u64, &'static str) {
        let c = self.colors();
        if c == 0 {
            return (0, UNIT_BOUND_OVERFLOW);
        }
        let (lo, total, what) = if baseline.is_some() && !self.unit {
            let (ladder, total) = self.ladder_best(true, true);
            let what = "weighted BCP lower bound (exceeds u64)";
            (warm.unwrap_or(0).max(ladder), total, what)
        } else {
            let lo = warm.unwrap_or_else(|| self.ladder_best(false, baseline.is_some()).0);
            (lo, self.len() as u64, UNIT_BOUND_OVERFLOW)
        };
        (lo.max(density_floor(c, baseline, total)), what)
    }

    /// The parametric lower-bound engine over `baseline`: from
    /// [`ByEnd::bound_start`], the minimum feasible peak by
    /// [`min_feasible_peak`] over pour probes. That minimum *is* the
    /// windowed bound: below it some window is overfull (pigeonhole), at
    /// it EDF succeeds (Hall). On weighted loads it is the fractional
    /// bound.
    fn certified_bound(
        &self,
        baseline: Option<&[u64]>,
        warm: Option<u64>,
    ) -> Result<u64, BcpError> {
        let (lo, what) = self.bound_start(baseline, warm);
        let weighed = baseline.is_some() && !self.unit;
        min_feasible_peak(lo, what, |p| self.pour(baseline, p, weighed))
    }

    /// [`min_feasible_peak`] from `lo` over probes at `baseline`
    /// (`weighed`, `divisible` as in [`ByEnd::probe`]), with the
    /// coloring the accepted probe placed: every probe records into one
    /// buffer ([`recorded_search`]).
    fn colored_search(
        &self,
        lo: u64,
        what: &'static str,
        baseline: Option<&[u64]>,
        weighed: bool,
        divisible: bool,
    ) -> Result<(u64, Coloring), BcpError> {
        let mut colors = vec![u32::MAX; self.len()];
        let peak = recorded_search(lo, what, &mut colors, |p, colors| {
            self.probe(baseline, p, weighed, divisible, |slot, t| colors[slot] = t)
        })?;
        Ok((peak, Coloring { colors }))
    }

    /// Colors by one fit sweep at `peak`; a missed interval reports
    /// `peak` and its end.
    fn color_at(
        &self,
        peak: u64,
        baseline: Option<&[u64]>,
        weighed: bool,
    ) -> Result<Coloring, BcpError> {
        let mut colors = vec![u32::MAX; self.len()];
        let mut open = OpenColors::new(self.colors(), baseline, peak);
        self.sweep(&mut open, weighed, false, |slot, t| colors[slot] = t)
            .map_err(|color| BcpError::Infeasible { peak, color })?;
        Ok(Coloring { colors })
    }

    /// The verified peaks of `coloring` and its per-color interval loads,
    /// checking every interval's color is inside its window.
    fn color_loads(&self, coloring: &Coloring) -> Result<(VerifiedPeak, Vec<u64>), BcpError> {
        check_length(coloring, self.len())?;
        let mut load = vec![0u64; self.colors()];
        self.walk(|r, start, end, g, i| {
            let iv = Interval::new(start, end as u32);
            let color = coloring.colors[self.slot(r, g, i)];
            charge(&mut load, iv, color, self.weight(g.key(i)))
        })?;
        Ok((peaks(&load, self.baseline)?, load))
    }

    /// The generalized solve over the baseline, warmed by `warm` (see
    /// [`BcpInstance::solve_with`]), coloring in walk order, with the
    /// verified per-color interval loads of its coloring.
    ///
    /// # Errors
    ///
    /// As [`BcpInstance::solve_with`].
    pub(crate) fn solve_with(
        &self,
        warm: Option<u64>,
    ) -> Result<(BcpSolution, Vec<u64>), BcpError> {
        self.solve(Some(self.baseline), warm)
    }

    /// The solve, with the verified per-color interval loads of its
    /// coloring; without a baseline, the paper's unit-load problem. A
    /// unit solve's bound search records its probes' placements, so the
    /// probe that certifies the bound is the coloring, and its verified
    /// peak must equal the bound (the optimality certificate; paper mode
    /// ignores loads, so on weighted intervals its verified peak, which
    /// counts them, is not compared). A weighted solve colors at the
    /// smallest blocking-feasible peak at or above the fractional bound
    /// (the same search over blocking probes; blocking feasibility is
    /// monotone in the peak, so that peak is at most lb + w_max − 1, see
    /// [`ByEnd::probe`]), then
    /// closes any remaining gap with a bounded exact branch-and-bound.
    /// Weighted bottleneck coloring is NP-hard, so `peak == lower_bound`
    /// is not guaranteed beyond the search budget; inside it the peak is
    /// exactly optimal (differential-tested against the `dpfill-oracle`
    /// brute force).
    fn solve(
        &self,
        baseline: Option<&[u64]>,
        warm: Option<u64>,
    ) -> Result<(BcpSolution, Vec<u64>), BcpError> {
        let _span = minitrace::span_with(
            "bcp.solve",
            &[
                ("intervals", self.len().into()),
                ("colors", self.colors().into()),
                ("unit", u64::from(self.unit).into()),
            ],
        );
        let weighed = baseline.is_some() && !self.unit;
        let (lb, mut coloring) = if weighed {
            let lb = {
                let _span = minitrace::span("bcp.bound");
                self.certified_bound(baseline, warm)?
            };
            let _span = minitrace::span("bcp.search");
            let what = "weighted BCP peak (exceeds u64)";
            (lb, self.colored_search(lb, what, baseline, true, false)?.1)
        } else {
            let _span = minitrace::span("bcp.bound");
            let (lo, what) = self.bound_start(baseline, warm);
            self.colored_search(lo, what, baseline, false, true)?
        };
        let _span = minitrace::span("bcp.color");
        let (mut peak, mut load) = self.color_loads(&coloring)?;
        let achieved = baseline.map_or(peak.intervals_only, |_| peak.with_baseline);
        if achieved != lb && self.unit {
            return Err(BcpError::BoundNotMet {
                bound: lb,
                peak: achieved,
            });
        }
        if weighed && peak.with_baseline > lb {
            if let Some(improved) = self.exact_refine(lb, peak.with_baseline) {
                let improved = Coloring { colors: improved };
                let (improved_peak, improved_load) = self.color_loads(&improved)?;
                if improved_peak.with_baseline < peak.with_baseline {
                    (coloring, peak, load) = (improved, improved_peak, improved_load);
                }
            }
        }
        let solution = BcpSolution {
            coloring,
            lower_bound: lb,
            peak,
        };
        Ok((solution, load))
    }

    /// Bounded deterministic branch-and-bound over interval placements:
    /// seeded with `seed_peak` (the greedy result, strict upper bound)
    /// and cut off at `lb` (provably optimal when reached). Intervals
    /// are visited tightest-deadline first, ties by start, then walk
    /// order (an instance's index order within an end); the node budget
    /// and depth gate bound worst-case work, so large instances simply
    /// keep the greedy coloring. Entirely serial — identical at any
    /// thread count.
    fn exact_refine(&self, lb: u64, seed_peak: u64) -> Option<Vec<u32>> {
        const NODE_BUDGET: u64 = 2_000_000;
        const MAX_DEPTH: usize = 2_000;
        let k = self.len();
        if k == 0 || k > MAX_DEPTH || seed_peak <= lb {
            return None;
        }
        // Each interval in walk order: (start, end, load, slot).
        let mut items: Vec<(u32, u32, u64, usize)> = Vec::with_capacity(k);
        self.each(|r, s, e, g, i| {
            items.push((s, e as u32, self.weight(g.key(i)), self.slot(r, g, i)));
        });
        let mut order: Vec<u32> = (0..k as u32).collect();
        order.sort_unstable_by_key(|&r| {
            let (s, e, _, _) = items[r as usize];
            (e, s, r)
        });
        struct Search<'a> {
            items: &'a [(u32, u32, u64, usize)],
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
                let (start, end, w, slot) = self.items[self.order[depth] as usize];
                for t in start..=end {
                    if self.budget == 0 {
                        return;
                    }
                    self.budget -= 1;
                    let at = t as usize;
                    let new_load = self.load[at].saturating_add(w);
                    // Prune: this color would already match the best peak.
                    if new_load >= self.best_peak {
                        continue;
                    }
                    self.load[at] = new_load;
                    self.colors[slot] = t;
                    self.dfs(depth + 1, cur_peak.max(new_load));
                    self.load[at] = new_load - w;
                    if self.best_peak == self.lb {
                        return;
                    }
                }
            }
        }
        let mut search = Search {
            items: &items,
            order,
            // `load` carries the baseline, so per-color sums are the
            // true objective directly.
            load: self.baseline.to_vec(),
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

    /// The preference step after the solve: the slack shift of
    /// [`BcpInstance::shift_within_slack`] at the solution's achieved
    /// peak, over the `visits` in their order, from `load`, the
    /// per-color interval loads the solve verified for its coloring,
    /// then a verification of the shifted coloring.
    ///
    /// # Errors
    ///
    /// [`BcpError::InvalidColoring`] when the shifted coloring is
    /// malformed; [`BcpError::Overflow`] when verification overflows.
    pub(crate) fn shift_solution(
        &self,
        solution: &mut BcpSolution,
        mut load: Vec<u64>,
        visits: impl Iterator<Item = Visit>,
    ) -> Result<(), BcpError> {
        let peak = solution.peak.with_baseline;
        shift_toward(
            &mut solution.coloring.colors,
            &mut load,
            self.baseline,
            peak,
            visits,
        );
        solution.peak = self.color_loads(&solution.coloring)?.0;
        Ok(())
    }
}

/// [`BcpError::InvalidColoring`] unless `coloring` has `len` colors.
fn check_length(coloring: &Coloring, len: usize) -> Result<(), BcpError> {
    if coloring.colors.len() != len {
        return Err(BcpError::InvalidColoring(format!(
            "{} colors for {len} intervals",
            coloring.colors.len()
        )));
    }
    Ok(())
}

/// Adds `iv`'s load `w` to `color`'s, which must be inside `iv`.
fn charge(load: &mut [u64], iv: Interval, color: u32, w: u64) -> Result<(), BcpError> {
    if !iv.contains(color) {
        return Err(BcpError::InvalidColoring(format!(
            "interval {iv} colored {color}"
        )));
    }
    let slot = &mut load[color as usize];
    *slot = slot.checked_add(w).ok_or(BcpError::Overflow {
        what: "verified peak (load + baseline)",
    })?;
    Ok(())
}

/// The peaks of per-color interval loads over `baseline`.
fn peaks(load: &[u64], baseline: &[u64]) -> Result<VerifiedPeak, BcpError> {
    let intervals_only = load.iter().copied().max().unwrap_or(0);
    let mut with_baseline = baseline.iter().copied().max().unwrap_or(0);
    for (l, b) in load.iter().zip(baseline) {
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

/// [`BcpError::InvalidColoring`] when a coloring's verified peak is
/// above the shift budget `peak`.
fn check_budget(verified: VerifiedPeak, peak: u64) -> Result<(), BcpError> {
    if verified.with_baseline > peak {
        return Err(BcpError::InvalidColoring(format!(
            "verified peak {} exceeds shift budget {peak}",
            verified.with_baseline
        )));
    }
    Ok(())
}

/// Moves each visited interval `(slot, to, load)` of `colors`, whose
/// per-color interval loads are `load`, to the farthest color toward
/// `to` that still fits under `peak` over `baseline` (or leaves it).
fn shift_toward(
    colors: &mut [u32],
    load: &mut [u64],
    baseline: &[u64],
    peak: u64,
    visits: impl Iterator<Item = Visit>,
) {
    for (slot, to, w) in visits {
        let (cur, to) = (colors[slot] as usize, to as usize);
        load[cur] -= w;
        let fits = |t: &usize| baseline[*t].saturating_add(load[*t]).saturating_add(w) <= peak;
        let moved = if to > cur {
            (cur + 1..=to).rev().find(fits)
        } else {
            (to..cur).find(fits)
        };
        let chosen = moved.unwrap_or(cur);
        load[chosen] += w;
        colors[slot] = chosen as u32;
    }
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

    /// Whether color `t` is still open.
    fn is_open(&self, t: usize) -> bool {
        self.next[t] as usize == t
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

/// A unit pour at one peak, fed color by color as a scan closes the
/// intervals: each color takes its baseline as the scan learns it. Fed
/// every color, it answers [`ByEnd::feasible`]; stopped early, at its
/// first miss or at a baseline above the peak, it has already answered
/// `false`, since the rest of the walk comes after the colors fed.
pub(crate) struct Pour {
    open: OpenColors,
    peak: u64,
    /// The colors fed so far.
    fed: usize,
}

impl Pour {
    /// A pour at `peak` over `colors` colors, none fed yet.
    pub(crate) fn new(colors: usize, peak: u64) -> Pour {
        BCP_PROBES.add(1);
        Pour {
            open: OpenColors::new(colors, None, peak),
            peak,
            fed: 0,
        }
    }

    /// Feeds each color from the first not yet fed up to the last of
    /// `baseline`: its baseline, then the intervals of `chunks` that end
    /// at it, chunk by chunk — the walk of [`ByEnd::feasible`], whose
    /// placements up to a color depend on nothing after it. Every chunk
    /// must hold its groups up to that color. `false` at a baseline
    /// above the peak or at the first interval that finds no room.
    pub(crate) fn feed(&mut self, chunks: &[&EndGroups], baseline: &[u64]) -> bool {
        let open = &mut self.open;
        for (e, &b) in baseline.iter().enumerate().skip(self.fed) {
            let Some(room) = self.peak.checked_sub(b) else {
                return false;
            };
            open.room[e] = room;
            if room == 0 {
                open.next[e] = e as u32 + 1;
            }
            for g in chunks {
                for &start in &g.starts[g.by_end[e]..g.by_end[e + 1]] {
                    if open.place(start, e, 1, true).is_none() {
                        return false;
                    }
                }
            }
        }
        self.fed = baseline.len();
        true
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

/// How far a [witness](ByEnd::witness) widens its run each way, in run
/// lengths. On the seed-3 banded ledger input the first failed pour's
/// run, [1188, 1911], widens two run lengths to the window [1188, 2975]
/// that attains the bound; one run length takes a second failure.
const WITNESS_REACH: usize = 2;

/// The minimum peak at or above `lo` that `probe` accepts. A rejecting
/// probe returns a floor above its peak: every peak below the floor is
/// rejected too. Gallop to a bracket, probing `max(floor, p + step)`
/// after a rejection at `p` and doubling `step` (from 1), then bisect
/// the bracket `[floor, accepted]`. A monotone probe with certified
/// floors (a pour's witnesses) gives its minimum accepted peak — with
/// `lo` at most the true bound that bound, with `lo` above it `lo` — in
/// O(log gap) probes however small its floors. A monotone probe whose
/// rejections floor only `p + 1` (the blocking fit) runs the plain
/// gallop and bisection to its minimum accepted peak at or above `lo`.
/// Either way the result is the last peak accepted. A rejection at `u64::MAX` is
/// [`BcpError::Overflow`] naming `what`.
fn min_feasible_peak(
    lo: u64,
    what: &'static str,
    mut probe: impl FnMut(u64) -> Result<(), u64>,
) -> Result<u64, BcpError> {
    // Gallop to a bracket (bad, good]: `good` accepted, every peak up to
    // `bad` rejected.
    let (mut p, mut step, mut bad) = (lo, 1u64, None);
    let mut good = loop {
        match probe(p) {
            Ok(()) => break p,
            Err(_) if p == u64::MAX => return Err(BcpError::Overflow { what }),
            Err(floor) => {
                bad = Some(floor - 1);
                p = floor.max(p.saturating_add(step));
                step = step.saturating_mul(2);
            }
        }
    };
    let Some(mut bad) = bad else {
        // A monotone probe's `lo` never exceeds the true bound, which is
        // the minimum feasible peak — so feasibility at `lo` pins it.
        return Ok(lo);
    };
    while good - bad > 1 {
        let mid = bad + (good - bad) / 2;
        match probe(mid) {
            Ok(()) => good = mid,
            Err(floor) => bad = floor.min(good) - 1,
        }
    }
    Ok(good)
}

/// [`min_feasible_peak`] over probes `probe(p, colors)` that record
/// their placements into `colors`, which then holds the accepted
/// probe's placements at the returned peak. A failed probe writes over
/// them, so when the last probe failed, the probe at the peak runs
/// again: a probe is deterministic, so it places exactly as it did when
/// accepted (one that does not is [`BcpError::BoundNotMet`]). One
/// buffer, not a spare kept beside it: on glibc a freed spare the size
/// of the coloring lifts the allocator's mmap threshold, and a later
/// scan then grows its groups in per-thread arenas that keep their
/// pages.
fn recorded_search(
    lo: u64,
    what: &'static str,
    colors: &mut [u32],
    mut probe: impl FnMut(u64, &mut [u32]) -> Result<(), u64>,
) -> Result<u64, BcpError> {
    let mut last = Ok(());
    let peak = min_feasible_peak(lo, what, |p| {
        last = probe(p, colors);
        last
    })?;
    if last.is_err() {
        probe(peak, colors).map_err(|_| BcpError::BoundNotMet {
            bound: peak,
            peak: peak.saturating_add(1),
        })?;
    }
    Ok(peak)
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

    /// The intervals grouped by end and keyed by index: read in place
    /// when already in end order (the mapping's order), else
    /// counting-sorted by end, stably.
    fn groups(&self) -> EndGroups {
        let mut by_end = vec![0usize; self.num_colors + 1];
        for iv in &self.intervals {
            by_end[iv.end() as usize + 1] += 1;
        }
        for e in 1..by_end.len() {
            by_end[e] += by_end[e - 1];
        }
        if self.intervals.is_sorted_by_key(|iv| iv.end()) {
            let starts = self.intervals.iter().map(|iv| iv.start()).collect();
            return EndGroups {
                starts,
                by_end,
                ..EndGroups::default()
            };
        }
        let k = self.intervals.len();
        let mut next = by_end.clone();
        let (mut starts, mut keys) = (vec![0u32; k], vec![0u32; k]);
        for (i, iv) in self.intervals.iter().enumerate() {
            let r = next[iv.end() as usize];
            next[iv.end() as usize] += 1;
            starts[r] = iv.start();
            keys[r] = i as u32;
        }
        EndGroups {
            starts,
            by_end,
            keys,
            lefts: Vec::new(),
        }
    }

    /// The sweep input of this instance's `groups`, coloring by index.
    fn by_end<'a>(&'a self, groups: &'a EndGroups) -> ByEnd<'a> {
        ByEnd::with(
            std::slice::from_ref(groups),
            &self.baseline,
            &self.loads,
            true,
        )
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
        let groups = self.groups();
        self.by_end(&groups).certified_bound(None, None)
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
        let groups = self.groups();
        self.by_end(&groups)
            .certified_bound(Some(&self.baseline), None)
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
        let groups = self.groups();
        self.by_end(&groups).color_at(lb, None, false)
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
        let groups = self.groups();
        self.by_end(&groups)
            .color_at(peak, Some(&self.baseline), false)
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
        let groups = self.groups();
        self.by_end(&groups)
            .color_at(peak, Some(&self.baseline), true)
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
        Ok(self.color_loads(coloring)?.0)
    }

    /// [`BcpInstance::verify`] in instance order, with the per-color
    /// interval loads.
    fn color_loads(&self, coloring: &Coloring) -> Result<(VerifiedPeak, Vec<u64>), BcpError> {
        check_length(coloring, self.intervals.len())?;
        let mut load = vec![0u64; self.num_colors];
        for (i, (&iv, &color)) in self.intervals.iter().zip(&coloring.colors).enumerate() {
            charge(&mut load, iv, color, self.interval_load(i))?;
        }
        Ok((peaks(&load, &self.baseline)?, load))
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
        let (verified, mut load) = self.color_loads(coloring)?;
        check_budget(verified, peak)?;
        let visits = walk.filter_map(|i| {
            let iv = self.intervals[i];
            let to = match desire[i] {
                0 => return None,
                d if d > 0 => iv.end(),
                _ => iv.start(),
            };
            Some((i, to, self.interval_load(i)))
        });
        let mut colors = coloring.colors.clone();
        shift_toward(&mut colors, &mut load, &self.baseline, peak, visits);
        Ok(Coloring { colors })
    }

    /// The preference step of the library's DP-fill after the solve: the
    /// slack shift at the solution's achieved peak, visiting the
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
        let groups = self.groups();
        Ok(self.by_end(&groups).solve_with(opts.warm_lb)?.0)
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
        let groups = self.groups();
        Ok(self.by_end(&groups).solve(None, None)?.0)
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
    use proptest::prelude::*;

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
                let groups = inst.groups();
                let by_end = inst.by_end(&groups);
                let n = inst.intervals().len();
                let total = (0..n).fold(0u64, |t, i| t.saturating_add(inst.interval_load(i)));
                for with_baseline in [false, true] {
                    let load = |i| inst.interval_load(i);
                    assert_eq!(
                        by_end.ladder_best(true, with_baseline),
                        (ladder_per_level(&inst, load, with_baseline), total),
                        "c {c} k {k} loads <= {max_load} baseline < {max_base}"
                    );
                    assert_eq!(
                        by_end.ladder_best(false, with_baseline),
                        (ladder_per_level(&inst, |_| 1, with_baseline), n as u64)
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
        let groups = inst.groups();
        let (best, total) = inst.by_end(&groups).ladder_best(true, true);
        assert_eq!((best, total), (u64::MAX, u64::MAX));
        assert_eq!(best, ladder_per_level(&inst, load, true));
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
                        EndGroups {
                            starts,
                            by_end,
                            ..EndGroups::default()
                        }
                    })
                    .collect();
                let bound = ByEnd::new(&groups, &baseline, None);
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

    /// The fold [`IncrementalBound::current`] keeps, taken afresh:
    /// every level's windows summed from their two halves.
    fn fresh_fold(ladder: &IncrementalBound) -> u64 {
        let at = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
        let mut best = 0u64;
        let mut below: Vec<u64> = Vec::new();
        for (l, own) in ladder.levels.iter().enumerate() {
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

    #[test]
    fn incremental_fold_matches_a_fresh_fold_after_every_add() {
        let mut seed = 0xF01Du64;
        let mut next = |m: u64| {
            seed = seed
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(0x14057B7EF767814F);
            (seed >> 33) % m
        };
        // Loads, forced loads and window deltas land anywhere, in any
        // order, and heavy ones saturate the coarse levels; reads come
        // after every add, or only now and then.
        for (colors, max_load, every) in [
            (1u64, 3u64, 1u64),
            (9, 3, 1),
            (300, 5, 1),
            (5000, 2, 1),
            (5000, 2, 7),
            (300, u64::MAX / 3, 1),
        ] {
            let mut ladder = IncrementalBound::new();
            for step in 0..600u64 {
                let hi = next(colors) as usize;
                let lo = hi - next(hi as u64 + 1) as usize;
                match next(3) {
                    0 => ladder.add_load(lo, hi, 1 + next(max_load)),
                    1 => ladder.add_baseline(hi, 1 + next(max_load)),
                    _ => {
                        let mut delta = LadderDelta::new(lo);
                        for _ in 0..next(6) {
                            let end = lo + next((colors - lo as u64).min(40)) as usize;
                            delta.add_unit(end - next(end as u64 + 1) as usize, end);
                        }
                        ladder.absorb(delta);
                    }
                }
                if step % every == 0 {
                    assert_eq!(
                        ladder.current(),
                        fresh_fold(&ladder),
                        "{colors} colors, step {step}"
                    );
                }
            }
            assert_eq!(ladder.current(), fresh_fold(&ladder), "{colors} colors");
        }
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

    /// Algorithm 1's bound of `inst` by the `dpfill-oracle` row DP: at
    /// the instance's loads over its baseline, or at unit loads with no
    /// baseline (the paper's problem). `None` when the DP overflows.
    fn oracle_bound(inst: &BcpInstance, paper: bool) -> Option<u64> {
        let intervals: Vec<(u32, u32, u64)> = (inst.intervals.iter().enumerate())
            .map(|(i, iv)| {
                let load = if paper { 1 } else { inst.interval_load(i) };
                (iv.start(), iv.end(), load)
            })
            .collect();
        let zeros = vec![0; inst.num_colors];
        let baseline = if paper { &zeros } else { &inst.baseline };
        dpfill_oracle::window_bound_dp(baseline, &intervals).ok()
    }

    /// The weighted solve's peak search written out: a gallop from `lb`
    /// by doubling steps, then a bisection, over blocking sweeps.
    fn blocking_target(inst: &BcpInstance, lb: u64) -> u64 {
        let fits = |p| inst.color_edf_weighted(p).is_ok();
        if fits(lb) {
            return lb;
        }
        let (mut bad, mut step) = (lb, 1u64);
        let mut good = loop {
            let p = bad + step;
            if fits(p) {
                break p;
            }
            (bad, step) = (p, 2 * step);
        };
        while good - bad > 1 {
            let mid = bad + (good - bad) / 2;
            if fits(mid) {
                good = mid;
            } else {
                bad = mid;
            }
        }
        good
    }

    /// The peaks of `from..to`: all of them, or both ends of a long range.
    fn peaks_below(from: u64, to: u64) -> Vec<u64> {
        if to.saturating_sub(from) <= 64 {
            (from..to).collect()
        } else {
            (from..from + 32).chain(to - 32..to).collect()
        }
    }

    /// Every pour probe below the bound fails with a witness floor in
    /// `(peak, bound]`, and the solves color like the fit sweeps at
    /// their targets: `color_edf` at the bound on unit loads,
    /// `color_edf_weighted` at the blocking target on weighted ones.
    fn assert_witnessed(inst: &BcpInstance) {
        let groups = inst.groups();
        let by_end = inst.by_end(&groups);
        let max_base = inst.baseline.iter().copied().max().unwrap_or(0);
        let general = (Some(inst.baseline()), !inst.is_unit(), max_base);
        for (baseline, weighed, from) in [general, (None, false, 0)] {
            let Some(bound) = oracle_bound(inst, baseline.is_none()) else {
                continue;
            };
            for peak in peaks_below(from, bound) {
                match by_end.pour(baseline, peak, weighed) {
                    Err(floor) => assert!(
                        peak < floor && floor <= bound,
                        "floor {floor} at peak {peak}, bound {bound}: {inst:?}"
                    ),
                    Ok(()) => panic!("pour at {peak} below bound {bound}: {inst:?}"),
                }
            }
            assert_eq!(by_end.pour(baseline, bound, weighed), Ok(()), "{inst:?}");
        }
        let sol = inst.solve().unwrap();
        if inst.is_unit() {
            assert_eq!(Ok(sol.coloring), inst.color_edf(sol.lower_bound));
        } else {
            let target = blocking_target(inst, sol.lower_bound);
            let greedy = inst.color_edf_weighted(target).unwrap();
            let what = "weighted BCP peak (exceeds u64)";
            let searched =
                by_end.colored_search(sol.lower_bound, what, Some(&inst.baseline), true, false);
            assert_eq!(searched, Ok((target, greedy.clone())), "{inst:?}");
            // The bounded exact search may only ever improve on it.
            if sol.coloring != greedy {
                let greedy_peak = inst.verify(&greedy).unwrap().with_baseline;
                assert!(sol.peak.with_baseline < greedy_peak, "{inst:?}");
            }
        }
        let paper = inst.solve_paper().unwrap();
        assert_eq!(
            Ok(paper.coloring),
            inst.color_greedy_paper(paper.lower_bound)
        );
    }

    /// Unit or weighted instances over up to 47 colors with baselines,
    /// short intervals and long ones.
    fn arb_instance() -> impl Strategy<Value = BcpInstance> {
        (1u32..48, 0u64..6, any::<bool>()).prop_flat_map(|(colors, base_max, weighted)| {
            let span = prop_oneof![0u32..4, 0..colors];
            let load = if weighted { 1u64..10 } else { 1..2 };
            let intervals = proptest::collection::vec((0..colors, span, load), 0..80);
            let baseline = proptest::collection::vec(0..=base_max, colors as usize);
            (intervals, baseline).prop_map(move |(ivs, baseline)| {
                let mut inst = BcpInstance::new(colors as usize);
                for (start, span, load) in ivs {
                    let end = (start + span).min(colors - 1);
                    inst.add_weighted_interval(Interval::new(start, end), load)
                        .unwrap();
                }
                inst.set_baseline(baseline).unwrap();
                inst
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn failed_pours_witness_floors_up_to_the_bound(inst in arb_instance()) {
            assert_witnessed(&inst);
        }
    }

    #[test]
    fn a_recorded_search_keeps_the_accepted_placements() {
        // A monotone probe accepting from `target` whose failures floor
        // only one above their peak, so the search bisects, and often
        // ends on a failure after the accepted probe at the target.
        // Every probe writes its peak over a prefix that grows with it.
        let mut repoured = 0;
        for target in 0..70u64 {
            for lo in [0, target / 3, target] {
                let mut colors = [u32::MAX; 8];
                // The search never probes a peak twice; the re-run does.
                let mut at_target = 0;
                let found = recorded_search(lo, "test", &mut colors, |p, colors| {
                    at_target += usize::from(p == target);
                    let reach = (p as usize % 7 + 2).min(colors.len());
                    colors[..reach].fill(p as u32);
                    if p < target {
                        return Err(p + 1);
                    }
                    colors.fill(p as u32);
                    Ok(())
                });
                assert_eq!(found, Ok(target), "target {target} from {lo}");
                assert_eq!(colors, [target as u32; 8], "target {target} from {lo}");
                repoured += usize::from(at_target > 1);
            }
        }
        assert!(repoured > 0, "no search ended on a failed probe");
    }

    #[test]
    fn saturating_loads_search_in_logarithmic_probes() {
        let mut seed = 0x5A7u64;
        let mut next = |m: u64| {
            seed = seed
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(0x14057B7EF767814F);
            (seed >> 33) % m
        };
        // 2·⌈log2 gap⌉ + 4.
        let budget = |gap: u64| 2 * (64 - gap.saturating_sub(1).leading_zeros()) + 4;
        // The search with its probe count; one that crawls fails here
        // rather than running on.
        let counted = |lo, what, probe: &mut dyn FnMut(u64) -> Result<(), u64>| {
            let mut probes = 0;
            let found = min_feasible_peak(lo, what, |p| {
                probes += 1;
                assert!(probes <= budget(u64::MAX), "crawling from {lo}");
                probe(p)
            });
            (found, probes)
        };
        let (mut bounded, mut gapped) = (0, 0);
        // The shape of the sweep suite's random instances: up to 11
        // colors, 15 intervals and baselines below 5, with loads near
        // u64::MAX / 4, so a few intervals saturate a window.
        for case in 0..3000 {
            let colors = 1 + next(11) as u32;
            let mut inst = BcpInstance::new(colors as usize);
            for _ in 0..next(16) {
                let start = next(u64::from(colors)) as u32;
                let end = start + next(u64::from(colors - start)) as u32;
                let load = match next(4) {
                    0 => 1 + next(7),
                    _ => u64::MAX / 4 - next(8),
                };
                inst.add_weighted_interval(Interval::new(start, end), load)
                    .unwrap();
            }
            inst.set_baseline((0..colors).map(|_| next(5)).collect())
                .unwrap();
            let groups = inst.groups();
            let by_end = inst.by_end(&groups);
            let (baseline, weighed) = (Some(inst.baseline()), !inst.is_unit());
            let (lo, what) = by_end.bound_start(baseline, None);
            let (lb, probes) = counted(lo, what, &mut |p| by_end.pour(baseline, p, weighed));
            let Ok(lb) = lb else {
                assert!(
                    probes <= budget(u64::MAX - lo),
                    "case {case}: {probes} probes"
                );
                continue;
            };
            assert!(
                probes <= budget(lb - lo),
                "case {case}: {probes} probes from {lo} to {lb}"
            );
            if let Some(bound) = oracle_bound(&inst, false) {
                assert_eq!(lb, bound, "case {case}");
                bounded += 1;
            }
            // The blocking search: monotone, but its failures floor only
            // `p + 1`.
            let (target, probes) = counted(lb, what, &mut |p| {
                by_end.probe(baseline, p, true, false, |_, _| {})
            });
            let gap = target.unwrap_or(u64::MAX) - lb;
            gapped += usize::from(gap > 1 << 40);
            assert!(
                probes <= budget(gap),
                "case {case}: {probes} probes over {gap}"
            );
        }
        assert!(
            bounded > 100 && gapped > 100,
            "{bounded} bounded, {gapped} gapped"
        );
    }

    /// Seeded weighted instances with at least one interval (1–10
    /// colors, 1–13 intervals, loads 1–40, baselines 0–3), each with its
    /// fractional bound lb and its largest load w_max.
    fn weighted_cases(count: usize) -> Vec<(BcpInstance, u64, u64)> {
        let mut seed = 0xB10Cu64;
        let mut next = |m: u64| {
            seed = seed
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(0x1405_7B7E_F767_814F);
            (seed >> 33) % m
        };
        (0..count)
            .map(|_| {
                let colors = 1 + next(10) as u32;
                let mut inst = BcpInstance::new(colors as usize);
                let mut w_max = 0;
                for _ in 0..1 + next(13) {
                    let start = next(u64::from(colors)) as u32;
                    let end = start + next(u64::from(colors - start)) as u32;
                    let load = 1 + next(40);
                    w_max = w_max.max(load);
                    inst.add_weighted_interval(Interval::new(start, end), load)
                        .unwrap();
                }
                inst.set_baseline((0..colors).map(|_| next(4)).collect())
                    .unwrap();
                let lb = inst.lower_bound().unwrap();
                (inst, lb, w_max)
            })
            .collect()
    }

    #[test]
    fn blocking_fits_stay_feasible_above_their_first_success() {
        // No fit succeeds below lb, a true lower bound, so the scan
        // starts there.
        let mut above_lb = 0;
        for (case, (inst, lb, w_max)) in weighted_cases(4000).into_iter().enumerate() {
            let mut first = None;
            for peak in lb..=lb + w_max + 3 {
                let fits = inst.color_edf_weighted(peak).is_ok();
                match first {
                    Some(f) => assert!(fits, "case {case}: fits at {f}, misses at {peak}"),
                    None if fits => first = Some(peak),
                    None => {}
                }
            }
            above_lb += usize::from(first.is_some_and(|f| f > lb));
        }
        assert!(above_lb > 100, "{above_lb} cases first fit above lb");
    }

    #[test]
    fn a_blocking_fit_at_lb_plus_w_max_minus_one_never_misses() {
        for (case, (inst, lb, w_max)) in weighted_cases(4000).into_iter().enumerate() {
            let peak = lb + w_max - 1;
            let coloring = inst
                .color_edf_weighted(peak)
                .unwrap_or_else(|e| panic!("case {case}: {e:?} at {peak}"));
            assert!(inst.verify(&coloring).unwrap().with_baseline <= peak);
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

/// The in-place solve of an analysis against the public instance its
/// stretches expand to: wide sets scan as several chunks, fed window by
/// window, under unit and weighted loads and a fill-value preference.
#[cfg(test)]
mod in_place {
    use dpfill_cubes::gen::random_cube_set;
    use dpfill_cubes::Bit;
    use proptest::prelude::*;

    use super::*;
    use crate::mapping::shift_preferred;
    use crate::stream::analyze::{Analyzer, Keep};

    /// The instance's colors listed in walk order through `walk_of`, the
    /// walk position of each instance interval.
    fn walk_colors(coloring: &Coloring, walk_of: &[usize]) -> Vec<u32> {
        let mut colors = vec![u32::MAX; walk_of.len()];
        for (j, &r) in walk_of.iter().enumerate() {
            colors[r] = coloring.colors()[j];
        }
        colors
    }

    fn check(width: usize, count: usize, density: f64, seed: u64, window: usize, loads: u8) {
        let cubes = random_cube_set(width, count, density, seed);
        let weights: Option<Vec<u64>> =
            (loads > 0).then(|| (0..width as u64).map(|p| 1 + (p * 7 + seed) % 5).collect());
        let preferred: Option<Vec<Bit>> = (loads == 2).then(|| {
            (0..width)
                .map(|p| [Bit::Zero, Bit::One, Bit::X][(p + seed as usize) % 3])
                .collect()
        });
        let keep = if loads == 2 { Keep::Lefts } else { Keep::Pins };
        let mut analyzer = Analyzer::new(width, weights.clone(), keep);
        for w in cubes.as_packed().cubes().chunks(window) {
            analyzer.ingest(w);
        }
        let a = analyzer.finish();
        assert!(a.chunks.len() > 1, "{} chunk", a.chunks.len());
        let stretches = a.by_end(weights.as_deref());
        // The expanded instance lists the stretches by (pin, start): the
        // instance sorts them back by end, and within an end its index
        // order is the walk's pin order. Stretches match by (end, pin).
        let mut sites: Vec<(u32, u32, u32, usize)> = (stretches.intervals().enumerate())
            .map(|(r, (start, end, g, i))| (g.keys[i], start, end as u32, r))
            .collect();
        sites.sort_unstable();
        let mut inst = BcpInstance::new(a.baseline.len());
        inst.set_baseline(a.baseline.clone()).unwrap();
        for &(pin, start, end, _) in &sites {
            let w = weights.as_ref().map_or(1, |w| w[pin as usize]);
            inst.add_weighted_interval(Interval::new(start, end), w)
                .unwrap();
        }
        let walk_of: Vec<usize> = sites.iter().map(|s| s.3).collect();
        let opts = SolveOptions {
            warm_lb: Some(a.warm_lb),
        };
        let solved = (stretches.solve_with(opts.warm_lb), inst.solve_with(&opts));
        let ((mut got, load), mut want) = match solved {
            (Ok(got), Ok(want)) => (got, want),
            (got, want) => {
                assert_eq!(got.err(), want.err());
                return;
            }
        };
        assert_eq!(got.lower_bound, want.lower_bound);
        assert_eq!(got.peak, want.peak);
        assert_eq!(got.coloring.colors(), walk_colors(&want.coloring, &walk_of));
        // Below the bound the sweeps miss the same deadline.
        if let Some(peak) = got.lower_bound.checked_sub(1) {
            let weighed = !stretches.unit;
            let below = stretches.color_at(peak, Some(&a.baseline), weighed);
            let expected = match weighed {
                true => inst.color_edf_weighted(peak),
                false => inst.color_edf(peak),
            };
            match (below, expected) {
                (Ok(got), Ok(want)) => {
                    assert_eq!(got.colors(), walk_colors(&want, &walk_of))
                }
                (got, want) => assert_eq!(got.err(), want.err()),
            }
        }
        if let Some(preferred) = preferred {
            shift_preferred(&stretches, &mut got, load, &preferred).unwrap();
            let desire: Vec<i8> = (sites.iter())
                .map(|&(pin, _, _, r)| {
                    let (_, _, g, i) = stretches.intervals().nth(r).unwrap();
                    match preferred[pin as usize] {
                        Bit::X => 0,
                        p if p == Bit::from_bool(g.lefts[i]) => 1,
                        _ => -1,
                    }
                })
                .collect();
            let walk: Vec<u32> = (0..sites.len() as u32).collect();
            inst.shift_solution(&mut want, &desire, &walk).unwrap();
            assert_eq!(got.peak, want.peak);
            assert_eq!(got.coloring.colors(), walk_colors(&want.coloring, &walk_of));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn in_place_solve_matches_the_expanded_instance(
            width in 1024usize..1400,
            count in 2usize..40,
            density in 0usize..4,
            seed in 0u64..u64::MAX,
            window in 0usize..3,
            threads in 0usize..2,
            loads in 0u8..3,
        ) {
            let (window, density) = ([1, 7, count][window], [0.2, 0.5, 0.75, 0.95][density]);
            let pool = minipool::ThreadPool::new([4, 8][threads]);
            minipool::with_pool(&pool, || check(width, count, density, seed, window, loads));
        }
    }
}
