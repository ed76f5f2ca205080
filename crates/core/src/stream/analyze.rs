//! The one analyzer of both pipelines: a cube-major scan of the packed
//! cubes, 64 pins at a time, with no transpose.
//!
//! Each 64-pin word carries a [`WordState`]: the previous cube's care
//! plane `P`, the copy-left plane `L` (each pin's last care value), the
//! seen plane `S`, each pin's first care value and run start. At cube
//! `t` with care plane `C` and value plane `V`, the pins of
//! `C & !P & S & (V ^ L)` close a `v X…X w` stretch, the BCP interval
//! (run start, `t − 1`); `C & P & (V ^ L)` are forced toggles on
//! transition `t − 1`; and `P & !C` open an `X`-run at `t − 1`. Every
//! other `X` is safe: the fill copies the care value to its left.
//!
//! Pin words fan out over the current [`minipool`] pool in contiguous
//! [`ChunkScan`]s, fixed at the first window. Each chunk carries its word
//! states across windows, so a stretch spanning any number of windows
//! closes exactly as if the set were resident, and it appends each
//! stretch it closes to its own [`EndGroups`]: the start, grouped by end,
//! and the pin (ascending within an end). Walked end by end, and chunk by
//! chunk within an end, the groups are in `(end, pin)` order — the order
//! every BCP sweep walks — so the solve reads them in place
//! ([`ByEnd`](crate::bcp::ByEnd)) at any thread count and windowing.
//! Each chunk feeds its stretches to its own [`LadderDelta`] on the pool.
//!
//! [`Analyzer`] runs the chunks window by window for both pipelines (and
//! [`MatrixMapping`](crate::MatrixMapping), which expands the groups
//! into a public instance); the I-ordering's candidate scans run
//! [`ChunkScan`]s over the cubes in candidate order.

use std::ops::Range;

use dpfill_cubes::packed::PackedBits;

use crate::bcp::{ByEnd, EndGroups, IncrementalBound, LadderDelta, BCP_LADDER_LOADS};
use crate::mapping::Flips;

/// The scan state of one 64-pin word, carried from cube to cube and
/// across windows.
#[derive(Clone, Copy)]
pub(crate) struct WordState {
    /// `P`: the previous cube's care plane.
    prev: u64,
    /// `L`: each pin's last care value.
    left: u64,
    /// `S`: the pins that have carried a care bit.
    seen: u64,
    /// Each pin's first care value.
    first: u64,
    /// Each pin's run start: the cube of the care bit left of its
    /// current `X`-run.
    runs: [u32; 64],
}

impl WordState {
    /// The state before the first cube.
    pub const EMPTY: WordState = WordState {
        prev: 0,
        left: 0,
        seen: 0,
        first: 0,
        runs: [0; 64],
    };
}

/// What the scan keeps of each closed stretch. Every stretch feeds the
/// analyzer's unit ladder whatever is kept.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Keep {
    /// Nothing: MT-fill's plan reads only the first care values.
    Nothing,
    /// Its start, grouped by end: what a candidate order's bound reads.
    Starts,
    /// Its start and pin: what DP-fill's solve and fill read.
    Pins,
    /// Its start, pin and left care value (for a fill-value
    /// preference's shift).
    Lefts,
}

/// What one chunk's scan of a run of cubes found besides its stretches.
pub(crate) struct Tally {
    /// Forced toggles per transition of the run, unit and weighed by the
    /// weights.
    forced: Vec<u32>,
    weighted: Vec<u64>,
    /// A weighted sum left `u64`.
    overflow: bool,
    /// Stretches closed.
    stretches: u64,
}

/// One chunk of pin words: each word's scan state, and the stretches it
/// closed, grouped by end.
pub(crate) struct ChunkScan {
    /// The chunk's first pin word.
    w0: usize,
    words: Vec<WordState>,
    groups: EndGroups,
}

impl ChunkScan {
    /// The chunk of pin words `words`, before the first cube.
    pub(crate) fn new(words: Range<usize>) -> ChunkScan {
        ChunkScan {
            w0: words.start,
            words: vec![WordState::EMPTY; words.len()],
            groups: EndGroups::default(),
        }
    }

    /// Scans `cubes`, whose first is cube `t0` of the set (see the module
    /// docs), appending what `keep` asks of each closed stretch to the
    /// groups, feeding each to `ladder` and weighing forced toggles by
    /// `weights`. Transition `t − 1` ends at cube `t`, so the run's
    /// transitions start at `t0 − 1` (at 0 when `t0` is 0: the first cube
    /// has none).
    pub(crate) fn scan<'a>(
        &mut self,
        cubes: impl Iterator<Item = &'a PackedBits>,
        t0: usize,
        keep: Keep,
        weights: Option<&[u64]>,
        mut ladder: Option<&mut LadderDelta>,
    ) -> Tally {
        let mut tally = Tally {
            forced: Vec::new(),
            weighted: Vec::new(),
            overflow: false,
            stretches: 0,
        };
        let (span, g) = (self.w0..self.w0 + self.words.len(), &mut self.groups);
        for (t, cube) in (t0..).zip(cubes) {
            let care = &cube.care_words()[span.clone()];
            let value = &cube.value_words()[span.clone()];
            // Nothing below fires at t = 0: `P` and `S` are still empty.
            let at = (t as u32).wrapping_sub(1);
            let (mut toggles, mut weighted) = (0u32, 0u64);
            for (w, st) in self.words.iter_mut().enumerate() {
                let (c, v, p) = (care[w], value[w], st.prev);
                let flips = v ^ st.left;
                let mut closes = c & !p & st.seen & flips;
                tally.stretches += u64::from(closes.count_ones());
                while closes != 0 {
                    let b = closes.trailing_zeros();
                    let start = st.runs[b as usize];
                    if let Some(ladder) = ladder.as_deref_mut() {
                        ladder.add_unit(start as usize, at as usize);
                    }
                    if keep >= Keep::Starts {
                        g.starts.push(start);
                    }
                    if keep >= Keep::Pins {
                        g.keys.push(((span.start + w) * 64) as u32 + b);
                    }
                    if keep == Keep::Lefts {
                        g.lefts.push(st.left >> b & 1 == 1);
                    }
                    closes &= closes - 1;
                }
                let mut opens = p & !c;
                while opens != 0 {
                    st.runs[opens.trailing_zeros() as usize] = at;
                    opens &= opens - 1;
                }
                let forced = c & p & flips;
                toggles += forced.count_ones();
                if let Some(weights) = weights {
                    let mut bits = forced;
                    while bits != 0 {
                        let pin = (span.start + w) * 64 + bits.trailing_zeros() as usize;
                        tally.overflow |= weighted.checked_add(weights[pin]).is_none();
                        weighted = weighted.saturating_add(weights[pin]);
                        bits &= bits - 1;
                    }
                }
                st.first |= v & c & !st.seen;
                st.left = (st.left & !c) | v;
                st.seen |= c;
                st.prev = c;
            }
            if t > 0 {
                if keep >= Keep::Starts {
                    g.by_end.push(g.starts.len());
                }
                tally.forced.push(toggles);
                if weights.is_some() {
                    tally.weighted.push(weighted);
                }
            }
        }
        tally
    }
}

impl ChunkScan {
    /// Appends the starts of the stretches closed from here on to
    /// `starts`, cleared: a buffer another scan is done with.
    pub(crate) fn grow_starts_in(&mut self, mut starts: Vec<u32>) {
        starts.clear();
        self.groups.starts = starts;
    }

    /// The stretches closed so far, grouped by end.
    pub(crate) fn groups(&self) -> &EndGroups {
        &self.groups
    }

    /// Each word's first care values, and the groups.
    pub(crate) fn into_parts(self) -> (impl Iterator<Item = u64>, EndGroups) {
        (self.words.into_iter().map(|w| w.first), self.groups)
    }
}

/// The chunks of a scan over `width` pins: at least 8 words a chunk, so
/// each cube hands a chunk one whole 64-byte line of each plane, split
/// over the current pool.
pub(crate) fn chunks(width: usize) -> Vec<ChunkScan> {
    minipool::parallel_index_chunks(width.div_ceil(64), 8, ChunkScan::new)
}

/// The forced toggles of the chunks' `tallies` of one run, summed per
/// transition: unit, and in objective units when `weighted` (else
/// empty). Flags a weighted sum that leaves `u64`.
pub(crate) fn forced_totals(tallies: &[Tally], weighted: bool) -> (Vec<u64>, Vec<u64>, bool) {
    let transitions = tallies.first().map_or(0, |t| t.forced.len());
    let mut overflow = tallies.iter().any(|t| t.overflow);
    let (mut unit, mut objective) = (vec![0u64; transitions], Vec::new());
    for t in tallies {
        for (total, &n) in unit.iter_mut().zip(&t.forced) {
            *total += u64::from(n);
        }
    }
    if weighted {
        objective = vec![0u64; transitions];
        for t in tallies {
            for (total, &w) in objective.iter_mut().zip(&t.weighted) {
                overflow |= total.checked_add(w).is_none();
                *total = total.saturating_add(w);
            }
        }
    }
    (unit, objective, overflow)
}

/// Everything the analysis learned about the full set.
#[derive(Default)]
pub(crate) struct Analysis {
    /// Each transition stretch as an interval, per chunk of pin words,
    /// grouped by end (no chunk when nothing is kept).
    pub chunks: Vec<EndGroups>,
    /// Forced toggles per transition, in objective units under weights.
    pub baseline: Vec<u64>,
    /// Total columns (cubes) analyzed.
    pub cols: usize,
    /// Bit `r` is pin `r`'s first care value (zero for an all-`X` pin).
    pub first_values: Vec<u64>,
    /// A certified unit-load bound: a warm start for the solve, the unit
    /// bound itself and below a weighted one. The analyzer's ladder
    /// bound, or the I-ordering's certified value of its winning order.
    pub warm_lb: u64,
    /// A weighted baseline sum left `u64` (a typed error upstream).
    pub overflow: bool,
}

impl Analysis {
    /// The solve's sweep input: the stretches over the baseline, each
    /// weighing `weights[pin]` (unit when `None`).
    pub fn by_end<'a>(&'a self, weights: Option<&'a [u64]>) -> ByEnd<'a> {
        ByEnd::new(&self.chunks, &self.baseline, weights)
    }

    /// The number of stretches kept.
    pub fn stretches(&self) -> usize {
        self.chunks
            .iter()
            .map(|g| g.by_end[g.by_end.len() - 1])
            .sum()
    }

    /// Each stretch's pin, in walk order (reads no start).
    pub fn pins(&self) -> impl Iterator<Item = u32> + '_ {
        let chunks = &self.chunks;
        (0..self.baseline.len()).flat_map(move |e| {
            (chunks.iter()).flat_map(move |g| g.keys[g.by_end[e]..g.by_end[e + 1]].iter().copied())
        })
    }
}

/// A finished analysis, its stretches to solve or already colored.
pub(crate) enum Analyzed {
    /// The stretches, for the plan to solve.
    Stretches(Analysis),
    /// Colored by the I-ordering's certification of its winning order.
    Colored(Colored),
}

impl Analyzed {
    /// The number of stretches.
    pub fn stretches(&self) -> usize {
        match self {
            Analyzed::Stretches(analysis) => analysis.stretches(),
            Analyzed::Colored(colored) => colored.analysis.stretches(),
        }
    }
}

/// An analysis with its stretches colored, in walk order: all a fill
/// plan's flips read is each stretch's pin and color. Coloring drops
/// the starts and left values, so the analysis inside is no solve input
/// and nothing outside reaches it.
pub(crate) struct Colored {
    analysis: Analysis,
    colors: Vec<u32>,
}

impl Colored {
    /// `analysis` with its stretches colored `colors`, in walk order, and
    /// its start buffers, chunk by chunk, for a later scan to grow its
    /// own in.
    pub fn new(mut analysis: Analysis, colors: Vec<u32>) -> (Colored, Vec<Vec<u32>>) {
        let starts = (analysis.chunks.iter_mut())
            .map(|g| {
                g.lefts = Vec::new();
                std::mem::take(&mut g.starts)
            })
            .collect();
        (Colored { analysis, colors }, starts)
    }

    /// Each pin's first care value (see [`Analysis::first_values`]) and
    /// the flips of the coloring.
    pub fn into_flips(self) -> (Vec<u64>, Flips) {
        let a = self.analysis;
        let flips = Flips::new(a.pins(), &self.colors, a.baseline.len());
        (a.first_values, flips)
    }

    /// The coloring, in walk order.
    #[cfg(test)]
    pub fn colors(&self) -> &[u32] {
        &self.colors
    }

    /// The analysis, its starts dropped.
    #[cfg(test)]
    pub fn analysis(&self) -> &Analysis {
        &self.analysis
    }
}

/// The analyzer: feed windows left to right, then
/// [`Analyzer::finish`].
pub(crate) struct Analyzer {
    width: usize,
    /// The pin-word chunks, fixed at the first window.
    chunks: Vec<ChunkScan>,
    /// What the windows so far found besides the stretches.
    out: Analysis,
    /// Per-pin weights of the forced baseline (`None`: unit).
    weights: Option<Vec<u64>>,
    keep: Keep,
    /// The online unit-load ladder (see [`Analysis::warm_lb`]).
    bound: IncrementalBound,
}

impl Analyzer {
    /// An analyzer of `width` pins charging `weights[pin]` per forced
    /// toggle (`None`: the unit metric; the running bound counts unit
    /// loads either way), keeping what `keep` asks of each stretch.
    pub fn new(width: usize, weights: Option<Vec<u64>>, keep: Keep) -> Analyzer {
        if let Some(w) = &weights {
            assert_eq!(w.len(), width, "weight table width mismatch");
        }
        Analyzer {
            width,
            chunks: Vec::new(),
            out: Analysis::default(),
            weights,
            keep,
            bound: IncrementalBound::new(),
        }
    }

    /// Ingests the next window of cubes: columns `[self.cols,
    /// self.cols + cubes.len())`.
    ///
    /// # Panics
    ///
    /// Panics beyond `u32::MAX` cubes, the analysis's column range.
    pub fn ingest(&mut self, cubes: &[PackedBits]) {
        let t0 = self.out.cols;
        assert!(
            t0 + cubes.len() <= u32::MAX as usize,
            "the analysis supports at most 2^32 - 1 cubes"
        );
        if self.chunks.is_empty() {
            self.chunks = chunks(self.width);
        }
        // The window's transitions start here: one per cube after the
        // set's first.
        let first = t0.saturating_sub(1);
        let (keep, weights) = (self.keep, self.weights.as_deref());
        let found: Vec<(Tally, LadderDelta)> =
            minipool::parallel_chunks_mut(&mut self.chunks, 1, |_, chunks| {
                let scans = chunks.iter_mut().map(|ch| {
                    let mut ladder = LadderDelta::new(first);
                    let tally = ch.scan(cubes.iter(), t0, keep, weights, Some(&mut ladder));
                    (tally, ladder)
                });
                scans.collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
        let out = &mut self.out;
        out.cols = t0 + cubes.len();
        let mut loads = 0u64;
        let mut tallies = Vec::with_capacity(found.len());
        for (tally, ladder) in found {
            self.bound.absorb(ladder);
            loads += tally.stretches;
            tallies.push(tally);
        }
        let transitions = cubes.len() - usize::from(t0 == 0 && !cubes.is_empty());
        let (mut unit, weighted, overflow) = forced_totals(&tallies, weights.is_some());
        // A set of no pin words closes nothing, yet has its transitions.
        unit.resize(transitions, 0);
        out.overflow |= overflow;
        for (i, &n) in unit.iter().enumerate() {
            if n != 0 {
                self.bound.add_baseline(first + i, n);
            }
            loads += n;
        }
        out.baseline
            .extend(if weights.is_some() { weighted } else { unit });
        BCP_LADDER_LOADS.add(loads);
    }

    /// The running unit-load ladder bound over everything ingested so
    /// far, under any objective: the banded I-ordering's warm bound for
    /// the frozen prefix, in the unit bottlenecks that search compares.
    pub fn warm_bound(&mut self) -> u64 {
        self.bound.current()
    }

    /// Bytes held by the analysis — the content-driven resident cost
    /// the memory-budget governor charges after each window: 8 B per
    /// stretch (its start and pin, plus 1 B of left value under a
    /// preference), per chunk 8 B of by-end offset per transition, 8 B of
    /// baseline per transition, the per-word states, the weights and the
    /// incremental-bound ladder. Grows with the input's transition
    /// stretches and its length, not with its safe runs or the window
    /// size.
    pub fn event_bytes(&self) -> u64 {
        use std::mem::size_of;
        let chunks: usize = (self.chunks.iter())
            .map(|ch| {
                let g = &ch.groups;
                g.starts.len() * size_of::<u32>()
                    + g.keys.len() * size_of::<u32>()
                    + g.lefts.len() * size_of::<bool>()
                    + g.by_end.len() * size_of::<usize>()
                    + ch.words.len() * size_of::<WordState>()
            })
            .sum();
        (chunks
            + self.out.baseline.len() * size_of::<u64>()
            + self
                .weights
                .as_ref()
                .map_or(0, |w| w.len() * size_of::<u64>())) as u64
            + self.bound.approx_bytes()
    }

    /// Returns the full analysis.
    pub fn finish(mut self) -> Analysis {
        let (out, keep) = (&mut self.out, self.keep != Keep::Nothing);
        out.warm_lb = self.bound.current();
        for ch in self.chunks {
            let (first, groups) = ch.into_parts();
            out.first_values.extend(first);
            if keep {
                out.chunks.push(groups);
            }
        }
        // A set that was never ingested has no chunks yet.
        out.first_values.resize(self.width.div_ceil(64), 0);
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpfill_cubes::gen::random_cube_set;
    use dpfill_cubes::CubeSet;

    use crate::{Interval, MatrixMapping};

    /// Feeds `cubes` to the analyzer in windows of `window` cubes.
    fn analyze_windowed(cubes: &CubeSet, window: usize) -> Analysis {
        feed_windows(cubes, window, None).finish()
    }

    /// An analyzer fed `cubes` in windows of `window` cubes.
    fn feed_windows(cubes: &CubeSet, window: usize, weights: Option<Vec<u64>>) -> Analyzer {
        let mut analyzer = Analyzer::new(cubes.width(), weights, Keep::Pins);
        for chunk in cubes.as_packed().cubes().chunks(window) {
            analyzer.ingest(chunk);
        }
        analyzer
    }

    /// The analysis's stretches in walk order, as intervals.
    fn intervals(analysis: &Analysis) -> Vec<Interval> {
        (analysis.by_end(None).intervals())
            .map(|(start, end, _, _)| Interval::new(start, end as u32))
            .collect()
    }

    /// Asserts the windowed analysis is the monolithic mapping's
    /// instance: the same intervals and pins in the same order, and
    /// the same baseline.
    fn assert_matches_mapping(analysis: &Analysis, mapping: &MatrixMapping, what: &str) {
        assert_eq!(
            intervals(analysis),
            mapping.instance().intervals(),
            "{what}"
        );
        assert!(analysis.pins().eq(mapping.pins().iter().copied()), "{what}");
        assert_eq!(analysis.baseline, mapping.instance().baseline(), "{what}");
    }

    #[test]
    fn windowed_events_match_monolithic_mapping() {
        for (seed, density) in [(1u64, 0.8), (2, 0.5), (3, 0.95), (4, 0.1), (5, 1.0)] {
            let cubes = random_cube_set(70, 33, density, seed);
            let mapping = MatrixMapping::analyze(&cubes);
            for window in [1, 2, 7, 33, 64] {
                let analysis = analyze_windowed(&cubes, window);
                assert_matches_mapping(
                    &analysis,
                    &mapping,
                    &format!("seed {seed} window {window}"),
                );
                assert_eq!(analysis.cols, cubes.len());
                // The online ladder is a valid warm start for the solve:
                // never above the true bound, identical at every window
                // size (it sees the same intervals).
                let lb = mapping.instance().lower_bound().unwrap();
                assert!(
                    analysis.warm_lb <= lb,
                    "seed {seed} window {window}: warm {} > bound {lb}",
                    analysis.warm_lb
                );
            }
        }
    }

    #[test]
    fn weighted_analyzer_matches_the_weighted_mapping() {
        use crate::objective::{FillObjective, WeightTable};
        for seed in [1u64, 2, 3] {
            let cubes = random_cube_set(40, 21, 0.5, seed);
            let weights: Vec<u64> = (0..cubes.width())
                .map(|i| 1 + (i as u64 * 13) % 97)
                .collect();
            let objective =
                FillObjective::weighted(WeightTable::new(weights.clone(), None).unwrap());
            let mapping = MatrixMapping::analyze_with(&cubes, &objective).unwrap();
            let lb = mapping.instance().lower_bound().unwrap();
            for window in [1, 3, 8, 21] {
                let analysis = feed_windows(&cubes, window, Some(weights.clone())).finish();
                assert_matches_mapping(
                    &analysis,
                    &mapping,
                    &format!("seed {seed} window {window}"),
                );
                assert!(!analysis.overflow);
                assert!(
                    analysis.warm_lb <= lb,
                    "seed {seed} window {window}: warm {} > weighted bound {lb}",
                    analysis.warm_lb
                );
            }
        }
    }

    #[test]
    fn warm_bound_counts_unit_loads_under_any_objective() {
        // The banded I-ordering compares the warm bound with unit
        // bottlenecks, so a weighted analyzer must report the unweighted
        // one's bound, not a bound in objective units.
        for seed in [1u64, 2, 3] {
            let cubes = random_cube_set(40, 21, 0.5, seed);
            let weights: Vec<u64> = (0..cubes.width())
                .map(|i| 1 + (i as u64 * 13) % 97)
                .collect();
            for window in [1, 3, 8, 21] {
                let mut unit = feed_windows(&cubes, window, None);
                let mut weighted = feed_windows(&cubes, window, Some(weights.clone()));
                assert!(unit.warm_bound() > 0, "seed {seed}: no intervals");
                assert_eq!(
                    weighted.warm_bound(),
                    unit.warm_bound(),
                    "seed {seed} window {window}"
                );
            }
        }
    }

    #[test]
    fn weighted_baseline_overflow_is_flagged_not_wrapped() {
        // Two adjacent forced toggles on two max-weight pins hit the
        // same transition: the sum leaves u64 and must be flagged, in
        // one window and across two.
        let cubes = CubeSet::parse_rows(&["00", "11"]).unwrap();
        for window in [1, 2] {
            let analysis = feed_windows(&cubes, window, Some(vec![u64::MAX, u64::MAX])).finish();
            assert!(analysis.overflow, "window {window}");
        }
        // Pins in different chunks: the merge of two chunk sums flags it.
        let wide = random_cube_set(1100, 2, 0.0, 9);
        let weights = vec![u64::MAX / 2; 1100];
        let mut analyzer = Analyzer::new(1100, Some(weights), Keep::Pins);
        let pool = minipool::ThreadPool::new(4);
        minipool::with_pool(&pool, || analyzer.ingest(wide.as_packed().cubes()));
        assert!(analyzer.finish().overflow);
    }

    #[test]
    fn stretch_longer_than_the_window_is_stitched() {
        // One pin: 0 X^10 1 — a transition stretch spanning every window
        // when window = 2.
        let mut rows = vec!["0"];
        rows.extend(std::iter::repeat_n("X", 10));
        rows.push("1");
        let cubes = CubeSet::parse_rows(&rows).unwrap();
        let analysis = analyze_windowed(&cubes, 2);
        assert_eq!(intervals(&analysis), [Interval::new(0, 10)]);
        assert!(analysis.pins().eq([0]));
    }

    #[test]
    fn first_values_are_what_leading_runs_copy() {
        // Pin 0 all-X; pin 1 first care 1 at column 2; pin 2 first care
        // 0 at column 0; pin 3 first care 1 at column 0.
        let cubes = CubeSet::parse_rows(&["XX01", "XXX0", "X1X1"]).unwrap();
        for window in [1, 2, 3] {
            let analysis = analyze_windowed(&cubes, window);
            assert_eq!(analysis.first_values, [0b1010], "window {window}");
        }
        // All-X and trailing runs leave no interval at all: pin 0 all-X,
        // pin 1 care 1 at column 0 then X forever.
        let cubes = CubeSet::parse_rows(&["X1", "XX", "XX"]).unwrap();
        let analysis = analyze_windowed(&cubes, 1);
        assert_eq!(analysis.stretches(), 0);
        assert_eq!(analysis.first_values, [0b10]);
    }

    #[test]
    fn dense_rows_stitch_like_sparse_rows() {
        // Mostly-care pins close a stretch or a forced toggle at almost
        // every cube; each window must stitch to the carried state
        // exactly, and wide sets split into several word chunks.
        for seed in [6u64, 7, 8] {
            for width in [40, 1100] {
                let cubes = random_cube_set(width, 150, 0.1, seed);
                let mapping = MatrixMapping::analyze(&cubes);
                for window in [1, 5, 64, 150] {
                    let analysis = analyze_windowed(&cubes, window);
                    let what = format!("seed {seed} width {width} window {window}");
                    assert_matches_mapping(&analysis, &mapping, &what);
                }
            }
        }
    }

    #[test]
    fn the_analysis_charges_eight_bytes_per_stretch() {
        // The governor's per-stretch charge is what the analysis keeps
        // per stretch: its start and its pin, and under a preference its
        // left value; per transition, the baseline and one by-end offset
        // per chunk. A wide set scans as several chunks.
        use std::mem::size_of;
        for (width, keep, threads) in [(70, Keep::Pins, 1), (1100, Keep::Lefts, 4)] {
            let cubes = random_cube_set(width, 33, 0.6, 11);
            let pool = minipool::ThreadPool::new(threads);
            let analyzer = minipool::with_pool(&pool, || {
                let mut analyzer = Analyzer::new(width, None, keep);
                for chunk in cubes.as_packed().cubes().chunks(7) {
                    analyzer.ingest(chunk);
                }
                analyzer
            });
            let without = {
                let mut empty = Analyzer::new(width, None, keep);
                minipool::with_pool(&pool, || empty.ingest(&[]));
                empty.event_bytes()
            };
            let chunks = analyzer.chunks.len() as u64;
            let n: u64 = (analyzer.chunks.iter())
                .map(|c| c.groups.starts.len() as u64)
                .sum();
            let per_stretch = (2 * size_of::<u32>()
                + usize::from(keep == Keep::Lefts) * size_of::<bool>())
                as u64;
            let per_cube = (size_of::<u64>() + chunks as usize * size_of::<usize>()) as u64;
            let cols = cubes.len() as u64 - 1;
            let ladder = analyzer.bound.approx_bytes();
            let expected = without + n * per_stretch + cols * per_cube + ladder;
            assert_eq!(analyzer.event_bytes(), expected, "width {width}");
            assert!(width < 1000 || chunks > 1, "width {width}: {chunks} chunk");
            assert!(per_stretch <= 9);
        }
    }
}

/// The cube-major analyzer and filled-value plane against the pin-major
/// references of `dpfill-oracle`, on word-boundary widths, any window
/// and any thread count.
#[cfg(test)]
mod oracle {
    use dpfill_cubes::gen::random_cube_set;
    use dpfill_cubes::packed::PackedCubeSet;
    use dpfill_cubes::CubeSet;
    use proptest::prelude::*;

    use super::{Analyzer, Keep};
    use crate::mapping::Flips;
    use crate::stream::plan::{cube_digest, FillPlan};

    const WIDTHS: [usize; 7] = [1, 63, 64, 65, 130, 520, 1100];
    const DENSITIES: [f64; 5] = [0.0, 0.3, 0.6, 0.95, 1.0];

    /// A color inside `[start, end]` that depends on the interval alone,
    /// so both sides color it alike whatever their order.
    fn color(pin: u32, start: u32, end: u32) -> u32 {
        start + (pin.wrapping_mul(7) ^ start.wrapping_mul(13)) % (end - start + 1)
    }

    fn check(cubes: &CubeSet, window: usize, weights: Option<Vec<u64>>) {
        let reference = dpfill_oracle::analyze_pin_major(cubes, window, weights.as_deref());
        let mut analyzer = Analyzer::new(cubes.width(), weights, Keep::Lefts);
        for chunk in cubes.as_packed().cubes().chunks(window) {
            analyzer.ingest(chunk);
        }
        let a = analyzer.finish();
        // The interval multiset as (pin, start, end), with left values.
        let mut sites: Vec<_> = (a.by_end(None).intervals())
            .map(|(start, end, g, i)| (g.keys[i], start, end as u32, g.lefts[i]))
            .collect();
        let in_order = sites
            .windows(2)
            .all(|p| (p[0].2, p[0].0) < (p[1].2, p[1].0));
        assert!(in_order, "intervals not in (end, pin) order");
        sites.sort_unstable();
        let expected: Vec<_> = (reference.sites.iter())
            .map(|s| (s.pin, s.start, s.end, s.left_value))
            .collect();
        assert_eq!(sites, expected, "intervals");
        assert_eq!(a.baseline, reference.baseline, "baseline");
        assert_eq!(a.first_values, reference.first_values, "first values");
        assert_eq!(a.warm_lb, reference.warm_lb, "warm bound");
        assert_eq!(a.overflow, reference.overflow, "overflow");
        // The windowed filled-value plane against the row splice.
        let colors: Vec<u32> = (a.by_end(None).intervals())
            .map(|(start, end, g, i)| color(g.keys[i], start, end as u32))
            .collect();
        let spliced_colors: Vec<u32> = (reference.sites.iter())
            .map(|s| color(s.pin, s.start, s.end))
            .collect();
        let spliced = dpfill_oracle::splice_fill(
            cubes,
            &reference.first_values,
            &reference.sites,
            &spliced_colors,
        );
        let flips = Flips::new(a.pins(), &colors, a.baseline.len());
        let digests = cubes.as_packed().cubes().iter().map(cube_digest).collect();
        let plan = FillPlan::new(a.first_values, flips, digests);
        let mut carry = plan.initial_carry();
        let mut filled = PackedCubeSet::new(cubes.width());
        for (i, chunk) in cubes.as_packed().cubes().chunks(window).enumerate() {
            let into = plan
                .admit(i * window, chunk, &mut carry)
                .expect("same cubes");
            let set = CubeSet::from_packed(PackedCubeSet::from_rows(cubes.width(), chunk.to_vec()));
            for cube in plan
                .fill_window(&set, i * window, &into)
                .as_packed()
                .cubes()
            {
                filled.push(cube.clone());
            }
        }
        let filled = CubeSet::from_packed(filled);
        assert_eq!(filled, spliced, "fill");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn cube_major_analysis_and_fill_match_the_pin_major_reference(
            w in 0..WIDTHS.len(),
            count in 0usize..40,
            d in 0..DENSITIES.len(),
            seed in 0u64..u64::MAX,
            window in 0usize..4,
            threads in 0usize..3,
            weighted in 0u8..2,
        ) {
            let (width, density) = (WIDTHS[w], DENSITIES[d]);
            let cubes = random_cube_set(width, count, density, seed);
            let window = [1, 2, 7, count.max(1)][window];
            let weights = (weighted == 1).then(|| (0..width as u64).map(|p| 1 + p % 5).collect());
            let pool = minipool::ThreadPool::new([1, 2, 8][threads]);
            minipool::with_pool(&pool, || check(&cubes, window, weights));
        }
    }
}
