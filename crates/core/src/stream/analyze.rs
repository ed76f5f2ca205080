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
//! [`Analyzer`] carries the word states across windows, so a stretch
//! spanning any number of windows closes exactly as if the set were
//! resident, and windows close intervals in global end order: the list
//! grows in `(end, pin)` order, the order every BCP sweep walks. Pin
//! words fan out over the current [`minipool`] pool in contiguous
//! chunks that merge end by end in chunk order, so the result is the
//! same at any thread count and windowing.
//! [`MatrixMapping`](crate::MatrixMapping) runs it over the whole set as
//! one window; the I-ordering's candidate scan runs [`scan_words`]
//! without recording pins.

use dpfill_cubes::packed::PackedBits;

use crate::bcp::{IncrementalBound, BCP_LADDER_LOADS};
use crate::Interval;

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

/// What one chunk of pin words found in a run of cubes.
#[derive(Default)]
pub(crate) struct Events {
    /// Each closed interval's start; `starts[by_end[i]..by_end[i + 1]]`
    /// end at the run's `i`-th transition.
    pub starts: Vec<u32>,
    pub by_end: Vec<usize>,
    /// Each interval's pin and left care value, when asked for.
    pub pins: Vec<u32>,
    pub lefts: Vec<bool>,
    /// Forced toggles per transition, unit and weighed by the weights.
    pub forced: Vec<u32>,
    pub weighted: Vec<u64>,
    /// A weighted sum left `u64`.
    pub overflow: bool,
}

/// Scans `cubes`, whose first is cube `t0` of the set, over the pin
/// words `w0..w0 + words.len()` carried in `words` (see the module
/// docs), recording each interval's pin and left care value when asked
/// and weighing forced toggles by `weights`. Transition `t − 1` ends at
/// cube `t`, so the run's transitions start at `t0 − 1` (at 0 when `t0`
/// is 0: the first cube has none).
pub(crate) fn scan_words<'a>(
    cubes: impl Iterator<Item = &'a PackedBits>,
    t0: usize,
    words: &mut [WordState],
    w0: usize,
    (pins, lefts): (bool, bool),
    weights: Option<&[u64]>,
) -> Events {
    let mut ev = Events::default();
    let span = w0..w0 + words.len();
    for (t, cube) in (t0..).zip(cubes) {
        let care = &cube.care_words()[span.clone()];
        let value = &cube.value_words()[span.clone()];
        // Nothing below fires at t = 0: `P` and `S` are still empty.
        let at = (t as u32).wrapping_sub(1);
        if t > 0 {
            ev.by_end.push(ev.starts.len());
        }
        let (mut toggles, mut weighted) = (0u32, 0u64);
        for (w, st) in words.iter_mut().enumerate() {
            let (c, v, p) = (care[w], value[w], st.prev);
            let flips = v ^ st.left;
            let mut closes = c & !p & st.seen & flips;
            while closes != 0 {
                let b = closes.trailing_zeros();
                ev.starts.push(st.runs[b as usize]);
                if pins {
                    ev.pins.push(((w0 + w) * 64) as u32 + b);
                }
                if lefts {
                    ev.lefts.push(st.left >> b & 1 == 1);
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
                    let pin = (w0 + w) * 64 + bits.trailing_zeros() as usize;
                    ev.overflow |= weighted.checked_add(weights[pin]).is_none();
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
            ev.forced.push(toggles);
            if weights.is_some() {
                ev.weighted.push(weighted);
            }
        }
    }
    ev.by_end.push(ev.starts.len());
    ev
}

/// Everything the analysis learned about the full set.
#[derive(Default)]
pub(crate) struct Analysis {
    /// Each transition stretch's interval, in `(end, pin)` order.
    pub intervals: Vec<Interval>,
    /// The pin of each interval.
    pub pins: Vec<u32>,
    /// The left care value of each interval (empty unless asked for).
    pub lefts: Vec<bool>,
    /// Forced toggles per transition, in objective units under weights.
    pub baseline: Vec<u64>,
    /// Total columns (cubes) analyzed.
    pub cols: usize,
    /// Bit `r` is pin `r`'s first care value (zero for an all-`X` pin).
    pub first_values: Vec<u64>,
    /// The [`IncrementalBound`] ladder's unit-load bound: a warm start
    /// for the solve, the unit bound itself and below a weighted one.
    pub warm_lb: u64,
    /// A weighted baseline sum left `u64` (a typed error upstream).
    pub overflow: bool,
}

/// The analyzer: feed windows left to right, then
/// [`Analyzer::finish`].
pub(crate) struct Analyzer {
    /// Per-word scan state carried across windows.
    words: Vec<WordState>,
    /// What the windows so far found.
    out: Analysis,
    /// Per-pin weights of the forced baseline (`None`: unit).
    weights: Option<Vec<u64>>,
    /// Record each interval's left care value.
    lefts: bool,
    /// The online unit-load ladder (see [`Analysis::warm_lb`]).
    bound: IncrementalBound,
}

impl Analyzer {
    /// An analyzer of `width` pins charging `weights[pin]` per forced
    /// toggle (`None`: the unit metric; the running bound counts unit
    /// loads either way), keeping each interval's left value if `lefts`.
    pub fn new(width: usize, weights: Option<Vec<u64>>, lefts: bool) -> Analyzer {
        if let Some(w) = &weights {
            assert_eq!(w.len(), width, "weight table width mismatch");
        }
        Analyzer {
            words: vec![WordState::EMPTY; width.div_ceil(64)],
            out: Analysis::default(),
            weights,
            lefts,
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
        let (record, weights) = ((true, self.lefts), self.weights.as_deref());
        // At least 8 words a chunk: each cube then hands a chunk one
        // whole 64-byte line of each plane.
        let chunks = minipool::parallel_chunks_mut(&mut self.words, 8, |w0, words| {
            scan_words(cubes.iter(), t0, words, w0, record, weights)
        });
        let out = &mut self.out;
        out.cols = t0 + cubes.len();
        // The window's transitions: one per cube after the set's first.
        let first = t0.saturating_sub(1);
        let transitions = cubes.len() - usize::from(t0 == 0 && !cubes.is_empty());
        let before = out.intervals.len();
        let mut forced_count = 0u64;
        for i in 0..transitions {
            let at = first + i;
            let (mut unit, mut weighted) = (0u64, 0u64);
            for ch in &chunks {
                let (lo, hi) = (ch.by_end[i], ch.by_end[i + 1]);
                for &start in &ch.starts[lo..hi] {
                    self.bound.add_load(start as usize, at, 1);
                    out.intervals.push(Interval::new(start, at as u32));
                }
                out.pins.extend_from_slice(&ch.pins[lo..hi]);
                if self.lefts {
                    out.lefts.extend_from_slice(&ch.lefts[lo..hi]);
                }
                unit += u64::from(ch.forced[i]);
                if let Some(&w) = ch.weighted.get(i) {
                    out.overflow |= weighted.checked_add(w).is_none();
                    weighted = weighted.saturating_add(w);
                }
            }
            let total = if self.weights.is_some() {
                weighted
            } else {
                unit
            };
            out.baseline.push(total);
            if unit != 0 {
                self.bound.add_baseline(at, unit);
            }
            forced_count += unit;
        }
        out.overflow |= chunks.iter().any(|ch| ch.overflow);
        BCP_LADDER_LOADS.add((out.intervals.len() - before) as u64 + forced_count);
    }

    /// The running unit-load ladder bound over everything ingested so
    /// far, under any objective: the banded I-ordering's warm bound for
    /// the frozen prefix, in the unit bottlenecks that search compares.
    pub fn warm_bound(&self) -> u64 {
        self.bound.current()
    }

    /// Bytes held by the analysis — the content-driven resident cost
    /// the memory-budget governor charges after each window: 12 B per
    /// interval (the interval and its pin, plus 1 B of left value under
    /// a preference), 8 B of baseline per transition, the per-word
    /// states, the weights and the incremental-bound ladder. Grows with
    /// the input's transition stretches, not with its safe runs or the
    /// window size.
    pub fn event_bytes(&self) -> u64 {
        use std::mem::size_of;
        let out = &self.out;
        (out.intervals.len() * size_of::<Interval>()
            + out.pins.len() * size_of::<u32>()
            + out.lefts.len() * size_of::<bool>()
            + out.baseline.len() * size_of::<u64>()
            + self.words.len() * size_of::<WordState>()
            + self
                .weights
                .as_ref()
                .map_or(0, |w| w.len() * size_of::<u64>())) as u64
            + self.bound.approx_bytes()
    }

    /// Returns the full analysis.
    pub fn finish(mut self) -> Analysis {
        self.out.first_values = self.words.iter().map(|w| w.first).collect();
        self.out.warm_lb = self.bound.current();
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpfill_cubes::gen::random_cube_set;
    use dpfill_cubes::CubeSet;

    use crate::MatrixMapping;

    /// Feeds `cubes` to the analyzer in windows of `window` cubes.
    fn analyze_windowed(cubes: &CubeSet, window: usize) -> Analysis {
        feed_windows(cubes, window, None).finish()
    }

    /// An analyzer fed `cubes` in windows of `window` cubes.
    fn feed_windows(cubes: &CubeSet, window: usize, weights: Option<Vec<u64>>) -> Analyzer {
        let mut analyzer = Analyzer::new(cubes.width(), weights, false);
        for chunk in cubes.as_packed().cubes().chunks(window) {
            analyzer.ingest(chunk);
        }
        analyzer
    }

    /// Asserts the windowed analysis is the monolithic mapping's
    /// instance: the same intervals and pins in the same order, and
    /// the same baseline.
    fn assert_matches_mapping(analysis: &Analysis, mapping: &MatrixMapping, what: &str) {
        assert_eq!(analysis.intervals, mapping.instance().intervals(), "{what}");
        assert_eq!(analysis.pins, mapping.pins(), "{what}");
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
                let unit = feed_windows(&cubes, window, None);
                let weighted = feed_windows(&cubes, window, Some(weights.clone()));
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
        let mut analyzer = Analyzer::new(1100, Some(weights), false);
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
        assert_eq!(analysis.intervals, [Interval::new(0, 10)]);
        assert_eq!(analysis.pins, [0]);
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
        assert!(analysis.intervals.is_empty());
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
    fn the_analysis_charges_twelve_bytes_per_interval() {
        // The governor's per-interval charge is what the analysis keeps
        // per interval: the interval and its pin.
        let cubes = random_cube_set(70, 33, 0.6, 11);
        let analyzer = feed_windows(&cubes, 7, None);
        let without = {
            let mut empty = Analyzer::new(70, None, false);
            empty.ingest(&[]);
            empty.event_bytes()
        };
        let n = analyzer.out.intervals.len() as u64;
        let per_interval = (std::mem::size_of::<Interval>() + std::mem::size_of::<u32>()) as u64;
        let per_cube = std::mem::size_of::<u64>() as u64;
        let cols = cubes.len() as u64 - 1;
        let expected = without + n * per_interval + cols * per_cube + analyzer.bound.approx_bytes();
        assert_eq!(analyzer.event_bytes(), expected);
        assert!(per_interval <= 16);
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

    use super::Analyzer;
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
        let mut analyzer = Analyzer::new(cubes.width(), weights, true);
        for chunk in cubes.as_packed().cubes().chunks(window) {
            analyzer.ingest(chunk);
        }
        let a = analyzer.finish();
        // The interval multiset as (pin, start, end), with left values.
        let mut sites: Vec<_> = (a.intervals.iter().zip(&a.pins).zip(&a.lefts))
            .map(|((iv, &pin), &left)| (pin, iv.start(), iv.end(), left))
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
        let colors: Vec<u32> = (a.intervals.iter().zip(&a.pins))
            .map(|(iv, &pin)| color(pin, iv.start(), iv.end()))
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
        let flips = Flips::new(&a.pins, &colors, a.baseline.len());
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
