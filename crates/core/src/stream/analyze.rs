//! Windowed matrix analysis with exact boundary stitching.
//!
//! [`WindowedAnalyzer`] consumes a cube set **one window of columns at a
//! time** (each window arrives as a transposed [`PackedMatrix`]) and
//! emits exactly the event stream of the monolithic
//! [`MatrixMapping::analyze`](crate::MatrixMapping::analyze) walk, by
//! the same [`classify_arrival`] rule:
//!
//! * *safe* runs (leading / trailing / `v X…X v` / all-`X`) become
//!   [`Segment`]s — fill instructions the emit pass splices back in;
//! * `v X…X w` transition stretches become [`IntervalSite`]s — BCP
//!   intervals whose toggle position the global solve decides;
//! * adjacent opposite care bits become per-transition baseline loads.
//!
//! The analyzer carries **per-pin scan state** (the last care bit seen)
//! across window boundaries, so a stretch that spans any number of
//! windows — including stretches far longer than the window, the
//! "window smaller than the overlap" case — is classified exactly as if
//! the whole row were resident: the previous window's frozen tail *is*
//! the carried state. Only the classification events survive a window;
//! the cubes themselves are dropped when the caller moves on.
//!
//! Pin rows are independent, so each window's scan fans the per-pin
//! states out over the current [`minipool`] pool in deterministic
//! chunks; per-chunk events merge in chunk order, making the stream
//! bit-identical at any thread count.

use dpfill_cubes::packed::PackedMatrix;
use dpfill_cubes::stretch::{classify_arrival, Stretch};
use dpfill_cubes::Bit;

use crate::bcp::IncrementalBound;
use crate::mapping::IntervalSite;

use super::plan::group_by_row;

/// One safe-run fill instruction: pin row `row`, columns `[start, end)`
/// become `value`. Ranges never cover a care bit, so splicing them is
/// always legal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Segment {
    /// Pin row.
    pub row: u32,
    /// First column (cube index) of the run.
    pub start: u32,
    /// One past the last column of the run.
    pub end: u32,
    /// The fill value.
    pub value: Bit,
}

impl Segment {
    fn new(row: usize, start: usize, end: usize, value: Bit) -> Segment {
        debug_assert!(start < end, "segments are non-empty");
        Segment {
            row: row as u32,
            start: start as u32,
            end: end as u32,
            value,
        }
    }
}

/// Everything the analysis pass learned about the full set.
pub(crate) struct Analysis {
    /// Safe-run fill instructions, in discovery order.
    pub segments: Vec<Segment>,
    /// Transition stretches in monolithic order (row-major, then left
    /// column) — the exact interval insertion order of
    /// [`MatrixMapping::analyze`](crate::MatrixMapping::analyze), so the
    /// EDF solve ties break identically.
    pub sites: Vec<IntervalSite>,
    /// Forced toggles per transition (length `cols.saturating_sub(1)`),
    /// in objective units when the analyzer carries weights.
    pub baseline: Vec<u64>,
    /// Total columns (cubes) analyzed.
    pub cols: usize,
    /// The lower bound certified online while events arrived (the
    /// [`IncrementalBound`] ladder's final value) — a warm start for the
    /// global solve, never above the true bound.
    pub warm_lb: u64,
    /// Set when accumulating a weighted baseline overflowed `u64`; the
    /// plan resolution turns this into a typed error instead of solving
    /// on a silently saturated instance.
    pub overflow: bool,
}

/// The streaming analyzer: feed windows left to right, then
/// [`WindowedAnalyzer::finish`].
pub(crate) struct WindowedAnalyzer {
    /// Per-pin scan state carried across windows: the last care bit
    /// seen, as `(global column, value)`.
    states: Vec<Option<(usize, Bit)>>,
    segments: Vec<Segment>,
    sites: Vec<IntervalSite>,
    baseline: Vec<u64>,
    cols: usize,
    /// Per-pin objective weights (`None` = the unit metric); charged to
    /// the interval loads of the online ladder and to the forced
    /// baseline, exactly like the weighted monolithic mapping.
    weights: Option<Vec<u64>>,
    /// A weighted baseline accumulation left `u64` (see
    /// [`Analysis::overflow`]).
    overflow: bool,
    /// The BCP lower bound, maintained as sites and forced toggles are
    /// discovered — by the time the stream ends, the global solve
    /// starts from this value instead of rebuilding its ladder from the
    /// full event list.
    bound: IncrementalBound,
}

impl WindowedAnalyzer {
    /// An analyzer whose events are charged in objective units:
    /// `weights[row]` per stretch interval and per forced toggle.
    /// `None` (and all-unit weights) give the unit peak-toggle metric.
    pub fn with_weights(width: usize, weights: Option<Vec<u64>>) -> WindowedAnalyzer {
        if let Some(w) = &weights {
            assert_eq!(w.len(), width, "weight table width mismatch");
        }
        WindowedAnalyzer {
            states: vec![None; width],
            segments: Vec::new(),
            sites: Vec::new(),
            baseline: Vec::new(),
            cols: 0,
            weights,
            overflow: false,
            bound: IncrementalBound::new(),
        }
    }

    /// The objective weight of pin `row` (1 under the unit metric).
    fn weight(&self, row: usize) -> u64 {
        self.weights.as_ref().map_or(1, |w| w[row])
    }

    /// Ingests the next window, already transposed to pin rows. The
    /// window's columns are `[self.cols, self.cols + matrix.cols())`.
    ///
    /// # Panics
    ///
    /// Panics if the window's row count differs from the analyzer's
    /// width.
    pub fn ingest(&mut self, matrix: &PackedMatrix) {
        assert_eq!(matrix.rows(), self.states.len(), "window width changed");
        let start_col = self.cols;
        let rows = matrix.packed_rows();
        assert!(
            start_col + matrix.cols() <= u32::MAX as usize,
            "streaming analysis supports at most 2^32 - 1 cubes"
        );
        type ChunkEvents = (Vec<Segment>, Vec<IntervalSite>, Vec<(usize, usize)>);
        let chunks: Vec<ChunkEvents> =
            minipool::parallel_chunks_mut(&mut self.states, 4, |row0, states| {
                let mut segments = Vec::new();
                let mut sites = Vec::new();
                let mut forced = Vec::new();
                for (i, state) in states.iter_mut().enumerate() {
                    let row = row0 + i;
                    for (pos, value) in rows[row].care_positions() {
                        let col = start_col + pos;
                        match classify_arrival(*state, col, value) {
                            // A leading X-run copies the first care bit
                            // backwards.
                            Some(Stretch::Leading { first_care }) => {
                                segments.push(Segment::new(row, 0, first_care, value));
                            }
                            Some(Stretch::SameValue { left, right, value }) => {
                                segments.push(Segment::new(row, left + 1, right, value));
                            }
                            Some(Stretch::Transition {
                                left,
                                right,
                                left_value,
                            }) => sites.push(IntervalSite {
                                row: row as u32,
                                left: left as u32,
                                right: right as u32,
                                left_value,
                            }),
                            Some(Stretch::ForcedToggle { col }) => forced.push((row, col)),
                            // Trailing runs and all-X rows close at finish.
                            Some(Stretch::Trailing { .. } | Stretch::AllX) | None => {}
                        }
                        *state = Some((col, value));
                    }
                }
                (segments, sites, forced)
            });
        self.cols = start_col + matrix.cols();
        // Transition t needs both cubes t and t+1 read; every event below
        // is therefore strictly inside the seen prefix.
        self.baseline.resize(self.cols.saturating_sub(1), 0);
        for (segments, sites, forced) in chunks {
            self.segments.extend(segments);
            for site in &sites {
                // Interval (left, right-1): the exact interval (and the
                // exact load) the global solve will add for this site.
                self.bound.add_load(
                    site.left as usize,
                    site.right as usize - 1,
                    self.weight(site.row as usize),
                );
            }
            self.sites.extend(sites);
            for (row, col) in forced {
                let w = self.weight(row);
                match self.baseline[col].checked_add(w) {
                    Some(v) => self.baseline[col] = v,
                    None => self.overflow = true,
                }
                // The ladder saturates internally, which keeps its
                // bound valid (never above the true one) even past an
                // overflow the plan resolution will reject anyway.
                self.bound.add_baseline(col, w);
            }
        }
    }

    /// The running lower bound certified by the incremental ladder over
    /// everything ingested so far. Valid mid-stream: the reorder stage
    /// feeds it to the banded I-ordering as the frozen prefix's
    /// warm bound.
    pub fn warm_bound(&self) -> u64 {
        self.bound.current()
    }

    /// Bytes held by the scalar event stream (segments, sites,
    /// baseline, per-pin states, the incremental-bound ladder) — the
    /// content-driven resident cost the memory-budget governor charges
    /// after each window. Grows with the input's X-structure, not with
    /// the window size.
    pub fn event_bytes(&self) -> u64 {
        use std::mem::size_of;
        (self.segments.len() * size_of::<Segment>()
            + self.sites.len() * size_of::<IntervalSite>()
            + self.baseline.len() * size_of::<u64>()
            + self.states.len() * size_of::<Option<(usize, Bit)>>()
            + self
                .weights
                .as_ref()
                .map_or(0, |w| w.len() * size_of::<u64>())) as u64
            + self.bound.approx_bytes()
    }

    /// Closes every still-open run (trailing X-runs, all-`X` rows) and
    /// returns the full analysis, with sites grouped into the monolithic
    /// row-major order.
    pub fn finish(mut self) -> Analysis {
        let n = self.cols;
        for (row, state) in self.states.iter().enumerate() {
            match *state {
                None => {
                    if n > 0 {
                        // All-X row: the safe splice fills it with zero.
                        self.segments.push(Segment::new(row, 0, n, Bit::Zero));
                    }
                }
                Some((last, value)) => {
                    if last + 1 < n {
                        self.segments.push(Segment::new(row, last + 1, n, value));
                    }
                }
            }
        }
        // Windows surface a pin's stretches left to right but interleave
        // pins; the monolithic walk is strictly row-major. Grouping by
        // row keeps each row's arrival order, so this reproduces the
        // exact (row, left) interval order the EDF tie-breaks depend on.
        let (sites, _) = group_by_row(self.sites, self.states.len(), |s| s.row);
        Analysis {
            segments: self.segments,
            sites,
            baseline: self.baseline,
            cols: n,
            warm_lb: self.bound.current(),
            overflow: self.overflow,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpfill_cubes::gen::random_cube_set;
    use dpfill_cubes::CubeSet;

    use crate::MatrixMapping;

    /// Feeds `cubes` to the analyzer in windows of `window` columns.
    fn analyze_windowed(cubes: &CubeSet, window: usize) -> Analysis {
        analyze_windowed_weighted(cubes, window, None)
    }

    fn analyze_windowed_weighted(
        cubes: &CubeSet,
        window: usize,
        weights: Option<Vec<u64>>,
    ) -> Analysis {
        let mut analyzer = WindowedAnalyzer::with_weights(cubes.width(), weights);
        let packed = cubes.as_packed();
        let mut start = 0;
        while start < cubes.len() {
            let end = (start + window).min(cubes.len());
            let mut slice = dpfill_cubes::packed::PackedCubeSet::new(cubes.width());
            for i in start..end {
                slice.push(packed.cube(i).clone());
            }
            analyzer.ingest(&PackedMatrix::from_packed_set(&slice));
            start = end;
        }
        analyzer.finish()
    }

    #[test]
    fn windowed_events_match_monolithic_mapping() {
        for (seed, density) in [(1u64, 0.8), (2, 0.5), (3, 0.95), (4, 0.1), (5, 1.0)] {
            let cubes = random_cube_set(70, 33, density, seed);
            let mapping = MatrixMapping::analyze(&cubes);
            for window in [1, 2, 7, 33, 64] {
                let analysis = analyze_windowed(&cubes, window);
                assert_eq!(
                    analysis.sites,
                    mapping.sites(),
                    "seed {seed} window {window}"
                );
                assert_eq!(
                    analysis.baseline,
                    mapping.instance().baseline(),
                    "seed {seed} window {window}"
                );
                assert_eq!(analysis.cols, cubes.len());
                // The online ladder is a valid warm start for the solve:
                // never above the true bound, identical at every window
                // size (it sees the same events).
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
                let analysis = analyze_windowed_weighted(&cubes, window, Some(weights.clone()));
                assert_eq!(
                    analysis.sites,
                    mapping.sites(),
                    "seed {seed} window {window}"
                );
                assert_eq!(
                    analysis.baseline,
                    mapping.instance().baseline(),
                    "seed {seed} window {window}"
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
    fn weighted_baseline_overflow_is_flagged_not_wrapped() {
        // Two adjacent forced toggles on two max-weight pins hit the
        // same transition: the sum leaves u64 and must be flagged.
        let cubes = CubeSet::parse_rows(&["00", "11"]).unwrap();
        let analysis = analyze_windowed_weighted(&cubes, 1, Some(vec![u64::MAX, u64::MAX]));
        assert!(analysis.overflow);
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
        assert_eq!(analysis.sites.len(), 1);
        assert_eq!(analysis.sites[0].left, 0);
        assert_eq!(analysis.sites[0].right, 11);
        assert!(analysis.segments.is_empty());
    }

    #[test]
    fn all_x_and_trailing_rows_close_at_finish() {
        // Pin 0 all-X; pin 1 care at column 0 then X forever.
        let cubes = CubeSet::parse_rows(&["X1", "XX", "XX"]).unwrap();
        let analysis = analyze_windowed(&cubes, 1);
        let mut segments = analysis.segments.clone();
        segments.sort_by_key(|s| s.row);
        assert_eq!(segments[0], Segment::new(0, 0, 3, Bit::Zero));
        assert_eq!(segments[1], Segment::new(1, 1, 3, Bit::One));
        assert!(analysis.sites.is_empty());
    }
}
