//! Windowed matrix analysis with exact boundary stitching — the one
//! analyzer of both pipelines.
//!
//! [`WindowedAnalyzer`] consumes a cube set **one window of columns at a
//! time** (each window arrives as a transposed [`PackedMatrix`]) and
//! classifies care arrivals by the [`classify_arrival`] rule:
//!
//! * `v X…X w` transition stretches become [`IntervalSite`]s — BCP
//!   intervals whose toggle position the global solve decides;
//! * adjacent opposite care bits become per-transition baseline loads;
//! * every other `X` is safe — it copies the nearest care value in the
//!   fill — so nothing is stored for it beyond each row's first care
//!   value, which a leading `X`-run copies.
//!
//! The analyzer carries **per-pin scan state** (the last care bit seen)
//! across window boundaries, so a stretch that spans any number of
//! windows — including stretches far longer than the window, the
//! "window smaller than the overlap" case — is classified exactly as if
//! the whole row were resident: the previous window's frozen tail *is*
//! the carried state. Per window, a sparse row classifies care arrival
//! by care arrival; a dense row stitches its first care bit to the
//! carried state, takes the in-window events from the X-run scanner
//! ([`for_each_stretch_dense`]) and carries its last care bit. Only the
//! classification events survive a window; the cubes themselves are
//! dropped when the caller moves on.
//!
//! [`MatrixMapping`](crate::MatrixMapping) runs the same analyzer over
//! a whole matrix as one window. Pin rows are independent, so each
//! window's scan fans the per-pin states out over the current
//! [`minipool`] pool in deterministic chunks; per-chunk events merge in
//! chunk order, making the stream bit-identical at any thread count.

use dpfill_cubes::packed::{PackedBits, PackedMatrix};
use dpfill_cubes::stretch::{classify_arrival, for_each_stretch_dense, is_dense_row, Stretch};
use dpfill_cubes::Bit;

use crate::bcp::{IncrementalBound, BCP_LADDER_LOADS};
use crate::mapping::IntervalSite;

use super::plan::group_by_row;

/// Everything the analysis pass learned about the full set.
pub(crate) struct Analysis {
    /// Transition stretches in row-major order, then by left column —
    /// the interval insertion order both pipelines solve, so the EDF
    /// ties break identically.
    pub sites: Vec<IntervalSite>,
    /// Forced toggles per transition (length `cols.saturating_sub(1)`),
    /// in objective units when the analyzer carries weights.
    pub baseline: Vec<u64>,
    /// Total columns (cubes) analyzed.
    pub cols: usize,
    /// Bit `r` (in 64-bit words) is pin `r`'s first care value — what
    /// its leading `X`-run copies; zero for an all-`X` pin.
    pub first_values: Vec<u64>,
    /// The unit-load lower bound certified online while events arrived
    /// (the [`IncrementalBound`] ladder's final value, one load per site
    /// and per forced toggle) — a warm start for the global solve, never
    /// above the true bound: the unit bound itself, and below a weighted
    /// bound because every weighted load is ≥ 1.
    pub warm_lb: u64,
    /// Set when accumulating a weighted baseline overflowed `u64`; the
    /// callers turn this into a typed error instead of solving on a
    /// silently saturated instance.
    pub overflow: bool,
}

/// One chunk's events of one window: sites, forced toggles as
/// `(row, transition)`, and the rows whose first care value is 1.
type ChunkEvents = (Vec<IntervalSite>, Vec<(u32, u32)>, Vec<u32>);

/// The windowed analyzer: feed windows left to right, then
/// [`WindowedAnalyzer::finish`].
pub(crate) struct WindowedAnalyzer {
    /// Per-pin scan state carried across windows: the last care bit
    /// seen, as `(global column, value)`.
    states: Vec<Option<(usize, Bit)>>,
    first_values: Vec<u64>,
    sites: Vec<IntervalSite>,
    baseline: Vec<u64>,
    cols: usize,
    windows: usize,
    /// Per-pin objective weights (`None` = the unit metric); charged to
    /// the forced baseline. The online ladder counts unit loads.
    weights: Option<Vec<u64>>,
    /// A weighted baseline accumulation left `u64` (see
    /// [`Analysis::overflow`]).
    overflow: bool,
    /// The unit-load BCP lower bound, maintained as sites and forced
    /// toggles are discovered — by the time the stream ends, the global
    /// solve starts from this value instead of rebuilding its ladder
    /// from the full event list.
    bound: IncrementalBound,
}

/// Scans one pin row's window `[start, start + row.len())` against the
/// row's carried `state`, appending its events to `out`.
fn scan_row(
    row: &PackedBits,
    pin: u32,
    start: usize,
    state: &mut Option<(usize, Bit)>,
    out: &mut ChunkEvents,
) {
    let (sites, forced, first_ones) = out;
    // In-window columns shift by `start`; the stitch is already global.
    let mut record = |s: Stretch, shift: usize| match s {
        Stretch::Transition {
            left,
            right,
            left_value,
        } => sites.push(IntervalSite {
            row: pin,
            left: (shift + left) as u32,
            right: (shift + right) as u32,
            left_value,
        }),
        Stretch::ForcedToggle { col } => forced.push((pin, (shift + col) as u32)),
        // Safe runs are filled by copy-left, never stored.
        _ => {}
    };
    let mut arrive = |state: &mut Option<(usize, Bit)>, col: usize, value: Bit| {
        if state.is_none() && value == Bit::One {
            first_ones.push(pin);
        }
        if let Some(s) = classify_arrival(*state, col, value) {
            record(s, 0);
        }
        *state = Some((col, value));
    };
    if is_dense_row(row) {
        let Some((first, value)) = row.next_care_at_or_after(0) else {
            return;
        };
        arrive(state, start + first, value);
        for_each_stretch_dense(row, |s| record(s, start));
        let last = row.last_care().unwrap_or(first);
        *state = Some((start + last, row.get(last)));
    } else {
        for (pos, value) in row.care_positions() {
            arrive(state, start + pos, value);
        }
    }
}

impl WindowedAnalyzer {
    /// An analyzer whose forced baseline is charged in objective units,
    /// `weights[row]` per forced toggle; the sites carry their row, so
    /// the solve weighs them. `None` (and all-unit weights) give the
    /// unit peak-toggle metric. The running bound counts unit loads
    /// either way.
    pub fn with_weights(width: usize, weights: Option<Vec<u64>>) -> WindowedAnalyzer {
        if let Some(w) = &weights {
            assert_eq!(w.len(), width, "weight table width mismatch");
        }
        WindowedAnalyzer {
            states: vec![None; width],
            first_values: vec![0; width.div_ceil(64)],
            sites: Vec::new(),
            baseline: Vec::new(),
            cols: 0,
            windows: 0,
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
            "the analysis supports at most 2^32 - 1 cubes"
        );
        let chunks: Vec<ChunkEvents> =
            minipool::parallel_chunks_mut(&mut self.states, 4, |row0, states| {
                let mut events = ChunkEvents::default();
                for (row, state) in (row0..).zip(states.iter_mut()) {
                    scan_row(&rows[row], row as u32, start_col, state, &mut events);
                }
                events
            });
        self.cols = start_col + matrix.cols();
        self.windows += 1;
        // Transition t needs both cubes t and t+1 read; every event below
        // is therefore strictly inside the seen prefix.
        self.baseline.resize(self.cols.saturating_sub(1), 0);
        let mut loads = 0;
        for (sites, forced, first_ones) in chunks {
            loads += sites.len() + forced.len();
            for site in &sites {
                // Interval (left, right-1): the exact interval the global
                // solve will add for this site, at unit load.
                self.bound
                    .add_load(site.left as usize, site.right as usize - 1, 1);
            }
            self.sites.extend(sites);
            for (row, col) in forced {
                let (w, col) = (self.weight(row as usize), col as usize);
                match self.baseline[col].checked_add(w) {
                    Some(v) => self.baseline[col] = v,
                    None => self.overflow = true,
                }
                self.bound.add_baseline(col, 1);
            }
            for pin in first_ones {
                self.first_values[pin as usize / 64] |= 1 << (pin % 64);
            }
        }
        BCP_LADDER_LOADS.add(loads as u64);
    }

    /// The running unit-load lower bound certified by the incremental
    /// ladder over everything ingested so far, the same under any
    /// objective. Valid mid-stream: the reorder stage feeds it to the
    /// banded I-ordering as the frozen prefix's warm bound, in the unit
    /// bottlenecks that search compares.
    pub fn warm_bound(&self) -> u64 {
        self.bound.current()
    }

    /// Bytes held by the analysis (sites, baseline, per-pin states and
    /// first values, the weights, the incremental-bound ladder) — the
    /// content-driven resident cost the memory-budget governor charges
    /// after each window. Grows with the input's transition stretches,
    /// not with its safe runs or the window size.
    pub fn event_bytes(&self) -> u64 {
        use std::mem::size_of;
        (self.sites.len() * size_of::<IntervalSite>()
            + (self.baseline.len() + self.first_values.len()) * size_of::<u64>()
            + self.states.len() * size_of::<Option<(usize, Bit)>>()
            + self
                .weights
                .as_ref()
                .map_or(0, |w| w.len() * size_of::<u64>())) as u64
            + self.bound.approx_bytes()
    }

    /// Returns the full analysis, with sites grouped into row-major
    /// order.
    pub fn finish(self) -> Analysis {
        // Windows surface a pin's stretches left to right but interleave
        // pins; grouping by row keeps each row's arrival order, which
        // reproduces the (row, left) interval order the EDF tie-breaks
        // depend on. One window's sites are row-major already.
        let sites = if self.windows > 1 {
            group_by_row(self.sites, self.states.len(), |s| s.row).0
        } else {
            self.sites
        };
        Analysis {
            sites,
            baseline: self.baseline,
            cols: self.cols,
            first_values: self.first_values,
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
        feed_windows(cubes, window, weights).finish()
    }

    /// An analyzer fed `cubes` in windows of `window` columns.
    fn feed_windows(cubes: &CubeSet, window: usize, weights: Option<Vec<u64>>) -> WindowedAnalyzer {
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
        analyzer
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
                assert!(unit.warm_bound() > 0, "seed {seed}: no events");
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
        // All-X and trailing runs leave no event at all: pin 0 all-X,
        // pin 1 care 1 at column 0 then X forever.
        let cubes = CubeSet::parse_rows(&["X1", "XX", "XX"]).unwrap();
        let analysis = analyze_windowed(&cubes, 1);
        assert!(analysis.sites.is_empty());
        assert_eq!(analysis.first_values, [0b10]);
    }

    #[test]
    fn dense_rows_stitch_like_sparse_rows() {
        // Mostly-care rows take the X-run arm in every window; each
        // window must stitch to the carried state exactly.
        for seed in [6u64, 7, 8] {
            let cubes = random_cube_set(40, 150, 0.1, seed);
            let mapping = MatrixMapping::analyze(&cubes);
            for window in [1, 5, 64, 150] {
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
            }
        }
    }
}
