//! The resolved fill plan: every `X` of the input mapped to its value.
//!
//! After the analysis pass and the plan resolution (the global BCP
//! solve for DP-fill, warm-started by the analyzer's online bound; the
//! copy-left coloring `right − 1` for MT-fill) the whole fill is two
//! row-major event lists:
//!
//! * pass 1's safe runs, as [`Segment`]s;
//! * the solve's [`IntervalSite`]s, in the order the solve read them,
//!   with their colors.
//!
//! [`FillPlan`] indexes both by pin row so the emit pass can splice any
//! **window** of columns without the rest of the matrix being resident:
//! a safe run overlapping the window is clipped to it, and the colored
//! sites go through [`splice_colored`], the §V-D kernel the monolithic
//! [`MatrixMapping::apply_coloring`](crate::MatrixMapping::apply_coloring)
//! runs on whole rows.

use dpfill_cubes::packed::PackedMatrix;

use crate::mapping::{splice_colored, IntervalSite};

use super::analyze::Segment;

/// A window-sliceable description of the complete fill.
pub(crate) struct FillPlan {
    /// Safe runs grouped by row; per row they are disjoint and ordered,
    /// so both their starts and their ends are increasing.
    runs: Vec<Segment>,
    /// `runs[run_index[r]..run_index[r + 1]]` are row `r`'s safe runs.
    run_index: Vec<usize>,
    /// Transition stretches in row-major order, and the color of each.
    sites: Vec<IntervalSite>,
    colors: Vec<u32>,
    /// `sites[site_index[r]..site_index[r + 1]]` are row `r`'s sites.
    site_index: Vec<usize>,
}

/// `index[r]..index[r + 1]` is row `r`'s run in a row-grouped event
/// list of `width` rows.
fn row_index<T>(events: &[T], width: usize, row: impl Fn(&T) -> u32) -> Vec<usize> {
    let mut index = vec![0usize; width + 1];
    for event in events {
        index[row(event) as usize + 1] += 1;
    }
    for r in 0..width {
        index[r + 1] += index[r];
    }
    index
}

/// Groups events by row with a stable counting sort in
/// O(events + width). A row's events arrive left to right, window after
/// window, so grouping by row alone reproduces the `(row, column)`
/// order. Returns the grouped events and their row index.
pub(super) fn group_by_row<T: Copy>(
    events: Vec<T>,
    width: usize,
    row: impl Fn(&T) -> u32,
) -> (Vec<T>, Vec<usize>) {
    let index = row_index(&events, width, &row);
    let mut next = index.clone();
    let mut grouped = events.clone();
    for event in events {
        let slot = &mut next[row(&event) as usize];
        grouped[*slot] = event;
        *slot += 1;
    }
    (grouped, index)
}

impl FillPlan {
    /// Builds a plan from pass 1's safe runs (in discovery order) and
    /// the row-major `sites` colored by `colors`.
    ///
    /// # Panics
    ///
    /// Panics if `colors` and `sites` differ in length.
    pub fn new(
        width: usize,
        runs: Vec<Segment>,
        sites: Vec<IntervalSite>,
        colors: Vec<u32>,
    ) -> FillPlan {
        assert_eq!(
            colors.len(),
            sites.len(),
            "coloring does not match interval count"
        );
        let (runs, run_index) = group_by_row(runs, width, |s| s.row);
        let site_index = row_index(&sites, width, |s| s.row);
        FillPlan {
            runs,
            run_index,
            sites,
            colors,
            site_index,
        }
    }

    /// Bytes held by the resolved plan — resident for the whole emit
    /// pass, charged against the memory budget up front.
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        (self.runs.len() * size_of::<Segment>()
            + self.sites.len() * (size_of::<IntervalSite>() + size_of::<u32>())
            + (self.run_index.len() + self.site_index.len()) * size_of::<usize>()) as u64
    }

    /// Splices every safe run and colored site overlapping columns
    /// `[start_col, start_col + matrix.cols())` into the window,
    /// clipped. Rows are disjoint, so row chunks fan out over the
    /// current [`minipool`] pool; per row the overlapping runs are a
    /// contiguous slice found by two binary searches.
    pub fn apply_window(&self, matrix: &mut PackedMatrix, start_col: usize) {
        let a = start_col;
        let b = start_col + matrix.cols();
        minipool::parallel_chunks_mut(matrix.packed_rows_mut(), 4, |row0, rows| {
            for (r, row) in (row0..).zip(rows.iter_mut()) {
                let runs = &self.runs[self.run_index[r]..self.run_index[r + 1]];
                let lo = runs.partition_point(|s| s.end as usize <= a);
                let hi = runs.partition_point(|s| (s.start as usize) < b);
                for s in &runs[lo..hi] {
                    let s0 = (s.start as usize).max(a) - a;
                    let s1 = (s.end as usize).min(b) - a;
                    row.fill_range(s0, s1, s.value);
                }
                let sites = self.site_index[r]..self.site_index[r + 1];
                splice_colored(row, a, &self.sites[sites.clone()], &self.colors[sites]);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpfill_cubes::gen::random_cube_set;
    use dpfill_cubes::packed::PackedCubeSet;
    use dpfill_cubes::{Bit, CubeSet};

    use crate::bcp::test_support::coloring;
    use crate::stream::analyze::WindowedAnalyzer;
    use crate::MatrixMapping;

    /// The cubes `[start, end)` of `cubes`, transposed to pin rows.
    fn window(cubes: &CubeSet, start: usize, end: usize) -> PackedMatrix {
        let mut slice = PackedCubeSet::new(cubes.width());
        for i in start..end {
            slice.push(cubes.as_packed().cube(i).clone());
        }
        PackedMatrix::from_packed_set(&slice)
    }

    /// Splices `cubes` window by window through a plan colored by
    /// `color` and asserts the result equals the monolithic
    /// `apply_coloring` of the same coloring, at every window size in
    /// {1, 2, 3, 5}.
    fn assert_windows_match_whole_set(cubes: &CubeSet, color: impl Fn(&IntervalSite) -> u32) {
        let mapping = MatrixMapping::analyze(cubes);
        let colors: Vec<u32> = mapping.sites().iter().map(&color).collect();
        let whole = mapping.apply_coloring(&coloring(colors.clone()));
        for size in [1, 2, 3, 5] {
            let mut analyzer = WindowedAnalyzer::with_weights(cubes.width(), None);
            for start in (0..cubes.len()).step_by(size) {
                analyzer.ingest(&window(cubes, start, (start + size).min(cubes.len())));
            }
            let analysis = analyzer.finish();
            assert_eq!(analysis.sites, mapping.sites(), "window {size}");
            let plan = FillPlan::new(
                cubes.width(),
                analysis.segments,
                analysis.sites,
                colors.clone(),
            );
            let mut out = PackedCubeSet::new(cubes.width());
            for start in (0..cubes.len()).step_by(size) {
                let mut m = window(cubes, start, (start + size).min(cubes.len()));
                plan.apply_window(&mut m, start);
                for cube in m.to_packed_set().cubes() {
                    out.push(cube.clone());
                }
            }
            assert_eq!(CubeSet::from_packed(out), whole, "window {size}");
        }
    }

    #[test]
    fn window_splices_clip_to_the_window() {
        // One pin, 6 cubes, one safe run [1, 5) of zeros across windows
        // of 2.
        let cubes = CubeSet::parse_rows(&["0", "X", "X", "X", "X", "0"]).unwrap();
        assert_windows_match_whole_set(&cubes, |s| s.left);
        let plan = FillPlan::new(
            1,
            vec![Segment {
                row: 0,
                start: 1,
                end: 5,
                value: Bit::One,
            }],
            Vec::new(),
            Vec::new(),
        );
        let mut out = Vec::new();
        for start in (0..6).step_by(2) {
            let mut m = window(&cubes, start, start + 2);
            plan.apply_window(&mut m, start);
            for c in m.to_packed_set().cubes() {
                out.push(c.to_string());
            }
        }
        assert_eq!(out, ["0", "1", "1", "1", "1", "0"]);
    }

    #[test]
    fn every_color_of_a_long_stretch_splices_like_the_whole_row() {
        // Pin 0: a stretch 0 X^7 1 spanning three or more windows at
        // sizes 1, 2 and 3, then a safe run 1 X 1. Pin 1: a safe run
        // 0 X 0 and a stretch 0 X X 1 sharing the first windows. Every
        // color of pin 0's stretch is tried, so colors land on the first
        // and the last transition of a window and on window boundaries.
        let rows = [
            "00", "XX", "X0", "XX", "XX", "X1", "XX", "XX", "11", "XX", "1X",
        ];
        let cubes = CubeSet::parse_rows(&rows).unwrap();
        for j in 0..8u32 {
            assert_windows_match_whole_set(&cubes, |s| if s.row == 0 { j } else { s.left });
            assert_windows_match_whole_set(&cubes, |s| if s.row == 0 { j } else { s.right - 1 });
        }
    }

    #[test]
    fn random_sets_splice_like_the_whole_set_under_every_coloring_shape() {
        for (seed, density) in [(1u64, 0.7), (2, 0.9), (3, 0.4), (4, 0.95)] {
            let cubes = random_cube_set(9, 23, density, seed);
            // First transition, MT (last transition), middle, and a
            // hashed spread of positions.
            assert_windows_match_whole_set(&cubes, |s| s.left);
            assert_windows_match_whole_set(&cubes, |s| s.right - 1);
            assert_windows_match_whole_set(&cubes, |s| (s.left + s.right - 1) / 2);
            assert_windows_match_whole_set(&cubes, |s| {
                s.left + (s.row * 7 + s.left * 13) % (s.right - s.left)
            });
        }
    }

    #[test]
    fn mt_coloring_copies_the_left_value_through_each_run() {
        // MT-fill is the coloring `right − 1`: the streamed splice must
        // equal the monolithic MT fill.
        use crate::fill::{FillStrategy, MtFill};
        let cubes = random_cube_set(11, 19, 0.8, 7);
        let mapping = MatrixMapping::analyze(&cubes);
        let colors = mapping.sites().iter().map(|s| s.right - 1).collect();
        assert_eq!(
            mapping.apply_coloring(&coloring(colors)),
            MtFill.fill(&cubes)
        );
        assert_windows_match_whole_set(&cubes, |s| s.right - 1);
    }

    #[test]
    fn sites_are_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<IntervalSite>(), 16);
    }

    #[test]
    fn grouping_by_row_is_stable() {
        let events = [(2u32, 0), (0, 1), (2, 2), (1, 3), (0, 4)];
        let (grouped, index) = group_by_row(events.to_vec(), 3, |e| e.0);
        assert_eq!(grouped, [(0, 1), (0, 4), (1, 3), (2, 0), (2, 2)]);
        assert_eq!(index, [0, 2, 3, 5]);
    }
}
