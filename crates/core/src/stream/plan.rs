//! The resolved fill plan: every `X` of the input mapped to its value.
//!
//! Every planned fill is "copy-left, then flip": each `X` takes the
//! nearest care value to its left, and a transition stretch colored `j`
//! flips its columns after `j` to its right value. The plan is each
//! pin's first care value (what a leading `X`-run copies) and the
//! solve's row-major [`IntervalSite`]s with their colors — none for
//! MT-fill, which is copy-left with no flips.
//!
//! The emit pass carries each pin's last care value across windows, so
//! [`FillPlan`] fills any **window** of columns through [`fill_row`],
//! the row kernel
//! [`MatrixMapping::apply_coloring`](crate::MatrixMapping::apply_coloring)
//! runs on whole rows. The plan also holds pass 1's 64-bit digest of
//! each cube, which pass 2 checks before filling a window.

use dpfill_cubes::packed::{PackedBits, PackedMatrix};

use crate::mapping::{fill_row, IntervalSite};

/// A window-sliceable description of the complete fill.
pub(crate) struct FillPlan {
    /// Bit `r` is pin `r`'s first care value (see
    /// [`Analysis::first_values`](super::analyze::Analysis::first_values)).
    first_values: Vec<u64>,
    /// Transition stretches in row-major order, and the color of each.
    sites: Vec<IntervalSite>,
    colors: Vec<u32>,
    /// `sites[site_index[r]..site_index[r + 1]]` are row `r`'s sites.
    site_index: Vec<usize>,
    /// Pass 1's digest of each cube, in stream order.
    digests: Vec<u64>,
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

/// A 64-bit digest of one cube's plane words. Each step is a bijection
/// of the running state for a fixed word, so cubes that differ in a
/// single word always digest differently.
pub(super) fn cube_digest(cube: &PackedBits) -> u64 {
    const K: u64 = 0x517C_C1B7_2722_0A95;
    let words = cube.care_words().iter().chain(cube.value_words());
    words.fold(cube.len() as u64, |h, &w| {
        (h.rotate_left(5) ^ w).wrapping_mul(K)
    })
}

impl FillPlan {
    /// Builds a plan from pass 1's per-pin first values, the row-major
    /// `sites` colored by `colors`, and the per-cube `digests`.
    ///
    /// # Panics
    ///
    /// Panics if `colors` and `sites` differ in length.
    pub fn new(
        width: usize,
        first_values: Vec<u64>,
        sites: Vec<IntervalSite>,
        colors: Vec<u32>,
        digests: Vec<u64>,
    ) -> FillPlan {
        assert_eq!(
            colors.len(),
            sites.len(),
            "coloring does not match interval count"
        );
        let site_index = row_index(&sites, width, |s| s.row);
        FillPlan {
            first_values,
            sites,
            colors,
            site_index,
            digests,
        }
    }

    /// Bytes held by the resolved plan — resident for the whole emit
    /// pass, charged against the memory budget up front: 20 B per site
    /// (the site and its color), the row index, the first-value bits
    /// and 8 B of digest per cube. Safe runs cost nothing.
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        (self.sites.len() * (size_of::<IntervalSite>() + size_of::<u32>())
            + self.site_index.len() * size_of::<usize>()
            + (self.first_values.len() + self.digests.len()) * size_of::<u64>()) as u64
    }

    /// The carry into the first window: each pin's first care value.
    pub fn initial_carry(&self) -> Vec<u64> {
        self.first_values.clone()
    }

    /// Admits the window `cubes`, read at stream offset `start`: checks
    /// each against the digest pass 1 recorded there and folds it into
    /// the per-pin `carry` (pins a cube specifies take its value, word by
    /// word). Returns the carry into the window's first column, or
    /// `None` when a cube is not the one pass 1 read.
    pub fn admit(&self, start: usize, cubes: &[PackedBits], carry: &mut [u64]) -> Option<Vec<u64>> {
        let digests = self.digests.get(start..start + cubes.len())?;
        let into = carry.to_vec();
        for (cube, &digest) in cubes.iter().zip(digests) {
            if cube_digest(cube) != digest {
                return None;
            }
            let planes = cube.care_words().iter().zip(cube.value_words());
            for (c, (&care, &val)) in carry.iter_mut().zip(planes) {
                *c = (*c & !care) | val;
            }
        }
        Some(into)
    }

    /// Fills columns `[start_col, start_col + matrix.cols())` in place:
    /// every row goes through [`fill_row`] with its bit of `carry` (the
    /// pin's last care value before the window, or its first care value
    /// before any). Rows are disjoint, so row chunks fan out over the
    /// current [`minipool`] pool; per row the overlapping sites are a
    /// contiguous slice found by two binary searches.
    pub fn apply_window(&self, matrix: &mut PackedMatrix, start_col: usize, carry: &[u64]) {
        minipool::parallel_chunks_mut(matrix.packed_rows_mut(), 4, |row0, rows| {
            for (r, row) in (row0..).zip(rows.iter_mut()) {
                let (lo, hi) = (self.site_index[r], self.site_index[r + 1]);
                let bit = carry[r / 64] >> (r % 64) & 1 == 1;
                fill_row(
                    row,
                    start_col,
                    bit,
                    &self.sites[lo..hi],
                    &self.colors[lo..hi],
                );
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

    /// Fills `cubes` window by window through `plan`, carrying each
    /// pin's last care value across windows of `size` cubes like the
    /// emit pass does.
    fn fill_windowed(cubes: &CubeSet, plan: &FillPlan, size: usize) -> CubeSet {
        let mut carry = plan.initial_carry();
        let mut out = PackedCubeSet::new(cubes.width());
        for start in (0..cubes.len()).step_by(size) {
            let end = (start + size).min(cubes.len());
            let read = &cubes.as_packed().cubes()[start..end];
            let into = plan.admit(start, read, &mut carry).expect("pass 1's cubes");
            let mut m = window(cubes, start, end);
            plan.apply_window(&mut m, start, &into);
            for cube in m.to_packed_set().cubes() {
                out.push(cube.clone());
            }
        }
        CubeSet::from_packed(out)
    }

    /// Fills `cubes` window by window through a plan colored by `color`
    /// and asserts the result equals the monolithic `apply_coloring` of
    /// the same coloring, at every window size in {1, 2, 3, 5}.
    fn assert_windows_match_whole_set(cubes: &CubeSet, color: impl Fn(&IntervalSite) -> u32) {
        let mapping = MatrixMapping::analyze(cubes);
        let colors: Vec<u32> = mapping.sites().iter().map(&color).collect();
        let whole = mapping.apply_coloring(&coloring(colors.clone()));
        let digests = cubes
            .as_packed()
            .cubes()
            .iter()
            .map(cube_digest)
            .collect::<Vec<_>>();
        for size in [1, 2, 3, 5] {
            let mut analyzer = WindowedAnalyzer::with_weights(cubes.width(), None);
            for start in (0..cubes.len()).step_by(size) {
                analyzer.ingest(&window(cubes, start, (start + size).min(cubes.len())));
            }
            let analysis = analyzer.finish();
            assert_eq!(analysis.sites, mapping.sites(), "window {size}");
            let plan = FillPlan::new(
                cubes.width(),
                analysis.first_values,
                analysis.sites,
                colors.clone(),
                digests.clone(),
            );
            assert_eq!(fill_windowed(cubes, &plan, size), whole, "window {size}");
        }
    }

    #[test]
    fn window_splices_clip_to_the_window() {
        // One pin, 6 cubes, one safe run [1, 5) of zeros across windows
        // of 2.
        let cubes = CubeSet::parse_rows(&["0", "X", "X", "X", "X", "0"]).unwrap();
        assert_windows_match_whole_set(&cubes, |s| s.left);
        // The stretch 0 X X X X 1 colored 1 flips columns [2, 5) to one,
        // clipped to each window of 2.
        let cubes = CubeSet::parse_rows(&["0", "X", "X", "X", "X", "1"]).unwrap();
        let site = IntervalSite {
            row: 0,
            left: 0,
            right: 5,
            left_value: Bit::Zero,
        };
        let digests = cubes.as_packed().cubes().iter().map(cube_digest).collect();
        let plan = FillPlan::new(1, vec![0], vec![site], vec![1], digests);
        let out: Vec<String> = fill_windowed(&cubes, &plan, 2)
            .iter()
            .map(|c| c.to_string())
            .collect();
        assert_eq!(out, ["0", "0", "1", "1", "1", "1"]);
    }

    #[test]
    fn safe_runs_copy_the_carried_care_value_across_windows() {
        // Pin 0: a `1 X…X 1` run spanning three windows of 2; pin 1: a
        // leading run (first care 0 at column 4) and a trailing run.
        let cubes = CubeSet::parse_rows(&["1X", "XX", "XX", "XX", "X0", "1X"]).unwrap();
        assert_windows_match_whole_set(&cubes, |s| s.left);
        let analysis = {
            let mut analyzer = WindowedAnalyzer::with_weights(2, None);
            analyzer.ingest(&window(&cubes, 0, 6));
            analyzer.finish()
        };
        assert!(analysis.sites.is_empty());
        let digests = cubes.as_packed().cubes().iter().map(cube_digest).collect();
        let plan = FillPlan::new(2, analysis.first_values, Vec::new(), Vec::new(), digests);
        let out: Vec<String> = fill_windowed(&cubes, &plan, 2)
            .iter()
            .map(|c| c.to_string())
            .collect();
        assert_eq!(out, ["10", "10", "10", "10", "10", "10"]);
    }

    #[test]
    fn digests_catch_a_same_shape_change() {
        let cubes = CubeSet::parse_rows(&["00", "11"]).unwrap();
        let changed = CubeSet::parse_rows(&["01", "10"]).unwrap();
        let digests = cubes.as_packed().cubes().iter().map(cube_digest).collect();
        let plan = FillPlan::new(2, vec![0b10], Vec::new(), Vec::new(), digests);
        let (read, other) = (cubes.as_packed().cubes(), changed.as_packed().cubes());
        let mut carry = plan.initial_carry();
        assert_eq!(plan.admit(0, read, &mut carry), Some(vec![0b10]));
        assert_eq!(carry, [0b11], "both pins last read 1");
        assert_eq!(plan.admit(1, &read[1..], &mut [0]), Some(vec![0]));
        assert_eq!(plan.admit(0, &other[..1], &mut [0]), None);
        assert_eq!(plan.admit(1, &other[1..], &mut [0]), None);
        // Past the digested cubes nothing is admitted.
        assert_eq!(plan.admit(2, &read[..1], &mut [0]), None);
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
