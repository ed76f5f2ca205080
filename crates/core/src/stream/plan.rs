//! The resolved fill plan: every `X` of the input mapped to its value.
//!
//! After the analysis pass and (for DP-fill) the global BCP solve —
//! warm-started by the analyzer's online bound — the whole fill is
//! describable as a list of horizontal [`Segment`]s —
//! scalar `(row, start, end, value)` records, two per transition
//! stretch and one per safe run. [`FillPlan`] indexes them by pin row
//! so the emit pass can splice any **window** of columns without the
//! rest of the matrix being resident: a segment overlapping the window
//! is clipped to it and applied as a word-level
//! [`fill_range`](dpfill_cubes::packed::PackedBits::fill_range), exactly
//! the splice the monolithic
//! [`MatrixMapping::apply_coloring`](crate::MatrixMapping::apply_coloring)
//! performs on the full matrix.

use dpfill_cubes::packed::PackedMatrix;

use crate::bcp::Coloring;
use crate::mapping::IntervalSite;

use super::analyze::Segment;

/// A window-sliceable description of the complete fill.
pub(crate) struct FillPlan {
    /// Sorted by `(row, start)`; per row the segments are disjoint and
    /// ordered, so both their starts and their ends are increasing.
    segments: Vec<Segment>,
    /// `segments[row_index[r]..row_index[r + 1]]` are row `r`'s
    /// segments.
    row_index: Vec<usize>,
}

impl FillPlan {
    /// Builds a plan from raw segments.
    pub fn new(width: usize, mut segments: Vec<Segment>) -> FillPlan {
        segments.sort_unstable_by_key(|s| (s.row, s.start));
        let mut row_index = vec![0usize; width + 1];
        for s in &segments {
            row_index[s.row as usize + 1] += 1;
        }
        for r in 0..width {
            row_index[r + 1] += row_index[r];
        }
        FillPlan {
            segments,
            row_index,
        }
    }

    /// Extends safe-run segments with the two splices of each colored
    /// transition stretch — the §V-D reconstruction, producing the same
    /// ranges as `apply_coloring`: left value through the toggle column,
    /// the opposite value after it.
    ///
    /// # Panics
    ///
    /// Panics if a color falls outside its site's stretch window (the
    /// BCP solvers guarantee validity).
    pub fn with_coloring(
        width: usize,
        mut segments: Vec<Segment>,
        sites: &[IntervalSite],
        coloring: &Coloring,
    ) -> FillPlan {
        assert_eq!(
            coloring.colors().len(),
            sites.len(),
            "coloring does not match interval count"
        );
        segments.reserve(sites.len() * 2);
        for (site, &color) in sites.iter().zip(coloring.colors()) {
            let j = color as usize;
            assert!(
                site.left <= j && j < site.right,
                "color {j} outside stretch window [{}, {})",
                site.left,
                site.right
            );
            if site.left < j {
                segments.push(Segment {
                    row: site.row as u32,
                    start: (site.left + 1) as u32,
                    end: (j + 1) as u32,
                    value: site.left_value,
                });
            }
            if j + 1 < site.right {
                segments.push(Segment {
                    row: site.row as u32,
                    start: (j + 1) as u32,
                    end: site.right as u32,
                    value: !site.left_value,
                });
            }
        }
        FillPlan::new(width, segments)
    }

    /// Resolves every transition stretch by copying its left care value
    /// through the whole run — the windowed MT-fill (each stretch
    /// collapses to one toggle at its right edge), matching
    /// [`fill_runs_copy_left`](dpfill_cubes::packed::PackedBits::fill_runs_copy_left)
    /// on the full pin row.
    pub fn with_copy_left(
        width: usize,
        mut segments: Vec<Segment>,
        sites: &[IntervalSite],
    ) -> FillPlan {
        segments.reserve(sites.len());
        for site in sites {
            segments.push(Segment {
                row: site.row as u32,
                start: (site.left + 1) as u32,
                end: site.right as u32,
                value: site.left_value,
            });
        }
        FillPlan::new(width, segments)
    }

    /// Bytes held by the resolved plan — resident for the whole emit
    /// pass, charged against the memory budget up front.
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        (self.segments.len() * size_of::<Segment>() + self.row_index.len() * size_of::<usize>())
            as u64
    }

    /// Splices every segment overlapping columns
    /// `[start_col, start_col + matrix.cols())` into the window,
    /// clipped. Rows are disjoint, so row chunks fan out over the
    /// current [`minipool`] pool; per row the overlapping segments are a
    /// contiguous slice found by two binary searches.
    pub fn apply_window(&self, matrix: &mut PackedMatrix, start_col: usize) {
        let a = start_col;
        let b = start_col + matrix.cols();
        minipool::parallel_chunks_mut(matrix.packed_rows_mut(), 4, |row0, rows| {
            for (i, row) in rows.iter_mut().enumerate() {
                let r = row0 + i;
                let segs = &self.segments[self.row_index[r]..self.row_index[r + 1]];
                // Disjoint + sorted per row: ends are increasing too, so
                // the overlap [a, b) is one contiguous run of segments.
                let lo = segs.partition_point(|s| s.end as usize <= a);
                let hi = segs.partition_point(|s| (s.start as usize) < b);
                for s in &segs[lo..hi] {
                    let s0 = (s.start as usize).max(a) - a;
                    let s1 = (s.end as usize).min(b) - a;
                    row.fill_range(s0, s1, s.value);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpfill_cubes::packed::PackedCubeSet;
    use dpfill_cubes::{Bit, CubeSet};

    #[test]
    fn window_splices_clip_to_the_window() {
        // One pin, 6 cubes, one segment [1, 5) of ones across windows of 2.
        let plan = FillPlan::new(
            1,
            vec![Segment {
                row: 0,
                start: 1,
                end: 5,
                value: Bit::One,
            }],
        );
        let cubes = CubeSet::parse_rows(&["0", "X", "X", "X", "X", "0"]).unwrap();
        let mut out = Vec::new();
        for start in (0..6).step_by(2) {
            let mut slice = PackedCubeSet::new(1);
            for i in start..start + 2 {
                slice.push(cubes.as_packed().cube(i).clone());
            }
            let mut m = PackedMatrix::from_packed_set(&slice);
            plan.apply_window(&mut m, start);
            for c in m.to_packed_set().cubes() {
                out.push(c.to_string());
            }
        }
        assert_eq!(out, ["0", "1", "1", "1", "1", "0"]);
    }
}
