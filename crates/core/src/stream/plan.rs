//! The resolved fill plan: every `X` of the input mapped to its value.
//!
//! Every planned fill runs the filled-value plane of
//! [`MatrixMapping::apply_coloring`](crate::MatrixMapping::apply_coloring):
//! each `X` takes the nearest care value to its left, and a transition
//! stretch colored `j` flips its pin from cube `j + 1` on. The plan is
//! each pin's first care value (what a leading `X`-run copies) and the
//! solve's pins bucketed by color ([`Flips`]) — none for MT-fill, which
//! is copy-left with no flips.
//!
//! The emit pass carries the filled-value plane `F` across windows, so
//! [`FillPlan`] fills any **window** of cubes with the kernel the
//! monolithic reconstruction runs on the whole set. The plan also holds
//! pass 1's 64-bit digest of each cube, which pass 2 checks before
//! filling a window.

use dpfill_cubes::packed::PackedBits;
use dpfill_cubes::CubeSet;

use crate::mapping::{advance, fill_cubes, Flips};

/// A window-sliceable description of the complete fill.
pub(crate) struct FillPlan {
    /// Bit `r` is pin `r`'s first care value (see
    /// [`Analysis::first_values`](super::analyze::Analysis::first_values)).
    first_values: Vec<u64>,
    /// The pins that flip at each transition.
    flips: Flips,
    /// Pass 1's digest of each cube, in stream order.
    digests: Vec<u64>,
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
    /// Builds a plan from pass 1's per-pin first values, the solve's
    /// `flips` and the per-cube `digests`.
    pub fn new(first_values: Vec<u64>, flips: Flips, digests: Vec<u64>) -> FillPlan {
        FillPlan {
            first_values,
            flips,
            digests,
        }
    }

    /// Bytes held by the resolved plan — resident for the whole emit
    /// pass, charged against the memory budget up front: 4 B per
    /// interval (its pin, bucketed by color) and 8 B per transition of
    /// bucket offset, the first-value bits and 8 B of digest per cube.
    /// Safe runs cost nothing.
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        self.flips.approx_bytes()
            + ((self.first_values.len() + self.digests.len()) * size_of::<u64>()) as u64
    }

    /// The plane before the first cube: each pin's first care value.
    pub fn initial_carry(&self) -> Vec<u64> {
        self.first_values.clone()
    }

    /// Admits the window `cubes`, read at stream offset `start`: checks
    /// each against the digest pass 1 recorded there and advances the
    /// filled-value plane `carry` over the window. Returns the plane
    /// before the window's first cube, or `None` when a cube is not the
    /// one pass 1 read.
    pub fn admit(&self, start: usize, cubes: &[PackedBits], carry: &mut [u64]) -> Option<Vec<u64>> {
        let digests = self.digests.get(start..start + cubes.len())?;
        if cubes.iter().zip(digests).any(|(c, &d)| cube_digest(c) != d) {
            return None;
        }
        let into = carry.to_vec();
        advance(cubes, start, carry, &self.flips);
        Some(into)
    }

    /// Fills the window `original`, cubes `start..` of the stream, from
    /// the plane `carry` before its first cube.
    pub fn fill_window(&self, original: &CubeSet, start: usize, carry: &[u64]) -> CubeSet {
        let mut filled = original.clone();
        let mut plane = carry.to_vec();
        fill_cubes(filled.packed_cubes_mut(), start, &mut plane, &self.flips);
        filled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpfill_cubes::gen::random_cube_set;
    use dpfill_cubes::packed::PackedCubeSet;

    use crate::bcp::test_support::coloring;
    use crate::stream::analyze::Analyzer;
    use crate::{Interval, MatrixMapping};

    /// Fills `cubes` window by window through `plan`, carrying the
    /// filled-value plane across windows of `size` cubes like the emit
    /// pass does.
    fn fill_windowed(cubes: &CubeSet, plan: &FillPlan, size: usize) -> CubeSet {
        let mut carry = plan.initial_carry();
        let mut out = PackedCubeSet::new(cubes.width());
        for start in (0..cubes.len()).step_by(size) {
            let end = (start + size).min(cubes.len());
            let read = &cubes.as_packed().cubes()[start..end];
            let into = plan.admit(start, read, &mut carry).expect("pass 1's cubes");
            let window =
                CubeSet::from_packed(PackedCubeSet::from_rows(cubes.width(), read.to_vec()));
            for cube in plan.fill_window(&window, start, &into).as_packed().cubes() {
                out.push(cube.clone());
            }
        }
        CubeSet::from_packed(out)
    }

    /// Fills `cubes` window by window through a plan colored by `color`
    /// and asserts the result equals the monolithic `apply_coloring` of
    /// the same coloring, at every window size in {1, 2, 3, 5}.
    fn assert_windows_match_whole_set(cubes: &CubeSet, color: impl Fn(Interval, u32) -> u32) {
        let mapping = MatrixMapping::analyze(cubes);
        let colors: Vec<u32> = (mapping.instance().intervals().iter())
            .zip(mapping.pins())
            .map(|(&iv, &pin)| color(iv, pin))
            .collect();
        let whole = mapping.apply_coloring(&coloring(colors.clone()));
        let digests: Vec<u64> = cubes.as_packed().cubes().iter().map(cube_digest).collect();
        for size in [1, 2, 3, 5] {
            let mut analyzer = Analyzer::new(cubes.width(), None, false);
            for chunk in cubes.as_packed().cubes().chunks(size) {
                analyzer.ingest(chunk);
            }
            let analysis = analyzer.finish();
            assert_eq!(analysis.pins, mapping.pins(), "window {size}");
            let flips = Flips::new(&analysis.pins, &colors, mapping.instance().num_colors());
            let plan = FillPlan::new(analysis.first_values, flips, digests.clone());
            assert_eq!(fill_windowed(cubes, &plan, size), whole, "window {size}");
        }
    }

    #[test]
    fn window_splices_clip_to_the_window() {
        // One pin, 6 cubes, one safe run [1, 5) of zeros across windows
        // of 2.
        let cubes = CubeSet::parse_rows(&["0", "X", "X", "X", "X", "0"]).unwrap();
        assert_windows_match_whole_set(&cubes, |iv, _| iv.start());
        // The stretch 0 X X X X 1 colored 1 flips from cube 2 on,
        // across windows of 2.
        let cubes = CubeSet::parse_rows(&["0", "X", "X", "X", "X", "1"]).unwrap();
        let digests = cubes.as_packed().cubes().iter().map(cube_digest).collect();
        let plan = FillPlan::new(vec![0], Flips::new(&[0], &[1], 5), digests);
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
        assert_windows_match_whole_set(&cubes, |iv, _| iv.start());
        let analysis = {
            let mut analyzer = Analyzer::new(2, None, false);
            analyzer.ingest(cubes.as_packed().cubes());
            analyzer.finish()
        };
        assert!(analysis.intervals.is_empty());
        let digests = cubes.as_packed().cubes().iter().map(cube_digest).collect();
        let plan = FillPlan::new(analysis.first_values, Flips::default(), digests);
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
        let plan = FillPlan::new(vec![0b10], Flips::default(), digests);
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
            let first = |iv: Interval, pin| if pin == 0 { j } else { iv.start() };
            assert_windows_match_whole_set(&cubes, first);
            let last = |iv: Interval, pin| if pin == 0 { j } else { iv.end() };
            assert_windows_match_whole_set(&cubes, last);
        }
    }

    #[test]
    fn random_sets_splice_like_the_whole_set_under_every_coloring_shape() {
        for (seed, density) in [(1u64, 0.7), (2, 0.9), (3, 0.4), (4, 0.95)] {
            let cubes = random_cube_set(9, 23, density, seed);
            // First transition, MT (last transition), middle, and a
            // hashed spread of positions.
            assert_windows_match_whole_set(&cubes, |iv, _| iv.start());
            assert_windows_match_whole_set(&cubes, |iv, _| iv.end());
            assert_windows_match_whole_set(&cubes, |iv, _| (iv.start() + iv.end()) / 2);
            assert_windows_match_whole_set(&cubes, |iv, pin| {
                iv.start() + (pin * 7 + iv.start() * 13) % iv.len() as u32
            });
        }
    }

    #[test]
    fn mt_coloring_copies_the_left_value_through_each_run() {
        // MT-fill is the coloring `end`: the streamed fill must equal
        // the monolithic MT fill.
        use crate::fill::{FillStrategy, MtFill};
        let cubes = random_cube_set(11, 19, 0.8, 7);
        let mapping = MatrixMapping::analyze(&cubes);
        let colors = mapping.instance().intervals().iter().map(|iv| iv.end());
        assert_eq!(
            mapping.apply_coloring(&coloring(colors.collect())),
            MtFill.fill(&cubes)
        );
        assert_windows_match_whole_set(&cubes, |iv, _| iv.end());
    }

    #[test]
    fn the_plan_charges_four_bytes_per_interval() {
        // 4 B per bucketed pin, 8 B per transition offset, first-value
        // words and digests: the governor's model is the structures'.
        let flips = Flips::new(&[0, 1, 0], &[0, 1, 2], 3);
        let plan = FillPlan::new(vec![0], flips, vec![0; 4]);
        let per = std::mem::size_of::<u32>() as u64;
        let per_color = std::mem::size_of::<usize>() as u64;
        let word = std::mem::size_of::<u64>() as u64;
        assert_eq!(plan.approx_bytes(), 3 * per + 4 * per_color + 5 * word);
        assert!(per <= 16);
    }
}
