//! The scalar stretch classifier — the reference for `dpfill-cubes`'
//! cube-major Fig. 2(c) tally ([`StretchStats::of_cubes`]) and, through
//! [`analyze_pin_major`](crate::analyze_pin_major), for `dpfill-core`'s
//! analyzer.
//!
//! One scanner ([`scan_row`]) walks a pin row bit by bit against the
//! row's carried last care bit and classifies each care arrival with
//! [`classify_arrival`]; [`RowStretches::analyze`] closes a whole row,
//! and [`stretch_stats_scalar`] tallies every row of a [`PinMatrix`].
//!
//! [`StretchStats::of_cubes`]: dpfill_cubes::stretch::StretchStats::of_cubes

use dpfill_cubes::stretch::{StretchStats, LENGTH_BUCKETS};
use dpfill_cubes::Bit;

use crate::PinMatrix;

/// One classified feature of a pin row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stretch {
    /// `X` run before the first care bit: columns `[0, first_care)`.
    Leading {
        /// Column of the first care bit.
        first_care: usize,
    },
    /// `X` run after the last care bit: columns `(last_care, n)`.
    Trailing {
        /// Column of the last care bit.
        last_care: usize,
    },
    /// `v X…X v`: columns `(left, right)` exclusive are `X`, both ends
    /// carry the same care value.
    SameValue {
        /// Column of the left care bit.
        left: usize,
        /// Column of the right care bit.
        right: usize,
        /// The shared care value.
        value: Bit,
    },
    /// `v X…X w` with `v ≠ w`: one unavoidable toggle somewhere in the
    /// transition window `[left, right-1]` (the paper's interval
    /// `(k, l-1)`).
    Transition {
        /// Column of the left care bit (`k`).
        left: usize,
        /// Column of the right care bit (`l`).
        right: usize,
        /// Value of the left care bit.
        left_value: Bit,
    },
    /// Opposite care bits in adjacent columns: a toggle at transition
    /// `col → col+1` that no filling can avoid.
    ForcedToggle {
        /// The transition index (between columns `col` and `col+1`).
        col: usize,
    },
    /// The whole row is `X`: fill with any constant, no toggles.
    AllX,
}

impl Stretch {
    /// Number of `X` bits covered by this stretch (`0` for forced toggles).
    pub fn x_len(&self, row_len: usize) -> usize {
        match *self {
            Stretch::Leading { first_care } => first_care,
            Stretch::Trailing { last_care } => row_len - last_care - 1,
            Stretch::SameValue { left, right, .. } | Stretch::Transition { left, right, .. } => {
                right - left - 1
            }
            Stretch::ForcedToggle { .. } => 0,
            Stretch::AllX => row_len,
        }
    }
}

/// The stretch emitted on arriving at care bit `(pos, value)` with
/// `prev` the previous care bit (if any).
fn classify_arrival(prev: Option<(usize, Bit)>, pos: usize, value: Bit) -> Option<Stretch> {
    match prev {
        None => (pos > 0).then_some(Stretch::Leading { first_care: pos }),
        Some((left, lv)) => {
            if pos == left + 1 {
                lv.conflicts(value)
                    .then_some(Stretch::ForcedToggle { col: left })
            } else if lv == value {
                Some(Stretch::SameValue {
                    left,
                    right: pos,
                    value: lv,
                })
            } else {
                Some(Stretch::Transition {
                    left,
                    right: pos,
                    left_value: lv,
                })
            }
        }
    }
}

/// The stretch closing an `n`-bit row after its last care bit `prev`
/// (if any).
fn classify_end(prev: Option<(usize, Bit)>, n: usize) -> Option<Stretch> {
    match prev {
        None => (n > 0).then_some(Stretch::AllX),
        Some((last, _)) => (last + 1 < n).then_some(Stretch::Trailing { last_care: last }),
    }
}

/// Walks `row`, which holds columns `[start, start + row.len())` of a
/// pin, bit by bit against the pin's carried last care bit `prev`:
/// every care bit reports the stretch it closes to `f` and becomes the
/// new `prev`.
pub(crate) fn scan_row(
    row: &[Bit],
    start: usize,
    prev: &mut Option<(usize, Bit)>,
    mut f: impl FnMut(Stretch),
) {
    for (i, &value) in row.iter().enumerate() {
        if value.is_care() {
            if let Some(s) = classify_arrival(*prev, start + i, value) {
                f(s);
            }
            *prev = Some((start + i, value));
        }
    }
}

/// Classified features of one row, in left-to-right order.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct RowStretches {
    stretches: Vec<Stretch>,
}

impl RowStretches {
    /// Analyzes one pin row.
    pub fn analyze(row: &[Bit]) -> RowStretches {
        let mut stretches = Vec::new();
        let mut prev = None;
        scan_row(row, 0, &mut prev, |s| stretches.push(s));
        stretches.extend(classify_end(prev, row.len()));
        RowStretches { stretches }
    }

    /// The classified stretches in order.
    pub fn stretches(&self) -> &[Stretch] {
        &self.stretches
    }

    /// Number of transition stretches (= BCP intervals from this row).
    pub fn transition_count(&self) -> usize {
        self.stretches
            .iter()
            .filter(|s| matches!(s, Stretch::Transition { .. }))
            .count()
    }

    /// Number of forced toggles in this row.
    pub fn forced_count(&self) -> usize {
        self.stretches
            .iter()
            .filter(|s| matches!(s, Stretch::ForcedToggle { .. }))
            .count()
    }
}

/// Fig. 2(c)'s statistics, field by field as `StretchStats` reports
/// them.
#[derive(Clone, Debug, PartialEq)]
pub struct StretchTally {
    /// Stretch counts per [`LENGTH_BUCKETS`] bucket.
    pub histogram: Vec<usize>,
    /// Number of stretches.
    pub total_stretches: usize,
    /// `X` bits covered by stretches.
    pub total_x_bits: usize,
    /// Longest stretch.
    pub max_len: usize,
    /// Mean stretch length (`0` without stretches).
    pub mean_len: f64,
    /// Number of transition stretches.
    pub transition_stretches: usize,
    /// Number of forced toggles.
    pub forced_toggles: usize,
}

impl From<&StretchStats> for StretchTally {
    /// Reads a production tally through its accessors, for a
    /// field-by-field comparison.
    fn from(stats: &StretchStats) -> StretchTally {
        StretchTally {
            histogram: stats.histogram().to_vec(),
            total_stretches: stats.total_stretches(),
            total_x_bits: stats.total_x_bits(),
            max_len: stats.max_len(),
            mean_len: stats.mean_len(),
            transition_stretches: stats.transition_stretches(),
            forced_toggles: stats.forced_toggles(),
        }
    }
}

/// Tallies the stretches of every row of `matrix`: every non-empty
/// stretch counts once in its length bucket, forced toggles separately.
pub fn stretch_stats_scalar(matrix: &PinMatrix) -> StretchTally {
    let mut tally = StretchTally {
        histogram: vec![0; LENGTH_BUCKETS.len()],
        total_stretches: 0,
        total_x_bits: 0,
        max_len: 0,
        mean_len: 0.0,
        transition_stretches: 0,
        forced_toggles: 0,
    };
    for row in matrix.iter_rows() {
        for &s in RowStretches::analyze(row).stretches() {
            let len = s.x_len(row.len());
            if let Stretch::ForcedToggle { .. } = s {
                tally.forced_toggles += 1;
            } else if len > 0 {
                let bucket = LENGTH_BUCKETS
                    .iter()
                    .position(|&(lo, hi)| (lo..=hi).contains(&len))
                    .expect("the buckets cover every length");
                tally.histogram[bucket] += 1;
                tally.total_stretches += 1;
                tally.total_x_bits += len;
                tally.max_len = tally.max_len.max(len);
                if let Stretch::Transition { .. } = s {
                    tally.transition_stretches += 1;
                }
            }
        }
    }
    if tally.total_stretches > 0 {
        tally.mean_len = tally.total_x_bits as f64 / tally.total_stretches as f64;
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pin_matrix_scalar;
    use dpfill_cubes::{CubeSet, TestCube};

    fn row(s: &str) -> Vec<Bit> {
        s.chars().map(|c| Bit::from_char(c).unwrap()).collect()
    }

    #[test]
    fn classifies_all_stretch_kinds() {
        let r = row("XX0XX0X1X1X1XX");
        //          ^^leading
        //            ^same 0..0
        //                ^transition 0->1 (cols 5..7)
        //                  ^same? col7=1,col9=1 -> same
        //                       col9..col11: 1 X 1 same
        //                           trailing XX
        let rs = RowStretches::analyze(&r);
        let kinds: Vec<&Stretch> = rs.stretches().iter().collect();
        assert!(matches!(kinds[0], Stretch::Leading { first_care: 2 }));
        assert!(matches!(
            kinds[1],
            Stretch::SameValue {
                left: 2,
                right: 5,
                value: Bit::Zero
            }
        ));
        assert!(matches!(
            kinds[2],
            Stretch::Transition {
                left: 5,
                right: 7,
                left_value: Bit::Zero
            }
        ));
        assert!(matches!(
            kinds[3],
            Stretch::SameValue {
                left: 7,
                right: 9,
                ..
            }
        ));
        assert!(matches!(
            kinds[4],
            Stretch::SameValue {
                left: 9,
                right: 11,
                ..
            }
        ));
        assert!(matches!(kinds[5], Stretch::Trailing { last_care: 11 }));
    }

    #[test]
    fn forced_toggle_detected() {
        let rs = RowStretches::analyze(&row("01X0"));
        assert_eq!(rs.forced_count(), 1);
        assert!(matches!(
            rs.stretches()[0],
            Stretch::ForcedToggle { col: 0 }
        ));
        // 1 X 0 is a transition stretch.
        assert_eq!(rs.transition_count(), 1);
    }

    #[test]
    fn adjacent_equal_care_bits_produce_nothing() {
        let rs = RowStretches::analyze(&row("0011"));
        // Only the forced toggle between columns 1 and 2.
        assert_eq!(rs.stretches().len(), 1);
        assert!(matches!(
            rs.stretches()[0],
            Stretch::ForcedToggle { col: 1 }
        ));
    }

    #[test]
    fn all_x_row() {
        let rs = RowStretches::analyze(&row("XXXX"));
        assert_eq!(rs.stretches(), &[Stretch::AllX]);
        assert_eq!(rs.stretches()[0].x_len(4), 4);
    }

    #[test]
    fn empty_row() {
        let rs = RowStretches::analyze(&[]);
        assert!(rs.stretches().is_empty());
    }

    #[test]
    fn single_care_bit_row() {
        let rs = RowStretches::analyze(&row("XX1X"));
        assert_eq!(rs.stretches().len(), 2);
        assert!(matches!(
            rs.stretches()[0],
            Stretch::Leading { first_care: 2 }
        ));
        assert!(matches!(
            rs.stretches()[1],
            Stretch::Trailing { last_care: 2 }
        ));
    }

    #[test]
    fn x_len_computations() {
        assert_eq!(Stretch::Leading { first_care: 3 }.x_len(10), 3);
        assert_eq!(Stretch::Trailing { last_care: 6 }.x_len(10), 3);
        assert_eq!(
            Stretch::Transition {
                left: 2,
                right: 7,
                left_value: Bit::Zero
            }
            .x_len(10),
            4
        );
        assert_eq!(Stretch::ForcedToggle { col: 1 }.x_len(10), 0);
        assert_eq!(Stretch::AllX.x_len(10), 10);
    }

    #[test]
    fn packed_scanner_matches_scalar_analyze() {
        // Each row as one pin over its cubes: the cube-major tally sees
        // every kind of arrival the scalar walk classifies, on rows of
        // one cube, all-X rows and rows of forced toggles only.
        let rows = ["XX0XX0X1X1X1XX", "01X0", "0011", "XXXX", "XX1X", "0", "X"];
        for r in rows {
            let cubes = row(r).into_iter().map(|b| TestCube::new(vec![b]));
            let set = CubeSet::from_cubes(cubes).unwrap();
            let packed = StretchStats::of_cubes(set.as_packed());
            let scalar = stretch_stats_scalar(&pin_matrix_scalar(&set));
            assert_eq!(StretchTally::from(&packed), scalar, "row {r}");
        }
    }

    #[test]
    fn packed_stats_match_scalar_stats() {
        // Densities from X-rich to fully specified.
        for (seed, density) in [(0u64, 0.75), (1, 0.75), (2, 0.2), (3, 0.05), (4, 0.0)] {
            let set = dpfill_cubes::gen::random_cube_set(90, 70, density, seed);
            let scalar = stretch_stats_scalar(&pin_matrix_scalar(&set));
            let packed = StretchStats::of_cubes(set.as_packed());
            assert_eq!(StretchTally::from(&packed), scalar, "seed {seed}");
        }
    }
}
