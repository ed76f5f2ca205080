//! X-stretch analysis of pin rows.
//!
//! A *stretch* is a maximal run of `X` bits inside one pin's row (its value
//! across the ordered cubes). The DP-fill paper's interval mapping (§V-C)
//! classifies stretches by the care bits that delimit them:
//!
//! * `v X…X v` — *same-value* stretch: filled with `v`, zero toggles;
//! * `v X…X w`, `v ≠ w` — *transition* stretch: exactly one toggle whose
//!   position is free, i.e. one interval of the Bottleneck Coloring
//!   Problem;
//! * leading / trailing stretches — copy the nearest care bit, no toggle;
//! * a row with no care bit at all — fill constant, no toggle.
//!
//! Adjacent opposite care bits (`v w`, no `X` between) are *forced
//! toggles*; they are not stretches but are reported here because the
//! generalized solver needs them as baseline loads.
//!
//! Only transition stretches and forced toggles carry information past
//! the scan: every other `X` takes the nearest care value (the
//! copy-left fill, [`PackedBits::fill_copy_left`]) and never toggles, so
//! the safe stretches are filled, not stored.
//!
//! Fig 2(c) of the paper plots the statistics of stretch lengths for
//! different test-vector orderings; [`StretchStats`] reproduces those
//! numbers.

use crate::packed::{PackedBits, PackedMatrix};
use crate::{Bit, PinMatrix};

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
/// `prev` the previous care bit (if any): the rule of the packed
/// care-by-care scanners and of the windowed analyzer, which carries
/// `prev` across windows (and stitches each dense window's first care
/// bit with it). [`RowStretches::analyze`] keeps its own copy
/// as the scalar reference those scanners are tested against.
#[inline]
pub fn classify_arrival(prev: Option<(usize, Bit)>, pos: usize, value: Bit) -> Option<Stretch> {
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

/// The stretch closing the scan after the last care bit `prev` (if any)
/// of an `n`-bit row.
#[inline]
fn classify_end(prev: Option<(usize, Bit)>, n: usize) -> Option<Stretch> {
    match prev {
        None => (n > 0).then_some(Stretch::AllX),
        Some((last, _)) => (last + 1 < n).then_some(Stretch::Trailing { last_care: last }),
    }
}

/// Visits every classified feature of a packed row in left-to-right
/// order without allocating — the `trailing_zeros` scanner of
/// [`RowStretches::analyze_packed`] as a callback API. This is what the
/// aggregation paths ([`StretchStats::of_packed`]) run per row, so the
/// scan stays off the allocator even when thousands of rows are in
/// flight across the thread pool.
pub fn for_each_stretch(row: &PackedBits, mut f: impl FnMut(Stretch)) {
    let mut prev: Option<(usize, Bit)> = None;
    for (pos, value) in row.care_positions() {
        if let Some(s) = classify_arrival(prev, pos, value) {
            f(s);
        }
        prev = Some((pos, value));
    }
    if let Some(s) = classify_end(prev, row.len()) {
        f(s);
    }
}

/// `true` when the X-run ("dense-care") scanner is expected to beat the
/// care-position scanner on this row: care bits dominate, so hopping
/// over the *complement* of the care plane visits far fewer positions
/// than classifying every care arrival. The threshold (≤ 25% `X`) is a
/// heuristic — both scanners are exact, so the choice only moves time.
pub fn is_dense_row(row: &PackedBits) -> bool {
    dense_threshold(row.x_count(), row.len())
}

/// The dense/sparse decision on an already-computed `X` count, for
/// callers that need the count anyway and must not popcount twice.
#[inline]
fn dense_threshold(x_count: usize, len: usize) -> bool {
    x_count * 4 <= len
}

/// The dense-care twin of [`for_each_stretch`]: classifies by hopping
/// between **X-runs** (via [`PackedBits::next_x_at_or_after`]) and takes
/// the forced toggles word-wise from the adjacent-conflict mask
/// ([`PackedBits::adjacent_conflicts`]), so the cost scales with the
/// number of don't-care runs and conflicts instead of care bits. On a
/// fully specified row no stretch is ever classified — the ROADMAP's
/// dense-care fast path.
///
/// Emits exactly the event stream of [`for_each_stretch`], in the same
/// order: the two sorted streams (X-run events keyed by their closing
/// care column, conflicts by `col + 1`) merge by arrival position, and
/// the keys are provably distinct (a conflict needs care at `col`, a
/// stretch needs `X` there).
pub fn for_each_stretch_dense(row: &PackedBits, mut f: impl FnMut(Stretch)) {
    let n = row.len();
    if n == 0 {
        return;
    }
    let mut conflicts = row.adjacent_conflicts().peekable();
    let mut next_x = row.next_x_at_or_after(0);
    while let Some(s) = next_x {
        let run_end = row.next_care_at_or_after(s);
        let (event, arrival) = match run_end {
            None if s == 0 => (Stretch::AllX, n),
            None => (Stretch::Trailing { last_care: s - 1 }, n),
            Some((e, _)) if s == 0 => (Stretch::Leading { first_care: e }, e),
            Some((e, rv)) => {
                // `s` starts an X-run with s > 0, so column s-1 carries
                // a care bit: the stretch's left delimiter.
                let lv = row.get(s - 1);
                if lv == rv {
                    (
                        Stretch::SameValue {
                            left: s - 1,
                            right: e,
                            value: lv,
                        },
                        e,
                    )
                } else {
                    (
                        Stretch::Transition {
                            left: s - 1,
                            right: e,
                            left_value: lv,
                        },
                        e,
                    )
                }
            }
        };
        while let Some(&col) = conflicts.peek() {
            if col + 1 < arrival {
                f(Stretch::ForcedToggle { col });
                conflicts.next();
            } else {
                break;
            }
        }
        f(event);
        next_x = run_end.and_then(|(e, _)| row.next_x_at_or_after(e));
    }
    for col in conflicts {
        f(Stretch::ForcedToggle { col });
    }
}

/// Dispatches between the care-position scanner ([`for_each_stretch`])
/// and the X-run scanner ([`for_each_stretch_dense`]) per row — the
/// density-adaptive entry point the aggregation paths use.
pub fn for_each_stretch_auto(row: &PackedBits, f: impl FnMut(Stretch)) {
    if is_dense_row(row) {
        for_each_stretch_dense(row, f)
    } else {
        for_each_stretch(row, f)
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
        let care_positions: Vec<usize> = row
            .iter()
            .enumerate()
            .filter(|(_, b)| b.is_care())
            .map(|(i, _)| i)
            .collect();

        if care_positions.is_empty() {
            if !row.is_empty() {
                stretches.push(Stretch::AllX);
            }
            return RowStretches { stretches };
        }

        let first = care_positions[0];
        if first > 0 {
            stretches.push(Stretch::Leading { first_care: first });
        }
        for w in care_positions.windows(2) {
            let (left, right) = (w[0], w[1]);
            let (lv, rv) = (row[left], row[right]);
            if right == left + 1 {
                if lv.conflicts(rv) {
                    stretches.push(Stretch::ForcedToggle { col: left });
                }
            } else if lv == rv {
                stretches.push(Stretch::SameValue {
                    left,
                    right,
                    value: lv,
                });
            } else {
                stretches.push(Stretch::Transition {
                    left,
                    right,
                    left_value: lv,
                });
            }
        }
        // Non-empty: the all-X case returned above.
        if let Some(&last) = care_positions.last() {
            if last + 1 < row.len() {
                stretches.push(Stretch::Trailing { last_care: last });
            }
        }
        RowStretches { stretches }
    }

    /// Analyzes one packed pin row, hopping between care bits with
    /// `trailing_zeros` over the care plane instead of matching every
    /// element. Produces exactly the stretches of [`RowStretches::analyze`]
    /// on the unpacked row (differential-tested). This is the collecting
    /// wrapper over [`for_each_stretch`]; aggregation paths use the
    /// visitor directly and skip the `Vec`.
    pub fn analyze_packed(row: &PackedBits) -> RowStretches {
        let mut stretches = Vec::new();
        for_each_stretch(row, |s| stretches.push(s));
        RowStretches { stretches }
    }

    /// Collecting wrapper over the X-run scanner
    /// ([`for_each_stretch_dense`]); produces exactly the stretches of
    /// [`RowStretches::analyze_packed`] on any row (differential-tested
    /// in `crates/core/tests/dense_fastpath.rs`).
    pub fn analyze_dense(row: &PackedBits) -> RowStretches {
        let mut stretches = Vec::new();
        for_each_stretch_dense(row, |s| stretches.push(s));
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

/// Aggregate stretch-length statistics over a whole matrix — the data of
/// the paper's Fig 2(c).
#[derive(Clone, Debug, PartialEq)]
pub struct StretchStats {
    /// Histogram: `histogram[k]` = number of X-stretches of length
    /// `k+1` … capped at the last bucket.
    histogram: Vec<usize>,
    total_stretches: usize,
    total_x_bits: usize,
    max_len: usize,
    mean_len: f64,
    transition_stretches: usize,
    forced_toggles: usize,
}

/// Shared per-row aggregation behind [`StretchStats::of_matrix`] and
/// [`StretchStats::of_packed`].
#[derive(Default)]
struct StatsAccumulator {
    histogram: [usize; LENGTH_BUCKETS.len()],
    total: usize,
    xsum: usize,
    max_len: usize,
    transitions: usize,
    forced: usize,
}

impl StatsAccumulator {
    fn add(&mut self, s: Stretch, row_len: usize) {
        match s {
            Stretch::ForcedToggle { .. } => self.forced += 1,
            _ => {
                let len = s.x_len(row_len);
                if len == 0 {
                    return;
                }
                self.total += 1;
                self.xsum += len;
                self.max_len = self.max_len.max(len);
                if matches!(s, Stretch::Transition { .. }) {
                    self.transitions += 1;
                }
                // The final bucket's hi is usize::MAX, so the lookup
                // cannot miss; fold any impossible miss into it rather
                // than panicking mid-aggregation.
                let bucket = LENGTH_BUCKETS
                    .iter()
                    .position(|&(lo, hi)| len >= lo && len <= hi)
                    .unwrap_or(LENGTH_BUCKETS.len() - 1);
                self.histogram[bucket] += 1;
            }
        }
    }

    fn add_row(&mut self, rs: &RowStretches, row_len: usize) {
        for &s in rs.stretches() {
            self.add(s, row_len);
        }
    }

    /// Folds another accumulator in. Every field is a sum or a max, so
    /// the merge is associative and chunk-order merging reproduces the
    /// serial row-by-row tally exactly.
    fn merge(mut self, other: StatsAccumulator) -> StatsAccumulator {
        for (h, o) in self.histogram.iter_mut().zip(other.histogram) {
            *h += o;
        }
        self.total += other.total;
        self.xsum += other.xsum;
        self.max_len = self.max_len.max(other.max_len);
        self.transitions += other.transitions;
        self.forced += other.forced;
        self
    }

    fn finish(self) -> StretchStats {
        StretchStats {
            histogram: self.histogram.to_vec(),
            total_stretches: self.total,
            total_x_bits: self.xsum,
            max_len: self.max_len,
            mean_len: if self.total == 0 {
                0.0
            } else {
                self.xsum as f64 / self.total as f64
            },
            transition_stretches: self.transitions,
            forced_toggles: self.forced,
        }
    }
}

/// Bucket boundaries used for the Fig 2(c) histogram: stretch lengths
/// `1, 2, 3–4, 5–8, 9–16, 17–32, 33–64, >64`.
pub const LENGTH_BUCKETS: [(usize, usize); 8] = [
    (1, 1),
    (2, 2),
    (3, 4),
    (5, 8),
    (9, 16),
    (17, 32),
    (33, 64),
    (65, usize::MAX),
];

impl StretchStats {
    /// Computes the statistics over every row of the matrix. Leading,
    /// trailing, same-value and transition stretches all count (they are
    /// all "don't-care stretches"); forced toggles are tallied separately.
    pub fn of_matrix(matrix: &PinMatrix) -> StretchStats {
        let mut acc = StatsAccumulator::default();
        for row in matrix.iter_rows() {
            acc.add_row(&RowStretches::analyze(row), row.len());
        }
        acc.finish()
    }

    /// Computes the same statistics over a packed matrix using the
    /// `trailing_zeros` scanner — the fast path when the data already
    /// lives in the two-plane representation.
    ///
    /// Pin rows are independent, so they fan out over the current
    /// [`minipool`] pool in deterministic chunks; each worker tallies an
    /// allocation-free [`for_each_stretch`] visitor pass into a private
    /// accumulator and the per-chunk accumulators merge in chunk order —
    /// bit-identical to the serial walk at any thread count.
    /// Per row the scanner is density-adaptive: a fully specified row
    /// has no stretches at all, so its forced toggles come straight off
    /// the word-wise adjacent-conflict popcount
    /// ([`PackedBits::adjacent_conflict_count`]); dense rows use the
    /// X-run scanner; sparse rows the care-position scanner. All three
    /// tally identically (differential-tested).
    pub fn of_packed(matrix: &PackedMatrix) -> StretchStats {
        minipool::parallel_chunks(matrix.packed_rows(), 4, |_, rows| {
            let mut acc = StatsAccumulator::default();
            for row in rows {
                // One care-plane popcount decides all three branches.
                let x = row.x_count();
                if x == 0 {
                    acc.forced += row.adjacent_conflict_count();
                } else if dense_threshold(x, row.len()) {
                    for_each_stretch_dense(row, |s| acc.add(s, row.len()));
                } else {
                    for_each_stretch(row, |s| acc.add(s, row.len()));
                }
            }
            acc
        })
        .into_iter()
        .fold(StatsAccumulator::default(), StatsAccumulator::merge)
        .finish()
    }

    /// Histogram bucket counts aligned with [`LENGTH_BUCKETS`].
    pub fn histogram(&self) -> &[usize] {
        &self.histogram
    }

    /// Total number of X-stretches.
    pub fn total_stretches(&self) -> usize {
        self.total_stretches
    }

    /// Total `X` bits covered by stretches.
    pub fn total_x_bits(&self) -> usize {
        self.total_x_bits
    }

    /// Longest stretch observed.
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Mean stretch length (`0` when there are no stretches).
    pub fn mean_len(&self) -> f64 {
        self.mean_len
    }

    /// Number of transition (`v X…X w`) stretches = BCP intervals.
    pub fn transition_stretches(&self) -> usize {
        self.transition_stretches
    }

    /// Number of forced toggles (adjacent opposite care bits).
    pub fn forced_toggles(&self) -> usize {
        self.forced_toggles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CubeSet;

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
    fn matrix_stats() {
        let set = CubeSet::parse_rows(&["0X", "XX", "1X", "XX", "01"]).unwrap();
        // Matrix rows (pins over 5 cubes):
        // pin 0: 0 X 1 X 0  -> transition (0..2) len 1, transition (2..4) len 1
        // pin 1: X X X X 1  -> leading len 4
        let stats = StretchStats::of_matrix(&set.to_pin_matrix());
        assert_eq!(stats.total_stretches(), 3);
        assert_eq!(stats.transition_stretches(), 2);
        assert_eq!(stats.forced_toggles(), 0);
        assert_eq!(stats.max_len(), 4);
        assert_eq!(stats.total_x_bits(), 6);
        assert_eq!(stats.histogram()[0], 2); // two stretches of length 1
        assert_eq!(stats.histogram()[2], 1); // one of length 4 (bucket 3-4)
    }

    #[test]
    fn packed_scanner_matches_scalar_analyze() {
        use crate::packed::PackedBits;
        let rows = ["XX0XX0X1X1X1XX", "01X0", "0011", "XXXX", "XX1X", "0", "X"];
        for r in rows {
            let bits = row(r);
            let packed = PackedBits::from_bits(&bits);
            assert_eq!(
                RowStretches::analyze_packed(&packed),
                RowStretches::analyze(&bits),
                "row {r}"
            );
        }
        // Random rows straddling word boundaries.
        for seed in 0..10u64 {
            let set = crate::gen::random_cube_set(1, 70 + seed as usize * 13, 0.7, seed);
            let m = set.to_pin_matrix();
            let bits = m.row(0);
            assert_eq!(
                RowStretches::analyze_packed(&PackedBits::from_bits(bits)),
                RowStretches::analyze(bits),
                "seed {seed}"
            );
        }
        assert_eq!(
            RowStretches::analyze_packed(&PackedBits::all_x(0)),
            RowStretches::analyze(&[])
        );
    }

    #[test]
    fn packed_stats_match_scalar_stats() {
        use crate::packed::{PackedCubeSet, PackedMatrix};
        // Densities spanning the sparse scanner, the dense X-run
        // scanner and the fully-specified popcount shortcut.
        for (seed, density) in [(0u64, 0.75), (1, 0.75), (2, 0.2), (3, 0.05), (4, 0.0)] {
            let set = crate::gen::random_cube_set(90, 70, density, seed);
            let scalar = StretchStats::of_matrix(&set.to_pin_matrix());
            let packed =
                StretchStats::of_packed(&PackedMatrix::from_packed_set(&PackedCubeSet::from(&set)));
            assert_eq!(scalar, packed, "seed {seed} density {density}");
        }
    }

    #[test]
    fn visitor_emits_exactly_the_analyzed_stretches() {
        use crate::packed::PackedBits;
        let rows = ["XX0XX0X1X1X1XX", "01X0", "0011", "XXXX", "XX1X", "0", "X"];
        for r in rows {
            let packed = PackedBits::from_bits(&row(r));
            let mut visited = Vec::new();
            for_each_stretch(&packed, |s| visited.push(s));
            assert_eq!(
                visited,
                RowStretches::analyze_packed(&packed).stretches(),
                "row {r}"
            );
        }
        for seed in 0..8u64 {
            let set = crate::gen::random_cube_set(1, 60 + seed as usize * 17, 0.6, seed);
            let m = set.to_pin_matrix();
            let packed = PackedBits::from_bits(m.row(0));
            let mut visited = Vec::new();
            for_each_stretch(&packed, |s| visited.push(s));
            assert_eq!(
                visited,
                RowStretches::analyze_packed(&packed).stretches(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn dense_scanner_matches_care_scanner_exactly() {
        use crate::packed::PackedBits;
        // Hand-picked shapes covering every event kind and interleaving,
        // including fully specified rows (conflicts only, no stretches).
        let rows = [
            "XX0XX0X1X1X1XX",
            "01X0",
            "0011",
            "XXXX",
            "XX1X",
            "0",
            "X",
            "0101",
            "010X10",
            "0110100101101001",
        ];
        for r in rows {
            let packed = PackedBits::from_bits(&row(r));
            assert_eq!(
                RowStretches::analyze_dense(&packed),
                RowStretches::analyze_packed(&packed),
                "row {r}"
            );
        }
        // Random rows across the density spectrum, straddling word
        // boundaries.
        for seed in 0..12u64 {
            let density = 0.1 + 0.08 * seed as f64;
            let set = crate::gen::random_cube_set(1, 60 + seed as usize * 17, density, seed);
            let m = set.to_pin_matrix();
            let packed = PackedBits::from_bits(m.row(0));
            assert_eq!(
                RowStretches::analyze_dense(&packed),
                RowStretches::analyze_packed(&packed),
                "seed {seed} density {density}"
            );
        }
        assert_eq!(
            RowStretches::analyze_dense(&PackedBits::all_x(0)),
            RowStretches::analyze(&[])
        );
    }

    #[test]
    fn auto_dispatch_is_exact_at_both_densities() {
        use crate::packed::PackedBits;
        for (density, seed) in [(0.05, 1u64), (0.5, 2), (0.95, 3)] {
            let set = crate::gen::random_cube_set(1, 200, density, seed);
            let packed = PackedBits::from_bits(set.to_pin_matrix().row(0));
            let mut auto = Vec::new();
            for_each_stretch_auto(&packed, |s| auto.push(s));
            assert_eq!(
                auto,
                RowStretches::analyze_packed(&packed).stretches(),
                "density {density}"
            );
        }
        // The heuristic itself: mostly-care rows go dense, X-rich don't.
        let dense = PackedBits::from_bits(&row("0101010X"));
        let sparse = PackedBits::from_bits(&row("0XXXXXX1"));
        assert!(is_dense_row(&dense));
        assert!(!is_dense_row(&sparse));
    }

    #[test]
    fn parallel_stats_identical_across_thread_counts() {
        use crate::packed::{PackedCubeSet, PackedMatrix};
        let set = crate::gen::random_cube_set(150, 90, 0.7, 42);
        let matrix = PackedMatrix::from_packed_set(&PackedCubeSet::from(&set));
        let serial = StretchStats::of_packed(&matrix);
        for threads in [2, 8] {
            let pool = minipool::ThreadPool::new(threads);
            let parallel = minipool::with_pool(&pool, || StretchStats::of_packed(&matrix));
            assert_eq!(serial, parallel, "threads {threads}");
        }
    }

    #[test]
    fn buckets_cover_all_lengths() {
        for len in 1..200usize {
            assert!(
                LENGTH_BUCKETS
                    .iter()
                    .any(|&(lo, hi)| len >= lo && len <= hi),
                "length {len} not covered"
            );
        }
    }
}
