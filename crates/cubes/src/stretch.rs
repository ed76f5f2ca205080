//! Don't-care stretch statistics: the data of the paper's Fig 2(c).
//!
//! A *stretch* is a maximal run of `X` bits in one pin's values across
//! the ordered cubes. The DP-fill paper's interval mapping (§V-C)
//! classifies stretches by the care bits that delimit them:
//!
//! * `v X…X v` — *same-value* stretch: filled with `v`, zero toggles;
//! * `v X…X w`, `v ≠ w` — *transition* stretch: exactly one toggle whose
//!   position is free, i.e. one interval of the Bottleneck Coloring
//!   Problem;
//! * leading / trailing stretches — copy the nearest care bit, no toggle;
//! * a pin with no care bit at all — fill constant, no toggle.
//!
//! Adjacent opposite care bits (`v w`, no `X` between) are *forced
//! toggles*; they are not stretches but are tallied alongside them.
//!
//! Fig 2(c) of the paper plots the statistics of stretch lengths for
//! different test-vector orderings; [`StretchStats::of_cubes`] counts
//! them in one cube-major pass over the packed planes. The pin-major
//! scalar classifier it is tested against lives in the dev-only
//! `dpfill-oracle` crate.

use crate::packed::PackedCubeSet;

/// Aggregate stretch-length statistics over a whole cube set — the data
/// of the paper's Fig 2(c).
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

/// One chunk's tally behind [`StretchStats::of_cubes`].
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
    /// Counts one stretch of `len` `X` bits; an empty run is no stretch.
    fn add(&mut self, len: usize, transition: bool) {
        if len == 0 {
            return;
        }
        self.total += 1;
        self.xsum += len;
        self.max_len = self.max_len.max(len);
        self.transitions += usize::from(transition);
        // The final bucket's hi is usize::MAX, so the lookup cannot
        // miss; fold any impossible miss into it rather than panicking
        // mid-aggregation.
        let bucket = LENGTH_BUCKETS
            .iter()
            .position(|&(lo, hi)| len >= lo && len <= hi)
            .unwrap_or(LENGTH_BUCKETS.len() - 1);
        self.histogram[bucket] += 1;
    }

    /// Folds another accumulator in. Every field is a sum or a max, so
    /// the merge is associative and chunk-order merging reproduces the
    /// serial tally exactly.
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
    /// Computes the statistics over every pin of `set`. Leading,
    /// trailing, same-value and transition stretches all count (they are
    /// all "don't-care stretches"); forced toggles are tallied
    /// separately.
    ///
    /// One cube-major pass, no transpose. Each pin keeps the cube after
    /// its last care bit and that bit's value. A care bit, found by
    /// `trailing_zeros` over a cube's care words, closes the stretch
    /// before it (leading, same-value or transition); right after the
    /// pin's last care bit it is a forced toggle when the values differ.
    /// After the last cube each pin closes its trailing (or all-`X`)
    /// stretch. Pin words fan out over the current [`minipool`] pool in
    /// deterministic chunks whose tallies merge in chunk order; every
    /// field is a sum or a max, so the result is the same at any thread
    /// count.
    pub fn of_cubes(set: &PackedCubeSet) -> StretchStats {
        let (width, cubes) = (set.width(), set.cubes());
        minipool::parallel_index_chunks(width.div_ceil(64), 1, |words| {
            let mut acc = StatsAccumulator::default();
            // Per pin of the chunk, the cube after its last care bit (0
            // before any); per word, those care bits' values.
            let mut after = vec![0usize; words.len() * 64];
            let mut last = vec![0u64; words.len()];
            for (t, cube) in cubes.iter().enumerate() {
                let care = &cube.care_words()[words.clone()];
                let value = &cube.value_words()[words.clone()];
                for (i, ((&care, &value), last)) in
                    care.iter().zip(value).zip(&mut last).enumerate()
                {
                    let mut m = care;
                    while m != 0 {
                        let b = m.trailing_zeros() as usize;
                        m &= m - 1;
                        let differs = (*last ^ value) >> b & 1 == 1;
                        let slot = &mut after[i * 64 + b];
                        match *slot {
                            // The pin's first care bit closes its leading run.
                            0 => acc.add(t, false),
                            a if a == t => acc.forced += usize::from(differs),
                            a => acc.add(t - a, differs),
                        }
                        *slot = t + 1;
                    }
                    *last = *last & !care | value;
                }
            }
            let pins = (width - words.start * 64).min(after.len());
            for &a in &after[..pins] {
                acc.add(cubes.len() - a, false);
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

    #[test]
    fn matrix_stats() {
        let set = CubeSet::parse_rows(&["0X", "XX", "1X", "XX", "01"]).unwrap();
        // Pins over 5 cubes:
        // pin 0: 0 X 1 X 0  -> transition (0..2) len 1, transition (2..4) len 1
        // pin 1: X X X X 1  -> leading len 4
        let stats = StretchStats::of_cubes(set.as_packed());
        assert_eq!(stats.total_stretches(), 3);
        assert_eq!(stats.transition_stretches(), 2);
        assert_eq!(stats.forced_toggles(), 0);
        assert_eq!(stats.max_len(), 4);
        assert_eq!(stats.total_x_bits(), 6);
        assert_eq!(stats.histogram()[0], 2); // two stretches of length 1
        assert_eq!(stats.histogram()[2], 1); // one of length 4 (bucket 3-4)
    }

    #[test]
    fn every_stretch_kind_and_forced_toggles_are_counted() {
        // Pin 0 over 6 cubes: X 0 1 X X 1 -> leading 1, forced toggle,
        // same-value 2. Pin 1: 1 X X 1 0 X -> same-value 2, forced
        // toggle, trailing 1. Pin 2: all X -> one stretch of 6.
        let set = CubeSet::parse_rows(&["X1X", "0XX", "1XX", "X1X", "X0X", "1XX"]).unwrap();
        let stats = StretchStats::of_cubes(set.as_packed());
        assert_eq!(stats.forced_toggles(), 2);
        assert_eq!(stats.transition_stretches(), 0);
        assert_eq!(stats.total_stretches(), 5);
        assert_eq!(stats.total_x_bits(), 12);
        assert_eq!(stats.max_len(), 6);
        assert_eq!(stats.histogram()[..4], [2, 2, 0, 1]);
    }

    #[test]
    fn parallel_stats_identical_across_thread_counts() {
        let set = crate::gen::random_cube_set(150, 90, 0.7, 42);
        let serial = StretchStats::of_cubes(set.as_packed());
        for threads in [2, 8] {
            let pool = minipool::ThreadPool::new(threads);
            let parallel = minipool::with_pool(&pool, || StretchStats::of_cubes(set.as_packed()));
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
