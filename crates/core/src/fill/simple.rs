//! Constant, random and adjacent fills, all running on the packed
//! two-plane representation: constants are whole-word mask writes,
//! random fill blends one random word per 64 pins, Adj-fill runs the
//! word-parallel copy-left kernel
//! ([`PackedBits::fill_copy_left`](dpfill_cubes::packed::PackedBits::fill_copy_left))
//! along each cube, and MT-fill is DP-fill's cube-major filled-value
//! plane with no flips: seeded with each pin's first care value, it
//! carries each pin's last care value from cube to cube. Cubes are
//! independent for every fill but MT, so those chunk them across the
//! current [`minipool`] pool; outputs are bit-identical at any thread
//! count because each worker only writes its own cubes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dpfill_cubes::{Bit, CubeSet};

use super::FillStrategy;
use crate::mapping::{fill_cubes, first_values, leading_value, Flips};

/// Fills every `X` with `0`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ZeroFill;

impl FillStrategy for ZeroFill {
    fn name(&self) -> &'static str {
        "0-fill"
    }

    fn fill(&self, cubes: &CubeSet) -> CubeSet {
        fill_constant(cubes, Bit::Zero)
    }
}

/// Fills every `X` with `1`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OneFill;

impl FillStrategy for OneFill {
    fn name(&self) -> &'static str {
        "1-fill"
    }

    fn fill(&self, cubes: &CubeSet) -> CubeSet {
        fill_constant(cubes, Bit::One)
    }
}

fn fill_constant(cubes: &CubeSet, value: Bit) -> CubeSet {
    let mut filled = cubes.clone();
    minipool::parallel_chunks_mut(filled.packed_cubes_mut(), 16, |_, chunk| {
        for cube in chunk {
            cube.fill_x_with(value);
        }
    });
    filled
}

/// Fills every `X` with an independent fair random bit (seeded, so runs
/// are reproducible).
///
/// Each cube draws from its own stream derived from `(seed, cube
/// index)`, so the output depends only on the seed and the set — never
/// on how the cubes were chunked across workers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RandomFill {
    seed: u64,
}

impl RandomFill {
    /// Creates a random fill with the given seed.
    pub fn new(seed: u64) -> RandomFill {
        RandomFill { seed }
    }
}

impl Default for RandomFill {
    fn default() -> RandomFill {
        RandomFill::new(0)
    }
}

impl FillStrategy for RandomFill {
    fn name(&self) -> &'static str {
        "R-fill"
    }

    fn fill(&self, cubes: &CubeSet) -> CubeSet {
        self.fill_from(cubes, 0)
    }
}

impl RandomFill {
    /// Fills `cubes` as the cubes `first..` of a longer sequence — the
    /// streamed windows' entry point, which never changes the stream.
    pub(crate) fn fill_from(&self, cubes: &CubeSet, first: usize) -> CubeSet {
        let seed = self.seed;
        let mut filled = cubes.clone();
        minipool::parallel_chunks_mut(filled.packed_cubes_mut(), 16, |start, chunk| {
            for (i, cube) in (first + start..).zip(chunk) {
                // Per-cube stream keyed by the cube's global index: the
                // same bits land whether the set is walked serially,
                // chunked across workers or streamed in windows.
                let mut rng = StdRng::seed_from_u64(
                    seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                // One random word covers 64 pins; the blend keeps care
                // bits.
                cube.fill_x_from_words(|_| rng.next_u64());
            }
        });
        filled
    }
}

/// Minimum-transition (temporal adjacent) fill: along each **pin row**,
/// an `X` copies the most recent care value; leading `X`s copy the first
/// care value; all-`X` rows become `0`. This minimizes the *total* number
/// of toggles per row (each transition stretch collapses to one toggle)
/// but pays no attention to *where* toggles land — the classic MT-fill
/// baseline of the paper's tables.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MtFill;

impl FillStrategy for MtFill {
    fn name(&self) -> &'static str {
        "MT-fill"
    }

    fn fill(&self, cubes: &CubeSet) -> CubeSet {
        let mut filled = cubes.clone();
        let mut plane = first_values(cubes.as_packed().cubes(), cubes.width());
        fill_cubes(filled.packed_cubes_mut(), 0, &mut plane, &Flips::default());
        filled
    }
}

/// Scan-chain adjacent fill (Wu et al. \[21\]): within each **cube**, an
/// `X` copies the previous specified bit in scan order; leading `X`s copy
/// the first care bit; all-`X` cubes become all zeros. This targets shift
/// power in LOS testing (neighbouring scan cells get equal values) rather
/// than the capture-to-capture toggles DP-fill optimizes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdjFill;

impl FillStrategy for AdjFill {
    fn name(&self) -> &'static str {
        "Adj-fill"
    }

    fn fill(&self, cubes: &CubeSet) -> CubeSet {
        let mut filled = cubes.clone();
        minipool::parallel_chunks_mut(filled.packed_cubes_mut(), 16, |_, chunk| {
            for cube in chunk {
                cube.fill_copy_left(leading_value(cube));
            }
        });
        filled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpfill_cubes::{peak_toggles, total_toggles};

    fn sample() -> CubeSet {
        CubeSet::parse_rows(&["0X1X", "XX0X", "1X0X"]).unwrap()
    }

    #[test]
    fn constant_fills() {
        let cubes = sample();
        let z = ZeroFill.fill(&cubes);
        assert_eq!(z.cube(0).to_string(), "0010");
        let o = OneFill.fill(&cubes);
        assert_eq!(o.cube(0).to_string(), "0111");
        assert!(CubeSet::is_filling_of(&z, &cubes));
        assert!(CubeSet::is_filling_of(&o, &cubes));
    }

    #[test]
    fn random_fill_is_deterministic() {
        let cubes = sample();
        let a = RandomFill::new(9).fill(&cubes);
        let b = RandomFill::new(9).fill(&cubes);
        assert_eq!(a, b);
        assert!(CubeSet::is_filling_of(&a, &cubes));
    }

    #[test]
    fn mt_fill_copies_along_rows() {
        // Pin 0 row over cubes: 0, X, 1 -> 0, 0, 1 (copy previous).
        let cubes = CubeSet::parse_rows(&["0X", "XX", "1X"]).unwrap();
        let filled = MtFill.fill(&cubes);
        assert_eq!(filled.cube(0).to_string(), "00");
        assert_eq!(filled.cube(1).to_string(), "00");
        assert_eq!(filled.cube(2).to_string(), "10");
        // Pin 1 row is all X -> zeros.
    }

    #[test]
    fn mt_fill_minimizes_total_toggles() {
        let cubes = CubeSet::parse_rows(&["0X", "XX", "X1", "1X"]).unwrap();
        let mt = MtFill.fill(&cubes);
        // Each transition stretch collapses to exactly one toggle; total
        // toggles equals the number of transition stretches plus forced.
        let zero = ZeroFill.fill(&cubes);
        assert!(
            total_toggles(&mt).unwrap() <= total_toggles(&zero).unwrap(),
            "MT-fill should not exceed 0-fill in total toggles"
        );
    }

    #[test]
    fn mt_fill_leading_x_copies_first_care() {
        let cubes = CubeSet::parse_rows(&["X", "X", "1"]).unwrap();
        let filled = MtFill.fill(&cubes);
        assert_eq!(filled.cube(0).to_string(), "1");
        assert_eq!(peak_toggles(&filled).unwrap(), 0);
    }

    #[test]
    fn adj_fill_copies_within_cube() {
        let cubes = CubeSet::parse_rows(&["0XX1X"]).unwrap();
        let filled = AdjFill.fill(&cubes);
        assert_eq!(filled.cube(0).to_string(), "00011");
    }

    #[test]
    fn adj_fill_leading_and_all_x() {
        let cubes = CubeSet::parse_rows(&["XX1X", "XXXX"]).unwrap();
        let filled = AdjFill.fill(&cubes);
        assert_eq!(filled.cube(0).to_string(), "1111");
        assert_eq!(filled.cube(1).to_string(), "0000");
    }

    #[test]
    fn names() {
        assert_eq!(ZeroFill.name(), "0-fill");
        assert_eq!(OneFill.name(), "1-fill");
        assert_eq!(RandomFill::default().name(), "R-fill");
        assert_eq!(MtFill.name(), "MT-fill");
        assert_eq!(AdjFill.name(), "Adj-fill");
    }
}
