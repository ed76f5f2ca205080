use std::fmt;

use crate::packed::{PackedBits, PackedCubeSet};
use crate::{Bit, CubeError, TestCube};

/// An ordered collection of equal-width test cubes — the pattern sequence
/// `T1, T2, … Tn` of the paper.
///
/// The order of cubes is significant: peak toggles are measured between
/// *consecutive* cubes, so reordering the set changes the objective.
///
/// # Data model
///
/// The set is **packed-backed**: its single source of truth is a
/// [`PackedCubeSet`] — one `(care, value)` pair of `u64` planes per cube,
/// 64 pins per word — so every metric (X counts, toggle profiles,
/// containment checks) and every fill runs as word kernels with no
/// scalar materialization. The scalar [`TestCube`] view is a *lazy
/// debug/compat adapter*: [`CubeSet::cube`] and the iterators decode a
/// fresh `TestCube` on demand, and [`CubeSet::push`] packs at the
/// boundary. Code on a hot path should use [`CubeSet::as_packed`] /
/// [`CubeSet::packed_cubes`] and never decode.
///
/// # Example
///
/// ```
/// use dpfill_cubes::{CubeSet, TestCube};
///
/// # fn main() -> Result<(), dpfill_cubes::CubeError> {
/// let mut set = CubeSet::new(3);
/// set.push("0X1".parse::<TestCube>()?)?;
/// set.push("1X0".parse::<TestCube>()?)?;
/// set.push("XX1".parse::<TestCube>()?)?;
/// let reordered = set.reordered(&[2, 0, 1])?;
/// assert_eq!(reordered.cube(0).to_string(), "XX1");
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct CubeSet {
    packed: PackedCubeSet,
}

impl CubeSet {
    /// Creates an empty set whose cubes must all have `width` bits.
    pub fn new(width: usize) -> CubeSet {
        CubeSet {
            packed: PackedCubeSet::new(width),
        }
    }

    /// Wraps an already-packed set (zero-cost; the packed planes *are*
    /// the storage).
    pub fn from_packed(packed: PackedCubeSet) -> CubeSet {
        CubeSet { packed }
    }

    /// Consumes the set and returns the packed backing store (zero-cost).
    pub fn into_packed(self) -> PackedCubeSet {
        self.packed
    }

    /// The packed backing store: two `u64` planes per cube.
    #[inline]
    pub fn as_packed(&self) -> &PackedCubeSet {
        &self.packed
    }

    /// Builds a set from cubes, taking the width from the first cube.
    ///
    /// # Errors
    ///
    /// Returns [`CubeError::WidthMismatch`] if the cubes disagree on width.
    pub fn from_cubes<I: IntoIterator<Item = TestCube>>(cubes: I) -> Result<CubeSet, CubeError> {
        let mut iter = cubes.into_iter();
        match iter.next() {
            None => Ok(CubeSet::new(0)),
            Some(first) => {
                let mut set = CubeSet::new(first.width());
                set.push(first)?;
                for cube in iter {
                    set.push(cube)?;
                }
                Ok(set)
            }
        }
    }

    /// Parses a set from `01X` strings, one cube per string.
    ///
    /// # Errors
    ///
    /// Propagates bit-parse and width-mismatch errors.
    pub fn parse_rows(rows: &[&str]) -> Result<CubeSet, CubeError> {
        CubeSet::from_cubes(
            rows.iter()
                .map(|r| r.parse::<TestCube>())
                .collect::<Result<Vec<_>, _>>()?,
        )
    }

    /// Appends a scalar cube, packing it at the boundary.
    ///
    /// # Errors
    ///
    /// Returns [`CubeError::WidthMismatch`] when the cube width differs
    /// from the set width.
    pub fn push(&mut self, cube: TestCube) -> Result<(), CubeError> {
        self.push_packed(PackedBits::from(&cube))
    }

    /// Appends an already-packed cube (no scalar round trip).
    ///
    /// # Errors
    ///
    /// Returns [`CubeError::WidthMismatch`] when the cube width differs
    /// from the set width.
    pub fn push_packed(&mut self, cube: PackedBits) -> Result<(), CubeError> {
        if cube.len() != self.packed.width() {
            return Err(CubeError::WidthMismatch {
                expected: self.packed.width(),
                found: cube.len(),
            });
        }
        self.packed.push(cube);
        Ok(())
    }

    /// Common width of all cubes (the number of pins `m`).
    #[inline]
    pub fn width(&self) -> usize {
        self.packed.width()
    }

    /// Number of cubes `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.packed.len()
    }

    /// Returns `true` when the set holds no cubes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.packed.is_empty()
    }

    /// The packed cubes in order — the native view for word kernels.
    #[inline]
    pub fn packed_cubes(&self) -> &[PackedBits] {
        self.packed.cubes()
    }

    /// Mutable access to the packed cubes (fill algorithms splice words
    /// in place; row widths are fixed, so the set invariants hold).
    #[inline]
    pub fn packed_cubes_mut(&mut self) -> &mut [PackedBits] {
        self.packed.cubes_mut()
    }

    /// Cube at position `index`, decoded on demand to the scalar
    /// compat view.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    pub fn cube(&self, index: usize) -> TestCube {
        TestCube::new(self.packed.cube(index).to_bits())
    }

    /// Iterates over the cubes, decoding each on demand.
    pub fn iter(&self) -> Cubes<'_> {
        Cubes {
            inner: self.packed.cubes().iter(),
        }
    }

    /// Total number of `X` bits over all cubes (popcount over the care
    /// planes).
    pub fn x_count(&self) -> usize {
        self.packed.x_count()
    }

    /// Average percentage of `X` bits per cube — the paper's Table I
    /// "X %" column. Returns `0` for an empty or zero-width set.
    pub fn x_percent(&self) -> f64 {
        let total_bits = self.len() * self.width();
        if total_bits == 0 {
            0.0
        } else {
            100.0 * self.x_count() as f64 / total_bits as f64
        }
    }

    /// Returns `true` when no cube contains an `X` bit (care planes all
    /// ones).
    pub fn is_fully_specified(&self) -> bool {
        self.packed
            .cubes()
            .iter()
            .all(PackedBits::is_fully_specified)
    }

    /// Returns a new set with cubes ordered as `order[0], order[1], …`
    /// (packed-row clones; no unpack/repack).
    ///
    /// # Errors
    ///
    /// Returns [`CubeError::InvalidPermutation`] unless `order` is a
    /// permutation of `0..self.len()`.
    pub fn reordered(&self, order: &[usize]) -> Result<CubeSet, CubeError> {
        if order.len() != self.len() {
            return Err(CubeError::InvalidPermutation { len: self.len() });
        }
        let mut seen = vec![false; self.len()];
        for &i in order {
            if i >= self.len() || seen[i] {
                return Err(CubeError::InvalidPermutation { len: self.len() });
            }
            seen[i] = true;
        }
        Ok(CubeSet {
            packed: self.packed.reordered(order),
        })
    }

    /// Checks that `filled` is a legal filling of `self`: same shape, no
    /// remaining `X`, and every care bit preserved. Fill algorithms must
    /// never flip a care bit — that would destroy fault detection. Runs
    /// entirely on the planes (two word comparisons per 64 pins).
    pub fn is_filling_of(filled: &CubeSet, original: &CubeSet) -> bool {
        filled.width() == original.width()
            && filled.len() == original.len()
            && filled
                .packed_cubes()
                .iter()
                .zip(original.packed_cubes())
                .all(|(f, o)| f.is_fully_specified() && f.is_contained_in(o))
    }

    /// Per-cube X counts, used by the I-ordering's initial sort.
    pub fn x_counts(&self) -> Vec<usize> {
        self.packed
            .cubes()
            .iter()
            .map(PackedBits::x_count)
            .collect()
    }

    /// Bit at `(cube, pin)`.
    ///
    /// # Panics
    ///
    /// Panics when either index is out of range.
    #[inline]
    pub fn bit(&self, cube: usize, pin: usize) -> Bit {
        self.packed.cube(cube).get(pin)
    }
}

/// Iterator over a [`CubeSet`]'s cubes, decoding the scalar compat view
/// on demand.
#[derive(Clone, Debug)]
pub struct Cubes<'a> {
    inner: std::slice::Iter<'a, PackedBits>,
}

impl Iterator for Cubes<'_> {
    type Item = TestCube;

    fn next(&mut self) -> Option<TestCube> {
        self.inner.next().map(|p| TestCube::new(p.to_bits()))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for Cubes<'_> {}

impl DoubleEndedIterator for Cubes<'_> {
    fn next_back(&mut self) -> Option<TestCube> {
        self.inner.next_back().map(|p| TestCube::new(p.to_bits()))
    }
}

impl FromIterator<TestCube> for CubeSet {
    /// Collects cubes into a set.
    ///
    /// # Panics
    ///
    /// Panics if the cubes have mismatched widths; use
    /// [`CubeSet::from_cubes`] for a fallible version.
    fn from_iter<I: IntoIterator<Item = TestCube>>(iter: I) -> CubeSet {
        CubeSet::from_cubes(iter)
            .unwrap_or_else(|e| panic!("FromIterator requires equal cube widths: {e}"))
    }
}

impl<'a> IntoIterator for &'a CubeSet {
    type Item = TestCube;
    type IntoIter = Cubes<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Owning iterator: decodes each packed cube to the scalar view.
pub struct IntoCubes {
    inner: std::vec::IntoIter<PackedBits>,
}

impl Iterator for IntoCubes {
    type Item = TestCube;

    fn next(&mut self) -> Option<TestCube> {
        self.inner.next().map(|p| TestCube::new(p.to_bits()))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl IntoIterator for CubeSet {
    type Item = TestCube;
    type IntoIter = IntoCubes;

    fn into_iter(self) -> Self::IntoIter {
        IntoCubes {
            inner: self.packed.into_cubes().into_iter(),
        }
    }
}

impl From<PackedCubeSet> for CubeSet {
    fn from(packed: PackedCubeSet) -> CubeSet {
        CubeSet::from_packed(packed)
    }
}

impl fmt::Display for CubeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for cube in self.packed.cubes() {
            writeln!(f, "{cube}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CubeSet {
        CubeSet::parse_rows(&["0X1", "1X0", "XX1", "00X"]).unwrap()
    }

    #[test]
    fn push_enforces_width() {
        let mut set = CubeSet::new(3);
        assert!(set.push("0X1".parse().unwrap()).is_ok());
        let err = set.push("0X".parse().unwrap()).unwrap_err();
        assert_eq!(
            err,
            CubeError::WidthMismatch {
                expected: 3,
                found: 2
            }
        );
    }

    #[test]
    fn push_packed_enforces_width() {
        let mut set = CubeSet::new(3);
        assert!(set.push_packed(PackedBits::all_x(3)).is_ok());
        let err = set.push_packed(PackedBits::all_x(5)).unwrap_err();
        assert_eq!(
            err,
            CubeError::WidthMismatch {
                expected: 3,
                found: 5
            }
        );
    }

    #[test]
    fn x_percent_matches_hand_count() {
        let set = sample();
        // 12 bits total, 5 X bits.
        assert!((set.x_percent() - 100.0 * 5.0 / 12.0).abs() < 1e-9);
        assert_eq!(set.x_count(), 5);
    }

    #[test]
    fn empty_set_statistics() {
        let set = CubeSet::new(0);
        assert_eq!(set.x_percent(), 0.0);
        assert!(set.is_empty());
        assert!(set.is_fully_specified());
    }

    #[test]
    fn reorder_valid_permutation() {
        let set = sample();
        let r = set.reordered(&[3, 2, 1, 0]).unwrap();
        assert_eq!(r.cube(0).to_string(), "00X");
        assert_eq!(r.cube(3).to_string(), "0X1");
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn reorder_rejects_bad_permutations() {
        let set = sample();
        assert!(set.reordered(&[0, 1, 2]).is_err()); // wrong length
        assert!(set.reordered(&[0, 0, 1, 2]).is_err()); // duplicate
        assert!(set.reordered(&[0, 1, 2, 9]).is_err()); // out of range
    }

    #[test]
    fn filling_check_accepts_legal_fill() {
        let original = sample();
        let filled = CubeSet::parse_rows(&["001", "100", "001", "000"]).unwrap();
        assert!(CubeSet::is_filling_of(&filled, &original));
    }

    #[test]
    fn filling_check_rejects_flipped_care_bit() {
        let original = sample();
        // First cube care bit 0 at pin 0 flipped to 1.
        let bad = CubeSet::parse_rows(&["101", "100", "001", "000"]).unwrap();
        assert!(!CubeSet::is_filling_of(&bad, &original));
    }

    #[test]
    fn filling_check_rejects_remaining_x() {
        let original = sample();
        let still_x = CubeSet::parse_rows(&["0X1", "100", "001", "000"]).unwrap();
        assert!(!CubeSet::is_filling_of(&still_x, &original));
    }

    #[test]
    fn from_cubes_of_empty_iterator() {
        let set = CubeSet::from_cubes(std::iter::empty()).unwrap();
        assert!(set.is_empty());
        assert_eq!(set.width(), 0);
    }

    #[test]
    fn display_one_cube_per_line() {
        let set = CubeSet::parse_rows(&["0X", "11"]).unwrap();
        assert_eq!(set.to_string(), "0X\n11\n");
    }

    #[test]
    fn x_counts_per_cube() {
        assert_eq!(sample().x_counts(), vec![1, 1, 2, 1]);
    }

    #[test]
    fn packed_round_trip_is_lossless() {
        let set = sample();
        let packed = set.as_packed().clone();
        let back = CubeSet::from_packed(packed);
        assert_eq!(back, set);
        assert_eq!(set.clone().into_packed().to_cube_set(), set);
    }

    #[test]
    fn iterators_decode_the_compat_view() {
        let set = sample();
        let decoded: Vec<String> = set.iter().map(|c| c.to_string()).collect();
        assert_eq!(decoded, vec!["0X1", "1X0", "XX1", "00X"]);
        let owned: Vec<TestCube> = set.clone().into_iter().collect();
        assert_eq!(owned.len(), 4);
        assert_eq!(owned[2].to_string(), "XX1");
        let back: Vec<String> = set.iter().rev().map(|c| c.to_string()).collect();
        assert_eq!(back[0], "00X");
        assert_eq!(set.iter().len(), 4);
    }

    #[test]
    fn bit_access_reads_planes() {
        let set = sample();
        assert_eq!(set.bit(0, 1), Bit::X);
        assert_eq!(set.bit(1, 0), Bit::One);
        assert_eq!(set.bit(3, 1), Bit::Zero);
    }
}
