use std::fmt;
use std::ops::Index;
use std::str::FromStr;

use crate::{Bit, CubeError};

/// A single test cube: one (partially specified) test pattern.
///
/// Bit `i` is the value scanned into pin `i` (a primary input or a scan
/// cell). `X` bits are don't-cares that an X-filling algorithm may set
/// freely.
///
/// # Example
///
/// ```
/// use dpfill_cubes::{Bit, TestCube};
///
/// let cube: TestCube = "0X1X".parse().unwrap();
/// assert_eq!(cube.width(), 4);
/// assert_eq!(cube.x_count(), 2);
/// assert_eq!(cube[2], Bit::One);
/// assert!(!cube.is_fully_specified());
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct TestCube {
    bits: Vec<Bit>,
}

impl TestCube {
    /// Creates a cube from a vector of bits.
    pub fn new(bits: Vec<Bit>) -> TestCube {
        TestCube { bits }
    }

    /// Creates an all-`X` cube of the given width (the empty cube of
    /// classical test generation).
    pub fn all_x(width: usize) -> TestCube {
        TestCube {
            bits: vec![Bit::X; width],
        }
    }

    /// Number of pins covered by this cube.
    #[inline]
    pub fn width(&self) -> usize {
        self.bits.len()
    }

    /// Returns `true` if the cube has no bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The bits of the cube.
    #[inline]
    pub fn bits(&self) -> &[Bit] {
        &self.bits
    }

    /// Consumes the cube and returns the underlying bit vector.
    #[inline]
    pub fn into_bits(self) -> Vec<Bit> {
        self.bits
    }

    /// Bit at `pin`, or `None` if out of range.
    #[inline]
    pub fn get(&self, pin: usize) -> Option<Bit> {
        self.bits.get(pin).copied()
    }

    /// Sets the bit at `pin`.
    ///
    /// # Panics
    ///
    /// Panics if `pin >= self.width()`.
    #[inline]
    pub fn set(&mut self, pin: usize, value: Bit) {
        self.bits[pin] = value;
    }

    /// Number of don't-care bits.
    pub fn x_count(&self) -> usize {
        self.bits.iter().filter(|b| b.is_x()).count()
    }

    /// Number of care (specified) bits.
    pub fn care_count(&self) -> usize {
        self.width() - self.x_count()
    }

    /// Fraction of don't-care bits in `[0, 1]`; `0` for an empty cube.
    pub fn x_fraction(&self) -> f64 {
        if self.bits.is_empty() {
            0.0
        } else {
            self.x_count() as f64 / self.width() as f64
        }
    }

    /// Returns `true` when the cube contains no `X` bits.
    pub fn is_fully_specified(&self) -> bool {
        self.bits.iter().all(|b| b.is_care())
    }

    /// Returns `true` when `self` and `other` can be merged: no pin carries
    /// opposite care bits.
    pub fn is_compatible(&self, other: &TestCube) -> bool {
        self.width() == other.width()
            && self
                .bits
                .iter()
                .zip(&other.bits)
                .all(|(a, b)| !a.conflicts(*b))
    }

    /// Merges two compatible cubes into their intersection (each pin takes
    /// the more specified value). Returns `None` when incompatible. This is
    /// the primitive of static test compaction.
    ///
    /// # Example
    ///
    /// ```
    /// use dpfill_cubes::TestCube;
    ///
    /// let a: TestCube = "0X1X".parse().unwrap();
    /// let b: TestCube = "0XX1".parse().unwrap();
    /// assert_eq!(a.merge(&b).unwrap().to_string(), "0X11");
    /// ```
    pub fn merge(&self, other: &TestCube) -> Option<TestCube> {
        if self.width() != other.width() {
            return None;
        }
        let mut bits = Vec::with_capacity(self.width());
        for (a, b) in self.bits.iter().zip(&other.bits) {
            bits.push(a.merge(*b)?);
        }
        Some(TestCube { bits })
    }

    /// Returns `true` when `self` is contained in `other`: every care bit
    /// of `other` is matched by `self`. A pattern that detects the faults
    /// of `other` also detects those of any containing cube.
    pub fn is_contained_in(&self, other: &TestCube) -> bool {
        self.width() == other.width()
            && self
                .bits
                .iter()
                .zip(&other.bits)
                .all(|(a, b)| b.is_x() || a == b)
    }

    /// Iterates over the bits.
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, Bit>> {
        self.bits.iter().copied()
    }
}

impl Index<usize> for TestCube {
    type Output = Bit;

    fn index(&self, pin: usize) -> &Bit {
        &self.bits[pin]
    }
}

impl FromIterator<Bit> for TestCube {
    fn from_iter<I: IntoIterator<Item = Bit>>(iter: I) -> TestCube {
        TestCube {
            bits: iter.into_iter().collect(),
        }
    }
}

impl Extend<Bit> for TestCube {
    fn extend<I: IntoIterator<Item = Bit>>(&mut self, iter: I) {
        self.bits.extend(iter);
    }
}

impl<'a> IntoIterator for &'a TestCube {
    type Item = Bit;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Bit>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl IntoIterator for TestCube {
    type Item = Bit;
    type IntoIter = std::vec::IntoIter<Bit>;

    fn into_iter(self) -> Self::IntoIter {
        self.bits.into_iter()
    }
}

impl From<Vec<Bit>> for TestCube {
    fn from(bits: Vec<Bit>) -> TestCube {
        TestCube::new(bits)
    }
}

impl fmt::Display for TestCube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.bits {
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

impl FromStr for TestCube {
    type Err = CubeError;

    /// Parses a cube from a `01X-` string, e.g. `"0X1X"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.chars()
            .map(Bit::from_char)
            .collect::<Result<_, _>>()
            .map(|bits: Vec<Bit>| TestCube { bits })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_display_round_trip() {
        let s = "01X10XX1";
        let cube: TestCube = s.parse().unwrap();
        assert_eq!(cube.to_string(), s);
        assert_eq!(cube.width(), 8);
        assert_eq!(cube.x_count(), 3);
        assert_eq!(cube.care_count(), 5);
    }

    #[test]
    fn dash_parses_as_x() {
        let cube: TestCube = "0-1".parse().unwrap();
        assert_eq!(cube.to_string(), "0X1");
    }

    #[test]
    fn all_x_has_full_x_fraction() {
        let cube = TestCube::all_x(10);
        assert_eq!(cube.x_count(), 10);
        assert!((cube.x_fraction() - 1.0).abs() < 1e-12);
        assert!(!cube.is_fully_specified());
    }

    #[test]
    fn empty_cube_edge_cases() {
        let cube = TestCube::default();
        assert!(cube.is_empty());
        assert_eq!(cube.x_fraction(), 0.0);
        assert!(cube.is_fully_specified());
    }

    #[test]
    fn compatibility_and_merge() {
        let a: TestCube = "0X1X".parse().unwrap();
        let b: TestCube = "0XX1".parse().unwrap();
        let c: TestCube = "1XXX".parse().unwrap();
        assert!(a.is_compatible(&b));
        assert!(!a.is_compatible(&c));
        assert_eq!(a.merge(&b).unwrap().to_string(), "0X11");
        assert_eq!(a.merge(&c), None);
    }

    #[test]
    fn merge_is_commutative_and_idempotent() {
        let a: TestCube = "0X1X".parse().unwrap();
        let b: TestCube = "0XX1".parse().unwrap();
        assert_eq!(a.merge(&b), b.merge(&a));
        assert_eq!(a.merge(&a).unwrap(), a);
    }

    #[test]
    fn merge_rejects_width_mismatch() {
        let a: TestCube = "0X".parse().unwrap();
        let b: TestCube = "0XX".parse().unwrap();
        assert_eq!(a.merge(&b), None);
        assert!(!a.is_compatible(&b));
    }

    #[test]
    fn containment() {
        let pattern: TestCube = "0110".parse().unwrap();
        let cube: TestCube = "0X1X".parse().unwrap();
        assert!(pattern.is_contained_in(&cube));
        assert!(!cube.is_contained_in(&pattern));
        // A cube always contains itself.
        assert!(cube.is_contained_in(&cube));
    }

    #[test]
    fn set_and_get() {
        let mut cube = TestCube::all_x(3);
        cube.set(1, Bit::One);
        assert_eq!(cube.get(1), Some(Bit::One));
        assert_eq!(cube.get(5), None);
        assert_eq!(cube[0], Bit::X);
    }

    #[test]
    fn collects_from_iterator() {
        let cube: TestCube = [Bit::Zero, Bit::X, Bit::One].into_iter().collect();
        assert_eq!(cube.to_string(), "0X1");
        let bits: Vec<Bit> = (&cube).into_iter().collect();
        assert_eq!(bits.len(), 3);
    }

    #[test]
    fn invalid_character_is_rejected() {
        assert!("01z".parse::<TestCube>().is_err());
    }
}
