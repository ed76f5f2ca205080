//! The scalar pin-major view and the per-bit transpose that builds it —
//! the row shape the pin-major references are written against.

use std::fmt;

use dpfill_cubes::{Bit, CubeSet, TestCube};

/// The paper's matrix `A`: the transposed view of a [`CubeSet`] with one
/// **row per pin** and one **column per cube**, stored row-major so a
/// pin's values over time are one contiguous slice.
///
/// # Example
///
/// ```
/// use dpfill_cubes::{Bit, CubeSet};
/// use dpfill_oracle::pin_matrix_scalar;
///
/// let set = CubeSet::parse_rows(&["0X", "1X", "X1"]).unwrap();
/// let m = pin_matrix_scalar(&set);
/// assert_eq!(m.rows(), 2);            // pins
/// assert_eq!(m.cols(), 3);            // cubes
/// assert_eq!(m.row(0), [Bit::Zero, Bit::One, Bit::X]);
/// assert_eq!(m.to_cube_set(), set);   // lossless round trip
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PinMatrix {
    rows: usize,
    cols: usize,
    bits: Vec<Bit>, // row-major: bits[row * cols + col]
}

impl PinMatrix {
    /// Creates an all-`X` matrix of `rows` pins × `cols` cubes.
    pub fn all_x(rows: usize, cols: usize) -> PinMatrix {
        PinMatrix {
            rows,
            cols,
            bits: vec![Bit::X; rows * cols],
        }
    }

    /// Number of pins (rows).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of cubes (columns).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The row for pin `row` (its value per cube).
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row(&self, row: usize) -> &[Bit] {
        &self.bits[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutable row access.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row_mut(&mut self, row: usize) -> &mut [Bit] {
        &mut self.bits[row * self.cols..(row + 1) * self.cols]
    }

    /// Bit at `(row, col)` = (pin, cube).
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn bit(&self, row: usize, col: usize) -> Bit {
        assert!(col < self.cols, "column {col} out of range");
        self.bits[row * self.cols + col]
    }

    /// Sets the bit at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn set(&mut self, row: usize, col: usize, value: Bit) {
        assert!(col < self.cols, "column {col} out of range");
        self.bits[row * self.cols + col] = value;
    }

    /// Iterates over the rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[Bit]> {
        self.bits.chunks_exact(self.cols.max(1)).take(self.rows)
    }

    /// Transposes back to a cube set (column `j` becomes cube `j`).
    pub fn to_cube_set(&self) -> CubeSet {
        let mut set = CubeSet::new(self.rows);
        for col in 0..self.cols {
            let cube: TestCube = (0..self.rows).map(|row| self.bit(row, col)).collect();
            set.push(cube).expect("column width equals row count");
        }
        set
    }

    /// Number of `X` bits in the matrix.
    pub fn x_count(&self) -> usize {
        self.bits.iter().filter(|b| b.is_x()).count()
    }
}

impl fmt::Display for PinMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in self.iter_rows() {
            for b in row {
                write!(f, "{b}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Transposes `set` into the row-per-pin view one bit at a time.
pub fn pin_matrix_scalar(set: &CubeSet) -> PinMatrix {
    let mut matrix = PinMatrix::all_x(set.width(), set.len());
    for (col, cube) in set.iter().enumerate() {
        for (row, bit) in cube.iter().enumerate() {
            matrix.set(row, col, bit);
        }
    }
    matrix
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_round_trip() {
        let set = CubeSet::parse_rows(&["0X1X", "1X0X", "XX11"]).unwrap();
        let m = pin_matrix_scalar(&set);
        assert_eq!(m.rows(), 4);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.to_cube_set(), set);
    }

    #[test]
    fn row_semantics() {
        // Cubes: T1 = 01, T2 = 1X. Pin 0 over time: 0 then 1.
        let set = CubeSet::parse_rows(&["01", "1X"]).unwrap();
        let m = pin_matrix_scalar(&set);
        assert_eq!(m.row(0), [Bit::Zero, Bit::One]);
        assert_eq!(m.row(1), [Bit::One, Bit::X]);
    }

    #[test]
    fn set_and_bit() {
        let mut m = PinMatrix::all_x(2, 3);
        m.set(1, 2, Bit::One);
        assert_eq!(m.bit(1, 2), Bit::One);
        assert_eq!(m.bit(0, 0), Bit::X);
        assert_eq!(m.x_count(), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn column_bounds_checked() {
        let m = PinMatrix::all_x(2, 3);
        let _ = m.bit(0, 3);
    }

    #[test]
    fn empty_matrix() {
        let set = CubeSet::new(0);
        let m = pin_matrix_scalar(&set);
        assert_eq!(m.rows(), 0);
        assert_eq!(m.cols(), 0);
        assert_eq!(m.to_cube_set().len(), 0);
    }

    #[test]
    fn zero_cube_matrix_keeps_width() {
        let set = CubeSet::new(5);
        let m = pin_matrix_scalar(&set);
        assert_eq!(m.rows(), 5);
        assert_eq!(m.cols(), 0);
        let back = m.to_cube_set();
        assert_eq!(back.width(), 5);
        assert!(back.is_empty());
    }

    #[test]
    fn display_rows() {
        let set = CubeSet::parse_rows(&["01", "1X"]).unwrap();
        let m = pin_matrix_scalar(&set);
        assert_eq!(m.to_string(), "01\n1X\n");
    }

    #[test]
    fn iter_rows_matches_row() {
        let set = CubeSet::parse_rows(&["0X1", "1X0"]).unwrap();
        let m = pin_matrix_scalar(&set);
        let collected: Vec<&[Bit]> = m.iter_rows().collect();
        assert_eq!(collected.len(), m.rows());
        for (i, row) in collected.iter().enumerate() {
            assert_eq!(*row, m.row(i));
        }
    }
}
