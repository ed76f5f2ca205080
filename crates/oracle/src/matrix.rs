//! The per-bit transpose — the reference for the word-blocked
//! [`PinMatrix::from_cube_set`].

use dpfill_cubes::{CubeSet, PinMatrix};

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
