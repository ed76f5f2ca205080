//! Differential tests: the word-level (mask splice) fills must agree
//! with scalar reference implementations bit-for-bit, and every fill
//! must stay a legal filling on shapes straddling the word boundary.

use dpfill_core::fill::{
    AdjFill, BFill, DpFill, FillStrategy, MtFill, OneFill, XStatFill, ZeroFill,
};
use dpfill_core::MatrixMapping;
use dpfill_cubes::gen::random_cube_set;
use dpfill_cubes::{Bit, CubeSet, TestCube};
use dpfill_oracle::pin_matrix_scalar;

/// Scalar reference: decode every cube to the scalar view, fill every X
/// with a constant, and re-pack through the compat boundary.
fn constant_fill_reference(cubes: &CubeSet, value: Bit) -> CubeSet {
    let mut out = CubeSet::new(cubes.width());
    for cube in cubes {
        let mut bits = cube.into_bits();
        for b in &mut bits {
            if b.is_x() {
                *b = value;
            }
        }
        out.push(TestCube::new(bits)).expect("width preserved");
    }
    out
}

/// Scalar reference for the copy-left run fill shared by MT (along pin
/// rows) and Adj (along cubes).
fn copy_left_reference(bits: &mut [Bit]) {
    let first_care = bits.iter().position(|b| b.is_care());
    match first_care {
        None => {
            for b in bits.iter_mut() {
                *b = Bit::Zero;
            }
        }
        Some(fc) => {
            let lead = bits[fc];
            for b in bits[..fc].iter_mut() {
                *b = lead;
            }
            let mut last = lead;
            for b in bits[fc..].iter_mut() {
                if b.is_x() {
                    *b = last;
                } else {
                    last = *b;
                }
            }
        }
    }
}

fn mt_fill_reference(cubes: &CubeSet) -> CubeSet {
    let mut matrix = pin_matrix_scalar(cubes);
    for r in 0..matrix.rows() {
        copy_left_reference(matrix.row_mut(r));
    }
    matrix.to_cube_set()
}

fn adj_fill_reference(cubes: &CubeSet) -> CubeSet {
    let mut out = CubeSet::new(cubes.width());
    for cube in cubes {
        let mut bits = cube.into_bits();
        copy_left_reference(&mut bits);
        out.push(TestCube::new(bits)).expect("width preserved");
    }
    out
}

/// Shapes deliberately covering sub-word, exact-word and multi-word
/// widths and cube counts, plus all-X and fully-specified densities.
fn shapes() -> Vec<CubeSet> {
    let mut sets = Vec::new();
    for &(width, count) in &[
        (1usize, 1usize),
        (3, 7),
        (63, 65),
        (64, 64),
        (65, 63),
        (130, 40),
        (200, 129),
    ] {
        for &density in &[0.0, 0.4, 0.8, 1.0] {
            let seed = width as u64 ^ (count as u64) << 8 ^ (density * 16.0) as u64;
            sets.push(random_cube_set(width, count, density, seed));
        }
    }
    sets
}

#[test]
fn constant_fills_match_reference_bit_for_bit() {
    for cubes in shapes() {
        assert_eq!(
            ZeroFill.fill(&cubes),
            constant_fill_reference(&cubes, Bit::Zero),
            "{}x{}",
            cubes.width(),
            cubes.len()
        );
        assert_eq!(
            OneFill.fill(&cubes),
            constant_fill_reference(&cubes, Bit::One)
        );
    }
}

#[test]
fn mt_fill_matches_reference_bit_for_bit() {
    for cubes in shapes() {
        assert_eq!(
            MtFill.fill(&cubes),
            mt_fill_reference(&cubes),
            "{}x{}",
            cubes.width(),
            cubes.len()
        );
    }
}

#[test]
fn adj_fill_matches_reference_bit_for_bit() {
    for cubes in shapes() {
        assert_eq!(
            AdjFill.fill(&cubes),
            adj_fill_reference(&cubes),
            "{}x{}",
            cubes.width(),
            cubes.len()
        );
    }
}

#[test]
fn every_fill_is_legal_on_wide_word_boundary_shapes() {
    for cubes in shapes() {
        for fill in [
            &ZeroFill as &dyn FillStrategy,
            &OneFill,
            &MtFill,
            &AdjFill,
            &BFill,
            &XStatFill,
            &DpFill::new(),
        ] {
            let filled = fill.fill(&cubes);
            assert!(
                CubeSet::is_filling_of(&filled, &cubes),
                "{} broke the filling contract on {}x{}",
                fill.name(),
                cubes.width(),
                cubes.len()
            );
        }
    }
}

#[test]
fn dp_fill_certificate_holds_on_word_boundary_shapes() {
    for cubes in shapes() {
        let report = DpFill::new()
            .try_run(&cubes)
            .expect("mapping instances solvable");
        assert_eq!(
            dpfill_cubes::peak_toggles(&report.filled).unwrap() as u64,
            report.peak,
            "{}x{}",
            cubes.width(),
            cubes.len()
        );
        assert!(report.lower_bound <= report.peak);
    }
}

#[test]
fn scalar_and_packed_entry_points_agree() {
    // The cube-major mapping of the packed set against the pin-major
    // reference scan of the scalar transpose: the same intervals (the
    // mapping lists them by end, the reference by pin), the same
    // baseline, and the same fill of one coloring.
    let cubes = CubeSet::parse_rows(&["0X1X0", "1XX00", "X01XX", "0XXX1"]).unwrap();
    let from_set = MatrixMapping::analyze(&cubes);
    let scalar = dpfill_cubes::packed::PackedMatrix::from_pin_matrix(&pin_matrix_scalar(&cubes));
    let from_scalar = dpfill_oracle::analyze_rows(&scalar);
    let mut by_pin: Vec<(u32, u32, u32)> = from_scalar
        .sites
        .iter()
        .map(|s| (s.start, s.end, s.pin))
        .collect();
    by_pin.sort_by_key(|&(_, end, pin)| (end, pin));
    let intervals: Vec<(u32, u32)> = from_set
        .instance()
        .intervals()
        .iter()
        .map(|iv| (iv.start(), iv.end()))
        .collect();
    let reference: Vec<(u32, u32)> = by_pin.iter().map(|&(s, e, _)| (s, e)).collect();
    assert_eq!(intervals, reference);
    assert_eq!(
        from_set.instance().baseline(),
        from_scalar.baseline.as_slice()
    );
    let coloring = from_set.instance().solve().unwrap().coloring;
    // Map each reference site to its color by (end, pin) position.
    let colors: Vec<u32> = from_scalar
        .sites
        .iter()
        .map(|s| {
            let at = by_pin
                .iter()
                .position(|&(start, end, pin)| (start, end, pin) == (s.start, s.end, s.pin))
                .unwrap();
            coloring.color(at)
        })
        .collect();
    assert_eq!(
        from_set.apply_coloring(&coloring),
        dpfill_oracle::splice_fill(
            &cubes,
            &from_scalar.first_values,
            &from_scalar.sites,
            &colors
        )
    );
}
