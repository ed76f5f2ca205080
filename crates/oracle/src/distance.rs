//! Per-bit toggle metrics over the scalar [`TestCube`] view — the
//! references for the packed popcount kernels in `dpfill_cubes`.

use dpfill_cubes::{CubeError, CubeSet, TestCube};

/// The per-bit Hamming walk: the reference for
/// [`dpfill_cubes::hamming_distance`].
///
/// # Panics
///
/// Panics if the cubes have different widths.
pub fn hamming_distance_scalar(a: &TestCube, b: &TestCube) -> usize {
    assert_eq!(
        a.width(),
        b.width(),
        "hamming distance requires equal widths"
    );
    a.iter()
        .zip(b.iter())
        .filter(|(x, y)| x.conflicts(*y))
        .count()
}

/// Reference per-bit toggle profile (differential-test twin of
/// [`dpfill_cubes::toggle_profile`]): decodes each pair to the scalar
/// compat view and walks bits.
///
/// # Errors
///
/// Returns [`CubeError::EmptySet`] for an empty set.
pub fn toggle_profile_scalar(set: &CubeSet) -> Result<Vec<usize>, CubeError> {
    if set.is_empty() {
        return Err(CubeError::EmptySet);
    }
    Ok((0..set.len() - 1)
        .map(|j| hamming_distance_scalar(&set.cube(j), &set.cube(j + 1)))
        .collect())
}

/// Reference per-bit peak (differential-test twin of
/// [`dpfill_cubes::peak_toggles`]).
///
/// # Errors
///
/// Returns [`CubeError::EmptySet`] for an empty set.
pub fn peak_toggles_scalar(set: &CubeSet) -> Result<usize, CubeError> {
    Ok(toggle_profile_scalar(set)?.into_iter().max().unwrap_or(0))
}

/// Reference per-bit weighted profile (differential-test twin of
/// [`dpfill_cubes::weighted_toggle_profile`]): decodes each pair to the
/// scalar compat view and accumulates weights bit by bit.
///
/// # Errors
///
/// Same as [`dpfill_cubes::weighted_toggle_profile`].
pub fn weighted_toggle_profile_scalar(
    set: &CubeSet,
    weights: &[u64],
) -> Result<Vec<u64>, CubeError> {
    if set.is_empty() {
        return Err(CubeError::EmptySet);
    }
    if weights.len() != set.width() {
        return Err(CubeError::WidthMismatch {
            expected: set.width(),
            found: weights.len(),
        });
    }
    (0..set.len() - 1)
        .map(|j| {
            let (a, b) = (set.cube(j), set.cube(j + 1));
            let mut total = 0u64;
            for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                if x.conflicts(y) {
                    total = total.checked_add(weights[i]).ok_or(CubeError::Overflow {
                        what: "weighted toggle load",
                    })?;
                }
            }
            Ok(total)
        })
        .collect()
}

/// Reference per-bit total (differential-test twin of
/// [`dpfill_cubes::total_toggles`]).
///
/// # Errors
///
/// Returns [`CubeError::EmptySet`] for an empty set.
pub fn total_toggles_scalar(set: &CubeSet) -> Result<usize, CubeError> {
    Ok(toggle_profile_scalar(set)?.into_iter().sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpfill_cubes::gen::random_cube_set;
    use dpfill_cubes::{
        hamming_distance, peak_toggles, toggle_profile, total_toggles, weighted_toggle_profile,
    };

    #[test]
    #[should_panic(expected = "equal widths")]
    fn scalar_hamming_panics_on_width_mismatch() {
        let a: TestCube = "01".parse().unwrap();
        let b: TestCube = "010".parse().unwrap();
        let _ = hamming_distance_scalar(&a, &b);
    }

    #[test]
    fn packed_and_scalar_paths_agree() {
        for seed in 0..8u64 {
            // Widths straddling the word boundary, including sparse sets.
            let width = 60 + (seed as usize) * 13; // 60..151
            let set = random_cube_set(width, 20, 0.5, seed);
            assert_eq!(
                toggle_profile(&set).unwrap(),
                toggle_profile_scalar(&set).unwrap(),
                "seed {seed}"
            );
            assert_eq!(
                peak_toggles(&set).unwrap(),
                peak_toggles_scalar(&set).unwrap()
            );
            assert_eq!(
                total_toggles(&set).unwrap(),
                total_toggles_scalar(&set).unwrap()
            );
            for j in 0..set.len() - 1 {
                let (a, b) = (set.cube(j), set.cube(j + 1));
                assert_eq!(hamming_distance(&a, &b), hamming_distance_scalar(&a, &b));
            }
        }
        let empty = CubeSet::new(4);
        assert_eq!(toggle_profile_scalar(&empty), Err(CubeError::EmptySet));
        assert_eq!(peak_toggles_scalar(&empty), Err(CubeError::EmptySet));
        assert_eq!(total_toggles_scalar(&empty), Err(CubeError::EmptySet));
    }

    #[test]
    fn weighted_packed_and_scalar_paths_agree() {
        for seed in 0..6u64 {
            let width = 60 + (seed as usize) * 13;
            let set = random_cube_set(width, 20, 0.5, seed);
            // Deterministic pseudo-random weights, including zeros.
            let weights: Vec<u64> = (0..width)
                .map(|i| (i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 56)
                .collect();
            assert_eq!(
                weighted_toggle_profile(&set, &weights).unwrap(),
                weighted_toggle_profile_scalar(&set, &weights).unwrap(),
                "seed {seed}"
            );
        }
        // Both paths reject the same bad table and overflow the same way.
        let set = CubeSet::parse_rows(&["000", "111"]).unwrap();
        for weights in [vec![1; 2], vec![u64::MAX; 3]] {
            assert_eq!(
                weighted_toggle_profile(&set, &weights),
                weighted_toggle_profile_scalar(&set, &weights)
            );
        }
        assert_eq!(
            weighted_toggle_profile_scalar(&set, &[u64::MAX; 3]),
            Err(CubeError::Overflow {
                what: "weighted toggle load"
            })
        );
    }
}
