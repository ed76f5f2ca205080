//! Distances between cubes and toggle metrics over pattern sequences.
//!
//! The public kernels run on the bit-packed two-plane representation
//! ([`crate::packed`]): `hd(T_j, T_{j+1})` is one XOR+AND+popcount pass
//! per 64 pins, reduced by the active [`crate::popcount`] tier (scalar /
//! AVX2) — the set-level profiles resolve the tier once and sweep all
//! adjacent pairs through it. The original per-bit walks live in the
//! dev-only `dpfill-oracle` crate as the references the differential
//! tests pin these kernels against bit-for-bit.

use crate::packed::pack_word;
use crate::{CubeError, CubeSet, TestCube};

/// Hamming distance between two **fully specified** patterns, counting `X`
/// pessimistically: a pair involving an `X` on either side counts as *no*
/// toggle (the filling algorithm will decide it later). For the paper's
/// objective this function is applied after filling, where no `X` remains.
///
/// Runs on words: each 64-bit chunk is packed into (care, value) planes
/// on the stack and reduced with `popcount((a.val ^ b.val) & a.care &
/// b.care)`.
///
/// # Example
///
/// ```
/// use dpfill_cubes::{hamming_distance, TestCube};
///
/// let a: TestCube = "0101".parse().unwrap();
/// let b: TestCube = "0011".parse().unwrap();
/// assert_eq!(hamming_distance(&a, &b), 2);
/// ```
///
/// # Panics
///
/// Panics if the cubes have different widths.
pub fn hamming_distance(a: &TestCube, b: &TestCube) -> usize {
    assert_eq!(
        a.width(),
        b.width(),
        "hamming distance requires equal widths"
    );
    a.bits()
        .chunks(64)
        .zip(b.bits().chunks(64))
        .map(|(ca, cb)| {
            let (care_a, val_a) = pack_word(ca);
            let (care_b, val_b) = pack_word(cb);
            ((val_a ^ val_b) & care_a & care_b).count_ones() as usize
        })
        .sum()
}

/// *Conflict distance*: the number of pins where both cubes carry opposite
/// care bits. These toggles are unavoidable no matter how the `X` bits are
/// filled; the XStat ordering chains cubes by this metric.
///
/// For fully specified patterns this equals [`hamming_distance`].
pub fn conflict_distance(a: &TestCube, b: &TestCube) -> usize {
    hamming_distance(a, b)
}

/// Per-transition toggle counts for an ordered pattern sequence:
/// element `j` is `hd(T_j, T_{j+1})`, so the result has `n - 1` entries.
///
/// Runs directly on the set's packed planes — one XOR+AND+popcount pass
/// per adjacent pair, no conversion.
///
/// # Errors
///
/// Returns [`CubeError::EmptySet`] for an empty set.
pub fn toggle_profile(set: &CubeSet) -> Result<Vec<usize>, CubeError> {
    if set.is_empty() {
        return Err(CubeError::EmptySet);
    }
    Ok(set.as_packed().toggle_profile())
}

/// Peak toggles of an ordered pattern sequence: the paper's objective
/// `max_j hd(T_j, T_{j+1})`. A single pattern has peak `0`.
///
/// # Errors
///
/// Returns [`CubeError::EmptySet`] for an empty set.
pub fn peak_toggles(set: &CubeSet) -> Result<usize, CubeError> {
    if set.is_empty() {
        return Err(CubeError::EmptySet);
    }
    Ok(set.as_packed().peak_toggles())
}

/// Weighted per-transition toggle loads under a per-pin weight table:
/// element `j` is `Σ_i w_i · [T_j and T_{j+1} conflict at pin i]`. The
/// weighted objective generalizes the paper's unit metric — leakage and
/// IR-drop objectives compile down to these fixed-point weights — and
/// with all weights `1` it equals [`toggle_profile`] exactly.
///
/// # Errors
///
/// Returns [`CubeError::EmptySet`] for an empty set,
/// [`CubeError::WidthMismatch`] when the weight table's length differs
/// from the set width, and [`CubeError::Overflow`] when a transition's
/// weighted sum exceeds `u64`.
pub fn weighted_toggle_profile(set: &CubeSet, weights: &[u64]) -> Result<Vec<u64>, CubeError> {
    if set.is_empty() {
        return Err(CubeError::EmptySet);
    }
    set.as_packed().weighted_toggle_profile(weights)
}

/// Weighted peak toggle load `max_j whd(T_j, T_{j+1})` — the weighted
/// objective's analogue of [`peak_toggles`].
///
/// # Errors
///
/// Same as [`weighted_toggle_profile`].
pub fn weighted_peak_toggles(set: &CubeSet, weights: &[u64]) -> Result<u64, CubeError> {
    if set.is_empty() {
        return Err(CubeError::EmptySet);
    }
    set.as_packed().weighted_peak_toggles(weights)
}

/// Total toggles across the sequence (the *average power* proxy, reported
/// alongside the peak in the extension experiments).
///
/// # Errors
///
/// Returns [`CubeError::EmptySet`] for an empty set.
pub fn total_toggles(set: &CubeSet) -> Result<usize, CubeError> {
    if set.is_empty() {
        return Err(CubeError::EmptySet);
    }
    Ok(set.as_packed().total_toggles())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bit;

    fn set_of(rows: &[&str]) -> CubeSet {
        let mut set = CubeSet::new(rows[0].len());
        for r in rows {
            set.push(r.parse().unwrap()).unwrap();
        }
        set
    }

    #[test]
    fn hamming_counts_conflicting_care_bits_only() {
        let a: TestCube = "01X".parse().unwrap();
        let b: TestCube = "10X".parse().unwrap();
        assert_eq!(hamming_distance(&a, &b), 2);
        let c: TestCube = "0XX".parse().unwrap();
        assert_eq!(hamming_distance(&a, &c), 0);
    }

    #[test]
    fn hamming_is_symmetric_and_zero_on_self() {
        let a: TestCube = "0110".parse().unwrap();
        let b: TestCube = "1010".parse().unwrap();
        assert_eq!(hamming_distance(&a, &b), hamming_distance(&b, &a));
        assert_eq!(hamming_distance(&a, &a), 0);
    }

    #[test]
    #[should_panic(expected = "equal widths")]
    fn hamming_panics_on_width_mismatch() {
        let a: TestCube = "01".parse().unwrap();
        let b: TestCube = "010".parse().unwrap();
        let _ = hamming_distance(&a, &b);
    }

    #[test]
    fn profile_and_peak() {
        let set = set_of(&["000", "011", "010", "101"]);
        assert_eq!(toggle_profile(&set).unwrap(), vec![2, 1, 3]);
        assert_eq!(peak_toggles(&set).unwrap(), 3);
        assert_eq!(total_toggles(&set).unwrap(), 6);
    }

    #[test]
    fn unit_weights_equal_the_unweighted_profile() {
        for seed in 0..6u64 {
            let width = 50 + (seed as usize) * 17; // straddles the word boundary
            let set = crate::gen::random_cube_set(width, 24, 0.6, seed);
            let ones = vec![1u64; width];
            let weighted = weighted_toggle_profile(&set, &ones).unwrap();
            let unit: Vec<u64> = toggle_profile(&set)
                .unwrap()
                .into_iter()
                .map(|c| c as u64)
                .collect();
            assert_eq!(weighted, unit, "seed {seed}");
            assert_eq!(
                weighted_peak_toggles(&set, &ones).unwrap(),
                peak_toggles(&set).unwrap() as u64
            );
        }
    }

    #[test]
    fn weighted_rejects_bad_tables_and_overflow() {
        let set = set_of(&["000", "111"]);
        assert!(matches!(
            weighted_toggle_profile(&set, &[1, 1]),
            Err(CubeError::WidthMismatch {
                expected: 3,
                found: 2
            })
        ));
        // Two max-weight conflicting pins overflow the u64 accumulator.
        let max = vec![u64::MAX; 3];
        assert_eq!(
            weighted_toggle_profile(&set, &max),
            Err(CubeError::Overflow {
                what: "weighted toggle load"
            })
        );
        // A single max-weight conflict is fine.
        let one_hot = set_of(&["0XX", "1XX"]);
        assert_eq!(weighted_peak_toggles(&one_hot, &max).unwrap(), u64::MAX);
    }

    #[test]
    fn single_pattern_has_zero_peak() {
        let set = set_of(&["0101"]);
        assert_eq!(peak_toggles(&set).unwrap(), 0);
        assert!(toggle_profile(&set).unwrap().is_empty());
    }

    #[test]
    fn empty_set_is_an_error() {
        let set = CubeSet::new(4);
        assert_eq!(peak_toggles(&set), Err(CubeError::EmptySet));
        assert_eq!(total_toggles(&set), Err(CubeError::EmptySet));
        assert_eq!(toggle_profile(&set), Err(CubeError::EmptySet));
    }

    #[test]
    fn triangle_inequality_on_full_patterns() {
        // Hamming distance on fully specified patterns is a metric.
        let a: TestCube = "0000".parse().unwrap();
        let b: TestCube = "0110".parse().unwrap();
        let c: TestCube = "1111".parse().unwrap();
        assert!(hamming_distance(&a, &c) <= hamming_distance(&a, &b) + hamming_distance(&b, &c));
    }

    #[test]
    fn x_bits_do_not_count() {
        let a = TestCube::new(vec![Bit::X; 8]);
        let b: TestCube = "10101010".parse().unwrap();
        assert_eq!(hamming_distance(&a, &b), 0);
    }
}
