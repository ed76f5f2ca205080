//! Shift-power metrics.

use dpfill_cubes::{Bit, CubeSet};

use crate::{ScanChains, ScanError};

/// Weighted Transitions Metric of one scan-in vector (Sankaralingam et
/// al.): a transition between positions `p` and `p+1` of an `L`-cell
/// chain is weighted by `L - p - 1` — the number of shift cycles it
/// travels through the chain. `X` bits count as no transition (they can
/// always be filled to avoid one; Adj-fill \[21\] does exactly that).
pub fn wtm(chain_vector: &[Bit]) -> u64 {
    let l = chain_vector.len();
    let mut total = 0u64;
    for p in 0..l.saturating_sub(1) {
        if chain_vector[p].conflicts(chain_vector[p + 1]) {
            total += (l - p - 1) as u64;
        }
    }
    total
}

/// Per-pattern shift power (summed WTM over all chains).
///
/// # Errors
///
/// Returns [`ScanError::WidthMismatch`] when pattern width differs from
/// the design's scan width.
pub fn shift_power_profile(chains: &ScanChains, patterns: &CubeSet) -> Result<Vec<u64>, ScanError> {
    let mut out = Vec::with_capacity(patterns.len());
    for cube in patterns {
        let vectors = chains.chain_vectors(&cube)?;
        out.push(vectors.iter().map(|v| wtm(v)).sum());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpfill_netlist::{GateKind, Netlist, NetlistBuilder};

    fn design(ffs: usize) -> Netlist {
        let mut b = NetlistBuilder::new("d");
        b.input("a");
        b.gate("d", GateKind::Buf, &["a"]).unwrap();
        for i in 0..ffs {
            b.dff(format!("q{i}"), "d").unwrap();
        }
        b.output("d");
        b.build().unwrap()
    }

    fn bits(s: &str) -> Vec<Bit> {
        s.chars().map(|c| Bit::from_char(c).unwrap()).collect()
    }

    #[test]
    fn wtm_weights_early_transitions_heavier() {
        // Transition at position 0 of a 4-cell chain travels 3 cycles.
        assert_eq!(wtm(&bits("1000")), 3);
        // Transition at the end travels 1 cycle.
        assert_eq!(wtm(&bits("0001")), 1);
        // Alternating is worst.
        assert_eq!(wtm(&bits("0101")), 3 + 2 + 1);
        // Constant vector is free.
        assert_eq!(wtm(&bits("1111")), 0);
    }

    #[test]
    fn x_bits_do_not_pay() {
        assert_eq!(wtm(&bits("1X0X")), 0);
        assert_eq!(wtm(&bits("XXXX")), 0);
    }

    #[test]
    fn empty_and_single_cell() {
        assert_eq!(wtm(&[]), 0);
        assert_eq!(wtm(&bits("1")), 0);
    }

    #[test]
    fn profile_over_patterns() {
        let n = design(4);
        let chains = crate::ScanChains::single(&n).unwrap();
        let patterns = CubeSet::parse_rows(&["10101", "11111", "10000"]).unwrap();
        // FF sections: "0101", "1111", "0000".
        let profile = shift_power_profile(&chains, &patterns).unwrap();
        assert_eq!(profile, vec![6, 0, 0]);
    }

    #[test]
    fn adjacent_fill_reduces_shift_power() {
        use dpfill_core::fill::{AdjFill, FillStrategy, RandomFill};
        let n = design(16);
        let chains = crate::ScanChains::single(&n).unwrap();
        let cubes = dpfill_cubes::gen::random_cube_set(17, 20, 0.8, 3);
        let adj: u64 = shift_power_profile(&chains, &AdjFill.fill(&cubes))
            .unwrap()
            .iter()
            .sum();
        let rnd: u64 = shift_power_profile(&chains, &RandomFill::new(1).fill(&cubes))
            .unwrap()
            .iter()
            .sum();
        assert!(
            adj < rnd,
            "Adj-fill ({adj}) should beat random ({rnd}) on WTM"
        );
    }
}
