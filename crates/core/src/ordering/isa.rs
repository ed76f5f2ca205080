use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dpfill_cubes::popcount::{self, PopcountKernel};
use dpfill_cubes::CubeSet;

use crate::fill::{FillStrategy, MtFill};

use super::{OrderingError, OrderingStrategy, PackedCubes};

/// Simulated-annealing vector ordering, reconstructing the
/// ordering-based low-power technique of Girard et al. \[20\] ("ISA" in
/// the paper's Table V).
///
/// The original work orders *fully specified* vectors to reduce test
/// power; we therefore (1) fill the cubes with MT-fill, (2) anneal over
/// permutations minimizing the **peak** Hamming distance between
/// consecutive filled vectors (total distance as tie-break), using swap
/// and segment-reversal moves with incremental cost updates.
///
/// The result is deterministic for a given seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IsaOrdering {
    seed: u64,
    // `None` = resolve the default budget per instance. An explicit
    // `Some(0)` is honored as "no moves": zero no longer doubles as the
    // unresolved sentinel, so `with_iterations(seed, 0)` is the
    // identity-order annealer instead of silently falling back to the
    // default budget.
    iterations: Option<usize>,
}

impl IsaOrdering {
    /// Annealer with the default iteration budget (`max(20000, 30·n)` at
    /// order time).
    pub fn new(seed: u64) -> IsaOrdering {
        IsaOrdering {
            seed,
            iterations: None,
        }
    }

    /// Annealer with an explicit iteration budget. `0` means exactly
    /// that — no moves are attempted and the identity order is returned.
    pub fn with_iterations(seed: u64, iterations: usize) -> IsaOrdering {
        IsaOrdering {
            seed,
            iterations: Some(iterations),
        }
    }

    fn budget(&self, n: usize) -> usize {
        self.iterations.unwrap_or_else(|| 20_000.max(30 * n))
    }
}

/// Annealing state: permutation + per-transition distances + cached
/// peak. The popcount kernel is resolved once at construction and held
/// for the whole anneal, so per-move rescoring never re-dispatches.
struct State<'a> {
    packed: &'a PackedCubes,
    kernel: PopcountKernel,
    perm: Vec<usize>,
    dist: Vec<u32>,
    peak: u32,
    total: u64,
}

impl<'a> State<'a> {
    fn new(packed: &'a PackedCubes) -> State<'a> {
        let n = packed.len();
        let kernel = popcount::active_kernel();
        let perm: Vec<usize> = (0..n).collect();
        // The initial transition-distance profile is the one wide scan
        // of the annealer (the moves themselves are incremental), so it
        // fans out over the pool as per-chunk batched sweeps;
        // concatenating per-range pieces in range order reproduces the
        // serial vector exactly.
        let perm_ref = &perm;
        let dist: Vec<u32> = minipool::parallel_index_chunks(n.saturating_sub(1), 64, |range| {
            range
                .map(|j| packed.conflict_with(kernel, perm_ref[j], perm_ref[j + 1]) as u32)
                .collect::<Vec<u32>>()
        })
        .concat();
        let peak = dist.iter().copied().max().unwrap_or(0);
        let total = dist.iter().map(|&d| d as u64).sum();
        State {
            packed,
            kernel,
            perm,
            dist,
            peak,
            total,
        }
    }

    fn cost(peak: u32, total: u64, n: usize) -> f64 {
        // Peak dominates; normalized total breaks ties smoothly.
        peak as f64 + total as f64 / ((n as f64 + 1.0) * (n as f64 + 1.0))
    }

    /// Applies `perm[a..=b].reverse()` and updates the two boundary
    /// transitions. Interior transition *values* are preserved by the
    /// reversal (distance is symmetric) but their positions mirror, so
    /// the cached `dist` slice is reversed to stay aligned.
    fn reverse(&mut self, a: usize, b: usize) {
        self.perm[a..=b].reverse();
        if b > a {
            self.dist[a..b].reverse();
        }
        self.refresh_batch([a.wrapping_sub(1), b, usize::MAX, usize::MAX]);
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.perm.swap(a, b);
        self.refresh_batch([a.wrapping_sub(1), a, b.wrapping_sub(1), b]);
    }

    /// Rescoring shared across the (up to four) transitions a move
    /// touches: all new distances come off one tight kernel-hoisted
    /// sweep — the mutated pairs share the dispatch and the reloaded
    /// anchor rows — and then the cache updates apply in move order.
    /// The distances depend only on the (already mutated) permutation,
    /// so precomputing them is bit-identical to refreshing one by one;
    /// out-of-range slots (`usize::MAX` padding, edge transitions) are
    /// skipped.
    fn refresh_batch(&mut self, ts: [usize; 4]) {
        let mut fresh = [0u32; 4];
        for (slot, &t) in fresh.iter_mut().zip(&ts) {
            if t < self.dist.len() {
                *slot = self
                    .packed
                    .conflict_with(self.kernel, self.perm[t], self.perm[t + 1])
                    as u32;
            }
        }
        for (&t, &new) in ts.iter().zip(&fresh) {
            if t < self.dist.len() {
                self.apply(t, new);
            }
        }
    }

    /// Installs the rescored distance of transition `t`, maintaining the
    /// running total and the cached peak.
    fn apply(&mut self, t: usize, new: u32) {
        let old = self.dist[t];
        if new == old {
            return;
        }
        self.total = self.total - old as u64 + new as u64;
        self.dist[t] = new;
        if new > self.peak {
            self.peak = new;
        } else if old == self.peak {
            // The peak may have dropped; recompute lazily.
            self.peak = self.dist.iter().copied().max().unwrap_or(0);
        }
    }
}

impl OrderingStrategy for IsaOrdering {
    fn name(&self) -> &'static str {
        "ISA"
    }

    fn order(&self, cubes: &CubeSet) -> Result<Vec<usize>, OrderingError> {
        let n = cubes.len();
        if n <= 2 {
            return Ok((0..n).collect());
        }
        // Step 1: fully specify with MT-fill, as [20] orders specified
        // vectors.
        let filled = MtFill.fill(cubes);
        let packed = PackedCubes::pack(&filled);
        let mut state = State::new(&packed);
        let mut rng = StdRng::seed_from_u64(self.seed);

        let iters = self.budget(n);
        let mut best_perm = state.perm.clone();
        let mut best_cost = State::cost(state.peak, state.total, n);
        // Geometric cooling from a temperature proportional to the
        // initial peak down to ~0.01 toggles.
        let t0 = (state.peak as f64).max(1.0);
        let t1 = 0.01f64;
        for it in 0..iters {
            let temp = t0 * (t1 / t0).powf(it as f64 / iters as f64);
            let before = State::cost(state.peak, state.total, n);
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a == b {
                continue;
            }
            let (lo, hi) = (a.min(b), a.max(b));
            let use_reverse = rng.gen_bool(0.5);
            if use_reverse {
                state.reverse(lo, hi);
            } else {
                state.swap(lo, hi);
            }
            let after = State::cost(state.peak, state.total, n);
            let accept =
                after <= before || rng.gen_bool(((before - after) / temp).exp().clamp(0.0, 1.0));
            if accept {
                if after < best_cost {
                    best_cost = after;
                    best_perm.copy_from_slice(&state.perm);
                }
            } else {
                // Undo (both moves are involutions).
                if use_reverse {
                    state.reverse(lo, hi);
                } else {
                    state.swap(lo, hi);
                }
            }
        }
        Ok(best_perm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::is_permutation;
    use dpfill_cubes::{gen::random_cube_set, hamming_distance, peak_toggles};

    fn peak_after_mt(cubes: &CubeSet, order: &[usize]) -> usize {
        let filled = MtFill.fill(&cubes.reordered(order).unwrap());
        peak_toggles(&filled).unwrap()
    }

    #[test]
    fn improves_over_adversarial_order() {
        // Two clusters interleaved: 0-cluster and 1-cluster alternate, so
        // the tool order pays the full width every transition.
        let rows = [
            "0000000000",
            "1111111111",
            "0000000001",
            "1111111110",
            "0000000011",
            "1111111100",
        ];
        let cubes = CubeSet::parse_rows(&rows).unwrap();
        let identity: Vec<usize> = (0..cubes.len()).collect();
        let order = IsaOrdering::with_iterations(3, 5_000)
            .order(&cubes)
            .unwrap();
        assert!(is_permutation(&order, cubes.len()));
        assert!(
            peak_after_mt(&cubes, &order) < peak_after_mt(&cubes, &identity),
            "annealing failed to beat the alternating order"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let cubes = random_cube_set(24, 15, 0.6, 9);
        let a = IsaOrdering::with_iterations(7, 2_000)
            .order(&cubes)
            .unwrap();
        let b = IsaOrdering::with_iterations(7, 2_000)
            .order(&cubes)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn tiny_sets_are_identity() {
        let cubes = CubeSet::parse_rows(&["01", "10"]).unwrap();
        assert_eq!(IsaOrdering::new(0).order(&cubes).unwrap(), vec![0, 1]);
    }

    #[test]
    fn explicit_zero_iterations_is_identity_order() {
        // Regression: `0` used to double as the "unresolved" sentinel,
        // so an explicit zero-iteration annealer silently ran the full
        // default budget (`max(20000, 30·n)`) instead of making no
        // moves.
        let cubes = random_cube_set(24, 15, 0.6, 9);
        let identity: Vec<usize> = (0..cubes.len()).collect();
        for seed in [0u64, 7, 42] {
            assert_eq!(
                IsaOrdering::with_iterations(seed, 0).order(&cubes).unwrap(),
                identity,
                "seed {seed}"
            );
        }
        // The default-budget constructor still anneals (not identity on
        // an adversarial alternating order).
        assert_eq!(IsaOrdering::new(3).budget(cubes.len()), 20_000);
        assert_eq!(IsaOrdering::with_iterations(3, 5).budget(cubes.len()), 5);
    }

    #[test]
    fn incremental_state_matches_recount() {
        let cubes = random_cube_set(16, 12, 0.5, 4);
        let filled = MtFill.fill(&cubes);
        let packed = PackedCubes::pack(&filled);
        let mut state = State::new(&packed);
        // Apply a few moves and recount from scratch.
        state.swap(1, 7);
        state.reverse(2, 9);
        state.swap(0, 11);
        let dist: Vec<u32> = (0..filled.len() - 1)
            .map(|j| {
                hamming_distance(&filled.cube(state.perm[j]), &filled.cube(state.perm[j + 1]))
                    as u32
            })
            .collect();
        assert_eq!(state.dist, dist);
        assert_eq!(state.peak, dist.iter().copied().max().unwrap());
        assert_eq!(state.total, dist.iter().map(|&d| d as u64).sum::<u64>());
    }
}
