//! Band-aware variants of the global orderings, for the streaming
//! pipeline's bounded-lookahead reorder stage.
//!
//! A windowed run never holds the whole cube set, so the global
//! orderings (whole-set sort + search) cannot run as-is. Instead the
//! [reorder stage](crate::stream) keeps a **ring** of a few windows
//! resident and re-orders just the ring each time cubes arrive; the
//! cubes already forwarded downstream are frozen. A banded ordering
//! therefore sees two extra pieces of context the global ones do not:
//!
//! * the **tail** — the last cube already frozen into the output order,
//!   so the first ring cube can be chosen *relative* to it;
//! * the **warm lower bound** — the frozen prefix's contribution to the
//!   optimal peak in unit toggles, maintained online by the analyzer's
//!   [`IncrementalBound`](crate::bcp::IncrementalBound) ladder, which
//!   lets the banded I-ordering's exit rule account for loads it can no
//!   longer see.
//!
//! The banded I-ordering scores a ring candidate like the global one:
//! one cube-major scan of the packed cubes in candidate order, then
//! feasibility probes on the bound problem (see
//! [`IOrdering::bottleneck`]).
//!
//! When there is **no** tail (the ring holds the entire input), the
//! banded orderings delegate to their global counterparts verbatim, so
//! a band that covers the whole set reproduces the whole-set
//! permutation bit for bit — the identity the differential suite pins.
//! A resident run orders its one window this way, and ISA
//! ([`BandedMethod::Isa`]) runs only there.

use dpfill_cubes::packed::{PackedBits, PackedCubeSet};
use dpfill_cubes::CubeSet;

use super::interleave::sorted_by_x_count;
use super::search::{scan, search};
use super::xstat::complete_permutation;
use super::{IOrdering, IsaOrdering, OrderingError, OrderingStrategy, PackedCubes, XStatOrdering};
use crate::stream::analyze::Keep;

/// Context a banded ordering receives about the frozen prefix.
#[derive(Clone, Copy, Debug)]
pub struct BandContext<'a> {
    /// The last cube already frozen into the output order, if any.
    /// `None` means nothing has been forwarded yet — the ring is the
    /// whole set seen so far.
    pub tail: Option<&'a PackedBits>,
    /// Lower bound on the optimal unit peak (toggles, under any
    /// objective) contributed by the frozen prefix: the analyzer's
    /// unit-load incremental ladder. Candidate ring orders cannot beat
    /// it, so the I-ordering's exit rule compares
    /// `max(warm_lb, local bottleneck)` per candidate.
    pub warm_lb: u64,
}

impl BandContext<'_> {
    /// Context for a ring that is the entire set (no frozen prefix).
    pub fn whole_set() -> BandContext<'static> {
        BandContext {
            tail: None,
            warm_lb: 0,
        }
    }
}

/// An ordering over one resident ring of cubes.
///
/// Implementations return a permutation of `0..ring.len()` — ring
/// positions, not global indices; the reorder stage does the mapping.
pub trait BandedOrdering {
    /// Short name used in reports.
    fn name(&self) -> &'static str;

    /// Orders the resident ring given the frozen-prefix context.
    ///
    /// # Errors
    ///
    /// [`OrderingError`] when a candidate evaluation fails.
    fn order_band(&self, ring: &CubeSet, ctx: BandContext<'_>)
        -> Result<Vec<usize>, OrderingError>;
}

/// The orderings the streaming driver can run over a ring, as an enum
/// for dispatch and labeling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BandedMethod {
    /// Banded I-ordering (Algorithm 3 replayed over the ring).
    Interleave,
    /// Online XStat (greedy chaining against the last emitted cube).
    XStat,
    /// Simulated annealing with the given seed ([`IsaOrdering`]), for a
    /// ring holding the whole set only: behind a frozen prefix it is
    /// [`OrderingError::NeedsWholeSet`].
    Isa(u64),
}

impl BandedMethod {
    /// Label matching the global ordering it approximates.
    pub fn label(self) -> &'static str {
        match self {
            BandedMethod::Interleave => "I-order",
            BandedMethod::XStat => "XStat-order",
            BandedMethod::Isa(_) => "ISA",
        }
    }

    /// Orders one ring.
    ///
    /// # Errors
    ///
    /// [`OrderingError`] when a candidate evaluation fails, or when a
    /// whole-set ordering meets a frozen prefix.
    pub fn order_band(
        self,
        ring: &CubeSet,
        ctx: BandContext<'_>,
    ) -> Result<Vec<usize>, OrderingError> {
        match self {
            BandedMethod::Interleave => BandedIOrdering::new().order_band(ring, ctx),
            BandedMethod::XStat => BandedXStatOrdering.order_band(ring, ctx),
            BandedMethod::Isa(seed) => match ctx.tail {
                None => IsaOrdering::new(seed).order(ring),
                Some(_) => Err(OrderingError::NeedsWholeSet(self.label())),
            },
        }
    }
}

/// Prepends `tail` to the ring as extended index 0; ring cube `i`
/// becomes extended index `i + 1`.
fn extend_with_tail(ring: &CubeSet, tail: &PackedBits) -> CubeSet {
    let mut ext = PackedCubeSet::new(ring.width());
    ext.push(tail.clone());
    for cube in ring.as_packed().cubes() {
        ext.push(cube.clone());
    }
    CubeSet::from_packed(ext)
}

/// Banded I-ordering: the paper's Algorithm 3 replayed over one ring.
///
/// The ring is sorted by ascending X count and the interleave schedule
/// is built per candidate `k` exactly as in [`IOrdering`]; each
/// candidate is evaluated as `[tail] ++ schedule` so the frozen→ring
/// transition is priced in, and its value is
/// `max(warm_lb, local bottleneck)` — the exit rule stops growing `k`
/// as soon as the combined bound stops improving (once the frozen
/// prefix dominates, no ring order can help and the search exits at the
/// first candidate).
///
/// Candidates are decided, not certified. Under `warm_lb > 0` the first
/// candidate costs one probe at `warm_lb`: when its bottleneck is at
/// most `warm_lb` its value is `warm_lb` and no later candidate can
/// beat it. Every later candidate is decided during its scan by one
/// pour against the best value so far, which stops the scan at its
/// first miss, and only a winner is certified. The order is the one a
/// search certifying every candidate picks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BandedIOrdering {
    max_k: Option<usize>,
}

impl BandedIOrdering {
    /// Banded I-ordering with the paper's stopping rule.
    pub fn new() -> BandedIOrdering {
        BandedIOrdering { max_k: None }
    }

    /// Banded I-ordering that additionally caps `k`.
    pub fn with_max_k(max_k: usize) -> BandedIOrdering {
        BandedIOrdering { max_k: Some(max_k) }
    }
}

impl BandedOrdering for BandedIOrdering {
    fn name(&self) -> &'static str {
        "banded-I-order"
    }

    fn order_band(
        &self,
        ring: &CubeSet,
        ctx: BandContext<'_>,
    ) -> Result<Vec<usize>, OrderingError> {
        let Some(tail) = ctx.tail else {
            // No frozen prefix: the ring is the whole set, so the global
            // algorithm applies verbatim (bit-identical permutation).
            let global = match self.max_k {
                Some(k) => IOrdering::with_max_k(k),
                None => IOrdering::new(),
            };
            return global.order(ring);
        };
        let n = ring.len();
        let _span = minitrace::span_with(
            "ordering.order",
            &[("cubes", n.into()), ("warm_lb", ctx.warm_lb.into())],
        );
        if n <= 1 {
            return Ok((0..n).collect());
        }
        let ext = extend_with_tail(ring, tail);
        let sorted = sorted_by_x_count(ring);
        let k_cap = self.max_k.unwrap_or(n - 1).min(n - 1).max(1);
        let (trace, _) = search(k_cap, ctx.warm_lb, false, false, n + 1, |k, ask| {
            let ring_order = IOrdering::schedule_for_k(&sorted, k);
            // Extended candidate: the tail stays first, ring cubes shift
            // by one.
            let candidate: Vec<usize> = std::iter::once(0)
                .chain(ring_order.iter().map(|&i| i + 1))
                .collect();
            let scanned = scan(&ext, &candidate, Keep::Starts, None, ask)?;
            Ok((ring_order, scanned))
        })?;
        Ok(trace.order)
    }
}

/// Online XStat: greedy nearest-neighbour chaining seeded at the last
/// emitted cube instead of the most specified one.
///
/// The tail is conceptually position −1 of the chain: the first ring
/// cube is the one with the fewest unavoidable toggles against it, and
/// chaining proceeds within the ring exactly as in [`XStatOrdering`]
/// (same conflict metric, same `(distance, −care, index)` tie key, same
/// chunked argmin over the pool).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BandedXStatOrdering;

impl BandedOrdering for BandedXStatOrdering {
    fn name(&self) -> &'static str {
        "banded-XStat-order"
    }

    fn order_band(
        &self,
        ring: &CubeSet,
        ctx: BandContext<'_>,
    ) -> Result<Vec<usize>, OrderingError> {
        let Some(tail) = ctx.tail else {
            return XStatOrdering.order(ring);
        };
        let n = ring.len();
        if n <= 1 {
            return Ok((0..n).collect());
        }
        let ext = extend_with_tail(ring, tail);
        let packed = PackedCubes::pack(&ext);
        let conflict = packed.scorer();
        // Care counts of the ring cubes (extended indices 1..=n).
        let care: Vec<usize> = (0..n).map(|i| packed.care_count(i + 1)).collect();

        let mut visited = vec![false; n];
        let mut order = Vec::with_capacity(n);
        // Extended index of the chain head: starts at the tail.
        let mut current = 0usize;
        for _ in 0..n {
            let best: Option<(usize, usize, usize)> =
                minipool::parallel_index_chunks(n, 256, |range| {
                    let mut local: Option<(usize, usize, usize)> = None;
                    for cand in range {
                        if visited[cand] {
                            continue;
                        }
                        let d = conflict(current, cand + 1);
                        let key = (d, usize::MAX - care[cand], cand);
                        if local.is_none_or(|b| key < b) {
                            local = Some(key);
                        }
                    }
                    local
                })
                .into_iter()
                .flatten()
                .min();
            let Some((_, _, next)) = best else {
                complete_permutation(&mut order, &visited);
                break;
            };
            visited[next] = true;
            order.push(next);
            current = next + 1;
        }
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::is_permutation;
    use dpfill_cubes::gen::random_cube_set;

    /// Splits off cube 0 as the frozen tail; the rest become the ring.
    fn split_tail_ring(cubes: &CubeSet) -> (PackedBits, CubeSet) {
        let tail = cubes.as_packed().cube(0).clone();
        let mut ring = PackedCubeSet::new(cubes.width());
        for c in &cubes.as_packed().cubes()[1..] {
            ring.push(c.clone());
        }
        (tail, CubeSet::from_packed(ring))
    }

    #[test]
    fn no_tail_delegates_to_the_global_orderings() {
        let cubes = random_cube_set(24, 17, 0.75, 11);
        assert_eq!(
            BandedIOrdering::new()
                .order_band(&cubes, BandContext::whole_set())
                .unwrap(),
            IOrdering::new().order(&cubes).unwrap()
        );
        assert_eq!(
            BandedXStatOrdering
                .order_band(&cubes, BandContext::whole_set())
                .unwrap(),
            XStatOrdering.order(&cubes).unwrap()
        );
    }

    #[test]
    fn with_tail_returns_ring_permutations() {
        let cubes = random_cube_set(20, 15, 0.8, 3);
        let (tail, ring) = split_tail_ring(&cubes);
        let ctx = BandContext {
            tail: Some(&tail),
            warm_lb: 0,
        };
        for method in [BandedMethod::Interleave, BandedMethod::XStat] {
            let order = method.order_band(&ring, ctx).unwrap();
            assert!(
                is_permutation(&order, ring.len()),
                "{} returned a non-permutation: {order:?}",
                method.label()
            );
        }
    }

    #[test]
    fn online_xstat_first_pick_is_nearest_to_the_tail() {
        // Tail 0000; ring: far cube, near cube, middling cube.
        let cubes = CubeSet::parse_rows(&["0000", "1111", "000X", "0011"]).unwrap();
        let (tail, ring) = split_tail_ring(&cubes);
        let order = BandedXStatOrdering
            .order_band(
                &ring,
                BandContext {
                    tail: Some(&tail),
                    warm_lb: 0,
                },
            )
            .unwrap();
        // Ring position 1 ("000X") conflicts with the tail on 0 pins.
        assert_eq!(order[0], 1, "order: {order:?}");
    }

    #[test]
    fn dominant_warm_bound_short_circuits_the_k_search() {
        // With the frozen prefix dominating every candidate, the exit
        // rule fires at the second candidate and the k=1 schedule wins.
        let cubes = random_cube_set(16, 12, 0.8, 7);
        let (tail, ring) = split_tail_ring(&cubes);
        let order = BandedIOrdering::new()
            .order_band(
                &ring,
                BandContext {
                    tail: Some(&tail),
                    warm_lb: u64::MAX,
                },
            )
            .unwrap();
        let x_counts = ring.x_counts();
        let mut sorted: Vec<usize> = (0..ring.len()).collect();
        sorted.sort_by_key(|&i| (x_counts[i], i));
        assert_eq!(order, IOrdering::schedule_for_k(&sorted, 1));
    }

    #[test]
    fn banded_orderings_are_thread_count_invariant() {
        let cubes = random_cube_set(24, 18, 0.8, 13);
        let (tail, ring) = split_tail_ring(&cubes);
        let ctx = BandContext {
            tail: Some(&tail),
            warm_lb: 3,
        };
        for method in [BandedMethod::Interleave, BandedMethod::XStat] {
            let serial = minipool::with_pool(&minipool::ThreadPool::new(1), || {
                method.order_band(&ring, ctx).unwrap()
            });
            let pooled = minipool::with_pool(&minipool::ThreadPool::new(8), || {
                method.order_band(&ring, ctx).unwrap()
            });
            assert_eq!(serial, pooled, "{}", method.label());
        }
    }
}
