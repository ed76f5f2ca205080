//! Differential suite for the I-ordering's candidate search.
//!
//! A candidate order is scored by scanning the packed cubes in that
//! order ([`IOrdering::bottleneck`]); the reference is the bound of the
//! full §V-C mapping of the materialized reordered set. The deciding
//! searches ([`IOrdering`]'s `order`, [`BandedIOrdering`]) must pick the
//! order a search certifying every candidate picks. Every check runs at
//! 1, 2 and 8 threads.

use dpfill_core::ordering::{
    BandContext, BandedIOrdering, BandedOrdering, IOrdering, OrderingStrategy,
};
use dpfill_core::MatrixMapping;
use dpfill_cubes::gen::random_cube_set;
use dpfill_cubes::packed::PackedCubeSet;
use dpfill_cubes::CubeSet;

const THREADS: [usize; 3] = [1, 2, 8];
/// The scan splits pins into chunks of at least 8 words, so 520 and
/// 1,100 pins scan as two and three chunks, probed group by group.
const WIDTHS: [usize; 7] = [1, 63, 64, 65, 130, 520, 1100];
const COUNTS: [usize; 6] = [1, 2, 3, 5, 17, 40];
const X_DENSITIES: [f64; 5] = [0.0, 0.3, 0.6, 0.9, 1.0];

fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    minipool::with_pool(&minipool::ThreadPool::new(threads), f)
}

/// The bound of the full mapping of `cubes` reordered by `order`.
fn reference_bound(cubes: &CubeSet, order: &[usize]) -> u64 {
    let reordered = cubes.reordered(order).unwrap();
    MatrixMapping::analyze(&reordered)
        .instance()
        .lower_bound()
        .unwrap()
}

/// `T'`: indices by ascending X count, stable by index.
fn sorted_by_x_count(cubes: &CubeSet) -> Vec<usize> {
    let x_counts = cubes.x_counts();
    let mut sorted: Vec<usize> = (0..cubes.len()).collect();
    sorted.sort_by_key(|&i| (x_counts[i], i));
    sorted
}

/// `[tail] ++ ring` and the ring: cube 0 of `cubes` is the frozen tail.
fn tail_and_ring(cubes: &CubeSet) -> (CubeSet, CubeSet) {
    let mut ring = PackedCubeSet::new(cubes.width());
    for cube in &cubes.as_packed().cubes()[1..] {
        ring.push(cube.clone());
    }
    (cubes.clone(), CubeSet::from_packed(ring))
}

/// The banded candidate of factor `k` over the extended set.
fn banded_candidate(ring: &CubeSet, k: usize) -> (Vec<usize>, Vec<usize>) {
    let ring_order = IOrdering::schedule_for_k(&sorted_by_x_count(ring), k);
    let extended = std::iter::once(0)
        .chain(ring_order.iter().map(|&i| i + 1))
        .collect();
    (ring_order, extended)
}

/// Every seeded shape of the suite.
fn shapes() -> impl Iterator<Item = (CubeSet, String)> {
    let mut seed = 0u64;
    WIDTHS.into_iter().flat_map(move |width| {
        COUNTS.into_iter().flat_map(move |count| {
            X_DENSITIES.into_iter().map(move |density| {
                seed += 1;
                let cubes = random_cube_set(width, count, density, 0x10_5EED + seed);
                (cubes, format!("{width} pins x {count} cubes, X {density}"))
            })
        })
    })
}

#[test]
fn scanned_bottleneck_equals_the_mapping_bound() {
    for threads in THREADS {
        with_threads(threads, || {
            for (cubes, shape) in shapes() {
                let sorted = sorted_by_x_count(&cubes);
                for k in 1..=4 {
                    let order = IOrdering::schedule_for_k(&sorted, k);
                    assert_eq!(
                        IOrdering::bottleneck(&cubes, &order).unwrap(),
                        reference_bound(&cubes, &order),
                        "{shape}, k {k}, {threads} threads"
                    );
                }
                // A reversed order too: not every candidate is sorted.
                let reversed: Vec<usize> = (0..cubes.len()).rev().collect();
                assert_eq!(
                    IOrdering::bottleneck(&cubes, &reversed).unwrap(),
                    reference_bound(&cubes, &reversed),
                    "{shape}, reversed, {threads} threads"
                );
                if cubes.len() >= 2 {
                    let (ext, ring) = tail_and_ring(&cubes);
                    for k in 1..=4 {
                        let (_, candidate) = banded_candidate(&ring, k);
                        assert_eq!(
                            IOrdering::bottleneck(&ext, &candidate).unwrap(),
                            reference_bound(&ext, &candidate),
                            "{shape}, banded k {k}, {threads} threads"
                        );
                    }
                }
            }
        });
    }
}

#[test]
fn deciding_order_equals_the_certified_trace_order() {
    for threads in THREADS {
        with_threads(threads, || {
            for (cubes, shape) in shapes() {
                for search in [IOrdering::new(), IOrdering::with_max_k(2)] {
                    assert_eq!(
                        search.order(&cubes).unwrap(),
                        search.order_with_trace(&cubes).unwrap().order,
                        "{shape}, {search:?}, {threads} threads"
                    );
                }
            }
        });
    }
}

/// The banded search certifying every candidate: value
/// `max(warm_lb, bottleneck)`, stop at the first value that does not
/// improve.
fn reference_banded(ring: &CubeSet, ext: &CubeSet, warm_lb: u64) -> Vec<usize> {
    let mut best: Option<(u64, Vec<usize>)> = None;
    for k in 1..ring.len().max(2) {
        let (ring_order, candidate) = banded_candidate(ring, k);
        let value = reference_bound(ext, &candidate).max(warm_lb);
        match &best {
            Some((b, _)) if value >= *b => break,
            _ => best = Some((value, ring_order)),
        }
    }
    best.map(|(_, order)| order).unwrap()
}

#[test]
fn banded_search_equals_the_certifying_reference() {
    for threads in THREADS {
        with_threads(threads, || {
            for (cubes, shape) in shapes().filter(|(c, _)| c.len() >= 3) {
                let (ext, ring) = tail_and_ring(&cubes);
                let tail = cubes.as_packed().cube(0);
                let (_, first) = banded_candidate(&ring, 1);
                let ring_bound = reference_bound(&ext, &first);
                let mut warms = vec![0, 1, ring_bound, ring_bound + 1, u64::MAX];
                if ring_bound > 1 {
                    warms.push(ring_bound - 1);
                }
                for warm_lb in warms {
                    let ctx = BandContext {
                        tail: Some(tail),
                        warm_lb,
                    };
                    assert_eq!(
                        BandedIOrdering::new().order_band(&ring, ctx).unwrap(),
                        reference_banded(&ring, &ext, warm_lb),
                        "{shape}, warm_lb {warm_lb}, {threads} threads"
                    );
                }
            }
        });
    }
}
