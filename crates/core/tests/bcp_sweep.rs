//! Differential suite for the BCP sweeps: the earliest-fit kernels
//! behind `color_edf`, `color_greedy_paper`, `color_edf_weighted` and
//! the lower bounds must reproduce the textbook binary-heap EDF sweeps
//! exactly — the same coloring, or the same `Infeasible { peak, color }`
//! — on unit and weighted loads, baselines, point intervals, instances
//! whose intervals all share one deadline, empty instances and loads
//! near `u64::MAX`.
//!
//! The heap sweeps below are the reference, written against the public
//! instance API (`intervals()`, `baseline()`, `interval_load()`): the
//! pending set is a min-heap keyed on `(end, index)`, each color pops
//! its quota in that order, and an interval still pending after its
//! deadline reports that deadline.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dpfill_core::bcp::{BcpError, BcpInstance};
use dpfill_core::Interval;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type Heap = BinaryHeap<Reverse<(u32, u32)>>;

/// Intervals grouped by start color, in index order.
fn by_start(inst: &BcpInstance) -> Vec<Vec<u32>> {
    let mut by_start = vec![Vec::new(); inst.num_colors()];
    for (i, iv) in inst.intervals().iter().enumerate() {
        by_start[iv.start() as usize].push(i as u32);
    }
    by_start
}

/// The unit heap sweep: at each color push the intervals starting
/// there, then pop up to `capacity(t)` earliest deadlines.
fn heap_edf(
    inst: &BcpInstance,
    attempted: u64,
    capacity: impl Fn(usize) -> u64,
) -> Result<Vec<u32>, BcpError> {
    let ivs = inst.intervals();
    let miss = |color| BcpError::Infeasible {
        peak: attempted,
        color,
    };
    let mut colors = vec![u32::MAX; ivs.len()];
    let mut heap = Heap::new();
    for (t, starts) in by_start(inst).iter().enumerate() {
        for &idx in starts {
            heap.push(Reverse((ivs[idx as usize].end(), idx)));
        }
        let quota = capacity(t);
        let mut used = 0u64;
        while used < quota {
            let Some(Reverse((end, idx))) = heap.pop() else {
                break;
            };
            if (end as usize) < t {
                return Err(miss(end));
            }
            colors[idx as usize] = t as u32;
            used += 1;
        }
        if let Some(&Reverse((end, _))) = heap.peek() {
            if (end as usize) < t {
                return Err(miss(end));
            }
        }
    }
    match heap.peek() {
        Some(&Reverse((end, _))) => Err(miss(end)),
        None => Ok(colors),
    }
}

/// The weighted ("blocking") heap sweep: a color takes the heap head
/// while its load still fits the remaining capacity `peak − baseline_t`.
/// The fit test is checked: a saturating one passes a sum beyond
/// `u64::MAX` at capacity `u64::MAX`, which then wraps.
fn heap_edf_weighted(inst: &BcpInstance, peak: u64) -> Result<Vec<u32>, BcpError> {
    let ivs = inst.intervals();
    let miss = |color| BcpError::Infeasible { peak, color };
    let mut colors = vec![u32::MAX; ivs.len()];
    let mut heap = Heap::new();
    for (t, starts) in by_start(inst).iter().enumerate() {
        for &idx in starts {
            heap.push(Reverse((ivs[idx as usize].end(), idx)));
        }
        let quota = peak.saturating_sub(inst.baseline()[t]);
        let mut used = 0u64;
        while let Some(&Reverse((end, idx))) = heap.peek() {
            if (end as usize) < t {
                return Err(miss(end));
            }
            match used.checked_add(inst.interval_load(idx as usize)) {
                Some(next) if next <= quota => used = next,
                _ => break,
            }
            heap.pop();
            colors[idx as usize] = t as u32;
        }
    }
    match heap.peek() {
        Some(&Reverse((end, _))) => Err(miss(end)),
        None => Ok(colors),
    }
}

/// The fractional heap probe: preemptive EDF over per-interval
/// remaining loads with capacity `peak − baseline_t`.
fn heap_fractional_feasible(inst: &BcpInstance, peak: u64) -> bool {
    let ivs = inst.intervals();
    let mut remaining: Vec<u64> = (0..ivs.len()).map(|i| inst.interval_load(i)).collect();
    let mut heap = Heap::new();
    for (t, starts) in by_start(inst).iter().enumerate() {
        for &idx in starts {
            heap.push(Reverse((ivs[idx as usize].end(), idx)));
        }
        let mut quota = peak.saturating_sub(inst.baseline()[t]);
        while quota > 0 {
            let Some(&Reverse((end, idx))) = heap.peek() else {
                break;
            };
            if (end as usize) < t {
                return false;
            }
            let r = remaining[idx as usize];
            if r <= quota {
                quota -= r;
                heap.pop();
            } else {
                remaining[idx as usize] = r - quota;
                quota = 0;
            }
        }
        if let Some(&Reverse((end, _))) = heap.peek() {
            if (end as usize) < t {
                return false;
            }
        }
    }
    heap.is_empty()
}

/// The smallest peak a monotone predicate accepts, or `None` when even
/// `u64::MAX` fails (the bound is not representable).
fn min_feasible(feasible: impl Fn(u64) -> bool) -> Option<u64> {
    if !feasible(u64::MAX) {
        return None;
    }
    let (mut bad, mut good) = (None::<u64>, u64::MAX);
    while bad.map_or(0, |b| b + 1) < good {
        let lo = bad.map_or(0, |b| b + 1);
        let mid = lo + (good - lo) / 2;
        if feasible(mid) {
            good = mid;
        } else {
            bad = Some(mid);
        }
    }
    Some(good)
}

/// The weighted solve's peak search on the heap sweep: gallop from the
/// bound, then bisect, keeping "good is feasible" throughout.
fn heap_blocking_target(inst: &BcpInstance, lb: u64) -> Option<u64> {
    let feasible = |p| heap_edf_weighted(inst, p).is_ok();
    if feasible(lb) {
        return Some(lb);
    }
    let (mut bad, mut step) = (lb, 1u64);
    let mut good = loop {
        let p = bad.saturating_add(step);
        if feasible(p) {
            break p;
        }
        if p == u64::MAX {
            return None;
        }
        bad = p;
        step = step.saturating_mul(2);
    };
    while good - bad > 1 {
        let mid = bad + (good - bad) / 2;
        if feasible(mid) {
            good = mid;
        } else {
            bad = mid;
        }
    }
    Some(good)
}

/// Peaks one below, at and one above `p` (where representable).
fn around(p: u64) -> Vec<u64> {
    [p.checked_sub(1), Some(p), p.checked_add(1)]
        .into_iter()
        .flatten()
        .collect()
}

fn colors_of(r: Result<dpfill_core::Coloring, BcpError>) -> Result<Vec<u32>, BcpError> {
    r.map(|c| c.colors().to_vec())
}

/// The whole differential on one instance: bounds, then every coloring
/// entry point at the bound's neighbors, then the weighted search
/// target and the solves built on them.
fn assert_matches_heap(inst: &BcpInstance) {
    let base = inst.baseline();
    let unit = inst.is_unit();

    // The paper's bound and Algorithm 2 around it.
    let paper = min_feasible(|p| heap_edf(inst, p, |_| p).is_ok()).expect("unit bound fits");
    assert_eq!(inst.lower_bound_paper().unwrap(), paper, "paper bound");
    for p in around(paper) {
        assert_eq!(
            colors_of(inst.color_greedy_paper(p)),
            heap_edf(inst, p, |_| p),
            "color_greedy_paper({p})"
        );
    }

    // The generalized unit sweep around the baseline-aware bound.
    // Baseline-aware bounds also cover the heaviest baseline color,
    // which a saturating capacity alone never charges.
    let max_base = base.iter().copied().max().unwrap_or(0);
    let general = min_feasible(|p| heap_edf(inst, p, |t| p.saturating_sub(base[t])).is_ok())
        .map(|p| p.max(max_base));
    for p in around(general.unwrap_or(u64::MAX)) {
        assert_eq!(
            colors_of(inst.color_edf(p)),
            heap_edf(inst, p, |t| p.saturating_sub(base[t])),
            "color_edf({p})"
        );
    }

    // The weighted sweep around the fractional bound and at the
    // blocking search's target.
    let fractional = min_feasible(|p| heap_fractional_feasible(inst, p)).map(|p| p.max(max_base));
    let bound = inst.lower_bound();
    let expect_bound = if unit { general } else { fractional };
    match expect_bound {
        Some(lb) => assert_eq!(bound, Ok(lb), "lower_bound"),
        None => assert!(matches!(bound, Err(BcpError::Overflow { .. })), "{bound:?}"),
    }
    let Some(wlb) = fractional else {
        assert!(matches!(inst.solve(), Err(BcpError::Overflow { .. })));
        return;
    };
    let target = heap_blocking_target(inst, wlb);
    let mut peaks = around(wlb);
    peaks.extend(target);
    for p in peaks {
        assert_eq!(
            colors_of(inst.color_edf_weighted(p)),
            heap_edf_weighted(inst, p),
            "color_edf_weighted({p})"
        );
    }

    // The solves color at the bound (unit) or the target (weighted),
    // so their colorings are the heap sweep's too.
    let sol = inst.solve();
    if unit {
        let lb = general.expect("unit bound fits");
        let sol = sol.expect("unit solve");
        assert_eq!(
            Ok(sol.coloring.colors().to_vec()),
            heap_edf(inst, lb, |t| lb.saturating_sub(base[t]))
        );
        let paper_sol = inst.solve_paper().expect("paper solve");
        assert_eq!(
            Ok(paper_sol.coloring.colors().to_vec()),
            heap_edf(inst, paper, |_| paper)
        );
    } else {
        match target {
            Some(target) => {
                let sol = sol.unwrap_or_else(|e| panic!("weighted solve: {e} on {inst:?}"));
                assert_eq!(sol.lower_bound, wlb);
                let greedy = heap_edf_weighted(inst, target).expect("target is feasible");
                let greedy_peak = inst
                    .verify(&dpfill_core::bcp::test_support::coloring(greedy.clone()))
                    .unwrap();
                // The bounded exact search may only ever improve on it.
                if sol.coloring.colors() != greedy.as_slice() {
                    assert!(sol.peak.with_baseline < greedy_peak.with_baseline);
                }
            }
            None => assert!(matches!(sol, Err(BcpError::Overflow { .. })), "{sol:?}"),
        }
    }
}

/// A seeded instance: `k` intervals over `colors` colors of span up to
/// `max_span`, loads from `load`, baseline loads in `0..base_max`.
fn seeded(
    colors: usize,
    k: usize,
    max_span: u32,
    base_max: u64,
    load: impl Fn(&mut StdRng) -> u64,
    seed: u64,
) -> BcpInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inst = BcpInstance::new(colors);
    for _ in 0..k {
        let start = rng.gen_range(0..colors as u32);
        let end = (start + rng.gen_range(0..=max_span)).min(colors as u32 - 1);
        let w = load(&mut rng);
        inst.add_weighted_interval(Interval::new(start, end), w)
            .expect("in range");
    }
    if base_max > 0 {
        let baseline = (0..colors).map(|_| rng.gen_range(0..base_max)).collect();
        inst.set_baseline(baseline).expect("matching length");
    }
    inst
}

/// Mostly unit and small loads, with the occasional near-`u64::MAX` one.
fn arb_load() -> impl Strategy<Value = u64> {
    (0u32..8, 0u64..8).prop_map(|(kind, v)| match kind {
        0..=3 => 1,
        4..=6 => 1 + v % 7,
        _ => u64::MAX - v % 3,
    })
}

fn arb_instance() -> impl Strategy<Value = BcpInstance> {
    (1usize..12, 0u64..5, any::<bool>()).prop_flat_map(|(colors, base_max, weighted)| {
        let intervals = proptest::collection::vec(
            (0..colors as u32).prop_flat_map(move |s| {
                (Just(s), s..colors as u32, arb_load())
                    .prop_map(move |(s, e, w)| (Interval::new(s, e), if weighted { w } else { 1 }))
            }),
            0..16,
        );
        let baseline = proptest::collection::vec(0..=base_max, colors);
        (Just(colors), intervals, baseline).prop_map(|(c, ivs, base)| {
            let mut inst = BcpInstance::new(c);
            for (iv, w) in ivs {
                inst.add_weighted_interval(iv, w)
                    .expect("intervals in range");
            }
            inst.set_baseline(base).expect("matching length");
            inst
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Randomized unit and weighted instances, with baselines and the
    /// occasional near-`u64::MAX` load.
    #[test]
    fn bucketed_sweeps_match_the_heap_sweep(inst in arb_instance()) {
        assert_matches_heap(&inst);
    }
}

#[test]
fn empty_instances_match() {
    assert_matches_heap(&BcpInstance::new(0));
    assert_matches_heap(&BcpInstance::new(1));
    assert_matches_heap(&BcpInstance::new(200));
    let mut baseline_only = BcpInstance::new(9);
    baseline_only
        .set_baseline(vec![3, 0, 0, 7, 0, 0, 0, 1, 2])
        .unwrap();
    assert_matches_heap(&baseline_only);
}

#[test]
fn point_interval_instances_match() {
    for (seed, base_max) in [(1u64, 0u64), (2, 3)] {
        assert_matches_heap(&seeded(40, 300, 0, base_max, |_| 1, seed));
        assert_matches_heap(&seeded(40, 300, 0, base_max, |r| r.gen_range(1..6), seed));
    }
}

#[test]
fn intervals_sharing_one_deadline_match() {
    // Every interval due at the last color, released all over the
    // range in an order unrelated to its index.
    let mut rng = StdRng::seed_from_u64(7);
    for weighted in [false, true] {
        let mut inst = BcpInstance::new(64);
        for _ in 0..500 {
            let start = rng.gen_range(0..64u32);
            let w = if weighted { rng.gen_range(1..5) } else { 1 };
            inst.add_weighted_interval(Interval::new(start, 63), w)
                .unwrap();
        }
        assert_matches_heap(&inst);
        // And all due at an interior color, with a baseline.
        let mut inst = BcpInstance::new(64);
        for _ in 0..300 {
            let start = rng.gen_range(0..=20u32);
            let w = if weighted { rng.gen_range(1..5) } else { 1 };
            inst.add_weighted_interval(Interval::new(start, 20), w)
                .unwrap();
        }
        inst.set_baseline((0..64).map(|t| t % 3).collect()).unwrap();
        assert_matches_heap(&inst);
    }
}

#[test]
fn seeded_midsize_instances_match() {
    // Enough intervals per deadline that the slot buckets span several
    // bitset words and stay pending across many colors.
    for (seed, colors, k, span, base_max) in [
        (11u64, 300usize, 4_000usize, 40u32, 0u64),
        (12, 257, 2_000, 256, 4),
        (13, 130, 6_000, 8, 9),
        (14, 4_100, 9_000, 3, 2),
    ] {
        assert_matches_heap(&seeded(colors, k, span, base_max, |_| 1, seed));
        assert_matches_heap(&seeded(
            colors,
            k,
            span,
            base_max,
            |r| r.gen_range(1..10),
            seed,
        ));
    }
}

#[test]
fn loads_near_u64_max_match() {
    let huge = |r: &mut StdRng| u64::MAX - r.gen_range(0..4u64);
    // One huge interval per color fits; two on one color overflow.
    assert_matches_heap(&seeded(6, 3, 0, 0, huge, 21));
    assert_matches_heap(&seeded(6, 9, 5, 0, huge, 22));
    let mut inst = BcpInstance::new(3);
    inst.add_weighted_interval(Interval::new(0, 0), u64::MAX)
        .unwrap();
    inst.add_weighted_interval(Interval::new(0, 0), u64::MAX)
        .unwrap();
    assert_matches_heap(&inst);
    // Huge and unit loads mixed, with a baseline.
    let mut inst = seeded(8, 12, 3, 2, |r| r.gen_range(1..3), 23);
    inst.add_weighted_interval(Interval::new(2, 6), u64::MAX - 1)
        .unwrap();
    assert_matches_heap(&inst);
}
