//! Differential suite for the BCP solve across engines and pools: at
//! every tested thread count, the solver must certify the **same lower
//! bound** as the `dpfill-oracle` Algorithm 1 row DP, achieve the
//! **same peak**, and produce a coloring **byte-identical** to EDF at
//! that oracle bound — including empty instances, point intervals and
//! baseline-dominated cases. (The suite keeps the name it had while the
//! coloring could also be split across color shards; `bcp_sweep.rs`
//! pins the coloring sweeps themselves against the heap reference.)

use dpfill_core::bcp::{BcpError, BcpInstance, BcpSolution, SolveOptions};
use dpfill_core::Interval;
use dpfill_oracle::lower_bound_dp;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let pool = minipool::ThreadPool::new(threads);
    minipool::with_pool(&pool, f)
}

/// The serial oracle solve: the quadratic DP bound, then EDF coloring
/// at it (the instances here carry unit loads).
fn oracle_solution(inst: &BcpInstance) -> BcpSolution {
    let lower_bound = lower_bound_dp(inst, true).expect("oracle bound");
    let coloring = inst.color_edf(lower_bound).expect("EDF meets the bound");
    let peak = inst.verify(&coloring).expect("oracle coloring verifies");
    BcpSolution {
        coloring,
        lower_bound,
        peak,
    }
}

/// Asserts every thread-count cell of the acceptance matrix: the
/// production solve against the serial oracle reference.
fn assert_engine_invariant(inst: &BcpInstance) {
    let reference = oracle_solution(inst);
    for threads in [1usize, 2, 8] {
        let sol = with_threads(threads, || inst.solve_with(&SolveOptions::default()))
            .unwrap_or_else(|e| panic!("threads {threads}: {e}"));
        assert_eq!(
            sol.lower_bound, reference.lower_bound,
            "threads {threads}: bound drifted from the oracle"
        );
        assert_eq!(
            sol.peak, reference.peak,
            "threads {threads}: peak drifted from the oracle"
        );
        assert_eq!(
            sol.coloring.colors(),
            reference.coloring.colors(),
            "threads {threads}: coloring drifted from the oracle"
        );
    }
}

/// A seeded mid-size instance: `k` random intervals over `colors`
/// colors with baseline loads in `0..base_max`.
fn random_instance(colors: usize, k: usize, base_max: u64, seed: u64) -> BcpInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inst = BcpInstance::new(colors);
    for _ in 0..k {
        let a = rng.gen_range(0..colors as u32);
        let b = rng.gen_range(0..colors as u32);
        inst.add_interval(Interval::new(a.min(b), a.max(b)))
            .expect("in range");
    }
    if base_max > 0 {
        let baseline = (0..colors).map(|_| rng.gen_range(0..base_max)).collect();
        inst.set_baseline(baseline).expect("matching length");
    }
    inst
}

fn arb_instance() -> impl Strategy<Value = BcpInstance> {
    (1usize..12, 0u64..4).prop_flat_map(|(colors, base_max)| {
        let intervals = proptest::collection::vec(
            (0..colors as u32).prop_flat_map(move |s| {
                (Just(s), s..colors as u32).prop_map(|(s, e)| Interval::new(s, e))
            }),
            0..12,
        );
        let baseline = proptest::collection::vec(0..=base_max, colors);
        (Just(colors), intervals, baseline).prop_map(|(c, ivs, base)| {
            let mut inst = BcpInstance::new(c);
            for iv in ivs {
                inst.add_interval(iv).expect("intervals in range");
            }
            inst.set_baseline(base).expect("matching length");
            inst
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline differential: randomized instances (including
    /// baseline-dominated ones) through the full acceptance matrix.
    #[test]
    fn sharded_solve_matches_serial_everywhere(inst in arb_instance()) {
        assert_engine_invariant(&inst);
    }
}

/// Instances with intervals but no coloring work (empty), and colors
/// but no intervals.
#[test]
fn empty_instances_round_trip() {
    assert_engine_invariant(&BcpInstance::new(1));
    assert_engine_invariant(&BcpInstance::new(64));
    let mut baseline_only = BcpInstance::new(9);
    baseline_only
        .set_baseline(vec![3, 0, 0, 7, 0, 0, 0, 1, 2])
        .unwrap();
    assert_engine_invariant(&baseline_only);
}

/// Every interval a point: each EDF placement is forced the moment its
/// color opens, so nothing is ever carried past its release color.
#[test]
fn point_interval_instances_round_trip() {
    let mut inst = BcpInstance::new(16);
    for c in [0u32, 0, 3, 3, 3, 7, 15, 15, 8, 4] {
        inst.add_interval(Interval::new(c, c)).unwrap();
    }
    assert_engine_invariant(&inst);
}

/// Baseline dwarfs the interval load: the bound comes from a single
/// color, and EDF capacities pinch to zero on the heavy colors.
#[test]
fn baseline_dominated_instances_round_trip() {
    let mut inst = BcpInstance::new(10);
    for _ in 0..4 {
        inst.add_interval(Interval::new(0, 9)).unwrap();
    }
    let mut baseline = vec![0u64; 10];
    baseline[4] = 1_000;
    baseline[9] = 999;
    inst.set_baseline(baseline).unwrap();
    assert_engine_invariant(&inst);
}

/// Seeded mid-size anchors beyond proptest's shapes: enough colors and
/// intervals that many deadlines stay pending across colors.
#[test]
fn seeded_midsize_instances_round_trip() {
    for (seed, colors, k, base_max) in [
        (1u64, 300usize, 900usize, 0u64),
        (2, 257, 400, 3),
        (3, 130, 2_000, 8),
    ] {
        assert_engine_invariant(&random_instance(colors, k, base_max, seed));
    }
}

/// Infeasible capacities report the same attempted peak and missed
/// color at every thread count — not a residual quota.
#[test]
fn infeasible_error_is_shard_invariant() {
    let mut inst = BcpInstance::new(4);
    for _ in 0..5 {
        inst.add_interval(Interval::new(1, 1)).unwrap();
    }
    inst.set_baseline(vec![2, 2, 2, 2]).unwrap();
    // Peak 4 leaves capacity 2 at color 1; five point intervals can't fit.
    let expected = BcpError::Infeasible { peak: 4, color: 1 };
    for threads in [1usize, 2, 8] {
        let err = with_threads(threads, || inst.color_edf(4))
            .expect_err("five unit jobs into capacity 2");
        assert_eq!(err, expected, "threads {threads}");
    }
    // And the real bound solves exactly.
    let lb = inst.lower_bound().unwrap();
    assert_eq!(lb, 7);
    let sol = inst.solve().unwrap();
    assert_eq!(sol.peak.with_baseline, 7);
}

/// Overflow at u64::MAX baselines stays a typed error (never a panic)
/// through every engine, at every thread count.
#[test]
fn overflow_is_typed_at_every_width() {
    let mut inst = BcpInstance::new(2);
    inst.add_interval(Interval::new(0, 1)).unwrap();
    inst.set_baseline(vec![u64::MAX, 0]).unwrap();
    for threads in [1usize, 2, 8] {
        with_threads(threads, || {
            assert!(matches!(
                lower_bound_dp(&inst, true),
                Err(BcpError::Overflow { .. })
            ));
            // The parametric engine never sums across colors, so it can
            // still certify the exact bound and solve the instance.
            assert_eq!(inst.lower_bound().unwrap(), u64::MAX);
            let sol = inst.solve_with(&SolveOptions::default()).unwrap();
            assert_eq!(sol.peak.with_baseline, u64::MAX);
            assert_eq!(sol.coloring.colors(), &[1]);
        });
    }
}

/// A warm lower bound (what the streaming analyzer hands the solve)
/// must change only the starting point of the search, never the answer.
#[test]
fn warm_lower_bound_is_answer_preserving() {
    let inst = random_instance(200, 600, 2, 0xC0FFEE);
    let cold = inst.solve_with(&SolveOptions::default()).unwrap();
    for warm in [0, cold.lower_bound / 2, cold.lower_bound] {
        let opts = SolveOptions {
            warm_lb: Some(warm),
        };
        let sol = with_threads(4, || inst.solve_with(&opts)).unwrap();
        assert_eq!(sol, cold, "warm start {warm} changed the answer");
    }
}
