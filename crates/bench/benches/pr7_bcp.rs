//! The PR-7 acceptance benchmark: the incremental (parametric) BCP
//! lower bound and the EDF coloring against the O(C²) DP in
//! `dpfill-oracle`, at C ∈ {1k, 16k, 128k} colors.
//!
//! The quadratic DP rows stop at 16k (one 128k iteration alone runs for
//! minutes); comparing the 1k → 16k growth ratios shows the scaling gap
//! — ~256× for the DP against near-linear for the parametric bound.
//! Every configuration certifies the same bound and produces the same
//! coloring bytes (pinned by `crates/core/tests/bcp_sharded.rs`); these
//! rows measure only wall-clock.
//!
//! ```sh
//! cargo bench -p dpfill-bench --bench pr7_bcp
//! ```

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dpfill_core::bcp::{BcpInstance, SolveOptions};
use dpfill_core::Interval;
use dpfill_oracle::lower_bound_dp;

/// `4 * colors` random intervals (mixed spans) plus a light baseline —
/// ATPG-shaped traffic: most load short-range, a few full-width runs.
fn random_instance(colors: usize, seed: u64) -> BcpInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inst = BcpInstance::new(colors);
    for i in 0..4 * colors {
        let start = rng.gen_range(0..colors as u32);
        let span = if i % 64 == 0 {
            rng.gen_range(0..colors as u32)
        } else {
            rng.gen_range(0..32.min(colors as u32))
        };
        let end = (start + span).min(colors as u32 - 1);
        inst.add_interval(Interval::new(start, end))
            .expect("in range");
    }
    let baseline = (0..colors).map(|_| rng.gen_range(0..3)).collect();
    inst.set_baseline(baseline).expect("matching length");
    inst
}

fn bench_bcp_pr7(c: &mut Criterion) {
    let mut group = c.benchmark_group("pr7_bcp");
    group.sample_size(10);

    let pool = minipool::ThreadPool::new(8);

    for colors in [1_000usize, 16_000, 128_000] {
        let inst = random_instance(colors, 0x7B0C + colors as u64);
        let lb = inst.lower_bound().expect("counts fit u64");

        // Lower bound: incremental parametric engine (1 thread / 8).
        group.bench_function(format!("lower_bound/incremental/serial/c{colors}"), |b| {
            b.iter(|| black_box(inst.lower_bound().expect("bound")))
        });
        group.bench_function(format!("lower_bound/incremental/pool8/c{colors}"), |b| {
            minipool::with_pool(&pool, || {
                b.iter(|| black_box(inst.lower_bound().expect("bound")))
            })
        });
        // The O(C²) DP oracle — 128k omitted (minutes per iteration;
        // the 1k → 16k ratio tells the story).
        if colors <= 16_000 {
            group.bench_function(format!("lower_bound/quadratic_dp/c{colors}"), |b| {
                b.iter(|| black_box(lower_bound_dp(&inst, true).expect("bound")))
            });
        }

        // Coloring: one earliest-fit sweep in deadline order.
        group.bench_function(format!("color/serial/c{colors}"), |b| {
            b.iter(|| black_box(inst.color_edf(lb).expect("feasible").colors().len()))
        });

        // End to end: bound + coloring + verification.
        let opts = SolveOptions::default();
        group.bench_function(format!("solve/serial/c{colors}"), |b| {
            b.iter(|| black_box(inst.solve_with(&opts).expect("solve").lower_bound))
        });
        group.bench_function(format!("solve/pool8/c{colors}"), |b| {
            minipool::with_pool(&pool, || {
                b.iter(|| black_box(inst.solve_with(&opts).expect("solve").lower_bound))
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_bcp_pr7);
criterion_main!(benches);
