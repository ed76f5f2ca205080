//! The PR-3 acceptance benchmark: the analyze+fill pipeline on a
//! 1024-pin × 1024-cube random cube set, serial (a 1-thread pool, which
//! runs everything inline on the caller) vs work-stealing pools of 2
//! and 8 threads. Every configuration produces bit-identical results
//! (pinned by `crates/core/tests/parallel_differential.rs`); only
//! wall-clock time may differ. Speedup over serial requires actual
//! hardware parallelism: on a single-core host the pooled runs only
//! measure the (small) coordination overhead under oversubscription.

use criterion::{criterion_group, criterion_main, Criterion};

use dpfill_core::fill::{DpFill, FillStrategy, MtFill, XStatFill};
use dpfill_core::MatrixMapping;
use dpfill_cubes::gen::random_cube_set;
use dpfill_cubes::stretch::StretchStats;

fn bench_parallel_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel");
    group.sample_size(20);
    let cubes = random_cube_set(1024, 1024, 0.8, 0x93);

    for threads in [1usize, 2, 8] {
        let label = if threads == 1 {
            "serial".to_string()
        } else {
            format!("pool{threads}")
        };
        let pool = minipool::ThreadPool::new(threads);

        group.bench_function(format!("analyze/{label}/1024x1024"), |b| {
            minipool::with_pool(&pool, || {
                b.iter(|| {
                    criterion::black_box(
                        MatrixMapping::analyze(&cubes).instance().intervals().len(),
                    )
                })
            })
        });
        group.bench_function(format!("stretch_stats/{label}/1024x1024"), |b| {
            minipool::with_pool(&pool, || {
                b.iter(|| {
                    criterion::black_box(
                        StretchStats::of_cubes(cubes.as_packed()).total_stretches(),
                    )
                })
            })
        });
        group.bench_function(format!("dp_fill/{label}/1024x1024"), |b| {
            minipool::with_pool(&pool, || {
                b.iter(|| criterion::black_box(DpFill::new().run(&cubes).peak))
            })
        });
        group.bench_function(format!("mt_fill/{label}/1024x1024"), |b| {
            minipool::with_pool(&pool, || {
                b.iter(|| criterion::black_box(MtFill.fill(&cubes).len()))
            })
        });
        group.bench_function(format!("xstat_fill/{label}/1024x1024"), |b| {
            minipool::with_pool(&pool, || {
                b.iter(|| criterion::black_box(XStatFill.fill(&cubes).len()))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_pipeline);
criterion_main!(benches);
