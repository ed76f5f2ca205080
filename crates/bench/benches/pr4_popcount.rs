//! The PR-4 acceptance benchmark: the batched popcount layer against
//! the per-pair scalar loop.
//!
//! Three rungs:
//!
//! * `kernel/*` — the raw masked-XOR reduction per tier on one long
//!   word stream (the 6 666-pin b19 scale: 105 words per plane);
//! * `sweep/*` — the whole-set adjacent-pair toggle profile of a
//!   1024×1024 cube set: per-pair scalar calls vs the batched sweep on
//!   the auto-selected tier;
//! * `analyze_fill/*` — the full analyze+DP-fill pipeline on the
//!   1024×1024 set with the scalar tier forced vs the auto-selected
//!   SIMD tier, plus the mapping alone on a dense-care variant (20% X).
//!
//! Every configuration produces bit-identical results (pinned by
//! `crates/cubes/tests/popcount_differential.rs` and
//! `crates/core/tests/dense_fastpath.rs`); only wall-clock time may
//! differ.

use criterion::{criterion_group, criterion_main, Criterion};

use dpfill_core::fill::DpFill;
use dpfill_core::MatrixMapping;
use dpfill_cubes::gen::random_cube_set;
use dpfill_cubes::packed::PackedCubeSet;
use dpfill_cubes::popcount::{active_kernel, force_kernel, PopcountKernel};

fn bench_popcount(c: &mut Criterion) {
    let mut group = c.benchmark_group("popcount");
    group.sample_size(20);

    // Rung 1: the raw reduction, one b19-sized row pair per iteration.
    let words = 105usize;
    let mk = |seed: u64| -> Vec<u64> {
        let mut state = seed;
        (0..words)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                state.wrapping_mul(0xBF58_476D_1CE4_E5B9)
            })
            .collect()
    };
    let (va, vb, ca, cb) = (mk(1), mk(2), mk(3), mk(4));
    for kernel in [PopcountKernel::Scalar, PopcountKernel::Avx2] {
        if !kernel.is_available() {
            continue;
        }
        group.bench_function(format!("kernel/{}/105w", kernel.label()), |b| {
            b.iter(|| {
                criterion::black_box(kernel.masked_xor_popcount(
                    criterion::black_box(&va),
                    &vb,
                    &ca,
                    &cb,
                ))
            })
        });
    }

    // Rung 2: the whole-set adjacent-pair sweep on 1024x1024.
    let cubes = random_cube_set(1024, 1024, 0.8, 0x94);
    let packed = PackedCubeSet::from(&cubes);
    group.bench_function("sweep/per_pair_scalar/1024x1024", |b| {
        b.iter(|| {
            let total: usize = packed
                .cubes()
                .windows(2)
                .map(|w| w[0].hamming_with(PopcountKernel::Scalar, &w[1]))
                .sum();
            criterion::black_box(total)
        })
    });
    let auto = active_kernel();
    group.bench_function(format!("sweep/batched_{}/1024x1024", auto.label()), |b| {
        b.iter(|| criterion::black_box(packed.total_conflicts()))
    });

    let dense = random_cube_set(1024, 1024, 0.2, 0x95);

    // Rung 3: the analyze+fill pipeline, scalar tier vs auto tier, on
    // the sparse (80% X) and dense-care (20% X) profiles.
    for (label, kernel) in [("scalar", PopcountKernel::Scalar), (auto.label(), auto)] {
        force_kernel(kernel);
        group.bench_function(format!("analyze_fill/{label}/1024x1024"), |b| {
            b.iter(|| criterion::black_box(DpFill::new().run(&cubes).peak))
        });
        group.bench_function(format!("analyze_dense/{label}/1024x1024"), |b| {
            b.iter(|| criterion::black_box(MatrixMapping::analyze(&dense).forced_total()))
        });
        if auto == PopcountKernel::Scalar {
            break; // auto resolved to scalar; a second leg would duplicate ids
        }
    }
    force_kernel(auto);
    group.finish();
}

criterion_group!(benches, bench_popcount);
criterion_main!(benches);
