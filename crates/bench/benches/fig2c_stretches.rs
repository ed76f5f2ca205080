//! Fig 2(c) benchmark: stretch-statistics extraction under the three
//! orderings; `dpfill-repro fig2c` prints the histogram.

use criterion::{criterion_group, criterion_main, Criterion};

use dpfill_core::ordering::OrderingMethod;
use dpfill_cubes::gen::CubeProfile;
use dpfill_cubes::stretch::StretchStats;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig2c_stretches");
    group.sample_size(10);

    let cubes = CubeProfile::new(275, 320)
        .x_percent(77.9)
        .decay_ratio(6.0)
        .generate(8);

    for ordering in [
        OrderingMethod::Tool,
        OrderingMethod::XStat,
        OrderingMethod::Interleaved,
    ] {
        group.bench_function(format!("b14_scale/{}", ordering.label()), |b| {
            b.iter(|| {
                let order = ordering.order(&cubes).expect("ordering");
                let reordered = cubes.reordered(&order).unwrap();
                let stats = StretchStats::of_cubes(reordered.as_packed());
                criterion::black_box(stats.total_stretches())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
