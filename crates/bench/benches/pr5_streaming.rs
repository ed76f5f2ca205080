//! The PR-5 acceptance benchmark: the bounded-memory streaming pipeline
//! against the monolithic run, end to end (parse → analyze → solve →
//! fill → serialize), on a 4096-pattern input.
//!
//! Both configurations produce byte-identical output (pinned by
//! `crates/core/tests/streaming_fill.rs`); the streaming rows measure
//! what the two-pass windowed flow pays in wall-clock for its
//! `O(window)` resident-cube bound: mostly the second parse.
//!
//! Run with `cargo bench -p dpfill-bench --bench pr5_streaming`.

use criterion::{criterion_group, criterion_main, Criterion};

use dpfill_core::fill::FillMethod;
use dpfill_core::stream::{StreamOptions, StreamingFill, WindowSpec};
use dpfill_cubes::format;
use dpfill_cubes::gen::random_cube_set;

fn bench_streaming(c: &mut Criterion) {
    let mut group = c.benchmark_group("streaming");
    group.sample_size(10);

    // 4096 cubes x 256 pins, ATPG-shaped X density.
    let cubes = random_cube_set(256, 4096, 0.9, 0x57AE);
    let text = format::patterns_to_string(&cubes, None);
    let n = cubes.len();

    group.bench_function(format!("monolithic/dp/{n}x256"), |b| {
        b.iter(|| {
            let parsed = format::parse_patterns(&text).expect("parse");
            let filled = FillMethod::Dp.fill(&parsed);
            let mut out = Vec::with_capacity(text.len());
            format::write_patterns(&mut out, &filled, None).expect("serialize");
            out
        });
    });

    for window in [64usize, 512, 4096] {
        let driver = StreamingFill::new(StreamOptions {
            window: WindowSpec::Cubes(window),
            fill: FillMethod::Dp,
            ..StreamOptions::default()
        });
        group.bench_function(format!("windowed/dp/w{window}/{n}x256"), |b| {
            b.iter(|| {
                let mut out = Vec::with_capacity(text.len());
                driver
                    .run(|| Ok(text.as_bytes()), &mut out)
                    .expect("streaming run");
                out
            });
        });
    }

    // The cheap end of the spectrum: a single-pass per-cube fill, where
    // streaming pays only the window bookkeeping.
    let adj = StreamingFill::new(StreamOptions {
        window: WindowSpec::Cubes(512),
        fill: FillMethod::Adj,
        ..StreamOptions::default()
    });
    group.bench_function(format!("windowed/adj/w512/{n}x256"), |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(text.len());
            adj.run(|| Ok(text.as_bytes()), &mut out)
                .expect("streaming run");
            out
        });
    });
    group.bench_function(format!("monolithic/adj/{n}x256"), |b| {
        b.iter(|| {
            let parsed = format::parse_patterns(&text).expect("parse");
            let filled = FillMethod::Adj.fill(&parsed);
            let mut out = Vec::with_capacity(text.len());
            format::write_patterns(&mut out, &filled, None).expect("serialize");
            out
        });
    });

    group.finish();
}

criterion_group!(benches, bench_streaming);
criterion_main!(benches);
