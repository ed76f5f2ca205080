//! The PR-10 acceptance benchmark: what the `minitrace` observability
//! layer costs on the PR-5 streaming workload (4096 cubes × 256 pins,
//! DP-fill, window 512) in its three states:
//!
//! * `trace-off` — no sink installed: every instrumentation site is one
//!   relaxed atomic load and a not-taken branch. The compile-away
//!   pin: this row must sit within noise (<1%) of the untraced
//!   `pr5_streaming` `windowed/dp/w512` row.
//! * `aggregate-only` — the `--stats`/`--stats-json` path: spans fold
//!   into the in-memory per-name table, counters accumulate.
//! * `full-jsonl` — the `--trace` path serializing every event, into an
//!   `io::sink()` so disk noise is excluded and the measured cost is
//!   the tracing layer itself (buffering + JSON encoding).
//!
//! Run with `cargo bench -p dpfill-bench --bench pr10_trace`.

use criterion::{criterion_group, criterion_main, Criterion};

use dpfill_core::fill::FillMethod;
use dpfill_core::stream::{StreamOptions, StreamingFill, WindowSpec};
use dpfill_cubes::format;
use dpfill_cubes::gen::random_cube_set;

fn run_once(driver: &StreamingFill, text: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(text.len());
    driver
        .run(|| Ok(text.as_bytes()), &mut out)
        .expect("streaming run");
    out
}

fn bench_trace_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace");
    group.sample_size(10);

    // The PR-5 streaming workload: 4096 cubes x 256 pins, ATPG-shaped
    // X density, DP-fill over 512-cube windows.
    let cubes = random_cube_set(256, 4096, 0.9, 0x57AE);
    let text = format::patterns_to_string(&cubes, None);
    let n = cubes.len();
    let driver = StreamingFill::new(StreamOptions {
        window: WindowSpec::Cubes(512),
        fill: FillMethod::Dp,
        ..StreamOptions::default()
    });

    // Tracing on or off must not move the output bytes.
    let reference = run_once(&driver, &text);
    minitrace::enable_aggregate();
    assert_eq!(
        run_once(&driver, &text),
        reference,
        "tracing changed output"
    );
    let _ = minitrace::finish();

    group.bench_function(format!("trace-off/dp/w512/{n}x256"), |b| {
        b.iter(|| run_once(&driver, &text));
    });

    minitrace::enable_aggregate();
    group.bench_function(format!("aggregate-only/dp/w512/{n}x256"), |b| {
        b.iter(|| run_once(&driver, &text));
    });
    let (snap, _) = minitrace::finish();
    assert!(!snap.spans.is_empty(), "aggregate sink saw no spans");

    minitrace::install_jsonl(Box::new(std::io::sink()));
    group.bench_function(format!("full-jsonl/dp/w512/{n}x256"), |b| {
        b.iter(|| run_once(&driver, &text));
    });
    let (_, err) = minitrace::finish();
    assert!(err.is_none(), "sink error: {err:?}");

    group.finish();
}

criterion_group!(benches, bench_trace_overhead);
criterion_main!(benches);
