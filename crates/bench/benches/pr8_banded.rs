//! The PR-8 acceptance benchmark: banded streaming orderings against
//! the global (whole-set) orderings.
//!
//! Two questions, answered on the same 1024-pattern input:
//!
//! * **Quality** — how much peak-toggle reduction does a bounded
//!   lookahead give up? Reported (not benchmarked) as a gap table:
//!   peak toggles under DP-fill for arrival order, bands 1/2/4, and
//!   the global ordering, per in-ring method. A band covering the
//!   whole set is also asserted byte-identical to the monolithic
//!   ordered run — the identity the band ladder converges to.
//! * **Cost** — what does the in-ring search pay in wall-clock over
//!   an unordered streaming run, per band width?
//!
//! Run with `cargo bench -p dpfill-bench --bench pr8_banded`.

use criterion::{criterion_group, criterion_main, Criterion};

use dpfill_core::fill::FillMethod;
use dpfill_core::ordering::{BandedMethod, OrderingMethod};
use dpfill_core::stream::{BandedOrder, StreamOptions, StreamingFill, WindowSpec};
use dpfill_cubes::format;
use dpfill_cubes::gen::random_cube_set;

const WINDOW: usize = 64;
const BANDS: [usize; 3] = [1, 2, 4];

fn stream_peak(text: &str, order: Option<BandedOrder>) -> (Vec<u8>, usize) {
    let driver = StreamingFill::new(StreamOptions {
        window: WindowSpec::Cubes(WINDOW),
        fill: FillMethod::Dp,
        order,
        ..StreamOptions::default()
    });
    let mut out = Vec::with_capacity(text.len());
    let report = driver
        .run(|| Ok(text.as_bytes()), &mut out)
        .expect("streaming run");
    (out, report.peak_toggles)
}

fn bench_banded(c: &mut Criterion) {
    let mut group = c.benchmark_group("banded");
    group.sample_size(10);

    // 1024 cubes x 128 pins, ATPG-shaped X density.
    let cubes = random_cube_set(128, 1024, 0.9, 0xBA8D);
    let text = format::patterns_to_string(&cubes, None);
    let n = cubes.len();
    let whole_set_band = n.div_ceil(WINDOW);

    // ---- Quality report: peak-toggle gap vs the global ordering ----
    let (_, keep_peak) = stream_peak(&text, None);
    eprintln!("banded ordering quality, {n}x128 window {WINDOW}, DP-fill peak toggles:");
    eprintln!("  arrival order: {keep_peak}");
    for method in [BandedMethod::Interleave, BandedMethod::XStat] {
        let global = match method {
            BandedMethod::Interleave => OrderingMethod::Interleaved,
            BandedMethod::XStat => OrderingMethod::XStat,
            BandedMethod::Isa(seed) => OrderingMethod::Isa(seed),
        };
        let order = global
            .order(&cubes)
            .expect("benchmark-scale bounds fit u64");
        let filled = FillMethod::Dp.fill(&cubes.reordered(&order).expect("permutation"));
        let global_peak = dpfill_cubes::peak_toggles(&filled).expect("uniform widths");
        let mut monolithic = Vec::with_capacity(text.len());
        format::write_patterns(&mut monolithic, &filled, None).expect("serialize");
        for band in BANDS {
            let (_, peak) = stream_peak(&text, Some(BandedOrder::with_band(method, band)));
            eprintln!(
                "  {} band {band} ({} cubes lookahead): {peak} (global {global_peak})",
                method.label(),
                band * WINDOW
            );
        }
        // The identity the ladder converges to: a ring swallowing the
        // whole input IS the global ordering, byte for byte.
        let (bytes, peak) =
            stream_peak(&text, Some(BandedOrder::with_band(method, whole_set_band)));
        assert_eq!(
            bytes,
            monolithic,
            "{} band {whole_set_band} must be byte-identical to the monolithic ordered run",
            method.label()
        );
        eprintln!(
            "  {} band {whole_set_band} (whole set): {peak} — byte-identical to global",
            method.label()
        );
    }

    // ---- Wall-clock: what the in-ring search costs per band ----
    group.bench_function(format!("windowed/keep/w{WINDOW}/{n}x128"), |b| {
        b.iter(|| stream_peak(&text, None).0);
    });
    for method in [BandedMethod::Interleave, BandedMethod::XStat] {
        for band in BANDS {
            let order = BandedOrder::with_band(method, band);
            group.bench_function(
                format!("windowed/{}/b{band}/w{WINDOW}/{n}x128", method.label()),
                |b| {
                    b.iter(|| stream_peak(&text, Some(order)).0);
                },
            );
        }
    }

    group.finish();
}

criterion_group!(benches, bench_banded);
criterion_main!(benches);
