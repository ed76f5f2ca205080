//! Differential suite for the bounded-memory streaming pipeline: for
//! every tested window size and thread count, the windowed
//! analyze→solve→fill→emit flow must produce output **byte-identical**
//! to the monolithic pipeline — across widths not divisible by 64,
//! all-X rows, stretches far longer than the window ("window smaller
//! than the overlap"), and every fill the streaming driver supports.

use dpfill_core::fill::FillMethod;
use dpfill_core::stream::{StreamOptions, StreamingFill, WindowSpec};
use dpfill_core::MatrixMapping;
use dpfill_cubes::{format, peak_toggles, Bit, CubeSet, TestCube};
use proptest::prelude::*;

/// The monolithic reference: parse everything, fill, serialize.
fn monolithic_bytes(text: &str, fill: FillMethod) -> Vec<u8> {
    let cubes = format::parse_patterns(text).expect("reference parse");
    let filled = fill.fill(&cubes);
    let mut buf = Vec::new();
    format::write_patterns(&mut buf, &filled, None).expect("in-memory write");
    buf
}

/// One windowed run from in-memory bytes.
fn windowed_bytes(text: &str, fill: FillMethod, window: usize) -> (Vec<u8>, usize) {
    let opts = StreamOptions {
        window: WindowSpec::Cubes(window),
        fill,
        ..StreamOptions::default()
    };
    let mut out = Vec::new();
    let report = StreamingFill::new(opts)
        .run(|| Ok(text.as_bytes()), &mut out)
        .expect("streaming run");
    (out, report.resident_peak_cubes)
}

fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let pool = minipool::ThreadPool::new(threads);
    minipool::with_pool(&pool, f)
}

/// The acceptance matrix: windows {1, 7, 64, whole-set} × threads
/// {1, 2, 8}, every configuration byte-identical to the monolithic run.
fn assert_windowing_invariant(set: &CubeSet, fills: &[FillMethod]) {
    let text = format::patterns_to_string(set, None);
    let whole = set.len().max(1);
    for &fill in fills {
        let reference = monolithic_bytes(&text, fill);
        for window in [1usize, 7, 64, whole] {
            for threads in [1usize, 2, 8] {
                let (out, resident) = with_threads(threads, || windowed_bytes(&text, fill, window));
                assert_eq!(
                    out,
                    reference,
                    "{} drifted at window {window}, {threads} threads",
                    fill.label()
                );
                // The resident-cube bound: a batch of `threads` windows
                // (original + filled) plus the two overlap tails.
                assert!(
                    resident <= 2 * threads * window.min(set.len().max(1)) + 2,
                    "{}: resident {resident} exceeds the window bound \
                     (window {window}, {threads} threads)",
                    fill.label()
                );
            }
        }
    }
}

fn arb_bit() -> impl Strategy<Value = Bit> {
    prop_oneof![
        1 => Just(Bit::Zero),
        1 => Just(Bit::One),
        3 => Just(Bit::X),
    ]
}

/// Cube sets straddling the 64-bit word boundary with all-X rows mixed
/// in — the same shape family as the parallel differential suite, minus
/// the empty set (streamed separately below: an empty input emits no
/// bytes, while the monolithic reference cannot even be serialized).
fn arb_cube_set() -> impl Strategy<Value = CubeSet> {
    (1usize..=130, 1usize..=24, 0u8..=255).prop_flat_map(|(width, count, x_mask)| {
        proptest::collection::vec(proptest::collection::vec(arb_bit(), width), count).prop_map(
            move |mut rows| {
                for (i, row) in rows.iter_mut().enumerate() {
                    if x_mask >> (i % 8) & 1 == 1 {
                        row.iter_mut().for_each(|b| *b = Bit::X); // all-X row
                    }
                }
                let mut set = CubeSet::new(rows.first().map_or(0, Vec::len));
                for row in rows {
                    set.push(TestCube::new(row)).expect("uniform widths");
                }
                set
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn windowed_dp_fill_is_byte_identical_to_monolithic(set in arb_cube_set()) {
        assert_windowing_invariant(&set, &[FillMethod::Dp]);
    }

    #[test]
    fn windowed_satellite_fills_are_byte_identical(set in arb_cube_set()) {
        assert_windowing_invariant(
            &set,
            &[FillMethod::Mt, FillMethod::Adj, FillMethod::Random(0xF111)],
        );
    }
}

/// Stretches spanning dozens of windows: a transition stretch, a
/// same-value stretch and an all-X column, all much longer than every
/// tested window — the "window smaller than the overlap" case.
#[test]
fn stretches_longer_than_the_window_are_stitched_exactly() {
    let mut rows: Vec<String> = Vec::new();
    rows.push("01X".into());
    for _ in 0..200 {
        rows.push("XXX".into());
    }
    rows.push("10X".into());
    let refs: Vec<&str> = rows.iter().map(String::as_str).collect();
    let set = CubeSet::parse_rows(&refs).unwrap();
    assert_windowing_invariant(&set, &[FillMethod::Dp, FillMethod::Mt]);
}

/// Word-boundary widths with every row all-X.
#[test]
fn all_x_sets_at_word_boundary_widths() {
    for width in [1usize, 63, 64, 65, 127, 129] {
        let rows = [
            "X".repeat(width),
            "X".repeat(width),
            "X".repeat(width),
            "X".repeat(width),
            "X".repeat(width),
        ];
        let refs: Vec<&str> = rows.iter().map(String::as_str).collect();
        let set = CubeSet::parse_rows(&refs).unwrap();
        assert_windowing_invariant(&set, &[FillMethod::Dp, FillMethod::Mt]);
    }
}

/// Dense forced-toggle traffic (fully specified rows) mixed with
/// flexible stretches: the baseline-aware EDF capacities must replicate
/// exactly through the streamed instance.
#[test]
fn forced_toggle_heavy_sets_round_trip() {
    let set = dpfill_cubes::gen::random_cube_set(77, 40, 0.25, 0xBEEF);
    assert_windowing_invariant(&set, &[FillMethod::Dp]);
}

/// A seeded mid-size anchor beyond proptest's shapes, cross-checked
/// against the DP report's certificate.
#[test]
fn seeded_200x129_set_matches_and_stays_optimal() {
    let set = dpfill_cubes::gen::random_cube_set(129, 200, 0.8, 0xD1FF);
    let text = format::patterns_to_string(&set, None);
    let reference = monolithic_bytes(&text, FillMethod::Dp);
    for (window, threads) in [(1usize, 2usize), (7, 8), (64, 1), (200, 8)] {
        let (out, _) = with_threads(threads, || windowed_bytes(&text, FillMethod::Dp, window));
        assert_eq!(out, reference, "window {window}, threads {threads}");
    }
    let filled = format::parse_patterns(std::str::from_utf8(&reference).unwrap()).unwrap();
    let report = dpfill_core::fill::DpFill::new().run(&set);
    assert_eq!(report.peak, peak_toggles(&filled).unwrap() as u64);
}

/// The windowed DP fill stays byte-identical whatever pool its global
/// solve runs on: every (thread count × window) cell must reproduce the
/// monolithic output exactly, and the monolithic solve's bound must be
/// the `dpfill-oracle` Algorithm 1 row DP's.
#[test]
fn windowed_fill_is_byte_identical_across_pool_sizes() {
    let set = dpfill_cubes::gen::random_cube_set(90, 48, 0.75, 0x5EED);
    let text = format::patterns_to_string(&set, None);
    let reference = monolithic_bytes(&text, FillMethod::Dp);
    let run = |window: usize| {
        let opts = StreamOptions {
            window: WindowSpec::Cubes(window),
            fill: FillMethod::Dp,
            ..StreamOptions::default()
        };
        let mut out = Vec::new();
        StreamingFill::new(opts)
            .run(|| Ok(text.as_bytes()), &mut out)
            .expect("streaming run");
        out
    };
    for threads in [1usize, 2, 8] {
        for window in [5usize, 48] {
            let out = with_threads(threads, || run(window));
            assert_eq!(
                out, reference,
                "drifted at window {window}, {threads} threads"
            );
        }
    }
    let out = with_threads(4, || run(9));
    assert_eq!(out, reference, "drifted at window 9, 4 threads");
    // The O(C^2) DP certifies the bound the solve colored at.
    let oracle = dpfill_oracle::lower_bound_dp(MatrixMapping::analyze(&set).instance(), true)
        .expect("oracle bound");
    let report = dpfill_core::fill::DpFill::new()
        .try_run(&set)
        .expect("DP-fill");
    assert_eq!(report.lower_bound, oracle, "bound drifted from the oracle");
}

/// The streamed report's peak must equal the measured peak of its own
/// output, including boundary transitions between windows.
#[test]
fn report_peak_matches_measured_peak() {
    let set = dpfill_cubes::gen::random_cube_set(70, 33, 0.7, 0xACE);
    let text = format::patterns_to_string(&set, None);
    let opts = StreamOptions {
        window: WindowSpec::Cubes(5),
        fill: FillMethod::Dp,
        collect_baseline: true,
        ..StreamOptions::default()
    };
    let mut out = Vec::new();
    let report = StreamingFill::new(opts)
        .run(|| Ok(text.as_bytes()), &mut out)
        .unwrap();
    let filled = format::parse_patterns(std::str::from_utf8(&out).unwrap()).unwrap();
    assert_eq!(report.peak_toggles, peak_toggles(&filled).unwrap());
    assert_eq!(report.cubes, set.len());
    assert_eq!(report.x_count, set.x_count());
    let zeroed = FillMethod::Zero.fill(&set);
    assert_eq!(
        report.baseline_peak,
        Some(peak_toggles(&zeroed).unwrap()),
        "0-fill as-given baseline"
    );
}
