//! Differential suite for the banded streaming orderings: the streamed
//! banded runs must emit a filled **permutation** of the input at every
//! band and thread count, collapse to the monolithic *ordered* pipeline
//! whenever the ring covers the whole set, and the in-ring searches
//! must be bit-identical between the serial path and the pool fan-out.
//! Same shape as `parallel_differential.rs`: one reference run,
//! structural equality per configuration, no tolerance.

use dpfill_core::fill::FillMethod;
use dpfill_core::ordering::{
    BandContext, BandedIOrdering, BandedMethod, BandedOrdering, BandedXStatOrdering, IOrdering,
    OrderingMethod,
};
use dpfill_core::stream::{BandedOrder, StreamOptions, StreamingFill, WindowSpec};
use dpfill_cubes::{format, CubeSet};
use proptest::prelude::*;

const BANDS: [usize; 3] = [1, 2, 4];
const THREADS: [usize; 3] = [1, 2, 8];
const WINDOW: usize = 3;

fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let pool = minipool::ThreadPool::new(threads);
    minipool::with_pool(&pool, f)
}

fn to_text(set: &CubeSet) -> String {
    let mut buf = Vec::new();
    format::write_patterns(&mut buf, set, None).unwrap();
    String::from_utf8(buf).unwrap()
}

fn run_banded(text: &str, fill: FillMethod, window: usize, order: BandedOrder) -> Vec<u8> {
    let opts = StreamOptions {
        window: WindowSpec::Cubes(window),
        fill,
        order: Some(order),
        ..StreamOptions::default()
    };
    let mut out = Vec::new();
    StreamingFill::new(opts)
        .run(|| Ok(text.as_bytes()), &mut out)
        .expect("banded streaming run");
    out
}

/// The monolithic ordered pipeline: global ordering, then fill.
fn monolithic_ordered(set: &CubeSet, fill: FillMethod, method: BandedMethod) -> Vec<u8> {
    let global = match method {
        BandedMethod::Interleave => OrderingMethod::Interleaved,
        BandedMethod::XStat => OrderingMethod::XStat,
        BandedMethod::Isa(seed) => OrderingMethod::Isa(seed),
    };
    let order = global.order(set).unwrap();
    let filled = fill.fill(&set.reordered(&order).unwrap());
    let mut buf = Vec::new();
    format::write_patterns(&mut buf, &filled, None).unwrap();
    buf
}

/// Sorted lines — a permutation-insensitive fingerprint of an output.
fn sorted_lines(bytes: &[u8]) -> Vec<String> {
    let mut lines: Vec<String> = std::str::from_utf8(bytes)
        .unwrap()
        .lines()
        .map(str::to_owned)
        .collect();
    lines.sort();
    lines
}

/// Cube sets spanning word-boundary widths and X densities, seeded so
/// proptest shrinks deterministically.
fn arb_cube_set() -> impl Strategy<Value = CubeSet> {
    (1usize..=70, 1usize..=14, 0u64..=2000, 1u32..=9).prop_map(|(count, width, seed, density)| {
        dpfill_cubes::gen::random_cube_set(width, count, f64::from(density) / 10.0, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every (band, thread count) emits a filled permutation of the
    /// input, and the bytes are identical across thread counts.
    #[test]
    fn banded_streams_emit_thread_invariant_permutations(set in arb_cube_set()) {
        let text = to_text(&set);
        // The Zero fill maps each cube to its X→0 image, so the sorted
        // emitted lines must equal the sorted zero-filled input lines
        // regardless of the ordering the band chose.
        let mut expected = sorted_lines(to_text(&FillMethod::Zero.fill(&set)).as_bytes());
        expected.sort();
        for method in [BandedMethod::Interleave, BandedMethod::XStat] {
            for band in BANDS {
                let order = BandedOrder::with_band(method, band);
                let reference = with_threads(1, || {
                    run_banded(&text, FillMethod::Zero, WINDOW, order)
                });
                prop_assert_eq!(
                    sorted_lines(&reference),
                    expected.clone(),
                    "{} band {} dropped or duplicated cubes",
                    method.label(),
                    band
                );
                for threads in [THREADS[1], THREADS[2]] {
                    let parallel = with_threads(threads, || {
                        run_banded(&text, FillMethod::Zero, WINDOW, order)
                    });
                    prop_assert_eq!(
                        &reference,
                        &parallel,
                        "{} band {} drifted between 1 and {} threads",
                        method.label(),
                        band,
                        threads
                    );
                }
            }
        }
    }

    /// A ring covering the whole set IS the global ordering: the
    /// streamed bytes equal the monolithic ordered pipeline's, for the
    /// two-pass planned fill and a single-pass local fill alike.
    #[test]
    fn band_covering_the_set_is_byte_identical_to_monolithic(set in arb_cube_set()) {
        let text = to_text(&set);
        let band = set.len().div_ceil(WINDOW).max(1);
        for method in [BandedMethod::Interleave, BandedMethod::XStat] {
            for fill in [FillMethod::Dp, FillMethod::Zero] {
                let streamed = run_banded(
                    &text,
                    fill,
                    WINDOW,
                    BandedOrder::with_band(method, band),
                );
                prop_assert_eq!(
                    &streamed,
                    &monolithic_ordered(&set, fill, method),
                    "{} under {} band {} drifted from the monolithic ordered run",
                    fill.label(),
                    method.label(),
                    band
                );
            }
        }
    }

    /// The in-ring searches themselves (with a frozen tail, the shape
    /// the pipeline exercises) are bit-identical between the serial
    /// path and the pool fan-out — including the I-order trace.
    #[test]
    fn in_ring_searches_match_serial_at_any_thread_count(set in arb_cube_set()) {
        prop_assume!(set.len() >= 2);
        let tail = set.as_packed().cube(0).clone();
        let mut ring = dpfill_cubes::packed::PackedCubeSet::new(set.width());
        for cube in &set.as_packed().cubes()[1..] {
            ring.push(cube.clone());
        }
        let ring = CubeSet::from_packed(ring);
        let ctx = || BandContext { tail: Some(&tail), warm_lb: 0 };
        let serial_i = with_threads(1, || BandedIOrdering::new().order_band(&ring, ctx()).unwrap());
        let serial_x =
            with_threads(1, || BandedXStatOrdering.order_band(&ring, ctx()).unwrap());
        let serial_trace = with_threads(1, || IOrdering::new().order_with_trace(&ring).unwrap());
        for threads in [THREADS[1], THREADS[2]] {
            let (par_i, par_x, par_trace) = with_threads(threads, || {
                (
                    BandedIOrdering::new().order_band(&ring, ctx()).unwrap(),
                    BandedXStatOrdering.order_band(&ring, ctx()).unwrap(),
                    IOrdering::new().order_with_trace(&ring).unwrap(),
                )
            });
            prop_assert_eq!(&serial_i, &par_i, "banded I-order drifted at {} threads", threads);
            prop_assert_eq!(&serial_x, &par_x, "online XStat drifted at {} threads", threads);
            prop_assert_eq!(
                &serial_trace,
                &par_trace,
                "I-order trace drifted at {} threads",
                threads
            );
        }
    }
}

/// A seeded larger set anchors the whole-set identity beyond proptest's
/// small shapes, across several window sizes.
#[test]
fn seeded_set_collapses_to_monolithic_at_every_window() {
    let set = dpfill_cubes::gen::random_cube_set(60, 65, 0.85, 0xBA2D);
    let text = to_text(&set);
    for window in [1usize, 4, 16, 64] {
        let band = set.len().div_ceil(window).max(1);
        for method in [BandedMethod::Interleave, BandedMethod::XStat] {
            let streamed = run_banded(
                &text,
                FillMethod::Dp,
                window,
                BandedOrder::with_band(method, band),
            );
            assert_eq!(
                streamed,
                monolithic_ordered(&set, FillMethod::Dp, method),
                "{} window {window} band {band}",
                method.label()
            );
        }
    }
}
