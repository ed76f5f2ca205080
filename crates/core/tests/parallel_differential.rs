//! Determinism differential suite for the thread-pool fan-out: the
//! entire analyze → fill → metrics pipeline, run with pools of 1, 2 and
//! 8 threads, must be **bit-identical** to the serial path — on widths
//! not divisible by 64, all-X rows, empty sets, and every fill and
//! ordering the CLI exposes. This reuses the differential pattern of
//! `dpfill-cubes/tests/streaming_parse.rs`: one reference run, one
//! structural equality per configuration, no tolerance anywhere.

use dpfill_core::fill::{DpFill, FillMethod};
use dpfill_core::mapping::MatrixMapping;
use dpfill_core::ordering::{
    IOrdering, IOrderingTrace, IsaOrdering, OrderingStrategy, XStatOrdering,
};
use dpfill_core::Interval;
use dpfill_cubes::packed::{PackedCubeSet, PackedMatrix};
use dpfill_cubes::stretch::StretchStats;
use dpfill_cubes::{peak_toggles, toggle_profile, Bit, CubeSet, TestCube};
use proptest::prelude::*;

/// Everything the pipeline computes from one cube set, gathered into a
/// single comparable value. Any single bit of drift between thread
/// counts fails the equality loudly.
#[derive(Debug, PartialEq)]
struct PipelineOutputs {
    intervals: Vec<Interval>,
    baseline: Vec<u64>,
    stats: StretchStats,
    fills: Vec<(&'static str, CubeSet)>,
    dp_peak: u64,
    dp_lower_bound: u64,
    orders: Vec<(&'static str, Vec<usize>)>,
    interleave_trace: IOrderingTrace,
    profile: Option<Vec<usize>>,
}

fn pipeline_outputs(set: &CubeSet) -> PipelineOutputs {
    let mapping = MatrixMapping::analyze(set);
    let matrix = PackedMatrix::from_packed_set(&PackedCubeSet::from(set));
    let stats = StretchStats::of_packed(&matrix);

    let fill_methods = [
        FillMethod::Dp,
        FillMethod::B,
        FillMethod::XStat,
        FillMethod::Adj,
        FillMethod::Mt,
        FillMethod::Zero,
        FillMethod::One,
        FillMethod::Random(0xF111),
    ];
    let fills: Vec<(&'static str, CubeSet)> = fill_methods
        .iter()
        .map(|m| (m.label(), m.fill(set)))
        .collect();
    let report = DpFill::new().run(set);

    let orders = vec![
        ("XStat-order", XStatOrdering.order(set).unwrap()),
        (
            "ISA",
            IsaOrdering::with_iterations(7, 400).order(set).unwrap(),
        ),
        ("I-order", IOrdering::new().order(set).unwrap()),
    ];
    let interleave_trace = IOrdering::new().order_with_trace(set).unwrap();
    let profile = (!set.is_empty()).then(|| toggle_profile(&report.filled).unwrap());

    PipelineOutputs {
        intervals: mapping.instance().intervals().to_vec(),
        baseline: mapping.instance().baseline().to_vec(),
        stats,
        fills,
        dp_peak: report.peak,
        dp_lower_bound: report.lower_bound,
        orders,
        interleave_trace,
        profile,
    }
}

fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let pool = minipool::ThreadPool::new(threads);
    minipool::with_pool(&pool, f)
}

/// Asserts the pipeline is bit-identical at 1, 2 and 8 threads (1 is
/// the inline serial path — no worker threads exist at all).
fn assert_thread_invariant(set: &CubeSet) {
    let reference = with_threads(1, || pipeline_outputs(set));
    for threads in [2usize, 8] {
        let parallel = with_threads(threads, || pipeline_outputs(set));
        assert_eq!(
            reference, parallel,
            "pipeline drifted between 1 and {threads} threads"
        );
    }
}

fn arb_bit() -> impl Strategy<Value = Bit> {
    prop_oneof![
        1 => Just(Bit::Zero),
        1 => Just(Bit::One),
        2 => Just(Bit::X),
    ]
}

/// Cube sets whose widths straddle the 64-bit word boundary, with some
/// all-X rows mixed in (via `x_mask`); `count` starts at 0 so the empty
/// set is a first-class case.
fn arb_cube_set() -> impl Strategy<Value = CubeSet> {
    (1usize..=150, 0usize..=12, 0u8..=255).prop_flat_map(|(width, count, x_mask)| {
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_pipeline_is_bit_identical_to_serial(set in arb_cube_set()) {
        assert_thread_invariant(&set);
    }
}

#[test]
fn empty_and_degenerate_sets_at_all_thread_counts() {
    for set in [
        CubeSet::new(0),
        CubeSet::new(7),   // width, no cubes
        CubeSet::new(128), // word-aligned width, no cubes
        CubeSet::parse_rows(&["X0X"]).unwrap(),
    ] {
        assert_thread_invariant(&set);
    }
}

#[test]
fn all_x_sets_at_word_boundary_widths() {
    for width in [1usize, 63, 64, 65, 127, 128, 129] {
        let rows = ["X".repeat(width), "X".repeat(width), "X".repeat(width)];
        let refs: Vec<&str> = rows.iter().map(String::as_str).collect();
        let set = CubeSet::parse_rows(&refs).unwrap();
        assert_thread_invariant(&set);
    }
}

/// A seeded mid-size set (width and count both off the word boundary)
/// anchors the invariant beyond proptest's small shapes, and the DP
/// result is cross-checked against the measured peak under contention.
#[test]
fn seeded_200x129_set_is_thread_invariant_and_optimal() {
    let set = dpfill_cubes::gen::random_cube_set(200, 129, 0.8, 0xD1FF);
    assert_thread_invariant(&set);
    let pool = minipool::ThreadPool::new(8);
    let report = minipool::with_pool(&pool, || DpFill::new().run(&set));
    assert!(CubeSet::is_filling_of(&report.filled, &set));
    assert_eq!(report.peak, peak_toggles(&report.filled).unwrap() as u64);
    assert_eq!(report.peak, report.lower_bound);
}
