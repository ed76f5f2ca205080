//! The chaos suite: seeded fault schedules composed with the streaming
//! differential. Four guarantees are pinned here:
//!
//! 1. **No panic escapes** — injected worker panics (via [`ChaosPlan`])
//!    surface as [`StreamError::WindowPanicked`] with the exact window
//!    index and global cube range, never as an unwinding test abort.
//! 2. **Typed errors at the right place** — corrupted bytes fail as a
//!    parse error naming the offending line; a source that truncates
//!    between passes fails as [`StreamError::SourceChanged`]; a cut
//!    reader or sink surfaces the underlying I/O kind.
//! 3. **Recoverable faults are invisible** — EINTR bursts and short
//!    reads/writes on either side of the pipeline leave the output
//!    byte-identical to the monolithic run.
//! 4. **Degraded runs stay exact** — a `--memory-budget` run that
//!    halves its window under pressure records the events and still
//!    emits byte-identical output; a budget no window size can satisfy
//!    fails as [`StreamError::BudgetExhausted`], not an OOM kill.

use std::io;

use dpfill_core::fill::FillMethod;
use dpfill_core::ordering::BandedMethod;
use dpfill_core::stream::{
    BandedOrder, ChaosPlan, StreamError, StreamOptions, StreamReport, StreamingFill, WindowSpec,
};
use dpfill_cubes::format;
use dpfill_oracle::faultio::{ByteFault, FaultPlan, FaultyReader, FaultyWriter, OpFault};
use proptest::prelude::*;

/// The monolithic reference: parse everything, fill, serialize.
fn monolithic_bytes(text: &str, fill: FillMethod) -> Vec<u8> {
    let cubes = format::parse_patterns(text).expect("reference parse");
    let filled = fill.fill(&cubes);
    let mut buf = Vec::new();
    format::write_patterns(&mut buf, &filled, None).expect("in-memory write");
    buf
}

fn opts(window: WindowSpec, fill: FillMethod) -> StreamOptions {
    StreamOptions {
        window,
        fill,
        ..StreamOptions::default()
    }
}

fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let pool = minipool::ThreadPool::new(threads);
    minipool::with_pool(&pool, f)
}

/// `cubes` rows of `width` pins cycling all-0 / all-X / all-1 / all-X:
/// every pin alternates care values through one-cube X stretches, so
/// the analyzer's event stream grows with roughly one interval site per
/// pin per two cubes — the densest budget pressure a fixed width can
/// produce.
fn alternating_text(width: usize, cubes: usize) -> String {
    let rows = ["0", "X", "1", "X"];
    let mut text = String::with_capacity(cubes * (width + 1));
    for i in 0..cubes {
        for _ in 0..width {
            text.push_str(rows[i % 4]);
        }
        text.push('\n');
    }
    text
}

// ---------------------------------------------------------------------
// 1. Panic containment.

#[test]
fn injected_fill_panic_is_contained_at_its_window() {
    let text = "0XX1\nXX0X\n1X0X\nX1XX\n0XX1\nXXXX\n10X0\n";
    // Window 2 (cubes 4..6) at window size 2.
    let options = StreamOptions {
        chaos: ChaosPlan {
            panic_in_fill: Some(2),
            ..ChaosPlan::default()
        },
        ..opts(WindowSpec::Cubes(2), FillMethod::Dp)
    };
    for threads in [1usize, 8] {
        let err = with_threads(threads, || {
            StreamingFill::new(options.clone())
                .run(|| Ok(text.as_bytes()), &mut Vec::new())
                .unwrap_err()
        });
        match err {
            StreamError::WindowPanicked {
                window,
                cubes,
                message,
            } => {
                assert_eq!(window, 2, "{threads} threads");
                assert_eq!(cubes, 4..6, "{threads} threads");
                assert!(message.contains("chaos"), "payload: {message}");
            }
            other => panic!("expected WindowPanicked, got {other}"),
        }
    }
}

#[test]
fn injected_analyze_panic_is_contained_at_its_window() {
    let text = "0XX1\nXX0X\n1X0X\nX1XX\n0XX1\n";
    // Analyze windows: #0 is the one-cube width probe, #1 covers cubes
    // 1..3 at window size 2.
    let options = StreamOptions {
        chaos: ChaosPlan {
            panic_in_analyze: Some(1),
            ..ChaosPlan::default()
        },
        ..opts(WindowSpec::Cubes(2), FillMethod::Dp)
    };
    let mut out = Vec::new();
    let err = StreamingFill::new(options)
        .run(|| Ok(text.as_bytes()), &mut out)
        .unwrap_err();
    match err {
        StreamError::WindowPanicked { window, cubes, .. } => {
            assert_eq!(window, 1);
            assert_eq!(cubes, 1..3);
        }
        other => panic!("expected WindowPanicked, got {other}"),
    }
    assert!(out.is_empty(), "a poisoned analysis must not emit");
}

// ---------------------------------------------------------------------
// 2. Typed errors at the right line / window.

#[test]
fn corrupted_byte_fails_as_a_parse_error_at_its_line() {
    // Five 4-pin rows, 5 bytes per line. XOR 0x07 turns line 3's first
    // '0' (offset 10) into '7'.
    let text = "0X1X\n1XX0\n0XXX\n1XX0\nXXXX\n";
    let plan = FaultPlan::new().at_byte(10, ByteFault::Corrupt(0x07));
    let err = StreamingFill::new(opts(WindowSpec::Cubes(2), FillMethod::Dp))
        .run(
            || Ok(FaultyReader::new(text.as_bytes(), plan.clone())),
            &mut Vec::new(),
        )
        .unwrap_err();
    assert!(
        matches!(err, StreamError::Pattern(_)),
        "expected a pattern error, got {err}"
    );
    let message = err.to_string();
    assert!(message.contains("line 3"), "diagnostic: {message}");
}

#[test]
fn truncation_between_passes_fails_as_source_changed() {
    let text = "0X1X\n1XX0\nXXXX\n10X0\nXXXX\nX1X0\n";
    // The emit pass sees the source truncated after four complete rows;
    // the plan was solved for six.
    let mut calls = 0usize;
    let err = StreamingFill::new(opts(WindowSpec::Cubes(2), FillMethod::Dp))
        .run(
            || {
                calls += 1;
                let plan = if calls > 1 {
                    FaultPlan::new().at_byte(20, ByteFault::Truncate)
                } else {
                    FaultPlan::new()
                };
                Ok(FaultyReader::new(text.as_bytes(), plan))
            },
            &mut Vec::new(),
        )
        .unwrap_err();
    assert!(
        matches!(err, StreamError::SourceChanged { .. }),
        "expected SourceChanged, got {err}"
    );
}

#[test]
fn cut_reader_surfaces_the_underlying_io_kind() {
    let text = "0X1X\n1XX0\nXXXX\n10X0\n";
    let plan = FaultPlan::new().at_byte(12, ByteFault::Cut(io::ErrorKind::BrokenPipe));
    let err = StreamingFill::new(opts(WindowSpec::Cubes(2), FillMethod::Dp))
        .run(
            || Ok(FaultyReader::new(text.as_bytes(), plan.clone())),
            &mut Vec::new(),
        )
        .unwrap_err();
    match err {
        StreamError::Pattern(e) => {
            let source = std::error::Error::source(&e).expect("io source");
            let io = source.downcast_ref::<io::Error>().expect("io error");
            assert_eq!(io.kind(), io::ErrorKind::BrokenPipe);
        }
        other => panic!("expected Pattern(Io), got {other}"),
    }
}

#[test]
fn cut_sink_surfaces_as_a_write_error() {
    let text = "0X1X\n1XX0\nXXXX\n10X0\n";
    let plan = FaultPlan::new().at_byte(7, ByteFault::Cut(io::ErrorKind::BrokenPipe));
    let mut sink = FaultyWriter::new(Vec::new(), plan);
    let err = StreamingFill::new(opts(WindowSpec::Cubes(2), FillMethod::Dp))
        .run(|| Ok(text.as_bytes()), &mut sink)
        .unwrap_err();
    match err {
        StreamError::Write(e) => assert_eq!(e.kind(), io::ErrorKind::BrokenPipe),
        other => panic!("expected Write, got {other}"),
    }
}

// ---------------------------------------------------------------------
// 3. Recoverable faults are invisible.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Seeded benign-noise schedules (EINTR bursts, short reads) on the
    /// input composed with the windowed differential: the retry layer
    /// absorbs every fault and the output stays byte-identical.
    #[test]
    fn noisy_reads_leave_output_byte_identical(
        seed in 0u64..u64::MAX,
        window in 1usize..=8,
        threads in 1usize..=4,
    ) {
        let text = alternating_text(10, 24);
        let reference = monolithic_bytes(&text, FillMethod::Dp);
        let plan = FaultPlan::benign_noise(seed, 512);
        let mut out = Vec::new();
        let report = with_threads(threads, || {
            StreamingFill::new(opts(WindowSpec::Cubes(window), FillMethod::Dp)).run(
                || Ok(FaultyReader::new(text.as_bytes(), plan.clone())),
                &mut out,
            )
        })
        .expect("noisy run");
        prop_assert_eq!(out, reference);
        prop_assert_eq!(report.cubes, 24);
        prop_assert!(report.degradations.is_empty());
    }

    /// The same schedules on the sink: `PatternWriter`'s bounded-retry
    /// emit path hides them.
    #[test]
    fn noisy_writes_leave_output_byte_identical(seed in 0u64..u64::MAX) {
        let text = alternating_text(10, 24);
        let reference = monolithic_bytes(&text, FillMethod::Dp);
        let mut sink = FaultyWriter::new(Vec::new(), FaultPlan::benign_noise(seed, 512));
        StreamingFill::new(opts(WindowSpec::Cubes(4), FillMethod::Dp))
            .run(|| Ok(text.as_bytes()), &mut sink)
            .expect("noisy write run");
        prop_assert_eq!(sink.into_inner(), reference);
    }
}

/// A deliberately dense storm on both sides at once — every recoverable
/// fault kind on a fixed schedule, still byte-identical.
#[test]
fn interrupt_and_short_storm_on_both_sides_is_invisible() {
    let text = alternating_text(7, 16);
    let reference = monolithic_bytes(&text, FillMethod::Mt);
    let read_plan = FaultPlan::new()
        .on_op(0, OpFault::Interrupt)
        .on_op(1, OpFault::Short(1))
        .on_op(2, OpFault::Interrupt)
        .on_op(4, OpFault::Short(3))
        .on_op(7, OpFault::Interrupt);
    let write_plan = FaultPlan::new()
        .on_op(0, OpFault::Interrupt)
        .on_op(1, OpFault::Short(2))
        .on_op(3, OpFault::Interrupt)
        .on_op(5, OpFault::Short(1));
    let mut sink = FaultyWriter::new(Vec::new(), write_plan);
    StreamingFill::new(opts(WindowSpec::Cubes(3), FillMethod::Mt))
        .run(
            || Ok(FaultyReader::new(text.as_bytes(), read_plan.clone())),
            &mut sink,
        )
        .expect("storm run");
    assert_eq!(sink.into_inner(), reference);
}

// ---------------------------------------------------------------------
// 4. Graceful degradation under budget pressure.

#[test]
fn budget_pressure_degrades_the_window_and_stays_byte_identical() {
    // 512 alternating cubes over 64 pins build ~512 KiB of interval
    // sites — enough to force a 1 MiB budget to halve its window
    // mid-analysis, not enough to exhaust it.
    let text = alternating_text(64, 512);
    let reference = monolithic_bytes(&text, FillMethod::Dp);
    let mut out = Vec::new();
    let report = with_threads(1, || {
        StreamingFill::new(opts(WindowSpec::MemoryBudgetMiB(1), FillMethod::Dp))
            .run(|| Ok(text.as_bytes()), &mut out)
    })
    .expect("degraded run");
    assert_eq!(out, reference, "degradation changed the output");
    assert!(
        !report.degradations.is_empty(),
        "a ~512 KiB event stream against a 1 MiB budget must shrink the window"
    );
    for event in &report.degradations {
        assert!(event.to_cubes < event.from_cubes, "event: {event}");
        assert!(event.to_cubes >= 1, "event: {event}");
        assert!(
            event.resident_bytes > event.budget_bytes,
            "degradations only fire over budget: {event}"
        );
    }
}

#[test]
fn impossible_budget_fails_typed_instead_of_thrashing() {
    // 4096 alternating cubes build ~4 MiB of interval sites: no window
    // size fits 1 MiB, so the run must end in BudgetExhausted at the
    // one-cube floor.
    let text = alternating_text(64, 4096);
    let err = with_threads(1, || {
        StreamingFill::new(opts(WindowSpec::MemoryBudgetMiB(1), FillMethod::Dp))
            .run(|| Ok(text.as_bytes()), &mut Vec::new())
    })
    .unwrap_err();
    match err {
        StreamError::BudgetExhausted {
            resident_bytes,
            budget_bytes,
            ..
        } => {
            assert!(resident_bytes > budget_bytes);
            assert_eq!(budget_bytes, 1 << 20);
        }
        other => panic!("expected BudgetExhausted, got {other}"),
    }
}

/// A planned fill whose source keeps its shape but changes its care
/// bits between the analysis pass and the emit pass: pass 1's plan
/// would overwrite pass 2's care bits, so the run must fail typed.
fn run_with_content_changed_between_passes(
    order: Option<BandedOrder>,
) -> (Result<StreamReport, StreamError>, Vec<u8>) {
    let pass1 = "0XXX1\n1XXX0\nXXXXX\n0XXX1\n";
    let pass2 = "01001\n10110\n11111\n00001\n";
    let mut calls = 0usize;
    let mut out = Vec::new();
    let result = StreamingFill::new(StreamOptions {
        order,
        ..opts(WindowSpec::Cubes(2), FillMethod::Dp)
    })
    .run(
        || {
            calls += 1;
            Ok(if calls == 1 { pass1 } else { pass2 }.as_bytes())
        },
        &mut out,
    );
    (result, out)
}

#[test]
fn content_change_between_passes_fails_before_emitting_a_non_filling() {
    let (result, out) = run_with_content_changed_between_passes(None);
    match result {
        Err(StreamError::ContentChanged { window }) => assert_eq!(window, 0),
        other => panic!("expected ContentChanged, got {other:?}"),
    }
    assert!(
        out.is_empty(),
        "emitted {:?}",
        String::from_utf8_lossy(&out)
    );
}

#[test]
fn content_change_under_a_banded_order_fails_typed() {
    let order = BandedOrder::new(BandedMethod::Interleave);
    let (result, _) = run_with_content_changed_between_passes(Some(order));
    assert!(
        matches!(result, Err(StreamError::ContentChanged { .. })),
        "expected ContentChanged, got {result:?}"
    );
}

#[test]
fn content_change_that_overwrites_no_care_bit_fails_on_the_digest() {
    // Pass 2's cubes are fully specified, so every fill of them is a
    // filling: only pass 1's per-cube digests can see the change.
    for order in [None, Some(BandedOrder::new(BandedMethod::Interleave))] {
        for window in [1, 2] {
            let mut calls = 0usize;
            let mut out = Vec::new();
            let result = StreamingFill::new(StreamOptions {
                order,
                ..opts(WindowSpec::Cubes(window), FillMethod::Dp)
            })
            .run(
                || {
                    calls += 1;
                    Ok(if calls == 1 { "00\n11\n" } else { "01\n10\n" }.as_bytes())
                },
                &mut out,
            );
            match result {
                Err(StreamError::ContentChanged { window: 0 }) => {}
                other => panic!("order {order:?} window {window}: got {other:?}"),
            }
            assert!(
                out.is_empty(),
                "order {order:?} window {window}: emitted {:?}",
                String::from_utf8_lossy(&out)
            );
        }
    }
}
