//! End-to-end checks of `dpfill-xfill --window` / `--memory-budget`:
//! the bounded-memory streaming mode must emit **byte-identical** output
//! to the monolithic run at every window size and thread count, reject
//! configurations it cannot stream, and surface malformed cubes at the
//! offending line.

use std::io::Write as _;
use std::process::{Command, Stdio};

const INPUT: &str = "\
# cube dump from some ATPG
0XX1XXXX0X
XX1XXX0XXX
1XXXX0XX1X
XXX0XXXX0X
X1XXXXXX1X
XXXX1XX0XX
0XXXXX1XXX
XX0XXXXXX1
";

fn run_xfill(args: &[&str], input: &str) -> (String, String, bool) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dpfill-xfill"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dpfill-xfill");
    // A run that rejects its arguments exits before reading stdin, so
    // the pipe may already be closed — that is the behavior under test,
    // not a failure.
    let _ = child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(input.as_bytes());
    let out = child.wait_with_output().expect("dpfill-xfill exit");
    (
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
        out.status.success(),
    )
}

#[test]
fn windowed_output_is_byte_identical_to_monolithic() {
    let (reference, _, ok) = run_xfill(&["--fill", "dp", "--order", "keep", "--stats"], INPUT);
    assert!(ok, "monolithic run failed");
    assert!(!reference.is_empty());
    for window in ["1", "3", "8", "64"] {
        for threads in ["1", "8"] {
            let (out, stderr, ok) = run_xfill(
                &[
                    "--fill",
                    "dp",
                    "--order",
                    "keep",
                    "--stats",
                    "--window",
                    window,
                    "--threads",
                    threads,
                ],
                INPUT,
            );
            assert!(ok, "--window {window} --threads {threads} failed: {stderr}");
            assert_eq!(
                out, reference,
                "--window {window} --threads {threads} changed the output"
            );
            assert!(stderr.contains("peak toggles"), "stats still reported");
            assert!(stderr.contains("peak resident cubes"), "stream stats added");
        }
    }
}

#[test]
fn stats_reports_nonzero_phase_totals() {
    // The wall-clock per-phase totals are always measured (no --trace
    // needed) and all three phases of a planned fill take real time.
    let (_, stderr, ok) = run_xfill(
        &[
            "--fill", "dp", "--order", "keep", "--stats", "--window", "2",
        ],
        INPUT,
    );
    assert!(ok, "stderr: {stderr}");
    let line = stderr
        .lines()
        .find(|l| l.starts_with("phase totals:"))
        .unwrap_or_else(|| panic!("no phase totals line in: {stderr}"));
    // "phase totals: pass-1 N ns, solve N ns, pass-2 N ns"
    let ns: Vec<u64> = line
        .split_whitespace()
        .filter_map(|w| w.parse().ok())
        .collect();
    assert_eq!(ns.len(), 3, "expected three durations in {line:?}");
    for (phase, v) in ["pass-1", "solve", "pass-2"].iter().zip(&ns) {
        assert!(*v > 0, "{phase} total is zero: {line:?}");
    }
}

#[test]
fn memory_budget_mode_matches_monolithic() {
    let (reference, _, ok) = run_xfill(&["--fill", "dp", "--order", "keep"], INPUT);
    assert!(ok);
    let (out, stderr, ok) = run_xfill(
        &["--fill", "dp", "--order", "keep", "--memory-budget", "64"],
        INPUT,
    );
    assert!(ok, "--memory-budget failed: {stderr}");
    assert_eq!(out, reference);
}

#[test]
fn windowed_mt_and_local_fills_match_monolithic() {
    for fill in ["mt", "0", "1", "adj", "random"] {
        let (reference, _, ok) = run_xfill(&["--fill", fill, "--order", "keep"], INPUT);
        assert!(ok, "monolithic --fill {fill} failed");
        let (out, stderr, ok) =
            run_xfill(&["--fill", fill, "--order", "keep", "--window", "2"], INPUT);
        assert!(ok, "--fill {fill} --window 2 failed: {stderr}");
        assert_eq!(out, reference, "--fill {fill} drifted under --window 2");
    }
}

#[test]
fn windowed_default_ordering_is_banded_interleave() {
    // `--window` alone used to be rejected ("global orderings need the
    // whole set"); the default now resolves to the banded interleave
    // ordering and the run succeeds end to end.
    let (out, stderr, ok) = run_xfill(&["--window", "4", "--stats"], INPUT);
    assert!(ok, "--window alone must stream banded: {stderr}");
    assert!(!out.is_empty());
    assert!(!out.contains('X'), "every X filled: {out}");
    assert!(
        stderr.contains("banded ordering: I-order"),
        "stderr: {stderr}"
    );
}

#[test]
fn band_covering_the_set_matches_the_monolithic_ordered_run() {
    // 8 cubes; --window 2 --band 4 makes the ring swallow the whole
    // input, so the banded run must be byte-identical to the monolithic
    // ordered pipeline — for both in-ring orderings and both fill arms.
    for (order, fill) in [("interleave", "dp"), ("xstat", "dp"), ("interleave", "0")] {
        let (reference, _, ok) = run_xfill(&["--fill", fill, "--order", order], INPUT);
        assert!(ok, "monolithic --order {order} failed");
        let (out, stderr, ok) = run_xfill(
            &[
                "--fill", fill, "--order", order, "--window", "2", "--band", "4",
            ],
            INPUT,
        );
        assert!(ok, "banded --order {order} --fill {fill} failed: {stderr}");
        assert_eq!(
            out, reference,
            "--order {order} --fill {fill}: band-covers-set drifted from monolithic"
        );
    }
}

#[test]
fn narrow_band_streams_end_to_end_at_any_thread_count() {
    // A band that cannot see the whole set: the output is a function of
    // (input, band, window) — pin that it is identical across thread
    // counts and fully specified.
    let mut outputs = Vec::new();
    for threads in ["1", "8"] {
        let (out, stderr, ok) = run_xfill(
            &[
                "--order",
                "xstat",
                "--window",
                "2",
                "--band",
                "2",
                "--threads",
                threads,
                "--stats",
            ],
            INPUT,
        );
        assert!(ok, "--band 2 --threads {threads} failed: {stderr}");
        // Skip the header comment (the ordering label contains an 'X').
        assert!(
            out.lines()
                .filter(|l| !l.starts_with('#'))
                .all(|l| !l.contains('X')),
            "every X filled: {out}"
        );
        assert!(
            stderr.contains("banded ordering: XStat-order"),
            "stderr: {stderr}"
        );
        outputs.push(out);
    }
    assert_eq!(outputs[0], outputs[1], "banded output varies with threads");
}

#[test]
fn streaming_mode_rejects_global_orderings_and_fills() {
    // ISA genuinely needs the whole set; the rejection names the flag.
    let (_, stderr, ok) = run_xfill(&["--order", "isa", "--window", "4"], INPUT);
    assert!(!ok, "--order isa must fail in streaming mode");
    assert!(stderr.contains("--order isa"), "stderr: {stderr}");
    assert!(stderr.contains("whole pattern set"), "stderr: {stderr}");

    // --band without streaming mode, or under --order keep, is a usage
    // error that explains itself.
    let (_, stderr, ok) = run_xfill(&["--band", "2"], INPUT);
    assert!(!ok, "--band without --window must fail");
    assert!(stderr.contains("--window"), "stderr: {stderr}");
    let (_, stderr, ok) = run_xfill(&["--order", "keep", "--window", "4", "--band", "2"], INPUT);
    assert!(!ok, "--band with --order keep must fail");
    assert!(stderr.contains("--order keep"), "stderr: {stderr}");
    let (_, stderr, ok) = run_xfill(&["--window", "4", "--band", "0"], INPUT);
    assert!(!ok, "--band 0 must fail");
    assert!(stderr.contains("--band"), "stderr: {stderr}");

    for fill in ["b", "xstat"] {
        let (_, stderr, ok) =
            run_xfill(&["--fill", fill, "--order", "keep", "--window", "4"], INPUT);
        assert!(!ok, "--fill {fill} must be rejected in streaming mode");
        assert!(stderr.contains("whole pattern set"), "stderr: {stderr}");
    }

    let (_, stderr, ok) = run_xfill(
        &["--order", "keep", "--window", "4", "--memory-budget", "8"],
        INPUT,
    );
    assert!(!ok, "--window plus --memory-budget must fail");
    assert!(stderr.contains("not both"), "stderr: {stderr}");

    for (flag, bad) in [
        ("--window", "0"),
        ("--memory-budget", "0"),
        ("--window", "many"),
    ] {
        let (_, stderr, ok) = run_xfill(&["--order", "keep", flag, bad], INPUT);
        assert!(!ok, "{flag} {bad} must fail");
        assert!(stderr.contains("error"), "stderr: {stderr}");
    }
}

#[test]
fn malformed_cubes_fail_at_the_offending_line_in_both_modes() {
    // Line 4 (1-based) holds a bad character; both pipelines must name
    // it without emitting any patterns to stdout.
    let bad = "0X1X\n1XX0\nXXXX\n1ZX0\nXXXX\n";
    let (out, stderr, ok) = run_xfill(&["--order", "keep"], bad);
    assert!(!ok);
    assert!(out.is_empty(), "no patterns on stdout: {out}");
    assert!(stderr.contains("line 4"), "stderr: {stderr}");
    let (out, stderr, ok) = run_xfill(&["--order", "keep", "--window", "2"], bad);
    assert!(!ok);
    assert!(out.is_empty(), "no patterns on stdout: {out}");
    assert!(stderr.contains("line 4"), "stderr: {stderr}");

    // A width mismatch is named at its line too.
    let ragged = "0X1X\n1XX0\n10\n";
    let (_, stderr, ok) = run_xfill(&["--order", "keep", "--window", "2"], ragged);
    assert!(!ok);
    assert!(
        stderr.contains("line 3") && stderr.contains("width"),
        "stderr: {stderr}"
    );
}

#[test]
fn non_utf8_bytes_are_malformed_input_at_their_line_in_both_modes() {
    // A non-UTF-8 byte in a row is a parse failure at its line (exit 4,
    // the byte named), not an input I/O error; one inside a comment is
    // ignored like the rest of the comment.
    fn run_bytes(args: &[&str], input: &[u8]) -> std::process::Output {
        let mut child = Command::new(env!("CARGO_BIN_EXE_dpfill-xfill"))
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn dpfill-xfill");
        let mut stdin = child.stdin.take().expect("piped stdin");
        stdin.write_all(input).expect("feed stdin");
        drop(stdin);
        child.wait_with_output().expect("dpfill-xfill exit")
    }

    for args in [
        &["--fill", "dp"][..],
        &["--fill", "dp", "--window", "1", "--order", "keep"][..],
        &["--fill", "0", "--window", "1", "--order", "keep"][..],
    ] {
        let out = run_bytes(args, b"0X\n1\xff\n");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(4), "{args:?} stderr: {stderr}");
        assert!(
            stderr.contains("line 2") && stderr.contains("invalid pattern byte 0xFF"),
            "{args:?} stderr: {stderr}"
        );
    }

    for args in [
        &["--order", "keep"][..],
        &["--order", "keep", "--window", "1"][..],
    ] {
        let out = run_bytes(args, b"# caf\xe9 header\n0X # \xff\xfe\n1X\n");
        assert!(out.status.success(), "{args:?}");
        let (reference, _, ok) = run_xfill(args, "0X\n1X\n");
        assert!(ok);
        assert_eq!(String::from_utf8_lossy(&out.stdout), reference, "{args:?}");
    }
}

#[test]
fn windowed_file_input_and_output_round_trip() {
    // File in, file out — the production shape for huge pattern sets.
    let dir = std::env::temp_dir();
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos());
    let in_path = dir.join(format!(
        "xfill-window-in-{}-{nanos}.pat",
        std::process::id()
    ));
    let out_path = dir.join(format!(
        "xfill-window-out-{}-{nanos}.pat",
        std::process::id()
    ));
    std::fs::write(&in_path, INPUT).expect("write input file");

    let (reference, _, ok) = run_xfill(&["--fill", "dp", "--order", "keep"], INPUT);
    assert!(ok);
    let status = Command::new(env!("CARGO_BIN_EXE_dpfill-xfill"))
        .args([
            "--fill",
            "dp",
            "--order",
            "keep",
            "--window",
            "3",
            "--output",
            out_path.to_str().unwrap(),
            in_path.to_str().unwrap(),
        ])
        .status()
        .expect("run dpfill-xfill");
    assert!(status.success());
    let out = std::fs::read_to_string(&out_path).expect("read output file");
    assert_eq!(out, reference);
    let _ = std::fs::remove_file(&in_path);
    let _ = std::fs::remove_file(&out_path);
}

#[test]
fn rejected_streaming_runs_leave_an_existing_output_file_intact() {
    // A run that fails validation (unsupported fill) or finds no
    // patterns must not truncate a pre-existing --output file.
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos());
    let out_path = std::env::temp_dir().join(format!(
        "xfill-window-precious-{}-{nanos}.pat",
        std::process::id()
    ));
    std::fs::write(&out_path, "precious bytes\n").expect("write output file");
    // A malformed line *after* the first window: a single-pass fill has
    // already emitted a window by then, so this pins the temp+rename
    // guarantee for mid-stream failures, not just up-front rejection.
    let late_error = "0X\n1X\nX1\n0X\n1Z\n";
    for (args, input) in [
        (
            vec!["--order", "keep", "--fill", "b", "--window", "4"],
            INPUT,
        ),
        (vec!["--order", "keep", "--window", "4"], "# empty\n"),
        (vec!["--order", "keep", "--window", "4"], "0X\nZZ\n"),
        (
            vec!["--order", "keep", "--fill", "0", "--window", "1"],
            late_error,
        ),
        (
            vec!["--order", "keep", "--fill", "dp", "--window", "1"],
            late_error,
        ),
    ] {
        let mut full = args.clone();
        full.extend(["--output", out_path.to_str().unwrap()]);
        let (_, stderr, ok) = run_xfill(&full, input);
        assert!(!ok, "args {args:?} must fail: {stderr}");
        assert_eq!(
            std::fs::read_to_string(&out_path).unwrap(),
            "precious bytes\n",
            "args {args:?} clobbered the output file"
        );
        // And the uncommitted temp sibling is cleaned up.
        let tmp_prefix = format!("{}.tmp.", out_path.file_name().unwrap().to_str().unwrap());
        let leaked: Vec<String> = std::fs::read_dir(out_path.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(&tmp_prefix))
            .collect();
        assert!(
            leaked.is_empty(),
            "args {args:?} leaked temp files {leaked:?}"
        );
    }
    let _ = std::fs::remove_file(&out_path);
}

#[test]
fn empty_input_is_rejected_in_streaming_mode() {
    let (out, stderr, ok) = run_xfill(&["--order", "keep", "--window", "4"], "# nothing\n\n");
    assert!(!ok);
    assert!(out.is_empty());
    assert!(stderr.contains("no patterns"), "stderr: {stderr}");
}

/// The `"baseline_peak"` a run writes to `--stats-json`.
fn stats_json_baseline(args: &[&str], input: &str, tag: &str) -> usize {
    let path = std::env::temp_dir().join(format!(
        "xfill-window-baseline-{}-{tag}.json",
        std::process::id()
    ));
    let mut args = args.to_vec();
    args.extend(["--stats-json", path.to_str().expect("utf-8 temp path")]);
    let (_, stderr, ok) = run_xfill(&args, input);
    assert!(ok, "{args:?} failed: {stderr}");
    let text = std::fs::read_to_string(&path).expect("stats-json written");
    let _ = std::fs::remove_file(&path);
    text.split("\"baseline_peak\": ")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.trim().parse().ok())
        .unwrap_or_else(|| panic!("no baseline_peak in {text}"))
}

#[test]
fn streamed_as_given_baseline_is_the_input_order_peak() {
    // "0-fill(as-given)" is the 0-fill peak of the input in arrival
    // order in every mode: an ordered stream must not report the peak
    // of its reordered output. 97 cubes: --window 10 --band 16 lets the
    // ring swallow the whole set, --band 1 streams ten windows.
    let cubes = dpfill_cubes::gen::random_cube_set(37, 97, 0.78, 5);
    let input = dpfill_cubes::format::patterns_to_string(&cubes, None);
    for order in ["interleave", "xstat"] {
        let mono = stats_json_baseline(&["--fill", "dp", "--order", order], &input, order);
        for band in ["16", "1"] {
            let streamed = stats_json_baseline(
                &[
                    "--fill", "dp", "--order", order, "--window", "10", "--band", band,
                ],
                &input,
                &format!("{order}-{band}"),
            );
            assert_eq!(
                streamed, mono,
                "--order {order} --band {band}: streamed baseline_peak differs"
            );
        }
    }
}
