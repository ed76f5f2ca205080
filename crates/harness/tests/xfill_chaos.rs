//! End-to-end fault injection for `dpfill-xfill`: every failure class
//! exits with its documented code, contained panics are attributed to
//! their window, a killed consumer never leaks the stdin spool, and a
//! budget-degraded run is observable in `--stats` while staying
//! byte-identical.

use std::io::{Read as _, Write as _};
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

/// Exit codes under test — mirror `exit` in `dpfill-xfill`.
const EXIT_USAGE: i32 = 2;
const EXIT_INPUT_IO: i32 = 3;
const EXIT_MALFORMED: i32 = 4;
const EXIT_OUTPUT: i32 = 5;
const EXIT_WINDOW_PANICKED: i32 = 7;
const EXIT_BUDGET_EXHAUSTED: i32 = 8;
const EXIT_NO_PATTERNS: i32 = 10;

struct Run {
    stdout: String,
    stderr: String,
    code: Option<i32>,
}

fn run_xfill_env(args: &[&str], input: &str, env: &[(&str, &str)]) -> Run {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dpfill-xfill"));
    cmd.args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    for (key, value) in env {
        cmd.env(key, value);
    }
    let mut child = cmd.spawn().expect("spawn dpfill-xfill");
    // A run that rejects its arguments exits before reading stdin, so
    // the pipe may already be closed — that is the behavior under test.
    let _ = child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(input.as_bytes());
    let out = child.wait_with_output().expect("dpfill-xfill exit");
    Run {
        stdout: String::from_utf8(out.stdout).expect("utf-8 stdout"),
        stderr: String::from_utf8(out.stderr).expect("utf-8 stderr"),
        code: out.status.code(),
    }
}

fn run_xfill(args: &[&str], input: &str) -> Run {
    run_xfill_env(args, input, &[])
}

/// `cubes` rows over `width` pins cycling all-0/all-X/all-1/all-X — the
/// event-dense shape that pressures a memory budget (one interval site
/// per pin per two cubes).
fn alternating_input(width: usize, cubes: usize) -> String {
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

#[test]
fn each_failure_class_has_its_own_exit_code() {
    // Usage: unknown flag.
    let run = run_xfill(&["--frobnicate"], INPUT);
    assert_eq!(run.code, Some(EXIT_USAGE), "stderr: {}", run.stderr);

    // Usage: a fill streaming cannot honor.
    let run = run_xfill(&["--order", "keep", "--fill", "b", "--window", "4"], INPUT);
    assert_eq!(run.code, Some(EXIT_USAGE), "stderr: {}", run.stderr);
    assert!(run.stderr.contains("whole pattern set"));

    // Input I/O: a missing input file, both pipelines.
    for args in [
        &["/nonexistent/cubes.pat"][..],
        &["--order", "keep", "--window", "4", "/nonexistent/cubes.pat"][..],
    ] {
        let run = run_xfill(args, "");
        assert_eq!(run.code, Some(EXIT_INPUT_IO), "stderr: {}", run.stderr);
    }

    // Malformed input at its line, both pipelines.
    let bad = "0X1X\n1XX0\nXXXX\n1ZX0\nXXXX\n";
    for args in [
        &["--order", "keep"][..],
        &["--order", "keep", "--window", "2"][..],
    ] {
        let run = run_xfill(args, bad);
        assert_eq!(run.code, Some(EXIT_MALFORMED), "stderr: {}", run.stderr);
        assert!(run.stderr.contains("line 4"), "stderr: {}", run.stderr);
    }

    // No patterns, both pipelines.
    for args in [
        &["--order", "keep"][..],
        &["--order", "keep", "--window", "4"][..],
    ] {
        let run = run_xfill(args, "# nothing\n\n");
        assert_eq!(run.code, Some(EXIT_NO_PATTERNS), "stderr: {}", run.stderr);
        assert!(run.stderr.contains("no patterns"));
    }
}

#[test]
fn injected_worker_panics_exit_as_contained_window_failures() {
    // The fill worker of window 1 (pass 2) and the analyzer of window 0
    // (the width probe of pass 1): both must exit 7 with the window
    // named, not crash with the default panic abort (101).
    for (spec, needle) in [
        ("fill:1", "window 1"),
        ("analyze:0", "window 0"),
        ("fill:0,analyze:1", "window 1"),
    ] {
        let run = run_xfill_env(
            &["--order", "keep", "--window", "3"],
            INPUT,
            &[("DPFILL_CHAOS", spec)],
        );
        assert_eq!(
            run.code,
            Some(EXIT_WINDOW_PANICKED),
            "DPFILL_CHAOS={spec} stderr: {}",
            run.stderr
        );
        assert!(
            run.stderr.contains("worker panicked") && run.stderr.contains(needle),
            "DPFILL_CHAOS={spec} stderr: {}",
            run.stderr
        );
    }

    // A malformed schedule is a usage error, not a silent no-op.
    let run = run_xfill_env(
        &["--order", "keep", "--window", "3"],
        INPUT,
        &[("DPFILL_CHAOS", "explode:everywhere")],
    );
    assert_eq!(run.code, Some(EXIT_USAGE), "stderr: {}", run.stderr);
}

#[test]
fn chaos_panic_with_output_file_keeps_the_target_intact_and_leaks_nothing() {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos());
    let out_path = std::env::temp_dir().join(format!(
        "xfill-chaos-precious-{}-{nanos}.pat",
        std::process::id()
    ));
    std::fs::write(&out_path, "precious bytes\n").expect("write output file");

    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dpfill-xfill"));
    cmd.args([
        "--order",
        "keep",
        "--window",
        "2",
        "--output",
        out_path.to_str().expect("utf-8 path"),
    ])
    .env("DPFILL_CHAOS", "fill:2")
    .stdin(Stdio::piped())
    .stderr(Stdio::null());
    let mut child = cmd.spawn().expect("spawn dpfill-xfill");
    child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(INPUT.as_bytes())
        .expect("feed stdin");
    drop(child.stdin.take());
    let status = child.wait().expect("dpfill-xfill exit");
    assert_eq!(status.code(), Some(EXIT_WINDOW_PANICKED));

    // The pre-existing output survived the contained panic...
    assert_eq!(
        std::fs::read_to_string(&out_path).expect("read output"),
        "precious bytes\n"
    );
    // ...and no uncommitted temp sibling was left behind.
    let tmp_prefix = format!(
        "{}.tmp.",
        out_path.file_name().expect("name").to_string_lossy()
    );
    let leaked: Vec<String> = std::fs::read_dir(out_path.parent().expect("parent"))
        .expect("scan temp dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with(&tmp_prefix))
        .collect();
    assert!(leaked.is_empty(), "leaked temp files {leaked:?}");
    let _ = std::fs::remove_file(&out_path);
}

#[test]
fn whole_set_runs_contain_panics_and_never_clobber_the_output() {
    // Without --window the set is one resident window, window 0: a
    // panic in its analysis or its fill exits 7 naming it, and a
    // pre-existing --output keeps its bytes with no temp sibling left.
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos());
    let dir = std::env::temp_dir();
    let name = format!("xfill-chaos-whole-{}-{nanos}.pat", std::process::id());
    let out_path = dir.join(&name);
    for spec in ["fill:0", "analyze:0"] {
        std::fs::write(&out_path, "precious bytes\n").expect("write output file");
        let run = run_xfill_env(
            &[
                "--order",
                "keep",
                "--fill",
                "dp",
                "--output",
                out_path.to_str().expect("utf-8 path"),
            ],
            INPUT,
            &[("DPFILL_CHAOS", spec)],
        );
        assert_eq!(
            run.code,
            Some(EXIT_WINDOW_PANICKED),
            "DPFILL_CHAOS={spec} stderr: {}",
            run.stderr
        );
        assert!(
            run.stderr.contains("worker panicked") && run.stderr.contains("window 0"),
            "DPFILL_CHAOS={spec} stderr: {}",
            run.stderr
        );
        assert_eq!(
            std::fs::read_to_string(&out_path).expect("read output"),
            "precious bytes\n",
            "DPFILL_CHAOS={spec} clobbered the output"
        );
        let leaked: Vec<String> = std::fs::read_dir(&dir)
            .expect("scan temp dir")
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(&format!("{name}.tmp.")))
            .collect();
        assert!(leaked.is_empty(), "DPFILL_CHAOS={spec} leaked {leaked:?}");
    }
    let _ = std::fs::remove_file(&out_path);
}

#[test]
fn killed_consumer_mid_emit_exits_typed_and_leaks_no_spool() {
    // A private TMPDIR so the spool-leak scan sees only this run.
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos());
    let tmpdir =
        std::env::temp_dir().join(format!("xfill-chaos-tmp-{}-{nanos}", std::process::id()));
    std::fs::create_dir(&tmpdir).expect("create private TMPDIR");

    // Big enough that pass 2's output overflows the pipe buffer after
    // the consumer is gone.
    let input = alternating_input(64, 4096);
    let mut child = Command::new(env!("CARGO_BIN_EXE_dpfill-xfill"))
        .args(["--order", "keep", "--window", "64"])
        .env("TMPDIR", &tmpdir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dpfill-xfill");
    child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("feed stdin");
    drop(child.stdin.take());
    // Read a little, then walk away: the next flush hits a closed pipe.
    let mut stdout = child.stdout.take().expect("piped stdout");
    let mut first = [0u8; 256];
    let _ = stdout.read_exact(&mut first);
    drop(stdout);
    let out = child.wait_with_output().expect("dpfill-xfill exit");

    assert_eq!(
        out.status.code(),
        Some(EXIT_OUTPUT),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The stdin spool in our private TMPDIR was cleaned on the error
    // path: a leak here is exactly the bug the drop guard prevents.
    let leaked: Vec<String> = std::fs::read_dir(&tmpdir)
        .expect("scan private TMPDIR")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("dpfill-xfill-") && n.ends_with(".pat"))
        .collect();
    assert!(leaked.is_empty(), "leaked spool files {leaked:?}");
    let _ = std::fs::remove_dir_all(&tmpdir);
}

#[test]
fn broken_trace_targets_warn_but_never_abort_the_fill() {
    let reference = run_xfill(&["--order", "keep", "--window", "2"], INPUT);
    assert_eq!(reference.code, Some(0), "stderr: {}", reference.stderr);

    // An unopenable target: the run warns and traces nothing.
    let run = run_xfill(
        &[
            "--order",
            "keep",
            "--window",
            "2",
            "--trace",
            "/nonexistent-dir/run.jsonl",
        ],
        INPUT,
    );
    assert_eq!(run.code, Some(0), "stderr: {}", run.stderr);
    assert_eq!(run.stdout, reference.stdout, "broken trace changed output");
    assert!(
        run.stderr.contains("warning: trace"),
        "stderr: {}",
        run.stderr
    );

    // A target that opens but cannot take bytes (disk full): the sink
    // detaches mid-run, the deferred error surfaces as a warning, and
    // the fill still succeeds byte-identically.
    if std::path::Path::new("/dev/full").exists() {
        let run = run_xfill(
            &["--order", "keep", "--window", "2", "--trace", "/dev/full"],
            INPUT,
        );
        assert_eq!(run.code, Some(0), "stderr: {}", run.stderr);
        assert_eq!(
            run.stdout, reference.stdout,
            "full trace sink changed output"
        );
        assert!(
            run.stderr.contains("warning: trace sink"),
            "stderr: {}",
            run.stderr
        );
    }
}

#[test]
fn budget_pressure_degrades_gracefully_and_reports_it() {
    // ~512 KiB of interval sites against a 1 MiB budget: the window
    // must shrink (visible under --stats) while the output stays
    // byte-identical to the monolithic run.
    let input = alternating_input(64, 512);
    let reference = run_xfill(&["--order", "keep"], &input);
    assert_eq!(reference.code, Some(0), "stderr: {}", reference.stderr);

    let run = run_xfill(
        &[
            "--order",
            "keep",
            "--memory-budget",
            "1",
            "--threads",
            "1",
            "--stats",
        ],
        &input,
    );
    assert_eq!(run.code, Some(0), "stderr: {}", run.stderr);
    assert_eq!(run.stdout, reference.stdout, "degradation changed output");
    assert!(
        run.stderr.contains("budget degradation"),
        "stderr: {}",
        run.stderr
    );

    // Four times the events cannot fit at any window size: typed
    // exhaustion, not an OOM kill or a thrash loop.
    let run = run_xfill(
        &["--order", "keep", "--memory-budget", "1", "--threads", "1"],
        &alternating_input(64, 4096),
    );
    assert_eq!(
        run.code,
        Some(EXIT_BUDGET_EXHAUSTED),
        "stderr: {}",
        run.stderr
    );
    assert!(
        run.stderr.contains("memory budget exhausted"),
        "stderr: {}",
        run.stderr
    );
}
