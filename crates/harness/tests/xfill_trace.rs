//! End-to-end checks of the observability layer (`--trace`,
//! `--stats-json`, the aggregate table): tracing must never change the
//! output bytes or the exit code, diagnostics must stay on stderr with
//! stdout carrying only patterns, and the emitted artifacts must match
//! their documented schemas.

use std::io::Write as _;
use std::path::PathBuf;
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

/// A scratch path that cleans up on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        Scratch(
            std::env::temp_dir().join(format!("dpfill-trace-test-{}-{tag}", std::process::id())),
        )
    }

    fn as_str(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn tracing_never_changes_the_output_bytes() {
    for fill in ["dp", "mt", "adj"] {
        let (reference, _, ok) = run_xfill(&["--fill", fill, "--order", "keep"], INPUT);
        assert!(ok, "untraced --fill {fill} failed");
        for window in ["1", "64"] {
            for threads in ["1", "8"] {
                let trace = Scratch::new(&format!("ident-{fill}-{window}-{threads}.jsonl"));
                let (out, stderr, ok) = run_xfill(
                    &[
                        "--fill",
                        fill,
                        "--order",
                        "keep",
                        "--window",
                        window,
                        "--threads",
                        threads,
                        "--trace",
                        trace.as_str(),
                    ],
                    INPUT,
                );
                assert!(
                    ok,
                    "--fill {fill} --window {window} --threads {threads} --trace failed: {stderr}"
                );
                assert_eq!(
                    out, reference,
                    "--trace changed the output at --fill {fill} --window {window} \
                     --threads {threads}"
                );
                let text = std::fs::read_to_string(&trace.0).expect("trace written");
                assert!(!text.is_empty(), "trace file empty");
            }
        }
    }
}

#[test]
fn diagnostics_go_to_stderr_and_patterns_to_stdout() {
    // Both pipelines under --stats: stdout is exactly the header plus
    // pattern lines; every statistic, table, and diagnostic is stderr.
    for args in [
        &["--fill", "dp", "--order", "keep", "--stats"][..],
        &[
            "--fill", "dp", "--order", "keep", "--stats", "--window", "2",
        ][..],
    ] {
        let (out, stderr, ok) = run_xfill(args, INPUT);
        assert!(ok, "stderr: {stderr}");
        for line in out.lines() {
            assert!(
                line.starts_with('#') || line.chars().all(|c| c == '0' || c == '1'),
                "non-pattern line leaked to stdout: {line:?}"
            );
        }
        assert!(stderr.contains("peak toggles"), "stats on stderr: {stderr}");
        assert!(!out.contains("peak toggles"), "stats leaked to stdout");
    }
}

#[test]
fn trace_file_is_wellformed_jsonl_with_balanced_spans() {
    let trace = Scratch::new("schema.jsonl");
    let (_, stderr, ok) = run_xfill(
        &[
            "--fill",
            "dp",
            "--order",
            "keep",
            "--window",
            "2",
            "--trace",
            trace.as_str(),
        ],
        INPUT,
    );
    assert!(ok, "stderr: {stderr}");
    let text = std::fs::read_to_string(&trace.0).expect("trace written");
    let mut enters = 0u64;
    let mut exits = 0u64;
    let mut counters = 0u64;
    for line in text.lines() {
        assert!(
            line.starts_with("{\"ev\":\"") && line.ends_with('}'),
            "bad JSONL line: {line:?}"
        );
        if line.starts_with("{\"ev\":\"enter\"") {
            enters += 1;
            assert!(line.contains("\"id\":"), "{line:?}");
            assert!(line.contains("\"parent\":"), "{line:?}");
            assert!(line.contains("\"tid\":"), "{line:?}");
            assert!(line.contains("\"name\":"), "{line:?}");
        } else if line.starts_with("{\"ev\":\"exit\"") {
            exits += 1;
            assert!(line.contains("\"dur_ns\":"), "{line:?}");
        } else if line.starts_with("{\"ev\":\"counter\"") {
            counters += 1;
            assert!(line.contains("\"value\":"), "{line:?}");
        } else {
            panic!("unknown event: {line:?}");
        }
    }
    assert!(enters > 0, "no spans recorded");
    assert_eq!(enters, exits, "unbalanced spans");
    assert!(counters > 0, "no counters recorded");
    // The layers the tentpole threads through all show up.
    for name in [
        "stream.window.fill",
        "stream.solve",
        "stream.plan",
        "bcp.solve",
    ] {
        assert!(text.contains(name), "{name} missing from trace");
    }
}

#[test]
fn weighted_solve_traces_bound_search_and_color_under_bcp_solve() {
    // A weight table with non-unit weights routes the global solve
    // through the weighted engines, the only ones that run the
    // blocking search.
    let weights = Scratch::new("solve-spans.weights");
    std::fs::write(
        &weights.0,
        "5.0 0\n1.0 -\n1.0 -\n1.0 -\n9.0 1\n2.0 -\n1.0 -\n1.0 -\n1.0 -\n3.0 -\n",
    )
    .expect("write weights");
    let trace = Scratch::new("solve-spans.jsonl");
    let (_, stderr, ok) = run_xfill(
        &[
            "--objective",
            "weighted",
            "--weights",
            weights.as_str(),
            "--order",
            "keep",
            "--window",
            "2",
            "--trace",
            trace.as_str(),
        ],
        INPUT,
    );
    assert!(ok, "stderr: {stderr}");
    let text = std::fs::read_to_string(&trace.0).expect("trace written");
    let field = |line: &str, key: &str| -> String {
        let at = line
            .find(key)
            .unwrap_or_else(|| panic!("{key} missing: {line}"))
            + key.len();
        line[at..]
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '.')
            .collect()
    };
    let enters: Vec<(String, String, String)> = text
        .lines()
        .filter(|l| l.starts_with("{\"ev\":\"enter\""))
        .map(|l| {
            (
                field(l, "\"id\":"),
                field(l, "\"parent\":"),
                field(l, "\"name\":\""),
            )
        })
        .collect();
    let solve_ids: Vec<&String> = enters
        .iter()
        .filter(|(_, _, name)| name == "bcp.solve")
        .map(|(id, _, _)| id)
        .collect();
    assert_eq!(solve_ids.len(), 1, "one global solve: {text}");
    for child in ["bcp.bound", "bcp.search", "bcp.color"] {
        assert!(
            enters
                .iter()
                .any(|(_, parent, name)| name == child && parent == solve_ids[0]),
            "{child} missing under bcp.solve: {text}"
        );
    }
    // The weight table's preferences shift the coloring after the
    // solve, under the driver's solve span.
    let stream_solve: Vec<&String> = enters
        .iter()
        .filter(|(_, _, name)| name == "stream.solve")
        .map(|(id, _, _)| id)
        .collect();
    assert_eq!(stream_solve.len(), 1, "one driver solve: {text}");
    assert!(
        enters
            .iter()
            .any(|(_, parent, name)| name == "bcp.shift" && parent == stream_solve[0]),
        "bcp.shift missing under stream.solve: {text}"
    );
    assert!(
        text.contains("\"name\":\"bcp.probes\""),
        "probe counter: {text}"
    );
}

#[test]
fn stats_json_is_a_machine_readable_superset_of_stats() {
    let json_path = Scratch::new("stats.json");
    let (_, stderr, ok) = run_xfill(
        &[
            "--fill",
            "dp",
            "--order",
            "keep",
            "--window",
            "2",
            "--stats-json",
            json_path.as_str(),
        ],
        INPUT,
    );
    assert!(ok, "stderr: {stderr}");
    let text = std::fs::read_to_string(&json_path.0).expect("stats-json written");
    for key in [
        "\"report\"",
        "\"mode\": \"streaming\"",
        "\"cubes\": 8",
        "\"peak_toggles\"",
        "\"pass1_ns\"",
        "\"solve_ns\"",
        "\"pass2_ns\"",
        "\"counters\"",
        "\"spans\"",
        "\"histograms\"",
    ] {
        assert!(text.contains(key), "{key} missing from stats-json: {text}");
    }
    // The streamed report carries the baseline `--stats` prints, with
    // or without `--stats` on the command line.
    let (_, stats, ok) = run_xfill(
        &[
            "--fill", "dp", "--order", "keep", "--window", "2", "--stats",
        ],
        INPUT,
    );
    assert!(ok, "stderr: {stats}");
    let baseline = stats
        .split("0-fill(as-given) ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no baseline in --stats: {stats}"));
    assert!(
        text.contains(&format!("\"baseline_peak\": {baseline},")),
        "baseline_peak is not {baseline}: {text}"
    );

    // The monolithic pipeline writes its own (smaller) report.
    let mono = Scratch::new("stats-mono.json");
    let (_, stderr, ok) = run_xfill(
        &[
            "--fill",
            "dp",
            "--order",
            "keep",
            "--stats-json",
            mono.as_str(),
        ],
        INPUT,
    );
    assert!(ok, "stderr: {stderr}");
    let text = std::fs::read_to_string(&mono.0).expect("stats-json written");
    assert!(text.contains("\"mode\": \"monolithic\""), "{text}");
    assert!(text.contains("\"peak_toggles\""), "{text}");
}

/// The `--stats-json` report keys, in order: one schema for whole-set
/// and windowed runs.
const REPORT_KEYS: [&str; 17] = [
    "schema_version",
    "mode",
    "fill",
    "order",
    "cubes",
    "width",
    "x_count",
    "baseline_peak",
    "peak_toggles",
    "objective_peak",
    "windows",
    "window_cubes",
    "resident_peak_cubes",
    "degradations",
    "pass1_ns",
    "solve_ns",
    "pass2_ns",
];

#[test]
fn stats_json_report_has_one_versioned_schema() {
    for (tag, mode, args) in [
        (
            "whole",
            "monolithic",
            &["--fill", "dp", "--order", "interleave"][..],
        ),
        (
            "windowed",
            "streaming",
            &["--fill", "dp", "--order", "keep", "--window", "3"][..],
        ),
    ] {
        let path = Scratch::new(&format!("schema-{tag}.json"));
        let mut argv = args.to_vec();
        argv.extend(["--stats-json", path.as_str()]);
        let (_, stderr, ok) = run_xfill(&argv, INPUT);
        assert!(ok, "{tag}: {stderr}");
        let text = std::fs::read_to_string(&path.0).expect("stats-json written");
        let report = text
            .split("\"report\": {")
            .nth(1)
            .and_then(|rest| rest.split('}').next())
            .unwrap_or_else(|| panic!("{tag}: no report in {text}"));
        let keys: Vec<&str> = report
            .lines()
            .filter_map(|line| line.trim().strip_prefix('"')?.split('"').next())
            .collect();
        assert_eq!(keys, REPORT_KEYS, "{tag}: {text}");
        assert!(report.contains("\"schema_version\": 1,"), "{tag}: {text}");
        assert!(
            report.contains(&format!("\"mode\": \"{mode}\"")),
            "{tag}: {text}"
        );
    }
}

#[test]
fn whole_set_stats_list_the_driver_spans() {
    // A run without --window is the driver over one resident window:
    // its solve, fill and emit show up under their driver spans, and
    // the whole-set parse and the objective build before it are spanned
    // too.
    let (_, stderr, ok) = run_xfill(&["--fill", "dp", "--order", "keep", "--stats"], INPUT);
    assert!(ok, "stderr: {stderr}");
    for span in [
        "format.parse",
        "objective.build",
        "stream.solve",
        "stream.window.fill",
        "stream.window.emit",
    ] {
        assert!(stderr.contains(span), "{span} missing: {stderr}");
    }
}

#[test]
fn stats_prints_the_aggregate_table() {
    let (_, stderr, ok) = run_xfill(
        &[
            "--fill", "dp", "--order", "keep", "--stats", "--window", "2",
        ],
        INPUT,
    );
    assert!(ok, "stderr: {stderr}");
    // --stats alone (no --trace) enables the aggregate sink; the
    // per-span table lands on stderr after the classic stats lines.
    assert!(
        stderr.contains("stream.window.fill"),
        "aggregate table missing: {stderr}"
    );
    assert!(stderr.contains("bcp.ladder.loads"), "counters: {stderr}");
    // Ladder feeders add their load counts once per feed; the total
    // stays one load per interval site and per forced toggle the
    // analyzer finds: 8 on this input.
    let loads = stderr
        .lines()
        .find_map(|line| line.strip_prefix("bcp.ladder.loads"))
        .map(str::trim);
    assert_eq!(loads, Some("8"), "counters: {stderr}");
}

#[test]
fn the_interleave_search_traces_each_candidate_under_its_ordering_span() {
    for (tag, args) in [
        ("mono", &["--fill", "dp", "--order", "interleave"][..]),
        (
            "banded",
            &[
                "--fill",
                "dp",
                "--order",
                "interleave",
                "--window",
                "2",
                "--band",
                "2",
            ][..],
        ),
    ] {
        let trace = Scratch::new(&format!("search-{tag}.jsonl"));
        let mut argv = args.to_vec();
        argv.extend(["--trace", trace.as_str()]);
        let (_, stderr, ok) = run_xfill(&argv, INPUT);
        assert!(ok, "{tag}: {stderr}");
        let text = std::fs::read_to_string(&trace.0).expect("trace written");
        let number = |line: &str, key: &str| -> String {
            let at = line.find(key).unwrap_or_else(|| panic!("{key}: {line}")) + key.len();
            line[at..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect()
        };
        let order_ids: Vec<String> = text
            .lines()
            .filter(|l| l.contains("\"ev\":\"enter\"") && l.contains("\"name\":\"ordering.order\""))
            .map(|l| number(l, "\"id\":"))
            .collect();
        assert!(
            !order_ids.is_empty(),
            "{tag}: no ordering.order span: {text}"
        );
        let candidates: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"name\":\"ordering.candidate\""))
            .collect();
        assert!(!candidates.is_empty(), "{tag}: no ordering.candidate span");
        for line in candidates {
            if line.contains("\"ev\":\"enter\"") {
                assert!(
                    order_ids.contains(&number(line, "\"parent\":")),
                    "{tag}: candidate outside an ordering.order span: {line}"
                );
                assert!(
                    line.contains("\"k\":") && line.contains("\"cubes\":"),
                    "{line}"
                );
            } else {
                assert!(
                    line.contains("\"outcome\":\"certified\"")
                        || line.contains("\"outcome\":\"probed\""),
                    "{tag}: candidate exit without an outcome: {line}"
                );
                assert!(
                    line.contains("\"cubes_scanned\":"),
                    "{tag}: candidate exit without its scanned cubes: {line}"
                );
            }
        }
    }
}
