//! End-to-end check of the `DPFILL_SIMD` popcount-tier override on the
//! shipped binary: `swar` named a tier that no longer exists, so it is
//! an unknown value — one warning naming it, then auto-selection, with
//! the output bytes and the exit code of a run without the override.

use std::io::Write as _;
use std::process::{Command, Output, Stdio};

const INPUT: &str = "\
0XX1XXXX0X
XX1XXX0XXX
1XXXX0XX1X
XXX0XXXX0X
X1XXXXXX1X
XXXX1XX0XX
";

/// One monolithic single-thread run; `--stats` scores the peaks, so
/// the tier resolves, once, on the main thread.
fn run_xfill(simd: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dpfill-xfill"));
    cmd.args([
        "--order",
        "keep",
        "--fill",
        "dp",
        "--threads",
        "1",
        "--stats",
    ])
    .env_remove("DPFILL_SIMD")
    .stdin(Stdio::piped())
    .stdout(Stdio::piped())
    .stderr(Stdio::piped());
    if let Some(value) = simd {
        cmd.env("DPFILL_SIMD", value);
    }
    let mut child = cmd.spawn().expect("spawn dpfill-xfill");
    child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(INPUT.as_bytes())
        .expect("write input");
    child.wait_with_output().expect("dpfill-xfill exit")
}

#[test]
fn retired_swar_override_warns_once_and_matches_an_unset_run() {
    let unset = run_xfill(None);
    let swar = run_xfill(Some("swar"));
    assert_eq!(unset.status.code(), Some(0));
    assert_eq!(swar.status.code(), Some(0));
    assert_eq!(swar.stdout, unset.stdout, "output bytes drifted");
    let stderr = String::from_utf8(swar.stderr).expect("utf-8 stderr");
    let warnings: Vec<&str> = stderr
        .lines()
        .filter(|line| line.starts_with("warning: DPFILL_SIMD"))
        .collect();
    assert_eq!(warnings.len(), 1, "stderr: {stderr}");
    assert!(warnings[0].contains("\"swar\""), "stderr: {stderr}");
}
