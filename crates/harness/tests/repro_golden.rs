//! Golden check of the paper harness: `dpfill-repro all --subset smoke`
//! prints every table and figure of the smoke suite, and its stdout must
//! equal the committed fixture byte for byte at 1 and 8 threads. A
//! refactor that moves any paper number fails here.
//!
//! The fixture was captured from the binary before the Fig. 2(c) tally
//! moved to the cube-major pass. If a change is meant to move the
//! numbers, regenerate it with
//!
//! ```sh
//! cargo run --release --bin dpfill-repro -- all --subset smoke \
//!     > crates/harness/tests/fixtures/repro_all_smoke.txt
//! ```
//!
//! and say why in the change.

use std::process::Command;

const FIXTURE: &str = include_str!("fixtures/repro_all_smoke.txt");

#[test]
fn smoke_tables_match_the_fixture_at_1_and_8_threads() {
    for threads in ["1", "8"] {
        let out = Command::new(env!("CARGO_BIN_EXE_dpfill-repro"))
            .args(["all", "--subset", "smoke"])
            .env("DPFILL_THREADS", threads)
            .output()
            .expect("spawn dpfill-repro");
        assert!(
            out.status.success(),
            "DPFILL_THREADS={threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        if stdout != FIXTURE {
            let line = stdout
                .lines()
                .zip(FIXTURE.lines())
                .position(|(got, want)| got != want)
                .unwrap_or_else(|| stdout.lines().count().min(FIXTURE.lines().count()));
            panic!(
                "DPFILL_THREADS={threads}: stdout differs from the fixture at line {}:\n got: {:?}\nwant: {:?}",
                line + 1,
                stdout.lines().nth(line),
                FIXTURE.lines().nth(line)
            );
        }
    }
}
