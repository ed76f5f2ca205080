//! `dpfill-ledger` — the repository's performance ledger for
//! `dpfill-xfill`.
//!
//! ```text
//! cargo run --release --manifest-path ledger/Cargo.toml -- \
//!     --workload NAME|all [--seed N] [--seconds S] [--trace 0|1] [--results FILE]
//! cargo run --release --manifest-path ledger/Cargo.toml -- --compare BASE.json HEAD.json
//! ```
//!
//! A run builds the release CLI from this checkout, generates the
//! workload's inputs from `--seed` (the `examples/gen_patterns` logic),
//! and computes an in-process reference. With `--trace 0` it then runs
//! the CLI as a child process, one at a time (a closed loop with one
//! client, the shape of a batch fill job), for `--seconds`, and reports
//! the end-to-end metrics; with `--trace 1` it alternates the traced
//! in-process layer runs with CLI runs and reports the per-layer
//! metrics. Every CLI output is checked by code that does not call the
//! library. The last stdout line is one JSON object; the full summary
//! (quartiles, sample counts, input digests, host) goes to a result
//! file under `ledger/work/results/`, which `--compare` reads.
//!
//! Exit code: 0 when every output was right (compare: no regression),
//! 1 when one was wrong (compare: a metric regressed), 2 when the
//! benchmark itself could not run.

mod bench;
mod check;
mod cli;
mod compare;
mod json;
mod layers;
mod metrics;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bench::{Config, Outcome};
use metrics::{MetricDef, END_TO_END, PER_LAYER};
use stats::Summary;
use workload::{Workload, WORKLOADS};

/// Worker threads of the CLI (`--threads`) and of the in-process pool.
pub const THREADS: usize = 2;

/// The checkout this benchmark belongs to.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// Scratch space for inputs, outputs and result files.
fn work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("work")
}

struct Args {
    workloads: Vec<&'static Workload>,
    cfg: Config,
    results: Option<PathBuf>,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut out = Args {
        workloads: Vec::new(),
        cfg: Config {
            seed: 1,
            seconds: 10.0,
            trace: false,
        },
        results: None,
        compare: None,
    };
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                out.workloads = if name == "all" {
                    WORKLOADS.iter().collect()
                } else {
                    vec![Workload::by_name(&name).ok_or(format!("unknown workload {name:?}"))?]
                };
            }
            "--seed" => out.cfg.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                out.cfg.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
            }
            "--trace" => {
                out.cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--results" => out.results = Some(PathBuf::from(value()?)),
            "--compare" => out.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if out.workloads.is_empty() && out.compare.is_none() {
        return Err("pass --workload NAME|all or --compare BASE HEAD".to_owned());
    }
    Ok(out)
}

fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    format!(
        "{{\"nproc\": {nproc}, \"avx2\": {avx2}, \"cli_threads\": {THREADS}, \"os\": \"{}\", \"arch\": \"{}\"}}",
        std::env::consts::OS,
        std::env::consts::ARCH
    )
}

/// The metrics a run reports: end-to-end untraced, per-layer traced.
fn catalog(trace: bool) -> &'static [MetricDef] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// The summary of a metric's samples; `None` when every run that would
/// have measured it failed.
fn median(o: &Outcome, name: &str) -> Option<Summary> {
    o.samples.get(name).map(Summary::of)
}

fn results_json(cfg: &Config, outcomes: &[Outcome]) -> String {
    let mut doc = format!(
        "{{\n  \"host\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"workloads\": {{",
        host_json(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    for (i, o) in outcomes.iter().enumerate() {
        let mut metrics = Vec::new();
        for (name, unit, _) in catalog(cfg.trace) {
            if let Some(s) = median(o, name) {
                metrics.push(format!(
                    "\n        {}: {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"unit\": {}}}",
                    json::quote(name),
                    finite(s.median),
                    finite(s.q1),
                    finite(s.q3),
                    s.n,
                    json::quote(unit)
                ));
            }
        }
        let problems: Vec<String> = o.problems.iter().map(|p| json::quote(p)).collect();
        doc.push_str(&format!(
            "{}\n    {}: {{\n      \"why\": {},\n      \"inputs\": [{}],\n      \"cli_args\": [{}],\n      \
             \"attempted\": {}, \"failed\": {}, \"fail_ratio\": {},\n      \"problems\": [{}],\n      \
             \"metrics\": {{{}\n      }}\n    }}",
            if i == 0 { "" } else { "," },
            json::quote(o.workload.name),
            json::quote(o.workload.why),
            o.inputs.join(", "),
            o.workload
                .cli_args()
                .iter()
                .map(|a| json::quote(a))
                .collect::<Vec<_>>()
                .join(", "),
            o.attempted,
            o.failed,
            o.failed as f64 / o.attempted.max(1) as f64,
            problems.join(", "),
            metrics.join(",")
        ));
    }
    doc.push_str("\n  }\n}\n");
    doc
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// The human-readable table: every metric by name, with its unit.
fn print_table(cfg: &Config, o: &Outcome) {
    println!(
        "{}: attempted {}, failed {}, fail_ratio {:.3}",
        o.workload.name,
        o.attempted,
        o.failed,
        o.failed as f64 / o.attempted.max(1) as f64
    );
    for (name, unit, _) in catalog(cfg.trace) {
        match median(o, name) {
            Some(s) => println!(
                "  {name:<28} {:>16.6} {unit:<8} (q1 {:.6}, q3 {:.6}, iqr {:.1}%, n {})",
                s.median,
                s.q1,
                s.q3,
                100.0 * s.spread(),
                s.n
            ),
            None => println!("  {name:<28} {:>16} {unit:<8}", "-"),
        }
    }
}

/// The machine-readable last line: medians of the run's metrics, keyed by
/// name (prefixed by workload when several ran).
fn summary_line(cfg: &Config, outcomes: &[Outcome]) -> String {
    let mut metrics = Vec::new();
    for o in outcomes {
        for (name, unit, _) in catalog(cfg.trace) {
            let value = median(o, name).map_or(0.0, |s| finite(s.median));
            let key = if outcomes.len() == 1 {
                (*name).to_owned()
            } else {
                format!("{}/{name}", o.workload.name)
            };
            metrics.push(format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json::quote(&key),
                json::quote(unit)
            ));
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcomes.iter().all(Outcome::correct),
        outcomes.iter().map(|o| o.attempted).sum::<usize>().max(1),
        outcomes.iter().map(|o| o.failed).sum::<usize>(),
        metrics.join(", ")
    )
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    if let Some((base, head)) = &args.compare {
        let path = repo_root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let benchmark = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let (table, regressed) = compare::compare(base, head, &benchmark)?;
        print!("{table}");
        return Ok(!regressed);
    }
    // The library reads these too; the in-process runs must see the
    // same defaults as the CLI child, whose environment is cleared.
    for var in cli::dpfill_env_vars() {
        std::env::remove_var(var);
    }
    minipool::set_global_threads(THREADS)
        .map_err(|n| format!("thread pool already running with {n} threads"))?;
    let exe = cli::build(&repo_root())?;
    let work = work_dir();
    let mut outcomes = Vec::new();
    println!("host {}", host_json());
    for &w in &args.workloads {
        let o = bench::run(w, &exe, &work, &args.cfg)?;
        for input in &o.inputs {
            println!("{} input {input}", w.name);
        }
        print_table(&args.cfg, &o);
        outcomes.push(o);
    }
    let results = args.results.unwrap_or_else(|| {
        let name = match args.workloads.as_slice() {
            [w] => w.name,
            _ => "all",
        };
        work.join("results").join(format!(
            "{name}-seed{}-trace{}.json",
            args.cfg.seed,
            u8::from(args.cfg.trace)
        ))
    });
    if let Some(parent) = results.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    std::fs::write(&results, results_json(&args.cfg, &outcomes))
        .map_err(|e| format!("cannot write {}: {e}", results.display()))?;
    println!("results written to {}", results.display());
    println!("{}", summary_line(&args.cfg, &outcomes));
    // A wrong output exits 1, as a regression does in compare mode.
    Ok(outcomes.iter().all(Outcome::correct))
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark() -> json::Value {
        let path = repo_root().join("BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    #[test]
    fn every_printed_metric_is_declared_in_benchmark_json() {
        let doc = benchmark();
        for (key, catalog) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared = doc.get(key).unwrap().as_array();
            assert_eq!(declared.len(), catalog.len(), "{key} count");
            for (name, unit, lower) in catalog {
                let entry = declared
                    .iter()
                    .find(|m| m.get("name").and_then(json::Value::as_str) == Some(name))
                    .unwrap_or_else(|| panic!("{name} missing from BENCHMARK.json {key}"));
                assert_eq!(
                    entry.get("unit").and_then(json::Value::as_str),
                    Some(*unit),
                    "{name}"
                );
                let better = if *lower { "lower" } else { "higher" };
                assert_eq!(
                    entry.get("better").and_then(json::Value::as_str),
                    Some(better),
                    "{name}"
                );
            }
        }
        let workloads = doc.get("workloads").unwrap().as_array();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for w in &WORKLOADS {
            let entry = workloads
                .iter()
                .find(|e| e.get("name").and_then(json::Value::as_str) == Some(w.name))
                .unwrap_or_else(|| panic!("{} missing from BENCHMARK.json", w.name));
            assert_eq!(entry.get("why").and_then(json::Value::as_str), Some(w.why));
        }
    }

    #[test]
    fn summary_line_carries_exactly_the_catalog() {
        for trace in [false, true] {
            let cfg = Config {
                seed: 1,
                seconds: 1.0,
                trace,
            };
            let mut o = Outcome {
                workload: &WORKLOADS[0],
                inputs: Vec::new(),
                attempted: 2,
                failed: 0,
                problems: Vec::new(),
                samples: metrics::Samples::default(),
            };
            for (name, _, _) in catalog(trace) {
                o.samples.push(name, 1.5);
            }
            let line = json::parse(&summary_line(&cfg, &[o])).unwrap();
            let keys: Vec<&String> = line
                .get("metrics")
                .unwrap()
                .entries()
                .map(|(k, _)| k)
                .collect();
            assert_eq!(keys.len(), catalog(trace).len());
            assert_eq!(line.get("correct"), Some(&json::Value::Bool(true)));
        }
    }
}
