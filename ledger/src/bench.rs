//! One workload run: generate the seeded inputs, compute the in-process
//! reference, then either time the CLI (end-to-end metrics) or run the
//! traced in-process layers beside it (per-layer metrics). Every CLI
//! output is checked; a wrong one counts as a failed run.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::check::{self, Mapping};
use crate::cli;
use crate::layers::{self, Chain, Stream};
use crate::metrics::Samples;
use crate::stats::Summary;
use crate::workload::{generate, Order, Workload, MONO_STREAM_PROBE};

/// One-cube invocations behind `setup_s`, run after each measured run so
/// that they sample the host over the whole run rather than in one
/// burst; the median over all of them is reported.
const SETUP_RUNS_PER_SAMPLE: usize = 6;

pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run measured and whether it was right.
pub struct Outcome {
    pub workload: &'static Workload,
    /// JSON descriptions of the generated inputs.
    pub inputs: Vec<String>,
    pub attempted: usize,
    pub failed: usize,
    /// Why runs failed or references disagreed (first few).
    pub problems: Vec<String>,
    pub samples: Samples,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn problem(&mut self, what: String) {
        if self.problems.len() < 8 {
            eprintln!("ledger: {}: {what}", self.workload.name);
            self.problems.push(what);
        }
    }
}

/// What a correct CLI output must be.
struct Expect {
    output: Vec<u8>,
    /// Output position → input cube, when the in-process run knows it.
    perm: Option<Vec<usize>>,
    /// Unit objective: the certified lower bound. Weighted: the
    /// in-process run's peak.
    peak: u64,
    weighted_peak: Option<u64>,
    weights: Option<Vec<u64>>,
    /// How far a banded ordering may move a cube, when one ran.
    horizon: Option<usize>,
}

impl Expect {
    fn from_chain(c: &Chain) -> Expect {
        Expect {
            output: c.output.clone(),
            perm: Some(c.perm.clone()),
            peak: c.lower_bound,
            weighted_peak: None,
            weights: None,
            horizon: None,
        }
    }

    fn from_stream(w: &Workload, s: &Stream) -> Expect {
        Expect {
            output: s.output.clone(),
            perm: None,
            peak: s.report.peak_toggles as u64,
            weighted_peak: s.weights.as_ref().map(|_| s.report.objective_peak),
            weights: s.weights.clone(),
            // A cube moves ahead by at most the ring of `band` windows
            // plus the one being read; cubes held back longer are found
            // through the matcher's backlog.
            horizon: Some(w.window.unwrap_or(1) * (w.band.unwrap_or(2) + 1)),
        }
    }

    /// Checks `out` under `mapping` and compares the recounted peaks
    /// with the expected ones; returns (peak, objective peak).
    fn verify(
        &self,
        rows: &[&[u8]],
        out: &[u8],
        mapping: Mapping<'_>,
    ) -> Result<(u64, u64), String> {
        let r =
            check::check(rows, out, mapping, self.weights.as_deref()).map_err(|e| e.to_string())?;
        if r.peak != self.peak {
            return Err(format!(
                "recounted peak {} != expected {}",
                r.peak, self.peak
            ));
        }
        if r.weighted_peak != self.weighted_peak {
            return Err(format!(
                "recounted objective peak {:?} != expected {:?}",
                r.weighted_peak, self.weighted_peak
            ));
        }
        Ok((r.peak, r.weighted_peak.unwrap_or(r.peak)))
    }

    /// Checks the reference itself, with the full care-bit matching a
    /// banded output needs (too slow to repeat on every CLI sample,
    /// whose bytes are compared with this reference instead).
    fn verify_reference(&self, rows: &[&[u8]]) -> Result<(), String> {
        let mapping = match (self.horizon, &self.perm) {
            (Some(horizon), _) => Mapping::Search { horizon },
            (None, Some(perm)) => Mapping::Perm(perm),
            (None, None) => Mapping::Identity,
        };
        self.verify(rows, &self.output, mapping)
            .map(drop)
            .map_err(|e| format!("in-process reference: {e}"))
    }

    /// Checks one CLI output: the full check where it is cheap, and
    /// byte equality with the verified reference.
    fn verify_sample(&self, rows: &[&[u8]], out: &[u8]) -> Result<(u64, u64), String> {
        let mapping = match (self.horizon, &self.perm) {
            (Some(_), _) => Mapping::Unchecked,
            (None, Some(perm)) => Mapping::Perm(perm),
            (None, None) => Mapping::Identity,
        };
        let recount = self.verify(rows, out, mapping)?;
        if out != self.output.as_slice() {
            return Err("output bytes differ from the in-process run".to_owned());
        }
        Ok(recount)
    }
}

/// The banded workload's CLI output is the streamed run's; every other
/// workload's is the whole-set chain's, whose certified lower bound the
/// CLI's peak must meet.
fn streams_reference(w: &Workload) -> bool {
    w.window.is_some() && w.order == Order::Interleave
}

/// The reference for CLI outputs, from the one in-process run that
/// yields it.
fn reference(w: &Workload, input: &[u8]) -> Result<Expect, String> {
    if streams_reference(w) {
        let window = w.window.unwrap_or(1);
        Ok(Expect::from_stream(
            w,
            &layers::stream(w, window, w.band, input)?,
        ))
    } else {
        Ok(Expect::from_chain(&layers::chain(w, w.order, input)?))
    }
}

/// The in-process pair of runs: the chain replicates the monolithic CLI
/// run, the stream the streamed ones; the other is a probe that still
/// exercises every layer on the workload's input.
struct InProcess {
    chain: Chain,
    stream: Stream,
}

impl InProcess {
    fn run(w: &Workload, input: &[u8]) -> Result<InProcess, String> {
        let (chain_order, window, band) = match w.window {
            None => (w.order, MONO_STREAM_PROBE.0, Some(MONO_STREAM_PROBE.1)),
            // The banded permutation is not public, so the whole-set
            // probe of a streamed workload keeps arrival order.
            Some(window) => (Order::Keep, window, w.band),
        };
        Ok(InProcess {
            chain: layers::chain(w, chain_order, input)?,
            stream: layers::stream(w, window, band, input)?,
        })
    }

    fn expect(&self, w: &Workload) -> Expect {
        if streams_reference(w) {
            Expect::from_stream(w, &self.stream)
        } else {
            Expect::from_chain(&self.chain)
        }
    }

    /// (wall, timed layer calls, objective build) of the run that
    /// replicates the CLI's.
    fn replica(&self, w: &Workload) -> (f64, f64, f64) {
        match w.window {
            None => (
                self.chain.times.wall,
                self.chain.times.layers(),
                self.chain.times.objective,
            ),
            Some(_) => (
                self.stream.wall_s,
                self.stream.layers(),
                self.stream.objective_s,
            ),
        }
    }

    /// The two runs must agree: byte for byte where they compute the
    /// same fill (a whole-set band is the global ordering, and keep
    /// order streams what the chain fills); the banded workload's
    /// keep-order chain is checked on its own.
    fn consistent(&self, w: &Workload, rows: &[&[u8]]) -> Result<(), String> {
        if !streams_reference(w) {
            return if self.chain.output == self.stream.output {
                Ok(())
            } else {
                Err("in-process chain and stream outputs differ".to_owned())
            };
        }
        let c = &self.chain;
        let r = check::check(
            rows,
            &c.output,
            Mapping::Identity,
            self.stream.weights.as_deref(),
        )
        .map_err(|e| format!("whole-set chain: {e}"))?;
        if (r.peak, r.weighted_peak) != (c.peak, c.weighted_peak) {
            return Err(format!(
                "whole-set chain scored ({}, {:?}), recounted ({}, {:?})",
                c.peak, c.weighted_peak, r.peak, r.weighted_peak
            ));
        }
        Ok(())
    }

    fn push(&self, w: &Workload, input_bytes: usize, s: &mut Samples) {
        let c = &self.chain;
        let t = &c.times;
        let mb = |bytes: usize, secs: f64| bytes as f64 / 1e6 / secs;
        s.push("format.parse_s", t.parse);
        s.push("format.parse_mb_s", mb(input_bytes, t.parse));
        s.push("format.emit_s", t.emit);
        s.push("format.emit_mb_s", mb(c.output.len(), t.emit));
        s.push("ordering.order_s", t.order);
        s.push("ordering.reorder_s", t.reorder);
        s.push("mapping.analyze_s", t.analyze);
        s.push("mapping.intervals", c.intervals as f64);
        s.push("mapping.forced_toggles", c.forced_toggles as f64);
        s.push("bcp.solve_s", t.solve);
        s.push("bcp.shift_s", t.shift);
        s.push("bcp.lower_bound", c.lower_bound as f64);
        s.push(
            "bcp.gap",
            c.verified_peak.saturating_sub(c.lower_bound) as f64,
        );
        s.push("fill.apply_s", t.apply);
        s.push("score.peak_s", t.score);
        let st = &self.stream;
        let r = &st.report;
        s.push("stream.run_s", st.run_s);
        s.push("stream.read_s", st.read_s);
        s.push("stream.write_s", st.write_s);
        s.push("stream.pass1_s", r.pass1_ns as f64 * 1e-9);
        s.push("stream.solve_s", r.solve_ns as f64 * 1e-9);
        s.push("stream.pass2_s", r.pass2_ns as f64 * 1e-9);
        s.push("stream.resident_peak_cubes", r.resident_peak_cubes as f64);
        s.push("stream.windows", r.windows as f64);
        let (wall, layers, objective) = self.replica(w);
        s.push("objective.table_s", objective);
        s.push("trace.unattributed_s", (wall - layers).max(0.0));
    }
}

/// Runs one workload under `cfg`. `Err` means the benchmark itself
/// could not run (a file could not be written, a library call failed);
/// wrong CLI outputs are counted in the outcome instead.
pub fn run(w: &'static Workload, exe: &Path, work: &Path, cfg: &Config) -> Result<Outcome, String> {
    let dir = work.join(format!("{}-{}", w.name, cfg.seed));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let input = generate(w.cubes, w.width, w.cares, cfg.seed);
    let one = generate(1, w.width, w.cares, cfg.seed);
    let input_path = write(&dir, "input.pat", &input.text)?;
    let one_path = write(&dir, "setup.pat", &one.text)?;
    let out_path = dir.join("output.pat");
    let mut o = Outcome {
        workload: w,
        inputs: vec![input.to_json("main"), one.to_json("setup")],
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        samples: Samples::default(),
    };
    let rows = check::rows(&input.text);
    let mut args = w.cli_args();
    args.extend([
        "--output".to_owned(),
        path_arg(&out_path)?,
        path_arg(&input_path)?,
    ]);

    if !cfg.trace {
        let start = Instant::now();
        let expect = reference(w, &input.text)?;
        eprintln!(
            "ledger: {}: in-process reference in {:.2} s",
            w.name,
            start.elapsed().as_secs_f64()
        );
        let start = Instant::now();
        if let Err(e) = expect.verify_reference(&rows) {
            o.problem(e);
        }
        eprintln!(
            "ledger: {}: reference checked in {:.2} s",
            w.name,
            start.elapsed().as_secs_f64()
        );
        let mut setup_args = w.cli_args();
        setup_args.extend([
            "--output".to_owned(),
            path_arg(&out_path)?,
            path_arg(&one_path)?,
        ]);
        let one_rows = check::rows(&one.text);
        let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
        loop {
            if let Some((peak, objective_peak)) =
                measured_sample(&mut o, exe, &args, &out_path, &rows, &expect)
            {
                o.samples.push("peak_toggles", peak as f64);
                o.samples.push("objective_peak", objective_peak as f64);
            }
            for _ in 0..SETUP_RUNS_PER_SAMPLE {
                if let Some(usage) = cli_sample(&mut o, exe, &setup_args, &out_path, |out| {
                    check::check(&one_rows, out, Mapping::Identity, None)
                        .map(drop)
                        .map_err(|e| e.to_string())
                }) {
                    o.samples.push("setup_s", usage.wall_s);
                }
            }
            if Instant::now() >= deadline {
                break;
            }
        }
    } else {
        let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
        let mut expect: Option<Expect> = None;
        let mut replica_walls = Vec::new();
        let mut cli_walls = Vec::new();
        loop {
            let traced = InProcess::run(w, &input.text)?;
            if let Err(e) = traced.consistent(w, &rows) {
                o.problem(e);
            }
            let round = traced.expect(w);
            match &expect {
                None => {
                    if let Err(e) = round.verify_reference(&rows) {
                        o.problem(e);
                    }
                    expect = Some(round);
                }
                Some(e) if e.output != round.output => {
                    o.problem("in-process output changed between rounds".to_owned());
                }
                Some(_) => {}
            }
            traced.push(w, input.text.len(), &mut o.samples);
            replica_walls.push(traced.replica(w).0);
            drop(traced);
            let e = expect.as_ref().expect("set by the first round");
            if measured_sample(&mut o, exe, &args, &out_path, &rows, e).is_some() {
                cli_walls.extend(o.samples.get("wall_s").and_then(<[f64]>::last));
            }
            if Instant::now() >= deadline {
                break;
            }
        }
        if !cli_walls.is_empty() {
            o.samples.push(
                "trace.overhead_ratio",
                Summary::of(&replica_walls).median / Summary::of(&cli_walls).median,
            );
        }
    }
    let _ = std::fs::remove_file(&out_path);
    Ok(o)
}

/// One timed CLI run on the full input, checked against `expect`.
/// Returns the recounted (peak, objective peak) when the output is
/// right.
fn measured_sample(
    o: &mut Outcome,
    exe: &Path,
    args: &[String],
    out_path: &Path,
    rows: &[&[u8]],
    expect: &Expect,
) -> Option<(u64, u64)> {
    let mut recount = None;
    let usage = cli_sample(o, exe, args, out_path, |out| {
        recount = Some(expect.verify_sample(rows, out)?);
        Ok(())
    })?;
    o.samples.push("wall_s", usage.wall_s);
    o.samples.push("cpu_s", usage.cpu_s);
    o.samples.push("peak_rss_mb", usage.peak_rss_mb);
    recount
}

/// Runs the CLI once and checks its output file with `verify`. Counts
/// the attempt, and a failure on a spawn error, a non-zero exit or a
/// rejected output. Returns the usage of a successful run.
fn cli_sample(
    o: &mut Outcome,
    exe: &Path,
    args: &[String],
    out_path: &Path,
    verify: impl FnOnce(&[u8]) -> Result<(), String>,
) -> Option<cli::Usage> {
    o.attempted += 1;
    let _ = std::fs::remove_file(out_path);
    let verdict = cli::run(exe, args)
        .map_err(|e| format!("cannot run the CLI: {e}"))
        .and_then(|usage| match usage.code {
            Some(0) => Ok(usage),
            code => Err(format!("CLI exited with {code:?}")),
        })
        .and_then(|usage| {
            let out = std::fs::read(out_path).map_err(|e| format!("no output: {e}"))?;
            verify(&out).map(|()| usage)
        });
    match verdict {
        Ok(usage) => Some(usage),
        Err(why) => {
            o.failed += 1;
            o.problem(why);
            None
        }
    }
}

fn write(dir: &Path, name: &str, bytes: &[u8]) -> Result<PathBuf, String> {
    let path = dir.join(name);
    std::fs::write(&path, bytes).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

fn path_arg(path: &Path) -> Result<String, String> {
    path.to_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("{} is not UTF-8", path.display()))
}
