//! `dpfill-xfill` — apply a test-vector ordering and an X-fill to a
//! pattern file.
//!
//! The adoption-path tool: feed it the cube dump of any ATPG flow (one
//! `01X` string per line, `#` comments) and get back fully specified
//! patterns with minimized peak toggles.
//!
//! ```text
//! dpfill-xfill [OPTIONS] [INPUT]
//!
//!   INPUT                 pattern file ('-' or absent: stdin)
//!   --fill METHOD         dp|b|xstat|adj|mt|0|1|random   (default: dp)
//!   --order METHOD        keep|interleave|xstat|isa      (default: interleave)
//!   --threads N           fan the analyze/fill pipeline over N threads
//!                         (0 or absent: DPFILL_THREADS env, else one
//!                         thread per core; output is identical at any N)
//!   --window CUBES        bound memory: run the pipeline over windows of
//!                         CUBES cubes. interleave/xstat orderings run
//!                         *banded* (see --band); --order keep is
//!                         byte-identical to the whole-set run, and a
//!                         band covering the whole set is byte-identical
//!                         to the whole-set ordered run
//!   --memory-budget MB    like --window, but derive the window size
//!                         from a resident-memory budget in MiB
//!   --band B              lookahead of the banded orderings: a ring of
//!                         B windows is held resident and re-ordered
//!                         before windows freeze out (default: 2; needs
//!                         --window or --memory-budget and an ordering)
//!   --objective OBJ       peak-toggles|weighted|leakage|ir-drop
//!                         (default: peak-toggles — the paper's metric,
//!                         byte-identical to builds without the flag).
//!                         weighted needs --weights; leakage/ir-drop
//!                         derive their tables from --circuit (or
//!                         --weights), falling back to synthetic models
//!                         in whole-set runs
//!   --weights FILE        per-pin weight table (one line per pin:
//!                         `WEIGHT [0|1|-]`, `#` comments); supplies or
//!                         overrides the objective's physical model
//!   --circuit NAME        ITC'99 benchmark (b01..b22) whose synthetic
//!                         netlist powers the leakage/ir-drop models
//!   --output FILE         write here instead of stdout
//!   --stats               print peak/ordering statistics to stderr
//!   --trace FILE          write a JSONL span/counter trace of the run
//!                         (one event per line; see the README's
//!                         "Observability" section for the schema)
//!   --stats-json FILE     write a machine-readable superset of --stats
//!                         (report fields + per-span aggregates +
//!                         counter totals) as JSON
//! ```
//!
//! There is one pipeline, the streaming driver
//! ([`StreamingFill`]): analyze → solve → fill → score → emit, window
//! by window. Without `--window`/`--memory-budget` the input is read
//! once and the whole set is its one resident window
//! ([`StreamingFill::run_resident`]): global orderings and the
//! whole-set B- and XStat-fills run there. With either flag the input
//! is streamed in bounded windows (and stdin spooled when the fill
//! reads it twice). Both runs share the `--output` sink, the exit
//! codes, the `--stats` lines and the `--stats-json` report.
//!
//! All diagnostics — `--stats`, the aggregate trace table, warnings —
//! go to **stderr**; stdout carries only the filled patterns. Tracing
//! never changes the output bytes or the exit code: a full disk or a
//! broken `--trace`/`--stats-json` target degrades to a typed warning
//! on stderr while the fill completes normally.
//!
//! # Exit codes
//!
//! Every failure class exits with its own code (see the README's
//! "Error model & robustness" table): 2 usage/unsupported
//! configuration, 3 input I/O, 4 malformed input, 5 output write,
//! 6 source changed between passes, 7 contained worker panic,
//! 8 memory budget exhausted, 9 arithmetic overflow, 10 no patterns,
//! 11 solver failure, 12 invalid weight table, 70 escaped-panic
//! backstop.
//!
//! The `DPFILL_CHAOS` environment variable (`fill:N`, `analyze:N`, or
//! both comma-separated) makes every run panic inside the worker of
//! 0-based window `N` (a whole-set run has only window 0) — the
//! fault-injection hook behind the chaos suite, proving panics are
//! contained as exit 7, not crashes.
//!
//! Example:
//!
//! ```sh
//! dpfill-repro table1 --csv /tmp/csv   # (any cube source)
//! dpfill-xfill cubes.pat --fill dp --order interleave --stats > filled.pat
//! dpfill-xfill huge.pat --fill dp --order keep --window 1024 > filled.pat
//! ```

use std::io::{BufWriter, Write};
use std::panic::catch_unwind;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dpfill_core::fill::{DpFillError, FillErrorSource, FillMethod};
use dpfill_core::ordering::BandedMethod;
use dpfill_core::stream::{
    BandedOrder, ChaosPlan, StreamError, StreamOptions, StreamReport, StreamingFill, WindowSpec,
};
use dpfill_core::{FillObjective, ObjectiveError, ObjectiveKind, WeightTable};
use dpfill_cubes::format::{self, PatternError};
use dpfill_cubes::retry::{self, RetryReader, RetryWriter};
use dpfill_cubes::{Bit, CubeSet};
use dpfill_netlist::CombView;
use dpfill_power::{input_switch_caps, CapacitanceModel, GridModel, LeakageModel, PowerConfig};
use minitrace::json_string;

/// The process exit codes, one per failure class. Scripts driving huge
/// fill jobs dispatch on these (retry transient I/O, page on solver
/// bugs, raise the budget on 8) without parsing diagnostics.
mod exit {
    /// Bad arguments or a configuration bounded windows cannot honor.
    pub const USAGE: u8 = 2;
    /// Opening or reading the pattern input failed.
    pub const INPUT_IO: u8 = 3;
    /// A pattern line failed to parse (bad character, ragged width, or
    /// a non-UTF-8 byte outside a comment).
    pub const MALFORMED: u8 = 4;
    /// Writing the filled patterns failed (disk full, broken pipe).
    pub const OUTPUT: u8 = 5;
    /// The input returned different content on the second pass (a
    /// different shape, or changed care bits the pass-1 plan would
    /// overwrite).
    pub const SOURCE_CHANGED: u8 = 6;
    /// A worker panicked; the panic was contained at its window.
    pub const WINDOW_PANICKED: u8 = 7;
    /// `--memory-budget` degraded to one-cube windows and still ran out.
    pub const BUDGET_EXHAUSTED: u8 = 8;
    /// Window/budget arithmetic overflowed instead of silently wrapping.
    pub const OVERFLOW: u8 = 9;
    /// The input held no patterns.
    pub const NO_PATTERNS: u8 = 10;
    /// The global BCP solve failed, its coloring missed the lower bound
    /// it certified, or a whole-set run's fill is not a filling of its
    /// input (a solver or fill bug, never expected).
    pub const SOLVE: u8 = 11;
    /// The weight table behind `--objective`/`--weights` is invalid
    /// (parse error, zero/non-finite weight, width mismatch with the
    /// patterns).
    pub const BAD_WEIGHTS: u8 = 12;
    /// A panic escaped all containment — the `main` backstop (EX_SOFTWARE).
    pub const PANIC: u8 = 70;
}

/// A diagnosed failure: one message for stderr, one exit code for the
/// caller.
struct CliError {
    code: u8,
    message: String,
}

impl CliError {
    fn new(code: u8, message: impl Into<String>) -> CliError {
        CliError {
            code,
            message: message.into(),
        }
    }

    fn usage(message: impl Into<String>) -> CliError {
        CliError::new(exit::USAGE, message)
    }
}

/// Maps a pipeline failure to its exit code; `label` names the input
/// source in the diagnostic.
fn stream_error(label: &str, e: &StreamError) -> CliError {
    let code = match e {
        StreamError::Open(_) | StreamError::Pattern(PatternError::Io(_)) => exit::INPUT_IO,
        StreamError::Pattern(PatternError::Cube(_)) => exit::MALFORMED,
        StreamError::Write(_) => exit::OUTPUT,
        StreamError::Solve(e) => dp_fill_error_code(e),
        StreamError::UnsupportedFill(_) => exit::USAGE,
        StreamError::Order(_) | StreamError::NotAFilling { .. } => exit::SOLVE,
        StreamError::SourceChanged { .. } | StreamError::ContentChanged { .. } => {
            exit::SOURCE_CHANGED
        }
        StreamError::WindowPanicked { .. } => exit::WINDOW_PANICKED,
        StreamError::BudgetExhausted { .. } => exit::BUDGET_EXHAUSTED,
        StreamError::Overflow { .. } => exit::OVERFLOW,
    };
    CliError::new(code, format!("{label}: {e}"))
}

/// Maps a DP-fill failure to its exit code: a bad weight table is the
/// caller's error (12) — except a weighted overflow, which joins the
/// window-arithmetic class (9) — and anything else is the solve's (11),
/// including a coloring that missed its certified optimal peak.
fn dp_fill_error_code(e: &DpFillError) -> u8 {
    match &e.source {
        FillErrorSource::Objective(ObjectiveError::Overflow { .. }) => exit::OVERFLOW,
        FillErrorSource::Objective(_) => exit::BAD_WEIGHTS,
        _ => exit::SOLVE,
    }
}

struct Options {
    input: Option<String>,
    output: Option<String>,
    fill: FillMethod,
    /// `None` keeps the input order.
    order: Option<BandedMethod>,
    threads: Option<usize>,
    window: Option<usize>,
    memory_budget: Option<usize>,
    band: Option<usize>,
    objective: ObjectiveKind,
    weights: Option<String>,
    circuit: Option<String>,
    stats: bool,
    trace: Option<String>,
    stats_json: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        input: None,
        output: None,
        fill: FillMethod::Dp,
        order: Some(BandedMethod::Interleave),
        threads: None,
        window: None,
        memory_budget: None,
        band: None,
        objective: ObjectiveKind::PeakToggles,
        weights: None,
        circuit: None,
        stats: false,
        trace: None,
        stats_json: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fill" => {
                opts.fill = match args.next().as_deref() {
                    Some("dp") => FillMethod::Dp,
                    Some("b") => FillMethod::B,
                    Some("xstat") => FillMethod::XStat,
                    Some("adj") => FillMethod::Adj,
                    Some("mt") => FillMethod::Mt,
                    Some("0") => FillMethod::Zero,
                    Some("1") => FillMethod::One,
                    Some("random") => FillMethod::Random(0xF111),
                    other => return Err(format!("unknown --fill {other:?}")),
                };
            }
            "--order" => {
                opts.order = match args.next().as_deref() {
                    Some("keep") => None,
                    Some("interleave") => Some(BandedMethod::Interleave),
                    Some("xstat") => Some(BandedMethod::XStat),
                    Some("isa") => Some(BandedMethod::Isa(0x15A)),
                    other => return Err(format!("unknown --order {other:?}")),
                };
            }
            "--threads" => opts.threads = Some(count(&arg, args.next(), "count", None)?),
            "--window" => {
                opts.window = Some(count(&arg, args.next(), "cube count", Some("one cube"))?);
            }
            "--memory-budget" => {
                opts.memory_budget = Some(count(&arg, args.next(), "size in MiB", Some("1 MiB"))?);
            }
            "--band" => {
                opts.band = Some(count(
                    &arg,
                    args.next(),
                    "window count",
                    Some("one window"),
                )?);
            }
            "--objective" => {
                opts.objective = match args.next().as_deref() {
                    Some("peak-toggles") => ObjectiveKind::PeakToggles,
                    Some("weighted") => ObjectiveKind::Weighted,
                    Some("leakage") => ObjectiveKind::Leakage,
                    Some("ir-drop") => ObjectiveKind::IrDrop,
                    other => return Err(format!("unknown --objective {other:?}")),
                };
            }
            "--weights" => {
                opts.weights = Some(args.next().ok_or("--weights needs a path")?);
            }
            "--circuit" => {
                opts.circuit = Some(args.next().ok_or("--circuit needs a benchmark name")?);
            }
            "--output" => {
                opts.output = Some(args.next().ok_or("--output needs a path")?);
            }
            "--stats" => opts.stats = true,
            "--trace" => {
                opts.trace = Some(args.next().ok_or("--trace needs a path")?);
            }
            "--stats-json" => {
                opts.stats_json = Some(args.next().ok_or("--stats-json needs a path")?);
            }
            "--help" | "-h" => {
                println!(
                    "dpfill-xfill: order + X-fill a pattern file\n\
                     usage: dpfill-xfill [--fill dp|b|xstat|adj|mt|0|1|random]\n\
                     \u{20}      [--order keep|interleave|xstat|isa] [--threads N]\n\
                     \u{20}      [--window CUBES | --memory-budget MB] [--band B]\n\
                     \u{20}      [--objective peak-toggles|weighted|leakage|ir-drop]\n\
                     \u{20}      [--weights FILE] [--circuit NAME]\n\
                     \u{20}      [--output FILE] [--stats] [--trace FILE.jsonl]\n\
                     \u{20}      [--stats-json FILE] [INPUT|-]"
                );
                std::process::exit(0);
            }
            "-" => opts.input = None,
            other if !other.starts_with('-') => opts.input = Some(other.to_owned()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

/// Parses `value`, the argument of `flag`, as a count of `what`;
/// `least` names the smallest allowed count when zero is not.
fn count(
    flag: &str,
    value: Option<String>,
    what: &str,
    least: Option<&str>,
) -> Result<usize, String> {
    let value = value.ok_or(format!("{flag} needs a {what}"))?;
    let n = (value.parse::<usize>()).map_err(|_| format!("{flag} {value:?} is not a {what}"))?;
    match least {
        Some(least) if n == 0 => Err(format!("{flag} needs at least {least}")),
        _ => Ok(n),
    }
}

/// The chaos-injection hook: `DPFILL_CHAOS=fill:N` (or `analyze:N`, or
/// both comma-separated) panics the worker of 0-based window `N` —
/// inert when unset.
fn chaos_from_env() -> Result<ChaosPlan, CliError> {
    let Ok(spec) = std::env::var("DPFILL_CHAOS") else {
        return Ok(ChaosPlan::default());
    };
    let mut plan = ChaosPlan::default();
    for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
        let bad = || {
            CliError::usage(format!(
                "DPFILL_CHAOS {part:?}: expected fill:N or analyze:N"
            ))
        };
        let (pass, index) = part.trim().split_once(':').ok_or_else(bad)?;
        let index = index.parse::<usize>().map_err(|_| bad())?;
        match pass {
            "fill" => plan.panic_in_fill = Some(index),
            "analyze" => plan.panic_in_analyze = Some(index),
            _ => return Err(bad()),
        }
    }
    Ok(plan)
}

/// Loads and parses the `--weights` file into a validated table.
fn weights_from_file(path: &str) -> Result<WeightTable, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::new(exit::INPUT_IO, format!("cannot open {path}: {e}")))?;
    WeightTable::parse(&text).map_err(|e| CliError::new(exit::BAD_WEIGHTS, format!("{path}: {e}")))
}

/// The netlist-free model of a physical objective over `width` pins.
fn synthetic_table(kind: ObjectiveKind, width: usize) -> Result<WeightTable, ObjectiveError> {
    match kind {
        // No dynamic weighting, rest low: every CMOS stack leaks least
        // fully off.
        ObjectiveKind::Leakage => WeightTable::new(vec![1; width], Some(vec![Bit::Zero; width])),
        // A triangular hotspot peaking at the center column: the
        // classic worst-droop spot of a uniform grid.
        _ => {
            let mid = (width.saturating_sub(1)) as f64 / 2.0;
            let profile: Vec<f64> = (0..width)
                .map(|i| 2.0 - (i as f64 - mid).abs() / (mid + 1.0))
                .collect();
            WeightTable::from_f64(&profile, None)
        }
    }
}

/// Compiles the physical leakage/IR-drop vectors of an ITC'99
/// benchmark's synthetic netlist into the objective's weight table.
fn table_from_circuit(name: &str, kind: ObjectiveKind) -> Result<WeightTable, CliError> {
    let profile = dpfill_circuits::itc99(name)
        .ok_or_else(|| CliError::usage(format!("--circuit {name:?} is not an ITC'99 benchmark")))?;
    let netlist = profile.generate();
    let view = CombView::new(&netlist);
    let config = PowerConfig::default();
    let caps = CapacitanceModel::of(&netlist, &config);
    let bad = |e: ObjectiveError| {
        CliError::new(exit::BAD_WEIGHTS, format!("circuit {name} weights: {e}"))
    };
    match kind {
        // Dynamic cost = switched capacitance; rest values from the
        // state-dependent leakage model.
        ObjectiveKind::Leakage => {
            let rest = LeakageModel::of(&view).preferred_rest();
            WeightTable::from_f64(&input_switch_caps(&view, &caps), Some(rest)).map_err(bad)
        }
        // Droop each column contributes per toggle through the grid.
        ObjectiveKind::IrDrop => {
            let weights = GridModel::default().hotspot_weights(&view, &caps, &config);
            WeightTable::from_f64(&weights, None).map_err(bad)
        }
        ObjectiveKind::PeakToggles | ObjectiveKind::Weighted => {
            unreachable!("only the physical objectives consult --circuit")
        }
    }
}

/// Resolves `--objective`/`--weights`/`--circuit` into the objective
/// the run minimizes. `width` is the pattern width when already known
/// (a whole-set run); the physical objectives fall back to width-sized
/// synthetic models only with it, so a bounded run requires
/// `--weights` or `--circuit` for them.
fn objective_for(opts: &Options, width: Option<usize>) -> Result<FillObjective, CliError> {
    let _span = minitrace::span("objective.build");
    if opts.weights.is_some() && opts.objective == ObjectiveKind::PeakToggles {
        return Err(CliError::usage(
            "--weights needs --objective weighted, leakage or ir-drop",
        ));
    }
    if opts.circuit.is_some()
        && !matches!(
            opts.objective,
            ObjectiveKind::Leakage | ObjectiveKind::IrDrop
        )
    {
        return Err(CliError::usage(
            "--circuit powers the physical models: pass --objective leakage or ir-drop",
        ));
    }
    match opts.objective {
        ObjectiveKind::PeakToggles => Ok(FillObjective::peak_toggles()),
        ObjectiveKind::Weighted => match &opts.weights {
            Some(path) => Ok(FillObjective::weighted(weights_from_file(path)?)),
            None => Err(CliError::usage("--objective weighted needs --weights FILE")),
        },
        kind => {
            let name = kind.label();
            let table = match (&opts.weights, &opts.circuit, width) {
                (Some(path), _, _) => weights_from_file(path)?,
                (None, Some(circuit), _) => table_from_circuit(circuit, kind)?,
                (None, None, Some(width)) => synthetic_table(kind, width).map_err(|e| {
                    CliError::new(exit::BAD_WEIGHTS, format!("synthetic {name} model: {e}"))
                })?,
                (None, None, None) => {
                    return Err(CliError::usage(format!(
                        "--objective {name} in streaming mode needs --circuit or --weights"
                    )))
                }
            };
            Ok(match kind {
                ObjectiveKind::Leakage => FillObjective::leakage(table),
                _ => FillObjective::ir_drop(table),
            })
        }
    }
}

/// A spool file for non-seekable stdin in a bounded run; removed on
/// drop.
struct Spool {
    path: PathBuf,
}

/// Opens a fresh file with `create_new`, which refuses to follow
/// symlinks or reuse an existing path — a predictable name in a shared
/// directory can be neither clobbered nor pre-planted. The `name`
/// callback receives a timestamp nonce and the attempt number; the open
/// retries with a new name on collision and returns the final
/// collision error if all sixteen attempts collide.
fn create_exclusive(
    name: impl Fn(u32, u32) -> PathBuf,
) -> std::io::Result<(std::fs::File, PathBuf)> {
    retry::with_retries(
        16,
        |e| e.kind() == std::io::ErrorKind::AlreadyExists,
        |attempt| {
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.subsec_nanos());
            let path = name(nanos, attempt as u32);
            std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
                .map(|file| (file, path))
        },
    )
}

impl Spool {
    fn from_stdin() -> Result<Spool, CliError> {
        let (file, path) = create_exclusive(|nanos, attempt| {
            std::env::temp_dir().join(format!(
                "dpfill-xfill-{}-{nanos}-{attempt}.pat",
                std::process::id()
            ))
        })
        .map_err(|e| CliError::new(exit::INPUT_IO, format!("cannot spool stdin: {e}")))?;
        let spool = Spool { path };
        let mut writer = BufWriter::new(file);
        // The bounded-retry reader absorbs EINTR bursts during the copy
        // and converts an interrupt storm into a hard error instead of
        // spinning forever inside `io::copy`.
        let mut stdin = RetryReader::new(std::io::stdin().lock());
        std::io::copy(&mut stdin, &mut writer)
            .and_then(|_| writer.flush())
            .map_err(|e| CliError::new(exit::INPUT_IO, format!("cannot spool stdin: {e}")))?;
        Ok(spool)
    }
}

impl Drop for Spool {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// The `--order` label of the header and the report.
fn order_label(opts: &Options) -> &'static str {
    opts.order.map_or("keep", BandedMethod::label)
}

/// An `--output` sink that never damages a pre-existing file
/// on failure: bytes go to a sibling temp file (created lazily on the
/// first write, via the exclusive nonce pattern), which
/// [`StreamSink::commit`] renames over the final path only after the
/// whole run succeeded. A run that fails — up-front rejection,
/// malformed input mid-stream, broken source, a contained worker
/// panic, even a failed commit — leaves the original file
/// byte-for-byte intact and the temp removed (the drop guard runs on
/// unwind too). Stdout needs no such ceremony and streams directly.
enum StreamSink {
    Stdout(BufWriter<std::io::StdoutLock<'static>>),
    File {
        path: String,
        /// The temp sibling and its writer, once the first byte arrives.
        tmp: Option<(PathBuf, BufWriter<std::fs::File>)>,
        committed: bool,
    },
}

impl StreamSink {
    fn new(output: &Option<String>) -> StreamSink {
        match output {
            Some(path) => StreamSink::File {
                path: path.clone(),
                tmp: None,
                committed: false,
            },
            None => StreamSink::Stdout(BufWriter::new(std::io::stdout().lock())),
        }
    }

    /// Publishes the temp file over the final path (no-op for stdout or
    /// when nothing was written). On failure the temp is still cleaned
    /// up by drop.
    fn commit(&mut self) -> Result<(), CliError> {
        if let StreamSink::File {
            path,
            tmp: Some((tmp, file)),
            committed,
        } = self
        {
            file.flush()
                .and_then(|()| std::fs::rename(tmp, &*path))
                .map_err(|e| CliError::new(exit::OUTPUT, format!("cannot write {path}: {e}")))?;
            *committed = true;
        }
        Ok(())
    }
}

impl Write for StreamSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            StreamSink::Stdout(w) => w.write(buf),
            StreamSink::File { path, tmp, .. } => {
                if tmp.is_none() {
                    // Sibling of the target (so the commit rename never
                    // crosses filesystems), opened exclusively so a
                    // pre-planted path can be neither followed nor
                    // clobbered.
                    let (created, tmp_path) = create_exclusive(|nanos, attempt| {
                        PathBuf::from(format!(
                            "{path}.tmp.{}-{nanos}-{attempt}",
                            std::process::id()
                        ))
                    })
                    .map_err(|e| {
                        std::io::Error::new(e.kind(), format!("cannot write {path}: {e}"))
                    })?;
                    *tmp = Some((tmp_path, BufWriter::new(created)));
                }
                match tmp {
                    Some((_, f)) => f.write(buf),
                    None => unreachable!("the temp file was just created"),
                }
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            StreamSink::Stdout(w) => w.flush(),
            StreamSink::File {
                tmp: Some((_, f)), ..
            } => f.flush(),
            StreamSink::File { .. } => Ok(()),
        }
    }
}

impl Drop for StreamSink {
    fn drop(&mut self) {
        if let StreamSink::File {
            tmp: Some((tmp, _)),
            committed: false,
            ..
        } = self
        {
            // Uncommitted temp from a failed run (or failed commit).
            let _ = std::fs::remove_file(&*tmp);
        }
    }
}

/// The machine-readable report: `(key, already-encoded JSON value)`
/// pairs each pipeline pushes as it learns them, serialized under
/// `"report"` in the `--stats-json` document.
type JsonReport = Vec<(&'static str, String)>;

/// Installs the trace sinks the flags request. An unopenable `--trace`
/// target is a *warning*, not an error: observability never changes
/// the fill's outcome or exit code (mid-run sink failures are handled
/// the same way by the sink itself — it detaches and the first error
/// is surfaced by [`finalize_tracing`]).
fn install_tracing(opts: &Options) {
    if let Some(path) = &opts.trace {
        match std::fs::File::create(path) {
            Ok(file) => {
                minitrace::install_jsonl(Box::new(RetryWriter::new(BufWriter::new(file))));
            }
            Err(e) => {
                eprintln!("warning: trace: cannot open {path}: {e}; continuing without a trace");
            }
        }
    }
    if opts.stats || opts.stats_json.is_some() {
        minitrace::enable_aggregate();
    }
}

/// Flushes and tears down the trace sinks: surfaces any deferred sink
/// error as a warning, prints the aggregate table under `--stats`, and
/// writes the `--stats-json` document (on success only — a failed run
/// has no report to serialize). Never alters the exit code.
fn finalize_tracing(opts: &Options, report: &JsonReport, run_ok: bool) {
    if opts.trace.is_none() && !opts.stats && opts.stats_json.is_none() {
        return;
    }
    let (snap, sink_err) = minitrace::finish();
    if let Some(e) = sink_err {
        eprintln!("warning: trace sink: {e}; trace incomplete (fill output unaffected)");
    }
    if opts.stats {
        let table = minitrace::render_table(&snap);
        if !table.is_empty() {
            eprint!("{table}");
        }
    }
    // The `--stats-json` document: the report fields plus every counter
    // total, span aggregate and histogram the trace layer collected.
    if let (true, Some(path)) = (run_ok, &opts.stats_json) {
        let json = minitrace::render_json(report, &snap);
        let written = std::fs::File::create(path).and_then(|file| {
            let mut file = RetryWriter::new(file);
            file.write_all(json.as_bytes())?;
            file.flush()
        });
        if let Err(e) = written {
            eprintln!("warning: stats-json: cannot write {path}: {e}");
        }
    }
}

/// Resolves the ring ordering of a bounded run. `--order keep` keeps
/// arrival order (byte-identical to the whole-set unordered run);
/// interleave/xstat — including the interleave *default* — run banded
/// over a ring of `--band` windows; the whole-set ISA ordering is
/// rejected by name.
fn banded_order(opts: &Options) -> Result<Option<BandedOrder>, CliError> {
    match (opts.order, opts.band) {
        (None, Some(_)) => Err(CliError::usage(
            "--band configures the banded streaming orderings; it has no \
             effect with --order keep",
        )),
        (Some(BandedMethod::Isa(_)), _) => Err(CliError::usage(
            "--order isa needs the whole pattern set resident; streaming mode \
             (--window/--memory-budget) supports --order keep, interleave or xstat",
        )),
        (order, band) => Ok(order.map(|method| match band {
            Some(band) => BandedOrder::with_band(method, band),
            None => BandedOrder::new(method),
        })),
    }
}

/// The driver's options both runs share; a bounded run sets its window.
fn stream_options(
    opts: &Options,
    order: Option<BandedOrder>,
    objective: &FillObjective,
) -> Result<StreamOptions, CliError> {
    Ok(StreamOptions {
        fill: opts.fill,
        order,
        header: Some(format!(
            "filled by dpfill-xfill: {} / {}",
            order_label(opts),
            opts.fill.label()
        )),
        // The report carries the 0-fill baseline.
        collect_baseline: opts.stats || opts.stats_json.is_some(),
        chaos: chaos_from_env()?,
        objective: objective.clone(),
        ..StreamOptions::default()
    })
}

fn run(opts: &Options) -> Result<(), CliError> {
    // Fix the pool width before any parallel helper builds it lazily.
    // The filled output is bit-identical at every width; only wall-clock
    // time changes.
    match opts.threads {
        // `--threads 0` is documented "auto" and must never construct a
        // zero-width pool: leave the pool to its lazy init, which honors
        // DPFILL_THREADS and falls back to one thread per core — exactly
        // as if the flag were absent.
        None | Some(0) => {}
        Some(threads) => {
            minipool::set_global_threads(threads).map_err(|built| {
                CliError::usage(format!("thread pool already running with {built} threads"))
            })?;
        }
    }
    install_tracing(opts);
    let mut json: JsonReport = Vec::new();
    let result = fill(opts, &mut json);
    finalize_tracing(opts, &json, result.is_ok());
    result
}

/// The one pipeline. Without `--window`/`--memory-budget` it reads the
/// set once, builds the objective for its width and runs the driver
/// over the set as one resident window; with either flag it streams
/// the input through bounded windows — with `--order keep`
/// byte-identical to the whole-set run at every window size and thread
/// count, with a banded ordering byte-identical to the whole-set
/// *ordered* run whenever the band covers the whole set.
fn fill(opts: &Options, json: &mut JsonReport) -> Result<(), CliError> {
    let window = match (opts.window, opts.memory_budget) {
        (Some(_), Some(_)) => {
            return Err(CliError::usage(
                "pass either --window or --memory-budget, not both",
            ))
        }
        (Some(cubes), None) => Some(WindowSpec::Cubes(cubes)),
        (None, Some(mib)) => Some(WindowSpec::MemoryBudgetMiB(mib)),
        (None, None) => None,
    };
    let label = opts.input.as_deref().unwrap_or("<stdin>");
    let no_patterns = || CliError::new(exit::NO_PATTERNS, "no patterns in input");
    let mut sink = StreamSink::new(&opts.output);
    let (report, ring, objective) = match window {
        Some(window) => {
            let ring = banded_order(opts)?;
            let objective = objective_for(opts, None)?;
            let driver = StreamingFill::new(StreamOptions {
                window,
                ..stream_options(opts, ring, &objective)?
            });
            // The planned fills read the input twice, so stdin is
            // spooled to a temp file for them (both passes must see
            // identical bytes). The per-cube fills open the source
            // exactly once and stream stdin directly — no extra disk
            // traffic.
            let report = match (&opts.input, driver.input_passes() > 1) {
                (Some(path), _) => driver.run_path(Path::new(path), &mut sink),
                (None, true) => {
                    let spool = Spool::from_stdin()?;
                    driver.run_path(&spool.path, &mut sink)
                }
                (None, false) => driver.run(|| Ok(std::io::stdin().lock()), &mut sink),
            };
            (report, ring, objective)
        }
        None => {
            if opts.band.is_some() {
                return Err(CliError::usage(
                    "--band needs streaming mode: pass --window or --memory-budget",
                ));
            }
            // Stream the pattern file straight into the packed cube
            // planes: the input never exists in memory as text, and a
            // malformed cube aborts the read at its line.
            let read = || -> Result<CubeSet, StreamError> {
                let _span = minitrace::span("format.parse");
                Ok(match &opts.input {
                    Some(path) => format::read_patterns(
                        std::fs::File::open(path).map_err(StreamError::Open)?,
                    )?,
                    None => format::read_patterns(std::io::stdin().lock())?,
                })
            };
            let cubes = read().map_err(|e| stream_error(label, &e))?;
            if cubes.is_empty() {
                return Err(no_patterns());
            }
            let objective = objective_for(opts, Some(cubes.width()))?;
            let order = opts.order.map(BandedOrder::new);
            let driver = StreamingFill::new(stream_options(opts, order, &objective)?);
            (driver.run_resident(cubes, &mut sink), None, objective)
        }
    };
    let report = report.map_err(|e| stream_error(label, &e))?;
    if report.cubes == 0 {
        return Err(no_patterns());
    }
    sink.commit()?;
    push_report(json, opts, window.is_some(), &report);
    if opts.stats {
        print_stats(opts, &report, ring, &objective);
    }
    Ok(())
}

/// The `--stats-json` report, one shape for both runs: `mode` tells a
/// bounded run (`streaming`) from a whole-set one (`monolithic`).
fn push_report(json: &mut JsonReport, opts: &Options, streaming: bool, r: &StreamReport) {
    let mode = if streaming { "streaming" } else { "monolithic" };
    let baseline = r.baseline_peak.map_or("null".into(), |p| p.to_string());
    json.extend([
        ("schema_version", "1".to_owned()),
        ("mode", json_string(mode)),
        ("fill", json_string(opts.fill.label())),
        ("order", json_string(order_label(opts))),
        ("cubes", r.cubes.to_string()),
        ("width", r.width.to_string()),
        ("x_count", r.x_count.to_string()),
        ("baseline_peak", baseline),
        ("peak_toggles", r.peak_toggles.to_string()),
        ("objective_peak", r.objective_peak.to_string()),
        ("windows", r.windows.to_string()),
        ("window_cubes", r.window_cubes.to_string()),
        ("resident_peak_cubes", r.resident_peak_cubes.to_string()),
        ("degradations", r.degradations.len().to_string()),
        ("pass1_ns", r.pass1_ns.to_string()),
        ("solve_ns", r.solve_ns.to_string()),
        ("pass2_ns", r.pass2_ns.to_string()),
    ]);
}

/// The `--stats` lines, on stderr. `ring` is a bounded run's banded
/// ordering.
fn print_stats(
    opts: &Options,
    report: &StreamReport,
    ring: Option<BandedOrder>,
    objective: &FillObjective,
) {
    let total_bits = (report.cubes * report.width) as f64;
    eprintln!(
        "{} cubes x {} pins, {:.1}% X; peak toggles: 0-fill(as-given) {} -> {} {}",
        report.cubes,
        report.width,
        100.0 * report.x_count as f64 / total_bits,
        report.baseline_peak.unwrap_or(0),
        opts.fill.label(),
        report.peak_toggles
    );
    if objective.kind() != ObjectiveKind::PeakToggles {
        eprintln!(
            "objective {}: weighted peak {} (fixed-point units)",
            objective.label(),
            report.objective_peak
        );
    }
    eprintln!(
        "windows: {} of {} cubes; peak resident cubes {}",
        report.windows, report.window_cubes, report.resident_peak_cubes
    );
    // Wall-clock per-phase totals (always measured, `--trace` or not).
    // Single-pass fills have no analyze/solve phases and report 0 there.
    eprintln!(
        "phase totals: pass-1 {} ns, solve {} ns, pass-2 {} ns",
        report.pass1_ns, report.solve_ns, report.pass2_ns
    );
    if let Some(order) = ring {
        eprintln!(
            "banded ordering: {} over a ring of {} windows ({} cubes lookahead)",
            order.method.label(),
            order.band,
            order.band * report.window_cubes
        );
    }
    // Every graceful window halving a --memory-budget run took, so a
    // degraded (but byte-identical) run is observable.
    for event in &report.degradations {
        eprintln!("budget degradation: {event}");
    }
}

fn main() -> ExitCode {
    // The last line of defense: the streaming pipeline contains worker
    // panics at the window boundary (exit 7), so anything reaching this
    // catch is a bug escaping all containment — report it as EX_SOFTWARE
    // instead of the generic abort, after the default hook has printed
    // the panic location to stderr.
    let outcome = catch_unwind(|| parse_args().map_err(CliError::usage).and_then(|o| run(&o)));
    match outcome {
        Ok(Ok(())) => ExitCode::SUCCESS,
        Ok(Err(e)) => {
            eprintln!("error: {}", e.message);
            ExitCode::from(e.code)
        }
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            eprintln!("error: internal panic: {message}");
            ExitCode::from(exit::PANIC)
        }
    }
}
