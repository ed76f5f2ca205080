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
//!   --window CUBES        bounded-memory streaming mode: run the
//!                         pipeline over windows of CUBES cubes.
//!                         interleave/xstat orderings run *banded*
//!                         (see --band); --order keep is byte-identical
//!                         to the monolithic run, and a band covering
//!                         the whole set is byte-identical to the
//!                         monolithic ordered run
//!   --memory-budget MB    like --window, but derive the window size
//!                         from a resident-memory budget in MiB
//!   --band B              streaming lookahead for the banded
//!                         orderings: a ring of B windows is held
//!                         resident and re-ordered before windows
//!                         freeze out (default: 2; needs streaming
//!                         mode and an ordering)
//!   --objective OBJ       peak-toggles|weighted|leakage|ir-drop
//!                         (default: peak-toggles — the paper's metric,
//!                         byte-identical to builds without the flag).
//!                         weighted needs --weights; leakage/ir-drop
//!                         derive their tables from --circuit (or
//!                         --weights), falling back to synthetic models
//!                         in monolithic mode
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
//! both comma-separated) makes the streaming pipeline panic inside the
//! worker of 0-based window `N` — the fault-injection hook behind the
//! chaos suite, proving panics are contained as exit 7, not crashes.
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

use dpfill_core::fill::{DpFill, DpFillError, FillErrorSource, FillMethod};
use dpfill_core::ordering::{BandedMethod, OrderingMethod};
use dpfill_core::stream::{
    BandedOrder, ChaosPlan, StreamError, StreamOptions, StreamingFill, WindowSpec,
};
use dpfill_core::{FillObjective, ObjectiveError, ObjectiveKind, WeightTable};
use dpfill_cubes::format::PatternError;
use dpfill_cubes::retry::{self, RetryReader, RetryWriter};
use dpfill_cubes::{format, peak_toggles, weighted_peak_toggles, Bit, CubeSet};
use dpfill_netlist::CombView;
use dpfill_power::{input_switch_caps, CapacitanceModel, GridModel, LeakageModel, PowerConfig};
use minitrace::json_string;

/// The process exit codes, one per failure class. Scripts driving huge
/// fill jobs dispatch on these (retry transient I/O, page on solver
/// bugs, raise the budget on 8) without parsing diagnostics.
mod exit {
    /// Bad arguments or a configuration streaming cannot honor.
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
    /// it certified, or a monolithic fill's output is not a filling of
    /// its input (a solver or fill bug, never expected).
    pub const SOLVE: u8 = 11;
    /// The weight table behind `--objective`/`--weights` is invalid
    /// (parse error, zero/non-finite weight, width mismatch with the
    /// patterns).
    pub const BAD_WEIGHTS: u8 = 12;
    /// A panic escaped all containment — the `main` backstop (EX_SOFTWARE).
    pub const PANIC: u8 = 70;
    /// Any failure without a more specific class.
    pub const OTHER: u8 = 1;
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

/// Maps a streaming-pipeline failure to its exit code; `label` names
/// the input source in the diagnostic.
fn stream_error(label: &str, e: &StreamError) -> CliError {
    let code = match e {
        StreamError::Open(_) | StreamError::Pattern(PatternError::Io(_)) => exit::INPUT_IO,
        StreamError::Pattern(PatternError::Cube(_)) => exit::MALFORMED,
        StreamError::Write(_) => exit::OUTPUT,
        StreamError::Solve(e) => dp_fill_error_code(e),
        StreamError::UnsupportedFill(_) => exit::USAGE,
        StreamError::Order(_) => exit::SOLVE,
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

/// Maps a monolithic-parse failure (I/O vs malformed line) to its code.
fn pattern_error(label: Option<&str>, e: &PatternError) -> CliError {
    let code = match e {
        PatternError::Io(_) => exit::INPUT_IO,
        PatternError::Cube(_) => exit::MALFORMED,
    };
    match label {
        Some(l) => CliError::new(code, format!("{l}: {e}")),
        None => CliError::new(code, e.to_string()),
    }
}

struct Options {
    input: Option<String>,
    output: Option<String>,
    fill: FillMethod,
    order: Option<OrderingMethod>,
    /// True when `--order` was passed on the command line. Streaming
    /// mode treats the two differently: an *explicit* `--order isa` is
    /// rejected by name, while the default silently resolves to the
    /// banded interleave ordering.
    order_explicit: bool,
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
        order: Some(OrderingMethod::Interleaved),
        order_explicit: false,
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
                opts.order_explicit = true;
                opts.order = match args.next().as_deref() {
                    Some("keep") => None,
                    Some("interleave") => Some(OrderingMethod::Interleaved),
                    Some("xstat") => Some(OrderingMethod::XStat),
                    Some("isa") => Some(OrderingMethod::Isa(0x15A)),
                    other => return Err(format!("unknown --order {other:?}")),
                };
            }
            "--threads" => {
                let value = args.next().ok_or("--threads needs a count")?;
                opts.threads = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| format!("--threads {value:?} is not a count"))?,
                );
            }
            "--window" => {
                let value = args.next().ok_or("--window needs a cube count")?;
                let cubes = value
                    .parse::<usize>()
                    .map_err(|_| format!("--window {value:?} is not a cube count"))?;
                if cubes == 0 {
                    return Err("--window needs at least one cube".to_owned());
                }
                opts.window = Some(cubes);
            }
            "--memory-budget" => {
                let value = args.next().ok_or("--memory-budget needs a size in MiB")?;
                let mib = value
                    .parse::<usize>()
                    .map_err(|_| format!("--memory-budget {value:?} is not a size in MiB"))?;
                if mib == 0 {
                    return Err("--memory-budget needs at least 1 MiB".to_owned());
                }
                opts.memory_budget = Some(mib);
            }
            "--band" => {
                let value = args.next().ok_or("--band needs a window count")?;
                let band = value
                    .parse::<usize>()
                    .map_err(|_| format!("--band {value:?} is not a window count"))?;
                if band == 0 {
                    return Err("--band needs at least one window".to_owned());
                }
                opts.band = Some(band);
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

/// The chaos-injection hook: `DPFILL_CHAOS=fill:N` (or `analyze:N`, or
/// both comma-separated) panics the streaming worker of 0-based window
/// `N` — inert when unset.
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
/// both pipelines minimize. `width` is the pattern width when already
/// known (monolithic mode); the physical objectives fall back to
/// width-sized synthetic models without it only in that mode, so the
/// streaming pipeline requires `--weights` or `--circuit` for them.
fn objective_for(opts: &Options, width: Option<usize>) -> Result<FillObjective, CliError> {
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
        ObjectiveKind::Leakage => {
            let table = match (&opts.weights, &opts.circuit, width) {
                (Some(path), _, _) => weights_from_file(path)?,
                (None, Some(name), _) => table_from_circuit(name, opts.objective)?,
                // Netlist-free fallback: no dynamic weighting, rest
                // low — every CMOS stack leaks least fully off.
                (None, None, Some(width)) => {
                    WeightTable::new(vec![1; width], Some(vec![Bit::Zero; width])).map_err(|e| {
                        CliError::new(exit::BAD_WEIGHTS, format!("synthetic leakage model: {e}"))
                    })?
                }
                (None, None, None) => {
                    return Err(CliError::usage(
                        "--objective leakage in streaming mode needs --circuit or --weights",
                    ))
                }
            };
            Ok(FillObjective::leakage(table))
        }
        ObjectiveKind::IrDrop => {
            let table = match (&opts.weights, &opts.circuit, width) {
                (Some(path), _, _) => weights_from_file(path)?,
                (None, Some(name), _) => table_from_circuit(name, opts.objective)?,
                // Netlist-free fallback: a triangular hotspot peaking
                // at the center column — the classic worst-droop spot
                // of a uniform grid.
                (None, None, Some(width)) => {
                    let mid = (width.saturating_sub(1)) as f64 / 2.0;
                    let profile: Vec<f64> = (0..width)
                        .map(|i| 2.0 - (i as f64 - mid).abs() / (mid + 1.0))
                        .collect();
                    WeightTable::from_f64(&profile, None).map_err(|e| {
                        CliError::new(exit::BAD_WEIGHTS, format!("synthetic ir-drop model: {e}"))
                    })?
                }
                (None, None, None) => {
                    return Err(CliError::usage(
                        "--objective ir-drop in streaming mode needs --circuit or --weights",
                    ))
                }
            };
            Ok(FillObjective::ir_drop(table))
        }
    }
}

/// A spool file for non-seekable stdin in streaming mode; removed on
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

/// The header comment both pipelines write above the filled patterns.
fn output_header(opts: &Options) -> String {
    format!(
        "filled by dpfill-xfill: {} / {}",
        opts.order.map_or("keep", |o| o.label()),
        opts.fill.label()
    )
}

fn open_sink(output: &Option<String>) -> Result<Box<dyn Write>, CliError> {
    match output {
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| CliError::new(exit::OUTPUT, format!("cannot write {path}: {e}")))?;
            Ok(Box::new(BufWriter::new(file)))
        }
        None => Ok(Box::new(BufWriter::new(std::io::stdout().lock()))),
    }
}

/// A streaming `--output` sink that never damages a pre-existing file
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
        tmp: Option<PathBuf>,
        file: Option<BufWriter<std::fs::File>>,
        committed: bool,
    },
}

impl StreamSink {
    fn new(output: &Option<String>) -> StreamSink {
        match output {
            Some(path) => StreamSink::File {
                path: path.clone(),
                tmp: None,
                file: None,
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
            tmp,
            file,
            committed,
        } = self
        {
            if let (Some(writer), Some(tmp_path)) = (file.as_mut(), tmp.as_ref()) {
                writer
                    .flush()
                    .and_then(|()| std::fs::rename(tmp_path, &*path))
                    .map_err(|e| {
                        CliError::new(exit::OUTPUT, format!("cannot write {path}: {e}"))
                    })?;
                *committed = true;
            }
        }
        Ok(())
    }
}

impl Write for StreamSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            StreamSink::Stdout(w) => w.write(buf),
            StreamSink::File {
                path, tmp, file, ..
            } => {
                if file.is_none() {
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
                    *tmp = Some(tmp_path);
                    *file = Some(BufWriter::new(created));
                }
                match file.as_mut() {
                    Some(f) => f.write(buf),
                    None => unreachable!("the temp file was just created"),
                }
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            StreamSink::Stdout(w) => w.flush(),
            StreamSink::File { file, .. } => match file {
                Some(f) => f.flush(),
                None => Ok(()),
            },
        }
    }
}

impl Drop for StreamSink {
    fn drop(&mut self) {
        if let StreamSink::File {
            tmp: Some(tmp),
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
    if run_ok {
        if let Some(path) = &opts.stats_json {
            if let Err(e) = write_stats_json(path, report, &snap) {
                eprintln!("warning: stats-json: cannot write {path}: {e}");
            }
        }
    }
}

/// Writes the `--stats-json` document: the pipeline's report fields
/// plus every counter total, span aggregate, and histogram the trace
/// layer collected.
fn write_stats_json(
    path: &str,
    report: &JsonReport,
    snap: &minitrace::Snapshot,
) -> std::io::Result<()> {
    let mut file = RetryWriter::new(std::fs::File::create(path)?);
    file.write_all(minitrace::render_json(report, snap).as_bytes())?;
    file.flush()
}

/// Resolves the ordering a streaming run applies. `--order keep` keeps
/// arrival order (byte-identical to the monolithic unordered run);
/// interleave/xstat — including the interleave *default* — run banded
/// over a ring of `--band` windows; the whole-set ISA ordering is
/// rejected by name.
fn streaming_order(opts: &Options) -> Result<Option<BandedOrder>, CliError> {
    let method = match opts.order {
        None => {
            if opts.band.is_some() {
                return Err(CliError::usage(
                    "--band configures the banded streaming orderings; it has no \
                     effect with --order keep",
                ));
            }
            return Ok(None);
        }
        Some(OrderingMethod::Interleaved) => BandedMethod::Interleave,
        Some(OrderingMethod::XStat) => BandedMethod::XStat,
        Some(other) => {
            debug_assert!(opts.order_explicit, "only --order can select {other:?}");
            return Err(CliError::usage(format!(
                "--order {} needs the whole pattern set resident; streaming mode \
                 (--window/--memory-budget) supports --order keep, interleave or xstat",
                match other {
                    OrderingMethod::Isa(_) => "isa",
                    OrderingMethod::Tool => "tool",
                    _ => unreachable!("interleave and xstat stream banded"),
                }
            )));
        }
    };
    Ok(Some(match opts.band {
        Some(band) => BandedOrder::with_band(method, band),
        None => BandedOrder::new(method),
    }))
}

/// The bounded-memory streaming mode behind `--window`/`--memory-budget`:
/// windowed analyze→solve→fill→emit — with `--order keep` byte-identical
/// to the monolithic run at every window size and thread count, with a
/// banded ordering byte-identical to the monolithic *ordered* run
/// whenever the band covers the whole set.
fn run_streaming(opts: &Options, json: &mut JsonReport) -> Result<(), CliError> {
    if opts.window.is_some() && opts.memory_budget.is_some() {
        return Err(CliError::usage(
            "pass either --window or --memory-budget, not both",
        ));
    }
    let order = streaming_order(opts)?;
    let objective = objective_for(opts, None)?;
    let window = match (opts.window, opts.memory_budget) {
        (Some(cubes), _) => WindowSpec::Cubes(cubes),
        (None, Some(mib)) => WindowSpec::MemoryBudgetMiB(mib),
        (None, None) => unreachable!("streaming mode implies one of the flags"),
    };
    let driver = StreamingFill::new(StreamOptions {
        window,
        fill: opts.fill,
        order,
        header: Some(output_header(opts)),
        // Both reports carry the 0-fill baseline.
        collect_baseline: opts.stats || opts.stats_json.is_some(),
        chaos: chaos_from_env()?,
        objective: objective.clone(),
        ..StreamOptions::default()
    });
    let label = opts.input.as_deref().unwrap_or("<stdin>");
    // The planned fills read the input twice, so stdin is spooled to a
    // temp file for them (both passes must see identical bytes). The
    // per-cube fills open the source exactly once and stream stdin
    // directly — no extra disk traffic.
    let mut sink = StreamSink::new(&opts.output);
    let report = match (&opts.input, driver.input_passes() > 1) {
        (Some(path), _) => driver.run_path(Path::new(path), &mut sink),
        (None, true) => {
            let spool = Spool::from_stdin()?;
            driver.run_path(&spool.path, &mut sink)
        }
        (None, false) => driver.run(|| Ok(std::io::stdin().lock()), &mut sink),
    }
    .map_err(|e| stream_error(label, &e))?;
    if report.cubes == 0 {
        return Err(CliError::new(exit::NO_PATTERNS, "no patterns in input"));
    }
    sink.commit()?;
    json.push(("mode", json_string("streaming")));
    json.push(("fill", json_string(opts.fill.label())));
    json.push((
        "order",
        json_string(opts.order.map_or("keep", |o| o.label())),
    ));
    json.push(("cubes", report.cubes.to_string()));
    json.push(("width", report.width.to_string()));
    json.push(("x_count", report.x_count.to_string()));
    json.push((
        "baseline_peak",
        report
            .baseline_peak
            .map_or_else(|| "null".to_owned(), |p| p.to_string()),
    ));
    json.push(("peak_toggles", report.peak_toggles.to_string()));
    json.push(("objective_peak", report.objective_peak.to_string()));
    json.push(("windows", report.windows.to_string()));
    json.push(("window_cubes", report.window_cubes.to_string()));
    json.push((
        "resident_peak_cubes",
        report.resident_peak_cubes.to_string(),
    ));
    json.push(("degradations", report.degradations.len().to_string()));
    json.push(("pass1_ns", report.pass1_ns.to_string()));
    json.push(("solve_ns", report.solve_ns.to_string()));
    json.push(("pass2_ns", report.pass2_ns.to_string()));
    if opts.stats {
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
            "streamed {} windows of {} cubes; peak resident cubes {}",
            report.windows, report.window_cubes, report.resident_peak_cubes
        );
        // Wall-clock per-phase totals (always measured, `--trace` or
        // not). Single-pass fills have no analyze/solve phases and
        // report 0 there.
        eprintln!(
            "phase totals: pass-1 {} ns, solve {} ns, pass-2 {} ns",
            report.pass1_ns, report.solve_ns, report.pass2_ns
        );
        if let Some(order) = order {
            eprintln!(
                "banded ordering: {} over a ring of {} windows ({} cubes lookahead)",
                order.method.label(),
                order.band,
                order.band * report.window_cubes
            );
        }
        // Every graceful window halving a --memory-budget run took, so
        // a degraded (but byte-identical) run is observable.
        for event in &report.degradations {
            eprintln!("budget degradation: {event}");
        }
    }
    Ok(())
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
    let result = if opts.window.is_some() || opts.memory_budget.is_some() {
        run_streaming(opts, &mut json)
    } else if opts.band.is_some() {
        Err(CliError::usage(
            "--band needs streaming mode: pass --window or --memory-budget",
        ))
    } else {
        run_monolithic(opts, &mut json)
    };
    finalize_tracing(opts, &json, result.is_ok());
    result
}

/// The whole-set pipeline: parse everything, order, fill, emit.
fn run_monolithic(opts: &Options, json: &mut JsonReport) -> Result<(), CliError> {
    // Stream the pattern file straight into the packed cube planes —
    // the input never exists in memory as text or scalar bits, and a
    // malformed cube aborts the read at its line (no cubes are
    // collected past the first error).
    let cubes = match &opts.input {
        Some(path) => {
            let file = std::fs::File::open(path)
                .map_err(|e| CliError::new(exit::INPUT_IO, format!("cannot open {path}: {e}")))?;
            format::read_patterns(file).map_err(|e| pattern_error(Some(path), &e))?
        }
        None => {
            format::read_patterns(std::io::stdin().lock()).map_err(|e| pattern_error(None, &e))?
        }
    };
    if cubes.is_empty() {
        return Err(CliError::new(exit::NO_PATTERNS, "no patterns in input"));
    }
    let objective = objective_for(opts, Some(cubes.width()))?;
    objective
        .check_width(cubes.width())
        .map_err(|e| CliError::new(exit::BAD_WEIGHTS, e.to_string()))?;

    // The `--stats` inputs describe the set as given, so take them
    // before ordering: the unordered set is then dropped once reordered.
    let given = if opts.stats || opts.stats_json.is_some() {
        let baseline = peak_toggles(&FillMethod::Zero.fill(&cubes))
            .map_err(|e| CliError::new(exit::OTHER, e.to_string()))?;
        Some((cubes.len(), cubes.width(), cubes.x_percent(), baseline))
    } else {
        None
    };
    let ordered: CubeSet = match opts.order {
        None => cubes,
        Some(method) => {
            let order = method
                .order(&cubes)
                .map_err(|e| CliError::new(exit::SOLVE, e.to_string()))?;
            let reordered = cubes
                .reordered(&order)
                .map_err(|e| CliError::new(exit::OTHER, e.to_string()))?;
            drop(cubes);
            reordered
        }
    };
    let filled = match opts.fill {
        // DP-fill's solver failures exit with their class instead of
        // the panic behind the infallible `fill_with`.
        FillMethod::Dp => {
            DpFill::new()
                .with_objective(objective.clone())
                .try_run(&ordered)
                .map_err(|e| CliError::new(dp_fill_error_code(&e), e.to_string()))?
                .filled
        }
        _ => opts.fill.fill_with(&ordered, &objective),
    };
    if !CubeSet::is_filling_of(&filled, &ordered) {
        return Err(CliError::new(
            exit::SOLVE,
            format!(
                "{} fill is not a filling of its input (a fill bug)",
                opts.fill.label()
            ),
        ));
    }
    drop(ordered);

    if let Some((len, width, x_percent, before)) = given {
        let after = peak_toggles(&filled).map_err(|e| CliError::new(exit::OTHER, e.to_string()))?;
        json.push(("mode", json_string("monolithic")));
        json.push(("fill", json_string(opts.fill.label())));
        json.push((
            "order",
            json_string(opts.order.map_or("keep", |o| o.label())),
        ));
        json.push(("cubes", len.to_string()));
        json.push(("width", width.to_string()));
        json.push(("x_percent", format!("{x_percent:.1}")));
        json.push(("baseline_peak", before.to_string()));
        json.push(("peak_toggles", after.to_string()));
        if opts.stats {
            eprintln!(
                "{len} cubes x {width} pins, {x_percent:.1}% X; peak toggles: \
                 0-fill(as-given) {before} -> {} {after}",
                opts.fill.label(),
            );
        }
        if let Some(weights) = objective.weights() {
            let weighted = weighted_peak_toggles(&filled, weights)
                .map_err(|e| CliError::new(exit::OVERFLOW, e.to_string()))?;
            json.push(("objective_peak", weighted.to_string()));
            if opts.stats {
                eprintln!(
                    "objective {}: weighted peak {} (fixed-point units)",
                    objective.label(),
                    weighted
                );
            }
        }
    }

    // Emit incrementally — no full-set String is ever buffered, on
    // either pipeline.
    let header = output_header(opts);
    let sink = open_sink(&opts.output)?;
    format::write_patterns(sink, &filled, Some(&header)).map_err(|e| {
        let message = match &opts.output {
            Some(path) => format!("cannot write {path}: {e}"),
            None => format!("cannot write patterns: {e}"),
        };
        CliError::new(exit::OUTPUT, message)
    })?;
    Ok(())
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
