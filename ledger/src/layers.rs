//! The in-process runs behind the per-layer metrics: the whole-set
//! chain, one timed call per layer's public entry point, and
//! `StreamingFill::run` behind a timed reader and writer. No span lives
//! inside the library; every timing here is taken around a public call.

use std::cell::Cell;
use std::io::{self, Read, Write};
use std::time::Instant;

use dpfill_core::fill::FillMethod;
use dpfill_core::ordering::{BandedMethod, OrderingMethod};
use dpfill_core::stream::{
    BandedOrder, ChaosPlan, StreamOptions, StreamReport, StreamingFill, WindowSpec,
};
use dpfill_core::{FillObjective, MatrixMapping, SolveOptions, WeightTable};
use dpfill_cubes::{format, peak_toggles, weighted_peak_toggles};
use dpfill_netlist::CombView;
use dpfill_power::{input_switch_caps, CapacitanceModel, LeakageModel, PowerConfig};

use crate::workload::{Order, Workload};

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Builds the workload's fill objective the way the CLI does: the unit
/// objective, or the leakage table compiled from an ITC'99 netlist
/// (the public calls behind the CLI's `--circuit`).
pub fn objective(w: &Workload) -> Result<FillObjective, String> {
    let Some(name) = w.circuit else {
        return Ok(FillObjective::peak_toggles());
    };
    let profile = dpfill_circuits::itc99(name).ok_or(format!("{name} is not an ITC'99 circuit"))?;
    let netlist = profile.generate();
    let view = CombView::new(&netlist);
    let caps = CapacitanceModel::of(&netlist, &PowerConfig::default());
    let rest = LeakageModel::of(&view).preferred_rest();
    let table = WeightTable::from_f64(&input_switch_caps(&view, &caps), Some(rest))
        .map_err(|e| format!("{name} weights: {e}"))?;
    Ok(FillObjective::leakage(table))
}

/// Layer timings of one whole-set chain, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChainTimes {
    pub objective: f64,
    pub parse: f64,
    pub order: f64,
    pub reorder: f64,
    pub analyze: f64,
    pub solve: f64,
    pub shift: f64,
    pub apply: f64,
    pub score: f64,
    pub emit: f64,
    /// The whole chain, glue included.
    pub wall: f64,
}

impl ChainTimes {
    pub fn layers(&self) -> f64 {
        self.objective
            + self.parse
            + self.order
            + self.reorder
            + self.analyze
            + self.solve
            + self.shift
            + self.apply
            + self.score
            + self.emit
    }
}

/// One whole-set run: parse → order → reorder → analyze → solve →
/// shift → apply → score → emit, the monolithic CLI's DP-fill path.
pub struct Chain {
    pub times: ChainTimes,
    /// Output position → input cube.
    pub perm: Vec<usize>,
    /// The emitted bytes (rendered again after the timed emit).
    pub output: Vec<u8>,
    pub lower_bound: u64,
    /// Verified peak of the final coloring, in objective units.
    pub verified_peak: u64,
    pub peak: u64,
    pub weighted_peak: Option<u64>,
    pub intervals: usize,
    pub forced_toggles: u64,
}

/// Runs the whole-set chain on `input` under `order` (`Order::Keep`
/// runs the identity `Tool` ordering, which is what `--order keep`
/// means).
pub fn chain(w: &Workload, order: Order, input: &[u8]) -> Result<Chain, String> {
    let mut t = ChainTimes::default();
    let wall = Instant::now();

    let start = Instant::now();
    let objective = objective(w)?;
    t.objective = secs(start);

    let start = Instant::now();
    let cubes = format::read_patterns(input).map_err(|e| format!("parse: {e}"))?;
    t.parse = secs(start);

    let method = match order {
        Order::Keep => OrderingMethod::Tool,
        Order::Interleave => OrderingMethod::Interleaved,
    };
    let start = Instant::now();
    let perm = method.order(&cubes).map_err(|e| format!("order: {e}"))?;
    t.order = secs(start);

    let start = Instant::now();
    let ordered = cubes
        .reordered(&perm)
        .map_err(|e| format!("reorder: {e}"))?;
    t.reorder = secs(start);
    drop(cubes);

    let start = Instant::now();
    let mapping =
        MatrixMapping::analyze_with(&ordered, &objective).map_err(|e| format!("analyze: {e}"))?;
    t.analyze = secs(start);
    let instance = mapping.instance();

    let start = Instant::now();
    let mut solution = instance
        .solve_with(&SolveOptions::default())
        .map_err(|e| format!("solve: {e}"))?;
    t.solve = secs(start);

    // The secondary objective, exactly as `DpFill::try_run` applies it;
    // timed as a stage even when the objective carries no preference.
    let start = Instant::now();
    if !mapping.desire().is_empty() {
        let shifted = instance
            .shift_within_slack(
                &solution.coloring,
                mapping.desire(),
                solution.peak.with_baseline,
            )
            .map_err(|e| format!("shift: {e}"))?;
        solution.peak = instance
            .verify(&shifted)
            .map_err(|e| format!("verify: {e}"))?;
        solution.coloring = shifted;
    }
    t.shift = secs(start);

    let start = Instant::now();
    let filled = mapping.apply_coloring(&solution.coloring);
    t.apply = secs(start);

    let start = Instant::now();
    let peak = peak_toggles(&filled).map_err(|e| format!("score: {e}"))? as u64;
    let weighted_peak = objective
        .weights()
        .map(|weights| weighted_peak_toggles(&filled, weights))
        .transpose()
        .map_err(|e| format!("score: {e}"))?;
    t.score = secs(start);

    let header = Some(w.output_header());
    let start = Instant::now();
    format::write_patterns(io::sink(), &filled, header).map_err(|e| format!("emit: {e}"))?;
    t.emit = secs(start);
    t.wall = secs(wall);

    let mut output = Vec::with_capacity(filled.len() * (filled.width() + 1) + 64);
    format::write_patterns(&mut output, &filled, header).map_err(|e| format!("emit: {e}"))?;
    Ok(Chain {
        times: t,
        perm,
        output,
        lower_bound: solution.lower_bound,
        verified_peak: solution.peak.with_baseline,
        peak,
        weighted_peak,
        intervals: instance.intervals().len(),
        forced_toggles: mapping.forced_total(),
    })
}

/// A reader that adds the time spent in `read` to a shared total.
struct TimedRead<'a> {
    inner: &'a [u8],
    ns: &'a Cell<u64>,
}

impl Read for TimedRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let start = Instant::now();
        let n = self.inner.read(buf);
        self.ns
            .set(self.ns.get() + start.elapsed().as_nanos() as u64);
        n
    }
}

/// A writer that adds the time spent in `write`/`flush` to a total.
struct TimedWrite<'a> {
    inner: &'a mut Vec<u8>,
    ns: &'a Cell<u64>,
}

impl Write for TimedWrite<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let start = Instant::now();
        let n = self.inner.write(buf);
        self.ns
            .set(self.ns.get() + start.elapsed().as_nanos() as u64);
        n
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One `StreamingFill::run`, with the objective build before it.
pub struct Stream {
    pub report: StreamReport,
    pub output: Vec<u8>,
    pub objective_s: f64,
    pub run_s: f64,
    pub read_s: f64,
    pub write_s: f64,
    /// Objective build plus run.
    pub wall_s: f64,
    /// Objective weights (none for the unit objective).
    pub weights: Option<Vec<u64>>,
}

impl Stream {
    /// The run's own phase totals plus the objective build.
    pub fn layers(&self) -> f64 {
        let r = &self.report;
        self.objective_s + (r.pass1_ns + r.solve_ns + r.pass2_ns) as f64 * 1e-9
    }
}

/// Streams `input` through windows of `window` cubes, banded over
/// `band` windows when the workload orders (`None`: the CLI default).
pub fn stream(
    w: &Workload,
    window: usize,
    band: Option<usize>,
    input: &[u8],
) -> Result<Stream, String> {
    let wall = Instant::now();
    let start = Instant::now();
    let objective = objective(w)?;
    let objective_s = secs(start);
    let weights = objective.weights().map(<[u64]>::to_vec);
    let order = match (w.order, band) {
        (Order::Keep, _) => None,
        (Order::Interleave, Some(band)) => {
            Some(BandedOrder::with_band(BandedMethod::Interleave, band))
        }
        (Order::Interleave, None) => Some(BandedOrder::new(BandedMethod::Interleave)),
    };
    let driver = StreamingFill::new(StreamOptions {
        window: WindowSpec::Cubes(window),
        fill: FillMethod::Dp,
        order,
        header: Some(w.output_header().to_owned()),
        collect_baseline: false,
        chaos: ChaosPlan::default(),
        solve: SolveOptions::default(),
        objective,
    });
    let read_ns = Cell::new(0);
    let write_ns = Cell::new(0);
    let mut output = Vec::with_capacity(input.len() + 64);
    let start = Instant::now();
    let report = driver
        .run(
            || {
                Ok(TimedRead {
                    inner: input,
                    ns: &read_ns,
                })
            },
            TimedWrite {
                inner: &mut output,
                ns: &write_ns,
            },
        )
        .map_err(|e| format!("stream: {e}"))?;
    let run_s = secs(start);
    Ok(Stream {
        report,
        output,
        objective_s,
        run_s,
        read_s: read_ns.get() as f64 * 1e-9,
        write_s: write_ns.get() as f64 * 1e-9,
        wall_s: secs(wall),
        weights,
    })
}
