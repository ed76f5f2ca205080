//! The metric catalog: every name the benchmark prints, its unit and
//! which direction is better. `BENCHMARK.json` must list the same
//! names (a test checks it) and adds the regression bounds.

/// Name, unit, and whether lower is better.
pub type MetricDef = (&'static str, &'static str, bool);

/// What a user of `dpfill-xfill` sees, measured on the CLI with tracing
/// off. A run's value is the median over its samples.
pub const END_TO_END: [MetricDef; 6] = [
    // Spawn to exit of one CLI run on the full input. Each workload has
    // a fixed size, so throughput would only restate this.
    ("wall_s", "s", true),
    // User + system CPU seconds of the child.
    ("cpu_s", "s", true),
    // The child's peak resident set (wait4 ru_maxrss).
    ("peak_rss_mb", "MiB", true),
    // The same invocation on a one-cube input: the fixed per-run cost
    // (process start, pool spawn, objective table build).
    ("setup_s", "s", true),
    // Peak toggles of the emitted patterns, recounted by the checker.
    ("peak_toggles", "count", true),
    // The peak in objective units, recounted by the checker (equal to
    // peak_toggles under the unit objective).
    ("objective_peak", "count", true),
];

/// End-to-end metrics that are a pure function of the input: on
/// identical inputs any rise is a regression, whatever the bound.
pub const EXACT: [&str; 2] = ["peak_toggles", "objective_peak"];

/// One layer each, timed in process around its public entry point
/// (medians over a traced run's rounds).
pub const PER_LAYER: [MetricDef; 26] = [
    ("format.parse_s", "s", true),
    ("format.parse_mb_s", "MB/s", false),
    ("format.emit_s", "s", true),
    ("format.emit_mb_s", "MB/s", false),
    ("ordering.order_s", "s", true),
    ("ordering.reorder_s", "s", true),
    ("mapping.analyze_s", "s", true),
    ("mapping.intervals", "count", true),
    ("mapping.forced_toggles", "count", true),
    ("bcp.solve_s", "s", true),
    ("bcp.shift_s", "s", true),
    ("bcp.lower_bound", "count", true),
    ("bcp.gap", "count", true),
    ("fill.apply_s", "s", true),
    ("score.peak_s", "s", true),
    ("stream.run_s", "s", true),
    ("stream.read_s", "s", true),
    ("stream.write_s", "s", true),
    ("stream.pass1_s", "s", true),
    ("stream.solve_s", "s", true),
    ("stream.pass2_s", "s", true),
    ("stream.resident_peak_cubes", "count", true),
    ("stream.windows", "count", true),
    ("objective.table_s", "s", true),
    ("trace.unattributed_s", "s", true),
    ("trace.overhead_ratio", "ratio", true),
];

/// Samples per metric, in the order first pushed.
#[derive(Debug, Default)]
pub struct Samples {
    series: Vec<(&'static str, Vec<f64>)>,
}

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        match self.series.iter_mut().find(|(n, _)| *n == name) {
            Some((_, values)) => values.push(value),
            None => self.series.push((name, vec![value])),
        }
    }

    pub fn get(&self, name: &str) -> Option<&[f64]> {
        self.series
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_slice())
    }
}
