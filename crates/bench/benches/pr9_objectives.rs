//! The PR-9 acceptance benchmark: pluggable fill objectives on a
//! Table-VI circuit.
//!
//! Two questions, answered on the same ATPG cube set:
//!
//! * **Pareto** — what does each objective trade? Reported (not
//!   benchmarked) as one row per objective: unweighted peak toggles,
//!   the objective's own weighted peak, mean rest leakage (nW) and
//!   worst-transition grid droop (V) of the filled patterns. The
//!   default objective is also asserted byte-identical to a
//!   pre-objective `DpFill::new()` run — the invariant the whole
//!   refactor preserves.
//! * **Cost** — what does the weighted solve pay in wall-clock over
//!   the unit path, per objective?
//!
//! Run with `cargo bench -p dpfill-bench --bench pr9_objectives`, or pass
//! `-- pareto-only` to print just the quality rows.

use criterion::{criterion_group, criterion_main, Criterion};

use dpfill_atpg::{generate_tests, AtpgConfig};
use dpfill_circuits::itc99;
use dpfill_core::fill::{DpFill, FillStrategy};
use dpfill_core::{FillObjective, WeightTable};
use dpfill_cubes::{weighted_peak_toggles, Bit, CubeSet};
use dpfill_netlist::CombView;
use dpfill_power::{
    input_switch_caps, ir_drop_report, CapacitanceModel, GridModel, LeakageModel, PowerConfig,
};

/// Mean rest leakage of the filled patterns, in nanowatts.
fn mean_leakage_nw(model: &LeakageModel, filled: &CubeSet) -> f64 {
    let mut total = 0.0;
    for cube in filled.iter() {
        let rest: Vec<Bit> = cube.iter().collect();
        total += model.total_nw(&rest);
    }
    total / filled.len() as f64
}

fn bench_objectives(c: &mut Criterion) {
    let mut group = c.benchmark_group("pr9_objectives");
    group.sample_size(10);

    let profile = itc99("b08").expect("known benchmark");
    let netlist = profile.generate();
    let cubes = generate_tests(&netlist, &AtpgConfig::default()).cubes;
    let view = CombView::new(&netlist);
    let config = PowerConfig::default();
    let caps = CapacitanceModel::of(&netlist, &config);
    let grid = GridModel::default();
    let leakage_model = LeakageModel::of(&view);
    let switch_caps = input_switch_caps(&view, &caps);

    // A user-style table distinct from the physical ones: emphasis
    // cycling over the scan chain (e.g. cells near analog blocks).
    let user_weights: Vec<u64> = (0..cubes.width())
        .map(|i| 1 + (i as u64 * 7) % 13)
        .collect();

    let objectives: Vec<(&str, FillObjective)> = vec![
        ("peak-toggles", FillObjective::peak_toggles()),
        (
            "weighted",
            FillObjective::weighted(WeightTable::new(user_weights, None).expect("nonzero weights")),
        ),
        (
            "leakage",
            FillObjective::leakage(
                WeightTable::from_f64(&switch_caps, Some(leakage_model.preferred_rest()))
                    .expect("live pins"),
            ),
        ),
        (
            "ir-drop",
            FillObjective::ir_drop(
                WeightTable::from_f64(&grid.hotspot_weights(&view, &caps, &config), None)
                    .expect("live pins"),
            ),
        ),
    ];

    // ---- Pareto report: one row per objective ----
    let baseline = DpFill::new().fill(&cubes);
    eprintln!(
        "objective Pareto, {} ({} cubes x {} pins):",
        profile.name,
        cubes.len(),
        cubes.width()
    );
    eprintln!("  objective     peak  weighted-peak  leak(nW)  droop(uV)");
    for (label, objective) in &objectives {
        let report = DpFill::new().with_objective(objective.clone()).run(&cubes);
        let weighted = match objective.weights() {
            Some(w) => weighted_peak_toggles(&report.filled, w).expect("bench-scale loads"),
            None => report.peak,
        };
        let droop = ir_drop_report(&view, &report.filled, &caps, &config, &grid)
            .expect("fully specified patterns")
            .droop_v;
        eprintln!(
            "  {label:<13} {:>4}  {weighted:>13}  {:>8.1}  {:>9.3}",
            report.peak,
            mean_leakage_nw(&leakage_model, &report.filled),
            droop * 1e6
        );
        if *label == "peak-toggles" {
            // The invariant the refactor preserves: the default
            // objective is the pre-objective code path, byte for byte.
            assert_eq!(
                report.filled, baseline,
                "default objective drifted from DpFill::new()"
            );
        }
    }

    // ---- Wall-clock: what each objective's solve costs ----
    for (label, objective) in &objectives {
        let fill = DpFill::new().with_objective(objective.clone());
        group.bench_function(format!("{}/dp_fill/{label}", profile.name), |b| {
            b.iter(|| criterion::black_box(fill.fill(&cubes)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_objectives);
criterion_main!(benches);
