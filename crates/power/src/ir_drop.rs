//! IR-drop estimation — the failure mechanism that motivates the paper.
//!
//! Excessive peak capture power does not fail chips directly; the
//! *voltage droop* it causes on the power grid does (paper §I, refs
//! \[3\], \[4\]): gates slow down under reduced supply and the at-speed
//! capture samples a late transition, flagging a good chip as defective.
//!
//! This module closes that loop with a first-order grid model: the
//! switching current of the peak transition flows through an effective
//! grid resistance, the droop scales gate delay through a velocity-
//! saturation-flavoured sensitivity, and a pattern set *fails* timing
//! when the slowed critical path exceeds the capture period. It turns
//! the abstract "peak µW" of Table VI into the yield-relevant question:
//! *does this fill risk false delay failures at this clock?*

use dpfill_cubes::CubeSet;
use dpfill_netlist::CombView;
use dpfill_sim::SimError;

use crate::{peak_power, CapacitanceModel, PowerConfig};

/// First-order power-grid / timing model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GridModel {
    /// Effective supply-grid resistance seen by the switching region, in
    /// ohms (package + grid; a few tens of mΩ for a large die region).
    pub effective_resistance: f64,
    /// Gate-delay sensitivity to supply: `delay ∝ (Vdd/(Vdd-ΔV))^alpha`
    /// with `alpha ≈ 1.3` for velocity-saturated short-channel devices.
    pub delay_sensitivity: f64,
    /// Nominal critical-path delay as a fraction of the capture period
    /// (how much timing slack the design ships with), in `[0, 1]`.
    pub nominal_path_fraction: f64,
}

impl Default for GridModel {
    fn default() -> GridModel {
        GridModel {
            effective_resistance: 0.05,
            delay_sensitivity: 1.3,
            nominal_path_fraction: 0.9,
        }
    }
}

impl GridModel {
    /// Grid droop each pattern column contributes per toggle, in volts:
    /// `R_eff · C_i · Vdd · f`, the switching current of that input's
    /// net through the effective grid resistance. This is the weight
    /// vector of the *ir-drop* fill objective — columns whose nets carry
    /// more switched capacitance droop the grid harder, so the solver
    /// should spread their toggles first. Ordered for
    /// [`CombView::inputs`] (pattern-column order).
    pub fn hotspot_weights(
        &self,
        view: &CombView<'_>,
        caps: &CapacitanceModel,
        config: &PowerConfig,
    ) -> Vec<f64> {
        let volts_per_farad = self.effective_resistance * config.vdd * config.frequency;
        crate::input_switch_caps(view, caps)
            .into_iter()
            .map(|c| c * volts_per_farad)
            .collect()
    }
}

/// The droop verdict for one pattern set.
#[derive(Clone, Debug, PartialEq)]
pub struct IrDropReport {
    /// Peak switching current, in amperes (`P_peak / Vdd`).
    pub peak_current_a: f64,
    /// Supply droop at the peak transition, in volts.
    pub droop_v: f64,
    /// Droop as a percentage of Vdd.
    pub droop_percent: f64,
    /// Critical-path delay stretched by the droop, as a fraction of the
    /// capture period (> 1.0 means a false delay failure).
    pub stretched_path_fraction: f64,
    /// `true` when the at-speed capture would sample a late value.
    pub false_failure_risk: bool,
}

/// Estimates the IR-drop of `patterns`' worst launch-capture transition.
///
/// # Errors
///
/// Propagates [`SimError`] for malformed patterns.
///
/// # Example
///
/// ```
/// use dpfill_circuits::c17;
/// use dpfill_cubes::CubeSet;
/// use dpfill_netlist::CombView;
/// use dpfill_power::{ir_drop_report, CapacitanceModel, GridModel, PowerConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let netlist = c17();
/// let view = CombView::new(&netlist);
/// let cfg = PowerConfig::default();
/// let caps = CapacitanceModel::of(&netlist, &cfg);
/// let patterns = CubeSet::parse_rows(&["00000", "11111"])?;
/// let report = ir_drop_report(&view, &patterns, &caps, &cfg, &GridModel::default())?;
/// assert!(report.droop_v >= 0.0);
/// # Ok(())
/// # }
/// ```
pub fn ir_drop_report(
    view: &CombView<'_>,
    patterns: &CubeSet,
    caps: &CapacitanceModel,
    config: &PowerConfig,
    grid: &GridModel,
) -> Result<IrDropReport, SimError> {
    let power = peak_power(view, patterns, caps, config)?;
    let peak_w = power.peak_uw * 1e-6;
    let peak_current_a = if config.vdd > 0.0 {
        peak_w / config.vdd
    } else {
        0.0
    };
    let droop_v = (peak_current_a * grid.effective_resistance).min(config.vdd);
    let droop_percent = if config.vdd > 0.0 {
        100.0 * droop_v / config.vdd
    } else {
        0.0
    };
    // Below ~1 % of Vdd the first-order model is meaningless (the part
    // has failed functionally, not just in timing); clamp so the stretch
    // stays finite.
    let remaining = (config.vdd - droop_v).max(0.01 * config.vdd);
    let stretch = (config.vdd / remaining).powf(grid.delay_sensitivity);
    let stretched_path_fraction = grid.nominal_path_fraction * stretch;
    Ok(IrDropReport {
        peak_current_a,
        droop_v,
        droop_percent,
        stretched_path_fraction,
        false_failure_risk: stretched_path_fraction > 1.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpfill_netlist::{GateKind, Netlist, NetlistBuilder};

    fn wide_buffer_tree(width: usize) -> Netlist {
        let mut b = NetlistBuilder::new("tree");
        b.input("i");
        for k in 0..width {
            b.gate(format!("n{k}"), GateKind::Not, &["i"]).unwrap();
            b.output(format!("n{k}"));
        }
        b.build().unwrap()
    }

    fn report_for(width: usize, rows: &[&str], grid: &GridModel) -> IrDropReport {
        let n = wide_buffer_tree(width);
        let view = CombView::new(&n);
        let cfg = PowerConfig::default();
        let caps = CapacitanceModel::of(&n, &cfg);
        let patterns = CubeSet::parse_rows(rows).unwrap();
        ir_drop_report(&view, &patterns, &caps, &cfg, grid).unwrap()
    }

    #[test]
    fn quiet_patterns_do_not_droop() {
        let r = report_for(10, &["0", "0", "0"], &GridModel::default());
        assert_eq!(r.droop_v, 0.0);
        assert!(!r.false_failure_risk);
        assert!((r.stretched_path_fraction - 0.9).abs() < 1e-9);
    }

    #[test]
    fn droop_grows_with_switching_width() {
        let small = report_for(5, &["0", "1"], &GridModel::default());
        let big = report_for(500, &["0", "1"], &GridModel::default());
        assert!(big.droop_v > small.droop_v * 10.0);
        assert!(big.stretched_path_fraction > small.stretched_path_fraction);
    }

    #[test]
    fn harsh_grid_flags_false_failures() {
        let harsh = GridModel {
            effective_resistance: 5_000.0, // pathological, to force droop
            ..GridModel::default()
        };
        let r = report_for(500, &["0", "1"], &harsh);
        assert!(r.droop_percent > 5.0);
        assert!(r.false_failure_risk, "droop {}%", r.droop_percent);
    }

    #[test]
    fn droop_is_capped_at_vdd() {
        let absurd = GridModel {
            effective_resistance: 1e12,
            ..GridModel::default()
        };
        let r = report_for(100, &["0", "1"], &absurd);
        assert!(r.droop_v <= PowerConfig::default().vdd + 1e-12);
        assert!(r.stretched_path_fraction.is_finite());
    }

    #[test]
    fn hotspot_weights_scale_with_fanout_and_resistance() {
        let n = wide_buffer_tree(40);
        let view = CombView::new(&n);
        let cfg = PowerConfig::default();
        let caps = CapacitanceModel::of(&n, &cfg);
        let grid = GridModel::default();
        let w = grid.hotspot_weights(&view, &caps, &cfg);
        assert_eq!(w.len(), view.input_count());
        assert!(w.iter().all(|v| *v > 0.0 && v.is_finite()));
        // Double the grid resistance, double the droop per toggle.
        let stiff = GridModel {
            effective_resistance: 2.0 * grid.effective_resistance,
            ..grid
        };
        let w2 = stiff.hotspot_weights(&view, &caps, &cfg);
        for (a, b) in w.iter().zip(&w2) {
            assert!((2.0 * a - b).abs() < 1e-18);
        }
        // The lone input drives 40 gates; a 2-gate tree's input droops less.
        let small = wide_buffer_tree(2);
        let sview = CombView::new(&small);
        let scaps = CapacitanceModel::of(&small, &cfg);
        let sw = grid.hotspot_weights(&sview, &scaps, &cfg);
        assert!(w[0] > sw[0]);
    }

    #[test]
    fn lower_peak_means_lower_risk() {
        // The DP-fill value proposition end to end: fewer peak toggles,
        // less droop, smaller stretched path.
        let busy = report_for(200, &["0", "1", "0"], &GridModel::default());
        let calm = report_for(200, &["0", "0", "1"], &GridModel::default());
        // Both flip once, same circuit: equal. Now compare against a
        // half-width flip via patterns on the same circuit is not
        // expressible here, so assert monotonicity in current instead.
        assert!((busy.peak_current_a - calm.peak_current_a).abs() < 1e-12);
        let quieter = report_for(100, &["0", "1", "0"], &GridModel::default());
        assert!(quieter.peak_current_a < busy.peak_current_a);
    }
}
