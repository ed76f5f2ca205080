//! The pin-major analysis and row-splice fill — the references for
//! `dpfill-core`'s cube-major analyzer and filled-value plane.
//!
//! [`analyze_pin_major`] transposes the set to scalar pin rows and feeds
//! each window's slice of every row, bit by bit, to the stretch
//! classifier's one scanner against the row's carried last care bit.
//! [`splice_fill`] transposes the set, copies each row's care values
//! left and flips each colored stretch's columns after its color, then
//! transposes back.

use dpfill_core::IncrementalBound;
use dpfill_cubes::{Bit, CubeSet};

use crate::stretch::{scan_row, Stretch};
use crate::{pin_matrix_scalar, PinMatrix};

/// One `v X…X w` transition stretch of a pin row.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Site {
    /// The pin.
    pub pin: u32,
    /// Column of the left care bit: the interval's start.
    pub start: u32,
    /// Column before the right care bit: the interval's end.
    pub end: u32,
    /// Value of the left care bit.
    pub left_value: bool,
}

/// What the pin-major scan found, sites in row-major order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PinMajorAnalysis {
    /// Every transition stretch, by pin, then by start.
    pub sites: Vec<Site>,
    /// Forced toggles per transition, weighed by `weights[pin]` when
    /// weights were given.
    pub baseline: Vec<u64>,
    /// Bit `r` is pin `r`'s first care value.
    pub first_values: Vec<u64>,
    /// The unit-load ladder bound over the sites and forced toggles.
    pub warm_lb: u64,
    /// A weighted baseline sum left `u64`.
    pub overflow: bool,
}

/// The pin-major analysis of `cubes` fed in windows of `window` cubes,
/// forced toggles weighed by `weights[pin]` (unit when `None`).
///
/// # Panics
///
/// Panics if `window` is 0 or the weights do not cover the pins.
pub fn analyze_pin_major(
    cubes: &CubeSet,
    window: usize,
    weights: Option<&[u64]>,
) -> PinMajorAnalysis {
    assert!(window > 0, "windows hold at least one cube");
    let (width, cols) = (cubes.width(), cubes.len());
    let rows = pin_matrix_scalar(cubes);
    let mut states: Vec<Option<(usize, Bit)>> = vec![None; width];
    let mut per_pin: Vec<Vec<Site>> = vec![Vec::new(); width];
    let mut first_values = vec![0u64; width.div_ceil(64)];
    let mut baseline = vec![0u64; cols.saturating_sub(1)];
    let mut overflow = false;
    let mut ladder = IncrementalBound::new();
    for start in (0..cols).step_by(window) {
        let end = (start + window).min(cols);
        let (mut sites, mut forced) = (Vec::new(), Vec::new());
        for (pin, state) in states.iter_mut().enumerate() {
            let row = &rows.row(pin)[start..end];
            if state.is_none() && row.iter().find(|b| b.is_care()) == Some(&Bit::One) {
                first_values[pin / 64] |= 1 << (pin % 64);
            }
            scan_row(row, start, state, |s| match s {
                Stretch::Transition {
                    left,
                    right,
                    left_value,
                } => sites.push(Site {
                    pin: pin as u32,
                    start: left as u32,
                    end: (right - 1) as u32,
                    left_value: left_value == Bit::One,
                }),
                Stretch::ForcedToggle { col } => forced.push((pin, col)),
                _ => {}
            });
        }
        for site in sites {
            ladder.add_load(site.start as usize, site.end as usize, 1);
            per_pin[site.pin as usize].push(site);
        }
        for (pin, col) in forced {
            let w = weights.map_or(1, |w| w[pin]);
            match baseline[col].checked_add(w) {
                Some(v) => baseline[col] = v,
                None => overflow = true,
            }
            ladder.add_baseline(col, 1);
        }
    }
    PinMajorAnalysis {
        sites: per_pin.into_iter().flatten().collect(),
        baseline,
        first_values,
        warm_lb: ladder.current(),
        overflow,
    }
}

/// The pin-major analysis of an already-transposed matrix, as one
/// window.
pub fn analyze_rows(rows: &PinMatrix) -> PinMajorAnalysis {
    analyze_pin_major(&rows.to_cube_set(), rows.cols().max(1), None)
}

/// Fills `cubes` row by row: every `X` copies the nearest care value to
/// its left (the pin's first care value before any), then each site
/// colored `colors[i]` flips its columns after that color to the
/// opposite of its left value.
///
/// # Panics
///
/// Panics if the lengths differ or a color lies outside its site.
pub fn splice_fill(
    cubes: &CubeSet,
    first_values: &[u64],
    sites: &[Site],
    colors: &[u32],
) -> CubeSet {
    assert_eq!(sites.len(), colors.len(), "one color per site");
    let mut rows = pin_matrix_scalar(cubes);
    for pin in 0..rows.rows() {
        let mut last = Bit::from_bool(first_values[pin / 64] >> (pin % 64) & 1 == 1);
        for b in rows.row_mut(pin) {
            if b.is_care() {
                last = *b;
            } else {
                *b = last;
            }
        }
    }
    for (site, &color) in sites.iter().zip(colors) {
        assert!(
            site.start <= color && color <= site.end,
            "color {color} outside site {site:?}"
        );
        let row = rows.row_mut(site.pin as usize);
        row[color as usize + 1..=site.end as usize].fill(Bit::from_bool(!site.left_value));
    }
    rows.to_cube_set()
}
