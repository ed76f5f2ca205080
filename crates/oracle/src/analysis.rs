//! The pin-major analysis and row-splice fill — the references for
//! `dpfill-core`'s cube-major analyzer and filled-value plane.
//!
//! [`analyze_pin_major`] transposes each window of cubes to pin rows and
//! scans every row against its carried last care bit: care arrival by
//! care arrival on sparse rows, X-run by X-run on dense ones
//! ([`for_each_stretch_dense`]). [`splice_fill`] transposes the whole
//! set, copies each row's care values left and flips each colored
//! stretch's columns after its color, then transposes back.

use dpfill_core::IncrementalBound;
use dpfill_cubes::packed::{PackedBits, PackedCubeSet, PackedMatrix};
use dpfill_cubes::stretch::{classify_arrival, for_each_stretch_dense, is_dense_row, Stretch};
use dpfill_cubes::{Bit, CubeSet};

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

/// Per-pin scan state: the last care bit seen, as `(column, value)`.
type State = Option<(usize, Bit)>;

/// Scans one pin row holding columns `[start, start + row.len())`
/// against its carried `state`, appending its sites and forced-toggle
/// columns and noting its first care value.
fn scan_row(
    row: &PackedBits,
    pin: u32,
    start: usize,
    state: &mut State,
    sites: &mut Vec<Site>,
    forced: &mut Vec<(u32, usize)>,
    first_one: &mut bool,
) {
    let mut record = |s: Stretch, shift: usize| match s {
        Stretch::Transition {
            left,
            right,
            left_value,
        } => sites.push(Site {
            pin,
            start: (shift + left) as u32,
            end: (shift + right - 1) as u32,
            left_value: left_value == Bit::One,
        }),
        Stretch::ForcedToggle { col } => forced.push((pin, shift + col)),
        _ => {}
    };
    let mut arrive = |state: &mut State, col: usize, value: Bit| {
        if state.is_none() && value == Bit::One {
            *first_one = true;
        }
        if let Some(s) = classify_arrival(*state, col, value) {
            record(s, 0);
        }
        *state = Some((col, value));
    };
    if is_dense_row(row) {
        let Some((first, value)) = row.next_care_at_or_after(0) else {
            return;
        };
        arrive(state, start + first, value);
        for_each_stretch_dense(row, |s| record(s, start));
        let last = row.last_care().unwrap_or(first);
        *state = Some((start + last, row.get(last)));
    } else {
        for (pos, value) in row.care_positions() {
            arrive(state, start + pos, value);
        }
    }
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
    let width = cubes.width();
    let mut states: Vec<State> = vec![None; width];
    let mut per_pin: Vec<Vec<Site>> = vec![Vec::new(); width];
    let mut first_values = vec![0u64; width.div_ceil(64)];
    let mut baseline = vec![0u64; cubes.len().saturating_sub(1)];
    let mut overflow = false;
    let mut ladder = IncrementalBound::new();
    for (w, chunk) in cubes.as_packed().cubes().chunks(window).enumerate() {
        let start = w * window;
        let rows = PackedMatrix::from_packed_set(&PackedCubeSet::from_rows(width, chunk.to_vec()));
        let (mut sites, mut forced) = (Vec::new(), Vec::new());
        for (pin, state) in states.iter_mut().enumerate() {
            let mut first_one = false;
            let row = rows.row(pin);
            scan_row(
                row,
                pin as u32,
                start,
                state,
                &mut sites,
                &mut forced,
                &mut first_one,
            );
            if first_one {
                first_values[pin / 64] |= 1 << (pin % 64);
            }
        }
        for site in sites {
            ladder.add_load(site.start as usize, site.end as usize, 1);
            per_pin[site.pin as usize].push(site);
        }
        for (pin, col) in forced {
            let w = weights.map_or(1, |w| w[pin as usize]);
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
pub fn analyze_rows(rows: &PackedMatrix) -> PinMajorAnalysis {
    analyze_pin_major(
        &CubeSet::from_packed(rows.to_packed_set()),
        rows.cols().max(1),
        None,
    )
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
    let mut rows = PackedMatrix::from_packed_set(cubes.as_packed());
    for (pin, row) in rows.packed_rows_mut().iter_mut().enumerate() {
        row.fill_copy_left(first_values[pin / 64] >> (pin % 64) & 1 == 1);
    }
    for (site, &color) in sites.iter().zip(colors) {
        assert!(
            site.start <= color && color <= site.end,
            "color {color} outside site {site:?}"
        );
        let value = Bit::from_bool(!site.left_value);
        let row = rows.row_mut(site.pin as usize);
        if color < site.end {
            row.fill_range(color as usize + 1, site.end as usize + 1, value);
        }
    }
    CubeSet::from_packed(rows.to_packed_set())
}
