//! Scoring and searching Algorithm 3's candidate orders, for the global
//! and the banded I-ordering alike.
//!
//! A candidate's value is the optimal DP-fill peak of the cubes in its
//! order: the generalized BCP lower bound of that order's intervals and
//! forced toggles. [`scan`] finds both with the analyzer's cube-major
//! kernel, reading the packed cubes in candidate order one 64-pin word
//! at a time, with no transpose; [`ByEnd`] reads the bound problem in
//! place. [`search`] then runs the paper's exit rule, deciding a
//! candidate with one probe and certifying only a winner, and hands the
//! winner's scan back: a resident DP-fill solves it as its analysis.

use dpfill_cubes::CubeSet;

use crate::bcp::ByEnd;
use crate::stream::analyze::{chunks, forced_totals, Analysis, Keep};

use super::{is_permutation, IOrderingTrace, OrderingError};

/// One candidate order's scan: the analysis of the cubes in that order,
/// keeping what the scan was asked to, and the unit forced toggles the
/// search bounds it by when the analysis's baseline weighs them.
pub(crate) struct Scan {
    pub analysis: Analysis,
    /// Unit forced toggles per transition under weights (else empty:
    /// the baseline is unit).
    unit: Vec<u64>,
}

impl Scan {
    /// The candidate's bound problem: its stretches over the unit forced
    /// baseline, each of unit load.
    pub(crate) fn bound(&self) -> ByEnd<'_> {
        let a = &self.analysis;
        let unit = if self.unit.is_empty() {
            &a.baseline
        } else {
            &self.unit
        };
        ByEnd::new(&a.chunks, unit, None)
    }
}

/// The analysis of `cubes` read in `order`: each `v X…X w` stretch (v ≠
/// w) of a pin as the interval `(left, right − 1)` of the transitions
/// its toggle may take, each pair of adjacent opposite care bits as one
/// forced toggle on the baseline — the intervals and baseline of the
/// §V-C mapping of the reordered set, so the bound is the mapping's.
/// Each stretch keeps what `keep` asks (at least its start), forced
/// toggles weigh `weights[pin]` (`None`: unit), and the first care
/// values are recorded.
///
/// The scan is the analyzer's cube-major kernel
/// ([`ChunkScan`](crate::stream::analyze::ChunkScan)) over the cubes in
/// candidate order: pin words fan out over the current [`minipool`]
/// pool, and each chunk's stretches, grouped by end as they close, are
/// probed in place. No ladder is fed; the warm bound is left 0.
///
/// # Errors
///
/// [`OrderingError::MalformedSchedule`] when `order` is not a
/// permutation of the cubes.
///
/// # Panics
///
/// Panics beyond `u32::MAX` cubes, the analysis's column range.
pub(crate) fn scan(
    cubes: &CubeSet,
    order: &[usize],
    keep: Keep,
    weights: Option<&[u64]>,
) -> Result<Scan, OrderingError> {
    // A non-permutation would silently drop or repeat cubes, so it is
    // checked always: the O(n) check is negligible next to the scan.
    if !is_permutation(order, cubes.len()) {
        return Err(OrderingError::MalformedSchedule {
            len: order.len(),
            expected: cubes.len(),
        });
    }
    assert!(
        order.len() <= u32::MAX as usize,
        "the analysis supports at most 2^32 - 1 cubes"
    );
    let planes = cubes.as_packed().cubes();
    let keep = keep.max(Keep::Starts);
    let mut scans = chunks(cubes.width());
    let tallies = minipool::parallel_chunks_mut(&mut scans, 1, |_, scans| {
        let tallies = scans.iter_mut().map(|ch| {
            let in_order = order.iter().map(|&c| &planes[c]);
            ch.scan(in_order, 0, keep, weights, None)
        });
        tallies.collect::<Vec<_>>()
    });
    let tallies: Vec<_> = tallies.into_iter().flatten().collect();
    let (mut unit, weighted, overflow) = forced_totals(&tallies, weights.is_some());
    unit.resize(order.len().saturating_sub(1), 0);
    let mut first_values = Vec::new();
    let chunks = (scans.into_iter())
        .map(|ch| {
            let (first, groups) = ch.into_parts();
            first_values.extend(first);
            groups
        })
        .collect();
    let (baseline, unit) = match weights {
        Some(_) => (weighted, unit),
        None => (unit, Vec::new()),
    };
    let analysis = Analysis {
        chunks,
        baseline,
        cols: order.len(),
        first_values,
        warm_lb: 0,
        overflow,
    };
    Ok(Scan { analysis, unit })
}

/// Algorithm 3's search for the interleave factor, shared by the global
/// and the banded I-ordering. `candidate(k)` builds factor `k`'s order
/// and scans it; a candidate's value is `max(warm, bound)`, and the
/// search stops at the first `k` whose value does not improve on the
/// best so far (the paper's exit rule).
///
/// With `certify_all` every evaluated candidate's value is certified and
/// recorded, as Fig. 2(a)/(b) plot them. Otherwise a candidate is
/// decided: once the best value `b` is known, one probe at `b − 1` tells
/// whether the candidate beats it, and only a winner is certified; a
/// first candidate under `warm > 0` is probed at `warm`, and once the
/// best value is `warm` no later candidate can beat it. The chosen order
/// is the same either way; the trace then lists only the winners.
///
/// Returns the trace and the winner's scan, its analysis's warm bound
/// set to the winner's value: under `warm` 0 its certified bound.
///
/// Each evaluated candidate is an `ordering.candidate` span (`k`, the
/// scanned `cubes`, and its `outcome`: `certified` or `probed`).
///
/// # Errors
///
/// The first error of `candidate` or of a certification, in `k` order.
pub(crate) fn search(
    k_cap: usize,
    warm: u64,
    certify_all: bool,
    cubes: usize,
    mut candidate: impl FnMut(usize) -> Result<(Vec<usize>, Scan), OrderingError>,
) -> Result<(IOrderingTrace, Option<Scan>), OrderingError> {
    let mut trace = IOrderingTrace {
        k_values: Vec::new(),
        bottleneck_values: Vec::new(),
        chosen_k: 0,
        order: Vec::new(),
    };
    let mut best: Option<u64> = None;
    let mut winner: Option<Scan> = None;
    for k in 1..=k_cap {
        if !certify_all && best.is_some_and(|b| b <= warm) {
            break;
        }
        let mut span = minitrace::span_with(
            "ordering.candidate",
            &[("k", k.into()), ("cubes", cubes.into())],
        );
        let (order, mut scan) = candidate(k)?;
        let bound = scan.bound();
        let (value, outcome) = if certify_all {
            (bound.certify(warm)?, "certified")
        } else if let Some(b) = best {
            if !bound.feasible(b - 1) {
                // Beaten or tied: the exit rule fires.
                span.record("outcome", "probed");
                break;
            }
            (bound.certify(warm)?, "certified")
        } else if warm > 0 && bound.feasible(warm) {
            (warm, "probed")
        } else {
            // After a failed probe at `warm` the bound exceeds it.
            (
                bound.certify(warm.saturating_add(u64::from(warm > 0)))?,
                "certified",
            )
        };
        span.record("outcome", outcome);
        trace.k_values.push(k);
        trace.bottleneck_values.push(value);
        if best.is_some_and(|b| value >= b) {
            break;
        }
        best = Some(value);
        trace.chosen_k = k;
        trace.order = order;
        scan.analysis.warm_lb = value;
        winner = Some(scan);
    }
    Ok((trace, winner))
}
