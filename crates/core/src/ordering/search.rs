//! Scoring and searching Algorithm 3's candidate orders, for the global
//! and the banded I-ordering alike.
//!
//! A candidate's value is the optimal DP-fill peak of the cubes in its
//! order: the generalized BCP lower bound of that order's intervals and
//! forced toggles. [`scan`] finds both with the analyzer's cube-major
//! kernel, reading the packed cubes in candidate order one 64-pin word
//! at a time, with no transpose and no pins; [`UnitBound`] holds the
//! bound problem. [`search`]
//! then runs the paper's exit rule, deciding a candidate with one probe
//! and certifying only a winner.

use dpfill_cubes::CubeSet;

use crate::bcp::{EndGroups, UnitBound};
use crate::stream::analyze::{scan_words, WordState};

use super::{is_permutation, IOrderingTrace, OrderingError};

/// The bound problem of `cubes` read in `order`: each `v X…X w`
/// stretch (v ≠ w) of a pin as the interval `(left, right − 1)` of the
/// transitions its toggle may take, each pair of adjacent opposite care
/// bits as one forced toggle on the baseline — the interval multiset and
/// baseline of the §V-C mapping of the reordered set, so the bound is
/// the mapping's.
///
/// The scan is the analyzer's cube-major kernel
/// ([`scan_words`](crate::stream::analyze::scan_words)) over the cubes
/// in candidate order, with no transpose and no pins recorded: pin words
/// fan out over the current [`minipool`] pool, and each chunk's
/// intervals, grouped by end as they close, are probed in place.
///
/// # Errors
///
/// [`OrderingError::MalformedSchedule`] when `order` is not a
/// permutation of the cubes.
///
/// # Panics
///
/// Panics beyond `u32::MAX` cubes, the analysis's column range.
pub(crate) fn scan(cubes: &CubeSet, order: &[usize]) -> Result<UnitBound, OrderingError> {
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
    let colors = order.len().saturating_sub(1);
    let planes = cubes.as_packed().cubes();
    // At least 8 words a chunk: each cube then hands a chunk one whole
    // 64-byte line of each plane.
    let chunks = minipool::parallel_index_chunks(cubes.width().div_ceil(64), 8, |words| {
        let mut states = vec![WordState::EMPTY; words.len()];
        let in_order = order.iter().map(|&c| &planes[c]);
        scan_words(in_order, 0, &mut states, words.start, (false, false), None)
    });
    let mut baseline = vec![0u64; colors];
    let mut groups = Vec::with_capacity(chunks.len());
    for ev in chunks {
        for (total, &n) in baseline.iter_mut().zip(&ev.forced) {
            *total += u64::from(n);
        }
        groups.push(EndGroups {
            starts: ev.starts,
            by_end: ev.by_end,
        });
    }
    Ok(UnitBound::new(groups, baseline))
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
    mut candidate: impl FnMut(usize) -> Result<(Vec<usize>, UnitBound), OrderingError>,
) -> Result<IOrderingTrace, OrderingError> {
    let mut trace = IOrderingTrace {
        k_values: Vec::new(),
        bottleneck_values: Vec::new(),
        chosen_k: 0,
        order: Vec::new(),
    };
    let mut best: Option<u64> = None;
    for k in 1..=k_cap {
        if !certify_all && best.is_some_and(|b| b <= warm) {
            break;
        }
        let mut span = minitrace::span_with(
            "ordering.candidate",
            &[("k", k.into()), ("cubes", cubes.into())],
        );
        let (order, bound) = candidate(k)?;
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
    }
    Ok(trace)
}
