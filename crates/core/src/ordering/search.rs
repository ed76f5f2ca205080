//! Scoring and searching Algorithm 3's candidate orders, for the global
//! and the banded I-ordering alike.
//!
//! A candidate's value is the optimal DP-fill peak of the cubes in its
//! order: the generalized BCP lower bound of that order's intervals and
//! forced toggles. [`scan`] finds both by reading the packed cubes in
//! candidate order, one 64-pin word at a time, with no transpose and no
//! interval sites; [`UnitBound`] holds the bound problem. [`search`]
//! then runs the paper's exit rule, deciding a candidate with one probe
//! and certifying only a winner.

use std::ops::Range;

use dpfill_cubes::packed::PackedBits;
use dpfill_cubes::CubeSet;

use crate::bcp::{EndGroups, UnitBound};

use super::{is_permutation, IOrderingTrace, OrderingError};

/// The bound problem of `cubes` read in `order`: each `v X…X w`
/// stretch (v ≠ w) of a pin as the interval `(left, right − 1)` of the
/// transitions its toggle may take, each pair of adjacent opposite care
/// bits as one forced toggle on the baseline — the interval multiset and
/// baseline of the §V-C mapping of the reordered set, so the bound is
/// the mapping's.
///
/// The scan is cube-major: pin words fan out over the current
/// [`minipool`] pool, and each word carries its previous care plane
/// `P`, the copy-left value plane `L` (each pin's last care value), the
/// seen plane `S` and a run start per pin. At cube `t` with care plane
/// `C` and value plane `V`, the pins of `C & !P & S & (V ^ L)` close the
/// interval (run start, `t − 1`), the pins of `P & !C` start a run at
/// `t − 1`, and `C & P & (V ^ L)` are forced toggles on transition
/// `t − 1`.
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
        scan_words(planes, order, words, colors)
    });
    let mut baseline = vec![0u64; colors];
    let mut groups = Vec::with_capacity(chunks.len());
    for (chunk, forced) in chunks {
        for (total, n) in baseline.iter_mut().zip(forced) {
            *total += u64::from(n);
        }
        groups.push(chunk);
    }
    Ok(UnitBound::new(groups, baseline))
}

/// [`scan`] over the pin words `words`: the chunk's intervals, grouped
/// by end as they close, and its forced toggles per transition.
fn scan_words(
    planes: &[PackedBits],
    order: &[usize],
    words: Range<usize>,
    colors: usize,
) -> (EndGroups, Vec<u32>) {
    let n = words.len();
    let (mut prev, mut left, mut seen) = (vec![0u64; n], vec![0u64; n], vec![0u64; n]);
    let mut run_start = vec![0u32; n * 64];
    let mut starts = Vec::new();
    let mut by_end = vec![0usize; colors + 1];
    let mut forced = vec![0u32; colors];
    for (t, &cube) in order.iter().enumerate() {
        let care = &planes[cube].care_words()[words.clone()];
        let value = &planes[cube].value_words()[words.clone()];
        // Transition t - 1 ends at cube t; nothing below fires at t = 0
        // because `P` and `S` are still empty.
        let at = (t as u32).wrapping_sub(1);
        if t > 0 {
            by_end[t - 1] = starts.len();
        }
        let mut toggles = 0u32;
        for w in 0..n {
            let (c, v, p) = (care[w], value[w], prev[w]);
            let runs = &mut run_start[w * 64..w * 64 + 64];
            let flips = v ^ left[w];
            let mut closes = c & !p & seen[w] & flips;
            while closes != 0 {
                starts.push(runs[closes.trailing_zeros() as usize]);
                closes &= closes - 1;
            }
            let mut opens = p & !c;
            while opens != 0 {
                runs[opens.trailing_zeros() as usize] = at;
                opens &= opens - 1;
            }
            toggles += (c & p & flips).count_ones();
            left[w] = (left[w] & !c) | v;
            seen[w] |= c;
            prev[w] = c;
        }
        if toggles != 0 {
            forced[at as usize] += toggles;
        }
    }
    by_end[colors] = starts.len();
    (EndGroups { starts, by_end }, forced)
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
