//! Scoring and searching Algorithm 3's candidate orders, for the global
//! and the banded I-ordering alike.
//!
//! A candidate's value is the optimal DP-fill peak of the cubes in its
//! order: the generalized BCP lower bound of that order's intervals and
//! forced toggles. [`scan`] finds both with the analyzer's cube-major
//! kernel, reading the packed cubes in candidate order one 64-pin word
//! at a time, with no transpose; [`ByEnd`] reads the bound problem in
//! place. [`search`] then runs the paper's exit rule, deciding a
//! candidate during its scan and certifying only a winner, and hands the
//! winner's scan back: a resident DP-fill solves it as its analysis, or
//! under the unit objective takes the solve that certified the winner as
//! its coloring.

use dpfill_cubes::CubeSet;

use crate::bcp::{ByEnd, Pour};
use crate::stream::analyze::{chunks, forced_totals, Analysis, Analyzed, ChunkScan, Colored, Keep};

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

/// What [`search`] asks of a candidate's [`scan`].
#[derive(Default)]
pub(crate) struct Ask {
    /// Decide the candidate at this peak during its scan.
    pub decide: Option<u64>,
    /// Buffers the scan's chunks grow their starts in, chunk by chunk:
    /// the winner's, once its coloring took their place.
    pub starts: Vec<Vec<u32>>,
}

/// A candidate's scan, or how far a deciding scan read before its
/// candidate was beaten.
pub(crate) enum Scanned {
    /// The whole order was scanned.
    Full(Scan),
    /// The pour at the decision peak failed after `cubes` cubes; the
    /// partial groups are dropped.
    Beaten { cubes: usize },
}

/// How many cubes a deciding scan reads between two feeds of its pour:
/// a beaten candidate stops at most this far past the end its pour
/// misses at.
const DECIDE_BATCH: usize = 1024;

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
/// With [`Ask::decide`], the candidate is decided during its scan: the
/// cubes are scanned in batches, and after each batch the ends it closed
/// in every chunk feed one [`Pour`] at that peak over the unit forced
/// baseline. The scan stops as [`Scanned::Beaten`] at the pour's first
/// miss or at a baseline above the peak — exactly when the full scan's
/// [`ByEnd::feasible`] at the peak is `false`.
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
    ask: Ask,
) -> Result<Scanned, OrderingError> {
    scan_batched(cubes, order, keep, weights, ask, DECIDE_BATCH)
}

/// [`scan`], deciding every `batch` cubes.
fn scan_batched(
    cubes: &CubeSet,
    order: &[usize],
    keep: Keep,
    weights: Option<&[u64]>,
    ask: Ask,
    batch: usize,
) -> Result<Scanned, OrderingError> {
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
    for (ch, starts) in scans.iter_mut().zip(ask.starts) {
        ch.grow_starts_in(starts);
    }
    let mut pour = (ask.decide).map(|peak| Pour::new(order.len().saturating_sub(1), peak));
    let batch = if pour.is_some() { batch } else { order.len() };
    let (mut unit, mut weighted, mut overflow) = (Vec::new(), Vec::new(), false);
    for (t0, part) in (0..).step_by(batch.max(1)).zip(order.chunks(batch.max(1))) {
        let tallies = minipool::parallel_chunks_mut(&mut scans, 1, |_, scans| {
            let tallies = scans.iter_mut().map(|ch| {
                let in_order = part.iter().map(|&c| &planes[c]);
                ch.scan(in_order, t0, keep, weights, None)
            });
            tallies.collect::<Vec<_>>()
        });
        let tallies: Vec<_> = tallies.into_iter().flatten().collect();
        let (mut forced, forced_weighted, o) = forced_totals(&tallies, weights.is_some());
        // A set of no pin words closes nothing, yet has its transitions.
        forced.resize(part.len() - usize::from(t0 == 0), 0);
        unit.extend(forced);
        weighted.extend(forced_weighted);
        overflow |= o;
        if let Some(pour) = &mut pour {
            let groups: Vec<_> = scans.iter().map(ChunkScan::groups).collect();
            if !pour.feed(&groups, &unit) {
                let cubes = t0 + part.len();
                return Ok(Scanned::Beaten { cubes });
            }
        }
    }
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
        overflow,
        ..Analysis::default()
    };
    Ok(Scanned::Full(Scan { analysis, unit }))
}

/// Algorithm 3's search for the interleave factor, shared by the global
/// and the banded I-ordering. `candidate(k, ask)` builds factor `k`'s
/// order and scans it as `ask` asks (see [`scan`]); a candidate's value
/// is `max(warm, bound)`, and the search stops at the first `k` whose
/// value does not improve on the best so far (the paper's exit rule).
///
/// With `certify_all` every evaluated candidate's value is certified and
/// recorded, as Fig. 2(a)/(b) plot them. Otherwise a candidate is
/// decided: once the best value `b` is known, its scan feeds a pour at
/// `b − 1` and stops at the pour's first miss, which means the candidate
/// cannot beat `b`; only a winner, which scans in full, is certified. A
/// first candidate under `warm > 0` is probed at `warm`, and once the
/// best value is `warm` no later candidate can beat it. The chosen order
/// is the same either way; the trace then lists only the winners.
///
/// With `color` (under `warm` 0 only) each certification is the unit
/// solve of the candidate's bound problem ([`ByEnd::solve_with`]),
/// whose recorded, verified coloring a winner keeps as
/// [`Analyzed::Colored`] in place of its starts: the caller's plan
/// solves that same problem. The next candidate's scan grows its starts
/// in the winner's old buffers, so the search holds no more than it did
/// before coloring.
///
/// Returns the trace and the winner's analysis, its warm bound set to
/// the winner's value: under `warm` 0 its certified bound.
///
/// Each evaluated candidate is an `ordering.candidate` span (`k`, the
/// `cubes` of its order, and on exit the `cubes_scanned` and its
/// `outcome`: `certified` or `probed`).
///
/// # Errors
///
/// The first error of `candidate` or of a certification, in `k` order.
pub(crate) fn search(
    k_cap: usize,
    warm: u64,
    certify_all: bool,
    color: bool,
    cubes: usize,
    mut candidate: impl FnMut(usize, Ask) -> Result<(Vec<usize>, Scanned), OrderingError>,
) -> Result<(IOrderingTrace, Option<Analyzed>), OrderingError> {
    debug_assert!(warm == 0 || !color, "a coloring certifies from floor 0");
    let mut trace = IOrderingTrace {
        k_values: Vec::new(),
        bottleneck_values: Vec::new(),
        chosen_k: 0,
        order: Vec::new(),
    };
    let mut best: Option<u64> = None;
    let mut winner: Option<Analyzed> = None;
    // The colored winner's start buffers, for the next scan.
    let mut starts = Vec::new();
    for k in 1..=k_cap {
        if !certify_all && best.is_some_and(|b| b <= warm) {
            break;
        }
        let mut span = minitrace::span_with(
            "ordering.candidate",
            &[("k", k.into()), ("cubes", cubes.into())],
        );
        let decide = best.filter(|_| !certify_all).map(|b| b - 1);
        let ask = Ask {
            decide,
            starts: std::mem::take(&mut starts),
        };
        let (order, scanned) = candidate(k, ask)?;
        let mut scan = match scanned {
            Scanned::Full(scan) => scan,
            Scanned::Beaten { cubes } => {
                // Beaten or tied: the exit rule fires.
                span.record("cubes_scanned", cubes);
                span.record("outcome", "probed");
                break;
            }
        };
        span.record("cubes_scanned", scan.analysis.cols);
        if decide.is_some() {
            // It beats the winner so far, which is dropped before the
            // certification allocates.
            winner = None;
        }
        let ((value, coloring), outcome) = if certify_all || best.is_some() {
            (certify(&scan, warm, color)?, "certified")
        } else if warm > 0 && scan.bound().feasible(warm) {
            ((warm, None), "probed")
        } else {
            // After a failed probe at `warm` the bound exceeds it.
            let floor = warm.saturating_add(u64::from(warm > 0));
            (certify(&scan, floor, color)?, "certified")
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
        winner = Some(match coloring {
            Some(colors) => {
                let (colored, buffers) = Colored::new(scan.analysis, colors);
                starts = buffers;
                Analyzed::Colored(colored)
            }
            None => Analyzed::Stretches(scan.analysis),
        });
    }
    Ok((trace, winner))
}

/// `scan`'s value `max(floor, bound)`, and with `color` (`floor` 0) the
/// coloring of the unit solve that certifies it, verified at the bound.
fn certify(scan: &Scan, floor: u64, color: bool) -> Result<(u64, Option<Vec<u32>>), OrderingError> {
    if !color {
        return Ok((scan.bound().certify(floor)?, None));
    }
    let (solution, _) = scan.bound().solve_with(None)?;
    Ok((solution.lower_bound, Some(solution.coloring.into_colors())))
}

#[cfg(test)]
mod tests {
    use dpfill_cubes::gen::random_cube_set;
    use dpfill_cubes::packed::PackedCubeSet;
    use dpfill_cubes::CubeSet;

    use super::*;

    /// The full scan of `cubes` in `order`.
    fn full(cubes: &CubeSet, order: &[usize], weights: Option<&[u64]>) -> Scan {
        match scan_batched(cubes, order, Keep::Pins, weights, Ask::default(), 1).unwrap() {
            Scanned::Full(scan) => scan,
            Scanned::Beaten { .. } => unreachable!("an undecided scan reads every cube"),
        }
    }

    /// The unit forced baseline the decision reads.
    fn unit_baseline(scan: &Scan) -> &[u64] {
        if scan.unit.is_empty() {
            &scan.analysis.baseline
        } else {
            &scan.unit
        }
    }

    /// Is the bound of the first `m` cubes of `order` at most `peak`?
    /// They hold exactly the walk's first `m − 1` colors. The bound is
    /// certified by the gallop-and-bisect search, which shares no code
    /// with [`Pour`].
    fn prefix_feasible(cubes: &CubeSet, order: &[usize], m: usize, peak: u64) -> bool {
        let mut prefix = PackedCubeSet::new(cubes.width());
        for &c in &order[..m] {
            prefix.push(cubes.as_packed().cube(c).clone());
        }
        let prefix = CubeSet::from_packed(prefix);
        let identity: Vec<usize> = (0..m).collect();
        full(&prefix, &identity, None).bound().certify(0).unwrap() <= peak
    }

    #[test]
    fn a_batched_decision_is_the_full_scan_and_its_probe() {
        // Stops seen: a pour miss in the first batch, one in the last
        // batch, and a baseline above the peak.
        let mut seen = [0usize; 3];
        for seed in 0..240u64 {
            let width = [5, 70, 600][seed as usize % 3];
            let count = 3 + (seed as usize * 7) % 38;
            let density = [0.3, 0.6, 0.85, 0.95][seed as usize / 3 % 4];
            let cubes = random_cube_set(width, count, density, seed);
            let mut order: Vec<usize> = (0..count).collect();
            if seed % 2 == 1 {
                order.reverse();
            }
            let weights: Vec<u64> = (0..width as u64).map(|p| 1 + p % 3).collect();
            let weights = (seed % 5 == 0).then_some(&weights[..]);
            let reference = full(&cubes, &order, weights);
            let bound = reference.bound().certify(0).unwrap();
            let max_base = unit_baseline(&reference).iter().copied().max();
            let mut peaks = vec![bound, bound.saturating_sub(1), bound / 2, bound + 1];
            peaks.extend(max_base.and_then(|b| b.checked_sub(1)));
            for peak in peaks {
                let feasible = bound <= peak;
                assert_eq!(reference.bound().feasible(peak), feasible, "seed {seed}");
                for batch in [1, 2, 3, 8] {
                    let what = format!("seed {seed} peak {peak} batch {batch}");
                    let ask = Ask {
                        decide: Some(peak),
                        starts: Vec::new(),
                    };
                    let decided = scan_batched(&cubes, &order, Keep::Pins, weights, ask, batch);
                    match decided.unwrap() {
                        Scanned::Full(scan) => {
                            assert!(feasible, "{what}: decided feasible");
                            let (a, r) = (&scan.analysis, &reference.analysis);
                            assert_eq!(a.baseline, r.baseline, "{what}");
                            assert_eq!(scan.unit, reference.unit, "{what}");
                            assert_eq!(a.first_values, r.first_values, "{what}");
                            assert_eq!(a.cols, r.cols, "{what}");
                            for (g, h) in a.chunks.iter().zip(&r.chunks) {
                                assert_eq!((&g.starts, &g.keys), (&h.starts, &h.keys), "{what}");
                                assert_eq!(g.by_end, h.by_end, "{what}");
                            }
                        }
                        Scanned::Beaten { cubes: m } => {
                            assert!(!feasible, "{what}: decided infeasible");
                            // It stops after the first batch whose prefix
                            // is infeasible.
                            assert!(m == count || m % batch == 0, "{what}: stopped at {m}");
                            assert!(!prefix_feasible(&cubes, &order, m, peak), "{what}");
                            if m > batch {
                                let before = (m - 1) / batch * batch;
                                assert!(prefix_feasible(&cubes, &order, before, peak), "{what}");
                            }
                            let known = &unit_baseline(&reference)[..m - 1];
                            let above = known.iter().any(|&b| b > peak);
                            if above {
                                seen[2] += 1;
                            } else if batch > 1 && m <= batch && batch < count {
                                seen[0] += 1;
                            } else if batch > 1 && m == count && count > batch {
                                seen[1] += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "cases seen: {seen:?}");
    }
}
