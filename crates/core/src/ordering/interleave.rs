use dpfill_cubes::CubeSet;

use super::search::{scan, search, Ask, Scanned};
use super::{OrderingError, OrderingStrategy};
use crate::stream::analyze::{Analyzed, Keep};

/// The paper's I-ordering (Algorithm 3): interleaved test-vector
/// ordering.
///
/// Cubes are first sorted by ascending don't-care count (`T'`). For an
/// interleave factor `k`, the schedule takes one X-poor cube from the
/// front of `T'` followed by `k` X-rich cubes from the back, repeating
/// until fewer than `k+1` cubes remain (leftovers are appended). Larger
/// `k` surrounds every hard, heavily specified cube with soft all-X-ish
/// cubes, stretching each pin's don't-care runs so DP-fill has more room
/// to spread toggles.
///
/// `k` starts at 1 and grows while the bottleneck value (the optimal
/// DP-fill peak of the candidate order, computed with Algorithms 1+2)
/// keeps improving — the paper observes O(log n) growth steps
/// (Fig 2(a)/(b)), which [`IOrderingTrace`] lets you reproduce. A
/// candidate is scored by one cube-major scan of the packed cubes in its
/// order ([`IOrdering::bottleneck`]); [`OrderingStrategy::order`] then
/// decides each later candidate during its scan, with one feasibility
/// pour against the best value that stops the scan at its first miss,
/// and certifies only winners.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IOrdering {
    max_k: Option<usize>,
}

/// The per-iteration record of Algorithm 3's search for `k`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IOrderingTrace {
    /// Evaluated interleave factors, in order (`1, 2, …`).
    pub k_values: Vec<usize>,
    /// Optimal bottleneck value (DP-fill peak) for each `k`.
    pub bottleneck_values: Vec<u64>,
    /// The chosen factor (argmin of `bottleneck_values`).
    pub chosen_k: usize,
    /// The chosen permutation.
    pub order: Vec<usize>,
}

impl IOrderingTrace {
    /// Number of `while` iterations Algorithm 3 executed — the quantity
    /// the paper plots against `log n` in Fig 2(b).
    pub fn iterations(&self) -> usize {
        self.k_values.len()
    }
}

impl IOrdering {
    /// I-ordering with the paper's stopping rule (grow `k` until the
    /// bottleneck stops improving).
    pub fn new() -> IOrdering {
        IOrdering { max_k: None }
    }

    /// I-ordering that additionally caps `k` (useful for sweeps).
    pub fn with_max_k(max_k: usize) -> IOrdering {
        IOrdering { max_k: Some(max_k) }
    }

    /// Builds the interleaved schedule for a fixed `k` over cubes sorted
    /// as `sorted` (ascending X count). Exposed for the Fig 2(a) sweep.
    pub fn schedule_for_k(sorted: &[usize], k: usize) -> Vec<usize> {
        let n = sorted.len();
        if n == 0 {
            return Vec::new();
        }
        let rounds = n / (k + 1);
        let mut order = Vec::with_capacity(n);
        for i in 0..rounds {
            // One X-poor cube from the front…
            order.push(sorted[i]);
            // …then k X-rich cubes from the back, descending.
            let back_hi = n - i * k; // exclusive
            for j in 1..=k {
                order.push(sorted[back_hi - j]);
            }
        }
        // Leftovers (fewer than k+1): the middle slice, in sorted order.
        let taken_front = rounds;
        let taken_back = rounds * k;
        for &idx in &sorted[taken_front..n - taken_back] {
            order.push(idx);
        }
        order
    }

    /// The optimal bottleneck (DP-fill peak) of `cubes` under `order` —
    /// Algorithm 3's candidate value and the y-axis of Fig 2(a). The
    /// cubes are read in `order` straight from their packed planes: no
    /// reordered set, no transpose and no interval sites are built.
    ///
    /// # Errors
    ///
    /// [`OrderingError::MalformedSchedule`] when `order` is not a
    /// permutation of the cubes; [`OrderingError::Bound`] when the bound
    /// overflows the load model (absurd inputs only).
    pub fn bottleneck(cubes: &CubeSet, order: &[usize]) -> Result<u64, OrderingError> {
        match scan(cubes, order, Keep::Starts, None, Ask::default())? {
            Scanned::Full(scan) => Ok(scan.bound().certify(0)?),
            Scanned::Beaten { .. } => unreachable!("an undecided scan reads every cube"),
        }
    }

    /// Runs Algorithm 3, certifying every candidate's value, and returns
    /// the full trace.
    ///
    /// # Errors
    ///
    /// [`OrderingError::Bound`] when a candidate's bottleneck evaluation
    /// overflows the load model (absurd inputs only).
    pub fn order_with_trace(&self, cubes: &CubeSet) -> Result<IOrderingTrace, OrderingError> {
        Ok(self.run(cubes, true, Keep::Starts, None, false)?.0)
    }

    /// [`OrderingStrategy::order`] that also returns the analysis of the
    /// set in the chosen order: the winning candidate's scan, keeping
    /// what `keep` asks of each stretch and weighing forced toggles by
    /// `weights`, warmed by its certified bound — so a resident DP-fill
    /// solves the scan Algorithm 3 already made. With `color`, for a
    /// caller whose solve is the unit bound problem itself (`weights`
    /// `None`, no preference), each winner is certified by that solve,
    /// and the analysis is [`Analyzed::Colored`] by it: the solve is
    /// done. `None` when the search evaluates no candidate (at most two
    /// cubes).
    ///
    /// # Errors
    ///
    /// As [`OrderingStrategy::order`];
    /// [`BcpError::BoundNotMet`](crate::BcpError::BoundNotMet) when the
    /// certifying solve's verified peak is not its bound.
    pub(crate) fn order_analyzed(
        &self,
        cubes: &CubeSet,
        keep: Keep,
        weights: Option<&[u64]>,
        color: bool,
    ) -> Result<(Vec<usize>, Option<Analyzed>), OrderingError> {
        let (trace, winner) = self.run(cubes, false, keep, weights, color)?;
        Ok((trace.order, winner))
    }

    /// Algorithm 3 over the whole set, each candidate scanned keeping
    /// `keep` under `weights`; `certify_all` and `color` as in
    /// [`search`], which also returns the winner's analysis. Traced as
    /// an `ordering.order` span.
    fn run(
        &self,
        cubes: &CubeSet,
        certify_all: bool,
        keep: Keep,
        weights: Option<&[u64]>,
        color: bool,
    ) -> Result<(IOrderingTrace, Option<Analyzed>), OrderingError> {
        let n = cubes.len();
        let _span = minitrace::span_with("ordering.order", &[("cubes", n.into())]);
        if n <= 2 {
            let trace = IOrderingTrace {
                k_values: Vec::new(),
                bottleneck_values: Vec::new(),
                chosen_k: 0,
                order: (0..n).collect(),
            };
            return Ok((trace, None));
        }
        let sorted = sorted_by_x_count(cubes);
        let k_cap = self.max_k.unwrap_or(n - 1).min(n - 1);
        // Each candidate's scan fans its pin words out over the pool, so
        // candidates run one after another in k order.
        let (mut trace, winner) = search(k_cap, 0, certify_all, color, n, |k, ask| {
            let candidate = Self::schedule_for_k(&sorted, k);
            let scanned = scan(cubes, &candidate, keep, weights, ask)?;
            Ok((candidate, scanned))
        })?;
        if trace.chosen_k == 0 {
            trace.order = (0..n).collect();
        }
        Ok((trace, winner))
    }
}

/// `T'`: cube indices by ascending don't-care count, stable by index.
pub(super) fn sorted_by_x_count(cubes: &CubeSet) -> Vec<usize> {
    let x_counts = cubes.x_counts();
    let mut sorted: Vec<usize> = (0..cubes.len()).collect();
    sorted.sort_by_key(|&i| (x_counts[i], i));
    sorted
}

impl OrderingStrategy for IOrdering {
    fn name(&self) -> &'static str {
        "I-order"
    }

    /// Algorithm 3 deciding instead of certifying: a candidate after the
    /// first is scanned only until its pour against the best value
    /// misses, and only a winner is certified. The order equals
    /// [`IOrdering::order_with_trace`]'s.
    fn order(&self, cubes: &CubeSet) -> Result<Vec<usize>, OrderingError> {
        Ok(self.run(cubes, false, Keep::Starts, None, false)?.0.order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fill::{DpFill, FillStrategy};
    use crate::ordering::is_permutation;
    use dpfill_cubes::{gen::CubeProfile, peak_toggles};

    #[test]
    fn schedule_shape_matches_algorithm3() {
        // n=7, k=2: rounds = 7/3 = 2.
        // Round 1: front[0], back: idx 6,5. Round 2: front[1], back: 4,3.
        // Leftover: idx 2.
        let sorted: Vec<usize> = (0..7).collect();
        let s = IOrdering::schedule_for_k(&sorted, 2);
        assert_eq!(s, vec![0, 6, 5, 1, 4, 3, 2]);
    }

    #[test]
    fn schedule_k1_alternates_front_back() {
        let sorted: Vec<usize> = (0..6).collect();
        let s = IOrdering::schedule_for_k(&sorted, 1);
        assert_eq!(s, vec![0, 5, 1, 4, 2, 3]);
    }

    #[test]
    fn schedule_is_always_a_permutation() {
        for n in 1..25usize {
            let sorted: Vec<usize> = (0..n).collect();
            for k in 1..n.max(2) {
                let s = IOrdering::schedule_for_k(&sorted, k);
                assert!(is_permutation(&s, n), "n={n} k={k} produced {s:?}");
            }
        }
    }

    #[test]
    fn trace_is_consistent() {
        let cubes = CubeProfile::new(40, 30).x_percent(80.0).generate(13);
        let trace = IOrdering::new().order_with_trace(&cubes).unwrap();
        assert!(is_permutation(&trace.order, cubes.len()));
        assert_eq!(trace.k_values.len(), trace.bottleneck_values.len());
        assert!(trace.iterations() >= 1);
        // chosen_k is the argmin.
        let min = trace.bottleneck_values.iter().min().unwrap();
        let arg = trace.k_values[trace
            .bottleneck_values
            .iter()
            .position(|v| v == min)
            .unwrap()];
        assert_eq!(trace.chosen_k, arg);
    }

    #[test]
    fn improves_dp_fill_peak_on_x_rich_cubes() {
        let cubes = CubeProfile::new(60, 40)
            .x_percent(85.0)
            .flip_probability(0.4)
            .generate(23);
        let tool_peak = peak_toggles(&DpFill::new().fill(&cubes)).unwrap();
        let order = IOrdering::new().order(&cubes).unwrap();
        let reordered = cubes.reordered(&order).unwrap();
        let i_peak = peak_toggles(&DpFill::new().fill(&reordered)).unwrap();
        assert!(
            i_peak <= tool_peak,
            "I-ordering ({i_peak}) must not lose to tool order ({tool_peak})"
        );
    }

    #[test]
    fn stops_after_logarithmically_many_iterations() {
        let cubes = CubeProfile::new(50, 120).x_percent(85.0).generate(31);
        let trace = IOrdering::new().order_with_trace(&cubes).unwrap();
        let log_n = (cubes.len() as f64).log2().ceil() as usize;
        assert!(
            trace.iterations() <= 6 * log_n + 2,
            "{} iterations for n={} (log n = {log_n})",
            trace.iterations(),
            cubes.len()
        );
    }

    #[test]
    fn tiny_sets() {
        let cubes = CubeSet::parse_rows(&["0X", "1X"]).unwrap();
        let trace = IOrdering::new().order_with_trace(&cubes).unwrap();
        assert_eq!(trace.order, vec![0, 1]);
        assert_eq!(trace.chosen_k, 0);
    }

    #[test]
    fn malformed_schedule_is_a_typed_error_not_a_panic() {
        // Regression: this used to `assert!` — which a pooled streaming
        // worker surfaced as an opaque `WindowPanicked`.
        let cubes = CubeSet::parse_rows(&["0X", "1X", "XX"]).unwrap();
        for bad in [&[0usize, 1][..], &[0, 1, 1], &[0, 1, 3]] {
            let err = IOrdering::bottleneck(&cubes, bad).unwrap_err();
            match err {
                crate::ordering::OrderingError::MalformedSchedule { len, expected } => {
                    assert_eq!(len, bad.len());
                    assert_eq!(expected, 3);
                }
                other => panic!("expected MalformedSchedule, got {other}"),
            }
            assert!(err.to_string().contains("not a permutation"), "{err}");
        }
        // A well-formed schedule still evaluates.
        assert!(IOrdering::bottleneck(&cubes, &[2, 0, 1]).is_ok());
    }
}
