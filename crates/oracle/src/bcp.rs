//! Reference bounds and the exhaustive optimum for [`BcpInstance`]s.
//!
//! Interval `i` weighs [`BcpInstance::interval_load`]`(i)` everywhere in
//! this module; an unweighted instance is the special case of every load
//! being 1. With `with_baseline == false` the per-color baseline is
//! ignored — the paper's objective, which the production
//! [`BcpInstance::lower_bound_paper`] computes on unit instances.

use dpfill_core::bcp::{BcpError, BcpInstance};

/// What overflows when a window's load sum exceeds `u64`.
const WINDOW_OVERFLOW: &str = "windowed load (intervals + baseline)";

fn window_overflow() -> BcpError {
    BcpError::Overflow {
        what: WINDOW_OVERFLOW,
    }
}

/// The per-color baseline the bound counts: the instance's, or zeros.
fn counted_baseline(inst: &BcpInstance, with_baseline: bool) -> Vec<u64> {
    if with_baseline {
        inst.baseline().to_vec()
    } else {
        vec![0; inst.num_colors()]
    }
}

/// Algorithm 1 verbatim, load-weighted: the O(C²) row dynamic program
/// over `T[i][j]`, the load of the intervals with `start ≥ i` and
/// `end ≤ j`, which satisfies
/// `T[i][j] = T[i][j−1] + T[i+1][j] − T[i+1][j−1] + load(start = i ∧ end = j)`.
/// The bound is `max ⌈(T[i][j] + baseline[i..=j]) / (j − i + 1)⌉`, and
/// at least `max_t baseline_t`. O(C) space besides the instance.
///
/// One kernel serves unit and weighted instances, the way the
/// EDD-ordered 1‖ΣwⱼUⱼ dynamic program treats unit weights as its
/// special case: a unit load adds 1 to `T`, a weighted one adds its
/// load.
///
/// # Errors
///
/// Returns [`BcpError::Overflow`] when a baseline prefix sum or a
/// windowed load sum exceeds `u64`.
pub fn lower_bound_dp(inst: &BcpInstance, with_baseline: bool) -> Result<u64, BcpError> {
    let intervals: Vec<(u32, u32, u64)> = (inst.intervals().iter().enumerate())
        .map(|(i, iv)| (iv.start(), iv.end(), inst.interval_load(i)))
        .collect();
    window_bound_dp(&counted_baseline(inst, with_baseline), &intervals)
        .map_err(|what| BcpError::Overflow { what })
}

/// [`lower_bound_dp`] over plain data: `(start, end, load)` intervals
/// over the `baseline.len()` colors of `baseline`. A crate's own unit
/// tests pass this form, since the production types they build are not
/// the ones this crate links.
///
/// # Errors
///
/// What overflowed, when a baseline prefix sum or a windowed load sum
/// exceeds `u64`.
pub fn window_bound_dp(
    baseline: &[u64],
    intervals: &[(u32, u32, u64)],
) -> Result<u64, &'static str> {
    let c = baseline.len();
    if c == 0 {
        return Ok(0);
    }
    // exact_by_start[i] lists (end, load) of the intervals starting at i.
    let mut exact_by_start: Vec<Vec<(usize, u64)>> = vec![Vec::new(); c];
    for &(start, end, load) in intervals {
        exact_by_start[start as usize].push((end as usize, load));
    }
    // pre[j] = baseline[0] + … + baseline[j − 1].
    let mut pre = vec![0u64; c + 1];
    for t in 0..c {
        pre[t + 1] = pre[t]
            .checked_add(baseline[t])
            .ok_or("baseline prefix sum")?;
    }
    let mut best = baseline.iter().copied().max().unwrap_or(0);
    // prev[j] = T[i+1][j]; cur[j] = T[i][j]. Row i is processed from the
    // last color down to 0.
    let mut prev = vec![0u64; c];
    let mut cur = vec![0u64; c];
    let mut add = vec![0u64; c];
    for i in (0..c).rev() {
        add.fill(0);
        for &(e, w) in &exact_by_start[i] {
            add[e] = add[e].checked_add(w).ok_or(WINDOW_OVERFLOW)?;
        }
        cur[..i].fill(0);
        for j in i..c {
            let (t_left, t_diag) = if j > i {
                (cur[j - 1], prev[j - 1])
            } else {
                (0, 0)
            };
            // T[i][j-1] ⊇ T[i+1][j-1], so the subtraction cannot
            // underflow, and ordering it first avoids a spurious
            // intermediate overflow.
            cur[j] = (t_left - t_diag)
                .checked_add(prev[j])
                .and_then(|v| v.checked_add(add[j]))
                .ok_or(WINDOW_OVERFLOW)?;
            let numerator = cur[j]
                .checked_add(pre[j + 1] - pre[i])
                .ok_or(WINDOW_OVERFLOW)?;
            best = best.max(numerator.div_ceil((j - i + 1) as u64));
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    Ok(best)
}

/// The bound by direct counting: every window `[i, j]` re-sums the loads
/// of the intervals inside it and its baseline, O(C²·k). The reference
/// the DP and the production engine are both pinned against on small
/// instances.
///
/// # Errors
///
/// Returns [`BcpError::Overflow`] when a windowed load sum exceeds
/// `u64`.
pub fn lower_bound_naive(inst: &BcpInstance, with_baseline: bool) -> Result<u64, BcpError> {
    let c = inst.num_colors();
    let baseline = counted_baseline(inst, with_baseline);
    let mut best = baseline.iter().copied().max().unwrap_or(0);
    for i in 0..c {
        for j in i..c {
            let mut numerator = 0u64;
            for (idx, iv) in inst.intervals().iter().enumerate() {
                if iv.within(i as u32, j as u32) {
                    numerator = numerator
                        .checked_add(inst.interval_load(idx))
                        .ok_or_else(window_overflow)?;
                }
            }
            for &b in &baseline[i..=j] {
                numerator = numerator.checked_add(b).ok_or_else(window_overflow)?;
            }
            best = best.max(numerator.div_ceil((j - i + 1) as u64));
        }
    }
    Ok(best)
}

/// Exhaustive minimum of the true peak `max_t (baseline_t + load_t)`
/// over every placement — O(∏ len(interval)), for tiny instances only.
/// Sums saturate, so the value is not meaningful near `u64::MAX` loads.
pub fn brute_force_min_peak(inst: &BcpInstance) -> u64 {
    fn rec(inst: &BcpInstance, idx: usize, load: &mut [u64], best: &mut u64) {
        let baseline = inst.baseline();
        let Some(iv) = inst.intervals().get(idx) else {
            let peak = load
                .iter()
                .zip(baseline)
                .map(|(l, b)| l.saturating_add(*b))
                .max()
                .unwrap_or(0);
            *best = (*best).min(peak);
            return;
        };
        let w = inst.interval_load(idx);
        for t in iv.start()..=iv.end() {
            let slot = t as usize;
            let old = load[slot];
            load[slot] = old.saturating_add(w);
            // Prune: partial peak already ≥ best.
            let partial = load[slot].saturating_add(baseline[slot]);
            if partial < *best || *best == 0 {
                rec(inst, idx + 1, load, best);
            }
            load[slot] = old;
        }
    }
    if inst.num_colors() == 0 {
        return 0;
    }
    let mut best = u64::MAX;
    rec(inst, 0, &mut vec![0; inst.num_colors()], &mut best);
    if best == u64::MAX {
        // No intervals: the peak is the baseline's max.
        inst.baseline().iter().copied().max().unwrap_or(0)
    } else {
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpfill_core::bcp::{IncrementalBound, SolveOptions};
    use dpfill_core::Interval;

    fn instance(n_colors: usize, ivs: &[(u32, u32)]) -> BcpInstance {
        let mut inst = BcpInstance::new(n_colors);
        for &(s, e) in ivs {
            inst.add_interval(Interval::new(s, e)).unwrap();
        }
        inst
    }

    /// Cross-checks the production bound against both oracles on a
    /// small instance and returns the agreed value.
    fn agreed_bound(inst: &BcpInstance, with_baseline: bool) -> u64 {
        let parametric = if with_baseline {
            inst.lower_bound().unwrap()
        } else {
            inst.lower_bound_paper().unwrap()
        };
        assert_eq!(parametric, lower_bound_dp(inst, with_baseline).unwrap());
        assert_eq!(parametric, lower_bound_naive(inst, with_baseline).unwrap());
        parametric
    }

    /// Deterministic pseudo-random weight in 1..=16.
    fn pseudo_weight(seed: u64) -> u64 {
        (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) + 1
    }

    fn weighted_instance(n_colors: usize, ivs: &[(u32, u32, u64)]) -> BcpInstance {
        let mut inst = BcpInstance::new(n_colors);
        for &(s, e, w) in ivs {
            inst.add_weighted_interval(Interval::new(s, e), w).unwrap();
        }
        inst
    }

    #[test]
    fn empty_instance() {
        let inst = BcpInstance::new(5);
        assert_eq!(agreed_bound(&inst, false), 0);
        assert_eq!(agreed_bound(&inst, true), 0);
        let sol = inst.solve().unwrap();
        assert_eq!(sol.peak.with_baseline, 0);
    }

    #[test]
    fn pigeonhole_bound() {
        // Three identical point intervals must share one color.
        let inst = instance(4, &[(1, 1), (1, 1), (1, 1)]);
        assert_eq!(agreed_bound(&inst, false), 3);
        let sol = inst.solve_paper().unwrap();
        assert_eq!(sol.peak.intervals_only, 3);
    }

    #[test]
    fn spreading_reduces_peak() {
        // Four intervals each allowing two colors can spread to peak 2.
        let inst = instance(2, &[(0, 1), (0, 1), (0, 1), (0, 1)]);
        assert_eq!(agreed_bound(&inst, false), 2);
        let sol = inst.solve_paper().unwrap();
        assert_eq!(sol.peak.intervals_only, 2);
    }

    #[test]
    fn window_density_bound() {
        // Window [1,2] holds 5 intervals over 2 colors -> LB 3 even
        // though each single color only "sees" fewer forced intervals.
        let inst = instance(5, &[(1, 2), (1, 2), (1, 1), (2, 2), (1, 2)]);
        assert_eq!(agreed_bound(&inst, false), 3);
        let sol = inst.solve_paper().unwrap();
        assert_eq!(sol.peak.intervals_only, 3);
        assert_eq!(brute_force_min_peak(&inst), 3);
    }

    #[test]
    fn baseline_changes_optimum() {
        // One interval over colors {0,1}; baseline load 2 at color 0.
        let mut inst = instance(2, &[(0, 1)]);
        inst.add_baseline(0, 2).unwrap();
        // Paper solver ignores baseline and may pick color 0 -> true
        // peak 3; generalized solver must pick color 1 -> peak 2.
        assert_eq!(agreed_bound(&inst, true), 2);
        let sol = inst.solve().unwrap();
        assert_eq!(sol.peak.with_baseline, 2);
        assert_eq!(sol.coloring.color(0), 1);
        assert_eq!(brute_force_min_peak(&inst), 2);
    }

    #[test]
    fn baseline_only_instance() {
        let mut inst = BcpInstance::new(3);
        inst.set_baseline(vec![1, 4, 2]).unwrap();
        assert_eq!(agreed_bound(&inst, true), 4);
        let sol = inst.solve().unwrap();
        assert_eq!(sol.peak.with_baseline, 4);
        assert_eq!(brute_force_min_peak(&inst), 4);
    }

    #[test]
    fn baseline_window_averaging() {
        // Baseline [0,3,0] + two intervals over the whole range: the
        // window [1,1] gives ceil((0+3)/1)=3; whole window gives
        // ceil((2+3)/3)=2; max_t baseline = 3 -> LB 3 and EDF avoids
        // color 1 entirely.
        let mut inst = instance(3, &[(0, 2), (0, 2)]);
        inst.set_baseline(vec![0, 3, 0]).unwrap();
        assert_eq!(agreed_bound(&inst, true), 3);
        let sol = inst.solve().unwrap();
        assert_eq!(sol.peak.with_baseline, 3);
        assert_eq!(brute_force_min_peak(&inst), 3);
    }

    #[test]
    fn dp_matches_naive_on_dense_instance() {
        let ivs: Vec<(u32, u32)> = (0..20)
            .flat_map(|s| (s..20).map(move |e| (s, e)))
            .filter(|(s, e)| (e - s) % 3 == 0)
            .collect();
        let inst = instance(20, &ivs);
        agreed_bound(&inst, false);
        let sol = inst.solve_paper().unwrap();
        assert_eq!(sol.peak.intervals_only, sol.lower_bound);
    }

    #[test]
    fn generalized_solver_matches_brute_force() {
        // A handful of hand-rolled small instances with baselines.
        type Case = (usize, Vec<(u32, u32)>, Vec<u64>);
        let cases: Vec<Case> = vec![
            (3, vec![(0, 1), (1, 2), (0, 2)], vec![1, 0, 2]),
            (4, vec![(0, 3), (1, 2), (2, 3), (0, 0)], vec![0, 2, 0, 1]),
            (2, vec![(0, 1), (0, 1), (1, 1)], vec![3, 0]),
            (5, vec![(0, 4); 7], vec![1, 1, 1, 1, 1]),
        ];
        for (c, ivs, baseline) in cases {
            let mut inst = instance(c, &ivs);
            inst.set_baseline(baseline.clone()).unwrap();
            agreed_bound(&inst, true);
            let sol = inst.solve().unwrap();
            assert_eq!(
                sol.peak.with_baseline,
                brute_force_min_peak(&inst),
                "instance {c} {ivs:?} {baseline:?}"
            );
        }
    }

    #[test]
    fn dp_overflow_is_typed_at_u64_max_baselines() {
        // pre[2] = u64::MAX + 1 overflows the prefix sum: the quadratic
        // DP must surface a typed error (it wrapped silently in release
        // before), while the parametric engine — which never sums
        // windows — still certifies the representable bound u64::MAX.
        let mut inst = instance(2, &[(0, 1)]);
        inst.set_baseline(vec![u64::MAX, 0]).unwrap();
        assert!(matches!(
            lower_bound_dp(&inst, true),
            Err(BcpError::Overflow { .. })
        ));
        assert!(matches!(
            lower_bound_naive(&inst, true),
            Err(BcpError::Overflow { .. })
        ));
        assert_eq!(inst.lower_bound().unwrap(), u64::MAX);
        // The paper-mode DP ignores the baseline and must not trip.
        assert_eq!(lower_bound_dp(&inst, false).unwrap(), 1);
        // And the full solve is exact: the interval lands on color 1.
        let sol = inst.solve().unwrap();
        assert_eq!(sol.peak.with_baseline, u64::MAX);
        assert_eq!(sol.coloring.color(0), 1);
    }

    #[test]
    fn unrepresentable_bound_is_typed_overflow() {
        // Baseline u64::MAX plus a forced point interval at the same
        // color: the true bound is u64::MAX + 1. Every engine must
        // report Overflow instead of wrapping or looping.
        let mut inst = instance(1, &[(0, 0)]);
        inst.set_baseline(vec![u64::MAX]).unwrap();
        assert!(matches!(inst.lower_bound(), Err(BcpError::Overflow { .. })));
        assert!(matches!(
            lower_bound_dp(&inst, true),
            Err(BcpError::Overflow { .. })
        ));
        assert!(matches!(inst.solve(), Err(BcpError::Overflow { .. })));
    }

    #[test]
    fn incremental_bound_never_exceeds_and_warms_the_solve() {
        let ivs = [(0u32, 3u32), (1, 2), (2, 2), (4, 6), (0, 6), (5, 5)];
        let mut inst = instance(7, &ivs);
        inst.set_baseline(vec![1, 0, 2, 0, 0, 3, 0]).unwrap();
        let mut ladder = IncrementalBound::new();
        for &(s, e) in &ivs {
            ladder.add_interval(Interval::new(s, e));
        }
        for (t, &b) in inst.baseline().iter().enumerate() {
            ladder.add_baseline(t, b);
        }
        let lb = agreed_bound(&inst, true);
        let warm = ladder.current();
        assert!(warm <= lb, "ladder {warm} exceeds true bound {lb}");
        assert!(ladder.approx_bytes() > 0);
        let sol = inst
            .solve_with(&SolveOptions {
                warm_lb: Some(warm),
            })
            .unwrap();
        assert_eq!(sol.lower_bound, lb);
        assert_eq!(sol.coloring, inst.solve().unwrap().coloring);
    }

    #[test]
    fn weighted_bound_engines_agree() {
        let mut seed = 0u64;
        for n_colors in [1usize, 3, 7, 12] {
            for k in [0usize, 1, 4, 9] {
                let mut inst = BcpInstance::new(n_colors);
                for _ in 0..k {
                    seed += 1;
                    let s = (pseudo_weight(seed * 3) - 1) as u32 % n_colors as u32;
                    seed += 1;
                    let e = s + (pseudo_weight(seed * 5) as u32 - 1) % (n_colors as u32 - s);
                    seed += 1;
                    inst.add_weighted_interval(Interval::new(s, e), pseudo_weight(seed))
                        .unwrap();
                }
                for t in 0..n_colors {
                    seed += 1;
                    if pseudo_weight(seed) > 12 {
                        inst.add_baseline(t, pseudo_weight(seed * 7)).unwrap();
                    }
                }
                let parametric = inst.lower_bound().unwrap();
                assert_eq!(parametric, lower_bound_dp(&inst, true).unwrap());
                assert_eq!(parametric, lower_bound_naive(&inst, true).unwrap());
            }
        }
    }

    #[test]
    fn weighted_solve_matches_brute_force_on_small_instances() {
        // Random small weighted instances: the bounded exact search
        // must close the greedy gap, making the solver peak optimal.
        let mut seed = 1000u64;
        for trial in 0..40 {
            let n_colors = 2 + (trial % 7);
            let k = 1 + (trial % 6);
            let mut inst = BcpInstance::new(n_colors);
            for _ in 0..k {
                seed += 1;
                let s = (pseudo_weight(seed * 3) as u32 - 1) % n_colors as u32;
                seed += 1;
                let e = s + (pseudo_weight(seed * 5) as u32 - 1) % (n_colors as u32 - s);
                seed += 1;
                inst.add_weighted_interval(Interval::new(s, e), pseudo_weight(seed))
                    .unwrap();
            }
            seed += 1;
            if pseudo_weight(seed) > 8 {
                inst.add_baseline((seed % n_colors as u64) as usize, pseudo_weight(seed * 11))
                    .unwrap();
            }
            let expect = brute_force_min_peak(&inst);
            let sol = inst.solve().unwrap();
            assert_eq!(sol.peak.with_baseline, expect, "trial {trial}: {inst:?}");
            assert!(sol.lower_bound <= expect, "trial {trial}");
            assert_eq!(inst.verify(&sol.coloring).unwrap(), sol.peak);
        }
    }

    #[test]
    fn weighted_overflow_reports_typed_errors_at_extreme_weights() {
        // Two max-weight intervals forced onto one color: the bound
        // exceeds u64 and must surface as Overflow, not wrap or panic.
        let inst = weighted_instance(1, &[(0, 0, u64::MAX), (0, 0, u64::MAX)]);
        assert!(matches!(inst.lower_bound(), Err(BcpError::Overflow { .. })));
        assert!(matches!(inst.solve(), Err(BcpError::Overflow { .. })));
        assert!(matches!(
            lower_bound_naive(&inst, true),
            Err(BcpError::Overflow { .. })
        ));
        assert!(matches!(
            lower_bound_dp(&inst, true),
            Err(BcpError::Overflow { .. })
        ));
        // A single max-weight interval is fine.
        let single = weighted_instance(1, &[(0, 0, u64::MAX)]);
        assert_eq!(single.solve().unwrap().peak.with_baseline, u64::MAX);
    }
}
