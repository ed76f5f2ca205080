//! Seeded random test-cube generators.
//!
//! Two generators are provided:
//!
//! * [`random_cube_set`] — independent uniform bits, used by unit and
//!   property tests;
//! * [`CubeProfile`] — a structured generator that mimics the statistical
//!   shape of real ATPG cubes (hot pins that are specified in many
//!   patterns, per-pin preferred values, calibrated X density). This is
//!   the substitute for TetraMax™ output on circuits too large to run
//!   PODEM on; see DESIGN.md §3.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Bit, CubeSet, TestCube};

/// Generates `count` cubes of `width` bits where each bit is independently
/// `X` with probability `x_density`, otherwise a fair random care bit.
///
/// # Panics
///
/// Panics if `x_density` is not within `[0, 1]`.
pub fn random_cube_set(width: usize, count: usize, x_density: f64, seed: u64) -> CubeSet {
    assert!(
        (0.0..=1.0).contains(&x_density),
        "x_density must be in [0,1]"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut set = CubeSet::new(width);
    for _ in 0..count {
        let cube: TestCube = (0..width)
            .map(|_| {
                if rng.gen_bool(x_density) {
                    Bit::X
                } else {
                    Bit::from_bool(rng.gen_bool(0.5))
                }
            })
            .collect();
        set.push(cube)
            .unwrap_or_else(|e| unreachable!("generated cube has the set width: {e}"));
    }
    set
}

/// Statistical profile of an ATPG test-cube set.
///
/// Real ATPG cubes are not uniform: a minority of *hot* pins (close to the
/// activated fault sites and control logic) carry care bits in most
/// patterns, while the long tail of pins is almost always `X`. Each pin
/// also has a *preferred* value (justification tends to reuse the same
/// controlling values), with occasional flips that create the `0 X…X 1`
/// transition stretches the DP-fill paper exploits.
///
/// # Example
///
/// ```
/// use dpfill_cubes::gen::CubeProfile;
///
/// let set = CubeProfile::new(64, 40)
///     .x_percent(80.0)
///     .flip_probability(0.3)
///     .generate(7);
/// assert_eq!(set.width(), 64);
/// assert_eq!(set.len(), 40);
/// // Achieved density is close to the requested one.
/// assert!((set.x_percent() - 80.0).abs() < 12.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct CubeProfile {
    width: usize,
    count: usize,
    x_percent: f64,
    hot_fraction: f64,
    hot_weight: f64,
    flip_probability: f64,
    decay_ratio: f64,
    regime_changes: usize,
}

impl CubeProfile {
    /// Creates a profile for `count` cubes of `width` pins with default
    /// shape parameters (85 % X, 15 % hot pins, flip probability 0.25).
    pub fn new(width: usize, count: usize) -> CubeProfile {
        CubeProfile {
            width,
            count,
            x_percent: 85.0,
            hot_fraction: 0.15,
            hot_weight: 8.0,
            flip_probability: 0.25,
            decay_ratio: 3.0,
            regime_changes: 0,
        }
    }

    /// Sets the target average X percentage (paper Table I column).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ pct ≤ 100`.
    pub fn x_percent(mut self, pct: f64) -> CubeProfile {
        assert!((0.0..=100.0).contains(&pct), "x_percent must be in [0,100]");
        self.x_percent = pct;
        self
    }

    /// Fraction of pins that are *hot* (specified much more often).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ f ≤ 1`.
    pub fn hot_fraction(mut self, f: f64) -> CubeProfile {
        assert!((0.0..=1.0).contains(&f), "hot_fraction must be in [0,1]");
        self.hot_fraction = f;
        self
    }

    /// How much more likely a hot pin is to carry a care bit.
    ///
    /// # Panics
    ///
    /// Panics unless `w ≥ 1`.
    pub fn hot_weight(mut self, w: f64) -> CubeProfile {
        assert!(w >= 1.0, "hot_weight must be >= 1");
        self.hot_weight = w;
        self
    }

    /// Probability that a care bit deviates from the pin's preferred
    /// value. Higher values create more transition stretches and forced
    /// toggles.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn flip_probability(mut self, p: f64) -> CubeProfile {
        assert!(
            (0.0..=1.0).contains(&p),
            "flip_probability must be in [0,1]"
        );
        self.flip_probability = p;
        self
    }

    /// Care-density spread across the pattern list: the first cube is
    /// `ratio`× as densely specified as the last (geometric taper,
    /// normalized to keep the overall X percentage). Real compacted
    /// ATPG pattern lists show exactly this heavy-tailed shape — the
    /// first patterns absorb many merged cubes while the tail targets
    /// single hard faults with a handful of care bits — and the variance
    /// is what the paper's I-ordering exploits. `1.0` = uniform.
    ///
    /// # Panics
    ///
    /// Panics unless `ratio >= 1`.
    pub fn decay_ratio(mut self, ratio: f64) -> CubeProfile {
        assert!(ratio >= 1.0, "decay_ratio must be >= 1");
        self.decay_ratio = ratio;
        self
    }

    /// Number of *regime changes* across the pattern list. ATPG walks
    /// the fault list region by region, so the justification values of
    /// many pins flip together when the targeted region changes. At each
    /// regime boundary a random ~40 % of the pins swap their preferred
    /// value, which clusters care-bit flips in time — the effect that
    /// makes total-transition fills (MT-fill) pay a high *peak* and that
    /// interleaving orderings undo. `0` (default) disables regimes.
    pub fn regime_changes(mut self, changes: usize) -> CubeProfile {
        self.regime_changes = changes;
        self
    }

    /// Generates the cube set deterministically from `seed`.
    pub fn generate(&self, seed: u64) -> CubeSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let care_target = 1.0 - self.x_percent / 100.0;

        // Per-pin care probability: hot pins are `hot_weight`× more likely,
        // scaled so the expected overall care density hits the target.
        let hot_count = ((self.width as f64) * self.hot_fraction).round() as usize;
        let mut hot = vec![false; self.width];
        // Spread hot pins deterministically across the width, then shuffle
        // their identity with the rng so different seeds differ.
        for h in hot.iter_mut().take(hot_count) {
            *h = true;
        }
        for i in (1..self.width).rev() {
            let j = rng.gen_range(0..=i);
            hot.swap(i, j);
        }
        // Solve for the base probability so the *capped* expectation hits
        // the target: hot pins saturate at probability 1, so a closed form
        // over-shoots; a short fixed-point iteration converges fast.
        let denom = self.hot_weight * hot_count as f64 + (self.width - hot_count) as f64;
        let mut base = if denom > 0.0 {
            (care_target * self.width as f64 / denom).min(1.0)
        } else {
            0.0
        };
        for _ in 0..16 {
            let hot_p = (base * self.hot_weight).min(1.0);
            let achieved = (hot_p * hot_count as f64 + base * (self.width - hot_count) as f64)
                / (self.width.max(1)) as f64;
            if achieved <= 0.0 || (achieved - care_target).abs() < 1e-6 {
                break;
            }
            base = (base * care_target / achieved).min(1.0);
        }
        let p_care: Vec<f64> = hot
            .iter()
            .map(|&h| {
                if h {
                    (base * self.hot_weight).min(1.0)
                } else {
                    base
                }
            })
            .collect();
        let mut preferred: Vec<Bit> = (0..self.width)
            .map(|_| Bit::from_bool(rng.gen_bool(0.5)))
            .collect();
        // Regime boundaries: columns where a block of pins flips its
        // preferred value.
        let mut boundaries: Vec<usize> = (0..self.regime_changes)
            .filter_map(|_| {
                if self.count > 1 {
                    Some(rng.gen_range(1..self.count))
                } else {
                    None
                }
            })
            .collect();
        boundaries.sort_unstable();

        // Per-cube density taper: cube j's care probability is scaled by
        // a geometric factor falling from sqrt(r) to 1/sqrt(r) (so first
        // vs last = `decay_ratio`), normalized so the mean stays 1
        // (overall X% preserved).
        let r = self.decay_ratio;
        let mean_factor = if r > 1.0 {
            (r.sqrt() - 1.0 / r.sqrt()) / r.ln()
        } else {
            1.0
        };
        let cube_factor = |j: usize| -> f64 {
            if self.count <= 1 || r <= 1.0 {
                1.0
            } else {
                let t = j as f64 / (self.count - 1) as f64;
                r.powf(0.5 - t) / mean_factor
            }
        };

        let mut set = CubeSet::new(self.width);
        let mut next_boundary = 0usize;
        for j in 0..self.count {
            while next_boundary < boundaries.len() && boundaries[next_boundary] == j {
                for p in preferred.iter_mut() {
                    if rng.gen_bool(0.4) {
                        *p = !*p;
                    }
                }
                next_boundary += 1;
            }
            let factor = cube_factor(j);
            let cube: TestCube = (0..self.width)
                .map(|pin| {
                    if rng.gen_bool((p_care[pin] * factor).min(1.0)) {
                        if rng.gen_bool(self.flip_probability) {
                            !preferred[pin]
                        } else {
                            preferred[pin]
                        }
                    } else {
                        Bit::X
                    }
                })
                .collect();
            set.push(cube)
                .unwrap_or_else(|e| unreachable!("generated cube has the set width: {e}"));
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_set_is_deterministic_per_seed() {
        let a = random_cube_set(32, 10, 0.5, 42);
        let b = random_cube_set(32, 10, 0.5, 42);
        let c = random_cube_set(32, 10, 0.5, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn random_set_density_is_close() {
        let set = random_cube_set(200, 100, 0.7, 1);
        assert!((set.x_percent() - 70.0).abs() < 5.0, "{}", set.x_percent());
    }

    #[test]
    fn density_extremes() {
        let all_x = random_cube_set(50, 10, 1.0, 3);
        assert_eq!(all_x.x_count(), 500);
        let none_x = random_cube_set(50, 10, 0.0, 3);
        assert_eq!(none_x.x_count(), 0);
    }

    #[test]
    fn profile_hits_target_density() {
        for target in [50.0, 75.0, 90.0] {
            let set = CubeProfile::new(300, 60).x_percent(target).generate(9);
            assert!(
                (set.x_percent() - target).abs() < 10.0,
                "target {target} achieved {}",
                set.x_percent()
            );
        }
    }

    #[test]
    fn profile_is_deterministic() {
        let p = CubeProfile::new(64, 16).x_percent(70.0);
        assert_eq!(p.generate(5), p.generate(5));
        assert_ne!(p.generate(5), p.generate(6));
    }

    #[test]
    fn profile_hot_pins_create_row_structure() {
        // With a strong hot-pin skew, some rows must be much denser than
        // others.
        let set = CubeProfile::new(100, 50)
            .x_percent(85.0)
            .hot_fraction(0.1)
            .hot_weight(10.0)
            .generate(11);
        let pins = set.width();
        let mut densities: Vec<usize> = (0..pins)
            .map(|pin| {
                let cubes = set.as_packed().cubes().iter();
                cubes.filter(|cube| cube.get(pin).is_care()).count()
            })
            .collect();
        densities.sort_unstable();
        let low = densities[pins / 10];
        let high = densities[pins - 1 - pins / 10];
        assert!(
            high >= low.saturating_mul(2).max(low + 3),
            "low={low} high={high}"
        );
    }

    #[test]
    #[should_panic(expected = "x_density")]
    fn invalid_density_panics() {
        let _ = random_cube_set(8, 4, 1.5, 0);
    }
}

#[cfg(test)]
mod decay_tests {
    use super::*;

    #[test]
    fn decay_spreads_cube_densities() {
        let set = CubeProfile::new(200, 40)
            .x_percent(80.0)
            .decay_ratio(6.0)
            .generate(17);
        let counts = set.x_counts();
        let first_avg: f64 = counts[..5].iter().sum::<usize>() as f64 / 5.0;
        let last_avg: f64 = counts[counts.len() - 5..].iter().sum::<usize>() as f64 / 5.0;
        // Early cubes are denser (fewer X).
        assert!(
            first_avg + 10.0 < last_avg,
            "first {first_avg} vs last {last_avg}"
        );
        // Overall density still near target.
        assert!((set.x_percent() - 80.0).abs() < 10.0, "{}", set.x_percent());
    }

    #[test]
    fn uniform_ratio_keeps_flat_densities() {
        let set = CubeProfile::new(200, 40)
            .x_percent(70.0)
            .decay_ratio(1.0)
            .generate(17);
        let counts = set.x_counts();
        let first_avg: f64 = counts[..10].iter().sum::<usize>() as f64 / 10.0;
        let last_avg: f64 = counts[counts.len() - 10..].iter().sum::<usize>() as f64 / 10.0;
        assert!((first_avg - last_avg).abs() < 15.0);
    }

    #[test]
    #[should_panic(expected = "decay_ratio")]
    fn sub_one_ratio_panics() {
        let _ = CubeProfile::new(8, 4).decay_ratio(0.5);
    }
}

#[cfg(test)]
mod regime_tests {
    use super::*;
    use crate::toggle_profile;

    #[test]
    fn regime_changes_cluster_flips_in_time() {
        // With regimes, a minimum-transition row fill still pays bursts
        // of toggles near the boundaries; compare per-transition spread
        // of fully-specified generations.
        let flat = CubeProfile::new(300, 60)
            .x_percent(0.0)
            .flip_probability(0.05)
            .regime_changes(0)
            .generate(3);
        let bursty = CubeProfile::new(300, 60)
            .x_percent(0.0)
            .flip_probability(0.05)
            .regime_changes(3)
            .generate(3);
        let peak = |s: &CubeSet| *toggle_profile(s).unwrap().iter().max().unwrap();
        assert!(
            peak(&bursty) > peak(&flat) * 2,
            "bursty {} vs flat {}",
            peak(&bursty),
            peak(&flat)
        );
    }

    #[test]
    fn regime_changes_keep_density() {
        let set = CubeProfile::new(200, 50)
            .x_percent(80.0)
            .regime_changes(4)
            .generate(5);
        assert!((set.x_percent() - 80.0).abs() < 10.0);
    }

    #[test]
    fn zero_regimes_is_default_behaviour() {
        let a = CubeProfile::new(50, 20).generate(1);
        let b = CubeProfile::new(50, 20).regime_changes(0).generate(1);
        assert_eq!(a, b);
    }
}
