//! Batched popcount kernels for the two-plane masked-XOR reduction.
//!
//! Every toggle/conflict metric in the pipeline is one reduction:
//! `Σ popcount((va[i] ^ vb[i]) & ca[i] & cb[i])` over the value and care
//! planes of two packed rows. This module provides that reduction in
//! two tiers and picks one at runtime:
//!
//! * [`PopcountKernel::Scalar`] — the per-word `count_ones` loop, the
//!   portable tier and the reference the AVX2 tier is
//!   differential-tested against;
//! * [`PopcountKernel::Avx2`] — an `std::arch` path (x86-64 only) using
//!   the nibble-LUT `vpshufb` popcount with `vpsadbw` accumulation,
//!   processing four words per plane per iteration.
//!
//! Selection happens once per process ([`active_kernel`]): the
//! `DPFILL_SIMD` environment variable (`scalar`, `avx2`, `auto`)
//! overrides, otherwise AVX2 is used when the CPU reports it and the
//! scalar tier is the portable fallback. A kernel that is not available
//! on the running CPU silently degrades to the scalar tier, so forcing
//! `avx2` on a non-AVX2 host is safe. Both tiers are bit-exact; only
//! throughput differs (pinned by
//! `crates/cubes/tests/popcount_differential.rs`).
//!
//! Callers that reduce many row pairs (whole-set toggle profiles, the
//! ordering scorers' candidate sweeps) should resolve the kernel once
//! with [`active_kernel`] and call [`PopcountKernel::masked_xor_popcount`]
//! per pair, hoisting the dispatch out of the sweep.

use std::sync::atomic::{AtomicU8, Ordering};

/// Kernel dispatches per tier (relaxed no-ops unless a [`minitrace`]
/// sink is live): which reduction actually ran, post-degradation.
static DISPATCH_SCALAR: minitrace::Counter = minitrace::Counter::new("cubes.popcount.scalar");
static DISPATCH_AVX2: minitrace::Counter = minitrace::Counter::new("cubes.popcount.avx2");

/// One tier of the masked-XOR popcount reduction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PopcountKernel {
    /// Per-word `count_ones` loop — the portable reference tier.
    Scalar,
    /// AVX2 `vpshufb` nibble-LUT popcount (x86-64, runtime-detected).
    Avx2,
}

impl PopcountKernel {
    /// `true` when this tier can run on the current CPU. `Scalar` is
    /// always available; `Avx2` requires an x86-64 CPU that reports the
    /// feature at runtime.
    pub fn is_available(self) -> bool {
        match self {
            PopcountKernel::Scalar => true,
            PopcountKernel::Avx2 => avx2_available(),
        }
    }

    /// Short name used in diagnostics and bench labels.
    pub fn label(self) -> &'static str {
        match self {
            PopcountKernel::Scalar => "scalar",
            PopcountKernel::Avx2 => "avx2",
        }
    }

    /// `Σ popcount((va[i] ^ vb[i]) & ca[i] & cb[i])` over four
    /// equal-length word streams — the Hamming/conflict reduction of the
    /// two-plane representation. An unavailable tier degrades to the
    /// scalar one, so the result is identical on every host.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the slices differ in length; release
    /// builds truncate to the shortest (callers pass planes of one
    /// width, enforced by [`crate::packed::PackedBits::try_hamming`]).
    #[inline]
    pub fn masked_xor_popcount(self, va: &[u64], vb: &[u64], ca: &[u64], cb: &[u64]) -> usize {
        debug_assert!(
            va.len() == vb.len() && va.len() == ca.len() && va.len() == cb.len(),
            "plane word counts must match"
        );
        match self {
            PopcountKernel::Scalar => {
                DISPATCH_SCALAR.add(1);
                masked_xor_popcount_scalar(va, vb, ca, cb)
            }
            PopcountKernel::Avx2 => {
                DISPATCH_AVX2.add(1);
                #[cfg(target_arch = "x86_64")]
                if avx2_available() {
                    // SAFETY: the AVX2 feature was just verified at
                    // runtime on this CPU.
                    return unsafe { masked_xor_popcount_avx2(va, vb, ca, cb) };
                }
                masked_xor_popcount_scalar(va, vb, ca, cb)
            }
        }
    }
}

#[inline]
fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

// Cached selection: 0 = unresolved, 1 = scalar, 2 = avx2.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn encode(k: PopcountKernel) -> u8 {
    match k {
        PopcountKernel::Scalar => 1,
        PopcountKernel::Avx2 => 2,
    }
}

fn decode(v: u8) -> Option<PopcountKernel> {
    match v {
        1 => Some(PopcountKernel::Scalar),
        2 => Some(PopcountKernel::Avx2),
        _ => None,
    }
}

/// The process-wide kernel every packed reduction dispatches through:
/// the `DPFILL_SIMD` override (`scalar` / `avx2` / `auto`,
/// case-insensitive; unknown values fall back to `auto`) when set,
/// otherwise AVX2 when the CPU reports it and scalar elsewhere. Resolved
/// once and cached; [`force_kernel`] can re-pin it (benches only).
pub fn active_kernel() -> PopcountKernel {
    if let Some(k) = decode(ACTIVE.load(Ordering::Relaxed)) {
        return k;
    }
    let resolved = resolve_from_env();
    // A concurrent resolve computes the same value (env + CPUID are
    // stable), so a plain store is race-free in effect.
    ACTIVE.store(encode(resolved), Ordering::Relaxed);
    resolved
}

fn resolve_from_env() -> PopcountKernel {
    let requested = std::env::var("DPFILL_SIMD").ok();
    let requested = requested.as_deref().map(str::trim).unwrap_or("auto");
    let kernel = if requested.eq_ignore_ascii_case("scalar") {
        PopcountKernel::Scalar
    } else {
        if !requested.eq_ignore_ascii_case("avx2") && !requested.eq_ignore_ascii_case("auto") {
            // A typo'd override must not silently re-enable the SIMD
            // tier someone believed they disabled — say so, once, then
            // auto-select.
            eprintln!(
                "warning: DPFILL_SIMD={requested:?} is not one of scalar/avx2/auto; \
                 using auto"
            );
        }
        PopcountKernel::Avx2
    };
    if kernel.is_available() {
        kernel
    } else {
        PopcountKernel::Scalar
    }
}

/// Pins [`active_kernel`] to `kernel` for the rest of the process (an
/// unavailable tier still degrades inside the reduction). This is a
/// process-global switch intended for single-threaded benchmark
/// harnesses that A/B tiers in one run; concurrent tests should call
/// [`PopcountKernel::masked_xor_popcount`] on an explicit tier instead.
pub fn force_kernel(kernel: PopcountKernel) {
    ACTIVE.store(encode(kernel), Ordering::Relaxed);
}

/// Convenience wrapper: the masked-XOR reduction on the active kernel.
#[inline]
pub fn masked_xor_popcount(va: &[u64], vb: &[u64], ca: &[u64], cb: &[u64]) -> usize {
    active_kernel().masked_xor_popcount(va, vb, ca, cb)
}

/// The reference loop: one `count_ones` per word.
#[inline]
fn masked_xor_popcount_scalar(va: &[u64], vb: &[u64], ca: &[u64], cb: &[u64]) -> usize {
    va.iter()
        .zip(vb)
        .zip(ca.iter().zip(cb))
        .map(|((&va, &vb), (&ca, &cb))| ((va ^ vb) & ca & cb).count_ones() as usize)
        .sum()
}

/// AVX2 tier: four words per plane load, masked-XOR in vector registers,
/// Muła's `vpshufb` nibble-LUT popcount, `vpsadbw` into four running
/// 64-bit lanes.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime
/// (`is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn masked_xor_popcount_avx2(va: &[u64], vb: &[u64], ca: &[u64], cb: &[u64]) -> usize {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_add_epi8, _mm256_and_si256, _mm256_extract_epi64,
        _mm256_loadu_si256, _mm256_sad_epu8, _mm256_set1_epi8, _mm256_setr_epi8,
        _mm256_setzero_si256, _mm256_shuffle_epi8, _mm256_srli_epi64, _mm256_xor_si256,
    };
    let n = va.len().min(vb.len()).min(ca.len()).min(cb.len());
    // Popcount of every nibble value 0..=15, replicated across lanes.
    let lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3,
        3, 4,
    );
    let low_nibbles = _mm256_set1_epi8(0x0F);
    let mut acc = _mm256_setzero_si256();
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n <= each slice's length, so the 32-byte
        // unaligned loads stay in bounds.
        let x = unsafe {
            let lva = _mm256_loadu_si256(va.as_ptr().add(i).cast::<__m256i>());
            let lvb = _mm256_loadu_si256(vb.as_ptr().add(i).cast::<__m256i>());
            let lca = _mm256_loadu_si256(ca.as_ptr().add(i).cast::<__m256i>());
            let lcb = _mm256_loadu_si256(cb.as_ptr().add(i).cast::<__m256i>());
            _mm256_and_si256(_mm256_xor_si256(lva, lvb), _mm256_and_si256(lca, lcb))
        };
        let lo = _mm256_and_si256(x, low_nibbles);
        let hi = _mm256_and_si256(_mm256_srli_epi64(x, 4), low_nibbles);
        let counts = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
        // Horizontal byte sums per 64-bit lane; per-byte counts max out
        // at 8, so the u64 lanes cannot overflow at any stream length.
        acc = _mm256_add_epi64(acc, _mm256_sad_epu8(counts, _mm256_setzero_si256()));
        i += 4;
    }
    let mut total = (_mm256_extract_epi64(acc, 0) as u64)
        .wrapping_add(_mm256_extract_epi64(acc, 1) as u64)
        .wrapping_add(_mm256_extract_epi64(acc, 2) as u64)
        .wrapping_add(_mm256_extract_epi64(acc, 3) as u64) as usize;
    while i < n {
        total += ((va[i] ^ vb[i]) & ca[i] & cb[i]).count_ones() as usize;
        i += 1;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(seed: u64, n: usize) -> Vec<u64> {
        // SplitMix64 stream — deterministic, no dependency.
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            })
            .collect()
    }

    #[test]
    fn all_tiers_agree_on_random_streams() {
        // Lengths straddling the 4-word AVX2 step, including 0.
        for n in [0usize, 1, 3, 4, 5, 15, 16, 17, 31, 32, 33, 64, 100] {
            let va = words(1, n);
            let vb = words(2, n);
            let ca = words(3, n);
            let cb = words(4, n);
            let reference = PopcountKernel::Scalar.masked_xor_popcount(&va, &vb, &ca, &cb);
            assert_eq!(
                PopcountKernel::Avx2.masked_xor_popcount(&va, &vb, &ca, &cb),
                reference,
                "avx2 on {n} words"
            );
        }
    }

    #[test]
    fn degenerate_masks() {
        let n = 40;
        let va = words(5, n);
        let vb = words(6, n);
        let zeros = vec![0u64; n];
        let ones = vec![u64::MAX; n];
        for kernel in [PopcountKernel::Scalar, PopcountKernel::Avx2] {
            // All-X on one side: no care-care pair survives.
            assert_eq!(kernel.masked_xor_popcount(&va, &vb, &zeros, &ones), 0);
            // Identical values: XOR is zero everywhere.
            assert_eq!(kernel.masked_xor_popcount(&va, &va, &ones, &ones), 0);
            // Complementary fully-specified values: every bit counts.
            let nb: Vec<u64> = va.iter().map(|&w| !w).collect();
            assert_eq!(
                kernel.masked_xor_popcount(&va, &nb, &ones, &ones),
                64 * n,
                "{}",
                kernel.label()
            );
        }
    }

    #[test]
    fn portable_tiers_always_available() {
        assert!(PopcountKernel::Scalar.is_available());
        // Avx2 availability is host-dependent; the reduction must work
        // either way (degrading to scalar when absent).
        let va = words(8, 20);
        let vb = words(9, 20);
        let ca = words(10, 20);
        let cb = words(11, 20);
        assert_eq!(
            PopcountKernel::Avx2.masked_xor_popcount(&va, &vb, &ca, &cb),
            PopcountKernel::Scalar.masked_xor_popcount(&va, &vb, &ca, &cb),
        );
    }

    #[test]
    fn active_kernel_is_cached_and_available() {
        let first = active_kernel();
        assert!(first.is_available());
        assert_eq!(active_kernel(), first, "selection must be stable");
    }

    #[test]
    fn labels_are_distinct() {
        assert_eq!(PopcountKernel::Scalar.label(), "scalar");
        assert_eq!(PopcountKernel::Avx2.label(), "avx2");
    }
}
