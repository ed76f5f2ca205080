//! Byte anchors for the fills built on the interval analysis: a 64-bit
//! digest of the emitted pattern text of seeded sets, pinned at 1, 2
//! and 8 threads. The peak-only anchors elsewhere cannot see a fill
//! that keeps its peak but moves a toggle; these fail on any changed
//! byte.
//!
//! Covered: DP-fill under the unit objective, DP-fill under a leakage
//! objective (monolithic, and streamed through a banded I-ordering at
//! `--window 3 --band 2`), B-fill, XStat-fill and MT-fill; on sets wide
//! enough to scan as several chunks of pin words, the DP-fills and a
//! resident I-ordered DP-fill under both objectives. Three of
//! them break ties in a fixed interval order (the preference shift by
//! `(pin, start)`, XStat-fill by `(load, pin, left)`, B-fill by
//! `(len, start, pin)`), so these digests also pin those keys.

use dpfill_core::fill::{DpFill, FillMethod};
use dpfill_core::objective::{FillObjective, WeightTable};
use dpfill_core::ordering::BandedMethod;
use dpfill_core::stream::{BandedOrder, StreamOptions, StreamingFill, WindowSpec};
use dpfill_cubes::gen::random_cube_set;
use dpfill_cubes::{format, Bit, CubeSet};

/// FNV-1a over the bytes.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn text(cubes: &CubeSet) -> Vec<u8> {
    let mut out = Vec::new();
    format::write_patterns(&mut out, cubes, None).expect("in-memory write");
    out
}

/// The seeded sets: (width, cubes, X density, seed). Widths straddle
/// the 64-pin word; the last set has more than 2,000 weighted intervals,
/// past the exact refinement's reach.
const SETS: [(usize, usize, f64, u64); 4] = [
    (70, 40, 0.8, 1),
    (130, 60, 0.5, 2),
    (9, 200, 0.9, 3),
    (600, 60, 0.7, 4),
];

/// A leakage objective over `width` pins: weights 1..=7 and a preferred
/// rest value cycling 0, 1, none.
fn leakage(width: usize) -> FillObjective {
    let weights = (0..width).map(|i| 1 + (i as u64 * 13) % 7).collect();
    let preferred = (0..width)
        .map(|i| [Bit::Zero, Bit::One, Bit::X][i % 3])
        .collect();
    FillObjective::leakage(WeightTable::new(weights, Some(preferred)).expect("valid table"))
}

/// The streamed banded leakage run: `--window 3 --band 2` under the
/// banded I-ordering.
fn streamed_leakage(cubes: &CubeSet) -> Vec<u8> {
    let opts = StreamOptions {
        window: WindowSpec::Cubes(3),
        fill: FillMethod::Dp,
        order: Some(BandedOrder::with_band(BandedMethod::Interleave, 2)),
        objective: leakage(cubes.width()),
        ..StreamOptions::default()
    };
    let input = text(cubes);
    let mut out = Vec::new();
    StreamingFill::new(opts)
        .run(|| Ok(input.as_slice()), &mut out)
        .expect("streaming run");
    out
}

/// Every pinned output of one set, as `(label, digest)`.
fn outputs(cubes: &CubeSet) -> Vec<(&'static str, u64)> {
    let dp_leakage = DpFill::new()
        .with_objective(leakage(cubes.width()))
        .try_run(cubes)
        .expect("leakage DP-fill");
    vec![
        ("dp", digest(&text(&FillMethod::Dp.fill(cubes)))),
        ("dp-leakage", digest(&text(&dp_leakage.filled))),
        ("dp-leakage-streamed", digest(&streamed_leakage(cubes))),
        ("b", digest(&text(&FillMethod::B.fill(cubes)))),
        ("xstat", digest(&text(&FillMethod::XStat.fill(cubes)))),
        ("mt", digest(&text(&FillMethod::Mt.fill(cubes)))),
    ]
}

fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let pool = minipool::ThreadPool::new(threads);
    minipool::with_pool(&pool, f)
}

#[test]
fn emitted_bytes_are_pinned_at_every_thread_count() {
    // Per set, the digests of dp, dp-leakage, dp-leakage-streamed, b,
    // xstat and mt, in that order.
    let pinned: [[u64; 6]; 4] = [
        [
            7178097181524490779,
            3484103837032006448,
            12476555882535780699,
            12676547552848822534,
            15202113343938494492,
            118579693031845193,
        ],
        [
            10514077908643376719,
            8630467980871143320,
            9155625373184143210,
            10392211615946802132,
            5954688958420818700,
            14728238788540315000,
        ],
        [
            7522933691626908068,
            6885815399528503771,
            15992377312731542679,
            12867124594731097610,
            4022890185948638018,
            1213107283276245538,
        ],
        [
            7613300076110109520,
            15824898412069216194,
            2252474609467315567,
            1430440827332459062,
            4421536607963368042,
            17180303013082371184,
        ],
    ];
    for (&(width, count, density, seed), want) in SETS.iter().zip(pinned) {
        let cubes = random_cube_set(width, count, density, seed);
        for threads in [1, 2, 8] {
            let got = with_threads(threads, || outputs(&cubes));
            let labels: Vec<&str> = got.iter().map(|&(label, _)| label).collect();
            let digests: Vec<u64> = got.iter().map(|&(_, d)| d).collect();
            assert_eq!(
                digests, want,
                "set {width}x{count} seed {seed} at {threads} threads ({labels:?})"
            );
        }
    }
}

/// A resident I-ordered DP-fill under `objective`: the whole-set
/// pipeline, whose solve reads Algorithm 3's scan of the winning order.
fn resident_iorder(cubes: &CubeSet, objective: FillObjective) -> Vec<u8> {
    let opts = StreamOptions {
        fill: FillMethod::Dp,
        order: Some(BandedOrder::new(BandedMethod::Interleave)),
        objective,
        ..StreamOptions::default()
    };
    let mut out = Vec::new();
    StreamingFill::new(opts)
        .run_resident(cubes.clone(), &mut out)
        .expect("resident run");
    out
}

#[test]
fn multi_chunk_bytes_are_pinned_at_every_thread_count() {
    // 1,100 pins scan as three chunks of pin words at 1, 2 and 8
    // threads, so every solve walks several chunks within an end. Per
    // set, the digests of dp, dp-leakage, dp-leakage-streamed, the
    // resident I-ordered dp and the resident I-ordered dp-leakage.
    let sets: [(usize, usize, f64, u64); 2] = [(1100, 48, 0.75, 5), (1300, 40, 0.5, 6)];
    let pinned: [[u64; 5]; 2] = [
        [
            4197737956965972051,
            10586606793507922810,
            10864354801710298472,
            2586353206606333755,
            8957014895931012291,
        ],
        [
            10304647291672015612,
            2657315092523434272,
            150729603617852435,
            17622411945671481074,
            3718234731562751300,
        ],
    ];
    for (&(width, count, density, seed), want) in sets.iter().zip(pinned) {
        let cubes = random_cube_set(width, count, density, seed);
        for threads in [1, 2, 8] {
            let got = with_threads(threads, || {
                let dp_leakage = DpFill::new()
                    .with_objective(leakage(width))
                    .try_run(&cubes)
                    .expect("leakage DP-fill");
                [
                    digest(&text(&FillMethod::Dp.fill(&cubes))),
                    digest(&text(&dp_leakage.filled)),
                    digest(&streamed_leakage(&cubes)),
                    digest(&resident_iorder(&cubes, FillObjective::default())),
                    digest(&resident_iorder(&cubes, leakage(width))),
                ]
            });
            assert_eq!(
                got, want,
                "set {width}x{count} seed {seed} at {threads} threads"
            );
        }
    }
}
