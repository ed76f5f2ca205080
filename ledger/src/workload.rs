//! The workload matrix and its seeded input generator.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The ordering a workload's CLI run applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Order {
    /// `--order keep`: arrival order.
    Keep,
    /// `--order interleave` (the CLI default): the paper's I-ordering,
    /// global in monolithic mode, banded over `band` windows when
    /// streaming.
    Interleave,
}

/// One row of the workload matrix.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub cubes: usize,
    pub width: usize,
    /// Care bits drawn per cube (collisions make the specified share
    /// slightly lower), as in `examples/gen_patterns`.
    pub cares: usize,
    pub order: Order,
    /// `--window`: `None` runs the whole-set (monolithic) pipeline.
    pub window: Option<usize>,
    /// `--band` of a streamed ordering.
    pub band: Option<usize>,
    /// `--circuit` powering the `leakage` objective; `None` keeps the
    /// paper's unit peak-toggle objective.
    pub circuit: Option<&'static str>,
}

/// Window and band of the in-process streaming probe on the monolithic
/// workload: a ring of 16 × 1024 cubes covers its whole set, which makes
/// the banded run byte-identical to the global ordering.
pub const MONO_STREAM_PROBE: (usize, usize) = (1024, 16);

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "stream-dp-sparse",
        why: "100k x 512 cubes at ~94% X, streamed keep-order DP-fill: two parses, the unit BCP solve and emit dominate, no ordering",
        cubes: 100_000,
        width: 512,
        cares: 32,
        order: Order::Keep,
        window: Some(1024),
        band: None,
        circuit: None,
    },
    Workload {
        name: "mono-iorder-dense",
        why: "16k x 2048 cubes at ~45% X, whole-set I-ordering then DP-fill (the paper's technique): ordering and the dense mapping dominate",
        cubes: 16_000,
        width: 2048,
        cares: 1635,
        order: Order::Interleave,
        window: None,
        band: None,
        circuit: None,
    },
    Workload {
        name: "stream-leakage-banded",
        why: "100k x 522 cubes at ~94% X, banded I-order with the b20 leakage objective: the weighted solve and banded reorder dominate",
        cubes: 100_000,
        width: 522,
        cares: 32,
        order: Order::Interleave,
        window: Some(1024),
        band: Some(2),
        circuit: Some("b20"),
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The CLI flags of this workload, minus input and output.
    pub fn cli_args(&self) -> Vec<String> {
        let mut args = vec!["--fill", "dp"];
        match (self.order, self.window) {
            (Order::Keep, _) => args.extend(["--order", "keep"]),
            (Order::Interleave, None) => args.extend(["--order", "interleave"]),
            // The banded workload runs the streaming default ordering.
            (Order::Interleave, Some(_)) => {}
        }
        let mut args: Vec<String> = args.into_iter().map(str::to_owned).collect();
        if let Some(window) = self.window {
            args.extend(["--window".to_owned(), window.to_string()]);
        }
        if let Some(band) = self.band {
            args.extend(["--band".to_owned(), band.to_string()]);
        }
        if let Some(circuit) = self.circuit {
            args.extend(["--objective", "leakage", "--circuit", circuit].map(str::to_owned));
        }
        args.extend(["--threads".to_owned(), crate::THREADS.to_string()]);
        args
    }

    /// The header comment the CLI writes above its output.
    pub fn output_header(&self) -> &'static str {
        match self.order {
            Order::Keep => "filled by dpfill-xfill: keep / DP-fill",
            Order::Interleave => "filled by dpfill-xfill: I-order / DP-fill",
        }
    }
}

/// A generated pattern file and its identity.
pub struct Input {
    pub text: Vec<u8>,
    pub cubes: usize,
    pub width: usize,
    pub x_count: usize,
    pub digest: u64,
}

impl Input {
    pub fn x_percent(&self) -> f64 {
        100.0 * self.x_count as f64 / (self.cubes * self.width) as f64
    }

    pub fn to_json(&self, role: &str) -> String {
        format!(
            "{{\"role\": \"{role}\", \"cubes\": {}, \"width\": {}, \"x_percent\": {:.3}, \
             \"bytes\": {}, \"digest\": \"{:016x}\"}}",
            self.cubes,
            self.width,
            self.x_percent(),
            self.text.len(),
            self.digest
        )
    }
}

/// The `examples/gen_patterns` generator: each cube is all `X` but for
/// `cares` uniformly drawn pins set to a random value, behind one header
/// comment. The same `(cubes, width, cares, seed)` gives the same bytes.
pub fn generate(cubes: usize, width: usize, cares: usize, seed: u64) -> Input {
    let mut rng = StdRng::seed_from_u64(seed);
    let header = format!("# {cubes} cubes x {width} pins, ~{cares} care bits each (seed {seed})\n");
    let mut text = Vec::with_capacity(header.len() + cubes * (width + 1));
    text.extend_from_slice(header.as_bytes());
    let mut row = vec![b'X'; width + 1];
    row[width] = b'\n';
    let mut touched = Vec::with_capacity(cares);
    let mut x_count = 0;
    for _ in 0..cubes {
        touched.clear();
        for _ in 0..cares {
            let pin = rng.next_u64() as usize % width;
            row[pin] = if rng.next_u64() & 1 == 0 { b'0' } else { b'1' };
            touched.push(pin);
        }
        x_count += row.iter().filter(|&&b| b == b'X').count();
        text.extend_from_slice(&row);
        for &pin in &touched {
            row[pin] = b'X';
        }
    }
    let digest = digest(&text);
    Input {
        text,
        cubes,
        width,
        x_count,
        digest,
    }
}

/// A 64-bit FNV-1a-style digest, folding eight bytes per step.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let word = u64::from_le_bytes(c.try_into().expect("chunks are eight bytes"));
        h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }
    for &b in chunks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ bytes.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_digest() {
        let a = generate(300, 70, 5, 11);
        let b = generate(300, 70, 5, 11);
        let c = generate(300, 70, 5, 12);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.text, b.text);
        assert_ne!(a.digest, c.digest);
        assert_eq!(a.text.iter().filter(|&&b| b == b'X').count(), a.x_count);
    }

    #[test]
    fn one_cube_input_is_the_first_row_of_the_full_input() {
        let full = generate(50, 40, 4, 9);
        let one = generate(1, 40, 4, 9);
        let body = |t: &[u8]| t.split(|&b| b == b'\n').nth(1).map(<[u8]>::to_vec);
        assert_eq!(body(&full.text), body(&one.text));
        assert_eq!(one.cubes, 1);
    }

    #[test]
    fn workload_names_are_unique_and_flags_pin_threads() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[i + 1..].iter().all(|o| o.name != w.name));
            assert!(w.cli_args().windows(2).any(|a| a[0] == "--threads"));
        }
    }
}
