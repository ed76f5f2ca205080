//! The output checker. It reads the pattern text directly and never
//! calls the library, so a library bug cannot hide its own symptom.

use std::fmt;

/// How output rows map back to the input rows they must fill.
#[derive(Clone, Copy, Debug)]
pub enum Mapping<'a> {
    /// Output row `i` fills input row `i` (keep order).
    Identity,
    /// Output row `i` fills input row `perm[i]` (a global ordering).
    Perm(&'a [usize]),
    /// Output rows fill distinct input rows (a banded ordering, whose
    /// permutation is not public). A row's source lies within `horizon`
    /// rows of it or among the older cubes still unmatched (an ordering
    /// can hold a cube back for long). A filled row often fills a
    /// neighbour's cube too, so this is a bipartite matching, not a
    /// first fit.
    Search { horizon: usize },
    /// Care bits are not checked here: the caller compares the bytes
    /// with an output that passed a `Search` check.
    Unchecked,
}

/// What the checker recounted on a valid output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Recount {
    pub cubes: usize,
    pub width: usize,
    /// Peak toggles between consecutive patterns.
    pub peak: u64,
    /// Peak weighted toggles, when weights were given.
    pub weighted_peak: Option<u64>,
}

/// The first defect found. Rows are 0-based pattern indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckError {
    CubeCount {
        expected: usize,
        found: usize,
    },
    Width {
        row: usize,
        expected: usize,
        found: usize,
    },
    LeftoverX {
        row: usize,
        pin: usize,
    },
    BadChar {
        row: usize,
        pin: usize,
        byte: u8,
    },
    CareChanged {
        row: usize,
        pin: usize,
        source: usize,
    },
    NoSource {
        row: usize,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::CubeCount { expected, found } => {
                write!(f, "{found} output patterns for {expected} input cubes")
            }
            CheckError::Width {
                row,
                expected,
                found,
            } => write!(f, "pattern {row} has {found} pins, expected {expected}"),
            CheckError::LeftoverX { row, pin } => write!(f, "pattern {row} pin {pin} is still X"),
            CheckError::BadChar { row, pin, byte } => {
                write!(f, "pattern {row} pin {pin} holds byte {byte:#04x}")
            }
            CheckError::CareChanged { row, pin, source } => write!(
                f,
                "pattern {row} pin {pin} overwrites a care bit of input cube {source}"
            ),
            CheckError::NoSource { row } => {
                write!(f, "pattern {row} fills no unmatched input cube")
            }
        }
    }
}

/// The pattern lines of a file: comment (`#`) and blank lines dropped,
/// trailing `\r` trimmed.
pub fn rows(text: &[u8]) -> Vec<&[u8]> {
    text.split(|&b| b == b'\n')
        .map(|l| l.strip_suffix(b"\r").unwrap_or(l))
        .filter(|l| !l.is_empty() && l[0] != b'#')
        .collect()
}

/// Checks that `output` is a complete filling of `input` under
/// `mapping` — same cube count and width, no `X` or foreign byte left,
/// every input care bit kept — and recounts its peak (and weighted peak
/// under `weights`).
pub fn check(
    input: &[&[u8]],
    output: &[u8],
    mapping: Mapping<'_>,
    weights: Option<&[u64]>,
) -> Result<Recount, CheckError> {
    let out = rows(output);
    if out.len() != input.len() {
        return Err(CheckError::CubeCount {
            expected: input.len(),
            found: out.len(),
        });
    }
    let width = input.first().map_or(0, |r| r.len());
    for (row, line) in out.iter().enumerate() {
        if line.len() != width {
            return Err(CheckError::Width {
                row,
                expected: width,
                found: line.len(),
            });
        }
        if let Some(pin) = line.iter().position(|&b| b != b'0' && b != b'1') {
            return Err(match line[pin] {
                b'X' => CheckError::LeftoverX { row, pin },
                byte => CheckError::BadChar { row, pin, byte },
            });
        }
    }
    match mapping {
        Mapping::Identity => {
            for (row, (o, i)) in out.iter().zip(input).enumerate() {
                keeps_cares(row, o, i, row)?;
            }
        }
        Mapping::Perm(perm) => {
            for (row, o) in out.iter().enumerate() {
                let source = perm[row];
                keeps_cares(row, o, input[source], source)?;
            }
        }
        Mapping::Search { horizon } => match_sources(input, &out, horizon)?,
        Mapping::Unchecked => {}
    }
    let mut peak = 0u64;
    let mut weighted_peak = weights.map(|_| 0u64);
    for pair in out.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        let toggles = a.iter().zip(b).filter(|(x, y)| x != y).count() as u64;
        peak = peak.max(toggles);
        if let (Some(w), Some(wp)) = (weights, weighted_peak.as_mut()) {
            let load: u64 = (0..width).filter(|&p| a[p] != b[p]).map(|p| w[p]).sum();
            *wp = (*wp).max(load);
        }
    }
    Ok(Recount {
        cubes: out.len(),
        width,
        peak,
        weighted_peak,
    })
}

fn keeps_cares(row: usize, out: &[u8], input: &[u8], source: usize) -> Result<(), CheckError> {
    match input
        .iter()
        .zip(out)
        .position(|(&i, &o)| i != b'X' && i != o)
    {
        Some(pin) => Err(CheckError::CareChanged { row, pin, source }),
        None => Ok(()),
    }
}

/// Finds a perfect matching of output rows to input rows they fill
/// (Kuhn's augmenting paths, walked iteratively). Row `j`'s candidates
/// are the inputs within `horizon` of `j` plus the backlog: inputs that
/// fell below that window unmatched.
fn match_sources(input: &[&[u8]], out: &[&[u8]], horizon: usize) -> Result<(), CheckError> {
    // Care and value bits of every input cube as 64-pin words, so one
    // candidate test is a few word compares, mostly just the first.
    let words = input.first().map_or(0, |r| r.len().div_ceil(64));
    let mut care = vec![0u64; input.len() * words];
    let mut value = vec![0u64; input.len() * words];
    for (i, row) in input.iter().enumerate() {
        for (p, &b) in row.iter().enumerate() {
            if b != b'X' {
                care[i * words + p / 64] |= 1 << (p % 64);
                if b == b'1' {
                    value[i * words + p / 64] |= 1 << (p % 64);
                }
            }
        }
    }
    let mut bits = vec![0u64; words];
    const FREE: usize = usize::MAX;
    let mut owner = vec![FREE; input.len()];
    let mut matched = vec![FREE; out.len()];
    let mut seen = vec![FREE; input.len()];
    let mut via = vec![FREE; input.len()];
    let mut candidates: Vec<Vec<usize>> = Vec::with_capacity(out.len());
    let mut backlog: Vec<usize> = Vec::new();
    for (j, o) in out.iter().enumerate() {
        let lo = j.saturating_sub(horizon);
        if j > horizon {
            // Input `lo - 1` just left the window.
            if owner[lo - 1] == FREE {
                backlog.push(lo - 1);
            }
            // A matched backlog cube stays a candidate while the row
            // holding it is near enough to hand it over.
            backlog.retain(|&i| owner[i] == FREE || owner[i] + horizon >= j);
        }
        let hi = (j + horizon + 1).min(input.len());
        bits.fill(0);
        for (p, &b) in o.iter().enumerate() {
            bits[p / 64] |= u64::from(b == b'1') << (p % 64);
        }
        let fills = |i: usize| {
            let (c, v) = (&care[i * words..][..words], &value[i * words..][..words]);
            c.iter()
                .zip(v)
                .zip(&bits)
                .all(|((c, v), b)| (b ^ v) & c == 0)
        };
        candidates.push(
            backlog
                .iter()
                .copied()
                .chain(lo..hi)
                .filter(|&i| fills(i))
                .collect(),
        );
        let mut stack = vec![(j, 0usize)];
        let mut free = None;
        while let Some((u, next)) = stack.last_mut() {
            let Some(&i) = candidates[*u].get(*next) else {
                stack.pop();
                continue;
            };
            *next += 1;
            if seen[i] == j {
                continue;
            }
            seen[i] = j;
            via[i] = *u;
            if owner[i] == FREE {
                free = Some(i);
                break;
            }
            stack.push((owner[i], 0));
        }
        let Some(mut i) = free else {
            return Err(CheckError::NoSource { row: j });
        };
        // Flip the path: each output on it takes the input that reached
        // it and frees its previous one for the output before it.
        loop {
            let u = via[i];
            let previous = matched[u];
            owner[i] = u;
            matched[u] = i;
            if u == j {
                break;
            }
            i = previous;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const INPUT: &[u8] = b"# three cubes\n0X1X\nX10X\n1XX1\n";
    const GOOD: &[u8] = b"# filled\n0010\n0100\n1001\n";

    fn run(output: &[u8], mapping: Mapping<'_>) -> Result<Recount, CheckError> {
        check(&rows(INPUT), output, mapping, Some(&[1, 2, 4, 8]))
    }

    #[test]
    fn accepts_a_filling_and_recounts_its_peaks() {
        let r = run(GOOD, Mapping::Identity).unwrap();
        assert_eq!(
            (r.cubes, r.width, r.peak, r.weighted_peak),
            (3, 4, 3, Some(11))
        );
        let reordered = b"1001\n0010\n0100\n";
        assert!(run(reordered, Mapping::Perm(&[2, 0, 1])).is_ok());
        assert!(run(reordered, Mapping::Search { horizon: 3 }).is_ok());
    }

    #[test]
    fn search_resolves_rows_that_fill_several_cubes() {
        // Row 0 fills both cubes, row 1 only the first: a first fit
        // would strand row 1, the matching gives row 0 the second cube.
        let input = rows(b"0XX\n01X\n");
        assert!(check(&input, b"010\n001\n", Mapping::Search { horizon: 1 }, None).is_ok());
        assert_eq!(
            check(&input, b"000\n001\n", Mapping::Search { horizon: 1 }, None),
            Err(CheckError::NoSource { row: 1 })
        );
        assert_eq!(
            check(&input, b"010\n001\n", Mapping::Search { horizon: 0 }, None),
            Err(CheckError::NoSource { row: 1 })
        );
    }

    #[test]
    fn rejects_a_flipped_care_bit() {
        assert_eq!(
            run(b"0010\n0000\n1001\n", Mapping::Identity),
            Err(CheckError::CareChanged {
                row: 1,
                pin: 1,
                source: 1
            })
        );
        assert_eq!(
            run(b"1001\n0010\n0100\n", Mapping::Perm(&[0, 1, 2])),
            Err(CheckError::CareChanged {
                row: 0,
                pin: 0,
                source: 0
            })
        );
        assert_eq!(
            run(b"1110\n0100\n1001\n", Mapping::Search { horizon: 3 }),
            Err(CheckError::NoSource { row: 0 })
        );
    }

    #[test]
    fn rejects_a_leftover_x() {
        assert_eq!(
            run(b"0010\n0X00\n1001\n", Mapping::Identity),
            Err(CheckError::LeftoverX { row: 1, pin: 1 })
        );
    }

    #[test]
    fn rejects_a_dropped_line() {
        assert_eq!(
            run(b"0010\n1001\n", Mapping::Identity),
            Err(CheckError::CubeCount {
                expected: 3,
                found: 2
            })
        );
    }

    #[test]
    fn rejects_a_ragged_line() {
        assert_eq!(
            run(b"0010\n010\n1001\n", Mapping::Identity),
            Err(CheckError::Width {
                row: 1,
                expected: 4,
                found: 3
            })
        );
    }
}
