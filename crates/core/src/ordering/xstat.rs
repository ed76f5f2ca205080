use dpfill_cubes::CubeSet;

use super::{OrderingError, OrderingStrategy, PackedCubes};

/// Appends every unvisited index to `order` in ascending index order.
///
/// The chaining loop's "an unvisited cube always exists" invariant is
/// load-bearing for downstream `reordered()` callers:
/// they require a *permutation*. If the invariant ever breaks, falling
/// back to index order for the stragglers keeps the result a
/// permutation instead of a truncated vector.
pub(crate) fn complete_permutation(order: &mut Vec<usize>, visited: &[bool]) {
    for (i, &seen) in visited.iter().enumerate() {
        if !seen {
            order.push(i);
        }
    }
}

/// XStat's vector ordering \[22\]: greedy nearest-neighbour chaining on
/// *conflict distance*.
///
/// Starting from the most specified cube (fewest `X`s — its toggles are
/// the hardest to hide), the ordering repeatedly appends the unvisited
/// cube with the fewest unavoidable toggles against the last scheduled
/// one. Conflict distance only counts opposite care-care pins, so cubes
/// that can be made identical by filling count as distance 0.
///
/// Complexity O(n²·w) with `w` words per packed cube; ties break toward
/// more specified cubes, then lower index (deterministic).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct XStatOrdering;

impl OrderingStrategy for XStatOrdering {
    fn name(&self) -> &'static str {
        "XStat-order"
    }

    fn order(&self, cubes: &CubeSet) -> Result<Vec<usize>, OrderingError> {
        let n = cubes.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let packed = PackedCubes::pack(cubes);
        // One popcount-kernel resolve for the whole O(n²) chaining loop;
        // every candidate chunk scores through it without re-dispatch.
        let conflict = packed.scorer();
        let care: Vec<usize> = (0..n).map(|i| packed.care_count(i)).collect();

        // Seed: most specified cube. `n > 0` was checked above, so the
        // max exists; the let-else keeps this path panic-free anyway.
        let Some(start) = (0..n).max_by_key(|&i| (care[i], std::cmp::Reverse(i))) else {
            return Ok(Vec::new());
        };
        let mut visited = vec![false; n];
        let mut order = Vec::with_capacity(n);
        visited[start] = true;
        order.push(start);
        let mut current = start;
        for _ in 1..n {
            // Candidate scoring fans out over the pool: each index chunk
            // reports its best (dist, -care, idx) key and the chunk
            // minima reduce to the global minimum. Keys are unique (the
            // index is the last component), so the winner equals the
            // serial first-strict-minimum scan at any thread count.
            let best: Option<(usize, usize, usize)> =
                minipool::parallel_index_chunks(n, 256, |range| {
                    let mut local: Option<(usize, usize, usize)> = None;
                    for cand in range {
                        if visited[cand] {
                            continue;
                        }
                        let d = conflict(current, cand);
                        let key = (d, usize::MAX - care[cand], cand);
                        if local.is_none_or(|b| key < b) {
                            local = Some(key);
                        }
                    }
                    local
                })
                .into_iter()
                .flatten()
                .min();
            // An unvisited cube exists on every iteration (the loop
            // runs n-1 times after seeding one). If that invariant ever
            // breaks, finish with the stragglers in index order — a
            // `break` here used to return a *truncated* vector, which
            // downstream `reordered()` callers treat
            // as a malformed permutation.
            let Some((_, _, next)) = best else {
                complete_permutation(&mut order, &visited);
                break;
            };
            visited[next] = true;
            order.push(next);
            current = next;
        }
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::is_permutation;
    use dpfill_cubes::{conflict_distance, gen::random_cube_set};

    #[test]
    fn chains_compatible_cubes_adjacently() {
        // Cubes 0 and 2 are identical; 1 conflicts with both on 3 pins.
        let cubes = CubeSet::parse_rows(&["000X", "111X", "000X"]).unwrap();
        let order = XStatOrdering.order(&cubes).unwrap();
        assert!(is_permutation(&order, 3));
        // The two zero-cubes must be adjacent.
        let pos0 = order.iter().position(|&i| i == 0).unwrap();
        let pos2 = order.iter().position(|&i| i == 2).unwrap();
        assert_eq!(pos0.abs_diff(pos2), 1, "order: {order:?}");
    }

    #[test]
    fn reduces_peak_conflicts_vs_adversarial_tool_order() {
        // Alternating far-apart cubes; nearest-neighbour should regroup.
        let rows = ["00000000", "11111111", "00000001", "11111110"];
        let cubes = CubeSet::parse_rows(&rows).unwrap();
        let order = XStatOrdering.order(&cubes).unwrap();
        let reordered = cubes.reordered(&order).unwrap();
        let peak_before: usize = (0..cubes.len() - 1)
            .map(|j| conflict_distance(&cubes.cube(j), &cubes.cube(j + 1)))
            .max()
            .unwrap();
        let peak_after: usize = (0..reordered.len() - 1)
            .map(|j| conflict_distance(&reordered.cube(j), &reordered.cube(j + 1)))
            .max()
            .unwrap();
        assert!(peak_after < peak_before);
        // The two clusters must be crossed exactly once: only one
        // expensive transition survives.
        let expensive = (0..reordered.len() - 1)
            .filter(|&j| conflict_distance(&reordered.cube(j), &reordered.cube(j + 1)) > 4)
            .count();
        assert_eq!(expensive, 1, "clusters should be crossed once");
    }

    #[test]
    fn starts_from_most_specified_cube() {
        let cubes = CubeSet::parse_rows(&["XXXX", "0X1X", "0011"]).unwrap();
        let order = XStatOrdering.order(&cubes).unwrap();
        assert_eq!(order[0], 2);
    }

    #[test]
    fn deterministic() {
        let cubes = random_cube_set(32, 20, 0.8, 5);
        assert_eq!(
            XStatOrdering.order(&cubes).unwrap(),
            XStatOrdering.order(&cubes).unwrap()
        );
    }

    #[test]
    fn single_cube() {
        let cubes = CubeSet::parse_rows(&["01X"]).unwrap();
        assert_eq!(XStatOrdering.order(&cubes).unwrap(), vec![0]);
    }

    #[test]
    fn broken_invariant_completes_to_a_permutation() {
        // Regression: when the chaining loop finds no unvisited
        // candidate (the invariant-break path), the old code `break`ed
        // and returned a truncated vector. The completion helper must
        // restore a full permutation, stragglers in index order.
        let mut order = vec![4, 1];
        let visited = [false, true, false, false, true];
        complete_permutation(&mut order, &visited);
        assert_eq!(order, vec![4, 1, 0, 2, 3]);
        assert!(is_permutation(&order, 5));

        // No-op when everything was visited.
        let mut full = vec![2, 0, 1];
        complete_permutation(&mut full, &[true, true, true]);
        assert_eq!(full, vec![2, 0, 1]);
    }
}
