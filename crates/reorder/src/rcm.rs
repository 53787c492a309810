//! Reverse Cuthill–McKee ordering.
//!
//! Bandwidth-reducing ordering used as a cross-check in tests and as a
//! sensible choice for the banded quantum-chemistry analogs.

use crate::Graph;
use pangulu_sparse::{CscMatrix, Permutation, Result};

/// Computes the reverse Cuthill–McKee permutation (`perm[new] = old`) of
/// the pattern of `A + Aᵀ`.
pub fn rcm_order(a: &CscMatrix) -> Result<Permutation> {
    order(&Graph::from_pattern(a)?)
}

/// Reverse Cuthill–McKee on the ordering graph. Each connected component
/// starts at its least `(degree, index)` vertex, and a vertex's unvisited
/// neighbours join the breadth-first queue in `(degree, index)` order —
/// the classic tie-breaking.
pub(crate) fn order(g: &Graph) -> Result<Permutation> {
    let n = g.n();
    let degree = |v: usize| g.neighbours(v).len();
    // Sorted once, walked with a cursor: the first unvisited vertex in
    // this order is the least one left, so each start costs no search.
    let mut starts: Vec<usize> = (0..n).collect();
    starts.sort_unstable_by_key(|&v| (degree(v), v));

    let mut visited = vec![false; n];
    // The breadth-first queue: `order[head..]` waits to be expanded.
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut fresh: Vec<usize> = Vec::new();
    for start in starts {
        if visited[start] {
            continue;
        }
        visited[start] = true;
        let mut head = order.len();
        order.push(start);
        while head < order.len() {
            let v = order[head];
            head += 1;
            fresh.clear();
            fresh.extend(g.neighbours(v).iter().copied().filter(|&w| !visited[w]));
            fresh.sort_unstable_by_key(|&w| (degree(w), w));
            for &w in &fresh {
                visited[w] = true;
            }
            order.extend_from_slice(&fresh);
        }
    }
    order.reverse();
    Permutation::from_vec(order)
}

/// Bandwidth of the permuted pattern (max |i - j| over stored entries);
/// used to verify RCM actually compresses the band.
pub fn bandwidth(sym: &CscMatrix, perm: &Permutation) -> usize {
    let inv = perm.inverse();
    let mut bw = 0usize;
    for (i, j, _) in sym.iter() {
        let (pi, pj) = (inv.old_of(i), inv.old_of(j));
        bw = bw.max(pi.abs_diff(pj));
    }
    bw
}

#[cfg(test)]
mod tests {
    use super::*;
    use pangulu_sparse::gen;

    #[test]
    fn valid_permutation() {
        let a = gen::laplacian_2d(10, 10);
        let p = rcm_order(&a).unwrap();
        assert_eq!(p.len(), 100);
    }

    #[test]
    fn reduces_bandwidth_of_shuffled_chain() {
        // A 1-D chain shuffled by a pseudo-random permutation: RCM must
        // recover an ordering with bandwidth 1.
        let n = 64;
        let mut coo = pangulu_sparse::CooMatrix::new(n, n);
        let shuffle: Vec<usize> = (0..n).map(|i| (i * 37) % n).collect();
        for i in 0..n {
            coo.push(shuffle[i], shuffle[i], 2.0).unwrap();
            if i + 1 < n {
                coo.push(shuffle[i], shuffle[i + 1], -1.0).unwrap();
                coo.push(shuffle[i + 1], shuffle[i], -1.0).unwrap();
            }
        }
        let a = coo.to_csc();
        let p = rcm_order(&a).unwrap();
        assert_eq!(bandwidth(&a, &p), 1);
    }

    #[test]
    fn handles_disconnected_components() {
        let a = CscMatrix::identity(7);
        let p = rcm_order(&a).unwrap();
        assert_eq!(p.len(), 7);
    }

    #[test]
    fn deterministic() {
        let a = gen::circuit(150, 4);
        let s = pangulu_sparse::ops::symmetrize(&a).unwrap();
        assert_eq!(rcm_order(&s).unwrap(), rcm_order(&s).unwrap());
    }

    /// Reverse Cuthill–McKee with each component's start found by a scan
    /// of every unvisited vertex: the oracle the sorted cursor matches.
    fn scanning_rcm(sym: &CscMatrix) -> Vec<usize> {
        let n = sym.ncols();
        let adj: Vec<Vec<usize>> =
            (0..n).map(|j| sym.col(j).0.iter().copied().filter(|&i| i != j).collect()).collect();
        let key = |v: usize| (adj[v].len(), v);
        let (mut visited, mut order) = (vec![false; n], Vec::new());
        while let Some(s) = (0..n).filter(|&v| !visited[v]).min_by_key(|&v| key(v)) {
            let mut queue = std::collections::VecDeque::from([s]);
            visited[s] = true;
            while let Some(v) = queue.pop_front() {
                order.push(v);
                let mut nbrs = adj[v].clone();
                nbrs.sort_unstable_by_key(|&w| key(w));
                for w in nbrs.into_iter().filter(|&w| !std::mem::replace(&mut visited[w], true)) {
                    queue.push_back(w);
                }
            }
        }
        order.reverse();
        order
    }

    #[test]
    fn sorted_starts_give_the_scanning_rule_bit_for_bit() {
        // Sparse random patterns split into many components and isolated
        // vertices; a second, shifted copy of each doubles the count.
        for seed in 0..12u64 {
            let n = 60 + 17 * seed as usize;
            let a = gen::random_sparse(n, 1.2 / n as f64, seed);
            let mut coo = pangulu_sparse::CooMatrix::new(2 * n, 2 * n);
            for (i, j, v) in a.iter() {
                coo.push(i, j, v).unwrap();
                coo.push((i + 5) % n + n, (j + 5) % n + n, v).unwrap();
            }
            let sym = pangulu_sparse::ops::symmetrize(&coo.to_csc()).unwrap();
            let p = rcm_order(&sym).unwrap();
            assert_eq!(p.as_slice(), scanning_rcm(&sym).as_slice(), "seed {seed}");
        }
    }
}
