//! Maximum-product bipartite transversal with scaling — the MC64 stand-in.
//!
//! Implements the Duff–Koster "permute large entries to the diagonal"
//! algorithm (MC64 job 5): find a column-to-row matching maximising the
//! product of matched absolute values, by solving the equivalent min-cost
//! assignment with costs `c(i,j) = log(cmax_j) − log|a(i,j)|` via shortest
//! augmenting paths (Dijkstra with row/column potentials, the
//! Jonker–Volgenant scheme). The optimal dual variables give row/column
//! scalings under which every matrix entry has absolute value ≤ 1 and the
//! matched (diagonal) entries are exactly 1 — the property PanguLU relies
//! on for static pivoting.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use pangulu_sparse::{CscMatrix, Permutation, Result, SparseError};

/// Result of the matching: permutation and scalings.
#[derive(Debug, Clone)]
pub struct Mc64Result {
    /// Row permutation (`perm[new] = old`): applying it puts the matched
    /// entry of column `j` at position `(j, j)`.
    pub row_perm: Permutation,
    /// Row scaling `Dr` (multiply row `i` by `row_scale[i]`).
    pub row_scale: Vec<f64>,
    /// Column scaling `Dc`.
    pub col_scale: Vec<f64>,
}

/// Entry in the Dijkstra frontier (min-heap by distance).
#[derive(PartialEq)]
struct HeapItem {
    dist: f64,
    row: usize,
}

impl Eq for HeapItem {}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed for a min-heap; ties broken by row index for determinism.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.row.cmp(&self.row))
    }
}

const NONE: usize = usize::MAX;

/// Value standing in for `-ln(0)`: explicit zeros keep a finite but
/// prohibitive cost so they are only matched as a structural last resort.
const ZERO_VALUE_COST: f64 = 800.0;

/// Computes the maximum-product matching and the associated scalings.
///
/// Returns an error if the matrix is not square or is structurally
/// singular (no perfect matching exists).
///
/// # Examples
/// ```
/// // An anti-diagonal matrix: the matching reverses the rows so the
/// // large entries land on the diagonal.
/// let mut coo = pangulu_sparse::CooMatrix::new(2, 2);
/// coo.push(1, 0, 3.0).unwrap();
/// coo.push(0, 1, 5.0).unwrap();
/// let m = pangulu_reorder::mc64::mc64(&coo.to_csc()).unwrap();
/// assert_eq!(m.row_perm.as_slice(), &[1, 0]);
/// ```
pub fn mc64(a: &CscMatrix) -> Result<Mc64Result> {
    if !a.is_square() {
        return Err(SparseError::NotSquare { nrows: a.nrows(), ncols: a.ncols() });
    }
    let n = a.ncols();
    if n == 0 {
        return Ok(Mc64Result {
            row_perm: Permutation::identity(0),
            row_scale: vec![],
            col_scale: vec![],
        });
    }

    // Edge costs: c(i,j) = log(cmax_j) - log|a(i,j)| >= 0.
    let mut log_cmax = vec![0.0f64; n];
    for (j, lc) in log_cmax.iter_mut().enumerate() {
        let (_, vals) = a.col(j);
        let cmax = vals.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        *lc = if cmax > 0.0 { cmax.ln() } else { 0.0 };
    }
    // cost of the k-th stored entry, which lives in column j
    let cost = |j: usize, k: usize| -> f64 {
        let v = a.values()[k].abs();
        if v == 0.0 {
            log_cmax[j] + ZERO_VALUE_COST
        } else {
            log_cmax[j] - v.ln()
        }
    };

    let mut match_row = vec![NONE; n]; // row  -> matched column
    let mut match_col = vec![NONE; n]; // col  -> matched row
    let mut u = vec![0.0f64; n]; // row potentials
    let mut w = vec![0.0f64; n]; // column potentials

    // Initial duals: w[j] = min cost in column j keeps every reduced cost
    // c(i,j) - u[i] - w[j] non-negative with u = 0. Greedily match tight
    // edges; for diagonally dominant inputs this matches nearly all columns
    // and leaves few augmentations.
    for j in 0..n {
        let (rows, _) = a.col(j);
        let lo = a.col_ptr()[j];
        let mut best: Option<(f64, usize)> = None;
        for (off, &i) in rows.iter().enumerate() {
            let c = cost(j, lo + off);
            if best.is_none_or(|(bc, _)| c < bc) {
                best = Some((c, i));
            }
        }
        if let Some((c, i)) = best {
            w[j] = c;
            if match_row[i] == NONE {
                match_row[i] = j;
                match_col[j] = i;
            }
        }
    }

    // Shortest augmenting path from every unmatched column (Dijkstra on
    // reduced costs; matched edges are tight so traversing row -> its
    // matched column is free).
    let mut dist = vec![f64::INFINITY; n];
    let mut pred = vec![NONE; n]; // row -> column that reached it
    let mut touched_rows: Vec<usize> = Vec::new();
    // Generation-stamped "settled" marker avoids an O(n) clear per search.
    let mut settled_gen = vec![0u32; n];
    let mut gen_counter = 0u32;
    for j0 in 0..n {
        if match_col[j0] != NONE {
            continue;
        }
        for &r in &touched_rows {
            dist[r] = f64::INFINITY;
            pred[r] = NONE;
        }
        touched_rows.clear();
        gen_counter += 1;

        let mut heap = BinaryHeap::new();
        let mut settled: Vec<(usize, f64)> = Vec::new(); // (row, dist) in settle order
        let mut visited_cols: Vec<usize> = vec![j0];
        let mut sink = NONE;
        let mut sink_dist = 0.0f64;

        // Seed from column j0 at distance 0.
        {
            let (rows, _) = a.col(j0);
            let lo = a.col_ptr()[j0];
            for (off, &i) in rows.iter().enumerate() {
                let nd = cost(j0, lo + off) - w[j0] - u[i];
                if nd < dist[i] {
                    if dist[i] == f64::INFINITY {
                        touched_rows.push(i);
                    }
                    dist[i] = nd;
                    pred[i] = j0;
                    heap.push(HeapItem { dist: nd, row: i });
                }
            }
        }

        while let Some(HeapItem { dist: d, row: i }) = heap.pop() {
            if d > dist[i] || settled_gen[i] == gen_counter {
                continue; // stale or already settled entry
            }
            settled_gen[i] = gen_counter;
            settled.push((i, d));
            let jm = match_row[i];
            if jm == NONE {
                sink = i;
                sink_dist = d;
                break;
            }
            // Pass through the (tight) matched edge into column jm, then
            // relax every row of that column.
            visited_cols.push(jm);
            let (rows, _) = a.col(jm);
            let lo = a.col_ptr()[jm];
            for (off, &k) in rows.iter().enumerate() {
                let nd = d + cost(jm, lo + off) - w[jm] - u[k];
                if nd + 1e-15 < dist[k] {
                    if dist[k] == f64::INFINITY {
                        touched_rows.push(k);
                    }
                    dist[k] = nd;
                    pred[k] = jm;
                    heap.push(HeapItem { dist: nd, row: k });
                }
            }
        }

        if sink == NONE {
            return Err(SparseError::InvalidStructure(
                "matrix is structurally singular: no perfect matching".into(),
            ));
        }

        // Dual updates (before augmenting: they reference the old matching).
        // Settled rows move by (sink_dist - d_i); visited columns move with
        // the row they were entered through.
        for &(i, di) in &settled {
            u[i] -= sink_dist - di;
        }
        for &jc in &visited_cols {
            if jc == j0 {
                w[jc] += sink_dist;
            } else {
                let i = match_col[jc];
                w[jc] += sink_dist - dist[i];
            }
        }

        // Augment along the predecessor chain.
        let mut i = sink;
        loop {
            let jc = pred[i];
            let prev = match_col[jc];
            match_col[jc] = i;
            match_row[i] = jc;
            if jc == j0 {
                break;
            }
            i = prev;
        }
    }

    // Re-tighten matched edges exactly; numerical drift from the Dijkstra
    // updates must not leak into the scalings.
    for j in 0..n {
        let i = match_col[j];
        let (rows, _) = a.col(j);
        let lo = a.col_ptr()[j];
        let off = rows.iter().position(|&r| r == i).expect("matched entry exists");
        w[j] = cost(j, lo + off) - u[i];
    }

    // Scalings: with u_i + w_j <= c(i,j) (tight on matched), setting
    // dr_i = e^{u_i} and dc_j = e^{w_j} / cmax_j yields |Dr A Dc| <= 1 with
    // exactly 1 at matched positions.
    let row_scale: Vec<f64> = u.iter().map(|&ui| ui.exp()).collect();
    let col_scale: Vec<f64> = w.iter().zip(&log_cmax).map(|(&wj, &lc)| (wj - lc).exp()).collect();

    // perm[new] = old: new row j holds old row match_col[j].
    let row_perm = Permutation::from_vec(match_col)?;
    Ok(Mc64Result { row_perm, row_scale, col_scale })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pangulu_sparse::gen;
    use pangulu_sparse::permute::{permute, scale};

    fn check_mc64(a: &CscMatrix) {
        let m = mc64(a).unwrap();
        let scaled = scale(a, &m.row_scale, &m.col_scale).unwrap();
        let b = permute(&scaled, &m.row_perm, &Permutation::identity(a.ncols())).unwrap();
        for j in 0..a.ncols() {
            let d = b.get(j, j).abs();
            assert!(d > 0.0, "diagonal {j} is zero after matching");
            assert!((d - 1.0).abs() < 1e-8, "matched diagonal {j} = {d}, want 1");
        }
        for (_, _, val) in b.iter() {
            assert!(val.abs() <= 1.0 + 1e-8, "entry {val} exceeds 1 after scaling");
        }
    }

    #[test]
    fn identity_is_fixed_point() {
        let a = CscMatrix::identity(5);
        let m = mc64(&a).unwrap();
        assert_eq!(m.row_perm, Permutation::identity(5));
        check_mc64(&a);
    }

    #[test]
    fn off_diagonal_permutation_found() {
        // Anti-diagonal matrix: matching must reverse the rows.
        let mut coo = pangulu_sparse::CooMatrix::new(3, 3);
        coo.push(2, 0, 5.0).unwrap();
        coo.push(1, 1, 2.0).unwrap();
        coo.push(0, 2, 7.0).unwrap();
        let a = coo.to_csc();
        let m = mc64(&a).unwrap();
        assert_eq!(m.row_perm.as_slice(), &[2, 1, 0]);
        check_mc64(&a);
    }

    #[test]
    fn prefers_large_entries() {
        // Max-product matching must take the 10.0 at (1,0) and 1.0 at (0,1)
        // rather than the tiny 1e-8 diagonal.
        let mut coo = pangulu_sparse::CooMatrix::new(2, 2);
        coo.push(0, 0, 1e-8).unwrap();
        coo.push(1, 0, 10.0).unwrap();
        coo.push(0, 1, 1.0).unwrap();
        coo.push(1, 1, 1.0).unwrap();
        let a = coo.to_csc();
        let m = mc64(&a).unwrap();
        assert_eq!(m.row_perm.as_slice(), &[1, 0]);
        check_mc64(&a);
    }

    #[test]
    fn augmenting_path_through_matched_rows() {
        // Column 2 can only use row 0, forcing earlier greedy matches to be
        // rearranged via an augmenting path.
        let mut coo = pangulu_sparse::CooMatrix::new(3, 3);
        coo.push(0, 0, 5.0).unwrap();
        coo.push(1, 0, 1.0).unwrap();
        coo.push(0, 1, 3.0).unwrap();
        coo.push(2, 1, 1.0).unwrap();
        coo.push(0, 2, 2.0).unwrap();
        let a = coo.to_csc();
        let m = mc64(&a).unwrap();
        // Column 2 must take row 0; the rest follow.
        assert_eq!(m.row_perm.as_slice()[2], 0);
        check_mc64(&a);
    }

    #[test]
    fn structurally_singular_detected() {
        // Column 1 empty.
        let a = CscMatrix::from_parts(2, 2, vec![0, 2, 2], vec![0, 1], vec![1.0, 1.0]).unwrap();
        assert!(mc64(&a).is_err());
    }

    #[test]
    fn random_matrices_satisfy_scaling_property() {
        for seed in 0..5 {
            let a = gen::random_sparse(40, 0.15, seed);
            check_mc64(&a);
        }
    }

    #[test]
    fn circuit_matrix_matches() {
        let a = gen::circuit(300, 1);
        check_mc64(&a);
    }

    #[test]
    fn empty_matrix_ok() {
        let a = CscMatrix::zeros(0, 0);
        let m = mc64(&a).unwrap();
        assert_eq!(m.row_perm.len(), 0);
    }
}
