//! Supernode detection with relaxed amalgamation.
//!
//! A supernode is a run of consecutive columns whose `L` structures are
//! (nearly) nested: column `j+1` may join the supernode of column `j`
//! when `j+1` is `j`'s elimination-tree parent and the union of row
//! structures stays within a per-column padding budget (`relax`). The
//! padding — rows stored for a member column that its true structure
//! lacks — is exactly the "extra zero fill-ins" of the paper's Fig. 1(d).

use pangulu_symbolic::etree::NO_PARENT;
use pangulu_symbolic::FilledPattern;

/// A partition of the columns into supernodes.
#[derive(Debug, Clone)]
pub struct SupernodePartition {
    /// Start column of each supernode, plus a trailing `n` (length
    /// `num_supernodes + 1`).
    pub starts: Vec<usize>,
    /// Supernode index of each column.
    pub sn_of_col: Vec<usize>,
    /// Row structure of each supernode: union of the member columns'
    /// strict-lower structures, *excluding* rows inside the supernode
    /// itself (sorted).
    pub below_rows: Vec<Vec<usize>>,
    /// Explicit zero padding introduced by amalgamation (scalar count,
    /// lower triangle only).
    pub padding: usize,
}

/// Detection options.
#[derive(Debug, Clone, Copy)]
pub struct SupernodeOptions {
    /// Maximum columns per supernode (SuperLU's `maxsuper` analog).
    pub max_size: usize,
    /// Per-column padding budget for relaxed amalgamation.
    pub relax: usize,
}

impl Default for SupernodeOptions {
    fn default() -> Self {
        // SuperLU_DIST ships maxsuper = 110 with aggressive relaxed
        // amalgamation (relax = 60 small-subtree columns); the padding
        // budget here mirrors that appetite for merging.
        SupernodeOptions { max_size: 110, relax: 24 }
    }
}

impl SupernodePartition {
    /// Number of supernodes.
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// `true` if the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Column range of supernode `s`.
    pub fn cols(&self, s: usize) -> std::ops::Range<usize> {
        self.starts[s]..self.starts[s + 1]
    }

    /// Number of columns of supernode `s`.
    pub fn width(&self, s: usize) -> usize {
        self.starts[s + 1] - self.starts[s]
    }

    /// Total rows of the supernode panel (diagonal part plus below-
    /// diagonal structure).
    pub fn panel_rows(&self, s: usize) -> usize {
        self.width(s) + self.below_rows[s].len()
    }

    /// Stored entries of the supernodal factor under SuperLU-style
    /// *panel* storage: each supernode's L panel is a dense
    /// `panel_rows × width` rectangle, and U mirrors the same padding on
    /// the transposed side (the pattern is symmetric here); the diagonal
    /// square is shared. This is the `nnz(L+U)` a supernodal code
    /// reports — the Table 3 comparison figure.
    pub fn panel_nnz_lu(&self) -> usize {
        let mut total = 0usize;
        for s in 0..self.len() {
            let w = self.width(s);
            let below = self.below_rows[s].len();
            // L panel (diag square + below-rows) + U side (diag shared).
            total += w * (w + below) + w * below;
        }
        total
    }
}

/// Detects supernodes on the symmetric fill pattern.
pub fn detect(fill: &FilledPattern, opts: SupernodeOptions) -> SupernodePartition {
    let n = fill.n;
    let mut starts = vec![0usize];
    let mut sn_of_col = vec![0usize; n];
    let mut below_rows: Vec<Vec<usize>> = Vec::new();
    let mut padding = 0usize;

    if n == 0 {
        return SupernodePartition { starts, sn_of_col, below_rows, padding };
    }

    // Current supernode state.
    let mut cur_start = 0usize;
    let rows_of = |j: usize| fill.l_col(j).iter().map(|&i| i as usize).collect::<Vec<_>>();
    let mut cur_rows = rows_of(0);
    // Padding accumulated inside the open supernode; committed on close.
    let mut cur_padding = 0usize;

    let close = |start: usize,
                 end: usize,
                 rows: &mut Vec<usize>,
                 pad: usize,
                 starts: &mut Vec<usize>,
                 below: &mut Vec<Vec<usize>>,
                 sn_of: &mut Vec<usize>,
                 padding: &mut usize| {
        let s = below.len();
        sn_of[start..end].fill(s);
        // Rows inside [start, end) belong to the (dense) diagonal
        // part, not the below-panel.
        rows.retain(|&r| r >= end);
        below.push(std::mem::take(rows));
        starts.push(end);
        *padding += pad;
    };

    for j in 1..n {
        let prev = j - 1;
        let chain = fill.etree.parent(prev) == j && fill.etree.parent(prev) != NO_PARENT;
        let width = j - cur_start;
        let mut joined = false;
        if chain && width < opts.max_size {
            // Union of current rows (minus j itself, which becomes part of
            // the diagonal) with column j's structure.
            let col_j = fill.l_col(j);
            let mut union_rows: Vec<usize> = Vec::with_capacity(cur_rows.len() + col_j.len());
            {
                let (mut a, mut b) = (0usize, 0usize);
                while a < cur_rows.len() || b < col_j.len() {
                    let ra = cur_rows.get(a).copied().unwrap_or(usize::MAX);
                    let rb = col_j.get(b).map_or(usize::MAX, |&i| i as usize);
                    if ra == j {
                        a += 1;
                        continue;
                    }
                    if ra < rb {
                        union_rows.push(ra);
                        a += 1;
                    } else if rb < ra {
                        union_rows.push(rb);
                        b += 1;
                    } else {
                        union_rows.push(ra);
                        a += 1;
                        b += 1;
                    }
                }
            }
            // Padding this merge adds: every member column now stores the
            // union below row j; count slots not in the true structures.
            // Approximate per-merge: (union - true_j) for the new column
            // plus (union - previous union) for each existing column.
            let grow = union_rows.len().saturating_sub(
                cur_rows.len().saturating_sub(usize::from(cur_rows.binary_search(&j).is_ok())),
            );
            let new_col_pad = union_rows.len() - col_j.len();
            let pad_added = new_col_pad + grow * width;
            if pad_added <= opts.relax * (width + 1) {
                cur_rows = union_rows;
                cur_padding += pad_added;
                joined = true;
            }
        }
        if !joined {
            close(
                cur_start,
                j,
                &mut cur_rows,
                cur_padding,
                &mut starts,
                &mut below_rows,
                &mut sn_of_col,
                &mut padding,
            );
            cur_start = j;
            cur_rows = rows_of(j);
            cur_padding = 0;
        }
    }
    close(
        cur_start,
        n,
        &mut cur_rows,
        cur_padding,
        &mut starts,
        &mut below_rows,
        &mut sn_of_col,
        &mut padding,
    );

    SupernodePartition { starts, sn_of_col, below_rows, padding }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pangulu_sparse::gen;
    use pangulu_sparse::ops::ensure_diagonal;
    use pangulu_symbolic::symbolic_fill;

    fn partition(a: &pangulu_sparse::CscMatrix, opts: SupernodeOptions) -> SupernodePartition {
        let f = symbolic_fill(a).unwrap();
        detect(&f, opts)
    }

    #[test]
    fn partition_covers_all_columns() {
        let a = ensure_diagonal(&gen::random_sparse(60, 0.1, 3)).unwrap();
        let p = partition(&a, SupernodeOptions::default());
        assert_eq!(*p.starts.first().unwrap(), 0);
        assert_eq!(*p.starts.last().unwrap(), 60);
        for s in 0..p.len() {
            for c in p.cols(s) {
                assert_eq!(p.sn_of_col[c], s);
            }
        }
    }

    #[test]
    fn dense_matrix_forms_large_supernodes() {
        // A fully dense matrix: all columns share structure; supernodes
        // should hit the max_size cap.
        let a = gen::random_sparse(40, 1.0, 1);
        let p = partition(&a, SupernodeOptions { max_size: 16, relax: 0 });
        assert!(p.len() <= 4, "dense matrix should amalgamate, got {} supernodes", p.len());
        assert!(p.width(0) == 16);
    }

    #[test]
    fn diagonal_matrix_gives_singleton_supernodes() {
        let a = pangulu_sparse::CscMatrix::identity(10);
        let p = partition(&a, SupernodeOptions::default());
        assert_eq!(p.len(), 10);
        assert_eq!(p.padding, 0);
    }

    #[test]
    fn relaxation_reduces_supernode_count() {
        let a = gen::fem_blocked(30, 4, 2, 9);
        let strict = partition(&a, SupernodeOptions { max_size: 64, relax: 0 });
        let relaxed = partition(&a, SupernodeOptions { max_size: 64, relax: 8 });
        assert!(relaxed.len() <= strict.len());
        assert!(relaxed.padding >= strict.padding);
    }

    #[test]
    fn panel_nnz_bounds() {
        let a = ensure_diagonal(&gen::random_sparse(80, 0.08, 5)).unwrap();
        let f = symbolic_fill(&a).unwrap();
        let p = detect(&f, SupernodeOptions::default());
        let filled_nnz = f.nnz_lu();
        let panel = p.panel_nnz_lu();
        // Panel storage covers at least the true factor and at most the
        // full dense matrix.
        assert!(panel >= filled_nnz, "panel {panel} < true {filled_nnz}");
        assert!(panel <= 80 * 80);
    }

    #[test]
    fn below_rows_exclude_internal_rows_and_are_sorted() {
        let a = ensure_diagonal(&gen::circuit(120, 4)).unwrap();
        let p = partition(&a, SupernodeOptions::default());
        for s in 0..p.len() {
            let end = p.starts[s + 1];
            for w in p.below_rows[s].windows(2) {
                assert!(w[0] < w[1]);
            }
            if let Some(&first) = p.below_rows[s].first() {
                assert!(first >= end);
            }
        }
    }
}
