//! Nested dissection ordering — the METIS stand-in.
//!
//! Classic George-style nested dissection: find a small vertex separator
//! via the middle level of a BFS level structure rooted at a
//! pseudo-peripheral vertex, order the two halves recursively, and number
//! the separator last. Leaves below a size threshold are ordered with
//! minimum degree ([`crate::amd`]), matching how graph-partitioning
//! libraries switch to MD at the bottom of the recursion.

use crate::amd::order_graph;
use crate::Graph;
use pangulu_sparse::{CscMatrix, Permutation, Result};

/// Subgraphs at or below this size are ordered with minimum degree.
const LEAF_SIZE: usize = 64;

/// Maximum recursion depth (safety bound for pathological graphs).
const MAX_DEPTH: usize = 32;

/// Computes a nested-dissection permutation (`perm[new] = old`) of the
/// pattern of `A + Aᵀ`.
pub fn nested_dissection(a: &CscMatrix) -> Result<Permutation> {
    Permutation::from_vec(dissect(&Graph::from_pattern(a)?, usize::MAX).order)
}

/// A nested-dissection order, or the start of one that was given up.
pub(crate) struct Dissection {
    /// `order[new] = old`; complete unless `abandoned`.
    pub(crate) order: Vec<usize>,
    /// Hubs the leaves' minimum-degree runs set aside.
    pub(crate) deferred: usize,
    /// The separators found proved nnz(L+U) above the limit, and the
    /// recursion stopped there.
    pub(crate) abandoned: bool,
}

/// Orders `g` by nested dissection, giving up once its separators prove
/// that the order's nnz(L+U) exceeds `limit` — the same strictness as
/// `nnz_lu_within`, so a candidate given up here would have lost there.
///
/// The proof: a separator S is a BFS level, and the part before it is
/// connected through the levels above S and numbered before S. Any two
/// vertices of S are joined by a path through that part, so by the path
/// lemma (Rose–Tarjan–Lueker) S is a clique of the filled graph, and
/// separators are disjoint: nnz(L+U) ≥ n + Σ|S|(|S| − 1).
pub(crate) fn dissect(g: &Graph, limit: usize) -> Dissection {
    let n = g.n();
    let mut d = Dissector {
        graph: g,
        owner: vec![0; n],
        subgraphs: 0,
        slot: vec![0; n],
        queue: Vec::new(),
        sub_xadj: Vec::new(),
        sub_adj: Vec::new(),
        order: Vec::with_capacity(n),
        deferred: 0,
        fill_bound: n,
        limit,
    };
    let abandoned = d.dissect((0..n).collect(), 0).is_err();
    Dissection { order: d.order, deferred: d.deferred, abandoned }
}

/// The dissection passed its limit.
struct Abandoned;

/// The recursion's state. Subgraph membership is a stamp: the recursion
/// step (or leaf) at work writes a fresh id into `owner` for its vertices,
/// so "is this neighbour in my subgraph" is one array read and nothing is
/// reset when the step returns.
struct Dissector<'g> {
    graph: &'g Graph,
    owner: Vec<usize>,
    subgraphs: usize,
    /// Per owned vertex: its BFS level during a search, its local index
    /// while a leaf is ordered.
    slot: Vec<usize>,
    /// BFS visit order of the latest search.
    queue: Vec<usize>,
    sub_xadj: Vec<usize>,
    sub_adj: Vec<usize>,
    order: Vec<usize>,
    /// Hubs the leaves' minimum-degree runs set aside.
    deferred: usize,
    /// `n` plus `|S|(|S| − 1)` for every separator so far: a lower bound
    /// on nnz(L+U) (see [`dissect`]).
    fill_bound: usize,
    limit: usize,
}

const UNREACHED: usize = usize::MAX;

impl Dissector<'_> {
    fn claim(&mut self, vertices: &[usize]) -> usize {
        self.subgraphs += 1;
        for &g in vertices {
            self.owner[g] = self.subgraphs;
        }
        self.subgraphs
    }

    /// Appends the ordering of `vertices` (global ids) to `order`,
    /// separator last, unless the fill bound passes the limit first.
    fn dissect(
        &mut self,
        vertices: Vec<usize>,
        depth: usize,
    ) -> std::result::Result<(), Abandoned> {
        if vertices.len() <= LEAF_SIZE || depth >= MAX_DEPTH {
            self.order_leaf(&vertices);
            return Ok(());
        }
        let id = self.claim(&vertices);

        // BFS levels from a pseudo-peripheral vertex of the first
        // connected component.
        let root = self.pseudo_peripheral(&vertices, id);
        let levels = self.bfs_levels(&vertices, id, root).0;
        if levels < 3 {
            // Subgraph too tightly connected (or disconnected remainder):
            // no useful separator, fall back to minimum degree.
            self.order_leaf(&vertices);
            return Ok(());
        }

        // Middle level is the separator; halves are everything before and
        // after. Unreached vertices (other components) go to the first half.
        let sep_level = levels / 2;
        let (mut part_a, mut part_b, mut sep) = (Vec::new(), Vec::new(), Vec::new());
        for &g in &vertices {
            match self.slot[g] {
                l if l == sep_level => sep.push(g),
                l if l < sep_level || l == UNREACHED => part_a.push(g),
                _ => part_b.push(g),
            }
        }
        if part_a.is_empty() || part_b.is_empty() {
            self.order_leaf(&vertices);
            return Ok(());
        }
        drop(vertices);
        // The separator is a clique of the filled graph (see [`dissect`]).
        let clique = sep.len().saturating_mul(sep.len() - 1);
        self.fill_bound = self.fill_bound.saturating_add(clique);
        if self.fill_bound > self.limit {
            return Err(Abandoned);
        }

        self.dissect(part_a, depth + 1)?;
        self.dissect(part_b, depth + 1)?;
        // Separator last, ordered among themselves by minimum degree.
        self.order_leaf(&sep);
        Ok(())
    }

    /// Orders a leaf subgraph with minimum degree on the induced pattern.
    fn order_leaf(&mut self, vertices: &[usize]) {
        if vertices.len() <= 1 {
            self.order.extend_from_slice(vertices);
            return;
        }
        let id = self.claim(vertices);
        for (li, &g) in vertices.iter().enumerate() {
            self.slot[g] = li;
        }
        self.sub_xadj.clear();
        self.sub_adj.clear();
        self.sub_xadj.push(0);
        for &g in vertices {
            for &nb in self.graph.neighbours(g) {
                if self.owner[nb] == id {
                    self.sub_adj.push(self.slot[nb]);
                }
            }
            self.sub_xadj.push(self.sub_adj.len());
        }
        let local = order_graph(&self.sub_xadj, &self.sub_adj);
        self.deferred += local.deferred;
        self.order.extend(local.order.into_iter().map(|li| vertices[li]));
    }

    /// Finds a pseudo-peripheral vertex: repeat BFS from the farthest
    /// vertex until the eccentricity stops growing.
    fn pseudo_peripheral(&mut self, vertices: &[usize], id: usize) -> usize {
        let mut root = vertices[0];
        let mut last_height = 0usize;
        for _ in 0..4 {
            let (levels, last_level_at) = self.bfs_levels(vertices, id, root);
            if levels <= last_height {
                break;
            }
            last_height = levels;
            // Farthest vertex with minimal degree (classic GPS heuristic).
            let xadj = &self.graph.xadj;
            if let Some(&far) =
                self.queue[last_level_at..].iter().min_by_key(|&&g| xadj[g + 1] - xadj[g])
            {
                root = far;
            }
        }
        root
    }

    /// BFS of the subgraph `id` from `root`: leaves each vertex's level in
    /// `slot` (`UNREACHED` outside the root's component) and the visit
    /// order in `queue`; returns the number of levels and where the last
    /// one starts in `queue`.
    fn bfs_levels(&mut self, vertices: &[usize], id: usize, root: usize) -> (usize, usize) {
        for &g in vertices {
            self.slot[g] = UNREACHED;
        }
        self.queue.clear();
        self.queue.push(root);
        self.slot[root] = 0;
        let (mut levels, mut level_start) = (0, 0);
        loop {
            let level_end = self.queue.len();
            for at in level_start..level_end {
                let g = self.queue[at];
                for &nb in self.graph.neighbours(g) {
                    if self.owner[nb] == id && self.slot[nb] == UNREACHED {
                        self.slot[nb] = levels + 1;
                        self.queue.push(nb);
                    }
                }
            }
            levels += 1;
            if self.queue.len() == level_end {
                return (levels, level_start);
            }
            level_start = level_end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fill_of;
    use pangulu_sparse::gen;

    #[test]
    fn valid_permutation_on_grid() {
        let a = gen::laplacian_2d(20, 20);
        let p = nested_dissection(&a).unwrap();
        assert_eq!(p.len(), 400);
    }

    #[test]
    fn beats_natural_order_on_grid() {
        let a = gen::laplacian_2d(24, 24);
        let p = nested_dissection(&a).unwrap();
        let fill_nd = fill_of(&a, &p).unwrap();
        let fill_nat = fill_of(&a, &Permutation::identity(a.ncols())).unwrap();
        assert!(fill_nd < fill_nat, "ND {fill_nd} should beat natural {fill_nat}");
    }

    #[test]
    fn small_graph_delegates_to_leaf() {
        let a = gen::laplacian_2d(4, 4);
        let p = nested_dissection(&a).unwrap();
        assert_eq!(p.len(), 16);
    }

    #[test]
    fn disconnected_graph_handled() {
        // Two disjoint 1-D chains, each above the leaf size.
        let n = 140;
        let mut coo = pangulu_sparse::CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
        }
        for i in 0..n / 2 - 1 {
            coo.push(i, i + 1, -1.0).unwrap();
            coo.push(i + 1, i, -1.0).unwrap();
        }
        for i in n / 2..n - 1 {
            coo.push(i, i + 1, -1.0).unwrap();
            coo.push(i + 1, i, -1.0).unwrap();
        }
        let a = coo.to_csc();
        let p = nested_dissection(&a).unwrap();
        assert_eq!(p.len(), n);
    }

    #[test]
    fn deterministic() {
        let a = gen::laplacian_2d(15, 17);
        let p1 = nested_dissection(&a).unwrap();
        let p2 = nested_dissection(&a).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn empty_graph() {
        let a = CscMatrix::zeros(0, 0);
        let p = nested_dissection(&a).unwrap();
        assert_eq!(p.len(), 0);
    }
}
