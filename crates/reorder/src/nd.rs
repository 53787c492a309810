//! Nested dissection ordering — the METIS stand-in.
//!
//! Classic George-style nested dissection: find a small vertex separator
//! via the middle level of a BFS level structure rooted at a
//! pseudo-peripheral vertex, order the two halves recursively, and number
//! the separator last. Leaves below a size threshold are ordered with
//! minimum degree ([`crate::amd`]), matching how graph-partitioning
//! libraries switch to MD at the bottom of the recursion.

use crate::amd::{order_graph, Graph};
use pangulu_sparse::{CscMatrix, Permutation, Result};

/// Options for the nested dissection recursion.
#[derive(Debug, Clone, Copy)]
pub struct NdOptions {
    /// Subgraphs at or below this size are ordered with minimum degree.
    pub leaf_size: usize,
    /// Maximum recursion depth (safety bound for pathological graphs).
    pub max_depth: usize,
}

impl Default for NdOptions {
    fn default() -> Self {
        NdOptions { leaf_size: 64, max_depth: 32 }
    }
}

/// Computes a nested-dissection permutation (`perm[new] = old`) of the
/// pattern of `A + Aᵀ`.
pub fn nested_dissection(sym: &CscMatrix, opts: NdOptions) -> Result<Permutation> {
    Ok(dissect_counted(sym, opts)?.0)
}

/// [`nested_dissection`] plus the number of hubs its leaves set aside.
pub(crate) fn dissect_counted(sym: &CscMatrix, opts: NdOptions) -> Result<(Permutation, usize)> {
    let graph = Graph::from_pattern(sym)?;
    let n = sym.ncols();
    let mut d = Dissector {
        graph,
        opts,
        owner: vec![0; n],
        subgraphs: 0,
        slot: vec![0; n],
        queue: Vec::new(),
        sub_xadj: Vec::new(),
        sub_adj: Vec::new(),
        order: Vec::with_capacity(n),
        deferred: 0,
    };
    d.dissect((0..n).collect(), 0);
    Ok((Permutation::from_vec(d.order)?, d.deferred))
}

/// The recursion's state. Subgraph membership is a stamp: the recursion
/// step (or leaf) at work writes a fresh id into `owner` for its vertices,
/// so "is this neighbour in my subgraph" is one array read and nothing is
/// reset when the step returns.
struct Dissector {
    graph: Graph,
    opts: NdOptions,
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
}

const UNREACHED: usize = usize::MAX;

impl Dissector {
    fn claim(&mut self, vertices: &[usize]) -> usize {
        self.subgraphs += 1;
        for &g in vertices {
            self.owner[g] = self.subgraphs;
        }
        self.subgraphs
    }

    /// Appends the ordering of `vertices` (global ids) to `order`,
    /// separator last.
    fn dissect(&mut self, vertices: Vec<usize>, depth: usize) {
        if vertices.len() <= self.opts.leaf_size || depth >= self.opts.max_depth {
            return self.order_leaf(&vertices);
        }
        let id = self.claim(&vertices);

        // BFS levels from a pseudo-peripheral vertex of the first
        // connected component.
        let root = self.pseudo_peripheral(&vertices, id);
        let levels = self.bfs_levels(&vertices, id, root).0;
        if levels < 3 {
            // Subgraph too tightly connected (or disconnected remainder):
            // no useful separator, fall back to minimum degree.
            return self.order_leaf(&vertices);
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
            return self.order_leaf(&vertices);
        }
        drop(vertices);

        self.dissect(part_a, depth + 1);
        self.dissect(part_b, depth + 1);
        // Separator last, ordered among themselves by minimum degree.
        self.order_leaf(&sep);
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
            for &nb in &self.graph.adj[self.graph.xadj[g]..self.graph.xadj[g + 1]] {
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
                for &nb in &self.graph.adj[self.graph.xadj[g]..self.graph.xadj[g + 1]] {
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
        let p = nested_dissection(&a, NdOptions::default()).unwrap();
        assert_eq!(p.len(), 400);
    }

    #[test]
    fn beats_natural_order_on_grid() {
        let a = gen::laplacian_2d(24, 24);
        let p = nested_dissection(&a, NdOptions::default()).unwrap();
        let fill_nd = fill_of(&a, &p).unwrap();
        let fill_nat = fill_of(&a, &Permutation::identity(a.ncols())).unwrap();
        assert!(fill_nd < fill_nat, "ND {fill_nd} should beat natural {fill_nat}");
    }

    #[test]
    fn small_graph_delegates_to_leaf() {
        let a = gen::laplacian_2d(4, 4);
        let p = nested_dissection(&a, NdOptions::default()).unwrap();
        assert_eq!(p.len(), 16);
    }

    #[test]
    fn disconnected_graph_handled() {
        // Two disjoint 1-D chains.
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
        let p = nested_dissection(&a, NdOptions { leaf_size: 16, max_depth: 32 }).unwrap();
        assert_eq!(p.len(), n);
    }

    #[test]
    fn deterministic() {
        let a = gen::laplacian_2d(15, 17);
        let p1 = nested_dissection(&a, NdOptions::default()).unwrap();
        let p2 = nested_dissection(&a, NdOptions::default()).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn empty_graph() {
        let a = CscMatrix::zeros(0, 0);
        let p = nested_dissection(&a, NdOptions::default()).unwrap();
        assert_eq!(p.len(), 0);
    }
}
