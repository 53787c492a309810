//! Block ownership: the 2-D block-cyclic map plus the static
//! load-balancing remap (paper §4.2, Fig. 6c/d).
//!
//! Blocks start on the cyclic owner given by the process grid. The
//! balancer then walks the elimination time slices in order; in each
//! slice it compares the *cumulative* FLOP weight of the heaviest and
//! lightest ranks and swaps the two ranks' block sets within that slice
//! when doing so reduces the imbalance — the paper's example migrates one
//! GESSM this way. Migration is at block granularity (a block's panel op
//! and its incoming SSSSMs move together), which keeps the communication
//! lists static; see `DESIGN.md` for the trade-off note.

use pangulu_comm::ProcessGrid;
use pangulu_sparse::Scalar;

use crate::block::BlockMatrix;
use crate::task::TaskGraph;

/// Owner rank of every non-empty block (indexed by block id).
#[derive(Debug, Clone)]
pub struct OwnerMap {
    owners: Vec<usize>,
    grid: ProcessGrid,
}

impl OwnerMap {
    /// The plain 2-D block-cyclic assignment.
    pub fn block_cyclic<S: Scalar>(bm: &BlockMatrix<S>, grid: ProcessGrid) -> Self {
        let owners = (0..bm.num_blocks())
            .map(|id| {
                let (bi, bj) = bm.block_coords(id);
                grid.owner(bi, bj)
            })
            .collect();
        OwnerMap { owners, grid }
    }

    /// 1-D row-cyclic assignment (block row `bi` → rank `bi mod p`): the
    /// layout 2-D distributions are measured against in the mapping
    /// ablation. All panels of a block row land on one rank, serialising
    /// its updates.
    pub fn row_cyclic(bm: &BlockMatrix, p: usize) -> Self {
        let grid = ProcessGrid::with_shape(p.max(1), 1);
        let owners = (0..bm.num_blocks())
            .map(|id| {
                let (bi, _) = bm.block_coords(id);
                bi % p.max(1)
            })
            .collect();
        OwnerMap { owners, grid }
    }

    /// 1-D column-cyclic assignment (block column `bj` → rank `bj mod p`).
    pub fn col_cyclic(bm: &BlockMatrix, p: usize) -> Self {
        let grid = ProcessGrid::with_shape(1, p.max(1));
        let owners = (0..bm.num_blocks())
            .map(|id| {
                let (_, bj) = bm.block_coords(id);
                bj % p.max(1)
            })
            .collect();
        OwnerMap { owners, grid }
    }

    /// Owner of a block id.
    #[inline]
    pub fn owner_of(&self, id: usize) -> usize {
        self.owners[id]
    }

    /// The process grid behind the map.
    pub fn grid(&self) -> &ProcessGrid {
        &self.grid
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.grid.size()
    }

    /// Per-rank total FLOP weight under this map.
    pub fn rank_weights(&self, tg: &TaskGraph) -> Vec<f64> {
        let mut w = vec![0.0f64; self.num_ranks()];
        for (id, &o) in self.owners.iter().enumerate() {
            w[o] += tg.block_weight(id);
        }
        w
    }

    /// Imbalance ratio `max / mean` of the per-rank weights (1.0 is
    /// perfect).
    pub fn imbalance(&self, tg: &TaskGraph) -> f64 {
        let w = self.rank_weights(tg);
        let total: f64 = w.iter().sum();
        if total == 0.0 {
            return 1.0;
        }
        let mean = total / w.len() as f64;
        w.iter().cloned().fold(0.0f64, f64::max) / mean
    }

    /// The static load-balancing remap: walk time slices in order and
    /// swap the slice's block sets between the (cumulatively) heaviest
    /// and lightest ranks whenever that lowers the running maximum.
    pub fn balanced<S: Scalar>(bm: &BlockMatrix<S>, grid: ProcessGrid, tg: &TaskGraph) -> Self {
        let mut map = Self::block_cyclic(bm, grid);
        let p = map.num_ranks();
        if p <= 1 {
            return map;
        }

        // Blocks grouped by time slice.
        let nblk = bm.nblk();
        let mut by_slice: Vec<Vec<usize>> = vec![Vec::new(); nblk];
        for id in 0..bm.num_blocks() {
            by_slice[bm.step_of(id)].push(id);
        }

        let mut cumulative = vec![0.0f64; p];
        for slice in by_slice {
            // Weight each rank contributes in this slice.
            let mut slice_w = vec![0.0f64; p];
            for &id in &slice {
                slice_w[map.owners[id]] += tg.block_weight(id);
            }
            // Running totals if the slice stays as-is.
            let provisional: Vec<f64> =
                cumulative.iter().zip(&slice_w).map(|(c, s)| c + s).collect();
            let heavy = argmax(&provisional);
            let light = argmin(&provisional);
            if heavy != light {
                // Would swapping the two ranks' slice sets lower the pair's
                // maximum? (The swap moves slice work between them only.)
                let max_now = provisional[heavy].max(provisional[light]);
                let heavy_after = cumulative[heavy] + slice_w[light];
                let light_after = cumulative[light] + slice_w[heavy];
                if heavy_after.max(light_after) + 1e-12 < max_now {
                    for &id in &slice {
                        if map.owners[id] == heavy {
                            map.owners[id] = light;
                        } else if map.owners[id] == light {
                            map.owners[id] = heavy;
                        }
                    }
                    slice_w.swap(heavy, light);
                }
            }
            for r in 0..p {
                cumulative[r] += slice_w[r];
            }
        }
        map
    }
}

fn argmax(v: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in v.iter().enumerate() {
        if x > v[best] {
            best = i;
        }
    }
    best
}

fn argmin(v: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in v.iter().enumerate() {
        if x < v[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use pangulu_sparse::gen;
    use pangulu_sparse::ops::ensure_diagonal;
    use pangulu_symbolic::symbolic_fill;

    fn build(n: usize, nb: usize, seed: u64) -> (BlockMatrix, TaskGraph) {
        let a = ensure_diagonal(&gen::circuit(n, seed)).unwrap();
        let f = symbolic_fill(&a).unwrap().filled_matrix(&a).unwrap();
        let bm = BlockMatrix::from_filled(&f, nb).unwrap();
        let tg = TaskGraph::build(&bm);
        (bm, tg)
    }

    #[test]
    fn cyclic_map_matches_grid_formula() {
        let (bm, _) = build(200, 16, 1);
        let grid = ProcessGrid::new(4);
        let map = OwnerMap::block_cyclic(&bm, grid);
        for id in 0..bm.num_blocks() {
            let (bi, bj) = bm.block_coords(id);
            assert_eq!(map.owner_of(id), grid.owner(bi, bj));
        }
    }

    #[test]
    fn balanced_never_worse_than_cyclic() {
        for seed in [1u64, 7, 23] {
            let (bm, tg) = build(240, 12, seed);
            let grid = ProcessGrid::new(4);
            let cyclic = OwnerMap::block_cyclic(&bm, grid);
            let balanced = OwnerMap::balanced(&bm, grid, &tg);
            assert!(
                balanced.imbalance(&tg) <= cyclic.imbalance(&tg) + 1e-9,
                "seed {seed}: balanced {} vs cyclic {}",
                balanced.imbalance(&tg),
                cyclic.imbalance(&tg)
            );
        }
    }

    #[test]
    fn balanced_improves_skewed_workload() {
        // Circuit matrices have hub-induced skew; with the slice swap the
        // imbalance must strictly improve in at least one seeded case.
        let mut improved = false;
        for seed in 0..8u64 {
            let (bm, tg) = build(300, 10, seed);
            let grid = ProcessGrid::new(4);
            let cyclic = OwnerMap::block_cyclic(&bm, grid);
            let balanced = OwnerMap::balanced(&bm, grid, &tg);
            if balanced.imbalance(&tg) < cyclic.imbalance(&tg) - 1e-9 {
                improved = true;
            }
        }
        assert!(improved, "balancer never improved any seeded workload");
    }

    #[test]
    fn one_dimensional_maps_cover_all_ranks() {
        let (bm, tg) = build(240, 12, 2);
        for p in [3usize, 5] {
            let row = OwnerMap::row_cyclic(&bm, p);
            let col = OwnerMap::col_cyclic(&bm, p);
            for id in 0..bm.num_blocks() {
                let (bi, bj) = bm.block_coords(id);
                assert_eq!(row.owner_of(id), bi % p);
                assert_eq!(col.owner_of(id), bj % p);
            }
            // Weights sum to the same total under any map.
            let sum: f64 = row.rank_weights(&tg).iter().sum();
            assert!((sum - tg.total_flops()).abs() < 1e-6 * tg.total_flops().max(1.0));
        }
    }

    #[test]
    fn single_rank_is_untouched() {
        let (bm, tg) = build(150, 16, 3);
        let grid = ProcessGrid::new(1);
        let map = OwnerMap::balanced(&bm, grid, &tg);
        assert!((0..bm.num_blocks()).all(|id| map.owner_of(id) == 0));
        assert_eq!(map.imbalance(&tg), 1.0);
    }

    #[test]
    fn rank_weights_sum_to_total() {
        let (bm, tg) = build(200, 12, 5);
        let map = OwnerMap::balanced(&bm, ProcessGrid::new(6), &tg);
        let sum: f64 = map.rank_weights(&tg).iter().sum();
        assert!((sum - tg.total_flops()).abs() < 1e-6 * tg.total_flops().max(1.0));
    }
}
