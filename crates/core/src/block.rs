//! The two-layer sparse block structure (paper §4.2, Fig. 6a/b).
//!
//! The filled `L+U` matrix is cut into regular `nb x nb` tiles. The first
//! layer is a CSC over *blocks*: `blk_col_ptr` / `blk_row_idx` / block
//! handles, exactly the three auxiliary arrays of Fig. 6(a). Non-empty
//! blocks are stored as intra-block CSC sub-matrices (Fig. 6b). Because
//! the global pattern is transitively closed, every kernel writes only
//! into existing intra-block patterns, and a missing block `(i, j)` with
//! operands `(i, k)`, `(k, j)` present implies the product is structurally
//! empty (the skip is free).

use pangulu_sparse::{CscMatrix, Result, Scalar, SparseError};
use pangulu_symbolic::FilledPattern;

/// A row index the tiler reads: `u32` from the symbolic pattern, `usize`
/// from a filled CSC.
trait RowIndex: Copy + 'static {
    fn idx(self) -> usize;
}

impl RowIndex for usize {
    #[inline]
    fn idx(self) -> usize {
        self
    }
}

impl RowIndex for u32 {
    #[inline]
    fn idx(self) -> usize {
        self as usize
    }
}

/// The blocked form of the filled matrix, generic over the element
/// precision (`f64` by default; `f32` on the mixed-precision path, which
/// halves every block's value storage and wire payload).
#[derive(Debug, Clone)]
pub struct BlockMatrix<S: Scalar = f64> {
    /// Global matrix order.
    n: usize,
    /// Block (tile) size.
    nb: usize,
    /// Number of block rows/columns (`ceil(n / nb)`).
    nblk: usize,
    /// First-layer CSC: prefix sums of non-empty blocks per block column.
    blk_col_ptr: Vec<usize>,
    /// First-layer CSC: block row index of each non-empty block.
    blk_row_idx: Vec<usize>,
    /// The intra-block sub-matrices, in first-layer order.
    blocks: Vec<CscMatrix<S>>,
    /// Per unknown `i`, where its diagonal entry sits in column
    /// `i mod nb` of its diagonal block (an offset into that column's
    /// rows). Pattern-only, so refactorisation never invalidates it.
    diag_pos: Vec<usize>,
}

impl BlockMatrix<f64> {
    /// Chooses the block size from the matrix order and the density of
    /// the matrix *after* symbolic factorisation (paper §4.1, step 3).
    ///
    /// The heuristic targets `sqrt(n)`-sized tiles, nudged up for denser
    /// factors (amortising per-kernel overhead) and clamped so the block
    /// grid keeps at least `4 * grid_dim` tiles per side for cyclic
    /// balance across `grid_dim`-wide process grids.
    pub fn choose_block_size(n: usize, nnz_lu: usize, grid_dim: usize) -> usize {
        if n == 0 {
            return 1;
        }
        let avg_row = nnz_lu as f64 / n as f64;
        // Density factor in [0.5, 2]: 8 nonzeros/row is the neutral point.
        let density_factor = (avg_row / 8.0).powf(0.25).clamp(0.5, 2.0);
        let nb = ((n as f64).sqrt() * density_factor).round() as usize;
        let max_nb = (n / (4 * grid_dim.max(1))).max(1);
        nb.clamp(1, max_nb.max(1)).clamp(1, 512).max(4.min(n))
    }

    /// Cuts a filled (closed-pattern) matrix into `nb x nb` tiles: the
    /// tiler reads each column's strict-lower rows and mirrors them for
    /// the upper part, then the loader copies every stored value in. The
    /// pattern must therefore be structurally symmetric with every
    /// diagonal entry stored — symbolic factorisation always gives such a
    /// pattern; anything else is [`SparseError::InvalidStructure`].
    ///
    /// # Examples
    /// ```
    /// use pangulu_core::BlockMatrix;
    /// let a = pangulu_sparse::gen::laplacian_2d(6, 6);
    /// let fill = pangulu_symbolic::symbolic_fill(&a).unwrap();
    /// let filled = fill.filled_matrix(&a).unwrap();
    /// let bm = BlockMatrix::from_filled(&filled, 9).unwrap();
    /// assert_eq!(bm.nblk(), 4);             // ceil(36 / 9)
    /// assert_eq!(bm.to_csc(), filled);      // lossless tiling
    /// ```
    pub fn from_filled(filled: &CscMatrix, nb: usize) -> Result<Self> {
        if !filled.is_square() {
            return Err(SparseError::NotSquare { nrows: filled.nrows(), ncols: filled.ncols() });
        }
        let n = filled.ncols();
        if let Some(j) = (0..n).find(|&j| filled.find(j, j).is_none()) {
            return Err(SparseError::InvalidStructure(format!(
                "diagonal entry ({j}, {j}) is not stored"
            )));
        }
        let mut bm = Tiling::cut(n, nb, |j| {
            let rows = filled.col(j).0;
            &rows[rows.partition_point(|&i| i <= j)..]
        })?
        .zeroed();
        let values = filled.values();
        bm.for_each_slot(filled, |i| i, |j| j, |k, _, _, v| *v = values[k])?;
        if bm.nnz() != filled.nnz() {
            return Err(SparseError::InvalidStructure(format!(
                "pattern is not structurally symmetric: {} stored entries, {} once the \
                 strict lower part is mirrored",
                filled.nnz(),
                bm.nnz()
            )));
        }
        Ok(bm)
    }
}

impl<S: Scalar> BlockMatrix<S> {
    /// Builds the zero-valued block store straight from symbolic
    /// factorisation's strict-lower pattern (paper §4.1 steps 2–3): the
    /// tiles of `L + I + Lᵀ`, every slot zero, with no global filled CSC
    /// and no value read — the values are written afterwards by
    /// [`BlockMatrix::for_each_slot`]. The tiles are cut value-less and
    /// the fill's rows released before any value is allocated, so the
    /// build peaks at the finished store, not at the store beside the
    /// pattern it was cut from; besides the tiles it holds only arrays of
    /// length `n` or less. A malformed pattern is
    /// [`SparseError::InvalidStructure`].
    ///
    /// # Examples
    /// ```
    /// # fn main() -> pangulu_sparse::Result<()> {
    /// use pangulu_core::BlockMatrix;
    /// let a = pangulu_sparse::gen::laplacian_2d(6, 6);
    /// let fill = pangulu_symbolic::symbolic_fill(&a)?;
    /// let nnz_lu = fill.nnz_lu();
    /// let bm = BlockMatrix::<f64>::from_fill(fill, 9)?;
    /// assert_eq!(bm.nnz(), nnz_lu); // every slot zero until loaded
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_fill(mut fill: FilledPattern, nb: usize) -> Result<Self> {
        let n = fill.n;
        let ptr = &fill.l_col_ptr;
        if ptr.len() != n + 1
            || ptr.windows(2).any(|w| w[0] > w[1])
            || ptr[n] > fill.l_row_idx.len()
        {
            return Err(SparseError::InvalidStructure(format!(
                "fill pattern has {} column pointers for order {n}",
                ptr.len()
            )));
        }
        let tiling = Tiling::cut(n, nb, |j| fill.l_col(j))?;
        // The rows are read no more: release them before the values exist,
        // so the values can take their place. The rest of the fill (arrays
        // of length n) goes once the store is built.
        fill.l_row_idx.clear();
        fill.l_row_idx.shrink_to_fit();
        let bm = tiling.zeroed();
        drop(fill);
        Ok(bm)
    }

    /// The slot walk, which every value load and the refactor's scatter
    /// map share: for each stored entry `k` of `a` (CSC order, `j` its
    /// column) it finds the slot of its image `(new_row(i), new_col(j))`
    /// and calls `visit(k, j, (block id, offset into the block's values),
    /// value)`; `a`'s values are not read. The image need not be sorted
    /// within a column: each entry costs two binary searches, one over the
    /// block column's tiles and one in the tile column. An entry outside
    /// the tiled pattern is [`SparseError::InvalidStructure`], a matrix of
    /// another order [`SparseError::DimensionMismatch`].
    pub fn for_each_slot(
        &mut self,
        a: &CscMatrix,
        new_row: impl Fn(usize) -> usize,
        new_col: impl Fn(usize) -> usize,
        mut visit: impl FnMut(usize, usize, (usize, usize), &mut S),
    ) -> Result<()> {
        if a.nrows() != self.n || a.ncols() != self.n {
            return Err(SparseError::DimensionMismatch(format!(
                "matrix is {}x{}, the block store has order {}",
                a.nrows(),
                a.ncols(),
                self.n
            )));
        }
        let (col_ptr, row_idx) = (a.col_ptr(), a.row_idx());
        let nb = self.nb;
        for j in 0..self.n {
            let c = new_col(j);
            if c >= self.n {
                return Err(outside(0, c));
            }
            let (bj, lc) = (c / nb, c % nb);
            let tiles = self.blk_col_ptr[bj]..self.blk_col_ptr[bj + 1];
            let column = col_ptr[j]..col_ptr[j + 1];
            for (k, &i) in column.clone().zip(&row_idx[column]) {
                let r = new_row(i);
                let bi = r / nb;
                let found = self.blk_row_idx[tiles.clone()].binary_search(&bi).ok().and_then(|t| {
                    let id = tiles.start + t;
                    let start = self.blocks[id].col_ptr()[lc];
                    let (rows, vals) = self.blocks[id].col_mut(lc);
                    let p = rows.binary_search(&(r - bi * nb)).ok()?;
                    Some((id, start + p, &mut vals[p]))
                });
                let (id, at, value) = found.ok_or_else(|| outside(r, c))?;
                visit(k, j, (id, at), value);
            }
        }
        Ok(())
    }

    /// Global matrix order.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Tile size.
    pub fn nb(&self) -> usize {
        self.nb
    }

    /// Number of block rows/columns.
    pub fn nblk(&self) -> usize {
        self.nblk
    }

    /// Number of non-empty blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// First-layer column pointers (`blk_ColumnPointer` of Fig. 6a).
    pub fn blk_col_ptr(&self) -> &[usize] {
        &self.blk_col_ptr
    }

    /// First-layer row indices (`blk_RowIndex` of Fig. 6a).
    pub fn blk_row_idx(&self) -> &[usize] {
        &self.blk_row_idx
    }

    /// Dense id of block `(bi, bj)` within the first layer, if present.
    pub fn block_id(&self, bi: usize, bj: usize) -> Option<usize> {
        let lo = self.blk_col_ptr[bj];
        let hi = self.blk_col_ptr[bj + 1];
        self.blk_row_idx[lo..hi].binary_search(&bi).ok().map(|k| lo + k)
    }

    /// Coordinates `(bi, bj)` of a block id.
    pub fn block_coords(&self, id: usize) -> (usize, usize) {
        let bj = self.blk_col_ptr.partition_point(|&p| p <= id) - 1;
        (self.blk_row_idx[id], bj)
    }

    /// The block with the given id.
    pub fn block(&self, id: usize) -> &CscMatrix<S> {
        &self.blocks[id]
    }

    /// Mutable access to a block.
    pub fn block_mut(&mut self, id: usize) -> &mut CscMatrix<S> {
        &mut self.blocks[id]
    }

    /// Zeroes every stored value; the pattern stays.
    pub(crate) fn clear_values(&mut self) {
        for b in &mut self.blocks {
            b.values_mut().fill(S::ZERO);
        }
    }

    /// The block store, indexed by block id.
    pub(crate) fn blocks_mut(&mut self) -> &mut [CscMatrix<S>] {
        &mut self.blocks
    }

    /// Where each column's diagonal entry sits in diagonal block
    /// `(bk, bk)`: entry `c` is the offset of row `c` within that block's
    /// column `c`, so `d.col(c).1[pos[c]]` is the pivot. Built at tiling.
    pub(crate) fn diag_positions(&self, bk: usize) -> &[usize] {
        let lo = bk * self.nb;
        &self.diag_pos[lo..(lo + self.nb).min(self.n)]
    }

    /// The diagonal block `(bk, bk)`. The tiler cuts one in every block
    /// column, so it is the first block at or below row `bk` there.
    pub(crate) fn diag_block(&self, bk: usize) -> &CscMatrix<S> {
        let (lo, hi) = (self.blk_col_ptr[bk], self.blk_col_ptr[bk + 1]);
        let id = lo + self.blk_row_idx[lo..hi].partition_point(|&bi| bi < bk);
        debug_assert_eq!(self.blk_row_idx[id], bk, "block column {bk} has its diagonal tile");
        &self.blocks[id]
    }

    /// The stored diagonal, unknown by unknown: each entry read at its
    /// [`BlockMatrix::diag_positions`] offset, no search within a column.
    pub(crate) fn diagonal(&self) -> impl Iterator<Item = S> + '_ {
        (0..self.nblk).flat_map(|bk| {
            let d = self.diag_block(bk);
            self.diag_positions(bk).iter().enumerate().map(move |(c, &p)| d.col(c).1[p])
        })
    }

    /// Clones the structure into another precision: every tile shares its
    /// source's pattern (no index is copied), every value is rounded
    /// through `f64`. Widening f32 values is exact, which is how a
    /// mixed-precision solver publishes the f64 image of its f32 factors.
    pub fn cast<T: Scalar>(&self) -> BlockMatrix<T> {
        BlockMatrix {
            n: self.n,
            nb: self.nb,
            nblk: self.nblk,
            blk_col_ptr: self.blk_col_ptr.clone(),
            blk_row_idx: self.blk_row_idx.clone(),
            blocks: self.blocks.iter().map(|b| b.cast()).collect(),
            diag_pos: self.diag_pos.clone(),
        }
    }

    /// Two blocks mutably at once (for kernels reading one and writing
    /// another); ids must differ.
    pub fn block_pair_mut(&mut self, a: usize, b: usize) -> (&mut CscMatrix<S>, &mut CscMatrix<S>) {
        assert_ne!(a, b);
        if a < b {
            let (lo, hi) = self.blocks.split_at_mut(b);
            (&mut lo[a], &mut hi[0])
        } else {
            let (lo, hi) = self.blocks.split_at_mut(a);
            (&mut hi[0], &mut lo[b])
        }
    }

    /// The three operands of an SSSSM: blocks `a` and `b` shared, block
    /// `c` mutable. All three ids must be distinct.
    pub fn ssssm_operands(
        &mut self,
        a: usize,
        b: usize,
        c: usize,
    ) -> (&CscMatrix<S>, &CscMatrix<S>, &mut CscMatrix<S>) {
        assert!(a != b && a != c && b != c, "SSSSM operands must be distinct blocks");
        let ptr = self.blocks.as_mut_ptr();
        // Safety: the three indices are distinct and in bounds, so the
        // shared and mutable references never alias.
        unsafe {
            let ra = &*ptr.add(a);
            let rb = &*ptr.add(b);
            let rc = &mut *ptr.add(c);
            (ra, rb, rc)
        }
    }

    /// Non-empty blocks of block column `bj` as `(bi, id)` pairs.
    pub fn col_blocks(&self, bj: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let lo = self.blk_col_ptr[bj];
        let hi = self.blk_col_ptr[bj + 1];
        self.blk_row_idx[lo..hi].iter().enumerate().map(move |(k, &bi)| (bi, lo + k))
    }

    /// Reassembles the global matrix from the tiles (tests / solve phase).
    /// Values round-trip through `f64` (exact for both precisions).
    pub fn to_csc(&self) -> CscMatrix<S> {
        let mut coo = pangulu_sparse::CooMatrix::with_capacity(self.n, self.n, self.nnz());
        for bj in 0..self.nblk {
            for (bi, id) in self.col_blocks(bj) {
                let b = &self.blocks[id];
                for (r, c, v) in b.iter() {
                    coo.push(bi * self.nb + r, bj * self.nb + c, v.to_f64())
                        .expect("block entries are in bounds");
                }
            }
        }
        coo.to_csc().cast()
    }

    /// Position of every stored block entry inside this matrix's
    /// [`BlockMatrix::to_csc`] image, in block-column iteration order.
    /// The map depends only on the pattern, so a same-pattern caller can
    /// build it once and then refresh the CSC's values with
    /// [`BlockMatrix::write_csc_values`] instead of re-assembling the
    /// whole matrix.
    pub fn csc_value_map(&self, csc: &CscMatrix<S>) -> Vec<usize> {
        let mut map = Vec::with_capacity(self.nnz());
        for bj in 0..self.nblk {
            for (bi, id) in self.col_blocks(bj) {
                for (r, c, _) in self.blocks[id].iter() {
                    let (gi, gj) = (bi * self.nb + r, bj * self.nb + c);
                    let lo = csc.col_ptr()[gj];
                    let hi = csc.col_ptr()[gj + 1];
                    let off = csc.row_idx()[lo..hi]
                        .binary_search(&gi)
                        .expect("block entry present in the CSC image");
                    map.push(lo + off);
                }
            }
        }
        map
    }

    /// Refreshes `out`'s values from this matrix through a map built by
    /// [`BlockMatrix::csc_value_map`] — `out` keeps its pattern, and the
    /// values land exactly where [`BlockMatrix::to_csc`] would put them.
    pub fn write_csc_values(&self, map: &[usize], out: &mut CscMatrix<S>) {
        let values = out.values_mut();
        let mut k = 0;
        for bj in 0..self.nblk {
            for (_, id) in self.col_blocks(bj) {
                for &v in self.blocks[id].values() {
                    values[map[k]] = v;
                    k += 1;
                }
            }
        }
        debug_assert_eq!(k, map.len());
    }

    /// Total stored entries across blocks.
    pub fn nnz(&self) -> usize {
        self.blocks.iter().map(|b| b.nnz()).sum()
    }

    /// Assembles the trailing sub-matrix spanned by block rows/columns
    /// `from..nblk` into a CSC matrix — after a partial factorisation
    /// (see `seq::factor_sequential_partial`) this is the Schur
    /// complement.
    pub fn trailing_csc(&self, from: usize) -> CscMatrix<S> {
        let base = from * self.nb;
        let m = self.n - base.min(self.n);
        let mut coo = pangulu_sparse::CooMatrix::new(m, m);
        for bj in from..self.nblk {
            for (bi, id) in self.col_blocks(bj) {
                if bi < from {
                    continue;
                }
                let b = &self.blocks[id];
                for (r, c, v) in b.iter() {
                    coo.push(bi * self.nb + r - base, bj * self.nb + c - base, v.to_f64())
                        .expect("trailing entries in bounds");
                }
            }
        }
        coo.to_csc().cast()
    }

    /// Heap bytes the two-layer structure owns (the memory the paper's
    /// preprocessing minimises by allocating per-process blocks up front,
    /// §4.2): the first-layer arrays, the diagonal table, the tile
    /// headers, every tile's values and each distinct pattern once. Within
    /// a store only full tiles share a pattern, one per shape.
    pub fn memory_bytes(&self) -> usize {
        let word = std::mem::size_of::<usize>();
        let arrays =
            (self.blk_col_ptr.capacity() + self.blk_row_idx.capacity() + self.diag_pos.capacity())
                * word
                + self.blocks.capacity() * std::mem::size_of::<CscMatrix<S>>();
        let mut full: Vec<&CscMatrix<S>> = Vec::new();
        let mut patterns = 0;
        for b in &self.blocks {
            if is_full(b) {
                if full.iter().any(|f| f.shares_pattern(b)) {
                    continue;
                }
                full.push(b);
            }
            patterns += b.pattern_bytes();
        }
        let values: usize = self.blocks.iter().map(|b| std::mem::size_of_val(b.values())).sum();
        arrays + patterns + values
    }

    /// The elimination step (time slice) of a block: `min(bi, bj)` — the
    /// step at which its final panel operation runs (§4.2).
    pub fn step_of(&self, id: usize) -> usize {
        let (bi, bj) = self.block_coords(id);
        bi.min(bj)
    }
}

/// The block store's pattern, cut before any value exists: the tiler's
/// output, which [`Tiling::zeroed`] turns into a zero-valued store.
struct Tiling {
    n: usize,
    nb: usize,
    nblk: usize,
    blk_col_ptr: Vec<usize>,
    blk_row_idx: Vec<usize>,
    blocks: Vec<CscMatrix<()>>,
    diag_pos: Vec<usize>,
}

impl Tiling {
    /// The tiler: cuts the value-less tiles of the pattern `L + I + Lᵀ`,
    /// `lower(j)` giving the strict-lower rows of column `j`. One ascending sweep over block columns fills each tile column
    /// with its upper rows first — mirrored from the lower tiles of
    /// earlier block columns, which are already built — then the
    /// diagonal, then `L(:, j)`. Every tile is allocated at its exact
    /// size; the other buffers are indexed by unknown, local column or
    /// block row, so none outgrows `n`. A full tile — every row of every
    /// column present, which its column counts show before any row is
    /// written — writes no rows: it takes the store's one pattern of its
    /// shape (see [`FullShapes`]).
    fn cut<'p, I: RowIndex>(n: usize, nb: usize, lower: impl Fn(usize) -> &'p [I]) -> Result<Self> {
        const NONE: usize = usize::MAX;
        if nb == 0 {
            return Err(SparseError::InvalidStructure("block size must be positive".into()));
        }
        let nblk = n.div_ceil(nb);
        let mut blk_col_ptr = Vec::with_capacity(nblk + 1);
        blk_col_ptr.push(0usize);
        let mut blk_row_idx: Vec<usize> = Vec::new();
        let mut blocks: Vec<CscMatrix<()>> = Vec::new();
        let mut diag_pos = Vec::with_capacity(n);
        // Mirror queue: every block column with lower tiles left to mirror
        // waits in the list of the block row of the next one, `next_tile`
        // being that tile's id.
        let mut waiting = vec![NONE; nblk];
        let mut waiting_link = vec![NONE; nblk];
        let mut next_tile = vec![0usize; nblk];
        let mut upper: Vec<usize> = Vec::new();
        // Per block column: the local-column cursors of the diagonal tile
        // and, per lower tile in discovery order, its block row, column
        // pointers and rows.
        let mut cursor: Vec<usize> = Vec::with_capacity(nb.min(n));
        let mut slot_of = vec![NONE; nblk];
        let mut found: Vec<usize> = Vec::new();
        let mut ptrs: Vec<Vec<usize>> = Vec::new();
        let mut rows: Vec<Vec<usize>> = Vec::new();
        let mut full = FullShapes::default();
        for bj in 0..nblk {
            let (col_lo, col_hi) = (bj * nb, (bj * nb + nb).min(n));
            let bcols = col_hi - col_lo;
            let in_block = |j: usize| lower(j).partition_point(|&i| i.idx() < col_hi);

            // Upper tiles (bi, bj), bi < bj: mirrors of lower tiles (bj, bi).
            upper.clear();
            let mut bi = std::mem::replace(&mut waiting[bj], NONE);
            while bi != NONE {
                upper.push(bi);
                bi = waiting_link[bi];
            }
            upper.sort_unstable();
            for &bi in &upper {
                let id = next_tile[bi];
                let src = &blocks[id];
                let tile = if is_full(src) {
                    full.tile(&blocks, src.ncols(), src.nrows())
                } else {
                    mirrored(src)
                };
                blocks.push(tile);
                blk_row_idx.push(bi);
                next_tile[bi] = id + 1;
                if id + 1 < blk_col_ptr[bi + 1] {
                    let row = blk_row_idx[id + 1];
                    waiting_link[bi] = std::mem::replace(&mut waiting[row], bi);
                }
            }

            // Diagonal tile: mirrored in-block rows, the diagonal, then
            // the in-block part of L(:, j).
            cursor.clear();
            cursor.resize(bcols, 0);
            for j in col_lo..col_hi {
                let col = lower(j);
                if col.first().is_some_and(|&i| i.idx() <= j)
                    || col.last().is_some_and(|&i| i.idx() >= n)
                    || col.windows(2).any(|w| w[0].idx() >= w[1].idx())
                {
                    return Err(SparseError::InvalidStructure(format!(
                        "strict-lower rows of column {j} are not increasing in ({j}, {n})"
                    )));
                }
                for &i in &col[..in_block(j)] {
                    cursor[i.idx() - col_lo] += 1;
                }
            }
            let mut col_ptr = Vec::with_capacity(bcols + 1);
            col_ptr.push(0usize);
            for (lc, c) in cursor.iter_mut().enumerate() {
                let start = col_ptr[lc];
                col_ptr.push(start + *c + 1 + in_block(col_lo + lc));
                *c = start;
            }
            if col_ptr[bcols] == bcols * bcols {
                diag_pos.extend(0..bcols);
                blocks.push(full.tile(&blocks, bcols, bcols));
            } else {
                let mut diag_rows = vec![0usize; col_ptr[bcols]];
                for k in col_lo..col_hi {
                    for &i in &lower(k)[..in_block(k)] {
                        let i = i.idx();
                        diag_rows[cursor[i - col_lo]] = k - col_lo;
                        cursor[i - col_lo] += 1;
                    }
                }
                for (lc, &at) in cursor.iter().enumerate() {
                    let j = col_lo + lc;
                    diag_pos.push(at - col_ptr[lc]);
                    diag_rows[at] = lc;
                    for (dst, &i) in diag_rows[at + 1..].iter_mut().zip(&lower(j)[..in_block(j)]) {
                        *dst = i.idx() - col_lo;
                    }
                }
                let len = diag_rows.len();
                blocks.push(CscMatrix::from_parts_unchecked(
                    bcols,
                    bcols,
                    col_ptr,
                    diag_rows,
                    vec![(); len],
                ));
            }
            blk_row_idx.push(bj);

            // Lower tiles (bi, bj), bi > bj: count per local column, then
            // place each row of L(:, j) below the diagonal block.
            found.clear();
            for j in col_lo..col_hi {
                for &i in &lower(j)[in_block(j)..] {
                    let bi = i.idx() / nb;
                    let mut s = slot_of[bi];
                    if s == NONE {
                        s = found.len();
                        slot_of[bi] = s;
                        found.push(bi);
                        if ptrs.len() == s {
                            ptrs.push(Vec::new());
                        }
                        ptrs[s].clear();
                        ptrs[s].resize(bcols + 1, 0);
                    }
                    ptrs[s][j - col_lo + 1] += 1;
                }
            }
            rows.resize_with(found.len(), Vec::new);
            for ((p, r), &bi) in ptrs.iter_mut().zip(rows.iter_mut()).zip(&found) {
                for lc in 0..bcols {
                    p[lc + 1] += p[lc];
                }
                // A full tile's rows stay unwritten (left empty).
                let brows = (bi * nb + nb).min(n) - bi * nb;
                *r = if p[bcols] == brows * bcols { Vec::new() } else { vec![0usize; p[bcols]] };
            }
            for j in col_lo..col_hi {
                let lc = j - col_lo;
                for &i in &lower(j)[in_block(j)..] {
                    let i = i.idx();
                    let bi = i / nb;
                    let s = slot_of[bi];
                    if rows[s].is_empty() {
                        continue;
                    }
                    // `ptrs[s][lc]` is the next free slot of local column
                    // `lc`; the shift below restores the pointers.
                    rows[s][ptrs[s][lc]] = i - bi * nb;
                    ptrs[s][lc] += 1;
                }
            }
            let first_lower = blocks.len();
            found.sort_unstable();
            for &bi in &found {
                let s = std::mem::replace(&mut slot_of[bi], NONE);
                let brows = (bi * nb + nb).min(n) - bi * nb;
                let tile_rows = std::mem::take(&mut rows[s]);
                if tile_rows.is_empty() {
                    blocks.push(full.tile(&blocks, brows, bcols));
                } else {
                    let mut col_ptr = std::mem::take(&mut ptrs[s]);
                    col_ptr.rotate_right(1);
                    col_ptr[0] = 0;
                    let len = tile_rows.len();
                    blocks.push(CscMatrix::from_parts_unchecked(
                        brows,
                        bcols,
                        col_ptr,
                        tile_rows,
                        vec![(); len],
                    ));
                }
                blk_row_idx.push(bi);
            }
            if let Some(&row) = found.first() {
                next_tile[bj] = first_lower;
                waiting_link[bj] = std::mem::replace(&mut waiting[row], bj);
            }
            blk_col_ptr.push(blk_row_idx.len());
        }
        // The tile count is known only now: drop the growth slack.
        blocks.shrink_to_fit();
        blk_row_idx.shrink_to_fit();
        Ok(Tiling { n, nb, nblk, blk_col_ptr, blk_row_idx, blocks, diag_pos })
    }

    /// The zero-valued store on these tiles: each tile takes its values
    /// on the pattern it was cut with, full tiles still sharing theirs.
    fn zeroed<S: Scalar>(self) -> BlockMatrix<S> {
        let Tiling { n, nb, nblk, blk_col_ptr, blk_row_idx, blocks, diag_pos } = self;
        let blocks = blocks.into_iter().map(|b| b.with_constant_values(S::ZERO)).collect();
        BlockMatrix { n, nb, nblk, blk_col_ptr, blk_row_idx, blocks, diag_pos }
    }
}

/// The error for an entry `(i, j)` the block store has no slot for.
pub(crate) fn outside(i: usize, j: usize) -> SparseError {
    SparseError::InvalidStructure(format!("entry ({i}, {j}) is outside the fill pattern"))
}

/// Every row of every column stored.
fn is_full<S>(b: &CscMatrix<S>) -> bool {
    b.nnz() == b.nrows() * b.ncols()
}

/// The store's full-tile patterns, one per `(rows, cols)` shape: the id of
/// the first full tile of each shape, whose pattern every later full tile
/// of that shape shares. Interned by shape, not by hash: a regular tiling
/// has at most four full shapes, and non-full tiles do not repeat.
#[derive(Default)]
struct FullShapes(Vec<(usize, usize, usize)>);

impl FullShapes {
    /// A value-less full `rows x cols` tile, to be pushed next onto
    /// `blocks`.
    fn tile(&mut self, blocks: &[CscMatrix<()>], rows: usize, cols: usize) -> CscMatrix<()> {
        if let Some(&(.., id)) = self.0.iter().find(|s| (s.0, s.1) == (rows, cols)) {
            return blocks[id].clone();
        }
        self.0.push((rows, cols, blocks.len()));
        let col_ptr = (0..=cols).map(|c| c * rows).collect();
        let row_idx = (0..cols).flat_map(|_| 0..rows).collect();
        CscMatrix::from_parts_unchecked(rows, cols, col_ptr, row_idx, vec![(); rows * cols])
    }
}

/// The pattern of `src`ᵀ: each column's rows come out increasing because
/// `src`'s columns are read in order.
fn mirrored(src: &CscMatrix<()>) -> CscMatrix<()> {
    let (m, k) = (src.nrows(), src.ncols());
    let mut col_ptr = vec![0usize; m + 1];
    for &r in src.row_idx() {
        col_ptr[r + 1] += 1;
    }
    for c in 0..m {
        col_ptr[c + 1] += col_ptr[c];
    }
    let mut next = col_ptr[..m].to_vec();
    let mut rows = vec![0usize; src.nnz()];
    for c in 0..k {
        for &r in src.col(c).0 {
            rows[next[r]] = c;
            next[r] += 1;
        }
    }
    CscMatrix::from_parts_unchecked(k, m, col_ptr, rows, vec![(); src.nnz()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use pangulu_sparse::gen;
    use pangulu_sparse::ops::ensure_diagonal;
    use pangulu_symbolic::symbolic_fill;

    /// `from_fill`, then `a`'s values written in place, each rounded once.
    fn tiled<S: Scalar>(fill: &FilledPattern, a: &CscMatrix, nb: usize) -> Result<BlockMatrix<S>> {
        let mut bm = BlockMatrix::from_fill(fill.clone(), nb)?;
        let vals = a.values();
        bm.for_each_slot(a, |i| i, |j| j, |k, _, _, v| *v = S::from_f64(vals[k]))?;
        Ok(bm)
    }

    fn filled(n: usize, density: f64, seed: u64) -> CscMatrix {
        let a = ensure_diagonal(&gen::random_sparse(n, density, seed)).unwrap();
        symbolic_fill(&a).unwrap().filled_matrix(&a).unwrap()
    }

    #[test]
    fn roundtrip_preserves_matrix() {
        let f = filled(50, 0.08, 3);
        for nb in [1, 7, 16, 50, 64] {
            let bm = BlockMatrix::from_filled(&f, nb).unwrap();
            assert_eq!(bm.to_csc(), f, "nb = {nb}");
            assert_eq!(bm.nnz(), f.nnz());
        }
    }

    #[test]
    fn block_ids_and_coords_are_inverse() {
        let f = filled(40, 0.1, 5);
        let bm = BlockMatrix::from_filled(&f, 8).unwrap();
        for id in 0..bm.num_blocks() {
            let (bi, bj) = bm.block_coords(id);
            assert_eq!(bm.block_id(bi, bj), Some(id));
        }
    }

    #[test]
    fn diagonal_blocks_are_present_and_square() {
        let f = filled(45, 0.1, 7);
        let bm = BlockMatrix::from_filled(&f, 10).unwrap();
        for k in 0..bm.nblk() {
            let id = bm.block_id(k, k).expect("diagonal block must exist");
            let b = bm.block(id);
            assert!(std::ptr::eq(bm.diag_block(k), b), "diag_block({k}) is block {id}");
            assert!(b.is_square());
            assert!(b.has_full_diagonal());
        }
        // Edge block is 45 - 40 = 5 wide.
        let last = bm.block_id(4, 4).unwrap();
        assert_eq!(bm.block(last).ncols(), 5);
    }

    #[test]
    fn first_layer_rows_sorted() {
        let f = filled(60, 0.06, 9);
        let bm = BlockMatrix::from_filled(&f, 9).unwrap();
        for bj in 0..bm.nblk() {
            let lo = bm.blk_col_ptr()[bj];
            let hi = bm.blk_col_ptr()[bj + 1];
            let rows = &bm.blk_row_idx()[lo..hi];
            for w in rows.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn choose_block_size_scales_with_n_and_density() {
        let sparse_nb = BlockMatrix::choose_block_size(10_000, 50_000, 1);
        let dense_nb = BlockMatrix::choose_block_size(10_000, 2_000_000, 1);
        assert!(dense_nb > sparse_nb, "denser factor should get bigger tiles");
        // Grid constraint: 16 ranks (4x4 grid) need >= 16 tiles per side.
        let constrained = BlockMatrix::choose_block_size(1_000, 100_000, 4);
        assert!(constrained <= 1_000 / 16);
        assert!(BlockMatrix::choose_block_size(0, 0, 1) >= 1);
    }

    #[test]
    fn block_pair_mut_disjoint() {
        let f = filled(30, 0.15, 1);
        let mut bm = BlockMatrix::from_filled(&f, 10).unwrap();
        if bm.num_blocks() >= 2 {
            let (a, b) = bm.block_pair_mut(0, 1);
            a.values_mut()[0] = 42.0;
            b.values_mut()[0] = 43.0;
            assert_eq!(bm.block(0).values()[0], 42.0);
            assert_eq!(bm.block(1).values()[0], 43.0);
        }
    }

    #[test]
    fn trailing_csc_of_zero_is_whole_matrix() {
        let f = filled(30, 0.15, 4);
        let bm = BlockMatrix::from_filled(&f, 8).unwrap();
        assert_eq!(bm.trailing_csc(0), f);
        assert_eq!(bm.trailing_csc(bm.nblk()).nnz(), 0);
    }

    #[test]
    fn memory_bytes_scales_with_nnz() {
        let f = filled(40, 0.1, 5);
        let bm = BlockMatrix::from_filled(&f, 10).unwrap();
        let lower_bound = f.nnz() * (std::mem::size_of::<f64>() + std::mem::size_of::<usize>());
        assert!(bm.memory_bytes() >= lower_bound);
    }

    #[test]
    fn diag_positions_equal_a_search_for_every_unknown() {
        let lap = gen::laplacian_2d(9, 7);
        let circ = gen::circuit(120, 3);
        let patterns = [
            symbolic_fill(&lap).unwrap().filled_matrix(&lap).unwrap(),
            symbolic_fill(&circ).unwrap().filled_matrix(&circ).unwrap(),
            filled(50, 0.08, 11),
        ];
        for f in &patterns {
            for nb in [1, 6, 16, f.nrows()] {
                let bm = BlockMatrix::from_filled(f, nb).unwrap();
                let bm32 = bm.cast::<f32>();
                for bk in 0..bm.nblk() {
                    let d = bm.block(bm.block_id(bk, bk).unwrap());
                    let pos = bm.diag_positions(bk);
                    assert_eq!(pos.len(), d.ncols());
                    for (c, &p) in pos.iter().enumerate() {
                        assert_eq!(Ok(p), d.col(c).0.binary_search(&c), "nb {nb} block {bk}");
                    }
                    assert_eq!(bm32.diag_positions(bk), pos, "cast keeps the table");
                }
                let want: Vec<f64> = (0..f.ncols()).map(|i| f.get(i, i)).collect();
                assert_eq!(bm.diagonal().collect::<Vec<_>>(), want, "nb {nb}");
            }
        }
    }

    #[test]
    fn missing_diagonal_is_an_invalid_structure() {
        // [[1, 2], [3, 0]] with (1, 1) not stored.
        let f =
            CscMatrix::from_parts(2, 2, vec![0, 2, 3], vec![0, 1, 0], vec![1.0, 3.0, 2.0]).unwrap();
        for nb in [1, 2, 3] {
            match BlockMatrix::from_filled(&f, nb) {
                Err(SparseError::InvalidStructure(msg)) => assert!(msg.contains("(1, 1)"), "{msg}"),
                other => panic!("nb {nb}: expected InvalidStructure, got {other:?}"),
            }
        }
    }

    /// Equal first layer, diagonal table, tile shapes, patterns and
    /// value bits.
    fn assert_same_store(x: &BlockMatrix, y: &BlockMatrix, what: &str) {
        assert_eq!((x.n, x.nb, x.nblk), (y.n, y.nb, y.nblk), "{what}");
        assert_eq!(x.blk_col_ptr, y.blk_col_ptr, "{what}");
        assert_eq!(x.blk_row_idx, y.blk_row_idx, "{what}");
        assert_eq!(x.diag_pos, y.diag_pos, "{what}");
        assert_eq!(x.blocks.len(), y.blocks.len(), "{what}");
        let bits = |m: &CscMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (id, (p, q)) in x.blocks.iter().zip(&y.blocks).enumerate() {
            assert_eq!((p.nrows(), p.ncols()), (q.nrows(), q.ncols()), "{what}: block {id}");
            assert_eq!(p.col_ptr(), q.col_ptr(), "{what}: block {id}");
            assert_eq!(p.row_idx(), q.row_idx(), "{what}: block {id}");
            assert_eq!(bits(p), bits(q), "{what}: block {id}");
        }
    }

    #[test]
    fn from_fill_equals_tiling_the_filled_matrix_on_every_paper_analog() {
        for pm in gen::PAPER_MATRICES {
            let a = gen::paper_matrix(pm.name, 1).sub_matrix(0..120, 0..120);
            let fill = symbolic_fill(&a).unwrap();
            let filled = fill.filled_matrix(&a).unwrap();
            let n = a.ncols();
            for nb in [1, 3, 16, n, n + 5] {
                let what = format!("{} nb {nb}", pm.name);
                let reference = BlockMatrix::from_filled(&filled, nb).unwrap();
                assert_eq!(reference.to_csc(), filled, "{what}: tiling is lossless");
                for id in 0..reference.num_blocks() {
                    reference.block(id).validate().unwrap();
                }
                assert_same_store(&tiled(&fill, &a, nb).unwrap(), &reference, &what);
                // Tiled straight into f32: the f64 store's values, rounded once.
                let tiled32 = tiled::<f32>(&fill, &a, nb).unwrap();
                let rounded = reference.cast::<f32>().cast::<f64>();
                assert_same_store(&tiled32.cast::<f64>(), &rounded, &format!("{what} f32"));
            }
        }
    }

    #[test]
    fn from_fill_rejects_what_it_cannot_tile() {
        let a = gen::laplacian_2d(5, 4);
        let fill = symbolic_fill(&a).unwrap();
        let invalid = |r: Result<BlockMatrix>, needle: &str| match r {
            Err(SparseError::InvalidStructure(msg)) => assert!(msg.contains(needle), "{msg}"),
            other => panic!("expected InvalidStructure naming {needle:?}, got {other:?}"),
        };
        // (19, 0) lies outside the band the natural-order fill stays in.
        let mut coo = a.to_coo();
        coo.push(19, 0, 1.0).unwrap();
        invalid(tiled(&fill, &coo.to_csc(), 4), "(19, 0)");
        invalid(BlockMatrix::from_fill(fill.clone(), 0), "block size");
        invalid(BlockMatrix::from_filled(&fill.filled_matrix(&a).unwrap(), 0), "block size");
        let mut short = fill.clone();
        short.l_col_ptr.pop();
        invalid(BlockMatrix::from_fill(short, 4), "column pointers");
        let mut unsorted = fill.clone();
        let (lo, hi) = (unsorted.l_col_ptr[0], unsorted.l_col_ptr[1]);
        unsorted.l_row_idx[lo..hi].reverse();
        invalid(BlockMatrix::from_fill(unsorted, 4), "column 0");
        let wrong_order = gen::laplacian_2d(4, 4);
        assert!(matches!(
            tiled::<f64>(&fill, &wrong_order, 4),
            Err(SparseError::DimensionMismatch(_))
        ));
        // [[1, 2], [0, 1]]: (0, 1) stored, its mirror (1, 0) not.
        let upper =
            CscMatrix::from_parts(2, 2, vec![0, 1, 3], vec![0, 0, 1], vec![1.0, 2.0, 1.0]).unwrap();
        invalid(BlockMatrix::from_filled(&upper, 1), "(0, 1)");
        let lower =
            CscMatrix::from_parts(2, 2, vec![0, 2, 3], vec![0, 1, 1], vec![1.0, 2.0, 1.0]).unwrap();
        invalid(BlockMatrix::from_filled(&lower, 2), "symmetric");
    }

    /// Every full tile shares the first full tile of its shape's pattern
    /// (buffer and all); no other tile shares a pattern. Returns the
    /// number of full tiles and of full shapes.
    fn assert_full_tiles_shared(bm: &BlockMatrix, what: &str) -> (usize, usize) {
        let mut shapes: Vec<&CscMatrix> = Vec::new();
        let mut full = 0;
        for (id, b) in bm.blocks.iter().enumerate() {
            if is_full(b) {
                full += 1;
                match shapes.iter().find(|s| (s.nrows(), s.ncols()) == (b.nrows(), b.ncols())) {
                    Some(s) => {
                        assert_eq!(
                            s.row_idx().as_ptr(),
                            b.row_idx().as_ptr(),
                            "{what}: block {id}"
                        );
                        assert!(s.shares_pattern(b), "{what}: block {id}");
                    }
                    None => shapes.push(b),
                }
            } else {
                let shared =
                    bm.blocks.iter().enumerate().any(|(o, c)| o != id && c.shares_pattern(b));
                assert!(!shared, "{what}: non-full block {id} shares its pattern");
            }
        }
        (full, shapes.len())
    }

    #[test]
    fn full_tiles_of_one_shape_share_one_pattern_on_kkt() {
        let a = gen::kkt(600, 280, 1);
        let m = pangulu_reorder::reorder_for_lu(&a, pangulu_reorder::FillReducing::Auto)
            .unwrap()
            .matrix;
        let fill = symbolic_fill(&m).unwrap();
        let nb = BlockMatrix::choose_block_size(m.ncols(), fill.nnz_lu(), 1);
        let bm = tiled::<f64>(&fill, &m, nb).unwrap();
        let (full, shapes) = assert_full_tiles_shared(&bm, "kkt");
        assert!(full > shapes && shapes > 0, "kkt: {full} full tiles of {shapes} shapes");
        let filled = fill.filled_matrix(&m).unwrap();
        let reference = BlockMatrix::from_filled(&filled, nb).unwrap();
        assert_eq!(bm.to_csc(), reference.to_csc(), "loaded from_fill equals from_filled");
        assert_same_store(&bm, &reference, "kkt");
        assert_full_tiles_shared(&reference, "kkt from_filled");
        let bm32 = bm.cast::<f32>();
        assert!(bm.blocks.iter().zip(&bm32.blocks).all(|(p, q)| p.shares_pattern(q)), "cast");
        assert!(bm.blocks.iter().zip(&bm.clone().blocks).all(|(p, q)| p.shares_pattern(q)));
    }

    #[test]
    fn full_tiles_at_the_block_size_extremes() {
        // nb = 1: every tile is 1 x 1 and full, so the store holds one pattern.
        let f = filled(40, 0.1, 5);
        let bm = BlockMatrix::from_filled(&f, 1).unwrap();
        assert_eq!(assert_full_tiles_shared(&bm, "nb 1"), (f.nnz(), 1));
        assert!(bm.diag_pos.iter().all(|&p| p == 0));
        assert_eq!(bm.to_csc(), f);
        // nb > n: one tile, full only when the matrix is dense.
        let bm = BlockMatrix::from_filled(&f, 45).unwrap();
        assert_eq!(assert_full_tiles_shared(&bm, "nb 45"), (0, 0));
        assert_eq!(bm.to_csc(), f);
        let n = 5;
        let dense = CscMatrix::from_parts(
            n,
            n,
            (0..=n).map(|j| j * n).collect(),
            (0..n * n).map(|k| k % n).collect(),
            (0..n * n).map(|k| 1.0 + k as f64).collect(),
        )
        .unwrap();
        let bm = BlockMatrix::from_filled(&dense, n + 2).unwrap();
        assert_eq!(assert_full_tiles_shared(&bm, "dense nb > n"), (1, 1));
        assert_eq!(bm.diag_pos, (0..n).collect::<Vec<_>>());
        assert_eq!(bm.to_csc(), dense);
        // nb = 2 on 5 x 5: shapes 2 x 2, 2 x 1, 1 x 2 and 1 x 1, the upper
        // ones mirrored from the lower.
        let bm = BlockMatrix::from_filled(&dense, 2).unwrap();
        assert_eq!(assert_full_tiles_shared(&bm, "dense nb 2"), (9, 4));
        assert_eq!(bm.diag_pos, vec![0, 1, 0, 1, 0]);
        assert_eq!(bm.to_csc(), dense);
        // memory_bytes counts each shape's pattern once.
        let first = |r, c| bm.blocks.iter().find(|b| (b.nrows(), b.ncols()) == (r, c)).unwrap();
        let patterns: usize = [(2, 2), (2, 1), (1, 2), (1, 1)]
            .iter()
            .map(|&(r, c)| first(r, c).pattern_bytes())
            .sum();
        let word = std::mem::size_of::<usize>();
        let arrays =
            (bm.blk_col_ptr.capacity() + bm.blk_row_idx.capacity() + bm.diag_pos.capacity()) * word
                + bm.blocks.capacity() * std::mem::size_of::<CscMatrix>();
        assert_eq!(bm.memory_bytes(), arrays + patterns + n * n * 8);
    }

    #[test]
    fn a_mixed_solvers_widened_factors_share_the_f32_patterns() {
        let a = gen::kkt(150, 70, 1);
        let s = crate::Solver::builder().precision(crate::Precision::MixedF32).build(&a).unwrap();
        let (narrow, wide) = (s.factored32().expect("mixed factors"), s.factored());
        assert_eq!(narrow.num_blocks(), wide.num_blocks());
        for id in 0..wide.num_blocks() {
            assert!(wide.block(id).shares_pattern(narrow.block(id)), "block {id}");
        }
    }

    #[test]
    fn step_of_is_min_coordinate() {
        let f = filled(40, 0.2, 2);
        let bm = BlockMatrix::from_filled(&f, 8).unwrap();
        for id in 0..bm.num_blocks() {
            let (bi, bj) = bm.block_coords(id);
            assert_eq!(bm.step_of(id), bi.min(bj));
        }
    }
}
