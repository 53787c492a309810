//! Ordering study: nnz(L+U) produced by each fill-reducing ordering on
//! every suite matrix, with the time to compute the ordering and the time
//! of its counts-only symbolic pass, the blocks and tasks the regular
//! grid cuts the filled matrix into, and which candidate `Auto` keeps.
//! Shows why the `Auto` default (best of MD and ND per matrix) stands in
//! for METIS across structure classes, and what that choice costs.

use std::time::Instant;

use pangulu_core::task::TaskGraph;
use pangulu_core::BlockMatrix;
use pangulu_reorder::{fill_reducing_ordering, FillReducing};
use pangulu_sparse::ops::{ensure_diagonal, symmetrize};
use pangulu_sparse::permute::permute_symmetric;
use pangulu_sparse::{CscMatrix, Permutation};
use pangulu_symbolic::counts::nnz_lu_within;
use pangulu_symbolic::symbolic_fill;

use crate::{Csv, Result};

fn millis(since: Instant) -> String {
    format!("{:.2}", since.elapsed().as_secs_f64() * 1e3)
}

/// Blocks and tasks of `sym` reordered by `perm`, filled, and cut at the
/// block size the solver's heuristic picks: what the ordering's fill
/// *layout* — not its amount — costs the blocked factorisation. The
/// solver's tiler cuts the pattern; no value is needed.
fn granularity(sym: &CscMatrix, perm: &Permutation) -> Result<(usize, usize)> {
    let permuted = permute_symmetric(sym, perm).and_then(|m| ensure_diagonal(&m))?;
    let fill = symbolic_fill(&permuted)?;
    let nb = BlockMatrix::choose_block_size(sym.ncols(), fill.nnz_lu(), 1);
    let bm = BlockMatrix::<f64>::from_fill(fill, nb)?;
    Ok((bm.num_blocks(), TaskGraph::build(&bm).num_tasks(bm.num_blocks())))
}

/// nnz(L+U) of `sym` under `perm`, from the unbounded counts-only pass.
fn count_nnz_lu(sym: &CscMatrix, perm: &Permutation) -> Result<usize> {
    Ok(nnz_lu_within(sym.col_ptr(), sym.row_idx(), perm, usize::MAX)?
        .ok_or("an unbounded count never stops early")?)
}

pub fn run() -> Result<Csv> {
    let methods = [
        ("natural", FillReducing::Natural),
        ("rcm", FillReducing::Rcm),
        ("amd", FillReducing::Amd),
        ("nd", FillReducing::NestedDissection),
    ];
    let mut header = String::from("matrix");
    for (name, _) in methods {
        header +=
            &format!(",{name}_nnz_lu,{name}_order_ms,{name}_count_ms,{name}_blocks,{name}_tasks");
    }
    header += ",auto_nnz_lu,auto_method,auto_ms";

    let mut rows = Vec::new();
    for name in crate::suite() {
        let a = crate::load(name);
        let sym = symmetrize(&a)?;
        let mut cells = vec![name.to_string()];
        let mut perms = Vec::new();
        for (_, method) in methods {
            let t = Instant::now();
            let perm = fill_reducing_ordering(&sym, method)?;
            let order_ms = millis(t);
            let t = Instant::now();
            let nnz_lu = count_nnz_lu(&sym, &perm)?;
            let count_ms = millis(t);
            let (blocks, tasks) = granularity(&sym, &perm)?;
            cells.extend([nnz_lu.to_string(), order_ms, count_ms]);
            cells.extend([blocks.to_string(), tasks.to_string()]);
            perms.push(perm);
        }
        // Auto computes the same four orderings and scores them with
        // bounded counts; it returns one of them unchanged.
        let t = Instant::now();
        let auto = fill_reducing_ordering(&sym, FillReducing::Auto)?;
        let auto_ms = millis(t);
        let nnz_lu = count_nnz_lu(&sym, &auto)?;
        let kept = perms.iter().position(|p| *p == auto).ok_or("Auto kept no candidate")?;
        cells.extend([nnz_lu.to_string(), methods[kept].0.to_string(), auto_ms]);
        rows.push(cells.join(","));
        eprintln!("[ordering] {name} done");
    }
    Ok(Csv::new("ordering_study", &header, rows))
}
