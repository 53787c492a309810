//! Synthetic matrix generators.
//!
//! The paper evaluates on 16 SuiteSparse matrices (Table 3). Those inputs
//! are not available here, so each is replaced by a generator producing a
//! matrix of the same *structural class*, scaled to container-friendly
//! sizes (see `DESIGN.md`, substitution table). The discriminating property
//! for every claim in the paper is the structure class — regular grid
//! vs. irregular circuit vs. FEM-blocked vs. dense-banded — which these
//! generators reproduce.
//!
//! All generators return square matrices with a structurally full,
//! diagonally dominant diagonal so that LU with static pivoting (MC64 +
//! no dynamic pivoting, as in PanguLU) is numerically safe.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{CooMatrix, CscMatrix};

/// 5-point stencil Laplacian on an `nx x ny` grid (symmetric positive
/// definite). Structure class of `apache2`, `ecology1`, `G3_circuit`.
pub fn laplacian_2d(nx: usize, ny: usize) -> CscMatrix {
    let n = nx * ny;
    let mut coo = CooMatrix::with_capacity(n, n, 5 * n);
    let idx = |x: usize, y: usize| y * nx + x;
    for y in 0..ny {
        for x in 0..nx {
            let i = idx(x, y);
            coo.push(i, i, 4.0).unwrap();
            if x > 0 {
                coo.push(i, idx(x - 1, y), -1.0).unwrap();
            }
            if x + 1 < nx {
                coo.push(i, idx(x + 1, y), -1.0).unwrap();
            }
            if y > 0 {
                coo.push(i, idx(x, y - 1), -1.0).unwrap();
            }
            if y + 1 < ny {
                coo.push(i, idx(x, y + 1), -1.0).unwrap();
            }
        }
    }
    coo.to_csc()
}

/// 7-point stencil Laplacian on an `nx x ny x nz` grid (SPD). Structure
/// class of 3-D mesh problems.
pub fn laplacian_3d(nx: usize, ny: usize, nz: usize) -> CscMatrix {
    let n = nx * ny * nz;
    let mut coo = CooMatrix::with_capacity(n, n, 7 * n);
    let idx = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let i = idx(x, y, z);
                coo.push(i, i, 6.0).unwrap();
                if x > 0 {
                    coo.push(i, idx(x - 1, y, z), -1.0).unwrap();
                }
                if x + 1 < nx {
                    coo.push(i, idx(x + 1, y, z), -1.0).unwrap();
                }
                if y > 0 {
                    coo.push(i, idx(x, y - 1, z), -1.0).unwrap();
                }
                if y + 1 < ny {
                    coo.push(i, idx(x, y + 1, z), -1.0).unwrap();
                }
                if z > 0 {
                    coo.push(i, idx(x, y, z - 1), -1.0).unwrap();
                }
                if z + 1 < nz {
                    coo.push(i, idx(x, y, z + 1), -1.0).unwrap();
                }
            }
        }
    }
    coo.to_csc()
}

/// FEM-style matrix: `n_nodes` nodes with `dofs` degrees of freedom each,
/// coupled to neighbours within `reach` nodes along a 1-D chain plus a few
/// random long-range couplings. Nodes couple as full dense `dofs x dofs`
/// blocks — this is what makes supernodal methods happy, the structure
/// class of `audikw_1`, `inline_1`, `ldoor`, `Hook_1498`, `Serena`,
/// `CoupCons3D`, `dielFilterV3real`.
pub fn fem_blocked(n_nodes: usize, dofs: usize, reach: usize, seed: u64) -> CscMatrix {
    let n = n_nodes * dofs;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coo = CooMatrix::with_capacity(n, n, n_nodes * (2 * reach + 1) * dofs * dofs);
    let couple = |coo: &mut CooMatrix, a: usize, b: usize, rng: &mut SmallRng| {
        for p in 0..dofs {
            for q in 0..dofs {
                let v = rng.gen_range(-1.0..1.0) * 0.5 / (reach as f64 * dofs as f64);
                coo.push(a * dofs + p, b * dofs + q, v).unwrap();
                coo.push(b * dofs + q, a * dofs + p, v).unwrap();
            }
        }
    };
    for node in 0..n_nodes {
        // Diagonal block: dominant diagonal.
        for p in 0..dofs {
            for q in 0..dofs {
                let v = if p == q { 4.0 } else { rng.gen_range(-0.2..0.2) };
                coo.push(node * dofs + p, node * dofs + q, v).unwrap();
            }
        }
        for d in 1..=reach {
            if node + d < n_nodes {
                couple(&mut coo, node, node + d, &mut rng);
            }
        }
        // Sparse long-range coupling, ~5% of nodes.
        if rng.gen_bool(0.05) && n_nodes > 2 * reach + 2 {
            let other = rng.gen_range(0..n_nodes);
            if other.abs_diff(node) > reach {
                couple(&mut coo, node, other, &mut rng);
            }
        }
    }
    coo.to_csc()
}

/// Irregular circuit-simulation matrix: near-diagonal couplings plus
/// power-law distributed "net" rows/columns touching many nodes, strongly
/// unsymmetric values. Structure class of `ASIC_680k` — the matrix where
/// the paper's sparse-kernel approach wins big.
pub fn circuit(n: usize, seed: u64) -> CscMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coo = CooMatrix::with_capacity(n, n, 8 * n);
    for i in 0..n {
        coo.push(i, i, 10.0 + rng.gen_range(0.0..1.0)).unwrap();
        // Local couplings to a couple of near neighbours.
        for _ in 0..2 {
            let off = rng.gen_range(1..8usize);
            if i + off < n {
                coo.push(i, i + off, rng.gen_range(-1.0..1.0)).unwrap();
                if rng.gen_bool(0.5) {
                    coo.push(i + off, i, rng.gen_range(-1.0..1.0)).unwrap();
                }
            }
        }
    }
    // Power-law hubs: a few rows/columns touch many nodes (supply rails,
    // clock nets). ~0.5% of nodes are hubs.
    let hubs = (n / 200).max(1);
    for _ in 0..hubs {
        let h = rng.gen_range(0..n);
        let degree = rng.gen_range(n / 20..n / 5);
        for _ in 0..degree {
            let other = rng.gen_range(0..n);
            if other != h {
                coo.push(h, other, rng.gen_range(-0.1..0.1)).unwrap();
                if rng.gen_bool(0.3) {
                    coo.push(other, h, rng.gen_range(-0.1..0.1)).unwrap();
                }
            }
        }
    }
    coo.to_csc()
}

/// Banded matrix with a dense-ish band: every entry within the band is
/// present with probability `band_fill`. High fill-in under factorisation —
/// the structure class of the quantum-chemistry matrices `Ga41As41H72`,
/// `Si87H76`, `SiO2`.
pub fn dense_banded(n: usize, half_bw: usize, band_fill: f64, seed: u64) -> CscMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coo = CooMatrix::with_capacity(n, n, n * half_bw);
    for i in 0..n {
        coo.push(i, i, (2 * half_bw) as f64 + 4.0).unwrap();
        for d in 1..=half_bw {
            if i + d < n && rng.gen_bool(band_fill) {
                let v = rng.gen_range(-1.0..1.0);
                coo.push(i, i + d, v).unwrap();
                coo.push(i + d, i, v * rng.gen_range(0.5..1.5)).unwrap();
            }
        }
    }
    coo.to_csc()
}

/// Saddle-point KKT system `[H  A^T; A  -eps*I]` with `H` a regularised
/// 2-D Laplacian-like block and `A` a sparse random constraint matrix.
/// Structure class of `nlpkkt80`.
pub fn kkt(n_primal: usize, n_dual: usize, seed: u64) -> CscMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = n_primal + n_dual;
    let mut coo = CooMatrix::with_capacity(n, n, 10 * n);
    // H block: chain Laplacian + regularisation (diagonally dominant).
    for i in 0..n_primal {
        coo.push(i, i, 8.0).unwrap();
        if i + 1 < n_primal {
            coo.push(i, i + 1, -1.0).unwrap();
            coo.push(i + 1, i, -1.0).unwrap();
        }
        let stride = (n_primal / 37).max(2);
        if i + stride < n_primal {
            coo.push(i, i + stride, -1.0).unwrap();
            coo.push(i + stride, i, -1.0).unwrap();
        }
    }
    // A and A^T blocks: each constraint touches ~4 primal variables.
    for c in 0..n_dual {
        let row = n_primal + c;
        for _ in 0..4 {
            let v = rng.gen_range(0.5..1.5);
            let col = rng.gen_range(0..n_primal);
            coo.push(row, col, v).unwrap();
            coo.push(col, row, v).unwrap();
        }
        // Regularised (2,2) block keeps static-pivoting LU stable.
        coo.push(row, row, -6.0).unwrap();
    }
    coo.to_csc()
}

/// Cage-like matrix (DNA electrophoresis): structurally near-symmetric,
/// moderate bandwidth with stochastic transition values, row-stochastic
/// flavour. Structure class of `cage12`.
pub fn cage_like(n: usize, seed: u64) -> CscMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coo = CooMatrix::with_capacity(n, n, 12 * n);
    // Nodes connect to i +- {1, k, k+1} for a "twisted torus" feel.
    let k = ((n as f64).sqrt() as usize).max(2);
    for i in 0..n {
        coo.push(i, i, 4.0).unwrap();
        for &off in &[1usize, k, k + 1] {
            if i + off < n {
                coo.push(i, i + off, rng.gen_range(0.05..0.45)).unwrap();
                coo.push(i + off, i, rng.gen_range(0.05..0.45)).unwrap();
            }
        }
        // A few random extra transitions make the fill heavy, as for cage12.
        if rng.gen_bool(0.2) {
            let other = rng.gen_range(0..n);
            if other != i {
                coo.push(i, other, rng.gen_range(0.01..0.2)).unwrap();
            }
        }
    }
    coo.to_csc()
}

/// Recursive-matrix (R-MAT) power-law graph, symmetrised, with a
/// dominant diagonal — the scale-free structure class of social/web
/// graphs, the hardest case for supernode formation.
pub fn rmat(scale: u32, edge_factor: usize, seed: u64) -> CscMatrix {
    let n = 1usize << scale;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coo = CooMatrix::with_capacity(n, n, 2 * n * edge_factor + n);
    // Classic (a, b, c, d) = (0.57, 0.19, 0.19, 0.05) quadrant probabilities.
    for _ in 0..n * edge_factor {
        let (mut r, mut c) = (0usize, 0usize);
        for bit in (0..scale).rev() {
            let p: f64 = rng.gen();
            let (ri, ci) = if p < 0.57 {
                (0, 0)
            } else if p < 0.76 {
                (0, 1)
            } else if p < 0.95 {
                (1, 0)
            } else {
                (1, 1)
            };
            r |= ri << bit;
            c |= ci << bit;
        }
        if r != c {
            let v = rng.gen_range(-0.5..0.5);
            coo.push(r, c, v).unwrap();
            coo.push(c, r, v).unwrap();
        }
    }
    for i in 0..n {
        coo.push(i, i, 4.0 * edge_factor as f64).unwrap();
    }
    coo.to_csc()
}

/// Tridiagonal `[-1, 2, -1]` matrix (zero fill under any ordering); the
/// smallest interesting LU input.
pub fn tridiagonal(n: usize) -> CscMatrix {
    let mut coo = CooMatrix::with_capacity(n, n, 3 * n);
    for i in 0..n {
        coo.push(i, i, 2.0).unwrap();
        if i + 1 < n {
            coo.push(i, i + 1, -1.0).unwrap();
            coo.push(i + 1, i, -1.0).unwrap();
        }
    }
    coo.to_csc()
}

/// Uniform random sparse matrix with a guaranteed dominant diagonal; the
/// workhorse for unit and property tests.
pub fn random_sparse(n: usize, density: f64, seed: u64) -> CscMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coo = CooMatrix::with_capacity(n, n, (density * (n * n) as f64) as usize + n);
    for i in 0..n {
        coo.push(i, i, n as f64 * density.max(0.05) * 4.0 + 1.0).unwrap();
    }
    for i in 0..n {
        for j in 0..n {
            if i != j && rng.gen_bool(density) {
                coo.push(i, j, rng.gen_range(-1.0..1.0)).unwrap();
            }
        }
    }
    coo.to_csc()
}

/// A deterministic right-hand side with entries in [-1, 1], for tests and
/// benches.
pub fn test_rhs(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// Identifier plus provenance for one of the paper's 16 test matrices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaperMatrix {
    /// The SuiteSparse name used in the paper.
    pub name: &'static str,
    /// Application domain quoted from the paper's figures.
    pub domain: &'static str,
    /// Structure class of the generator used as its analog.
    pub class: MatrixClass,
}

/// Structure class of a generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixClass {
    /// Regular 2-D grid (5-point stencil).
    Grid2d,
    /// Regular 3-D grid (7-point stencil).
    Grid3d,
    /// FEM with dense nodal blocks (supernode-friendly).
    FemBlocked,
    /// Irregular circuit with power-law hubs.
    Circuit,
    /// Dense-banded, fill-heavy.
    DenseBanded,
    /// Saddle-point KKT.
    Kkt,
    /// Cage/stochastic.
    Cage,
}

/// The 16 matrices of the paper's Table 3 with their generator classes.
pub const PAPER_MATRICES: [PaperMatrix; 16] = [
    PaperMatrix { name: "apache2", domain: "Structural", class: MatrixClass::Grid2d },
    PaperMatrix { name: "ASIC_680k", domain: "Circuit Simulation", class: MatrixClass::Circuit },
    PaperMatrix { name: "audikw_1", domain: "Structural", class: MatrixClass::FemBlocked },
    PaperMatrix { name: "cage12", domain: "DNA Electrophoresis", class: MatrixClass::Cage },
    PaperMatrix { name: "CoupCons3D", domain: "Structural", class: MatrixClass::FemBlocked },
    PaperMatrix {
        name: "dielFilterV3real",
        domain: "Electromagnetics",
        class: MatrixClass::FemBlocked,
    },
    PaperMatrix { name: "ecology1", domain: "2D/3D", class: MatrixClass::Grid2d },
    PaperMatrix { name: "G3_circuit", domain: "Circuit Simulation", class: MatrixClass::Grid2d },
    PaperMatrix {
        name: "Ga41As41H72",
        domain: "Quantum Chemistry",
        class: MatrixClass::DenseBanded,
    },
    PaperMatrix { name: "Hook_1498", domain: "Structural", class: MatrixClass::FemBlocked },
    PaperMatrix { name: "inline_1", domain: "Structural", class: MatrixClass::FemBlocked },
    PaperMatrix { name: "ldoor", domain: "Structural", class: MatrixClass::FemBlocked },
    PaperMatrix { name: "nlpkkt80", domain: "Optimization", class: MatrixClass::Kkt },
    PaperMatrix { name: "Serena", domain: "Structural", class: MatrixClass::FemBlocked },
    PaperMatrix { name: "Si87H76", domain: "Quantum Chemistry", class: MatrixClass::DenseBanded },
    PaperMatrix { name: "SiO2", domain: "Quantum Chemistry", class: MatrixClass::DenseBanded },
];

/// Generates the container-scale analog of one of the paper's matrices.
///
/// `scale >= 1` multiplies the default (fast) problem size; the defaults
/// give each analog a full factorisation time of well under a second so the
/// whole 16-matrix suite stays tractable on one core. Panics on an unknown
/// name; use [`PAPER_MATRICES`] for the valid set.
pub fn paper_matrix(name: &str, scale: usize) -> CscMatrix {
    let s = scale.max(1);
    match name {
        // Regular 2-D grids: large n, low fill.
        "apache2" => laplacian_2d(40 * s, 36 * s),
        "ecology1" => laplacian_2d(44 * s, 40 * s),
        "G3_circuit" => laplacian_2d(48 * s, 42 * s),
        // Irregular circuit.
        "ASIC_680k" => circuit(1700 * s, 680),
        // FEM blocked, supernode friendly.
        "audikw_1" => fem_blocked(180 * s, 9, 2, 11),
        "CoupCons3D" => fem_blocked(170 * s, 6, 2, 13),
        "dielFilterV3real" => fem_blocked(230 * s, 6, 2, 17),
        "Hook_1498" => fem_blocked(220 * s, 8, 2, 19),
        "inline_1" => fem_blocked(210 * s, 6, 2, 23),
        "ldoor" => fem_blocked(240 * s, 6, 2, 29),
        "Serena" => fem_blocked(200 * s, 9, 2, 31),
        // Quantum chemistry: dense band, fill heavy.
        "Ga41As41H72" => dense_banded(800 * s, 45, 0.55, 41),
        "Si87H76" => dense_banded(760 * s, 42, 0.5, 87),
        "SiO2" => dense_banded(720 * s, 38, 0.5, 2),
        // Optimisation KKT.
        "nlpkkt80" => kkt(1100 * s, 500 * s, 80),
        // Cage.
        "cage12" => cage_like(1200 * s, 12),
        other => panic!("unknown paper matrix {other:?}; see PAPER_MATRICES"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::structural_symmetry;

    #[test]
    fn laplacian_2d_shape_and_symmetry() {
        let a = laplacian_2d(5, 4);
        assert_eq!(a.nrows(), 20);
        assert!(a.has_full_diagonal());
        assert!((structural_symmetry(&a) - 1.0).abs() < 1e-15);
        // Diagonal plus two directed entries per grid edge.
        let (nx, ny) = (5, 4);
        assert_eq!(a.nnz(), nx * ny + 2 * ((nx - 1) * ny + nx * (ny - 1)));
    }

    #[test]
    fn laplacian_3d_interior_degree() {
        let a = laplacian_3d(3, 3, 3);
        assert_eq!(a.nrows(), 27);
        // Center node (1,1,1) -> index 13 has 6 neighbours + diagonal.
        assert_eq!(a.col_nnz(13), 7);
        assert!(a.has_full_diagonal());
    }

    #[test]
    fn fem_blocked_has_dense_nodal_blocks() {
        let a = fem_blocked(10, 3, 1, 7);
        assert_eq!(a.nrows(), 30);
        assert!(a.has_full_diagonal());
        // Diagonal block of node 0 is fully dense.
        for p in 0..3 {
            for q in 0..3 {
                assert!(a.find(p, q).is_some(), "dense diag block entry ({p},{q}) missing");
            }
        }
    }

    #[test]
    fn circuit_has_hubs() {
        let a = circuit(1000, 680);
        assert!(a.has_full_diagonal());
        // Max row degree far above the median: power-law signature.
        let csr = a.to_csr();
        let mut degrees: Vec<usize> = (0..a.nrows()).map(|i| csr.row_nnz(i)).collect();
        degrees.sort_unstable();
        let median = degrees[degrees.len() / 2];
        let max = *degrees.last().unwrap();
        assert!(max > 10 * median, "expected hub rows, median {median} max {max}");
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(circuit(300, 5), circuit(300, 5));
        assert_eq!(fem_blocked(20, 4, 2, 9), fem_blocked(20, 4, 2, 9));
        assert_eq!(dense_banded(100, 10, 0.5, 1), dense_banded(100, 10, 0.5, 1));
    }

    #[test]
    fn all_paper_matrices_generate() {
        for pm in PAPER_MATRICES {
            let a = paper_matrix(pm.name, 1);
            assert!(a.is_square(), "{} not square", pm.name);
            assert!(a.has_full_diagonal(), "{} diagonal incomplete", pm.name);
            assert!(a.nrows() >= 500, "{} too small: {}", pm.name, a.nrows());
            a.validate().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "unknown paper matrix")]
    fn unknown_matrix_panics() {
        paper_matrix("not_a_matrix", 1);
    }

    #[test]
    fn rmat_is_power_law_and_symmetric() {
        let a = rmat(9, 8, 3);
        assert_eq!(a.nrows(), 512);
        assert!((structural_symmetry(&a) - 1.0).abs() < 1e-15);
        let csr = a.to_csr();
        let mut degrees: Vec<usize> = (0..a.nrows()).map(|i| csr.row_nnz(i)).collect();
        degrees.sort_unstable();
        assert!(
            *degrees.last().unwrap() > 5 * degrees[degrees.len() / 2],
            "R-MAT must have hub vertices"
        );
    }

    #[test]
    fn tridiagonal_shape() {
        let a = tridiagonal(10);
        assert_eq!(a.nnz(), 28);
        assert_eq!(a.get(5, 5), 2.0);
        assert_eq!(a.get(5, 6), -1.0);
    }

    #[test]
    fn kkt_is_symmetric_structurally() {
        let a = kkt(200, 80, 3);
        assert!((structural_symmetry(&a) - 1.0).abs() < 1e-12);
        assert!(a.has_full_diagonal());
    }

    #[test]
    fn random_sparse_density_in_range() {
        let a = random_sparse(100, 0.05, 42);
        let d = a.density();
        assert!(d > 0.02 && d < 0.12, "density {d} out of expected range");
        assert!(a.has_full_diagonal());
    }
}
