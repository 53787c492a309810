//! The five named workloads and their seeded inputs.

use pangulu_core::Precision;
use pangulu_sparse::{gen, CscMatrix};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The generator behind a workload's sparsity pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    Circuit { n: usize },
    Kkt { n_primal: usize, n_dual: usize },
    Lap2d { nx: usize },
}

/// What one closed-loop operation does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// `Solver::builder().build(&A)` + `solve(b)`: analysis inside the op.
    OneShot,
    /// `refactor(&A_k)` + `solve(b_k)` against a solver built in set-up.
    Refactor,
    /// `solve_multi` of `rhs` right-hand sides against a factor built in set-up.
    SolveMulti { rhs: usize },
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    pub pattern: Pattern,
    pub ranks: usize,
    pub precision: Precision,
    pub op: Op,
    /// Operations per run when `--seconds` is not given.
    pub ops: usize,
}

/// The sparsity patterns are generated from this fixed seed; `--seed`
/// drives the values and right-hand sides. Reordering cost follows the
/// pattern (circuit hub degrees alone move `oneshot.circuit` by ±10 %
/// between generator seeds), so a pattern that changed with the seed would
/// put input variance, not code variance, into every cross-seed spread.
const PATTERN_SEED: u64 = 1;

/// Value sets `A_k` (same pattern, entries × (1 ± 0.05·u)) and right-hand
/// side sets `b_k` that the ops cycle through.
pub const VALUE_SETS: usize = 4;

pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "oneshot.circuit",
        pattern: Pattern::Circuit { n: 6000 },
        ranks: 1,
        precision: Precision::F64,
        op: Op::OneShot,
        ops: 16,
    },
    Spec {
        name: "refactor.kkt",
        pattern: Pattern::Kkt { n_primal: 2400, n_dual: 1120 },
        ranks: 1,
        precision: Precision::F64,
        op: Op::Refactor,
        ops: 40,
    },
    Spec {
        name: "refactor.circuit.r2",
        pattern: Pattern::Circuit { n: 6000 },
        ranks: 2,
        precision: Precision::F64,
        op: Op::Refactor,
        ops: 250,
    },
    Spec {
        name: "solve.lap2d.k32",
        pattern: Pattern::Lap2d { nx: 256 },
        ranks: 1,
        precision: Precision::F64,
        op: Op::SolveMulti { rhs: 32 },
        ops: 40,
    },
    Spec {
        name: "mixed.kkt",
        pattern: Pattern::Kkt { n_primal: 2400, n_dual: 1120 },
        ranks: 1,
        precision: Precision::MixedF32,
        op: Op::Refactor,
        ops: 40,
    },
];

pub fn find(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Spec {
    /// The same workload at a size that runs in milliseconds (`--tiny`).
    pub fn tiny(mut self) -> Spec {
        self.pattern = match self.pattern {
            Pattern::Circuit { .. } => Pattern::Circuit { n: 400 },
            Pattern::Kkt { .. } => Pattern::Kkt { n_primal: 150, n_dual: 70 },
            Pattern::Lap2d { .. } => Pattern::Lap2d { nx: 16 },
        };
        if let Op::SolveMulti { .. } = self.op {
            self.op = Op::SolveMulti { rhs: 4 };
        }
        self.ops = 6;
        self
    }

    pub fn describe_input(&self) -> String {
        match self.pattern {
            Pattern::Circuit { n } => format!("gen::circuit({n}, {PATTERN_SEED})"),
            Pattern::Kkt { n_primal, n_dual } => {
                format!("gen::kkt({n_primal}, {n_dual}, {PATTERN_SEED})")
            }
            Pattern::Lap2d { nx } => format!("gen::laplacian_2d({nx}, {nx})"),
        }
    }
}

/// Everything the library is handed: matrices and right-hand sides only.
pub struct Inputs {
    /// `A_k`; one entry for workloads that never change values.
    pub mats: Vec<CscMatrix>,
    /// `rhs[k]` is the right-hand sides of one op (one, or `rhs` many).
    pub rhs: Vec<Vec<Vec<f64>>>,
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let base = match spec.pattern {
            Pattern::Circuit { n } => gen::circuit(n, PATTERN_SEED),
            Pattern::Kkt { n_primal, n_dual } => gen::kkt(n_primal, n_dual, PATTERN_SEED),
            Pattern::Lap2d { nx } => gen::laplacian_2d(nx, nx),
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let mats = match spec.op {
            // The factor is built once from the generator's own values.
            Op::SolveMulti { .. } => vec![base],
            Op::OneShot => vec![perturbed(&base, &mut rng)],
            Op::Refactor => (0..VALUE_SETS).map(|_| perturbed(&base, &mut rng)).collect(),
        };
        let per_op = match spec.op {
            Op::SolveMulti { rhs } => rhs,
            Op::OneShot | Op::Refactor => 1,
        };
        let n = mats[0].nrows();
        let rhs = (0..VALUE_SETS)
            .map(|_| (0..per_op).map(|_| gen::test_rhs(n, rng.gen())).collect())
            .collect();
        Inputs { mats, rhs }
    }

    pub fn mat(&self, op: usize) -> &CscMatrix {
        &self.mats[op % self.mats.len()]
    }

    pub fn rhs(&self, op: usize) -> &[Vec<f64>] {
        &self.rhs[op % self.rhs.len()]
    }
}

fn perturbed(base: &CscMatrix, rng: &mut SmallRng) -> CscMatrix {
    let mut a = base.clone();
    for v in a.values_mut() {
        *v *= 1.0 + 0.05 * rng.gen_range(-1.0..1.0);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_seeds_differ_in_values_only() {
        let spec = find("refactor.kkt").unwrap().tiny();
        let (a, b, c) =
            (Inputs::generate(&spec, 3), Inputs::generate(&spec, 3), Inputs::generate(&spec, 4));
        assert_eq!(a.mats.len(), VALUE_SETS);
        assert_eq!(a.mats, b.mats);
        assert_eq!(a.rhs, b.rhs);
        assert_eq!(a.mats[0].row_idx(), c.mats[0].row_idx());
        assert_ne!(a.mats[0].values(), c.mats[0].values());
        assert_ne!(a.mats[0].values(), a.mats[1].values());
        assert_ne!(a.rhs, c.rhs);
    }

    #[test]
    fn solve_workload_carries_its_rhs_count() {
        let spec = find("solve.lap2d.k32").unwrap();
        assert_eq!(spec.op, Op::SolveMulti { rhs: 32 });
        let tiny = Inputs::generate(&spec.tiny(), 1);
        assert_eq!((tiny.mats.len(), tiny.rhs.len(), tiny.rhs[0].len()), (1, VALUE_SETS, 4));
    }
}
