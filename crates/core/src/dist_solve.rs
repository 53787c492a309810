//! Distributed block triangular solves — the paper's phase 5 run with the
//! same thread-as-rank, message-passing discipline as the numeric phase.
//!
//! Solution segments live with the owners of the diagonal blocks. In the
//! forward sweep (`L y = b`), segment `i` waits on one partial
//! contribution `L(i,k)·y_k` per stored block left of its diagonal; each
//! partial is computed by the *owner of that block* (ranks only ever read
//! their own blocks, as a real distribution forces) the moment the
//! broadcast of `y_k` reaches it. The backward sweep (`U x = y`) mirrors
//! this with the blocks right of the diagonal. There is no global
//! ordering or barrier — dependency counting alone drives both sweeps,
//! the same counter-array idea as the numeric factorisation's §4.4.
//!
//! The [`crate::Solver`] does not call this module: every solve runs the
//! panel sweeps of [`crate::trisolve`] on the factor, which is faster and
//! bitwise equal to the 1-rank result, while partials here are added in
//! arrival order and can differ in the last bit from run to run. It
//! stays only because `benchmark/src/pipeline.rs`, the benchmark's copy
//! of the pipeline, still times it; both go together.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use pangulu_comm::{BlockMsg, BlockRole, FaultPlan, Mailbox, MailboxSet, TransportKind};
use pangulu_sparse::Scalar;

use crate::block::BlockMatrix;
use crate::layout::OwnerMap;
use crate::trisolve::{solve_diag_lower, solve_diag_upper};

/// Which triangle the sweep runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sweep {
    /// `L y = b`: contributions come from blocks `(i, k)` with `k < i`.
    Forward,
    /// `U x = y`: contributions come from blocks `(i, k)` with `k > i`.
    Backward,
}

/// Solves `L U x = b` across `owners.num_ranks()` rank threads; `bm`
/// holds the factored tiles. `_transport` carries no choice and is
/// ignored: [`TransportKind`] stays in the signature only because the
/// repository benchmark's pipeline passes `TransportKind::default()`,
/// and both go with that caller. Under a
/// fault plan every remote message runs through its delays and
/// reordering, which the sweeps tolerate (e.g. [`FaultPlan::adversarial`]);
/// a plan that loses a message makes the blocked rank panic via its stall
/// guard instead of hanging. Returns `x`.
pub fn solve_distributed_on<S: Scalar>(
    bm: &BlockMatrix<S>,
    owners: &OwnerMap,
    b: &[S],
    _transport: TransportKind,
    fault: Option<&FaultPlan>,
) -> Vec<S> {
    assert_eq!(b.len(), bm.n(), "rhs length must match matrix order");
    let y = run_sweep(bm, owners, b, Sweep::Forward, fault);
    run_sweep(bm, owners, &y, Sweep::Backward, fault)
}

/// One dependency-counted sweep. Returns the solved vector.
fn run_sweep<S: Scalar>(
    bm: &BlockMatrix<S>,
    owners: &OwnerMap,
    b: &[S],
    sweep: Sweep,
    fault: Option<&FaultPlan>,
) -> Vec<S> {
    let nblk = bm.nblk();
    let p = owners.num_ranks();

    // Replicated sweep structure: per segment i, the contributing blocks
    // (strictly left / right of the diagonal); per column k, the blocks
    // the broadcast of x_k triggers.
    let mut contributors: Vec<Vec<usize>> = vec![Vec::new(); nblk]; // by target segment i
    let mut triggers: Vec<Vec<usize>> = vec![Vec::new(); nblk]; // by source column k
    for (bj, trig) in triggers.iter_mut().enumerate() {
        for (bi, id) in bm.col_blocks(bj) {
            let wanted = match sweep {
                Sweep::Forward => bi > bj,
                Sweep::Backward => bi < bj,
            };
            if wanted {
                contributors[bi].push(id);
                trig.push(id);
            }
        }
    }

    let mailboxes = fault
        .map_or_else(|| MailboxSet::<S>::new(p), |plan| MailboxSet::with_faults(p, plan.clone()))
        .into_mailboxes();
    let mut solved: Vec<(usize, Vec<S>)> = Vec::with_capacity(nblk);
    std::thread::scope(|s| {
        let handles: Vec<_> = mailboxes
            .into_iter()
            .map(|mb| {
                let contributors = &contributors;
                let triggers = &triggers;
                s.spawn(move || {
                    SweepWorker { bm, owners, b, sweep, contributors, triggers, mailbox: mb }.run()
                })
            })
            .collect();
        for h in handles {
            solved.extend(h.join().expect("solve rank panicked"));
        }
    });

    let mut x = vec![S::ZERO; bm.n()];
    for (k, seg) in solved {
        let base = k * bm.nb();
        x[base..base + seg.len()].copy_from_slice(&seg);
    }
    x
}

struct SweepWorker<'a, S: Scalar> {
    bm: &'a BlockMatrix<S>,
    owners: &'a OwnerMap,
    b: &'a [S],
    sweep: Sweep,
    contributors: &'a [Vec<usize>],
    triggers: &'a [Vec<usize>],
    mailbox: Mailbox<S>,
}

impl<S: Scalar> SweepWorker<'_, S> {
    fn diag_owner(&self, k: usize) -> usize {
        self.owners.owner_of(self.bm.block_id(k, k).expect("diagonal block exists"))
    }

    fn run(mut self) -> Vec<(usize, Vec<S>)> {
        let rank = self.mailbox.rank();
        let nblk = self.bm.nblk();
        let nb = self.bm.nb();

        // Owned diagonal segments: accumulators seeded with b, plus the
        // outstanding-contribution counters (the solve's sync-free array).
        let mut acc: HashMap<usize, Vec<S>> = HashMap::new();
        let mut pending: HashMap<usize, usize> = HashMap::new();
        let mut remaining_solves = 0usize;
        // Off-diagonal work this rank owes others: one partial per owned
        // contributing block.
        let mut remaining_partials = 0usize;
        for k in 0..nblk {
            if self.diag_owner(k) == rank {
                let base = k * nb;
                let len = self.bm.block(self.bm.block_id(k, k).unwrap()).ncols();
                acc.insert(k, self.b[base..base + len].to_vec());
                pending.insert(k, self.contributors[k].len());
                remaining_solves += 1;
            }
        }
        for col in self.triggers.iter() {
            remaining_partials +=
                col.iter().filter(|&&id| self.owners.owner_of(id) == rank).count();
        }

        let mut out: Vec<(usize, Vec<S>)> = Vec::new();
        // Segments whose counters hit zero solve immediately (leaves).
        let ready: Vec<usize> = pending.iter().filter(|&(_, &c)| c == 0).map(|(&k, _)| k).collect();
        for k in ready {
            self.solve_segment(k, &mut acc, &mut out);
            remaining_solves -= 1;
        }

        let timeout = Duration::from_millis(50);
        let mut idle = 0u32;
        while remaining_solves > 0 || remaining_partials > 0 {
            // Under a reordering fault plan, sends may sit in this rank's
            // own buffers — release them before blocking so an idle
            // sender can never strand a message.
            self.mailbox.flush_pending();
            let Some(msg) = self.mailbox.recv(timeout) else {
                idle += 1;
                assert!(
                    idle < 1200,
                    "solve rank {rank} stalled: {remaining_solves} solves, \
                     {remaining_partials} partials left"
                );
                continue;
            };
            idle = 0;
            match msg.role {
                BlockRole::XSegment => {
                    let k = msg.bi;
                    // Compute the partial for every owned block in the
                    // trigger column and ship it to the diagonal owner —
                    // always through the mailbox, self included, so
                    // every partial is charged and logged identically
                    // whatever rank it lands on. A loopback partial
                    // comes back through this same receive loop.
                    // (`triggers` is a shared borrow independent of self.)
                    let triggers = self.triggers;
                    for &id in &triggers[k] {
                        if self.owners.owner_of(id) != rank {
                            continue;
                        }
                        remaining_partials -= 1;
                        let (bi, _) = self.bm.block_coords(id);
                        let partial = block_times_segment(self.bm.block(id), &msg.values);
                        self.deliver_partial(bi, k, partial);
                    }
                }
                BlockRole::Partial => {
                    let i = msg.bi;
                    apply_partial(acc.get_mut(&i).expect("partial for owned segment"), &msg.values);
                    let c = pending.get_mut(&i).expect("counter for owned segment");
                    *c -= 1;
                    if *c == 0 {
                        self.solve_segment(i, &mut acc, &mut out);
                        remaining_solves -= 1;
                    }
                }
                other => panic!("unexpected message role {other:?} during solve"),
            }
        }
        // Ship anything still buffered before this rank's receiver drops.
        self.mailbox.flush_pending();
        out
    }

    /// Ships a computed partial for segment `i` to the diagonal owner.
    /// Self-deliveries take the mailbox loopback path like everything
    /// else — the per-edge wire-model charge must not depend on the
    /// owner map placing source and target on the same rank.
    fn deliver_partial(&mut self, i: usize, source_col: usize, partial: Vec<S>) {
        let dest = self.diag_owner(i);
        self.mailbox.send(
            dest,
            BlockMsg { bi: i, bj: source_col, role: BlockRole::Partial, values: partial.into() },
        );
    }

    /// Solves the owned segment `k` in-block and broadcasts it.
    fn solve_segment(
        &mut self,
        k: usize,
        acc: &mut HashMap<usize, Vec<S>>,
        out: &mut Vec<(usize, Vec<S>)>,
    ) {
        let rank = self.mailbox.rank();
        let mut seg = acc.remove(&k).expect("segment accumulator");
        let diag = self.bm.block(self.bm.block_id(k, k).expect("diag"));
        let dpos = self.bm.diag_positions(k);
        match self.sweep {
            Sweep::Forward => solve_diag_lower(diag, dpos, &mut seg),
            Sweep::Backward => solve_diag_upper(diag, dpos, &mut seg),
        }
        // Broadcast to the ranks owning the blocks this segment feeds.
        // Self-sends go through the mailbox too: the receive loop is the
        // single place partials are computed and accounted.
        let _ = (rank, &*acc);
        let mut dests: Vec<usize> =
            self.triggers[k].iter().map(|&id| self.owners.owner_of(id)).collect();
        dests.sort_unstable();
        dests.dedup();
        if !dests.is_empty() {
            // One shared payload for the whole broadcast (self-sends
            // included); each edge still pays full wire-model freight.
            let payload: Arc<[S]> = seg.as_slice().into();
            for dest in dests {
                self.mailbox.send(
                    dest,
                    BlockMsg { bi: k, bj: k, role: BlockRole::XSegment, values: payload.clone() },
                );
            }
        }
        out.push((k, seg));
    }
}

/// `blk · seg` (dense result over the block's rows).
fn block_times_segment<S: Scalar>(blk: &pangulu_sparse::CscMatrix<S>, seg: &[S]) -> Vec<S> {
    let mut out = vec![S::ZERO; blk.nrows()];
    for (c, &xc) in seg.iter().enumerate().take(blk.ncols()) {
        if xc == S::ZERO {
            continue;
        }
        let (rows, vals) = blk.col(c);
        for (&r, &v) in rows.iter().zip(vals) {
            out[r] += v * xc;
        }
    }
    out
}

/// `acc -= partial`.
fn apply_partial<S: Scalar>(acc: &mut [S], partial: &[S]) {
    for (a, p) in acc.iter_mut().zip(partial) {
        *a -= *p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::factor_sequential;
    use crate::task::TaskGraph;
    use crate::trisolve::{backward_substitute, forward_substitute};
    use pangulu_comm::ProcessGrid;
    use pangulu_kernels::select::{KernelSelector, Thresholds};
    use pangulu_sparse::gen;
    use pangulu_sparse::ops::ensure_diagonal;
    use pangulu_symbolic::symbolic_fill;

    fn factored(n: usize, nb: usize, seed: u64) -> BlockMatrix {
        let a = ensure_diagonal(&gen::random_sparse(n, 0.1, seed)).unwrap();
        let f = symbolic_fill(&a).unwrap().filled_matrix(&a).unwrap();
        let mut bm = BlockMatrix::from_filled(&f, nb).unwrap();
        let tg = TaskGraph::build(&bm);
        let sel = KernelSelector::new(a.nnz(), Thresholds::default());
        factor_sequential(&mut bm, &tg, &sel, 0.0);
        bm
    }

    #[test]
    fn matches_sequential_trisolve() {
        for (p, seed) in [(1usize, 1u64), (2, 2), (4, 3), (6, 4)] {
            let bm = factored(60, 8, seed);
            let owners = OwnerMap::block_cyclic(&bm, ProcessGrid::new(p));
            let b = gen::test_rhs(60, seed);
            let mut expect = b.clone();
            forward_substitute(&bm, &mut expect);
            backward_substitute(&bm, &mut expect);
            let got = solve_distributed_on(&bm, &owners, &b, TransportKind, None);
            for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
                assert!((g - e).abs() < 1e-12, "p={p} seed={seed} idx {i}: {g} vs {e}");
            }
        }
    }

    #[test]
    fn balanced_owner_map_also_works() {
        let a = ensure_diagonal(&gen::circuit(200, 7)).unwrap();
        let f = symbolic_fill(&a).unwrap().filled_matrix(&a).unwrap();
        let mut bm = BlockMatrix::from_filled(&f, 12).unwrap();
        let tg = TaskGraph::build(&bm);
        let sel = KernelSelector::new(a.nnz(), Thresholds::default());
        factor_sequential(&mut bm, &tg, &sel, 1e-12);
        let owners = OwnerMap::balanced(&bm, ProcessGrid::new(4), &tg);
        let b = gen::test_rhs(200, 9);
        let mut expect = b.clone();
        forward_substitute(&bm, &mut expect);
        backward_substitute(&bm, &mut expect);
        let got = solve_distributed_on(&bm, &owners, &b, TransportKind, None);
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-10);
        }
    }
}
