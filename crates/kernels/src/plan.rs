//! Analysis-time kernel index plans (the "planned" variant class).
//!
//! After symbolic factorisation every block's pattern is fixed, yet the
//! unplanned kernels re-discover it on every call: SSSSM scatters and
//! gathers a dense working column, GESSM/TSTRF run merge walks between
//! the factor and the unknown, GETRF binary-searches its update targets.
//! A *plan* performs that discovery once per task and stores the result
//! as run segments, so a repeated factorisation (and the steady state of
//! [`Solver::refactor`]) runs pure indexed arithmetic — the same trick
//! circuit-simulation solvers use for repeated factorisation speed.
//!
//! **Bitwise contract.** Each planned entry point performs *exactly* the
//! `C_V1` subtractions: the same steps in the same order, the same
//! subtraction for every target entry a step updates, the same
//! value-dependent zero skips (re-checked at run time, never baked into
//! the plan). The dense scatter/gather and merge cursors it elides are
//! pure index machinery — they move values without arithmetic — so
//! planned results are bitwise identical to the unplanned kernels
//! (`tests/planned_equivalence.rs` holds the crate to this on random
//! closed patterns).
//!
//! **Run segments.** A replay is a walk over the kernel's *steps* — one
//! per source column that updates something: an `A(:, k)` scaled by one
//! `B(k, j)` (SSSSM), the part of `L(:, k)` below the diagonal scaled by
//! one solved `x_k` (GESSM), a solved `X(:, k)` scaled by one `U(k, j)`
//! (TSTRF), the part of column `k` below the diagonal scaled by one
//! `U(k, j)` (GETRF). Every source entry updates exactly one target entry
//! (symbolic closure), so a step's body stores only where the targets
//! lie: its target offsets cut into maximal contiguous runs, a run of one
//! entry as its offset with the [`SINGLE`] tag bit set, a longer run as a
//! `(tgt, len)` pair, the runs listed last first. Replay takes the source
//! from its end backwards — each source ends its column, so no step
//! stores where its source starts — and executes one slice-level axpy per
//! run, `&mut dst[t0..t0+len]` zipped with `len` source values, which the
//! compiler autovectorises, `f32` getting twice the lanes per op. A body
//! that is one one-entry run is that tagged element; any other leads with
//! its element count, so a step whose scalar is zero is skipped in O(1).
//! Each target entry takes one subtraction per step, mul-then-sub, so the
//! order of a step's runs moves no bit.
//!
//! **One decision.** Whether a task replays a plan or runs the variant
//! the Figure 8 tree picks is answered in exactly one place: the
//! `route_*` lookups of [`KernelPlans`], from the
//! [`KernelSelector`] planned gates and the slots the pool built. A task
//! that does not replay a plan gets the selector's leaf for its blocks —
//! the dense-tile lane when they are full, else the Figure 8 tree's pick
//! (panel precedence: plan, then tile, then tree). GETRF and SSSSM ask
//! the block they write first: a full diagonal block or a full update
//! target never has a plan — positions there are `j·m + r`, a plan would
//! resolve nothing — and takes the tile or the tree's pick (whose `C_V1`
//! updates a full target's columns in place); only a block with a hole
//! goes plan, then tree. Executors hand the resulting [`Route`] to
//! [`crate::TimedKernels`] and never test a gate or a block's fullness
//! themselves; closing the gates through [`crate::Thresholds::unplanned`]
//! is how a run without plans is asked for.
//!
//! **Memory model.** A pool holds one `u16` arena and one slot table per
//! kernel class. A plan lists the block columns that have work: for
//! each, the column's index (GETRF lists every column, so it needs none),
//! the diagonal position for GETRF, GESSM's step count, and then its
//! steps' bodies, each GESSM step led by the entries of `B(:, c)` it
//! passes over. Which source columns have a step SSSSM, TSTRF and GETRF
//! derive with an O(1) test of the operands' `col_ptr` (and of the
//! diagonal positions GETRF records as it passes them), exactly as the
//! builder decided; TSTRF finds `U(j, j)` as it walks the entries above
//! it. Every element is an offset relative to a block column, a count or
//! a length below the tag bit, so it fits whenever the blocks'
//! dimensions are at most 32 767 ([`fits`]; a larger block runs its
//! variant, bitwise identically). Everything else — where a column and a
//! step's scalar sit in the value arrays, where a step's source ends,
//! where the next column's entries begin — the replay derives from the
//! operands' `col_ptr` and `row_idx` as it walks. A slot is a [`Plan`]:
//! the arena offset of its first element and the three counters one
//! replay adds to the run's totals. A class's table is allocated by its
//! first plan, so a pool whose gates admit nothing holds no bytes.
//! [`KernelPlans::build`] sizes the arena in a counting pass before it
//! writes, so the arena and the tables are allocated once at their exact
//! size, and [`KernelPlans::stats`] reports what the pool holds. Plans
//! are reused verbatim across refactorisations, with no per-call
//! allocation.
//!
//! [`Solver::refactor`]: ../../pangulu_core/solver/struct.Solver.html

use std::marker::PhantomData;
use std::time::Instant;

use pangulu_sparse::{CscMatrix, Scalar};

use crate::getrf::apply_floor;
use crate::scratch::{reset_splits, split_of, KernelScratch};
use crate::select::KernelSelector;
use crate::tile::is_full;
use crate::{GetrfVariant, SsssmVariant, TrsmVariant};

/// The tag bit of a one-entry run: stored as its target offset with this
/// bit set, where a longer run takes a `(tgt, len)` pair.
pub const SINGLE: u16 = 1 << 15;

/// `true` if blocks whose rows and columns number at most `dim` can be
/// planned: every arena element — a column index, an offset within a
/// block column, a count or a run length — is then at most 32 767, below
/// the [`SINGLE`] tag bit.
#[inline]
pub fn fits(dim: usize) -> bool {
    dim < usize::from(SINGLE)
}

/// `true` if an update `C ← C − A·B` can be planned (`A` has `C`'s rows).
fn fits_update<S: Scalar>(b: &CscMatrix<S>, c: &CscMatrix<S>) -> bool {
    fits(b.nrows()) && fits(c.nrows()) && fits(c.ncols())
}

/// `true` if a panel solve against `diag_lu` on block `b` can be planned.
fn fits_panel<S: Scalar>(diag_lu: &CscMatrix<S>, b: &CscMatrix<S>) -> bool {
    fits(diag_lu.nrows()) && fits(b.nrows()) && fits(b.ncols())
}

/// A built plan: where its steps start in its pool's arena, and what one
/// replay of it adds to the run's counters (static per plan, hence
/// deterministic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    off: u32,
    /// Index lookups the unplanned addressing performs per call.
    pub searches_avoided: u32,
    /// Run segments one replay executes.
    pub runs: u32,
    /// Entries one replay executes as slice-loop continuations rather
    /// than as the head of a segment.
    pub run_entries: u32,
}

impl Plan {
    /// The empty slot.
    const NONE: Plan = Plan { off: u32::MAX, searches_avoided: 0, runs: 0, run_entries: 0 };

    fn is_built(&self) -> bool {
        self.off != u32::MAX
    }
}

/// An arena element: callers have checked the blocks with [`fits`].
#[inline]
fn narrow(v: usize) -> u16 {
    debug_assert!(fits(v), "arena element {v} does not fit below the tag bit");
    v as u16
}

/// Where a builder writes its arena elements: the arena itself, or a
/// [`Count`] that sizes it before anything is written.
trait Out {
    fn len(&self) -> usize;
    fn push(&mut self, v: usize);
    fn extend(&mut self, vs: &[u16]);
    /// Overwrites the element at `at`, written earlier as a placeholder.
    fn set(&mut self, at: usize, v: usize);
    fn truncate(&mut self, len: usize);
}

impl Out for Vec<u16> {
    fn len(&self) -> usize {
        Vec::len(self)
    }
    fn push(&mut self, v: usize) {
        Vec::push(self, narrow(v));
    }
    fn extend(&mut self, vs: &[u16]) {
        self.extend_from_slice(vs);
    }
    fn set(&mut self, at: usize, v: usize) {
        self[at] = narrow(v);
    }
    fn truncate(&mut self, len: usize) {
        Vec::truncate(self, len);
    }
}

/// An arena that only counts its elements.
struct Count(usize);

impl Out for Count {
    fn len(&self) -> usize {
        self.0
    }
    fn push(&mut self, _: usize) {
        self.0 += 1;
    }
    fn extend(&mut self, vs: &[u16]) {
        self.0 += vs.len();
    }
    fn set(&mut self, _: usize, _: usize) {}
    fn truncate(&mut self, len: usize) {
        self.0 = len;
    }
}

/// What one plan's replay counts, summed over its steps as it is built.
#[derive(Default)]
struct Tally {
    searches: u64,
    runs: u64,
    run_entries: u64,
}

/// One column's steps, gathered before they are written: each step's
/// header, if its class has one, and its body — the maximal runs of
/// target offsets its source entries, taken in order, update, written
/// last run first (see [`Cursor::step`]).
#[derive(Default)]
struct ColSteps {
    elems: Vec<u16>,
    /// Steps kept in the column so far.
    steps: usize,
    /// The runs of the step being gathered: `(tgt, len)`.
    runs: Vec<(usize, usize)>,
}

impl ColSteps {
    /// Adds the step's sources `rows`, consumed in order, at their offsets
    /// in the sorted target column `tgt`, one maximal run at a time.
    /// Contiguous rows that `tgt` holds contiguously are one run, found
    /// with one search: the common dense case.
    ///
    /// # Panics
    /// Panics if a row is missing from `tgt`: the pattern is not closed,
    /// which the unplanned dense path would silently corrupt on.
    fn add_sources(&mut self, tgt: &[usize], rows: &[usize]) {
        // The offset of `row`, at or after `from`: usually `from` itself.
        let offset = |row: usize, from: usize| match tgt.get(from) {
            Some(&r) if r == row => from,
            _ => {
                from + tgt[from..]
                    .binary_search(&row)
                    .expect("plan target missing: pattern not closed")
            }
        };
        let (Some(&first), Some(&last)) = (rows.first(), rows.last()) else {
            return;
        };
        let (p0, span) = (offset(first, 0), rows.len() - 1);
        if last - first == span && tgt.get(p0 + span) == Some(&last) {
            return self.runs.push((p0, rows.len()));
        }
        let (mut q0, mut p_start, mut p_prev) = (0, p0, p0);
        for (q, &i) in rows.iter().enumerate().skip(1) {
            let p = offset(i, p_prev + 1);
            if p != p_prev + 1 {
                self.runs.push((p_start, q - q0));
                (q0, p_start) = (q, p);
            }
            p_prev = p;
        }
        self.runs.push((p_start, rows.len() - q0));
    }

    /// Ends the step being gathered, led by `head` if its class has a
    /// header; returns whether it was kept. A step with no run is dropped,
    /// as the replay's test of the operands drops it.
    fn end_step(&mut self, head: Option<usize>, tally: &mut Tally) -> bool {
        if self.runs.is_empty() {
            return false;
        }
        if let Some(h) = head {
            self.elems.push(narrow(h));
        }
        // One one-entry run is its own tagged element; any other step leads
        // with its element count, so a replay skips it in O(1).
        let body: usize = self.runs.iter().map(|&(_, n)| if n == 1 { 1 } else { 2 }).sum();
        if body > 1 {
            self.elems.push(narrow(body));
        }
        let pairs: usize = self.runs.iter().map(|&(_, n)| n).sum();
        for &(tgt, n) in self.runs.iter().rev() {
            if n == 1 {
                self.elems.push(narrow(tgt) | SINGLE);
            } else {
                self.elems.extend_from_slice(&[narrow(tgt), narrow(n)]);
            }
        }
        tally.searches += pairs as u64;
        tally.runs += self.runs.len() as u64;
        tally.run_entries += (pairs - self.runs.len()) as u64;
        self.runs.clear();
        self.steps += 1;
        true
    }

    fn is_empty(&self) -> bool {
        self.steps == 0
    }

    /// Writes the column — `head`, then its steps — and clears it.
    fn write(&mut self, out: &mut impl Out, head: &[usize]) {
        for &h in head {
            out.push(h);
        }
        out.extend(&self.elems);
        self.elems.clear();
        self.steps = 0;
    }
}

/// Runs one builder into `out` if its blocks fit; the plan, or `None`
/// (and `out` as it was) when the blocks or its counters do not fit.
fn record<O: Out>(
    out: &mut O,
    blocks_fit: bool,
    steps: impl FnOnce(&mut O) -> Tally,
) -> Option<Plan> {
    if !blocks_fit {
        return None;
    }
    let start = out.len();
    let t = steps(out);
    let plan = (|| {
        Some(Plan {
            off: u32::try_from(start).ok().filter(|&o| o != Plan::NONE.off)?,
            searches_avoided: u32::try_from(t.searches).ok()?,
            runs: u32::try_from(t.runs).ok()?,
            run_entries: u32::try_from(t.run_entries).ok()?,
        })
    })();
    if plan.is_none() {
        out.truncate(start);
    }
    plan
}

/// Counts a plan's active columns into a placeholder ahead of them.
struct Cols {
    head: usize,
    n: usize,
}

impl Cols {
    fn open(out: &mut impl Out) -> Self {
        let head = out.len();
        out.push(0);
        Cols { head, n: 0 }
    }

    fn close(self, out: &mut impl Out) {
        out.set(self.head, self.n);
    }
}

/// SSSSM `C ← C − A·B`: the active columns `j` of `C`, each with one step
/// per `B(k, j)` whose `A(:, k)` is not empty, its targets relative to
/// `C(:, j)`.
fn ssssm_steps<S: Scalar>(
    a: &CscMatrix<S>,
    b: &CscMatrix<S>,
    c: &CscMatrix<S>,
    out: &mut impl Out,
) -> Tally {
    let mut tally = Tally::default();
    let mut col = ColSteps::default();
    let mut cols = Cols::open(out);
    for j in 0..c.ncols() {
        let (crows, _) = c.col(j);
        if crows.is_empty() {
            continue;
        }
        for &k in b.col(j).0 {
            col.add_sources(crows, a.col(k).0);
            col.end_step(None, &mut tally);
        }
        if !col.is_empty() {
            col.write(out, &[j]);
            cols.n += 1;
        }
    }
    cols.close(out);
    tally
}

/// GESSM `L X = B`: the active columns `c` of `B` with their step counts,
/// each step one `B(k, c)` whose `L(:, k)` has entries below the diagonal
/// — the entries of `B(:, c)` passed over since the previous step, and
/// the targets relative to `B(:, c)`. Each column's split is searched
/// once per call (`splits`).
fn gessm_steps<S: Scalar>(
    diag_lu: &CscMatrix<S>,
    b: &CscMatrix<S>,
    splits: &mut Vec<usize>,
    out: &mut impl Out,
) -> Tally {
    let mut tally = Tally::default();
    let mut col = ColSteps::default();
    let mut cols = Cols::open(out);
    reset_splits(splits, diag_lu.ncols());
    for c in 0..b.ncols() {
        let (rows_c, _) = b.col(c);
        let mut next = 0;
        for (p, &k) in rows_c.iter().enumerate() {
            let (col_k, _) = diag_lu.col(k);
            let start = split_of(splits, col_k, k);
            col.add_sources(rows_c, &col_k[start..]);
            if col.end_step(Some(p - next), &mut tally) {
                next = p + 1;
            }
        }
        if !col.is_empty() {
            let steps = col.steps;
            col.write(out, &[c, steps]);
            cols.n += 1;
        }
    }
    cols.close(out);
    tally
}

/// TSTRF `X U = B`: the non-empty columns `j` of `B`, each with one step
/// per `U(k, j)` above the diagonal whose `B(:, k)` is not empty, its
/// targets relative to `B(:, j)`.
///
/// # Panics
/// Panics if the factor's diagonal entry is structurally missing.
fn tstrf_steps<S: Scalar>(diag_lu: &CscMatrix<S>, b: &CscMatrix<S>, out: &mut impl Out) -> Tally {
    let mut tally = Tally::default();
    let mut col = ColSteps::default();
    let mut cols = Cols::open(out);
    for j in 0..b.ncols() {
        let (rows_j, _) = b.col(j);
        if rows_j.is_empty() {
            continue;
        }
        let (d_col, _) = diag_lu.col(j);
        let dpos = d_col.partition_point(|&r| r < j);
        assert!(d_col.get(dpos) == Some(&j), "TSTRF plan: diagonal entry missing");
        for &k in &d_col[..dpos] {
            col.add_sources(rows_j, b.col(k).0);
            col.end_step(None, &mut tally);
        }
        col.write(out, &[j]);
        cols.n += 1;
    }
    cols.close(out);
    tally
}

/// GETRF: every column `j`, with the position of its diagonal and one
/// step per `U(k, j)` whose column `k` has entries below its diagonal,
/// its targets relative to column `j`. Each column's split is recorded
/// as the builder passes it (`splits`), where the replay records it too.
///
/// # Panics
/// Panics if a diagonal entry is missing from the pattern.
fn getrf_steps<S: Scalar>(a: &CscMatrix<S>, splits: &mut Vec<usize>, out: &mut impl Out) -> Tally {
    let mut tally = Tally::default();
    let mut col = ColSteps::default();
    splits.clear();
    for j in 0..a.ncols() {
        let (rows_j, _) = a.col(j);
        let diag = rows_j.partition_point(|&r| r < j);
        assert!(rows_j.get(diag) == Some(&j), "GETRF plan: diagonal entry missing");
        for &k in &rows_j[..diag] {
            col.add_sources(rows_j, &a.col(k).0[splits[k]..]);
            col.end_step(None, &mut tally);
        }
        splits.push(diag + 1);
        col.write(out, &[diag]);
    }
    tally
}

/// Writes the plan of `task` into `out` if its blocks fit; `splits` is
/// the builders' split table.
fn write_plan<S: Scalar, O: Out>(
    task: &PlanTask<'_, S>,
    out: &mut O,
    splits: &mut Vec<usize>,
) -> Option<Plan> {
    match *task {
        PlanTask::Getrf { a, .. } => record(out, fits(a.nrows()), |o| getrf_steps(a, splits, o)),
        PlanTask::Gessm { diag_lu, b, .. } => {
            record(out, fits_panel(diag_lu, b), |o| gessm_steps(diag_lu, b, splits, o))
        }
        PlanTask::Tstrf { diag_lu, b, .. } => {
            record(out, fits_panel(diag_lu, b), |o| tstrf_steps(diag_lu, b, o))
        }
        PlanTask::Ssssm { a, b, c, .. } => {
            record(out, fits_update(b, c), |o| ssssm_steps(a, b, c, o))
        }
    }
}

/// Builds the plan of `C ← C − A·B` (patterns only) into `arena`; `None`
/// if a block dimension exceeds what [`fits`] admits.
///
/// # Panics
/// Panics if a product entry has no slot in `C`'s pattern (violation of
/// the symbolic closure contract, which the unplanned dense path would
/// silently corrupt on).
pub fn build_ssssm_plan<S: Scalar>(
    a: &CscMatrix<S>,
    b: &CscMatrix<S>,
    c: &CscMatrix<S>,
    arena: &mut Vec<u16>,
) -> Option<Plan> {
    write_plan(&PlanTask::Ssssm { slot: 0, flops: 0.0, a, b, c }, arena, &mut Vec::new())
}

/// Builds the plan of `L X = B` into `arena`, as [`build_ssssm_plan`].
pub fn build_gessm_plan<S: Scalar>(
    diag_lu: &CscMatrix<S>,
    b: &CscMatrix<S>,
    arena: &mut Vec<u16>,
) -> Option<Plan> {
    write_plan(&PlanTask::Gessm { slot: 0, diag_lu, b }, arena, &mut Vec::new())
}

/// Builds the plan of `X U = B` into `arena`, as [`build_ssssm_plan`].
///
/// # Panics
/// Panics if the factor's diagonal entry is structurally missing.
pub fn build_tstrf_plan<S: Scalar>(
    diag_lu: &CscMatrix<S>,
    b: &CscMatrix<S>,
    arena: &mut Vec<u16>,
) -> Option<Plan> {
    write_plan(&PlanTask::Tstrf { slot: 0, diag_lu, b }, arena, &mut Vec::new())
}

/// Builds the pivot/update plan of a GETRF diagonal block into `arena`,
/// as [`build_ssssm_plan`].
///
/// # Panics
/// Panics if an update target or a diagonal entry is missing from the
/// pattern (closure violation).
pub fn build_getrf_plan<S: Scalar>(a: &CscMatrix<S>, arena: &mut Vec<u16>) -> Option<Plan> {
    write_plan(&PlanTask::Getrf { slot: 0, a }, arena, &mut Vec::new())
}

/// A replay's read position in its plan's arena elements.
struct Cursor<'a> {
    arena: &'a [u16],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(plan: &Plan, arena: &'a [u16]) -> Self {
        Cursor { arena, at: plan.off as usize }
    }

    #[inline(always)]
    fn next(&mut self) -> usize {
        let v = self.arena[self.at];
        self.at += 1;
        usize::from(v)
    }

    /// Replays one step: `dst[t] -= src · coef` at the target offsets
    /// its runs name, the source taken from the end of `upto` backwards —
    /// the body lists the runs last first, so no step needs to know where
    /// its source starts (GESSM's is the tail of `L(:, k)`). Each target
    /// entry takes one subtraction per step, so the order of the runs
    /// within a step moves no bit. A `coef` of zero is the runtime skip,
    /// read past in O(1): a step that is one one-entry run is that tagged
    /// element, any other leads with its element count.
    #[inline(always)]
    fn step<S: Scalar>(&mut self, dst: &mut [S], upto: &[S], coef: S) {
        let head = self.arena[self.at];
        if head & SINGLE != 0 {
            self.at += 1;
            if coef != S::ZERO {
                dst[usize::from(head & !SINGLE)] -= upto[upto.len() - 1] * coef;
            }
            return;
        }
        let (mut at, end) = (self.at + 1, self.at + 1 + usize::from(head));
        self.at = end;
        if coef == S::ZERO {
            return;
        }
        let mut s = upto.len();
        while at < end {
            let v = self.arena[at];
            if v & SINGLE != 0 {
                s -= 1;
                dst[usize::from(v & !SINGLE)] -= upto[s] * coef;
                at += 1;
            } else {
                let (t0, len) = (usize::from(v), usize::from(self.arena[at + 1]));
                s -= len;
                axpy(&mut dst[t0..t0 + len], &upto[s..s + len], coef);
                at += 2;
            }
        }
    }
}

/// One run's update `dst -= src · coef`, element by element in ascending
/// order: the per-entry walk's arithmetic.
#[inline(always)]
fn axpy<S: Scalar>(dst: &mut [S], src: &[S], coef: S) {
    for (d, &v) in dst.iter_mut().zip(src) {
        *d -= v * coef;
    }
}

/// Planned `C ← C − A·B`: pure indexed arithmetic, bitwise identical to
/// [`crate::ssssm::ssssm`] with `C_V1`.
pub fn ssssm_planned<S: Scalar>(
    a: &CscMatrix<S>,
    b: &CscMatrix<S>,
    c: &mut CscMatrix<S>,
    plan: &Plan,
    arena: &[u16],
) {
    let mut cur = Cursor::new(plan, arena);
    let (a_ptr, avals) = (a.col_ptr(), a.values());
    let (b_ptr, b_rows, bvals) = (b.col_ptr(), b.row_idx(), b.values());
    let (c_ptr, _, cvals) = c.parts_mut();
    for _ in 0..cur.next() {
        let j = cur.next();
        let col = &mut cvals[c_ptr[j]..c_ptr[j + 1]];
        let (blo, bhi) = (b_ptr[j], b_ptr[j + 1]);
        for (&k, &bkj) in b_rows[blo..bhi].iter().zip(&bvals[blo..bhi]) {
            // A step per B(k, j) whose A(:, k) has entries.
            if a_ptr[k] < a_ptr[k + 1] {
                cur.step(col, &avals[..a_ptr[k + 1]], bkj);
            }
        }
    }
}

/// Planned `L X = B`: bitwise identical to [`crate::trsm::gessm`] with
/// `C_V1`.
pub fn gessm_planned<S: Scalar>(
    diag_lu: &CscMatrix<S>,
    b: &mut CscMatrix<S>,
    plan: &Plan,
    arena: &[u16],
) {
    let mut cur = Cursor::new(plan, arena);
    let (l_ptr, lvals) = (diag_lu.col_ptr(), diag_lu.values());
    let (b_ptr, b_rows, bvals) = b.parts_mut();
    for _ in 0..cur.next() {
        let c = cur.next();
        let (blo, bhi) = (b_ptr[c], b_ptr[c + 1]);
        let mut p = blo;
        for _ in 0..cur.next() {
            p += cur.next();
            // The source, L(:, k) below the diagonal, ends its column.
            let xk = bvals[p];
            cur.step(&mut bvals[blo..bhi], &lvals[..l_ptr[b_rows[p] + 1]], xk);
            p += 1;
        }
    }
}

/// Planned `X U = B`: bitwise identical to [`crate::trsm::tstrf`] with
/// `C_V1`.
pub fn tstrf_planned<S: Scalar>(
    diag_lu: &CscMatrix<S>,
    b: &mut CscMatrix<S>,
    plan: &Plan,
    arena: &[u16],
) {
    let mut cur = Cursor::new(plan, arena);
    let (d_ptr, d_rows, dvals) = (diag_lu.col_ptr(), diag_lu.row_idx(), diag_lu.values());
    let (b_ptr, _, bvals) = b.parts_mut();
    for _ in 0..cur.next() {
        let j = cur.next();
        let (jlo, jhi) = (b_ptr[j], b_ptr[j + 1]);
        // The source columns k precede column j in CSC order, so they
        // lie wholly left of the split.
        let (left, right) = bvals.split_at_mut(jlo);
        let col = &mut right[..jhi - jlo];
        // U(:, j) above its diagonal, which the build found present.
        let mut q = d_ptr[j];
        while d_rows[q] < j {
            // A step per U(k, j) whose X(:, k) has entries.
            let k = d_rows[q];
            if b_ptr[k] < b_ptr[k + 1] {
                cur.step(col, &left[..b_ptr[k + 1]], dvals[q]);
            }
            q += 1;
        }
        let ujj = dvals[q];
        for v in col {
            *v /= ujj;
        }
    }
}

/// Planned GETRF: bitwise identical to [`crate::getrf::getrf`] with
/// `C_V1`. Returns the perturbed-pivot count. `scratch` keeps where each
/// column's part below the diagonal starts as the replay passes it,
/// which is where later columns' sources start.
pub fn getrf_planned<S: Scalar>(
    a: &mut CscMatrix<S>,
    plan: &Plan,
    arena: &[u16],
    scratch: &mut KernelScratch<S>,
    pivot_floor: f64,
) -> usize {
    let mut cur = Cursor::new(plan, arena);
    let mut perturbed = 0usize;
    let splits = &mut scratch.splits;
    splits.clear();
    let (col_ptr, row_idx, values) = a.parts_mut();
    for j in 0..col_ptr.len() - 1 {
        let lo = col_ptr[j];
        let diag = cur.next();
        let (left, right) = values.split_at_mut(lo);
        let vals_j = &mut right[..col_ptr[j + 1] - lo];
        for (u, &k) in row_idx[lo..lo + diag].iter().enumerate() {
            // A step per U(k, j) whose column k has entries below its
            // diagonal.
            let end = col_ptr[k + 1];
            if col_ptr[k] + splits[k] < end {
                let ukj = vals_j[u];
                cur.step(vals_j, &left[..end], ukj);
            }
        }
        splits.push(diag + 1);
        let mut pivot = vals_j[diag];
        perturbed += apply_floor(&mut pivot, pivot_floor);
        vals_j[diag] = pivot;
        for v in &mut vals_j[diag + 1..] {
            *v /= pivot;
        }
    }
    perturbed
}

/// Plan-layer accounting, all derived from deterministic quantities
/// except `build_ns` (a wall clock, zeroed by the metrics projection).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Bytes the pool holds: its arena and its slot tables (allocated at
    /// their exact size, so lengths and capacities agree).
    pub bytes: u64,
    /// Cumulative wall time spent building plans, in nanoseconds.
    pub build_ns: u64,
    /// Number of per-task plans built so far.
    pub builds: u64,
}

/// How one task's kernel runs — the answer of the single
/// planned-or-variant decision (see the module docs): replay the task's
/// plan, or run the variant the Figure 8 tree picks.
#[derive(Debug, Clone, Copy)]
pub enum Route<'p, V> {
    /// Replay this plan against the pool's arena.
    Plan(&'p Plan, &'p [u16]),
    /// Run the selector's leaf: the dense-tile lane or the decision
    /// tree's variant.
    Variant(V),
}

/// One task [`KernelPlans::build`] may plan: its slot and the blocks its
/// kernel reads and writes. Slot keys are the caller's: GETRF by diagonal
/// index, GESSM/TSTRF by target block id, SSSSM by task-graph update
/// index.
#[derive(Debug, Clone, Copy)]
pub enum PlanTask<'a, S: Scalar> {
    /// Factor diagonal block `a`.
    Getrf { slot: usize, a: &'a CscMatrix<S> },
    /// Solve `L X = B` on block `b`.
    Gessm { slot: usize, diag_lu: &'a CscMatrix<S>, b: &'a CscMatrix<S> },
    /// Solve `X U = B` on block `b`.
    Tstrf { slot: usize, diag_lu: &'a CscMatrix<S>, b: &'a CscMatrix<S> },
    /// Update `C ← C − A·B` of `flops` model FLOPs.
    Ssssm { slot: usize, flops: f64, a: &'a CscMatrix<S>, b: &'a CscMatrix<S>, c: &'a CscMatrix<S> },
}

/// One class's slot table, allocated at its full length by the class's
/// first plan.
#[derive(Debug, Default)]
struct Slots {
    len: usize,
    plans: Vec<Plan>,
}

impl Slots {
    fn get(&self, slot: usize) -> Option<&Plan> {
        self.plans.get(slot).filter(|p| p.is_built())
    }

    fn set(&mut self, slot: usize, plan: Plan) {
        if self.plans.is_empty() {
            self.plans = vec![Plan::NONE; self.len];
        }
        self.plans[slot] = plan;
    }
}

/// A solver's (or a distributed workspace's) pool of kernel plans: one
/// `u16` arena plus one slot table per class.
///
/// [`KernelPlans::build`] fills the slots of the tasks whose gates admit
/// a plan, before any task runs; the `route_*` methods then decide
/// planned-or-variant for one task without writing the pool (so workers
/// read it without locks), falling back to the variant when no plan was
/// built. The pool also records whether it has served a run
/// ([`KernelPlans::serve_run`]), which is how an executor leaves a
/// pool's first run plan-free.
#[derive(Debug)]
pub struct KernelPlans<S: Scalar = f64> {
    arena: Vec<u16>,
    getrf: Slots,
    gessm: Slots,
    tstrf: Slots,
    ssssm: Slots,
    builds: u64,
    build_ns: u64,
    served: bool,
    scalar: PhantomData<fn() -> S>,
}

impl<S: Scalar> Default for KernelPlans<S> {
    fn default() -> Self {
        Self::with_slots(0, 0, 0, 0)
    }
}

impl<S: Scalar> KernelPlans<S> {
    /// Creates an empty pool with the given slot counts per class; it
    /// allocates nothing until a plan is built.
    pub fn with_slots(getrf: usize, gessm: usize, tstrf: usize, ssssm: usize) -> Self {
        let slots = |len| Slots { len, plans: Vec::new() };
        KernelPlans {
            arena: Vec::new(),
            getrf: slots(getrf),
            gessm: slots(gessm),
            tstrf: slots(tstrf),
            ssssm: slots(ssssm),
            builds: 0,
            build_ns: 0,
            served: false,
            scalar: PhantomData,
        }
    }

    /// Records that a run is about to read this pool and returns whether
    /// an earlier run did. [`KernelPlans::build`] does not consult it.
    pub fn serve_run(&mut self) -> bool {
        std::mem::replace(&mut self.served, true)
    }

    /// Never on a full block: it takes the dense-tile lane, as an update
    /// onto a full target does (see [`KernelPlans::plans_ssssm`]).
    fn plans_getrf(sel: &KernelSelector, a: &CscMatrix<S>) -> bool {
        sel.planned_getrf(a.nnz()) && !is_full(a)
    }

    fn plans_gessm(sel: &KernelSelector, b: &CscMatrix<S>) -> bool {
        sel.planned_gessm(b.nnz())
    }

    fn plans_tstrf(sel: &KernelSelector, b: &CscMatrix<S>) -> bool {
        sel.planned_tstrf(b.nnz())
    }

    /// Never on a full target: there the position of row `r` in column
    /// `j` is `j·m + r`, so a plan's run lists resolve nothing, yet they
    /// were the bulk of plan memory. Such an update takes the selector's
    /// leaf — the tile, or `C_V1` updating the full columns in place.
    fn plans_ssssm(sel: &KernelSelector, flops: f64, c: &CscMatrix<S>) -> bool {
        sel.planned_ssssm(flops) && !is_full(c)
    }

    /// Whether `task` still needs a plan: its slot is empty and the
    /// selector's gate admits one.
    fn wants(&self, sel: &KernelSelector, task: &PlanTask<'_, S>) -> bool {
        match *task {
            PlanTask::Getrf { slot, a } => {
                self.getrf.get(slot).is_none() && Self::plans_getrf(sel, a)
            }
            PlanTask::Gessm { slot, b, .. } => {
                self.gessm.get(slot).is_none() && Self::plans_gessm(sel, b)
            }
            PlanTask::Tstrf { slot, b, .. } => {
                self.tstrf.get(slot).is_none() && Self::plans_tstrf(sel, b)
            }
            PlanTask::Ssssm { slot, flops, c, .. } => {
                self.ssssm.get(slot).is_none() && Self::plans_ssssm(sel, flops, c)
            }
        }
    }

    /// Builds the plan of every task `tasks` names whose slot is empty
    /// and whose gate admits one. `tasks` hands each task to the sink it
    /// is given and is called twice when something is to be built: a
    /// counting pass sizes the arena, then the arena is reserved at its
    /// exact length and the plans are written. A call that finds nothing
    /// to build costs one pass over `tasks` and leaves the build clock
    /// alone.
    pub fn build(&mut self, sel: &KernelSelector, tasks: impl Fn(&mut dyn FnMut(PlanTask<'_, S>))) {
        let start = Instant::now();
        let mut count = Count(self.arena.len());
        let (mut new, mut splits) = (0usize, Vec::new());
        tasks(&mut |t| {
            if self.wants(sel, &t) && write_plan(&t, &mut count, &mut splits).is_some() {
                new += 1;
            }
        });
        if new == 0 {
            return;
        }
        self.arena.reserve_exact(count.0 - self.arena.len());
        tasks(&mut |t| {
            if !self.wants(sel, &t) {
                return;
            }
            if let Some(plan) = write_plan(&t, &mut self.arena, &mut splits) {
                let (table, slot) = match t {
                    PlanTask::Getrf { slot, .. } => (&mut self.getrf, slot),
                    PlanTask::Gessm { slot, .. } => (&mut self.gessm, slot),
                    PlanTask::Tstrf { slot, .. } => (&mut self.tstrf, slot),
                    PlanTask::Ssssm { slot, .. } => (&mut self.ssssm, slot),
                };
                table.set(slot, plan);
                self.builds += 1;
            }
        });
        debug_assert_eq!(self.arena.len(), count.0, "the counting pass sized the arena");
        self.build_ns = self
            .build_ns
            .saturating_add(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }

    /// Routes the GETRF of diagonal block `a`: its plan if one was built,
    /// else the selector's leaf (the dense-tile lane for a full block).
    pub fn route_getrf(
        &self,
        sel: &KernelSelector,
        slot: usize,
        a: &CscMatrix<S>,
    ) -> Route<'_, GetrfVariant> {
        match self.getrf.get(slot) {
            Some(p) if Self::plans_getrf(sel, a) => Route::Plan(p, &self.arena),
            _ => Route::Variant(sel.getrf_on(a)),
        }
    }

    /// Routes the GESSM `L X = B` of `flops` model FLOPs on block `b`, as
    /// [`KernelPlans::route_getrf`].
    pub fn route_gessm(
        &self,
        sel: &KernelSelector,
        slot: usize,
        flops: f64,
        diag_lu: &CscMatrix<S>,
        b: &CscMatrix<S>,
    ) -> Route<'_, TrsmVariant> {
        match self.gessm.get(slot) {
            Some(p) if Self::plans_gessm(sel, b) => Route::Plan(p, &self.arena),
            _ => Route::Variant(sel.gessm_on(flops, diag_lu, b)),
        }
    }

    /// Routes the TSTRF `X U = B` of `flops` model FLOPs on block `b`, as
    /// [`KernelPlans::route_getrf`].
    pub fn route_tstrf(
        &self,
        sel: &KernelSelector,
        slot: usize,
        flops: f64,
        diag_lu: &CscMatrix<S>,
        b: &CscMatrix<S>,
    ) -> Route<'_, TrsmVariant> {
        match self.tstrf.get(slot) {
            Some(p) if Self::plans_tstrf(sel, b) => Route::Plan(p, &self.arena),
            _ => Route::Variant(sel.tstrf_on(flops, diag_lu, b)),
        }
    }

    /// Routes the SSSSM `C ← C − A·B` of `flops` model FLOPs, as
    /// [`KernelPlans::route_getrf`].
    pub fn route_ssssm(
        &self,
        sel: &KernelSelector,
        slot: usize,
        flops: f64,
        a: &CscMatrix<S>,
        c: &CscMatrix<S>,
    ) -> Route<'_, SsssmVariant> {
        match self.ssssm.get(slot) {
            Some(p) if Self::plans_ssssm(sel, flops, c) => Route::Plan(p, &self.arena),
            _ => Route::Variant(sel.ssssm_on(flops, a, c)),
        }
    }

    /// Current plan-layer accounting.
    pub fn stats(&self) -> PlanStats {
        let tables = [&self.getrf, &self.gessm, &self.tstrf, &self.ssssm];
        let bytes = std::mem::size_of_val(self.arena.as_slice())
            + tables.iter().map(|t| std::mem::size_of_val(t.plans.as_slice())).sum::<usize>();
        PlanStats { bytes: bytes as u64, build_ns: self.build_ns, builds: self.builds }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::getrf::getrf;
    use crate::ssssm::ssssm;
    use crate::trsm::{gessm, tstrf};
    use crate::{KernelScratch, Thresholds};
    use pangulu_sparse::gen;
    use pangulu_sparse::ops::ensure_diagonal;
    use pangulu_symbolic::symbolic_fill;

    /// Factored diagonal + solved panels + raw trailing block from a
    /// closed 2x2-block fill pattern (the same fixture the kernel tests
    /// use).
    fn setup(seed: u64) -> (CscMatrix, CscMatrix, CscMatrix, CscMatrix) {
        let nb = 16;
        let a = ensure_diagonal(&gen::random_sparse(2 * nb, 0.2, seed)).unwrap();
        let f = symbolic_fill(&a).unwrap();
        let filled = f.filled_matrix(&a).unwrap();
        let diag = filled.sub_matrix(0..nb, 0..nb);
        let upper = filled.sub_matrix(0..nb, nb..2 * nb);
        let lower = filled.sub_matrix(nb..2 * nb, 0..nb);
        let tail = filled.sub_matrix(nb..2 * nb, nb..2 * nb);
        (diag, upper, lower, tail)
    }

    #[test]
    fn planned_getrf_is_bitwise_cv1() {
        for seed in 0..4 {
            let (diag, ..) = setup(seed);
            let mut arena = Vec::new();
            let plan = build_getrf_plan(&diag, &mut arena).unwrap();
            assert!(plan.searches_avoided > 0);

            let mut unplanned = diag.clone();
            let mut s = KernelScratch::with_capacity(unplanned.nrows());
            let p0 = getrf(&mut unplanned, GetrfVariant::CV1, &mut s, 0.0);
            let mut planned = diag.clone();
            let p1 = getrf_planned(&mut planned, &plan, &arena, &mut s, 0.0);
            assert_eq!(p0, p1);
            assert_eq!(unplanned.values(), planned.values(), "seed {seed}: GETRF drifted");
        }
    }

    #[test]
    fn planned_trsm_is_bitwise_cv1() {
        for seed in 0..4 {
            let (diag, upper, lower, _) = setup(seed);
            let mut lu = diag.clone();
            let mut s = KernelScratch::with_capacity(lu.nrows());
            getrf(&mut lu, GetrfVariant::CV1, &mut s, 0.0);

            let mut arena = Vec::new();
            let gplan = build_gessm_plan(&lu, &upper, &mut arena).unwrap();
            let tplan = build_tstrf_plan(&lu, &lower, &mut arena).unwrap();
            assert!(gplan.searches_avoided > 0);
            assert!(tplan.searches_avoided > 0);

            let mut u0 = upper.clone();
            gessm(&lu, &mut u0, TrsmVariant::CV1, &mut s);
            let mut u1 = upper.clone();
            gessm_planned(&lu, &mut u1, &gplan, &arena);
            assert_eq!(u0.values(), u1.values(), "seed {seed}: GESSM drifted");

            let mut l0 = lower.clone();
            tstrf(&lu, &mut l0, TrsmVariant::CV1, &mut s);
            let mut l1 = lower.clone();
            tstrf_planned(&lu, &mut l1, &tplan, &arena);
            assert_eq!(l0.values(), l1.values(), "seed {seed}: TSTRF drifted");
        }
    }

    #[test]
    fn planned_ssssm_is_bitwise_cv1() {
        for seed in 0..4 {
            let (diag, upper, lower, tail) = setup(seed);
            let mut lu = diag.clone();
            let mut s = KernelScratch::with_capacity(lu.nrows());
            getrf(&mut lu, GetrfVariant::CV1, &mut s, 0.0);
            let mut u = upper.clone();
            gessm(&lu, &mut u, TrsmVariant::CV1, &mut s);
            let mut l = lower.clone();
            tstrf(&lu, &mut l, TrsmVariant::CV1, &mut s);

            let mut arena = Vec::new();
            let plan = build_ssssm_plan(&l, &u, &tail, &mut arena).unwrap();
            assert!(plan.searches_avoided > 0);

            let mut c0 = tail.clone();
            ssssm(&l, &u, &mut c0, SsssmVariant::CV1, &mut s);
            let mut c1 = tail.clone();
            ssssm_planned(&l, &u, &mut c1, &plan, &arena);
            assert_eq!(c0.values(), c1.values(), "seed {seed}: SSSSM drifted");
        }
    }

    /// Every class's plan in one arena: its element count is what the
    /// counting pass predicts, and no element exceeds its block's rows
    /// once a one-entry run's tag bit is cleared.
    #[test]
    fn counting_pass_sizes_the_arena_exactly() {
        let (diag, upper, lower, tail) = setup(1);
        let mut arena = Vec::new();
        let mut count = Count(0);
        let tasks = [
            PlanTask::Getrf { slot: 0, a: &diag },
            PlanTask::Gessm { slot: 0, diag_lu: &diag, b: &upper },
            PlanTask::Tstrf { slot: 0, diag_lu: &diag, b: &lower },
            PlanTask::Ssssm { slot: 0, flops: 0.0, a: &lower, b: &upper, c: &tail },
        ];
        let mut splits = Vec::new();
        for t in &tasks {
            let counted = write_plan(t, &mut count, &mut splits).unwrap();
            let written = write_plan(t, &mut arena, &mut splits).unwrap();
            assert_eq!(counted, written);
            assert_eq!(arena.len(), count.0);
        }
        assert!(arena.iter().any(|&v| v & SINGLE != 0), "the fixture has one-entry runs");
        assert!(arena.iter().all(|&v| usize::from(v & !SINGLE) <= 16));
    }

    #[test]
    fn pool_builds_once_and_reuses() {
        let (diag, upper, ..) = setup(3);
        let mut lu = diag.clone();
        let mut s = KernelScratch::with_capacity(lu.nrows());
        getrf(&mut lu, GetrfVariant::CV1, &mut s, 0.0);

        let sel = KernelSelector::new(1_000, Thresholds::default());
        let mut pool = KernelPlans::with_slots(1, 1, 0, 0);
        assert_eq!(pool.stats(), PlanStats::default(), "an empty pool holds nothing");
        assert!(matches!(pool.route_getrf(&sel, 0, &diag), Route::Variant(_)));

        let tasks = |add: &mut dyn FnMut(PlanTask<'_, f64>)| {
            add(PlanTask::Getrf { slot: 0, a: &diag });
            add(PlanTask::Gessm { slot: 0, diag_lu: &lu, b: &upper });
        };
        pool.build(&sel, tasks);
        let stats = pool.stats();
        assert_eq!(stats.builds, 2);
        assert!(stats.bytes > 0);

        // Building filled slots again is a no-op, on the build clock too.
        pool.build(&sel, tasks);
        assert_eq!(pool.stats(), stats);
        assert!(matches!(pool.route_getrf(&sel, 0, &diag), Route::Plan(..)));
        let fl = crate::flops::gessm_flops(&lu, &upper);
        assert!(matches!(pool.route_gessm(&sel, 0, fl, &lu, &upper), Route::Plan(..)));
    }

    #[test]
    fn closed_gates_route_to_the_tree_variant_and_build_nothing() {
        let (diag, upper, lower, tail) = setup(3);
        let mut pool = KernelPlans::with_slots(1, 1, 1, 1);
        // A pool filled under open gates still answers a gate-closed
        // selector with the tree's variant: the selector decides per call.
        let open = KernelSelector::new(1_000, Thresholds::default());
        pool.build(&open, |add| add(PlanTask::Getrf { slot: 0, a: &diag }));
        let stats = pool.stats();
        for sel in [KernelSelector::new(1_000, Thresholds::unplanned()), KernelSelector::baseline()]
        {
            pool.build(&sel, |add| {
                add(PlanTask::Gessm { slot: 0, diag_lu: &diag, b: &upper });
                add(PlanTask::Tstrf { slot: 0, diag_lu: &diag, b: &lower });
                add(PlanTask::Ssssm { slot: 0, flops: 10.0, a: &lower, b: &upper, c: &tail });
            });
            assert!(matches!(pool.route_getrf(&sel, 0, &diag), Route::Variant(_)));
            assert!(matches!(pool.route_gessm(&sel, 0, 0.0, &diag, &upper), Route::Variant(_)));
            assert!(matches!(pool.route_tstrf(&sel, 0, 0.0, &diag, &lower), Route::Variant(_)));
            assert!(matches!(pool.route_ssssm(&sel, 0, 10.0, &lower, &tail), Route::Variant(_)));
        }
        assert_eq!(pool.stats(), stats);
    }

    /// Panel precedence is plan, then tile, then tree: a full block small
    /// enough for its planned gate still replays its plan; past the gate
    /// it takes the dense-tile lane, filled blocks with a hole too; a
    /// panel under the fill cut falls to the tree.
    /// SSSSM asks the target first: a full target never has a plan, under
    /// any gate — it takes the tile, or `C_V1` (in place) below the fill
    /// cut; only a target with a hole goes plan, then tree.
    #[test]
    fn full_blocks_route_plan_then_tile_then_tree() {
        let dense = |n: usize| crate::tile::dense_block(n, n, 0);
        let sel = KernelSelector::new(1_000, Thresholds::default());
        let mut pool = KernelPlans::<f64>::with_slots(0, 2, 2, 3);

        let small = dense(8); // 64 nnz, 1 024 FLOPs: under every planned gate
        pool.build(&sel, |add| {
            add(PlanTask::Gessm { slot: 0, diag_lu: &small, b: &small });
            add(PlanTask::Tstrf { slot: 0, diag_lu: &small, b: &small });
        });
        assert!(matches!(pool.route_gessm(&sel, 0, 448.0, &small, &small), Route::Plan(..)));
        assert!(matches!(pool.route_tstrf(&sel, 0, 512.0, &small, &small), Route::Plan(..)));
        let builds = pool.stats().builds;
        // A diagonal `A`: 128 of the padded 1 024 FLOPs, under the fill cut.
        let thin = small.filter_entries(|i, j| i == j);
        pool.build(&sel, |add| {
            add(PlanTask::Ssssm { slot: 0, flops: 1024.0, a: &small, b: &small, c: &small });
            add(PlanTask::Ssssm { slot: 1, flops: 128.0, a: &thin, b: &small, c: &small });
        });
        let routed = pool.route_ssssm(&sel, 0, 1024.0, &small, &small);
        assert!(matches!(routed, Route::Variant(SsssmVariant::DV1)));
        let routed = pool.route_ssssm(&sel, 1, 128.0, &thin, &small);
        assert!(matches!(routed, Route::Variant(SsssmVariant::CV1)));
        assert_eq!(pool.stats().builds, builds, "a full target builds no plan");
        let holed = small.filter_entries(|i, j| (i, j) != (7, 3));
        pool.build(&sel, |add| {
            add(PlanTask::Ssssm { slot: 2, flops: 126.0, a: &thin, b: &holed, c: &holed });
        });
        assert!(matches!(pool.route_ssssm(&sel, 2, 126.0, &thin, &holed), Route::Plan(..)));

        let big = dense(40); // 1 600 nnz, 128 000 FLOPs: past the gates
        let builds = pool.stats().builds;
        let holed = big.filter_entries(|i, j| (i, j) != (7, 3));
        // Panels closed under the full factor: one entry short of full
        // (a column's top for GESSM, a row's first for TSTRF), and only
        // the last 4 rows, far under the fill cut.
        let (top_holed, left_holed) = (
            big.filter_entries(|i, j| (i, j) != (0, 3)),
            big.filter_entries(|i, j| (i, j) != (7, 0)),
        );
        let bottom = big.filter_entries(|i, _| i >= 36);
        pool.build(&sel, |add| {
            add(PlanTask::Gessm { slot: 1, diag_lu: &big, b: &big });
            add(PlanTask::Tstrf { slot: 1, diag_lu: &big, b: &big });
            add(PlanTask::Ssssm { slot: 1, flops: 128_000.0, a: &big, b: &big, c: &big });
            add(PlanTask::Gessm { slot: 1, diag_lu: &big, b: &holed });
            add(PlanTask::Ssssm { slot: 1, flops: 127_920.0, a: &big, b: &big, c: &holed });
        });
        assert_eq!(pool.stats().builds, builds, "nothing past the gates is planned");
        let gessm = |diag: &CscMatrix, b: &CscMatrix| {
            pool.route_gessm(&sel, 1, crate::flops::gessm_flops(diag, b), diag, b)
        };
        let tstrf = |diag: &CscMatrix, b: &CscMatrix| {
            pool.route_tstrf(&sel, 1, crate::flops::tstrf_flops(diag, b), diag, b)
        };
        assert!(matches!(gessm(&big, &big), Route::Variant(TrsmVariant::DV1)));
        assert!(matches!(tstrf(&big, &big), Route::Variant(TrsmVariant::DV1)));
        assert!(matches!(
            pool.route_ssssm(&sel, 1, 128_000.0, &big, &big),
            Route::Variant(SsssmVariant::DV1)
        ));
        // Filled but not full, either block: expanded onto the lane.
        assert!(matches!(gessm(&big, &top_holed), Route::Variant(TrsmVariant::DV1)));
        assert!(matches!(gessm(&holed, &big), Route::Variant(TrsmVariant::DV1)));
        assert!(matches!(tstrf(&big, &left_holed), Route::Variant(TrsmVariant::DV1)));
        // Under the fill cut: the tree.
        assert!(matches!(gessm(&big, &bottom), Route::Variant(TrsmVariant::CV2)));
        assert!(matches!(tstrf(&big, &bottom), Route::Variant(TrsmVariant::CV2)));
        assert!(matches!(
            pool.route_ssssm(&sel, 1, 127_920.0, &big, &holed),
            Route::Variant(SsssmVariant::CV1)
        ));
    }

    /// A full diagonal block never has a GETRF plan — under any gate it
    /// takes the dense-tile lane — while the same block with one hole is
    /// planned; both routes give `C_V1`'s bits and pivot count.
    #[test]
    fn full_diagonal_blocks_get_no_getrf_plan() {
        let sel = KernelSelector::new(1_000, Thresholds::default());
        let full = crate::tile::dense_block(9, 9, 0);
        // L(8, 0) is the one entry no update of a left-looking LU reaches.
        let holed = full.filter_entries(|i, j| (i, j) != (8, 0));
        let mut pool = KernelPlans::<f64>::with_slots(2, 0, 0, 0);
        pool.build(&sel, |add| {
            add(PlanTask::Getrf { slot: 0, a: &full });
            add(PlanTask::Getrf { slot: 1, a: &holed });
        });
        assert_eq!(pool.stats().builds, 1, "only the block with a hole is planned");
        let routes = [pool.route_getrf(&sel, 0, &full), pool.route_getrf(&sel, 1, &holed)];
        assert!(matches!(routes[0], Route::Variant(GetrfVariant::DV1)));
        assert!(matches!(routes[1], Route::Plan(..)));
        let mut s = KernelScratch::default();
        for (route, block) in routes.into_iter().zip([&full, &holed]) {
            let (mut want, mut got) = (block.clone(), block.clone());
            let p0 = getrf(&mut want, GetrfVariant::CV1, &mut s, 0.5);
            let p1 = crate::TimedKernels::new(false).getrf(route, &mut got, &mut s, 0.5, 0.0);
            assert_eq!((p0, want.values()), (p1, got.values()));
        }
    }

    /// `plan_bytes` is what the pool holds, not a bound on it: the arena
    /// is reserved at the length the counting pass found, and each class's
    /// slot table is allocated at its slot count by its first plan — a
    /// class with no plan holds none.
    #[test]
    fn pool_holds_exactly_what_it_reports() {
        let (diag, upper, lower, _) = setup(2);
        // The fixture's tail fills in completely, and a full target has no
        // plan: update a block with a hole instead (diagonal × holed).
        let holed = crate::tile::dense_block(8, 8, 0).filter_entries(|i, j| (i, j) != (7, 3));
        let thin = holed.filter_entries(|i, j| i == j);
        let sel = KernelSelector::new(1_000, Thresholds::default());
        let mut pool = KernelPlans::<f64>::with_slots(3, 2, 2, 5);
        pool.build(&sel, |add| {
            add(PlanTask::Getrf { slot: 1, a: &diag });
            add(PlanTask::Gessm { slot: 0, diag_lu: &diag, b: &upper });
            add(PlanTask::Tstrf { slot: 1, diag_lu: &diag, b: &lower });
            add(PlanTask::Ssssm { slot: 4, flops: 126.0, a: &thin, b: &holed, c: &holed });
        });
        assert_eq!(pool.stats().builds, 4);
        let exact = |v: &Vec<_>, len| v.len() == len && v.capacity() == len;
        assert!(!pool.arena.is_empty() && pool.arena.capacity() == pool.arena.len());
        assert!(exact(&pool.getrf.plans, 3) && exact(&pool.gessm.plans, 2));
        assert!(exact(&pool.tstrf.plans, 2) && exact(&pool.ssssm.plans, 5));
        let slot = std::mem::size_of::<Plan>();
        assert_eq!(slot, 16);
        assert_eq!(pool.stats().bytes as usize, 2 * pool.arena.len() + 12 * slot);

        let mut getrf_only = KernelPlans::<f64>::with_slots(3, 2, 2, 5);
        getrf_only.build(&sel, |add| add(PlanTask::Getrf { slot: 1, a: &diag }));
        let arena = getrf_only.arena.len();
        assert_eq!(getrf_only.stats().bytes as usize, 2 * arena + 3 * slot);
    }

    #[test]
    fn empty_blocks_yield_empty_plans() {
        let e = CscMatrix::<f64>::zeros(8, 8);
        let mut arena = Vec::new();
        let sp = build_ssssm_plan(&e, &e, &e, &mut arena).unwrap();
        let gp = build_gessm_plan(&e, &e, &mut arena).unwrap();
        let tp = build_tstrf_plan(&e, &e, &mut arena).unwrap();
        for p in [sp, gp, tp] {
            assert_eq!((p.searches_avoided, p.runs, p.run_entries), (0, 0, 0));
        }
        assert_eq!(arena, [0; 3], "each plan is its zero column count");

        let mut c = CscMatrix::zeros(8, 8);
        ssssm_planned(&e, &e, &mut c, &sp, &arena);
        let mut b = CscMatrix::zeros(8, 8);
        gessm_planned(&e, &mut b, &gp, &arena);
        tstrf_planned(&e, &mut b, &tp, &arena);
        assert_eq!(c.nnz(), 0);
    }
}
