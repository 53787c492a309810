//! `pangulu-metrics` — the per-rank structured metrics layer of the
//! PanguLU reproduction.
//!
//! The paper's evaluation hinges on per-rank accounting: synchronisation
//! wait versus compute time (Fig. 13), kernel time by variant
//! (Figs. 7/8), and communication volume. This crate is the substrate
//! every layer records into:
//!
//! * `pangulu-comm` fills a [`CommMetrics`] per mailbox — message counts
//!   and bytes per edge, receive timeouts and the deepest observed
//!   mailbox queue;
//! * `pangulu-kernels` fills a [`KernelTally`] — invocation counts,
//!   elapsed time and model FLOPs per kernel variant
//!   (GETRF/GESSM/TSTRF/SSSSM × C/G versions); the model FLOPs are the
//!   task graph's analysis-time counts, handed in per call;
//! * `pangulu-core` assembles one [`RankMetrics`] per rank (sync-wait vs
//!   compute breakdown, tasks executed by kind, stall diagnostics) and
//!   aggregates them into the serialisable [`RunReport`] that
//!   `factor_distributed_checked` returns alongside the factors.
//!
//! **Determinism contract.** For a fixed matrix, grid, owner map and
//! fault plan, the *work* counters — messages/bytes per edge, tasks by
//! kind, kernel invocations and variants, model FLOPs, perturbed pivots —
//! are run-to-run identical.
//! Wall-clock durations are not, and neither are the scheduling-dependent
//! observables (how often a rank blocked, receive timeouts, the deepest
//! queue moment): they depend on thread interleaving. [`RunReport::without_timings`] zeroes exactly those
//! non-deterministic fields, and the metrics-determinism test in
//! `tests/metrics.rs` holds the runtime to equality under it.
//!
//! **Cost contract.** Recording is plain counter arithmetic on rank-local
//! structs (no atomics, no locks, no allocation per event). An enabled
//! kernel meter costs two clock reads and one tally add per task: no
//! layer re-derives a FLOP count while running. A layer constructed with
//! metrics disabled skips even that. No gate times the disabled meter;
//! `tests/metrics.rs` proves metered and unmetered runs give the same
//! factor bits, and the benchmark's `dist.meter_overhead` (meter on /
//! off) reports what the enabled meter costs, 0.81–1.02 on the 2-rank
//! `refactor.circuit.r2` (docs/PERFORMANCE.md "The kernel meter").
//!
//! The JSON schema produced by [`RunReport::to_json`] is documented in
//! `docs/OBSERVABILITY.md`.

pub mod json;

use json::Json;

/// Kernel class labels, indexed by [`KernelTally`] class slot.
pub const CLASS_LABELS: [&str; 4] = ["GETRF", "GESSM", "TSTRF", "SSSSM"];

/// Kernel variant labels, indexed by [`KernelTally`] variant slot
/// (Table 1's naming: CPU versions then the "GPU" versions,
/// plus the analysis-time planned variant `P_V1` — see
/// `docs/KERNEL_PLANS.md` — and the dense-tile lane `D_V1` that
/// filled-in blocks take (`docs/ALGORITHM.md` §4)).
pub const VARIANT_LABELS: [&str; 7] = ["C_V1", "C_V2", "G_V1", "G_V2", "G_V3", "P_V1", "D_V1"];

/// Variant slot of the planned (precomputed index map) kernels.
pub const VARIANT_PLANNED: usize = 5;

/// Variant slot of the dense-tile lane (SSSSM / GESSM / TSTRF only).
pub const VARIANT_TILE: usize = 6;

/// Class slot of GETRF entries.
pub const CLASS_GETRF: usize = 0;
/// Class slot of GESSM entries.
pub const CLASS_GESSM: usize = 1;
/// Class slot of TSTRF entries.
pub const CLASS_TSTRF: usize = 2;
/// Class slot of SSSSM entries.
pub const CLASS_SSSSM: usize = 3;

/// One kernel variant's accumulated invocations.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelSlot {
    /// Invocations.
    pub calls: u64,
    /// Elapsed time across invocations, nanoseconds.
    pub nanos: u64,
    /// Model FLOPs of the executed invocations (the structural count of
    /// `pangulu_kernels::flops` evaluated on the actual operands).
    pub flops: f64,
}

/// Per-variant invocation tally: 4 kernel classes × up to 7 variants.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelTally {
    slots: [[KernelSlot; VARIANT_LABELS.len()]; 4],
}

impl KernelTally {
    /// Records one invocation. `class`/`variant` index
    /// [`CLASS_LABELS`] / [`VARIANT_LABELS`].
    #[inline]
    pub fn record(&mut self, class: usize, variant: usize, nanos: u64, flops: f64) {
        let slot = &mut self.slots[class][variant];
        slot.calls += 1;
        slot.nanos += nanos;
        slot.flops += flops;
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: &KernelTally) {
        for (c, row) in other.slots.iter().enumerate() {
            for (v, s) in row.iter().enumerate() {
                let slot = &mut self.slots[c][v];
                slot.calls += s.calls;
                slot.nanos += s.nanos;
                slot.flops += s.flops;
            }
        }
    }

    /// Non-empty entries as `(class_label, variant_label, slot)`.
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, &'static str, KernelSlot)> + '_ {
        self.slots.iter().enumerate().flat_map(|(c, row)| {
            row.iter()
                .enumerate()
                .filter(|(_, s)| s.calls > 0)
                .map(move |(v, s)| (CLASS_LABELS[c], VARIANT_LABELS[v], *s))
        })
    }

    /// Total invocations across every variant.
    pub fn total_calls(&self) -> u64 {
        self.slots.iter().flatten().map(|s| s.calls).sum()
    }

    /// Total elapsed nanoseconds across every variant.
    pub fn total_nanos(&self) -> u64 {
        self.slots.iter().flatten().map(|s| s.nanos).sum()
    }

    /// Total model FLOPs across every variant.
    pub fn total_flops(&self) -> f64 {
        self.slots.iter().flatten().map(|s| s.flops).sum()
    }

    /// Calls per class, indexed like [`CLASS_LABELS`].
    pub fn calls_by_class(&self) -> [u64; 4] {
        let mut out = [0u64; 4];
        for (c, row) in self.slots.iter().enumerate() {
            out[c] = row.iter().map(|s| s.calls).sum();
        }
        out
    }

    fn zero_timings(&mut self) {
        for s in self.slots.iter_mut().flatten() {
            s.nanos = 0;
        }
    }
}

/// Traffic on one send edge (this rank → `to`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeStat {
    /// Destination rank.
    pub to: usize,
    /// Messages sent on the edge (a fault plan's lost message included).
    pub msgs: u64,
    /// Payload bytes sent on the edge.
    pub bytes: u64,
}

/// One rank's communication accounting, filled by its mailbox.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommMetrics {
    /// Messages sent (a fault plan's lost message included).
    pub msgs_sent: u64,
    /// Payload bytes sent (a fault plan's lost message included).
    pub bytes_sent: u64,
    /// Blocking receives that timed out.
    pub recv_timeouts: u64,
    /// Deepest observed receive-queue depth (pending + held-back).
    pub max_queue_depth: u64,
    /// Per-destination traffic, ascending by rank; zero edges omitted.
    pub edges: Vec<EdgeStat>,
}

/// Hot-path memory accounting, filled by the distributed executor.
///
/// The copy/allocation-elimination work (Arc fan-out payloads, the
/// per-rank pattern cache, pooled receive buffers) is
/// only trustworthy if its effect is *visible*: these counters record
/// what the runtime actually materialised and memcpy'd on the hot path,
/// so the golden counts test (`tests/golden_counts.rs`) can pin copy
/// regressions exactly, like the other work counters.
///
/// All fields except [`MemStats::plan_build_ns`] are deterministic for a
/// fixed matrix, grid, owner map and fault plan (they derive from *which*
/// blocks are shipped and *which* tasks execute, not *when*).
/// `plan_build_ns` is a wall clock, zeroed by
/// [`RunReport::without_timings`] along with the other
/// scheduling-dependent observables.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Distinct payload buffers materialised for sending (one per
    /// finished block with at least one remote destination, regardless of
    /// fan-out width — the Arc payload is shared across edges).
    pub payload_allocs: u64,
    /// Bytes actually memcpy'd on the communication hot path: payload
    /// serialisations plus received values copied into remote blocks.
    /// The wire cost model (`CommMetrics` bytes) still charges per edge.
    pub bytes_copied: u64,
    /// Receives whose block already had its CSC structure cached on this
    /// rank, so only the values were swapped into the pooled buffer.
    pub pattern_cache_hits: u64,
    /// Kernel invocations that ran a planned (precomputed index map)
    /// variant instead of searching/scattering the pattern per call.
    pub planned_calls: u64,
    /// Index lookups (binary searches, merge-walk steps, dense
    /// scatter/gather slots) answered by a precomputed plan instead of
    /// being re-derived inside the kernel. Static per plan, so
    /// deterministic.
    pub index_searches_avoided: u64,
    /// Run segments executed by planned replay: each is one slice-level
    /// axpy over a contiguous stretch of a plan's index list (see the
    /// run-segment encoding in `docs/KERNEL_PLANS.md`). Static per plan,
    /// so deterministic.
    pub plan_runs: u64,
    /// Plan entries executed as slice-loop continuations beyond each run
    /// segment's head — the per-entry index steps the run encoding
    /// absorbed into vectorisable slice loops. Static per plan.
    pub run_axpy_entries: u64,
    /// Resident footprint of the kernel plan arenas on this rank, bytes.
    /// A gauge, not a rate: it stays flat across refactorisation reps
    /// once every executed task's plan has been built.
    pub plan_bytes: u64,
    /// Cumulative wall-clock time spent building kernel plans,
    /// nanoseconds. Timing — zeroed by [`RunReport::without_timings`].
    pub plan_build_ns: u64,
}

/// Pipeline-phase accounting: how many times each phase of the
/// five-phase pipeline actually ran over a solver's lifetime.
///
/// The analyze/factor split (see `docs/REFACTORISATION.md`) promises that
/// a numeric-only refactorisation re-runs *only* the numeric kernels and
/// reuses every pattern-dependent analysis product — the reordering, the
/// symbolic fill, the block layout and owner map, the per-rank schedule.
/// These counters make that promise checkable exactly, not by wall
/// clock: a first factorisation records one run of each phase; each
/// `refactor` adds one numeric run and one analysis reuse and nothing
/// else. `tests/golden_counts.rs` pins them with the other exact work
/// counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCounters {
    /// Reordering-phase executions (MC64 + fill-reducing permutation).
    pub reorder_runs: u64,
    /// Symbolic-factorisation executions.
    pub symbolic_runs: u64,
    /// Preprocess executions (blocking + owner map + balancing).
    pub preprocess_runs: u64,
    /// Numeric-factorisation executions (first factor and refactors).
    pub numeric_runs: u64,
    /// Numeric runs that reused a cached analysis instead of recomputing
    /// the reorder/symbolic/preprocess phases.
    pub analysis_reuses: u64,
}

impl PhaseCounters {
    /// The counters after one full first factorisation: every phase ran
    /// once, nothing was reused.
    pub fn first_factor() -> Self {
        PhaseCounters {
            reorder_runs: 1,
            symbolic_runs: 1,
            preprocess_runs: 1,
            numeric_runs: 1,
            analysis_reuses: 0,
        }
    }

    /// The work done since an earlier snapshot (elementwise difference) —
    /// how `tests/golden_counts.rs` isolates the steady-state refactors
    /// from the first factorisation.
    pub fn since(&self, earlier: &PhaseCounters) -> PhaseCounters {
        PhaseCounters {
            reorder_runs: self.reorder_runs - earlier.reorder_runs,
            symbolic_runs: self.symbolic_runs - earlier.symbolic_runs,
            preprocess_runs: self.preprocess_runs - earlier.preprocess_runs,
            numeric_runs: self.numeric_runs - earlier.numeric_runs,
            analysis_reuses: self.analysis_reuses - earlier.analysis_reuses,
        }
    }
}

/// Mixed-precision accounting of one solver's lifetime (see
/// `docs/PRECISION.md`).
///
/// The mixed path factors in f32 against the f64 analysis and recovers
/// accuracy at solve time with iterative refinement; these counters make
/// that machinery observable. `refine_iters` is deterministic for a
/// fixed matrix and right-hand side (the correction solves run the
/// sequential f32 substitution), so benchmark gates can compare it
/// exactly, like the phase counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrecisionCounters {
    /// Numeric factorisations that ran (and kept) the f32 mixed path.
    pub mixed_factors: u64,
    /// Mixed factorisations abandoned for a transparent f64 re-factor
    /// after the factor-time refinement probe stalled.
    pub precision_fallbacks: u64,
    /// Refinement iterations spent by factor-time probes.
    pub probe_refine_iters: u64,
    /// Mixed factorisations that skipped the acceptance probe under the
    /// probe cadence (every 4th refactorisation, see `docs/PRECISION.md`)
    /// instead of paying its refinement wall.
    pub probe_skips: u64,
    /// Refinement iterations across all solves.
    pub refine_iters: u64,
    /// Solves that ran the mixed refinement loop.
    pub refined_solves: u64,
}

impl PrecisionCounters {
    /// The work done since an earlier snapshot (elementwise difference),
    /// mirroring [`PhaseCounters::since`].
    pub fn since(&self, earlier: &PrecisionCounters) -> PrecisionCounters {
        PrecisionCounters {
            mixed_factors: self.mixed_factors - earlier.mixed_factors,
            precision_fallbacks: self.precision_fallbacks - earlier.precision_fallbacks,
            probe_refine_iters: self.probe_refine_iters - earlier.probe_refine_iters,
            probe_skips: self.probe_skips - earlier.probe_skips,
            refine_iters: self.refine_iters - earlier.refine_iters,
            refined_solves: self.refined_solves - earlier.refined_solves,
        }
    }
}

/// Tasks executed, by kernel kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskCounts {
    /// Diagonal factorisations.
    pub getrf: u64,
    /// Upper-panel solves.
    pub gessm: u64,
    /// Lower-panel solves.
    pub tstrf: u64,
    /// Schur-complement updates.
    pub ssssm: u64,
}

impl TaskCounts {
    /// All tasks.
    pub fn total(&self) -> u64 {
        self.getrf + self.gessm + self.tstrf + self.ssssm
    }
}

/// Everything one rank recorded during a distributed run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankMetrics {
    /// The rank.
    pub rank: usize,
    /// Time spent executing kernels, nanoseconds.
    pub busy_nanos: u64,
    /// Time spent blocked on the mailbox or a barrier, nanoseconds.
    pub sync_wait_nanos: u64,
    /// Times the rank entered the blocking-receive path (nothing
    /// runnable) — the stall diagnostic's event count.
    pub blocked_recvs: u64,
    /// Longest no-progress streak observed, nanoseconds.
    pub max_idle_nanos: u64,
    /// Statically perturbed pivots on this rank.
    pub perturbed_pivots: u64,
    /// Tasks executed, by kind.
    pub tasks: TaskCounts,
    /// Hot-path copy/allocation accounting.
    pub mem: MemStats,
    /// Mailbox accounting.
    pub comm: CommMetrics,
    /// Per-variant kernel tally (empty when metrics were disabled).
    pub kernels: KernelTally,
}

impl RankMetrics {
    /// Fraction of accounted time spent computing (`busy / (busy+sync)`);
    /// 0 when the rank never did either.
    pub fn compute_fraction(&self) -> f64 {
        let total = self.busy_nanos + self.sync_wait_nanos;
        if total == 0 {
            0.0
        } else {
            self.busy_nanos as f64 / total as f64
        }
    }

    /// Fraction of accounted time spent waiting — the per-rank Fig. 13
    /// quantity.
    pub fn sync_fraction(&self) -> f64 {
        let total = self.busy_nanos + self.sync_wait_nanos;
        if total == 0 {
            0.0
        } else {
            self.sync_wait_nanos as f64 / total as f64
        }
    }
}

/// The aggregated, serialisable report of one distributed run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// World size.
    pub ranks: usize,
    /// Wall-clock time of the numeric phase, nanoseconds.
    pub wall_nanos: u64,
    /// The symbolic phase's FLOP prediction for the whole factorisation
    /// (0 when the caller did not provide one).
    pub predicted_flops: f64,
    /// Element width (bytes) of the scalar type the run factored in:
    /// 8 for f64, 4 for the mixed f32 path, 0 when unknown.
    /// Deterministic — kept by `without_timings`.
    pub scalar_width: u64,
    /// Mixed factorisations this solver abandoned for f64 because the
    /// refinement probe stalled (cumulative over the solver's lifetime;
    /// 0 on pure-f64 runs). Stamped by the solver, not the executor.
    pub precision_fallbacks: u64,
    /// Mixed factorisations that skipped the acceptance probe under the
    /// solver's probe cadence (cumulative; 0 on pure-f64 runs).
    /// Stamped by the solver, not the executor. Deterministic.
    pub probe_skips: u64,
    /// Per-rank metrics, ascending by rank.
    pub per_rank: Vec<RankMetrics>,
}

impl RunReport {
    /// Model FLOPs actually executed, summed across ranks — compare
    /// against [`RunReport::predicted_flops`].
    pub fn observed_flops(&self) -> f64 {
        self.per_rank.iter().map(|r| r.kernels.total_flops()).sum()
    }

    /// Total messages sent.
    pub fn total_messages(&self) -> u64 {
        self.per_rank.iter().map(|r| r.comm.msgs_sent).sum()
    }

    /// Total payload bytes sent.
    pub fn total_bytes(&self) -> u64 {
        self.per_rank.iter().map(|r| r.comm.bytes_sent).sum()
    }

    /// Tasks executed across ranks, by kind.
    pub fn total_tasks(&self) -> TaskCounts {
        let mut t = TaskCounts::default();
        for r in &self.per_rank {
            t.getrf += r.tasks.getrf;
            t.gessm += r.tasks.gessm;
            t.tstrf += r.tasks.tstrf;
            t.ssssm += r.tasks.ssssm;
        }
        t
    }

    /// Hot-path memory accounting summed across ranks.
    pub fn total_mem(&self) -> MemStats {
        let mut m = MemStats::default();
        for r in &self.per_rank {
            m.payload_allocs += r.mem.payload_allocs;
            m.bytes_copied += r.mem.bytes_copied;
            m.pattern_cache_hits += r.mem.pattern_cache_hits;
            m.planned_calls += r.mem.planned_calls;
            m.index_searches_avoided += r.mem.index_searches_avoided;
            m.plan_runs += r.mem.plan_runs;
            m.run_axpy_entries += r.mem.run_axpy_entries;
            m.plan_bytes += r.mem.plan_bytes;
            m.plan_build_ns += r.mem.plan_build_ns;
        }
        m
    }

    /// Kernel tally merged across ranks.
    pub fn total_kernels(&self) -> KernelTally {
        let mut t = KernelTally::default();
        for r in &self.per_rank {
            t.merge(&r.kernels);
        }
        t
    }

    /// Mean of the per-rank sync fractions (Fig. 13's headline number).
    pub fn mean_sync_fraction(&self) -> f64 {
        let active: Vec<f64> = self
            .per_rank
            .iter()
            .filter(|r| r.busy_nanos + r.sync_wait_nanos > 0)
            .map(|r| r.sync_fraction())
            .collect();
        if active.is_empty() {
            0.0
        } else {
            active.iter().sum::<f64>() / active.len() as f64
        }
    }

    /// The deterministic projection: this report with every wall-clock
    /// field (run wall time, per-rank busy/sync/idle, per-variant kernel
    /// nanoseconds) *and* every scheduling-dependent observable
    /// (blocked-receive count, receive timeouts, peak queue depth)
    /// zeroed. Two runs with the same
    /// matrix, grid, owner map and fault plan must compare equal under
    /// it.
    pub fn without_timings(&self) -> RunReport {
        let mut out = self.clone();
        out.wall_nanos = 0;
        for r in &mut out.per_rank {
            r.busy_nanos = 0;
            r.sync_wait_nanos = 0;
            r.max_idle_nanos = 0;
            r.blocked_recvs = 0;
            r.comm.recv_timeouts = 0;
            r.comm.max_queue_depth = 0;
            r.mem.plan_build_ns = 0;
            r.kernels.zero_timings();
        }
        out
    }

    /// Serialises to the documented JSON schema
    /// (`pangulu-run-report-v1`, see `docs/OBSERVABILITY.md`).
    pub fn to_json(&self) -> String {
        let per_rank: Vec<Json> = self.per_rank.iter().map(rank_to_json).collect();
        Json::obj(vec![
            ("schema", Json::Str("pangulu-run-report-v1".into())),
            ("ranks", Json::Num(self.ranks as f64)),
            ("wall_nanos", Json::Num(self.wall_nanos as f64)),
            ("predicted_flops", Json::Num(self.predicted_flops)),
            ("scalar_width", Json::Num(self.scalar_width as f64)),
            ("precision_fallbacks", Json::Num(self.precision_fallbacks as f64)),
            ("probe_skips", Json::Num(self.probe_skips as f64)),
            ("observed_flops", Json::Num(self.observed_flops())),
            ("mean_sync_fraction", Json::Num(self.mean_sync_fraction())),
            ("per_rank", Json::Arr(per_rank)),
        ])
        .pretty()
    }
}

fn rank_to_json(r: &RankMetrics) -> Json {
    let edges: Vec<Json> = r
        .comm
        .edges
        .iter()
        .map(|e| {
            Json::obj(vec![
                ("to", Json::Num(e.to as f64)),
                ("msgs", Json::Num(e.msgs as f64)),
                ("bytes", Json::Num(e.bytes as f64)),
            ])
        })
        .collect();
    let kernels: Vec<Json> = r
        .kernels
        .entries()
        .map(|(class, variant, s)| {
            Json::obj(vec![
                ("class", Json::Str(class.into())),
                ("variant", Json::Str(variant.into())),
                ("calls", Json::Num(s.calls as f64)),
                ("nanos", Json::Num(s.nanos as f64)),
                ("flops", Json::Num(s.flops)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("rank", Json::Num(r.rank as f64)),
        ("busy_nanos", Json::Num(r.busy_nanos as f64)),
        ("sync_wait_nanos", Json::Num(r.sync_wait_nanos as f64)),
        ("blocked_recvs", Json::Num(r.blocked_recvs as f64)),
        ("max_idle_nanos", Json::Num(r.max_idle_nanos as f64)),
        ("perturbed_pivots", Json::Num(r.perturbed_pivots as f64)),
        (
            "tasks",
            Json::obj(vec![
                ("getrf", Json::Num(r.tasks.getrf as f64)),
                ("gessm", Json::Num(r.tasks.gessm as f64)),
                ("tstrf", Json::Num(r.tasks.tstrf as f64)),
                ("ssssm", Json::Num(r.tasks.ssssm as f64)),
            ]),
        ),
        (
            "mem",
            Json::obj(vec![
                ("payload_allocs", Json::Num(r.mem.payload_allocs as f64)),
                ("bytes_copied", Json::Num(r.mem.bytes_copied as f64)),
                ("pattern_cache_hits", Json::Num(r.mem.pattern_cache_hits as f64)),
                ("planned_calls", Json::Num(r.mem.planned_calls as f64)),
                ("index_searches_avoided", Json::Num(r.mem.index_searches_avoided as f64)),
                ("plan_runs", Json::Num(r.mem.plan_runs as f64)),
                ("run_axpy_entries", Json::Num(r.mem.run_axpy_entries as f64)),
                ("plan_bytes", Json::Num(r.mem.plan_bytes as f64)),
                ("plan_build_ns", Json::Num(r.mem.plan_build_ns as f64)),
            ]),
        ),
        (
            "comm",
            Json::obj(vec![
                ("msgs_sent", Json::Num(r.comm.msgs_sent as f64)),
                ("bytes_sent", Json::Num(r.comm.bytes_sent as f64)),
                ("recv_timeouts", Json::Num(r.comm.recv_timeouts as f64)),
                ("max_queue_depth", Json::Num(r.comm.max_queue_depth as f64)),
                ("edges", Json::Arr(edges)),
            ]),
        ),
        ("kernels", Json::Arr(kernels)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        let mut kernels = KernelTally::default();
        kernels.record(CLASS_GETRF, 0, 1_000, 64.0);
        kernels.record(CLASS_SSSSM, 1, 2_500, 1024.0);
        kernels.record(CLASS_SSSSM, 1, 500, 256.0);
        RunReport {
            ranks: 2,
            wall_nanos: 5_000_000,
            predicted_flops: 2048.0,
            scalar_width: 8,
            precision_fallbacks: 1,
            probe_skips: 2,
            per_rank: vec![
                RankMetrics {
                    rank: 0,
                    busy_nanos: 4_000,
                    sync_wait_nanos: 1_000,
                    blocked_recvs: 3,
                    max_idle_nanos: 700,
                    perturbed_pivots: 1,
                    tasks: TaskCounts { getrf: 1, gessm: 0, tstrf: 0, ssssm: 2 },
                    mem: MemStats {
                        payload_allocs: 2,
                        bytes_copied: 640,
                        pattern_cache_hits: 1,
                        planned_calls: 3,
                        index_searches_avoided: 42,
                        plan_runs: 7,
                        run_axpy_entries: 35,
                        plan_bytes: 1024,
                        plan_build_ns: 900,
                    },
                    comm: CommMetrics {
                        msgs_sent: 4,
                        bytes_sent: 512,
                        recv_timeouts: 2,
                        max_queue_depth: 3,
                        edges: vec![EdgeStat { to: 1, msgs: 4, bytes: 512 }],
                    },
                    kernels,
                },
                RankMetrics { rank: 1, ..Default::default() },
            ],
        }
    }

    #[test]
    fn json_writes_the_tile_lane_under_its_own_label() {
        let mut report = sample_report();
        report.per_rank[1].kernels.record(CLASS_TSTRF, VARIANT_TILE, 700, 128.0);
        let doc = Json::parse(&report.to_json()).unwrap();
        let kernels = doc.get("per_rank").unwrap().as_arr().unwrap()[1].get("kernels").unwrap();
        let k = &kernels.as_arr().unwrap()[0];
        assert_eq!(k.get("class").and_then(Json::as_str), Some("TSTRF"));
        assert_eq!(k.get("variant").and_then(Json::as_str), Some("D_V1"));
        assert_eq!(k.req_u64("calls").unwrap(), 1);
    }

    #[test]
    fn totals_aggregate_across_ranks() {
        let report = sample_report();
        assert_eq!(report.total_messages(), 4);
        assert_eq!(report.total_bytes(), 512);
        assert_eq!(report.total_tasks().total(), 3);
        assert_eq!(report.total_kernels().total_calls(), 3);
        let mem = report.total_mem();
        assert_eq!(mem.payload_allocs, 2);
        assert_eq!(mem.bytes_copied, 640);
        assert_eq!(mem.pattern_cache_hits, 1);
        assert_eq!(mem.planned_calls, 3);
        assert_eq!(mem.index_searches_avoided, 42);
        assert_eq!(mem.plan_runs, 7);
        assert_eq!(mem.run_axpy_entries, 35);
        assert_eq!(mem.plan_bytes, 1024);
        assert_eq!(mem.plan_build_ns, 900);
        assert!((report.observed_flops() - 1344.0).abs() < 1e-12);
    }

    #[test]
    fn without_timings_zeroes_clock_and_scheduling_fields() {
        let report = sample_report();
        let det = report.without_timings();
        assert_eq!(det.wall_nanos, 0);
        assert_eq!(det.per_rank[0].busy_nanos, 0);
        assert_eq!(det.per_rank[0].sync_wait_nanos, 0);
        assert_eq!(det.per_rank[0].max_idle_nanos, 0);
        assert_eq!(det.per_rank[0].blocked_recvs, 0);
        assert_eq!(det.per_rank[0].comm.recv_timeouts, 0);
        assert_eq!(det.per_rank[0].comm.max_queue_depth, 0);
        assert_eq!(det.per_rank[0].mem.plan_build_ns, 0, "plan build time is a wall clock");
        assert_eq!(det.per_rank[0].kernels.total_nanos(), 0);
        // Work counters untouched.
        assert_eq!(det.per_rank[0].tasks, report.per_rank[0].tasks);
        assert_eq!(det.per_rank[0].mem.payload_allocs, 2);
        assert_eq!(det.per_rank[0].mem.bytes_copied, 640);
        assert_eq!(det.per_rank[0].mem.pattern_cache_hits, 1);
        assert_eq!(det.per_rank[0].mem.planned_calls, 3);
        assert_eq!(det.per_rank[0].mem.index_searches_avoided, 42);
        assert_eq!(det.per_rank[0].mem.plan_runs, 7, "run counts are static per plan");
        assert_eq!(det.per_rank[0].mem.run_axpy_entries, 35, "run entries are static per plan");
        assert_eq!(det.per_rank[0].mem.plan_bytes, 1024);
        assert_eq!(det.per_rank[0].comm.msgs_sent, 4);
        assert_eq!(det.per_rank[0].comm.bytes_sent, 512);
        assert_eq!(det.per_rank[0].comm.edges, report.per_rank[0].comm.edges);
        assert_eq!(det.per_rank[0].kernels.total_calls(), 3);
        // Idempotent and equal across "runs" differing only in timing.
        let mut other = report.clone();
        other.wall_nanos = 99;
        other.per_rank[0].busy_nanos = 77;
        other.per_rank[0].blocked_recvs = 12;
        other.per_rank[0].comm.recv_timeouts = 8;
        other.per_rank[0].mem.plan_build_ns = 123;
        assert_eq!(other.without_timings(), det);
    }

    #[test]
    fn fractions_are_normalised() {
        let r = &sample_report().per_rank[0];
        assert!((r.compute_fraction() - 0.8).abs() < 1e-12);
        assert!((r.sync_fraction() - 0.2).abs() < 1e-12);
        assert!((r.compute_fraction() + r.sync_fraction() - 1.0).abs() < 1e-12);
        let idle = RankMetrics::default();
        assert_eq!(idle.compute_fraction(), 0.0);
        assert_eq!(idle.sync_fraction(), 0.0);
    }

    #[test]
    fn tally_entries_skip_empty_slots() {
        let mut t = KernelTally::default();
        assert_eq!(t.entries().count(), 0);
        t.record(CLASS_GESSM, 2, 10, 1.0);
        let entries: Vec<_> = t.entries().collect();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].0, "GESSM");
        assert_eq!(entries[0].1, "G_V1");
        assert_eq!(t.calls_by_class(), [0, 1, 0, 0]);
    }

    #[test]
    fn phase_counters_diff_isolates_steady_state() {
        let first = PhaseCounters::first_factor();
        assert_eq!(first.numeric_runs, 1);
        assert_eq!(first.analysis_reuses, 0);
        let mut after = first;
        after.numeric_runs += 3;
        after.analysis_reuses += 3;
        let steady = after.since(&first);
        assert_eq!(
            steady,
            PhaseCounters {
                reorder_runs: 0,
                symbolic_runs: 0,
                preprocess_runs: 0,
                numeric_runs: 3,
                analysis_reuses: 3
            }
        );
    }

    #[test]
    fn precision_fields_survive_timings_projection() {
        let report = sample_report();
        assert_eq!(report.scalar_width, 8);
        assert_eq!(report.precision_fallbacks, 1);
        let det = report.without_timings();
        assert_eq!(det.scalar_width, 8, "scalar width is deterministic");
        assert_eq!(det.precision_fallbacks, 1, "fallback count is deterministic");
        assert_eq!(det.probe_skips, 2, "skip count is deterministic");
    }

    #[test]
    fn precision_counters_diff_isolates_steady_state() {
        let first = PrecisionCounters {
            mixed_factors: 1,
            precision_fallbacks: 0,
            probe_refine_iters: 4,
            probe_skips: 0,
            refine_iters: 0,
            refined_solves: 0,
        };
        let mut after = first;
        after.mixed_factors += 3;
        after.probe_refine_iters += 12;
        after.probe_skips += 2;
        after.refine_iters += 9;
        after.refined_solves += 3;
        let steady = after.since(&first);
        assert_eq!(
            steady,
            PrecisionCounters {
                mixed_factors: 3,
                precision_fallbacks: 0,
                probe_refine_iters: 12,
                probe_skips: 2,
                refine_iters: 9,
                refined_solves: 3,
            }
        );
    }
}
