//! Wire-model invariance guard for the copy/allocation work.
//!
//! The Arc fan-out in `finish_block` serialises a finished block **once**
//! however many ranks need it, and the receive path caches block
//! structure — but the *wire cost model* is an accounting invariant:
//! [`pangulu::comm::Mailbox`] charges every edge the full
//! `payload_bytes()` of every send, exactly as if each destination got
//! its own buffer. This file pins that invariant three ways:
//!
//! 1. per-edge `CommMetrics` msgs/bytes are asserted against expected
//!    values captured from the pre-Arc implementation (the fixture table
//!    in `tests/common/wire_fixture.rs`) — any drift means the sharing
//!    leaked into the accounting;
//! 2. the timing-free projection `RunReport::without_timings()` is
//!    identical across fault plans that only perturb delivery timing and
//!    order (delays + reordering, no drops), including the new
//!    [`pangulu::metrics::MemStats`] counters;
//! 3. loopback (rank → same rank) sends are charged full freight on the
//!    diagonal edge identically on every transport backend — placement
//!    on the owner map must never make traffic disappear from the
//!    accounting.
//!
//! The cross-backend conformance suite
//! (`tests/transport_conformance.rs`) re-runs the same fixture table
//! over the shared-memory backend.

use std::time::Duration;

use pangulu::comm::{BlockMsg, BlockRole, FaultPlan, MailboxSet, TransportKind};
use pangulu::core::dist::{FactorConfig, ScheduleMode};
use pangulu::metrics::{CommMetrics, RunReport};

#[path = "common/wire_fixture.rs"]
mod wire_fixture;
use wire_fixture::{expected_edges, factor, observed_edges, problem, GRIDS, PROBLEMS};

/// Per-edge message and byte counts match the pre-Arc accounting
/// exactly: one shared payload buffer still charges every edge its full
/// wire freight.
#[test]
fn per_edge_accounting_matches_prechange_fixture() {
    for (seed, n, nb) in PROBLEMS {
        let prob = problem(seed, n, nb);
        for (pr, pc) in GRIDS {
            let grid = format!("{pr}x{pc}");
            let report = factor(&prob, pr, pc, &FactorConfig::with_mode(ScheduleMode::SyncFree));
            assert_eq!(
                observed_edges(&report),
                expected_edges(seed, &grid),
                "seed {seed} grid {grid}: per-edge msgs/bytes drifted from the \
                 pre-change wire model"
            );
        }
    }
}

/// Edge sums reconcile with the rank totals `tests/golden_counts.rs` pins, so
/// the fixture pins the aggregate counters too.
#[test]
fn edge_sums_match_rank_totals() {
    let prob = problem(41, 96, 10);
    let report = factor(&prob, 2, 2, &FactorConfig::default());
    for r in &report.per_rank {
        let msgs: u64 = r.comm.edges.iter().map(|e| e.msgs).sum();
        let bytes: u64 = r.comm.edges.iter().map(|e| e.bytes).sum();
        assert_eq!(msgs, r.comm.msgs_sent, "rank {}: edge msgs != msgs_sent", r.rank);
        assert_eq!(bytes, r.comm.bytes_sent, "rank {}: edge bytes != bytes_sent", r.rank);
    }
}

/// Timing-only fault plans (delays + reordering, no drops) leave the
/// whole timing-free projection — per-edge comm, tasks, kernel tallies,
/// and the copy/alloc `MemStats` counters — identical to a fault-free
/// run, across both scheduling modes.
#[test]
fn without_timings_equal_across_fault_plans() {
    let plans: Vec<Option<FaultPlan>> = vec![
        None,
        Some(FaultPlan::reliable(7).with_delays(0.4, Duration::from_micros(300))),
        Some(
            FaultPlan::reliable(13).with_delays(0.7, Duration::from_micros(150)).with_reordering(4),
        ),
        Some(FaultPlan::reliable(99).with_reordering(2)),
    ];
    let prob = problem(42, 80, 9);
    for mode in [ScheduleMode::SyncFree, ScheduleMode::LevelSet] {
        let mut projections: Vec<RunReport> = Vec::new();
        for plan in &plans {
            let mut cfg = FactorConfig::with_mode(mode);
            if let Some(p) = plan {
                cfg = cfg.with_fault(p.clone());
            }
            projections.push(factor(&prob, 2, 2, &cfg).without_timings());
        }
        for (i, p) in projections.iter().enumerate().skip(1) {
            assert_eq!(&projections[0], p, "{mode:?}: plan {i} changed the timing-free report");
        }
    }
}

/// The factorisation's `finish_block` fan-out excludes the producing
/// rank (a rank never ships a finished block to itself), so the fixture
/// table has no diagonal rows — pinned explicitly, because the loopback
/// charging rule below would otherwise silently grow the table.
#[test]
fn factor_fixture_has_no_self_edges() {
    assert!(
        wire_fixture::EXPECTED_EDGES.iter().all(|&(_, _, from, to, ..)| from != to),
        "fixture table contains a self-edge"
    );
    let prob = problem(41, 96, 10);
    let report = factor(&prob, 2, 2, &FactorConfig::default());
    for r in &report.per_rank {
        assert!(
            r.comm.edges.iter().all(|e| e.to != r.rank),
            "rank {}: factorisation charged a loopback edge",
            r.rank
        );
    }
}

/// Loopback regression: a send to the own rank is charged and logged on
/// the diagonal edge with exactly the same msgs/bytes on every backend,
/// is immune to drop-all fault plans, and never reaches the wire (zero
/// frames). Before the transport split, the distributed solve applied
/// self-partials directly, bypassing this accounting entirely.
#[test]
fn loopback_charges_are_backend_invariant() {
    let drop_all = FaultPlan::reliable(3).with_drops(1.0, 0, Duration::ZERO);
    let mut reference: Option<CommMetrics> = None;
    for kind in TransportKind::ALL {
        let mut boxes =
            MailboxSet::with_transport(2, kind, Some(drop_all.clone())).into_mailboxes();
        let mb = &mut boxes[0];
        for bi in 0..5 {
            mb.send(
                0,
                BlockMsg { bi, bj: bi, role: BlockRole::Partial, values: vec![1.0; 16].into() },
            );
        }
        for bi in 0..5 {
            let got = mb.try_recv().unwrap_or_else(|| panic!("{kind}: loopback delivery {bi}"));
            assert_eq!(got.bi, bi, "{kind}: loopback FIFO");
        }
        assert_eq!(mb.dropped_msgs(), 0, "{kind}: drop-all plan must not touch loopback");
        assert_eq!(mb.recv_log().len(), 5, "{kind}");
        let m = mb.metrics();
        assert_eq!(m.frames_sent, 0, "{kind}: loopback must never reach the wire");
        assert_eq!(m.codec_bytes_encoded, 0, "{kind}");
        assert_eq!(m.edges.len(), 1, "{kind}: exactly the diagonal edge");
        assert_eq!(m.edges[0].to, 0, "{kind}");
        match &reference {
            None => reference = Some(m),
            Some(r) => assert_eq!(r, &m, "{kind}: loopback accounting differs across backends"),
        }
    }
}
