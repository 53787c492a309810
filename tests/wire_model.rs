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
//!    leaked into the accounting. An f32 factorisation sends the same
//!    messages with half the payload per value;
//! 2. the timing-free projection `RunReport::without_timings()` is
//!    identical across fault plans that only perturb delivery timing and
//!    order (delays + reordering, no drops), including the new
//!    [`pangulu::metrics::MemStats`] counters;
//! 3. a send to the own rank is an ordinary edge: charged full freight
//!    on the diagonal edge and run through the fault plan like any other
//!    — placement on the owner map must never make traffic disappear
//!    from the accounting.

use std::time::Duration;

use pangulu::comm::{BlockMsg, BlockRole, FaultPlan, MailboxSet};
use pangulu::core::dist::FactorConfig;
use pangulu::metrics::RunReport;

#[path = "common/wire_fixture.rs"]
mod wire_fixture;
use wire_fixture::{expected_edges, factor, factor32, observed_edges, problem, GRIDS, PROBLEMS};

/// Bytes of one message header, the same at every precision.
const HEADER_BYTES: u64 = 24;

/// Per-edge message and byte counts match the pre-Arc accounting
/// exactly: one shared payload buffer still charges every edge its full
/// wire freight. The same problem factored in f32 reports 4-byte scalars
/// and sends the same messages on every edge, each carrying half the
/// payload bytes behind the same header.
#[test]
fn per_edge_accounting_matches_prechange_fixture() {
    let cfg = FactorConfig::default();
    for (seed, n, nb) in PROBLEMS {
        let prob = problem(seed, n, nb);
        for (pr, pc) in GRIDS {
            let grid = format!("{pr}x{pc}");
            let expected = expected_edges(seed, &grid);
            assert_eq!(
                observed_edges(&factor(&prob, pr, pc, &cfg)),
                expected,
                "seed {seed} grid {grid}: per-edge msgs/bytes drifted from the \
                 pre-change wire model"
            );
            let r32 = factor32(&prob, pr, pc, &cfg);
            assert_eq!(r32.scalar_width, 4, "seed {seed} grid {grid}: f32 run must report 4");
            let halved: Vec<_> = expected
                .iter()
                .map(|&(from, to, msgs, bytes)| {
                    let headers = HEADER_BYTES * msgs;
                    (from, to, msgs, headers + (bytes - headers) / 2)
                })
                .collect();
            assert_eq!(
                observed_edges(&r32),
                halved,
                "seed {seed} grid {grid}: f32 traffic is not the f64 messages at half payload"
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
/// run.
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
    let mut projections: Vec<RunReport> = Vec::new();
    for plan in &plans {
        let mut cfg = FactorConfig::default();
        if let Some(p) = plan {
            cfg = cfg.with_fault(p.clone());
        }
        projections.push(factor(&prob, 2, 2, &cfg).without_timings());
    }
    for (i, p) in projections.iter().enumerate().skip(1) {
        assert_eq!(&projections[0], p, "plan {i} changed the timing-free report");
    }
}

/// The factorisation's `finish_block` fan-out excludes the producing
/// rank (a rank never ships a finished block to itself), so the fixture
/// table has no diagonal rows — pinned explicitly, because a send to the
/// own rank would be charged on the diagonal edge and grow the table.
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
            "rank {}: factorisation charged a self-edge",
            r.rank
        );
    }
}

/// A send to the own rank is an ordinary edge: charged and logged on
/// the diagonal edge at full freight, delivered in order through the
/// rank's own channel, and subject to the fault plan — a plan that loses
/// the first message on the diagonal edge loses it.
#[test]
fn loopback_charges_are_backend_invariant() {
    let lose_first = FaultPlan::reliable(3).with_loss(0, 0, 0);
    let mut boxes = MailboxSet::with_faults(2, lose_first).into_mailboxes();
    let mb = &mut boxes[0];
    let msg = |bi| BlockMsg { bi, bj: bi, role: BlockRole::LPanel, values: vec![1.0; 16].into() };
    for bi in 0..5 {
        mb.send(0, msg(bi));
    }
    for bi in 1..5 {
        let got = mb.try_recv().unwrap_or_else(|| panic!("self-delivery {bi}"));
        assert_eq!(got.bi, bi, "self-edge FIFO");
    }
    assert!(mb.try_recv().is_none(), "the plan's loss on the diagonal edge is lost");
    assert_eq!(mb.sent_log().len(), 4, "the lost message is not logged as sent");
    assert_eq!(mb.recv_log().len(), 4);
    let m = mb.metrics();
    assert_eq!(m.edges.len(), 1, "exactly the diagonal edge");
    assert_eq!(m.edges[0].to, 0);
    assert_eq!((m.edges[0].msgs, m.edges[0].bytes), (5, 5 * msg(0).payload_bytes() as u64));
}
