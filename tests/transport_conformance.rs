//! Cross-backend transport conformance suite.
//!
//! The [`pangulu::comm::Transport`] trait sits *below* the mailbox, so
//! every observable of a distributed run — factored values, per-edge
//! comm accounting, task/kernel tallies, fault-injection outcomes,
//! structured stall errors — must be identical whether the envelopes
//! travel over in-process channels or shared-memory rings. This suite
//! proves it by re-running the wire-model fixture table, the determinism
//! matrix, adversarial fault sweeps, and the stall-timeout error path
//! over **every** backend and asserting bitwise-identical factors plus
//! identical deterministic counters.

use std::time::Duration;

use pangulu::comm::{FaultPlan, TransportKind};
use pangulu::core::dist::{FactorConfig, ScheduleMode};
use pangulu::metrics::RunReport;

#[path = "common/wire_fixture.rs"]
mod wire_fixture;
use wire_fixture::{
    expected_edges, factor, factor_values, factor_values32, observed_edges, problem, Problem,
    GRIDS, PROBLEMS,
};

fn cfg_on(kind: TransportKind, mode: ScheduleMode) -> FactorConfig {
    FactorConfig::with_mode(mode).with_transport(kind)
}

/// The full 65-edge wire-model fixture table holds verbatim on every
/// backend: per-edge msgs/bytes are charged by the mailbox above the
/// transport, so moving the envelopes onto rings must not
/// shift a single byte of accounting.
#[test]
fn fixture_edge_table_holds_on_every_backend() {
    for kind in TransportKind::ALL {
        for (seed, n, nb) in PROBLEMS {
            let prob = problem(seed, n, nb);
            for (pr, pc) in GRIDS {
                let grid = format!("{pr}x{pc}");
                let report = factor(&prob, pr, pc, &cfg_on(kind, ScheduleMode::SyncFree));
                assert_eq!(
                    observed_edges(&report),
                    expected_edges(seed, &grid),
                    "{kind}: seed {seed} grid {grid} drifted from the wire-model fixture"
                );
            }
        }
    }
}

/// Fault-free byte backends charge the codec deterministically: one
/// frame per mailbox send and the payload of each scatter encoded
/// exactly once, so both counters are the same under either schedule
/// mode. The channel backend reports zero for both — envelopes never
/// leave process memory.
#[test]
fn codec_counters_agree_across_byte_backends() {
    let prob = problem(42, 80, 9);
    for kind in TransportKind::ALL {
        let mut totals = Vec::new();
        for mode in [ScheduleMode::SyncFree, ScheduleMode::LevelSet] {
            let report = factor(&prob, 2, 2, &cfg_on(kind, mode));
            let frames: u64 = report.per_rank.iter().map(|r| r.comm.frames_sent).sum();
            let bytes: u64 = report.per_rank.iter().map(|r| r.comm.codec_bytes_encoded).sum();
            let msgs: u64 = report.per_rank.iter().map(|r| r.comm.msgs_sent).sum();
            if kind.uses_codec() {
                assert_eq!(frames, msgs, "{kind}: every mailbox send becomes exactly one frame");
                assert!(bytes > 0, "{kind}: encoded bytes must be charged");
            } else {
                assert_eq!((frames, bytes), (0, 0), "{kind}: no wire, no codec counters");
            }
            totals.push((frames, bytes));
        }
        assert_eq!(totals[0], totals[1], "{kind}: codec counters depend on the schedule mode");
    }
}

/// The determinism matrix, cross-backend: for every grid × schedule
/// mode, every backend produces bitwise-identical factors and
/// an identical timing-free report — the same contract
/// `tests/determinism.rs` enforces within one backend.
#[test]
fn factors_bitwise_identical_across_backends() {
    let prob = problem(42, 80, 9);
    for (pr, pc) in [(2, 2), (1, 4)] {
        for mode in [ScheduleMode::SyncFree, ScheduleMode::LevelSet] {
            let mut reference: Option<(Vec<f64>, RunReport)> = None;
            for kind in TransportKind::ALL {
                let (values, report) = factor_values(&prob, pr, pc, &cfg_on(kind, mode));
                let projection = report.without_timings();
                match &reference {
                    None => reference = Some((values, projection)),
                    Some((ref_values, ref_projection)) => {
                        assert!(
                            ref_values == &values,
                            "{kind}: {pr}x{pc} {mode:?} factors are not bitwise identical \
                             to the channel reference"
                        );
                        assert_eq!(
                            ref_projection, &projection,
                            "{kind}: {pr}x{pc} {mode:?} timing-free report differs from the \
                             channel reference"
                        );
                    }
                }
            }
        }
    }
}

/// Blocks larger than a shared-memory ring (256 KiB per edge) overflow
/// into the sender's staging queue, which drains only while the sender
/// keeps pushing. A rank waiting at a level-set barrier, or done with a
/// sync-free run, must go on pushing, since a peer may still need what
/// it holds back. Both modes finish and equal the channel factors.
#[test]
fn ring_overflow_finishes_in_both_modes() {
    let prob = problem(43, 600, 200);
    for mode in [ScheduleMode::SyncFree, ScheduleMode::LevelSet] {
        let cfg = |kind| cfg_on(kind, mode).with_stall_timeout(Duration::from_secs(10));
        let (channel, _) = factor_values(&prob, 2, 2, &cfg(TransportKind::Channel));
        let (shm, _) = factor_values(&prob, 2, 2, &cfg(TransportKind::Shm));
        assert!(channel == shm, "{mode:?}: shm factors differ from the channel reference");
    }
}

/// Adversarial fault plans (delays, reordering, retried drops) are
/// drawn per-edge from payload-independent RNG streams, so every
/// backend sees the same fates: factors stay bitwise identical to a
/// fault-free run and the timing-free projection — including
/// retried/dropped tallies — is identical across backends per plan.
#[test]
fn fault_plan_sweep_is_backend_invariant() {
    let prob = problem(41, 96, 10);
    let clean = factor_values(&prob, 2, 2, &cfg_on(TransportKind::Channel, ScheduleMode::SyncFree));
    let plans: Vec<FaultPlan> = vec![
        FaultPlan::reliable(7).with_delays(0.5, Duration::from_micros(200)),
        FaultPlan::reliable(13).with_delays(0.3, Duration::from_micros(120)).with_reordering(3),
        FaultPlan::adversarial(21),
        FaultPlan::adversarial(99),
    ];
    for (pi, plan) in plans.iter().enumerate() {
        let mut reference: Option<RunReport> = None;
        for kind in TransportKind::ALL {
            let cfg = cfg_on(kind, ScheduleMode::SyncFree).with_fault(plan.clone());
            let (values, report) = factor_values(&prob, 2, 2, &cfg);
            assert!(
                values == clean.0,
                "{kind}: plan {pi} changed the factors vs the fault-free reference"
            );
            let projection = report.without_timings();
            match &reference {
                None => reference = Some(projection),
                Some(r) => assert_eq!(
                    r, &projection,
                    "{kind}: plan {pi} timing-free report differs across backends"
                ),
            }
        }
    }
}

/// Dropping every message must surface the structured stall error —
/// naming the blocked rank and the missing operand blocks — on every
/// backend, not just the in-process one. No backend is allowed to hang.
#[test]
fn stall_timeout_error_is_structured_on_every_backend() {
    let prob = problem(42, 80, 9);
    for kind in TransportKind::ALL {
        let cfg = cfg_on(kind, ScheduleMode::SyncFree)
            .with_fault(FaultPlan::reliable(1).with_drops(1.0, 0, Duration::ZERO))
            .with_stall_timeout(Duration::from_millis(400));
        let t0 = std::time::Instant::now();
        let err = factor_checked_err(&prob, 2, 2, &cfg)
            .unwrap_or_else(|| panic!("{kind}: drop-all run must fail, not succeed"));
        assert!(t0.elapsed() < Duration::from_secs(30), "{kind}: error must arrive promptly");
        assert!(!err.missing.is_empty(), "{kind}: error must name missing blocks: {err}");
        let text = err.to_string();
        assert!(text.contains("rank"), "{kind}: error names the blocked rank: {text}");
        assert!(text.contains("missing"), "{kind}: error names missing operands: {text}");
    }
}

/// The mixed-precision column of the determinism matrix: factoring the
/// same fixture in f32 keeps the cross-backend bitwise contract — every
/// backend on both grids produces word-for-word identical
/// f32 factors — and every report is stamped with the 4-byte scalar
/// width. This is the contract the mixed-precision solver leans on when
/// it promises grid- and transport-independent f32 factors.
#[test]
fn mixed_precision_factors_bitwise_identical_across_backends() {
    let prob = problem(42, 80, 9);
    for (pr, pc) in [(2, 2), (1, 4)] {
        let mut reference: Option<Vec<u32>> = None;
        for kind in TransportKind::ALL {
            let cfg = cfg_on(kind, ScheduleMode::SyncFree);
            let (bits, report) = factor_values32(&prob, pr, pc, &cfg);
            assert_eq!(report.scalar_width, 4, "{kind}: f32 run must report 4-byte scalars");
            match &reference {
                None => reference = Some(bits),
                Some(ref_bits) => assert!(
                    ref_bits == &bits,
                    "{kind}: {pr}x{pc} f32 factors are not bitwise identical to the channel \
                     reference"
                ),
            }
        }
    }
}

/// Halved payload on the wire: an f32 run sends the same messages and
/// frames as the f64 run (the schedule is pattern-driven), but every
/// payload element shrinks from 8 to 4 bytes while the per-frame
/// overhead — 4-byte length prefix plus the 56-byte body header — is
/// precision-independent. On the byte backends the codec counters must
/// reflect exactly that split; the channel backend charges nothing in
/// either precision. The mailbox accounting above the transport obeys
/// the same relation with its own 24-byte per-message header.
#[test]
fn mixed_precision_halves_codec_payload_on_every_byte_backend() {
    const FRAME_OVERHEAD: u64 = 60; // 4-byte length prefix + 56-byte body header
    const MSG_OVERHEAD: u64 = 24; // mailbox accounting header per message
    let prob = problem(41, 96, 10);
    let msgs = |r: &RunReport| r.per_rank.iter().map(|p| p.comm.msgs_sent).sum::<u64>();
    let bytes = |r: &RunReport| r.per_rank.iter().map(|p| p.comm.bytes_sent).sum::<u64>();
    let frames = |r: &RunReport| r.per_rank.iter().map(|p| p.comm.frames_sent).sum::<u64>();
    let codec = |r: &RunReport| r.per_rank.iter().map(|p| p.comm.codec_bytes_encoded).sum::<u64>();
    for kind in TransportKind::ALL {
        let cfg = cfg_on(kind, ScheduleMode::SyncFree);
        let (_, r64) = factor_values(&prob, 2, 2, &cfg);
        let (_, r32) = factor_values32(&prob, 2, 2, &cfg);
        assert_eq!(msgs(&r32), msgs(&r64), "{kind}: precision must not change the schedule");
        let m = msgs(&r64);
        assert_eq!(
            bytes(&r32) - MSG_OVERHEAD * m,
            (bytes(&r64) - MSG_OVERHEAD * m) / 2,
            "{kind}: mailbox payload accounting must halve exactly"
        );
        if kind.uses_codec() {
            assert_eq!(frames(&r32), frames(&r64), "{kind}: one frame per send, any width");
            let f = frames(&r64);
            let (p32, p64) = (codec(&r32) - FRAME_OVERHEAD * f, codec(&r64) - FRAME_OVERHEAD * f);
            assert_eq!(p64, 2 * p32, "{kind}: encoded payload bytes must halve exactly");
            assert!(p32 > 0, "{kind}: the f32 run must still encode real payloads");
        } else {
            assert_eq!(codec(&r32), 0, "{kind}: no wire, no codec counters in f32 either");
        }
    }
}

/// Runs the checked factorisation and returns its error, if any.
fn factor_checked_err(
    prob: &Problem,
    pr: usize,
    pc: usize,
    cfg: &FactorConfig,
) -> Option<pangulu::core::dist::DistError> {
    use pangulu::comm::ProcessGrid;
    use pangulu::core::dist::factor_distributed_checked;
    use pangulu::core::layout::OwnerMap;
    let mut bm = prob.bm.clone();
    let owners = OwnerMap::balanced(&bm, ProcessGrid::with_shape(pr, pc), &prob.tg);
    factor_distributed_checked(&mut bm, &prob.tg, &owners, &prob.sel, 1e-12, cfg).err()
}
