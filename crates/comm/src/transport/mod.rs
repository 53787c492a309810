//! Pluggable transport backends beneath the [`crate::mailbox`] layer.
//!
//! A [`Transport`] is *only* a reliable, per-edge-FIFO envelope pipe —
//! everything that makes the comm layer observable and adversarial
//! (per-edge accounting, the fault plan, reorder buffers, the holdback
//! heap, delivery logs, sync-wait attribution) lives **above** it, in
//! [`crate::mailbox::Mailbox`]. That split is what makes the wire-model
//! counters backend-invariant by construction: a channel hop and a
//! shared-memory ring are charged identically because the charging code
//! never sees which one is underneath. The cross-backend conformance
//! suite (`tests/transport_conformance.rs`) proves the construction
//! end-to-end.
//!
//! Two backends ship:
//!
//! * [`channel`] — the historical in-process `std::sync::mpsc` mailboxes;
//!   envelopes move by pointer, nothing is serialised.
//! * [`shm`] — per-directed-edge shared-memory byte rings (atomics over a
//!   plain byte buffer, single producer / single consumer). Every message
//!   crosses as codec frames, exactly as it would between forked
//!   processes over an `mmap`ed segment; the ring layout deliberately
//!   holds no pointers so it is process-ready, and the harness drives it
//!   from the rank threads (std offers no fork).
//!
//! Envelopes carry the fault layer's injected latency as relative
//! `delay_nanos`, never an absolute `Instant` — an instant is meaningless
//! on the far side of a process boundary, so *every* backend (channel
//! included) has the receiver re-anchor the delay at arrival time.

use std::time::Duration;

use pangulu_sparse::Scalar;

use crate::msg::BlockMsg;

pub mod channel;
pub mod shm;

/// Which backend a mailbox set runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TransportKind {
    /// In-process `mpsc` channels (the default; nothing serialised).
    #[default]
    Channel,
    /// Shared-memory byte rings with codec frames.
    Shm,
}

impl TransportKind {
    /// All backends, in conformance-suite order.
    pub const ALL: [TransportKind; 2] = [TransportKind::Channel, TransportKind::Shm];

    /// True when the backend moves codec frames (so the codec counters
    /// can be nonzero).
    pub fn uses_codec(self) -> bool {
        !matches!(self, TransportKind::Channel)
    }
}

impl std::str::FromStr for TransportKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "channel" => Ok(TransportKind::Channel),
            "shm" => Ok(TransportKind::Shm),
            other => Err(format!("unknown transport {other:?} (channel | shm)")),
        }
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TransportKind::Channel => "channel",
            TransportKind::Shm => "shm",
        })
    }
}

/// What the backend itself did on the wire. Backend-*dependent* by
/// nature (the channel backend encodes nothing), which is why
/// `RunReport::without_timings` zeroes the corresponding `CommMetrics`
/// fields before any cross-backend comparison.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Codec frames actually written toward peers.
    pub frames_sent: u64,
    /// Bytes freshly produced by the encoder: headers and length
    /// prefixes per frame, payload values once per distinct scatter
    /// (the encode-once fan-out).
    pub codec_bytes_encoded: u64,
}

/// A message on the wire: the block plus the routing/fault metadata that
/// must survive a process boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct WireEnvelope<S: Scalar = f64> {
    /// Sending rank.
    pub from: u32,
    /// Sender-side sequence number (per sending mailbox) — the stable
    /// tiebreak of the receiver's holdback ordering.
    pub seq: u64,
    /// Injected delivery delay, applied by the receiver relative to
    /// arrival time.
    pub delay_nanos: u64,
    /// The block message itself.
    pub msg: BlockMsg<S>,
}

/// The peer endpoint is gone: it shut down, was severed, or closed the
/// connection. The mailbox layer counts the send as undeliverable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerClosed;

impl std::fmt::Display for PeerClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("peer endpoint closed")
    }
}

impl std::error::Error for PeerClosed {}

/// One rank's endpoint of a reliable, per-edge-FIFO envelope pipe.
///
/// Contract (what the conformance suite relies on):
///
/// * `send(to, env)` queues `env` for `to` and preserves order per
///   directed edge; it never blocks indefinitely (backends buffer
///   sender-side when the wire is full) and reports a dead peer as
///   [`PeerClosed`] instead of panicking. `to` is never the endpoint's
///   own rank — loopback short-circuits in the mailbox above.
/// * `try_recv` returns the next available envelope without blocking;
///   `recv_timeout` blocks up to the timeout for one. Neither reorders
///   an edge; cross-edge interleaving is unspecified (the executor's
///   determinism never depends on it).
/// * `flush` pushes sender-side buffered bytes toward peers as far as the
///   wire has room and reports whether any are still held back; an
///   endpoint repeats it before exiting ([`crate::Mailbox::flush_all`]).
/// * `sever` simulates this endpoint's death: peers' subsequent sends
///   fail with [`PeerClosed`] and nothing is received any more. Used by
///   the peer-death fault injection and its tests.
pub trait Transport<S: Scalar = f64>: Send {
    /// Which backend this endpoint belongs to.
    fn kind(&self) -> TransportKind;
    /// Queues an envelope for rank `to`.
    fn send(&mut self, to: usize, env: WireEnvelope<S>) -> Result<(), PeerClosed>;
    /// Next available envelope, without blocking.
    fn try_recv(&mut self) -> Option<WireEnvelope<S>>;
    /// Blocks up to `timeout` for the next envelope.
    fn recv_timeout(&mut self, timeout: Duration) -> Option<WireEnvelope<S>>;
    /// Pushes sender-side buffered bytes toward peers; true when none is
    /// held back any more.
    fn flush(&mut self) -> bool {
        true
    }
    /// Simulates this endpoint's death (see trait docs).
    fn sever(&mut self);
    /// Wire-level counters (all zero for the channel backend).
    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }
}

/// Builds the all-to-all endpoints of a `p`-rank world on the chosen
/// backend.
pub fn build_endpoints<S: Scalar>(kind: TransportKind, p: usize) -> Vec<Box<dyn Transport<S>>> {
    assert!(p > 0, "transport world needs at least one rank");
    match kind {
        TransportKind::Channel => channel::build::<S>(p)
            .into_iter()
            .map(|t| Box::new(t) as Box<dyn Transport<S>>)
            .collect(),
        TransportKind::Shm => {
            shm::build::<S>(p).into_iter().map(|t| Box::new(t) as Box<dyn Transport<S>>).collect()
        }
    }
}

/// Poll interval of the byte backends' blocking receives.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_micros(100);
