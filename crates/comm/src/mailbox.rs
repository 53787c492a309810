//! Per-rank mailboxes over in-process channels.
//!
//! Each rank owns one `std::sync::mpsc` receiver and a sender to every
//! rank; this is the thread-as-MPI-rank comm layer. The numeric
//! factorisation uses [`Mailbox::try_recv`] to drain without blocking
//! while kernels are runnable, and [`Mailbox::recv`] to block when the
//! task queue is empty — the time spent blocked is the measured
//! synchronisation time (Fig. 13).
//!
//! The mailbox is the *only* layer that observes traffic: per-edge
//! accounting, the fault plan, reorder buffers, the holdback heap and the
//! delivery logs all live here. Envelopes move by pointer; nothing is
//! serialised, and the wire model charges each send its
//! [`BlockMsg::payload_bytes`] as the modelled MPI transport would.
//!
//! Injected delays travel as relative nanoseconds: the fault layer stamps
//! `delay_nanos` on the envelope, and the *receiver* re-anchors it at
//! arrival time, so a delay counts from when the message reaches the
//! receiving rank, not from when it was sent.
//!
//! A [`MailboxSet`] built with [`MailboxSet::with_faults`] threads every
//! remote message through the deterministic fault layer ([`crate::fault`]):
//! messages acquire a delivery delay (delay/shaping) and may be held in a
//! bounded per-edge reorder buffer. A plan may also name the one message
//! it loses; the executor's stall detector surfaces the resulting
//! starvation as a structured error.
//!
//! Every mailbox also keeps send/receive logs — the raw material of the
//! schedule-trace validator's exactly-once delivery check.

use std::collections::BinaryHeap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

use pangulu_metrics::{CommMetrics, EdgeStat};
use pangulu_sparse::Scalar;

use crate::fault::{EdgeRng, FaultPlan};
use crate::msg::{BlockMsg, BlockRole};

/// The transport the mailboxes run on. It carries no choice: every
/// mailbox runs on in-process channels (docs/TRANSPORT.md). It remains
/// only because `pangulu_core::dist_solve::solve_distributed_on` takes
/// one and the repository benchmark passes `TransportKind::default()`
/// there; it goes with that caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TransportKind;

/// A message in flight: the block plus the routing and fault metadata
/// the receiver needs.
struct Envelope<S: Scalar> {
    /// Sending rank.
    from: usize,
    /// Sender-side sequence number (per sending mailbox) — the stable
    /// tiebreak of the receiver's holdback ordering.
    seq: u64,
    /// Injected delivery delay, applied by the receiver relative to
    /// arrival time.
    delay_nanos: u64,
    msg: BlockMsg<S>,
}

/// One logged message transfer (sender or receiver side).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeliveryRecord {
    /// Sending rank.
    pub from: usize,
    /// Destination rank.
    pub to: usize,
    /// Block row of the shipped block.
    pub bi: usize,
    /// Block column of the shipped block.
    pub bj: usize,
    /// Role of the shipped block at the receiver.
    pub role: BlockRole,
}

/// Held-back message ordered by due time (earliest first out).
struct HeldMsg<S: Scalar> {
    /// `None` delivers immediately; `Some(t)` not before `t` — computed
    /// at arrival from the envelope's relative `delay_nanos`.
    due: Option<Instant>,
    env: Envelope<S>,
}

impl<S: Scalar> PartialEq for HeldMsg<S> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.env.seq == other.env.seq
    }
}
impl<S: Scalar> Eq for HeldMsg<S> {}
impl<S: Scalar> PartialOrd for HeldMsg<S> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<S: Scalar> Ord for HeldMsg<S> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest due
        // (None = immediately) on top. `None < Some(_)` for Option.
        (other.due, other.env.seq).cmp(&(self.due, self.env.seq))
    }
}

/// Per-destination fault state of one sending mailbox.
struct Edge<S: Scalar> {
    rng: EdgeRng,
    /// Bounded reorder buffer (only used when `reorder_depth > 0`).
    buffer: Vec<Envelope<S>>,
}

/// Builder for the full set of rank mailboxes.
pub struct MailboxSet<S: Scalar = f64> {
    mailboxes: Vec<Mailbox<S>>,
}

impl<S: Scalar> MailboxSet<S> {
    /// Creates mailboxes for `p` ranks, all-to-all connected, with a
    /// reliable (fault-free) plan.
    pub fn new(p: usize) -> Self {
        Self::build(p, None)
    }

    /// As [`MailboxSet::new`], but every send runs through the seeded
    /// fault plan.
    pub fn with_faults(p: usize, plan: FaultPlan) -> Self {
        Self::build(p, Some(plan))
    }

    fn build(p: usize, plan: Option<FaultPlan>) -> Self {
        assert!(p > 0, "mailbox world needs at least one rank");
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..p).map(|_| channel()).unzip();
        let mailboxes = receivers
            .into_iter()
            .enumerate()
            .map(|(rank, receiver)| Mailbox {
                rank,
                world: p,
                receiver,
                senders: senders.clone(),
                plan: plan.clone(),
                edges: plan.as_ref().map(|pl| {
                    (0..p)
                        .map(|to| Edge { rng: EdgeRng::new(pl.seed, rank, to), buffer: Vec::new() })
                        .collect()
                }),
                holdback: BinaryHeap::new(),
                send_seq: 0,
                sync_wait: Duration::ZERO,
                sent_msgs: 0,
                sent_bytes: 0,
                edge_msgs: vec![0; p],
                edge_bytes: vec![0; p],
                max_queue_depth: 0,
                recv_timeouts: 0,
                sent_log: Vec::new(),
                recv_log: Vec::new(),
            })
            .collect();
        MailboxSet { mailboxes }
    }

    /// Takes the per-rank mailboxes (one per worker thread).
    pub fn into_mailboxes(self) -> Vec<Mailbox<S>> {
        self.mailboxes
    }
}

/// One rank's endpoint: its channel ends plus the accounting/fault state.
pub struct Mailbox<S: Scalar = f64> {
    rank: usize,
    world: usize,
    receiver: Receiver<Envelope<S>>,
    /// Senders to every rank. The own rank's keeps this receiver's
    /// channel alive, so a blocking receive never sees `Disconnected`
    /// while the mailbox lives.
    senders: Vec<Sender<Envelope<S>>>,
    plan: Option<FaultPlan>,
    edges: Option<Vec<Edge<S>>>,
    /// Received-but-not-yet-due messages.
    holdback: BinaryHeap<HeldMsg<S>>,
    send_seq: u64,
    sync_wait: Duration,
    sent_msgs: u64,
    sent_bytes: u64,
    /// Messages sent per destination rank (a lost one included).
    edge_msgs: Vec<u64>,
    /// Payload bytes sent per destination rank.
    edge_bytes: Vec<u64>,
    /// Deepest observed receive queue (pending + held-back messages).
    max_queue_depth: u64,
    recv_timeouts: u64,
    sent_log: Vec<DeliveryRecord>,
    recv_log: Vec<DeliveryRecord>,
}

impl<S: Scalar> Mailbox<S> {
    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the set.
    pub fn world_size(&self) -> usize {
        self.world
    }

    /// Sends a block to `to`. Under a fault plan the message may be
    /// delayed, reordered behind later sends, or — if it is the plan's
    /// `loss` — charged but never transmitted; the runtime's
    /// recv-timeout path is responsible for surfacing that loss as a
    /// structured error.
    pub fn send(&mut self, to: usize, msg: BlockMsg<S>) {
        assert!(to < self.world, "destination rank {to} out of range");
        let bytes = msg.payload_bytes() as u64;
        self.sent_msgs += 1;
        self.sent_bytes += bytes;
        self.edge_msgs[to] += 1;
        self.edge_bytes[to] += bytes;
        self.send_seq += 1;
        let mut env = Envelope { from: self.rank, seq: self.send_seq, delay_nanos: 0, msg };
        let out = match (self.plan.as_ref(), self.edges.as_mut()) {
            (Some(plan), Some(edges)) => {
                if plan.loss == Some((self.rank, to, self.edge_msgs[to] - 1)) {
                    return;
                }
                let edge = &mut edges[to];
                let delay = plan.fate(&mut edge.rng, env.msg.payload_bytes());
                env.delay_nanos = delay.as_nanos().min(u64::MAX as u128) as u64;
                if plan.reorder_depth == 0 {
                    env
                } else {
                    edge.buffer.push(env);
                    if edge.buffer.len() <= plan.reorder_depth {
                        return;
                    }
                    // The released envelope is generally NOT the one just
                    // pushed — the log records what actually goes out.
                    let idx = edge.rng.below(edge.buffer.len() as u64) as usize;
                    edge.buffer.swap_remove(idx)
                }
            }
            _ => env,
        };
        self.transmit(to, out);
    }

    /// Hands `env` to rank `to`'s channel and logs it as sent. A send
    /// fails only when the receiving rank has already shut down —
    /// legitimate while a run is aborting after a DistError, so it is
    /// neither logged nor propagated.
    fn transmit(&mut self, to: usize, env: Envelope<S>) {
        let record = DeliveryRecord {
            from: env.from,
            to,
            bi: env.msg.bi,
            bj: env.msg.bj,
            role: env.msg.role,
        };
        if self.senders[to].send(env).is_ok() {
            self.sent_log.push(record);
        }
    }

    /// Releases every message still sitting in this rank's reorder
    /// buffers, in send order. Executors call this before blocking and
    /// before leaving a run, so a buffered message can never be stranded
    /// by an idle or finished sender.
    pub fn flush_pending(&mut self) {
        let Some(mut edges) = self.edges.take() else {
            return;
        };
        for (to, edge) in edges.iter_mut().enumerate() {
            edge.buffer.sort_by_key(|e| e.seq);
            for env in edge.buffer.drain(..) {
                self.transmit(to, env);
            }
        }
        self.edges = Some(edges);
    }

    /// Parks an envelope in the holdback heap, re-anchoring its relative
    /// injected delay at arrival time.
    fn hold(&mut self, env: Envelope<S>) {
        let due =
            (env.delay_nanos > 0).then(|| Instant::now() + Duration::from_nanos(env.delay_nanos));
        self.holdback.push(HeldMsg { due, env });
        self.max_queue_depth = self.max_queue_depth.max(self.holdback.len() as u64);
    }

    /// Moves everything queued on the channel into the holdback heap.
    fn pump(&mut self) {
        while let Ok(env) = self.receiver.try_recv() {
            self.hold(env);
        }
    }

    /// Pops the earliest held message whose due time has passed.
    fn pop_ripe(&mut self) -> Option<BlockMsg<S>> {
        let ripe = match self.holdback.peek() {
            Some(held) => held.due.is_none_or(|t| t <= Instant::now()),
            None => false,
        };
        if !ripe {
            return None;
        }
        let held = self.holdback.pop().expect("peeked holdback entry");
        self.recv_log.push(DeliveryRecord {
            from: held.env.from,
            to: self.rank,
            bi: held.env.msg.bi,
            bj: held.env.msg.bj,
            role: held.env.msg.role,
        });
        Some(held.env.msg)
    }

    /// Non-blocking receive. Messages still under an injected delay stay
    /// invisible until their due time.
    pub fn try_recv(&mut self) -> Option<BlockMsg<S>> {
        self.pump();
        self.pop_ripe()
    }

    /// Blocking receive with timeout; the time actually spent blocked is
    /// added to this rank's synchronisation-wait accounting. Returns
    /// `None` on timeout (and counts it — the caller's stall detector
    /// builds on these).
    pub fn recv(&mut self, timeout: Duration) -> Option<BlockMsg<S>> {
        let start = Instant::now();
        let deadline = start + timeout;
        let out = loop {
            self.pump();
            if let Some(m) = self.pop_ripe() {
                break Some(m);
            }
            let now = Instant::now();
            if now >= deadline {
                self.recv_timeouts += 1;
                break None;
            }
            let mut wait = deadline - now;
            // Wake up early if a held message ripens before the deadline.
            if let Some(held) = self.holdback.peek() {
                if let Some(due) = held.due {
                    let until = due.saturating_duration_since(now);
                    wait = wait.min(until.max(Duration::from_micros(100)));
                }
            }
            // The own sender keeps the channel open, so the only error is
            // the timeout.
            if let Ok(env) = self.receiver.recv_timeout(wait) {
                self.hold(env);
            }
        };
        self.sync_wait += start.elapsed();
        out
    }

    /// Total time this rank has spent blocked in [`Mailbox::recv`].
    pub fn sync_wait(&self) -> Duration {
        self.sync_wait
    }

    /// Number of messages sent by this rank (including a lost one).
    pub fn sent_msgs(&self) -> u64 {
        self.sent_msgs
    }

    /// Total bytes sent by this rank.
    pub fn sent_bytes(&self) -> u64 {
        self.sent_bytes
    }

    /// Number of [`Mailbox::recv`] calls that returned `None` on timeout.
    pub fn recv_timeouts(&self) -> u64 {
        self.recv_timeouts
    }

    /// Snapshot of this rank's communication accounting as a structured
    /// [`CommMetrics`] record (zero-traffic edges omitted).
    pub fn metrics(&self) -> CommMetrics {
        CommMetrics {
            msgs_sent: self.sent_msgs,
            bytes_sent: self.sent_bytes,
            recv_timeouts: self.recv_timeouts,
            max_queue_depth: self.max_queue_depth,
            edges: self
                .edge_msgs
                .iter()
                .zip(&self.edge_bytes)
                .enumerate()
                .filter(|(_, (&m, _))| m > 0)
                .map(|(to, (&msgs, &bytes))| EdgeStat { to, msgs, bytes })
                .collect(),
        }
    }

    /// Messages actually handed to a peer's channel, by destination and
    /// block.
    pub fn sent_log(&self) -> &[DeliveryRecord] {
        &self.sent_log
    }

    /// Messages this rank received, in delivery order.
    pub fn recv_log(&self) -> &[DeliveryRecord] {
        &self.recv_log
    }

    /// Consumes the mailbox, returning its `(sent, received)` logs.
    pub fn into_logs(self) -> (Vec<DeliveryRecord>, Vec<DeliveryRecord>) {
        (self.sent_log, self.recv_log)
    }
}

/// Convenience constructor for log-shaped test data.
impl DeliveryRecord {
    /// Builds a record.
    pub fn new(from: usize, to: usize, bi: usize, bj: usize, role: BlockRole) -> Self {
        DeliveryRecord { from, to, bi, bj, role }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::BlockRole;

    fn msg(bi: usize) -> BlockMsg<f64> {
        BlockMsg { bi, bj: 0, role: BlockRole::DiagFactor, values: vec![1.0].into() }
    }

    #[test]
    fn send_and_receive_between_ranks() {
        let mut boxes = MailboxSet::<f64>::new(2).into_mailboxes();
        let (mut a, mut b) = {
            let b = boxes.pop().unwrap();
            let a = boxes.pop().unwrap();
            (a, b)
        };
        assert_eq!(a.rank(), 0);
        assert_eq!(b.rank(), 1);
        a.send(1, msg(7));
        let got = b.try_recv().expect("message should be queued");
        assert_eq!(got.bi, 7);
        assert_eq!(a.sent_msgs(), 1);
        assert!(a.sent_bytes() > 0);
        assert_eq!(a.sent_log().len(), 1);
        assert_eq!(b.recv_log().len(), 1);
        assert_eq!(b.recv_log()[0], DeliveryRecord::new(0, 1, 7, 0, BlockRole::DiagFactor));
    }

    #[test]
    fn try_recv_empty_returns_none() {
        let mut boxes = MailboxSet::<f64>::new(1).into_mailboxes();
        assert!(boxes[0].try_recv().is_none());
    }

    #[test]
    fn recv_timeout_accumulates_sync_wait() {
        let mut boxes = MailboxSet::<f64>::new(1).into_mailboxes();
        let mb = &mut boxes[0];
        let got = mb.recv(Duration::from_millis(20));
        assert!(got.is_none());
        assert!(mb.sync_wait() >= Duration::from_millis(15));
        assert_eq!(mb.recv_timeouts(), 1);
    }

    #[test]
    fn cross_thread_delivery() {
        let mut boxes = MailboxSet::new(2).into_mailboxes();
        let mut b1 = boxes.pop().unwrap();
        let mut b0 = boxes.pop().unwrap();
        std::thread::scope(|s| {
            s.spawn(move || {
                b1.send(0, msg(3));
            });
            let got = b0.recv(Duration::from_secs(5)).expect("delivery");
            assert_eq!(got.bi, 3);
        });
    }

    #[test]
    fn delayed_message_is_invisible_until_due() {
        let plan = FaultPlan::reliable(1).with_delays(1.0, Duration::from_millis(40));
        let mut boxes = MailboxSet::with_faults(2, plan).into_mailboxes();
        let mut b1 = boxes.pop().unwrap();
        let mut b0 = boxes.pop().unwrap();
        b1.send(0, msg(5));
        // The message has a nonzero injected delay with probability 1; an
        // immediate try_recv can't see it (unless the draw was ~0, so
        // allow the race by only asserting eventual delivery hard).
        let eventually = b0.recv(Duration::from_millis(500));
        assert_eq!(eventually.expect("delayed delivery").bi, 5);
    }

    #[test]
    fn reorder_buffer_never_strands_messages() {
        let plan = FaultPlan::reliable(2).with_reordering(4);
        let mut boxes = MailboxSet::with_faults(2, plan).into_mailboxes();
        let mut b1 = boxes.pop().unwrap();
        let mut b0 = boxes.pop().unwrap();
        for i in 0..3 {
            b1.send(0, msg(i)); // fewer than the buffer depth
        }
        assert!(b0.try_recv().is_none(), "all three should sit in the reorder buffer");
        b1.flush_pending();
        let mut got = Vec::new();
        while let Some(m) = b0.recv(Duration::from_millis(200)) {
            got.push(m.bi);
            if got.len() == 3 {
                break;
            }
        }
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn a_loss_drops_only_the_nth_message_on_its_edge() {
        let plan = FaultPlan::reliable(3).with_loss(1, 0, 2);
        let mut boxes = MailboxSet::with_faults(3, plan).into_mailboxes();
        let mut b2 = boxes.pop().unwrap();
        let mut b1 = boxes.pop().unwrap();
        let mut b0 = boxes.pop().unwrap();
        for i in 0..6 {
            b1.send(0, msg(i));
            b1.send(2, msg(10 + i));
        }
        let got: Vec<usize> = std::iter::from_fn(|| b0.try_recv()).map(|m| m.bi).collect();
        assert_eq!(got, [0, 1, 3, 4, 5], "only send #2 on 1 → 0 is lost; the rest in FIFO order");
        let other: Vec<usize> = std::iter::from_fn(|| b2.try_recv()).map(|m| m.bi).collect();
        assert_eq!(other, (10..16).collect::<Vec<_>>(), "another edge loses nothing");
        assert_eq!(b1.sent_log().len(), 11, "the lost message is not logged as sent");
        let m = b1.metrics();
        assert_eq!((m.msgs_sent, m.edges[0].msgs), (12, 6), "the lost message is charged");
    }

    #[test]
    fn metrics_snapshot_tracks_edges_and_depth() {
        let mut boxes = MailboxSet::new(3).into_mailboxes();
        let mut b2 = boxes.pop().unwrap();
        let mut b1 = boxes.pop().unwrap();
        let mut b0 = boxes.pop().unwrap();
        b0.send(1, msg(0));
        b0.send(1, msg(1));
        b0.send(2, msg(2));
        let m = b0.metrics();
        assert_eq!(m.msgs_sent, 3);
        assert_eq!(m.edges.len(), 2);
        assert_eq!(m.edges[0].to, 1);
        assert_eq!(m.edges[0].msgs, 2);
        assert_eq!(m.edges[1].to, 2);
        assert_eq!(m.edges[1].msgs, 1);
        assert_eq!(m.edges[0].bytes + m.edges[1].bytes, m.bytes_sent);
        // Receiver-side queue depth: both messages are on the channel
        // before the first drain, so the peak depth is 2.
        assert!(b1.try_recv().is_some());
        assert!(b1.try_recv().is_some());
        assert_eq!(b1.metrics().max_queue_depth, 2);
        assert!(b2.try_recv().is_some());
        assert_eq!(b2.metrics().max_queue_depth, 1);
    }

    #[test]
    fn fifo_preserved_without_faults() {
        let mut boxes = MailboxSet::new(2).into_mailboxes();
        let mut b1 = boxes.pop().unwrap();
        let mut b0 = boxes.pop().unwrap();
        for i in 0..16 {
            b1.send(0, msg(i));
        }
        let order: Vec<usize> = std::iter::from_fn(|| b0.try_recv()).map(|m| m.bi).collect();
        assert_eq!(order, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn blocking_receives_keep_edge_order() {
        let mut boxes = MailboxSet::<f64>::new(2).into_mailboxes();
        let mut b1 = boxes.pop().unwrap();
        let mut b0 = boxes.pop().unwrap();
        for i in 0..8 {
            b0.send(1, msg(i));
        }
        let got: Vec<usize> =
            (0..8).map(|_| b1.recv(Duration::from_secs(5)).expect("delivery stalled").bi).collect();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
        assert_eq!(b0.metrics().msgs_sent, 8);
    }
}
