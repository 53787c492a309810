//! The shared-memory backend: one single-producer single-consumer byte
//! ring per directed edge, carrying codec frames.
//!
//! The ring is a plain byte buffer plus two monotonically increasing
//! atomic cursors and a close flag — deliberately no pointers, no
//! layouts that could not live in an `mmap`ed segment between forked
//! worker processes. `std` offers no fork, so the harness exercises the
//! rings between the rank threads; the memory discipline is the
//! process one regardless: the producer only ever writes
//! `[tail, head + cap)`, the consumer only ever reads `[head, tail)`,
//! and the release/acquire pairs on the cursors order the byte copies
//! against cursor publication.
//!
//! A full ring never blocks or deadlocks a sender: bytes that do not fit
//! are staged in a sender-side overflow queue (per edge, preserving
//! FIFO) and pushed on every subsequent send, flush, and receive poll.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pangulu_sparse::Scalar;

use crate::codec;
use crate::codec::{FrameDecoder, PayloadMemo};

use super::{PeerClosed, Transport, TransportKind, TransportStats, WireEnvelope, POLL_INTERVAL};

/// Capacity of one directed-edge ring. Small enough that a `p×p` mesh
/// stays cheap, large enough that steady-state traffic rarely overflows
/// into the staging queue.
const RING_CAP: usize = 1 << 18;

/// How many bytes one receive poll drains from one ring at most.
const READ_CHUNK: usize = 1 << 16;

/// One SPSC byte ring. `head`/`tail` count total bytes consumed/written
/// since creation (monotonic); the buffer index is the cursor modulo the
/// capacity.
struct Ring {
    cap: usize,
    /// Total bytes consumed (consumer-owned, producer reads it).
    head: AtomicUsize,
    /// Total bytes written (producer-owned, consumer reads it).
    tail: AtomicUsize,
    /// Set when the consumer endpoint is gone; producers fail fast.
    closed: AtomicBool,
    buf: UnsafeCell<Box<[u8]>>,
}

// SAFETY: the producer side writes only `[tail, head + cap)` and the
// consumer side reads only `[head, tail)`; the two regions are disjoint
// by construction, each cursor is advanced only by its owning side, and
// every copy is published to the other side through a release store /
// acquire load on the advancing cursor.
unsafe impl Sync for Ring {}
unsafe impl Send for Ring {}

impl Ring {
    fn new(cap: usize) -> Self {
        Ring {
            cap,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            buf: UnsafeCell::new(vec![0u8; cap].into_boxed_slice()),
        }
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// Producer side: writes as much of `bytes` as fits, returns the
    /// count (0 when full).
    fn write_some(&self, bytes: &[u8]) -> Result<usize, PeerClosed> {
        if self.closed.load(Ordering::Acquire) {
            return Err(PeerClosed);
        }
        let head = self.head.load(Ordering::Acquire);
        let tail = self.tail.load(Ordering::Relaxed);
        let free = self.cap - (tail - head);
        let n = free.min(bytes.len());
        if n == 0 {
            return Ok(0);
        }
        let start = tail % self.cap;
        let first = n.min(self.cap - start);
        // SAFETY: producer-exclusive region (see the Sync rationale).
        unsafe {
            let buf = &mut *self.buf.get();
            buf[start..start + first].copy_from_slice(&bytes[..first]);
            if n > first {
                buf[..n - first].copy_from_slice(&bytes[first..n]);
            }
        }
        self.tail.store(tail + n, Ordering::Release);
        Ok(n)
    }

    /// Consumer side: appends up to `max` available bytes to `out`,
    /// returns the count.
    fn read_into(&self, out: &mut Vec<u8>, max: usize) -> usize {
        let tail = self.tail.load(Ordering::Acquire);
        let head = self.head.load(Ordering::Relaxed);
        let n = (tail - head).min(max);
        if n == 0 {
            return 0;
        }
        let start = head % self.cap;
        let first = n.min(self.cap - start);
        // SAFETY: consumer-exclusive region (see the Sync rationale).
        unsafe {
            let buf = &*self.buf.get();
            out.extend_from_slice(&buf[start..start + first]);
            if n > first {
                out.extend_from_slice(&buf[..n - first]);
            }
        }
        self.head.store(head + n, Ordering::Release);
        n
    }
}

/// One rank's shared-memory endpoint.
pub struct ShmTransport<S: Scalar = f64> {
    rank: usize,
    /// Outgoing ring per destination (`None` at the own index).
    out: Vec<Option<Arc<Ring>>>,
    /// Incoming ring per source (`None` at the own index).
    inn: Vec<Option<Arc<Ring>>>,
    /// Per-destination overflow bytes that did not fit in the ring yet.
    staged: Vec<VecDeque<u8>>,
    /// Per-source stream reassembly.
    decoders: Vec<FrameDecoder<S>>,
    /// Decoded-but-not-yet-returned envelopes.
    ready: VecDeque<WireEnvelope<S>>,
    /// Round-robin start of the receive poll, for cross-edge fairness.
    next_poll: usize,
    memo: PayloadMemo<S>,
    stats: TransportStats,
    scratch: Vec<u8>,
    severed: bool,
}

/// Builds the `p` endpoints over a full `p×p` ring mesh.
pub fn build<S: Scalar>(p: usize) -> Vec<ShmTransport<S>> {
    // rings[from][to]
    let rings: Vec<Vec<Option<Arc<Ring>>>> = (0..p)
        .map(|from| (0..p).map(|to| (from != to).then(|| Arc::new(Ring::new(RING_CAP)))).collect())
        .collect();
    (0..p)
        .map(|rank| ShmTransport {
            rank,
            out: rings[rank].clone(),
            inn: (0..p).map(|from| rings[from][rank].clone()).collect(),
            staged: (0..p).map(|_| VecDeque::new()).collect(),
            decoders: (0..p).map(|_| FrameDecoder::new()).collect(),
            ready: VecDeque::new(),
            next_poll: 0,
            memo: PayloadMemo::default(),
            stats: TransportStats::default(),
            scratch: Vec::with_capacity(READ_CHUNK),
            severed: false,
        })
        .collect()
}

impl<S: Scalar> ShmTransport<S> {
    /// Pushes staged bytes for `to` into its ring; `Err` when the
    /// consumer is gone.
    fn drain_staged(&mut self, to: usize) -> Result<(), PeerClosed> {
        let Some(ring) = self.out[to].as_ref() else { return Err(PeerClosed) };
        while !self.staged[to].is_empty() {
            let (front, _) = self.staged[to].as_slices();
            let n = match ring.write_some(front) {
                Ok(0) => break,
                Ok(n) => n,
                Err(PeerClosed) => {
                    // Peer died mid-stream: the staged bytes can never be
                    // delivered, so drop them and report the edge closed.
                    self.staged[to].clear();
                    self.out[to] = None;
                    return Err(PeerClosed);
                }
            };
            self.staged[to].drain(..n);
        }
        Ok(())
    }

    /// Reads available bytes from every incoming ring and decodes
    /// complete frames into the ready queue.
    fn poll_wires(&mut self) {
        let p = self.inn.len();
        for off in 0..p {
            let from = (self.next_poll + off) % p;
            let Some(ring) = self.inn[from].as_ref() else { continue };
            loop {
                self.scratch.clear();
                if ring.read_into(&mut self.scratch, READ_CHUNK) == 0 {
                    break;
                }
                self.decoders[from].extend(&self.scratch);
            }
            loop {
                match self.decoders[from].next_frame() {
                    Ok(Some(env)) => self.ready.push_back(env),
                    Ok(None) => break,
                    Err(e) => panic!("shm stream from rank {from} corrupted: {e}"),
                }
            }
        }
        self.next_poll = (self.next_poll + 1) % p.max(1);
    }
}

impl<S: Scalar> Transport<S> for ShmTransport<S> {
    fn kind(&self) -> TransportKind {
        TransportKind::Shm
    }

    fn send(&mut self, to: usize, env: WireEnvelope<S>) -> Result<(), PeerClosed> {
        assert!(to < self.out.len(), "destination rank {to} out of range");
        assert_ne!(to, self.rank, "loopback never reaches the transport");
        if self.severed || self.out[to].is_none() {
            return Err(PeerClosed);
        }
        let payload = self.memo.encoded(&env.msg.values, &mut self.stats.codec_bytes_encoded);
        let mut header = Vec::with_capacity(4 + codec::HEADER_LEN);
        codec::encode_header(&env, &mut header);
        self.stats.codec_bytes_encoded += header.len() as u64;
        self.staged[to].extend(header);
        self.staged[to].extend(payload.iter().copied());
        self.stats.frames_sent += 1;
        self.drain_staged(to)
    }

    fn try_recv(&mut self) -> Option<WireEnvelope<S>> {
        if self.ready.is_empty() {
            self.poll_wires();
        }
        self.ready.pop_front()
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<WireEnvelope<S>> {
        let deadline = Instant::now() + timeout;
        loop {
            // Keep pushing our own staged bytes while we wait — a ring
            // that was full when we sent may have drained by now.
            self.flush();
            if let Some(env) = Transport::try_recv(self) {
                return Some(env);
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(POLL_INTERVAL);
        }
    }

    fn flush(&mut self) -> bool {
        for to in 0..self.out.len() {
            if to != self.rank {
                // A closed peer's bytes are dropped: nothing is held back.
                let _ = self.drain_staged(to);
            }
        }
        self.staged.iter().all(VecDeque::is_empty)
    }

    fn sever(&mut self) {
        for ring in self.inn.iter().flatten() {
            ring.close();
        }
        self.inn.iter_mut().for_each(|r| *r = None);
        self.staged.iter_mut().for_each(VecDeque::clear);
        self.severed = true;
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

impl<S: Scalar> Drop for ShmTransport<S> {
    fn drop(&mut self) {
        // A vanished endpoint must fail its peers' sends, exactly like
        // the dropped channel receiver in the channel backend.
        for ring in self.inn.iter().flatten() {
            ring.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{BlockMsg, BlockRole};

    fn env(seq: u64, vals: Vec<f64>) -> WireEnvelope<f64> {
        WireEnvelope {
            from: 0,
            seq,
            delay_nanos: 0,
            msg: BlockMsg { bi: seq as usize, bj: 0, role: BlockRole::LPanel, values: vals.into() },
        }
    }

    #[test]
    fn frames_cross_the_ring_in_order() {
        let mut eps = build::<f64>(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        for seq in 0..20 {
            a.send(1, env(seq, vec![seq as f64; 7])).unwrap();
        }
        let got: Vec<u64> = std::iter::from_fn(|| b.try_recv()).map(|e| e.seq).collect();
        assert_eq!(got, (0..20).collect::<Vec<_>>());
        assert_eq!(a.stats().frames_sent, 20);
    }

    #[test]
    fn overflow_stages_instead_of_deadlocking() {
        let mut eps = build::<f64>(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        // ~64 KiB per frame: a handful overflow the 256 KiB ring.
        let n = 16;
        for seq in 0..n {
            a.send(1, env(seq, vec![1.0; 8192])).unwrap();
        }
        let mut got = 0u64;
        while got < n {
            a.flush();
            if let Some(e) = b.try_recv() {
                assert_eq!(e.seq, got, "per-edge FIFO broken across the overflow path");
                got += 1;
            }
        }
    }

    #[test]
    fn severed_endpoint_fails_peer_sends() {
        let mut eps = build::<f64>(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        b.sever();
        assert_eq!(a.send(1, env(0, vec![1.0])), Err(PeerClosed));
        assert!(b.try_recv().is_none());
    }
}
