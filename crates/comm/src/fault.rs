//! Deterministic fault injection for the rank mailboxes.
//!
//! The synchronisation-free scheduler (paper §4.4) is correct only if it
//! tolerates *any* message timing: the dependency counters must gate every
//! kernel no matter how late or reordered the block messages arrive. A
//! [`FaultPlan`] makes that adversarial timing reproducible: it seeds a
//! per-edge RNG and perturbs every remote `send` with
//!
//! * **latency/bandwidth shaping** — a fixed per-message latency plus a
//!   payload-proportional transfer time;
//! * **probabilistic extra delay** — with `delay_prob`, an additional
//!   uniform delay in `[0, max_delay]`;
//! * **bounded reordering** — messages on an edge are held in a buffer of
//!   `reorder_depth` and released in pseudo-random order (a message can be
//!   overtaken by at most `reorder_depth` later ones).
//!
//! An in-process channel, like the paper's MPI transport, never drops a
//! message, so no plan loses one by chance. A plan can lose exactly one on
//! purpose ([`FaultPlan::with_loss`]); the runtime's stall detector must
//! surface that as a structured error, never a hang.
//!
//! Fates are drawn from [`EdgeRng`], seeded from `(plan.seed, from, to)`
//! — two runs with the same plan draw the same fate sequence on every
//! edge.

use std::time::Duration;

/// A seeded, per-run description of the injected communication faults.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed of every per-edge fate generator.
    pub seed: u64,
    /// Probability that a message receives an extra uniform delay.
    pub delay_prob: f64,
    /// Upper bound of the extra delay.
    pub max_delay: Duration,
    /// Reorder-buffer depth per edge; `0` disables reordering.
    pub reorder_depth: usize,
    /// Fixed latency added to every message.
    pub latency: Duration,
    /// Payload shaping in bytes per second; `None` means infinite.
    pub bandwidth: Option<f64>,
    /// `(from, to, nth)`: the one message the plan loses — the `nth`
    /// remote send on edge `from → to`, counted from 0 in send order
    /// (before the reorder buffer). It is charged on the wire like any
    /// send but never reaches the channel. A send to the own rank is
    /// never lost.
    pub loss: Option<(usize, usize, u64)>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            delay_prob: 0.0,
            max_delay: Duration::ZERO,
            reorder_depth: 0,
            latency: Duration::ZERO,
            bandwidth: None,
            loss: None,
        }
    }
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a builder base).
    pub fn reliable(seed: u64) -> Self {
        FaultPlan { seed, ..Default::default() }
    }

    /// Adds probabilistic per-message delay.
    pub fn with_delays(mut self, prob: f64, max_delay: Duration) -> Self {
        assert!((0.0..=1.0).contains(&prob), "delay probability out of range");
        self.delay_prob = prob;
        self.max_delay = max_delay;
        self
    }

    /// Adds bounded per-edge reordering.
    pub fn with_reordering(mut self, depth: usize) -> Self {
        self.reorder_depth = depth;
        self
    }

    /// Adds latency/bandwidth shaping.
    pub fn with_shaping(mut self, latency: Duration, bytes_per_sec: f64) -> Self {
        self.latency = latency;
        self.bandwidth = Some(bytes_per_sec);
        self
    }

    /// Loses the `nth` remote send on edge `from → to` (see the `loss`
    /// field docs).
    pub fn with_loss(mut self, from: usize, to: usize, nth: u64) -> Self {
        self.loss = Some((from, to, nth));
        self
    }

    /// Derives a mixed adversarial plan from a single seed: every timing
    /// fault is enabled with seed-dependent severity, and nothing is
    /// lost. This is the generator behind the seeded fault-schedule test
    /// matrices.
    pub fn adversarial(seed: u64) -> Self {
        let mut rng = EdgeRng::new(seed, 0xFA, 0x17);
        FaultPlan {
            seed,
            delay_prob: 0.2 + 0.6 * rng.next_f64(),
            max_delay: Duration::from_micros(200 + rng.below(4_000)),
            reorder_depth: rng.below(5) as usize,
            latency: Duration::from_micros(rng.below(300)),
            bandwidth: if rng.next_f64() < 0.5 {
                Some(2e8 + 8e8 * rng.next_f64()) // 200 MB/s .. 1 GB/s
            } else {
                None
            },
            loss: None,
        }
    }

    /// True when the plan can actually perturb anything.
    pub fn is_active(&self) -> bool {
        self.delay_prob > 0.0
            || self.reorder_depth > 0
            || self.latency > Duration::ZERO
            || self.bandwidth.is_some()
            || self.loss.is_some()
    }

    /// The transfer time the shaping parameters charge for a payload.
    pub fn transfer_time(&self, bytes: usize) -> Duration {
        let mut d = self.latency;
        if let Some(bw) = self.bandwidth {
            d += Duration::from_secs_f64(bytes as f64 / bw.max(1.0));
        }
        d
    }

    /// Draws the fate of the next message on an edge: its delivery delay
    /// (`ZERO` means immediately).
    pub fn fate(&self, rng: &mut EdgeRng, payload_bytes: usize) -> Duration {
        let mut delay = self.transfer_time(payload_bytes);
        if self.delay_prob > 0.0 && rng.next_f64() < self.delay_prob {
            delay += Duration::from_secs_f64(self.max_delay.as_secs_f64() * rng.next_f64());
        }
        delay
    }
}

/// Deterministic per-edge fate generator (SplitMix64-seeded xorshift64*).
#[derive(Debug, Clone)]
pub struct EdgeRng {
    state: u64,
}

impl EdgeRng {
    /// Seeds the generator for the directed edge `from -> to`.
    pub fn new(seed: u64, from: usize, to: usize) -> Self {
        let mut z = seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add((from as u64).wrapping_mul(0xBF58476D1CE4E5B9))
            .wrapping_add((to as u64).wrapping_mul(0x94D049BB133111EB))
            .wrapping_add(0xD6E8FEB86659FD93);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        EdgeRng { state: (z ^ (z >> 31)) | 1 }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`; returns 0 for `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_fates() {
        let plan = FaultPlan::adversarial(7);
        let mut a = EdgeRng::new(plan.seed, 0, 1);
        let mut b = EdgeRng::new(plan.seed, 0, 1);
        for _ in 0..200 {
            assert_eq!(plan.fate(&mut a, 128), plan.fate(&mut b, 128));
        }
    }

    #[test]
    fn different_edges_diverge() {
        let plan = FaultPlan::adversarial(7);
        let mut a = EdgeRng::new(plan.seed, 0, 1);
        let mut b = EdgeRng::new(plan.seed, 1, 0);
        let fates_a: Vec<_> = (0..64).map(|_| plan.fate(&mut a, 64)).collect();
        let fates_b: Vec<_> = (0..64).map(|_| plan.fate(&mut b, 64)).collect();
        assert_ne!(fates_a, fates_b);
    }

    #[test]
    fn reliable_plan_is_inert() {
        let plan = FaultPlan::reliable(0);
        assert!(!plan.is_active());
        let mut rng = EdgeRng::new(0, 0, 1);
        assert_eq!(plan.fate(&mut rng, 1 << 20), Duration::ZERO);
        assert!(plan.with_loss(0, 1, 0).is_active(), "a loss alone perturbs a run");
    }

    #[test]
    fn shaping_charges_payload_time() {
        let plan =
            FaultPlan::reliable(1).with_shaping(Duration::from_micros(10), 1e6 /* 1 MB/s */);
        let t = plan.transfer_time(500_000);
        assert!(t >= Duration::from_millis(500));
    }

    #[test]
    fn adversarial_plans_vary_with_seed() {
        let a = FaultPlan::adversarial(1);
        let b = FaultPlan::adversarial(2);
        assert!(a.delay_prob != b.delay_prob || a.max_delay != b.max_delay);
        assert!(a.loss.is_none() && b.loss.is_none(), "adversarial plans lose nothing");
    }
}
