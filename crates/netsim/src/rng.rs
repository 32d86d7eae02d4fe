//! Splittable, counter-based deterministic RNG.
//!
//! Every measurement in a campaign is a *flow* identified by
//! (probe, region, sequence). [`FlowRng`] derives an independent stream from
//! `(seed, flow_id)` via SplitMix64, so:
//!
//! * the same seed reproduces the whole six-month campaign bit-for-bit;
//! * campaigns shard across scoped threads with no ordering effects —
//!   a flow's draws never depend on which thread sampled it.

use rand::RngCore;

/// SplitMix64 — the standard 64-bit finalizer/stream generator.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Mix an arbitrary set of identifiers into one flow id.
#[inline]
pub fn mix(parts: &[u64]) -> u64 {
    let mut acc = 0x9E3779B97F4A7C15u64;
    for &p in parts {
        acc = splitmix64(acc ^ p);
    }
    acc
}

/// A deterministic RNG for one flow.
#[derive(Debug, Clone)]
pub struct FlowRng {
    base: u64,
    counter: u64,
}

impl FlowRng {
    /// Create the stream for `(seed, flow_id)`.
    pub fn new(seed: u64, flow_id: u64) -> Self {
        FlowRng { base: splitmix64(seed ^ splitmix64(flow_id)), counter: 0 }
    }

    /// Derive a sub-stream (e.g. one per hop) without disturbing this one.
    pub fn split(&self, label: u64) -> FlowRng {
        FlowRng { base: splitmix64(self.base ^ splitmix64(label ^ 0xA5A5_5A5A_DEAD_BEEF)), counter: 0 }
    }
}

impl RngCore for FlowRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        let v = splitmix64(self.base.wrapping_add(self.counter.wrapping_mul(0xD1B54A32D192ED03)));
        self.counter += 1;
        v
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_flow_same_stream() {
        let mut a = FlowRng::new(42, 7);
        let mut b = FlowRng::new(42, 7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_flows_differ() {
        let mut a = FlowRng::new(42, 7);
        let mut b = FlowRng::new(42, 8);
        let va: Vec<u64> = (0..10).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..10).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = FlowRng::new(1, 7);
        let mut b = FlowRng::new(2, 7);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn split_streams_are_independent_of_parent_consumption() {
        let parent = FlowRng::new(9, 9);
        let mut s1 = parent.split(1);
        let mut parent2 = FlowRng::new(9, 9);
        for _ in 0..5 {
            parent2.next_u64();
        }
        let mut s2 = parent2.split(1);
        for _ in 0..20 {
            assert_eq!(s1.next_u64(), s2.next_u64());
        }
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut r = FlowRng::new(3, 3);
        for _ in 0..10_000 {
            let v: f64 = r.gen();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn uniformity_rough_check() {
        let mut r = FlowRng::new(5, 5);
        let n = 100_000;
        let mut buckets = [0usize; 10];
        for _ in 0..n {
            let v: f64 = r.gen();
            buckets[(v * 10.0) as usize] += 1;
        }
        for (i, b) in buckets.iter().enumerate() {
            let frac = *b as f64 / n as f64;
            assert!((frac - 0.1).abs() < 0.01, "bucket {i}: {frac}");
        }
    }

    #[test]
    fn fill_bytes_partial_chunks() {
        let mut r = FlowRng::new(1, 1);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        // Not all zero (astronomically unlikely).
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn mix_is_order_sensitive() {
        assert_ne!(mix(&[1, 2]), mix(&[2, 1]));
        assert_eq!(mix(&[1, 2, 3]), mix(&[1, 2, 3]));
    }
}
