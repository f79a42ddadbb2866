//! Malicious peer behaviour: ADDR flooding (§IV-B, Figure 8).
//!
//! The paper identified 73 reachable nodes whose every `ADDR` response
//! contained only *unreachable* addresses — 8 of them shipped more than
//! 100,000 and one more than 400,000 — poisoning the receiving nodes' IP
//! tables and driving up the outgoing-connection failure rate. 59% of them
//! sat in a single AS (AS3320).
//!
//! [`AddrFlooder`] reproduces the behaviour: a pre-generated pool of
//! fabricated unreachable addresses is served in 1000-address `ADDR`
//! batches to every `GETADDR` (the once-per-connection rule is ignored),
//! and the node's own (reachable) address is never included — which is the
//! tell the paper's detection heuristic keys on.

use bitsync_protocol::addr::{NetAddr, TimestampedAddr, DEFAULT_PORT};
use bitsync_sim::rng::SimRng;
use std::net::Ipv4Addr;

/// Smallest flooder pool (the paper's threshold for flagging: >1,000).
const MIN_POOL: f64 = 1_100.0;

/// Largest flooder pool (the paper's outlier: >400,000).
const MAX_POOL: f64 = 420_000.0;

/// Pareto-ish shape exponent for the spread between them.
const POOL_SHAPE: f64 = 0.5;

/// Pool-size distribution for a population of flooders, matching Figure 8's
/// shape: most flooders carry tens of thousands of addresses, a handful
/// carry >100K, one carries >400K.
pub struct FloodScale;

impl FloodScale {
    /// Samples one flooder's pool size.
    pub fn sample(rng: &mut SimRng) -> usize {
        // Bounded Pareto via inverse transform.
        let (a, l, h) = (POOL_SHAPE, MIN_POOL, MAX_POOL);
        let u = rng.unit();
        let x = (l.powf(a) / (1.0 - u * (1.0 - (l / h).powf(a)))).powf(1.0 / a);
        x.min(h) as usize
    }
}

/// An ADDR-flooding state machine attached to a malicious reachable node.
#[derive(Clone, Debug)]
pub struct AddrFlooder {
    pool: Vec<NetAddr>,
    cursor: usize,
    /// Addresses per `ADDR` response (protocol maximum is 1000).
    pub per_reply: usize,
    /// Total addresses served so far.
    pub served: u64,
}

impl AddrFlooder {
    /// Generates a flooder with `pool_size` fabricated unreachable
    /// addresses.
    pub fn generate(pool_size: usize, rng: &mut SimRng) -> Self {
        let mut pool = Vec::with_capacity(pool_size);
        while pool.len() < pool_size {
            // Fabricated addresses: plausible public space, mostly on 8333
            // so they blend into honest gossip.
            let ip = Ipv4Addr::new(
                (1 + rng.below(222)) as u8,
                rng.below(256) as u8,
                rng.below(256) as u8,
                (1 + rng.below(254)) as u8,
            );
            let port = if rng.chance(0.885) {
                DEFAULT_PORT
            } else {
                1024 + rng.below(60_000) as u16
            };
            pool.push(NetAddr::from_ipv4(ip, port));
        }
        AddrFlooder {
            pool,
            cursor: 0,
            per_reply: 1000,
            served: 0,
        }
    }

    /// Total fabricated addresses this flooder can serve.
    pub fn pool_size(&self) -> usize {
        self.pool.len()
    }

    /// The next `ADDR` batch: up to `per_reply` addresses, advancing
    /// through the pool and wrapping around when exhausted (so iterative
    /// GETADDR crawls eventually see only repeats and stop, per the
    /// paper's Algorithm 1 termination rule).
    pub fn next_batch(&mut self, now_unix: i64) -> Vec<TimestampedAddr> {
        let n = self.per_reply.min(self.pool.len());
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let a = self.pool[self.cursor];
            self.cursor = (self.cursor + 1) % self.pool.len();
            out.push(TimestampedAddr::new(now_unix.max(0) as u32, a));
        }
        self.served += out.len() as u64;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_has_requested_size() {
        let mut rng = SimRng::seed_from(1);
        let f = AddrFlooder::generate(5000, &mut rng);
        assert_eq!(f.pool_size(), 5000);
    }

    #[test]
    fn batches_are_protocol_sized_and_wrap() {
        let mut rng = SimRng::seed_from(2);
        let mut f = AddrFlooder::generate(2500, &mut rng);
        let b1 = f.next_batch(0);
        let b2 = f.next_batch(0);
        let b3 = f.next_batch(0); // wraps: 2500 = 2.5 batches
        assert_eq!(b1.len(), 1000);
        assert_eq!(b2.len(), 1000);
        assert_eq!(b3.len(), 1000);
        // The third batch overlaps the first by 500 addresses.
        let first_set: std::collections::HashSet<_> = b1.iter().map(|e| e.addr).collect();
        let overlap = b3.iter().filter(|e| first_set.contains(&e.addr)).count();
        assert_eq!(overlap, 500);
        assert_eq!(f.served, 3000);
    }

    #[test]
    fn small_pool_batches_clamp() {
        let mut rng = SimRng::seed_from(3);
        let mut f = AddrFlooder::generate(10, &mut rng);
        assert_eq!(f.next_batch(0).len(), 10);
    }

    #[test]
    fn flood_scale_matches_figure8_shape() {
        let mut rng = SimRng::seed_from(5);
        let sizes: Vec<usize> = (0..73).map(|_| FloodScale::sample(&mut rng)).collect();
        assert!(sizes.iter().all(|&s| s > 1000));
        assert!(sizes.iter().all(|&s| s <= 420_000));
        let over_100k = sizes.iter().filter(|&&s| s > 100_000).count();
        // Figure 8: ~8 of 73 flooders exceed 100K addresses.
        assert!(
            (3..=20).contains(&over_100k),
            "flooders over 100K: {over_100k}"
        );
    }

    #[test]
    fn pool_addresses_look_public() {
        let mut rng = SimRng::seed_from(5);
        let f = AddrFlooder::generate(1000, &mut rng);
        for a in &f.pool {
            let first = a.as_ipv4().unwrap().octets()[0];
            assert!((1..=222).contains(&first));
        }
    }
}
